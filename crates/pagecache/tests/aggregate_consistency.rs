//! Randomized consistency test for the incremental LRU aggregates.
//!
//! `LruLists` answers `total_cached`, `total_dirty`, `inactive_bytes`,
//! `active_bytes`, `cached_amount`, `dirty_amount`, `cached_per_file` and
//! `evictable` from incrementally maintained counters. This test applies ~10k
//! random add/read/flush/evict (plus expiry, balance and invalidation)
//! operations and, after **every** operation, recomputes each aggregate from
//! a full scan of the block lists and asserts the incremental answer agrees
//! within `EPSILON`. The scan here is written against the public block
//! iterators, independently of the `recompute_*` oracles inside the crate.

use std::collections::{BTreeMap, HashMap};

use des::SimTime;
use pagecache::{CacheState, FileId, LruLists, ReclaimScope, EPSILON};

/// The naive models' reclaim scope: [`ReclaimScope`] with the excluded file
/// named, not keyed, as a specification written without the file table
/// would name it.
#[derive(Debug, Clone, Copy)]
enum NaiveScope<'a> {
    Host(Option<&'a FileId>),
    Group(u32),
}

/// Deterministic xorshift64* PRNG (crates.io is unreachable in this build
/// environment, so no `rand`).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    }

    fn usize(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }
}

fn scan_cached(lru: &LruLists) -> f64 {
    lru.iter_all().map(|b| b.size).sum()
}

fn scan_dirty(lru: &LruLists) -> f64 {
    lru.iter_all().filter(|b| b.dirty).map(|b| b.size).sum()
}

fn scan_inactive(lru: &LruLists) -> f64 {
    lru.inactive_blocks().map(|b| b.size).sum()
}

fn scan_active(lru: &LruLists) -> f64 {
    lru.active_blocks().map(|b| b.size).sum()
}

fn scan_cached_amount(lru: &LruLists, file: &FileId) -> f64 {
    lru.iter_all()
        .filter(|b| &b.file == file)
        .map(|b| b.size)
        .sum()
}

fn scan_dirty_amount(lru: &LruLists, file: &FileId) -> f64 {
    lru.iter_all()
        .filter(|b| b.dirty && &b.file == file)
        .map(|b| b.size)
        .sum()
}

fn scan_evictable(lru: &LruLists, exclude: Option<&FileId>) -> f64 {
    lru.inactive_blocks()
        .filter(|b| !b.dirty && (exclude != Some(&b.file)))
        .map(|b| b.size)
        .sum()
}

fn scan_per_file(lru: &LruLists) -> BTreeMap<FileId, f64> {
    let mut map = BTreeMap::new();
    for b in lru.iter_all() {
        *map.entry(b.file.clone()).or_insert(0.0) += b.size;
    }
    map
}

fn assert_close(what: impl std::fmt::Display, incremental: f64, scanned: f64, op: usize) {
    assert!(
        (incremental - scanned).abs() < EPSILON + 1e-9 * scanned.abs(),
        "op {op}: {what}: incremental {incremental} != scan {scanned}"
    );
}

#[test]
fn incremental_aggregates_match_full_scan_over_10k_random_ops() {
    const OPS: usize = 10_000;
    const FILES: usize = 8;
    let files: Vec<FileId> = (0..FILES)
        .map(|i| FileId::new(format!("file_{i}")))
        .collect();
    let mut rng = Rng(0xDEC0DE);
    let mut lru = LruLists::new();
    let keys: Vec<u64> = files.iter().map(|f| lru.key_or_insert(f)).collect();
    let mut clock = 0.0;
    for op in 0..OPS {
        // 1-in-8 ops keep the previous timestamp: simulated events often
        // coincide (chunks of one request), and equal timestamps are what
        // arms the arena's coalescing paths — they must be covered here.
        if rng.usize(0, 8) != 0 {
            clock += rng.f64(0.01, 1.0);
        }
        let now = SimTime::from_secs(clock);
        let key = keys[rng.usize(0, FILES)];
        match rng.usize(0, 10) {
            0..=2 => lru.add_clean(key, rng.f64(0.5, 400.0), now),
            3 | 4 => lru.add_dirty(key, rng.f64(0.5, 400.0), now),
            5 | 6 => {
                lru.read_cached(key, rng.f64(1.0, 900.0), now);
            }
            7 => {
                let exclude = (rng.usize(0, 3) == 0).then_some(key);
                lru.flush_lru(rng.f64(0.0, 900.0), ReclaimScope::Host(exclude));
            }
            8 => {
                let exclude = (rng.usize(0, 3) == 0).then_some(key);
                lru.evict(rng.f64(0.0, 900.0), ReclaimScope::Host(exclude));
            }
            _ => match rng.usize(0, 3) {
                0 => {
                    lru.flush_expired(now, 5.0);
                }
                1 => lru.balance(),
                _ => {
                    lru.invalidate_file(key);
                }
            },
        }

        // Every O(1) aggregate must agree with a full-scan recomputation.
        assert_close("total_cached", lru.total_cached(), scan_cached(&lru), op);
        assert_close("total_dirty", lru.total_dirty(), scan_dirty(&lru), op);
        assert_close(
            "inactive_bytes",
            lru.inactive_bytes(),
            scan_inactive(&lru),
            op,
        );
        assert_close("active_bytes", lru.active_bytes(), scan_active(&lru), op);
        assert_close(
            "evictable",
            lru.evictable(None),
            scan_evictable(&lru, None),
            op,
        );
        let p = rng.usize(0, FILES);
        let probe = &files[p];
        assert_close(
            "cached_amount",
            lru.cached_amount(keys[p]),
            scan_cached_amount(&lru, probe),
            op,
        );
        assert_close(
            "dirty_amount",
            lru.dirty_amount(keys[p]),
            scan_dirty_amount(&lru, probe),
            op,
        );
        assert_close(
            "evictable(exclude)",
            lru.evictable(Some(keys[p])),
            scan_evictable(&lru, Some(probe)),
            op,
        );

        // The per-file map matches a scan-built map, file by file.
        let scanned = scan_per_file(&lru);
        let reported = lru.cached_per_file();
        assert_eq!(
            reported.len(),
            scanned.len(),
            "op {op}: per-file map sizes differ"
        );
        for (f, cached) in &scanned {
            let inc = reported.get(f).copied().unwrap_or(0.0);
            assert_close("cached_per_file entry", inc, *cached, op);
        }

        // And the crate's own structural + aggregate invariants hold.
        lru.check_invariants().unwrap();
    }
    // The workload actually exercised a non-trivial cache.
    assert!(lru.block_count() > 0);
}

// ---------------------------------------------------------------------------
// Differential test: arena LRU vs a retained naive scan-based model.
// ---------------------------------------------------------------------------

use pagecache::DataBlock;
use std::collections::VecDeque;

/// A faithful port of the pre-arena `VecDeque` implementation of `LruLists`,
/// with every aggregate recomputed by scanning (no incremental counters, no
/// intrusive chains, no coalescing). It serves as the executable
/// specification the slab-arena rewrite must match byte-for-byte (within
/// `EPSILON`): same read/flush/evict results, same aggregates, under any
/// operation sequence.
#[derive(Default)]
struct NaiveLru {
    inactive: VecDeque<DataBlock>,
    active: VecDeque<DataBlock>,
}

impl NaiveLru {
    fn list(&self, active: bool) -> &VecDeque<DataBlock> {
        if active {
            &self.active
        } else {
            &self.inactive
        }
    }

    fn total_cached(&self) -> f64 {
        self.inactive
            .iter()
            .chain(&self.active)
            .map(|b| b.size)
            .sum()
    }

    fn total_dirty(&self) -> f64 {
        self.inactive
            .iter()
            .chain(&self.active)
            .filter(|b| b.dirty)
            .map(|b| b.size)
            .sum()
    }

    fn inactive_bytes(&self) -> f64 {
        self.inactive.iter().map(|b| b.size).sum()
    }

    fn active_bytes(&self) -> f64 {
        self.active.iter().map(|b| b.size).sum()
    }

    fn cached_amount(&self, file: &FileId) -> f64 {
        self.inactive
            .iter()
            .chain(&self.active)
            .filter(|b| &b.file == file)
            .map(|b| b.size)
            .sum()
    }

    fn dirty_amount(&self, file: &FileId) -> f64 {
        self.inactive
            .iter()
            .chain(&self.active)
            .filter(|b| b.dirty && &b.file == file)
            .map(|b| b.size)
            .sum()
    }

    fn evictable(&self, exclude: Option<&FileId>) -> f64 {
        self.inactive
            .iter()
            .filter(|b| !b.dirty && exclude != Some(&b.file))
            .map(|b| b.size)
            .sum()
    }

    fn insert_sorted(list: &mut VecDeque<DataBlock>, block: DataBlock) {
        match list.back() {
            None => list.push_back(block),
            Some(b) if b.last_access <= block.last_access => list.push_back(block),
            _ => {
                let pos = list.partition_point(|b| b.last_access <= block.last_access);
                list.insert(pos, block);
            }
        }
    }

    fn add_clean(&mut self, file: FileId, size: f64, now: SimTime) {
        if size <= EPSILON {
            return;
        }
        Self::insert_sorted(&mut self.inactive, DataBlock::clean(file, size, now));
        self.balance();
    }

    fn add_dirty(&mut self, file: FileId, size: f64, now: SimTime) {
        if size <= EPSILON {
            return;
        }
        Self::insert_sorted(&mut self.inactive, DataBlock::dirty(file, size, now));
        self.balance();
    }

    fn read_cached(&mut self, file: &FileId, amount: f64, now: SimTime) -> f64 {
        if amount <= EPSILON || self.cached_amount(file) <= EPSILON {
            return 0.0;
        }
        let taken = self.take_for_read(file, amount);
        let mut clean_total = 0.0;
        let mut read_total = 0.0;
        for blk in taken {
            read_total += blk.size;
            if blk.dirty {
                let promoted = DataBlock {
                    file: blk.file,
                    size: blk.size,
                    entry_time: blk.entry_time,
                    last_access: now,
                    dirty: true,
                };
                Self::insert_sorted(&mut self.active, promoted);
            } else {
                clean_total += blk.size;
            }
        }
        if clean_total > EPSILON {
            let merged = DataBlock::clean(file.clone(), clean_total, now);
            Self::insert_sorted(&mut self.active, merged);
        }
        read_total
    }

    fn take_for_read(&mut self, file: &FileId, amount: f64) -> Vec<DataBlock> {
        let mut taken = Vec::new();
        let mut remaining = amount;
        for active in [false, true] {
            let on_list: f64 = self
                .list(active)
                .iter()
                .filter(|b| &b.file == file)
                .map(|b| b.size)
                .sum();
            if on_list <= EPSILON {
                continue;
            }
            let mut from_list = 0.0;
            let mut i = 0;
            while remaining > EPSILON && from_list < on_list - EPSILON {
                let list = if active {
                    &mut self.active
                } else {
                    &mut self.inactive
                };
                if i >= list.len() {
                    break;
                }
                if &list[i].file == file {
                    if list[i].size <= remaining + EPSILON {
                        let blk = list.remove(i).expect("index checked above");
                        remaining -= blk.size;
                        from_list += blk.size;
                        taken.push(blk);
                        continue;
                    } else {
                        let head = list[i].split_off(remaining);
                        taken.push(head);
                        remaining = 0.0;
                        break;
                    }
                }
                i += 1;
            }
        }
        taken
    }

    fn flush_lru(&mut self, amount: f64, exclude: Option<&FileId>) -> f64 {
        if amount <= EPSILON || self.total_dirty() <= EPSILON {
            return 0.0;
        }
        let mut flushed = 0.0;
        for active in [false, true] {
            let list_dirty: f64 = self
                .list(active)
                .iter()
                .filter(|b| b.dirty)
                .map(|b| b.size)
                .sum();
            if list_dirty <= EPSILON {
                continue;
            }
            let mut i = 0;
            loop {
                let list = if active {
                    &mut self.active
                } else {
                    &mut self.inactive
                };
                if i >= list.len() {
                    break;
                }
                if flushed >= amount - EPSILON {
                    return flushed;
                }
                let is_candidate = list[i].dirty && exclude != Some(&list[i].file);
                if is_candidate {
                    let need = amount - flushed;
                    if list[i].size <= need + EPSILON {
                        list[i].dirty = false;
                        flushed += list[i].size;
                    } else {
                        let mut head = list[i].split_off(need);
                        head.dirty = false;
                        flushed += head.size;
                        list.insert(i, head);
                        return flushed;
                    }
                }
                i += 1;
            }
        }
        flushed
    }

    fn evict(&mut self, amount: f64, exclude: Option<&FileId>) -> f64 {
        if amount <= EPSILON {
            return 0.0;
        }
        self.balance();
        let available = self.evictable(exclude);
        if available <= EPSILON {
            return 0.0;
        }
        let target = amount.min(available);
        let mut evicted = 0.0;
        let mut i = 0;
        while i < self.inactive.len() && evicted < target - EPSILON {
            let is_candidate = !self.inactive[i].dirty && exclude != Some(&self.inactive[i].file);
            if is_candidate {
                let need = amount - evicted;
                if self.inactive[i].size <= need + EPSILON {
                    let blk = self.inactive.remove(i).expect("index checked above");
                    evicted += blk.size;
                    continue;
                } else {
                    self.inactive[i].size -= need;
                    evicted += need;
                    break;
                }
            }
            i += 1;
        }
        evicted
    }

    fn flush_expired(&mut self, now: SimTime, expire: f64) -> f64 {
        if self.total_dirty() <= EPSILON {
            return 0.0;
        }
        let mut flushed = 0.0;
        for list in [&mut self.inactive, &mut self.active] {
            for blk in list.iter_mut() {
                if blk.is_expired(now, expire) {
                    blk.dirty = false;
                    flushed += blk.size;
                }
            }
        }
        flushed
    }

    fn flush_file(&mut self, file: &FileId) -> f64 {
        let mut flushed = 0.0;
        for list in [&mut self.inactive, &mut self.active] {
            for blk in list.iter_mut() {
                if blk.dirty && &blk.file == file {
                    blk.dirty = false;
                    flushed += blk.size;
                }
            }
        }
        flushed
    }

    fn invalidate_file(&mut self, file: &FileId) -> f64 {
        let mut removed = 0.0;
        for list in [&mut self.inactive, &mut self.active] {
            list.retain(|b| {
                if &b.file == file {
                    removed += b.size;
                    false
                } else {
                    true
                }
            });
        }
        removed
    }

    fn balance(&mut self) {
        while !self.active.is_empty() && self.active_bytes() > 2.0 * self.inactive_bytes() + EPSILON
        {
            let demoted = self.active.pop_front().expect("checked non-empty");
            Self::insert_sorted(&mut self.inactive, demoted);
        }
    }
}

/// Drives the arena `LruLists` and the naive scan-based model through the
/// same 10k random operations and asserts, after every single operation,
/// that the operation results (`read_cached` / `flush_lru` / `flush_file` /
/// `evict` / `flush_expired` / `invalidate_file` returns) and every byte aggregate are
/// identical within `EPSILON`. Block *granularity* may differ (the arena
/// coalesces adjacent clean inactive blocks of one file), but no byte-level
/// observable may.
#[test]
fn arena_lru_matches_naive_scan_model_over_10k_random_ops() {
    const OPS: usize = 10_000;
    const FILES: usize = 8;
    let files: Vec<FileId> = (0..FILES)
        .map(|i| FileId::new(format!("file_{i}")))
        .collect();
    let mut rng = Rng(0xBADC0FFEE);
    let mut arena = LruLists::new();
    let keys: Vec<u64> = files.iter().map(|f| arena.key_or_insert(f)).collect();
    let mut naive = NaiveLru::default();
    let mut clock = 0.0;
    for op in 0..OPS {
        // 1-in-8 ops keep the previous timestamp: simulated events often
        // coincide (chunks of one request), and equal timestamps are what
        // arms the arena's coalescing paths — they must be covered here.
        if rng.usize(0, 8) != 0 {
            clock += rng.f64(0.01, 1.0);
        }
        let now = SimTime::from_secs(clock);
        let i = rng.usize(0, FILES);
        let (file, key) = (&files[i], keys[i]);
        let (what, a, b) = match rng.usize(0, 10) {
            0..=2 => {
                let size = rng.f64(0.5, 400.0);
                arena.add_clean(key, size, now);
                naive.add_clean(file.clone(), size, now);
                ("add_clean", 0.0, 0.0)
            }
            3 | 4 => {
                let size = rng.f64(0.5, 400.0);
                arena.add_dirty(key, size, now);
                naive.add_dirty(file.clone(), size, now);
                ("add_dirty", 0.0, 0.0)
            }
            5 | 6 => {
                let amount = rng.f64(1.0, 900.0);
                (
                    "read_cached",
                    arena.read_cached(key, amount, now),
                    naive.read_cached(file, amount, now),
                )
            }
            7 => {
                let amount = rng.f64(0.0, 900.0);
                let exclude = rng.usize(0, 3) == 0;
                (
                    "flush_lru",
                    arena.flush_lru(amount, ReclaimScope::Host(exclude.then_some(key))),
                    naive.flush_lru(amount, exclude.then_some(file)),
                )
            }
            8 => {
                let amount = rng.f64(0.0, 900.0);
                let exclude = rng.usize(0, 3) == 0;
                (
                    "evict",
                    arena.evict(amount, ReclaimScope::Host(exclude.then_some(key))),
                    naive.evict(amount, exclude.then_some(file)),
                )
            }
            _ => match rng.usize(0, 4) {
                0 => (
                    "flush_expired",
                    arena.flush_expired(now, 5.0),
                    naive.flush_expired(now, 5.0),
                ),
                1 => {
                    arena.balance();
                    naive.balance();
                    ("balance", 0.0, 0.0)
                }
                2 => ("flush_file", arena.flush_file(key), naive.flush_file(file)),
                _ => (
                    "invalidate_file",
                    arena.invalidate_file(key),
                    naive.invalidate_file(file),
                ),
            },
        };
        assert_close(format_args!("{what} result"), a, b, op);
        assert_close(
            "total_cached",
            arena.total_cached(),
            naive.total_cached(),
            op,
        );
        assert_close("total_dirty", arena.total_dirty(), naive.total_dirty(), op);
        assert_close(
            "inactive_bytes",
            arena.inactive_bytes(),
            naive.inactive_bytes(),
            op,
        );
        assert_close(
            "active_bytes",
            arena.active_bytes(),
            naive.active_bytes(),
            op,
        );
        assert_close(
            "evictable",
            arena.evictable(None),
            naive.evictable(None),
            op,
        );
        let p = rng.usize(0, FILES);
        let probe = &files[p];
        assert_close(
            "cached_amount",
            arena.cached_amount(keys[p]),
            naive.cached_amount(probe),
            op,
        );
        assert_close(
            "dirty_amount",
            arena.dirty_amount(keys[p]),
            naive.dirty_amount(probe),
            op,
        );
        assert_close(
            "evictable(exclude)",
            arena.evictable(Some(keys[p])),
            naive.evictable(Some(probe)),
            op,
        );
        arena.check_invariants().unwrap();
    }
    assert!(arena.block_count() > 0);
    // Coalescing can only reduce block granularity, never add to it.
    let naive_blocks = naive.inactive.len() + naive.active.len();
    assert!(
        arena.block_count() <= naive_blocks,
        "arena has {} blocks, naive {}",
        arena.block_count(),
        naive_blocks
    );
}

// ---------------------------------------------------------------------------
// Differential policy oracles: arena under each eviction policy vs a naive
// generalized tier model driving its own copy of the same policy state.
// ---------------------------------------------------------------------------

use pagecache::{EvictionPolicy, Policy, ACTIVE_TIER, MAX_TIERS};

/// A generalized scan-based model of `LruLists` under any [`Policy`]:
/// [`MAX_TIERS`] `VecDeque` tiers sorted by last access, no incremental
/// counters, no coalescing. It owns its own copy of the policy state and
/// calls the tier hooks in exactly the sequence the arena does (one
/// `insert_tier` per add, `on_evict` per reclaimed block; a cached read
/// moves to [`ACTIVE_TIER`]), so 2Q's ghost FIFO evolves identically on
/// both sides. `on_evict` call counts may differ where the arena coalesced
/// adjacent blocks, which is safe because 2Q's ghost insert is
/// push-if-absent.
struct NaivePolicy {
    tiers: [VecDeque<DataBlock>; MAX_TIERS],
    policy: Policy,
    /// Cache-group (tenant) assignment per file; group totals are scans.
    group_of: HashMap<FileId, u32>,
}

impl NaivePolicy {
    fn new(kind: EvictionPolicy) -> Self {
        NaivePolicy {
            tiers: std::array::from_fn(|_| VecDeque::new()),
            policy: kind.build(),
            group_of: HashMap::new(),
        }
    }

    fn set_file_group(&mut self, file: FileId, group: Option<u32>) {
        match group {
            Some(g) => self.group_of.insert(file, g),
            None => self.group_of.remove(&file),
        };
    }

    /// Whether `scope` lets a reclaim call take data of `file`.
    fn in_scope(&self, scope: NaiveScope<'_>, file: &FileId) -> bool {
        match scope {
            NaiveScope::Host(exclude) => exclude != Some(file),
            NaiveScope::Group(g) => self.group_of.get(file) == Some(&g),
        }
    }

    fn group_cached(&self, group: u32) -> f64 {
        self.blocks()
            .filter(|b| self.group_of.get(&b.file) == Some(&group))
            .map(|b| b.size)
            .sum()
    }

    fn group_dirty(&self, group: u32) -> f64 {
        self.blocks()
            .filter(|b| b.dirty && self.group_of.get(&b.file) == Some(&group))
            .map(|b| b.size)
            .sum()
    }

    fn tier_bytes(&self) -> [f64; MAX_TIERS] {
        std::array::from_fn(|t| self.tiers[t].iter().map(|b| b.size).sum())
    }

    fn tier_lens(&self) -> [usize; MAX_TIERS] {
        std::array::from_fn(|t| self.tiers[t].len())
    }

    fn blocks(&self) -> impl Iterator<Item = &DataBlock> {
        self.tiers.iter().flatten()
    }

    fn total_cached(&self) -> f64 {
        self.blocks().map(|b| b.size).sum()
    }

    fn total_dirty(&self) -> f64 {
        self.blocks().filter(|b| b.dirty).map(|b| b.size).sum()
    }

    fn inactive_bytes(&self) -> f64 {
        (0..MAX_TIERS)
            .filter(|&t| self.policy.evictable_tiers()[t])
            .flat_map(|t| &self.tiers[t])
            .map(|b| b.size)
            .sum()
    }

    fn active_bytes(&self) -> f64 {
        (0..MAX_TIERS)
            .filter(|&t| !self.policy.evictable_tiers()[t])
            .flat_map(|t| &self.tiers[t])
            .map(|b| b.size)
            .sum()
    }

    fn cached_amount(&self, file: &FileId) -> f64 {
        self.blocks()
            .filter(|b| &b.file == file)
            .map(|b| b.size)
            .sum()
    }

    fn evictable(&self, exclude: Option<&FileId>) -> f64 {
        (0..MAX_TIERS)
            .filter(|&t| self.policy.evictable_tiers()[t])
            .flat_map(|t| &self.tiers[t])
            .filter(|b| !b.dirty && exclude != Some(&b.file))
            .map(|b| b.size)
            .sum()
    }

    fn insert_sorted(list: &mut VecDeque<DataBlock>, block: DataBlock) {
        match list.back() {
            None => list.push_back(block),
            Some(b) if b.last_access <= block.last_access => list.push_back(block),
            _ => {
                let pos = list.partition_point(|b| b.last_access <= block.last_access);
                list.insert(pos, block);
            }
        }
    }

    fn add_clean(&mut self, file: FileId, size: f64, now: SimTime) {
        if size <= EPSILON {
            return;
        }
        let tier = self.policy.insert_tier(&file);
        Self::insert_sorted(&mut self.tiers[tier], DataBlock::clean(file, size, now));
        self.balance();
    }

    fn add_dirty(&mut self, file: FileId, size: f64, now: SimTime) {
        if size <= EPSILON {
            return;
        }
        let tier = self.policy.insert_tier(&file);
        Self::insert_sorted(&mut self.tiers[tier], DataBlock::dirty(file, size, now));
        self.balance();
    }

    fn read_cached(&mut self, file: &FileId, amount: f64, now: SimTime) -> f64 {
        if amount <= EPSILON || self.cached_amount(file) <= EPSILON {
            return 0.0;
        }
        let dest = ACTIVE_TIER;
        let taken = self.take_for_read(file, amount);
        let mut clean_total = 0.0;
        let mut read_total = 0.0;
        for blk in taken {
            read_total += blk.size;
            if blk.dirty {
                let promoted = DataBlock {
                    file: blk.file,
                    size: blk.size,
                    entry_time: blk.entry_time,
                    last_access: now,
                    dirty: true,
                };
                Self::insert_sorted(&mut self.tiers[dest], promoted);
            } else {
                clean_total += blk.size;
            }
        }
        if clean_total > EPSILON {
            let merged = DataBlock::clean(file.clone(), clean_total, now);
            Self::insert_sorted(&mut self.tiers[dest], merged);
        }
        read_total
    }

    fn take_for_read(&mut self, file: &FileId, amount: f64) -> Vec<DataBlock> {
        let mut taken = Vec::new();
        let mut remaining = amount;
        for tier in 0..MAX_TIERS {
            if remaining <= EPSILON {
                break;
            }
            let list = &mut self.tiers[tier];
            let mut i = 0;
            while i < list.len() && remaining > EPSILON {
                if &list[i].file == file {
                    if list[i].size <= remaining + EPSILON {
                        let b = list.remove(i).expect("index checked above");
                        remaining -= b.size;
                        taken.push(b);
                        continue;
                    } else {
                        let head = list[i].split_off(remaining);
                        taken.push(head);
                        remaining = 0.0;
                        break;
                    }
                }
                i += 1;
            }
        }
        taken
    }

    fn flush_lru(&mut self, amount: f64, scope: NaiveScope<'_>) -> f64 {
        let dirty = match scope {
            NaiveScope::Host(_) => self.total_dirty(),
            NaiveScope::Group(g) => self.group_dirty(g),
        };
        if amount <= EPSILON || dirty <= EPSILON {
            return 0.0;
        }
        let mut flushed = 0.0;
        for t in 0..MAX_TIERS {
            let tier_dirty: f64 = self.tiers[t]
                .iter()
                .filter(|b| b.dirty)
                .map(|b| b.size)
                .sum();
            if tier_dirty <= EPSILON {
                continue;
            }
            let mut i = 0;
            while i < self.tiers[t].len() {
                if flushed >= amount - EPSILON {
                    return flushed;
                }
                let is_candidate =
                    self.tiers[t][i].dirty && self.in_scope(scope, &self.tiers[t][i].file);
                if is_candidate {
                    let need = amount - flushed;
                    let size = self.tiers[t][i].size;
                    if size <= need + EPSILON {
                        self.tiers[t][i].dirty = false;
                        flushed += size;
                    } else {
                        let mut head = self.tiers[t][i].split_off(need);
                        head.dirty = false;
                        flushed += head.size;
                        self.tiers[t].insert(i, head);
                        return flushed;
                    }
                }
                i += 1;
            }
        }
        flushed
    }

    fn evict(&mut self, amount: f64, scope: NaiveScope<'_>) -> f64 {
        if amount <= EPSILON {
            return 0.0;
        }
        if let NaiveScope::Group(g) = scope {
            if self.group_cached(g) <= EPSILON {
                return 0.0;
            }
        }
        self.balance();
        let target = match scope {
            NaiveScope::Host(exclude) => amount.min(self.evictable(exclude)),
            NaiveScope::Group(_) => amount,
        };
        if target <= EPSILON {
            return 0.0;
        }
        let mut evicted = 0.0;
        'reclaim: for t in 0..MAX_TIERS {
            if !self.policy.evictable_tiers()[t] {
                continue;
            }
            let mut i = 0;
            while i < self.tiers[t].len() && evicted < target - EPSILON {
                let is_candidate = {
                    let b = &self.tiers[t][i];
                    !b.dirty && self.in_scope(scope, &b.file)
                };
                if is_candidate {
                    let need = amount - evicted;
                    let size = self.tiers[t][i].size;
                    if size <= need + EPSILON {
                        let b = self.tiers[t].remove(i).expect("index checked above");
                        evicted += b.size;
                        self.policy.on_evict(&b.file, t);
                        continue;
                    } else {
                        self.tiers[t][i].size -= need;
                        let file = self.tiers[t][i].file.clone();
                        evicted += need;
                        self.policy.on_evict(&file, t);
                        break 'reclaim;
                    }
                }
                i += 1;
            }
            if evicted >= target - EPSILON {
                break;
            }
        }
        evicted
    }

    fn flush_expired(&mut self, now: SimTime, expire: f64) -> f64 {
        if self.total_dirty() <= EPSILON {
            return 0.0;
        }
        let mut flushed = 0.0;
        for list in &mut self.tiers {
            for b in list.iter_mut() {
                if b.is_expired(now, expire) {
                    b.dirty = false;
                    flushed += b.size;
                }
            }
        }
        flushed
    }

    fn flush_file(&mut self, file: &FileId) -> f64 {
        let mut flushed = 0.0;
        for list in &mut self.tiers {
            for b in list.iter_mut() {
                if b.dirty && &b.file == file {
                    b.dirty = false;
                    flushed += b.size;
                }
            }
        }
        flushed
    }

    fn invalidate_file(&mut self, file: &FileId) -> f64 {
        let mut removed = 0.0;
        for list in &mut self.tiers {
            list.retain(|b| {
                if &b.file == file {
                    removed += b.size;
                    false
                } else {
                    true
                }
            });
        }
        removed
    }

    fn balance(&mut self) {
        loop {
            let bytes = self.tier_bytes();
            let lens = self.tier_lens();
            let Some((from, to)) = self.policy.demotion(&bytes, &lens) else {
                break;
            };
            let demoted = self.tiers[from]
                .pop_front()
                .expect("demotion from empty tier");
            Self::insert_sorted(&mut self.tiers[to], demoted);
        }
    }
}

/// One kind of operation a differential run draws.
#[derive(Clone, Copy)]
enum Draw {
    AddClean,
    AddDirty,
    Read,
    /// A flush or an eviction, in a random scope.
    Reclaim,
    /// Expiry, balance, `flush_file`, invalidation or a group change.
    Maintain,
}

/// The operation mix and timing of a differential run.
struct Mix {
    /// The clock stands still when a draw from `0..hold.1` falls below
    /// `hold.0`, so that share of the operations repeats a timestamp.
    hold: (usize, usize),
    /// Operation kinds, drawn uniformly.
    draws: [Draw; 10],
    /// Upper bound of flush and evict amounts: small ones split blocks.
    reclaim_max: f64,
    /// Dirty expiry of `flush_expired`, seconds.
    expire: f64,
}

/// Distinct timestamps with some coincidences: equal timestamps arm the
/// arena's coalescing paths.
const STEADY: Mix = Mix {
    hold: (1, 8),
    draws: [
        Draw::AddClean,
        Draw::AddClean,
        Draw::AddClean,
        Draw::AddDirty,
        Draw::AddDirty,
        Draw::Read,
        Draw::Read,
        Draw::Reclaim,
        Draw::Reclaim,
        Draw::Maintain,
    ],
    reclaim_max: 900.0,
    expire: 5.0,
};

/// Most operations share a timestamp, with frequent flush splits,
/// `flush_file`, `flush_expired`, invalidations and demotions: blocks that
/// turn clean in place land among equal timestamps, and demotion fingers
/// go stale often. The clean chain must follow the recency order through
/// all of it.
const TIED: Mix = Mix {
    hold: (9, 10),
    draws: [
        Draw::AddClean,
        Draw::AddDirty,
        Draw::AddDirty,
        Draw::Read,
        Draw::Read,
        Draw::Reclaim,
        Draw::Reclaim,
        Draw::Maintain,
        Draw::Maintain,
        Draw::Maintain,
    ],
    reclaim_max: 150.0,
    expire: 0.5,
};

/// Asserts that the arena and the naive model agree on every byte
/// aggregate, including the per-tier byte and dirty totals, which pin down
/// identical victim selection, and the per-file and per-group totals, and
/// that the arena's own invariants hold.
fn assert_models_agree(
    kind: EvictionPolicy,
    arena: &LruLists,
    naive: &NaivePolicy,
    files: &[FileId],
    probe: &FileId,
    groups: u32,
    op: usize,
) {
    let key = |file: &FileId| arena.key(file).expect("every file has a slot");
    // Per-tier totals, not just the evictable/protected split: the 2-list
    // demotion rule takes per-tier bytes as its decision input, so any
    // drift here would snowball into different victims.
    for t in 0..MAX_TIERS {
        let arena_bytes: f64 = arena.tier_blocks(t).map(|b| b.size).sum();
        let arena_dirty: f64 = arena
            .tier_blocks(t)
            .filter(|b| b.dirty)
            .map(|b| b.size)
            .sum();
        let naive_bytes: f64 = naive.tiers[t].iter().map(|b| b.size).sum();
        let naive_dirty: f64 = naive.tiers[t]
            .iter()
            .filter(|b| b.dirty)
            .map(|b| b.size)
            .sum();
        assert_close(
            format_args!("{kind}: tier {t} bytes"),
            arena_bytes,
            naive_bytes,
            op,
        );
        assert_close(
            format_args!("{kind}: tier {t} dirty"),
            arena_dirty,
            naive_dirty,
            op,
        );
    }
    assert_close(
        format_args!("{kind}: total_cached"),
        arena.total_cached(),
        naive.total_cached(),
        op,
    );
    assert_close(
        format_args!("{kind}: total_dirty"),
        arena.total_dirty(),
        naive.total_dirty(),
        op,
    );
    assert_close(
        format_args!("{kind}: inactive_bytes"),
        arena.inactive_bytes(),
        naive.inactive_bytes(),
        op,
    );
    assert_close(
        format_args!("{kind}: active_bytes"),
        arena.active_bytes(),
        naive.active_bytes(),
        op,
    );
    assert_close(
        format_args!("{kind}: evictable"),
        arena.evictable(None),
        naive.evictable(None),
        op,
    );
    assert_close(
        format_args!("{kind}: evictable(exclude {probe})"),
        arena.evictable(Some(key(probe))),
        naive.evictable(Some(probe)),
        op,
    );
    // Every file's totals, from one scan of the naive model.
    let mut scanned: HashMap<&FileId, (f64, f64)> = HashMap::new();
    for b in naive.blocks() {
        let (cached, dirty) = scanned.entry(&b.file).or_default();
        *cached += b.size;
        if b.dirty {
            *dirty += b.size;
        }
    }
    for file in files {
        let (cached, dirty) = scanned.get(file).copied().unwrap_or_default();
        assert_close(
            format_args!("{kind}: cached_amount({file})"),
            arena.cached_amount(key(file)),
            cached,
            op,
        );
        assert_close(
            format_args!("{kind}: dirty_amount({file})"),
            arena.dirty_amount(key(file)),
            dirty,
            op,
        );
    }
    for g in 0..groups {
        assert_close(
            format_args!("{kind}: group {g} cached"),
            arena.group_cached(g),
            naive.group_cached(g),
            op,
        );
        assert_close(
            format_args!("{kind}: group {g} dirty"),
            arena.group_dirty(g),
            naive.group_dirty(g),
            op,
        );
    }
    arena.check_invariants().unwrap();
}

/// Drives the arena under `kind` and the naive generalized model through the
/// same 10k random operations drawn from `mix`, asserting after every
/// single one that the operation results and every byte aggregate agree
/// within `EPSILON`. Flushes and evictions draw their scope at random:
/// host-wide, host-wide but one file, or one cache group, so tenant-scoped
/// reclaim is checked against the same specification as host-wide reclaim.
fn arena_matches_naive_policy_model(kind: EvictionPolicy, seed: u64, mix: &Mix) {
    const OPS: usize = 10_000;
    const FILES: usize = 8;
    const GROUPS: usize = 3;
    let files: Vec<FileId> = (0..FILES)
        .map(|i| FileId::new(format!("file_{i}")))
        .collect();
    let mut rng = Rng(seed);
    let mut arena = LruLists::with_policy(kind);
    let mut naive = NaivePolicy::new(kind);
    // Two files start ungrouped; the rest spread over the groups.
    for (i, file) in files.iter().enumerate().take(FILES - 2) {
        let group = Some((i % GROUPS) as u32);
        arena.set_file_group(file.clone(), group);
        naive.set_file_group(file.clone(), group);
    }
    let keys: Vec<u64> = files.iter().map(|f| arena.key_or_insert(f)).collect();
    let mut clock = 0.0;
    for op in 0..OPS {
        if rng.usize(0, mix.hold.1) >= mix.hold.0 {
            clock += rng.f64(0.01, 1.0);
        }
        let now = SimTime::from_secs(clock);
        let i = rng.usize(0, FILES);
        let (file, key) = (&files[i], keys[i]);
        let (what, a, b) = match mix.draws[rng.usize(0, 10)] {
            Draw::AddClean => {
                let size = rng.f64(0.5, 400.0);
                arena.add_clean(key, size, now);
                naive.add_clean(file.clone(), size, now);
                ("add_clean", 0.0, 0.0)
            }
            Draw::AddDirty => {
                let size = rng.f64(0.5, 400.0);
                arena.add_dirty(key, size, now);
                naive.add_dirty(file.clone(), size, now);
                ("add_dirty", 0.0, 0.0)
            }
            Draw::Read => {
                let amount = rng.f64(1.0, 900.0);
                (
                    "read_cached",
                    arena.read_cached(key, amount, now),
                    naive.read_cached(file, amount, now),
                )
            }
            Draw::Reclaim => {
                let amount = rng.f64(0.0, mix.reclaim_max);
                let (scope, naive_scope) = match rng.usize(0, 4) {
                    0 => (ReclaimScope::Host(Some(key)), NaiveScope::Host(Some(file))),
                    1 => {
                        let g = rng.usize(0, GROUPS) as u32;
                        (ReclaimScope::Group(g), NaiveScope::Group(g))
                    }
                    _ => (ReclaimScope::Host(None), NaiveScope::Host(None)),
                };
                if rng.usize(0, 2) == 0 {
                    (
                        "flush_lru",
                        arena.flush_lru(amount, scope),
                        naive.flush_lru(amount, naive_scope),
                    )
                } else {
                    (
                        "evict",
                        arena.evict(amount, scope),
                        naive.evict(amount, naive_scope),
                    )
                }
            }
            Draw::Maintain => match rng.usize(0, 5) {
                0 => (
                    "flush_expired",
                    arena.flush_expired(now, mix.expire),
                    naive.flush_expired(now, mix.expire),
                ),
                1 => {
                    arena.balance();
                    naive.balance();
                    ("balance", 0.0, 0.0)
                }
                2 => ("flush_file", arena.flush_file(key), naive.flush_file(file)),
                3 => (
                    "invalidate_file",
                    arena.invalidate_file(key),
                    naive.invalidate_file(file),
                ),
                _ => {
                    let group = rng.usize(0, GROUPS + 1);
                    let group = (group < GROUPS).then_some(group as u32);
                    arena.set_file_group(file.clone(), group);
                    naive.set_file_group(file.clone(), group);
                    ("set_file_group", 0.0, 0.0)
                }
            },
        };
        assert_close(format_args!("{kind}: {what} result"), a, b, op);
        let probe = &files[rng.usize(0, FILES)];
        assert_models_agree(kind, &arena, &naive, &files, probe, GROUPS as u32, op);
    }
    assert!(arena.block_count() > 0);
    // Coalescing can only reduce block granularity, never add to it.
    let naive_blocks: usize = naive.tiers.iter().map(|l| l.len()).sum();
    assert!(
        arena.block_count() <= naive_blocks,
        "{kind}: arena has {} blocks, naive {}",
        arena.block_count(),
        naive_blocks
    );
}

#[test]
fn arena_two_list_matches_generalized_naive_model_over_10k_random_ops() {
    // The generalized model must reduce to the 2-list one when driven by the
    // default policy; this also cross-checks the two naive models.
    arena_matches_naive_policy_model(EvictionPolicy::TwoList, 0xBADC0FFEE, &STEADY);
}

#[test]
fn arena_two_q_matches_naive_model_over_10k_random_ops() {
    arena_matches_naive_policy_model(EvictionPolicy::TwoQ, 0x7707, &STEADY);
}

#[test]
fn arena_matches_naive_models_over_10k_tie_heavy_ops() {
    for (kind, seed) in [
        (EvictionPolicy::TwoList, 0x71E5),
        (EvictionPolicy::TwoQ, 0x71E7),
    ] {
        arena_matches_naive_policy_model(kind, seed, &TIED);
    }
}

/// One step of a scripted differential run.
enum Step {
    /// Advance the clock to this time, seconds.
    At(f64),
    Clean(&'static str, f64),
    Dirty(&'static str, f64),
    Read(&'static str, f64),
    Evict(f64),
    FlushFile(&'static str),
    Invalidate(&'static str),
    Balance,
}

/// Demotions under the 2-list policy whose finger, the node of the previous
/// out-of-order insert, was evicted, merged away or invalidated before the
/// next one. `unlink` must move a finger off a node before it is freed;
/// a finger left on a freed or reused slot would misplace the next insert
/// or panic, and the next demotion here must land in sorted order.
#[test]
fn demotions_after_a_stale_finger_match_the_naive_model() {
    use Step::*;
    let script = [
        // Active [X@2, Y@4] over inactive [D@1 dirty, Z@3]: the balance
        // demotes X behind D, an out-of-order insert.
        At(1.0),
        Dirty("d", 5.0),
        Clean("x", 100.0),
        Clean("y", 100.0),
        At(2.0),
        Read("x", 100.0),
        At(3.0),
        Clean("z", 10.0),
        At(4.0),
        Read("y", 100.0),
        Balance,
        // The finger X is evicted; the next demotion (Y@4) starts from D.
        Evict(100.0),
        At(5.0),
        Clean("w", 10.0),
        // The finger Y is invalidated; Z and W are promoted and Z is
        // demoted behind the clean V@7.
        Invalidate("y"),
        At(6.0),
        Read("z", 10.0),
        Read("w", 10.0),
        At(7.0),
        Clean("v", 1.0),
        // Active [Q@9 clean, Q@9 dirty] is demoted, in that order, in front
        // of the clean U@10. The clean Q becomes the clean chain's finger;
        // flushing the dirty Q merges the clean one into it, and the finger
        // moves to V@7.
        At(8.0),
        Clean("q", 10.0),
        At(9.0),
        Read("q", 10.0),
        Dirty("q", 40.0),
        Read("q", 40.0),
        At(10.0),
        Clean("u", 1.0),
        Evict(20.0),
        Balance,
        FlushFile("q"),
        // Demoting Q@11 into the clean chain starts from the moved finger.
        At(11.0),
        Read("q", 50.0),
        At(12.0),
        Clean("t", 1.0),
    ];
    let kind = EvictionPolicy::TwoList;
    let files: Vec<FileId> = ["d", "x", "y", "z", "w", "v", "q", "u", "t"]
        .into_iter()
        .map(FileId::new)
        .collect();
    let mut arena = LruLists::with_policy(kind);
    let keys: Vec<u64> = files.iter().map(|f| arena.key_or_insert(f)).collect();
    let key = |f: &str| keys[files.iter().position(|g| g.name() == f).unwrap()];
    let mut naive = NaivePolicy::new(kind);
    let mut now = SimTime::ZERO;
    for (op, step) in script.iter().enumerate() {
        let (a, b) = match *step {
            At(secs) => {
                now = SimTime::from_secs(secs);
                (0.0, 0.0)
            }
            Clean(f, size) => {
                arena.add_clean(key(f), size, now);
                naive.add_clean(FileId::new(f), size, now);
                (0.0, 0.0)
            }
            Dirty(f, size) => {
                arena.add_dirty(key(f), size, now);
                naive.add_dirty(FileId::new(f), size, now);
                (0.0, 0.0)
            }
            Read(f, amount) => (
                arena.read_cached(key(f), amount, now),
                naive.read_cached(&FileId::new(f), amount, now),
            ),
            Evict(amount) => (
                arena.evict(amount, ReclaimScope::Host(None)),
                naive.evict(amount, NaiveScope::Host(None)),
            ),
            FlushFile(f) => (arena.flush_file(key(f)), naive.flush_file(&FileId::new(f))),
            Invalidate(f) => (
                arena.invalidate_file(key(f)),
                naive.invalidate_file(&FileId::new(f)),
            ),
            Balance => {
                arena.balance();
                naive.balance();
                (0.0, 0.0)
            }
        };
        assert_close(format_args!("step {op} result"), a, b, op);
        let probe = &files[op % files.len()];
        assert_models_agree(kind, &arena, &naive, &files, probe, 0, op);
        // The arena's recency order is the naive model's, block by block
        // up to coalescing: compare (file, last access, dirty) runs.
        for t in 0..MAX_TIERS {
            let runs = |blocks: Vec<&DataBlock>| {
                let mut out: Vec<(FileId, SimTime, bool)> = Vec::new();
                for b in blocks {
                    let key = (b.file.clone(), b.last_access, b.dirty);
                    if out.last() != Some(&key) {
                        out.push(key);
                    }
                }
                out
            };
            assert_eq!(
                runs(arena.tier_blocks(t).collect()),
                runs(naive.tiers[t].iter().collect()),
                "step {op}: tier {t} order differs"
            );
        }
    }
}
