//! The emulated kernel page cache.
//!
//! Unlike the macroscopic model of the [`pagecache`] crate (variable-size data
//! blocks, one per I/O operation), the emulator tracks cache occupancy per
//! file at page granularity, and implements the kernel behaviours the paper
//! identifies as the source of its residual simulation error:
//!
//! * a **background dirty threshold** (`vm.dirty_background_ratio`): writeback
//!   starts well before the dirty ratio is hit, so dirty data drains faster
//!   than in the macroscopic model;
//! * **writer throttling** (`balance_dirty_pages`): when the dirty ratio is
//!   exceeded the writer itself writes back down to the background threshold;
//! * **eviction protection of files being written**: the kernel "tends to not
//!   evict pages that belong to files being currently written" (paper §IV-A).
//!
//! This emulator plays the role of the *real cluster node* in our
//! reproduction: simulators are evaluated by their error against it.
//!
//! A [`KernelCache`] is the host core both cache models share,
//! [`pagecache::Host`], over a [`KernelState`]: the core keeps the memory
//! accounting, the counters, the memory trace and the flush-interval loop,
//! and this module keeps only the emulator's own cache state and walks.
//!
//! # Mechanism vs. policy
//!
//! Like `pagecache::lru`, this module is *mechanism*: the per-file slots of
//! a [`FileTable`] (the table `pagecache::lru` keeps its per-file state in
//! too: name index, slots, file sizes, cache-group assignment and group
//! byte totals), the page accounting, the resident/durability range
//! ledgers, and the ordered reclaim indexes. The table is the host's file
//! namespace: [`KernelCache::create_file`] and [`KernelCache::extend_file`]
//! keep each file's size in its slot, next to its pages and its readahead
//! stream, and a slot lives as long as its file. An invalidation or a
//! crash empties a slot's cache state; the size and the readahead stream
//! are file state and stay. The *decisions* — in what order files are
//! picked as eviction victims and how re-accessed files are classified —
//! are delegated to the [`Policy`] configured via
//! [`PageCacheConfig::eviction_policy`].
//! Because the emulator tracks occupancy per file (not per block), it
//! consumes the policy's *file-granular* hooks, driven off a per-file
//! [`FileMeta`] stored in each file's slot: `file_admit` on inserts,
//! `file_touch` on re-accesses, `file_rank` as the victim-ordering prefix
//! (victims go in `(rank, last_access, file name)` order) and
//! `file_on_evict` when a file's pages are fully reclaimed. Writeback
//! order stays policy-independent: it is a durability concern (oldest dirty
//! data first), not a replacement decision. The default
//! [`TwoList`](pagecache::EvictionPolicy::TwoList) policy ranks every file
//! 0, reproducing the historical behaviour exactly.
//!
//! Which files eviction ([`Host::evict`]) and writeback ([`Host::flush`])
//! may take is a [`ReclaimScope`], the type the macroscopic model uses too:
//! the whole host (optionally excluding the file being read, by its slot
//! key) for global reclaim, or one cache group for
//! [`Host::enforce_group_limits`], so a tenant's limit runs the same victim
//! ordering as global reclaim. Each index entry a walk visits is
//! checked against the scope by slot key, without a name lookup.
//!
//! The per-file calls ([`KernelCache::insert_clean_range`],
//! [`KernelCache::touch`], [`KernelCache::write_back_file`], …) take the
//! file's slot key, which the filesystem resolved once at the entry of its
//! op ([`KernelCache::file_size`], [`KernelCache::extend_file`]).
//!
//! # Reclaim indexes
//!
//! Reclaim order is kept in ordered sets that every mutation updates, the
//! way the kernel keeps its LRU lists, instead of being sorted on each call:
//!
//! * the **clean index** holds exactly the files with clean pages, keyed
//!   `(rank, last_access, file name)`. It is split in two: files not open
//!   for writing, the only ones the protecting first eviction pass may
//!   take, and files open for writing, which the second pass merges back
//!   in key order. So neither pass steps over files it cannot take;
//! * the **dirty index** holds exactly the files with dirty pages, keyed
//!   `(oldest dirty time, file name)`. Writeback walks it from the front,
//!   and the expired files are a prefix of it.
//!
//! An eviction or writeback that takes `k` files visits `k` index entries
//! plus the ones its scope skips, at O(log F) each for F cached files.
//! Inserts, writeback, eviction, `set_write_open` and the policy's
//! `file_admit` re-key the file they change at O(log F). A re-access
//! ([`KernelCache::touch`], the read-hit path) only marks its slot stale:
//! the next eviction or writeback re-keys the stale slots before it walks,
//! so a hot file read many times between reclaims is re-keyed once.
//! [`Host::work`] counts the reclaim calls and the entries each walk
//! visits.

use std::collections::{BTreeMap, BTreeSet};
use std::future::Future;
use std::ops::Bound::{Excluded, Unbounded};
use std::ops::Deref;

use des::{JoinHandle, SimContext, SimTime};
use pagecache::{
    CacheState, CacheWork, FileId, FileMeta, FileTable, FsError, Host, PageCacheConfig, Policy,
    ReclaimScope, WriteMode, EPSILON,
};
use storage_model::{Disk, MemoryDevice};

use crate::fs::Readahead;

/// The two halves of the clean index: files not open for writing, and files
/// open for writing (indexed by `FilePages::write_open`).
const CLOSED: usize = 0;
const WRITE_OPEN: usize = 1;

/// A clean-index entry, in victim order: `(policy rank, last access, file
/// name, slot key)`. Names are unique, so the key only carries the payload.
type CleanKey = (u32, SimTime, FileId, u64);

/// A dirty-index entry, in writeback order: `(oldest dirty time, file name,
/// slot key)`.
type DirtyKey = (SimTime, FileId, u64);

/// The first entry of `set` after `after` (from the front when `None`).
fn first_after<'a, K: Ord>(set: &'a BTreeSet<K>, after: Option<&K>) -> Option<&'a K> {
    match after {
        Some(k) => set.range((Excluded(k), Unbounded)).next(),
        None => set.first(),
    }
}

/// Sorted, disjoint, half-open byte ranges: the emulator's record of *which*
/// offsets of a file are resident in the cache. The float aggregates of
/// [`FilePages`] remain the source of truth for *totals* (thresholds,
/// eviction targets); the range set refines them with true page positions so
/// offset-granular reads know exactly which bytes must come from disk. The
/// two views are kept consistent (`total() == FilePages::cached()`): range
/// inserts only add uncovered bytes, and eviction trims ranges by the
/// evicted amount, lowest offsets first (the least recently used end under
/// the sequential-access assumption the macroscopic model also makes).
#[derive(Debug, Default, Clone, PartialEq)]
struct RangeSet {
    spans: Vec<(f64, f64)>,
}

impl RangeSet {
    /// Total resident bytes. Consumed by the debug oracle only, hence unused
    /// in release builds.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn total(&self) -> f64 {
        self.spans.iter().map(|(a, b)| b - a).sum()
    }

    /// Bytes of `[a, b)` that are resident.
    fn covered_len(&self, a: f64, b: f64) -> f64 {
        self.spans
            .iter()
            .map(|&(sa, sb)| (sb.min(b) - sa.max(a)).max(0.0))
            .sum()
    }

    /// The sub-ranges of `[a, b)` that are *not* resident, in offset order.
    fn gaps(&self, a: f64, b: f64) -> Vec<(f64, f64)> {
        let mut gaps = Vec::new();
        let mut cursor = a;
        for &(sa, sb) in &self.spans {
            if sb <= cursor {
                continue;
            }
            if sa >= b {
                break;
            }
            if sa > cursor + EPSILON {
                gaps.push((cursor, sa.min(b)));
            }
            cursor = cursor.max(sb);
            if cursor >= b {
                break;
            }
        }
        if cursor < b - EPSILON {
            gaps.push((cursor, b));
        }
        gaps
    }

    /// Adds `[a, b)`, merging overlapping or touching spans.
    fn insert(&mut self, a: f64, b: f64) {
        if b - a <= EPSILON {
            return;
        }
        let mut merged = (a, b);
        let mut out = Vec::with_capacity(self.spans.len() + 1);
        let mut iter = self.spans.iter().peekable();
        while let Some(&&(sa, sb)) = iter.peek() {
            if sb < a - EPSILON {
                out.push((sa, sb));
                iter.next();
            } else {
                break;
            }
        }
        while let Some(&&(sa, sb)) = iter.peek() {
            if sa <= b + EPSILON {
                merged.0 = merged.0.min(sa);
                merged.1 = merged.1.max(sb);
                iter.next();
            } else {
                break;
            }
        }
        out.push(merged);
        out.extend(iter);
        self.spans = out;
    }

    /// Removes `amount` bytes from the lowest offsets.
    fn trim_front(&mut self, mut amount: f64) {
        let mut drop_to = 0;
        for span in self.spans.iter_mut() {
            if amount <= EPSILON {
                break;
            }
            let len = span.1 - span.0;
            if len <= amount + EPSILON {
                amount -= len;
                drop_to += 1;
            } else {
                span.0 += amount;
                amount = 0.0;
            }
        }
        self.spans.drain(..drop_to);
    }
}

/// Per-file cache occupancy, split by LRU list and dirtiness.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct FilePages {
    inactive_clean: f64,
    inactive_dirty: f64,
    active_clean: f64,
    active_dirty: f64,
    last_access: SimTime,
    oldest_dirty: Option<SimTime>,
    write_open: bool,
}

impl FilePages {
    fn cached(&self) -> f64 {
        self.inactive_clean + self.inactive_dirty + self.active_clean + self.active_dirty
    }

    fn dirty(&self) -> f64 {
        self.inactive_dirty + self.active_dirty
    }

    fn clean(&self) -> f64 {
        self.inactive_clean + self.active_clean
    }

    /// Marks up to `amount` dirty bytes clean (inactive first). Returns the
    /// amount cleaned.
    fn clean_dirty(&mut self, amount: f64) -> f64 {
        let from_inactive = self.inactive_dirty.min(amount);
        self.inactive_dirty -= from_inactive;
        self.inactive_clean += from_inactive;
        let from_active = self.active_dirty.min(amount - from_inactive);
        self.active_dirty -= from_active;
        self.active_clean += from_active;
        if self.dirty() <= EPSILON {
            self.oldest_dirty = None;
        }
        from_inactive + from_active
    }

    /// Removes up to `amount` clean bytes (inactive first, then active).
    /// Returns the amount removed.
    fn evict_clean(&mut self, amount: f64) -> f64 {
        let from_inactive = self.inactive_clean.min(amount);
        self.inactive_clean -= from_inactive;
        let from_active = self.active_clean.min(amount - from_inactive);
        self.active_clean -= from_active;
        from_inactive + from_active
    }

    /// Promotes up to `amount` bytes from the inactive to the active list
    /// (clean first), modelling a second access.
    fn promote(&mut self, amount: f64) {
        let clean = self.inactive_clean.min(amount);
        self.inactive_clean -= clean;
        self.active_clean += clean;
        let dirty = self.inactive_dirty.min(amount - clean);
        self.inactive_dirty -= dirty;
        self.active_dirty += dirty;
    }
}

/// Where a slot's entries sit in the reclaim indexes: the clean entry's
/// `(rank, last_access, write_open)` and the dirty entry's time, `None`
/// when the file holds no clean (dirty) pages. The name and slot parts of
/// the keys are the slot's own.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct IndexPos {
    clean: Option<(u32, SimTime, bool)>,
    dirty: Option<SimTime>,
}

impl IndexPos {
    /// Where `slot` belongs: in the clean index iff it holds clean pages, in
    /// the dirty index iff it holds dirty pages.
    fn of(slot: &FileSlot, policy: &Policy) -> Self {
        let p = &slot.pages;
        IndexPos {
            clean: (p.clean() > EPSILON)
                .then(|| (policy.file_rank(&slot.meta), p.last_access, p.write_open)),
            dirty: (p.dirty() > EPSILON).then(|| p.oldest_dirty.unwrap_or(p.last_access)),
        }
    }
}

/// One file's state in the file table: its page accounting, policy metadata
/// and range ledgers, plus where it sits in the reclaim indexes, and the
/// file's readahead stream. The default is a fresh slot: no pages, not open
/// for writing, default policy metadata, empty ledgers, in no index, no
/// stream.
#[derive(Debug, Default, Clone)]
struct FileSlot {
    pages: FilePages,
    /// Per-file policy metadata (reference bit, hotness, generation) consumed
    /// by the file-granular [`Policy`] hooks.
    meta: FileMeta,
    /// Which byte offsets of the file are resident (`total()` always equals
    /// `pages.cached()`).
    resident: RangeSet,
    /// Which byte offsets were written but have not yet reached the disk —
    /// the durability ledger consumed by [`KernelCache::crash_discard`].
    /// Grown by every dirty insert, cleared by per-file writeback (`fsync`),
    /// and trimmed lowest-offset-first by partial writeback (the same
    /// deterministic approximation the resident set uses for eviction). An
    /// independent record, not asserted against the position-blind float
    /// aggregates: overlapping rewrites inflate the aggregates but not the
    /// ledger.
    dirty: RangeSet,
    /// The slot's current index entries. Equal to `IndexPos::of` the slot
    /// unless `stale` is set.
    indexed: IndexPos,
    /// Set by [`KernelCache::touch`], which moves the file's key (last
    /// access, policy rank) without re-keying it; the slot is then listed in
    /// `State::stale` until a reclaim walk re-keys it.
    stale: bool,
    /// The file's readahead stream: file state, kept by [`FileSlot::reset`].
    stream: Readahead,
}

impl FileSlot {
    /// Takes the cache state out of the slot (an invalidation or a crash)
    /// and leaves a fresh one that keeps the readahead stream.
    fn reset(&mut self) -> FileSlot {
        let fresh = FileSlot {
            stream: self.stream,
            ..FileSlot::default()
        };
        std::mem::replace(self, fresh)
    }
}

/// The cache state of one [`KernelCache`] on its [`Host`]: the file table
/// of per-file slots and the ordered reclaim indexes (see the module docs).
/// For F cached files: every insert, writeback step and eviction step
/// re-keys the file it changes in O(log F); [`KernelCache::touch`] is O(1)
/// and leaves its re-key to the next reclaim walk; the byte totals, group
/// totals included, are O(1).
pub struct KernelState {
    /// Per-file slots behind the name index, with each file's size and
    /// cache group (file state, not cache state: they survive eviction,
    /// invalidation and crashes) and the group byte totals, moved at every
    /// site that moves `cached_total` / `dirty_total`. Reclaim goes through
    /// the ordered indexes below instead of scanning the table.
    files: FileTable<FileSlot>,
    /// The clean index, split by [`CLOSED`] / [`WRITE_OPEN`]: exactly the
    /// files holding clean pages, in victim order. O(log F) to re-key.
    clean: [BTreeSet<CleanKey>; 2],
    /// The dirty index: exactly the files holding dirty pages, oldest dirty
    /// data first.
    dirty: BTreeSet<DirtyKey>,
    /// Slots marked stale by [`KernelCache::touch`] (each listed at least
    /// once while its flag is set), drained before every reclaim walk.
    stale: Vec<u64>,
    work: CacheWork,
    /// Incrementally maintained sum of `FilePages::cached` over all files,
    /// so that [`KernelCache::cached`] (polled on every simulated request) is
    /// O(1) instead of a scan over the file table.
    cached_total: f64,
    /// Incrementally maintained sum of `FilePages::dirty` over all files.
    dirty_total: f64,
    /// Replacement policy: decides victim-file ordering and re-access
    /// classification via the file-granular hooks. The
    /// mechanism (file table, indexes, ledgers) above is policy-independent.
    policy: Policy,
}

impl KernelState {
    /// Moves slot `i`'s index entries to `to`. O(log F) per entry that
    /// moves; a no-op when the position is unchanged.
    fn place(&mut self, i: u64, to: IndexPos) {
        let from = self.files.get(i).indexed;
        let file = self.files.name(i);
        if from.clean != to.clean {
            if let Some((rank, t, open)) = from.clean {
                self.clean[open as usize].remove(&(rank, t, file.clone(), i));
            }
            if let Some((rank, t, open)) = to.clean {
                self.clean[open as usize].insert((rank, t, file.clone(), i));
            }
        }
        if from.dirty != to.dirty {
            if let Some(t) = from.dirty {
                self.dirty.remove(&(t, file.clone(), i));
            }
            if let Some(t) = to.dirty {
                self.dirty.insert((t, file.clone(), i));
            }
        }
        self.files.get_mut(i).indexed = to;
    }

    /// Re-keys slot `i` from its pages and policy metadata.
    fn rekey(&mut self, i: u64) {
        let slot = self.files.get_mut(i);
        slot.stale = false;
        let to = IndexPos::of(slot, &self.policy);
        self.place(i, to);
    }

    /// Re-keys every slot [`KernelCache::touch`] marked stale.
    fn drain_stale(&mut self) {
        while let Some(i) = self.stale.pop() {
            if self.files.get(i).stale {
                self.rekey(i);
            }
        }
    }

    /// The first entry of the clean-index halves `sets` after `after`, in
    /// victim order: one step of an ordered merge.
    fn next_clean(&self, sets: &[usize], after: Option<&CleanKey>) -> Option<CleanKey> {
        sets.iter()
            .filter_map(|&set| first_after(&self.clean[set], after))
            .min()
            .cloned()
    }

    /// Evicts up to `need` clean bytes of slot `i`, keeping the resident
    /// ranges, the policy and the group totals in step. Does not re-key.
    /// Returns the bytes removed.
    fn evict_from(&mut self, i: u64, need: f64) -> f64 {
        let slot = self.files.get_mut(i);
        let removed = slot.pages.evict_clean(need);
        if removed > EPSILON {
            // Keep the range view in sync: reclaimed pages leave from the
            // lowest offsets (the LRU end under sequential access).
            slot.resident.trim_front(removed);
            if slot.pages.cached() <= EPSILON {
                let meta = slot.meta;
                self.policy.file_on_evict(self.files.name(i), &meta);
            }
            self.files.adjust_group(i, -removed, 0.0);
        }
        removed
    }

    /// Writes back (marks clean) up to `need` dirty bytes of slot `i` and
    /// re-keys it. Returns the bytes cleaned.
    fn write_back_from(&mut self, i: u64, need: f64) -> f64 {
        let slot = self.files.get_mut(i);
        let cleaned = slot.pages.clean_dirty(need);
        if cleaned > 0.0 {
            // Partial writeback cleans the durability ledger from the lowest
            // offsets (deterministic approximation).
            slot.dirty.trim_front(cleaned);
            self.files.adjust_group(i, 0.0, -cleaned);
        }
        self.rekey(i);
        cleaned
    }

    /// Scan-based oracle for the incremental totals and the reclaim
    /// indexes; compiled into debug builds only.
    #[inline]
    fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        {
            let live = || self.files.iter().map(|(_, _, slot)| slot);
            let cached: f64 = live().map(|s| s.pages.cached()).sum();
            let dirty: f64 = live().map(|s| s.pages.dirty()).sum();
            debug_assert!(
                (self.cached_total - cached).abs() <= EPSILON + 1e-9 * cached.abs(),
                "cached_total {} != scan {}",
                self.cached_total,
                cached
            );
            debug_assert!(
                (self.dirty_total - dirty).abs() <= EPSILON + 1e-9 * dirty.abs(),
                "dirty_total {} != scan {}",
                self.dirty_total,
                dirty
            );
            // The name index and the group totals.
            if let Err(e) = self.files.check(|s| (s.pages.cached(), s.pages.dirty())) {
                panic!("file table diverged from a scan: {e}");
            }
            // The indexes hold exactly the entries a scan of the slots
            // derives: every slot sits where its pages and policy metadata
            // put it, except a stale slot, which keeps its recorded entries
            // until the next drain and must be listed for it.
            let listed: std::collections::HashSet<u64> = self.stale.iter().copied().collect();
            let mut entries = [0usize; 3];
            for (i, file, slot) in self.files.iter() {
                // The resident ranges and the float aggregates describe the
                // same number of bytes, and the spans are sorted and
                // disjoint.
                let resident = slot.resident.total();
                let cached = slot.pages.cached();
                debug_assert!(
                    (resident - cached).abs() <= 1e-3 + 1e-6 * cached.abs(),
                    "file {file}: resident ranges {resident} != cached bytes {cached}"
                );
                for w in slot.resident.spans.windows(2) {
                    debug_assert!(
                        w[0].1 <= w[1].0 + EPSILON,
                        "file {file}: overlapping/unsorted resident spans"
                    );
                }
                if slot.stale {
                    debug_assert!(listed.contains(&i), "file {file}: stale but not listed");
                } else {
                    debug_assert_eq!(
                        slot.indexed,
                        IndexPos::of(slot, &self.policy),
                        "file {file}: index entries differ from a scan"
                    );
                }
                debug_assert!(
                    slot.pages.dirty() <= EPSILON || slot.pages.oldest_dirty.is_some(),
                    "file {file}: dirty pages without a dirty time"
                );
                if let Some((rank, t, open)) = slot.indexed.clean {
                    debug_assert!(
                        self.clean[open as usize].contains(&(rank, t, file.clone(), i)),
                        "file {file}: missing from the clean index"
                    );
                    entries[open as usize] += 1;
                }
                if let Some(t) = slot.indexed.dirty {
                    debug_assert!(
                        self.dirty.contains(&(t, file.clone(), i)),
                        "file {file}: missing from the dirty index"
                    );
                    entries[2] += 1;
                }
            }
            debug_assert_eq!(
                entries,
                [
                    self.clean[CLOSED].len(),
                    self.clean[WRITE_OPEN].len(),
                    self.dirty.len()
                ],
                "the indexes hold entries no slot records"
            );
        }
    }

    /// The dirty bytes of every file whose oldest dirty page is older than
    /// `expire` seconds at `now`.
    fn expired(&mut self, now: SimTime, expire: f64) -> f64 {
        if self.dirty_total <= EPSILON {
            return 0.0;
        }
        self.drain_stale();
        // The dirty index is oldest first, so the expired files are a
        // prefix of it.
        let mut amount = 0.0;
        for &(t, _, i) in &self.dirty {
            self.work.writeback_visits += 1;
            if now.duration_since(t) <= expire {
                break;
            }
            amount += self.files.get(i).pages.dirty();
        }
        amount
    }

    /// Marks every dirty page of slot `i` clean and clears its durability
    /// ledger. O(1) bookkeeping via the file's slot. Returns the bytes
    /// cleaned.
    fn write_back_file(&mut self, i: u64) -> f64 {
        let dirty = self.files.get(i).pages.dirty();
        if dirty <= EPSILON {
            return 0.0;
        }
        let cleaned = self.files.get_mut(i).pages.clean_dirty(dirty);
        self.rekey(i);
        // Every written position of the file is now on disk.
        self.files.get_mut(i).dirty = RangeSet::default();
        self.dirty_total = (self.dirty_total - cleaned).max(0.0);
        self.files.adjust_group(i, 0.0, -cleaned);
        self.debug_validate();
        cleaned
    }
}

impl CacheState for KernelState {
    fn cached(&self) -> f64 {
        self.cached_total
    }

    fn dirty(&self) -> f64 {
        self.dirty_total
    }

    fn cached_per_file(&self) -> BTreeMap<FileId, f64> {
        self.files
            .iter()
            .filter(|(_, _, slot)| slot.pages.cached() > EPSILON)
            .map(|(_, file, slot)| (file.clone(), slot.pages.cached()))
            .collect()
    }

    fn work(&self) -> CacheWork {
        self.work
    }

    fn group_cached(&self, group: u32) -> f64 {
        self.files.group_cached(group)
    }

    fn group_dirty(&self, group: u32) -> f64 {
        self.files.group_dirty(group)
    }

    /// Evicts clean pages of the files in `scope`, lowest-ranked and
    /// least-recently-used file first, skipping files currently being
    /// written unless nothing else is left to reclaim.
    ///
    /// Victims come off the clean index in `(policy rank, last_access, file
    /// name)` order; the first pass walks only the files not open for
    /// writing. The default [`TwoList`](pagecache::EvictionPolicy::TwoList)
    /// policy ranks every file 0, reproducing the historical
    /// `(last_access, file name)` selection order exactly.
    fn evict(&mut self, amount: f64, scope: ReclaimScope) -> f64 {
        if amount <= EPSILON {
            return 0.0;
        }
        self.work.evict_calls += 1;
        self.drain_stale();
        let mut evicted = 0.0;
        // Files left with a residue of at most EPSILON clean bytes (which the
        // second pass may still take) are re-keyed only after the walk, so
        // both passes walk the order the call started with.
        let mut deferred = Vec::new();
        // First pass: respect the write-open protection; second pass: ignore
        // it if we are still short (the kernel will reclaim those pages too
        // under sufficient pressure).
        for sets in [&[CLOSED][..], &[CLOSED, WRITE_OPEN]] {
            let mut after = None;
            loop {
                if evicted >= amount - EPSILON {
                    break;
                }
                let Some(key) = self.next_clean(sets, after.as_ref()) else {
                    break;
                };
                let i = key.3;
                after = Some(key);
                self.work.evict_visits += 1;
                if !self.files.admits(scope, i) {
                    continue;
                }
                evicted += self.evict_from(i, amount - evicted);
                let left = self.files.get(i).pages.clean();
                if left > 0.0 && left <= EPSILON {
                    deferred.push(i);
                } else {
                    // Emptied files leave the index; the key of a file that
                    // keeps clean pages has not moved.
                    self.rekey(i);
                }
            }
            if evicted >= amount - EPSILON {
                break;
            }
        }
        for i in deferred {
            self.rekey(i);
        }
        self.cached_total = (self.cached_total - evicted).max(0.0);
        self.debug_validate();
        evicted
    }

    /// Writes back dirty pages of the files in `scope`, oldest dirty file
    /// first (ties by file name).
    fn write_back(&mut self, amount: f64, scope: ReclaimScope) -> f64 {
        if amount <= EPSILON {
            return 0.0;
        }
        self.work.writeback_calls += 1;
        self.drain_stale();
        let mut flushed = 0.0;
        let mut after = None;
        loop {
            if flushed >= amount - EPSILON {
                break;
            }
            let Some(key) = first_after(&self.dirty, after.as_ref()).cloned() else {
                break;
            };
            let i = key.2;
            after = Some(key);
            self.work.writeback_visits += 1;
            if !self.files.admits(scope, i) {
                continue;
            }
            flushed += self.write_back_from(i, amount - flushed);
        }
        self.dirty_total = (self.dirty_total - flushed).max(0.0);
        self.debug_validate();
        flushed
    }
}

/// The emulated kernel page cache of one host: the [`Host`] core over a
/// [`KernelState`], to which it dereferences. Cloning returns another
/// handle to the same cache.
#[derive(Clone)]
pub struct KernelCache {
    host: Host<KernelState>,
}

impl Deref for KernelCache {
    type Target = Host<KernelState>;

    fn deref(&self) -> &Host<KernelState> {
        &self.host
    }
}

impl KernelCache {
    /// Creates an emulated page cache for a host with the given page-cache
    /// configuration, `total_memory` bytes of RAM, memory bus and disk.
    ///
    /// # Panics
    /// Panics if the configuration or the memory size is invalid, or if the
    /// configuration is writethrough: the emulator has only the
    /// write-back mode.
    pub fn new(
        ctx: &SimContext,
        config: PageCacheConfig,
        total_memory: f64,
        memory: MemoryDevice,
        disk: Disk,
    ) -> Self {
        let state = KernelState {
            files: FileTable::new(),
            clean: Default::default(),
            dirty: BTreeSet::new(),
            stale: Vec::new(),
            work: CacheWork::default(),
            cached_total: 0.0,
            dirty_total: 0.0,
            policy: config.eviction_policy.build(),
        };
        let host = Host::new(ctx, config, total_memory, memory, disk, state);
        assert_eq!(
            config.write_mode,
            WriteMode::WriteBack,
            "the kernel emulator has no writethrough mode"
        );
        KernelCache { host }
    }

    /// Creates `file` with `size` bytes, allocating its space on the disk
    /// (the host's create rule, [`FileTable::create`]), and returns its
    /// slot key.
    pub fn create_file(&self, file: &FileId, size: f64) -> Result<u64, FsError> {
        let files = &mut self.cache_mut().files;
        files.create(file, size, |b| self.disk().allocate(b))
    }

    /// Grows `file` to cover a write of `len` bytes at `offset`, allocating
    /// the growth on the disk (the host's extend rule, [`FileTable::extend`]),
    /// and returns its slot key.
    pub fn extend_file(&self, file: &FileId, offset: f64, len: f64) -> Result<u64, FsError> {
        let files = &mut self.cache_mut().files;
        files.extend(file, offset, len, |b| self.disk().allocate(b))
    }

    /// The slot key and the size of `file`, or [`FsError::FileNotFound`] if
    /// this host never created it.
    pub fn file_size(&self, file: &FileId) -> Result<(u64, f64), FsError> {
        self.cache().files.size(file)
    }

    /// The slot key of `file`, if this host created or cached it.
    pub fn key(&self, file: &FileId) -> Option<u64> {
        self.cache().files.key(file)
    }

    /// Name-index lookups of this host's file table so far
    /// ([`FileTable::name_lookups`]).
    pub fn name_lookups(&self) -> u64 {
        self.cache().files.name_lookups()
    }

    /// Every file this host created, with its size, in key order.
    pub fn list_files(&self) -> Vec<(FileId, f64)> {
        self.cache().files.list()
    }

    /// Advances the readahead stream of slot `i` past the demand request
    /// `[start, end)` ([`Readahead::advance`]) and returns its window.
    pub(crate) fn advance_readahead(&self, i: u64, start: f64, end: f64) -> f64 {
        let (min, max) = (self.config().readahead_min, self.config().readahead_max);
        self.cache_mut()
            .files
            .get_mut(i)
            .stream
            .advance(start, end, min, max)
    }

    /// Cached bytes of the file of slot `i`.
    pub fn cached_amount(&self, i: u64) -> f64 {
        self.cache().files.get(i).pages.cached()
    }

    /// Marks the file of slot `i` as being written (protected from
    /// eviction) or not.
    pub fn set_write_open(&self, i: u64, open: bool) {
        let mut s = self.cache_mut();
        s.files.get_mut(i).pages.write_open = open;
        s.rekey(i);
    }

    /// Drops all cached pages of the file of slot `i`. The file keeps its
    /// slot, size, group and readahead stream; its cache state starts
    /// fresh.
    pub fn invalidate_file(&self, i: u64) -> f64 {
        let mut s = self.cache_mut();
        s.place(i, IndexPos::default());
        let pages = s.files.get(i).pages;
        s.files
            .adjust_group(i, -pages.cached(), -pages.dirty())
            .reset();
        s.cached_total = (s.cached_total - pages.cached()).max(0.0);
        s.dirty_total = (s.dirty_total - pages.dirty()).max(0.0);
        s.debug_validate();
        pages.cached()
    }

    /// Assigns `file` to cache group `group` (a tenant, in memcg terms), or
    /// clears the assignment with `None`. The file's resident and dirty
    /// bytes move to the new group's aggregates; future cache traffic for
    /// the file is attributed there. Assignments survive eviction and
    /// crashes — they are configuration, not cache state.
    pub fn set_file_group(&self, file: &FileId, group: Option<u32>) {
        let mut s = self.cache_mut();
        s.files.set_group(file, group, |slot| {
            (slot.pages.cached(), slot.pages.dirty())
        });
        s.debug_validate();
    }

    /// Writes back every dirty page older than the expiration age, counted
    /// as background writeback.
    pub fn write_back_expired(&self) -> impl Future<Output = f64> + '_ {
        let (now, expire) = (self.ctx().now(), self.config().dirty_expire);
        self.flush_with(true, move |s| {
            let amount = s.expired(now, expire);
            s.write_back(amount, ReclaimScope::Host(None))
        })
    }

    /// The sub-ranges of `[start, end)` of the file of slot `i` that are
    /// *not* resident, in offset order — the disk-read plan of a range
    /// read. Callers capture this *before* any reclaim they trigger, so the
    /// bytes they insert afterwards are exactly the bytes they read from
    /// disk.
    pub fn uncovered(&self, i: u64, start: f64, end: f64) -> Vec<(f64, f64)> {
        self.cache().files.get(i).resident.gaps(start, end)
    }

    /// Adds the *non-resident* part of `[start, end)` of slot `i` as clean
    /// pages just read from disk. Already-resident bytes are left untouched
    /// (the caller served them from the cache), so the float aggregates and
    /// the range view grow by the same amount. Returns the number of bytes
    /// actually inserted.
    pub fn insert_clean_range(&self, i: u64, start: f64, end: f64) -> f64 {
        if end - start <= EPSILON {
            return 0.0;
        }
        let now = self.ctx().now();
        let mut s = self.cache_mut();
        let added = {
            let st = &mut *s;
            let (file, slot) = st.files.named_mut(i);
            let added = (end - start) - slot.resident.covered_len(start, end);
            slot.resident.insert(start, end);
            slot.pages.inactive_clean += added;
            slot.pages.last_access = now;
            st.policy.file_admit(file, &mut slot.meta);
            added
        };
        // Re-keyed even when nothing was added: the access and the policy's
        // admission moved the file's key.
        s.rekey(i);
        if added > EPSILON {
            s.cached_total += added;
            s.files.adjust_group(i, added, 0.0);
        }
        s.debug_validate();
        added
    }

    /// Adds `[start, end)` of the file of slot `i` as dirty pages just
    /// written by an application. Non-resident bytes enter the cache as new inactive dirty
    /// pages; bytes that were already resident are *re-dirtied* in place
    /// (clean pages move to the dirty share, already-dirty pages stay
    /// dirty), so rewriting the same record does not inflate the cache.
    pub fn insert_dirty_range(&self, i: u64, start: f64, end: f64) {
        if end - start <= EPSILON {
            return;
        }
        let now = self.ctx().now();
        let mut s = self.cache_mut();
        let (added, redirtied) = {
            let st = &mut *s;
            let (file, slot) = st.files.named_mut(i);
            st.policy.file_admit(file, &mut slot.meta);
            let overlap = slot.resident.covered_len(start, end);
            let added = (end - start) - overlap;
            slot.resident.insert(start, end);
            slot.dirty.insert(start, end);
            let pages = &mut slot.pages;
            pages.inactive_dirty += added;
            // Overlapped pages turn dirty where they sit; pages of the
            // overlap that were already dirty need no accounting change.
            let redirty_inactive = pages.inactive_clean.min(overlap);
            pages.inactive_clean -= redirty_inactive;
            pages.inactive_dirty += redirty_inactive;
            let redirty_active = pages.active_clean.min(overlap - redirty_inactive);
            pages.active_clean -= redirty_active;
            pages.active_dirty += redirty_active;
            pages.last_access = now;
            if pages.oldest_dirty.is_none() {
                pages.oldest_dirty = Some(now);
            }
            (added, redirty_inactive + redirty_active)
        };
        s.rekey(i);
        s.cached_total += added;
        s.dirty_total += added + redirtied;
        s.files.adjust_group(i, added, added + redirtied);
        s.debug_validate();
    }

    /// Writes back every dirty page of the file of slot `i` (`fsync`),
    /// simulating the disk write. Counted as synchronous writeback. Returns
    /// the amount written back.
    pub fn write_back_file(&self, i: u64) -> impl Future<Output = f64> + '_ {
        self.flush_with(false, move |s| s.write_back_file(i))
    }

    /// The byte ranges of the file of slot `i` that were written but have
    /// not yet reached the disk — the durability ledger a crash turns into
    /// lost data. Sorted and disjoint; empty for a fully written-back file.
    pub fn dirty_ranges(&self, i: u64) -> Vec<(f64, f64)> {
        self.cache().files.get(i).dirty.spans.clone()
    }

    /// Simulated power loss: drops every cached page and all anonymous
    /// memory, and returns each file's lost dirty byte ranges. The trace
    /// and counters survive — they describe the run, not the volatile
    /// state — and so do the files: their sizes, groups and readahead
    /// streams. Takes no simulated time.
    pub fn crash_discard(&self) -> BTreeMap<FileId, Vec<(f64, f64)>> {
        self.crash(|s| {
            // Group *totals* are volatile cache state and reset with it; the
            // group *assignments* are configuration and survive the crash.
            let mut lost = BTreeMap::new();
            s.files.reset_all(|file, slot| {
                let spans = slot.reset().dirty.spans;
                if !spans.is_empty() {
                    lost.insert(file.clone(), spans);
                }
            });
            s.clean = Default::default();
            s.dirty.clear();
            s.stale.clear();
            s.cached_total = 0.0;
            s.dirty_total = 0.0;
            s.debug_validate();
            lost
        })
    }

    /// Records a second access to `bytes` of the file of slot `i`: promotes
    /// them from the inactive to the active list and notifies the replacement policy
    /// (reference bit / hotness / generation stamp, depending on the policy).
    /// O(1): the file's new key is applied by the next reclaim walk.
    pub fn touch(&self, i: u64, bytes: f64) {
        if bytes <= EPSILON {
            return;
        }
        let now = self.ctx().now();
        let mut s = self.cache_mut();
        let st = &mut *s;
        let slot = st.files.get_mut(i);
        slot.pages.promote(bytes);
        slot.pages.last_access = now;
        st.policy.file_touch(&mut slot.meta);
        if !slot.stale {
            slot.stale = true;
            st.stale.push(i);
            // Slots re-keyed since they were listed stay listed, so drain
            // once the list outgrows the table: it stays O(F).
            if st.stale.len() > st.files.len() {
                st.drain_stale();
            }
        }
    }

    /// Spawns the background writeback threads (kupdate/flusher): every
    /// `flush_interval` seconds they write back expired dirty pages, plus
    /// everything above the background dirty threshold.
    pub fn spawn_writeback_threads(&self) -> JoinHandle<()> {
        let cache = self.clone();
        self.ctx()
            .spawn(async move { cache.run_writeback_loop().await })
    }

    /// Body of the background writeback loop ([`Host::run_flush_loop`]).
    pub async fn run_writeback_loop(&self) {
        self.run_flush_loop(|| async {
            self.write_back_expired().await;
            let over_background = self.dirty() - self.background_threshold();
            self.flush_with(true, |s| {
                s.write_back(over_background, ReclaimScope::Host(None))
            })
            .await;
        })
        .await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::Simulation;
    use pagecache::EvictionPolicy;
    use storage_model::{units::MB, DeviceSpec};

    impl RangeSet {
        /// End offset of the highest resident span (0 when empty).
        fn high_water(&self) -> f64 {
            self.spans.last().map_or(0.0, |&(_, b)| b)
        }
    }

    /// Amount-based inserts: each appends at the file's resident high-water
    /// mark, so sequential whole-file traffic lays its pages down at the
    /// true offsets.
    impl KernelCache {
        /// Adds `bytes` of clean pages at the high-water mark of slot `i`.
        fn insert_clean(&self, i: u64, bytes: f64) {
            let start = self.resident_high_water(i);
            self.insert_clean_range(i, start, start + bytes);
        }

        /// Adds `bytes` of dirty pages at the high-water mark of slot `i`.
        fn insert_dirty(&self, i: u64, bytes: f64) {
            let start = self.resident_high_water(i);
            self.insert_dirty_range(i, start, start + bytes);
        }

        /// The readahead stream of slot `i`.
        pub(crate) fn readahead(&self, i: u64) -> Readahead {
            self.cache().files.get(i).stream
        }

        /// End offset of the highest resident span of slot `i` (0 when
        /// nothing is cached).
        fn resident_high_water(&self, i: u64) -> f64 {
            self.cache().files.get(i).resident.high_water()
        }
    }

    /// The slot key of `name` in `cache`, made if needed: the tests here
    /// drive cache traffic for files they never create.
    fn key(cache: &KernelCache, name: &str) -> u64 {
        cache.cache_mut().files.key_or_insert(&name.into())
    }

    fn setup(total_mb: f64) -> (Simulation, KernelCache) {
        setup_with(total_mb, PageCacheConfig::default())
    }

    fn setup_policy(total_mb: f64, policy: EvictionPolicy) -> (Simulation, KernelCache) {
        let config = PageCacheConfig {
            eviction_policy: policy,
            ..PageCacheConfig::default()
        };
        setup_with(total_mb, config)
    }

    fn setup_with(total_mb: f64, config: PageCacheConfig) -> (Simulation, KernelCache) {
        let sim = Simulation::new();
        let ctx = sim.context();
        let memory =
            MemoryDevice::new(&ctx, DeviceSpec::symmetric(2764.0 * MB, 0.0, f64::INFINITY));
        let disk = Disk::new(
            &ctx,
            "d",
            DeviceSpec::asymmetric(510.0 * MB, 420.0 * MB, 0.0, f64::INFINITY),
        );
        let cache = KernelCache::new(&ctx, config, total_mb * MB, memory, disk);
        (sim, cache)
    }

    #[test]
    fn group_aggregates_follow_inserts_writeback_and_eviction() {
        let (sim, cache) = setup(10_000.0);
        let a = key(&cache, "a");
        let shared = key(&cache, "shared");
        let b = key(&cache, "b");
        cache.set_file_group(&"a".into(), Some(1));
        cache.set_file_group(&"b".into(), Some(2));
        cache.insert_clean(a, 100.0 * MB);
        cache.insert_clean(shared, 50.0 * MB); // ungrouped
        let c = cache.clone();
        let h = sim.spawn(async move {
            c.insert_dirty(b, 80.0 * MB);
            approx(c.group_cached(1), 100.0 * MB);
            approx(c.group_cached(2), 80.0 * MB);
            approx(c.group_dirty(2), 80.0 * MB);
            // Group writeback cleans only group 2.
            let flushed = c.flush(f64::INFINITY, ReclaimScope::Group(2)).await;
            approx(flushed, 80.0 * MB);
            approx(c.group_dirty(2), 0.0);
            approx(c.group_cached(2), 80.0 * MB);
            // Group eviction reclaims only group 1.
            let evicted = c.evict(f64::INFINITY, ReclaimScope::Group(1));
            approx(evicted, 100.0 * MB);
            approx(c.group_cached(1), 0.0);
            approx(c.cached_amount(shared), 50.0 * MB);
            approx(c.cached_amount(b), 80.0 * MB);
        });
        sim.run();
        assert!(h.is_finished());
    }

    #[test]
    fn group_assignment_survives_crash_but_aggregates_reset() {
        let (_sim, cache) = setup(10_000.0);
        let f = key(&cache, "f");
        cache.set_file_group(&"f".into(), Some(3));
        cache.insert_clean(f, 100.0 * MB);
        approx(cache.group_cached(3), 100.0 * MB);
        cache.crash_discard();
        approx(cache.group_cached(3), 0.0);
        // The file still belongs to group 3 after the crash.
        cache.insert_clean(f, 40.0 * MB);
        approx(cache.group_cached(3), 40.0 * MB);
        // And after an invalidation: its new bytes count to the group again.
        approx(cache.invalidate_file(f), 40.0 * MB);
        approx(cache.cached(), 0.0);
        approx(cache.group_cached(3), 0.0);
        cache.insert_dirty(f, 25.0 * MB);
        approx(cache.group_cached(3), 25.0 * MB);
        approx(cache.group_dirty(3), 25.0 * MB);
    }

    /// The state of slot `i`, formatted.
    fn slot_state(cache: &KernelCache, i: u64) -> String {
        format!("{:?}", cache.cache().files.get(i))
    }

    #[test]
    fn an_invalidated_grouped_file_comes_back_like_an_ungrouped_one() {
        // One cache with the file grouped, one without; the same history.
        let runs = [Some(4), None].map(|group| {
            let (_sim, cache) = setup_policy(1000.0, EvictionPolicy::TwoQ);
            let f: FileId = "f".into();
            cache.set_file_group(&f, group);
            let i = key(&cache, "f");
            cache.set_write_open(i, true);
            cache.insert_dirty_range(i, 0.0, 30.0 * MB);
            cache.touch(i, 10.0 * MB); // sets the 2Q hot flag
            approx(cache.invalidate_file(i), 30.0 * MB);
            cache.insert_dirty_range(i, 0.0, 10.0 * MB);
            let s = cache.cache();
            let slot = s.files.get(i);
            assert!(!slot.pages.write_open, "{group:?}: still protected");
            assert_eq!(slot.meta, FileMeta::default(), "{group:?}: stale metadata");
            assert_eq!(s.files.group(i), group);
            drop(s);
            slot_state(&cache, i)
        });
        assert_eq!(runs[0], runs[1]);
    }

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() < 1e-6 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn dirty_ledger_tracks_unflushed_positions() {
        let (sim, cache) = setup(1000.0);
        let f = key(&cache, "f");
        cache.insert_dirty_range(f, 0.0, 50.0 * MB);
        cache.insert_dirty_range(f, 80.0 * MB, 100.0 * MB);
        assert_eq!(
            cache.dirty_ranges(f),
            vec![(0.0, 50.0 * MB), (80.0 * MB, 100.0 * MB)]
        );
        // fsync clears the ledger entirely.
        let h = sim.spawn({
            let cache = cache.clone();
            async move { cache.write_back_file(f).await }
        });
        sim.run();
        approx(h.try_take_result().unwrap(), 70.0 * MB);
        assert!(cache.dirty_ranges(f).is_empty());
        // Redirtying after the flush starts a fresh ledger.
        cache.insert_dirty_range(f, 10.0 * MB, 20.0 * MB);
        assert_eq!(cache.dirty_ranges(f), vec![(10.0 * MB, 20.0 * MB)]);
    }

    #[test]
    fn partial_writeback_trims_the_ledger_from_the_front() {
        let (sim, cache) = setup(1000.0);
        let f = key(&cache, "f");
        cache.insert_dirty_range(f, 0.0, 100.0 * MB);
        let h = sim.spawn({
            let cache = cache.clone();
            async move { cache.flush(40.0 * MB, ReclaimScope::Host(None)).await }
        });
        sim.run();
        approx(h.try_take_result().unwrap(), 40.0 * MB);
        assert_eq!(cache.dirty_ranges(f), vec![(40.0 * MB, 100.0 * MB)]);
    }

    #[test]
    fn crash_discard_returns_lost_ranges_and_resets_state() {
        let (sim, cache) = setup(1000.0);
        let clean = key(&cache, "clean");
        let wal = key(&cache, "wal");
        let logged = key(&cache, "logged");
        let journal = key(&cache, "journal");
        let fresh = key(&cache, "fresh");
        cache.insert_clean(clean, 100.0 * MB);
        cache.insert_dirty_range(wal, 0.0, 30.0 * MB);
        cache.insert_dirty_range(logged, 0.0, 10.0 * MB);
        // Written after "wal", sorts before it.
        cache.insert_dirty_range(journal, 5.0 * MB, 8.0 * MB);
        cache.use_anonymous_memory(50.0 * MB);
        // A written-back file has nothing to lose.
        let h = sim.spawn({
            let cache = cache.clone();
            async move { cache.write_back_file(logged).await }
        });
        sim.run();
        approx(h.try_take_result().unwrap(), 10.0 * MB);
        // Every file holding pages, "fresh" (no pages yet) left out.
        assert_eq!(cache.cache().cached_per_file().len(), 4);
        let lost = cache.crash_discard();
        assert_eq!(
            lost,
            BTreeMap::from([
                ("journal".into(), vec![(5.0 * MB, 8.0 * MB)]),
                ("wal".into(), vec![(0.0, 30.0 * MB)])
            ])
        );
        approx(cache.cached(), 0.0);
        approx(cache.dirty(), 0.0);
        approx(cache.anonymous(), 0.0);
        assert!(cache.cache().cached_per_file().is_empty());
        // The cache keeps working after the reset.
        cache.insert_clean(fresh, 10.0 * MB);
        approx(cache.cached(), 10.0 * MB);
    }

    #[test]
    fn work_counts_every_reclaim_call_with_a_positive_amount() {
        let (sim, cache) = setup(1000.0);
        let d = key(&cache, "d");
        cache.insert_clean(key(&cache, "c"), 100.0 * MB);
        cache.insert_dirty(d, 100.0 * MB);
        let c = cache.clone();
        let h = sim.spawn(async move {
            c.evict(0.0, ReclaimScope::Host(None));
            c.flush(-1.0, ReclaimScope::Host(None)).await;
            assert_eq!((c.work().evict_calls, c.work().writeback_calls), (0, 0));
            c.evict(10.0 * MB, ReclaimScope::Host(None));
            c.evict(10.0 * MB, ReclaimScope::Group(1)); // nothing in the group
            c.flush(10.0 * MB, ReclaimScope::Host(None)).await;
            c.flush(10.0 * MB, ReclaimScope::Group(1)).await;
            c.write_back_file(d).await; // not a reclaim call
            c.write_back_expired().await; // nothing dirty: no call
            c.work()
        });
        sim.run();
        let work = h.try_take_result().unwrap();
        assert_eq!((work.evict_calls, work.writeback_calls), (2, 2));
        // The group eviction visits "c" in both passes without taking it.
        assert_eq!((work.evict_visits, work.writeback_visits), (3, 2));
    }

    #[test]
    fn eviction_protects_files_being_written() {
        let (_sim, cache) = setup(1000.0);
        let protected = key(&cache, "protected");
        let victim = key(&cache, "victim");
        cache.insert_clean(protected, 100.0 * MB);
        cache.set_write_open(protected, true);
        cache.insert_clean(victim, 100.0 * MB);
        let evicted = cache.evict(100.0 * MB, ReclaimScope::Host(None));
        approx(evicted, 100.0 * MB);
        approx(cache.cached_amount(protected), 100.0 * MB);
        approx(cache.cached_amount(victim), 0.0);
        // Under stronger pressure even protected files are reclaimed
        // (second pass).
        let evicted = cache.evict(100.0 * MB, ReclaimScope::Host(None));
        approx(evicted, 100.0 * MB);
        approx(cache.cached_amount(protected), 0.0);
    }

    #[test]
    fn eviction_is_lru_ordered_and_skips_dirty() {
        let (sim, cache) = setup(1000.0);
        let old = key(&cache, "old");
        let new = key(&cache, "new");
        let dirty = key(&cache, "dirty");
        let ctx = sim.context();
        let c = cache.clone();
        sim.spawn(async move {
            c.insert_clean(old, 50.0 * MB);
            ctx.sleep(1.0).await;
            c.insert_clean(new, 50.0 * MB);
            c.insert_dirty(dirty, 50.0 * MB);
            let evicted = c.evict(60.0 * MB, ReclaimScope::Host(None));
            approx(evicted, 60.0 * MB);
            // The older file went first.
            approx(c.cached_amount(old), 0.0);
            approx(c.cached_amount(new), 40.0 * MB);
            // Dirty data is never evicted.
            approx(c.cached_amount(dirty), 50.0 * MB);
        });
        sim.run();
    }

    #[test]
    fn write_back_cleans_and_writes_to_disk() {
        let (sim, cache) = setup(10_000.0);
        let f = key(&cache, "f");
        let h = sim.spawn({
            let cache = cache.clone();
            async move {
                cache.insert_dirty(f, 420.0 * MB);
                let flushed = cache.flush(420.0 * MB, ReclaimScope::Host(None)).await;
                (flushed, cache.dirty())
            }
        });
        sim.run();
        let (flushed, dirty) = h.try_take_result().unwrap();
        approx(flushed, 420.0 * MB);
        approx(dirty, 0.0);
        approx(sim.now().as_secs(), 1.0); // 420 MB at 420 MB/s write bandwidth
        approx(cache.counters().synchronous_flushed, 420.0 * MB);
        // Data stays cached (clean) after writeback.
        approx(cache.cached(), 420.0 * MB);
    }

    #[test]
    fn background_flushed_starts_at_background_threshold() {
        let (sim, cache) = setup(1000.0);
        let f = key(&cache, "f");
        cache.spawn_writeback_threads();
        let c = cache.clone();
        let ctx = sim.context();
        sim.spawn(async move {
            // 150 MB dirty > 10 % of 1000 MB: the background thread writes
            // back the 50 MB excess at its next wakeup even though nothing is
            // expired and the 20 % dirty ratio is not reached.
            c.insert_dirty(f, 150.0 * MB);
            ctx.sleep(10.0).await;
            assert!(c.dirty() <= c.background_threshold() + 1.0);
            c.stop();
        });
        sim.run();
        assert!(cache.counters().background_flushed >= 49.0 * MB);
    }

    #[test]
    fn expired_dirty_data_is_written_back() {
        let (sim, cache) = setup(10_000.0);
        let f = key(&cache, "f");
        cache.spawn_writeback_threads();
        let c = cache.clone();
        let ctx = sim.context();
        sim.spawn(async move {
            // 100 MB dirty, under both thresholds: only expiration flushes it.
            c.insert_dirty(f, 100.0 * MB);
            ctx.sleep(20.0).await;
            approx(c.dirty(), 100.0 * MB);
            ctx.sleep(20.0).await;
            approx(c.dirty(), 0.0);
            c.stop();
        });
        sim.run();
    }

    #[test]
    fn touch_promotes_to_active_list() {
        let (_sim, cache) = setup(1000.0);
        cache.insert_clean(key(&cache, "f"), 100.0 * MB);
        cache.touch(key(&cache, "f"), 60.0 * MB);
        // Promoted pages are protected from the first eviction pass only by
        // LRU order; total stays the same.
        approx(cache.cached_amount(key(&cache, "f")), 100.0 * MB);
        let f = key(&cache, "f");
        let pages = cache.cache().files.get(f).pages;
        approx(pages.active_clean, 60.0 * MB);
        approx(pages.inactive_clean, 40.0 * MB);
    }

    #[test]
    fn two_q_reinserted_files_outrank_one_shot_scans() {
        let (_sim, cache) = setup_policy(1000.0, EvictionPolicy::TwoQ);
        let hot = key(&cache, "hot");
        let scan = key(&cache, "scan");
        cache.insert_clean(hot, 50.0 * MB);
        // Fully reclaimed once: the file enters the ghost queue.
        approx(cache.evict(50.0 * MB, ReclaimScope::Host(None)), 50.0 * MB);
        // The re-insert is a ghost hit, classifying the file as hot (Am).
        cache.insert_clean(hot, 50.0 * MB);
        cache.insert_clean(scan, 50.0 * MB);
        approx(cache.evict(50.0 * MB, ReclaimScope::Host(None)), 50.0 * MB);
        // The one-shot scan ranks below the ghost-hit file and goes first.
        approx(cache.cached_amount(hot), 50.0 * MB);
        approx(cache.cached_amount(scan), 0.0);
    }

    /// Tiny xorshift PRNG (no external dependencies; same generator family
    /// as the harness dispatcher).
    struct XorShift(u64);

    impl XorShift {
        fn new(seed: u64) -> Self {
            XorShift(seed.max(1))
        }

        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        /// A value in `[0, bound)`.
        fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }

    /// Naive per-page model of a [`RangeSet`]: a `HashSet` of resident page
    /// indices. All driver operations are page-aligned, so every f64 value
    /// involved is an exact integer and comparisons can be byte-exact.
    #[derive(Default)]
    struct NaivePages(std::collections::HashSet<u64>);

    const PROP_PAGE: f64 = 4096.0;

    impl NaivePages {
        fn insert(&mut self, a: u64, b: u64) {
            self.0.extend(a..b);
        }

        /// Removes `k` pages from the lowest offsets.
        fn trim_front(&mut self, k: u64) {
            let mut pages: Vec<u64> = self.0.iter().copied().collect();
            pages.sort_unstable();
            for p in pages.into_iter().take(k as usize) {
                self.0.remove(&p);
            }
        }

        fn covered(&self, a: u64, b: u64) -> u64 {
            (a..b).filter(|p| self.0.contains(p)).count() as u64
        }

        /// Maximal uncovered page runs within `[a, b)`, as byte ranges.
        fn gaps(&self, a: u64, b: u64) -> Vec<(f64, f64)> {
            let mut out = Vec::new();
            let mut run_start = None;
            for p in a..b {
                match (self.0.contains(&p), run_start) {
                    (false, None) => run_start = Some(p),
                    (true, Some(s)) => {
                        out.push((s as f64 * PROP_PAGE, p as f64 * PROP_PAGE));
                        run_start = None;
                    }
                    _ => {}
                }
            }
            if let Some(s) = run_start {
                out.push((s as f64 * PROP_PAGE, b as f64 * PROP_PAGE));
            }
            out
        }

        fn total(&self) -> u64 {
            self.0.len() as u64
        }

        fn high_water(&self) -> f64 {
            self.0
                .iter()
                .max()
                .map_or(0.0, |&p| (p + 1) as f64 * PROP_PAGE)
        }
    }

    /// Property test: 12k randomized page-aligned insert/trim/query ops on a
    /// [`RangeSet`] must agree byte-exactly with the naive per-page model —
    /// total coverage, covered length of arbitrary ranges, the uncovered-gap
    /// plan, and the high-water mark, after every single op.
    #[test]
    fn range_set_matches_naive_page_model() {
        const PAGES: u64 = 512;
        const OPS: usize = 12_000;
        let mut rng = XorShift::new(0x9e3779b97f4a7c15);
        let mut rs = RangeSet::default();
        let mut naive = NaivePages::default();
        for op in 0..OPS {
            match rng.below(4) {
                0 | 1 => {
                    // Insert a random page range (inserts dominate so the
                    // set stays populated).
                    let a = rng.below(PAGES);
                    let b = (a + 1 + rng.below(64)).min(PAGES);
                    rs.insert(a as f64 * PROP_PAGE, b as f64 * PROP_PAGE);
                    naive.insert(a, b);
                }
                2 => {
                    // Trim a random number of pages from the front
                    // (occasionally more than are resident).
                    let k = rng.below(96);
                    rs.trim_front(k as f64 * PROP_PAGE);
                    naive.trim_front(k);
                }
                _ => {
                    // Zero-length insert: must be a no-op.
                    let a = rng.below(PAGES);
                    rs.insert(a as f64 * PROP_PAGE, a as f64 * PROP_PAGE);
                }
            }
            // Byte-exact coverage.
            assert_eq!(
                rs.total(),
                naive.total() as f64 * PROP_PAGE,
                "op {op}: total"
            );
            assert_eq!(rs.high_water(), naive.high_water(), "op {op}: high water");
            // A random query range (possibly empty, possibly past the end).
            let qa = rng.below(PAGES + 32);
            let qb = qa + rng.below(128);
            let (fa, fb) = (qa as f64 * PROP_PAGE, qb as f64 * PROP_PAGE);
            assert_eq!(
                rs.covered_len(fa, fb),
                naive.covered(qa, qb.min(PAGES)).min(qb - qa) as f64 * PROP_PAGE,
                "op {op}: covered_len({qa}, {qb})"
            );
            assert_eq!(
                rs.gaps(fa, fb),
                naive.gaps(qa, qb),
                "op {op}: gaps({qa}, {qb})"
            );
            // Structural invariants: sorted, disjoint, non-empty spans.
            for w in rs.spans.windows(2) {
                assert!(w[0].1 < w[1].0, "op {op}: touching/unsorted spans");
            }
            assert!(rs.spans.iter().all(|&(a, b)| b > a), "op {op}: empty span");
        }
    }

    /// The selection the indexes replaced, kept as the differential test's
    /// reference: scan the file table for candidates and sort them on every
    /// call, and check the scope by file name and group (the excluded key's
    /// name against each candidate's). Byte bookkeeping
    /// goes through the same helpers as the indexed walks; the indexes are
    /// re-keyed afterwards only so the oracle holds.
    impl KernelState {
        fn in_scope(&self, scope: ReclaimScope, i: u64) -> bool {
            match scope {
                ReclaimScope::Host(exclude) => {
                    exclude.map(|k| self.files.name(k)) != Some(self.files.name(i))
                }
                ReclaimScope::Group(g) => self.files.group(i) == Some(g),
            }
        }

        fn evict_by_sort(&mut self, amount: f64, scope: ReclaimScope) -> f64 {
            if amount <= EPSILON {
                return 0.0;
            }
            let mut order: Vec<u64> = self
                .files
                .iter()
                .filter(|(_, _, slot)| slot.pages.clean() > EPSILON)
                .map(|(i, _, _)| i)
                .collect();
            order.sort_by_key(|&i| {
                let slot = self.files.get(i);
                let rank = self.policy.file_rank(&slot.meta);
                (rank, slot.pages.last_access, self.files.name(i).clone())
            });
            let mut evicted = 0.0;
            for respect_protection in [true, false] {
                for &i in &order {
                    if evicted >= amount - EPSILON {
                        break;
                    }
                    if !self.in_scope(scope, i) {
                        continue;
                    }
                    if respect_protection && self.files.get(i).pages.write_open {
                        continue;
                    }
                    evicted += self.evict_from(i, amount - evicted);
                }
                if evicted >= amount - EPSILON {
                    break;
                }
            }
            for &i in &order {
                self.rekey(i);
            }
            self.cached_total = (self.cached_total - evicted).max(0.0);
            self.debug_validate();
            evicted
        }

        /// Files with dirty pages in writeback order.
        fn dirty_order_by_sort(&self) -> Vec<u64> {
            let mut order: Vec<u64> = self
                .files
                .iter()
                .filter(|(_, _, slot)| slot.pages.dirty() > EPSILON)
                .map(|(i, _, _)| i)
                .collect();
            order.sort_by_key(|&i| {
                let p = &self.files.get(i).pages;
                (
                    p.oldest_dirty.unwrap_or(p.last_access),
                    self.files.name(i).clone(),
                )
            });
            order
        }

        fn write_back_by_sort(&mut self, amount: f64, scope: ReclaimScope) -> f64 {
            if amount <= EPSILON {
                return 0.0;
            }
            let mut flushed = 0.0;
            for i in self.dirty_order_by_sort() {
                if flushed >= amount - EPSILON {
                    break;
                }
                if self.in_scope(scope, i) {
                    flushed += self.write_back_from(i, amount - flushed);
                }
            }
            self.dirty_total = (self.dirty_total - flushed).max(0.0);
            self.debug_validate();
            flushed
        }

        /// The expired amount: every file whose oldest dirty page passed
        /// the expiration age, summed in writeback order.
        fn expired_by_sort(&self, now: SimTime, expire: f64) -> f64 {
            self.dirty_order_by_sort()
                .into_iter()
                .map(|i| &self.files.get(i).pages)
                .filter(|p| {
                    p.oldest_dirty
                        .is_some_and(|t| now.duration_since(t) > expire)
                })
                .map(FilePages::dirty)
                .sum()
        }
    }

    impl KernelCache {
        /// [`KernelState::evict_by_sort`], counted the way [`Host::evict`]
        /// counts.
        fn evict_by_sort(&self, amount: f64, scope: ReclaimScope) -> f64 {
            let evicted = self.cache_mut().evict_by_sort(amount, scope);
            self.counters_mut().evicted += evicted;
            evicted
        }
    }

    /// Everything observable about a cache: per-file pages, policy metadata,
    /// range ledgers and group, the totals and counters, the policy's own
    /// state (2Q ghost queue) and the simulated time.
    fn observe(sim: &Simulation, cache: &KernelCache) -> String {
        let s = cache.cache();
        let mut files: Vec<_> = s
            .files
            .iter()
            .map(|(i, f, slot)| {
                let group = s.files.group(i);
                (f, slot.pages, slot.meta, &slot.resident, &slot.dirty, group)
            })
            .collect();
        files.sort_by(|a, b| a.0.cmp(b.0));
        format!(
            "{files:?} {} {} {:?} {:?} {:?}",
            s.cached_total,
            s.dirty_total,
            cache.counters(),
            s.policy,
            sim.now()
        )
    }

    /// Runs one operation to completion on `sim` and returns its result.
    fn complete<T: 'static>(
        sim: &Simulation,
        op: impl std::future::Future<Output = T> + 'static,
    ) -> T {
        let h = sim.spawn(op);
        sim.run();
        h.try_take_result().expect("operation finished")
    }

    /// Differential test of the reclaim indexes: two caches run the same
    /// 10k random operations, one selecting eviction victims, writeback
    /// order and the expired amount from its indexes, the other with the
    /// sort-based reference above. Every result and the full observable
    /// state must agree bit for bit after every operation, for each policy.
    /// The operations cover write-open protection, 2Q rank changes on
    /// admit and touch, host scopes with an excluded file, group scopes,
    /// invalidation, and crashes.
    #[test]
    fn indexed_reclaim_matches_the_sort_based_selection() {
        const OPS: usize = 10_000;
        let files: Vec<FileId> = (0..12).map(|k| FileId::new(format!("f{k:02}"))).collect();
        for (policy, seed) in [
            (EvictionPolicy::TwoList, 0x5eed_0000),
            (EvictionPolicy::TwoQ, 0x5eed_0002),
        ] {
            let (sim_a, indexed) = setup_policy(1000.0, policy);
            let (sim_b, sorted) = setup_policy(1000.0, policy);
            let keys = |cache: &KernelCache| -> Vec<u64> {
                files.iter().map(|f| key(cache, f.name())).collect()
            };
            let (keys_a, keys_b) = (keys(&indexed), keys(&sorted));
            let mut rng = XorShift::new(seed);
            let mut evictions = 0;
            for op in 0..OPS {
                let n = rng.below(files.len() as u64) as usize;
                let (f, fa, fb) = (&files[n], keys_a[n], keys_b[n]);
                let mb = |rng: &mut XorShift, n: u64| (1 + rng.below(n)) as f64 * MB;
                let (a, b) = match rng.below(100) {
                    0..=17 => {
                        let start = rng.below(64) as f64 * MB;
                        let end = start + mb(&mut rng, 32);
                        let r = (
                            indexed.insert_clean_range(fa, start, end),
                            sorted.insert_clean_range(fb, start, end),
                        );
                        (r.0.to_bits(), r.1.to_bits())
                    }
                    18..=31 => {
                        let start = rng.below(64) as f64 * MB;
                        let end = start + mb(&mut rng, 32);
                        indexed.insert_dirty_range(fa, start, end);
                        sorted.insert_dirty_range(fb, start, end);
                        (0, 0)
                    }
                    32..=45 => {
                        let bytes = mb(&mut rng, 40);
                        indexed.touch(fa, bytes);
                        sorted.touch(fb, bytes);
                        (0, 0)
                    }
                    46..=51 => {
                        let open = rng.below(2) == 0;
                        indexed.set_write_open(fa, open);
                        sorted.set_write_open(fb, open);
                        (0, 0)
                    }
                    52..=53 => {
                        let group = [None, Some(1), Some(2)][rng.below(3) as usize];
                        indexed.set_file_group(f, group);
                        sorted.set_file_group(f, group);
                        (0, 0)
                    }
                    54..=71 => {
                        evictions += 1;
                        let amount = if rng.below(20) == 0 {
                            f64::INFINITY
                        } else {
                            mb(&mut rng, 120) * 0.75
                        };
                        let group = 1 + rng.below(2) as u32;
                        let scope = |pick: u64, key: u64| match pick {
                            0 => ReclaimScope::Host(Some(key)),
                            1 => ReclaimScope::Group(group),
                            _ => ReclaimScope::Host(None),
                        };
                        let pick = rng.below(4);
                        let r = (
                            indexed.evict(amount, scope(pick, fa)),
                            sorted.evict_by_sort(amount, scope(pick, fb)),
                        );
                        (r.0.to_bits(), r.1.to_bits())
                    }
                    72..=81 => {
                        let amount = mb(&mut rng, 80) * 0.6;
                        let throttled = rng.below(2) == 0;
                        let (group, pick) = (1 + rng.below(2) as u32, rng.below(4));
                        let (ca, cb) = (indexed.clone(), sorted.clone());
                        let r = (
                            complete(&sim_a, async move {
                                let scope = match pick {
                                    0 => ReclaimScope::Host(Some(fa)),
                                    1 => ReclaimScope::Group(group),
                                    _ => ReclaimScope::Host(None),
                                };
                                ca.flush_with(!throttled, |s| s.write_back(amount, scope))
                                    .await
                            }),
                            complete(&sim_b, async move {
                                let scope = match pick {
                                    0 => ReclaimScope::Host(Some(fb)),
                                    1 => ReclaimScope::Group(group),
                                    _ => ReclaimScope::Host(None),
                                };
                                cb.flush_with(!throttled, |s| s.write_back_by_sort(amount, scope))
                                    .await
                            }),
                        );
                        (r.0.to_bits(), r.1.to_bits())
                    }
                    82..=86 => {
                        let (now, expire) = (sim_b.now(), sorted.config().dirty_expire);
                        let expired = sorted.cache().expired_by_sort(now, expire);
                        let (ca, cb) = (indexed.clone(), sorted.clone());
                        let r = (
                            complete(&sim_a, async move { ca.write_back_expired().await }),
                            complete(&sim_b, async move {
                                cb.flush_with(true, |s| {
                                    s.write_back_by_sort(expired, ReclaimScope::Host(None))
                                })
                                .await
                            }),
                        );
                        (r.0.to_bits(), r.1.to_bits())
                    }
                    87..=88 => {
                        let (ca, cb) = (indexed.clone(), sorted.clone());
                        let r = (
                            complete(&sim_a, async move { ca.write_back_file(fa).await }),
                            complete(&sim_b, async move { cb.write_back_file(fb).await }),
                        );
                        (r.0.to_bits(), r.1.to_bits())
                    }
                    89..=91 => {
                        let r = (indexed.invalidate_file(fa), sorted.invalidate_file(fb));
                        (r.0.to_bits(), r.1.to_bits())
                    }
                    92 if rng.below(10) == 0 => {
                        let r = (indexed.crash_discard(), sorted.crash_discard());
                        assert_eq!(r.0, r.1, "{policy:?} op {op}: lost ranges");
                        (0, 0)
                    }
                    _ => {
                        // Advance time; zero-length steps keep access-time
                        // ties (broken by file name) common.
                        let dt = rng.below(4) as f64 * 5.0;
                        let (ca, cb) = (indexed.ctx().clone(), sorted.ctx().clone());
                        complete(&sim_a, async move { ca.sleep(dt).await });
                        complete(&sim_b, async move { cb.sleep(dt).await });
                        (0, 0)
                    }
                };
                assert_eq!(a, b, "{policy:?} op {op}: results differ");
                assert_eq!(
                    observe(&sim_a, &indexed),
                    observe(&sim_b, &sorted),
                    "{policy:?} op {op}: states differ"
                );
            }
            assert!(evictions > OPS / 10, "{policy:?}: too few evictions");
            assert!(
                indexed.counters().evicted > 0.0,
                "{policy:?}: nothing evicted"
            );
        }
    }

    #[test]
    #[should_panic(expected = "no writethrough mode")]
    fn writethrough_is_rejected() {
        let config = PageCacheConfig {
            write_mode: WriteMode::WriteThrough,
            ..PageCacheConfig::default()
        };
        let _ = setup_with(1000.0, config);
    }
}
