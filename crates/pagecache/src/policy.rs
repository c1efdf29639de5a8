//! Eviction policies: the *decision* half of the page-cache replacement
//! machinery.
//!
//! The intrusive slab arena of `pagecache::lru` and the kernel emulator's
//! per-file slots (`kernel-emu::cache`; both keep per-file state in a
//! [`FileTable`](crate::FileTable)) are pure *mechanism*: chains, byte
//! aggregates, resident-range ledgers. Which block or file to admit where,
//! when to promote it, and in what order to reclaim it is *policy* — and
//! recent work ("Cache is King: Smart Page Eviction with eBPF", LearnedCache)
//! treats exactly that as the swappable component of a page cache. Both
//! mechanisms hold one [`Policy`] value, built by [`EvictionPolicy::build`],
//! and ask it every decision; each hook is one `match` on the policy kind:
//!
//! | policy | literature / Linux counterpart |
//! |---|---|
//! | [`EvictionPolicy::TwoList`] | the kernel's classic active/inactive lists (the paper's model; default) |
//! | [`EvictionPolicy::Clock`] | CLOCK / second-chance reference bits |
//! | [`EvictionPolicy::TwoQ`] | 2Q (A1in / A1out ghosts / Am) |
//! | [`EvictionPolicy::MglruGen`] | MGLRU-style generation ring with aging |
//!
//! # The tier abstraction (block-granular mechanism)
//!
//! `pagecache::lru` keeps up to [`MAX_TIERS`] physical lists ("tiers"), each
//! an intrusive recency chain with incremental aggregates. The policy decides
//! everything tier-shaped:
//!
//! * [`Policy::insert_tier`] — where a first-touch block lands (2Q routes
//!   ghost-hit files straight to Am; MGLRU picks a middle generation, aging
//!   the ring lazily when the oldest generation drains);
//! * [`Policy::promote_tier`] — where a re-accessed block goes;
//! * [`Policy::tier_order`] — the reclaim-first scan order (MGLRU rotates it
//!   as generations age);
//! * [`Policy::evictable_tiers`] — which tiers eviction may reclaim from
//!   (the 2-list policy protects its active tier);
//! * [`Policy::demotion`] — the rebalance rule (the 2-list policy's "active
//!   at most twice the inactive" demotion loop);
//! * [`Policy::uses_reference_bits`] / [`Policy::on_evict`] — CLOCK's second
//!   chance and 2Q's ghost bookkeeping.
//!
//! # File-granular hooks (kernel emulator mechanism)
//!
//! The emulator tracks occupancy per *file*, so the policy also answers
//! file-level hooks operating on a per-file [`FileMeta`] (reference bit, 2Q
//! hot flag, MGLRU generation stamp) stored by the mechanism:
//! [`Policy::file_admit`], [`Policy::file_touch`], [`Policy::file_rank`] (a
//! victim-ordering prefix — the mechanism orders candidates by
//! `(rank, last_access, name)`), [`Policy::file_second_chance`] and
//! [`Policy::file_on_evict`].
//!
//! The default [`EvictionPolicy::TwoList`] policy answers every hook the way
//! the paper's model behaves (insert inactive, promote to active, 2×
//! demotion rule, rank 0 everywhere); the frozen golden baselines pin its
//! predictions bit-for-bit.

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

use crate::block::FileId;
use crate::lru::EPSILON;

/// Maximum number of physical tiers (lists / generations) any policy uses.
pub const MAX_TIERS: usize = 4;

/// Capacity of the 2Q ghost FIFO (A1out), in distinct files.
const TWO_Q_GHOSTS: usize = 64;

/// How many file touches advance the MGLRU generation counter by one.
const MGLRU_AGE_PERIOD: u32 = 32;

/// The selectable eviction policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionPolicy {
    /// The kernel's classic active/inactive 2-list policy (paper §III-A-1).
    /// The default; its predictions are pinned by the frozen goldens.
    #[default]
    TwoList,
    /// CLOCK: one list with second-chance reference bits.
    Clock,
    /// 2Q: a probationary FIFO (A1in), a ghost FIFO of recently evicted
    /// files (A1out) and a protected main list (Am).
    TwoQ,
    /// MGLRU-style generation ring: four generations aged lazily, oldest
    /// reclaimed first.
    MglruGen,
}

impl EvictionPolicy {
    /// All policies, in canonical (sweep/bench) order.
    pub const ALL: [EvictionPolicy; 4] = [
        EvictionPolicy::TwoList,
        EvictionPolicy::Clock,
        EvictionPolicy::TwoQ,
        EvictionPolicy::MglruGen,
    ];

    /// Canonical config-string name of the policy.
    pub fn as_str(&self) -> &'static str {
        match self {
            EvictionPolicy::TwoList => "two_list",
            EvictionPolicy::Clock => "clock",
            EvictionPolicy::TwoQ => "two_q",
            EvictionPolicy::MglruGen => "mglru",
        }
    }

    /// Instantiates the policy's decision state.
    pub fn build(self) -> Policy {
        Policy {
            kind: self,
            ..Policy::default()
        }
    }
}

impl fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for EvictionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "two_list" | "twolist" | "2list" | "lru" => Ok(EvictionPolicy::TwoList),
            "clock" | "second_chance" => Ok(EvictionPolicy::Clock),
            "two_q" | "twoq" | "2q" => Ok(EvictionPolicy::TwoQ),
            "mglru" | "mglru_gen" | "gen" => Ok(EvictionPolicy::MglruGen),
            other => Err(format!(
                "unknown eviction policy {other:?} (expected two_list, clock, two_q or mglru)"
            )),
        }
    }
}

/// Per-file policy metadata stored by file-granular mechanisms (the kernel
/// emulator). The mechanism owns the storage; the policy owns the meaning.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FileMeta {
    /// CLOCK reference bit: the file was re-accessed while resident.
    pub referenced: bool,
    /// 2Q hot flag: the file re-entered the cache after a ghost hit, or was
    /// re-accessed while resident (Am membership).
    pub hot: bool,
    /// MGLRU generation stamp of the file's most recent access.
    pub gen: u32,
}

/// The decision state of one cache's eviction policy, consumed by both the
/// block-granular `pagecache::lru` mechanism (tier hooks) and the
/// file-granular `kernel-emu` mechanism (file hooks). See the module docs
/// for the contract of each hook.
///
/// Per policy, the tiers mean:
///
/// * **2-list:** tier 0 is the inactive list, tier 1 the active list; the
///   active list is kept at most twice the inactive one.
/// * **CLOCK:** one tier whose re-accessed blocks carry a reference bit. The
///   reclaim scan clears the bit and spares the block once; a second pass
///   reclaims regardless. File-granular: a touched file survives the first
///   reclaim pass once.
/// * **2Q:** tier 0 is the probationary A1in FIFO, tier 1 the protected main
///   list Am, and `ghosts` the A1out FIFO remembering recently reclaimed
///   probationary files. A first-touch block of a ghost file is admitted
///   straight to Am; reclaim drains A1in before touching Am.
/// * **MGLRU:** the four tiers form a ring of generations, `oldest` pointing
///   at the reclaim-first one. Inserts land two generations above the
///   oldest, promotions in the youngest; when the oldest generation drains,
///   the ring rotates (lazy aging). File-granular: each file carries the
///   generation stamp of its last access, and reclaim evicts older
///   generations first.
#[derive(Debug, Clone, Default)]
pub struct Policy {
    kind: EvictionPolicy,
    /// 2Q's A1out ghost FIFO (empty under every other policy).
    ghosts: VecDeque<FileId>,
    /// MGLRU's reclaim-first generation; 0 under every other policy, so
    /// [`Policy::tier_order`] is the identity there.
    oldest: usize,
    /// MGLRU's file-granular generation counter.
    current_gen: u32,
    /// MGLRU file accesses since the cache was created.
    touches: u32,
}

impl Policy {
    /// The named policy this state implements.
    pub fn kind(&self) -> EvictionPolicy {
        self.kind
    }

    // ---- Tier hooks (block-granular mechanism) ----

    /// Tier a newly inserted (first-touch) block joins. `tier_bytes` holds
    /// the current per-tier byte totals (MGLRU ages its ring off them; 2Q
    /// consults its ghost FIFO for `file`).
    pub fn insert_tier(&mut self, file: &FileId, tier_bytes: &[f64; MAX_TIERS]) -> usize {
        match self.kind {
            EvictionPolicy::TwoList | EvictionPolicy::Clock => 0,
            // An A1out hit earned the main list; a cold first touch is
            // probationary.
            EvictionPolicy::TwoQ => self.ghost_hit(file) as usize,
            EvictionPolicy::MglruGen => {
                self.age(tier_bytes);
                (self.oldest + 2) % MAX_TIERS
            }
        }
    }

    /// Tier a re-accessed block is re-inserted into.
    pub fn promote_tier(&mut self, tier_bytes: &[f64; MAX_TIERS]) -> usize {
        match self.kind {
            EvictionPolicy::TwoList | EvictionPolicy::TwoQ => 1,
            EvictionPolicy::Clock => 0,
            EvictionPolicy::MglruGen => {
                self.age(tier_bytes);
                (self.oldest + 3) % MAX_TIERS
            }
        }
    }

    /// The tier scan order for consumption, flushing and reclaim:
    /// least-protected (reclaim-first) tier first.
    pub fn tier_order(&self) -> [usize; MAX_TIERS] {
        std::array::from_fn(|i| (self.oldest + i) % MAX_TIERS)
    }

    /// Which tiers eviction may reclaim clean blocks from. Static per
    /// policy.
    pub fn evictable_tiers(&self) -> [bool; MAX_TIERS] {
        match self.kind {
            EvictionPolicy::TwoList | EvictionPolicy::Clock => [true, false, false, false],
            // Both queues are reclaimable; the scan order drains A1in first.
            EvictionPolicy::TwoQ => [true, true, false, false],
            EvictionPolicy::MglruGen => [true; MAX_TIERS],
        }
    }

    /// One rebalance step: `Some((from, to))` demotes the LRU block of tier
    /// `from` into tier `to`; `None` ends the rebalance loop. Called with
    /// the current per-tier byte totals and block counts.
    pub fn demotion(
        &self,
        tier_bytes: &[f64; MAX_TIERS],
        tier_lens: &[usize; MAX_TIERS],
    ) -> Option<(usize, usize)> {
        // The kernel keeps the active list at most twice the inactive list
        // (paper §III-A-1).
        let over = self.kind == EvictionPolicy::TwoList
            && tier_lens[1] > 0
            && tier_bytes[1] > 2.0 * tier_bytes[0] + EPSILON;
        over.then_some((1, 0))
    }

    /// Whether re-accessed blocks carry a reference bit that grants them a
    /// second chance during eviction (CLOCK).
    pub fn uses_reference_bits(&self) -> bool {
        self.kind == EvictionPolicy::Clock
    }

    /// Eviction removed bytes of `file` from `tier` (whole block or split).
    /// 2Q records ghosts of files reclaimed from its probationary tier.
    pub fn on_evict(&mut self, file: &FileId, tier: usize) {
        if self.kind == EvictionPolicy::TwoQ && tier == 0 {
            self.remember(file);
        }
    }

    // ---- File hooks (file-granular mechanism) ----

    /// A file (re-)entered the cache: classify it. 2Q turns a ghost hit
    /// into a hot admission; MGLRU stamps the current generation.
    pub fn file_admit(&mut self, file: &FileId, meta: &mut FileMeta) {
        match self.kind {
            EvictionPolicy::TwoList | EvictionPolicy::Clock => {}
            EvictionPolicy::TwoQ => {
                if self.ghost_hit(file) {
                    meta.hot = true;
                }
            }
            EvictionPolicy::MglruGen => meta.gen = self.stamp(),
        }
    }

    /// A resident file was accessed again (a cache hit / `touch`).
    pub fn file_touch(&mut self, meta: &mut FileMeta) {
        match self.kind {
            EvictionPolicy::TwoList => {}
            EvictionPolicy::Clock => meta.referenced = true,
            EvictionPolicy::TwoQ => meta.hot = true,
            EvictionPolicy::MglruGen => meta.gen = self.stamp(),
        }
    }

    /// Victim-ordering prefix: eviction orders candidate files by
    /// `(rank, last_access, name)`, lowest rank first. Rank 0 for every
    /// file is pure LRU order.
    pub fn file_rank(&self, meta: &FileMeta) -> u32 {
        match self.kind {
            EvictionPolicy::TwoList | EvictionPolicy::Clock => 0,
            // Cold (A1in) files are reclaimed entirely before any hot (Am)
            // file.
            EvictionPolicy::TwoQ => meta.hot as u32,
            // Older generation stamps are reclaimed first.
            EvictionPolicy::MglruGen => meta.gen,
        }
    }

    /// Whether this file gets a second chance this reclaim pass (CLOCK:
    /// clears the reference bit and returns `true` once).
    pub fn file_second_chance(&self, meta: &mut FileMeta) -> bool {
        self.kind == EvictionPolicy::Clock && std::mem::take(&mut meta.referenced)
    }

    /// A file's pages were fully reclaimed (2Q ghost bookkeeping).
    pub fn file_on_evict(&mut self, file: &FileId, meta: &FileMeta) {
        if self.kind == EvictionPolicy::TwoQ && !meta.hot {
            self.remember(file);
        }
    }

    // ---- Policy state ----

    /// 2Q: consumes `file`'s ghost entry, if any.
    fn ghost_hit(&mut self, file: &FileId) -> bool {
        if let Some(pos) = self.ghosts.iter().position(|g| g == file) {
            self.ghosts.remove(pos);
            true
        } else {
            false
        }
    }

    /// 2Q: remembers `file` in the bounded ghost FIFO.
    fn remember(&mut self, file: &FileId) {
        if self.ghosts.iter().any(|g| g == file) {
            return;
        }
        self.ghosts.push_back(file.clone());
        while self.ghosts.len() > TWO_Q_GHOSTS {
            self.ghosts.pop_front();
        }
    }

    /// MGLRU: rotates the ring past drained leading generations (at most a
    /// full cycle), so reclaim-first always points at data when any exists.
    fn age(&mut self, tier_bytes: &[f64; MAX_TIERS]) {
        for _ in 0..MAX_TIERS - 1 {
            if tier_bytes[self.oldest] > EPSILON {
                break;
            }
            if tier_bytes.iter().all(|&b| b <= EPSILON) {
                break;
            }
            self.oldest = (self.oldest + 1) % MAX_TIERS;
        }
    }

    /// MGLRU: stamps one file access, advancing the generation counter
    /// every [`MGLRU_AGE_PERIOD`] accesses.
    fn stamp(&mut self) -> u32 {
        self.touches = self.touches.wrapping_add(1);
        if self.touches.is_multiple_of(MGLRU_AGE_PERIOD) {
            self.current_gen = self.current_gen.saturating_add(1);
        }
        self.current_gen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        for p in EvictionPolicy::ALL {
            assert_eq!(p.as_str().parse::<EvictionPolicy>().unwrap(), p);
            assert_eq!(p.to_string(), p.as_str());
            assert_eq!(p.build().kind(), p);
        }
        assert_eq!(
            "2q".parse::<EvictionPolicy>().unwrap(),
            EvictionPolicy::TwoQ
        );
        assert!("nonsense".parse::<EvictionPolicy>().is_err());
        assert_eq!(EvictionPolicy::default(), EvictionPolicy::TwoList);
    }

    /// Pins every policy's answers directly, so a changed answer fails here
    /// even though the differential tests (which drive mechanism and
    /// reference with the same policy) would both accept it.
    #[test]
    fn every_policy_answers_its_documented_decisions() {
        struct Expect {
            kind: EvictionPolicy,
            insert: usize,
            promote: usize,
            evictable: [bool; MAX_TIERS],
            reference_bits: bool,
            /// `file_rank` of a cold, a hot and a generation-7 file.
            ranks: [u32; 3],
            /// `file_second_chance` of a cold file, then of a touched file.
            second_chance: [bool; 2],
            /// Whether a probationary eviction leaves a ghost that routes
            /// the file's next insert to tier 1.
            ghost_round_trip: bool,
        }
        let table = [
            Expect {
                kind: EvictionPolicy::TwoList,
                insert: 0,
                promote: 1,
                evictable: [true, false, false, false],
                reference_bits: false,
                ranks: [0, 0, 0],
                second_chance: [false, false],
                ghost_round_trip: false,
            },
            Expect {
                kind: EvictionPolicy::Clock,
                insert: 0,
                promote: 0,
                evictable: [true, false, false, false],
                reference_bits: true,
                ranks: [0, 0, 0],
                second_chance: [false, true],
                ghost_round_trip: false,
            },
            Expect {
                kind: EvictionPolicy::TwoQ,
                insert: 0,
                promote: 1,
                evictable: [true, true, false, false],
                reference_bits: false,
                ranks: [0, 1, 0],
                second_chance: [false, false],
                ghost_round_trip: true,
            },
            Expect {
                kind: EvictionPolicy::MglruGen,
                insert: 2,
                promote: 3,
                evictable: [true; MAX_TIERS],
                reference_bits: false,
                ranks: [0, 0, 7],
                second_chance: [false, false],
                ghost_round_trip: false,
            },
        ];
        let zero = [0.0; MAX_TIERS];
        let f: FileId = "f".into();
        for e in table {
            let kind = e.kind;
            let mut p = kind.build();
            assert_eq!(p.insert_tier(&f, &zero), e.insert, "{kind} insert");
            assert_eq!(p.promote_tier(&zero), e.promote, "{kind} promote");
            assert_eq!(p.tier_order(), [0, 1, 2, 3], "{kind} order");
            assert_eq!(p.evictable_tiers(), e.evictable, "{kind} evictable");
            assert_eq!(p.uses_reference_bits(), e.reference_bits, "{kind} bits");

            let cold = FileMeta::default();
            let hot = FileMeta { hot: true, ..cold };
            let stamped = FileMeta { gen: 7, ..cold };
            let ranks = [cold, hot, stamped].map(|m| p.file_rank(&m));
            assert_eq!(ranks, e.ranks, "{kind} ranks");

            let mut meta = FileMeta::default();
            let before = p.file_second_chance(&mut meta);
            p.file_touch(&mut meta);
            let after = p.file_second_chance(&mut meta);
            assert_eq!([before, after], e.second_chance, "{kind} second chance");
            assert!(!meta.referenced, "{kind} leaves the bit cleared");

            let mut p = kind.build();
            p.on_evict(&f, 0);
            let routed = p.insert_tier(&f, &zero) == 1;
            assert_eq!(routed, e.ghost_round_trip, "{kind} block ghost");
            let mut p = kind.build();
            p.file_on_evict(&f, &FileMeta::default());
            let mut meta = FileMeta::default();
            p.file_admit(&f, &mut meta);
            assert_eq!(meta.hot, e.ghost_round_trip, "{kind} file ghost");
        }
    }

    #[test]
    fn two_list_reproduces_historical_answers() {
        let mut p = EvictionPolicy::TwoList.build();
        let zero = [0.0; MAX_TIERS];
        assert_eq!(p.insert_tier(&"f".into(), &zero), 0);
        assert_eq!(p.promote_tier(&zero), 1);
        assert_eq!(p.evictable_tiers(), [true, false, false, false]);
        assert!(!p.uses_reference_bits());
        // The 2x demotion rule, byte for byte.
        assert_eq!(
            p.demotion(&[10.0, 21.0, 0.0, 0.0], &[1, 1, 0, 0]),
            Some((1, 0))
        );
        assert_eq!(p.demotion(&[10.0, 20.0, 0.0, 0.0], &[1, 1, 0, 0]), None);
        assert_eq!(p.demotion(&[0.0, 100.0, 0.0, 0.0], &[0, 0, 0, 0]), None);
        assert_eq!(p.file_rank(&FileMeta::default()), 0);
        // No other policy demotes.
        for kind in [
            EvictionPolicy::Clock,
            EvictionPolicy::TwoQ,
            EvictionPolicy::MglruGen,
        ] {
            let p = kind.build();
            assert_eq!(p.demotion(&[10.0, 21.0, 0.0, 0.0], &[1, 1, 0, 0]), None);
        }
    }

    #[test]
    fn two_q_ghost_routes_to_main_list() {
        let mut p = EvictionPolicy::TwoQ.build();
        let zero = [0.0; MAX_TIERS];
        let f: FileId = "f".into();
        assert_eq!(p.insert_tier(&f, &zero), 0);
        p.on_evict(&f, 0);
        // The ghost hit consumes the ghost entry.
        assert_eq!(p.insert_tier(&f, &zero), 1);
        assert_eq!(p.insert_tier(&f, &zero), 0);
        // Evictions from Am leave no ghost.
        p.on_evict(&f, 1);
        assert_eq!(p.insert_tier(&f, &zero), 0);
    }

    #[test]
    fn two_q_ghost_fifo_is_bounded() {
        let mut p = EvictionPolicy::TwoQ.build();
        for i in 0..2 * TWO_Q_GHOSTS {
            p.on_evict(&FileId::new(format!("f{i}")), 0);
        }
        assert_eq!(p.ghosts.len(), TWO_Q_GHOSTS);
        // The oldest half was forgotten.
        let zero = [0.0; MAX_TIERS];
        assert_eq!(p.insert_tier(&"f0".into(), &zero), 0);
        assert_eq!(
            p.insert_tier(&FileId::new(format!("f{}", 2 * TWO_Q_GHOSTS - 1)), &zero),
            1
        );
    }

    #[test]
    fn clock_second_chance_clears_the_bit() {
        let mut p = EvictionPolicy::Clock.build();
        let mut meta = FileMeta::default();
        assert!(!p.file_second_chance(&mut meta));
        p.file_touch(&mut meta);
        assert!(meta.referenced);
        assert!(p.file_second_chance(&mut meta));
        assert!(!meta.referenced);
        assert!(!p.file_second_chance(&mut meta));
    }

    #[test]
    fn mglru_ring_rotates_when_oldest_drains() {
        let mut p = EvictionPolicy::MglruGen.build();
        assert_eq!(p.tier_order(), [0, 1, 2, 3]);
        // Data only in tier 2 (the insert gen): the ring ages until the
        // oldest generation points at it.
        let bytes = [0.0, 0.0, 10.0, 0.0];
        assert_eq!(p.insert_tier(&"f".into(), &bytes), (2 + 2) % 4);
        assert_eq!(p.tier_order(), [2, 3, 0, 1]);
        // An empty cache does not spin the ring.
        let mut fresh = EvictionPolicy::MglruGen.build();
        fresh.age(&[0.0; MAX_TIERS]);
        assert_eq!(fresh.oldest, 0);
    }

    #[test]
    fn mglru_generation_counter_advances() {
        let mut p = EvictionPolicy::MglruGen.build();
        let mut meta = FileMeta::default();
        for _ in 0..MGLRU_AGE_PERIOD {
            p.file_touch(&mut meta);
        }
        assert_eq!(meta.gen, 1);
        assert_eq!(p.file_rank(&meta), 1);
    }
}
