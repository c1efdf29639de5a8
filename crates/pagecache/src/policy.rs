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
//! | [`EvictionPolicy::TwoQ`] | 2Q (A1in / A1out ghosts / Am) |
//!
//! # The tier abstraction (block-granular mechanism)
//!
//! `pagecache::lru` keeps [`MAX_TIERS`] physical lists ("tiers"), each an
//! intrusive recency chain with incremental aggregates, scanned
//! reclaim-first tier 0 first. A re-accessed block always moves to
//! [`ACTIVE_TIER`]; the policy decides everything else tier-shaped:
//!
//! * [`Policy::insert_tier`] — where a first-touch block lands (2Q routes
//!   ghost-hit files straight to Am);
//! * [`Policy::evictable_tiers`] — which tiers eviction may reclaim from
//!   (the 2-list policy protects its active tier);
//! * [`Policy::demotion`] — the rebalance rule (the 2-list policy's "active
//!   at most twice the inactive" demotion loop);
//! * [`Policy::on_evict`] — 2Q's ghost bookkeeping.
//!
//! # File-granular hooks (kernel emulator mechanism)
//!
//! The emulator tracks occupancy per *file*, so the policy also answers
//! file-level hooks operating on a per-file [`FileMeta`] (the 2Q hot flag)
//! stored by the mechanism: [`Policy::file_admit`], [`Policy::file_touch`],
//! [`Policy::file_rank`] (a victim-ordering prefix — the mechanism orders
//! candidates by `(rank, last_access, name)`) and [`Policy::file_on_evict`].
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

/// Number of physical tiers (lists) the policies use.
pub const MAX_TIERS: usize = 2;

/// Tier a re-accessed block moves to under every policy: the 2-list
/// policy's active list, 2Q's main queue (Am).
pub const ACTIVE_TIER: usize = 1;

/// Capacity of the 2Q ghost FIFO (A1out), in distinct files.
const TWO_Q_GHOSTS: usize = 64;

/// The selectable eviction policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionPolicy {
    /// The kernel's classic active/inactive 2-list policy (paper §III-A-1).
    /// The default; its predictions are pinned by the frozen goldens.
    #[default]
    TwoList,
    /// 2Q: a probationary FIFO (A1in), a ghost FIFO of recently evicted
    /// files (A1out) and a protected main list (Am).
    TwoQ,
}

impl EvictionPolicy {
    /// All policies, in canonical (sweep/bench) order.
    pub const ALL: [EvictionPolicy; 2] = [EvictionPolicy::TwoList, EvictionPolicy::TwoQ];

    /// Canonical config-string name of the policy.
    pub fn as_str(&self) -> &'static str {
        match self {
            EvictionPolicy::TwoList => "two_list",
            EvictionPolicy::TwoQ => "two_q",
        }
    }

    /// Instantiates the policy's decision state.
    pub fn build(self) -> Policy {
        Policy {
            kind: self,
            ghosts: VecDeque::new(),
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
            "two_q" | "twoq" | "2q" => Ok(EvictionPolicy::TwoQ),
            other => Err(format!(
                "unknown eviction policy {other:?} (expected two_list or two_q)"
            )),
        }
    }
}

/// Per-file policy metadata stored by file-granular mechanisms (the kernel
/// emulator). The mechanism owns the storage; the policy owns the meaning.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FileMeta {
    /// 2Q hot flag: the file re-entered the cache after a ghost hit, or was
    /// re-accessed while resident (Am membership).
    pub hot: bool,
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
/// * **2Q:** tier 0 is the probationary A1in FIFO, tier 1 the protected main
///   list Am, and `ghosts` the A1out FIFO remembering recently reclaimed
///   probationary files. A first-touch block of a ghost file is admitted
///   straight to Am; reclaim drains A1in before touching Am.
#[derive(Debug, Clone)]
pub struct Policy {
    kind: EvictionPolicy,
    /// 2Q's A1out ghost FIFO (empty under 2-list).
    ghosts: VecDeque<FileId>,
}

impl Policy {
    /// The named policy this state implements.
    pub fn kind(&self) -> EvictionPolicy {
        self.kind
    }

    // ---- Tier hooks (block-granular mechanism) ----

    /// Tier a newly inserted (first-touch) block of `file` joins (2Q
    /// consults its ghost FIFO).
    pub fn insert_tier(&mut self, file: &FileId) -> usize {
        match self.kind {
            EvictionPolicy::TwoList => 0,
            // An A1out hit earned the main list; a cold first touch is
            // probationary.
            EvictionPolicy::TwoQ => self.ghost_hit(file) as usize,
        }
    }

    /// Which tiers eviction may reclaim clean blocks from. Static per
    /// policy.
    pub fn evictable_tiers(&self) -> [bool; MAX_TIERS] {
        match self.kind {
            EvictionPolicy::TwoList => [true, false],
            // Both queues are reclaimable; the scan order drains A1in first.
            EvictionPolicy::TwoQ => [true, true],
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

    /// Eviction removed bytes of `file` from `tier` (whole block or split).
    /// 2Q records ghosts of files reclaimed from its probationary tier.
    pub fn on_evict(&mut self, file: &FileId, tier: usize) {
        if self.kind == EvictionPolicy::TwoQ && tier == 0 {
            self.remember(file);
        }
    }

    // ---- File hooks (file-granular mechanism) ----

    /// A file (re-)entered the cache: classify it. 2Q turns a ghost hit
    /// into a hot admission.
    pub fn file_admit(&mut self, file: &FileId, meta: &mut FileMeta) {
        if self.kind == EvictionPolicy::TwoQ && self.ghost_hit(file) {
            meta.hot = true;
        }
    }

    /// A resident file was accessed again (a cache hit / `touch`).
    pub fn file_touch(&self, meta: &mut FileMeta) {
        if self.kind == EvictionPolicy::TwoQ {
            meta.hot = true;
        }
    }

    /// Victim-ordering prefix: eviction orders candidate files by
    /// `(rank, last_access, name)`, lowest rank first. Rank 0 for every
    /// file is pure LRU order.
    pub fn file_rank(&self, meta: &FileMeta) -> u32 {
        match self.kind {
            EvictionPolicy::TwoList => 0,
            // Cold (A1in) files are reclaimed entirely before any hot (Am)
            // file.
            EvictionPolicy::TwoQ => meta.hot as u32,
        }
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
            evictable: [bool; MAX_TIERS],
            /// `file_rank` of a cold and a hot file.
            ranks: [u32; 2],
            /// Whether a probationary eviction leaves a ghost that routes
            /// the file's next insert to tier 1.
            ghost_round_trip: bool,
        }
        let table = [
            Expect {
                kind: EvictionPolicy::TwoList,
                insert: 0,
                evictable: [true, false],
                ranks: [0, 0],
                ghost_round_trip: false,
            },
            Expect {
                kind: EvictionPolicy::TwoQ,
                insert: 0,
                evictable: [true, true],
                ranks: [0, 1],
                ghost_round_trip: true,
            },
        ];
        let f: FileId = "f".into();
        for e in table {
            let kind = e.kind;
            let mut p = kind.build();
            assert_eq!(p.insert_tier(&f), e.insert, "{kind} insert");
            assert_eq!(p.evictable_tiers(), e.evictable, "{kind} evictable");

            let cold = FileMeta::default();
            let hot = FileMeta { hot: true };
            let ranks = [cold, hot].map(|m| p.file_rank(&m));
            assert_eq!(ranks, e.ranks, "{kind} ranks");

            let mut p = kind.build();
            p.on_evict(&f, 0);
            let routed = p.insert_tier(&f) == 1;
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
        assert_eq!(p.insert_tier(&"f".into()), 0);
        assert_eq!(p.evictable_tiers(), [true, false]);
        // The 2x demotion rule, byte for byte.
        assert_eq!(p.demotion(&[10.0, 21.0], &[1, 1]), Some((1, 0)));
        assert_eq!(p.demotion(&[10.0, 20.0], &[1, 1]), None);
        assert_eq!(p.demotion(&[0.0, 100.0], &[0, 0]), None);
        assert_eq!(p.file_rank(&FileMeta::default()), 0);
        // 2Q does not demote.
        let p = EvictionPolicy::TwoQ.build();
        assert_eq!(p.demotion(&[10.0, 21.0], &[1, 1]), None);
    }

    #[test]
    fn two_q_ghost_routes_to_main_list() {
        let mut p = EvictionPolicy::TwoQ.build();
        let f: FileId = "f".into();
        assert_eq!(p.insert_tier(&f), 0);
        p.on_evict(&f, 0);
        // The ghost hit consumes the ghost entry.
        assert_eq!(p.insert_tier(&f), 1);
        assert_eq!(p.insert_tier(&f), 0);
        // Evictions from Am leave no ghost.
        p.on_evict(&f, 1);
        assert_eq!(p.insert_tier(&f), 0);
    }

    #[test]
    fn two_q_ghost_fifo_is_bounded() {
        let mut p = EvictionPolicy::TwoQ.build();
        for i in 0..2 * TWO_Q_GHOSTS {
            p.on_evict(&FileId::new(format!("f{i}")), 0);
        }
        assert_eq!(p.ghosts.len(), TWO_Q_GHOSTS);
        // The oldest half was forgotten.
        assert_eq!(p.insert_tier(&"f0".into()), 0);
        assert_eq!(
            p.insert_tier(&FileId::new(format!("f{}", 2 * TWO_Q_GHOSTS - 1))),
            1
        );
    }
}
