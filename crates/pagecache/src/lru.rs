//! The LRU list structure used by the simulation model (paper §III-A-1),
//! built on a slab arena of [`DataBlock`] nodes threaded by intrusive
//! doubly-linked chains (Linux `list_head`-style).
//!
//! # Mechanism vs. policy
//!
//! This module is pure *mechanism*: [`MAX_TIERS`] lists ("tiers") of
//! blocks, each ordered by last access time (earliest first, so the least
//! recently used data is always at the front), with O(1) incremental byte
//! aggregates and O(1) intrusive re-linking. Which tier a block joins on
//! first touch, which tiers eviction may reclaim from, and when blocks
//! demote between tiers are *policy* decisions, delegated to a [`Policy`]
//! value (see [`crate::policy`]); a re-accessed block always moves to
//! [`ACTIVE_TIER`].
//!
//! Under the default [`EvictionPolicy::TwoList`] policy this reproduces the
//! kernel behaviour the paper models bit-for-bit: tier 0 is the *inactive*
//! list (accessed once), tier 1 the *active* list (accessed more than once),
//! and the active list is kept at most twice the size of the inactive list
//! by demoting its least recently used blocks. 2Q reuses the same chains
//! and aggregates with different decisions: tiers 0/1 are A1in/Am, with a
//! ghost FIFO of recently reclaimed files.
//!
//! Which files a reclaim call may touch is a third, orthogonal input: a
//! [`ReclaimScope`] is either the whole host (optionally excluding one
//! file) or one cache group (a memcg-style tenant). [`LruLists::evict`] and
//! [`LruLists::flush_lru`] run the same loops for both, so a tenant's
//! reclaim gets the policy's decisions unchanged.
//!
//! # Why intrusive chains
//!
//! The previous implementation stored each list in a `VecDeque<DataBlock>`.
//! That made the byte *aggregates* O(1) (incremental counters, PR 1) but left
//! the list *operations* linear: reading one file's cached data walked every
//! block of every file, each `VecDeque::remove`/`insert` shifted O(n)
//! elements, and flushing scanned past clean blocks hunting for dirty
//! candidates. Interleaved multi-file workloads (`nfs_cluster`,
//! `concurrent_instances`) therefore degraded toward O(n²).
//!
//! Here every block lives in one slab **arena** slot and carries three pairs
//! of intrusive links, so its neighbors in every dimension are reachable in
//! O(1):
//!
//! * the **recency chain** of its list (inactive or active) — the classic LRU
//!   order, earliest `last_access` first;
//! * the **per-file chain** of its `(file, list)` pair — the same recency
//!   order restricted to one file's blocks;
//! * the **clean chain** or the **dirty chain** of its list — the same
//!   recency order restricted to clean or to dirty blocks. A block is on
//!   exactly one of the two, so they share one link pair.
//!
//! Every chain is a subsequence of its list's recency chain, ties included,
//! so traversing a per-file, clean or dirty chain visits exactly the blocks
//! a full scan would have selected, in the same order — behaviour is
//! preserved, only the skipped work disappears. A block that turns clean in
//! place (a flush) is therefore linked into the clean chain right after its
//! nearest clean predecessor in recency order, not by timestamp.
//!
//! A block moves between lists by relinking its node: it is unlinked from
//! its chains and linked into the target tier's, and keeps its arena slot.
//! A read promotes each dirty block this way, and the first clean node it
//! takes becomes the merged clean block; a demotion moves the active head.
//! Only a split (a partial read, flush or eviction) allocates a node, and
//! only a merge or a removal frees one, so a warm re-read of whole blocks
//! allocates and frees nothing.
//!
//! # Complexity
//!
//! | operation | `VecDeque` lists | arena + chains |
//! |---|---|---|
//! | `add_clean` / `add_dirty` | O(1) append | O(1) append |
//! | `read_cached` (file with k blocks) | O(n) scan + O(n) shifts | O(k) relinks, no allocation for whole blocks |
//! | `flush_lru` (d dirty blocks touched) | O(n) scan | O(d) |
//! | `evict` (e blocks removed) | O(n) shifts | O(e + out-of-scope clean blocks) |
//! | `flush_expired` (d dirty blocks) | O(n) scan | O(d) |
//! | `invalidate_file` (k blocks) | O(n) scan | O(k) |
//! | `balance` (per demotion) | O(1) decide + O(n) shift | O(1) decide + amortised O(1) relink |
//! | byte aggregates | O(1) | O(1) |
//!
//! Eviction walks the clean chains only, so dirty data that piles up at the
//! head of the inactive list (it has not expired yet) is never stepped over.
//! A demotion is the one out-of-order insertion: the demoted block is older
//! than the newest blocks of its target list. `insert_sorted` walks the
//! target chain from both ends alternately, and the front cursor starts at
//! the chain's **finger**, the node of its previous out-of-order insert,
//! whenever that node is no later than the new one. Demotions come from the
//! head of a sorted list, so their timestamps rarely decrease and each walk
//! resumes where the last one ended. When a finger's node leaves the chain,
//! the finger moves to its predecessor. Turning a block clean in place steps
//! back over the dirty blocks right before it to find its clean
//! predecessor. [`LruLists::work`] counts the blocks eviction and flushing
//! visited and the steps sorted inserts walked.
//!
//! The per-file calls take the file's slot key, which the caller resolved
//! once at the entry of its op ([`LruLists::key_or_insert`], or the size
//! lookup of the Memory Manager), and a [`ReclaimScope::Host`] exclusion is
//! a key too. Every block step — aggregate updates, chain links, merges,
//! the demotions of [`LruLists::balance`], scope checks — indexes the file
//! slot stored in the node, so no step hashes a name. (A grouped file's
//! group byte counters are still found by group id.) The slots, the name
//! index and the group totals are a [`FileTable`], the same table the
//! kernel emulator keeps its per-file state in. It is also the host's file
//! namespace: each slot holds its file's size.
//!
//! To bound arena growth on flush-heavy workloads, recency-adjacent blocks
//! of the same file on an **evictable** tier that are both clean and *share
//! the same last access time* are coalesced opportunistically (after an
//! insert, a demotion, or a flush that turns a block clean) — this is the
//! shape a partial flush produces: a clean split head next to its
//! remainder, fragment after fragment at one timestamp.
//! Equal timestamps make the merge provably order-neutral (no later
//! out-of-order insertion can land between the merged bytes), so every
//! byte-level observable — aggregates, flush/evict/read amounts, eviction
//! order — is unchanged; only the block granularity coarsens. Blocks on
//! policy-protected tiers (the 2-list active list) are never coalesced
//! because [`LruLists::balance`] demotes whole blocks, and merging would
//! coarsen the demotion granularity (a behaviour change).
//!
//! # Invariants
//!
//! * Structure: every chain is doubly linked and consistent with its
//!   head/tail, and its finger is `NIL` or one of its own nodes; the clean,
//!   dirty and per-file chains are exactly the recency chain filtered by
//!   dirtiness / file; recency chains are sorted by `last_access`.
//! * File table: per-file state lives in the slots of a [`FileTable`], and
//!   each node stores its file's slot key. The table's name index and
//!   slots are inverse maps ([`FileTable::check`]), and every node's slot
//!   names its block's file. A slot lives as long as its file, so it
//!   outlives its blocks: a slot without blocks has empty chains and
//!   exactly zero bytes.
//! * Aggregates: for each tier, `agg.bytes` / `agg.dirty` equal the sum of
//!   sizes / dirty sizes of its blocks; for each file, `FileBytes { cached,
//!   dirty, inactive_bytes, inactive_clean, blocks }` equal the same sums
//!   restricted to that file (`inactive_*` counting the policy's evictable
//!   tiers, and `blocks` its exact block count, which zeroes the counters
//!   of a slot whose last block leaves);
//!   for each cache group, the table's totals equal the sums of the
//!   per-file `cached` and `dirty` over the slots that carry that group.
//!
//! In debug builds every public mutator re-derives all counters from a full
//! scan (the `recompute_*` oracles), validates the chain structure and the
//! file table, and `debug_assert!`s agreement, so the O(1) readers and O(k)
//! walks can never silently drift from the scan-based truth.
//!
//! All byte amounts are `f64`; a small epsilon absorbs floating-point dust
//! when blocks are split by partial reads, flushes and evictions.

use std::collections::{BTreeMap, HashMap};

use des::SimTime;

use crate::block::{DataBlock, FileId};
use crate::file_table::{FileTable, ReclaimScope};
use crate::host::CacheState;
use crate::policy::{EvictionPolicy, Policy, ACTIVE_TIER, MAX_TIERS};
use crate::stats::CacheWork;

/// Bytes below which two amounts are considered equal.
pub const EPSILON: f64 = 1e-6;

/// Index of a node in the arena. `NIL` marks the end of a chain.
type Idx = u32;
const NIL: Idx = u32::MAX;

/// The three intrusive link dimensions of a node. A block is on exactly one
/// of its tier's clean and dirty chains, so both share the [`STATE`] slot.
const RECENCY: usize = 0;
const FILE: usize = 1;
const STATE: usize = 2;

/// The two classic LRU lists of the default 2-list policy, kept for API
/// compatibility. Internally blocks live on numbered tiers; under
/// [`EvictionPolicy::TwoList`] tier 0 is [`ListKind::Inactive`] and tier 1
/// [`ListKind::Active`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListKind {
    /// The inactive list (data accessed once, candidates for eviction).
    Inactive,
    /// The active list (data accessed more than once, protected).
    Active,
}

/// One prev/next pair of an intrusive chain.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: Idx,
    next: Idx,
}

const UNLINKED: Link = Link {
    prev: NIL,
    next: NIL,
};

/// Endpoints of one intrusive chain, plus the finger [`insert_sorted`]
/// resumes from.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: Idx,
    tail: Idx,
    /// The node of this chain's last out-of-order insert, or `NIL`.
    /// [`unlink`] moves it to its predecessor, so it never dangles.
    finger: Idx,
}

impl Default for Chain {
    fn default() -> Self {
        Chain {
            head: NIL,
            tail: NIL,
            finger: NIL,
        }
    }
}

impl Chain {
    fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

/// One arena slot: either a live block node or a free-list entry.
#[derive(Debug, Clone)]
enum Slot {
    Occupied(Node),
    Vacant { next_free: Idx },
}

/// A cached data block plus its intrusive links.
#[derive(Debug, Clone)]
struct Node {
    block: DataBlock,
    /// The tier (list) this block resides on. A `u8` keeps the node at 88
    /// bytes next to its 64-bit file key.
    tier: u8,
    /// The file-table key of the block's file.
    file_slot: u64,
    /// Links indexed by [`RECENCY`], [`FILE`], [`STATE`].
    links: [Link; 3],
}

fn node_ref(arena: &[Slot], i: Idx) -> &Node {
    match &arena[i as usize] {
        Slot::Occupied(n) => n,
        Slot::Vacant { .. } => panic!("chain references vacant arena slot {i}"),
    }
}

fn node_mut(arena: &mut [Slot], i: Idx) -> &mut Node {
    match &mut arena[i as usize] {
        Slot::Occupied(n) => n,
        Slot::Vacant { .. } => panic!("chain references vacant arena slot {i}"),
    }
}

/// Unlinks node `i` from `chain` along link dimension `lk`. A finger on
/// `i` moves to its predecessor, which is no later than `i`.
fn unlink(arena: &mut [Slot], chain: &mut Chain, lk: usize, i: Idx) {
    let Link { prev, next } = node_ref(arena, i).links[lk];
    if chain.finger == i {
        chain.finger = prev;
    }
    if prev != NIL {
        node_mut(arena, prev).links[lk].next = next;
    } else {
        chain.head = next;
    }
    if next != NIL {
        node_mut(arena, next).links[lk].prev = prev;
    } else {
        chain.tail = prev;
    }
    node_mut(arena, i).links[lk] = UNLINKED;
}

/// Inserts node `i` into `chain` directly before `anchor` (at the tail when
/// `anchor` is `NIL`).
fn insert_before(arena: &mut [Slot], chain: &mut Chain, lk: usize, anchor: Idx, i: Idx) {
    if anchor == NIL {
        let old_tail = chain.tail;
        node_mut(arena, i).links[lk] = Link {
            prev: old_tail,
            next: NIL,
        };
        if old_tail != NIL {
            node_mut(arena, old_tail).links[lk].next = i;
        } else {
            chain.head = i;
        }
        chain.tail = i;
    } else {
        let prev = node_ref(arena, anchor).links[lk].prev;
        node_mut(arena, i).links[lk] = Link { prev, next: anchor };
        node_mut(arena, anchor).links[lk].prev = i;
        if prev != NIL {
            node_mut(arena, prev).links[lk].next = i;
        } else {
            chain.head = i;
        }
    }
}

/// Inserts node `i` keeping `chain` sorted by `last_access`, after any
/// existing nodes with the same timestamp (the same tie rule as
/// `partition_point` in the `VecDeque` implementation), and returns the
/// number of walk steps it took. O(1) for the common append case
/// (monotonic simulated time). An out-of-order insert (a demotion) walks
/// from both ends alternately; the front cursor starts at the chain's
/// finger when the finger is no later than `i`, since every node before
/// it is then no later either. Demotions come from the head of a sorted
/// tier, so their timestamps rarely decrease and the walk is amortised
/// O(1). The position is the same wherever the walk starts.
fn insert_sorted(arena: &mut [Slot], chain: &mut Chain, lk: usize, i: Idx) -> u64 {
    let la = node_ref(arena, i).block.last_access;
    if chain.tail == NIL || node_ref(arena, chain.tail).block.last_access <= la {
        insert_before(arena, chain, lk, NIL, i);
        return 0;
    }
    // The sorted position is before the first node with a later timestamp;
    // both cursors converge on that boundary, whichever side is closer wins.
    let mut back = chain.tail; // invariant: back's timestamp > la
    let mut front = chain.head; // invariant: every node before front is <= la
    if chain.finger != NIL && node_ref(arena, chain.finger).block.last_access <= la {
        front = chain.finger;
    }
    let mut steps = 0;
    let anchor = loop {
        steps += 1;
        let prev = node_ref(arena, back).links[lk].prev;
        if prev == NIL || node_ref(arena, prev).block.last_access <= la {
            break back;
        }
        back = prev;
        if node_ref(arena, front).block.last_access > la {
            break front;
        }
        front = node_ref(arena, front).links[lk].next;
    };
    insert_before(arena, chain, lk, anchor, i);
    chain.finger = i;
    steps
}

/// Incrementally maintained byte totals of one list.
#[derive(Debug, Default, Clone, Copy)]
struct ListAgg {
    /// Sum of the sizes of all blocks on the list.
    bytes: f64,
    /// Sum of the sizes of the dirty blocks on the list.
    dirty: f64,
}

impl ListAgg {
    fn add(&mut self, size: f64, dirty: bool) {
        self.bytes += size;
        if dirty {
            self.dirty += size;
        }
    }

    fn sub(&mut self, size: f64, dirty: bool) {
        self.bytes = (self.bytes - size).max(0.0);
        if dirty {
            self.dirty = (self.dirty - size).max(0.0);
        }
    }
}

/// Incrementally maintained byte totals of one file.
#[derive(Debug, Default, Clone, Copy)]
struct FileBytes {
    /// Cached bytes of the file (all tiers, clean + dirty).
    cached: f64,
    /// Dirty bytes of the file (all tiers).
    dirty: f64,
    /// Bytes of the file on the policy's evictable tiers (clean + dirty);
    /// the inactive list under the default 2-list policy.
    inactive_bytes: f64,
    /// Clean bytes of the file on the evictable tiers (its evictable share).
    inactive_clean: f64,
    /// Exact number of blocks of the file across all tiers. Used to restart
    /// the byte counters from exact zero when the last block leaves,
    /// without relying on float comparisons.
    blocks: usize,
}

/// Per-tier state: the recency, clean and dirty chains plus the byte
/// aggregates.
#[derive(Debug, Default, Clone)]
struct ListState {
    recency: Chain,
    clean: Chain,
    dirty: Chain,
    len: usize,
    agg: ListAgg,
}

impl ListState {
    /// The clean or the dirty chain, whichever a block of that dirtiness is
    /// linked into along [`STATE`].
    fn state_chain(&mut self, dirty: bool) -> &mut Chain {
        if dirty {
            &mut self.dirty
        } else {
            &mut self.clean
        }
    }
}

/// A file's state in the file table: its byte aggregates and per-tier file
/// chains.
#[derive(Debug, Default, Clone)]
pub(crate) struct FileState {
    bytes: FileBytes,
    /// File chains indexed by tier: this file's blocks on each tier, in
    /// recency order.
    chains: [Chain; MAX_TIERS],
}

/// The LRU lists (tiers) holding all cached data blocks of one host; the
/// tier decisions are delegated to the configured [`Policy`].
#[derive(Debug, Clone)]
pub struct LruLists {
    arena: Vec<Slot>,
    free_head: Idx,
    /// Indexed by tier; under the default 2-list policy tier 0 is the
    /// inactive list and tier 1 the active list.
    lists: [ListState; MAX_TIERS],
    /// The file table: the host's file namespace (names, sizes, cache
    /// groups), one slot per file the host created or cached. The Memory
    /// Manager creates, extends and sizes files in it directly; only the
    /// lists touch the cache state in its slots.
    /// An op resolves its file's name here once; every call after that
    /// takes the slot key. Its group totals move at the same four accounting
    /// choke points as the per-file counters (`agg_insert`, `agg_remove`,
    /// `agg_clean_in_place`, `agg_shrink`).
    pub(crate) files: FileTable<FileState>,
    policy: Policy,
    work: CacheWork,
    /// The nodes [`LruLists::read_cached`] takes off the tiers, kept
    /// between calls so a read allocates no buffer.
    taken: Vec<Idx>,
}

/// The LRU lists are the page cache model's state on its host
/// ([`crate::MemoryManager`]). Every total is O(1) except
/// [`CacheState::cached_per_file`], which is O(F log F) in the number of
/// files, independent of the number of blocks.
impl CacheState for LruLists {
    fn cached(&self) -> f64 {
        self.total_cached()
    }
    fn dirty(&self) -> f64 {
        self.total_dirty()
    }
    fn cached_per_file(&self) -> BTreeMap<FileId, f64> {
        self.files
            .iter()
            .filter(|(_, _, f)| f.bytes.cached > EPSILON)
            .map(|(_, file, f)| (file.clone(), f.bytes.cached))
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
    fn evict(&mut self, amount: f64, scope: ReclaimScope) -> f64 {
        LruLists::evict(self, amount, scope)
    }
    fn write_back(&mut self, amount: f64, scope: ReclaimScope) -> f64 {
        self.flush_lru(amount, scope)
    }
}

impl Default for LruLists {
    fn default() -> Self {
        Self::with_policy(EvictionPolicy::default())
    }
}

impl LruLists {
    /// Creates an empty cache under the default 2-list policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache under the given eviction policy.
    pub fn with_policy(policy: EvictionPolicy) -> Self {
        LruLists {
            arena: Vec::new(),
            free_head: NIL,
            lists: Default::default(),
            files: FileTable::new(),
            policy: policy.build(),
            work: CacheWork::default(),
            taken: Vec::new(),
        }
    }

    /// The eviction policy this cache runs under.
    pub fn policy_kind(&self) -> EvictionPolicy {
        self.policy.kind()
    }

    /// Total number of blocks across all tiers.
    pub fn block_count(&self) -> usize {
        self.lists.iter().map(|l| l.len).sum()
    }

    /// Whether the cache holds no data at all.
    pub fn is_empty(&self) -> bool {
        self.block_count() == 0
    }

    /// Per-tier byte totals, the policy's decision input. O(1).
    fn tier_bytes(&self) -> [f64; MAX_TIERS] {
        std::array::from_fn(|t| self.lists[t].agg.bytes)
    }

    /// Per-tier block counts, the policy's decision input. O(1).
    fn tier_lens(&self) -> [usize; MAX_TIERS] {
        std::array::from_fn(|t| self.lists[t].len)
    }

    /// Total cached bytes (clean + dirty, all tiers). O(1).
    pub fn total_cached(&self) -> f64 {
        self.lists.iter().map(|l| l.agg.bytes).sum()
    }

    /// Total dirty bytes (all tiers). O(1).
    pub fn total_dirty(&self) -> f64 {
        self.lists.iter().map(|l| l.agg.dirty).sum()
    }

    /// Bytes on the policy's evictable tiers (the inactive list under the
    /// default 2-list policy). O(1).
    pub fn inactive_bytes(&self) -> f64 {
        (0..MAX_TIERS)
            .filter(|&t| self.policy.evictable_tiers()[t])
            .map(|t| self.lists[t].agg.bytes)
            .sum()
    }

    /// Bytes on the policy's protected tiers (the active list under the
    /// default 2-list policy). O(1).
    pub fn active_bytes(&self) -> f64 {
        (0..MAX_TIERS)
            .filter(|&t| !self.policy.evictable_tiers()[t])
            .map(|t| self.lists[t].agg.bytes)
            .sum()
    }

    /// The slot key of `file`, if it has a slot.
    pub fn key(&self, file: &FileId) -> Option<u64> {
        self.files.key(file)
    }

    /// The slot key of `file`, with a slot made for it if it has none (a
    /// file cached without being created here, like a client cache's copy
    /// of a remote file).
    pub fn key_or_insert(&mut self, file: &FileId) -> u64 {
        self.files.key_or_insert(file)
    }

    /// Cached bytes of slot `s`. O(1).
    pub fn cached_amount(&self, s: u64) -> f64 {
        self.files.get(s).bytes.cached
    }

    /// Dirty bytes of slot `s`. O(1).
    pub fn dirty_amount(&self, s: u64) -> f64 {
        self.files.get(s).bytes.dirty
    }

    /// Clean bytes on the evictable tiers that [`LruLists::evict`] could
    /// remove, optionally excluding the file of one slot. O(1).
    pub fn evictable(&self, excluded: Option<u64>) -> f64 {
        let total: f64 = (0..MAX_TIERS)
            .filter(|&t| self.policy.evictable_tiers()[t])
            .map(|t| (self.lists[t].agg.bytes - self.lists[t].agg.dirty).max(0.0))
            .sum();
        let excluded = excluded.map_or(0.0, |s| self.files.get(s).bytes.inactive_clean);
        (total - excluded).max(0.0)
    }

    /// Assigns `file` to cache group `group` (memcg-style tenant), or clears
    /// the assignment with `None`. Any bytes of the file already cached move
    /// between the group aggregates, so assignment order relative to I/O does
    /// not matter. The assignment itself is configuration and survives full
    /// eviction of the file.
    pub fn set_file_group(&mut self, file: FileId, group: Option<u32>) {
        self.files
            .set_group(&file, group, |f| (f.bytes.cached, f.bytes.dirty));
        self.debug_validate();
    }

    /// The cache group `file` is assigned to, if any. O(1) expected.
    pub fn file_group(&self, file: &FileId) -> Option<u32> {
        self.files.key(file).and_then(|s| self.files.group(s))
    }

    /// Iterates over all blocks, tier 0 first, LRU first within each tier.
    pub fn iter_all(&self) -> impl Iterator<Item = &DataBlock> {
        (0..MAX_TIERS).flat_map(|t| self.tier_blocks(t))
    }

    /// Blocks of tier `t`, LRU first.
    pub fn tier_blocks(&self, t: usize) -> ChainBlocks<'_> {
        ChainBlocks {
            arena: &self.arena,
            cur: self.lists[t].recency.head,
            lk: RECENCY,
        }
    }

    /// Blocks of tier 0 (the inactive list under the default 2-list policy),
    /// LRU first.
    pub fn inactive_blocks(&self) -> ChainBlocks<'_> {
        self.tier_blocks(0)
    }

    /// Blocks of tier 1 (the active list under the default 2-list policy),
    /// LRU first.
    pub fn active_blocks(&self) -> ChainBlocks<'_> {
        self.tier_blocks(1)
    }

    /// Allocates an arena slot for `node`, reusing the free list.
    fn alloc(&mut self, node: Node) -> Idx {
        if self.free_head != NIL {
            let idx = self.free_head;
            match self.arena[idx as usize] {
                Slot::Vacant { next_free } => self.free_head = next_free,
                Slot::Occupied(_) => unreachable!("free list points at occupied slot"),
            }
            self.arena[idx as usize] = Slot::Occupied(node);
            idx
        } else {
            let idx = self.arena.len() as Idx;
            assert!(idx != NIL, "arena exhausted u32 index space");
            self.arena.push(Slot::Occupied(node));
            idx
        }
    }

    /// Returns slot `i` to the free list and takes its node out.
    fn release(&mut self, i: Idx) -> Node {
        let slot = std::mem::replace(
            &mut self.arena[i as usize],
            Slot::Vacant {
                next_free: self.free_head,
            },
        );
        self.free_head = i;
        match slot {
            Slot::Occupied(n) => n,
            Slot::Vacant { .. } => panic!("released a vacant arena slot {i}"),
        }
    }

    /// Records a block of slot `s` joining `tier` in the aggregates. The
    /// counters only need its size and dirtiness; chain membership is
    /// handled separately.
    fn agg_insert(&mut self, tier: usize, s: u64, size: f64, dirty: bool) {
        self.lists[tier].agg.add(size, dirty);
        let evictable = self.policy.evictable_tiers()[tier];
        let d_dirty = if dirty { size } else { 0.0 };
        let f = &mut self.files.adjust_group(s, size, d_dirty).bytes;
        f.cached += size;
        f.blocks += 1;
        if dirty {
            f.dirty += size;
        }
        if evictable {
            f.inactive_bytes += size;
            if !dirty {
                f.inactive_clean += size;
            }
        }
    }

    /// Records a block of slot `s` leaving `tier` in the aggregates. The
    /// slot's counters restart from exact zero once its last block is gone.
    fn agg_remove(&mut self, tier: usize, s: u64, size: f64, dirty: bool) {
        self.lists[tier].agg.sub(size, dirty);
        let evictable = self.policy.evictable_tiers()[tier];
        let d_dirty = if dirty { -size } else { 0.0 };
        let entry = self.files.adjust_group(s, -size, d_dirty);
        let f = &mut entry.bytes;
        f.cached = (f.cached - size).max(0.0);
        f.blocks = f.blocks.saturating_sub(1);
        if dirty {
            f.dirty = (f.dirty - size).max(0.0);
        }
        if evictable {
            f.inactive_bytes = (f.inactive_bytes - size).max(0.0);
            if !dirty {
                f.inactive_clean = (f.inactive_clean - size).max(0.0);
            }
        }
        if f.blocks == 0 {
            debug_assert!(
                entry.chains.iter().all(|c| c.is_empty()),
                "emptied file slot with linked blocks"
            );
            entry.bytes = FileBytes::default();
        }
    }

    /// Records `amount` bytes of a dirty block of slot `s` on `tier` turning
    /// clean in place (a flush). Sizes do not change, only dirtiness.
    fn agg_clean_in_place(&mut self, tier: usize, s: u64, amount: f64) {
        let agg = &mut self.lists[tier].agg;
        agg.dirty = (agg.dirty - amount).max(0.0);
        let evictable = self.policy.evictable_tiers()[tier];
        let entry = self.files.adjust_group(s, 0.0, -amount);
        entry.bytes.dirty = (entry.bytes.dirty - amount).max(0.0);
        if evictable {
            entry.bytes.inactive_clean += amount;
        }
    }

    /// Records a block of slot `s` on `tier` shrinking by `amount` bytes in
    /// place with unchanged block count (a partial eviction or a partial
    /// take; the split head is accounted separately when it is re-inserted).
    fn agg_shrink(&mut self, tier: usize, s: u64, amount: f64, dirty: bool) {
        self.lists[tier].agg.sub(amount, dirty);
        let evictable = self.policy.evictable_tiers()[tier];
        let d_dirty = if dirty { -amount } else { 0.0 };
        let f = &mut self.files.adjust_group(s, -amount, d_dirty).bytes;
        f.cached = (f.cached - amount).max(0.0);
        if dirty {
            f.dirty = (f.dirty - amount).max(0.0);
        }
        if evictable {
            f.inactive_bytes = (f.inactive_bytes - amount).max(0.0);
            if !dirty {
                f.inactive_clean = (f.inactive_clean - amount).max(0.0);
            }
        }
    }

    /// Records one extra block of slot `s` appearing without any byte change
    /// (a block split whose both halves stay in the lists).
    fn agg_note_split(&mut self, s: u64) {
        self.files.get_mut(s).bytes.blocks += 1;
    }

    /// Inserts `block` of slot `s` as a new node on `tier`: allocates its
    /// arena slot and links it with [`LruLists::link_node`]. O(1) in the
    /// common append case.
    fn insert_node(&mut self, tier: usize, s: u64, block: DataBlock) -> Idx {
        let idx = self.alloc(Node {
            block,
            tier: tier as u8,
            file_slot: s,
            links: [UNLINKED; 3],
        });
        self.link_node(tier, idx);
        idx
    }

    /// Links unlinked node `i` onto `tier`: updates the aggregates and links
    /// it into the recency, per-file and clean or dirty chains at its sorted
    /// position. A block moving between tiers (a promotion, a demotion) is
    /// relinked with this after [`LruLists::unlink_node`], keeping its arena
    /// slot. O(1) in the common append case.
    fn link_node(&mut self, tier: usize, i: Idx) {
        let (s, size, dirty) = {
            let n = node_mut(&mut self.arena, i);
            n.tier = tier as u8;
            (n.file_slot, n.block.size, n.block.dirty)
        };
        self.agg_insert(tier, s, size, dirty);
        let list = &mut self.lists[tier];
        let mut steps = insert_sorted(&mut self.arena, &mut list.recency, RECENCY, i);
        list.len += 1;
        steps += insert_sorted(&mut self.arena, list.state_chain(dirty), STATE, i);
        let entry = self.files.get_mut(s);
        steps += insert_sorted(&mut self.arena, &mut entry.chains[tier], FILE, i);
        self.work.insert_steps += steps;
    }

    /// Inserts `block` as a new clean node on `tier` directly before `anchor`
    /// (a node of the same file) in the recency and per-file chains, and
    /// into the clean chain. Used by the flush split, where the clean head
    /// must sit right before the dirty remainder; total bytes are unchanged,
    /// so the caller adjusts the aggregates via
    /// [`LruLists::agg_clean_in_place`] + [`LruLists::agg_note_split`].
    fn insert_node_before(&mut self, tier: usize, block: DataBlock, anchor: Idx) -> Idx {
        debug_assert!(!block.dirty, "flush split head must be clean");
        let s = node_ref(&self.arena, anchor).file_slot;
        let idx = self.alloc(Node {
            block,
            tier: tier as u8,
            file_slot: s,
            links: [UNLINKED; 3],
        });
        insert_before(
            &mut self.arena,
            &mut self.lists[tier].recency,
            RECENCY,
            anchor,
            idx,
        );
        self.lists[tier].len += 1;
        let entry = self.files.get_mut(s);
        insert_before(&mut self.arena, &mut entry.chains[tier], FILE, anchor, idx);
        self.link_clean(idx);
        idx
    }

    /// Links node `i`, clean and already on its recency chain, into its
    /// tier's clean chain right after its nearest clean predecessor in
    /// recency order. Linking by timestamp would misplace it among equal
    /// timestamps: the clean chain must be exactly the clean subsequence of
    /// the recency chain, ties included.
    fn link_clean(&mut self, i: Idx) {
        let tier = node_ref(&self.arena, i).tier as usize;
        let mut prev = node_ref(&self.arena, i).links[RECENCY].prev;
        while prev != NIL && node_ref(&self.arena, prev).block.dirty {
            prev = node_ref(&self.arena, prev).links[RECENCY].prev;
        }
        let clean = &mut self.lists[tier].clean;
        let anchor = if prev == NIL {
            clean.head
        } else {
            node_ref(&self.arena, prev).links[STATE].next
        };
        insert_before(&mut self.arena, clean, STATE, anchor, i);
    }

    /// Unlinks node `i` from every chain and takes its bytes out of the
    /// aggregates, but keeps its arena slot: the caller relinks it with
    /// [`LruLists::link_node`] or frees it with [`LruLists::release`]. O(1).
    fn unlink_node(&mut self, i: Idx) {
        let (tier, s, size, dirty) = {
            let n = node_ref(&self.arena, i);
            (n.tier as usize, n.file_slot, n.block.size, n.block.dirty)
        };
        unlink(&mut self.arena, &mut self.lists[tier].recency, RECENCY, i);
        self.lists[tier].len -= 1;
        let entry = self.files.get_mut(s);
        unlink(&mut self.arena, &mut entry.chains[tier], FILE, i);
        let chain = self.lists[tier].state_chain(dirty);
        unlink(&mut self.arena, chain, STATE, i);
        self.agg_remove(tier, s, size, dirty);
    }

    /// [`LruLists::unlink_node`], then frees its arena slot. Returns the
    /// block. O(1).
    fn remove_node(&mut self, i: Idx) -> DataBlock {
        self.unlink_node(i);
        self.release(i).block
    }

    /// Turns dirty node `i` clean in place (a flush): moves it from its
    /// tier's dirty chain to the clean chain, updates the aggregates and
    /// coalesces it with its neighbours. Returns the bytes cleaned. Never
    /// frees a node other than `i` and its recency predecessor.
    fn clean_in_place(&mut self, i: Idx) -> f64 {
        let (tier, s, size) = {
            let n = node_mut(&mut self.arena, i);
            n.block.dirty = false;
            (n.tier as usize, n.file_slot, n.block.size)
        };
        unlink(&mut self.arena, &mut self.lists[tier].dirty, STATE, i);
        self.link_clean(i);
        self.agg_clean_in_place(tier, s, size);
        self.try_coalesce(i);
        size
    }

    /// Whether nodes `a` and `b` (recency-adjacent, `a` before `b`) can be
    /// coalesced: same evictable tier, both clean, same file, and —
    /// crucially — the *same* last access time. Merging blocks with
    /// different timestamps would move the earlier block's bytes past the
    /// insertion point of a later out-of-order insert (a demotion with an
    /// intermediate timestamp), reordering bytes relative to other files;
    /// equal timestamps leave no such point, so any future insertion lands
    /// strictly before or after the merged block in both the merged and
    /// unmerged orders.
    fn mergeable(&self, a: Idx, b: Idx) -> bool {
        let na = node_ref(&self.arena, a);
        let nb = node_ref(&self.arena, b);
        na.tier == nb.tier
            && self.policy.evictable_tiers()[na.tier as usize]
            && !na.block.dirty
            && !nb.block.dirty
            && na.block.last_access == nb.block.last_access
            && na.file_slot == nb.file_slot
    }

    /// Merges recency-adjacent node `from` into its successor `into` (same
    /// file, both clean, same evictable tier): `into` absorbs the bytes,
    /// keeps its own (later) `last_access`, and `from` is freed. Byte
    /// aggregates are unchanged; only the block count drops.
    fn merge_into(&mut self, from: Idx, into: Idx) {
        debug_assert!(self.mergeable(from, into));
        debug_assert_eq!(node_ref(&self.arena, from).links[RECENCY].next, into);
        let (t, s) = {
            let n = node_ref(&self.arena, from);
            (n.tier as usize, n.file_slot)
        };
        unlink(&mut self.arena, &mut self.lists[t].recency, RECENCY, from);
        unlink(&mut self.arena, &mut self.lists[t].clean, STATE, from);
        self.lists[t].len -= 1;
        let entry = self.files.get_mut(s);
        unlink(&mut self.arena, &mut entry.chains[t], FILE, from);
        entry.bytes.blocks -= 1;
        let from_node = self.release(from);
        let into_node = node_mut(&mut self.arena, into);
        into_node.block.size += from_node.block.size;
        // Clean blocks never expire, so the merged entry time is inert; keep
        // the earlier one for a deterministic, order-independent result.
        into_node.block.entry_time = into_node.block.entry_time.min(from_node.block.entry_time);
    }

    /// Opportunistically coalesces node `i` with its recency neighbors when
    /// they are clean same-tier blocks of the same file on an evictable
    /// tier. Returns the surviving node. Amortized O(1); bounds arena growth
    /// under flush splits.
    fn try_coalesce(&mut self, i: Idx) -> Idx {
        {
            let n = node_ref(&self.arena, i);
            if !self.policy.evictable_tiers()[n.tier as usize] || n.block.dirty {
                return i;
            }
        }
        let mut cur = i;
        let next = node_ref(&self.arena, cur).links[RECENCY].next;
        if next != NIL && self.mergeable(cur, next) {
            self.merge_into(cur, next);
            cur = next;
        }
        let prev = node_ref(&self.arena, cur).links[RECENCY].prev;
        if prev != NIL && self.mergeable(prev, cur) {
            self.merge_into(prev, cur);
        }
        cur
    }

    /// Whether a reclaim call restricted to `scope` may take node `i`.
    fn admits(&self, scope: ReclaimScope, i: Idx) -> bool {
        self.files.admits(scope, node_ref(&self.arena, i).file_slot)
    }

    /// Adds a clean block (data just read from disk) of slot `s` to the
    /// tier the policy admits first-touch data to (the inactive list under
    /// the default 2-list policy).
    pub fn add_clean(&mut self, s: u64, size: f64, now: SimTime) {
        if size <= EPSILON {
            return;
        }
        let file = self.files.name(s).clone();
        let tier = self.policy.insert_tier(&file);
        let idx = self.insert_node(tier, s, DataBlock::clean(file, size, now));
        self.try_coalesce(idx);
        self.balance();
        self.debug_validate();
    }

    /// Adds a dirty block (data just written by the application) of slot
    /// `s` to the policy's first-touch tier.
    pub fn add_dirty(&mut self, s: u64, size: f64, now: SimTime) {
        if size <= EPSILON {
            return;
        }
        let file = self.files.name(s).clone();
        let tier = self.policy.insert_tier(&file);
        self.insert_node(tier, s, DataBlock::dirty(file, size, now));
        self.balance();
        self.debug_validate();
    }

    /// Simulates a read of `amount` cached bytes of slot `s` (paper
    /// §III-A-2):
    /// blocks are consumed tier by tier, tier 0 first (inactive before
    /// active under the default 2-list policy), least recently used first;
    /// clean portions are merged into a single new block appended to the
    /// policy's promotion tier; dirty portions move there individually,
    /// preserving their entry time. Returns the number of bytes that were
    /// actually cached (which may be less than `amount`).
    ///
    /// Only the target file's blocks are touched (its per-file chains), so
    /// the cost is O(k) in the file's block count, independent of how many
    /// blocks of other files surround them. Blocks move by relinking their
    /// arena nodes: a dirty block keeps its node, and the first clean node
    /// becomes the merged block. Only a split head takes a new node, and
    /// only the other clean nodes are freed.
    pub fn read_cached(&mut self, s: u64, amount: f64, now: SimTime) -> f64 {
        if amount <= EPSILON {
            return 0.0;
        }
        if self.files.get(s).bytes.cached <= EPSILON {
            return 0.0;
        }
        let dest = ACTIVE_TIER;
        // Two passes: every taken block leaves the aggregates before any
        // joins `dest`, in take order, so each `f64` sum rounds the same way
        // whichever nodes the blocks end up in.
        let mut taken = std::mem::take(&mut self.taken);
        let head = self.take_for_read(s, amount, &mut taken);
        let mut clean_total = 0.0;
        let mut read_total = 0.0;
        let mut merged = NIL;
        for &i in &taken {
            let blk = &mut node_mut(&mut self.arena, i).block;
            read_total += blk.size;
            if blk.dirty {
                blk.last_access = now;
                self.link_node(dest, i);
            } else {
                clean_total += blk.size;
                if merged == NIL {
                    merged = i;
                } else {
                    self.release(i);
                }
            }
        }
        taken.clear();
        self.taken = taken;
        if let Some(mut head) = head {
            read_total += head.size;
            if head.dirty {
                head.last_access = now;
                self.insert_node(dest, s, head);
            } else {
                clean_total += head.size;
            }
        }
        if clean_total > EPSILON {
            let idx = if merged == NIL {
                let file = self.files.name(s).clone();
                self.insert_node(dest, s, DataBlock::clean(file, clean_total, now))
            } else {
                let blk = &mut node_mut(&mut self.arena, merged).block;
                blk.size = clean_total;
                blk.entry_time = now;
                blk.last_access = now;
                self.link_node(dest, merged);
                merged
            };
            self.try_coalesce(idx);
        } else if merged != NIL {
            self.release(merged);
        }
        self.debug_validate();
        read_total
    }

    /// Takes up to `amount` bytes of slot `s` off the tiers, tier 0 first,
    /// LRU first. Whole blocks are unlinked into `taken` and keep their
    /// arena nodes; a last block that is only partly needed is split, and
    /// its head is returned. Walks only the file's own chains.
    fn take_for_read(&mut self, s: u64, amount: f64, taken: &mut Vec<Idx>) -> Option<DataBlock> {
        let mut remaining = amount;
        for tier in 0..MAX_TIERS {
            if remaining <= EPSILON {
                break;
            }
            let mut i = self.files.get(s).chains[tier].head;
            while i != NIL && remaining > EPSILON {
                let next = node_ref(&self.arena, i).links[FILE].next;
                let size = node_ref(&self.arena, i).block.size;
                if size <= remaining + EPSILON {
                    self.unlink_node(i);
                    remaining -= size;
                    taken.push(i);
                } else {
                    let head = node_mut(&mut self.arena, i).block.split_off(remaining);
                    // The head leaves the list (it is re-accounted when the
                    // promotion re-inserts it); the remainder keeps the block
                    // count.
                    self.agg_shrink(tier, s, head.size, head.dirty);
                    return Some(head);
                }
                i = next;
            }
        }
        None
    }

    /// Marks up to `amount` bytes of dirty data as clean, least recently used
    /// first (tier 0 first: inactive before active under the default 2-list
    /// policy), restricted to `scope`. The last block is split if it only
    /// needs to be partially flushed. Returns the number of bytes flushed; the caller is
    /// responsible for simulating the corresponding disk write time.
    ///
    /// Steps straight from one dirty block to the next along the per-tier
    /// dirty chains — clean blocks are never visited.
    ///
    /// Calling with a non-positive `amount` is a no-op (paper Algorithm 2:
    /// "when called with negative arguments, `flush` and `evict` simply
    /// return").
    pub fn flush_lru(&mut self, amount: f64, scope: ReclaimScope) -> f64 {
        if amount <= EPSILON {
            return 0.0;
        }
        self.work.writeback_calls += 1;
        let dirty = match scope {
            ReclaimScope::Host(_) => self.total_dirty(),
            ReclaimScope::Group(group) => self.group_dirty(group),
        };
        if dirty <= EPSILON {
            return 0.0;
        }
        let mut flushed = 0.0;
        for t in 0..MAX_TIERS {
            if self.lists[t].agg.dirty <= EPSILON {
                continue;
            }
            let mut i = self.lists[t].dirty.head;
            while i != NIL {
                let next = node_ref(&self.arena, i).links[STATE].next;
                if flushed >= amount - EPSILON {
                    self.debug_validate();
                    return flushed;
                }
                self.work.writeback_visits += 1;
                if self.admits(scope, i) {
                    let need = amount - flushed;
                    let size = node_ref(&self.arena, i).block.size;
                    if size <= need + EPSILON {
                        flushed += self.clean_in_place(i);
                    } else {
                        let n = node_mut(&mut self.arena, i);
                        let s = n.file_slot;
                        let mut head = n.block.split_off(need);
                        head.dirty = false;
                        flushed += head.size;
                        let head_size = head.size;
                        // Same last-access time as the remainder: insert right
                        // before it to keep the chains ordered. Splitting a
                        // dirty block into a clean head plus a dirty remainder
                        // leaves total bytes unchanged: only the dirty share
                        // and the block count move.
                        let head_idx = self.insert_node_before(t, head, i);
                        self.agg_clean_in_place(t, s, head_size);
                        self.agg_note_split(s);
                        self.try_coalesce(head_idx);
                        self.debug_validate();
                        return flushed;
                    }
                }
                i = next;
            }
        }
        self.debug_validate();
        flushed
    }

    /// Removes up to `amount` bytes of clean data from the policy's
    /// evictable tiers (the inactive list under the default 2-list policy),
    /// tier 0 first, least recently used first within each, restricted to
    /// `scope`. The last block is split if it only needs to be partially
    /// evicted. Returns the number of bytes evicted. Non-positive amounts
    /// are a no-op.
    ///
    /// Walks only the per-tier clean chains, so dirty blocks are never
    /// visited: the cost is O(evicted + out-of-scope clean blocks).
    pub fn evict(&mut self, amount: f64, scope: ReclaimScope) -> f64 {
        if amount <= EPSILON {
            return 0.0;
        }
        self.work.evict_calls += 1;
        if let ReclaimScope::Group(group) = scope {
            if self.group_cached(group) <= EPSILON {
                return 0.0;
            }
        }
        // Memory pressure is when the kernel refills the inactive list from
        // the active list; re-balance before reclaiming so long-idle active
        // data becomes evictable.
        self.balance();
        // A host-wide call is capped by the O(1) evictable total, so a call
        // that cannot free anything never scans the whole inactive list.
        let target = match scope {
            ReclaimScope::Host(excluded) => amount.min(self.evictable(excluded)),
            ReclaimScope::Group(_) => amount,
        };
        if target <= EPSILON {
            return 0.0;
        }
        let mut evicted = 0.0;
        'reclaim: for t in 0..MAX_TIERS {
            if !self.policy.evictable_tiers()[t] {
                continue;
            }
            let mut i = self.lists[t].clean.head;
            while i != NIL && evicted < target - EPSILON {
                self.work.evict_visits += 1;
                let next = node_ref(&self.arena, i).links[STATE].next;
                debug_assert!(
                    !node_ref(&self.arena, i).block.dirty,
                    "dirty block on a clean chain"
                );
                if self.admits(scope, i) {
                    let need = amount - evicted;
                    let size = node_ref(&self.arena, i).block.size;
                    if size <= need + EPSILON {
                        let blk = self.remove_node(i);
                        evicted += blk.size;
                        self.policy.on_evict(&blk.file, t);
                    } else {
                        let n = node_mut(&mut self.arena, i);
                        n.block.size -= need;
                        let s = n.file_slot;
                        self.agg_shrink(t, s, need, false);
                        evicted += need;
                        let file = &node_ref(&self.arena, i).block.file;
                        self.policy.on_evict(file, t);
                        break 'reclaim;
                    }
                }
                i = next;
            }
            if evicted >= target - EPSILON {
                break;
            }
        }
        self.debug_validate();
        evicted
    }

    /// Marks every dirty block older than `expire` seconds as clean and
    /// returns the total number of bytes to be written back (paper
    /// Algorithm 1, the periodical flusher). Walks only the dirty chains,
    /// so the cost is O(dirty blocks), not O(all blocks).
    pub fn flush_expired(&mut self, now: SimTime, expire: f64) -> f64 {
        if self.total_dirty() <= EPSILON {
            return 0.0;
        }
        let mut flushed = 0.0;
        for t in 0..MAX_TIERS {
            let mut i = self.lists[t].dirty.head;
            while i != NIL {
                let next = node_ref(&self.arena, i).links[STATE].next;
                if node_ref(&self.arena, i).block.is_expired(now, expire) {
                    flushed += self.clean_in_place(i);
                }
                i = next;
            }
        }
        self.debug_validate();
        flushed
    }

    /// Marks every dirty block of slot `s` clean (the cache side of an
    /// `fsync`), walking only the file's own per-(file, list) chains: O(k) in
    /// the file's block count, independent of how much other data is cached.
    /// Returns the number of bytes to be written back; the caller is
    /// responsible for simulating the corresponding disk write time.
    pub fn flush_file(&mut self, s: u64) -> f64 {
        if self.files.get(s).bytes.dirty <= EPSILON {
            return 0.0;
        }
        let mut flushed = 0.0;
        for t in 0..MAX_TIERS {
            let mut i = self.files.get(s).chains[t].head;
            while i != NIL {
                // Coalescing only ever merges `i` or its already-visited
                // predecessor into a *later* surviving node, so the captured
                // successor stays valid.
                let next = node_ref(&self.arena, i).links[FILE].next;
                if node_ref(&self.arena, i).block.dirty {
                    flushed += self.clean_in_place(i);
                }
                i = next;
            }
        }
        self.debug_validate();
        flushed
    }

    /// Removes every block of slot `s` (an invalidation: a client's stale
    /// copy, or a crash). The file keeps its slot, size and group. Returns
    /// the number of bytes removed. Walks only the file's own chains: O(k)
    /// in the file's block count.
    pub fn invalidate_file(&mut self, s: u64) -> f64 {
        let mut removed = 0.0;
        for k in 0..MAX_TIERS {
            let mut i = self.files.get(s).chains[k].head;
            while i != NIL {
                let next = node_ref(&self.arena, i).links[FILE].next;
                removed += self.remove_node(i).size;
                i = next;
            }
        }
        self.debug_validate();
        removed
    }

    /// Re-balances the tiers by repeatedly applying the policy's demotion
    /// rule: under the default 2-list policy, the active list holds at most
    /// twice the bytes of the inactive list, maintained by demoting least
    /// recently used active blocks (paper §III-A-1, after Gorman's
    /// description of the kernel behaviour). The demotion decision is O(1) —
    /// the byte totals are incremental, so no list is re-summed per demoted
    /// block — and re-linking the demoted block costs O(1) in the
    /// append-ordered case and an amortised O(1) walk from the target
    /// chain's finger otherwise; no elements are ever shifted.
    pub fn balance(&mut self) {
        loop {
            let bytes = self.tier_bytes();
            let lens = self.tier_lens();
            let Some((from, to)) = self.policy.demotion(&bytes, &lens) else {
                break;
            };
            let head = self.lists[from].recency.head;
            self.unlink_node(head);
            self.link_node(to, head);
            self.try_coalesce(head);
        }
    }

    /// Checks the structural invariants of the lists; used by tests and
    /// property-based tests.
    ///
    /// Invariants: every block has positive size and every tier is sorted by
    /// last access time, under every policy (the 2-list "active at most
    /// twice the inactive" property is maintained separately by
    /// [`LruLists::balance`], up to one block of slack, since balancing
    /// moves whole blocks).
    pub fn check_invariants(&self) -> Result<(), String> {
        for t in 0..MAX_TIERS {
            let blocks: Vec<&DataBlock> = self.tier_blocks(t).collect();
            for (a, b) in blocks.iter().zip(blocks.iter().skip(1)) {
                if a.last_access > b.last_access {
                    return Err(format!("tier {t} is not sorted by last access"));
                }
            }
            if let Some(b) = blocks.iter().find(|b| b.size <= 0.0) {
                return Err(format!(
                    "tier {t} contains a non-positive block ({})",
                    b.size
                ));
            }
        }
        self.check_chains()?;
        self.check_aggregates()?;
        Ok(())
    }

    /// Verifies the chain structure against the recency chains: every chain
    /// doubly linked and consistent with its endpoints, its finger `NIL` or
    /// one of its own nodes, the clean, dirty and per-file chains exactly
    /// the recency chain filtered by dirtiness / file (ties included), and
    /// the slab bookkeeping (lengths, free list) coherent.
    pub fn check_chains(&self) -> Result<(), String> {
        // Walks `chain` along `lk`, checking its links, tail and finger.
        let collect = |chain: &Chain, lk: usize| -> Result<Vec<Idx>, String> {
            let mut out = Vec::new();
            let mut prev = NIL;
            let mut i = chain.head;
            while i != NIL {
                if i as usize >= self.arena.len() {
                    return Err(format!("index {i} out of arena bounds"));
                }
                let Slot::Occupied(n) = &self.arena[i as usize] else {
                    return Err(format!("references vacant slot {i}"));
                };
                if n.links[lk].prev != prev {
                    return Err(format!("node {i} has a bad prev link"));
                }
                out.push(i);
                prev = i;
                i = n.links[lk].next;
                if out.len() > self.arena.len() {
                    return Err("cycle detected".into());
                }
            }
            if prev != chain.tail {
                return Err("tail mismatch".into());
            }
            if chain.finger != NIL && !out.contains(&chain.finger) {
                return Err(format!("finger {} is not on the chain", chain.finger));
            }
            Ok(out)
        };
        let mut occupied = 0usize;
        for k in 0..MAX_TIERS {
            let list = &self.lists[k];
            let recency =
                collect(&list.recency, RECENCY).map_err(|e| format!("list {k} recency: {e}"))?;
            if recency.len() != list.len {
                return Err(format!(
                    "list {k}: recency chain has {} nodes, len counter says {}",
                    recency.len(),
                    list.len
                ));
            }
            for &i in &recency {
                if node_ref(&self.arena, i).tier as usize != k {
                    return Err(format!("node {i} linked into the wrong list"));
                }
            }
            occupied += recency.len();
            for (chain, dirty, what) in
                [(&list.clean, false, "clean"), (&list.dirty, true, "dirty")]
            {
                let actual = collect(chain, STATE).map_err(|e| format!("list {k} {what}: {e}"))?;
                let expected: Vec<Idx> = recency
                    .iter()
                    .copied()
                    .filter(|&i| node_ref(&self.arena, i).block.dirty == dirty)
                    .collect();
                if actual != expected {
                    return Err(format!(
                        "list {k}: {what} chain is not the {what} subsequence of the recency chain"
                    ));
                }
            }
            let mut by_slot: HashMap<u64, Vec<Idx>> = HashMap::new();
            for &i in &recency {
                let n = node_ref(&self.arena, i);
                if self.files.name(n.file_slot) != &n.block.file {
                    return Err(format!(
                        "node {i}: file slot {} does not name its file {}",
                        n.file_slot, n.block.file
                    ));
                }
                by_slot.entry(n.file_slot).or_default().push(i);
            }
            for (s, file, entry) in self.files.iter() {
                let fchain = collect(&entry.chains[k], FILE)
                    .map_err(|e| format!("file {file} list {k}: {e}"))?;
                let expected = by_slot.remove(&s).unwrap_or_default();
                if fchain != expected {
                    return Err(format!(
                        "file {file}: chain is not its subsequence of list {k}'s recency chain"
                    ));
                }
            }
        }
        let vacant = self
            .arena
            .iter()
            .filter(|s| matches!(s, Slot::Vacant { .. }))
            .count();
        if occupied + vacant != self.arena.len() {
            return Err(format!(
                "arena has {} slots but {} occupied + {} vacant",
                self.arena.len(),
                occupied,
                vacant
            ));
        }
        let mut free = 0usize;
        let mut i = self.free_head;
        while i != NIL {
            let Slot::Vacant { next_free } = self.arena[i as usize] else {
                return Err(format!("free list references occupied slot {i}"));
            };
            free += 1;
            if free > self.arena.len() {
                return Err("free list cycle detected".into());
            }
            i = next_free;
        }
        if free != vacant {
            return Err(format!(
                "free list has {free} slots but {vacant} are vacant"
            ));
        }
        Ok(())
    }

    /// Verifies every incremental aggregate against a full-scan recomputation
    /// (the oracles the O(1) readers replaced), including the file table's
    /// group totals ([`FileTable::check`]). O(n); used by
    /// [`LruLists::check_invariants`], the randomized consistency tests and
    /// the `debug_assert!` validation after every mutation.
    pub fn check_aggregates(&self) -> Result<(), String> {
        fn close(a: f64, b: f64) -> bool {
            (a - b).abs() <= EPSILON + 1e-9 * b.abs()
        }
        for t in 0..MAX_TIERS {
            let agg = self.lists[t].agg;
            let recomputed = self.recompute_list_agg(t);
            if !close(agg.bytes, recomputed.bytes) {
                return Err(format!(
                    "tier {t} bytes counter {} != recomputed {}",
                    agg.bytes, recomputed.bytes
                ));
            }
            if !close(agg.dirty, recomputed.dirty) {
                return Err(format!(
                    "tier {t} dirty counter {} != recomputed {}",
                    agg.dirty, recomputed.dirty
                ));
            }
        }
        self.files.check(|f| (f.bytes.cached, f.bytes.dirty))?;
        let scan = self.recompute_per_file();
        for (s, file, entry) in self.files.iter() {
            let actual = &entry.bytes;
            let expected = scan.get(&s).copied().unwrap_or_default();
            if actual.blocks != expected.blocks {
                return Err(format!(
                    "file {file}: block counter {} != scan {}",
                    actual.blocks, expected.blocks
                ));
            }
            if actual.blocks == 0 {
                let zero = [
                    actual.cached,
                    actual.dirty,
                    actual.inactive_bytes,
                    actual.inactive_clean,
                ]
                .iter()
                .all(|&b| b == 0.0);
                if !zero || entry.chains.iter().any(|c| !c.is_empty()) {
                    return Err(format!(
                        "file {file}: slot without blocks keeps bytes or chains"
                    ));
                }
            }
            for (what, a, b) in [
                ("cached", actual.cached, expected.cached),
                ("dirty", actual.dirty, expected.dirty),
                (
                    "inactive_bytes",
                    actual.inactive_bytes,
                    expected.inactive_bytes,
                ),
                (
                    "inactive_clean",
                    actual.inactive_clean,
                    expected.inactive_clean,
                ),
            ] {
                if !close(a, b) {
                    return Err(format!("file {file}: {what} counter {a} != scan {b}"));
                }
            }
        }
        Ok(())
    }

    /// Scan-based oracle for one tier's aggregates.
    fn recompute_list_agg(&self, t: usize) -> ListAgg {
        let mut agg = ListAgg::default();
        for b in self.tier_blocks(t) {
            agg.add(b.size, b.dirty);
        }
        agg
    }

    /// Scan-based oracle for the per-file aggregates, keyed by file slot.
    fn recompute_per_file(&self) -> HashMap<u64, FileBytes> {
        let mut map: HashMap<u64, FileBytes> = HashMap::new();
        for t in 0..MAX_TIERS {
            let evictable = self.policy.evictable_tiers()[t];
            let mut nodes = self.tier_blocks(t);
            while let Some(n) = nodes.next_node() {
                let b = &n.block;
                let f = map.entry(n.file_slot).or_default();
                f.cached += b.size;
                f.blocks += 1;
                if b.dirty {
                    f.dirty += b.size;
                }
                if evictable {
                    f.inactive_bytes += b.size;
                    if !b.dirty {
                        f.inactive_clean += b.size;
                    }
                }
            }
        }
        map
    }

    /// Cross-checks the incremental counters and chain structure against the
    /// scan oracles after every mutation in debug builds; compiles to nothing
    /// in release builds so the hot paths stay O(1).
    #[inline]
    fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        {
            if let Err(e) = self.check_chains() {
                panic!("intrusive chains diverged from recency truth: {e}");
            }
            if let Err(e) = self.check_aggregates() {
                panic!("incremental aggregates diverged from scan oracle: {e}");
            }
        }
    }
}

/// Iterator over the blocks of one chain, front (LRU) first.
pub struct ChainBlocks<'a> {
    arena: &'a [Slot],
    cur: Idx,
    lk: usize,
}

impl<'a> ChainBlocks<'a> {
    /// The next node of the chain; `next` yields its block.
    fn next_node(&mut self) -> Option<&'a Node> {
        if self.cur == NIL {
            return None;
        }
        let node = node_ref(self.arena, self.cur);
        self.cur = node.links[self.lk].next;
        Some(node)
    }
}

impl<'a> Iterator for ChainBlocks<'a> {
    type Item = &'a DataBlock;

    fn next(&mut self) -> Option<&'a DataBlock> {
        self.next_node().map(|n| &n.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    fn nth<'a>(mut it: ChainBlocks<'a>, n: usize) -> &'a DataBlock {
        it.nth(n).expect("chain shorter than index")
    }

    #[test]
    fn new_cache_is_empty() {
        let lru = LruLists::new();
        assert!(lru.is_empty());
        assert_eq!(lru.total_cached(), 0.0);
        assert_eq!(lru.total_dirty(), 0.0);
        assert_eq!(lru.block_count(), 0);
    }

    #[test]
    fn first_access_goes_to_inactive_list() {
        let mut lru = LruLists::new();
        let f1 = lru.key_or_insert(&"f1".into());
        let f2 = lru.key_or_insert(&"f2".into());
        lru.add_clean(f1, 100.0, t(1.0));
        lru.add_dirty(f2, 50.0, t(2.0));
        assert_eq!(lru.inactive_blocks().count(), 2);
        assert_eq!(lru.active_blocks().count(), 0);
        approx(lru.total_cached(), 150.0);
        approx(lru.total_dirty(), 50.0);
        approx(lru.cached_amount(f1), 100.0);
        approx(lru.dirty_amount(f2), 50.0);
        lru.check_invariants().unwrap();
    }

    #[test]
    fn group_aggregates_track_all_mutation_paths() {
        let mut lru = LruLists::new();
        let a = lru.key_or_insert(&"a".into());
        let b = lru.key_or_insert(&"b".into());
        let ungrouped = lru.key_or_insert(&"ungrouped".into());
        lru.set_file_group("a".into(), Some(1));
        lru.set_file_group("b".into(), Some(2));
        lru.add_clean(a, 100.0, t(1.0));
        lru.add_dirty(a, 50.0, t(2.0));
        lru.add_clean(b, 70.0, t(3.0));
        lru.add_clean(ungrouped, 30.0, t(4.0));
        approx(lru.group_cached(1), 150.0);
        approx(lru.group_dirty(1), 50.0);
        approx(lru.group_cached(2), 70.0);
        // Flushing and evicting through the global paths keeps the group
        // counters honest.
        lru.flush_lru(20.0, ReclaimScope::Host(None));
        approx(lru.group_dirty(1), 30.0);
        lru.flush_file(a);
        approx(lru.group_dirty(1), 0.0);
        lru.invalidate_file(a);
        approx(lru.group_cached(1), 0.0);
        approx(lru.group_cached(2), 70.0);
        lru.check_invariants().unwrap();
    }

    #[test]
    fn group_assignment_after_io_moves_cached_bytes() {
        let mut lru = LruLists::new();
        let f = lru.key_or_insert(&"f".into());
        lru.add_dirty(f, 80.0, t(1.0));
        assert_eq!(lru.file_group(&"f".into()), None);
        lru.set_file_group("f".into(), Some(7));
        assert_eq!(lru.file_group(&"f".into()), Some(7));
        approx(lru.group_cached(7), 80.0);
        approx(lru.group_dirty(7), 80.0);
        // Reassignment moves the bytes; clearing removes them.
        lru.set_file_group("f".into(), Some(8));
        approx(lru.group_cached(7), 0.0);
        approx(lru.group_cached(8), 80.0);
        lru.set_file_group("f".into(), None);
        approx(lru.group_cached(8), 0.0);
        lru.check_invariants().unwrap();
    }

    #[test]
    fn group_scoped_evict_only_touches_the_groups_clean_blocks() {
        let mut lru = LruLists::new();
        let mine = lru.key_or_insert(&"mine".into());
        let dirty = lru.key_or_insert(&"dirty".into());
        let theirs = lru.key_or_insert(&"theirs".into());
        let shared = lru.key_or_insert(&"shared".into());
        lru.set_file_group("mine".into(), Some(1));
        lru.set_file_group("dirty".into(), Some(1));
        lru.set_file_group("theirs".into(), Some(2));
        lru.add_clean(mine, 100.0, t(1.0));
        lru.add_dirty(dirty, 40.0, t(2.0));
        lru.add_clean(theirs, 60.0, t(3.0));
        lru.add_clean(shared, 50.0, t(4.0));
        let evicted = lru.evict(300.0, ReclaimScope::Group(1));
        // Only group 1's clean bytes go; dirty, other-group and ungrouped
        // blocks stay.
        approx(evicted, 100.0);
        approx(lru.group_cached(1), 40.0);
        approx(lru.group_cached(2), 60.0);
        approx(lru.cached_amount(shared), 50.0);
        // Partial eviction splits the block.
        let evicted = lru.evict(30.0, ReclaimScope::Group(2));
        approx(evicted, 30.0);
        approx(lru.group_cached(2), 30.0);
        lru.check_invariants().unwrap();
    }

    #[test]
    fn group_scoped_flush_cleans_only_the_groups_dirty_data() {
        let mut lru = LruLists::new();
        let mine = lru.key_or_insert(&"mine".into());
        let theirs = lru.key_or_insert(&"theirs".into());
        lru.set_file_group("mine".into(), Some(1));
        lru.set_file_group("theirs".into(), Some(2));
        lru.add_dirty(mine, 100.0, t(1.0));
        lru.add_dirty(theirs, 60.0, t(2.0));
        // Partial flush splits; the neighbour's dirty data is untouched.
        let flushed = lru.flush_lru(30.0, ReclaimScope::Group(1));
        approx(flushed, 30.0);
        approx(lru.group_dirty(1), 70.0);
        approx(lru.group_dirty(2), 60.0);
        let flushed = lru.flush_lru(1000.0, ReclaimScope::Group(1));
        approx(flushed, 70.0);
        approx(lru.group_dirty(1), 0.0);
        approx(lru.group_cached(1), 100.0);
        approx(lru.group_dirty(2), 60.0);
        lru.check_invariants().unwrap();
    }

    #[test]
    fn zero_sized_additions_are_ignored() {
        let mut lru = LruLists::new();
        let f = lru.key_or_insert(&"f".into());
        lru.add_clean(f, 0.0, t(1.0));
        lru.add_dirty(f, -5.0, t(1.0));
        assert!(lru.is_empty());
    }

    #[test]
    fn second_access_promotes_to_active_and_merges_clean_blocks() {
        let mut lru = LruLists::new();
        let f = lru.key_or_insert(&"f1".into());
        lru.add_clean(f, 100.0, t(1.0));
        lru.add_clean(f, 200.0, t(2.0));
        let read = lru.read_cached(f, 300.0, t(3.0));
        approx(read, 300.0);
        // Both clean blocks were merged into a single active block.
        assert_eq!(lru.inactive_blocks().count(), 0);
        assert_eq!(lru.active_blocks().count(), 1);
        approx(nth(lru.active_blocks(), 0).size, 300.0);
        assert!(!nth(lru.active_blocks(), 0).dirty);
        assert_eq!(nth(lru.active_blocks(), 0).last_access, t(3.0));
        lru.check_invariants().unwrap();
    }

    #[test]
    fn adjacent_clean_inactive_blocks_of_one_file_coalesce() {
        let mut lru = LruLists::new();
        let f = lru.key_or_insert(&"f".into());
        // Same simulated instant (e.g. two chunks of one request): one node.
        lru.add_clean(f, 100.0, t(1.0));
        lru.add_clean(f, 200.0, t(1.0));
        assert_eq!(lru.block_count(), 1);
        approx(lru.cached_amount(f), 300.0);
        approx(nth(lru.inactive_blocks(), 0).size, 300.0);
        assert_eq!(nth(lru.inactive_blocks(), 0).last_access, t(1.0));
        // Different timestamps must NOT coalesce: a later demotion with an
        // intermediate timestamp could otherwise land on the wrong side of
        // the merged bytes.
        lru.add_clean(f, 50.0, t(2.0));
        assert_eq!(lru.block_count(), 2);
        lru.check_invariants().unwrap();
    }

    #[test]
    fn coalescing_skips_other_files_dirty_blocks_and_the_active_list() {
        let mut lru = LruLists::new();
        let a = lru.key_or_insert(&"a".into());
        let b = lru.key_or_insert(&"b".into());
        lru.add_clean(a, 100.0, t(1.0));
        lru.add_clean(b, 100.0, t(2.0));
        assert_eq!(lru.block_count(), 2); // different files
        let mut lru = LruLists::new();
        let a = lru.key_or_insert(&"a".into());
        lru.add_dirty(a, 100.0, t(1.0));
        lru.add_dirty(a, 100.0, t(2.0));
        assert_eq!(lru.block_count(), 2); // dirty blocks never coalesce
        let mut lru = LruLists::new();
        let f = lru.key_or_insert(&"p".into());
        lru.add_clean(f, 100.0, t(1.0));
        lru.read_cached(f, 100.0, t(2.0));
        lru.add_clean(f, 50.0, t(3.0));
        lru.read_cached(f, 50.0, t(4.0));
        // Both blocks are clean, same file, but live on the active list where
        // coalescing would coarsen demotion granularity.
        assert!(lru.active_blocks().count() >= 1);
        lru.check_invariants().unwrap();
    }

    #[test]
    fn flush_turning_blocks_clean_coalesces_them() {
        let mut lru = LruLists::new();
        let f = lru.key_or_insert(&"f".into());
        // Two dirty blocks written at the same instant (one request, two
        // chunks).
        lru.add_dirty(f, 100.0, t(1.0));
        lru.add_dirty(f, 100.0, t(1.0));
        assert_eq!(lru.block_count(), 2);
        let flushed = lru.flush_lru(200.0, ReclaimScope::Host(None));
        approx(flushed, 200.0);
        approx(lru.total_dirty(), 0.0);
        // Both blocks turned clean and merged into one arena node.
        assert_eq!(lru.block_count(), 1);
        approx(nth(lru.inactive_blocks(), 0).size, 200.0);
        lru.check_invariants().unwrap();
    }

    #[test]
    fn repeated_partial_flushes_do_not_grow_the_arena() {
        // A partial flush splits a clean head off the dirty remainder at the
        // same timestamp; the heads must coalesce fragment by fragment
        // instead of accumulating one node per flush.
        let mut lru = LruLists::new();
        let f = lru.key_or_insert(&"f".into());
        lru.add_dirty(f, 1000.0, t(1.0));
        for _ in 0..100 {
            approx(lru.flush_lru(10.0, ReclaimScope::Host(None)), 10.0);
        }
        approx(lru.total_dirty(), 0.0);
        approx(lru.cached_amount(f), 1000.0);
        // One clean block (all heads merged) — not 100 fragments.
        assert_eq!(lru.block_count(), 1);
        lru.check_invariants().unwrap();
    }

    #[test]
    fn dirty_blocks_move_to_active_individually_preserving_entry_time() {
        let mut lru = LruLists::new();
        let f = lru.key_or_insert(&"f1".into());
        lru.add_dirty(f, 100.0, t(1.0));
        lru.add_dirty(f, 100.0, t(2.0));
        let read = lru.read_cached(f, 200.0, t(5.0));
        approx(read, 200.0);
        assert_eq!(lru.active_blocks().count(), 2);
        let entries: Vec<f64> = lru
            .active_blocks()
            .map(|b| b.entry_time.as_secs())
            .collect();
        assert_eq!(entries, vec![1.0, 2.0]);
        assert!(lru.active_blocks().all(|b| b.dirty));
        assert!(lru.active_blocks().all(|b| b.last_access == t(5.0)));
    }

    #[test]
    fn partial_read_splits_a_block() {
        let mut lru = LruLists::new();
        let f = lru.key_or_insert(&"f1".into());
        lru.add_clean(f, 100.0, t(1.0));
        let read = lru.read_cached(f, 30.0, t(2.0));
        approx(read, 30.0);
        // 70 bytes remain on the inactive list, 30 were promoted.
        approx(lru.inactive_bytes(), 70.0);
        approx(lru.active_bytes(), 30.0);
        approx(lru.cached_amount(f), 100.0);
        lru.check_invariants().unwrap();
    }

    #[test]
    fn read_cached_returns_only_what_is_cached() {
        let mut lru = LruLists::new();
        let f = lru.key_or_insert(&"f1".into());
        lru.add_clean(f, 50.0, t(1.0));
        let read = lru.read_cached(f, 200.0, t(2.0));
        approx(read, 50.0);
    }

    #[test]
    fn read_cached_ignores_other_files() {
        let mut lru = LruLists::new();
        let f1 = lru.key_or_insert(&"f1".into());
        let f2 = lru.key_or_insert(&"f2".into());
        lru.add_clean(f1, 50.0, t(1.0));
        lru.add_clean(f2, 80.0, t(2.0));
        let read = lru.read_cached(f1, 100.0, t(3.0));
        approx(read, 50.0);
        approx(lru.cached_amount(f2), 80.0);
        // f2 stayed on the inactive list.
        assert_eq!(lru.inactive_blocks().count(), 1);
        assert_eq!(nth(lru.inactive_blocks(), 0).file, "f2".into());
    }

    #[test]
    fn inactive_list_is_consumed_before_active_list() {
        let mut lru = LruLists::new();
        let f = lru.key_or_insert(&"f1".into());
        // One block on the active list (accessed twice) ...
        lru.add_clean(f, 100.0, t(1.0));
        lru.read_cached(f, 100.0, t(2.0));
        assert_eq!(lru.active_blocks().count(), 1);
        // ... and a newer block on the inactive list.
        lru.add_clean(f, 100.0, t(3.0));
        // Reading 100 bytes must consume the inactive block, not the active one.
        let read = lru.read_cached(f, 100.0, t(4.0));
        approx(read, 100.0);
        // The active list now holds the original block plus the newly promoted
        // one; the inactive list may hold demoted blocks from balancing but no
        // block with last_access == 3.0.
        assert!(lru.iter_all().all(|b| b.last_access != t(3.0)));
    }

    #[test]
    fn flush_marks_lru_dirty_blocks_clean_in_order() {
        let mut lru = LruLists::new();
        let f1 = lru.key_or_insert(&"f1".into());
        let f2 = lru.key_or_insert(&"f2".into());
        lru.add_dirty(f1, 100.0, t(1.0));
        lru.add_dirty(f2, 100.0, t(2.0));
        let flushed = lru.flush_lru(120.0, ReclaimScope::Host(None));
        approx(flushed, 120.0);
        approx(lru.total_dirty(), 80.0);
        // The oldest block (f1) is fully clean, f2 was split.
        approx(lru.dirty_amount(f1), 0.0);
        approx(lru.dirty_amount(f2), 80.0);
        assert_eq!(lru.block_count(), 3);
        lru.check_invariants().unwrap();
    }

    #[test]
    fn flush_with_nonpositive_amount_is_noop() {
        let mut lru = LruLists::new();
        let f1 = lru.key_or_insert(&"f1".into());
        lru.add_dirty(f1, 100.0, t(1.0));
        assert_eq!(lru.flush_lru(0.0, ReclaimScope::Host(None)), 0.0);
        assert_eq!(lru.flush_lru(-50.0, ReclaimScope::Host(None)), 0.0);
        approx(lru.total_dirty(), 100.0);
    }

    #[test]
    fn flush_excludes_requested_file() {
        let mut lru = LruLists::new();
        let f1 = lru.key_or_insert(&"f1".into());
        let f2 = lru.key_or_insert(&"f2".into());
        lru.add_dirty(f1, 100.0, t(1.0));
        lru.add_dirty(f2, 100.0, t(2.0));
        let flushed = lru.flush_lru(150.0, ReclaimScope::Host(Some(f1)));
        approx(flushed, 100.0); // only f2 was eligible
        approx(lru.dirty_amount(f1), 100.0);
        approx(lru.dirty_amount(f2), 0.0);
    }

    #[test]
    fn flush_caps_at_available_dirty_data() {
        let mut lru = LruLists::new();
        let f1 = lru.key_or_insert(&"f1".into());
        let f2 = lru.key_or_insert(&"f2".into());
        lru.add_dirty(f1, 60.0, t(1.0));
        lru.add_clean(f2, 500.0, t(2.0));
        let flushed = lru.flush_lru(1000.0, ReclaimScope::Host(None));
        approx(flushed, 60.0);
        approx(lru.total_dirty(), 0.0);
    }

    #[test]
    fn evict_removes_clean_inactive_blocks_lru_first() {
        let mut lru = LruLists::new();
        let f1 = lru.key_or_insert(&"f1".into());
        let f2 = lru.key_or_insert(&"f2".into());
        let f3 = lru.key_or_insert(&"f3".into());
        lru.add_clean(f1, 100.0, t(1.0));
        lru.add_clean(f2, 100.0, t(2.0));
        lru.add_dirty(f3, 100.0, t(3.0));
        let evicted = lru.evict(150.0, ReclaimScope::Host(None));
        approx(evicted, 150.0);
        approx(lru.cached_amount(f1), 0.0);
        approx(lru.cached_amount(f2), 50.0);
        // Dirty data is never evicted.
        approx(lru.cached_amount(f3), 100.0);
        lru.check_invariants().unwrap();
    }

    #[test]
    fn evict_skips_dirty_and_excluded_and_active_blocks() {
        let mut lru = LruLists::new();
        let f1 = lru.key_or_insert(&"f1".into());
        let f2 = lru.key_or_insert(&"f2".into());
        let f3 = lru.key_or_insert(&"f3".into());
        // Promote f1 to the active list.
        lru.add_clean(f1, 100.0, t(1.0));
        lru.read_cached(f1, 100.0, t(2.0));
        lru.add_dirty(f2, 100.0, t(3.0));
        lru.add_clean(f3, 100.0, t(4.0));
        // Only f3 is clean+inactive, and it is excluded -> nothing to evict.
        let evicted = lru.evict(300.0, ReclaimScope::Host(Some(f3)));
        approx(evicted, 0.0);
        // Without the exclusion, only f3 can be evicted.
        let evicted = lru.evict(300.0, ReclaimScope::Host(None));
        approx(evicted, 100.0);
        approx(lru.total_cached(), 200.0);
    }

    #[test]
    fn evict_with_nonpositive_amount_is_noop() {
        let mut lru = LruLists::new();
        let f1 = lru.key_or_insert(&"f1".into());
        lru.add_clean(f1, 100.0, t(1.0));
        assert_eq!(lru.evict(-10.0, ReclaimScope::Host(None)), 0.0);
        approx(lru.total_cached(), 100.0);
    }

    #[test]
    fn evictable_counts_only_clean_inactive_blocks() {
        let mut lru = LruLists::new();
        let f1 = lru.key_or_insert(&"f1".into());
        let f2 = lru.key_or_insert(&"f2".into());
        let f3 = lru.key_or_insert(&"f3".into());
        lru.add_clean(f1, 100.0, t(1.0));
        lru.read_cached(f1, 100.0, t(2.0)); // now active
        lru.add_clean(f2, 70.0, t(3.0));
        lru.add_dirty(f3, 30.0, t(4.0));
        // Balancing may demote the f1 block back to inactive (active must stay
        // <= 2x inactive); account for whichever split results.
        let evictable = lru.evictable(None);
        let clean_inactive: f64 = lru
            .inactive_blocks()
            .filter(|b| !b.dirty)
            .map(|b| b.size)
            .sum();
        approx(evictable, clean_inactive);
        assert!(lru.evictable(Some(f2)) <= evictable - 70.0 + EPSILON);
    }

    #[test]
    fn flush_expired_only_touches_old_dirty_blocks() {
        let mut lru = LruLists::new();
        let f1 = lru.key_or_insert(&"f1".into());
        let f2 = lru.key_or_insert(&"f2".into());
        let f3 = lru.key_or_insert(&"f3".into());
        lru.add_dirty(f1, 100.0, t(0.0));
        lru.add_dirty(f2, 100.0, t(20.0));
        lru.add_clean(f3, 100.0, t(0.0));
        let flushed = lru.flush_expired(t(35.0), 30.0);
        approx(flushed, 100.0); // only f1 is older than 30 s
        approx(lru.total_dirty(), 100.0);
        // A later pass flushes f2 once it expires.
        let flushed = lru.flush_expired(t(55.0), 30.0);
        approx(flushed, 100.0);
        approx(lru.total_dirty(), 0.0);
    }

    #[test]
    fn balance_demotes_lru_active_blocks() {
        let mut lru = LruLists::new();
        let f = lru.key_or_insert(&"f".into());
        // Promote three separate dirty blocks (dirty blocks are not merged),
        // so the active list holds 300 bytes in three blocks.
        for i in 0..3 {
            lru.add_dirty(f, 100.0, t(i as f64));
        }
        lru.read_cached(f, 300.0, t(10.0));
        assert_eq!(lru.active_blocks().count(), 3);
        approx(lru.inactive_bytes(), 0.0);
        // Balancing demotes least recently used active blocks until the
        // active list is at most twice the inactive list.
        lru.balance();
        assert!(lru.active_bytes() <= 2.0 * lru.inactive_bytes() + EPSILON);
        approx(lru.total_cached(), 300.0);
        lru.check_invariants().unwrap();
        // Eviction triggers the same re-balancing internally.
        let mut lru2 = LruLists::new();
        let f = lru2.key_or_insert(&"f".into());
        lru2.add_clean(f, 100.0, t(0.0));
        lru2.read_cached(f, 100.0, t(1.0)); // now 100 bytes active, 0 inactive
        let evicted = lru2.evict(50.0, ReclaimScope::Host(None));
        approx(evicted, 50.0);
        lru2.check_invariants().unwrap();
    }

    #[test]
    fn invalidate_file_removes_all_its_blocks() {
        let mut lru = LruLists::new();
        let f1 = lru.key_or_insert(&"f1".into());
        let f2 = lru.key_or_insert(&"f2".into());
        lru.add_clean(f1, 100.0, t(1.0));
        lru.add_dirty(f1, 50.0, t(2.0));
        lru.add_clean(f2, 30.0, t(3.0));
        let removed = lru.invalidate_file(f1);
        approx(removed, 150.0);
        approx(lru.total_cached(), 30.0);
        approx(lru.cached_amount(f1), 0.0);
    }

    #[test]
    fn arena_slots_are_reused_after_removal() {
        let mut lru = LruLists::new();
        for round in 0..5 {
            for i in 0..10 {
                let f = lru.key_or_insert(&FileId::new(format!("f{i}")));
                lru.add_dirty(f, 10.0, t((round * 10 + i) as f64));
            }
            lru.flush_lru(100.0, ReclaimScope::Host(None));
            lru.evict(100.0, ReclaimScope::Host(None));
        }
        assert!(lru.is_empty());
        // The arena never grew past one round's worth of live blocks.
        assert!(
            lru.arena.len() <= 20,
            "arena grew to {} slots",
            lru.arena.len()
        );
        lru.check_invariants().unwrap();
    }

    #[test]
    fn cached_per_file_reports_every_file() {
        let mut lru = LruLists::new();
        let f1 = lru.key_or_insert(&"f1".into());
        let f2 = lru.key_or_insert(&"f2".into());
        lru.add_clean(f1, 100.0, t(1.0));
        lru.add_dirty(f2, 50.0, t(2.0));
        lru.add_clean(f1, 25.0, t(3.0));
        let map = lru.cached_per_file();
        approx(*map.get(&"f1".into()).unwrap(), 125.0);
        approx(*map.get(&"f2".into()).unwrap(), 50.0);
        assert_eq!(map.len(), 2);
        approx(map.values().sum(), 175.0);
    }

    #[test]
    fn a_fully_evicted_file_keeps_its_slot() {
        let mut lru = LruLists::new();
        let f: FileId = "f".into();
        let key = lru.key_or_insert(&f);
        let other = lru.key_or_insert(&"other".into());
        lru.add_clean(key, 100.0, t(1.0));
        lru.add_clean(other, 50.0, t(2.0));
        approx(lru.evict(100.0, ReclaimScope::Host(None)), 100.0);
        approx(lru.cached_amount(key), 0.0);
        assert!(!lru.cached_per_file().contains_key(&f));
        assert_eq!(lru.files.len(), 2, "the empty slot stays");
        lru.check_invariants().unwrap();
        lru.add_clean(key, 40.0, t(3.0));
        assert_eq!(lru.key(&f), Some(key));
        approx(lru.cached_amount(key), 40.0);
        approx(lru.dirty_amount(key), 0.0);
        approx(lru.evictable(Some(key)), 50.0);
        approx(lru.cached_per_file()[&f], 40.0);
        lru.check_invariants().unwrap();
    }

    #[test]
    fn grouped_file_keeps_its_group_through_full_eviction() {
        let mut lru = LruLists::new();
        let f: FileId = "f".into();
        lru.set_file_group(f.clone(), Some(3));
        let key = lru.key(&f).unwrap();
        lru.add_clean(key, 100.0, t(1.0));
        approx(lru.evict(100.0, ReclaimScope::Group(3)), 100.0);
        assert_eq!(lru.file_group(&f), Some(3));
        approx(lru.group_cached(3), 0.0);
        assert!(!lru.cached_per_file().contains_key(&f));
        lru.check_invariants().unwrap();
        // The group's bytes come back with the file's data.
        lru.add_clean(key, 60.0, t(2.0));
        approx(lru.group_cached(3), 60.0);
        lru.add_dirty(key, 20.0, t(3.0));
        approx(lru.group_dirty(3), 20.0);
        // Invalidation drops the data but keeps the group: new bytes of the
        // file count to it again.
        approx(lru.invalidate_file(key), 80.0);
        assert_eq!(lru.file_group(&f), Some(3));
        approx(lru.group_cached(3), 0.0);
        approx(lru.group_dirty(3), 0.0);
        lru.add_dirty(key, 25.0, t(4.0));
        approx(lru.group_cached(3), 25.0);
        approx(lru.group_dirty(3), 25.0);
        lru.check_invariants().unwrap();
        // Clearing the group of an empty file keeps its slot.
        lru.invalidate_file(key);
        assert_eq!(lru.file_group(&f), Some(3));
        lru.set_file_group(f.clone(), None);
        assert_eq!(lru.file_group(&f), None);
        assert_eq!(lru.files.len(), 1);
        lru.check_invariants().unwrap();
    }

    #[test]
    fn an_invalidated_file_keeps_its_key_and_size() {
        let mut lru = LruLists::new();
        let f = FileId::new("f");
        let key = lru.files.create(&f, 300.0, |_| Ok(())).unwrap();
        lru.add_dirty(key, 100.0, t(1.0));
        approx(lru.invalidate_file(key), 100.0);
        // Same key, same size, fresh cache state.
        assert_eq!(lru.files.size(&f), Ok((key, 300.0)));
        approx(lru.cached_amount(key), 0.0);
        lru.check_invariants().unwrap();
        lru.add_clean(key, 30.0, t(2.0));
        assert_eq!(lru.key(&f), Some(key));
        assert_eq!(lru.files.len(), 1);
        approx(lru.cached_amount(key), 30.0);
        approx(lru.dirty_amount(key), 0.0);
        lru.check_invariants().unwrap();
    }

    #[test]
    fn add_invalidate_cycles_keep_one_slot_per_file() {
        let mut lru = LruLists::new();
        lru.set_file_group("grouped".into(), Some(1));
        let live = lru.key_or_insert(&"live".into());
        lru.add_clean(live, 10.0, t(0.0));
        let f = FileId::new("cycled");
        for i in 0..1_000 {
            let key = lru.key_or_insert(&f);
            assert_eq!(key, 2, "the file keeps its key");
            lru.add_dirty(key, 10.0, t(i as f64));
            lru.invalidate_file(key);
        }
        assert_eq!(lru.files.len(), 3, "one slot per file");
        lru.check_invariants().unwrap();
    }

    #[test]
    fn work_counts_every_reclaim_call_with_a_positive_amount() {
        let mut lru = LruLists::new();
        let d = lru.key_or_insert(&"d".into());
        let c = lru.key_or_insert(&"c".into());
        lru.add_dirty(d, 100.0, t(1.0));
        lru.add_clean(c, 100.0, t(2.0));
        lru.evict(0.0, ReclaimScope::Host(None));
        lru.flush_lru(-1.0, ReclaimScope::Host(None));
        assert_eq!((lru.work().evict_calls, lru.work().writeback_calls), (0, 0));
        lru.evict(10.0, ReclaimScope::Host(None));
        lru.evict(10.0, ReclaimScope::Group(1)); // nothing in the group
        lru.flush_lru(10.0, ReclaimScope::Host(None));
        lru.flush_lru(10.0, ReclaimScope::Group(1));
        lru.flush_lru(10.0, ReclaimScope::Host(None));
        let work = lru.work();
        assert_eq!((work.evict_calls, work.writeback_calls), (2, 3));
        assert_eq!((work.evict_visits, work.writeback_visits), (1, 2));
    }

    #[test]
    fn read_cache_total_is_conserved() {
        // Reading cached data must never change the total amount cached.
        let mut lru = LruLists::new();
        let other = lru.key_or_insert(&"other".into());
        let f = lru.key_or_insert(&"f".into());
        lru.add_clean(f, 100.0, t(1.0));
        lru.add_dirty(f, 60.0, t(2.0));
        lru.add_clean(other, 40.0, t(3.0));
        let before = lru.total_cached();
        lru.read_cached(f, 130.0, t(4.0));
        approx(lru.total_cached(), before);
        approx(lru.total_dirty(), 60.0);
        lru.check_invariants().unwrap();
    }

    #[test]
    fn two_q_ghost_hit_readmits_to_the_main_list() {
        let mut lru = LruLists::with_policy(EvictionPolicy::TwoQ);
        let cold = lru.key_or_insert(&"cold".into());
        let f = lru.key_or_insert(&"reread".into());
        lru.add_clean(f, 100.0, t(1.0));
        assert_eq!(lru.tier_blocks(0).count(), 1); // probationary A1in
        lru.evict(100.0, ReclaimScope::Host(None)); // evicted from A1in -> remembered as a ghost
        approx(lru.cached_amount(f), 0.0);
        // The ghost hit routes the re-fetched data straight to Am (tier 1).
        lru.add_clean(f, 100.0, t(2.0));
        assert_eq!(lru.tier_blocks(0).count(), 0);
        assert_eq!(lru.tier_blocks(1).count(), 1);
        // A1in drains before Am: the newer cold block is reclaimed first.
        lru.add_clean(cold, 100.0, t(3.0));
        let evicted = lru.evict(100.0, ReclaimScope::Host(None));
        approx(evicted, 100.0);
        approx(lru.cached_amount(f), 100.0);
        approx(lru.cached_amount(cold), 0.0);
        lru.check_invariants().unwrap();
    }

    #[test]
    fn every_policy_keeps_invariants_under_a_mixed_workload() {
        for policy in EvictionPolicy::ALL {
            let mut lru = LruLists::with_policy(policy);
            assert_eq!(lru.policy_kind(), policy);
            let mut clock = 0.0;
            for round in 0..30 {
                clock += 1.0;
                let f = lru.key_or_insert(&FileId::new(format!("f{}", round % 5)));
                match round % 6 {
                    0 | 1 => lru.add_clean(f, 50.0, t(clock)),
                    2 => lru.add_dirty(f, 30.0, t(clock)),
                    3 => {
                        lru.read_cached(f, 40.0, t(clock));
                    }
                    4 => {
                        lru.flush_lru(60.0, ReclaimScope::Host(None));
                    }
                    _ => {
                        lru.evict(80.0, ReclaimScope::Host(None));
                    }
                }
                lru.check_invariants()
                    .unwrap_or_else(|e| panic!("{policy}: {e}"));
            }
        }
    }

    /// Tiny xorshift PRNG for the seeded churn (no external dependencies).
    struct XorShift(u64);

    impl XorShift {
        /// A value in `[0, bound)`.
        fn below(&mut self, bound: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % bound
        }
    }

    /// A seeded mix of writes, reads, flushes and evictions over four files.
    /// Timestamps repeat (so blocks split, merge and coalesce) and sizes are
    /// not whole numbers (so every `f64` sum rounds).
    fn churn(policy: EvictionPolicy, seed: u64) -> LruLists {
        let mut lru = LruLists::with_policy(policy);
        let mut rng = XorShift(seed);
        let files: Vec<u64> = (0..4)
            .map(|i| lru.key_or_insert(&FileId::new(format!("f{i}"))))
            .collect();
        let mut clock = 0.0;
        for _ in 0..2000 {
            if rng.below(3) == 0 {
                clock += 0.25 * (1 + rng.below(4)) as f64;
            }
            let now = t(clock);
            let f = files[rng.below(4) as usize];
            let size = 1.0 + rng.below(4096) as f64 * 0.37;
            match rng.below(8) {
                0 | 1 => lru.add_clean(f, size, now),
                2 => lru.add_dirty(f, size, now),
                3 | 4 => {
                    lru.read_cached(f, 3.0 * size, now);
                }
                5 => {
                    lru.flush_lru(size, ReclaimScope::Host(None));
                }
                6 => {
                    lru.evict(2.0 * size, ReclaimScope::Host(Some(f)));
                }
                _ => {
                    lru.flush_expired(now, 5.0);
                }
            }
        }
        lru
    }

    /// The churn's final byte totals as bits: per tier `bytes`, `dirty`,
    /// then per file (in name order) `cached`, `dirty`, `inactive_bytes`,
    /// `inactive_clean`.
    fn churn_bits(lru: &LruLists) -> Vec<u64> {
        let mut bits: Vec<u64> = lru
            .lists
            .iter()
            .flat_map(|l| [l.agg.bytes, l.agg.dirty])
            .map(f64::to_bits)
            .collect();
        let mut files: Vec<(&FileId, &FileBytes)> = lru
            .files
            .iter()
            .map(|(_, file, f)| (file, &f.bytes))
            .collect();
        files.sort_by_key(|&(file, _)| file.clone());
        for (_, f) in files {
            let sums = [f.cached, f.dirty, f.inactive_bytes, f.inactive_clean];
            bits.extend(sums.map(f64::to_bits));
        }
        bits
    }

    #[test]
    fn a_seeded_churn_keeps_its_aggregate_bits_and_work() {
        // The bits pin the order of every aggregate update: a block move
        // that added or removed bytes in another order would change one.
        const TWO_LIST: [u64; 20] = [
            0x40ed716147ae147a,
            0x40ae55f0a3d70a43,
            0x40fbc6f63d70a3d9,
            0x3d60000000000000,
            0x40e716b19999999b,
            0x40a183f5c28f5c2a,
            0x40dd5f6147ae147b,
            0x40db2ee28f5c28f8,
            0x40e5489147ae147d,
            0x4091bd3d70a3d70a,
            0x40bc7428f5c28f5d,
            0x40b804d99999999c,
            0x40e21720a3d70a3f,
            0x407f9ae147ae148a,
            0x40cf52828f5c28f2,
            0x40ce55ab851eb84e,
            0x40e688ea3d70a3dd,
            0x3d54000000000000,
            0x40baf4570a3d70a2,
            0x40baf4570a3d70a7,
        ];
        const TWO_Q: [u64; 20] = [
            0x409c4d5c28f5c2a4,
            0x4087b1eb851eb857,
            0x41049adbd70a3d77,
            0x409dd670a3d70a48,
            0x40e6a6c4ccccccc9,
            0x4097f228f5c28f5e,
            0x40e6a6c4ccccccc9,
            0x40e5e733851eb84a,
            0x40e40e47ae147adf,
            0x4091bd3d70a3d70c,
            0x40e40e47ae147adf,
            0x40e3805dc28f5c22,
            0x40e3e77947ae147d,
            0x3d80000000000000,
            0x40e3e77947ae147d,
            0x40e3e77947ae147d,
            0x40e4b1547ae147b2,
            0x3d60000000000000,
            0x40e4b1547ae147b2,
            0x40e4b1547ae147b3,
        ];
        let expected = [
            (EvictionPolicy::TwoList, TWO_LIST, 121, (796, 353, 2515)),
            (EvictionPolicy::TwoQ, TWO_Q, 98, (1028, 348, 0)),
        ];
        for (policy, bits, blocks, (evict_visits, flush_visits, insert_steps)) in expected {
            let lru = churn(policy, 30);
            assert_eq!(churn_bits(&lru), bits, "{policy}");
            assert_eq!(lru.block_count(), blocks, "{policy}");
            let work = lru.work();
            assert_eq!(
                (work.evict_calls, work.writeback_calls),
                (252, 245),
                "{policy}"
            );
            assert_eq!(
                (work.evict_visits, work.writeback_visits, work.insert_steps),
                (evict_visits, flush_visits, insert_steps),
                "{policy}"
            );
        }
    }

    #[test]
    fn a_warm_reread_moves_the_files_nodes_in_place() {
        let mut lru = LruLists::new();
        let other = lru.key_or_insert(&"other".into());
        let f = lru.key_or_insert(&"f".into());
        lru.add_clean(f, 100.0, t(0.0));
        // Dirty blocks never coalesce: k whole blocks.
        for i in 1..=4 {
            lru.add_dirty(f, 10.0 * i as f64, t(i as f64));
        }
        // A freed node, so the free list the re-read must not touch is not
        // empty.
        lru.add_clean(other, 50.0, t(5.0));
        lru.evict(50.0, ReclaimScope::Host(Some(f)));
        approx(lru.read_cached(f, 200.0, t(6.0)), 200.0);
        // The first read merged the clean block; the file now has one clean
        // and four dirty nodes on the active list.
        let nodes = |lru: &LruLists| {
            let mut out = Vec::new();
            let mut i = lru.files.get(f).chains[ACTIVE_TIER].head;
            while i != NIL {
                out.push(i);
                i = node_ref(&lru.arena, i).links[FILE].next;
            }
            out
        };
        let free_list = |lru: &LruLists| {
            let mut out = Vec::new();
            let mut i = lru.free_head;
            while let Some(Slot::Vacant { next_free }) = lru.arena.get(i as usize) {
                out.push(i);
                i = *next_free;
            }
            out
        };
        let before = (nodes(&lru), lru.arena.len(), free_list(&lru));
        assert_eq!(before.0.len(), 5);
        approx(lru.read_cached(f, 200.0, t(7.0)), 200.0);
        assert_eq!((nodes(&lru), lru.arena.len(), free_list(&lru)), before);
        assert!(lru.active_blocks().all(|b| b.last_access == t(7.0)));
        lru.check_invariants().unwrap();
    }

    #[test]
    fn out_of_order_insert_lands_at_sorted_position() {
        let mut lru = LruLists::new();
        let mid = lru.key_or_insert(&"mid".into());
        let new = lru.key_or_insert(&"new".into());
        // Force a demotion whose last_access falls between two inactive
        // blocks: the demoted block must land between them.
        let f = lru.key_or_insert(&"old".into());
        lru.add_clean(f, 10.0, t(1.0));
        lru.read_cached(f, 10.0, t(2.0)); // active, la = 2
        lru.add_clean(mid, 1.0, t(1.5));
        lru.add_clean(new, 1.0, t(3.0));
        lru.balance();
        let la: Vec<f64> = lru
            .inactive_blocks()
            .map(|b| b.last_access.as_secs())
            .collect();
        let mut sorted = la.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(la, sorted, "inactive list must stay sorted: {la:?}");
        lru.check_invariants().unwrap();
    }
}
