//! Timer schedulers: the hierarchical timer wheel used by the engine and a
//! naive binary-heap reference model.
//!
//! The wheel is the engine's hot path — every `sleep`, storage-transfer
//! completion and callback goes through [`TimerWheel::schedule`] /
//! [`TimerWheel::pop`] — so it is exposed here (rather than buried in the
//! engine) for two reasons: the randomized differential test drives it
//! side-by-side with [`NaiveHeapScheduler`] over mixed op streams, and the
//! `des_engine` benchmarks measure both implementations on identical
//! workloads. It is **not** a stable public API; simulated processes never
//! touch it directly.
//!
//! ## Firing-order contract
//!
//! Both schedulers pop timers in exactly `(time, seq)` order: virtual time
//! first, schedule sequence number second. `seq` is unique per engine, so the
//! order is total and the simulation stays deterministic under dense timer
//! collisions. The wheel reproduces this order *bit-exactly* — it is not an
//! approximation of the heap, which is what allows swapping it in without
//! regenerating any golden baseline.
//!
//! ## Wheel shape
//!
//! Virtual time is quantized to ticks of 2⁻²⁰ s (≈ 0.95 µs; the scale factor
//! is a power of two, so the f64 → tick mapping involves no rounding and is
//! strictly monotonic). Six levels of 64 slots each cover 64⁶ = 2³⁶ ticks
//! (≈ 18 virtual hours) ahead of the cursor:
//!
//! | level | slot width          | range covered    |
//! |-------|---------------------|------------------|
//! | 0     | 1 tick (≈ 1 µs)     | 64 ticks         |
//! | 1     | 64 ticks (≈ 61 µs)  | 4096 ticks       |
//! | 2     | ≈ 3.9 ms            | ≈ 250 ms         |
//! | 3     | ≈ 250 ms            | ≈ 16 s           |
//! | 4     | ≈ 16 s              | ≈ 17 min         |
//! | 5     | ≈ 17 min            | ≈ 18 h           |
//!
//! An entry lives at the level of the highest bit in which its tick differs
//! from the cursor (the tokio/dslab "hashed hierarchical wheel" placement),
//! so every slot index at that level is strictly ahead of the cursor — no
//! modular wrap-around is needed and a per-level occupancy bitmap finds the
//! next non-empty slot with one `trailing_zeros`. Entries further than 2³⁶
//! ticks out (or at `t = ∞`) wait in an **overflow heap** and are folded into
//! the wheel when the cursor reaches their 2³⁶-tick page.
//!
//! **Cascade rule:** when the earliest occupied slot is at level `l > 0`, the
//! cursor jumps to that slot's start tick and the slot's entries are
//! re-scheduled relative to the new cursor — each lands at a strictly lower
//! level, so an entry cascades at most `LEVELS` times over its lifetime.
//! Level-0 slots hold exactly one tick, whose entries are drained into a
//! small **front heap** ordered by `(time, seq)`; the front heap restores
//! sub-tick f64 ordering and absorbs entries scheduled at or before the
//! cursor (the cursor may run ahead of the engine's clock after a peek).
//!
//! ## Cancellation
//!
//! Cancellation is O(1): the engine removes the timer's action from its slab
//! and calls [`TimerWheel::note_cancel`]; the dead key is discarded when it
//! surfaces at the front, or reclaimed in bulk by [`TimerWheel::compact`]
//! once cancelled keys outnumber live ones ([`TimerWheel::should_compact`]).
//! This bounds the physical size at ~2× the live count under cancel storms —
//! the `BinaryHeap` engine kept dead keys until popped and paid
//! O(log garbage) per push on timeout/hedge-heavy workloads.
//!
//! ## Complexity
//!
//! | operation  | wheel                     | binary heap      |
//! |------------|---------------------------|------------------|
//! | schedule   | O(1)                      | O(log n)         |
//! | pop        | amortized O(1)            | O(log n)         |
//! | cancel     | O(1), amortized reclaim   | O(1), never reclaimed |
//! | space      | ≤ 2× live entries         | live + all dead  |

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Identifier of a scheduled timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// Builds a `TimerId` from a raw integer.
    ///
    /// Only scheduler-level tests and benchmarks construct ids directly; the
    /// engine's ids are keys in its timer [`Slab`](crate::Slab).
    pub fn from_raw(raw: u64) -> TimerId {
        TimerId(raw)
    }

    /// The raw integer behind this id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A scheduled timer's position in the firing order.
///
/// Ordering — and, consistently, equality — is by `(time, seq)`. The engine
/// allocates a fresh `seq` per schedule, so two distinct timers never compare
/// equal; `id` deliberately takes no part in either impl, keeping `Ord`,
/// `PartialOrd`, `PartialEq` and `Eq` mutually consistent (the contract
/// `BinaryHeap` and sort routines assume).
#[derive(Debug, Clone, Copy)]
pub struct TimerKey {
    /// Virtual firing time.
    pub time: SimTime,
    /// Engine-wide schedule sequence number; the deterministic tie-break.
    pub seq: u64,
    /// The timer this key belongs to.
    pub id: TimerId,
}

impl PartialEq for TimerKey {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl Eq for TimerKey {}

impl Ord for TimerKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for TimerKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const LEVELS: usize = 6;
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;
/// Ticks per virtual second: 2²⁰, so seconds → ticks is an exact f64
/// exponent shift and the mapping is strictly monotonic.
const TICKS_PER_SEC: f64 = (1u64 << 20) as f64;
/// Compaction is considered once this many cancelled keys have accumulated.
/// Large enough that a compaction pass (which visits all `LEVELS × SLOTS`
/// buckets) amortizes to well under one bucket visit per cancellation.
const COMPACT_MIN_CANCELLED: usize = 1024;

#[inline]
fn tick_of(time: SimTime) -> u64 {
    // Saturating cast: +inf and times beyond u64 range map to u64::MAX and
    // simply stay in the overflow heap until everything else has fired.
    (time.as_secs() * TICKS_PER_SEC) as u64
}

/// The hierarchical timer wheel. See the [module docs](self) for the design.
pub struct TimerWheel {
    /// Tick of the batch currently draining through the front heap. Entries
    /// in wheel slots always have `tick > cursor`; the front heap holds
    /// everything with `tick <= cursor`.
    cursor: u64,
    /// `(time, seq)`-ordered min-heap of the imminent entries.
    front: BinaryHeap<Reverse<TimerKey>>,
    /// `LEVELS × SLOTS` buckets, flattened.
    slots: Vec<Vec<TimerKey>>,
    /// Per-level bitmap of non-empty slots.
    occupied: [u64; LEVELS],
    /// Entries beyond the wheel's 2³⁶-tick page, ordered by `(time, seq)`.
    overflow: BinaryHeap<Reverse<TimerKey>>,
    /// Physical entries across front + slots + overflow (live + cancelled).
    len: usize,
    /// Cancelled entries still physically present.
    cancelled: usize,
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerWheel {
    /// Creates an empty wheel with the cursor at tick 0.
    pub fn new() -> Self {
        TimerWheel {
            cursor: 0,
            front: BinaryHeap::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            len: 0,
            cancelled: 0,
        }
    }

    /// Number of physically stored keys, including cancelled ones not yet
    /// reclaimed. The bounded-size guarantee under cancel storms is on this
    /// number.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no keys are stored at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of live (not cancelled) keys.
    pub fn live(&self) -> usize {
        self.len - self.cancelled
    }

    /// Inserts a key. O(1).
    pub fn schedule(&mut self, key: TimerKey) {
        let tick = tick_of(key.time);
        self.len += 1;
        if tick <= self.cursor {
            // At or behind the draining batch (the cursor can run ahead of
            // the engine clock after a peek): the front heap keeps the exact
            // (time, seq) order regardless.
            self.front.push(Reverse(key));
            return;
        }
        let diff = tick ^ self.cursor;
        if diff >> WHEEL_BITS != 0 {
            self.overflow.push(Reverse(key));
            return;
        }
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level * SLOTS + slot].push(key);
        self.occupied[level] |= 1 << slot;
    }

    /// The earliest live key, or `None` if none remain. Cancelled keys
    /// reaching the front are discarded on the way (`live` decides: it
    /// receives a stored id and returns whether that timer is still armed).
    pub fn peek(&mut self, mut live: impl FnMut(TimerId) -> bool) -> Option<TimerKey> {
        loop {
            self.prime();
            let &Reverse(head) = self.front.peek()?;
            if live(head.id) {
                return Some(head);
            }
            self.front.pop();
            self.len -= 1;
            self.cancelled -= 1;
        }
    }

    /// Removes and returns the earliest live key. Amortized O(1).
    pub fn pop(&mut self, live: impl FnMut(TimerId) -> bool) -> Option<TimerKey> {
        let key = self.peek(live)?;
        self.front.pop();
        self.len -= 1;
        Some(key)
    }

    /// Records that one stored key was cancelled (its action revoked by the
    /// engine). The key itself is reclaimed lazily; see [`Self::compact`].
    pub fn note_cancel(&mut self) {
        self.cancelled += 1;
        debug_assert!(self.cancelled <= self.len);
    }

    /// Whether cancelled keys have accumulated enough to be worth a
    /// compaction pass (they outnumber live keys).
    pub fn should_compact(&self) -> bool {
        self.cancelled > COMPACT_MIN_CANCELLED && self.cancelled * 2 > self.len
    }

    /// Drops every cancelled key in one O(physical) pass. Amortized against
    /// the cancellations that triggered it, this keeps the physical size
    /// bounded by ~2× the live count.
    pub fn compact(&mut self, mut live: impl FnMut(TimerId) -> bool) {
        let mut total = drain_filter_heap(&mut self.front, &mut live);
        total += drain_filter_heap(&mut self.overflow, &mut live);
        for level in 0..LEVELS {
            for slot in 0..SLOTS {
                let bucket = &mut self.slots[level * SLOTS + slot];
                if bucket.is_empty() {
                    continue;
                }
                bucket.retain(|k| live(k.id));
                total += bucket.len();
                if bucket.is_empty() {
                    self.occupied[level] &= !(1u64 << slot);
                }
            }
        }
        self.len = total;
        self.cancelled = 0;
    }

    /// Ensures the front heap holds the globally earliest batch: advances the
    /// cursor to the next occupied tick, cascading higher-level slots and
    /// folding in the overflow page as needed. Pure reorganization — firing
    /// order is untouched.
    fn prime(&mut self) {
        while self.front.is_empty() {
            let Some(level) = (0..LEVELS).find(|&l| self.occupied[l] != 0) else {
                // Wheel empty: jump to the overflow's page, if any.
                let Some(Reverse(min)) = self.overflow.pop() else {
                    return;
                };
                self.cursor = tick_of(min.time);
                self.front.push(Reverse(min));
                let page = self.cursor >> WHEEL_BITS;
                while let Some(Reverse(k)) = self.overflow.peek() {
                    if tick_of(k.time) >> WHEEL_BITS != page {
                        break;
                    }
                    let Reverse(k) = self.overflow.pop().expect("peeked entry");
                    self.len -= 1; // schedule() re-counts it
                    self.schedule(k);
                }
                return;
            };
            let slot = self.occupied[level].trailing_zeros() as u64;
            let shift = SLOT_BITS * level as u32;
            // The slot's start tick: shared high bits, this slot's digit,
            // zeros below. Strictly ahead of the old cursor, at or before
            // every entry in the slot.
            self.cursor = (((self.cursor >> (shift + SLOT_BITS)) << SLOT_BITS) | slot) << shift;
            self.occupied[level] &= !(1u64 << slot as usize);
            // Swap the bucket out, drain it, swap it back: cascades target
            // strictly lower levels (and level 0 drains to the front heap),
            // never this bucket, and keeping it preserves its allocation —
            // slot buckets are reused millions of times on dense workloads.
            let mut entries = std::mem::take(&mut self.slots[level * SLOTS + slot as usize]);
            if level == 0 {
                // A level-0 slot is exactly one tick: the whole batch is the
                // next to fire, ordered within by the front heap.
                for k in entries.drain(..) {
                    self.front.push(Reverse(k));
                }
            } else {
                // Cascade: re-place relative to the advanced cursor; each
                // entry lands at a strictly lower level (or the front).
                for k in entries.drain(..) {
                    self.len -= 1; // schedule() re-counts it
                    self.schedule(k);
                }
            }
            self.slots[level * SLOTS + slot as usize] = entries;
        }
    }
}

/// Rebuilds `heap` keeping only live keys; returns how many were kept.
fn drain_filter_heap(
    heap: &mut BinaryHeap<Reverse<TimerKey>>,
    live: &mut dyn FnMut(TimerId) -> bool,
) -> usize {
    let kept: Vec<Reverse<TimerKey>> = std::mem::take(heap)
        .into_iter()
        .filter(|Reverse(k)| live(k.id))
        .collect();
    let n = kept.len();
    *heap = BinaryHeap::from(kept);
    n
}

/// The pre-wheel scheduler: a plain `(time, seq)`-ordered binary heap.
///
/// Kept as the differential reference model and benchmark baseline. It
/// faithfully reproduces the old engine's behavior, including the
/// cancelled-key leak: dead keys stay in the heap until they surface at the
/// top ([`NaiveHeapScheduler::note_cancel`] only counts them), so pushes pay
/// O(log garbage) under cancel storms — the cost the wheel's compaction
/// eliminates.
#[derive(Default)]
pub struct NaiveHeapScheduler {
    heap: BinaryHeap<Reverse<TimerKey>>,
    cancelled: usize,
}

impl NaiveHeapScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of physically stored keys, cancelled ones included.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of live keys.
    pub fn live(&self) -> usize {
        self.heap.len() - self.cancelled
    }

    /// Inserts a key. O(log n) — n includes dead keys.
    pub fn schedule(&mut self, key: TimerKey) {
        self.heap.push(Reverse(key));
    }

    /// The earliest live key; discards dead keys surfacing at the top.
    pub fn peek(&mut self, mut live: impl FnMut(TimerId) -> bool) -> Option<TimerKey> {
        loop {
            let &Reverse(head) = self.heap.peek()?;
            if live(head.id) {
                return Some(head);
            }
            self.heap.pop();
            self.cancelled -= 1;
        }
    }

    /// Removes and returns the earliest live key.
    pub fn pop(&mut self, live: impl FnMut(TimerId) -> bool) -> Option<TimerKey> {
        let key = self.peek(live)?;
        self.heap.pop();
        Some(key)
    }

    /// Records a cancellation. The key is **not** reclaimed — this is the
    /// leak the wheel fixes, kept for differential honesty.
    pub fn note_cancel(&mut self) {
        self.cancelled += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(time: f64, seq: u64, id: u64) -> TimerKey {
        TimerKey {
            time: SimTime::from_secs(time),
            seq,
            id: TimerId(id),
        }
    }

    /// The satellite bugfix: derived `PartialEq` used to compare
    /// `(time, seq, id)` while `Ord` compared `(time, seq)`, so two keys
    /// could be `cmp == Equal` yet `!=` — violating the consistency contract
    /// `BinaryHeap` assumes. Both now agree on `(time, seq)`.
    #[test]
    fn ord_and_eq_are_consistent() {
        let a = key(1.0, 7, 100);
        let b = key(1.0, 7, 200); // same (time, seq), different id
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_eq!(a, b, "cmp == Equal must imply eq");
        assert_eq!(a.partial_cmp(&b), Some(std::cmp::Ordering::Equal));

        let c = key(1.0, 8, 100);
        assert_ne!(a, c);
        assert!(a < c, "seq breaks ties");
        let d = key(2.0, 0, 0);
        assert!(c < d, "time dominates");
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        // Scrambled times including exact ties and sub-tick spacings.
        let keys = [
            key(5.0, 1, 0),
            key(1.0, 2, 1),
            key(5.0, 3, 2),        // tie with seq 1 on time
            key(1.0 + 1e-9, 4, 3), // same tick as 1.0, later f64 time
            key(0.25, 5, 4),
            key(1e5, 6, 5), // overflow range (beyond ~18 h page)
            key(0.0, 7, 6),
        ];
        for k in keys {
            w.schedule(k);
        }
        let mut order = Vec::new();
        while let Some(k) = w.pop(|_| true) {
            order.push(k.id.raw());
        }
        assert_eq!(order, vec![6, 4, 1, 3, 0, 2, 5]);
        assert!(w.is_empty());
    }

    #[test]
    fn schedule_behind_cursor_goes_to_front() {
        let mut w = TimerWheel::new();
        w.schedule(key(100.0, 1, 0));
        // Peek primes the wheel: the cursor advances to the 100 s tick.
        assert_eq!(w.peek(|_| true).unwrap().id.raw(), 0);
        // A later schedule at an earlier time must still fire first.
        w.schedule(key(50.0, 2, 1));
        assert_eq!(w.pop(|_| true).unwrap().id.raw(), 1);
        assert_eq!(w.pop(|_| true).unwrap().id.raw(), 0);
    }

    #[test]
    fn infinity_fires_last() {
        let mut w = TimerWheel::new();
        w.schedule(key(f64::INFINITY, 1, 0));
        w.schedule(key(3.0, 2, 1));
        w.schedule(key(f64::INFINITY, 3, 2));
        let order: Vec<u64> = std::iter::from_fn(|| w.pop(|_| true))
            .map(|k| k.id.raw())
            .collect();
        assert_eq!(order, vec![1, 0, 2]);
    }

    #[test]
    fn cancel_storm_is_reclaimed_by_compaction() {
        let mut w = TimerWheel::new();
        let mut dead = vec![false; 200_000];
        let mut seq = 0u64;
        let mut next_id = 0u64;
        let mut peak = 0usize;
        for _round in 0..100 {
            let round_ids: Vec<u64> = (0..1000)
                .map(|i| {
                    let id = next_id;
                    next_id += 1;
                    seq += 1;
                    w.schedule(key(86_000.0 + i as f64, seq, id));
                    id
                })
                .collect();
            for id in round_ids {
                dead[id as usize] = true;
                w.note_cancel();
                if w.should_compact() {
                    w.compact(|t| !dead[t.raw() as usize]);
                }
            }
            peak = peak.max(w.len());
        }
        assert_eq!(w.live(), 0);
        // 100k keys were scheduled and cancelled; the wheel never held more
        // than a small multiple of one round's worth.
        assert!(peak <= 4096, "peak physical size {peak} not bounded");
        assert!(w.pop(|t| !dead[t.raw() as usize]).is_none());
    }

    #[test]
    fn naive_heap_leaks_cancelled_keys_by_design() {
        let mut h = NaiveHeapScheduler::new();
        for i in 0..1000u64 {
            h.schedule(key(10.0 + i as f64, i, i));
            h.note_cancel();
        }
        assert_eq!(h.live(), 0);
        assert_eq!(h.len(), 1000, "the reference model keeps dead keys");
        assert!(h.pop(|_| false).is_none());
        assert_eq!(h.len(), 0, "popping past dead keys drains them");
    }

    #[test]
    fn differential_smoke_against_naive_heap() {
        // A quick in-module mirror of the full randomized differential test
        // in `tests/scheduler_differential.rs`.
        let mut w = TimerWheel::new();
        let mut h = NaiveHeapScheduler::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut clock = 0.0f64;
        let mut dead = vec![false; 4000];
        let mut ids: Vec<u64> = Vec::new();
        for seq in 0..4000u64 {
            let r = rng();
            match r % 10 {
                0..=5 => {
                    let delta = match r % 4 {
                        0 => 0.0,
                        1 => (r % 64) as f64 * 1e-9,
                        2 => (r % 1000) as f64 * 1e-3,
                        _ => (r % 100) as f64 * 250.0,
                    };
                    let k = key(clock + delta, seq, seq);
                    w.schedule(k);
                    h.schedule(k);
                    ids.push(seq);
                }
                6 | 7 => {
                    let a = w.pop(|t| !dead[t.raw() as usize]);
                    let b = h.pop(|t| !dead[t.raw() as usize]);
                    assert_eq!(a, b);
                    if let Some(k) = a {
                        clock = clock.max(k.time.as_secs());
                    }
                }
                _ => {
                    if !ids.is_empty() {
                        let pick = ids.swap_remove((r % ids.len() as u64) as usize) as usize;
                        if !dead[pick] {
                            dead[pick] = true;
                            w.note_cancel();
                            if w.should_compact() {
                                w.compact(|t| !dead[t.raw() as usize]);
                            }
                            h.note_cancel();
                        }
                    }
                }
            }
        }
        loop {
            let a = w.pop(|t| !dead[t.raw() as usize]);
            let b = h.pop(|t| !dead[t.raw() as usize]);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
