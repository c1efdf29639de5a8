//! The engine's timer queue: a `(time, seq)`-ordered binary heap.
//!
//! Every `sleep`, storage-transfer completion and callback goes through
//! [`TimerQueue::schedule`] / [`TimerQueue::pop`]. The queue is exposed here
//! so that the randomized differential test can drive it against a trivially
//! correct reference model over adversarial op streams. It is **not** a
//! stable public API; simulated processes never touch it directly.
//!
//! ## Firing-order contract
//!
//! Timers pop in exactly `(time, seq)` order: virtual time first, schedule
//! sequence number second. `seq` is unique per engine, so the order is total
//! and the simulation stays deterministic under dense timer collisions.
//!
//! ## Cancellation
//!
//! The engine's timer slab is the liveness authority: cancelling a timer
//! removes its action there and calls [`TimerQueue::cancel`], which only
//! counts the dead key. A dead key is dropped when it surfaces at
//! [`TimerQueue::peek`], or all dead keys go in one `retain` pass once they
//! outnumber live ones and exceed a fixed floor of 64. This bounds
//! the physical size at about twice the live count under cancel storms,
//! so timeout/hedge-heavy workloads cannot grow the heap without bound.
//!
//! ## Complexity
//!
//! With n physical keys (at most about twice the live ones): schedule and
//! pop are O(log n), cancel is O(1) plus an amortized O(1) share of the
//! compaction pass it may trigger. A pipeline run keeps about one timer
//! armed per instance: 65 at the paper's 64 instances, 8194 at the Fig. 8
//! ladder's 8192. At those sizes the heap was faster than or level with a
//! six-level timer wheel, which placed each timer again on 1–3 levels
//! before it fired.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Identifier of a scheduled timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// Builds a `TimerId` from a raw integer.
    ///
    /// Only scheduler-level tests construct ids directly; the engine's ids
    /// are keys in its timer [`Slab`](crate::Slab).
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

/// Dead keys are compacted away only once more than this many have
/// accumulated. Below it, dead keys cost a few heap levels at most and
/// mostly surface at `peek` on their own.
const COMPACT_MIN_CANCELLED: usize = 64;

/// The timer queue. See the [module docs](self) for the design.
#[derive(Default)]
pub struct TimerQueue {
    heap: BinaryHeap<Reverse<TimerKey>>,
    /// Cancelled keys still in `heap`.
    cancelled: usize,
}

impl TimerQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of physically stored keys, including cancelled ones not yet
    /// reclaimed. The bounded-size guarantee under cancel storms is on this
    /// number.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no keys are stored at all.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of live (not cancelled) keys.
    pub fn live(&self) -> usize {
        self.heap.len() - self.cancelled
    }

    /// Inserts a key.
    pub fn schedule(&mut self, key: TimerKey) {
        self.heap.push(Reverse(key));
    }

    /// The earliest live key, or `None` if none remain. Cancelled keys
    /// reaching the top are discarded on the way (`live` decides: it
    /// receives a stored id and returns whether that timer is still armed).
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

    /// Records that one stored key was cancelled: its timer no longer
    /// passes `live`. Once cancelled keys outnumber live ones (and exceed
    /// `COMPACT_MIN_CANCELLED`), drops all of them in one pass, which
    /// amortizes to O(1) per cancellation.
    pub fn cancel(&mut self, mut live: impl FnMut(TimerId) -> bool) {
        self.cancelled += 1;
        debug_assert!(self.cancelled <= self.heap.len());
        if self.cancelled > COMPACT_MIN_CANCELLED && self.cancelled * 2 > self.heap.len() {
            self.heap.retain(|Reverse(k)| live(k.id));
            self.cancelled = 0;
        }
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

    /// Derived `PartialEq` would compare `(time, seq, id)` while `Ord`
    /// compares `(time, seq)`, so two keys could be `cmp == Equal` yet `!=`
    /// — violating the consistency contract `BinaryHeap` assumes. Both
    /// agree on `(time, seq)`.
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
        let mut q = TimerQueue::new();
        // Scrambled times including exact ties, sub-microsecond spacings,
        // a far-future deadline and infinity.
        let keys = [
            key(5.0, 1, 0),
            key(1.0, 2, 1),
            key(5.0, 3, 2), // tie with seq 1 on time
            key(1.0 + 1e-9, 4, 3),
            key(0.25, 5, 4),
            key(f64::INFINITY, 6, 5),
            key(1e5, 7, 6),
            key(0.0, 8, 7),
        ];
        for k in keys {
            q.schedule(k);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop(|_| true))
            .map(|k| k.id.raw())
            .collect();
        assert_eq!(order, vec![7, 4, 1, 3, 0, 2, 6, 5]);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_storm_is_reclaimed_by_compaction() {
        let mut q = TimerQueue::new();
        let mut dead = vec![false; 100_000];
        let mut seq = 0u64;
        let mut peak = 0usize;
        for _round in 0..100 {
            let round_ids: Vec<u64> = (0..1000)
                .map(|i| {
                    seq += 1;
                    q.schedule(key(86_000.0 + i as f64, seq, seq - 1));
                    seq - 1
                })
                .collect();
            for id in round_ids {
                dead[id as usize] = true;
                q.cancel(|t| !dead[t.raw() as usize]);
            }
            peak = peak.max(q.len());
        }
        assert_eq!(q.live(), 0);
        // 100k keys were scheduled and cancelled; the queue never held more
        // than a small multiple of one round's worth.
        assert!(peak <= 4096, "peak physical size {peak} not bounded");
        assert!(q.pop(|t| !dead[t.raw() as usize]).is_none());
    }
}
