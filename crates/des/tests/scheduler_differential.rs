//! Randomized differential test: the engine's [`TimerQueue`] against a
//! trivially correct reference, a `BTreeSet` of `(time, seq, id)`, over 100k
//! mixed schedule/cancel/pop/peek/horizon operations.
//!
//! The queue's contract is the `(time, seq)` firing order, bit-exactly —
//! same keys, same order, same resulting clock trace. This test drives both
//! models in lock-step through an adversarial op mix (zero deltas,
//! sub-microsecond spacings, exact collisions, far-future deadlines, cancel
//! storms across compaction, horizon stops; infinite deadlines in the
//! cancel-storm test) and asserts they never diverge. The clock-trace fingerprint is pinned, so any
//! change to the firing order fails here.

use std::collections::BTreeSet;

use des::scheduler::{TimerId, TimerKey, TimerQueue};
use des::SimTime;

/// Deterministic xorshift64* — no external RNG dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545f4914f6cdd1d)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum IdState {
    Live,
    Cancelled,
    Fired,
}

struct Harness {
    queue: TimerQueue,
    /// The reference model: every live timer, in firing order.
    reference: BTreeSet<(SimTime, u64, u64)>,
    /// Per-id lifecycle and key, indexed by raw id; the liveness authority
    /// the queue consults (mirrors the engine's timer slab).
    states: Vec<(IdState, SimTime, u64)>,
    /// Ids currently Live, for picking cancel victims.
    live_ids: Vec<u64>,
    clock: f64,
    next_seq: u64,
    /// Trace of (clock, fired id) after every successful pop, compared at
    /// the end against a pinned fingerprint.
    trace_hash: u64,
    fired: usize,
}

impl Harness {
    fn new() -> Self {
        Harness {
            queue: TimerQueue::new(),
            reference: BTreeSet::new(),
            states: Vec::new(),
            live_ids: Vec::new(),
            clock: 0.0,
            next_seq: 0,
            trace_hash: 0xcbf29ce484222325,
            fired: 0,
        }
    }

    fn is_live(states: &[(IdState, SimTime, u64)], t: TimerId) -> bool {
        states[t.raw() as usize].0 == IdState::Live
    }

    fn schedule(&mut self, delta: f64) {
        let id = self.states.len() as u64;
        let time = SimTime::from_secs(self.clock + delta);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.states.push((IdState::Live, time, seq));
        self.live_ids.push(id);
        self.queue.schedule(TimerKey {
            time,
            seq,
            id: TimerId::from_raw(id),
        });
        self.reference.insert((time, seq, id));
    }

    fn cancel(&mut self, pick: usize) {
        if self.live_ids.is_empty() {
            return;
        }
        let id = self.live_ids.swap_remove(pick % self.live_ids.len());
        let (state, time, seq) = &mut self.states[id as usize];
        *state = IdState::Cancelled;
        assert!(self.reference.remove(&(*time, *seq, id)));
        let states = &self.states;
        self.queue.cancel(|t| Self::is_live(states, t));
    }

    fn peek_both(&mut self) -> Option<TimerKey> {
        let states = &self.states;
        let a = self.queue.peek(|t| Self::is_live(states, t));
        let b = self.reference.first().copied();
        assert_eq!(
            a.map(|k| (k.time, k.seq, k.id.raw())),
            b,
            "peek diverged at clock {}",
            self.clock
        );
        a
    }

    fn pop_both(&mut self) {
        let states = &self.states;
        let a = self.queue.pop(|t| Self::is_live(states, t));
        let b = self.reference.pop_first();
        assert_eq!(
            a.map(|k| (k.time, k.seq, k.id.raw())),
            b,
            "pop diverged at clock {}",
            self.clock
        );
        let Some(key) = a else { return };
        assert!(
            key.time.as_secs() >= self.clock,
            "fired into the past: {} < {}",
            key.time.as_secs(),
            self.clock
        );
        self.clock = key.time.as_secs();
        let id = key.id.raw();
        self.states[id as usize].0 = IdState::Fired;
        self.live_ids.retain(|&x| x != id);
        self.fired += 1;
        // FNV-style fold of (clock bits, id) — the clock trace fingerprint.
        for word in [self.clock.to_bits(), id] {
            self.trace_hash = (self.trace_hash ^ word).wrapping_mul(0x100000001b3);
        }
    }

    /// Mirrors `Simulation::run_until`: fires everything at or before the
    /// horizon, then advances the clock to the horizon, leaving later timers
    /// in place for schedules that land before them.
    fn advance_to_horizon(&mut self, horizon: f64) {
        loop {
            match self.peek_both() {
                Some(key) if key.time.as_secs() <= horizon => self.pop_both(),
                _ => break,
            }
        }
        self.clock = self.clock.max(horizon);
    }

    fn drain(&mut self) {
        loop {
            let before = self.fired;
            self.pop_both();
            if self.fired == before {
                break;
            }
        }
        assert_eq!(self.queue.live(), 0);
        assert!(self.reference.is_empty());
        self.check_counts();
    }

    fn check_counts(&self) {
        assert_eq!(
            self.queue.live(),
            self.reference.len(),
            "live count diverged"
        );
        assert_eq!(self.queue.live(), self.live_ids.len(), "live ids diverged");
    }
}

#[test]
fn queue_matches_reference_over_100k_mixed_ops() {
    let mut rng = Rng(0x5eed_1234_abcd_ef99);
    let mut h = Harness::new();

    for op in 0..100_000u64 {
        let r = rng.next();
        match r % 16 {
            // Weighted towards schedule so the structures stay populated.
            0..=6 => {
                // Delta classes: exact zero, sub-microsecond,
                // microsecond-scale, millisecond-scale, dense seconds,
                // about a day, and far-future (~31 years).
                let d = rng.next();
                let delta = match d % 16 {
                    0 => 0.0,
                    1 | 2 => (d % 1000) as f64 * 1e-9,
                    3..=5 => (d % 1000) as f64 * 1e-6,
                    6..=8 => (d % 1000) as f64 * 1e-3,
                    9..=12 => (d % 100) as f64,
                    13 | 14 => 1e5 + (d % 1000) as f64,
                    _ => 1e9,
                };
                h.schedule(delta);
            }
            7..=9 => h.pop_both(),
            10 | 11 => {
                h.peek_both();
            }
            12 | 13 => h.cancel(rng.next() as usize),
            14 => {
                let horizon = h.clock + (r % 1000) as f64 * 1e-2;
                h.advance_to_horizon(horizon);
            }
            _ => h.check_counts(),
        }
        if op % 10_000 == 0 {
            h.check_counts();
        }
    }

    // Drain both to empty: every remaining live timer fires in identical
    // order.
    h.drain();
    assert_eq!(h.fired, 31_453);

    // The fingerprint of the `(time, seq)` firing order over this op stream,
    // unchanged since the engine first pinned it: any reordering, even one
    // that "looks equivalent", is caught.
    assert_eq!(h.trace_hash, 0x74a9_868b_70f2_2aa8, "clock trace changed");
}

/// Same differential harness with an op mix dominated by cancellations —
/// the timeout/hedge-heavy net-tier shape. Beyond order equality, this pins
/// the queue's bounded physical size.
#[test]
fn queue_stays_bounded_under_differential_cancel_storm() {
    let mut rng = Rng(0xdead_beef_0bad_cafe);
    let mut h = Harness::new();
    let mut queue_peak = 0usize;

    // Phase 1: schedule far-future timers (the timeout arm of a
    // hedge/select2) and cancel them before they ever fire, with no
    // intervening pops to shed dead keys off the top.
    for i in 0..20_000u64 {
        h.schedule(1e4 + (rng.next() % 10_000) as f64 * 1e-3 + i as f64 * 1e-9);
        h.cancel(rng.next() as usize);
        queue_peak = queue_peak.max(h.queue.len());
    }
    h.check_counts();
    assert!(
        queue_peak <= 2_048,
        "queue peak {queue_peak} not bounded under cancel storm"
    );

    // Phase 2: with dead keys still stored, the firing order of fresh
    // near-term and infinite deadlines stays the reference's.
    for _ in 0..5_000u64 {
        let r = rng.next();
        match r % 8 {
            0..=2 => h.schedule((r % 1000) as f64 * 1e-3),
            3 => h.schedule(f64::INFINITY),
            4 | 5 => h.pop_both(),
            _ => h.cancel(rng.next() as usize),
        }
    }
    h.drain();
}
