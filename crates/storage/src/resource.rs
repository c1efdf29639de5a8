//! Fair-sharing flow-level resource model.
//!
//! A [`SharedResource`] represents a device (disk side, memory bus, network
//! link) with a fixed bandwidth. Concurrent transfers ("flows") each receive
//! an equal share of that bandwidth, re-evaluated whenever a flow starts or
//! completes. This is the macroscopic storage model of Lebre et al. (CCGrid
//! 2015) that SimGrid — and therefore the paper's WRENCH-cache — relies on:
//! accurate enough to capture contention between concurrent applications
//! (Exp 2 and 3 of the paper) while remaining fast to simulate.
//!
//! # Complexity: the fair-queueing "fast algorithm"
//!
//! A naive implementation re-walks every flow at every event to advance its
//! residual byte count — O(n) per event, O(n²) for n overlapping flows. This
//! module instead uses the amortised formulation popularised by fair-queueing
//! schedulers (and by dslab's throughput-sharing model): the resource tracks
//! one scalar, the cumulative **virtual service** `volume` — the number of
//! bytes a hypothetical flow active since the beginning would have received.
//! Under [`SharingPolicy::FairShare`] it grows at `bandwidth / n` while `n`
//! flows are active (and at `bandwidth` under
//! [`SharingPolicy::Unlimited`]); since `n` only changes at flow start,
//! completion or cancellation, `volume` is advanced lazily from the previous
//! event with one multiplication.
//!
//! A flow that starts when the virtual service is `v` and carries `b` bytes
//! completes exactly when `volume` reaches its **finish volume** `v + b`.
//! Flows therefore sit in a min-heap keyed by finish volume:
//!
//! * flow start: push onto the heap — **O(log n)**;
//! * next-completion query: peek the heap top — **O(1)**;
//! * flow completion: pop the top (plus any flow within an epsilon of it) —
//!   **O(log n)**; no other flow is touched;
//! * flow cancellation: lazy deletion; the stale heap entry is skipped when
//!   it surfaces — amortised **O(log n)**;
//! * completion timer: one per resource, moved only when the next completion
//!   moves *earlier*. A change that pushes it later (a flow joins) keeps the
//!   armed timer and records the new `target`; the timer then fires early,
//!   finds `target` ahead and re-arms there without touching `volume`. Every
//!   arm reuses the resource's one shared callback — **no allocation** — so
//!   n staggered flow starts cost O(1) engine work each, not a cancel and a
//!   boxed closure each.
//!
//! Flows live in a generational [`Slab`]: a flow's key locates it with one
//! index, and removing the flow makes the key stale.
//!
//! ## Invariants
//!
//! * `active` equals the number of flows not yet completed, and the heap
//!   contains exactly one live entry per active flow, plus stale entries for
//!   cancelled flows. A stale entry's key no longer addresses a flow: its
//!   generation is behind the slot's, even when a newer flow reuses the
//!   slot.
//! * Heap entries tie-break on the flow's start sequence number, never on
//!   its key, so flows that finish together complete in start order.
//! * For every active flow, `finish_volume - volume` is its remaining bytes.
//! * `volume` is monotonically non-decreasing while flows are active, and is
//!   rebased to zero whenever the resource goes idle so that long simulations
//!   do not accumulate floating-point error (a sequential transfer always
//!   takes exactly `latency + bytes / bandwidth`).
//! * Completion times are identical to the per-event re-sync formulation:
//!   both compute the instant at which the min-remaining flow's fair share
//!   reaches its residual bytes.
//! * The armed timer never fires after the next completion: `armed_at <=
//!   target` whenever a timer is armed, and no timer is armed while no flow
//!   is active.
//! * `volume` advances only at a flow start, completion or removal. Early
//!   timer fires and the stats queries ([`SharedResource::total_bytes`],
//!   [`SharedResource::active_flows`]) read it without writing it, so they
//!   cannot change the rounding of any completion time.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use des::{Callback, SimContext, SimTime, Slab, TimerId};

/// Residual byte count under which a flow is considered complete (guards
/// against floating-point dust).
const EPSILON_BYTES: f64 = 1e-6;

/// How concurrent flows share the device bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SharingPolicy {
    /// Max–min fair sharing: N concurrent flows each get `bandwidth / N`
    /// (the SimGrid/WRENCH model).
    #[default]
    FairShare,
    /// No contention: every flow always gets the full bandwidth. This is the
    /// simplification made by the paper's Python prototype, which "does not
    /// simulate bandwidth sharing and thus does not support concurrency".
    Unlimited,
}

struct Flow {
    /// The virtual-service value at which this flow has no bytes left.
    finish_volume: f64,
    done: bool,
    waker: Option<Waker>,
}

/// Min-heap entry: a flow and the virtual service at which it completes.
struct HeapEntry {
    finish_volume: f64,
    /// Start sequence number: the tie-break between equal finish volumes.
    seq: u64,
    /// The flow's key in `Inner::flows`; stale once the flow is removed.
    key: u64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need the smallest finish
        // volume on top. Ties break by start order (lower seq first).
        other
            .finish_volume
            .total_cmp(&self.finish_volume)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

struct Inner {
    name: String,
    bandwidth: f64,
    latency: f64,
    sharing: SharingPolicy,
    flows: Slab<Flow>,
    /// Live flows ordered by finish volume; may contain stale entries for
    /// cancelled flows (lazy deletion).
    queue: BinaryHeap<HeapEntry>,
    /// Number of flows not yet done.
    active: usize,
    /// Cumulative fair-share virtual service in bytes (see module docs).
    volume: f64,
    /// Start sequence number of the next flow (see [`HeapEntry::seq`]).
    next_flow: u64,
    last_update: SimTime,
    /// The armed completion timer and the instant it fires (`armed_at`).
    /// It never fires after `target`: see [`SharedResource::reschedule`].
    timer: Option<(TimerId, SimTime)>,
    /// The next completion as computed by the last reschedule; `None` while
    /// no flow is active.
    target: Option<SimTime>,
    /// The one callback every arm of this resource's timer shares, created
    /// on the first arm. It reaches the resource through a `Weak`, so the
    /// engine's copy never keeps a finished simulation's resources alive.
    on_timer: Option<Callback>,
    /// Bytes injected by all flows, minus the unserved residue of cancelled
    /// flows; `total_bytes()` subtracts what active flows still owe.
    total_injected: f64,
    completed_flows: u64,
}

impl Inner {
    /// Bytes of virtual service gained per second at the current flow count.
    fn rate(&self) -> f64 {
        match self.sharing {
            SharingPolicy::FairShare => self.bandwidth / self.active.max(1) as f64,
            SharingPolicy::Unlimited => self.bandwidth,
        }
    }

    /// The virtual service at `now`, without advancing it. O(1).
    fn volume_at(&self, now: SimTime) -> f64 {
        let dt = now.duration_since(self.last_update);
        if dt > 0.0 && self.active > 0 {
            self.volume + self.rate() * dt
        } else {
            self.volume
        }
    }

    /// Advances the virtual service to `now`. O(1): no flow is touched.
    fn sync(&mut self, now: SimTime) {
        self.volume = self.volume_at(now);
        self.last_update = now;
    }

    /// Remaining bytes of one flow at virtual service `volume`.
    fn remaining(flow: &Flow, volume: f64) -> f64 {
        if flow.done {
            0.0
        } else {
            (flow.finish_volume - volume).max(0.0)
        }
    }

    /// Drops stale heap entries (cancelled flows) from the top.
    fn skim_stale(&mut self) {
        while let Some(top) = self.queue.peek() {
            match self.flows.get(top.key) {
                Some(f) if !f.done => break,
                _ => {
                    self.queue.pop();
                }
            }
        }
    }

    /// Marks every flow whose finish volume has been reached as done and
    /// wakes its future. O(log n) per completed flow.
    fn complete_finished(&mut self) {
        loop {
            self.skim_stale();
            match self.queue.peek() {
                Some(top) if top.finish_volume <= self.volume + EPSILON_BYTES => {
                    let key = self.queue.pop().expect("peeked entry exists").key;
                    self.complete_flow(key);
                }
                _ => break,
            }
        }
        self.maybe_rebase();
    }

    fn complete_flow(&mut self, key: u64) {
        let flow = self.flows.get_mut(key).expect("live entry has a flow");
        debug_assert!(!flow.done);
        flow.done = true;
        self.active -= 1;
        self.completed_flows += 1;
        if let Some(w) = flow.waker.take() {
            w.wake();
        }
    }

    /// Virtual time at which the next flow will complete, if any.
    fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        self.skim_stale();
        let top = self.queue.peek()?;
        let remaining = (top.finish_volume - self.volume).max(0.0);
        Some(now + remaining / self.rate())
    }

    /// Completes the flow(s) with the least remaining bytes immediately.
    ///
    /// This is the guard against a floating-point livelock: after a timer
    /// fires, rounding can leave a flow with a residue of a few micro-bytes
    /// whose transfer time is smaller than the clock's representable
    /// resolution at the current timestamp. Re-scheduling would then fire at
    /// the *same* virtual time forever. Such residues are physically
    /// meaningless, so the flow is simply declared complete. The virtual
    /// service is left untouched: other flows make no artificial progress.
    fn force_complete_smallest(&mut self) {
        self.skim_stale();
        let Some(top) = self.queue.peek() else {
            return;
        };
        let min_finish = top.finish_volume;
        loop {
            self.skim_stale();
            match self.queue.peek() {
                Some(top) if top.finish_volume <= min_finish + EPSILON_BYTES => {
                    let key = self.queue.pop().expect("peeked entry exists").key;
                    self.complete_flow(key);
                }
                _ => break,
            }
        }
        self.maybe_rebase();
    }

    /// Resets the virtual service origin whenever no flow is active, so that
    /// `volume` stays small and sequential transfers suffer no cumulative
    /// floating-point error.
    fn maybe_rebase(&mut self) {
        if self.active == 0 {
            self.volume = 0.0;
            self.queue.clear();
        }
    }

    /// Bytes transferred by `now`: everything injected minus what active
    /// flows still owe, summed in slot order. O(slab slots); only used by
    /// stats queries, never on the event path. Read-only: a query must not
    /// split the next `sync`'s `rate · dt` into two roundings.
    fn bytes_done(&self, now: SimTime) -> f64 {
        let volume = self.volume_at(now);
        let owed: f64 = self
            .flows
            .values()
            .map(|f| Self::remaining(f, volume))
            .sum();
        (self.total_injected - owed).max(0.0)
    }
}

/// A bandwidth-shared device. Cloning returns another handle to the same
/// underlying resource.
#[derive(Clone)]
pub struct SharedResource {
    ctx: SimContext,
    inner: Rc<RefCell<Inner>>,
}

impl SharedResource {
    /// Creates a resource with the given bandwidth (bytes/s) and per-transfer
    /// latency (seconds).
    ///
    /// # Panics
    /// Panics if the bandwidth is not strictly positive or the latency is
    /// negative.
    pub fn new(ctx: &SimContext, name: impl Into<String>, bandwidth: f64, latency: f64) -> Self {
        Self::with_policy(ctx, name, bandwidth, latency, SharingPolicy::FairShare)
    }

    /// Creates a resource with an explicit [`SharingPolicy`].
    pub fn with_policy(
        ctx: &SimContext,
        name: impl Into<String>,
        bandwidth: f64,
        latency: f64,
        sharing: SharingPolicy,
    ) -> Self {
        assert!(
            bandwidth > 0.0 && bandwidth.is_finite(),
            "bandwidth must be positive and finite"
        );
        assert!(
            latency >= 0.0 && latency.is_finite(),
            "latency must be non-negative"
        );
        SharedResource {
            ctx: ctx.clone(),
            inner: Rc::new(RefCell::new(Inner {
                name: name.into(),
                bandwidth,
                latency,
                sharing,
                flows: Slab::new(),
                queue: BinaryHeap::new(),
                active: 0,
                volume: 0.0,
                next_flow: 0,
                last_update: ctx.now(),
                timer: None,
                target: None,
                on_timer: None,
                total_injected: 0.0,
                completed_flows: 0,
            })),
        }
    }

    /// Device name (for traces and error messages).
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// Nominal bandwidth in bytes per second.
    pub fn bandwidth(&self) -> f64 {
        self.inner.borrow().bandwidth
    }

    /// Fixed per-transfer latency in seconds.
    pub fn latency(&self) -> f64 {
        self.inner.borrow().latency
    }

    /// Number of transfers currently in progress.
    pub fn active_flows(&self) -> usize {
        self.inner.borrow().active
    }

    /// Total number of bytes moved through this resource so far. Read-only:
    /// probing never changes the run.
    pub fn total_bytes(&self) -> f64 {
        self.inner.borrow().bytes_done(self.ctx.now())
    }

    /// Total number of completed transfers.
    pub fn completed_flows(&self) -> u64 {
        self.inner.borrow().completed_flows
    }

    /// Time a transfer of `bytes` would take on an otherwise idle device.
    pub fn ideal_time(&self, bytes: f64) -> f64 {
        let inner = self.inner.borrow();
        inner.latency + bytes.max(0.0) / inner.bandwidth
    }

    /// Transfers `bytes` through the device, sharing bandwidth fairly with all
    /// concurrent transfers. Completes after the device latency plus the
    /// (contention-dependent) transfer time. A zero or negative byte count
    /// costs only the latency.
    pub async fn transfer(&self, bytes: f64) {
        assert!(!bytes.is_nan(), "transfer size cannot be NaN");
        let latency = self.latency();
        if latency > 0.0 {
            self.ctx.sleep(latency).await;
        }
        if bytes <= 0.0 {
            return;
        }
        let key = self.add_flow(bytes);
        FlowDone {
            resource: self.clone(),
            key,
        }
        .await
    }

    /// Like [`SharedResource::transfer`], but returns an [`AbortHandle`]
    /// alongside the transfer future. Aborting removes the flow from the
    /// device mid-transfer — exactly what a dying network link does to the
    /// flows crossing it — and resolves the future with
    /// [`TransferOutcome::Aborted`]. Aborting a completed transfer is a
    /// no-op.
    pub fn transfer_abortable(&self, bytes: f64) -> (AbortableTransfer, AbortHandle) {
        let state = Rc::new(AbortState {
            aborted: std::cell::Cell::new(false),
            waker: RefCell::new(None),
        });
        let this = self.clone();
        let inner: Pin<Box<dyn Future<Output = ()>>> =
            Box::pin(async move { this.transfer(bytes).await });
        (
            AbortableTransfer {
                inner: Some(inner),
                state: Rc::clone(&state),
            },
            AbortHandle { state },
        )
    }

    /// Starts a flow of `bytes` and returns its key.
    fn add_flow(&self, bytes: f64) -> u64 {
        let key = {
            let mut inner = self.inner.borrow_mut();
            let now = self.ctx.now();
            inner.sync(now);
            let seq = inner.next_flow;
            inner.next_flow += 1;
            let finish_volume = inner.volume + bytes;
            let key = inner.flows.insert(Flow {
                finish_volume,
                done: false,
                waker: None,
            });
            inner.queue.push(HeapEntry {
                finish_volume,
                seq,
                key,
            });
            inner.active += 1;
            inner.total_injected += bytes;
            key
        };
        self.reschedule();
        key
    }

    /// Recomputes the next completion after any change to the flow set.
    ///
    /// The armed timer moves only when it must fire earlier: a completion
    /// pushed later (a flow joined) keeps it, and it fires early, finds
    /// `target` still ahead and re-arms there (see `on_timer`).
    fn reschedule(&self) {
        let now = self.ctx.now();
        let mut inner = self.inner.borrow_mut();
        // Flows whose completion would not advance the virtual clock are
        // finished on the spot (see `force_complete_smallest`); only a
        // strictly future completion is worth a timer.
        let target = loop {
            match inner.next_completion(now) {
                None => break None,
                Some(at) if at > now => break Some(at),
                Some(_) => inner.force_complete_smallest(),
            }
        };
        inner.target = target;
        if let (Some(at), Some((_, armed_at))) = (target, inner.timer) {
            if at >= armed_at {
                return;
            }
        }
        if let Some((timer, _)) = inner.timer.take() {
            self.ctx.cancel_timer(timer);
        }
        if let Some(at) = target {
            self.arm(&mut inner, at);
        }
    }

    /// Arms the completion timer at `at` with the resource's one shared
    /// callback: no allocation after the first arm.
    fn arm(&self, inner: &mut Inner, at: SimTime) {
        let callback = inner.on_timer.get_or_insert_with(|| {
            let weak = Rc::downgrade(&self.inner);
            Rc::new(move |ctx: &SimContext| {
                if let Some(inner) = weak.upgrade() {
                    SharedResource {
                        ctx: ctx.clone(),
                        inner,
                    }
                    .on_timer();
                }
            })
        });
        let timer = self.ctx.schedule_callback(at, Rc::clone(callback));
        inner.timer = Some((timer, at));
    }

    fn on_timer(&self) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.timer = None;
            let now = self.ctx.now();
            let target = inner.target.expect("an armed timer has a target");
            debug_assert!(
                target >= now,
                "the armed timer fired after the next completion"
            );
            if target > now {
                // An early fire: the completion moved later since the arm.
                // No sync here — splitting `rate · dt` at this instant
                // would change the bits of every later completion.
                self.arm(&mut inner, target);
                return;
            }
            inner.sync(now);
            inner.complete_finished();
        }
        self.reschedule();
    }
}

/// Future resolving when a specific flow has transferred all its bytes.
struct FlowDone {
    resource: SharedResource,
    key: u64,
}

impl Future for FlowDone {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut inner = self.resource.inner.borrow_mut();
        match inner.flows.get_mut(self.key) {
            None => Poll::Ready(()),
            Some(flow) if flow.done => {
                inner.flows.remove(self.key);
                Poll::Ready(())
            }
            Some(flow) => {
                flow.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

impl Drop for FlowDone {
    fn drop(&mut self) {
        // Transfer futures are not normally cancelled, but if one is, remove
        // the flow so it stops consuming bandwidth. The heap entry is left
        // behind and skipped lazily when it reaches the top.
        let removed = {
            let mut inner = self.resource.inner.borrow_mut();
            if inner.flows.get(self.key).is_some_and(|f| !f.done) {
                let now = self.resource.ctx.now();
                inner.sync(now);
                let flow = inner.flows.remove(self.key).expect("checked above");
                inner.total_injected -= Inner::remaining(&flow, inner.volume);
                inner.active -= 1;
                inner.maybe_rebase();
                true
            } else {
                inner.flows.remove(self.key);
                false
            }
        };
        if removed {
            self.resource.reschedule();
        }
    }
}

/// How an [`AbortableTransfer`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferOutcome {
    /// All bytes were transferred.
    Completed,
    /// The transfer was aborted mid-flight; its remaining bytes were never
    /// served and its flow no longer consumes bandwidth.
    Aborted,
}

struct AbortState {
    aborted: std::cell::Cell<bool>,
    waker: RefCell<Option<Waker>>,
}

/// Handle to abort one in-flight [`SharedResource::transfer_abortable`].
/// Cloning yields another handle to the same transfer.
#[derive(Clone)]
pub struct AbortHandle {
    state: Rc<AbortState>,
}

impl AbortHandle {
    /// Aborts the transfer. Idempotent; a no-op once the transfer completed.
    pub fn abort(&self) {
        if !self.state.aborted.replace(true) {
            if let Some(w) = self.state.waker.borrow_mut().take() {
                w.wake();
            }
        }
    }

    /// Whether [`AbortHandle::abort`] has been called.
    pub fn is_aborted(&self) -> bool {
        self.state.aborted.get()
    }
}

/// Future returned by [`SharedResource::transfer_abortable`].
pub struct AbortableTransfer {
    /// The plain transfer; dropped on abort, which removes the flow (see
    /// [`FlowDone`]'s `Drop`).
    inner: Option<Pin<Box<dyn Future<Output = ()>>>>,
    state: Rc<AbortState>,
}

impl Future for AbortableTransfer {
    type Output = TransferOutcome;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<TransferOutcome> {
        if self.state.aborted.get() {
            // Dropping the inner future cancels the latency sleep and/or
            // removes the flow from the resource.
            self.inner = None;
            return Poll::Ready(TransferOutcome::Aborted);
        }
        let Some(inner) = self.inner.as_mut() else {
            return Poll::Ready(TransferOutcome::Aborted);
        };
        match inner.as_mut().poll(cx) {
            Poll::Ready(()) => {
                self.inner = None;
                Poll::Ready(TransferOutcome::Completed)
            }
            Poll::Pending => {
                *self.state.waker.borrow_mut() = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::Simulation;

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() < 1e-6 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn single_transfer_takes_bytes_over_bandwidth() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "disk", 100.0, 0.0);
        let h = sim.spawn({
            let ctx = ctx.clone();
            async move {
                res.transfer(1000.0).await;
                ctx.now().as_secs()
            }
        });
        sim.run();
        approx(h.try_take_result().unwrap(), 10.0);
    }

    #[test]
    fn latency_is_added_once_per_transfer() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "disk", 100.0, 0.5);
        let h = sim.spawn({
            let ctx = ctx.clone();
            async move {
                res.transfer(100.0).await;
                ctx.now().as_secs()
            }
        });
        sim.run();
        approx(h.try_take_result().unwrap(), 1.5);
    }

    #[test]
    fn zero_byte_transfer_costs_only_latency() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "disk", 100.0, 0.25);
        let h = sim.spawn({
            let ctx = ctx.clone();
            async move {
                res.transfer(0.0).await;
                ctx.now().as_secs()
            }
        });
        sim.run();
        approx(h.try_take_result().unwrap(), 0.25);
    }

    #[test]
    fn two_concurrent_transfers_share_bandwidth() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "disk", 100.0, 0.0);
        let mut handles = Vec::new();
        for _ in 0..2 {
            let res = res.clone();
            let ctx = ctx.clone();
            handles.push(sim.spawn(async move {
                res.transfer(1000.0).await;
                ctx.now().as_secs()
            }));
        }
        sim.run();
        // Two equal flows on a 100 B/s device: each sees 50 B/s => 20 s.
        for h in handles {
            approx(h.try_take_result().unwrap(), 20.0);
        }
    }

    #[test]
    fn staggered_transfers_get_correct_shares() {
        // Flow A (1000 B) starts at t=0, flow B (500 B) starts at t=5.
        // 0-5 s : A alone at 100 B/s -> A has 500 B left.
        // 5-15 s: A and B at 50 B/s  -> B finishes at t=15, A finishes at t=15.
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "disk", 100.0, 0.0);
        let a = sim.spawn({
            let res = res.clone();
            let ctx = ctx.clone();
            async move {
                res.transfer(1000.0).await;
                ctx.now().as_secs()
            }
        });
        let b = sim.spawn({
            let res = res.clone();
            let ctx = ctx.clone();
            async move {
                ctx.sleep(5.0).await;
                res.transfer(500.0).await;
                ctx.now().as_secs()
            }
        });
        sim.run();
        approx(a.try_take_result().unwrap(), 15.0);
        approx(b.try_take_result().unwrap(), 15.0);
    }

    #[test]
    fn short_flow_completion_speeds_up_remaining_flow() {
        // A: 1000 B and B: 200 B both start at t=0 on 100 B/s.
        // Until B finishes both get 50 B/s; B finishes at t=4 with A at 800 B
        // remaining; A then runs alone and finishes at t=4 + 800/100 = 12.
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "disk", 100.0, 0.0);
        let a = sim.spawn({
            let res = res.clone();
            let ctx = ctx.clone();
            async move {
                res.transfer(1000.0).await;
                ctx.now().as_secs()
            }
        });
        let b = sim.spawn({
            let res = res.clone();
            let ctx = ctx.clone();
            async move {
                res.transfer(200.0).await;
                ctx.now().as_secs()
            }
        });
        sim.run();
        approx(b.try_take_result().unwrap(), 4.0);
        approx(a.try_take_result().unwrap(), 12.0);
    }

    #[test]
    fn n_concurrent_transfers_scale_linearly() {
        for n in [1usize, 4, 8, 16, 32] {
            let sim = Simulation::new();
            let ctx = sim.context();
            let res = SharedResource::new(&ctx, "disk", 1000.0, 0.0);
            let mut handles = Vec::new();
            for _ in 0..n {
                let res = res.clone();
                let ctx = ctx.clone();
                handles.push(sim.spawn(async move {
                    res.transfer(1000.0).await;
                    ctx.now().as_secs()
                }));
            }
            sim.run();
            for h in handles {
                approx(h.try_take_result().unwrap(), n as f64);
            }
        }
    }

    #[test]
    fn accounting_tracks_bytes_and_flows() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "disk", 100.0, 0.0);
        {
            let res = res.clone();
            sim.spawn(async move {
                res.transfer(300.0).await;
                res.transfer(200.0).await;
            });
        }
        sim.run();
        approx(res.total_bytes(), 500.0);
        assert_eq!(res.completed_flows(), 2);
        assert_eq!(res.active_flows(), 0);
    }

    #[test]
    fn partial_progress_is_reported_mid_transfer() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "disk", 100.0, 0.0);
        {
            let res = res.clone();
            sim.spawn(async move { res.transfer(1000.0).await });
        }
        {
            let res = res.clone();
            let ctx = ctx.clone();
            sim.spawn(async move {
                ctx.sleep(5.0).await;
                // Half way through its 10 s, the flow has moved 500 bytes.
                approx(res.total_bytes(), 500.0);
                assert_eq!(res.active_flows(), 1);
            });
        }
        sim.run();
        approx(res.total_bytes(), 1000.0);
    }

    #[test]
    fn ideal_time_reports_uncontended_duration() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "disk", 200.0, 0.1);
        approx(res.ideal_time(1000.0), 5.1);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let sim = Simulation::new();
        let _ = SharedResource::new(&sim.context(), "bad", 0.0, 0.0);
    }
}

#[cfg(test)]
mod sharing_policy_tests {
    use super::*;
    use des::Simulation;

    #[test]
    fn unlimited_policy_gives_every_flow_full_bandwidth() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::with_policy(&ctx, "proto", 100.0, 0.0, SharingPolicy::Unlimited);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let res = res.clone();
            let ctx = ctx.clone();
            handles.push(sim.spawn(async move {
                res.transfer(1000.0).await;
                ctx.now().as_secs()
            }));
        }
        sim.run();
        for h in handles {
            let t = h.try_take_result().unwrap();
            assert!((t - 10.0).abs() < 1e-6, "expected 10, got {t}");
        }
    }

    #[test]
    fn unlimited_policy_staggered_flows_keep_full_bandwidth() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::with_policy(&ctx, "proto", 100.0, 0.0, SharingPolicy::Unlimited);
        let a = sim.spawn({
            let res = res.clone();
            let ctx = ctx.clone();
            async move {
                res.transfer(1000.0).await;
                ctx.now().as_secs()
            }
        });
        let b = sim.spawn({
            let res = res.clone();
            let ctx = ctx.clone();
            async move {
                ctx.sleep(4.0).await;
                res.transfer(200.0).await;
                ctx.now().as_secs()
            }
        });
        sim.run();
        approx_rel(a.try_take_result().unwrap(), 10.0);
        approx_rel(b.try_take_result().unwrap(), 6.0);
    }

    fn approx_rel(a: f64, b: f64) {
        assert!(
            (a - b).abs() < 1e-6 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn default_policy_is_fair_share() {
        assert_eq!(SharingPolicy::default(), SharingPolicy::FairShare);
    }
}

#[cfg(test)]
mod float_robustness_tests {
    use super::*;
    use des::Simulation;

    /// Regression test: chunked transfers at the paper's measured (non-round)
    /// bandwidths used to livelock when a flow's residual bytes were smaller
    /// than the virtual clock's resolution. The scenario below mirrors the
    /// kernel-emulator read path (10 x 100 MB at 510 MB/s, then 10 x 100 MB at
    /// 6860 MB/s) and must terminate with the analytically expected duration.
    #[test]
    fn chunked_transfers_at_measured_bandwidths_terminate() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let disk = SharedResource::new(&ctx, "disk.read", 510.0e6, 0.0);
        let memory = SharedResource::new(&ctx, "memory.read", 6860.0e6, 0.0);
        let h = sim.spawn({
            let ctx = ctx.clone();
            async move {
                for _ in 0..10 {
                    disk.transfer(100.0e6).await;
                }
                for _ in 0..10 {
                    memory.transfer(100.0e6).await;
                }
                ctx.now().as_secs()
            }
        });
        sim.run();
        let end = h.try_take_result().unwrap();
        let expected = 1000.0 / 510.0 + 1000.0 / 6860.0;
        assert!(
            (end - expected).abs() < 1e-6,
            "end {end}, expected {expected}"
        );
    }

    /// Same robustness requirement far from t = 0, where the clock's ulp is
    /// larger and residues are more likely to be unrepresentable.
    #[test]
    fn transfers_late_in_the_simulation_terminate() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "dev", 2764.0e6, 0.0);
        let h = sim.spawn({
            let ctx = ctx.clone();
            async move {
                ctx.sleep(100_000.0).await;
                for _ in 0..50 {
                    res.transfer(33.7e6).await;
                }
                ctx.now().as_secs()
            }
        });
        sim.run();
        let end = h.try_take_result().unwrap();
        let expected = 100_000.0 + 50.0 * 33.7e6 / 2764.0e6;
        assert!(
            (end - expected).abs() < 1e-6 * expected,
            "end {end}, expected {expected}"
        );
    }

    /// Concurrent flows with awkward sizes and bandwidths all complete and
    /// account for every byte.
    #[test]
    fn concurrent_awkward_flows_all_complete() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "dev", 445.3e6, 0.0);
        let sizes = [13.31e6, 97.7e6, 0.003e6, 250.123e6, 1.0, 499.999e6];
        for &s in &sizes {
            let res = res.clone();
            sim.spawn(async move { res.transfer(s).await });
        }
        sim.run();
        assert_eq!(res.completed_flows(), sizes.len() as u64);
        assert_eq!(res.active_flows(), 0);
        let total: f64 = sizes.iter().sum();
        assert!((res.total_bytes() - total).abs() < 1.0);
    }

    /// A thousand concurrent flows complete in N * size / bandwidth with the
    /// heap-based algorithm just as with per-event re-syncing.
    #[test]
    fn thousand_concurrent_flows_finish_at_fair_share_time() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "dev", 1000.0e6, 0.0);
        let n = 1000usize;
        for i in 0..n {
            let res = res.clone();
            // Slightly distinct sizes so completions are staggered.
            let bytes = 1.0e6 + i as f64;
            sim.spawn(async move { res.transfer(bytes).await });
        }
        let end = sim.run().as_secs();
        let total: f64 = (0..n).map(|i| 1.0e6 + i as f64).sum();
        let expected = total / 1000.0e6;
        assert!(
            (end - expected).abs() < 1e-6 * expected,
            "end {end}, expected {expected}"
        );
        assert_eq!(res.completed_flows(), n as u64);
    }
}

#[cfg(test)]
mod abort_tests {
    use super::*;
    use des::Simulation;

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() < 1e-6 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn aborting_mid_transfer_frees_bandwidth_for_other_flows() {
        // Two 1000 B flows on 100 B/s share 50 B/s each. Aborting one at
        // t=5 leaves the survivor alone: 750 B left at 100 B/s => t=12.5.
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "link", 100.0, 0.0);
        let survivor = sim.spawn({
            let res = res.clone();
            let ctx = ctx.clone();
            async move {
                res.transfer(1000.0).await;
                ctx.now().as_secs()
            }
        });
        let victim = sim.spawn({
            let res = res.clone();
            let ctx = ctx.clone();
            async move {
                let (fut, handle) = res.transfer_abortable(1000.0);
                ctx.schedule_callback(
                    des::SimTime::from_secs(5.0),
                    Rc::new(move |_| handle.abort()),
                );
                (fut.await, ctx.now().as_secs())
            }
        });
        sim.run();
        let (outcome, at) = victim.try_take_result().unwrap();
        assert_eq!(outcome, TransferOutcome::Aborted);
        approx(at, 5.0);
        approx(survivor.try_take_result().unwrap(), 12.5);
        assert_eq!(res.active_flows(), 0);
        assert_eq!(res.completed_flows(), 1);
    }

    #[test]
    fn abort_after_completion_is_a_no_op() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "link", 100.0, 0.0);
        let h = sim.spawn({
            let res = res.clone();
            async move {
                let (fut, handle) = res.transfer_abortable(100.0);
                let out = fut.await;
                handle.abort(); // transfer already done
                handle.abort(); // idempotent
                (out, handle.is_aborted())
            }
        });
        sim.run();
        let (out, flagged) = h.try_take_result().unwrap();
        assert_eq!(out, TransferOutcome::Completed);
        assert!(flagged);
        approx(res.total_bytes(), 100.0);
    }

    #[test]
    fn abort_during_latency_phase_costs_nothing() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "link", 100.0, 10.0);
        let h = sim.spawn({
            let res = res.clone();
            let ctx = ctx.clone();
            async move {
                let (fut, handle) = res.transfer_abortable(500.0);
                ctx.schedule_callback(
                    des::SimTime::from_secs(2.0),
                    Rc::new(move |_| handle.abort()),
                );
                (fut.await, ctx.now().as_secs())
            }
        });
        sim.run();
        let (out, at) = h.try_take_result().unwrap();
        assert_eq!(out, TransferOutcome::Aborted);
        approx(at, 2.0);
        // The flow never entered the device; nothing was transferred and the
        // abandoned latency timer must not drag the clock to t=10.
        approx(res.total_bytes(), 0.0);
        assert_eq!(sim.now().as_secs(), 2.0);
    }

    #[test]
    fn stale_heap_entry_of_an_aborted_flow_leaves_its_slot_successor_alone() {
        // 100 B/s. D (400 B), A (600 B) and C (2000 B) start at t=0; A is
        // aborted at t=1, and B (1000 B) starts at t=1.5 in A's slot. A's
        // heap entry (finish volume 600) stays buried under D's (400) until
        // D completes at t=11.75. If it were taken for B's, B would complete
        // at volume 600 instead of its own 1058.33.
        //   0–1 s:     D, A, C at 33.3 B/s  -> volume 33.3
        //   1–1.5 s:   D, C at 50 B/s       -> volume 58.3
        //   1.5–11.75: D, B, C at 33.3 B/s  -> D done at volume 400
        //   then B, C at 50 B/s: B done at 11.75 + 658.3/50 = 24.9167 s,
        //   then C alone: 941.7 B at 100 B/s -> 34.3333 s.
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "link", 100.0, 0.0);
        let timed = |start: f64, bytes: f64| {
            let (res, ctx) = (res.clone(), ctx.clone());
            sim.spawn(async move {
                ctx.sleep(start).await;
                res.transfer(bytes).await;
                ctx.now().as_secs()
            })
        };
        let d = timed(0.0, 400.0);
        let a = sim.spawn({
            let res = res.clone();
            let ctx = ctx.clone();
            async move {
                let (fut, handle) = res.transfer_abortable(600.0);
                ctx.schedule_callback(
                    des::SimTime::from_secs(1.0),
                    Rc::new(move |_| handle.abort()),
                );
                fut.await
            }
        });
        let c = timed(0.0, 2000.0);
        let b = timed(1.5, 1000.0);
        let shared_slot = Rc::new(std::cell::Cell::new(false));
        ctx.schedule_callback(
            des::SimTime::from_secs(2.0),
            Rc::new({
                let (res, shared_slot) = (res.clone(), Rc::clone(&shared_slot));
                move |_| {
                    let inner = res.inner.borrow();
                    let keys: Vec<u64> = inner.queue.iter().map(|e| e.key).collect();
                    shared_slot.set(
                        keys.iter()
                            .any(|&k| keys.iter().any(|&o| o != k && o as u32 == k as u32)),
                    );
                }
            }),
        );
        sim.run();
        assert!(
            shared_slot.get(),
            "B's entry and A's stale one share a slot"
        );
        assert_eq!(a.try_take_result(), Some(TransferOutcome::Aborted));
        approx(d.try_take_result().unwrap(), 11.75);
        approx(b.try_take_result().unwrap(), 24.0 + 11.0 / 12.0);
        approx(c.try_take_result().unwrap(), 34.0 + 1.0 / 3.0);
        assert_eq!(res.completed_flows(), 3);
        assert_eq!(res.active_flows(), 0);
    }
}

/// Randomized differential test for fair sharing under dynamic flow churn:
/// the heap-based "fast algorithm" against a naive model that re-syncs every
/// flow's residual bytes at every event, including flows force-removed
/// mid-transfer the way a dying link removes the flows crossing it.
#[cfg(test)]
mod churn_differential_tests {
    use super::*;
    use des::Simulation;

    /// Deterministic in-repo PRNG (xorshift64*), no external crates.
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
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }
        /// Uniform in [0, 1).
        fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.next_f64()
        }
    }

    #[derive(Clone, Copy)]
    struct FlowSpec {
        start: f64,
        bytes: f64,
        abort_at: Option<f64>,
    }

    /// Naive reference: advance every flow's residual bytes at every
    /// breakpoint (flow start, completion, or forced removal) at the current
    /// fair share. O(n) per event — correct by construction.
    fn naive_completions(bandwidth: f64, specs: &[FlowSpec]) -> Vec<Option<f64>> {
        #[derive(Clone, Copy)]
        enum Ev {
            Add(usize),
            Remove(usize),
        }
        let mut events: Vec<(f64, Ev)> = Vec::new();
        for (i, s) in specs.iter().enumerate() {
            events.push((s.start, Ev::Add(i)));
            if let Some(at) = s.abort_at {
                events.push((at, Ev::Remove(i)));
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut remaining: Vec<Option<f64>> = vec![None; specs.len()];
        let mut done: Vec<Option<f64>> = vec![None; specs.len()];
        let mut t = 0.0_f64;
        let mut idx = 0;
        loop {
            let active: Vec<usize> = remaining
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.map(|_| i))
                .collect();
            let next_ev = events.get(idx).map(|e| e.0).unwrap_or(f64::INFINITY);
            if active.is_empty() {
                if idx >= events.len() {
                    break;
                }
                t = next_ev;
            } else {
                let rate = bandwidth / active.len() as f64;
                let min_rem = active
                    .iter()
                    .map(|&i| remaining[i].unwrap())
                    .fold(f64::INFINITY, f64::min);
                let tc = t + min_rem / rate;
                if tc <= next_ev {
                    for &i in &active {
                        let r = remaining[i].unwrap() - (tc - t) * rate;
                        if r <= 1e-6 {
                            remaining[i] = None;
                            done[i] = Some(tc);
                        } else {
                            remaining[i] = Some(r);
                        }
                    }
                    t = tc;
                    continue;
                }
                for &i in &active {
                    remaining[i] = Some(remaining[i].unwrap() - (next_ev - t) * rate);
                }
                t = next_ev;
            }
            match events[idx].1 {
                Ev::Add(i) => remaining[i] = Some(specs[i].bytes),
                Ev::Remove(i) => remaining[i] = None, // force-removed, never completes
            }
            idx += 1;
        }
        done
    }

    fn sim_completions(bandwidth: f64, specs: &[FlowSpec]) -> Vec<Option<f64>> {
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "churn", bandwidth, 0.0);
        let mut handles = Vec::new();
        for spec in specs.iter().copied() {
            let res = res.clone();
            let ctx = ctx.clone();
            handles.push(sim.spawn(async move {
                ctx.sleep_until(des::SimTime::from_secs(spec.start)).await;
                let (fut, handle) = res.transfer_abortable(spec.bytes);
                if let Some(at) = spec.abort_at {
                    ctx.schedule_callback(
                        des::SimTime::from_secs(at),
                        Rc::new(move |_| handle.abort()),
                    );
                }
                match fut.await {
                    TransferOutcome::Completed => Some(ctx.now().as_secs()),
                    TransferOutcome::Aborted => None,
                }
            }));
        }
        sim.run();
        assert_eq!(res.active_flows(), 0, "flows left active after churn");
        handles
            .into_iter()
            .map(|h| h.try_take_result().unwrap())
            .collect()
    }

    const CHURN_BANDWIDTH: f64 = 97.3e6;

    /// The flows of one seeded churn case on a `CHURN_BANDWIDTH` resource.
    fn churn_specs(seed: u64) -> Vec<FlowSpec> {
        let bandwidth = CHURN_BANDWIDTH;
        let mut rng = XorShift::new(seed.wrapping_mul(0x9E3779B97F4A7C15));
        let n = 10 + (rng.next_u64() % 30) as usize;
        (0..n)
            .map(|_| {
                let start = rng.range(0.0, 8.0);
                let bytes = rng.range(0.1e6, 80.0e6);
                // A third of the flows are force-removed mid-transfer,
                // some so late the abort is a no-op (flow already done).
                let abort_at = (rng.next_f64() < 0.33)
                    .then(|| start + rng.range(0.01, 1.5 * bytes / bandwidth * n as f64));
                FlowSpec {
                    start,
                    bytes,
                    abort_at,
                }
            })
            .collect()
    }

    #[test]
    fn fast_algorithm_matches_naive_resync_under_flow_churn() {
        let bandwidth = CHURN_BANDWIDTH;
        for seed in 1..=25u64 {
            let specs = churn_specs(seed);
            let expected = naive_completions(bandwidth, &specs);
            let got = sim_completions(bandwidth, &specs);
            for (i, (e, g)) in expected.iter().zip(got.iter()).enumerate() {
                match (e, g) {
                    (None, None) => {}
                    (Some(te), Some(tg)) => assert!(
                        (te - tg).abs() < 1e-6 * te.max(1.0),
                        "seed {seed} flow {i}: naive {te}, fast {tg}"
                    ),
                    _ => panic!("seed {seed} flow {i}: naive {e:?} but fast {g:?}"),
                }
            }
        }
    }

    /// Seed 21's completion times, bit for bit, as the resource computed
    /// them when it moved its timer on every flow start and end. Flows join
    /// while others run, so the timer fires early and re-arms; a `sync` at
    /// such an early fire would split `rate · dt` and move these bits.
    #[test]
    fn lazy_rearm_keeps_the_completion_bits_of_a_churn_case() {
        const SEED_21: [Option<u64>; 10] = [
            Some(0x40184b4e88b14b44),
            None,
            Some(0x4017ca624d6f5609),
            None,
            Some(0x4013cafe43cced9d),
            Some(0x401a300273479455),
            Some(0x4011287db50433d2),
            Some(0x4018abed7f0cdffa),
            Some(0x4017adc4220e24e4),
            Some(0x401caa816760f484),
        ];
        let got: Vec<Option<u64>> = sim_completions(CHURN_BANDWIDTH, &churn_specs(21))
            .into_iter()
            .map(|t| t.map(f64::to_bits))
            .collect();
        assert_eq!(got, SEED_21);
    }
}

/// The completion timer's re-arm rule: it moves only when the next
/// completion moves earlier, and one shared callback serves every arm.
#[cfg(test)]
mod rearm_tests {
    use super::*;
    use des::Simulation;

    /// Starts `bytes` on `res` at `start`; resolves to the completion time.
    fn timed(
        sim: &Simulation,
        res: &SharedResource,
        start: f64,
        bytes: f64,
    ) -> des::JoinHandle<f64> {
        let (res, ctx) = (res.clone(), sim.context());
        sim.spawn(async move {
            ctx.sleep(start).await;
            res.transfer(bytes).await;
            ctx.now().as_secs()
        })
    }

    #[test]
    fn flows_that_push_the_completion_later_cancel_no_timer() {
        // 32 equal flows, 0.1 s apart: each join slows the flow closest to
        // done, so the next completion only ever moves later.
        let sim = Simulation::new();
        let res = SharedResource::new(&sim.context(), "disk", 100.0, 0.0);
        let handles: Vec<_> = (0..32)
            .map(|i| timed(&sim, &res, i as f64 * 0.1, 1000.0))
            .collect();
        let end = sim.run().as_secs();
        assert!((end - 320.0).abs() < 1e-9, "the device never idles: {end}");
        assert!(handles.iter().all(|h| h.is_finished()));
        assert_eq!(sim.stats().timers_cancelled, 0);
        assert_eq!(res.completed_flows(), 32);
    }

    #[test]
    fn a_short_flow_joining_a_long_one_rearms_the_timer_once() {
        // Long: 1000 B at t=0 (alone it ends at 10 s). Short: 100 B at t=1,
        // ends at 1 + 100/50 = 3 s, earlier than 10: one cancel and re-arm.
        // The long flow then has 800 B left at 100 B/s: 11 s.
        let sim = Simulation::new();
        let res = SharedResource::new(&sim.context(), "disk", 100.0, 0.0);
        let long = timed(&sim, &res, 0.0, 1000.0);
        let short = timed(&sim, &res, 1.0, 100.0);
        sim.run();
        assert_eq!(short.try_take_result(), Some(3.0));
        assert_eq!(long.try_take_result(), Some(11.0));
        let stats = sim.stats();
        // The short flow's start sleep, the arms at 10, 3 and 11 s.
        assert_eq!(stats.timers_scheduled, 4);
        assert_eq!(stats.timers_cancelled, 1);
        assert_eq!(stats.events_fired, 3);
    }

    #[test]
    fn a_dropped_simulation_frees_its_resources() {
        let sim = Simulation::new();
        let res = SharedResource::new(&sim.context(), "disk", 100.0, 0.0);
        let handle = timed(&sim, &res, 0.0, 1000.0);
        // Stop mid-transfer: the completion timer and its callback are armed.
        sim.run_until(des::SimTime::from_secs(5.0));
        assert!(res.inner.borrow().on_timer.is_some());
        let inner = Rc::downgrade(&res.inner);
        drop((sim, res, handle));
        assert!(
            inner.upgrade().is_none(),
            "a resource outlived its simulation"
        );
    }

    /// Completion times, as bits, of 20 staggered flows on a 97.3 MB/s
    /// resource, with `probes` stats queries fired from callbacks.
    fn probed_completions(probes: usize) -> Vec<u64> {
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "disk", 97.3e6, 0.0);
        let handles: Vec<_> = (0..20)
            .map(|i| timed(&sim, &res, i as f64 * 0.13, 10.0e6 + i as f64 * 1.7e6))
            .collect();
        for k in 1..=probes {
            let res = res.clone();
            ctx.schedule_callback(
                des::SimTime::from_secs(k as f64 * 0.1),
                Rc::new(move |_| {
                    assert!(res.total_bytes() > 0.0);
                    assert!(res.active_flows() > 0);
                }),
            );
        }
        sim.run();
        handles
            .iter()
            .map(|h| h.try_take_result().unwrap().to_bits())
            .collect()
    }

    #[test]
    fn stats_queries_do_not_change_the_run() {
        assert_eq!(probed_completions(50), probed_completions(0));
    }
}
