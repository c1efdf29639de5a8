//! The discrete-event execution engine.
//!
//! The engine owns a set of *processes* (plain Rust futures), a virtual clock,
//! and a timer queue. A process runs until it awaits something
//! that takes virtual time (a [`sleep`](crate::SimContext::sleep), a storage
//! transfer, a semaphore, ...). When no process is runnable, the clock jumps
//! to the next scheduled event. Execution is fully deterministic: processes
//! are resumed in FIFO order and simultaneous timers fire in the order they
//! were scheduled.
//!
//! This is the same execution model as SimGrid's actors, which the paper's
//! WRENCH-cache implementation relies on, reduced to what a page-cache /
//! storage simulation needs.
//!
//! ## The scheduler
//!
//! Timers live in a [`TimerQueue`](crate::scheduler::TimerQueue), one
//! binary heap of `(time, seq)` keys popped in exactly that order. See the
//! [`scheduler`](crate::scheduler) module docs for why one heap suffices.
//!
//! ## Cancellation
//!
//! [`SimContext::cancel_timer`] revokes the timer's action (an O(1) slab
//! removal, which also makes the [`TimerId`] stale: cancelling it again, or
//! after its slot went to a new timer, is a no-op) and tells the queue. Dead
//! keys are dropped when they surface at the top, or all at once when they
//! outnumber live ones, so timeout/hedge-heavy workloads (every `select2`
//! loser drops a `Sleep`) keep the queue's physical size bounded by about
//! twice the live timer count.
//!
//! ## Tables
//!
//! Tasks and timer actions live in two [`Slab`]s. A [`TaskId`] or
//! [`TimerId`] is a slab key, so locating one is an index, not a hash, and a
//! stale id (a waker that outlived its task, a fired timer's id) never
//! reaches the task or timer that reused its slot. Wakers push task ids onto
//! a shared queue and then raise its `pending` flag. The run loop drains the
//! queue after every poll, and the queue is almost always empty: a clear
//! flag returns at once, without taking the queue's lock. A raised flag is
//! cleared and the queue swapped with a buffer of the run loop's own, so a
//! wake allocates nothing.
//!
//! A task's slot holds its [`Waker`] and the `Arc<SimWaker>` behind it. The
//! waker is taken out of the slot for a poll and put back after, so a poll
//! touches no reference count. When a task completes and its `Arc` has no
//! clone left (no timer, join handle or device holds its waker), the `Arc`
//! goes to a list of spare wakers, and the next spawn takes it and sets its
//! task id instead of allocating a new one. A waker with a clone still out
//! is never reused, so a wake through that clone names the completed
//! task's stale id and polls nothing.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

use crate::scheduler::{TimerKey, TimerQueue};
use crate::slab::Slab;
use crate::time::SimTime;

pub use crate::scheduler::TimerId;

/// Identifier of a spawned process: its key in the engine's task [`Slab`]
/// (a slot index in the low 32 bits, the slot's reuse generation in the high
/// 32 bits), so a stale wake-up for a completed task can never resume an
/// unrelated process that recycled its slot.
pub type TaskId = u64;

type LocalFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// A timer callback for [`SimContext::schedule_callback`]: shared, so its
/// owner can arm it again and again without allocating.
pub type Callback = Rc<dyn Fn(&SimContext)>;

/// What to do when a timer fires.
pub(crate) enum TimerAction {
    /// Wake a future that is waiting on this timer.
    Wake(Waker),
    /// Run a shared, re-armable callback (used by the flow-level resource
    /// models to re-evaluate bandwidth shares at the next completion point).
    Callback(Callback),
}

/// One live process in the task slab: its future and its waker (both taken
/// out while it is polled), the `Arc` behind the waker (kept to recycle it
/// once the task completes), and whether it already sits in the ready queue
/// (an O(1) bit check instead of a scan of the queue).
struct TaskSlot {
    fut: Option<LocalFuture>,
    waker: Option<Waker>,
    sim_waker: Arc<SimWaker>,
    queued: bool,
}

/// Work counters of one [`Simulation`], returned by [`Simulation::stats`].
/// Each is a plain count, so it is identical on any machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Timers that fired: wake-ups plus callbacks run.
    pub events_fired: u64,
    /// Times a task's future was polled.
    pub task_polls: u64,
    /// Timers scheduled: sleeps that had to wait, plus callbacks.
    pub timers_scheduled: u64,
    /// Timers cancelled before they fired.
    pub timers_cancelled: u64,
    /// Most timers armed at once.
    pub peak_live_timers: u64,
}

struct Engine {
    now: SimTime,
    seq: u64,
    queue: TimerQueue,
    /// Liveness authority: a timer is armed iff its action is here. The
    /// queue's stored keys are validated against this slab on peek/pop.
    timers: Slab<TimerAction>,
    /// Live (spawned, not yet completed) tasks.
    tasks: Slab<TaskSlot>,
    /// Tasks ready to be polled, FIFO.
    ready: VecDeque<TaskId>,
    /// Tasks woken through a `Waker`; swapped with `woken` by the run loop.
    wake_queue: Arc<WakeQueue>,
    /// The run loop's side of the wake queue: drained, then swapped back
    /// empty, so both buffers keep their capacity.
    woken: Vec<TaskId>,
    /// Wakers of completed tasks that nothing else holds, for the next
    /// spawns to reuse.
    spare_wakers: Vec<Arc<SimWaker>>,
    stats: EngineStats,
}

impl Engine {
    fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            queue: TimerQueue::new(),
            timers: Slab::new(),
            tasks: Slab::new(),
            ready: VecDeque::new(),
            wake_queue: Arc::new(WakeQueue {
                pending: AtomicBool::new(false),
                tasks: Mutex::new(Vec::new()),
            }),
            woken: Vec::new(),
            spare_wakers: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    fn schedule(&mut self, at: SimTime, action: TimerAction) -> TimerId {
        let id = TimerId::from_raw(self.timers.insert(action));
        self.seq += 1;
        self.queue.schedule(TimerKey {
            time: at.max(self.now),
            seq: self.seq,
            id,
        });
        self.stats.timers_scheduled += 1;
        self.stats.peak_live_timers = self.stats.peak_live_timers.max(self.timers.len() as u64);
        id
    }
}

/// The ids of woken tasks, and whether any were pushed since the run loop
/// last drained them.
struct WakeQueue {
    pending: AtomicBool,
    tasks: Mutex<Vec<TaskId>>,
}

impl WakeQueue {
    fn push(&self, task: TaskId) {
        self.tasks
            .lock()
            .expect("no waker panics holding the queue")
            .push(task);
        self.pending.store(true, Ordering::Release);
    }
}

struct SimWaker {
    task: TaskId,
    queue: Arc<WakeQueue>,
}

impl std::task::Wake for SimWaker {
    fn wake(self: Arc<Self>) {
        self.queue.push(self.task);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.queue.push(self.task);
    }
}

/// A handle to the simulation usable from inside simulated processes.
///
/// Cloning is cheap (reference-counted). All interactions with virtual time —
/// reading the clock, sleeping, spawning further processes, scheduling
/// callbacks — go through this handle.
#[derive(Clone)]
pub struct SimContext {
    engine: Rc<RefCell<Engine>>,
}

impl SimContext {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine.borrow().now
    }

    /// Returns a future that completes after `secs` seconds of virtual time.
    pub fn sleep(&self, secs: f64) -> Sleep {
        assert!(
            secs >= 0.0 && !secs.is_nan(),
            "sleep duration must be non-negative, got {secs}"
        );
        let deadline = self.now() + secs;
        Sleep {
            ctx: self.clone(),
            deadline,
            timer: None,
        }
    }

    /// Returns a future that completes at the given absolute virtual time
    /// (immediately if `deadline` is in the past).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            ctx: self.clone(),
            deadline,
            timer: None,
        }
    }

    /// Yields to other runnable processes once, without advancing time.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { polled: false }
    }

    /// Spawns a new simulated process and returns a handle to await its result.
    pub fn spawn<F, T>(&self, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        let state = Rc::new(RefCell::new(JoinState {
            result: None,
            waker: None,
            finished: false,
        }));
        let state2 = Rc::clone(&state);
        let wrapped = async move {
            let out = fut.await;
            let mut s = state2.borrow_mut();
            s.result = Some(out);
            s.finished = true;
            if let Some(w) = s.waker.take() {
                w.wake();
            }
        };
        let id = {
            let mut eng = self.engine.borrow_mut();
            let eng = &mut *eng;
            let (queue, spares) = (&eng.wake_queue, &mut eng.spare_wakers);
            let id = eng.tasks.insert_with(|id| {
                // The task's one waker, shared by every poll of its lifetime:
                // a completed task's, if one is spare.
                let sim_waker = match spares.pop() {
                    Some(mut spare) => {
                        Arc::get_mut(&mut spare)
                            .expect("a spare waker has no clone")
                            .task = id;
                        spare
                    }
                    None => Arc::new(SimWaker {
                        task: id,
                        queue: Arc::clone(queue),
                    }),
                };
                TaskSlot {
                    fut: Some(Box::pin(wrapped)),
                    waker: Some(Waker::from(Arc::clone(&sim_waker))),
                    sim_waker,
                    queued: true,
                }
            });
            eng.ready.push_back(id);
            id
        };
        JoinHandle { state, task: id }
    }

    /// Schedules `callback` to run at virtual time `at` (clamped to now if in
    /// the past). Returns a [`TimerId`] that can be cancelled.
    ///
    /// The callback is shared, not consumed: the timer holds one reference
    /// and drops it when it fires or is cancelled. An owner that keeps its
    /// own clone can arm the same callback again and again — re-arming
    /// costs a reference-count bump, not an allocation.
    pub fn schedule_callback(&self, at: SimTime, callback: Callback) -> TimerId {
        self.engine
            .borrow_mut()
            .schedule(at, TimerAction::Callback(callback))
    }

    /// Cancels a previously scheduled timer. Cancelling an already-fired or
    /// unknown timer is a no-op.
    ///
    /// The timer's action is revoked immediately; its key in the queue is
    /// reclaimed eagerly once cancelled keys outnumber live ones, so
    /// cancel-heavy workloads (timeouts, hedged requests) cannot grow the
    /// scheduler without bound.
    pub fn cancel_timer(&self, id: TimerId) {
        let mut eng = self.engine.borrow_mut();
        let eng = &mut *eng;
        if eng.timers.remove(id.raw()).is_some() {
            eng.stats.timers_cancelled += 1;
            let timers = &eng.timers;
            eng.queue.cancel(|t| timers.contains(t.raw()));
        }
    }

    fn schedule_wake(&self, at: SimTime, waker: Waker) -> TimerId {
        self.engine
            .borrow_mut()
            .schedule(at, TimerAction::Wake(waker))
    }

    fn replace_waker(&self, id: TimerId, waker: Waker) {
        if let Some(action) = self.engine.borrow_mut().timers.get_mut(id.raw()) {
            *action = TimerAction::Wake(waker);
        }
    }
}

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
    finished: bool,
}

/// Handle returned by [`SimContext::spawn`]; awaiting it yields the process'
/// result.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
    task: TaskId,
}

impl<T> JoinHandle<T> {
    /// The identifier of the spawned process.
    pub fn id(&self) -> TaskId {
        self.task
    }

    /// Whether the process has completed.
    pub fn is_finished(&self) -> bool {
        self.state.borrow().finished
    }

    /// Takes the result if the process has completed, without awaiting.
    pub fn try_take_result(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        if s.finished {
            Poll::Ready(s.result.take().expect("JoinHandle polled after completion"))
        } else {
            s.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Future returned by [`SimContext::sleep`].
pub struct Sleep {
    ctx: SimContext,
    deadline: SimTime,
    timer: Option<TimerId>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.ctx.now() >= self.deadline {
            if let Some(t) = self.timer.take() {
                self.ctx.cancel_timer(t);
            }
            return Poll::Ready(());
        }
        match self.timer {
            Some(t) => self.ctx.replace_waker(t, cx.waker().clone()),
            None => {
                let t = self.ctx.schedule_wake(self.deadline, cx.waker().clone());
                self.timer = Some(t);
            }
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        // A `Sleep` dropped before its deadline (e.g. the losing side of a
        // `select2` timeout race) must not leave its timer armed: a live
        // wake-up timer would still be "work" and drag the virtual clock to
        // the abandoned deadline. Cancelled timers are skipped by the engine
        // without advancing `now`, so cancellation here is free.
        if let Some(t) = self.timer.take() {
            self.ctx.cancel_timer(t);
        }
    }
}

/// Future returned by [`SimContext::yield_now`].
pub struct YieldNow {
    polled: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.polled {
            Poll::Ready(())
        } else {
            self.polled = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// A complete simulation: the virtual clock, the processes, and the run loop.
pub struct Simulation {
    engine: Rc<RefCell<Engine>>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            engine: Rc::new(RefCell::new(Engine::new())),
        }
    }

    /// Returns a context handle for spawning processes and reading the clock.
    pub fn context(&self) -> SimContext {
        SimContext {
            engine: Rc::clone(&self.engine),
        }
    }

    /// Spawns a root process. Equivalent to `self.context().spawn(fut)`.
    pub fn spawn<F, T>(&self, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        self.context().spawn(fut)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine.borrow().now
    }

    /// Number of processes that have been spawned and not yet completed.
    pub fn pending_tasks(&self) -> usize {
        self.engine.borrow().tasks.len()
    }

    /// The engine's work counters so far.
    pub fn stats(&self) -> EngineStats {
        self.engine.borrow().stats
    }

    /// Runs until no more work can make progress, returning the final virtual
    /// time. Processes still pending at that point are deadlocked (typically
    /// an infinite background loop such as the periodical flusher, which is
    /// expected and harmless).
    pub fn run(&self) -> SimTime {
        self.run_until(SimTime::from_secs(f64::INFINITY))
    }

    /// Runs until no more work can make progress or the clock would pass
    /// `horizon`. Returns the final virtual time (never beyond `horizon`).
    ///
    /// # Panics
    /// Panics if the simulation livelocks: tens of millions of events fire
    /// without virtual time advancing, which indicates a model bug (e.g. a
    /// process that re-schedules work at the current instant forever). A
    /// correct model always moves the clock forward eventually.
    pub fn run_until(&self, horizon: SimTime) -> SimTime {
        const LIVELOCK_THRESHOLD: u64 = 20_000_000;
        let mut last_time = self.now();
        let mut stagnant_steps: u64 = 0;
        loop {
            self.drain_wake_queue();
            loop {
                let next = self.engine.borrow_mut().ready.pop_front();
                match next {
                    Some(task) => {
                        self.poll_task(task);
                        self.drain_wake_queue();
                    }
                    None => break,
                }
            }
            if !self.advance(horizon) {
                break;
            }
            let now = self.now();
            if now > last_time {
                last_time = now;
                stagnant_steps = 0;
            } else {
                stagnant_steps += 1;
                assert!(
                    stagnant_steps < LIVELOCK_THRESHOLD,
                    "simulation livelock: {LIVELOCK_THRESHOLD} events fired at virtual time {now} without progress"
                );
            }
        }
        self.now()
    }

    fn drain_wake_queue(&self) {
        let mut eng = self.engine.borrow_mut();
        let eng = &mut *eng;
        let queue = &eng.wake_queue;
        if !queue.pending.load(Ordering::Acquire) {
            debug_assert!(
                queue.tasks.lock().expect("no waker panics").is_empty(),
                "a wake left its task queued without raising the flag"
            );
            return;
        }
        // Cleared before the swap: a wake that lands in between raises the
        // flag again, and the next drain finds it.
        queue.pending.store(false, Ordering::Release);
        std::mem::swap(
            &mut *queue
                .tasks
                .lock()
                .expect("no waker panics holding the queue"),
            &mut eng.woken,
        );
        for &task in &eng.woken {
            // Stale wake-ups (completed task, possibly recycled slot) find
            // no slot; duplicate wake-ups are caught by the queued bit — no
            // scan of the ready queue.
            if let Some(slot) = eng.tasks.get_mut(task) {
                if !slot.queued {
                    slot.queued = true;
                    eng.ready.push_back(task);
                }
            }
        }
        eng.woken.clear();
    }

    fn poll_task(&self, task: TaskId) {
        let (mut fut, waker) = {
            let mut eng = self.engine.borrow_mut();
            let eng = &mut *eng;
            let Some(slot) = eng.tasks.get_mut(task) else {
                return; // already completed
            };
            slot.queued = false;
            let Some(fut) = slot.fut.take() else {
                return; // re-entrant poll; cannot happen single-threaded
            };
            eng.stats.task_polls += 1;
            // Taken out, not cloned: no reference count moves.
            let waker = slot.waker.take().expect("an idle task has its waker");
            (fut, waker)
        };
        let mut cx = Context::from_waker(&waker);
        let done = fut.as_mut().poll(&mut cx).is_ready();
        if done {
            // Dropped before the engine is borrowed: a future's drop may
            // re-enter it (a `Sleep` cancels its timer).
            drop((fut, waker));
            let mut eng = self.engine.borrow_mut();
            let eng = &mut *eng;
            // Bumps the slot's generation: any outstanding wake-up for this
            // task becomes a recognised no-op.
            let mut slot = eng.tasks.remove(task).expect("a polled task is live");
            if Arc::get_mut(&mut slot.sim_waker).is_some() {
                eng.spare_wakers.push(slot.sim_waker);
            }
        } else if let Some(slot) = self.engine.borrow_mut().tasks.get_mut(task) {
            slot.fut = Some(fut);
            slot.waker = Some(waker);
        }
    }

    /// Advances to the next timer event strictly necessary to make progress.
    /// Returns false when there is nothing left to do (or the horizon is hit).
    fn advance(&self, horizon: SimTime) -> bool {
        let action = {
            let mut eng = self.engine.borrow_mut();
            let eng = &mut *eng;
            // Peek discards cancelled keys on the way, so the head is always
            // a live timer — a timer left in place by a horizon stop keeps
            // its original (time, seq) position.
            let timers = &eng.timers;
            let Some(key) = eng.queue.peek(|t| timers.contains(t.raw())) else {
                return false;
            };
            if key.time > horizon {
                eng.now = eng.now.max(horizon.min(key.time));
                return false;
            }
            let key = eng
                .queue
                .pop(|t| timers.contains(t.raw()))
                .expect("peeked key is present");
            eng.now = eng.now.max(key.time);
            eng.stats.events_fired += 1;
            eng.timers
                .remove(key.id.raw())
                .expect("live timer has an action")
        };
        match action {
            TimerAction::Wake(waker) => waker.wake(),
            TimerAction::Callback(cb) => cb(&self.context()),
        }
        true
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Break potential Rc cycles between the engine and callbacks/tasks
        // that capture SimContext handles. The contents are moved out and
        // dropped *after* the borrow is released: dropping a task future can
        // run `Drop` impls (e.g. `Sleep` cancelling its timer) that re-enter
        // the engine.
        let (timers, queue, tasks, ready) = {
            let mut eng = self.engine.borrow_mut();
            (
                std::mem::take(&mut eng.timers),
                std::mem::take(&mut eng.queue),
                std::mem::take(&mut eng.tasks),
                std::mem::take(&mut eng.ready),
            )
        };
        drop((timers, queue, tasks, ready));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Simulation::new();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_clock() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let h = sim.spawn(async move {
            ctx.sleep(5.0).await;
            ctx.now()
        });
        sim.run();
        assert_eq!(h.try_take_result().unwrap().as_secs(), 5.0);
        assert_eq!(sim.now().as_secs(), 5.0);
    }

    #[test]
    fn zero_sleep_completes_immediately() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let h = sim.spawn(async move {
            ctx.sleep(0.0).await;
            ctx.now().as_secs()
        });
        sim.run();
        assert_eq!(h.try_take_result().unwrap(), 0.0);
    }

    #[test]
    fn sequential_sleeps_accumulate() {
        let sim = Simulation::new();
        let ctx = sim.context();
        sim.spawn(async move {
            ctx.sleep(1.0).await;
            ctx.sleep(2.0).await;
            ctx.sleep(3.0).await;
        });
        let end = sim.run();
        assert!((end.as_secs() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_processes_interleave_in_virtual_time() {
        let sim = Simulation::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (name, delay) in [("b", 2.0), ("a", 1.0), ("c", 3.0)] {
            let ctx = sim.context();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                ctx.sleep(delay).await;
                order.borrow_mut().push(name);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["a", "b", "c"]);
        assert_eq!(sim.now().as_secs(), 3.0);
    }

    #[test]
    fn spawn_returns_result_via_join_handle() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let handle = sim.spawn(async move {
            ctx.sleep(1.0).await;
            42
        });
        sim.run();
        assert!(handle.is_finished());
        assert_eq!(handle.try_take_result(), Some(42));
    }

    #[test]
    fn join_handle_can_be_awaited() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let outer = sim.spawn({
            let ctx = ctx.clone();
            async move {
                let inner = ctx.spawn({
                    let ctx = ctx.clone();
                    async move {
                        ctx.sleep(4.0).await;
                        "done"
                    }
                });
                let r = inner.await;
                (r, ctx.now().as_secs())
            }
        });
        sim.run();
        assert_eq!(outer.try_take_result(), Some(("done", 4.0)));
    }

    #[test]
    fn callbacks_fire_in_time_order_then_schedule_order() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (tag, t) in [("x", 2.0), ("y", 1.0), ("z", 2.0)] {
            let log = Rc::clone(&log);
            ctx.schedule_callback(
                SimTime::from_secs(t),
                Rc::new(move |c| {
                    log.borrow_mut().push((tag, c.now().as_secs()));
                }),
            );
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![("y", 1.0), ("x", 2.0), ("z", 2.0)]);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let fired = Rc::new(Cell::new(false));
        let f2 = Rc::clone(&fired);
        let id = ctx.schedule_callback(SimTime::from_secs(1.0), Rc::new(move |_| f2.set(true)));
        ctx.cancel_timer(id);
        sim.run();
        assert!(!fired.get());
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let sim = Simulation::new();
        let ctx = sim.context();
        sim.spawn(async move {
            ctx.sleep(100.0).await;
        });
        let t = sim.run_until(SimTime::from_secs(10.0));
        assert_eq!(t.as_secs(), 10.0);
        assert_eq!(sim.pending_tasks(), 1);
        // Resuming finishes the process.
        sim.run();
        assert_eq!(sim.now().as_secs(), 100.0);
        assert_eq!(sim.pending_tasks(), 0);
    }

    #[test]
    fn yield_now_lets_other_tasks_run_at_same_time() {
        let sim = Simulation::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let ctx = sim.context();
        {
            let log = Rc::clone(&log);
            let ctx = ctx.clone();
            sim.spawn(async move {
                log.borrow_mut().push(1);
                ctx.yield_now().await;
                log.borrow_mut().push(3);
            });
        }
        {
            let log = Rc::clone(&log);
            sim.spawn(async move {
                log.borrow_mut().push(2);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn infinite_background_loop_leaves_pending_task() {
        let sim = Simulation::new();
        let ctx = sim.context();
        sim.spawn(async move {
            loop {
                ctx.sleep(5.0).await;
            }
        });
        // A bounded foreground process.
        let ctx2 = sim.context();
        sim.spawn(async move { ctx2.sleep(12.0).await });
        let t = sim.run_until(SimTime::from_secs(60.0));
        assert_eq!(t.as_secs(), 60.0);
        assert_eq!(sim.pending_tasks(), 1);
    }

    #[test]
    fn high_fan_out_timer_load_fires_in_order() {
        // An open-loop traffic generator spawns one task per request: tens
        // of thousands of timers live in the queue at once. Spawn 20k
        // sleepers with scrambled durations and verify they fire in exact
        // virtual-time order with ties broken deterministically.
        const N: u64 = 20_000;
        let sim = Simulation::new();
        let fired = Rc::new(RefCell::new(Vec::with_capacity(N as usize)));
        let peak = Rc::new(Cell::new(0u64));
        let live = Rc::new(Cell::new(0u64));
        for i in 0..N {
            let ctx = sim.context();
            let fired = Rc::clone(&fired);
            let peak = Rc::clone(&peak);
            let live = Rc::clone(&live);
            // Scrambled, collision-heavy durations in [0.1, 500].
            let delay = ((i.wrapping_mul(2654435761)) % 5000 + 1) as f64 / 10.0;
            sim.spawn(async move {
                live.set(live.get() + 1);
                peak.set(peak.get().max(live.get()));
                ctx.sleep(delay).await;
                live.set(live.get() - 1);
                fired.borrow_mut().push((ctx.now().as_secs(), i));
            });
        }
        sim.run();
        let fired = fired.borrow();
        assert_eq!(fired.len(), N as usize);
        assert_eq!(peak.get(), N, "all sleepers were concurrently in flight");
        for pair in fired.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "timers fired out of order");
            if pair[0].0 == pair[1].0 {
                // Equal deadlines fire in spawn order: determinism under
                // heavy timer collisions.
                assert!(pair[0].1 < pair[1].1);
            }
        }
        assert_eq!(sim.now().as_secs(), 500.0);
    }

    #[test]
    fn cancel_storm_keeps_scheduler_size_bounded() {
        // Regression test for the cancelled-timer leak: the old engine left
        // every cancelled TimerKey in the heap until popped, so a timeout-
        // heavy workload (each `select2` loser drops a `Sleep` and cancels
        // its timer) accumulated unbounded garbage and paid O(log garbage)
        // per push. The queue must reclaim cancelled keys eagerly.
        let sim = Simulation::new();
        let ctx = sim.context();
        let mut peak = 0usize;
        for round in 0..100 {
            let ids: Vec<TimerId> = (0..1000)
                .map(|i| {
                    ctx.schedule_callback(
                        SimTime::from_secs(1e6 + (round * 1000 + i) as f64),
                        Rc::new(|_| panic!("cancelled timer must not fire")),
                    )
                })
                .collect();
            for id in ids {
                ctx.cancel_timer(id);
            }
            peak = peak.max(sim.engine.borrow().queue.len());
        }
        // 100k timers were scheduled and cancelled; the scheduler never held
        // more than a small multiple of one round's worth.
        assert!(peak <= 4096, "scheduler grew to {peak} physical keys");
        assert_eq!(sim.engine.borrow().queue.live(), 0);
        sim.run();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn timer_scheduled_after_horizon_stop_fires_in_order() {
        // run_until leaves the far timer in the queue; a timer scheduled
        // afterwards at an *earlier* time must still fire first.
        let sim = Simulation::new();
        let ctx = sim.context();
        let log = Rc::new(RefCell::new(Vec::new()));
        {
            let log = Rc::clone(&log);
            ctx.schedule_callback(
                SimTime::from_secs(100.0),
                Rc::new(move |c| {
                    log.borrow_mut().push(("far", c.now().as_secs()));
                }),
            );
        }
        let t = sim.run_until(SimTime::from_secs(10.0));
        assert_eq!(t.as_secs(), 10.0);
        {
            let log = Rc::clone(&log);
            ctx.schedule_callback(
                SimTime::from_secs(20.0),
                Rc::new(move |c| {
                    log.borrow_mut().push(("near", c.now().as_secs()));
                }),
            );
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![("near", 20.0), ("far", 100.0)]);
    }

    #[test]
    fn stats_count_polls_timers_and_events() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let cancelled = ctx.schedule_callback(
            SimTime::from_secs(3.0),
            Rc::new(|_| panic!("cancelled timer must not fire")),
        );
        ctx.cancel_timer(cancelled);
        ctx.schedule_callback(SimTime::from_secs(1.5), Rc::new(|_| {}));
        for delay in [1.0, 2.0] {
            let ctx = ctx.clone();
            sim.spawn(async move { ctx.sleep(delay).await });
        }
        sim.run();
        assert_eq!(
            sim.stats(),
            EngineStats {
                // Two wake-ups and the callback.
                events_fired: 3,
                // Each sleeper: one poll that arms its timer, one that ends.
                task_polls: 4,
                timers_scheduled: 4,
                // Only the explicit cancel: a sleeper dropping its fired
                // timer's id cancels nothing.
                timers_cancelled: 1,
                // The callback and both sleeps.
                peak_live_timers: 3,
            }
        );
    }

    #[test]
    fn one_shared_callback_can_be_armed_again_and_again() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let fired = Rc::new(RefCell::new(Vec::new()));
        let callback: Callback = {
            let fired = Rc::clone(&fired);
            Rc::new(move |c| fired.borrow_mut().push(c.now().as_secs()))
        };
        for t in [1.0, 2.0, 3.0] {
            ctx.schedule_callback(SimTime::from_secs(t), Rc::clone(&callback));
        }
        let cancelled = ctx.schedule_callback(SimTime::from_secs(4.0), Rc::clone(&callback));
        assert_eq!(
            Rc::strong_count(&callback),
            5,
            "each armed timer holds one reference"
        );
        ctx.cancel_timer(cancelled);
        sim.run();
        assert_eq!(*fired.borrow(), [1.0, 2.0, 3.0]);
        assert_eq!(
            Rc::strong_count(&callback),
            1,
            "fired and cancelled timers let go"
        );
    }

    #[test]
    fn stale_timer_id_cannot_cancel_the_timer_that_reused_its_slot() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let fired = ctx.schedule_callback(SimTime::from_secs(1.0), Rc::new(|_| {}));
        sim.run();
        let hit = Rc::new(Cell::new(false));
        let h = Rc::clone(&hit);
        let armed = ctx.schedule_callback(SimTime::from_secs(2.0), Rc::new(move |_| h.set(true)));
        assert_eq!(armed.raw() as u32, fired.raw() as u32, "slot reused");
        assert_ne!(armed, fired);
        ctx.cancel_timer(fired);
        assert_eq!(sim.stats().timers_cancelled, 0);
        sim.run();
        assert!(hit.get(), "the new timer stayed armed");
        assert_eq!(sim.now().as_secs(), 2.0);
    }

    #[test]
    fn simultaneous_timers_in_recycled_slots_fire_in_schedule_order() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let far: Vec<TimerId> = (0..4)
            .map(|_| ctx.schedule_callback(SimTime::from_secs(10.0), Rc::new(|_| {})))
            .collect();
        // Free slots 1, 3, 0: later timers take them in the order 0, 3, 1.
        for i in [1, 3, 0] {
            ctx.cancel_timer(far[i]);
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let slots: Vec<u32> = ["x", "y", "z"]
            .into_iter()
            .map(|tag| {
                let log = Rc::clone(&log);
                let id = ctx.schedule_callback(
                    SimTime::from_secs(5.0),
                    Rc::new(move |_| log.borrow_mut().push(tag)),
                );
                id.raw() as u32
            })
            .collect();
        assert_eq!(slots, [0, 3, 1]);
        sim.run();
        assert_eq!(*log.borrow(), ["x", "y", "z"]);
        assert_eq!(sim.now().as_secs(), 10.0);
    }

    /// Where a test task leaves a clone of its waker.
    type WakerSlot = Rc<RefCell<Option<Waker>>>;

    /// Spawns a task that counts its polls, keeps a clone of its waker and
    /// never finishes on its own.
    fn spawn_pending_counter(sim: &Simulation) -> (Rc<Cell<u32>>, WakerSlot, JoinHandle<()>) {
        let polls = Rc::new(Cell::new(0));
        let own = WakerSlot::default();
        let handle = sim.spawn({
            let (polls, own) = (Rc::clone(&polls), Rc::clone(&own));
            std::future::poll_fn(move |cx| {
                polls.set(polls.get() + 1);
                *own.borrow_mut() = Some(cx.waker().clone());
                Poll::<()>::Pending
            })
        });
        (polls, own, handle)
    }

    #[test]
    fn a_cleanly_completed_tasks_waker_serves_the_next_spawn() {
        let sim = Simulation::new();
        let first = sim.spawn(async {});
        sim.run();
        let spare = {
            let eng = sim.engine.borrow();
            assert_eq!(eng.spare_wakers.len(), 1, "no clone was left out");
            Arc::as_ptr(&eng.spare_wakers[0])
        };
        let (polls, own, second) = spawn_pending_counter(&sim);
        {
            let eng = sim.engine.borrow();
            assert!(eng.spare_wakers.is_empty());
            let slot = eng.tasks.get(second.id()).unwrap();
            assert_eq!(Arc::as_ptr(&slot.sim_waker), spare, "the waker was reused");
            assert_eq!(slot.sim_waker.task, second.id());
        }
        assert_ne!(second.id(), first.id());
        sim.run();
        assert_eq!(polls.get(), 1);
        own.borrow().as_ref().unwrap().wake_by_ref();
        sim.run();
        assert_eq!(polls.get(), 2, "the reused waker polls the new task");
        assert_eq!(sim.stats().task_polls, 3, "and only the new task");
    }

    #[test]
    fn stale_task_wake_after_slot_reuse_is_a_no_op() {
        let sim = Simulation::new();
        let stale = WakerSlot::default();
        let first = sim.spawn({
            let stale = Rc::clone(&stale);
            std::future::poll_fn(move |cx| {
                *stale.borrow_mut() = Some(cx.waker().clone());
                Poll::Ready(())
            })
        });
        sim.run();
        assert!(
            sim.engine.borrow().spare_wakers.is_empty(),
            "a waker with a clone out is not reused"
        );
        let (polls, own, second) = spawn_pending_counter(&sim);
        sim.run();
        assert_eq!(second.id() as u32, first.id() as u32, "slot reused");
        assert_ne!(second.id(), first.id());
        assert_eq!(polls.get(), 1);
        let stale = stale.borrow_mut().take().unwrap();
        assert!(!stale.will_wake(own.borrow().as_ref().unwrap()));
        stale.wake();
        sim.run();
        assert_eq!(polls.get(), 1, "the stale wake polled nothing");
        own.borrow().as_ref().unwrap().wake_by_ref();
        sim.run();
        assert_eq!(polls.get(), 2, "the task's own waker still works");
        assert_eq!(sim.stats().task_polls, 3);
    }

    #[test]
    fn determinism_same_program_same_trace() {
        fn trace() -> Vec<(u32, f64)> {
            let sim = Simulation::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..10u32 {
                let ctx = sim.context();
                let log = Rc::clone(&log);
                sim.spawn(async move {
                    ctx.sleep(((i * 7) % 5) as f64).await;
                    log.borrow_mut().push((i, ctx.now().as_secs()));
                });
            }
            sim.run();
            let out = log.borrow().clone();
            out
        }
        assert_eq!(trace(), trace());
    }
}
