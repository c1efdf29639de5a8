//! Heap allocations per task lifecycle, counted by a global allocator that
//! counts the calls made on its own thread (the test harness runs each test
//! on a thread of its own).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use des::{SimTime, Simulation};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: a thread being torn down may still free memory.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_task_allocates_its_future_and_join_state_and_nothing_per_wake() {
    let sim = Simulation::new();
    let ctx = sim.context();
    let spawn_sleep_complete = || {
        let ctx = ctx.clone();
        let handle = sim.spawn(async move { ctx.sleep(1.0).await });
        sim.run();
        assert!(handle.is_finished());
    };
    // Warm-up: the task and timer tables, the queues and the spare wakers
    // reach the capacity one cycle needs.
    for _ in 0..4 {
        spawn_sleep_complete();
    }
    let per_spawn = allocations(spawn_sleep_complete);
    assert!(
        per_spawn <= 2,
        "a spawn-sleep-complete cycle made {per_spawn} allocations, \
         more than the boxed future and the join state"
    );

    // A live task that sleeps forever in one-second steps.
    let looping = {
        let ctx = ctx.clone();
        sim.spawn(async move {
            loop {
                ctx.sleep(1.0).await;
            }
        })
    };
    let mut horizon = sim.now().as_secs();
    let mut step = || {
        horizon += 1.0;
        sim.run_until(SimTime::from_secs(horizon));
    };
    for _ in 0..4 {
        step();
    }
    assert_eq!(allocations(&mut step), 0, "a sleep and its wake-up");
    // Nothing is due before the horizon: the run loop drains an idle wake
    // queue and stops.
    let idle = allocations(|| {
        sim.run_until(SimTime::from_secs(horizon + 0.5));
    });
    assert_eq!(idle, 0, "an idle drain");
    assert!(!looping.is_finished());
}
