//! Complexity regression test for the kernel emulator's reclaim indexes, on
//! their work counters.
//!
//! The shape of the Fig. 8 pipeline at scale: many writer files that stay
//! open for writing while their data is written back and becomes clean,
//! next to closed files read once, all under memory pressure. Eviction's
//! first pass may take only the closed files; once those are gone, the
//! second pass takes the oldest pages of the files being written. A sort
//! over every cached file costs one visit per cached file on every call,
//! and that count grows with the number of writers. The indexes must visit
//! about one entry per file actually reclaimed, whatever the writer count.

use des::Simulation;
use kernel_emu::KernelCache;
use pagecache::{CacheState, CacheWork, FileId, PageCacheConfig, ReclaimScope};
use storage_model::units::MB;
use storage_model::{DeviceSpec, Disk, MemoryDevice};

/// Bytes per write and per read.
const CHUNK: f64 = 4.0 * MB;
/// Cache capacity: a few chunks per writer, so reclaim runs constantly.
const CAPACITY: f64 = 512.0 * MB;
/// Writes issued, round-robin over the writers.
const WRITES: usize = 2_048;
/// Writes between two writebacks of everything dirty.
const WRITEBACK_EVERY: usize = 8;
/// Writes per chunk read from a closed file: reads are too rare to feed
/// eviction alone, so most calls reach the second pass.
const WRITES_PER_READ: usize = 4;

/// What one run measured.
struct Run {
    /// The cache's work counters, call counts included.
    work: CacheWork,
    /// Files holding cached pages, summed over the eviction calls: what a
    /// collect-and-sort selection visits.
    cached_files: u64,
    /// Files written back, summed over the writeback calls.
    files_written_back: u64,
    /// Bytes of the files being written that eviction took (second pass).
    evicted_while_written: f64,
}

fn serve(writers: usize) -> Run {
    let sim = Simulation::new();
    let ctx = sim.context();
    let memory = MemoryDevice::new(&ctx, DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY));
    let disk = Disk::new(
        &ctx,
        "disk",
        DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
    );
    let cache = KernelCache::new(&ctx, PageCacheConfig::default(), CAPACITY, memory, disk);
    let task = sim.spawn({
        let cache = cache.clone();
        async move {
            let mut run = Run {
                work: CacheWork::default(),
                cached_files: 0,
                files_written_back: 0,
                evicted_while_written: 0.0,
            };
            let make_room = |run: &mut Run| {
                let excess = cache.cached() + CHUNK - CAPACITY;
                if excess > 0.0 {
                    run.cached_files += cache.cache().cached_per_file().len() as u64;
                    cache.evict(excess, ReclaimScope::Host(None));
                }
            };
            let outputs: Vec<u64> = (0..writers)
                .map(|w| cache.create_file(&FileId::new(format!("out{w}")), 0.0))
                .collect::<Result<_, _>>()
                .unwrap();
            for &output in &outputs {
                cache.set_write_open(output, true);
            }
            for n in 0..WRITES {
                let output = outputs[n % writers];
                make_room(&mut run);
                let at = (n / writers) as f64 * CHUNK;
                cache.insert_dirty_range(output, at, at + CHUNK);

                if n % WRITES_PER_READ == 0 {
                    make_room(&mut run);
                    let input = cache
                        .create_file(&FileId::new(format!("in{n}")), CHUNK)
                        .unwrap();
                    cache.insert_clean_range(input, 0.0, CHUNK);
                }

                if n % WRITEBACK_EVERY == WRITEBACK_EVERY - 1 {
                    run.files_written_back += outputs
                        .iter()
                        .filter(|&&f| !cache.dirty_ranges(f).is_empty())
                        .count() as u64;
                    cache.flush(cache.dirty(), ReclaimScope::Host(None)).await;
                }
                // Access times differ, so victims go by age, not by name.
                ctx.sleep(1e-3).await;
            }
            run.work = cache.work();
            let still_cached: f64 = outputs.iter().map(|&f| cache.cached_amount(f)).sum();
            run.evicted_while_written = WRITES as f64 * CHUNK - still_cached;
            run
        }
    });
    sim.run();
    task.try_take_result().expect("the stream finished")
}

#[test]
fn eviction_visits_stay_flat_as_writers_double() {
    let small = serve(64);
    let large = serve(128);
    for (writers, run) in [(64, &small), (128, &large)] {
        let per_call = run.work.evict_visits as f64 / run.work.evict_calls as f64;
        let sorted_per_call = run.cached_files as f64 / run.work.evict_calls as f64;
        println!(
            "{writers} writers: {} evict calls, {per_call:.2} visits per call \
             (a full sort: {sorted_per_call:.1} files per call); {} writeback calls, \
             {} visits for {} files written back",
            run.work.evict_calls,
            run.work.writeback_calls,
            run.work.writeback_visits,
            run.files_written_back
        );
        assert!(
            run.work.evict_calls > 1_000,
            "{writers} writers: too little pressure"
        );
        assert!(
            run.evicted_while_written > 0.5 * WRITES as f64 * CHUNK,
            "{writers} writers: the second pass took only {} bytes",
            run.evicted_while_written
        );
        assert!(
            per_call <= 2.0,
            "{writers} writers: {per_call:.2} clean-index visits per evict call"
        );
        // Writeback of everything dirty visits each dirty file once.
        assert_eq!(
            run.work.writeback_visits, run.files_written_back,
            "{writers} writers: writeback visited files it did not write back"
        );
    }
    let per_call = |r: &Run| r.work.evict_visits as f64 / r.work.evict_calls as f64;
    let sorted = |r: &Run| r.cached_files as f64 / r.work.evict_calls as f64;
    // The regime is one where a full sort would grow with the writers...
    assert!(
        sorted(&large) >= 1.5 * sorted(&small),
        "cached files per call {:.1} -> {:.1}: the test no longer scales the file set",
        sorted(&small),
        sorted(&large)
    );
    // ...while the index walk does not.
    assert!(
        per_call(&large) <= 1.1 * per_call(&small),
        "evict visits per call grew {:.2} -> {:.2} for twice the writers",
        per_call(&small),
        per_call(&large)
    );
}
