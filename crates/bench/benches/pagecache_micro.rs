//! Micro-benchmarks of the core data structures: LRU list operations, the
//! I/O controller fast path, and the discrete-event engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use des::{SimTime, Simulation};
use pagecache::{
    EvictionPolicy, FileId, IoController, LruLists, MemoryManager, PageCacheConfig, ReclaimScope,
};
use storage_model::units::{GB, MB};
use storage_model::{DeviceSpec, Disk, MemoryDevice, SharedResource, SharingPolicy};

fn bench_lru_operations(c: &mut Criterion) {
    let mut group = c.benchmark_group("lru_lists");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &blocks in &[100usize, 1_000, 10_000, 100_000] {
        group.bench_with_input(
            BenchmarkId::new("add_and_read", blocks),
            &blocks,
            |b, &n| {
                b.iter(|| {
                    let mut lru = LruLists::new();
                    let file: FileId = "f".into();
                    for i in 0..n {
                        lru.add_clean(file.clone(), 1.0 * MB, SimTime::from_secs(i as f64));
                    }
                    lru.read_cached(&file, n as f64 * MB, SimTime::from_secs(n as f64));
                    lru.total_cached()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("flush_and_evict", blocks),
            &blocks,
            |b, &n| {
                b.iter(|| {
                    let mut lru = LruLists::new();
                    for i in 0..n {
                        lru.add_dirty(
                            FileId::new(format!("f{}", i % 10)),
                            1.0 * MB,
                            SimTime::from_secs(i as f64),
                        );
                    }
                    lru.flush_lru(n as f64 * MB / 2.0, ReclaimScope::Host(None));
                    lru.evict(n as f64 * MB / 4.0, ReclaimScope::Host(None));
                    lru.block_count()
                })
            },
        );
    }
    group.finish();
}

/// Interleaved multi-file workload: blocks of many files alternate on the
/// lists, so per-file reads cannot rely on the target file's blocks being
/// contiguous. This is the access pattern of `nfs_cluster` and
/// `concurrent_instances`: with scan-based lists every `read_cached` walks
/// every block of every file, degrading toward O(n²); with per-file chains it
/// touches only the target file's blocks.
fn bench_lru_interleaved(c: &mut Criterion) {
    let mut group = c.benchmark_group("lru_lists");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &blocks in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(
            BenchmarkId::new("interleaved_files", blocks),
            &blocks,
            |b, &n| {
                let files: Vec<FileId> = (0..100).map(|i| FileId::new(format!("f{i}"))).collect();
                b.iter(|| {
                    let mut lru = LruLists::new();
                    // Round-robin adds: each file's blocks are maximally
                    // interleaved with every other file's.
                    for i in 0..n {
                        let file = files[i % files.len()].clone();
                        if i % 10 < 3 {
                            lru.add_dirty(file, 1.0 * MB, SimTime::from_secs(i as f64));
                        } else {
                            lru.add_clean(file, 1.0 * MB, SimTime::from_secs(i as f64));
                        }
                    }
                    // Read every file fully, then age out half of the dirty
                    // data and evict a quarter of the total.
                    let per_file = n as f64 / files.len() as f64 * MB;
                    for (k, file) in files.iter().enumerate() {
                        lru.read_cached(file, per_file, SimTime::from_secs((n + k) as f64));
                    }
                    lru.flush_lru(n as f64 * MB * 0.15, ReclaimScope::Host(None));
                    lru.evict(n as f64 * MB / 4.0, ReclaimScope::Host(None));
                    lru.total_cached()
                })
            },
        );
    }
    // Full-scale point for the ROADMAP's million-block north star: 1M blocks
    // over 1000 files, every file read back, then bulk flush + evict. Must
    // complete in well under a second per iteration on the arena
    // implementation (the scan-based lists needed minutes here).
    group.bench_with_input(
        BenchmarkId::new("million_blocks", 1_000_000usize),
        &1_000_000usize,
        |b, &n| {
            let files: Vec<FileId> = (0..1000).map(|i| FileId::new(format!("f{i}"))).collect();
            b.iter(|| {
                let mut lru = LruLists::new();
                for i in 0..n {
                    let file = files[i % files.len()].clone();
                    if i % 10 < 3 {
                        lru.add_dirty(file, 1.0 * MB, SimTime::from_secs(i as f64));
                    } else {
                        lru.add_clean(file, 1.0 * MB, SimTime::from_secs(i as f64));
                    }
                }
                let per_file = n as f64 / files.len() as f64 * MB;
                for (k, file) in files.iter().enumerate() {
                    lru.read_cached(file, per_file, SimTime::from_secs((n + k) as f64));
                }
                lru.flush_lru(n as f64 * MB * 0.15, ReclaimScope::Host(None));
                lru.evict(n as f64 * MB / 4.0, ReclaimScope::Host(None));
                lru.total_cached()
            })
        },
    );
    group.finish();
}

/// The interleaved multi-file workload under each replacement policy. The
/// mechanism (chains, aggregates, coalescing) is shared; only the tier
/// decisions differ, so every policy must stay within a small constant
/// factor of the default 2-list numbers.
fn bench_lru_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("lru_lists");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let blocks = 10_000usize;
    for policy in EvictionPolicy::ALL {
        group.bench_with_input(
            BenchmarkId::new(format!("policy_{policy}"), blocks),
            &blocks,
            |b, &n| {
                let files: Vec<FileId> = (0..100).map(|i| FileId::new(format!("f{i}"))).collect();
                b.iter(|| {
                    let mut lru = LruLists::with_policy(policy);
                    for i in 0..n {
                        let file = files[i % files.len()].clone();
                        if i % 10 < 3 {
                            lru.add_dirty(file, 1.0 * MB, SimTime::from_secs(i as f64));
                        } else {
                            lru.add_clean(file, 1.0 * MB, SimTime::from_secs(i as f64));
                        }
                    }
                    let per_file = n as f64 / files.len() as f64 * MB;
                    for (k, file) in files.iter().enumerate() {
                        lru.read_cached(file, per_file, SimTime::from_secs((n + k) as f64));
                    }
                    lru.flush_lru(n as f64 * MB * 0.15, ReclaimScope::Host(None));
                    lru.evict(n as f64 * MB / 4.0, ReclaimScope::Host(None));
                    lru.total_cached()
                })
            },
        );
    }
    group.finish();
}

fn bench_shared_resource(c: &mut Criterion) {
    // 1k concurrent flows on one device: the fair-share model used to re-sync
    // every flow at every completion (O(n) per event, O(n^2) per run); the
    // heap-based algorithm advances only the completing flow.
    let mut group = c.benchmark_group("shared_resource");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let flows = 1_000usize;
    for (label, policy) in [
        ("fair_share", SharingPolicy::FairShare),
        ("unlimited", SharingPolicy::Unlimited),
    ] {
        group.bench_with_input(BenchmarkId::new(label, flows), &flows, |b, &n| {
            b.iter(|| {
                let sim = Simulation::new();
                let ctx = sim.context();
                let res = SharedResource::with_policy(&ctx, "dev", 1000.0 * MB, 0.0, policy);
                for i in 0..n {
                    let res = res.clone();
                    // Distinct sizes so completions are staggered events.
                    let bytes = 1.0 * MB + i as f64;
                    sim.spawn(async move { res.transfer(bytes).await });
                }
                sim.run().as_secs()
            })
        });
    }
    group.finish();
}

fn bench_io_controller(c: &mut Criterion) {
    let mut group = c.benchmark_group("io_controller");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &file_gb in &[1.0f64, 10.0] {
        group.bench_with_input(
            BenchmarkId::new("read_write_cycle", format!("{file_gb}GB")),
            &file_gb,
            |b, &file_gb| {
                b.iter(|| {
                    let sim = Simulation::new();
                    let ctx = sim.context();
                    let memory = MemoryDevice::new(
                        &ctx,
                        DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
                    );
                    let disk = Disk::new(
                        &ctx,
                        "d",
                        DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
                    );
                    let mm = MemoryManager::new(
                        &ctx,
                        PageCacheConfig::with_memory(32.0 * GB),
                        memory,
                        disk,
                    );
                    let io = IoController::new(&ctx, mm);
                    sim.spawn(async move {
                        let size = file_gb * GB;
                        io.write_amount(&"out".into(), size).await;
                        io.read_amount(&"out".into(), size, size).await;
                    });
                    sim.run().as_secs()
                })
            },
        );
    }
    group.finish();
}

fn bench_des_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_engine");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &processes in &[10usize, 100, 1_000] {
        group.bench_with_input(
            BenchmarkId::new("sleep_storm", processes),
            &processes,
            |b, &n| {
                b.iter(|| {
                    let sim = Simulation::new();
                    for i in 0..n {
                        let ctx = sim.context();
                        sim.spawn(async move {
                            for k in 0..20u32 {
                                ctx.sleep(((i + k as usize) % 7 + 1) as f64).await;
                            }
                        });
                    }
                    sim.run().as_secs()
                })
            },
        );
    }
    group.finish();
}

fn bench_traffic_generate(c: &mut Criterion) {
    use workflow::{
        run_scenario, ApplicationSpec, PlatformSpec, Scenario, SimulatorKind, TrafficSpec,
    };
    let mut group = c.benchmark_group("traffic");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &requests in &[200usize, 1_000] {
        group.bench_with_input(
            BenchmarkId::new("generate", requests),
            &requests,
            |b, &requests| {
                let platform = PlatformSpec::uniform(
                    8.0 * GB,
                    DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
                    DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
                );
                b.iter(|| {
                    let spec = TrafficSpec::open("bench", 500.0, requests)
                        .with_catalog(64, 8.0 * MB)
                        .with_request_bytes(1.0 * MB)
                        .with_seed(7);
                    let scenario = Scenario::new(
                        platform.clone(),
                        ApplicationSpec::new("bench"),
                        SimulatorKind::PageCache,
                    )
                    .with_sample_interval(None)
                    .with_traffic(vec![spec]);
                    run_scenario(&scenario).unwrap().simulated_duration
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lru_operations,
    bench_lru_interleaved,
    bench_lru_policies,
    bench_shared_resource,
    bench_io_controller,
    bench_des_engine,
    bench_traffic_generate
);
criterion_main!(benches);
