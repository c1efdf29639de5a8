//! Cross-crate integration tests: the page cache model driven through the
//! filesystem and workflow layers, checking the paper's qualitative claims
//! end to end.

use linux_pagecache_sim::prelude::*;
use workflow::absolute_relative_error_pct;

fn platform(memory_gb: f64) -> PlatformSpec {
    PlatformSpec::uniform(
        memory_gb * GB,
        DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
        DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
    )
}

#[test]
fn cacheless_simulator_overestimates_warm_reads_by_an_order_of_magnitude() {
    let app = ApplicationSpec::synthetic_pipeline(2.0 * GB);
    let cacheless = run_scenario(&Scenario::new(
        platform(16.0),
        app.clone(),
        SimulatorKind::Cacheless,
    ))
    .unwrap();
    let cached = run_scenario(&Scenario::new(
        platform(16.0),
        app,
        SimulatorKind::PageCache,
    ))
    .unwrap();
    // Task 2 re-reads the file written by task 1: with the page cache it is a
    // memory read, without it a disk read — roughly a 10x difference given
    // the Table III bandwidths (4812 vs 465 MBps).
    let warm_cacheless = cacheless.instance_reports[0].tasks[1].read_time;
    let warm_cached = cached.instance_reports[0].tasks[1].read_time;
    assert!(
        warm_cacheless > 5.0 * warm_cached,
        "cacheless {warm_cacheless}s vs cached {warm_cached}s"
    );
}

#[test]
fn page_cache_model_reduces_error_against_kernel_emulator() {
    // The headline claim of the paper (up to ~9x error reduction): measure it
    // at small scale across every phase of the synthetic pipeline.
    let app = ApplicationSpec::synthetic_pipeline(2.0 * GB);
    let real = run_scenario(&Scenario::new(
        platform(16.0),
        app.clone(),
        SimulatorKind::KernelEmu,
    ))
    .unwrap();
    let cacheless = run_scenario(&Scenario::new(
        platform(16.0),
        app.clone(),
        SimulatorKind::Cacheless,
    ))
    .unwrap();
    let cached = run_scenario(&Scenario::new(
        platform(16.0),
        app,
        SimulatorKind::PageCache,
    ))
    .unwrap();

    let mut err_cacheless = 0.0;
    let mut err_cached = 0.0;
    let mut phases = 0.0;
    for (idx, real_task) in real.instance_reports[0].tasks.iter().enumerate() {
        for (real_t, cl_t, ca_t) in [
            (
                real_task.read_time,
                cacheless.instance_reports[0].tasks[idx].read_time,
                cached.instance_reports[0].tasks[idx].read_time,
            ),
            (
                real_task.write_time,
                cacheless.instance_reports[0].tasks[idx].write_time,
                cached.instance_reports[0].tasks[idx].write_time,
            ),
        ] {
            if real_t > 1e-9 {
                err_cacheless += absolute_relative_error_pct(cl_t, real_t);
                err_cached += absolute_relative_error_pct(ca_t, real_t);
                phases += 1.0;
            }
        }
    }
    err_cacheless /= phases;
    err_cached /= phases;
    assert!(
        err_cacheless > 3.0 * err_cached,
        "mean errors: cacheless {err_cacheless:.0}%, cached {err_cached:.0}% — expected a large reduction"
    );
}

#[test]
fn dirty_data_never_exceeds_the_dirty_ratio() {
    // Paper §IV-A: "In all cases, dirty data remained under the dirty ratio as
    // expected."
    let app = ApplicationSpec::synthetic_pipeline(4.0 * GB);
    let report =
        run_scenario(&Scenario::new(platform(8.0), app, SimulatorKind::PageCache)).unwrap();
    let trace = report.memory_trace.expect("memory trace present");
    // The dirty limit is dirty_ratio * available memory <= dirty_ratio * total.
    assert!(trace.max_dirty() <= 0.2 * 8.0 * GB * 1.01);
    assert!(trace.max_used() <= 8.0 * GB * 1.01);
}

#[test]
fn writethrough_nfs_has_no_dirty_data_and_slower_writes_than_local() {
    let app = ApplicationSpec::synthetic_pipeline(1.0 * GB);
    let local = run_scenario(&Scenario::new(
        platform(16.0),
        app.clone(),
        SimulatorKind::PageCache,
    ))
    .unwrap();
    let nfs = run_scenario(&Scenario::new(
        platform(16.0).with_nfs(),
        app,
        SimulatorKind::PageCache,
    ))
    .unwrap();
    // Local writeback writes are memory-speed; NFS writethrough writes pay
    // network + server disk.
    assert!(nfs.mean_total_write_time() > 3.0 * local.mean_total_write_time());
    // Reads still benefit from caches on NFS (tasks 2 and 3 re-read data that
    // the server and client just saw).
    let nfs_tasks = &nfs.instance_reports[0].tasks;
    assert!(nfs_tasks[1].read_time < nfs_tasks[0].write_time);
}

#[test]
fn concurrency_scales_io_times_under_contention() {
    let app = ApplicationSpec::synthetic_pipeline(500.0 * MB);
    let mut read_times = Vec::new();
    for instances in [1usize, 4, 8] {
        let report = run_scenario(
            &Scenario::new(platform(64.0), app.clone(), SimulatorKind::Cacheless)
                .with_instances(instances)
                .unwrap()
                .with_sample_interval(None),
        )
        .unwrap();
        read_times.push(report.mean_total_read_time());
    }
    // Disk-bound reads scale roughly linearly with the number of instances.
    assert!(read_times[1] > 3.0 * read_times[0]);
    assert!(read_times[2] > 1.7 * read_times[1]);
}

#[test]
fn scenario_reports_are_deterministic() {
    let app = ApplicationSpec::synthetic_pipeline(1.0 * GB);
    let run = || {
        let r = run_scenario(
            &Scenario::new(platform(16.0), app.clone(), SimulatorKind::PageCache)
                .with_instances(3)
                .unwrap(),
        )
        .unwrap();
        (
            r.simulated_duration,
            r.mean_total_read_time(),
            r.mean_total_write_time(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

#[test]
fn filesystem_layer_and_raw_controller_agree() {
    // Driving the IoController directly and driving it through the
    // CachedFileSystem must produce identical timings.
    let sim = Simulation::new();
    let ctx = sim.context();
    let memory = MemoryDevice::new(&ctx, DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY));
    let disk = Disk::new(
        &ctx,
        "d",
        DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
    );
    let mm = MemoryManager::new(&ctx, PageCacheConfig::with_memory(8.0 * GB), memory, disk);
    let io = IoController::new(&ctx, mm.clone());
    let fs = CachedFileSystem::new(io.clone());
    fs.create_file(&FileId::new("direct"), 1.0 * GB).unwrap();
    fs.create_file(&FileId::new("via_fs"), 1.0 * GB).unwrap();
    let h = sim.spawn(async move {
        let (direct, via_fs) = (FileId::new("direct"), FileId::new("via_fs"));
        let a = io.read_amount(&direct, 1.0 * GB, 1.0 * GB).await;
        let b = fs.read_range(&via_fs, 0.0, f64::INFINITY).await.unwrap();
        (a.duration, b.duration)
    });
    sim.run();
    let (a, b) = h.try_take_result().unwrap();
    assert!((a - b).abs() < 1e-9, "controller {a}s vs filesystem {b}s");
}
