//! Failure-injection and edge-case tests across the public API.

use linux_pagecache_sim::prelude::*;
use storage_model::units::GIB;
use workflow::ScenarioError;

/// Runs the four-file pipeline on a 10 GiB disk, which cannot hold its four
/// 4 GB files, and checks that `kind` fails with a structured disk-full cause:
/// a DiskFull with the exact requested/available byte counts, not a
/// stringified message.
fn assert_disk_full(kind: SimulatorKind) {
    let platform = PlatformSpec::uniform(
        64.0 * GB,
        DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
        DeviceSpec::symmetric(465.0 * MB, 0.0, 10.0 * GIB),
    );
    let app = ApplicationSpec::synthetic_pipeline(4.0 * GB);
    let err = run_scenario(&Scenario::new(platform, app, kind)).unwrap_err();
    match err {
        ScenarioError::Filesystem(pagecache::FsError::DiskFull(e)) => {
            assert!(e.requested > e.available, "{kind:?}: unexpected error: {e}")
        }
        other => panic!("{kind:?}: expected a disk-full filesystem error, got {other:?}"),
    }
}

#[test]
fn scenario_fails_cleanly_when_the_disk_fills_up() {
    assert_disk_full(SimulatorKind::PageCache);
}

#[test]
fn kernel_emulator_also_fails_cleanly_when_the_disk_fills_up() {
    // Error-path parity with the macroscopic back-ends: the kernel emulator
    // reports the same structured disk-full cause through the same error type.
    assert_disk_full(SimulatorKind::KernelEmu);
}

#[test]
fn injected_disk_full_degrades_without_aborting() {
    // Unlike a *real* disk-full (above), an injected ENOSPC window fails the
    // writing task and lets the rest of the run finish degraded.
    let platform = PlatformSpec::uniform(
        8.0 * GB,
        DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
        DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
    );
    let mut app = ApplicationSpec::new("enospc").with_initial_file(FileSpec::new("in", 256.0 * MB));
    for i in 1..=3 {
        app = app.with_task(TaskSpec::program(
            format!("t{i}"),
            vec![Op::read("in"), Op::write(format!("out{i}"), 128.0 * MB)],
        ));
    }
    let plan = FaultPlan::none().with_event(FaultEvent::DiskFull { at: 0.0 });
    let report =
        run_scenario(&Scenario::new(platform, app, SimulatorKind::PageCache).with_faults(plan))
            .unwrap();
    let tasks = &report.instance_reports[0].tasks;
    assert_eq!(tasks.len(), 3);
    // Every task read its input fine and died on the write.
    assert!(tasks.iter().all(|t| !t.status.is_completed()));
    assert!(tasks
        .iter()
        .all(|t| t.read_stats.bytes_from_disk + t.read_stats.bytes_from_cache > 255.0 * MB));
    for t in tasks {
        match &t.status {
            TaskStatus::Failed(fault) => {
                assert_eq!(fault.op, OpClass::Write);
                assert!(!fault.transient);
                assert!(fault.to_string().contains("ENOSPC"), "{fault}");
            }
            other => panic!("expected an injected failure, got {other:?}"),
        }
    }
}

#[test]
fn zero_byte_files_and_zero_cpu_tasks_are_handled() {
    let platform = PlatformSpec::uniform(
        4.0 * GB,
        DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
        DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
    );
    let app = ApplicationSpec::new("degenerate")
        .with_initial_file(FileSpec::new("empty", 0.0))
        .with_task(
            TaskSpec::new("noop", 0.0)
                .reads(FileSpec::new("empty", 0.0))
                .writes(FileSpec::new("also_empty", 0.0)),
        );
    for kind in [
        SimulatorKind::Cacheless,
        SimulatorKind::PageCache,
        SimulatorKind::KernelEmu,
    ] {
        let report = run_scenario(&Scenario::new(platform.clone(), app.clone(), kind)).unwrap();
        let task = &report.instance_reports[0].tasks[0];
        assert_eq!(task.read_time, 0.0, "{kind:?}");
        assert_eq!(task.write_time, 0.0, "{kind:?}");
        assert_eq!(task.compute_time, 0.0, "{kind:?}");
    }
}

#[test]
fn cache_larger_than_file_set_and_tiny_memory_both_work() {
    // Tiny memory: the page cache cannot hold even one file; the simulation
    // must still complete, with read times close to disk times.
    let tiny = PlatformSpec::uniform(
        512.0 * MB,
        DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
        DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
    );
    let app = ApplicationSpec::synthetic_pipeline(1.0 * GB);
    let report = run_scenario(&Scenario::new(tiny, app.clone(), SimulatorKind::PageCache)).unwrap();
    let warm_read = report.instance_reports[0].tasks[1].read_time;
    let disk_time = 1.0 * GB / (465.0 * MB);
    assert!(
        warm_read > 0.5 * disk_time,
        "with a tiny cache the re-read should be disk-bound, got {warm_read}s vs disk {disk_time}s"
    );
    // Huge memory: everything cached, re-reads at memory speed.
    let huge = PlatformSpec::uniform(
        1024.0 * GB,
        DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
        DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
    );
    let report = run_scenario(&Scenario::new(huge, app, SimulatorKind::PageCache)).unwrap();
    let warm_read = report.instance_reports[0].tasks[1].read_time;
    assert!(
        warm_read < 0.5 * disk_time,
        "expected a cache hit, got {warm_read}s"
    );
}

#[test]
fn unsupported_prototype_nfs_combination_is_rejected() {
    let platform = PlatformSpec::uniform(
        8.0 * GB,
        DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
        DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
    )
    .with_nfs();
    let app = ApplicationSpec::synthetic_pipeline(1.0 * GB);
    let err = run_scenario(&Scenario::new(platform, app, SimulatorKind::Prototype)).unwrap_err();
    assert!(matches!(err, ScenarioError::Unsupported(_)));
}

#[test]
fn invalid_platforms_are_rejected_before_any_simulation() {
    let mut platform = PlatformSpec::uniform(
        8.0 * GB,
        DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
        DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
    );
    platform.cache.dirty_ratio = 7.0;
    let app = ApplicationSpec::synthetic_pipeline(1.0 * GB);
    let err = run_scenario(&Scenario::new(platform, app, SimulatorKind::PageCache)).unwrap_err();
    assert!(matches!(err, ScenarioError::InvalidPlatform(_)));
}

#[test]
fn malformed_sizes_and_devices_are_rejected_on_every_simulator() {
    let valid = PlatformSpec::uniform(
        8.0 * GB,
        DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
        DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
    );
    type Mutation = Box<dyn Fn(&mut PlatformSpec)>;
    let mut cases: Vec<(String, Mutation)> = vec![
        (
            "NaN host memory".into(),
            Box::new(|p| p.host_memory = f64::NAN),
        ),
        (
            "NaN server memory".into(),
            Box::new(|p| p.server_memory = f64::NAN),
        ),
        (
            "NaN chunk size".into(),
            Box::new(|p| p.cache.chunk_size = f64::NAN),
        ),
        // Infinite memory used to pass the platform checks and then panic
        // inside the cache models' constructors.
        (
            "infinite host memory".into(),
            Box::new(|p| p.host_memory = f64::INFINITY),
        ),
        (
            "infinite NFS server memory".into(),
            Box::new(|p| {
                p.storage = StorageKind::Nfs;
                p.server_memory = f64::INFINITY;
            }),
        ),
    ];
    for bandwidth in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        cases.push((
            format!("disk read bandwidth {bandwidth}"),
            Box::new(move |p| p.simulated.disk.read_bandwidth = bandwidth),
        ));
        cases.push((
            format!("real disk write bandwidth {bandwidth}"),
            Box::new(move |p| p.real.disk.write_bandwidth = bandwidth),
        ));
        cases.push((
            format!("memory bandwidth {bandwidth}"),
            Box::new(move |p| {
                p.simulated.memory = DeviceSpec::symmetric(bandwidth, 0.0, f64::INFINITY);
                p.real.memory = p.simulated.memory;
            }),
        ));
    }
    // Flusher settings reach both cache models: a zero or negative interval
    // used to panic inside them, a NaN one hung the emulator's writeback
    // loop, and a NaN expiry silently disabled expiry.
    for interval in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        cases.push((
            format!("flush interval {interval}"),
            Box::new(move |p| p.cache.flush_interval = interval),
        ));
    }
    for expire in [-1.0, f64::NAN] {
        cases.push((
            format!("dirty expire {expire}"),
            Box::new(move |p| p.cache.dirty_expire = expire),
        ));
    }
    // A malformed chunk size used to panic in the builder before the
    // platform's validation could reject it.
    for chunk in [0.0, -1.0, f64::NAN] {
        cases.push((
            format!("chunk size {chunk} set through the builder"),
            Box::new(move |p| *p = p.clone().with_chunk_size(chunk)),
        ));
    }
    // Every other page-cache setting the platform's validation rejects, set
    // through the platform's builders.
    for ratio in [2.0, -0.1, f64::NAN] {
        cases.push((
            format!("dirty ratio {ratio}"),
            Box::new(move |p| *p = p.clone().with_dirty_ratio(ratio)),
        ));
    }
    cases.push((
        "background ratio above the dirty ratio".into(),
        Box::new(|p| *p = p.clone().with_dirty_background_ratio(0.5)),
    ));
    for (min, max) in [
        (256.0 * MB, 16.0 * MB),
        (0.0, 16.0 * MB),
        (f64::NAN, 16.0 * MB),
        (MB, f64::NAN),
        (MB, f64::INFINITY),
        (f64::INFINITY, f64::INFINITY),
    ] {
        cases.push((
            format!("readahead window {min}..{max}"),
            Box::new(move |p| *p = p.clone().with_readahead(min, max)),
        ));
    }
    for pacing in [-1.0, f64::NAN, f64::INFINITY] {
        cases.push((
            format!("throttle pacing {pacing}"),
            Box::new(move |p| *p = p.clone().with_throttle_pacing(pacing)),
        ));
    }
    for latency in [-1.0, f64::NAN] {
        cases.push((
            format!("disk latency {latency}"),
            Box::new(move |p| {
                p.simulated.disk.latency = latency;
                p.real.disk.latency = latency;
            }),
        ));
    }
    let app = ApplicationSpec::synthetic_pipeline(1.0 * GB);
    for (what, mutate) in &cases {
        let mut platform = valid.clone();
        mutate(&mut platform);
        for kind in [
            SimulatorKind::Cacheless,
            SimulatorKind::Prototype,
            SimulatorKind::PageCache,
            SimulatorKind::KernelEmu,
        ] {
            let result = run_scenario(&Scenario::new(platform.clone(), app.clone(), kind));
            assert!(
                matches!(result, Err(ScenarioError::InvalidPlatform(_))),
                "{what} on {kind:?}: expected InvalidPlatform, got {:?}",
                result.map(|_| "a report")
            );
        }
    }
}
