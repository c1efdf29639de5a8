//! Integration tests focused on the NFS substrate and the kernel emulator
//! ground truth, complementing `integration_pagecache.rs`.

use linux_pagecache_sim::prelude::*;
use linux_pagecache_sim::workflow::Backend;

fn platform(memory_gb: f64) -> PlatformSpec {
    PlatformSpec::uniform(
        memory_gb * GB,
        DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
        DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
    )
}

#[test]
fn nfs_reads_become_cheaper_once_both_caches_are_warm() {
    // Build the NFS mount directly from the public API (not via the runner).
    let sim = Simulation::new();
    let ctx = sim.context();
    let mut p = platform(8.0).with_nfs();
    p.simulated.remote_disk = DeviceSpec::symmetric(445.0 * MB, 0.0, f64::INFINITY);
    let fs = Backend::build(&ctx, &p, SimulatorKind::PageCache).unwrap();
    fs.create_file(&FileId::new("data"), 1.0 * GB).unwrap();

    let h = sim.spawn({
        let fs = fs.clone();
        async move {
            let data = FileId::new("data");
            let cold = fs.read_range(&data, 0.0, f64::INFINITY).await.unwrap();
            let warm = fs.read_range(&data, 0.0, f64::INFINITY).await.unwrap();
            (cold.duration, warm.duration)
        }
    });
    sim.run();
    let (cold, warm) = h.try_take_result().unwrap();
    // Cold: server disk + network; warm: client memory only.
    assert!(cold > 2.0, "cold NFS read took {cold}s");
    assert!(warm < cold / 4.0, "warm {warm}s vs cold {cold}s");
}

#[test]
fn kernel_emulator_flushes_dirty_data_faster_than_the_macroscopic_model() {
    // The paper observes that "dirty data seemed to be flushing faster in real
    // life than in simulation": the emulator implements the background dirty
    // threshold, the macroscopic model does not. Verify that the emulator's
    // dirty data drains sooner after a large write.
    let app = ApplicationSpec::new("write-heavy")
        .with_task(TaskSpec::new("writer", 60.0).writes(FileSpec::new("out", 4.0 * GB)));
    // Write first, then idle for 60 s of CPU time so background mechanisms act.
    let app = ApplicationSpec {
        name: app.name.clone(),
        initial_files: vec![],
        tasks: vec![
            TaskSpec::new("writer", 0.0).writes(FileSpec::new("out", 4.0 * GB)),
            TaskSpec::new("idle", 60.0),
        ],
    };
    let emu = run_scenario(&Scenario::new(
        platform(64.0),
        app.clone(),
        SimulatorKind::KernelEmu,
    ))
    .unwrap();
    let model = run_scenario(&Scenario::new(
        platform(64.0),
        app,
        SimulatorKind::PageCache,
    ))
    .unwrap();
    let emu_trace = emu.memory_trace.unwrap();
    let model_trace = model.memory_trace.unwrap();
    // 20 seconds after the write, the emulator (background writeback at 10 %
    // of 64 GB = 6.4 GB... here 4 GB < 6.4 GB so only expiration applies) —
    // use 45 s, past the 30 s expiration, where both have flushed, and 15 s,
    // where neither threshold has passed in the macroscopic model.
    let t15 = des::SimTime::from_secs(15.0);
    assert!(model_trace.dirty_at(t15) >= emu_trace.dirty_at(t15) - 1.0);
    // At the very end both have little dirty data left (expiration + final
    // flush), and neither exceeded the dirty ratio.
    assert!(model_trace.max_dirty() <= 0.2 * 64.0 * GB + 1.0);
    assert!(emu_trace.max_dirty() <= 0.2 * 64.0 * GB + 1.0);
}

#[test]
fn emulator_protects_files_being_written_from_eviction() {
    // Reproduce the paper's Fig. 4c observation: after Write 2, File 3 stays
    // fully cached in the real system because the kernel does not evict pages
    // of files currently being written. Use a node small enough that writing
    // file_3 forces eviction.
    let app = ApplicationSpec::synthetic_pipeline(2.0 * GB);
    let emu = run_scenario(&Scenario::new(platform(6.0), app, SimulatorKind::KernelEmu)).unwrap();
    // Snapshot taken right after Write 2 (index 3: Read1, Write1, Read2, Write2).
    let after_write2 = &emu.cache_snapshots[3];
    let file3: FileId = FileId::new("file_3");
    let cached = after_write2.cached(&file3);
    assert!(
        cached >= 1.9 * GB,
        "file_3 should stay (almost) fully cached after Write 2, got {} GB",
        cached / GB
    );
}

#[test]
fn four_backends_agree_on_a_cold_sequential_read() {
    // The very first read of a cold file involves no caching at all, so every
    // back-end should report approximately size / disk_read_bandwidth
    // (465 MB/s for the simulators, 510 MB/s for the emulator's real disks).
    let app = ApplicationSpec::new("cold-read")
        .with_initial_file(FileSpec::new("in", 2.0 * GB))
        .with_task(TaskSpec::new("reader", 0.0).reads(FileSpec::new("in", 2.0 * GB)));
    let mut platform = platform(16.0);
    // Give the emulator the same symmetric bandwidths so all four agree.
    platform.real = platform.simulated;
    for kind in [
        SimulatorKind::Cacheless,
        SimulatorKind::Prototype,
        SimulatorKind::PageCache,
        SimulatorKind::KernelEmu,
    ] {
        let report = run_scenario(&Scenario::new(platform.clone(), app.clone(), kind)).unwrap();
        let read = report.instance_reports[0].tasks[0].read_time;
        let expected = 2.0 * GB / (465.0 * MB);
        assert!(
            (read - expected).abs() < 0.05 * expected,
            "{kind:?}: read {read}s, expected {expected}s"
        );
    }
}
