//! Network-tier fault tolerance: runs against the replicated storage fleet
//! complete *degraded* — not hung, not panicked — under partitions, server
//! crashes and flapping links.

use linux_pagecache_sim::prelude::*;
use workflow::net::{server_host, server_link};

const NET_BW: f64 = 100.0 * MB;

/// A fleet platform: uniform devices plus a replicated-storage spec.
fn fleet_platform(clients: usize, servers: usize, replication: usize) -> PlatformSpec {
    let mut p = PlatformSpec::uniform(
        2.0 * GB,
        DeviceSpec::symmetric(1000.0 * MB, 0.0, f64::INFINITY),
        DeviceSpec::symmetric(100.0 * MB, 0.0, f64::INFINITY),
    );
    p.simulated.network_bandwidth = NET_BW;
    p.real.network_bandwidth = NET_BW;
    p.with_fleet(FleetSpec::new(clients, servers, replication))
}

#[test]
fn never_healing_partition_completes_degraded() {
    // Clients are cut off from every server at t=0 and the partition never
    // heals. The retry budget is bounded, so the run must terminate with
    // failed tasks instead of hanging.
    let platform = fleet_platform(2, 2, 1);
    let app = ApplicationSpec::new("partitioned")
        .with_initial_file(FileSpec::new("shared/hot", 64.0 * MB))
        .with_task(TaskSpec::program("reader", vec![Op::read("shared/hot")]));
    let plan = FaultPlan::none().with_event(FaultEvent::Partition {
        groups: vec![
            vec!["client00".into(), "client01".into()],
            vec![server_host(0), server_host(1)],
        ],
        at: 0.0,
        duration: f64::INFINITY,
    });
    let scenario = Scenario::new(platform, app, SimulatorKind::PageCache)
        .with_instances(2)
        .unwrap()
        .with_faults(plan);
    let report = run_scenario(&scenario).unwrap();
    assert!(report.simulated_duration.is_finite());
    let net = report.net.as_ref().expect("fleet runs carry a net report");
    assert!(net.failed_reads > 0.0, "reads should fail: {net:?}");
    for instance in &report.instance_reports {
        for task in &instance.tasks {
            match &task.status {
                TaskStatus::Failed(fault) => {
                    assert_eq!(fault.op, OpClass::Read);
                    assert!(fault.to_string().contains("network"), "{fault}");
                }
                other => panic!("expected a degraded failure, got {other:?}"),
            }
        }
    }
}

#[test]
fn server_crash_mid_writeback_fails_over() {
    // The primary of the written file crashes while its write-back cache is
    // still dirty. Writes to the dead replica are surfaced, reads fail over
    // to the survivor, and the crash report records what the dead server's
    // disk retained.
    let platform = fleet_platform(2, 3, 2);
    let app = ApplicationSpec::new("crash-failover").with_task(TaskSpec::program(
        "writer",
        vec![Op::write("shared/out", 256.0 * MB), Op::read("shared/out")],
    ));
    // Crash whichever server is primary for the shared file, mid transfer.
    let sample = workflow::net::primary_server(3, "shared/out");
    let plan = FaultPlan::none().with_event(FaultEvent::ServerCrash {
        host: server_host(sample),
        at: 1.0,
    });
    let scenario = Scenario::new(platform, app, SimulatorKind::PageCache).with_faults(plan);
    let report = run_scenario(&scenario).unwrap();
    let net = report.net.as_ref().unwrap();
    assert_eq!(net.server_crashes.len(), 1);
    assert_eq!(net.server_crashes[0].0, server_host(sample));
    // The run completed: the surviving replica absorbed the read.
    assert!(report.simulated_duration.is_finite());
    assert!(
        net.failed_writes > 0.0 || net.failovers > 0.0,
        "the crash should be visible in the net report: {net:?}"
    );
}

#[test]
fn flapping_link_retries_and_converges() {
    // One server, replication 1: every outage window forces clients into
    // timeout + backoff, but the link always comes back, so every task
    // eventually completes.
    // Small chunks so a contended (but healthy) link never trips the
    // timeout: only genuine outage windows do.
    let platform = fleet_platform(2, 1, 1)
        .with_chunk_size(16.0 * MB)
        .with_fleet(
            FleetSpec::new(2, 1, 1).with_policy(
                ClientPolicy::default()
                    .with_timeout(2.0)
                    .with_retry(RetryPolicy::new(8, 0.5)),
            ),
        );
    let app = ApplicationSpec::new("flapping")
        .with_initial_file(FileSpec::new("shared/data", 128.0 * MB))
        .with_task(TaskSpec::program("reader", vec![Op::read("shared/data")]));
    let mut plan = FaultPlan::none();
    for i in 0..3 {
        plan = plan.with_event(FaultEvent::LinkDown {
            link: server_link(0),
            at: 0.2 + 3.0 * f64::from(i),
            duration: 1.0,
        });
    }
    let scenario = Scenario::new(platform, app, SimulatorKind::PageCache)
        .with_instances(2)
        .unwrap()
        .with_faults(plan);
    let report = run_scenario(&scenario).unwrap();
    let net = report.net.as_ref().unwrap();
    assert!(
        net.net_retries > 0.0,
        "outages should force retries: {net:?}"
    );
    assert_eq!(net.failed_reads, 0.0, "retries should absorb the flaps");
    for instance in &report.instance_reports {
        assert!(instance.tasks.iter().all(|t| t.status.is_completed()));
    }
}

#[test]
fn degenerate_fabric_link_matches_a_plain_network_link() {
    // The fleet draws its links from a fabric; take a one-client,
    // one-server, one-link fabric. A channel obtained through the fabric
    // must behave bit-identically to a directly constructed NetworkLink.
    let sim = Simulation::new();
    let ctx = sim.context();
    let task_ctx = ctx.clone();
    let plain = NetworkLink::new(&ctx, "plain", NET_BW, 0.01);
    let fabric = workflow::net::Fabric::new(&ctx);
    fabric.add_host("client");
    fabric.add_host("server");
    fabric.add_link("fabric-link", NET_BW, 0.01);
    fabric.add_route("client", "server", "fabric-link");
    let via_fabric = NetworkLink::from_channel(fabric.link_channel("fabric-link").unwrap());
    let handle = ctx.spawn(async move {
        let start = task_ctx.now();
        plain.transfer(64.0 * MB).await;
        let direct = task_ctx.now().duration_since(start);
        let start = task_ctx.now();
        via_fabric.transfer(64.0 * MB).await;
        let fabricated = task_ctx.now().duration_since(start);
        (direct, fabricated)
    });
    sim.run();
    let (direct, fabricated) = handle.try_take_result().unwrap();
    assert_eq!(direct, fabricated);
    assert!(direct > 0.0);
}
