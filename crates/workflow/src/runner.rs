//! Scenario runner: builds a back-end, spawns the application instances as
//! simulated processes, and collects the report.
//!
//! This is the equivalent of a WRENCH "simulator" program: the experiments of
//! the paper are all expressed as [`Scenario`]s and executed by
//! [`run_scenario`]. Each task's workload program (see [`crate::Op`]) is
//! executed op by op; op timings and statistics are attributed to the
//! classic read/compute/write phases of the [`TaskReport`] by op category
//! (reads → read phase, writes/fsync/sync → write phase), so legacy
//! three-phase tasks report exactly what they always did and custom programs
//! reuse the same reporting shape.

use std::cell::Cell;
use std::rc::Rc;

use des::Simulation;
use pagecache::FileId;

use crate::backend::{Backend, ScenarioError, SimulatorKind};
use crate::faults::{FaultEvent, FaultPlan, FaultState, InjectedFault, OpClass};
use crate::platform::{PlatformSpec, StorageKind};
use crate::report::{InstanceReport, ProfileStats, ScenarioReport, TaskReport, TaskStatus};
use crate::spec::{flatten_program, ApplicationSpec, Op};
use crate::traffic::{run_generator, TrafficReport, TrafficSpec};

/// A complete experiment configuration: platform + application + back-end.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The platform to simulate.
    pub platform: PlatformSpec,
    /// The application every instance runs.
    pub application: ApplicationSpec,
    /// Number of concurrent application instances (each operating on its own
    /// files, as in Exp 2 and 3).
    pub instances: usize,
    /// The simulator back-end.
    pub kind: SimulatorKind,
    /// Period of the background memory sampler, seconds (`None` disables it;
    /// samples are always taken at phase boundaries).
    pub sample_interval: Option<f64>,
    /// Injected faults (crash, I/O errors, disk-full, NFS outages). Empty by
    /// default: without an explicit plan the run is fault-free and
    /// bit-identical to what it was before faults existed.
    pub faults: FaultPlan,
    /// When `true` and the fault plan's crash fires, the whole application is
    /// re-run against the post-crash durable state with faults disarmed; the
    /// second pass is reported in [`ScenarioReport::restart_reports`].
    pub restart_after_crash: bool,
    /// Traffic generators running alongside the application instances (see
    /// [`crate::traffic`]). Empty by default: scenarios without traffic are
    /// bit-identical to what they were before the traffic tier existed.
    pub traffic: Vec<TrafficSpec>,
}

impl Scenario {
    /// Creates a single-instance scenario.
    pub fn new(platform: PlatformSpec, application: ApplicationSpec, kind: SimulatorKind) -> Self {
        Scenario {
            platform,
            application,
            instances: 1,
            kind,
            sample_interval: Some(2.0),
            faults: FaultPlan::none(),
            restart_after_crash: false,
            traffic: Vec::new(),
        }
    }

    /// Attaches traffic generators that run alongside the application
    /// instances. Generator `i` uses cache group `i` when its spec carries a
    /// [`crate::TenantSpec`].
    pub fn with_traffic(mut self, traffic: Vec<TrafficSpec>) -> Self {
        self.traffic = traffic;
        self
    }

    /// Attaches a fault plan. The plan is validated by [`run_scenario`].
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Requests a restart pass after the planned crash fires: the application
    /// re-runs from its first task against the durable post-crash state.
    pub fn with_restart_after_crash(mut self) -> Self {
        self.restart_after_crash = true;
        self
    }

    /// Sets the number of concurrent instances. At least one instance is
    /// required; zero is reported as [`ScenarioError::InvalidScenario`]
    /// through the normal error path.
    pub fn with_instances(mut self, instances: usize) -> Result<Self, ScenarioError> {
        if instances == 0 {
            return Err(ScenarioError::InvalidScenario(
                "at least one instance is required".to_string(),
            ));
        }
        self.instances = instances;
        Ok(self)
    }

    /// Sets (or disables) the background memory sampling interval.
    pub fn with_sample_interval(mut self, interval: Option<f64>) -> Self {
        self.sample_interval = interval;
        self
    }
}

/// Scopes a file name to an instance so concurrent instances operate on
/// different files (paper Exp 2: "all application instances operating on
/// different files"). Names starting with `shared/` escape scoping: every
/// instance sees the same file (e.g. a hot file all fleet clients stampede
/// on).
pub fn scoped_file(name: &str, instance: usize, instances: usize) -> FileId {
    if instances <= 1 || name.starts_with("shared/") {
        FileId::new(name)
    } else {
        FileId::new(format!("i{instance:02}_{name}"))
    }
}

/// Runs a scenario to completion and returns its report.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioReport, ScenarioError> {
    if scenario.instances == 0 {
        return Err(ScenarioError::InvalidScenario(
            "at least one instance is required".to_string(),
        ));
    }
    scenario
        .application
        .validate()
        .map_err(ScenarioError::InvalidScenario)?;
    scenario
        .faults
        .validate()
        .map_err(ScenarioError::InvalidScenario)?;
    for spec in &scenario.traffic {
        spec.validate().map_err(ScenarioError::InvalidScenario)?;
    }
    {
        let mut names: Vec<&str> = scenario.traffic.iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != scenario.traffic.len() {
            return Err(ScenarioError::InvalidScenario(
                "traffic generator names must be unique".to_string(),
            ));
        }
    }
    let sim = Simulation::new();
    let ctx = sim.context();
    let backend = Backend::build(&ctx, &scenario.platform, scenario.kind)?;
    let faults = FaultState::new(
        scenario.faults.clone(),
        scenario.platform.storage == StorageKind::Nfs,
    );

    // Initial files of every instance exist before the applications start.
    // `shared/` files scope to the same id for every instance and are
    // created once.
    let mut created = std::collections::BTreeSet::new();
    for instance in 0..scenario.instances {
        for file in &scenario.application.initial_files {
            let id = scoped_file(&file.name, instance, scenario.instances);
            if created.insert(id.clone()) {
                backend.create_file(&id, file.size)?;
            }
        }
    }

    backend.start_background();
    let done = Rc::new(Cell::new(false));

    // Optional periodic memory sampler (for the Fig. 4b profiles).
    if let Some(interval) = scenario.sample_interval {
        let backend = backend.clone();
        let done = Rc::clone(&done);
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            while !done.get() {
                backend.sample_memory();
                ctx2.sleep(interval).await;
            }
        });
    }

    // Crash watchdog: at the planned instant, discard every page of volatile
    // cache state and record the durability oracle's verdict. Exits silently
    // if the application finished first (the crash never "happened").
    if let Some(at) = scenario.faults.crash_time() {
        let backend = backend.clone();
        let faults = Rc::clone(&faults);
        let done = Rc::clone(&done);
        let ctx2 = ctx.clone();
        ctx.spawn(async move {
            ctx2.sleep(at).await;
            if done.get() || faults.crashed() {
                return;
            }
            faults.record_crash(backend.crash());
        });
    }

    // Network fault driver: at each planned instant, apply the fabric
    // mutation; events with a finite duration heal afterwards. Events that
    // never heal (infinite duration) cannot hang the run: path checks fail
    // fast and the client retry budget is bounded, so affected operations
    // complete degraded.
    if let Some(fleet) = backend.fleet() {
        for event in &scenario.faults.events {
            let net_event = matches!(
                event,
                FaultEvent::LinkDown { .. }
                    | FaultEvent::Partition { .. }
                    | FaultEvent::ServerCrash { .. }
            );
            if !net_event {
                continue;
            }
            let event = event.clone();
            let fleet = fleet.clone();
            let done = Rc::clone(&done);
            let ctx2 = ctx.clone();
            ctx.spawn(async move {
                match event {
                    FaultEvent::LinkDown { link, at, duration } => {
                        ctx2.sleep(at).await;
                        if done.get() {
                            return;
                        }
                        fleet.fabric().set_link_down(&link);
                        if duration.is_finite() {
                            ctx2.sleep(duration).await;
                            fleet.fabric().set_link_up(&link);
                        }
                    }
                    FaultEvent::Partition {
                        groups,
                        at,
                        duration,
                    } => {
                        ctx2.sleep(at).await;
                        if done.get() {
                            return;
                        }
                        let id = fleet.fabric().apply_partition(groups);
                        if duration.is_finite() {
                            ctx2.sleep(duration).await;
                            fleet.fabric().heal_partition(id);
                        }
                    }
                    FaultEvent::ServerCrash { host, at } => {
                        ctx2.sleep(at).await;
                        if done.get() {
                            return;
                        }
                        fleet.crash_server(&host);
                    }
                    _ => {}
                }
            });
        }
    }

    // Coordinator: spawns one process per instance, awaits them all, then
    // stops the background threads so the simulation can terminate. If the
    // planned crash fired and a restart was requested, a second pass re-runs
    // the whole application against the durable state, faults disarmed.
    let coordinator = {
        let backend = backend.clone();
        let ctx = ctx.clone();
        let app = scenario.application.clone();
        let instances = scenario.instances;
        let done = Rc::clone(&done);
        let faults = Rc::clone(&faults);
        let restart = scenario.restart_after_crash;
        let traffic = scenario.traffic.clone();
        sim.spawn(async move {
            let spawn_pass = |faults: Rc<FaultState>| {
                let mut handles = Vec::new();
                for instance in 0..instances {
                    // Fleet back-ends home each instance on a client host.
                    let backend = backend.for_instance(instance);
                    let ctx = ctx.clone();
                    let app = app.clone();
                    let faults = Rc::clone(&faults);
                    handles.push(ctx.clone().spawn(async move {
                        run_instance(&ctx, &backend, &app, instance, instances, &faults).await
                    }));
                }
                handles
            };
            // Traffic generators run concurrently with the main instance
            // pass (they are load, not tasks: the restart pass re-runs the
            // application only).
            let traffic_handles: Vec<_> = traffic
                .into_iter()
                .enumerate()
                .map(|(index, spec)| {
                    let ctx = ctx.clone();
                    let backend = backend.for_instance(index);
                    let faults = Rc::clone(&faults);
                    ctx.clone().spawn(async move {
                        run_generator(&ctx, &backend, &spec, index as u32, &faults).await
                    })
                })
                .collect();
            let mut reports = Vec::new();
            for handle in spawn_pass(Rc::clone(&faults)) {
                reports.push(handle.await);
            }
            let mut traffic_results = Vec::new();
            for handle in traffic_handles {
                traffic_results.push(handle.await);
            }
            let mut restart_results = Vec::new();
            if faults.crashed() && restart {
                // Discard whatever the instances dirtied between the crash
                // instant and noticing it, then re-run fault-free. The
                // durability verdict stays the one recorded at the crash.
                backend.crash();
                faults.disarm();
                for handle in spawn_pass(Rc::clone(&faults)) {
                    restart_results.push(handle.await);
                }
            }
            done.set(true);
            backend.stop_background();
            (reports, restart_results, traffic_results)
        })
    };

    sim.run();
    let (instance_results, restart_results, traffic_results) = coordinator
        .try_take_result()
        .expect("coordinator did not finish: simulation deadlocked");
    let mut instance_reports = Vec::new();
    let mut cache_snapshots = Vec::new();
    for result in instance_results {
        let (report, snapshots) = result?;
        if report.instance == 0 {
            cache_snapshots = snapshots;
        }
        instance_reports.push(report);
    }
    instance_reports.sort_by_key(|r| r.instance);
    let mut restart_reports = Vec::new();
    for result in restart_results {
        let (report, _) = result?;
        restart_reports.push(report);
    }
    restart_reports.sort_by_key(|r| r.instance);
    let traffic = if traffic_results.is_empty() {
        None
    } else {
        let mut generators = Vec::new();
        for result in traffic_results {
            generators.push(result?);
        }
        Some(TrafficReport { generators })
    };

    Ok(ScenarioReport {
        kind: scenario.kind,
        instances: scenario.instances,
        instance_reports,
        memory_trace: backend.memory_trace(),
        cache_snapshots,
        simulated_duration: sim.now().as_secs(),
        writeback: backend.writeback_counters(),
        crash: faults.take_crash_report(),
        restart_reports,
        net: backend.net_report(),
        traffic,
        profile: ProfileStats {
            engine: sim.stats(),
            ..backend.profile()
        },
    })
}

/// What an I/O operation of a program resolved to under the fault gate.
enum IoOutcome {
    /// The operation ran (possibly after retries) and produced stats.
    Done(pagecache::IoOpStats),
    /// An injected fault that retries could not absorb killed the operation.
    Faulted(InjectedFault),
    /// A simulated crash fired while the operation was pending.
    Crashed,
}

/// Runs every task of one application instance — each task's workload
/// program, op by op — and reports its timings.
///
/// Injected faults degrade rather than abort: a task whose operation fails
/// with an unretryable injected error is marked [`TaskStatus::Failed`] and
/// the instance continues with the next task; a simulated crash marks the
/// current task [`TaskStatus::Interrupted`] and stops the instance.
async fn run_instance(
    ctx: &des::SimContext,
    backend: &Backend,
    app: &ApplicationSpec,
    instance: usize,
    instances: usize,
    faults: &FaultState,
) -> Result<(InstanceReport, Vec<pagecache::CacheContentSnapshot>), ScenarioError> {
    let mut tasks = Vec::new();
    let mut snapshots = Vec::new();
    let take_snapshots = instance == 0;
    let scoped = |name: &str| scoped_file(name, instance, instances);
    for (task_idx, task) in app.tasks.iter().enumerate() {
        if faults.crashed() {
            break;
        }
        let program = flatten_program(&task.lower(task_idx))
            .map_err(|e| ScenarioError::InvalidScenario(format!("task '{}': {e}", task.name)))?;
        let mut report = TaskReport {
            task_name: task.name.clone(),
            read_time: 0.0,
            compute_time: 0.0,
            write_time: 0.0,
            read_stats: pagecache::IoOpStats::default(),
            write_stats: pagecache::IoOpStats::default(),
            status: TaskStatus::Completed,
            retries: 0,
        };
        let mut interrupted = false;
        for op in &program {
            if faults.crashed() {
                report.status = TaskStatus::Interrupted;
                interrupted = true;
                break;
            }
            let start = ctx.now();
            // I/O ops go through the fault gate with per-task retries; the
            // rest (compute, memory, observability) cannot fault.
            let io = match op {
                Op::Read { file, .. } => Some((OpClass::Read, Some(file.as_str()))),
                Op::Write { file, .. } => Some((OpClass::Write, Some(file.as_str()))),
                Op::Fsync(file) => Some((OpClass::Fsync, Some(file.as_str()))),
                Op::Sync => Some((OpClass::Sync, None)),
                _ => None,
            };
            if let Some((class, file)) = io {
                let scoped_id = file.map(scoped);
                let mut attempt: u32 = 1;
                let outcome = loop {
                    if faults.crashed() {
                        break IoOutcome::Crashed;
                    }
                    if let Some(fault) = faults.check(
                        ctx.now().as_secs(),
                        class,
                        file,
                        scoped_id.as_ref(),
                        attempt,
                    ) {
                        if fault.transient && attempt < task.retry.max_attempts {
                            report.retries += 1;
                            let delay = task.retry.delay(attempt);
                            if delay > 0.0 {
                                ctx.sleep(delay).await;
                            }
                            attempt += 1;
                            continue;
                        }
                        break IoOutcome::Faulted(fault);
                    }
                    let result = match op {
                        Op::Read { file, offset, len } => {
                            backend.read_range(&scoped(file), *offset, *len).await
                        }
                        Op::Write { file, offset, len } => {
                            backend.write_range(&scoped(file), *offset, *len).await
                        }
                        Op::Fsync(file) => backend.fsync(&scoped(file)).await,
                        Op::Sync => backend.sync().await,
                        _ => unreachable!("gated ops are I/O ops"),
                    };
                    match result {
                        Ok(stats) => break IoOutcome::Done(stats),
                        // Back-ends with their own robustness layer (the
                        // fleet) surface exhausted-policy failures as
                        // injected faults: the task fails degraded, the run
                        // continues.
                        Err(ScenarioError::Injected(fault)) => break IoOutcome::Faulted(fault),
                        Err(error) => return Err(error),
                    }
                };
                match outcome {
                    IoOutcome::Done(stats) => {
                        // Retry backoff accrues to the op's phase time along
                        // with the I/O itself.
                        if class == OpClass::Read {
                            report.read_stats.merge(&stats);
                            report.read_time += ctx.now().duration_since(start);
                        } else {
                            report.write_stats.merge(&stats);
                            report.write_time += ctx.now().duration_since(start);
                        }
                    }
                    IoOutcome::Faulted(fault) => {
                        report.status = TaskStatus::Failed(fault);
                        break;
                    }
                    IoOutcome::Crashed => {
                        report.status = TaskStatus::Interrupted;
                        interrupted = true;
                        break;
                    }
                }
            } else {
                match op {
                    Op::Compute(secs) => {
                        if *secs > 0.0 {
                            ctx.sleep(*secs).await;
                        }
                        report.compute_time += ctx.now().duration_since(start);
                    }
                    Op::ReleaseMemory(bytes) => {
                        backend.release_anonymous_memory(*bytes);
                    }
                    Op::Sample => {
                        backend.sample_memory();
                    }
                    Op::Snapshot(label) => {
                        if take_snapshots {
                            if let Some(snap) = backend.cache_snapshot(label) {
                                snapshots.push(snap);
                            }
                        }
                    }
                    Op::Repeat { .. } => unreachable!("flatten_program unrolls Repeat"),
                    Op::Read { .. } | Op::Write { .. } | Op::Fsync(_) | Op::Sync => {
                        unreachable!("I/O ops go through the fault gate")
                    }
                }
            }
        }
        tasks.push(report);
        if interrupted {
            break;
        }
    }
    Ok((InstanceReport { instance, tasks }, snapshots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformSpec;
    use crate::spec::TaskSpec;
    use storage_model::units::{GB, MB};
    use storage_model::DeviceSpec;

    fn platform() -> PlatformSpec {
        PlatformSpec::uniform(
            8.0 * GB,
            DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
            DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
        )
    }

    fn small_app() -> ApplicationSpec {
        ApplicationSpec::synthetic_pipeline(1.0 * GB)
    }

    #[test]
    fn scoped_file_names() {
        assert_eq!(scoped_file("f", 0, 1).name(), "f");
        assert_eq!(scoped_file("f", 3, 8).name(), "i03_f");
        assert_ne!(scoped_file("f", 1, 8), scoped_file("f", 2, 8));
    }

    #[test]
    fn cacheless_run_reports_disk_speed_io() {
        let scenario = Scenario::new(platform(), small_app(), SimulatorKind::Cacheless);
        let report = run_scenario(&scenario).unwrap();
        assert_eq!(report.instance_reports.len(), 1);
        let tasks = &report.instance_reports[0].tasks;
        assert_eq!(tasks.len(), 3);
        // Every read and write is ~1 GB at 465 MB/s ≈ 2.15 s.
        for t in tasks {
            assert!(
                (t.read_time - 1.0 * GB / (465.0 * MB)).abs() < 0.01,
                "{}",
                t.read_time
            );
            assert!(
                (t.write_time - 1.0 * GB / (465.0 * MB)).abs() < 0.01,
                "{}",
                t.write_time
            );
        }
        assert!(report.memory_trace.is_none());
        assert!(report.simulated_duration > 0.0);
    }

    #[test]
    fn pagecache_run_shows_cache_hits_on_rereads() {
        let scenario = Scenario::new(platform(), small_app(), SimulatorKind::PageCache);
        let report = run_scenario(&scenario).unwrap();
        let tasks = &report.instance_reports[0].tasks;
        // Task 1 reads a cold file from disk; tasks 2 and 3 re-read the file
        // written by the previous task, which is still in the cache.
        assert!(tasks[0].read_stats.bytes_from_disk > 0.9 * GB);
        assert!(tasks[1].read_stats.bytes_from_cache > 0.9 * GB);
        assert!(tasks[2].read_stats.bytes_from_cache > 0.9 * GB);
        assert!(tasks[1].read_time < tasks[0].read_time);
        // Writes fit in the dirty headroom of an 8 GB host: memory speed.
        assert!(tasks[0].write_time < 0.5);
        // Memory profile and cache snapshots were collected.
        assert!(report.memory_trace.is_some());
        assert_eq!(report.cache_snapshots.len(), 6);
        assert!(report.memory_trace.unwrap().max_dirty() <= 0.2 * 8.0 * GB + 1.0);
    }

    #[test]
    fn kernel_emu_run_completes_and_traces_memory() {
        let scenario = Scenario::new(platform(), small_app(), SimulatorKind::KernelEmu);
        let report = run_scenario(&scenario).unwrap();
        assert_eq!(report.instance_reports[0].tasks.len(), 3);
        assert!(report.memory_trace.is_some());
        assert!(report.cache_snapshots.len() == 6);
    }

    #[test]
    fn concurrent_instances_contend_for_the_disk() {
        let app = small_app();
        let one = run_scenario(&Scenario::new(
            platform(),
            app.clone(),
            SimulatorKind::Cacheless,
        ))
        .unwrap();
        let four = run_scenario(
            &Scenario::new(platform(), app, SimulatorKind::Cacheless)
                .with_instances(4)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(four.instance_reports.len(), 4);
        // With 4 instances sharing the disk, reads take roughly 4x longer.
        let ratio = four.mean_total_read_time() / one.mean_total_read_time();
        assert!(ratio > 3.0 && ratio < 5.0, "ratio = {ratio}");
    }

    #[test]
    fn prototype_matches_pagecache_for_single_instance() {
        let app = small_app();
        let proto = run_scenario(&Scenario::new(
            platform(),
            app.clone(),
            SimulatorKind::Prototype,
        ))
        .unwrap();
        let cache =
            run_scenario(&Scenario::new(platform(), app, SimulatorKind::PageCache)).unwrap();
        // Without concurrency the two models should be very close.
        let a = proto.instance_reports[0].makespan();
        let b = cache.instance_reports[0].makespan();
        assert!((a - b).abs() / b < 0.05, "prototype {a} vs pagecache {b}");
    }

    #[test]
    fn nfs_scenario_runs_with_writethrough_times() {
        let scenario = Scenario::new(platform().with_nfs(), small_app(), SimulatorKind::PageCache);
        let report = run_scenario(&scenario).unwrap();
        let tasks = &report.instance_reports[0].tasks;
        // Writes are writethrough on the server: roughly disk bandwidth, much
        // slower than the local writeback case.
        assert!(tasks[0].write_time > 1.5, "{}", tasks[0].write_time);
        // Re-reads still benefit from caches.
        assert!(tasks[1].read_time < tasks[0].write_time);
    }

    #[test]
    fn missing_initial_file_is_an_error() {
        let mut app = small_app();
        app.initial_files.clear(); // task 1 reads a file that now never exists
        let scenario = Scenario::new(platform(), app, SimulatorKind::PageCache);
        assert!(matches!(
            run_scenario(&scenario),
            Err(ScenarioError::Filesystem(pagecache::FsError::FileNotFound(
                _
            )))
        ));
    }

    #[test]
    fn zero_instances_error_through_the_normal_path() {
        let err = Scenario::new(platform(), small_app(), SimulatorKind::PageCache)
            .with_instances(0)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidScenario(_)));
        let mut scenario = Scenario::new(platform(), small_app(), SimulatorKind::PageCache);
        scenario.instances = 0;
        assert!(matches!(
            run_scenario(&scenario),
            Err(ScenarioError::InvalidScenario(_))
        ));
    }

    #[test]
    fn program_task_with_fsync_and_repeat_runs() {
        // A CAWL-style "database": repeatedly rewrite a record and fsync it.
        let app = ApplicationSpec::new("db").with_task(TaskSpec::program(
            "commit loop",
            vec![
                Op::repeat(
                    4,
                    vec![
                        Op::write_range("wal", 0.0, 64.0 * MB),
                        Op::fsync("wal"),
                        Op::compute(0.5),
                    ],
                ),
                Op::Sync,
            ],
        ));
        let report =
            run_scenario(&Scenario::new(platform(), app, SimulatorKind::PageCache)).unwrap();
        let task = &report.instance_reports[0].tasks[0];
        // Every one of the 4 iterations wrote 64 MB to the cache and fsync'd
        // it to disk.
        assert!((task.write_stats.bytes_to_cache - 256.0 * MB).abs() < MB);
        assert!(
            task.write_stats.bytes_to_disk >= 255.0 * MB,
            "fsync flushed {}",
            task.write_stats.bytes_to_disk
        );
        assert!((task.compute_time - 2.0).abs() < 1e-9);
        // fsync time is accounted to the write phase: 4 × 64 MB at 465 MB/s
        // plus the memory writes.
        assert!(task.write_time > 0.5, "{}", task.write_time);
        let wb = report.writeback.unwrap();
        assert!(wb.synchronous_flushed >= 255.0 * MB);
    }

    #[test]
    fn nan_program_operands_are_rejected_before_any_simulation() {
        // Without preflight validation a NaN write length would reach the
        // device models and trip their internal NaN asserts.
        let app = ApplicationSpec::new("bad")
            .with_task(TaskSpec::program("t", vec![Op::write("f", f64::NAN)]));
        let err =
            run_scenario(&Scenario::new(platform(), app, SimulatorKind::PageCache)).unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidScenario(_)), "{err:?}");
        assert!(err.to_string().contains("write length"), "{err}");
    }

    #[test]
    fn invalid_fault_plan_is_a_scenario_error() {
        use crate::faults::FaultPlan;
        let scenario = Scenario::new(platform(), small_app(), SimulatorKind::PageCache)
            .with_faults(FaultPlan::crash_at(-1.0));
        assert!(matches!(
            run_scenario(&scenario),
            Err(ScenarioError::InvalidScenario(_))
        ));
    }

    #[test]
    fn crash_interrupts_the_run_and_reports_durability() {
        use crate::faults::FaultPlan;
        let baseline = run_scenario(&Scenario::new(
            platform(),
            small_app(),
            SimulatorKind::PageCache,
        ))
        .unwrap();
        // Crash halfway through the fault-free makespan.
        let at = baseline.simulated_duration / 2.0;
        let report = run_scenario(
            &Scenario::new(platform(), small_app(), SimulatorKind::PageCache)
                .with_faults(FaultPlan::crash_at(at)),
        )
        .unwrap();
        let crash = report.crash.as_ref().expect("crash fired");
        assert!(!crash.files.is_empty());
        let tasks = &report.instance_reports[0].tasks;
        assert!(tasks.len() <= 3);
        assert_eq!(
            tasks.last().unwrap().status,
            crate::report::TaskStatus::Interrupted
        );
        assert!(report.simulated_duration < baseline.simulated_duration);
        let stats = report.run_stats();
        assert_eq!(stats.durable_bytes, crash.durable_bytes());
        assert_eq!(stats.lost_bytes, crash.lost_bytes());
        // Post-crash the cache is empty.
        let (cached, dirty) = {
            let trace = report.memory_trace.as_ref().unwrap();
            let last = trace.samples().last().unwrap();
            (last.cached, last.dirty)
        };
        assert!(cached < MB && dirty < MB, "cached {cached}, dirty {dirty}");
    }

    #[test]
    fn crash_after_completion_never_fires() {
        use crate::faults::FaultPlan;
        let report = run_scenario(
            &Scenario::new(platform(), small_app(), SimulatorKind::PageCache)
                .with_faults(FaultPlan::crash_at(1e6)),
        )
        .unwrap();
        assert!(report.crash.is_none());
        assert!(report.instance_reports[0]
            .tasks
            .iter()
            .all(|t| t.status.is_completed()));
        // The watchdog wakes at t = 1e6 even though the crash is skipped.
        assert!(report.simulated_duration >= 1e6);
    }

    #[test]
    fn transient_error_is_absorbed_by_retries() {
        use crate::faults::{ErrorMode, FaultEvent, FaultPlan, IoErrorSpec, OpClass, RetryPolicy};
        let app = |retry| {
            ApplicationSpec::new("retry").with_task(
                TaskSpec::program(
                    "writer",
                    vec![Op::write("out", 64.0 * MB), Op::fsync("out")],
                )
                .with_retry(retry),
            )
        };
        let plan = FaultPlan::none().with_event(FaultEvent::IoError(IoErrorSpec::nth(
            OpClass::Write,
            1,
            ErrorMode::Transient,
        )));
        // With retries the task completes; the backoff shows up as write time.
        let report = run_scenario(
            &Scenario::new(
                platform(),
                app(RetryPolicy::new(3, 0.5)),
                SimulatorKind::PageCache,
            )
            .with_faults(plan.clone()),
        )
        .unwrap();
        let task = &report.instance_reports[0].tasks[0];
        assert!(task.status.is_completed());
        assert_eq!(task.retries, 1);
        assert!((task.write_stats.bytes_to_cache - 64.0 * MB).abs() < MB);
        assert!(task.write_time >= 0.5, "{}", task.write_time);
        assert_eq!(report.total_retries(), 1);
        // Without retries the same fault kills the task.
        let report = run_scenario(
            &Scenario::new(
                platform(),
                app(RetryPolicy::none()),
                SimulatorKind::PageCache,
            )
            .with_faults(plan),
        )
        .unwrap();
        let task = &report.instance_reports[0].tasks[0];
        assert!(!task.status.is_completed());
        assert_eq!(report.failed_tasks(), vec!["writer"]);
    }

    #[test]
    fn persistent_error_degrades_but_later_tasks_still_run() {
        use crate::faults::{ErrorMode, FaultEvent, FaultPlan, IoErrorSpec, OpClass};
        // Writes to "a" fail persistently; the task writing "b" is unharmed.
        let app = ApplicationSpec::new("degraded")
            .with_task(TaskSpec::program(
                "doomed",
                vec![Op::write("a", 64.0 * MB), Op::fsync("a")],
            ))
            .with_task(TaskSpec::program(
                "survivor",
                vec![Op::write("b", 64.0 * MB), Op::fsync("b")],
            ));
        let plan = FaultPlan::none().with_event(FaultEvent::IoError(
            IoErrorSpec::at(OpClass::Write, 0.0, ErrorMode::Persistent).on_file("a"),
        ));
        let report = run_scenario(
            &Scenario::new(platform(), app, SimulatorKind::PageCache).with_faults(plan),
        )
        .unwrap();
        let tasks = &report.instance_reports[0].tasks;
        assert_eq!(tasks.len(), 2);
        assert!(!tasks[0].status.is_completed());
        // The doomed task stopped at its first op: nothing was written.
        assert_eq!(tasks[0].write_stats.bytes_to_cache, 0.0);
        assert!(tasks[1].status.is_completed());
        assert!(tasks[1].write_stats.bytes_to_disk > 63.0 * MB);
        assert_eq!(report.failed_tasks(), vec!["doomed"]);
        assert!(report.crash.is_none());
    }

    #[test]
    fn restart_after_crash_reruns_the_application() {
        use crate::faults::FaultPlan;
        let baseline = run_scenario(&Scenario::new(
            platform(),
            small_app(),
            SimulatorKind::PageCache,
        ))
        .unwrap();
        let at = baseline.simulated_duration / 2.0;
        let report = run_scenario(
            &Scenario::new(platform(), small_app(), SimulatorKind::PageCache)
                .with_faults(FaultPlan::crash_at(at))
                .with_restart_after_crash(),
        )
        .unwrap();
        assert!(report.crash.is_some());
        assert_eq!(report.restart_reports.len(), 1);
        let restart = &report.restart_reports[0];
        assert_eq!(restart.tasks.len(), 3);
        assert!(restart.tasks.iter().all(|t| t.status.is_completed()));
        // The combined run takes longer than a clean one: the crash threw
        // away warm cache state and half the work.
        assert!(report.simulated_duration > baseline.simulated_duration);
    }

    #[test]
    fn program_task_partial_reread_is_cheaper_than_cold_read() {
        let app = ApplicationSpec::new("reread")
            .with_initial_file(crate::FileSpec::new("data", 1.0 * GB))
            .with_task(TaskSpec::program(
                "scan",
                vec![Op::read("data"), Op::ReleaseMemory(1.0 * GB)],
            ))
            .with_task(TaskSpec::program(
                "hot set",
                vec![
                    Op::read_range("data", 0.0, 200.0 * MB),
                    Op::ReleaseMemory(200.0 * MB),
                ],
            ));
        let report =
            run_scenario(&Scenario::new(platform(), app, SimulatorKind::PageCache)).unwrap();
        let tasks = &report.instance_reports[0].tasks;
        assert!(tasks[0].read_stats.bytes_from_disk > 0.9 * GB);
        assert!((tasks[1].read_stats.bytes_from_cache - 200.0 * MB).abs() < MB);
        assert!(tasks[1].read_time < 0.1 * tasks[0].read_time);
    }

    // --- Traffic tier ---

    use crate::traffic::{TenantSpec, TrafficSpec};

    /// An application with no tasks: the scenario is pure traffic.
    fn no_app() -> ApplicationSpec {
        ApplicationSpec::new("traffic only")
    }

    #[test]
    fn traffic_only_scenario_serves_all_requests() {
        let spec = TrafficSpec::open("serve", 200.0, 400)
            .with_catalog(20, 4.0 * MB)
            .with_request_bytes(2.0 * MB)
            .with_seed(3);
        let scenario =
            Scenario::new(platform(), no_app(), SimulatorKind::PageCache).with_traffic(vec![spec]);
        let report = run_scenario(&scenario).unwrap();
        let traffic = report.traffic.expect("traffic report present");
        let gen = traffic.generator("serve").unwrap();
        assert_eq!(gen.issued, 400);
        assert_eq!(gen.completed, 400);
        assert_eq!(gen.failed, 0);
        assert_eq!(gen.read_latency.count + gen.write_latency.count, 400);
        assert!(gen.read_latency.p50 > 0.0);
        assert!(gen.read_latency.p99 >= gen.read_latency.p50);
        assert!(gen.read_latency.max >= gen.read_latency.p999);
        assert!(gen.throughput_rps > 0.0);
        assert!(gen.peak_in_flight >= 1);
        assert!(gen.mean_in_flight > 0.0);
        assert!(gen.bytes_read > 0.0 && gen.bytes_written > 0.0);
        // The Zipf(1) hot set of a 50-file catalog fits an 8 GB cache: most
        // read bytes come from memory.
        assert!(gen.cache_hit_ratio > 0.5, "{}", gen.cache_hit_ratio);
        assert_eq!(gen.limit_evicted, 0.0);
        assert!(report.simulated_duration > 0.0);
    }

    #[test]
    fn traffic_reports_are_bit_reproducible() {
        let scenario = || {
            Scenario::new(platform(), no_app(), SimulatorKind::KernelEmu).with_traffic(vec![
                TrafficSpec::open("a", 150.0, 200).with_seed(11),
                TrafficSpec::closed("b", 8, 0.002, 200).with_seed(12),
            ])
        };
        let r1 = run_scenario(&scenario()).unwrap().traffic.unwrap();
        let r2 = run_scenario(&scenario()).unwrap().traffic.unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn closed_loop_concurrency_is_bounded_by_clients() {
        let clients = 4;
        let spec = TrafficSpec::closed("closed", clients, 0.001, 300).with_seed(5);
        let scenario =
            Scenario::new(platform(), no_app(), SimulatorKind::PageCache).with_traffic(vec![spec]);
        let gen_report = run_scenario(&scenario).unwrap().traffic.unwrap();
        let gen = gen_report.generator("closed").unwrap();
        assert_eq!(gen.completed, 300);
        assert!(gen.peak_in_flight <= clients as u64);
        assert!(gen.mean_in_flight <= clients as f64 + 1e-9);
    }

    #[test]
    fn open_loop_outruns_closed_loop_under_saturation() {
        // An open loop keeps issuing at its target rate even when the system
        // falls behind, so queueing piles into its latency tail; a closed
        // loop with one client can never have more than one request in
        // flight.
        let open = TrafficSpec::open("open", 2000.0, 300).with_seed(7);
        let closed = TrafficSpec::closed("closed", 1, 0.0, 300).with_seed(7);
        let scenario = Scenario::new(platform(), no_app(), SimulatorKind::PageCache)
            .with_traffic(vec![open, closed]);
        let traffic = run_scenario(&scenario).unwrap().traffic.unwrap();
        let open = traffic.generator("open").unwrap();
        let closed = traffic.generator("closed").unwrap();
        assert!(open.peak_in_flight > 1);
        assert_eq!(closed.peak_in_flight, 1);
        // Queueing delay shows up only in the open loop's percentiles.
        assert!(open.read_latency.p99 > closed.read_latency.p99);
    }

    #[test]
    fn tenant_limits_cap_the_generators_cache_footprint() {
        let run = |tenant: Option<TenantSpec>| {
            let mut spec = TrafficSpec::open("tenant", 300.0, 400)
                .with_catalog(64, 32.0 * MB)
                .with_request_bytes(4.0 * MB)
                .with_read_fraction(0.5)
                .with_seed(21);
            if let Some(t) = tenant {
                spec = spec.with_tenant(t);
            }
            let scenario = Scenario::new(platform(), no_app(), SimulatorKind::PageCache)
                .with_traffic(vec![spec]);
            run_scenario(&scenario).unwrap().traffic.unwrap()
        };
        let unlimited = run(None);
        let limited = run(Some(TenantSpec::capped(64.0 * MB)));
        let u = unlimited.generator("tenant").unwrap();
        let l = limited.generator("tenant").unwrap();
        assert_eq!(u.limit_evicted + u.limit_flushed, 0.0);
        // The limit forced evictions/flushes and cost cache hits.
        assert!(l.limit_evicted > 0.0);
        assert!(l.cache_hit_ratio < u.cache_hit_ratio);
    }

    #[test]
    fn tenant_limits_work_on_the_kernel_emu_backend_too() {
        let spec = TrafficSpec::open("kt", 300.0, 300)
            .with_catalog(64, 32.0 * MB)
            .with_request_bytes(4.0 * MB)
            .with_read_fraction(0.5)
            .with_seed(22)
            .with_tenant(TenantSpec::capped(64.0 * MB));
        let scenario =
            Scenario::new(platform(), no_app(), SimulatorKind::KernelEmu).with_traffic(vec![spec]);
        let traffic = run_scenario(&scenario).unwrap().traffic.unwrap();
        let gen = traffic.generator("kt").unwrap();
        assert_eq!(gen.completed, 300);
        assert!(gen.limit_evicted > 0.0 || gen.limit_flushed > 0.0);
    }

    #[test]
    fn traffic_failures_are_counted_not_fatal() {
        use crate::faults::{ErrorMode, FaultEvent, FaultPlan, IoErrorSpec, OpClass};
        let spec = TrafficSpec::open("faulty", 200.0, 200)
            .with_read_fraction(0.5)
            .with_seed(9);
        let plan = FaultPlan::none().with_event(FaultEvent::IoError(IoErrorSpec::at(
            OpClass::Write,
            0.0,
            ErrorMode::Persistent,
        )));
        let scenario = Scenario::new(platform(), no_app(), SimulatorKind::PageCache)
            .with_traffic(vec![spec])
            .with_faults(plan);
        let traffic = run_scenario(&scenario).unwrap().traffic.unwrap();
        let gen = traffic.generator("faulty").unwrap();
        assert_eq!(gen.issued, 200);
        assert!(gen.failed > 0, "writes should be killed by the fault gate");
        assert!(gen.completed > 0, "reads are unaffected");
        assert_eq!(gen.completed + gen.failed, 200);
        assert_eq!(gen.write_latency.count, 0);
    }

    #[test]
    fn traffic_runs_alongside_application_tasks() {
        let spec = TrafficSpec::open("bg", 50.0, 100).with_seed(4);
        let scenario = Scenario::new(platform(), small_app(), SimulatorKind::PageCache)
            .with_traffic(vec![spec]);
        let report = run_scenario(&scenario).unwrap();
        assert!(report.instance_reports[0]
            .tasks
            .iter()
            .all(|t| t.status.is_completed()));
        let gen_report = report.traffic.unwrap();
        assert_eq!(gen_report.generator("bg").unwrap().completed, 100);
    }

    #[test]
    fn duplicate_traffic_names_are_rejected() {
        let scenario =
            Scenario::new(platform(), no_app(), SimulatorKind::PageCache).with_traffic(vec![
                TrafficSpec::open("dup", 10.0, 10),
                TrafficSpec::open("dup", 20.0, 10),
            ]);
        assert!(matches!(
            run_scenario(&scenario),
            Err(ScenarioError::InvalidScenario(_))
        ));
    }
}
