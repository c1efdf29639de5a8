//! The scenario registry: every figure and table of the paper, the
//! `examples/` workloads, and a set of synthetic parameter sweeps, wrapped as
//! deterministic [`Scenario`]s.
//!
//! Each paper figure runs at two scales, from one metric function that
//! takes the scale as input. The `paper` group runs proportionally
//! scaled-down configurations, so the whole sweep finishes in well under a
//! second; the error orderings and cache behaviours the paper reports are
//! preserved at this scale, as the `experiments` test suite verifies. The
//! `paper_scale` group runs the paper's own configurations, so the golden
//! pins the numbers the paper's figures show. Wall-clock derived numbers
//! (Fig. 8's y-axis) are replaced by their deterministic counterpart
//! (simulated virtual time), because golden baselines must be
//! machine-independent.

use experiments::{
    concurrency_sweep, exp1_file_sizes, paper_platform, run_exp1_for_size, run_exp2, run_exp3,
    run_exp4, scaled_platform, EXP2_FILE_SIZE,
};
use storage_model::units::{GB, MB};
use workflow::net::{primary_server, server_host, server_link};
use workflow::{
    run_scenario, ApplicationSpec, ClientPolicy, ErrorMode, EvictionPolicy, FaultEvent, FaultPlan,
    FileSpec, FleetSpec, IoErrorSpec, Op, OpClass, PlatformSpec, RetryPolicy, RunStats,
    Scenario as WorkflowScenario, ScenarioReport, SimulatorKind, TaskSpec, TenantSpec,
    TrafficGenReport, TrafficSpec,
};

use crate::scenario::{Metrics, Scenario};

/// Builds the full scenario registry, in the canonical (output) order.
pub fn registry() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "table1_synthetic_parameters",
            group: "paper",
            description: "Table I: synthetic application CPU time vs input size",
            run: table1,
        },
        Scenario {
            name: "table2_nighres_parameters",
            group: "paper",
            description: "Table II: Nighres step input/output sizes and CPU times",
            run: table2,
        },
        Scenario {
            name: "table3_bandwidths",
            group: "paper",
            description: "Table III: measured and simulated device bandwidths",
            run: table3,
        },
        Scenario {
            name: "fig4a_exp1_errors",
            group: "paper",
            description: "Fig. 4a: per-phase I/O times and errors of Exp 1",
            run: || fig4a(Scale::Quick),
        },
        Scenario {
            name: "fig4b_memory_profiles",
            group: "paper",
            description: "Fig. 4b: memory profile peaks of Exp 1",
            run: || fig4b(Scale::Quick),
        },
        Scenario {
            name: "fig4c_cache_contents",
            group: "paper",
            description: "Fig. 4c: cache content after each I/O phase of Exp 1",
            run: || fig4c(Scale::Quick),
        },
        Scenario {
            name: "fig5_exp2_concurrent_local",
            group: "paper",
            description: "Fig. 5: concurrent instances on local storage (Exp 2)",
            run: || fig5(Scale::Quick),
        },
        Scenario {
            name: "fig6_exp4_nighres",
            group: "paper",
            description: "Fig. 6: Nighres per-phase times and errors (Exp 4)",
            run: || fig6(Scale::Quick),
        },
        Scenario {
            name: "fig7_exp3_concurrent_nfs",
            group: "paper",
            description: "Fig. 7: concurrent instances on NFS storage (Exp 3)",
            run: || fig7(Scale::Quick),
        },
        Scenario {
            name: "fig8_simulated_durations",
            group: "paper",
            description: "Fig. 8 configurations, gated on simulated virtual time",
            run: || fig8(Scale::Quick),
        },
        Scenario {
            name: "fig4a_exp1_errors_paper_scale",
            group: "paper_scale",
            description: "Fig. 4a at the paper's scale: Exp 1 at 20 and 100 GB",
            run: || fig4a(Scale::Paper),
        },
        Scenario {
            name: "fig4b_memory_profiles_paper_scale",
            group: "paper_scale",
            description: "Fig. 4b at the paper's scale: memory profile peaks",
            run: || fig4b(Scale::Paper),
        },
        Scenario {
            name: "fig4c_cache_contents_paper_scale",
            group: "paper_scale",
            description: "Fig. 4c at the paper's scale: cache content per file",
            run: || fig4c(Scale::Paper),
        },
        Scenario {
            name: "fig5_exp2_concurrent_local_paper_scale",
            group: "paper_scale",
            description: "Fig. 5 at the paper's scale: 1-32 instances of 3 GB, local",
            run: || fig5(Scale::Paper),
        },
        Scenario {
            name: "fig6_exp4_nighres_paper_scale",
            group: "paper_scale",
            description: "Fig. 6 at the paper's scale: Nighres on the 250 GiB node",
            run: || fig6(Scale::Paper),
        },
        Scenario {
            name: "fig7_exp3_concurrent_nfs_paper_scale",
            group: "paper_scale",
            description: "Fig. 7 at the paper's scale: 1-32 instances of 3 GB, NFS",
            run: || fig7(Scale::Paper),
        },
        Scenario {
            name: "fig8_simulated_durations_paper_scale",
            group: "paper_scale",
            description: "Fig. 8 at the paper's scale, gated on simulated virtual time",
            run: || fig8(Scale::Paper),
        },
        Scenario {
            name: "example_quickstart",
            group: "examples",
            description: "examples/quickstart.rs: double read, cacheless vs cached",
            run: example_quickstart,
        },
        Scenario {
            name: "example_synthetic_pipeline",
            group: "examples",
            description: "examples/synthetic_pipeline.rs: 3-task pipeline, all back-ends",
            run: example_synthetic_pipeline,
        },
        Scenario {
            name: "example_nighres_workflow",
            group: "examples",
            description: "examples/nighres_workflow.rs: Nighres on a 16 GB node",
            run: example_nighres_workflow,
        },
        Scenario {
            name: "example_nfs_cluster",
            group: "examples",
            description: "examples/nfs_cluster.rs: pipelines against an NFS server",
            run: example_nfs_cluster,
        },
        Scenario {
            name: "example_concurrent_instances",
            group: "examples",
            description: "examples/concurrent_instances.rs: contention plateau",
            run: example_concurrent_instances,
        },
        Scenario {
            name: "example_database_workload",
            group: "examples",
            description: "examples/database_workload.rs: commit loop (Repeat+Fsync) + checkpoint",
            run: example_database_workload,
        },
        Scenario {
            name: "prog_database_fsync",
            group: "programs",
            description: "CAWL-style interleaved small writes + fsync, all four back-ends",
            run: prog_database_fsync,
        },
        Scenario {
            name: "prog_random_partial_reread",
            group: "programs",
            description: "random 64 MB partial re-reads at several cache-to-working-set ratios",
            run: prog_random_partial_reread,
        },
        Scenario {
            name: "prog_scan_then_reread",
            group: "programs",
            description: "full scan followed by repeated hot-set re-reads, all four back-ends",
            run: prog_scan_then_reread,
        },
        Scenario {
            name: "prog_fsync_storm",
            group: "programs",
            description: "many small files written and fsync'd back to back",
            run: prog_fsync_storm,
        },
        Scenario {
            name: "prog_strided_reads",
            group: "programs",
            description: "strided read passes at several strides, model vs emulator hit ratios",
            run: prog_strided_reads,
        },
        Scenario {
            name: "prog_seq_random_switch",
            group: "programs",
            description: "sequential-random-sequential mode switches under readahead",
            run: prog_seq_random_switch,
        },
        Scenario {
            name: "prog_write_burst_throttle",
            group: "programs",
            description: "write bursts straddling the dirty thresholds, paced vs unpaced",
            run: prog_write_burst_throttle,
        },
        Scenario {
            name: "sweep_dirty_ratio",
            group: "sweep",
            description: "write behaviour across vm.dirty_ratio / dirty_background_ratio",
            run: sweep_dirty_ratio,
        },
        Scenario {
            name: "sweep_cache_size",
            group: "sweep",
            description: "hit ratio and makespan across host memory sizes",
            run: sweep_cache_size,
        },
        Scenario {
            name: "sweep_rw_mix",
            group: "sweep",
            description: "makespan and write routing across read/write mixes",
            run: sweep_rw_mix,
        },
        Scenario {
            name: "sweep_concurrency",
            group: "sweep",
            description: "read/write contention across concurrent-instance counts",
            run: sweep_concurrency,
        },
        Scenario {
            name: "sweep_readahead_window",
            group: "sweep",
            description: "sequential scan + re-read across readahead window sizes",
            run: sweep_readahead_window,
        },
        Scenario {
            name: "sweep_throttle_pacing",
            group: "sweep",
            description: "write-burst behaviour across balance_dirty_pages pacing strengths",
            run: sweep_throttle_pacing,
        },
        Scenario {
            name: "sweep_eviction_policy_reread",
            group: "eviction",
            description: "hot-set re-reads between one-shot scans, per replacement policy",
            run: sweep_eviction_policy_reread,
        },
        Scenario {
            name: "sweep_eviction_policy_strided",
            group: "eviction",
            description: "repeated strided read passes under pressure, per replacement policy",
            run: sweep_eviction_policy_strided,
        },
        Scenario {
            name: "sweep_eviction_policy_write_burst",
            group: "eviction",
            description: "write bursts straddling the dirty thresholds, per replacement policy",
            run: sweep_eviction_policy_write_burst,
        },
        Scenario {
            name: "fault_crash_before_fsync_database",
            group: "faults",
            description: "power loss before the fsync: the unflushed WAL record is lost",
            run: fault_crash_before_fsync_database,
        },
        Scenario {
            name: "fault_crash_after_fsync_database",
            group: "faults",
            description: "power loss after the fsync: the committed WAL record survives",
            run: fault_crash_after_fsync_database,
        },
        Scenario {
            name: "fault_writeback_storm_crash",
            group: "faults",
            description: "crash mid-writeback: a durable prefix survives, then a restart pass",
            run: fault_writeback_storm_crash,
        },
        Scenario {
            name: "fault_nfs_outage_retry_storm",
            group: "faults",
            description: "a transient NFS outage ridden out by retrying tasks with backoff",
            run: fault_nfs_outage_retry_storm,
        },
        Scenario {
            name: "fault_eio_degraded",
            group: "faults",
            description: "persistent EIO on one output file: degraded completion, others finish",
            run: fault_eio_degraded,
        },
        Scenario {
            name: "fault_retry_backoff_sweep",
            group: "faults",
            description: "one transient write error across exponential-backoff strengths",
            run: fault_retry_backoff_sweep,
        },
        Scenario {
            name: "netf_partition_stampede",
            group: "net_faults",
            description: "hot-file cache stampede while a partition cuts half the fleet's clients",
            run: netf_partition_stampede,
        },
        Scenario {
            name: "netf_server_crash_failover",
            group: "net_faults",
            description: "a replica server crashes mid write-back storm; reads fail over",
            run: netf_server_crash_failover,
        },
        Scenario {
            name: "netf_flapping_link_retry_storm",
            group: "net_faults",
            description: "flapping server links ridden out by timeout + backoff clients",
            run: netf_flapping_link_retry_storm,
        },
        Scenario {
            name: "traffic_zipf_steady_state",
            group: "traffic",
            description: "open-loop Zipf(1) request serving on both cached back-ends",
            run: traffic_zipf_steady_state,
        },
        Scenario {
            name: "traffic_open_vs_closed_saturation",
            group: "traffic",
            description:
                "open loop past capacity piles queueing into the tail; closed loop self-throttles",
            run: traffic_open_vs_closed_saturation,
        },
        Scenario {
            name: "traffic_cache_pressure_tail_latency",
            group: "traffic",
            description: "read p99 degrades when the Zipf hot set exceeds the tenant's cache limit",
            run: traffic_cache_pressure_tail_latency,
        },
        Scenario {
            name: "traffic_noisy_neighbor_isolation",
            group: "traffic",
            description:
                "an uncapped ingest hog dirty-throttles the whole host unless memcg-style limits pin it",
            run: traffic_noisy_neighbor_isolation,
        },
    ]
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `"Read 1"` → `"read_1"` — metric keys are lowercase snake case.
fn key(label: &str) -> String {
    label.to_lowercase().replace(' ', "_")
}

/// Records the [`RunStats`] block of a report under a prefix.
fn push_run_stats(m: &mut Metrics, prefix: &str, stats: &RunStats) {
    m.push(format!("{prefix}/bytes_from_disk"), stats.bytes_from_disk);
    m.push(format!("{prefix}/bytes_from_cache"), stats.bytes_from_cache);
    m.push(format!("{prefix}/bytes_to_disk"), stats.bytes_to_disk);
    m.push(format!("{prefix}/cache_hit_ratio"), stats.cache_hit_ratio);
    m.push(format!("{prefix}/peak_cached"), stats.peak_cached);
    m.push(format!("{prefix}/peak_dirty"), stats.peak_dirty);
}

fn run(
    platform: &PlatformSpec,
    app: &ApplicationSpec,
    kind: SimulatorKind,
    instances: usize,
) -> Result<ScenarioReport, String> {
    let mut scenario = WorkflowScenario::new(platform.clone(), app.clone(), kind);
    if instances > 1 {
        scenario = scenario
            .with_instances(instances)
            .map_err(err)?
            .with_sample_interval(None);
    }
    run_scenario(&scenario).map_err(err)
}

// ---------------------------------------------------------------------------
// Paper tables and figures
// ---------------------------------------------------------------------------

fn table1() -> Result<Metrics, String> {
    let mut m = Metrics::new();
    for gb in [3.0, 20.0, 50.0, 75.0, 100.0] {
        m.push(
            format!("cpu_time_s/{gb:.0}gb"),
            ApplicationSpec::synthetic_cpu_time(gb * GB),
        );
    }
    Ok(m)
}

fn table2() -> Result<Metrics, String> {
    let mut m = Metrics::new();
    for task in &ApplicationSpec::nighres().tasks {
        let step = key(&task.name);
        m.push(format!("{step}/input_bytes"), task.input_bytes());
        m.push(format!("{step}/output_bytes"), task.output_bytes());
        m.push(format!("{step}/cpu_time_s"), task.cpu_time);
    }
    Ok(m)
}

fn table3() -> Result<Metrics, String> {
    use experiments::platform::{measured, simulated};
    let mut m = Metrics::new();
    m.push("measured/memory_read_mbps", measured::MEMORY_READ);
    m.push("measured/memory_write_mbps", measured::MEMORY_WRITE);
    m.push("measured/local_disk_read_mbps", measured::LOCAL_DISK_READ);
    m.push("measured/local_disk_write_mbps", measured::LOCAL_DISK_WRITE);
    m.push("measured/remote_disk_read_mbps", measured::REMOTE_DISK_READ);
    m.push(
        "measured/remote_disk_write_mbps",
        measured::REMOTE_DISK_WRITE,
    );
    m.push("measured/network_mbps", measured::NETWORK);
    m.push("simulated/memory_mbps", simulated::MEMORY);
    m.push("simulated/local_disk_mbps", simulated::LOCAL_DISK);
    m.push("simulated/remote_disk_mbps", simulated::REMOTE_DISK);
    m.push("simulated/network_mbps", simulated::NETWORK);
    Ok(m)
}

/// The two configurations of every paper figure. `Quick` is the `paper`
/// group's proportionally scaled-down one, which finishes in milliseconds
/// even with the debug oracles on; `Paper` is the paper's own (the
/// `paper_scale` group): the 250 GiB node, Exp 1 at 20 and 100 GB, and
/// Exps 2/3 and Fig. 8 at 1–32 instances of 3 GB.
#[derive(Debug, Clone, Copy)]
enum Scale {
    Quick,
    Paper,
}

impl Scale {
    /// The node of Exp 1 (Figs. 4a–c) and Exp 4 (Fig. 6).
    fn node(self) -> PlatformSpec {
        match self {
            Scale::Quick => scaled_platform(16.0 * GB),
            Scale::Paper => paper_platform(),
        }
    }

    /// Exp 1's input file sizes.
    fn exp1_sizes(self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![2.0 * GB],
            Scale::Paper => exp1_file_sizes(),
        }
    }

    /// The metric-name prefix of one Exp 1 size: none at quick scale, which
    /// has one size, and `20gb/`, `100gb/` at the paper's.
    fn exp1_prefix(self, size: f64) -> String {
        match self {
            Scale::Quick => String::new(),
            Scale::Paper => format!("{:.0}gb/", size / GB),
        }
    }

    /// Node, file size and instance counts of Exps 2/3 (Figs. 5 and 7).
    fn concurrency(self) -> (PlatformSpec, f64, Vec<usize>) {
        match self {
            Scale::Quick => (scaled_platform(32.0 * GB), 1.0 * GB, vec![1, 4, 8]),
            Scale::Paper => (paper_platform(), EXP2_FILE_SIZE, concurrency_sweep()),
        }
    }

    /// Fig. 8's instance counts. Its node and file size are Exps 2/3's.
    fn fig8_instances(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![1, 2, 4, 8],
            Scale::Paper => concurrency_sweep(),
        }
    }
}

/// One cache-content snapshot of Fig. 4c.
struct Snapshot {
    /// `"real"` or `"wrench_cache"`.
    simulator: &'static str,
    /// The phase it follows (`"Read 1"`, ...).
    label: String,
    /// Total cached bytes.
    total: f64,
    /// Cached bytes per file, in file-name order.
    per_file: Vec<(String, f64)>,
}

/// Plain-data projection of one Exp 1 run at one file size: everything
/// fig4a/b/c report, without the `Rc`-based types of the full result, so it
/// can live in a `OnceLock` shared across worker threads.
struct Exp1Summary {
    /// Prefix of every metric of this size (see [`Scale::exp1_prefix`]).
    prefix: String,
    /// (label, real, prototype, cacheless, wrench_cache) per phase.
    phases: Vec<(String, f64, f64, f64, f64)>,
    /// (prototype, cacheless, wrench_cache) mean errors, percent.
    mean_errors: (f64, f64, f64),
    /// (label, max_used, max_cached, max_dirty, samples) per memory trace.
    traces: Vec<(&'static str, f64, f64, f64, f64)>,
    /// Every cache-content snapshot, the emulator's first.
    snapshots: Vec<Snapshot>,
}

fn summarize_exp1(scale: Scale, size: f64) -> Result<Exp1Summary, String> {
    let result = run_exp1_for_size(&scale.node(), size).map_err(err)?;
    let mut traces = Vec::new();
    for (label, trace) in [
        ("real", &result.real_trace),
        ("prototype", &result.prototype_trace),
        ("wrench_cache", &result.wrench_cache_trace),
    ] {
        let trace = trace
            .as_ref()
            .ok_or_else(|| format!("{label} trace missing"))?;
        traces.push((
            label,
            trace.max_used(),
            trace.max_cached(),
            trace.max_dirty(),
            trace.len() as f64,
        ));
    }
    let mut snapshots = Vec::new();
    for (simulator, snaps) in [
        ("real", &result.real_snapshots),
        ("wrench_cache", &result.wrench_cache_snapshots),
    ] {
        for snap in snaps {
            snapshots.push(Snapshot {
                simulator,
                label: snap.label.clone(),
                total: snap.total(),
                per_file: snap
                    .per_file
                    .iter()
                    .map(|(file, bytes)| (file.to_string(), *bytes))
                    .collect(),
            });
        }
    }
    Ok(Exp1Summary {
        prefix: scale.exp1_prefix(size),
        phases: result
            .phases
            .iter()
            .map(|p| {
                (
                    p.label.clone(),
                    p.real,
                    p.prototype,
                    p.cacheless,
                    p.wrench_cache,
                )
            })
            .collect(),
        mean_errors: (
            result.mean_error_prototype(),
            result.mean_error_cacheless(),
            result.mean_error_wrench_cache(),
        ),
        traces,
        snapshots,
    })
}

/// Exp 1 at every file size of `scale`. Three scenarios (fig4a/b/c) report
/// different views of this one experiment, so each scale's runs are
/// computed once and shared — they are deterministic, so whichever worker
/// gets there first produces the same result.
fn exp1_runs(scale: Scale) -> Result<&'static [Exp1Summary], String> {
    type Runs = std::sync::OnceLock<Result<Vec<Exp1Summary>, String>>;
    static EXP1: [Runs; 2] = [Runs::new(), Runs::new()];
    EXP1[scale as usize]
        .get_or_init(|| {
            scale
                .exp1_sizes()
                .into_iter()
                .map(|size| summarize_exp1(scale, size))
                .collect()
        })
        .as_deref()
        .map_err(String::clone)
}

/// Fig. 4a: per-phase I/O times and the mean errors of Exp 1.
fn fig4a(scale: Scale) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    for run in exp1_runs(scale)? {
        let p = &run.prefix;
        for (label, real, prototype, cacheless, wrench_cache) in &run.phases {
            let phase = key(label);
            m.push(format!("{p}{phase}/real_s"), *real);
            m.push(format!("{p}{phase}/prototype_s"), *prototype);
            m.push(format!("{p}{phase}/cacheless_s"), *cacheless);
            m.push(format!("{p}{phase}/wrench_cache_s"), *wrench_cache);
        }
        let (prototype, cacheless, wrench_cache) = run.mean_errors;
        m.push(format!("{p}mean_error_pct/prototype"), prototype);
        m.push(format!("{p}mean_error_pct/cacheless"), cacheless);
        m.push(format!("{p}mean_error_pct/wrench_cache"), wrench_cache);
    }
    Ok(m)
}

/// Fig. 4b: the peaks of Exp 1's memory profiles.
fn fig4b(scale: Scale) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    for run in exp1_runs(scale)? {
        let p = &run.prefix;
        for (label, max_used, max_cached, max_dirty, samples) in &run.traces {
            m.push(format!("{p}{label}/max_used"), *max_used);
            m.push(format!("{p}{label}/max_cached"), *max_cached);
            m.push(format!("{p}{label}/max_dirty"), *max_dirty);
            m.push(format!("{p}{label}/samples"), *samples);
        }
    }
    Ok(m)
}

/// Fig. 4c: the cache content after each I/O phase of Exp 1, in total and
/// per file.
fn fig4c(scale: Scale) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    for run in exp1_runs(scale)? {
        for snap in &run.snapshots {
            let at = format!("{}{}/{}", run.prefix, snap.simulator, key(&snap.label));
            m.push(format!("{at}/total"), snap.total);
            m.push(format!("{at}/files"), snap.per_file.len() as f64);
            for (file, bytes) in &snap.per_file {
                m.push(format!("{at}/cached/{file}"), *bytes);
            }
        }
    }
    Ok(m)
}

fn push_concurrency_sweep(m: &mut Metrics, sweep: &experiments::ConcurrencySweep) {
    for p in &sweep.points {
        let n = p.instances;
        m.push(format!("n{n:02}/real_read_s"), p.real_read);
        m.push(format!("n{n:02}/real_write_s"), p.real_write);
        m.push(format!("n{n:02}/cacheless_read_s"), p.cacheless_read);
        m.push(format!("n{n:02}/cacheless_write_s"), p.cacheless_write);
        m.push(format!("n{n:02}/cache_read_s"), p.cache_read);
        m.push(format!("n{n:02}/cache_write_s"), p.cache_write);
    }
}

/// Fig. 5 (Exp 2): concurrent instances on local storage.
fn fig5(scale: Scale) -> Result<Metrics, String> {
    let (platform, size, instances) = scale.concurrency();
    let sweep = run_exp2(&platform, size, &instances).map_err(err)?;
    let mut m = Metrics::new();
    push_concurrency_sweep(&mut m, &sweep);
    Ok(m)
}

/// Fig. 6 (Exp 4): the Nighres workflow's per-phase times and errors.
fn fig6(scale: Scale) -> Result<Metrics, String> {
    let result = run_exp4(&scale.node()).map_err(err)?;
    let mut m = Metrics::new();
    for p in &result.phases {
        let phase = key(&p.label);
        m.push(format!("{phase}/real_s"), p.real);
        m.push(format!("{phase}/cacheless_s"), p.cacheless);
        m.push(format!("{phase}/wrench_cache_s"), p.wrench_cache);
    }
    m.push("mean_error_pct/cacheless", result.mean_error_cacheless());
    m.push(
        "mean_error_pct/wrench_cache",
        result.mean_error_wrench_cache(),
    );
    Ok(m)
}

/// Fig. 7 (Exp 3): concurrent instances on NFS storage.
fn fig7(scale: Scale) -> Result<Metrics, String> {
    let (platform, size, instances) = scale.concurrency();
    let sweep = run_exp3(&platform, size, &instances).map_err(err)?;
    let mut m = Metrics::new();
    push_concurrency_sweep(&mut m, &sweep);
    Ok(m)
}

/// Fig. 8's wall-clock y-axis is machine-dependent, so the gated metric here
/// is the *simulated* duration of each of its four configurations — a
/// deterministic proxy that still catches behavioural drift in every
/// configuration Fig. 8 measures.
fn fig8(scale: Scale) -> Result<Metrics, String> {
    let (platform, size, _) = scale.concurrency();
    let app = ApplicationSpec::synthetic_pipeline(size);
    let mut m = Metrics::new();
    for instances in scale.fig8_instances() {
        for (label, kind, nfs) in [
            ("cacheless_local", SimulatorKind::Cacheless, false),
            ("cacheless_nfs", SimulatorKind::Cacheless, true),
            ("cache_local", SimulatorKind::PageCache, false),
            ("cache_nfs", SimulatorKind::PageCache, true),
        ] {
            let platform = if nfs {
                platform.clone().with_nfs()
            } else {
                platform.clone()
            };
            let report = run_scenario(
                &WorkflowScenario::new(platform, app.clone(), kind)
                    .with_instances(instances)
                    .map_err(err)?
                    .with_sample_interval(None),
            )
            .map_err(err)?;
            m.push(
                format!("n{instances:02}/{label}/simulated_s"),
                report.simulated_duration,
            );
        }
    }
    Ok(m)
}

// ---------------------------------------------------------------------------
// The examples/ workloads
// ---------------------------------------------------------------------------

fn uniform_platform(memory: f64) -> PlatformSpec {
    PlatformSpec::uniform(
        memory,
        storage_model::DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
        storage_model::DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
    )
}

fn example_quickstart() -> Result<Metrics, String> {
    let platform = uniform_platform(8.0 * GB);
    let input = FileSpec::new("input.dat", 2.0 * GB);
    let app = ApplicationSpec::new("quickstart")
        .with_initial_file(input.clone())
        .with_task(TaskSpec::new("first read", 1.0).reads(input.clone()))
        .with_task(TaskSpec::new("second read", 1.0).reads(input));
    let mut m = Metrics::new();
    for (label, kind) in [
        ("cacheless", SimulatorKind::Cacheless),
        ("cache", SimulatorKind::PageCache),
    ] {
        let report = run(&platform, &app, kind, 1)?;
        let tasks = &report.instance_reports[0].tasks;
        m.push(format!("{label}/first_read_s"), tasks[0].read_time);
        m.push(format!("{label}/second_read_s"), tasks[1].read_time);
        m.push(
            format!("{label}/second_read_hit_ratio"),
            tasks[1].read_stats.cache_hit_ratio(),
        );
    }
    Ok(m)
}

fn example_synthetic_pipeline() -> Result<Metrics, String> {
    let platform = uniform_platform(16.0 * GB);
    let app = ApplicationSpec::synthetic_pipeline(4.0 * GB);
    let mut m = Metrics::new();
    for (label, kind) in [
        ("kernel_emu", SimulatorKind::KernelEmu),
        ("prototype", SimulatorKind::Prototype),
        ("cacheless", SimulatorKind::Cacheless),
        ("cache", SimulatorKind::PageCache),
    ] {
        let report = run(&platform, &app, kind, 1)?;
        m.push(format!("{label}/makespan_s"), report.mean_makespan());
        m.push(format!("{label}/read_s"), report.mean_total_read_time());
        m.push(format!("{label}/write_s"), report.mean_total_write_time());
    }
    Ok(m)
}

fn example_nighres_workflow() -> Result<Metrics, String> {
    let platform = uniform_platform(16.0 * GB);
    let app = ApplicationSpec::nighres();
    let mut m = Metrics::new();
    for (label, kind) in [
        ("kernel_emu", SimulatorKind::KernelEmu),
        ("cacheless", SimulatorKind::Cacheless),
        ("cache", SimulatorKind::PageCache),
    ] {
        let report = run(&platform, &app, kind, 1)?;
        m.push(format!("{label}/makespan_s"), report.mean_makespan());
        m.push(format!("{label}/read_s"), report.mean_total_read_time());
        m.push(format!("{label}/write_s"), report.mean_total_write_time());
    }
    Ok(m)
}

fn example_nfs_cluster() -> Result<Metrics, String> {
    let platform = uniform_platform(32.0 * GB).with_nfs();
    let app = ApplicationSpec::synthetic_pipeline(1.0 * GB);
    let mut m = Metrics::new();
    for instances in [1usize, 4] {
        for (label, kind) in [
            ("cacheless", SimulatorKind::Cacheless),
            ("cache", SimulatorKind::PageCache),
        ] {
            let report = run(&platform, &app, kind, instances)?;
            m.push(
                format!("n{instances:02}/{label}/read_s"),
                report.mean_total_read_time(),
            );
            m.push(
                format!("n{instances:02}/{label}/write_s"),
                report.mean_total_write_time(),
            );
        }
    }
    Ok(m)
}

fn example_concurrent_instances() -> Result<Metrics, String> {
    let platform = uniform_platform(32.0 * GB);
    let app = ApplicationSpec::synthetic_pipeline(1.0 * GB);
    let mut m = Metrics::new();
    for instances in [1usize, 4, 8] {
        for (label, kind) in [
            ("cacheless", SimulatorKind::Cacheless),
            ("cache", SimulatorKind::PageCache),
        ] {
            let report = run(&platform, &app, kind, instances)?;
            m.push(
                format!("n{instances:02}/{label}/read_s"),
                report.mean_total_read_time(),
            );
            m.push(
                format!("n{instances:02}/{label}/write_s"),
                report.mean_total_write_time(),
            );
        }
    }
    Ok(m)
}

// ---------------------------------------------------------------------------
// Workload-program scenarios (offset I/O, fsync, repetition)
// ---------------------------------------------------------------------------

/// Tiny xorshift PRNG so program scenarios can draw deterministic offsets
/// without any ambient state (same generator family as the sweep runner).
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
        x
    }

    /// A float in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The four local back-ends with their metric labels.
const ALL_KINDS: [(&str, SimulatorKind); 4] = [
    ("cacheless", SimulatorKind::Cacheless),
    ("prototype", SimulatorKind::Prototype),
    ("cache", SimulatorKind::PageCache),
    ("kernel_emu", SimulatorKind::KernelEmu),
];

/// CAWL-style "database": a commit loop rewriting a WAL record with an fsync
/// after every commit, then a checkpoint write and a final sync — small
/// interleaved writes whose cost is dominated by the synchronous writeback,
/// not the cache. Gated on all four back-ends.
fn prog_database_fsync() -> Result<Metrics, String> {
    let platform = scaled_platform(8.0 * GB);
    let record = 64.0 * MB;
    let app = ApplicationSpec::new("prog-database").with_task(TaskSpec::program(
        "commit loop",
        vec![
            Op::repeat(
                16,
                vec![
                    Op::write_range("wal", 0.0, record),
                    Op::fsync("wal"),
                    Op::compute(0.05),
                ],
            ),
            Op::write_range("table", 0.0, 512.0 * MB),
            Op::Sync,
        ],
    ));
    let mut m = Metrics::new();
    for (label, kind) in ALL_KINDS {
        let report = run(&platform, &app, kind, 1)?;
        let task = &report.instance_reports[0].tasks[0];
        m.push(format!("{label}/write_s"), task.write_time);
        m.push(
            format!("{label}/bytes_to_disk"),
            task.write_stats.bytes_to_disk,
        );
        m.push(format!("{label}/makespan_s"), report.mean_makespan());
        if let Some(wb) = report.writeback {
            m.push(
                format!("{label}/synchronous_flushed"),
                wb.synchronous_flushed,
            );
        }
    }
    Ok(m)
}

/// Random 64 MB partial re-reads of a 2 GB working set at three
/// cache-to-working-set ratios. Access-pattern-dependent eviction ("Cache is
/// King": scan vs. random diverge) makes the macroscopic model and the
/// kernel emulator legitimately different here — both are gated.
fn prog_random_partial_reread() -> Result<Metrics, String> {
    let working_set = 2.0 * GB;
    let request = 64.0 * MB;
    // A *streaming* scan (read a chunk, release its anonymous copy) warms
    // the cache up to roughly the host memory, so the cache-to-working-set
    // ratio — not the application's anonymous footprint — decides how much
    // of the working set stays resident.
    let mut ops = Vec::new();
    let chunks = (working_set / request) as usize;
    for i in 0..chunks {
        ops.push(Op::read_range("data", i as f64 * request, request));
        ops.push(Op::ReleaseMemory(request));
    }
    // Deterministic random offsets, shared by every platform/back-end so the
    // comparison is apples to apples.
    let mut rng = XorShift::new(0x5eed_cafe);
    for _ in 0..24 {
        let offset = (rng.next_f64() * (working_set - request) / MB).floor() * MB;
        ops.push(Op::read_range("data", offset, request));
        ops.push(Op::ReleaseMemory(request));
    }
    let app = ApplicationSpec::new("prog-random-reread")
        .with_initial_file(FileSpec::new("data", working_set))
        .with_task(TaskSpec::program("random re-reads", ops));
    let mut m = Metrics::new();
    for ratio_pct in [50u32, 100, 200] {
        let memory = working_set * ratio_pct as f64 / 100.0;
        let platform = scaled_platform(memory.max(1.0 * GB));
        for (label, kind) in [
            ("cache", SimulatorKind::PageCache),
            ("kernel_emu", SimulatorKind::KernelEmu),
        ] {
            let report = run(&platform, &app, kind, 1)?;
            let stats = report.run_stats();
            let prefix = format!("ratio_{ratio_pct:03}/{label}");
            m.push(format!("{prefix}/read_s"), report.mean_total_read_time());
            m.push(format!("{prefix}/hit_ratio"), stats.cache_hit_ratio);
            m.push(format!("{prefix}/bytes_from_disk"), stats.bytes_from_disk);
        }
    }
    Ok(m)
}

/// A full scan of a 3 GB file followed by four re-reads of its first 512 MB
/// — the scan-then-re-read pattern. Cached back-ends serve the hot set from
/// memory; the cacheless baseline pays disk bandwidth every time. Gated on
/// all four back-ends.
fn prog_scan_then_reread() -> Result<Metrics, String> {
    let file_size = 3.0 * GB;
    let hot = 512.0 * MB;
    let app = ApplicationSpec::new("prog-scan-reread")
        .with_initial_file(FileSpec::new("data", file_size))
        .with_task(TaskSpec::program(
            "scan",
            vec![Op::read("data"), Op::ReleaseMemory(file_size)],
        ))
        .with_task(TaskSpec::program(
            "hot set",
            vec![Op::repeat(
                4,
                vec![Op::read_range("data", 0.0, hot), Op::ReleaseMemory(hot)],
            )],
        ));
    let platform = scaled_platform(8.0 * GB);
    let mut m = Metrics::new();
    for (label, kind) in ALL_KINDS {
        let report = run(&platform, &app, kind, 1)?;
        m.push(format!("{label}/scan_s"), report.mean_task_read_time(0));
        m.push(format!("{label}/reread_s"), report.mean_task_read_time(1));
        let stats = report.run_stats();
        m.push(format!("{label}/hit_ratio"), stats.cache_hit_ratio);
    }
    Ok(m)
}

/// Sixteen small files written and fsync'd back to back (an "fsync storm"),
/// then one sync. Exercises the per-file dirty chains: every fsync flushes
/// only its own file.
fn prog_fsync_storm() -> Result<Metrics, String> {
    let file_size = 32.0 * MB;
    let mut ops = Vec::new();
    for i in 0..16 {
        ops.push(Op::write_range(format!("seg_{i:02}"), 0.0, file_size));
        ops.push(Op::fsync(format!("seg_{i:02}")));
    }
    ops.push(Op::Sync);
    let app = ApplicationSpec::new("prog-fsync-storm").with_task(TaskSpec::program("storm", ops));
    let platform = scaled_platform(8.0 * GB);
    let mut m = Metrics::new();
    for (label, kind) in [
        ("cache", SimulatorKind::PageCache),
        ("kernel_emu", SimulatorKind::KernelEmu),
    ] {
        let report = run(&platform, &app, kind, 1)?;
        let task = &report.instance_reports[0].tasks[0];
        m.push(format!("{label}/write_s"), task.write_time);
        m.push(
            format!("{label}/bytes_to_disk"),
            task.write_stats.bytes_to_disk,
        );
        let wb = report
            .writeback
            .ok_or_else(|| format!("{label} reported no writeback counters"))?;
        m.push(
            format!("{label}/synchronous_flushed"),
            wb.synchronous_flushed,
        );
        m.push(format!("{label}/background_flushed"), wb.background_flushed);
    }
    Ok(m)
}

/// A strided pass over `[0, file_size)`: `request` bytes every `stride`
/// bytes, each followed by a release of the anonymous copy so the cache —
/// not the application footprint — decides residency.
fn strided_pass(file: &str, file_size: f64, request: f64, stride: f64) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut offset = 0.0;
    while offset + request <= file_size {
        ops.push(Op::read_range(file, offset, request));
        ops.push(Op::ReleaseMemory(request));
        offset += stride;
    }
    ops
}

/// Two identical strided passes over a 2 GB file at strides of 1×, 2× and
/// 4× the 64 MB request size. This is the access-pattern divergence the
/// kernel emulator's resident ranges were built to expose: on the re-read
/// pass the emulator hits exactly the strided ranges it kept (hit ratio → 1
/// for the touched bytes), while the amount-based macroscopic model still
/// sees an half-uncached file and keeps going to disk. Readahead is on, so
/// the contiguous stride additionally reports prefetched bytes and the
/// sparse strides prove the window stays collapsed.
fn prog_strided_reads() -> Result<Metrics, String> {
    let file_size = 2.0 * GB;
    let request = 64.0 * MB;
    let mut m = Metrics::new();
    for factor in [1u32, 2, 4] {
        let mut ops = strided_pass("data", file_size, request, factor as f64 * request);
        ops.extend(strided_pass(
            "data",
            file_size,
            request,
            factor as f64 * request,
        ));
        let app = ApplicationSpec::new("prog-strided")
            .with_initial_file(FileSpec::new("data", file_size))
            .with_task(TaskSpec::program("strided passes", ops));
        let platform = scaled_platform(8.0 * GB).with_readahead(32.0 * MB, 256.0 * MB);
        for (label, kind) in [
            ("cache", SimulatorKind::PageCache),
            ("kernel_emu", SimulatorKind::KernelEmu),
        ] {
            let report = run(&platform, &app, kind, 1)?;
            let stats = report.run_stats();
            let prefix = format!("stride_{factor}/{label}");
            m.push(format!("{prefix}/read_s"), report.mean_total_read_time());
            m.push(format!("{prefix}/hit_ratio"), stats.cache_hit_ratio);
            m.push(format!("{prefix}/bytes_from_disk"), stats.bytes_from_disk);
            m.push(format!("{prefix}/bytes_prefetched"), stats.bytes_prefetched);
        }
    }
    Ok(m)
}

/// Sequential → random → sequential mode switches on one 3 GB file with
/// readahead enabled: the window grows over the first GB, collapses for 16
/// random mid-file reads, and regrows over the final GB. Gated on both the
/// macroscopic model (no readahead notion, prefetched stays 0) and the
/// emulator.
fn prog_seq_random_switch() -> Result<Metrics, String> {
    let file_size = 3.0 * GB;
    let request = 64.0 * MB;
    let mut ops = strided_pass("data", 1.0 * GB, request, request);
    let mut rng = XorShift::new(0xA11CE5);
    let mut prev_end = 1.0 * GB;
    for _ in 0..16 {
        // Random requests in the middle GB, re-drawn if one would continue
        // the previous request (that would legitimately count as
        // sequential).
        let mut offset;
        loop {
            offset = 1.0 * GB + (rng.next_f64() * (1.0 * GB - request) / MB).floor() * MB;
            if (offset - prev_end).abs() > 1.0 {
                break;
            }
        }
        ops.push(Op::read_range("data", offset, request));
        ops.push(Op::ReleaseMemory(request));
        prev_end = offset + request;
    }
    let tail_start = 2.0 * GB;
    let mut offset = tail_start;
    while offset + request <= file_size {
        ops.push(Op::read_range("data", offset, request));
        ops.push(Op::ReleaseMemory(request));
        offset += request;
    }
    let app = ApplicationSpec::new("prog-seq-random-switch")
        .with_initial_file(FileSpec::new("data", file_size))
        .with_task(TaskSpec::program("mode switches", ops));
    let platform = scaled_platform(8.0 * GB).with_readahead(32.0 * MB, 256.0 * MB);
    let mut m = Metrics::new();
    for (label, kind) in [
        ("cache", SimulatorKind::PageCache),
        ("kernel_emu", SimulatorKind::KernelEmu),
    ] {
        let report = run(&platform, &app, kind, 1)?;
        let stats = report.run_stats();
        m.push(format!("{label}/read_s"), report.mean_total_read_time());
        m.push(format!("{label}/hit_ratio"), stats.cache_hit_ratio);
        m.push(format!("{label}/bytes_from_disk"), stats.bytes_from_disk);
        m.push(format!("{label}/bytes_prefetched"), stats.bytes_prefetched);
    }
    Ok(m)
}

/// Six 300 MB write bursts with think time on a 4 GB host (background
/// threshold 400 MB, dirty threshold 800 MB): every burst straddles the
/// throttle band. Gated on the macroscopic model, the unpaced emulator, and
/// the emulator with `balance_dirty_pages` pacing — the paced writer
/// reports stall time and a lower dirty peak.
fn prog_write_burst_throttle() -> Result<Metrics, String> {
    let burst = 300.0 * MB;
    // Appending bursts: dirty data accumulates across bursts (a rewrite of
    // the same record would re-dirty in place and never reach the band).
    let mut ops = Vec::new();
    for i in 0..6 {
        ops.push(Op::write_range("log", i as f64 * burst, burst));
        ops.push(Op::compute(1.0));
    }
    let app = ApplicationSpec::new("prog-write-burst").with_task(TaskSpec::program("bursts", ops));
    let platform = scaled_platform(4.0 * GB);
    let mut m = Metrics::new();
    for (label, kind, pacing) in [
        ("cache", SimulatorKind::PageCache, 0.0),
        ("kernel_emu_unpaced", SimulatorKind::KernelEmu, 0.0),
        ("kernel_emu_paced", SimulatorKind::KernelEmu, 1.0),
    ] {
        let mut platform = platform.clone().with_throttle_pacing(pacing);
        // Let the background threads run inside the think-time gaps.
        platform.flush_interval = 0.5;
        let report = run(&platform, &app, kind, 1)?;
        let stats = report.run_stats();
        m.push(format!("{label}/write_s"), report.mean_total_write_time());
        m.push(format!("{label}/throttle_stall_s"), stats.throttle_stall_s);
        m.push(format!("{label}/peak_dirty"), stats.peak_dirty);
        m.push(format!("{label}/bytes_to_disk"), stats.bytes_to_disk);
        let wb = report
            .writeback
            .ok_or_else(|| format!("{label} reported no writeback counters"))?;
        m.push(
            format!("{label}/synchronous_flushed"),
            wb.synchronous_flushed,
        );
        m.push(format!("{label}/background_flushed"), wb.background_flushed);
    }
    Ok(m)
}

/// A sequential 2 GB scan followed by a re-read of the first 512 MB on the
/// kernel emulator, across readahead window sizes (0 = disabled). The
/// prefetched volume grows with the window while the total disk traffic of
/// the scan stays constant — readahead never reads a byte twice.
fn sweep_readahead_window() -> Result<Metrics, String> {
    let file_size = 2.0 * GB;
    let request = 64.0 * MB;
    let hot = 512.0 * MB;
    let mut ops = strided_pass("data", file_size, request, request);
    ops.extend(strided_pass("data", hot, request, request));
    let app = ApplicationSpec::new("sweep-readahead")
        .with_initial_file(FileSpec::new("data", file_size))
        .with_task(TaskSpec::program("scan + hot re-read", ops));
    let mut m = Metrics::new();
    for max_mb in [0u32, 64, 256, 1024] {
        let platform = if max_mb == 0 {
            scaled_platform(8.0 * GB)
        } else {
            scaled_platform(8.0 * GB).with_readahead(max_mb as f64 / 8.0 * MB, max_mb as f64 * MB)
        };
        let report = run(&platform, &app, SimulatorKind::KernelEmu, 1)?;
        let stats = report.run_stats();
        let prefix = format!("window_{max_mb:04}mb");
        m.push(format!("{prefix}/read_s"), report.mean_total_read_time());
        m.push(format!("{prefix}/bytes_prefetched"), stats.bytes_prefetched);
        m.push(format!("{prefix}/bytes_from_disk"), stats.bytes_from_disk);
        m.push(format!("{prefix}/hit_ratio"), stats.cache_hit_ratio);
    }
    Ok(m)
}

/// One sustained 1.5 GB write on a 4 GB host across pacing strengths: the
/// stall time grows with the pacing factor while the synchronously flushed
/// volume shrinks (stalled writers give the background threads time to
/// drain — the CAWL observation).
fn sweep_throttle_pacing() -> Result<Metrics, String> {
    let app = ApplicationSpec::new("sweep-pacing").with_task(TaskSpec::program(
        "sustained write",
        vec![Op::write_range("out", 0.0, 1536.0 * MB)],
    ));
    let points = [
        ("pacing_000", 0.0),
        ("pacing_050", 0.5),
        ("pacing_100", 1.0),
        ("pacing_200", 2.0),
    ];
    let mut m = Metrics::new();
    for (label, pacing) in points {
        let mut platform = scaled_platform(4.0 * GB).with_throttle_pacing(pacing);
        // A sub-second flusher wakeup, so the background threads actually
        // get to run inside the stalls the pacing creates (the paper-scale
        // 5 s interval would sleep through this whole workload).
        platform.flush_interval = 0.5;
        let report = run(&platform, &app, SimulatorKind::KernelEmu, 1)?;
        let stats = report.run_stats();
        let wb = report
            .writeback
            .ok_or_else(|| format!("{label} reported no writeback counters"))?;
        m.push(format!("{label}/write_s"), report.mean_total_write_time());
        m.push(format!("{label}/throttle_stall_s"), stats.throttle_stall_s);
        m.push(format!("{label}/peak_dirty"), stats.peak_dirty);
        m.push(
            format!("{label}/synchronous_flushed"),
            wb.synchronous_flushed,
        );
        m.push(format!("{label}/background_flushed"), wb.background_flushed);
    }
    Ok(m)
}

// ---------------------------------------------------------------------------
// Eviction-policy comparison sweeps
// ---------------------------------------------------------------------------

/// A hot 384 MB file re-read between scans of *fresh* 1.25 GB files (two
/// per round) on a 2 GB host — the classic scan-resistance workload. Each
/// round's eviction demand exceeds what the previous round left behind, so
/// a recency-only order reaches the hot file (touched once per round, older
/// than the in-flight scans) and flushes it every time. 2Q's ghost queue
/// recognises the re-insert and parks the hot file in the protected main
/// queue; the one-shot scans drain through A1in first — including the
/// current round's earlier scan file — so the hot set stays resident.
fn sweep_eviction_policy_reread() -> Result<Metrics, String> {
    let hot = 384.0 * MB;
    let scan = 1280.0 * MB;
    let request = 128.0 * MB;
    let rounds = 5usize;
    let mut ops = Vec::new();
    let mut app =
        ApplicationSpec::new("eviction-reread").with_initial_file(FileSpec::new("hot", hot));
    // Chunked requests with per-request releases, so the application
    // footprint never competes with the cache for residency.
    for i in 0..rounds {
        ops.extend(strided_pass("hot", hot, request, request));
        for half in ["a", "b"] {
            let scan_file = format!("scan_{i}{half}");
            ops.extend(strided_pass(&scan_file, scan, request, request));
            app = app.with_initial_file(FileSpec::new(scan_file, scan));
        }
    }
    app = app.with_task(TaskSpec::program("hot set between scans", ops));
    let mut m = Metrics::new();
    for policy in EvictionPolicy::ALL {
        let platform = scaled_platform(2.0 * GB).with_eviction_policy(policy);
        for (label, kind) in [
            ("cache", SimulatorKind::PageCache),
            ("kernel_emu", SimulatorKind::KernelEmu),
        ] {
            let report = run(&platform, &app, kind, 1)?;
            let stats = report.run_stats();
            let prefix = format!("{policy}/{label}");
            m.push(format!("{prefix}/hit_ratio"), stats.cache_hit_ratio);
            m.push(format!("{prefix}/read_s"), report.mean_total_read_time());
        }
    }
    Ok(m)
}

/// Two sequential 64 MB-request passes over a 2 GB file on a 1 GB host —
/// the sequential-flood pattern where a strict LRU order re-evicts every
/// block just before its re-read. How much of the second pass each policy
/// salvages (and at what disk traffic) is the gated spread.
fn sweep_eviction_policy_strided() -> Result<Metrics, String> {
    let file_size = 2.0 * GB;
    let request = 64.0 * MB;
    let mut ops = strided_pass("data", file_size, request, request);
    ops.extend(strided_pass("data", file_size, request, request));
    let app = ApplicationSpec::new("eviction-strided")
        .with_initial_file(FileSpec::new("data", file_size))
        .with_task(TaskSpec::program("two passes", ops));
    let mut m = Metrics::new();
    for policy in EvictionPolicy::ALL {
        let platform = scaled_platform(1.0 * GB).with_eviction_policy(policy);
        for (label, kind) in [
            ("cache", SimulatorKind::PageCache),
            ("kernel_emu", SimulatorKind::KernelEmu),
        ] {
            let report = run(&platform, &app, kind, 1)?;
            let stats = report.run_stats();
            let prefix = format!("{policy}/{label}");
            m.push(format!("{prefix}/hit_ratio"), stats.cache_hit_ratio);
            m.push(format!("{prefix}/read_s"), report.mean_total_read_time());
            m.push(format!("{prefix}/bytes_from_disk"), stats.bytes_from_disk);
        }
    }
    Ok(m)
}

/// The write-burst workload of `prog_write_burst_throttle` (six appending
/// 300 MB bursts straddling the dirty thresholds of a 4 GB host) across
/// replacement policies: write routing is a durability concern, so the
/// flushed volumes must stay (near) policy-independent while eviction of the
/// written-back pages differs.
fn sweep_eviction_policy_write_burst() -> Result<Metrics, String> {
    let burst = 300.0 * MB;
    let mut ops = Vec::new();
    for i in 0..6 {
        ops.push(Op::write_range("log", i as f64 * burst, burst));
        ops.push(Op::compute(1.0));
    }
    let app =
        ApplicationSpec::new("eviction-write-burst").with_task(TaskSpec::program("bursts", ops));
    let mut m = Metrics::new();
    for policy in EvictionPolicy::ALL {
        let mut platform = scaled_platform(4.0 * GB).with_eviction_policy(policy);
        // Let the background threads run inside the think-time gaps.
        platform.flush_interval = 0.5;
        for (label, kind) in [
            ("cache", SimulatorKind::PageCache),
            ("kernel_emu", SimulatorKind::KernelEmu),
        ] {
            let report = run(&platform, &app, kind, 1)?;
            let stats = report.run_stats();
            let prefix = format!("{policy}/{label}");
            m.push(format!("{prefix}/write_s"), report.mean_total_write_time());
            m.push(format!("{prefix}/peak_dirty"), stats.peak_dirty);
            m.push(format!("{prefix}/bytes_to_disk"), stats.bytes_to_disk);
        }
    }
    Ok(m)
}

/// The `examples/database_workload.rs` workload at harness scale.
fn example_database_workload() -> Result<Metrics, String> {
    let platform = uniform_platform(8.0 * GB);
    let app = ApplicationSpec::new("database").with_task(TaskSpec::program(
        "commit loop + checkpoint",
        vec![
            Op::repeat(
                32,
                vec![
                    Op::write_range("wal", 0.0, 16.0 * MB),
                    Op::fsync("wal"),
                    Op::compute(0.05),
                ],
            ),
            Op::write_range("table", 0.0, 512.0 * MB),
            Op::Sync,
        ],
    ));
    let mut m = Metrics::new();
    for (label, kind) in [
        ("cacheless", SimulatorKind::Cacheless),
        ("cache", SimulatorKind::PageCache),
        ("kernel_emu", SimulatorKind::KernelEmu),
    ] {
        let report = run(&platform, &app, kind, 1)?;
        let task = &report.instance_reports[0].tasks[0];
        m.push(format!("{label}/write_s"), task.write_time);
        m.push(format!("{label}/makespan_s"), report.mean_makespan());
        m.push(
            format!("{label}/bytes_to_disk"),
            task.write_stats.bytes_to_disk,
        );
    }
    Ok(m)
}

// ---------------------------------------------------------------------------
// Synthetic parameter sweeps
// ---------------------------------------------------------------------------

/// Write behaviour across dirty thresholds. The page-cache model reacts to
/// `dirty_ratio` (throttling), the kernel emulator additionally to
/// `dirty_background_ratio` (early background flushing) — both are gated.
fn sweep_dirty_ratio() -> Result<Metrics, String> {
    let app = ApplicationSpec::synthetic_pipeline(2.0 * GB);
    let mut m = Metrics::new();
    for ratio in [0.05, 0.1, 0.2, 0.4] {
        let platform = scaled_platform(8.0 * GB)
            .with_dirty_ratio(ratio)
            .with_dirty_background_ratio(ratio / 2.0);
        for (label, kind) in [
            ("cache", SimulatorKind::PageCache),
            ("kernel_emu", SimulatorKind::KernelEmu),
        ] {
            let report = run(&platform, &app, kind, 1)?;
            let stats = report.run_stats();
            let prefix = format!("ratio_{:02}/{label}", (ratio * 100.0) as u32);
            m.push(format!("{prefix}/write_s"), report.mean_total_write_time());
            m.push(format!("{prefix}/peak_dirty"), stats.peak_dirty);
            let wb = report
                .writeback
                .ok_or_else(|| format!("{label} reported no writeback counters"))?;
            m.push(
                format!("{prefix}/background_flushed"),
                wb.background_flushed,
            );
            m.push(
                format!("{prefix}/synchronous_flushed"),
                wb.synchronous_flushed,
            );
        }
    }
    Ok(m)
}

/// Cache effectiveness across host-memory sizes: as RAM shrinks below the
/// working set, the hit ratio and the makespan of the re-read pipeline
/// degrade towards the cacheless behaviour.
fn sweep_cache_size() -> Result<Metrics, String> {
    let app = ApplicationSpec::synthetic_pipeline(3.0 * GB);
    let mut m = Metrics::new();
    for memory_gb in [4.0, 8.0, 16.0, 32.0] {
        let platform = scaled_platform(memory_gb * GB);
        let report = run(&platform, &app, SimulatorKind::PageCache, 1)?;
        let prefix = format!("mem_{memory_gb:02.0}gb");
        m.push(format!("{prefix}/makespan_s"), report.mean_makespan());
        push_run_stats(&mut m, &prefix, &report.run_stats());
    }
    Ok(m)
}

/// Read/write mix: a two-task chain whose output volume is `mix` times its
/// input volume, from read-heavy (0.25) to write-heavy (4.0).
fn sweep_rw_mix() -> Result<Metrics, String> {
    let input_size = 2.0 * GB;
    let mut m = Metrics::new();
    for (label, mix) in [
        ("read_heavy", 0.25),
        ("balanced", 1.0),
        ("write_heavy", 4.0),
    ] {
        let input = FileSpec::new("input.dat", input_size);
        let mid = FileSpec::new("mid.dat", input_size * mix);
        let out = FileSpec::new("out.dat", input_size * mix);
        let app = ApplicationSpec::new("rw-mix")
            .with_initial_file(input.clone())
            .with_task(
                TaskSpec::new("stage 1", 1.0)
                    .reads(input)
                    .writes(mid.clone()),
            )
            .with_task(TaskSpec::new("stage 2", 1.0).reads(mid).writes(out));
        let report = run(
            &scaled_platform(8.0 * GB),
            &app,
            SimulatorKind::PageCache,
            1,
        )?;
        let stats = report.run_stats();
        m.push(format!("{label}/makespan_s"), report.mean_makespan());
        m.push(format!("{label}/read_s"), report.mean_total_read_time());
        m.push(format!("{label}/write_s"), report.mean_total_write_time());
        m.push(format!("{label}/bytes_to_cache"), stats.bytes_to_cache);
        m.push(format!("{label}/bytes_to_disk"), stats.bytes_to_disk);
    }
    Ok(m)
}

/// Contention across concurrent-instance counts, cacheless vs cached.
fn sweep_concurrency() -> Result<Metrics, String> {
    let platform = scaled_platform(16.0 * GB);
    let app = ApplicationSpec::synthetic_pipeline(1.0 * GB);
    let mut m = Metrics::new();
    for instances in [1usize, 2, 4, 8] {
        for (label, kind) in [
            ("cacheless", SimulatorKind::Cacheless),
            ("cache", SimulatorKind::PageCache),
        ] {
            let report = run(&platform, &app, kind, instances)?;
            m.push(
                format!("n{instances:02}/{label}/read_s"),
                report.mean_total_read_time(),
            );
            m.push(
                format!("n{instances:02}/{label}/write_s"),
                report.mean_total_write_time(),
            );
            m.push(
                format!("n{instances:02}/{label}/makespan_s"),
                report.mean_makespan(),
            );
        }
    }
    Ok(m)
}

// ---------------------------------------------------------------------------
// Fault-injection scenarios (crash durability, injected errors, retries)
// ---------------------------------------------------------------------------

/// Like [`run`], but with a fault plan attached (and optionally a restart
/// pass after the planned crash). Single instance, no memory sampling.
fn run_faulted(
    platform: &PlatformSpec,
    app: &ApplicationSpec,
    kind: SimulatorKind,
    plan: &FaultPlan,
    restart: bool,
) -> Result<ScenarioReport, String> {
    let mut scenario = WorkflowScenario::new(platform.clone(), app.clone(), kind)
        .with_faults(plan.clone())
        .with_sample_interval(None);
    if restart {
        scenario = scenario.with_restart_after_crash();
    }
    run_scenario(&scenario).map_err(err)
}

/// The database commit that never committed: a 200 MB WAL record is written
/// but power is lost before any fsync. The write-back caches lose the whole
/// record; the cacheless (synchronous) baseline keeps it.
fn fault_crash_before_fsync_database() -> Result<Metrics, String> {
    let app = ApplicationSpec::new("fault-before-fsync").with_task(TaskSpec::program(
        "commit",
        vec![Op::write_range("wal", 0.0, 200.0 * MB), Op::compute(100.0)],
    ));
    // The write completes well under a second; 2 s is long before both the
    // 30 s dirty-expiry flush and the background threshold (200 MB dirty on
    // an 8 GB host stays below dirty_background_ratio).
    let plan = FaultPlan::crash_at(2.0);
    let mut m = Metrics::new();
    for (label, kind) in [
        ("cacheless", SimulatorKind::Cacheless),
        ("cache", SimulatorKind::PageCache),
        ("kernel_emu", SimulatorKind::KernelEmu),
    ] {
        let report = run_faulted(&scaled_platform(8.0 * GB), &app, kind, &plan, false)?;
        let stats = report.run_stats();
        m.push(format!("{label}/durable_bytes"), stats.durable_bytes);
        m.push(format!("{label}/lost_bytes"), stats.lost_bytes);
        m.push(format!("{label}/lost_files"), stats.lost_files);
    }
    Ok(m)
}

/// The committed counterpart: the same 200 MB WAL record, but fsync'd before
/// the same power loss. Every back-end reports the record durable.
fn fault_crash_after_fsync_database() -> Result<Metrics, String> {
    let app = ApplicationSpec::new("fault-after-fsync").with_task(TaskSpec::program(
        "commit",
        vec![
            Op::write_range("wal", 0.0, 200.0 * MB),
            Op::fsync("wal"),
            Op::compute(100.0),
        ],
    ));
    let plan = FaultPlan::crash_at(2.0);
    let mut m = Metrics::new();
    for (label, kind) in [
        ("cacheless", SimulatorKind::Cacheless),
        ("cache", SimulatorKind::PageCache),
        ("kernel_emu", SimulatorKind::KernelEmu),
    ] {
        let report = run_faulted(&scaled_platform(8.0 * GB), &app, kind, &plan, false)?;
        let stats = report.run_stats();
        m.push(format!("{label}/durable_bytes"), stats.durable_bytes);
        m.push(format!("{label}/lost_bytes"), stats.lost_bytes);
        m.push(format!("{label}/lost_files"), stats.lost_files);
    }
    Ok(m)
}

/// A 1.2 GB write pushes past the background-writeback threshold, and the
/// crash lands while the flusher threads are mid-drain. The kernel emulator
/// keeps a durable prefix (its background threads flush over-threshold
/// dirty data early); the macroscopic model has no early background
/// flushing, so it legitimately loses the whole file — both are gated. The
/// scenario then restarts the application against the post-crash state and
/// gates that the restart pass completes.
fn fault_writeback_storm_crash() -> Result<Metrics, String> {
    let app = ApplicationSpec::new("fault-writeback-storm").with_task(TaskSpec::program(
        "burst",
        vec![Op::write_range("out", 0.0, 1200.0 * MB), Op::compute(200.0)],
    ));
    let plan = FaultPlan::crash_at(12.0);
    let mut m = Metrics::new();
    for (label, kind) in [
        ("cache", SimulatorKind::PageCache),
        ("kernel_emu", SimulatorKind::KernelEmu),
    ] {
        let report = run_faulted(&scaled_platform(8.0 * GB), &app, kind, &plan, true)?;
        let stats = report.run_stats();
        m.push(format!("{label}/durable_bytes"), stats.durable_bytes);
        m.push(format!("{label}/lost_bytes"), stats.lost_bytes);
        m.push(format!("{label}/lost_files"), stats.lost_files);
        let restart_completed = report
            .restart_reports
            .iter()
            .flat_map(|i| i.tasks.iter())
            .filter(|t| t.status.is_completed())
            .count() as f64;
        m.push(
            format!("{label}/restart_completed_tasks"),
            restart_completed,
        );
    }
    Ok(m)
}

/// A two-second NFS outage in the middle of a chunked transfer, ridden out
/// by a retrying task: every chunk that lands in the window backs off
/// exponentially until the server is reachable again.
fn fault_nfs_outage_retry_storm() -> Result<Metrics, String> {
    let chunk = 32.0 * MB;
    let mut ops = vec![Op::read("in")];
    for i in 0..16 {
        ops.push(Op::write_range("out", i as f64 * chunk, chunk));
    }
    ops.push(Op::fsync("out"));
    let app = ApplicationSpec::new("fault-nfs-outage")
        .with_initial_file(FileSpec::new("in", 256.0 * MB))
        .with_task(TaskSpec::program("chunked transfer", ops).with_retry(RetryPolicy::new(6, 0.5)));
    let plan = FaultPlan::none().with_event(FaultEvent::NfsOutage {
        at: 0.5,
        duration: 2.0,
    });
    let platform = scaled_platform(8.0 * GB).with_nfs();
    let mut m = Metrics::new();
    for (label, kind) in [
        ("cacheless", SimulatorKind::Cacheless),
        ("cache", SimulatorKind::PageCache),
    ] {
        let report = run_faulted(&platform, &app, kind, &plan, false)?;
        m.push(format!("{label}/retries"), report.total_retries() as f64);
        m.push(format!("{label}/write_s"), report.mean_total_write_time());
        m.push(format!("{label}/makespan_s"), report.mean_makespan());
    }
    Ok(m)
}

/// A persistent EIO pinned to one output file: its task fails, the two
/// independent siblings still complete, and the run finishes degraded
/// instead of aborting.
fn fault_eio_degraded() -> Result<Metrics, String> {
    let mut app =
        ApplicationSpec::new("fault-eio").with_initial_file(FileSpec::new("in", 256.0 * MB));
    for i in 1..=3 {
        app = app.with_task(TaskSpec::program(
            format!("t{i}"),
            vec![Op::read("in"), Op::write(format!("out{i}"), 128.0 * MB)],
        ));
    }
    let plan = FaultPlan::none().with_event(FaultEvent::IoError(
        IoErrorSpec::at(OpClass::Write, 0.0, ErrorMode::Persistent).on_file("out2"),
    ));
    let mut m = Metrics::new();
    for (label, kind) in [
        ("cache", SimulatorKind::PageCache),
        ("kernel_emu", SimulatorKind::KernelEmu),
    ] {
        let report = run_faulted(&scaled_platform(8.0 * GB), &app, kind, &plan, false)?;
        let stats = report.run_stats();
        m.push(
            format!("{label}/failed_tasks"),
            report.failed_tasks().len() as f64,
        );
        m.push(format!("{label}/bytes_to_cache"), stats.bytes_to_cache);
        m.push(format!("{label}/makespan_s"), report.mean_makespan());
    }
    Ok(m)
}

/// One transient error on the first WAL write, swept across backoff
/// strengths: the retry count stays at one while the recovery delay — and
/// with it the write time — grows with the backoff.
fn fault_retry_backoff_sweep() -> Result<Metrics, String> {
    let plan = FaultPlan::none().with_event(FaultEvent::IoError(IoErrorSpec::nth(
        OpClass::Write,
        1,
        ErrorMode::Transient,
    )));
    let mut m = Metrics::new();
    for (label, backoff) in [
        ("backoff_025", 0.25),
        ("backoff_100", 1.0),
        ("backoff_400", 4.0),
    ] {
        let app = ApplicationSpec::new("fault-backoff").with_task(
            TaskSpec::program(
                "commit",
                vec![Op::write_range("wal", 0.0, 64.0 * MB), Op::fsync("wal")],
            )
            .with_retry(RetryPolicy::new(4, backoff)),
        );
        let report = run_faulted(
            &scaled_platform(8.0 * GB),
            &app,
            SimulatorKind::PageCache,
            &plan,
            false,
        )?;
        m.push(format!("{label}/retries"), report.total_retries() as f64);
        m.push(format!("{label}/write_s"), report.mean_total_write_time());
        m.push(format!("{label}/makespan_s"), report.mean_makespan());
    }
    Ok(m)
}

// ---------------------------------------------------------------------------
// Network-tier fault scenarios (replicated storage fleet)
// ---------------------------------------------------------------------------

/// Runs an application against the replicated storage fleet under a fault
/// plan, with one application instance per fleet client.
fn run_fleet(
    platform: &PlatformSpec,
    app: &ApplicationSpec,
    plan: &FaultPlan,
    instances: usize,
) -> Result<ScenarioReport, String> {
    let mut scenario =
        WorkflowScenario::new(platform.clone(), app.clone(), SimulatorKind::PageCache)
            .with_faults(plan.clone())
            .with_sample_interval(None);
    if instances > 1 {
        scenario = scenario.with_instances(instances).map_err(err)?;
    }
    run_scenario(&scenario).map_err(err)
}

/// Records the network-tier counters of a fleet report under a prefix.
fn push_net_stats(m: &mut Metrics, prefix: &str, report: &ScenarioReport) {
    let net = report.net.clone().unwrap_or_default();
    m.push(format!("{prefix}/stale_reads"), net.stale_reads);
    m.push(format!("{prefix}/hedged_reads"), net.hedged_reads);
    m.push(format!("{prefix}/failed_reads"), net.failed_reads);
    m.push(format!("{prefix}/failed_writes"), net.failed_writes);
    m.push(format!("{prefix}/net_retries"), net.net_retries);
    m.push(format!("{prefix}/failovers"), net.failovers);
}

/// Six clients stampede on one hot shared file while a partition cuts three
/// of them off from every server for a finite window. The cut clients ride
/// the window out with timeout + backoff, then stampede the primary when it
/// heals; nobody fails.
fn netf_partition_stampede() -> Result<Metrics, String> {
    let policy = ClientPolicy::default()
        .with_timeout(4.0)
        .with_retry(RetryPolicy::new(8, 0.5));
    let platform = scaled_platform(8.0 * GB)
        .with_chunk_size(32.0 * MB)
        .with_fleet(FleetSpec::new(6, 3, 2).with_policy(policy));
    let app = ApplicationSpec::new("netf-stampede")
        .with_initial_file(FileSpec::new("shared/hot", 512.0 * MB))
        .with_task(TaskSpec::program(
            "stampede",
            vec![Op::read("shared/hot"), Op::read("shared/hot")],
        ));
    let plan = FaultPlan::none().with_event(FaultEvent::Partition {
        groups: vec![
            (0..3).map(|i| format!("client{i:02}")).collect(),
            (0..3).map(server_host).collect(),
        ],
        at: 0.5,
        duration: 6.0,
    });
    let report = run_fleet(&platform, &app, &plan, 6)?;
    let mut m = Metrics::new();
    push_run_stats(&mut m, "fleet", &report.run_stats());
    push_net_stats(&mut m, "fleet", &report);
    m.push("fleet/failed_tasks", report.failed_tasks().len() as f64);
    m.push("fleet/makespan_s", report.mean_makespan());
    Ok(m)
}

/// Four clients each push a 256 MB file (write-back: the servers buffer it
/// dirty) and read it back; the primary of the first client's file crashes
/// mid-storm. Writes to the dead replica surface in the net report, reads
/// fail over to the surviving replica, and the durability oracle records
/// what the dead server's disk retained.
fn netf_server_crash_failover() -> Result<Metrics, String> {
    let platform = scaled_platform(8.0 * GB)
        .with_chunk_size(32.0 * MB)
        .with_fleet(FleetSpec::new(4, 3, 2));
    let app = ApplicationSpec::new("netf-crash").with_task(TaskSpec::program(
        "store-and-check",
        vec![Op::write("out", 256.0 * MB), Op::read("out")],
    ));
    let victim = server_host(primary_server(3, "i00_out"));
    let plan = FaultPlan::none().with_event(FaultEvent::ServerCrash {
        host: victim,
        at: 0.2,
    });
    let report = run_fleet(&platform, &app, &plan, 4)?;
    let net = report.net.clone().unwrap_or_default();
    let mut m = Metrics::new();
    push_run_stats(&mut m, "fleet", &report.run_stats());
    push_net_stats(&mut m, "fleet", &report);
    m.push("fleet/server_crashes", net.server_crashes.len() as f64);
    m.push(
        "fleet/crashed_durable_bytes",
        net.server_crashes
            .iter()
            .map(|(_, r)| r.durable_bytes())
            .sum(),
    );
    m.push(
        "fleet/crashed_lost_bytes",
        net.server_crashes.iter().map(|(_, r)| r.lost_bytes()).sum(),
    );
    m.push("fleet/failed_tasks", report.failed_tasks().len() as f64);
    m.push("fleet/makespan_s", report.mean_makespan());
    Ok(m)
}

/// Replication 1 (no failover possible): the only path to each file flaps
/// down and up three times. Timeout + exponential backoff absorb every
/// outage window — a retry storm, but zero failures.
fn netf_flapping_link_retry_storm() -> Result<Metrics, String> {
    let policy = ClientPolicy::default()
        .with_timeout(3.0)
        .with_retry(RetryPolicy::new(8, 0.5));
    let platform = scaled_platform(8.0 * GB)
        .with_chunk_size(32.0 * MB)
        .with_fleet(FleetSpec::new(4, 2, 1).with_policy(policy));
    let app = ApplicationSpec::new("netf-flapping")
        .with_initial_file(FileSpec::new("in", 256.0 * MB))
        .with_task(TaskSpec::program(
            "pass",
            vec![Op::read("in"), Op::write("out", 128.0 * MB)],
        ));
    let mut plan = FaultPlan::none();
    for server in 0..2 {
        for flap in 0..3 {
            plan = plan.with_event(FaultEvent::LinkDown {
                link: server_link(server),
                at: 0.3 + 2.5 * f64::from(flap),
                duration: 0.8,
            });
        }
    }
    let report = run_fleet(&platform, &app, &plan, 4)?;
    let mut m = Metrics::new();
    push_run_stats(&mut m, "fleet", &report.run_stats());
    push_net_stats(&mut m, "fleet", &report);
    m.push("fleet/failed_tasks", report.failed_tasks().len() as f64);
    m.push("fleet/makespan_s", report.mean_makespan());
    Ok(m)
}

// ---------------------------------------------------------------------------
// Traffic tier: load generation, latency percentiles, tenancy
// ---------------------------------------------------------------------------

/// Records one traffic generator's report under a prefix.
fn push_traffic_stats(m: &mut Metrics, prefix: &str, gen: &TrafficGenReport) {
    m.push(format!("{prefix}/completed"), gen.completed as f64);
    m.push(format!("{prefix}/failed"), gen.failed as f64);
    m.push(format!("{prefix}/throughput_rps"), gen.throughput_rps);
    m.push(format!("{prefix}/read_p50_s"), gen.read_latency.p50);
    m.push(format!("{prefix}/read_p99_s"), gen.read_latency.p99);
    m.push(format!("{prefix}/read_p999_s"), gen.read_latency.p999);
    m.push(format!("{prefix}/write_p99_s"), gen.write_latency.p99);
    m.push(format!("{prefix}/mean_in_flight"), gen.mean_in_flight);
    m.push(
        format!("{prefix}/peak_in_flight"),
        gen.peak_in_flight as f64,
    );
    m.push(format!("{prefix}/cache_hit_ratio"), gen.cache_hit_ratio);
    m.push(format!("{prefix}/limit_evicted"), gen.limit_evicted);
    m.push(format!("{prefix}/limit_flushed"), gen.limit_flushed);
}

/// Runs a traffic-only scenario (no application tasks) and returns its
/// traffic report.
fn run_traffic(
    platform: &PlatformSpec,
    kind: SimulatorKind,
    specs: Vec<TrafficSpec>,
) -> Result<workflow::TrafficReport, String> {
    let scenario = WorkflowScenario::new(platform.clone(), ApplicationSpec::new("traffic"), kind)
        .with_sample_interval(None)
        .with_traffic(specs);
    let report = run_scenario(&scenario).map_err(err)?;
    report
        .traffic
        .ok_or_else(|| "no traffic report".to_string())
}

fn traffic_gen<'a>(
    report: &'a workflow::TrafficReport,
    name: &str,
) -> Result<&'a TrafficGenReport, String> {
    report
        .generator(name)
        .ok_or_else(|| format!("generator {name} missing"))
}

/// A steady-state Zipf(1) content server: open-loop Poisson arrivals over a
/// small hot catalog, on both cached back-ends. The hot set fits in memory,
/// so most reads are cache hits and the p50/p99 split shows the
/// hit-vs-miss bimodality.
fn traffic_zipf_steady_state() -> Result<Metrics, String> {
    let platform = scaled_platform(8.0 * GB);
    let mut m = Metrics::new();
    for (label, kind) in [
        ("cache", SimulatorKind::PageCache),
        ("kernel_emu", SimulatorKind::KernelEmu),
    ] {
        let spec = TrafficSpec::open("steady", 400.0, 600)
            .with_catalog(32, 8.0 * MB)
            .with_request_bytes(1.0 * MB)
            .with_zipf(1.0)
            .with_read_fraction(0.9)
            .with_seed(42);
        let report = run_traffic(&platform, kind, vec![spec])?;
        push_traffic_stats(&mut m, label, traffic_gen(&report, "steady")?);
    }
    Ok(m)
}

/// The same request stream issued open- vs closed-loop against a device that
/// cannot keep up. The open loop keeps arriving at its target rate, so
/// queueing delay compounds into the tail percentiles and in-flight
/// concurrency climbs; the closed loop's eight clients self-throttle.
fn traffic_open_vs_closed_saturation() -> Result<Metrics, String> {
    let platform = scaled_platform(8.0 * GB);
    let mut m = Metrics::new();
    let open = TrafficSpec::open("open", 1200.0, 500)
        .with_catalog(128, 32.0 * MB)
        .with_request_bytes(4.0 * MB)
        .with_zipf(0.6)
        .with_read_fraction(0.8)
        .with_seed(17);
    let closed = TrafficSpec::closed("closed", 8, 0.0, 500)
        .with_catalog(128, 32.0 * MB)
        .with_request_bytes(4.0 * MB)
        .with_zipf(0.6)
        .with_read_fraction(0.8)
        .with_seed(17);
    let report = run_traffic(&platform, SimulatorKind::PageCache, vec![open])?;
    push_traffic_stats(&mut m, "open", traffic_gen(&report, "open")?);
    let report = run_traffic(&platform, SimulatorKind::PageCache, vec![closed])?;
    push_traffic_stats(&mut m, "closed", traffic_gen(&report, "closed")?);
    Ok(m)
}

/// One tenant, two cache limits. With a limit comfortably above the Zipf
/// hot set the server runs from memory; shrinking the limit below the hot
/// set forces continuous eviction and every displaced hit back to disk —
/// read p99 strictly degrades (the acceptance criterion of the traffic
/// tier).
fn traffic_cache_pressure_tail_latency() -> Result<Metrics, String> {
    let platform = scaled_platform(8.0 * GB);
    let mut m = Metrics::new();
    for (label, cap) in [("fits", 1.0 * GB), ("exceeds", 24.0 * MB)] {
        let spec = TrafficSpec::open("pressured", 300.0, 1200)
            .with_catalog(8, 8.0 * MB)
            .with_request_bytes(1.0 * MB)
            .with_zipf(1.1)
            .with_read_fraction(0.95)
            .with_seed(23)
            .with_warmup(300)
            .with_tenant(TenantSpec::capped(cap));
        let report = run_traffic(&platform, SimulatorKind::PageCache, vec![spec])?;
        push_traffic_stats(&mut m, label, traffic_gen(&report, "pressured")?);
    }
    Ok(m)
}

/// A latency-sensitive logger ("victim") sharing a 512 MB host with a bulk
/// ingest stream ("hog"). Unlimited, the hog's dirty pages climb to the
/// host's `dirty_ratio` threshold and *every* writer — the victim included —
/// stalls in synchronous writeback. Capping the hog's cache group
/// (memcg-style `max_dirty_bytes`) keeps global dirty below the threshold,
/// and the victim's write p99 recovers to cache speed.
fn traffic_noisy_neighbor_isolation() -> Result<Metrics, String> {
    let platform = scaled_platform(0.5 * GB);
    let mut m = Metrics::new();
    for (label, isolated) in [("shared", false), ("isolated", true)] {
        let victim = TrafficSpec::closed("victim", 4, 0.005, 1500)
            .with_catalog(8, 4.0 * MB)
            .with_request_bytes(1.0 * MB)
            .with_zipf(1.0)
            .with_read_fraction(0.0)
            .with_seed(31)
            .with_warmup(200);
        // The hog is a bounded closed loop: its in-flight footprint (8 × 8
        // MB) stays within the cap's headroom, so the isolated leg's limit
        // can actually contain it.
        let mut hog = TrafficSpec::closed("hog", 8, 0.0, 600)
            .with_catalog(48, 64.0 * MB)
            .with_request_bytes(8.0 * MB)
            .with_zipf(0.0)
            .with_read_fraction(0.0)
            .with_seed(32);
        if isolated {
            hog = hog.with_tenant(TenantSpec {
                max_cache_bytes: 192.0 * MB,
                max_dirty_bytes: 48.0 * MB,
            });
        }
        let report = run_traffic(&platform, SimulatorKind::PageCache, vec![victim, hog])?;
        push_traffic_stats(
            &mut m,
            &format!("{label}/victim"),
            traffic_gen(&report, "victim")?,
        );
        push_traffic_stats(
            &mut m,
            &format!("{label}/hog"),
            traffic_gen(&report, "hog")?,
        );
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_unique_names_and_covers_all_groups() {
        let scenarios = registry();
        assert!(
            scenarios.len() >= 13,
            "need >= 13 scenarios, have {}",
            scenarios.len()
        );
        let names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len(), "duplicate scenario names");
        for group in [
            "paper",
            "paper_scale",
            "examples",
            "sweep",
            "programs",
            "eviction",
            "faults",
            "net_faults",
            "traffic",
        ] {
            assert!(
                scenarios.iter().any(|s| s.group == group),
                "no scenario in group {group}"
            );
        }
        // Ten paper artefacts, their seven figures again at the paper's
        // scale, at least three synthetic sweeps, at least four
        // workload-program scenarios, and at least five fault-injection
        // scenarios, per the acceptance criteria.
        assert_eq!(scenarios.iter().filter(|s| s.group == "paper").count(), 10);
        assert_eq!(
            scenarios
                .iter()
                .filter(|s| s.group == "paper_scale")
                .count(),
            7
        );
        assert!(scenarios.iter().filter(|s| s.group == "sweep").count() >= 3);
        assert!(scenarios.iter().filter(|s| s.group == "programs").count() >= 4);
        assert!(scenarios.iter().filter(|s| s.group == "faults").count() >= 5);
        assert!(scenarios.iter().filter(|s| s.group == "eviction").count() >= 3);
        assert!(scenarios.iter().filter(|s| s.group == "net_faults").count() >= 3);
        assert!(scenarios.iter().filter(|s| s.group == "traffic").count() >= 3);
        assert!(scenarios.iter().all(|s| !s.description.is_empty()));
    }

    #[test]
    fn cache_pressure_strictly_degrades_read_tail_latency() {
        let m = traffic_cache_pressure_tail_latency().unwrap();
        // The acceptance criterion of the traffic tier: when the Zipf hot
        // set exceeds the tenant's cache limit, read p99 strictly degrades.
        let fits = metric(&m, "fits/read_p99_s");
        let exceeds = metric(&m, "exceeds/read_p99_s");
        assert!(
            exceeds > fits,
            "p99 under pressure ({exceeds}) must exceed the fitting leg ({fits})"
        );
        assert!(metric(&m, "exceeds/limit_evicted") > 0.0);
        assert!(metric(&m, "exceeds/cache_hit_ratio") < metric(&m, "fits/cache_hit_ratio"));
        assert_eq!(metric(&m, "fits/failed"), 0.0);
        assert_eq!(metric(&m, "exceeds/failed"), 0.0);
    }

    #[test]
    fn isolation_improves_the_victims_tail_latency() {
        let m = traffic_noisy_neighbor_isolation().unwrap();
        // The noisy-neighbor criterion: capping the hog's cache group must
        // strictly improve the isolated victim's write p99 (the uncapped
        // hog drives global dirty to the throttle threshold and stalls it).
        let shared = metric(&m, "shared/victim/write_p99_s");
        let isolated = metric(&m, "isolated/victim/write_p99_s");
        assert!(
            isolated < shared,
            "victim p99 with isolation ({isolated}) must beat without ({shared})"
        );
        assert!(
            metric(&m, "isolated/victim/throughput_rps")
                > metric(&m, "shared/victim/throughput_rps")
        );
        // The cap actually bit: the hog's dirty pages were flushed by limit
        // enforcement, and only in the isolated leg.
        assert!(metric(&m, "isolated/hog/limit_flushed") > 0.0);
        assert_eq!(metric(&m, "shared/hog/limit_flushed"), 0.0);
        assert_eq!(metric(&m, "shared/hog/limit_evicted"), 0.0);
    }

    #[test]
    fn open_loop_piles_queueing_into_the_tail_closed_loop_self_throttles() {
        let m = traffic_open_vs_closed_saturation().unwrap();
        // Past saturation the open loop's in-flight count climbs far beyond
        // the closed loop's 8 clients, and queueing delay shows up in its
        // tail.
        assert!(metric(&m, "open/peak_in_flight") > 8.0);
        assert!(metric(&m, "closed/peak_in_flight") <= 8.0);
        assert!(metric(&m, "open/read_p99_s") > metric(&m, "closed/read_p99_s"));
        assert_eq!(metric(&m, "open/completed"), 500.0);
        assert_eq!(metric(&m, "closed/completed"), 500.0);
    }

    #[test]
    fn steady_state_zipf_serving_mostly_hits_on_both_backends() {
        let m = traffic_zipf_steady_state().unwrap();
        for backend in ["cache", "kernel_emu"] {
            assert_eq!(metric(&m, &format!("{backend}/completed")), 600.0);
            assert!(
                metric(&m, &format!("{backend}/cache_hit_ratio")) > 0.5,
                "{backend}: the in-memory hot set should serve most reads"
            );
            assert!(
                metric(&m, &format!("{backend}/read_p99_s"))
                    >= metric(&m, &format!("{backend}/read_p50_s"))
            );
        }
    }

    #[test]
    fn never_healing_partition_completes_degraded() {
        // The acceptance criterion of the network tier: cut the clients off
        // from every server forever and the run must still terminate — no
        // hang, no panic — with the affected tasks failed degraded.
        let platform = scaled_platform(8.0 * GB).with_fleet(FleetSpec::new(2, 2, 1));
        let app = ApplicationSpec::new("netf-forever")
            .with_initial_file(FileSpec::new("shared/hot", 128.0 * MB))
            .with_task(TaskSpec::program("reader", vec![Op::read("shared/hot")]));
        let plan = FaultPlan::none().with_event(FaultEvent::Partition {
            groups: vec![
                vec!["client00".into(), "client01".into()],
                vec![server_host(0), server_host(1)],
            ],
            at: 0.0,
            duration: f64::INFINITY,
        });
        let report = run_fleet(&platform, &app, &plan, 2).unwrap();
        assert!(report.simulated_duration.is_finite());
        assert_eq!(report.failed_tasks().len(), 2);
        assert!(report.net.as_ref().unwrap().failed_reads >= 2.0);
    }

    #[test]
    fn stampede_retries_through_the_partition_window() {
        let m = netf_partition_stampede().unwrap();
        // The cut clients must have retried (the window forces backoff) and
        // nobody may fail: the finite partition heals before the retry
        // budget runs out.
        assert!(metric(&m, "fleet/net_retries") > 0.0);
        assert_eq!(metric(&m, "fleet/failed_tasks"), 0.0);
    }

    #[test]
    fn crashed_primary_surfaces_failed_writes_and_failovers() {
        let m = netf_server_crash_failover().unwrap();
        assert_eq!(metric(&m, "fleet/server_crashes"), 1.0);
        // The crash happens mid-storm: later writes to the dead replica are
        // surfaced, and at least one read fails over to a survivor.
        assert!(metric(&m, "fleet/failed_writes") > 0.0);
        assert!(metric(&m, "fleet/failovers") > 0.0);
        assert_eq!(metric(&m, "fleet/failed_tasks"), 0.0);
    }

    #[test]
    fn flapping_links_cause_retries_but_no_failures() {
        let m = netf_flapping_link_retry_storm().unwrap();
        assert!(metric(&m, "fleet/net_retries") > 0.0);
        assert_eq!(metric(&m, "fleet/failed_tasks"), 0.0);
        assert_eq!(metric(&m, "fleet/failed_reads"), 0.0);
    }

    #[test]
    fn two_q_beats_two_list_on_the_scan_resistance_workload() {
        let m = sweep_eviction_policy_reread().unwrap();
        // The hot set survives the one-shot scans only under 2Q's ghost
        // queue: its hit ratio must be strictly higher than the 2-list
        // baseline on both the macroscopic model and the kernel emulator
        // (the policy-dependent ordering of the acceptance criteria).
        for backend in ["cache", "kernel_emu"] {
            let two_q = metric(&m, &format!("two_q/{backend}/hit_ratio"));
            let two_list = metric(&m, &format!("two_list/{backend}/hit_ratio"));
            assert!(
                two_q > two_list + 0.02,
                "{backend}: expected 2Q ({two_q}) to clearly beat 2-list ({two_list})"
            );
        }
    }

    #[test]
    fn tables_produce_reference_values() {
        let m = table1().unwrap();
        assert_eq!(m.len(), 5);
        let m = table3().unwrap();
        assert!(m
            .entries()
            .iter()
            .any(|(k, v)| k == "measured/memory_read_mbps" && *v == 6860.0));
    }

    fn metric(m: &Metrics, name: &str) -> f64 {
        m.entries()
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("metric {name} missing"))
    }

    #[test]
    fn strided_rereads_diverge_between_model_and_emulator() {
        let m = prog_strided_reads().unwrap();
        // On sparse strided re-reads the emulator's resident ranges hit
        // while the amount-based model keeps reading disk: the emulator hit
        // ratio must be *strictly* higher (the acceptance criterion of the
        // readahead/throttling PR).
        for stride in [2, 4] {
            let emu = metric(&m, &format!("stride_{stride}/kernel_emu/hit_ratio"));
            let model = metric(&m, &format!("stride_{stride}/cache/hit_ratio"));
            assert!(
                emu > model + 0.05,
                "stride {stride}: emulator {emu} vs model {model}"
            );
            // Sparse strides collapse the window after the fresh-stream
            // request at offset 0: at most the one-shot initial window
            // (32 MB) is ever speculated.
            assert!(
                metric(&m, &format!("stride_{stride}/kernel_emu/bytes_prefetched"))
                    <= 32.0 * MB + 1.0
            );
        }
        // The contiguous stride is sequential: readahead fires throughout.
        assert!(metric(&m, "stride_1/kernel_emu/bytes_prefetched") > 500.0 * MB);
        // The macroscopic model has no readahead notion at any stride.
        assert_eq!(metric(&m, "stride_1/cache/bytes_prefetched"), 0.0);
    }

    #[test]
    fn pacing_sweep_shows_stalls_and_less_synchronous_writeback() {
        let m = sweep_throttle_pacing().unwrap();
        // Every configuration stalls the writer: unpaced only in the hard
        // leg (synchronous writeback at the dirty threshold), paced also in
        // the band.
        for label in ["pacing_000", "pacing_050", "pacing_100", "pacing_200"] {
            assert!(metric(&m, &format!("{label}/throttle_stall_s")) > 0.0);
        }
        // The CAWL effect: stalled writers hand the work to the background
        // threads, so the synchronously flushed volume falls monotonically
        // with the pacing strength (and the background volume rises).
        let sync: Vec<f64> = ["pacing_000", "pacing_050", "pacing_100", "pacing_200"]
            .iter()
            .map(|l| metric(&m, &format!("{l}/synchronous_flushed")))
            .collect();
        assert!(
            sync.windows(2).all(|w| w[1] < w[0]),
            "synchronous flushing not monotonically decreasing: {sync:?}"
        );
        assert!(
            metric(&m, "pacing_200/background_flushed")
                > metric(&m, "pacing_000/background_flushed")
        );
    }

    #[test]
    fn crash_scenarios_respect_fsync_durability() {
        // Before the fsync the write-back caches lose the whole 200 MB
        // record; after it everything survives on every back-end.
        let before = fault_crash_before_fsync_database().unwrap();
        for label in ["cache", "kernel_emu"] {
            assert!(metric(&before, &format!("{label}/lost_bytes")) > 199.0 * MB);
            assert_eq!(metric(&before, &format!("{label}/lost_files")), 1.0);
        }
        assert_eq!(metric(&before, "cacheless/lost_bytes"), 0.0);
        let after = fault_crash_after_fsync_database().unwrap();
        for label in ["cacheless", "cache", "kernel_emu"] {
            assert_eq!(metric(&after, &format!("{label}/lost_bytes")), 0.0);
            assert!(metric(&after, &format!("{label}/durable_bytes")) > 199.0 * MB);
        }
    }

    #[test]
    fn nfs_outage_scenario_actually_retries() {
        let m = fault_nfs_outage_retry_storm().unwrap();
        for label in ["cacheless", "cache"] {
            assert!(
                metric(&m, &format!("{label}/retries")) >= 1.0,
                "{label}: the outage window should force at least one retry"
            );
        }
    }

    #[test]
    fn quickstart_scenario_shows_the_cache_hit() {
        let m = example_quickstart().unwrap();
        let get = |name: &str| {
            m.entries()
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        // The cached second read is a full cache hit and much faster.
        assert_eq!(get("cache/second_read_hit_ratio"), 1.0);
        assert!(get("cache/second_read_s") < 0.5 * get("cacheless/second_read_s"));
    }
}
