//! Result types produced by scenario runs.

use des::EngineStats;
use pagecache::{CacheContentSnapshot, CacheCounters, CacheWork, IoOpStats, MemoryTrace};

use crate::backend::SimulatorKind;
use crate::faults::{CrashReport, InjectedFault};
use crate::net::NetReport;

/// How a task ended.
///
/// Injected faults (see [`crate::faults`]) can fail a task without aborting
/// the whole scenario: a task that exhausts its retry budget on a transient
/// error, or hits a persistent one, is marked [`TaskStatus::Failed`] and the
/// run continues in degraded mode with the remaining tasks. A simulated
/// power loss marks the task it interrupted as [`TaskStatus::Interrupted`].
#[derive(Debug, Clone, Default, PartialEq)]
pub enum TaskStatus {
    /// The task ran all its operations to completion.
    #[default]
    Completed,
    /// The task was abandoned after an injected I/O error that retries
    /// could not absorb. The payload is the fault that killed it.
    Failed(InjectedFault),
    /// A simulated crash (power loss) cut the task short.
    Interrupted,
}

impl TaskStatus {
    /// `true` when the task ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, TaskStatus::Completed)
    }
}

/// Timing of one task of one application instance.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskReport {
    /// Task name.
    pub task_name: String,
    /// Time spent reading input files, seconds.
    pub read_time: f64,
    /// Time spent computing, seconds.
    pub compute_time: f64,
    /// Time spent writing output files, seconds.
    pub write_time: f64,
    /// Aggregated statistics of the input reads.
    pub read_stats: IoOpStats,
    /// Aggregated statistics of the output writes.
    pub write_stats: IoOpStats,
    /// How the task ended (always [`TaskStatus::Completed`] without faults).
    pub status: TaskStatus,
    /// Number of retried operations (attempts beyond each op's first).
    pub retries: u64,
}

impl TaskReport {
    /// Total task duration (read + compute + write).
    pub fn total_time(&self) -> f64 {
        self.read_time + self.compute_time + self.write_time
    }
}

/// Timings of one application instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceReport {
    /// Index of the instance (0-based).
    pub instance: usize,
    /// Per-task reports, in execution order.
    pub tasks: Vec<TaskReport>,
}

impl InstanceReport {
    /// Cumulative read time across all tasks of the instance.
    pub fn total_read_time(&self) -> f64 {
        self.tasks.iter().map(|t| t.read_time).sum()
    }

    /// Cumulative write time across all tasks of the instance.
    pub fn total_write_time(&self) -> f64 {
        self.tasks.iter().map(|t| t.write_time).sum()
    }

    /// Cumulative compute time across all tasks of the instance.
    pub fn total_compute_time(&self) -> f64 {
        self.tasks.iter().map(|t| t.compute_time).sum()
    }

    /// End-to-end duration of the instance.
    pub fn makespan(&self) -> f64 {
        self.tasks.iter().map(TaskReport::total_time).sum()
    }
}

/// Aggregated per-run statistics of a scenario: the numbers the sweep
/// harness records in `RESULTS.json` next to the simulated times.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Bytes read from disk, summed over every task of every instance.
    pub bytes_from_disk: f64,
    /// Bytes read from the page cache.
    pub bytes_from_cache: f64,
    /// Bytes written into the page cache.
    pub bytes_to_cache: f64,
    /// Bytes written synchronously to disk.
    pub bytes_to_disk: f64,
    /// Fraction of all read bytes served from the cache.
    pub cache_hit_ratio: f64,
    /// Bytes read from disk ahead of demand by the kernel emulator's
    /// readahead model (a subset of `bytes_from_disk`; 0 on back-ends
    /// without readahead or with readahead disabled).
    pub bytes_prefetched: f64,
    /// Seconds writers spent blocked in dirty-page throttling
    /// (`balance_dirty_pages`-style stalls), summed over every task of every
    /// instance.
    pub throttle_stall_s: f64,
    /// Peak cached data observed in the memory trace (0 without a trace).
    pub peak_cached: f64,
    /// Peak dirty data observed in the memory trace (0 without a trace).
    pub peak_dirty: f64,
    /// Bytes the durability oracle found intact after a simulated crash
    /// (0 when the scenario did not crash).
    pub durable_bytes: f64,
    /// Bytes of never-flushed dirty data destroyed by a simulated crash.
    pub lost_bytes: f64,
    /// Number of files that lost at least one byte in a simulated crash.
    pub lost_files: f64,
    /// Reads served by a stale replica on the network tier (0 without a
    /// fleet back-end).
    pub stale_reads: f64,
    /// Per-replica writes the network tier gave up on (0 without a fleet
    /// back-end; the write as a whole may still have succeeded elsewhere).
    pub failed_writes: f64,
}

/// Deterministic work counters of one run, by layer: what the engine, the
/// cache model and the devices did. Plain counts, so they are identical on
/// any machine; they cover traffic generators as well as instances.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileStats {
    /// The engine's counters.
    pub engine: EngineStats,
    /// The cache model's work counts (0 without a cache).
    pub cache: CacheWork,
    /// Transfers completed on every device and link of the back-end.
    pub flows_completed: u64,
}

impl ProfileStats {
    /// The counters, named `engine.*`, `cache.*` and `io.*` by layer, in a
    /// fixed order.
    pub fn counters(&self) -> [(&'static str, u64); 11] {
        let e = &self.engine;
        [
            ("engine.events_fired", e.events_fired),
            ("engine.task_polls", e.task_polls),
            ("engine.timers_scheduled", e.timers_scheduled),
            ("engine.timers_cancelled", e.timers_cancelled),
            ("engine.peak_live_timers", e.peak_live_timers),
            ("cache.evict_calls", self.cache.evict_calls),
            ("cache.evict_visits", self.cache.evict_visits),
            ("cache.writeback_calls", self.cache.writeback_calls),
            ("cache.writeback_visits", self.cache.writeback_visits),
            ("cache.insert_steps", self.cache.insert_steps),
            ("io.flows_completed", self.flows_completed),
        ]
    }

    /// Adds another run's counters: counts add, the peak of live timers
    /// takes the larger one.
    pub fn merge(&mut self, other: &ProfileStats) {
        let (e, o) = (&mut self.engine, &other.engine);
        e.events_fired += o.events_fired;
        e.task_polls += o.task_polls;
        e.timers_scheduled += o.timers_scheduled;
        e.timers_cancelled += o.timers_cancelled;
        e.peak_live_timers = e.peak_live_timers.max(o.peak_live_timers);
        self.cache.merge(&other.cache);
        self.flows_completed += other.flows_completed;
    }
}

/// Full result of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The simulator back-end that produced the result.
    pub kind: SimulatorKind,
    /// Number of concurrent application instances.
    pub instances: usize,
    /// Per-instance reports.
    pub instance_reports: Vec<InstanceReport>,
    /// Memory profile of the host (absent for the cacheless back-end).
    pub memory_trace: Option<MemoryTrace>,
    /// Cache-content snapshots taken after each I/O phase of instance 0.
    pub cache_snapshots: Vec<CacheContentSnapshot>,
    /// Final virtual time of the simulation, seconds.
    pub simulated_duration: f64,
    /// Writeback/eviction counters of the back-end's cache, if it has one.
    pub writeback: Option<CacheCounters>,
    /// Durability oracle verdict of the simulated crash, if one was injected
    /// and fired before the run completed.
    pub crash: Option<CrashReport>,
    /// Per-instance reports of the restart pass, when the scenario requested
    /// restart-after-crash and a crash fired. The restarted program runs
    /// against the post-crash durable state with all faults disarmed.
    pub restart_reports: Vec<InstanceReport>,
    /// Network-tier statistics (stale/hedged/degraded reads, failovers,
    /// per-server crash reports), present only for fleet back-ends: fleet
    /// storage and cached NFS (a 1×1 fleet).
    pub net: Option<NetReport>,
    /// Per-generator traffic results (latency percentiles, throughput,
    /// tenant-limit enforcement), present only when the scenario carries
    /// traffic specs.
    pub traffic: Option<crate::traffic::TrafficReport>,
    /// Work counters of the engine, the cache model and the devices.
    pub profile: ProfileStats,
}

impl ScenarioReport {
    /// Names of the tasks, taken from the first instance.
    pub fn task_names(&self) -> Vec<String> {
        self.instance_reports
            .first()
            .map(|i| i.tasks.iter().map(|t| t.task_name.clone()).collect())
            .unwrap_or_default()
    }

    /// Mean read time of task `task_idx` across instances.
    pub fn mean_task_read_time(&self, task_idx: usize) -> f64 {
        self.mean_over_instances(|i| i.tasks.get(task_idx).map(|t| t.read_time).unwrap_or(0.0))
    }

    /// Mean write time of task `task_idx` across instances.
    pub fn mean_task_write_time(&self, task_idx: usize) -> f64 {
        self.mean_over_instances(|i| i.tasks.get(task_idx).map(|t| t.write_time).unwrap_or(0.0))
    }

    /// Mean cumulative read time per instance (the "Read time" series of
    /// Figs. 5 and 7).
    pub fn mean_total_read_time(&self) -> f64 {
        self.mean_over_instances(InstanceReport::total_read_time)
    }

    /// Mean cumulative write time per instance (the "Write time" series of
    /// Figs. 5 and 7).
    pub fn mean_total_write_time(&self) -> f64 {
        self.mean_over_instances(InstanceReport::total_write_time)
    }

    /// Mean makespan per instance.
    pub fn mean_makespan(&self) -> f64 {
        self.mean_over_instances(InstanceReport::makespan)
    }

    /// Aggregates the per-task I/O statistics and the memory trace into the
    /// flat [`RunStats`] record consumed by the sweep harness.
    pub fn run_stats(&self) -> RunStats {
        let mut io = IoOpStats::default();
        for instance in &self.instance_reports {
            for task in &instance.tasks {
                io.merge(&task.read_stats);
                io.merge(&task.write_stats);
            }
        }
        let (peak_cached, peak_dirty) = self
            .memory_trace
            .as_ref()
            .map(|t| (t.max_cached(), t.max_dirty()))
            .unwrap_or((0.0, 0.0));
        let (durable_bytes, lost_bytes, lost_files) = self
            .crash
            .as_ref()
            .map(|c| (c.durable_bytes(), c.lost_bytes(), c.lost_files() as f64))
            .unwrap_or((0.0, 0.0, 0.0));
        let (stale_reads, failed_writes) = self
            .net
            .as_ref()
            .map(|n| (n.stale_reads, n.failed_writes))
            .unwrap_or((0.0, 0.0));
        RunStats {
            bytes_from_disk: io.bytes_from_disk,
            bytes_from_cache: io.bytes_from_cache,
            bytes_to_cache: io.bytes_to_cache,
            bytes_to_disk: io.bytes_to_disk,
            cache_hit_ratio: io.cache_hit_ratio(),
            bytes_prefetched: io.bytes_prefetched,
            throttle_stall_s: io.throttle_stall,
            peak_cached,
            peak_dirty,
            durable_bytes,
            lost_bytes,
            lost_files,
            stale_reads,
            failed_writes,
        }
    }

    /// Total number of retried operations across every task of every
    /// instance (including the restart pass, if any).
    pub fn total_retries(&self) -> u64 {
        self.instance_reports
            .iter()
            .chain(self.restart_reports.iter())
            .flat_map(|i| i.tasks.iter())
            .map(|t| t.retries)
            .sum()
    }

    /// Names of the tasks that did not complete, across all instances of the
    /// main pass.
    pub fn failed_tasks(&self) -> Vec<String> {
        self.instance_reports
            .iter()
            .flat_map(|i| i.tasks.iter())
            .filter(|t| !t.status.is_completed())
            .map(|t| t.task_name.clone())
            .collect()
    }

    fn mean_over_instances(&self, f: impl Fn(&InstanceReport) -> f64) -> f64 {
        if self.instance_reports.is_empty() {
            return 0.0;
        }
        self.instance_reports.iter().map(f).sum::<f64>() / self.instance_reports.len() as f64
    }
}

/// Absolute relative error in percent, the metric of Figs. 4a and 6:
/// `|simulated - real| / real * 100`.
pub fn absolute_relative_error_pct(simulated: f64, real: f64) -> f64 {
    if real == 0.0 {
        if simulated == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (simulated - real).abs() / real.abs() * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(name: &str, r: f64, c: f64, w: f64) -> TaskReport {
        TaskReport {
            task_name: name.to_string(),
            read_time: r,
            compute_time: c,
            write_time: w,
            read_stats: IoOpStats::default(),
            write_stats: IoOpStats::default(),
            status: TaskStatus::Completed,
            retries: 0,
        }
    }

    fn report() -> ScenarioReport {
        ScenarioReport {
            kind: SimulatorKind::PageCache,
            instances: 2,
            instance_reports: vec![
                InstanceReport {
                    instance: 0,
                    tasks: vec![task("t1", 1.0, 2.0, 3.0), task("t2", 2.0, 2.0, 2.0)],
                },
                InstanceReport {
                    instance: 1,
                    tasks: vec![task("t1", 3.0, 2.0, 5.0), task("t2", 4.0, 2.0, 4.0)],
                },
            ],
            memory_trace: None,
            cache_snapshots: Vec::new(),
            simulated_duration: 20.0,
            writeback: None,
            crash: None,
            restart_reports: Vec::new(),
            net: None,
            traffic: None,
            profile: ProfileStats::default(),
        }
    }

    #[test]
    fn instance_aggregates() {
        let r = report();
        let i0 = &r.instance_reports[0];
        assert_eq!(i0.total_read_time(), 3.0);
        assert_eq!(i0.total_write_time(), 5.0);
        assert_eq!(i0.total_compute_time(), 4.0);
        assert_eq!(i0.makespan(), 12.0);
        assert_eq!(i0.tasks[0].total_time(), 6.0);
    }

    #[test]
    fn scenario_means() {
        let r = report();
        assert_eq!(r.task_names(), vec!["t1", "t2"]);
        assert_eq!(r.mean_task_read_time(0), 2.0);
        assert_eq!(r.mean_task_write_time(1), 3.0);
        assert_eq!(r.mean_total_read_time(), 5.0);
        assert_eq!(r.mean_total_write_time(), 7.0);
        assert_eq!(r.mean_makespan(), 16.0);
        // Out-of-range task index contributes zero.
        assert_eq!(r.mean_task_read_time(7), 0.0);
    }

    #[test]
    fn run_stats_aggregate_io_and_trace() {
        let mut r = report();
        r.instance_reports[0].tasks[0].read_stats = IoOpStats {
            bytes_from_disk: 100.0,
            bytes_from_cache: 300.0,
            ..IoOpStats::default()
        };
        r.instance_reports[1].tasks[1].write_stats = IoOpStats {
            bytes_to_cache: 500.0,
            bytes_to_disk: 50.0,
            ..IoOpStats::default()
        };
        r.instance_reports[1].tasks[0].read_stats = IoOpStats {
            bytes_prefetched: 25.0,
            throttle_stall: 0.5,
            ..IoOpStats::default()
        };
        let stats = r.run_stats();
        assert_eq!(stats.bytes_from_disk, 100.0);
        assert_eq!(stats.bytes_from_cache, 300.0);
        assert_eq!(stats.bytes_to_cache, 500.0);
        assert_eq!(stats.bytes_to_disk, 50.0);
        assert_eq!(stats.cache_hit_ratio, 0.75);
        assert_eq!(stats.bytes_prefetched, 25.0);
        assert_eq!(stats.throttle_stall_s, 0.5);
        // No memory trace: peaks are zero.
        assert_eq!(stats.peak_cached, 0.0);
        assert_eq!(stats.peak_dirty, 0.0);
    }

    #[test]
    fn crash_report_feeds_run_stats_and_task_status_helpers() {
        use crate::faults::{FileDurability, InjectedFault, InjectedFaultKind, OpClass};
        use pagecache::FileId;

        let mut r = report();
        let mut crash = CrashReport::default();
        crash.files.insert(
            FileId::new("wal"),
            FileDurability::from_dirty_amount(100.0, 30.0),
        );
        crash
            .files
            .insert(FileId::new("table"), FileDurability::fully_durable(50.0));
        r.crash = Some(crash);
        r.instance_reports[0].tasks[1].status = TaskStatus::Failed(InjectedFault {
            kind: InjectedFaultKind::Io,
            op: OpClass::Write,
            file: None,
            at: 1.0,
            transient: false,
        });
        r.instance_reports[1].tasks[0].retries = 3;

        let stats = r.run_stats();
        assert_eq!(stats.durable_bytes, 120.0);
        assert_eq!(stats.lost_bytes, 30.0);
        assert_eq!(stats.lost_files, 1.0);
        assert_eq!(r.failed_tasks(), vec!["t2"]);
        assert_eq!(r.total_retries(), 3);
        assert!(!r.instance_reports[0].tasks[1].status.is_completed());
        assert!(r.instance_reports[0].tasks[0].status.is_completed());
    }

    #[test]
    fn empty_report_means_are_zero() {
        let mut r = report();
        r.instance_reports.clear();
        assert_eq!(r.mean_total_read_time(), 0.0);
        assert!(r.task_names().is_empty());
    }

    #[test]
    fn error_metric() {
        assert_eq!(absolute_relative_error_pct(150.0, 100.0), 50.0);
        assert_eq!(absolute_relative_error_pct(50.0, 100.0), 50.0);
        assert_eq!(absolute_relative_error_pct(0.0, 0.0), 0.0);
        assert!(absolute_relative_error_pct(1.0, 0.0).is_infinite());
    }
}
