//! Fault injection: deterministic schedules of crashes, injectable I/O
//! errors, disk-full windows and NFS link outages, plus the durability
//! report produced when a crash fires.
//!
//! A [`FaultPlan`] is a validated list of [`FaultEvent`]s attached to a
//! [`crate::Scenario`]. Plans are **off by default** — an empty plan injects
//! nothing and a scenario without faults behaves bit-identically to one run
//! before this module existed. Every trigger is expressed in *simulated*
//! time or operation counts, so fault scenarios are as deterministic as any
//! other scenario.
//!
//! ## Event semantics
//!
//! * [`FaultEvent::Crash`] — simulated power loss at instant `at`. Every
//!   back-end discards its volatile page-cache state and reports per-file
//!   durable ranges as a [`CrashReport`]; application instances stop at
//!   their next operation boundary. With
//!   [`crate::Scenario::with_restart_after_crash`] the program is re-run
//!   against the post-crash durable state (warm cache lost, data re-read
//!   from disk).
//! * [`FaultEvent::IoError`] — an EIO-style failure described by an
//!   [`IoErrorSpec`]: which file and [`OpClass`] it hits, when it fires
//!   ([`Trigger::At`] a simulated instant or [`Trigger::Nth`] matching
//!   operation), and whether a retry may succeed ([`ErrorMode`]).
//! * [`FaultEvent::DiskFull`] — from instant `at` onward every write-class
//!   operation fails persistently, as if the device ran out of space.
//! * [`FaultEvent::NfsOutage`] — the NFS link drops for `duration` seconds
//!   starting at `at`: every operation of an NFS-backed scenario issued in
//!   the window fails transiently (a retry after the window succeeds).
//!   No-op on local-storage scenarios.
//! * [`FaultEvent::LinkDown`], [`FaultEvent::Partition`],
//!   [`FaultEvent::ServerCrash`] — network-tier faults for fleet and NFS
//!   storage (see [`crate::net`]; cached NFS is a fleet of one client,
//!   `client00`, and one server, `server00`, behind `link-server00`): a
//!   fabric link dies (in-flight flows force-drained), host groups are
//!   partitioned, or one storage server crashes for good (its durability
//!   recorded by the per-server crash oracle). Outage durations may be
//!   `f64::INFINITY`; clients are expected to complete degraded, not hang.
//!   Inert on local storage and on cacheless NFS.
//!
//! ## Durability guarantees per back-end
//!
//! | Back-end | write path | durable after a crash |
//! |---|---|---|
//! | cached local | writeback cache | everything except dirty bytes; positions approximated from the dirty amount |
//! | kernel emulator | writeback cache | byte-exact: the complement of the per-file dirty-range ledger |
//! | replicated fleet | writeback server caches | per file, its most durable replica |
//! | cached NFS (a 1×1 fleet) | writethrough server | everything (only warm read caches are lost) |
//! | direct local / direct NFS | synchronous | everything |

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use pagecache::FileId;

/// The class of I/O operation a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Range reads.
    Read,
    /// Range writes.
    Write,
    /// Per-file flushes.
    Fsync,
    /// Host-wide flushes.
    Sync,
    /// Any of the above.
    Any,
}

impl OpClass {
    /// Whether a fault declared for `self` applies to an operation of class
    /// `op`.
    pub fn applies_to(self, op: OpClass) -> bool {
        self == OpClass::Any || self == op
    }

    /// Short label for error messages.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Read => "read",
            OpClass::Write => "write",
            OpClass::Fsync => "fsync",
            OpClass::Sync => "sync",
            OpClass::Any => "any",
        }
    }
}

/// When an injected I/O error starts firing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every matching operation issued at or after this simulated instant.
    At(f64),
    /// Exactly the `n`-th matching operation (1-based).
    Nth(u64),
}

/// Whether a retry of a failed operation may succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorMode {
    /// Only the first attempt of a matching operation fails; a retry
    /// succeeds.
    Transient,
    /// Every attempt fails.
    Persistent,
}

/// An injectable EIO-style error: which operations it hits and when.
#[derive(Debug, Clone, PartialEq)]
pub struct IoErrorSpec {
    /// Restrict to operations on this file (`None` = any file). Matched
    /// against the un-scoped file name of the workload program.
    pub file: Option<String>,
    /// Restrict to this class of operations.
    pub ops: OpClass,
    /// When the error starts firing.
    pub trigger: Trigger,
    /// Whether retries may succeed.
    pub mode: ErrorMode,
}

impl IoErrorSpec {
    /// An error on every operation of `ops` from simulated instant `at`.
    pub fn at(ops: OpClass, at: f64, mode: ErrorMode) -> Self {
        IoErrorSpec {
            file: None,
            ops,
            trigger: Trigger::At(at),
            mode,
        }
    }

    /// An error on the `n`-th matching operation (1-based).
    pub fn nth(ops: OpClass, n: u64, mode: ErrorMode) -> Self {
        IoErrorSpec {
            file: None,
            ops,
            trigger: Trigger::Nth(n),
            mode,
        }
    }

    /// Restricts the error to operations on one file.
    pub fn on_file(mut self, file: impl Into<String>) -> Self {
        self.file = Some(file.into());
        self
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Simulated power loss at instant `at`: the page cache is lost, the
    /// scenario stops (and optionally restarts).
    Crash {
        /// Simulated instant of the power loss, seconds.
        at: f64,
    },
    /// An injectable I/O error.
    IoError(IoErrorSpec),
    /// From instant `at` onward, write-class operations fail as if the disk
    /// were full.
    DiskFull {
        /// Simulated instant the disk "fills up", seconds.
        at: f64,
    },
    /// The NFS link drops for `duration` seconds starting at `at`.
    NfsOutage {
        /// Simulated instant the link drops, seconds.
        at: f64,
        /// Length of the outage, seconds.
        duration: f64,
    },
    /// One fabric link goes down for `duration` seconds starting at `at`:
    /// in-flight flows on the link are force-drained (aborted) and new
    /// transfers fail until the link heals. `duration` may be
    /// `f64::INFINITY` for a link that never comes back. Fleet and NFS
    /// storage only; inert elsewhere.
    LinkDown {
        /// Name of the fabric link.
        link: String,
        /// Simulated instant the link dies, seconds.
        at: f64,
        /// Length of the outage, seconds (may be infinite).
        duration: f64,
    },
    /// A network partition from `at` for `duration` seconds: hosts in
    /// different groups cannot reach each other (hosts absent from every
    /// group are unaffected). `duration` may be `f64::INFINITY` for a
    /// partition that never heals. Fleet and NFS storage only; inert
    /// elsewhere.
    Partition {
        /// The host groups; traffic between different groups is cut.
        groups: Vec<Vec<String>>,
        /// Simulated instant the partition forms, seconds.
        at: f64,
        /// Length of the partition, seconds (may be infinite).
        duration: f64,
    },
    /// A storage server host crashes at `at`: its page cache is lost (the
    /// per-server durability oracle records what survived on its disk) and
    /// it never comes back; clients fail over to the surviving replicas.
    /// Fleet and NFS storage only; inert elsewhere.
    ServerCrash {
        /// Name of the server host (e.g. `"server00"`).
        host: String,
        /// Simulated instant of the crash, seconds.
        at: f64,
    },
}

/// A deterministic, validated schedule of injected faults. Empty by default:
/// scenarios without a plan run exactly as before.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The scheduled events.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with a single power loss at `at`.
    pub fn crash_at(at: f64) -> Self {
        FaultPlan::none().with_event(FaultEvent::Crash { at })
    }

    /// Adds an event to the plan.
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The instant of the scheduled crash, if any.
    pub fn crash_time(&self) -> Option<f64> {
        self.events.iter().find_map(|e| match e {
            FaultEvent::Crash { at } => Some(*at),
            _ => None,
        })
    }

    /// Whether the plan contains network fault events ([`FaultEvent::LinkDown`],
    /// [`FaultEvent::Partition`], [`FaultEvent::ServerCrash`]). These drive
    /// the fleet fabric (fleet and cached NFS storage) and are inert
    /// elsewhere.
    pub fn has_net_events(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e,
                FaultEvent::LinkDown { .. }
                    | FaultEvent::Partition { .. }
                    | FaultEvent::ServerCrash { .. }
            )
        })
    }

    /// Validates the plan: all instants finite and non-negative, durations
    /// positive (network outage durations may be infinite — a fault that
    /// never heals), `NfsOutage` windows non-overlapping, operation counts
    /// 1-based, at most one crash.
    pub fn validate(&self) -> Result<(), String> {
        let finite_instant = |what: &str, at: f64| {
            if !at.is_finite() || at < 0.0 {
                Err(format!("{what}: instant {at} must be finite and >= 0"))
            } else {
                Ok(())
            }
        };
        // Positive, non-NaN duration; infinity allowed (never heals).
        let positive_duration = |what: &str, duration: f64| {
            if duration.is_nan() || duration <= 0.0 {
                Err(format!("{what}: duration {duration} must be > 0"))
            } else {
                Ok(())
            }
        };
        let mut crashes = 0;
        let mut outages: Vec<(f64, f64)> = Vec::new();
        for event in &self.events {
            match event {
                FaultEvent::Crash { at } => {
                    crashes += 1;
                    if crashes > 1 {
                        return Err("at most one crash per plan".to_string());
                    }
                    finite_instant("crash", *at)?;
                }
                FaultEvent::IoError(spec) => match spec.trigger {
                    Trigger::At(at) => finite_instant("io error", at)?,
                    Trigger::Nth(n) => {
                        if n == 0 {
                            return Err(
                                "io error: operation counts are 1-based (nth = 0)".to_string()
                            );
                        }
                    }
                },
                FaultEvent::DiskFull { at } => finite_instant("disk full", *at)?,
                FaultEvent::NfsOutage { at, duration } => {
                    finite_instant("nfs outage", *at)?;
                    if !duration.is_finite() || *duration <= 0.0 {
                        return Err(format!(
                            "nfs outage: duration {duration} must be finite and > 0"
                        ));
                    }
                    outages.push((*at, *at + *duration));
                }
                FaultEvent::LinkDown { link, at, duration } => {
                    if link.is_empty() {
                        return Err("link down: link name must not be empty".to_string());
                    }
                    finite_instant("link down", *at)?;
                    positive_duration("link down", *duration)?;
                }
                FaultEvent::Partition {
                    groups,
                    at,
                    duration,
                } => {
                    finite_instant("partition", *at)?;
                    positive_duration("partition", *duration)?;
                    if groups.len() < 2 {
                        return Err("partition: need at least two host groups".to_string());
                    }
                    if groups.iter().any(|g| g.is_empty()) {
                        return Err("partition: host groups must not be empty".to_string());
                    }
                    if groups.iter().flatten().any(|h| h.is_empty()) {
                        return Err("partition: host names must not be empty".to_string());
                    }
                }
                FaultEvent::ServerCrash { host, at } => {
                    if host.is_empty() {
                        return Err("server crash: host name must not be empty".to_string());
                    }
                    finite_instant("server crash", *at)?;
                }
            }
        }
        // Overlapping NfsOutage windows would double-inject and make the
        // "retry after the window" semantics ambiguous; reject them.
        outages.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in outages.windows(2) {
            if pair[1].0 < pair[0].1 {
                return Err(format!(
                    "nfs outage windows overlap: [{}, {}) and [{}, {})",
                    pair[0].0, pair[0].1, pair[1].0, pair[1].1
                ));
            }
        }
        Ok(())
    }
}

/// How (and whether) a task retries operations that fail with *transient*
/// injected faults. Persistent faults and real (non-injected) errors are
/// never retried.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per operation (1 = no retries).
    pub max_attempts: u32,
    /// Simulated delay before the first retry, seconds.
    pub backoff: f64,
    /// Multiplier applied to the delay after each further failure.
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// No retries: the first failure is final.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: 0.0,
            backoff_factor: 2.0,
        }
    }

    /// Up to `max_attempts` attempts with exponential backoff starting at
    /// `backoff` seconds (doubling after each failure).
    pub fn new(max_attempts: u32, backoff: f64) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff: backoff.max(0.0),
            backoff_factor: 2.0,
        }
    }

    /// Overrides the backoff multiplier.
    pub fn with_factor(mut self, factor: f64) -> Self {
        self.backoff_factor = factor.max(1.0);
        self
    }

    /// Ceiling on any single retry delay, seconds (one simulated day).
    /// Exponential backoff saturates here instead of overflowing to
    /// `inf` — a retry loop must never schedule a sleep at an infinite (or
    /// NaN) simulated instant, no matter the attempt count.
    pub const MAX_DELAY: f64 = 86_400.0;

    /// The simulated delay before retrying after `failed_attempts` failures
    /// (1-based): `backoff * factor^(failed_attempts - 1)`, saturating at
    /// [`RetryPolicy::MAX_DELAY`]. Always finite and non-negative, even for
    /// attempt counts where the exponential overflows `f64`.
    pub fn delay(&self, failed_attempts: u32) -> f64 {
        if self.backoff.is_nan() || self.backoff <= 0.0 {
            // Covers backoff == 0 (no delay), negative and NaN backoffs:
            // never produce 0 * inf = NaN.
            return 0.0;
        }
        let exponent = failed_attempts.saturating_sub(1).min(i32::MAX as u32) as i32;
        let d = self.backoff * self.backoff_factor.powi(exponent);
        if d.is_finite() {
            d.clamp(0.0, Self::MAX_DELAY)
        } else {
            Self::MAX_DELAY
        }
    }
}

/// What kind of fault was injected into a failed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFaultKind {
    /// An [`IoErrorSpec`] fired.
    Io,
    /// A [`FaultEvent::DiskFull`] window was active.
    DiskFull,
    /// A [`FaultEvent::NfsOutage`] window was active.
    NfsOutage,
    /// A network-tier failure: the request could not reach (or complete
    /// against) any replica — link down, partition, server loss, or
    /// timeouts exhausting the retry budget.
    Network,
}

/// The payload of an injected operation failure.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedFault {
    /// What was injected.
    pub kind: InjectedFaultKind,
    /// The class of the failed operation.
    pub op: OpClass,
    /// The (scoped) file the operation targeted, if any.
    pub file: Option<FileId>,
    /// Simulated instant of the failure.
    pub at: f64,
    /// Whether a retry may succeed.
    pub transient: bool,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            InjectedFaultKind::Io => "EIO",
            InjectedFaultKind::DiskFull => "ENOSPC",
            InjectedFaultKind::NfsOutage => "NFS outage",
            InjectedFaultKind::Network => "network failure",
        };
        let mode = if self.transient {
            "transient"
        } else {
            "persistent"
        };
        match &self.file {
            Some(file) => write!(
                f,
                "injected {kind} on {}({file}) at {:.3}s ({mode})",
                self.op.label(),
                self.at
            ),
            None => write!(
                f,
                "injected {kind} on {} at {:.3}s ({mode})",
                self.op.label(),
                self.at
            ),
        }
    }
}

/// Post-crash durability of one file.
#[derive(Debug, Clone, PartialEq)]
pub struct FileDurability {
    /// Registered file size at the instant of the crash, bytes.
    pub size: f64,
    /// Bytes that had reached stable storage.
    pub durable_bytes: f64,
    /// Dirty bytes lost with the page cache.
    pub lost_bytes: f64,
    /// The durable byte ranges. Byte-exact on the kernel emulator (the
    /// complement of its dirty-range ledger); amount-based back-ends report
    /// the single approximated span `[0, durable_bytes)`.
    pub durable_ranges: Vec<(f64, f64)>,
}

impl FileDurability {
    /// Durability of a fully durable file (synchronous or writethrough write
    /// paths).
    pub fn fully_durable(size: f64) -> Self {
        FileDurability {
            size,
            durable_bytes: size,
            lost_bytes: 0.0,
            durable_ranges: if size > 0.0 {
                vec![(0.0, size)]
            } else {
                vec![]
            },
        }
    }

    /// Durability derived from an amount-based dirty aggregate: `lost` dirty
    /// bytes (clamped to the file size) are lost, the rest survives as one
    /// approximated span.
    pub fn from_dirty_amount(size: f64, lost: f64) -> Self {
        let lost = lost.clamp(0.0, size);
        let durable = size - lost;
        FileDurability {
            size,
            durable_bytes: durable,
            lost_bytes: lost,
            durable_ranges: if durable > 0.0 {
                vec![(0.0, durable)]
            } else {
                vec![]
            },
        }
    }

    /// Durability derived from position-exact lost (dirty) ranges: the
    /// durable ranges are the complement of `lost` within `[0, size)`.
    /// `lost` must be sorted and disjoint (a `RangeSet`'s spans are).
    pub fn from_lost_ranges(size: f64, lost: &[(f64, f64)]) -> Self {
        let mut durable_ranges = Vec::new();
        let mut durable_bytes = 0.0;
        let mut lost_bytes = 0.0;
        let mut cursor = 0.0;
        for &(a, b) in lost {
            let (a, b) = (a.max(0.0).min(size), b.max(0.0).min(size));
            if b <= a {
                continue;
            }
            if a > cursor {
                durable_ranges.push((cursor, a));
                durable_bytes += a - cursor;
            }
            lost_bytes += b - a;
            cursor = cursor.max(b);
        }
        if cursor < size {
            durable_ranges.push((cursor, size));
            durable_bytes += size - cursor;
        }
        FileDurability {
            size,
            durable_bytes,
            lost_bytes,
            durable_ranges,
        }
    }
}

/// What survived an injected crash: the durability of every registered file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CrashReport {
    /// Per-file durability, keyed by (scoped) file id.
    pub files: BTreeMap<FileId, FileDurability>,
}

impl CrashReport {
    /// A report in which every file is fully durable.
    pub fn all_durable(files: impl IntoIterator<Item = (FileId, f64)>) -> Self {
        CrashReport {
            files: files
                .into_iter()
                .map(|(f, size)| (f, FileDurability::fully_durable(size)))
                .collect(),
        }
    }

    /// Total durable bytes across all files.
    pub fn durable_bytes(&self) -> f64 {
        self.files.values().map(|f| f.durable_bytes).sum()
    }

    /// Total lost bytes across all files.
    pub fn lost_bytes(&self) -> f64 {
        self.files.values().map(|f| f.lost_bytes).sum()
    }

    /// Number of files that lost at least one byte.
    pub fn lost_files(&self) -> usize {
        self.files.values().filter(|f| f.lost_bytes > 0.0).count()
    }
}

/// Shared runtime state of one scenario's fault plan: per-event trigger
/// counters, the crash flag, and the crash report once it fires.
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Whether the scenario runs on NFS storage (gates `NfsOutage` events).
    nfs: bool,
    /// Set once the crash watchdog has fired; checked by instances at every
    /// operation boundary.
    crashed: Cell<bool>,
    /// Once set, the gate stops injecting (used by the restart pass).
    disarmed: Cell<bool>,
    /// Matching-operation counters, one per plan event (only `IoError`
    /// events use theirs).
    counters: RefCell<Vec<u64>>,
    /// The durability report captured by the crash watchdog.
    crash_report: RefCell<Option<CrashReport>>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, nfs: bool) -> Rc<Self> {
        let n = plan.events.len();
        Rc::new(FaultState {
            plan,
            nfs,
            crashed: Cell::new(false),
            disarmed: Cell::new(false),
            counters: RefCell::new(vec![0; n]),
            crash_report: RefCell::new(None),
        })
    }

    pub(crate) fn crashed(&self) -> bool {
        self.crashed.get()
    }

    pub(crate) fn record_crash(&self, report: CrashReport) {
        self.crashed.set(true);
        *self.crash_report.borrow_mut() = Some(report);
    }

    pub(crate) fn take_crash_report(&self) -> Option<CrashReport> {
        self.crash_report.borrow_mut().take()
    }

    /// Disarms every event and clears the crash flag: the restart pass runs
    /// fault-free (the recorded crash report is kept).
    pub(crate) fn disarm(&self) {
        self.disarmed.set(true);
        self.crashed.set(false);
    }

    /// The fault gate: decides whether attempt `attempt` (1-based) of an
    /// operation fails with an injected fault. `file` is the *un-scoped*
    /// file name (fault plans are written against the program's names);
    /// `scoped` is the id the failure is reported against. Matching-op
    /// counters advance only on first attempts, so retries of the n-th
    /// matching operation are still "the n-th operation".
    pub(crate) fn check(
        &self,
        now: f64,
        op: OpClass,
        file: Option<&str>,
        scoped: Option<&FileId>,
        attempt: u32,
    ) -> Option<InjectedFault> {
        if self.disarmed.get() || self.plan.is_empty() {
            return None;
        }
        let fault = |kind, transient| {
            Some(InjectedFault {
                kind,
                op,
                file: scoped.cloned(),
                at: now,
                transient,
            })
        };
        for (idx, event) in self.plan.events.iter().enumerate() {
            match event {
                FaultEvent::Crash { .. } => {}
                FaultEvent::IoError(spec) => {
                    if !spec.ops.applies_to(op) {
                        continue;
                    }
                    if let Some(want) = &spec.file {
                        if file != Some(want.as_str()) {
                            continue;
                        }
                    }
                    let count = {
                        let mut counters = self.counters.borrow_mut();
                        if attempt == 1 {
                            counters[idx] += 1;
                        }
                        counters[idx]
                    };
                    let triggered = match spec.trigger {
                        Trigger::At(at) => now >= at,
                        Trigger::Nth(n) => count == n,
                    };
                    if !triggered {
                        continue;
                    }
                    match spec.mode {
                        ErrorMode::Persistent => return fault(InjectedFaultKind::Io, false),
                        ErrorMode::Transient if attempt == 1 => {
                            return fault(InjectedFaultKind::Io, true)
                        }
                        ErrorMode::Transient => {}
                    }
                }
                FaultEvent::DiskFull { at } => {
                    if op == OpClass::Write && now >= *at {
                        return fault(InjectedFaultKind::DiskFull, false);
                    }
                }
                FaultEvent::NfsOutage { at, duration } => {
                    if self.nfs && now >= *at && now < at + duration {
                        return fault(InjectedFaultKind::NfsOutage, true);
                    }
                }
                // Network events are driven by the fleet fabric (timers
                // flipping link/partition/host state), not by the per-op
                // fault gate: the backend itself fails the operation.
                FaultEvent::LinkDown { .. }
                | FaultEvent::Partition { .. }
                | FaultEvent::ServerCrash { .. } => {}
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_validation() {
        assert!(FaultPlan::none().validate().is_ok());
        assert!(FaultPlan::crash_at(5.0).validate().is_ok());
        assert!(FaultPlan::crash_at(-1.0).validate().is_err());
        assert!(FaultPlan::crash_at(f64::NAN).validate().is_err());
        assert!(FaultPlan::crash_at(1.0)
            .with_event(FaultEvent::Crash { at: 2.0 })
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_event(FaultEvent::IoError(IoErrorSpec::nth(
                OpClass::Read,
                0,
                ErrorMode::Transient
            )))
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_event(FaultEvent::NfsOutage {
                at: 1.0,
                duration: 0.0
            })
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_event(FaultEvent::NfsOutage {
                at: 1.0,
                duration: 3.0
            })
            .validate()
            .is_ok());
    }

    #[test]
    fn retry_policy_backoff_schedule() {
        let p = RetryPolicy::new(4, 0.5);
        assert_eq!(p.delay(1), 0.5);
        assert_eq!(p.delay(2), 1.0);
        assert_eq!(p.delay(3), 2.0);
        let linear = RetryPolicy::new(3, 0.1).with_factor(1.0);
        assert_eq!(linear.delay(1), 0.1);
        assert_eq!(linear.delay(3), 0.1);
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn retry_backoff_saturates_at_extreme_attempt_counts() {
        let p = RetryPolicy::new(u32::MAX, 0.5);
        // 0.5 * 2^(n-1) overflows f64 past n ≈ 1075; every delay must stay
        // finite and capped regardless.
        for attempts in [1u32, 10, 100, 1_075, 10_000, 1_000_000, u32::MAX] {
            let d = p.delay(attempts);
            assert!(d.is_finite(), "delay({attempts}) = {d}");
            assert!(d <= RetryPolicy::MAX_DELAY, "delay({attempts}) = {d}");
            assert!(d >= 0.0);
        }
        assert_eq!(p.delay(10_000), RetryPolicy::MAX_DELAY);
        assert_eq!(p.delay(u32::MAX), RetryPolicy::MAX_DELAY);
        // Monotone non-decreasing up to the cap.
        assert!(p.delay(2) >= p.delay(1));
        assert!(p.delay(1_000) >= p.delay(999));
    }

    #[test]
    fn retry_backoff_degenerate_parameters_never_produce_nan() {
        // Zero backoff stays zero (0 * inf would be NaN).
        let zero = RetryPolicy {
            max_attempts: 5,
            backoff: 0.0,
            backoff_factor: f64::INFINITY,
        };
        assert_eq!(zero.delay(u32::MAX), 0.0);
        // Hand-built hostile values through the public fields.
        let hostile = RetryPolicy {
            max_attempts: 5,
            backoff: f64::NAN,
            backoff_factor: 2.0,
        };
        assert_eq!(hostile.delay(3), 0.0);
        let neg = RetryPolicy {
            max_attempts: 5,
            backoff: -1.0,
            backoff_factor: 2.0,
        };
        assert_eq!(neg.delay(3), 0.0);
        let inf_backoff = RetryPolicy {
            max_attempts: 5,
            backoff: f64::INFINITY,
            backoff_factor: 2.0,
        };
        assert_eq!(inf_backoff.delay(1), RetryPolicy::MAX_DELAY);
        // A shrinking factor (only reachable through the public fields — the
        // builder clamps to >= 1) underflows toward zero, not NaN.
        let shrink = RetryPolicy {
            max_attempts: 5,
            backoff: 1.0,
            backoff_factor: 0.5,
        };
        let d = shrink.delay(10_000);
        assert!(d.is_finite() && (0.0..1e-300).contains(&d), "delay = {d}");
    }

    #[test]
    fn overlapping_nfs_outage_windows_are_rejected() {
        let overlapping = FaultPlan::none()
            .with_event(FaultEvent::NfsOutage {
                at: 1.0,
                duration: 5.0,
            })
            .with_event(FaultEvent::NfsOutage {
                at: 4.0,
                duration: 2.0,
            });
        assert!(overlapping.validate().is_err());
        // Order in the plan does not matter.
        let reversed = FaultPlan::none()
            .with_event(FaultEvent::NfsOutage {
                at: 4.0,
                duration: 2.0,
            })
            .with_event(FaultEvent::NfsOutage {
                at: 1.0,
                duration: 5.0,
            });
        assert!(reversed.validate().is_err());
        // Back-to-back windows (second starts exactly where the first ends)
        // are allowed.
        let adjacent = FaultPlan::none()
            .with_event(FaultEvent::NfsOutage {
                at: 1.0,
                duration: 3.0,
            })
            .with_event(FaultEvent::NfsOutage {
                at: 4.0,
                duration: 2.0,
            });
        assert!(adjacent.validate().is_ok());
        assert!(FaultPlan::none()
            .with_event(FaultEvent::NfsOutage {
                at: f64::NAN,
                duration: 1.0,
            })
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_event(FaultEvent::NfsOutage {
                at: -2.0,
                duration: 1.0,
            })
            .validate()
            .is_err());
    }

    #[test]
    fn network_event_validation() {
        let ok = FaultPlan::none()
            .with_event(FaultEvent::LinkDown {
                link: "srv0-link".into(),
                at: 2.0,
                duration: 3.0,
            })
            .with_event(FaultEvent::Partition {
                groups: vec![vec!["client00".into()], vec!["server0".into()]],
                at: 5.0,
                duration: f64::INFINITY, // never heals: allowed
            })
            .with_event(FaultEvent::ServerCrash {
                host: "server0".into(),
                at: 8.0,
            });
        assert!(ok.validate().is_ok());
        assert!(ok.has_net_events());
        assert!(!FaultPlan::crash_at(1.0).has_net_events());
        assert!(FaultPlan::none()
            .with_event(FaultEvent::LinkDown {
                link: String::new(),
                at: 2.0,
                duration: 3.0,
            })
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_event(FaultEvent::LinkDown {
                link: "l".into(),
                at: 2.0,
                duration: 0.0,
            })
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_event(FaultEvent::LinkDown {
                link: "l".into(),
                at: f64::NAN,
                duration: 1.0,
            })
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_event(FaultEvent::Partition {
                groups: vec![vec!["a".into()]],
                at: 0.0,
                duration: 1.0,
            })
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_event(FaultEvent::Partition {
                groups: vec![vec!["a".into()], vec![]],
                at: 0.0,
                duration: 1.0,
            })
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_event(FaultEvent::ServerCrash {
                host: "server0".into(),
                at: -1.0,
            })
            .validate()
            .is_err());
        // Network events never trip the per-op fault gate.
        let state = FaultState::new(ok, false);
        assert!(state.check(10.0, OpClass::Read, None, None, 1).is_none());
    }

    #[test]
    fn nth_transient_error_fires_once_and_retries_succeed() {
        let plan = FaultPlan::none().with_event(FaultEvent::IoError(IoErrorSpec::nth(
            OpClass::Write,
            2,
            ErrorMode::Transient,
        )));
        let state = FaultState::new(plan, false);
        // First write: not the 2nd matching op.
        assert!(state.check(0.0, OpClass::Write, None, None, 1).is_none());
        // Second write fails on the first attempt...
        let fault = state.check(1.0, OpClass::Write, None, None, 1).unwrap();
        assert!(fault.transient);
        assert_eq!(fault.kind, InjectedFaultKind::Io);
        // ...and succeeds on the retry (still the 2nd matching op).
        assert!(state.check(1.5, OpClass::Write, None, None, 2).is_none());
        // Later writes are unaffected, and reads never matched.
        assert!(state.check(2.0, OpClass::Write, None, None, 1).is_none());
        assert!(state.check(2.0, OpClass::Read, None, None, 1).is_none());
    }

    #[test]
    fn persistent_at_error_fails_every_attempt_after_the_instant() {
        let plan = FaultPlan::none().with_event(FaultEvent::IoError(
            IoErrorSpec::at(OpClass::Read, 10.0, ErrorMode::Persistent).on_file("data"),
        ));
        let state = FaultState::new(plan, false);
        assert!(state
            .check(5.0, OpClass::Read, Some("data"), None, 1)
            .is_none());
        let f = state
            .check(10.0, OpClass::Read, Some("data"), None, 1)
            .unwrap();
        assert!(!f.transient);
        // Retries fail too, and other files are unaffected.
        assert!(state
            .check(11.0, OpClass::Read, Some("data"), None, 3)
            .is_some());
        assert!(state
            .check(11.0, OpClass::Read, Some("other"), None, 1)
            .is_none());
    }

    #[test]
    fn disk_full_gates_writes_only() {
        let state = FaultState::new(
            FaultPlan::none().with_event(FaultEvent::DiskFull { at: 3.0 }),
            false,
        );
        assert!(state.check(2.9, OpClass::Write, None, None, 1).is_none());
        let f = state.check(3.0, OpClass::Write, None, None, 1).unwrap();
        assert_eq!(f.kind, InjectedFaultKind::DiskFull);
        assert!(!f.transient);
        assert!(state.check(4.0, OpClass::Read, None, None, 1).is_none());
        assert!(state.check(4.0, OpClass::Fsync, None, None, 1).is_none());
    }

    #[test]
    fn nfs_outage_is_a_transient_window_on_nfs_only() {
        let plan = FaultPlan::none().with_event(FaultEvent::NfsOutage {
            at: 5.0,
            duration: 2.0,
        });
        let local = FaultState::new(plan.clone(), false);
        assert!(local.check(6.0, OpClass::Read, None, None, 1).is_none());
        let nfs = FaultState::new(plan, true);
        assert!(nfs.check(4.9, OpClass::Read, None, None, 1).is_none());
        let f = nfs.check(5.0, OpClass::Read, None, None, 1).unwrap();
        assert_eq!(f.kind, InjectedFaultKind::NfsOutage);
        assert!(f.transient);
        // Still failing inside the window even on retries; clear after it.
        assert!(nfs.check(6.9, OpClass::Sync, None, None, 4).is_some());
        assert!(nfs.check(7.0, OpClass::Sync, None, None, 5).is_none());
    }

    #[test]
    fn disarm_silences_every_event() {
        let state = FaultState::new(
            FaultPlan::none().with_event(FaultEvent::DiskFull { at: 0.0 }),
            false,
        );
        assert!(state.check(1.0, OpClass::Write, None, None, 1).is_some());
        state.disarm();
        assert!(state.check(1.0, OpClass::Write, None, None, 1).is_none());
    }

    #[test]
    fn durability_from_lost_ranges_is_the_complement() {
        let d = FileDurability::from_lost_ranges(100.0, &[(10.0, 20.0), (50.0, 70.0)]);
        assert_eq!(
            d.durable_ranges,
            vec![(0.0, 10.0), (20.0, 50.0), (70.0, 100.0)]
        );
        assert_eq!(d.durable_bytes, 70.0);
        assert_eq!(d.lost_bytes, 30.0);
        // Ranges past EOF are clipped.
        let d = FileDurability::from_lost_ranges(50.0, &[(40.0, 80.0)]);
        assert_eq!(d.lost_bytes, 10.0);
        assert_eq!(d.durable_ranges, vec![(0.0, 40.0)]);
        // Empty lost set: fully durable.
        let d = FileDurability::from_lost_ranges(30.0, &[]);
        assert_eq!(d, FileDurability::fully_durable(30.0));
    }

    #[test]
    fn durability_from_dirty_amount_clamps() {
        let d = FileDurability::from_dirty_amount(100.0, 30.0);
        assert_eq!(d.durable_bytes, 70.0);
        assert_eq!(d.durable_ranges, vec![(0.0, 70.0)]);
        // The amount-based models can report more dirty bytes than the file
        // holds (position-blind rewrites); losses clamp to the file size.
        let d = FileDurability::from_dirty_amount(100.0, 150.0);
        assert_eq!(d.lost_bytes, 100.0);
        assert_eq!(d.durable_bytes, 0.0);
        assert!(d.durable_ranges.is_empty());
    }

    #[test]
    fn crash_report_totals() {
        let mut report = CrashReport::all_durable([("a".into(), 100.0), ("b".into(), 50.0)]);
        assert_eq!(report.durable_bytes(), 150.0);
        assert_eq!(report.lost_bytes(), 0.0);
        assert_eq!(report.lost_files(), 0);
        report
            .files
            .insert("c".into(), FileDurability::from_dirty_amount(80.0, 30.0));
        assert_eq!(report.durable_bytes(), 200.0);
        assert_eq!(report.lost_bytes(), 30.0);
        assert_eq!(report.lost_files(), 1);
    }

    #[test]
    fn injected_fault_displays_context() {
        let fault = InjectedFault {
            kind: InjectedFaultKind::Io,
            op: OpClass::Write,
            file: Some("wal".into()),
            at: 1.25,
            transient: true,
        };
        let msg = fault.to_string();
        assert!(msg.contains("EIO"), "{msg}");
        assert!(msg.contains("write"), "{msg}");
        assert!(msg.contains("wal"), "{msg}");
        assert!(msg.contains("transient"), "{msg}");
    }
}
