//! # `workflow` — WRENCH-like application layer
//!
//! Describes platforms and workloads, and runs them against one of four
//! simulator back-ends:
//!
//! * **Cacheless** — every I/O hits the disk (the original WRENCH simulator
//!   the paper uses as its baseline);
//! * **Prototype** — the page cache model without bandwidth sharing (the
//!   paper's Python prototype);
//! * **PageCache** — the full WRENCH-cache model on shared devices;
//! * **KernelEmu** — the page-granularity kernel emulator with measured
//!   bandwidths, standing in for the real cluster.
//!
//! The [`net`] module adds a distributed tier on top: a simulated link
//! fabric with partitions and a replicated storage fleet
//! ([`PlatformSpec::with_fleet`]) whose clients ride out faults with
//! timeouts, backoff retries, hedged reads, and failover. A cached NFS
//! mount ([`PlatformSpec::with_nfs`]) is that fleet with one client and one
//! writethrough server.
//!
//! All back-ends are served through the [`Backend`] enum, whose I/O is
//! **offset-granular** and has one form per operation: `read_range`,
//! `write_range`, `fsync`, `sync`. A whole-file read is
//! `read_range(0, f64::INFINITY)`; range writes create or extend a file and
//! never shrink it.
//!
//! ## Workload programs
//!
//! A task is a **program** of [`Op`] instructions — range reads and writes,
//! compute phases, `fsync`/`sync`, memory releases, [`Op::Repeat`] loops —
//! so workloads well beyond whole-file read→compute→write pipelines (small
//! interleaved writes with fsyncs, random partial re-reads, scan-then-reread
//! mixes) are expressible directly:
//!
//! ```
//! use storage_model::{DeviceSpec, units::{GB, MB}};
//! use workflow::{ApplicationSpec, Op, PlatformSpec, Scenario, SimulatorKind, TaskSpec,
//!                run_scenario};
//!
//! let platform = PlatformSpec::uniform(
//!     8.0 * GB,
//!     DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
//!     DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
//! );
//! // A database-style commit loop: rewrite a record, fsync it, think.
//! let app = ApplicationSpec::new("db").with_task(TaskSpec::program(
//!     "commits",
//!     vec![Op::repeat(8, vec![
//!         Op::write_range("table", 0.0, 16.0 * MB),
//!         Op::fsync("table"),
//!         Op::compute(0.1),
//!     ])],
//! ));
//! let report = run_scenario(&Scenario::new(platform, app, SimulatorKind::PageCache)).unwrap();
//! assert!(report.instance_reports[0].tasks[0].write_stats.bytes_to_disk > 100.0 * MB);
//! ```
//!
//! The classic builder API still works unchanged and **lowers** to a program
//! (see [`TaskSpec::lower`]), with identical simulated behaviour:
//!
//! ```
//! use storage_model::{DeviceSpec, units::{GB, MB}};
//! use workflow::{ApplicationSpec, PlatformSpec, Scenario, SimulatorKind, run_scenario};
//!
//! let platform = PlatformSpec::uniform(
//!     8.0 * GB,
//!     DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
//!     DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
//! );
//! let app = ApplicationSpec::synthetic_pipeline(1.0 * GB);
//! let report = run_scenario(&Scenario::new(platform, app, SimulatorKind::PageCache)).unwrap();
//! assert_eq!(report.instance_reports.len(), 1);
//! ```
//!
//! ## How the builder API lowers to programs
//!
//! | old builder call | lowered program |
//! |---|---|
//! | `.reads(FileSpec::new("in", s))` | `Op::Read {{ file: "in", offset: 0, len: ∞ }}` |
//! | `.writes(FileSpec::new("out", s))` | `Op::Write {{ file: "out", offset: 0, len: s }}` |
//! | `TaskSpec::new(name, cpu)` | `Op::Compute(cpu)` between the reads and writes |
//! | `release_memory_after: true` | trailing `Op::ReleaseMemory(input_bytes)` |
//! | *(implicit phase sampling)* | `Op::Sample` / `Op::Snapshot("Read i")` at phase ends |

#![warn(missing_docs)]

mod backend;
mod direct;
pub mod faults;
pub mod net;
mod platform;
mod report;
mod runner;
mod spec;
pub mod traffic;

pub use backend::{Backend, ScenarioError, SimulatorKind};
pub use direct::DirectFileSystem;
pub use faults::{
    CrashReport, ErrorMode, FaultEvent, FaultPlan, FileDurability, InjectedFault,
    InjectedFaultKind, IoErrorSpec, OpClass, RetryPolicy, Trigger,
};
pub use net::{ClientNetStats, ClientPolicy, Fabric, FleetClient, FleetSpec, NetError, NetReport};
pub use pagecache::EvictionPolicy;
pub use platform::{DeviceSet, PlatformSpec, StorageKind};
pub use report::{
    absolute_relative_error_pct, InstanceReport, ProfileStats, RunStats, ScenarioReport,
    TaskReport, TaskStatus,
};
pub use runner::{run_scenario, scoped_file, Scenario};
pub use spec::{
    flatten_program, ApplicationSpec, FileSpec, Op, ProgramError, TaskSpec, MAX_PROGRAM_OPS,
    MAX_REPEAT_DEPTH,
};
pub use traffic::{
    LatencyHistogram, LatencySummary, LoopMode, TenantSpec, TrafficGenReport, TrafficReport,
    TrafficSpec, ZipfSampler,
};
