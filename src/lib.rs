//! # linux-pagecache-sim
//!
//! A discrete-event simulation library for studying the effect of the **Linux
//! page cache** on the I/O performance of data-intensive applications — a
//! from-scratch Rust reproduction of *"Modeling the Linux page cache for
//! accurate simulation of data-intensive applications"* (CLUSTER 2021), whose
//! original implementation (WRENCH-cache) lives inside the WRENCH/SimGrid C++
//! stack.
//!
//! The workspace is organised in layers, re-exported here for convenience:
//!
//! * [`des`] — deterministic discrete-event engine with an async process model;
//! * [`storage_model`] — flow-level disk/memory/network models with fair
//!   bandwidth sharing;
//! * [`pagecache`] — the paper's page cache model (LRU lists of data blocks,
//!   Memory Manager, I/O Controller); the I/O Controller is a page-cached
//!   host's filesystem;
//! * [`kernel_emu`] — a page-granularity kernel emulator used as the
//!   "real system" ground truth;
//! * [`workflow`] — platforms, applications, the scenario runner, and the
//!   cacheless filesystem (also over an NFS link);
//! * [`experiments`] — the experiments behind every table and figure of the
//!   paper, which the scenario registry of `crates/harness` runs and gates.
//!
//! ## Quick start
//!
//! ```
//! use linux_pagecache_sim::prelude::*;
//!
//! let platform = PlatformSpec::uniform(
//!     8.0 * GB,
//!     DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
//!     DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
//! );
//! let app = ApplicationSpec::synthetic_pipeline(1.0 * GB);
//! let report = run_scenario(&Scenario::new(platform, app, SimulatorKind::PageCache)).unwrap();
//! println!("simulated makespan: {:.1}s", report.mean_makespan());
//! ```

pub use des;
pub use experiments;
pub use kernel_emu;
pub use pagecache;
pub use storage_model;
pub use workflow;

/// Convenient glob import for examples and quick experiments.
pub mod prelude {
    pub use des::{SimContext, SimTime, Simulation};
    pub use pagecache::{
        FileId, IoController, IoOpStats, MemoryManager, PageCacheConfig, WriteMode,
    };
    pub use storage_model::units::{GB, GIB, MB};
    pub use storage_model::{DeviceSpec, Disk, MemoryDevice, NetworkLink, SharedResource};
    pub use workflow::{
        run_scenario, ApplicationSpec, ClientPolicy, CrashReport, ErrorMode, FaultEvent, FaultPlan,
        FileSpec, FleetSpec, IoErrorSpec, NetReport, Op, OpClass, PlatformSpec, RetryPolicy,
        RunStats, Scenario, ScenarioReport, SimulatorKind, StorageKind, TaskSpec, TaskStatus,
        TenantSpec, TrafficGenReport, TrafficReport, TrafficSpec, Trigger,
    };
}
