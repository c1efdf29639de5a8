//! # `pagecache` — the Linux page cache simulation model
//!
//! This crate implements the core contribution of *"Modeling the Linux page
//! cache for accurate simulation of data-intensive applications"* (CLUSTER
//! 2021): a macroscopic simulation model of the Linux page cache suitable for
//! discrete-event simulation of data-intensive applications.
//!
//! The model has two components (paper Fig. 1):
//!
//! * the [`MemoryManager`], which owns the two [`LruLists`] of variable-size
//!   [`DataBlock`]s, performs flushing and eviction, and runs the background
//!   periodical flusher (Algorithm 1);
//! * the [`IoController`], which applications use to read and write files
//!   chunk by chunk (Algorithms 2 and 3), in writeback or writethrough mode.
//!   It is a page-cached host's filesystem: the workflow layer reads,
//!   writes and flushes files through it, and creates them in its Memory
//!   Manager.
//!
//! The Memory Manager's host state — memory accounting, counters, memory
//! trace and the flush-interval loop — is the [`Host`] core, which the
//! kernel emulator's cache is built on too, so both cache models account,
//! count and sample one way.
//!
//! Device times (disk, memory bus) are simulated by the flow-level models of
//! the [`storage_model`] crate on top of the [`des`] engine, so concurrent
//! applications contend for bandwidth exactly as in the paper's SimGrid-based
//! implementation.
//!
//! ## Example: read a file twice and observe the cache hit
//!
//! ```
//! use des::Simulation;
//! use pagecache::{IoController, MemoryManager, PageCacheConfig};
//! use storage_model::{DeviceSpec, Disk, MemoryDevice, units::MB};
//!
//! let sim = Simulation::new();
//! let ctx = sim.context();
//! let memory = MemoryDevice::new(&ctx, DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY));
//! let disk = Disk::new(&ctx, "ssd", DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY));
//! let mm = MemoryManager::new(&ctx, PageCacheConfig::default(), 8_000.0 * MB, memory, disk);
//! let io = IoController::new(&ctx, mm);
//! io.memory_manager().create_file(&"input".into(), 1_000.0 * MB).unwrap();
//!
//! // Each read takes the whole 1000 MB file.
//! let handle = sim.spawn(async move {
//!     let cold = io.read_range(&"input".into(), 0.0, f64::INFINITY).await.unwrap();
//!     let warm = io.read_range(&"input".into(), 0.0, f64::INFINITY).await.unwrap();
//!     (cold.duration, warm.duration)
//! });
//! sim.run();
//! let (cold, warm) = handle.try_take_result().unwrap();
//! assert!(warm < cold / 5.0); // the second read is served from memory
//! ```

#![warn(missing_docs)]

mod block;
mod config;
mod controller;
mod error;
mod file_table;
mod host;
mod lru;
mod manager;
pub mod policy;
mod stats;

pub use block::{DataBlock, FileId};
pub use config::{PageCacheConfig, WriteMode, LINUX_READAHEAD_MAX, LINUX_READAHEAD_MIN};
pub use controller::{check_write_range, clamp_io_range, IoController};
pub use error::FsError;
pub use file_table::{FileTable, ReclaimScope};
pub use host::{CacheState, Host};
pub use lru::{ListKind, LruLists, EPSILON};
pub use manager::MemoryManager;
pub use policy::{EvictionPolicy, FileMeta, Policy, ACTIVE_TIER, MAX_TIERS};
pub use stats::{
    CacheContentSnapshot, CacheCounters, CacheWork, IoOpStats, MemorySample, MemoryTrace,
};
