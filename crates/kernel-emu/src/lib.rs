//! # `kernel-emu` — a page-granularity Linux page-cache emulator
//!
//! The paper validates its simulation model against *real executions* on a
//! dedicated cluster. That hardware is not available here, so this crate
//! provides the substitute ground truth: an emulator of the Linux page cache
//! that implements the kernel behaviours the paper's macroscopic model
//! deliberately leaves out —
//!
//! * the background dirty threshold (`vm.dirty_background_ratio`),
//! * writer throttling à la `balance_dirty_pages` — both the hard leg
//!   (synchronous writeback above `vm.dirty_ratio`) and, opt-in, the pacing
//!   leg that stalls writers between the two thresholds
//!   ([`PageCacheConfig::throttle_pacing`](pagecache::PageCacheConfig::throttle_pacing)),
//! * eviction protection of files currently being written,
//! * per-file page accounting instead of per-I/O data blocks, refined to
//!   **true resident byte ranges** per file,
//! * opt-in Linux-style **readahead**: per-file sequentiality detection
//!   with a growing/collapsing window whose prefetch lands in the resident
//!   ranges ahead of demand
//!   ([`PageCacheConfig::readahead_max`](pagecache::PageCacheConfig::readahead_max); see
//!   [`KernelFileSystem`] for the exact model),
//!
//! and that is configured with the host's one
//! [`PageCacheConfig`](pagecache::PageCacheConfig) (the paper's model reads
//! the same type) and the *measured, asymmetric* device bandwidths of Table
//! III (whereas the simulators use the symmetric averages). Simulators
//! are then evaluated by their error against this emulator, exactly as the
//! paper evaluates WRENCH and WRENCH-cache against the real cluster.

#![warn(missing_docs)]

mod cache;
mod fs;

pub use cache::{KernelCache, KernelState};
pub use fs::KernelFileSystem;
pub use storage_model::units::PAGE_SIZE;
