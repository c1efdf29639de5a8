//! # `simfs` — simulated filesystems
//!
//! Filesystem-level abstractions on top of the [`pagecache`] model and the
//! [`storage_model`] devices:
//!
//! * [`CachedFileSystem`] — a local filesystem whose I/O goes through the
//!   simulated Linux page cache (the paper's WRENCH-cache behaviour);
//! * [`DirectFileSystem`] — a filesystem that always hits the disk (the
//!   cacheless behaviour of vanilla WRENCH, used as the baseline), either
//!   local or mounted remotely over a network link;
//! * [`NfsFileSystem`] / [`NfsServer`] — a network filesystem with a client
//!   read cache and a writethrough server cache (the paper's Exp 3 setup).
//!
//! All of them report failures as [`pagecache::FsError`], the error type the
//! kernel emulator shares. The workflow layer's `Backend` enum drives them,
//! and the emulator, by calling each one's own methods.

#![warn(missing_docs)]

mod local;
mod nfs;
mod registry;

pub use local::{CachedFileSystem, DirectFileSystem};
pub use nfs::{NfsFileSystem, NfsServer};
pub use registry::FileRegistry;
