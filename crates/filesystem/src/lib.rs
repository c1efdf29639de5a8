//! # `simfs` — simulated filesystems
//!
//! Filesystem-level abstractions on top of the [`pagecache`] model and the
//! [`storage_model`] devices:
//!
//! * [`CachedFileSystem`] — a local filesystem whose I/O goes through the
//!   simulated Linux page cache (the paper's WRENCH-cache behaviour);
//! * [`DirectFileSystem`] — a filesystem that always hits the disk (the
//!   cacheless behaviour of vanilla WRENCH, used as the baseline), either
//!   local or mounted remotely over a network link.
//!
//! Both report failures as [`pagecache::FsError`], the error type the
//! kernel emulator shares. The workflow layer's `Backend` enum drives them,
//! and the emulator, by calling each one's own methods. A cached NFS mount
//! (client read cache, writethrough server cache: the paper's Exp 3 setup)
//! is the workflow layer's storage fleet with one client and one server,
//! each server a [`CachedFileSystem`].

#![warn(missing_docs)]

mod local;
mod registry;

pub use local::{CachedFileSystem, DirectFileSystem};
pub use registry::FileRegistry;
