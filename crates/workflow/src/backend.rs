//! Simulator back-ends: the four ways a scenario can be executed, unified
//! behind the [`IoBackend`] trait.
//!
//! | Back-end | Paper counterpart | Devices | Page cache |
//! |---|---|---|---|
//! | [`SimulatorKind::Cacheless`] | vanilla WRENCH | simulated (symmetric) | none |
//! | [`SimulatorKind::Prototype`] | Python prototype | simulated, no bandwidth sharing | macroscopic model |
//! | [`SimulatorKind::PageCache`] | WRENCH-cache | simulated (symmetric) | macroscopic model |
//! | [`SimulatorKind::KernelEmu`] | the real cluster | measured (asymmetric) | page-granularity emulator |
//!
//! Six concrete filesystems implement [`IoBackend`]: the three `simfs`
//! filesystems ([`CachedFileSystem`], [`DirectFileSystem`],
//! [`NfsFileSystem`]), the kernel emulator ([`KernelFileSystem`]), the
//! cacheless NFS mount ([`DirectNfs`]), and the replicated storage fleet
//! ([`crate::net::FleetClient`], for
//! [`StorageKind::Fleet`] platforms). [`Backend::build`] picks and
//! constructs the right one for a platform/simulator combination; the
//! [`Backend`] enum it returns forwards every trait method to the inner
//! filesystem through a single dispatch macro, so the scenario runner stays
//! monomorphic (no `dyn`, no per-method match duplication).
//!
//! The legacy NFS back-ends build their single client–server link as a
//! *degenerate fabric* (two hosts, one link) of the network tier; the
//! link's shared channel is constructed with identical parameters, so
//! historical NFS predictions are bit-identical.
//!
//! ## `fsync` semantics per back-end
//!
//! | Back-end | `fsync(file)` | `sync` |
//! |---|---|---|
//! | cached local | targeted per-file dirty writeback at disk bandwidth | flush all dirty data |
//! | direct local | no-op (writes are synchronous) | no-op |
//! | NFS | no-op (no client write cache; writethrough server) | no-op |
//! | kernel emulator | per-file dirty-page writeback, counted as throttled writeback | flush all dirty pages |
//! | direct NFS | no-op (writes are synchronous) | no-op |
//! | fleet | flush the file on every reachable replica (write-back servers) | flush all reachable servers |

use std::collections::BTreeMap;

use des::SimContext;
use kernel_emu::{KernelCache, KernelFileSystem, KernelTuning};
use pagecache::{
    clamp_io_range, FileId, FsError, IoController, IoOpStats, MemoryManager, MemorySample,
    PageCacheConfig,
};
use simfs::{extend_for_write, CachedFileSystem, DirectFileSystem, NfsFileSystem, NfsServer};
use storage_model::{Disk, MemoryDevice, NetworkLink};

use crate::faults::{CrashReport, FileDurability, InjectedFault};
use crate::net::{Fabric, FleetClient, NetReport};
use crate::platform::{DeviceSet, PlatformSpec, StorageKind};
use crate::report::WritebackCounters;

/// Which simulator runs the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimulatorKind {
    /// No page cache: every I/O is a device access (original WRENCH).
    Cacheless,
    /// Page cache model without bandwidth sharing (the paper's Python
    /// prototype; single-instance scenarios only).
    Prototype,
    /// The full page cache model on shared devices (WRENCH-cache).
    PageCache,
    /// The kernel-fidelity emulator with measured bandwidths (stands in for
    /// the real cluster).
    KernelEmu,
}

impl SimulatorKind {
    /// Short label used in reports and tables.
    pub fn label(&self) -> &'static str {
        match self {
            SimulatorKind::Cacheless => "WRENCH (cacheless)",
            SimulatorKind::Prototype => "Python-prototype",
            SimulatorKind::PageCache => "WRENCH-cache",
            SimulatorKind::KernelEmu => "Real-system emulator",
        }
    }

    /// All four back-ends.
    pub fn all() -> [SimulatorKind; 4] {
        [
            SimulatorKind::Cacheless,
            SimulatorKind::Prototype,
            SimulatorKind::PageCache,
            SimulatorKind::KernelEmu,
        ]
    }
}

/// Errors raised while building or running a scenario. Filesystem failures
/// keep their structured cause instead of being stringified at the boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The platform description is invalid.
    InvalidPlatform(String),
    /// The scenario configuration is invalid (e.g. zero instances).
    InvalidScenario(String),
    /// The back-end cannot run this scenario (e.g. the prototype with NFS).
    Unsupported(String),
    /// A filesystem operation failed, on a `simfs` filesystem or on the
    /// kernel emulator.
    Filesystem(FsError),
    /// An operation failed because a scheduled fault fired (see
    /// [`crate::faults::FaultPlan`]).
    Injected(InjectedFault),
    /// The scenario was cut short by an injected crash (simulated power
    /// loss) and restart-after-crash was not enabled for a part of the run
    /// that required it.
    Crashed,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::InvalidPlatform(m) => write!(f, "invalid platform: {m}"),
            ScenarioError::InvalidScenario(m) => write!(f, "invalid scenario: {m}"),
            ScenarioError::Unsupported(m) => write!(f, "unsupported scenario: {m}"),
            ScenarioError::Filesystem(e) => write!(f, "filesystem error: {e}"),
            ScenarioError::Injected(e) => write!(f, "{e}"),
            ScenarioError::Crashed => write!(f, "simulated power loss cut the scenario short"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Filesystem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FsError> for ScenarioError {
    fn from(e: FsError) -> Self {
        ScenarioError::Filesystem(e)
    }
}

/// The unified surface every simulator back-end exposes to the scenario
/// runner: offset-granular I/O (`read_range` / `write_range` / `fsync` /
/// `sync`), plus the lifecycle and introspection hooks the runner needs.
/// Whole-file operations are corollaries of the range operations, not
/// primitives.
///
/// The futures returned by the async methods are deliberately `!Send`: the
/// DES engine is single-threaded and back-ends share `Rc` state.
#[allow(async_fn_in_trait)]
pub trait IoBackend {
    /// Registers a pre-existing file without simulating any I/O.
    fn create_file(&self, file: &FileId, size: f64) -> Result<(), ScenarioError>;

    /// Reads `len` bytes of `file` starting at `offset` (`len =
    /// f64::INFINITY` reads to end of file; the range is clamped to the
    /// file).
    async fn read_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ScenarioError>;

    /// Writes `len` bytes at `offset`, creating the file or extending it to
    /// `offset + len` as needed. Range writes never shrink a file.
    async fn write_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ScenarioError>;

    /// Flushes the file's dirty cached data to stable storage. A no-op on
    /// back-ends whose writes are already synchronous (see the module-level
    /// semantics table).
    async fn fsync(&self, file: &FileId) -> Result<IoOpStats, ScenarioError>;

    /// Flushes all dirty cached data of the host to stable storage.
    async fn sync(&self) -> Result<IoOpStats, ScenarioError>;

    /// Reads a whole file — a corollary of [`IoBackend::read_range`] over
    /// `[0, size)`.
    async fn read_file(&self, file: &FileId) -> Result<IoOpStats, ScenarioError> {
        self.read_range(file, 0.0, f64::INFINITY).await
    }

    /// Writes a whole file. The default is the range-write corollary
    /// (`write_range(0, size)`, extend-never-shrink); every provided
    /// back-end overrides it with whole-file **replace** semantics (the old
    /// registration is freed first), matching the classic API uniformly.
    async fn write_file(&self, file: &FileId, size: f64) -> Result<IoOpStats, ScenarioError> {
        self.write_range(file, 0.0, size).await
    }

    /// Starts the background flusher / writeback threads (if the back-end
    /// has a page cache).
    fn start_background(&self) {}

    /// Stops the background threads so the simulation can terminate.
    fn stop_background(&self) {}

    /// Releases anonymous memory used by the application (no-op on back-ends
    /// without memory modelling).
    fn release_anonymous_memory(&self, _amount: f64) {}

    /// Takes a memory sample (`None` on back-ends without memory modelling).
    fn sample_memory(&self) -> Option<MemorySample> {
        None
    }

    /// The collected memory trace, if any.
    fn memory_trace(&self) -> Option<pagecache::MemoryTrace> {
        None
    }

    /// A labelled snapshot of the cache content per file, if the back-end
    /// has a cache.
    fn cache_snapshot(&self, _label: &str) -> Option<pagecache::CacheContentSnapshot> {
        None
    }

    /// Cumulative writeback/eviction counters of the back-end's page cache,
    /// if it has one. These are the per-run statistics the sweep harness
    /// records next to the simulated times.
    fn writeback_counters(&self) -> Option<WritebackCounters> {
        None
    }

    /// Assigns `file` to a cache group (tenant) for memcg-style accounting.
    /// No-op on back-ends without a cache model.
    fn set_file_group(&self, _file: &FileId, _group: u32) {}

    /// Enforces per-group cache limits: writes back the group's dirty bytes
    /// above `max_dirty` and evicts its cached bytes above `max_bytes`.
    /// Returns `(evicted, flushed)`; `(0.0, 0.0)` on back-ends without a
    /// cache model (nothing is cached, so every limit trivially holds).
    async fn enforce_group_limits(
        &self,
        _group: u32,
        _max_bytes: f64,
        _max_dirty: f64,
    ) -> (f64, f64) {
        (0.0, 0.0)
    }

    /// Simulated power loss: discards all volatile state (page cache,
    /// anonymous memory) and reports the per-file durability of what
    /// remains on stable storage. Back-ends whose writes are synchronous or
    /// writethrough report every file fully durable. Takes no simulated
    /// time, and the back-end remains usable afterwards (modelling the node
    /// after a reboot with a cold cache).
    fn crash(&self) -> CrashReport;

    /// Short label of the back-end kind.
    fn kind_label(&self) -> &'static str;
}

impl IoBackend for CachedFileSystem {
    fn create_file(&self, file: &FileId, size: f64) -> Result<(), ScenarioError> {
        CachedFileSystem::create_file(self, file, size).map_err(ScenarioError::from)
    }

    async fn read_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ScenarioError> {
        CachedFileSystem::read_range(self, file, offset, len)
            .await
            .map_err(ScenarioError::from)
    }

    async fn write_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ScenarioError> {
        CachedFileSystem::write_range(self, file, offset, len)
            .await
            .map_err(ScenarioError::from)
    }

    async fn write_file(&self, file: &FileId, size: f64) -> Result<IoOpStats, ScenarioError> {
        CachedFileSystem::write_file(self, file, size)
            .await
            .map_err(ScenarioError::from)
    }

    async fn fsync(&self, file: &FileId) -> Result<IoOpStats, ScenarioError> {
        CachedFileSystem::fsync(self, file)
            .await
            .map_err(ScenarioError::from)
    }

    async fn sync(&self) -> Result<IoOpStats, ScenarioError> {
        Ok(CachedFileSystem::sync(self).await)
    }

    fn start_background(&self) {
        self.memory_manager().spawn_periodical_flusher();
    }

    fn stop_background(&self) {
        self.memory_manager().stop();
    }

    fn release_anonymous_memory(&self, amount: f64) {
        self.memory_manager().release_anonymous_memory(amount);
    }

    fn sample_memory(&self) -> Option<MemorySample> {
        Some(self.memory_manager().sample())
    }

    fn memory_trace(&self) -> Option<pagecache::MemoryTrace> {
        Some(self.memory_manager().trace())
    }

    fn cache_snapshot(&self, label: &str) -> Option<pagecache::CacheContentSnapshot> {
        Some(self.memory_manager().cache_content_snapshot(label))
    }

    fn writeback_counters(&self) -> Option<WritebackCounters> {
        let c = self.memory_manager().counters();
        Some(WritebackCounters {
            background_flushed: c.flushed_background,
            synchronous_flushed: c.flushed_on_demand,
            evicted: c.evicted,
        })
    }

    fn set_file_group(&self, file: &FileId, group: u32) {
        self.memory_manager().set_file_group(file, Some(group));
    }

    async fn enforce_group_limits(&self, group: u32, max_bytes: f64, max_dirty: f64) -> (f64, f64) {
        self.memory_manager()
            .enforce_group_limits(group, max_bytes, max_dirty)
            .await
    }

    fn crash(&self) -> CrashReport {
        // The macroscopic model tracks dirty *amounts*, not positions: the
        // durable part of each file is approximated as its leading span.
        let lost: BTreeMap<_, _> = self.memory_manager().crash_discard().into_iter().collect();
        CrashReport {
            files: self
                .registry()
                .list()
                .into_iter()
                .map(|(file, size)| {
                    let dirty = lost.get(&file).copied().unwrap_or(0.0);
                    (file, FileDurability::from_dirty_amount(size, dirty))
                })
                .collect(),
        }
    }

    fn kind_label(&self) -> &'static str {
        "cached-local"
    }
}

impl IoBackend for DirectFileSystem {
    fn create_file(&self, file: &FileId, size: f64) -> Result<(), ScenarioError> {
        DirectFileSystem::create_file(self, file, size).map_err(ScenarioError::from)
    }

    async fn read_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ScenarioError> {
        DirectFileSystem::read_range(self, file, offset, len)
            .await
            .map_err(ScenarioError::from)
    }

    async fn write_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ScenarioError> {
        DirectFileSystem::write_range(self, file, offset, len)
            .await
            .map_err(ScenarioError::from)
    }

    async fn write_file(&self, file: &FileId, size: f64) -> Result<IoOpStats, ScenarioError> {
        DirectFileSystem::write_file(self, file, size)
            .await
            .map_err(ScenarioError::from)
    }

    async fn fsync(&self, file: &FileId) -> Result<IoOpStats, ScenarioError> {
        DirectFileSystem::fsync(self, file)
            .await
            .map_err(ScenarioError::from)
    }

    async fn sync(&self) -> Result<IoOpStats, ScenarioError> {
        Ok(DirectFileSystem::sync(self).await)
    }

    fn crash(&self) -> CrashReport {
        // Every write went straight to the disk: nothing to lose.
        CrashReport::all_durable(self.registry().list())
    }

    fn kind_label(&self) -> &'static str {
        "direct-local"
    }
}

impl IoBackend for NfsFileSystem {
    fn create_file(&self, file: &FileId, size: f64) -> Result<(), ScenarioError> {
        NfsFileSystem::create_file(self, file, size).map_err(ScenarioError::from)
    }

    async fn read_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ScenarioError> {
        NfsFileSystem::read_range(self, file, offset, len)
            .await
            .map_err(ScenarioError::from)
    }

    async fn write_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ScenarioError> {
        NfsFileSystem::write_range(self, file, offset, len)
            .await
            .map_err(ScenarioError::from)
    }

    async fn write_file(&self, file: &FileId, size: f64) -> Result<IoOpStats, ScenarioError> {
        NfsFileSystem::write_file(self, file, size)
            .await
            .map_err(ScenarioError::from)
    }

    async fn fsync(&self, file: &FileId) -> Result<IoOpStats, ScenarioError> {
        NfsFileSystem::fsync(self, file)
            .await
            .map_err(ScenarioError::from)
    }

    async fn sync(&self) -> Result<IoOpStats, ScenarioError> {
        Ok(NfsFileSystem::sync(self).await)
    }

    fn release_anonymous_memory(&self, amount: f64) {
        self.client_memory_manager()
            .release_anonymous_memory(amount);
    }

    fn sample_memory(&self) -> Option<MemorySample> {
        Some(self.client_memory_manager().sample())
    }

    fn memory_trace(&self) -> Option<pagecache::MemoryTrace> {
        Some(self.client_memory_manager().trace())
    }

    fn cache_snapshot(&self, label: &str) -> Option<pagecache::CacheContentSnapshot> {
        Some(self.client_memory_manager().cache_content_snapshot(label))
    }

    fn writeback_counters(&self) -> Option<WritebackCounters> {
        let c = self.client_memory_manager().counters();
        Some(WritebackCounters {
            background_flushed: c.flushed_background,
            synchronous_flushed: c.flushed_on_demand,
            evicted: c.evicted,
        })
    }

    fn crash(&self) -> CrashReport {
        // No client write cache and a writethrough server: only the warm
        // read caches are lost, every written byte is already durable.
        self.client_memory_manager().crash_discard();
        self.server().memory_manager().crash_discard();
        CrashReport::all_durable(self.registry().list())
    }

    fn kind_label(&self) -> &'static str {
        "nfs"
    }
}

impl IoBackend for KernelFileSystem {
    fn create_file(&self, file: &FileId, size: f64) -> Result<(), ScenarioError> {
        KernelFileSystem::create_file(self, file, size).map_err(ScenarioError::from)
    }

    async fn read_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ScenarioError> {
        KernelFileSystem::read_range(self, file, offset, len)
            .await
            .map_err(ScenarioError::from)
    }

    async fn write_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ScenarioError> {
        KernelFileSystem::write_range(self, file, offset, len)
            .await
            .map_err(ScenarioError::from)
    }

    async fn write_file(&self, file: &FileId, size: f64) -> Result<IoOpStats, ScenarioError> {
        KernelFileSystem::write_file(self, file, size)
            .await
            .map_err(ScenarioError::from)
    }

    async fn fsync(&self, file: &FileId) -> Result<IoOpStats, ScenarioError> {
        KernelFileSystem::fsync(self, file)
            .await
            .map_err(ScenarioError::from)
    }

    async fn sync(&self) -> Result<IoOpStats, ScenarioError> {
        Ok(KernelFileSystem::sync(self).await)
    }

    fn start_background(&self) {
        self.cache().spawn_writeback_threads();
    }

    fn stop_background(&self) {
        self.cache().stop();
    }

    fn release_anonymous_memory(&self, amount: f64) {
        self.cache().release_anonymous_memory(amount);
    }

    fn sample_memory(&self) -> Option<MemorySample> {
        Some(self.cache().sample())
    }

    fn memory_trace(&self) -> Option<pagecache::MemoryTrace> {
        Some(self.cache().trace())
    }

    fn cache_snapshot(&self, label: &str) -> Option<pagecache::CacheContentSnapshot> {
        Some(self.cache().cache_content_snapshot(label))
    }

    fn writeback_counters(&self) -> Option<WritebackCounters> {
        let c = self.cache().counters();
        Some(WritebackCounters {
            background_flushed: c.background_writeback,
            synchronous_flushed: c.throttled_writeback,
            evicted: c.evicted,
        })
    }

    fn set_file_group(&self, file: &FileId, group: u32) {
        self.cache().set_file_group(file, Some(group));
    }

    async fn enforce_group_limits(&self, group: u32, max_bytes: f64, max_dirty: f64) -> (f64, f64) {
        self.cache()
            .enforce_group_limits(group, max_bytes, max_dirty)
            .await
    }

    fn crash(&self) -> CrashReport {
        // The emulator keeps a byte-exact dirty-range ledger: the durable
        // ranges are its complement within each file.
        let lost: BTreeMap<_, _> = self.cache().crash_discard().into_iter().collect();
        CrashReport {
            files: self
                .list_files()
                .into_iter()
                .map(|(file, size)| {
                    let ranges = lost.get(&file).map(Vec::as_slice).unwrap_or(&[]);
                    (file, FileDurability::from_lost_ranges(size, ranges))
                })
                .collect(),
        }
    }

    fn kind_label(&self) -> &'static str {
        "kernel-emu"
    }
}

/// A cacheless NFS mount (vanilla WRENCH with remote storage): every access is
/// a network transfer plus a server disk access.
#[derive(Clone)]
pub struct DirectNfs {
    ctx: SimContext,
    link: NetworkLink,
    server_disk: Disk,
    registry: simfs::FileRegistry,
}

impl DirectNfs {
    fn new(ctx: &SimContext, link: NetworkLink, server_disk: Disk) -> Self {
        DirectNfs {
            ctx: ctx.clone(),
            link,
            server_disk,
            registry: simfs::FileRegistry::new(),
        }
    }
}

impl IoBackend for DirectNfs {
    fn create_file(&self, file: &FileId, size: f64) -> Result<(), ScenarioError> {
        self.server_disk
            .allocate(size)
            .map_err(FsError::from)
            .map_err(ScenarioError::from)?;
        self.registry
            .create(file, size)
            .map_err(ScenarioError::from)
    }

    async fn read_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ScenarioError> {
        let size = self.registry.size(file).map_err(ScenarioError::from)?;
        let (_start, amount) = clamp_io_range(offset, len, size);
        let start = self.ctx.now();
        if amount > 0.0 {
            self.server_disk.read(amount).await;
            self.link.transfer(amount).await;
        }
        Ok(IoOpStats {
            bytes_from_disk: amount,
            duration: self.ctx.now().duration_since(start),
            ..IoOpStats::default()
        })
    }

    async fn write_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ScenarioError> {
        let (_offset, len) = extend_for_write(&self.registry, &self.server_disk, file, offset, len)
            .map_err(ScenarioError::from)?;
        let start = self.ctx.now();
        if len > 0.0 {
            self.link.transfer(len).await;
            self.server_disk.write(len).await;
        }
        Ok(IoOpStats {
            bytes_to_disk: len,
            duration: self.ctx.now().duration_since(start),
            ..IoOpStats::default()
        })
    }

    async fn write_file(&self, file: &FileId, size: f64) -> Result<IoOpStats, ScenarioError> {
        // Whole-file writes replace the registration (truncate semantics),
        // consistent with every other back-end's `write_file`.
        if !size.is_finite() {
            return Err(ScenarioError::Filesystem(FsError::InvalidRange {
                offset: 0.0,
                len: size,
            }));
        }
        if let Some(old) = self.registry.create_or_replace(file, size) {
            self.server_disk.free(old);
        }
        self.server_disk
            .allocate(size)
            .map_err(FsError::from)
            .map_err(ScenarioError::from)?;
        let start = self.ctx.now();
        self.link.transfer(size).await;
        self.server_disk.write(size).await;
        Ok(IoOpStats {
            bytes_to_disk: size,
            duration: self.ctx.now().duration_since(start),
            ..IoOpStats::default()
        })
    }

    async fn fsync(&self, file: &FileId) -> Result<IoOpStats, ScenarioError> {
        self.registry.size(file).map_err(ScenarioError::from)?;
        Ok(IoOpStats::default())
    }

    async fn sync(&self) -> Result<IoOpStats, ScenarioError> {
        Ok(IoOpStats::default())
    }

    fn crash(&self) -> CrashReport {
        // Writes are synchronous writethrough transfers: all durable.
        CrashReport::all_durable(self.registry.list())
    }

    fn kind_label(&self) -> &'static str {
        "direct-nfs"
    }
}

/// A fully constructed simulation back-end. Every variant implements
/// [`IoBackend`]; the enum forwards each call through one dispatch macro so
/// the runner stays monomorphic without per-method match duplication.
#[derive(Clone)]
pub enum Backend {
    /// Local filesystem with page caching (WRENCH-cache behaviour).
    Cached(CachedFileSystem),
    /// Local filesystem without page caching (vanilla WRENCH behaviour).
    Direct(DirectFileSystem),
    /// NFS mount (client read cache, writethrough server).
    Nfs(NfsFileSystem),
    /// The kernel-fidelity emulator.
    Kernel(KernelFileSystem),
    /// Cacheless remote storage.
    DirectNfs(DirectNfs),
    /// One client's view of a replicated storage fleet (see [`crate::net`]).
    Fleet(FleetClient),
}

/// Forwards one method call to whichever filesystem the back-end holds.
macro_rules! dispatch {
    ($self:expr, $b:ident => $body:expr) => {
        match $self {
            Backend::Cached($b) => $body,
            Backend::Direct($b) => $body,
            Backend::Nfs($b) => $body,
            Backend::Kernel($b) => $body,
            Backend::DirectNfs($b) => $body,
            Backend::Fleet($b) => $body,
        }
    };
}

impl IoBackend for Backend {
    // The concrete filesystems keep inherent methods with the same names as
    // the trait's (their crate-local, structured-error API), so the forwards
    // below use UFCS to target the trait impls unambiguously.
    fn create_file(&self, file: &FileId, size: f64) -> Result<(), ScenarioError> {
        dispatch!(self, b => IoBackend::create_file(b, file, size))
    }

    async fn read_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ScenarioError> {
        dispatch!(self, b => IoBackend::read_range(b, file, offset, len).await)
    }

    async fn write_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ScenarioError> {
        dispatch!(self, b => IoBackend::write_range(b, file, offset, len).await)
    }

    async fn fsync(&self, file: &FileId) -> Result<IoOpStats, ScenarioError> {
        dispatch!(self, b => IoBackend::fsync(b, file).await)
    }

    async fn sync(&self) -> Result<IoOpStats, ScenarioError> {
        dispatch!(self, b => IoBackend::sync(b).await)
    }

    async fn read_file(&self, file: &FileId) -> Result<IoOpStats, ScenarioError> {
        dispatch!(self, b => IoBackend::read_file(b, file).await)
    }

    async fn write_file(&self, file: &FileId, size: f64) -> Result<IoOpStats, ScenarioError> {
        dispatch!(self, b => IoBackend::write_file(b, file, size).await)
    }

    fn start_background(&self) {
        dispatch!(self, b => b.start_background())
    }

    fn stop_background(&self) {
        dispatch!(self, b => b.stop_background())
    }

    fn release_anonymous_memory(&self, amount: f64) {
        dispatch!(self, b => b.release_anonymous_memory(amount))
    }

    fn sample_memory(&self) -> Option<MemorySample> {
        dispatch!(self, b => b.sample_memory())
    }

    fn memory_trace(&self) -> Option<pagecache::MemoryTrace> {
        dispatch!(self, b => b.memory_trace())
    }

    fn cache_snapshot(&self, label: &str) -> Option<pagecache::CacheContentSnapshot> {
        dispatch!(self, b => b.cache_snapshot(label))
    }

    fn writeback_counters(&self) -> Option<WritebackCounters> {
        dispatch!(self, b => b.writeback_counters())
    }

    fn set_file_group(&self, file: &FileId, group: u32) {
        dispatch!(self, b => IoBackend::set_file_group(b, file, group))
    }

    async fn enforce_group_limits(&self, group: u32, max_bytes: f64, max_dirty: f64) -> (f64, f64) {
        dispatch!(self, b => IoBackend::enforce_group_limits(b, group, max_bytes, max_dirty).await)
    }

    fn crash(&self) -> CrashReport {
        dispatch!(self, b => IoBackend::crash(b))
    }

    fn kind_label(&self) -> &'static str {
        dispatch!(self, b => b.kind_label())
    }
}

impl Backend {
    /// Builds the devices and filesystem for a platform and simulator kind.
    pub fn build(
        ctx: &SimContext,
        platform: &PlatformSpec,
        kind: SimulatorKind,
    ) -> Result<Backend, ScenarioError> {
        platform
            .validate()
            .map_err(ScenarioError::InvalidPlatform)?;
        let devices = match kind {
            SimulatorKind::KernelEmu => platform.real,
            _ => platform.simulated,
        };
        let devices = match kind {
            SimulatorKind::Prototype => DeviceSet {
                memory: devices.memory.without_contention(),
                disk: devices.disk.without_contention(),
                remote_disk: devices.remote_disk.without_contention(),
                ..devices
            },
            _ => devices,
        };
        let memory = MemoryDevice::new(ctx, devices.memory);
        let disk = Disk::new(ctx, "local-disk", devices.disk);

        let cache_config = |write_through: bool, total: f64| {
            let mut cfg = PageCacheConfig::with_memory(total)
                .with_dirty_ratio(platform.dirty_ratio)
                .with_dirty_expire(platform.dirty_expire)
                .with_flush_interval(platform.flush_interval)
                .with_eviction_policy(platform.eviction_policy);
            if write_through {
                cfg = cfg.writethrough();
            }
            cfg
        };

        match (platform.storage, kind) {
            (StorageKind::Local, SimulatorKind::Cacheless) => {
                Ok(Backend::Direct(DirectFileSystem::new(ctx, disk)))
            }
            (StorageKind::Local, SimulatorKind::PageCache | SimulatorKind::Prototype) => {
                let mm = MemoryManager::new(
                    ctx,
                    cache_config(false, platform.host_memory),
                    memory,
                    disk.clone(),
                );
                let io = IoController::new(ctx, mm).with_chunk_size(platform.chunk_size);
                Ok(Backend::Cached(CachedFileSystem::new(io, disk)))
            }
            (StorageKind::Local, SimulatorKind::KernelEmu) => {
                let mut tuning = KernelTuning::with_memory(platform.host_memory);
                tuning.dirty_ratio = platform.dirty_ratio;
                tuning.dirty_background_ratio = platform.dirty_background_ratio;
                tuning.dirty_expire = platform.dirty_expire;
                tuning.writeback_interval = platform.flush_interval;
                tuning.readahead_min = platform.readahead_min;
                tuning.readahead_max = platform.readahead_max;
                tuning.throttle_pacing = platform.throttle_pacing;
                tuning.eviction_policy = platform.eviction_policy;
                let cache = KernelCache::new(ctx, tuning, memory, disk.clone());
                Ok(Backend::Kernel(
                    KernelFileSystem::new(ctx, cache, disk).with_request_size(platform.chunk_size),
                ))
            }
            (StorageKind::Nfs, SimulatorKind::Cacheless) => {
                let link =
                    degenerate_nfs_link(ctx, devices.network_bandwidth, devices.network_latency);
                let server_disk = Disk::new(ctx, "nfs-server-disk", devices.remote_disk);
                Ok(Backend::DirectNfs(DirectNfs::new(ctx, link, server_disk)))
            }
            (StorageKind::Nfs, SimulatorKind::PageCache | SimulatorKind::KernelEmu) => {
                // The ground truth for NFS uses the same macroscopic NFS model
                // but with the measured bandwidths: the cache-relevant kernel
                // behaviours (dirty thresholds, write protection) play no role
                // because the server cache is writethrough and the client has
                // no write cache.
                let client_mm = MemoryManager::new(
                    ctx,
                    cache_config(false, platform.host_memory),
                    memory,
                    disk,
                );
                let server_memory = MemoryDevice::new(ctx, devices.memory);
                let server_disk = Disk::new(ctx, "nfs-server-disk", devices.remote_disk);
                let server_mm = MemoryManager::new(
                    ctx,
                    cache_config(true, platform.server_memory),
                    server_memory,
                    server_disk,
                );
                let link =
                    degenerate_nfs_link(ctx, devices.network_bandwidth, devices.network_latency);
                let server = NfsServer::new(IoController::new(ctx, server_mm));
                Ok(Backend::Nfs(
                    NfsFileSystem::new(ctx, client_mm, link, server)
                        .with_chunk_size(platform.chunk_size),
                ))
            }
            (StorageKind::Nfs, SimulatorKind::Prototype) => Err(ScenarioError::Unsupported(
                "the Python prototype does not simulate network filesystems".to_string(),
            )),
            (StorageKind::Fleet, SimulatorKind::PageCache) => {
                let spec = platform.fleet.as_ref().ok_or_else(|| {
                    ScenarioError::InvalidPlatform(
                        "fleet storage requires a fleet spec (see with_fleet)".to_string(),
                    )
                })?;
                Ok(Backend::Fleet(FleetClient::build(
                    ctx, platform, &devices, spec,
                )?))
            }
            (StorageKind::Fleet, _) => Err(ScenarioError::Unsupported(
                "the replicated storage fleet is modelled only by the page-cache simulator"
                    .to_string(),
            )),
        }
    }

    /// The back-end view for application instance `instance`: the fleet
    /// homes instances on client hosts round-robin; every other back-end is
    /// host-wide shared state and is returned as a plain clone.
    pub fn for_instance(&self, instance: usize) -> Backend {
        match self {
            Backend::Fleet(fleet) => Backend::Fleet(fleet.for_client(instance)),
            other => other.clone(),
        }
    }

    /// The storage fleet behind this back-end, if it is a fleet.
    pub fn fleet(&self) -> Option<&FleetClient> {
        match self {
            Backend::Fleet(fleet) => Some(fleet),
            _ => None,
        }
    }

    /// The network-tier statistics, if this back-end has a network tier.
    pub fn net_report(&self) -> Option<NetReport> {
        self.fleet().map(FleetClient::net_report)
    }
}

/// The legacy one-client/one-server NFS topology, expressed as a degenerate
/// fabric: two hosts joined by one link. The link's shared channel is
/// constructed with exactly the same parameters as the historical
/// `NetworkLink`, so NFS predictions are bit-identical.
fn degenerate_nfs_link(ctx: &SimContext, bandwidth: f64, latency: f64) -> NetworkLink {
    let fabric = Fabric::new(ctx);
    fabric.add_host("client");
    fabric.add_host("server");
    fabric.add_link("nfs-link", bandwidth, latency);
    fabric.add_route("client", "server", "nfs-link");
    NetworkLink::from_channel(fabric.link_channel("nfs-link").expect("link just added"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::Simulation;
    use storage_model::units::{GB, MB};
    use storage_model::DeviceSpec;

    fn platform() -> PlatformSpec {
        PlatformSpec::uniform(
            8.0 * GB,
            DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
            DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
        )
    }

    #[test]
    fn build_all_local_backends() {
        let sim = Simulation::new();
        let ctx = sim.context();
        for kind in SimulatorKind::all() {
            let backend = Backend::build(&ctx, &platform(), kind).unwrap();
            // Cacheless has no memory model; the others do.
            let has_memory = backend.sample_memory().is_some();
            assert_eq!(has_memory, kind != SimulatorKind::Cacheless, "{kind:?}");
        }
    }

    #[test]
    fn build_nfs_backends() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let platform = platform().with_nfs();
        for kind in [
            SimulatorKind::Cacheless,
            SimulatorKind::PageCache,
            SimulatorKind::KernelEmu,
        ] {
            let backend = Backend::build(&ctx, &platform, kind).unwrap();
            backend.create_file(&"f".into(), 100.0 * MB).unwrap();
        }
        assert!(matches!(
            Backend::build(&ctx, &platform, SimulatorKind::Prototype),
            Err(ScenarioError::Unsupported(_))
        ));
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<&str> = SimulatorKind::all().iter().map(|k| k.label()).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }

    #[test]
    fn direct_nfs_read_write_times() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let platform = platform().with_nfs();
        let backend = Backend::build(&ctx, &platform, SimulatorKind::Cacheless).unwrap();
        backend.create_file(&"f".into(), 465.0 * MB).unwrap();
        let h = sim.spawn({
            let backend = backend.clone();
            async move {
                let r = backend.read_file(&"f".into()).await.unwrap();
                let w = backend.write_file(&"g".into(), 465.0 * MB).await.unwrap();
                (r.duration, w.duration)
            }
        });
        sim.run();
        let (r, w) = h.try_take_result().unwrap();
        // disk (1 s) + network (0.155 s), both directions.
        assert!((r - 1.155).abs() < 0.01, "read {r}");
        assert!((w - 1.155).abs() < 0.01, "write {w}");
    }

    #[test]
    fn whole_file_ops_are_range_corollaries() {
        for kind in SimulatorKind::all() {
            let sim = Simulation::new();
            let ctx = sim.context();
            let backend = Backend::build(&ctx, &platform(), kind).unwrap();
            backend.create_file(&"f".into(), 400.0 * MB).unwrap();
            let h = sim.spawn({
                let backend = backend.clone();
                async move {
                    let whole = backend.read_file(&"f".into()).await.unwrap();
                    backend.release_anonymous_memory(400.0 * MB);
                    let range = backend
                        .read_range(&"f".into(), 0.0, f64::INFINITY)
                        .await
                        .unwrap();
                    (whole, range)
                }
            });
            sim.run();
            let (whole, range) = h.try_take_result().unwrap();
            assert_eq!(whole.bytes_from_disk, 400.0 * MB, "{kind:?}");
            assert_eq!(whole.bytes_from_disk + whole.bytes_from_cache, 400.0 * MB);
            // The second whole read goes through the same range path.
            assert_eq!(
                range.bytes_from_disk + range.bytes_from_cache,
                400.0 * MB,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn fsync_semantics_per_backend() {
        // Writeback back-ends flush on fsync; synchronous ones report 0.
        for (kind, expect_flush) in [
            (SimulatorKind::Cacheless, false),
            (SimulatorKind::PageCache, true),
            (SimulatorKind::KernelEmu, true),
        ] {
            let sim = Simulation::new();
            let ctx = sim.context();
            let backend = Backend::build(&ctx, &platform(), kind).unwrap();
            let h = sim.spawn({
                let backend = backend.clone();
                async move {
                    backend
                        .write_range(&"f".into(), 0.0, 200.0 * MB)
                        .await
                        .unwrap();
                    backend.fsync(&"f".into()).await.unwrap()
                }
            });
            sim.run();
            let stats = h.try_take_result().unwrap();
            if expect_flush {
                assert!(
                    (stats.bytes_to_disk - 200.0 * MB).abs() < MB,
                    "{kind:?}: fsync flushed {}",
                    stats.bytes_to_disk
                );
            } else {
                assert_eq!(stats.bytes_to_disk, 0.0, "{kind:?}");
            }
        }
        // NFS mounts are writethrough: fsync is a no-op.
        let sim = Simulation::new();
        let ctx = sim.context();
        let backend =
            Backend::build(&ctx, &platform().with_nfs(), SimulatorKind::PageCache).unwrap();
        let h = sim.spawn({
            let backend = backend.clone();
            async move {
                backend
                    .write_range(&"f".into(), 0.0, 100.0 * MB)
                    .await
                    .unwrap();
                backend.fsync(&"f".into()).await.unwrap()
            }
        });
        sim.run();
        assert_eq!(h.try_take_result().unwrap().bytes_to_disk, 0.0);
    }

    #[test]
    fn write_file_truncates_uniformly_across_backends() {
        // Whole-file rewrite with a smaller size: every back-end replaces
        // the registration (truncate semantics), so a later whole read sees
        // the new size.
        for (kind, nfs) in [
            (SimulatorKind::Cacheless, false),
            (SimulatorKind::PageCache, false),
            (SimulatorKind::KernelEmu, false),
            (SimulatorKind::PageCache, true),
            (SimulatorKind::Cacheless, true),
        ] {
            let sim = Simulation::new();
            let ctx = sim.context();
            let p = if nfs {
                platform().with_nfs()
            } else {
                platform()
            };
            let backend = Backend::build(&ctx, &p, kind).unwrap();
            let h = sim.spawn({
                let backend = backend.clone();
                async move {
                    backend.write_file(&"f".into(), 500.0 * MB).await.unwrap();
                    backend.write_file(&"f".into(), 100.0 * MB).await.unwrap();
                    backend.release_anonymous_memory(600.0 * MB);
                    backend.read_file(&"f".into()).await.unwrap()
                }
            });
            sim.run();
            let read = h.try_take_result().unwrap();
            let total = read.bytes_from_disk + read.bytes_from_cache;
            assert!(
                (total - 100.0 * MB).abs() < MB,
                "{kind:?} nfs={nfs}: whole read saw {total} bytes"
            );
        }
    }

    #[test]
    fn non_finite_write_ranges_are_rejected() {
        for kind in SimulatorKind::all() {
            let sim = Simulation::new();
            let ctx = sim.context();
            let backend = Backend::build(&ctx, &platform(), kind).unwrap();
            let h = sim.spawn({
                let backend = backend.clone();
                async move {
                    let inf_len = backend.write_range(&"f".into(), 0.0, f64::INFINITY).await;
                    let nan_off = backend.write_range(&"f".into(), f64::NAN, 10.0).await;
                    let inf_file = backend.write_file(&"f".into(), f64::INFINITY).await;
                    (inf_len, nan_off, inf_file)
                }
            });
            sim.run();
            let (inf_len, nan_off, inf_file) = h.try_take_result().unwrap();
            for (what, r) in [
                ("len=inf", inf_len),
                ("offset=nan", nan_off),
                ("size=inf", inf_file),
            ] {
                assert!(
                    matches!(
                        r,
                        Err(ScenarioError::Filesystem(FsError::InvalidRange { .. }))
                    ),
                    "{kind:?} {what}: {r:?}"
                );
            }
        }
    }

    #[test]
    fn crash_durability_semantics_per_backend() {
        // 200 MB written without fsync: lost on writeback back-ends, durable
        // on synchronous/writethrough ones. A second file is fsync'd and must
        // survive everywhere.
        for (kind, nfs, expect_lost) in [
            (SimulatorKind::Cacheless, false, false),
            (SimulatorKind::PageCache, false, true),
            (SimulatorKind::Prototype, false, true),
            (SimulatorKind::KernelEmu, false, true),
            (SimulatorKind::PageCache, true, false),
            (SimulatorKind::KernelEmu, true, false),
            (SimulatorKind::Cacheless, true, false),
        ] {
            let sim = Simulation::new();
            let ctx = sim.context();
            let p = if nfs {
                platform().with_nfs()
            } else {
                platform()
            };
            let backend = Backend::build(&ctx, &p, kind).unwrap();
            let h = sim.spawn({
                let backend = backend.clone();
                async move {
                    backend
                        .write_range(&"dirty".into(), 0.0, 200.0 * MB)
                        .await
                        .unwrap();
                    backend
                        .write_range(&"synced".into(), 0.0, 100.0 * MB)
                        .await
                        .unwrap();
                    backend.fsync(&"synced".into()).await.unwrap();
                    backend.crash()
                }
            });
            sim.run();
            let report = h.try_take_result().unwrap();
            let ctx_label = format!("{kind:?} nfs={nfs}");
            let dirty = &report.files[&"dirty".into()];
            let synced = &report.files[&"synced".into()];
            assert_eq!(
                synced.lost_bytes, 0.0,
                "{ctx_label}: fsync'd file lost data"
            );
            assert!(
                (synced.durable_bytes - 100.0 * MB).abs() < MB,
                "{ctx_label}: fsync'd file durable {}",
                synced.durable_bytes
            );
            if expect_lost {
                assert!(
                    (dirty.lost_bytes - 200.0 * MB).abs() < MB,
                    "{ctx_label}: expected the unsynced file lost, got {}",
                    dirty.lost_bytes
                );
                assert_eq!(dirty.durable_bytes, 0.0, "{ctx_label}");
            } else {
                assert_eq!(dirty.lost_bytes, 0.0, "{ctx_label}");
                assert!(
                    (dirty.durable_bytes - 200.0 * MB).abs() < MB,
                    "{ctx_label}: {}",
                    dirty.durable_bytes
                );
            }
            // The cache is cold after the crash: nothing is sampled as used.
            if let Some(sample) = backend.sample_memory() {
                assert!(sample.cached < MB, "{ctx_label}: cache survived the crash");
                assert!(sample.dirty < MB, "{ctx_label}");
            }
        }
    }

    #[test]
    fn kernel_crash_reports_byte_exact_durable_ranges() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let backend = Backend::build(&ctx, &platform(), SimulatorKind::KernelEmu).unwrap();
        backend.create_file(&"f".into(), 400.0 * MB).unwrap();
        let h = sim.spawn({
            let backend = backend.clone();
            async move {
                // Dirty two disjoint ranges of a durable file.
                backend
                    .write_range(&"f".into(), 50.0 * MB, 50.0 * MB)
                    .await
                    .unwrap();
                backend
                    .write_range(&"f".into(), 300.0 * MB, 20.0 * MB)
                    .await
                    .unwrap();
                backend.crash()
            }
        });
        sim.run();
        let report = h.try_take_result().unwrap();
        let f = &report.files[&"f".into()];
        assert_eq!(
            f.durable_ranges,
            vec![
                (0.0, 50.0 * MB),
                (100.0 * MB, 300.0 * MB),
                (320.0 * MB, 400.0 * MB)
            ]
        );
        assert_eq!(f.lost_bytes, 70.0 * MB);
        assert_eq!(f.durable_bytes, 330.0 * MB);
    }

    #[test]
    fn fsync_of_missing_file_is_an_error() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let backend = Backend::build(&ctx, &platform(), SimulatorKind::PageCache).unwrap();
        let h = sim.spawn({
            let backend = backend.clone();
            async move { backend.fsync(&"missing".into()).await }
        });
        sim.run();
        assert!(matches!(
            h.try_take_result().unwrap(),
            Err(ScenarioError::Filesystem(FsError::FileNotFound(_)))
        ));
    }

    #[test]
    fn invalid_platform_is_rejected() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let mut p = platform();
        p.host_memory = -1.0;
        assert!(matches!(
            Backend::build(&ctx, &p, SimulatorKind::PageCache),
            Err(ScenarioError::InvalidPlatform(_))
        ));
    }

    #[test]
    fn structured_errors_preserve_the_cause() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let backend = Backend::build(&ctx, &platform(), SimulatorKind::KernelEmu).unwrap();
        let h = sim.spawn({
            let backend = backend.clone();
            async move { backend.read_file(&"nope".into()).await }
        });
        sim.run();
        match h.try_take_result().unwrap() {
            Err(ScenarioError::Filesystem(FsError::FileNotFound(f))) => {
                assert_eq!(f.name(), "nope");
            }
            other => panic!("expected a structured file-not-found error, got {other:?}"),
        }
    }
}
