//! Simulator back-ends: the four ways a scenario can be executed, served
//! through one [`Backend`] enum.
//!
//! | Back-end | Paper counterpart | Devices | Page cache |
//! |---|---|---|---|
//! | [`SimulatorKind::Cacheless`] | vanilla WRENCH | simulated (symmetric) | none |
//! | [`SimulatorKind::Prototype`] | Python prototype | simulated, no bandwidth sharing | macroscopic model |
//! | [`SimulatorKind::PageCache`] | WRENCH-cache | simulated (symmetric) | macroscopic model |
//! | [`SimulatorKind::KernelEmu`] | the real cluster | measured (asymmetric) | page-granularity emulator |
//!
//! [`Backend::build`] picks and constructs the filesystem for a
//! platform/simulator combination: one of the two `simfs` filesystems
//! ([`CachedFileSystem`], or [`DirectFileSystem`] — local, or mounted over
//! an NFS link for cacheless NFS), the kernel emulator
//! ([`KernelFileSystem`]), or the storage fleet ([`crate::net::FleetClient`]):
//! replicated for [`StorageKind::Fleet`] platforms, and one client and one
//! writethrough server for cached NFS ([`StorageKind::Nfs`]).
//! Each [`Backend`] method matches on the variant and calls that
//! filesystem's own method, so the runner stays monomorphic (no `dyn`) and
//! each operation's per-back-end semantics sit in one `match`.
//!
//! ## `fsync` semantics per back-end
//!
//! | Back-end | `fsync(file)` | `sync` |
//! |---|---|---|
//! | cached local | targeted per-file dirty writeback at disk bandwidth | flush all dirty data |
//! | direct (local or NFS) | no-op (writes are synchronous) | no-op |
//! | kernel emulator | per-file dirty-page writeback, counted as throttled writeback | flush all dirty pages |
//! | fleet | flush the file on every reachable replica (write-back servers) | flush all reachable servers |
//! | fleet on NFS | flushes nothing (no client write cache; writethrough server) | flushes nothing |

use std::collections::BTreeMap;

use des::SimContext;
use kernel_emu::{KernelCache, KernelFileSystem};
use pagecache::{
    CacheContentSnapshot, FileId, FsError, IoController, IoOpStats, MemoryManager, MemorySample,
    MemoryTrace,
};
use simfs::{CachedFileSystem, DirectFileSystem};
use storage_model::{Disk, MemoryDevice, NetworkLink};

use crate::faults::{CrashReport, FileDurability, InjectedFault};
use crate::net::{FleetClient, FleetSpec, NetReport};
use crate::platform::{DeviceSet, PlatformSpec, StorageKind};
use crate::report::{ProfileStats, WritebackCounters};

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

/// A fully constructed simulation back-end: one variant per filesystem.
///
/// Every operation is an inherent method that matches on the variant and
/// calls that filesystem's own method, so each operation's per-back-end
/// semantics (see the module-level tables) sit in one `match`. Async
/// methods return `!Send` futures: the DES engine is single-threaded and
/// the filesystems share `Rc` state.
///
/// The async methods box the [`Backend::Fleet`] arm. A future is as large
/// as its largest arm, and the fleet's are far larger than the others (a
/// read is about 3 KB against at most 520 B: it holds the replica walk,
/// the link transfers and the retries). Unboxed, every back-end's read
/// would carry the fleet's size, and every traffic request, a spawned task
/// around one read or write, would allocate and copy it. Boxed, only a
/// fleet op pays one extra allocation.
#[derive(Clone)]
pub enum Backend {
    /// Local filesystem with page caching (WRENCH-cache behaviour).
    Cached(CachedFileSystem),
    /// Filesystem without page caching (vanilla WRENCH behaviour), local or
    /// mounted over an NFS link.
    Direct(DirectFileSystem),
    /// The kernel-fidelity emulator.
    Kernel(KernelFileSystem),
    /// One client's view of a storage fleet (see [`crate::net`]): a
    /// replicated fleet, or a cached NFS mount as one client and one
    /// writethrough server.
    Fleet(FleetClient),
}

impl Backend {
    /// Registers a pre-existing file without simulating any I/O. Every
    /// back-end rejects an invalid size and a name that is already
    /// registered ([`FsError::AlreadyExists`]) before allocating disk space.
    pub fn create_file(&self, file: &FileId, size: f64) -> Result<(), ScenarioError> {
        match self {
            Backend::Cached(fs) => fs.create_file(file, size)?,
            Backend::Direct(fs) => fs.create_file(file, size)?,
            Backend::Kernel(fs) => fs.create_file(file, size)?,
            Backend::Fleet(fleet) => fleet.create_file(file, size)?,
        }
        Ok(())
    }

    /// Reads `len` bytes of `file` starting at `offset` (`len =
    /// f64::INFINITY` reads to end of file; the range is clamped to the
    /// file).
    pub async fn read_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ScenarioError> {
        Ok(match self {
            Backend::Cached(fs) => fs.read_range(file, offset, len).await?,
            Backend::Direct(fs) => fs.read_range(file, offset, len).await?,
            Backend::Kernel(fs) => fs.read_range(file, offset, len).await?,
            Backend::Fleet(fleet) => Box::pin(fleet.read_range(file, offset, len)).await?,
        })
    }

    /// Writes `len` bytes at `offset`, creating the file or extending it to
    /// `offset + len` as needed. Range writes never shrink a file. A
    /// negative or non-finite offset or length is rejected with
    /// [`FsError::InvalidRange`] on every back-end.
    pub async fn write_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ScenarioError> {
        Ok(match self {
            Backend::Cached(fs) => fs.write_range(file, offset, len).await?,
            Backend::Direct(fs) => fs.write_range(file, offset, len).await?,
            Backend::Kernel(fs) => fs.write_range(file, offset, len).await?,
            Backend::Fleet(fleet) => Box::pin(fleet.write_range(file, offset, len)).await?,
        })
    }

    /// Flushes the file's dirty cached data to stable storage. A no-op on
    /// back-ends whose writes are already synchronous (see the module-level
    /// `fsync` table).
    pub async fn fsync(&self, file: &FileId) -> Result<IoOpStats, ScenarioError> {
        Ok(match self {
            Backend::Cached(fs) => fs.fsync(file).await?,
            Backend::Direct(fs) => fs.fsync(file).await?,
            Backend::Kernel(fs) => fs.fsync(file).await?,
            Backend::Fleet(fleet) => Box::pin(fleet.fsync(file)).await?,
        })
    }

    /// Flushes all dirty cached data of the host to stable storage.
    pub async fn sync(&self) -> Result<IoOpStats, ScenarioError> {
        Ok(match self {
            Backend::Cached(fs) => fs.sync().await,
            Backend::Direct(fs) => fs.sync().await,
            Backend::Kernel(fs) => fs.sync().await,
            Backend::Fleet(fleet) => Box::pin(fleet.sync()).await?,
        })
    }

    /// Starts the background flusher / writeback threads of the back-ends
    /// that write back (a fleet starts them on its write-back servers only).
    pub fn start_background(&self) {
        match self {
            Backend::Cached(fs) => {
                fs.memory_manager().spawn_periodical_flusher();
            }
            Backend::Kernel(fs) => {
                fs.cache().spawn_writeback_threads();
            }
            Backend::Fleet(fleet) => fleet.start_background(),
            Backend::Direct(_) => {}
        }
    }

    /// Stops the background threads so the simulation can terminate.
    pub fn stop_background(&self) {
        match self {
            Backend::Cached(fs) => fs.memory_manager().stop(),
            Backend::Kernel(fs) => fs.cache().stop(),
            Backend::Fleet(fleet) => fleet.stop_background(),
            Backend::Direct(_) => {}
        }
    }

    /// Releases anonymous memory used by the application (no-op on the
    /// cacheless back-end, which models no memory).
    pub fn release_anonymous_memory(&self, amount: f64) {
        match self {
            Backend::Cached(fs) => fs.memory_manager().release_anonymous_memory(amount),
            Backend::Kernel(fs) => fs.cache().release_anonymous_memory(amount),
            Backend::Fleet(fleet) => fleet
                .client_memory_manager()
                .release_anonymous_memory(amount),
            Backend::Direct(_) => {}
        }
    }

    /// Takes a memory sample of the (client) host; `None` on the cacheless
    /// back-end.
    pub fn sample_memory(&self) -> Option<MemorySample> {
        match self {
            Backend::Cached(fs) => Some(fs.memory_manager().sample()),
            Backend::Kernel(fs) => Some(fs.cache().sample()),
            Backend::Fleet(fleet) => Some(fleet.client_memory_manager().sample()),
            Backend::Direct(_) => None,
        }
    }

    /// The collected memory trace of the (client) host, if any.
    pub fn memory_trace(&self) -> Option<MemoryTrace> {
        match self {
            Backend::Cached(fs) => Some(fs.memory_manager().trace()),
            Backend::Kernel(fs) => Some(fs.cache().trace()),
            Backend::Fleet(fleet) => Some(fleet.client_memory_manager().trace()),
            Backend::Direct(_) => None,
        }
    }

    /// A labelled snapshot of the (client) cache content per file, if the
    /// back-end has a cache.
    pub fn cache_snapshot(&self, label: &str) -> Option<CacheContentSnapshot> {
        match self {
            Backend::Cached(fs) => Some(fs.memory_manager().cache_content_snapshot(label)),
            Backend::Kernel(fs) => Some(fs.cache().cache_content_snapshot(label)),
            Backend::Fleet(fleet) => {
                Some(fleet.client_memory_manager().cache_content_snapshot(label))
            }
            Backend::Direct(_) => None,
        }
    }

    /// Cumulative writeback/eviction counters of the back-end's page cache
    /// (the fleet sums its servers'), if it has one. These are the per-run
    /// statistics the sweep harness records next to the simulated times.
    pub fn writeback_counters(&self) -> Option<WritebackCounters> {
        match self {
            Backend::Cached(fs) => Some(model_writeback(fs.memory_manager())),
            Backend::Kernel(fs) => {
                let c = fs.cache().counters();
                Some(WritebackCounters {
                    background_flushed: c.background_writeback,
                    synchronous_flushed: c.throttled_writeback,
                    evicted: c.evicted,
                })
            }
            Backend::Fleet(fleet) => Some(fleet.writeback_counters()),
            Backend::Direct(_) => None,
        }
    }

    /// Work counters of the back-end's cache model and devices (the fleet
    /// sums its clients and servers); the engine's are left at zero.
    pub fn profile(&self) -> ProfileStats {
        match self {
            Backend::Cached(fs) => model_profile(fs.memory_manager()),
            Backend::Kernel(fs) => {
                let (cache, work) = (fs.cache(), fs.cache().work());
                ProfileStats {
                    evict_calls: work.evict_calls,
                    evict_visits: work.evict_visits,
                    writeback_calls: work.writeback_calls,
                    writeback_visits: work.writeback_visits,
                    flows_completed: cache.memory().completed_flows()
                        + cache.disk().completed_flows(),
                    ..ProfileStats::default()
                }
            }
            Backend::Fleet(fleet) => fleet.profile(),
            Backend::Direct(fs) => ProfileStats {
                flows_completed: fs.disk().completed_flows()
                    + fs.link().map_or(0, NetworkLink::completed_flows),
                ..ProfileStats::default()
            },
        }
    }

    /// Assigns `file` to a cache group (tenant) for memcg-style accounting.
    /// No-op on back-ends without a host-wide cache model.
    pub fn set_file_group(&self, file: &FileId, group: u32) {
        match self {
            Backend::Cached(fs) => fs.memory_manager().set_file_group(file, Some(group)),
            Backend::Kernel(fs) => fs.cache().set_file_group(file, Some(group)),
            Backend::Direct(_) | Backend::Fleet(_) => {}
        }
    }

    /// Enforces per-group cache limits: writes back the group's dirty bytes
    /// above `max_dirty` and evicts its cached bytes above `max_bytes`.
    /// Returns `(evicted, flushed)`; `(0.0, 0.0)` on back-ends without a
    /// host-wide cache model (every limit trivially holds).
    pub async fn enforce_group_limits(
        &self,
        group: u32,
        max_bytes: f64,
        max_dirty: f64,
    ) -> (f64, f64) {
        match self {
            Backend::Cached(fs) => {
                fs.memory_manager()
                    .enforce_group_limits(group, max_bytes, max_dirty)
                    .await
            }
            Backend::Kernel(fs) => {
                fs.cache()
                    .enforce_group_limits(group, max_bytes, max_dirty)
                    .await
            }
            Backend::Direct(_) | Backend::Fleet(_) => (0.0, 0.0),
        }
    }

    /// Simulated power loss: discards all volatile state (page cache,
    /// anonymous memory) and reports the per-file durability of what
    /// remains on stable storage. Back-ends whose writes are synchronous or
    /// writethrough report every file fully durable. Takes no simulated
    /// time, and the back-end remains usable afterwards (modelling the node
    /// after a reboot with a cold cache).
    pub fn crash(&self) -> CrashReport {
        match self {
            Backend::Cached(fs) => crash_cached(fs),
            // Every write went straight to the disk: nothing to lose.
            Backend::Direct(fs) => CrashReport::all_durable(fs.list_files()),
            Backend::Kernel(fs) => {
                // The emulator keeps a byte-exact dirty-range ledger: the
                // durable ranges are its complement within each file.
                let lost = fs.cache().crash_discard();
                CrashReport {
                    files: fs
                        .cache()
                        .list_files()
                        .into_iter()
                        .map(|(file, size)| {
                            let ranges = lost.get(&file).map(Vec::as_slice).unwrap_or(&[]);
                            (file, FileDurability::from_lost_ranges(size, ranges))
                        })
                        .collect(),
                }
            }
            Backend::Fleet(fleet) => fleet.crash(),
        }
    }

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

        match (platform.storage, kind) {
            (StorageKind::Local, SimulatorKind::Cacheless) => {
                Ok(Backend::Direct(DirectFileSystem::new(ctx, disk)))
            }
            (StorageKind::Local, SimulatorKind::PageCache | SimulatorKind::Prototype) => {
                let mm = MemoryManager::new(
                    ctx,
                    platform.cache_config(platform.host_memory),
                    memory,
                    disk,
                );
                let io = IoController::new(ctx, mm).with_chunk_size(platform.chunk_size);
                Ok(Backend::Cached(CachedFileSystem::new(io)))
            }
            (StorageKind::Local, SimulatorKind::KernelEmu) => {
                let cache = KernelCache::new(ctx, platform.kernel_tuning(), memory, disk);
                Ok(Backend::Kernel(
                    KernelFileSystem::new(ctx, cache).with_request_size(platform.chunk_size),
                ))
            }
            (StorageKind::Nfs, SimulatorKind::Cacheless) => {
                let link = NetworkLink::new(
                    ctx,
                    "nfs-link",
                    devices.network_bandwidth,
                    devices.network_latency,
                );
                let server_disk = Disk::new(ctx, "nfs-server-disk", devices.remote_disk);
                Ok(Backend::Direct(
                    DirectFileSystem::new(ctx, server_disk).with_link(link),
                ))
            }
            (StorageKind::Nfs, SimulatorKind::PageCache | SimulatorKind::KernelEmu) => {
                // A 1×1 fleet, writethrough on NFS. The ground truth runs the
                // same macroscopic model on the measured bandwidths: the
                // kernel behaviours (dirty thresholds, write protection) play
                // no role with a writethrough server and no client write cache.
                let spec = FleetSpec::new(1, 1, 1);
                Ok(Backend::Fleet(FleetClient::build(
                    ctx, platform, &devices, &spec,
                )?))
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

/// Work counters of one host of the page cache model: its LRU lists, its
/// memory bus and its disk.
pub(crate) fn model_profile(mm: &MemoryManager) -> ProfileStats {
    let work = mm.counters().lru;
    ProfileStats {
        evict_calls: work.evict_calls,
        evict_visits: work.evict_visits,
        writeback_calls: work.flush_calls,
        writeback_visits: work.flush_visits,
        insert_steps: work.insert_steps,
        flows_completed: mm.memory().completed_flows() + mm.disk().completed_flows(),
        ..ProfileStats::default()
    }
}

/// Writeback/eviction counters of a macroscopic page cache.
pub(crate) fn model_writeback(mm: &MemoryManager) -> WritebackCounters {
    let c = mm.counters();
    WritebackCounters {
        background_flushed: c.flushed_background,
        synchronous_flushed: c.flushed_on_demand,
        evicted: c.evicted,
    }
}

/// Crash of a cached filesystem: discards its dirty data and reports what
/// survives. The macroscopic model tracks dirty *amounts*, not positions:
/// the durable part of each file is approximated as its leading span.
pub(crate) fn crash_cached(fs: &CachedFileSystem) -> CrashReport {
    let lost: BTreeMap<_, _> = fs.memory_manager().crash_discard().into_iter().collect();
    CrashReport {
        files: fs
            .memory_manager()
            .list_files()
            .into_iter()
            .map(|(file, size)| {
                let dirty = lost.get(&file).copied().unwrap_or(0.0);
                (file, FileDurability::from_dirty_amount(size, dirty))
            })
            .collect(),
    }
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

    /// Asserts that the memory and cache introspection of `backend` is
    /// present exactly when it models a page cache.
    fn assert_cache_seams(backend: &Backend, has_cache: bool, what: &str) {
        assert_eq!(backend.sample_memory().is_some(), has_cache, "{what}");
        assert_eq!(backend.memory_trace().is_some(), has_cache, "{what}");
        assert_eq!(backend.cache_snapshot("x").is_some(), has_cache, "{what}");
        assert_eq!(backend.writeback_counters().is_some(), has_cache, "{what}");
    }

    #[test]
    fn build_all_local_backends() {
        let sim = Simulation::new();
        let ctx = sim.context();
        for kind in SimulatorKind::all() {
            let backend = Backend::build(&ctx, &platform(), kind).unwrap();
            // Cacheless has no memory model; the others do.
            assert_cache_seams(
                &backend,
                kind != SimulatorKind::Cacheless,
                &format!("{kind:?}"),
            );
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
            // Cacheless NFS has no memory model; the NFS client cache does.
            let what = format!("nfs {kind:?}");
            assert_cache_seams(&backend, kind != SimulatorKind::Cacheless, &what);
        }
        assert!(matches!(
            Backend::build(&ctx, &platform, SimulatorKind::Prototype),
            Err(ScenarioError::Unsupported(_))
        ));
        let fleet = fleet_platform();
        let backend = Backend::build(&ctx, &fleet, SimulatorKind::PageCache).unwrap();
        backend.create_file(&"f".into(), 100.0 * MB).unwrap();
        assert_cache_seams(&backend, true, "fleet");
    }

    #[test]
    fn io_futures_stay_small_whatever_the_back_end() {
        // Every traffic request spawns one task around a `read_range` or a
        // `write_range` future, so the future's size is allocated and
        // copied once per request. A method's future has one size for all
        // variants; the boxed fleet arm keeps it near the local back-ends'.
        let sim = Simulation::new();
        let ctx = sim.context();
        let f: FileId = "f".into();
        for (kind, platform) in every_filesystem() {
            let backend = Backend::build(&ctx, &platform, kind).unwrap();
            let sizes = [
                std::mem::size_of_val(&backend.read_range(&f, 0.0, 1.0)),
                std::mem::size_of_val(&backend.write_range(&f, 0.0, 1.0)),
                std::mem::size_of_val(&backend.fsync(&f)),
                std::mem::size_of_val(&backend.sync()),
            ];
            assert!(sizes.iter().all(|&b| b <= 1024), "{kind:?}: {sizes:?}");
        }
    }

    fn fleet_platform() -> PlatformSpec {
        platform().with_fleet(crate::net::FleetSpec::new(2, 3, 2))
    }

    /// One configuration per filesystem a [`Backend`] can wrap: direct
    /// (local and over NFS), cached, kernel emulator, and fleet (as cached
    /// NFS and replicated).
    fn every_filesystem() -> [(SimulatorKind, PlatformSpec); 6] {
        [
            (SimulatorKind::Cacheless, platform()),
            (SimulatorKind::PageCache, platform()),
            (SimulatorKind::KernelEmu, platform()),
            (SimulatorKind::PageCache, platform().with_nfs()),
            (SimulatorKind::Cacheless, platform().with_nfs()),
            (SimulatorKind::PageCache, fleet_platform()),
        ]
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
                let r = backend
                    .read_range(&"f".into(), 0.0, f64::INFINITY)
                    .await
                    .unwrap();
                let w = backend
                    .write_range(&"g".into(), 0.0, 465.0 * MB)
                    .await
                    .unwrap();
                (r.duration, w.duration)
            }
        });
        sim.run();
        let (r, w) = h.try_take_result().unwrap();
        // disk (1 s) + network (0.155 s), both directions.
        assert!((r - 1.155).abs() < 0.01, "read {r}");
        assert!((w - 1.155).abs() < 0.01, "write {w}");
    }

    /// A cached NFS mount on 1000 MB/s memory, 100 MB/s disks and a
    /// 500 MB/s link, with the given client and server memory.
    fn nfs_mount(sim: &Simulation, client_memory: f64, server_memory: f64) -> Backend {
        let mut p = PlatformSpec::uniform(
            client_memory,
            DeviceSpec::symmetric(1000.0 * MB, 0.0, f64::INFINITY),
            DeviceSpec::symmetric(100.0 * MB, 0.0, f64::INFINITY),
        )
        .with_nfs();
        p.server_memory = server_memory;
        p.simulated.network_bandwidth = 500.0 * MB;
        Backend::build(&sim.context(), &p, SimulatorKind::PageCache).unwrap()
    }

    /// The NFS server's filesystem behind a cached NFS mount.
    fn nfs_server(backend: &Backend) -> &CachedFileSystem {
        backend.fleet().unwrap().server_fs(0)
    }

    /// Bytes carried so far by the client–server link of a cached NFS mount.
    fn nfs_link_bytes(backend: &Backend) -> f64 {
        let fleet = backend.fleet().unwrap();
        let link = fleet.fabric().link_channel(&crate::net::server_link(0));
        link.unwrap().total_bytes()
    }

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() < 1e-6 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn nfs_cold_read_costs_server_disk_plus_link() {
        let sim = Simulation::new();
        let backend = nfs_mount(&sim, 10.0 * GB, 10.0 * GB);
        backend.create_file(&"f".into(), 500.0 * MB).unwrap();
        let h = sim.spawn({
            let backend = backend.clone();
            async move {
                backend
                    .read_range(&"f".into(), 0.0, f64::INFINITY)
                    .await
                    .unwrap()
            }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        approx(stats.bytes_from_disk, 500.0 * MB);
        // Server disk (5 s) + link (1 s), chunk after chunk.
        approx(stats.duration, 6.0);
        // Both caches now hold the file.
        let client = backend.fleet().unwrap().client_memory_manager();
        approx(client.cached_amount(&"f".into()), 500.0 * MB);
        let server = nfs_server(&backend).memory_manager();
        approx(server.cached_amount(&"f".into()), 500.0 * MB);
    }

    #[test]
    fn nfs_warm_read_puts_no_bytes_on_the_link() {
        let sim = Simulation::new();
        let backend = nfs_mount(&sim, 10.0 * GB, 10.0 * GB);
        backend.create_file(&"f".into(), 500.0 * MB).unwrap();
        let h = sim.spawn({
            let backend = backend.clone();
            async move {
                let f = "f".into();
                backend.read_range(&f, 0.0, f64::INFINITY).await.unwrap();
                let link_before = nfs_link_bytes(&backend);
                let warm = backend.read_range(&f, 0.0, f64::INFINITY).await.unwrap();
                (warm, nfs_link_bytes(&backend) - link_before)
            }
        });
        sim.run();
        let (warm, link_bytes) = h.try_take_result().unwrap();
        approx(warm.bytes_from_cache, 500.0 * MB);
        approx(link_bytes, 0.0);
        // Client memory bandwidth only.
        approx(warm.duration, 0.5);
    }

    #[test]
    fn nfs_write_is_writethrough_and_caches_on_the_server_only() {
        let sim = Simulation::new();
        let backend = nfs_mount(&sim, 10.0 * GB, 10.0 * GB);
        backend.start_background();
        let h = sim.spawn({
            let backend = backend.clone();
            async move {
                let stats = backend
                    .write_range(&"out".into(), 0.0, 300.0 * MB)
                    .await
                    .unwrap();
                backend.stop_background();
                stats
            }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        approx(stats.bytes_to_disk, 300.0 * MB);
        // Link (0.6 s) + server disk (3 s), chunk after chunk.
        approx(stats.duration, 3.6);
        // The run ends with the write: a writethrough server runs no
        // periodical flusher whose last sleep would outlast it.
        assert_eq!(sim.now().as_secs(), stats.duration);
        // No dirty data anywhere; no client cache for writes.
        let server = nfs_server(&backend);
        approx(server.memory_manager().dirty(), 0.0);
        approx(
            server.memory_manager().cached_amount(&"out".into()),
            300.0 * MB,
        );
        let client = backend.fleet().unwrap().client_memory_manager();
        approx(client.cached_amount(&"out".into()), 0.0);
        approx(server.disk().used(), 300.0 * MB);
    }

    #[test]
    fn nfs_read_after_write_hits_the_server_cache() {
        let sim = Simulation::new();
        let backend = nfs_mount(&sim, 10.0 * GB, 10.0 * GB);
        let h = sim.spawn({
            let backend = backend.clone();
            async move {
                let out = "out".into();
                backend.write_range(&out, 0.0, 300.0 * MB).await.unwrap();
                let disk_before = nfs_server(&backend).disk().total_bytes_read();
                let read = backend.read_range(&out, 0.0, f64::INFINITY).await.unwrap();
                let disk_read = nfs_server(&backend).disk().total_bytes_read() - disk_before;
                (read, disk_read)
            }
        });
        sim.run();
        let (read, disk_read) = h.try_take_result().unwrap();
        approx(disk_read, 0.0);
        approx(read.bytes_from_cache, 300.0 * MB);
        approx(read.bytes_from_disk, 0.0);
    }

    #[test]
    fn nfs_overwrite_invalidates_the_writers_client_copy() {
        // Close-to-open: a write drops the writer's cached copy, so the
        // next read crosses the link again (and hits the server cache).
        let sim = Simulation::new();
        let backend = nfs_mount(&sim, 10.0 * GB, 10.0 * GB);
        backend.create_file(&"f".into(), 100.0 * MB).unwrap();
        let h = sim.spawn({
            let backend = backend.clone();
            async move {
                let f = "f".into();
                backend.read_range(&f, 0.0, f64::INFINITY).await.unwrap();
                backend.write_range(&f, 0.0, 100.0 * MB).await.unwrap();
                let link_before = nfs_link_bytes(&backend);
                let reread = backend.read_range(&f, 0.0, f64::INFINITY).await.unwrap();
                (reread, nfs_link_bytes(&backend) - link_before)
            }
        });
        sim.run();
        let (reread, link_bytes) = h.try_take_result().unwrap();
        approx(link_bytes, 100.0 * MB);
        approx(reread.bytes_from_cache, 100.0 * MB);
        approx(reread.bytes_from_disk, 0.0);
    }

    #[test]
    fn nfs_missing_file_is_not_found() {
        let sim = Simulation::new();
        let backend = nfs_mount(&sim, 1.0 * GB, 1.0 * GB);
        let h = sim.spawn({
            let backend = backend.clone();
            async move {
                backend
                    .read_range(&"missing".into(), 0.0, f64::INFINITY)
                    .await
            }
        });
        sim.run();
        assert!(matches!(
            h.try_take_result().unwrap(),
            Err(ScenarioError::Filesystem(FsError::FileNotFound(_)))
        ));
    }

    #[test]
    fn nfs_small_server_memory_bounds_the_server_cache() {
        // The server has 200 MB of RAM: a 500 MB file cannot all stay cached.
        let sim = Simulation::new();
        let backend = nfs_mount(&sim, 10.0 * GB, 200.0 * MB);
        let h = sim.spawn({
            let backend = backend.clone();
            async move {
                backend
                    .write_range(&"big".into(), 0.0, 500.0 * MB)
                    .await
                    .unwrap()
            }
        });
        sim.run();
        assert!(h.is_finished());
        let server = nfs_server(&backend).memory_manager();
        assert!(server.cached() <= 200.0 * MB + 1.0);
        server.check_invariants().unwrap();
    }

    #[test]
    fn a_write_past_a_full_disk_fails_as_disk_full_before_any_io() {
        // 2 GB written onto 1 GB disks: the disk refuses the range before
        // any byte moves. On remote storage that is not a network fault to
        // retry, on a single server (NFS, a 1×1 fleet) or on every replica.
        let mut rows = on_one_gb_disks();
        let mut nfs = platform().with_nfs();
        let mut one_server = platform().with_fleet(FleetSpec::new(1, 1, 1));
        for p in [&mut nfs, &mut one_server] {
            for set in [&mut p.simulated, &mut p.real] {
                set.remote_disk.capacity = 1.0 * GB;
            }
        }
        rows.push((SimulatorKind::KernelEmu, nfs));
        rows.push((SimulatorKind::PageCache, one_server));
        for (kind, p) in rows {
            let sim = Simulation::new();
            let backend = Backend::build(&sim.context(), &p, kind).unwrap();
            let h = sim.spawn({
                let backend = backend.clone();
                async move { backend.write_range(&"f".into(), 0.0, 2.0 * GB).await }
            });
            sim.run();
            let r = h.try_take_result().unwrap();
            assert!(
                matches!(r, Err(ScenarioError::Filesystem(FsError::DiskFull(_)))),
                "{kind:?} {:?}: {r:?}",
                p.storage
            );
            assert_eq!(sim.now().as_secs(), 0.0, "{kind:?} {:?}", p.storage);
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
    fn range_writes_never_shrink_a_file() {
        // Rewriting the head of a file leaves its size alone on every
        // back-end: a read to end of file still sees all of it.
        for (kind, p) in every_filesystem() {
            let sim = Simulation::new();
            let ctx = sim.context();
            let backend = Backend::build(&ctx, &p, kind).unwrap();
            backend.create_file(&"f".into(), 500.0 * MB).unwrap();
            let h = sim.spawn({
                let backend = backend.clone();
                async move {
                    backend
                        .write_range(&"f".into(), 0.0, 100.0 * MB)
                        .await
                        .unwrap();
                    backend
                        .read_range(&"f".into(), 0.0, f64::INFINITY)
                        .await
                        .unwrap()
                }
            });
            sim.run();
            let read = h.try_take_result().unwrap();
            let total = read.bytes_from_disk + read.bytes_from_cache;
            assert!(
                (total - 500.0 * MB).abs() < MB,
                "{kind:?} {:?}: read to end of file saw {total} bytes",
                p.storage
            );
        }
    }

    #[test]
    fn zero_byte_writes_touch_no_device_on_cacheless_backends() {
        // Cacheless back-ends skip zero-length I/O: a zero-byte write, at
        // the start of a file or past its end, pays neither the disk's nor
        // the link's latency.
        let mut p = platform();
        p.simulated.disk = DeviceSpec::symmetric(465.0 * MB, 0.01, f64::INFINITY);
        p.simulated.remote_disk = p.simulated.disk;
        p.simulated.network_latency = 0.01;
        for p in [p.clone(), p.with_nfs()] {
            let sim = Simulation::new();
            let ctx = sim.context();
            let backend = Backend::build(&ctx, &p, SimulatorKind::Cacheless).unwrap();
            let h = sim.spawn({
                let backend = backend.clone();
                async move {
                    let head = backend.write_range(&"f".into(), 0.0, 0.0).await.unwrap();
                    let past_end = backend.write_range(&"g".into(), 10.0 * MB, 0.0).await;
                    (head, past_end.unwrap())
                }
            });
            sim.run();
            let (head, past_end) = h.try_take_result().unwrap();
            for (what, stats) in [("offset 0", head), ("offset 10 MB", past_end)] {
                assert_eq!(stats.duration, 0.0, "{:?} {what}", p.storage);
                assert_eq!(stats.bytes_to_disk, 0.0, "{:?} {what}", p.storage);
            }
            assert_eq!(sim.now().as_secs(), 0.0, "{:?}", p.storage);
            assert_eq!(backend.crash().files.len(), 2, "{:?}", p.storage);
        }
    }

    #[test]
    fn non_finite_write_ranges_are_rejected() {
        let ranges = [
            ("len=inf", 0.0, f64::INFINITY),
            ("offset=nan", f64::NAN, 10.0),
            ("offset<0", -10.0, 10.0),
            ("len<0", 10.0, -10.0),
        ];
        let prototype = (SimulatorKind::Prototype, platform());
        for (kind, p) in every_filesystem().into_iter().chain([prototype]) {
            let sim = Simulation::new();
            let ctx = sim.context();
            let backend = Backend::build(&ctx, &p, kind).unwrap();
            let h = sim.spawn({
                let backend = backend.clone();
                async move {
                    let mut results = Vec::new();
                    for (_, offset, len) in ranges {
                        results.push(backend.write_range(&"f".into(), offset, len).await);
                    }
                    results
                }
            });
            sim.run();
            let results = h.try_take_result().unwrap();
            for ((what, ..), r) in ranges.iter().zip(results) {
                assert!(
                    matches!(
                        r,
                        Err(ScenarioError::Filesystem(FsError::InvalidRange { .. }))
                    ),
                    "{kind:?} {:?} {what}: {r:?}",
                    p.storage
                );
            }
            // A rejected write creates nothing.
            assert!(backend.crash().files.is_empty(), "{kind:?} {:?}", p.storage);
        }
    }

    /// Every file system of [`every_filesystem`] plus the prototype, each
    /// with 1 GB disks.
    fn on_one_gb_disks() -> Vec<(SimulatorKind, PlatformSpec)> {
        let prototype = (SimulatorKind::Prototype, platform());
        let mut all: Vec<_> = every_filesystem().into_iter().chain([prototype]).collect();
        for (_, p) in &mut all {
            for set in [&mut p.simulated, &mut p.real] {
                set.disk.capacity = 1.0 * GB;
                set.remote_disk.capacity = 1.0 * GB;
            }
        }
        all
    }

    #[test]
    fn invalid_create_sizes_are_rejected_before_allocating() {
        for (kind, p) in on_one_gb_disks() {
            let sim = Simulation::new();
            let backend = Backend::build(&sim.context(), &p, kind).unwrap();
            for size in [-500.0 * MB, f64::NAN, f64::INFINITY] {
                let r = backend.create_file(&"bad".into(), size);
                assert!(
                    matches!(
                        r,
                        Err(ScenarioError::Filesystem(FsError::InvalidRange { .. }))
                    ),
                    "{kind:?} {:?} size {size}: {r:?}",
                    p.storage
                );
            }
            // The rejected sizes freed no space: 1.2 GB still overflows.
            let r = backend.create_file(&"big".into(), 1.2 * GB);
            assert!(
                matches!(r, Err(ScenarioError::Filesystem(FsError::DiskFull(_)))),
                "{kind:?} {:?}: {r:?}",
                p.storage
            );
        }
    }

    #[test]
    fn a_duplicate_create_is_rejected_before_allocating() {
        for (kind, p) in on_one_gb_disks() {
            let sim = Simulation::new();
            let backend = Backend::build(&sim.context(), &p, kind).unwrap();
            backend.create_file(&"a".into(), 300.0 * MB).unwrap();
            let r = backend.create_file(&"a".into(), 300.0 * MB);
            assert!(
                matches!(r, Err(ScenarioError::Filesystem(FsError::AlreadyExists(_)))),
                "{kind:?} {:?}: {r:?}",
                p.storage
            );
            // The duplicate took no space: 500 MB fit beside the first 300.
            let r = backend.create_file(&"b".into(), 500.0 * MB);
            assert!(r.is_ok(), "{kind:?} {:?}: {r:?}", p.storage);
            // A crash empties the caches, not the namespace: the file
            // still exists, with its size.
            backend.crash();
            let r = backend.create_file(&"a".into(), 300.0 * MB);
            assert!(
                matches!(r, Err(ScenarioError::Filesystem(FsError::AlreadyExists(_)))),
                "{kind:?} {:?} after a crash: {r:?}",
                p.storage
            );
            let h =
                sim.spawn(async move { backend.read_range(&"a".into(), 0.0, f64::INFINITY).await });
            sim.run();
            let read = h.try_take_result().unwrap().unwrap();
            let demand = read.bytes_from_disk + read.bytes_from_cache - read.bytes_prefetched;
            assert!(
                (demand - 300.0 * MB).abs() < 1.0,
                "{kind:?} {:?}: read {demand} bytes after a crash",
                p.storage
            );
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
            async move { backend.read_range(&"nope".into(), 0.0, f64::INFINITY).await }
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
