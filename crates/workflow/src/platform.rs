//! Platform descriptions: host memory, devices, and the NFS configuration.
//!
//! A [`PlatformSpec`] carries **two** device parameterisations:
//!
//! * `simulated` — the bandwidths fed to the simulators (the symmetric
//!   averages of Table III, because SimGrid 3.25 only supported symmetric
//!   bandwidths);
//! * `real` — the measured, asymmetric bandwidths of the cluster, used by the
//!   kernel-emulator ground truth.

use pagecache::{PageCacheConfig, WriteMode};
use storage_model::DeviceSpec;

/// Devices of one host (plus the optional NFS server side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSet {
    /// Memory bus of the host.
    pub memory: DeviceSpec,
    /// Local disk of the host (or the client-side disk in NFS scenarios).
    pub disk: DeviceSpec,
    /// Disk of the NFS server and of each fleet server (used only in NFS
    /// and fleet scenarios).
    pub remote_disk: DeviceSpec,
    /// Network bandwidth between client and server, bytes/s.
    pub network_bandwidth: f64,
    /// Network latency, seconds.
    pub network_latency: f64,
}

impl DeviceSet {
    /// Why these devices cannot be simulated, if they cannot: a bandwidth
    /// that is not positive and finite, or a negative latency. Every check
    /// is written so that NaN fails it.
    fn error(&self) -> Option<&'static str> {
        let bandwidth = |b: f64| b > 0.0 && b.is_finite();
        let latency = |l: f64| l >= 0.0;
        let device = |d: &DeviceSpec| {
            bandwidth(d.read_bandwidth) && bandwidth(d.write_bandwidth) && latency(d.latency)
        };
        if !device(&self.memory) {
            Some("memory bandwidth must be positive and finite, its latency non-negative")
        } else if !device(&self.disk) {
            Some("disk bandwidth must be positive and finite, its latency non-negative")
        } else if !device(&self.remote_disk) {
            Some("remote disk bandwidth must be positive and finite, its latency non-negative")
        } else if !(bandwidth(self.network_bandwidth) && latency(self.network_latency)) {
            Some("network bandwidth must be positive and finite, its latency non-negative")
        } else {
            None
        }
    }
}

/// Where the application's files live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageKind {
    /// All I/O goes to the local disk (Exp 1, 2, 4).
    #[default]
    Local,
    /// All I/O goes to an NFS mount backed by a remote disk (Exp 3).
    Nfs,
    /// All I/O goes to a replicated storage fleet over a simulated network
    /// fabric (see [`crate::net`]). Requires [`PlatformSpec::fleet`].
    Fleet,
}

/// A complete platform description.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// RAM of the host running the applications, bytes.
    pub host_memory: f64,
    /// RAM of the NFS server, bytes (ignored for local storage).
    pub server_memory: f64,
    /// Device parameters used by the simulators.
    pub simulated: DeviceSet,
    /// Device parameters used by the ground-truth emulator.
    pub real: DeviceSet,
    /// Where application files live.
    pub storage: StorageKind,
    /// Page-cache settings of every host of the platform: the chunk size
    /// and the `vm` settings, read by both the paper's model and the kernel
    /// emulator (see [`PageCacheConfig`] for which model reads which
    /// field). Its write mode is the host's and must be write-back; NFS
    /// servers run the same settings in writethrough mode. The default is
    /// [`PageCacheConfig::default`], whose classic 2-list policy and
    /// disabled readahead and pacing reproduce the historical predictions.
    pub cache: PageCacheConfig,
    /// Shape and client policy of the replicated storage fleet. `None` —
    /// the default — means no fleet; required (and only used) when
    /// `storage` is [`StorageKind::Fleet`].
    pub fleet: Option<crate::net::FleetSpec>,
}

impl PlatformSpec {
    /// A platform where the simulated and real device sets are identical
    /// (useful for tests and for users who only care about the simulator).
    pub fn uniform(host_memory: f64, memory: DeviceSpec, disk: DeviceSpec) -> Self {
        let set = DeviceSet {
            memory,
            disk,
            remote_disk: disk,
            network_bandwidth: 3000.0 * 1e6,
            network_latency: 0.0,
        };
        PlatformSpec {
            host_memory,
            server_memory: host_memory,
            simulated: set,
            real: set,
            storage: StorageKind::Local,
            cache: PageCacheConfig::default(),
            fleet: None,
        }
    }

    /// Overrides the eviction policy of every cache in the platform.
    pub fn with_eviction_policy(mut self, policy: pagecache::EvictionPolicy) -> Self {
        self.cache.eviction_policy = policy;
        self
    }

    /// Enables the kernel emulator's readahead model with the given initial
    /// and maximum window sizes (bytes). Use windows proportional to the
    /// platform's chunk size the way Linux sizes its windows relative to
    /// request sizes.
    pub fn with_readahead(mut self, min: f64, max: f64) -> Self {
        self.cache.readahead_min = min;
        self.cache.readahead_max = max;
        self
    }

    /// Enables the kernel emulator's `balance_dirty_pages` writer pacing
    /// (`1.0` mirrors the kernel: writers at the dirty threshold are paced
    /// down to disk write bandwidth).
    pub fn with_throttle_pacing(mut self, pacing: f64) -> Self {
        self.cache.throttle_pacing = pacing;
        self
    }

    /// Switches the platform to NFS storage.
    pub fn with_nfs(mut self) -> Self {
        self.storage = StorageKind::Nfs;
        self
    }

    /// Switches the platform to a replicated storage fleet with the given
    /// shape and client policy (see [`crate::net`]).
    pub fn with_fleet(mut self, fleet: crate::net::FleetSpec) -> Self {
        self.storage = StorageKind::Fleet;
        self.fleet = Some(fleet);
        self
    }

    /// Overrides the chunk size. [`PlatformSpec::validate`] rejects a size
    /// that is not positive.
    pub fn with_chunk_size(mut self, chunk_size: f64) -> Self {
        self.cache.chunk_size = chunk_size;
        self
    }

    /// Overrides the dirty ratio. The background dirty ratio is clamped so
    /// the kernel invariant `dirty_background_ratio <= dirty_ratio` holds.
    pub fn with_dirty_ratio(mut self, ratio: f64) -> Self {
        self.cache.dirty_ratio = ratio;
        self.cache.dirty_background_ratio = self.cache.dirty_background_ratio.min(ratio);
        self
    }

    /// Overrides the background dirty ratio (kernel-emulator back-end only).
    pub fn with_dirty_background_ratio(mut self, ratio: f64) -> Self {
        self.cache.dirty_background_ratio = ratio;
        self
    }

    /// Validates the platform description. Every check is written so that
    /// NaN fails it. The page-cache settings are checked once, by
    /// [`PageCacheConfig::validate`], and the host and server memory by
    /// [`PageCacheConfig::check_memory`]: the checks the cache models'
    /// constructors make.
    pub fn validate(&self) -> Result<(), String> {
        PageCacheConfig::check_memory(self.host_memory).map_err(|e| format!("host {e}"))?;
        PageCacheConfig::check_memory(self.server_memory).map_err(|e| format!("server {e}"))?;
        if self.cache.write_mode != WriteMode::WriteBack {
            return Err("the host page cache must be write-back".to_string());
        }
        self.cache
            .validate()
            .map_err(|e| format!("page cache: {e}"))?;
        if let Some(e) = self.simulated.error() {
            return Err(format!("simulated {e}"));
        }
        if let Some(e) = self.real.error() {
            return Err(format!("real {e}"));
        }
        match (&self.storage, &self.fleet) {
            (StorageKind::Fleet, None) => {
                Err("fleet storage requires a fleet spec (see with_fleet)".to_string())
            }
            (StorageKind::Fleet, Some(fleet)) => fleet.validate(),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage_model::units::{GB, MB};

    #[test]
    fn uniform_platform_builds_and_validates() {
        let p = PlatformSpec::uniform(
            16.0 * GB,
            DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
            DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
        );
        assert!(p.validate().is_ok());
        assert_eq!(p.storage, StorageKind::Local);
        assert_eq!(p.simulated, p.real);
        assert_eq!(p.cache, PageCacheConfig::default());
        let nfs = p
            .clone()
            .with_nfs()
            .with_chunk_size(50.0 * MB)
            .with_dirty_ratio(0.4)
            .with_readahead(16.0 * MB, 256.0 * MB)
            .with_throttle_pacing(1.0)
            .with_eviction_policy(pagecache::EvictionPolicy::TwoQ);
        assert!(nfs.validate().is_ok());
        assert_eq!(nfs.storage, StorageKind::Nfs);
        assert_eq!(
            nfs.cache,
            PageCacheConfig {
                chunk_size: 50.0 * MB,
                dirty_ratio: 0.4,
                readahead_min: 16.0 * MB,
                readahead_max: 256.0 * MB,
                throttle_pacing: 1.0,
                eviction_policy: pagecache::EvictionPolicy::TwoQ,
                ..PageCacheConfig::default()
            }
        );
        // Lowering the dirty ratio clamps the background ratio along with it.
        let low = p.clone().with_dirty_ratio(0.05);
        assert_eq!(low.cache.dirty_background_ratio, 0.05);
        assert!(low.validate().is_ok());
        // The host cache is write-back; only NFS servers are writethrough.
        let mut writethrough = p;
        writethrough.cache.write_mode = WriteMode::WriteThrough;
        assert!(writethrough.validate().is_err());
    }
}
