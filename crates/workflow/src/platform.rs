//! Platform descriptions: host memory, devices, and the NFS configuration.
//!
//! A [`PlatformSpec`] carries **two** device parameterisations:
//!
//! * `simulated` — the bandwidths fed to the simulators (the symmetric
//!   averages of Table III, because SimGrid 3.25 only supported symmetric
//!   bandwidths);
//! * `real` — the measured, asymmetric bandwidths of the cluster, used by the
//!   kernel-emulator ground truth.

use kernel_emu::KernelTuning;
use pagecache::PageCacheConfig;
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
    /// Chunk size used by the I/O controller, bytes.
    pub chunk_size: f64,
    /// `vm.dirty_ratio` of the host.
    pub dirty_ratio: f64,
    /// `vm.dirty_background_ratio` of the host. Only the kernel emulator
    /// models background writeback thresholds; the macroscopic simulators
    /// ignore this knob (the paper calls out exactly this omission).
    pub dirty_background_ratio: f64,
    /// Dirty expiration age, seconds.
    pub dirty_expire: f64,
    /// Periodical flusher interval, seconds.
    pub flush_interval: f64,
    /// Initial readahead window of the kernel emulator, bytes (Linux
    /// `get_init_ra_size`). Meaningful only when `readahead_max > 0`; the
    /// macroscopic simulators are amount-based and have no notion of
    /// readahead.
    pub readahead_min: f64,
    /// Maximum readahead window of the kernel emulator, bytes (Linux
    /// `read_ahead_kb`). **Zero — the default — disables readahead**, so
    /// predictions are unchanged unless a platform opts in.
    pub readahead_max: f64,
    /// `balance_dirty_pages` pacing strength of the kernel emulator
    /// (see [`kernel_emu::KernelTuning`]). **Zero — the default — disables
    /// pacing**; the hard throttle at the dirty ratio applies regardless.
    pub throttle_pacing: f64,
    /// Replacement policy of the page cache, applied to both the simulators
    /// and the kernel emulator. The default
    /// [`TwoList`](pagecache::EvictionPolicy::TwoList) reproduces the
    /// classic active/inactive behaviour (and the historical predictions)
    /// exactly.
    pub eviction_policy: pagecache::EvictionPolicy,
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
            chunk_size: 100.0 * 1e6,
            dirty_ratio: 0.2,
            dirty_background_ratio: 0.1,
            dirty_expire: 30.0,
            flush_interval: 5.0,
            readahead_min: 0.0,
            readahead_max: 0.0,
            throttle_pacing: 0.0,
            eviction_policy: pagecache::EvictionPolicy::TwoList,
            fleet: None,
        }
    }

    /// Overrides the eviction policy of every cache in the platform.
    pub fn with_eviction_policy(mut self, policy: pagecache::EvictionPolicy) -> Self {
        self.eviction_policy = policy;
        self
    }

    /// Enables the kernel emulator's readahead model with the given initial
    /// and maximum window sizes (bytes). Use windows proportional to the
    /// platform's chunk size the way Linux sizes its windows relative to
    /// request sizes.
    pub fn with_readahead(mut self, min: f64, max: f64) -> Self {
        self.readahead_min = min;
        self.readahead_max = max;
        self
    }

    /// Enables the kernel emulator's `balance_dirty_pages` writer pacing
    /// (`1.0` mirrors the kernel: writers at the dirty threshold are paced
    /// down to disk write bandwidth).
    pub fn with_throttle_pacing(mut self, pacing: f64) -> Self {
        self.throttle_pacing = pacing;
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

    /// Overrides the chunk size.
    pub fn with_chunk_size(mut self, chunk_size: f64) -> Self {
        assert!(chunk_size > 0.0, "chunk size must be positive");
        self.chunk_size = chunk_size;
        self
    }

    /// Overrides the dirty ratio. The background dirty ratio is clamped so
    /// the kernel invariant `dirty_background_ratio <= dirty_ratio` holds.
    pub fn with_dirty_ratio(mut self, ratio: f64) -> Self {
        self.dirty_ratio = ratio;
        self.dirty_background_ratio = self.dirty_background_ratio.min(ratio);
        self
    }

    /// Overrides the background dirty ratio (kernel-emulator back-end only).
    pub fn with_dirty_background_ratio(mut self, ratio: f64) -> Self {
        self.dirty_background_ratio = ratio;
        self
    }

    /// The macroscopic page-cache configuration of a host with
    /// `total_memory` bytes of RAM under this platform's flusher and policy
    /// settings (write-back; NFS servers switch it to writethrough).
    pub fn cache_config(&self, total_memory: f64) -> PageCacheConfig {
        PageCacheConfig {
            dirty_ratio: self.dirty_ratio,
            dirty_expire: self.dirty_expire,
            flush_interval: self.flush_interval,
            eviction_policy: self.eviction_policy,
            ..PageCacheConfig::with_memory(total_memory)
        }
    }

    /// The kernel emulator's tunables for this platform's host.
    pub fn kernel_tuning(&self) -> KernelTuning {
        KernelTuning {
            dirty_ratio: self.dirty_ratio,
            dirty_background_ratio: self.dirty_background_ratio,
            dirty_expire: self.dirty_expire,
            writeback_interval: self.flush_interval,
            readahead_min: self.readahead_min,
            readahead_max: self.readahead_max,
            throttle_pacing: self.throttle_pacing,
            eviction_policy: self.eviction_policy,
            ..KernelTuning::with_memory(self.host_memory)
        }
    }

    /// Validates the platform description. Every check is written so that
    /// NaN fails it. The memory, dirty-data, readahead and pacing settings
    /// are checked by the cache models' own `validate`, on exactly the
    /// configurations the back-ends are built from.
    pub fn validate(&self) -> Result<(), String> {
        if self.chunk_size.is_nan() || self.chunk_size <= 0.0 {
            return Err("chunk size must be positive".to_string());
        }
        if let Some(e) = self.simulated.error() {
            return Err(format!("simulated {e}"));
        }
        if let Some(e) = self.real.error() {
            return Err(format!("real {e}"));
        }
        match (&self.storage, &self.fleet) {
            (StorageKind::Fleet, None) => {
                return Err("fleet storage requires a fleet spec (see with_fleet)".to_string());
            }
            (StorageKind::Fleet, Some(fleet)) => fleet.validate()?,
            _ => {}
        }
        self.cache_config(self.host_memory)
            .validate()
            .map_err(|e| format!("host page cache: {e}"))?;
        self.cache_config(self.server_memory)
            .validate()
            .map_err(|e| format!("server page cache: {e}"))?;
        self.kernel_tuning()
            .validate()
            .map_err(|e| format!("kernel tuning: {e}"))
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
        let nfs = p
            .clone()
            .with_nfs()
            .with_chunk_size(50.0 * MB)
            .with_dirty_ratio(0.4);
        assert_eq!(nfs.storage, StorageKind::Nfs);
        assert_eq!(nfs.chunk_size, 50.0 * MB);
        assert_eq!(nfs.dirty_ratio, 0.4);
    }

    #[test]
    fn background_dirty_ratio_is_validated_and_clamped() {
        let p = PlatformSpec::uniform(
            16.0 * GB,
            DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
            DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
        );
        assert_eq!(p.dirty_background_ratio, 0.1);
        // Lowering the dirty ratio clamps the background ratio along with it.
        let low = p.clone().with_dirty_ratio(0.05);
        assert_eq!(low.dirty_background_ratio, 0.05);
        assert!(low.validate().is_ok());
        // An explicit background ratio above the dirty ratio is invalid.
        let bad = p.with_dirty_background_ratio(0.5);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn readahead_and_pacing_knobs_validate() {
        let p = PlatformSpec::uniform(
            16.0 * GB,
            DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
            DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
        );
        // Off by default; the classic 2-list policy is the default too.
        assert_eq!(p.readahead_max, 0.0);
        assert_eq!(p.throttle_pacing, 0.0);
        assert_eq!(p.eviction_policy, pagecache::EvictionPolicy::TwoList);
        assert_eq!(
            p.clone()
                .with_eviction_policy(pagecache::EvictionPolicy::TwoQ)
                .eviction_policy,
            pagecache::EvictionPolicy::TwoQ
        );
        assert!(p.validate().is_ok());
        let on = p
            .clone()
            .with_readahead(16.0 * MB, 256.0 * MB)
            .with_throttle_pacing(1.0);
        assert!(on.validate().is_ok());
        assert_eq!(on.readahead_min, 16.0 * MB);
        assert!(p
            .clone()
            .with_readahead(256.0 * MB, 16.0 * MB)
            .validate()
            .is_err());
        assert!(p.clone().with_readahead(0.0, 16.0 * MB).validate().is_err());
        assert!(p.clone().with_throttle_pacing(-1.0).validate().is_err());
    }

    #[test]
    fn validation_catches_errors() {
        let mut p = PlatformSpec::uniform(
            16.0 * GB,
            DeviceSpec::symmetric(MB, 0.0, f64::INFINITY),
            DeviceSpec::symmetric(MB, 0.0, f64::INFINITY),
        );
        p.host_memory = 0.0;
        assert!(p.validate().is_err());
        p.host_memory = GB;
        p.dirty_ratio = 2.0;
        assert!(p.validate().is_err());
        p.dirty_ratio = 0.2;
        for interval in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            p.flush_interval = interval;
            assert!(p.validate().is_err(), "flush interval {interval}");
        }
        p.flush_interval = 5.0;
        for expire in [-1.0, f64::NAN] {
            p.dirty_expire = expire;
            assert!(p.validate().is_err(), "dirty expire {expire}");
        }
        // Zero expires dirty data at the next flush; infinity never does.
        for expire in [0.0, f64::INFINITY] {
            p.dirty_expire = expire;
            assert!(p.validate().is_ok(), "dirty expire {expire}");
        }
        p.dirty_ratio = 0.2;
        p.chunk_size = -1.0;
        assert!(p.validate().is_err());
    }
}
