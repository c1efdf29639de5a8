//! Kernel tunables of the emulator (the `vm.*` sysctls of the real cluster).

use pagecache::EvictionPolicy;
use storage_model::units::PAGE_SIZE;

/// The initial readahead window Linux grants a fresh sequential stream
/// before any doubling (16 pages = 64 KiB, the common `get_init_ra_size`
/// outcome for small first reads). Exposed so callers enabling readahead can
/// mirror the kernel's defaults at page scale.
pub const LINUX_READAHEAD_MIN: f64 = 16.0 * PAGE_SIZE;

/// The maximum readahead window of a stock Linux block device
/// (`/sys/block/<dev>/queue/read_ahead_kb` = 128, i.e. 32 pages).
pub const LINUX_READAHEAD_MAX: f64 = 32.0 * PAGE_SIZE;

/// Tunables of the emulated kernel, mirroring the `vm.*` sysctls of the
/// CentOS 8.1 nodes used in the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTuning {
    /// Total RAM of the host in bytes.
    pub total_memory: f64,
    /// `vm.dirty_ratio`: fraction of available memory above which writers are
    /// throttled and must write back synchronously.
    pub dirty_ratio: f64,
    /// `vm.dirty_background_ratio`: fraction of available memory above which
    /// the background writeback threads start flushing. The paper's
    /// macroscopic model omits this, which is why it observes that "dirty data
    /// seemed to be flushing faster in real life than in simulation".
    pub dirty_background_ratio: f64,
    /// `vm.dirty_expire_centisecs` in seconds: age after which dirty data is
    /// written back regardless of the thresholds.
    pub dirty_expire: f64,
    /// `vm.dirty_writeback_centisecs` in seconds: wakeup period of the
    /// writeback threads.
    pub writeback_interval: f64,
    /// Initial readahead window in bytes, granted when a file stream is
    /// detected as sequential (Linux `get_init_ra_size`; see
    /// [`LINUX_READAHEAD_MIN`]). Only meaningful when `readahead_max > 0`.
    pub readahead_min: f64,
    /// Maximum readahead window in bytes (Linux
    /// `/sys/block/<dev>/queue/read_ahead_kb`; see [`LINUX_READAHEAD_MAX`]).
    /// The window doubles on every sequential access up to this bound and
    /// collapses to zero on a non-sequential one. **Zero disables readahead
    /// entirely** — the default, so existing amount-based predictions are
    /// unchanged unless a platform opts in.
    pub readahead_max: f64,
    /// `balance_dirty_pages` pacing strength. With dirty data between the
    /// background and the dirty threshold, a writer is stalled after each
    /// request for `pacing × ramp × ideal_disk_write_time(request)` seconds,
    /// where `ramp` grows linearly from 0 at the background threshold to 1
    /// at the dirty threshold — i.e. at `1.0` a writer hitting the dirty
    /// threshold is paced down to disk write bandwidth, which is what the
    /// kernel's task rate limit converges to. **Zero disables pacing** — the
    /// default; the hard throttle at the dirty threshold (synchronous
    /// writeback) applies regardless.
    pub throttle_pacing: f64,
    /// Replacement policy deciding the victim-file order of eviction (and
    /// ghost promotions under 2Q).
    /// The default [`EvictionPolicy::TwoList`] reproduces the historical
    /// pure-LRU `(last_access, file name)` order exactly.
    pub eviction_policy: EvictionPolicy,
}

impl KernelTuning {
    /// Default kernel settings with the given amount of RAM.
    pub fn with_memory(total_memory: f64) -> Self {
        KernelTuning {
            total_memory,
            dirty_ratio: 0.20,
            dirty_background_ratio: 0.10,
            dirty_expire: 30.0,
            writeback_interval: 5.0,
            readahead_min: 0.0,
            readahead_max: 0.0,
            throttle_pacing: 0.0,
            eviction_policy: EvictionPolicy::TwoList,
        }
    }

    /// Overrides the eviction policy.
    pub fn with_eviction_policy(mut self, policy: EvictionPolicy) -> Self {
        self.eviction_policy = policy;
        self
    }

    /// Enables the readahead model with the given initial and maximum window
    /// sizes (bytes). Use [`LINUX_READAHEAD_MIN`] / [`LINUX_READAHEAD_MAX`]
    /// to mirror a stock kernel, or scaled-up windows to match scaled-up
    /// request sizes.
    pub fn with_readahead(mut self, min: f64, max: f64) -> Self {
        self.readahead_min = min;
        self.readahead_max = max;
        self
    }

    /// Enables `balance_dirty_pages` writer pacing with the given strength
    /// (`1.0` mirrors the kernel: writers at the dirty threshold are paced
    /// down to disk write bandwidth).
    pub fn with_throttle_pacing(mut self, pacing: f64) -> Self {
        self.throttle_pacing = pacing;
        self
    }

    /// Validates the tunables.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.total_memory > 0.0 && self.total_memory.is_finite()) {
            return Err("total memory must be positive".to_string());
        }
        if !(0.0..=1.0).contains(&self.dirty_ratio)
            || !(0.0..=1.0).contains(&self.dirty_background_ratio)
        {
            return Err("dirty ratios must be within [0, 1]".to_string());
        }
        if self.dirty_background_ratio > self.dirty_ratio {
            return Err("dirty_background_ratio must not exceed dirty_ratio".to_string());
        }
        if !(self.writeback_interval > 0.0 && self.writeback_interval.is_finite()) {
            return Err(format!(
                "writeback interval must be positive and finite, got {}",
                self.writeback_interval
            ));
        }
        if self.dirty_expire.is_nan() || self.dirty_expire < 0.0 {
            return Err(format!(
                "dirty expire must be non-negative, got {}",
                self.dirty_expire
            ));
        }
        if !(self.readahead_min >= 0.0
            && self.readahead_max >= 0.0
            && self.readahead_min.is_finite()
            && self.readahead_max.is_finite())
        {
            return Err("readahead windows must be finite and non-negative".to_string());
        }
        if self.readahead_max > 0.0 && self.readahead_min <= 0.0 {
            return Err("readahead_min must be positive when readahead is enabled".to_string());
        }
        if self.readahead_min > self.readahead_max {
            return Err("readahead_min must not exceed readahead_max".to_string());
        }
        if !(self.throttle_pacing >= 0.0 && self.throttle_pacing.is_finite()) {
            return Err("throttle pacing must be finite and non-negative".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_validation() {
        let t = KernelTuning::with_memory(1e9);
        assert_eq!(t.dirty_ratio, 0.20);
        assert_eq!(t.dirty_background_ratio, 0.10);
        // Readahead and writer pacing are opt-in: off by default.
        assert_eq!(t.readahead_max, 0.0);
        assert_eq!(t.throttle_pacing, 0.0);
        assert_eq!(t.eviction_policy, EvictionPolicy::TwoList);
        assert_eq!(
            t.with_eviction_policy(EvictionPolicy::TwoQ).eviction_policy,
            EvictionPolicy::TwoQ
        );
        assert!(t.validate().is_ok());
        let mut bad = t;
        bad.dirty_background_ratio = 0.5;
        assert!(bad.validate().is_err());
        bad = t;
        bad.total_memory = 0.0;
        assert!(bad.validate().is_err());
        // NaN must fail every check: a NaN interval would spin the
        // writeback loop, a NaN expiry would silently disable expiry.
        for interval in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            bad = t;
            bad.writeback_interval = interval;
            assert!(bad.validate().is_err(), "writeback interval {interval}");
        }
        for expire in [-1.0, f64::NAN] {
            bad = t;
            bad.dirty_expire = expire;
            assert!(bad.validate().is_err(), "dirty expire {expire}");
        }
    }

    #[test]
    fn readahead_and_pacing_validation() {
        let t = KernelTuning::with_memory(1e9);
        let linux = t.with_readahead(LINUX_READAHEAD_MIN, LINUX_READAHEAD_MAX);
        assert!(linux.validate().is_ok());
        // min > max is rejected.
        assert!(t
            .with_readahead(2.0 * PAGE_SIZE, PAGE_SIZE)
            .validate()
            .is_err());
        // Enabling readahead without an initial window is rejected.
        assert!(t.with_readahead(0.0, PAGE_SIZE).validate().is_err());
        // Non-finite and negative values are rejected.
        assert!(t.with_readahead(-1.0, PAGE_SIZE).validate().is_err());
        assert!(t
            .with_readahead(PAGE_SIZE, f64::INFINITY)
            .validate()
            .is_err());
        assert!(t.with_throttle_pacing(1.0).validate().is_ok());
        assert!(t.with_throttle_pacing(-0.5).validate().is_err());
        assert!(t.with_throttle_pacing(f64::NAN).validate().is_err());
    }
}
