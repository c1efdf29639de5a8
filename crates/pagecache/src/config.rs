//! Page cache configuration: the settings of one host's page cache, read by
//! both cache models (this crate's [`MemoryManager`](crate::MemoryManager)
//! and the kernel emulator's `KernelCache`).
//!
//! Defaults follow the Linux kernel defaults used on the paper's cluster
//! (CentOS 8.1): `vm.dirty_ratio = 20 %`, `vm.dirty_background_ratio =
//! 10 %`, `dirty_expire_centisecs = 3000` (30 s), a 5 s writeback wakeup
//! interval, and the classic active/inactive 2-list eviction policy.
//! Readahead and writer pacing are off by default.

use storage_model::units::PAGE_SIZE;

use crate::policy::EvictionPolicy;

/// The initial readahead window Linux grants a fresh sequential stream
/// before any doubling (16 pages = 64 KiB, the common `get_init_ra_size`
/// outcome for small first reads). Exposed so callers enabling readahead can
/// mirror the kernel's defaults at page scale.
pub const LINUX_READAHEAD_MIN: f64 = 16.0 * PAGE_SIZE;

/// The maximum readahead window of a stock Linux block device
/// (`/sys/block/<dev>/queue/read_ahead_kb` = 128, i.e. 32 pages).
pub const LINUX_READAHEAD_MAX: f64 = 32.0 * PAGE_SIZE;

/// How writes interact with the page cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Writes go to the page cache as dirty data and are flushed to disk
    /// asynchronously (default for local filesystems).
    WriteBack,
    /// Writes go to disk synchronously; the written data is then added to the
    /// cache as clean data (the paper's NFS server configuration). Only the
    /// page cache model has this mode.
    WriteThrough,
}

/// The page-cache settings of one host. The host's RAM is not part of it:
/// the cache models take it as its own argument, so a host and its NFS
/// server can share one configuration.
///
/// The paper's model reads the write mode, the chunk size, the dirty ratio,
/// the dirty expiry, the flush interval and the eviction policy. The
/// background ratio, readahead and writer pacing are kernel behaviours the
/// model omits; only the kernel emulator reads them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageCacheConfig {
    /// Write mode of the cache.
    pub write_mode: WriteMode,
    /// Bytes per request the I/O controller (or the emulated VFS) sends to
    /// the cache.
    pub chunk_size: f64,
    /// `vm.dirty_ratio`: fraction of available memory that may hold dirty
    /// data before writers are throttled and must write back synchronously.
    pub dirty_ratio: f64,
    /// `vm.dirty_background_ratio`: fraction of available memory above which
    /// the background writeback threads start flushing. The paper's model
    /// omits this, which is why it observes that "dirty data seemed to be
    /// flushing faster in real life than in simulation".
    pub dirty_background_ratio: f64,
    /// `vm.dirty_expire_centisecs` in seconds: age after which dirty data is
    /// written back by the periodical flusher regardless of the thresholds.
    pub dirty_expire: f64,
    /// `vm.dirty_writeback_centisecs` in seconds: wakeup interval of the
    /// periodical flusher (the kernel's writeback threads).
    pub flush_interval: f64,
    /// Initial readahead window in bytes, granted when a file stream is
    /// detected as sequential (Linux `get_init_ra_size`; see
    /// [`LINUX_READAHEAD_MIN`]). Only meaningful when `readahead_max > 0`.
    pub readahead_min: f64,
    /// Maximum readahead window in bytes (Linux
    /// `/sys/block/<dev>/queue/read_ahead_kb`; see [`LINUX_READAHEAD_MAX`]).
    /// The window doubles on every sequential access up to this bound and
    /// collapses to zero on a non-sequential one. **Zero disables readahead
    /// entirely** — the default, so amount-based predictions are unchanged
    /// unless a platform opts in.
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
    /// Replacement policy deciding which cached data is evicted first (and
    /// ghost promotions under 2Q). The default [`EvictionPolicy::TwoList`]
    /// is the classic active/inactive behaviour.
    pub eviction_policy: EvictionPolicy,
}

impl Default for PageCacheConfig {
    fn default() -> Self {
        PageCacheConfig {
            write_mode: WriteMode::WriteBack,
            chunk_size: 100.0 * 1e6,
            dirty_ratio: 0.20,
            dirty_background_ratio: 0.10,
            dirty_expire: 30.0,
            flush_interval: 5.0,
            readahead_min: 0.0,
            readahead_max: 0.0,
            throttle_pacing: 0.0,
            eviction_policy: EvictionPolicy::TwoList,
        }
    }
}

impl PageCacheConfig {
    /// Validates the configuration, returning a description of the first
    /// problem found. Every check is written so that NaN fails it.
    pub fn validate(&self) -> Result<(), String> {
        let ratio = |r: f64| (0.0..=1.0).contains(&r);
        let window = |w: f64| w >= 0.0 && w.is_finite();
        if self.chunk_size.is_nan() || self.chunk_size <= 0.0 {
            Err(format!(
                "chunk size must be positive, got {}",
                self.chunk_size
            ))
        } else if !ratio(self.dirty_ratio) || !ratio(self.dirty_background_ratio) {
            Err(format!(
                "dirty ratios must be in [0, 1], got {} and background {}",
                self.dirty_ratio, self.dirty_background_ratio
            ))
        } else if self.dirty_background_ratio > self.dirty_ratio {
            Err("dirty_background_ratio must not exceed dirty_ratio".to_string())
        } else if self.dirty_expire.is_nan() || self.dirty_expire < 0.0 {
            Err(format!(
                "dirty expire must be >= 0, got {}",
                self.dirty_expire
            ))
        } else if !(self.flush_interval > 0.0 && self.flush_interval.is_finite()) {
            Err(format!(
                "flush interval must be positive and finite, got {}",
                self.flush_interval
            ))
        } else if !window(self.readahead_min) || !window(self.readahead_max) {
            Err("readahead windows must be finite and non-negative".to_string())
        } else if self.readahead_max > 0.0 && self.readahead_min <= 0.0 {
            Err("readahead_min must be positive when readahead is enabled".to_string())
        } else if self.readahead_min > self.readahead_max {
            Err("readahead_min must not exceed readahead_max".to_string())
        } else if !window(self.throttle_pacing) {
            Err("throttle pacing must be finite and non-negative".to_string())
        } else {
            Ok(())
        }
    }

    /// Checks the RAM of a host (bytes) that a cache model is built for:
    /// positive and finite. NaN fails it.
    pub fn check_memory(total_memory: f64) -> Result<(), String> {
        if total_memory > 0.0 && total_memory.is_finite() {
            Ok(())
        } else {
            Err(format!(
                "total memory must be positive and finite, got {total_memory}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_kernel_settings_and_validate() {
        let cfg = PageCacheConfig::default();
        assert_eq!(cfg.write_mode, WriteMode::WriteBack);
        assert_eq!(cfg.chunk_size, 100.0 * 1e6);
        assert_eq!(cfg.dirty_ratio, 0.20);
        assert_eq!(cfg.dirty_background_ratio, 0.10);
        assert_eq!(cfg.dirty_expire, 30.0);
        assert_eq!(cfg.flush_interval, 5.0);
        // Readahead and writer pacing are opt-in: off by default.
        assert_eq!(cfg.readahead_max, 0.0);
        assert_eq!(cfg.throttle_pacing, 0.0);
        assert_eq!(cfg.eviction_policy, EvictionPolicy::TwoList);
        assert!(cfg.validate().is_ok());
        assert!(PageCacheConfig::check_memory(1e9).is_ok());
    }

    /// The one table of valid and invalid settings: each row changes one
    /// field of the default configuration.
    #[test]
    fn validate_accepts_and_rejects_each_setting() {
        type Row = (&'static str, fn(&mut PageCacheConfig), bool);
        let rows: &[Row] = &[
            (
                "writethrough",
                |c| c.write_mode = WriteMode::WriteThrough,
                true,
            ),
            ("2Q", |c| c.eviction_policy = EvictionPolicy::TwoQ, true),
            ("chunk 50 MB", |c| c.chunk_size = 50e6, true),
            ("chunk 0", |c| c.chunk_size = 0.0, false),
            ("chunk -1", |c| c.chunk_size = -1.0, false),
            ("chunk NaN", |c| c.chunk_size = f64::NAN, false),
            ("dirty ratio 1", |c| c.dirty_ratio = 1.0, true),
            ("dirty ratio 1.5", |c| c.dirty_ratio = 1.5, false),
            ("dirty ratio 2", |c| c.dirty_ratio = 2.0, false),
            ("dirty ratio -0.1", |c| c.dirty_ratio = -0.1, false),
            ("dirty ratio NaN", |c| c.dirty_ratio = f64::NAN, false),
            ("dirty ratio 0.05", |c| c.dirty_ratio = 0.05, false),
            ("background 0.2", |c| c.dirty_background_ratio = 0.2, true),
            ("background 0.5", |c| c.dirty_background_ratio = 0.5, false),
            ("background 0.9", |c| c.dirty_background_ratio = 0.9, false),
            (
                "background NaN",
                |c| c.dirty_background_ratio = f64::NAN,
                false,
            ),
            // Zero expires dirty data at the next flush; infinity never does.
            ("expire 0", |c| c.dirty_expire = 0.0, true),
            (
                "expire f64::INFINITY",
                |c| c.dirty_expire = f64::INFINITY,
                true,
            ),
            // A NaN expiry would silently disable expiry.
            ("expire -1", |c| c.dirty_expire = -1.0, false),
            ("expire NaN", |c| c.dirty_expire = f64::NAN, false),
            // A NaN interval would spin the writeback loop.
            ("interval 1", |c| c.flush_interval = 1.0, true),
            ("interval 0", |c| c.flush_interval = 0.0, false),
            ("interval -1", |c| c.flush_interval = -1.0, false),
            ("interval NaN", |c| c.flush_interval = f64::NAN, false),
            (
                "interval f64::INFINITY",
                |c| c.flush_interval = f64::INFINITY,
                false,
            ),
            (
                "stock readahead",
                |c| set_readahead(c, LINUX_READAHEAD_MIN, LINUX_READAHEAD_MAX),
                true,
            ),
            (
                "readahead 16..256 MB",
                |c| set_readahead(c, 16e6, 256e6),
                true,
            ),
            (
                "readahead min > max",
                |c| set_readahead(c, 2.0 * PAGE_SIZE, PAGE_SIZE),
                false,
            ),
            (
                "readahead min 0",
                |c| set_readahead(c, 0.0, PAGE_SIZE),
                false,
            ),
            (
                "readahead min -1",
                |c| set_readahead(c, -1.0, PAGE_SIZE),
                false,
            ),
            (
                "readahead max f64::INFINITY",
                |c| set_readahead(c, PAGE_SIZE, f64::INFINITY),
                false,
            ),
            (
                "readahead min NaN",
                |c| set_readahead(c, f64::NAN, PAGE_SIZE),
                false,
            ),
            ("pacing 1", |c| c.throttle_pacing = 1.0, true),
            ("pacing -0.5", |c| c.throttle_pacing = -0.5, false),
            ("pacing NaN", |c| c.throttle_pacing = f64::NAN, false),
            (
                "pacing f64::INFINITY",
                |c| c.throttle_pacing = f64::INFINITY,
                false,
            ),
        ];
        for (what, change, valid) in rows {
            let mut cfg = PageCacheConfig::default();
            change(&mut cfg);
            assert_eq!(cfg.validate().is_ok(), *valid, "{what}");
        }
        for memory in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                PageCacheConfig::check_memory(memory).is_err(),
                "memory {memory}"
            );
        }
    }

    fn set_readahead(cfg: &mut PageCacheConfig, min: f64, max: f64) {
        cfg.readahead_min = min;
        cfg.readahead_max = max;
    }
}
