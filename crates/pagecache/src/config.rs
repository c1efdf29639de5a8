//! Page cache configuration parameters.
//!
//! Defaults follow the Linux kernel defaults used on the paper's cluster
//! (CentOS 8.1): `vm.dirty_ratio = 20 %`, `dirty_expire_centisecs = 3000`
//! (30 s), a 5 s writeback wakeup interval, and the classic active/inactive
//! 2-list eviction policy.

use crate::policy::EvictionPolicy;

/// How writes interact with the page cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Writes go to the page cache as dirty data and are flushed to disk
    /// asynchronously (default for local filesystems).
    WriteBack,
    /// Writes go to disk synchronously; the written data is then added to the
    /// cache as clean data (the paper's NFS server configuration).
    WriteThrough,
}

/// Tunable parameters of the simulated page cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageCacheConfig {
    /// Total RAM of the host, in bytes.
    pub total_memory: f64,
    /// Fraction of available memory that may hold dirty data before writers
    /// are throttled (`vm.dirty_ratio`).
    pub dirty_ratio: f64,
    /// Age in seconds after which dirty data is written back by the
    /// periodical flusher (`vm.dirty_expire_centisecs`).
    pub dirty_expire: f64,
    /// Wakeup interval of the periodical flusher, in seconds
    /// (`vm.dirty_writeback_centisecs`).
    pub flush_interval: f64,
    /// Write mode of the cache.
    pub write_mode: WriteMode,
    /// Replacement policy deciding which cached data is evicted first.
    pub eviction_policy: EvictionPolicy,
}

impl PageCacheConfig {
    /// Creates a configuration with kernel-default cache parameters and the
    /// given amount of RAM.
    pub fn with_memory(total_memory: f64) -> Self {
        PageCacheConfig {
            total_memory,
            dirty_ratio: 0.20,
            dirty_expire: 30.0,
            flush_interval: 5.0,
            write_mode: WriteMode::WriteBack,
            eviction_policy: EvictionPolicy::TwoList,
        }
    }

    /// Overrides the eviction policy.
    pub fn with_eviction_policy(mut self, policy: EvictionPolicy) -> Self {
        self.eviction_policy = policy;
        self
    }

    /// Switches the configuration to writethrough mode.
    pub fn writethrough(mut self) -> Self {
        self.write_mode = WriteMode::WriteThrough;
        self
    }

    /// Overrides the dirty ratio.
    pub fn with_dirty_ratio(mut self, ratio: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&ratio),
            "dirty ratio must be in [0, 1]"
        );
        self.dirty_ratio = ratio;
        self
    }

    /// Overrides the dirty expiration age (seconds).
    pub fn with_dirty_expire(mut self, secs: f64) -> Self {
        assert!(secs >= 0.0, "dirty expire must be non-negative");
        self.dirty_expire = secs;
        self
    }

    /// Overrides the periodical flusher interval (seconds).
    pub fn with_flush_interval(mut self, secs: f64) -> Self {
        assert!(secs > 0.0, "flush interval must be positive");
        self.flush_interval = secs;
        self
    }

    /// Validates the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.total_memory > 0.0 && self.total_memory.is_finite()) {
            return Err(format!(
                "total memory must be positive, got {}",
                self.total_memory
            ));
        }
        if !(0.0..=1.0).contains(&self.dirty_ratio) {
            return Err(format!(
                "dirty ratio must be in [0, 1], got {}",
                self.dirty_ratio
            ));
        }
        if self.dirty_expire.is_nan() || self.dirty_expire < 0.0 {
            return Err(format!(
                "dirty expire must be >= 0, got {}",
                self.dirty_expire
            ));
        }
        if !(self.flush_interval > 0.0 && self.flush_interval.is_finite()) {
            return Err(format!(
                "flush interval must be positive and finite, got {}",
                self.flush_interval
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_kernel_settings() {
        let cfg = PageCacheConfig::with_memory(1e9);
        assert_eq!(cfg.dirty_ratio, 0.20);
        assert_eq!(cfg.dirty_expire, 30.0);
        assert_eq!(cfg.flush_interval, 5.0);
        assert_eq!(cfg.write_mode, WriteMode::WriteBack);
        assert_eq!(cfg.eviction_policy, EvictionPolicy::TwoList);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builder_methods() {
        let cfg = PageCacheConfig::with_memory(1e9)
            .writethrough()
            .with_dirty_ratio(0.4)
            .with_dirty_expire(10.0)
            .with_flush_interval(1.0)
            .with_eviction_policy(EvictionPolicy::TwoQ);
        assert_eq!(cfg.write_mode, WriteMode::WriteThrough);
        assert_eq!(cfg.dirty_ratio, 0.4);
        assert_eq!(cfg.dirty_expire, 10.0);
        assert_eq!(cfg.flush_interval, 1.0);
        assert_eq!(cfg.eviction_policy, EvictionPolicy::TwoQ);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut cfg = PageCacheConfig::with_memory(0.0);
        assert!(cfg.validate().is_err());
        cfg.total_memory = 1e9;
        cfg.dirty_ratio = 1.5;
        assert!(cfg.validate().is_err());
        cfg.dirty_ratio = 0.2;
        for interval in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            cfg.flush_interval = interval;
            assert!(cfg.validate().is_err(), "flush interval {interval}");
        }
        cfg.flush_interval = 5.0;
        for expire in [-1.0, f64::NAN] {
            cfg.dirty_expire = expire;
            assert!(cfg.validate().is_err(), "dirty expire {expire}");
        }
    }

    #[test]
    #[should_panic(expected = "dirty ratio")]
    fn builder_panics_on_invalid_ratio() {
        let _ = PageCacheConfig::with_memory(1e9).with_dirty_ratio(2.0);
    }
}
