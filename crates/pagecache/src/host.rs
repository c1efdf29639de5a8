//! The host core both cache models are built on (paper §III-A).
//!
//! In the paper the Memory Manager owns a host's memory accounting and its
//! periodical flusher (Algorithm 1), and the kernel emulator, which stands
//! in for the real node, keeps the same host state. [`Host`] holds that
//! state once:
//!
//! * the memory bus, the disk, the page-cache configuration and the RAM;
//! * the applications' anonymous memory, from which free and available
//!   memory and the dirty and background thresholds follow;
//! * the [`CacheCounters`], the memory trace and the cache-content snapshot;
//! * the stop flag and the flush-interval loop ([`Host::run_flush_loop`]).
//!
//! A cache model adds only its own cache state, a [`CacheState`]: the
//! [`MemoryManager`](crate::MemoryManager) its LRU lists, the kernel
//! emulator its page-granularity file slots. Each model is a newtype over
//! `Host<its state>` and dereferences to it. Every byte a model evicts goes
//! through [`Host::evict`] and every byte it writes back through
//! [`Host::flush_with`], so both models count the same way, and
//! [`Host::enforce_group_limits`] runs the same sequence on both.
//!
//! The model's state and the core's share one `RefCell`, so an operation
//! takes one borrow, as it did when each model kept its own copy. The small
//! methods the I/O paths call on every chunk are `#[inline]`: as generic
//! code they are otherwise not inlined across codegen units.

use std::cell::{Ref, RefCell, RefMut};
use std::collections::BTreeMap;
use std::future::Future;
use std::rc::Rc;

use des::SimContext;
use storage_model::{Disk, MemoryDevice};

use crate::block::FileId;
use crate::config::PageCacheConfig;
use crate::file_table::ReclaimScope;
use crate::lru::EPSILON;
use crate::stats::{CacheContentSnapshot, CacheCounters, CacheWork, MemorySample, MemoryTrace};

/// The cache state a model keeps on its [`Host`]: the totals the core's
/// accounting reads, and the two reclaim walks the core counts.
pub trait CacheState {
    /// Page cache bytes, clean and dirty.
    fn cached(&self) -> f64;
    /// Dirty page cache bytes.
    fn dirty(&self) -> f64;
    /// Cached bytes per file.
    fn cached_per_file(&self) -> BTreeMap<FileId, f64>;
    /// Work counts of the reclaim walks so far.
    fn work(&self) -> CacheWork;
    /// Cached bytes (clean and dirty) of a cache group.
    fn group_cached(&self, group: u32) -> f64;
    /// Dirty bytes of a cache group.
    fn group_dirty(&self, group: u32) -> f64;
    /// Drops up to `amount` clean bytes within `scope` and returns the bytes
    /// dropped. Non-positive amounts are a no-op.
    fn evict(&mut self, amount: f64, scope: ReclaimScope) -> f64;
    /// Marks up to `amount` dirty bytes within `scope` clean, oldest first,
    /// and returns the bytes cleaned; the caller writes them to disk.
    /// Non-positive amounts are a no-op.
    fn write_back(&mut self, amount: f64, scope: ReclaimScope) -> f64;
}

/// The mutable part of a [`Host`], behind its one `RefCell`.
struct HostState<S> {
    cache: S,
    counters: CacheCounters,
    anonymous: f64,
    trace: MemoryTrace,
    stop: bool,
}

/// The state one host keeps the same way under either cache model (see the
/// module docs). Cloning returns another handle to the same host.
pub struct Host<S> {
    ctx: SimContext,
    config: PageCacheConfig,
    total_memory: f64,
    memory: MemoryDevice,
    disk: Disk,
    state: Rc<RefCell<HostState<S>>>,
}

impl<S> Clone for Host<S> {
    fn clone(&self) -> Self {
        Host {
            ctx: self.ctx.clone(),
            config: self.config,
            total_memory: self.total_memory,
            memory: self.memory.clone(),
            disk: self.disk.clone(),
            state: Rc::clone(&self.state),
        }
    }
}

impl<S: CacheState> Host<S> {
    /// Creates the core of a host with the given page-cache configuration,
    /// `total_memory` bytes of RAM, memory bus and backing disk, around the
    /// model's empty cache state.
    ///
    /// # Panics
    /// Panics if the configuration or the memory size is invalid.
    pub fn new(
        ctx: &SimContext,
        config: PageCacheConfig,
        total_memory: f64,
        memory: MemoryDevice,
        disk: Disk,
        cache: S,
    ) -> Self {
        config
            .validate()
            .and(PageCacheConfig::check_memory(total_memory))
            .expect("invalid page cache configuration");
        Host {
            ctx: ctx.clone(),
            config,
            total_memory,
            memory,
            disk,
            state: Rc::new(RefCell::new(HostState {
                cache,
                counters: CacheCounters::default(),
                anonymous: 0.0,
                trace: MemoryTrace::new(),
                stop: false,
            })),
        }
    }

    /// The simulation context of the host.
    #[inline]
    pub fn ctx(&self) -> &SimContext {
        &self.ctx
    }

    /// The configuration this host was created with.
    #[inline]
    pub fn config(&self) -> &PageCacheConfig {
        &self.config
    }

    /// The backing disk dirty data is written back to.
    #[inline]
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// The memory bus used for cache hits and cache writes.
    #[inline]
    pub fn memory(&self) -> &MemoryDevice {
        &self.memory
    }

    /// Total RAM of the host in bytes.
    pub fn total_memory(&self) -> f64 {
        self.total_memory
    }

    /// The model's cache state.
    #[inline]
    pub fn cache(&self) -> Ref<'_, S> {
        Ref::map(self.state.borrow(), |s| &s.cache)
    }

    /// The model's cache state, for a change.
    #[inline]
    pub fn cache_mut(&self) -> RefMut<'_, S> {
        RefMut::map(self.state.borrow_mut(), |s| &mut s.cache)
    }

    /// The counters, for a model to add what only it measures.
    #[inline]
    pub fn counters_mut(&self) -> RefMut<'_, CacheCounters> {
        RefMut::map(self.state.borrow_mut(), |s| &mut s.counters)
    }

    /// Page cache size (clean + dirty), in bytes.
    #[inline]
    pub fn cached(&self) -> f64 {
        self.state.borrow().cache.cached()
    }

    /// Dirty page cache data, in bytes.
    #[inline]
    pub fn dirty(&self) -> f64 {
        self.state.borrow().cache.dirty()
    }

    /// Anonymous (application) memory in use, in bytes.
    #[inline]
    pub fn anonymous(&self) -> f64 {
        self.state.borrow().anonymous
    }

    /// Free memory: total minus cache minus anonymous memory (clamped at 0).
    #[inline]
    pub fn free_memory(&self) -> f64 {
        let s = self.state.borrow();
        (self.total_memory - s.cache.cached() - s.anonymous).max(0.0)
    }

    /// Memory available to the page cache: total minus anonymous memory. This
    /// is the base of the dirty-ratio computation (paper Algorithm 3, line 5).
    #[inline]
    pub fn available_memory(&self) -> f64 {
        (self.total_memory - self.state.borrow().anonymous).max(0.0)
    }

    /// The dirty threshold in bytes: `dirty_ratio * available_memory`.
    #[inline]
    pub fn dirty_threshold(&self) -> f64 {
        self.config.dirty_ratio * self.available_memory()
    }

    /// The background writeback threshold in bytes:
    /// `dirty_background_ratio * available_memory`.
    #[inline]
    pub fn background_threshold(&self) -> f64 {
        self.config.dirty_background_ratio * self.available_memory()
    }

    /// Registers `amount` bytes of anonymous application memory.
    #[inline]
    pub fn use_anonymous_memory(&self, amount: f64) {
        if amount > 0.0 {
            self.state.borrow_mut().anonymous += amount;
        }
    }

    /// Releases anonymous application memory (saturating at zero), e.g. when
    /// a task completes.
    pub fn release_anonymous_memory(&self, amount: f64) {
        if amount > 0.0 {
            let mut s = self.state.borrow_mut();
            s.anonymous = (s.anonymous - amount).max(0.0);
        }
    }

    /// Simulated power loss: drops all anonymous memory and lets the model
    /// drop its cache with `discard`, whose result is returned. The trace
    /// and counters survive: they describe the run, not the volatile state.
    pub fn crash<R>(&self, discard: impl FnOnce(&mut S) -> R) -> R {
        let mut s = self.state.borrow_mut();
        s.anonymous = 0.0;
        discard(&mut s.cache)
    }

    /// The flushed, evicted and run counters so far.
    pub fn counters(&self) -> CacheCounters {
        self.state.borrow().counters
    }

    /// Work counts of the model's reclaim walks so far.
    pub fn work(&self) -> CacheWork {
        self.state.borrow().cache.work()
    }

    /// Cached bytes (clean + dirty) currently attributed to a cache group.
    pub fn group_cached(&self, group: u32) -> f64 {
        self.state.borrow().cache.group_cached(group)
    }

    /// Dirty bytes currently attributed to a cache group.
    pub fn group_dirty(&self, group: u32) -> f64 {
        self.state.borrow().cache.group_dirty(group)
    }

    /// Evicts up to `amount` clean bytes within `scope` (paper §III-A-3).
    /// Eviction takes no simulated time ("cache eviction time is negligible
    /// in real systems"). Returns the bytes evicted; non-positive amounts
    /// are a no-op.
    #[inline]
    pub fn evict(&self, amount: f64, scope: ReclaimScope) -> f64 {
        let mut s = self.state.borrow_mut();
        let evicted = s.cache.evict(amount, scope);
        s.counters.evicted += evicted;
        evicted
    }

    /// Writes back up to `amount` dirty bytes within `scope`, oldest first,
    /// as synchronous writeback (paper §III-A-3), simulating the disk write.
    /// Returns the bytes written back; non-positive amounts are a no-op.
    #[inline]
    pub fn flush(&self, amount: f64, scope: ReclaimScope) -> impl Future<Output = f64> + '_ {
        self.flush_with(false, move |cache| cache.write_back(amount, scope))
    }

    /// The one writeback path of both models: `clean` marks dirty bytes of
    /// the cache state clean and returns how many, which count as
    /// `background` or synchronous writeback and are then written to disk.
    /// Returns the bytes written back.
    ///
    /// The writebacks built on it return this future itself instead of
    /// awaiting it in an `async fn` of their own, which would wrap it in a
    /// second state machine: the I/O controller flushes on every chunk.
    pub async fn flush_with(&self, background: bool, clean: impl FnOnce(&mut S) -> f64) -> f64 {
        let flushed = {
            let mut s = self.state.borrow_mut();
            let flushed = clean(&mut s.cache);
            if background {
                s.counters.background_flushed += flushed;
            } else {
                s.counters.synchronous_flushed += flushed;
            }
            flushed
        };
        if flushed > EPSILON {
            self.disk.write(flushed).await;
        }
        flushed
    }

    /// Enforces memcg-style limits on one cache group: first writes back the
    /// group's dirty data above `max_dirty`, then evicts the group's clean
    /// data above `max_bytes`; if the group still exceeds its cap because the
    /// overflow is dirty, that remainder is flushed and evicted too. Disk
    /// write time is simulated. Returns `(evicted, flushed)` byte totals.
    pub async fn enforce_group_limits(
        &self,
        group: u32,
        max_bytes: f64,
        max_dirty: f64,
    ) -> (f64, f64) {
        let scope = ReclaimScope::Group(group);
        let mut flushed = 0.0;
        let over_dirty = self.group_dirty(group) - max_dirty;
        if over_dirty > EPSILON {
            flushed += self.flush(over_dirty, scope).await;
        }
        let mut evicted = 0.0;
        let over = self.group_cached(group) - max_bytes;
        if over > EPSILON {
            evicted += self.evict(over, scope);
        }
        // Whatever is still above the cap must be dirty: clean it, then
        // evict again.
        let still_over = self.group_cached(group) - max_bytes;
        if still_over > EPSILON {
            flushed += self.flush(still_over, scope).await;
            let rest = self.group_cached(group) - max_bytes;
            if rest > EPSILON {
                evicted += self.evict(rest, scope);
            }
        }
        (evicted, flushed)
    }

    /// Records a memory sample into the trace and returns it.
    pub fn sample(&self) -> MemorySample {
        let mut s = self.state.borrow_mut();
        let (cached, dirty) = (s.cache.cached(), s.cache.dirty());
        let sample = MemorySample::new(
            self.ctx.now(),
            self.total_memory,
            cached,
            dirty,
            s.anonymous,
        );
        s.trace.push(sample.clone());
        sample
    }

    /// The memory profile collected so far (Fig. 4b).
    pub fn trace(&self) -> MemoryTrace {
        self.state.borrow().trace.clone()
    }

    /// Takes a labelled snapshot of the cache content per file (Fig. 4c).
    pub fn cache_content_snapshot(&self, label: impl Into<String>) -> CacheContentSnapshot {
        CacheContentSnapshot {
            label: label.into(),
            time: self.ctx.now().as_secs(),
            per_file: self.state.borrow().cache.cached_per_file(),
        }
    }

    /// The flush-interval loop of the background flusher (paper Algorithm
    /// 1): runs `body`, counts the run, and sleeps the rest of
    /// `flush_interval`, until [`Host::stop`] is called and the current
    /// interval elapses.
    pub async fn run_flush_loop<F: Future>(&self, mut body: impl FnMut() -> F) {
        while !self.state.borrow().stop {
            let start = self.ctx.now();
            body().await;
            self.state.borrow_mut().counters.flusher_runs += 1;
            let elapsed = self.ctx.now().duration_since(start);
            if elapsed < self.config.flush_interval {
                self.ctx.sleep(self.config.flush_interval - elapsed).await;
            }
        }
    }

    /// Asks the flush-interval loop to exit at its next wakeup (so that the
    /// simulation terminates once applications complete).
    pub fn stop(&self) {
        self.state.borrow_mut().stop = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruLists;
    use des::Simulation;
    use storage_model::{units::MB, DeviceSpec};

    /// A host over the page cache model's lists (1000 MB/s memory bus,
    /// 100 MB/s disk).
    fn setup(total_memory: f64) -> (Simulation, Host<LruLists>) {
        let sim = Simulation::new();
        let ctx = sim.context();
        let device = |bw: f64| DeviceSpec::symmetric(bw * MB, 0.0, f64::INFINITY);
        let memory = MemoryDevice::new(&ctx, device(1000.0));
        let disk = Disk::new(&ctx, "disk0", device(100.0));
        let lru = LruLists::new();
        let host = Host::new(
            &ctx,
            PageCacheConfig::default(),
            total_memory,
            memory,
            disk,
            lru,
        );
        (sim, host)
    }

    /// Caches `amount` bytes of `name`, dirty or clean, and returns its key.
    fn add(host: &Host<LruLists>, name: &str, amount: f64, dirty: bool) -> u64 {
        let now = host.ctx().now();
        let mut lru = host.cache_mut();
        let key = lru.key_or_insert(&name.into());
        if dirty {
            lru.add_dirty(key, amount, now);
        } else {
            lru.add_clean(key, amount, now);
        }
        key
    }

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() < 1e-6 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn memory_accounting_thresholds_and_release() {
        let (_sim, host) = setup(1000.0 * MB);
        assert_eq!(host.free_memory(), 1000.0 * MB);
        approx(host.dirty_threshold(), 200.0 * MB);
        add(&host, "f", 100.0 * MB, false);
        add(&host, "g", 50.0 * MB, true);
        host.use_anonymous_memory(200.0 * MB);
        host.use_anonymous_memory(-MB);
        approx(host.cached(), 150.0 * MB);
        approx(host.dirty(), 50.0 * MB);
        approx(host.anonymous(), 200.0 * MB);
        approx(host.free_memory(), 650.0 * MB);
        approx(host.available_memory(), 800.0 * MB);
        // Both limits follow the memory anonymous use leaves available.
        approx(host.dirty_threshold(), 160.0 * MB);
        approx(host.background_threshold(), 80.0 * MB);
        // Anonymous use beyond the RAM clamps free and available memory.
        host.use_anonymous_memory(2000.0 * MB);
        assert_eq!(host.free_memory(), 0.0);
        assert_eq!(host.available_memory(), 0.0);
        // A release saturates at zero.
        host.release_anonymous_memory(5000.0 * MB);
        assert_eq!(host.anonymous(), 0.0);
        host.cache().check_invariants().unwrap();
    }

    #[test]
    fn sample_snapshot_and_crash_capture_state() {
        let (_sim, host) = setup(1000.0 * MB);
        host.use_anonymous_memory(100.0 * MB);
        add(&host, "f1", 200.0 * MB, false);
        add(&host, "f2", 50.0 * MB, true);
        let s = host.sample();
        approx(s.cached, 250.0 * MB);
        approx(s.dirty, 50.0 * MB);
        approx(s.anonymous, 100.0 * MB);
        approx(s.used, 350.0 * MB);
        // Used memory is capped at the host's RAM.
        host.use_anonymous_memory(900.0 * MB);
        approx(host.sample().used, 1000.0 * MB);
        assert_eq!(host.trace().len(), 2);
        let snap = host.cache_content_snapshot("after");
        assert_eq!(snap.label, "after");
        approx(snap.cached(&"f1".into()), 200.0 * MB);
        approx(snap.cached(&"f2".into()), 50.0 * MB);
        // A crash drops the anonymous memory and what the model discards;
        // the trace survives.
        let dropped = host.crash(|lru| lru.invalidate_file(0) + lru.invalidate_file(1));
        approx(dropped, 250.0 * MB);
        approx(host.anonymous(), 0.0);
        assert!(host.cache_content_snapshot("end").per_file.is_empty());
        assert_eq!(host.trace().len(), 2);
    }

    #[test]
    fn enforce_group_limits_flushes_and_evicts_only_the_group() {
        let (sim, host) = setup(10_000.0 * MB);
        host.cache_mut().set_file_group("tenant".into(), Some(7));
        add(&host, "tenant", 300.0 * MB, false);
        let other = add(&host, "other", 400.0 * MB, false);
        // Bytes cached before the file joins the group count to it.
        add(&host, "log", 200.0 * MB, true);
        host.cache_mut().set_file_group("log".into(), Some(7));
        let h = sim.spawn({
            let host = host.clone();
            // Group 7 holds 500 MB cached / 200 MB dirty. Cap it at
            // 250 MB cached and 50 MB dirty.
            async move { host.enforce_group_limits(7, 250.0 * MB, 50.0 * MB).await }
        });
        sim.run();
        let (evicted, flushed) = h.try_take_result().unwrap();
        approx(flushed, 150.0 * MB);
        approx(evicted, 250.0 * MB);
        approx(host.group_cached(7), 250.0 * MB);
        approx(host.group_dirty(7), 50.0 * MB);
        // The other file (no group) is untouched.
        approx(host.cache().cached_amount(other), 400.0 * MB);
        approx(host.cached(), 650.0 * MB);
        // Both steps are counted, and the flush took disk time.
        approx(host.counters().synchronous_flushed, 150.0 * MB);
        approx(host.counters().evicted, 250.0 * MB);
        approx(host.disk().total_bytes_written(), 150.0 * MB);
        approx(sim.now().as_secs(), 1.5);
        host.cache().check_invariants().unwrap();
    }
}
