//! The Memory Manager (paper §III-A).
//!
//! The Memory Manager owns the LRU lists and the memory accounting of one
//! host. Its *main thread* operations (flushing, eviction, cached reads and
//! writes) are invoked synchronously by the I/O controller; its *background
//! thread* — the periodical flusher — runs as a separate simulated process
//! and writes back expired dirty data (Algorithm 1). Disk and memory transfer
//! times are delegated to the flow-level storage models, so concurrent
//! accesses from several applications naturally share bandwidth.
//!
//! The underlying [`LruLists`] are an intrusive slab arena with per-file and
//! per-list clean and dirty chains, so the per-request operations the
//! controller drives scale with the data they touch, not with the total
//! cache population: [`MemoryManager::read_from_cache`] and
//! [`MemoryManager::invalidate_file`] visit only the target file's blocks,
//! [`MemoryManager::flush`] and [`MemoryManager::flush_expired`] only dirty
//! blocks, [`MemoryManager::evict`] only clean blocks, and every byte
//! aggregate the controller polls is O(1). Per-file state lives in a slot
//! table: each call here resolves the file name once, and the block steps
//! behind it index slots instead of hashing names. The same table is the
//! host's file namespace: [`MemoryManager::create_file`],
//! [`MemoryManager::extend_file`] and [`MemoryManager::file_size`] keep
//! each file's size in its slot, and a slot lives as long as its file.
//!
//! [`MemoryManager::evict`] and [`MemoryManager::flush`] take a
//! [`ReclaimScope`]: the controller's read step reclaims host-wide,
//! excluding the file being read, and
//! [`MemoryManager::enforce_group_limits`] reclaims within one tenant's
//! cache group through the same two calls.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use des::{JoinHandle, SimContext};
use storage_model::{Disk, MemoryDevice};

use crate::block::FileId;
use crate::config::PageCacheConfig;
use crate::error::FsError;
use crate::file_table::ReclaimScope;
use crate::lru::{LruLists, LruWork, EPSILON};
use crate::stats::{CacheContentSnapshot, MemorySample, MemoryTrace};

/// Aggregate counters maintained by the Memory Manager.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct MemoryManagerCounters {
    /// Bytes flushed synchronously (because of memory pressure or the dirty
    /// ratio).
    pub flushed_on_demand: f64,
    /// Bytes flushed by the background periodical flusher.
    pub flushed_background: f64,
    /// Bytes evicted from the cache.
    pub evicted: f64,
    /// Number of wakeups of the periodical flusher.
    pub flusher_runs: u64,
    /// Work counts of the LRU lists: blocks visited by eviction and
    /// flushing, and steps walked by out-of-order inserts.
    pub lru: LruWork,
}

struct MmState {
    lru: LruLists,
    anonymous: f64,
    trace: MemoryTrace,
    counters: MemoryManagerCounters,
    stop_flusher: bool,
}

/// The simulated Memory Manager of one host. Cloning returns another handle
/// to the same manager.
#[derive(Clone)]
pub struct MemoryManager {
    ctx: SimContext,
    memory: MemoryDevice,
    disk: Disk,
    config: PageCacheConfig,
    state: Rc<RefCell<MmState>>,
}

impl MemoryManager {
    /// Creates a Memory Manager for a host with the given page-cache
    /// configuration, memory bus and backing disk (the disk dirty data is
    /// flushed to).
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(
        ctx: &SimContext,
        config: PageCacheConfig,
        memory: MemoryDevice,
        disk: Disk,
    ) -> Self {
        config.validate().expect("invalid page cache configuration");
        MemoryManager {
            ctx: ctx.clone(),
            memory,
            disk,
            config,
            state: Rc::new(RefCell::new(MmState {
                lru: LruLists::with_policy(config.eviction_policy),
                anonymous: 0.0,
                trace: MemoryTrace::new(),
                counters: MemoryManagerCounters::default(),
                stop_flusher: false,
            })),
        }
    }

    /// The configuration this manager was created with.
    pub fn config(&self) -> &PageCacheConfig {
        &self.config
    }

    /// The backing disk used for flushes.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// The memory bus used for cache hits and cache writes.
    pub fn memory(&self) -> &MemoryDevice {
        &self.memory
    }

    /// Total RAM of the host in bytes.
    pub fn total_memory(&self) -> f64 {
        self.config.total_memory
    }

    /// Page cache size (clean + dirty), in bytes.
    pub fn cached(&self) -> f64 {
        self.state.borrow().lru.total_cached()
    }

    /// Dirty page cache data, in bytes.
    pub fn dirty(&self) -> f64 {
        self.state.borrow().lru.total_dirty()
    }

    /// Anonymous (application) memory in use, in bytes.
    pub fn anonymous(&self) -> f64 {
        self.state.borrow().anonymous
    }

    /// Free memory: total minus cache minus anonymous memory (clamped at 0).
    pub fn free_memory(&self) -> f64 {
        let s = self.state.borrow();
        (self.config.total_memory - s.lru.total_cached() - s.anonymous).max(0.0)
    }

    /// Memory available to the page cache: total minus anonymous memory. This
    /// is the base of the dirty-ratio computation (paper Algorithm 3, line 5).
    pub fn available_memory(&self) -> f64 {
        (self.config.total_memory - self.state.borrow().anonymous).max(0.0)
    }

    /// How much more dirty data may be produced before writers must flush:
    /// `dirty_ratio * available_memory - dirty` (can be negative).
    pub fn dirty_headroom(&self) -> f64 {
        self.config.dirty_ratio * self.available_memory() - self.dirty()
    }

    /// Clean bytes of the inactive list that could be evicted, optionally
    /// excluding one file.
    pub fn evictable(&self, exclude: Option<&FileId>) -> f64 {
        self.state.borrow().lru.evictable(exclude)
    }

    /// Cached bytes of a given file.
    pub fn cached_amount(&self, file: &FileId) -> f64 {
        self.state.borrow().lru.cached_amount(file)
    }

    /// Dirty bytes of a given file.
    pub fn dirty_amount(&self, file: &FileId) -> f64 {
        self.state.borrow().lru.dirty_amount(file)
    }

    /// Creates `file` with `size` bytes, allocating its space on the disk
    /// (the host's create rule, [`crate::FileTable::create`]).
    pub fn create_file(&self, file: &FileId, size: f64) -> Result<(), FsError> {
        let files = &mut self.state.borrow_mut().lru.files;
        files
            .create(file, size, |b| self.disk.allocate(b))
            .map(drop)
    }

    /// Grows `file` to cover a write of `len` bytes at `offset`, allocating
    /// the growth on the disk (the host's extend rule,
    /// [`crate::FileTable::extend`]).
    pub fn extend_file(&self, file: &FileId, offset: f64, len: f64) -> Result<(), FsError> {
        let files = &mut self.state.borrow_mut().lru.files;
        files
            .extend(file, offset, len, |b| self.disk.allocate(b))
            .map(drop)
    }

    /// The size of `file`, or [`FsError::FileNotFound`] if this host never
    /// created it.
    pub fn file_size(&self, file: &FileId) -> Result<f64, FsError> {
        self.state.borrow().lru.files.size(file)
    }

    /// Every file this host created, with its size, in key order.
    pub fn list_files(&self) -> Vec<(FileId, f64)> {
        self.state.borrow().lru.files.list()
    }

    /// Cached bytes per file.
    pub fn cached_per_file(&self) -> BTreeMap<FileId, f64> {
        self.state.borrow().lru.cached_per_file()
    }

    /// Number of data blocks currently in the LRU lists.
    pub fn block_count(&self) -> usize {
        self.state.borrow().lru.block_count()
    }

    /// Aggregate counters (flushed/evicted bytes, flusher runs, LRU work).
    pub fn counters(&self) -> MemoryManagerCounters {
        let s = self.state.borrow();
        MemoryManagerCounters {
            lru: s.lru.work(),
            ..s.counters
        }
    }

    /// Runs the LRU invariant checks (for tests).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.state.borrow().lru.check_invariants()
    }

    /// Registers `amount` bytes of anonymous application memory.
    pub fn use_anonymous_memory(&self, amount: f64) {
        if amount <= 0.0 {
            return;
        }
        self.state.borrow_mut().anonymous += amount;
    }

    /// Releases anonymous application memory (saturating at zero), e.g. when
    /// a task completes.
    pub fn release_anonymous_memory(&self, amount: f64) {
        if amount <= 0.0 {
            return;
        }
        let mut s = self.state.borrow_mut();
        s.anonymous = (s.anonymous - amount).max(0.0);
    }

    /// Adds clean data to the cache (data that was just read from disk, or
    /// written through to disk). Takes no simulated time: the corresponding
    /// device transfer has already been simulated by the caller.
    pub fn add_to_cache(&self, file: &FileId, amount: f64) {
        if amount <= EPSILON {
            return;
        }
        let now = self.ctx.now();
        self.state
            .borrow_mut()
            .lru
            .add_clean(file.clone(), amount, now);
    }

    /// Evicts up to `amount` bytes of clean data within `scope` from the
    /// inactive list (paper §III-A-3). Eviction takes no simulated time
    /// ("cache eviction time is negligible in real systems"). Returns the
    /// number of bytes evicted. Non-positive amounts are a no-op.
    pub fn evict(&self, amount: f64, scope: ReclaimScope<'_>) -> f64 {
        let mut s = self.state.borrow_mut();
        let evicted = s.lru.evict(amount, scope);
        s.counters.evicted += evicted;
        evicted
    }

    /// Flushes up to `amount` bytes of dirty data within `scope` to disk,
    /// least recently used first (paper §III-A-3). The disk write time is
    /// simulated; the bytes count as synchronous (on-demand) flushing.
    /// Returns the number of bytes flushed. Non-positive amounts are a
    /// no-op.
    pub async fn flush(&self, amount: f64, scope: ReclaimScope<'_>) -> f64 {
        let flushed = {
            let mut s = self.state.borrow_mut();
            let flushed = s.lru.flush_lru(amount, scope);
            s.counters.flushed_on_demand += flushed;
            flushed
        };
        if flushed > EPSILON {
            self.disk.write(flushed).await;
        }
        flushed
    }

    /// Flushes every dirty byte of one file to disk (the cache side of an
    /// `fsync`): walks only the file's own chains — O(file's blocks) — and
    /// simulates the disk write. Counted as synchronous (on-demand) flushing.
    /// Returns the number of bytes written back.
    pub async fn flush_file(&self, file: &FileId) -> f64 {
        let flushed = {
            let mut s = self.state.borrow_mut();
            let flushed = s.lru.flush_file(file);
            s.counters.flushed_on_demand += flushed;
            flushed
        };
        if flushed > EPSILON {
            self.disk.write(flushed).await;
        }
        flushed
    }

    /// Reads `amount` bytes of `file` from the cache: updates the LRU lists
    /// (promotions, merges, splits) and simulates the memory read. Returns the
    /// number of bytes that were actually cached.
    pub async fn read_from_cache(&self, file: &FileId, amount: f64) -> f64 {
        let read = {
            let now = self.ctx.now();
            let mut s = self.state.borrow_mut();
            s.lru.read_cached(file, amount, now)
        };
        if read > EPSILON {
            self.memory.read(read).await;
        }
        read
    }

    /// Writes `amount` bytes of `file` into the cache as dirty data: simulates
    /// the memory write and creates a dirty block on the inactive list.
    pub async fn write_to_cache(&self, file: &FileId, amount: f64) {
        if amount <= EPSILON {
            return;
        }
        self.memory.write(amount).await;
        let now = self.ctx.now();
        self.state
            .borrow_mut()
            .lru
            .add_dirty(file.clone(), amount, now);
    }

    /// Drops every cached block of `file` (an invalidation); the file keeps
    /// its size and group. Returns the number of bytes invalidated.
    pub fn invalidate_file(&self, file: &FileId) -> f64 {
        self.state.borrow_mut().lru.invalidate_file(file)
    }

    /// Assigns `file` to cache group `group` (a tenant, in memcg terms), or
    /// clears the assignment with `None`. The file's cached and dirty bytes
    /// move to the new group's aggregates; future cache traffic for the file
    /// is attributed there. Assignments survive eviction and crashes — they
    /// are configuration, not cache state.
    pub fn set_file_group(&self, file: &FileId, group: Option<u32>) {
        self.state
            .borrow_mut()
            .lru
            .set_file_group(file.clone(), group);
    }

    /// Cached bytes (clean + dirty) currently attributed to a cache group.
    pub fn group_cached(&self, group: u32) -> f64 {
        self.state.borrow().lru.group_cached(group)
    }

    /// Dirty bytes currently attributed to a cache group.
    pub fn group_dirty(&self, group: u32) -> f64 {
        self.state.borrow().lru.group_dirty(group)
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
        let mut flushed = 0.0;
        let over_dirty = self.group_dirty(group) - max_dirty;
        if over_dirty > EPSILON {
            flushed += self.flush(over_dirty, ReclaimScope::Group(group)).await;
        }
        let mut evicted = 0.0;
        let over = self.group_cached(group) - max_bytes;
        if over > EPSILON {
            evicted += self.evict(over, ReclaimScope::Group(group));
        }
        // Whatever is still above the cap must be dirty: clean it, then
        // evict again.
        let still_over = self.group_cached(group) - max_bytes;
        if still_over > EPSILON {
            flushed += self.flush(still_over, ReclaimScope::Group(group)).await;
            let rest = self.group_cached(group) - max_bytes;
            if rest > EPSILON {
                evicted += self.evict(rest, ReclaimScope::Group(group));
            }
        }
        (evicted, flushed)
    }

    /// Simulated power loss: drops the entire page cache (clean and dirty)
    /// and all anonymous memory, and returns the dirty bytes each file lost
    /// — the data that had not reached stable storage. Takes no simulated
    /// time; the trace and counters survive (they describe the run, not the
    /// volatile state).
    pub fn crash_discard(&self) -> Vec<(FileId, f64)> {
        let files: Vec<FileId> = self.cached_per_file().into_keys().collect();
        let mut lost = Vec::new();
        for file in files {
            let dirty = self.dirty_amount(&file);
            if dirty > EPSILON {
                lost.push((file.clone(), dirty));
            }
            self.invalidate_file(&file);
        }
        self.state.borrow_mut().anonymous = 0.0;
        lost
    }

    /// Flushes all expired dirty data (used by the periodical flusher, paper
    /// Algorithm 1). Returns the number of bytes written back.
    pub async fn flush_expired(&self) -> f64 {
        let flushed = {
            let now = self.ctx.now();
            let mut s = self.state.borrow_mut();
            let flushed = s.lru.flush_expired(now, self.config.dirty_expire);
            s.counters.flushed_background += flushed;
            flushed
        };
        if flushed > EPSILON {
            self.disk.write(flushed).await;
        }
        flushed
    }

    /// Records a memory sample into the trace and returns it.
    pub fn sample(&self) -> MemorySample {
        let now = self.ctx.now();
        let mut s = self.state.borrow_mut();
        let cached = s.lru.total_cached();
        let dirty = s.lru.total_dirty();
        let sample = MemorySample {
            time: now,
            total: self.config.total_memory,
            used: (cached + s.anonymous).min(self.config.total_memory),
            cached,
            dirty,
            anonymous: s.anonymous,
        };
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
            per_file: self.cached_per_file(),
        }
    }

    /// Spawns the background periodical flusher (paper Algorithm 1): an
    /// infinite loop that, every `flush_interval` seconds, writes back all
    /// expired dirty blocks. The process exits once [`MemoryManager::stop`] is
    /// called and the current interval elapses.
    pub fn spawn_periodical_flusher(&self) -> JoinHandle<()> {
        let mm = self.clone();
        self.ctx
            .clone()
            .spawn(async move { mm.run_periodical_flusher().await })
    }

    /// Body of the periodical flusher; exposed for tests that want to drive it
    /// directly.
    pub async fn run_periodical_flusher(&self) {
        loop {
            if self.state.borrow().stop_flusher {
                break;
            }
            let start = self.ctx.now();
            let flushed = self.flush_expired().await;
            {
                let mut s = self.state.borrow_mut();
                s.counters.flusher_runs += 1;
                let _ = flushed;
            }
            let elapsed = self.ctx.now().duration_since(start);
            if elapsed < self.config.flush_interval {
                self.ctx.sleep(self.config.flush_interval - elapsed).await;
            }
        }
    }

    /// Asks the periodical flusher to exit at its next wakeup (so that the
    /// simulation terminates once applications complete).
    pub fn stop(&self) {
        self.state.borrow_mut().stop_flusher = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::Simulation;
    use storage_model::{units::MB, DeviceSpec};

    const MEM_BW: f64 = 1000.0 * 1e6;
    const DISK_BW: f64 = 100.0 * 1e6;

    fn setup(total_memory: f64) -> (Simulation, MemoryManager) {
        let sim = Simulation::new();
        let ctx = sim.context();
        let memory = MemoryDevice::new(&ctx, DeviceSpec::symmetric(MEM_BW, 0.0, f64::INFINITY));
        let disk = Disk::new(
            &ctx,
            "disk0",
            DeviceSpec::symmetric(DISK_BW, 0.0, f64::INFINITY),
        );
        let mm = MemoryManager::new(
            &ctx,
            PageCacheConfig::with_memory(total_memory),
            memory,
            disk,
        );
        (sim, mm)
    }

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() < 1e-6 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn memory_accounting() {
        let (_sim, mm) = setup(1000.0 * MB);
        assert_eq!(mm.free_memory(), 1000.0 * MB);
        mm.use_anonymous_memory(200.0 * MB);
        mm.add_to_cache(&"f".into(), 300.0 * MB);
        approx(mm.free_memory(), 500.0 * MB);
        approx(mm.available_memory(), 800.0 * MB);
        approx(mm.cached(), 300.0 * MB);
        approx(mm.anonymous(), 200.0 * MB);
        mm.release_anonymous_memory(500.0 * MB);
        approx(mm.anonymous(), 0.0);
        mm.check_invariants().unwrap();
    }

    #[test]
    fn dirty_headroom_follows_dirty_ratio() {
        let (sim, mm) = setup(1000.0 * MB);
        approx(mm.dirty_headroom(), 200.0 * MB);
        let h = sim.spawn({
            let mm = mm.clone();
            async move {
                mm.write_to_cache(&"f".into(), 150.0 * MB).await;
            }
        });
        sim.run();
        assert!(h.is_finished());
        approx(mm.dirty(), 150.0 * MB);
        approx(mm.dirty_headroom(), 50.0 * MB);
        mm.use_anonymous_memory(500.0 * MB);
        approx(mm.dirty_headroom(), 0.2 * 500.0 * MB - 150.0 * MB);
    }

    #[test]
    fn write_to_cache_takes_memory_write_time() {
        let (sim, mm) = setup(10_000.0 * MB);
        let h = sim.spawn({
            let mm = mm.clone();
            async move {
                mm.write_to_cache(&"f".into(), 1000.0 * MB).await;
            }
        });
        sim.run();
        assert!(h.is_finished());
        approx(sim.now().as_secs(), 1.0); // 1000 MB at 1000 MB/s
    }

    #[test]
    fn read_from_cache_promotes_and_costs_memory_time() {
        let (sim, mm) = setup(10_000.0 * MB);
        mm.add_to_cache(&"f".into(), 500.0 * MB);
        let h = sim.spawn({
            let mm = mm.clone();
            async move { mm.read_from_cache(&"f".into(), 500.0 * MB).await }
        });
        sim.run();
        approx(h.try_take_result().unwrap(), 500.0 * MB);
        approx(sim.now().as_secs(), 0.5);
        // Reading uncached data returns 0 bytes.
        let h2 = sim.spawn({
            let mm = mm.clone();
            async move { mm.read_from_cache(&"other".into(), 100.0 * MB).await }
        });
        sim.run();
        approx(h2.try_take_result().unwrap(), 0.0);
    }

    #[test]
    fn flush_writes_dirty_data_to_disk_and_takes_disk_time() {
        let (sim, mm) = setup(10_000.0 * MB);
        let h = sim.spawn({
            let mm = mm.clone();
            async move {
                mm.write_to_cache(&"f".into(), 500.0 * MB).await;
                let t0 = mm.ctx.now().as_secs();
                let flushed = mm.flush(500.0 * MB, ReclaimScope::Host(None)).await;
                (flushed, mm.ctx.now().as_secs() - t0)
            }
        });
        sim.run();
        let (flushed, elapsed) = h.try_take_result().unwrap();
        approx(flushed, 500.0 * MB);
        approx(elapsed, 5.0); // 500 MB at 100 MB/s
        approx(mm.dirty(), 0.0);
        approx(mm.cached(), 500.0 * MB); // data stays cached, now clean
        approx(mm.disk().total_bytes_written(), 500.0 * MB);
        approx(mm.counters().flushed_on_demand, 500.0 * MB);
    }

    #[test]
    fn flush_with_negative_amount_is_noop() {
        let (sim, mm) = setup(1000.0 * MB);
        let h = sim.spawn({
            let mm = mm.clone();
            async move {
                mm.write_to_cache(&"f".into(), 100.0 * MB).await;
                mm.flush(-50.0, ReclaimScope::Host(None)).await
            }
        });
        sim.run();
        approx(h.try_take_result().unwrap(), 0.0);
        approx(mm.dirty(), 100.0 * MB);
    }

    #[test]
    fn evict_frees_clean_cache_without_simulated_time() {
        let (sim, mm) = setup(1000.0 * MB);
        mm.add_to_cache(&"f".into(), 600.0 * MB);
        let evicted = mm.evict(250.0 * MB, ReclaimScope::Host(None));
        approx(evicted, 250.0 * MB);
        approx(mm.cached(), 350.0 * MB);
        approx(mm.counters().evicted, 250.0 * MB);
        assert_eq!(sim.now().as_secs(), 0.0);
    }

    #[test]
    fn periodical_flusher_writes_back_expired_dirty_data() {
        let (sim, mm) = setup(10_000.0 * MB);
        mm.spawn_periodical_flusher();
        let mm2 = mm.clone();
        let ctx = sim.context();
        sim.spawn(async move {
            mm2.write_to_cache(&"f".into(), 200.0 * MB).await;
            // Wait until well past the expiration age plus one flush interval.
            ctx.sleep(40.0).await;
            assert!(mm2.dirty() < 1.0);
            approx(mm2.cached(), 200.0 * MB);
            mm2.stop();
        });
        sim.run();
        approx(mm.counters().flushed_background, 200.0 * MB);
        assert!(mm.counters().flusher_runs >= 7);
        approx(mm.disk().total_bytes_written(), 200.0 * MB);
    }

    #[test]
    fn periodical_flusher_does_not_touch_fresh_dirty_data() {
        let (sim, mm) = setup(10_000.0 * MB);
        mm.spawn_periodical_flusher();
        let mm2 = mm.clone();
        let ctx = sim.context();
        sim.spawn(async move {
            mm2.write_to_cache(&"f".into(), 200.0 * MB).await;
            ctx.sleep(10.0).await; // under the 30 s expiration age
            approx(mm2.dirty(), 200.0 * MB);
            mm2.stop();
        });
        sim.run();
        approx(mm.counters().flushed_background, 0.0);
    }

    #[test]
    fn sample_and_snapshot_capture_state() {
        let (sim, mm) = setup(1000.0 * MB);
        mm.use_anonymous_memory(100.0 * MB);
        mm.add_to_cache(&"f1".into(), 200.0 * MB);
        let h = sim.spawn({
            let mm = mm.clone();
            async move {
                mm.write_to_cache(&"f2".into(), 50.0 * MB).await;
                mm.sample()
            }
        });
        sim.run();
        let s = h.try_take_result().unwrap();
        approx(s.cached, 250.0 * MB);
        approx(s.dirty, 50.0 * MB);
        approx(s.used, 350.0 * MB);
        assert_eq!(mm.trace().len(), 1);
        let snap = mm.cache_content_snapshot("after");
        approx(snap.cached(&"f1".into()), 200.0 * MB);
        approx(snap.cached(&"f2".into()), 50.0 * MB);
        assert_eq!(snap.label, "after");
    }

    #[test]
    fn invalidate_file_removes_cache_entries() {
        let (_sim, mm) = setup(1000.0 * MB);
        mm.add_to_cache(&"f1".into(), 200.0 * MB);
        mm.add_to_cache(&"f2".into(), 100.0 * MB);
        let removed = mm.invalidate_file(&"f1".into());
        approx(removed, 200.0 * MB);
        approx(mm.cached(), 100.0 * MB);
    }

    #[test]
    fn enforce_group_limits_flushes_and_evicts_only_the_group() {
        let (sim, mm) = setup(10_000.0 * MB);
        mm.set_file_group(&"tenant".into(), Some(7));
        mm.add_to_cache(&"tenant".into(), 300.0 * MB);
        mm.add_to_cache(&"other".into(), 400.0 * MB);
        let h = sim.spawn({
            let mm = mm.clone();
            async move {
                mm.write_to_cache(&"tenant".into(), 200.0 * MB).await;
                // Group 7 holds 500 MB cached / 200 MB dirty. Cap it at
                // 250 MB cached and 50 MB dirty.
                mm.enforce_group_limits(7, 250.0 * MB, 50.0 * MB).await
            }
        });
        sim.run();
        let (evicted, flushed) = h.try_take_result().unwrap();
        approx(flushed, 150.0 * MB);
        approx(evicted, 250.0 * MB);
        approx(mm.group_cached(7), 250.0 * MB);
        approx(mm.group_dirty(7), 50.0 * MB);
        // The other file (no group) is untouched.
        approx(mm.cached_amount(&"other".into()), 400.0 * MB);
        approx(mm.cached(), 650.0 * MB);
        mm.check_invariants().unwrap();
    }

    #[test]
    fn crash_discard_reports_dirty_losses_and_empties_the_cache() {
        let (sim, mm) = setup(10_000.0 * MB);
        mm.add_to_cache(&"clean".into(), 300.0 * MB);
        mm.use_anonymous_memory(100.0 * MB);
        let h = sim.spawn({
            let mm = mm.clone();
            async move {
                mm.write_to_cache(&"dirty".into(), 200.0 * MB).await;
                mm.write_to_cache(&"mixed".into(), 50.0 * MB).await;
                // Flush "mixed" so only "dirty" still holds unstable data.
                mm.flush_file(&"mixed".into()).await;
                mm.crash_discard()
            }
        });
        sim.run();
        let lost = h.try_take_result().unwrap();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].0, "dirty".into());
        approx(lost[0].1, 200.0 * MB);
        // The entire cache (clean included) and anonymous memory are gone.
        approx(mm.cached(), 0.0);
        approx(mm.dirty(), 0.0);
        approx(mm.anonymous(), 0.0);
        mm.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid page cache configuration")]
    fn invalid_config_is_rejected() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let memory = MemoryDevice::new(&ctx, DeviceSpec::symmetric(MEM_BW, 0.0, f64::INFINITY));
        let disk = Disk::new(
            &ctx,
            "d",
            DeviceSpec::symmetric(DISK_BW, 0.0, f64::INFINITY),
        );
        let mut cfg = PageCacheConfig::with_memory(1000.0 * MB);
        cfg.dirty_ratio = 3.0;
        let _ = MemoryManager::new(&ctx, cfg, memory, disk);
    }
}
