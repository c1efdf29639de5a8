//! The Memory Manager (paper §III-A).
//!
//! The Memory Manager is the page cache model's host: the [`Host`] core
//! (memory accounting, counters, trace and the flush-interval loop) over
//! the LRU lists of the host. Its *main thread* operations (flushing,
//! eviction, cached reads and writes) are invoked synchronously by the I/O
//! controller; its *background thread* — the periodical flusher — runs as
//! a separate simulated process and writes back expired dirty data
//! (Algorithm 1). Disk and memory transfer times are delegated to the
//! flow-level storage models, so concurrent accesses from several
//! applications naturally share bandwidth.
//!
//! The underlying [`LruLists`] are an intrusive slab arena with per-file and
//! per-list clean and dirty chains, so the per-request operations the
//! controller drives scale with the data they touch, not with the total
//! cache population: [`MemoryManager::read_from_cache`] and
//! [`MemoryManager::invalidate_file`] visit only the target file's blocks,
//! [`Host::flush`] and [`MemoryManager::flush_expired`] only dirty blocks,
//! [`Host::evict`] only clean blocks, and every byte aggregate the
//! controller polls is O(1). Per-file state lives in a slot table. The
//! same table is the host's file namespace: [`MemoryManager::create_file`],
//! [`MemoryManager::extend_file`] and [`MemoryManager::file_size`] keep
//! each file's size in its slot, and a slot lives as long as its file. Each of them returns the file's slot
//! key, the one name lookup of an op; every per-file step here takes that
//! key ([`crate::FileTable`] states the rule).
//!
//! [`Host::evict`] and [`Host::flush`] take a
//! [`ReclaimScope`](crate::ReclaimScope): the controller's read step
//! reclaims host-wide, excluding the file being read, and
//! [`Host::enforce_group_limits`] reclaims within one tenant's cache group
//! through the same two calls.

use std::future::Future;
use std::ops::Deref;

use des::{JoinHandle, SimContext};
use storage_model::{Disk, MemoryDevice};

use crate::block::FileId;
use crate::config::PageCacheConfig;
use crate::error::FsError;
use crate::host::Host;
use crate::lru::{LruLists, EPSILON};

/// The simulated Memory Manager of one host: the [`Host`] core over the
/// host's [`LruLists`], to which it dereferences. Cloning returns another
/// handle to the same manager.
#[derive(Clone)]
pub struct MemoryManager {
    host: Host<LruLists>,
}

impl Deref for MemoryManager {
    type Target = Host<LruLists>;

    fn deref(&self) -> &Host<LruLists> {
        &self.host
    }
}

impl MemoryManager {
    /// Creates a Memory Manager for a host with the given page-cache
    /// configuration, `total_memory` bytes of RAM, memory bus and backing
    /// disk (the disk dirty data is flushed to).
    ///
    /// # Panics
    /// Panics if the configuration or the memory size is invalid.
    pub fn new(
        ctx: &SimContext,
        config: PageCacheConfig,
        total_memory: f64,
        memory: MemoryDevice,
        disk: Disk,
    ) -> Self {
        let lru = LruLists::with_policy(config.eviction_policy);
        MemoryManager {
            host: Host::new(ctx, config, total_memory, memory, disk, lru),
        }
    }

    /// Clean bytes of the inactive list that could be evicted, optionally
    /// excluding the file of one slot.
    pub fn evictable(&self, excluded: Option<u64>) -> f64 {
        self.cache().evictable(excluded)
    }

    /// Cached bytes of the file of slot `key`.
    pub fn cached_amount(&self, key: u64) -> f64 {
        self.cache().cached_amount(key)
    }

    /// Dirty bytes of the file of slot `key`.
    pub fn dirty_amount(&self, key: u64) -> f64 {
        self.cache().dirty_amount(key)
    }

    /// The slot key of `file`, if this host created or cached it.
    pub fn key(&self, file: &FileId) -> Option<u64> {
        self.cache().key(file)
    }

    /// The slot key of `file`, with a slot made for it if it has none: a
    /// cache that holds copies of files another host owns (a fleet
    /// client's) resolves a file this way at the start of an op.
    pub fn key_or_insert(&self, file: &FileId) -> u64 {
        self.cache_mut().key_or_insert(file)
    }

    /// Name-index lookups of this host's file table so far
    /// ([`crate::FileTable::name_lookups`]).
    pub fn name_lookups(&self) -> u64 {
        self.cache().files.name_lookups()
    }

    /// Creates `file` with `size` bytes, allocating its space on the disk
    /// (the host's create rule, [`crate::FileTable::create`]), and returns
    /// its slot key.
    pub fn create_file(&self, file: &FileId, size: f64) -> Result<u64, FsError> {
        let files = &mut self.cache_mut().files;
        files.create(file, size, |b| self.disk().allocate(b))
    }

    /// Grows `file` to cover a write of `len` bytes at `offset`, allocating
    /// the growth on the disk (the host's extend rule,
    /// [`crate::FileTable::extend`]), and returns its slot key.
    pub fn extend_file(&self, file: &FileId, offset: f64, len: f64) -> Result<u64, FsError> {
        let files = &mut self.cache_mut().files;
        files.extend(file, offset, len, |b| self.disk().allocate(b))
    }

    /// The slot key and the size of `file`, or [`FsError::FileNotFound`] if
    /// this host never created it.
    pub fn file_size(&self, file: &FileId) -> Result<(u64, f64), FsError> {
        self.cache().files.size(file)
    }

    /// Every file this host created, with its size, in key order.
    pub fn list_files(&self) -> Vec<(FileId, f64)> {
        self.cache().files.list()
    }

    /// Number of data blocks currently in the LRU lists.
    pub fn block_count(&self) -> usize {
        self.cache().block_count()
    }

    /// Runs the LRU invariant checks (for tests).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.cache().check_invariants()
    }

    /// Adds clean data of the file of slot `key` to the cache (data that
    /// was just read from disk, or written through to disk). Takes no
    /// simulated time: the corresponding device transfer has already been
    /// simulated by the caller.
    pub fn add_to_cache(&self, key: u64, amount: f64) {
        if amount <= EPSILON {
            return;
        }
        let now = self.ctx().now();
        self.cache_mut().add_clean(key, amount, now);
    }

    /// Flushes every dirty byte of the file of slot `key` to disk (the
    /// cache side of an `fsync`): walks only the file's own chains —
    /// O(file's blocks) — and simulates the disk write. Counted as
    /// synchronous flushing. Returns the number of bytes written back.
    pub fn flush_file(&self, key: u64) -> impl Future<Output = f64> + '_ {
        self.flush_with(false, move |lru| lru.flush_file(key))
    }

    /// Reads `amount` bytes of the file of slot `key` from the cache:
    /// updates the LRU lists (promotions, merges, splits) and simulates the
    /// memory read. Returns the number of bytes that were actually cached.
    pub async fn read_from_cache(&self, key: u64, amount: f64) -> f64 {
        let now = self.ctx().now();
        let read = self.cache_mut().read_cached(key, amount, now);
        if read > EPSILON {
            self.memory().read(read).await;
        }
        read
    }

    /// Writes `amount` bytes of the file of slot `key` into the cache as
    /// dirty data: simulates the memory write and creates a dirty block on
    /// the inactive list.
    pub async fn write_to_cache(&self, key: u64, amount: f64) {
        if amount <= EPSILON {
            return;
        }
        self.memory().write(amount).await;
        let now = self.ctx().now();
        self.cache_mut().add_dirty(key, amount, now);
    }

    /// Drops every cached block of the file of slot `key` (an
    /// invalidation); the file keeps its size and group. Returns the number
    /// of bytes invalidated.
    pub fn invalidate_file(&self, key: u64) -> f64 {
        self.cache_mut().invalidate_file(key)
    }

    /// Assigns `file` to cache group `group` (a tenant, in memcg terms), or
    /// clears the assignment with `None`. The file's cached and dirty bytes
    /// move to the new group's aggregates; future cache traffic for the file
    /// is attributed there. Assignments survive eviction and crashes — they
    /// are configuration, not cache state.
    pub fn set_file_group(&self, file: &FileId, group: Option<u32>) {
        self.cache_mut().set_file_group(file.clone(), group);
    }

    /// Simulated power loss: drops the entire page cache (clean and dirty)
    /// and all anonymous memory ([`Host::crash`]), and returns the dirty
    /// bytes each file lost — the data that had not reached stable storage.
    /// Takes no simulated time.
    pub fn crash_discard(&self) -> Vec<(FileId, f64)> {
        self.crash(|lru| {
            // The cached files in name order: `lost` lists them by name, and
            // every byte total gives up its bytes in that order.
            let mut cached: Vec<u64> = (0..lru.files.len() as u64)
                .filter(|&key| lru.cached_amount(key) > EPSILON)
                .collect();
            cached.sort_by(|&a, &b| lru.files.name(a).cmp(lru.files.name(b)));
            let mut lost = Vec::new();
            for key in cached {
                let dirty = lru.dirty_amount(key);
                if dirty > EPSILON {
                    lost.push((lru.files.name(key).clone(), dirty));
                }
                lru.invalidate_file(key);
            }
            lost
        })
    }

    /// Flushes all expired dirty data (used by the periodical flusher, paper
    /// Algorithm 1), counted as background flushing. Returns the number of
    /// bytes written back.
    pub fn flush_expired(&self) -> impl Future<Output = f64> + '_ {
        let (now, expire) = (self.ctx().now(), self.config().dirty_expire);
        self.flush_with(true, move |lru| lru.flush_expired(now, expire))
    }

    /// Spawns the background periodical flusher (paper Algorithm 1): every
    /// `flush_interval` seconds it writes back all expired dirty blocks,
    /// until [`Host::stop`] is called and the current interval elapses.
    pub fn spawn_periodical_flusher(&self) -> JoinHandle<()> {
        let mm = self.clone();
        self.ctx()
            .spawn(async move { mm.run_periodical_flusher().await })
    }

    /// Body of the periodical flusher; exposed for tests that want to drive it
    /// directly.
    pub async fn run_periodical_flusher(&self) {
        self.run_flush_loop(|| self.flush_expired()).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file_table::ReclaimScope;
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
        let mm = MemoryManager::new(&ctx, PageCacheConfig::default(), total_memory, memory, disk);
        (sim, mm)
    }

    /// The slot key of `name` on `mm`, made if needed.
    fn key(mm: &MemoryManager, name: &str) -> u64 {
        mm.key_or_insert(&name.into())
    }

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() < 1e-6 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn write_to_cache_takes_memory_write_time() {
        let (sim, mm) = setup(10_000.0 * MB);
        let h = sim.spawn({
            let mm = mm.clone();
            async move {
                mm.write_to_cache(key(&mm, "f"), 1000.0 * MB).await;
            }
        });
        sim.run();
        assert!(h.is_finished());
        approx(sim.now().as_secs(), 1.0); // 1000 MB at 1000 MB/s
    }

    #[test]
    fn read_from_cache_promotes_and_costs_memory_time() {
        let (sim, mm) = setup(10_000.0 * MB);
        mm.add_to_cache(key(&mm, "f"), 500.0 * MB);
        let h = sim.spawn({
            let mm = mm.clone();
            async move { mm.read_from_cache(key(&mm, "f"), 500.0 * MB).await }
        });
        sim.run();
        approx(h.try_take_result().unwrap(), 500.0 * MB);
        approx(sim.now().as_secs(), 0.5);
        // Reading uncached data returns 0 bytes.
        let h2 = sim.spawn({
            let mm = mm.clone();
            async move { mm.read_from_cache(key(&mm, "other"), 100.0 * MB).await }
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
                mm.write_to_cache(key(&mm, "f"), 500.0 * MB).await;
                let t0 = mm.ctx().now().as_secs();
                let flushed = mm.flush(500.0 * MB, ReclaimScope::Host(None)).await;
                (flushed, mm.ctx().now().as_secs() - t0)
            }
        });
        sim.run();
        let (flushed, elapsed) = h.try_take_result().unwrap();
        approx(flushed, 500.0 * MB);
        approx(elapsed, 5.0); // 500 MB at 100 MB/s
        approx(mm.dirty(), 0.0);
        approx(mm.cached(), 500.0 * MB); // data stays cached, now clean
        approx(mm.disk().total_bytes_written(), 500.0 * MB);
        approx(mm.counters().synchronous_flushed, 500.0 * MB);
    }

    #[test]
    fn flush_with_negative_amount_is_noop() {
        let (sim, mm) = setup(1000.0 * MB);
        let h = sim.spawn({
            let mm = mm.clone();
            async move {
                mm.write_to_cache(key(&mm, "f"), 100.0 * MB).await;
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
        mm.add_to_cache(key(&mm, "f"), 600.0 * MB);
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
            mm2.write_to_cache(key(&mm2, "f"), 200.0 * MB).await;
            // Wait until well past the expiration age plus one flush interval.
            ctx.sleep(40.0).await;
            assert!(mm2.dirty() < 1.0);
            approx(mm2.cached(), 200.0 * MB);
            mm2.stop();
        });
        sim.run();
        approx(mm.counters().background_flushed, 200.0 * MB);
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
            mm2.write_to_cache(key(&mm2, "f"), 200.0 * MB).await;
            ctx.sleep(10.0).await; // under the 30 s expiration age
            approx(mm2.dirty(), 200.0 * MB);
            mm2.stop();
        });
        sim.run();
        approx(mm.counters().background_flushed, 0.0);
    }

    #[test]
    fn invalidate_file_removes_cache_entries() {
        let (_sim, mm) = setup(1000.0 * MB);
        mm.add_to_cache(key(&mm, "f1"), 200.0 * MB);
        mm.add_to_cache(key(&mm, "f2"), 100.0 * MB);
        let removed = mm.invalidate_file(key(&mm, "f1"));
        approx(removed, 200.0 * MB);
        approx(mm.cached(), 100.0 * MB);
    }

    #[test]
    fn crash_discard_reports_dirty_losses_and_empties_the_cache() {
        let (sim, mm) = setup(10_000.0 * MB);
        mm.add_to_cache(key(&mm, "clean"), 300.0 * MB);
        mm.use_anonymous_memory(100.0 * MB);
        let h = sim.spawn({
            let mm = mm.clone();
            async move {
                mm.write_to_cache(key(&mm, "dirty"), 200.0 * MB).await;
                mm.write_to_cache(key(&mm, "mixed"), 50.0 * MB).await;
                // Flush "mixed" so only "dirty" still holds unstable data.
                mm.flush_file(key(&mm, "mixed")).await;
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
        let cfg = PageCacheConfig {
            dirty_ratio: 3.0,
            ..PageCacheConfig::default()
        };
        let _ = MemoryManager::new(&ctx, cfg, 1000.0 * MB, memory, disk);
    }
}
