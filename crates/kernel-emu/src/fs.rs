//! File-level front end of the kernel emulator, mirroring the API of
//! `simfs::CachedFileSystem` so the workflow layer can use the emulator as the
//! "real system" back-end.
//!
//! Unlike the macroscopic filesystems, reads here are planned against the
//! cache's *resident page ranges*: a request for `[offset, offset + len)`
//! reads exactly the non-resident sub-ranges from disk and serves the rest
//! from memory, so random and partial access patterns are modelled at page
//! fidelity. A range write creates the file or extends it, and never
//! shrinks it.
//!
//! The filesystem keeps no file map of its own: a file's size and its
//! readahead stream live in the file's slot of the cache's file table
//! ([`KernelCache::create_file`], [`KernelCache::extend_file`]), next to
//! its pages, so the host has one namespace and one create and extend rule.
//!
//! ## Readahead
//!
//! When [`KernelTuning::readahead_max`](crate::KernelTuning) is non-zero,
//! each file carries a Linux-style readahead stream: a request continuing
//! exactly where the previous one ended (or a fresh stream starting at
//! offset 0) is *sequential* and grows the per-file window — starting at
//! `readahead_min`, doubling per sequential request up to `readahead_max` —
//! while any other request collapses it to zero. After a sequential request
//! is served, the non-resident part of the window beyond it is read from
//! disk as extra traffic (`IoOpStats::bytes_prefetched`) and inserted into
//! the cache's resident [range set](crate::KernelCache::uncovered) ahead of
//! demand. Prefetch is speculative: it only reads *gaps* (never a byte
//! twice) and never triggers reclaim — the plan is clipped to the free
//! memory headroom.
//!
//! ## Writer throttling
//!
//! Writes are balanced against the dirty thresholds twice. At the **dirty
//! ratio** the writer itself writes back down to the background threshold
//! (the hard `balance_dirty_pages` leg the emulator always had); with
//! [`KernelTuning::throttle_pacing`](crate::KernelTuning) non-zero, writers
//! are additionally *paced* while dirty data sits **between** the background
//! and the dirty threshold — stalled after each request proportionally to
//! how deep into the band the host is, converging on disk write bandwidth at
//! the limit, exactly the steady state of the kernel's task rate limit. Time
//! spent in either leg is reported as `IoOpStats::throttle_stall` and
//! accumulated in [`KernelCacheCounters`](crate::KernelCacheCounters).

use des::SimContext;
use pagecache::{clamp_io_range, FileId, FsError, IoOpStats, ReclaimScope, EPSILON};
use storage_model::Disk;

use crate::cache::KernelCache;

/// Default request size used by the emulated VFS layer (bytes).
pub const DEFAULT_REQUEST_SIZE: f64 = 100.0 * 1e6;

/// The readahead stream of one file (Linux keeps it in `struct
/// file_ra_state`; files here are opened implicitly, so the stream is per
/// file). It is file state, kept in the file's slot of the cache's file
/// table: an invalidation or a crash keeps it.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub(crate) struct Readahead {
    /// Where the next sequential request is expected to start (the end of
    /// the last demand request). `None` until the file is first read.
    next: Option<f64>,
    /// Current readahead window in bytes (0 = collapsed).
    window: f64,
}

impl Readahead {
    /// Records the demand request `[start, end)` and returns the window to
    /// read ahead of it: the window opens at `min`, doubles per sequential
    /// request up to `max`, and any other request collapses it to zero.
    pub(crate) fn advance(&mut self, start: f64, end: f64, min: f64, max: f64) -> f64 {
        // A request is sequential when it continues exactly where the
        // previous one ended — or when it is the very first request of
        // the file and starts at offset 0 (Linux fires initial readahead
        // from `do_sync_mmap_readahead` / `page_cache_sync_ra` there).
        let sequential = match self.next {
            Some(next) => (start - next).abs() <= EPSILON,
            None => start.abs() <= EPSILON,
        };
        self.window = if !sequential {
            0.0
        } else if self.window <= EPSILON {
            min.min(max)
        } else {
            (self.window * 2.0).min(max)
        };
        self.next = Some(end);
        self.window
    }
}

/// A local filesystem whose behaviour is emulated at kernel fidelity
/// (background writeback, readahead, writer throttling, eviction
/// protection).
#[derive(Clone)]
pub struct KernelFileSystem {
    ctx: SimContext,
    cache: KernelCache,
    request_size: f64,
}

impl KernelFileSystem {
    /// Creates an emulated filesystem with the given page cache, on the
    /// disk the cache writes back to.
    pub fn new(ctx: &SimContext, cache: KernelCache) -> Self {
        KernelFileSystem {
            ctx: ctx.clone(),
            cache,
            request_size: DEFAULT_REQUEST_SIZE,
        }
    }

    /// Overrides the request size the emulated VFS uses.
    pub fn with_request_size(mut self, request_size: f64) -> Self {
        assert!(request_size > 0.0, "request size must be positive");
        self.request_size = request_size;
        self
    }

    /// The emulated page cache.
    pub fn cache(&self) -> &KernelCache {
        &self.cache
    }

    /// The backing disk.
    pub fn disk(&self) -> &Disk {
        self.cache.disk()
    }

    /// Registers a pre-existing file without simulating I/O
    /// ([`KernelCache::create_file`]).
    pub fn create_file(&self, file: &FileId, size: f64) -> Result<(), FsError> {
        self.cache.create_file(file, size)
    }

    /// Reads `len` bytes of `file` starting at `offset` through the emulated
    /// cache (`len = f64::INFINITY` reads to end of file; the range is
    /// clamped to the file). The emulator tracks resident page ranges, so
    /// exactly the non-resident bytes of the request are read from disk.
    pub async fn read_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, FsError> {
        let size = self.cache.file_size(file)?;
        let (range_start, amount) = clamp_io_range(offset, len, size);
        let start = self.ctx.now();
        let mut stats = IoOpStats::default();
        let mut pos = range_start;
        let end = range_start + amount;
        while end - pos > EPSILON {
            let chunk_end = (pos + self.request_size).min(end);
            let chunk = chunk_end - pos;
            // The disk-read plan is captured *before* reclaim: if direct
            // reclaim below evicts pages of this very range, the bytes
            // inserted afterwards are still exactly the bytes read from
            // disk (the just-evicted part is served at memory speed — the
            // same approximation the amount-based model makes).
            let plan = self.cache.uncovered(file, pos, chunk_end);
            let from_disk: f64 = plan.iter().map(|(a, b)| b - a).sum();
            let from_cache = (chunk - from_disk).max(0.0);

            // Reclaim: make room for the anonymous copy plus the new pages.
            let required = chunk + from_disk;
            let missing = required - self.cache.free_memory();
            if missing > EPSILON {
                let evicted = self.cache.evict(missing, ReclaimScope::Host(Some(file)));
                let still = missing - evicted;
                if still > EPSILON {
                    // Direct reclaim also writes back dirty pages if eviction
                    // alone is not enough.
                    let flushed = self
                        .cache
                        .write_back(still, ReclaimScope::Host(None), true)
                        .await;
                    stats.bytes_to_disk += flushed;
                    self.cache.evict(still, ReclaimScope::Host(None));
                }
            }

            if from_disk > EPSILON {
                self.disk().read(from_disk).await;
                for &(a, b) in &plan {
                    self.cache.insert_clean_range(file, a, b);
                }
                stats.bytes_from_disk += from_disk;
                stats.bytes_to_cache += from_disk;
            }
            if from_cache > EPSILON {
                self.cache.memory().read(from_cache).await;
                self.cache.touch(file, from_cache);
                stats.bytes_from_cache += from_cache;
            }
            self.readahead(file, size, pos, chunk_end, chunk, &mut stats)
                .await;
            self.cache.use_anonymous_memory(chunk);
            pos = chunk_end;
        }
        stats.duration = self.ctx.now().duration_since(start);
        Ok(stats)
    }

    /// The readahead leg of one demand request `[start, end)`: updates the
    /// file's stream state (sequentiality detection, window growth/collapse)
    /// and, when a window is open, reads the non-resident part of
    /// `[end, end + window)` from disk ahead of demand. `pending_anon` is
    /// the anonymous copy of the demand chunk that has not been charged yet;
    /// the speculative read never triggers reclaim, so its plan is clipped
    /// to the free headroom left after that charge.
    async fn readahead(
        &self,
        file: &FileId,
        file_size: f64,
        start: f64,
        end: f64,
        pending_anon: f64,
        stats: &mut IoOpStats,
    ) {
        if self.cache.tuning().readahead_max <= EPSILON {
            return;
        }
        let window = self.cache.advance_readahead(file, start, end);
        if window <= EPSILON {
            return;
        }
        let ra_end = (end + window).min(file_size);
        // Only gaps are fetched — readahead never reads a byte twice — and
        // the plan stops at the free-memory budget instead of evicting
        // anything (the kernel drops readahead under pressure too).
        let budget = (self.cache.free_memory() - pending_anon).max(0.0);
        let mut planned = 0.0;
        let mut plan = Vec::new();
        for (a, b) in self.cache.uncovered(file, end, ra_end) {
            if planned >= budget - EPSILON {
                break;
            }
            let b = b.min(a + (budget - planned));
            if b - a > EPSILON {
                planned += b - a;
                plan.push((a, b));
            }
        }
        if planned <= EPSILON {
            return;
        }
        self.disk().read(planned).await;
        for &(a, b) in &plan {
            self.cache.insert_clean_range(file, a, b);
        }
        self.cache.note_prefetch(planned);
        stats.bytes_from_disk += planned;
        stats.bytes_to_cache += planned;
        stats.bytes_prefetched += planned;
    }

    /// Writes `len` bytes at `offset` through the emulated cache (writeback
    /// semantics with `balance_dirty_pages`-style throttling), creating the
    /// file or extending it to `offset + len` as needed (never shrinking
    /// it, [`KernelCache::extend_file`]). Rejects the invalid ranges.
    pub async fn write_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, FsError> {
        self.cache.extend_file(file, offset, len)?;
        self.write_span(file, offset, offset + len).await
    }

    /// The common write loop over `[start, end)`: dirty-threshold balancing,
    /// reclaim, and page insertion at the true offsets.
    async fn write_span(&self, file: &FileId, start: f64, end: f64) -> Result<IoOpStats, FsError> {
        self.cache.set_write_open(file, true);
        let t0 = self.ctx.now();
        let mut stats = IoOpStats::default();
        let mut pos = start;
        while end - pos > EPSILON {
            let chunk_end = (pos + self.request_size).min(end);
            let chunk = chunk_end - pos;

            // balance_dirty_pages, hard leg: above the dirty threshold the
            // writer itself writes back, down to the background threshold.
            // The time it spends doing so is by definition a throttle stall.
            let projected_dirty = self.cache.dirty() + chunk;
            if projected_dirty > self.cache.dirty_threshold() {
                let stall_start = self.ctx.now();
                let target = (projected_dirty - self.cache.background_threshold()).max(0.0);
                let flushed = self
                    .cache
                    .write_back(target, ReclaimScope::Host(None), true)
                    .await;
                stats.bytes_to_disk += flushed;
                let stalled = self.ctx.now().duration_since(stall_start);
                stats.throttle_stall += stalled;
                self.cache.note_throttle_stall(stalled);
            }

            // Make room for the new dirty pages.
            let missing = chunk - self.cache.free_memory();
            if missing > EPSILON {
                let evicted = self.cache.evict(missing, ReclaimScope::Host(Some(file)));
                if missing - evicted > EPSILON {
                    let flushed = self
                        .cache
                        .write_back(missing - evicted, ReclaimScope::Host(None), true)
                        .await;
                    stats.bytes_to_disk += flushed;
                    self.cache
                        .evict(missing - evicted, ReclaimScope::Host(None));
                }
            }

            self.cache.memory().write(chunk).await;
            self.cache.insert_dirty_range(file, pos, chunk_end);
            stats.bytes_to_cache += chunk;

            // balance_dirty_pages, pacing leg: between the background and
            // the dirty threshold the writer is slowed in proportion to how
            // deep into the band the host is, converging on disk write
            // bandwidth at the limit (the kernel's task rate limit). The
            // stall gives the background writeback threads simulated time to
            // drain, which is exactly the CAWL observation: stalled writers,
            // not just background flushing, dominate cache-aware writes.
            let pacing = self.cache.tuning().throttle_pacing;
            if pacing > 0.0 {
                let background = self.cache.background_threshold();
                let limit = self.cache.dirty_threshold();
                let dirty = self.cache.dirty();
                if dirty > background + EPSILON && limit > background + EPSILON {
                    let ramp = ((dirty - background) / (limit - background)).min(1.0);
                    let pause = pacing * ramp * self.disk().ideal_write_time(chunk);
                    if pause > EPSILON {
                        self.ctx.sleep(pause).await;
                        stats.throttle_stall += pause;
                        self.cache.note_throttle_stall(pause);
                    }
                }
            }
            pos = chunk_end;
        }
        self.cache.set_write_open(file, false);
        stats.duration = self.ctx.now().duration_since(t0);
        Ok(stats)
    }

    /// Flushes the file's dirty pages to disk synchronously (`fsync`):
    /// targeted per-file writeback at disk bandwidth, counted as throttled
    /// (synchronous) writeback.
    pub async fn fsync(&self, file: &FileId) -> Result<IoOpStats, FsError> {
        self.cache.file_size(file)?;
        let start = self.ctx.now();
        let flushed = self.cache.write_back_file(file).await;
        Ok(IoOpStats {
            bytes_to_disk: flushed,
            duration: self.ctx.now().duration_since(start),
            ..IoOpStats::default()
        })
    }

    /// Flushes every dirty page of the host to disk (`sync`), oldest dirty
    /// file first.
    pub async fn sync(&self) -> IoOpStats {
        let start = self.ctx.now();
        let flushed = self
            .cache
            .write_back(self.cache.dirty(), ReclaimScope::Host(None), true)
            .await;
        IoOpStats {
            bytes_to_disk: flushed,
            duration: self.ctx.now().duration_since(start),
            ..IoOpStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuning::KernelTuning;
    use des::Simulation;
    use storage_model::{units::MB, DeviceSpec, MemoryDevice};

    fn approx_pct(a: f64, b: f64, pct: f64) {
        assert!(
            (a - b).abs() <= pct / 100.0 * b.abs().max(1.0),
            "expected {b} ±{pct}%, got {a}"
        );
    }

    fn setup(total_mb: f64) -> (Simulation, KernelFileSystem) {
        setup_with(KernelTuning::with_memory(total_mb * MB))
    }

    fn setup_with(tuning: KernelTuning) -> (Simulation, KernelFileSystem) {
        let sim = Simulation::new();
        let ctx = sim.context();
        // Real-cluster style asymmetric bandwidths (Table III).
        let memory = MemoryDevice::new(
            &ctx,
            DeviceSpec::asymmetric(6860.0 * MB, 2764.0 * MB, 0.0, f64::INFINITY),
        );
        let disk = Disk::new(
            &ctx,
            "ssd",
            DeviceSpec::asymmetric(510.0 * MB, 420.0 * MB, 0.0, f64::INFINITY),
        );
        let cache = KernelCache::new(&ctx, tuning, memory, disk);
        let fs = KernelFileSystem::new(&ctx, cache);
        (sim, fs)
    }

    #[test]
    fn cold_read_then_warm_read() {
        let (sim, fs) = setup(10_000.0);
        fs.create_file(&"f".into(), 1000.0 * MB).unwrap();
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                let cold = fs
                    .read_range(&"f".into(), 0.0, f64::INFINITY)
                    .await
                    .unwrap();
                fs.cache().release_anonymous_memory(1000.0 * MB);
                let warm = fs
                    .read_range(&"f".into(), 0.0, f64::INFINITY)
                    .await
                    .unwrap();
                (cold, warm)
            }
        });
        sim.run();
        let (cold, warm) = h.try_take_result().unwrap();
        approx_pct(cold.duration, 1000.0 / 510.0, 1.0);
        approx_pct(warm.duration, 1000.0 / 6860.0, 1.0);
        approx_pct(cold.bytes_from_disk, 1000.0 * MB, 0.1);
        approx_pct(warm.bytes_from_cache, 1000.0 * MB, 0.1);
    }

    #[test]
    fn range_read_fetches_only_uncached_pages() {
        let (sim, fs) = setup(10_000.0);
        fs.create_file(&"f".into(), 1000.0 * MB).unwrap();
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                // Cache the first 400 MB only.
                fs.read_range(&"f".into(), 0.0, 400.0 * MB).await.unwrap();
                fs.cache().release_anonymous_memory(400.0 * MB);
                // A 200..600 MB read: 200 MB resident, 200 MB from disk.
                let mixed = fs
                    .read_range(&"f".into(), 200.0 * MB, 400.0 * MB)
                    .await
                    .unwrap();
                fs.cache().release_anonymous_memory(400.0 * MB);
                // A re-read of pages never touched reads disk in full.
                let tail = fs
                    .read_range(&"f".into(), 600.0 * MB, f64::INFINITY)
                    .await
                    .unwrap();
                (mixed, tail)
            }
        });
        sim.run();
        let (mixed, tail) = h.try_take_result().unwrap();
        approx_pct(mixed.bytes_from_cache, 200.0 * MB, 0.1);
        approx_pct(mixed.bytes_from_disk, 200.0 * MB, 0.1);
        approx_pct(tail.bytes_from_disk, 400.0 * MB, 0.1);
        assert_eq!(tail.bytes_from_cache, 0.0);
        // The whole file is now resident.
        approx_pct(fs.cache().cached_amount(&"f".into()), 1000.0 * MB, 0.1);
    }

    #[test]
    fn write_within_thresholds_is_memory_speed() {
        let (sim, fs) = setup(10_000.0);
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                fs.write_range(&"out".into(), 0.0, 500.0 * MB)
                    .await
                    .unwrap()
            }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        approx_pct(stats.duration, 500.0 / 2764.0, 1.0);
        approx_pct(stats.bytes_to_cache, 500.0 * MB, 0.1);
        assert_eq!(stats.bytes_to_disk, 0.0);
        approx_pct(fs.cache().dirty(), 500.0 * MB, 0.1);
    }

    #[test]
    fn rewriting_a_record_does_not_inflate_the_cache() {
        let (sim, fs) = setup(10_000.0);
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                fs.write_range(&"db".into(), 0.0, 100.0 * MB).await.unwrap();
                // Rewrite the same 100 MB record ten times.
                for _ in 0..10 {
                    fs.write_range(&"db".into(), 0.0, 100.0 * MB).await.unwrap();
                }
            }
        });
        sim.run();
        assert!(h.is_finished());
        approx_pct(fs.cache().cached_amount(&"db".into()), 100.0 * MB, 0.1);
        approx_pct(fs.cache().dirty(), 100.0 * MB, 0.1);
        assert_eq!(fs.cache().file_size(&"db".into()), Ok(100.0 * MB));
    }

    #[test]
    fn fsync_writes_back_only_the_target_file() {
        let (sim, fs) = setup(10_000.0);
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                fs.write_range(&"a".into(), 0.0, 420.0 * MB).await.unwrap();
                fs.write_range(&"b".into(), 0.0, 100.0 * MB).await.unwrap();
                let t0 = fs.ctx.now().as_secs();
                let s = fs.fsync(&"a".into()).await.unwrap();
                (s, fs.ctx.now().as_secs() - t0)
            }
        });
        sim.run();
        let (stats, elapsed) = h.try_take_result().unwrap();
        approx_pct(stats.bytes_to_disk, 420.0 * MB, 0.1);
        approx_pct(elapsed, 1.0, 1.0); // 420 MB at 420 MB/s write bandwidth
        assert!(fs.cache().dirty() > 99.0 * MB); // b stays dirty
        approx_pct(fs.cache().counters().throttled_writeback, 420.0 * MB, 0.1);
        let h2 = sim.spawn({
            let fs = fs.clone();
            async move { fs.sync().await }
        });
        sim.run();
        let sync_stats = h2.try_take_result().unwrap();
        approx_pct(sync_stats.bytes_to_disk, 100.0 * MB, 0.1);
        assert!(fs.cache().dirty() < 1.0);
    }

    #[test]
    fn large_write_is_throttled_to_disk_bandwidth() {
        // 1000 MB of RAM: dirty threshold 200 MB, background threshold 100 MB.
        let (sim, fs) = setup(1000.0);
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                fs.write_range(&"out".into(), 0.0, 600.0 * MB)
                    .await
                    .unwrap()
            }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        // Most of the data had to be written back synchronously.
        assert!(
            stats.bytes_to_disk >= 350.0 * MB,
            "flushed {}",
            stats.bytes_to_disk
        );
        assert!(
            stats.duration > 600.0 / 420.0 * 0.5,
            "duration {}",
            stats.duration
        );
        // Dirty data stays under the dirty threshold.
        assert!(fs.cache().dirty() <= fs.cache().dirty_threshold() + 1.0);
    }

    #[test]
    fn writeback_threads_drain_dirty_data_in_background() {
        let (sim, fs) = setup(10_000.0);
        fs.cache().spawn_writeback_threads();
        let ctx = sim.context();
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                fs.write_range(&"out".into(), 0.0, 1500.0 * MB)
                    .await
                    .unwrap();
                let dirty_right_after = fs.cache().dirty();
                ctx.sleep(10.0).await;
                let dirty_later = fs.cache().dirty();
                fs.cache().stop();
                (dirty_right_after, dirty_later)
            }
        });
        sim.run();
        let (right_after, later) = h.try_take_result().unwrap();
        // 1500 MB dirty > 10 % of 10 GB => the background threads start
        // draining before the 30 s expiration.
        assert!(right_after > 1400.0 * MB);
        assert!(
            later <= fs.cache().background_threshold() + 1.0,
            "later = {later}"
        );
    }

    fn readahead_tuning(total_mb: f64) -> KernelTuning {
        KernelTuning::with_memory(total_mb * MB).with_readahead(50.0 * MB, 400.0 * MB)
    }

    #[test]
    fn sequential_scan_with_readahead_reads_each_byte_once() {
        let (sim, fs) = setup_with(readahead_tuning(10_000.0));
        fs.create_file(&"f".into(), 1000.0 * MB).unwrap();
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                fs.read_range(&"f".into(), 0.0, f64::INFINITY)
                    .await
                    .unwrap()
            }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        // Prefetch fired, but every byte of the file hit the disk exactly
        // once: the prefetched share was served from cache on demand instead
        // of being read again.
        assert!(stats.bytes_prefetched > 100.0 * MB, "{stats:?}");
        approx_pct(stats.bytes_from_disk, 1000.0 * MB, 0.1);
        approx_pct(stats.bytes_from_cache, stats.bytes_prefetched, 0.1);
        approx_pct(
            fs.cache().counters().prefetched,
            stats.bytes_prefetched,
            0.1,
        );
        approx_pct(fs.cache().cached_amount(&"f".into()), 1000.0 * MB, 0.1);
    }

    #[test]
    fn readahead_window_grows_then_collapses_on_a_jump() {
        let (sim, fs) = setup_with(readahead_tuning(10_000.0));
        fs.create_file(&"f".into(), 2000.0 * MB).unwrap();
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                // Two sequential requests: initial window (50 MB), doubled
                // (100 MB).
                fs.read_range(&"f".into(), 0.0, 100.0 * MB).await.unwrap();
                let w1 = fs.cache().readahead(&"f".into()).window;
                fs.read_range(&"f".into(), 100.0 * MB, 100.0 * MB)
                    .await
                    .unwrap();
                let w2 = fs.cache().readahead(&"f".into()).window;
                // A jump collapses the window and prefetches nothing.
                let jump = fs
                    .read_range(&"f".into(), 1500.0 * MB, 100.0 * MB)
                    .await
                    .unwrap();
                let w3 = fs.cache().readahead(&"f".into()).window;
                (w1, w2, w3, jump)
            }
        });
        sim.run();
        let (w1, w2, w3, jump) = h.try_take_result().unwrap();
        approx_pct(w1, 50.0 * MB, 0.1);
        approx_pct(w2, 100.0 * MB, 0.1);
        assert_eq!(w3, 0.0);
        assert_eq!(jump.bytes_prefetched, 0.0);
    }

    #[test]
    fn the_size_and_readahead_stream_survive_an_invalidation_and_a_crash() {
        let (sim, fs) = setup_with(readahead_tuning(10_000.0));
        let f: FileId = "f".into();
        fs.create_file(&f, 2000.0 * MB).unwrap();
        let read = |offset: f64| {
            let (fs, f) = (fs.clone(), f.clone());
            let h = sim.spawn(async move { fs.read_range(&f, offset, 100.0 * MB).await });
            sim.run();
            h.try_take_result().unwrap().unwrap()
        };
        read(0.0);
        let stream = fs.cache().readahead(&f);
        approx_pct(stream.window, 50.0 * MB, 0.1);
        fs.cache().invalidate_file(&f);
        fs.cache().crash_discard();
        assert_eq!(fs.cache().readahead(&f), stream);
        assert_eq!(fs.cache().file_size(&f), Ok(2000.0 * MB));
        // The stream continues: the next sequential request doubles it.
        read(100.0 * MB);
        approx_pct(fs.cache().readahead(&f).window, 100.0 * MB, 0.1);
    }

    #[test]
    fn random_reads_never_prefetch() {
        let (sim, fs) = setup_with(readahead_tuning(10_000.0));
        fs.create_file(&"f".into(), 2000.0 * MB).unwrap();
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                let mut stats = IoOpStats::default();
                for offset_mb in [700.0, 100.0, 1500.0, 400.0, 1100.0] {
                    let s = fs
                        .read_range(&"f".into(), offset_mb * MB, 50.0 * MB)
                        .await
                        .unwrap();
                    stats.merge(&s);
                }
                stats
            }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        assert_eq!(stats.bytes_prefetched, 0.0);
        assert_eq!(fs.cache().counters().prefetched, 0.0);
        approx_pct(stats.bytes_from_disk, 250.0 * MB, 0.1);
    }

    #[test]
    fn readahead_prefetch_is_clipped_to_free_memory() {
        // 1000 MB of RAM: a 600 MB demand read plus its anonymous copy
        // leaves almost nothing for speculation — prefetch must shrink
        // rather than evict.
        let (sim, fs) = setup_with(readahead_tuning(1000.0));
        fs.create_file(&"f".into(), 2000.0 * MB).unwrap();
        let h = sim.spawn({
            let fs = fs.clone();
            async move { fs.read_range(&"f".into(), 0.0, 600.0 * MB).await.unwrap() }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        // The unclipped windows would speculate 50+100+200+400+400 MB ahead;
        // the free-memory budget caps what is actually fetched well below
        // that, and the host never overcommits on behalf of speculation.
        assert!(stats.bytes_prefetched <= 500.0 * MB, "{stats:?}");
        assert!(stats.bytes_prefetched > 0.0, "{stats:?}");
        assert!(fs.cache().cached() + fs.cache().anonymous() <= 1000.0 * MB + 1.0);
    }

    #[test]
    fn pacing_stalls_writers_between_the_thresholds() {
        // 1000 MB of RAM: background threshold 100 MB, dirty threshold
        // 200 MB. A 180 MB write ends between the two; with pacing the
        // writer is stalled, without it the write runs at memory speed.
        let unpaced = {
            let (sim, fs) = setup(1000.0);
            let h = sim.spawn({
                let fs = fs.clone();
                async move {
                    fs.write_range(&"out".into(), 0.0, 180.0 * MB)
                        .await
                        .unwrap()
                }
            });
            sim.run();
            h.try_take_result().unwrap()
        };
        let paced = {
            let (sim, fs) =
                setup_with(KernelTuning::with_memory(1000.0 * MB).with_throttle_pacing(1.0));
            let h = sim.spawn({
                let fs = fs.clone();
                async move {
                    fs.write_range(&"out".into(), 0.0, 180.0 * MB)
                        .await
                        .unwrap()
                }
            });
            sim.run();
            (h.try_take_result().unwrap(), fs.cache().counters())
        };
        assert_eq!(unpaced.throttle_stall, 0.0);
        let (paced_stats, counters) = paced;
        assert!(paced_stats.throttle_stall > 0.0, "{paced_stats:?}");
        approx_pct(
            counters.throttle_stall_seconds,
            paced_stats.throttle_stall,
            0.1,
        );
        assert!(paced_stats.duration > unpaced.duration + paced_stats.throttle_stall * 0.9);
        // Pacing slows the writer but flushes nothing extra by itself.
        assert_eq!(paced_stats.bytes_to_disk, 0.0);
    }

    #[test]
    fn hard_throttle_time_is_reported_as_stall() {
        // 600 MB write on a 1000 MB host crosses the 200 MB dirty threshold:
        // the synchronous writeback the writer performs is a stall even with
        // pacing disabled.
        let (sim, fs) = setup(1000.0);
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                fs.write_range(&"out".into(), 0.0, 600.0 * MB)
                    .await
                    .unwrap()
            }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        assert!(stats.bytes_to_disk >= 350.0 * MB);
        assert!(stats.throttle_stall > 0.5, "{}", stats.throttle_stall);
        assert!(stats.throttle_stall <= stats.duration);
        approx_pct(
            fs.cache().counters().throttle_stall_seconds,
            stats.throttle_stall,
            0.1,
        );
    }

    #[test]
    fn file_bookkeeping() {
        let (sim, fs) = setup(1000.0);
        fs.create_file(&"a".into(), 100.0 * MB).unwrap();
        assert_eq!(fs.cache().file_size(&"a".into()), Ok(100.0 * MB));
        assert!(fs.cache().file_size(&"b".into()).is_err());
        let h = sim.spawn({
            let fs = fs.clone();
            async move { fs.read_range(&"missing".into(), 0.0, f64::INFINITY).await }
        });
        sim.run();
        assert!(matches!(
            h.try_take_result().unwrap(),
            Err(FsError::FileNotFound(_))
        ));
        assert_eq!(fs.disk().used(), 100.0 * MB);
    }
}
