//! The I/O Controller (paper §III-B).
//!
//! Applications read and write files chunk by chunk through the I/O
//! Controller, which orchestrates flushing, eviction, cache accesses and disk
//! accesses with the Memory Manager. File pages are assumed to be accessed in
//! a round-robin fashion: when a file is read, uncached data is read (from
//! disk) before cached data, and inactive-list data before active-list data
//! (paper Fig. 3).
//!
//! The paper applies one read algorithm (Algorithm 2) to local storage and
//! to both NFS hosts (§III-D), and so does this module: every page-cached
//! read path — local files, the NFS client and server, the storage fleet's
//! clients and servers — runs [`IoController::read_chunk_via`], which takes
//! the uncached share from a caller-supplied source (the host's disk, or a
//! remote server) and, for readers that are applications, accounts for
//! their anonymous copy of the data.
//!
//! The controller is also a page-cached host's filesystem: callers read,
//! write and flush files by name through it ([`IoController::read_range`]),
//! and the files live in its Memory Manager's file table. Each op resolves
//! its file's name once, at its entry; the chunk steps below it take the
//! file's slot key.
//!
//! Every per-chunk step is cheap regardless of how many files are cached:
//! the headroom/evictable polls are O(1) aggregate reads, and the cache
//! read/flush calls walk only the target file's blocks / the dirty chains
//! (see the `lru` module), so interleaved multi-file workloads stay linear
//! in the data they move.

use std::convert::Infallible;
use std::future::Future;

use des::SimContext;
use storage_model::Disk;

use crate::block::FileId;
use crate::config::WriteMode;
use crate::error::FsError;
use crate::file_table::ReclaimScope;
use crate::lru::EPSILON;
use crate::manager::MemoryManager;
use crate::stats::IoOpStats;

/// Clamps the byte range `[offset, offset + len)` to a file of `file_size`
/// bytes and returns `(start, amount)`. Negative offsets are clamped to 0,
/// `len = f64::INFINITY` means "to end of file", and ranges beyond the end
/// of the file are truncated (possibly to zero bytes). A `NaN` offset or
/// length describes no range at all and clamps to zero bytes (`NaN.max(0.0)`
/// is `0.0` in Rust, so without the explicit check a NaN offset would
/// silently read the *start* of the file). Shared by every filesystem
/// implementing offset-granular I/O.
pub fn clamp_io_range(offset: f64, len: f64, file_size: f64) -> (f64, f64) {
    if offset.is_nan() || len.is_nan() {
        return (0.0, 0.0);
    }
    let start = offset.max(0.0).min(file_size);
    let end = if len == f64::INFINITY {
        file_size
    } else {
        (start + len.max(0.0)).min(file_size)
    };
    (start, (end - start).max(0.0))
}

/// Checks the byte range `[offset, offset + len)` of a write: both must be
/// finite and non-negative, or the write is an [`FsError::InvalidRange`]. A
/// write, unlike a read, has no end of file to clamp to. Every filesystem's
/// `write_range` applies this one rule before touching its registration.
pub fn check_write_range(offset: f64, len: f64) -> Result<(), FsError> {
    if offset.is_finite() && len.is_finite() && offset >= 0.0 && len >= 0.0 {
        Ok(())
    } else {
        Err(FsError::InvalidRange { offset, len })
    }
}

/// The I/O Controller of one host: the entry point applications use to read
/// and write files through the simulated page cache.
#[derive(Clone)]
pub struct IoController {
    ctx: SimContext,
    mm: MemoryManager,
}

impl IoController {
    /// Creates a controller operating on the given Memory Manager, with the
    /// chunk size of the manager's configuration.
    pub fn new(ctx: &SimContext, mm: MemoryManager) -> Self {
        IoController {
            ctx: ctx.clone(),
            mm,
        }
    }

    /// The chunk size used by [`IoController::read_range`] and
    /// [`IoController::write_amount`]: the configuration's
    /// [`chunk_size`](crate::PageCacheConfig::chunk_size).
    pub fn chunk_size(&self) -> f64 {
        self.mm.config().chunk_size
    }

    /// The underlying Memory Manager, which holds the host's files.
    pub fn memory_manager(&self) -> &MemoryManager {
        &self.mm
    }

    /// The backing disk.
    pub fn disk(&self) -> &Disk {
        self.mm.disk()
    }

    /// Reads `len` bytes of `file` starting at `offset` through the cache,
    /// chunk by chunk (paper Algorithm 2), and accounts for one
    /// anonymous-memory copy of the data in the application. `len =
    /// f64::INFINITY` reads to end of file; the range is clamped to the file
    /// ([`clamp_io_range`]). The macroscopic model is amount-based: *which*
    /// offsets are requested does not matter, only how much of the file is
    /// cached (the round-robin access assumption of paper §III-B) — uncached
    /// data is served from disk first, so a partial re-read hits the cache
    /// for `min(len, cached_amount)` bytes once the uncached share is
    /// exhausted.
    pub async fn read_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, FsError> {
        let (key, file_size) = self.mm.file_size(file)?;
        let (_start, amount) = clamp_io_range(offset, len, file_size);
        let start = self.ctx.now();
        let mut stats = IoOpStats::default();
        let mut remaining = amount;
        while remaining > EPSILON {
            let chunk = remaining.min(self.chunk_size());
            self.read_chunk(key, file_size, chunk, true, &mut stats)
                .await;
            remaining -= chunk;
        }
        stats.duration = self.ctx.now().duration_since(start);
        Ok(stats)
    }

    /// Writes `len` bytes at `offset` through the cache, creating the file
    /// or extending it to `offset + len` as needed (never shrinking it, the
    /// Memory Manager's extend rule), then writing the data with
    /// [`IoController::write_amount`].
    pub async fn write_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, FsError> {
        let key = self.mm.extend_file(file, offset, len)?;
        Ok(self.write_amount(key, len).await)
    }

    /// Writes `amount` bytes of the file of slot `key` through the cache,
    /// chunk by chunk
    /// (paper Algorithm 3 in writeback mode, or the writethrough variant
    /// described in §III-B), without touching the file's size. Like reads,
    /// writes are amount-based in the macroscopic model: a range write of
    /// `len` bytes behaves identically wherever in the file it lands. A
    /// writer that ships the data in chunks extends the file for the whole
    /// range first, so a full disk fails the write before any byte moves.
    pub async fn write_amount(&self, key: u64, amount: f64) -> IoOpStats {
        let start = self.ctx.now();
        let mut stats = IoOpStats::default();
        let mut remaining = amount;
        while remaining > EPSILON {
            let chunk = remaining.min(self.chunk_size());
            let chunk_stats = match self.mm.config().write_mode {
                WriteMode::WriteBack => self.write_chunk_writeback(key, chunk).await,
                WriteMode::WriteThrough => self.write_chunk_writethrough(key, chunk).await,
            };
            stats.merge(&chunk_stats);
            remaining -= chunk;
        }
        stats.duration = self.ctx.now().duration_since(start);
        stats
    }

    /// Flushes every dirty byte of one file to disk (`fsync`), or fails
    /// with [`FsError::FileNotFound`] if the host never created it. The
    /// writeback happens synchronously at disk bandwidth and the flushed
    /// data stays cached (clean); the per-file dirty state is located
    /// through the file's own chains, so the cost scales with the file's
    /// block count, not the cache population.
    pub async fn fsync(&self, file: &FileId) -> Result<IoOpStats, FsError> {
        let (key, _) = self.mm.file_size(file)?;
        let start = self.ctx.now();
        let flushed = self.mm.flush_file(key).await;
        Ok(IoOpStats {
            bytes_to_disk: flushed,
            duration: self.ctx.now().duration_since(start),
            ..IoOpStats::default()
        })
    }

    /// Flushes all dirty data of the host to disk (`sync`), least recently
    /// used first.
    pub async fn sync(&self) -> IoOpStats {
        let start = self.ctx.now();
        let flushed = self
            .mm
            .flush(self.mm.dirty(), ReclaimScope::Host(None))
            .await;
        IoOpStats {
            bytes_to_disk: flushed,
            duration: self.ctx.now().duration_since(start),
            ..IoOpStats::default()
        }
    }

    /// Reads one chunk of the file of slot `key` through the cache, taking
    /// the uncached share from this host's disk:
    /// [`IoController::read_chunk_via`] with the disk as the source. Adds
    /// the chunk's byte counts to `stats`.
    pub async fn read_chunk(
        &self,
        key: u64,
        file_size: f64,
        chunk: f64,
        keep_copy: bool,
        stats: &mut IoOpStats,
    ) {
        let disk = self.mm.disk();
        let Ok(()) = self
            .read_chunk_via(
                key,
                file_size,
                chunk,
                keep_copy,
                stats,
                |amount| async move {
                    disk.read(amount).await;
                    Ok::<_, Infallible>(IoOpStats {
                        bytes_from_disk: amount,
                        ..IoOpStats::default()
                    })
                },
            )
            .await;
    }

    /// Reads one chunk of the file of slot `key` (a file of `file_size`
    /// bytes) through the cache: paper Algorithm 2, the one read step of every page-cached
    /// host. `fetch(amount)` produces `amount` uncached bytes — from the
    /// host's disk, or over the network from a server — and returns what
    /// that cost, which is added to `stats` along with the chunk's cache
    /// traffic. A reader that is an application (`keep_copy`) holds the
    /// chunk in anonymous memory afterwards; a server passing data on does
    /// not, so it only needs room for the bytes it caches. A failed fetch
    /// aborts the step and is returned as is.
    pub async fn read_chunk_via<E, Fut>(
        &self,
        key: u64,
        file_size: f64,
        chunk: f64,
        keep_copy: bool,
        stats: &mut IoOpStats,
        mut fetch: impl FnMut(f64) -> Fut,
    ) -> Result<(), E>
    where
        Fut: Future<Output = Result<IoOpStats, E>>,
    {
        // Lines 7-9: how much must be fetched, how much comes from cache, and
        // how much memory the chunk needs (the newly cached data, plus the
        // reader's anonymous copy). Under the round-robin access assumption
        // the uncached part of the file is `fs - mm.cached(fn)`.
        let file_uncached = (file_size - self.mm.cached_amount(key)).max(0.0);
        let disk_read = chunk.min(file_uncached);
        let cache_read = chunk - disk_read;
        let required_mem = if keep_copy {
            chunk + disk_read
        } else {
            disk_read
        };

        // Lines 10-11: make room by flushing dirty data, then evicting clean
        // data. Negative amounts are no-ops, and so is the flush on a cache
        // that holds no dirty data (read-only client caches, writethrough
        // servers). This step runs on every chunk of every read, and most
        // chunks need no flush, so the flush call is skipped then.
        let others = ReclaimScope::Host(Some(key));
        let flush_amount = required_mem - self.mm.free_memory() - self.mm.evictable(Some(key));
        if flush_amount > EPSILON {
            stats.bytes_to_disk += self.mm.flush(flush_amount, others).await;
        }
        self.mm.evict(required_mem - self.mm.free_memory(), others);
        // Algorithm 2 assumes the file fits in memory. If it does not, the
        // exclusion above prevents reclaiming the file's own pages and the
        // cache would grow unbounded; fall back to unrestricted eviction,
        // which is what the kernel does under memory pressure.
        let still_missing = required_mem - self.mm.free_memory();
        if still_missing > EPSILON {
            self.mm.evict(still_missing, ReclaimScope::Host(None));
        }

        // Lines 12-15: fetch uncached data and add it to the cache.
        if disk_read > EPSILON {
            stats.merge(&fetch(disk_read).await?);
            self.mm.add_to_cache(key, disk_read);
            stats.bytes_to_cache += disk_read;
        }
        // Lines 16-18: read cached data. The fallback eviction above may
        // have reclaimed part of this very share; the reader still gets
        // every byte, so the shortfall is fetched like uncached data.
        if cache_read > EPSILON {
            let read = self.mm.read_from_cache(key, cache_read).await;
            stats.bytes_from_cache += read;
            let shortfall = cache_read - read;
            if shortfall > EPSILON {
                stats.merge(&fetch(shortfall).await?);
            }
        }
        // Line 19: the application keeps a copy of the chunk in anonymous
        // memory.
        if keep_copy {
            self.mm.use_anonymous_memory(chunk);
        }
        Ok(())
    }

    /// Writes one chunk in writeback mode (paper Algorithm 3).
    async fn write_chunk_writeback(&self, key: u64, chunk: f64) -> IoOpStats {
        let start = self.ctx.now();
        let mut stats = IoOpStats::default();

        // Line 5: how much dirty data may still be produced.
        let remain_dirty = self.mm.dirty_threshold() - self.mm.dirty();
        let mut mem_amt = 0.0;
        if remain_dirty > EPSILON {
            // Lines 6-9: make room (if needed) and write to the cache.
            let evict_amount = chunk.min(remain_dirty) - self.mm.free_memory();
            self.mm.evict(evict_amount, ReclaimScope::Host(None));
            mem_amt = chunk.min(remain_dirty).min(self.mm.free_memory());
            if mem_amt > EPSILON {
                self.mm.write_to_cache(key, mem_amt).await;
                stats.bytes_to_cache += mem_amt;
            }
        }

        // Lines 11-18: the dirty threshold was reached; repeatedly flush,
        // evict, and write the remaining data to the cache. This loop is the
        // macroscopic equivalent of `balance_dirty_pages` blocking the
        // writer, so the time it takes is reported as a throttle stall —
        // comparable with the kernel emulator's pacing/hard-throttle stalls.
        let stall_start = self.ctx.now();
        let mut remaining = chunk - mem_amt;
        while remaining > EPSILON {
            let flushed = self
                .mm
                .flush(chunk - mem_amt, ReclaimScope::Host(None))
                .await;
            stats.bytes_to_disk += flushed;
            self.mm.evict(
                chunk - mem_amt - self.mm.free_memory(),
                ReclaimScope::Host(None),
            );
            let to_cache = remaining.min(self.mm.free_memory());
            if to_cache > EPSILON {
                self.mm.write_to_cache(key, to_cache).await;
                stats.bytes_to_cache += to_cache;
                remaining -= to_cache;
            } else if flushed <= EPSILON || remaining < 1.0 {
                // Neither flushing nor eviction can make progress (everything
                // is anonymous or active), or all that is left is a sub-byte
                // rounding residue: with memory overcommitted, flushing and
                // evicting a residue above `EPSILON` frees nothing, and the
                // loop would flush that residue forever. Degrade to a direct
                // disk write for the remainder so the simulation cannot
                // livelock; the real kernel would block the writer in
                // balance_dirty_pages.
                self.mm.disk().write(remaining).await;
                self.mm
                    .add_to_cache(key, self.mm.free_memory().min(remaining));
                stats.bytes_to_disk += remaining;
                remaining = 0.0;
            }
        }
        stats.throttle_stall = self.ctx.now().duration_since(stall_start);

        stats.duration = self.ctx.now().duration_since(start);
        stats
    }

    /// Writes one chunk in writethrough mode (paper §III-B, last paragraph):
    /// the disk write is synchronous, then the written data is added to the
    /// cache (as clean data), evicting older cache entries if needed. This
    /// is also the write step of writethrough servers.
    async fn write_chunk_writethrough(&self, key: u64, chunk: f64) -> IoOpStats {
        let start = self.ctx.now();
        let mut stats = IoOpStats::default();
        self.mm.disk().write(chunk).await;
        stats.bytes_to_disk += chunk;
        self.mm
            .evict(chunk - self.mm.free_memory(), ReclaimScope::Host(None));
        let to_cache = chunk.min(self.mm.free_memory());
        if to_cache > EPSILON {
            self.mm.add_to_cache(key, to_cache);
            stats.bytes_to_cache += to_cache;
        }
        stats.duration = self.ctx.now().duration_since(start);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PageCacheConfig;
    use des::{SimTime, Simulation};
    use storage_model::{units::MB, DeviceSpec, Disk, MemoryDevice};

    const MEM_BW: f64 = 1000.0 * 1e6; // 1000 MB/s
    const DISK_BW: f64 = 100.0 * 1e6; // 100 MB/s

    fn setup(total_memory: f64, mode: WriteMode) -> (Simulation, IoController) {
        let cfg = PageCacheConfig {
            write_mode: mode,
            ..PageCacheConfig::default()
        };
        setup_with(total_memory, cfg, f64::INFINITY)
    }

    fn setup_with(
        total_memory: f64,
        cfg: PageCacheConfig,
        disk_capacity: f64,
    ) -> (Simulation, IoController) {
        let sim = Simulation::new();
        let ctx = sim.context();
        let memory = MemoryDevice::new(&ctx, DeviceSpec::symmetric(MEM_BW, 0.0, f64::INFINITY));
        let disk = Disk::new(
            &ctx,
            "disk0",
            DeviceSpec::symmetric(DISK_BW, 0.0, disk_capacity),
        );
        let mm = MemoryManager::new(&ctx, cfg, total_memory, memory, disk);
        (sim, IoController::new(&ctx, mm))
    }

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() < 1e-6 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    fn approx_tol(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * b.abs().max(1.0),
            "expected {b}±{tol}, got {a}"
        );
    }

    /// The slot key of `name` on `io`'s host, made if needed.
    fn key(io: &IoController, name: &str) -> u64 {
        io.memory_manager().key_or_insert(&name.into())
    }

    fn create(io: &IoController, file: &str, size: f64) {
        io.memory_manager().create_file(&file.into(), size).unwrap();
    }

    async fn read_all(io: &IoController, file: &str) -> IoOpStats {
        io.read_range(&file.into(), 0.0, f64::INFINITY)
            .await
            .unwrap()
    }

    #[test]
    fn cold_read_hits_disk_at_disk_bandwidth() {
        let (sim, io) = setup(10_000.0 * MB, WriteMode::WriteBack);
        create(&io, "f", 1000.0 * MB);
        let h = sim.spawn({
            let io = io.clone();
            async move { read_all(&io, "f").await }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        approx(stats.bytes_from_disk, 1000.0 * MB);
        approx(stats.bytes_from_cache, 0.0);
        approx(stats.duration, 10.0); // 1000 MB at 100 MB/s
                                      // The file is now fully cached and one anonymous copy is accounted.
        approx(
            io.memory_manager().cached_amount(key(&io, "f")),
            1000.0 * MB,
        );
        approx(io.memory_manager().anonymous(), 1000.0 * MB);
    }

    #[test]
    fn warm_read_hits_cache_at_memory_bandwidth() {
        let (sim, io) = setup(10_000.0 * MB, WriteMode::WriteBack);
        create(&io, "f", 1000.0 * MB);
        let h = sim.spawn({
            let io = io.clone();
            async move {
                read_all(&io, "f").await;
                io.memory_manager().release_anonymous_memory(1000.0 * MB);
                read_all(&io, "f").await
            }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        approx(stats.bytes_from_cache, 1000.0 * MB);
        approx(stats.bytes_from_disk, 0.0);
        approx(stats.duration, 1.0); // 1000 MB at 1000 MB/s
        assert!((stats.cache_hit_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partially_cached_file_reads_uncached_part_from_disk() {
        let (sim, io) = setup(10_000.0 * MB, WriteMode::WriteBack);
        create(&io, "f", 1000.0 * MB);
        // Pre-populate 400 MB of the file in the cache.
        io.memory_manager().add_to_cache(key(&io, "f"), 400.0 * MB);
        let h = sim.spawn({
            let io = io.clone();
            async move { read_all(&io, "f").await }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        approx(stats.bytes_from_disk, 600.0 * MB);
        approx(stats.bytes_from_cache, 400.0 * MB);
        // 600 MB at 100 MB/s + 400 MB at 1000 MB/s
        approx(stats.duration, 6.4);
    }

    #[test]
    fn writeback_write_within_dirty_headroom_is_memory_speed() {
        let (sim, io) = setup(10_000.0 * MB, WriteMode::WriteBack);
        let h = sim.spawn({
            let io = io.clone();
            async move { io.write_amount(key(&io, "f"), 1000.0 * MB).await }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        approx(stats.bytes_to_cache, 1000.0 * MB);
        approx(stats.bytes_to_disk, 0.0);
        approx(stats.duration, 1.0); // memory bandwidth only
        approx(io.memory_manager().dirty(), 1000.0 * MB);
    }

    #[test]
    fn writeback_write_beyond_dirty_ratio_triggers_flushing() {
        // 1000 MB of RAM, dirty ratio 20 % => at most ~200 MB of dirty data.
        let (sim, io) = setup(1000.0 * MB, WriteMode::WriteBack);
        let h = sim.spawn({
            let io = io.clone();
            async move { io.write_amount(key(&io, "f"), 600.0 * MB).await }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        approx(stats.bytes_to_cache, 600.0 * MB);
        // At least 400 MB had to be flushed to disk synchronously.
        assert!(
            stats.bytes_to_disk >= 399.0 * MB,
            "flushed {}",
            stats.bytes_to_disk
        );
        // Duration is dominated by the flush at disk bandwidth: ~4s plus
        // 0.6s of memory writes.
        assert!(stats.duration > 4.0, "duration {}", stats.duration);
        // The dirty ratio is respected at the end.
        assert!(io.memory_manager().dirty() <= 0.2 * 1000.0 * MB + 1.0);
        io.memory_manager().check_invariants().unwrap();
    }

    #[test]
    fn writethrough_write_is_disk_speed_and_leaves_clean_cache() {
        let (sim, io) = setup(10_000.0 * MB, WriteMode::WriteThrough);
        let h = sim.spawn({
            let io = io.clone();
            async move { io.write_amount(key(&io, "f"), 500.0 * MB).await }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        approx(stats.bytes_to_disk, 500.0 * MB);
        approx(stats.bytes_to_cache, 500.0 * MB);
        approx(stats.duration, 5.0); // 500 MB at 100 MB/s
        approx(io.memory_manager().dirty(), 0.0);
        approx(io.memory_manager().cached(), 500.0 * MB);
    }

    #[test]
    fn writethrough_then_read_hits_cache() {
        let (sim, io) = setup(10_000.0 * MB, WriteMode::WriteThrough);
        let h = sim.spawn({
            let io = io.clone();
            async move {
                io.write_range(&"f".into(), 0.0, 500.0 * MB).await.unwrap();
                read_all(&io, "f").await
            }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        approx(stats.bytes_from_cache, 500.0 * MB);
        approx(stats.bytes_from_disk, 0.0);
    }

    #[test]
    fn read_larger_than_memory_evicts_and_still_completes() {
        // 1000 MB of RAM, 3000 MB file: the file cannot be fully cached.
        let (sim, io) = setup(1000.0 * MB, WriteMode::WriteBack);
        create(&io, "f", 3000.0 * MB);
        let h = sim.spawn({
            let io = io.clone();
            async move {
                let s = read_all(&io, "f").await;
                io.memory_manager().release_anonymous_memory(3000.0 * MB);
                s
            }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        approx(stats.bytes_from_disk, 3000.0 * MB);
        // The cache never exceeds total memory.
        assert!(io.memory_manager().cached() <= 1000.0 * MB + 1.0);
        io.memory_manager().check_invariants().unwrap();
    }

    #[test]
    fn rereading_file_larger_than_memory_still_partially_hits_cache_or_disk() {
        let (sim, io) = setup(1000.0 * MB, WriteMode::WriteBack);
        create(&io, "f", 3000.0 * MB);
        let h = sim.spawn({
            let io = io.clone();
            async move {
                read_all(&io, "f").await;
                io.memory_manager().release_anonymous_memory(3000.0 * MB);
                let s = read_all(&io, "f").await;
                io.memory_manager().release_anonymous_memory(3000.0 * MB);
                s
            }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        // Everything read, one way or the other.
        approx_tol(
            stats.bytes_from_disk + stats.bytes_from_cache,
            3000.0 * MB,
            0.01,
        );
        io.memory_manager().check_invariants().unwrap();
    }

    #[test]
    fn chunk_size_does_not_change_totals() {
        for chunk_mb in [10.0, 50.0, 250.0] {
            let cfg = PageCacheConfig {
                chunk_size: chunk_mb * MB,
                ..PageCacheConfig::default()
            };
            let (sim, io) = setup_with(10_000.0 * MB, cfg, f64::INFINITY);
            create(&io, "f", 1000.0 * MB);
            let h = sim.spawn({
                let io = io.clone();
                async move {
                    let r = read_all(&io, "f").await;
                    let w = io.write_amount(key(&io, "g"), 500.0 * MB).await;
                    (r, w)
                }
            });
            sim.run();
            let (r, w) = h.try_take_result().unwrap();
            approx(r.bytes_from_disk, 1000.0 * MB);
            approx(w.bytes_to_cache, 500.0 * MB);
        }
    }

    #[test]
    fn zero_byte_file_is_a_noop() {
        let (sim, io) = setup(1000.0 * MB, WriteMode::WriteBack);
        create(&io, "f", 0.0);
        let h = sim.spawn({
            let io = io.clone();
            async move {
                let r = read_all(&io, "f").await;
                let w = io.write_amount(key(&io, "f"), 0.0).await;
                (r, w)
            }
        });
        sim.run();
        let (r, w) = h.try_take_result().unwrap();
        assert_eq!(r.total_bytes(), 0.0);
        assert_eq!(w.total_bytes(), 0.0);
        assert_eq!(sim.now().as_secs(), 0.0);
    }

    #[test]
    fn clamp_io_range_cases() {
        assert_eq!(clamp_io_range(0.0, f64::INFINITY, 100.0), (0.0, 100.0));
        assert_eq!(clamp_io_range(40.0, 100.0, 100.0), (40.0, 60.0));
        assert_eq!(clamp_io_range(-5.0, 10.0, 100.0), (0.0, 10.0));
        assert_eq!(clamp_io_range(150.0, 10.0, 100.0), (100.0, 0.0));
        assert_eq!(clamp_io_range(20.0, -3.0, 100.0), (20.0, 0.0));
        assert_eq!(clamp_io_range(0.0, f64::INFINITY, 0.0), (0.0, 0.0));
    }

    #[test]
    fn clamp_io_range_edge_cases() {
        // Zero-length ranges anywhere in or out of the file.
        assert_eq!(clamp_io_range(0.0, 0.0, 100.0), (0.0, 0.0));
        assert_eq!(clamp_io_range(50.0, 0.0, 100.0), (50.0, 0.0));
        // Offset exactly at EOF, and beyond it (finite and infinite).
        assert_eq!(clamp_io_range(100.0, 0.0, 100.0), (100.0, 0.0));
        assert_eq!(clamp_io_range(100.0, f64::INFINITY, 100.0), (100.0, 0.0));
        assert_eq!(clamp_io_range(f64::INFINITY, 10.0, 100.0), (100.0, 0.0));
        // A range straddling EOF truncates to the in-file part.
        assert_eq!(clamp_io_range(90.0, 20.0, 100.0), (90.0, 10.0));
        // Negative infinity offset clamps like any negative offset.
        assert_eq!(clamp_io_range(f64::NEG_INFINITY, 10.0, 100.0), (0.0, 10.0));
        // NaN offset/length describe no range — notably, a NaN offset must
        // not silently turn into a read of the first `len` bytes.
        assert_eq!(clamp_io_range(f64::NAN, 10.0, 100.0), (0.0, 0.0));
        assert_eq!(clamp_io_range(10.0, f64::NAN, 100.0), (0.0, 0.0));
        assert_eq!(clamp_io_range(f64::NAN, f64::NAN, 100.0), (0.0, 0.0));
        // Empty file: everything clamps to zero.
        assert_eq!(clamp_io_range(5.0, 5.0, 0.0), (0.0, 0.0));
    }

    #[test]
    fn partial_reread_hits_cache_for_min_len_cached() {
        let (sim, io) = setup(10_000.0 * MB, WriteMode::WriteBack);
        create(&io, "f", 1000.0 * MB);
        let h = sim.spawn({
            let io = io.clone();
            async move {
                read_all(&io, "f").await;
                io.memory_manager().release_anonymous_memory(1000.0 * MB);
                // A 300 MB partial re-read of the fully cached file.
                io.read_range(&"f".into(), 0.0, 300.0 * MB).await.unwrap()
            }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        approx(stats.bytes_from_cache, 300.0 * MB);
        approx(stats.bytes_from_disk, 0.0);
        approx(stats.duration, 0.3);
    }

    #[test]
    fn fsync_flushes_only_the_target_file() {
        let (sim, io) = setup(10_000.0 * MB, WriteMode::WriteBack);
        let h = sim.spawn({
            let io = io.clone();
            async move {
                io.write_range(&"a".into(), 0.0, 300.0 * MB).await.unwrap();
                io.write_range(&"b".into(), 0.0, 200.0 * MB).await.unwrap();
                let t0 = io.ctx.now().as_secs();
                let s = io.fsync(&"a".into()).await.unwrap();
                (s, io.ctx.now().as_secs() - t0)
            }
        });
        sim.run();
        let (stats, elapsed) = h.try_take_result().unwrap();
        approx(stats.bytes_to_disk, 300.0 * MB);
        approx(stats.duration, elapsed);
        approx(elapsed, 3.0); // 300 MB at 100 MB/s
        approx(io.memory_manager().dirty_amount(key(&io, "a")), 0.0);
        approx(io.memory_manager().dirty_amount(key(&io, "b")), 200.0 * MB);
        // The flushed data stays cached, now clean.
        approx(io.memory_manager().cached_amount(key(&io, "a")), 300.0 * MB);
        io.memory_manager().check_invariants().unwrap();
    }

    #[test]
    fn fsync_of_clean_file_is_a_noop() {
        let (sim, io) = setup(10_000.0 * MB, WriteMode::WriteBack);
        create(&io, "f", 100.0 * MB);
        let h = sim.spawn({
            let io = io.clone();
            async move {
                read_all(&io, "f").await;
                io.fsync(&"f".into()).await.unwrap()
            }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        approx(stats.bytes_to_disk, 0.0);
        approx(stats.duration, 0.0);
    }

    #[test]
    fn sync_flushes_all_dirty_data() {
        let (sim, io) = setup(10_000.0 * MB, WriteMode::WriteBack);
        let h = sim.spawn({
            let io = io.clone();
            async move {
                io.write_amount(key(&io, "a"), 300.0 * MB).await;
                io.write_amount(key(&io, "b"), 200.0 * MB).await;
                io.sync().await
            }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        approx(stats.bytes_to_disk, 500.0 * MB);
        approx(io.memory_manager().dirty(), 0.0);
        approx(io.memory_manager().cached(), 500.0 * MB);
    }

    #[test]
    fn read_refetches_cached_data_lost_to_fallback_eviction() {
        // 100 MB of RAM, 65 MB anonymous, 30 MB of the 40 MB file cached.
        // Reading it needs 10 MB for the uncached part plus a 40 MB
        // anonymous copy, but only 5 MB is free and the file itself is the
        // only clean data, so the fallback eviction reclaims the 30 MB the
        // read expected to hit. Those bytes must still reach the reader.
        let (sim, io) = setup(100.0 * MB, WriteMode::WriteBack);
        create(&io, "a", 40.0 * MB);
        io.memory_manager().use_anonymous_memory(65.0 * MB);
        io.memory_manager().add_to_cache(key(&io, "a"), 30.0 * MB);
        let h = sim.spawn({
            let io = io.clone();
            async move { read_all(&io, "a").await }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        approx(stats.bytes_from_disk + stats.bytes_from_cache, 40.0 * MB);
        // 10 MB uncached plus the 20 MB evicted share come from disk; the
        // 10 MB just added to the cache are read from it.
        approx(stats.bytes_from_disk, 30.0 * MB);
        approx(stats.bytes_from_cache, 10.0 * MB);
        io.memory_manager().check_invariants().unwrap();
    }

    #[test]
    fn sub_byte_write_residue_under_overcommit_terminates() {
        // The chunk fits in free memory and dirty headroom but for half a
        // byte, so the writer caches all of it except a 0.5 B residue.
        // While its memory write is in flight another task overcommits
        // memory, after which flushing and evicting the residue frees
        // nothing: free memory stays 0 and each pass flushes another 0.5 B.
        let sim = Simulation::new();
        let ctx = sim.context();
        let memory = MemoryDevice::new(&ctx, DeviceSpec::symmetric(MEM_BW, 0.0, f64::INFINITY));
        // A millisecond of latency per disk request bounds how many passes
        // a looping writer makes in the simulated time allowed below.
        let disk = Disk::new(
            &ctx,
            "disk0",
            DeviceSpec::symmetric(DISK_BW, 1e-3, f64::INFINITY),
        );
        let cfg = PageCacheConfig {
            dirty_ratio: 1.0,
            ..PageCacheConfig::default()
        };
        let mm = MemoryManager::new(&ctx, cfg, 1000.0 * MB, memory, disk);
        let io = IoController::new(&ctx, mm);
        io.memory_manager().use_anonymous_memory(900.0 * MB + 0.5);
        let writer = sim.spawn({
            let io = io.clone();
            async move { io.write_amount(key(&io, "f"), 100.0 * MB).await }
        });
        sim.spawn({
            let io = io.clone();
            let ctx = ctx.clone();
            async move {
                ctx.sleep(0.05).await;
                io.memory_manager().use_anonymous_memory(MB);
            }
        });
        // Watchdog: the write takes 0.1 s; ten simulated seconds is ample.
        sim.run_until(SimTime::from_secs(10.0));
        let stats = writer
            .try_take_result()
            .expect("writer still flushing a sub-byte residue");
        approx(stats.bytes_to_cache, 100.0 * MB - 0.5);
        assert!(stats.bytes_to_disk >= 0.5 && stats.bytes_to_disk < 2.0);
        io.memory_manager().check_invariants().unwrap();
    }

    #[test]
    fn file_read_write_and_cache_hit() {
        let (sim, io) = setup(10_000.0 * MB, WriteMode::WriteBack);
        create(&io, "input", 500.0 * MB);
        let h = sim.spawn({
            let io = io.clone();
            async move {
                let cold = read_all(&io, "input").await;
                let warm = read_all(&io, "input").await;
                let write = io
                    .write_range(&"output".into(), 0.0, 300.0 * MB)
                    .await
                    .unwrap();
                (cold, warm, write)
            }
        });
        sim.run();
        let (cold, warm, write) = h.try_take_result().unwrap();
        approx(cold.bytes_from_disk, 500.0 * MB);
        approx(warm.bytes_from_cache, 500.0 * MB);
        approx(write.bytes_to_cache, 300.0 * MB);
        assert!(warm.duration < cold.duration);
        assert!(io.memory_manager().file_size(&"output".into()).is_ok());
        approx(io.disk().used(), 800.0 * MB);
    }

    #[test]
    fn reading_a_missing_file_fails() {
        let (sim, io) = setup(1_000.0 * MB, WriteMode::WriteBack);
        let h = sim.spawn({
            let io = io.clone();
            async move { io.read_range(&"nope".into(), 0.0, f64::INFINITY).await }
        });
        sim.run();
        assert!(matches!(
            h.try_take_result().unwrap(),
            Err(FsError::FileNotFound(_))
        ));
    }

    #[test]
    fn creating_a_file_past_a_full_disk_fails() {
        let (_sim, io) = setup_with(1_000.0 * MB, PageCacheConfig::default(), 100.0 * MB);
        assert!(matches!(
            io.memory_manager().create_file(&"big".into(), 200.0 * MB),
            Err(FsError::DiskFull(_))
        ));
    }

    #[test]
    fn range_ops_and_fsync() {
        let (sim, io) = setup(10_000.0 * MB, WriteMode::WriteBack);
        create(&io, "f", 500.0 * MB);
        let h = sim.spawn({
            let io = io.clone();
            async move {
                // Whole read, then a partial re-read: full cache hit.
                read_all(&io, "f").await;
                let partial = io
                    .read_range(&"f".into(), 100.0 * MB, 200.0 * MB)
                    .await
                    .unwrap();
                // A range write extends the file and dirties the cache.
                let w = io
                    .write_range(&"g".into(), 100.0 * MB, 50.0 * MB)
                    .await
                    .unwrap();
                let fsync = io.fsync(&"g".into()).await.unwrap();
                let fsync_again = io.fsync(&"g".into()).await.unwrap();
                let sync = io.sync().await;
                (partial, w, fsync, fsync_again, sync)
            }
        });
        sim.run();
        let (partial, w, fsync, fsync_again, sync) = h.try_take_result().unwrap();
        approx(partial.bytes_from_cache, 200.0 * MB);
        approx(partial.bytes_from_disk, 0.0);
        approx(w.bytes_to_cache, 50.0 * MB);
        let size = io
            .memory_manager()
            .file_size(&"g".into())
            .map(|(_, size)| size);
        assert_eq!(size, Ok(150.0 * MB));
        approx(io.disk().used(), 650.0 * MB);
        approx(fsync.bytes_to_disk, 50.0 * MB);
        approx(fsync_again.bytes_to_disk, 0.0);
        // fsync already cleaned everything, so a host-wide sync writes nothing.
        approx(sync.bytes_to_disk, 0.0);
        approx(io.memory_manager().dirty(), 0.0);
    }

    #[test]
    fn range_read_clamps_to_file() {
        let (sim, io) = setup(10_000.0 * MB, WriteMode::WriteBack);
        create(&io, "f", 100.0 * MB);
        let h = sim.spawn({
            let io = io.clone();
            async move {
                let tail = io
                    .read_range(&"f".into(), 80.0 * MB, f64::INFINITY)
                    .await
                    .unwrap();
                let beyond = io
                    .read_range(&"f".into(), 200.0 * MB, 10.0 * MB)
                    .await
                    .unwrap();
                (tail, beyond)
            }
        });
        sim.run();
        let (tail, beyond) = h.try_take_result().unwrap();
        approx(tail.bytes_from_disk, 20.0 * MB);
        assert_eq!(beyond.total_bytes(), 0.0);
    }

    #[test]
    fn each_op_looks_its_file_up_once() {
        // A 300 MB file in 100 MB chunks on a 500 MB host: the cold read
        // reclaims, so every step of the read and the write runs, chunk
        // after chunk, and a per-step lookup would show in the count.
        let (sim, io) = setup(500.0 * MB, WriteMode::WriteBack);
        create(&io, "f", 300.0 * MB);
        let h = sim.spawn({
            let io = io.clone();
            async move {
                let f: FileId = "f".into();
                let mm = io.memory_manager();
                let mut lookups = Vec::new();
                let mut count = |what: &'static str, before: u64| {
                    lookups.push((what, mm.name_lookups() - before));
                };
                for what in ["cold read", "warm read"] {
                    let before = mm.name_lookups();
                    io.read_range(&f, 0.0, f64::INFINITY).await.unwrap();
                    count(what, before);
                    mm.release_anonymous_memory(300.0 * MB);
                }
                let before = mm.name_lookups();
                io.write_range(&f, 50.0 * MB, 200.0 * MB).await.unwrap();
                count("write within the size", before);
                let before = mm.name_lookups();
                io.fsync(&f).await.unwrap();
                count("fsync", before);
                let before = mm.name_lookups();
                let missing = io.read_range(&"nope".into(), 0.0, f64::INFINITY).await;
                assert!(matches!(missing, Err(FsError::FileNotFound(_))));
                count("read of a missing file", before);
                lookups
            }
        });
        sim.run();
        for (what, n) in h.try_take_result().unwrap() {
            assert_eq!(n, 1, "{what}: {n} name lookups");
        }
        assert!(
            io.memory_manager().counters().evicted > 0.0,
            "no reclaim ran"
        );
    }
}
