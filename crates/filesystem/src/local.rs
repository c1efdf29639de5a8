//! Local filesystems: page-cached (the paper's model) and direct (the
//! cacheless behaviour of vanilla WRENCH, also over an NFS link).

use std::cell::RefCell;
use std::rc::Rc;

use des::SimContext;
use pagecache::{
    clamp_io_range, FileId, FileTable, FsError, IoController, IoOpStats, MemoryManager,
};
use storage_model::{Disk, NetworkLink};

/// A local filesystem whose I/O goes through the simulated page cache
/// (WRENCH-cache behaviour). Its files live in the Memory Manager's file
/// table, next to their cached data, and take space on the disk the
/// Memory Manager flushes to.
#[derive(Clone)]
pub struct CachedFileSystem {
    io: IoController,
}

impl CachedFileSystem {
    /// Creates a cached filesystem using the given I/O controller (which
    /// owns the host's Memory Manager and, through it, the disk).
    pub fn new(io: IoController) -> Self {
        CachedFileSystem { io }
    }

    /// The host's Memory Manager.
    pub fn memory_manager(&self) -> &MemoryManager {
        self.io.memory_manager()
    }

    /// The I/O controller.
    pub fn io_controller(&self) -> &IoController {
        &self.io
    }

    /// The backing disk.
    pub fn disk(&self) -> &Disk {
        self.memory_manager().disk()
    }

    /// Registers an existing file (e.g. the initial input of a workflow)
    /// without simulating any I/O ([`MemoryManager::create_file`]).
    pub fn create_file(&self, file: &FileId, size: f64) -> Result<(), FsError> {
        self.memory_manager().create_file(file, size)
    }

    /// Reads `len` bytes of `file` starting at `offset` through the page
    /// cache (`len = f64::INFINITY` reads to end of file; the range is
    /// clamped to the file). The macroscopic cache model is amount-based, so
    /// a partial re-read hits the cache for up to `min(len, cached_amount)`
    /// bytes.
    pub async fn read_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, FsError> {
        let size = self.memory_manager().file_size(file)?;
        let (_start, amount) = clamp_io_range(offset, len, size);
        Ok(self.io.read_amount(file, size, amount).await)
    }

    /// Writes `len` bytes at `offset` through the page cache, creating the
    /// file or extending it to `offset + len` as needed. Range writes never
    /// shrink a file.
    pub async fn write_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, FsError> {
        self.reserve(file, offset, len)?;
        Ok(self.io.write_amount(file, len).await)
    }

    /// Grows `file` to cover a write of `len` bytes at `offset`, allocating
    /// the extra space on the disk, without simulating any I/O: the first
    /// step of [`CachedFileSystem::write_range`]. A writer that ships the
    /// data in chunks reserves the whole range first, so a full disk fails
    /// the write before any byte moves.
    pub fn reserve(&self, file: &FileId, offset: f64, len: f64) -> Result<(), FsError> {
        self.memory_manager().extend_file(file, offset, len)
    }

    /// Flushes the file's dirty cached data to disk synchronously (`fsync`).
    /// On this writeback filesystem the flush happens at disk bandwidth and
    /// the flushed data stays cached (clean).
    pub async fn fsync(&self, file: &FileId) -> Result<IoOpStats, FsError> {
        self.memory_manager().file_size(file)?;
        Ok(self.io.fsync(file).await)
    }

    /// Flushes all dirty cached data of the host to disk (`sync`).
    pub async fn sync(&self) -> IoOpStats {
        self.io.sync().await
    }
}

/// A filesystem that bypasses the page cache entirely: every read and write
/// is a disk access at disk bandwidth. This reproduces the behaviour of the
/// original (cacheless) WRENCH simulator the paper compares against.
///
/// Mounted remotely ([`DirectFileSystem::with_link`]), it is vanilla
/// WRENCH's cacheless NFS: every access also crosses the client–server
/// link, reads disk then link, writes link then disk.
#[derive(Clone)]
pub struct DirectFileSystem {
    ctx: SimContext,
    disk: Disk,
    link: Option<NetworkLink>,
    /// The file namespace: names and sizes, with no cache state.
    files: Rc<RefCell<FileTable<()>>>,
}

impl DirectFileSystem {
    /// Creates a direct (cacheless) filesystem on a local `disk`.
    pub fn new(ctx: &SimContext, disk: Disk) -> Self {
        DirectFileSystem {
            ctx: ctx.clone(),
            disk,
            link: None,
            files: Rc::default(),
        }
    }

    /// Mounts the filesystem over `link`: `disk` becomes the server's disk
    /// and every transfer also crosses the link.
    pub fn with_link(mut self, link: NetworkLink) -> Self {
        self.link = Some(link);
        self
    }

    /// The backing disk.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// The link the filesystem is mounted over, if remote.
    pub fn link(&self) -> Option<&NetworkLink> {
        self.link.as_ref()
    }

    /// Registers an existing file without simulating any I/O
    /// ([`FileTable::create`], allocating on the disk).
    pub fn create_file(&self, file: &FileId, size: f64) -> Result<(), FsError> {
        let files = &mut self.files.borrow_mut();
        files
            .create(file, size, |b| self.disk.allocate(b))
            .map(drop)
    }

    /// The size of `file`, or [`FsError::FileNotFound`].
    pub fn file_size(&self, file: &FileId) -> Result<f64, FsError> {
        self.files.borrow().size(file)
    }

    /// Every file and its size, in key order.
    pub fn list_files(&self) -> Vec<(FileId, f64)> {
        self.files.borrow().list()
    }

    /// Reads `len` bytes at `offset` directly from disk (no cache: every
    /// byte pays the disk bandwidth, then the link's if mounted remotely).
    pub async fn read_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, FsError> {
        let size = self.file_size(file)?;
        let (_start, amount) = clamp_io_range(offset, len, size);
        let start = self.ctx.now();
        if amount > 0.0 {
            self.disk.read(amount).await;
            if let Some(link) = &self.link {
                link.transfer(amount).await;
            }
        }
        Ok(IoOpStats {
            bytes_from_disk: amount,
            duration: self.ctx.now().duration_since(start),
            ..IoOpStats::default()
        })
    }

    /// Writes `len` bytes at `offset` directly to disk, creating or
    /// extending the file as needed (never shrinking it,
    /// [`FileTable::extend`]).
    pub async fn write_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, FsError> {
        self.files
            .borrow_mut()
            .extend(file, offset, len, |bytes| self.disk.allocate(bytes))?;
        self.write_amount(len).await
    }
    /// Ships `amount` bytes over the link (if mounted remotely), then
    /// writes them to disk; zero-length writes touch neither device.
    async fn write_amount(&self, amount: f64) -> Result<IoOpStats, FsError> {
        let start = self.ctx.now();
        if amount > 0.0 {
            if let Some(link) = &self.link {
                link.transfer(amount).await;
            }
            self.disk.write(amount).await;
        }
        Ok(IoOpStats {
            bytes_to_disk: amount,
            duration: self.ctx.now().duration_since(start),
            ..IoOpStats::default()
        })
    }

    /// `fsync` on the cacheless filesystem is a no-op: every write already
    /// went to disk synchronously.
    pub async fn fsync(&self, file: &FileId) -> Result<IoOpStats, FsError> {
        self.file_size(file)?;
        Ok(IoOpStats::default())
    }

    /// `sync` on the cacheless filesystem is a no-op (nothing is ever
    /// dirty).
    pub async fn sync(&self) -> IoOpStats {
        IoOpStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::Simulation;
    use pagecache::PageCacheConfig;
    use storage_model::{units::MB, DeviceSpec, MemoryDevice};

    const MEM_BW: f64 = 1000.0 * 1e6;
    const DISK_BW: f64 = 100.0 * 1e6;

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() < 1e-6 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    fn cached_fs(sim: &Simulation, memory_mb: f64, disk_capacity: f64) -> CachedFileSystem {
        let ctx = sim.context();
        let memory = MemoryDevice::new(&ctx, DeviceSpec::symmetric(MEM_BW, 0.0, f64::INFINITY));
        let disk = Disk::new(
            &ctx,
            "disk0",
            DeviceSpec::symmetric(DISK_BW, 0.0, disk_capacity),
        );
        let mm = MemoryManager::new(
            &ctx,
            PageCacheConfig::with_memory(memory_mb * MB),
            memory,
            disk.clone(),
        );
        CachedFileSystem::new(IoController::new(&ctx, mm))
    }

    #[test]
    fn cached_fs_read_write_and_cache_hit() {
        let sim = Simulation::new();
        let fs = cached_fs(&sim, 10_000.0, f64::INFINITY);
        fs.create_file(&"input".into(), 500.0 * MB).unwrap();
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                let cold = fs
                    .read_range(&"input".into(), 0.0, f64::INFINITY)
                    .await
                    .unwrap();
                let warm = fs
                    .read_range(&"input".into(), 0.0, f64::INFINITY)
                    .await
                    .unwrap();
                let write = fs
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
        assert!(fs.memory_manager().file_size(&"output".into()).is_ok());
        approx(fs.disk().used(), 800.0 * MB);
    }

    #[test]
    fn cached_fs_missing_file() {
        let sim = Simulation::new();
        let fs = cached_fs(&sim, 1_000.0, f64::INFINITY);
        let h = sim.spawn({
            let fs = fs.clone();
            async move { fs.read_range(&"nope".into(), 0.0, f64::INFINITY).await }
        });
        sim.run();
        assert!(matches!(
            h.try_take_result().unwrap(),
            Err(FsError::FileNotFound(_))
        ));
    }

    #[test]
    fn cached_fs_disk_full() {
        let sim = Simulation::new();
        let fs = cached_fs(&sim, 1_000.0, 100.0 * MB);
        assert!(matches!(
            fs.create_file(&"big".into(), 200.0 * MB),
            Err(FsError::DiskFull(_))
        ));
    }

    #[test]
    fn cached_fs_range_ops_and_fsync() {
        let sim = Simulation::new();
        let fs = cached_fs(&sim, 10_000.0, f64::INFINITY);
        fs.create_file(&"f".into(), 500.0 * MB).unwrap();
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                // Whole read, then a partial re-read: full cache hit.
                fs.read_range(&"f".into(), 0.0, f64::INFINITY)
                    .await
                    .unwrap();
                let partial = fs
                    .read_range(&"f".into(), 100.0 * MB, 200.0 * MB)
                    .await
                    .unwrap();
                // A range write extends the file and dirties the cache.
                let w = fs
                    .write_range(&"g".into(), 100.0 * MB, 50.0 * MB)
                    .await
                    .unwrap();
                let fsync = fs.fsync(&"g".into()).await.unwrap();
                let fsync_again = fs.fsync(&"g".into()).await.unwrap();
                let sync = fs.sync().await;
                (partial, w, fsync, fsync_again, sync)
            }
        });
        sim.run();
        let (partial, w, fsync, fsync_again, sync) = h.try_take_result().unwrap();
        approx(partial.bytes_from_cache, 200.0 * MB);
        approx(partial.bytes_from_disk, 0.0);
        approx(w.bytes_to_cache, 50.0 * MB);
        assert_eq!(fs.memory_manager().file_size(&"g".into()), Ok(150.0 * MB));
        approx(fs.disk().used(), 650.0 * MB);
        approx(fsync.bytes_to_disk, 50.0 * MB);
        approx(fsync_again.bytes_to_disk, 0.0);
        // fsync already cleaned everything, so a host-wide sync writes nothing.
        approx(sync.bytes_to_disk, 0.0);
        approx(fs.memory_manager().dirty(), 0.0);
    }

    #[test]
    fn cached_fs_range_read_clamps_to_file() {
        let sim = Simulation::new();
        let fs = cached_fs(&sim, 10_000.0, f64::INFINITY);
        fs.create_file(&"f".into(), 100.0 * MB).unwrap();
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                let tail = fs
                    .read_range(&"f".into(), 80.0 * MB, f64::INFINITY)
                    .await
                    .unwrap();
                let beyond = fs
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
    fn direct_fs_reads_and_writes_at_disk_bandwidth() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let disk = Disk::new(
            &ctx,
            "d0",
            DeviceSpec::symmetric(DISK_BW, 0.0, f64::INFINITY),
        );
        let fs = DirectFileSystem::new(&ctx, disk);
        fs.create_file(&"input".into(), 500.0 * MB).unwrap();
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                let r1 = fs
                    .read_range(&"input".into(), 0.0, f64::INFINITY)
                    .await
                    .unwrap();
                // A second read is just as slow: no cache.
                let r2 = fs
                    .read_range(&"input".into(), 0.0, f64::INFINITY)
                    .await
                    .unwrap();
                let w = fs
                    .write_range(&"out".into(), 0.0, 200.0 * MB)
                    .await
                    .unwrap();
                (r1, r2, w)
            }
        });
        sim.run();
        let (r1, r2, w) = h.try_take_result().unwrap();
        approx(r1.duration, 5.0);
        approx(r2.duration, 5.0);
        approx(r1.bytes_from_disk, 500.0 * MB);
        approx(w.duration, 2.0);
        approx(w.bytes_to_disk, 200.0 * MB);
        approx(fs.disk().used(), 700.0 * MB);
    }
}
