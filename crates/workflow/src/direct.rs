//! The cacheless filesystem: the behaviour of vanilla WRENCH, local or
//! mounted over an NFS link.

use std::cell::RefCell;
use std::rc::Rc;

use des::SimContext;
use pagecache::{clamp_io_range, FileId, FileTable, FsError, IoOpStats};
use storage_model::{Disk, NetworkLink};

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
        self.files.borrow().size(file).map(|(_, size)| size)
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
    use storage_model::{units::MB, DeviceSpec};

    const DISK_BW: f64 = 100.0 * 1e6;

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() < 1e-6 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
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
