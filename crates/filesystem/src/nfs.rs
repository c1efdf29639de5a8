//! NFS model: a client host accessing files stored on a remote server over a
//! network link (paper Exp 3).
//!
//! The configuration follows §III-D of the paper, which mirrors common HPC
//! deployments:
//!
//! * there is **no client write cache** — writes travel over the network and
//!   are written through on the server;
//! * the **server cache is writethrough**: written data is persisted to the
//!   server disk synchronously but stays in the server's page cache, so later
//!   reads can hit it;
//! * **read caches are enabled on both sides**: data read by the client is
//!   added to the client's page cache, and data read from the server disk is
//!   added to the server's page cache.

use std::convert::Infallible;

use des::SimContext;
use pagecache::{
    check_write_range, FileId, FsError, IoController, IoOpStats, MemoryManager, DEFAULT_CHUNK_SIZE,
    EPSILON,
};
use storage_model::{Disk, NetworkLink};

use crate::local::extend_for_write;
use crate::registry::FileRegistry;

/// The NFS server: a remote host with a disk and a (writethrough) page
/// cache, driven by its own I/O controller.
#[derive(Clone)]
pub struct NfsServer {
    io: IoController,
}

impl NfsServer {
    /// Creates a server from its I/O controller, whose Memory Manager is
    /// normally configured in writethrough mode and whose disk stores the
    /// files.
    pub fn new(io: IoController) -> Self {
        NfsServer { io }
    }

    /// The server's Memory Manager.
    pub fn memory_manager(&self) -> &MemoryManager {
        self.io.memory_manager()
    }

    /// The server's disk.
    pub fn disk(&self) -> &Disk {
        self.io.memory_manager().disk()
    }

    /// Serves `amount` bytes of a read of `file` (whose full size is
    /// `file_size`) with the controller's read step: data cached on the
    /// server is read from memory, the rest from the server disk (and added
    /// to the server read cache). The server keeps no copy of the data it
    /// sends. Returns `(from_disk, from_cache)`.
    pub async fn serve_read(&self, file: &FileId, file_size: f64, amount: f64) -> (f64, f64) {
        let mut stats = IoOpStats::default();
        self.io
            .read_chunk(file, file_size, amount, false, &mut stats)
            .await;
        (stats.bytes_from_disk, stats.bytes_from_cache)
    }

    /// Serves a writethrough write of `amount` bytes: synchronous disk write,
    /// then the data is kept in the server cache as clean data.
    pub async fn serve_write(&self, file: &FileId, amount: f64) {
        self.io.write_chunk_writethrough(file, amount).await;
    }
}

/// An NFS-mounted filesystem as seen from the client host.
#[derive(Clone)]
pub struct NfsFileSystem {
    ctx: SimContext,
    link: NetworkLink,
    server: NfsServer,
    client_io: IoController,
    registry: FileRegistry,
    chunk_size: f64,
}

impl NfsFileSystem {
    /// Creates an NFS mount: `client_mm` is the client's Memory Manager (used
    /// only as a read cache), `link` the network between client and server.
    pub fn new(
        ctx: &SimContext,
        client_mm: MemoryManager,
        link: NetworkLink,
        server: NfsServer,
    ) -> Self {
        NfsFileSystem {
            ctx: ctx.clone(),
            link,
            server,
            client_io: IoController::new(ctx, client_mm),
            registry: FileRegistry::new(),
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }

    /// Overrides the chunk size used for network requests.
    pub fn with_chunk_size(mut self, chunk_size: f64) -> Self {
        assert!(chunk_size > 0.0, "chunk size must be positive");
        self.chunk_size = chunk_size;
        self
    }

    /// The client-side Memory Manager (read cache and anonymous memory).
    pub fn client_memory_manager(&self) -> &MemoryManager {
        self.client_io.memory_manager()
    }

    /// The server.
    pub fn server(&self) -> &NfsServer {
        &self.server
    }

    /// The network link.
    pub fn link(&self) -> &NetworkLink {
        &self.link
    }

    /// The file registry of the mount.
    pub fn registry(&self) -> &FileRegistry {
        &self.registry
    }

    /// Registers a pre-existing file on the server without simulating I/O.
    /// Rejects the sizes [`check_write_range`] rejects as lengths.
    pub fn create_file(&self, file: &FileId, size: f64) -> Result<(), FsError> {
        check_write_range(0.0, size)?;
        self.registry
            .create(file, size, |bytes| self.server.disk().allocate(bytes))
    }

    /// Reads `len` bytes at `offset` over NFS (`len = f64::INFINITY` reads
    /// to end of file). Client-cached data is read from client memory; the
    /// rest is served by the server (from its cache or disk) and travels
    /// over the network, after which it enters the client read cache. Both
    /// caches are amount-based (macroscopic model), so a partial re-read is
    /// served client-side for up to `min(len, client_cached)` bytes.
    pub async fn read_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, FsError> {
        let size = self.registry.size(file)?;
        let (_start, amount) = pagecache::clamp_io_range(offset, len, size);
        let start = self.ctx.now();
        let mut stats = IoOpStats::default();
        let mut remaining = amount;
        while remaining > EPSILON {
            let chunk = remaining.min(self.chunk_size);
            // The client is an application host: Algorithm 2 with the server
            // (its cache or disk, then the network) as the source.
            let Ok(()) = self
                .client_io
                .read_chunk_via(file, size, chunk, true, &mut stats, |amount| async move {
                    let (from_disk, from_cache) = self.server.serve_read(file, size, amount).await;
                    self.link.transfer(amount).await;
                    Ok::<_, Infallible>(IoOpStats {
                        bytes_from_disk: from_disk,
                        bytes_from_cache: from_cache,
                        ..IoOpStats::default()
                    })
                })
                .await;
            remaining -= chunk;
        }
        stats.duration = self.ctx.now().duration_since(start);
        Ok(stats)
    }

    /// Writes `len` bytes at `offset` over NFS, creating the file or
    /// extending it to `offset + len` as needed (never shrinking it). The
    /// data travels over the network and is written through on the server
    /// (no client write cache).
    pub async fn write_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, FsError> {
        extend_for_write(&self.registry, self.server.disk(), file, offset, len)?;
        Ok(self.write_amount(file, len).await)
    }

    async fn write_amount(&self, file: &FileId, amount: f64) -> IoOpStats {
        let start = self.ctx.now();
        let mut stats = IoOpStats::default();
        let mut remaining = amount;
        while remaining > EPSILON {
            let chunk = remaining.min(self.chunk_size);
            self.link.transfer(chunk).await;
            self.server.serve_write(file, chunk).await;
            stats.bytes_to_disk += chunk;
            remaining -= chunk;
        }
        stats.duration = self.ctx.now().duration_since(start);
        stats
    }

    /// `fsync` over this NFS mount is a no-op: there is no client write
    /// cache and the server cache is writethrough, so every written byte is
    /// already persistent on the server disk when the write returns.
    pub async fn fsync(&self, file: &FileId) -> Result<IoOpStats, FsError> {
        self.registry.size(file)?;
        Ok(IoOpStats::default())
    }

    /// `sync` is likewise a no-op on this writethrough mount.
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
    const NET_BW: f64 = 500.0 * 1e6;

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() < 1e-6 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    fn setup(client_mem_mb: f64, server_mem_mb: f64) -> (Simulation, NfsFileSystem) {
        let sim = Simulation::new();
        let ctx = sim.context();
        let client_memory =
            MemoryDevice::new(&ctx, DeviceSpec::symmetric(MEM_BW, 0.0, f64::INFINITY));
        // The client never flushes (read cache only); its "disk" is unused but
        // required by the MemoryManager constructor.
        let client_disk = Disk::new(
            &ctx,
            "client-disk",
            DeviceSpec::symmetric(DISK_BW, 0.0, f64::INFINITY),
        );
        let client_mm = MemoryManager::new(
            &ctx,
            PageCacheConfig::with_memory(client_mem_mb * MB),
            client_memory,
            client_disk,
        );
        let server_memory =
            MemoryDevice::new(&ctx, DeviceSpec::symmetric(MEM_BW, 0.0, f64::INFINITY));
        let server_disk = Disk::new(
            &ctx,
            "server-disk",
            DeviceSpec::symmetric(DISK_BW, 0.0, f64::INFINITY),
        );
        let server_mm = MemoryManager::new(
            &ctx,
            PageCacheConfig::with_memory(server_mem_mb * MB).writethrough(),
            server_memory,
            server_disk,
        );
        let server = NfsServer::new(IoController::new(&ctx, server_mm));
        let link = NetworkLink::new(&ctx, "eth0", NET_BW, 0.0);
        let fs = NfsFileSystem::new(&ctx, client_mm, link, server);
        (sim, fs)
    }

    #[test]
    fn cold_read_hits_server_disk_and_network() {
        let (sim, fs) = setup(10_000.0, 10_000.0);
        fs.create_file(&"f".into(), 500.0 * MB).unwrap();
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
        approx(stats.bytes_from_disk, 500.0 * MB);
        // server disk (5 s) + network (1 s); chunked sequentially.
        approx(stats.duration, 6.0);
        // Both caches now hold the file.
        approx(
            fs.client_memory_manager().cached_amount(&"f".into()),
            500.0 * MB,
        );
        approx(
            fs.server().memory_manager().cached_amount(&"f".into()),
            500.0 * MB,
        );
    }

    #[test]
    fn second_read_hits_client_cache_without_network() {
        let (sim, fs) = setup(10_000.0, 10_000.0);
        fs.create_file(&"f".into(), 500.0 * MB).unwrap();
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                fs.read_range(&"f".into(), 0.0, f64::INFINITY)
                    .await
                    .unwrap();
                let net_before = fs.link().channel().total_bytes();
                let warm = fs
                    .read_range(&"f".into(), 0.0, f64::INFINITY)
                    .await
                    .unwrap();
                (warm, fs.link().channel().total_bytes() - net_before)
            }
        });
        sim.run();
        let (warm, net_bytes) = h.try_take_result().unwrap();
        approx(warm.bytes_from_cache, 500.0 * MB);
        approx(net_bytes, 0.0);
        approx(warm.duration, 0.5); // client memory bandwidth only
    }

    #[test]
    fn write_is_writethrough_and_populates_server_cache_only() {
        let (sim, fs) = setup(10_000.0, 10_000.0);
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                fs.write_range(&"out".into(), 0.0, 300.0 * MB)
                    .await
                    .unwrap()
            }
        });
        sim.run();
        let stats = h.try_take_result().unwrap();
        approx(stats.bytes_to_disk, 300.0 * MB);
        // network (0.6 s) + server disk (3 s), sequential per chunk.
        approx(stats.duration, 3.6);
        // No dirty data anywhere; no client cache for writes.
        approx(fs.server().memory_manager().dirty(), 0.0);
        approx(
            fs.server().memory_manager().cached_amount(&"out".into()),
            300.0 * MB,
        );
        approx(fs.client_memory_manager().cached_amount(&"out".into()), 0.0);
        approx(fs.server().disk().used(), 300.0 * MB);
    }

    #[test]
    fn read_after_write_hits_server_cache_not_disk() {
        let (sim, fs) = setup(10_000.0, 10_000.0);
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                fs.write_range(&"out".into(), 0.0, 300.0 * MB)
                    .await
                    .unwrap();
                let disk_before = fs.server().disk().total_bytes_read();
                let r = fs
                    .read_range(&"out".into(), 0.0, f64::INFINITY)
                    .await
                    .unwrap();
                (r, fs.server().disk().total_bytes_read() - disk_before)
            }
        });
        sim.run();
        let (r, disk_read) = h.try_take_result().unwrap();
        approx(disk_read, 0.0);
        approx(r.bytes_from_cache, 300.0 * MB);
        approx(r.bytes_from_disk, 0.0);
    }

    #[test]
    fn missing_file() {
        let (sim, fs) = setup(1_000.0, 1_000.0);
        let h = sim.spawn({
            let fs = fs.clone();
            async move { fs.read_range(&"missing".into(), 0.0, f64::INFINITY).await }
        });
        sim.run();
        assert!(matches!(
            h.try_take_result().unwrap(),
            Err(FsError::FileNotFound(_))
        ));
    }

    #[test]
    fn small_server_memory_limits_server_cache() {
        // Server has 200 MB of RAM; a 500 MB file cannot be fully cached.
        let (sim, fs) = setup(10_000.0, 200.0);
        let h = sim.spawn({
            let fs = fs.clone();
            async move {
                fs.write_range(&"big".into(), 0.0, 500.0 * MB)
                    .await
                    .unwrap()
            }
        });
        sim.run();
        assert!(h.is_finished());
        assert!(fs.server().memory_manager().cached() <= 200.0 * MB + 1.0);
        fs.server().memory_manager().check_invariants().unwrap();
    }
}
