//! Concrete simulated devices built on [`SharedResource`]: disks, the memory
//! bus, and network links.
//!
//! Each device has separate read and write channels so asymmetric bandwidths
//! can be modelled (the paper notes SimGrid 3.25 only supported symmetric
//! bandwidths and had to average them; we support both, and the experiment
//! configurations choose which to use).

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

use des::SimContext;

use crate::resource::{SharedResource, SharingPolicy};

/// Describes the performance and capacity of a storage or memory device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// Read bandwidth in bytes per second.
    pub read_bandwidth: f64,
    /// Write bandwidth in bytes per second.
    pub write_bandwidth: f64,
    /// Fixed per-operation latency in seconds.
    pub latency: f64,
    /// Usable capacity in bytes (`f64::INFINITY` for "unbounded").
    pub capacity: f64,
    /// How concurrent transfers share the device.
    pub sharing: SharingPolicy,
}

impl DeviceSpec {
    /// Creates a spec with symmetric read/write bandwidth, as used by the
    /// paper's simulators ("the mean of the measured read and write
    /// bandwidths").
    pub fn symmetric(bandwidth: f64, latency: f64, capacity: f64) -> Self {
        DeviceSpec {
            read_bandwidth: bandwidth,
            write_bandwidth: bandwidth,
            latency,
            capacity,
            sharing: SharingPolicy::FairShare,
        }
    }

    /// Creates a spec with distinct read and write bandwidths, as measured on
    /// the real cluster (Table III, "Cluster (real)" column).
    pub fn asymmetric(
        read_bandwidth: f64,
        write_bandwidth: f64,
        latency: f64,
        capacity: f64,
    ) -> Self {
        DeviceSpec {
            read_bandwidth,
            write_bandwidth,
            latency,
            capacity,
            sharing: SharingPolicy::FairShare,
        }
    }

    /// Disables bandwidth sharing on this device (every transfer gets the
    /// full bandwidth), reproducing the paper's Python prototype model.
    pub fn without_contention(mut self) -> Self {
        self.sharing = SharingPolicy::Unlimited;
        self
    }
}

/// Error returned when a disk does not have enough free capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskFullError {
    /// Name of the disk that rejected the allocation.
    pub disk: String,
    /// Bytes that were requested.
    pub requested: f64,
    /// Bytes that were available.
    pub available: f64,
}

impl fmt::Display for DiskFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "disk '{}' is full: requested {} bytes but only {} bytes are free",
            self.disk, self.requested, self.available
        )
    }
}

impl std::error::Error for DiskFullError {}

/// A simulated disk: bandwidth-shared read and write channels plus capacity
/// accounting.
#[derive(Clone)]
pub struct Disk {
    name: String,
    read: SharedResource,
    write: SharedResource,
    capacity: f64,
    used: Rc<Cell<f64>>,
}

impl Disk {
    /// Creates a disk from a [`DeviceSpec`].
    pub fn new(ctx: &SimContext, name: impl Into<String>, spec: DeviceSpec) -> Self {
        let name = name.into();
        Disk {
            read: SharedResource::with_policy(
                ctx,
                format!("{name}.read"),
                spec.read_bandwidth,
                spec.latency,
                spec.sharing,
            ),
            write: SharedResource::with_policy(
                ctx,
                format!("{name}.write"),
                spec.write_bandwidth,
                spec.latency,
                spec.sharing,
            ),
            capacity: spec.capacity,
            used: Rc::new(Cell::new(0.0)),
            name,
        }
    }

    /// Disk name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reads `bytes` from the disk, sharing read bandwidth with concurrent
    /// readers.
    pub async fn read(&self, bytes: f64) {
        self.read.transfer(bytes).await;
    }

    /// Writes `bytes` to the disk, sharing write bandwidth with concurrent
    /// writers.
    pub async fn write(&self, bytes: f64) {
        self.write.transfer(bytes).await;
    }

    /// The read channel (for inspection or direct composition).
    pub fn read_channel(&self) -> &SharedResource {
        &self.read
    }

    /// The write channel (for inspection or direct composition).
    pub fn write_channel(&self) -> &SharedResource {
        &self.write
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Bytes currently allocated on the disk.
    pub fn used(&self) -> f64 {
        self.used.get()
    }

    /// Bytes still free on the disk.
    pub fn available(&self) -> f64 {
        (self.capacity - self.used.get()).max(0.0)
    }

    /// Reserves space for a file. Call before writing new data.
    pub fn allocate(&self, bytes: f64) -> Result<(), DiskFullError> {
        if bytes <= self.available() {
            self.used.set(self.used.get() + bytes);
            Ok(())
        } else {
            Err(DiskFullError {
                disk: self.name.clone(),
                requested: bytes,
                available: self.available(),
            })
        }
    }

    /// Time an uncontended read of `bytes` would take.
    pub fn ideal_read_time(&self, bytes: f64) -> f64 {
        self.read.ideal_time(bytes)
    }

    /// Time an uncontended write of `bytes` would take.
    pub fn ideal_write_time(&self, bytes: f64) -> f64 {
        self.write.ideal_time(bytes)
    }

    /// Total bytes read since the start of the simulation.
    pub fn total_bytes_read(&self) -> f64 {
        self.read.total_bytes()
    }

    /// Total bytes written since the start of the simulation.
    pub fn total_bytes_written(&self) -> f64 {
        self.write.total_bytes()
    }

    /// Transfers completed on both channels.
    pub fn completed_flows(&self) -> u64 {
        self.read.completed_flows() + self.write.completed_flows()
    }
}

/// The memory bus: cache hits and cache writes move data at memory bandwidth.
#[derive(Clone)]
pub struct MemoryDevice {
    read: SharedResource,
    write: SharedResource,
}

impl MemoryDevice {
    /// Creates the memory bus from a [`DeviceSpec`] (capacity is ignored here;
    /// the page cache's `MemoryManager` owns capacity accounting).
    pub fn new(ctx: &SimContext, spec: DeviceSpec) -> Self {
        MemoryDevice {
            read: SharedResource::with_policy(
                ctx,
                "memory.read",
                spec.read_bandwidth,
                spec.latency,
                spec.sharing,
            ),
            write: SharedResource::with_policy(
                ctx,
                "memory.write",
                spec.write_bandwidth,
                spec.latency,
                spec.sharing,
            ),
        }
    }

    /// Reads `bytes` from memory (a page-cache hit).
    pub async fn read(&self, bytes: f64) {
        self.read.transfer(bytes).await;
    }

    /// Writes `bytes` to memory (writing into the page cache).
    pub async fn write(&self, bytes: f64) {
        self.write.transfer(bytes).await;
    }

    /// The read channel.
    pub fn read_channel(&self) -> &SharedResource {
        &self.read
    }

    /// The write channel.
    pub fn write_channel(&self) -> &SharedResource {
        &self.write
    }

    /// Time an uncontended memory read of `bytes` would take.
    pub fn ideal_read_time(&self, bytes: f64) -> f64 {
        self.read.ideal_time(bytes)
    }

    /// Time an uncontended memory write of `bytes` would take.
    pub fn ideal_write_time(&self, bytes: f64) -> f64 {
        self.write.ideal_time(bytes)
    }

    /// Transfers completed on both channels.
    pub fn completed_flows(&self) -> u64 {
        self.read.completed_flows() + self.write.completed_flows()
    }
}

/// A network link connecting two hosts (e.g. NFS client and server).
///
/// Modelled as a single shared channel: concurrent transfers in either
/// direction share the link bandwidth, which matches the paper's symmetric
/// 25 Gbps cluster interconnect.
#[derive(Clone)]
pub struct NetworkLink {
    link: SharedResource,
}

impl NetworkLink {
    /// Creates a link with the given bandwidth (bytes/s) and latency (s).
    pub fn new(ctx: &SimContext, name: impl Into<String>, bandwidth: f64, latency: f64) -> Self {
        NetworkLink {
            link: SharedResource::new(ctx, name, bandwidth, latency),
        }
    }

    /// Wraps an existing shared channel as a link, e.g. a `NetworkLink` view
    /// of a link owned by the network fabric.
    pub fn from_channel(link: SharedResource) -> Self {
        NetworkLink { link }
    }

    /// Sends `bytes` across the link.
    pub async fn transfer(&self, bytes: f64) {
        self.link.transfer(bytes).await;
    }

    /// Time an uncontended transfer of `bytes` would take.
    pub fn ideal_time(&self, bytes: f64) -> f64 {
        self.link.ideal_time(bytes)
    }

    /// Transfers completed on the link.
    pub fn completed_flows(&self) -> u64 {
        self.link.completed_flows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{GB, MB};
    use des::Simulation;

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() < 1e-6 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn disk_read_write_times_follow_spec() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let disk = Disk::new(
            &ctx,
            "ssd0",
            DeviceSpec::asymmetric(500.0 * MB, 250.0 * MB, 0.0, GB),
        );
        let h = sim.spawn({
            let disk = disk.clone();
            let ctx = ctx.clone();
            async move {
                disk.read(500.0 * MB).await;
                let t_read = ctx.now().as_secs();
                disk.write(500.0 * MB).await;
                (t_read, ctx.now().as_secs())
            }
        });
        sim.run();
        let (t_read, t_end) = h.try_take_result().unwrap();
        approx(t_read, 1.0);
        approx(t_end - t_read, 2.0);
    }

    #[test]
    fn disk_reads_and_writes_do_not_contend_with_each_other() {
        // Separate channels: a concurrent read and write each run at full
        // bandwidth.
        let sim = Simulation::new();
        let ctx = sim.context();
        let disk = Disk::new(&ctx, "ssd0", DeviceSpec::symmetric(100.0 * MB, 0.0, GB));
        let r = sim.spawn({
            let disk = disk.clone();
            let ctx = ctx.clone();
            async move {
                disk.read(100.0 * MB).await;
                ctx.now().as_secs()
            }
        });
        let w = sim.spawn({
            let disk = disk.clone();
            let ctx = ctx.clone();
            async move {
                disk.write(100.0 * MB).await;
                ctx.now().as_secs()
            }
        });
        sim.run();
        approx(r.try_take_result().unwrap(), 1.0);
        approx(w.try_take_result().unwrap(), 1.0);
    }

    #[test]
    fn disk_capacity_accounting() {
        let sim = Simulation::new();
        let disk = Disk::new(
            &sim.context(),
            "ssd0",
            DeviceSpec::symmetric(100.0 * MB, 0.0, 10.0 * GB),
        );
        assert_eq!(disk.available(), 10.0 * GB);
        disk.allocate(4.0 * GB).unwrap();
        assert_eq!(disk.used(), 4.0 * GB);
        let err = disk.allocate(7.0 * GB).unwrap_err();
        assert_eq!(err.disk, "ssd0");
        assert!(err.to_string().contains("is full"));
        // A failed allocation reserves nothing.
        assert_eq!(disk.used(), 4.0 * GB);
        disk.allocate(6.0 * GB).unwrap();
        assert_eq!(disk.available(), 0.0);
    }

    #[test]
    fn memory_device_transfers() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let mem = MemoryDevice::new(&ctx, DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY));
        let h = sim.spawn({
            let mem = mem.clone();
            let ctx = ctx.clone();
            async move {
                mem.read(4812.0 * MB).await;
                mem.write(2.0 * 4812.0 * MB).await;
                ctx.now().as_secs()
            }
        });
        sim.run();
        approx(h.try_take_result().unwrap(), 3.0);
    }

    #[test]
    fn network_link_shares_bandwidth_between_directions() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let link = NetworkLink::new(&ctx, "eth0", 100.0 * MB, 0.0);
        let a = sim.spawn({
            let link = link.clone();
            let ctx = ctx.clone();
            async move {
                link.transfer(100.0 * MB).await;
                ctx.now().as_secs()
            }
        });
        let b = sim.spawn({
            let link = link.clone();
            let ctx = ctx.clone();
            async move {
                link.transfer(100.0 * MB).await;
                ctx.now().as_secs()
            }
        });
        sim.run();
        approx(a.try_take_result().unwrap(), 2.0);
        approx(b.try_take_result().unwrap(), 2.0);
    }

    #[test]
    fn ideal_times() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let disk = Disk::new(&ctx, "d", DeviceSpec::asymmetric(200.0, 100.0, 0.5, GB));
        approx(disk.ideal_read_time(1000.0), 5.5);
        approx(disk.ideal_write_time(1000.0), 10.5);
        let link = NetworkLink::new(&ctx, "n", 1000.0, 0.1);
        approx(link.ideal_time(500.0), 0.6);
    }
}
