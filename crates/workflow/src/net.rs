//! Fault-tolerant network tier: a simulated link fabric plus a replicated
//! storage fleet.
//!
//! This module models remote storage as a *fabric* of named hosts and
//! shared links, and builds on it a **replicated storage fleet**: `N`
//! client hosts (each with a private page cache) talking to `M` storage
//! servers (each with its own page cache and disk), with files placed on
//! `R` replicas by a stable hash of the file name. Each client and server
//! is a page-cached host, an [`IoController`].
//!
//! A cached NFS mount (the paper's Exp 3, [`crate::StorageKind::Nfs`]) is
//! this fleet with one client, one server and one replica, whose server
//! cache is writethrough; the servers of a [`crate::StorageKind::Fleet`]
//! platform are write-back.
//!
//! ## Topology
//!
//! The fleet uses a star topology: each server owns one ingress link
//! (modelling its NIC as the shared bottleneck) and every client routes to
//! the server through that link, so concurrent requests from many clients to
//! one server share its bandwidth fairly ([`storage_model::SharedResource`])
//! and pay the link latency per transfer. A fabric link is the same shared
//! channel as the plain [`storage_model::NetworkLink`] of the cacheless NFS
//! back-end, so a one-link fabric times transfers identically.
//!
//! ## Faults
//!
//! The fabric exposes the mutations the fault plan drives
//! ([`crate::faults::FaultEvent::LinkDown`],
//! [`crate::faults::FaultEvent::Partition`],
//! [`crate::faults::FaultEvent::ServerCrash`]): links can be taken down (and
//! back up — takedowns nest), hosts can be partitioned into groups that
//! cannot reach each other, and whole hosts can be marked down. Each
//! mutation aborts matching in-flight transfers immediately; later attempts
//! fail fast with a structured [`NetError`].
//!
//! ## Client robustness
//!
//! Clients run a [`ClientPolicy`]: per-request timeouts, exponential backoff
//! retries (reusing [`RetryPolicy`]), optional hedged reads, and read
//! failover across the replica ring. When the policy is exhausted the
//! operation fails *degraded* — surfaced as an injected
//! [`crate::faults::InjectedFaultKind::Network`] fault the runner records as
//! a failed task — rather than hanging or panicking. Writes go to every
//! replica (primary first); a write succeeds if at least one replica accepts
//! it, and replicas that missed it serve *stale* reads (counted in
//! [`NetReport`]) until they catch up via a later write. A server-side
//! filesystem error (a full disk) is not a network fault: it is not
//! retried, and a write no replica accepted fails with the first replica's
//! [`pagecache::FsError`].
//!
//! Consistency is close-to-open-flavoured: a successful write invalidates
//! the writer's own read cache, and every read is tagged with the version of
//! the replica that served it; serving a version older than the latest
//! successful write counts as a stale read.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::future::Future;
use std::rc::Rc;

use des::{select2, Either, SimContext};
use pagecache::{
    check_write_range, clamp_io_range, CacheCounters, FileId, FileTable, FsError, IoController,
    IoOpStats, MemoryManager, PageCacheConfig, WriteMode, EPSILON,
};
use storage_model::{AbortHandle, Disk, MemoryDevice, SharedResource, TransferOutcome};

use crate::backend::{crash_cached, host_profile, ScenarioError};
use crate::faults::{
    CrashReport, FileDurability, InjectedFault, InjectedFaultKind, OpClass, RetryPolicy,
};
use crate::platform::{DeviceSet, PlatformSpec, StorageKind};
use crate::report::ProfileStats;

/// Why a network operation could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// The named link is down.
    LinkDown(String),
    /// Source and destination are in different partition groups.
    Partitioned,
    /// The named host is down (crashed or severed by a fault).
    HostDown(String),
    /// No route exists between the two hosts.
    NoRoute {
        /// Source host.
        from: String,
        /// Destination host.
        to: String,
    },
    /// The request exceeded the client's per-request timeout.
    TimedOut {
        /// The timeout that fired, in seconds.
        after: f64,
    },
    /// The server could not serve the request (it holds no replica of the
    /// file).
    ServerUnavailable(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::LinkDown(link) => write!(f, "link '{link}' is down"),
            NetError::Partitioned => write!(f, "hosts are in different network partitions"),
            NetError::HostDown(host) => write!(f, "host '{host}' is down"),
            NetError::NoRoute { from, to } => write!(f, "no route from '{from}' to '{to}'"),
            NetError::TimedOut { after } => write!(f, "request timed out after {after} s"),
            NetError::ServerUnavailable(host) => {
                write!(f, "server '{host}' could not serve the request")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Why a write to one replica failed: the network (retried under the
/// client policy) or the server's filesystem (final, e.g. a full disk).
enum ReplicaWriteError {
    Net,
    Server(FsError),
}

impl From<NetError> for ReplicaWriteError {
    fn from(_: NetError) -> Self {
        ReplicaWriteError::Net
    }
}

struct LinkState {
    name: Rc<str>,
    channel: SharedResource,
    /// Nesting depth of `set_link_down` calls; the link carries traffic only
    /// at depth zero.
    down: Cell<u32>,
}

/// One direction of a route. Cloning bumps reference counts: a route
/// lookup and an in-flight entry allocate nothing.
#[derive(Clone)]
struct Route {
    from: Rc<str>,
    to: Rc<str>,
    link: Rc<LinkState>,
}

/// One host's routes, by destination host.
type RoutesFrom = BTreeMap<Rc<str>, Route>;

struct InflightEntry {
    route: Route,
    handle: AbortHandle,
}

struct FabricInner {
    ctx: SimContext,
    hosts: RefCell<BTreeSet<String>>,
    links: RefCell<BTreeMap<String, Rc<LinkState>>>,
    /// `from -> to -> route`, keyed so that a lookup borrows the host
    /// names; both directions are inserted by `add_route`.
    routes: RefCell<BTreeMap<Rc<str>, RoutesFrom>>,
    partitions: RefCell<Vec<(u64, Vec<Vec<String>>)>>,
    down_hosts: RefCell<BTreeSet<String>>,
    inflight: RefCell<BTreeMap<u64, InflightEntry>>,
    next_id: Cell<u64>,
}

/// Removes the in-flight bookkeeping entry even when the transfer future is
/// dropped mid-flight (timed-out or hedged-away requests).
struct InflightGuard {
    fabric: Rc<FabricInner>,
    id: u64,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.fabric.inflight.borrow_mut().remove(&self.id);
    }
}

/// A simulated network fabric: named hosts, shared links (fair bandwidth
/// sharing plus per-link latency), and a routing table. Cloning shares the
/// fabric.
#[derive(Clone)]
pub struct Fabric {
    inner: Rc<FabricInner>,
}

impl Fabric {
    /// Creates an empty fabric.
    pub fn new(ctx: &SimContext) -> Self {
        Fabric {
            inner: Rc::new(FabricInner {
                ctx: ctx.clone(),
                hosts: RefCell::new(BTreeSet::new()),
                links: RefCell::new(BTreeMap::new()),
                routes: RefCell::new(BTreeMap::new()),
                partitions: RefCell::new(Vec::new()),
                down_hosts: RefCell::new(BTreeSet::new()),
                inflight: RefCell::new(BTreeMap::new()),
                next_id: Cell::new(0),
            }),
        }
    }

    /// Registers a host.
    pub fn add_host(&self, name: impl Into<String>) {
        self.inner.hosts.borrow_mut().insert(name.into());
    }

    /// Registers a shared link with the given bandwidth (bytes/s) and
    /// latency (s).
    pub fn add_link(&self, name: impl Into<String>, bandwidth: f64, latency: f64) {
        let name = name.into();
        let channel = SharedResource::new(&self.inner.ctx, name.clone(), bandwidth, latency);
        let state = Rc::new(LinkState {
            name: Rc::from(name.as_str()),
            channel,
            down: Cell::new(0),
        });
        self.inner.links.borrow_mut().insert(name, state);
    }

    /// Routes traffic between two hosts (both directions) over a link.
    ///
    /// # Panics
    /// Panics if either host or the link has not been registered — routes
    /// are simulation configuration, so a dangling name is a programming
    /// error.
    pub fn add_route(&self, a: impl Into<String>, b: impl Into<String>, link: impl Into<String>) {
        let (a, b, link) = (a.into(), b.into(), link.into());
        {
            let hosts = self.inner.hosts.borrow();
            assert!(hosts.contains(&a), "unknown host '{a}'");
            assert!(hosts.contains(&b), "unknown host '{b}'");
        }
        let link = Rc::clone(
            self.inner
                .links
                .borrow()
                .get(&link)
                .unwrap_or_else(|| panic!("unknown link '{link}'")),
        );
        let (a, b): (Rc<str>, Rc<str>) = (a.into(), b.into());
        let mut routes = self.inner.routes.borrow_mut();
        for (from, to) in [(&a, &b), (&b, &a)] {
            let route = Route {
                from: Rc::clone(from),
                to: Rc::clone(to),
                link: Rc::clone(&link),
            };
            routes
                .entry(Rc::clone(from))
                .or_default()
                .insert(Rc::clone(to), route);
        }
    }

    /// The shared channel behind a link, if registered. Lets other models
    /// reuse a fabric-owned link directly (e.g. as a
    /// [`storage_model::NetworkLink`]).
    pub fn link_channel(&self, name: &str) -> Option<SharedResource> {
        self.inner
            .links
            .borrow()
            .get(name)
            .map(|l| l.channel.clone())
    }

    /// Checks whether `from` can currently reach `to`.
    pub fn check_path(&self, from: &str, to: &str) -> Result<(), NetError> {
        self.route(from, to).map(|_| ())
    }

    /// The route from `from` to `to` if it can carry traffic now. Allocates
    /// only for the error it returns.
    fn route(&self, from: &str, to: &str) -> Result<Route, NetError> {
        {
            let down = self.inner.down_hosts.borrow();
            if down.contains(from) {
                return Err(NetError::HostDown(from.to_string()));
            }
            if down.contains(to) {
                return Err(NetError::HostDown(to.to_string()));
            }
        }
        for (_, groups) in self.inner.partitions.borrow().iter() {
            let side = |host: &str| groups.iter().position(|g| g.iter().any(|h| h == host));
            if let (Some(a), Some(b)) = (side(from), side(to)) {
                if a != b {
                    return Err(NetError::Partitioned);
                }
            }
        }
        let route = self
            .inner
            .routes
            .borrow()
            .get(from)
            .and_then(|dests| dests.get(to))
            .cloned()
            .ok_or_else(|| NetError::NoRoute {
                from: from.to_string(),
                to: to.to_string(),
            })?;
        if route.link.down.get() > 0 {
            return Err(NetError::LinkDown(route.link.name.to_string()));
        }
        Ok(route)
    }

    /// Transfers `bytes` from `from` to `to`. Fails fast if no path exists,
    /// and fails mid-flight (with the then-current path error) if a fault
    /// takes the link or either host down while the transfer is running.
    pub async fn transfer(&self, from: &str, to: &str, bytes: f64) -> Result<(), NetError> {
        let route = self.route(from, to)?;
        let (fut, handle) = route.link.channel.transfer_abortable(bytes);
        let link = Rc::clone(&route.link);
        let id = self.inner.next_id.get();
        self.inner.next_id.set(id + 1);
        self.inner
            .inflight
            .borrow_mut()
            .insert(id, InflightEntry { route, handle });
        let _guard = InflightGuard {
            fabric: Rc::clone(&self.inner),
            id,
        };
        match fut.await {
            TransferOutcome::Completed => Ok(()),
            TransferOutcome::Aborted => Err(self
                .check_path(from, to)
                .err()
                .unwrap_or_else(|| NetError::LinkDown(link.name.to_string()))),
        }
    }

    /// Takes a link down, aborting its in-flight transfers. Takedowns nest:
    /// the link carries traffic again once `set_link_up` has been called as
    /// many times. Returns `false` if the link is unknown.
    pub fn set_link_down(&self, link: &str) -> bool {
        let found = match self.inner.links.borrow().get(link) {
            Some(state) => {
                state.down.set(state.down.get() + 1);
                true
            }
            None => return false,
        };
        self.abort_where(|e| &*e.route.link.name == link);
        found
    }

    /// Brings a link back up (one nesting level). Returns `false` if the
    /// link is unknown.
    pub fn set_link_up(&self, link: &str) -> bool {
        match self.inner.links.borrow().get(link) {
            Some(state) => {
                state.down.set(state.down.get().saturating_sub(1));
                true
            }
            None => false,
        }
    }

    /// Applies a partition: hosts in *different* listed groups cannot reach
    /// each other; hosts not listed in any group are unaffected. Returns an
    /// id for [`Fabric::heal_partition`]. Several partitions may be active
    /// at once; a path is cut if any active partition cuts it.
    pub fn apply_partition(&self, groups: Vec<Vec<String>>) -> u64 {
        let id = self.inner.next_id.get();
        self.inner.next_id.set(id + 1);
        self.inner.partitions.borrow_mut().push((id, groups));
        self.abort_where(|e| self.check_path(&e.route.from, &e.route.to).is_err());
        id
    }

    /// Heals a partition previously applied. Returns `false` if the id is
    /// unknown (already healed).
    pub fn heal_partition(&self, id: u64) -> bool {
        let mut partitions = self.inner.partitions.borrow_mut();
        let before = partitions.len();
        partitions.retain(|(pid, _)| *pid != id);
        partitions.len() != before
    }

    /// Marks a host down, aborting in-flight transfers touching it.
    pub fn set_host_down(&self, host: &str) {
        self.inner.down_hosts.borrow_mut().insert(host.to_string());
        self.abort_where(|e| &*e.route.from == host || &*e.route.to == host);
    }

    /// Brings a host back up.
    pub fn set_host_up(&self, host: &str) {
        self.inner.down_hosts.borrow_mut().remove(host);
    }

    fn abort_where(&self, pred: impl Fn(&InflightEntry) -> bool) {
        let handles: Vec<AbortHandle> = self
            .inner
            .inflight
            .borrow()
            .values()
            .filter(|e| pred(e))
            .map(|e| e.handle.clone())
            .collect();
        for handle in handles {
            handle.abort();
        }
    }
}

/// How a fleet client behaves when the network or a server misbehaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientPolicy {
    /// Per-request timeout in seconds (`f64::INFINITY` disables timeouts).
    pub timeout: f64,
    /// Backoff policy for retrying failed requests.
    pub retry: RetryPolicy,
    /// If set, a read not answered within this many seconds is *hedged*: a
    /// second copy of the request is sent to the next replica and the first
    /// answer wins.
    pub hedge_delay: Option<f64>,
}

impl Default for ClientPolicy {
    fn default() -> Self {
        ClientPolicy {
            timeout: f64::INFINITY,
            retry: RetryPolicy::new(3, 0.2),
            hedge_delay: None,
        }
    }
}

impl ClientPolicy {
    /// Overrides the per-request timeout.
    pub fn with_timeout(mut self, timeout: f64) -> Self {
        self.timeout = timeout;
        self
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables hedged reads after `delay` seconds.
    pub fn with_hedge(mut self, delay: f64) -> Self {
        self.hedge_delay = Some(delay);
        self
    }

    /// Validates the policy.
    pub fn validate(&self) -> Result<(), String> {
        if self.timeout.is_nan() || self.timeout <= 0.0 {
            return Err("client timeout must be positive (or infinite)".to_string());
        }
        if let Some(delay) = self.hedge_delay {
            if !delay.is_finite() || delay <= 0.0 {
                return Err("hedge delay must be finite and positive".to_string());
            }
        }
        if self.retry.max_attempts == 0 {
            return Err("client retry policy needs at least one attempt".to_string());
        }
        Ok(())
    }
}

/// Shape of a replicated storage fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Number of client hosts (application instances are spread over them
    /// round-robin).
    pub clients: usize,
    /// Number of storage servers.
    pub servers: usize,
    /// Number of replicas per file (`1..=servers`).
    pub replication: usize,
    /// Client robustness policy.
    pub policy: ClientPolicy,
}

impl FleetSpec {
    /// A fleet of `clients` clients and `servers` servers with `replication`
    /// replicas per file and the default policy.
    pub fn new(clients: usize, servers: usize, replication: usize) -> Self {
        FleetSpec {
            clients,
            servers,
            replication,
            policy: ClientPolicy::default(),
        }
    }

    /// Overrides the client policy.
    pub fn with_policy(mut self, policy: ClientPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Validates the fleet shape.
    pub fn validate(&self) -> Result<(), String> {
        if self.clients == 0 {
            return Err("fleet needs at least one client host".to_string());
        }
        if self.servers == 0 {
            return Err("fleet needs at least one storage server".to_string());
        }
        if self.replication == 0 || self.replication > self.servers {
            return Err(format!(
                "replication factor must be in 1..={} (got {})",
                self.servers, self.replication
            ));
        }
        self.policy.validate()
    }
}

/// Canonical host name of fleet client `i` (`client00`, `client01`, …).
pub fn client_host(i: usize) -> String {
    format!("client{i:02}")
}

/// Canonical host name of fleet server `i` (`server00`, `server01`, …).
pub fn server_host(i: usize) -> String {
    format!("server{i:02}")
}

/// Canonical name of the ingress link of fleet server `i`.
pub fn server_link(i: usize) -> String {
    format!("link-server{i:02}")
}

/// Index of the primary server a file name places on, for a fleet of
/// `servers` servers. Scenario authors use this to aim a fault (e.g. a
/// [`crate::FaultEvent::ServerCrash`]) at the primary of a known file.
pub fn primary_server(servers: usize, name: &str) -> usize {
    assert!(servers > 0, "a fleet needs at least one server");
    (placement_hash(name) as usize) % servers
}

/// FNV-1a hash of a file name — the stable placement function.
fn placement_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Network-tier statistics of a fleet run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetReport {
    /// Reads served by a replica that had not seen the latest successful
    /// write of the file (at most one per read operation).
    pub stale_reads: f64,
    /// Reads won by the hedged (second) request.
    pub hedged_reads: f64,
    /// Reads that exhausted the robustness policy and failed degraded.
    pub failed_reads: f64,
    /// Per-replica writes that exhausted the retry budget (the write as a
    /// whole still succeeds if at least one replica accepted it).
    pub failed_writes: f64,
    /// Network-level retries (after timeouts, link/partition errors, …).
    pub net_retries: f64,
    /// Reads answered by a replica other than the file's primary.
    pub failovers: f64,
    /// Per-client degraded and stale read counts.
    pub per_client: Vec<ClientNetStats>,
    /// Durability report of each crashed server, in crash order.
    pub server_crashes: Vec<(String, CrashReport)>,
}

/// Per-client network statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClientNetStats {
    /// Host name of the client.
    pub host: String,
    /// Reads that failed degraded on this client.
    pub degraded_reads: f64,
    /// Stale reads observed by this client.
    pub stale_reads: f64,
}

struct ServerNode {
    host: String,
    link: String,
    /// The server's page cache, disk and files.
    io: IoController,
    /// Version of each file this replica holds, by the file's key in the
    /// fleet's namespace ([`version_of`]).
    versions: RefCell<Vec<u64>>,
    alive: Cell<bool>,
}

struct ClientNode {
    host: String,
    /// The client's read cache and anonymous memory.
    io: IoController,
    /// Version of each file the client's read cache holds, by the file's
    /// key in the fleet's namespace ([`version_of`]).
    versions: RefCell<Vec<u64>>,
    degraded_reads: Cell<u64>,
    stale_reads: Cell<u64>,
}

#[derive(Default)]
struct NetCounters {
    stale_reads: Cell<u64>,
    hedged_reads: Cell<u64>,
    failed_reads: Cell<u64>,
    failed_writes: Cell<u64>,
    net_retries: Cell<u64>,
    failovers: Cell<u64>,
}

fn bump(counter: &Cell<u64>) {
    counter.set(counter.get() + 1);
}

/// The version a node holds of the file whose key in the fleet's namespace
/// is `key`: 0 if it holds none.
fn version_of(versions: &RefCell<Vec<u64>>, key: u64) -> u64 {
    versions.borrow().get(key as usize).copied().unwrap_or(0)
}

/// Records that a node holds `version` of the file with key `key`.
fn set_version(versions: &RefCell<Vec<u64>>, key: u64, version: u64) {
    let mut versions = versions.borrow_mut();
    let i = key as usize;
    if versions.len() <= i {
        versions.resize(i + 1, 0);
    }
    versions[i] = version;
}

struct Fetched {
    server: usize,
    from_disk: f64,
    from_server_cache: f64,
}

struct FleetInner {
    ctx: SimContext,
    spec: FleetSpec,
    fabric: Fabric,
    servers: Vec<ServerNode>,
    clients: Vec<ClientNode>,
    /// The fleet's file namespace: each file's authoritative size, and in
    /// its slot the file's latest successfully written version. A file's
    /// key here also indexes every node's `versions`.
    files: RefCell<FileTable<u64>>,
    counters: NetCounters,
    crashes: RefCell<Vec<(String, CrashReport)>>,
}

impl FleetInner {
    fn replicas_of(&self, file: &FileId) -> Vec<usize> {
        let m = self.servers.len();
        let primary = (placement_hash(&file.to_string()) as usize) % m;
        (0..self.spec.replication)
            .map(|k| (primary + k) % m)
            .collect()
    }

    /// Serves `amount` bytes of a read on a server with its I/O
    /// controller's read step: server-cached data comes from its memory, the
    /// rest from its disk (entering the server cache). The server keeps no
    /// anonymous copy: the data's destination is the client.
    async fn serve_read(
        &self,
        server: usize,
        file: &FileId,
        amount: f64,
    ) -> Result<Fetched, NetError> {
        let node = &self.servers[server];
        let (key, size) = node
            .io
            .memory_manager()
            .file_size(file)
            .map_err(|_| NetError::ServerUnavailable(node.host.clone()))?;
        let mut stats = IoOpStats::default();
        node.io
            .read_chunk(key, size, amount.min(size), false, &mut stats)
            .await;
        Ok(Fetched {
            server,
            from_disk: stats.bytes_from_disk,
            from_server_cache: stats.bytes_from_cache,
        })
    }

    /// One read request to one server: path check, server-side read, then
    /// the transfer back to the client over the server's ingress link.
    async fn fetch_once(
        &self,
        client: usize,
        server: usize,
        file: &FileId,
        amount: f64,
    ) -> Result<Fetched, NetError> {
        let node = &self.servers[server];
        if !node.alive.get() {
            return Err(NetError::HostDown(node.host.clone()));
        }
        let client_host = &self.clients[client].host;
        self.fabric.check_path(client_host, &node.host)?;
        let fetched = self.serve_read(server, file, amount).await?;
        self.fabric
            .transfer(&node.host, client_host, amount)
            .await?;
        Ok(fetched)
    }

    /// Wraps a request in the policy's per-request timeout. Dropping the
    /// inner future on timeout is safe: in-flight link transfers are
    /// force-drained and timers are cancelled.
    async fn with_timeout<T, E: From<NetError>>(
        &self,
        fut: impl Future<Output = Result<T, E>>,
        timeout: f64,
    ) -> Result<T, E> {
        if timeout.is_finite() {
            match select2(fut, self.ctx.sleep(timeout)).await {
                Either::Left(result) => result,
                Either::Right(()) => Err(NetError::TimedOut { after: timeout }.into()),
            }
        } else {
            fut.await
        }
    }

    /// A read request under the full robustness policy: timeout, hedging,
    /// backoff retries, and failover across the replica ring (retries walk
    /// the ring round-robin instead of hammering the primary).
    async fn robust_fetch(
        &self,
        client: usize,
        targets: &[usize],
        file: &FileId,
        amount: f64,
    ) -> Result<Fetched, NetError> {
        let policy = self.spec.policy;
        let mut attempt: u32 = 1;
        loop {
            let slot = (attempt - 1) as usize % targets.len();
            let target = targets[slot];
            let hedge = match policy.hedge_delay {
                Some(delay) if targets.len() > 1 => {
                    Some((delay, targets[(slot + 1) % targets.len()]))
                }
                _ => None,
            };
            let outcome = match hedge {
                None => {
                    self.with_timeout(
                        self.fetch_once(client, target, file, amount),
                        policy.timeout,
                    )
                    .await
                }
                Some((delay, alt)) => {
                    let primary = self.fetch_once(client, target, file, amount);
                    let hedged = async {
                        self.ctx.sleep(delay).await;
                        self.fetch_once(client, alt, file, amount).await
                    };
                    let race = async {
                        match select2(primary, hedged).await {
                            Either::Left(result) => result,
                            Either::Right(result) => {
                                if result.is_ok() {
                                    bump(&self.counters.hedged_reads);
                                }
                                result
                            }
                        }
                    };
                    self.with_timeout(race, policy.timeout).await
                }
            };
            match outcome {
                Ok(fetched) => {
                    if fetched.server != targets[0] {
                        bump(&self.counters.failovers);
                    }
                    return Ok(fetched);
                }
                Err(error) => {
                    if attempt >= policy.retry.max_attempts {
                        return Err(error);
                    }
                    bump(&self.counters.net_retries);
                    let delay = policy.retry.delay(attempt);
                    if delay > 0.0 {
                        self.ctx.sleep(delay).await;
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// One write request to one replica: reserve the whole range on the
    /// server's disk, then ship each chunk over the fabric and write it
    /// through the server's page cache (write-back, or writethrough on
    /// NFS). A server crash mid-operation is noticed at the next chunk
    /// boundary.
    async fn write_once(
        &self,
        client: usize,
        server: usize,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ReplicaWriteError> {
        let node = &self.servers[server];
        let client_host = &self.clients[client].host;
        let reachable = || {
            if !node.alive.get() {
                return Err(NetError::HostDown(node.host.clone()));
            }
            self.fabric.check_path(client_host, &node.host)
        };
        reachable()?;
        // Extend the replica file over the whole range first, so a full
        // disk fails the write before any byte moves. A zero-length write
        // still creates/extends the file.
        let key = node
            .io
            .memory_manager()
            .extend_file(file, offset, len)
            .map_err(ReplicaWriteError::Server)?;
        let mut stats = IoOpStats::default();
        let mut remaining = len;
        loop {
            let chunk = remaining.min(node.io.chunk_size());
            if chunk > EPSILON {
                self.fabric.transfer(client_host, &node.host, chunk).await?;
            }
            let st = node.io.write_amount(key, chunk).await;
            stats.bytes_to_cache += st.bytes_to_cache;
            stats.bytes_to_disk += st.bytes_to_disk;
            stats.throttle_stall += st.throttle_stall;
            remaining -= chunk;
            if remaining <= EPSILON {
                return Ok(stats);
            }
            reachable()?;
        }
    }

    /// A per-replica write under timeout + backoff retries (no failover: the
    /// replica set is fixed; the caller iterates over it). A server-side
    /// filesystem error is returned at once: retrying cannot clear it.
    async fn robust_write(
        &self,
        client: usize,
        server: usize,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ReplicaWriteError> {
        let policy = self.spec.policy;
        let mut attempt: u32 = 1;
        loop {
            let outcome = self
                .with_timeout(
                    self.write_once(client, server, file, offset, len),
                    policy.timeout,
                )
                .await;
            match outcome {
                Ok(stats) => return Ok(stats),
                Err(error @ ReplicaWriteError::Server(_)) => return Err(error),
                Err(error) => {
                    if attempt >= policy.retry.max_attempts {
                        return Err(error);
                    }
                    bump(&self.counters.net_retries);
                    let delay = policy.retry.delay(attempt);
                    if delay > 0.0 {
                        self.ctx.sleep(delay).await;
                    }
                    attempt += 1;
                }
            }
        }
    }

    fn injected(&self, op: OpClass, file: &FileId) -> ScenarioError {
        ScenarioError::Injected(InjectedFault {
            kind: InjectedFaultKind::Network,
            op,
            file: Some(file.clone()),
            at: self.ctx.now().as_secs(),
            transient: false,
        })
    }
}

/// One client's view of a storage fleet (replicated, or a cached NFS mount
/// as one client and one writethrough server), served to the runner
/// through [`crate::Backend::Fleet`]; cloning shares the fleet, and
/// [`FleetClient::for_client`] re-homes the view onto another client host.
#[derive(Clone)]
pub struct FleetClient {
    inner: Rc<FleetInner>,
    client: usize,
}

impl FleetClient {
    /// Builds a fleet for a platform: `spec.servers` storage servers (each
    /// with a page cache of `platform.server_memory` and a
    /// `devices.remote_disk` disk behind its own ingress link) and
    /// `spec.clients` client hosts (each with a private read cache of
    /// `platform.host_memory`). The server caches are writethrough when
    /// `platform.storage` is [`StorageKind::Nfs`] (the paper's NFS server)
    /// and write-back otherwise. Returns the view of client 0.
    pub fn build(
        ctx: &SimContext,
        platform: &PlatformSpec,
        devices: &DeviceSet,
        spec: &FleetSpec,
    ) -> Result<FleetClient, ScenarioError> {
        spec.validate().map_err(ScenarioError::InvalidPlatform)?;
        let server_cache = match platform.storage {
            StorageKind::Nfs => PageCacheConfig {
                write_mode: WriteMode::WriteThrough,
                ..platform.cache
            },
            _ => platform.cache,
        };
        let fabric = Fabric::new(ctx);
        let mut servers = Vec::with_capacity(spec.servers);
        for i in 0..spec.servers {
            let host = server_host(i);
            let link = server_link(i);
            fabric.add_host(&host);
            fabric.add_link(&link, devices.network_bandwidth, devices.network_latency);
            let memory = MemoryDevice::new(ctx, devices.memory);
            let disk = Disk::new(ctx, format!("{host}-disk"), devices.remote_disk);
            let mm = MemoryManager::new(ctx, server_cache, platform.server_memory, memory, disk);
            let io = IoController::new(ctx, mm);
            servers.push(ServerNode {
                host,
                link,
                io,
                versions: RefCell::default(),
                alive: Cell::new(true),
            });
        }
        let mut clients = Vec::with_capacity(spec.clients);
        for i in 0..spec.clients {
            let host = client_host(i);
            fabric.add_host(&host);
            for server in &servers {
                fabric.add_route(&host, &server.host, &server.link);
            }
            let memory = MemoryDevice::new(ctx, devices.memory);
            // The client cache holds only clean data; its disk is never
            // written but the Memory Manager needs a flush target.
            let disk = Disk::new(ctx, format!("{host}-disk"), devices.disk);
            let mm = MemoryManager::new(ctx, platform.cache, platform.host_memory, memory, disk);
            clients.push(ClientNode {
                host,
                io: IoController::new(ctx, mm),
                versions: RefCell::default(),
                degraded_reads: Cell::new(0),
                stale_reads: Cell::new(0),
            });
        }
        Ok(FleetClient {
            inner: Rc::new(FleetInner {
                ctx: ctx.clone(),
                spec: *spec,
                fabric,
                servers,
                clients,
                files: RefCell::default(),
                counters: NetCounters::default(),
                crashes: RefCell::new(Vec::new()),
            }),
            client: 0,
        })
    }

    /// The same fleet seen from client `client % spec.clients`.
    pub fn for_client(&self, client: usize) -> FleetClient {
        FleetClient {
            inner: Rc::clone(&self.inner),
            client: client % self.inner.spec.clients,
        }
    }

    /// The network fabric (for fault drivers and tests).
    pub fn fabric(&self) -> &Fabric {
        &self.inner.fabric
    }

    /// Replica ring of a file (primary first).
    pub fn replicas_of(&self, file: &FileId) -> Vec<usize> {
        self.inner.replicas_of(file)
    }

    /// Primary server index of a file.
    pub fn primary_of(&self, file: &FileId) -> usize {
        self.inner.replicas_of(file)[0]
    }

    /// Crashes a server by host name: its dirty cached data is lost (the
    /// durability report is recorded in [`NetReport::server_crashes`]), it
    /// stops serving, and its host is marked down in the fabric. Returns
    /// `false` if the host is unknown or already crashed. The server does
    /// not come back.
    pub fn crash_server(&self, host: &str) -> bool {
        let Some(index) = self.inner.servers.iter().position(|n| n.host == host) else {
            return false;
        };
        let node = &self.inner.servers[index];
        if !node.alive.get() {
            return false;
        }
        node.alive.set(false);
        node.io.memory_manager().stop();
        self.inner.fabric.set_host_down(&node.host);
        let report = crash_cached(node.io.memory_manager());
        self.inner
            .crashes
            .borrow_mut()
            .push((node.host.clone(), report));
        true
    }

    /// The network-tier statistics collected so far.
    pub fn net_report(&self) -> NetReport {
        let c = &self.inner.counters;
        NetReport {
            stale_reads: c.stale_reads.get() as f64,
            hedged_reads: c.hedged_reads.get() as f64,
            failed_reads: c.failed_reads.get() as f64,
            failed_writes: c.failed_writes.get() as f64,
            net_retries: c.net_retries.get() as f64,
            failovers: c.failovers.get() as f64,
            per_client: self
                .inner
                .clients
                .iter()
                .map(|client| ClientNetStats {
                    host: client.host.clone(),
                    degraded_reads: client.degraded_reads.get() as f64,
                    stale_reads: client.stale_reads.get() as f64,
                })
                .collect(),
            server_crashes: self.inner.crashes.borrow().clone(),
        }
    }

    /// The client host's Memory Manager: its read cache and the
    /// application's anonymous memory.
    pub fn client_memory_manager(&self) -> &MemoryManager {
        self.inner.clients[self.client].io.memory_manager()
    }

    /// The I/O Controller of server `index`: its page cache, disk and
    /// files.
    #[cfg(test)]
    pub(crate) fn server_io(&self, index: usize) -> &IoController {
        &self.inner.servers[index].io
    }

    /// Registers a pre-existing file on the fleet and on every live replica
    /// without simulating any I/O ([`FileTable::create`]).
    pub fn create_file(&self, file: &FileId, size: f64) -> Result<(), ScenarioError> {
        // The fleet's namespace holds no space; each replica allocates.
        self.inner
            .files
            .borrow_mut()
            .create(file, size, |_| Ok(()))?;
        for &s in &self.inner.replicas_of(file) {
            let node = &self.inner.servers[s];
            if node.alive.get() {
                node.io.memory_manager().create_file(file, size)?;
            }
        }
        Ok(())
    }

    /// Reads `len` bytes at `offset` through the client's read cache;
    /// misses are fetched from the replicas under the client policy.
    pub async fn read_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ScenarioError> {
        let inner = &self.inner;
        let (key, size) = inner.files.borrow().size(file)?;
        let (_start, amount) = clamp_io_range(offset, len, size);
        let start = inner.ctx.now();
        let me = &inner.clients[self.client];
        // The client cache's own key for the file: a cache that never held
        // it gets its slot now.
        let cached = me.io.memory_manager().key_or_insert(file);
        let candidates = &inner.replicas_of(file);
        let mut stats = IoOpStats::default();
        let mut stale = false;
        let mut remaining = amount;
        while remaining > EPSILON {
            let chunk = remaining.min(me.io.chunk_size());
            let read = me
                .io
                .read_chunk_via(cached, size, chunk, true, &mut stats, |amount| async move {
                    let fetched = inner
                        .robust_fetch(self.client, candidates, file, amount)
                        .await?;
                    let server = &inner.servers[fetched.server];
                    set_version(&me.versions, key, version_of(&server.versions, key));
                    Ok::<_, NetError>(IoOpStats {
                        bytes_from_disk: fetched.from_disk,
                        bytes_from_cache: fetched.from_server_cache,
                        ..IoOpStats::default()
                    })
                })
                .await;
            if read.is_err() {
                bump(&me.degraded_reads);
                bump(&inner.counters.failed_reads);
                return Err(inner.injected(OpClass::Read, file));
            }
            // Whether fetched or cached, the chunk is stale if its version
            // predates the latest write.
            if version_of(&me.versions, key) < *inner.files.borrow().get(key) {
                stale = true;
            }
            remaining -= chunk;
        }
        if stale {
            bump(&me.stale_reads);
            bump(&inner.counters.stale_reads);
        }
        stats.duration = inner.ctx.now().duration_since(start);
        Ok(stats)
    }

    /// Writes `len` bytes at `offset` to every replica (primary first),
    /// creating the file or extending it as needed; never shrinks it. The
    /// write succeeds if at least one replica accepted it. If none did, it
    /// fails with the first replica's filesystem error (e.g.
    /// [`FsError::DiskFull`]) if one refused it, and as an injected network
    /// fault otherwise.
    pub async fn write_range(
        &self,
        file: &FileId,
        offset: f64,
        len: f64,
    ) -> Result<IoOpStats, ScenarioError> {
        check_write_range(offset, len)?;
        let inner = &self.inner;
        let start = inner.ctx.now();
        let replicas = inner.replicas_of(file);
        let mut stats = IoOpStats::default();
        let mut succeeded = Vec::new();
        let mut server_error = None;
        for &server in &replicas {
            match inner
                .robust_write(self.client, server, file, offset, len)
                .await
            {
                Ok(st) => {
                    stats.bytes_to_cache += st.bytes_to_cache;
                    stats.bytes_to_disk += st.bytes_to_disk;
                    stats.throttle_stall += st.throttle_stall;
                    succeeded.push(server);
                }
                Err(error) => {
                    bump(&inner.counters.failed_writes);
                    if let ReplicaWriteError::Server(e) = error {
                        server_error.get_or_insert(e);
                    }
                }
            }
        }
        if succeeded.is_empty() {
            return Err(match server_error {
                Some(e) => ScenarioError::Filesystem(e),
                None => inner.injected(OpClass::Write, file),
            });
        }
        // The fleet's namespace holds no space: each replica allocated.
        let (key, version) = {
            let mut files = inner.files.borrow_mut();
            let key = files.extend(file, offset, len, |_| Ok(()))?;
            let version = files.get_mut(key);
            *version += 1;
            (key, *version)
        };
        for &server in &succeeded {
            set_version(&inner.servers[server].versions, key, version);
        }
        // Close-to-open: the writer's own cached copy predates the write.
        let me = &inner.clients[self.client];
        let mm = me.io.memory_manager();
        if let Some(cached) = mm.key(file) {
            mm.invalidate_file(cached);
        }
        set_version(&me.versions, key, 0);
        stats.duration = inner.ctx.now().duration_since(start);
        Ok(stats)
    }

    /// Flushes the file on every reachable replica (nothing to flush on
    /// writethrough servers).
    pub async fn fsync(&self, file: &FileId) -> Result<IoOpStats, ScenarioError> {
        let inner = &self.inner;
        inner.files.borrow().size(file)?;
        let start = inner.ctx.now();
        let client_host = inner.clients[self.client].host.clone();
        let mut stats = IoOpStats::default();
        let mut any = false;
        for &server in &inner.replicas_of(file) {
            let node = &inner.servers[server];
            if !node.alive.get() || inner.fabric.check_path(&client_host, &node.host).is_err() {
                continue;
            }
            if let Ok(st) = node.io.fsync(file).await {
                any = true;
                stats.bytes_to_disk += st.bytes_to_disk;
                stats.throttle_stall += st.throttle_stall;
            }
        }
        if !any {
            return Err(inner.injected(OpClass::Fsync, file));
        }
        stats.duration = inner.ctx.now().duration_since(start);
        Ok(stats)
    }

    /// Flushes all dirty data of every reachable server.
    pub async fn sync(&self) -> Result<IoOpStats, ScenarioError> {
        let inner = &self.inner;
        let start = inner.ctx.now();
        let client_host = inner.clients[self.client].host.clone();
        let mut stats = IoOpStats::default();
        for node in &inner.servers {
            if !node.alive.get() || inner.fabric.check_path(&client_host, &node.host).is_err() {
                continue;
            }
            let st = node.io.sync().await;
            stats.bytes_to_disk += st.bytes_to_disk;
            stats.throttle_stall += st.throttle_stall;
        }
        stats.duration = inner.ctx.now().duration_since(start);
        Ok(stats)
    }

    /// Starts the periodical flusher of every live write-back server. A
    /// writethrough server never holds dirty data, so it runs none.
    pub fn start_background(&self) {
        for node in &self.inner.servers {
            let mm = node.io.memory_manager();
            if node.alive.get() && mm.config().write_mode == WriteMode::WriteBack {
                mm.spawn_periodical_flusher();
            }
        }
    }

    /// Stops the flushers of every live server.
    pub fn stop_background(&self) {
        for node in &self.inner.servers {
            if node.alive.get() {
                node.io.memory_manager().stop();
            }
        }
    }

    /// Writeback/eviction counters summed over the servers' page caches.
    pub fn writeback_counters(&self) -> CacheCounters {
        let mut total = CacheCounters::default();
        for node in &self.inner.servers {
            total.merge(&node.io.memory_manager().counters());
        }
        total
    }

    /// Work counters summed over the clients' and servers' caches and
    /// devices and the servers' links.
    pub(crate) fn profile(&self) -> ProfileStats {
        let mut total = ProfileStats::default();
        for client in &self.inner.clients {
            total.merge(&host_profile(client.io.memory_manager()));
        }
        for node in &self.inner.servers {
            total.merge(&host_profile(node.io.memory_manager()));
            total.flows_completed += self
                .inner
                .fabric
                .link_channel(&node.link)
                .map_or(0, |link| link.completed_flows());
        }
        total
    }

    /// Fleet-wide power loss (see [`crate::Backend::crash`]).
    pub fn crash(&self) -> CrashReport {
        // Fleet-wide power loss: every server loses its dirty cached data;
        // a file survives as well as its most-durable replica. Servers that
        // crashed earlier contribute the durability recorded at their crash
        // (their dirty data was already lost then).
        let mut merged: BTreeMap<FileId, FileDurability> = BTreeMap::new();
        for node in &self.inner.servers {
            let report = if node.alive.get() {
                crash_cached(node.io.memory_manager())
            } else {
                self.inner
                    .crashes
                    .borrow()
                    .iter()
                    .find(|(host, _)| host == &node.host)
                    .map(|(_, report)| report.clone())
                    .unwrap_or_default()
            };
            for (file, durability) in report.files {
                merged
                    .entry(file)
                    .and_modify(|best| {
                        if durability.durable_bytes > best.durable_bytes {
                            *best = durability.clone();
                        }
                    })
                    .or_insert(durability);
            }
        }
        for client in &self.inner.clients {
            client.io.memory_manager().crash_discard();
            client.versions.borrow_mut().fill(0);
        }
        CrashReport { files: merged }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::Simulation;
    use storage_model::units::MB;
    use storage_model::DeviceSpec;

    const NET_BW: f64 = 100.0 * MB;

    fn test_platform() -> PlatformSpec {
        let mut platform = PlatformSpec::uniform(
            256.0 * MB,
            DeviceSpec::symmetric(1000.0 * MB, 0.0, f64::INFINITY),
            DeviceSpec::symmetric(100.0 * MB, 0.0, f64::INFINITY),
        );
        platform.simulated.network_bandwidth = NET_BW;
        platform
    }

    fn fleet(
        ctx: &SimContext,
        clients: usize,
        servers: usize,
        replication: usize,
        policy: ClientPolicy,
    ) -> FleetClient {
        let platform = test_platform();
        let spec = FleetSpec::new(clients, servers, replication).with_policy(policy);
        FleetClient::build(ctx, &platform, &platform.simulated, &spec).unwrap()
    }

    fn two_host_fabric(ctx: &SimContext) -> Fabric {
        let fabric = Fabric::new(ctx);
        fabric.add_host("a");
        fabric.add_host("b");
        fabric.add_link("ab", NET_BW, 0.0);
        fabric.add_route("a", "b", "ab");
        fabric
    }

    #[test]
    fn fabric_transfer_and_link_down() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let fabric = two_host_fabric(&ctx);
        let done = sim.spawn({
            let fabric = fabric.clone();
            async move {
                fabric.transfer("a", "b", 100.0 * MB).await.unwrap();
                assert!(fabric.set_link_down("ab"));
                assert_eq!(
                    fabric.transfer("a", "b", 1.0).await,
                    Err(NetError::LinkDown("ab".to_string()))
                );
                // Takedowns nest: one `up` is not enough after two `down`s.
                assert!(fabric.set_link_down("ab"));
                assert!(fabric.set_link_up("ab"));
                assert!(fabric.check_path("a", "b").is_err());
                assert!(fabric.set_link_up("ab"));
                fabric.transfer("b", "a", 1.0).await.unwrap();
            }
        });
        sim.run();
        assert!(done.is_finished());
        assert!((sim.now().as_secs() - (1.0 + 1.0 / (100.0 * MB))).abs() < 1e-9);
    }

    #[test]
    fn fabric_partition_cuts_and_heals() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let fabric = two_host_fabric(&ctx);
        fabric.add_host("c");
        fabric.add_route("a", "c", "ab");
        let id = fabric.apply_partition(vec![vec!["a".to_string()], vec!["b".to_string()]]);
        assert_eq!(fabric.check_path("a", "b"), Err(NetError::Partitioned));
        // "c" is unlisted, so it still reaches both sides.
        assert!(fabric.check_path("a", "c").is_ok());
        assert!(fabric.heal_partition(id));
        assert!(!fabric.heal_partition(id));
        assert!(fabric.check_path("a", "b").is_ok());
    }

    #[test]
    fn fabric_aborts_transfer_mid_flight() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let fabric = two_host_fabric(&ctx);
        let transfer = sim.spawn({
            let fabric = fabric.clone();
            async move { fabric.transfer("a", "b", 1000.0 * MB).await }
        });
        sim.spawn({
            let fabric = fabric.clone();
            let ctx = ctx.clone();
            async move {
                ctx.sleep(1.0).await;
                fabric.set_link_down("ab");
            }
        });
        sim.run();
        assert_eq!(
            transfer.try_take_result(),
            Some(Err(NetError::LinkDown("ab".to_string())))
        );
        // A 10 s transfer was cut at t = 1 s.
        assert!((sim.now().as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fabric_host_down_aborts_and_unroutes() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let fabric = two_host_fabric(&ctx);
        let done = sim.spawn({
            let fabric = fabric.clone();
            async move {
                fabric.set_host_down("b");
                assert_eq!(
                    fabric.transfer("a", "b", 1.0).await,
                    Err(NetError::HostDown("b".to_string()))
                );
                fabric.set_host_up("b");
                fabric.transfer("a", "b", 1.0).await.unwrap();
                assert_eq!(
                    fabric.check_path("a", "nonexistent"),
                    Err(NetError::NoRoute {
                        from: "a".to_string(),
                        to: "nonexistent".to_string()
                    })
                );
            }
        });
        sim.run();
        assert!(done.is_finished());
    }

    #[test]
    fn placement_is_stable_and_spread() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let backend = fleet(&ctx, 2, 3, 2, ClientPolicy::default());
        let file = FileId::new("data");
        let replicas = backend.replicas_of(&file);
        assert_eq!(replicas, backend.replicas_of(&file));
        assert_eq!(replicas.len(), 2);
        assert_ne!(replicas[0], replicas[1]);
        assert!(replicas.iter().all(|&s| s < 3));
        assert_eq!(backend.primary_of(&file), replicas[0]);
    }

    #[test]
    fn fleet_write_read_roundtrip() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let backend = fleet(&ctx, 1, 3, 2, ClientPolicy::default());
        let done = sim.spawn({
            let backend = backend.clone();
            async move {
                let file = FileId::new("data");
                let write = backend.write_range(&file, 0.0, 20.0 * MB).await.unwrap();
                // Replication amplification: both replicas absorb the write.
                assert!((write.bytes_to_cache - 40.0 * MB).abs() < 1.0);
                let read = backend.read_range(&file, 0.0, 20.0 * MB).await.unwrap();
                assert!((read.bytes_from_cache + read.bytes_from_disk - 20.0 * MB).abs() < 1.0);
                backend
                    .client_memory_manager()
                    .release_anonymous_memory(20.0 * MB);
            }
        });
        sim.run();
        assert!(done.is_finished());
        let report = backend.net_report();
        assert_eq!(report.stale_reads, 0.0);
        assert_eq!(report.failed_reads, 0.0);
        assert_eq!(report.failed_writes, 0.0);
    }

    #[test]
    fn server_crash_loses_dirty_replica() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let backend = fleet(&ctx, 1, 2, 2, ClientPolicy::default());
        let done = sim.spawn({
            let backend = backend.clone();
            async move {
                let file = FileId::new("data");
                backend.write_range(&file, 0.0, 20.0 * MB).await.unwrap();
                let before = backend.crash_server(&server_host(0));
                assert!(before);
                backend
            }
        });
        sim.run();
        let backend = done.try_take_result().unwrap();
        // The crashed server lost its dirty copy...
        let report = backend.net_report();
        assert_eq!(report.server_crashes.len(), 1);
        assert!(report.server_crashes[0].1.lost_bytes() > 0.0);
        // ...but a fleet-wide power loss still finds the surviving replica
        // dirty too (write-back caches, nothing fsynced).
        assert!(backend.crash().lost_bytes() > 0.0);
    }

    #[test]
    fn fsync_then_crash_is_durable() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let backend = fleet(&ctx, 1, 2, 2, ClientPolicy::default());
        let done = sim.spawn({
            let backend = backend.clone();
            async move {
                let file = FileId::new("data");
                backend.write_range(&file, 0.0, 20.0 * MB).await.unwrap();
                backend.fsync(&file).await.unwrap();
                backend
            }
        });
        sim.run();
        let backend = done.try_take_result().unwrap();
        let report = backend.crash();
        assert_eq!(report.lost_bytes(), 0.0);
        assert!(report.durable_bytes() >= 20.0 * MB - 1.0);
    }

    #[test]
    fn read_fails_over_to_replica_after_server_crash() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let policy = ClientPolicy::default().with_retry(RetryPolicy::new(3, 0.01));
        let backend = fleet(&ctx, 1, 3, 2, policy);
        let done = sim.spawn({
            let backend = backend.clone();
            async move {
                let file = FileId::new("data");
                backend.create_file(&file, 20.0 * MB).unwrap();
                let primary = server_host(backend.primary_of(&file));
                assert!(backend.crash_server(&primary));
                backend.read_range(&file, 0.0, 20.0 * MB).await.unwrap();
                backend
                    .client_memory_manager()
                    .release_anonymous_memory(20.0 * MB);
            }
        });
        sim.run();
        assert!(done.is_finished());
        let report = backend.net_report();
        assert!(report.failovers >= 1.0);
        assert!(report.net_retries >= 1.0);
        assert_eq!(report.failed_reads, 0.0);
    }

    #[test]
    fn unhealed_partition_degrades_instead_of_hanging() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let policy = ClientPolicy::default()
            .with_timeout(1.0)
            .with_retry(RetryPolicy::new(2, 0.1));
        let backend = fleet(&ctx, 1, 2, 2, policy);
        let result = sim.spawn({
            let backend = backend.clone();
            async move {
                let file = FileId::new("data");
                backend.create_file(&file, 10.0 * MB).unwrap();
                let groups = vec![vec![client_host(0)], vec![server_host(0), server_host(1)]];
                backend.fabric().apply_partition(groups);
                backend.read_range(&file, 0.0, 10.0 * MB).await
            }
        });
        sim.run();
        let result = result.try_take_result().expect("read task hung");
        match result {
            Err(ScenarioError::Injected(fault)) => {
                assert_eq!(fault.kind, InjectedFaultKind::Network);
                assert_eq!(fault.op, OpClass::Read);
            }
            other => panic!("expected injected network fault, got {other:?}"),
        }
        let report = backend.net_report();
        assert_eq!(report.failed_reads, 1.0);
        assert_eq!(report.per_client[0].degraded_reads, 1.0);
        assert!(report.net_retries >= 1.0);
    }

    #[test]
    fn slow_network_times_out_and_retries() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let policy = ClientPolicy::default()
            .with_timeout(0.5)
            .with_retry(RetryPolicy::new(2, 0.25));
        let backend = fleet(&ctx, 1, 1, 1, policy);
        let result = sim.spawn({
            let backend = backend.clone();
            async move {
                let file = FileId::new("data");
                backend.create_file(&file, 200.0 * MB).unwrap();
                // 200 MB over a 100 MB/s link takes 2 s >> the 0.5 s timeout.
                backend.read_range(&file, 0.0, 200.0 * MB).await
            }
        });
        sim.run();
        let result = result.try_take_result().expect("read task hung");
        assert!(matches!(result, Err(ScenarioError::Injected(_))));
        let report = backend.net_report();
        assert_eq!(report.net_retries, 1.0);
        assert_eq!(report.failed_reads, 1.0);
        // Two attempts, each cut at the 0.5 s timeout, plus one 0.25 s
        // backoff pause.
        assert!((sim.now().as_secs() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn hedged_read_beats_contended_primary() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let policy = ClientPolicy::default().with_hedge(0.05);
        let backend = fleet(&ctx, 1, 2, 2, policy);
        let file = FileId::new("hot");
        backend.create_file(&file, 10.0 * MB).unwrap();
        let primary = backend.primary_of(&file);
        // Saturate the primary's ingress link with unrelated traffic.
        sim.spawn({
            let fabric = backend.fabric().clone();
            let host = server_host(primary);
            async move {
                let _ = fabric.transfer(&host, &client_host(0), 1000.0 * MB).await;
            }
        });
        let done = sim.spawn({
            let backend = backend.clone();
            async move {
                backend.read_range(&file, 0.0, 10.0 * MB).await.unwrap();
                backend
                    .client_memory_manager()
                    .release_anonymous_memory(10.0 * MB);
            }
        });
        sim.run();
        assert!(done.is_finished());
        let report = backend.net_report();
        assert!(report.hedged_reads >= 1.0);
        assert!(report.failovers >= 1.0);
    }

    #[test]
    fn missed_write_makes_replica_stale() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let policy = ClientPolicy::default()
            .with_timeout(0.5)
            .with_retry(RetryPolicy::new(2, 0.05));
        let backend = fleet(&ctx, 1, 2, 2, policy);
        let done = sim.spawn({
            let backend = backend.clone();
            async move {
                let file = FileId::new("data");
                backend.create_file(&file, 10.0 * MB).unwrap();
                let replicas = backend.replicas_of(&file);
                let secondary = server_host(replicas[1]);
                // Cut off the secondary: the write lands on the primary only.
                let id = backend
                    .fabric()
                    .apply_partition(vec![vec![client_host(0)], vec![secondary.clone()]]);
                backend.write_range(&file, 0.0, 10.0 * MB).await.unwrap();
                backend.fabric().heal_partition(id);
                // Lose the primary: reads fail over to the stale secondary.
                assert!(backend.crash_server(&server_host(replicas[0])));
                backend.read_range(&file, 0.0, 10.0 * MB).await.unwrap();
                backend
                    .client_memory_manager()
                    .release_anonymous_memory(10.0 * MB);
            }
        });
        sim.run();
        assert!(done.is_finished());
        let report = backend.net_report();
        assert_eq!(report.failed_writes, 1.0);
        assert!(report.stale_reads >= 1.0);
        assert!(report.failovers >= 1.0);
        assert_eq!(report.per_client[0].stale_reads, report.stale_reads);
    }

    #[test]
    fn a_reader_cached_copy_goes_stale_and_the_writer_refetches() {
        // Client 1 caches the file, then client 0 overwrites it. Client 1's
        // re-read is served from its own cache, which predates the write;
        // the writer's copy was invalidated, so its re-read fetches the
        // new version from the server.
        let sim = Simulation::new();
        let ctx = sim.context();
        let backend = fleet(&ctx, 2, 1, 1, ClientPolicy::default());
        let (writer, reader) = (backend.for_client(0), backend.for_client(1));
        let done = sim.spawn(async move {
            let file = FileId::new("data");
            writer.create_file(&file, 10.0 * MB).unwrap();
            let read = |client: &FleetClient| {
                let (client, file) = (client.clone(), file.clone());
                async move {
                    let stats = client.read_range(&file, 0.0, f64::INFINITY).await;
                    client
                        .client_memory_manager()
                        .release_anonymous_memory(10.0 * MB);
                    stats.unwrap()
                }
            };
            let link = writer.fabric().link_channel(&server_link(0)).unwrap();
            read(&reader).await;
            writer.write_range(&file, 0.0, 10.0 * MB).await.unwrap();
            let before = link.total_bytes();
            read(&reader).await;
            let reader_fetched = link.total_bytes() - before;
            read(&writer).await;
            (reader_fetched, link.total_bytes() - before - reader_fetched)
        });
        sim.run();
        let (reader_fetched, writer_fetched) = done.try_take_result().unwrap();
        assert_eq!(reader_fetched, 0.0);
        assert_eq!(writer_fetched, 10.0 * MB);
        let report = backend.net_report();
        assert_eq!(report.per_client[1].stale_reads, 1.0);
        assert_eq!(report.per_client[0].stale_reads, 0.0);
        assert_eq!(report.stale_reads, 1.0);
    }

    /// Cached bytes of `name` on `mm`: 0 for a file it never held.
    fn cached(mm: &MemoryManager, name: &FileId) -> f64 {
        mm.key(name).map_or(0.0, |k| mm.cached_amount(k))
    }

    #[test]
    fn every_node_resolves_a_file_to_its_own_key() {
        // "a" lives on server 0 and "b" on server 1. Client 0 reads "b"
        // before "a", so its keys, and server 1's, differ from the fleet's:
        // a step that took a key from another table would read or drop the
        // wrong file.
        let sim = Simulation::new();
        let ctx = sim.context();
        let backend = fleet(&ctx, 2, 2, 1, ClientPolicy::default());
        let (a, b) = (FileId::new("a"), FileId::new("b"));
        backend.create_file(&a, 10.0 * MB).unwrap();
        backend.create_file(&b, 20.0 * MB).unwrap();
        assert_eq!((backend.primary_of(&a), backend.primary_of(&b)), (0, 1));
        let (c0, c1) = (backend.for_client(0), backend.for_client(1));
        let done = sim.spawn({
            let (c0, c1, a, b) = (c0.clone(), c1.clone(), a.clone(), b.clone());
            async move {
                for (client, file) in [(&c0, &b), (&c0, &a), (&c1, &a)] {
                    client.read_range(file, 0.0, f64::INFINITY).await.unwrap();
                }
            }
        });
        sim.run();
        assert!(done.is_finished());
        let fleet_key = |file: &FileId| backend.inner.files.borrow().key(file);
        let (m0, m1) = (c0.client_memory_manager(), c1.client_memory_manager());
        let (s0, s1) = (
            backend.server_io(0).memory_manager(),
            backend.server_io(1).memory_manager(),
        );
        assert_eq!((fleet_key(&a), fleet_key(&b)), (Some(0), Some(1)));
        assert_eq!((m0.key(&a), m0.key(&b)), (Some(1), Some(0)));
        assert_eq!(s1.key(&b), Some(0));
        let per_file = |mm: &MemoryManager| [cached(mm, &a), cached(mm, &b)];
        assert_eq!(per_file(m0), [10.0 * MB, 20.0 * MB]);
        assert_eq!(per_file(m1), [10.0 * MB, 0.0]);
        assert_eq!(per_file(s0), [10.0 * MB, 0.0]);
        assert_eq!(per_file(s1), [0.0, 20.0 * MB]);
        // Close-to-open: client 0's write of "a" drops its own copy of "a"
        // (its key 1), not its copy of "b" (its key 0, the fleet's key of
        // "a"), and leaves client 1's copy alone.
        let done = sim.spawn({
            let (c0, a) = (c0.clone(), a.clone());
            async move { c0.write_range(&a, 0.0, 10.0 * MB).await.unwrap() }
        });
        sim.run();
        assert!(done.is_finished());
        assert_eq!(per_file(m0), [0.0, 20.0 * MB]);
        assert_eq!(per_file(m1), [10.0 * MB, 0.0]);
    }

    #[test]
    fn spec_and_policy_validation() {
        assert!(FleetSpec::new(0, 3, 1).validate().is_err());
        assert!(FleetSpec::new(1, 0, 1).validate().is_err());
        assert!(FleetSpec::new(1, 3, 0).validate().is_err());
        assert!(FleetSpec::new(1, 3, 4).validate().is_err());
        assert!(FleetSpec::new(4, 3, 3).validate().is_ok());
        assert!(ClientPolicy::default().validate().is_ok());
        assert!(ClientPolicy::default()
            .with_timeout(f64::NAN)
            .validate()
            .is_err());
        assert!(ClientPolicy::default()
            .with_timeout(0.0)
            .validate()
            .is_err());
        assert!(ClientPolicy::default()
            .with_hedge(f64::INFINITY)
            .validate()
            .is_err());
        assert!(ClientPolicy::default().with_hedge(0.2).validate().is_ok());
    }
}
