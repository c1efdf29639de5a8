//! Fault-tolerant network tier: a simulated link fabric plus a replicated
//! storage fleet.
//!
//! This module models remote storage as a *fabric* of named hosts and
//! shared links, and builds on it a **replicated storage fleet**: `N`
//! client hosts (each with a private page cache) talking to `M` storage
//! servers (each with its own page cache and disk), with files placed on
//! `R` replicas by a stable hash of the file name.
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
    check_write_range, clamp_io_range, FileId, FileTable, FsError, IoController, IoOpStats,
    MemoryManager, WriteMode, EPSILON,
};
use simfs::CachedFileSystem;
use storage_model::{AbortHandle, Disk, MemoryDevice, SharedResource, TransferOutcome};

use crate::backend::{crash_cached, model_profile, model_writeback, ScenarioError};
use crate::faults::{
    CrashReport, FileDurability, InjectedFault, InjectedFaultKind, OpClass, RetryPolicy,
};
use crate::platform::{DeviceSet, PlatformSpec, StorageKind};
use crate::report::{ProfileStats, WritebackCounters};

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
    fs: CachedFileSystem,
    alive: Cell<bool>,
}

struct ClientNode {
    host: String,
    /// The client's read cache and anonymous memory.
    io: IoController,
    /// Version of each file the client's read cache holds.
    versions: RefCell<BTreeMap<FileId, u64>>,
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

struct Fetched {
    server: usize,
    from_disk: f64,
    from_server_cache: f64,
}

struct FleetInner {
    ctx: SimContext,
    spec: FleetSpec,
    chunk_size: f64,
    fabric: Fabric,
    servers: Vec<ServerNode>,
    clients: Vec<ClientNode>,
    /// The fleet's file namespace: each file's authoritative size, and in
    /// its slot the file's latest successfully written version.
    files: RefCell<FileTable<u64>>,
    /// Version each replica has of each file.
    server_versions: RefCell<BTreeMap<(usize, FileId), u64>>,
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

    fn version(&self, file: &FileId) -> u64 {
        let files = self.files.borrow();
        files.key(file).map_or(0, |k| *files.get(k))
    }

    fn server_version(&self, server: usize, file: &FileId) -> u64 {
        self.server_versions
            .borrow()
            .get(&(server, file.clone()))
            .copied()
            .unwrap_or(0)
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
        let size = node
            .fs
            .memory_manager()
            .file_size(file)
            .map_err(|_| NetError::ServerUnavailable(node.host.clone()))?;
        let mut stats = IoOpStats::default();
        node.fs
            .io_controller()
            .read_chunk(file, size, amount.min(size), false, &mut stats)
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
        // A zero-length write still creates/extends the replica file.
        node.fs
            .reserve(file, offset, len)
            .map_err(ReplicaWriteError::Server)?;
        let mut stats = IoOpStats::default();
        let mut remaining = len;
        loop {
            let chunk = remaining.min(self.chunk_size);
            if chunk > EPSILON {
                self.fabric.transfer(client_host, &node.host, chunk).await?;
            }
            let st = node.fs.io_controller().write_amount(file, chunk).await;
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
            StorageKind::Nfs => platform.cache_config(platform.server_memory).writethrough(),
            _ => platform.cache_config(platform.server_memory),
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
            let mm = MemoryManager::new(ctx, server_cache, memory, disk);
            let io = IoController::new(ctx, mm).with_chunk_size(platform.chunk_size);
            servers.push(ServerNode {
                host,
                link,
                fs: CachedFileSystem::new(io),
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
            let mm = MemoryManager::new(
                ctx,
                platform.cache_config(platform.host_memory),
                memory,
                disk,
            );
            clients.push(ClientNode {
                host,
                io: IoController::new(ctx, mm).with_chunk_size(platform.chunk_size),
                versions: RefCell::new(BTreeMap::new()),
                degraded_reads: Cell::new(0),
                stale_reads: Cell::new(0),
            });
        }
        Ok(FleetClient {
            inner: Rc::new(FleetInner {
                ctx: ctx.clone(),
                spec: *spec,
                chunk_size: platform.chunk_size,
                fabric,
                servers,
                clients,
                files: RefCell::default(),
                server_versions: RefCell::new(BTreeMap::new()),
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
        node.fs.memory_manager().stop();
        self.inner.fabric.set_host_down(&node.host);
        let report = crash_cached(&node.fs);
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

    /// The filesystem of server `index`: its page cache, disk and files.
    #[cfg(test)]
    pub(crate) fn server_fs(&self, index: usize) -> &CachedFileSystem {
        &self.inner.servers[index].fs
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
                node.fs.create_file(file, size)?;
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
        let size = inner.files.borrow().size(file)?;
        let (_start, amount) = clamp_io_range(offset, len, size);
        let start = inner.ctx.now();
        let me = &inner.clients[self.client];
        let candidates = &inner.replicas_of(file);
        let mut stats = IoOpStats::default();
        let mut stale = false;
        let mut remaining = amount;
        while remaining > EPSILON {
            let chunk = remaining.min(inner.chunk_size);
            let read = me
                .io
                .read_chunk_via(file, size, chunk, true, &mut stats, |amount| async move {
                    let fetched = inner
                        .robust_fetch(self.client, candidates, file, amount)
                        .await?;
                    let version = inner.server_version(fetched.server, file);
                    me.versions.borrow_mut().insert(file.clone(), version);
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
            let version = me.versions.borrow().get(file).copied().unwrap_or(0);
            if version < inner.version(file) {
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
        let version = {
            let mut files = inner.files.borrow_mut();
            let key = files.extend(file, offset, len, |_| Ok(()))?;
            let version = files.get_mut(key);
            *version += 1;
            *version
        };
        {
            let mut server_versions = inner.server_versions.borrow_mut();
            for &server in &succeeded {
                server_versions.insert((server, file.clone()), version);
            }
        }
        // Close-to-open: the writer's own cached copy predates the write.
        let me = &inner.clients[self.client];
        me.io.memory_manager().invalidate_file(file);
        me.versions.borrow_mut().remove(file);
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
            if let Ok(st) = node.fs.fsync(file).await {
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
            let st = node.fs.sync().await;
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
            let mm = node.fs.memory_manager();
            if node.alive.get() && mm.config().write_mode == WriteMode::WriteBack {
                mm.spawn_periodical_flusher();
            }
        }
    }

    /// Stops the flushers of every live server.
    pub fn stop_background(&self) {
        for node in &self.inner.servers {
            if node.alive.get() {
                node.fs.memory_manager().stop();
            }
        }
    }

    /// Writeback/eviction counters summed over the servers' page caches.
    pub fn writeback_counters(&self) -> WritebackCounters {
        let mut total = WritebackCounters::default();
        for node in &self.inner.servers {
            let c = model_writeback(node.fs.memory_manager());
            total.background_flushed += c.background_flushed;
            total.synchronous_flushed += c.synchronous_flushed;
            total.evicted += c.evicted;
        }
        total
    }

    /// Work counters summed over the clients' and servers' caches and
    /// devices and the servers' links.
    pub(crate) fn profile(&self) -> ProfileStats {
        let mut total = ProfileStats::default();
        for client in &self.inner.clients {
            total.merge(&model_profile(client.io.memory_manager()));
        }
        for node in &self.inner.servers {
            total.merge(&model_profile(node.fs.memory_manager()));
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
                crash_cached(&node.fs)
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
            client.versions.borrow_mut().clear();
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
