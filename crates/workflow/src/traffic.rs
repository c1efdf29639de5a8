//! Request-serving traffic tier: synthetic load generation over any
//! [`Backend`].
//!
//! Where a [`TaskSpec`](crate::TaskSpec) program is a *fixed* sequence of
//! operations, a [`TrafficSpec`] describes a *stream* of requests against a
//! catalog of files:
//!
//! * **Arrival process** — [`LoopMode::Open`] issues requests at a target
//!   rate with Poisson (or deterministic) interarrival times regardless of
//!   how fast the system serves them, so queueing delay shows up in the
//!   latency of every request behind a slow one. [`LoopMode::Closed`] runs
//!   `clients` concurrent loops that each wait for their response and think
//!   before the next request, so offered load self-throttles under
//!   saturation.
//! * **Popularity** — which file a request touches is drawn from a
//!   Zipf(α) distribution over the catalog: rank-`k` popularity ∝ `k^-α`.
//!   α = 0 is uniform; α ≈ 1 matches classic web/content-serving skew.
//! * **Op mix** — each request is a read with probability
//!   [`TrafficSpec::read_fraction`], else a write; request sizes and offsets
//!   are drawn from the request-size distribution within the target file.
//! * **Catalog** — files are created lazily on first touch, sized by a
//!   per-file size distribution around [`TrafficSpec::mean_file_size`], so
//!   catalogs of thousands to millions of files cost nothing until touched.
//!
//! Every random draw comes from seeded, generator-local xorshift streams
//! computed *before* the simulation starts, so runs are bit-reproducible at
//! any harness thread count.
//!
//! Latencies are recorded per op class into fixed log-bucket
//! [`LatencyHistogram`]s (deterministic: no sampling, no reservoir) and
//! surfaced as p50/p90/p99/p999 in a [`TrafficGenReport`], next to
//! throughput and time-weighted in-flight-concurrency statistics.
//!
//! # Tenancy
//!
//! A [`TenantSpec`] assigns the generator's catalog to a cache group with
//! memcg-style limits: after each completed request the generator asks the
//! back-end to enforce `max_cache_bytes` / `max_dirty_bytes` on its group
//! (writing back and evicting *only that group's* pages: both models'
//! `enforce_group_limits` run their ordinary writeback and eviction loops
//! under a [`pagecache::ReclaimScope::Group`] scope). Two generators on one
//! host can therefore model a noisy neighbor with and without cache
//! isolation.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use des::{JoinHandle, SimContext};
use pagecache::{FileId, IoOpStats};

use crate::backend::{Backend, ScenarioError};
use crate::faults::{FaultState, OpClass};

/// Lowest latency resolved by the histogram, seconds. Everything below lands
/// in the first bucket.
const HIST_LOW: f64 = 1e-6;
/// Geometric growth factor between bucket bounds. The quantile error of the
/// histogram is bounded by one bucket: a factor of `HIST_GROWTH`.
const HIST_GROWTH: f64 = 1.25;
/// Number of buckets: covers `1e-6 s .. ~2e6 s` before the overflow bucket.
const HIST_BUCKETS: usize = 128;

/// Deterministic xorshift64 stream (same shift triple as the harness PRNG).
#[derive(Debug, Clone)]
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        // Scramble the seed so consecutive seeds give unrelated streams, and
        // keep the state nonzero (xorshift fixes the zero state).
        XorShift(
            seed.wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(0x9E37_79B9_7F4A_7C15)
                | 1,
        )
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform draw in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(α) sampler over ranks `0..n` by inversion of the precomputed
/// cumulative weights (rank-`k` weight `(k+1)^-α`). Sampling is a binary
/// search: O(log n) per draw, O(n) setup.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for a catalog of `n ≥ 1` files.
    ///
    /// # Panics
    /// Panics if `n == 0` or `alpha` is negative or non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n >= 1, "Zipf catalog must hold at least one file");
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "Zipf alpha must be finite and >= 0"
        );
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-alpha);
            cumulative.push(total);
        }
        ZipfSampler { cumulative }
    }

    /// Maps a uniform draw `u ∈ [0, 1)` to a rank in `0..n`.
    pub fn sample(&self, u: f64) -> usize {
        let total = *self.cumulative.last().expect("non-empty catalog");
        let target = u * total;
        self.cumulative
            .partition_point(|&c| c <= target)
            .min(self.cumulative.len() - 1)
    }
}

/// Fixed log-bucket latency histogram.
///
/// Bucket `i` covers `[HIST_LOW·G^(i-1), HIST_LOW·G^i)` with `G = 1.25`
/// (`HIST_GROWTH`; bucket 0 covers everything below `HIST_LOW = 1 µs`, the last
/// bucket everything above the top bound), so any quantile is off from the
/// exact sample quantile by at most one bucket — a factor of `G`. Bucket
/// bounds are fixed at construction: recording and quantile extraction are
/// deterministic regardless of insertion order.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    uppers: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        let mut uppers = Vec::with_capacity(HIST_BUCKETS);
        let mut bound = HIST_LOW;
        for _ in 0..HIST_BUCKETS - 1 {
            uppers.push(bound);
            bound *= HIST_GROWTH;
        }
        uppers.push(f64::INFINITY);
        LatencyHistogram {
            uppers,
            counts: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    /// Records one sample (negative samples clamp to zero).
    pub fn record(&mut self, value: f64) {
        let v = value.max(0.0);
        let bucket = self.uppers.partition_point(|&u| u <= v);
        self.counts[bucket.min(HIST_BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded samples (tracked outside the buckets).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact maximum of the recorded samples (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`0 < q ≤ 1`): the upper bound of the bucket holding
    /// the sample of rank `⌈q·count⌉`, clamped to the exact observed
    /// `[min, max]`. Within a factor of `HIST_GROWTH` of the exact sample
    /// quantile; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.uppers[i].clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// How requests are issued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoopMode {
    /// Open loop: requests arrive at `rate` per second regardless of how
    /// fast they complete. `poisson` draws exponential interarrival gaps;
    /// otherwise arrivals are deterministic at `1/rate`.
    Open {
        /// Target arrival rate, requests per second.
        rate: f64,
        /// Poisson (exponential gaps) vs. deterministic arrivals.
        poisson: bool,
    },
    /// Closed loop: `clients` concurrent clients that each issue a request,
    /// wait for the response, think for `think_time` seconds, and repeat.
    Closed {
        /// Number of concurrent clients.
        clients: usize,
        /// Per-client pause between response and next request, seconds.
        think_time: f64,
    },
}

/// Memcg-style cache limits for one traffic generator's catalog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Maximum page-cache bytes (clean + dirty) the tenant's files may hold.
    pub max_cache_bytes: f64,
    /// Maximum dirty bytes the tenant's files may hold.
    pub max_dirty_bytes: f64,
}

impl TenantSpec {
    /// A tenant capped at `max_cache_bytes` of cache, with the dirty limit
    /// at half the cache limit.
    pub fn capped(max_cache_bytes: f64) -> Self {
        TenantSpec {
            max_cache_bytes,
            max_dirty_bytes: max_cache_bytes / 2.0,
        }
    }
}

/// One synthetic request stream: arrival process, popularity skew, op mix,
/// catalog shape, and (optionally) tenancy limits. All knobs default to a
/// modest read-mostly Zipf workload; every random stream derives from
/// [`TrafficSpec::seed`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Generator name; also the directory prefix of its catalog files
    /// (`traffic/<name>/f<idx>`).
    pub name: String,
    /// Open- or closed-loop issue discipline.
    pub mode: LoopMode,
    /// Total number of requests the generator issues.
    pub requests: usize,
    /// Number of files in the catalog (created lazily on first touch).
    pub catalog_files: usize,
    /// Mean file size, bytes; per-file sizes are uniform in
    /// `[0.5, 1.5) × mean`.
    pub mean_file_size: f64,
    /// Zipf popularity exponent α (0 = uniform).
    pub zipf_alpha: f64,
    /// Probability that a request is a read (the rest are writes).
    pub read_fraction: f64,
    /// Mean request size, bytes; per-request sizes are uniform in
    /// `[0.5, 1.5) × mean`, clamped to the target file.
    pub request_bytes: f64,
    /// Seed of the generator's random streams.
    pub seed: u64,
    /// Number of leading requests whose latencies are *not* recorded in the
    /// histograms (cache warmup): percentiles then measure steady state
    /// rather than the cold start. All other statistics still count warmup
    /// requests.
    pub warmup: usize,
    /// Cache-group limits; `None` runs without isolation.
    pub tenant: Option<TenantSpec>,
}

impl TrafficSpec {
    fn base(name: impl Into<String>, mode: LoopMode, requests: usize) -> Self {
        TrafficSpec {
            name: name.into(),
            mode,
            requests,
            catalog_files: 100,
            mean_file_size: 4.0 * 1e6,
            zipf_alpha: 1.0,
            read_fraction: 0.9,
            request_bytes: 1.0 * 1e6,
            seed: 1,
            warmup: 0,
            tenant: None,
        }
    }

    /// An open-loop generator with Poisson arrivals at `rate` requests/s.
    pub fn open(name: impl Into<String>, rate: f64, requests: usize) -> Self {
        Self::base(
            name,
            LoopMode::Open {
                rate,
                poisson: true,
            },
            requests,
        )
    }

    /// A closed-loop generator of `clients` concurrent clients with the
    /// given think time.
    pub fn closed(
        name: impl Into<String>,
        clients: usize,
        think_time: f64,
        requests: usize,
    ) -> Self {
        TrafficSpec::base(
            name,
            LoopMode::Closed {
                clients,
                think_time,
            },
            requests,
        )
    }

    /// Switches an open-loop generator to deterministic (non-Poisson)
    /// arrivals; no-op for closed loops.
    pub fn with_deterministic_arrivals(mut self) -> Self {
        if let LoopMode::Open { rate, .. } = self.mode {
            self.mode = LoopMode::Open {
                rate,
                poisson: false,
            };
        }
        self
    }

    /// Sets the catalog shape: number of files and mean file size.
    pub fn with_catalog(mut self, files: usize, mean_file_size: f64) -> Self {
        self.catalog_files = files;
        self.mean_file_size = mean_file_size;
        self
    }

    /// Sets the Zipf popularity exponent.
    pub fn with_zipf(mut self, alpha: f64) -> Self {
        self.zipf_alpha = alpha;
        self
    }

    /// Sets the fraction of requests that are reads.
    pub fn with_read_fraction(mut self, fraction: f64) -> Self {
        self.read_fraction = fraction;
        self
    }

    /// Sets the mean request size in bytes.
    pub fn with_request_bytes(mut self, bytes: f64) -> Self {
        self.request_bytes = bytes;
        self
    }

    /// Sets the seed of the generator's random streams.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Excludes the first `warmup` requests from the latency histograms.
    pub fn with_warmup(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self
    }

    /// Attaches tenancy limits (cache-group isolation).
    pub fn with_tenant(mut self, tenant: TenantSpec) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Validates the spec before any simulation runs.
    pub fn validate(&self) -> Result<(), String> {
        let err = |msg: String| Err(format!("traffic '{}': {msg}", self.name));
        if self.name.is_empty() {
            return Err("traffic generator name must not be empty".to_string());
        }
        if self.requests == 0 {
            return err("at least one request is required".to_string());
        }
        if self.catalog_files == 0 {
            return err("the catalog must hold at least one file".to_string());
        }
        if !(self.mean_file_size.is_finite() && self.mean_file_size > 0.0) {
            return err(format!(
                "mean file size {} must be finite and > 0",
                self.mean_file_size
            ));
        }
        if !(self.zipf_alpha.is_finite() && self.zipf_alpha >= 0.0) {
            return err(format!(
                "zipf alpha {} must be finite and >= 0",
                self.zipf_alpha
            ));
        }
        if !(0.0..=1.0).contains(&self.read_fraction) || self.read_fraction.is_nan() {
            return err(format!(
                "read fraction {} must be within [0, 1]",
                self.read_fraction
            ));
        }
        if !(self.request_bytes.is_finite() && self.request_bytes > 0.0) {
            return err(format!(
                "request size {} must be finite and > 0",
                self.request_bytes
            ));
        }
        if self.warmup >= self.requests {
            return err(format!(
                "warmup {} must leave at least one measured request of {}",
                self.warmup, self.requests
            ));
        }
        match self.mode {
            LoopMode::Open { rate, .. } => {
                if !(rate.is_finite() && rate > 0.0) {
                    return err(format!("open-loop rate {rate} must be finite and > 0"));
                }
            }
            LoopMode::Closed {
                clients,
                think_time,
            } => {
                if clients == 0 {
                    return err("closed loop needs at least one client".to_string());
                }
                if !(think_time.is_finite() && think_time >= 0.0) {
                    return err(format!("think time {think_time} must be finite and >= 0"));
                }
            }
        }
        if let Some(t) = &self.tenant {
            if !(t.max_cache_bytes.is_finite() && t.max_cache_bytes > 0.0) {
                return err(format!(
                    "tenant cache limit {} must be finite and > 0",
                    t.max_cache_bytes
                ));
            }
            if !(t.max_dirty_bytes.is_finite() && t.max_dirty_bytes >= 0.0) {
                return err(format!(
                    "tenant dirty limit {} must be finite and >= 0",
                    t.max_dirty_bytes
                ));
            }
            if t.max_dirty_bytes > t.max_cache_bytes {
                return err(format!(
                    "tenant dirty limit {} exceeds its cache limit {}",
                    t.max_dirty_bytes, t.max_cache_bytes
                ));
            }
        }
        Ok(())
    }
}

/// Latency percentile summary of one op class of one generator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of completed operations of the class.
    pub count: u64,
    /// Exact mean latency, seconds.
    pub mean: f64,
    /// Median latency (log-bucket quantile), seconds.
    pub p50: f64,
    /// 90th percentile latency, seconds.
    pub p90: f64,
    /// 99th percentile latency, seconds.
    pub p99: f64,
    /// 99.9th percentile latency, seconds.
    pub p999: f64,
    /// Exact maximum latency, seconds.
    pub max: f64,
}

impl LatencySummary {
    fn from_histogram(h: &LatencyHistogram) -> Self {
        LatencySummary {
            count: h.count(),
            mean: h.mean(),
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
            max: h.max(),
        }
    }
}

/// Result of one traffic generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficGenReport {
    /// Generator name.
    pub name: String,
    /// Requests issued (dispatched past the fault gate or failed at it).
    pub issued: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests killed by injected faults.
    pub failed: u64,
    /// Latency summary of completed reads. Open-loop latency counts from the
    /// request's *intended arrival* (queueing included); closed-loop latency
    /// is pure service time.
    pub read_latency: LatencySummary,
    /// Latency summary of completed writes.
    pub write_latency: LatencySummary,
    /// Completed requests per second of generator activity.
    pub throughput_rps: f64,
    /// Time-weighted mean number of in-flight requests.
    pub mean_in_flight: f64,
    /// Peak number of simultaneously in-flight requests.
    pub peak_in_flight: u64,
    /// Bytes read by completed read requests.
    pub bytes_read: f64,
    /// Bytes written by completed write requests.
    pub bytes_written: f64,
    /// Fraction of read bytes served from the page cache.
    pub cache_hit_ratio: f64,
    /// Bytes evicted by tenant-limit enforcement (0 without a tenant).
    pub limit_evicted: f64,
    /// Bytes flushed by tenant-limit enforcement (0 without a tenant).
    pub limit_flushed: f64,
}

/// Results of every traffic generator of a scenario, in spec order.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficReport {
    /// Per-generator reports.
    pub generators: Vec<TrafficGenReport>,
}

impl TrafficReport {
    /// The report of the generator named `name`, if any.
    pub fn generator(&self, name: &str) -> Option<&TrafficGenReport> {
        self.generators.iter().find(|g| g.name == name)
    }
}

/// A fully resolved request: target file (by catalog index), op class,
/// range, and the gap to the previous arrival (open loop) — precomputed
/// deterministically before the simulation starts.
#[derive(Debug, Clone, Copy)]
struct Request {
    file: usize,
    is_read: bool,
    offset: f64,
    len: f64,
    gap: f64,
    /// `false` for warmup requests: the request runs but its latency is not
    /// recorded.
    record: bool,
}

/// Mutable run state of one generator, shared by its request tasks.
struct GenState {
    /// The id of each catalog file, by catalog index, once created: later
    /// requests clone it instead of naming the file again.
    files: Vec<Option<FileId>>,
    issued: u64,
    completed: u64,
    failed: u64,
    read_hist: LatencyHistogram,
    write_hist: LatencyHistogram,
    io: IoOpStats,
    bytes_read: f64,
    bytes_written: f64,
    in_flight: u64,
    peak_in_flight: u64,
    conc_integral: f64,
    last_change: f64,
    last_done: f64,
    limit_evicted: f64,
    limit_flushed: f64,
}

impl GenState {
    fn new(start: f64, catalog_files: usize) -> Self {
        GenState {
            files: vec![None; catalog_files],
            issued: 0,
            completed: 0,
            failed: 0,
            read_hist: LatencyHistogram::new(),
            write_hist: LatencyHistogram::new(),
            io: IoOpStats::default(),
            bytes_read: 0.0,
            bytes_written: 0.0,
            in_flight: 0,
            peak_in_flight: 0,
            conc_integral: 0.0,
            last_change: start,
            last_done: start,
            limit_evicted: 0.0,
            limit_flushed: 0.0,
        }
    }

    fn note_in_flight(&mut self, now: f64, delta: i64) {
        self.conc_integral += self.in_flight as f64 * (now - self.last_change);
        self.last_change = now;
        self.in_flight = self.in_flight.checked_add_signed(delta).expect("in-flight");
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight);
    }
}

/// Deterministic per-file size: uniform in `[0.5, 1.5) × mean`, derived from
/// the spec seed and the catalog index only (not from draw order).
fn file_size(spec: &TrafficSpec, idx: usize) -> f64 {
    let mut rng = XorShift::new(spec.seed ^ (idx as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    spec.mean_file_size * (0.5 + rng.next_f64())
}

/// Precomputes the full request stream of a generator from its seed.
fn plan_requests(spec: &TrafficSpec) -> Vec<Request> {
    let zipf = ZipfSampler::new(spec.catalog_files, spec.zipf_alpha);
    // Independent streams per concern: adding a knob that consumes more
    // draws from one stream cannot shift the draws of another.
    let mut pop = XorShift::new(spec.seed ^ 0x504f_5055_4c41_5249); // "POPULARI"
    let mut op = XorShift::new(spec.seed ^ 0x4f50_434c_4153_5321); // "OPCLASS!"
    let mut size = XorShift::new(spec.seed ^ 0x5245_5153_495a_4553); // "REQSIZES"
    let mut time = XorShift::new(spec.seed ^ 0x4152_5249_5641_4c53); // "ARRIVALS"
    let mut requests = Vec::with_capacity(spec.requests);
    for index in 0..spec.requests {
        let file = zipf.sample(pop.next_f64());
        let fsize = file_size(spec, file);
        let is_read = op.next_f64() < spec.read_fraction;
        let len = (spec.request_bytes * (0.5 + size.next_f64())).min(fsize);
        let offset = size.next_f64() * (fsize - len);
        let gap = match spec.mode {
            LoopMode::Open { rate, poisson } => {
                if poisson {
                    -(1.0 - time.next_f64()).ln() / rate
                } else {
                    1.0 / rate
                }
            }
            LoopMode::Closed { think_time, .. } => think_time,
        };
        requests.push(Request {
            file,
            is_read,
            offset,
            len,
            gap,
            record: index >= spec.warmup,
        });
    }
    requests
}

/// The catalog file id of index `idx` of generator `spec`.
fn catalog_file(spec: &TrafficSpec, idx: usize) -> FileId {
    FileId::new(format!("traffic/{}/f{idx:06}", spec.name))
}

/// The per-generator context shared by every in-flight request of one
/// generator: the engine handle, the back-end, the spec, the tenant cache
/// group, the mutable stats, and the fault schedule.
struct GenCtx {
    ctx: SimContext,
    backend: Backend,
    spec: Rc<TrafficSpec>,
    group: u32,
    state: Rc<RefCell<GenState>>,
    faults: Rc<FaultState>,
}

/// Executes one request end to end: fault gate, lazy catalog creation, the
/// I/O itself, latency/stat recording, and tenant-limit enforcement.
/// `base` is the instant latency is measured from (intended arrival for
/// open loops, issue time for closed loops).
async fn execute_request(gen: Rc<GenCtx>, req: Request, base: f64) -> Result<(), ScenarioError> {
    let GenCtx {
        ctx,
        backend,
        spec,
        group,
        state,
        faults,
    } = &*gen;
    let group = *group;
    let known = state.borrow().files[req.file].clone();
    let first_touch = known.is_none();
    let id = known.unwrap_or_else(|| catalog_file(spec, req.file));
    let class = if req.is_read {
        OpClass::Read
    } else {
        OpClass::Write
    };
    state.borrow_mut().issued += 1;
    if let Some(_fault) = faults.check(ctx.now().as_secs(), class, Some(id.name()), Some(&id), 1) {
        let mut s = state.borrow_mut();
        s.failed += 1;
        s.last_done = ctx.now().as_secs();
        return Ok(());
    }
    // Lazy catalog: the file springs into existence (and into the tenant's
    // cache group) on first touch.
    if first_touch {
        state.borrow_mut().files[req.file] = Some(id.clone());
        backend.create_file(&id, file_size(spec, req.file))?;
        if spec.tenant.is_some() {
            backend.set_file_group(&id, group);
        }
    }
    state.borrow_mut().note_in_flight(ctx.now().as_secs(), 1);
    let result = if req.is_read {
        backend.read_range(&id, req.offset, req.len).await
    } else {
        backend.write_range(&id, req.offset, req.len).await
    };
    let now = ctx.now().as_secs();
    state.borrow_mut().note_in_flight(now, -1);
    match result {
        Ok(stats) => {
            let mut s = state.borrow_mut();
            let latency = now - base;
            if req.is_read {
                if req.record {
                    s.read_hist.record(latency);
                }
                s.bytes_read += req.len;
            } else {
                if req.record {
                    s.write_hist.record(latency);
                }
                s.bytes_written += req.len;
            }
            s.io.merge(&stats);
            s.completed += 1;
            s.last_done = now;
        }
        Err(ScenarioError::Injected(_fault)) => {
            let mut s = state.borrow_mut();
            s.failed += 1;
            s.last_done = now;
        }
        Err(error) => return Err(error),
    }
    if let Some(tenant) = &spec.tenant {
        let (evicted, flushed) = backend
            .enforce_group_limits(group, tenant.max_cache_bytes, tenant.max_dirty_bytes)
            .await;
        let mut s = state.borrow_mut();
        s.limit_evicted += evicted;
        s.limit_flushed += flushed;
    }
    Ok(())
}

/// Runs one traffic generator to completion and returns its report.
/// `group` is the cache-group id its catalog is assigned to when a tenant
/// spec is present.
pub(crate) async fn run_generator(
    ctx: &SimContext,
    backend: &Backend,
    spec: &TrafficSpec,
    group: u32,
    faults: &Rc<FaultState>,
) -> Result<TrafficGenReport, ScenarioError> {
    let requests = plan_requests(spec);
    let start = ctx.now().as_secs();
    let state = Rc::new(RefCell::new(GenState::new(start, spec.catalog_files)));
    let gen = Rc::new(GenCtx {
        ctx: ctx.clone(),
        backend: backend.clone(),
        spec: Rc::new(spec.clone()),
        group,
        state: Rc::clone(&state),
        faults: Rc::clone(faults),
    });
    match spec.mode {
        LoopMode::Open { .. } => {
            // Dispatcher: sleep to each precomputed arrival instant and spawn
            // the request as its own task, so a slow response delays nothing
            // behind it (the open-loop property). The handles of finished
            // requests are released from the front as it goes, so a long
            // run keeps only the in-flight ones alive and the allocator
            // reuses their memory. The first error in request order wins,
            // as if every handle were awaited in order at the end: the
            // requests still unfinished then are awaited in that order.
            let mut handles: VecDeque<JoinHandle<_>> = VecDeque::new();
            let mut first_error = None;
            let mut arrival = start;
            for req in requests {
                arrival += req.gap;
                let now = ctx.now().as_secs();
                if arrival > now {
                    ctx.sleep(arrival - now).await;
                }
                if faults.crashed() {
                    break;
                }
                while let Some(handle) = handles.pop_front_if(|h| h.is_finished()) {
                    if let Some(Err(error)) = handle.try_take_result() {
                        first_error.get_or_insert(error);
                    }
                }
                let fut = execute_request(Rc::clone(&gen), req, arrival);
                handles.push_back(ctx.spawn(fut));
            }
            if let Some(error) = first_error {
                return Err(error);
            }
            for handle in handles {
                handle.await?;
            }
        }
        LoopMode::Closed { clients, .. } => {
            let mut handles = Vec::with_capacity(clients);
            for client in 0..clients {
                let ctx2 = ctx.clone();
                let gen = Rc::clone(&gen);
                let faults = Rc::clone(faults);
                // Client `c` serves requests c, c+N, c+2N, ... in order, so
                // the partition (and with it every random draw) is
                // independent of completion timing.
                let mine: Vec<Request> = requests
                    .iter()
                    .skip(client)
                    .step_by(clients)
                    .copied()
                    .collect();
                handles.push(ctx.spawn(async move {
                    for req in mine {
                        if faults.crashed() {
                            break;
                        }
                        let base = ctx2.now().as_secs();
                        execute_request(Rc::clone(&gen), req, base).await?;
                        if req.gap > 0.0 {
                            ctx2.sleep(req.gap).await;
                        }
                    }
                    Ok::<(), ScenarioError>(())
                }));
            }
            for handle in handles {
                handle.await?;
            }
        }
    }
    let state = state.borrow();
    let elapsed = state.last_done - start;
    Ok(TrafficGenReport {
        name: spec.name.clone(),
        issued: state.issued,
        completed: state.completed,
        failed: state.failed,
        read_latency: LatencySummary::from_histogram(&state.read_hist),
        write_latency: LatencySummary::from_histogram(&state.write_hist),
        throughput_rps: if elapsed > 0.0 {
            state.completed as f64 / elapsed
        } else {
            0.0
        },
        mean_in_flight: if elapsed > 0.0 {
            state.conc_integral / elapsed
        } else {
            0.0
        },
        peak_in_flight: state.peak_in_flight,
        bytes_read: state.bytes_read,
        bytes_written: state.bytes_written,
        cache_hit_ratio: state.io.cache_hit_ratio(),
        limit_evicted: state.limit_evicted,
        limit_flushed: state.limit_flushed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // --- Zipf sampler ---

    fn draw_counts(n: usize, alpha: f64, draws: usize) -> Vec<u64> {
        let zipf = ZipfSampler::new(n, alpha);
        let mut rng = XorShift::new(42);
        let mut counts = vec![0u64; n];
        for _ in 0..draws {
            counts[zipf.sample(rng.next_f64())] += 1;
        }
        counts
    }

    /// Least-squares slope of ln(count) against ln(rank) over the top ranks;
    /// for a Zipf(α) sample it should be ≈ -α.
    fn log_log_slope(counts: &[u64], top: usize) -> f64 {
        let points: Vec<(f64, f64)> = counts
            .iter()
            .take(top)
            .enumerate()
            .map(|(i, &c)| ((i as f64 + 1.0).ln(), (c.max(1) as f64).ln()))
            .collect();
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|p| p.0).sum();
        let sy: f64 = points.iter().map(|p| p.1).sum();
        let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
        (n * sxy - sx * sy) / (n * sxx - sx * sx)
    }

    #[test]
    fn zipf_frequency_follows_rank_slope() {
        for alpha in [0.8, 1.0, 1.2] {
            let counts = draw_counts(100, alpha, 100_000);
            // Frequencies must decay with rank.
            assert!(counts[0] > counts[10] && counts[10] > counts[50]);
            let slope = log_log_slope(&counts, 20);
            assert!(
                (slope + alpha).abs() < 0.1,
                "alpha {alpha}: slope {slope}, expected {}",
                -alpha
            );
        }
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let n = 50;
        let draws = 100_000;
        let counts = draw_counts(n, 0.0, draws);
        let expected = draws as f64 / n as f64;
        for (rank, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < 0.15 * expected,
                "rank {rank}: {c} draws, expected ~{expected}"
            );
        }
    }

    #[test]
    fn zipf_catalog_of_one_always_samples_it() {
        let zipf = ZipfSampler::new(1, 1.2);
        let mut rng = XorShift::new(7);
        for _ in 0..1000 {
            assert_eq!(zipf.sample(rng.next_f64()), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one file")]
    fn zipf_empty_catalog_panics() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    // --- Histogram: randomized differential oracle vs. sorted samples ---

    /// Naive model: exact quantile by sorting all samples.
    fn naive_quantile(samples: &[f64], q: f64) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn histogram_quantiles_match_naive_model_within_one_bucket() {
        for seed in [3, 17, 99, 2024, 4096] {
            let mut rng = XorShift::new(seed);
            let mut hist = LatencyHistogram::new();
            let mut samples = Vec::new();
            for _ in 0..2000 {
                // Log-uniform latencies spanning 1 µs .. 10 s.
                let v = (1e-6f64.ln() + rng.next_f64() * (1e7f64).ln()).exp();
                hist.record(v);
                samples.push(v);
            }
            assert_eq!(hist.count(), samples.len() as u64);
            let exact_mean = samples.iter().sum::<f64>() / samples.len() as f64;
            assert!((hist.mean() - exact_mean).abs() < 1e-9 * exact_mean);
            for q in [0.5, 0.9, 0.99, 0.999] {
                let exact = naive_quantile(&samples, q);
                let approx = hist.quantile(q);
                // The histogram quantile may be off by at most one log
                // bucket in either direction.
                assert!(
                    approx >= exact / HIST_GROWTH - 1e-12 && approx <= exact * HIST_GROWTH + 1e-12,
                    "seed {seed} q {q}: histogram {approx} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn histogram_edge_cases() {
        let empty = LatencyHistogram::new();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.quantile(0.99), 0.0);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.max(), 0.0);

        let mut one = LatencyHistogram::new();
        one.record(0.0123);
        for q in [0.5, 0.99, 0.999] {
            let v = one.quantile(q);
            assert!(v > 0.0123 / HIST_GROWTH && v <= 0.0123 + 1e-12, "{v}");
        }
        assert_eq!(one.max(), 0.0123);

        // Sub-resolution and negative samples land in the first bucket.
        let mut tiny = LatencyHistogram::new();
        tiny.record(1e-9);
        tiny.record(-5.0);
        assert_eq!(tiny.count(), 2);
        assert!(tiny.quantile(0.5) <= HIST_LOW);
    }

    #[test]
    fn histogram_quantiles_are_insertion_order_independent() {
        let values: Vec<f64> = (0..500).map(|i| 1e-5 * 1.02f64.powi(i)).collect();
        let mut forward = LatencyHistogram::new();
        let mut backward = LatencyHistogram::new();
        for &v in &values {
            forward.record(v);
        }
        for &v in values.iter().rev() {
            backward.record(v);
        }
        // The bucket contents (and so every quantile) are identical; only
        // the float `sum` may differ in the last bits with insertion order.
        assert_eq!(forward.counts, backward.counts);
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(
                forward.quantile(q).to_bits(),
                backward.quantile(q).to_bits()
            );
        }
    }

    // --- Spec validation and planning ---

    #[test]
    fn spec_validation_rejects_bad_knobs() {
        assert!(TrafficSpec::open("t", 100.0, 50).validate().is_ok());
        assert!(TrafficSpec::open("t", 0.0, 50).validate().is_err());
        assert!(TrafficSpec::open("t", 100.0, 0).validate().is_err());
        assert!(TrafficSpec::closed("t", 0, 0.1, 50).validate().is_err());
        assert!(TrafficSpec::closed("t", 4, -1.0, 50).validate().is_err());
        assert!(TrafficSpec::open("t", 1.0, 5)
            .with_catalog(0, 1e6)
            .validate()
            .is_err());
        assert!(TrafficSpec::open("t", 1.0, 5)
            .with_zipf(f64::NAN)
            .validate()
            .is_err());
        assert!(TrafficSpec::open("t", 1.0, 5)
            .with_read_fraction(1.5)
            .validate()
            .is_err());
        assert!(TrafficSpec::open("t", 1.0, 5)
            .with_tenant(TenantSpec {
                max_cache_bytes: 1e6,
                max_dirty_bytes: 2e6,
            })
            .validate()
            .is_err());
        assert!(TrafficSpec::open("t", 1.0, 5)
            .with_tenant(TenantSpec::capped(64e6))
            .validate()
            .is_ok());
    }

    #[test]
    fn planned_requests_are_deterministic_and_in_bounds() {
        let spec = TrafficSpec::open("plan", 200.0, 500)
            .with_catalog(40, 8e6)
            .with_read_fraction(0.7)
            .with_seed(9);
        let a = plan_requests(&spec);
        let b = plan_requests(&spec);
        assert_eq!(a.len(), 500);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.file, y.file);
            assert_eq!(x.is_read, y.is_read);
            assert_eq!(x.offset.to_bits(), y.offset.to_bits());
            assert_eq!(x.len.to_bits(), y.len.to_bits());
            assert_eq!(x.gap.to_bits(), y.gap.to_bits());
        }
        let reads = a.iter().filter(|r| r.is_read).count();
        assert!((reads as f64 / 500.0 - 0.7).abs() < 0.08, "{reads}");
        for r in &a {
            assert!(r.file < 40);
            let fsize = file_size(&spec, r.file);
            assert!((4e6..12e6).contains(&fsize));
            assert!(r.len > 0.0 && r.offset >= 0.0);
            assert!(r.offset + r.len <= fsize + 1e-6);
            assert!(r.gap >= 0.0);
        }
        // A different seed moves the stream.
        let c = plan_requests(&TrafficSpec::open("plan", 200.0, 500).with_seed(10));
        assert!(a.iter().zip(&c).any(|(x, y)| x.file != y.file));
    }

    #[test]
    fn warmup_requests_are_planned_but_unrecorded() {
        let spec = TrafficSpec::open("w", 100.0, 50).with_warmup(20);
        let plan = plan_requests(&spec);
        assert!(plan[..20].iter().all(|r| !r.record));
        assert!(plan[20..].iter().all(|r| r.record));
        // The warmup knob changes no other planned field.
        let bare = plan_requests(&TrafficSpec::open("w", 100.0, 50));
        for (a, b) in plan.iter().zip(&bare) {
            assert_eq!((a.file, a.is_read), (b.file, b.is_read));
        }
        // Warmup must leave at least one measured request.
        assert!(TrafficSpec::open("w", 100.0, 50)
            .with_warmup(50)
            .validate()
            .is_err());
    }

    #[test]
    fn deterministic_arrivals_have_fixed_gaps() {
        let spec = TrafficSpec::open("d", 50.0, 20).with_deterministic_arrivals();
        for r in plan_requests(&spec) {
            assert_eq!(r.gap, 1.0 / 50.0);
        }
    }

    // --- Request errors ---

    #[test]
    fn a_catalog_that_overflows_the_disk_fails_with_the_first_request_in_order() {
        use crate::backend::SimulatorKind;
        use crate::platform::PlatformSpec;
        use crate::runner::{run_scenario, Scenario};
        use crate::spec::ApplicationSpec;
        use pagecache::FsError;
        use storage_model::units::{GB, MB};
        use storage_model::DeviceSpec;

        // Reads only: no write can extend a file, so the disk fills with
        // catalog files alone, created in request order on first touch.
        let capacity = 40.0 * MB;
        let spec = TrafficSpec::open("full", 400.0, 300)
            .with_catalog(40, 4.0 * MB)
            .with_request_bytes(1.0 * MB)
            .with_read_fraction(1.0)
            .with_seed(17);
        let (mut used, mut touched) = (0.0, vec![false; spec.catalog_files]);
        let (index, requested, available) = plan_requests(&spec)
            .iter()
            .enumerate()
            .filter(|(_, r)| !std::mem::replace(&mut touched[r.file], true))
            .find_map(|(i, r)| {
                let size = file_size(&spec, r.file);
                let available = (capacity - used).max(0.0);
                if size > available {
                    return Some((i, size, available));
                }
                used += size;
                None
            })
            .expect("the catalog overflows the disk");
        assert!(index > 0, "some requests succeed first");
        let platform = PlatformSpec::uniform(
            8.0 * GB,
            DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
            DeviceSpec::symmetric(465.0 * MB, 0.0, capacity),
        );
        for kind in [SimulatorKind::PageCache, SimulatorKind::KernelEmu] {
            let scenario = Scenario::new(platform.clone(), ApplicationSpec::new("none"), kind)
                .with_traffic(vec![spec.clone()]);
            match run_scenario(&scenario) {
                Err(ScenarioError::Filesystem(FsError::DiskFull(e))) => {
                    assert_eq!(
                        (e.requested, e.available),
                        (requested, available),
                        "{kind:?}"
                    );
                }
                other => panic!("{kind:?}: expected a full disk, got {other:?}"),
            }
        }
    }
}
