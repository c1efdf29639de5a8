//! Complexity regression test for the LRU lists, on their work counters.
//!
//! A content server's stream: Zipf-popular catalog files read whole (a read
//! of cached data promotes it), eviction under memory pressure, and one
//! request in ten a small upload appended to a log that is never read back.
//! The upload's dirty data does not expire within the run, so it piles up at
//! the head of the inactive list, and demotions insert active blocks behind
//! it. Two costs must not grow with the length of the run:
//!
//! * eviction walks only clean blocks, so it never steps over that pile;
//! * a demotion's sorted insert walks a bounded distance, so the walk steps
//!   grow linearly with the number of requests.

use des::SimTime;
use pagecache::{CacheState, CacheWork, FileId, LruLists, ReclaimScope};

/// Deterministic xorshift64* PRNG (no registry crates in this build).
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

const FILES: usize = 32;
const FILE_SIZE: f64 = 8.0;
/// Small enough that the upload log's bytes do not shift the balance
/// between the lists over the run: only its block count grows.
const UPLOAD_SIZE: f64 = 0.01;
/// Cache capacity: half the file set, so reads keep evicting.
const CAPACITY: f64 = 0.5 * FILES as f64 * FILE_SIZE;

/// Requests served before the work counts start, so a cold cache's
/// warm-up (no demotions yet) does not skew the growth ratio.
const WARMUP: usize = 1_000;

/// Runs `WARMUP + ops` requests and returns the lists' work over the last
/// `ops`. Asserts after every eviction that it visited no dirty block.
fn serve(ops: usize) -> CacheWork {
    let mut lru = LruLists::new();
    let files: Vec<u64> = (0..FILES)
        .map(|i| lru.key_or_insert(&FileId::new(format!("f{i}"))))
        .collect();
    let log = lru.key_or_insert(&FileId::new("uploads"));
    // Zipf(1.0) popularity over the files.
    let weights: Vec<f64> = (1..=FILES).map(|k| 1.0 / k as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = Rng(0x5EED);
    let mut warm = CacheWork::default();
    for op in 0..WARMUP + ops {
        if op == WARMUP {
            warm = lru.work();
        }
        let now = SimTime::from_secs(op as f64);
        let mut u = rng.unit() * total;
        let file = files
            .iter()
            .zip(&weights)
            .find(|(_, w)| {
                u -= **w;
                u < 0.0
            })
            .map_or(files[FILES - 1], |(&f, _)| f);
        let upload = rng.unit() < 0.1;
        let incoming = if upload {
            UPLOAD_SIZE
        } else {
            FILE_SIZE - lru.cached_amount(file).min(FILE_SIZE)
        };
        let excess = lru.total_cached() + incoming - CAPACITY;
        if excess > 0.0 {
            // Host-wide under the 2-list policy: every clean block visited
            // is evicted, the last one possibly in part. Coalescing can
            // only lower the block count further.
            let (before, visits) = (lru.block_count(), lru.work().evict_visits);
            lru.evict(excess, ReclaimScope::Host(None));
            let removed = before.saturating_sub(lru.block_count()) as u64;
            let visited = lru.work().evict_visits - visits;
            assert!(
                visited <= removed + 1,
                "op {op}: evict visited {visited} blocks to remove {removed}"
            );
        }
        if upload {
            lru.add_dirty(log, UPLOAD_SIZE, now);
        } else {
            // Algorithm 2: read the cached share (a promotion), fetch the rest.
            let cached = lru.read_cached(file, FILE_SIZE, now);
            lru.add_clean(file, FILE_SIZE - cached, now);
        }
    }
    let work = lru.work();
    CacheWork {
        evict_calls: work.evict_calls - warm.evict_calls,
        writeback_calls: work.writeback_calls - warm.writeback_calls,
        evict_visits: work.evict_visits - warm.evict_visits,
        writeback_visits: work.writeback_visits - warm.writeback_visits,
        insert_steps: work.insert_steps - warm.insert_steps,
    }
}

#[test]
fn eviction_skips_dirty_blocks_and_insert_walks_grow_linearly() {
    let half = serve(1_000);
    let full = serve(2_000);
    assert!(half.insert_steps > 0, "the stream made no demotion walk");
    assert!(
        full.insert_steps as f64 <= 2.2 * half.insert_steps as f64,
        "insert walk steps grew {} -> {} for twice the operations",
        half.insert_steps,
        full.insert_steps
    );
}
