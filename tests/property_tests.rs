//! Randomized property tests on the core data structures and model
//! invariants.
//!
//! crates.io is not reachable in this build environment, so instead of
//! `proptest` these tests use a small deterministic xorshift generator: each
//! case derives from a fixed seed, failures are reproducible, and the
//! properties checked are the same as in the original proptest formulation.

use des::{SimTime, Simulation};
use linux_pagecache_sim::prelude::*;
use pagecache::{CacheState, LruLists, ReclaimScope};
use storage_model::SharedResource;

/// Deterministic xorshift64* PRNG, good enough for property sampling.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform f64 in [lo, hi).
    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    }

    /// Uniform usize in [lo, hi).
    fn usize(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }
}

/// A randomly generated cache operation applied to the LRU lists.
#[derive(Debug, Clone)]
enum CacheOp {
    AddClean { file: u8, size: f64 },
    AddDirty { file: u8, size: f64 },
    Read { file: u8, amount: f64 },
    Flush { amount: f64 },
    Evict { amount: f64 },
    FlushExpired,
    Balance,
}

fn cache_op(rng: &mut Rng) -> CacheOp {
    match rng.usize(0, 7) {
        0 => CacheOp::AddClean {
            file: rng.usize(0, 5) as u8,
            size: rng.f64(1.0, 500.0),
        },
        1 => CacheOp::AddDirty {
            file: rng.usize(0, 5) as u8,
            size: rng.f64(1.0, 500.0),
        },
        2 => CacheOp::Read {
            file: rng.usize(0, 5) as u8,
            amount: rng.f64(1.0, 800.0),
        },
        3 => CacheOp::Flush {
            amount: rng.f64(0.0, 800.0),
        },
        4 => CacheOp::Evict {
            amount: rng.f64(0.0, 800.0),
        },
        5 => CacheOp::FlushExpired,
        _ => CacheOp::Balance,
    }
}

/// The slot key of file `i` in `lru`, made if needed.
fn file_key(lru: &mut LruLists, i: u8) -> u64 {
    lru.key_or_insert(&FileId::new(format!("file_{i}")))
}

/// After any sequence of operations the LRU lists stay structurally sound:
/// sorted by last access, positive block sizes, dirty <= cached, and the
/// per-file accounting sums to the total.
#[test]
fn lru_lists_invariants_hold_under_random_operations() {
    for case in 0..128u64 {
        let mut rng = Rng::new(0xA11CE ^ (case << 16));
        let mut lru = LruLists::new();
        let mut clock = 0.0;
        let op_count = rng.usize(1, 80);
        for _ in 0..op_count {
            clock += 1.0;
            let now = SimTime::from_secs(clock);
            match cache_op(&mut rng) {
                CacheOp::AddClean { file, size } => {
                    let s = file_key(&mut lru, file);
                    lru.add_clean(s, size, now);
                }
                CacheOp::AddDirty { file, size } => {
                    let s = file_key(&mut lru, file);
                    lru.add_dirty(s, size, now);
                }
                CacheOp::Read { file, amount } => {
                    let s = file_key(&mut lru, file);
                    lru.read_cached(s, amount, now);
                }
                CacheOp::Flush { amount } => {
                    lru.flush_lru(amount, ReclaimScope::Host(None));
                }
                CacheOp::Evict { amount } => {
                    lru.evict(amount, ReclaimScope::Host(None));
                }
                CacheOp::FlushExpired => {
                    lru.flush_expired(now, 10.0);
                }
                CacheOp::Balance => lru.balance(),
            }
            lru.check_invariants().unwrap();
            assert!(lru.total_dirty() <= lru.total_cached() + 1e-6);
            // Compare the incremental aggregates against scans of the actual
            // block lists (not against each other — since the aggregate
            // rewrite they share the same counters, so only an independent
            // scan can catch drift).
            let scan_cached: f64 = lru.iter_all().map(|b| b.size).sum();
            let scan_inactive: f64 = lru.inactive_blocks().map(|b| b.size).sum();
            let per_file_sum: f64 = lru.cached_per_file().values().sum();
            assert!((per_file_sum - scan_cached).abs() < 1e-6);
            assert!((lru.total_cached() - scan_cached).abs() < 1e-6);
            assert!((lru.inactive_bytes() - scan_inactive).abs() < 1e-6);
            assert!((lru.active_bytes() - (scan_cached - scan_inactive)).abs() < 1e-6);
        }
    }
}

/// Reading cached data never changes the amount of cached or dirty data.
#[test]
fn reading_conserves_cache_contents() {
    for case in 0..128u64 {
        let mut rng = Rng::new(0xB0B ^ (case << 16));
        let mut lru = LruLists::new();
        let f = lru.key_or_insert(&"f".into());
        let mut clock = 0.0;
        let n = rng.usize(1, 10);
        for i in 0..n {
            clock += 1.0;
            let size = rng.f64(1.0, 300.0);
            if i % 2 == 0 {
                lru.add_clean(f, size, SimTime::from_secs(clock));
            } else {
                lru.add_dirty(f, size, SimTime::from_secs(clock));
            }
        }
        let read_amount = rng.f64(1.0, 3000.0);
        let cached_before = lru.total_cached();
        let dirty_before = lru.total_dirty();
        let read = lru.read_cached(f, read_amount, SimTime::from_secs(clock + 1.0));
        assert!(read <= read_amount + 1e-6);
        assert!(read <= cached_before + 1e-6);
        assert!((lru.total_cached() - cached_before).abs() < 1e-6);
        assert!((lru.total_dirty() - dirty_before).abs() < 1e-6);
    }
}

/// Flushing never changes the total cached amount, only converts dirty data
/// to clean data, and never flushes more than requested.
#[test]
fn flush_converts_dirty_to_clean_without_losing_data() {
    for case in 0..128u64 {
        let mut rng = Rng::new(0xF1A5 ^ (case << 16));
        let mut lru = LruLists::new();
        let n = rng.usize(1, 10);
        for i in 0..n {
            let s = file_key(&mut lru, i as u8);
            lru.add_dirty(s, rng.f64(1.0, 200.0), SimTime::from_secs(i as f64));
        }
        let flush_amount = rng.f64(0.0, 3000.0);
        let cached_before = lru.total_cached();
        let dirty_before = lru.total_dirty();
        let flushed = lru.flush_lru(flush_amount, ReclaimScope::Host(None));
        assert!(flushed <= flush_amount + 1e-6);
        assert!(flushed <= dirty_before + 1e-6);
        assert!((lru.total_cached() - cached_before).abs() < 1e-6);
        assert!((lru.total_dirty() - (dirty_before - flushed)).abs() < 1e-6);
    }
}

/// Eviction only removes clean data and never more than requested.
#[test]
fn evict_removes_at_most_requested_clean_data() {
    for case in 0..128u64 {
        let mut rng = Rng::new(0xE51C7 ^ (case << 16));
        let mut lru = LruLists::new();
        let clean = lru.key_or_insert(&"clean".into());
        let dirty = lru.key_or_insert(&"dirty".into());
        let mut t = 0.0;
        for _ in 0..rng.usize(1, 8) {
            t += 1.0;
            lru.add_clean(clean, rng.f64(1.0, 200.0), SimTime::from_secs(t));
        }
        for _ in 0..rng.usize(0, 8) {
            t += 1.0;
            lru.add_dirty(dirty, rng.f64(1.0, 200.0), SimTime::from_secs(t));
        }
        let evict_amount = rng.f64(0.0, 2000.0);
        let dirty_before = lru.total_dirty();
        let cached_before = lru.total_cached();
        let evicted = lru.evict(evict_amount, ReclaimScope::Host(None));
        assert!(evicted <= evict_amount + 1e-6);
        assert!((lru.total_dirty() - dirty_before).abs() < 1e-6);
        assert!((lru.total_cached() - (cached_before - evicted)).abs() < 1e-6);
    }
}

/// Fair sharing conserves work: N equal transfers on one device finish in N
/// times the single-transfer duration, regardless of N and size.
#[test]
fn fair_sharing_conserves_total_throughput() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0x5EED ^ (case << 16));
        let n = rng.usize(1, 12);
        let bytes = rng.f64(100.0, 10_000.0);
        let bandwidth = rng.f64(10.0, 1000.0);
        let sim = Simulation::new();
        let ctx = sim.context();
        let res = SharedResource::new(&ctx, "dev", bandwidth, 0.0);
        for _ in 0..n {
            let res = res.clone();
            sim.spawn(async move { res.transfer(bytes).await });
        }
        let end = sim.run().as_secs();
        let expected = n as f64 * bytes / bandwidth;
        assert!(
            (end - expected).abs() < 1e-6 * expected.max(1.0),
            "n={n} bytes={bytes} bw={bandwidth}: end {end} vs expected {expected}"
        );
    }
}

/// The simulated read time of a cold file equals size/bandwidth for any size
/// and chunk size, and a warm re-read is never slower than the cold read.
#[test]
fn controller_cold_read_time_matches_analytic_model() {
    for case in 0..32u64 {
        let mut rng = Rng::new(0xC01D ^ (case << 16));
        let size_mb = rng.f64(10.0, 2000.0);
        let chunk_mb = rng.f64(10.0, 500.0);
        let sim = Simulation::new();
        let ctx = sim.context();
        let memory =
            MemoryDevice::new(&ctx, DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY));
        let disk = Disk::new(
            &ctx,
            "d",
            DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
        );
        let config = PageCacheConfig {
            chunk_size: chunk_mb * MB,
            ..PageCacheConfig::default()
        };
        let mm = MemoryManager::new(&ctx, config, 16.0 * GB, memory, disk);
        let io = IoController::new(&ctx, mm);
        let f: FileId = "f".into();
        io.memory_manager().create_file(&f, size_mb * MB).unwrap();
        let h = sim.spawn(async move {
            let cold = io.read_range(&f, 0.0, f64::INFINITY).await.unwrap();
            let warm = io.read_range(&f, 0.0, f64::INFINITY).await.unwrap();
            (cold.duration, warm.duration)
        });
        sim.run();
        let (cold, warm) = h.try_take_result().unwrap();
        let expected = size_mb / 465.0;
        assert!(
            (cold - expected).abs() < 1e-6 * expected.max(1.0),
            "size={size_mb}MB chunk={chunk_mb}MB: cold {cold} vs expected {expected}"
        );
        assert!(warm <= cold + 1e-9);
    }
}
