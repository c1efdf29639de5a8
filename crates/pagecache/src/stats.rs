//! Memory-state traces and per-operation statistics.
//!
//! The paper evaluates its model not only on simulated I/O times (Fig. 4a) but
//! also on the *memory profile* over time — used memory, cached data and dirty
//! data (Fig. 4b) — and on the cache content per file after each I/O operation
//! (Fig. 4c). These types collect exactly that information.

use std::collections::BTreeMap;

use des::SimTime;

use crate::block::FileId;

/// One point of the memory profile (Fig. 4b).
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySample {
    /// Virtual time of the sample.
    pub time: SimTime,
    /// Total RAM of the host (constant; kept for convenient plotting).
    pub total: f64,
    /// Used memory: anonymous application memory plus page cache.
    pub used: f64,
    /// Page cache size (clean + dirty).
    pub cached: f64,
    /// Dirty page cache data.
    pub dirty: f64,
    /// Anonymous application memory.
    pub anonymous: f64,
}

impl MemorySample {
    /// The sample of a host with `total` bytes of RAM holding `cached` bytes
    /// of page cache (`dirty` of them dirty) and `anonymous` bytes of
    /// application memory. Used memory is cache plus anonymous memory,
    /// capped at the host's RAM.
    pub fn new(time: SimTime, total: f64, cached: f64, dirty: f64, anonymous: f64) -> Self {
        MemorySample {
            time,
            total,
            used: (cached + anonymous).min(total),
            cached,
            dirty,
            anonymous,
        }
    }
}

/// The memory profile of a simulation run: a time series of [`MemorySample`]s.
#[derive(Debug, Default, Clone)]
pub struct MemoryTrace {
    samples: Vec<MemorySample>,
}

impl MemoryTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    pub fn push(&mut self, sample: MemorySample) {
        self.samples.push(sample);
    }

    /// All samples in chronological order.
    pub fn samples(&self) -> &[MemorySample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Maximum observed dirty data, useful to verify the dirty-ratio
    /// invariant of the paper ("in all cases, dirty data remained under the
    /// dirty ratio").
    pub fn max_dirty(&self) -> f64 {
        self.samples.iter().map(|s| s.dirty).fold(0.0, f64::max)
    }

    /// Maximum observed cached data.
    pub fn max_cached(&self) -> f64 {
        self.samples.iter().map(|s| s.cached).fold(0.0, f64::max)
    }

    /// Maximum observed used memory.
    pub fn max_used(&self) -> f64 {
        self.samples.iter().map(|s| s.used).fold(0.0, f64::max)
    }

    /// Linearly interpolates the cached amount at an arbitrary time (for
    /// comparing traces sampled at different instants).
    pub fn cached_at(&self, time: SimTime) -> f64 {
        interpolate(&self.samples, time, |s| s.cached)
    }

    /// Linearly interpolates the dirty amount at an arbitrary time.
    pub fn dirty_at(&self, time: SimTime) -> f64 {
        interpolate(&self.samples, time, |s| s.dirty)
    }

    /// Linearly interpolates the used amount at an arbitrary time.
    pub fn used_at(&self, time: SimTime) -> f64 {
        interpolate(&self.samples, time, |s| s.used)
    }
}

fn interpolate(samples: &[MemorySample], time: SimTime, f: impl Fn(&MemorySample) -> f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    if time <= samples[0].time {
        return f(&samples[0]);
    }
    if time >= samples[samples.len() - 1].time {
        return f(&samples[samples.len() - 1]);
    }
    let idx = samples.partition_point(|s| s.time <= time);
    let (a, b) = (&samples[idx - 1], &samples[idx]);
    let span = b.time - a.time;
    if span <= 0.0 {
        return f(b);
    }
    let w = (time - a.time) / span;
    f(a) * (1.0 - w) + f(b) * w
}

/// Statistics of a single simulated file read or write (one call to the I/O
/// controller).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoOpStats {
    /// Bytes that were served from disk.
    pub bytes_from_disk: f64,
    /// Bytes that were served from the page cache.
    pub bytes_from_cache: f64,
    /// Bytes written into the page cache.
    pub bytes_to_cache: f64,
    /// Bytes written to disk (synchronously, as part of this operation —
    /// flushes triggered by memory pressure count here, background flushes do
    /// not).
    pub bytes_to_disk: f64,
    /// Bytes read from disk *ahead of demand* by a readahead model (a subset
    /// of `bytes_from_disk`). Zero on back-ends without readahead.
    pub bytes_prefetched: f64,
    /// Seconds the caller spent blocked in dirty-page throttling
    /// (`balance_dirty_pages`-style synchronous threshold writeback and
    /// pacing stalls; a subset of `duration`).
    pub throttle_stall: f64,
    /// Virtual time the operation took, in seconds.
    pub duration: f64,
}

impl IoOpStats {
    /// Total bytes moved by the operation (disk + cache reads, or cache +
    /// disk writes).
    pub fn total_bytes(&self) -> f64 {
        self.bytes_from_disk + self.bytes_from_cache + self.bytes_to_cache
    }

    /// Fraction of a read served from the cache (0 when nothing was read).
    pub fn cache_hit_ratio(&self) -> f64 {
        let read = self.bytes_from_disk + self.bytes_from_cache;
        if read <= 0.0 {
            0.0
        } else {
            self.bytes_from_cache / read
        }
    }

    /// Merges the statistics of another operation into this one (summing
    /// bytes and durations).
    pub fn merge(&mut self, other: &IoOpStats) {
        self.bytes_from_disk += other.bytes_from_disk;
        self.bytes_from_cache += other.bytes_from_cache;
        self.bytes_to_cache += other.bytes_to_cache;
        self.bytes_to_disk += other.bytes_to_disk;
        self.bytes_prefetched += other.bytes_prefetched;
        self.throttle_stall += other.throttle_stall;
        self.duration += other.duration;
    }
}

/// Cumulative byte and run counters of one host's page cache, kept the same
/// way by both cache models ([`crate::Host`]).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CacheCounters {
    /// Bytes written back by the background flusher: the model's periodical
    /// flusher, the emulator's writeback threads.
    pub background_flushed: f64,
    /// Bytes written back synchronously: `fsync`, `sync`, the dirty ratio,
    /// memory pressure and cache-group limits.
    pub synchronous_flushed: f64,
    /// Bytes evicted from the cache.
    pub evicted: f64,
    /// Wakeups of the background flusher.
    pub flusher_runs: u64,
    /// Bytes read from disk ahead of demand (the emulator's readahead).
    pub prefetched: f64,
    /// Seconds writers spent blocked in the emulator's
    /// `balance_dirty_pages`-style throttling (synchronous threshold
    /// writeback plus pacing stalls).
    pub throttle_stall_seconds: f64,
}

impl CacheCounters {
    /// Adds another cache's counters.
    pub fn merge(&mut self, other: &CacheCounters) {
        self.background_flushed += other.background_flushed;
        self.synchronous_flushed += other.synchronous_flushed;
        self.evicted += other.evicted;
        self.flusher_runs += other.flusher_runs;
        self.prefetched += other.prefetched;
        self.throttle_stall_seconds += other.throttle_stall_seconds;
    }
}

/// Deterministic work counts of a cache model: how often its reclaim walks
/// ran, how many blocks or index entries they visited, and how far
/// out-of-order inserts walked. Counts, not timers, so they repeat exactly
/// on any machine.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheWork {
    /// Eviction walks with an amount above [`crate::EPSILON`].
    pub evict_calls: u64,
    /// Writeback walks with an amount above [`crate::EPSILON`].
    pub writeback_calls: u64,
    /// Blocks or index entries visited by the eviction walks.
    pub evict_visits: u64,
    /// Blocks or index entries visited by the writeback walks.
    pub writeback_visits: u64,
    /// Steps walked by the page cache model's out-of-order sorted inserts
    /// (demotions); each step advances both cursors by one node.
    pub insert_steps: u64,
}

impl CacheWork {
    /// Adds another cache's work counts.
    pub fn merge(&mut self, other: &CacheWork) {
        self.evict_calls += other.evict_calls;
        self.writeback_calls += other.writeback_calls;
        self.evict_visits += other.evict_visits;
        self.writeback_visits += other.writeback_visits;
        self.insert_steps += other.insert_steps;
    }
}

/// Snapshot of the cache content per file at a given instant (Fig. 4c).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheContentSnapshot {
    /// Label of the instant (e.g. "Read 1", "Write 3").
    pub label: String,
    /// Virtual time of the snapshot.
    pub time: f64,
    /// Cached bytes per file.
    pub per_file: BTreeMap<FileId, f64>,
}

impl CacheContentSnapshot {
    /// Total cached bytes across all files.
    pub fn total(&self) -> f64 {
        self.per_file.values().sum()
    }

    /// Cached bytes of one file (0 if absent).
    pub fn cached(&self, file: &FileId) -> f64 {
        self.per_file.get(file).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, used: f64, cached: f64, dirty: f64) -> MemorySample {
        MemorySample {
            time: SimTime::from_secs(t),
            total: 1000.0,
            used,
            cached,
            dirty,
            anonymous: used - cached,
        }
    }

    #[test]
    fn trace_max_values() {
        let mut trace = MemoryTrace::new();
        trace.push(sample(0.0, 100.0, 50.0, 10.0));
        trace.push(sample(1.0, 400.0, 300.0, 60.0));
        trace.push(sample(2.0, 200.0, 150.0, 20.0));
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.max_used(), 400.0);
        assert_eq!(trace.max_cached(), 300.0);
        assert_eq!(trace.max_dirty(), 60.0);
    }

    #[test]
    fn trace_interpolation() {
        let mut trace = MemoryTrace::new();
        trace.push(sample(0.0, 0.0, 0.0, 0.0));
        trace.push(sample(10.0, 100.0, 50.0, 20.0));
        assert_eq!(trace.cached_at(SimTime::from_secs(5.0)), 25.0);
        assert_eq!(trace.dirty_at(SimTime::from_secs(5.0)), 10.0);
        assert_eq!(trace.used_at(SimTime::from_secs(0.0)), 0.0);
        // Clamped outside the sampled range.
        assert_eq!(trace.used_at(SimTime::from_secs(100.0)), 100.0);
        assert!(!trace.is_empty());
    }

    #[test]
    fn empty_trace_interpolates_to_zero() {
        let trace = MemoryTrace::new();
        assert_eq!(trace.cached_at(SimTime::from_secs(1.0)), 0.0);
        assert_eq!(trace.max_dirty(), 0.0);
    }

    #[test]
    fn op_stats_accessors_and_merge() {
        let mut a = IoOpStats {
            bytes_from_disk: 100.0,
            bytes_from_cache: 300.0,
            bytes_prefetched: 50.0,
            duration: 2.0,
            ..IoOpStats::default()
        };
        assert_eq!(a.cache_hit_ratio(), 0.75);
        assert_eq!(a.total_bytes(), 400.0);
        let b = IoOpStats {
            bytes_to_cache: 500.0,
            bytes_to_disk: 200.0,
            throttle_stall: 1.5,
            duration: 3.0,
            ..IoOpStats::default()
        };
        assert_eq!(b.cache_hit_ratio(), 0.0);
        a.merge(&b);
        assert_eq!(a.bytes_to_cache, 500.0);
        assert_eq!(a.bytes_to_disk, 200.0);
        assert_eq!(a.bytes_prefetched, 50.0);
        assert_eq!(a.throttle_stall, 1.5);
        assert_eq!(a.duration, 5.0);
    }

    #[test]
    fn cache_content_snapshot() {
        let mut per_file = BTreeMap::new();
        per_file.insert(FileId::new("f1"), 100.0);
        per_file.insert(FileId::new("f2"), 50.0);
        let snap = CacheContentSnapshot {
            label: "Read 1".to_string(),
            time: 3.0,
            per_file,
        };
        assert_eq!(snap.total(), 150.0);
        assert_eq!(snap.cached(&FileId::new("f1")), 100.0);
        assert_eq!(snap.cached(&FileId::new("missing")), 0.0);
    }
}
