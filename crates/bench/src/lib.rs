//! # `bench` — benchmark harness
//!
//! Criterion micro-benchmarks for the simulator itself: `pagecache_micro`
//! covers the LRU list operations and the discrete-event engine. Run with
//! `cargo bench -p bench` or `scripts/bench.sh`. End-to-end simulator
//! timings live in the standalone `simbench` crate (see `BENCHMARK.json`).
