//! # `harness` — parallel scenario sweeps with golden-baseline gating
//!
//! The paper's contribution is *predictive accuracy*: simulated makespans
//! must track the page-cache behaviour of a real system. This crate is the
//! subsystem that keeps the reproduction honest about it:
//!
//! * [`scenario`] — the [`Scenario`] registry entry: a named,
//!   deterministic simulation run producing ordered `(metric, value)` pairs;
//! * [`registry`](mod@registry) — every paper figure/table (each figure at a
//!   scaled-down and at the paper's own scale), the `examples/` workloads, and
//!   synthetic sweeps (dirty ratios, cache size, read/write mix,
//!   concurrency) wrapped as scenarios;
//! * [`runner`] — fans scenarios out across `std::thread` workers (one
//!   single-threaded DES engine per scenario) with order-independent result
//!   collection, so `RESULTS.json` is bit-identical for any thread count;
//! * [`json`] — dependency-free, deterministic JSON;
//! * [`gate`] — diffs results against `baselines/golden.json` with
//!   per-metric relative tolerances, gates each scenario's deterministic
//!   work counters, and reports every drift.
//!
//! The `sweep` binary ties it together; `scripts/sweep.sh --check` is the CI
//! entry point and exits non-zero on any drift.
//!
//! ## Baseline updates
//!
//! See [`gate`] for the golden-update workflow: PRs that legitimately move
//! predictions regenerate `baselines/golden.json` in the same commit
//! (`scripts/sweep.sh --update-golden`) and state why.

#![warn(missing_docs)]

pub mod gate;
pub mod json;
pub mod registry;
pub mod runner;
pub mod scenario;

pub use gate::{
    compare, compare_intersection_exact, counter_deltas, make_golden, restrict, Drift, Retired,
    Tolerances,
};
pub use json::{parse, Json};
pub use registry::registry;
pub use runner::{run_sweep, ScenarioResult, SweepConfig, SweepResults};
pub use scenario::{Metrics, Scenario};
