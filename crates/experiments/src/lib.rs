//! # `experiments` — the experiments behind every table and figure of the paper
//!
//! Each experiment of *"Modeling the Linux page cache for accurate simulation
//! of data-intensive applications"* (CLUSTER 2021) is a library function.
//! The scenario registry (`crates/harness`) runs each figure at two scales
//! and the golden baseline pins its numbers: the `paper` group at a
//! proportionally scaled-down configuration, the `paper_scale` group at the
//! paper's own (the 250 GiB node, 20–100 GB files, 1–32 instances of 3 GB).
//! `scripts/sweep.sh --filter paper_scale` reproduces the paper and writes
//! the numbers to `RESULTS.json`.
//!
//! | Artefact | Function | Registry scenarios |
//! |---|---|---|
//! | Table I (synthetic app parameters) | [`workflow::ApplicationSpec::synthetic_cpu_time`] | `table1_synthetic_parameters` |
//! | Table II (Nighres parameters) | [`workflow::ApplicationSpec::nighres`] | `table2_nighres_parameters` |
//! | Table III (bandwidths) | [`platform::paper_platform`] | `table3_bandwidths` |
//! | Fig. 4a (Exp 1 errors) | [`exp1::run_exp1_for_size`] | `fig4a_exp1_errors`, `fig4a_exp1_errors_paper_scale` |
//! | Fig. 4b (memory profiles) | [`exp1::run_exp1_for_size`] | `fig4b_memory_profiles`, `fig4b_memory_profiles_paper_scale` |
//! | Fig. 4c (cache contents) | [`exp1::run_exp1_for_size`] | `fig4c_cache_contents`, `fig4c_cache_contents_paper_scale` |
//! | Fig. 5 (Exp 2, concurrent, local) | [`exp_concurrent::run_exp2`] | `fig5_exp2_concurrent_local`, `fig5_exp2_concurrent_local_paper_scale` |
//! | Fig. 6 (Exp 4, Nighres) | [`exp4::run_exp4`] | `fig6_exp4_nighres`, `fig6_exp4_nighres_paper_scale` |
//! | Fig. 7 (Exp 3, concurrent, NFS) | [`exp_concurrent::run_exp3`] | `fig7_exp3_concurrent_nfs`, `fig7_exp3_concurrent_nfs_paper_scale` |
//! | Fig. 8 (simulation time) | simulated duration per configuration | `fig8_simulated_durations`, `fig8_simulated_durations_paper_scale` |
//!
//! Fig. 8's y-axis in the paper is wall-clock time. The registry pins the
//! simulated duration of each of its configurations instead, because a
//! golden value must not depend on the machine.
//!
//! Ground truth is provided by the `kernel-emu` crate, a page-granularity
//! emulator of the Linux page cache that stands in for the paper's real
//! cluster executions.

#![warn(missing_docs)]

pub mod exp1;
pub mod exp4;
pub mod exp_concurrent;
pub mod platform;

pub use exp1::{run_exp1_for_size, Exp1SizeResult, PhaseTiming};
pub use exp4::{run_exp4, Exp4Result, NighresPhase};
pub use exp_concurrent::{run_exp2, run_exp3, ConcurrencyPoint, ConcurrencySweep};
pub use platform::{
    concurrency_sweep, exp1_file_sizes, paper_platform, scaled_platform, EXP2_FILE_SIZE,
};
