//! The golden baseline is a bit-identity contract, not only a tolerance
//! band: every metric `baselines/golden.json` pins must come out of today's
//! registry bit-identical. The gate's `--check` allows per-metric relative
//! tolerances; this test runs the exact comparison (`--check-frozen`) so a
//! change that nudges a prediction inside its tolerance still fails here.
//!
//! CI additionally runs `sweep --check --check-frozen` against the *base
//! revision's* `baselines/golden.json` (extracted with `git show`), which
//! proves that a change regenerating the golden did not move any
//! pre-existing prediction.
//!
//! Debug builds skip the `paper_scale` group: there the cache models' scan
//! oracles make the paper's scale take minutes per figure. The release
//! tests and `sweep --check` run it.

use harness::{compare_intersection_exact, parse, registry, restrict, run_sweep, SweepConfig};

const FROZEN: &str = include_str!("../../../baselines/golden.json");

#[test]
fn pre_existing_golden_metrics_are_bit_identical() {
    let scenarios: Vec<_> = registry()
        .into_iter()
        .filter(|s| !(cfg!(debug_assertions) && s.group == "paper_scale"))
        .collect();
    let names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
    let frozen = parse(FROZEN).expect("frozen baseline parses");
    let frozen = if cfg!(debug_assertions) {
        restrict(&frozen, &names)
    } else {
        frozen
    };
    let results = run_sweep(
        &scenarios,
        &SweepConfig {
            threads: 4,
            filter: None,
        },
    );
    assert!(results.all_ok(), "{:?}", results.failures());
    // Round-trip through text, as the real gate does with files on disk.
    let doc = parse(&results.to_json(false).render_pretty()).unwrap();
    let drifts = compare_intersection_exact(&frozen, &doc).unwrap();
    assert!(
        drifts.is_empty(),
        "pre-existing metrics moved or vanished:\n{}",
        drifts
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
