//! The paper's findings, stated as named claims over the committed golden
//! baseline.
//!
//! `sweep --check` pins `RESULTS.json` to `baselines/golden.json`, so the
//! simulator cannot break a claim without regenerating the golden, and the
//! regenerated golden then fails here. Reading the golden instead of
//! running the scenarios keeps these tests instant in a debug build, where
//! the `paper_scale` group is not run. Each claim names the scales it
//! covers and its tolerance; known deviations from the paper are named
//! where they are asserted.

use harness::parse;

const GOLDEN: &str = include_str!("../../../baselines/golden.json");

/// The golden metrics of one scenario.
fn metrics(scenario: &str) -> Vec<(String, f64)> {
    let golden = parse(GOLDEN).expect("golden baseline parses");
    let metrics = golden
        .get("scenarios")
        .and_then(|s| s.get(scenario))
        .and_then(|s| s.get("metrics"))
        .unwrap_or_else(|| panic!("scenario {scenario} missing from the golden"));
    metrics
        .pairs()
        .iter()
        .map(|(k, v)| (k.clone(), v.as_f64().expect("numeric metric")))
        .collect()
}

fn metric(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

/// Asserts that WRENCH-cache's mean error is at most the cacheless
/// simulator's divided by `factor`, for the mean errors under `prefix`.
fn assert_error_cut(scenario: &str, prefix: &str, factor: f64) {
    let m = metrics(scenario);
    let cache = metric(&m, &format!("{prefix}mean_error_pct/wrench_cache"));
    let cacheless = metric(&m, &format!("{prefix}mean_error_pct/cacheless"));
    assert!(
        cache <= cacheless / factor,
        "{scenario} {prefix}: WRENCH-cache {cache:.1}% is not within \
         cacheless {cacheless:.1}% / {factor}"
    );
}

/// The instance counts of a Fig. 5/7 scenario, each with its
/// (cacheless read, cacheless write, cache read, cache write) times.
fn concurrency_points(scenario: &str) -> Vec<(String, [f64; 4])> {
    let m = metrics(scenario);
    let points: Vec<_> = m
        .iter()
        .filter_map(|(k, _)| k.strip_suffix("/cache_read_s"))
        .map(|n| {
            let at = |what: &str| metric(&m, &format!("{n}/{what}"));
            (
                n.to_string(),
                [
                    at("cacheless_read_s"),
                    at("cacheless_write_s"),
                    at("cache_read_s"),
                    at("cache_write_s"),
                ],
            )
        })
        .collect();
    assert!(!points.is_empty(), "{scenario} has no instance counts");
    points
}

/// Figs. 5 and 7 at both scales: the quick 1, 4 and 8 instances and the
/// paper's 1–32.
const CONCURRENCY: [(&str, bool, usize); 4] = [
    ("fig5_exp2_concurrent_local", false, 3),
    ("fig5_exp2_concurrent_local_paper_scale", false, 10),
    ("fig7_exp3_concurrent_nfs", true, 3),
    ("fig7_exp3_concurrent_nfs_paper_scale", true, 10),
];

#[test]
fn exp1_cache_model_cuts_the_mean_error_tenfold_at_2_and_20_gb() {
    // Quick scale, 2 GB files: 29.9% against 542.9%.
    assert_error_cut("fig4a_exp1_errors", "", 10.0);
    // The paper's 20 GB files: 37% against 707%.
    assert_error_cut("fig4a_exp1_errors_paper_scale", "20gb/", 10.0);
}

#[test]
fn exp1_at_100_gb_cuts_the_mean_error_fourfold() {
    // Known deviation: the paper reports up to an order of magnitude; here
    // it is 106% against 467%. Read 3 is the outlier at 463%: after
    // Write 2 the emulator keeps all 100 GB of file_3, the file Read 3
    // reads, and the model only 68.4 GB (fig4c's per-file metrics), so the
    // model reads the rest from disk.
    assert_error_cut("fig4a_exp1_errors_paper_scale", "100gb/", 4.0);
}

#[test]
fn exp4_cache_model_cuts_the_mean_error_tenfold() {
    // Known deviation: the paper reports 47% against 337%; here it is
    // 34.3% against 593.4%, at both scales.
    assert_error_cut("fig6_exp4_nighres", "", 10.0);
    assert_error_cut("fig6_exp4_nighres_paper_scale", "", 10.0);
}

#[test]
fn concurrent_cache_model_reads_are_faster_than_cacheless_at_every_instance_count() {
    for (scenario, _, counts) in CONCURRENCY {
        let points = concurrency_points(scenario);
        assert_eq!(points.len(), counts, "{scenario}");
        for (n, [cacheless_read, _, cache_read, _]) in points {
            assert!(
                cache_read < cacheless_read,
                "{scenario} {n}: cache read {cache_read} >= cacheless {cacheless_read}"
            );
        }
    }
}

#[test]
fn concurrent_local_cache_model_writes_are_faster_than_cacheless() {
    for (scenario, nfs, _) in CONCURRENCY {
        if nfs {
            continue;
        }
        for (n, [_, cacheless_write, _, cache_write]) in concurrency_points(scenario) {
            assert!(
                cache_write < cacheless_write,
                "{scenario} {n}: cache write {cache_write} >= cacheless {cacheless_write}"
            );
        }
    }
}

#[test]
fn concurrent_nfs_writethrough_writes_equal_cacheless_writes() {
    // The NFS server's cache is writethrough, so writes go to its disk in
    // both simulators (the paper's Fig. 7). Tolerance: 1e-9 relative.
    for (scenario, nfs, _) in CONCURRENCY {
        if !nfs {
            continue;
        }
        for (n, [_, cacheless_write, _, cache_write]) in concurrency_points(scenario) {
            assert!(
                (cache_write - cacheless_write).abs() <= 1e-9 * cacheless_write,
                "{scenario} {n}: cache write {cache_write} != cacheless {cacheless_write}"
            );
        }
    }
}
