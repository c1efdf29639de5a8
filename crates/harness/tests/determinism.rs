//! Acceptance tests of the sweep harness:
//!
//! * the full registry run is **bit-identical** across thread counts (the
//!   property that makes golden gating trustworthy);
//! * the gate passes a run against its own golden and catches synthetic
//!   drift end to end.

use harness::{
    compare, make_golden, parse, registry, run_sweep, Drift, Json, Scenario, SweepConfig,
};

fn config(threads: usize, filter: Option<&str>) -> SweepConfig {
    SweepConfig {
        threads,
        filter: filter.map(str::to_string),
    }
}

/// The registry, without the `paper_scale` group in debug builds: there
/// the cache models' scan oracles make the paper's scale take minutes per
/// figure. The release tests and `sweep --check` run the group.
fn scenarios() -> Vec<Scenario> {
    registry()
        .into_iter()
        .filter(|s| !(cfg!(debug_assertions) && s.group == "paper_scale"))
        .collect()
}

#[test]
fn full_sweep_is_bit_identical_across_thread_counts() {
    let scenarios = scenarios();
    assert!(
        scenarios.len() >= 13,
        "registry must cover >= 13 scenarios, has {}",
        scenarios.len()
    );

    let serial = run_sweep(&scenarios, &config(1, None));
    assert!(
        serial.all_ok(),
        "scenario failures: {:?}",
        serial.failures()
    );
    let reference = serial.to_json(false).render_pretty();

    for threads in [2, 4] {
        let parallel = run_sweep(&scenarios, &config(threads, None));
        assert!(parallel.all_ok(), "{:?}", parallel.failures());
        assert_eq!(
            parallel.to_json(false).render_pretty(),
            reference,
            "output differs for threads={threads}"
        );
    }
}

#[test]
fn traffic_group_is_bit_identical_across_thread_counts() {
    // The traffic tier's determinism obligation: latency percentiles,
    // throughput and tenant-enforcement byte counts of every traffic
    // scenario must not depend on the harness thread count (every random
    // draw comes from generator-local seeded streams).
    let scenarios = registry();
    let reference = run_sweep(&scenarios, &config(1, Some("traffic_")));
    assert!(reference.all_ok(), "{:?}", reference.failures());
    assert!(
        reference.scenarios.len() >= 3,
        "expected >= 3 traffic scenarios"
    );
    let reference = reference.to_json(false).render_pretty();
    for threads in [2, 4] {
        let run = run_sweep(&scenarios, &config(threads, Some("traffic_")));
        assert!(run.all_ok(), "{:?}", run.failures());
        assert_eq!(
            run.to_json(false).render_pretty(),
            reference,
            "traffic output differs for threads={threads}"
        );
    }
}

#[test]
fn sweep_results_pass_their_own_golden_and_catch_injected_drift() {
    // A filtered sub-sweep keeps this test fast while exercising the whole
    // pipeline: run → serialize → golden → parse → compare.
    let scenarios = registry();
    let results = run_sweep(&scenarios, &config(2, Some("sweep_")));
    assert!(results.all_ok(), "{:?}", results.failures());
    assert!(
        results.scenarios.len() >= 3,
        "expected >= 3 synthetic sweeps"
    );

    let doc = results.to_json(false);
    let golden = make_golden(&doc, None);
    // Round-trip through text, as the real gate does with files on disk.
    let golden = parse(&golden.render_pretty()).unwrap();
    let rerun = parse(&doc.render_pretty()).unwrap();
    assert_eq!(compare(&golden, &rerun).unwrap(), Vec::new());

    // Inject 1% drift into one metric: the gate must flag exactly that key.
    let mut drifted = rerun.clone();
    let key = inject_drift(&mut drifted, 1.01);
    let drifts = compare(&golden, &drifted).unwrap();
    assert_eq!(drifts.len(), 1, "{drifts:?}");
    match &drifts[0] {
        Drift::Value { key: k, rel, .. } => {
            assert_eq!(*k, key);
            assert!((*rel - 0.01).abs() < 1e-9, "rel = {rel}");
        }
        other => panic!("expected value drift, got {other:?}"),
    }
}

/// Multiplies the first non-zero metric of the first scenario by `factor`
/// and returns its `scenario/metric` key.
fn inject_drift(doc: &mut Json, factor: f64) -> String {
    let Json::Obj(pairs) = doc else {
        panic!("not an object")
    };
    let scenarios = &mut pairs
        .iter_mut()
        .find(|(k, _)| k == "scenarios")
        .expect("scenarios section")
        .1;
    let Json::Obj(scenarios) = scenarios else {
        panic!("not an object")
    };
    let (scenario_name, scenario) = scenarios.first_mut().expect("at least one scenario");
    let metrics = &mut scenario
        .pairs()
        .iter()
        .position(|(k, _)| k == "metrics")
        .map(|i| match scenario {
            Json::Obj(pairs) => &mut pairs[i].1,
            _ => unreachable!(),
        })
        .expect("metrics section");
    let Json::Obj(metrics) = metrics else {
        panic!("not an object")
    };
    for (name, value) in metrics.iter_mut() {
        if let Json::Num(v) = value {
            if *v != 0.0 {
                let key = format!("{scenario_name}/{name}");
                *v *= factor;
                return key;
            }
        }
    }
    panic!("no non-zero metric found to drift");
}
