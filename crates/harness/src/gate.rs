//! The golden-baseline regression gate.
//!
//! `baselines/golden.json` pins every metric of every scenario. A sweep run
//! is compared against it metric by metric with **per-metric relative
//! tolerances**; any out-of-tolerance drift, missing scenario, or missing
//! metric fails the gate (and with it, CI).
//!
//! ## Baseline-update workflow
//!
//! The simulator is deterministic, so goldens only move when the *model*
//! moves. When a PR legitimately changes predictions (a model fix, a new
//! default, a re-calibration), that PR must regenerate the baseline **in the
//! same commit** (`scripts/sweep.sh --update-golden`) and explain in its
//! description *why* the predictions moved. A golden diff without a stated
//! reason is a regression, not an update.
//!
//! ## Golden format
//!
//! ```json
//! {
//!   "version": 1,
//!   "tolerances": {"default_rel": 1e-6, "overrides": {"fig8_": 1e-3}},
//!   "scenarios": { "<name>": {"group": "...", "metrics": {"<key>": 1.25}} }
//! }
//! ```
//!
//! Override keys are substring patterns matched against
//! `"<scenario>/<metric>"`; the longest matching pattern wins.

use crate::json::Json;

/// Values with magnitude below this are compared absolutely rather than
/// relatively (a relative tolerance is meaningless around zero).
const ABS_FLOOR: f64 = 1e-9;

/// Per-metric relative tolerances.
#[derive(Debug, Clone)]
pub struct Tolerances {
    /// Tolerance applied when no override matches.
    pub default_rel: f64,
    /// `(substring pattern, relative tolerance)` overrides.
    pub overrides: Vec<(String, f64)>,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            // The simulation is deterministic; the default headroom only
            // absorbs benign float-formatting differences.
            default_rel: 1e-6,
            overrides: Vec::new(),
        }
    }
}

impl Tolerances {
    /// Parses the `tolerances` section of a golden document (absent section
    /// and fields fall back to defaults).
    pub fn from_json(doc: &Json) -> Tolerances {
        let mut t = Tolerances::default();
        let Some(section) = doc.get("tolerances") else {
            return t;
        };
        if let Some(v) = section.get("default_rel").and_then(Json::as_f64) {
            t.default_rel = v;
        }
        if let Some(Json::Obj(pairs)) = section.get("overrides") {
            for (pattern, v) in pairs {
                if let Some(rel) = v.as_f64() {
                    t.overrides.push((pattern.clone(), rel));
                }
            }
        }
        t
    }

    /// The relative tolerance for one `"<scenario>/<metric>"` key: the
    /// longest matching override pattern, or the default.
    pub fn for_key(&self, key: &str) -> f64 {
        self.overrides
            .iter()
            .filter(|(pattern, _)| key.contains(pattern.as_str()))
            .max_by_key(|(pattern, _)| pattern.len())
            .map(|(_, rel)| *rel)
            .unwrap_or(self.default_rel)
    }
}

/// One detected difference between a sweep run and the golden baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum Drift {
    /// The golden file lists a scenario the run did not produce.
    MissingScenario(String),
    /// The run produced a scenario the golden file does not know.
    UnknownScenario(String),
    /// A golden metric is absent from the run (key is `scenario/metric`).
    MissingMetric(String),
    /// The run produced a metric the golden file does not know.
    UnknownMetric(String),
    /// A metric moved outside its tolerance.
    Value {
        /// `scenario/metric` key.
        key: String,
        /// Golden value.
        golden: f64,
        /// Value produced by the run.
        actual: f64,
        /// Observed relative deviation.
        rel: f64,
        /// Allowed relative deviation.
        tolerance: f64,
    },
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Drift::MissingScenario(name) => write!(f, "scenario {name} missing from results"),
            Drift::UnknownScenario(name) => write!(f, "scenario {name} not in golden baseline"),
            Drift::MissingMetric(key) => write!(f, "metric {key} missing from results"),
            Drift::UnknownMetric(key) => write!(f, "metric {key} not in golden baseline"),
            Drift::Value {
                key,
                golden,
                actual,
                rel,
                tolerance,
            } => write!(
                f,
                "{key}: golden {golden} vs actual {actual} (rel drift {rel:.3e} > tol {tolerance:.1e})"
            ),
        }
    }
}

fn metric_map(scenario: &Json) -> Vec<(&String, f64)> {
    scenario
        .get("metrics")
        .map(Json::pairs)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|v| (k, v)))
        .collect()
}

/// Compares a sweep result document against a golden document; returns every
/// drift found (empty = gate passes). Both documents use the schema produced
/// by [`crate::runner::SweepResults::to_json`]; the `timings` section, being
/// machine-dependent, is ignored entirely.
pub fn compare(golden: &Json, results: &Json) -> Result<Vec<Drift>, String> {
    let tolerances = Tolerances::from_json(golden);
    let golden_scenarios = golden
        .get("scenarios")
        .ok_or("golden file has no 'scenarios' section")?;
    let result_scenarios = results
        .get("scenarios")
        .ok_or("results file has no 'scenarios' section")?;

    let mut drifts = Vec::new();
    for (name, golden_scenario) in golden_scenarios.pairs() {
        let Some(result_scenario) = result_scenarios.get(name) else {
            drifts.push(Drift::MissingScenario(name.clone()));
            continue;
        };
        let actual = metric_map(result_scenario);
        let expected = metric_map(golden_scenario);
        for &(metric, golden_value) in &expected {
            let key = format!("{name}/{metric}");
            let Some(&(_, actual_value)) = actual.iter().find(|(k, _)| *k == metric) else {
                drifts.push(Drift::MissingMetric(key));
                continue;
            };
            let scale = golden_value.abs().max(ABS_FLOOR);
            let rel = (actual_value - golden_value).abs() / scale;
            let tolerance = tolerances.for_key(&key);
            if rel > tolerance {
                drifts.push(Drift::Value {
                    key,
                    golden: golden_value,
                    actual: actual_value,
                    rel,
                    tolerance,
                });
            }
        }
        for (metric, _) in actual {
            if expected.iter().all(|(k, _)| *k != metric) {
                drifts.push(Drift::UnknownMetric(format!("{name}/{metric}")));
            }
        }
    }
    for (name, _) in result_scenarios.pairs() {
        if golden_scenarios.get(name).is_none() {
            drifts.push(Drift::UnknownScenario(name.clone()));
        }
    }
    Ok(drifts)
}

/// Compares a sweep run against a **frozen** reference document,
/// restricted to the reference's scenarios and metrics and with **zero
/// tolerance**: every metric the reference knows must be present in the run
/// and bit-identical; scenarios and metrics that exist only in the run are
/// ignored.
///
/// This is the proof obligation of a PR that *adds* scenarios or metrics:
/// regenerating `baselines/golden.json` in the same commit is legitimate,
/// but the regeneration must not move any pre-existing prediction. CI runs
/// this against the frozen snapshot of the previous baseline
/// (`sweep --check-frozen <path>`).
pub fn compare_intersection_exact(reference: &Json, results: &Json) -> Result<Vec<Drift>, String> {
    let reference_scenarios = reference
        .get("scenarios")
        .ok_or("reference file has no 'scenarios' section")?;
    let result_scenarios = results
        .get("scenarios")
        .ok_or("results file has no 'scenarios' section")?;

    let mut drifts = Vec::new();
    for (name, reference_scenario) in reference_scenarios.pairs() {
        let Some(result_scenario) = result_scenarios.get(name) else {
            drifts.push(Drift::MissingScenario(name.clone()));
            continue;
        };
        let actual = metric_map(result_scenario);
        for &(metric, reference_value) in &metric_map(reference_scenario) {
            let key = format!("{name}/{metric}");
            let Some(&(_, actual_value)) = actual.iter().find(|(k, _)| *k == metric) else {
                drifts.push(Drift::MissingMetric(key));
                continue;
            };
            // Bit-identity: the JSON round-trip uses shortest-representation
            // floats, so equality of the parsed values is equality of the
            // rendered documents.
            if actual_value != reference_value {
                let scale = reference_value.abs().max(ABS_FLOOR);
                drifts.push(Drift::Value {
                    key,
                    golden: reference_value,
                    actual: actual_value,
                    rel: (actual_value - reference_value).abs() / scale,
                    tolerance: 0.0,
                });
            }
        }
    }
    Ok(drifts)
}

/// A copy of a result or golden document with its `scenarios` section
/// restricted to the named scenarios. A filtered sweep checks against the
/// golden (and a frozen reference) through this, so the scenarios it did
/// not select are not reported missing; an unfiltered run must not use it,
/// so that a scenario gone from the registry still fails the gate.
pub fn restrict(doc: &Json, scenarios: &[&str]) -> Json {
    let mut doc = doc.clone();
    if let Json::Obj(pairs) = &mut doc {
        for (_, section) in pairs.iter_mut().filter(|(key, _)| key == "scenarios") {
            if let Json::Obj(section) = section {
                section.retain(|(name, _)| scenarios.contains(&name.as_str()));
            }
        }
    }
    doc
}

/// Attaches a tolerances section to a result document, producing a complete
/// golden file. Existing tolerances (when regenerating) are carried over.
pub fn make_golden(results: &Json, previous_golden: Option<&Json>) -> Json {
    let tolerances = previous_golden
        .and_then(|g| g.get("tolerances"))
        .cloned()
        .unwrap_or_else(|| {
            Json::obj(vec![
                ("default_rel".to_string(), Json::Num(1e-6)),
                ("overrides".to_string(), Json::Obj(Vec::new())),
            ])
        });
    let mut pairs = vec![
        ("version".to_string(), Json::Num(1.0)),
        ("tolerances".to_string(), tolerances),
    ];
    if let Some(scenarios) = results.get("scenarios") {
        pairs.push(("scenarios".to_string(), scenarios.clone()));
    }
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn doc(metrics: &str) -> Json {
        parse(&format!(
            "{{\"version\":1,\"scenarios\":{{\"s\":{{\"group\":\"paper\",\"metrics\":{metrics}}}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn in_tolerance_metrics_pass() {
        let golden = doc("{\"a\": 100.0, \"b\": 0.0}");
        // 1e-7 relative drift on `a`, exact match on `b`: both inside the
        // default 1e-6 tolerance.
        let results = doc("{\"a\": 100.00001, \"b\": 0.0}");
        assert_eq!(compare(&golden, &results).unwrap(), Vec::new());
    }

    #[test]
    fn drifted_metric_fails_with_details() {
        let golden = doc("{\"a\": 100.0}");
        let results = doc("{\"a\": 103.0}");
        let drifts = compare(&golden, &results).unwrap();
        assert_eq!(drifts.len(), 1);
        match &drifts[0] {
            Drift::Value {
                key,
                golden,
                actual,
                rel,
                ..
            } => {
                assert_eq!(key, "s/a");
                assert_eq!(*golden, 100.0);
                assert_eq!(*actual, 103.0);
                assert!((rel - 0.03).abs() < 1e-12);
            }
            other => panic!("unexpected drift {other:?}"),
        }
        assert!(drifts[0].to_string().contains("s/a"));
    }

    #[test]
    fn overrides_loosen_matching_keys_only() {
        let golden = parse(
            "{\"version\":1,\
              \"tolerances\":{\"default_rel\":1e-6,\"overrides\":{\"s/a\":0.1}},\
              \"scenarios\":{\"s\":{\"group\":\"paper\",\"metrics\":{\"a\":100.0,\"b\":100.0}}}}",
        )
        .unwrap();
        let results = doc("{\"a\": 103.0, \"b\": 103.0}");
        let drifts = compare(&golden, &results).unwrap();
        // `a` is covered by the 10% override; `b` still fails.
        assert_eq!(drifts.len(), 1);
        assert!(matches!(&drifts[0], Drift::Value { key, .. } if key == "s/b"));
        let t = Tolerances::from_json(&golden);
        assert_eq!(t.for_key("s/a"), 0.1);
        assert_eq!(t.for_key("s/b"), 1e-6);
    }

    #[test]
    fn structural_drift_is_reported() {
        let golden = parse(
            "{\"version\":1,\"scenarios\":{\
              \"gone\":{\"group\":\"paper\",\"metrics\":{\"m\":1.0}},\
              \"s\":{\"group\":\"paper\",\"metrics\":{\"kept\":1.0,\"dropped\":2.0}}}}",
        )
        .unwrap();
        let results = parse(
            "{\"version\":1,\"scenarios\":{\
              \"s\":{\"group\":\"paper\",\"metrics\":{\"kept\":1.0,\"added\":3.0}},\
              \"new\":{\"group\":\"paper\",\"metrics\":{}}}}",
        )
        .unwrap();
        let drifts = compare(&golden, &results).unwrap();
        assert!(drifts.contains(&Drift::MissingScenario("gone".to_string())));
        assert!(drifts.contains(&Drift::UnknownScenario("new".to_string())));
        assert!(drifts.contains(&Drift::MissingMetric("s/dropped".to_string())));
        assert!(drifts.contains(&Drift::UnknownMetric("s/added".to_string())));
        assert_eq!(drifts.len(), 4);
    }

    #[test]
    fn near_zero_values_use_the_absolute_floor() {
        let golden = doc("{\"a\": 0.0}");
        // 1e-16 absolute drift around zero must not explode into a huge
        // relative drift.
        let results = doc("{\"a\": 1e-16}");
        assert_eq!(compare(&golden, &results).unwrap(), Vec::new());
    }

    #[test]
    fn intersection_check_ignores_additions_but_pins_the_rest() {
        let reference = parse(
            "{\"version\":1,\"scenarios\":{\
              \"s\":{\"group\":\"paper\",\"metrics\":{\"kept\":1.5,\"dropped\":2.0}},\
              \"gone\":{\"group\":\"paper\",\"metrics\":{\"m\":1.0}}}}",
        )
        .unwrap();
        let results = parse(
            "{\"version\":1,\"scenarios\":{\
              \"s\":{\"group\":\"paper\",\"metrics\":{\"kept\":1.5,\"added\":9.0}},\
              \"brand_new\":{\"group\":\"programs\",\"metrics\":{\"x\":1.0}}}}",
        )
        .unwrap();
        let drifts = compare_intersection_exact(&reference, &results).unwrap();
        // New scenario and new metric are fine; losing a reference scenario
        // or metric is not.
        assert!(drifts.contains(&Drift::MissingScenario("gone".to_string())));
        assert!(drifts.contains(&Drift::MissingMetric("s/dropped".to_string())));
        assert_eq!(drifts.len(), 2);
    }

    #[test]
    fn intersection_check_has_zero_tolerance() {
        let reference = doc("{\"a\": 100.0}");
        // A drift that passes the default 1e-6 relative gate still fails the
        // bit-identity check.
        let results = doc("{\"a\": 100.00000001}");
        assert_eq!(compare(&reference, &results).unwrap(), Vec::new());
        let drifts = compare_intersection_exact(&reference, &results).unwrap();
        assert_eq!(drifts.len(), 1);
        assert!(matches!(&drifts[0], Drift::Value { tolerance, .. } if *tolerance == 0.0));
    }

    #[test]
    fn restricted_reference_checks_only_the_selected_scenarios() {
        let golden = parse(
            "{\"version\":1,\"tolerances\":{\"default_rel\":1e-6},\"scenarios\":{\
              \"picked\":{\"group\":\"eviction\",\"metrics\":{\"m\":1.0}},\
              \"other\":{\"group\":\"paper\",\"metrics\":{\"m\":2.0}}}}",
        )
        .unwrap();
        let filtered_run = parse(
            "{\"version\":1,\"scenarios\":{\
              \"picked\":{\"group\":\"eviction\",\"metrics\":{\"m\":1.0}}}}",
        )
        .unwrap();
        // Unrestricted, the unselected scenario is missing; restricted to
        // the selection, a clean filtered run passes both comparisons and
        // the tolerances survive.
        assert_eq!(
            compare(&golden, &filtered_run).unwrap(),
            vec![Drift::MissingScenario("other".to_string())]
        );
        let reference = restrict(&golden, &["picked"]);
        assert!(reference.get("tolerances").is_some());
        assert_eq!(compare(&reference, &filtered_run).unwrap(), Vec::new());
        assert_eq!(
            compare_intersection_exact(&reference, &filtered_run).unwrap(),
            Vec::new()
        );
        // A drifted metric in a selected scenario still fails.
        let drifted = parse(
            "{\"version\":1,\"scenarios\":{\
              \"picked\":{\"group\":\"eviction\",\"metrics\":{\"m\":1.5}}}}",
        )
        .unwrap();
        assert!(matches!(
            compare(&reference, &drifted).unwrap().as_slice(),
            [Drift::Value { key, .. }] if key == "picked/m"
        ));
        assert_eq!(
            compare_intersection_exact(&reference, &drifted)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn make_golden_carries_tolerances_over() {
        let results = doc("{\"a\": 1.0}");
        let fresh = make_golden(&results, None);
        assert_eq!(
            fresh
                .get("tolerances")
                .and_then(|t| t.get("default_rel"))
                .and_then(Json::as_f64),
            Some(1e-6)
        );
        let loosened =
            parse("{\"version\":1,\"tolerances\":{\"default_rel\":0.5},\"scenarios\":{}}").unwrap();
        let regenerated = make_golden(&results, Some(&loosened));
        assert_eq!(
            regenerated
                .get("tolerances")
                .and_then(|t| t.get("default_rel"))
                .and_then(Json::as_f64),
            Some(0.5)
        );
        // Scenarios come from the fresh results, not the old golden.
        assert!(regenerated.get("scenarios").unwrap().get("s").is_some());
    }
}
