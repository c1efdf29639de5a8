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
//!   "retired": [{"prefix": "<scenario>/<metric prefix>", "reason": "..."}],
//!   "scenarios": { "<name>": {"group": "...", "metrics": {"<key>": 1.25},
//!                             "profile": {"engine.events_fired": 812}} }
//! }
//! ```
//!
//! Override keys are substring patterns matched against
//! `"<scenario>/<metric>"`; the longest matching pattern wins. Every
//! tolerance must be a non-negative finite number.
//!
//! Each scenario's `profile` holds its deterministic work counters
//! (`engine.*`, `cache.*`, `io.*`; see [`workflow::ProfileStats`]), summed
//! over every simulation the scenario ran. They are gated one way: a
//! counter more than [`COUNTER_HEADROOM_PCT`] percent above its golden
//! value fails, a lower one passes with a note, and `--update-golden`
//! ratchets the section down. The headroom is a constant, not a golden
//! field. The frozen check ignores the section: it covers predictions, not
//! work. When a scenario drifts, [`counter_deltas`] lists its counters that
//! moved, so a failure names the layer that did different work.
//!
//! The optional `retired` list names metrics deleted on purpose: each entry
//! is a `"<scenario>/<metric>"` prefix plus the reason. The frozen check
//! ([`compare_intersection_exact`]) skips, and reports, every reference key
//! under a retired prefix, so a PR that deletes metrics can still prove the
//! rest bit-identical against the previous golden; a scenario may be gone
//! from the run only when every one of its metrics is retired. A retired
//! prefix that matches a metric the run still produces is drift: the list
//! must never hide a live metric. The list is read from the checked-in golden, never
//! from the frozen reference, and `--update-golden` carries it over.

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
    /// Parses the `tolerances` section of a golden document; an absent
    /// section or field falls back to the default. A value that is not a
    /// non-negative finite number is an error, never silently dropped.
    pub fn from_json(doc: &Json) -> Result<Tolerances, String> {
        let mut t = Tolerances::default();
        let Some(section) = doc.get("tolerances") else {
            return Ok(t);
        };
        if let Some(v) = section.get("default_rel") {
            t.default_rel = non_negative("default_rel", v)?;
        }
        match section.get("overrides") {
            None => {}
            Some(Json::Obj(pairs)) => {
                for (pattern, v) in pairs {
                    t.overrides
                        .push((pattern.clone(), non_negative(pattern, v)?));
                }
            }
            Some(_) => return Err("tolerance 'overrides' must be an object".to_string()),
        }
        Ok(t)
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

/// One entry of the golden's `retired` list.
#[derive(Debug, Clone, PartialEq)]
pub struct Retired {
    /// A `"<scenario>/<metric>"` prefix; every key starting with it is
    /// retired.
    pub prefix: String,
    /// Why the metrics were deleted.
    pub reason: String,
}

impl Retired {
    /// Parses the `retired` section of a golden document; an absent section
    /// is an empty list. An entry without a non-empty `prefix` or without a
    /// `reason` is an error, since an empty prefix would retire every key.
    pub fn from_json(doc: &Json) -> Result<Vec<Retired>, String> {
        let entries = match doc.get("retired") {
            None => return Ok(Vec::new()),
            Some(Json::Arr(entries)) => entries,
            Some(_) => return Err("'retired' must be a list".to_string()),
        };
        entries
            .iter()
            .map(|entry| {
                let field = |name: &str| match entry.get(name) {
                    Some(Json::Str(v)) if !v.is_empty() => Ok(v.clone()),
                    _ => Err(format!(
                        "retired entry {entry:?} needs a non-empty {name:?}"
                    )),
                };
                Ok(Retired {
                    prefix: field("prefix")?,
                    reason: field("reason")?,
                })
            })
            .collect()
    }
}

/// A tolerance or a work counter: a non-negative finite number.
fn non_negative(key: &str, value: &Json) -> Result<f64, String> {
    match value.as_f64() {
        Some(v) if v.is_finite() && v >= 0.0 => Ok(v),
        _ => Err(format!(
            "{key:?} must be a non-negative finite number, not {value:?}"
        )),
    }
}

/// How far, in percent of its golden value, a work counter may rise before
/// `--check` fails.
pub const COUNTER_HEADROOM_PCT: f64 = 10.0;

/// The work counters of one scenario: its `profile` section, empty when
/// absent. Parsed as strictly as the tolerances.
fn profile_map<'a>(name: &str, scenario: &'a Json) -> Result<Vec<(&'a str, f64)>, String> {
    match scenario.get("profile") {
        None => Ok(Vec::new()),
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| Ok((k.as_str(), non_negative(&format!("{name}/{k}"), v)?)))
            .collect(),
        Some(_) => Err(format!("the profile of {name} must be an object")),
    }
}

/// The first entry of `retired` whose prefix `key` starts with.
fn retired_by<'a>(retired: &'a [Retired], key: &str) -> Option<&'a Retired> {
    retired.iter().find(|r| key.starts_with(r.prefix.as_str()))
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
    /// The run produced a metric under a retired prefix.
    LiveRetired {
        /// `scenario/metric` key.
        key: String,
        /// The retired prefix it falls under.
        prefix: String,
    },
    /// A work counter rose more than [`COUNTER_HEADROOM_PCT`] above its
    /// golden value.
    Counter {
        /// `scenario/profile/counter` key.
        key: String,
        /// Golden value.
        golden: f64,
        /// Value produced by the run.
        actual: f64,
    },
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
            Drift::LiveRetired { key, prefix } => {
                write!(f, "metric {key} is still produced but retired by {prefix:?}")
            }
            Drift::Counter {
                key,
                golden,
                actual,
            } => write!(
                f,
                "{key}: golden {golden} vs actual {actual} (+{:.1}% > +{COUNTER_HEADROOM_PCT}%)",
                (actual - golden) / golden.max(1.0) * 100.0
            ),
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
/// drift found (empty = gate passes) and a note for every work counter that
/// fell below its golden value. Both documents use the schema produced by
/// [`crate::runner::SweepResults::to_json`]; the `timings` section, being
/// machine-dependent, is ignored entirely. A malformed tolerance or profile
/// section is an error.
pub fn compare(golden: &Json, results: &Json) -> Result<(Vec<Drift>, Vec<String>), String> {
    let tolerances = Tolerances::from_json(golden)?;
    let golden_scenarios = golden
        .get("scenarios")
        .ok_or("golden file has no 'scenarios' section")?;
    let result_scenarios = results
        .get("scenarios")
        .ok_or("results file has no 'scenarios' section")?;

    let mut drifts = Vec::new();
    let mut notes = Vec::new();
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
        let expected = profile_map(name, golden_scenario)?;
        let actual = profile_map(name, result_scenario)?;
        for &(counter, golden) in &expected {
            let key = format!("{name}/profile/{counter}");
            match actual.iter().find(|(k, _)| *k == counter) {
                None => drifts.push(Drift::MissingMetric(key)),
                // Exact on whole counts: 110 passes against 100, 111 fails.
                Some(&(_, actual)) if actual * 100.0 > golden * (100.0 + COUNTER_HEADROOM_PCT) => {
                    drifts.push(Drift::Counter {
                        key,
                        golden,
                        actual,
                    })
                }
                Some(&(_, actual)) if actual < golden => notes.push(format!(
                    "{key}: {actual} < golden {golden}; --update-golden ratchets it"
                )),
                Some(_) => {}
            }
        }
        for (counter, _) in actual {
            if expected.iter().all(|(k, _)| *k != counter) {
                drifts.push(Drift::UnknownMetric(format!("{name}/profile/{counter}")));
            }
        }
    }
    for (name, _) in result_scenarios.pairs() {
        if golden_scenarios.get(name).is_none() {
            drifts.push(Drift::UnknownScenario(name.clone()));
        }
    }
    Ok((drifts, notes))
}

/// One line per scenario that drifted, listing its work counters that
/// differ from the golden as `layer.counter golden -> actual (+delta)`, so
/// a `--check` failure names the layer (`engine.*`, `cache.*`, `io.*`)
/// that did different work. Scenarios whose counters all match are
/// reported as such.
pub fn counter_deltas(golden: &Json, results: &Json, drifts: &[Drift]) -> Vec<String> {
    let mut scenarios: Vec<&str> = Vec::new();
    for drift in drifts {
        if let Drift::Value { key, .. } | Drift::Counter { key, .. } = drift {
            let name = key.split('/').next().unwrap_or(key);
            if !scenarios.contains(&name) {
                scenarios.push(name);
            }
        }
    }
    fn counters<'a>(doc: &'a Json, name: &str) -> Vec<(&'a str, f64)> {
        doc.get("scenarios")
            .and_then(|s| s.get(name))
            .and_then(|s| profile_map(name, s).ok())
            .unwrap_or_default()
    }
    scenarios
        .into_iter()
        .map(|name| {
            let expected = counters(golden, name);
            let deltas: Vec<String> = counters(results, name)
                .into_iter()
                .filter_map(|(counter, actual)| {
                    let (_, golden) = expected.iter().find(|(k, _)| *k == counter)?;
                    (actual != *golden)
                        .then(|| format!("{counter} {golden} -> {actual} ({:+})", actual - golden))
                })
                .collect();
            if deltas.is_empty() {
                format!("{name}: no work counter moved")
            } else {
                format!("{name}: {}", deltas.join(", "))
            }
        })
        .collect()
}

/// Compares a sweep run against a **frozen** reference document,
/// restricted to the reference's scenarios and metrics and with **zero
/// tolerance**: every metric the reference knows must be present in the run
/// and bit-identical; scenarios and metrics that exist only in the run are
/// ignored. Reference metrics under a `retired` prefix are skipped, and
/// returned second so the caller can list them, so a scenario whose every
/// metric is retired may be gone; a metric of the run under a retired
/// prefix is a [`Drift::LiveRetired`].
///
/// This is the proof obligation of a PR that *adds* scenarios or metrics:
/// regenerating `baselines/golden.json` in the same commit is legitimate,
/// but the regeneration must not move any pre-existing prediction. CI runs
/// this against the frozen snapshot of the previous baseline
/// (`sweep --check-frozen <path>`).
pub fn compare_intersection_exact(
    reference: &Json,
    results: &Json,
    retired: &[Retired],
) -> Result<(Vec<Drift>, Vec<String>), String> {
    let reference_scenarios = reference
        .get("scenarios")
        .ok_or("reference file has no 'scenarios' section")?;
    let result_scenarios = results
        .get("scenarios")
        .ok_or("results file has no 'scenarios' section")?;

    let mut drifts = Vec::new();
    let mut skipped = Vec::new();
    for (name, result_scenario) in result_scenarios.pairs() {
        for (metric, _) in metric_map(result_scenario) {
            let key = format!("{name}/{metric}");
            if let Some(r) = retired_by(retired, &key) {
                let prefix = r.prefix.clone();
                drifts.push(Drift::LiveRetired { key, prefix });
            }
        }
    }
    for (name, reference_scenario) in reference_scenarios.pairs() {
        let Some(result_scenario) = result_scenarios.get(name) else {
            // A scenario deleted on purpose has every metric retired.
            let keys: Vec<String> = metric_map(reference_scenario)
                .iter()
                .map(|(metric, _)| format!("{name}/{metric}"))
                .collect();
            if !keys.is_empty() && keys.iter().all(|key| retired_by(retired, key).is_some()) {
                skipped.extend(keys);
            } else {
                drifts.push(Drift::MissingScenario(name.clone()));
            }
            continue;
        };
        let actual = metric_map(result_scenario);
        for &(metric, reference_value) in &metric_map(reference_scenario) {
            let key = format!("{name}/{metric}");
            if retired_by(retired, &key).is_some() {
                skipped.push(key);
                continue;
            }
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
    Ok((drifts, skipped))
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
/// golden file. Existing tolerances and the `retired` list (when
/// regenerating) are carried over.
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
    if let Some(retired) = previous_golden.and_then(|g| g.get("retired")) {
        pairs.push(("retired".to_string(), retired.clone()));
    }
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
        assert_eq!(compare(&golden, &results).unwrap().0, Vec::new());
    }

    #[test]
    fn drifted_metric_fails_with_details() {
        let golden = doc("{\"a\": 100.0}");
        let results = doc("{\"a\": 103.0}");
        let drifts = compare(&golden, &results).unwrap().0;
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
        let drifts = compare(&golden, &results).unwrap().0;
        // `a` is covered by the 10% override; `b` still fails.
        assert_eq!(drifts.len(), 1);
        assert!(matches!(&drifts[0], Drift::Value { key, .. } if key == "s/b"));
        let t = Tolerances::from_json(&golden).unwrap();
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
        let drifts = compare(&golden, &results).unwrap().0;
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
        assert_eq!(compare(&golden, &results).unwrap().0, Vec::new());
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
        let drifts = compare_intersection_exact(&reference, &results, &[])
            .unwrap()
            .0;
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
        assert_eq!(compare(&reference, &results).unwrap().0, Vec::new());
        let drifts = compare_intersection_exact(&reference, &results, &[])
            .unwrap()
            .0;
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
            compare(&golden, &filtered_run).unwrap().0,
            vec![Drift::MissingScenario("other".to_string())]
        );
        let reference = restrict(&golden, &["picked"]);
        assert!(reference.get("tolerances").is_some());
        assert_eq!(compare(&reference, &filtered_run).unwrap().0, Vec::new());
        assert_eq!(
            compare_intersection_exact(&reference, &filtered_run, &[])
                .unwrap()
                .0,
            Vec::new()
        );
        // A drifted metric in a selected scenario still fails.
        let drifted = parse(
            "{\"version\":1,\"scenarios\":{\
              \"picked\":{\"group\":\"eviction\",\"metrics\":{\"m\":1.5}}}}",
        )
        .unwrap();
        assert!(matches!(
            compare(&reference, &drifted).unwrap().0.as_slice(),
            [Drift::Value { key, .. }] if key == "picked/m"
        ));
        assert_eq!(
            compare_intersection_exact(&reference, &drifted, &[])
                .unwrap()
                .0
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

    /// The golden of `doc` with a `retired` list of one prefix.
    fn retiring(prefix: &str) -> Json {
        parse(&format!(
            "{{\"version\":1,\"retired\":[{{\"prefix\":\"{prefix}\",\"reason\":\"deleted\"}}],\
              \"scenarios\":{{}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn retired_reference_keys_are_skipped_and_listed() {
        let reference = doc("{\"kept\": 1.5, \"gone/a\": 2.0, \"gone/b\": 3.0}");
        let results = doc("{\"kept\": 1.5}");
        let retired = Retired::from_json(&retiring("s/gone/")).unwrap();
        assert_eq!(
            retired,
            vec![Retired {
                prefix: "s/gone/".to_string(),
                reason: "deleted".to_string()
            }]
        );
        let (drifts, skipped) = compare_intersection_exact(&reference, &results, &retired).unwrap();
        assert_eq!(drifts, Vec::new());
        assert_eq!(
            skipped,
            vec!["s/gone/a".to_string(), "s/gone/b".to_string()]
        );
        // Without the list the same keys are missing metrics.
        let (drifts, skipped) = compare_intersection_exact(&reference, &results, &[]).unwrap();
        assert_eq!(drifts.len(), 2);
        assert!(skipped.is_empty());
    }

    #[test]
    fn a_scenario_may_vanish_only_when_all_its_metrics_are_retired() {
        let reference = doc("{\"a\": 1.0, \"b\": 2.0}");
        let results = parse("{\"scenarios\": {}}").unwrap();
        let retired = Retired::from_json(&retiring("s/")).unwrap();
        let (drifts, skipped) = compare_intersection_exact(&reference, &results, &retired).unwrap();
        assert_eq!(drifts, Vec::new());
        assert_eq!(skipped, vec!["s/a".to_string(), "s/b".to_string()]);
        // One metric left unretired keeps the scenario required.
        let retired = Retired::from_json(&retiring("s/a")).unwrap();
        let (drifts, _) = compare_intersection_exact(&reference, &results, &retired).unwrap();
        assert_eq!(drifts, vec![Drift::MissingScenario("s".to_string())]);
    }

    #[test]
    fn a_live_metric_under_a_retired_prefix_fails() {
        let reference = doc("{\"gone/a\": 2.0}");
        // The run still produces `gone/a`, and with a drifted value: the
        // retired list must not hide it.
        let results = doc("{\"gone/a\": 2.5}");
        let retired = Retired::from_json(&retiring("s/gone/")).unwrap();
        let (drifts, skipped) = compare_intersection_exact(&reference, &results, &retired).unwrap();
        assert_eq!(
            drifts,
            vec![Drift::LiveRetired {
                key: "s/gone/a".to_string(),
                prefix: "s/gone/".to_string()
            }]
        );
        assert_eq!(skipped, vec!["s/gone/a".to_string()]);
        assert!(drifts[0].to_string().contains("s/gone/a"));
    }

    #[test]
    fn malformed_retired_entries_are_rejected() {
        assert_eq!(Retired::from_json(&doc("{}")).unwrap(), Vec::new());
        assert!(Retired::from_json(&retiring("")).is_err());
        let no_reason = parse("{\"retired\":[{\"prefix\":\"s/\"}]}").unwrap();
        assert!(Retired::from_json(&no_reason).is_err());
        let not_a_list = parse("{\"retired\":{\"prefix\":\"s/\"}}").unwrap();
        assert!(Retired::from_json(&not_a_list).is_err());
    }

    #[test]
    fn make_golden_carries_the_retired_list_over() {
        let results = doc("{\"a\": 1.0}");
        assert!(make_golden(&results, None).get("retired").is_none());
        let previous = retiring("s/gone/");
        let regenerated = make_golden(&results, Some(&previous));
        assert_eq!(regenerated.get("retired"), previous.get("retired"));
        let text = regenerated.render_pretty();
        assert_eq!(
            Retired::from_json(&parse(&text).unwrap()).unwrap(),
            Retired::from_json(&previous).unwrap()
        );
    }
    /// A one-scenario document with the given metrics and profile.
    fn profiled(metrics: &str, profile: &str) -> Json {
        parse(&format!(
            "{{\"version\":1,\"scenarios\":{{\"s\":{{\"group\":\"paper\",\
              \"metrics\":{metrics},\"profile\":{profile}}}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn a_counter_more_than_ten_percent_above_its_golden_fails() {
        let golden = profiled("{\"a\": 1.0}", "{\"engine.timers_cancelled\": 100}");
        let run = profiled("{\"a\": 1.0}", "{\"engine.timers_cancelled\": 111}");
        let (drifts, notes) = compare(&golden, &run).unwrap();
        assert_eq!(
            drifts,
            vec![Drift::Counter {
                key: "s/profile/engine.timers_cancelled".to_string(),
                golden: 100.0,
                actual: 111.0,
            }]
        );
        assert!(notes.is_empty());
        let shown = drifts[0].to_string();
        assert!(
            shown.contains("s/") && shown.contains("engine.timers_cancelled"),
            "{shown}"
        );
    }

    #[test]
    fn a_counter_exactly_ten_percent_above_passes() {
        let golden = profiled(
            "{}",
            "{\"cache.evict_visits\": 100, \"io.flows_completed\": 30}",
        );
        let run = profiled(
            "{}",
            "{\"cache.evict_visits\": 110, \"io.flows_completed\": 33}",
        );
        assert_eq!(compare(&golden, &run).unwrap(), (Vec::new(), Vec::new()));
    }

    #[test]
    fn a_lower_counter_passes_with_a_note() {
        let golden = profiled("{}", "{\"engine.events_fired\": 100}");
        let run = profiled("{}", "{\"engine.events_fired\": 90}");
        let (drifts, notes) = compare(&golden, &run).unwrap();
        assert!(drifts.is_empty());
        assert_eq!(notes.len(), 1);
        assert!(
            notes[0].contains("s/profile/engine.events_fired"),
            "{notes:?}"
        );
    }

    #[test]
    fn a_counter_the_run_lacks_or_adds_fails() {
        let golden = profiled(
            "{}",
            "{\"engine.events_fired\": 5, \"io.flows_completed\": 3}",
        );
        let run = profiled(
            "{}",
            "{\"engine.events_fired\": 5, \"cache.evict_calls\": 0}",
        );
        let (drifts, _) = compare(&golden, &run).unwrap();
        assert_eq!(
            drifts,
            vec![
                Drift::MissingMetric("s/profile/io.flows_completed".to_string()),
                Drift::UnknownMetric("s/profile/cache.evict_calls".to_string()),
            ]
        );
    }

    #[test]
    fn the_frozen_check_ignores_the_profile() {
        let reference = profiled("{\"a\": 1.0}", "{\"engine.events_fired\": 5}");
        let run = profiled("{\"a\": 1.0}", "{\"engine.events_fired\": 500}");
        let (drifts, skipped) = compare_intersection_exact(&reference, &run, &[]).unwrap();
        assert_eq!((drifts, skipped), (Vec::new(), Vec::new()));
        let unprofiled = doc("{\"a\": 1.0}");
        let (drifts, _) = compare_intersection_exact(&unprofiled, &run, &[]).unwrap();
        assert!(drifts.is_empty());
    }

    #[test]
    fn make_golden_writes_the_runs_profile() {
        let run = profiled("{\"a\": 1.0}", "{\"engine.events_fired\": 7}");
        let golden = make_golden(&run, Some(&profiled("{}", "{\"engine.events_fired\": 9}")));
        let profile = golden
            .get("scenarios")
            .and_then(|s| s.get("s"))
            .and_then(|s| s.get("profile"));
        assert_eq!(
            profile,
            run.get("scenarios")
                .unwrap()
                .get("s")
                .unwrap()
                .get("profile")
        );
        assert_eq!(compare(&golden, &run).unwrap(), (Vec::new(), Vec::new()));
    }

    #[test]
    fn malformed_tolerances_are_rejected() {
        let golden = |tolerances: &str| {
            parse(&format!(
                "{{\"tolerances\":{tolerances},\"scenarios\":{{}}}}"
            ))
            .unwrap()
        };
        for bad in [
            "{\"overrides\": {\"fig8_\": \"1e-3\"}}",
            "{\"overrides\": {\"fig8_\": -0.1}}",
            "{\"overrides\": [\"fig8_\"]}",
            "{\"default_rel\": \"1e-6\"}",
            "{\"default_rel\": -1e-6}",
        ] {
            assert!(Tolerances::from_json(&golden(bad)).is_err(), "{bad}");
            assert!(compare(&golden(bad), &doc("{}")).is_err(), "{bad}");
        }
        for value in [f64::INFINITY, f64::NAN] {
            let t = Json::obj(vec![("default_rel".to_string(), Json::Num(value))]);
            let doc = Json::obj(vec![("tolerances".to_string(), t)]);
            assert!(Tolerances::from_json(&doc).is_err(), "{value}");
            let t = Json::obj(vec![(
                "overrides".to_string(),
                Json::obj(vec![("fig8_".to_string(), Json::Num(value))]),
            )]);
            let doc = Json::obj(vec![("tolerances".to_string(), t)]);
            assert!(Tolerances::from_json(&doc).is_err(), "{value}");
        }
        let fine = golden("{\"default_rel\": 0, \"overrides\": {\"fig8_\": 1e-3}}");
        let t = Tolerances::from_json(&fine).unwrap();
        assert_eq!((t.default_rel, t.for_key("fig8_x/m")), (0.0, 1e-3));
    }

    #[test]
    fn malformed_profiles_are_rejected() {
        let run = profiled("{}", "{\"engine.events_fired\": 5}");
        for bad in [
            "{\"engine.events_fired\": \"5\"}",
            "{\"engine.events_fired\": -5}",
            "[5]",
        ] {
            assert!(compare(&profiled("{}", bad), &run).is_err(), "{bad}");
        }
        for value in [f64::INFINITY, f64::NAN] {
            let scenario = Json::obj(vec![(
                "profile".to_string(),
                Json::obj(vec![("engine.events_fired".to_string(), Json::Num(value))]),
            )]);
            let golden = Json::obj(vec![(
                "scenarios".to_string(),
                Json::obj(vec![("s".to_string(), scenario)]),
            )]);
            assert!(compare(&golden, &run).is_err(), "{value}");
        }
    }

    #[test]
    fn counter_deltas_name_the_layer_of_each_drifted_scenario() {
        let golden = parse(
            "{\"scenarios\":{\
              \"a\":{\"metrics\":{\"m\":1.0},\"profile\":{\"engine.events_fired\":100,\
                \"cache.evict_visits\":10,\"io.flows_completed\":4}},\
              \"b\":{\"metrics\":{\"m\":1.0},\"profile\":{\"engine.events_fired\":3}},\
              \"c\":{\"metrics\":{\"m\":1.0},\"profile\":{\"engine.events_fired\":3}}}}",
        )
        .unwrap();
        let run = parse(
            "{\"scenarios\":{\
              \"a\":{\"metrics\":{\"m\":2.0},\"profile\":{\"engine.events_fired\":112,\
                \"cache.evict_visits\":7,\"io.flows_completed\":4}},\
              \"b\":{\"metrics\":{\"m\":2.0},\"profile\":{\"engine.events_fired\":3}},\
              \"c\":{\"metrics\":{\"m\":1.0},\"profile\":{\"engine.events_fired\":4}}}}",
        )
        .unwrap();
        let (drifts, notes) = compare(&golden, &run).unwrap();
        assert_eq!(drifts.len(), 4, "{drifts:?}");
        assert_eq!(notes.len(), 1);
        assert_eq!(
            counter_deltas(&golden, &run, &drifts),
            vec![
                "a: engine.events_fired 100 -> 112 (+12), cache.evict_visits 10 -> 7 (-3)"
                    .to_string(),
                "b: no work counter moved".to_string(),
                "c: engine.events_fired 3 -> 4 (+1)".to_string(),
            ]
        );
    }
}
