//! The [`Scenario`] registry entry and the metric record a scenario produces.
//!
//! A harness scenario is a **self-contained, deterministic** simulation run:
//! it builds its own platform and application, runs one or more DES engines
//! to completion on the calling thread, and reports a flat, ordered list of
//! named metrics. Scenarios must not read clocks, environment variables, or
//! any other ambient state — everything a scenario reports must be a pure
//! function of the simulation model, so `RESULTS.json` is bit-identical
//! across runs, thread counts, and machines.
//!
//! Wall-clock timings are recorded *outside* the scenario by the runner and
//! never participate in golden comparisons.

use workflow::ProfileStats;

/// Ordered, named metrics of one scenario run, plus the work counters of
/// every simulation the scenario ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    entries: Vec<(String, f64)>,
    profile: ProfileStats,
}

impl Metrics {
    /// Creates an empty metric record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a metric. Panics on a duplicate name — every metric key must
    /// be unique within its scenario so golden diffs are unambiguous.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            !self.entries.iter().any(|(n, _)| *n == name),
            "duplicate metric name {name:?}"
        );
        self.entries.push((name, value));
    }

    /// The metrics in insertion order.
    pub fn entries(&self) -> &[(String, f64)] {
        &self.entries
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no metrics were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds the work counters of one simulation run (see
    /// [`ProfileStats::merge`]).
    pub fn record(&mut self, profile: &ProfileStats) {
        self.profile.merge(profile);
    }

    /// The work counters summed over every recorded run.
    pub fn profile(&self) -> &ProfileStats {
        &self.profile
    }
}

/// One entry of the sweep registry: a named, described function pointer
/// (trivially `Send + Sync`).
pub struct Scenario {
    /// Unique scenario name (the key in `RESULTS.json`).
    pub name: &'static str,
    /// Group the scenario belongs to (`"paper"`, `"examples"`, `"sweep"`, ...).
    pub group: &'static str,
    /// One-line description shown by `sweep --list`.
    pub description: &'static str,
    /// The scenario body: runs the scenario and returns its metrics.
    pub run: fn() -> Result<Metrics, String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_preserve_insertion_order() {
        let mut m = Metrics::new();
        m.push("z", 1.0);
        m.push("a", 2.0);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert_eq!(m.entries()[0].0, "z");
        assert_eq!(m.entries()[1].0, "a");
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn duplicate_metric_names_panic() {
        let mut m = Metrics::new();
        m.push("a", 1.0);
        m.push("a", 2.0);
    }

    #[test]
    fn scenario_runs_its_body() {
        fn body() -> Result<Metrics, String> {
            let mut m = Metrics::new();
            m.push("x", 1.5);
            Ok(m)
        }
        let s = Scenario {
            name: "test",
            group: "sweep",
            description: "a test scenario",
            run: body,
        };
        assert_eq!((s.run)().unwrap().entries(), &[("x".to_string(), 1.5)]);
    }
}
