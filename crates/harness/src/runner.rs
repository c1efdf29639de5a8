//! The parallel sweep runner.
//!
//! Scenarios fan out across `std::thread` workers. Each scenario builds and
//! runs its own single-threaded DES engine (the engine is `Rc<RefCell<_>>`
//! based and deliberately `!Send`), so parallelism lives strictly *between*
//! scenarios: a worker picks the next index off a shared cursor, runs the
//! scenario to completion on its own thread, and records `(index, result)`.
//!
//! Determinism: results are collected keyed by **registry index** and sorted
//! before serialization, so `RESULTS.json` is bit-identical for any thread
//! count, whichever worker happened to finish which scenario first. The
//! determinism suite proves it by comparing 1, 2 and 4 threads byte for
//! byte.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;
use crate::scenario::{Metrics, Scenario};

/// Configuration of one sweep run.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Number of worker threads (at least 1).
    pub threads: usize,
    /// Only run scenarios whose name or group contains this substring
    /// (`eviction` selects the whole policy-comparison group).
    pub filter: Option<String>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            filter: None,
        }
    }
}

impl SweepConfig {
    /// Whether the filter selects `scenario`: its name or group contains
    /// the filter string, or there is no filter.
    pub fn selects(&self, scenario: &Scenario) -> bool {
        self.filter
            .as_deref()
            .is_none_or(|f| scenario.name.contains(f) || scenario.group.contains(f))
    }
}

/// Outcome of one scenario within a sweep.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Scenario group.
    pub group: String,
    /// The metrics, or the error message if the scenario failed.
    pub outcome: Result<Metrics, String>,
    /// Wall-clock seconds the scenario took (informational only; never part
    /// of the deterministic output).
    pub wall_clock_seconds: f64,
}

/// All results of a sweep, in registry order.
#[derive(Debug, Clone, Default)]
pub struct SweepResults {
    /// Per-scenario results, ordered by registry index.
    pub scenarios: Vec<ScenarioResult>,
}

impl SweepResults {
    /// Whether every scenario completed successfully.
    pub fn all_ok(&self) -> bool {
        self.scenarios.iter().all(|s| s.outcome.is_ok())
    }

    /// The failed scenarios as `(name, error)` pairs.
    pub fn failures(&self) -> Vec<(&str, &str)> {
        self.scenarios
            .iter()
            .filter_map(|s| match &s.outcome {
                Ok(_) => None,
                Err(e) => Some((s.name.as_str(), e.as_str())),
            })
            .collect()
    }

    /// Total wall-clock seconds summed over scenarios.
    pub fn total_wall_clock(&self) -> f64 {
        self.scenarios.iter().map(|s| s.wall_clock_seconds).sum()
    }

    /// The deterministic result document: schema version plus, per scenario,
    /// its group and metric map. Failed scenarios are *not* representable —
    /// callers must check [`SweepResults::all_ok`] first.
    ///
    /// With `timings`, a machine-dependent `timings` section (wall-clock per
    /// scenario) is appended; golden comparisons always ignore it.
    pub fn to_json(&self, timings: bool) -> Json {
        let mut scenarios = Vec::new();
        for s in &self.scenarios {
            let metrics = match &s.outcome {
                Ok(m) => m,
                Err(_) => continue,
            };
            let metric_pairs = metrics
                .entries()
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect();
            scenarios.push((
                s.name.clone(),
                Json::obj(vec![
                    ("group".to_string(), Json::Str(s.group.clone())),
                    ("metrics".to_string(), Json::Obj(metric_pairs)),
                ]),
            ));
        }
        let mut doc = vec![
            ("version".to_string(), Json::Num(1.0)),
            ("scenarios".to_string(), Json::Obj(scenarios)),
        ];
        if timings {
            let t = self
                .scenarios
                .iter()
                .map(|s| (s.name.clone(), Json::Num(s.wall_clock_seconds)))
                .collect();
            doc.push(("timings".to_string(), Json::Obj(t)));
        }
        Json::obj(doc)
    }
}

/// Runs the scenarios of `registry` according to `config` and returns the
/// results in registry order.
pub fn run_sweep(registry: &[Scenario], config: &SweepConfig) -> SweepResults {
    let selected: Vec<usize> = (0..registry.len())
        .filter(|&i| config.selects(&registry[i]))
        .collect();

    // (registry index, outcome, wall-clock seconds) of one finished scenario.
    type Slot = (usize, Result<Metrics, String>, f64);
    let run_one = |idx: usize| -> Slot {
        let start = Instant::now();
        // A panicking scenario must fail *that scenario*, not tear down the
        // whole sweep with it.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (registry[idx].run)()))
                .unwrap_or_else(|panic| {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "scenario panicked".to_string());
                    Err(format!("panic: {msg}"))
                });
        (idx, outcome, start.elapsed().as_secs_f64())
    };

    // Workers steal the next scenario off a shared cursor; the index-keyed
    // sort below makes the completion order irrelevant.
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<Slot>> = Mutex::new(Vec::with_capacity(selected.len()));
    let workers = config.threads.max(1).min(selected.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let next = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&idx) = selected.get(next) else {
                    break;
                };
                // Run the scenario outside the lock, or the workers
                // serialize on it.
                let slot = run_one(idx);
                collected
                    .lock()
                    .expect("no worker panics while holding the lock")
                    .push(slot);
            });
        }
    });
    let mut collected = collected
        .into_inner()
        .expect("no worker panics while holding the lock");
    collected.sort_by_key(|(idx, _, _)| *idx);
    SweepResults {
        scenarios: collected
            .into_iter()
            .map(|(idx, outcome, wall_clock_seconds)| ScenarioResult {
                name: registry[idx].name.to_string(),
                group: registry[idx].group.to_string(),
                outcome,
                wall_clock_seconds,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_registry() -> Vec<Scenario> {
        fn a() -> Result<Metrics, String> {
            let mut m = Metrics::new();
            m.push("x", 1.0);
            Ok(m)
        }
        fn b() -> Result<Metrics, String> {
            let mut m = Metrics::new();
            m.push("y", 2.0);
            Ok(m)
        }
        fn c() -> Result<Metrics, String> {
            Err("boom".to_string())
        }
        vec![
            Scenario {
                name: "alpha",
                group: "sweep",
                description: "",
                run: a,
            },
            Scenario {
                name: "beta",
                group: "sweep",
                description: "",
                run: b,
            },
            Scenario {
                name: "gamma_fails",
                group: "sweep",
                description: "",
                run: c,
            },
        ]
    }

    #[test]
    fn results_are_in_registry_order_for_any_thread_count() {
        let registry = fake_registry();
        let mut renderings = Vec::new();
        for threads in [1, 2, 4] {
            let results = run_sweep(
                &registry,
                &SweepConfig {
                    threads,
                    filter: None,
                },
            );
            let names: Vec<&str> = results.scenarios.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(names, ["alpha", "beta", "gamma_fails"]);
            assert!(!results.all_ok());
            assert_eq!(results.failures(), vec![("gamma_fails", "boom")]);
            renderings.push(results.to_json(false).render_pretty());
        }
        assert_eq!(renderings[0], renderings[1]);
        assert_eq!(renderings[1], renderings[2]);
    }

    #[test]
    fn panicking_scenario_is_reported_not_fatal() {
        fn panics() -> Result<Metrics, String> {
            panic!("scenario exploded");
        }
        fn ok() -> Result<Metrics, String> {
            Ok(Metrics::new())
        }
        let registry = vec![
            Scenario {
                name: "bad",
                group: "sweep",
                description: "",
                run: panics,
            },
            Scenario {
                name: "good",
                group: "sweep",
                description: "",
                run: ok,
            },
        ];
        let results = run_sweep(&registry, &SweepConfig::default());
        assert_eq!(results.scenarios.len(), 2);
        assert!(!results.all_ok());
        let failures = results.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "bad");
        assert!(failures[0].1.contains("scenario exploded"), "{failures:?}");
        assert!(results.scenarios[1].outcome.is_ok());
    }

    #[test]
    fn filter_selects_by_substring() {
        let registry = fake_registry();
        let results = run_sweep(
            &registry,
            &SweepConfig {
                threads: 2,
                filter: Some("alpha".to_string()),
            },
        );
        assert_eq!(results.scenarios.len(), 1);
        assert!(results.all_ok());
        assert!(results.total_wall_clock() >= 0.0);
    }

    #[test]
    fn filter_also_matches_the_group_name() {
        let registry = fake_registry();
        // Every fake scenario is in the "sweep" group; a group filter selects
        // them all even though no scenario *name* contains it.
        let results = run_sweep(
            &registry,
            &SweepConfig {
                threads: 2,
                filter: Some("sweep".to_string()),
            },
        );
        assert_eq!(results.scenarios.len(), 3);
    }

    #[test]
    fn workers_run_scenarios_concurrently() {
        // Each scenario waits for the other one to start, so both succeed
        // only when two workers run them at the same time.
        use std::sync::Condvar;
        use std::time::Duration;
        static STARTED: (Mutex<u32>, Condvar) = (Mutex::new(0), Condvar::new());
        fn rendezvous() -> Result<Metrics, String> {
            let (count, started) = &STARTED;
            let mut n = count.lock().unwrap();
            *n += 1;
            started.notify_all();
            let (n, _) = started
                .wait_timeout_while(n, Duration::from_secs(10), |n| *n < 2)
                .unwrap();
            if *n < 2 {
                return Err("the other scenario never started".to_string());
            }
            Ok(Metrics::new())
        }
        let registry: Vec<Scenario> = ["a", "b"]
            .into_iter()
            .map(|name| Scenario {
                name,
                group: "sweep",
                description: "",
                run: rendezvous,
            })
            .collect();
        let results = run_sweep(
            &registry,
            &SweepConfig {
                threads: 2,
                filter: None,
            },
        );
        assert!(results.all_ok(), "{:?}", results.failures());
    }

    #[test]
    fn timings_section_is_optional() {
        let registry = fake_registry();
        let results = run_sweep(&registry, &SweepConfig::default());
        let without = results.to_json(false);
        let with = results.to_json(true);
        assert!(without.get("timings").is_none());
        assert!(with.get("timings").is_some());
        // The deterministic core is identical either way.
        assert_eq!(without.get("scenarios"), with.get("scenarios"));
    }
}
