//! Experiment 4 (paper §IV-D, Fig. 6): the Nighres cortical-reconstruction
//! workflow on a single node with local I/O.
//!
//! The figure reports, for each of the four workflow steps, the absolute
//! relative error of the read and write times of WRENCH and WRENCH-cache with
//! respect to the real execution.

use workflow::{
    absolute_relative_error_pct, run_scenario, ApplicationSpec, PlatformSpec, ProfileStats,
    Scenario, ScenarioError, SimulatorKind,
};

/// Per-phase (read or write of one step) timings and errors.
#[derive(Debug, Clone, PartialEq)]
pub struct NighresPhase {
    /// Phase label, e.g. "Read 2" / "Write 2".
    pub label: String,
    /// Workflow step name, e.g. "Tissue classification".
    pub step: String,
    /// Ground-truth time, seconds.
    pub real: f64,
    /// Cacheless (vanilla WRENCH) time, seconds.
    pub cacheless: f64,
    /// WRENCH-cache time, seconds.
    pub wrench_cache: f64,
}

impl NighresPhase {
    /// Error of the cacheless simulator, percent.
    pub fn error_cacheless(&self) -> f64 {
        absolute_relative_error_pct(self.cacheless, self.real)
    }

    /// Error of WRENCH-cache, percent.
    pub fn error_wrench_cache(&self) -> f64 {
        absolute_relative_error_pct(self.wrench_cache, self.real)
    }
}

/// Result of Exp 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Exp4Result {
    /// The eight phases (read + write of each of the four steps).
    pub phases: Vec<NighresPhase>,
    /// Work counters summed over the three runs.
    pub profile: ProfileStats,
}

impl Exp4Result {
    /// Mean error of the cacheless simulator across phases with a non-zero
    /// ground-truth time, percent (the paper reports 337 %).
    pub fn mean_error_cacheless(&self) -> f64 {
        mean(
            self.phases
                .iter()
                .filter(|p| p.real > 1e-9)
                .map(NighresPhase::error_cacheless),
        )
    }

    /// Mean error of WRENCH-cache, percent (the paper reports 47 %).
    pub fn mean_error_wrench_cache(&self) -> f64 {
        mean(
            self.phases
                .iter()
                .filter(|p| p.real > 1e-9)
                .map(NighresPhase::error_wrench_cache),
        )
    }
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = iter.collect();
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Runs Exp 4 on the given platform.
pub fn run_exp4(platform: &PlatformSpec) -> Result<Exp4Result, ScenarioError> {
    let app = ApplicationSpec::nighres();
    let run =
        |kind: SimulatorKind| run_scenario(&Scenario::new(platform.clone(), app.clone(), kind));
    let real = run(SimulatorKind::KernelEmu)?;
    let cacheless = run(SimulatorKind::Cacheless)?;
    let wrench_cache = run(SimulatorKind::PageCache)?;

    let mut phases = Vec::new();
    for (idx, task) in real.instance_reports[0].tasks.iter().enumerate() {
        let cl = &cacheless.instance_reports[0].tasks[idx];
        let wc = &wrench_cache.instance_reports[0].tasks[idx];
        phases.push(NighresPhase {
            label: format!("Read {}", idx + 1),
            step: task.task_name.clone(),
            real: task.read_time,
            cacheless: cl.read_time,
            wrench_cache: wc.read_time,
        });
        phases.push(NighresPhase {
            label: format!("Write {}", idx + 1),
            step: task.task_name.clone(),
            real: task.write_time,
            cacheless: cl.write_time,
            wrench_cache: wc.write_time,
        });
    }
    let mut profile = ProfileStats::default();
    for report in [&real, &cacheless, &wrench_cache] {
        profile.merge(&report.profile);
    }
    Ok(Exp4Result { phases, profile })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::scaled_platform;
    use storage_model::units::GB;

    #[test]
    fn exp4_error_ordering_matches_the_paper() {
        // The Nighres files (hundreds of MB) all fit in even a small node's
        // cache, so the cacheless simulator overestimates I/O times massively
        // while WRENCH-cache stays close to the ground truth.
        let platform = scaled_platform(16.0 * GB);
        let result = run_exp4(&platform).unwrap();
        assert_eq!(result.phases.len(), 8);
        assert_eq!(result.phases[0].label, "Read 1");
        assert_eq!(result.phases[0].step, "Skull stripping");

        let cacheless = result.mean_error_cacheless();
        let cache = result.mean_error_wrench_cache();
        assert!(
            cacheless > 2.0 * cache,
            "cacheless {cacheless}% vs wrench-cache {cache}%"
        );

        // The first read happens entirely from disk and is accurately
        // simulated by both simulators (paper §IV-D).
        let read1 = &result.phases[0];
        assert!(
            read1.error_cacheless() < 30.0,
            "{}",
            read1.error_cacheless()
        );
        assert!(
            read1.error_wrench_cache() < 30.0,
            "{}",
            read1.error_wrench_cache()
        );
    }
}
