//! Experiment 1 (paper §IV-A, Fig. 4): a single instance of the synthetic
//! three-task pipeline on a single node with local I/O, for several input
//! file sizes.
//!
//! Produces, for each file size:
//! * the per-phase I/O times (Read 1 … Write 3) of the ground truth and of the
//!   three simulators, plus their absolute relative errors (Fig. 4a);
//! * the memory profiles (Fig. 4b);
//! * the cache content per file after each phase (Fig. 4c).

use pagecache::{CacheContentSnapshot, MemoryTrace};
use workflow::{
    absolute_relative_error_pct, run_scenario, ApplicationSpec, PlatformSpec, ProfileStats,
    Scenario, ScenarioError, ScenarioReport, SimulatorKind,
};

/// I/O times of one phase (one read or one write of one task) in every
/// simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Phase label ("Read 1", "Write 1", ...).
    pub label: String,
    /// Ground-truth time (kernel emulator), seconds.
    pub real: f64,
    /// Python-prototype back-end time, seconds.
    pub prototype: f64,
    /// Cacheless (vanilla WRENCH) time, seconds.
    pub cacheless: f64,
    /// WRENCH-cache time, seconds.
    pub wrench_cache: f64,
}

impl PhaseTiming {
    /// Absolute relative error of the prototype for this phase, percent.
    pub fn error_prototype(&self) -> f64 {
        absolute_relative_error_pct(self.prototype, self.real)
    }

    /// Absolute relative error of the cacheless simulator, percent.
    pub fn error_cacheless(&self) -> f64 {
        absolute_relative_error_pct(self.cacheless, self.real)
    }

    /// Absolute relative error of WRENCH-cache, percent.
    pub fn error_wrench_cache(&self) -> f64 {
        absolute_relative_error_pct(self.wrench_cache, self.real)
    }
}

/// Result of Exp 1 for one input file size.
#[derive(Debug, Clone)]
pub struct Exp1SizeResult {
    /// Input file size in bytes.
    pub file_size: f64,
    /// Per-phase timings and errors (Fig. 4a).
    pub phases: Vec<PhaseTiming>,
    /// Ground-truth memory profile (Fig. 4b, top row).
    pub real_trace: Option<MemoryTrace>,
    /// Prototype memory profile (Fig. 4b, middle row).
    pub prototype_trace: Option<MemoryTrace>,
    /// WRENCH-cache memory profile (Fig. 4b, bottom row).
    pub wrench_cache_trace: Option<MemoryTrace>,
    /// Ground-truth cache content after each phase (Fig. 4c).
    pub real_snapshots: Vec<CacheContentSnapshot>,
    /// WRENCH-cache cache content after each phase (Fig. 4c).
    pub wrench_cache_snapshots: Vec<CacheContentSnapshot>,
    /// Work counters summed over the four runs.
    pub profile: ProfileStats,
}

impl Exp1SizeResult {
    /// Mean absolute relative error of a simulator across phases, skipping
    /// phases with an (effectively) zero ground-truth time.
    pub fn mean_error(&self, pick: impl Fn(&PhaseTiming) -> f64) -> f64 {
        let errors: Vec<f64> = self
            .phases
            .iter()
            .filter(|p| p.real > 1e-9)
            .map(pick)
            .collect();
        if errors.is_empty() {
            0.0
        } else {
            errors.iter().sum::<f64>() / errors.len() as f64
        }
    }

    /// Mean error of the prototype, percent.
    pub fn mean_error_prototype(&self) -> f64 {
        self.mean_error(PhaseTiming::error_prototype)
    }

    /// Mean error of the cacheless simulator, percent.
    pub fn mean_error_cacheless(&self) -> f64 {
        self.mean_error(PhaseTiming::error_cacheless)
    }

    /// Mean error of WRENCH-cache, percent.
    pub fn mean_error_wrench_cache(&self) -> f64 {
        self.mean_error(PhaseTiming::error_wrench_cache)
    }
}

/// Extracts the interleaved Read/Write phase times from a scenario report.
pub fn phase_times(report: &ScenarioReport) -> Vec<(String, f64)> {
    let mut phases = Vec::new();
    if let Some(instance) = report.instance_reports.first() {
        for (idx, task) in instance.tasks.iter().enumerate() {
            phases.push((format!("Read {}", idx + 1), task.read_time));
            phases.push((format!("Write {}", idx + 1), task.write_time));
        }
    }
    phases
}

/// Runs Exp 1 for one file size on the given platform.
pub fn run_exp1_for_size(
    platform: &PlatformSpec,
    file_size: f64,
) -> Result<Exp1SizeResult, ScenarioError> {
    let app = ApplicationSpec::synthetic_pipeline(file_size);
    let run = |kind: SimulatorKind| -> Result<ScenarioReport, ScenarioError> {
        run_scenario(&Scenario::new(platform.clone(), app.clone(), kind))
    };
    let real = run(SimulatorKind::KernelEmu)?;
    let prototype = run(SimulatorKind::Prototype)?;
    let cacheless = run(SimulatorKind::Cacheless)?;
    let wrench_cache = run(SimulatorKind::PageCache)?;

    let real_phases = phase_times(&real);
    let proto_phases = phase_times(&prototype);
    let cacheless_phases = phase_times(&cacheless);
    let cache_phases = phase_times(&wrench_cache);

    let phases = real_phases
        .iter()
        .enumerate()
        .map(|(i, (label, real_time))| PhaseTiming {
            label: label.clone(),
            real: *real_time,
            prototype: proto_phases[i].1,
            cacheless: cacheless_phases[i].1,
            wrench_cache: cache_phases[i].1,
        })
        .collect();
    let mut profile = ProfileStats::default();
    for report in [&real, &prototype, &cacheless, &wrench_cache] {
        profile.merge(&report.profile);
    }

    Ok(Exp1SizeResult {
        file_size,
        phases,
        real_trace: real.memory_trace.clone(),
        prototype_trace: prototype.memory_trace.clone(),
        wrench_cache_trace: wrench_cache.memory_trace.clone(),
        real_snapshots: real.cache_snapshots.clone(),
        wrench_cache_snapshots: wrench_cache.cache_snapshots.clone(),
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::scaled_platform;
    use storage_model::units::GB;

    #[test]
    fn exp1_small_scale_reproduces_the_error_ordering() {
        // 2 GB files on a 16 GB node: everything fits in the cache, so the
        // cacheless simulator must grossly overestimate re-reads and writes
        // while the cache-aware simulators stay close to the ground truth.
        let platform = scaled_platform(16.0 * GB);
        let result = run_exp1_for_size(&platform, 2.0 * GB).unwrap();
        assert_eq!(result.phases.len(), 6);
        assert_eq!(result.phases[0].label, "Read 1");
        assert_eq!(result.phases[5].label, "Write 3");

        // The headline result of the paper: the page cache model reduces the
        // simulation error by a large factor compared to cacheless WRENCH.
        let err_cacheless = result.mean_error_cacheless();
        let err_cache = result.mean_error_wrench_cache();
        assert!(
            err_cacheless > 2.0 * err_cache,
            "cacheless error {err_cacheless}% should dwarf WRENCH-cache error {err_cache}%"
        );
        // Re-reads (Read 2, Read 3) are where the cacheless model hurts most.
        let read2 = &result.phases[2];
        assert!(
            read2.error_cacheless() > 100.0,
            "{}",
            read2.error_cacheless()
        );
        assert!(
            read2.error_wrench_cache() < 60.0,
            "{}",
            read2.error_wrench_cache()
        );

        // Read 1 is a cold read in every simulator: everyone is accurate.
        let read1 = &result.phases[0];
        assert!(read1.error_cacheless() < 30.0);
        assert!(read1.error_wrench_cache() < 30.0);

        // Memory traces and snapshots were collected for the cache-aware runs.
        assert!(result.real_trace.is_some());
        assert!(result.wrench_cache_trace.is_some());
        assert_eq!(result.real_snapshots.len(), 6);
        assert_eq!(result.wrench_cache_snapshots.len(), 6);
    }
}
