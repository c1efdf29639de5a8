//! Experiments 2 and 3 (paper §IV-B and §IV-C, Figs. 5 and 7): concurrent
//! instances of the synthetic application with 3 GB files, on local storage
//! (Exp 2) or on an NFS mount (Exp 3).
//!
//! The reported metric is the cumulative read time and cumulative write time
//! per application instance (averaged across instances), as a function of the
//! number of concurrent instances.

use workflow::{
    run_scenario, ApplicationSpec, PlatformSpec, ProfileStats, Scenario, ScenarioError,
    SimulatorKind,
};

/// Read/write times for one instance count, for the ground truth and the two
/// simulators of Figs. 5 and 7.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrencyPoint {
    /// Number of concurrent application instances.
    pub instances: usize,
    /// Ground-truth cumulative read time per instance, seconds.
    pub real_read: f64,
    /// Ground-truth cumulative write time per instance, seconds.
    pub real_write: f64,
    /// Cacheless (vanilla WRENCH) read time, seconds.
    pub cacheless_read: f64,
    /// Cacheless write time, seconds.
    pub cacheless_write: f64,
    /// WRENCH-cache read time, seconds.
    pub cache_read: f64,
    /// WRENCH-cache write time, seconds.
    pub cache_write: f64,
}

/// Result of a full concurrency sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrencySweep {
    /// Whether the sweep used NFS storage (Exp 3) or local storage (Exp 2).
    pub nfs: bool,
    /// File size of the synthetic application, bytes.
    pub file_size: f64,
    /// One point per instance count.
    pub points: Vec<ConcurrencyPoint>,
    /// Work counters summed over every run of the sweep.
    pub profile: ProfileStats,
}

/// Runs one concurrency sweep (Exp 2 if `nfs` is false, Exp 3 if true).
pub fn run_concurrency_sweep(
    platform: &PlatformSpec,
    file_size: f64,
    instance_counts: &[usize],
    nfs: bool,
) -> Result<ConcurrencySweep, ScenarioError> {
    let platform = if nfs {
        platform.clone().with_nfs()
    } else {
        platform.clone()
    };
    let app = ApplicationSpec::synthetic_pipeline(file_size);
    let mut points = Vec::new();
    let mut profile = ProfileStats::default();
    for &instances in instance_counts {
        let mut run = |kind: SimulatorKind| -> Result<_, ScenarioError> {
            let report = run_scenario(
                &Scenario::new(platform.clone(), app.clone(), kind)
                    .with_instances(instances)?
                    .with_sample_interval(None),
            )?;
            profile.merge(&report.profile);
            Ok((
                report.mean_total_read_time(),
                report.mean_total_write_time(),
            ))
        };
        let (real_read, real_write) = run(SimulatorKind::KernelEmu)?;
        let (cacheless_read, cacheless_write) = run(SimulatorKind::Cacheless)?;
        let (cache_read, cache_write) = run(SimulatorKind::PageCache)?;
        points.push(ConcurrencyPoint {
            instances,
            real_read,
            real_write,
            cacheless_read,
            cacheless_write,
            cache_read,
            cache_write,
        });
    }
    Ok(ConcurrencySweep {
        nfs,
        file_size,
        points,
        profile,
    })
}

/// Runs Exp 2 (local storage).
pub fn run_exp2(
    platform: &PlatformSpec,
    file_size: f64,
    instance_counts: &[usize],
) -> Result<ConcurrencySweep, ScenarioError> {
    run_concurrency_sweep(platform, file_size, instance_counts, false)
}

/// Runs Exp 3 (NFS storage).
pub fn run_exp3(
    platform: &PlatformSpec,
    file_size: f64,
    instance_counts: &[usize],
) -> Result<ConcurrencySweep, ScenarioError> {
    run_concurrency_sweep(platform, file_size, instance_counts, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::scaled_platform;
    use storage_model::units::GB;

    #[test]
    fn exp2_shape_cacheless_overestimates_and_contention_grows() {
        let platform = scaled_platform(32.0 * GB);
        let sweep = run_exp2(&platform, 1.0 * GB, &[1, 4, 8]).unwrap();
        assert_eq!(sweep.points.len(), 3);
        assert!(!sweep.nfs);
        for p in &sweep.points {
            // Cacheless WRENCH overestimates both reads (no cache hits) and
            // writes (no writeback cache) compared to the ground truth.
            assert!(
                p.cacheless_read > p.real_read,
                "n={}: cacheless read {} vs real {}",
                p.instances,
                p.cacheless_read,
                p.real_read
            );
            assert!(
                p.cacheless_write > p.real_write,
                "n={}: cacheless write {} vs real {}",
                p.instances,
                p.cacheless_write,
                p.real_write
            );
            // WRENCH-cache is closer to the ground truth than cacheless for
            // reads (the paper's headline improvement).
            let err_cache = (p.cache_read - p.real_read).abs();
            let err_cacheless = (p.cacheless_read - p.real_read).abs();
            assert!(
                err_cache <= err_cacheless,
                "n={}: cache err {} vs cacheless err {}",
                p.instances,
                err_cache,
                err_cacheless
            );
        }
        // Contention: the cacheless read time grows with the instance count.
        assert!(sweep.points[2].cacheless_read > 1.5 * sweep.points[0].cacheless_read);
    }

    #[test]
    fn exp3_nfs_writes_are_disk_bound_in_all_simulators() {
        let platform = scaled_platform(32.0 * GB);
        let sweep = run_exp3(&platform, 1.0 * GB, &[1, 4]).unwrap();
        assert!(sweep.nfs);
        for p in &sweep.points {
            // With a writethrough server cache there is no write caching, so
            // WRENCH-cache and the ground truth are both disk-bound: the gap
            // between them is small relative to the write time.
            let gap = (p.cache_write - p.real_write).abs();
            assert!(
                gap < 0.35 * p.real_write.max(1.0),
                "n={}: cache write {} vs real {}",
                p.instances,
                p.cache_write,
                p.real_write
            );
            // Reads benefit from caches in both the ground truth and
            // WRENCH-cache, so the cacheless simulator overestimates them.
            assert!(p.cacheless_read > p.cache_read);
        }
    }
}
