//! Differential tests of the offset-granular I/O API across all four
//! simulator back-ends:
//!
//! * a whole-file range operation (`read_range(0, ∞)`, `write_range(0,
//!   size)`) split into arbitrary chunked ranges produces identical
//!   `IoOpStats` totals and simulated duration;
//! * a legacy three-phase `TaskSpec` and its explicitly lowered workload
//!   program produce bit-identical scenario reports (randomized).

use des::Simulation;
use pagecache::IoOpStats;
use storage_model::units::{GB, MB};
use storage_model::DeviceSpec;
use workflow::{
    run_scenario, ApplicationSpec, Backend, FileSpec, PlatformSpec, Scenario, SimulatorKind,
    TaskSpec,
};

fn platform() -> PlatformSpec {
    PlatformSpec::uniform(
        32.0 * GB, // roomy: no memory pressure, so split points cannot shift reclaim
        DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
        DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
    )
}

fn assert_stats_eq(a: &IoOpStats, b: &IoOpStats, what: &str) {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-6 * y.abs().max(1.0);
    assert!(
        close(a.bytes_from_disk, b.bytes_from_disk),
        "{what}: from_disk {} vs {}",
        a.bytes_from_disk,
        b.bytes_from_disk
    );
    assert!(
        close(a.bytes_from_cache, b.bytes_from_cache),
        "{what}: from_cache {} vs {}",
        a.bytes_from_cache,
        b.bytes_from_cache
    );
    assert!(
        close(a.bytes_to_cache, b.bytes_to_cache),
        "{what}: to_cache {} vs {}",
        a.bytes_to_cache,
        b.bytes_to_cache
    );
    assert!(
        close(a.bytes_to_disk, b.bytes_to_disk),
        "{what}: to_disk {} vs {}",
        a.bytes_to_disk,
        b.bytes_to_disk
    );
    assert!(
        close(a.duration, b.duration),
        "{what}: duration {} vs {}",
        a.duration,
        b.duration
    );
}

/// Runs `body` against a freshly built backend of `kind` and returns its
/// result.
fn with_backend<R: 'static, F, Fut>(kind: SimulatorKind, nfs: bool, body: F) -> R
where
    F: FnOnce(Backend) -> Fut + 'static,
    Fut: std::future::Future<Output = R> + 'static,
{
    let sim = Simulation::new();
    let ctx = sim.context();
    let platform = if nfs {
        platform().with_nfs()
    } else {
        platform()
    };
    let backend = Backend::build(&ctx, &platform, kind).unwrap();
    let h = sim.spawn(body(backend));
    sim.run();
    h.try_take_result().unwrap()
}

/// Every (kind, nfs) combination that can be built.
fn all_backends() -> Vec<(SimulatorKind, bool)> {
    let mut v: Vec<(SimulatorKind, bool)> = SimulatorKind::all()
        .into_iter()
        .map(|k| (k, false))
        .collect();
    v.extend([
        (SimulatorKind::Cacheless, true),
        (SimulatorKind::PageCache, true),
        (SimulatorKind::KernelEmu, true),
    ]);
    v
}

#[test]
fn chunked_ranges_match_whole_file_reads() {
    // Split points deliberately unaligned with the 100 MB request size.
    let splits: [&[f64]; 3] = [
        &[350.0, 350.0],
        &[130.0, 270.0, 300.0],
        &[37.0, 263.0, 150.0, 250.0],
    ];
    for (kind, nfs) in all_backends() {
        let whole = with_backend(kind, nfs, move |b| async move {
            b.create_file(&"f".into(), 700.0 * MB).unwrap();
            b.read_range(&"f".into(), 0.0, f64::INFINITY).await.unwrap()
        });
        for split in splits {
            let split: Vec<f64> = split.to_vec();
            let total: f64 = split.iter().sum();
            assert_eq!(total, 700.0);
            let chunked = with_backend(kind, nfs, move |b| async move {
                b.create_file(&"f".into(), 700.0 * MB).unwrap();
                let mut merged = IoOpStats::default();
                let mut offset = 0.0;
                for len in split {
                    let s = b.read_range(&"f".into(), offset, len * MB).await.unwrap();
                    merged.merge(&s);
                    offset += len * MB;
                }
                merged
            });
            assert_stats_eq(&whole, &chunked, &format!("{kind:?} nfs={nfs} read"));
        }
    }
}

#[test]
fn chunked_ranges_match_whole_file_writes() {
    let splits: [&[f64]; 2] = [&[350.0, 350.0], &[37.0, 263.0, 150.0, 250.0]];
    for (kind, nfs) in all_backends() {
        let whole = with_backend(kind, nfs, move |b| async move {
            let s = b.write_range(&"g".into(), 0.0, 700.0 * MB).await.unwrap();
            let fsync = b.fsync(&"g".into()).await.unwrap();
            (s, fsync)
        });
        for split in splits {
            let split: Vec<f64> = split.to_vec();
            let chunked = with_backend(kind, nfs, move |b| async move {
                let mut merged = IoOpStats::default();
                let mut offset = 0.0;
                for len in split {
                    let s = b.write_range(&"g".into(), offset, len * MB).await.unwrap();
                    merged.merge(&s);
                    offset += len * MB;
                }
                let fsync = b.fsync(&"g".into()).await.unwrap();
                (merged, fsync)
            });
            assert_stats_eq(&whole.0, &chunked.0, &format!("{kind:?} nfs={nfs} write"));
            // The post-state is identical too: fsync flushes the same bytes.
            assert_stats_eq(&whole.1, &chunked.1, &format!("{kind:?} nfs={nfs} fsync"));
        }
    }
}

/// Minimal xorshift64 for deterministic randomized cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    fn usize(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() as usize) % (hi - lo + 1)
    }
}

/// A random chain-shaped legacy application: task i reads the previous
/// task's output (or an initial file) plus sometimes a second initial file,
/// computes, and sometimes writes an output.
fn random_app(rng: &mut Rng, app_idx: usize) -> ApplicationSpec {
    let tasks = rng.usize(1, 3);
    let initial = FileSpec::new(format!("in_{app_idx}"), rng.range(50.0, 600.0) * MB);
    let extra = FileSpec::new(format!("extra_{app_idx}"), rng.range(50.0, 300.0) * MB);
    let mut app = ApplicationSpec::new(format!("random-{app_idx}"))
        .with_initial_file(initial.clone())
        .with_initial_file(extra.clone());
    let mut prev = initial;
    for t in 0..tasks {
        let mut task = TaskSpec::new(format!("t{t}"), rng.range(0.0, 1.5)).reads(prev.clone());
        if rng.usize(0, 1) == 1 {
            task = task.reads(extra.clone());
        }
        task.release_memory_after = rng.usize(0, 1) == 1;
        if rng.usize(0, 3) > 0 {
            let out = FileSpec::new(format!("out_{app_idx}_{t}"), rng.range(50.0, 600.0) * MB);
            task = task.writes(out.clone());
            prev = out;
        }
        app = app.with_task(task);
    }
    app
}

/// Lowers every task of a legacy app into an explicit program task.
fn lowered(app: &ApplicationSpec) -> ApplicationSpec {
    let mut out = ApplicationSpec::new(app.name.clone());
    for f in &app.initial_files {
        out = out.with_initial_file(f.clone());
    }
    for (idx, task) in app.tasks.iter().enumerate() {
        out = out.with_task(TaskSpec::program(task.name.clone(), task.lower(idx)));
    }
    out
}

#[test]
fn randomized_program_vs_legacy_spec_equivalence() {
    let mut rng = Rng(0x0ff5_e710);
    for app_idx in 0..6 {
        let app = random_app(&mut rng, app_idx);
        let program_app = lowered(&app);
        for kind in SimulatorKind::all() {
            let legacy = run_scenario(&Scenario::new(platform(), app.clone(), kind)).unwrap();
            let program =
                run_scenario(&Scenario::new(platform(), program_app.clone(), kind)).unwrap();
            assert_eq!(
                legacy.simulated_duration, program.simulated_duration,
                "{kind:?} app {app_idx}: simulated duration"
            );
            let (a, b) = (&legacy.instance_reports[0], &program.instance_reports[0]);
            assert_eq!(a.tasks.len(), b.tasks.len());
            for (ta, tb) in a.tasks.iter().zip(&b.tasks) {
                assert_eq!(ta.read_time, tb.read_time, "{kind:?} {}", ta.task_name);
                assert_eq!(
                    ta.compute_time, tb.compute_time,
                    "{kind:?} {}",
                    ta.task_name
                );
                assert_eq!(ta.write_time, tb.write_time, "{kind:?} {}", ta.task_name);
                assert_eq!(ta.read_stats, tb.read_stats, "{kind:?} {}", ta.task_name);
                assert_eq!(ta.write_stats, tb.write_stats, "{kind:?} {}", ta.task_name);
            }
            assert_eq!(
                legacy.cache_snapshots.len(),
                program.cache_snapshots.len(),
                "{kind:?}: snapshot count"
            );
            if let (Some(lt), Some(pt)) = (&legacy.memory_trace, &program.memory_trace) {
                assert_eq!(lt.len(), pt.len(), "{kind:?}: sample count");
                assert_eq!(lt.max_cached(), pt.max_cached(), "{kind:?}");
                assert_eq!(lt.max_dirty(), pt.max_dirty(), "{kind:?}");
            }
        }
    }
}
