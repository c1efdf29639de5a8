//! Differential tests of the crash durability oracle.
//!
//! A **naive per-byte model** shadows every operation of a randomized
//! workload: a write marks its byte range dirty, `fsync` clears one file,
//! `sync` clears everything. Crashing at a random operation boundary must
//! then agree with the model on every back-end:
//!
//! * the kernel emulator's durable ranges are **byte-exact** complements of
//!   the naive dirty ranges;
//! * the amount-based back-ends lose exactly the naive dirty byte count
//!   (their positions are approximated, their amounts are not);
//! * synchronous and writethrough back-ends never lose anything.
//!
//! Deterministic companions pin the three canonical crash shapes: before an
//! fsync, after an fsync, and in the middle of background writeback.

use des::Simulation;
use pagecache::FileId;
use storage_model::units::{GB, MB};
use storage_model::DeviceSpec;
use workflow::{
    run_scenario, ApplicationSpec, Backend, CrashReport, FaultPlan, Op, PlatformSpec, Scenario,
    SimulatorKind, TaskSpec,
};

const FILE_SIZE: f64 = 64.0 * MB;
const FILES: usize = 4;
/// Comparisons are byte-exact up to float noise.
const EPS: f64 = 1e-3;

fn platform() -> PlatformSpec {
    PlatformSpec::uniform(
        8.0 * GB,
        DeviceSpec::symmetric(4812.0 * MB, 0.0, f64::INFINITY),
        DeviceSpec::symmetric(465.0 * MB, 0.0, f64::INFINITY),
    )
}

/// Deterministic xorshift64 PRNG, as used by the sweep harness.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The naive model's view of one file: dirty byte ranges, sorted and
/// disjoint. Offsets are whole megabytes, so every bound is float-exact.
#[derive(Clone, Default)]
struct NaiveFile {
    dirty: Vec<(f64, f64)>,
}

impl NaiveFile {
    fn mark_dirty(&mut self, a: f64, b: f64) {
        let mut merged = Vec::with_capacity(self.dirty.len() + 1);
        let (mut a, mut b) = (a, b);
        for &(x, y) in &self.dirty {
            if y < a || x > b {
                merged.push((x, y));
            } else {
                a = a.min(x);
                b = b.max(y);
            }
        }
        merged.push((a, b));
        merged.sort_by(|p, q| p.0.partial_cmp(&q.0).unwrap());
        self.dirty = merged;
    }

    fn dirty_bytes(&self) -> f64 {
        self.dirty.iter().map(|(a, b)| b - a).sum()
    }

    /// The complement of the dirty ranges within `[0, size)`: what must
    /// survive a crash.
    fn durable_ranges(&self, size: f64) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let mut cursor = 0.0;
        for &(a, b) in &self.dirty {
            if a > cursor {
                out.push((cursor, a));
            }
            cursor = cursor.max(b);
        }
        if cursor < size {
            out.push((cursor, size));
        }
        out
    }
}

enum RandOp {
    Write(usize, f64, f64),
    Fsync(usize),
    Sync,
    Read(usize, f64, f64),
}

/// Generates a deterministic random op stream. With `overlapping` false,
/// writes only touch megabyte blocks that are currently clean in the naive
/// model, so position-blind dirty aggregates stay exact.
fn gen_ops(seed: u64, n: usize, overlapping: bool) -> Vec<RandOp> {
    let mut rng = XorShift::new(seed);
    let blocks = (FILE_SIZE / MB) as u64;
    let mut dirty_blocks: Vec<Vec<bool>> = vec![vec![false; blocks as usize]; FILES];
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let file = rng.below(FILES as u64) as usize;
        match rng.below(10) {
            0..=4 => {
                if overlapping {
                    let len = (1 + rng.below(8)) as f64 * MB;
                    let off = rng.below(blocks.saturating_sub(8).max(1)) as f64 * MB;
                    ops.push(RandOp::Write(file, off, len.min(FILE_SIZE - off)));
                } else {
                    // One clean megabyte block, if the file has any left.
                    let start = rng.below(blocks) as usize;
                    let Some(block) = (0..blocks as usize)
                        .map(|i| (start + i) % blocks as usize)
                        .find(|&b| !dirty_blocks[file][b])
                    else {
                        ops.push(RandOp::Fsync(file));
                        dirty_blocks[file].fill(false);
                        continue;
                    };
                    dirty_blocks[file][block] = true;
                    ops.push(RandOp::Write(file, block as f64 * MB, MB));
                }
            }
            5..=6 => {
                ops.push(RandOp::Fsync(file));
                dirty_blocks[file].fill(false);
            }
            7 => {
                ops.push(RandOp::Sync);
                dirty_blocks.iter_mut().for_each(|f| f.fill(false));
            }
            _ => {
                let len = (1 + rng.below(16)) as f64 * MB;
                let off = rng.below(blocks) as f64 * MB;
                ops.push(RandOp::Read(file, off, len.min(FILE_SIZE - off)));
            }
        }
    }
    ops
}

fn file_name(i: usize) -> String {
    format!("f{i}")
}

/// Runs `crash_at_op` operations of the stream against a freshly built
/// back-end, crashes, and returns the oracle's report next to the naive
/// model's state.
fn run_differential(
    kind: SimulatorKind,
    nfs: bool,
    seed: u64,
    n_ops: usize,
    crash_at_op: usize,
    overlapping: bool,
) -> (CrashReport, Vec<NaiveFile>) {
    let platform = if nfs {
        platform().with_nfs()
    } else {
        platform()
    };
    let sim = Simulation::new();
    let ctx = sim.context();
    let backend = Backend::build(&ctx, &platform, kind).unwrap();
    let ops = gen_ops(seed, n_ops, overlapping);
    let handle = sim.spawn(async move {
        for i in 0..FILES {
            backend
                .create_file(&FileId::new(file_name(i)), FILE_SIZE)
                .unwrap();
        }
        let mut naive = vec![NaiveFile::default(); FILES];
        for op in ops.iter().take(crash_at_op) {
            match op {
                RandOp::Write(file, off, len) => {
                    backend
                        .write_range(&FileId::new(file_name(*file)), *off, *len)
                        .await
                        .unwrap();
                    naive[*file].mark_dirty(*off, *off + *len);
                }
                RandOp::Fsync(file) => {
                    backend.fsync(&FileId::new(file_name(*file))).await.unwrap();
                    naive[*file].dirty.clear();
                }
                RandOp::Sync => {
                    backend.sync().await.unwrap();
                    naive.iter_mut().for_each(|f| f.dirty.clear());
                }
                RandOp::Read(file, off, len) => {
                    let stats = backend
                        .read_range(&FileId::new(file_name(*file)), *off, *len)
                        .await
                        .unwrap();
                    backend
                        .release_anonymous_memory(stats.bytes_from_disk + stats.bytes_from_cache);
                }
            }
        }
        (backend.crash(), naive)
    });
    sim.run();
    handle.try_take_result().expect("simulation deadlocked")
}

fn ranges_eq(a: &[(f64, f64)], b: &[(f64, f64)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: {a:?} vs {b:?}");
    for ((a0, a1), (b0, b1)) in a.iter().zip(b) {
        assert!(
            (a0 - b0).abs() < EPS && (a1 - b1).abs() < EPS,
            "{what}: {a:?} vs {b:?}"
        );
    }
}

#[test]
fn kernel_durable_ranges_match_the_naive_model_byte_exactly() {
    // 10k-op random streams (overlapping writes allowed) crashed at three
    // different instants each: the kernel emulator's dirty-range ledger must
    // reproduce the naive per-byte model exactly.
    for seed in [7, 42] {
        for crash_at in [1_000, 5_000, 10_000] {
            let (report, naive) = run_differential(
                SimulatorKind::KernelEmu,
                false,
                seed,
                10_000,
                crash_at,
                true,
            );
            for (i, model) in naive.iter().enumerate() {
                let file = FileId::new(file_name(i));
                let durability = report
                    .files
                    .get(&file)
                    .unwrap_or_else(|| panic!("file {file} missing from the crash report"));
                assert!((durability.size - FILE_SIZE).abs() < EPS);
                ranges_eq(
                    &durability.durable_ranges,
                    &model.durable_ranges(FILE_SIZE),
                    &format!("seed {seed}, crash at op {crash_at}, {file}"),
                );
                assert!((durability.lost_bytes - model.dirty_bytes()).abs() < EPS);
                assert!((durability.durable_bytes - (FILE_SIZE - model.dirty_bytes())).abs() < EPS);
            }
        }
    }
}

#[test]
fn every_backend_agrees_with_the_naive_model_on_lost_amounts() {
    // Non-overlapping single-block writes keep the position-blind dirty
    // aggregates exact, so *all five* back-ends must agree with the naive
    // model on the byte counts (and the write-synchronous ones lose nothing).
    let configs = [
        (SimulatorKind::Cacheless, false, false), // direct local
        (SimulatorKind::PageCache, false, true),  // cached local
        (SimulatorKind::Prototype, false, true),  // cached, no contention
        (SimulatorKind::KernelEmu, false, true),  // page-granular cache
        (SimulatorKind::Cacheless, true, false),  // direct NFS
        (SimulatorKind::PageCache, true, false),  // NFS (writethrough server)
    ];
    for (kind, nfs, caches_writes) in configs {
        for seed in [3, 99] {
            let (report, naive) = run_differential(kind, nfs, seed, 2_000, 1_500, false);
            assert_eq!(report.files.len(), FILES, "{kind:?} nfs={nfs}");
            for (i, model) in naive.iter().enumerate() {
                let durability = &report.files[&FileId::new(file_name(i))];
                let expected_lost = if caches_writes {
                    model.dirty_bytes()
                } else {
                    0.0
                };
                assert!(
                    (durability.lost_bytes - expected_lost).abs() < EPS,
                    "{kind:?} nfs={nfs} seed {seed} f{i}: lost {} vs naive {expected_lost}",
                    durability.lost_bytes,
                );
                assert!(
                    (durability.durable_bytes - (FILE_SIZE - expected_lost)).abs() < EPS,
                    "{kind:?} nfs={nfs} seed {seed} f{i}: durable {}",
                    durability.durable_bytes,
                );
            }
        }
    }
}

#[test]
fn crash_before_fsync_loses_the_write_crash_after_keeps_it() {
    let app_before = ApplicationSpec::new("before").with_task(TaskSpec::program(
        "commit",
        vec![Op::write("wal", 200.0 * MB), Op::compute(100.0)],
    ));
    let app_after = ApplicationSpec::new("after").with_task(TaskSpec::program(
        "commit",
        vec![
            Op::write("wal", 200.0 * MB),
            Op::fsync("wal"),
            Op::compute(100.0),
        ],
    ));
    // The crash must land inside the compute phase but before background
    // writeback touches the dirty pages: the 200 MB write completes in well
    // under a second, expiry-driven flushing starts only after dirty_expire
    // (30 s), and 200 MB is far below the background dirty threshold.
    for kind in [SimulatorKind::PageCache, SimulatorKind::KernelEmu] {
        let report = run_scenario(
            &Scenario::new(platform(), app_before.clone(), kind)
                .with_faults(FaultPlan::crash_at(2.0)),
        )
        .unwrap();
        let crash = report.crash.expect("crash fired");
        let wal = &crash.files[&FileId::new("wal")];
        assert!(
            (wal.lost_bytes - 200.0 * MB).abs() < MB,
            "{kind:?}: never-synced write must be lost, lost {}",
            wal.lost_bytes
        );
        assert!(wal.durable_bytes < MB, "{kind:?}");

        // Same crash instant, but the write was fsync'd (the fsync finishes
        // by ~0.5 s): nothing is lost.
        let report = run_scenario(
            &Scenario::new(platform(), app_after.clone(), kind)
                .with_faults(FaultPlan::crash_at(2.0)),
        )
        .unwrap();
        let crash = report.crash.expect("crash fired");
        let wal = &crash.files[&FileId::new("wal")];
        assert!(wal.lost_bytes < EPS, "{kind:?}: fsync'd bytes must survive");
        assert!((wal.durable_bytes - 200.0 * MB).abs() < MB, "{kind:?}");
    }

    // On the synchronous baseline even the never-fsync'd write survives.
    let report = run_scenario(
        &Scenario::new(platform(), app_before, SimulatorKind::Cacheless)
            .with_faults(FaultPlan::crash_at(2.0)),
    )
    .unwrap();
    let crash = report.crash.expect("crash fired");
    assert!(crash.lost_bytes() < EPS);
    assert!((crash.durable_bytes() - 200.0 * MB).abs() < MB);
}

#[test]
fn crash_mid_writeback_keeps_a_durable_prefix() {
    // 1.2 GB dirty exceeds the 800 MB background threshold of an 8 GB host:
    // the background writeback threads start draining the file front-first.
    // Crashing while they are part-way through must yield a durable prefix
    // and a lost tail, byte-accounted exactly.
    let app = ApplicationSpec::new("storm").with_task(TaskSpec::program(
        "burst",
        vec![Op::write("big", 1200.0 * MB), Op::compute(200.0)],
    ));
    let report = run_scenario(
        &Scenario::new(platform(), app, SimulatorKind::KernelEmu)
            .with_faults(FaultPlan::crash_at(12.0)),
    )
    .unwrap();
    let crash = report.crash.expect("crash fired");
    let big = &crash.files[&FileId::new("big")];
    assert!(
        big.durable_bytes > 50.0 * MB && big.durable_bytes < 1150.0 * MB,
        "expected a partial flush, durable {}",
        big.durable_bytes
    );
    assert!((big.durable_bytes + big.lost_bytes - 1200.0 * MB).abs() < EPS);
    // Background writeback drains lowest offsets first: the durable part is
    // a single prefix starting at byte 0.
    assert_eq!(big.durable_ranges.len(), 1, "{:?}", big.durable_ranges);
    assert!(big.durable_ranges[0].0.abs() < EPS);
}
