//! Workload descriptions: files, tasks, workload programs and applications.
//!
//! A task is, at bottom, a **workload program**: a list of [`Op`]
//! instructions (range reads and writes, compute phases, `fsync`/`sync`,
//! memory releases, repetition) executed sequentially by the scenario
//! runner. The classic builder API ([`TaskSpec::reads`], [`TaskSpec::writes`]
//! plus `cpu_time`) is kept and **lowers** to a program via
//! [`TaskSpec::lower`], so every read→compute→write pipeline is just a
//! special case of the general shape, with identical simulated behaviour.
//!
//! The two applications of the paper are provided as constructors:
//! [`ApplicationSpec::synthetic_pipeline`] (the three-task C program of
//! Exp 1–3, Table I) and [`ApplicationSpec::nighres`] (the four-step cortical
//! reconstruction workflow of Exp 4, Table II).

use storage_model::units::{GB, MB};

use crate::faults::RetryPolicy;

/// A file read or written by a task.
#[derive(Debug, Clone, PartialEq)]
pub struct FileSpec {
    /// File name (unique within the application).
    pub name: String,
    /// File size in bytes.
    pub size: f64,
}

impl FileSpec {
    /// Creates a file specification.
    pub fn new(name: impl Into<String>, size: f64) -> Self {
        FileSpec {
            name: name.into(),
            size,
        }
    }
}

/// One instruction of a workload program. File references are by name; sizes
/// come from the filesystem registry at execution time, so a `Read` needs no
/// size and `len = f64::INFINITY` means "to end of file".
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Read `len` bytes of `file` starting at `offset` (clamped to the
    /// file).
    Read {
        /// File name (scoped per instance at execution time).
        file: String,
        /// Byte offset of the first byte read.
        offset: f64,
        /// Bytes to read; `f64::INFINITY` reads to end of file.
        len: f64,
    },
    /// Write `len` bytes at `offset`, creating the file or extending it to
    /// `offset + len` as needed (range writes never shrink a file).
    Write {
        /// File name (scoped per instance at execution time).
        file: String,
        /// Byte offset of the first byte written.
        offset: f64,
        /// Bytes to write.
        len: f64,
    },
    /// Spin the CPU for the given number of simulated seconds.
    Compute(f64),
    /// Flush the file's dirty cached data to stable storage (semantics per
    /// back-end are documented on [`crate::Backend`]).
    Fsync(String),
    /// Flush all dirty cached data of the host.
    Sync,
    /// Release anonymous application memory (bytes).
    ReleaseMemory(f64),
    /// Repeat the inner program `n` times (unrolled at execution).
    Repeat {
        /// Number of iterations.
        n: usize,
        /// The repeated program.
        ops: Vec<Op>,
    },
    /// Record a memory sample (all instances). The legacy lowering emits one
    /// after each read and write phase, preserving the classic profile
    /// shape; custom programs place them freely.
    Sample,
    /// Take a labelled cache-content snapshot (instance 0 only).
    Snapshot(String),
}

impl Op {
    /// Reads a whole file.
    pub fn read(file: impl Into<String>) -> Op {
        Op::Read {
            file: file.into(),
            offset: 0.0,
            len: f64::INFINITY,
        }
    }

    /// Reads `len` bytes at `offset`.
    pub fn read_range(file: impl Into<String>, offset: f64, len: f64) -> Op {
        Op::Read {
            file: file.into(),
            offset,
            len,
        }
    }

    /// Writes `len` bytes at offset 0.
    pub fn write(file: impl Into<String>, len: f64) -> Op {
        Op::Write {
            file: file.into(),
            offset: 0.0,
            len,
        }
    }

    /// Writes `len` bytes at `offset`.
    pub fn write_range(file: impl Into<String>, offset: f64, len: f64) -> Op {
        Op::Write {
            file: file.into(),
            offset,
            len,
        }
    }

    /// Spins the CPU for `secs` simulated seconds.
    pub fn compute(secs: f64) -> Op {
        Op::Compute(secs)
    }

    /// Flushes one file's dirty data.
    pub fn fsync(file: impl Into<String>) -> Op {
        Op::Fsync(file.into())
    }

    /// Repeats `ops` `n` times.
    pub fn repeat(n: usize, ops: Vec<Op>) -> Op {
        Op::Repeat { n, ops }
    }

    /// Appends this op's flattened form (with `Repeat` unrolled) to `out`,
    /// enforcing the nesting and length bounds.
    fn flatten_into(&self, out: &mut Vec<Op>, depth: usize) -> Result<(), ProgramError> {
        match self {
            Op::Repeat { n, ops } => {
                if depth >= MAX_REPEAT_DEPTH {
                    return Err(ProgramError::TooDeep {
                        limit: MAX_REPEAT_DEPTH,
                    });
                }
                for _ in 0..*n {
                    let before = out.len();
                    for op in ops {
                        op.flatten_into(out, depth + 1)?;
                    }
                    if out.len() == before {
                        // The body flattens to nothing (empty, or nested
                        // `Repeat { n: 0 }`): every further iteration is
                        // identical, so stop instead of spinning `n` times.
                        break;
                    }
                }
            }
            other => {
                if out.len() >= MAX_PROGRAM_OPS {
                    return Err(ProgramError::TooLong {
                        limit: MAX_PROGRAM_OPS,
                    });
                }
                out.push(other.clone());
            }
        }
        Ok(())
    }
}

/// Maximum number of instructions a program may unroll to. Bounds the memory
/// and time of [`flatten_program`] against `Repeat` blow-ups like
/// `Repeat { n: k, ops: [Repeat { n: k, … }] }`.
pub const MAX_PROGRAM_OPS: usize = 1 << 20;

/// Maximum [`Op::Repeat`] nesting depth. Bounds the recursion of
/// [`flatten_program`] so a deeply nested program reports a structured error
/// instead of overflowing the stack.
pub const MAX_REPEAT_DEPTH: usize = 64;

/// Structured errors of [`flatten_program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramError {
    /// `Repeat` blocks nested deeper than [`MAX_REPEAT_DEPTH`].
    TooDeep {
        /// The enforced nesting limit.
        limit: usize,
    },
    /// The unrolled program exceeds [`MAX_PROGRAM_OPS`] instructions.
    TooLong {
        /// The enforced instruction limit.
        limit: usize,
    },
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::TooDeep { limit } => {
                write!(f, "program nests Repeat deeper than {limit} levels")
            }
            ProgramError::TooLong { limit } => {
                write!(f, "program unrolls to more than {limit} instructions")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// Flattens a program, unrolling every [`Op::Repeat`]. The unroll is
/// bounded: programs nesting deeper than [`MAX_REPEAT_DEPTH`] or unrolling
/// to more than [`MAX_PROGRAM_OPS`] instructions return a structured
/// [`ProgramError`] instead of exhausting the stack or memory.
pub fn flatten_program(ops: &[Op]) -> Result<Vec<Op>, ProgramError> {
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        op.flatten_into(&mut out, 0)?;
    }
    Ok(out)
}

/// Validates the operands of a program without unrolling it: offsets,
/// lengths, compute times and memory amounts must not be NaN or negative (a
/// read length of `f64::INFINITY` means "to end of file" and is the only
/// infinite operand allowed). Catches bad values before they reach the
/// device models, which assert on NaN transfer sizes.
fn validate_ops(task: &str, ops: &[Op]) -> Result<(), String> {
    let finite = |what: &str, v: f64| {
        if v.is_finite() && v >= 0.0 {
            Ok(())
        } else {
            Err(format!("task '{task}': {what} {v} must be finite and >= 0"))
        }
    };
    // Explicit work stack: `Repeat` nesting depth is enforced (much later)
    // by `flatten_program`, so validation must not recurse.
    let mut stack: Vec<&Op> = ops.iter().collect();
    while let Some(op) = stack.pop() {
        match op {
            Op::Read { offset, len, .. } => {
                finite("read offset", *offset)?;
                if len.is_nan() || *len < 0.0 {
                    return Err(format!(
                        "task '{task}': read length {len} must be >= 0 (INFINITY reads to EOF)"
                    ));
                }
            }
            Op::Write { offset, len, .. } => {
                finite("write offset", *offset)?;
                finite("write length", *len)?;
            }
            Op::Compute(secs) => finite("compute time", *secs)?,
            Op::ReleaseMemory(bytes) => finite("released memory", *bytes)?,
            Op::Repeat { ops, .. } => stack.extend(ops.iter()),
            Op::Fsync(_) | Op::Sync | Op::Sample | Op::Snapshot(_) => {}
        }
    }
    Ok(())
}

/// One task of an application. Either the classic three-phase shape (read
/// inputs, compute, write outputs — the builder API) or an explicit workload
/// program ([`TaskSpec::program`]); the former lowers to the latter.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Task name (e.g. "Task 1", "Skull stripping").
    pub name: String,
    /// CPU time in seconds (measured on the real system and injected into the
    /// simulation, as the paper does). Ignored when `ops` is non-empty.
    pub cpu_time: f64,
    /// Files read at the start of the task (builder shape only).
    pub inputs: Vec<FileSpec>,
    /// Files written at the end of the task (builder shape only).
    pub outputs: Vec<FileSpec>,
    /// Whether the task's anonymous memory is released when it completes
    /// (true for both applications of the paper; builder shape only).
    pub release_memory_after: bool,
    /// Explicit workload program. When non-empty it *is* the task; the
    /// builder fields above are ignored.
    pub ops: Vec<Op>,
    /// Retry policy applied to each I/O operation of the task when a
    /// *transient* fault is injected (see [`crate::faults`]). The default is
    /// [`RetryPolicy::none`]: a single attempt, no retries.
    pub retry: RetryPolicy,
}

impl TaskSpec {
    /// Creates a task in the classic builder shape.
    pub fn new(name: impl Into<String>, cpu_time: f64) -> Self {
        TaskSpec {
            name: name.into(),
            cpu_time,
            inputs: Vec::new(),
            outputs: Vec::new(),
            release_memory_after: true,
            ops: Vec::new(),
            retry: RetryPolicy::none(),
        }
    }

    /// Creates a task from an explicit workload program. Programs manage
    /// their own memory releases and observability ([`Op::ReleaseMemory`],
    /// [`Op::Sample`], [`Op::Snapshot`]).
    pub fn program(name: impl Into<String>, ops: Vec<Op>) -> Self {
        TaskSpec {
            name: name.into(),
            cpu_time: 0.0,
            inputs: Vec::new(),
            outputs: Vec::new(),
            release_memory_after: false,
            ops,
            retry: RetryPolicy::none(),
        }
    }

    /// Sets the retry policy for the task's I/O operations.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Adds an input file.
    pub fn reads(mut self, file: FileSpec) -> Self {
        self.inputs.push(file);
        self
    }

    /// Adds an output file.
    pub fn writes(mut self, file: FileSpec) -> Self {
        self.outputs.push(file);
        self
    }

    /// Total bytes read by the task (builder shape).
    pub fn input_bytes(&self) -> f64 {
        self.inputs.iter().map(|f| f.size).sum()
    }

    /// Total bytes written by the task (builder shape).
    pub fn output_bytes(&self) -> f64 {
        self.outputs.iter().map(|f| f.size).sum()
    }

    /// The workload program this task executes: the explicit program when
    /// one was given, otherwise the lowering of the classic three-phase
    /// shape —
    ///
    /// ```text
    /// Read(input…) Sample Snapshot("Read i")
    /// Compute(cpu_time)
    /// Write(output…) Sample Snapshot("Write i")
    /// [ReleaseMemory(input_bytes) Sample]     (if release_memory_after)
    /// ```
    ///
    /// `task_idx` is the 0-based task position, used for the snapshot
    /// labels ("Read 1", "Write 1", …).
    pub fn lower(&self, task_idx: usize) -> Vec<Op> {
        if !self.ops.is_empty() {
            return self.ops.clone();
        }
        let mut ops = Vec::new();
        for input in &self.inputs {
            ops.push(Op::read(&input.name));
        }
        ops.push(Op::Sample);
        ops.push(Op::Snapshot(format!("Read {}", task_idx + 1)));
        ops.push(Op::Compute(self.cpu_time));
        for output in &self.outputs {
            ops.push(Op::write(&output.name, output.size));
        }
        ops.push(Op::Sample);
        ops.push(Op::Snapshot(format!("Write {}", task_idx + 1)));
        if self.release_memory_after {
            ops.push(Op::ReleaseMemory(self.input_bytes()));
            ops.push(Op::Sample);
        }
        ops
    }
}

/// A sequential application (pipeline of tasks) plus the files that must exist
/// before it starts.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplicationSpec {
    /// Application name.
    pub name: String,
    /// Files present on storage before the application starts.
    pub initial_files: Vec<FileSpec>,
    /// Tasks, executed in order.
    pub tasks: Vec<TaskSpec>,
}

impl ApplicationSpec {
    /// Creates an empty application.
    pub fn new(name: impl Into<String>) -> Self {
        ApplicationSpec {
            name: name.into(),
            initial_files: Vec::new(),
            tasks: Vec::new(),
        }
    }

    /// Registers a file that exists before the application starts.
    pub fn with_initial_file(mut self, file: FileSpec) -> Self {
        self.initial_files.push(file);
        self
    }

    /// Appends a task.
    pub fn with_task(mut self, task: TaskSpec) -> Self {
        self.tasks.push(task);
        self
    }

    /// CPU time of the paper's synthetic application for a given input size
    /// (Table I). Sizes between the measured points are interpolated linearly.
    pub fn synthetic_cpu_time(input_size: f64) -> f64 {
        // (input size GB, CPU time s) from Table I.
        const POINTS: [(f64, f64); 5] = [
            (3.0, 4.4),
            (20.0, 28.0),
            (50.0, 75.0),
            (75.0, 110.0),
            (100.0, 155.0),
        ];
        let gb = input_size / GB;
        if gb <= POINTS[0].0 {
            return POINTS[0].1 * gb / POINTS[0].0;
        }
        for w in POINTS.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if gb <= x1 {
                return y0 + (y1 - y0) * (gb - x0) / (x1 - x0);
            }
        }
        let (x1, y1) = POINTS[POINTS.len() - 1];
        y1 * gb / x1
    }

    /// The synthetic application of the paper (§III-D): three single-core
    /// sequential tasks; task *i* reads File *i*, increments every byte, and
    /// writes File *i+1*. All files have the same size.
    pub fn synthetic_pipeline(file_size: f64) -> Self {
        let cpu = Self::synthetic_cpu_time(file_size);
        let file = |i: usize| FileSpec::new(format!("file_{i}"), file_size);
        let mut app = ApplicationSpec::new(format!(
            "synthetic-{}GB",
            (file_size / GB * 100.0).round() / 100.0
        ))
        .with_initial_file(file(1));
        for task in 1..=3 {
            app = app.with_task(
                TaskSpec::new(format!("Task {task}"), cpu)
                    .reads(file(task))
                    .writes(file(task + 1)),
            );
        }
        app
    }

    /// The Nighres cortical-reconstruction workflow of Exp 4 (Table II).
    ///
    /// Step dependencies follow the Nighres example the paper uses: skull
    /// stripping produces the masked image read by cortical reconstruction,
    /// tissue classification produces the segmentation read by region
    /// extraction.
    pub fn nighres() -> Self {
        let raw = FileSpec::new("raw_brain_image", 295.0 * MB);
        let second_inversion = FileSpec::new("second_inversion", 197.0 * MB);
        let masked = FileSpec::new("masked_image", 393.0 * MB);
        let segmentation = FileSpec::new("segmentation", 1376.0 * MB);
        let region = FileSpec::new("region_maps", 885.0 * MB);
        let cortex = FileSpec::new("cortical_surface", 786.0 * MB);
        ApplicationSpec::new("nighres-cortical-reconstruction")
            .with_initial_file(raw.clone())
            .with_initial_file(second_inversion.clone())
            .with_task(
                TaskSpec::new("Skull stripping", 137.0)
                    .reads(raw)
                    .writes(masked.clone()),
            )
            .with_task(
                TaskSpec::new("Tissue classification", 614.0)
                    .reads(second_inversion)
                    .writes(segmentation.clone()),
            )
            .with_task(
                TaskSpec::new("Region extraction", 76.0)
                    .reads(segmentation)
                    .writes(region),
            )
            .with_task(
                TaskSpec::new("Cortical reconstruction", 272.0)
                    .reads(masked)
                    .writes(cortex),
            )
    }

    /// Total bytes read by the whole application.
    pub fn total_read_bytes(&self) -> f64 {
        self.tasks.iter().map(TaskSpec::input_bytes).sum()
    }

    /// Total bytes written by the whole application.
    pub fn total_written_bytes(&self) -> f64 {
        self.tasks.iter().map(TaskSpec::output_bytes).sum()
    }

    /// Total CPU time of the application.
    pub fn total_cpu_time(&self) -> f64 {
        self.tasks.iter().map(|t| t.cpu_time).sum()
    }

    /// Validates every operand of the application before any simulation
    /// runs: file sizes, CPU times, and the operands of every workload
    /// program must not be NaN, negative, or (where a concrete amount is
    /// needed) infinite.
    pub fn validate(&self) -> Result<(), String> {
        let file_ok = |where_: &str, f: &FileSpec| {
            if f.size.is_finite() && f.size >= 0.0 {
                Ok(())
            } else {
                Err(format!(
                    "{where_}: size of file '{}' ({}) must be finite and >= 0",
                    f.name, f.size
                ))
            }
        };
        for f in &self.initial_files {
            file_ok("initial files", f)?;
        }
        for task in &self.tasks {
            for f in task.inputs.iter().chain(&task.outputs) {
                file_ok(&format!("task '{}'", task.name), f)?;
            }
            if !(task.cpu_time.is_finite() && task.cpu_time >= 0.0) {
                return Err(format!(
                    "task '{}': cpu time {} must be finite and >= 0",
                    task.name, task.cpu_time
                ));
            }
            validate_ops(&task.name, &task.ops)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_pipeline_structure() {
        let app = ApplicationSpec::synthetic_pipeline(20.0 * GB);
        assert_eq!(app.tasks.len(), 3);
        assert_eq!(app.initial_files.len(), 1);
        assert_eq!(app.initial_files[0].name, "file_1");
        // Task i reads file i and writes file i+1.
        for (i, task) in app.tasks.iter().enumerate() {
            assert_eq!(task.inputs[0].name, format!("file_{}", i + 1));
            assert_eq!(task.outputs[0].name, format!("file_{}", i + 2));
            assert_eq!(task.inputs[0].size, 20.0 * GB);
        }
        assert_eq!(app.total_read_bytes(), 60.0 * GB);
        assert_eq!(app.total_written_bytes(), 60.0 * GB);
    }

    #[test]
    fn synthetic_cpu_times_match_table1() {
        for (gb, secs) in [
            (3.0, 4.4),
            (20.0, 28.0),
            (50.0, 75.0),
            (75.0, 110.0),
            (100.0, 155.0),
        ] {
            let t = ApplicationSpec::synthetic_cpu_time(gb * GB);
            assert!((t - secs).abs() < 1e-9, "{gb} GB -> {t}, expected {secs}");
        }
        // Interpolation between measured points is monotonic.
        let t35 = ApplicationSpec::synthetic_cpu_time(35.0 * GB);
        assert!(t35 > 28.0 && t35 < 75.0);
    }

    #[test]
    fn nighres_matches_table2() {
        let app = ApplicationSpec::nighres();
        assert_eq!(app.tasks.len(), 4);
        let sizes_in: Vec<f64> = app.tasks.iter().map(TaskSpec::input_bytes).collect();
        let sizes_out: Vec<f64> = app.tasks.iter().map(TaskSpec::output_bytes).collect();
        let cpu: Vec<f64> = app.tasks.iter().map(|t| t.cpu_time).collect();
        assert_eq!(
            sizes_in,
            vec![295.0 * MB, 197.0 * MB, 1376.0 * MB, 393.0 * MB]
        );
        assert_eq!(
            sizes_out,
            vec![393.0 * MB, 1376.0 * MB, 885.0 * MB, 786.0 * MB]
        );
        assert_eq!(cpu, vec![137.0, 614.0, 76.0, 272.0]);
        // Step 3 reads what step 2 wrote; step 4 reads what step 1 wrote.
        assert_eq!(app.tasks[2].inputs[0].name, app.tasks[1].outputs[0].name);
        assert_eq!(app.tasks[3].inputs[0].name, app.tasks[0].outputs[0].name);
    }

    #[test]
    fn legacy_task_lowers_to_the_canonical_program() {
        let task = TaskSpec::new("t", 2.5)
            .reads(FileSpec::new("in", 10.0 * MB))
            .writes(FileSpec::new("out", 5.0 * MB));
        let ops = task.lower(2);
        assert_eq!(
            ops,
            vec![
                Op::read("in"),
                Op::Sample,
                Op::Snapshot("Read 3".to_string()),
                Op::Compute(2.5),
                Op::write("out", 5.0 * MB),
                Op::Sample,
                Op::Snapshot("Write 3".to_string()),
                Op::ReleaseMemory(10.0 * MB),
                Op::Sample,
            ]
        );
    }

    #[test]
    fn program_task_is_returned_verbatim() {
        let ops = vec![Op::read_range("f", 1.0, 2.0), Op::Sync];
        let task = TaskSpec::program("custom", ops.clone());
        assert_eq!(task.lower(0), ops);
        assert!(!task.release_memory_after);
    }

    #[test]
    fn repeat_unrolls_recursively() {
        let ops = vec![
            Op::write("wal", 1.0),
            Op::repeat(2, vec![Op::fsync("wal"), Op::repeat(2, vec![Op::Sync])]),
        ];
        let flat = flatten_program(&ops).unwrap();
        assert_eq!(flat.len(), 1 + 2 * (1 + 2));
        assert_eq!(flat[1], Op::fsync("wal"));
        assert_eq!(flat[2], Op::Sync);
        assert_eq!(flat[3], Op::Sync);
        assert_eq!(flat[4], Op::fsync("wal"));
    }

    #[test]
    fn repeat_zero_and_empty_bodies_flatten_to_nothing() {
        assert_eq!(
            flatten_program(&[Op::repeat(0, vec![Op::Sync])]).unwrap(),
            Vec::<Op>::new()
        );
        // An empty (or nested-zero) body must not spin `n` times.
        assert_eq!(
            flatten_program(&[Op::repeat(usize::MAX, vec![])]).unwrap(),
            Vec::<Op>::new()
        );
        assert_eq!(
            flatten_program(&[Op::repeat(usize::MAX, vec![Op::repeat(0, vec![Op::Sync])])])
                .unwrap(),
            Vec::<Op>::new()
        );
    }

    #[test]
    fn deeply_nested_repeat_is_a_structured_error() {
        // MAX_REPEAT_DEPTH + 1 nested Repeats: the old recursive unroll would
        // recurse unboundedly on programs like this; now it is a TooDeep.
        let mut op = Op::Sync;
        for _ in 0..=MAX_REPEAT_DEPTH {
            op = Op::repeat(1, vec![op]);
        }
        assert_eq!(
            flatten_program(&[op]),
            Err(ProgramError::TooDeep {
                limit: MAX_REPEAT_DEPTH
            })
        );
        // Exactly at the limit it still unrolls.
        let mut op = Op::Sync;
        for _ in 0..MAX_REPEAT_DEPTH {
            op = Op::repeat(1, vec![op]);
        }
        assert_eq!(flatten_program(&[op]).unwrap(), vec![Op::Sync]);
    }

    #[test]
    fn oversized_unroll_is_a_structured_error() {
        // 2^24 sync ops via nested doubling exceeds MAX_PROGRAM_OPS without
        // the test having to materialise them.
        let mut op = Op::Sync;
        for _ in 0..24 {
            op = Op::repeat(2, vec![op]);
        }
        assert_eq!(
            flatten_program(&[op]),
            Err(ProgramError::TooLong {
                limit: MAX_PROGRAM_OPS
            })
        );
        let err = ProgramError::TooLong {
            limit: MAX_PROGRAM_OPS,
        };
        assert!(err.to_string().contains("instructions"));
    }

    #[test]
    fn application_validation_rejects_nan_and_negative_operands() {
        let ok = ApplicationSpec::new("ok").with_task(TaskSpec::program(
            "t",
            vec![Op::read("a"), Op::write("b", 5.0), Op::compute(0.0)],
        ));
        assert!(ok.validate().is_ok());
        // Whole-file reads use an infinite length: allowed.
        assert!(ApplicationSpec::new("inf-read")
            .with_task(TaskSpec::program("t", vec![Op::read("a")]))
            .validate()
            .is_ok());

        let bad_cases = [
            ApplicationSpec::new("x").with_initial_file(FileSpec::new("f", f64::NAN)),
            ApplicationSpec::new("x").with_initial_file(FileSpec::new("f", -1.0)),
            ApplicationSpec::new("x")
                .with_task(TaskSpec::new("t", f64::NAN).reads(FileSpec::new("f", 1.0))),
            ApplicationSpec::new("x")
                .with_task(TaskSpec::new("t", 1.0).writes(FileSpec::new("f", f64::INFINITY))),
            ApplicationSpec::new("x")
                .with_task(TaskSpec::program("t", vec![Op::write("f", f64::NAN)])),
            ApplicationSpec::new("x").with_task(TaskSpec::program(
                "t",
                vec![Op::write_range("f", -4.0, 1.0)],
            )),
            ApplicationSpec::new("x").with_task(TaskSpec::program(
                "t",
                vec![Op::read_range("f", f64::NAN, 1.0)],
            )),
            ApplicationSpec::new("x")
                .with_task(TaskSpec::program("t", vec![Op::compute(f64::INFINITY)])),
            // Operands are checked inside Repeat bodies too.
            ApplicationSpec::new("x").with_task(TaskSpec::program(
                "t",
                vec![Op::repeat(3, vec![Op::ReleaseMemory(-2.0)])],
            )),
        ];
        for app in bad_cases {
            assert!(app.validate().is_err(), "{app:?} should be invalid");
        }
    }

    #[test]
    fn builders_compose() {
        let app = ApplicationSpec::new("custom")
            .with_initial_file(FileSpec::new("in", 10.0 * MB))
            .with_task(
                TaskSpec::new("t", 1.0)
                    .reads(FileSpec::new("in", 10.0 * MB))
                    .writes(FileSpec::new("out", 5.0 * MB)),
            );
        assert_eq!(app.tasks[0].input_bytes(), 10.0 * MB);
        assert_eq!(app.tasks[0].output_bytes(), 5.0 * MB);
        assert_eq!(app.total_cpu_time(), 1.0);
    }
}
