//! The scenario-sweep CLI.
//!
//! ```text
//! sweep [OPTIONS]
//!   --check            diff RESULTS.json against the golden baseline and
//!                      exit non-zero on any drift
//!   --update-golden    regenerate the golden baseline from this run
//!   --threads N        worker threads (default: all cores; output is
//!                      thread-count-independent)
//!   --filter SUBSTR    only run scenarios whose name or group contains
//!                      SUBSTR (e.g. --filter eviction for the policy
//!                      comparison group, --filter paper_scale for the
//!                      paper's figures at the paper's scale); composes
//!                      with --list, and --check and --check-frozen then
//!                      check the selected scenarios only
//!   --out PATH         where to write RESULTS.json (default: RESULTS.json)
//!   --golden PATH      golden baseline path (default: baselines/golden.json)
//!   --check-frozen P   additionally require every metric of the frozen
//!                      reference P (a past golden) to be bit-identical in
//!                      this run; metrics/scenarios added since are ignored.
//!                      The proof a scenario-adding PR must carry: the
//!                      regenerated golden did not move pre-existing
//!                      predictions
//!   --timings          include machine-dependent wall-clock timings in the
//!                      output (breaks bit-identical output; never gated)
//!   --list             list registered scenarios and exit
//! ```
//!
//! Exit codes: 0 on success, 1 on scenario failure or golden drift, 2 on
//! usage or I/O errors.

use std::process::ExitCode;

use harness::{
    compare, compare_intersection_exact, make_golden, parse, registry, restrict, run_sweep, Json,
    SweepConfig,
};

struct Options {
    check: bool,
    check_frozen: Option<String>,
    update_golden: bool,
    list: bool,
    timings: bool,
    out: String,
    golden: String,
    config: SweepConfig,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        check: false,
        check_frozen: None,
        update_golden: false,
        list: false,
        timings: false,
        out: "RESULTS.json".to_string(),
        golden: "baselines/golden.json".to_string(),
        config: SweepConfig::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--check" => opts.check = true,
            "--check-frozen" => opts.check_frozen = Some(value("--check-frozen")?),
            "--update-golden" => opts.update_golden = true,
            "--list" => opts.list = true,
            "--timings" => opts.timings = true,
            "--threads" => {
                opts.config.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("invalid --threads: {e}"))?
            }
            "--filter" => opts.config.filter = Some(value("--filter")?),
            "--out" => opts.out = value("--out")?,
            "--golden" => opts.golden = value("--golden")?,
            "--help" | "-h" => {
                print!("{}", HELP);
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if opts.check && opts.update_golden {
        return Err("--check and --update-golden are mutually exclusive".to_string());
    }
    if opts.update_golden && opts.config.filter.is_some() {
        // make_golden() replaces the scenarios section wholesale; a filtered
        // run would silently truncate the baseline to the filtered subset.
        return Err("--update-golden requires a full run; drop --filter".to_string());
    }
    Ok(opts)
}

const HELP: &str = "\
Usage: sweep [--check | --update-golden] [--check-frozen PATH] [--threads N]
             [--filter SUBSTR] [--out PATH] [--golden PATH] [--timings]
             [--list]

Runs every registered scenario in parallel, writes RESULTS.json, and (with
--check) fails on out-of-tolerance drift from the golden baseline.
";

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::from(2);
        }
    };

    let scenarios = registry();
    let selected: Vec<&harness::Scenario> = scenarios
        .iter()
        .filter(|s| opts.config.selects(s))
        .collect();
    // A filtered run is checked against the scenarios it selected only; an
    // unfiltered one against the whole reference, so a scenario missing
    // from the run still fails.
    let reference = |doc: Json| match opts.config.filter {
        Some(_) => restrict(&doc, &selected.iter().map(|s| s.name).collect::<Vec<_>>()),
        None => doc,
    };
    if opts.list {
        match &opts.config.filter {
            Some(f) => println!(
                "{} of {} registered scenarios match --filter {f:?}:",
                selected.len(),
                scenarios.len()
            ),
            None => println!("{} registered scenarios:", selected.len()),
        }
        for s in &selected {
            println!("  [{:<11}] {:<38} {}", s.group, s.name, s.description);
        }
        return ExitCode::SUCCESS;
    }

    eprintln!(
        "running {} scenarios on {} threads",
        selected.len(),
        opts.config.threads
    );
    let results = run_sweep(&scenarios, &opts.config);
    for s in &results.scenarios {
        match &s.outcome {
            Ok(m) => eprintln!(
                "  ok   {:<38} {:>4} metrics  {:>7.2}s",
                s.name,
                m.len(),
                s.wall_clock_seconds
            ),
            Err(e) => eprintln!("  FAIL {:<38} {e}", s.name),
        }
    }
    eprintln!(
        "total scenario wall-clock: {:.2}s",
        results.total_wall_clock()
    );

    if !results.all_ok() {
        eprintln!("sweep: {} scenario(s) failed", results.failures().len());
        return ExitCode::FAILURE;
    }

    let doc = results.to_json(opts.timings);
    if let Err(e) = std::fs::write(&opts.out, doc.render_pretty()) {
        eprintln!("sweep: cannot write {}: {e}", opts.out);
        return ExitCode::from(2);
    }
    eprintln!("wrote {}", opts.out);

    // The frozen bit-identity check runs first so it composes with both
    // --check and --update-golden: a regeneration that moved pre-existing
    // predictions fails here *before* the new golden is written.
    if let Some(frozen_path) = &opts.check_frozen {
        let frozen = match std::fs::read_to_string(frozen_path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse(&text))
        {
            Ok(doc) => reference(doc),
            Err(e) => {
                eprintln!("sweep: cannot read frozen reference {frozen_path}: {e}");
                return ExitCode::from(2);
            }
        };
        match compare_intersection_exact(&frozen, &results.to_json(false)) {
            Ok(drifts) if drifts.is_empty() => {
                eprintln!("frozen check passed: every {frozen_path} metric is bit-identical");
            }
            Ok(drifts) => {
                eprintln!(
                    "frozen check FAILED: {} pre-existing metric(s) moved or vanished",
                    drifts.len()
                );
                for d in &drifts {
                    eprintln!("  {d}");
                }
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("sweep: cannot compare against frozen reference: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if opts.update_golden {
        let previous = std::fs::read_to_string(&opts.golden)
            .ok()
            .and_then(|text| parse(&text).ok());
        let golden = make_golden(&results.to_json(false), previous.as_ref());
        if let Some(dir) = std::path::Path::new(&opts.golden).parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("sweep: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(&opts.golden, golden.render_pretty()) {
            eprintln!("sweep: cannot write {}: {e}", opts.golden);
            return ExitCode::from(2);
        }
        eprintln!("updated golden baseline {}", opts.golden);
        return ExitCode::SUCCESS;
    }

    if opts.check {
        let golden_text = match std::fs::read_to_string(&opts.golden) {
            Ok(text) => text,
            Err(e) => {
                eprintln!(
                    "sweep: cannot read golden baseline {} ({e}); \
                     generate it with --update-golden",
                    opts.golden
                );
                return ExitCode::from(2);
            }
        };
        let golden = match parse(&golden_text) {
            Ok(doc) => reference(doc),
            Err(e) => {
                eprintln!("sweep: golden baseline {} is malformed: {e}", opts.golden);
                return ExitCode::from(2);
            }
        };
        match compare(&golden, &results.to_json(false)) {
            Ok(drifts) if drifts.is_empty() => {
                eprintln!("golden check passed: no drift from {}", opts.golden);
            }
            Ok(drifts) => {
                eprintln!("golden check FAILED: {} drift(s)", drifts.len());
                for d in &drifts {
                    eprintln!("  {d}");
                }
                eprintln!(
                    "If this change is intentional, regenerate the baseline in the same \
                     commit with scripts/sweep.sh --update-golden and explain why."
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("sweep: cannot compare against golden: {e}");
                return ExitCode::from(2);
            }
        }
    }

    ExitCode::SUCCESS
}
