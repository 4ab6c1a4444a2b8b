//! `rogctl` — run one configurable experiment from the command line.
//!
//! ```text
//! cargo run --release -p rog-bench --bin rogctl -- \
//!     --workload cruda --env outdoor --strategy rog:4 --duration 1200 \
//!     --csv run.csv --json run.json
//! ```
//!
//! Subcommands: `rogctl trace [run flags] --out run.jsonl.gz` writes
//! the deterministic event journal of a run; `rogctl trace-summary
//! run.jsonl.gz` replays a journal into the Fig. 8-style composition
//! table; `rogctl serve` / `rogctl join` run the same experiment over
//! real UDP/TCP sockets, one process per role; `rogctl fuzz` drives a
//! seeded scenario campaign through the differential invariant
//! harness; `rogctl figure <name>` runs one experiment of the paper's
//! evaluation (`rog_bench::experiments`).

use std::path::Path;
use std::process::ExitCode;

use rog_bench::cli::{self, CliCommand, CliRun, FuzzOptions};
use rog_bench::experiments;
use rog_fuzz::{check_scenario, shrink, FuzzReport, Scenario, ScenarioGen, ScenarioRecord};
use rog_obs::{gzip_compress, gzip_decompress, TraceSummary};
use rog_trainer::{live, report, FleetStats, RunMetrics, RunOutcome};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match cli::parse_command(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        CliCommand::Run(run) => run_experiment(&run),
        CliCommand::Trace { run, out } => trace_experiment(&run, &out),
        CliCommand::TraceSummary { path } => summarize_trace(&path),
        CliCommand::Serve { run, opts } => {
            let role = format!("serving {} on {}", run.config.name(), opts.listen);
            live_experiment(&run, &role, || live::serve(&run.config, &opts))
        }
        CliCommand::Join { run, opts } => {
            let role = format!("joining {} at {}", run.config.name(), opts.connect);
            live_experiment(&run, &role, || live::join(&run.config, &opts))
        }
        CliCommand::Fuzz(opts) => fuzz_campaign(&opts),
        CliCommand::Figure { name, ctx } => {
            let (_, run) = experiments::find(name).expect("parse_command checked the name");
            run(&ctx);
            ExitCode::SUCCESS
        }
    }
}

/// The server repairs NaN/Inf gradient values at ingest rather than
/// spreading them; a run that needed it says so.
fn report_ingest_faults(stats: &FleetStats) {
    if stats.nonfinite_dropped > 0 {
        println!(
            "warning: the server zeroed {} non-finite gradient values at ingest \
             (a corrupted payload or a diverging worker)",
            stats.nonfinite_dropped
        );
    }
}

/// Writes the run's metrics where `--json` asked for them.
fn export_json(run: &CliRun, metrics: &RunMetrics) {
    if let Some(path) = &run.json_out {
        std::fs::write(path, report::runs_to_json(std::slice::from_ref(metrics)))
            .expect("write json");
        println!("wrote {path}");
    }
}

/// The `--csv` and `--json` exports of a finished run.
fn export(run: &CliRun, metrics: &RunMetrics) {
    if let Some(path) = &run.csv_out {
        std::fs::write(path, report::checkpoints_csv(std::slice::from_ref(metrics)))
            .expect("write csv");
        println!("wrote {path}");
    }
    export_json(run, metrics);
}

fn run_experiment(run: &CliRun) -> ExitCode {
    println!(
        "running {} for {:.0}s ...",
        run.config.name(),
        run.config.duration_secs
    );
    let outcome = run.config.options().run();
    let metrics = outcome.metrics;

    println!(
        "\n{}",
        report::composition_table(std::slice::from_ref(&metrics))
    );
    println!("{} over time:", metrics.metric_name);
    for c in &metrics.checkpoints {
        println!(
            "  iter {:>5}  t={:>8.1}s  {}={:>8.3}  energy={:>9.0} J",
            c.iter, c.time, metrics.metric_name, c.metric, c.energy_j
        );
    }
    println!(
        "\ntotal: {:.0} iterations/worker, {:.0} J, {:.1} MB useful / {:.1} MB wasted on the wire",
        metrics.mean_iterations,
        metrics.total_energy_j,
        metrics.useful_bytes / 1e6,
        metrics.wasted_bytes / 1e6
    );
    report_ingest_faults(&outcome.stats);
    export(run, &metrics);
    ExitCode::SUCCESS
}

/// Runs one role of a socket cluster (`launch` is [`live::serve`] or
/// [`live::join`]) and prints what the sim path prints.
fn live_experiment(
    run: &CliRun,
    role: &str,
    launch: impl FnOnce() -> Result<RunOutcome, String>,
) -> ExitCode {
    println!("{role} ({:.0} virtual secs) ...", run.config.duration_secs);
    let outcome = match launch() {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = outcome.metrics;
    println!(
        "\n{}",
        report::composition_table(std::slice::from_ref(&metrics))
    );
    println!(
        "total: {:.0} iterations/worker, {} checkpoints, {:.1} MB useful / {:.1} MB wasted on the wire",
        metrics.mean_iterations,
        metrics.checkpoints.len(),
        metrics.useful_bytes / 1e6,
        metrics.wasted_bytes / 1e6
    );
    report_ingest_faults(&outcome.stats);
    export(run, &metrics);
    ExitCode::SUCCESS
}

fn trace_experiment(run: &CliRun, out: &str) -> ExitCode {
    println!(
        "tracing {} for {:.0}s ...",
        run.config.name(),
        run.config.duration_secs
    );
    let outcome = run.config.options().traced(true).run();
    let (metrics, journal) = (outcome.metrics, outcome.journal.expect("traced run"));
    let jsonl = journal.to_jsonl();
    let bytes = if out.ends_with(".gz") {
        gzip_compress(jsonl.as_bytes())
    } else {
        jsonl.into_bytes()
    };
    if let Err(e) = std::fs::write(out, &bytes) {
        eprintln!("cannot write '{out}': {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {out}: {} events, {} bytes ({:.0} iterations/worker in {:.0}s)",
        journal.len(),
        bytes.len(),
        metrics.mean_iterations,
        metrics.duration
    );
    export_json(run, &metrics);
    ExitCode::SUCCESS
}

/// Differential checks the shrinker may spend per failing scenario.
const SHRINK_BUDGET: usize = 200;

fn fuzz_campaign(opts: &FuzzOptions) -> ExitCode {
    let mut report = match &opts.replay {
        Some(_) => FuzzReport::new(0, 0.0),
        None => {
            let mut gen = ScenarioGen::new(opts.seed).widened(opts.widened);
            if let Some(secs) = opts.max_duration {
                gen = gen.max_duration(secs);
            }
            FuzzReport::new(gen.seed(), gen.max_duration_secs())
        }
    };

    // (label, scenario) pairs to check: a replayed corpus or a fresh
    // generator sweep.
    let scenarios: Vec<(String, Scenario)> = match &opts.replay {
        Some(path) => match load_repros(Path::new(path)) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let mut gen = ScenarioGen::new(opts.seed).widened(opts.widened);
            if let Some(secs) = opts.max_duration {
                gen = gen.max_duration(secs);
            }
            (0..opts.count)
                .map(|i| {
                    let sc = gen.scenario(i);
                    (sc.label(), sc)
                })
                .collect()
        }
    };

    for (label, sc) in &scenarios {
        let outcome = check_scenario(sc);
        report.push(ScenarioRecord::new(
            label.clone(),
            sc.strategy.name(),
            &outcome,
        ));
        if outcome.passed() {
            continue;
        }
        println!("FAIL {label}");
        for v in &outcome.violations {
            println!("  {v}");
        }
        let shrunk = shrink(sc, SHRINK_BUDGET);
        println!(
            "  shrunk to {} fault lines in {} replays",
            shrunk.scenario.script_lines(),
            shrunk.replays
        );
        if let Some(dir) = &opts.corpus {
            let dir = Path::new(dir);
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create corpus dir '{}': {e}", dir.display());
                return ExitCode::FAILURE;
            }
            let name = format!("seed{}-{}.repro", sc.gen_seed, sc.index);
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, shrunk.scenario.to_repro()) {
                eprintln!("cannot write repro '{}': {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("  wrote {}", path.display());
        } else {
            print!("{}", shrunk.scenario.to_repro());
        }
    }

    print!("{}", report.render());
    if let Some(path) = &opts.json_out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cannot write '{path}': {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if report.failing() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Loads one `.repro` file, or every `*.repro` in a directory
/// (sorted by file name for a stable replay order).
fn load_repros(path: &Path) -> Result<Vec<(String, Scenario)>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path)
            .map_err(|e| format!("cannot read corpus dir '{}': {e}", path.display()))?;
        for entry in entries {
            let p = entry
                .map_err(|e| format!("cannot read corpus dir '{}': {e}", path.display()))?
                .path();
            if p.extension().is_some_and(|x| x == "repro") {
                files.push(p);
            }
        }
        files.sort();
        if files.is_empty() {
            return Err(format!("no .repro files in '{}'", path.display()));
        }
    } else {
        files.push(path.to_path_buf());
    }
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p)
                .map_err(|e| format!("cannot read '{}': {e}", p.display()))?;
            let sc = Scenario::parse(&text).map_err(|e| format!("'{}': {e}", p.display()))?;
            let name = p
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| p.display().to_string());
            Ok((name, sc))
        })
        .collect()
}

fn summarize_trace(path: &str) -> ExitCode {
    let raw = match std::fs::read(path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("cannot read '{path}': {e}");
            return ExitCode::FAILURE;
        }
    };
    // Gzip member magic, not the extension, decides: traces may be
    // renamed in flight.
    let text = if raw.starts_with(&[0x1f, 0x8b]) {
        match gzip_decompress(&raw) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("'{path}' is not a valid gzip file: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        raw
    };
    let Ok(text) = String::from_utf8(text) else {
        eprintln!("'{path}' is not UTF-8 JSONL");
        return ExitCode::FAILURE;
    };
    match TraceSummary::from_jsonl(&text) {
        Ok(summary) => {
            print!("{}", summary.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot parse '{path}': {e}");
            ExitCode::FAILURE
        }
    }
}
