//! Layered host-cost benchmark of the ROG reproduction.
//!
//! ```text
//! rog-benchmark [--workload <name>|all] [--seed <u64>] [--seconds <s>]
//!               [--trace 0|1] [--quick] [--out <result.json>]
//! rog-benchmark compare <a.json> <b.json>
//! ```
//!
//! `--trace 0` (default) is the timed pass: whole operations, no spans,
//! every end-to-end metric. `--trace 1` is the traced pass: per-layer
//! metrics from an outside-in drive of each crate, spans written to
//! `benchmark/out/`. See `benchmark/README.md`.

mod alloc;
mod calib;
mod compare;
mod json;
mod layers;
mod report;
mod span;
mod spec;
mod stats;
mod timed;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use calib::{Calib, CAL_NOMINAL_S};
use json::Json;
use report::TimedResult;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The seed of every number recorded in the README.
const DEFAULT_SEED: u64 = 0x0611;
/// Attempts after which a workload that keeps failing fast is given up.
const MAX_ATTEMPTS: usize = 64;
/// Layer-drive budget per workload in `--quick` mode.
const QUICK_TRACE_SECONDS: f64 = 0.8;

struct Options {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: "all".to_owned(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--quick" => o.quick = true,
            "--out" => o.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

/// First line of a command's standard output, or `unknown`.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn header(o: &Options, seconds: f64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("compute_threads", Json::Num(1.0)),
        ("rustc", Json::Str(tool_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("cal_nominal_s", Json::Num(CAL_NOMINAL_S)),
        ("seconds_per_workload", Json::Num(seconds)),
        ("seed", Json::Num(o.seed as f64)),
        ("quick", Json::Bool(o.quick)),
    ])
}

/// The timed pass: workloads round-robin, each until it has measured
/// for `seconds` (one rep in quick mode).
fn timed_pass(ws: &[Workload], calib: &mut Calib, seconds: f64, quick: bool) -> Vec<TimedResult> {
    struct State {
        reps: Vec<timed::Rep>,
        errors: Vec<String>,
        reference: Option<timed::Reference>,
        spent_s: f64,
    }
    let mut states: Vec<State> = ws
        .iter()
        .map(|_| State {
            reps: Vec::new(),
            errors: Vec::new(),
            reference: None,
            spent_s: 0.0,
        })
        .collect();
    loop {
        let mut progressed = false;
        for (w, st) in ws.iter().zip(&mut states) {
            let attempts = st.reps.len() + st.errors.len();
            // Stop where the next rep would overshoot the budget by more
            // than it undershoots now.
            let mean_rep_s = st.spent_s / attempts.max(1) as f64;
            let done = attempts >= 1 && (quick || st.spent_s + mean_rep_s / 2.0 >= seconds);
            if done || attempts >= MAX_ATTEMPTS {
                continue;
            }
            let start = Instant::now();
            match timed::one_rep(w, calib, &mut st.reference) {
                Ok(rep) => st.reps.push(rep),
                Err(e) => st.errors.push(e),
            }
            st.spent_s += start.elapsed().as_secs_f64();
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    ws.iter()
        .zip(states)
        .map(|(w, st)| report::timed_result(w.name, &st.reps, st.reference.as_ref(), st.errors))
        .collect()
}

fn print_layers(w: &Workload, t: &layers::Traced) {
    println!(
        "== {}: traced pass (plain run {:.3} s, speed-normalised)",
        w.name, t.run_s
    );
    for f in &t.failures {
        println!("   FAILED: {f}");
    }
    println!(
        "   {:<36} {:>6} {:>14} {:>12} {:>8} {:>12} {:>9}",
        "metric", "unit", "value", "ops", "samples", "p99", "share"
    );
    for l in &t.layers {
        println!(
            "   {:<36} {:>6} {:>14.4} {:>12} {:>8} {:>12} {:>9}",
            l.name,
            l.unit,
            l.value,
            l.ops.map_or(String::new(), |o| format!("{o:.0}")),
            l.samples,
            l.p99.map_or(String::new(), |p| format!("{p:.4}")),
            l.est_s
                .map_or(String::new(), |s| format!("{:.2}%", 100.0 * s / t.run_s)),
        );
    }
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(o: &Options) -> Result<bool, String> {
    let spec = spec::load()?;
    let seconds = o.seconds.unwrap_or(spec.run_seconds);
    let names: Vec<&str> = if o.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![o.workload.as_str()]
    };
    let ws: Vec<Workload> = names
        .iter()
        .map(|n| {
            workloads::build(n, o.seed, o.quick).ok_or(format!(
                "unknown workload {n} (known: {:?})",
                workloads::NAMES
            ))
        })
        .collect::<Result<_, _>>()?;

    // One compute thread, no sockets or helper threads in the timed
    // pass: on the two shared cores of the sandbox a second busy thread
    // is noise, not speed.
    rog_trainer::compute::set_thread_override(Some(1));
    let head = header(o, seconds);
    println!("# rog-benchmark {}", head.to_line());
    let mut calib = Calib::new();
    let mut ok = true;
    let mut last_line = None;

    if !o.trace || o.quick {
        let results = timed_pass(&ws, &mut calib, seconds, o.quick);
        for r in &results {
            r.print();
            ok &= r.correct();
        }
        if let Some(path) = &o.out {
            let doc = Json::obj([
                ("header", head.clone()),
                (
                    "workloads",
                    Json::obj(results.iter().map(|r| (r.workload, r.to_json()))),
                ),
            ]);
            write_file(std::path::Path::new(path), &doc.to_pretty())?;
            println!("wrote {path}");
        }
        if let [r] = results.as_slice() {
            last_line = Some(r.contract_line(&spec));
        }
    }

    if o.trace || o.quick {
        let trace_seconds = if o.quick {
            QUICK_TRACE_SECONDS
        } else {
            seconds
        };
        let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        for w in &ws {
            let mut rec = span::Recorder::new();
            let traced = layers::traced_pass(w, &mut calib, &mut rec, trace_seconds, o.quick)?;
            print_layers(w, &traced);
            let path = out_dir.join(format!("trace-{}.json", w.name));
            write_file(&path, &rec.to_json(w.name).to_line())?;
            println!("   {} spans -> {}", rec.spans().len(), path.display());
            let correct = traced.failures.is_empty();
            ok &= correct;
            if ws.len() == 1 {
                last_line = Some(report::contract_line(
                    spec.per_layer.iter().map(|(name, _)| name.as_str()),
                    |name| {
                        let l = traced.layers.iter().find(|l| l.name == name)?;
                        Some((l.value, l.unit))
                    },
                    correct,
                    1,
                    u64::from(!correct),
                ));
            }
        }
    }

    // The driver reads the last line of standard output.
    if let (Some(line), false) = (last_line, o.quick) {
        println!("{}", line.to_line());
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match args.as_slice() {
            [_, a, b] => spec::load().and_then(|spec| compare::compare(&spec, a, b)),
            _ => Err("usage: rog-benchmark compare <a.json> <b.json>".to_owned()),
        }
    } else {
        parse(&args).and_then(|o| run(&o))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("rog-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One quick rep and one short traced pass of the workload that
    /// touches the most layers: every metric `BENCHMARK.json` promises
    /// must come out, under the promised unit, with every check green.
    #[test]
    fn both_passes_produce_every_metric_of_the_contract() {
        let spec = spec::load().expect("BENCHMARK.json parses");
        assert_eq!(spec.workloads, workloads::NAMES);
        assert!(spec
            .end_to_end
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s" && e.lower_is_better));
        for e in &spec.end_to_end {
            assert!(
                json::valid_name(&e.name) && e.bound > 0.0 && e.bound <= 0.25,
                "{e:?}"
            );
        }

        rog_trainer::compute::set_thread_override(Some(1));
        let w = workloads::build("lossy-traced", 7, true).expect("known workload");
        let mut calib = Calib::new();
        let timed = timed_pass(std::slice::from_ref(&w), &mut calib, 0.0, true).remove(0);
        assert!(timed.correct(), "{:?}", timed.errors);
        for e in &spec.end_to_end {
            let m = timed.metrics.iter().find(|m| m.name == e.name);
            assert_eq!(m.map(|m| m.unit), Some(e.unit.as_str()), "{}", e.name);
        }
        let line = timed.contract_line(&spec).to_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"),
            "{line}"
        );

        let mut rec = span::Recorder::new();
        let traced = layers::traced_pass(&w, &mut calib, &mut rec, 0.5, true).expect("runs");
        assert_eq!(traced.failures, Vec::<String>::new());
        for (name, unit) in &spec.per_layer {
            let l = traced.layers.iter().find(|l| l.name == name);
            assert_eq!(l.map(|l| l.unit), Some(unit.as_str()), "{name}");
        }
        assert_eq!(traced.layers.len(), spec.per_layer.len());
        assert!(rec.spans().iter().any(|s| s.name == "trainer.run"));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let o = parse(&args("--workload fleet256 --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("fleet256", 7, Some(3.0), true)
        );
        for bad in [
            "--seed x",
            "--seconds 0",
            "--seconds -1",
            "--trace 2",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
