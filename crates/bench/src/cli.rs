//! Argument parsing for the `rogctl` experiment runner.
//!
//! Hand-rolled (no CLI dependency): `--key value` and boolean `--flag`
//! pairs mapped onto an [`ExperimentConfig`].

use std::fmt;

use rog_compress::CodecChoice;
use rog_fault::FaultPlan;
use rog_net::{LossConfig, SharingMode};
use rog_trainer::{check_socket_compatible, ExperimentConfig, JoinOptions, ServeOptions};

use crate::experiments::{self, Ctx, EXPERIMENTS};

/// A parsed `rogctl` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CliRun {
    /// The experiment to run.
    pub config: ExperimentConfig,
    /// Write checkpoints CSV here.
    pub csv_out: Option<String>,
    /// Write run-metrics JSON here.
    pub json_out: Option<String>,
}

/// A parsed `rogctl` command (run by default, or a trace subcommand).
#[derive(Debug, Clone, PartialEq)]
pub enum CliCommand {
    /// Run one experiment and print/export its metrics.
    Run(CliRun),
    /// Run one experiment with the event journal enabled and write the
    /// JSONL trace to `out` (gzipped when the path ends in `.gz`).
    Trace {
        /// The traced run.
        run: CliRun,
        /// Journal output path.
        out: String,
    },
    /// Summarize a journal file into the Fig. 8-style composition table.
    TraceSummary {
        /// Journal path (`.jsonl` or `.jsonl.gz`).
        path: String,
    },
    /// Run the live parameter server over real sockets.
    Serve {
        /// The experiment (validated socket-compatible at parse time).
        run: CliRun,
        /// Listen address / pacing / join timeout.
        opts: ServeOptions,
    },
    /// Run one live worker over real sockets.
    Join {
        /// The experiment (validated socket-compatible at parse time).
        run: CliRun,
        /// Server address / per-iteration push cap.
        opts: JoinOptions,
    },
    /// Run a seeded fuzz campaign (or replay a `.repro` corpus)
    /// through the differential invariant harness.
    Fuzz(FuzzOptions),
    /// Run one entry of the experiment table ([`experiments::EXPERIMENTS`]).
    Figure {
        /// The entry's name (checked at parse time).
        name: &'static str,
        /// Its `--quick` / `--seed` flags.
        ctx: Ctx,
    },
}

/// Options for the `rogctl fuzz` campaign driver.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzOptions {
    /// Root generator seed.
    pub seed: u64,
    /// Scenarios to generate and check.
    pub count: u64,
    /// Duration ceiling passed to the generator (`None` keeps its
    /// default).
    pub max_duration: Option<f64>,
    /// Directory where minimal repros of failing scenarios are written.
    pub corpus: Option<String>,
    /// A `.repro` file or a directory of them to replay instead of
    /// generating scenarios.
    pub replay: Option<String>,
    /// Write the wall-clock-free campaign report (`BENCH_fuzz.json`
    /// shape) here.
    pub json_out: Option<String>,
    /// Widen the sync-model draw to the adaptive strategies
    /// (`--models all`); `false` keeps the legacy draw byte-identical.
    pub widened: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        Self {
            seed: 1,
            count: 50,
            max_duration: None,
            corpus: None,
            replay: None,
            json_out: None,
            widened: false,
        }
    }
}

/// CLI parse error with a message suitable for direct printing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Parses `flag`'s value, reporting `"<flag> expects <what>"` when it
/// does not parse.
fn parsed<T: std::str::FromStr>(flag: &str, value: &str, what: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| err(format!("{flag} expects {what}")))
}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// A `figure` parse error: `msg`, the usage line and every valid name.
fn figure_err(msg: &str) -> CliError {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    err(format!(
        "{msg}\nusage: rogctl figure <name> [--quick] [--seed <n>]\nnames: {}",
        names.join(" ")
    ))
}

/// Finite and `> 0` (NaN fails, not just `<= 0`).
fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// Usage text.
pub const USAGE: &str = "\
rogctl — run one ROG/baseline training experiment on the simulated cluster

USAGE:
  rogctl [--workload cruda|cruda-conv|crimp] [--env indoor|outdoor|stable]
         [--strategy bsp|asp|ssp:<t>|flown:<min>:<max>|dssp:<min>:<max>
                    |abs:<min>:<max>|rog:<t>|roga:<min>:<max>]
         [--duration <secs>] [--workers <n>] [--laptops <n>]
         [--batch-scale <x>] [--eval-every <iters>] [--seed <n>]
         [--scale paper|small] [--mac airtime|anomaly]
         [--pipeline] [--auto-threshold] [--micro] [--shards <n>]
         [--aggregators <n>] [--codec onebit|sparse|q2|q4|q8|auto]
         [--fault-plan <file>] [--fault-seed <n>]
         [--loss <rate>] [--loss-burst <rate>] [--loss-seed <n>]
         [--corrupt <rate>]
         [--csv <path>] [--json <path>]

Sharding: --shards <n> row-shards the parameter server across n
instances (ROG strategies only); --shards 1 is the default
single-server engine and produces bit-identical results to it.

Fleet topology: --aggregators <n> inserts n edge aggregators between
the workers and the parameter-server shards (ROG strategies only);
--aggregators 0 is the default flat topology and produces
bit-identical results to it. n must not exceed --workers.

Row codec: --codec selects the push/pull payload encoder (ROG
strategies only). onebit (default) is the paper's one-bit codec and
produces bit-identical results to pre-codec builds; sparse encodes
only the significant values as varint index gaps, falling back to
dense when that would cost more; q2/q4/q8 are QSGD-style stochastic
k-bit ladders; auto starts every link on onebit and re-selects per
link from the channel's loss/goodput EWMAs (each switch is journaled
as a codec_select event). topk keeps the top 10% values per row
(ablation comparator).

Fault injection: --fault-plan loads a script of
'offline <w> <start> <end>' / 'blackout <w> <start> <end>' /
'server-restart <shard> <start> <end>' / 'agg-restart <a> <start> <end>' /
'loss <link> <start> <end> <rate>' lines; --fault-seed generates a
deterministic churn plan instead (ignored if a plan file is given).
Shard 0 is the whole server of an unsharded run.
A run no engine can execute is refused with a one-line reason: a
plan target outside the run, min > max in a strategy's bounds
(roga also needs min >= 1), more aggregators than workers.

Packet loss: --loss adds seeded i.i.d. per-chunk loss, --loss-burst
adds a Gilbert-Elliott bursty process with the given mean loss rate,
--corrupt flips delivered chunks to CRC failures; --loss-seed decouples
the loss process from the run seed (defaults to the run seed). Rates
are probabilities in [0, 1].

Subcommands:
  rogctl trace [run flags] --out <path[.gz]>
      Run with the deterministic event journal enabled and write it as
      JSONL (gzipped when the path ends in .gz). The journal for a
      (config, seed) pair is byte-identical across runs.
  rogctl trace-summary <path[.jsonl|.jsonl.gz]>
      Replay a journal into the per-iteration time-composition table
      and per-category event counts.
  rogctl serve [run flags] [--listen <ip:port>] [--speedup <x>]
               [--join-timeout <secs>]
      Run the live parameter server over real sockets: listen for
      worker joins on --listen (default 127.0.0.1:7117), then train at
      --speedup virtual seconds per wall second (default 60). Every
      process must be launched with identical run flags. The server
      runs the same row cycle as the simulated engine — --shards
      included — and holds the RSP gate: a worker's pull request waits
      there until min(V) admits it. Rejected with a reason: every
      strategy but fixed-bound rog:<t> and --auto-threshold (the wire
      has no threshold broadcast), --codec (the wire frames dense f32
      rows), --aggregators, --pipeline, and what only exists inside
      the simulated channel (--loss*, --corrupt, --fault-plan,
      --fault-seed, trace replay): a real network supplies its own
      loss.
  rogctl join [run flags] [--connect <ip:port>] [--push-cap <rows>]
      Join a live server as one worker: real gradients; each push sends
      its RSP-mandatory rows over TCP and the rest as UDP datagrams.
      --push-cap bounds the rows pushed per iteration (default 512); it
      cuts the best-effort tail only, never below max(MTA, mandatory).
  rogctl fuzz [--seed <n>] [--count <n>] [--max-duration <secs>]
              [--models all|legacy]
              [--corpus <dir>] [--replay <file|dir>] [--json <path>]
      Generate --count seeded scenarios (random topology, sync model,
      faults, loss) and replay each through the differential invariant
      harness: two replays must agree bitwise, progress, byte
      conservation, journal/metrics reconciliation, the RSP
      staleness bound, and the shard-plane / aggregation-tree twins.
      Failing scenarios are shrunk to minimal repros and written to
      --corpus. --replay re-checks existing .repro files instead of
      generating. --json writes the wall-clock-free campaign report;
      two runs of the same campaign produce byte-identical reports.
      Exits non-zero when any scenario fails.
  rogctl figure <name> [--quick] [--seed <n>]
      Run one experiment of the paper's evaluation: a figure, a table,
      an ablation, an extension or a BENCH_*.json matrix. It prints
      its tables and writes CSVs under results/ (the bench_* matrices
      write BENCH_<name>.json to the working directory). --quick runs
      the shortened smoke variant; --seed seeds the bench_* matrices
      (default 1). A wrong name lists every valid one.
";

/// Parses a full `rogctl` command line (without the program name),
/// dispatching on the optional `trace` / `trace-summary` subcommand.
///
/// # Errors
///
/// Returns a printable [`CliError`] on unknown subcommands, unknown
/// flags or malformed values.
pub fn parse_command(args: &[String]) -> Result<CliCommand, CliError> {
    match args.first().map(String::as_str) {
        Some("trace") => {
            let mut out = None;
            let mut rest = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                if a == "--out" {
                    out = Some(
                        it.next()
                            .ok_or_else(|| err("--out expects a path"))?
                            .clone(),
                    );
                } else {
                    rest.push(a.clone());
                }
            }
            let run = parse(&rest)?;
            Ok(CliCommand::Trace {
                run,
                out: out.unwrap_or_else(|| "trace.jsonl".into()),
            })
        }
        Some("trace-summary") => match args[1..] {
            [ref path] => Ok(CliCommand::TraceSummary { path: path.clone() }),
            _ => Err(err("usage: rogctl trace-summary <path>")),
        },
        Some("serve") => {
            let mut opts = ServeOptions::default();
            let mut rest = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                let mut value = || it.next().ok_or_else(|| err(format!("{a} expects a value")));
                match a.as_str() {
                    "--listen" => opts.listen = value()?.clone(),
                    "--speedup" => {
                        opts.speedup = parsed(a, value()?, "a number")?;
                        if !positive(opts.speedup) {
                            return Err(err("--speedup must be positive"));
                        }
                    }
                    "--join-timeout" => opts.join_timeout_secs = parsed(a, value()?, "seconds")?,
                    _ => rest.push(a.clone()),
                }
            }
            let run = parse_socket_run(&rest)?;
            Ok(CliCommand::Serve { run, opts })
        }
        Some("join") => {
            let mut opts = JoinOptions::default();
            let mut rest = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                let mut value = || it.next().ok_or_else(|| err(format!("{a} expects a value")));
                match a.as_str() {
                    "--connect" => opts.connect = value()?.clone(),
                    "--push-cap" => {
                        opts.push_cap = parsed(a, value()?, "a row count")?;
                        if opts.push_cap == 0 {
                            return Err(err("--push-cap must be >= 1"));
                        }
                    }
                    _ => rest.push(a.clone()),
                }
            }
            let run = parse_socket_run(&rest)?;
            Ok(CliCommand::Join { run, opts })
        }
        Some("fuzz") => {
            let mut opts = FuzzOptions::default();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                let mut value = || it.next().ok_or_else(|| err(format!("{a} expects a value")));
                match a.as_str() {
                    "--seed" => opts.seed = parsed(a, value()?, "an integer")?,
                    "--count" => opts.count = parsed(a, value()?, "a scenario count")?,
                    "--max-duration" => {
                        let secs: f64 = parsed(a, value()?, "seconds")?;
                        if !positive(secs) {
                            return Err(err("--max-duration must be positive"));
                        }
                        opts.max_duration = Some(secs);
                    }
                    "--corpus" => opts.corpus = Some(value()?.clone()),
                    "--replay" => opts.replay = Some(value()?.clone()),
                    "--json" => opts.json_out = Some(value()?.clone()),
                    "--models" => {
                        opts.widened = match value()?.as_str() {
                            "all" => true,
                            "legacy" => false,
                            other => {
                                return Err(err(format!(
                                    "--models expects all|legacy, got '{other}'"
                                )))
                            }
                        }
                    }
                    "--help" | "-h" => return Err(err(USAGE)),
                    other => return Err(err(format!("unknown fuzz flag '{other}'\n\n{USAGE}"))),
                }
            }
            if opts.count == 0 && opts.replay.is_none() {
                return Err(err("--count must be >= 1 (or pass --replay)"));
            }
            Ok(CliCommand::Fuzz(opts))
        }
        Some("figure") => {
            let mut ctx = Ctx::default();
            let mut names = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--quick" => ctx.quick = true,
                    "--seed" => {
                        let v = it
                            .next()
                            .ok_or_else(|| figure_err("--seed expects a value"))?;
                        ctx.seed = v.parse().map_err(|_| {
                            figure_err(&format!("--seed expects an integer, got '{v}'"))
                        })?;
                    }
                    flag if flag.starts_with('-') => {
                        return Err(figure_err(&format!("unknown figure flag '{flag}'")))
                    }
                    name => names.push(name),
                }
            }
            match names[..] {
                [name] => experiments::find(name)
                    .map(|&(name, _)| CliCommand::Figure { name, ctx })
                    .ok_or_else(|| figure_err(&format!("unknown experiment '{name}'"))),
                [] => Err(figure_err("figure expects an experiment name")),
                _ => Err(figure_err(&format!(
                    "figure expects one experiment name, got '{}'",
                    names.join(" ")
                ))),
            }
        }
        _ => Ok(CliCommand::Run(parse(args)?)),
    }
}

/// Parses run flags for a socket-backend (`serve` / `join`) invocation
/// and rejects sim-only knobs with the transport-compatibility check.
fn parse_socket_run(args: &[String]) -> Result<CliRun, CliError> {
    let run = parse(args)?;
    check_socket_compatible(&run.config).map_err(err)?;
    Ok(run)
}

/// Parses run-mode CLI arguments (without the program name).
///
/// # Errors
///
/// Returns a printable [`CliError`] on unknown flags and on malformed
/// or out-of-range values.
pub fn parse(args: &[String]) -> Result<CliRun, CliError> {
    let mut cfg = ExperimentConfig {
        duration_secs: 600.0,
        ..ExperimentConfig::default()
    };
    let mut csv_out = None;
    let mut json_out = None;
    let mut iid_loss: Option<f64> = None;
    let mut burst_loss: Option<f64> = None;
    let mut corrupt: Option<f64> = None;
    let mut loss_seed: Option<u64> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| err(format!("{flag} expects a value")))
        };
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.parse().map_err(err)?,
            "--env" => cfg.environment = value()?.parse().map_err(err)?,
            "--strategy" => cfg.strategy = value()?.parse().map_err(err)?,
            "--duration" => cfg.duration_secs = parsed(flag, value()?, "seconds")?,
            "--workers" => cfg.n_workers = parsed(flag, value()?, "a count")?,
            "--laptops" => cfg.n_laptop_workers = parsed(flag, value()?, "a count")?,
            "--batch-scale" => cfg.batch_scale = parsed(flag, value()?, "a number")?,
            "--eval-every" => cfg.eval_every = parsed(flag, value()?, "an iteration count")?,
            "--seed" => cfg.seed = parsed(flag, value()?, "an integer")?,
            "--scale" => cfg.model_scale = value()?.parse().map_err(err)?,
            "--mac" => {
                cfg.mac_sharing = match value()?.as_str() {
                    "airtime" => SharingMode::AirtimeFair,
                    "anomaly" => SharingMode::ThroughputFair,
                    other => return Err(err(format!("unknown mac model '{other}'"))),
                }
            }
            "--pipeline" => cfg.pipeline = true,
            "--auto-threshold" => cfg.auto_threshold = true,
            "--micro" => cfg.record_micro = true,
            "--shards" => {
                cfg.n_shards = parsed(flag, value()?, "a count")?;
                if cfg.n_shards == 0 {
                    return Err(err("--shards expects a count >= 1"));
                }
            }
            "--aggregators" => {
                cfg.n_aggregators = parsed(flag, value()?, "a count")?;
            }
            "--codec" => {
                cfg.codec = parsed(flag, value()?, "onebit|sparse|q2|q4|q8|topk|auto")?;
            }
            "--fault-plan" => {
                let path = value()?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| err(format!("cannot read fault plan '{path}': {e}")))?;
                let plan = FaultPlan::parse(&text)
                    .map_err(|e| err(format!("fault plan '{path}': {e}")))?;
                cfg.fault_plan = Some(plan);
            }
            "--fault-seed" => cfg.fault_seed = Some(parsed(flag, value()?, "an integer")?),
            "--loss" => iid_loss = Some(parsed(flag, value()?, "a rate in [0, 1]")?),
            "--loss-burst" => burst_loss = Some(parsed(flag, value()?, "a rate in [0, 1]")?),
            "--loss-seed" => loss_seed = Some(parsed(flag, value()?, "an integer")?),
            "--corrupt" => corrupt = Some(parsed(flag, value()?, "a rate in [0, 1]")?),
            "--csv" => csv_out = Some(value()?.clone()),
            "--json" => json_out = Some(value()?.clone()),
            "--help" | "-h" => return Err(err(USAGE)),
            other => return Err(err(format!("unknown flag '{other}'\n\n{USAGE}"))),
        }
    }
    cfg.check().map_err(err)?;
    if iid_loss.is_some() || burst_loss.is_some() || corrupt.is_some() {
        for (flag, rate) in [
            ("--loss", iid_loss),
            ("--loss-burst", burst_loss),
            ("--corrupt", corrupt),
        ] {
            if let Some(r) = rate {
                if !(0.0..=1.0).contains(&r) {
                    return Err(err(format!("{flag} rate {r} out of [0, 1]")));
                }
            }
        }
        let seed = loss_seed.unwrap_or(cfg.seed);
        let mut lc = match burst_loss {
            Some(mean) => LossConfig::gilbert_elliott(seed, mean),
            None => LossConfig::off(),
        };
        lc.seed = seed;
        lc.iid_loss = iid_loss.unwrap_or(0.0);
        lc.corrupt = corrupt.unwrap_or(0.0);
        cfg.loss = Some(lc);
    } else if loss_seed.is_some() {
        return Err(err(
            "--loss-seed requires --loss, --loss-burst or --corrupt",
        ));
    }
    if cfg.strategy.is_row_granular()
        || (!cfg.pipeline
            && !cfg.auto_threshold
            && cfg.n_shards <= 1
            && cfg.n_aggregators == 0
            && cfg.codec == CodecChoice::OneBit)
    {
        Ok(CliRun {
            config: cfg,
            csv_out,
            json_out,
        })
    } else {
        Err(err(
            "--pipeline/--auto-threshold/--shards/--aggregators/--codec apply to ROG \
             strategies only",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rog_trainer::{Environment, ModelScale, Strategy, WorkloadKind};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_parse_from_empty() {
        let run = parse(&[]).expect("empty args are fine");
        assert_eq!(run.config.strategy, Strategy::Bsp);
        assert_eq!(run.config.duration_secs, 600.0);
        assert!(run.csv_out.is_none());
    }

    #[test]
    fn full_invocation_parses() {
        let run = parse(&args(
            "--workload crimp --env indoor --strategy rog:4 --duration 120 \
             --workers 6 --laptops 2 --batch-scale 2 --eval-every 10 --seed 9 \
             --scale small --mac anomaly --pipeline --auto-threshold --micro \
             --csv out.csv --json out.json",
        ))
        .expect("parses");
        let c = &run.config;
        assert_eq!(c.workload, WorkloadKind::Crimp);
        assert_eq!(c.environment, Environment::Indoor);
        assert_eq!(c.strategy, Strategy::Rog { threshold: 4 });
        assert_eq!(c.duration_secs, 120.0);
        assert_eq!(c.n_workers, 6);
        assert_eq!(c.n_laptop_workers, 2);
        assert_eq!(c.batch_scale, 2.0);
        assert_eq!(c.eval_every, 10);
        assert_eq!(c.seed, 9);
        assert_eq!(c.model_scale, ModelScale::Small);
        assert_eq!(c.mac_sharing, rog_net::SharingMode::ThroughputFair);
        assert!(c.pipeline && c.auto_threshold && c.record_micro);
        assert_eq!(run.csv_out.as_deref(), Some("out.csv"));
        assert_eq!(run.json_out.as_deref(), Some("out.json"));
    }

    #[test]
    fn adaptive_strategy_knobs_validate() {
        // The hybrid is row-granular: sharding and aggregators apply.
        let run = parse(&args("--strategy roga:1:8 --shards 2 --aggregators 1")).expect("parses");
        assert_eq!(run.config.n_shards, 2);
        // ...but stacking the stall-share controller on it is rejected.
        assert!(parse(&args("--strategy roga:1:8 --auto-threshold")).is_err());
        // Model-granular adaptive strategies still reject row-only knobs.
        assert!(parse(&args("--strategy dssp:1:8 --shards 2")).is_err());
        assert!(parse(&args("--strategy abs:1:6 --pipeline")).is_err());
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse(&args("--bogus 1")).is_err());
        assert!(parse(&args("--duration")).is_err());
        assert!(parse(&args("--duration banana")).is_err());
        assert!(parse(&args("--workload quake")).is_err());
    }

    #[test]
    fn out_of_range_run_flags_are_rejected_naming_the_flag() {
        for (input, flag) in [
            ("--workers 0", "--workers 0"),
            ("--workers 2 --laptops 5", "--laptops 5"),
            ("--duration -5", "--duration -5"),
            ("--duration nan", "--duration NaN"),
            ("--batch-scale 0", "--batch-scale 0"),
            ("--eval-every 0", "--eval-every 0"),
        ] {
            let e = parse(&args(input)).expect_err(input).to_string();
            assert!(e.contains(flag) && !e.contains('\n'), "{input}: {e}");
            // The subcommands share the parser, so they share the rules.
            for sub in ["trace", "serve --strategy rog:4", "join --strategy rog:4"] {
                let e = parse_command(&args(&format!("{sub} {input}")))
                    .expect_err(input)
                    .to_string();
                assert!(e.contains(flag), "{sub} {input}: {e}");
            }
        }
        // The small CRIMP model has 27 rows, and every shard owns one.
        let shards = "--workload crimp --scale small --strategy rog:4 --shards 27";
        for boundary in ["--workers 1 --laptops 1", "--eval-every 1", shards] {
            assert!(parse(&args(boundary)).is_ok(), "{boundary}");
        }
    }

    #[test]
    fn runs_no_engine_can_execute_are_refused_with_a_reason() {
        let refused = |line: &str, reason: &str| {
            let e = parse(&args(line)).expect_err(line).to_string();
            assert!(e.contains(reason) && !e.contains('\n'), "{line}: {e}");
        };
        for (bounds, floor) in [
            ("dssp:8:1", 0),
            ("flown:9:2", 0),
            ("abs:6:1", 0),
            ("roga:0:8", 1),
        ] {
            let reason = format!("--strategy {bounds} expects {floor} <= min <= max");
            refused(&format!("--strategy {bounds}"), &reason);
        }
        refused(
            "--workload crimp --scale small --strategy rog:4 --shards 28",
            "--shards 28 exceeds the model's 27 rows",
        );
        refused(
            "--strategy roga:1:8 --auto-threshold",
            "--auto-threshold conflicts with --strategy roga:1:8",
        );
        let plan = std::env::temp_dir().join("rogctl_cli_test_out_of_range_plan.txt");
        for (script, target) in [
            ("offline 9 10 20", "worker 9 but the run has 4 workers"),
            ("loss 9 1 5 0.5", "worker 9 but the run has 4 workers"),
            ("server-restart 2 10 20", "shard 2 but the run has 1 shards"),
            ("agg-restart 0 1 5", "aggregator 0 but the run has 0"),
        ] {
            std::fs::write(&plan, script).expect("write plan");
            refused(
                &format!("--workers 4 --fault-plan {}", plan.display()),
                target,
            );
        }
        std::fs::remove_file(&plan).ok();
    }

    #[test]
    fn extensions_require_rog() {
        assert!(parse(&args("--strategy bsp --pipeline")).is_err());
        assert!(parse(&args("--strategy rog:4 --pipeline")).is_ok());
        assert!(parse(&args("--strategy bsp --shards 4")).is_err());
        assert!(
            parse(&args("--strategy bsp --shards 1")).is_ok(),
            "one shard is the plain single-server engine"
        );
    }

    #[test]
    fn shards_flag_parses_into_the_config() {
        let run = parse(&args("--strategy rog:4 --shards 4")).expect("parses");
        assert_eq!(run.config.n_shards, 4);
        assert_eq!(parse(&[]).expect("empty").config.n_shards, 1);
        assert!(parse(&args("--strategy rog:4 --shards 0")).is_err());
        assert!(parse(&args("--strategy rog:4 --shards banana")).is_err());
    }

    #[test]
    fn aggregators_flag_parses_into_the_config() {
        let run = parse(&args("--strategy rog:4 --workers 8 --aggregators 2")).expect("parses");
        assert_eq!(run.config.n_aggregators, 2);
        assert_eq!(parse(&[]).expect("empty").config.n_aggregators, 0);
        assert!(parse(&args("--strategy rog:4 --aggregators banana")).is_err());
        assert!(
            parse(&args("--strategy rog:4 --workers 2 --aggregators 3")).is_err(),
            "more aggregators than workers is rejected at parse time"
        );
        assert!(
            parse(&args("--strategy bsp --aggregators 2")).is_err(),
            "aggregators are a ROG extension"
        );
        assert!(
            parse(&args("--strategy bsp --aggregators 0")).is_ok(),
            "zero aggregators is the plain flat topology"
        );
    }

    #[test]
    fn codec_flag_parses_into_the_config() {
        for (arg, want) in [
            ("onebit", CodecChoice::OneBit),
            ("sparse", CodecChoice::Sparse),
            ("q2", CodecChoice::Quant { bits: 2 }),
            ("q4", CodecChoice::Quant { bits: 4 }),
            ("q8", CodecChoice::Quant { bits: 8 }),
            ("auto", CodecChoice::Auto),
        ] {
            let run = parse(&args(&format!("--strategy rog:4 --codec {arg}"))).expect("parses");
            assert_eq!(run.config.codec, want, "--codec {arg}");
        }
        assert_eq!(parse(&[]).expect("empty").config.codec, CodecChoice::OneBit);
        assert!(parse(&args("--strategy rog:4 --codec q3")).is_err());
        assert!(parse(&args("--strategy rog:4 --codec banana")).is_err());
        // The codec ladder is row-granular; baselines reject it...
        assert!(parse(&args("--strategy bsp --codec sparse")).is_err());
        // ...but the explicit default is harmlessly accepted anywhere.
        assert!(parse(&args("--strategy bsp --codec onebit")).is_ok());
        // The adaptive hybrid is row-granular, so it composes.
        assert!(parse(&args("--strategy roga:1:8 --codec auto")).is_ok());
    }

    #[test]
    fn socket_subcommands_reject_non_onebit_codecs() {
        let e = parse_command(&args("serve --strategy rog:4 --codec sparse")).unwrap_err();
        assert!(e.to_string().contains("--codec sparse"), "{e}");
        assert!(parse_command(&args("serve --strategy rog:4 --codec onebit")).is_ok());
    }

    #[test]
    fn fault_plan_file_parses_into_the_config() {
        let path = std::env::temp_dir().join("rogctl_cli_test_plan.txt");
        std::fs::write(&path, "offline 1 40 80\nserver-restart 0 200 210\n").expect("write plan");
        let run = parse(&args(&format!("--fault-plan {}", path.display()))).expect("parses");
        let plan = run.config.fault_plan.expect("plan loaded");
        assert_eq!(plan.windows().len(), 2);
        assert_eq!(
            plan.windows()[0].kind,
            rog_fault::FaultKind::WorkerOffline(1)
        );
        std::fs::write(&path, "offline 1 40 80\nserver-restart 200 210\n").expect("write plan");
        let e = parse(&args(&format!("--fault-plan {}", path.display()))).unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
        assert!(e.to_string().contains("server-restart <shard>"), "{e}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fault_seed_sets_the_config_field() {
        let run = parse(&args("--fault-seed 7")).expect("parses");
        assert_eq!(run.config.fault_seed, Some(7));
        assert!(run.config.fault_plan.is_none());
        assert!(parse(&args("--fault-seed banana")).is_err());
    }

    #[test]
    fn loss_flags_build_a_loss_config() {
        let run = parse(&args("--loss 0.05 --corrupt 0.01 --seed 9")).expect("parses");
        let lc = run.config.loss.expect("loss configured");
        assert_eq!(lc.seed, 9, "defaults to the run seed");
        assert_eq!(lc.iid_loss, 0.05);
        assert_eq!(lc.corrupt, 0.01);
        assert!(lc.ge.is_none());

        let run = parse(&args("--loss-burst 0.1 --loss-seed 77")).expect("parses");
        let lc = run.config.loss.expect("loss configured");
        assert_eq!(lc.seed, 77);
        assert!(lc.ge.is_some(), "burst flag installs a GE chain");

        assert!(parse(&args("--loss 1.5")).is_err());
        assert!(parse(&args("--loss banana")).is_err());
        assert!(
            parse(&args("--loss-seed 3")).is_err(),
            "seed alone is useless"
        );
        assert!(parse(&[]).expect("empty").config.loss.is_none());
    }

    #[test]
    fn trace_subcommand_parses() {
        let cmd = parse_command(&args(
            "trace --strategy rog:4 --out t.jsonl.gz --duration 30",
        ))
        .expect("parses");
        let CliCommand::Trace { run, out } = cmd else {
            panic!("expected trace command, got {cmd:?}");
        };
        assert_eq!(run.config.strategy, Strategy::Rog { threshold: 4 });
        assert_eq!(run.config.duration_secs, 30.0);
        assert_eq!(out, "t.jsonl.gz");

        let cmd = parse_command(&args("trace")).expect("parses");
        assert!(matches!(cmd, CliCommand::Trace { ref out, .. } if out == "trace.jsonl"));
        assert!(parse_command(&args("trace --out")).is_err());
    }

    #[test]
    fn trace_summary_subcommand_parses() {
        let cmd = parse_command(&args("trace-summary t.jsonl")).expect("parses");
        assert_eq!(
            cmd,
            CliCommand::TraceSummary {
                path: "t.jsonl".into()
            }
        );
        assert!(parse_command(&args("trace-summary")).is_err());
        assert!(parse_command(&args("trace-summary a b")).is_err());
    }

    #[test]
    fn plain_args_parse_as_a_run_command() {
        let cmd = parse_command(&args("--strategy bsp")).expect("parses");
        assert!(matches!(cmd, CliCommand::Run(_)));
    }

    #[test]
    fn serve_subcommand_parses() {
        let cmd = parse_command(&args(
            "serve --strategy rog:4 --workers 2 --listen 0.0.0.0:9000 \
             --speedup 30 --join-timeout 15 --duration 60",
        ))
        .expect("parses");
        let CliCommand::Serve { run, opts } = cmd else {
            panic!("expected serve command, got {cmd:?}");
        };
        assert_eq!(run.config.strategy, Strategy::Rog { threshold: 4 });
        assert_eq!(run.config.n_workers, 2);
        assert_eq!(opts.listen, "0.0.0.0:9000");
        assert_eq!(opts.speedup, 30.0);
        assert_eq!(opts.join_timeout_secs, 15.0);

        let cmd = parse_command(&args("serve --strategy rog:4")).expect("defaults");
        let CliCommand::Serve { opts, .. } = cmd else {
            panic!("expected serve command");
        };
        assert_eq!(opts, ServeOptions::default());
    }

    #[test]
    fn join_subcommand_parses() {
        let cmd = parse_command(&args(
            "join --strategy rog:4 --connect 10.0.0.1:9000 --push-cap 64",
        ))
        .expect("parses");
        let CliCommand::Join { run, opts } = cmd else {
            panic!("expected join command, got {cmd:?}");
        };
        assert_eq!(run.config.strategy, Strategy::Rog { threshold: 4 });
        assert_eq!(opts.connect, "10.0.0.1:9000");
        assert_eq!(opts.push_cap, 64);
        assert!(parse_command(&args("join --strategy rog:4 --push-cap 0")).is_err());
        assert!(parse_command(&args("join --strategy rog:4 --connect")).is_err());
    }

    #[test]
    fn socket_subcommands_reject_sim_only_knobs() {
        let loss = parse_command(&args("serve --strategy rog:4 --loss 0.1")).unwrap_err();
        assert!(loss.to_string().contains("--loss"), "{loss}");
        assert!(loss.to_string().contains("real network"), "{loss}");
        let fault = parse_command(&args("join --strategy rog:4 --fault-seed 7")).unwrap_err();
        assert!(fault.to_string().contains("--fault-seed"), "{fault}");
        let bsp = parse_command(&args("serve --strategy bsp")).unwrap_err();
        assert!(bsp.to_string().contains("BSP"), "{bsp}");
        assert!(
            parse_command(&args("serve --strategy rog:4 --speedup 0")).is_err(),
            "zero speedup would divide wall pacing by zero"
        );
        assert!(parse_command(&args("serve --strategy rog:4 --speedup -3")).is_err());
        assert!(
            parse_command(&args("serve --strategy rog:4 --shards 2")).is_ok(),
            "the socket server hosts the same sharded plane as the sim"
        );
    }

    #[test]
    fn fuzz_subcommand_parses() {
        let cmd = parse_command(&args(
            "fuzz --seed 7 --count 200 --max-duration 30 --corpus tests/corpus \
             --json BENCH_fuzz.json --models all",
        ))
        .expect("parses");
        let CliCommand::Fuzz(opts) = cmd else {
            panic!("expected fuzz command, got {cmd:?}");
        };
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.count, 200);
        assert_eq!(opts.max_duration, Some(30.0));
        assert_eq!(opts.corpus.as_deref(), Some("tests/corpus"));
        assert!(opts.replay.is_none());
        assert_eq!(opts.json_out.as_deref(), Some("BENCH_fuzz.json"));
        assert!(opts.widened);

        let cmd = parse_command(&args("fuzz")).expect("defaults");
        assert_eq!(cmd, CliCommand::Fuzz(FuzzOptions::default()));
        let cmd = parse_command(&args("fuzz --models legacy")).expect("parses");
        assert!(matches!(cmd, CliCommand::Fuzz(o) if !o.widened));
        assert!(parse_command(&args("fuzz --models everything")).is_err());

        let cmd = parse_command(&args("fuzz --replay tests/corpus --count 0")).expect("parses");
        assert!(matches!(cmd, CliCommand::Fuzz(o) if o.replay.is_some()));

        assert!(parse_command(&args("fuzz --count 0")).is_err());
        assert!(parse_command(&args("fuzz --seed banana")).is_err());
        assert!(parse_command(&args("fuzz --max-duration -3")).is_err());
        assert!(parse_command(&args("fuzz --strategy rog:4")).is_err());
    }

    #[test]
    fn figure_rejects_bad_input_listing_every_name() {
        for (input, reason) in [
            ("figure", "expects an experiment name"),
            ("figure fig2_nope", "unknown experiment 'fig2_nope'"),
            ("figure --quick", "expects an experiment name"),
            (
                "figure fig1_cruda_outdoor --quik",
                "unknown figure flag '--quik'",
            ),
            (
                "figure bench_sync --seed abc",
                "--seed expects an integer, got 'abc'",
            ),
            (
                "figure bench_sync --seed -1",
                "--seed expects an integer, got '-1'",
            ),
            ("figure bench_sync --seed", "--seed expects a value"),
            (
                "figure table1_mta table2_setup",
                "expects one experiment name",
            ),
        ] {
            let e = parse_command(&args(input)).expect_err(input).to_string();
            assert!(e.contains(reason), "{input}: {e}");
            for (name, _) in EXPERIMENTS {
                assert!(e.contains(name), "{input}: {name} missing from {e}");
            }
        }
    }

    #[test]
    fn fault_plan_errors_are_reported() {
        let missing = parse(&args("--fault-plan /nonexistent/rog_plan.txt")).unwrap_err();
        assert!(missing.to_string().contains("cannot read"), "{missing}");
        let path = std::env::temp_dir().join("rogctl_cli_test_bad_plan.txt");
        std::fs::write(&path, "frobnicate 3 4 5\n").expect("write plan");
        let bad = parse(&args(&format!("--fault-plan {}", path.display()))).unwrap_err();
        assert!(bad.to_string().contains("unknown directive"), "{bad}");
        std::fs::remove_file(&path).ok();
    }
}
