//! A complete fuzz scenario and its `.repro` text format.
//!
//! A [`Scenario`] is everything the checker needs to replay one
//! experiment: the sampled topology, sync model, loss knobs and the
//! fault plan in the `rog-fault` script format. Scenarios serialize to
//! a line-oriented `.repro` file that round-trips byte-for-byte —
//! failing scenarios are exchanged (corpus entries, shrinker output,
//! bug reports) exclusively in this form, so the format leans on the
//! same exact-float `{}` rendering the fault-script format pins.

use rog_compress::CodecChoice;
use rog_fault::FaultPlan;
use rog_net::{GeParams, LossConfig};
use rog_trainer::{Environment, ExperimentConfig, ModelScale, Strategy, WorkloadKind};

/// The loss knobs a scenario may carry, in generator-level terms: the
/// i.i.d. probabilities plus the *mean* of a bursty Gilbert–Elliott
/// chain (reconstructed via [`GeParams::bursty`]), not the raw chain
/// parameters — exactly the surface [`LossConfig`]'s constructors
/// expose.
#[derive(Debug, Clone, PartialEq)]
pub struct LossSpec {
    /// Root seed for the per-link fate streams.
    pub seed: u64,
    /// Independent per-chunk loss probability.
    pub iid_loss: f64,
    /// Per-chunk corruption probability.
    pub corrupt: f64,
    /// Per-chunk duplication probability.
    pub duplicate: f64,
    /// Per-chunk reorder probability.
    pub reorder: f64,
    /// Mean loss of the bursty Gilbert–Elliott layer, if any.
    pub ge_mean: Option<f64>,
}

impl LossSpec {
    /// The [`LossConfig`] this spec describes.
    pub fn to_config(&self) -> LossConfig {
        LossConfig {
            seed: self.seed,
            iid_loss: self.iid_loss,
            corrupt: self.corrupt,
            duplicate: self.duplicate,
            reorder: self.reorder,
            ge: self.ge_mean.map(GeParams::bursty),
        }
    }
}

/// One sampled experiment scenario, reproducible from its fields alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The generator draw that produced this scenario: root fuzz seed
    /// and scenario index. Identification only — the replay is a pure
    /// function of the remaining fields.
    pub gen_seed: u64,
    /// Scenario index under `gen_seed`.
    pub index: u64,
    /// Sync model under test.
    pub strategy: Strategy,
    /// Worker count.
    pub n_workers: usize,
    /// Parameter-server shards (ROG only; the config treats 0 as 1).
    pub n_shards: usize,
    /// Edge aggregators (ROG only; 0 = flat).
    pub n_aggregators: usize,
    /// Row codec (ROG only; one-bit elsewhere). Repro files omit the
    /// `codec` directive for the one-bit default, so legacy corpora
    /// parse unchanged and legacy-draw repro text stays byte-identical.
    pub codec: CodecChoice,
    /// Wireless environment.
    pub environment: Environment,
    /// Virtual duration in seconds.
    pub duration_secs: f64,
    /// The experiment seed (`ExperimentConfig::seed`).
    pub run_seed: u64,
    /// Channel-wide loss knobs, if any.
    pub loss: Option<LossSpec>,
    /// Fault plan in script form (`""` = no plan). Kept as text so the
    /// repro file *is* the exchange format; [`Scenario::fault_plan`]
    /// parses it on demand.
    pub script: String,
}

impl Scenario {
    /// Parses the scenario's fault-plan script. Scenarios constructed
    /// by the generator or parsed from a repro file always carry a
    /// valid script.
    pub fn fault_plan(&self) -> Result<FaultPlan, rog_fault::FaultPlanError> {
        FaultPlan::parse(&self.script)
    }

    /// Number of fault-script lines — the size measure the shrinker
    /// minimizes and the meta-test bounds.
    pub fn script_lines(&self) -> usize {
        self.script.lines().filter(|l| !l.trim().is_empty()).count()
    }

    /// The full experiment config this scenario replays. Everything
    /// not sampled is pinned to the deterministic test-scale defaults
    /// the integration suites use (Small CRUDA, robot-only fleet).
    pub fn config(&self) -> ExperimentConfig {
        let plan = self.fault_plan().expect("scenario script must be valid");
        ExperimentConfig {
            workload: WorkloadKind::Cruda,
            environment: self.environment,
            strategy: self.strategy,
            model_scale: ModelScale::Small,
            n_workers: self.n_workers,
            n_laptop_workers: 0,
            n_shards: self.n_shards,
            n_aggregators: self.n_aggregators,
            duration_secs: self.duration_secs,
            eval_every: 5,
            seed: self.run_seed,
            codec: self.codec,
            loss: self.loss.as_ref().map(LossSpec::to_config),
            fault_plan: if plan.is_empty() { None } else { Some(plan) },
            ..ExperimentConfig::default()
        }
    }

    /// Short display label ("seed 7 #12: ROG-4 w3 s2 a1").
    pub fn label(&self) -> String {
        format!(
            "seed {} #{}: {} w{} s{} a{}{} {:.0}s{}{}",
            self.gen_seed,
            self.index,
            self.strategy.name(),
            self.n_workers,
            self.n_shards,
            self.n_aggregators,
            if self.codec == CodecChoice::OneBit {
                String::new()
            } else {
                format!(" +{}", self.codec.name())
            },
            self.duration_secs,
            if self.loss.is_some() { " +loss" } else { "" },
            if self.script.is_empty() {
                String::new()
            } else {
                format!(" +{} fault lines", self.script_lines())
            },
        )
    }

    /// Renders the scenario as `.repro` text. [`Scenario::parse`]
    /// inverts this byte-for-byte.
    pub fn to_repro(&self) -> String {
        let mut out = String::new();
        out.push_str("# rog-fuzz scenario v1\n");
        out.push_str(&format!("gen-seed {}\n", self.gen_seed));
        out.push_str(&format!("index {}\n", self.index));
        // `spec()` with `:` written as a space (`strategy roga 1 8`).
        let strat = self.strategy.spec().replace(':', " ");
        out.push_str(&format!("strategy {strat}\n"));
        out.push_str(&format!("workers {}\n", self.n_workers));
        out.push_str(&format!("shards {}\n", self.n_shards));
        out.push_str(&format!("aggregators {}\n", self.n_aggregators));
        // The one-bit default is implicit: legacy repro files (which
        // predate the directive) stay parseable and re-render
        // byte-identically.
        if self.codec != CodecChoice::OneBit {
            out.push_str(&format!("codec {}\n", self.codec.name()));
        }
        out.push_str(&format!("environment {}\n", self.environment.name()));
        out.push_str(&format!("duration {}\n", self.duration_secs));
        out.push_str(&format!("run-seed {}\n", self.run_seed));
        match &self.loss {
            None => out.push_str("loss none\n"),
            Some(l) => {
                let ge = match l.ge_mean {
                    None => "none".to_owned(),
                    Some(m) => format!("{m}"),
                };
                out.push_str(&format!(
                    "loss {} {} {} {} {} {ge}\n",
                    l.seed, l.iid_loss, l.corrupt, l.duplicate, l.reorder
                ));
            }
        }
        out.push_str("script-begin\n");
        out.push_str(&self.script);
        out.push_str("script-end\n");
        out
    }

    /// Parses `.repro` text back into a scenario.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let mut gen_seed = None;
        let mut index = None;
        let mut strategy = None;
        let mut n_workers = None;
        let mut n_shards = None;
        let mut n_aggregators = None;
        let mut codec = None;
        let mut environment = None;
        let mut duration_secs = None;
        let mut run_seed = None;
        let mut loss: Option<Option<LossSpec>> = None;
        let mut script: Option<String> = None;
        let mut in_script = false;

        for (lineno, raw) in text.lines().enumerate() {
            let at = |msg: &str| format!("line {}: {msg} (`{raw}`)", lineno + 1);
            if in_script {
                if raw == "script-end" {
                    in_script = false;
                } else {
                    let s = script.as_mut().expect("script block open");
                    s.push_str(raw);
                    s.push('\n');
                }
                continue;
            }
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "script-begin" {
                if script.is_some() {
                    return Err(at("duplicate script block"));
                }
                script = Some(String::new());
                in_script = true;
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parse_u64 = |s: &str| s.parse::<u64>().map_err(|_| at("bad integer"));
            let parse_usize = |s: &str| s.parse::<usize>().map_err(|_| at("bad integer"));
            let parse_f64 = |s: &str| s.parse::<f64>().map_err(|_| at("bad number"));
            match fields.as_slice() {
                ["gen-seed", v] => gen_seed = Some(parse_u64(v)?),
                ["index", v] => index = Some(parse_u64(v)?),
                ["strategy", words @ ..] if !line.contains(':') => {
                    strategy = Some(words.join(":").parse().map_err(|e: String| at(&e))?)
                }
                ["workers", v] => n_workers = Some(parse_usize(v)?),
                ["shards", v] => n_shards = Some(parse_usize(v)?),
                ["aggregators", v] => n_aggregators = Some(parse_usize(v)?),
                ["codec", v] => {
                    codec = Some(v.parse::<CodecChoice>().map_err(|_| at("unknown codec"))?);
                }
                ["environment", v] => environment = Some(v.parse().map_err(|e: String| at(&e))?),
                ["duration", v] => duration_secs = Some(parse_f64(v)?),
                ["run-seed", v] => run_seed = Some(parse_u64(v)?),
                ["loss", "none"] => loss = Some(None),
                ["loss", seed, iid, corrupt, dup, reorder, ge] => {
                    loss = Some(Some(LossSpec {
                        seed: parse_u64(seed)?,
                        iid_loss: parse_f64(iid)?,
                        corrupt: parse_f64(corrupt)?,
                        duplicate: parse_f64(dup)?,
                        reorder: parse_f64(reorder)?,
                        ge_mean: if *ge == "none" {
                            None
                        } else {
                            Some(parse_f64(ge)?)
                        },
                    }))
                }
                _ => return Err(at("unknown directive")),
            }
        }
        if in_script {
            return Err("unterminated script block (missing `script-end`)".to_owned());
        }

        let need = |what: &str| format!("missing `{what}` line");
        let sc = Scenario {
            gen_seed: gen_seed.ok_or_else(|| need("gen-seed"))?,
            index: index.ok_or_else(|| need("index"))?,
            strategy: strategy.ok_or_else(|| need("strategy"))?,
            n_workers: n_workers.ok_or_else(|| need("workers"))?,
            n_shards: n_shards.ok_or_else(|| need("shards"))?,
            n_aggregators: n_aggregators.ok_or_else(|| need("aggregators"))?,
            // Absent in legacy corpora: default to the one-bit codec.
            codec: codec.unwrap_or(CodecChoice::OneBit),
            environment: environment.ok_or_else(|| need("environment"))?,
            duration_secs: duration_secs.ok_or_else(|| need("duration"))?,
            run_seed: run_seed.ok_or_else(|| need("run-seed"))?,
            loss: loss.ok_or_else(|| need("loss"))?,
            script: script.ok_or_else(|| need("script-begin"))?,
        };
        // Surface a broken fault script (with its own line diagnostics)
        // or a run no engine can execute at parse time, not as an engine
        // failure at replay time.
        sc.fault_plan().map_err(|e| e.to_string())?;
        sc.config().check()?;
        Ok(sc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario {
            gen_seed: 7,
            index: 3,
            strategy: Strategy::Rog { threshold: 4 },
            n_workers: 3,
            n_shards: 2,
            n_aggregators: 1,
            codec: CodecChoice::OneBit,
            environment: Environment::Stable,
            duration_secs: 27.53125,
            run_seed: 0xfeed,
            loss: Some(LossSpec {
                seed: 11,
                iid_loss: 0.05,
                corrupt: 0.01,
                duplicate: 0.0,
                reorder: 0.02,
                ge_mean: Some(0.1),
            }),
            script: "offline 1 12.5 20\nloss 0 15 18 0.30000000000000004\n".to_owned(),
        }
    }

    #[test]
    fn repro_round_trips_byte_for_byte() {
        let sc = sample();
        let text = sc.to_repro();
        let again = Scenario::parse(&text).expect("repro parses");
        assert_eq!(again, sc);
        assert_eq!(again.to_repro(), text);
    }

    #[test]
    fn lossless_and_faultless_scenarios_round_trip() {
        let sc = Scenario {
            loss: None,
            script: String::new(),
            ..sample()
        };
        let text = sc.to_repro();
        assert_eq!(Scenario::parse(&text).expect("parses"), sc);
        assert_eq!(sc.script_lines(), 0);
    }

    #[test]
    fn config_reflects_the_scenario() {
        let cfg = sample().config();
        assert_eq!(cfg.n_workers, 3);
        assert_eq!(cfg.n_shards, 2);
        assert_eq!(cfg.n_aggregators, 1);
        assert_eq!(cfg.seed, 0xfeed);
        assert!(cfg.loss_active());
        assert_eq!(cfg.fault_plan.as_ref().map(|p| p.windows().len()), Some(1));
        assert_eq!(
            cfg.fault_plan.as_ref().map(|p| p.loss_windows().len()),
            Some(1)
        );
        // All strategies parse back.
        for strat in [
            Strategy::Bsp,
            Strategy::Asp,
            Strategy::Ssp { threshold: 3 },
            Strategy::Flown {
                min_threshold: 2,
                max_threshold: 9,
            },
            Strategy::Dssp {
                min_threshold: 1,
                max_threshold: 8,
            },
            Strategy::Abs {
                min_threshold: 1,
                max_threshold: 6,
            },
            Strategy::RogAdaptive {
                min_threshold: 1,
                max_threshold: 8,
            },
        ] {
            let sc = Scenario {
                strategy: strat,
                ..sample()
            };
            assert_eq!(Scenario::parse(&sc.to_repro()).expect("parses"), sc);
        }
    }

    #[test]
    fn codec_directive_round_trips_and_defaults_to_onebit() {
        // Non-default codecs render a `codec` line and round-trip.
        for choice in [
            CodecChoice::Sparse,
            CodecChoice::Quant { bits: 4 },
            CodecChoice::Auto,
        ] {
            let sc = Scenario {
                codec: choice,
                ..sample()
            };
            let text = sc.to_repro();
            assert!(text.contains("codec "), "{text}");
            let again = Scenario::parse(&text).expect("parses");
            assert_eq!(again, sc);
            assert_eq!(again.config().codec, choice);
        }
        // The one-bit default is implicit: no directive is written, and
        // legacy repro text (which never had one) parses to one-bit.
        let text = sample().to_repro();
        assert!(!text.contains("codec "), "{text}");
        assert_eq!(
            Scenario::parse(&text).expect("parses").codec,
            CodecChoice::OneBit
        );
        assert!(
            Scenario::parse(&text.replace("aggregators 1\n", "aggregators 1\ncodec banana\n"))
                .unwrap_err()
                .contains("unknown codec")
        );
    }

    #[test]
    fn parse_rejects_runs_no_engine_can_execute() {
        let text = sample().to_repro().replace("workers 3", "workers 4");
        let refused = |from: &str, to: &str| Scenario::parse(&text.replace(from, to)).unwrap_err();
        assert!(refused("strategy rog 4", "strategy ssp 4294967297").contains("u32 integers"));
        assert!(refused("strategy rog 4", "strategy dssp 8 1").contains("dssp:8:1 expects"));
        assert!(
            refused("offline 1 12.5 20", "offline 9 10 20").contains("worker 9 but the run has 4")
        );
    }

    #[test]
    fn parse_rejects_garbage_with_location() {
        let err = Scenario::parse("gen-seed 1\nfrob 2\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = Scenario::parse(&sample().to_repro().replace("script-end\n", "")).unwrap_err();
        assert!(err.contains("unterminated"), "{err}");
        // A broken embedded fault script is caught at parse time with
        // the script parser's own line diagnostics.
        let bad = sample()
            .to_repro()
            .replace("offline 1 12.5 20", "offline 1 20 12.5");
        let err = Scenario::parse(&bad).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }
}
