//! Codec-ladder engine tests: every `RowCodec` rung drives the row
//! engine deterministically, the explicit one-bit selection is
//! byte-identical to the default, and the `auto` selector journals its
//! per-link switches.

mod common;

use rog::prelude::*;

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        duration_secs: 60.0,
        ..common::small_cluster_cfg(Strategy::Rog { threshold: 4 })
    }
}

fn run_traced(cfg: &ExperimentConfig, codec: CodecChoice) -> RunOutcome {
    let cfg = ExperimentConfig {
        codec,
        ..cfg.clone()
    };
    cfg.options().traced(true).run()
}

/// Mean per-row `push_end` payload observed in a journal — the
/// row-codec bytes actually shipped uplink, before wire framing,
/// normalized by row count (pushes carry varying numbers of rows, so
/// per-push means would compare different amounts of work).
fn push_bytes_per_row(jsonl: &str) -> f64 {
    let (mut bytes, mut rows) = (0.0, 0.0);
    for line in jsonl.lines().filter(|l| l.contains("\"ev\":\"push_end\"")) {
        let rec = rog::obs::Record::parse(line).expect("journal line parses");
        bytes += rec.num("bytes").expect("push_end has bytes");
        rows += rec.num("rows").expect("push_end has rows");
    }
    bytes / rows
}

#[test]
fn every_codec_is_deterministic_and_onebit_stays_byte_identical() {
    // --- explicit one-bit == default: the redesign may not move a
    // single byte of the seed scenario.
    let base = cfg();
    let default_run = base.options().traced(true).run();
    let explicit = run_traced(&base, CodecChoice::OneBit);
    common::assert_identical_runs(&default_run.metrics, &explicit.metrics, "onebit vs default");
    assert_eq!(
        default_run.journal.as_ref().expect("traced").to_jsonl(),
        explicit.journal.as_ref().expect("traced").to_jsonl(),
        "explicit --codec onebit must be byte-identical to the default"
    );
    // Wall-clock is fixed, so cheaper rows buy *more* iterations, not
    // fewer total bytes — the wire saving shows up per push payload.
    let onebit_push_bytes =
        push_bytes_per_row(&default_run.journal.as_ref().expect("traced").to_jsonl());

    // --- every rung replays byte-identically and makes progress. The
    // lossy-auto variant exists to give the selector a stressed link to
    // act on.
    let mut lossy_auto = cfg();
    lossy_auto.fault_plan = Some(FaultPlan::new().link_loss(1, 15.0, 55.0, 0.6));
    let rungs: Vec<(&str, ExperimentConfig, CodecChoice)> = vec![
        ("sparse", cfg(), CodecChoice::Sparse),
        ("q2", cfg(), CodecChoice::Quant { bits: 2 }),
        ("q4", cfg(), CodecChoice::Quant { bits: 4 }),
        ("q8", cfg(), CodecChoice::Quant { bits: 8 }),
        ("topk", cfg(), CodecChoice::TopK { keep_milli: 100 }),
        ("auto", cfg(), CodecChoice::Auto),
        ("auto+loss", lossy_auto, CodecChoice::Auto),
    ];
    for (name, scenario, codec) in &rungs {
        let out = run_traced(scenario, *codec);
        let reference = &out.journal.as_ref().expect("traced").to_jsonl();
        let again = run_traced(scenario, *codec);
        assert_eq!(
            &again.journal.as_ref().expect("traced").to_jsonl(),
            reference,
            "{name}: journal differs between two runs"
        );
        assert!(
            out.metrics.mean_iterations > 0.0,
            "{name}: run made no progress"
        );
        assert!(
            out.metrics.name.contains(&format!("+{}", codec.name())),
            "{name}: run name {} misses the codec tag",
            out.metrics.name
        );

        // Content-sized rungs genuinely change the wire: the sparse
        // encoding's dense fallback caps every row at the one-bit
        // size, so a sparse run must ship strictly fewer bytes.
        if *name == "sparse" {
            let per_row = push_bytes_per_row(reference);
            assert!(
                per_row < onebit_push_bytes,
                "sparse shipped {per_row} bytes per pushed row, one-bit {onebit_push_bytes}"
            );
        }

        // The selector journals every switch; a stressed link must
        // produce at least one, and a calm cluster none.
        let selects = reference
            .lines()
            .filter(|l| l.contains("\"ev\":\"codec_select\""))
            .count();
        match *name {
            "auto+loss" => assert!(
                selects > 0,
                "auto never reacted to a 60% lossy link ({selects} codec_select events)"
            ),
            "auto" => {}
            _ => assert_eq!(selects, 0, "{name}: non-auto run journaled codec_select"),
        }
    }
}
