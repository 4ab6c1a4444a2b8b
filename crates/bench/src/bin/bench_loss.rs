//! Loss-matrix robustness benchmark: runs the CRUDA-outdoor workload
//! through a matrix of packet-loss scenarios (loss-free baseline,
//! 5 % i.i.d. loss, 10 % and 20 % bursty Gilbert–Elliott loss) and
//! writes `BENCH_loss.json` with accuracy-vs-virtual-time curves plus
//! the channel's byte ledger (useful / wasted / lost / corrupt) and
//! stall residency per scenario. A BSP-under-loss row quantifies the
//! transport argument: reliable-only whole-model transfers block on
//! backed-off retransmits, while ROG's best-effort gradient rows
//! degrade gracefully inside the RSP staleness bound.
//!
//! The codec sub-matrix reruns the clean and 10 % bursty scenarios
//! under the sparse-delta, 4-bit and auto row codecs, so the artifact
//! carries bytes-on-wire and final-metric columns per codec. A traced
//! probe pair additionally pins the wire-level claim: the sparse
//! encoding ships strictly fewer payload bytes per pushed row than the
//! dense one-bit baseline (total bytes are throughput-confounded —
//! cheaper rows buy more iterations in the same virtual time).
//!
//! Usage: `cargo run --release -p rog-bench --bin bench_loss
//!         [--quick] [--seed <n>]`
//!
//! The output contains no wall-clock timings — every field is a
//! deterministic function of the config and seeds, so CI can diff two
//! runs of the same invocation byte-for-byte as a reproducibility
//! check.

use rog_bench::{
    arg_seed, cells_json, final_metric, header, json_f64, run_all, write_bench_json, Extra,
    JsonCell,
};
use rog_compress::CodecChoice;
use rog_net::LossConfig;
use rog_obs::Record;
use rog_trainer::{Environment, ExperimentConfig, Strategy, WorkloadKind};

fn scenarios(seed: u64) -> Vec<(&'static str, Option<LossConfig>)> {
    vec![
        ("none", None),
        ("iid-5", Some(LossConfig::iid(seed, 0.05))),
        ("ge-10", Some(LossConfig::gilbert_elliott(seed, 0.10))),
        ("ge-20", Some(LossConfig::gilbert_elliott(seed, 0.20))),
    ]
}

fn main() {
    let quick = rog_bench::quick();
    let dur = if quick { 120.0 } else { 600.0 };
    let seed = arg_seed();
    let base = ExperimentConfig {
        workload: WorkloadKind::Cruda,
        environment: Environment::Outdoor,
        strategy: Strategy::Rog { threshold: 4 },
        duration_secs: dur,
        // Frequent checkpoints: quick runs complete only ~25
        // iterations, and the accuracy-vs-time curve is the point.
        eval_every: 10,
        ..ExperimentConfig::default()
    };

    header(&format!(
        "Loss matrix: CRUDA outdoor, {dur:.0} virtual s, loss seed {seed}"
    ));
    let matrix = scenarios(seed);
    let mut configs: Vec<(String, ExperimentConfig)> = matrix
        .iter()
        .map(|(scenario, loss)| {
            (
                (*scenario).to_owned(),
                ExperimentConfig {
                    loss: loss.clone(),
                    ..base.clone()
                },
            )
        })
        .collect();
    // The transport contrast: BSP under the identical bursty loss. Its
    // reliable-only whole-model transfers block on every lost chunk.
    configs.push((
        "bsp-ge-10".to_owned(),
        ExperimentConfig {
            strategy: Strategy::Bsp,
            loss: Some(LossConfig::gilbert_elliott(seed, 0.10)),
            ..base.clone()
        },
    ));
    configs.push((
        "bsp-none".to_owned(),
        ExperimentConfig {
            strategy: Strategy::Bsp,
            ..base.clone()
        },
    ));
    // The codec sub-matrix: every non-default rung of the ladder on
    // the clean channel and under the 10 % bursty loss the transport
    // contrast already uses.
    for codec in [
        CodecChoice::Sparse,
        CodecChoice::Quant { bits: 4 },
        CodecChoice::Auto,
    ] {
        for (scenario, loss) in [
            ("none", None),
            ("ge-10", Some(LossConfig::gilbert_elliott(seed, 0.10))),
        ] {
            configs.push((
                format!("{}-{scenario}", codec.name()),
                ExperimentConfig {
                    codec,
                    loss,
                    ..base.clone()
                },
            ));
        }
    }

    let runs = run_all(
        &configs
            .iter()
            .map(|(_, c)| c.clone())
            .collect::<Vec<ExperimentConfig>>(),
    );

    println!(
        "{:<12} {:>7} {:>8} {:>10} {:>13} {:>12} {:>10}",
        "scenario", "codec", "iters", "stall(s)", "useful(B)", "lost(B)", "metric"
    );
    for ((scenario, cfg), r) in configs.iter().zip(&runs) {
        println!(
            "{scenario:<12} {:>7} {:>8.1} {:>10.1} {:>13.0} {:>12.0} {:>10.2}",
            cfg.effective_codec().name(),
            r.mean_iterations,
            r.stall_secs + 0.0,
            r.useful_bytes,
            r.lost_bytes,
            final_metric(r),
        );
    }

    // Wire-level probe: two short traced runs pin "sparse < dense" on
    // the per-row push payload, the one number the codec actually
    // controls. (Comparing the matrix's total bytes would confound the
    // codec with the extra iterations its cheaper rows buy.)
    let per_row_push_bytes = |codec: CodecChoice| -> f64 {
        let out = ExperimentConfig {
            codec,
            duration_secs: 120.0,
            ..base.clone()
        }
        .options()
        .traced(true)
        .run();
        let jsonl = out.journal.expect("traced run").to_jsonl();
        let (mut bytes, mut rows) = (0.0, 0.0);
        for line in jsonl.lines().filter(|l| l.contains("\"ev\":\"push_end\"")) {
            let rec = Record::parse(line).expect("journal line parses");
            bytes += rec.num("bytes").expect("push_end has bytes");
            rows += rec.num("rows").expect("push_end has rows");
        }
        bytes / rows
    };
    let onebit_row = per_row_push_bytes(CodecChoice::OneBit);
    let sparse_row = per_row_push_bytes(CodecChoice::Sparse);
    assert!(
        sparse_row < onebit_row,
        "sparse rows must undercut the dense one-bit payload: {sparse_row} vs {onebit_row} B/row"
    );
    println!("push payload per row: onebit {onebit_row:.0} B, sparse {sparse_row:.0} B");

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"loss_matrix_cruda_outdoor\",\n");
    json.push_str(&format!("  \"virtual_duration_secs\": {dur},\n"));
    json.push_str(&format!("  \"loss_seed\": {seed},\n"));
    json.push_str("  \"scenarios\": [\n");
    let cells: Vec<JsonCell> = configs
        .iter()
        .zip(&runs)
        .map(|((scenario, cfg), r)| {
            JsonCell::new()
                .text("scenario", scenario)
                .text("codec", cfg.effective_codec().name())
                .metrics(
                    r,
                    &[Extra::LostBytes, Extra::CorruptBytes, Extra::AccuracyVsTime],
                )
        })
        .collect();
    json.push_str(&cells_json(&cells));
    json.push_str("\n  ],\n");
    json.push_str(&format!(
        "  \"push_payload_bytes_per_row\": {{\"onebit\": {}, \"sparse\": {}}}\n",
        json_f64(onebit_row),
        json_f64(sparse_row)
    ));
    json.push_str("}\n");
    write_bench_json("loss", &json);
}
