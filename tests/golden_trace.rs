//! Golden-trace snapshot tests: the event journal of a (config, seed)
//! pair is a canonical artifact. Each scenario is regenerated twice and
//! byte-diffed against the gzipped golden journal checked into
//! `tests/golden/`.
//!
//! To refresh the goldens after an intentional engine change:
//!
//! ```text
//! ROG_UPDATE_GOLDEN=1 cargo test -p rog --test golden_trace
//! ```

mod common;

use std::path::PathBuf;

use rog::obs::{crc32, gzip_compress, gzip_decompress};
use rog::prelude::*;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.jsonl.gz"))
}

/// The two snapshot scenarios: ROG on the paper's unstable indoor
/// channel, and the BSP baseline under bursty packet loss (exercising
/// the reliable-transport retransmit/backoff events).
fn scenarios() -> Vec<(&'static str, ExperimentConfig)> {
    let mut rog_indoor = common::small_cluster_cfg(Strategy::Rog { threshold: 4 });
    rog_indoor.environment = Environment::Indoor;
    rog_indoor.duration_secs = 60.0;
    let mut bsp_loss = common::small_cluster_cfg(Strategy::Bsp);
    bsp_loss.duration_secs = 60.0;
    bsp_loss.loss = Some(LossConfig::gilbert_elliott(bsp_loss.seed, 0.10));
    vec![("rog_indoor", rog_indoor), ("bsp_loss", bsp_loss)]
}

fn traced_jsonl(cfg: &ExperimentConfig) -> String {
    let journal = cfg.options().traced(true).run().journal;
    journal.expect("traced run").to_jsonl()
}

#[test]
fn golden_traces_are_byte_stable_run_to_run() {
    let update = std::env::var("ROG_UPDATE_GOLDEN").is_ok();
    for (name, cfg) in scenarios() {
        let reference = &traced_jsonl(&cfg);
        assert!(!reference.is_empty(), "{name}: traced run emitted nothing");
        assert_eq!(
            &traced_jsonl(&cfg),
            reference,
            "{name}: journal differs between two runs"
        );
        let path = golden_path(name);
        if update {
            std::fs::write(&path, gzip_compress(reference.as_bytes())).expect("write golden");
            continue;
        }
        let golden_gz = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: cannot read golden {path:?}: {e}\n\
                 (regenerate with ROG_UPDATE_GOLDEN=1)"
            )
        });
        let golden =
            String::from_utf8(gzip_decompress(&golden_gz).expect("golden gunzips")).expect("utf8");
        assert_eq!(
            reference, &golden,
            "{name}: journal drifted from the golden trace \
             (ROG_UPDATE_GOLDEN=1 refreshes it if the change is intentional)"
        );
    }
}

/// The goldens were written by `gzip_compress`, so re-encoding what
/// they unpack to must give back the file: the encoder's parse, tables
/// and bit order are pinned byte for byte, not just its round trip.
#[test]
fn goldens_re_encode_to_their_own_bytes() {
    for (name, _) in scenarios() {
        let golden = std::fs::read(golden_path(name)).expect("read golden");
        let text = gzip_decompress(&golden).expect("golden gunzips");
        assert!(
            gzip_compress(&text) == golden,
            "{name}: gzip_compress no longer reproduces the golden's bytes"
        );
    }
}

/// The same pin on a journal long enough to leave the 32 KiB window
/// many times over: the lossy sparse run of the host-cost benchmark's
/// `lossy-traced` workload, on the small cluster. Length and CRC-32 of
/// its gzip were computed with the encoder the goldens were written by.
#[test]
fn a_megabyte_lossy_journal_gzips_to_the_pinned_bytes() {
    let mut cfg = common::small_cluster_cfg(Strategy::Rog { threshold: 4 });
    cfg.environment = Environment::Indoor;
    cfg.codec = CodecChoice::Sparse;
    cfg.loss = Some(LossConfig::gilbert_elliott(cfg.seed, 0.10));
    cfg.duration_secs = 1200.0;
    let jsonl = traced_jsonl(&cfg);
    assert!(jsonl.len() >= 1 << 20, "journal is {} bytes", jsonl.len());
    let gz = gzip_compress(jsonl.as_bytes());
    assert_eq!(gzip_decompress(&gz).expect("gunzips"), jsonl.as_bytes());
    assert_eq!(
        (jsonl.len(), gz.len(), crc32(&gz)),
        (1_120_569, 231_336, 0x3DFE_203E)
    );
}
