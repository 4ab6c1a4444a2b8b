//! Live-cluster smoke + reconciliation: one in-process server and two
//! worker threads train the small CRUDA workload over real localhost
//! UDP/TCP sockets, and the server's journal-derived `TraceSummary`
//! composition must (a) agree bitwise with its own `RunMetrics` and
//! (b) land in the same regime as a sim run of the same config.
//!
//! The socket path is wall-clock paced and inherently non-bit-exact,
//! so cross-backend comparisons use generous tolerances; the bitwise
//! claim is only between the live server's own two views, which share
//! one timeline by construction.

use std::io::Write;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use rog::obs::{EventKind, TraceSummary};
use rog::prelude::*;

fn live_cfg() -> ExperimentConfig {
    ExperimentConfig {
        workload: WorkloadKind::Cruda,
        environment: Environment::Stable,
        strategy: Strategy::Rog { threshold: 4 },
        model_scale: ModelScale::Small,
        n_workers: 2,
        n_laptop_workers: 0,
        duration_secs: 60.0,
        eval_every: 5,
        seed: 42,
        trace: true,
        ..ExperimentConfig::default()
    }
}

/// Runs one in-process cluster — a server and `cfg.n_workers` worker
/// threads on localhost — and returns the server's outcome plus every
/// worker's journal. Tests in this binary run in parallel, so each
/// passes its own `ports` (several candidates: one may be in use).
fn run_cluster(
    cfg: &ExperimentConfig,
    ports: [u16; 4],
    push_cap: usize,
) -> (RunOutcome, Vec<Journal>) {
    for port in ports {
        let listen = format!("127.0.0.1:{port}");
        let serve_cfg = cfg.clone();
        let serve_listen = listen.clone();
        let server = thread::spawn(move || {
            rog::trainer::live::serve(
                &serve_cfg,
                // speedup must leave the per-iteration wall budget
                // (compute_secs / speedup) larger than the real debug-mode
                // gradient step (~30ms), or recorded compute inflates past
                // the sim's virtual pacing.
                &ServeOptions {
                    listen: serve_listen,
                    speedup: 40.0,
                    join_timeout_secs: 30.0,
                },
            )
        });
        let workers: Vec<_> = (0..cfg.n_workers)
            .map(|_| {
                let wcfg = cfg.clone();
                let connect = listen.clone();
                thread::spawn(move || {
                    rog::trainer::live::join(&wcfg, &JoinOptions { connect, push_cap })
                })
            })
            .collect();
        let server_out = server.join().expect("server thread panicked");
        let worker_outs: Vec<_> = workers
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        match server_out {
            Ok(out) => {
                let journals = worker_outs
                    .into_iter()
                    .map(|w| {
                        let w = w.expect("worker failed while server succeeded");
                        assert!(w.metrics.mean_iterations > 0.0, "worker made no progress");
                        w.journal.expect("traced worker has a journal")
                    })
                    .collect();
                return (out, journals);
            }
            // Port in use (parallel test runs): try the next one.
            Err(e) if e.contains("cannot listen") => continue,
            Err(e) => panic!("serve failed: {e}"),
        }
    }
    panic!("no free localhost port among {ports:?}");
}

/// The journal replay and the metrics collector see the same
/// timelines, so the two views reconcile bit for bit.
fn assert_journal_replays_to_metrics(live: &RunOutcome) {
    let journal = live.journal.as_ref().expect("traced run has a journal");
    let summary = TraceSummary::from_jsonl(&journal.to_jsonl()).expect("journal parses");
    let diffs = live.metrics.reconcile(&summary);
    assert!(diffs.is_empty(), "journal/metrics: {}", diffs.join("; "));
}

#[test]
fn live_cluster_reconciles_with_a_sim_run() {
    let cfg = live_cfg();
    let (live, worker_journals) = run_cluster(
        &cfg,
        [47117, 47217, 47317, 47417],
        JoinOptions::default().push_cap,
    );

    // Progress: both workers iterated and checkpoints were recorded.
    assert!(
        live.metrics.mean_iterations >= 3.0,
        "live cluster barely progressed: {} mean iterations",
        live.metrics.mean_iterations
    );
    assert!(
        !live.metrics.checkpoints.is_empty(),
        "no checkpoints reached the server"
    );
    assert!(live.metrics.useful_bytes > 0.0, "no useful bytes accounted");

    // (a) Bitwise, between the live server's own two views.
    assert_journal_replays_to_metrics(&live);
    let journal = live.journal.as_ref().expect("traced run has a journal");

    // One event path: a worker stamps each of its own events once, so
    // the record the server journals from the streamed copy carries the
    // worker's timestamp and fields, bit for bit. (Push, gate and pull
    // records are the server's own: it runs the cycle's gate.)
    for wj in &worker_journals {
        let stamped = wj.events().filter(|e| {
            matches!(
                e.kind,
                EventKind::IterBegin { .. }
                    | EventKind::IterEnd { .. }
                    | EventKind::State { .. }
                    | EventKind::Close { .. }
            )
        });
        for ev in stamped {
            assert!(
                journal
                    .events()
                    .any(|s| s.t.to_bits() == ev.t.to_bits() && s.kind == ev.kind),
                "server journal has no record matching the worker's {ev:?}"
            );
        }
    }

    // The server journals the cycle with the sim's record set.
    let jsonl = journal.to_jsonl();
    for kind in [
        "push_start",
        "push_end",
        "mta",
        "gate_enter",
        "gate_exit",
        "pull_start",
        "pull_end",
    ] {
        assert!(jsonl.contains(&format!("\"{kind}\"")), "no {kind} record");
    }
    assert!(
        journal
            .events()
            .any(|e| matches!(e.kind, EventKind::GateEnter { row, .. } if row >= 0)),
        "gate_enter names no blocking row"
    );

    // (b) Statistical: a sim run of the same config lands in the same
    // regime. Live pacing (socket latency, scheduler noise) shifts the
    // split, so compare loosely: compute dominates both runs and the
    // live per-iteration compute cost is within 40% of sim's.
    let sim = cfg.options().traced(true).run();
    let sim_compute = sim.metrics.composition.compute;
    let live_compute = live.metrics.composition.compute;
    assert!(
        sim_compute > 0.0 && live_compute > 0.0,
        "both runs must spend compute time (sim {sim_compute}, live {live_compute})"
    );
    let ratio = live_compute / sim_compute;
    assert!(
        (0.6..=1.4).contains(&ratio),
        "per-iteration compute diverged: live {live_compute} vs sim {sim_compute} \
         (ratio {ratio:.2})"
    );
    // Both runs are gate-bounded ROG on a clean channel: stall must
    // not dominate either.
    assert!(
        live.metrics.composition.stall <= live.metrics.composition.total(),
        "stall exceeds total"
    );
}

/// A port scanner / health check / confused client connecting during
/// the join phase must be rejected, not abort the run: the real worker
/// that arrives afterwards still completes the cluster.
#[test]
fn stray_connections_do_not_abort_the_join_phase() {
    let cfg = ExperimentConfig {
        n_workers: 1,
        duration_secs: 20.0,
        ..live_cfg()
    };
    let mut outcome = None;
    for port in [47517u16, 47617, 47717, 47817] {
        let listen = format!("127.0.0.1:{port}");
        let serve_cfg = cfg.clone();
        let serve_listen = listen.clone();
        let server = thread::spawn(move || {
            rog::trainer::live::serve(
                &serve_cfg,
                &ServeOptions {
                    listen: serve_listen,
                    speedup: 40.0,
                    join_timeout_secs: 30.0,
                },
            )
        });
        // Stray client first: an implausible length prefix makes the
        // handshake fail immediately (no 10s read timeout to sit out).
        let deadline = Instant::now() + Duration::from_secs(10);
        let stray = loop {
            match TcpStream::connect(&listen) {
                Ok(s) => break Some(s),
                Err(_) if Instant::now() < deadline => {
                    thread::sleep(Duration::from_millis(20));
                }
                Err(_) => break None,
            }
        };
        let Some(mut stray) = stray else {
            // Listener never came up on this port (in use): next port.
            let _ = server.join();
            continue;
        };
        stray.write_all(&[0xFF; 8]).expect("stray write");
        stray.flush().expect("stray flush");
        // Keep the stray socket open across the run: the rejection
        // must not depend on the client hanging up.
        let wcfg = cfg.clone();
        let connect = listen.clone();
        let worker = thread::spawn(move || {
            rog::trainer::live::join(
                &wcfg,
                &JoinOptions {
                    connect,
                    ..JoinOptions::default()
                },
            )
        });
        let server_out = server.join().expect("server thread panicked");
        let worker_out = worker.join().expect("worker thread panicked");
        match server_out {
            Ok(out) => {
                worker_out.expect("worker failed while server succeeded");
                outcome = Some(out);
                drop(stray);
                break;
            }
            Err(e) if e.contains("cannot listen") => continue,
            Err(e) => panic!("serve aborted on a stray connection: {e}"),
        }
    }
    let live = outcome.expect("no free localhost port for the stray-connection test");
    assert!(
        live.metrics.mean_iterations >= 1.0,
        "cluster made no progress after rejecting the stray: {} mean iterations",
        live.metrics.mean_iterations
    );
}

/// The wedge the worker-side fork of the cycle had: a push cap below the
/// RSP-mandatory prefix cut the rows the bound depends on, `min(V)`
/// pinned, and the cluster sat at the gate for the rest of the run. The
/// cap bounds the best-effort tail only.
#[test]
fn a_push_cap_below_the_floor_does_not_wedge_the_gate() {
    let cfg = live_cfg();
    let Strategy::Rog { threshold } = cfg.strategy else {
        unreachable!()
    };
    let (live, _) = run_cluster(&cfg, [47127, 47227, 47327, 47427], 1);
    assert!(
        live.metrics.mean_iterations > f64::from(threshold) + 1.0,
        "cluster wedged at the gate: {} mean iterations",
        live.metrics.mean_iterations
    );
}

/// A row-sharded plane over sockets: per-shard gates and pulls, and the
/// server's journal still replays to its metrics bit for bit.
#[test]
fn a_sharded_socket_cluster_trains_and_reconciles() {
    let cfg = ExperimentConfig {
        n_shards: 2,
        ..live_cfg()
    };
    let (live, _) = run_cluster(&cfg, [47137, 47237, 47337, 47437], 512);
    assert!(
        live.metrics.name.contains("+shard2"),
        "{}",
        live.metrics.name
    );
    assert!(
        live.metrics.mean_iterations >= 3.0,
        "sharded cluster barely progressed: {} mean iterations",
        live.metrics.mean_iterations
    );
    assert_journal_replays_to_metrics(&live);
    let journal = live.journal.as_ref().expect("traced");
    for shard in 0..2 {
        assert!(
            journal
                .events()
                .any(|e| e.shard == shard && matches!(e.kind, EventKind::PullEnd { .. })),
            "shard {shard} served no pull"
        );
    }
}
