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

#[test]
fn live_cluster_reconciles_with_a_sim_run() {
    let cfg = live_cfg();

    // Port 0: the OS picks a free TCP port; workers learn it from the
    // handle after bind. Simplest race-free localhost arrangement is a
    // fixed high port per test binary; retry a few candidates.
    let mut outcome = None;
    let mut worker_journals = Vec::new();
    for port in [47117u16, 47217, 47317, 47417] {
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
                    rog::trainer::live::join(
                        &wcfg,
                        &JoinOptions {
                            connect,
                            ..JoinOptions::default()
                        },
                    )
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
                for w in worker_outs {
                    let w = w.expect("worker failed while server succeeded");
                    assert!(w.metrics.mean_iterations > 0.0, "worker made no progress");
                    worker_journals.push(w.journal.expect("traced worker has a journal"));
                }
                outcome = Some(out);
                break;
            }
            // Port in use (parallel test runs): try the next one.
            Err(e) if e.contains("cannot listen") => continue,
            Err(e) => panic!("serve failed: {e}"),
        }
    }
    let live = outcome.expect("no free localhost port for the smoke test");

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

    // (a) Bitwise: the journal replay and the metrics collector see
    // the same timelines, so composition must match exactly.
    let journal = live.journal.as_ref().expect("traced run has a journal");
    let summary = TraceSummary::from_jsonl(&journal.to_jsonl()).expect("journal parses");
    let composition = summary.composition();
    for (i, (replayed, reported)) in composition
        .iter()
        .zip([
            live.metrics.composition.compute,
            live.metrics.composition.communicate,
            live.metrics.composition.stall,
            live.metrics.composition.offline,
        ])
        .enumerate()
    {
        assert_eq!(
            replayed.to_bits(),
            reported.to_bits(),
            "journal/metrics composition[{i}] diverged: {replayed} vs {reported}"
        );
    }

    // One event path: a worker stamps each protocol event once, so the
    // record the server journals from the streamed copy carries the
    // worker's own timestamp and fields, bit for bit.
    for wj in &worker_journals {
        let protocol = wj.events().filter(|e| {
            matches!(
                e.kind,
                EventKind::IterBegin { .. }
                    | EventKind::IterEnd { .. }
                    | EventKind::GateEnter { .. }
                    | EventKind::GateExit { .. }
                    | EventKind::PushEnd { .. }
            )
        });
        for ev in protocol {
            assert!(
                journal
                    .events()
                    .any(|s| s.t.to_bits() == ev.t.to_bits() && s.kind == ev.kind),
                "server journal has no record matching the worker's {ev:?}"
            );
        }
    }

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
