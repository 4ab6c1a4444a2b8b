//! A Fig.-4-style walkthrough of RSP + ATP, printed step by step.
//!
//! Three workers share a tiny 8-row model. Worker 2's "link" only
//! admits a couple of rows per round (its speculative transmissions get
//! cut), so it pushes partial, importance-ranked row sets while the
//! others push everything — and the RSP gate keeps the divergence
//! bounded. The printout shows, per round: which rows each worker
//! pushed, each worker's per-row staleness, and the server's global
//! minimum version.
//!
//! ```text
//! cargo run --example workflow_trace
//! ```

use rog::core::{
    Gate, RogWorkerConfig, Round, RowBatch, ServerRole, ShardMap, ShardedServer, WorkerRole,
};
use rog::obs::Journal;
use rog::tensor::rng::DetRng;
use rog::tensor::Matrix;

fn main() {
    let threshold = 3u32;
    let params = vec![Matrix::zeros(6, 5), Matrix::zeros(2, 4)];
    let n_workers = 3;
    let cfg = RogWorkerConfig::new(threshold, 0.1);
    let mut workers: Vec<WorkerRole> = (0..n_workers)
        .map(|_| WorkerRole::new(&params, cfg, 1))
        .collect();
    let mut models: Vec<Vec<Matrix>> = (0..n_workers).map(|_| params.clone()).collect();
    let n_rows = workers[0].worker().partition().n_rows();
    let map = ShardMap::contiguous(n_rows, 1);
    let plane = ShardedServer::new(&params, n_workers, threshold, cfg.importance, map.clone());
    let mut server = ServerRole::new(plane, None);
    // This walkthrough has no clock: every record would carry t = 0.
    let mut journal = Journal::disabled();
    let mut rows = RowBatch::default();
    let mta = server.bound(0);
    println!(
        "model: {n_rows} rows | RSP threshold {threshold} | MTA {:.0}% = {} rows\n",
        100.0 * mta.fraction(),
        mta.rows(n_rows)
    );

    let mut rng = DetRng::new(42);
    for round in 1..=5u64 {
        println!("— iteration {round} —");
        for w in 0..n_workers {
            // "Compute": random gradients, bigger on rows 0-2 so the
            // importance metric has something to chew on.
            let grads: Vec<Matrix> = params
                .iter()
                .enumerate()
                .map(|(mi, m)| {
                    Matrix::from_fn(m.rows(), m.cols(), |r, _| {
                        let boost = if mi == 0 && r < 3 { 3.0 } else { 1.0 };
                        rng.normal() as f32 * boost
                    })
                })
                .collect();
            workers[w].accumulate(&grads);

            // "Transmit": worker 2's link admits only the floor
            // (MTA or the RSP-mandatory prefix, whichever is longer).
            workers[w].plan(round, &map, server.bound(w));
            let admitted = workers[w].floor(0).admit((w == 2).then_some(0));
            workers[w].push_round(0, Round::Speculative, admitted, None);
            workers[w].commit_push(0, round, &mut rows);
            server.ingest((w, 0), round, &mut rows);

            let landed = workers[w].push_leg(0).landed();
            let pushed: Vec<String> = landed.iter().map(|r| r.0.to_string()).collect();
            println!(
                "  worker {w}: pushed {:>2}/{} rows [{}], stalest own row {} iters behind",
                admitted,
                n_rows,
                pushed.join(","),
                workers[w].worker().max_row_staleness(round),
            );

            // RSP gate, then pull.
            match server.enter_gate((w, 0), round, 0.0, &mut journal) {
                Gate::Granted => {
                    let take = server.grant((w, 0), 0.0, &mut journal);
                    server.pull_round((w, 0), Round::Speculative, take, None);
                    server.settle_pull((w, 0), 0.0, &mut journal, &mut rows);
                    workers[w].apply(&mut models[w], &rows);
                    println!("           gate open → pulled {take} rows");
                }
                Gate::Parked => {
                    // A real driver leaves the request parked until a
                    // straggler's push releases it; this one moves on.
                    server.withdraw(w);
                    println!(
                        "           gate CLOSED (a straggler is {threshold} iterations behind) → stall"
                    );
                }
            }
        }
        println!(
            "  server: min(V) = {} (stalest row anywhere in the cluster)\n",
            server.server().versions(0).global_min()
        );
    }
    println!(
        "worker 2 never pushed everything, yet no row anywhere fell more than \
         {threshold} iterations behind — that is RSP's guarantee, and the \
         importance metric spent worker 2's few rows on the largest gradients."
    );
}
