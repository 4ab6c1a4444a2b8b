//! Using the ROG building blocks directly — the library layer below the
//! simulation harness.
//!
//! This drives the row cycle's two roles by hand, the way the simulated
//! engines and the socket path do: two workers accumulate
//! real gradients, rank rows with the importance metric, push a
//! bandwidth-limited subset (as a cut deadline would), and the server
//! role enforces the RSP gate before serving pulls. Useful as a
//! template for embedding ROG in a different transport.
//!
//! ```text
//! cargo run --example custom_strategy
//! ```

use rog::core::{
    Gate, RogWorkerConfig, Round, RowBatch, ServerRole, ShardMap, ShardedServer, WorkerRole,
};
use rog::models::{CrudaSpec, Workload};
use rog::obs::Journal;
use rog::tensor::rng::DetRng;

fn main() {
    let threshold = 4u32;
    let workload = CrudaSpec::small().build(2, &mut DetRng::new(7));
    let mut models = [
        workload.make_model(&mut DetRng::new(0)),
        workload.make_model(&mut DetRng::new(0)),
    ];
    let cfg = RogWorkerConfig::new(threshold, workload.learning_rate());
    let mut workers: Vec<WorkerRole> = models
        .iter()
        .map(|m| WorkerRole::new(m.params(), cfg, 1))
        .collect();
    let n_rows = workers[0].worker().partition().n_rows();
    let map = ShardMap::contiguous(n_rows, 1);
    let plane = ShardedServer::new(
        models[0].params(),
        2,
        threshold,
        cfg.importance,
        map.clone(),
    );
    let mut server = ServerRole::new(plane, None);
    let mut journal = Journal::disabled();
    let mut rows = RowBatch::default();
    println!("model has {n_rows} rows; RSP threshold {threshold}");

    let mut rng = DetRng::new(9);
    let mut batch = Vec::new();
    for iter in 1..=6u64 {
        for w in 0..2 {
            // Compute a real gradient on this worker's shard.
            let shard = &workload.shards()[w];
            shard.sample_batch_into(16, &mut rng, &mut batch);
            let (_, grads, _) = models[w].loss_and_grad(shard, &batch);
            workers[w].accumulate(&grads);

            // Rank rows; pretend the channel only let a prefix through.
            // Worker 1 has the worse link and only fits the floor: the
            // MTA or the RSP-mandatory prefix, whichever is longer.
            workers[w].plan(iter, &map, server.bound(w));
            let floor = workers[w].floor(0);
            let delivered = floor.admit((w == 1).then_some(0));
            workers[w].push_round(0, Round::Speculative, delivered, None);
            workers[w].commit_push(0, iter, &mut rows);
            server.ingest((w, 0), iter, &mut rows);
            println!(
                "iter {iter}: worker {w} pushed {delivered}/{} rows (stalest row now {} iters old)",
                floor.rows,
                workers[w].worker().max_row_staleness(iter)
            );

            // RSP gate, then pull at least the MTA of what the server
            // has pending. A closed gate is the protocol working: this
            // worker leads the stalest row by the threshold and must
            // stall (a transport would leave the request parked).
            match server.enter_gate((w, 0), iter, 0.0, &mut journal) {
                Gate::Granted => {
                    let take = server.grant((w, 0), 0.0, &mut journal);
                    server.pull_round((w, 0), Round::Speculative, take, None);
                    server.settle_pull((w, 0), 0.0, &mut journal, &mut rows);
                    workers[w].apply(models[w].params_mut(), &rows);
                }
                Gate::Parked => {
                    server.withdraw(w);
                    println!("  worker {w}: RSP gate closed -> stall (a straggler is {threshold} iterations behind)");
                }
            }
        }
    }

    println!(
        "\nafter 6 rounds: worker models differ by at most the staleness bound; \
         accuracy w0 = {:.1}%, w1 = {:.1}%",
        workload.test_metric(&models[0]),
        workload.test_metric(&models[1])
    );
}
