//! Criterion microbenches quantifying the costs the paper discusses:
//! compression throughput, importance ranking, MTA solving, row
//! scatter/gather, channel integration, and the management-overhead
//! ablation across granularities (element vs row vs layer, Sec. III-A).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rog_compress::{
    CodecChoice, CodecState, CompressedRow, OneBitCodec, SparseDeltaCodec, TopKCodec,
};
use rog_core::mta::mta_fraction;
use rog_core::{
    ImportanceMetric, ImportanceMode, RankScratch, RogWorker, RogWorkerConfig, RowBatch, RowId,
    RowPartition, ShardMap, ShardedServer,
};
use rog_models::{CrudaSpec, Mlp, Task, Workload};
use rog_net::{Channel, ChannelProfile, FlowSpec, LossConfig, Trace, TraceStream};
use rog_tensor::rng::DetRng;
use rog_tensor::Matrix;
use rog_trainer::engine::common::relative_model_divergence;
use rog_trainer::{Environment, ExperimentConfig, Strategy};

fn bench_compression(c: &mut Criterion) {
    let mut g = c.benchmark_group("compression");
    let mut rng = DetRng::new(1);
    // 16384 cols = 256 packed u64 words: makes the word-at-a-time
    // pack/unpack throughput visible above the per-call overhead. 40,
    // 80 and 112 are the CRUDA widths the workloads run, for the
    // error-feedback steps only.
    for &cols in &[40usize, 64, 80, 112, 512, 4096, 16_384] {
        let row: Vec<f32> = (0..cols).map(|_| rng.normal() as f32).collect();
        let cruda = matches!(cols, 40 | 80 | 112);
        if !cruda {
            g.bench_with_input(BenchmarkId::new("onebit_encode", cols), &row, |b, row| {
                b.iter(|| CompressedRow::encode(black_box(row)))
            });
            let code = CompressedRow::encode(&row);
            g.bench_with_input(BenchmarkId::new("onebit_decode", cols), &code, |b, code| {
                b.iter(|| black_box(code).decompress())
            });
            let mut ef = CodecState::new(&[cols], 0);
            g.bench_with_input(BenchmarkId::new("error_feedback", cols), &row, |b, row| {
                b.iter(|| ef.compress(&OneBitCodec, 0, black_box(row)))
            });
        }
        // What the commit paths run: the same step, restored values
        // into a caller buffer, no code.
        let mut ef = CodecState::new(&[cols], 0);
        let mut out = vec![0.0f32; cols];
        g.bench_with_input(BenchmarkId::new("ef_cycle", cols), &row, |b, row| {
            b.iter(|| {
                ef.restore_into(&OneBitCodec, 0, black_box(row), &mut out);
                out[0]
            })
        });
        // The same step on a row the exactness gate refuses (one 2^40
        // spike): the serial chain behind the fused passes. The
        // residual is zeroed first: carried, the spike's error spreads
        // over the row and the gate admits the steps after the first.
        let mut spiked = row.clone();
        spiked[cols / 2] *= 2f32.powi(40);
        let mut ef = CodecState::new(&[cols], 0);
        g.bench_with_input(
            BenchmarkId::new("ef_cycle_refused", cols),
            &spiked,
            |b, row| {
                b.iter(|| {
                    ef.reset();
                    ef.restore_into(&OneBitCodec, 0, black_box(row), &mut out);
                    out[0]
                })
            },
        );
        // The sparse rung of the same step (a normal row selects ~11 %
        // of its values, just under the break-even density), and the
        // plan-time sizing every candidate row pays before it.
        let mut ef = CodecState::new(&[cols], 0);
        g.bench_with_input(BenchmarkId::new("ef_cycle_sparse", cols), &row, |b, row| {
            b.iter(|| {
                ef.restore_into(&SparseDeltaCodec, 0, black_box(row), &mut out);
                out[0]
            })
        });
        if cruda {
            continue;
        }
        g.bench_with_input(BenchmarkId::new("sized_sparse", cols), &row, |b, row| {
            b.iter(|| ef.planned_payload_bytes(&SparseDeltaCodec, 0, black_box(row)))
        });
        let topk = TopKCodec::new(0.01);
        g.bench_with_input(BenchmarkId::new("topk_1pct", cols), &row, |b, row| {
            b.iter(|| topk.compress(black_box(row)))
        });
    }
    g.finish();
}

fn bench_importance(c: &mut Criterion) {
    let mut g = c.benchmark_group("importance_metric");
    let metric = ImportanceMetric::default();
    let mut rng = DetRng::new(2);
    for &rows in &[200usize, 2000, 33_307] {
        let mags: Vec<f32> = (0..rows).map(|_| rng.normal().abs() as f32).collect();
        let iters: Vec<u64> = (0..rows).map(|i| (i % 7) as u64).collect();
        g.bench_with_input(BenchmarkId::new("rank_worker_mode", rows), &rows, |b, _| {
            b.iter(|| metric.rank(ImportanceMode::Worker, black_box(&mags), black_box(&iters)))
        });
        // Allocation-free full ranking (what the engines run every push).
        let mut scratch = RankScratch::default();
        let mut out = Vec::new();
        g.bench_with_input(BenchmarkId::new("rank_into", rows), &rows, |b, _| {
            b.iter(|| {
                metric.rank_into(
                    ImportanceMode::Worker,
                    black_box(&mags),
                    black_box(&iters),
                    &mut scratch,
                    &mut out,
                );
                out.len()
            })
        });
    }
    g.finish();
}

fn bench_kernels(c: &mut Criterion) {
    // The hot-path linear algebra of the batched dense backward: the
    // forward `acts · Wᵀ` (matmul_transb), the backward `dz · W`
    // (matmul), and the batched outer-product gradient accumulate.
    let mut g = c.benchmark_group("kernels");
    let mut rng = DetRng::new(4);
    // Two synthetic shapes, then the three layers of the paper CRUDA
    // MLP at the robot batch (24) and the pretrain batch (48), each `dz`
    // as non-zero as in training: behind the two ReLUs 49 % and 28 %,
    // the softmax output's dense.
    let shapes = [
        (32usize, 96usize, 64usize, 1.0),
        (64, 256, 256, 1.0),
        (24, 40, 112, 0.49),
        (24, 112, 80, 0.28),
        (24, 80, 24, 1.0),
        (48, 40, 112, 0.49),
        (48, 112, 80, 0.28),
        (48, 80, 24, 1.0),
    ];
    for &(batch, n_in, n_out, density) in &shapes {
        let label = format!("{batch}x{n_in}x{n_out}");
        let acts = Matrix::from_fn(batch, n_in, |_, _| rng.normal() as f32);
        let w = Matrix::from_fn(n_out, n_in, |_, _| rng.normal() as f32);
        let dz = Matrix::from_fn(batch, n_out, |_, _| {
            if rng.chance(density) {
                rng.normal() as f32
            } else {
                0.0
            }
        });
        g.bench_with_input(
            BenchmarkId::new("matmul_transb", &label),
            &(&acts, &w),
            |b, (a, w)| b.iter(|| black_box(*a).matmul_transb(black_box(w))),
        );
        g.bench_with_input(
            BenchmarkId::new("matmul", &label),
            &(&dz, &w),
            |b, (dz, w)| b.iter(|| black_box(*dz).matmul(black_box(w))),
        );
        let mut gw = Matrix::zeros(n_out, n_in);
        g.bench_with_input(
            BenchmarkId::new("add_outer_batch", &label),
            &(&dz, &acts),
            |b, (dz, acts)| {
                b.iter(|| {
                    gw.add_outer_batch(black_box(dz), black_box(acts), 0.03125);
                    gw.row(0)[0]
                })
            },
        );
    }
    // The dense model end to end on the paper CRUDA workload: one
    // gradient draw into a recycled gradient set, one evaluation of
    // the 960-sample test set.
    let wl = CrudaSpec::paper().build(1, &mut rng);
    let model = wl.make_model(&mut rng);
    let shard = &wl.shards()[0];
    let mut grads = model.zero_grads();
    for batch in [24usize, 48] {
        let mut idxs = Vec::new();
        shard.sample_batch_into(batch, &mut rng, &mut idxs);
        g.bench_with_input(BenchmarkId::new("dense_step", batch), &idxs, |b, idxs| {
            b.iter(|| model.loss_and_grad_into(shard, black_box(idxs), &mut grads))
        });
        // A new batch every draw, as in training: `dense_step` repeats
        // one, and the branch predictor learns its ReLU masks.
        let mut pool = vec![Vec::new(); 256];
        for idxs in &mut pool {
            shard.sample_batch_into(batch, &mut rng, idxs);
        }
        g.bench_with_input(
            BenchmarkId::new("dense_step_fresh", batch),
            &pool,
            |b, pool| {
                let mut fresh = pool.iter().cycle();
                b.iter(|| {
                    let idxs = fresh.next().expect("a cycle never ends");
                    model.loss_and_grad_into(shard, black_box(idxs), &mut grads)
                })
            },
        );
    }
    g.bench_function("eval/paper", |b| {
        b.iter(|| black_box(&model).accuracy_percent(wl.target_test()))
    });
    // What every run's set-up pays: both domains synthesised, the
    // Dirichlet split and 900 pretraining steps at batch 48.
    g.bench_function("pretrain/cruda_paper", |b| {
        b.iter(|| CrudaSpec::paper().build(4, &mut DetRng::new(7)))
    });
    g.finish();
}

fn bench_mta(c: &mut Criterion) {
    c.bench_function("mta_fraction_threshold_8", |b| {
        b.iter(|| mta_fraction(black_box(8)))
    });
}

fn bench_row_plumbing(c: &mut Criterion) {
    let mut g = c.benchmark_group("row_plumbing");
    let params = vec![
        Matrix::zeros(96, 32),
        Matrix::zeros(1, 96),
        Matrix::zeros(64, 96),
        Matrix::zeros(1, 64),
        Matrix::zeros(20, 64),
        Matrix::zeros(1, 20),
    ];
    let partition = RowPartition::of_params(&params);
    g.bench_function("gather_all_rows", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for i in 0..partition.n_rows() {
                acc += partition.row(black_box(&params), RowId(i))[0];
            }
            acc
        })
    });
    let mut worker = RogWorker::new(&params, RogWorkerConfig::new(4, 0.01));
    let grads: Vec<Matrix> = params
        .iter()
        .map(|m| Matrix::from_fn(m.rows(), m.cols(), |r, c| ((r + c) % 5) as f32 * 0.1))
        .collect();
    worker.accumulate(&grads);
    let mut plan = Vec::new();
    g.bench_function("plan_push_full_model", |b| {
        b.iter(|| worker.plan_push_into(black_box(3), &mut plan))
    });
    g.finish();
}

fn bench_channel(c: &mut Criterion) {
    let mut g = c.benchmark_group("channel");
    let profile = ChannelProfile::outdoor();
    let capacity = profile.generate(7, 300.0);
    let links: Vec<Trace> = (0..4)
        .map(|w| profile.generate_link(8 + w, 300.0))
        .collect();
    g.bench_function("four_flows_one_second", |b| {
        b.iter(|| {
            let mut ch = Channel::new(capacity.clone(), links.clone());
            for w in 0..4 {
                ch.start_flow(0.0, FlowSpec::new(w, vec![50_000; 40]).with_deadline(0.8));
            }
            let mut events = 0;
            loop {
                let evs = ch.advance_until(1.0);
                if evs.is_empty() {
                    break;
                }
                events += evs.len();
            }
            events
        })
    });
    // Fleet scale (the `fleet256` benchmark cell): 256 workers x 4 shard
    // links, one deadline-less push per link, each far larger than its
    // 1/1024 airtime share can carry in 10 s — so this is pure
    // integrator stepping, 1024 flows at each of ~100 trace
    // breakpoints. The link traces are just long enough, to keep the
    // per-iteration channel clone small beside the stepping.
    let fleet_links: Vec<Trace> = (0..1024)
        .map(|l| profile.generate_link(100 + l, 12.0))
        .collect();
    g.bench_function("1024_flows_outdoor_10s", |b| {
        b.iter(|| {
            let mut ch = Channel::new(capacity.clone(), fleet_links.clone());
            for l in 0..1024 {
                ch.start_flow(0.0, FlowSpec::new(l, vec![20_000; 55]));
            }
            let events = ch.advance_until(10.0);
            assert!(events.is_empty());
            ch.active_flows()
        })
    });
    // The `fleet256` link set: 1 024 generated links of a 300 s period,
    // eagerly (what `Cluster::build` once did) against streams read at
    // every 0.1 s sample of a 120 s run, all links per instant as the
    // channel reads them.
    g.bench_function("1024_links_eager_300s", |b| {
        b.iter(|| {
            (0..1024)
                .map(|l| profile.generate_link(100 + l, 300.0))
                .collect::<Vec<_>>()
        })
    });
    g.bench_function("1024_links_streamed_120s", |b| {
        b.iter(|| {
            let mut links: Vec<TraceStream> = (0..1024)
                .map(|l| profile.link_stream(100 + l, 300.0))
                .collect();
            let mut sum = 0.0;
            for k in 0..1200 {
                let t = k as f64 * 0.1 + 0.05;
                sum += links.iter_mut().map(|s| s.value_at(t)).sum::<f64>();
            }
            sum
        })
    });
    g.finish();
}

fn bench_divergence(c: &mut Criterion) {
    // End-of-run model divergence at fleet scale: 256 replicas of the
    // paper-scale CRUDA MLP (15 576 parameters), 32 640 model pairs.
    // Independent random models are the search's worst case (no pair
    // can be ruled out); a fleet's replicas share the pretrained model
    // and differ in the rows each last pulled, so most pairs are.
    let mut g = c.benchmark_group("divergence");
    let root = DetRng::new(12);
    let dims = [40, 112, 80, 24];
    let models: Vec<Mlp> = (0..256)
        .map(|w| Mlp::new(&dims, Task::Classification, &mut root.fork(w)))
        .collect();
    g.bench_function("256_paper_models", |b| {
        b.iter(|| relative_model_divergence(black_box(&models)))
    });
    // A replica holds each row either as pretrained or as the server
    // last moved it, having pulled a replica-dependent share of rows.
    let base = Mlp::new(&dims, Task::Classification, &mut root.fork(256));
    let mut moved = base.clone();
    let mut rng = root.fork(257);
    for v in moved.params_mut().iter_mut().flat_map(|p| p.as_mut_slice()) {
        *v += rng.normal_with(0.0, 1e-3) as f32;
    }
    let fleet: Vec<Mlp> = (0..256)
        .map(|w| {
            let mut rng = root.fork(1000 + w);
            let pulled = 0.5 * rng.uniform().powi(3);
            let mut m = base.clone();
            for (p, s) in m.params_mut().iter_mut().zip(moved.params()) {
                for r in 0..p.rows() {
                    if rng.chance(pulled) {
                        p.row_mut(r).copy_from_slice(s.row(r));
                    }
                }
            }
            m
        })
        .collect();
    g.bench_function("256_fleet_replicas", |b| {
        b.iter(|| relative_model_divergence(black_box(&fleet)))
    });
    g.finish();
}

fn bench_journal_export(c: &mut Criterion) {
    // What `rogctl trace --out x.jsonl.gz` does after the run: the
    // journal of 600 virtual seconds of the default team on the sparse
    // rung under 10 % burst loss, to JSONL text, to gzip.
    let cfg = ExperimentConfig {
        environment: Environment::Indoor,
        strategy: Strategy::Rog { threshold: 4 },
        codec: CodecChoice::Sparse,
        loss: Some(LossConfig::gilbert_elliott(7, 0.10)),
        duration_secs: 600.0,
        ..ExperimentConfig::default()
    };
    let journal = cfg.options().traced(true).run().journal.expect("traced");
    let jsonl = journal.to_jsonl();
    let mut g = c.benchmark_group("journal_export");
    g.bench_function("to_jsonl", |b| b.iter(|| black_box(&journal).to_jsonl()));
    g.bench_function("gzip", |b| {
        b.iter(|| rog_obs::gzip_compress(black_box(jsonl.as_bytes())))
    });
    g.finish();
}

fn bench_server_plane(c: &mut Criterion) {
    // The parameter plane at fleet scale (the `fleet256` cell): the
    // paper-scale CRUDA MLP, 256 workers x 4 shards, one worker's leg
    // to shard 0 — every row of the shard averaged into each distinct
    // pending copy, then ranked for and drained by one destination
    // worker. The plane is first brought to the shape `fleet256`
    // measures (≈ 9 distinct copies per row): nine drain epochs, each
    // draining every ninth worker and then taking one push.
    let mut g = c.benchmark_group("server_plane");
    let model = Mlp::new(
        &[40, 112, 80, 24],
        Task::Classification,
        &mut DetRng::new(12),
    );
    let partition = RowPartition::of_params(model.params());
    let map = ShardMap::contiguous(partition.n_rows(), 4);
    let ids: Vec<RowId> = map.rows_of(0).iter().map(|&r| RowId(r)).collect();
    let mut leg: RowBatch = ids
        .iter()
        .map(|&id| {
            (
                id,
                vec![0.01 + 0.001 * (id.0 % 7) as f32; partition.width(id)],
            )
        })
        .collect();
    let imp = ImportanceMetric::default();
    let mut plane = ShardedServer::new(model.params(), 256, 4, imp, map);
    let mut iter = 0u64;
    for epoch in 0..9 {
        for w in (epoch..256).step_by(9) {
            plane.commit_pull(0, w, &ids);
        }
        iter += 1;
        plane.on_push(0, epoch, iter, &mut leg);
    }
    g.bench_function("on_push_leg", |b| {
        b.iter(|| {
            iter += 1;
            plane.on_push(0, (iter % 256) as usize, iter, black_box(&mut leg));
        })
    });
    let mut plan = Vec::new();
    g.bench_function("plan_pull", |b| {
        b.iter(|| {
            iter += 1;
            plane.plan_pull_into(0, (iter % 256) as usize, &mut plan);
            plan.len()
        })
    });
    g.bench_function("commit_pull_leg", |b| {
        b.iter(|| {
            iter += 1;
            plane.commit_pull(0, (iter % 256) as usize, black_box(&ids))
        })
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    // Fleet-scale event churn: a 256-worker run pushes and pops
    // millions of events, so heap growth and sift costs matter. The
    // capacity-hinted constructor pre-sizes the heap; the bench drives
    // a full push-then-drain cycle at N = 10^6 either way.
    use rog_sim::EventQueue;
    let mut g = c.benchmark_group("event_queue");
    const N: usize = 1_000_000;
    let times: Vec<f64> = {
        let mut rng = DetRng::new(9);
        (0..N).map(|_| rng.uniform() * 1e4).collect()
    };
    g.bench_function("push_pop_1M_with_capacity", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(N);
            for (i, &t) in times.iter().enumerate() {
                q.push(black_box(t), i as u64);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            sum
        })
    });
    g.bench_function("push_pop_1M_unhinted", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(black_box(t), i as u64);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            sum
        })
    });
    g.finish();
}

fn bench_wire_framing(c: &mut Criterion) {
    // The socket transport's per-datagram cost: seq+CRC32 framing on
    // encode, marker/CRC/length validation on decode, and the seq-window
    // dedup every accepted datagram runs. Row payloads are small (a few
    // hundred bytes), so per-frame overhead is the number that matters.
    use rog_net::wire::{decode_frame, encode_frame, FrameClass, FrameHeader};
    use rog_net::SeqWindow;
    let mut g = c.benchmark_group("wire_framing");
    let mut rng = DetRng::new(11);
    for &len in &[256usize, 4096, 60_000] {
        let payload: Vec<u8> = (0..len).map(|_| (rng.uniform() * 256.0) as u8).collect();
        let header = FrameHeader {
            seq: 42,
            class: FrameClass::BestEffort,
            attempt: 0,
            iter: 7,
        };
        g.bench_with_input(BenchmarkId::new("encode", len), &payload, |b, p| {
            b.iter(|| encode_frame(black_box(&header), black_box(p)))
        });
        let frame = encode_frame(&header, &payload);
        g.bench_with_input(BenchmarkId::new("decode", len), &frame, |b, f| {
            b.iter(|| decode_frame(black_box(f)).expect("valid frame"))
        });
    }
    // Dedup cost in the two regimes the receiver actually sees: the
    // in-order fast path (floor advance) and a lossy/reordered stream
    // that keeps a populated out-of-order set.
    g.bench_function("seq_window_in_order_4096", |b| {
        b.iter(|| {
            let mut w = SeqWindow::new();
            let mut accepted = 0u32;
            for seq in 0..4096u64 {
                accepted += w.accept(black_box(seq)) as u32;
            }
            accepted
        })
    });
    g.bench_function("seq_window_lossy_reordered_4096", |b| {
        b.iter(|| {
            let mut w = SeqWindow::new();
            let mut accepted = 0u32;
            // Every 8th datagram arrives late by 16; every 16th is lost.
            for seq in 0..4096u64 {
                if seq % 16 == 0 {
                    continue;
                }
                let s = if seq % 8 == 0 { seq + 16 } else { seq };
                accepted += w.accept(black_box(s)) as u32;
            }
            accepted
        })
    });
    g.finish();
}

fn bench_granularity_ablation(c: &mut Criterion) {
    // Sec. III-A: management overhead at element / row / layer
    // granularity. The benchmark measures ranking cost at each
    // granularity for the same 16.95M-element model; the wire-overhead
    // ratios are printed by `rogctl figure ablation_granularity`.
    let mut g = c.benchmark_group("granularity_ablation");
    let metric = ImportanceMetric::default();
    let mut rng = DetRng::new(3);
    // Model of ~33k rows; element granularity would be 16.95M units
    // (benchmarked at 1/100 scale to keep runtime sane), layer
    // granularity is 226 units.
    for (name, units) in [
        ("layer_226", 226usize),
        ("row_33307", 33_307),
        ("element_169k_sample", 169_500),
    ] {
        let mags: Vec<f32> = (0..units).map(|_| rng.normal().abs() as f32).collect();
        let iters: Vec<u64> = (0..units).map(|i| (i % 5) as u64).collect();
        g.bench_function(name, |b| {
            b.iter(|| metric.rank(ImportanceMode::Worker, black_box(&mags), black_box(&iters)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_compression,
    bench_importance,
    bench_kernels,
    bench_mta,
    bench_row_plumbing,
    bench_channel,
    bench_divergence,
    bench_journal_export,
    bench_server_plane,
    bench_event_queue,
    bench_wire_framing,
    bench_granularity_ablation
);
criterion_main!(benches);
