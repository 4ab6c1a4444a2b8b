//! The gradient draw.
//!
//! A worker's gradients are drawn when its `ComputeDone` timer fires,
//! on the run's own thread: one batch sample from the worker's RNG
//! stream, one backward pass on the worker's replica as it is at that
//! instant. Host parallelism lives one level up, across whole runs
//! (`rog_bench::run_outcomes`).

use rog_models::{Dataset, GradSet, Mlp};

use crate::engine::common::EngineCtx;

/// Does nothing: a run draws its gradients serially and has no thread
/// count. Kept only because the frozen `benchmark/` package calls it
/// (ROADMAP item 12 lists it for deletion there); nothing else may.
pub fn set_thread_override(_threads: Option<usize>) {}

/// Runs one draw into a recycled parameter-shaped buffer (zeroed
/// first), returning the global mean absolute gradient value.
pub fn run_job_into(model: &Mlp, shard: &Dataset, idxs: &[usize], grads: &mut GradSet) -> f32 {
    model.loss_and_grad_into(shard, idxs, grads);
    let n: usize = grads.iter().map(|g| g.len()).sum();
    let sum: f32 = grads.iter().map(|g| g.mean_abs() * g.len() as f32).sum();
    if n > 0 {
        sum / n as f32
    } else {
        0.0
    }
}

/// Draws a worker's gradients when its `ComputeDone` fires: samples the
/// batch from the worker's stream and differentiates the worker's own
/// replica into a buffer from the recycle pool (hand it back with
/// [`EngineCtx::recycle_grads`]).
pub fn take_draw(ctx: &mut EngineCtx, worker: usize) -> (GradSet, f32) {
    let mut grads = ctx.take_grad_buf();
    let shard = &ctx.cluster.workload.shards()[worker];
    let idxs = ctx.draws[worker].next_batch(shard);
    let mean_abs = run_job_into(&ctx.models[worker], shard, idxs, &mut grads);
    (grads, mean_abs)
}
