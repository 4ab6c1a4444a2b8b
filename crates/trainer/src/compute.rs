//! Deterministic parallel compute plane.
//!
//! Gradient draws that are *logically concurrent in virtual time* —
//! several workers sitting in the `Compute` state, each with a pending
//! `ComputeDone` timer in the event queue — are mutually independent:
//! every draw consumes only its own worker's batch-RNG stream and reads
//! a model that is frozen until its event fires. The plane batches those
//! draws onto a scoped thread pool; the engine applies the results at
//! the exact `(time, seq)` queue positions the serial engine would have
//! used. Each individual draw's float operations still run on a single
//! thread in program order, so every metric, checkpoint and CSV stays
//! bit-identical to a fully serial run regardless of thread count.
//!
//! The one wrinkle is pipeline mode, where a pull can mutate a worker's
//! model *while* its compute timer is outstanding. [`PendingDraw`]
//! handles this: the pre-sampled batch indices stay valid (sampling
//! consumes exactly the RNG the serial engine would have), but the
//! cached gradients are dropped and recomputed against the updated
//! model when the event fires.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use rog_models::{Dataset, GradSet, Mlp};

use crate::engine::common::{EngineCtx, Ev};

/// Process-wide thread-count override (0 = automatic). Lets tests and
/// benchmark harnesses force a width without plumbing configuration.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces the number of compute threads for subsequently built planes.
///
/// `None` restores automatic selection. Thread count never affects
/// results — that is the plane's contract — only wall-clock speed, so
/// leaving an override in place cannot perturb concurrent runs.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// One gradient draw: a frozen model, the worker's data shard, and
/// batch indices pre-sampled from the worker's RNG stream.
pub struct DrawJob<'a> {
    /// Model to differentiate against.
    pub model: &'a Mlp,
    /// The worker's data shard.
    pub shard: &'a Dataset,
    /// Pre-sampled batch indices.
    pub idxs: &'a [usize],
}

/// Runs one draw, returning the gradient set and its global mean
/// absolute value.
pub fn run_job(model: &Mlp, shard: &Dataset, idxs: &[usize]) -> (GradSet, f32) {
    let mut grads = model.zero_grads();
    let mean_abs = run_job_into(model, shard, idxs, &mut grads);
    (grads, mean_abs)
}

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

/// A fixed-width pool of scoped threads for batched gradient draws.
#[derive(Debug, Clone, Copy)]
pub struct ComputePlane {
    threads: usize,
}

impl ComputePlane {
    /// Picks a width: the [`set_thread_override`] value if set, else the
    /// `ROG_COMPUTE_THREADS` environment variable, else the host's
    /// available parallelism.
    pub fn auto() -> Self {
        let over = THREAD_OVERRIDE.load(Ordering::SeqCst);
        let threads = if over > 0 {
            over
        } else if let Some(n) = std::env::var("ROG_COMPUTE_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            n
        } else {
            thread::available_parallelism().map_or(1, |n| n.get())
        };
        Self { threads }
    }

    /// The number of threads the plane will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes all jobs, returning results in job order.
    ///
    /// Single-thread planes (and single jobs) run inline; otherwise jobs
    /// are split into contiguous chunks across scoped threads and the
    /// per-chunk results concatenated back in order. Either way, result
    /// `i` is bitwise identical to running job `i` alone: jobs share no
    /// mutable state and each one's float operations happen on exactly
    /// one thread.
    pub fn execute(&self, jobs: &[DrawJob<'_>]) -> Vec<(GradSet, f32)> {
        let mut bufs: Vec<GradSet> = jobs.iter().map(|j| j.model.zero_grads()).collect();
        let means = self.execute_into(jobs, &mut bufs);
        bufs.into_iter().zip(means).collect()
    }

    /// Like [`ComputePlane::execute`], but writes each job's gradients
    /// into the caller-provided buffer of the same index (recycled
    /// across draws by the engines), returning the mean `|g|` values in
    /// job order.
    ///
    /// # Panics
    ///
    /// Panics if `bufs.len() != jobs.len()`.
    pub fn execute_into(&self, jobs: &[DrawJob<'_>], bufs: &mut [GradSet]) -> Vec<f32> {
        assert_eq!(jobs.len(), bufs.len(), "one buffer per job");
        let threads = self.threads.min(jobs.len());
        if threads <= 1 {
            return jobs
                .iter()
                .zip(bufs)
                .map(|(j, b)| run_job_into(j.model, j.shard, j.idxs, b))
                .collect();
        }
        let chunk = jobs.len().div_ceil(threads);
        let mut out = Vec::with_capacity(jobs.len());
        thread::scope(|s| {
            let handles: Vec<_> = jobs
                .chunks(chunk)
                .zip(bufs.chunks_mut(chunk))
                .map(|(jc, bc)| {
                    s.spawn(move || {
                        jc.iter()
                            .zip(bc)
                            .map(|(j, b)| run_job_into(j.model, j.shard, j.idxs, b))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                out.extend(h.join().expect("compute-plane job panicked"));
            }
        });
        out
    }
}

/// A prefetched draw for a worker with a pending `ComputeDone` event.
#[derive(Debug)]
pub struct PendingDraw {
    /// Batch indices drawn from the worker's RNG stream. Always valid
    /// once sampled: sampling consumes exactly the RNG the serial engine
    /// would have consumed at event time.
    pub idxs: Vec<usize>,
    /// Cached gradients and mean `|g|`, valid only against the model the
    /// draw ran on. `None` after a model update invalidated it.
    pub result: Option<(GradSet, f32)>,
}

/// Prefetches draws for every worker with a pending `ComputeDone` event
/// into the substrate's per-worker slots.
///
/// Batch indices are sampled serially (ascending worker id; each worker
/// has at most one pending timer and an independent RNG stream, so early
/// sampling is stream-for-stream identical to sampling at event time).
/// When the plane has more than one thread and at least two draws lack a
/// cached result, the gradient computations run batched on the plane.
pub fn prefetch_draws(ctx: &mut EngineCtx) {
    let mut due: Vec<usize> = ctx
        .queue
        .iter()
        .filter_map(|(_, ev)| match *ev {
            Ev::ComputeDone(w) => Some(w),
            Ev::NetRetry(_) => None,
        })
        .collect();
    due.sort_unstable();
    due.dedup();
    for &w in &due {
        if ctx.pending[w].is_none() {
            let idxs = ctx.sample_batch_idxs(w);
            ctx.pending[w] = Some(PendingDraw { idxs, result: None });
        }
    }
    if ctx.plane.threads() <= 1 {
        return;
    }
    let todo: Vec<usize> = due
        .into_iter()
        .filter(|&w| ctx.pending[w].as_ref().is_some_and(|p| p.result.is_none()))
        .collect();
    if todo.len() < 2 {
        return;
    }
    let mut bufs: Vec<GradSet> = todo.iter().map(|_| ctx.take_grad_buf()).collect();
    let jobs: Vec<(usize, &Mlp, &[usize])> = todo
        .iter()
        .map(|&w| {
            let idxs = ctx.pending[w]
                .as_ref()
                .expect("sampled above")
                .idxs
                .as_slice();
            (w, &ctx.models[w], idxs)
        })
        .collect();
    let means = ctx.draw_grads_batch_into(&jobs, &mut bufs);
    drop(jobs);
    for ((w, grads), mean) in todo.into_iter().zip(bufs).zip(means) {
        ctx.pending[w].as_mut().expect("sampled above").result = Some((grads, mean));
    }
}

/// Consumes a worker's prefetched draw when its `ComputeDone` fires,
/// recomputing serially when the cache is missing or was invalidated by
/// a model change since the prefetch.
pub fn take_draw(ctx: &mut EngineCtx, worker: usize) -> (GradSet, f32) {
    let idxs = match ctx.pending[worker].take() {
        Some(PendingDraw {
            result: Some(r), ..
        }) => return r,
        Some(PendingDraw { idxs, result: None }) => idxs,
        None => ctx.sample_batch_idxs(worker),
    };
    ctx.grads_for_pooled(worker, &idxs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Environment, ExperimentConfig, ModelScale, Strategy};
    use rog_models::Workload;

    fn ctx() -> EngineCtx {
        EngineCtx::new(&ExperimentConfig {
            model_scale: ModelScale::Small,
            n_workers: 3,
            duration_secs: 30.0,
            environment: Environment::Stable,
            strategy: Strategy::Bsp,
            ..ExperimentConfig::default()
        })
    }

    #[test]
    fn plane_results_match_serial_per_job() {
        let c = ctx();
        let model = c.cluster.init_model.clone();
        let shard = &c.cluster.workload.shards()[0];
        let idxs_a: Vec<usize> = (0..8).collect();
        let idxs_b: Vec<usize> = (4..12).collect();
        let jobs = [
            DrawJob {
                model: &model,
                shard,
                idxs: &idxs_a,
            },
            DrawJob {
                model: &model,
                shard,
                idxs: &idxs_b,
            },
        ];
        let serial = ComputePlane { threads: 1 }.execute(&jobs);
        let parallel = ComputePlane { threads: 4 }.execute(&jobs);
        assert_eq!(serial.len(), parallel.len());
        for ((ga, ma), (gb, mb)) in serial.iter().zip(&parallel) {
            assert_eq!(ma.to_bits(), mb.to_bits());
            for (a, b) in ga.iter().zip(gb) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        }
    }

    #[test]
    fn prefetch_then_take_matches_direct_draw() {
        // Two contexts with the same seed: one draws directly, the other
        // goes through prefetch + take. Streams must stay identical.
        let mut direct = ctx();
        let mut planed = ctx();
        planed.plane = ComputePlane { threads: 4 };
        let model = direct.cluster.init_model.clone();
        for w in 0..3 {
            direct.start_compute(w, 0.0);
            planed.start_compute(w, 0.0);
        }
        prefetch_draws(&mut planed);
        for w in 0..3 {
            let (gd, md) = direct.draw_grads(w, &model);
            let (gp, mp) = take_draw(&mut planed, w);
            assert_eq!(md.to_bits(), mp.to_bits());
            for (a, b) in gd.iter().zip(&gp) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        }
    }

    #[test]
    fn invalidated_result_recomputes_from_same_idxs() {
        let mut c = ctx();
        let model = c.cluster.init_model.clone();
        c.start_compute(0, 0.0);
        c.start_compute(1, 0.0);
        prefetch_draws(&mut c);
        let idxs_before = c.pending[0].as_ref().unwrap().idxs.clone();
        // Simulate a pipeline pull invalidating worker 0's cache.
        c.pending[0].as_mut().unwrap().result = None;
        assert_eq!(c.pending[0].as_ref().unwrap().idxs, idxs_before);
        let (g, m) = take_draw(&mut c, 0);
        let expected = run_job(&model, &c.cluster.workload.shards()[0], &idxs_before);
        assert_eq!(m.to_bits(), expected.1.to_bits());
        for (a, b) in g.iter().zip(&expected.0) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn override_controls_plane_width() {
        set_thread_override(Some(3));
        assert_eq!(ComputePlane::auto().threads(), 3);
        set_thread_override(None);
        assert!(ComputePlane::auto().threads() >= 1);
    }
}
