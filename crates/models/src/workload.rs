//! Common interface the training harness drives workloads through.

use rog_tensor::rng::DetRng;

use crate::{Dataset, Mlp};

/// A distributed-training workload: a model template, per-worker data
/// shards, and an evaluation metric.
///
/// Implemented by [`crate::CrudaWorkload`] (metric: accuracy %, higher is
/// better) and [`crate::CrimpWorkload`] (metric: trajectory error, lower
/// is better).
pub trait Workload: std::fmt::Debug {
    /// Short name ("cruda", "crimp").
    fn name(&self) -> &'static str;

    /// Creates the initial shared model every worker starts from (for
    /// CRUDA this is the *pretrained* model the robots adapt).
    fn make_model(&self, rng: &mut DetRng) -> Mlp;

    /// Per-worker training shards; `shards().len()` is the worker count
    /// the workload was built for.
    fn shards(&self) -> &[Dataset];

    /// Evaluates the metric on the test set.
    fn test_metric(&self, model: &Mlp) -> f64;

    /// Display name of the metric ("accuracy %" / "trajectory error").
    fn metric_name(&self) -> &'static str;

    /// Whether larger metric values are better.
    fn metric_higher_better(&self) -> bool;

    /// Reference batch size on a robot (Table II: 24 for CRUDA).
    fn base_batch_size(&self) -> usize;

    /// Suggested learning rate for the default setup.
    fn learning_rate(&self) -> f32;
}
