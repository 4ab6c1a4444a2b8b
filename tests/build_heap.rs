//! `Cluster::build` generates no link-trace sample: a generated link is
//! a stream of a few hundred bytes, stepped by the channel as its clock
//! reaches each sample. So the build's peak heap grows by a small fixed
//! amount per link, where a 300 s trace per link was 24 KB. And a
//! workload's datasets are one input matrix each, so the build's
//! allocator calls do not grow with its sample counts. Asserted with a
//! byte- and call-counting allocator, hence a test binary of its own.

use rog::models::{CrimpSpec, CrudaSpec};
use rog::prelude::*;
use rog::tensor::rng::DetRng;
use rog::trainer::Cluster;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{calls, peak_live_bytes, retained_bytes, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Measured: the fleet build keeps 337 B per extra link (a
/// `TraceSource` plus the per-worker entries, amortised over four
/// links) and does not raise the peak at all (the 4-worker build's
/// pretraining peak, 2.55 MB, is the larger). An eager 300 s trace
/// was 24 KB.
const BYTES_PER_EXTRA_LINK: usize = 512;

fn outdoor(workers: usize, shards: usize) -> ExperimentConfig {
    ExperimentConfig {
        workload: WorkloadKind::Cruda,
        environment: Environment::Outdoor,
        strategy: Strategy::Rog { threshold: 4 },
        model_scale: ModelScale::Paper,
        n_workers: workers,
        n_laptop_workers: 0,
        n_shards: shards,
        duration_secs: 120.0,
        seed: 7,
        ..ExperimentConfig::default()
    }
}

/// (peak, retained) heap bytes of one build.
fn build_heap(workers: usize, shards: usize) -> (usize, usize) {
    let (retained, (peak, _cluster)) =
        retained_bytes(|| peak_live_bytes(|| Cluster::build(&outdoor(workers, shards))));
    (peak, retained)
}

#[test]
fn build_heap_grows_by_generator_state_per_link() {
    let extra_links = 256 * 4 - 4;
    let team = build_heap(4, 1);
    let fleet = build_heap(256, 4);
    for (what, team, fleet) in [("peak", team.0, fleet.0), ("retained", team.1, fleet.1)] {
        let per_link = fleet.saturating_sub(team) / extra_links;
        assert!(
            per_link <= BYTES_PER_EXTRA_LINK,
            "{what} heap grew {per_link} B per extra link ({team} -> {fleet} B): \
             is a trace generated at build time?"
        );
    }
}

/// Measured: 130 calls; with a `Vec` per sample the build made 28 109.
const CLUSTER_BUILD_CALLS: u64 = 1_000;

#[test]
fn build_allocations_do_not_grow_with_the_sample_count() {
    let (cluster, _) = calls(|| Cluster::build(&outdoor(4, 1)));
    assert!(
        cluster <= CLUSTER_BUILD_CALLS,
        "a paper-scale 4-worker Cluster::build made {cluster} allocator calls"
    );
    // The cluster build warmed this thread's dense scratch for the
    // paper model, so both CRUDA builds below pretrain warm.
    let cruda = |scale: usize| {
        let mut spec = CrudaSpec::paper();
        spec.train_per_class *= scale;
        spec.test_per_class *= scale;
        calls(|| spec.build(4, &mut DetRng::new(7))).0
    };
    let crimp = |scale: usize| {
        let mut spec = CrimpSpec::paper();
        spec.samples_per_pose *= scale;
        calls(|| spec.build(4, &mut DetRng::new(7))).0
    };
    for (what, once, twice) in [("CRUDA", cruda(1), cruda(2)), ("CRIMP", crimp(1), crimp(2))] {
        assert_eq!(
            once, twice,
            "{what} build: {once} allocator calls, {twice} at twice the samples"
        );
    }
}
