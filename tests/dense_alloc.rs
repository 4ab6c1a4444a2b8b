//! The batched dense passes keep their packed panels, activations and
//! `dz` in per-thread scratch, and a batch is sampled into a reused
//! index buffer, so once warm a gradient draw must not touch the heap
//! and an evaluation's allocator calls must not grow with the dataset.
//! Counted like `tests/commit_alloc.rs`.

use rog::models::{CrimpSpec, CrudaSpec, Dataset, Workload};
use rog::tensor::rng::DetRng;
use rog::tensor::Matrix;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{calls, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_warm_gradient_draw_does_not_allocate() {
    let mut rng = DetRng::new(5);
    // The CRUDA classifier and CRIMP's regression head; 70 samples
    // overflow one stack chunk of weight-gradient terms.
    let workloads: [Box<dyn Workload>; 2] = [
        Box::new(CrudaSpec::paper().build(2, &mut rng)),
        Box::new(CrimpSpec::paper().build(2, &mut rng)),
    ];
    for wl in &workloads {
        let model = wl.make_model(&mut rng);
        let shard = &wl.shards()[0];
        let mut grads = model.zero_grads();
        let mut idxs = Vec::new();
        // A draw samples its batch into the worker's index buffer, then
        // differentiates. `dz` and the logits trade buffers every draw,
        // so each must have held the largest batch once: warm with the
        // same batch sizes.
        let mut draws = |rng: &mut DetRng, grads: &mut Vec<_>| {
            for b in [70, 24, 48, 70] {
                shard.sample_batch_into(b, rng, &mut idxs);
                model.loss_and_grad_into(shard, &idxs, grads);
            }
        };
        draws(&mut rng, &mut grads);
        let (n, ()) = calls(|| draws(&mut rng, &mut grads));
        assert_eq!(
            n, 0,
            "warm sample_batch_into + loss_and_grad_into allocated {n} times"
        );
        assert!(grads[0].as_slice().iter().any(|&g| g != 0.0));
    }
}

#[test]
fn evaluation_allocations_do_not_grow_with_the_dataset() {
    let mut rng = DetRng::new(6);
    let wl = CrudaSpec::paper().build(2, &mut rng);
    let model = wl.make_model(&mut rng);
    let full = wl.target_test();
    assert_eq!(full.len(), 960);
    let rows: Vec<&[f32]> = (0..96).map(|i| full.input(i)).collect();
    let tenth = Dataset::labeled(
        Matrix::from_rows(&rows),
        (0..96).map(|i| full.label(i).expect("labeled")).collect(),
    );
    model.accuracy_percent(full);
    let (small, _) = calls(|| model.accuracy_percent(&tenth));
    let (large, _) = calls(|| model.accuracy_percent(full));
    assert_eq!((small, large), (0, 0), "warm accuracy_percent allocated");
}
