//! CRUDA — coordinated robotic unsupervised domain adaptation.
//!
//! Paper setup (Sec. VI): a ConvMLP pretrained on Fed-CIFAR100 reaches
//! 89.13 % accuracy; DeepTest-style fog/brightness noise drops it to
//! 52.88 %, and the robot team adapts the model online on noised data to
//! recover accuracy. The data is non-IID across robots (Pachinko
//! allocation shards).
//!
//! Stand-in here: a multi-class Gaussian-mixture classification problem.
//! The *source* domain is the clean mixture; the *shifted* domain applies
//! a random linear distortion plus a fog-like blend toward a constant
//! vector plus extra noise. A model is pretrained on the source domain at
//! workload build time (real SGD), after which its accuracy on the
//! shifted test set is substantially degraded — the distributed training
//! run then adapts it on shifted, Dirichlet-sharded training data,
//! exactly mirroring the paper's accuracy-recovery curves.

use rog_tensor::rng::DetRng;
use rog_tensor::Matrix;

use crate::{ConvSpec, Dataset, Mlp, Task, Workload};

/// Model architecture for the CRUDA workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrudaArch {
    /// Fully-connected MLP on feature vectors (the calibrated default).
    Dense,
    /// ConvMLP on `side x side` single-channel images — the shape of the
    /// paper's actual recognition model. Implies `dim == side * side`
    /// and spatially structured class templates.
    ConvMlp {
        /// Image side length.
        side: usize,
        /// Convolutional stages.
        convs: Vec<ConvSpec>,
    },
}

/// Parameters of the synthetic CRUDA workload.
#[derive(Debug, Clone, PartialEq)]
pub struct CrudaSpec {
    /// Number of classes.
    pub classes: usize,
    /// Input feature dimension.
    pub dim: usize,
    /// Hidden-layer widths of the model.
    pub hidden: Vec<usize>,
    /// Training samples per class (shifted domain).
    pub train_per_class: usize,
    /// Test samples per class (shifted domain).
    pub test_per_class: usize,
    /// Distance scale between class means.
    pub class_sep: f32,
    /// Within-class standard deviation.
    pub within_std: f32,
    /// Severity of the domain shift in `[0, 1]`.
    pub shift_strength: f32,
    /// Dirichlet concentration for non-IID sharding (lower = more skew).
    pub dirichlet_alpha: f64,
    /// Pretraining SGD steps on the source domain.
    pub pretrain_steps: usize,
    /// Pretraining batch size.
    pub pretrain_batch: usize,
    /// Pretraining learning rate.
    pub pretrain_lr: f32,
    /// Learning rate suggested for the adaptation phase.
    pub adapt_lr: f32,
    /// Model architecture.
    pub arch: CrudaArch,
}

impl CrudaSpec {
    /// Default evaluation-scale spec (used by the `rogctl figure` experiments).
    pub fn paper() -> Self {
        Self {
            classes: 24,
            dim: 40,
            hidden: vec![112, 80],
            train_per_class: 250,
            test_per_class: 40,
            class_sep: 1.5,
            within_std: 1.0,
            shift_strength: 0.9,
            dirichlet_alpha: 0.1,
            pretrain_steps: 900,
            pretrain_batch: 48,
            pretrain_lr: 0.08,
            adapt_lr: 0.015,
            arch: CrudaArch::Dense,
        }
    }

    /// The evaluation-scale ConvMLP variant: 12x12 single-channel
    /// "images" with smooth class templates, recognized by a two-stage
    /// ConvMLP — the architecture family of the paper's model.
    pub fn conv_paper() -> Self {
        Self {
            classes: 16,
            dim: 144,
            hidden: vec![64],
            train_per_class: 250,
            test_per_class: 40,
            class_sep: 0.75,
            within_std: 1.1,
            shift_strength: 1.0,
            dirichlet_alpha: 0.1,
            pretrain_steps: 900,
            pretrain_batch: 48,
            pretrain_lr: 0.08,
            adapt_lr: 0.015,
            arch: CrudaArch::ConvMlp {
                side: 12,
                convs: vec![
                    ConvSpec {
                        out_channels: 8,
                        kernel: 3,
                        pool: 2,
                    },
                    ConvSpec {
                        out_channels: 12,
                        kernel: 3,
                        pool: 1,
                    },
                ],
            },
        }
    }

    /// A tiny spec for unit tests (builds in milliseconds).
    pub fn small() -> Self {
        Self {
            classes: 5,
            dim: 8,
            hidden: vec![16],
            train_per_class: 30,
            test_per_class: 10,
            class_sep: 1.2,
            within_std: 1.0,
            shift_strength: 1.0,
            dirichlet_alpha: 0.5,
            pretrain_steps: 150,
            pretrain_batch: 16,
            pretrain_lr: 0.1,
            adapt_lr: 0.05,
            arch: CrudaArch::Dense,
        }
    }

    /// A tiny ConvMLP spec for unit tests.
    pub fn conv_small() -> Self {
        Self {
            classes: 4,
            dim: 36,
            hidden: vec![12],
            train_per_class: 25,
            test_per_class: 10,
            class_sep: 1.3,
            within_std: 0.5,
            shift_strength: 0.9,
            dirichlet_alpha: 0.5,
            pretrain_steps: 150,
            pretrain_batch: 16,
            pretrain_lr: 0.1,
            adapt_lr: 0.05,
            arch: CrudaArch::ConvMlp {
                side: 6,
                convs: vec![ConvSpec {
                    out_channels: 4,
                    kernel: 3,
                    pool: 2,
                }],
            },
        }
    }

    /// Builds the workload for `n_workers`, deterministically from `rng`.
    ///
    /// This synthesizes both domains, pretrains the model on the source
    /// domain, and shards the shifted training data non-IID.
    ///
    /// # Panics
    ///
    /// Panics if `n_workers == 0`.
    pub fn build(&self, n_workers: usize, rng: &mut DetRng) -> CrudaWorkload {
        assert!(n_workers > 0, "need at least one worker");
        let mut data_rng = rng.fork(0xDA7A);
        let mut model_rng = rng.fork(0x0DE1);

        // Class means: a scaled Gaussian cloud for dense inputs, or
        // smooth (box-blurred) random templates for image inputs so the
        // classes carry spatial structure a convolution can exploit.
        let means: Vec<Vec<f32>> = match &self.arch {
            CrudaArch::Dense => (0..self.classes)
                .map(|_| {
                    (0..self.dim)
                        .map(|_| {
                            data_rng.normal() as f32 * self.class_sep / (self.dim as f32).sqrt()
                                * 2.0
                        })
                        .collect()
                })
                .collect(),
            CrudaArch::ConvMlp { side, .. } => {
                assert_eq!(
                    self.dim,
                    side * side,
                    "ConvMlp arch requires dim == side * side"
                );
                (0..self.classes)
                    .map(|_| {
                        let raw: Vec<f32> = (0..self.dim)
                            .map(|_| data_rng.normal() as f32 * self.class_sep * 1.8)
                            .collect();
                        box_blur(&box_blur(&raw, *side), *side)
                    })
                    .collect()
            }
        };

        // Domain-shift transform: x' = (1-fog)(Mx + b) + fog*c + noise.
        let shift = self.shift_strength;
        let distort = Matrix::from_fn(self.dim, self.dim, |r, c| {
            let eye = if r == c { 1.0 } else { 0.0 };
            eye + shift * 0.7 * data_rng.normal() as f32 / (self.dim as f32).sqrt()
        });
        let offset: Vec<f32> = (0..self.dim)
            .map(|_| shift * 0.8 * data_rng.normal() as f32)
            .collect();
        let fog_target: Vec<f32> = (0..self.dim)
            .map(|_| data_rng.normal() as f32 * 0.5)
            .collect();
        let fog = shift * 0.45;

        let mut draw = |rng: &mut DetRng, class: usize, shifted: bool| -> Vec<f32> {
            let mean = &means[class];
            let clean: Vec<f32> = mean
                .iter()
                .map(|m| m + self.within_std * rng.normal() as f32)
                .collect();
            if !shifted {
                return clean;
            }
            let mut x = distort.matvec(&clean);
            for ((xv, o), f) in x.iter_mut().zip(&offset).zip(&fog_target) {
                *xv = (1.0 - fog) * (*xv + o) + fog * f + shift * 0.3 * rng.normal() as f32;
            }
            x
        };

        let make_set = |rng: &mut DetRng,
                        per_class: usize,
                        shifted: bool,
                        draw: &mut dyn FnMut(&mut DetRng, usize, bool) -> Vec<f32>|
         -> Dataset {
            let mut xs = Vec::with_capacity(per_class * self.classes);
            let mut ys = Vec::with_capacity(per_class * self.classes);
            for class in 0..self.classes {
                for _ in 0..per_class {
                    xs.push(draw(rng, class, shifted));
                    ys.push(class);
                }
            }
            Dataset::labeled(xs, ys)
        };

        let source_train = make_set(
            &mut data_rng.fork(1),
            self.train_per_class,
            false,
            &mut draw,
        );
        let source_test = make_set(&mut data_rng.fork(2), self.test_per_class, false, &mut draw);
        let target_train = make_set(&mut data_rng.fork(3), self.train_per_class, true, &mut draw);
        let target_test = make_set(&mut data_rng.fork(4), self.test_per_class, true, &mut draw);

        // Pretrain on the source domain.
        let mut model = match &self.arch {
            CrudaArch::Dense => {
                let mut dims = vec![self.dim];
                dims.extend_from_slice(&self.hidden);
                dims.push(self.classes);
                Mlp::new(&dims, Task::Classification, &mut model_rng)
            }
            CrudaArch::ConvMlp { side, convs } => Mlp::conv_mlp(
                (1, *side, *side),
                convs,
                &self.hidden,
                self.classes,
                Task::Classification,
                &mut model_rng,
            ),
        };
        let mut pre_rng = rng.fork(0x9E7);
        let mut grads = model.zero_grads();
        for _ in 0..self.pretrain_steps {
            let batch = source_train.sample_batch(self.pretrain_batch, &mut pre_rng);
            model.loss_and_grad_into(&source_train, &batch, &mut grads);
            for (p, g) in model.params_mut().iter_mut().zip(&grads) {
                p.add_scaled(g, -self.pretrain_lr).expect("shapes match");
            }
        }

        let shards =
            target_train.dirichlet_shards(n_workers, self.dirichlet_alpha, &mut rng.fork(0x5A));

        CrudaWorkload {
            spec: self.clone(),
            pretrained: model,
            shards,
            source_test,
            target_test,
        }
    }
}

/// 3x3 box blur on a `side x side` image (edge-clamped).
fn box_blur(img: &[f32], side: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; img.len()];
    let s = side as isize;
    for y in 0..s {
        for x in 0..s {
            let mut acc = 0.0;
            let mut n = 0.0;
            for dy in -1..=1 {
                for dx in -1..=1 {
                    let (yy, xx) = (y + dy, x + dx);
                    if yy >= 0 && yy < s && xx >= 0 && xx < s {
                        acc += img[(yy * s + xx) as usize];
                        n += 1.0;
                    }
                }
            }
            out[(y * s + x) as usize] = acc / n;
        }
    }
    out
}

/// The built CRUDA workload (see module docs).
#[derive(Debug, Clone)]
pub struct CrudaWorkload {
    spec: CrudaSpec,
    pretrained: Mlp,
    shards: Vec<Dataset>,
    source_test: Dataset,
    target_test: Dataset,
}

impl CrudaWorkload {
    /// The spec the workload was built from.
    pub fn spec(&self) -> &CrudaSpec {
        &self.spec
    }

    /// Accuracy (%) of a model on the clean source-domain test set.
    pub fn source_accuracy(&self, model: &Mlp) -> f64 {
        model.accuracy_percent(&self.source_test)
    }

    /// The shifted-domain test set.
    pub fn target_test(&self) -> &Dataset {
        &self.target_test
    }
}

impl Workload for CrudaWorkload {
    fn name(&self) -> &'static str {
        "cruda"
    }

    fn make_model(&self, _rng: &mut DetRng) -> Mlp {
        // Every robot starts from the same pretrained parameters.
        self.pretrained.clone()
    }

    fn shards(&self) -> &[Dataset] {
        &self.shards
    }

    fn test_metric(&self, model: &Mlp) -> f64 {
        model.accuracy_percent(&self.target_test)
    }

    fn metric_name(&self) -> &'static str {
        "accuracy %"
    }

    fn metric_higher_better(&self) -> bool {
        true
    }

    fn base_batch_size(&self) -> usize {
        24
    }

    fn learning_rate(&self) -> f32 {
        self.spec.adapt_lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretraining_learns_source_domain() {
        let wl = CrudaSpec::small().build(2, &mut DetRng::new(1));
        let model = wl.make_model(&mut DetRng::new(0));
        let src = wl.source_accuracy(&model);
        assert!(src > 70.0, "source accuracy after pretraining: {src}");
    }

    #[test]
    fn domain_shift_degrades_accuracy() {
        let wl = CrudaSpec::small().build(2, &mut DetRng::new(1));
        let model = wl.make_model(&mut DetRng::new(0));
        let src = wl.source_accuracy(&model);
        let tgt = wl.test_metric(&model);
        assert!(
            tgt < src - 10.0,
            "shift should visibly degrade accuracy: source {src} vs target {tgt}"
        );
        assert!(
            tgt > 100.0 / 5.0 * 0.6,
            "should still beat random-ish: {tgt}"
        );
    }

    #[test]
    fn adaptation_on_shifted_data_recovers_accuracy() {
        let wl = CrudaSpec::small().build(1, &mut DetRng::new(2));
        let mut model = wl.make_model(&mut DetRng::new(0));
        let before = wl.test_metric(&model);
        let shard = &wl.shards()[0];
        let mut rng = DetRng::new(3);
        for _ in 0..250 {
            let batch = shard.sample_batch(16, &mut rng);
            let (_, grads, _) = model.loss_and_grad(shard, &batch);
            for (p, g) in model.params_mut().iter_mut().zip(&grads) {
                p.add_scaled(g, -wl.learning_rate()).expect("shapes match");
            }
        }
        let after = wl.test_metric(&model);
        assert!(
            after > before + 5.0,
            "adaptation should recover accuracy: {before} -> {after}"
        );
    }

    #[test]
    fn build_is_deterministic() {
        let a = CrudaSpec::small().build(3, &mut DetRng::new(7));
        let b = CrudaSpec::small().build(3, &mut DetRng::new(7));
        assert_eq!(a.shards()[1], b.shards()[1]);
        let ma = a.make_model(&mut DetRng::new(0));
        let mb = b.make_model(&mut DetRng::new(0));
        assert_eq!(ma.params()[0], mb.params()[0]);
    }

    #[test]
    fn conv_workload_builds_and_adapts() {
        let wl = CrudaSpec::conv_small().build(2, &mut DetRng::new(4));
        let mut model = wl.make_model(&mut DetRng::new(0));
        assert!(model.is_conv());
        let src = wl.source_accuracy(&model);
        let before = wl.test_metric(&model);
        assert!(src > 60.0, "conv pretraining should work: {src}");
        assert!(before < src, "shift should degrade: {src} -> {before}");
        // Adapt briefly on the full shifted pool.
        let full = CrudaSpec::conv_small().build(1, &mut DetRng::new(4));
        let shard = &full.shards()[0];
        let mut rng = DetRng::new(5);
        for _ in 0..150 {
            let batch = shard.sample_batch(16, &mut rng);
            let (_, grads, _) = model.loss_and_grad(shard, &batch);
            for (p, g) in model.params_mut().iter_mut().zip(&grads) {
                p.add_scaled(g, -full.learning_rate())
                    .expect("shapes match");
            }
        }
        let after = wl.test_metric(&model);
        assert!(
            after > before,
            "conv adaptation should improve accuracy: {before} -> {after}"
        );
    }

    #[test]
    fn conv_templates_are_spatially_smooth() {
        // The blurred class templates must have lower neighbor-difference
        // energy than white noise of the same variance.
        let wl = CrudaSpec::conv_small().build(1, &mut DetRng::new(6));
        let model = wl.make_model(&mut DetRng::new(0));
        // Indirect check: the conv model must beat chance on the source
        // domain, which requires spatial structure.
        assert!(wl.source_accuracy(&model) > 2.0 * 100.0 / 4.0);
    }

    #[test]
    fn shards_match_worker_count() {
        let wl = CrudaSpec::small().build(4, &mut DetRng::new(9));
        assert_eq!(wl.shards().len(), 4);
        assert!(wl.shards().iter().all(|s| !s.is_empty()));
    }
}
