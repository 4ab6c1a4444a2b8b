//! CRIMP — coordinated robotic implicit mapping and positioning.
//!
//! Paper setup (Sec. VI): a team of robots cooperatively trains
//! nice-slam, an implicit neural representation of a 3-D scene, from a
//! continuous ScanNet image sequence split among the robots; the metric
//! is *trajectory error* — the distance between ground-truth robot poses
//! and the poses estimated against the learned map.
//!
//! Stand-in here: a synthetic 2-D scene — an occupancy/appearance field
//! built from Gaussian blobs over a `SCENE_METERS`-sized area. Robots
//! traverse a smooth trajectory; each pose contributes observation
//! samples (world point → field value) to the training set, split
//! *contiguously* among robots like the paper splits the image sequence.
//! The trained [`Mlp`] is an implicit map: localization re-estimates each
//! test pose by sliding a window of observed field values over the
//! model's predictions and picking the offset with the lowest error —
//! the error of that estimate, averaged over poses, is the trajectory
//! error. An untrained map localizes no better than chance within the
//! search window; a well-trained map pins poses down to the lattice
//! resolution, reproducing the paper's decreasing error curves.

use rog_tensor::rng::DetRng;
use rog_tensor::Matrix;

use crate::{Dataset, Mlp, Task, Workload};

/// Side length of the synthetic scene in meters (unit square scaled).
pub const SCENE_METERS: f64 = 10.0;

/// A synthetic occupancy field: a sum of Gaussian blobs on the unit
/// square, clamped to `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    centers: Vec<(f64, f64)>,
    amps: Vec<f64>,
    inv_two_sigma_sq: Vec<f64>,
}

impl Scene {
    /// Generates a scene of `blobs` random Gaussian features.
    ///
    /// # Panics
    ///
    /// Panics if `blobs == 0`.
    pub fn generate(blobs: usize, rng: &mut DetRng) -> Self {
        assert!(blobs > 0, "scene needs at least one feature");
        let mut centers = Vec::with_capacity(blobs);
        let mut amps = Vec::with_capacity(blobs);
        let mut inv = Vec::with_capacity(blobs);
        for _ in 0..blobs {
            centers.push((rng.uniform(), rng.uniform()));
            amps.push(rng.uniform_range(0.4, 1.0));
            let sigma = rng.uniform_range(0.03, 0.12);
            inv.push(1.0 / (2.0 * sigma * sigma));
        }
        Self {
            centers,
            amps,
            inv_two_sigma_sq: inv,
        }
    }

    /// Field value at unit-square coordinates `(x, y)`, in `[0, 1]`.
    pub fn field(&self, x: f64, y: f64) -> f64 {
        let mut v = 0.0;
        for i in 0..self.centers.len() {
            let (cx, cy) = self.centers[i];
            let d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
            v += self.amps[i] * (-d2 * self.inv_two_sigma_sq[i]).exp();
        }
        v.clamp(0.0, 1.0)
    }
}

/// Parameters of the synthetic CRIMP workload.
#[derive(Debug, Clone, PartialEq)]
pub struct CrimpSpec {
    /// Number of Gaussian features in the scene.
    pub blobs: usize,
    /// Number of random Fourier feature frequencies (input dim is
    /// `2 + 2 * fourier`).
    pub fourier: usize,
    /// Hidden-layer widths of the implicit-map model.
    pub hidden: Vec<usize>,
    /// Number of trajectory poses contributing training observations.
    pub poses: usize,
    /// Random observation samples per pose.
    pub samples_per_pose: usize,
    /// Observation sampling radius around a pose (unit-square units).
    pub obs_radius: f64,
    /// Localization lattice step (unit-square units).
    pub lattice_step: f64,
    /// Localization search radius, in lattice steps.
    pub search_steps: usize,
    /// Test poses used for trajectory-error evaluation.
    pub eval_poses: usize,
    /// Learning rate suggested for training.
    pub lr: f32,
}

impl CrimpSpec {
    /// Default evaluation-scale spec.
    pub fn paper() -> Self {
        Self {
            blobs: 24,
            fourier: 12,
            hidden: vec![72, 56],
            poses: 160,
            samples_per_pose: 14,
            obs_radius: 0.05,
            lattice_step: 0.015,
            search_steps: 14,
            eval_poses: 12,
            lr: 0.05,
        }
    }

    /// A tiny spec for unit tests.
    pub fn small() -> Self {
        Self {
            blobs: 8,
            fourier: 6,
            hidden: vec![24],
            poses: 40,
            samples_per_pose: 8,
            obs_radius: 0.05,
            lattice_step: 0.02,
            search_steps: 5,
            eval_poses: 6,
            lr: 0.08,
        }
    }

    /// Parameter rows of the built workload's model (each layer's weight
    /// rows plus its bias row), from the layer shapes alone.
    pub fn model_rows(&self) -> usize {
        self.hidden.iter().chain(&[1]).map(|out| out + 1).sum()
    }

    /// Builds the workload for `n_workers`.
    ///
    /// # Panics
    ///
    /// Panics if `n_workers == 0` or there are fewer poses than workers.
    pub fn build(&self, n_workers: usize, rng: &mut DetRng) -> CrimpWorkload {
        assert!(n_workers > 0, "need at least one worker");
        assert!(self.poses >= n_workers, "fewer poses than workers");
        let mut scene_rng = rng.fork(0x5CE);
        let scene = Scene::generate(self.blobs, &mut scene_rng);

        // Random Fourier frequencies, fixed for the workload.
        let mut feat_rng = rng.fork(0xFEA7);
        let freqs: Vec<(f64, f64)> = (0..self.fourier)
            .map(|_| (feat_rng.normal() * 3.0, feat_rng.normal() * 3.0))
            .collect();

        // Smooth Lissajous-like trajectory inside the unit square.
        let trajectory: Vec<(f64, f64)> = (0..self.poses)
            .map(|i| {
                let t = i as f64 / self.poses as f64 * std::f64::consts::TAU;
                (
                    0.5 + 0.34 * (1.0 * t).sin() + 0.08 * (3.0 * t).cos(),
                    0.5 + 0.34 * (2.0 * t).cos() + 0.08 * (5.0 * t).sin(),
                )
            })
            .collect();

        // Observation samples along the trajectory, in pose order so the
        // contiguous split mirrors the paper's sequence split.
        let mut obs_rng = rng.fork(0x0B5);
        let n = self.poses * self.samples_per_pose;
        let mut xs = Matrix::zeros(n, 2 + 2 * self.fourier);
        let mut ys = Matrix::zeros(n, 1);
        for r in 0..n {
            let (px, py) = trajectory[r / self.samples_per_pose];
            let dx = obs_rng.uniform_range(-self.obs_radius, self.obs_radius);
            let dy = obs_rng.uniform_range(-self.obs_radius, self.obs_radius);
            let (wx, wy) = (px + dx, py + dy);
            featurize(wx, wy, &freqs, xs.row_mut(r));
            ys.set(r, 0, scene.field(wx, wy) as f32);
        }
        let train = Dataset::regression(xs, ys);
        let shards = train.contiguous_shards(n_workers);

        // Evenly spaced test poses for localization.
        let eval_poses: Vec<(f64, f64)> = (0..self.eval_poses)
            .map(|i| trajectory[i * self.poses / self.eval_poses])
            .collect();

        CrimpWorkload {
            spec: self.clone(),
            scene,
            freqs,
            shards,
            eval_poses,
        }
    }
}

/// Random-Fourier featurization of a world point into `f`
/// (`2 + 2 * freqs.len()` values).
fn featurize(x: f64, y: f64, freqs: &[(f64, f64)], f: &mut [f32]) {
    f[0] = x as f32;
    f[1] = y as f32;
    for (&(fx, fy), pair) in freqs.iter().zip(f[2..].chunks_exact_mut(2)) {
        let phase = std::f64::consts::TAU * (fx * x + fy * y);
        pair[0] = phase.sin() as f32;
        pair[1] = phase.cos() as f32;
    }
}

/// The built CRIMP workload (see module docs).
#[derive(Debug, Clone)]
pub struct CrimpWorkload {
    spec: CrimpSpec,
    scene: Scene,
    freqs: Vec<(f64, f64)>,
    shards: Vec<Dataset>,
    eval_poses: Vec<(f64, f64)>,
}

impl CrimpWorkload {
    /// The spec the workload was built from.
    pub fn spec(&self) -> &CrimpSpec {
        &self.spec
    }

    /// The ground-truth scene.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// Mean localization error in meters over the evaluation poses.
    ///
    /// For each test pose the robot "observes" the true field on a 3×3
    /// patch (2-lattice-step spacing) and slides that patch over the
    /// model's predicted field within `search_steps` lattice steps; the
    /// best-matching offset is the pose estimate.
    pub fn trajectory_error(&self, model: &Mlp) -> f64 {
        let h = self.spec.lattice_step;
        let r = self.spec.search_steps as isize;
        // Patch: 3x3 lattice points with spacing 2h.
        let patch: Vec<(isize, isize)> = [-2isize, 0, 2]
            .iter()
            .flat_map(|&dx| [-2isize, 0, 2].iter().map(move |&dy| (dx, dy)))
            .collect();
        let mut total_err = 0.0;
        for &(px, py) in &self.eval_poses {
            // Model predictions on the lattice covering search + patch.
            let lo = -(r + 2);
            let hi = r + 2;
            let side = (hi - lo + 1) as usize;
            let mut pred = vec![0.0f32; side * side];
            let mut feat = vec![0.0f32; self.input_dim()];
            for ix in lo..=hi {
                for iy in lo..=hi {
                    let (wx, wy) = (px + ix as f64 * h, py + iy as f64 * h);
                    featurize(wx, wy, &self.freqs, &mut feat);
                    let out = model.forward(&feat);
                    pred[((ix - lo) as usize) * side + (iy - lo) as usize] = out[0];
                }
            }
            // Observed true values at the patch around the true pose.
            let observed: Vec<f64> = patch
                .iter()
                .map(|&(dx, dy)| self.scene.field(px + dx as f64 * h, py + dy as f64 * h))
                .collect();
            // Slide the patch.
            let (mut best_d2, mut best_off) = (f64::INFINITY, (0isize, 0isize));
            for ox in -r..=r {
                for oy in -r..=r {
                    let mut d2 = 0.0;
                    for (k, &(dx, dy)) in patch.iter().enumerate() {
                        let ix = (ox + dx - lo) as usize;
                        let iy = (oy + dy - lo) as usize;
                        let diff = pred[ix * side + iy] as f64 - observed[k];
                        d2 += diff * diff;
                    }
                    if d2 < best_d2 {
                        best_d2 = d2;
                        best_off = (ox, oy);
                    }
                }
            }
            let (ox, oy) = best_off;
            let err_units = ((ox * ox + oy * oy) as f64).sqrt() * h;
            total_err += err_units * SCENE_METERS;
        }
        total_err / self.eval_poses.len() as f64
    }

    /// Input feature dimension of the implicit-map model.
    pub fn input_dim(&self) -> usize {
        2 + 2 * self.freqs.len()
    }
}

impl Workload for CrimpWorkload {
    fn name(&self) -> &'static str {
        "crimp"
    }

    fn make_model(&self, rng: &mut DetRng) -> Mlp {
        let mut dims = vec![self.input_dim()];
        dims.extend_from_slice(&self.spec.hidden);
        dims.push(1);
        Mlp::new(&dims, Task::Regression, rng)
    }

    fn shards(&self) -> &[Dataset] {
        &self.shards
    }

    fn test_metric(&self, model: &Mlp) -> f64 {
        self.trajectory_error(model)
    }

    fn metric_name(&self) -> &'static str {
        "trajectory error (m)"
    }

    fn metric_higher_better(&self) -> bool {
        false
    }

    fn base_batch_size(&self) -> usize {
        24
    }

    fn learning_rate(&self) -> f32 {
        self.spec.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scene_field_is_bounded_and_smooth() {
        let scene = Scene::generate(10, &mut DetRng::new(1));
        for i in 0..50 {
            let x = i as f64 / 50.0;
            let v = scene.field(x, 0.5);
            assert!((0.0..=1.0).contains(&v));
        }
        // Smoothness: tiny moves change the field a little.
        let a = scene.field(0.3, 0.3);
        let b = scene.field(0.3005, 0.3);
        assert!((a - b).abs() < 0.05);
    }

    #[test]
    fn build_shards_and_dims() {
        let wl = CrimpSpec::small().build(4, &mut DetRng::new(2));
        assert_eq!(wl.shards().len(), 4);
        let total: usize = wl.shards().iter().map(Dataset::len).sum();
        assert_eq!(total, 40 * 8);
        let model = wl.make_model(&mut DetRng::new(3));
        assert_eq!(model.dims()[0], wl.input_dim());
    }

    #[test]
    fn untrained_map_localizes_poorly_trained_map_well() {
        let wl = CrimpSpec::small().build(1, &mut DetRng::new(24));
        let mut model = wl.make_model(&mut DetRng::new(15));
        let before = wl.trajectory_error(&model);
        // Train on the single shard.
        let shard = &wl.shards()[0];
        let mut rng = DetRng::new(6);
        let mut grads = model.zero_grads();
        let mut batch = Vec::new();
        for _ in 0..400 {
            shard.sample_batch_into(24, &mut rng, &mut batch);
            model.loss_and_grad_into(shard, &batch, &mut grads);
            for (p, g) in model.params_mut().iter_mut().zip(&grads) {
                p.add_scaled(g, -wl.learning_rate()).expect("shapes match");
            }
        }
        let after = wl.trajectory_error(&model);
        assert!(
            after < before * 0.7,
            "training should reduce trajectory error: {before} -> {after}"
        );
        assert!(after < 0.8, "trained error should be sub-meter: {after}");
    }

    #[test]
    fn error_metric_is_deterministic() {
        let wl = CrimpSpec::small().build(2, &mut DetRng::new(8));
        let model = wl.make_model(&mut DetRng::new(9));
        assert_eq!(wl.trajectory_error(&model), wl.trajectory_error(&model));
    }
}
