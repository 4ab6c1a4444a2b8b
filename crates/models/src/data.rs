//! Dataset container and non-IID sharding.

use rog_tensor::rng::DetRng;
use rog_tensor::Matrix;

/// Supervision targets: class labels or regression values.
#[derive(Debug, Clone, PartialEq)]
pub enum Targets {
    /// One class index per sample.
    Labels(Vec<usize>),
    /// One value row per sample.
    Values(Matrix),
}

impl Targets {
    fn len(&self) -> usize {
        match self {
            Targets::Labels(v) => v.len(),
            Targets::Values(v) => v.rows(),
        }
    }
}

/// An in-memory dataset: one row-major input matrix (sample `i` is
/// row `i`) plus targets, so a dataset is a few allocations whatever
/// its sample count, and a shard copies its rows into one matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    xs: Matrix,
    /// The supervision targets (public for loss dispatch).
    pub targets: Targets,
}

impl Dataset {
    /// Creates a labeled (classification) dataset.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn labeled(xs: Matrix, ys: Vec<usize>) -> Self {
        let targets = Targets::Labels(ys);
        assert_eq!(xs.rows(), targets.len(), "inputs/labels length mismatch");
        Self { xs, targets }
    }

    /// Creates a regression dataset: row `i` of `ys` is sample `i`'s
    /// target.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn regression(xs: Matrix, ys: Matrix) -> Self {
        let targets = Targets::Values(ys);
        assert_eq!(xs.rows(), targets.len(), "inputs/values length mismatch");
        Self { xs, targets }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.xs.rows()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature vector of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn input(&self, i: usize) -> &[f32] {
        self.xs.row(i)
    }

    /// Label of sample `i` for labeled datasets.
    pub fn label(&self, i: usize) -> Option<usize> {
        match &self.targets {
            Targets::Labels(v) => v.get(i).copied(),
            Targets::Values(_) => None,
        }
    }

    /// [`Self::sample_batch_into`] into a fresh vector, for the frozen
    /// `benchmark/`; the workspace samples into reused buffers.
    pub fn sample_batch(&self, size: usize, rng: &mut DetRng) -> Vec<usize> {
        let mut idxs = Vec::new();
        self.sample_batch_into(size, rng, &mut idxs);
        idxs
    }

    /// Replaces `idxs` with a batch of `size` sample indices drawn
    /// uniformly with replacement; a buffer that has held `size`
    /// indices before is not reallocated.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or `size == 0`.
    pub fn sample_batch_into(&self, size: usize, rng: &mut DetRng, idxs: &mut Vec<usize>) {
        assert!(!self.is_empty(), "cannot sample from an empty dataset");
        assert!(size > 0, "batch size must be positive");
        idxs.clear();
        idxs.extend((0..size).map(|_| rng.index(self.len())));
    }

    /// The samples `idxs`, in order, as a dataset of their own.
    fn subset(&self, idxs: impl ExactSizeIterator<Item = usize> + Clone) -> Dataset {
        let targets = match &self.targets {
            Targets::Labels(v) => Targets::Labels(idxs.clone().map(|i| v[i]).collect()),
            Targets::Values(v) => Targets::Values(gather(v, idxs.clone())),
        };
        Dataset {
            xs: gather(&self.xs, idxs),
            targets,
        }
    }

    /// Splits a labeled dataset into `n_shards` non-IID shards using a
    /// symmetric Dirichlet(`alpha`) allocation per class — the stand-in
    /// for the paper's Pachinko Allocation Method partition of
    /// Fed-CIFAR100. Lower `alpha` = more skewed shards.
    ///
    /// Every shard is guaranteed non-empty (samples are round-robined if
    /// the draw left a shard empty).
    ///
    /// # Panics
    ///
    /// Panics if the dataset is unlabeled, `n_shards == 0`, or there are
    /// fewer samples than shards.
    pub fn dirichlet_shards(&self, n_shards: usize, alpha: f64, rng: &mut DetRng) -> Vec<Dataset> {
        let Targets::Labels(ys) = &self.targets else {
            panic!("dirichlet sharding requires labels");
        };
        assert!(n_shards > 0, "need at least one shard");
        assert!(
            self.len() >= n_shards,
            "fewer samples than shards: {} < {n_shards}",
            self.len()
        );
        // The samples grouped by class, in index order within a class;
        // each class's Dirichlet cut is one range of `order` per shard.
        // The cuts are sized first, so every shard fills one exact
        // allocation whatever the sample count.
        let mut order: Vec<usize> = (0..ys.len()).collect();
        order.sort_unstable_by_key(|&i| (ys[i], i));
        let mut cuts = Vec::new();
        let mut sizes = vec![0usize; n_shards];
        let mut first = 0;
        while first < order.len() {
            let class = ys[order[first]];
            let members = order[first..].partition_point(|&i| ys[i] == class);
            let probs = rng.dirichlet(n_shards, alpha);
            // Convert proportions to cumulative boundaries over members.
            let (mut cum, mut start) = (0.0, 0);
            for (s, p) in probs.iter().enumerate() {
                cum += p;
                let end = if s + 1 == n_shards {
                    members
                } else {
                    (cum * members as f64).round() as usize
                };
                let end = end.max(start);
                cuts.push((s, first + start..first + end));
                sizes[s] += end - start;
                start = end;
            }
            first += members;
        }
        let mut shard_idxs: Vec<Vec<usize>> =
            sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
        for (s, cut) in cuts {
            shard_idxs[s].extend_from_slice(&order[cut]);
        }
        // Backfill empty shards.
        let mut donor = 0usize;
        for s in 0..n_shards {
            while shard_idxs[s].is_empty() {
                if shard_idxs[donor].len() > 1 {
                    let moved = shard_idxs[donor].pop().expect("non-empty donor");
                    shard_idxs[s].push(moved);
                } else {
                    donor = (donor + 1) % n_shards;
                }
            }
        }
        shard_idxs
            .iter()
            .map(|idxs| self.subset(idxs.iter().copied()))
            .collect()
    }

    /// Splits any dataset into `n_shards` contiguous, near-equal shards
    /// (used by CRIMP: each robot observes a contiguous trajectory
    /// segment, like the paper's split of the ScanNet image sequence).
    ///
    /// # Panics
    ///
    /// Panics if `n_shards == 0` or there are fewer samples than shards.
    pub fn contiguous_shards(&self, n_shards: usize) -> Vec<Dataset> {
        assert!(n_shards > 0, "need at least one shard");
        assert!(
            self.len() >= n_shards,
            "fewer samples than shards: {} < {n_shards}",
            self.len()
        );
        let n = self.len();
        (0..n_shards)
            .map(|s| self.subset(s * n / n_shards..(s + 1) * n / n_shards))
            .collect()
    }
}

/// The rows `idxs` of `m`, in order, as one matrix.
fn gather(m: &Matrix, idxs: impl ExactSizeIterator<Item = usize>) -> Matrix {
    let mut out = Matrix::zeros(idxs.len(), m.cols());
    for (r, i) in idxs.enumerate() {
        out.row_mut(r).copy_from_slice(m.row(i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: usize, classes: usize) -> Dataset {
        Dataset::labeled(
            Matrix::from_fn(n, 1, |i, _| i as f32),
            (0..n).map(|i| i % classes).collect(),
        )
    }

    #[test]
    fn batch_sampling_is_in_range_and_deterministic() {
        let d = dataset(10, 2);
        let mut r1 = DetRng::new(3);
        let mut r2 = DetRng::new(3);
        let (mut b1, mut b2) = (vec![7; 9], Vec::new());
        d.sample_batch_into(6, &mut r1, &mut b1);
        d.sample_batch_into(6, &mut r2, &mut b2);
        assert_eq!(b1, b2);
        assert_eq!(b1.len(), 6);
        assert!(b1.iter().all(|&i| i < 10));
    }

    #[test]
    #[should_panic(expected = "ragged rows: row 1 vs row 0")]
    fn a_ragged_dataset_is_refused_where_it_is_built() {
        let _ = Dataset::labeled(Matrix::from_rows(&[vec![0.0, 1.0], vec![2.0]]), vec![0, 1]);
    }

    #[test]
    fn regression_shards_keep_their_value_rows() {
        let d = Dataset::regression(
            Matrix::from_fn(5, 2, |r, c| (r * 2 + c) as f32),
            Matrix::from_fn(5, 1, |r, _| -(r as f32)),
        );
        let shards = d.contiguous_shards(2);
        assert_eq!(shards[1].input(0), &[4.0, 5.0]);
        let Targets::Values(ys) = &shards[1].targets else {
            unreachable!()
        };
        assert_eq!(ys.as_slice(), &[-2.0, -3.0, -4.0]);
    }

    #[test]
    fn dirichlet_shards_partition_everything() {
        let d = dataset(200, 10);
        let shards = d.dirichlet_shards(4, 0.5, &mut DetRng::new(1));
        assert_eq!(shards.len(), 4);
        let total: usize = shards.iter().map(Dataset::len).sum();
        assert_eq!(total, 200);
        assert!(shards.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn low_alpha_shards_are_skewed() {
        let d = dataset(1000, 10);
        let skewed = d.dirichlet_shards(4, 0.05, &mut DetRng::new(2));
        // At alpha=0.05 most classes land in one shard: per-shard class
        // diversity should be visibly below the 10 classes of the pool.
        let diversity: f64 = skewed
            .iter()
            .map(|s| {
                let Targets::Labels(ys) = &s.targets else {
                    unreachable!()
                };
                // Count classes with a meaningful share (>10% of shard).
                (0..10)
                    .filter(|&c| {
                        ys.iter().filter(|&&y| y == c).count() as f64 > 0.1 * ys.len() as f64
                    })
                    .count() as f64
            })
            .sum::<f64>()
            / 4.0;
        assert!(diversity < 6.0, "shards too uniform: {diversity}");
    }

    #[test]
    fn contiguous_shards_cover_in_order() {
        let d = dataset(10, 3);
        let shards = d.contiguous_shards(3);
        assert_eq!(shards.iter().map(Dataset::len).sum::<usize>(), 10);
        assert_eq!(shards[0].input(0), &[0.0]);
        assert_eq!(shards[2].input(shards[2].len() - 1), &[9.0]);
    }

    #[test]
    #[should_panic(expected = "requires labels")]
    fn dirichlet_on_regression_panics() {
        let d = Dataset::regression(Matrix::zeros(1, 1), Matrix::zeros(1, 1));
        let _ = d.dirichlet_shards(1, 1.0, &mut DetRng::new(0));
    }
}
