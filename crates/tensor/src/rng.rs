//! Deterministic random-number utilities.
//!
//! Every stochastic component of the simulation (dataset synthesis, weight
//! init, bandwidth traces, compute jitter) draws from a [`DetRng`] stream
//! derived from one experiment root seed. Independent streams are derived
//! with [`DetRng::fork`], so adding a consumer never perturbs the draws
//! seen by existing consumers — a property the reproducibility tests rely
//! on.

/// SplitMix64 step, used to derive fork seeds from `(seed, stream-id)`
/// and to expand the root seed into the xoshiro state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Self-contained xoshiro256** core (the `rand` crate is unavailable in
/// this build environment). Seeded by iterating splitmix64 from the
/// root seed, per the generator authors' recommendation.
#[derive(Debug, Clone)]
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *slot = splitmix64(x);
        }
        Self { s }
    }

    fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }
}

/// A deterministic, forkable random-number generator.
///
/// # Example
///
/// ```
/// use rog_tensor::rng::DetRng;
///
/// let mut a = DetRng::new(7);
/// let mut b = DetRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Forks with distinct stream ids are independent of the parent and of
/// // each other, but reproducible.
/// let x = a.fork(1).next_u64();
/// assert_eq!(x, b.fork(1).next_u64());
/// assert_ne!(x, b.fork(2).next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    inner: Xoshiro256,
    /// Cached second Box-Muller sample.
    spare_normal: Option<f64>,
}

impl DetRng {
    /// Creates a generator from a root seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            inner: Xoshiro256::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Derives an independent stream keyed by `stream`.
    ///
    /// Forking does not consume state from `self`, so the order in which
    /// forks are taken does not matter.
    pub fn fork(&self, stream: u64) -> DetRng {
        DetRng::new(splitmix64(
            self.seed ^ splitmix64(stream.wrapping_add(0x5851_f42d)),
        ))
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Next `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform sample in `[0, 1)` (53 mantissa bits).
    pub fn uniform(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform_range requires lo < hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires a non-empty range");
        // Debiased via rejection: retry while the draw falls in the
        // truncated final partial block of the u64 space.
        let n = n as u64;
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        loop {
            let v = self.inner.next_u64();
            if v <= zone {
                return (v % n) as usize;
            }
        }
    }

    /// Standard normal sample (Box-Muller; `rand_distr` is intentionally
    /// not a dependency).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Reject u1 == 0 to avoid ln(0).
        let mut u1 = self.uniform();
        while u1 <= f64::EPSILON {
            u1 = self.uniform();
        }
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        self.spare_normal = Some(r * s);
        r * c
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.normal()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Samples from a symmetric Dirichlet distribution with concentration
    /// `alpha`, via normalized Gamma draws (Marsaglia-Tsang for shape < 1
    /// handled by boosting).
    ///
    /// Used for non-IID dataset sharding across workers.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `alpha <= 0`.
    pub fn dirichlet(&mut self, k: usize, alpha: f64) -> Vec<f64> {
        assert!(k > 0, "dirichlet requires k > 0");
        assert!(alpha > 0.0, "dirichlet requires alpha > 0");
        let mut g: Vec<f64> = (0..k).map(|_| self.gamma(alpha)).collect();
        let sum: f64 = g.iter().sum();
        if sum <= 0.0 {
            // All draws underflowed; fall back to uniform.
            return vec![1.0 / k as f64; k];
        }
        g.iter_mut().for_each(|v| *v /= sum);
        g
    }

    /// Gamma(shape, 1) sample via Marsaglia-Tsang.
    fn gamma(&mut self, shape: f64) -> f64 {
        if shape < 1.0 {
            // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
            let u = self.uniform().max(f64::MIN_POSITIVE);
            return self.gamma(shape + 1.0) * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = self.uniform().max(f64::MIN_POSITIVE);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(1);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let parent = DetRng::new(9);
        let mut consumed = parent.clone();
        let _ = consumed.next_u64();
        assert_eq!(parent.fork(3).next_u64(), consumed.fork(3).next_u64());
    }

    #[test]
    fn distinct_fork_streams_differ() {
        let parent = DetRng::new(9);
        assert_ne!(parent.fork(1).next_u64(), parent.fork(2).next_u64());
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = DetRng::new(1234);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn dirichlet_sums_to_one_and_is_positive() {
        let mut rng = DetRng::new(5);
        for &alpha in &[0.1, 0.5, 1.0, 10.0] {
            let p = rng.dirichlet(8, alpha);
            assert_eq!(p.len(), 8);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn small_alpha_is_skewed_large_alpha_is_flat() {
        let mut rng = DetRng::new(6);
        let max_small: f64 = (0..50)
            .map(|_| rng.dirichlet(10, 0.05).into_iter().fold(0.0f64, f64::max))
            .sum::<f64>()
            / 50.0;
        let max_large: f64 = (0..50)
            .map(|_| rng.dirichlet(10, 100.0).into_iter().fold(0.0f64, f64::max))
            .sum::<f64>()
            / 50.0;
        assert!(
            max_small > max_large + 0.2,
            "small alpha should concentrate mass: {max_small} vs {max_large}"
        );
    }
}
