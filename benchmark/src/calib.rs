//! The calibration kernel behind speed-normalised seconds.
//!
//! The sandbox this benchmark runs in shares its cores with other
//! tenants: the same deterministic run takes 1.3–2× longer in some
//! seconds than in others, and code bound by execution throughput or
//! the allocator slows far more than a dependent-latency chain does. A
//! fixed kernel timed right before and right after every measurement
//! tracks those phases, and dividing by it removes most of them (the
//! README has the measured effect and why the kernel is a mix).
//!
//! The kernel is frozen: it calls no repository code, so no PR under
//! test can change it, and [`CAL_NOMINAL_S`] was fixed when the
//! benchmark landed. Changing either invalidates every recorded number.

use std::hint::black_box;
use std::time::Instant;

/// Bursts per [`Calib::run`]; one burst runs every segment once.
const BURSTS: u32 = 12;

/// 256 KiB of `f32`: larger than L1, inside L2, like the engine's hot
/// working set (one model's rows plus accumulators).
const WORDS: usize = 64 * 1024;

/// What one [`Calib::run`] takes on the reference machine in its
/// undisturbed phases, fixed when the benchmark landed. A
/// speed-normalised second is `raw × CAL_NOMINAL_S / measured run time`.
pub const CAL_NOMINAL_S: f64 = 0.090;

/// Scratch memory of the kernel, allocated once per process.
pub struct Calib {
    a: Vec<f32>,
    b: Vec<f32>,
    keys: Vec<(u32, u32)>,
}

impl Calib {
    /// Allocates (and touches) the kernel's arrays.
    pub fn new() -> Self {
        Self {
            a: vec![1.0; WORDS],
            b: vec![0.5; WORDS],
            keys: vec![(0, 0); 4096],
        }
    }

    /// Runs the kernel once and returns its wall time in seconds.
    ///
    /// Five segments of similar length, one per way the engine spends
    /// its time: a dependent integer chain with scattered
    /// read-modify-writes (event loop, version store), streaming
    /// multiply-adds (accumulate, SGD rows), short dot products
    /// (forward/backward passes), sorting (row ranking) and small
    /// allocations (per-row payload vectors).
    pub fn run(&mut self) -> f64 {
        self.bursts(BURSTS)
    }

    /// A quarter-length run for the layer drive, which calibrates
    /// between every two sampled operations; the result is scaled to be
    /// comparable with [`Calib::run`] and [`CAL_NOMINAL_S`].
    pub fn short(&mut self) -> f64 {
        self.bursts(BURSTS / 4) * 4.0
    }

    fn bursts(&mut self, n: u32) -> f64 {
        let start = Instant::now();
        for _ in 0..n {
            self.chain();
            self.axpy();
            self.dot();
            self.sort();
            Self::alloc();
        }
        start.elapsed().as_secs_f64()
    }

    fn chain(&mut self) {
        let buf = &mut self.a[..WORDS];
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..1_500_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (WORDS - 1);
            buf[i] = buf[i] * 0.999 + 1.0;
        }
        black_box(buf);
    }

    fn axpy(&mut self) {
        for rep in 0..3000usize {
            let off = (rep * 7919 % 60) * 1024;
            let (x, y) = (&mut self.a[off..off + 4096], &self.b[off..off + 4096]);
            for (p, q) in x.iter_mut().zip(y) {
                *p = *p * 0.999 + *q * 0.5;
            }
        }
        black_box(&mut self.a);
    }

    fn dot(&self) {
        let mut acc = 0.0f32;
        for rep in 0..120_000usize {
            let off = (rep * 7919 % 1000) * 64;
            let mut s = 0.0f32;
            for (p, q) in self.a[off..off + 40].iter().zip(&self.b[off..off + 40]) {
                s += p * q;
            }
            acc += s;
        }
        black_box(acc);
    }

    fn sort(&mut self) {
        let mut x: u32 = 12345;
        for _ in 0..20 {
            for k in &mut self.keys {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                k.0 = x;
            }
            self.keys.sort_unstable();
        }
        black_box(&mut self.keys);
    }

    fn alloc() {
        let mut keep: Vec<Vec<f32>> = Vec::with_capacity(64);
        for i in 0..90_000usize {
            let v = vec![i as f32; 40 + (i % 5) * 24];
            if keep.len() < 64 {
                keep.push(v);
            } else {
                keep[i % 64] = v;
            }
        }
        black_box(keep);
    }
}
