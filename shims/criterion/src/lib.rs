//! Offline stand-in for `criterion`.
//!
//! Provides the same bench-definition API the workspace uses
//! (`criterion_group!`/`criterion_main!`, `Criterion::bench_function`,
//! `benchmark_group`, `bench_with_input`, `BenchmarkId`) but measures
//! with plain wall-clock timing loops: a short warm-up, then `BATCHES`
//! timed batches, reporting the minimum and the median per-iteration
//! time over the batches to stdout. One mean over one window hid how
//! far a cell moves (up to 2x between rounds on a shared host): the
//! minimum is the figure to compare, and the median beside it shows
//! the spread. There is no further statistical analysis, HTML report,
//! or saved baseline.

use std::time::{Duration, Instant};

/// Measurement target: warm up briefly, then time enough iterations to
/// fill the measurement window, split into `BATCHES` batches.
const WARM_UP: Duration = Duration::from_millis(150);
const MEASURE: Duration = Duration::from_millis(600);

/// Timed batches per benchmark (odd, so the median is one of them).
const BATCHES: usize = 11;

/// Identifies one parameterised benchmark, e.g. `onebit_encode/1024`.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            label: format!("{}/{}", function.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

/// Passed to the bench closure; `iter` runs and times the routine.
pub struct Bencher {
    /// Seconds per iteration of each timed batch, filled in by `iter`.
    batches: Vec<f64>,
}

impl Bencher {
    fn new() -> Self {
        Self {
            batches: Vec::new(),
        }
    }

    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: also estimates the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < WARM_UP {
            std::hint::black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let per_batch = MEASURE.as_secs_f64() / BATCHES as f64;
        let batch_iters = ((per_batch / per_iter) as u64).max(1);
        self.batches.clear();
        for _ in 0..BATCHES {
            let start = Instant::now();
            for _ in 0..batch_iters {
                std::hint::black_box(routine());
            }
            self.batches
                .push(start.elapsed().as_secs_f64() / batch_iters as f64);
        }
    }

    /// The fastest batch's and the median batch's seconds per
    /// iteration, or NaN if `iter` never ran.
    fn min_median(&mut self) -> (f64, f64) {
        if self.batches.is_empty() {
            return (f64::NAN, f64::NAN);
        }
        self.batches.sort_by(f64::total_cmp);
        (self.batches[0], self.batches[self.batches.len() / 2])
    }
}

/// Seconds as a value and a unit picked by `secs`' magnitude.
fn scaled(secs: f64) -> (f64, &'static str) {
    if secs < 1e-6 {
        (secs * 1e9, "ns")
    } else if secs < 1e-3 {
        (secs * 1e6, "µs")
    } else if secs < 1.0 {
        (secs * 1e3, "ms")
    } else {
        (secs, "s")
    }
}

fn report(label: &str, b: &mut Bencher) {
    let (min, median) = b.min_median();
    let (value, unit) = scaled(min);
    let (mid, mid_unit) = scaled(median);
    println!("{label:<50} {value:>10.3} {unit}/iter  (median {mid:.3} {mid_unit})");
}

/// Top-level driver, mirroring `criterion::Criterion`.
pub struct Criterion {
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // Honour `cargo bench -- <filter>` like the real crate.
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && a != "--bench");
        Self { filter }
    }
}

impl Criterion {
    fn enabled(&self, label: &str) -> bool {
        match &self.filter {
            Some(f) => label.contains(f.as_str()),
            None => true,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        if self.enabled(name) {
            let mut b = Bencher::new();
            f(&mut b);
            report(name, &mut b);
        }
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let label = format!("{}/{}", self.name, name);
        if self.criterion.enabled(&label) {
            let mut b = Bencher::new();
            f(&mut b);
            report(&label, &mut b);
        }
        self
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.label);
        if self.criterion.enabled(&label) {
            let mut b = Bencher::new();
            f(&mut b, input);
            report(&label, &mut b);
        }
        self
    }

    pub fn finish(self) {}
}

/// Re-export used by some criterion setups; the workspace benches use
/// `std::hint::black_box` directly, but keep this for compatibility.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declares a bench group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the bench `main`, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
