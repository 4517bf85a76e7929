//! Vendored, dependency-free stand-in for the `criterion` crate.
//!
//! The build environment is offline, so this workspace ships the subset
//! of the criterion 0.5 API its benches use: [`Criterion`],
//! [`BenchmarkGroup`], [`BenchmarkId`], [`Bencher::iter`], [`black_box`],
//! and the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement is intentionally simple — calibrate the iteration count
//! to a fixed measurement window, run, and report mean wall time per
//! iteration on stdout. No statistics, plots, or baselines; the numbers
//! are for quick relative comparisons (e.g. the pipeline swept over
//! worker counts), not rigorous benchmarking.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Target wall time each benchmark spends measuring.
const MEASUREMENT_WINDOW: Duration = Duration::from_millis(300);

/// Runs closures and records elapsed time.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` invocations of `f`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Identifies one benchmark within a group.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new<P: std::fmt::Display>(name: &str, parameter: P) -> Self {
        Self { id: format!("{name}/{parameter}") }
    }

    /// Just the parameter, for single-function groups.
    pub fn from_parameter<P: std::fmt::Display>(parameter: P) -> Self {
        Self { id: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        Self { id }
    }
}

fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos() as f64;
    let mut out = String::new();
    if ns < 1_000.0 {
        let _ = write!(out, "{ns:.1} ns");
    } else if ns < 1_000_000.0 {
        let _ = write!(out, "{:.2} µs", ns / 1_000.0);
    } else if ns < 1_000_000_000.0 {
        let _ = write!(out, "{:.2} ms", ns / 1_000_000.0);
    } else {
        let _ = write!(out, "{:.3} s", ns / 1_000_000_000.0);
    }
    out
}

/// Calibrates an iteration count filling the measurement window, runs,
/// and prints the per-iteration mean.
fn run_one(label: &str, sample_size: Option<usize>, f: &mut dyn FnMut(&mut Bencher)) {
    // One calibration pass.
    let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
    f(&mut b);
    let per_iter = b.elapsed.max(Duration::from_nanos(1));
    let fitting = (MEASUREMENT_WINDOW.as_nanos() / per_iter.as_nanos()).max(1) as u64;
    let iters = match sample_size {
        Some(n) => fitting.min(n as u64).max(1),
        None => fitting.min(10_000),
    };
    let mut b = Bencher { iters, elapsed: Duration::ZERO };
    f(&mut b);
    let mean = b.elapsed / iters as u32;
    println!("{label:<48} time: {:>12}   ({iters} iters)", format_duration(mean));
}

/// Entry point handed to each benchmark function.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Runs a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(name, None, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { _c: self, name: name.to_string(), sample_size: None }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Caps the iteration count (criterion's sample count, repurposed).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Runs a benchmark within the group.
    pub fn bench_function<I: Into<BenchmarkId>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into().id);
        run_one(&label, self.sample_size, &mut f);
        self
    }

    /// Runs a benchmark parameterized by an input.
    pub fn bench_with_input<I: Into<BenchmarkId>, T: ?Sized, F: FnMut(&mut Bencher, &T)>(
        &mut self,
        id: I,
        input: &T,
        mut f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into().id);
        run_one(&label, self.sample_size, &mut |b| f(b, input));
        self
    }

    /// Ends the group (printing is immediate, so this is a no-op).
    pub fn finish(self) {}
}

/// Declares a group function running each listed benchmark.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_runs_closure_requested_times() {
        let mut count = 0u64;
        let mut b = Bencher { iters: 17, elapsed: Duration::ZERO };
        b.iter(|| count += 1);
        assert_eq!(count, 17);
        assert!(b.elapsed > Duration::ZERO);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("knn", 8).id, "knn/8");
        assert_eq!(BenchmarkId::from_parameter("GL").id, "GL");
    }

    #[test]
    fn group_api_composes() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        group.bench_function(BenchmarkId::from_parameter(1), |b| b.iter(|| black_box(1 + 1)));
        group.bench_with_input(BenchmarkId::new("p", 2), &3, |b, &x| b.iter(|| black_box(x * 2)));
        group.finish();
        c.bench_function("standalone", |b| b.iter(|| black_box(0)));
    }
}
