//! Offline stand-in for [`criterion`](https://docs.rs/criterion), covering
//! the subset this workspace's benches use: [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_function`] / [`BenchmarkGroup::bench_with_input`],
//! [`Bencher::iter`] / [`Bencher::iter_batched`], [`BenchmarkId`],
//! [`BatchSize`] and the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement is deliberately simple: each benchmark runs a short
//! calibration pass, then enough iterations to fill a small time budget, and
//! prints the mean time per iteration. Good enough to track relative
//! movement between PRs without a registry; swap in the real crate for
//! publication-grade statistics.

use std::fmt;
use std::time::{Duration, Instant};

/// Re-export of the standard optimizer barrier under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How per-iteration inputs are batched in [`Bencher::iter_batched`].
/// Ignored by this shim beyond API compatibility.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs: setup amortized over many iterations.
    SmallInput,
    /// Large inputs: fewer iterations per batch.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// A two-part benchmark identifier (`function/parameter`).
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds `function_name/parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function_name.into(), parameter) }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Anything usable as a benchmark name.
pub trait IntoBenchmarkId {
    /// The rendered name.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_owned()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// The timing driver handed to benchmark closures.
pub struct Bencher {
    /// Total measured time across iterations.
    elapsed: Duration,
    /// Number of measured iterations.
    iters: u64,
    /// Wall-clock budget for the measurement loop.
    budget: Duration,
}

impl Bencher {
    fn new(budget: Duration) -> Self {
        Bencher { elapsed: Duration::ZERO, iters: 0, budget }
    }

    /// Times `routine` repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Calibration: one untimed run, then time batches until the budget
        // is spent.
        black_box(routine());
        let deadline = Instant::now() + self.budget;
        while Instant::now() < deadline {
            let start = Instant::now();
            black_box(routine());
            self.elapsed += start.elapsed();
            self.iters += 1;
            if self.iters >= 1_000_000 {
                break;
            }
        }
    }

    /// Times `routine` on fresh inputs from `setup`; setup time is excluded.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        let deadline = Instant::now() + self.budget;
        while Instant::now() < deadline {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.elapsed += start.elapsed();
            self.iters += 1;
            if self.iters >= 1_000_000 {
                break;
            }
        }
    }

    fn report(&self, name: &str) {
        if self.iters == 0 {
            println!("bench {name:<50} no measurement");
            return;
        }
        let per_iter = self.elapsed.as_nanos() / u128::from(self.iters);
        println!("bench {name:<50} {per_iter:>12} ns/iter ({} iters)", self.iters);
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    budget: Duration,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the nominal sample count (scales this shim's time budget).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        // Real criterion defaults to 100 samples; scale the budget so
        // explicitly-small groups (expensive benches) stay fast.
        self.budget = Duration::from_millis((n as u64).clamp(10, 400));
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::new(self.budget);
        f(&mut bencher);
        bencher.report(&format!("{}/{}", self.name, id.into_id()));
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher::new(self.budget);
        f(&mut bencher, input);
        bencher.report(&format!("{}/{}", self.name, id.into_id()));
        self
    }

    /// Finishes the group (a no-op in this shim).
    pub fn finish(self) {}
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), budget: Duration::from_millis(50), _criterion: self }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::new(Duration::from_millis(50));
        f(&mut bencher);
        bencher.report(&id.into_id());
        self
    }
}

/// Bundles benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_measures_every_timed_run() {
        let mut runs = 0u64;
        let mut b = Bencher::new(Duration::from_millis(1));
        b.iter(|| runs += 1);
        // One untimed calibration run, then the timed ones.
        assert!(b.iters >= 1);
        assert_eq!(runs, b.iters + 1);
        b.report("shim-test/iter");
    }
}
