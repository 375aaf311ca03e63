//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no network access to crates.io, so this
//! in-repo crate provides the subset of criterion's API the workspace
//! benches use: [`Criterion`], [`Bencher::iter`], benchmark groups with
//! [`BenchmarkGroup::bench_with_input`] / [`BenchmarkId::from_parameter`],
//! and both forms of [`criterion_group!`] plus [`criterion_main!`].
//!
//! Measurement is deliberately simple — wall-clock mean over
//! `sample_size` iterations after one warm-up, printed one line per
//! benchmark. There is no statistical analysis, HTML report, or
//! baseline comparison; the benches exist to exercise the hot paths
//! and print rough numbers, and the real quality comparisons live in
//! the `repro` binary.

#![warn(missing_docs)]

use std::fmt;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Whether the process was started with `--quick` (as in
/// `cargo bench -- --quick`): sample counts are clamped to 2 so the whole
/// suite smoke-runs in seconds. Mirrors upstream criterion's flag of the
/// same name; CI uses it to verify benches execute without paying for
/// statistically meaningful sampling.
fn quick_mode() -> bool {
    static QUICK: OnceLock<bool> = OnceLock::new();
    *QUICK.get_or_init(|| std::env::args().any(|a| a == "--quick"))
}

/// Runs closures and reports their mean wall-clock time.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 100 }
    }
}

impl Criterion {
    /// Sets the number of timed iterations per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Times `f` under `id`.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(id, self.sample_size, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
            sample_size,
        }
    }
}

/// A named set of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Overrides the iteration count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Times `f` under `group_name/id`.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&format!("{}/{id}", self.name), self.sample_size, f);
        self
    }

    /// Times `f` with a borrowed input under `group_name/id`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_benchmark(&format!("{}/{id}", self.name), self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group. (No-op here; upstream finalises reports.)
    pub fn finish(self) {}
}

/// Identifies one parameterised benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id rendered from the benchmark's parameter value.
    pub fn from_parameter<P: fmt::Display>(parameter: P) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }

    /// An id with a function name and a parameter value.
    pub fn new<P: fmt::Display>(function_name: &str, parameter: P) -> Self {
        BenchmarkId {
            label: format!("{function_name}/{parameter}"),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

/// Passed to benchmark closures; [`iter`](Bencher::iter) times a routine.
pub struct Bencher {
    sample_size: usize,
    elapsed: Option<Duration>,
}

impl Bencher {
    /// Runs `routine` once to warm up, then `sample_size` timed times,
    /// recording the mean. The routine's return value is consumed by a
    /// black-box sink so the computation is not optimised away.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        black_box(routine());
        let start = Instant::now();
        for _ in 0..self.sample_size {
            black_box(routine());
        }
        self.elapsed = Some(start.elapsed() / self.sample_size as u32);
    }
}

/// An opaque identity function preventing the optimiser from deleting
/// benchmarked computations.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

fn run_benchmark<F>(id: &str, sample_size: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let sample_size = if quick_mode() {
        sample_size.min(2)
    } else {
        sample_size
    };
    let mut bencher = Bencher {
        sample_size,
        elapsed: None,
    };
    f(&mut bencher);
    match bencher.elapsed {
        Some(mean) => println!("bench {id:<40} {mean:>12.2?}/iter  ({sample_size} iters)"),
        None => println!("bench {id:<40} (no b.iter call)"),
    }
}

/// Declares a benchmark group: either `criterion_group!(name, fn, ...)`
/// or the struct-like form with an explicit `config = ...` expression.
#[macro_export]
macro_rules! criterion_group {
    (
        name = $name:ident;
        config = $config:expr;
        targets = $($target:path),+ $(,)?
    ) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the benchmark binary's `main`, running each group.
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

    fn quick(c: &mut Criterion) {
        c.bench_function("sum_1k", |b| b.iter(|| (0u64..1000).sum::<u64>()));
    }

    criterion_group! {
        name = shim_group;
        config = Criterion::default().sample_size(5);
        targets = quick
    }

    criterion_group!(shim_group_positional, quick);

    #[test]
    fn groups_run() {
        shim_group();
        shim_group_positional();
    }

    #[test]
    fn groups_and_inputs() {
        let mut c = Criterion::default().sample_size(3);
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        for n in [10u64, 100] {
            group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
                b.iter(|| (0..n).sum::<u64>())
            });
        }
        group.finish();
    }
}
