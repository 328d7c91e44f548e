//! Offline stand-in for the `criterion` crate.
//!
//! The build environment cannot fetch crates, so this provides the small
//! API surface the benches use — [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_function`], [`Bencher::iter`],
//! [`criterion_group!`], [`criterion_main!`], [`black_box`] — as a
//! plain wall-clock harness: per sample the closure runs once, and
//! median / min / max over the samples are printed. No statistics
//! beyond that; the point is comparable relative timings, which is all
//! the perf trajectory tracks.

#![allow(clippy::disallowed_types, reason = "a benchmark harness measures wall time")]

use std::time::{Duration, Instant};

/// Prevent the optimizer from discarding a value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level harness handle.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 10 }
    }
}

impl Criterion {
    /// Default number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), sample_size: self.sample_size, _c: self }
    }

    /// Run one stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_bench(name, self.sample_size, f);
        self
    }
}

/// A named group of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _c: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Samples per benchmark within this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_bench(&format!("{}/{}", self.name, name), self.sample_size, f);
        self
    }

    /// Close the group (printing already happened per bench).
    pub fn finish(self) {}
}

/// Passed to the measured closure; [`Bencher::iter`] times its argument.
pub struct Bencher {
    samples: Vec<Duration>,
    per_sample: usize,
}

impl Bencher {
    /// Measure `f`, recording one sample per configured iteration.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // warm-up run, unmeasured
        black_box(f());
        for _ in 0..self.per_sample {
            let t = Instant::now();
            black_box(f());
            self.samples.push(t.elapsed());
        }
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(name: &str, sample_size: usize, mut f: F) {
    let mut b = Bencher { samples: Vec::new(), per_sample: sample_size };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{name:<40} (no samples)");
        return;
    }
    b.samples.sort_unstable();
    let median = b.samples[b.samples.len() / 2];
    let min = b.samples[0];
    let max = b.samples[b.samples.len() - 1];
    println!(
        "{name:<40} time: [{} {} {}] ({} samples)",
        fmt_duration(min),
        fmt_duration(median),
        fmt_duration(max),
        b.samples.len(),
    );
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Declare a bench group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declare the bench entry point, mirroring criterion's macro.
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
    fn bench_runs_and_records() {
        let mut c = Criterion::default();
        c.sample_size(3);
        let mut runs = 0;
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(2);
            g.bench_function("noop", |b| {
                b.iter(|| {
                    runs += 1;
                })
            });
            g.finish();
        }
        // 1 warm-up + 2 samples
        assert_eq!(runs, 3);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5 ns");
        assert!(fmt_duration(Duration::from_micros(5)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(5)).ends_with(" s"));
    }
}
