//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so this vendored shim
//! provides the slice of the criterion API the benches use: `Criterion`,
//! `benchmark_group` / `bench_with_input` / `bench_function`, `Bencher`
//! with `iter` / `iter_batched`, `BenchmarkId`, `BatchSize`,
//! `Throughput::Bytes`, and the `criterion_group!` / `criterion_main!`
//! macros.
//!
//! Measurement is deliberately simple: a short warmup, then timed
//! batches until a wall-clock budget is reached; the median per-iteration
//! time is printed as `group/id ... <time>` (followed by GB/s when the
//! group declared a [`Throughput`]). `--test` runs every bench
//! exactly once (the CI smoke mode); a positional argument filters
//! benchmarks by substring, as with real criterion.

use std::time::{Duration, Instant};

/// How `iter_batched` amortizes setup (accepted for API compatibility).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs: many per batch.
    SmallInput,
    /// Large inputs: few per batch.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Work done per iteration, so a group reports a rate beside its time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

/// Anything usable as a benchmark id (mirrors criterion's
/// `IntoBenchmarkId` flexibility for the call sites this workspace has).
pub trait IntoBenchmarkId {
    /// Convert into a [`BenchmarkId`].
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { id: self.to_string() }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { id: self }
    }
}

impl BenchmarkId {
    /// Id from a function name and a parameter.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: format!("{}/{}", name.into(), parameter) }
    }

    /// Id from a parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

/// The benchmark driver.
pub struct Criterion {
    filter: Option<String>,
    test_mode: bool,
    budget: Duration,
}

impl Criterion {
    /// Build from command-line arguments (`--test`, `--bench`, a filter).
    pub fn from_args() -> Self {
        let mut filter = None;
        let mut test_mode = false;
        for a in std::env::args().skip(1) {
            match a.as_str() {
                "--test" => test_mode = true,
                "--bench" | "--verbose" | "--quiet" | "--noplot" => {}
                s if s.starts_with("--") => {} // ignore unknown flags
                s => filter = Some(s.to_string()),
            }
        }
        Criterion { filter, test_mode, budget: Duration::from_millis(250) }
    }

    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), throughput: None }
    }

    /// Run a single ungrouped benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = name.to_string();
        self.run_one(&name, None, &mut f);
        self
    }

    fn matches(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }

    fn run_one<F>(&mut self, id: &str, throughput: Option<Throughput>, f: &mut F)
    where
        F: FnMut(&mut Bencher),
    {
        if !self.matches(id) {
            return;
        }
        let mut b = Bencher {
            test_mode: self.test_mode,
            budget: self.budget,
            samples: Vec::new(),
        };
        f(&mut b);
        if self.test_mode {
            println!("test {id} ... ok");
        } else {
            let t = b.median_ns();
            match throughput {
                // bytes per nanosecond == GB/s
                Some(Throughput::Bytes(bytes)) if t > 0 => {
                    println!("{id:<48} {}  {:.2} GB/s", fmt_ns(t), bytes as f64 / t as f64)
                }
                _ => println!("{id:<48} {}", fmt_ns(t)),
            }
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; sampling is budget-driven here.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Declare the work of one iteration for the benchmarks that follow.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benchmark a routine against a borrowed input.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.into_benchmark_id().id);
        self.criterion.run_one(&full, self.throughput, &mut |b: &mut Bencher| f(b, input));
        self
    }

    /// Benchmark a routine with no input.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into_benchmark_id().id);
        self.criterion.run_one(&full, self.throughput, &mut f);
        self
    }

    /// End the group (drop would do; kept for API compatibility).
    pub fn finish(self) {}
}

/// Times closures handed to it by a benchmark body.
pub struct Bencher {
    test_mode: bool,
    budget: Duration,
    samples: Vec<u64>,
}

impl Bencher {
    /// Time `routine` repeatedly.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        if self.test_mode {
            std::hint::black_box(routine());
            return;
        }
        // Warmup and per-batch calibration: grow the batch until one
        // batch takes ~1ms, then sample batches within the budget.
        let mut batch = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            let dt = t0.elapsed();
            if dt >= Duration::from_millis(1) || batch >= 1 << 20 {
                break;
            }
            batch *= 2;
        }
        let deadline = Instant::now() + self.budget;
        while Instant::now() < deadline || self.samples.len() < 5 {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            let ns = t0.elapsed().as_nanos() as u64 / batch;
            self.samples.push(ns);
            if self.samples.len() >= 200 {
                break;
            }
        }
    }

    /// Time `routine` on inputs produced by `setup` (setup untimed).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        if self.test_mode {
            std::hint::black_box(routine(setup()));
            return;
        }
        let deadline = Instant::now() + self.budget;
        while Instant::now() < deadline || self.samples.len() < 5 {
            let input = setup();
            let t0 = Instant::now();
            std::hint::black_box(routine(input));
            self.samples.push(t0.elapsed().as_nanos() as u64);
            if self.samples.len() >= 200 {
                break;
            }
        }
    }

    fn median_ns(&mut self) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        self.samples.sort_unstable();
        self.samples[self.samples.len() / 2]
    }
}

fn fmt_ns(ns: u64) -> String {
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

/// Re-export point used by `criterion::black_box` callers.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Define a function running the given benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::from_args();
            $( $target(&mut c); )+
        }
    };
}

/// Define `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
