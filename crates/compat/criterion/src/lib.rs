//! Offline shim for the `criterion` API subset this workspace uses.
//!
//! Implements a small wall-clock benchmark harness behind criterion's
//! interface (`Criterion`, `BenchmarkGroup`, `Bencher`, `BenchmarkId`,
//! `Throughput`, `BatchSize`, `criterion_group!`, `criterion_main!`).
//! Each benchmark is auto-calibrated to a short measurement window and
//! reports mean ns/iteration on stdout. Set `CRITERION_QUICK=1` (or pass
//! `--quick`) to shrink the window for smoke runs.

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimiser value wrapper, re-exported from `std::hint`.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id combining a function name and a parameter value.
    pub fn new<P: Display>(name: &str, parameter: P) -> Self {
        BenchmarkId {
            label: format!("{name}/{parameter}"),
        }
    }

    /// An id naming only the parameter value.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(label: &str) -> Self {
        BenchmarkId {
            label: label.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        BenchmarkId { label }
    }
}

/// Throughput annotation for a benchmark group (recorded, used to report
/// elements/second alongside time per iteration).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Iterations process this many logical elements each.
    Elements(u64),
    /// Iterations process this many bytes each.
    Bytes(u64),
}

/// How batched iteration amortises setup cost; the shim treats all variants
/// identically.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup call per iteration.
    PerIteration,
}

/// Drives timed iterations of one benchmark routine.
pub struct Bencher {
    measurement: Duration,
    /// Mean nanoseconds per iteration, filled in by `iter`.
    ns_per_iter: f64,
    iters: u64,
}

impl Bencher {
    /// Runs `routine` repeatedly and records its mean time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Calibrate: find an iteration count filling the measurement window.
        let mut n: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..n {
                std_black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= self.measurement || n >= u64::MAX / 2 {
                self.ns_per_iter = elapsed.as_nanos() as f64 / n as f64;
                self.iters = n;
                return;
            }
            let target = self.measurement.as_nanos() as f64;
            let scale = (target / elapsed.as_nanos().max(1) as f64).clamp(2.0, 100.0);
            n = ((n as f64) * scale) as u64;
        }
    }

    /// Calls `routine` with an iteration count and records the time it
    /// reports for that many iterations: the routine times only the part
    /// of each iteration it means to measure.
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut routine: F) {
        let mut n: u64 = 1;
        loop {
            let elapsed = routine(n);
            if elapsed >= self.measurement || n >= 1 << 20 {
                self.ns_per_iter = elapsed.as_nanos() as f64 / n as f64;
                self.iters = n;
                return;
            }
            let target = self.measurement.as_nanos() as f64;
            let scale = (target / elapsed.as_nanos().max(1) as f64).clamp(2.0, 100.0);
            n = ((n as f64) * scale) as u64;
        }
    }

    /// Runs `routine` on fresh inputs from `setup`, timing only `routine`.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let mut n: u64 = 1;
        loop {
            let inputs: Vec<I> = (0..n).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                std_black_box(routine(input));
            }
            let elapsed = start.elapsed();
            if elapsed >= self.measurement || n >= 1 << 20 {
                self.ns_per_iter = elapsed.as_nanos() as f64 / n as f64;
                self.iters = n;
                return;
            }
            let target = self.measurement.as_nanos() as f64;
            let scale = (target / elapsed.as_nanos().max(1) as f64).clamp(2.0, 100.0);
            n = ((n as f64) * scale) as u64;
        }
    }
}

fn quick_mode() -> bool {
    std::env::var("CRITERION_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
        || std::env::args().any(|a| a == "--quick")
}

fn measurement_window() -> Duration {
    if quick_mode() {
        Duration::from_millis(20)
    } else {
        Duration::from_millis(300)
    }
}

fn report(group: Option<&str>, label: &str, bencher: &Bencher, throughput: Option<Throughput>) {
    let name = match group {
        Some(g) => format!("{g}/{label}"),
        None => label.to_string(),
    };
    let per_iter = bencher.ns_per_iter;
    let rate = match throughput {
        Some(Throughput::Elements(n)) => {
            format!("  {:.0} elem/s", n as f64 * 1e9 / per_iter.max(1e-9))
        }
        Some(Throughput::Bytes(n)) => {
            format!("  {:.0} B/s", n as f64 * 1e9 / per_iter.max(1e-9))
        }
        None => String::new(),
    };
    println!(
        "bench {name:<48} {per_iter:>14.1} ns/iter  ({} iters){rate}",
        bencher.iters
    );
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Annotates subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// Accepted for API compatibility; the shim auto-calibrates its
    /// iteration counts instead of sampling.
    pub fn sample_size(&mut self, _samples: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; the shim uses a fixed short
    /// measurement window.
    pub fn measurement_time(&mut self, _window: std::time::Duration) -> &mut Self {
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<I: Into<BenchmarkId>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut bencher = Bencher {
            measurement: measurement_window(),
            ns_per_iter: 0.0,
            iters: 0,
        };
        f(&mut bencher);
        report(Some(&self.name), &id.label, &bencher, self.throughput);
        self
    }

    /// Runs one parameterised benchmark in the group.
    pub fn bench_with_input<I: Into<BenchmarkId>, P: ?Sized, F: FnMut(&mut Bencher, &P)>(
        &mut self,
        id: I,
        input: &P,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut bencher = Bencher {
            measurement: measurement_window(),
            ns_per_iter: 0.0,
            iters: 0,
        };
        f(&mut bencher, input);
        report(Some(&self.name), &id.label, &bencher, self.throughput);
        self
    }

    /// Ends the group.
    pub fn finish(&mut self) {}
}

/// The benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            throughput: None,
            _criterion: self,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut bencher = Bencher {
            measurement: measurement_window(),
            ns_per_iter: 0.0,
            iters: 0,
        };
        f(&mut bencher);
        report(None, name, &bencher, None);
        self
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark `main` function, mirroring criterion's macro.
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
    fn bencher_measures_something() {
        std::env::set_var("CRITERION_QUICK", "1");
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut group = c.benchmark_group("group");
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(4), &4u64, |b, &n| {
            b.iter_batched(|| n, |v| v * 2, BatchSize::SmallInput)
        });
        group.finish();
    }
}
