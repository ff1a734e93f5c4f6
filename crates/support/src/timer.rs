//! A `std::time::Instant` benchmark harness, plus the cooperative
//! cancellation primitives the engine's session layer builds on.
//!
//! Replaces criterion in `crates/bench`: each bench target is an ordinary
//! binary (`harness = false`) that builds a [`Harness`], registers
//! closures with [`Harness::bench`], and prints a fixed-width table on
//! [`Harness::finish`]. Measurement is deliberately simple — warm up, then
//! time batches until a wall-clock budget is spent — because the paper
//! reproductions compare orders of magnitude, not nanoseconds.
//!
//! Set `INSTA_BENCH_FAST=1` to run every bench with a tiny budget (used by
//! `scripts/ci.sh` to smoke-test that bench binaries still execute).
//!
//! [`CancelToken`] and [`Deadline`] are deliberately tiny: a shared atomic
//! flag and an absolute `Instant`. Long-running kernels poll them at
//! coarse, bounded intervals (once per topological level in the engine) —
//! cooperative cancellation, never preemption, so a poll can only observe
//! consistent state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag.
///
/// Cloning is cheap (an `Arc` bump) and every clone observes the same
/// flag, so a controller thread can hold one clone and fire it while a
/// worker polls another. Once cancelled a token stays cancelled; create a
/// fresh token per unit of cancellable work.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    fired: Arc<AtomicBool>,
}

impl CancelToken {
    /// A new, un-fired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.fired.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }
}

/// An absolute wall-clock deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Self {
            at: Instant::now() + budget,
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(at: Instant) -> Self {
        Self { at }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }
}

/// Re-export of [`std::hint::black_box`] under the name bench code expects.
pub use std::hint::black_box;

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name (criterion-style `group/param` labels encouraged).
    pub name: String,
    /// Number of timed iterations.
    pub iters: u64,
    /// Mean wall time per iteration.
    pub mean: Duration,
    /// Fastest observed iteration.
    pub min: Duration,
    /// Slowest observed iteration.
    pub max: Duration,
}

/// A benchmark suite: measures closures and renders a summary table.
pub struct Harness {
    suite: String,
    budget: Duration,
    warmup: Duration,
    results: Vec<Measurement>,
}

impl Harness {
    /// Creates a harness with the default per-bench budget (~1 s measure,
    /// ~0.3 s warmup), or a minimal budget when `INSTA_BENCH_FAST` is set.
    pub fn new(suite: impl Into<String>) -> Self {
        let fast = std::env::var_os("INSTA_BENCH_FAST").is_some();
        Self {
            suite: suite.into(),
            budget: if fast {
                Duration::from_millis(10)
            } else {
                Duration::from_millis(1000)
            },
            warmup: if fast {
                Duration::ZERO
            } else {
                Duration::from_millis(300)
            },
            results: Vec::new(),
        }
    }

    /// Overrides the measurement budget.
    pub fn budget(mut self, budget: Duration) -> Self {
        self.budget = budget;
        self
    }

    /// Measures `f` and records the result. The closure's return value is
    /// passed through [`black_box`] so the work is not optimized away.
    pub fn bench<R>(&mut self, name: impl Into<String>, mut f: impl FnMut() -> R) {
        let name = name.into();
        // Warmup: run until the warmup budget is spent (at least once).
        let start = Instant::now();
        loop {
            black_box(f());
            if start.elapsed() >= self.warmup {
                break;
            }
        }
        // Measure individual iterations until the budget is spent.
        let mut iters: u64 = 0;
        let mut total = Duration::ZERO;
        let mut min = Duration::MAX;
        let mut max = Duration::ZERO;
        while total < self.budget {
            let t0 = Instant::now();
            black_box(f());
            let dt = t0.elapsed();
            iters += 1;
            total += dt;
            min = min.min(dt);
            max = max.max(dt);
        }
        let m = Measurement {
            name,
            iters,
            mean: total / (iters as u32).max(1),
            min,
            max,
        };
        eprintln!(
            "  {:<44} {:>12} mean  {:>12} min  ({} iters)",
            m.name,
            fmt_duration(m.mean),
            fmt_duration(m.min),
            m.iters
        );
        self.results.push(m);
    }

    /// Records an already-measured duration (for one-shot phases measured
    /// inline, e.g. a single full-update that is too slow to repeat).
    pub fn record(&mut self, name: impl Into<String>, elapsed: Duration) {
        let m = Measurement {
            name: name.into(),
            iters: 1,
            mean: elapsed,
            min: elapsed,
            max: elapsed,
        };
        eprintln!(
            "  {:<44} {:>12} (one-shot)",
            m.name,
            fmt_duration(m.mean)
        );
        self.results.push(m);
    }

    /// Prints the summary table and returns the measurements.
    pub fn finish(self) -> Vec<Measurement> {
        println!("\n== {} ==", self.suite);
        println!(
            "{:<44} {:>12} {:>12} {:>12} {:>8}",
            "benchmark", "mean", "min", "max", "iters"
        );
        for m in &self.results {
            println!(
                "{:<44} {:>12} {:>12} {:>12} {:>8}",
                m.name,
                fmt_duration(m.mean),
                fmt_duration(m.min),
                fmt_duration(m.max),
                m.iters
            );
        }
        self.results
    }
}

/// Human-readable duration with an adaptive unit.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_reports() {
        let mut h = Harness::new("unit").budget(Duration::from_millis(5));
        let mut acc = 0u64;
        h.bench("add", || {
            acc = acc.wrapping_add(1);
            acc
        });
        let results = h.finish();
        assert_eq!(results.len(), 1);
        assert!(results[0].iters >= 1);
        assert!(results[0].min <= results[0].mean);
        assert!(results[0].mean <= results[0].max);
    }

    #[test]
    fn record_is_one_shot() {
        let mut h = Harness::new("unit");
        h.record("phase", Duration::from_millis(3));
        let r = h.finish();
        assert_eq!(r[0].iters, 1);
        assert_eq!(r[0].mean, Duration::from_millis(3));
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5 ns");
        assert!(fmt_duration(Duration::from_micros(5)).contains("µs"));
        assert!(fmt_duration(Duration::from_millis(5)).contains("ms"));
        assert!(fmt_duration(Duration::from_secs(5)).contains(" s"));
    }

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.is_cancelled());
        assert!(!clone.is_cancelled());
        clone.cancel();
        assert!(t.is_cancelled(), "cancellation must be visible to all clones");
        clone.cancel(); // idempotent
        assert!(clone.is_cancelled());
    }

    #[test]
    fn cancel_token_crosses_threads() {
        let t = CancelToken::new();
        let remote = t.clone();
        std::thread::spawn(move || remote.cancel())
            .join()
            .expect("cancel thread");
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_expiry() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        let past = Deadline::after(Duration::ZERO);
        assert!(past.expired());
        let at = Deadline::at(Instant::now());
        assert!(at.expired());
    }
}
