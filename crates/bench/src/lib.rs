//! # accturbo-bench
//!
//! A dependency-free micro-benchmark harness. The build environment has
//! no crates.io access (see README.md), so Criterion is not available;
//! this module provides the subset the workspace's benches need:
//! warmup, iteration-count calibration, repeated samples, and a
//! median/min/mean report with optional element throughput.
//!
//! Bench binaries (`benches/*.rs`, `harness = false`) construct a
//! [`Harness`] from the command line and register closures:
//!
//! ```no_run
//! let h = accturbo_bench::Harness::from_args();
//! h.run("my_bench", || { /* timed work */ });
//! ```
//!
//! `cargo bench` passes `--bench`; any bare argument is a substring
//! filter on bench names; `--test` (what `cargo test --benches` passes)
//! switches to smoke mode — every selected bench runs exactly once so
//! CI catches breakage without paying for timing fidelity.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One benchmark's timing summary.
#[derive(Debug, Clone)]
pub struct Stats {
    /// The benchmark's name as printed.
    pub name: String,
    /// Per-iteration nanoseconds, one entry per sample, sorted ascending.
    pub ns_per_iter: Vec<f64>,
    /// Elements processed per iteration (enables throughput reporting).
    pub elements: Option<u64>,
}

impl Stats {
    /// Median nanoseconds per iteration — the headline number.
    pub fn median_ns(&self) -> f64 {
        let v = &self.ns_per_iter;
        if v.is_empty() {
            return 0.0;
        }
        let mid = v.len() / 2;
        if v.len() % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        }
    }

    /// Fastest sample — the least-noise estimate of the true cost.
    pub fn min_ns(&self) -> f64 {
        self.ns_per_iter.first().copied().unwrap_or(0.0)
    }

    /// Mean nanoseconds per iteration across samples.
    pub fn mean_ns(&self) -> f64 {
        if self.ns_per_iter.is_empty() {
            return 0.0;
        }
        self.ns_per_iter.iter().sum::<f64>() / self.ns_per_iter.len() as f64
    }
}

/// Relative cost of `probe` over `base` in percent, median-based:
/// `+1.5` means the probe's median iteration is 1.5% slower.
pub fn overhead_pct(base: &Stats, probe: &Stats) -> f64 {
    let b = base.median_ns();
    if b <= 0.0 {
        return 0.0;
    }
    (probe.median_ns() - b) / b * 100.0
}

/// Formats nanoseconds with a human-scale unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// The bench runner: selection, calibration, and reporting policy.
pub struct Harness {
    smoke: bool,
    filter: Vec<String>,
    samples: usize,
    target_sample: Duration,
}

impl Harness {
    /// Builds a harness from the process's command line: bare arguments
    /// are name filters, `--test` selects smoke mode, other flags (such
    /// as cargo's `--bench`) are ignored.
    pub fn from_args() -> Self {
        let mut smoke = false;
        let mut filter = Vec::new();
        for a in std::env::args().skip(1) {
            match a.as_str() {
                "--test" => smoke = true,
                s if s.starts_with('-') => {}
                s => filter.push(s.to_string()),
            }
        }
        Self::new(smoke, filter)
    }

    /// Builds a harness directly (used by tests).
    pub fn new(smoke: bool, filter: Vec<String>) -> Self {
        Harness {
            smoke,
            filter,
            samples: 15,
            target_sample: Duration::from_millis(25),
        }
    }

    /// Overrides the sample count (e.g. fewer samples for benches whose
    /// single iteration already takes seconds).
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = samples.max(1);
        self
    }

    /// Whether smoke mode (`--test`) is active.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    fn selected(&self, name: &str) -> bool {
        self.filter.is_empty() || self.filter.iter().any(|f| name.contains(f))
    }

    /// Benches a closure with no per-iteration setup. Returns the stats,
    /// or `None` when the name filter excludes it.
    pub fn run<F: FnMut()>(&self, name: &str, mut f: F) -> Option<Stats> {
        self.run_batched(name, None, || (), |()| f())
    }

    /// [`Harness::run`] with element-throughput reporting: `elements` is
    /// how many items one iteration processes.
    pub fn throughput<F: FnMut()>(&self, name: &str, elements: u64, mut f: F) -> Option<Stats> {
        self.run_batched(name, Some(elements), || (), |()| f())
    }

    /// The general form: `setup` builds fresh (untimed) state for every
    /// iteration, `routine` consumes it under the clock. Mirrors
    /// Criterion's `iter_batched`.
    pub fn run_batched<T, S, F>(
        &self,
        name: &str,
        elements: Option<u64>,
        mut setup: S,
        mut routine: F,
    ) -> Option<Stats>
    where
        S: FnMut() -> T,
        F: FnMut(T),
    {
        if !self.selected(name) {
            return None;
        }

        // One calibration pass: warms caches and estimates the cost so
        // each sample aggregates enough iterations to be clock-readable.
        let (iters, samples) = self.plan(time_once(&mut setup, &mut routine));
        let ns = (0..samples)
            .map(|_| sample(iters, &mut setup, &mut routine))
            .collect();
        Some(self.finish(name, elements, ns, iters))
    }

    /// Benches `rows` that share one `setup` and are compared with each
    /// other, interleaved sample by sample (row 0, row 1, …, row 0,
    /// row 1, …): a machine that speeds up or slows down during the run
    /// then shifts every row alike instead of favouring the row that
    /// ran first. Every row runs the same iterations per sample, planned
    /// from the slowest row's calibration pass. Returns one entry per
    /// row, `None` where the name filter excludes it.
    pub fn run_interleaved<T, S>(
        &self,
        mut setup: S,
        rows: &mut [(&str, &mut dyn FnMut(T))],
    ) -> Vec<Option<Stats>>
    where
        S: FnMut() -> T,
    {
        let picked: Vec<bool> = rows.iter().map(|(name, _)| self.selected(name)).collect();
        let mut one = Duration::ZERO;
        for ((_, routine), _) in rows.iter_mut().zip(&picked).filter(|(_, &p)| p) {
            one = one.max(time_once(&mut setup, routine));
        }
        let (iters, samples) = self.plan(one);
        let mut ns = vec![Vec::new(); rows.len()];
        for _ in 0..samples {
            for (((_, routine), ns), _) in rows
                .iter_mut()
                .zip(&mut ns)
                .zip(&picked)
                .filter(|(_, &p)| p)
            {
                ns.push(sample(iters, &mut setup, routine));
            }
        }
        rows.iter()
            .zip(ns)
            .zip(picked)
            .map(|(((name, _), ns), p)| p.then(|| self.finish(name, None, ns, iters)))
            .collect()
    }

    /// Iterations per sample and samples per bench for a routine whose
    /// calibration pass took `one`.
    fn plan(&self, one: Duration) -> (u64, usize) {
        if self.smoke {
            return (1, 1);
        }
        let one = one.max(Duration::from_nanos(1));
        let iters = (self.target_sample.as_nanos() / one.as_nanos()).clamp(1, 1_000_000);
        (iters as u64, self.samples)
    }

    /// Sorts the samples into a [`Stats`] and prints its report line.
    fn finish(&self, name: &str, elements: Option<u64>, mut ns: Vec<f64>, iters: u64) -> Stats {
        ns.sort_by(f64::total_cmp);
        let stats = Stats {
            name: name.to_string(),
            ns_per_iter: ns,
            elements,
        };
        self.report(&stats, iters);
        stats
    }

    fn report(&self, s: &Stats, iters: u64) {
        let mut line = format!(
            "{:<40} median {:>12}/iter  (min {}, mean {})",
            s.name,
            fmt_ns(s.median_ns()),
            fmt_ns(s.min_ns()),
            fmt_ns(s.mean_ns()),
        );
        if let Some(elems) = s.elements {
            let per_sec = elems as f64 / (s.median_ns() * 1e-9);
            line.push_str(&format!("  [{:.1} Melem/s]", per_sec / 1e6));
        }
        if self.smoke {
            line.push_str("  (smoke: 1 iteration)");
        } else {
            line.push_str(&format!(
                "  [{iters} iters x {} samples]",
                s.ns_per_iter.len()
            ));
        }
        println!("{line}");
    }
}

/// Runs `routine` once on fresh state and returns its wall time.
fn time_once<T>(setup: &mut impl FnMut() -> T, routine: &mut (impl FnMut(T) + ?Sized)) -> Duration {
    let state = setup();
    let t0 = Instant::now();
    routine(state);
    t0.elapsed()
}

/// One sample: the mean nanoseconds of `iters` timed iterations, each
/// on fresh (untimed) `setup` state.
fn sample<T>(
    iters: u64,
    setup: &mut impl FnMut() -> T,
    routine: &mut (impl FnMut(T) + ?Sized),
) -> f64 {
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        total += time_once(setup, routine);
    }
    total.as_nanos() as f64 / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn median_of_odd_and_even_sample_counts() {
        let odd = Stats {
            name: "odd".into(),
            ns_per_iter: vec![1.0, 2.0, 9.0],
            elements: None,
        };
        assert_eq!(odd.median_ns(), 2.0);
        let even = Stats {
            name: "even".into(),
            ns_per_iter: vec![1.0, 2.0, 4.0, 9.0],
            elements: None,
        };
        assert_eq!(even.median_ns(), 3.0);
        assert_eq!(even.min_ns(), 1.0);
        assert_eq!(even.mean_ns(), 4.0);
    }

    #[test]
    fn overhead_pct_is_relative_to_base() {
        let base = Stats {
            name: "b".into(),
            ns_per_iter: vec![100.0],
            elements: None,
        };
        let probe = Stats {
            name: "p".into(),
            ns_per_iter: vec![102.0],
            elements: None,
        };
        assert!((overhead_pct(&base, &probe) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn smoke_mode_runs_each_bench_exactly_once() {
        let h = Harness::new(true, Vec::new());
        let mut calls = 0u32;
        // One calibration pass + one smoke sample.
        let stats = h.run("count_calls", || calls += 1).unwrap();
        assert_eq!(calls, 2);
        assert_eq!(stats.ns_per_iter.len(), 1);
    }

    #[test]
    fn interleaved_rows_alternate_sample_by_sample() {
        let h = Harness::new(false, vec!["row_".into()]).with_samples(3);
        let order = RefCell::new(Vec::new());
        let mut a = |()| order.borrow_mut().push('a');
        let mut b = |()| order.borrow_mut().push('b');
        let mut c = |()| order.borrow_mut().push('c');
        let stats = h.run_interleaved(
            || (),
            &mut [("row_a", &mut a), ("skipped", &mut c), ("row_b", &mut b)],
        );
        assert!(stats[1].is_none(), "the filter still applies");
        let (a, b) = (stats[0].as_ref().unwrap(), stats[2].as_ref().unwrap());
        assert_eq!((a.ns_per_iter.len(), b.ns_per_iter.len()), (3, 3));
        // Calibration visits each row once, then every sample round runs
        // the same iteration count of each row in turn.
        let order = order.into_inner();
        let iters = (order.len() - 2) / 6;
        let round: Vec<char> = std::iter::repeat_n('a', iters)
            .chain(std::iter::repeat_n('b', iters))
            .collect();
        assert_eq!(order[..2], ['a', 'b']);
        for chunk in order[2..].chunks(2 * iters) {
            assert_eq!(chunk, &round[..]);
        }
    }

    #[test]
    fn filter_excludes_unmatched_names() {
        let h = Harness::new(true, vec!["queues".into()]);
        assert!(h.run("clustering_assign", || ()).is_none());
        assert!(h.run("queues_fifo", || ()).is_some());
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.000 s");
    }
}
