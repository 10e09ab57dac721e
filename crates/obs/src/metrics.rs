//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms.
//!
//! Hot paths register once (getting a typed id handle) and then update
//! through the id — an O(1) vector index, no string hashing per packet.
//! The registry holds live values only: a run's [`crate::Telemetry`]
//! bundle owns it and streams per-period deltas of it to its sink
//! ([`crate::Aggregator`]).

use std::cell::RefCell;
use std::rc::Rc;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A fixed-bucket histogram: counts of observations falling at or below
/// each upper bound, plus an implicit overflow bucket, with running
/// count and sum for mean computation.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// Creates a histogram with the given ascending upper bounds. An
    /// overflow bucket is appended automatically.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of observed values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The configured upper bounds (excludes the implicit overflow).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }
}

/// The metrics registry.
///
/// Register each metric once (typically at construction) to obtain an
/// id handle, then update through the handle on the hot path.
#[derive(Debug, Default)]
pub struct Registry {
    counter_names: Vec<String>,
    counters: Vec<u64>,
    gauge_names: Vec<String>,
    gauges: Vec<f64>,
    histogram_names: Vec<String>,
    histograms: Vec<Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-resolves) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counter_names.iter().position(|n| n == name) {
            return CounterId(i);
        }
        self.counter_names.push(name.to_string());
        self.counters.push(0);
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or re-resolves) a gauge by name.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauge_names.iter().position(|n| n == name) {
            return GaugeId(i);
        }
        self.gauge_names.push(name.to_string());
        self.gauges.push(0.0);
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers a histogram by name with the given bucket upper bounds.
    /// Re-registration under the same name returns the existing handle
    /// (the original bounds win).
    pub fn histogram(&mut self, name: &str, bounds: &[f64]) -> HistogramId {
        if let Some(i) = self.histogram_names.iter().position(|n| n == name) {
            return HistogramId(i);
        }
        self.histogram_names.push(name.to_string());
        self.histograms.push(Histogram::new(bounds));
        HistogramId(self.histograms.len() - 1)
    }

    /// Increments a counter by `n`.
    #[inline]
    pub fn inc(&mut self, id: CounterId, n: u64) {
        self.counters[id.0] += n;
    }

    /// Reads a counter's current value.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Sets a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0] = value;
    }

    /// Reads a gauge's current value.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0]
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        self.histograms[id.0].observe(value);
    }

    /// Iterates `(name, value)` over all registered counters, in
    /// registration order. Used by the streaming aggregation stage.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_names
            .iter()
            .map(String::as_str)
            .zip(self.counters.iter().copied())
    }

    /// Iterates `(name, value)` over all registered gauges, in
    /// registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauge_names
            .iter()
            .map(String::as_str)
            .zip(self.gauges.iter().copied())
    }

    /// Iterates `(name, histogram)` over all registered histograms, in
    /// registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histogram_names
            .iter()
            .map(String::as_str)
            .zip(self.histograms.iter())
    }
}

/// A registry shareable between the engine and the switch it drives.
pub type MetricsHandle = Rc<RefCell<Registry>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let mut r = Registry::new();
        let c = r.counter("pkts");
        let g = r.gauge("depth");
        r.inc(c, 3);
        r.inc(c, 2);
        r.set(g, 7.5);
        assert_eq!(r.counter_value(c), 5);
        assert_eq!(r.gauge_value(g), 7.5);
        // Re-registration resolves to the same handle.
        assert_eq!(r.counter("pkts"), c);
        assert_eq!(r.gauge("depth"), g);
    }

    #[test]
    fn histogram_buckets_by_upper_bound_inclusive() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        h.observe(0.5); // bucket 0
        h.observe(1.0); // bucket 0 (le semantics)
        h.observe(5.0); // bucket 1
        h.observe(100.0); // bucket 2
        h.observe(1e6); // overflow
        assert_eq!(h.bucket_counts(), &[2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 1_000_106.5).abs() < 1e-9);
        assert!((h.mean().unwrap() - 200_021.3).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10.0, 1.0]);
    }
}
