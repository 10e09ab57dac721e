//! The per-period streaming stage: what the engine flushes into a
//! [`Sink`] at every control/stats period instead of accumulating.
//!
//! [`Aggregator`] turns the live [`Registry`] into per-period JSONL
//! lines — counter *deltas*, gauge last-values, histogram merges
//! (count/sum/bucket deltas) — remembering only one previous value per
//! metric, so its memory is O(metrics), not O(periods). [`Telemetry`]
//! bundles the whole streaming configuration for one run: the output
//! sink, the aggregator, an optional reservoir [`FlowSampler`] feeding
//! a [`DatasetSink`] at end of run, an optional shared
//! [`FlightRecorder`](crate::FlightRecorder), and a pulse-onset heuristic that arms the
//! recorder when per-period drops jump.
//!
//! Line shapes emitted each period at time `ts`:
//!
//! ```json
//! {"ts":..,"ev":"period","n":0,"arrivals":..,"departures":..,
//!  "drops":..,"bytes_in":..,"bytes_out":..,"backlog":..}
//! {"ts":..,"ev":"agg","metric":"..","type":"counter","delta":..,"total":..}
//! {"ts":..,"ev":"agg","metric":"..","type":"gauge","value":..}
//! {"ts":..,"ev":"agg","metric":"..","type":"histogram","count":..,
//!  "sum":..,"buckets":[["b",dc],..]}
//! {"ts":..,"ev":"pulse_onset","drops":..,"prev_drops":..}
//! ```

use crate::flight::SharedFlightRecorder;
use crate::json::{escape_json, json_f64};
use crate::metrics::Registry;
use crate::sample::{FlowKey, FlowSampler};
use crate::sink::{DatasetSink, Sink};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Per-period reduction of a [`Registry`]: counter deltas, gauge
/// last-values, histogram count/sum/bucket deltas. Holds one previous
/// value per metric.
#[derive(Debug, Default)]
pub struct Aggregator {
    prev_counters: HashMap<String, u64>,
    prev_hists: HashMap<String, (u64, f64, Vec<u64>)>,
}

impl Aggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Emits one `agg` line per registered metric covering the period
    /// ending at `ts_ns`, and advances the remembered previous values.
    /// Returns the number of lines emitted.
    pub fn flush(&mut self, r: &Registry, ts_ns: u64, sink: &mut dyn Sink) -> u64 {
        let mut line = String::with_capacity(128);
        let mut lines = 0u64;
        for (name, value) in r.counters() {
            let prev = self.prev_counters.get(name).copied().unwrap_or(0);
            if prev != value {
                self.prev_counters.insert(name.to_string(), value);
            }
            line.clear();
            let _ = write!(line, "{{\"ts\":{ts_ns},\"ev\":\"agg\",\"metric\":\"");
            escape_json(name, &mut line);
            let _ = write!(
                line,
                "\",\"type\":\"counter\",\"delta\":{},\"total\":{value}}}",
                value - prev
            );
            sink.emit(&line);
            lines += 1;
        }
        for (name, value) in r.gauges() {
            line.clear();
            let _ = write!(line, "{{\"ts\":{ts_ns},\"ev\":\"agg\",\"metric\":\"");
            escape_json(name, &mut line);
            line.push_str("\",\"type\":\"gauge\",\"value\":");
            json_f64(value, &mut line);
            line.push('}');
            sink.emit(&line);
            lines += 1;
        }
        for (name, h) in r.histograms() {
            let (pc, ps, pb) = self
                .prev_hists
                .get(name)
                .cloned()
                .unwrap_or_else(|| (0, 0.0, vec![0; h.bucket_counts().len()]));
            line.clear();
            let _ = write!(line, "{{\"ts\":{ts_ns},\"ev\":\"agg\",\"metric\":\"");
            escape_json(name, &mut line);
            let _ = write!(
                line,
                "\",\"type\":\"histogram\",\"count\":{},\"sum\":",
                h.count() - pc
            );
            json_f64(h.sum() - ps, &mut line);
            line.push_str(",\"buckets\":[");
            for (i, &c) in h.bucket_counts().iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str("[\"");
                if i < h.bounds().len() {
                    json_f64(h.bounds()[i], &mut line);
                } else {
                    line.push_str("+inf");
                }
                let _ = write!(line, "\",{}]", c - pb.get(i).copied().unwrap_or(0));
            }
            line.push_str("]}");
            sink.emit(&line);
            lines += 1;
            self.prev_hists.insert(
                name.to_string(),
                (h.count(), h.sum(), h.bucket_counts().to_vec()),
            );
        }
        lines
    }
}

/// Packet/byte counters for the period in flight.
#[derive(Debug, Default, Clone, Copy)]
struct PeriodCounters {
    arrivals: u64,
    departures: u64,
    drops: u64,
    bytes_in: u64,
    bytes_out: u64,
}

/// The streaming-telemetry bundle for one run. See the module docs.
///
/// Engine hot-path hooks ([`Telemetry::on_arrival`] / `on_drop` /
/// `on_depart`) only bump counters and feed the reservoir; all line
/// formatting happens in [`Telemetry::on_period`] at period boundaries.
pub struct Telemetry {
    sink: Option<Box<dyn Sink>>,
    aggregator: Aggregator,
    sampler: Option<FlowSampler>,
    dataset: Option<DatasetSink>,
    recorder: Option<SharedFlightRecorder>,
    /// Pulse-onset fires when period drops ≥ floor and > factor × prev.
    pulse_factor: f64,
    pulse_floor: u64,
    cur: PeriodCounters,
    prev_drops: u64,
    periods: u64,
    sink_lines: u64,
    pulse_onsets: u64,
    finished: bool,
    line: String,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Creates an empty bundle (no sink, no sampler, no recorder).
    pub fn new() -> Self {
        Telemetry {
            sink: None,
            aggregator: Aggregator::new(),
            sampler: None,
            dataset: None,
            recorder: None,
            pulse_factor: 4.0,
            pulse_floor: 50,
            cur: PeriodCounters::default(),
            prev_drops: 0,
            periods: 0,
            sink_lines: 0,
            pulse_onsets: 0,
            finished: false,
            line: String::with_capacity(160),
        }
    }

    /// Streams period/aggregate lines into `sink`.
    pub fn with_sink(mut self, sink: Box<dyn Sink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Samples per-flow records through `sampler`.
    pub fn with_flow_sampler(mut self, sampler: FlowSampler) -> Self {
        self.sampler = Some(sampler);
        self
    }

    /// Exports the sampled flows into `dataset` at end of run. Implies
    /// a default 4096-flow sampler (seed 0) when none was set.
    pub fn with_dataset(mut self, dataset: DatasetSink) -> Self {
        if self.sampler.is_none() {
            self.sampler = Some(FlowSampler::new(4096, 0));
        }
        self.dataset = Some(dataset);
        self
    }

    /// Attaches a shared flight recorder; the pulse-onset heuristic
    /// arms it, and callers can hand clones of the same handle to the
    /// engine/switch as their tracer.
    pub fn with_recorder(mut self, recorder: SharedFlightRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Overrides the pulse-onset heuristic: fire when a period's drops
    /// reach `floor` and exceed `factor ×` the previous period's.
    pub fn with_pulse_onset(mut self, factor: f64, floor: u64) -> Self {
        self.pulse_factor = factor;
        self.pulse_floor = floor;
        self
    }

    /// A clone of the attached flight-recorder handle, if any.
    pub fn recorder_handle(&self) -> Option<SharedFlightRecorder> {
        self.recorder.clone()
    }

    /// Periods flushed so far.
    pub fn periods(&self) -> u64 {
        self.periods
    }

    /// Lines emitted to the sink so far.
    pub fn sink_lines(&self) -> u64 {
        self.sink_lines
    }

    /// Pulse onsets detected so far.
    pub fn pulse_onsets(&self) -> u64 {
        self.pulse_onsets
    }

    /// Distinct flows offered to the sampler (0 when not sampling).
    pub fn flows_seen(&self) -> u64 {
        self.sampler.as_ref().map_or(0, |s| s.flows_seen())
    }

    /// Flows currently held by the sampler (0 when not sampling).
    pub fn flows_sampled(&self) -> usize {
        self.sampler.as_ref().map_or(0, |s| s.len())
    }

    /// Dataset rows written (0 before [`Telemetry::finish`]).
    pub fn dataset_rows(&self) -> u64 {
        self.dataset.as_ref().map_or(0, |d| d.rows())
    }

    /// Flight-recorder windows dumped (0 without a recorder).
    pub fn recorder_windows(&self) -> u64 {
        self.recorder
            .as_ref()
            .map_or(0, |r| r.borrow().windows_emitted())
    }

    /// One packet arrived at the switch.
    #[inline]
    pub fn on_arrival(&mut self, ts_ns: u64, key: FlowKey, class: u16, size: u32) {
        self.cur.arrivals += 1;
        self.cur.bytes_in += u64::from(size);
        if let Some(s) = &mut self.sampler {
            s.offer(ts_ns, key, class, size);
        }
    }

    /// One packet was dropped by the switch.
    #[inline]
    pub fn on_drop(&mut self, key: &FlowKey) {
        self.cur.drops += 1;
        if let Some(s) = &mut self.sampler {
            s.on_drop(key);
        }
    }

    /// One packet finished transmission.
    #[inline]
    pub fn on_depart(&mut self, size: u32) {
        self.cur.departures += 1;
        self.cur.bytes_out += u64::from(size);
    }

    /// Flushes the period ending at `ts_ns`: the `period` line, one
    /// `agg` line per metric in `registry`, the pulse-onset check, and
    /// a sink flush. Resets the period counters.
    pub fn on_period(&mut self, ts_ns: u64, backlog_pkts: usize, registry: Option<&Registry>) {
        let cur = self.cur;
        if let Some(sink) = &mut self.sink {
            let mut line = std::mem::take(&mut self.line);
            line.clear();
            let _ = write!(
                line,
                "{{\"ts\":{ts_ns},\"ev\":\"period\",\"n\":{},\"arrivals\":{},\"departures\":{},\"drops\":{},\"bytes_in\":{},\"bytes_out\":{},\"backlog\":{backlog_pkts}}}",
                self.periods, cur.arrivals, cur.departures, cur.drops, cur.bytes_in, cur.bytes_out,
            );
            sink.emit(&line);
            self.line = line;
            self.sink_lines += 1;
            if let Some(r) = registry {
                self.sink_lines += self.aggregator.flush(r, ts_ns, sink.as_mut());
            }
        }
        if cur.drops >= self.pulse_floor
            && cur.drops as f64 > self.prev_drops as f64 * self.pulse_factor
        {
            self.pulse_onsets += 1;
            if let Some(sink) = &mut self.sink {
                let mut line = std::mem::take(&mut self.line);
                line.clear();
                let _ = write!(
                    line,
                    "{{\"ts\":{ts_ns},\"ev\":\"pulse_onset\",\"drops\":{},\"prev_drops\":{}}}",
                    cur.drops, self.prev_drops,
                );
                sink.emit(&line);
                self.line = line;
                self.sink_lines += 1;
            }
            if let Some(rec) = &self.recorder {
                rec.borrow_mut().trigger(ts_ns, "pulse_onset");
            }
        }
        self.prev_drops = cur.drops;
        self.cur = PeriodCounters::default();
        self.periods += 1;
        if let Some(sink) = &mut self.sink {
            sink.flush();
        }
    }

    /// End of run: flushes the final partial period, exports the
    /// dataset, and drains the flight recorder. Idempotent.
    pub fn finish(&mut self, ts_ns: u64, backlog_pkts: usize, registry: Option<&Registry>) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.on_period(ts_ns, backlog_pkts, registry);
        if let (Some(dataset), Some(sampler)) = (&mut self.dataset, &self.sampler) {
            dataset.export(sampler.records());
        }
        if let Some(rec) = &self.recorder {
            rec.borrow_mut().finish();
        }
        if let Some(sink) = &mut self.sink {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingSink;

    fn ring_telemetry(cap: usize) -> Telemetry {
        Telemetry::new().with_sink(Box::new(RingSink::new(cap)))
    }

    fn key(n: u32) -> FlowKey {
        FlowKey {
            src: n,
            dst: 1,
            sport: 1,
            dport: 2,
            proto: 17,
        }
    }

    #[test]
    fn period_line_carries_deltas_and_resets() {
        let mut t = ring_telemetry(64);
        t.on_arrival(10, key(1), 0, 100);
        t.on_arrival(20, key(2), 1, 200);
        t.on_depart(100);
        t.on_period(1_000, 5, None);
        t.on_period(2_000, 0, None);
        assert_eq!(t.periods(), 2);
        assert_eq!(t.sink_lines(), 2);
        // Inspect via a fresh ring: re-run against a probe is clumsy, so
        // assert on the counters the lines were built from instead.
        assert_eq!(t.cur.arrivals, 0, "period counters reset");
    }

    #[test]
    fn aggregator_emits_counter_deltas_and_gauge_last_values() {
        let mut r = Registry::new();
        let c = r.counter("pkts");
        let g = r.gauge("depth");
        let h = r.histogram("lat", &[1.0]);
        let mut agg = Aggregator::new();
        let mut sink = RingSink::new(64);

        r.inc(c, 5);
        r.set(g, 2.0);
        r.observe(h, 0.5);
        agg.flush(&r, 1_000, &mut sink);
        r.inc(c, 3);
        r.set(g, 7.0);
        r.observe(h, 5.0);
        agg.flush(&r, 2_000, &mut sink);

        let text = sink.to_jsonl();
        assert!(text.contains(
            "{\"ts\":1000,\"ev\":\"agg\",\"metric\":\"pkts\",\"type\":\"counter\",\"delta\":5,\"total\":5}"
        ));
        assert!(text.contains(
            "{\"ts\":2000,\"ev\":\"agg\",\"metric\":\"pkts\",\"type\":\"counter\",\"delta\":3,\"total\":8}"
        ));
        assert!(text.contains(
            "{\"ts\":2000,\"ev\":\"agg\",\"metric\":\"depth\",\"type\":\"gauge\",\"value\":7}"
        ));
        // Second histogram flush shows only the new observation.
        assert!(text.contains(
            "{\"ts\":2000,\"ev\":\"agg\",\"metric\":\"lat\",\"type\":\"histogram\",\"count\":1,\"sum\":5,\"buckets\":[[\"1\",0],[\"+inf\",1]]}"
        ));
    }

    #[test]
    fn aggregator_memory_is_per_metric_not_per_period() {
        let mut r = Registry::new();
        let c = r.counter("pkts");
        let mut agg = Aggregator::new();
        let mut sink = RingSink::new(4);
        for i in 0..1_000 {
            r.inc(c, i);
            agg.flush(&r, i * 100, &mut sink);
        }
        assert_eq!(agg.prev_counters.len(), 1);
        assert!(sink.len() <= 4);
    }

    #[test]
    fn pulse_onset_fires_on_drop_jump_and_arms_recorder() {
        use crate::flight::{shared_recorder, FlightRecorder};
        let rec = shared_recorder(FlightRecorder::new(8, 1, Box::new(RingSink::new(32))));
        let mut t = ring_telemetry(64)
            .with_pulse_onset(4.0, 10)
            .with_recorder(rec.clone());
        // Quiet period, then a 40× jump.
        for _ in 0..2 {
            t.on_arrival(0, key(1), 0, 64);
        }
        t.on_period(1_000, 0, None);
        for _ in 0..40 {
            t.on_drop(&key(1));
        }
        t.on_period(2_000, 0, None);
        assert_eq!(t.pulse_onsets(), 1);
        assert_eq!(rec.borrow().triggers(), 1);
        // Sustained drops at the same level do not re-fire.
        for _ in 0..40 {
            t.on_drop(&key(1));
        }
        t.on_period(3_000, 0, None);
        assert_eq!(t.pulse_onsets(), 1);
    }

    #[test]
    fn finish_is_idempotent_and_exports_dataset() {
        let dir = std::env::temp_dir().join("accturbo_obs_stream_test.csv");
        let mut t = Telemetry::new()
            .with_flow_sampler(FlowSampler::new(8, 1))
            .with_dataset(DatasetSink::create(&dir).unwrap());
        t.on_arrival(5, key(1), 0, 100);
        t.on_arrival(6, key(2), 1, 200);
        t.finish(1_000, 0, None);
        t.finish(2_000, 0, None);
        assert_eq!(t.dataset_rows(), 2);
        assert_eq!(t.periods(), 1, "second finish is a no-op");
        let text = std::fs::read_to_string(&dir).unwrap();
        assert!(text.starts_with(FlowRecord::CSV_HEADER));
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("attack"));
        let _ = std::fs::remove_file(&dir);
    }

    use crate::sample::FlowRecord;
}
