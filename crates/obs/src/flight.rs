//! The flight recorder: a fixed-size ring of recent trace events that
//! stays silent until something goes wrong, then dumps a window of
//! events *around* the anomaly to its sink.
//!
//! Long runs cannot afford full traces, but incidents still need
//! context. The recorder buffers the last `capacity` events; when a
//! trigger fires — a control-loop or link `fault` event or a `degrade`
//! event arriving (automatic; per-packet fates never arm it), or
//! [`FlightRecorder::trigger`] called by a heuristic such as the
//! pulse-onset detector — it keeps recording for `post_window` more
//! events and then emits the whole ring (pre-trigger context plus
//! post-trigger aftermath) as one JSONL window. Re-triggers while a
//! window is draining coalesce into it. A clean run emits nothing.

use crate::event::Event;
use crate::sink::Sink;
use crate::tracer::Tracer;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// The `fault` kinds that arm the recorder: the control loop's and the
/// link's. A per-packet fate at a 0.2 rate would dump a window every
/// few dozen events.
const ARMING_FAULTS: [&str; 4] = ["ctrl_drop", "ctrl_delay", "stale_snapshot", "link_flap"];

/// See the module docs. Implements [`Tracer`]; a run feeds it through
/// its [`crate::Telemetry`] bundle's [`crate::RunTracer`].
pub struct FlightRecorder {
    ring: VecDeque<(u64, Event<'static>)>,
    capacity: usize,
    post_window: usize,
    /// `(trigger ts, reason, events still to record before dumping)`.
    pending: Option<(u64, &'static str, usize)>,
    sink: Box<dyn Sink>,
    windows: u64,
    triggers: u64,
    total_recorded: u64,
    line: String,
}

impl FlightRecorder {
    /// Creates a recorder holding `capacity` events that keeps recording
    /// `post_window` events past a trigger before dumping.
    pub fn new(capacity: usize, post_window: usize, sink: Box<dyn Sink>) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        assert!(
            post_window < capacity,
            "post_window must leave room for pre-trigger context"
        );
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            post_window,
            pending: None,
            sink,
            windows: 0,
            triggers: 0,
            total_recorded: 0,
            line: String::with_capacity(128),
        }
    }

    /// Arms a window dump (e.g. from the pulse-onset heuristic). No-op
    /// while a previous window is still draining — the anomalies
    /// coalesce into one window.
    pub fn trigger(&mut self, ts_ns: u64, reason: &'static str) {
        self.triggers += 1;
        if self.pending.is_none() {
            self.pending = Some((ts_ns, reason, self.post_window));
        }
    }

    /// Windows dumped so far.
    pub fn windows_emitted(&self) -> u64 {
        self.windows
    }

    /// Triggers observed (including coalesced ones).
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// Events currently buffered in the ring.
    pub fn buffered(&self) -> usize {
        self.ring.len()
    }

    /// Total events ever recorded, including evicted ones.
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// The first I/O error of the recorder's sink, if any.
    pub fn io_error(&self) -> Option<&std::io::Error> {
        self.sink.io_error()
    }

    /// Dumps a partially filled post-trigger window at end of run, so an
    /// anomaly near the end is not lost. Clean runs emit nothing.
    pub fn finish(&mut self) {
        if self.pending.is_some() {
            self.dump();
        }
        self.sink.flush();
    }

    fn dump(&mut self) {
        let (ts, reason, _) = self.pending.take().expect("dump without trigger");
        self.line.clear();
        let _ = write!(
            self.line,
            "{{\"ts\":{ts},\"ev\":\"flight_window\",\"trigger\":\"",
        );
        crate::json::escape_json(reason, &mut self.line);
        let _ = write!(self.line, "\",\"events\":{}}}", self.ring.len());
        let header = std::mem::take(&mut self.line);
        self.sink.emit(&header);
        self.line = header;
        for (ev_ts, ev) in &self.ring {
            self.line.clear();
            ev.write_jsonl(*ev_ts, &mut self.line);
            self.sink.emit(self.line.trim_end());
        }
        self.ring.clear();
        self.sink.flush();
        self.windows += 1;
    }
}

impl Tracer for FlightRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ts_ns: u64, event: &Event<'_>) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back((ts_ns, event.to_static()));
        self.total_recorded += 1;
        match &mut self.pending {
            None => {
                let arms = match event {
                    Event::FaultInjected { kind, .. } => ARMING_FAULTS.contains(&kind.as_ref()),
                    _ => matches!(event, Event::Degrade { .. }),
                };
                if arms {
                    self.trigger(ts_ns, event.kind());
                }
            }
            Some((_, _, remaining)) => {
                *remaining -= 1;
                if *remaining == 0 {
                    self.dump();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingSink;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn recorder(capacity: usize, post: usize) -> (FlightRecorder, SharedProbe) {
        let probe = SharedProbe::default();
        let rec = FlightRecorder::new(capacity, post, Box::new(probe.clone()));
        (rec, probe)
    }

    /// A sink that shares its captured lines with the test body.
    #[derive(Default, Clone)]
    struct SharedProbe(Rc<RefCell<Vec<String>>>);

    impl SharedProbe {
        fn lines(&self) -> Vec<String> {
            self.0.borrow().clone()
        }
    }

    impl Sink for SharedProbe {
        fn emit(&mut self, line: &str) {
            self.0.borrow_mut().push(line.to_string());
        }
        fn flush(&mut self) {}
    }

    #[test]
    fn clean_run_emits_nothing() {
        let (mut rec, probe) = recorder(8, 2);
        for tick in 0..100 {
            rec.record(tick, &Event::ControlTick { tick });
        }
        rec.finish();
        assert!(probe.lines().is_empty());
        assert_eq!(rec.windows_emitted(), 0);
        assert!(rec.buffered() <= 8);
    }

    #[test]
    fn fault_event_auto_triggers_window_with_context() {
        let (mut rec, probe) = recorder(8, 2);
        for tick in 0..5 {
            rec.record(tick, &Event::ControlTick { tick });
        }
        rec.record(
            50,
            &Event::FaultInjected {
                kind: "ctrl_drop".into(),
                value: 0.0,
            },
        );
        rec.record(60, &Event::ControlTick { tick: 6 });
        assert_eq!(rec.windows_emitted(), 0, "window still draining");
        rec.record(70, &Event::ControlTick { tick: 7 });
        assert_eq!(rec.windows_emitted(), 1);
        let lines = probe.lines();
        // Header + 8 ring events (5 pre + fault + 2 post).
        assert_eq!(lines.len(), 9);
        assert!(lines[0].contains("\"ev\":\"flight_window\""));
        assert!(lines[0].contains("\"trigger\":\"fault\""));
        assert!(lines[0].contains("\"events\":8"));
        assert!(lines[6].contains("\"ev\":\"fault\""));
        assert_eq!(rec.buffered(), 0, "ring cleared after dump");
    }

    #[test]
    fn per_packet_fates_are_recorded_but_do_not_arm() {
        let (mut rec, probe) = recorder(8, 2);
        for kind in ["pkt_drop", "pkt_reorder"] {
            rec.record(
                0,
                &Event::FaultInjected {
                    kind: kind.into(),
                    value: 0.0,
                },
            );
        }
        for tick in 0..10 {
            rec.record(tick, &Event::ControlTick { tick });
        }
        rec.finish();
        assert_eq!(rec.triggers(), 0);
        assert!(probe.lines().is_empty());
        assert_eq!(rec.total_recorded(), 12);
    }

    #[test]
    fn retrigger_while_draining_coalesces() {
        let (mut rec, probe) = recorder(8, 3);
        rec.record(
            0,
            &Event::FaultInjected {
                kind: "link_flap".into(),
                value: 0.0,
            },
        );
        rec.record(
            1,
            &Event::Degrade {
                action: "fallback_fifo".into(),
                missed: 3,
            },
        );
        rec.record(2, &Event::ControlTick { tick: 1 });
        rec.record(3, &Event::ControlTick { tick: 2 });
        assert_eq!(rec.windows_emitted(), 1, "one coalesced window");
        assert_eq!(rec.triggers(), 1, "degrade consumed by the countdown");
        assert!(probe.lines()[0].contains("\"trigger\":\"fault\""));
    }

    #[test]
    fn manual_trigger_and_end_of_run_partial_window() {
        let (mut rec, probe) = recorder(16, 8);
        rec.record(0, &Event::ControlTick { tick: 0 });
        rec.trigger(5, "pulse_onset");
        rec.record(10, &Event::ControlTick { tick: 1 });
        assert_eq!(rec.windows_emitted(), 0);
        rec.finish(); // only 1 of 8 post-window events arrived
        assert_eq!(rec.windows_emitted(), 1);
        let lines = probe.lines();
        assert!(lines[0].contains("\"trigger\":\"pulse_onset\""));
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn ring_capacity_bounds_window_size() {
        let (mut rec, probe) = recorder(4, 2);
        for tick in 0..100 {
            rec.record(tick, &Event::ControlTick { tick });
        }
        rec.trigger(100, "manual");
        rec.record(101, &Event::ControlTick { tick: 101 });
        rec.record(102, &Event::ControlTick { tick: 102 });
        let lines = probe.lines();
        assert!(lines[0].contains("\"events\":4"));
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn works_behind_shared_handle_as_tracer() {
        let shared = Rc::new(RefCell::new(FlightRecorder::new(
            8,
            1,
            Box::new(RingSink::new(32)),
        )));
        let mut a = shared.clone();
        assert!(a.enabled());
        a.record(
            0,
            &Event::FaultInjected {
                kind: "ctrl_drop".into(),
                value: 1.0,
            },
        );
        a.record(1, &Event::ControlTick { tick: 1 });
        assert_eq!(shared.borrow().windows_emitted(), 1);
    }
}
