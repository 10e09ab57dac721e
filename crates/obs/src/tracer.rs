//! The [`Tracer`] trait and its two implementations: [`NoopTracer`]
//! (the default — compiles to nothing) and [`RingTracer`] (a bounded
//! in-memory ring buffer with JSONL export).

use crate::event::Event;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A sink for datapath trace events.
///
/// Emission sites guard with [`Tracer::enabled`] before constructing
/// events whose arguments are non-trivial to compute, then call
/// [`Tracer::record`]. `NoopTracer` returns `false`/does nothing, so a
/// monomorphised or well-predicted dynamic call disappears from the hot
/// path.
pub trait Tracer {
    /// Whether events will actually be kept. Emission sites may skip
    /// event construction entirely when this is `false`.
    fn enabled(&self) -> bool;

    /// Records one event at simulated time `ts_ns`.
    fn record(&mut self, ts_ns: u64, event: &Event<'_>);
}

/// The default tracer: drops everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _ts_ns: u64, _event: &Event<'_>) {}
}

/// A bounded ring buffer of trace events.
///
/// Keeps the most recent `capacity` events; older ones are evicted
/// silently but counted in [`RingTracer::total_recorded`], so exports
/// note truncation honestly.
#[derive(Debug, Clone)]
pub struct RingTracer {
    buf: VecDeque<(u64, Event<'static>)>,
    capacity: usize,
    total: u64,
}

impl RingTracer {
    /// Creates a tracer keeping the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingTracer {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            total: 0,
        }
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded, including evicted ones.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Iterates over the buffered `(ts_ns, event)` pairs, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(u64, Event<'static>)> {
        self.buf.iter()
    }

    /// Renders the buffer as JSONL, one event per line, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.buf.len() * 64);
        for (ts, ev) in &self.buf {
            ev.write_jsonl(*ts, &mut out);
        }
        out
    }

    /// Writes the buffer as JSONL to `path`.
    pub fn write_jsonl_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Drops all buffered events (the total-recorded count is kept).
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

impl Tracer for RingTracer {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ts_ns: u64, event: &Event<'_>) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back((ts_ns, event.to_static()));
        self.total += 1;
    }
}

/// A tracer shareable between the engine and the switch it drives
/// (both need `&mut` access during one simulation step).
pub type SharedTracer = Rc<RefCell<RingTracer>>;

/// Wraps a [`RingTracer`] for sharing across the engine/switch boundary.
pub fn shared(tracer: RingTracer) -> SharedTracer {
    Rc::new(RefCell::new(tracer))
}

impl<T: Tracer> Tracer for Rc<RefCell<T>> {
    #[inline]
    fn enabled(&self) -> bool {
        self.borrow().enabled()
    }

    #[inline]
    fn record(&mut self, ts_ns: u64, event: &Event<'_>) {
        self.borrow_mut().record(ts_ns, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_silent() {
        let mut t = NoopTracer;
        assert!(!t.enabled());
        t.record(0, &Event::ControlTick { tick: 0 });
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_total() {
        let mut t = RingTracer::new(3);
        for tick in 0..5u64 {
            t.record(tick * 10, &Event::ControlTick { tick });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_recorded(), 5);
        let ticks: Vec<u64> = t
            .iter()
            .map(|(_, ev)| match ev {
                Event::ControlTick { tick } => *tick,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ticks, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_export_has_one_line_per_event() {
        let mut t = RingTracer::new(16);
        t.record(1, &Event::ControlTick { tick: 1 });
        t.record(2, &Event::Depart { class: 0, size: 64 });
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn shared_tracer_records_through_clones() {
        let t = shared(RingTracer::new(8));
        let mut a = t.clone();
        let mut b = t.clone();
        a.record(1, &Event::ControlTick { tick: 1 });
        b.record(2, &Event::ControlTick { tick: 2 });
        assert_eq!(t.borrow().len(), 2);
        assert!(t.enabled());
    }
}
