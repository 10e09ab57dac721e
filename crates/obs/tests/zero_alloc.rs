//! Buffering an event whose fields are `'static` names must not touch
//! the heap: a full `RingTracer`, and a `FlightRecorder` between window
//! dumps, record `drop`, `fault` and `degrade` events with zero
//! allocations, so tracing a long faulted run costs no allocator traffic
//! per event.
//!
//! This lives in its own integration-test binary because it installs a
//! counting global allocator. The count is per thread, so the test
//! harness's own threads cannot add to a measured section.

use accturbo_obs::{Event, FlightRecorder, RingTracer, Sink, Tracer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The three kinds whose only non-numeric fields are `'static` names.
fn named_events() -> [Event; 3] {
    [
        Event::Drop {
            queue: None,
            class: 1,
            size: 1000,
            reason: "tail_drop",
        },
        Event::FaultInjected {
            kind: "ctrl_drop",
            value: 0.0,
        },
        Event::Degrade {
            action: "keep_last_good",
            missed: 2,
        },
    ]
}

/// Heap allocations this thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_full_ring_tracer_records_named_events_without_allocating() {
    let mut ring = RingTracer::new(64);
    for tick in 0..64 {
        ring.record(tick, &Event::ControlTick { tick });
    }
    let events = named_events();
    let n = allocations(|| {
        for ts in 0..1_000u64 {
            ring.record(ts, &events[ts as usize % events.len()]);
        }
    });
    assert_eq!(n, 0, "recording into a full ring allocated");
    assert_eq!(ring.len(), 64);
    assert_eq!(ring.total_recorded(), 1_064);
}

/// Counts the lines a flight recorder dumps.
struct Lines(std::rc::Rc<Cell<u64>>);

impl Sink for Lines {
    fn emit(&mut self, _line: &str) {
        self.0.set(self.0.get() + 1);
    }
    fn flush(&mut self) {}
}

#[test]
fn a_flight_recorder_records_named_events_between_dumps_without_allocating() {
    const POST: usize = 40;
    let lines = std::rc::Rc::new(Cell::new(0));
    let mut rec = FlightRecorder::new(64, POST, Box::new(Lines(lines.clone())));
    let events = named_events();
    for round in 0..3u64 {
        // Each round opens with a `fault` event, which arms a window; the
        // window dumps once `POST` more events arrive. Everything before
        // that last event is recorded between dumps.
        let start = round * (POST as u64 + 1);
        let n = allocations(|| {
            for i in 0..POST {
                rec.record(start + i as u64, &events[(1 + i) % events.len()]);
            }
        });
        assert_eq!(n, 0, "round {round}: recording between dumps allocated");
        assert_eq!(rec.windows_emitted(), round);
        rec.record(start + POST as u64, &events[0]);
        assert_eq!(rec.windows_emitted(), round + 1);
    }
    assert!(lines.get() > 0, "the windows were dumped");
}
