//! Deterministic fault injection (DESIGN.md §9).
//!
//! A [`FaultSchedule`] is a seeded decision machine that perturbs the
//! substrate the defense runs on: it can drop, delay or jitter
//! control-plane ticks, serve stale cluster snapshots to the controller,
//! derate the output link in flap windows, and reorder or corrupt-drop
//! packets before they reach the switch. Every decision is drawn from a
//! per-concern `accturbo-prng` stream derived from one seed, so the same
//! seed reproduces the same fault event stream bit-for-bit regardless of
//! how many worker threads the experiment harness uses.
//!
//! The schedule writes no trace: it queues each fault as a [`FaultRecord`]
//! at the fault's simulated time, and whoever runs the clock records the
//! queue up to its present ([`FaultInjector::drain`]), so a fate drawn
//! ahead of the engine still lands at its own time.
//!
//! The engine, the `accturbo-core` pipeline and the packet sources accept
//! an `Option<&FaultInjector>` / `Option<FaultInjector>`: with `None` (the
//! default everywhere) the fault-free path executes exactly the
//! pre-existing code — byte-identical output, no allocation — which the
//! `fault_noop_equivalence` differential test locks down.

use crate::packet::Packet;
use crate::source::PacketSource;
use crate::time::{SimDuration, SimTime};
use accturbo_obs::{Event, Tracer};
use accturbo_prng::{Rng, SeedableRng, StdRng};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::rc::Rc;

/// Per-concern stream separators: one SplitMix64-expanded seed per fault
/// class, so the packet-fate stream never shifts when an unrelated knob
/// (say the control-tick drop rate) changes how often its own stream is
/// consumed.
const STREAM_CTRL: u64 = 0x41;
const STREAM_PKT: u64 = 0x42;
const STREAM_LINK: u64 = 0x43;
const STREAM_STALE: u64 = 0x44;

/// Intensities and shapes of every fault class. All probabilities are per
/// decision point and must lie in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for every per-concern decision stream.
    pub seed: u64,
    /// P(a control tick is suppressed entirely).
    pub ctrl_drop: f64,
    /// P(a control tick is delayed), evaluated when the tick survives.
    pub ctrl_delay: f64,
    /// Maximum control-tick delay (uniform in `(0, max]`).
    pub ctrl_delay_max: SimDuration,
    /// P(a control tick sees the previous window's statistics instead of
    /// a fresh poll).
    pub stale_snapshot: f64,
    /// P(a packet is corrupt-dropped before reaching the switch).
    pub pkt_drop: f64,
    /// P(a packet is jittered, which reorders it past its neighbours).
    pub pkt_reorder: f64,
    /// Maximum per-packet jitter (uniform in `(0, max]`).
    pub pkt_jitter_max: SimDuration,
    /// Fraction of time the output link spends derated (flap windows).
    pub link_flap: f64,
    /// Capacity factor during a flap window, in `(0, 1]`.
    pub link_derate: f64,
    /// Mean renewal period of the flap process (one up + one down phase).
    pub flap_period: SimDuration,
}

impl FaultConfig {
    /// A schedule that never injects anything.
    pub fn none(seed: u64) -> Self {
        FaultConfig {
            seed,
            ctrl_drop: 0.0,
            ctrl_delay: 0.0,
            ctrl_delay_max: SimDuration::from_millis(100),
            stale_snapshot: 0.0,
            pkt_drop: 0.0,
            pkt_reorder: 0.0,
            pkt_jitter_max: SimDuration::from_millis(5),
            link_flap: 0.0,
            link_derate: 0.5,
            flap_period: SimDuration::from_millis(500),
        }
    }

    /// One knob for the robustness sweep: every fault class scaled from a
    /// single `intensity` in `[0, 1]`. Packet corrupt-drops are scaled
    /// down (a tenth of the intensity) because they destroy goodput
    /// linearly and would mask the control-plane degradations the sweep
    /// is about.
    pub fn uniform(intensity: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "fault intensity must be in [0, 1], got {intensity}"
        );
        FaultConfig {
            ctrl_drop: intensity,
            ctrl_delay: intensity,
            stale_snapshot: intensity,
            pkt_drop: intensity * 0.1,
            pkt_reorder: intensity,
            link_flap: intensity * 0.5,
            ..FaultConfig::none(seed)
        }
    }

    fn validate(&self) {
        for (name, p) in [
            ("ctrl_drop", self.ctrl_drop),
            ("ctrl_delay", self.ctrl_delay),
            ("stale_snapshot", self.stale_snapshot),
            ("pkt_drop", self.pkt_drop),
            ("pkt_reorder", self.pkt_reorder),
            ("link_flap", self.link_flap),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "fault probability `{name}` must be in [0, 1], got {p}"
            );
        }
        assert!(
            self.link_derate > 0.0 && self.link_derate <= 1.0,
            "link_derate must be in (0, 1], got {}",
            self.link_derate
        );
    }
}

/// Counters of every fault actually injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Control ticks suppressed.
    pub ctrl_dropped: u64,
    /// Control ticks delayed.
    pub ctrl_delayed: u64,
    /// Control ticks served a stale snapshot.
    pub stale_served: u64,
    /// Packets corrupt-dropped before the switch.
    pub pkt_dropped: u64,
    /// Packets jittered (reordered).
    pub pkt_reordered: u64,
    /// Link-flap windows generated.
    pub flap_windows: u64,
}

/// One injected fault, as the schedule queues it until it is drained.
/// The decision stream of a schedule is fully described by these records.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Simulated time the fault applies at, nanoseconds.
    pub at_ns: u64,
    /// Fault kind tag (matches the `fault` obs event's `kind` field).
    pub kind: &'static str,
    /// Kind-specific magnitude (delay ns, jitter ns, window length ns,
    /// derate factor, or 0 for pure drops).
    pub value: f64,
}

/// What the engine should do with the control tick that just fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlAction {
    /// Run the tick normally.
    Run,
    /// Suppress it: the switch's `control_missed` hook runs instead.
    Skip,
    /// Postpone it by the given delay; it then runs unconditionally.
    Delay(SimDuration),
}

/// What the fault plane decided for an injected packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PktFate {
    /// Deliver unchanged.
    Deliver,
    /// Corrupt-drop: the packet never reaches the switch.
    Drop,
    /// Deliver late by the given jitter (reordering it past neighbours).
    Delay(SimDuration),
}

/// The seeded fault decision machine. Usually accessed through a shared
/// [`FaultInjector`] handle so the engine, the switch and the source all
/// consult the same schedule.
#[derive(Debug)]
pub struct FaultSchedule {
    cfg: FaultConfig,
    ctrl_rng: StdRng,
    pkt_rng: StdRng,
    link_rng: StdRng,
    stale_rng: StdRng,
    /// Current (or next upcoming) flap window, generated lazily in time
    /// order so the window sequence is independent of when the link is
    /// actually sampled.
    flap_start: SimTime,
    flap_end: SimTime,
    stats: FaultStats,
    /// Injected faults not yet drained, as `(kind, value)` keyed by time,
    /// then draw order.
    queued: BinaryHeap<Reverse<Timed<(&'static str, f64)>>>,
    draws: u64,
}

impl FaultSchedule {
    /// Builds a schedule from a validated config.
    pub fn new(cfg: FaultConfig) -> Self {
        cfg.validate();
        let stream =
            |sep: u64| StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37).wrapping_add(sep));
        FaultSchedule {
            ctrl_rng: stream(STREAM_CTRL),
            pkt_rng: stream(STREAM_PKT),
            link_rng: stream(STREAM_LINK),
            stale_rng: stream(STREAM_STALE),
            flap_start: SimTime::ZERO,
            flap_end: SimTime::ZERO,
            stats: FaultStats::default(),
            queued: BinaryHeap::new(),
            draws: 0,
            cfg,
        }
    }

    /// A schedule with every intensity at zero: consulted or not, it
    /// injects nothing and consumes no randomness.
    pub fn none(seed: u64) -> Self {
        FaultSchedule::new(FaultConfig::none(seed))
    }

    /// Records every queued fault at or before `now` as a `fault` event
    /// at its own time, in time order (ties in draw order), and forgets
    /// it; the rest stays queued.
    pub fn drain<T: Tracer + ?Sized>(&mut self, now: SimTime, tracer: &mut T) {
        while let Some(FaultRecord { at_ns, kind, value }) = self.pop_until(now) {
            if tracer.enabled() {
                tracer.record(at_ns, &Event::FaultInjected { kind, value });
            }
        }
    }

    /// Takes every queued fault, whatever its time, in drain order.
    pub fn take_log(&mut self) -> Vec<FaultRecord> {
        std::iter::from_fn(|| self.pop_until(SimTime::MAX)).collect()
    }

    /// The earliest queued fault, if it applies at or before `now`.
    fn pop_until(&mut self, now: SimTime) -> Option<FaultRecord> {
        let top = self.queued.peek_mut().filter(|top| top.0.at <= now)?;
        let Reverse(Timed { at, item, .. }) = PeekMut::pop(top);
        let (at_ns, (kind, value)) = (at.as_nanos(), item);
        Some(FaultRecord { at_ns, kind, value })
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    fn note(&mut self, at: SimTime, kind: &'static str, value: f64) {
        let (seq, item) = (self.draws, (kind, value));
        self.draws += 1;
        self.queued.push(Reverse(Timed { at, seq, item }));
    }

    /// Decides the fate of the control tick firing at `now`.
    pub fn control_action(&mut self, now: SimTime) -> ControlAction {
        if self.cfg.ctrl_drop > 0.0 && self.ctrl_rng.gen_bool(self.cfg.ctrl_drop) {
            self.stats.ctrl_dropped += 1;
            self.note(now, "ctrl_drop", 0.0);
            return ControlAction::Skip;
        }
        if self.cfg.ctrl_delay > 0.0 && self.ctrl_rng.gen_bool(self.cfg.ctrl_delay) {
            let max = self.cfg.ctrl_delay_max.as_nanos().max(1);
            let d = self.ctrl_rng.gen_range(1..=max);
            self.stats.ctrl_delayed += 1;
            self.note(now, "ctrl_delay", d as f64);
            return ControlAction::Delay(SimDuration::from_nanos(d));
        }
        ControlAction::Run
    }

    /// Whether the control tick at `now` sees a stale cluster snapshot.
    pub fn stale_snapshot(&mut self, now: SimTime) -> bool {
        if self.cfg.stale_snapshot > 0.0 && self.stale_rng.gen_bool(self.cfg.stale_snapshot) {
            self.stats.stale_served += 1;
            self.note(now, "stale_snapshot", 0.0);
            return true;
        }
        false
    }

    /// Decides the fate of a packet injected at `arrival`.
    pub fn pkt_fate(&mut self, arrival: SimTime) -> PktFate {
        if self.cfg.pkt_drop > 0.0 && self.pkt_rng.gen_bool(self.cfg.pkt_drop) {
            self.stats.pkt_dropped += 1;
            self.note(arrival, "pkt_drop", 0.0);
            return PktFate::Drop;
        }
        if self.cfg.pkt_reorder > 0.0 && self.pkt_rng.gen_bool(self.cfg.pkt_reorder) {
            let max = self.cfg.pkt_jitter_max.as_nanos().max(1);
            let d = self.pkt_rng.gen_range(1..=max);
            self.stats.pkt_reordered += 1;
            self.note(arrival, "pkt_reorder", d as f64);
            return PktFate::Delay(SimDuration::from_nanos(d));
        }
        PktFate::Deliver
    }

    /// The link capacity factor at `now`: `1.0` outside flap windows, the
    /// configured derate inside one. Windows form a renewal process
    /// generated in time order from the link stream, so the sequence does
    /// not depend on when (or how often) the engine samples the link.
    /// Each window is queued when the first sample at or past the
    /// previous window's end generates it: at least half an up phase
    /// before its start whenever the link is sampled that often.
    pub fn link_scale(&mut self, now: SimTime) -> f64 {
        if self.cfg.link_flap <= 0.0 {
            return 1.0;
        }
        while self.flap_end <= now {
            let period = self.cfg.flap_period.as_nanos().max(2) as f64;
            let up = (period * (1.0 - self.cfg.link_flap)).max(1.0) as u64;
            let down = (period * self.cfg.link_flap).max(1.0) as u64;
            let gap = self.link_rng.gen_range(up / 2..=up + up / 2);
            let dur = self.link_rng.gen_range((down / 2).max(1)..=down + down / 2);
            self.flap_start = self.flap_end + SimDuration::from_nanos(gap.max(1));
            self.flap_end = self.flap_start + SimDuration::from_nanos(dur);
            self.stats.flap_windows += 1;
            self.note(self.flap_start, "link_flap", dur as f64);
        }
        if now >= self.flap_start {
            self.cfg.link_derate
        } else {
            1.0
        }
    }
}

/// A cheaply-cloneable shared handle to one [`FaultSchedule`]. The
/// engine, the pipeline and the faulted source each hold a clone so all
/// decisions come from one seeded schedule.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    inner: Rc<RefCell<FaultSchedule>>,
}

impl FaultInjector {
    /// Wraps a schedule in a shared handle.
    pub fn new(schedule: FaultSchedule) -> Self {
        FaultInjector {
            inner: Rc::new(RefCell::new(schedule)),
        }
    }

    /// An injector that never injects anything.
    pub fn noop() -> Self {
        FaultInjector::new(FaultSchedule::none(0))
    }

    /// See [`FaultSchedule::drain`].
    pub fn drain<T: Tracer + ?Sized>(&self, now: SimTime, tracer: &mut T) {
        self.inner.borrow_mut().drain(now, tracer);
    }

    /// See [`FaultSchedule::take_log`].
    pub fn take_log(&self) -> Vec<FaultRecord> {
        self.inner.borrow_mut().take_log()
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.inner.borrow().stats()
    }

    /// See [`FaultSchedule::control_action`].
    pub fn control_action(&self, now: SimTime) -> ControlAction {
        self.inner.borrow_mut().control_action(now)
    }

    /// See [`FaultSchedule::stale_snapshot`].
    pub fn stale_snapshot(&self, now: SimTime) -> bool {
        self.inner.borrow_mut().stale_snapshot(now)
    }

    /// See [`FaultSchedule::pkt_fate`].
    pub fn pkt_fate(&self, arrival: SimTime) -> PktFate {
        self.inner.borrow_mut().pkt_fate(arrival)
    }

    /// See [`FaultSchedule::link_scale`].
    pub fn link_scale(&self, now: SimTime) -> f64 {
        self.inner.borrow_mut().link_scale(now)
    }
}

/// A heap entry ordered by time, then sequence number: a queued fault
/// record, or a packet held in the faulted source's reorder buffer.
#[derive(Debug)]
struct Timed<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Timed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Timed<T> {}
impl<T> PartialOrd for Timed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Timed<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // The seq tie-break keeps equal times in draw (or injection) order.
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A source adapter applying the packet-level faults of a schedule:
/// corrupt-drops vanish before the switch, jittered packets are held in a
/// small reorder buffer and released at their perturbed time. Output
/// arrival times stay nondecreasing (a jittered packet can only move
/// later), so the engine's ordering invariant holds.
pub struct FaultedSource<S: PacketSource> {
    inner: S,
    faults: FaultInjector,
    heap: BinaryHeap<Reverse<Timed<Packet>>>,
    next_seq: u64,
    /// Latest original arrival pulled from `inner`: any future packet's
    /// release time is at least this, so the heap minimum at or below it
    /// is safe to emit.
    frontier: SimTime,
    exhausted: bool,
    injected: u64,
}

impl<S: PacketSource> FaultedSource<S> {
    /// Wraps `inner`, consulting `faults` for every packet.
    pub fn new(inner: S, faults: FaultInjector) -> Self {
        FaultedSource {
            inner,
            faults,
            heap: BinaryHeap::new(),
            next_seq: 0,
            frontier: SimTime::ZERO,
            exhausted: false,
            injected: 0,
        }
    }

    /// Packets pulled from the wrapped source so far (the "injected" side
    /// of the conservation law: injected = delivered + engine drops +
    /// fault drops once the simulation drains).
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

impl<S: PacketSource> PacketSource for FaultedSource<S> {
    fn next_packet(&mut self) -> Option<Packet> {
        loop {
            if let Some(Reverse(top)) = self.heap.peek() {
                if self.exhausted || top.at <= self.frontier {
                    let Reverse(held) = self.heap.pop().expect("peeked entry exists");
                    let mut pkt = held.item;
                    pkt.arrival = held.at;
                    return Some(pkt);
                }
            } else if self.exhausted {
                return None;
            }
            match self.inner.next_packet() {
                None => self.exhausted = true,
                Some(pkt) => {
                    self.injected += 1;
                    self.frontier = pkt.arrival;
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    let at = match self.faults.pkt_fate(pkt.arrival) {
                        PktFate::Drop => continue,
                        // Nothing held goes first: no need to hold it.
                        PktFate::Deliver
                            if self.heap.peek().is_none_or(|top| top.0.at > pkt.arrival) =>
                        {
                            return Some(pkt)
                        }
                        PktFate::Deliver => pkt.arrival,
                        PktFate::Delay(d) => pkt.arrival + d,
                    };
                    self.heap.push(Reverse(Timed { at, seq, item: pkt }));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecSource;

    fn cbr(n: u64, gap_us: u64) -> Vec<Packet> {
        (0..n)
            .map(|i| Packet::new(SimTime::from_micros(i * gap_us)).with_size(1000))
            .collect()
    }

    #[test]
    fn noop_schedule_injects_nothing_and_draws_nothing() {
        let mut s = FaultSchedule::none(7);
        let mut before = s.ctrl_rng.clone();
        for i in 0..100 {
            let t = SimTime::from_millis(i);
            assert_eq!(s.control_action(t), ControlAction::Run);
            assert!(!s.stale_snapshot(t));
            assert_eq!(s.pkt_fate(t), PktFate::Deliver);
            assert_eq!(s.link_scale(t), 1.0);
        }
        assert_eq!(s.stats(), FaultStats::default());
        assert!(s.take_log().is_empty());
        assert_eq!(s.ctrl_rng.next_u64(), before.next_u64());
    }

    #[test]
    fn noop_faulted_source_is_an_identity_adapter() {
        let pkts = cbr(500, 100);
        let mut plain = VecSource::new(pkts.clone());
        let mut faulted = FaultedSource::new(VecSource::new(pkts), FaultInjector::noop());
        loop {
            let (a, b) = (plain.next_packet(), faulted.next_packet());
            match (&a, &b) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.arrival, y.arrival);
                    assert_eq!(x.size, y.size);
                }
                (None, None) => break,
                _ => panic!("streams diverged"),
            }
        }
        assert_eq!(faulted.injected(), 500);
    }

    #[test]
    fn faulted_source_emits_nondecreasing_times_and_conserves_packets() {
        let inj = FaultInjector::new(FaultSchedule::new(FaultConfig {
            pkt_drop: 0.2,
            pkt_reorder: 0.5,
            pkt_jitter_max: SimDuration::from_millis(2),
            ..FaultConfig::none(11)
        }));
        let mut src = FaultedSource::new(VecSource::new(cbr(2_000, 50)), inj.clone());
        let mut emitted = 0u64;
        let mut last = SimTime::ZERO;
        while let Some(p) = src.next_packet() {
            assert!(p.arrival >= last, "reorder buffer broke time order");
            last = p.arrival;
            emitted += 1;
        }
        let stats = inj.stats();
        assert_eq!(src.injected(), 2_000);
        assert_eq!(emitted + stats.pkt_dropped, 2_000, "packet conservation");
        assert!(stats.pkt_dropped > 200, "drop prob 0.2 must bite");
        assert!(stats.pkt_reordered > 500, "reorder prob 0.5 must bite");
    }

    #[test]
    fn faulted_source_releases_in_time_then_injection_order() {
        // Three arrivals per nanosecond and jitters of at most 4 ns:
        // release times collide all the time, and ties keep injection
        // order, whether a packet was held or passed straight through.
        let cfg = FaultConfig {
            pkt_drop: 0.1,
            pkt_reorder: 0.5,
            pkt_jitter_max: SimDuration::from_nanos(4),
            ..FaultConfig::none(9)
        };
        let pkts: Vec<Packet> = (0..3_000u32)
            .map(|i| Packet::new(SimTime::from_nanos(u64::from(i / 3))).with_size(64 + i))
            .collect();
        let mut fates = FaultSchedule::new(cfg.clone());
        let mut want: Vec<(SimTime, u32)> = (pkts.iter())
            .filter_map(|p| match fates.pkt_fate(p.arrival) {
                PktFate::Drop => None,
                PktFate::Deliver => Some((p.arrival, p.size)),
                PktFate::Delay(d) => Some((p.arrival + d, p.size)),
            })
            .collect();
        want.sort_by_key(|&(at, _)| at);
        let inj = FaultInjector::new(FaultSchedule::new(cfg));
        let mut src = FaultedSource::new(VecSource::new(pkts), inj);
        let got: Vec<(SimTime, u32)> = std::iter::from_fn(|| src.next_packet())
            .map(|p| (p.arrival, p.size))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn link_flap_windows_are_time_ordered_and_sampling_independent() {
        let cfg = FaultConfig {
            link_flap: 0.4,
            ..FaultConfig::none(3)
        };
        // Dense sampling and sparse sampling must agree wherever both
        // sample: the window sequence is generated in time order from the
        // schedule, not from the call pattern.
        let mut dense = FaultSchedule::new(cfg.clone());
        let mut sparse = FaultSchedule::new(cfg);
        for ms in 0..5_000u64 {
            let now = SimTime::from_millis(ms);
            let d = dense.link_scale(now);
            if ms % 97 == 0 {
                let s = sparse.link_scale(now);
                assert_eq!(d, s, "at {ms} ms");
            }
        }
        assert!(dense.stats().flap_windows > 0);
    }

    #[test]
    fn drain_records_only_faults_up_to_now_in_time_order() {
        use accturbo_obs::RingTracer;
        let inj = FaultInjector::new(FaultSchedule::new(FaultConfig {
            ctrl_drop: 1.0,
            pkt_drop: 1.0,
            ..FaultConfig::none(5)
        }));
        // Drawn out of time order: a packet fate ahead of the clock, then
        // two control ticks, the second at the packet's time.
        let ms = SimTime::from_millis;
        assert_eq!(inj.pkt_fate(ms(3)), PktFate::Drop);
        assert_eq!(inj.control_action(ms(1)), ControlAction::Skip);
        assert_eq!(inj.control_action(ms(3)), ControlAction::Skip);
        assert_eq!(inj.pkt_fate(ms(5)), PktFate::Drop);

        let mut ring = RingTracer::new(100);
        inj.drain(ms(3), &mut ring);
        let seen: Vec<(u64, String)> = ring
            .iter()
            .map(|(t, e)| match e {
                Event::FaultInjected { kind, .. } => (*t, kind.to_string()),
                _ => panic!("not a fault event: {e:?}"),
            })
            .collect();
        let at = |m: u64| m * 1_000_000;
        let expect = [(1, "ctrl_drop"), (3, "pkt_drop"), (3, "ctrl_drop")];
        let expect: Vec<(u64, String)> = expect.map(|(m, k)| (at(m), k.into())).into();
        assert_eq!(seen, expect, "time order, ties in draw order");

        let rest = inj.take_log();
        assert_eq!(
            rest,
            [FaultRecord {
                at_ns: at(5),
                kind: "pkt_drop",
                value: 0.0,
            }]
        );
        assert!(inj.take_log().is_empty(), "the queue is drained");
    }
}
