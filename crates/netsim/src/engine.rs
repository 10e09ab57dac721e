//! The discrete-event simulation engine.
//!
//! The engine models the paper's testbed topology reduced to its essential
//! element: one switch in front of one bottleneck output link. Input
//! capacity is assumed larger than the output link (paper §3.1), so
//! arrivals are taken directly from the workload source. Three event kinds
//! are interleaved in exact time order:
//!
//! 1. **Packet arrival** — the switch's data path runs (`ingress`).
//! 2. **Transmission completion** — the link frees and the next packet is
//!    pulled from the switch (`dequeue`).
//! 3. **Control tick** — the switch's control plane runs (`control_tick`),
//!    at a fixed configurable period. This is where the paper's reaction
//!    time lives: ACC-Turbo's priority updates only take effect at ticks.
//!
//! The engine is synchronous and single-threaded: the workload is CPU-bound
//! and determinism is a hard requirement for figure regeneration, so (per
//! the networking guides) an async runtime would buy nothing here.
//!
//! One loop serves every single-switch run: [`run`] and [`run_streamed`]
//! drive it from a [`PacketSource`], and the sharded engine
//! ([`crate::shard::ShardedEngine`]) drives it from the sealed batches of
//! its producer thread.

use crate::fault::{ControlAction, FaultInjector};
use crate::latency::DelayHistogram;
use crate::packet::{Dropped, Packet};
use crate::source::PacketSource;
use crate::stats::StatsCollector;
use crate::switch::Switch;
use crate::time::{SimDuration, SimTime};
use crate::units::Bandwidth;
use accturbo_obs::{Event, FlowKey, MetricsHandle, NoopTracer, Telemetry, Tracer};

/// The three event kinds the engine schedules, in tie-break priority
/// order: at equal timestamps a transmission completion is processed
/// before the control plane runs, and the control plane runs before a new
/// arrival is admitted (the dispatch order of the original min-scan's
/// `if t == t_tx` / `else if t == t_ctl` / `else` chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventSlot {
    /// Output-link transmission completion.
    Tx = 0,
    /// Control-plane tick.
    Control = 1,
    /// Next packet arrival.
    Arrival = 2,
}

/// Slot scan order == tie-break priority order.
const SLOT_ORDER: [EventSlot; 3] = [EventSlot::Tx, EventSlot::Control, EventSlot::Arrival];

/// A fixed three-slot event calendar: each slot holds the next firing
/// time of one event kind, or `SimTime::MAX` for "not scheduled".
///
/// This replaces the engine's per-iteration `Option` unwrapping and
/// sentinel `min`-chain with one small array the optimizer keeps in
/// registers, and it makes phantom events structurally impossible:
/// [`earliest`](Self::earliest) returns `None` when nothing is scheduled
/// instead of a `SimTime::MAX` pseudo-winner the caller must remember to
/// filter out.
#[derive(Debug, Clone)]
pub struct EventCalendar {
    when: [SimTime; 3],
}

impl Default for EventCalendar {
    fn default() -> Self {
        Self::new()
    }
}

impl EventCalendar {
    /// An empty calendar (nothing scheduled).
    pub fn new() -> Self {
        EventCalendar {
            when: [SimTime::MAX; 3],
        }
    }

    /// Schedules (or reschedules) `slot` to fire at `at`.
    pub fn schedule(&mut self, slot: EventSlot, at: SimTime) {
        debug_assert!(
            at != SimTime::MAX,
            "SimTime::MAX is the not-scheduled sentinel"
        );
        self.when[slot as usize] = at;
    }

    /// Unschedules `slot`.
    pub fn cancel(&mut self, slot: EventSlot) {
        self.when[slot as usize] = SimTime::MAX;
    }

    /// Whether `slot` currently has a firing time.
    pub fn is_scheduled(&self, slot: EventSlot) -> bool {
        self.when[slot as usize] != SimTime::MAX
    }

    /// The firing time of `slot`, if scheduled.
    pub fn scheduled_at(&self, slot: EventSlot) -> Option<SimTime> {
        let t = self.when[slot as usize];
        (t != SimTime::MAX).then_some(t)
    }

    /// The earliest scheduled event, if any. Ties resolve in
    /// [`EventSlot`] priority order: `Tx` before `Control` before
    /// `Arrival`.
    pub fn earliest(&self) -> Option<(EventSlot, SimTime)> {
        self.earliest_filtered(true)
    }

    /// [`earliest`](Self::earliest) with the control slot masked out —
    /// the engine gates control ticks on work remaining, so a drained
    /// simulation must not be kept alive by its own control plane.
    pub fn earliest_without_control(&self) -> Option<(EventSlot, SimTime)> {
        self.earliest_filtered(false)
    }

    fn earliest_filtered(&self, include_control: bool) -> Option<(EventSlot, SimTime)> {
        let mut best: Option<(EventSlot, SimTime)> = None;
        for slot in SLOT_ORDER {
            if slot == EventSlot::Control && !include_control {
                continue;
            }
            let t = self.when[slot as usize];
            if t == SimTime::MAX {
                continue;
            }
            // Strictly-less keeps the first slot in priority order on ties.
            if best.is_none_or(|(_, bt)| t < bt) {
                best = Some((slot, t));
            }
        }
        best
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Output-link (bottleneck) bandwidth.
    pub link: Bandwidth,
    /// Width of the statistics buckets.
    pub stats_interval: SimDuration,
    /// Control-plane period; `None` disables control ticks entirely.
    pub control_period: Option<SimDuration>,
    /// Hard stop: arrivals at or after this time are discarded and the
    /// simulation drains. `None` runs until the source is exhausted.
    pub end_time: Option<SimTime>,
}

impl EngineConfig {
    /// A config with the given link rate, 1-second stats buckets, no
    /// control plane and no end time.
    pub fn new(link: Bandwidth) -> Self {
        EngineConfig {
            link,
            stats_interval: SimDuration::from_secs(1),
            control_period: None,
            end_time: None,
        }
    }

    /// Sets the stats bucket width.
    pub fn with_stats_interval(mut self, interval: SimDuration) -> Self {
        self.stats_interval = interval;
        self
    }

    /// Enables control ticks at `period`.
    pub fn with_control_period(mut self, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "control period must be positive");
        self.control_period = Some(period);
        self
    }

    /// Sets the hard stop time.
    pub fn with_end_time(mut self, end: SimTime) -> Self {
        self.end_time = Some(end);
        self
    }

    /// The standard experiment engine configuration: 1-second stats
    /// buckets, hard stop at `secs`, optional control plane — the shape
    /// every figure/scenario run uses.
    pub fn experiment(link_bps: u64, secs: u64, control_period: Option<SimDuration>) -> Self {
        let mut cfg = EngineConfig::new(Bandwidth::from_bps(link_bps))
            .with_stats_interval(SimDuration::from_secs(1))
            .with_end_time(SimTime::from_secs(secs));
        if let Some(p) = control_period {
            cfg = cfg.with_control_period(p);
        }
        cfg
    }
}

/// Result of a simulation run.
#[derive(Debug)]
pub struct RunResult {
    /// Per-class, per-bucket statistics.
    pub stats: StatsCollector,
    /// Per-class queueing-delay distribution (arrival → wire departure).
    pub delays: DelayHistogram,
    /// Time of the last event processed.
    pub final_time: SimTime,
    /// Total packets offered to the switch.
    pub arrivals: u64,
    /// Total packets transmitted on the output link.
    pub departures: u64,
    /// Total packets dropped (anywhere in the switch).
    pub drops: u64,
}

/// Runs `source` through `switch` under `cfg` and returns the statistics.
pub fn run(
    source: &mut dyn PacketSource,
    switch: &mut dyn Switch,
    cfg: &EngineConfig,
) -> RunResult {
    // NoopTracer monomorphizes: the tracing branches compile out of this
    // path entirely (verified by the `obs_overhead` bench).
    run_streamed(source, switch, cfg, &mut NoopTracer, None, None, None)
}

/// The flow identity the streaming sampler keys on, taken from a packet.
#[inline]
fn flow_key(p: &Packet) -> FlowKey {
    FlowKey {
        src: u32::from(p.src),
        dst: u32::from(p.dst),
        sport: p.sport,
        dport: p.dport,
        proto: p.proto,
    }
}

/// Runs `source` through `switch` under `cfg` with every hook the
/// engine has: a tracer, engine metrics, a fault plane and a
/// streaming-telemetry bundle. Each is optional; with `NoopTracer` and
/// `None` everywhere this is [`run`].
///
/// **Events.** Trace events emitted here: `depart` and `drop` per
/// packet, `control_tick` per control-plane tick, and `stats_tick` at
/// every stats-interval boundary. Switch-internal events (enqueue,
/// cluster decisions, priority remaps) are emitted by the switch itself
/// when its own tracer is installed — share one `SharedTracer` across
/// both to get a single interleaved timeline.
///
/// **Metrics.** When `metrics` is given, the engine registers
/// `engine_arrivals` / `engine_departures` / `engine_drops` counters, a
/// `backlog_pkts` gauge, and a `queue_depth_pkts` histogram, and
/// snapshots the whole registry at every stats-interval boundary (plus
/// once at the end).
///
/// **Faults** (DESIGN.md §9). When `faults` is given, the injector is
/// consulted at the engine's two substrate decision points: each
/// control-tick firing (which may be run, suppressed — invoking the
/// switch's `control_missed` hook — or postponed) and each transmission
/// start (whose serialization time is stretched inside a link-flap
/// window). Packet-level faults live in
/// [`crate::fault::FaultedSource`], outside the engine.
///
/// **Telemetry** (DESIGN.md §11). When `telemetry` is given, the engine
/// replaces the registry's accumulate-and-dump snapshots with
/// streaming: at every stats-interval boundary (and once at the end) it
/// calls [`Telemetry::on_period`] with the live registry, which emits
/// per-period counter deltas / gauge last-values / histogram merges to
/// the bundle's sink, feeds the reservoir flow sampler from
/// arrivals/drops, runs the pulse-onset heuristic, and — via
/// [`Telemetry::finish`] — exports the labeled dataset.
/// `Registry::snapshot` is never called on this path, so telemetry
/// memory stays bounded by the sink/ring/reservoir capacities for
/// arbitrarily long runs.
///
/// With `faults == None` and `telemetry == None` every injection point
/// and hook is a not-taken branch on unchanged state: the run is
/// byte-identical to the hook-free one and stays allocation-free in
/// steady state (both locked down by the fault lockdown test suite).
pub fn run_streamed<T: Tracer + ?Sized>(
    source: &mut dyn PacketSource,
    switch: &mut dyn Switch,
    cfg: &EngineConfig,
    tracer: &mut T,
    metrics: Option<&MetricsHandle>,
    faults: Option<&FaultInjector>,
    telemetry: Option<&mut Telemetry>,
) -> RunResult {
    drive(source, switch, cfg, tracer, metrics, faults, telemetry)
}

/// Where the event loop's arrivals come from: the loop pulls the next
/// packet, then hands it to the switch when its arrival event fires.
///
/// A plain [`PacketSource`] ingresses through [`Switch::ingress`]; the
/// sharded feed (`shard.rs`) delivers its precomputed feature row through
/// [`Switch::ingress_featured`]. The loop always ingresses the pending
/// packet before it pulls again, so a feed may keep the coordinates of
/// its last-pulled packet until then.
pub(crate) trait ArrivalFeed {
    /// The next packet in arrival order, or `None` once the feed is
    /// exhausted.
    fn pull(&mut self) -> Option<Packet>;

    /// Hands `pkt` — the packet the last [`pull`](Self::pull) returned —
    /// to `switch`.
    fn ingress(
        &mut self,
        switch: &mut dyn Switch,
        pkt: Packet,
        now: SimTime,
        drops: &mut Vec<Dropped>,
    );
}

impl ArrivalFeed for dyn PacketSource + '_ {
    #[inline]
    fn pull(&mut self) -> Option<Packet> {
        self.next_packet()
    }

    #[inline]
    fn ingress(
        &mut self,
        switch: &mut dyn Switch,
        pkt: Packet,
        now: SimTime,
        drops: &mut Vec<Dropped>,
    ) {
        switch.ingress(pkt, now, drops);
    }
}

/// The event loop: every single-switch run, serial or sharded, goes
/// through here.
pub(crate) fn drive<F: ArrivalFeed + ?Sized, T: Tracer + ?Sized>(
    feed: &mut F,
    switch: &mut dyn Switch,
    cfg: &EngineConfig,
    tracer: &mut T,
    metrics: Option<&MetricsHandle>,
    faults: Option<&FaultInjector>,
    mut telemetry: Option<&mut Telemetry>,
) -> RunResult {
    let mut stats = StatsCollector::new(cfg.stats_interval);
    let mut delays = DelayHistogram::new();
    let mut drops_buf: Vec<Dropped> = Vec::new();

    let ids = metrics.map(|m| {
        let mut r = m.borrow_mut();
        (
            r.counter("engine_arrivals"),
            r.counter("engine_departures"),
            r.counter("engine_drops"),
            r.gauge("backlog_pkts"),
            r.histogram(
                "queue_depth_pkts",
                &[
                    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
                ],
            ),
        )
    });

    // The calendar owns the firing times; `pending`/`in_flight` own the
    // corresponding payloads. The drop buffer above is the only per-event
    // scratch and is reused across the whole run: after the first few
    // events warm the buffers up, the loop itself allocates nothing
    // (locked down by the `engine_steady_state_does_not_allocate` test).
    let mut calendar = EventCalendar::new();
    let mut pending: Option<Packet> = next_arrival(feed, cfg.end_time);
    if let Some(p) = &pending {
        calendar.schedule(EventSlot::Arrival, p.arrival);
    }
    let mut in_flight: Option<Packet> = None;
    if let Some(period) = cfg.control_period {
        calendar.schedule(EventSlot::Control, SimTime::ZERO + period);
    }

    let mut now = SimTime::ZERO;
    let (mut arrivals, mut departures, mut total_drops) = (0u64, 0u64, 0u64);
    let mut control_ticks = 0u64;
    let mut stats_bucket = 0u64;
    // A control tick the injector postponed: when it finally fires it runs
    // unconditionally — a delayed tick can be late, but never lost twice.
    let mut control_delayed = false;

    loop {
        // Control ticks only matter while there is still work, so the loop
        // exits when both the source and the switch are drained (a control
        // plane must not keep its own simulation alive forever).
        let has_work = calendar.is_scheduled(EventSlot::Tx)
            || calendar.is_scheduled(EventSlot::Arrival)
            || switch.backlog_pkts() > 0;
        let next = if has_work {
            calendar.earliest()
        } else {
            calendar.earliest_without_control()
        };
        let Some((slot, t)) = next else {
            break;
        };
        debug_assert!(t >= now, "event time went backwards");
        now = t;

        // Stats-interval boundary: note the tick and snapshot metrics.
        let bucket = now.bucket(cfg.stats_interval);
        if bucket != stats_bucket {
            stats_bucket = bucket;
            let boundary_ns = bucket * cfg.stats_interval.as_nanos();
            if tracer.enabled() {
                tracer.record(boundary_ns, &Event::StatsTick { bucket });
            }
            if let (Some(m), Some(ids)) = (metrics, &ids) {
                let mut r = m.borrow_mut();
                r.set(ids.3, switch.backlog_pkts() as f64);
                match telemetry.as_mut() {
                    Some(t) => t.on_period(boundary_ns, switch.backlog_pkts(), Some(&r)),
                    None => r.snapshot(boundary_ns),
                }
            } else if let Some(t) = telemetry.as_mut() {
                t.on_period(boundary_ns, switch.backlog_pkts(), None);
            }
        }

        match slot {
            EventSlot::Tx => {
                // Transmission completes: the packet leaves on the wire.
                let pkt = in_flight.take().expect("Tx slot implies in-flight");
                calendar.cancel(EventSlot::Tx);
                stats.on_depart(&pkt, now);
                delays.record(pkt.class, now.saturating_since(pkt.arrival));
                departures += 1;
                if tracer.enabled() {
                    tracer.record(
                        now.as_nanos(),
                        &Event::Depart {
                            class: pkt.class.0,
                            size: pkt.size,
                        },
                    );
                }
                if let (Some(m), Some(ids)) = (metrics, &ids) {
                    m.borrow_mut().inc(ids.1, 1);
                }
                if let Some(t) = telemetry.as_mut() {
                    t.on_depart(pkt.size);
                }
            }
            EventSlot::Control => {
                let period = cfg.control_period.expect("Control slot implies a period");
                let action = match faults {
                    Some(f) if !control_delayed => f.control_action(now),
                    _ => ControlAction::Run,
                };
                match action {
                    ControlAction::Run => {
                        control_delayed = false;
                        switch.control_tick(now);
                        control_ticks += 1;
                        if tracer.enabled() {
                            tracer.record(
                                now.as_nanos(),
                                &Event::ControlTick {
                                    tick: control_ticks,
                                },
                            );
                        }
                        calendar.schedule(EventSlot::Control, now + period);
                    }
                    ControlAction::Skip => {
                        switch.control_missed(now);
                        calendar.schedule(EventSlot::Control, now + period);
                    }
                    ControlAction::Delay(d) => {
                        control_delayed = true;
                        calendar.schedule(EventSlot::Control, now + d);
                    }
                }
            }
            EventSlot::Arrival => {
                let pkt = pending
                    .take()
                    .expect("Arrival slot implies a pending packet");
                calendar.cancel(EventSlot::Arrival);
                stats.on_arrival(&pkt);
                arrivals += 1;
                if let Some(t) = telemetry.as_mut() {
                    t.on_arrival(now.as_nanos(), flow_key(&pkt), pkt.class.0, pkt.size);
                }
                drops_buf.clear();
                feed.ingress(switch, pkt, now, &mut drops_buf);
                for d in &drops_buf {
                    stats.on_drop(d, now);
                    if let Some(t) = telemetry.as_mut() {
                        t.on_drop(&flow_key(&d.packet));
                    }
                    if tracer.enabled() {
                        tracer.record(
                            now.as_nanos(),
                            &Event::Drop {
                                queue: None,
                                class: d.packet.class.0,
                                size: d.packet.size,
                                reason: d.reason.name(),
                            },
                        );
                    }
                }
                total_drops += drops_buf.len() as u64;
                if let (Some(m), Some(ids)) = (metrics, &ids) {
                    let mut r = m.borrow_mut();
                    r.inc(ids.0, 1);
                    if !drops_buf.is_empty() {
                        r.inc(ids.2, drops_buf.len() as u64);
                    }
                    r.observe(ids.4, switch.backlog_pkts() as f64);
                }
                pending = next_arrival(feed, cfg.end_time);
                if let Some(p) = &pending {
                    calendar.schedule(EventSlot::Arrival, p.arrival);
                }
            }
        }

        // Whenever the link is idle and the switch has backlog, start the
        // next transmission.
        if in_flight.is_none() {
            if let Some(pkt) = switch.dequeue(now) {
                let mut tx = cfg.link.tx_time(pkt.size);
                if let Some(f) = faults {
                    let scale = f.link_scale(now);
                    if scale < 1.0 {
                        tx = SimDuration::from_nanos((tx.as_nanos() as f64 / scale).ceil() as u64);
                    }
                }
                calendar.schedule(EventSlot::Tx, now + tx);
                in_flight = Some(pkt);
            }
        }
    }

    // Final snapshot (or streamed final period) so short runs still
    // export at least one.
    if let (Some(m), Some(ids)) = (metrics, &ids) {
        let mut r = m.borrow_mut();
        r.set(ids.3, switch.backlog_pkts() as f64);
        match telemetry.as_mut() {
            Some(t) => t.finish(now.as_nanos(), switch.backlog_pkts(), Some(&r)),
            None => r.snapshot(now.as_nanos()),
        }
    } else if let Some(t) = telemetry.as_mut() {
        t.finish(now.as_nanos(), switch.backlog_pkts(), None);
    }

    RunResult {
        stats,
        delays,
        final_time: now,
        arrivals,
        departures,
        drops: total_drops,
    }
}

/// The truncating pull: the first packet at or past the end time is
/// consumed and discarded, and (because the loop then schedules no
/// arrival) the feed is never pulled again.
fn next_arrival<F: ArrivalFeed + ?Sized>(feed: &mut F, end: Option<SimTime>) -> Option<Packet> {
    let pkt = feed.pull()?;
    match end {
        Some(end) if pkt.arrival >= end => None,
        _ => Some(pkt),
    }
}

/// The pre-calendar engine loop, kept verbatim (minus instrumentation,
/// which `NoopTracer` monomorphized away) as the benchmark baseline and
/// differential-test oracle for the [`EventCalendar`] refactor. Compiled
/// only with the `reference` cargo feature.
#[cfg(feature = "reference")]
pub mod reference {
    use super::*;

    /// Runs `source` through `switch` with the original per-iteration
    /// `Option`/`SimTime::MAX` sentinel min-scan. Must stay
    /// result-identical to [`run`](super::run).
    pub fn run_reference(
        source: &mut dyn PacketSource,
        switch: &mut dyn Switch,
        cfg: &EngineConfig,
    ) -> RunResult {
        let mut stats = StatsCollector::new(cfg.stats_interval);
        let mut delays = DelayHistogram::new();
        let mut drops_buf: Vec<Dropped> = Vec::new();

        let mut pending: Option<Packet> = next_arrival(source, cfg.end_time);
        // In-flight transmission: completion time and the packet on the wire.
        let mut in_flight: Option<(SimTime, Packet)> = None;
        let mut control_next = cfg.control_period.map(|p| SimTime::ZERO + p);

        let mut now = SimTime::ZERO;
        let (mut arrivals, mut departures, mut total_drops) = (0u64, 0u64, 0u64);
        let mut stats_bucket = 0u64;

        loop {
            // Earliest of: tx completion, control tick, next arrival.
            let t_tx = in_flight.as_ref().map(|(t, _)| *t).unwrap_or(SimTime::MAX);
            let t_arr = pending.as_ref().map(|p| p.arrival).unwrap_or(SimTime::MAX);
            let t_ctl = if pending.is_some() || in_flight.is_some() || switch.backlog_pkts() > 0 {
                control_next.unwrap_or(SimTime::MAX)
            } else {
                SimTime::MAX
            };

            let t = t_tx.min(t_arr).min(t_ctl);
            if t == SimTime::MAX {
                break;
            }
            debug_assert!(t >= now, "event time went backwards");
            now = t;

            let bucket = now.bucket(cfg.stats_interval);
            if bucket != stats_bucket {
                stats_bucket = bucket;
            }

            if t == t_tx {
                let (_, pkt) = in_flight.take().expect("t_tx implies in-flight");
                stats.on_depart(&pkt, now);
                delays.record(pkt.class, now.saturating_since(pkt.arrival));
                departures += 1;
            } else if t == t_ctl {
                switch.control_tick(now);
                let period = cfg.control_period.expect("t_ctl implies a period");
                control_next = Some(now + period);
            } else {
                let pkt = pending.take().expect("t_arr implies a pending packet");
                stats.on_arrival(&pkt);
                arrivals += 1;
                drops_buf.clear();
                switch.ingress(pkt, now, &mut drops_buf);
                for d in &drops_buf {
                    stats.on_drop(d, now);
                }
                total_drops += drops_buf.len() as u64;
                pending = next_arrival(source, cfg.end_time);
            }

            if in_flight.is_none() {
                if let Some(pkt) = switch.dequeue(now) {
                    let done = now + cfg.link.tx_time(pkt.size);
                    in_flight = Some((done, pkt));
                }
            }
        }

        RunResult {
            stats,
            delays,
            final_time: now,
            arrivals,
            departures,
            drops: total_drops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::ClassId;
    use crate::queue::FifoQueue;
    use crate::source::VecSource;
    use crate::switch::SingleQueueSwitch;

    fn cbr_packets(n: u64, gap_us: u64, size: u32) -> Vec<Packet> {
        (0..n)
            .map(|i| Packet::new(SimTime::from_micros(i * gap_us)).with_size(size))
            .collect()
    }

    #[test]
    fn uncongested_link_delivers_everything() {
        // 1000-byte packets every 1 ms = 8 Mbps offered on a 10 Mbps link.
        let mut src = VecSource::new(cbr_packets(100, 1_000, 1000));
        let mut sw = SingleQueueSwitch::new(FifoQueue::new(100_000));
        let cfg = EngineConfig::new(Bandwidth::from_mbps(10));
        let res = run(&mut src, &mut sw, &cfg);
        assert_eq!(res.arrivals, 100);
        assert_eq!(res.departures, 100);
        assert_eq!(res.drops, 0);
    }

    #[test]
    fn instrumented_run_traces_and_snapshots() {
        use accturbo_obs::{shared, Registry, RingTracer};
        use std::cell::RefCell;
        use std::rc::Rc;

        // Same overload scenario as `overloaded_link_drops_the_excess`:
        // both departs and drops occur, and the run spans many stats
        // intervals.
        let mut src = VecSource::new(cbr_packets(2_000, 100, 1000));
        let mut sw = SingleQueueSwitch::new(FifoQueue::new(10_000));
        let cfg = EngineConfig::new(Bandwidth::from_mbps(10))
            .with_stats_interval(SimDuration::from_millis(20));
        let mut tracer = shared(RingTracer::new(100_000));
        let metrics = Rc::new(RefCell::new(Registry::new()));
        let res = run_streamed(
            &mut src,
            &mut sw,
            &cfg,
            &mut tracer,
            Some(&metrics),
            None,
            None,
        );

        let t = tracer.borrow();
        let departs = t.iter().filter(|(_, e)| e.kind() == "depart").count() as u64;
        let drops = t.iter().filter(|(_, e)| e.kind() == "drop").count() as u64;
        let ticks = t.iter().filter(|(_, e)| e.kind() == "stats_tick").count();
        assert_eq!(departs, res.departures);
        assert_eq!(drops, res.drops);
        assert!(ticks > 0, "run must cross stats-interval boundaries");

        // Re-registering returns the existing ids.
        let mut r = metrics.borrow_mut();
        let (ia, id, ix) = (
            r.counter("engine_arrivals"),
            r.counter("engine_departures"),
            r.counter("engine_drops"),
        );
        let arr = r.counter_value(ia);
        let dep = r.counter_value(id);
        let drp = r.counter_value(ix);
        assert_eq!(arr, res.arrivals);
        assert_eq!(dep, res.departures);
        assert_eq!(drp, res.drops);
        assert!(r.snapshot_count() > 1, "per-interval + final snapshots");
        assert!(!r.to_jsonl().is_empty());
    }

    #[test]
    fn stats_ticks_precede_every_later_event_under_overload() {
        use accturbo_obs::{shared, OwnedEvent, Registry, RingTracer};
        use std::cell::RefCell;
        use std::rc::Rc;

        // 80 Mbps offered on a 10 Mbps link: the link stays busy across
        // every 1 ms stats bucket, so arrivals (and their drops) land on
        // both sides of each bucket boundary while a transmission is in
        // flight.
        let cfg = EngineConfig::new(Bandwidth::from_mbps(10))
            .with_stats_interval(SimDuration::from_millis(1))
            .with_control_period(SimDuration::from_micros(700));
        let mut src = VecSource::new(cbr_packets(2_000, 100, 1000));
        let mut sw = SingleQueueSwitch::new(FifoQueue::new(10_000));
        let mut tracer = shared(RingTracer::new(100_000));
        let metrics = Rc::new(RefCell::new(Registry::new()));
        let res = run_streamed(
            &mut src,
            &mut sw,
            &cfg,
            &mut tracer,
            Some(&metrics),
            None,
            None,
        );

        let mut plain_src = VecSource::new(cbr_packets(2_000, 100, 1000));
        let mut plain_sw = SingleQueueSwitch::new(FifoQueue::new(10_000));
        let plain = run(&mut plain_src, &mut plain_sw, &cfg);
        assert_eq!(format!("{res:?}"), format!("{plain:?}"));

        let events: Vec<(u64, OwnedEvent)> = tracer.borrow().iter().cloned().collect();
        let interval = cfg.stats_interval.as_nanos();
        let ticks = events
            .iter()
            .filter(|(_, e)| matches!(e, OwnedEvent::StatsTick { .. }))
            .count();
        assert!(ticks >= 100, "the run must cross many buckets: {ticks}");
        assert!(
            events.iter().any(|(_, e)| e.kind() == "drop"),
            "overload must drop"
        );
        // Scanning backwards, `boundary` is the earliest bucket start of
        // any stats tick recorded later; no event before that tick may
        // be at or past it.
        let mut boundary = u64::MAX;
        for (t, e) in events.iter().rev() {
            match e {
                OwnedEvent::StatsTick { bucket } => {
                    assert_eq!(*t, bucket * interval);
                    assert!(*t < boundary, "stats ticks out of order");
                    boundary = *t;
                }
                _ => assert!(
                    *t < boundary,
                    "{} at {t} ns recorded before the stats tick at {boundary} ns",
                    e.kind()
                ),
            }
        }
        assert_eq!(
            metrics.borrow().snapshot_count(),
            ticks as u64 + 1,
            "one snapshot per bucket boundary plus the final one"
        );
    }

    #[test]
    fn plain_run_matches_instrumented_run() {
        let cfg = EngineConfig::new(Bandwidth::from_mbps(10));
        let mut src1 = VecSource::new(cbr_packets(500, 100, 1000));
        let mut sw1 = SingleQueueSwitch::new(FifoQueue::new(10_000));
        let a = run(&mut src1, &mut sw1, &cfg);
        let mut src2 = VecSource::new(cbr_packets(500, 100, 1000));
        let mut sw2 = SingleQueueSwitch::new(FifoQueue::new(10_000));
        let b = run_streamed(&mut src2, &mut sw2, &cfg, &mut NoopTracer, None, None, None);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.departures, b.departures);
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.final_time, b.final_time);
    }

    #[test]
    fn overloaded_link_drops_the_excess() {
        // 1000-byte packets every 100 us = 80 Mbps offered on a 10 Mbps
        // link with a small buffer: ~7/8 of traffic must drop.
        let mut src = VecSource::new(cbr_packets(2_000, 100, 1000));
        let mut sw = SingleQueueSwitch::new(FifoQueue::new(10_000));
        let cfg = EngineConfig::new(Bandwidth::from_mbps(10));
        let res = run(&mut src, &mut sw, &cfg);
        assert_eq!(res.arrivals, 2_000);
        assert_eq!(res.departures + res.drops, 2_000 /* conservation */);
        let drop_frac = res.drops as f64 / res.arrivals as f64;
        assert!(
            (drop_frac - 0.875).abs() < 0.02,
            "expected ~87.5% drops, got {drop_frac}"
        );
    }

    #[test]
    fn throughput_matches_link_capacity_under_overload() {
        let mut src = VecSource::new(cbr_packets(20_000, 100, 1000));
        let mut sw = SingleQueueSwitch::new(FifoQueue::new(50_000));
        let cfg = EngineConfig::new(Bandwidth::from_mbps(10))
            .with_stats_interval(SimDuration::from_millis(500));
        let res = run(&mut src, &mut sw, &cfg);
        // Middle buckets should be saturated at ~10 Mbps.
        let bps = res.stats.throughput_bps(2, ClassId::BENIGN);
        assert!(
            (bps - 10e6).abs() / 10e6 < 0.02,
            "expected ~10 Mbps, got {bps}"
        );
    }

    #[test]
    fn control_ticks_fire_at_period() {
        struct TickCounter {
            inner: SingleQueueSwitch<FifoQueue>,
            ticks: Vec<SimTime>,
        }
        impl Switch for TickCounter {
            fn ingress(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
                self.inner.ingress(pkt, now, drops);
            }
            fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
                self.inner.dequeue(now)
            }
            fn backlog_pkts(&self) -> usize {
                self.inner.backlog_pkts()
            }
            fn control_tick(&mut self, now: SimTime) {
                self.ticks.push(now);
            }
        }
        let mut src = VecSource::new(cbr_packets(50, 10_000, 1000)); // 0.5 s of traffic
        let mut sw = TickCounter {
            inner: SingleQueueSwitch::new(FifoQueue::new(100_000)),
            ticks: Vec::new(),
        };
        let cfg = EngineConfig::new(Bandwidth::from_mbps(100))
            .with_control_period(SimDuration::from_millis(100));
        run(&mut src, &mut sw, &cfg);
        assert!(!sw.ticks.is_empty());
        for (i, t) in sw.ticks.iter().enumerate() {
            assert_eq!(t.as_nanos(), (i as u64 + 1) * 100_000_000);
        }
    }

    #[test]
    fn end_time_truncates_the_workload() {
        let mut src = VecSource::new(cbr_packets(1_000, 1_000, 1000)); // 1 s
        let mut sw = SingleQueueSwitch::new(FifoQueue::new(100_000));
        let cfg =
            EngineConfig::new(Bandwidth::from_mbps(100)).with_end_time(SimTime::from_millis(100));
        let res = run(&mut src, &mut sw, &cfg);
        assert_eq!(res.arrivals, 100);
    }

    #[test]
    fn calendar_earliest_picks_min_and_breaks_ties_by_priority() {
        let mut cal = EventCalendar::new();
        assert_eq!(cal.earliest(), None, "empty calendar has no events");

        cal.schedule(EventSlot::Arrival, SimTime::from_micros(5));
        cal.schedule(EventSlot::Tx, SimTime::from_micros(9));
        assert_eq!(
            cal.earliest(),
            Some((EventSlot::Arrival, SimTime::from_micros(5)))
        );

        // Equal times: Tx beats Control beats Arrival.
        cal.schedule(EventSlot::Tx, SimTime::from_micros(5));
        cal.schedule(EventSlot::Control, SimTime::from_micros(5));
        assert_eq!(
            cal.earliest(),
            Some((EventSlot::Tx, SimTime::from_micros(5)))
        );
        cal.cancel(EventSlot::Tx);
        assert_eq!(
            cal.earliest(),
            Some((EventSlot::Control, SimTime::from_micros(5)))
        );
        assert_eq!(
            cal.earliest_without_control(),
            Some((EventSlot::Arrival, SimTime::from_micros(5)))
        );

        cal.cancel(EventSlot::Control);
        cal.cancel(EventSlot::Arrival);
        assert_eq!(cal.earliest(), None);
        assert!(!cal.is_scheduled(EventSlot::Arrival));
    }

    #[test]
    fn control_plane_does_not_keep_a_drained_simulation_alive() {
        // An empty workload with a control period must terminate with
        // zero ticks — the `SimTime::MAX` sentinel of the old loop (and
        // the work gate of the new one) must never elect a phantom event.
        struct Panicking;
        impl Switch for Panicking {
            fn ingress(&mut self, _: Packet, _: SimTime, _: &mut Vec<Dropped>) {
                panic!("no packets exist");
            }
            fn dequeue(&mut self, _: SimTime) -> Option<Packet> {
                None
            }
            fn backlog_pkts(&self) -> usize {
                0
            }
            fn control_tick(&mut self, _: SimTime) {
                panic!("a control tick fired with no work in the system");
            }
        }
        let mut src = VecSource::new(Vec::new());
        let mut sw = Panicking;
        let cfg = EngineConfig::new(Bandwidth::from_mbps(10))
            .with_control_period(SimDuration::from_millis(1));
        let res = run(&mut src, &mut sw, &cfg);
        assert_eq!(res.arrivals, 0);
        assert_eq!(res.final_time, SimTime::ZERO);
    }

    #[test]
    fn tx_completion_beats_simultaneous_arrival() {
        // Packet 0 takes exactly 800 us on the wire (1000 B at 10 Mbps);
        // packet 1 arrives at that same instant. The Tx slot's priority
        // means the depart is processed first, so the arrival sees an
        // empty switch and goes straight into service with no queueing
        // delay.
        let mut src = VecSource::new(vec![
            Packet::new(SimTime::ZERO).with_size(1000),
            Packet::new(SimTime::from_micros(800)).with_size(1000),
        ]);
        let mut sw = SingleQueueSwitch::new(FifoQueue::new(100_000));
        let cfg = EngineConfig::new(Bandwidth::from_mbps(10));
        let res = run(&mut src, &mut sw, &cfg);
        assert_eq!(res.departures, 2);
        assert_eq!(res.final_time, SimTime::from_micros(1600));
        let (p50, max) = (
            res.delays.percentile(ClassId::BENIGN, 50.0),
            res.delays.percentile(ClassId::BENIGN, 100.0),
        );
        assert_eq!(p50, max, "neither packet ever waited behind the other");
    }

    #[test]
    fn conservation_holds_exactly() {
        let mut src = VecSource::new(cbr_packets(5_000, 50, 1200));
        let mut sw = SingleQueueSwitch::new(FifoQueue::new(20_000));
        let cfg = EngineConfig::new(Bandwidth::from_mbps(20));
        let res = run(&mut src, &mut sw, &cfg);
        assert_eq!(res.arrivals, res.departures + res.drops);
        assert_eq!(res.stats.total_arrived(ClassId::BENIGN).pkts, res.arrivals);
        assert_eq!(
            res.stats.total_departed(ClassId::BENIGN).pkts,
            res.departures
        );
    }
}
