//! The discrete-event simulation engine.
//!
//! The engine drives a tree of switches (`topology.rs`) with the
//! paper's testbed as its smallest case: one switch in front of one
//! bottleneck output link. Input capacity is assumed larger than the
//! output link (paper §3.1), so arrivals are taken directly from the
//! workload source and handed to an ingress leaf. Six event kinds are
//! interleaved in exact time order; at equal timestamps they fire in
//! this order (nodes in ascending index within a kind):
//!
//! 1. **Transmission completion** — a node's output link frees; at the
//!    root the packet departs, elsewhere it starts propagating.
//! 2. **Delivery** — a propagating packet reaches the parent node and
//!    ingresses there.
//! 3. **Control tick** — every node's control plane runs
//!    (`control_tick`), at a fixed configurable period. This is where
//!    the paper's reaction time lives: ACC-Turbo's priority updates only
//!    take effect at ticks.
//! 4. **Pushback message** — a rate-limit request reaches a node.
//! 5. **Pushback refresh** — the root re-reads its aggregate limits.
//! 6. **Packet arrival** — a leaf's data path runs (`ingress`).
//!
//! After every event, each *ready* node whose link is idle pulls its next
//! packet (`dequeue`). The ready nodes are the ones the event may have
//! let transmit: the node whose Tx completed, the parent on a delivery,
//! the leaf on an arrival, the root on a pushback refresh, and every node
//! on a control tick that runs or is suppressed. Any other node is busy
//! or has nothing queued, and by the [`Switch::dequeue`] contract (the
//! result depends on backlog alone) polling it would return `None`. A
//! single switch has no deliveries and no pushback, so its order is the
//! classic `Tx < Control < Arrival`.
//!
//! Per-node Tx and Deliver times live in an indexed binary min-heap
//! (`calendar.rs`) keyed `(time, id)` with `Tx(node) = node` and
//! `Deliver(node) = n + node`, so picking the next event and polling the
//! ready set cost O(log n) per event on a tree of n nodes; only control
//! ticks and pushback refreshes touch every node.
//!
//! The engine is synchronous and single-threaded: the workload is CPU-bound
//! and determinism is a hard requirement for figure regeneration, so (per
//! the networking guides) an async runtime would buy nothing here.
//!
//! One loop, `drive`, serves every run: [`run`] and [`run_streamed`]
//! give it a one-node tree, [`crate::topology::run_topology`] any tree.
//! Any [`PacketSource`] feeds it, the threaded one
//! ([`crate::shard::ThreadedSource`]) included.

use crate::calendar::Calendar;
use crate::fault::{ControlAction, FaultInjector};
use crate::latency::DelayHistogram;
use crate::packet::{DropReason, Dropped, Packet};
use crate::source::{Filled, PacketSource};
use crate::stats::StatsCollector;
use crate::switch::Switch;
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkSpec, Pushback, Topology, TopologyConfig, TopologyRunResult};
use crate::units::Bandwidth;
use accturbo_obs::{Event, FlowKey, NoopTracer, Telemetry, Tracer};
use std::collections::VecDeque;

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

    /// This configuration as the one-node tree the loop drives.
    pub(crate) fn one_node(&self) -> (Topology, TopologyConfig) {
        let link = LinkSpec::new(self.link, SimDuration::ZERO);
        let cfg = TopologyConfig {
            stats_interval: self.stats_interval,
            control_period: self.control_period,
            end_time: self.end_time,
            pushback: None,
        };
        (Topology::line(1, link, link), cfg)
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
    run_streamed(source, switch, cfg, &mut NoopTracer, None, None)
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
/// engine has: a tracer, a fault plane and a streaming-telemetry
/// bundle. Each is optional; with `NoopTracer` and `None` everywhere
/// this is [`run`].
///
/// **Events.** Trace events emitted here: `depart` and `drop` per
/// packet, `control_tick` per control-plane tick, and `stats_tick` at
/// every stats-interval boundary (on a tree also `hop` per link crossing
/// and `pushback_limit` per message). Switch-internal events (enqueue,
/// cluster decisions, priority remaps) are emitted by the switch itself
/// when its own tracer is installed — give both the bundle's
/// [`Telemetry::tracer`] to get a single interleaved timeline.
///
/// **Faults** (DESIGN.md §9). When `faults` is given, the injector is
/// consulted at the engine's two substrate decision points: each
/// control-tick firing (which may be run, suppressed — invoking the
/// switch's `control_missed` hook — or postponed) and each transmission
/// start on the bottleneck link (whose serialization time is stretched
/// inside a link-flap window). Packet-level faults live in
/// [`crate::fault::FaultedSource`], outside the engine. The engine
/// records the injector's queued faults into `tracer` as its clock
/// reaches them, and the rest at the end of the run.
///
/// **Telemetry** (DESIGN.md §11). When `telemetry` is given, the engine
/// registers `engine_arrivals` / `engine_departures` / `engine_drops`
/// counters, a `backlog_pkts` gauge, and a `queue_depth_pkts` histogram
/// in the bundle's registry ([`Telemetry::metrics`]), feeds the
/// reservoir flow sampler from arrivals/drops, and at every
/// stats-interval boundary (and once at the end, via
/// [`Telemetry::finish`]) calls [`Telemetry::on_period`], which streams
/// per-period counter deltas / gauge last-values / histogram merges to
/// the bundle's sink, runs the pulse-onset heuristic, and at the end
/// exports the labeled dataset. Nothing accumulates per period, so
/// telemetry memory stays bounded by the sink/ring/reservoir capacities
/// for arbitrarily long runs.
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
    faults: Option<&FaultInjector>,
    telemetry: Option<&mut Telemetry>,
) -> RunResult {
    let (topo, tcfg) = cfg.one_node();
    let nodes = &mut [switch];
    drive(
        source,
        &topo,
        nodes,
        &mut |_| 0,
        &tcfg,
        tracer,
        faults,
        telemetry,
    )
    .result
}

/// Arrivals per batch, at most: enough to amortize the source pull and
/// the batch classification over many packets, few enough that the
/// batch's feature columns stay in L1.
const LOOKAHEAD: usize = 256;

/// Arrival batching (DESIGN.md §8): at the first arrival event after a
/// control tick (or after the previous batch is spent), the loop pulls
/// the arrivals that precede the next tick, up to [`LOOKAHEAD`] of them,
/// in one [`PacketSource::fill`] call. When the leaf switch can, it
/// classifies them all in one [`Switch::classify_ahead`] call, and each
/// is then handed over at its own arrival event, with its index in the
/// batch, through [`Switch::ingress_classified`].
///
/// Buffering is exact because no source's stream depends on the run:
/// `FaultedSource` draws packet fates from a stream of their own, so
/// pulling ahead only queues their fault records earlier, and the loop
/// records those at their own times. Classifying ahead is exact because
/// nothing but arrivals reaches the leaf's classifier between two
/// control ticks, and control ticks fire before arrivals at equal times,
/// so no batch holds a packet at or past the next tick. It needs one
/// leaf and no pushback (whose policers drop before ingress); a switch
/// that does not classify ahead declines the first batch, after which
/// the run stays buffered but classifies per packet.
struct Lookahead {
    /// Whether the leaf classifies each batch: one leaf, no pushback,
    /// and a switch that classifies ahead.
    classify: bool,
    /// The batch in flight.
    pkts: Vec<Packet>,
    /// The next batch packet to become the pending arrival.
    next: usize,
    /// Whether the pending arrival is the batch's packet `next - 1`.
    in_batch: bool,
    /// A packet pulled while filling that arrives at or past the next
    /// control tick: the pending arrival once the batch is spent.
    held: Option<Packet>,
    /// The source returned `None` (exhausted, or truncated at the end
    /// time): it is never pulled again.
    done: bool,
}

impl Lookahead {
    fn new(classify: bool) -> Self {
        Lookahead {
            classify,
            pkts: Vec::new(),
            next: 0,
            in_batch: false,
            held: None,
            done: false,
        }
    }

    /// The next pending arrival: from the batch, then the held packet,
    /// then the source.
    ///
    /// Inlined like [`next_arrival`]: `drive` is instantiated in the
    /// calling crates, where an out-of-line call per arrival cost the
    /// serial benchmarks about 3%.
    #[inline]
    fn pull(&mut self, source: &mut dyn PacketSource, end: Option<SimTime>) -> Option<Packet> {
        if let Some(pkt) = self.pkts.get(self.next) {
            self.next += 1;
            self.in_batch = true;
            return Some(pkt.clone());
        }
        self.in_batch = false;
        if let Some(pkt) = self.held.take() {
            return Some(pkt);
        }
        if self.done {
            return None;
        }
        next_arrival(source, end)
    }

    /// The pending arrival's index in its batch, if that was classified.
    #[inline]
    fn classified(&self) -> Option<usize> {
        (self.classify && self.in_batch).then(|| self.next - 1)
    }

    /// Starts a batch at `first`, whose arrival event is firing: fills
    /// it with the arrivals before `horizon` (the next control tick) and
    /// the end time, and has `switch` classify them all if it may. A
    /// packet at or past the end time is discarded and ends the source,
    /// exactly as [`next_arrival`] does; one before it is held.
    fn fill(
        &mut self,
        first: &Packet,
        source: &mut dyn PacketSource,
        end: Option<SimTime>,
        horizon: SimTime,
        switch: &mut dyn Switch,
    ) {
        self.pkts.clear();
        self.pkts.push(first.clone());
        self.next = 1;
        self.in_batch = true;
        let end_at = end.unwrap_or(SimTime::MAX);
        match source.fill(&mut self.pkts, LOOKAHEAD, horizon.min(end_at)) {
            Filled::Full => {}
            Filled::Held(pkt) if pkt.arrival < end_at => self.held = Some(pkt),
            Filled::Held(_) | Filled::Done => self.done = true,
        }
        self.classify = self.classify && switch.classify_ahead(&self.pkts);
    }
}

/// The loop's event kinds, declared in tie-break order: at equal
/// timestamps the earlier kind fires first, and within a kind the lower
/// node index (pushback messages: the lower position in the in-flight
/// list).
#[derive(Debug, Clone, Copy)]
enum Slot {
    Tx(usize),
    Deliver(usize),
    Control,
    Msg(usize),
    Refresh,
    Arrival,
}

/// Keeps `slot` as the next event if it fires strictly before the best
/// so far: candidates offered in tie-break order win their ties.
#[inline]
fn offer(next: &mut Option<(Slot, SimTime)>, slot: Slot, t: SimTime) {
    if t != SimTime::MAX && next.is_none_or(|(_, bt)| t < bt) {
        *next = Some((slot, t));
    }
}

/// Packets queued across every node.
fn backlog(nodes: &[&mut dyn Switch]) -> usize {
    nodes.iter().map(|s| s.backlog_pkts()).sum()
}

/// The event loop: every run — one switch or a tree, from any source —
/// goes through here. `place` maps an arrival to a leaf ordinal; with
/// one leaf it is never called. The hooks are [`run_streamed`]'s.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<T: Tracer + ?Sized>(
    source: &mut dyn PacketSource,
    topo: &Topology,
    nodes: &mut [&mut dyn Switch],
    place: &mut dyn FnMut(&Packet) -> usize,
    cfg: &TopologyConfig,
    tracer: &mut T,
    faults: Option<&FaultInjector>,
    mut telemetry: Option<&mut Telemetry>,
) -> TopologyRunResult {
    let n = topo.num_nodes();
    assert_eq!(nodes.len(), n, "one switch per topology node");
    let (root, leaves) = (topo.root(), topo.leaves());
    let mut stats = StatsCollector::new(cfg.stats_interval);
    let mut delays = DelayHistogram::new();
    let mut drops_buf: Vec<Dropped> = Vec::new();

    let metrics = telemetry.as_ref().map(|t| {
        let m = t.metrics();
        let ids = {
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
        };
        (m, ids)
    });

    // Per node: the packet on its output link (`None` = idle) and the
    // packets propagating on that link, each with its delivery time.
    // The calendar holds the time of every node's next Tx completion and
    // wire-head delivery. The drop buffer is the only per-event scratch;
    // after warm-up the loop allocates nothing (locked down by the
    // `zero_alloc` tests).
    let mut in_flight: Vec<Option<Packet>> = vec![None; n];
    let mut wires: Vec<VecDeque<(SimTime, Packet)>> = vec![VecDeque::new(); n];
    let mut calendar = Calendar::new(2 * n);
    let (tx_id, deliver_id) = (|i: usize| i, |i: usize| n + i);
    let (mut busy, mut on_wire) = (0usize, 0usize);
    let mut pending: Option<Packet> = next_arrival(source, cfg.end_time);
    let mut ahead = Lookahead::new(leaves.len() == 1 && cfg.pushback.is_none());
    let mut control_at = cfg
        .control_period
        .map_or(SimTime::MAX, |p| SimTime::ZERO + p);
    let mut pushback = cfg.pushback.map(|plan| Pushback::new(plan, n));

    let mut now = SimTime::ZERO;
    let (mut arrivals, mut departures, mut total_drops) = (0u64, 0u64, 0u64);
    let mut node_drops = vec![0u64; n];
    let mut hops = 0u64;
    let mut control_ticks = 0u64;
    let mut stats_bucket = 0u64;
    // A control tick the injector postponed: when it finally fires it runs
    // unconditionally — a delayed tick can be late, but never lost twice.
    let mut control_delayed = false;

    // Records the fault plane's queued faults up to `at` (DESIGN.md §9).
    let drain = |at: SimTime, tracer: &mut T| {
        if let Some(f) = faults {
            f.drain(at, tracer);
        }
    };

    // Packets queued across every node, from the loop's own counts: every
    // arrival has departed, dropped, or sits on a link or in a queue.
    macro_rules! queued {
        () => {
            (arrivals - departures - total_drops) as usize - busy - on_wire
        };
    }

    // Ingress at `node` through its pushback policer, then the switch
    // (`$ingress`, with the packet bound to `$p`, pushing its drops into
    // `drops_buf`); every drop is counted at the node, in the stats, the
    // telemetry and the trace.
    macro_rules! ingress_at {
        ($node:expr, $pkt:expr, |$p:ident| $ingress:expr) => {{
            let (node, pkt): (usize, Packet) = ($node, $pkt);
            drops_buf.clear();
            if pushback
                .as_mut()
                .is_some_and(|pb| pb.polices(node, &pkt, now))
            {
                drops_buf.push(Dropped {
                    packet: pkt,
                    reason: DropReason::Policer,
                });
            } else {
                let $p = pkt;
                $ingress;
            }
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
            node_drops[node] += drops_buf.len() as u64;
            total_drops += drops_buf.len() as u64;
        }};
    }

    loop {
        let mut next: Option<(Slot, SimTime)> = calendar.peek().map(|(id, t)| match id < n {
            true => (Slot::Tx(id), t),
            false => (Slot::Deliver(id - n), t),
        });
        // Control-plane events only matter while there is still work, so
        // the loop exits once the source, the links and every switch are
        // drained (a control plane must not keep its own simulation alive).
        if pending.is_some() || next.is_some() || queued!() > 0 {
            offer(&mut next, Slot::Control, control_at);
            if let Some(pb) = &pushback {
                for (k, m) in pb.msgs.iter().enumerate() {
                    offer(&mut next, Slot::Msg(k), m.0);
                }
                offer(&mut next, Slot::Refresh, pb.refresh_at);
            }
        }
        if let Some(p) = &pending {
            offer(&mut next, Slot::Arrival, p.arrival);
        }
        let Some((slot, t)) = next else {
            break;
        };
        debug_assert!(t >= now, "event time went backwards");
        now = t;

        // Stats-interval boundary: note the tick and stream the period.
        // Then the faults queued up to now, those before the tick first.
        let bucket = now.bucket(cfg.stats_interval);
        if bucket != stats_bucket {
            stats_bucket = bucket;
            let boundary_ns = bucket * cfg.stats_interval.as_nanos();
            let backlog_pkts = queued!();
            debug_assert_eq!(backlog_pkts, backlog(nodes), "the derived backlog");
            drain(SimTime::from_nanos(boundary_ns - 1), tracer);
            if tracer.enabled() {
                tracer.record(boundary_ns, &Event::StatsTick { bucket });
            }
            if let (Some(t), Some((m, ids))) = (telemetry.as_mut(), &metrics) {
                m.borrow_mut().set(ids.3, backlog_pkts as f64);
                t.on_period(boundary_ns, backlog_pkts);
            }
        }
        drain(now, tracer);

        // The nodes this event may have let transmit — the ready set, in
        // ascending order. Every other node is busy or has nothing
        // queued, which `dequeue` cannot change (its result depends on
        // backlog alone), so polling it would return `None`.
        let ready = match slot {
            Slot::Tx(i) => {
                let pkt = in_flight[i].take().expect("Tx implies in-flight");
                calendar.remove(tx_id(i));
                busy -= 1;
                if i == root {
                    // The packet leaves the tree on the bottleneck link.
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
                    if let Some((m, ids)) = &metrics {
                        m.borrow_mut().inc(ids.1, 1);
                    }
                    if let Some(t) = telemetry.as_mut() {
                        t.on_depart(pkt.size);
                    }
                } else {
                    if let Some(pb) = &mut pushback {
                        pb.forwarded(i, &pkt);
                    }
                    let at = now + topo.link(i).delay;
                    if wires[i].is_empty() {
                        calendar.set(deliver_id(i), at);
                    }
                    wires[i].push_back((at, pkt));
                    on_wire += 1;
                }
                i..i + 1
            }
            Slot::Deliver(i) => {
                let (_, pkt) = wires[i].pop_front().expect("Deliver implies a wire packet");
                match wires[i].front() {
                    Some(&(at, _)) => calendar.set(deliver_id(i), at),
                    None => calendar.remove(deliver_id(i)),
                }
                on_wire -= 1;
                let parent = topo.parent(i).expect("only non-root links deliver");
                hops += 1;
                if tracer.enabled() {
                    tracer.record(
                        now.as_nanos(),
                        &Event::Hop {
                            node: parent,
                            class: pkt.class.0,
                            size: pkt.size,
                        },
                    );
                }
                ingress_at!(parent, pkt, |p| nodes[parent].ingress(
                    p,
                    now,
                    &mut drops_buf
                ));
                if let Some((m, ids)) = &metrics {
                    if !drops_buf.is_empty() {
                        m.borrow_mut().inc(ids.2, drops_buf.len() as u64);
                    }
                }
                parent..parent + 1
            }
            Slot::Control => {
                let period = cfg.control_period.expect("Control implies a period");
                let action = match faults {
                    Some(f) if !control_delayed => f.control_action(now),
                    _ => ControlAction::Run,
                };
                drain(now, tracer);
                match action {
                    ControlAction::Run => {
                        control_delayed = false;
                        for sw in nodes.iter_mut() {
                            sw.control_tick(now);
                        }
                        control_ticks += 1;
                        if tracer.enabled() {
                            tracer.record(
                                now.as_nanos(),
                                &Event::ControlTick {
                                    tick: control_ticks,
                                },
                            );
                        }
                        control_at = now + period;
                        0..n
                    }
                    ControlAction::Skip => {
                        for sw in nodes.iter_mut() {
                            sw.control_missed(now);
                        }
                        control_at = now + period;
                        0..n
                    }
                    ControlAction::Delay(d) => {
                        control_delayed = true;
                        control_at = now + d;
                        0..0
                    }
                }
            }
            Slot::Msg(k) => {
                let pb = pushback.as_mut().expect("Msg implies pushback");
                let (node, limit) = pb.deliver(k, topo, now);
                if tracer.enabled() {
                    tracer.record(
                        now.as_nanos(),
                        &Event::PushbackLimit {
                            upstream: node,
                            prefix: limit.addr,
                            prefix_len: limit.len,
                            bps: limit.bps,
                        },
                    );
                }
                0..0
            }
            Slot::Refresh => {
                let pb = pushback.as_mut().expect("Refresh implies pushback");
                pb.refresh(topo, &mut *nodes[root], now);
                root..root + 1
            }
            Slot::Arrival => {
                let pkt = pending.take().expect("Arrival implies a pending packet");
                let leaf = match leaves {
                    [only] => *only,
                    _ => leaves[place(&pkt)],
                };
                if !ahead.in_batch {
                    let sw = &mut *nodes[leaf];
                    ahead.fill(&pkt, source, cfg.end_time, control_at, sw);
                }
                stats.on_arrival(&pkt);
                arrivals += 1;
                if let Some(t) = telemetry.as_mut() {
                    t.on_arrival(now.as_nanos(), flow_key(&pkt), pkt.class.0, pkt.size);
                }
                ingress_at!(leaf, pkt, |p| match ahead.classified() {
                    Some(j) => nodes[leaf].ingress_classified(p, j, now, &mut drops_buf),
                    None => nodes[leaf].ingress(p, now, &mut drops_buf),
                });
                if let Some((m, ids)) = &metrics {
                    let mut r = m.borrow_mut();
                    r.inc(ids.0, 1);
                    if !drops_buf.is_empty() {
                        r.inc(ids.2, drops_buf.len() as u64);
                    }
                    r.observe(ids.4, queued!() as f64);
                }
                pending = ahead.pull(source, cfg.end_time);
                leaf..leaf + 1
            }
        };

        // A ready node whose link is idle and whose switch has backlog
        // starts its next transmission; the fault plane may stretch the
        // bottleneck's.
        for i in ready {
            if in_flight[i].is_none() {
                if let Some(pkt) = nodes[i].dequeue(now) {
                    let mut tx = topo.link(i).bandwidth.tx_time(pkt.size);
                    if let Some(f) = faults.filter(|_| i == root) {
                        let scale = f.link_scale(now);
                        if scale < 1.0 {
                            tx = SimDuration::from_nanos(
                                (tx.as_nanos() as f64 / scale).ceil() as u64
                            );
                        }
                    }
                    calendar.set(tx_id(i), now + tx);
                    in_flight[i] = Some(pkt);
                    busy += 1;
                }
            }
        }
        debug_assert!(
            (0..n).all(|i| in_flight[i].is_some() || nodes[i].backlog_pkts() == 0),
            "an idle node was left with backlog: `Switch::dequeue` must return \
             `None` only when `backlog_pkts() == 0`, whatever `now` is"
        );
    }

    // The faults still queued, then the final period (so short runs
    // still export one).
    drain(SimTime::MAX, tracer);
    let backlog_pkts = backlog(nodes);
    if let (Some(t), Some((m, ids))) = (telemetry, &metrics) {
        m.borrow_mut().set(ids.3, backlog_pkts as f64);
        t.finish(now.as_nanos(), backlog_pkts);
    }

    let (pushback_installs, node_first_limit) = match pushback {
        Some(pb) => (pb.installs, pb.first_limit),
        None => (0, vec![None; n]),
    };
    TopologyRunResult {
        result: RunResult {
            stats,
            delays,
            final_time: now,
            arrivals,
            departures,
            drops: total_drops,
        },
        node_drops,
        backlog_pkts,
        hops,
        pushback_installs,
        node_first_limit,
    }
}

/// The truncating pull: the first packet at or past the end time is
/// consumed and discarded, and (because the loop then schedules no
/// arrival) the source is never pulled again.
#[inline]
pub(crate) fn next_arrival(source: &mut dyn PacketSource, end: Option<SimTime>) -> Option<Packet> {
    let pkt = source.next_packet()?;
    match end {
        Some(end) if pkt.arrival >= end => None,
        _ => Some(pkt),
    }
}

/// The original single-switch engine loop, kept verbatim (minus
/// instrumentation, which `NoopTracer` monomorphized away) as the
/// benchmark baseline and differential-test oracle for `drive`.
/// Compiled only with the `reference` cargo feature.
#[cfg(feature = "reference")]
pub mod reference {
    use super::*;

    /// Runs `source` through `switch` with the original per-iteration
    /// `Option`/`SimTime::MAX` sentinel min-scan. Must stay
    /// result-identical to [`super::run`].
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
    fn instrumented_run_traces_and_streams_periods() {
        use accturbo_obs::{shared, RingSink, RingTracer};

        // Same overload scenario as `overloaded_link_drops_the_excess`:
        // both departs and drops occur, and the run spans many stats
        // intervals.
        let mut src = VecSource::new(cbr_packets(2_000, 100, 1000));
        let mut sw = SingleQueueSwitch::new(FifoQueue::new(10_000));
        let cfg = EngineConfig::new(Bandwidth::from_mbps(10))
            .with_stats_interval(SimDuration::from_millis(20));
        let mut tracer = shared(RingTracer::new(100_000));
        let mut tel = Telemetry::new().with_sink(Box::new(RingSink::new(64)));
        let res = run_streamed(&mut src, &mut sw, &cfg, &mut tracer, None, Some(&mut tel));

        let t = tracer.borrow();
        let departs = t.iter().filter(|(_, e)| e.kind() == "depart").count() as u64;
        let drops = t.iter().filter(|(_, e)| e.kind() == "drop").count() as u64;
        let ticks = t.iter().filter(|(_, e)| e.kind() == "stats_tick").count();
        assert_eq!(departs, res.departures);
        assert_eq!(drops, res.drops);
        assert!(ticks > 0, "run must cross stats-interval boundaries");

        // Re-registering returns the existing ids.
        let metrics = tel.metrics();
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
        assert!(tel.periods() > 1, "per-interval + final periods");
        assert!(tel.sink_lines() > 0);
    }

    #[test]
    fn stats_ticks_precede_every_later_event_under_overload() {
        use accturbo_obs::{shared, Event, RingSink, RingTracer};

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
        let mut tel = Telemetry::new().with_sink(Box::new(RingSink::new(64)));
        let res = run_streamed(&mut src, &mut sw, &cfg, &mut tracer, None, Some(&mut tel));

        let mut plain_src = VecSource::new(cbr_packets(2_000, 100, 1000));
        let mut plain_sw = SingleQueueSwitch::new(FifoQueue::new(10_000));
        let plain = run(&mut plain_src, &mut plain_sw, &cfg);
        assert_eq!(format!("{res:?}"), format!("{plain:?}"));

        let events: Vec<(u64, Event)> = tracer.borrow().iter().cloned().collect();
        let interval = cfg.stats_interval.as_nanos();
        let ticks = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::StatsTick { .. }))
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
                Event::StatsTick { bucket } => {
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
            tel.periods(),
            ticks as u64 + 1,
            "one period per bucket boundary plus the final one"
        );
    }

    #[test]
    fn fault_records_reach_the_trace_in_time_order() {
        use crate::fault::{FaultConfig, FaultInjector, FaultSchedule, FaultedSource};
        use accturbo_obs::{shared, RingTracer};

        // One packet every 300 us on a fast link, half of them dropped
        // by the fault plane: a dropped packet often falls between the
        // last event before a 1 ms bucket boundary and the boundary.
        let faults = FaultInjector::new(FaultSchedule::new(FaultConfig {
            pkt_drop: 0.5,
            pkt_reorder: 0.2,
            ..FaultConfig::none(3)
        }));
        let pkts = VecSource::new(cbr_packets(400, 300, 100));
        let mut src = FaultedSource::new(pkts, faults.clone());
        let mut sw = SingleQueueSwitch::new(FifoQueue::new(100_000));
        let cfg = EngineConfig::new(Bandwidth::from_mbps(100))
            .with_stats_interval(SimDuration::from_millis(1))
            .with_control_period(SimDuration::from_micros(700));
        let mut tracer = shared(RingTracer::new(100_000));
        run_streamed(&mut src, &mut sw, &cfg, &mut tracer, Some(&faults), None);

        let t = tracer.borrow();
        let s = faults.stats();
        let traced = t.iter().filter(|(_, e)| e.kind() == "fault").count() as u64;
        assert_eq!(traced, s.pkt_dropped + s.pkt_reordered);
        let events: Vec<(u64, &str)> = t.iter().map(|(ts, e)| (*ts, e.kind())).collect();
        for pair in events.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "{:?} then {:?}", pair[0], pair[1]);
        }
    }

    #[test]
    fn plain_run_matches_instrumented_run() {
        let cfg = EngineConfig::new(Bandwidth::from_mbps(10));
        let mut src1 = VecSource::new(cbr_packets(500, 100, 1000));
        let mut sw1 = SingleQueueSwitch::new(FifoQueue::new(10_000));
        let a = run(&mut src1, &mut sw1, &cfg);
        let mut src2 = VecSource::new(cbr_packets(500, 100, 1000));
        let mut sw2 = SingleQueueSwitch::new(FifoQueue::new(10_000));
        let b = run_streamed(&mut src2, &mut sw2, &cfg, &mut NoopTracer, None, None);
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

    /// Counts every pull from the source it wraps, and the pulls that
    /// yield a packet at or past `end`.
    struct PullCounter {
        inner: VecSource,
        end: SimTime,
        pulls: u64,
        past_end: u64,
    }

    impl PacketSource for PullCounter {
        fn next_packet(&mut self) -> Option<Packet> {
            self.pulls += 1;
            let pkt = self.inner.next_packet()?;
            self.past_end += u64::from(pkt.arrival >= self.end);
            Some(pkt)
        }
    }

    #[test]
    fn plain_and_faulted_runs_pull_one_packet_past_the_end() {
        // 50 arrivals per millisecond. With 1 ms ticks a batch ends at
        // every tick, with 7 ms ticks also at the 256-packet cap, and
        // without ticks only at the cap; the end time falls inside a
        // batch, and then exactly on an arrival. Both runs batch: the
        // faulted one through `FaultedSource`'s default `fill`.
        use crate::fault::{FaultInjector, FaultedSource};
        for end_ns in [61_234_567, 61_220_000] {
            let end = SimTime::from_nanos(end_ns);
            for period_ms in [Some(1), Some(7), None] {
                let mut cfg = EngineConfig::new(Bandwidth::from_mbps(50))
                    .with_stats_interval(SimDuration::from_millis(20))
                    .with_end_time(end);
                if let Some(p) = period_ms {
                    cfg = cfg.with_control_period(SimDuration::from_millis(p));
                }
                let counter = || PullCounter {
                    inner: VecSource::new(cbr_packets(5_000, 20, 500)),
                    end,
                    pulls: 0,
                    past_end: 0,
                };
                let mut batched = counter();
                let mut sw = SingleQueueSwitch::new(FifoQueue::new(20_000));
                let a = run(&mut batched, &mut sw, &cfg);

                let faults = FaultInjector::noop();
                let mut faulted = FaultedSource::new(counter(), faults.clone());
                let mut sw = SingleQueueSwitch::new(FifoQueue::new(20_000));
                let b = run_streamed(
                    &mut faulted,
                    &mut sw,
                    &cfg,
                    &mut NoopTracer,
                    Some(&faults),
                    None,
                );
                let label = format!("end {end_ns} ns, period {period_ms:?} ms");
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{label}");
                assert_eq!(batched.past_end, 1, "{label}: batched run");
                assert_eq!(batched.pulls, a.arrivals + 1, "{label}: batched run");
                assert_eq!(faulted.injected(), a.arrivals + 1, "{label}");
            }
        }
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
