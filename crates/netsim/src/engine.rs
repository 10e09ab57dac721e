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
//! give it a one-node tree, [`crate::topology::run_topology`] any tree,
//! and the sharded engine ([`crate::shard::ShardedEngine`]) feeds it the
//! sealed batches of its producer thread.

use crate::calendar::Calendar;
use crate::fault::{ControlAction, FaultInjector};
use crate::latency::DelayHistogram;
use crate::packet::{DropReason, Dropped, Packet};
use crate::source::PacketSource;
use crate::stats::StatsCollector;
use crate::switch::Switch;
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkSpec, Pushback, Topology, TopologyConfig, TopologyRunResult};
use crate::units::Bandwidth;
use accturbo_obs::{Event, FlowKey, MetricsHandle, NoopTracer, Telemetry, Tracer};
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
/// every stats-interval boundary (on a tree also `hop` per link crossing
/// and `pushback_limit` per message). Switch-internal events (enqueue,
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
/// start on the bottleneck link (whose serialization time is stretched
/// inside a link-flap window). Packet-level faults live in
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
    let (topo, tcfg) = cfg.one_node();
    let nodes = &mut [switch];
    drive(
        source,
        &topo,
        nodes,
        &mut |_| 0,
        &tcfg,
        tracer,
        metrics,
        faults,
        telemetry,
    )
    .result
}

/// Where the event loop's arrivals come from: the loop pulls the next
/// packet, then hands it to its leaf's switch when its arrival event
/// fires.
///
/// A plain [`PacketSource`] ingresses through [`Switch::ingress`]; the
/// sharded feed (`shard.rs`) delivers its precomputed feature row through
/// [`Switch::ingress_featured`]. Unless the feed allows
/// [`PULL_AHEAD`](Self::PULL_AHEAD), the loop always ingresses the
/// pending packet before it pulls again, so a feed may keep the
/// coordinates of its last-pulled packet until then.
pub(crate) trait ArrivalFeed {
    /// Whether the loop may pull packets ahead of the pending one's
    /// ingress, for the classify-ahead lookahead ([`Lookahead`]).
    const PULL_AHEAD: bool = false;

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
    const PULL_AHEAD: bool = true;

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

/// Arrivals per classify-ahead batch, at most: enough to amortize the
/// batch pass over many packets, few enough that the batch's feature
/// columns stay in L1.
const LOOKAHEAD: usize = 256;

/// The classify-ahead lookahead (DESIGN.md §8): at the first arrival
/// event after a control tick, the loop pulls the arrivals that precede
/// the next tick (up to [`LOOKAHEAD`] of them) and the leaf switch
/// classifies them all in one [`Switch::classify_ahead`] call; each is
/// then handed over at its own arrival event through
/// [`Switch::ingress_classified`].
///
/// That is exact because nothing but arrivals reaches the leaf's
/// classifier between two control ticks, and control ticks fire before
/// arrivals at equal times, so no batch holds a packet at or past the
/// next tick. The lookahead runs only with one leaf, no pushback (whose
/// policers drop before ingress), no fault plane (whose source-side
/// decisions share an injector with the loop) and a feed that can pull
/// ahead; the switch may decline a batch, after which every packet takes
/// the per-packet path.
struct Lookahead {
    /// Whether batches are formed.
    on: bool,
    /// The batch in flight, and its tickets (empty when declined).
    pkts: Vec<Packet>,
    tickets: Vec<u32>,
    /// The next batch packet to become the pending arrival.
    next: usize,
    /// A packet pulled while filling that arrives at or past the next
    /// control tick: the pending arrival once the batch is spent.
    held: Option<Packet>,
    /// The feed returned `None` (exhausted, or truncated at the end
    /// time): it is never pulled again.
    done: bool,
}

impl Lookahead {
    fn new(on: bool) -> Self {
        Lookahead {
            on,
            pkts: Vec::new(),
            tickets: Vec::new(),
            next: 0,
            held: None,
            done: false,
        }
    }

    /// The next pending arrival and its ticket, if it was classified
    /// ahead: from the batch, then the held packet, then the feed.
    /// Without batches this is [`next_arrival`].
    fn pull<F: ArrivalFeed + ?Sized>(
        &mut self,
        feed: &mut F,
        end: Option<SimTime>,
    ) -> (Option<Packet>, Option<u32>) {
        if let Some(pkt) = self.pkts.get(self.next) {
            let ticket = self.tickets.get(self.next).copied();
            self.next += 1;
            return (Some(pkt.clone()), ticket);
        }
        if let Some(pkt) = self.held.take() {
            return (Some(pkt), None);
        }
        if self.done {
            return (None, None);
        }
        (next_arrival(feed, end), None)
    }

    /// Starts a batch at `first`, whose arrival event is firing: pulls
    /// the arrivals before `horizon` (the next control tick) that fit,
    /// through the same truncating [`next_arrival`], and has `switch`
    /// classify them all. Returns `first`'s ticket; on a decline, turns
    /// the lookahead off and returns `None`.
    fn fill<F: ArrivalFeed + ?Sized>(
        &mut self,
        first: &Packet,
        feed: &mut F,
        end: Option<SimTime>,
        horizon: SimTime,
        switch: &mut dyn Switch,
    ) -> Option<u32> {
        self.pkts.clear();
        self.pkts.push(first.clone());
        self.next = 1;
        while self.pkts.len() < LOOKAHEAD {
            match next_arrival(feed, end) {
                Some(pkt) if pkt.arrival < horizon => self.pkts.push(pkt),
                Some(pkt) => {
                    self.held = Some(pkt);
                    break;
                }
                None => {
                    self.done = true;
                    break;
                }
            }
        }
        if !switch.classify_ahead(&self.pkts, &mut self.tickets) {
            self.on = false;
            self.tickets.clear();
        }
        self.tickets.first().copied()
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

/// The event loop: every run — one switch or a tree, serial or sharded
/// — goes through here. `place` maps an arrival to a leaf ordinal; with
/// one leaf it is never called. The hooks are [`run_streamed`]'s.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<F: ArrivalFeed + ?Sized, T: Tracer + ?Sized>(
    feed: &mut F,
    topo: &Topology,
    nodes: &mut [&mut dyn Switch],
    place: &mut dyn FnMut(&Packet) -> usize,
    cfg: &TopologyConfig,
    tracer: &mut T,
    metrics: Option<&MetricsHandle>,
    faults: Option<&FaultInjector>,
    mut telemetry: Option<&mut Telemetry>,
) -> TopologyRunResult {
    let n = topo.num_nodes();
    assert_eq!(nodes.len(), n, "one switch per topology node");
    let (root, leaves) = (topo.root(), topo.leaves());
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
    let mut pending: Option<Packet> = next_arrival(feed, cfg.end_time);
    // The pending arrival's ticket, when it was classified ahead.
    let mut ticket: Option<u32> = None;
    let mut ahead = Lookahead::new(
        F::PULL_AHEAD && leaves.len() == 1 && cfg.pushback.is_none() && faults.is_none(),
    );
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

        // Stats-interval boundary: note the tick and snapshot metrics.
        let bucket = now.bucket(cfg.stats_interval);
        if bucket != stats_bucket {
            stats_bucket = bucket;
            let boundary_ns = bucket * cfg.stats_interval.as_nanos();
            let backlog_pkts = queued!();
            debug_assert_eq!(backlog_pkts, backlog(nodes), "the derived backlog");
            if tracer.enabled() {
                tracer.record(boundary_ns, &Event::StatsTick { bucket });
            }
            if let (Some(m), Some(ids)) = (metrics, &ids) {
                let mut r = m.borrow_mut();
                r.set(ids.3, backlog_pkts as f64);
                match telemetry.as_mut() {
                    Some(t) => t.on_period(boundary_ns, backlog_pkts, Some(&r)),
                    None => r.snapshot(boundary_ns),
                }
            } else if let Some(t) = telemetry.as_mut() {
                t.on_period(boundary_ns, backlog_pkts, None);
            }
        }

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
                    if let (Some(m), Some(ids)) = (metrics, &ids) {
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
                if let (Some(m), Some(ids)) = (metrics, &ids) {
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
                if ticket.is_none() && ahead.on {
                    let sw = &mut *nodes[leaf];
                    ticket = ahead.fill(&pkt, feed, cfg.end_time, control_at, sw);
                }
                stats.on_arrival(&pkt);
                arrivals += 1;
                if let Some(t) = telemetry.as_mut() {
                    t.on_arrival(now.as_nanos(), flow_key(&pkt), pkt.class.0, pkt.size);
                }
                ingress_at!(leaf, pkt, |p| match ticket.take() {
                    Some(t) => nodes[leaf].ingress_classified(p, t, now, &mut drops_buf),
                    None => feed.ingress(&mut *nodes[leaf], p, now, &mut drops_buf),
                });
                if let (Some(m), Some(ids)) = (metrics, &ids) {
                    let mut r = m.borrow_mut();
                    r.inc(ids.0, 1);
                    if !drops_buf.is_empty() {
                        r.inc(ids.2, drops_buf.len() as u64);
                    }
                    r.observe(ids.4, queued!() as f64);
                }
                (pending, ticket) = ahead.pull(feed, cfg.end_time);
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

    // Final snapshot (or streamed final period) so short runs still
    // export at least one.
    let backlog_pkts = backlog(nodes);
    if let (Some(m), Some(ids)) = (metrics, &ids) {
        let mut r = m.borrow_mut();
        r.set(ids.3, backlog_pkts as f64);
        match telemetry.as_mut() {
            Some(t) => t.finish(now.as_nanos(), backlog_pkts, Some(&r)),
            None => r.snapshot(now.as_nanos()),
        }
    } else if let Some(t) = telemetry.as_mut() {
        t.finish(now.as_nanos(), backlog_pkts, None);
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
/// arrival) the feed is never pulled again.
pub(crate) fn next_arrival<F: ArrivalFeed + ?Sized>(
    feed: &mut F,
    end: Option<SimTime>,
) -> Option<Packet> {
    let pkt = feed.pull()?;
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
