//! Multi-switch topologies with hop-by-hop pushback (DESIGN.md §13).
//!
//! The paper's testbed reduces the network to one bottleneck. The ACC
//! lineage (Mahajan 2002) argues the interesting pulse-wave dynamics are
//! multi-hop: pulses converging from many ingress points while rate-limit
//! requests propagate upstream. This module describes a small vocabulary
//! of tree topologies where
//!
//! * every node is an independent [`Switch`] (any defense),
//! * every link carries serialization (its [`Bandwidth`]) plus a
//!   propagation delay, and
//! * ACC pushback messages travel hop-by-hop against the traffic
//!   direction, one link delay per hop, narrowing the policed aggregate
//!   to what each hop actually observes.
//!
//! The engine's one event loop (`engine.rs`) runs every tree — a single
//! switch is the one-node `line:1` — so trees get the engine's tracer,
//! metrics, fault plane and telemetry; this module holds the shapes, the
//! pushback state ([`PushbackPlan`], policers, narrowing, division) and
//! the run entry points. The pre-unification scan loop survives as
//! `reference` (cargo feature `reference`), the differential oracle.
//!
//! All shapes are trees rooted at the bottleneck: traffic enters at the
//! leaves, flows toward the root, and departs on the root's output link
//! (the victim side). Pushback messages flow the other way.

use crate::engine::{drive, RunResult};
use crate::fault::FaultInjector;
use crate::packet::Packet;
use crate::rate::TokenBucket;
use crate::source::PacketSource;
use crate::switch::Switch;
use crate::time::{SimDuration, SimTime};
use crate::units::Bandwidth;
use accturbo_obs::{NoopTracer, Telemetry, Tracer};

/// One directed link: serialization rate plus propagation delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Serialization bandwidth.
    pub bandwidth: Bandwidth,
    /// Propagation delay added after serialization completes.
    pub delay: SimDuration,
}

impl LinkSpec {
    /// A link with the given rate and delay.
    pub fn new(bandwidth: Bandwidth, delay: SimDuration) -> Self {
        LinkSpec { bandwidth, delay }
    }
}

/// An aggregate rate-limit request: "police traffic destined to
/// `addr/len` down to `bps`" — the payload of a hop-by-hop pushback
/// message. Address-generic so the substrate does not depend on any
/// particular defense's prefix type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggLimit {
    /// Prefix address (host byte order).
    pub addr: u32,
    /// Prefix length in bits (0 = everything).
    pub len: u8,
    /// Allocated rate, bits per second.
    pub bps: u64,
}

impl AggLimit {
    /// Whether `ip` falls inside the aggregate.
    pub fn contains(&self, ip: u32) -> bool {
        if self.len == 0 {
            return true;
        }
        let shift = 32 - self.len as u32;
        (ip >> shift) == (self.addr >> shift)
    }
}

/// A tree of switches rooted at the bottleneck. Node indices are dense;
/// every node has one output link (toward its parent, or — for the root —
/// the bottleneck link itself).
#[derive(Debug, Clone)]
pub struct Topology {
    /// `parents[i]` — `None` exactly for the root.
    parents: Vec<Option<usize>>,
    /// `links[i]` — node `i`'s output link.
    links: Vec<LinkSpec>,
    /// Ingress nodes in placement-index order.
    leaves: Vec<usize>,
    /// `children[i]` — nodes whose parent is `i`, ascending.
    children: Vec<Vec<usize>>,
    root: usize,
}

impl Topology {
    fn assemble(parents: Vec<Option<usize>>, links: Vec<LinkSpec>, leaves: Vec<usize>) -> Self {
        assert_eq!(parents.len(), links.len());
        let root = parents
            .iter()
            .position(|p| p.is_none())
            .expect("a topology needs a root");
        let mut children = vec![Vec::new(); parents.len()];
        for (i, p) in parents.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(i);
            }
        }
        Topology {
            parents,
            links,
            leaves,
            children,
            root,
        }
    }

    /// A chain of `n ≥ 1` switches: leaf `0 → 1 → … → n-1 →` sink. With
    /// `n == 1` this is exactly the single-switch model.
    pub fn line(n: usize, uplink: LinkSpec, bottleneck: LinkSpec) -> Self {
        assert!(n >= 1, "line topology needs at least one switch");
        let parents = (0..n)
            .map(|i| if i + 1 < n { Some(i + 1) } else { None })
            .collect();
        let links = (0..n)
            .map(|i| if i + 1 < n { uplink } else { bottleneck })
            .collect();
        Topology::assemble(parents, links, vec![0])
    }

    /// `n ≥ 1` edge switches all feeding one core: edges `0..n`, core `n`.
    pub fn star(n: usize, uplink: LinkSpec, bottleneck: LinkSpec) -> Self {
        assert!(n >= 1, "star topology needs at least one edge");
        let mut parents: Vec<Option<usize>> = (0..n).map(|_| Some(n)).collect();
        parents.push(None);
        let mut links: Vec<LinkSpec> = (0..n).map(|_| uplink).collect();
        links.push(bottleneck);
        Topology::assemble(parents, links, (0..n).collect())
    }

    /// A two-level `k`-ary tree (`k ≥ 2`): `k²` edge leaves, `k`
    /// aggregation switches, one core. Edge `e` homes to aggregation
    /// `e / k`.
    pub fn fattree(k: usize, uplink: LinkSpec, bottleneck: LinkSpec) -> Self {
        assert!(k >= 2, "fattree needs k >= 2");
        let edges = k * k;
        let core = edges + k;
        let mut parents: Vec<Option<usize>> = (0..edges).map(|e| Some(edges + e / k)).collect();
        parents.extend((0..k).map(|_| Some(core)));
        parents.push(None);
        let mut links: Vec<LinkSpec> = (0..edges + k).map(|_| uplink).collect();
        links.push(bottleneck);
        Topology::assemble(parents, links, (0..edges).collect())
    }

    /// A fixed asymmetric ISP-edge shape: four customer edges (`0..4`),
    /// two regional aggregators (`4`, `5`; edges 0–1 home to 4, edges
    /// 2–3 to 5), one core (`6`) in front of the bottleneck.
    pub fn isp_edge(uplink: LinkSpec, bottleneck: LinkSpec) -> Self {
        let parents = vec![Some(4), Some(4), Some(5), Some(5), Some(6), Some(6), None];
        let mut links = vec![uplink; 6];
        links.push(bottleneck);
        Topology::assemble(parents, links, vec![0, 1, 2, 3])
    }

    /// Number of switches.
    pub fn num_nodes(&self) -> usize {
        self.parents.len()
    }

    /// The ingress nodes, in placement-index order.
    pub fn leaves(&self) -> &[usize] {
        &self.leaves
    }

    /// The bottleneck node (its output link leaves the topology).
    pub fn root(&self) -> usize {
        self.root
    }

    /// Node `i`'s parent (`None` for the root).
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.parents[i]
    }

    /// Node `i`'s output link.
    pub fn link(&self, i: usize) -> LinkSpec {
        self.links[i]
    }

    /// Switch count on the longest leaf → root path (a single switch has
    /// depth 1).
    pub fn depth(&self) -> usize {
        self.leaves
            .iter()
            .map(|&leaf| {
                let mut d = 1;
                let mut at = leaf;
                while let Some(p) = self.parents[at] {
                    d += 1;
                    at = p;
                }
                d
            })
            .max()
            .unwrap_or(1)
    }
}

/// The hop-by-hop pushback plan: how often the root re-reads its
/// switch's aggregate limits ([`Switch::pushback_limits`]) and
/// re-propagates them upstream.
#[derive(Debug, Clone, Copy)]
pub struct PushbackPlan {
    /// Refresh period at the root (messages then ripple upstream at one
    /// link delay per hop).
    pub refresh: SimDuration,
}

impl PushbackPlan {
    /// A plan with the given refresh period.
    pub fn new(refresh: SimDuration) -> Self {
        assert!(!refresh.is_zero(), "pushback refresh must be positive");
        PushbackPlan { refresh }
    }
}

/// Token-bucket depth of every pushback policer, bytes: the classic-ACC
/// 15 kB burst.
const POLICER_BURST_BYTES: u64 = 15_000;

/// Topology-engine configuration — the multi-node analogue of
/// [`crate::engine::EngineConfig`] (the link rates live in the
/// [`Topology`] itself).
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Width of the statistics buckets.
    pub stats_interval: SimDuration,
    /// Control-plane period shared by every node; `None` disables ticks.
    pub control_period: Option<SimDuration>,
    /// Hard stop: arrivals at or after this time are discarded and the
    /// topology drains.
    pub end_time: Option<SimTime>,
    /// Hop-by-hop pushback (`None` = data plane only).
    pub pushback: Option<PushbackPlan>,
}

impl TopologyConfig {
    /// The standard experiment shape: 1-second buckets, hard stop at
    /// `secs`, optional control plane, no pushback.
    pub fn experiment(secs: u64, control_period: Option<SimDuration>) -> Self {
        TopologyConfig {
            stats_interval: SimDuration::from_secs(1),
            control_period,
            end_time: Some(SimTime::from_secs(secs)),
            pushback: None,
        }
    }

    /// Enables hop-by-hop pushback.
    pub fn with_pushback(mut self, plan: PushbackPlan) -> Self {
        self.pushback = Some(plan);
        self
    }
}

/// Result of a topology run: the familiar end-to-end [`RunResult`]
/// (arrivals at the leaves, departures on the root's output link) plus
/// per-node accounting and the pushback propagation record.
#[derive(Debug)]
pub struct TopologyRunResult {
    /// End-to-end statistics (drops anywhere count in `result.drops`).
    pub result: RunResult,
    /// Drops per node (switch drops + pushback-policer drops).
    pub node_drops: Vec<u64>,
    /// Packets still queued across all switches at end-of-run.
    pub backlog_pkts: usize,
    /// Inter-switch link crossings (0 for a single-node topology).
    pub hops: u64,
    /// Pushback limit messages delivered (installs + refreshes).
    pub pushback_installs: u64,
    /// Per node: when the first pushback limit arrived, if ever. The
    /// leaf entries are the convergence record — a limit reaching a leaf
    /// has traversed the whole path.
    pub node_first_limit: Vec<Option<SimTime>>,
}

/// A policer installed at a node by a pushback message.
#[derive(Debug)]
struct Policer {
    limit: AggLimit,
    tb: TokenBucket,
    last_update: SimTime,
}

/// Per-node forwarded-traffic window: (dst, bytes) since the recent
/// refreshes, halved each refresh so it tracks the present. Bounded: at
/// [`FWD_CAP`] entries new destinations stop being distinguished (they
/// are simply not recorded), which only degrades narrowing/division
/// fairness, never correctness.
const FWD_CAP: usize = 512;

/// Slots of a window's destination index: a power of two at least twice
/// [`FWD_CAP`], so linear probes stay short.
const FWD_INDEX_SLOTS: usize = 2 * FWD_CAP;

/// One node's forwarded-traffic window: the `(dst, bytes)` entries in
/// first-recorded order (what narrowing and division read), plus an
/// open-addressed `dst → position` index so recording a forwarded
/// packet costs O(1) instead of a scan of every entry.
#[derive(Debug, Clone)]
struct Forwarded {
    entries: Vec<(u32, u64)>,
    /// Per slot: 1 + the position in `entries` of the destination
    /// hashed there (after linear probing), 0 when free. Sized once.
    index: Vec<u16>,
}

impl Forwarded {
    fn new() -> Self {
        Forwarded {
            entries: Vec::new(),
            index: vec![0; FWD_INDEX_SLOTS],
        }
    }

    /// The index slot `dst` probes first (Fibonacci hashing).
    fn home(dst: u32) -> usize {
        (dst.wrapping_mul(0x9E37_79B9) >> (32 - FWD_INDEX_SLOTS.trailing_zeros())) as usize
    }

    /// The index slot holding `dst`, or the free slot it would take.
    fn slot_of(&self, dst: u32) -> usize {
        let mut slot = Self::home(dst);
        while let Some(p) = self.index[slot].checked_sub(1) {
            if self.entries[usize::from(p)].0 == dst {
                break;
            }
            slot = (slot + 1) % FWD_INDEX_SLOTS;
        }
        slot
    }

    /// Adds `bytes` to `dst`'s entry; a new destination is appended
    /// while the window holds fewer than [`FWD_CAP`] entries.
    fn record(&mut self, dst: u32, bytes: u64) {
        let slot = self.slot_of(dst);
        match self.index[slot] {
            0 if self.entries.len() < FWD_CAP => {
                self.entries.push((dst, bytes));
                self.index[slot] = self.entries.len() as u16;
            }
            0 => {}
            p => self.entries[usize::from(p) - 1].1 += bytes,
        }
    }

    /// Halves every entry and drops those that reach zero, keeping the
    /// survivors' order; the index is rebuilt when any entry went.
    fn decay(&mut self) {
        let before = self.entries.len();
        for e in self.entries.iter_mut() {
            e.1 /= 2;
        }
        self.entries.retain(|e| e.1 > 0);
        if self.entries.len() == before {
            return;
        }
        self.index.fill(0);
        for p in 0..self.entries.len() {
            let slot = self.slot_of(self.entries[p].0);
            self.index[slot] = p as u16 + 1;
        }
    }
}

impl AsRef<[(u32, u64)]> for Forwarded {
    fn as_ref(&self) -> &[(u32, u64)] {
        &self.entries
    }
}

/// Narrows `limit` to the longest prefix covering every destination this
/// node actually forwarded inside it (aggregate narrowing, Mahajan §5):
/// a hop that only ever saw `198.18.5.0/26` inside a `/24` request
/// polices just the `/26`.
fn narrowed(limit: AggLimit, fwd: &[(u32, u64)]) -> AggLimit {
    let mut first: Option<u32> = None;
    let mut diff = 0u32;
    for &(dst, _) in fwd {
        if !limit.contains(dst) {
            continue;
        }
        match first {
            None => first = Some(dst),
            Some(f) => diff |= f ^ dst,
        }
    }
    let Some(f) = first else {
        return limit;
    };
    let common = diff.leading_zeros().min(32) as u8;
    let len = common.max(limit.len);
    let addr = if len == 0 {
        0
    } else {
        f & (u32::MAX << (32 - len as u32))
    };
    AggLimit {
        addr,
        len,
        bps: limit.bps,
    }
}

/// Divides `limit.bps` among `kids` in proportion to the bytes each
/// forwarded inside the aggregate, with a 10% even-split floor so a
/// currently-quiet upstream is never starved to zero — the one division
/// policy of every pushback run, applied at each hop.
/// `contribs` is scratch, reused across calls.
fn divide<W: AsRef<[(u32, u64)]>>(
    kids: &[usize],
    limit: AggLimit,
    fwd: &[W],
    contribs: &mut Vec<u64>,
    out: &mut Vec<(usize, u64)>,
) {
    out.clear();
    let n = kids.len();
    if n == 0 {
        return;
    }
    contribs.clear();
    contribs.extend(kids.iter().map(|&c| {
        fwd[c]
            .as_ref()
            .iter()
            .filter(|(dst, _)| limit.contains(*dst))
            .map(|(_, b)| *b)
            .sum::<u64>()
    }));
    let total: u64 = contribs.iter().sum();
    for (i, &c) in kids.iter().enumerate() {
        let share = if total == 0 {
            limit.bps / n as u64
        } else {
            (limit.bps as f64 * (0.9 * contribs[i] as f64 / total as f64 + 0.1 / n as f64)) as u64
        };
        out.push((c, share.max(1)));
    }
}

/// Longest-prefix policer match; first-installed wins ties.
fn match_policer(policers: &mut [Policer], dst: u32) -> Option<&mut Policer> {
    let mut best: Option<usize> = None;
    for (i, p) in policers.iter().enumerate() {
        if p.limit.contains(dst) && best.is_none_or(|b| p.limit.len > policers[b].limit.len) {
            best = Some(i);
        }
    }
    best.map(move |i| &mut policers[i])
}

/// The hop-by-hop pushback state of one run: the policers each node has
/// installed, what each node forwarded, and the limit messages in flight.
/// The event loop (`engine.rs`) owns the schedule; this owns the rest.
pub(crate) struct Pushback {
    plan: PushbackPlan,
    policers: Vec<Vec<Policer>>,
    fwd: Vec<Forwarded>,
    /// In-flight messages `(delivery time, receiving node, limit)`. At
    /// equal delivery times the lower position fires first; delivery
    /// `swap_remove`s, so the order is deterministic but not send order.
    pub(crate) msgs: Vec<(SimTime, usize, AggLimit)>,
    /// The next refresh at the root.
    pub(crate) refresh_at: SimTime,
    /// Messages delivered (installs + refreshes).
    pub(crate) installs: u64,
    /// Per node: when its first limit arrived.
    pub(crate) first_limit: Vec<Option<SimTime>>,
    limits: Vec<AggLimit>,
    shares: Vec<(usize, u64)>,
    contribs: Vec<u64>,
}

impl Pushback {
    pub(crate) fn new(plan: PushbackPlan, nodes: usize) -> Self {
        Pushback {
            plan,
            policers: (0..nodes).map(|_| Vec::new()).collect(),
            fwd: (0..nodes).map(|_| Forwarded::new()).collect(),
            msgs: Vec::new(),
            refresh_at: SimTime::ZERO + plan.refresh,
            installs: 0,
            first_limit: vec![None; nodes],
            limits: Vec::new(),
            shares: Vec::new(),
            contribs: Vec::new(),
        }
    }

    /// Whether `node`'s policer drops `pkt` (longest-prefix match, token
    /// bucket out of tokens).
    #[inline]
    pub(crate) fn polices(&mut self, node: usize, pkt: &Packet, now: SimTime) -> bool {
        let policers = &mut self.policers[node];
        !policers.is_empty()
            && match_policer(policers, u32::from(pkt.dst))
                .is_some_and(|p| !p.tb.conforms(pkt.size, now))
    }

    /// Records `pkt` leaving `node` toward its parent.
    #[inline]
    pub(crate) fn forwarded(&mut self, node: usize, pkt: &Packet) {
        self.fwd[node].record(u32::from(pkt.dst), pkt.size as u64);
    }

    /// Delivers message `k`: narrows the limit to what its node
    /// forwarded, installs (or refreshes) the node's policer and splits
    /// the allocation among the node's own children, one more link delay
    /// away. Returns the node and the limit it installed.
    pub(crate) fn deliver(&mut self, k: usize, topo: &Topology, now: SimTime) -> (usize, AggLimit) {
        let (_, node, limit) = self.msgs.swap_remove(k);
        let limit = narrowed(limit, &self.fwd[node].entries);
        let same = |p: &&mut Policer| p.limit.addr == limit.addr && p.limit.len == limit.len;
        match self.policers[node].iter_mut().find(same) {
            Some(p) => {
                p.limit.bps = limit.bps;
                p.tb.set_rate(Bandwidth::from_bps(limit.bps));
                p.last_update = now;
            }
            None => self.policers[node].push(Policer {
                limit,
                tb: TokenBucket::new(Bandwidth::from_bps(limit.bps), POLICER_BURST_BYTES),
                last_update: now,
            }),
        }
        self.installs += 1;
        self.first_limit[node].get_or_insert(now);
        self.send(topo, node, limit, now);
        (node, limit)
    }

    /// The refresh at the root: re-reads `root`'s aggregate limits and
    /// sends them upstream, ages out policers for aggregates the root
    /// stopped limiting, and decays the forwarded-traffic windows so
    /// division and narrowing track the present.
    pub(crate) fn refresh(&mut self, topo: &Topology, root: &mut dyn Switch, now: SimTime) {
        let mut limits = std::mem::take(&mut self.limits);
        limits.clear();
        root.pushback_limits(now, &mut limits);
        for limit in &limits {
            self.send(topo, topo.root, *limit, now);
        }
        self.limits = limits;
        let horizon = self.plan.refresh.as_nanos().saturating_mul(3);
        for ps in self.policers.iter_mut() {
            ps.retain(|p| now.saturating_since(p.last_update).as_nanos() <= horizon);
        }
        for w in self.fwd.iter_mut() {
            w.decay();
        }
        self.refresh_at = now + self.plan.refresh;
    }

    /// Splits `limit` among `node`'s children and puts one message per
    /// child on its link.
    fn send(&mut self, topo: &Topology, node: usize, limit: AggLimit, now: SimTime) {
        let kids = &topo.children[node];
        divide(kids, limit, &self.fwd, &mut self.contribs, &mut self.shares);
        for &(child, bps) in &self.shares {
            let at = now + topo.links[child].delay;
            self.msgs.push((at, child, AggLimit { bps, ..limit }));
        }
    }
}

/// Runs `source` through the topology and returns end-to-end statistics.
/// `place` maps each arriving packet to a leaf ordinal
/// (`0..topo.leaves().len()`).
pub fn run_topology(
    topo: &Topology,
    switches: &mut [Box<dyn Switch>],
    source: &mut dyn PacketSource,
    place: &mut dyn FnMut(&Packet) -> usize,
    cfg: &TopologyConfig,
) -> TopologyRunResult {
    let mut nodes: Vec<&mut dyn Switch> = switches.iter_mut().map(|s| s.as_mut() as _).collect();
    run_topology_streamed(
        topo,
        &mut nodes,
        source,
        place,
        cfg,
        &mut NoopTracer,
        None,
        None,
    )
}

/// [`run_topology`] with the engine's hooks, which act on the tree as
/// a whole (see [`crate::engine::run_streamed`]): trace events also
/// include `hop` per link crossing (tagged with the receiving node) and
/// `pushback_limit` per message delivery (tagged with the installing
/// node); the fault plane decides each shared control tick for every
/// node and stretches transmissions on the root's bottleneck link; the
/// telemetry counts arrivals at the leaves, drops at any node (policer
/// drops included), departures at the root, and the backlog summed over
/// all nodes.
#[allow(clippy::too_many_arguments)]
pub fn run_topology_streamed<T: Tracer + ?Sized>(
    topo: &Topology,
    switches: &mut [&mut dyn Switch],
    source: &mut dyn PacketSource,
    place: &mut dyn FnMut(&Packet) -> usize,
    cfg: &TopologyConfig,
    tracer: &mut T,
    faults: Option<&FaultInjector>,
    telemetry: Option<&mut Telemetry>,
) -> TopologyRunResult {
    drive(
        source, topo, switches, place, cfg, tracer, faults, telemetry,
    )
}

/// The pre-unification topology loop: a full scan of every node's link,
/// wire and pending message per event, then a dequeue attempt at every
/// node — kept, without tracing, as the differential-test oracle for
/// [`crate::engine`]'s loop, whose indexed calendar and ready set
/// replaced that scan. Compiled only with the `reference` cargo feature.
#[cfg(feature = "reference")]
pub mod reference {
    use super::*;
    use crate::engine::next_arrival;
    use crate::latency::DelayHistogram;
    use crate::packet::{DropReason, Dropped};
    use crate::stats::StatsCollector;
    use std::collections::VecDeque;

    /// The event kinds in tie-break priority order.
    #[derive(Debug, Clone, Copy)]
    enum Ev {
        Tx(usize),
        Deliver(usize),
        Control,
        Msg(usize),
        Refresh,
        Arrival,
    }

    /// Adds `bytes` to `dst`'s entry of a node's forwarded window by a
    /// scan of every entry — the linear window [`Forwarded`] indexes.
    fn fwd_record(fwd: &mut Vec<(u32, u64)>, dst: u32, bytes: u64) {
        for e in fwd.iter_mut() {
            if e.0 == dst {
                e.1 += bytes;
                return;
            }
        }
        if fwd.len() < FWD_CAP {
            fwd.push((dst, bytes));
        }
    }

    /// Runs `source` through the topology with the scan loop. Must stay
    /// result-identical to [`run_topology`].
    pub fn run_topology_reference(
        topo: &Topology,
        switches: &mut [Box<dyn Switch>],
        source: &mut dyn PacketSource,
        place: &mut dyn FnMut(&Packet) -> usize,
        cfg: &TopologyConfig,
    ) -> TopologyRunResult {
        let n = topo.num_nodes();
        assert_eq!(switches.len(), n, "one switch per topology node");

        let mut stats = StatsCollector::new(cfg.stats_interval);
        let mut delays = DelayHistogram::new();
        let mut drops_buf: Vec<Dropped> = Vec::new();

        let mut in_flight: Vec<Option<(SimTime, Packet)>> = (0..n).map(|_| None).collect();
        let mut wires: Vec<VecDeque<(SimTime, Packet)>> = (0..n).map(|_| VecDeque::new()).collect();
        let mut pending: Option<Packet> = next_arrival(source, cfg.end_time);

        let mut control_next: Option<SimTime> = cfg.control_period.map(|p| SimTime::ZERO + p);
        let mut refresh_next: Option<SimTime> = cfg.pushback.map(|p| SimTime::ZERO + p.refresh);
        let mut msgs: Vec<(SimTime, usize, AggLimit)> = Vec::new();
        let mut policers: Vec<Vec<Policer>> = (0..n).map(|_| Vec::new()).collect();
        let mut fwd: Vec<Vec<(u32, u64)>> = (0..n).map(|_| Vec::new()).collect();
        let mut limits_buf: Vec<AggLimit> = Vec::new();
        let mut shares_buf: Vec<(usize, u64)> = Vec::new();
        let mut contribs: Vec<u64> = Vec::new();

        let mut now = SimTime::ZERO;
        let (mut arrivals, mut departures, mut total_drops) = (0u64, 0u64, 0u64);
        let mut node_drops = vec![0u64; n];
        let mut hops = 0u64;
        let mut pushback_installs = 0u64;
        let mut node_first_limit: Vec<Option<SimTime>> = vec![None; n];

        macro_rules! ingress_at {
            ($node:expr, $pkt:expr) => {{
                let node: usize = $node;
                let pkt: Packet = $pkt;
                let policed = match match_policer(&mut policers[node], u32::from(pkt.dst)) {
                    Some(p) => !p.tb.conforms(pkt.size, now),
                    None => false,
                };
                if policed {
                    let d = Dropped {
                        packet: pkt,
                        reason: DropReason::Policer,
                    };
                    stats.on_drop(&d, now);
                    node_drops[node] += 1;
                    total_drops += 1;
                } else {
                    drops_buf.clear();
                    switches[node].ingress(pkt, now, &mut drops_buf);
                    for d in &drops_buf {
                        stats.on_drop(d, now);
                    }
                    node_drops[node] += drops_buf.len() as u64;
                    total_drops += drops_buf.len() as u64;
                }
            }};
        }

        loop {
            let has_work = pending.is_some()
                || in_flight.iter().any(|f| f.is_some())
                || wires.iter().any(|w| !w.is_empty())
                || switches.iter().any(|s| s.backlog_pkts() > 0);

            let mut next: Option<(Ev, SimTime)> = None;
            let mut consider = |ev: Ev, t: SimTime| {
                if next.as_ref().is_none_or(|&(_, bt)| t < bt) {
                    next = Some((ev, t));
                }
            };
            for (i, f) in in_flight.iter().enumerate() {
                if let Some((t, _)) = f {
                    consider(Ev::Tx(i), *t);
                }
            }
            for (i, w) in wires.iter().enumerate() {
                if let Some((t, _)) = w.front() {
                    consider(Ev::Deliver(i), *t);
                }
            }
            if has_work {
                if let Some(t) = control_next {
                    consider(Ev::Control, t);
                }
                for (k, (t, _, _)) in msgs.iter().enumerate() {
                    consider(Ev::Msg(k), *t);
                }
                if let Some(t) = refresh_next {
                    consider(Ev::Refresh, t);
                }
            }
            if let Some(p) = &pending {
                consider(Ev::Arrival, p.arrival);
            }
            let Some((ev, t)) = next else {
                break;
            };
            debug_assert!(t >= now, "event time went backwards");
            now = t;

            match ev {
                Ev::Tx(i) => {
                    let (_, pkt) = in_flight[i].take().expect("Tx implies in-flight");
                    if i == topo.root {
                        stats.on_depart(&pkt, now);
                        delays.record(pkt.class, now.saturating_since(pkt.arrival));
                        departures += 1;
                    } else {
                        fwd_record(&mut fwd[i], u32::from(pkt.dst), pkt.size as u64);
                        let deliver = now + topo.links[i].delay;
                        wires[i].push_back((deliver, pkt));
                    }
                }
                Ev::Deliver(i) => {
                    let (_, pkt) = wires[i].pop_front().expect("Deliver implies a wire packet");
                    let parent = topo.parents[i].expect("only non-root links deliver");
                    hops += 1;
                    ingress_at!(parent, pkt);
                }
                Ev::Control => {
                    let period = cfg.control_period.expect("Control implies a period");
                    for sw in switches.iter_mut() {
                        sw.control_tick(now);
                    }
                    control_next = Some(now + period);
                }
                Ev::Msg(k) => {
                    let (_, node, limit) = msgs.swap_remove(k);
                    let limit = narrowed(limit, &fwd[node]);
                    match policers[node]
                        .iter_mut()
                        .find(|p| p.limit.addr == limit.addr && p.limit.len == limit.len)
                    {
                        Some(p) => {
                            p.limit.bps = limit.bps;
                            p.tb.set_rate(Bandwidth::from_bps(limit.bps));
                            p.last_update = now;
                        }
                        None => policers[node].push(Policer {
                            limit,
                            tb: TokenBucket::new(
                                Bandwidth::from_bps(limit.bps),
                                POLICER_BURST_BYTES,
                            ),
                            last_update: now,
                        }),
                    }
                    pushback_installs += 1;
                    node_first_limit[node].get_or_insert(now);
                    divide(
                        &topo.children[node],
                        limit,
                        &fwd,
                        &mut contribs,
                        &mut shares_buf,
                    );
                    for &(child, bps) in shares_buf.iter() {
                        msgs.push((
                            now + topo.links[child].delay,
                            child,
                            AggLimit { bps, ..limit },
                        ));
                    }
                }
                Ev::Refresh => {
                    let plan = cfg.pushback.expect("Refresh implies pushback");
                    limits_buf.clear();
                    switches[topo.root].pushback_limits(now, &mut limits_buf);
                    for limit in &limits_buf {
                        divide(
                            &topo.children[topo.root],
                            *limit,
                            &fwd,
                            &mut contribs,
                            &mut shares_buf,
                        );
                        for &(child, bps) in shares_buf.iter() {
                            msgs.push((
                                now + topo.links[child].delay,
                                child,
                                AggLimit { bps, ..*limit },
                            ));
                        }
                    }
                    let horizon = plan.refresh.as_nanos().saturating_mul(3);
                    for ps in policers.iter_mut() {
                        ps.retain(|p| now.saturating_since(p.last_update).as_nanos() <= horizon);
                    }
                    for w in fwd.iter_mut() {
                        for e in w.iter_mut() {
                            e.1 /= 2;
                        }
                        w.retain(|e| e.1 > 0);
                    }
                    refresh_next = Some(now + plan.refresh);
                }
                Ev::Arrival => {
                    let pkt = pending.take().expect("Arrival implies a pending packet");
                    let leaf = topo.leaves[place(&pkt)];
                    stats.on_arrival(&pkt);
                    arrivals += 1;
                    ingress_at!(leaf, pkt);
                    pending = next_arrival(source, cfg.end_time);
                }
            }

            for i in 0..n {
                if in_flight[i].is_none() {
                    if let Some(pkt) = switches[i].dequeue(now) {
                        let done = now + topo.links[i].bandwidth.tx_time(pkt.size);
                        in_flight[i] = Some((done, pkt));
                    }
                }
            }
        }

        let backlog_pkts = switches.iter().map(|s| s.backlog_pkts()).sum();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, EngineConfig};
    use crate::packet::Dropped;
    use crate::queue::FifoQueue;
    use crate::source::VecSource;
    use crate::switch::SingleQueueSwitch;

    fn cbr_packets(n: u64, gap_us: u64, size: u32) -> Vec<Packet> {
        (0..n)
            .map(|i| Packet::new(SimTime::from_micros(i * gap_us)).with_size(size))
            .collect()
    }

    fn fifo_switches(n: usize, buf: u64) -> Vec<Box<dyn Switch>> {
        (0..n)
            .map(|_| Box::new(SingleQueueSwitch::new(FifoQueue::new(buf))) as Box<dyn Switch>)
            .collect()
    }

    fn mbps(m: u64) -> Bandwidth {
        Bandwidth::from_mbps(m)
    }

    #[test]
    fn shapes_have_the_advertised_structure() {
        let l = LinkSpec::new(mbps(12), SimDuration::from_micros(50));
        let b = LinkSpec::new(mbps(10), SimDuration::ZERO);

        let line = Topology::line(4, l, b);
        assert_eq!(line.num_nodes(), 4);
        assert_eq!(line.leaves(), &[0]);
        assert_eq!(line.root(), 3);
        assert_eq!(line.depth(), 4);

        let star = Topology::star(5, l, b);
        assert_eq!(star.num_nodes(), 6);
        assert_eq!(star.leaves().len(), 5);
        assert_eq!(star.root(), 5);
        assert_eq!(star.depth(), 2);

        let ft = Topology::fattree(3, l, b);
        assert_eq!(ft.num_nodes(), 13);
        assert_eq!(ft.leaves().len(), 9);
        assert_eq!(ft.depth(), 3);
        assert_eq!(ft.parent(0), Some(9));
        assert_eq!(ft.parent(8), Some(11));

        let isp = Topology::isp_edge(l, b);
        assert_eq!(isp.num_nodes(), 7);
        assert_eq!(isp.leaves().len(), 4);
        assert_eq!(isp.depth(), 3);
    }

    /// The load-bearing invariant: a one-node topology is the single
    /// engine, bit for bit (same stats buckets, same delays, same final
    /// time), because the event loop replays the same tie-break order.
    #[test]
    fn one_node_line_is_bit_identical_to_the_single_engine() {
        let packets = cbr_packets(3_000, 100, 1000); // 80 Mbps offered on 10 Mbps
        let cfg = EngineConfig::new(mbps(10)).with_end_time(SimTime::from_millis(250));
        let mut src = VecSource::new(packets.clone());
        let mut sw = SingleQueueSwitch::new(FifoQueue::new(10_000));
        let single = run(&mut src, &mut sw, &cfg);

        let topo = Topology::line(
            1,
            LinkSpec::new(mbps(12), SimDuration::from_micros(50)),
            LinkSpec::new(mbps(10), SimDuration::ZERO),
        );
        let mut switches = fifo_switches(1, 10_000);
        let mut src = VecSource::new(packets);
        let tcfg = TopologyConfig {
            stats_interval: SimDuration::from_secs(1),
            control_period: None,
            end_time: Some(SimTime::from_millis(250)),
            pushback: None,
        };
        let multi = run_topology(&topo, &mut switches, &mut src, &mut |_| 0, &tcfg);

        assert_eq!(format!("{single:?}"), format!("{:?}", multi.result));
        assert_eq!(multi.hops, 0);
        assert_eq!(multi.backlog_pkts, 0);
    }

    #[test]
    fn conservation_holds_across_every_shape() {
        let uplink = LinkSpec::new(mbps(12), SimDuration::from_micros(50));
        let bottleneck = LinkSpec::new(mbps(10), SimDuration::ZERO);
        let shapes: Vec<Topology> = vec![
            Topology::line(3, uplink, bottleneck),
            Topology::star(4, uplink, bottleneck),
            Topology::fattree(2, uplink, bottleneck),
            Topology::isp_edge(uplink, bottleneck),
        ];
        for topo in shapes {
            let leaves = topo.leaves().len();
            let mut switches = fifo_switches(topo.num_nodes(), 20_000);
            // 160 Mbps offered across the leaves: drops at edges and core.
            let mut src = VecSource::new(cbr_packets(4_000, 50, 1000));
            let cfg = TopologyConfig::experiment(1, None);
            let res = run_topology(
                &topo,
                &mut switches,
                &mut src,
                &mut |p| p.seq as usize % leaves,
                &cfg,
            );
            assert!(res.result.arrivals > 0);
            assert_eq!(
                res.result.arrivals,
                res.result.departures + res.result.drops + res.backlog_pkts as u64,
                "conservation violated on a {}-node topology",
                topo.num_nodes()
            );
            assert_eq!(
                res.result.drops,
                res.node_drops.iter().sum::<u64>(),
                "per-node drops must sum to the total"
            );
            assert!(res.hops > 0, "multi-node shapes must cross links");
        }
    }

    #[test]
    fn propagation_delay_shifts_departures() {
        // One packet through a 2-node line: serialization 800 us on each
        // link plus 100 us of propagation between the switches.
        let topo = Topology::line(
            2,
            LinkSpec::new(mbps(10), SimDuration::from_micros(100)),
            LinkSpec::new(mbps(10), SimDuration::ZERO),
        );
        let mut switches = fifo_switches(2, 100_000);
        let mut src = VecSource::new(vec![Packet::new(SimTime::ZERO).with_size(1000)]);
        let cfg = TopologyConfig::experiment(1, None);
        let res = run_topology(&topo, &mut switches, &mut src, &mut |_| 0, &cfg);
        assert_eq!(res.result.departures, 1);
        assert_eq!(res.result.final_time, SimTime::from_micros(1700));
        assert_eq!(res.hops, 1);
    }

    /// A stub bottleneck switch that requests one aggregate limit.
    struct Limiting {
        inner: SingleQueueSwitch<FifoQueue>,
        limit: AggLimit,
    }
    impl Switch for Limiting {
        fn ingress(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
            self.inner.ingress(pkt, now, drops);
        }
        fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
            self.inner.dequeue(now)
        }
        fn backlog_pkts(&self) -> usize {
            self.inner.backlog_pkts()
        }
        fn pushback_limits(&mut self, _now: SimTime, out: &mut Vec<AggLimit>) {
            out.push(self.limit);
        }
    }

    #[test]
    fn pushback_ripples_upstream_one_hop_delay_at_a_time() {
        let hop = SimDuration::from_millis(10);
        let topo = Topology::line(
            3,
            LinkSpec::new(mbps(12), hop),
            LinkSpec::new(mbps(10), SimDuration::ZERO),
        );
        let mut switches: Vec<Box<dyn Switch>> = fifo_switches(2, 100_000);
        switches.push(Box::new(Limiting {
            inner: SingleQueueSwitch::new(FifoQueue::new(100_000)),
            limit: AggLimit {
                addr: u32::from(std::net::Ipv4Addr::new(10, 0, 1, 1)),
                len: 24,
                bps: 1_000_000,
            },
        }));
        // 2 s of 8 Mbps keeps the topology busy across several refreshes.
        let mut src = VecSource::new(cbr_packets(2_000, 1_000, 1000));
        let cfg = TopologyConfig::experiment(2, None)
            .with_pushback(PushbackPlan::new(SimDuration::from_millis(500)));
        let res = run_topology(&topo, &mut switches, &mut src, &mut |_| 0, &cfg);

        // First refresh fires at 500 ms; node 1 (root's child) hears it
        // one hop later, node 0 one more hop after node 1 re-divides.
        let t1 = res.node_first_limit[1].expect("mid node must get a limit");
        let t0 = res.node_first_limit[0].expect("leaf must get a limit");
        assert_eq!(t1, SimTime::from_millis(510));
        assert_eq!(t0, SimTime::from_millis(520));
        assert!(res.node_first_limit[2].is_none(), "the root polices no one");
        assert!(res.pushback_installs >= 2);

        // The 1 Mbps limit on an 8 Mbps aggregate must police hard at
        // the leaf (policer drops show up in the per-node accounting).
        assert!(
            res.node_drops[0] > 0,
            "leaf policer must drop the excess: {:?}",
            res.node_drops
        );
    }

    /// Counts the control-plane calls a node receives.
    struct Ticks {
        inner: SingleQueueSwitch<FifoQueue>,
        ran: u32,
        missed: u32,
    }
    impl Switch for Ticks {
        fn ingress(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
            self.inner.ingress(pkt, now, drops);
        }
        fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
            self.inner.dequeue(now)
        }
        fn backlog_pkts(&self) -> usize {
            self.inner.backlog_pkts()
        }
        fn control_tick(&mut self, _now: SimTime) {
            self.ran += 1;
        }
        fn control_missed(&mut self, _now: SimTime) {
            self.missed += 1;
        }
    }

    /// The fault plane decides each shared tick once, for every node.
    #[test]
    fn a_suppressed_control_tick_is_missed_at_every_node() {
        use crate::fault::{FaultConfig, FaultInjector, FaultSchedule};
        let topo = Topology::star(
            2,
            LinkSpec::new(mbps(12), SimDuration::from_micros(50)),
            LinkSpec::new(mbps(10), SimDuration::ZERO),
        );
        let mut nodes: Vec<Ticks> = (0..3)
            .map(|_| Ticks {
                inner: SingleQueueSwitch::new(FifoQueue::new(100_000)),
                ran: 0,
                missed: 0,
            })
            .collect();
        let mut switches: Vec<&mut dyn Switch> = nodes.iter_mut().map(|n| n as _).collect();
        let faults = FaultInjector::new(FaultSchedule::new(FaultConfig {
            ctrl_drop: 1.0,
            ..FaultConfig::none(7)
        }));
        let mut src = VecSource::new(cbr_packets(500, 1_000, 1000)); // 0.5 s
        let cfg = TopologyConfig::experiment(1, Some(SimDuration::from_millis(10)));
        let res = run_topology_streamed(
            &topo,
            &mut switches,
            &mut src,
            &mut |p| p.seq as usize % 2,
            &cfg,
            &mut NoopTracer,
            Some(&faults),
            None,
        );
        assert_eq!(res.result.arrivals, 500);
        assert!(nodes[0].missed >= 50, "{}", nodes[0].missed);
        for n in &nodes {
            assert_eq!((n.ran, n.missed), (0, nodes[0].missed));
        }
        assert_eq!(u64::from(nodes[0].missed), faults.stats().ctrl_dropped);
    }

    #[test]
    fn narrowing_shrinks_to_the_observed_prefix() {
        let wide = AggLimit {
            addr: u32::from_be_bytes([198, 18, 0, 0]),
            len: 16,
            bps: 1_000_000,
        };
        // Only 198.18.5.{4,6} were forwarded: the common prefix is /30.
        let fwd = vec![
            (u32::from_be_bytes([198, 18, 5, 4]), 100),
            (u32::from_be_bytes([198, 18, 5, 6]), 100),
        ];
        let n = narrowed(wide, &fwd);
        assert_eq!(n.len, 30);
        assert_eq!(n.addr, u32::from_be_bytes([198, 18, 5, 4]));
        assert!(n.contains(u32::from_be_bytes([198, 18, 5, 6])));
        assert!(!n.contains(u32::from_be_bytes([198, 18, 9, 1])));

        // Nothing observed: the request passes through unchanged.
        assert_eq!(narrowed(wide, &[]), wide);
        // A single destination narrows to /32.
        let one = narrowed(wide, &[(u32::from_be_bytes([198, 18, 7, 7]), 1)]);
        assert_eq!(one.len, 32);
    }

    #[test]
    fn division_is_proportional_with_an_even_floor() {
        let limit = AggLimit {
            addr: 0,
            len: 0,
            bps: 1_000_000,
        };
        let fwd = vec![vec![(1, 900)], vec![(2, 100)]];
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        divide(&[0, 1], limit, &fwd, &mut scratch, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].1, 860_000); // 0.9*0.9 + 0.1/2
        assert_eq!(out[1].1, 140_000);
        // No observations: even split.
        let empty: Vec<Vec<(u32, u64)>> = vec![Vec::new(), Vec::new()];
        divide(&[0, 1], limit, &empty, &mut scratch, &mut out);
        assert_eq!(out[0].1, 500_000);
        assert_eq!(out[1].1, 500_000);
    }

    #[test]
    fn forwarded_index_matches_a_linear_window_through_cap_and_decay() {
        use accturbo_prng::{Rng, SeedableRng, StdRng};
        // The oracle: the linear scan the index replaced.
        fn linear_record(fwd: &mut Vec<(u32, u64)>, dst: u32, bytes: u64) {
            if let Some(e) = fwd.iter_mut().find(|e| e.0 == dst) {
                e.1 += bytes;
            } else if fwd.len() < FWD_CAP {
                fwd.push((dst, bytes));
            }
        }
        let mut rng = StdRng::seed_from_u64(0xF0D);
        for case in 0..6 {
            // Destination pools below, at and far above the cap; the
            // first all share one home slot, so every probe chain is long.
            let pool: Vec<u32> = match case {
                0 => (0u32..)
                    .filter(|&d| Forwarded::home(d) == 0)
                    .take(40)
                    .collect(),
                1 => (0..FWD_CAP as u32).map(|i| 0xC612_0000 + i).collect(),
                _ => (0..(300 * case as u32)).map(|_| rng.gen()).collect(),
            };
            let mut fwd = Forwarded::new();
            let mut linear = Vec::new();
            for step in 0..20_000 {
                let dst = pool[rng.gen_range(0..pool.len())];
                let bytes = rng.gen_range(1..1_500u64);
                fwd.record(dst, bytes);
                linear_record(&mut linear, dst, bytes);
                if step % 2_500 == 2_499 {
                    fwd.decay();
                    for e in linear.iter_mut() {
                        e.1 /= 2;
                    }
                    linear.retain(|e| e.1 > 0);
                }
                if step % 997 == 0 || step % 2_500 == 2_499 {
                    assert_eq!(fwd.entries, linear, "case {case} step {step}");
                }
            }
            assert_eq!(fwd.entries, linear, "case {case}");
            assert!(fwd.entries.len() <= FWD_CAP);
            // Enough decays empty the window, and it refills from scratch.
            for _ in 0..64 {
                fwd.decay();
            }
            assert!(fwd.entries.is_empty() && fwd.index.iter().all(|&p| p == 0));
            fwd.record(7, 1);
            assert_eq!(fwd.entries, [(7, 1)]);
        }
    }

    #[test]
    fn control_plane_does_not_keep_a_drained_topology_alive() {
        let topo = Topology::star(
            2,
            LinkSpec::new(mbps(12), SimDuration::from_micros(50)),
            LinkSpec::new(mbps(10), SimDuration::ZERO),
        );
        let mut switches = fifo_switches(3, 10_000);
        let mut src = VecSource::new(Vec::new());
        let mut cfg = TopologyConfig::experiment(10, Some(SimDuration::from_millis(1)));
        cfg.pushback = Some(PushbackPlan::new(SimDuration::from_millis(1)));
        let res = run_topology(&topo, &mut switches, &mut src, &mut |_| 0, &cfg);
        assert_eq!(res.result.arrivals, 0);
        assert_eq!(res.result.final_time, SimTime::ZERO);
        assert_eq!(res.pushback_installs, 0);
    }
}
