//! The switch abstraction the engine drives.
//!
//! A [`Switch`] is the defended device of the paper's system model (§3.1):
//! it sees every arriving packet, decides where (or whether) to queue it,
//! and hands packets to the output link on demand. Defenses differ only in
//! how they implement `ingress` (classification, policing, queue mapping)
//! and `control_tick` (the control-plane loop); the engine treats them all
//! identically.

use crate::packet::{DropReason, Dropped, Packet};
use crate::queue::{FifoQueue, QueueDiscipline};
use crate::time::{SimDuration, SimTime};
use std::sync::Arc;

/// The boxed extraction closure a [`FeatureExtractor`] wraps: fills the
/// output vector with one packet's feature values.
pub type ExtractFn = Arc<dyn Fn(&Packet, &mut Vec<u32>) + Send + Sync>;

/// A pure per-packet feature extractor a switch can expose through
/// [`Switch::feature_extractor`]. The engine no longer calls it; the
/// type stays for switch wrappers that forward the hook.
///
/// The closure must be a pure function of the packet: calling it twice on
/// the same packet yields the same values, and extraction order carries no
/// state.
#[derive(Clone)]
pub struct FeatureExtractor {
    width: usize,
    extract: ExtractFn,
}

impl FeatureExtractor {
    /// Wraps a pure extractor producing exactly `width` values per packet.
    /// The closure must clear `out` and fill it with `width` values (the
    /// convention of the clustering crate's `FeatureSet::extract_into`).
    pub fn new(width: usize, extract: ExtractFn) -> Self {
        FeatureExtractor { width, extract }
    }

    /// Number of feature values produced per packet.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Clears `out` and fills it with the packet's `width` feature values.
    pub fn extract_into(&self, pkt: &Packet, out: &mut Vec<u32>) {
        (self.extract)(pkt, out);
        debug_assert_eq!(out.len(), self.width, "extractor arity mismatch");
    }
}

impl std::fmt::Debug for FeatureExtractor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeatureExtractor")
            .field("width", &self.width)
            .finish_non_exhaustive()
    }
}

/// A switch with one output port.
pub trait Switch {
    /// Processes an arriving packet: classify, police, and enqueue. Any
    /// resulting drops are pushed into `drops`.
    fn ingress(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>);

    /// [`ingress`](Self::ingress) with the classification features already
    /// extracted by this switch's own [`feature_extractor`]. The engine
    /// no longer calls it; the default ignores the values and delegates,
    /// and a switch wrapper may forward it.
    ///
    /// [`feature_extractor`]: Self::feature_extractor
    fn ingress_featured(
        &mut self,
        pkt: Packet,
        _features: &[u32],
        now: SimTime,
        drops: &mut Vec<Dropped>,
    ) {
        self.ingress(pkt, now, drops);
    }

    /// The pure feature extractor of this switch's classification stage,
    /// if it has one (the default has none). The engine no longer calls
    /// it; a switch wrapper may forward it.
    fn feature_extractor(&self) -> Option<FeatureExtractor> {
        None
    }

    /// Classifies a run of upcoming arrivals ahead of their events, in
    /// arrival order, or returns `false`, touching nothing, when the
    /// switch does not classify ahead (the default). The engine then
    /// hands each packet over at its arrival event, with its index in
    /// `pkts`, through [`ingress_classified`](Self::ingress_classified).
    ///
    /// The engine pulls arrivals in batches on every run (any switch,
    /// any tree, with or without a fault plane), but offers a batch here
    /// only when classification depends on the arrival stream and the
    /// control ticks alone: one leaf and no pushback, so nothing but
    /// these arrivals reaches the switch's ingress meanwhile, and every
    /// packet arrives before the next control tick. A switch answers alike for
    /// every batch: after a `false` the engine offers no more.
    fn classify_ahead(&mut self, _pkts: &[Packet]) -> bool {
        false
    }

    /// [`ingress`](Self::ingress) of the packet at `index` in the batch
    /// [`classify_ahead`](Self::classify_ahead) classified last: the part
    /// of ingress classification does not cover, with the queues, drops,
    /// events and metrics plain `ingress` would produce here; the default
    /// ignores the index and delegates.
    fn ingress_classified(
        &mut self,
        pkt: Packet,
        _index: usize,
        now: SimTime,
        drops: &mut Vec<Dropped>,
    ) {
        self.ingress(pkt, now, drops);
    }

    /// Hands the next packet to the output link, if any.
    ///
    /// The engine relies on this contract: `dequeue` returns `None` only
    /// when [`backlog_pkts`](Self::backlog_pkts) is 0, and whether it
    /// returns a packet depends on the backlog, not on `now`. The event
    /// loop polls a node only after an event that may have let it
    /// transmit (its link went idle, a packet or a control tick reached
    /// it), so a switch that holds packets back until some later time
    /// would never be polled again; debug builds assert that no idle
    /// node is left with a backlog.
    fn dequeue(&mut self, now: SimTime) -> Option<Packet>;

    /// Number of packets currently buffered.
    fn backlog_pkts(&self) -> usize;

    /// Invoked by the engine at every control-plane period (when one is
    /// configured). Defenses run their slow-path logic here: classic ACC's
    /// agent, ACC-Turbo's cluster polling and priority updates, Jaqen's
    /// sketch reads.
    fn control_tick(&mut self, _now: SimTime) {}

    /// Invoked instead of [`control_tick`](Self::control_tick) when a
    /// fault schedule suppresses the tick (see `fault::FaultInjector`).
    /// Defaults to doing nothing: the previously deployed control state
    /// simply stays in force. Defenses with a graceful-degradation policy
    /// (DESIGN.md §9) use this hook to age their control view and decide
    /// on fallbacks.
    fn control_missed(&mut self, _now: SimTime) {}

    /// The aggregate rate limits this switch wants pushed to its
    /// upstreams, appended to `out`. Only the topology engine calls this
    /// (at each pushback refresh, on the bottleneck node); the default is
    /// empty, so defenses without a pushback story cost nothing. The
    /// out-parameter keeps the single-switch fast path alloc-free.
    fn pushback_limits(&mut self, _now: SimTime, _out: &mut Vec<crate::topology::AggLimit>) {}
}

/// A switch that is just a single queue discipline — the FIFO and plain-RED
/// baselines.
#[derive(Debug, Clone)]
pub struct SingleQueueSwitch<Q: QueueDiscipline> {
    queue: Q,
}

impl<Q: QueueDiscipline> SingleQueueSwitch<Q> {
    /// Wraps a queue discipline.
    pub fn new(queue: Q) -> Self {
        SingleQueueSwitch { queue }
    }

    /// Access to the wrapped queue (e.g. to read RED's average).
    pub fn queue(&self) -> &Q {
        &self.queue
    }
}

impl<Q: QueueDiscipline> Switch for SingleQueueSwitch<Q> {
    fn ingress(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
        self.queue.enqueue(pkt, now, drops);
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        self.queue.dequeue(now)
    }

    fn backlog_pkts(&self) -> usize {
        self.queue.len_pkts()
    }
}

/// A FIFO switch that models a P4 program swap: all traffic is lost
/// during the downtime window (the paper measured ≈11.5 s on a Tofino,
/// §7.2.2 — what Jaqen pays when the needed mitigation module is not
/// loaded).
pub struct ProgramSwapSwitch {
    queue: FifoQueue,
    downtime_start: SimTime,
    downtime_end: SimTime,
}

impl ProgramSwapSwitch {
    /// Creates the switch with the given downtime window.
    pub fn new(downtime_start: SimTime, downtime: SimDuration) -> Self {
        ProgramSwapSwitch {
            queue: FifoQueue::new(512 * 1024),
            downtime_start,
            downtime_end: downtime_start + downtime,
        }
    }
}

impl Switch for ProgramSwapSwitch {
    fn ingress(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
        if now >= self.downtime_start && now < self.downtime_end {
            drops.push(Dropped {
                packet: pkt,
                reason: DropReason::Filter,
            });
            return;
        }
        self.queue.enqueue(pkt, now, drops);
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        self.queue.dequeue(now)
    }

    fn backlog_pkts(&self) -> usize {
        self.queue.len_pkts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_queue_switch_passes_through() {
        let mut sw = SingleQueueSwitch::new(FifoQueue::new(10_000));
        let mut drops = Vec::new();
        sw.ingress(Packet::new(SimTime::ZERO), SimTime::ZERO, &mut drops);
        assert_eq!(sw.backlog_pkts(), 1);
        assert!(sw.dequeue(SimTime::ZERO).is_some());
        assert_eq!(sw.backlog_pkts(), 0);
        assert!(drops.is_empty());
    }
}
