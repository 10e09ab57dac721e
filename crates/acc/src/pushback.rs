//! Pushback: propagating ACC's rate limits upstream.
//!
//! The original ACC (Mahajan et al. 2002) includes a *pushback* mechanism
//! that the paper scopes out (§2.1 footnote): when the congested switch
//! rate-limits an aggregate, it asks its upstream neighbours to police the
//! aggregate *before* it ever crosses the upstream links, dividing the
//! limit among contributors proportionally to their share.
//!
//! This module completes the ACC substrate with that mechanism on a
//! two-tier topology:
//!
//! ```text
//!  sources₀ ─► upstream₀ ─┐
//!  sources₁ ─► upstream₁ ─┼─(upstream links)─► bottleneck ACC ─► out
//!  sources₂ ─► upstream₂ ─┘
//! ```
//!
//! Pushback's benefit appears when the *upstream links* are themselves
//! congested by the attack: local-only ACC drops attack traffic at the
//! bottleneck, after it has already crowded benign traffic out of the
//! upstream links; with pushback the attack dies at the upstreams and the
//! benign traffic survives the shared links.

use crate::config::AccConfig;
use crate::prefix::Prefix;
use crate::switch::AccSwitch;
use accturbo_netsim::{
    Bandwidth, DropReason, Dropped, FifoQueue, Packet, PacketSource, QueueDiscipline, SimDuration,
    SimTime, StatsCollector, Switch, TokenBucket,
};
use accturbo_obs::{Event, NoopTracer, Tracer};
use std::collections::HashMap;

/// Configuration of the pushback topology.
#[derive(Debug, Clone)]
pub struct PushbackConfig {
    /// Capacity of each upstream → bottleneck link.
    pub upstream_link: Bandwidth,
    /// Capacity of the bottleneck's output link.
    pub bottleneck_link: Bandwidth,
    /// Buffer of each upstream's FIFO, in bytes.
    pub upstream_buffer: u64,
    /// The bottleneck's ACC configuration.
    pub acc: AccConfig,
    /// Whether pushback is propagated upstream (off = local ACC only).
    pub enabled: bool,
    /// How often pushback allocations are refreshed from the bottleneck's
    /// session table (the original paper refreshes periodically).
    pub refresh: SimDuration,
    /// Width of the statistics buckets.
    pub stats_interval: SimDuration,
}

impl PushbackConfig {
    /// A two-tier setup with the given link rates and Table 4 ACC.
    pub fn new(upstream_link: Bandwidth, bottleneck_link: Bandwidth) -> Self {
        PushbackConfig {
            upstream_link,
            bottleneck_link,
            upstream_buffer: 256 * 1024,
            acc: AccConfig::default(),
            enabled: true,
            refresh: SimDuration::from_millis(500),
            stats_interval: SimDuration::from_secs(1),
        }
    }

    /// Disables pushback (local-only ACC baseline).
    pub fn without_pushback(mut self) -> Self {
        self.enabled = false;
        self
    }
}

/// One upstream switch: a FIFO plus any pushback policers installed by
/// the bottleneck.
struct EdgeSwitch {
    queue: FifoQueue,
    policers: Vec<(Prefix, TokenBucket)>,
    /// Bytes forwarded per policed prefix in the current refresh window
    /// (the contribution estimate pushback divides limits by).
    contribution: HashMap<Prefix, u64>,
}

impl EdgeSwitch {
    fn ingress(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
        let dst = u32::from(pkt.dst);
        if let Some((prefix, policer)) = self
            .policers
            .iter_mut()
            .filter(|(p, _)| p.contains(dst))
            .max_by_key(|(p, _)| p.len)
        {
            *self.contribution.entry(*prefix).or_insert(0) += pkt.size as u64;
            if !policer.conforms(pkt.size, now) {
                drops.push(Dropped {
                    packet: pkt,
                    reason: DropReason::Policer,
                });
                return;
            }
        }
        self.queue.enqueue(pkt, now, drops);
    }
}

/// Result of a pushback simulation.
#[derive(Debug)]
pub struct PushbackResult {
    /// End-to-end statistics (arrivals at the upstreams, departures on the
    /// bottleneck's output link, drops anywhere).
    pub stats: StatsCollector,
    /// Packets dropped at the upstreams (policers + upstream queues).
    pub upstream_drops: u64,
    /// Packets dropped at the bottleneck.
    pub bottleneck_drops: u64,
    /// Pushback allocations installed over the run.
    pub pushback_installs: u64,
}

/// Runs per-upstream sources through the two-tier topology until `end`.
///
/// `sources[i]` feeds upstream `i`; each upstream forwards over its own
/// link into the bottleneck ACC switch.
pub fn run_pushback(
    sources: Vec<Box<dyn PacketSource>>,
    cfg: &PushbackConfig,
    end: SimTime,
) -> PushbackResult {
    run_pushback_traced(sources, cfg, end, &mut NoopTracer)
}

/// Like [`run_pushback`], but emits a `pushback_limit` trace event for
/// every per-upstream rate allocation installed or revised at a refresh.
pub fn run_pushback_traced<T: Tracer + ?Sized>(
    mut sources: Vec<Box<dyn PacketSource>>,
    cfg: &PushbackConfig,
    end: SimTime,
    tracer: &mut T,
) -> PushbackResult {
    assert!(!sources.is_empty(), "need at least one upstream");
    let n = sources.len();
    let mut stats = StatsCollector::new(cfg.stats_interval);
    let mut upstreams: Vec<EdgeSwitch> = (0..n)
        .map(|_| EdgeSwitch {
            queue: FifoQueue::new(cfg.upstream_buffer),
            policers: Vec::new(),
            contribution: HashMap::new(),
        })
        .collect();
    let mut bottleneck = AccSwitch::new(cfg.acc.clone(), cfg.bottleneck_link);

    // Event state.
    let mut pending: Vec<Option<Packet>> = sources
        .iter_mut()
        .map(|s| next_before(s.as_mut(), end))
        .collect();
    let mut upstream_tx: Vec<Option<(SimTime, Packet)>> = vec![None; n];
    let mut bottleneck_tx: Option<(SimTime, Packet)> = None;
    let mut control_next = SimTime::ZERO + SimDuration::from_millis(100);
    let mut refresh_next = SimTime::ZERO + cfg.refresh;
    let mut drops_buf: Vec<Dropped> = Vec::new();
    let (mut upstream_drops, mut bottleneck_drops, mut installs) = (0u64, 0u64, 0u64);
    #[allow(unused_assignments)]
    let mut now = SimTime::ZERO;

    loop {
        // Earliest event across: per-upstream arrivals and tx completions,
        // the bottleneck tx completion, the ACC control tick, and the
        // pushback refresh.
        let mut t = SimTime::MAX;
        for p in pending.iter().flatten() {
            t = t.min(p.arrival);
        }
        for tx in upstream_tx.iter().flatten() {
            t = t.min(tx.0);
        }
        if let Some((done, _)) = &bottleneck_tx {
            t = t.min(*done);
        }
        let active = pending.iter().any(|p| p.is_some())
            || upstream_tx.iter().any(|t| t.is_some())
            || bottleneck_tx.is_some()
            || bottleneck.backlog_pkts() > 0
            || upstreams.iter().any(|u| !u.queue.is_empty());
        if active {
            t = t.min(control_next).min(refresh_next);
        }
        if t == SimTime::MAX {
            break;
        }
        now = t;

        // 1. Bottleneck tx completion.
        if let Some((done, _)) = &bottleneck_tx {
            if *done == now {
                let (_, pkt) = bottleneck_tx.take().expect("just matched");
                stats.on_depart(&pkt, now);
            }
        }
        // 2. Tx completions upstream: the packet crosses into the
        //    bottleneck's data path.
        for slot in upstream_tx.iter_mut() {
            if matches!(slot, Some((done, _)) if *done == now) {
                let (_, pkt) = slot.take().expect("just matched");
                drops_buf.clear();
                bottleneck.ingress(pkt, now, &mut drops_buf);
                for d in &drops_buf {
                    stats.on_drop(d, now);
                }
                bottleneck_drops += drops_buf.len() as u64;
            }
        }
        // 3. Control tick (the bottleneck ACC agent).
        if now == control_next && active {
            bottleneck.control_tick(now);
            control_next += SimDuration::from_millis(100);
        }
        // 4. Pushback refresh: divide every session's limit among the
        //    upstreams proportionally to their contribution.
        if now == refresh_next && active {
            if cfg.enabled {
                let sessions: Vec<(Prefix, Bandwidth)> = bottleneck
                    .sessions()
                    .sessions()
                    .iter()
                    .map(|s| (s.prefix, s.limit))
                    .collect();
                for (prefix, limit) in sessions {
                    let contributions: Vec<u64> = upstreams
                        .iter()
                        .map(|u| u.contribution.get(&prefix).copied().unwrap_or(0))
                        .collect();
                    let total: u64 = contributions.iter().sum();
                    for (i, upstream) in upstreams.iter_mut().enumerate() {
                        // Proportional share with an even floor so a
                        // currently-silent upstream is not starved forever.
                        let share = if total == 0 {
                            limit.as_bps() / n as u64
                        } else {
                            (limit.as_bps() as f64
                                * (0.9 * contributions[i] as f64 / total as f64 + 0.1 / n as f64))
                                as u64
                        };
                        let share = Bandwidth::from_bps(share.max(1));
                        match upstream.policers.iter_mut().find(|(p, _)| *p == prefix) {
                            Some((_, tb)) => tb.set_rate(share),
                            None => {
                                upstream
                                    .policers
                                    .push((prefix, TokenBucket::new(share, 15_000)));
                                installs += 1;
                            }
                        }
                        if tracer.enabled() {
                            tracer.record(
                                now.as_nanos(),
                                &Event::PushbackLimit {
                                    upstream: i,
                                    prefix: prefix.addr,
                                    prefix_len: prefix.len,
                                    bps: share.as_bps(),
                                },
                            );
                        }
                    }
                }
                // Expire upstream policers whose session is gone.
                let live: Vec<Prefix> = bottleneck
                    .sessions()
                    .sessions()
                    .iter()
                    .map(|s| s.prefix)
                    .collect();
                for u in &mut upstreams {
                    u.policers.retain(|(p, _)| live.contains(p));
                    u.contribution.clear();
                }
            }
            refresh_next += cfg.refresh;
        }
        // 5. Arrivals at the upstreams.
        for i in 0..n {
            while let Some(pkt) = &pending[i] {
                if pkt.arrival != now {
                    break;
                }
                let pkt = pending[i].take().expect("just matched");
                pending[i] = next_before(sources[i].as_mut(), end);
                stats.on_arrival(&pkt);
                drops_buf.clear();
                upstreams[i].ingress(pkt, now, &mut drops_buf);
                for d in &drops_buf {
                    stats.on_drop(d, now);
                }
                upstream_drops += drops_buf.len() as u64;
            }
        }
        // 6. Start idle transmissions.
        for i in 0..n {
            if upstream_tx[i].is_none() {
                if let Some(pkt) = upstreams[i].queue.dequeue(now) {
                    let done = now + cfg.upstream_link.tx_time(pkt.size);
                    upstream_tx[i] = Some((done, pkt));
                }
            }
        }
        if bottleneck_tx.is_none() {
            if let Some(pkt) = bottleneck.dequeue(now) {
                let done = now + cfg.bottleneck_link.tx_time(pkt.size);
                bottleneck_tx = Some((done, pkt));
            }
        }
    }

    PushbackResult {
        stats,
        upstream_drops,
        bottleneck_drops,
        pushback_installs: installs,
    }
}

fn next_before(source: &mut dyn PacketSource, end: SimTime) -> Option<Packet> {
    let pkt = source.next_packet()?;
    (pkt.arrival < end).then_some(pkt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accturbo_netsim::{ClassId, RedConfig};
    use accturbo_traffic::{AttackConfig, AttackSource, AttackVector, CbrSource, FlowTemplate};
    use std::net::Ipv4Addr;

    /// Two upstreams; the attack enters upstream 0 only, congesting its
    /// link (which the benign flow on upstream 0 shares); upstream 1
    /// carries benign traffic only.
    fn sources(end_s: u64) -> Vec<Box<dyn PacketSource>> {
        let end = SimTime::from_secs(end_s);
        let benign0 = CbrSource::new(
            FlowTemplate::udp(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(60, 1, 1, 1),
                5000,
                80,
                ClassId(1),
            ),
            4_000_000,
            SimTime::ZERO,
            end,
        );
        // A jittered flood (random packet sizes/ports) rather than a
        // strictly periodic CBR: perfectly periodic arrivals phase-lock
        // with the upstream FIFO's drain cycle and defeat the point of
        // the scenario.
        let attack0 = AttackSource::new(AttackConfig::new(
            AttackVector::UdpFlood,
            40_000_000,
            SimTime::from_secs(3),
            end,
            ClassId(5),
            0xACC,
        ));
        let up0: Box<dyn PacketSource> = Box::new(accturbo_netsim::MergedSource::new(vec![
            Box::new(benign0),
            Box::new(attack0),
        ]));
        let benign1 = CbrSource::new(
            FlowTemplate::udp(
                Ipv4Addr::new(10, 0, 1, 1),
                Ipv4Addr::new(61, 1, 1, 1),
                5001,
                80,
                ClassId(2),
            ),
            4_000_000,
            SimTime::ZERO,
            end,
        );
        vec![up0, Box::new(benign1)]
    }

    fn config(enabled: bool) -> PushbackConfig {
        let mut cfg = PushbackConfig::new(Bandwidth::from_mbps(12), Bandwidth::from_mbps(10));
        cfg.acc.red = RedConfig {
            min_th: 20.0,
            max_th: 60.0,
            cap_bytes: 100_000,
            ..RedConfig::default()
        };
        if !enabled {
            cfg = cfg.without_pushback();
        }
        cfg
    }

    #[test]
    fn pushback_rescues_the_shared_upstream_link() {
        let secs = 30;
        let with = run_pushback(sources(secs), &config(true), SimTime::from_secs(secs));
        let without = run_pushback(sources(secs), &config(false), SimTime::from_secs(secs));

        // Class 1 shares upstream 0's 12 Mbps link with a 40 Mbps attack;
        // without pushback the upstream FIFO crushes it even though the
        // bottleneck eventually rate-limits the aggregate.
        let delivered = |r: &PushbackResult| r.stats.total_departed(ClassId(1)).pkts;
        assert!(with.pushback_installs > 0, "pushback must have fired");
        assert!(
            delivered(&with) as f64 > 1.5 * delivered(&without) as f64,
            "pushback {} vs local-only {}",
            delivered(&with),
            delivered(&without)
        );
        // And the attack is dropped *upstream* when pushback is on.
        assert!(
            with.upstream_drops > without.upstream_drops,
            "drops must move upstream: {} vs {}",
            with.upstream_drops,
            without.upstream_drops
        );
    }

    #[test]
    fn unshared_upstream_is_unaffected_either_way() {
        let secs = 20;
        let with = run_pushback(sources(secs), &config(true), SimTime::from_secs(secs));
        // The class-2 upstream switch (index 1) never sees the attack; its
        // delivery is near-perfect under pushback.
        let arrived = with.stats.total_arrived(ClassId(2)).pkts;
        let delivered = with.stats.total_departed(ClassId(2)).pkts;
        assert!(
            delivered as f64 > 0.9 * arrived as f64,
            "class 2 delivered {delivered}/{arrived}"
        );
    }

    #[test]
    fn traced_run_records_pushback_limits() {
        use accturbo_obs::RingTracer;
        let secs = 20;
        let mut t = RingTracer::new(100_000);
        let res = run_pushback_traced(
            sources(secs),
            &config(true),
            SimTime::from_secs(secs),
            &mut t,
        );
        assert!(res.pushback_installs > 0, "pushback must have fired");
        let limits = t
            .iter()
            .filter(|(_, e)| e.kind() == "pushback_limit")
            .count() as u64;
        // Every install is traced, and revisions at later refreshes add
        // more events on top.
        assert!(
            limits >= res.pushback_installs,
            "{limits} events vs {} installs",
            res.pushback_installs
        );
        let jsonl = t.to_jsonl();
        assert!(jsonl.contains("\"ev\":\"pushback_limit\""));
        assert!(jsonl.contains("\"upstream\":0"));
    }

    #[test]
    fn conservation_holds_in_the_two_tier_topology() {
        let secs = 15;
        let res = run_pushback(sources(secs), &config(true), SimTime::from_secs(secs));
        for class in [1u16, 2, 5] {
            let c = ClassId(class);
            let arrived = res.stats.total_arrived(c).pkts;
            let departed = res.stats.total_departed(c).pkts;
            let dropped = res.stats.total_dropped(c).pkts;
            // In-flight packets at the hard stop are the only slack.
            assert!(
                arrived >= departed + dropped && arrived - (departed + dropped) < 300,
                "class {class}: {arrived} vs {departed}+{dropped}"
            );
        }
    }
}
