//! The ACC-Turbo switch (paper §3.2, Fig. 4).
//!
//! Data plane, per packet: extract features → find the closest cluster
//! (expanding it if needed, Alg. 1) → enqueue into the cluster's current
//! priority queue. Control plane, per tick: poll per-cluster counters,
//! score clusters with the ranking algorithm, re-map clusters to queues,
//! and (as in the authors' prototype) re-seed the clusters so their
//! shapes track the present traffic.
//!
//! Because mitigation is *scheduling* rather than filtering, the switch is
//! transparent without congestion: packets are only lost when the buffer
//! actually overflows, starting with those in the most-suspect queues.

use crate::config::AccTurboConfig;
use accturbo_clustering::{AssignAction, Assignment, FeatureBatch, OnlineClusterer, WindowStats};
use accturbo_netsim::{
    Dropped, FaultInjector, Packet, PriorityBank, QueueDiscipline, SimTime, Switch,
};
use accturbo_obs::{
    CounterId, Event, GaugeId, HistogramId, MetricsHandle, NoopTracer, StageClock, StageId, Tracer,
};
use accturbo_sched::{
    Controller, DegradationConfig, DegradationPolicy, DegradeAction, FallbackMode,
};
use std::time::Instant;

/// Pre-registered metric ids for the switch's registry entries.
struct SwitchMetrics {
    handle: MetricsHandle,
    enqueues: CounterId,
    drops: CounterId,
    cluster_distance: HistogramId,
    /// One `queue_depth_q{i}` gauge per queue, registered upfront so the
    /// control tick never formats metric names on the hot path.
    queue_depth: Vec<GaugeId>,
    /// Degradation-policy counters exported as gauges at each control
    /// tick, so the streaming aggregator sees per-period deltas.
    degrade_missed: GaugeId,
    degrade_stale: GaugeId,
    degrade_fallbacks: GaugeId,
    /// `(arrivals, drops, drop_ratio)` per packet class, indexed by class
    /// id. Registered once per class, in first-seen order; ticks only
    /// update by id.
    per_class: Vec<Option<(CounterId, CounterId, GaugeId)>>,
}

impl SwitchMetrics {
    fn new(handle: MetricsHandle, num_queues: usize) -> Self {
        let (enqueues, drops, cluster_distance, queue_depth, degrade_ids) = {
            let mut r = handle.borrow_mut();
            (
                r.counter("switch_enqueues"),
                r.counter("switch_drops"),
                r.histogram(
                    "cluster_distance",
                    &[
                        0.0, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
                    ],
                ),
                (0..num_queues)
                    .map(|q| r.gauge(&format!("queue_depth_q{q}")))
                    .collect(),
                (
                    r.gauge("control_missed_total"),
                    r.gauge("control_stale_total"),
                    r.gauge("control_fallbacks_total"),
                ),
            )
        };
        SwitchMetrics {
            handle,
            enqueues,
            drops,
            cluster_distance,
            queue_depth,
            degrade_missed: degrade_ids.0,
            degrade_stale: degrade_ids.1,
            degrade_fallbacks: degrade_ids.2,
            per_class: Vec::new(),
        }
    }

    /// Lazily registers the per-class counter pair (and drop-ratio gauge)
    /// for `class`.
    fn class_ids(&mut self, class: u16) -> (CounterId, CounterId) {
        let slot = usize::from(class);
        if self.per_class.len() <= slot {
            self.per_class.resize(slot + 1, None);
        }
        let ids = *self.per_class[slot].get_or_insert_with(|| {
            let mut r = self.handle.borrow_mut();
            (
                r.counter(&format!("switch_pkts_class_{class}")),
                r.counter(&format!("switch_drops_class_{class}")),
                r.gauge(&format!("drop_ratio_class_{class}")),
            )
        });
        (ids.0, ids.1)
    }
}

/// A full ACC-Turbo switch.
pub struct AccTurboSwitch<'a> {
    clusterer: OnlineClusterer,
    /// Feature columns and records of the arrivals classified ahead (see
    /// [`Switch::classify_ahead`]); empty until the first batch.
    batch: FeatureBatch,
    records: Vec<Assignment>,
    controller: Controller,
    bank: PriorityBank,
    cluster_to_queue: Vec<usize>,
    /// Control-tick scratch buffers, reused every tick so the steady
    /// state allocates nothing (see DESIGN.md §8).
    window_scratch: Vec<WindowStats>,
    sizes_scratch: Vec<Option<f64>>,
    mapping_scratch: Vec<usize>,
    reset_on_poll: bool,
    ticks: u64,
    /// Fault plane (DESIGN.md §9). `None` — the default — leaves the
    /// control path byte-identical to the pre-fault pipeline.
    faults: Option<FaultInjector>,
    degradation: DegradationPolicy,
    /// Previous window's polled statistics, cached only while a fault
    /// plane is installed so stale-snapshot ticks have something old to
    /// serve. Unused (and never allocated) on the fault-free path.
    stale_window: Vec<WindowStats>,
    stale_sizes: Vec<Option<f64>>,
    have_stale: bool,
    tracer: Option<Box<dyn Tracer + 'a>>,
    metrics: Option<SwitchMetrics>,
    clock: StageClock,
    classify_stage: StageId,
    enqueue_stage: StageId,
    control_stage: StageId,
}

impl<'a> AccTurboSwitch<'a> {
    /// Builds the switch from a configuration.
    pub fn new(cfg: AccTurboConfig) -> Self {
        let n = cfg.clustering.num_clusters;
        let clusterer = OnlineClusterer::new(cfg.clustering);
        let controller = Controller::new(cfg.ranking, cfg.num_queues);
        let mut bank = PriorityBank::new(cfg.num_queues, cfg.queue_capacity_bytes);
        if let Some(shared) = cfg.shared_capacity_bytes {
            bank = bank.with_shared_cap(shared);
        }
        // Initial mapping: identity modulo queue count. Until the first
        // poll the controller has no statistics, and this is what a
        // freshly-loaded prototype does.
        let cluster_to_queue = (0..n).map(|c| c % cfg.num_queues).collect();
        let mut clock = StageClock::new(false);
        let classify_stage = clock.stage("classify");
        let enqueue_stage = clock.stage("enqueue");
        let control_stage = clock.stage("control_tick");
        AccTurboSwitch {
            clusterer,
            batch: FeatureBatch::new(),
            records: Vec::new(),
            controller,
            bank,
            cluster_to_queue,
            window_scratch: Vec::new(),
            sizes_scratch: Vec::new(),
            mapping_scratch: Vec::new(),
            reset_on_poll: cfg.reset_on_poll,
            ticks: 0,
            faults: None,
            degradation: DegradationPolicy::default(),
            stale_window: Vec::new(),
            stale_sizes: Vec::new(),
            have_stale: false,
            tracer: None,
            metrics: None,
            clock,
            classify_stage,
            enqueue_stage,
            control_stage,
        }
    }

    /// Installs a trace sink: the switch emits `enqueue`, cluster
    /// (`cluster_seed`/`cluster_assign`/`cluster_merge`) and
    /// `priority_remap` events. Pass a clone of the engine's
    /// `SharedTracer` (boxed) to get one interleaved timeline; drop
    /// events stay engine-side so they are never double-counted.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer + 'a>) {
        self.tracer = Some(tracer);
    }

    /// Installs a metrics registry. The switch registers
    /// `switch_enqueues` / `switch_drops` counters, a `cluster_distance`
    /// histogram, and lazily one
    /// `switch_pkts_class_{c}` / `switch_drops_class_{c}` counter pair
    /// plus a `drop_ratio_class_{c}` gauge per packet class, along with
    /// per-queue depth gauges `queue_depth_q{i}` refreshed at each
    /// control tick. Every value is a function of the simulation alone
    /// (wall-clock timing stays in [`set_timing`](Self::set_timing)), so
    /// a telemetry sink streaming this registry repeats byte for byte,
    /// whether the run classifies ahead or per packet.
    pub fn set_metrics(&mut self, handle: MetricsHandle) {
        self.metrics = Some(SwitchMetrics::new(handle, self.bank.num_queues()));
    }

    /// Enables (or disables) wall-clock stage timing of the classify,
    /// enqueue and control-tick stages; `classify` is timed per batch
    /// when the switch classifies ahead, per packet otherwise.
    pub fn set_timing(&mut self, enabled: bool) {
        self.clock.set_enabled(enabled);
    }

    /// The hot-path stage timings (classify / enqueue / control_tick).
    pub fn stage_clock(&self) -> &StageClock {
        &self.clock
    }

    /// The current cluster → queue mapping (operator interpretability,
    /// §10: every scheduling decision is inspectable).
    pub fn mapping(&self) -> &[usize] {
        &self.cluster_to_queue
    }

    /// Control ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The clustering engine (read access for reports and tests).
    pub fn clusterer(&self) -> &OnlineClusterer {
        &self.clusterer
    }

    /// The control plane (e.g. to pin clusters, §10).
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.controller
    }

    /// Installs a fault plane: stale-snapshot decisions for control ticks
    /// are drawn from `faults`, and the switch starts caching the
    /// previous window's poll so it has an old snapshot to serve. With a
    /// tracer installed, each tick drains the injector's records up to
    /// the tick into it, so a `stale_snapshot` fault precedes the tick's
    /// `priority_remap` and `degrade` events. Missed ticks (the engine's
    /// `control_missed`) are handled by the degradation policy whether
    /// or not an injector is installed.
    pub fn set_faults(&mut self, faults: FaultInjector) {
        self.faults = Some(faults);
    }

    /// Replaces the graceful-degradation policy knobs (bounded staleness
    /// + fallback mode; see DESIGN.md §9).
    pub fn set_degradation(&mut self, cfg: DegradationConfig) {
        self.degradation = DegradationPolicy::new(cfg);
    }

    /// The degradation policy's bookkeeping (missed/stale/fallback
    /// counters) for figures and tests.
    pub fn degradation(&self) -> &DegradationPolicy {
        &self.degradation
    }

    /// Control ticks the engine reported as suppressed.
    pub fn missed_ticks(&self) -> u64 {
        self.degradation.total_missed()
    }

    /// Deploys the control-plane-free fallback mapping.
    fn apply_fallback(&mut self, mode: FallbackMode) {
        let nq = self.controller.num_queues();
        for (c, q) in self.cluster_to_queue.iter_mut().enumerate() {
            *q = match mode {
                FallbackMode::Fifo => 0,
                FallbackMode::StrictPriority => c % nq,
            };
        }
    }

    /// Everything ingress does once the packet's cluster is known, on the
    /// per-packet and batched paths alike: the cluster and `enqueue`
    /// events, the enqueue, and the counters and distance histogram.
    /// Inlined, with an early enqueue when nothing observes the packet
    /// (3.5 ns/pkt faster on a switch-only replay of the CICDDoS day).
    #[inline(always)]
    fn admit(&mut self, pkt: Packet, a: Assignment, now: SimTime, drops: &mut Vec<Dropped>) {
        let queue = self.cluster_to_queue[a.cluster as usize];
        if self.tracer.is_none() && self.metrics.is_none() && !self.clock.enabled() {
            // Nothing observes the packet.
            return self.bank.enqueue_to(queue, pkt, now, drops);
        }
        let now_ns = now.as_nanos();
        let (class, size) = (pkt.class.0, pkt.size);
        if let Some(tracer) = self.tracer.as_mut().filter(|t| t.enabled()) {
            let cluster = a.cluster as usize;
            match a.action {
                AssignAction::Seeded => tracer.record(now_ns, &Event::ClusterSeed { cluster }),
                AssignAction::Merged { from, into } => {
                    let (from, into) = (from as usize, into as usize);
                    tracer.record(now_ns, &Event::ClusterMerge { from, into });
                    tracer.record(now_ns, &Event::ClusterSeed { cluster });
                }
                AssignAction::Covered | AssignAction::Expanded { .. } => tracer.record(
                    now_ns,
                    &Event::ClusterAssign {
                        cluster,
                        distance: a.distance,
                        expanded: a.action == AssignAction::Expanded { grew: true },
                    },
                ),
            }
            tracer.record(
                now_ns,
                &Event::Enqueue {
                    queue,
                    cluster: Some(cluster),
                    class,
                    size,
                },
            );
        }

        let drops_before = drops.len();
        self.clock.time(self.enqueue_stage, || {
            self.bank.enqueue_to(queue, pkt, now, drops)
        });

        if let Some(m) = &mut self.metrics {
            let dropped = (drops.len() - drops_before) as u64;
            let (pkts_id, drops_id) = m.class_ids(class);
            let mut r = m.handle.borrow_mut();
            r.inc(m.enqueues, 1);
            r.inc(pkts_id, 1);
            r.inc(m.drops, dropped);
            r.inc(drops_id, dropped);
            r.observe(m.cluster_distance, a.distance);
        }
    }

    fn trace_degrade(&mut self, now_ns: u64, action: DegradeAction) {
        if let Some(tracer) = &mut self.tracer {
            if tracer.enabled() {
                tracer.record(
                    now_ns,
                    &Event::Degrade {
                        action: action.name(),
                        missed: self.degradation.consecutive_missed(),
                    },
                );
            }
        }
    }
}

impl Switch for AccTurboSwitch<'_> {
    fn ingress(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
        let a = self
            .clock
            .time(self.classify_stage, || self.clusterer.assign_record(&pkt));
        self.admit(pkt, a, now, drops);
    }

    fn classify_ahead(&mut self, pkts: &[Packet]) -> bool {
        self.clock.time(self.classify_stage, || {
            self.batch.fill(&self.clusterer.config().features, pkts);
            self.clusterer.assign_batch(&self.batch, &mut self.records);
        });
        true
    }

    fn ingress_classified(
        &mut self,
        pkt: Packet,
        index: usize,
        now: SimTime,
        drops: &mut Vec<Dropped>,
    ) {
        // No batch crosses a control tick (the only re-map), so `admit`
        // maps the record to the queue plain ingress would pick.
        self.admit(pkt, self.records[index], now, drops);
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        self.bank.dequeue(now)
    }

    fn backlog_pkts(&self) -> usize {
        self.bank.len_pkts()
    }

    fn control_tick(&mut self, now: SimTime) {
        // (i) poll cluster statistics, (ii) assess and rank, (iii) deploy
        // the new mapping — the three control-plane steps of §5.2.
        let wall0 = self.clock.enabled().then(Instant::now);
        let now_ns = now.as_nanos();
        self.clusterer.take_window_into(&mut self.window_scratch);
        self.sizes_scratch.clear();
        let n = self.window_scratch.len();
        self.sizes_scratch
            .extend((0..n).map(|i| self.clusterer.cost(i)));
        // Fault plane: a stale tick ranks on the previous window's
        // snapshot instead of the fresh poll (the swap also caches the
        // fresh poll for the next stale tick). Snapshot caching is
        // skipped entirely with no injector installed; the degradation
        // policy still sees every good tick so `control_missed` (which
        // the engine can invoke with or without an injector) ages the
        // view from the right baseline.
        let mut degrade: Option<DegradeAction> = None;
        let mut fresh = true;
        if let Some(f) = &self.faults {
            let stale = f.stale_snapshot(now);
            // The stale record goes out now, ahead of this tick's events.
            if let Some(tracer) = self.tracer.as_mut() {
                f.drain(now, tracer.as_mut());
            }
            if stale && self.have_stale {
                std::mem::swap(&mut self.window_scratch, &mut self.stale_window);
                std::mem::swap(&mut self.sizes_scratch, &mut self.stale_sizes);
                degrade = Some(self.degradation.on_stale_tick(now_ns));
                fresh = false;
            } else {
                self.stale_window.clone_from(&self.window_scratch);
                self.stale_sizes.clone_from(&self.sizes_scratch);
            }
            self.have_stale = true;
        }
        if fresh {
            self.degradation.on_good_tick(now_ns);
        }
        let tracer: &mut dyn Tracer = match &mut self.tracer {
            Some(tracer) => tracer.as_mut(),
            None => &mut NoopTracer,
        };
        self.controller.assign_queues_into(
            &self.window_scratch,
            &self.sizes_scratch,
            tracer,
            now_ns,
            &mut self.mapping_scratch,
        );
        std::mem::swap(&mut self.cluster_to_queue, &mut self.mapping_scratch);
        if let Some(action) = degrade {
            // Past the staleness bound the mapping just derived is built
            // on too-old evidence: deploy the fallback over it.
            if let DegradeAction::Fallback(mode) = action {
                self.apply_fallback(mode);
            }
            self.trace_degrade(now_ns, action);
        }
        if self.reset_on_poll {
            self.clusterer.reset_clusters();
        }
        self.ticks += 1;
        if let Some(wall0) = wall0 {
            self.clock.add(self.control_stage, wall0.elapsed());
        }
        if let Some(m) = &mut self.metrics {
            let d = self.degradation.counters();
            let mut r = m.handle.borrow_mut();
            for (q, &id) in m.queue_depth.iter().enumerate() {
                r.set(id, self.bank.len_pkts_at(q) as f64);
            }
            r.set(m.degrade_missed, d.total_missed as f64);
            r.set(m.degrade_stale, d.total_stale as f64);
            r.set(m.degrade_fallbacks, d.fallbacks as f64);
            for &(pkts_id, drops_id, ratio_id) in m.per_class.iter().flatten() {
                let pkts = r.counter_value(pkts_id);
                if pkts > 0 {
                    let ratio = r.counter_value(drops_id) as f64 / pkts as f64;
                    r.set(ratio_id, ratio);
                }
            }
        }
    }

    fn control_missed(&mut self, now: SimTime) {
        // A suppressed tick: no poll happened, the deployed mapping ages.
        // Within the staleness bound the last-good mapping stays in force
        // (KeepLastGood is a no-op on purpose); past it, fall back to a
        // scheduler that needs no control plane.
        let action = self.degradation.on_missed_tick(now.as_nanos());
        if let DegradeAction::Fallback(mode) = action {
            self.apply_fallback(mode);
        }
        self.trace_degrade(now.as_nanos(), action);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accturbo_clustering::FeatureSet;
    use accturbo_netsim::{ClassId, SimTime};
    use std::net::Ipv4Addr;

    fn switch() -> AccTurboSwitch<'static> {
        AccTurboSwitch::new(
            crate::config::AccTurboConfig::hardware(FeatureSet::hardware_fig6())
                .with_queue_capacity(1_000_000),
        )
    }

    fn benign(i: u32) -> Packet {
        Packet::new(SimTime::ZERO)
            .with_dst(Ipv4Addr::new(20, 0, (i % 7) as u8, (i % 251) as u8))
            .with_ports(1024 + (i % 5000) as u16, 443)
            .with_size(400)
    }

    fn attack(_i: u32) -> Packet {
        Packet::new(SimTime::ZERO)
            .with_dst(Ipv4Addr::new(198, 18, 0, 10))
            .with_ports(123, 4444)
            .with_size(1000)
            .with_class(ClassId(1))
    }

    #[test]
    fn attack_cluster_is_deprioritized_after_a_tick() {
        let mut sw = switch();
        let mut drops = Vec::new();
        // Heavy self-similar attack + light diverse benign traffic.
        let mut attack_cluster = None;
        for i in 0..2_000u32 {
            let pkt = attack(i);
            let cluster = sw.clusterer.assign(&pkt);
            attack_cluster = Some(cluster);
            sw.bank
                .enqueue_to(sw.cluster_to_queue[cluster], pkt, SimTime::ZERO, &mut drops);
            sw.bank.dequeue(SimTime::ZERO);
            if i % 10 == 0 {
                sw.ingress(benign(i), SimTime::ZERO, &mut drops);
                sw.dequeue(SimTime::ZERO);
            }
        }
        let attack_cluster = attack_cluster.expect("attack packets were assigned");
        sw.control_tick(SimTime::from_secs(1));
        let q_attack = sw.mapping()[attack_cluster];
        assert_eq!(
            q_attack,
            sw.controller_mut().num_queues() - 1,
            "heaviest cluster must land in the worst queue"
        );
    }

    #[test]
    fn tracer_sees_one_enqueue_per_packet() {
        use accturbo_obs::{shared, RingTracer};

        let tracer = shared(RingTracer::new(10_000));
        let mut sw = switch();
        sw.set_tracer(Box::new(std::rc::Rc::clone(&tracer)));
        let mut drops = Vec::new();
        for i in 0..50 {
            sw.ingress(benign(i), SimTime::from_nanos(u64::from(i)), &mut drops);
        }
        drop(sw);
        let enqueues: Vec<u64> = tracer
            .borrow()
            .iter()
            .filter_map(|(ts, e)| match *e {
                Event::Enqueue {
                    queue,
                    cluster: Some(cluster),
                    class: 0,
                    size: 400,
                } => {
                    assert!(cluster < 4 && queue < 4);
                    Some(*ts)
                }
                Event::Enqueue { .. } => panic!("enqueue without its cluster: {e:?}"),
                _ => None,
            })
            .collect();
        assert_eq!(enqueues, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn reset_on_poll_restores_singleton_geometry() {
        let mut sw = switch();
        let mut drops = Vec::new();
        // Packets jittering near one anchor grow its cluster within the
        // per-window growth budget; the tick must shrink every cluster
        // back to a singleton (cost 0).
        for i in 0..40u8 {
            let p = Packet::new(SimTime::ZERO)
                .with_dst(Ipv4Addr::new(198, 18, 30 + i % 5, 30 + i % 7))
                .with_ports(8190 + (i % 9) as u16, 8190 + (i % 5) as u16)
                .with_size(200);
            sw.ingress(p, SimTime::ZERO, &mut drops);
        }
        // A fresh switch's clusters are singletons: zero range extents,
        // one admitted value per nominal feature (cost 1 each).
        let baseline: f64 = {
            let fresh = switch();
            (0..4).filter_map(|k| fresh.clusterer().cost(k)).sum()
        };
        let grown: f64 = (0..4).filter_map(|k| sw.clusterer().cost(k)).sum();
        assert!(grown > baseline, "some cluster must have grown");
        sw.control_tick(SimTime::from_secs(1));
        let after: f64 = (0..4).filter_map(|k| sw.clusterer().cost(k)).sum();
        assert_eq!(after, baseline, "clusters are singletons again after reset");
        assert_eq!(sw.ticks(), 1);
    }

    #[test]
    fn transparent_without_congestion() {
        let mut sw = switch();
        let mut drops = Vec::new();
        for i in 0..1_000 {
            sw.ingress(benign(i), SimTime::ZERO, &mut drops);
            sw.dequeue(SimTime::ZERO);
        }
        assert!(drops.is_empty(), "no congestion, no drops");
    }

    #[test]
    fn instrumented_switch_traces_and_counts() {
        use accturbo_obs::{shared, Registry, RingTracer};
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut sw = switch();
        let tracer = shared(RingTracer::new(10_000));
        let metrics = Rc::new(RefCell::new(Registry::new()));
        sw.set_tracer(Box::new(Rc::clone(&tracer)));
        sw.set_metrics(Rc::clone(&metrics));
        sw.set_timing(true);

        let mut drops = Vec::new();
        for i in 0..200 {
            sw.ingress(benign(i), SimTime::ZERO, &mut drops);
        }
        for i in 0..100 {
            sw.ingress(attack(i), SimTime::ZERO, &mut drops);
        }
        sw.control_tick(SimTime::from_secs(1));

        let t = tracer.borrow();
        let enq = t.iter().filter(|(_, e)| e.kind() == "enqueue").count();
        let remaps = t
            .iter()
            .filter(|(_, e)| e.kind() == "priority_remap")
            .count();
        let cluster_events = t
            .iter()
            .filter(|(_, e)| e.kind().starts_with("cluster_"))
            .count();
        assert_eq!(enq, 300, "one enqueue event per packet");
        assert_eq!(remaps, 1, "one remap per control tick");
        assert!(cluster_events > 0, "cluster decisions must be traced");

        let mut r = metrics.borrow_mut();
        let enq_id = r.counter("switch_enqueues");
        assert_eq!(r.counter_value(enq_id), 300);
        let benign_id = r.counter("switch_pkts_class_0");
        let attack_id = r.counter("switch_pkts_class_1");
        assert_eq!(r.counter_value(benign_id), 200);
        assert_eq!(r.counter_value(attack_id), 100);
        drop(r);

        // Stage timing accumulated for both hot-path stages and control.
        let report = sw.stage_clock().report();
        for stage in ["classify", "enqueue", "control_tick"] {
            let (_, _, calls) = *report
                .iter()
                .find(|(n, _, _)| *n == stage)
                .unwrap_or_else(|| panic!("missing stage {stage}"));
            assert!(calls > 0, "{stage} never timed");
        }
    }

    #[test]
    fn instrumentation_does_not_change_decisions() {
        use accturbo_obs::{shared, RingTracer};

        let mut plain = switch();
        let mut traced = switch();
        let tracer = shared(RingTracer::new(100_000));
        traced.set_tracer(Box::new(tracer));

        let mut d1 = Vec::new();
        let mut d2 = Vec::new();
        for i in 0..500 {
            let (a, b) = if i % 3 == 0 {
                (attack(i), attack(i))
            } else {
                (benign(i), benign(i))
            };
            plain.ingress(a, SimTime::ZERO, &mut d1);
            traced.ingress(b, SimTime::ZERO, &mut d2);
            if i % 100 == 99 {
                plain.control_tick(SimTime::ZERO);
                traced.control_tick(SimTime::ZERO);
                assert_eq!(plain.mapping(), traced.mapping(), "tick {i}");
            }
        }
        assert_eq!(d1.len(), d2.len());
        assert_eq!(plain.backlog_pkts(), traced.backlog_pkts());
    }

    #[test]
    fn backlog_accounting() {
        let mut sw = switch();
        let mut drops = Vec::new();
        for i in 0..10 {
            sw.ingress(benign(i), SimTime::ZERO, &mut drops);
        }
        assert_eq!(sw.backlog_pkts(), 10);
        while sw.dequeue(SimTime::ZERO).is_some() {}
        assert_eq!(sw.backlog_pkts(), 0);
    }
}
