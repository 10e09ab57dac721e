//! Property tests for the fault-injection layer (DESIGN.md §9):
//!
//! 1. a fault schedule is a pure function of its seed — the same seed
//!    reproduces the same fault event stream bit-for-bit, different
//!    seeds diverge;
//! 2. the per-concern decision streams are isolated — turning one fault
//!    class off never shifts another class's decisions;
//! 3. packet conservation holds under arbitrary drop/reorder/flap
//!    schedules: every packet pulled from the wrapped source is either
//!    delivered, dropped by the switch, or corrupt-dropped by the fault
//!    plane, and the faulted stream stays time-ordered;
//! 4. the full engine under control-plane faults is deterministic: two
//!    identical runs see identical tick/missed sequences and identical
//!    packet accounting.

use accturbo_netsim::engine::EngineConfig;
use accturbo_netsim::{
    run_streamed, Bandwidth, ControlAction, Dropped, FaultConfig, FaultInjector, FaultSchedule,
    FaultedSource, FifoQueue, Packet, PacketSource, PktFate, SimDuration, SimTime,
    SingleQueueSwitch, Switch, VecSource,
};
use accturbo_obs::NoopTracer;
use accturbo_prng::{Rng, SeedableRng, StdRng};

/// A randomized fault mix: every probability in [0, 1) independently,
/// with shapes kept in sane ranges.
fn random_fault_config(rng: &mut StdRng, seed: u64) -> FaultConfig {
    FaultConfig {
        ctrl_drop: rng.gen_range(0.0..1.0),
        ctrl_delay: rng.gen_range(0.0..1.0),
        ctrl_delay_max: SimDuration::from_micros(rng.gen_range(1..100_000u64)),
        stale_snapshot: rng.gen_range(0.0..1.0),
        pkt_drop: rng.gen_range(0.0..1.0),
        pkt_reorder: rng.gen_range(0.0..1.0),
        pkt_jitter_max: SimDuration::from_micros(rng.gen_range(1..10_000u64)),
        link_flap: rng.gen_range(0.0..1.0),
        link_derate: rng.gen_range(0.05..1.0),
        flap_period: SimDuration::from_micros(rng.gen_range(100..1_000_000u64)),
        ..FaultConfig::none(seed)
    }
}

/// Drives a schedule through a scripted mix of decision points (the same
/// script for every schedule built from the same meta-seed).
fn drive(schedule: &mut FaultSchedule, script_seed: u64, steps: u32) {
    let mut rng = StdRng::seed_from_u64(script_seed);
    let mut t = 0u64;
    for _ in 0..steps {
        t += rng.gen_range(1..500_000u64);
        let now = SimTime::from_nanos(t);
        match rng.gen_range(0..4u32) {
            0 => {
                let _ = schedule.control_action(now);
            }
            1 => {
                let _ = schedule.stale_snapshot(now);
            }
            2 => {
                let _ = schedule.pkt_fate(now);
            }
            _ => {
                let _ = schedule.link_scale(now);
            }
        }
    }
}

/// Same seed ⇒ identical fault logs and counters; different seed ⇒ the
/// streams diverge (checked over many randomized configs).
#[test]
fn fault_streams_are_a_pure_function_of_the_seed() {
    let mut meta = StdRng::seed_from_u64(0xDE7E_2217);
    for case in 0..30u64 {
        let cfg = random_fault_config(&mut meta, 1000 + case);
        let mut a = FaultSchedule::new(cfg.clone());
        let mut b = FaultSchedule::new(cfg.clone());
        drive(&mut a, case, 2_000);
        drive(&mut b, case, 2_000);
        let log_a = a.take_log();
        assert_eq!(a.stats(), b.stats(), "case {case}: stats diverged");
        assert_eq!(log_a, b.take_log(), "case {case}: logs diverged");

        // A re-seeded schedule must not reproduce the original stream (a
        // collision over 2 000 decision points is astronomically unlikely
        // for any non-noop config).
        let mut c = FaultSchedule::new(FaultConfig {
            seed: 999_000 + case,
            ..cfg
        });
        drive(&mut c, case, 2_000);
        if !log_a.is_empty() {
            assert_ne!(
                log_a,
                c.take_log(),
                "case {case}: different seeds produced identical streams"
            );
        }
    }
}

/// Turning the control-fault knobs off must not shift the packet-fate
/// stream (and vice versa): the per-concern streams are isolated.
#[test]
fn per_concern_streams_are_isolated() {
    let full = FaultConfig {
        ctrl_drop: 0.5,
        ctrl_delay: 0.5,
        stale_snapshot: 0.5,
        pkt_drop: 0.3,
        pkt_reorder: 0.3,
        ..FaultConfig::none(77)
    };
    let pkt_only = FaultConfig {
        ctrl_drop: 0.0,
        ctrl_delay: 0.0,
        stale_snapshot: 0.0,
        ..full.clone()
    };
    let mut with_ctrl = FaultSchedule::new(full);
    let mut without_ctrl = FaultSchedule::new(pkt_only);
    for i in 0..5_000u64 {
        let now = SimTime::from_micros(i * 50);
        // Interleave: the full schedule burns control randomness between
        // packet decisions, the pkt-only schedule does not.
        let _ = with_ctrl.control_action(now);
        let _ = with_ctrl.stale_snapshot(now);
        let a = with_ctrl.pkt_fate(now);
        let _ = without_ctrl.control_action(now);
        let _ = without_ctrl.stale_snapshot(now);
        let b = without_ctrl.pkt_fate(now);
        assert_eq!(a, b, "packet fate shifted at step {i}");
    }
    assert!(with_ctrl.stats().ctrl_dropped > 0);
    assert_eq!(without_ctrl.stats().ctrl_dropped, 0);
    assert_eq!(
        with_ctrl.stats().pkt_dropped,
        without_ctrl.stats().pkt_dropped
    );
}

/// A randomized workload for the conservation tests.
fn random_packets(rng: &mut StdRng, n: u32) -> Vec<Packet> {
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            t += rng.gen_range(1..100_000u64);
            Packet::new(SimTime::from_nanos(t)).with_size(rng.gen_range(64..1500u32))
        })
        .collect()
}

/// Source-level conservation: injected = emitted + corrupt-dropped, and
/// the emitted stream is nondecreasing in time, under arbitrary fault
/// mixes.
#[test]
fn faulted_source_conserves_packets_under_random_schedules() {
    let mut meta = StdRng::seed_from_u64(0xC0_15_EE);
    for case in 0..40u64 {
        let cfg = random_fault_config(&mut meta, case);
        let n = meta.gen_range(0..3_000u32);
        let pkts = random_packets(&mut meta, n);
        let inj = FaultInjector::new(FaultSchedule::new(cfg));
        let mut src = FaultedSource::new(VecSource::new(pkts), inj.clone());
        let mut emitted = 0u64;
        let mut last = SimTime::ZERO;
        while let Some(p) = src.next_packet() {
            assert!(
                p.arrival >= last,
                "case {case}: faulted stream went back in time"
            );
            last = p.arrival;
            emitted += 1;
        }
        assert_eq!(src.injected(), n as u64, "case {case}");
        assert_eq!(
            emitted + inj.stats().pkt_dropped,
            n as u64,
            "case {case}: injected != emitted + corrupt-dropped"
        );
    }
}

/// Wraps the single-queue switch and records every control-plane
/// callback, so two runs can be compared tick-for-tick.
struct TickRecorder {
    inner: SingleQueueSwitch<FifoQueue>,
    ticks: Vec<(&'static str, u64)>,
}

impl TickRecorder {
    fn new() -> Self {
        TickRecorder {
            inner: SingleQueueSwitch::new(FifoQueue::new(64 * 1024)),
            ticks: Vec::new(),
        }
    }
}

impl Switch for TickRecorder {
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
        self.ticks.push(("tick", now.as_nanos()));
    }
    fn control_missed(&mut self, now: SimTime) {
        self.ticks.push(("missed", now.as_nanos()));
    }
}

/// End-to-end conservation and determinism through the engine: with
/// drops, reordering, flaps and control faults all active, the run
/// drains completely (injected = departures + switch drops + fault
/// drops), and two identical runs agree on every control-plane event
/// and every counter.
#[test]
fn engine_under_faults_conserves_packets_and_is_deterministic() {
    let mut meta = StdRng::seed_from_u64(0xE2E_FA17);
    for case in 0..15u64 {
        let fc = random_fault_config(&mut meta, 31 + case);
        let n = meta.gen_range(100..2_000u32);
        let pkts = random_packets(&mut meta, n);

        let one_run = |fc: FaultConfig, pkts: Vec<Packet>| {
            let inj = FaultInjector::new(FaultSchedule::new(fc));
            let mut src = FaultedSource::new(VecSource::new(pkts), inj.clone());
            let mut sw = TickRecorder::new();
            let cfg = EngineConfig::new(Bandwidth::from_mbps(50))
                .with_stats_interval(SimDuration::from_millis(10))
                .with_control_period(SimDuration::from_micros(500));
            let res = run_streamed(&mut src, &mut sw, &cfg, &mut NoopTracer, Some(&inj), None);
            (
                res.arrivals,
                res.departures,
                res.drops,
                inj.stats(),
                sw.ticks,
                sw.inner.backlog_pkts(),
            )
        };

        let a = one_run(fc.clone(), pkts.clone());
        let b = one_run(fc, pkts);
        assert_eq!(a, b, "case {case}: identical runs diverged");

        let (arrivals, departures, drops, stats, ticks, backlog) = a;
        assert_eq!(backlog, 0, "case {case}: run did not drain");
        assert_eq!(
            arrivals + stats.pkt_dropped,
            n as u64,
            "case {case}: fault drops + switch arrivals != injected"
        );
        assert_eq!(
            departures + drops,
            arrivals,
            "case {case}: packet conservation through the switch"
        );
        // Suppressed ticks surface as `missed` callbacks, 1:1.
        let missed = ticks.iter().filter(|(k, _)| *k == "missed").count() as u64;
        assert_eq!(missed, stats.ctrl_dropped, "case {case}");
    }
}

/// A delayed control tick is late, never lost: with delay as the only
/// fault, every scheduled tick still runs exactly once, strictly after
/// its nominal time when delayed.
#[test]
fn delayed_control_ticks_run_exactly_once() {
    let fc = FaultConfig {
        ctrl_delay: 0.8,
        ctrl_delay_max: SimDuration::from_micros(300),
        ..FaultConfig::none(4242)
    };
    let inj = FaultInjector::new(FaultSchedule::new(fc));
    let mut rng = StdRng::seed_from_u64(9);
    let mut src = FaultedSource::new(VecSource::new(random_packets(&mut rng, 800)), inj.clone());
    let mut sw = TickRecorder::new();
    let cfg = EngineConfig::new(Bandwidth::from_mbps(50))
        .with_stats_interval(SimDuration::from_millis(10))
        .with_control_period(SimDuration::from_micros(500));
    run_streamed(&mut src, &mut sw, &cfg, &mut NoopTracer, Some(&inj), None);
    let stats = inj.stats();
    assert!(stats.ctrl_delayed > 0, "delay prob 0.8 must bite");
    assert_eq!(stats.ctrl_dropped, 0);
    assert!(
        sw.ticks.iter().all(|(k, _)| *k == "tick"),
        "no tick may be reported missed under delay-only faults"
    );
    // Tick times stay strictly increasing even when individual ticks
    // slip past their nominal period boundary.
    for w in sw.ticks.windows(2) {
        assert!(w[0].1 < w[1].1, "tick order violated: {:?}", sw.ticks);
    }
}

/// The decision API itself never panics across the whole configuration
/// space, including the degenerate corners (all-zero, all-one).
#[test]
fn fault_decisions_never_panic_at_config_corners() {
    for intensity in [0.0, 1.0] {
        let mut s = FaultSchedule::new(FaultConfig::uniform(intensity, 1));
        for i in 0..1_000u64 {
            let now = SimTime::from_micros(i * 37);
            match s.control_action(now) {
                ControlAction::Run | ControlAction::Skip => {}
                ControlAction::Delay(d) => assert!(d.as_nanos() > 0),
            }
            let _ = s.stale_snapshot(now);
            match s.pkt_fate(now) {
                PktFate::Deliver | PktFate::Drop => {}
                PktFate::Delay(d) => assert!(d.as_nanos() > 0),
            }
            let scale = s.link_scale(now);
            assert!(scale > 0.0 && scale <= 1.0);
        }
    }
}
