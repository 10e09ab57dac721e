//! Cross-crate integration tests: full workloads through full defenses,
//! exercising the public facade exactly as a downstream user would.

use accturbo::acc::{AccConfig, AccSwitch};
use accturbo::clustering::FeatureSet;
use accturbo::core::{AccTurboConfig, AccTurboSwitch, IdealPifoSwitch};
use accturbo::jaqen::{JaqenConfig, JaqenSwitch, Signature};
use accturbo::netsim::{
    run, Bandwidth, ClassId, EngineConfig, FifoQueue, MergedSource, PacketSource, RunResult,
    SimDuration, SimTime, SingleQueueSwitch, Switch,
};
use accturbo::traffic::{
    scenarios, AttackConfig, AttackSource, AttackVector, BackgroundConfig, BackgroundSource,
};

const LINK: u64 = 10_000_000;

fn engine(secs: u64, control_ms: Option<u64>) -> EngineConfig {
    let mut cfg = EngineConfig::new(Bandwidth::from_bps(LINK))
        .with_stats_interval(SimDuration::from_secs(1))
        .with_end_time(SimTime::from_secs(secs));
    if let Some(ms) = control_ms {
        cfg = cfg.with_control_period(SimDuration::from_millis(ms));
    }
    cfg
}

fn flood_over_background(secs: u64) -> MergedSource {
    let end = SimTime::from_secs(secs);
    let bg: Box<dyn PacketSource + Send> = Box::new(BackgroundSource::new(BackgroundConfig::new(
        6_000_000,
        SimTime::ZERO,
        end,
        5,
    )));
    let attack: Box<dyn PacketSource + Send> = Box::new(AttackSource::new(
        AttackConfig::new(
            AttackVector::UdpFlood,
            40_000_000,
            SimTime::from_secs(3),
            end,
            ClassId(1),
            6,
        )
        .with_single_flow(),
    ));
    MergedSource::new(vec![bg, attack])
}

/// Every defense and baseline processes the same flood without losing
/// packet conservation: arrivals = departures + drops, per class.
#[test]
fn packet_conservation_across_all_defenses() {
    let secs = 20;
    let run_one = |switch: &mut dyn Switch, control: Option<u64>| -> RunResult {
        let mut src = flood_over_background(secs);
        run(&mut src, switch, &engine(secs, control))
    };
    let mut fifo = SingleQueueSwitch::new(FifoQueue::new(512 * 1024));
    let mut acc = AccSwitch::new(AccConfig::default(), Bandwidth::from_bps(LINK));
    let mut jaqen = JaqenSwitch::new(JaqenConfig::best_case(Signature::FiveTuple, 2_000));
    let mut turbo = AccTurboSwitch::new(AccTurboConfig::hardware(FeatureSet::hardware_dst_bytes()));
    let mut ideal = IdealPifoSwitch::new(512 * 1024);

    for (name, sw, control) in [
        ("fifo", &mut fifo as &mut dyn Switch, None),
        ("acc", &mut acc, Some(100)),
        ("jaqen", &mut jaqen, Some(100)),
        ("accturbo", &mut turbo, Some(50)),
        ("ideal", &mut ideal, None),
    ] {
        let res = run_one(sw, control);
        assert_eq!(
            res.arrivals,
            res.departures + res.drops,
            "{name}: conservation violated"
        );
        for class in [ClassId::BENIGN, ClassId(1)] {
            let a = res.stats.total_arrived(class).pkts;
            let d = res.stats.total_departed(class).pkts;
            let x = res.stats.total_dropped(class).pkts;
            assert_eq!(a, d + x, "{name}/{class}: per-class conservation violated");
        }
    }
}

/// The paper's headline ordering on the same flood: ideal ≤ ACC-Turbo <
/// FIFO for benign drops, and every defense hurts the attack more than
/// benign traffic.
#[test]
fn defense_ordering_on_a_flood() {
    let secs = 30;
    let pct = |switch: &mut dyn Switch, control: Option<u64>| -> (f64, f64) {
        let mut src = flood_over_background(secs);
        let res = run(&mut src, switch, &engine(secs, control));
        (res.stats.benign_drop_pct(), res.stats.attack_drop_pct())
    };
    let mut fifo = SingleQueueSwitch::new(FifoQueue::new(512 * 1024));
    let (fifo_benign, _) = pct(&mut fifo, None);
    let mut turbo = AccTurboSwitch::new(AccTurboConfig::hardware(FeatureSet::hardware_dst_bytes()));
    let (turbo_benign, turbo_attack) = pct(&mut turbo, Some(50));
    let mut ideal = IdealPifoSwitch::new(512 * 1024);
    let (ideal_benign, ideal_attack) = pct(&mut ideal, None);

    assert!(ideal_benign <= turbo_benign + 1.0, "oracle must dominate");
    assert!(
        turbo_benign < fifo_benign - 20.0,
        "ACC-Turbo ({turbo_benign:.1}%) must clearly beat FIFO ({fifo_benign:.1}%)"
    );
    assert!(
        turbo_attack > turbo_benign,
        "the attack must absorb the loss"
    );
    assert!(ideal_attack > 50.0, "the oracle sheds attack traffic");
}

/// Bit-exact determinism of a full defended run, across the whole stack
/// (workload generation, clustering, scheduling, engine).
#[test]
fn full_runs_are_deterministic() {
    let run_once = || {
        let mut src = scenarios::fig3_source(LINK, 7);
        let mut sw =
            AccTurboSwitch::new(AccTurboConfig::simulation(FeatureSet::simulation_default()));
        let res = run(&mut src, &mut sw, &engine(scenarios::RUN_SECS, Some(250)));
        let series: Vec<u64> = (0..scenarios::RUN_SECS as usize)
            .flat_map(|t| (1..=5).map(move |c| (t, c)).collect::<Vec<_>>())
            .map(|(t, c)| res.stats.throughput_bps(t, ClassId(c)) as u64)
            .collect();
        (res.arrivals, res.departures, res.drops, series)
    };
    assert_eq!(run_once(), run_once());
}

/// The facade's modules compose: classic ACC's prefix inference can be
/// driven by headers recorded from any simulated run.
#[test]
fn acc_inference_composes_with_the_simulator() {
    let mut src = flood_over_background(10);
    let mut dropped_dsts = Vec::new();
    let mut sw = SingleQueueSwitch::new(FifoQueue::new(64 * 1024));
    let mut drops = Vec::new();
    let mut i = 0u64;
    while let Some(pkt) = src.next_packet() {
        drops.clear();
        sw.ingress(pkt, SimTime::ZERO, &mut drops);
        // Drain slower than the flood arrives so the queue overflows.
        if i.is_multiple_of(8) {
            sw.dequeue(SimTime::ZERO);
        }
        i += 1;
        for d in &drops {
            dropped_dsts.push(u32::from(d.packet.dst));
        }
    }
    let aggregates = accturbo::acc::infer_aggregates(&dropped_dsts, 5, 0.9);
    assert!(!aggregates.is_empty(), "the flood must be inferred");
    // The flood targets 198.18.0.10; the top aggregate must contain it.
    assert!(
        aggregates[0]
            .prefix
            .contains(u32::from_be_bytes([198, 18, 0, 10])),
        "top aggregate {} misses the victim",
        aggregates[0].prefix
    );
}

/// Deprioritization is delay, not drops, until the buffer overflows
/// (paper §3.2/§10): under congestion the attack's queueing delay must
/// far exceed benign traffic's.
#[test]
fn deprioritized_traffic_waits_longer() {
    let secs = 20;
    let mut src = flood_over_background(secs);
    let mut turbo = AccTurboSwitch::new(AccTurboConfig::hardware(FeatureSet::hardware_dst_bytes()));
    let res = run(&mut src, &mut turbo, &engine(secs, Some(50)));
    let benign_p50 = res
        .delays
        .percentile(ClassId::BENIGN, 50.0)
        .expect("benign delivered");
    let attack_p50 = res
        .delays
        .percentile(ClassId(1), 50.0)
        .expect("some attack delivered");
    assert!(
        attack_p50.as_nanos() > 3 * benign_p50.as_nanos(),
        "attack p50 {attack_p50} vs benign p50 {benign_p50}"
    );
}

/// Pulse gaps leave ACC-Turbo completely transparent: no drops, identical
/// benign delivery to FIFO.
#[test]
fn transparency_between_pulses() {
    let secs = 8;
    let end = SimTime::from_secs(secs);
    let benign_only = || -> MergedSource {
        MergedSource::new(vec![Box::new(BackgroundSource::new(BackgroundConfig::new(
            6_000_000,
            SimTime::ZERO,
            end,
            9,
        ))) as Box<dyn PacketSource + Send>])
    };
    let mut src = benign_only();
    let mut turbo =
        AccTurboSwitch::new(AccTurboConfig::simulation(FeatureSet::simulation_default()));
    let turbo_res = run(&mut src, &mut turbo, &engine(secs, Some(50)));
    assert_eq!(turbo_res.drops, 0, "no congestion, no drops");
    let mut src = benign_only();
    let mut fifo = SingleQueueSwitch::new(FifoQueue::new(512 * 1024));
    let fifo_res = run(&mut src, &mut fifo, &engine(secs, None));
    assert_eq!(turbo_res.departures, fifo_res.departures);
}
