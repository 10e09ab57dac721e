//! The engine's classify-ahead lookahead against a per-packet oracle.
//!
//! `run` classifies each run of arrivals before the next control tick in
//! one `Switch::classify_ahead` call and enqueues each packet at its own
//! arrival event; `engine::reference::run_reference` only ever calls
//! `ingress`. On ACC-Turbo in the simulation and hardware profiles and
//! on ranked ACC-Turbo, both must produce the same run result, cluster
//! totals, mapping and tick count, with control ticks landing exactly on
//! arrival times, an end time cutting a batch in the middle, and no
//! control plane at all. A switch with a tracer, metrics and a stage
//! clock classifies ahead too, and its events and registry must match.

use accturbo::clustering::FeatureSet;
use accturbo::core::{AccTurboConfig, AccTurboSwitch, RankedAccTurboSwitch};
use accturbo::netsim::engine::reference::run_reference;
use accturbo::netsim::{
    run, Bandwidth, ClassId, Dropped, EngineConfig, Packet, PacketSource, SimDuration, SimTime,
    Switch, VecSource,
};
use accturbo::obs::{shared, Registry, RingTracer, SharedTracer};
use accturbo_prng::{Rng, SeedableRng, StdRng};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Arrival spacing: every control period below is a multiple, so ticks
/// land exactly on arrival times.
const GAP_NS: u64 = 10_000;

/// Benign traffic around a few hot spots plus a one-flow attack in
/// pulses, 160 Mbps offered on a 50 Mbps link; every seventh packet
/// shares its predecessor's arrival time.
fn workload(seed: u64, len: u64) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let hot: Vec<(u32, u32, u16, u16)> = (0..5)
        .map(|_| (rng.gen(), rng.gen(), rng.gen(), rng.gen()))
        .collect();
    let mut t = 0;
    (0..len)
        .map(|i| {
            if i % 7 != 0 {
                t += GAP_NS;
            }
            let pulse = (i / 1500) % 2 == 1;
            let p = Packet::new(SimTime::from_nanos(t)).with_size(200);
            if pulse && i % 3 != 0 {
                return p
                    .with_src(Ipv4Addr::new(203, 0, 113, 7))
                    .with_dst(Ipv4Addr::new(198, 18, 0, 10))
                    .with_ports(123, 4444)
                    .with_ttl(50)
                    .with_class(ClassId(1));
            }
            let (src, dst, sport, dport) = hot[rng.gen_range(0..hot.len())];
            let jitter = |v: u32, rng: &mut StdRng| v.wrapping_add(rng.gen_range(0..64));
            p.with_src(Ipv4Addr::from(jitter(src, &mut rng)))
                .with_dst(Ipv4Addr::from(jitter(dst, &mut rng)))
                .with_ports(sport.wrapping_add(rng.gen_range(0..16)), dport)
                .with_ttl(rng.gen_range(32..128))
                .with_size(64 + rng.gen_range(0..400u32))
        })
        .collect()
}

/// Forwards every method to the switch it wraps and counts the batches
/// the switch accepted and the packets handed over classified.
struct Counting<S> {
    inner: S,
    batches: Rc<RefCell<(u64, u64)>>,
}

impl<S: Switch> Switch for Counting<S> {
    fn ingress(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
        self.inner.ingress(pkt, now, drops);
    }
    fn classify_ahead(&mut self, pkts: &[Packet]) -> bool {
        let took = self.inner.classify_ahead(pkts);
        self.batches.borrow_mut().0 += u64::from(took);
        took
    }
    fn ingress_classified(
        &mut self,
        pkt: Packet,
        index: usize,
        now: SimTime,
        drops: &mut Vec<Dropped>,
    ) {
        self.batches.borrow_mut().1 += 1;
        self.inner.ingress_classified(pkt, index, now, drops);
    }
    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        self.inner.dequeue(now)
    }
    fn backlog_pkts(&self) -> usize {
        self.inner.backlog_pkts()
    }
    fn control_tick(&mut self, now: SimTime) {
        self.inner.control_tick(now);
    }
}

/// A source that counts its pulls: the lookahead must pull exactly the
/// packets the per-packet loop pulls, the one its end time discards
/// included, and never again after that.
struct Pulls {
    inner: VecSource,
    pulls: u64,
}

impl PacketSource for Pulls {
    fn next_packet(&mut self) -> Option<Packet> {
        self.pulls += 1;
        self.inner.next_packet()
    }
}

fn pulls(pkts: &[Packet]) -> Pulls {
    Pulls {
        inner: VecSource::new(pkts.to_vec()),
        pulls: 0,
    }
}

/// The engine configurations: ticks every 1 ms (a batch ends at every
/// tick, which lands on an arrival), every 7 ms (batches also end at the
/// 256-arrival cap), none; the end time falls between ticks and inside
/// a batch.
fn configs() -> Vec<(&'static str, EngineConfig)> {
    let base = || {
        EngineConfig::new(Bandwidth::from_mbps(50))
            .with_stats_interval(SimDuration::from_millis(20))
            .with_end_time(SimTime::from_nanos(61_234_567))
    };
    vec![
        (
            "period=1ms",
            base().with_control_period(SimDuration::from_millis(1)),
        ),
        (
            "period=7ms",
            base().with_control_period(SimDuration::from_millis(7)),
        ),
        ("no-period", base()),
    ]
}

/// Runs `pkts` through `build()` with the lookahead engine and through
/// the per-packet oracle; asserts equal results and switch state (via
/// `state`); returns the (accepted batches, classified ingresses) of the
/// lookahead run.
fn differential<S: Switch>(
    label: &str,
    pkts: &[Packet],
    cfg: &EngineConfig,
    build: impl Fn() -> S,
    state: impl Fn(&S) -> String,
) -> (u64, u64) {
    let counts = Rc::new(RefCell::new((0, 0)));
    let mut ahead = Counting {
        inner: build(),
        batches: Rc::clone(&counts),
    };
    let (mut ahead_src, mut oracle_src) = (pulls(pkts), pulls(pkts));
    let got = run(&mut ahead_src, &mut ahead, cfg);
    let mut oracle = build();
    let want = run_reference(&mut oracle_src, &mut oracle, cfg);
    assert_eq!(
        format!("{got:?}"),
        format!("{want:?}"),
        "{label}: run result"
    );
    assert_eq!(ahead_src.pulls, oracle_src.pulls, "{label}: source pulls");
    assert_eq!(state(&ahead.inner), state(&oracle), "{label}: switch state");
    assert!(got.drops > 0, "{label}: the workload must congest the link");
    let counted = *counts.borrow();
    counted
}

fn turbo_state(sw: &AccTurboSwitch<'_>) -> String {
    let c = sw.clusterer();
    let costs: Vec<Option<f64>> = (0..c.num_clusters()).map(|k| c.cost(k)).collect();
    format!(
        "{:?} {:?} {costs:?} {:?}",
        c.totals(),
        sw.mapping(),
        sw.ticks()
    )
}

#[test]
fn acc_turbo_profiles_match_the_per_packet_oracle() {
    let pkts = workload(0xC1A5, 7_000);
    type Profile = (&'static str, fn() -> AccTurboConfig);
    let profiles: [Profile; 3] = [
        ("simulation", || {
            AccTurboConfig::simulation(FeatureSet::simulation_default())
                .with_queue_capacity(16 * 1024)
        }),
        // Nominal port sets: the clusterer runs per packet inside each
        // batch.
        ("hw-fig6", || {
            AccTurboConfig::hardware(FeatureSet::hardware_fig6()).with_queue_capacity(16 * 1024)
        }),
        ("hw-dst4", || {
            AccTurboConfig::hardware(FeatureSet::hardware_dst_bytes())
                .with_queue_capacity(16 * 1024)
        }),
    ];
    for (profile, cfg_of) in profiles {
        for (period, cfg) in configs() {
            let label = format!("{profile}/{period}");
            let (batches, classified) = differential(
                &label,
                &pkts,
                &cfg,
                || AccTurboSwitch::new(cfg_of()),
                turbo_state,
            );
            assert!(batches > 0 && classified > 0, "{label}: lookahead unused");
        }
    }
}

#[test]
fn ranked_acc_turbo_matches_the_per_packet_oracle() {
    let pkts = workload(0x5A4E, 7_000);
    for (period, cfg) in configs() {
        let build = || {
            RankedAccTurboSwitch::new(
                AccTurboConfig::simulation(FeatureSet::simulation_default())
                    .with_queue_capacity(16 * 1024),
            )
        };
        let (batches, _) = differential(period, &pkts, &cfg, build, |sw| {
            format!("{} {:?}", sw.ticks(), sw.scheduler().len_pkts())
        });
        assert!(batches > 0, "{period}: lookahead unused");
    }
}

/// A switch with a tracer, a metrics registry and stage timing, and
/// what it reports to.
fn instrumented() -> (AccTurboSwitch<'static>, SharedTracer, Rc<RefCell<Registry>>) {
    let mut sw = AccTurboSwitch::new(
        AccTurboConfig::simulation(FeatureSet::simulation_default()).with_queue_capacity(16 * 1024),
    );
    let (tracer, metrics) = (shared(RingTracer::new(100_000)), Rc::default());
    sw.set_tracer(Box::new(Rc::clone(&tracer)));
    sw.set_metrics(Rc::clone(&metrics));
    sw.set_timing(true);
    (sw, tracer, metrics)
}

#[test]
fn an_instrumented_switch_classifies_ahead_and_matches_the_oracle() {
    let pkts = workload(0x7A9, 4_000);
    let (_, cfg) = configs().swap_remove(0);
    let counts = Rc::new(RefCell::new((0, 0)));
    let (inner, ahead_trace, ahead_metrics) = instrumented();
    let mut ahead = Counting {
        inner,
        batches: Rc::clone(&counts),
    };
    let got = run(&mut VecSource::new(pkts.clone()), &mut ahead, &cfg);
    let (mut oracle, oracle_trace, oracle_metrics) = instrumented();
    let want = run_reference(&mut VecSource::new(pkts.clone()), &mut oracle, &cfg);
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    assert_eq!(turbo_state(&ahead.inner), turbo_state(&oracle));
    let (batches, classified) = *counts.borrow();
    assert!(
        batches > 0 && classified > 0,
        "an instrumented switch classifies ahead"
    );

    // Every event, cluster distances included, in the same order and
    // at the same timestamps.
    let (ahead_trace, oracle_trace) = (ahead_trace.borrow(), oracle_trace.borrow());
    assert_eq!(ahead_trace.total_recorded(), ahead_trace.len() as u64);
    assert_eq!(ahead_trace.to_jsonl(), oracle_trace.to_jsonl());
    for kind in ["cluster_assign", "enqueue", "priority_remap"] {
        assert!(
            ahead_trace.iter().any(|(_, e)| e.kind() == kind),
            "no {kind} event"
        );
    }
    let enqueues: Vec<u64> = ahead_trace
        .iter()
        .filter(|(_, e)| e.kind() == "enqueue")
        .map(|&(ts, _)| ts)
        .collect();
    assert_eq!(enqueues.len() as u64, got.arrivals);
    // Each enqueue is stamped with its packet's arrival.
    assert!(enqueues
        .iter()
        .zip(&pkts)
        .all(|(&ts, p)| ts == p.arrival.as_nanos()));

    // Every counter, gauge and histogram, the distance histogram
    // included.
    let registry = ahead_metrics.borrow();
    assert_eq!(
        format!("{registry:?}"),
        format!("{:?}", oracle_metrics.borrow())
    );
    let (_, distances) = registry
        .histograms()
        .find(|(name, _)| *name == "cluster_distance")
        .expect("the switch registers cluster_distance");
    assert_eq!(distances.count(), got.arrivals);

    // The batched run times `classify` once per batch, and once per
    // packet it hands over unclassified.
    let report = ahead.inner.stage_clock().report();
    let &(_, _, calls) = report
        .iter()
        .find(|(name, _, _)| *name == "classify")
        .expect("a classify stage");
    assert_eq!(calls, batches + got.arrivals - classified);
}
