//! The engine's classify-ahead lookahead against a per-packet oracle.
//!
//! `run` classifies each run of arrivals before the next control tick in
//! one `Switch::classify_ahead` call and enqueues each packet at its own
//! arrival event; `engine::reference::run_reference` only ever calls
//! `ingress`. On ACC-Turbo in the simulation and hardware profiles and
//! on ranked ACC-Turbo, both must produce the same run result, cluster
//! totals, mapping and tick count, with control ticks landing exactly on
//! arrival times, an end time cutting a batch in the middle, and no
//! control plane at all. A switch with a classification tap must decline
//! every batch and still match.

use accturbo::clustering::FeatureSet;
use accturbo::core::{AccTurboConfig, AccTurboSwitch, RankedAccTurboSwitch};
use accturbo::netsim::engine::reference::run_reference;
use accturbo::netsim::{
    run, Bandwidth, ClassId, Dropped, EngineConfig, Packet, PacketSource, SimDuration, SimTime,
    Switch, VecSource,
};
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
    fn classify_ahead(&mut self, pkts: &[Packet], tickets: &mut Vec<u32>) -> bool {
        let took = self.inner.classify_ahead(pkts, tickets);
        self.batches.borrow_mut().0 += u64::from(took);
        took
    }
    fn ingress_classified(
        &mut self,
        pkt: Packet,
        ticket: u32,
        now: SimTime,
        drops: &mut Vec<Dropped>,
    ) {
        self.batches.borrow_mut().1 += 1;
        self.inner.ingress_classified(pkt, ticket, now, drops);
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

#[test]
fn a_tapped_switch_declines_every_batch_and_matches_the_oracle() {
    let pkts = workload(0x7A9, 4_000);
    let (_, cfg) = configs().swap_remove(0);
    type Seen = Rc<RefCell<Vec<(u64, usize, usize)>>>;
    let build = |seen: &Seen| {
        let seen = Rc::clone(seen);
        let mut sw = AccTurboSwitch::new(
            AccTurboConfig::simulation(FeatureSet::simulation_default())
                .with_queue_capacity(16 * 1024),
        );
        sw.set_tap(Box::new(move |p, cluster, queue| {
            seen.borrow_mut()
                .push((p.arrival.as_nanos(), cluster, queue))
        }));
        sw
    };
    let (ahead_seen, oracle_seen): (Seen, Seen) = Default::default();
    let counts = Rc::new(RefCell::new((0, 0)));
    let mut ahead = Counting {
        inner: build(&ahead_seen),
        batches: Rc::clone(&counts),
    };
    let got = run(&mut VecSource::new(pkts.clone()), &mut ahead, &cfg);
    let mut oracle = build(&oracle_seen);
    let want = run_reference(&mut VecSource::new(pkts), &mut oracle, &cfg);
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    assert_eq!(turbo_state(&ahead.inner), turbo_state(&oracle));
    assert_eq!(
        *counts.borrow(),
        (0, 0),
        "a tap must keep the per-packet path"
    );
    assert_eq!(ahead_seen.borrow().len() as u64, got.arrivals);
    assert_eq!(*ahead_seen.borrow(), *oracle_seen.borrow());
}
