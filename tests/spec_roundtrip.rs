//! Property tests for the declarative spec grammars: ~200 PRNG-generated
//! instances per spec type must survive `Display` → `FromStr` exactly
//! (`parse(display(x)) == x`).
//!
//! The hand-picked cases in `crates/experiments/src/spec.rs` pin the
//! canonical strings; this file sweeps the whole knob product space so a
//! formatting/parsing asymmetry in any single option (a forgotten
//! default-elision branch, a unit mismatch, a renamed token) cannot hide
//! in an untested combination. The generators draw every duration from a
//! millisecond grid and every bandwidth from a megabit grid — exactly
//! the quantization the grammar's shortest-float rendering round-trips
//! losslessly, and the same grid the adversarial search explores.

use accturbo_experiments::spec::{
    AccTurboSpec, DefenseSpec, EdgeDefense, FeatureProfile, JaqenSpec, Profile, ScenarioSpec,
    TopologyShape, TopologySpec, WorkloadSpec,
};
use accturbo_experiments::{cli, robustness};
use accturbo_netsim::{SimDuration, SimTime};
use accturbo_prng::{Rng, SeedableRng, StdRng};
use accturbo_sched::RankingAlgorithm;
use accturbo_traffic::workloads::{AdversarialScenario, FloodVariation};
use accturbo_traffic::{AttackVector, PulseAttackConfig};

const INSTANCES: usize = 200;

fn ms(rng: &mut StdRng, lo: u64, hi: u64) -> SimDuration {
    SimDuration::from_millis(rng.gen_range(lo..=hi))
}

fn vector_mix(rng: &mut StdRng, max: usize) -> Vec<AttackVector> {
    let mut pool = AttackVector::ALL.to_vec();
    let n = rng.gen_range(1..=max);
    (0..n)
        .map(|_| pool.remove(rng.gen_range(0..pool.len())))
        .collect()
}

fn random_accturbo(rng: &mut StdRng) -> AccTurboSpec {
    let profile = if rng.gen_bool(0.5) {
        Profile::Simulation
    } else {
        Profile::Hardware
    };
    // profile=hw rejects the 19-feature simulation set, so hardware
    // draws only from the deployable profiles.
    let features = match (profile, rng.gen_range(0..3u32)) {
        (Profile::Simulation, 0) => FeatureProfile::Simulation,
        (_, 1) => FeatureProfile::HwDstBytes,
        _ => FeatureProfile::HwFig6,
    };
    let mut spec = match profile {
        Profile::Simulation => AccTurboSpec::simulation(),
        Profile::Hardware => AccTurboSpec::hardware(features),
    };
    spec.features = features;
    if rng.gen_bool(0.4) {
        spec = spec.with_clusters(rng.gen_range(1..=64));
    }
    if rng.gen_bool(0.4) {
        spec = spec.with_distance(
            *[
                accturbo_clustering::DistanceKind::Manhattan,
                accturbo_clustering::DistanceKind::Anime,
                accturbo_clustering::DistanceKind::Euclidean,
            ]
            .get(rng.gen_range(0..3usize))
            .unwrap(),
        );
    }
    if rng.gen_bool(0.4) {
        spec = spec.with_search(if rng.gen_bool(0.5) {
            accturbo_clustering::SearchKind::Fast
        } else {
            accturbo_clustering::SearchKind::Exhaustive
        });
    }
    if rng.gen_bool(0.4) {
        spec = spec.with_rep(if rng.gen_bool(0.5) {
            accturbo_clustering::RepMode::LastPacket
        } else {
            accturbo_clustering::RepMode::RangeMidpoint
        });
    }
    if rng.gen_bool(0.4) {
        spec = spec.with_init(if rng.gen_bool(0.5) {
            accturbo_clustering::InitMode::Anchors
        } else {
            accturbo_clustering::InitMode::FromTraffic
        });
    }
    if rng.gen_bool(0.4) {
        spec = spec.with_budget(if rng.gen_bool(0.3) {
            None // explicitly unlimited: `budget=unlimited`
        } else {
            Some(rng.gen_range(1..=4096))
        });
    }
    if rng.gen_bool(0.3) {
        spec = spec.with_bloom(1 << rng.gen_range(6..=16u32));
    }
    if rng.gen_bool(0.4) {
        spec = spec.with_ranking(
            *[
                RankingAlgorithm::Throughput,
                RankingAlgorithm::NumPackets,
                RankingAlgorithm::ThroughputOverSize,
                RankingAlgorithm::NumPacketsOverSize,
            ]
            .get(rng.gen_range(0..4usize))
            .unwrap(),
        );
    }
    spec
}

fn random_defense(rng: &mut StdRng) -> DefenseSpec {
    match rng.gen_range(0..8u32) {
        0 => DefenseSpec::Fifo,
        1 => DefenseSpec::Red,
        2 => DefenseSpec::Acc {
            k: ms(rng, 100, 10_000),
        },
        3 => DefenseSpec::AccTurbo(random_accturbo(rng)),
        4 => DefenseSpec::RankedAccTurbo(random_accturbo(rng)),
        5 => {
            let sig = if rng.gen_bool(0.5) {
                accturbo_jaqen::Signature::FiveTuple
            } else {
                accturbo_jaqen::Signature::SrcIp
            };
            let mut j = JaqenSpec::new(sig, rng.gen_range(1..=100_000));
            if rng.gen_bool(0.4) {
                j = j.with_window(ms(rng, 50, 5000));
            }
            if rng.gen_bool(0.4) {
                j = j.with_deploy_delay(ms(rng, 10, 2000));
            }
            DefenseSpec::Jaqen(j)
        }
        6 => DefenseSpec::IdealPifo,
        _ => DefenseSpec::ProgramSwap {
            start: SimTime::ZERO + ms(rng, 0, 120_000),
            downtime: ms(rng, 100, 30_000),
        },
    }
}

fn random_pulse(rng: &mut StdRng) -> PulseAttackConfig {
    PulseAttackConfig {
        period: ms(rng, 100, 5000),
        duty: rng.gen_range(1..=100u32) as f64 / 100.0,
        amp_bps: rng.gen_range(1..=80u64) * 1_000_000,
        vectors: vector_mix(rng, 8),
        spread: rng.gen_range(0..=3),
        ramp: ms(rng, 0, 1000),
    }
}

fn random_workload(rng: &mut StdRng) -> WorkloadSpec {
    match rng.gen_range(0..10u32) {
        0 => WorkloadSpec::Fig2,
        1 => WorkloadSpec::Fig3,
        2 => WorkloadSpec::Fig6,
        3 => WorkloadSpec::Fig7,
        4 => WorkloadSpec::Background,
        5 => WorkloadSpec::Elephant,
        6 => WorkloadSpec::Flood(
            *[
                FloodVariation::NoAttack,
                FloodVariation::SingleFlow,
                FloodVariation::CarpetBombing,
                FloodVariation::SourceSpoofing,
            ]
            .get(rng.gen_range(0..4usize))
            .unwrap(),
        ),
        7 => WorkloadSpec::Adversarial(
            *[
                AdversarialScenario::PlainFlood,
                AdversarialScenario::PacketLevelEvasion,
                AdversarialScenario::AggregateLevelEvasion,
                AdversarialScenario::Swapping,
                AdversarialScenario::Imitation,
            ]
            .get(rng.gen_range(0..5usize))
            .unwrap(),
        ),
        8 => WorkloadSpec::Pulse(random_pulse(rng)),
        _ => WorkloadSpec::CicDay {
            vectors: rng.gen_bool(0.5).then(|| vector_mix(rng, 5)),
            episode: rng.gen_bool(0.5).then(|| ms(rng, 500, 20_000)),
            gap: rng.gen_bool(0.5).then(|| ms(rng, 100, 10_000)),
        },
    }
}

fn random_topology(rng: &mut StdRng) -> TopologySpec {
    let shape = match rng.gen_range(0..4u32) {
        0 => TopologyShape::Line(rng.gen_range(1..=32)),
        1 => TopologyShape::Star(rng.gen_range(1..=64)),
        2 => TopologyShape::FatTree(rng.gen_range(2..=6)),
        _ => TopologyShape::IspEdge,
    };
    let mut spec = TopologySpec::new(shape);
    if rng.gen_bool(0.4) {
        spec.delay = Some(ms(rng, 1, 500));
    }
    if rng.gen_bool(0.4) {
        spec.uplink_bps = Some(rng.gen_range(1..=1000u64) * 1_000_000);
    }
    if rng.gen_bool(0.4) {
        // A strictly-ascending non-empty subset of the shape's leaves.
        let leaves = spec.leaf_count();
        let picks = rng.gen_range(1..=leaves.min(6));
        let mut att: Vec<usize> = (0..picks).map(|_| rng.gen_range(0..leaves)).collect();
        att.sort_unstable();
        att.dedup();
        spec.attackers = Some(att);
    }
    if rng.gen_bool(0.3) {
        spec.edges = EdgeDefense::Same;
    }
    spec.pushback = rng.gen_bool(0.4);
    if rng.gen_bool(0.3) {
        spec.refresh = Some(ms(rng, 50, 2000));
    }
    spec
}

#[test]
fn defense_specs_round_trip_through_the_grammar() {
    let mut rng = StdRng::seed_from_u64(0xD3F_0001);
    for i in 0..INSTANCES {
        let spec = random_defense(&mut rng);
        let text = spec.to_string();
        let back: DefenseSpec = text
            .parse()
            .unwrap_or_else(|e| panic!("instance {i}: `{text}` does not parse back: {e}"));
        assert_eq!(
            back, spec,
            "instance {i}: `{text}` changed across the round-trip"
        );
        assert!(
            !text.contains(' '),
            "instance {i}: `{text}` contains a space"
        );
    }
}

#[test]
fn workload_specs_round_trip_through_the_grammar() {
    let mut rng = StdRng::seed_from_u64(0x307_0002);
    for i in 0..INSTANCES {
        let spec = random_workload(&mut rng);
        let text = spec.to_string();
        let back: WorkloadSpec = text
            .parse()
            .unwrap_or_else(|e| panic!("instance {i}: `{text}` does not parse back: {e}"));
        assert_eq!(
            back, spec,
            "instance {i}: `{text}` changed across the round-trip"
        );
        assert!(
            !text.contains(' '),
            "instance {i}: `{text}` contains a space"
        );
    }
}

#[test]
fn topology_specs_round_trip_through_the_grammar() {
    let mut rng = StdRng::seed_from_u64(0x7090_0004);
    for i in 0..INSTANCES {
        let spec = random_topology(&mut rng);
        let text = spec.to_string();
        let back: TopologySpec = text
            .parse()
            .unwrap_or_else(|e| panic!("instance {i}: `{text}` does not parse back: {e}"));
        assert_eq!(
            back, spec,
            "instance {i}: `{text}` changed across the round-trip"
        );
        assert!(
            !text.contains(' '),
            "instance {i}: `{text}` contains a space"
        );
    }
}

/// A full scenario renders as the `xp run` KEY=VAL sentence; feeding that
/// sentence back through the real CLI parser must reconstruct the same
/// scenario. (This is the property that makes every report header and
/// corpus replay line copy-pasteable, fault plane included.)
/// Topology-bearing sentences stay exact because `Display` always emits an explicit `secs=`, which
/// overrides `parse_run`'s topology-aware padding.
#[test]
fn scenario_specs_round_trip_through_the_xp_run_sentence() {
    let mut rng = StdRng::seed_from_u64(0x5CE_0003);
    for i in 0..INSTANCES {
        let mut spec = ScenarioSpec::new(random_workload(&mut rng), random_defense(&mut rng))
            .with_secs(rng.gen_range(1..=300))
            .with_seed(rng.gen())
            .with_link(rng.gen_range(1..=10_000u64) * 1_000_000);
        if rng.gen_bool(0.3) {
            spec = spec.with_period(ms(&mut rng, 10, 2000));
        }
        if rng.gen_bool(0.4) {
            spec = spec.with_topology(random_topology(&mut rng));
        } else if rng.gen_bool(0.3) {
            // shards= and topology= are mutually exclusive in the CLI, so
            // the sharded knob only rides on single-switch sentences.
            spec = spec.with_shards(rng.gen_range(2..=16));
        } else if rng.gen_bool(0.4) {
            // The fault plane rides only on serial single-switch
            // sentences; `xp run` seeds it from the scenario seed.
            let mut mix: Vec<(String, f64)> = Vec::new();
            for kind in robustness::FAULT_KINDS {
                if rng.gen_bool(0.5) {
                    mix.push((kind.to_string(), rng.gen_range(1..=100u32) as f64 / 100.0));
                }
            }
            if !mix.is_empty() {
                let faults = robustness::config_from_mix(&mix, spec.seed);
                spec = spec.with_faults(faults);
            }
        }
        let sentence = spec.to_string();
        let argv: Vec<String> = sentence.split(' ').map(str::to_string).collect();
        let cmd = cli::parse_run(&argv)
            .unwrap_or_else(|e| panic!("instance {i}: `{sentence}` does not parse back: {e}"));
        assert_eq!(
            cmd.spec, spec,
            "instance {i}: `{sentence}` changed across the round-trip"
        );
    }
}
