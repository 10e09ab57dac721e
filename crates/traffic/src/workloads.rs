//! Composable experiment workloads (the `WorkloadSpec` generators).
//!
//! Every workload the evaluation harness runs — beyond the classic ACC
//! scenarios of [`crate::scenarios`] — lives here as a plain builder
//! returning a [`PacketSource`], so the experiments crate composes
//! scenarios declaratively instead of re-encoding rates and seeds per
//! figure module. Seed arithmetic is part of each workload's identity:
//! sub-sources derive their streams from fixed offsets of the workload
//! seed, so a workload at a given `(secs, seed)` is byte-stable across
//! refactors.

use crate::{
    AttackConfig, AttackSource, AttackVector, BackgroundConfig, BackgroundSource, CbrSource,
    FlowTemplate, MapSource, PulseWave, Spread, SpreadSource,
};
use accturbo_netsim::{ClassId, MergedSource, PacketSource, SimDuration, SimTime};
use accturbo_prng::{Rng, SeedableRng, StdRng};
use std::net::Ipv4Addr;

/// Scaled CAIDA-like background rate shared by the §7 workloads (the
/// paper's replay carried a bit under the bottleneck's capacity).
pub const EXPERIMENT_BACKGROUND_BPS: u64 = 7_000_000;
/// Scaled single-flow flood rate of the Table 3 / Fig. 7 attacks.
pub const FLOOD_ATTACK_BPS: u64 = 60_000_000;
/// Scaled Fig. 6 pulse peak (the paper's pulses peak at ≈40.8 Gbps).
pub const FIG6_PULSE_BPS: u64 = 40_000_000;
/// Attack start of the Fig. 7 reaction-time flood (seconds).
pub const REACTION_ATTACK_START_S: u64 = 20;

/// Boxes `build()` into `sources` unless its window `[start, end)` is
/// empty: such a sub-source would emit nothing, and its constructor
/// rejects it. Short runs (`secs` at or before an attack start)
/// therefore run without that attack instead of panicking.
fn push_live(
    sources: &mut Vec<Box<dyn PacketSource + Send>>,
    start: SimTime,
    end: SimTime,
    build: impl FnOnce() -> Box<dyn PacketSource + Send>,
) {
    if end > start {
        sources.push(build());
    }
}

/// The attack variations of Table 3's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloodVariation {
    /// Background only.
    NoAttack,
    /// Single-flow UDP flood (all packets share the 5-tuple).
    SingleFlow,
    /// Carpet bombing: random destination within the victim /24.
    CarpetBombing,
    /// Full source spoofing.
    SourceSpoofing,
}

impl FloodVariation {
    /// All rows, in the paper's order.
    pub const ALL: [FloodVariation; 4] = [
        FloodVariation::NoAttack,
        FloodVariation::SingleFlow,
        FloodVariation::CarpetBombing,
        FloodVariation::SourceSpoofing,
    ];

    /// Row label.
    pub fn name(self) -> &'static str {
        match self {
            FloodVariation::NoAttack => "No Attack",
            FloodVariation::SingleFlow => "Single Flow",
            FloodVariation::CarpetBombing => "Carpet Bombing",
            FloodVariation::SourceSpoofing => "Source Spoofing",
        }
    }
}

/// The Table 3 workload: CAIDA-like background plus (unless
/// [`FloodVariation::NoAttack`]) a 60 Mbps UDP flood from t = 5 s,
/// varied per the row.
pub fn flood(variation: FloodVariation, secs: u64, seed: u64) -> MergedSource {
    let end = SimTime::from_secs(secs);
    let mut sources: Vec<Box<dyn PacketSource + Send>> = vec![Box::new(BackgroundSource::new(
        BackgroundConfig::new(EXPERIMENT_BACKGROUND_BPS, SimTime::ZERO, end, seed),
    ))];
    if variation != FloodVariation::NoAttack {
        let start = SimTime::from_secs(5);
        push_live(&mut sources, start, end, || {
            let cfg = AttackConfig::new(
                AttackVector::UdpFlood,
                FLOOD_ATTACK_BPS,
                start,
                end,
                ClassId(1),
                seed + 1,
            )
            .with_single_flow();
            Box::new(AttackSource::new(match variation {
                FloodVariation::CarpetBombing => cfg.with_carpet_bombing(),
                FloodVariation::SourceSpoofing => cfg.with_source_spoofing(),
                _ => cfg,
            }))
        });
    }
    MergedSource::new(sources)
}

/// The Fig. 6 workload: background + 4 pulses (10 s on / 10 s off)
/// starting at t = 10 s, each targeting a different IP of a common /24.
pub fn fig6_pulses(secs: u64, seed: u64) -> MergedSource {
    let end = SimTime::from_secs(secs);
    let background: Box<dyn PacketSource + Send> = Box::new(BackgroundSource::new(
        BackgroundConfig::new(EXPERIMENT_BACKGROUND_BPS, SimTime::ZERO, end, seed),
    ));
    let wave: Box<dyn PacketSource + Send> = Box::new(
        PulseWave::fig6(
            4,
            SimTime::from_secs(10),
            SimDuration::from_secs(10),
            SimDuration::from_secs(10),
            FIG6_PULSE_BPS,
            Ipv4Addr::new(198, 18, 5, 0),
            seed + 1,
        )
        .into_source(),
    );
    MergedSource::new(vec![background, wave])
}

/// The Fig. 7 reaction-time workload: background for the whole run,
/// single-flow UDP flood from t = 20 s to t = end − 20 s.
pub fn reaction_flood(secs: u64, seed: u64) -> MergedSource {
    let end = SimTime::from_secs(secs);
    let background: Box<dyn PacketSource + Send> = Box::new(BackgroundSource::new(
        BackgroundConfig::new(EXPERIMENT_BACKGROUND_BPS, SimTime::ZERO, end, seed),
    ));
    let attack_end = SimTime::from_secs(secs.saturating_sub(20).max(REACTION_ATTACK_START_S + 1));
    let attack: Box<dyn PacketSource + Send> = Box::new(AttackSource::new(
        AttackConfig::new(
            AttackVector::UdpFlood,
            FLOOD_ATTACK_BPS,
            SimTime::from_secs(REACTION_ATTACK_START_S),
            attack_end,
            ClassId(1),
            seed + 1,
        )
        .with_single_flow(),
    ));
    MergedSource::new(vec![background, attack])
}

/// Background traffic only (the Fig. 7c program-swap panel's workload).
pub fn background_only(secs: u64, seed: u64) -> MergedSource {
    let end = SimTime::from_secs(secs);
    MergedSource::new(vec![Box::new(BackgroundSource::new(BackgroundConfig::new(
        EXPERIMENT_BACKGROUND_BPS,
        SimTime::ZERO,
        end,
        seed,
    ))) as Box<dyn PacketSource + Send>])
}

/// The §9 adversarial scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarialScenario {
    /// Baseline: a plain single-flow flood (the defense's home turf).
    PlainFlood,
    /// §9.1: every feature randomized per packet.
    PacketLevelEvasion,
    /// §9.1: |C| spread-out low-rate vectors, one per cluster.
    AggregateLevelEvasion,
    /// §9.2: tight high-rate benign + randomized attack.
    Swapping,
    /// §9.2: attack replicates the benign service's signature.
    Imitation,
}

impl AdversarialScenario {
    /// All scenarios, report order.
    pub const ALL: [AdversarialScenario; 5] = [
        AdversarialScenario::PlainFlood,
        AdversarialScenario::PacketLevelEvasion,
        AdversarialScenario::AggregateLevelEvasion,
        AdversarialScenario::Swapping,
        AdversarialScenario::Imitation,
    ];

    /// Row label.
    pub fn name(self) -> &'static str {
        match self {
            AdversarialScenario::PlainFlood => "Plain flood (baseline)",
            AdversarialScenario::PacketLevelEvasion => "Packet-level evasion",
            AdversarialScenario::AggregateLevelEvasion => "Aggregate-level evasion",
            AdversarialScenario::Swapping => "Swapping attack",
            AdversarialScenario::Imitation => "Imitation attack",
        }
    }
}

/// The benign service all §9.2 scenarios target: a tight, high-rate
/// aggregate (one /24, one port band, fixed size).
fn victim_service(end: SimTime, rate_bps: u64, seed: u64) -> Box<dyn PacketSource + Send> {
    let cbr = CbrSource::new(
        FlowTemplate::udp(
            Ipv4Addr::new(95, 10, 1, 1),
            Ipv4Addr::new(203, 7, 44, 0),
            30_000,
            443,
            ClassId::BENIGN,
        )
        .with_size(1200),
        rate_bps,
        SimTime::ZERO,
        end,
    );
    Box::new(SpreadSource::new(
        cbr,
        Spread {
            dst_low_bits: 8,
            sport: Some((30_000, 30_200)),
            ..Spread::default()
        },
        seed + 9,
    ))
}

/// Builds the workload for a §9 adversarial scenario.
pub fn adversarial(scenario: AdversarialScenario, secs: u64, seed: u64) -> MergedSource {
    let end = SimTime::from_secs(secs);
    let start = SimTime::from_secs(5);
    let mut sources: Vec<Box<dyn PacketSource + Send>> = vec![Box::new(BackgroundSource::new(
        BackgroundConfig::new(5_000_000, SimTime::ZERO, end, seed),
    ))];
    match scenario {
        AdversarialScenario::PlainFlood => {
            push_live(&mut sources, start, end, || {
                Box::new(AttackSource::new(
                    AttackConfig::new(
                        AttackVector::UdpFlood,
                        40_000_000,
                        start,
                        end,
                        ClassId(1),
                        seed + 1,
                    )
                    .with_single_flow(),
                ))
            });
        }
        AdversarialScenario::PacketLevelEvasion => {
            // Randomize *everything*: source, destination, both ports,
            // size, TTL — nothing left to correlate on.
            push_live(&mut sources, start, end, || {
                let flood = AttackSource::new(
                    AttackConfig::new(
                        AttackVector::UdpFlood,
                        40_000_000,
                        start,
                        end,
                        ClassId(1),
                        seed + 1,
                    )
                    .with_source_spoofing(),
                );
                let mut rng = StdRng::seed_from_u64(seed + 2);
                Box::new(MapSource::new(flood, move |p| {
                    p.dst = Ipv4Addr::new(rng.gen(), rng.gen(), rng.gen(), rng.gen());
                    p.ttl = rng.gen();
                    p.ip_len = rng.gen();
                    p.ip_id = rng.gen();
                }))
            });
        }
        AdversarialScenario::AggregateLevelEvasion => {
            // Ten spread-out vectors at 4 Mbps each (same 40 Mbps total),
            // one per cluster slot of the simulation profile.
            for (i, vector) in AttackVector::ALL.iter().enumerate() {
                push_live(&mut sources, start, end, || {
                    Box::new(AttackSource::new(
                        AttackConfig::new(
                            *vector,
                            4_000_000,
                            start,
                            end,
                            ClassId(1 + i as u16),
                            seed + 10 + i as u64,
                        )
                        .with_victim(Ipv4Addr::new(10 + 20 * i as u8, 50, 7, 9), 4000 + i as u16),
                    ))
                });
            }
        }
        AdversarialScenario::Swapping => {
            // Benign = tight 6 Mbps service; attack = randomized 12 Mbps.
            sources.push(victim_service(end, 6_000_000, seed));
            push_live(&mut sources, start, end, || {
                let flood = AttackSource::new(
                    AttackConfig::new(
                        AttackVector::UdpFlood,
                        12_000_000,
                        start,
                        end,
                        ClassId(1),
                        seed + 3,
                    )
                    .with_source_spoofing(),
                );
                let mut rng = StdRng::seed_from_u64(seed + 4);
                Box::new(MapSource::new(flood, move |p| {
                    p.dst = Ipv4Addr::new(rng.gen(), rng.gen(), rng.gen(), rng.gen());
                    p.ttl = rng.gen();
                }))
            });
        }
        AdversarialScenario::Imitation => {
            // The attack replicates the victim service's exact signature.
            sources.push(victim_service(end, 6_000_000, seed));
            push_live(&mut sources, start, end, || {
                let imitation = CbrSource::new(
                    FlowTemplate::udp(
                        Ipv4Addr::new(95, 10, 1, 1),
                        Ipv4Addr::new(203, 7, 44, 0),
                        30_000,
                        443,
                        ClassId(1),
                    )
                    .with_size(1200),
                    40_000_000,
                    start,
                    end,
                );
                Box::new(SpreadSource::new(
                    imitation,
                    Spread {
                        dst_low_bits: 8,
                        sport: Some((30_000, 30_200)),
                        ..Spread::default()
                    },
                    seed + 5,
                ))
            });
        }
    }
    MergedSource::new(sources)
}

/// The Fig. 11a-supplement "elephant" workload: a *tight* volumetric
/// flood (10 Mbps single flow from t = 5 s) next to a *legitimate
/// high-bandwidth service* (an 11 Mbps spread "CDN" aggregate) plus
/// background. The regime where the ranking algorithm decides the
/// outcome.
///
/// This workload keeps its own calibrated seeds — its regime is the
/// experiment, not the draw — so it takes no seed parameter.
pub fn elephant(secs: u64) -> MergedSource {
    let end = SimTime::from_secs(secs);
    let start = SimTime::from_secs(5);
    let mut sources: Vec<Box<dyn PacketSource + Send>> = Vec::new();
    push_live(&mut sources, start, end, || {
        Box::new(AttackSource::new(
            AttackConfig::new(
                AttackVector::UdpFlood,
                10_000_000,
                start,
                end,
                ClassId(1),
                3,
            )
            .with_single_flow(),
        ))
    });
    let background =
        BackgroundSource::new(BackgroundConfig::new(8_000_000, SimTime::ZERO, end, 11));
    let cdn = CbrSource::new(
        FlowTemplate::udp(
            Ipv4Addr::new(95, 10, 1, 1),
            Ipv4Addr::new(203, 7, 44, 0),
            30_000,
            443,
            ClassId::BENIGN,
        )
        .with_size(1200),
        11_000_000,
        SimTime::ZERO,
        end,
    );
    let cdn = SpreadSource::new(
        cdn,
        Spread {
            dst_low_bits: 8,
            src_low_bits: 12,
            sport: Some((30_000, 33_000)),
            ..Spread::default()
        },
        7,
    );
    sources.push(Box::new(background));
    sources.push(Box::new(cdn));
    MergedSource::new(sources)
}

/// Attack start of the parameterized pulse workload (seconds). Early —
/// the adversarial search runs short scenarios, and every second before
/// the first pulse is budget the optimizer cannot use.
pub const PULSE_ATTACK_START_S: u64 = 2;
/// Number of discrete rate steps approximating a pulse's linear ramp-up
/// (SNIPPETS #2: `R(t) = R_peak · (t − t0) / T_ramp`).
const PULSE_RAMP_STEPS: u64 = 4;

/// The parameterized pulse-wave attack the adversarial search explores:
/// every knob the optimizer can turn, as plain data. The workload this
/// config builds ([`pulse_attack`]) is background traffic plus a pulse
/// train from t = [`PULSE_ATTACK_START_S`]; pulse `i` fires at
/// `start + i · period`, stays on for `duty · period`, cycles through
/// `vectors`, and (when `ramp > 0`) climbs linearly to `amp_bps` over
/// the first `ramp` of its on-window.
#[derive(Debug, Clone, PartialEq)]
pub struct PulseAttackConfig {
    /// Full pulse cycle (on + off).
    pub period: SimDuration,
    /// On fraction of the cycle, in `(0, 1]` (`1` = continuous flood).
    pub duty: f64,
    /// Peak burst amplitude, bits per second.
    pub amp_bps: u64,
    /// Vector mix: pulse `i` uses `vectors[i % len]` and ground-truth
    /// class `1 + (i % len)`.
    pub vectors: Vec<AttackVector>,
    /// Feature-spreading level: 0 = single flow, 1 = the vector's
    /// natural signature, 2 = carpet bombing, 3 = carpet bombing plus
    /// full source spoofing.
    pub spread: u8,
    /// Per-pulse linear ramp-up time (clamped to the on-window;
    /// zero = square pulses).
    pub ramp: SimDuration,
}

impl Default for PulseAttackConfig {
    /// Fig. 6-flavoured defaults: 2 s square pulses at 50% duty peaking
    /// at the Fig. 6 amplitude, one natural-signature UDP flood.
    fn default() -> Self {
        PulseAttackConfig {
            period: SimDuration::from_secs(2),
            duty: 0.5,
            amp_bps: FIG6_PULSE_BPS,
            vectors: vec![AttackVector::UdpFlood],
            spread: 1,
            ramp: SimDuration::ZERO,
        }
    }
}

/// Builds one attack segment of a pulse at the config's spread level.
fn pulse_segment(
    cfg: &PulseAttackConfig,
    vector: AttackVector,
    rate_bps: u64,
    start: SimTime,
    end: SimTime,
    class: ClassId,
    seed: u64,
) -> AttackSource {
    let mut a = AttackConfig::new(vector, rate_bps.max(1), start, end, class, seed);
    match cfg.spread {
        0 => a = a.with_single_flow(),
        1 => {}
        2 => a = a.with_carpet_bombing(),
        _ => a = a.with_carpet_bombing().with_source_spoofing(),
    }
    AttackSource::new(a)
}

/// The parameterized pulse-wave workload: background at
/// [`EXPERIMENT_BACKGROUND_BPS`] plus the pulse train `cfg` describes.
/// Ramps are discretized into `PULSE_RAMP_STEPS` equal-duration rate
/// steps at the midpoint rate of each linear segment. Seed discipline:
/// the background derives from `seed`, pulse `i`'s segment `j` from
/// `seed + 1 + 8·i + j` — byte-stable for a given `(cfg, secs, seed)`.
pub fn pulse_attack(cfg: &PulseAttackConfig, secs: u64, seed: u64) -> MergedSource {
    assert!(
        cfg.duty > 0.0 && cfg.duty <= 1.0,
        "pulse duty must be in (0, 1]"
    );
    assert!(
        !cfg.vectors.is_empty(),
        "pulse vector mix must be non-empty"
    );
    assert!(!cfg.period.is_zero(), "pulse period must be positive");
    let end = SimTime::from_secs(secs);
    let mut sources: Vec<Box<dyn PacketSource + Send>> = vec![Box::new(BackgroundSource::new(
        BackgroundConfig::new(EXPERIMENT_BACKGROUND_BPS, SimTime::ZERO, end, seed),
    ))];
    let start = SimTime::from_secs(PULSE_ATTACK_START_S);
    let on = SimDuration::from_secs_f64(cfg.period.as_secs_f64() * cfg.duty);
    let mut i: u64 = 0;
    loop {
        let t0 = match start.checked_add(cfg.period * i) {
            Some(t) if t < end => t,
            _ => break,
        };
        let vector = cfg.vectors[(i as usize) % cfg.vectors.len()];
        let class = ClassId(1 + (i % cfg.vectors.len() as u64) as u16);
        let seed_base = seed.wrapping_add(1 + 8 * i);
        let ramp = cfg.ramp.min(on);
        let mut cursor = t0;
        if !ramp.is_zero() {
            let step = SimDuration::from_nanos(ramp.as_nanos() / PULSE_RAMP_STEPS);
            if !step.is_zero() {
                for j in 0..PULSE_RAMP_STEPS {
                    let seg_end = cursor.checked_add(step).unwrap_or(end).min(end);
                    if seg_end <= cursor {
                        break;
                    }
                    // Midpoint rate of the j-th linear ramp segment.
                    let frac = (2 * j + 1) as f64 / (2 * PULSE_RAMP_STEPS) as f64;
                    let rate = (cfg.amp_bps as f64 * frac).round() as u64;
                    sources.push(Box::new(pulse_segment(
                        cfg,
                        vector,
                        rate,
                        cursor,
                        seg_end,
                        class,
                        seed_base.wrapping_add(j),
                    )));
                    cursor = seg_end;
                }
            }
        }
        let pulse_end = t0.checked_add(on).unwrap_or(end).min(end);
        if pulse_end > cursor {
            sources.push(Box::new(pulse_segment(
                cfg,
                vector,
                cfg.amp_bps,
                cursor,
                pulse_end,
                class,
                seed_base.wrapping_add(PULSE_RAMP_STEPS),
            )));
        }
        i += 1;
    }
    MergedSource::new(sources)
}

/// Ground-truth class of the pushback scenario's benign service sharing
/// the attacked upstream.
pub const PUSHBACK_SHARED_BENIGN: ClassId = ClassId(1);
/// Benign class on the attack-free upstream.
pub const PUSHBACK_CLEAN_BENIGN: ClassId = ClassId(2);
/// The pushback scenario's attack class.
pub const PUSHBACK_ATTACK: ClassId = ClassId(5);

/// The pushback scenario as one stream: a 4 Mbps benign CBR service
/// from 10.0.0.1 that shares its upstream with a 40 Mbps UDP flood from
/// t = 3 s, and a clean 4 Mbps benign CBR service from 10.0.1.1. Which
/// upstream each packet enters is the topology's placement.
pub fn pushback(secs: u64, seed: u64) -> MergedSource {
    let end = SimTime::from_secs(secs);
    let service = |src, dst, sport, class| -> Box<dyn PacketSource + Send> {
        Box::new(CbrSource::new(
            FlowTemplate::udp(src, dst, sport, 80, class),
            4_000_000,
            SimTime::ZERO,
            end,
        ))
    };
    let mut sources = vec![
        service(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(60, 1, 1, 1),
            5000,
            PUSHBACK_SHARED_BENIGN,
        ),
        service(
            Ipv4Addr::new(10, 0, 1, 1),
            Ipv4Addr::new(61, 1, 1, 1),
            5001,
            PUSHBACK_CLEAN_BENIGN,
        ),
    ];
    let start = SimTime::from_secs(3);
    push_live(&mut sources, start, end, || {
        Box::new(AttackSource::new(AttackConfig::new(
            AttackVector::UdpFlood,
            40_000_000,
            start,
            end,
            PUSHBACK_ATTACK,
            seed,
        )))
    });
    MergedSource::new(sources)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(mut src: MergedSource) -> usize {
        let mut n = 0;
        while src.next_packet().is_some() {
            n += 1;
        }
        n
    }

    #[test]
    fn every_workload_yields_traffic() {
        assert!(count(flood(FloodVariation::SingleFlow, 8, 1)) > 0);
        assert!(count(fig6_pulses(12, 1)) > 0);
        assert!(count(reaction_flood(25, 1)) > 0);
        assert!(count(background_only(5, 1)) > 0);
        assert!(count(elephant(8)) > 0);
        for s in AdversarialScenario::ALL {
            assert!(count(adversarial(s, 8, 1)) > 0, "{}", s.name());
        }
        assert!(count(pushback(5, 1)) > 0);
        assert!(count(pushback(3, 1)) > 0);
    }

    #[test]
    fn no_attack_variation_is_background_only() {
        let with = count(flood(FloodVariation::NoAttack, 8, 7));
        let bare: usize = {
            let mut src = BackgroundSource::new(BackgroundConfig::new(
                EXPERIMENT_BACKGROUND_BPS,
                SimTime::ZERO,
                SimTime::from_secs(8),
                7,
            ));
            let mut n = 0;
            while src.next_packet().is_some() {
                n += 1;
            }
            n
        };
        assert_eq!(with, bare);
    }

    #[test]
    fn pulse_attack_yields_traffic_and_is_deterministic() {
        let cfg = PulseAttackConfig::default();
        let a = count(pulse_attack(&cfg, 8, 9));
        let b = count(pulse_attack(&cfg, 8, 9));
        assert!(a > 0);
        assert_eq!(a, b);
    }

    #[test]
    fn pulse_attack_on_time_scales_with_duty() {
        let lo = PulseAttackConfig {
            duty: 0.25,
            ..PulseAttackConfig::default()
        };
        let hi = PulseAttackConfig {
            duty: 1.0,
            ..PulseAttackConfig::default()
        };
        assert!(count(pulse_attack(&hi, 10, 3)) > count(pulse_attack(&lo, 10, 3)));
    }

    #[test]
    fn pulse_attack_cycles_vector_mix_classes() {
        let cfg = PulseAttackConfig {
            vectors: vec![AttackVector::UdpFlood, AttackVector::SynFlood],
            ..PulseAttackConfig::default()
        };
        let mut src = pulse_attack(&cfg, 10, 5);
        let mut classes = std::collections::BTreeSet::new();
        while let Some(p) = src.next_packet() {
            classes.insert(p.class);
        }
        assert!(classes.contains(&ClassId(1)), "first vector's pulses");
        assert!(classes.contains(&ClassId(2)), "second vector's pulses");
    }

    #[test]
    fn pulse_attack_ramp_and_spread_levels_build() {
        for spread in 0..=3u8 {
            let cfg = PulseAttackConfig {
                spread,
                ramp: SimDuration::from_millis(400),
                ..PulseAttackConfig::default()
            };
            assert!(count(pulse_attack(&cfg, 8, 11)) > 0, "spread={spread}");
        }
    }

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let a = count(adversarial(AdversarialScenario::Swapping, 10, 42));
        let b = count(adversarial(AdversarialScenario::Swapping, 10, 42));
        assert_eq!(a, b);
        let c = count(adversarial(AdversarialScenario::Swapping, 10, 43));
        // Different seeds move packet draws; counts may collide but the
        // streams must not be forced equal — just sanity-check both run.
        assert!(c > 0);
    }
}
