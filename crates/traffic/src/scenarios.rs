//! Canonical workloads of the ACC experiments (paper Figs. 2 and 3).
//!
//! Both scenarios schedule five "aggregates" over a bottleneck link:
//!
//! * **Fig. 2** (the original ACC experiment from Mahajan et al. 2002):
//!   aggregates 1–4 are constant-bit-rate; aggregate 5 is a variable-rate
//!   attack that ramps up at t = 13 s and back down at t = 25 s.
//! * **Fig. 3** (the pulse-wave variant): aggregates 1–4 are CBR summing
//!   to ≈ the link capacity; aggregate 5 is a pulse-wave attack with four
//!   pulses starting at 5, 15, 25 and 35 s, each pulse a *different*
//!   vector (morphing), all labeled as one attack aggregate.
//!
//! Each aggregate targets its own destination /24 (spread over the last
//! byte) so both prefix-based inference (classic ACC) and clustering
//! (ACC-Turbo) have structure to find.

use crate::cbr::{CbrSource, FlowTemplate, RampSource, RateStep};
use crate::modifiers::{Spread, SpreadSource};
use crate::vectors::{AttackConfig, AttackSource, AttackVector};
use accturbo_netsim::{ClassId, MergedSource, PacketSource, SimTime};
use std::net::Ipv4Addr;

/// Total run length of both scenarios, matching the figures' 50 s x-axis.
pub const RUN_SECS: u64 = 50;

/// The ground-truth class of the attack aggregate in both scenarios.
pub const ATTACK_CLASS: ClassId = ClassId(5);

/// The destination /24 network of aggregate `i` (1-based). The five
/// aggregates are distinct traffic types (different services, hosts and
/// paths), so their subnets — like their ports, sizes and TTLs — are well
/// separated in feature space. The attack aggregate (5) sits far from all
/// of them.
pub fn aggregate_subnet(i: u16) -> Ipv4Addr {
    match i {
        1..=4 => Ipv4Addr::new(40 * i as u8, 18, i as u8, 0),
        5 => Ipv4Addr::new(220, 18, 5, 0),
        _ => panic!("aggregate index out of range: {i}"),
    }
}

/// The source-port band of aggregate `i` (narrow for the benign CBR
/// services, wide for the attack).
pub fn aggregate_sport_band(i: u16) -> (u16, u16) {
    match i {
        1..=4 => (20_000 + 2_000 * i, 20_000 + 2_000 * i + 49),
        5 => (5_000, 5_999),
        _ => panic!("aggregate index out of range: {i}"),
    }
}

/// Benign CBR aggregate `i`, or `None` when `rate_bps` rounds to zero
/// (a link of a few bps): a silent aggregate emits nothing.
fn cbr_aggregate(
    i: u16,
    rate_bps: u64,
    end: SimTime,
    seed: u64,
) -> Option<Box<dyn PacketSource + Send>> {
    if rate_bps == 0 {
        return None;
    }
    let dports = [80u16, 53, 443, 8080];
    let sizes = [1500u32, 800, 1200, 600];
    let ttls = [64u8, 58, 52, 47];
    let idx = (i - 1) as usize;
    let template = FlowTemplate::udp(
        Ipv4Addr::new(50 + 30 * i as u8, 1, i as u8, 1),
        aggregate_subnet(i),
        aggregate_sport_band(i).0,
        dports[idx],
        ClassId(i),
    )
    .with_size(sizes[idx]);
    let mut template = template;
    template.ttl = ttls[idx];
    let cbr = CbrSource::new(template, rate_bps, SimTime::ZERO, end);
    let spread = Spread {
        dst_low_bits: 8,
        sport: Some(aggregate_sport_band(i)),
        ..Spread::default()
    };
    Some(Box::new(SpreadSource::new(cbr, spread, seed)))
}

/// Builds the Fig. 2 workload for a bottleneck of `link_bps`.
///
/// Aggregates 1–4 are CBR at 21.25% of the link each (85% total, as in the
/// original experiment's lightly-loaded baseline); aggregate 5 ramps from
/// zero at t = 13 s up to 4× the link rate at t = 19 s, holds, and ramps
/// back down between t = 25 s and t = 31 s.
pub fn fig2_source(link_bps: u64, seed: u64) -> MergedSource {
    let end = SimTime::from_secs(RUN_SECS);
    let mut sources: Vec<Box<dyn PacketSource + Send>> = Vec::new();
    for i in 1..=4u16 {
        sources.extend(cbr_aggregate(
            i,
            link_bps * 2125 / 10_000,
            end,
            seed.wrapping_add(i as u64),
        ));
    }

    // Aggregate 5: piecewise ramp 13 s → 19 s up, 25 s → 31 s down.
    let peak = link_bps * 4;
    let mut steps = Vec::new();
    for k in 0..=5u64 {
        steps.push(RateStep {
            at: SimTime::from_secs(13 + k),
            rate_bps: peak * (k + 1) / 6,
        });
    }
    for k in 1..=6u64 {
        steps.push(RateStep {
            at: SimTime::from_secs(25 + k),
            rate_bps: peak * (6 - k) / 6,
        });
    }
    let template = FlowTemplate::udp(
        Ipv4Addr::new(230, 1, 5, 1),
        aggregate_subnet(5),
        aggregate_sport_band(5).0,
        4444,
        ATTACK_CLASS,
    );
    let ramp = RampSource::new(template, steps, end);
    sources.push(Box::new(SpreadSource::new(
        ramp,
        Spread {
            dst_low_bits: 8,
            sport: Some(aggregate_sport_band(5)),
            ..Spread::default()
        },
        seed.wrapping_add(5),
    )));

    MergedSource::new(sources)
}

/// The four morphing pulse vectors of the Fig. 3 attack, in pulse order.
/// All four are reflection vectors (volumetric pulses are well-defined
/// aggregates, §10) but each morphs the signature: different reflector
/// port, packet size and TTL band.
pub const FIG3_PULSE_VECTORS: [AttackVector; 4] = [
    AttackVector::Ntp,
    AttackVector::Dns,
    AttackVector::Snmp,
    AttackVector::NetBios,
];

/// The destination /24 of pulse `k` (0-based): pulse-wave attacks morph
/// their target along with their vector, so ACC's standing rate-limit
/// session on the previous pulse's prefix never covers the next pulse.
pub fn fig3_pulse_subnet(k: usize) -> Ipv4Addr {
    assert!(k < 4, "pulse index out of range");
    Ipv4Addr::new(220, 18, 5 + k as u8, 0)
}

/// Builds the Fig. 3 workload for a bottleneck of `link_bps`.
///
/// Aggregates 1–4 are CBR at 25% of the link each (together ≈ the link
/// capacity, per §2.2); the attack sends four 5-second pulses starting at
/// 5, 15, 25 and 35 s, each with a different vector *and* a different
/// target /24, at 3× the link rate.
pub fn fig3_source(link_bps: u64, seed: u64) -> MergedSource {
    let end = SimTime::from_secs(RUN_SECS);
    let mut sources: Vec<Box<dyn PacketSource + Send>> = Vec::new();
    for i in 1..=4u16 {
        sources.extend(cbr_aggregate(
            i,
            link_bps / 4,
            end,
            seed.wrapping_add(i as u64),
        ));
    }
    for (k, vector) in FIG3_PULSE_VECTORS.iter().enumerate() {
        let start = SimTime::from_secs(5 + 10 * k as u64);
        let stop = start + accturbo_netsim::SimDuration::from_secs(5);
        let cfg = AttackConfig::new(
            *vector,
            link_bps * 3,
            start,
            stop,
            ATTACK_CLASS,
            seed.wrapping_add(100 + k as u64),
        )
        .with_victim(fig3_pulse_subnet(k), 4444)
        .with_carpet_bombing();
        sources.push(Box::new(AttackSource::new(cfg)));
    }
    MergedSource::new(sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accturbo_netsim::Packet;

    fn drain(mut src: MergedSource) -> Vec<Packet> {
        std::iter::from_fn(move || src.next_packet()).collect()
    }

    const LINK: u64 = 10_000_000;

    fn rate_of(pkts: &[Packet], class: ClassId, from_s: u64, to_s: u64) -> f64 {
        let bytes: u64 = pkts
            .iter()
            .filter(|p| {
                p.class == class
                    && p.arrival >= SimTime::from_secs(from_s)
                    && p.arrival < SimTime::from_secs(to_s)
            })
            .map(|p| p.size as u64)
            .sum();
        bytes as f64 * 8.0 / (to_s - from_s) as f64
    }

    #[test]
    fn fig2_background_rates() {
        let pkts = drain(fig2_source(LINK, 1));
        for i in 1..=4u16 {
            let r = rate_of(&pkts, ClassId(i), 0, 10);
            let target = LINK as f64 * 0.2125;
            assert!(
                (r - target).abs() / target < 0.05,
                "aggregate {i} rate {r:.0}"
            );
        }
    }

    #[test]
    fn fig2_attack_profile() {
        let pkts = drain(fig2_source(LINK, 1));
        assert_eq!(
            rate_of(&pkts, ATTACK_CLASS, 0, 12),
            0.0,
            "silent before 13s"
        );
        let peak = rate_of(&pkts, ATTACK_CLASS, 20, 25);
        assert!(
            (peak - 4.0 * LINK as f64).abs() / (4.0 * LINK as f64) < 0.1,
            "peak {peak:.0}"
        );
        assert_eq!(
            rate_of(&pkts, ATTACK_CLASS, 32, 50),
            0.0,
            "silent after ramp-down"
        );
        // Ramp is monotone up between 13 and 19.
        let early = rate_of(&pkts, ATTACK_CLASS, 13, 15);
        let late = rate_of(&pkts, ATTACK_CLASS, 17, 19);
        assert!(
            late > early * 1.5,
            "ramp should grow: {early:.0} -> {late:.0}"
        );
    }

    #[test]
    fn fig3_pulses_at_expected_times() {
        let pkts = drain(fig3_source(LINK, 2));
        for k in 0..4u64 {
            let on = rate_of(&pkts, ATTACK_CLASS, 5 + 10 * k, 10 + 10 * k);
            assert!(
                (on - 3.0 * LINK as f64).abs() / (3.0 * LINK as f64) < 0.15,
                "pulse {k} rate {on:.0}"
            );
            let off = rate_of(&pkts, ATTACK_CLASS, 10 + 10 * k, 15 + 10 * k);
            assert_eq!(off, 0.0, "gap {k} must be silent");
        }
    }

    #[test]
    fn fig3_pulses_morph_vectors_and_targets() {
        let pkts = drain(fig3_source(LINK, 2));
        // Each pulse carries its vector's signature port and hits its own
        // /24.
        for (k, expected_sport) in [123u16, 53, 161, 137].into_iter().enumerate() {
            let start = SimTime::from_secs(5 + 10 * k as u64);
            let stop = SimTime::from_secs(10 + 10 * k as u64);
            let pulse: Vec<_> = pkts
                .iter()
                .filter(|p| p.class == ATTACK_CLASS && p.arrival >= start && p.arrival < stop)
                .collect();
            assert!(!pulse.is_empty(), "pulse {k} missing");
            assert!(
                pulse.iter().all(|p| p.sport == expected_sport),
                "pulse {k} sport"
            );
            let subnet = fig3_pulse_subnet(k).octets();
            assert!(
                pulse.iter().all(|p| p.dst.octets()[..3] == subnet[..3]),
                "pulse {k} subnet"
            );
        }
    }

    #[test]
    fn aggregates_use_disjoint_subnets() {
        let pkts = drain(fig2_source(LINK, 3));
        for p in &pkts {
            let expected = aggregate_subnet(p.class.0).octets();
            assert_eq!(
                p.dst.octets()[..3],
                expected[..3],
                "aggregate {} must stay in its /24",
                p.class
            );
        }
    }

    #[test]
    fn aggregates_are_separable_in_feature_space() {
        // Port bands must not overlap across aggregates — that separation
        // is what lets range clustering isolate them.
        for i in 1..=5u16 {
            for j in (i + 1)..=5u16 {
                let (a_lo, a_hi) = aggregate_sport_band(i);
                let (b_lo, b_hi) = aggregate_sport_band(j);
                assert!(a_hi < b_lo || b_hi < a_lo, "bands {i}/{j} overlap");
            }
        }
    }
}
