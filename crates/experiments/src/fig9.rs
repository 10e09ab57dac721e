//! Figure 9: clustering performance by attack type and feature (§8.1).
//!
//! The CICDDoS-2019-like attack day is clustered with the simulation
//! profile (10 clusters) and scored with the windowed purity/recall
//! protocol:
//!
//! * (a) purity per attack vector, split into reflection-based and
//!   exploitation-based vectors. Expected: all ≥ ~87%; reflection beats
//!   exploitation on average; high-variance vectors (MSSQL, SSDP) are the
//!   weakest reflectors.
//! * (b) clustering quality per *single* feature. Expected: addresses and
//!   source port are strong identifiers; protocol is almost useless
//!   (attacks and benign traffic share it).

use accturbo_clustering::{
    ClusteringConfig, Feature, FeatureSet, FeatureSpec, OnlineClusterer, QualitySummary,
    WindowedEval,
};
use accturbo_netsim::{PacketSource, SimDuration};
use accturbo_telemetry::f;
use accturbo_traffic::{AttackVector, CicDdosConfig};
use std::fmt::Write as _;

use crate::common::Scale;
use crate::result::FigureResult;
use crate::Figure;

/// The evaluation window width. The paper uses one minute on a day-long
/// trace; our time-compressed day uses windows matching the episode
/// length so each window sees one attack plus background.
const EVAL_WINDOW: SimDuration = SimDuration::from_secs(4);
/// The control-plane window at which clusters are polled and re-seeded.
const POLL: SimDuration = SimDuration::from_millis(50);
/// The canonical workload seed (the CICDDoS-like day's default).
pub const DEFAULT_SEED: u64 = 0xC1C;

fn day_config(vectors: Vec<AttackVector>, scale: Scale, seed: u64) -> CicDdosConfig {
    let mut cfg = CicDdosConfig {
        vectors,
        seed,
        ..CicDdosConfig::default()
    };
    if scale == Scale::Quick {
        cfg.episode = SimDuration::from_secs(2);
        cfg.gap = SimDuration::from_secs(1);
        cfg.background_bps /= 2;
        cfg.attack_bps /= 2;
    }
    cfg
}

/// Clusters the traffic of `cfg` with `clustering` and returns the
/// windowed quality summary. This drives the clustering engine directly —
/// inference quality is independent of the queueing — while reproducing
/// the switch's control-loop (poll + re-seed every `POLL`).
pub fn cluster_quality(cfg: CicDdosConfig, clustering: ClusteringConfig) -> QualitySummary {
    let mut source = cfg.into_source();
    let mut clusterer = OnlineClusterer::new(clustering);
    let mut eval = WindowedEval::new(EVAL_WINDOW);
    let mut next_poll = POLL;
    while let Some(pkt) = source.next_packet() {
        while pkt.arrival.as_nanos() >= next_poll.as_nanos() {
            clusterer.take_window();
            clusterer.reset_clusters();
            next_poll += POLL;
        }
        let cluster = clusterer.assign(&pkt);
        eval.record(pkt.arrival, cluster, pkt.class);
    }
    eval.finish()
}

/// Purity for a single attack vector over background (one-vector day).
pub fn vector_purity(vector: AttackVector, scale: Scale, seed: u64) -> QualitySummary {
    let cfg = day_config(vec![vector], scale, seed);
    let clustering = ClusteringConfig::deployable(10, FeatureSet::simulation_default());
    cluster_quality(cfg, clustering)
}

/// Quality when clustering on one single feature (Fig. 9b).
pub fn single_feature_quality(feature: Feature, scale: Scale, seed: u64) -> QualitySummary {
    let cfg = day_config(AttackVector::ALL.to_vec(), scale, seed);
    let clustering =
        ClusteringConfig::deployable(10, FeatureSet::new(vec![FeatureSpec::ordinal(feature)]));
    cluster_quality(cfg, clustering)
}

/// The features of Fig. 9b, in the paper's order.
pub const FIG9B_FEATURES: [Feature; 9] = [
    Feature::DstIp,
    Feature::SrcIp,
    Feature::SrcPort,
    Feature::DstPort,
    Feature::Ttl,
    Feature::IpLen,
    Feature::FragOffset,
    Feature::IpId,
    Feature::Proto,
];

/// Regenerates Fig. 9 at `seed`, returning the rendered report and its
/// machine-readable result.
pub fn figure(scale: Scale, seed: u64) -> Figure {
    let mut out = String::new();
    let mut r = FigureResult::new("fig9");
    let _ = writeln!(&mut out, "# Fig. 9a: purity by attack vector");
    let _ = writeln!(&mut out, "vector,kind,purity_pct");
    let vectors: &[AttackVector] = match scale {
        Scale::Full => &AttackVector::ALL,
        Scale::Quick => &[AttackVector::Ntp, AttackVector::UdpFlood],
    };
    for &v in vectors {
        let q = vector_purity(v, scale, seed);
        let kind = if v.is_reflection() {
            "reflection"
        } else {
            "exploitation"
        };
        r.num(&format!("a.{}.purity_pct", v.name()), q.purity);
        let _ = writeln!(&mut out, "{},{},{}", v.name(), kind, f(q.purity));
    }

    if scale == Scale::Full {
        let _ = writeln!(
            &mut out,
            "# Fig. 9a extension: vectors beyond CICDDoS-2019 (Memcached, LDAP, ACK, ICMP)"
        );
        let _ = writeln!(&mut out, "vector,kind,purity_pct");
        for v in [
            AttackVector::Memcached,
            AttackVector::Ldap,
            AttackVector::AckFlood,
            AttackVector::IcmpFlood,
        ] {
            let q = vector_purity(v, scale, seed);
            let kind = if v.is_reflection() {
                "reflection"
            } else {
                "exploitation"
            };
            r.num(&format!("a_ext.{}.purity_pct", v.name()), q.purity);
            let _ = writeln!(&mut out, "{},{},{}", v.name(), kind, f(q.purity));
        }
    }

    let _ = writeln!(&mut out, "# Fig. 9b: clustering quality per feature");
    let _ = writeln!(
        &mut out,
        "feature,purity_pct,recall_benign_pct,recall_malicious_pct"
    );
    let features: &[Feature] = match scale {
        Scale::Full => &FIG9B_FEATURES,
        Scale::Quick => &[Feature::DstIp, Feature::Proto],
    };
    for &feat in features {
        let q = single_feature_quality(feat, scale, seed);
        r.num(&format!("b.{}.purity_pct", feat.name()), q.purity);
        r.num(
            &format!("b.{}.recall_benign_pct", feat.name()),
            q.recall_benign,
        );
        r.num(
            &format!("b.{}.recall_malicious_pct", feat.name()),
            q.recall_malicious,
        );
        let _ = writeln!(
            &mut out,
            "{},{},{},{}",
            feat.name(),
            f(q.purity),
            f(q.recall_benign),
            f(q.recall_malicious)
        );
    }
    Figure::new(out, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_vectors_cluster_with_high_purity() {
        let mut failures = Vec::new();
        for v in AttackVector::ALL {
            let q = vector_purity(v, Scale::Full, DEFAULT_SEED);
            // Paper: ≥87% everywhere. Our exploitation floods randomize
            // more fields than the CICDDoS-2019 tools did, so we allow
            // them a slightly lower floor (see EXPERIMENTS.md); the plain
            // UDP flood randomizes the whole 4-tuple and sits lowest
            // (≈74%). MSSQL and SSDP are the paper's two weakest
            // reflectors (high source-port variance) and sit a couple of
            // points below the rest here too.
            let floor = if matches!(v, AttackVector::Mssql | AttackVector::Ssdp) {
                82.0
            } else if v.is_reflection() {
                85.0
            } else {
                72.0
            };
            println!("{}: purity {:.1}% (floor {floor}%)", v.name(), q.purity);
            if q.purity <= floor {
                failures.push(format!(
                    "{}: purity {:.1}% (floor {floor}%)",
                    v.name(),
                    q.purity
                ));
            }
            assert!(q.windows > 0, "{}: no mixed windows scored", v.name());
        }
        assert!(failures.is_empty(), "purity floors violated: {failures:?}");
    }

    #[test]
    fn mssql_and_ssdp_are_the_weakest_reflectors() {
        // The paper singles out MSSQL and SSDP (high source-port
        // variance) as the worst-performing reflection vectors.
        let purities: Vec<(AttackVector, f64)> = AttackVector::ALL
            .into_iter()
            .filter(|v| v.is_reflection())
            .map(|v| (v, vector_purity(v, Scale::Full, DEFAULT_SEED).purity))
            .collect();
        let mssql = purities
            .iter()
            .find(|(v, _)| *v == AttackVector::Mssql)
            .expect("present")
            .1;
        let ssdp = purities
            .iter()
            .find(|(v, _)| *v == AttackVector::Ssdp)
            .expect("present")
            .1;
        for (v, p) in &purities {
            if !matches!(v, AttackVector::Mssql | AttackVector::Ssdp) {
                assert!(
                    *p > mssql.min(ssdp),
                    "{} ({p:.1}%) should beat MSSQL/SSDP",
                    v.name()
                );
            }
        }
    }

    #[test]
    fn reflection_beats_exploitation_on_average() {
        let mean = |vectors: Vec<AttackVector>| -> f64 {
            let n = vectors.len() as f64;
            vectors
                .into_iter()
                .map(|v| vector_purity(v, Scale::Full, DEFAULT_SEED).purity)
                .sum::<f64>()
                / n
        };
        let reflection = mean(
            AttackVector::ALL
                .into_iter()
                .filter(|v| v.is_reflection())
                .collect(),
        );
        let exploitation = mean(
            AttackVector::ALL
                .into_iter()
                .filter(|v| !v.is_reflection())
                .collect(),
        );
        assert!(
            reflection > exploitation,
            "reflection {reflection:.1}% vs exploitation {exploitation:.1}% (paper: +5.4%)"
        );
    }

    #[test]
    fn addresses_are_strong_identifiers_protocol_is_not() {
        // Purity alone is insensitive for coarse features (a
        // majority-malicious catch-all cluster still scores well when the
        // attack dominates packet counts); benign recall exposes it —
        // with only the IP protocol, benign TCP shares its cluster with
        // the SYN flood and benign UDP with every UDP vector.
        let daddr = single_feature_quality(Feature::DstIp, Scale::Full, DEFAULT_SEED);
        let proto = single_feature_quality(Feature::Proto, Scale::Full, DEFAULT_SEED);
        assert!(
            daddr.recall_benign > proto.recall_benign + 5.0,
            "daddr benign recall {:.1}% vs proto {:.1}%",
            daddr.recall_benign,
            proto.recall_benign
        );
        assert!(daddr.purity > 85.0, "daddr purity {:.1}%", daddr.purity);
    }
}
