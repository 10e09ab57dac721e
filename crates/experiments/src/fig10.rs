//! Figure 10: performance of clustering strategies vs. number of clusters
//! (paper §8.1).
//!
//! Purity and benign recall on the attack day for the full design space:
//! {Anime, Manhattan, Euclidean} × {exhaustive, fast}, the hybrid
//! "Eucl. Fast In." (offline-initialized, online-updated), and offline
//! k-means with unlimited resources, for 2–10 clusters.
//!
//! Expected shape: more clusters help everywhere with diminishing
//! returns; exhaustive ≥ fast (clearest for the range-based Anime and
//! Manhattan); center-based approaches lose less when downgraded to
//! fast; the deployable Manhattan-fast stays within a few percent of
//! offline k-means.

use crate::common::Scale;
use crate::fig9::cluster_quality;
use crate::result::FigureResult;
use crate::Figure;
use accturbo_clustering::{
    kmeans, nearest, ClusteringConfig, DistanceKind, FeatureSet, HybridClusterer, NominalMode,
    QualitySummary, SearchKind, WindowedEval,
};
use accturbo_netsim::{PacketSource, SimDuration};
use accturbo_telemetry::f;
use accturbo_traffic::{AttackVector, CicDdosConfig};
use std::fmt::Write as _;

/// The clustering strategies of Fig. 10, in the legend's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Anime distance, exhaustive search.
    AnimeExhaustive,
    /// Manhattan distance, exhaustive search.
    ManhattanExhaustive,
    /// Euclidean (center-based), exhaustive search.
    EuclideanExhaustive,
    /// Anime distance, fast search.
    AnimeFast,
    /// Manhattan distance, fast search — deployable ACC-Turbo (starred in
    /// the paper's legend).
    ManhattanFast,
    /// Euclidean, fast search.
    EuclideanFast,
    /// "Eucl. Fast In.": hybrid offline-initialized, online-updated.
    EuclideanFastInit,
    /// Offline k-means with unlimited resources.
    OfflineKMeans,
}

impl Strategy {
    /// All strategies in the paper's legend order.
    pub const ALL: [Strategy; 8] = [
        Strategy::AnimeExhaustive,
        Strategy::ManhattanExhaustive,
        Strategy::EuclideanExhaustive,
        Strategy::AnimeFast,
        Strategy::ManhattanFast,
        Strategy::EuclideanFast,
        Strategy::EuclideanFastInit,
        Strategy::OfflineKMeans,
    ];

    /// Legend label.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::AnimeExhaustive => "Anime Exh.",
            Strategy::ManhattanExhaustive => "Manh. Exh.",
            Strategy::EuclideanExhaustive => "Eucl. Exh.",
            Strategy::AnimeFast => "Anime Fast",
            Strategy::ManhattanFast => "* Manh. Fast",
            Strategy::EuclideanFast => "Eucl. Fast",
            Strategy::EuclideanFastInit => "Eucl. Fast In.",
            Strategy::OfflineKMeans => "Off. KMeans",
        }
    }

    fn online_config(self, k: usize) -> Option<ClusteringConfig> {
        let (distance, search) = match self {
            Strategy::AnimeExhaustive => (DistanceKind::Anime, SearchKind::Exhaustive),
            Strategy::ManhattanExhaustive => (DistanceKind::Manhattan, SearchKind::Exhaustive),
            Strategy::EuclideanExhaustive => (DistanceKind::Euclidean, SearchKind::Exhaustive),
            Strategy::AnimeFast => (DistanceKind::Anime, SearchKind::Fast),
            Strategy::ManhattanFast => (DistanceKind::Manhattan, SearchKind::Fast),
            Strategy::EuclideanFast => (DistanceKind::Euclidean, SearchKind::Fast),
            _ => return None,
        };
        let mut cfg = ClusteringConfig::deployable(k, FeatureSet::simulation_default());
        cfg.distance = distance;
        cfg.search = search;
        cfg.nominal = NominalMode::Exact;
        Some(cfg)
    }
}

/// The canonical workload seed (the CICDDoS-like day's default).
pub const DEFAULT_SEED: u64 = 0xC1C;

fn day(scale: Scale, seed: u64) -> CicDdosConfig {
    let mut cfg = CicDdosConfig {
        seed,
        ..CicDdosConfig::default()
    };
    if scale == Scale::Quick {
        cfg.vectors = vec![AttackVector::Ntp, AttackVector::UdpFlood];
        cfg.episode = SimDuration::from_secs(2);
        cfg.gap = SimDuration::from_secs(1);
        cfg.background_bps /= 2;
        cfg.attack_bps /= 2;
    }
    cfg
}

/// Evaluation window (matches Fig. 9's protocol).
const EVAL_WINDOW: SimDuration = SimDuration::from_secs(4);

/// Runs one (strategy, k) cell and returns its quality.
pub fn run_cell(strategy: Strategy, k: usize, scale: Scale, seed: u64) -> QualitySummary {
    match strategy {
        Strategy::OfflineKMeans => offline_kmeans_quality(k, scale, seed),
        Strategy::EuclideanFastInit => hybrid_quality(k, scale, seed),
        _ => {
            let cfg = strategy.online_config(k).expect("online strategy");
            cluster_quality(day(scale, seed), cfg)
        }
    }
}

fn hybrid_quality(k: usize, scale: Scale, seed: u64) -> QualitySummary {
    let mut source = day(scale, seed).into_source();
    let mut hc = HybridClusterer::new(FeatureSet::simulation_default(), k, 0.2, 20_000, 42);
    let mut eval = WindowedEval::new(EVAL_WINDOW);
    while let Some(pkt) = source.next_packet() {
        let cluster = hc.assign(&pkt);
        eval.record(pkt.arrival, cluster, pkt.class);
    }
    eval.finish()
}

fn offline_kmeans_quality(k: usize, scale: Scale, seed: u64) -> QualitySummary {
    // Offline, unlimited resources: fit k-means per evaluation window on
    // the window's own packets (subsampled for tractability), then score
    // the window's assignment.
    let features = FeatureSet::simulation_default();
    let mut source = day(scale, seed).into_source();
    let mut eval = WindowedEval::new(EVAL_WINDOW);
    let mut window_points: Vec<Vec<f64>> = Vec::new();
    let mut window_pkts: Vec<(accturbo_netsim::SimTime, accturbo_netsim::ClassId, Vec<f64>)> =
        Vec::new();
    let mut current_window = 0u64;
    let flush = |points: &mut Vec<Vec<f64>>,
                 pkts: &mut Vec<(accturbo_netsim::SimTime, accturbo_netsim::ClassId, Vec<f64>)>,
                 eval: &mut WindowedEval| {
        if pkts.is_empty() {
            return;
        }
        // Subsample the fit set for tractability (assignment uses all).
        let stride = (points.len() / 20_000).max(1);
        let sample: Vec<Vec<f64>> = points.iter().step_by(stride).cloned().collect();
        let fit = kmeans(&sample, k, 10, 42);
        for (at, class, point) in pkts.drain(..) {
            let cluster = nearest(&fit.centers, &point);
            eval.record(at, cluster, class);
        }
        points.clear();
    };
    while let Some(pkt) = source.next_packet() {
        let w = pkt.arrival.bucket(EVAL_WINDOW);
        if w != current_window {
            flush(&mut window_points, &mut window_pkts, &mut eval);
            current_window = w;
        }
        let point: Vec<f64> = features
            .extract(&pkt)
            .into_iter()
            .map(|v| v as f64)
            .collect();
        window_points.push(point.clone());
        window_pkts.push((pkt.arrival, pkt.class, point));
    }
    flush(&mut window_points, &mut window_pkts, &mut eval);
    eval.finish()
}

/// Regenerates Fig. 10 at `seed`, returning the rendered report and its
/// machine-readable result.
pub fn figure(scale: Scale, seed: u64) -> Figure {
    let mut out = String::new();
    let mut r = FigureResult::new("fig10");
    let ks: &[usize] = match scale {
        Scale::Full => &[2, 4, 6, 8, 10],
        Scale::Quick => &[2, 10],
    };
    let strategies: &[Strategy] = match scale {
        Scale::Full => &Strategy::ALL,
        Scale::Quick => &[Strategy::ManhattanFast, Strategy::OfflineKMeans],
    };
    let slug = |s: &str| {
        s.to_lowercase()
            .replace(['*', '.'], "")
            .trim()
            .replace(' ', "_")
    };
    for (title, panel, pick) in [
        ("Fig. 10a: Purity (%)", "a", 0usize),
        ("Fig. 10b: Recall benign (%)", "b", 1),
    ] {
        let _ = writeln!(&mut out, "# {title}");
        let _ = write!(&mut out, "clusters");
        for s in strategies {
            let _ = write!(&mut out, ",{}", s.name());
        }
        let _ = writeln!(&mut out);
        for &k in ks {
            let _ = write!(&mut out, "{k}");
            for &s in strategies {
                let q = run_cell(s, k, scale, seed);
                let v = if pick == 0 { q.purity } else { q.recall_benign };
                r.num(&format!("{panel}.k{k}.{}", slug(s.name())), v);
                let _ = write!(&mut out, ",{}", f(v));
            }
            let _ = writeln!(&mut out);
        }
    }
    Figure::new(out, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_clusters_help_with_diminishing_returns() {
        let p2 = run_cell(Strategy::ManhattanFast, 2, Scale::Full, DEFAULT_SEED).purity;
        let p6 = run_cell(Strategy::ManhattanFast, 6, Scale::Full, DEFAULT_SEED).purity;
        let p10 = run_cell(Strategy::ManhattanFast, 10, Scale::Full, DEFAULT_SEED).purity;
        assert!(p6 > p2, "6 clusters ({p6:.1}) must beat 2 ({p2:.1})");
        assert!(
            p10 >= p6 - 1.0,
            "10 clusters ({p10:.1}) must not regress vs 6 ({p6:.1})"
        );
        assert!(
            p10 > p2 + 2.0,
            "2→10 must show a clear gain ({p2:.1} → {p10:.1})"
        );
    }

    #[test]
    fn exhaustive_at_least_matches_fast_for_manhattan() {
        let fast = run_cell(Strategy::ManhattanFast, 6, Scale::Full, DEFAULT_SEED).purity;
        let exh = run_cell(Strategy::ManhattanExhaustive, 6, Scale::Full, DEFAULT_SEED).purity;
        // Paper Fig. 10: the two perform similarly, and fast's greedy
        // merge choice can come out a couple of points ahead on some
        // traffic draws — allow that much noise, no more.
        assert!(
            exh >= fast - 3.0,
            "exhaustive ({exh:.1}) must not lose to fast ({fast:.1})"
        );
    }

    #[test]
    fn deployable_is_close_to_offline_kmeans() {
        let fast = run_cell(Strategy::ManhattanFast, 10, Scale::Full, DEFAULT_SEED).purity;
        let offline = run_cell(Strategy::OfflineKMeans, 10, Scale::Full, DEFAULT_SEED).purity;
        assert!(
            offline - fast < 10.0,
            "deployable ({fast:.1}) should be within ~5% of offline k-means ({offline:.1})"
        );
    }

    #[test]
    fn every_strategy_runs_at_every_cluster_count() {
        for s in Strategy::ALL {
            let q = run_cell(s, 4, Scale::Quick, DEFAULT_SEED);
            assert!(q.windows > 0, "{}: no windows scored", s.name());
            assert!(q.purity > 50.0, "{}: purity {:.1}", s.name(), q.purity);
        }
    }
}
