//! Figure 11: impact of scheduling for mitigation (paper §8.2).
//!
//! * (a) ranking-algorithm score on the two hardest reflection vectors
//!   (MSSQL and SSDP): the percentage of one-second intervals where
//!   benign traffic received a better average priority than attack
//!   traffic. Expected: adding the cluster-size factor ("/Size")
//!   improves both packet-rate and throughput ranking.
//! * (b) % of benign packets dropped vs. bottleneck capacity for FIFO,
//!   the ground-truth ideal PIFO, and ACC-Turbo variants (Anime-fast,
//!   Manhattan-fast with Th. and Th./Size ranking, Manhattan-exhaustive).
//!   Expected: the deployable Manhattan-fast tracks the ideal scheduler
//!   within a few percent at small bottlenecks and saves tens of percent
//!   of benign traffic over FIFO.
//!
//! Axis note: capacities are the paper's Gbps values at the 1/1000 scale
//! (0.05 Gbps → 50 Mbps, …, 0.001 Gbps → 1 Mbps).

use crate::common::{simulate, Scale};
use crate::result::FigureResult;
use crate::spec::{AccTurboSpec, DefenseSpec, ScenarioSpec, WorkloadSpec};
use crate::Figure;
use accturbo_clustering::{DistanceKind, SearchKind};
use accturbo_netsim::SimDuration;
use accturbo_sched::RankingAlgorithm;
use accturbo_telemetry::{f, SchedulingScore};
use accturbo_traffic::AttackVector;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// Control period for the §8 simulation experiments.
const POLL: SimDuration = SimDuration::from_millis(50);
/// The canonical workload seed (the CICDDoS-like day's default). The
/// Fig. 11a "elephant" supplement keeps its own calibrated seeds — its
/// regime is the experiment, not the draw.
pub const DEFAULT_SEED: u64 = 0xC1C;

/// The CICDDoS-style day as a declarative workload (quick runs shrink
/// the episode/gap timing, as the figure always has).
fn day_spec(vectors: Vec<AttackVector>, scale: Scale) -> WorkloadSpec {
    let (episode, gap) = match scale {
        Scale::Quick => (
            Some(SimDuration::from_secs(2)),
            Some(SimDuration::from_secs(1)),
        ),
        Scale::Full => (None, None),
    };
    WorkloadSpec::CicDay {
        vectors: Some(vectors),
        episode,
        gap,
    }
}

/// Runs one vector through ACC-Turbo at `link_bps` with `ranking` and
/// returns the Fig. 11a scheduling score under the paper's protocol
/// (the CICDDoS-style episode of the given vector over background).
///
/// With this repository's re-anchored clustering, the inference isolates
/// MSSQL and SSDP completely at the simulated rates, so every ranking
/// achieves the maximum score — the comparison saturates (see
/// EXPERIMENTS.md). [`elephant_drops`] exercises the regime where the
/// ranking actually decides the outcome.
pub fn ranking_score(
    vector: AttackVector,
    ranking: RankingAlgorithm,
    link_bps: u64,
    scale: Scale,
    seed: u64,
) -> f64 {
    let cfg = day_spec(vec![vector], scale).cic_config(seed);
    let total = cfg.total_duration();
    let mut src = cfg.into_source();
    let score = Rc::new(RefCell::new(SchedulingScore::new()));
    let mut sw = AccTurboSpec::simulation().with_ranking(ranking).build();
    sw.set_tracer(Box::new(Rc::clone(&score)));
    let secs = total.as_secs_f64().ceil() as u64;
    simulate(&mut src, &mut sw, link_bps, secs, Some(POLL));
    score.take().score()
}

/// The regime where the ranking algorithm decides the outcome: a *tight*
/// volumetric flood (10 Mbps single flow) next to a *legitimate
/// high-bandwidth service* (an 11 Mbps spread "CDN" aggregate) plus
/// background, on an 18 Mbps bottleneck. A purely rate-based ranking
/// deprioritizes the elephant below the attack; the similarity factor
/// ("/Size") recognizes the elephant's low self-similarity — the design
/// insight Fig. 11a supports. Returns (benign drop %, attack drop %).
pub fn elephant_drops(ranking: RankingAlgorithm) -> (f64, f64) {
    let res = ScenarioSpec::new(
        WorkloadSpec::Elephant,
        DefenseSpec::AccTurbo(AccTurboSpec::simulation().with_ranking(ranking)),
    )
    .with_period(POLL)
    .execute()
    .result;
    (res.stats.benign_drop_pct(), res.stats.attack_drop_pct())
}

/// The ACC-Turbo variants of Fig. 11b.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// No defense.
    Fifo,
    /// Ground-truth rank-ordered queue (upper bound).
    PifoIdeal,
    /// Anime distance, fast search, throughput ranking.
    AnimeFastTh,
    /// Manhattan distance, fast search, throughput ranking (deployable).
    ManhattanFastTh,
    /// Manhattan fast, throughput/size ranking (deployable).
    ManhattanFastThSize,
    /// Manhattan exhaustive, throughput ranking.
    ManhattanExhTh,
}

impl Scheme {
    /// All schemes in the paper's legend order.
    pub const ALL: [Scheme; 6] = [
        Scheme::Fifo,
        Scheme::PifoIdeal,
        Scheme::AnimeFastTh,
        Scheme::ManhattanFastTh,
        Scheme::ManhattanFastThSize,
        Scheme::ManhattanExhTh,
    ];

    /// Legend label.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Fifo => "FIFO",
            Scheme::PifoIdeal => "PIFO Ideal",
            Scheme::AnimeFastTh => "An. Fast Th.",
            Scheme::ManhattanFastTh => "* Manh. Fast Th.",
            Scheme::ManhattanFastThSize => "* Manh. F. Th./S.",
            Scheme::ManhattanExhTh => "Manh. Exh. Th.",
        }
    }
}

/// Maps a Fig. 11b scheme to its declarative defense.
pub fn scheme_defense(scheme: Scheme) -> DefenseSpec {
    match scheme {
        Scheme::Fifo => DefenseSpec::Fifo,
        Scheme::PifoIdeal => DefenseSpec::IdealPifo,
        Scheme::AnimeFastTh => {
            DefenseSpec::AccTurbo(AccTurboSpec::simulation().with_distance(DistanceKind::Anime))
        }
        Scheme::ManhattanFastTh => DefenseSpec::AccTurbo(AccTurboSpec::simulation()),
        Scheme::ManhattanFastThSize => DefenseSpec::AccTurbo(
            AccTurboSpec::simulation().with_ranking(RankingAlgorithm::ThroughputOverSize),
        ),
        Scheme::ManhattanExhTh => {
            DefenseSpec::AccTurbo(AccTurboSpec::simulation().with_search(SearchKind::Exhaustive))
        }
    }
}

/// Runs the full attack day through `scheme` at `link_bps`, returning the
/// % of benign packets dropped.
pub fn benign_drop_pct(scheme: Scheme, link_bps: u64, scale: Scale, seed: u64) -> f64 {
    let defense = scheme_defense(scheme);
    let mut spec = ScenarioSpec::new(day_spec(AttackVector::ALL.to_vec(), scale), defense)
        .with_link(link_bps)
        .with_seed(seed);
    if matches!(spec.defense, DefenseSpec::AccTurbo(_)) {
        spec = spec.with_period(POLL);
    }
    spec.execute().result.stats.benign_drop_pct()
}

/// The Fig. 11b bottleneck capacities, scaled (paper: 0.05–0.001 Gbps).
pub const BOTTLENECKS_MBPS: [u64; 5] = [50, 20, 10, 5, 1];

/// Regenerates Fig. 11 at `seed`, returning the rendered report and its
/// machine-readable result.
pub fn figure(scale: Scale, seed: u64) -> Figure {
    let mut out = String::new();
    let mut r = FigureResult::new("fig11");
    let slug = |s: &str| {
        s.to_lowercase()
            .replace(['*', '.', '/'], "")
            .trim()
            .replace(' ', "_")
    };

    let _ = writeln!(&mut out, "# Fig. 11a: ranking-algorithm score (%)");
    let _ = writeln!(&mut out, "vector,N.P.,Th.,N.P./Size,Th./Size");
    let vectors: &[AttackVector] = match scale {
        Scale::Full => &[AttackVector::Mssql, AttackVector::Ssdp],
        Scale::Quick => &[AttackVector::Mssql],
    };
    for &v in vectors {
        let _ = write!(&mut out, "{}", v.name());
        for alg in RankingAlgorithm::ALL {
            let s = ranking_score(v, alg, 15_000_000, scale, seed);
            r.num(&format!("a.{}.{}.score", v.name(), slug(alg.name())), s);
            let _ = write!(&mut out, ",{}", f(s));
        }
        let _ = writeln!(&mut out);
    }

    let _ = writeln!(
        &mut out,
        "# Fig. 11a supplement: tight flood vs legitimate elephant (benign/attack drop %)"
    );
    let _ = writeln!(&mut out, "ranking,benign_drop_pct,attack_drop_pct");
    if scale == Scale::Full {
        for alg in RankingAlgorithm::ALL {
            let (b, a) = elephant_drops(alg);
            r.num(&format!("a_supp.{}.benign_drop_pct", slug(alg.name())), b);
            r.num(&format!("a_supp.{}.attack_drop_pct", slug(alg.name())), a);
            let _ = writeln!(&mut out, "{},{},{}", alg.name(), f(b), f(a));
        }
    }

    let _ = writeln!(
        &mut out,
        "# Fig. 11b: % benign packets dropped vs bottleneck"
    );
    let _ = write!(&mut out, "bottleneck_mbps");
    for s in Scheme::ALL {
        let _ = write!(&mut out, ",{}", s.name());
    }
    let _ = writeln!(&mut out);
    let capacities: &[u64] = match scale {
        Scale::Full => &BOTTLENECKS_MBPS,
        Scale::Quick => &[10],
    };
    for &mbps in capacities {
        let _ = write!(&mut out, "{mbps}");
        for s in Scheme::ALL {
            let pct = benign_drop_pct(s, mbps * 1_000_000, scale, seed);
            r.num(&format!("b.{}mbps.{}", mbps, slug(s.name())), pct);
            let _ = write!(&mut out, ",{}", f(pct));
        }
        let _ = writeln!(&mut out);
    }
    Figure::new(out, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_factor_improves_the_ranking() {
        // Fig. 11a's conclusion ("adding the similarity factor improves
        // performance"), in the regime where the ranking decides the
        // outcome: /Size must save more of the legitimate elephant than
        // plain throughput, and the packet-rate variants must not lose
        // to it either.
        let (th, _) = elephant_drops(RankingAlgorithm::Throughput);
        let (th_size, _) = elephant_drops(RankingAlgorithm::ThroughputOverSize);
        let (np, _) = elephant_drops(RankingAlgorithm::NumPackets);
        assert!(
            th_size < th - 3.0,
            "Th./Size ({th_size:.1}%) must beat Th. ({th:.1}%) on benign drops"
        );
        assert!(np < th, "N.P. ({np:.1}%) must beat Th. ({th:.1}%) here");
    }

    #[test]
    fn paper_protocol_scores_saturate() {
        // With the full 12-feature inference the attack is isolated in
        // every window, so every ranking achieves the maximum score.
        let s = ranking_score(
            AttackVector::Mssql,
            RankingAlgorithm::Throughput,
            15_000_000,
            Scale::Full,
            DEFAULT_SEED,
        );
        assert!(s > 95.0, "MSSQL Th. score {s:.1}");
    }

    #[test]
    fn accturbo_beats_fifo_and_tracks_the_ideal() {
        let mbps = 50;
        let fifo = benign_drop_pct(Scheme::Fifo, mbps * 1_000_000, Scale::Full, DEFAULT_SEED);
        let ideal = benign_drop_pct(
            Scheme::PifoIdeal,
            mbps * 1_000_000,
            Scale::Full,
            DEFAULT_SEED,
        );
        let turbo = benign_drop_pct(
            Scheme::ManhattanFastTh,
            mbps * 1_000_000,
            Scale::Full,
            DEFAULT_SEED,
        );
        assert!(
            fifo - turbo > 15.0,
            "ACC-Turbo ({turbo:.1}%) must save ≫ benign vs FIFO ({fifo:.1}%); paper: 29%"
        );
        assert!(
            turbo - ideal < 15.0,
            "ACC-Turbo ({turbo:.1}%) should track the ideal ({ideal:.1}%); paper: 5.13%"
        );
    }

    #[test]
    fn ideal_pifo_dominates_everything() {
        let mbps = 10;
        let ideal = benign_drop_pct(
            Scheme::PifoIdeal,
            mbps * 1_000_000,
            Scale::Quick,
            DEFAULT_SEED,
        );
        for s in [Scheme::Fifo, Scheme::ManhattanFastTh] {
            let pct = benign_drop_pct(s, mbps * 1_000_000, Scale::Quick, DEFAULT_SEED);
            assert!(
                ideal <= pct + 1.0,
                "{} ({pct:.1}%) must not beat the oracle ({ideal:.1}%)",
                s.name()
            );
        }
    }
}
