//! Worst-case frontier: per-defense adversarial attack search
//! (DESIGN.md §12, ROADMAP item 3).
//!
//! Not a paper figure — the paper only evaluates hand-scripted pulse
//! patterns, and CCLab-style results show those badly under-explore the
//! attack space. This figure runs the `accturbo-adversary` optimizer
//! against each baseline defense (fifo, RED, ACC, ACC-Turbo, Jaqen),
//! hunting through the `pulse:` workload knobs — period, duty,
//! amplitude, vector mix, spreading, ramp — for the attack that drops
//! the most *benign* traffic. Per defense it reports the evaluation
//! count, the worst attack found (as a one-line replayable spec), and
//! the damage it inflicted.
//!
//! The claim locked down by the golden: the search itself is a
//! deterministic function of the seed, and each defense's worst case —
//! attack shape and damage — stays put until the datapath actually
//! changes. The committed `tests/corpus/` files extend the same lock to
//! a whole frontier per defense (see `tests/attack_corpus.rs`).

use crate::common::Scale;
use crate::result::FigureResult;
use crate::spec::{DefenseSpec, ScenarioSpec, WorkloadSpec};
use crate::Figure;
use accturbo_adversary::{
    search, AttackGenome, Corpus, CorpusEntry, DamageMetrics, SearchConfig, SearchOutcome,
    SearchSpace,
};
use accturbo_netsim::ClassId;
use accturbo_telemetry::f;
use std::fmt::Write as _;

/// The canonical search seed.
pub const DEFAULT_SEED: u64 = 0xBAD_CA5E;

/// The defenses the frontier probes, by grammar name.
pub const FRONTIER_DEFENSES: &[&str] = &["fifo", "red", "acc", "accturbo", "jaqen"];

/// Replays `genome` against `defense` and measures the damage: the
/// objective is the benign drop fraction, with the drop percentages and
/// benign goodput carried along for the corpus record.
pub fn evaluate(
    defense: &DefenseSpec,
    genome: &AttackGenome,
    link_bps: u64,
    secs: u64,
    seed: u64,
) -> DamageMetrics {
    evaluate_workload(
        defense,
        &WorkloadSpec::Pulse(genome.to_config()),
        link_bps,
        secs,
        seed,
    )
}

/// [`evaluate`] for an already-parsed workload spec — the replay path:
/// a corpus line (`pulse:...`) plus the corpus header's frame must
/// reproduce the recorded metrics bit-exactly (`tests/attack_corpus.rs`).
pub fn evaluate_workload(
    defense: &DefenseSpec,
    workload: &WorkloadSpec,
    link_bps: u64,
    secs: u64,
    seed: u64,
) -> DamageMetrics {
    let spec = ScenarioSpec::new(workload.clone(), defense.clone())
        .with_link(link_bps)
        .with_secs(secs)
        .with_seed(seed);
    let outcome = spec.execute();
    let stats = &outcome.result.stats;
    let benign_drop_pct = stats.benign_drop_pct();
    let benign_mbps = (0..secs as usize)
        .map(|t| stats.throughput_bps(t, ClassId::BENIGN))
        .sum::<f64>()
        / secs.max(1) as f64
        / 1e6;
    DamageMetrics {
        damage: benign_drop_pct / 100.0,
        benign_drop_pct,
        attack_drop_pct: stats.attack_drop_pct(),
        benign_mbps,
    }
}

/// The scenario frame a search runs in: every candidate replays at the
/// same link, duration, and seed, so a corpus line plus these three
/// numbers reproduces the exact evaluation.
#[derive(Debug, Clone, Copy)]
pub struct SearchFrame {
    /// Bottleneck bandwidth, bits per second.
    pub link_bps: u64,
    /// Scenario length, seconds.
    pub secs: u64,
    /// Workload (and search) seed.
    pub seed: u64,
}

impl SearchFrame {
    /// The canonical frame: the pulse workload's default link, `secs`
    /// from the scale (quick = the corpus frame), the canonical seed.
    pub fn at(scale: Scale, seed: u64) -> Self {
        let workload = WorkloadSpec::Pulse(Default::default());
        SearchFrame {
            link_bps: workload.default_link_bps(),
            secs: match scale {
                Scale::Full => 20,
                Scale::Quick => 8,
            },
            seed,
        }
    }
}

/// Runs the adversarial search against one defense and freezes the
/// frontier into a [`Corpus`] whose entries are one-line `pulse:` specs.
pub fn run_search(
    defense: &DefenseSpec,
    frame: SearchFrame,
    budget: usize,
    jobs: usize,
    top: usize,
) -> (SearchOutcome, Corpus) {
    let space = SearchSpace::default();
    let cfg = SearchConfig::new(budget, frame.seed)
        .with_jobs(jobs)
        .with_corpus_size(top);
    let outcome = search(&space, &cfg, |g| {
        evaluate(defense, g, frame.link_bps, frame.secs, frame.seed)
    });
    let entries = outcome
        .frontier
        .iter()
        .map(|e| CorpusEntry {
            workload: WorkloadSpec::Pulse(e.genome.to_config()).to_string(),
            metrics: e.metrics,
        })
        .collect();
    let corpus = Corpus {
        defense: defense.to_string(),
        link_bps: frame.link_bps,
        secs: frame.secs,
        seed: frame.seed,
        budget,
        entries,
    };
    (outcome, corpus)
}

/// Regenerates the worst-case frontier at `seed`: one search per
/// defense, rendered as a CSV of each defense's worst attack.
pub fn figure(scale: Scale, seed: u64) -> Figure {
    let budget = match scale {
        Scale::Full => 48,
        Scale::Quick => 6,
    };
    let frame = SearchFrame::at(scale, seed);

    let mut out = String::new();
    let mut r = FigureResult::new("worstcase");
    let _ = writeln!(out, "# Worst-case frontier: adversarial search per defense");
    let _ = writeln!(
        out,
        "# budget={budget} secs={} link={} seed={seed}",
        frame.secs, frame.link_bps
    );
    let _ = writeln!(
        out,
        "defense,evals,best_damage,benign_drop_pct,attack_drop_pct,benign_mbps,workload"
    );

    let mut best_by_defense: Vec<(String, f64)> = Vec::new();
    for name in FRONTIER_DEFENSES {
        let defense: DefenseSpec = name.parse().expect("frontier defense names parse");
        let (outcome, corpus) = run_search(&defense, frame, budget, 1, 3);
        let best = outcome.best();
        let m = &best.metrics;
        let workload = &corpus.entries[0].workload;
        let _ = writeln!(
            out,
            "{name},{},{},{},{},{},{workload}",
            outcome.evaluated.len(),
            f(m.damage),
            f(m.benign_drop_pct),
            f(m.attack_drop_pct),
            f(m.benign_mbps),
        );
        // Damage rates carry the sweep's loose tolerance (trends, not
        // every digit — the rendered digest still pins exact text); the
        // found attack itself must match verbatim.
        r.num_tol(&format!("{name}.damage"), m.damage, 1e-6);
        r.num_tol(&format!("{name}.benign_drop_pct"), m.benign_drop_pct, 1e-6);
        r.num_tol(&format!("{name}.benign_mbps"), m.benign_mbps, 1e-6);
        r.int(&format!("{name}.evals"), outcome.evaluated.len() as i64);
        r.text(&format!("{name}.workload"), workload);
        best_by_defense.push((name.to_string(), m.damage));
    }

    let most_vulnerable = best_by_defense
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty frontier");
    let most_robust = best_by_defense
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty frontier");
    let _ = writeln!(out, "# Summary");
    let _ = writeln!(
        out,
        "most_vulnerable,{},{}",
        most_vulnerable.0,
        f(most_vulnerable.1)
    );
    let _ = writeln!(out, "most_robust,{},{}", most_robust.0, f(most_robust.1));
    r.text("summary.most_vulnerable", &most_vulnerable.0);
    r.text("summary.most_robust", &most_robust.0);
    Figure::new(out, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_is_deterministic_and_damage_is_a_fraction() {
        let defense: DefenseSpec = "fifo".parse().unwrap();
        let genome = AttackGenome {
            period_ms: 1000,
            duty_pct: 50,
            amp_mbps: 40,
            vectors: vec![accturbo_traffic::AttackVector::UdpFlood],
            spread: 1,
            ramp_ms: 0,
        };
        let a = evaluate(&defense, &genome, 10_000_000, 6, 7);
        let b = evaluate(&defense, &genome, 10_000_000, 6, 7);
        assert_eq!(a, b);
        assert!((0.0..=1.0).contains(&a.damage));
        assert!(a.benign_drop_pct > 0.0, "a 4x-link pulse must hurt fifo");
    }

    #[test]
    fn search_against_fifo_finds_a_replayable_worst_case() {
        let defense: DefenseSpec = "fifo".parse().unwrap();
        let frame = SearchFrame {
            link_bps: 10_000_000,
            secs: 6,
            seed: 11,
        };
        let (outcome, corpus) = run_search(&defense, frame, 6, 2, 3);
        assert_eq!(outcome.evaluated.len(), 6);
        assert!(!corpus.entries.is_empty());
        // Every corpus line must parse back through the workload
        // grammar and re-evaluate to the recorded damage, bit-exactly:
        // this is the replay contract `tests/attack_corpus.rs` enforces
        // for the committed corpus.
        for entry in &corpus.entries {
            let workload: WorkloadSpec = entry.workload.parse().unwrap();
            let WorkloadSpec::Pulse(cfg) = &workload else {
                panic!("corpus entries are pulse workloads");
            };
            let spec = ScenarioSpec::new(workload.clone(), defense.clone())
                .with_link(frame.link_bps)
                .with_secs(frame.secs)
                .with_seed(frame.seed);
            let stats = spec.execute().result.stats;
            assert_eq!(
                stats.benign_drop_pct(),
                entry.metrics.benign_drop_pct,
                "replay of {} diverged (cfg {cfg:?})",
                entry.workload
            );
        }
    }
}
