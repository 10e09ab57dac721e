//! Ablations of the design decisions this reproduction had to concretize
//! (DESIGN.md §4), each run on the Fig. 6 pulse-wave scenario and scored
//! by benign loss during the pulses:
//!
//! * cluster initialization: Alg-1 anchors vs. seed-from-traffic;
//! * representative choice at re-seeding: range midpoint vs. last packet;
//! * the resubmission-modeled growth budget;
//! * the control-plane period (the paper's reaction-time knob);
//! * nominal-set storage: exact sets vs. hardware bloom filters.

use crate::common::Scale;
use crate::fig6;
use crate::result::FigureResult;
use crate::spec::{AccTurboSpec, DefenseSpec, FeatureProfile, ScenarioSpec, WorkloadSpec};
use crate::Figure;
use accturbo_clustering::{InitMode, RepMode};
use accturbo_netsim::SimDuration;
use accturbo_telemetry::{f, Table};
use std::fmt::Write as _;

/// The canonical workload seed — ablations run on Fig. 6's workload, so
/// they share its seed.
pub const DEFAULT_SEED: u64 = fig6::DEFAULT_SEED;

/// The baseline every ablation perturbs: Fig. 6's hardware profile.
fn base() -> AccTurboSpec {
    AccTurboSpec::hardware(FeatureProfile::HwFig6)
}

/// Runs the Fig. 6 workload through `defense` at `period_ms` and returns
/// the benign loss during pulses.
fn pulse_loss(defense: DefenseSpec, period_ms: u64, secs: u64, seed: u64) -> f64 {
    let res = ScenarioSpec::new(WorkloadSpec::Fig6, defense)
        .with_secs(secs)
        .with_seed(seed)
        .with_period(SimDuration::from_millis(period_ms))
        .execute()
        .result;
    fig6::benign_loss_during_pulses(&res, secs)
}

/// Runs the Fig. 6 workload through a customized hardware-profile switch
/// and returns the benign loss during pulses.
fn benign_loss(spec: AccTurboSpec, period_ms: u64, secs: u64, seed: u64) -> f64 {
    pulse_loss(DefenseSpec::AccTurbo(spec), period_ms, secs, seed)
}

/// Benign pulse-loss for the two initialization modes.
pub fn init_mode_ablation(secs: u64, seed: u64) -> (f64, f64) {
    let anchors = benign_loss(base(), 50, secs, seed);
    let from_traffic = benign_loss(base().with_init(InitMode::FromTraffic), 50, secs, seed);
    (anchors, from_traffic)
}

/// Benign pulse-loss for the two representative modes.
pub fn rep_mode_ablation(secs: u64, seed: u64) -> (f64, f64) {
    let midpoint = benign_loss(base().with_rep(RepMode::RangeMidpoint), 50, secs, seed);
    let last_packet = benign_loss(base().with_rep(RepMode::LastPacket), 50, secs, seed);
    (midpoint, last_packet)
}

/// Benign pulse-loss per growth budget (`None` = unlimited).
pub fn budget_ablation(budget: Option<u64>, secs: u64, seed: u64) -> f64 {
    benign_loss(base().with_budget(budget), 50, secs, seed)
}

/// Benign pulse-loss per control-plane period.
pub fn period_ablation(period_ms: u64, secs: u64, seed: u64) -> f64 {
    benign_loss(base(), period_ms, secs, seed)
}

/// Benign pulse-loss with the per-packet SP-PIFO rank scheduler instead
/// of the control-plane cluster→queue mapping (§5.1's other design point).
pub fn ranked_scheduler_ablation(secs: u64, seed: u64) -> (f64, f64) {
    let bank = benign_loss(base(), 50, secs, seed);
    let ranked = pulse_loss(DefenseSpec::RankedAccTurbo(base()), 50, secs, seed);
    (bank, ranked)
}

/// Benign pulse-loss with bloom-filter nominal sets of the given size
/// (`None` = exact sets).
pub fn nominal_ablation(bloom_bits: Option<u64>, secs: u64, seed: u64) -> f64 {
    let spec = match bloom_bits {
        Some(bits) => base().with_bloom(bits),
        None => base(),
    };
    benign_loss(spec, 50, secs, seed)
}

/// Regenerates the ablation report at `seed`, returning the rendered
/// report and its machine-readable result.
pub fn figure(scale: Scale, seed: u64) -> Figure {
    let secs = scale.secs(100, 4);
    let mut out = String::new();
    let mut r = FigureResult::new("ablations");

    let mut t = Table::new(&["Ablation", "variant", "benign loss during pulses (%)"]);
    let (anchors, seeded) = init_mode_ablation(secs, seed);
    t.row(vec![
        "init".into(),
        "anchors (Alg. 1)".into(),
        f(100.0 * anchors),
    ]);
    t.row(vec![
        "init".into(),
        "seed-from-traffic".into(),
        f(100.0 * seeded),
    ]);
    r.num("init.anchors.benign_loss_pct", 100.0 * anchors);
    r.num("init.from_traffic.benign_loss_pct", 100.0 * seeded);
    let (midpoint, last) = rep_mode_ablation(secs, seed);
    t.row(vec![
        "representative".into(),
        "range midpoint".into(),
        f(100.0 * midpoint),
    ]);
    t.row(vec![
        "representative".into(),
        "last packet".into(),
        f(100.0 * last),
    ]);
    r.num("rep.midpoint.benign_loss_pct", 100.0 * midpoint);
    r.num("rep.last_packet.benign_loss_pct", 100.0 * last);
    for budget in [Some(64), Some(256), Some(4096), None] {
        let label = budget
            .map(|b| b.to_string())
            .unwrap_or_else(|| "unlimited".into());
        let loss = 100.0 * budget_ablation(budget, secs, seed);
        r.num(&format!("budget.{label}.benign_loss_pct"), loss);
        t.row(vec!["growth budget".into(), label, f(loss)]);
    }
    for period in [50u64, 250, 1000] {
        let loss = 100.0 * period_ablation(period, secs, seed);
        r.num(&format!("period.{period}ms.benign_loss_pct"), loss);
        t.row(vec![
            "control period".into(),
            format!("{period} ms"),
            f(loss),
        ]);
    }
    let (bank, ranked) = ranked_scheduler_ablation(secs, seed);
    t.row(vec![
        "scheduler".into(),
        "cluster→queue bank".into(),
        f(100.0 * bank),
    ]);
    t.row(vec![
        "scheduler".into(),
        "per-packet SP-PIFO".into(),
        f(100.0 * ranked),
    ]);
    r.num("scheduler.bank.benign_loss_pct", 100.0 * bank);
    r.num("scheduler.sp_pifo.benign_loss_pct", 100.0 * ranked);
    let exact = 100.0 * nominal_ablation(None, secs, seed);
    r.num("nominal.exact.benign_loss_pct", exact);
    t.row(vec!["nominal sets".into(), "exact".into(), f(exact)]);
    for bits in [64u64, 1024] {
        let loss = 100.0 * nominal_ablation(Some(bits), secs, seed);
        r.num(&format!("nominal.bloom{bits}b.benign_loss_pct"), loss);
        t.row(vec![
            "nominal sets".into(),
            format!("bloom {bits}b"),
            f(loss),
        ]);
    }
    let _ = write!(&mut out, "{}", t.render());
    Figure::new(out, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECS: u64 = 60;

    #[test]
    fn unlimited_growth_is_worse_under_midpoint_reps() {
        // The growth budget and the representative mode interact:
        // last-packet re-seeding alone stops the within-window snowball,
        // but under midpoint re-seeding (where the seed inherits the
        // grown range's center) the budget is load-bearing.
        let loss = |budget: Option<u64>| {
            benign_loss(
                base().with_rep(RepMode::RangeMidpoint).with_budget(budget),
                50,
                SECS,
                DEFAULT_SEED,
            )
        };
        let budgeted = loss(Some(256));
        let unlimited = loss(None);
        assert!(
            unlimited > budgeted,
            "unlimited growth ({unlimited:.2}) must lose to the budget ({budgeted:.2})"
        );
    }

    #[test]
    fn very_slow_control_planes_protect_less() {
        // Sub-second periods are statistically indistinguishable on this
        // workload; a controller slower than half a pulse is not.
        let fast = period_ablation(50, SECS, DEFAULT_SEED);
        let glacial = period_ablation(5_000, SECS, DEFAULT_SEED);
        assert!(
            glacial > fast,
            "a 5 s controller ({glacial:.2}) must lose to a 50 ms one ({fast:.2})"
        );
    }

    #[test]
    fn tiny_bloom_filters_saturate_and_hurt() {
        // A saturated admission list makes every port look already
        // admitted, erasing the nominal features.
        let exact = nominal_ablation(None, SECS, DEFAULT_SEED);
        let tiny = nominal_ablation(Some(64), SECS, DEFAULT_SEED);
        assert!(
            tiny >= exact - 0.03,
            "64-bit blooms ({tiny:.2}) should not beat exact sets ({exact:.2})"
        );
    }

    #[test]
    fn both_scheduler_architectures_defend() {
        let (bank, ranked) = ranked_scheduler_ablation(SECS, DEFAULT_SEED);
        assert!(bank < 0.35, "bank loss {bank:.2}");
        assert!(ranked < 0.35, "ranked loss {ranked:.2}");
    }

    #[test]
    fn all_ablation_axes_run() {
        let (a, b) = init_mode_ablation(30, DEFAULT_SEED);
        let (c, d) = rep_mode_ablation(30, DEFAULT_SEED);
        for v in [a, b, c, d] {
            assert!((0.0..=1.0).contains(&v), "loss fraction out of range: {v}");
        }
    }
}
