//! Figure 7: reaction-time evaluation (paper §7.2.2).
//!
//! A single-flow UDP flood on top of CAIDA-like background:
//!
//! * (a) FIFO — no defense, benign crushed for the attack's duration.
//! * (b) ACC-Turbo — the unoptimized controller polls every 1 s, so the
//!   attack is deprioritized within ≈1 s.
//! * (c) program-swap downtime — the ≈11.5 s of total traffic loss a
//!   Tofino incurs when swapping P4 programs (what Jaqen pays when the
//!   needed mitigation module is not loaded).
//! * (d) Jaqen with the mitigation pre-loaded — the threshold must be hit
//!   in two consecutive windows and the rule deployed: ≈10 s.
//!
//! Expected shape: ACC-Turbo reacts ≈10–11× faster than Jaqen's best and
//! worst cases respectively.

use crate::common::{push_throughput_summary, throughput_panel, Scale, LINK_10G_SCALED};
use crate::result::FigureResult;
use crate::spec::{
    AccTurboSpec, DefenseSpec, FeatureProfile, JaqenSpec, ScenarioSpec, WorkloadSpec,
};
use crate::Figure;
use accturbo_jaqen::Signature;
use accturbo_netsim::{ClassId, MergedSource, RunResult, SimDuration, SimTime};
use accturbo_telemetry::{benign_recovery_time, f};
use accturbo_traffic::workloads;
use std::fmt::Write as _;

/// The program-swap outage model (now a netsim building block).
pub use accturbo_netsim::ProgramSwapSwitch;

const LINK: u64 = LINK_10G_SCALED;
/// The canonical workload seed (the historical in-module constant).
pub const DEFAULT_SEED: u64 = 0x716;
/// Attack start (seconds).
pub const ATTACK_START_S: u64 = workloads::REACTION_ATTACK_START_S;

/// Builds the workload: background for the whole run, single-flow UDP
/// flood from t = 20 s to t = end − 20 s.
pub fn source(secs: u64, seed: u64) -> MergedSource {
    workloads::reaction_flood(secs, seed)
}

/// Runs the reaction-flood workload against `defense`.
fn run(defense: DefenseSpec, secs: u64, seed: u64) -> ScenarioSpec {
    ScenarioSpec::new(WorkloadSpec::Fig7, defense)
        .with_secs(secs)
        .with_seed(seed)
}

/// Runs the workload through FIFO.
pub fn fifo_run(secs: u64, seed: u64) -> RunResult {
    run(DefenseSpec::Fifo, secs, seed).execute().result
}

/// Runs the workload through ACC-Turbo with the paper's unoptimized 1 s
/// controller.
pub fn accturbo_run(secs: u64, seed: u64) -> RunResult {
    run(
        DefenseSpec::AccTurbo(AccTurboSpec::hardware(FeatureProfile::HwDstBytes)),
        secs,
        seed,
    )
    .with_period(SimDuration::from_secs(1))
    .execute()
    .result
}

/// Runs benign-only traffic through the program-swap model (the paper's
/// Fig. 7c swaps between two trivial programs with no attack).
pub fn swap_run(secs: u64, seed: u64) -> RunResult {
    ScenarioSpec::new(
        WorkloadSpec::Background,
        DefenseSpec::ProgramSwap {
            start: SimTime::from_secs(secs * 3 / 5),
            downtime: SimDuration::from_millis(11_500),
        },
    )
    .with_secs(secs)
    .with_seed(seed)
    .execute()
    .result
}

/// Runs the workload through the best-case Jaqen model: mitigation
/// pre-loaded, sketch read periodically, threshold optimized — reaction is
/// dominated by needing the threshold in two consecutive windows plus the
/// controller round (≈10 s in the paper).
pub fn jaqen_run(secs: u64, seed: u64) -> RunResult {
    let spec = JaqenSpec::new(Signature::FiveTuple, 2_000)
        .with_window(SimDuration::from_secs(4))
        .with_deploy_delay(SimDuration::from_millis(1_500));
    run(DefenseSpec::Jaqen(spec), secs, seed).execute().result
}

fn panel(out: &mut String, title: &str, res: &RunResult, secs: u64) {
    throughput_panel(out, title, res, secs);
}

/// Reaction time per the paper's definition (§7.2.2): the time from the
/// first attack packet until the defense *starts mitigating* — here, the
/// first second in which the attack's delivered throughput is suppressed
/// below 65% of the link despite offering 6× the link. An undefended
/// FIFO serves the attack its dominant proportional share (≈90% of the
/// link) and never qualifies.
pub fn reaction_secs(res: &RunResult) -> Option<f64> {
    (ATTACK_START_S as usize + 1..res.stats.num_buckets()).find_map(|t| {
        let offered: f64 = res.stats.arrival_bps(t, ClassId(1));
        if offered < 2.0 * LINK as f64 {
            return None; // attack over (or not yet ramped)
        }
        let delivered = res.stats.attack_throughput_bps(t);
        (delivered < 0.65 * LINK as f64).then(|| (t as u64 - ATTACK_START_S) as f64)
    })
}

/// Benign recovery time (to 80% of the pre-attack level), for reports.
pub fn benign_recovery_secs(res: &RunResult) -> Option<f64> {
    benign_recovery_time(&res.stats, SimTime::from_secs(ATTACK_START_S), 0.8)
        .map(|d| d.as_nanos() as f64 / 1e9)
}

/// Regenerates Fig. 7 at `seed`, returning the rendered report and its
/// machine-readable result.
pub fn figure(scale: Scale, seed: u64) -> Figure {
    let secs = scale.secs(100, 4);
    let mut out = String::new();
    let mut r = FigureResult::new("fig7");

    let fifo = fifo_run(secs, seed);
    panel(&mut out, "Fig. 7a: FIFO", &fifo, secs);
    push_throughput_summary(&mut r, "a", &fifo, secs);
    let turbo = accturbo_run(secs, seed);
    panel(&mut out, "Fig. 7b: ACC-Turbo", &turbo, secs);
    push_throughput_summary(&mut r, "b", &turbo, secs);
    let swap = swap_run(secs, seed);
    panel(&mut out, "Fig. 7c: Program swap downtime", &swap, secs);
    push_throughput_summary(&mut r, "c", &swap, secs);
    let jaqen = jaqen_run(secs, seed);
    panel(
        &mut out,
        "Fig. 7d: Jaqen (defense already deployed)",
        &jaqen,
        secs,
    );
    push_throughput_summary(&mut r, "d", &jaqen, secs);

    let _ = writeln!(&mut out, "# Summary");
    let show = |r: Option<f64>| {
        r.map(|x| format!("{x:.1}"))
            .unwrap_or_else(|| "never".into())
    };
    let turbo_r = reaction_secs(&turbo);
    let jaqen_r = reaction_secs(&jaqen);
    let _ = writeln!(&mut out, "reaction_s_accturbo,{}", show(turbo_r));
    let _ = writeln!(&mut out, "reaction_s_jaqen_best_case,{}", show(jaqen_r));
    let _ = writeln!(&mut out, "program_swap_downtime_s,11.5");
    r.text("summary.reaction_s_accturbo", &show(turbo_r));
    r.text("summary.reaction_s_jaqen_best_case", &show(jaqen_r));
    if let (Some(t), Some(j)) = (turbo_r, jaqen_r) {
        let _ = writeln!(&mut out, "speedup_vs_jaqen_best,{}", f(j / t.max(0.1)));
        let _ = writeln!(
            &mut out,
            "speedup_vs_jaqen_worst,{}",
            f((j + 11.5) / t.max(0.1))
        );
        r.num("summary.speedup_vs_jaqen_best", j / t.max(0.1));
        r.num("summary.speedup_vs_jaqen_worst", (j + 11.5) / t.max(0.1));
    }
    Figure::new(out, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_never_mitigates() {
        let res = fifo_run(60, DEFAULT_SEED);
        assert!(
            reaction_secs(&res).is_none(),
            "FIFO never suppresses the attack"
        );
        // Benign throughput only recovers when the attack itself ends.
        let r = benign_recovery_secs(&res).expect("recovers at attack end");
        assert!(r >= 18.0, "FIFO benign recovery {r}s ≈ the attack length");
    }

    #[test]
    fn accturbo_reacts_within_about_a_second() {
        let res = accturbo_run(60, DEFAULT_SEED);
        let r = reaction_secs(&res).expect("ACC-Turbo must recover");
        assert!(r <= 3.0, "ACC-Turbo reaction {r}s (paper: ≈1s)");
    }

    #[test]
    fn jaqen_takes_around_ten_seconds() {
        let res = jaqen_run(60, DEFAULT_SEED);
        let r = reaction_secs(&res).expect("Jaqen must eventually mitigate");
        assert!(
            (6.0..16.0).contains(&r),
            "Jaqen best-case reaction {r}s (paper: ≈10s)"
        );
    }

    #[test]
    fn accturbo_is_an_order_of_magnitude_faster() {
        let turbo = reaction_secs(&accturbo_run(60, DEFAULT_SEED)).expect("recovers");
        let jaqen = reaction_secs(&jaqen_run(60, DEFAULT_SEED)).expect("recovers");
        assert!(
            jaqen / turbo >= 4.0,
            "speedup only {:.1}x (paper: ≥10x; 1 s stat buckets floor ours)",
            jaqen / turbo
        );
    }

    #[test]
    fn program_swap_blackholes_for_11_5_seconds() {
        let res = swap_run(100, DEFAULT_SEED);
        // Throughput zero during the downtime window.
        for t in 61..71 {
            let total = res.stats.throughput_bps(t, ClassId::BENIGN);
            assert!(total < 1e5, "t={t}: throughput {total} during swap");
        }
        let before = res.stats.throughput_bps(55, ClassId::BENIGN);
        let after = res.stats.throughput_bps(75, ClassId::BENIGN);
        assert!(
            before > 1e6 && after > 1e6,
            "traffic flows outside the swap"
        );
    }
}
