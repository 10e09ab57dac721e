//! Figure 6: mitigation of a pulse-wave DDoS attack on the testbed (§7.1).
//!
//! CAIDA-like background traffic on a 10 G bottleneck (here rate-scaled to
//! 10 Mbps, DESIGN.md §4) plus four UDP-flood pulses of 10 s with 10 s
//! interleaves, each targeting a different IP of a common /24 and a
//! different port, peaking around 4× the bottleneck (the paper's
//! 40.789 Gbps). ACC-Turbo runs the §7.1 hardware profile: 4 clusters on
//! the last two destination-address bytes plus both ports, throughput
//! ranking, priorities updated at the controller's speed.
//!
//! Expected shape: under FIFO the pulses cut background throughput by
//! ≈61%; under ACC-Turbo the background recovers fully within ≈1 s of
//! each pulse.

use crate::common::{push_throughput_summary, throughput_panel, Scale};
use crate::result::FigureResult;
use crate::spec::{AccTurboSpec, DefenseSpec, FeatureProfile, ScenarioSpec, WorkloadSpec};
use crate::Figure;
use accturbo_netsim::{ClassId, MergedSource, RunResult};
use accturbo_telemetry::f;
use accturbo_traffic::workloads;
use std::fmt::Write as _;

/// The canonical workload seed (the historical in-module constant).
pub const DEFAULT_SEED: u64 = 0xF16;

/// Builds the Fig. 6 workload: background + 4 pulses (10 s on / 10 s off)
/// starting at t = 10 s.
pub fn source(secs: u64, seed: u64) -> MergedSource {
    workloads::fig6_pulses(secs, seed)
}

/// Runs the workload against `defense` on the scaled 10 G bottleneck.
fn run(defense: DefenseSpec, secs: u64, seed: u64) -> RunResult {
    ScenarioSpec::new(WorkloadSpec::Fig6, defense)
        .with_secs(secs)
        .with_seed(seed)
        .execute()
        .result
}

/// Runs the workload through FIFO.
pub fn fifo_run(secs: u64, seed: u64) -> RunResult {
    run(DefenseSpec::Fifo, secs, seed)
}

/// Runs the workload through the hardware-profile ACC-Turbo (the §7.1
/// feature set; the controller polls "at its maximum speed" — the
/// hardware profile's natural 50 ms).
pub fn accturbo_run(secs: u64, seed: u64) -> RunResult {
    run(
        DefenseSpec::AccTurbo(AccTurboSpec::hardware(FeatureProfile::HwFig6)),
        secs,
        seed,
    )
}

fn panel(out: &mut String, title: &str, res: &RunResult, secs: u64) {
    throughput_panel(out, title, res, secs);
}

/// Fraction of offered benign traffic *lost* during the pulse-active
/// seconds (1 − delivered/offered). This is the drop-based equivalent of
/// the paper's "throughput reduction": it compares against what benign
/// traffic actually offered, so background burstiness cancels out.
pub fn benign_loss_during_pulses(res: &RunResult, secs: u64) -> f64 {
    let (mut offered, mut delivered) = (0.0f64, 0.0f64);
    for pulse in 0..4u64 {
        let start = 10 + 20 * pulse;
        for t in start + 1..(start + 10).min(secs) {
            offered += res.stats.arrival_bps(t as usize, ClassId::BENIGN);
            delivered += res.stats.throughput_bps(t as usize, ClassId::BENIGN);
        }
    }
    if offered <= 0.0 {
        0.0
    } else {
        (1.0 - delivered / offered).max(0.0)
    }
}

/// Fraction of offered attack traffic lost during the pulse seconds.
pub fn attack_loss_during_pulses(res: &RunResult, secs: u64) -> f64 {
    let (mut offered, mut delivered) = (0.0f64, 0.0f64);
    for pulse in 0..4u64 {
        let start = 10 + 20 * pulse;
        for t in start + 1..(start + 10).min(secs) {
            let t = t as usize;
            offered += (1..=4)
                .map(|c| res.stats.arrival_bps(t, ClassId(c)))
                .sum::<f64>();
            delivered += res.stats.attack_throughput_bps(t);
        }
    }
    if offered <= 0.0 {
        0.0
    } else {
        (1.0 - delivered / offered).max(0.0)
    }
}

/// Regenerates Fig. 6 at `seed`, returning the rendered report and its
/// machine-readable result.
pub fn figure(scale: Scale, seed: u64) -> Figure {
    let secs = scale.secs(100, 4);
    let mut out = String::new();
    let mut r = FigureResult::new("fig6");
    let fifo = fifo_run(secs, seed);
    panel(&mut out, "Fig. 6a: FIFO", &fifo, secs);
    push_throughput_summary(&mut r, "a", &fifo, secs);
    let turbo = accturbo_run(secs, seed);
    panel(&mut out, "Fig. 6b: ACC-Turbo", &turbo, secs);
    push_throughput_summary(&mut r, "b", &turbo, secs);

    let _ = writeln!(&mut out, "# Summary");
    let fifo_loss = 100.0 * benign_loss_during_pulses(&fifo, secs);
    let turbo_loss = 100.0 * benign_loss_during_pulses(&turbo, secs);
    let attack_loss = 100.0 * attack_loss_during_pulses(&turbo, secs);
    let _ = writeln!(
        &mut out,
        "benign_loss_during_pulses_fifo_pct,{}",
        f(fifo_loss)
    );
    let _ = writeln!(
        &mut out,
        "benign_loss_during_pulses_accturbo_pct,{}",
        f(turbo_loss)
    );
    let _ = writeln!(
        &mut out,
        "attack_loss_during_pulses_accturbo_pct,{}",
        f(attack_loss)
    );
    r.num("summary.benign_loss_during_pulses_fifo_pct", fifo_loss);
    r.num("summary.benign_loss_during_pulses_accturbo_pct", turbo_loss);
    r.num(
        "summary.attack_loss_during_pulses_accturbo_pct",
        attack_loss,
    );
    Figure::new(out, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_pulses_crush_background() {
        // The pulses offer 4x the link on top of the background: under
        // FIFO, benign traffic loses roughly its proportional share (the
        // paper's testbed measured a 61% throughput reduction).
        let res = fifo_run(100, DEFAULT_SEED);
        let loss = benign_loss_during_pulses(&res, 100);
        assert!(
            (0.5..0.95).contains(&loss),
            "FIFO benign loss {loss:.2} (paper: ≈0.61 reduction)"
        );
    }

    #[test]
    fn accturbo_recovers_most_background() {
        // The paper's Fig. 6b narrates full recovery while its Table 3
        // measures ≈15% benign drops for the same profile; we hold
        // ACC-Turbo to that measured bound.
        let res = accturbo_run(100, DEFAULT_SEED);
        let loss = benign_loss_during_pulses(&res, 100);
        assert!(
            loss < 0.30,
            "ACC-Turbo benign loss {loss:.2} (paper's Table 3 measures ≈0.15-0.20 \
             for these attacks; see EXPERIMENTS.md on the 4-cluster capture floor)"
        );
    }

    #[test]
    fn accturbo_sheds_mostly_attack_traffic() {
        let res = accturbo_run(100, DEFAULT_SEED);
        let attack_loss = attack_loss_during_pulses(&res, 100);
        let benign_loss = benign_loss_during_pulses(&res, 100);
        assert!(
            attack_loss > 0.7,
            "attack must absorb the congestion: loss {attack_loss:.2}"
        );
        assert!(
            attack_loss > 3.0 * benign_loss,
            "attack loss {attack_loss:.2} vs benign loss {benign_loss:.2}"
        );
    }

    #[test]
    fn quiet_periods_are_transparent() {
        let fifo = fifo_run(30, DEFAULT_SEED);
        let turbo = accturbo_run(30, DEFAULT_SEED);
        // Before the first pulse both schemes deliver the same background.
        for t in 3..9 {
            let a = fifo.stats.throughput_bps(t, ClassId::BENIGN);
            let b = turbo.stats.throughput_bps(t, ClassId::BENIGN);
            assert!(
                (a - b).abs() / a.max(1.0) < 0.05,
                "t={t}: fifo {a:.0} vs accturbo {b:.0}"
            );
        }
    }
}
