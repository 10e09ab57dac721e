//! Figure 3: performance under a morphing pulse-wave attack (paper §2.2).
//!
//! Four CBR aggregates at ≈ the link capacity plus a pulse-wave attack:
//! four 5-second pulses starting at 5/15/25/35 s, each a *different*
//! vector (NTP → DNS → SNMP → NetBIOS) on a *different* target /24.
//! Regenerated panels:
//!
//! * (a) FIFO and (c) ACC and (d) ACC-Turbo — bandwidth-share series.
//! * (b) speed vs. accuracy — % benign drops as the ACC monitoring window
//!   K shrinks from 2 s to 10 ms, against the FIFO and ACC-Turbo
//!   horizontal lines.
//!
//! Expected shape (paper): ACC misses at least the early pulses for any
//! K, bottoming out near 20% benign drops; ACC-Turbo defends all pulses.

use crate::common::{push_share_summary, share_panel, Scale, LINK_10G_SCALED};
use crate::result::FigureResult;
use crate::spec::{DefenseSpec, ScenarioSpec, WorkloadSpec};
use crate::Figure;
use accturbo_netsim::{ClassId, RunResult, SimDuration};
use accturbo_telemetry::f;
use accturbo_traffic::scenarios;
use std::fmt::Write as _;

const LINK: u64 = LINK_10G_SCALED;
/// The canonical workload seed (the historical in-module constant).
pub const DEFAULT_SEED: u64 = 33;

/// % of packets of the benign aggregates (classes 1-4) dropped.
pub fn benign_pct(res: &RunResult) -> f64 {
    let classes: Vec<ClassId> = (1..=4).map(ClassId).collect();
    res.stats.drop_pct_of(&classes)
}

/// Runs the Fig. 3 workload against `defense` at its natural period.
fn run(defense: DefenseSpec, secs: u64, seed: u64) -> RunResult {
    ScenarioSpec::new(WorkloadSpec::Fig3, defense)
        .with_secs(secs)
        .with_seed(seed)
        .execute()
        .result
}

/// Runs the Fig. 3 workload through FIFO.
pub fn fifo_run(secs: u64, seed: u64) -> RunResult {
    run(DefenseSpec::Fifo, secs, seed)
}

/// Runs the Fig. 3 workload through classic ACC with monitoring window `k`.
pub fn acc_run(k: SimDuration, secs: u64, seed: u64) -> RunResult {
    run(DefenseSpec::Acc { k }, secs, seed)
}

/// Runs the Fig. 3 workload through ACC-Turbo.
pub fn accturbo_run(secs: u64, seed: u64) -> RunResult {
    run(DefenseSpec::accturbo(), secs, seed)
}

fn panel(out: &mut String, title: &str, res: &RunResult, secs: u64) {
    share_panel(out, title, res, LINK, secs, false);
}

/// Regenerates Fig. 3 at `seed`, returning the rendered report and its
/// machine-readable result.
pub fn figure(scale: Scale, seed: u64) -> Figure {
    let secs = scale.secs(scenarios::RUN_SECS, 2);
    let mut out = String::new();
    let mut r = FigureResult::new("fig3");
    let classes: Vec<ClassId> = (1..=5).map(ClassId).collect();

    let fifo = fifo_run(secs, seed);
    panel(&mut out, "Fig. 3a: No ACC (FIFO)", &fifo, secs);
    push_share_summary(&mut r, "a", &fifo, LINK, &classes, secs);

    // (b) speed vs. accuracy: % benign drops vs K.
    let _ = writeln!(
        &mut out,
        "# Fig. 3b: Speed vs. accuracy (% benign drops vs K)"
    );
    let _ = writeln!(&mut out, "K_s,acc,accturbo,fifo");
    let fifo_pct = benign_pct(&fifo);
    let turbo = accturbo_run(secs, seed);
    let turbo_pct = benign_pct(&turbo);
    let ks: &[f64] = match scale {
        Scale::Full => &[0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0],
        Scale::Quick => &[0.1, 1.0],
    };
    for &k in ks {
        let res = acc_run(SimDuration::from_secs_f64(k), secs, seed);
        r.num(&format!("b.k{k}.acc_benign_drop_pct"), benign_pct(&res));
        let _ = writeln!(
            &mut out,
            "{k},{},{},{}",
            f(benign_pct(&res)),
            f(turbo_pct),
            f(fifo_pct),
        );
    }

    let acc = acc_run(SimDuration::from_secs(2), secs, seed);
    panel(&mut out, "Fig. 3c: ACC (K=2s)", &acc, secs);
    push_share_summary(&mut r, "c", &acc, LINK, &classes, secs);
    panel(&mut out, "Fig. 3d: ACC-Turbo", &turbo, secs);
    push_share_summary(&mut r, "d", &turbo, LINK, &classes, secs);

    let _ = writeln!(&mut out, "# Summary");
    let _ = writeln!(&mut out, "benign_drop_pct_fifo,{}", f(fifo_pct));
    let _ = writeln!(&mut out, "benign_drop_pct_acc_k2,{}", f(benign_pct(&acc)));
    let _ = writeln!(&mut out, "benign_drop_pct_accturbo,{}", f(turbo_pct));
    r.num("summary.benign_drop_pct_fifo", fifo_pct);
    r.num("summary.benign_drop_pct_acc_k2", benign_pct(&acc));
    r.num("summary.benign_drop_pct_accturbo", turbo_pct);
    Figure::new(out, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_suffers_during_every_pulse() {
        let res = fifo_run(scenarios::RUN_SECS, DEFAULT_SEED);
        for pulse_start in [5usize, 15, 25, 35] {
            let benign: f64 = (1..=4)
                .map(|c| res.stats.throughput_bps(pulse_start + 2, ClassId(c)))
                .sum();
            assert!(
                benign < 0.6 * LINK as f64,
                "pulse at {pulse_start}s should crush benign traffic ({benign:.0})"
            );
        }
    }

    #[test]
    fn accturbo_beats_acc_on_benign_drops() {
        let secs = scenarios::RUN_SECS;
        let acc = acc_run(SimDuration::from_secs(2), secs, DEFAULT_SEED);
        let turbo = accturbo_run(secs, DEFAULT_SEED);
        let fifo = fifo_run(secs, DEFAULT_SEED);
        let acc_pct = benign_pct(&acc);
        let turbo_pct = benign_pct(&turbo);
        let fifo_pct = benign_pct(&fifo);
        assert!(
            turbo_pct < acc_pct,
            "ACC-Turbo ({turbo_pct:.1}%) must beat ACC ({acc_pct:.1}%)"
        );
        assert!(
            acc_pct <= fifo_pct + 1.0,
            "ACC ({acc_pct:.1}%) must not be worse than FIFO ({fifo_pct:.1}%)"
        );
        assert!(
            turbo_pct < 10.0,
            "ACC-Turbo drops too much: {turbo_pct:.1}%"
        );
    }

    #[test]
    fn acc_suffers_at_the_start_of_every_pulse() {
        // Classic ACC must re-run its threshold + inference loop for each
        // pulse (new vector, new target), losing the pulse's first
        // seconds every time.
        let res = acc_run(SimDuration::from_secs(2), scenarios::RUN_SECS, DEFAULT_SEED);
        for pulse_start in [5usize, 15, 25, 35] {
            let benign: f64 = (1..=4)
                .map(|c| res.stats.throughput_bps(pulse_start, ClassId(c)))
                .sum();
            assert!(
                benign < 0.8 * LINK as f64,
                "pulse at {pulse_start}s should bite before ACC re-activates ({benign:.0})"
            );
        }
    }

    #[test]
    fn accturbo_defends_later_pulses_fully() {
        let res = accturbo_run(scenarios::RUN_SECS, DEFAULT_SEED);
        // By the third and fourth pulses the defense is warm: benign
        // keeps ≥90% of its demand.
        for pulse_start in [25usize, 35] {
            let benign: f64 = (1..=4)
                .map(|c| res.stats.throughput_bps(pulse_start + 3, ClassId(c)))
                .sum();
            assert!(
                benign > 0.85 * LINK as f64,
                "pulse at {pulse_start}s: benign {benign:.0}"
            );
        }
    }
}
