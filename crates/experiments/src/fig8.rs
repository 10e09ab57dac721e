//! Figure 8: threshold-configuration sensitivity (paper §7.2.3).
//!
//! Jaqen's simplest defense (the 5-tuple heavy hitter) depends on two
//! parameters: the packet-count threshold and the periodicity at which it
//! is checked (= the sketch inter-reset time). Both are swept over a
//! single-flow UDP flood on CAIDA-like background, against the FIFO and
//! ACC-Turbo horizontal lines.
//!
//! Expected shape: (a) low thresholds false-positive on benign flows
//! (worse than no defense), high thresholds never fire (FIFO-like), and
//! the sweet spot is narrow; (b) a threshold tuned for one reset period
//! performs badly at another — the low threshold degrades as the window
//! grows (benign counts accumulate), the high threshold only starts
//! working once the window is long enough for the attack to reach it.
//! ACC-Turbo has no threshold at all and sits flat.
//!
//! Axis note: packet counts scale with the 1/1000 rate scaling
//! (DESIGN.md §4); the paper's 10^4–10^7 packet thresholds correspond to
//! 10–10^4 here.

use crate::common::Scale;
use crate::result::FigureResult;
use crate::spec::{DefenseSpec, JaqenSpec, ScenarioSpec, WorkloadSpec};
use crate::table3::{cell, Defense, Variation};
use crate::Figure;
use accturbo_jaqen::Signature;
use accturbo_netsim::SimDuration;
use accturbo_telemetry::f;
use std::fmt::Write as _;

/// The canonical workload seed — Fig. 8 sweeps run on Table 3's
/// single-flow workload, so they share its seed.
pub const DEFAULT_SEED: u64 = crate::table3::DEFAULT_SEED;

/// Runs Jaqen(5-tuple) with `threshold` and `window` on the single-flow
/// workload, returning the benign-drop percentage.
pub fn jaqen_pct(threshold: u64, window: SimDuration, secs: u64, seed: u64) -> f64 {
    let spec = JaqenSpec::new(Signature::FiveTuple, threshold).with_window(window);
    ScenarioSpec::new(
        WorkloadSpec::Flood(Variation::SingleFlow),
        DefenseSpec::Jaqen(spec),
    )
    .with_secs(secs)
    .with_seed(seed)
    .execute()
    .result
    .stats
    .benign_drop_pct()
}

/// Regenerates Fig. 8 at `seed`, returning the rendered report and its
/// machine-readable result.
pub fn figure(scale: Scale, seed: u64) -> Figure {
    let secs = scale.secs(100, 5);
    let mut out = String::new();
    let mut r = FigureResult::new("fig8");

    let fifo = cell(Defense::Fifo, Variation::SingleFlow, secs, seed);
    let turbo = cell(Defense::AccTurbo, Variation::SingleFlow, secs, seed);
    r.num("fifo_benign_drop_pct", fifo);
    r.num("accturbo_benign_drop_pct", turbo);

    let _ = writeln!(
        &mut out,
        "# Fig. 8a: benign drops vs dropping threshold (packets/window)"
    );
    let _ = writeln!(&mut out, "threshold,jaqen,accturbo,fifo");
    let thresholds: &[u64] = match scale {
        Scale::Full => &[
            1, 10, 100, 500, 1_000, 3_000, 5_000, 7_000, 10_000, 100_000, 1_000_000,
        ],
        Scale::Quick => &[10, 1_000, 100_000],
    };
    for &th in thresholds {
        let pct = jaqen_pct(th, SimDuration::from_secs(1), secs, seed);
        r.num(&format!("a.th{th}.jaqen_benign_drop_pct"), pct);
        let _ = writeln!(&mut out, "{th},{},{},{}", f(pct), f(turbo), f(fifo));
    }

    let _ = writeln!(
        &mut out,
        "# Fig. 8b: benign drops vs sketch inter-reset time (s)"
    );
    let _ = writeln!(
        &mut out,
        "inter_reset_s,jaqen_th_low,jaqen_th_high,accturbo,fifo"
    );
    let (th_low, th_high) = (2_000u64, 100_000u64);
    let resets: &[u64] = match scale {
        Scale::Full => &[1, 2, 5, 10, 15, 20],
        Scale::Quick => &[1, 10],
    };
    for &rs in resets {
        let low = jaqen_pct(th_low, SimDuration::from_secs(rs), secs, seed);
        let high = jaqen_pct(th_high, SimDuration::from_secs(rs), secs, seed);
        r.num(&format!("b.reset{rs}.jaqen_th_low_pct"), low);
        r.num(&format!("b.reset{rs}.jaqen_th_high_pct"), high);
        let _ = writeln!(
            &mut out,
            "{rs},{},{},{},{}",
            f(low),
            f(high),
            f(turbo),
            f(fifo)
        );
    }
    Figure::new(out, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECS: u64 = 60;

    #[test]
    fn tiny_thresholds_false_positive_on_benign_flows() {
        // Threshold 10: every benign flow sustaining 10 pkts/s for two
        // windows gets a drop rule — heavy false positives even though
        // there is no congestion at all outside the attack.
        let pct = jaqen_pct(10, SimDuration::from_secs(1), SECS, DEFAULT_SEED);
        let tuned = jaqen_pct(2_000, SimDuration::from_secs(1), SECS, DEFAULT_SEED);
        assert!(
            pct > 3.0 * tuned && pct > 10.0,
            "threshold 10 dropped {pct:.1}% vs tuned {tuned:.1}%"
        );
    }

    #[test]
    fn huge_thresholds_never_fire() {
        // Threshold 1M/window: the attack (≈10.7k pps) never reaches it,
        // so Jaqen behaves like FIFO.
        let fifo = cell(Defense::Fifo, Variation::SingleFlow, SECS, DEFAULT_SEED);
        let pct = jaqen_pct(1_000_000, SimDuration::from_secs(1), SECS, DEFAULT_SEED);
        assert!(
            (pct - fifo).abs() < 5.0,
            "no detection should look like FIFO: {pct:.1} vs {fifo:.1}"
        );
    }

    #[test]
    fn a_tuned_threshold_wins_and_the_sweet_spot_is_narrow() {
        let tuned = jaqen_pct(2_000, SimDuration::from_secs(1), SECS, DEFAULT_SEED);
        assert!(tuned < 15.0, "tuned threshold: {tuned:.1}%");
        let low = jaqen_pct(10, SimDuration::from_secs(1), SECS, DEFAULT_SEED);
        let high = jaqen_pct(1_000_000, SimDuration::from_secs(1), SECS, DEFAULT_SEED);
        assert!(low > 3.0 * tuned, "low threshold must be much worse");
        assert!(high > tuned + 30.0, "high threshold must be much worse");
    }

    #[test]
    fn threshold_quality_depends_on_the_reset_period() {
        // The high threshold fails at 1 s windows but works at 15 s
        // windows (counts accumulate); crossing behaviour per Fig. 8b.
        let high_short = jaqen_pct(100_000, SimDuration::from_secs(1), SECS, DEFAULT_SEED);
        let high_long = jaqen_pct(100_000, SimDuration::from_secs(15), SECS, DEFAULT_SEED);
        assert!(
            high_long < high_short - 20.0,
            "long windows must rescue the high threshold: {high_short:.1} -> {high_long:.1}"
        );
    }

    #[test]
    fn accturbo_sits_below_any_mistuned_jaqen() {
        let turbo = cell(Defense::AccTurbo, Variation::SingleFlow, SECS, DEFAULT_SEED);
        let mistuned_low = jaqen_pct(10, SimDuration::from_secs(1), SECS, DEFAULT_SEED);
        let mistuned_high = jaqen_pct(1_000_000, SimDuration::from_secs(1), SECS, DEFAULT_SEED);
        assert!(turbo < mistuned_low && turbo < mistuned_high);
    }
}
