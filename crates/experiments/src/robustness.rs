//! Robustness sweep: ACC-Turbo under substrate faults (DESIGN.md §9).
//!
//! Not a paper figure — a degradation report for the fault-injection
//! layer. The Fig. 2 workload (four benign CBR aggregates plus the
//! ramping attack) runs against ACC-Turbo while a seeded
//! [`FaultSchedule`](accturbo_netsim::FaultSchedule) perturbs the
//! substrate: control ticks are dropped or delayed, cluster snapshots go
//! stale, packets are corrupt-dropped or reordered, and the output link
//! flaps. The sweep crosses fault intensity with the control-plane
//! polling period and reports, per cell, the benign goodput retained
//! relative to the fault-free baseline at the same period, alongside
//! every injection and degradation counter.
//!
//! The claim locked down by the golden: degradation is *graceful* —
//! benign goodput decays boundedly with intensity, the
//! bounded-staleness policy falls back instead of panicking, and the
//! whole sweep is a deterministic function of the seed.

use crate::common::Scale;
use crate::result::FigureResult;
use crate::spec::{DefenseSpec, ScenarioSpec, WorkloadSpec};
use crate::Figure;
use accturbo_netsim::{ClassId, FaultConfig, FaultStats, RunResult, SimDuration};
use accturbo_telemetry::f;
use accturbo_traffic::scenarios;
use std::fmt::Write as _;

/// The canonical workload/fault seed.
pub const DEFAULT_SEED: u64 = 0xFA17;

/// Every fault knob the `--faults` flag can set, in report order.
pub const FAULT_KINDS: &[&str] = &[
    "ctrl_drop",
    "ctrl_delay",
    "stale",
    "pkt_drop",
    "pkt_reorder",
    "link_flap",
];

/// Builds a [`FaultConfig`] from `(kind, intensity)` pairs using the
/// [`FAULT_KINDS`] names. Panics on an unknown kind — `cli::parse`
/// validates user input before it gets here.
pub fn config_from_mix(mix: &[(String, f64)], seed: u64) -> FaultConfig {
    let mut cfg = FaultConfig::none(seed);
    for (kind, v) in mix {
        match kind.as_str() {
            "ctrl_drop" => cfg.ctrl_drop = *v,
            "ctrl_delay" => cfg.ctrl_delay = *v,
            "stale" => cfg.stale_snapshot = *v,
            "pkt_drop" => cfg.pkt_drop = *v,
            "pkt_reorder" => cfg.pkt_reorder = *v,
            "link_flap" => cfg.link_flap = *v,
            other => panic!("unknown fault kind `{other}` (cli::parse validates first)"),
        }
    }
    cfg
}

/// One sweep cell's outcome.
struct Cell {
    res: RunResult,
    faults: FaultStats,
    missed_ticks: u64,
    stale_ticks: u64,
    fallbacks: u64,
}

/// Runs the Fig. 2 workload against ACC-Turbo at `period`, faulted by
/// `fc` (or fault-free when `None` — the per-period baseline).
fn run_cell(fc: Option<FaultConfig>, period: SimDuration, secs: u64, seed: u64) -> Cell {
    let mut spec = ScenarioSpec::new(WorkloadSpec::Fig2, DefenseSpec::accturbo())
        .with_secs(secs)
        .with_seed(seed)
        .with_period(period);
    if let Some(fc) = fc {
        spec = spec.with_faults(fc);
    }
    let outcome = spec.execute();
    Cell {
        res: outcome.result,
        faults: outcome.fault_stats.unwrap_or_default(),
        missed_ticks: outcome.missed_ticks,
        stale_ticks: outcome.stale_ticks,
        fallbacks: outcome.fallbacks,
    }
}

/// Mean delivered rate of the four benign aggregates, in sim Mbps.
fn benign_mbps(res: &RunResult, secs: u64) -> f64 {
    let n = secs.max(1) as f64;
    (0..secs as usize)
        .map(|t| {
            (1..=4)
                .map(|c| res.stats.throughput_bps(t, ClassId(c)))
                .sum::<f64>()
        })
        .sum::<f64>()
        / n
        / 1e6
}

/// Mean delivered rate of the attack aggregate, in sim Mbps.
fn attack_mbps(res: &RunResult, secs: u64) -> f64 {
    let n = secs.max(1) as f64;
    (0..secs as usize)
        .map(|t| res.stats.throughput_bps(t, ClassId(5)))
        .sum::<f64>()
        / n
        / 1e6
}

const CSV_HEADER: &str = "period_ms,intensity,benign_mbps,attack_mbps,retention,\
                          ctrl_dropped,ctrl_delayed,stale_served,pkt_dropped,pkt_reordered,\
                          flap_windows,missed_ticks,fallbacks";

/// Emits one sweep row into the report and the result. `baseline` is
/// the fault-free benign goodput at the same period; returns this
/// cell's retention relative to it.
#[allow(clippy::too_many_arguments)]
fn emit_cell(
    out: &mut String,
    r: &mut FigureResult,
    key: &str,
    period_ms: u64,
    intensity: f64,
    cell: &Cell,
    secs: u64,
    baseline: f64,
) -> f64 {
    let benign = benign_mbps(&cell.res, secs);
    let attack = attack_mbps(&cell.res, secs);
    let retention = benign / baseline.max(1e-9);
    let _ = writeln!(
        out,
        "{period_ms},{},{},{},{},{},{},{},{},{},{},{},{}",
        f(intensity),
        f(benign),
        f(attack),
        f(retention),
        cell.faults.ctrl_dropped,
        cell.faults.ctrl_delayed,
        cell.faults.stale_served,
        cell.faults.pkt_dropped,
        cell.faults.pkt_reordered,
        cell.faults.flap_windows,
        cell.missed_ticks,
        cell.fallbacks,
    );
    // Rates carry a loose tolerance (the sweep pins trends, not every
    // float digit — the rendered_fnv digest still backstops the exact
    // text); injection counters are exact integers.
    r.num_tol(&format!("{key}.benign_mbps"), benign, 1e-6);
    r.num_tol(&format!("{key}.retention"), retention, 1e-6);
    r.int(
        &format!("{key}.ctrl_dropped"),
        cell.faults.ctrl_dropped as i64,
    );
    r.int(
        &format!("{key}.ctrl_delayed"),
        cell.faults.ctrl_delayed as i64,
    );
    r.int(
        &format!("{key}.stale_served"),
        cell.faults.stale_served as i64,
    );
    r.int(
        &format!("{key}.pkt_dropped"),
        cell.faults.pkt_dropped as i64,
    );
    r.int(&format!("{key}.missed_ticks"), cell.missed_ticks as i64);
    r.int(&format!("{key}.stale_ticks"), cell.stale_ticks as i64);
    r.int(&format!("{key}.fallbacks"), cell.fallbacks as i64);
    retention
}

/// Regenerates the robustness sweep at `seed`, returning the rendered
/// degradation report and its machine-readable result.
pub fn figure(scale: Scale, seed: u64) -> Figure {
    let secs = scale.secs(scenarios::RUN_SECS, 2);
    let (periods_ms, intensities): (&[u64], &[f64]) = match scale {
        Scale::Full => (&[100, 250, 1000], &[0.0, 0.25, 0.5, 0.75, 1.0]),
        Scale::Quick => (&[250], &[0.0, 0.5, 1.0]),
    };

    let mut out = String::new();
    let mut r = FigureResult::new("robustness");
    let _ = writeln!(out, "# Robustness sweep: fault intensity x control period");
    let _ = writeln!(out, "{CSV_HEADER}");

    let mut worst_retention = f64::INFINITY;
    for &period_ms in periods_ms {
        let period = SimDuration::from_millis(period_ms);
        let mut baseline = 0.0;
        for &intensity in intensities {
            let fc = (intensity > 0.0).then(|| FaultConfig::uniform(intensity, seed));
            let cell = run_cell(fc, period, secs, seed);
            if intensity == 0.0 {
                baseline = benign_mbps(&cell.res, secs);
            }
            let key = format!("p{period_ms}ms.i{:03}", (intensity * 100.0).round() as u32);
            let ret = emit_cell(
                &mut out, &mut r, &key, period_ms, intensity, &cell, secs, baseline,
            );
            if intensity > 0.0 {
                worst_retention = worst_retention.min(ret);
            }
        }
    }
    let _ = writeln!(out, "# Summary");
    let _ = writeln!(out, "worst_retention,{}", f(worst_retention));
    r.num_tol("summary.worst_retention", worst_retention, 1e-6);
    Figure::new(out, r)
}

/// Runs the robustness scenario under a custom fault mix (the `--faults`
/// flag): the fault-free baseline plus the mix, at the canonical 250 ms
/// control period.
pub fn figure_with(scale: Scale, seed: u64, mix: &[(String, f64)]) -> Figure {
    let secs = scale.secs(scenarios::RUN_SECS, 2);
    let period = SimDuration::from_millis(250);

    let mut out = String::new();
    let mut r = FigureResult::new("robustness");
    let _ = writeln!(
        out,
        "# Robustness: custom fault mix at 250 ms control period"
    );
    for (kind, v) in mix {
        let _ = writeln!(out, "# fault {kind} = {}", f(*v));
    }
    let _ = writeln!(out, "{CSV_HEADER}");

    let base = run_cell(None, period, secs, seed);
    let baseline = benign_mbps(&base.res, secs);
    emit_cell(
        &mut out, &mut r, "baseline", 250, 0.0, &base, secs, baseline,
    );

    let faulted = run_cell(Some(config_from_mix(mix, seed)), period, secs, seed);
    emit_cell(
        &mut out, &mut r, "faulted", 250, 1.0, &faulted, secs, baseline,
    );
    Figure::new(out, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_is_bounded_up_to_max_intensity() {
        // The acceptance bar: at full fault intensity the defense may
        // lose throughput but must neither collapse nor panic.
        let secs = Scale::Quick.secs(scenarios::RUN_SECS, 2);
        let period = SimDuration::from_millis(250);
        let base = run_cell(None, period, secs, DEFAULT_SEED);
        let full = run_cell(
            Some(FaultConfig::uniform(1.0, DEFAULT_SEED)),
            period,
            secs,
            DEFAULT_SEED,
        );
        let baseline = benign_mbps(&base.res, secs);
        let retained = benign_mbps(&full.res, secs);
        assert!(baseline > 0.0);
        let retention = retained / baseline;
        assert!(
            retention > 0.2,
            "benign goodput collapsed at max intensity: {retention:.3}"
        );
        assert!(retention <= 1.05, "faults cannot create goodput");
        // At intensity 1.0 every fault class must actually fire, and the
        // degradation policy must have made decisions.
        assert!(full.faults.ctrl_dropped > 0);
        assert!(full.faults.pkt_dropped > 0);
        assert!(full.missed_ticks > 0);
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let a = figure(Scale::Quick, 42);
        let b = figure(Scale::Quick, 42);
        assert_eq!(a.rendered, b.rendered);
        assert_eq!(a.result.to_golden(), b.result.to_golden());
        let c = figure(Scale::Quick, 43);
        assert_ne!(
            a.result.to_golden(),
            c.result.to_golden(),
            "different seeds must produce different sweeps"
        );
    }

    #[test]
    fn custom_mix_matches_the_named_knobs() {
        let mix = vec![
            ("ctrl_drop".to_string(), 0.7),
            ("link_flap".to_string(), 0.3),
        ];
        let cfg = config_from_mix(&mix, 9);
        assert_eq!(cfg.ctrl_drop, 0.7);
        assert_eq!(cfg.link_flap, 0.3);
        assert_eq!(cfg.pkt_drop, 0.0);
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    #[should_panic(expected = "unknown fault kind")]
    fn unknown_mix_kind_panics() {
        let _ = config_from_mix(&[("frobnicate".to_string(), 0.5)], 1);
    }
}
