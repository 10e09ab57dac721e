//! Figure 2: the original ACC experiment (paper §2.1).
//!
//! Five aggregates over a bottleneck: 1–4 CBR, 5 a variable-rate attack
//! ramping up at t = 13 s and down at t = 25 s. Regenerated panels:
//!
//! * (a) FIFO — the attack captures the link.
//! * (b) ACC (K = 2 s) — the attack is inferred and rate-limited within a
//!   few seconds.
//! * (c) the impact of K — mitigation-deploy time per monitoring window.
//! * (d) ACC-Turbo — mitigation within one control period.
//!
//! Each panel prints a CSV of per-second link-bandwidth shares for the
//! five aggregates plus the total, and the drop-rate series.

use crate::common::{delay_text, push_share_summary, share_panel, Scale, LINK_10G_SCALED};
use crate::result::FigureResult;
use crate::spec::{DefenseSpec, ScenarioSpec, WorkloadSpec};
use crate::Figure;
use accturbo_netsim::{run_streamed, ClassId, EngineConfig, RunResult, SimDuration};
use accturbo_traffic::scenarios;
use std::fmt::Write as _;

const LINK: u64 = LINK_10G_SCALED;
/// The canonical workload seed (the historical in-module constant).
pub const DEFAULT_SEED: u64 = 2022;

/// Runs the Fig. 2 workload against `defense` (the module's scenario
/// template: 10 Mbps scaled bottleneck, natural control period).
fn run(defense: DefenseSpec, secs: u64, seed: u64) -> RunResult {
    ScenarioSpec::new(WorkloadSpec::Fig2, defense)
        .with_secs(secs)
        .with_seed(seed)
        .execute()
        .result
}

fn fifo_run(secs: u64, seed: u64) -> RunResult {
    run(DefenseSpec::Fifo, secs, seed)
}

fn acc_run(k: SimDuration, secs: u64, seed: u64) -> RunResult {
    run(DefenseSpec::Acc { k }, secs, seed)
}

fn accturbo_run(secs: u64, seed: u64) -> RunResult {
    run(DefenseSpec::accturbo(), secs, seed)
}

/// The Fig. 2d ACC-Turbo run with full observability: every engine and
/// switch decision traced into one ring, engine + switch metrics in one
/// registry. Returns `(result, tracer, metrics)` — what the `xp`
/// `--trace`/`--metrics` flags export.
pub fn accturbo_traced_run(
    scale: Scale,
) -> (
    RunResult,
    accturbo_obs::SharedTracer,
    accturbo_obs::MetricsHandle,
) {
    use accturbo_obs::{shared, Registry, RingTracer};
    use std::cell::RefCell;
    use std::rc::Rc;

    let secs = scale.secs(scenarios::RUN_SECS, 2);
    let tracer = shared(RingTracer::new(2_000_000));
    let metrics: accturbo_obs::MetricsHandle = Rc::new(RefCell::new(Registry::new()));
    let mut src = scenarios::fig2_source(LINK, DEFAULT_SEED);
    let mut sw = crate::spec::AccTurboSpec::simulation().build();
    sw.set_tracer(Box::new(Rc::clone(&tracer)));
    sw.set_metrics(Rc::clone(&metrics));
    sw.set_timing(true);
    let mut engine_tracer = Rc::clone(&tracer);
    let cfg = EngineConfig::experiment(LINK, secs, Some(SimDuration::from_millis(250)));
    let res = run_streamed(
        &mut src,
        &mut sw,
        &cfg,
        &mut engine_tracer,
        Some(&metrics),
        None,
        None,
    );
    // Export the hot-path stage timings as custom events at end-of-run.
    {
        let mut t = tracer.borrow_mut();
        let ts = res.final_time.as_nanos();
        for (name, total, calls) in sw.stage_clock().report() {
            use accturbo_obs::{Event, Tracer as _};
            let per_call_ns = if calls > 0 {
                total.as_nanos() as f64 / calls as f64
            } else {
                0.0
            };
            t.record(
                ts,
                &Event::Custom {
                    name: format!("stage_{name}_ns_per_call").into(),
                    value: per_call_ns,
                },
            );
        }
    }
    (res, tracer, metrics)
}

fn panel(out: &mut String, title: &str, res: &RunResult, secs: u64) {
    share_panel(out, title, res, LINK, secs, true);
}

/// The time (seconds from the attack start at t = 13 s) until every benign
/// aggregate is back above 85% of its fair demand *while the attack is
/// still offering more than the whole link* — "mitigation deployed" on the
/// Fig. 2 workload. Plain congestion (FIFO/RED) never satisfies this:
/// the attack's proportional share crushes benign traffic.
pub fn mitigation_delay(res: &RunResult, secs: u64) -> Option<u64> {
    let fair = 0.2125 * LINK as f64;
    (14..secs as usize).find_map(|t| {
        let offered = res.stats.arrival_bps(t, ClassId(5));
        if offered <= LINK as f64 {
            return None; // attack not congesting this second
        }
        let min_benign = (1..=4)
            .map(|c| res.stats.throughput_bps(t, ClassId(c)))
            .fold(f64::INFINITY, f64::min);
        if min_benign >= 0.85 * fair {
            Some(t as u64 - 13)
        } else {
            None
        }
    })
}

/// Regenerates Fig. 2 at `seed`, returning the rendered report and its
/// machine-readable result.
pub fn figure(scale: Scale, seed: u64) -> Figure {
    let secs = scale.secs(scenarios::RUN_SECS, 2);
    let mut out = String::new();
    let mut r = FigureResult::new("fig2");
    let classes: Vec<ClassId> = (1..=5).map(ClassId).collect();

    let fifo = fifo_run(secs, seed);
    panel(&mut out, "Fig. 2a: No ACC (FIFO)", &fifo, secs);
    push_share_summary(&mut r, "a", &fifo, LINK, &classes, secs);

    let acc = acc_run(SimDuration::from_secs(2), secs, seed);
    panel(&mut out, "Fig. 2b: ACC (K=2s)", &acc, secs);
    push_share_summary(&mut r, "b", &acc, LINK, &classes, secs);

    let _ = writeln!(
        &mut out,
        "# Fig. 2c: Impact of K (mitigation deploy time after attack start)"
    );
    let _ = writeln!(&mut out, "K_s,deploy_after_s");
    let ks: &[u64] = match scale {
        Scale::Full => &[10, 15, 20, 25, 30, 35],
        Scale::Quick => &[5, 10],
    };
    for &k in ks {
        let res = acc_run(SimDuration::from_secs(k), secs, seed);
        let delay = delay_text(mitigation_delay(&res, secs));
        r.text(&format!("c.k{k}.deploy_after_s"), &delay);
        let _ = writeln!(&mut out, "{k},{delay}");
    }

    let turbo = accturbo_run(secs, seed);
    panel(&mut out, "Fig. 2d: ACC-Turbo", &turbo, secs);
    push_share_summary(&mut r, "d", &turbo, LINK, &classes, secs);

    // Headline comparison the paper narrates: ACC reacts in ≈4 s, driven
    // by K; ACC-Turbo within one control period.
    let acc_delay = mitigation_delay(&acc, secs);
    let turbo_delay = mitigation_delay(&turbo, secs);
    let _ = writeln!(&mut out, "# Summary");
    let _ = writeln!(&mut out, "acc_mitigation_after_s,{}", delay_text(acc_delay));
    let _ = writeln!(
        &mut out,
        "accturbo_mitigation_after_s,{}",
        delay_text(turbo_delay)
    );
    r.text("summary.acc_mitigation_after_s", &delay_text(acc_delay));
    r.text(
        "summary.accturbo_mitigation_after_s",
        &delay_text(turbo_delay),
    );
    Figure::new(out, r)
}

/// Regenerates Fig. 2 at the canonical seed and returns the textual
/// report.
pub fn report(scale: Scale) -> String {
    figure(scale, DEFAULT_SEED).rendered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_lets_the_attack_capture_the_link() {
        let secs = 32;
        let res = fifo_run(secs, DEFAULT_SEED);
        // At the ramp's peak (t in 20..25) the attack offers 4x the link
        // and FIFO serves it proportionally: attack share > 0.6.
        let share = res.stats.throughput_bps(22, ClassId(5)) / LINK as f64;
        assert!(share > 0.6, "attack share under FIFO: {share}");
        // Benign aggregate 1 is crushed below half its demand.
        let benign = res.stats.throughput_bps(22, ClassId(1)) / LINK as f64;
        assert!(benign < 0.15, "benign share under FIFO: {benign}");
    }

    #[test]
    fn acc_mitigates_within_a_few_seconds() {
        let secs = 32;
        let res = acc_run(SimDuration::from_secs(2), secs, DEFAULT_SEED);
        let delay = mitigation_delay(&res, secs).expect("ACC must mitigate");
        assert!(delay <= 6, "ACC took {delay}s (paper: ≈4s)");
        // Post-mitigation, benign aggregates recover.
        let benign = res.stats.throughput_bps(24, ClassId(1)) / LINK as f64;
        assert!(benign > 0.15, "benign share under ACC: {benign}");
    }

    #[test]
    fn accturbo_mitigates_within_a_second() {
        let secs = 32;
        let res = accturbo_run(secs, DEFAULT_SEED);
        let delay = mitigation_delay(&res, secs).expect("ACC-Turbo must mitigate");
        assert!(delay <= 2, "ACC-Turbo took {delay}s (paper: <1s)");
        let benign = res.stats.throughput_bps(22, ClassId(1)) / LINK as f64;
        assert!(benign > 0.17, "benign share under ACC-Turbo: {benign}");
    }
}
