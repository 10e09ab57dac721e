//! Shared experiment plumbing.
//!
//! All "hardware" experiments run at the 1/1000 rate scale documented in
//! DESIGN.md §4 (10 Gbps bottleneck → 10 Mbps simulated link) with
//! identical rate ratios, so shares, percentages and times match the
//! paper's axes.

use crate::result::FigureResult;
use accturbo_netsim::{
    run_streamed, ClassId, EngineConfig, FaultInjector, PacketSource, RunResult, SimDuration,
    Switch,
};
use accturbo_obs::NoopTracer;
use std::sync::atomic::{AtomicBool, Ordering};

/// Experiment fidelity: `Full` regenerates the paper's figures; `Quick`
/// shrinks durations/rates for benches and CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-shaped durations and rates.
    Full,
    /// Shortened runs for benches and integration tests.
    Quick,
}

impl Scale {
    /// Scales a duration in seconds: quick mode divides by `q`.
    pub fn secs(self, full: u64, q: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / q).max(1),
        }
    }
}

/// The scaled 10 Gbps → 10 Mbps bottleneck used by the §7 experiments.
pub const LINK_10G_SCALED: u64 = 10_000_000;

/// The undefended baseline queue used across experiments: 512 KB of
/// buffer, additionally capped at ~775 packets so near-full behaviour is
/// cell-granular like a real switch buffer (a pure byte cap would
/// preferentially admit small packets).
pub fn baseline_fifo() -> accturbo_netsim::FifoQueue {
    accturbo_netsim::FifoQueue::new(512 * 1024).with_pkt_cap(775)
}

/// Process-global test toggle: when set, every fault-free run
/// ([`simulate`] and `ScenarioSpec::execute`) threads an explicit no-op
/// injector through the engine.
static FORCE_NOOP_FAULTS: AtomicBool = AtomicBool::new(false);

/// Fault-noop lockdown hook (`tests/fault_noop_equivalence.rs`): hands
/// every fault-free run a no-op injector so the differential test can
/// assert that threading a do-nothing injector through every figure
/// leaves the output byte-identical. Process-global — tests using it
/// must not run concurrently with other figure runs.
pub fn force_noop_fault_injection(on: bool) {
    FORCE_NOOP_FAULTS.store(on, Ordering::SeqCst);
}

/// The no-op injector a fault-free run hands the engine while the
/// lockdown toggle is on; `None` otherwise.
pub(crate) fn forced_noop_faults() -> Option<FaultInjector> {
    FORCE_NOOP_FAULTS
        .load(Ordering::SeqCst)
        .then(FaultInjector::noop)
}

/// Runs `source` through `switch` with the standard experiment engine:
/// 1-second stats buckets, the given control period, hard stop at `secs`.
pub fn simulate(
    source: &mut dyn PacketSource,
    switch: &mut dyn Switch,
    link_bps: u64,
    secs: u64,
    control_period: Option<SimDuration>,
) -> RunResult {
    let cfg = EngineConfig::experiment(link_bps, secs, control_period);
    let noop = forced_noop_faults();
    run_streamed(source, switch, &cfg, &mut NoopTracer, noop.as_ref(), None)
}

/// The summary means of a run's panel, as `(key, value)` pairs in
/// report order. With `shares = Some((link_bps, classes))` (a
/// bandwidth-share panel): each class's mean share of the link, then
/// the mean drop rate. Otherwise (an attack/benign throughput panel):
/// the mean delivered attack and benign rates at the paper's axis scale
/// (sim Mbps == paper Gbps). The figures' golden summaries and `xp
/// run`'s summary both come from here.
pub fn summary_means(
    res: &RunResult,
    shares: Option<(u64, &[ClassId])>,
    secs: u64,
) -> Vec<(String, f64)> {
    let mean = |per_sec: &dyn Fn(usize) -> f64| {
        (0..secs as usize).map(per_sec).sum::<f64>() / secs.max(1) as f64
    };
    match shares {
        Some((link_bps, classes)) => {
            let series = share_series(res, link_bps, classes, secs);
            let mut out: Vec<(String, f64)> = classes
                .iter()
                .enumerate()
                .map(|(i, c)| (format!("agg{}.mean_share", c.0), mean(&|t| series[t][i])))
                .collect();
            out.push(("mean_droprate".into(), mean(&|t| res.stats.drop_rate(t))));
            out
        }
        None => vec![
            (
                "mean_attack_gbps".into(),
                mean(&|t| res.stats.attack_throughput_bps(t)) / 1e6,
            ),
            (
                "mean_benign_gbps".into(),
                mean(&|t| res.stats.throughput_bps(t, ClassId::BENIGN)) / 1e6,
            ),
        ],
    }
}

/// Pushes the structural summary of a bandwidth-share panel into a
/// [`FigureResult`]: per-class mean share and the mean drop rate over
/// the run ([`summary_means`]). Together with the `rendered_fnv` digest
/// this pins the panel's series against silent drift while staying
/// compact.
pub fn push_share_summary(
    r: &mut FigureResult,
    prefix: &str,
    res: &RunResult,
    link_bps: u64,
    classes: &[ClassId],
    secs: u64,
) {
    for (key, value) in summary_means(res, Some((link_bps, classes)), secs) {
        r.num(&format!("{prefix}.{key}"), value);
    }
}

/// Pushes the structural summary of an attack/benign throughput panel
/// (Figs. 6 and 7): mean delivered rate of each side over the run
/// ([`summary_means`]).
pub fn push_throughput_summary(r: &mut FigureResult, prefix: &str, res: &RunResult, secs: u64) {
    for (key, value) in summary_means(res, None, secs) {
        r.num(&format!("{prefix}.{key}"), value);
    }
}

/// Renders the Figs. 2/3 per-second bandwidth-share CSV panel: shares
/// of aggregates 1–5 plus the total, optionally followed by the
/// drop-rate series (Fig. 2's extra column).
pub fn share_panel(
    out: &mut String,
    title: &str,
    res: &RunResult,
    link_bps: u64,
    secs: u64,
    droprate: bool,
) {
    use accturbo_telemetry::f;
    use std::fmt::Write as _;
    let classes: Vec<ClassId> = (1..=5).map(ClassId).collect();
    let shares = share_series(res, link_bps, &classes, secs);
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(
        out,
        "t,agg1,agg2,agg3,agg4,agg5,all{}",
        if droprate { ",droprate" } else { "" }
    );
    for (t, row) in shares.iter().enumerate() {
        let all: f64 = row.iter().sum();
        let _ = write!(
            out,
            "{t},{},{},{},{},{},{}",
            f(row[0]),
            f(row[1]),
            f(row[2]),
            f(row[3]),
            f(row[4]),
            f(all),
        );
        if droprate {
            let _ = write!(out, ",{}", f(res.stats.drop_rate(t)));
        }
        out.push('\n');
    }
}

/// Renders the Figs. 6/7 per-second attack/benign throughput panel at
/// the paper's axis scale (sim Mbps == paper Gbps).
pub fn throughput_panel(out: &mut String, title: &str, res: &RunResult, secs: u64) {
    use accturbo_telemetry::f;
    use std::fmt::Write as _;
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(out, "t,attack_gbps,benign_gbps");
    for t in 0..secs as usize {
        let attack = res.stats.attack_throughput_bps(t) / 1e6;
        let benign = res.stats.throughput_bps(t, ClassId::BENIGN) / 1e6;
        let _ = writeln!(out, "{t},{},{}", f(attack), f(benign));
    }
}

/// Renders an optional delay as the reports' `"never"` convention.
pub fn delay_text(d: Option<u64>) -> String {
    d.map(|x| x.to_string()).unwrap_or_else(|| "never".into())
}

/// Per-second fraction-of-link-bandwidth series for a set of classes —
/// the y-axis of Figs. 2 and 3.
pub fn share_series(
    result: &RunResult,
    link_bps: u64,
    classes: &[accturbo_netsim::ClassId],
    secs: u64,
) -> Vec<Vec<f64>> {
    (0..secs as usize)
        .map(|b| {
            classes
                .iter()
                .map(|&c| result.stats.throughput_bps(b, c) / link_bps as f64)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use accturbo_netsim::{ClassId, FifoQueue, Packet, SimTime, SingleQueueSwitch, VecSource};

    #[test]
    fn scale_math() {
        assert_eq!(Scale::Full.secs(50, 5), 50);
        assert_eq!(Scale::Quick.secs(50, 5), 10);
        assert_eq!(Scale::Quick.secs(3, 5), 1);
    }

    #[test]
    fn simulate_enforces_end_time() {
        let pkts: Vec<Packet> = (0..1000)
            .map(|i| Packet::new(SimTime::from_millis(i * 10)).with_size(100))
            .collect();
        let mut src = VecSource::new(pkts);
        let mut sw = SingleQueueSwitch::new(FifoQueue::new(100_000));
        let res = simulate(&mut src, &mut sw, LINK_10G_SCALED, 5, None);
        assert_eq!(res.arrivals, 500);
    }

    #[test]
    fn share_series_shape() {
        let pkts: Vec<Packet> = (0..100)
            .map(|i| Packet::new(SimTime::from_millis(i * 10)).with_size(1250))
            .collect();
        let mut src = VecSource::new(pkts);
        let mut sw = SingleQueueSwitch::new(FifoQueue::new(1_000_000));
        let res = simulate(&mut src, &mut sw, LINK_10G_SCALED, 2, None);
        let series = share_series(&res, LINK_10G_SCALED, &[ClassId::BENIGN], 2);
        assert_eq!(series.len(), 2);
        // 1250 B x 100 pkts in 1 s = 1 Mbps = 0.1 of the link.
        assert!((series[0][0] - 0.1).abs() < 0.01);
    }
}
