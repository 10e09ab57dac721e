//! Topology experiment: what multi-switch structure does to the defense.
//!
//! Two questions the single-switch figures cannot ask (ROADMAP item 1,
//! after Mahajan et al. 2002):
//!
//! * **Attack dispersion** — a pulse converging from many ingress leaves
//!   looks thinner on every edge link than the aggregate the core sees.
//!   Panel A runs the flood workload on a `star:4` with the attack
//!   confined to 1, 2 or all 4 leaves and reports benign/attack drop
//!   rates at increasing dispersion.
//! * **Pushback convergence** — a rate-limit request is only as fast as
//!   the path is deep. Panel B runs classic ACC with hop-by-hop pushback
//!   on `line:2..4` and reports when the leaf received its first limit
//!   and how many limit messages flowed.

use crate::common::Scale;
use crate::result::FigureResult;
use crate::spec::{DefenseSpec, ScenarioSpec, TopologySpec, WorkloadSpec};
use crate::Figure;
use accturbo_telemetry::{f, Table};
use accturbo_traffic::workloads::FloodVariation;

/// The canonical workload seed.
pub const DEFAULT_SEED: u64 = 0x7070;

fn scenario(defense: &str, topology: &str, secs: u64, seed: u64) -> ScenarioSpec {
    let defense: DefenseSpec = defense.parse().expect("valid defense");
    let topology: TopologySpec = topology.parse().expect("valid topology");
    ScenarioSpec::new(WorkloadSpec::Flood(FloodVariation::SingleFlow), defense)
        .with_secs(secs + topology.extra_secs())
        .with_seed(seed)
        .with_topology(topology)
}

/// Regenerates the topology figure at `seed`: defense efficacy vs.
/// attack dispersion, and pushback convergence vs. topology depth.
pub fn figure(scale: Scale, seed: u64) -> Figure {
    let secs = scale.secs(30, 3);
    let mut r = FigureResult::new("topology");
    let mut out = String::new();

    // Panel A: the flood enters 1, 2 or all 4 leaves of a star.
    let mut ta = Table::new(&[
        "Attack dispersion (star:4, accturbo core)",
        "benign drop %",
        "attack drop %",
    ]);
    for (label, key, attackers) in [
        ("1 of 4 leaves", "disp1", "attackers=0"),
        ("2 of 4 leaves", "disp2", "attackers=0+2"),
        ("4 of 4 leaves", "disp4", "attackers=0+1+2+3"),
    ] {
        let spec = scenario("accturbo", &format!("star:4:{attackers}"), secs, seed);
        let t = spec.execute_topology();
        let benign = t.result.stats.benign_drop_pct();
        let attack = t.result.stats.attack_drop_pct();
        r.num(&format!("{key}.benign_drop_pct"), benign);
        r.num(&format!("{key}.attack_drop_pct"), attack);
        ta.row(vec![label.into(), f(benign), f(attack)]);
    }
    out.push_str(&ta.render());

    // Panel B: pushback limits ripple down a deepening line.
    let mut tb = Table::new(&[
        "Topology depth (line:N, acc + pushback)",
        "leaf converged (s)",
        "limit messages",
        "benign drop %",
    ]);
    for depth in [2u32, 3, 4] {
        let spec = scenario(
            "acc",
            &format!("line:{depth}:pushback=on"),
            secs,
            seed + depth as u64,
        );
        let t = spec.execute_topology();
        let converge = t.node_first_limit[0].map_or(-1.0, |at| at.as_secs_f64());
        let benign = t.result.stats.benign_drop_pct();
        r.num(&format!("depth{depth}.converge_s"), converge);
        r.num(
            &format!("depth{depth}.installs"),
            t.pushback_installs as f64,
        );
        r.num(&format!("depth{depth}.benign_drop_pct"), benign);
        tb.row(vec![
            format!("line:{depth}"),
            f(converge),
            t.pushback_installs.to_string(),
            f(benign),
        ]);
    }
    out.push_str(&tb.render());

    Figure::new(out, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushback_limits_reach_the_leaf_at_every_depth() {
        for depth in [2u32, 3, 4] {
            let spec = scenario(
                "acc",
                &format!("line:{depth}:pushback=on"),
                10,
                DEFAULT_SEED + depth as u64,
            );
            let t = spec.execute_topology();
            assert!(
                t.pushback_installs > 0,
                "line:{depth}: no limit messages flowed"
            );
            assert!(
                t.node_first_limit[0].is_some(),
                "line:{depth}: the leaf never heard a limit"
            );
        }
    }

    #[test]
    fn dispersion_runs_conserve_packets() {
        let spec = scenario("accturbo", "star:4:attackers=0+2", 10, DEFAULT_SEED);
        let t = spec.execute_topology();
        assert_eq!(
            t.result.arrivals,
            t.result.departures + t.result.drops + t.backlog_pkts as u64
        );
        assert!(t.result.stats.attack_drop_pct() > 0.0, "flood must drop");
    }
}
