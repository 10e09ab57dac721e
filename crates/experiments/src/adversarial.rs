//! The adversarial scenarios of paper §9, executable.
//!
//! §9.1 — evading ACC-Turbo:
//! * **Packet-level evasion**: randomize every clustering feature so the
//!   attack spreads across all clusters. The paper predicts ACC-Turbo
//!   cannot isolate such traffic; congestion then hurts benign and attack
//!   proportionally (FIFO-like), no worse.
//! * **Aggregate-level evasion**: |C| simultaneous low-rate vectors, one
//!   per cluster, so no single cluster stands out.
//!
//! §9.2 — weaponizing ACC-Turbo:
//! * **Swapping attack**: benign traffic is a tight high-rate aggregate;
//!   the attacker sends *randomized* traffic so the benign aggregate looks
//!   like the attack and gets deprioritized.
//! * **Imitation attack**: attack traffic replicates the victim's own
//!   feature signature, dragging the victim's cluster down with it.
//!
//! Each scenario reports benign/attack drop percentages under ACC-Turbo
//! and FIFO, quantifying how much of the defense survives.

use crate::common::Scale;
use crate::result::FigureResult;
use crate::spec::{DefenseSpec, ScenarioSpec, WorkloadSpec};
use crate::Figure;
use accturbo_netsim::{MergedSource, SimDuration};
use accturbo_telemetry::{f, Table};
use accturbo_traffic::workloads;

const SECS: u64 = 40;
/// The canonical workload seed (the historical in-module constant).
pub const DEFAULT_SEED: u64 = 0xADE5;

/// The §9 scenarios (now a traffic-crate building block shared with the
/// spec grammar).
pub use accturbo_traffic::AdversarialScenario as Scenario;

/// Builds the workload for a scenario.
pub fn workload(scenario: Scenario, secs: u64, seed: u64) -> MergedSource {
    workloads::adversarial(scenario, secs, seed)
}

/// Runs a scenario through ACC-Turbo and FIFO; returns
/// `(accturbo benign%, accturbo attack%, fifo benign%)` drop percentages.
pub fn run_scenario(scenario: Scenario, secs: u64, seed: u64) -> (f64, f64, f64) {
    let res = ScenarioSpec::new(WorkloadSpec::Adversarial(scenario), DefenseSpec::accturbo())
        .with_secs(secs)
        .with_seed(seed)
        .with_period(SimDuration::from_millis(50))
        .execute()
        .result;
    let (at_benign, at_attack) = (res.stats.benign_drop_pct(), res.stats.attack_drop_pct());

    let fifo = ScenarioSpec::new(WorkloadSpec::Adversarial(scenario), DefenseSpec::Fifo)
        .with_secs(secs)
        .with_seed(seed)
        .execute()
        .result;
    (at_benign, at_attack, fifo.stats.benign_drop_pct())
}

/// Regenerates the §9 adversarial table at `seed`, returning the
/// rendered report and its machine-readable result.
pub fn figure(scale: Scale, seed: u64) -> Figure {
    let secs = scale.secs(SECS, 4);
    let mut r = FigureResult::new("adversarial");
    let mut table = Table::new(&[
        "Scenario (§9)",
        "ACC-Turbo benign%",
        "ACC-Turbo attack%",
        "FIFO benign%",
    ]);
    let slug = |s: &str| {
        s.to_lowercase()
            .replace(['(', ')'], "")
            .trim()
            .replace([' ', '-'], "_")
    };
    for s in Scenario::ALL {
        let (b, a, fb) = run_scenario(s, secs, seed);
        r.num(&format!("{}.accturbo_benign_pct", slug(s.name())), b);
        r.num(&format!("{}.accturbo_attack_pct", slug(s.name())), a);
        r.num(&format!("{}.fifo_benign_pct", slug(s.name())), fb);
        table.row(vec![s.name().into(), f(b), f(a), f(fb)]);
    }
    Figure::new(table.render(), r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_flood_is_mitigated() {
        let (benign, attack, fifo) = run_scenario(Scenario::PlainFlood, SECS, DEFAULT_SEED);
        assert!(
            benign < fifo / 2.0,
            "defense must beat FIFO: {benign:.1} vs {fifo:.1}"
        );
        assert!(attack > 60.0, "the flood must absorb the loss: {attack:.1}");
    }

    #[test]
    fn packet_level_evasion_degrades_to_fifo_but_not_worse() {
        // §9.1: with every feature randomized, ACC-Turbo "can not infer
        // attack traffic" — mitigation efficiency collapses, but because
        // mitigation is scheduling (not filtering), benign traffic fares
        // no worse than under FIFO.
        let (benign, _attack, fifo) =
            run_scenario(Scenario::PacketLevelEvasion, SECS, DEFAULT_SEED);
        assert!(
            benign < fifo + 10.0,
            "evasion must not make the defense worse than FIFO: {benign:.1} vs {fifo:.1}"
        );
        // And the defense visibly degrades vs the plain flood.
        let (plain_benign, _, _) = run_scenario(Scenario::PlainFlood, SECS, DEFAULT_SEED);
        assert!(
            benign > plain_benign,
            "evasion should cost the defense something: {benign:.1} vs {plain_benign:.1}"
        );
    }

    #[test]
    fn aggregate_level_evasion_is_harder_but_bounded() {
        let (benign, _attack, fifo) =
            run_scenario(Scenario::AggregateLevelEvasion, SECS, DEFAULT_SEED);
        assert!(
            benign < fifo + 10.0,
            "aggregate evasion must not be worse than FIFO: {benign:.1} vs {fifo:.1}"
        );
    }

    #[test]
    fn swapping_attack_hurts_the_tight_benign_service() {
        // §9.2: the tight high-rate benign aggregate is the one that looks
        // malicious; expect it to suffer more than under the plain flood.
        let (benign, _, _) = run_scenario(Scenario::Swapping, SECS, DEFAULT_SEED);
        let (plain_benign, _, _) = run_scenario(Scenario::PlainFlood, SECS, DEFAULT_SEED);
        assert!(
            benign > plain_benign,
            "swapping should hurt benign more than a plain flood: {benign:.1} vs {plain_benign:.1}"
        );
    }

    #[test]
    fn imitation_attack_drags_the_victim_down() {
        // The victim's cluster carries the attack: both are deprioritized
        // together; the victim suffers while total collateral stays below
        // FIFO (the rest of the background is protected).
        let (benign, attack, fifo) = run_scenario(Scenario::Imitation, SECS, DEFAULT_SEED);
        assert!(benign > 5.0, "imitation must hurt the victim: {benign:.1}");
        assert!(
            benign < fifo + 5.0,
            "but not exceed FIFO: {benign:.1} vs {fifo:.1}"
        );
        assert!(attack > 30.0, "the imitation flood still pays: {attack:.1}");
    }
}
