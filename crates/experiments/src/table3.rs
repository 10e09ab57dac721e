//! Table 3: mitigation efficiency under attack variations (paper §7.2.1).
//!
//! Four defenses (FIFO, Jaqen keyed on the 5-tuple "Jaqen†", Jaqen keyed
//! on the source IP "Jaqen‡", ACC-Turbo with the four destination-address
//! bytes as features) against four traffic mixes: no attack, a
//! single-flow UDP flood, the same flood with carpet bombing (random dst
//! in the victim /24), and with source spoofing. The cell value is the
//! percentage of benign packets dropped.
//!
//! Expected shape (paper's Table 3): Jaqen wins when its signature
//! matches (≈3–4%), collapses when the varied field defeats it (carpet
//! bombing beats the 5-tuple key, spoofing beats both); ACC-Turbo is
//! never best but is robust across all variations (≈15–20%); FIFO loses
//! ≈90% whenever an attack runs.

use crate::common::Scale;
use crate::result::FigureResult;
use crate::spec::{
    AccTurboSpec, DefenseSpec, FeatureProfile, JaqenSpec, ScenarioSpec, WorkloadSpec,
    JAQEN_DEFAULT_THRESHOLD,
};
use crate::Figure;
use accturbo_jaqen::Signature;
use accturbo_telemetry::{f, Table};

/// The canonical workload seed (the historical in-module constant).
pub const DEFAULT_SEED: u64 = 0x7AB;

/// The attack variations of Table 3's rows (now a traffic-crate
/// building block shared with the spec grammar).
pub use accturbo_traffic::FloodVariation as Variation;

/// The defenses of Table 3's columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defense {
    /// No defense.
    Fifo,
    /// Jaqen keyed on the 5-tuple (Jaqen†).
    JaqenFiveTuple,
    /// Jaqen keyed on the source address (Jaqen‡).
    JaqenSrcIp,
    /// ACC-Turbo (hardware profile, 4 dst-address bytes).
    AccTurbo,
}

impl Defense {
    /// All columns, in the paper's order.
    pub const ALL: [Defense; 4] = [
        Defense::Fifo,
        Defense::JaqenFiveTuple,
        Defense::JaqenSrcIp,
        Defense::AccTurbo,
    ];

    /// Column label.
    pub fn name(self) -> &'static str {
        match self {
            Defense::Fifo => "FIFO",
            Defense::JaqenFiveTuple => "Jaqen(5-tuple)",
            Defense::JaqenSrcIp => "Jaqen(srcIP)",
            Defense::AccTurbo => "ACC-Turbo",
        }
    }
}

/// Maps a Table 3 column to its declarative defense (Jaqen runs
/// calibrated at the [`JAQEN_DEFAULT_THRESHOLD`] that reproduces the
/// paper's 2.5–3.7% "No Attack" drops; ACC-Turbo runs the hardware
/// profile over the four destination-address bytes).
pub fn defense_spec(defense: Defense) -> DefenseSpec {
    match defense {
        Defense::Fifo => DefenseSpec::Fifo,
        Defense::JaqenFiveTuple => DefenseSpec::Jaqen(JaqenSpec::new(
            Signature::FiveTuple,
            JAQEN_DEFAULT_THRESHOLD,
        )),
        Defense::JaqenSrcIp => {
            DefenseSpec::Jaqen(JaqenSpec::new(Signature::SrcIp, JAQEN_DEFAULT_THRESHOLD))
        }
        Defense::AccTurbo => {
            DefenseSpec::AccTurbo(AccTurboSpec::hardware(FeatureProfile::HwDstBytes))
        }
    }
}

/// Runs one cell of the table, returning the benign-drop percentage.
pub fn cell(defense: Defense, variation: Variation, secs: u64, seed: u64) -> f64 {
    ScenarioSpec::new(WorkloadSpec::Flood(variation), defense_spec(defense))
        .with_secs(secs)
        .with_seed(seed)
        .execute()
        .result
        .stats
        .benign_drop_pct()
}

/// Regenerates Table 3 at `seed`, returning the rendered report and its
/// machine-readable result.
pub fn figure(scale: Scale, seed: u64) -> Figure {
    let secs = scale.secs(100, 5);
    let mut r = FigureResult::new("table3");
    let mut table = Table::new(&[
        "Benign packet drops (%)",
        "FIFO",
        "Jaqen(5-tuple)",
        "Jaqen(srcIP)",
        "ACC-Turbo",
    ]);
    let slug = |s: &str| s.to_lowercase().replace([' ', '(', ')', '-'], "");
    for variation in Variation::ALL {
        let mut cells = vec![variation.name().to_string()];
        for d in Defense::ALL {
            let pct = cell(d, variation, secs, seed);
            r.num(
                &format!(
                    "{}.{}.benign_drop_pct",
                    slug(variation.name()),
                    slug(d.name())
                ),
                pct,
            );
            cells.push(f(pct));
        }
        table.row(cells);
    }
    Figure::new(table.render(), r)
}

/// Regenerates Table 3 at the canonical seed and returns the textual
/// report.
pub fn report(scale: Scale) -> String {
    figure(scale, DEFAULT_SEED).rendered
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECS: u64 = 60;

    #[test]
    fn fifo_loses_most_benign_under_any_attack() {
        for v in [
            Variation::SingleFlow,
            Variation::CarpetBombing,
            Variation::SourceSpoofing,
        ] {
            let pct = cell(Defense::Fifo, v, SECS, DEFAULT_SEED);
            assert!(pct > 70.0, "{}: FIFO dropped only {pct:.1}%", v.name());
        }
        assert_eq!(
            cell(Defense::Fifo, Variation::NoAttack, SECS, DEFAULT_SEED),
            0.0
        );
    }

    #[test]
    fn jaqen_five_tuple_wins_single_flow_loses_carpet_and_spoof() {
        let single = cell(
            Defense::JaqenFiveTuple,
            Variation::SingleFlow,
            SECS,
            DEFAULT_SEED,
        );
        let carpet = cell(
            Defense::JaqenFiveTuple,
            Variation::CarpetBombing,
            SECS,
            DEFAULT_SEED,
        );
        let spoof = cell(
            Defense::JaqenFiveTuple,
            Variation::SourceSpoofing,
            SECS,
            DEFAULT_SEED,
        );
        assert!(single < 15.0, "single flow: {single:.1}%");
        assert!(
            carpet > 50.0,
            "carpet bombing must defeat the 5-tuple key: {carpet:.1}%"
        );
        assert!(
            spoof > 50.0,
            "spoofing must defeat the 5-tuple key: {spoof:.1}%"
        );
    }

    #[test]
    fn jaqen_src_ip_survives_carpet_but_not_spoofing() {
        let single = cell(
            Defense::JaqenSrcIp,
            Variation::SingleFlow,
            SECS,
            DEFAULT_SEED,
        );
        let carpet = cell(
            Defense::JaqenSrcIp,
            Variation::CarpetBombing,
            SECS,
            DEFAULT_SEED,
        );
        let spoof = cell(
            Defense::JaqenSrcIp,
            Variation::SourceSpoofing,
            SECS,
            DEFAULT_SEED,
        );
        assert!(single < 15.0, "single flow: {single:.1}%");
        assert!(
            carpet < 15.0,
            "srcIP key survives carpet bombing: {carpet:.1}%"
        );
        assert!(
            spoof > 50.0,
            "spoofing must defeat the srcIP key: {spoof:.1}%"
        );
    }

    #[test]
    fn accturbo_is_robust_across_all_variations() {
        for v in [
            Variation::SingleFlow,
            Variation::CarpetBombing,
            Variation::SourceSpoofing,
        ] {
            let pct = cell(Defense::AccTurbo, v, SECS, DEFAULT_SEED);
            assert!(
                pct < 30.0,
                "{}: ACC-Turbo dropped {pct:.1}% (paper: 15-20%)",
                v.name()
            );
        }
        let quiet = cell(Defense::AccTurbo, Variation::NoAttack, SECS, DEFAULT_SEED);
        assert!(quiet < 0.5, "transparent without attack: {quiet:.2}%");
    }
}
