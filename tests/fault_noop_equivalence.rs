//! Differential lockdown of the fault-injection layer (DESIGN.md §9):
//! threading a do-nothing injector through the engine must leave every
//! figure byte-identical to the plain `run` path. This is the guarantee
//! that lets the engine carry a fault plane at all — the fault plane costs
//! nothing (no behaviour change, no RNG draws) until a fault is
//! actually configured.
//!
//! Both sides pull their arrivals in batches: a fault plane no longer
//! puts the engine on per-packet pulls, so this compares no per-packet
//! path. The per-packet oracles are `classify_ahead.rs`
//! (`run_reference`), `topology_matrix.rs` (`run_topology_reference`),
//! `source_fill.rs` and, for faulted runs, `fault_oracle.rs`.
//!
//! A single `#[test]` covers all pre-existing figures because the noop
//! toggle is process-global: parallel test threads must not observe
//! each other's engine selection.

use accturbo_clustering::FeatureSet;
use accturbo_core::{AccTurboConfig, AccTurboSwitch};
use accturbo_experiments::common::force_noop_fault_injection;
use accturbo_experiments::{Figure, Scale, FIGURES};
use accturbo_netsim::{FaultInjector, Packet, SimTime, Switch};
use std::net::Ipv4Addr;

/// Every figure that predates the fault layer, regenerated with the
/// plain engine and with the noop-injector engine: rendered reports and
/// golden serializations must be byte-identical. (`robustness` itself
/// is excluded — its faulted cells use the injector by design.)
#[test]
fn figures_are_byte_identical_with_a_noop_injector() {
    for spec in FIGURES.iter().filter(|s| s.name != "robustness") {
        force_noop_fault_injection(false);
        let plain: Figure = spec.run_default(Scale::Quick);
        force_noop_fault_injection(true);
        let noop: Figure = spec.run_default(Scale::Quick);
        force_noop_fault_injection(false);
        assert_eq!(
            plain.rendered, noop.rendered,
            "{}: rendered report drifted under the noop injector",
            spec.name
        );
        assert_eq!(
            plain.result.to_golden(),
            noop.result.to_golden(),
            "{}: golden serialization drifted under the noop injector",
            spec.name
        );
    }
}

/// Switch-level differential: an [`AccTurboSwitch`] with a noop injector
/// installed processes an identical packet stream into identical state —
/// same admissions, same backlog, same control-tick outcomes.
#[test]
fn accturbo_switch_state_is_identical_with_a_noop_injector() {
    fn drive(sw: &mut AccTurboSwitch) -> (usize, usize, Vec<u32>) {
        let mut drops = Vec::new();
        let mut departures = Vec::new();
        for i in 0..2_000u64 {
            let t = SimTime::from_nanos(i * 40_000);
            let pkt = Packet::new(t)
                .with_size(200 + (i % 7) as u32 * 150)
                .with_src(Ipv4Addr::from((i % 13) as u32 * 0x0101_0101));
            sw.ingress(pkt, t, &mut drops);
            if i % 25 == 0 {
                if let Some(p) = sw.dequeue(t) {
                    departures.push(p.size);
                }
            }
            if i % 500 == 0 {
                sw.control_tick(t);
            }
        }
        (drops.len(), sw.backlog_pkts(), departures)
    }

    let cfg = AccTurboConfig::simulation(FeatureSet::simulation_default());
    let mut plain = AccTurboSwitch::new(cfg.clone());
    let mut faulted = AccTurboSwitch::new(cfg);
    faulted.set_faults(FaultInjector::noop());

    assert_eq!(
        drive(&mut plain),
        drive(&mut faulted),
        "noop injector changed the switch's packet-level behaviour"
    );
    assert_eq!(faulted.missed_ticks(), 0);
    assert_eq!(faulted.degradation().fallbacks(), 0);
}
