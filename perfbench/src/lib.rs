//! # accturbo-perfbench
//!
//! The end-to-end benchmark of the ACC-Turbo reproduction. It drives the
//! program only through its public entry points — the scenario grammar,
//! `ScenarioSpec::execute`, the workload and defense builders, the three
//! netsim engines, `worstcase::evaluate_workload` and the runner pool —
//! and times it from outside. See `README.md` in this directory for the
//! workloads, the metrics and the noise measurements behind the bounds.

pub mod host;
pub mod instrument;
pub mod measure;
pub mod workload;
