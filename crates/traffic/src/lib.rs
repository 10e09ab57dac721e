//! # accturbo-traffic
//!
//! Workload generators for the ACC-Turbo reproduction: CAIDA-like benign
//! background, per-vector DDoS attack templates, pulse-wave composition,
//! the classic ACC experiment workloads (Figs. 2/3), and a synthetic
//! CICDDoS-2019-like attack day (see DESIGN.md §1 for the substitution
//! rationale). All generators implement
//! [`accturbo_netsim::PacketSource`], are lazily evaluated, and are fully
//! deterministic given their seed.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod background;
pub mod cbr;
pub mod cicddos;
pub mod modifiers;
pub mod placement;
pub mod pulse;
pub mod scenarios;
pub mod vectors;
pub mod workloads;

pub use background::{BackgroundConfig, BackgroundSource};
pub use cbr::{CbrSource, FlowTemplate, RampSource, RateStep};
pub use cicddos::{CicDdosConfig, Episode};
pub use modifiers::{MapSource, Spread, SpreadSource};
pub use placement::LeafPlacement;
pub use pulse::{PulseSpec, PulseWave};
pub use vectors::{AttackConfig, AttackSource, AttackVector};
pub use workloads::{AdversarialScenario, FloodVariation, PulseAttackConfig};
