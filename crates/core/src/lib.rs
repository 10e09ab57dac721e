//! # accturbo-core
//!
//! The paper's primary contribution assembled into a runnable switch:
//! online clustering in the data path (`accturbo-clustering`, §4),
//! strict-priority scheduling with a periodic control plane
//! (`accturbo-sched`, §5), and the Tofino resource profiles of §6.
//!
//! * [`AccTurboSwitch`] — the full defense, pluggable into the
//!   `accturbo-netsim` engine as a [`accturbo_netsim::Switch`].
//! * [`AccTurboConfig`] — hardware (4 clusters × 4 features) and
//!   simulation (10 clusters) profiles, plus sweep knobs for the §8
//!   design-space studies.
//! * [`IdealPifoSwitch`] — the ground-truth "PIFO Ideal" upper bound of
//!   §8.2.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod ideal;
pub mod pipeline;
pub mod ranked;
pub mod resources;

pub use config::AccTurboConfig;
pub use ideal::IdealPifoSwitch;
pub use pipeline::{AccTurboSwitch, ClassifyTap};
pub use ranked::RankedAccTurboSwitch;
pub use resources::{fits, max_clusters, usage, Target, Usage, TOFINO1, TOFINO2, TOFINO3};
