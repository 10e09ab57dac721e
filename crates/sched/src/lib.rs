//! # accturbo-sched
//!
//! The mitigation half of ACC-Turbo (paper §5): ranking algorithms that
//! score cluster maliciousness from polled data-plane statistics, and the
//! control-plane [`Controller`] that maps clusters to strict-priority
//! queues each period. The queues themselves live in
//! [`accturbo_netsim::PriorityBank`]; the full switch pipeline that ties
//! clustering + ranking + queues together is in `accturbo-core`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod controller;
pub mod degrade;
pub mod rank;
pub mod sppifo;

pub use controller::Controller;
pub use degrade::{
    DegradationConfig, DegradationCounters, DegradationPolicy, DegradeAction, FallbackMode,
};
pub use rank::RankingAlgorithm;
pub use sppifo::SpPifo;
