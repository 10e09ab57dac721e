//! # accturbo-telemetry
//!
//! Evaluation metrics and reporting for the experiment harness: the
//! Fig. 11a scheduling score, reaction-time measurement on throughput
//! series (§7.2.2), and plain-text table/CSV rendering used by every
//! figure and table regeneration.
//!
//! The [`obs`] module is the structured observability layer (event
//! tracing, metrics registry, span timing). It lives in its own
//! dependency-free crate (`accturbo-obs`) so the datapath crates below
//! this one can thread its `Tracer` hooks, and is re-exported here as
//! the canonical downstream path.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod reaction;
pub mod report;
pub mod score;

/// Structured observability: event trace, metrics registry, span
/// timing. Re-export of the dependency-free `accturbo-obs` crate.
pub use accturbo_obs as obs;

pub use reaction::benign_recovery_time;
pub use report::{csv, f, Table};
pub use score::SchedulingScore;
