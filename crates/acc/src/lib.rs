//! # accturbo-acc
//!
//! Classic Aggregate-based Congestion Control (Mahajan et al. 2002) as
//! described in the paper's §2: a RED output queue whose drops feed an
//! agent that — once the drop rate over a monitoring window `K` exceeds
//! `p_high` — infers destination-prefix aggregates from the dropped
//! headers, water-fills a rate limit over the heaviest aggregates, and
//! polices them with token-bucket sessions following the Table 4
//! lifecycle. This is the historical baseline ACC-Turbo is measured
//! against in Figs. 2 and 3.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod prefix;
pub mod ratelimit;
pub mod sessions;
pub mod switch;

pub use config::AccConfig;
pub use prefix::{infer_aggregates, InferredAggregate, Prefix};
pub use ratelimit::{excess_rate, water_fill, RateLimitPlan};
pub use sessions::{Session, SessionConfig, SessionTable};
pub use switch::AccSwitch;
