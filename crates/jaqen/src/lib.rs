//! # accturbo-jaqen
//!
//! A behavioural model of Jaqen (Liu et al., USENIX Security 2021), the
//! state-of-the-art switch-native DDoS defense the paper compares against
//! in §7.2: count-min-sketch heavy-hitter detection on a pre-configured
//! signature (5-tuple or source IP), two-consecutive-window threshold
//! activation, exact-match drop rules, and the measured reaction
//! latencies (≈10 s detect+deploy, +≈11.5 s program swap). The model
//! reproduces exactly the properties the comparison exercises:
//! signature dependence, threshold sensitivity, and reaction time.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod sketch;
pub mod switch;

pub use sketch::CountMinSketch;
pub use switch::{JaqenConfig, JaqenSwitch, Signature};
