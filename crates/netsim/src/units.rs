//! Bandwidth and rate units.

use crate::time::SimDuration;
use std::fmt;

/// Link or flow bandwidth, in bits per second.
///
/// The paper's experiments run at 10–100 Gbps; simulation-based experiments
/// in this reproduction run at a documented 1/1000 scale (see DESIGN.md §4),
/// which this type represents equally well.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Builds a bandwidth from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Bandwidth(bps)
    }

    /// Builds a bandwidth from kilobits per second (10^3 bps).
    pub const fn from_kbps(kbps: u64) -> Self {
        Bandwidth(kbps * 1_000)
    }

    /// Builds a bandwidth from megabits per second (10^6 bps).
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth(mbps * 1_000_000)
    }

    /// Builds a bandwidth from gigabits per second (10^9 bps).
    pub const fn from_gbps(gbps: u64) -> Self {
        Bandwidth(gbps * 1_000_000_000)
    }

    /// Bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Time to serialize `bytes` onto a link of this bandwidth.
    ///
    /// Panics on zero bandwidth: a zero-rate link can never transmit.
    pub fn tx_time(self, bytes: u32) -> SimDuration {
        assert!(self.0 > 0, "cannot transmit on a zero-bandwidth link");
        // bits * 1e9 / bps, in u128 to avoid overflow for jumbo byte counts.
        let ns = (bytes as u128 * 8 * 1_000_000_000) / self.0 as u128;
        SimDuration::from_nanos(ns as u64)
    }

    /// Scales this bandwidth by a ratio (used for rate-scaled experiments).
    pub fn scale(self, ratio: f64) -> Self {
        assert!(ratio.is_finite() && ratio >= 0.0, "invalid scale: {ratio}");
        Bandwidth((self.0 as f64 * ratio).round() as u64)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}Gbps", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}Mbps", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(Bandwidth::from_gbps(1).as_bps(), 1_000_000_000);
        assert_eq!(Bandwidth::from_mbps(10), Bandwidth::from_kbps(10_000));
    }

    #[test]
    fn tx_time_of_1500b_at_1gbps_is_12us() {
        let t = Bandwidth::from_gbps(1).tx_time(1500);
        assert_eq!(t.as_nanos(), 12_000);
    }

    #[test]
    fn tx_time_scales_inversely_with_rate() {
        let slow = Bandwidth::from_mbps(10).tx_time(1000);
        let fast = Bandwidth::from_mbps(100).tx_time(1000);
        assert_eq!(slow.as_nanos(), fast.as_nanos() * 10);
    }

    #[test]
    #[should_panic(expected = "zero-bandwidth")]
    fn zero_bandwidth_tx_panics() {
        let _ = Bandwidth::ZERO.tx_time(100);
    }

    #[test]
    fn scaling() {
        assert_eq!(
            Bandwidth::from_gbps(10).scale(0.001),
            Bandwidth::from_mbps(10)
        );
    }
}
