//! Rate estimation and policing primitives.
//!
//! Classic ACC estimates each aggregate's arrival rate with an exponential
//! moving average over fixed intervals (`k = 0.1 s` in the paper's Table 4)
//! and polices rate-limited aggregates with a token bucket. ACC-Turbo's
//! control plane uses the same estimator on per-cluster byte counters.

use crate::time::{SimDuration, SimTime};
use crate::units::Bandwidth;

/// Exponentially weighted moving average of a byte rate, updated over
/// fixed-length measurement intervals.
#[derive(Debug, Clone)]
pub struct EwmaRate {
    interval: SimDuration,
    alpha: f64,
    window_start: SimTime,
    window_bytes: u64,
    rate_bps: f64,
    initialized: bool,
}

impl EwmaRate {
    /// Creates an estimator with measurement interval `interval` and
    /// smoothing factor `alpha` in (0, 1] (the weight of the newest sample).
    pub fn new(interval: SimDuration, alpha: f64) -> Self {
        assert!(!interval.is_zero(), "EWMA interval must be positive");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        EwmaRate {
            interval,
            alpha,
            window_start: SimTime::ZERO,
            window_bytes: 0,
            rate_bps: 0.0,
            initialized: false,
        }
    }

    /// Records `bytes` arriving at `now`, closing any elapsed measurement
    /// windows first.
    pub fn record(&mut self, bytes: u64, now: SimTime) {
        self.roll_forward(now);
        self.window_bytes += bytes;
    }

    /// The current rate estimate at `now` (elapsed empty windows pull the
    /// estimate toward zero).
    pub fn rate(&mut self, now: SimTime) -> Bandwidth {
        self.roll_forward(now);
        Bandwidth::from_bps(self.rate_bps.max(0.0) as u64)
    }

    /// Closes every measurement window that ended before `now`.
    fn roll_forward(&mut self, now: SimTime) {
        while now >= self.window_start + self.interval {
            let inst_bps = self.window_bytes as f64 * 8.0 / self.interval.as_secs_f64();
            if self.initialized {
                self.rate_bps += self.alpha * (inst_bps - self.rate_bps);
            } else {
                self.rate_bps = inst_bps;
                self.initialized = true;
            }
            self.window_bytes = 0;
            self.window_start += self.interval;
        }
    }
}

/// A token-bucket policer: packets conforming to `rate` (with `burst_bytes`
/// of slack) pass; the rest are marked nonconforming (ACC drops them before
/// the RED queue).
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: Bandwidth,
    burst_bytes: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// Creates a bucket replenished at `rate` with capacity `burst_bytes`,
    /// initially full.
    pub fn new(rate: Bandwidth, burst_bytes: u64) -> Self {
        assert!(burst_bytes > 0, "token bucket burst must be positive");
        TokenBucket {
            rate,
            burst_bytes: burst_bytes as f64,
            tokens: burst_bytes as f64,
            last: SimTime::ZERO,
        }
    }

    /// The configured rate.
    pub fn rate(&self) -> Bandwidth {
        self.rate
    }

    /// Re-targets the policing rate (ACC revisits its limits periodically).
    pub fn set_rate(&mut self, rate: Bandwidth) {
        self.rate = rate;
    }

    /// Returns true when a packet of `bytes` conforms at `now` (and spends
    /// the tokens); false when it must be dropped.
    pub fn conforms(&mut self, bytes: u32, now: SimTime) -> bool {
        let elapsed = now.saturating_since(self.last).as_secs_f64();
        self.last = self.last.max(now);
        self.tokens =
            (self.tokens + elapsed * self.rate.as_bps() as f64 / 8.0).min(self.burst_bytes);
        if self.tokens >= bytes as f64 {
            self.tokens -= bytes as f64;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_to_constant_rate() {
        let mut est = EwmaRate::new(SimDuration::from_millis(100), 0.5);
        // 1000 bytes per 100 ms = 80 kbps.
        for i in 0..100u64 {
            est.record(1000, SimTime::from_millis(i * 100 + 50));
        }
        let r = est.rate(SimTime::from_secs(10)).as_bps();
        assert!((r as f64 - 80_000.0).abs() < 1_000.0, "rate {r} != ~80kbps");
    }

    #[test]
    fn ewma_decays_when_traffic_stops() {
        let mut est = EwmaRate::new(SimDuration::from_millis(100), 0.5);
        for i in 0..20u64 {
            est.record(10_000, SimTime::from_millis(i * 100 + 50));
        }
        let busy = est.rate(SimTime::from_secs(2)).as_bps();
        let idle = est.rate(SimTime::from_secs(4)).as_bps();
        assert!(idle < busy / 100, "rate must decay over idle windows");
    }

    #[test]
    fn ewma_first_window_initializes_directly() {
        let mut est = EwmaRate::new(SimDuration::from_millis(100), 0.1);
        est.record(1_250, SimTime::from_millis(10)); // 100 kbps window
        let r = est.rate(SimTime::from_millis(100)).as_bps();
        assert_eq!(r, 100_000);
    }

    #[test]
    fn token_bucket_enforces_long_term_rate() {
        // 80 kbps = 10 kB/s; over 1 s only ~10 kB + burst should conform.
        let mut tb = TokenBucket::new(Bandwidth::from_kbps(80), 2_000);
        let mut passed = 0u64;
        for i in 0..1_000u64 {
            // 100 B every 1 ms = 100 kB/s offered, 10x the rate.
            if tb.conforms(100, SimTime::from_millis(i)) {
                passed += 100;
            }
        }
        assert!(passed <= 12_100, "passed {passed} bytes, expected <= ~12kB");
        assert!(passed >= 10_000, "passed {passed} bytes, expected >= 10kB");
    }

    #[test]
    fn token_bucket_allows_initial_burst() {
        let mut tb = TokenBucket::new(Bandwidth::from_kbps(8), 5_000);
        assert!(tb.conforms(5_000, SimTime::ZERO));
        assert!(!tb.conforms(100, SimTime::ZERO));
    }

    #[test]
    fn token_bucket_rate_update_takes_effect() {
        let mut tb = TokenBucket::new(Bandwidth::from_bps(0), 1_000);
        assert!(tb.conforms(1_000, SimTime::ZERO)); // initial burst
        assert!(!tb.conforms(1_000, SimTime::from_secs(10))); // zero refill
        tb.set_rate(Bandwidth::from_kbps(8)); // 1 kB/s
        assert!(tb.conforms(1_000, SimTime::from_secs(12)));
    }
}
