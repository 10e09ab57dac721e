//! The scheduling score of Fig. 11a.
//!
//! The paper scores a ranking algorithm as "the percentage of one-second
//! intervals in the simulation where the average priority given to benign
//! traffic is higher than the one given to malicious traffic". Priorities
//! here are queue indices (lower = better), so an interval scores when
//! benign's mean queue index is strictly lower than malicious's.

use accturbo_netsim::{ClassId, SimDuration, SimTime};
use accturbo_obs::{Event, Tracer};

/// Accumulates per-interval priority averages per traffic kind.
#[derive(Debug, Clone)]
pub struct SchedulingScore {
    interval: SimDuration,
    /// Per interval: (benign priority sum, benign count, attack priority
    /// sum, attack count).
    intervals: Vec<(u64, u64, u64, u64)>,
}

impl SchedulingScore {
    /// Creates a scorer with the paper's 1 s intervals.
    pub fn new() -> Self {
        Self::with_interval(SimDuration::from_secs(1))
    }

    /// Creates a scorer with a custom interval width.
    pub fn with_interval(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "interval must be positive");
        SchedulingScore {
            interval,
            intervals: Vec::new(),
        }
    }

    /// Records a packet scheduled at `now` with priority `queue` (lower =
    /// better) and ground truth `class`.
    pub fn record(&mut self, now: SimTime, queue: usize, class: ClassId) {
        let idx = now.bucket(self.interval) as usize;
        if self.intervals.len() <= idx {
            self.intervals.resize(idx + 1, (0, 0, 0, 0));
        }
        let slot = &mut self.intervals[idx];
        if class.is_benign() {
            slot.0 += queue as u64;
            slot.1 += 1;
        } else {
            slot.2 += queue as u64;
            slot.3 += 1;
        }
    }

    /// The score: percentage of mixed intervals where benign traffic's
    /// average queue index is strictly lower (better) than malicious
    /// traffic's. Zero when no interval carried both kinds.
    pub fn score(&self) -> f64 {
        let mut mixed = 0u64;
        let mut won = 0u64;
        for &(bsum, bcnt, msum, mcnt) in &self.intervals {
            if bcnt == 0 || mcnt == 0 {
                continue;
            }
            mixed += 1;
            let b_avg = bsum as f64 / bcnt as f64;
            let m_avg = msum as f64 / mcnt as f64;
            if b_avg < m_avg {
                won += 1;
            }
        }
        if mixed == 0 {
            0.0
        } else {
            100.0 * won as f64 / mixed as f64
        }
    }

    /// Number of intervals carrying both benign and malicious traffic.
    pub fn mixed_intervals(&self) -> usize {
        self.intervals
            .iter()
            .filter(|&&(_, b, _, m)| b > 0 && m > 0)
            .count()
    }
}

impl Default for SchedulingScore {
    fn default() -> Self {
        Self::new()
    }
}

/// Scores the switch's `enqueue` events: each packet at its trace
/// timestamp (on a single switch, its arrival), with the queue it was
/// given. Install it behind `Rc<RefCell<_>>` as the switch's tracer.
impl Tracer for SchedulingScore {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ts_ns: u64, event: &Event<'_>) {
        if let Event::Enqueue { queue, class, .. } = *event {
            SchedulingScore::record(self, SimTime::from_nanos(ts_ns), queue, ClassId(class));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation_scores_100() {
        let mut s = SchedulingScore::new();
        for sec in 0..10u64 {
            let t = SimTime::from_secs(sec);
            s.record(t, 0, ClassId::BENIGN);
            s.record(t, 3, ClassId(1));
        }
        assert_eq!(s.score(), 100.0);
        assert_eq!(s.mixed_intervals(), 10);
    }

    #[test]
    fn inverted_priorities_score_0() {
        let mut s = SchedulingScore::new();
        for sec in 0..10u64 {
            let t = SimTime::from_secs(sec);
            s.record(t, 3, ClassId::BENIGN);
            s.record(t, 0, ClassId(1));
        }
        assert_eq!(s.score(), 0.0);
    }

    #[test]
    fn ties_do_not_count_as_wins() {
        let mut s = SchedulingScore::new();
        s.record(SimTime::ZERO, 1, ClassId::BENIGN);
        s.record(SimTime::ZERO, 1, ClassId(1));
        assert_eq!(s.score(), 0.0);
    }

    #[test]
    fn single_kind_intervals_are_skipped() {
        let mut s = SchedulingScore::new();
        s.record(SimTime::from_secs(0), 0, ClassId::BENIGN); // benign only
        s.record(SimTime::from_secs(1), 0, ClassId::BENIGN);
        s.record(SimTime::from_secs(1), 3, ClassId(1)); // mixed, won
        assert_eq!(s.mixed_intervals(), 1);
        assert_eq!(s.score(), 100.0);
    }

    #[test]
    fn averaging_within_an_interval() {
        let mut s = SchedulingScore::new();
        // Benign avg (0+2)/2 = 1; malicious avg 2 -> win.
        s.record(SimTime::ZERO, 0, ClassId::BENIGN);
        s.record(SimTime::ZERO, 2, ClassId::BENIGN);
        s.record(SimTime::ZERO, 2, ClassId(1));
        assert_eq!(s.score(), 100.0);
    }

    #[test]
    fn empty_scorer_is_zero() {
        assert_eq!(SchedulingScore::new().score(), 0.0);
    }
}
