//! Per-class traffic statistics.
//!
//! Every experiment in the paper reports one of three quantities, all
//! computed here from arrival/departure/drop events: per-class throughput
//! time series (Figs. 2, 3, 6, 7), drop-rate time series (Fig. 2 bottom),
//! and benign-drop percentages (Table 3, Figs. 3b, 8, 11b).

use crate::packet::{ClassId, Dropped, Packet};
use crate::time::{SimDuration, SimTime};

/// Packet and byte counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Number of packets.
    pub pkts: u64,
    /// Number of bytes.
    pub bytes: u64,
}

impl Counts {
    fn add(&mut self, pkt: &Packet) {
        self.pkts += 1;
        self.bytes += pkt.size as u64;
    }
}

/// Counters for one time bucket, per class.
#[derive(Debug, Clone, Default)]
pub struct Bucket {
    arrived: Vec<Counts>,
    departed: Vec<Counts>,
    dropped: Vec<Counts>,
}

impl Bucket {
    fn slot(v: &mut Vec<Counts>, class: ClassId) -> &mut Counts {
        let idx = class.0 as usize;
        if v.len() <= idx {
            v.resize(idx + 1, Counts::default());
        }
        &mut v[idx]
    }

    fn get(v: &[Counts], class: ClassId) -> Counts {
        v.get(class.0 as usize).copied().unwrap_or_default()
    }

    fn total(v: &[Counts]) -> Counts {
        v.iter().fold(Counts::default(), |acc, c| Counts {
            pkts: acc.pkts + c.pkts,
            bytes: acc.bytes + c.bytes,
        })
    }
}

/// Collects per-class counters into fixed-width time buckets.
#[derive(Debug, Clone)]
pub struct StatsCollector {
    interval: SimDuration,
    buckets: Vec<Bucket>,
}

impl StatsCollector {
    /// Creates a collector with the given bucket width.
    pub fn new(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "stats interval must be positive");
        StatsCollector {
            interval,
            buckets: Vec::new(),
        }
    }

    /// The configured bucket width.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Number of buckets touched so far.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    fn bucket_mut(&mut self, t: SimTime) -> &mut Bucket {
        let idx = t.bucket(self.interval) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, Bucket::default());
        }
        &mut self.buckets[idx]
    }

    /// Records a packet arriving at the switch.
    pub fn on_arrival(&mut self, pkt: &Packet) {
        let t = pkt.arrival;
        let class = pkt.class;
        Bucket::slot(&mut self.bucket_mut(t).arrived, class).add(pkt);
    }

    /// Records a packet finishing transmission on the output link at `now`.
    pub fn on_depart(&mut self, pkt: &Packet, now: SimTime) {
        let class = pkt.class;
        Bucket::slot(&mut self.bucket_mut(now).departed, class).add(pkt);
    }

    /// Records a drop at `now`.
    pub fn on_drop(&mut self, dropped: &Dropped, now: SimTime) {
        let class = dropped.packet.class;
        Bucket::slot(&mut self.bucket_mut(now).dropped, class).add(&dropped.packet);
    }

    /// Departed throughput of `class` in bucket `idx`, in bits per second.
    pub fn throughput_bps(&self, idx: usize, class: ClassId) -> f64 {
        let bytes = self
            .buckets
            .get(idx)
            .map(|b| Bucket::get(&b.departed, class).bytes)
            .unwrap_or(0);
        bytes as f64 * 8.0 / self.interval.as_secs_f64()
    }

    /// Arrival (offered) rate of `class` in bucket `idx`, in bits/s.
    pub fn arrival_bps(&self, idx: usize, class: ClassId) -> f64 {
        let bytes = self
            .buckets
            .get(idx)
            .map(|b| Bucket::get(&b.arrived, class).bytes)
            .unwrap_or(0);
        bytes as f64 * 8.0 / self.interval.as_secs_f64()
    }

    /// Departed throughput of all attack classes combined in bucket `idx`.
    pub fn attack_throughput_bps(&self, idx: usize) -> f64 {
        let Some(b) = self.buckets.get(idx) else {
            return 0.0;
        };
        let bytes: u64 = b
            .departed
            .iter()
            .enumerate()
            .filter(|(class, _)| ClassId(*class as u16).is_attack())
            .map(|(_, c)| c.bytes)
            .sum();
        bytes as f64 * 8.0 / self.interval.as_secs_f64()
    }

    /// Drop rate (dropped pkts / arrived pkts) in bucket `idx`, across all
    /// classes; zero when nothing arrived.
    pub fn drop_rate(&self, idx: usize) -> f64 {
        let Some(b) = self.buckets.get(idx) else {
            return 0.0;
        };
        let arrived = Bucket::total(&b.arrived).pkts;
        if arrived == 0 {
            return 0.0;
        }
        Bucket::total(&b.dropped).pkts as f64 / arrived as f64
    }

    /// Total arrived counts for `class` over the whole run.
    pub fn total_arrived(&self, class: ClassId) -> Counts {
        self.fold(|b| Bucket::get(&b.arrived, class))
    }

    /// Total departed counts for `class` over the whole run.
    pub fn total_departed(&self, class: ClassId) -> Counts {
        self.fold(|b| Bucket::get(&b.departed, class))
    }

    /// Total dropped counts for `class` over the whole run.
    pub fn total_dropped(&self, class: ClassId) -> Counts {
        self.fold(|b| Bucket::get(&b.dropped, class))
    }

    fn fold(&self, f: impl Fn(&Bucket) -> Counts) -> Counts {
        self.buckets.iter().fold(Counts::default(), |acc, b| {
            let c = f(b);
            Counts {
                pkts: acc.pkts + c.pkts,
                bytes: acc.bytes + c.bytes,
            }
        })
    }

    /// Percentage (0–100) of benign packets dropped over the whole run —
    /// the headline metric of Table 3 and Figs. 3b/8/11b.
    pub fn benign_drop_pct(&self) -> f64 {
        let arrived = self.total_arrived(ClassId::BENIGN).pkts;
        if arrived == 0 {
            return 0.0;
        }
        100.0 * self.total_dropped(ClassId::BENIGN).pkts as f64 / arrived as f64
    }

    /// Percentage (0–100) of packets of the given classes dropped over
    /// the whole run (e.g. the "benign" aggregates 1–4 of the Fig. 2/3
    /// scenarios, where class 0 is unused).
    pub fn drop_pct_of(&self, classes: &[ClassId]) -> f64 {
        let arrived: u64 = classes.iter().map(|&c| self.total_arrived(c).pkts).sum();
        if arrived == 0 {
            return 0.0;
        }
        let dropped: u64 = classes.iter().map(|&c| self.total_dropped(c).pkts).sum();
        100.0 * dropped as f64 / arrived as f64
    }

    /// Percentage (0–100) of packets of all attack classes dropped.
    pub fn attack_drop_pct(&self) -> f64 {
        let (mut arrived, mut dropped) = (0u64, 0u64);
        for b in &self.buckets {
            for (class, c) in b.arrived.iter().enumerate() {
                if ClassId(class as u16).is_attack() {
                    arrived += c.pkts;
                }
            }
            for (class, c) in b.dropped.iter().enumerate() {
                if ClassId(class as u16).is_attack() {
                    dropped += c.pkts;
                }
            }
        }
        if arrived == 0 {
            0.0
        } else {
            100.0 * dropped as f64 / arrived as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(t_ms: u64, size: u32, class: u16) -> Packet {
        Packet::new(SimTime::from_millis(t_ms))
            .with_size(size)
            .with_class(ClassId(class))
    }

    #[test]
    fn throughput_per_bucket() {
        let mut s = StatsCollector::new(SimDuration::from_secs(1));
        // 125_000 bytes departing in bucket 0 = 1 Mbps.
        let p = pkt(0, 125_000, 0);
        s.on_arrival(&p);
        s.on_depart(&p, SimTime::from_millis(500));
        assert_eq!(s.throughput_bps(0, ClassId::BENIGN), 1_000_000.0);
        assert_eq!(s.throughput_bps(1, ClassId::BENIGN), 0.0);
    }

    #[test]
    fn drop_rate_per_bucket() {
        let mut s = StatsCollector::new(SimDuration::from_secs(1));
        for i in 0..10 {
            let p = pkt(i * 10, 100, 0);
            s.on_arrival(&p);
            if i < 3 {
                s.on_drop(
                    &Dropped {
                        packet: p,
                        reason: crate::packet::DropReason::TailDrop,
                    },
                    SimTime::from_millis(i * 10),
                );
            }
        }
        assert!((s.drop_rate(0) - 0.3).abs() < 1e-12);
        assert_eq!(s.drop_rate(5), 0.0);
    }

    #[test]
    fn benign_drop_pct_counts_only_benign() {
        let mut s = StatsCollector::new(SimDuration::from_secs(1));
        for class in [0u16, 1] {
            for i in 0..4 {
                let p = pkt(i, 100, class);
                s.on_arrival(&p);
            }
        }
        // Drop 1 benign of 4 (25%) and 4 attack packets.
        s.on_drop(
            &Dropped {
                packet: pkt(0, 100, 0),
                reason: crate::packet::DropReason::TailDrop,
            },
            SimTime::ZERO,
        );
        for i in 0..4 {
            s.on_drop(
                &Dropped {
                    packet: pkt(i, 100, 1),
                    reason: crate::packet::DropReason::TailDrop,
                },
                SimTime::ZERO,
            );
        }
        assert!((s.benign_drop_pct() - 25.0).abs() < 1e-12);
        assert!((s.attack_drop_pct() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn attack_throughput_aggregates_classes() {
        let mut s = StatsCollector::new(SimDuration::from_secs(1));
        for class in [1u16, 2] {
            let p = pkt(100, 125_000, class);
            s.on_depart(&p, SimTime::from_millis(100));
        }
        assert_eq!(s.attack_throughput_bps(0), 2_000_000.0);
    }

    #[test]
    fn totals_accumulate_across_buckets() {
        let mut s = StatsCollector::new(SimDuration::from_secs(1));
        for t in [0u64, 1500, 3200] {
            let p = pkt(t, 100, 2);
            s.on_arrival(&p);
            s.on_depart(&p, SimTime::from_millis(t));
        }
        assert_eq!(s.total_arrived(ClassId(2)).pkts, 3);
        assert_eq!(s.total_departed(ClassId(2)).bytes, 300);
        assert_eq!(s.num_buckets(), 4);
    }

    #[test]
    fn events_exactly_on_an_interval_edge_open_the_next_bucket() {
        // Buckets are left-closed right-open: [0,1s) [1s,2s) ... An event
        // at exactly t = k*interval belongs to bucket k, never k-1.
        let mut s = StatsCollector::new(SimDuration::from_secs(1));
        let at = |ns: u64| {
            Packet::new(SimTime::from_nanos(ns))
                .with_size(100)
                .with_class(ClassId::BENIGN)
        };
        s.on_arrival(&at(0)); // opens bucket 0
        s.on_arrival(&at(1_000_000_000 - 1)); // last instant of bucket 0
        s.on_arrival(&at(1_000_000_000)); // first instant of bucket 1
        s.on_arrival(&at(2_000_000_000)); // first instant of bucket 2
        assert_eq!(s.num_buckets(), 3);
        let arrived_pkts = |idx: usize| {
            // Reconstruct per-bucket counts through the public rate API:
            // bytes/interval * interval = bytes; 100 B per packet.
            (s.arrival_bps(idx, ClassId::BENIGN) / 8.0 / 100.0).round() as u64
        };
        assert_eq!(arrived_pkts(0), 2);
        assert_eq!(arrived_pkts(1), 1);
        assert_eq!(arrived_pkts(2), 1);
    }

    #[test]
    fn departures_and_drops_bucket_by_event_time_not_arrival_time() {
        // A packet arriving late in bucket 0 but departing (or being
        // dropped) just past the edge must be charged to bucket 1.
        let mut s = StatsCollector::new(SimDuration::from_secs(1));
        let p = pkt(999, 125_000, 0); // arrival t = 0.999 s → bucket 0
        s.on_arrival(&p);
        s.on_depart(&p, SimTime::from_secs(1)); // edge → bucket 1
        assert_eq!(s.throughput_bps(0, ClassId::BENIGN), 0.0);
        assert_eq!(s.throughput_bps(1, ClassId::BENIGN), 1_000_000.0);

        let q = pkt(999, 100, 0);
        s.on_arrival(&q);
        s.on_drop(
            &Dropped {
                packet: q,
                reason: crate::packet::DropReason::TailDrop,
            },
            SimTime::from_secs(1),
        );
        // Both arrivals landed in bucket 0, the drop in bucket 1: the
        // bucket-0 drop rate stays zero even though the packet arrived
        // there — and so does bucket 1's, because drop_rate divides by
        // the *same bucket's* arrivals (none landed there). Only the
        // run-level totals see the drop.
        assert_eq!(s.drop_rate(0), 0.0);
        assert_eq!(s.drop_rate(1), 0.0);
        assert_eq!(s.total_dropped(ClassId::BENIGN).pkts, 1);
    }

    #[test]
    fn sub_second_intervals_normalize_rates_by_the_bucket_width() {
        // 250 ms buckets: 25_000 B in one bucket is 25_000*8/0.25 bps.
        let mut s = StatsCollector::new(SimDuration::from_millis(250));
        let p = pkt(0, 25_000, 0);
        s.on_arrival(&p);
        s.on_depart(&p, SimTime::from_millis(250)); // edge → bucket 1
        s.on_depart(&p, SimTime::from_millis(500)); // edge → bucket 2
        assert_eq!(s.num_buckets(), 3);
        assert_eq!(s.arrival_bps(0, ClassId::BENIGN), 800_000.0);
        assert_eq!(s.throughput_bps(0, ClassId::BENIGN), 0.0);
        assert_eq!(s.throughput_bps(1, ClassId::BENIGN), 800_000.0);
        assert_eq!(s.throughput_bps(2, ClassId::BENIGN), 800_000.0);
    }

    #[test]
    fn empty_collector_is_all_zero() {
        let s = StatsCollector::new(SimDuration::from_secs(1));
        assert_eq!(s.benign_drop_pct(), 0.0);
        assert_eq!(s.attack_drop_pct(), 0.0);
        assert_eq!(s.drop_rate(0), 0.0);
        assert_eq!(s.total_arrived(ClassId::BENIGN), Counts::default());
    }
}
