//! Packet sources and the k-way time-ordered merge.
//!
//! Workload generators (the `accturbo-traffic` crate) implement
//! [`PacketSource`]; the engine consumes a single source, so experiments
//! compose background and attack generators with [`MergedSource`].

use crate::calendar::Calendar;
use crate::packet::Packet;
use crate::time::SimTime;

/// A stream of packets in nondecreasing arrival-time order.
pub trait PacketSource {
    /// The next packet, or `None` when the source is exhausted.
    ///
    /// Implementations must yield nondecreasing `arrival` times;
    /// [`MergedSource`] enforces this with a debug assertion.
    fn next_packet(&mut self) -> Option<Packet>;
}

impl<S: PacketSource + ?Sized> PacketSource for Box<S> {
    fn next_packet(&mut self) -> Option<Packet> {
        (**self).next_packet()
    }
}

/// A source backed by a pre-built, time-sorted vector of packets.
#[derive(Debug, Clone)]
pub struct VecSource {
    packets: std::vec::IntoIter<Packet>,
}

impl VecSource {
    /// Wraps `packets`, sorting them by arrival time (stable, so packets
    /// with equal timestamps keep their relative order).
    pub fn new(mut packets: Vec<Packet>) -> Self {
        packets.sort_by_key(|p| p.arrival);
        VecSource {
            packets: packets.into_iter(),
        }
    }
}

impl PacketSource for VecSource {
    fn next_packet(&mut self) -> Option<Packet> {
        self.packets.next()
    }
}

/// An adapter making any correctly-ordered packet iterator a source.
pub struct IterSource<I: Iterator<Item = Packet>> {
    iter: I,
}

impl<I: Iterator<Item = Packet>> IterSource<I> {
    /// Wraps `iter`, which must yield nondecreasing arrival times.
    pub fn new(iter: I) -> Self {
        IterSource { iter }
    }
}

impl<I: Iterator<Item = Packet>> PacketSource for IterSource<I> {
    fn next_packet(&mut self) -> Option<Packet> {
        self.iter.next()
    }
}

/// Merges several sources into one time-ordered stream and assigns each
/// emitted packet a unique, monotonically increasing sequence number.
///
/// Each source's next packet waits in `heads`, and the source's index is
/// scheduled in `calendar` at that packet's arrival. The calendar keys
/// `(arrival, source index)`, so equal arrivals leave in source order
/// and the merge is deterministic.
pub struct MergedSource {
    sources: Vec<Box<dyn PacketSource + Send>>,
    heads: Vec<Option<Packet>>,
    calendar: Calendar,
    next_seq: u64,
    last_emitted: SimTime,
}

impl MergedSource {
    /// Builds a merge over `sources`. They must be `Send` so the merge
    /// itself is, and can be generated on a producer thread
    /// ([`ThreadedSource`](crate::shard::ThreadedSource)).
    pub fn new(sources: Vec<Box<dyn PacketSource + Send>>) -> Self {
        let n = sources.len();
        let mut merged = MergedSource {
            sources,
            heads: (0..n).map(|_| None).collect(),
            calendar: Calendar::new(n),
            next_seq: 0,
            last_emitted: SimTime::ZERO,
        };
        for idx in 0..n {
            merged.refill(idx);
        }
        merged
    }

    /// Buffers source `idx`'s next packet and schedules the source at its
    /// arrival, or unschedules an exhausted source.
    fn refill(&mut self, idx: usize) {
        match self.sources[idx].next_packet() {
            Some(pkt) => {
                self.calendar.set(idx, pkt.arrival);
                self.heads[idx] = Some(pkt);
            }
            None => self.calendar.remove(idx),
        }
    }
}

impl PacketSource for MergedSource {
    fn next_packet(&mut self) -> Option<Packet> {
        let (idx, _) = self.calendar.peek()?;
        let mut pkt = self.heads[idx]
            .take()
            .expect("a scheduled source has a head");
        self.refill(idx);
        debug_assert!(
            pkt.arrival >= self.last_emitted,
            "source {idx} emitted a packet out of order ({} < {})",
            pkt.arrival,
            self.last_emitted,
        );
        self.last_emitted = pkt.arrival;
        pkt.seq = self.next_seq;
        self.next_seq += 1;
        Some(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkts(times_ms: &[u64]) -> Vec<Packet> {
        times_ms
            .iter()
            .map(|&t| Packet::new(SimTime::from_millis(t)))
            .collect()
    }

    #[test]
    fn vec_source_sorts_input() {
        let mut s = VecSource::new(pkts(&[30, 10, 20]));
        let order: Vec<u64> = std::iter::from_fn(|| s.next_packet())
            .map(|p| p.arrival.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn merge_interleaves_in_time_order() {
        let a = Box::new(VecSource::new(pkts(&[0, 20, 40])));
        let b = Box::new(VecSource::new(pkts(&[10, 30, 50])));
        let mut m = MergedSource::new(vec![a, b]);
        let order: Vec<u64> = std::iter::from_fn(|| m.next_packet())
            .map(|p| p.arrival.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(order, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn merge_assigns_unique_increasing_seq() {
        let a = Box::new(VecSource::new(pkts(&[0, 5])));
        let b = Box::new(VecSource::new(pkts(&[2, 7])));
        let mut m = MergedSource::new(vec![a, b]);
        let seqs: Vec<u64> = std::iter::from_fn(|| m.next_packet())
            .map(|p| p.seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn merge_tie_break_is_deterministic() {
        let run = || {
            let a = Box::new(VecSource::new(pkts(&[5, 5])));
            let b = Box::new(VecSource::new(pkts(&[5])));
            let mut m = MergedSource::new(vec![a, b]);
            std::iter::from_fn(move || m.next_packet())
                .map(|p| p.seq)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        assert_eq!(run().len(), 3);
    }

    #[test]
    fn equal_arrivals_leave_in_source_order() {
        // Every source emits at the same few instants; each packet is
        // tagged with its source index in `ip_id`. At every instant the
        // merge must emit source 0's packets first, then source 1's, …
        // (a source's own packets keep their order).
        let tagged = |src: u16, times_ms: &[u64]| -> Box<dyn PacketSource + Send> {
            let mut pkts = pkts(times_ms);
            for (k, p) in pkts.iter_mut().enumerate() {
                p.ip_id = src;
                p.ip_len = k as u16;
            }
            Box::new(VecSource::new(pkts))
        };
        let mut m = MergedSource::new(vec![
            tagged(0, &[1, 1, 3]),
            tagged(1, &[0, 1, 3, 3]),
            tagged(2, &[1, 2, 3]),
            tagged(3, &[]),
            tagged(4, &[0, 3]),
        ]);
        let order: Vec<(u64, u16, u16)> = std::iter::from_fn(|| m.next_packet())
            .map(|p| (p.arrival.as_nanos() / 1_000_000, p.ip_id, p.ip_len))
            .collect();
        let mut want = order.clone();
        want.sort();
        assert_eq!(order, want);
        assert_eq!(order.len(), 12);
        assert_eq!(order[0], (0, 1, 0));
        assert_eq!(order[1], (0, 4, 0));
    }

    #[test]
    fn empty_merge_is_empty() {
        let mut m = MergedSource::new(vec![]);
        assert!(m.next_packet().is_none());
    }
}
