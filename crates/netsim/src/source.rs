//! Packet sources and the k-way time-ordered merge.
//!
//! Workload generators (the `accturbo-traffic` crate) implement
//! [`PacketSource`]; the engine consumes a single source, so experiments
//! compose background and attack generators with [`MergedSource`].

use crate::packet::Packet;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// Heap entry: (arrival, source index, buffered packet).
struct Head {
    arrival: SimTime,
    idx: usize,
    pkt: Packet,
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.arrival == other.arrival && self.idx == other.idx
    }
}
impl Eq for Head {}
impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Head {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Tie-break on source index so merging is deterministic.
        (self.arrival, self.idx).cmp(&(other.arrival, other.idx))
    }
}

/// Merges several sources into one time-ordered stream and assigns each
/// emitted packet a unique, monotonically increasing sequence number.
pub struct MergedSource {
    sources: Vec<Box<dyn PacketSource + Send>>,
    heads: BinaryHeap<Reverse<Head>>,
    next_seq: u64,
    last_emitted: SimTime,
}

impl MergedSource {
    /// Builds a merge over `sources`. They must be `Send` so the merge
    /// itself is, and can feed the sharded engine's producer thread
    /// (`ShardedEngine::run_stream`).
    pub fn new(sources: Vec<Box<dyn PacketSource + Send>>) -> Self {
        let mut merged = MergedSource {
            sources,
            heads: BinaryHeap::new(),
            next_seq: 0,
            last_emitted: SimTime::ZERO,
        };
        for idx in 0..merged.sources.len() {
            merged.refill(idx);
        }
        merged
    }

    fn refill(&mut self, idx: usize) {
        if let Some(pkt) = self.sources[idx].next_packet() {
            self.heads.push(Reverse(Head {
                arrival: pkt.arrival,
                idx,
                pkt,
            }));
        }
    }
}

impl PacketSource for MergedSource {
    fn next_packet(&mut self) -> Option<Packet> {
        let Reverse(head) = self.heads.pop()?;
        self.refill(head.idx);
        let mut pkt = head.pkt;
        debug_assert!(
            pkt.arrival >= self.last_emitted,
            "source {} emitted a packet out of order ({} < {})",
            head.idx,
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
    fn empty_merge_is_empty() {
        let mut m = MergedSource::new(vec![]);
        assert!(m.next_packet().is_none());
    }
}
