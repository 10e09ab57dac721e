//! Rank-ordered (PIFO) queue.
//!
//! A Push-In First-Out queue dequeues packets in ascending rank order
//! (lower rank = higher priority). Under overflow it sheds the *worst*
//! ranked packet — either the arriving one or a resident — which is exactly
//! the "only drops under severe congestion, starting with the most likely
//! malicious" behaviour the paper relies on (§3.2). The "PIFO Ideal"
//! baseline of §8.2 is this queue ranked by ground truth.

use super::QueueDiscipline;
use crate::packet::{DropReason, Dropped, Packet};
use crate::time::SimTime;
use std::collections::BTreeMap;

/// A byte-bounded PIFO. Ranks are assigned by the caller via
/// [`PifoQueue::enqueue_ranked`]; the plain [`QueueDiscipline::enqueue`]
/// uses rank 0.
#[derive(Debug, Clone)]
pub struct PifoQueue {
    /// Keyed by (rank, arrival sequence) so equal ranks stay FIFO.
    entries: BTreeMap<(u64, u64), Packet>,
    cap_bytes: u64,
    bytes: u64,
}

impl PifoQueue {
    /// Creates a PIFO with the given byte capacity.
    pub fn new(cap_bytes: u64) -> Self {
        assert!(cap_bytes > 0, "PIFO capacity must be positive");
        PifoQueue {
            entries: BTreeMap::new(),
            cap_bytes,
            bytes: 0,
        }
    }

    /// Offers `pkt` with `rank`. On overflow, evicts worst-ranked packets
    /// (which may be the arriving packet itself) until the buffer fits.
    pub fn enqueue_ranked(&mut self, pkt: Packet, rank: u64, drops: &mut Vec<Dropped>) {
        let mut incoming = Some((rank, pkt));
        while let Some((rank, pkt)) = incoming.take() {
            if self.bytes + pkt.size as u64 <= self.cap_bytes {
                self.bytes += pkt.size as u64;
                self.entries.insert((rank, pkt.seq), pkt);
                return;
            }
            // Overflow: compare the arriving packet against the worst
            // resident. Whichever has the worse (higher) rank is shed.
            match self.entries.last_key_value() {
                Some((&worst_key, _)) if worst_key.0 > rank => {
                    let evicted = self.entries.remove(&worst_key).expect("key just observed");
                    self.bytes -= evicted.size as u64;
                    drops.push(Dropped {
                        packet: evicted,
                        reason: DropReason::RankEviction,
                    });
                    incoming = Some((rank, pkt)); // retry the insert
                }
                _ => {
                    drops.push(Dropped {
                        packet: pkt,
                        reason: DropReason::RankEviction,
                    });
                    return;
                }
            }
        }
    }
}

impl QueueDiscipline for PifoQueue {
    fn enqueue(&mut self, pkt: Packet, _now: SimTime, drops: &mut Vec<Dropped>) {
        self.enqueue_ranked(pkt, 0, drops);
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Packet> {
        let (&key, _) = self.entries.first_key_value()?;
        let pkt = self.entries.remove(&key).expect("key just observed");
        self.bytes -= pkt.size as u64;
        Some(pkt)
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }

    fn len_pkts(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(seq: u64, size: u32) -> Packet {
        let mut p = Packet::new(SimTime::ZERO).with_size(size);
        p.seq = seq;
        p
    }

    #[test]
    fn dequeues_in_rank_order() {
        let mut q = PifoQueue::new(10_000);
        let mut drops = Vec::new();
        q.enqueue_ranked(pkt(0, 100), 5, &mut drops);
        q.enqueue_ranked(pkt(1, 100), 1, &mut drops);
        q.enqueue_ranked(pkt(2, 100), 3, &mut drops);
        let order: Vec<u64> = std::iter::from_fn(|| q.dequeue(SimTime::ZERO))
            .map(|p| p.seq)
            .collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn equal_ranks_stay_fifo() {
        let mut q = PifoQueue::new(10_000);
        let mut drops = Vec::new();
        for i in 0..4 {
            q.enqueue_ranked(pkt(i, 100), 7, &mut drops);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.dequeue(SimTime::ZERO))
            .map(|p| p.seq)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn overflow_evicts_worst_resident() {
        let mut q = PifoQueue::new(200);
        let mut drops = Vec::new();
        q.enqueue_ranked(pkt(0, 100), 9, &mut drops); // worst
        q.enqueue_ranked(pkt(1, 100), 2, &mut drops);
        q.enqueue_ranked(pkt(2, 100), 1, &mut drops); // overflow: evict seq 0
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].packet.seq, 0);
        assert_eq!(drops[0].reason, DropReason::RankEviction);
        assert_eq!(q.len_pkts(), 2);
    }

    #[test]
    fn overflow_rejects_arriving_when_it_is_worst() {
        let mut q = PifoQueue::new(200);
        let mut drops = Vec::new();
        q.enqueue_ranked(pkt(0, 100), 1, &mut drops);
        q.enqueue_ranked(pkt(1, 100), 2, &mut drops);
        q.enqueue_ranked(pkt(2, 100), 9, &mut drops); // arriving is worst
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].packet.seq, 2);
        assert_eq!(q.len_pkts(), 2);
    }

    #[test]
    fn overflow_can_evict_multiple_small_packets() {
        let mut q = PifoQueue::new(300);
        let mut drops = Vec::new();
        q.enqueue_ranked(pkt(0, 100), 9, &mut drops);
        q.enqueue_ranked(pkt(1, 100), 8, &mut drops);
        q.enqueue_ranked(pkt(2, 100), 7, &mut drops);
        // 300-byte arrival at best rank must push out all three residents.
        q.enqueue_ranked(pkt(3, 300), 0, &mut drops);
        assert_eq!(drops.len(), 3);
        assert_eq!(q.len_pkts(), 1);
    }

    #[test]
    fn byte_accounting_is_exact() {
        let mut q = PifoQueue::new(1_000);
        let mut drops = Vec::new();
        q.enqueue_ranked(pkt(0, 400), 1, &mut drops);
        q.enqueue_ranked(pkt(1, 500), 2, &mut drops);
        assert_eq!(q.len_bytes(), 900);
        q.dequeue(SimTime::ZERO);
        assert_eq!(q.len_bytes(), 500);
    }
}
