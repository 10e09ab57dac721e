//! Strict-priority queue bank.
//!
//! ACC-Turbo's data plane maps every packet to one of a small number of
//! priority queues (paper §5.2, §6); the traffic manager then drains the
//! queues in strict priority order (queue 0 first). The bank models a
//! shared packet buffer carved into per-queue byte budgets, like the
//! Tofino traffic manager the paper deploys on.

use super::{FifoQueue, QueueDiscipline};
use crate::packet::{Dropped, Packet};
use crate::time::SimTime;

/// A bank of strict-priority FIFO queues. Queue 0 has the highest priority.
#[derive(Debug, Clone)]
pub struct PriorityBank {
    queues: Vec<FifoQueue>,
    shared_cap: u64,
}

impl PriorityBank {
    /// Creates `n` queues, each with `cap_bytes_each` bytes of buffer.
    ///
    /// Panics when `n` is zero.
    pub fn new(n: usize, cap_bytes_each: u64) -> Self {
        assert!(n > 0, "a priority bank needs at least one queue");
        PriorityBank {
            queues: (0..n).map(|_| FifoQueue::new(cap_bytes_each)).collect(),
            shared_cap: u64::MAX,
        }
    }

    /// Additionally caps the *total* buffered bytes across all queues,
    /// modeling a traffic manager's shared packet buffer: each queue may
    /// burst up to its own cap, but the bank never holds more than
    /// `shared_cap` in total.
    pub fn with_shared_cap(mut self, shared_cap: u64) -> Self {
        assert!(shared_cap > 0, "shared capacity must be positive");
        self.shared_cap = shared_cap;
        self
    }

    /// Number of queues in the bank.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Enqueues `pkt` into queue `idx` (clamped to the lowest priority if
    /// out of range, mirroring a table miss mapped to best effort).
    pub fn enqueue_to(&mut self, idx: usize, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
        let idx = idx.min(self.queues.len() - 1);
        if self.len_bytes() + pkt.size as u64 > self.shared_cap {
            drops.push(Dropped {
                packet: pkt,
                reason: crate::packet::DropReason::TailDrop,
            });
            return;
        }
        self.queues[idx].enqueue(pkt, now, drops);
    }

    /// Packets queued at priority `idx`.
    pub fn len_pkts_at(&self, idx: usize) -> usize {
        self.queues[idx].len_pkts()
    }
}

impl QueueDiscipline for PriorityBank {
    /// Trait-level enqueue targets the highest-priority queue; pipelines
    /// that classify packets use [`PriorityBank::enqueue_to`] instead.
    fn enqueue(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
        self.enqueue_to(0, pkt, now, drops);
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        self.queues.iter_mut().find_map(|q| q.dequeue(now))
    }

    fn len_bytes(&self) -> u64 {
        self.queues.iter().map(|q| q.len_bytes()).sum()
    }

    fn len_pkts(&self) -> usize {
        self.queues.iter().map(|q| q.len_pkts()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(seq: u64) -> Packet {
        let mut p = Packet::new(SimTime::ZERO).with_size(100);
        p.seq = seq;
        p
    }

    #[test]
    fn strict_priority_ordering() {
        let mut bank = PriorityBank::new(3, 10_000);
        let mut drops = Vec::new();
        bank.enqueue_to(2, pkt(0), SimTime::ZERO, &mut drops);
        bank.enqueue_to(0, pkt(1), SimTime::ZERO, &mut drops);
        bank.enqueue_to(1, pkt(2), SimTime::ZERO, &mut drops);
        bank.enqueue_to(0, pkt(3), SimTime::ZERO, &mut drops);
        let order: Vec<u64> = std::iter::from_fn(|| bank.dequeue(SimTime::ZERO))
            .map(|p| p.seq)
            .collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn per_queue_overflow_is_isolated() {
        let mut bank = PriorityBank::new(2, 150);
        let mut drops = Vec::new();
        bank.enqueue_to(1, pkt(0), SimTime::ZERO, &mut drops);
        bank.enqueue_to(1, pkt(1), SimTime::ZERO, &mut drops); // overflows queue 1
        bank.enqueue_to(0, pkt(2), SimTime::ZERO, &mut drops); // queue 0 unaffected
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].packet.seq, 1);
        assert_eq!(bank.len_pkts_at(0), 1);
        assert_eq!(bank.len_pkts_at(1), 1);
    }

    #[test]
    fn out_of_range_index_maps_to_lowest_priority() {
        let mut bank = PriorityBank::new(2, 10_000);
        let mut drops = Vec::new();
        bank.enqueue_to(99, pkt(0), SimTime::ZERO, &mut drops);
        assert_eq!(bank.len_pkts_at(1), 1);
    }

    #[test]
    fn aggregate_accounting() {
        let mut bank = PriorityBank::new(4, 10_000);
        let mut drops = Vec::new();
        for i in 0..8 {
            bank.enqueue_to((i % 4) as usize, pkt(i), SimTime::ZERO, &mut drops);
        }
        assert_eq!(bank.len_pkts(), 8);
        assert_eq!(bank.len_bytes(), 800);
    }
}
