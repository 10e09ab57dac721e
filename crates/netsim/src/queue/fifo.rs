//! Tail-drop FIFO queue.

use super::QueueDiscipline;
use crate::packet::{DropReason, Dropped, Packet};
use crate::time::SimTime;
use std::collections::VecDeque;

/// A byte-bounded First-In First-Out queue with tail drop.
///
/// This is both the undefended baseline of every experiment ("FIFO" in the
/// figures) and the building block of [`super::PriorityBank`].
#[derive(Debug, Clone)]
pub struct FifoQueue {
    queue: VecDeque<Packet>,
    cap_bytes: u64,
    cap_pkts: usize,
    bytes: u64,
}

impl FifoQueue {
    /// Creates a FIFO with the given capacity in bytes.
    ///
    /// Panics on a zero capacity, which could never accept a packet.
    pub fn new(cap_bytes: u64) -> Self {
        assert!(cap_bytes > 0, "FIFO capacity must be positive");
        FifoQueue {
            queue: VecDeque::new(),
            cap_bytes,
            cap_pkts: usize::MAX,
            bytes: 0,
        }
    }

    /// Additionally caps the queue at `pkts` packets. Real switch buffers
    /// are organized in fixed-size cells, so a nearly-full queue does not
    /// preferentially admit small packets the way a pure byte cap would.
    pub fn with_pkt_cap(mut self, pkts: usize) -> Self {
        assert!(pkts > 0, "packet cap must be positive");
        self.cap_pkts = pkts;
        self
    }

    /// Whether `pkt` would fit right now.
    pub fn fits(&self, pkt: &Packet) -> bool {
        self.bytes + pkt.size as u64 <= self.cap_bytes && self.queue.len() < self.cap_pkts
    }

    /// Peeks at the head-of-line packet.
    pub fn peek(&self) -> Option<&Packet> {
        self.queue.front()
    }
}

impl QueueDiscipline for FifoQueue {
    fn enqueue(&mut self, pkt: Packet, _now: SimTime, drops: &mut Vec<Dropped>) {
        if self.fits(&pkt) {
            self.bytes += pkt.size as u64;
            self.queue.push_back(pkt);
        } else {
            drops.push(Dropped {
                packet: pkt,
                reason: DropReason::TailDrop,
            });
        }
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Packet> {
        let pkt = self.queue.pop_front()?;
        self.bytes -= pkt.size as u64;
        Some(pkt)
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }

    fn len_pkts(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn pkt(size: u32, seq: u64) -> Packet {
        let mut p = Packet::new(SimTime::ZERO).with_size(size);
        p.seq = seq;
        p
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = FifoQueue::new(10_000);
        let mut drops = Vec::new();
        for i in 0..5 {
            q.enqueue(pkt(100, i), SimTime::ZERO, &mut drops);
        }
        assert!(drops.is_empty());
        for i in 0..5 {
            assert_eq!(q.dequeue(SimTime::ZERO).unwrap().seq, i);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn tail_drop_on_overflow() {
        let mut q = FifoQueue::new(250);
        let mut drops = Vec::new();
        q.enqueue(pkt(100, 0), SimTime::ZERO, &mut drops);
        q.enqueue(pkt(100, 1), SimTime::ZERO, &mut drops);
        q.enqueue(pkt(100, 2), SimTime::ZERO, &mut drops); // would exceed 250
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].packet.seq, 2);
        assert_eq!(drops[0].reason, DropReason::TailDrop);
        assert_eq!(q.len_pkts(), 2);
        assert_eq!(q.len_bytes(), 200);
    }

    #[test]
    fn byte_accounting_through_mixed_ops() {
        let mut q = FifoQueue::new(1_000);
        let mut drops = Vec::new();
        q.enqueue(pkt(300, 0), SimTime::ZERO, &mut drops);
        q.enqueue(pkt(400, 1), SimTime::ZERO, &mut drops);
        assert_eq!(q.len_bytes(), 700);
        q.dequeue(SimTime::ZERO);
        assert_eq!(q.len_bytes(), 400);
        q.enqueue(pkt(600, 2), SimTime::ZERO, &mut drops);
        assert_eq!(q.len_bytes(), 1_000);
        assert!(!q.fits(&pkt(1, 3)));
    }

    #[test]
    fn exact_fit_accepted() {
        let mut q = FifoQueue::new(100);
        let mut drops = Vec::new();
        q.enqueue(pkt(100, 0), SimTime::ZERO, &mut drops);
        assert!(drops.is_empty());
        assert_eq!(q.len_bytes(), 100);
    }

    #[test]
    fn dequeue_empty_returns_none() {
        let mut q = FifoQueue::new(100);
        assert!(q.dequeue(SimTime::ZERO).is_none());
    }
}
