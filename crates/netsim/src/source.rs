//! Packet sources and the k-way time-ordered merge.
//!
//! Workload generators (the `accturbo-traffic` crate) implement
//! [`PacketSource`]; the engine consumes a single source, so experiments
//! compose background and attack generators with [`MergedSource`].

use crate::calendar::Calendar;
use crate::packet::Packet;
use crate::time::SimTime;

/// How a [`PacketSource::fill`] call ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Filled {
    /// The output reached its `max` length.
    Full,
    /// The source yielded this packet, which arrives at or past `until`.
    /// It was not appended: the caller owns it, and the source's next
    /// packet is the one after it.
    Held(Packet),
    /// The source is exhausted.
    Done,
}

/// A stream of packets in nondecreasing arrival-time order.
pub trait PacketSource {
    /// The next packet, or `None` when the source is exhausted.
    ///
    /// Implementations must yield nondecreasing `arrival` times;
    /// [`MergedSource`] enforces this with a debug assertion.
    fn next_packet(&mut self) -> Option<Packet>;

    /// Appends the source's next packets that arrive before `until` to
    /// `out` until `out.len() == max`. The packets and their order are
    /// exactly what the same number of [`next_packet`](Self::next_packet)
    /// calls would yield; a batch only saves the per-packet call.
    ///
    /// The default body pulls through `next_packet`, so each source gets
    /// a statically dispatched loop; a source that can copy whole runs
    /// overrides it.
    #[inline]
    fn fill(&mut self, out: &mut Vec<Packet>, max: usize, until: SimTime) -> Filled {
        while out.len() < max {
            match self.next_packet() {
                Some(pkt) if pkt.arrival < until => out.push(pkt),
                Some(pkt) => return Filled::Held(pkt),
                None => return Filled::Done,
            }
        }
        Filled::Full
    }
}

impl<S: PacketSource + ?Sized> PacketSource for Box<S> {
    fn next_packet(&mut self) -> Option<Packet> {
        (**self).next_packet()
    }

    // Forwarded, or a boxed source would fall back to one dynamic call
    // per packet.
    fn fill(&mut self, out: &mut Vec<Packet>, max: usize, until: SimTime) -> Filled {
        (**self).fill(out, max, until)
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
///
/// [`fill`](PacketSource::fill) merges by runs: the earliest source
/// fills the output directly up to the runner-up's head, so the
/// calendar is re-keyed once per run instead of once per packet.
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
            Some(pkt) => self.schedule(idx, pkt),
            None => self.calendar.remove(idx),
        }
    }

    /// Makes `pkt` source `idx`'s head and schedules the source at it.
    fn schedule(&mut self, idx: usize, pkt: Packet) {
        self.calendar.set(idx, pkt.arrival);
        self.heads[idx] = Some(pkt);
    }

    /// Takes the earliest source's head and refills that source.
    fn pop(&mut self, idx: usize) -> Packet {
        let mut pkt = self.heads[idx]
            .take()
            .expect("a scheduled source has a head");
        self.refill(idx);
        self.stamp(idx, &mut pkt);
        pkt
    }

    /// Numbers `pkt`, the next packet out, which came from source `idx`.
    #[inline]
    fn stamp(&mut self, idx: usize, pkt: &mut Packet) {
        debug_assert!(
            pkt.arrival >= self.last_emitted,
            "source {idx} emitted a packet out of order ({} < {})",
            pkt.arrival,
            self.last_emitted,
        );
        self.last_emitted = pkt.arrival;
        pkt.seq = self.next_seq;
        self.next_seq += 1;
    }
}

impl PacketSource for MergedSource {
    fn next_packet(&mut self) -> Option<Packet> {
        let (idx, _) = self.calendar.peek()?;
        Some(self.pop(idx))
    }

    /// One run per step: the earliest source `i` emits its head, then
    /// fills `out` itself with every packet that precedes the runner-up
    /// head `(t_j, j)`. Under the `(arrival, index)` order a packet of
    /// `i` at `t` precedes it when `t < t_j`, or `t == t_j` and `i < j`,
    /// so the run's bound is `t_j + 1 ns` when `i < j` and `t_j`
    /// otherwise (and never past `until`). The packet that ends the run
    /// becomes `i`'s head, so every source holds exactly the head the
    /// per-packet merge would.
    fn fill(&mut self, out: &mut Vec<Packet>, max: usize, until: SimTime) -> Filled {
        loop {
            if out.len() >= max {
                return Filled::Full;
            }
            let Some((i, t_i)) = self.calendar.peek() else {
                return Filled::Done;
            };
            if t_i >= until {
                return Filled::Held(self.pop(i));
            }
            let bound = match self.calendar.runner_up() {
                Some((j, t_j)) if i < j => SimTime::from_nanos(t_j.as_nanos().saturating_add(1)),
                Some((_, t_j)) => t_j,
                None => SimTime::MAX,
            }
            .min(until);
            let head = self.heads[i].take().expect("a scheduled source has a head");
            let start = out.len();
            out.push(head);
            match self.sources[i].fill(out, max, bound) {
                Filled::Full => self.refill(i),
                Filled::Held(pkt) => self.schedule(i, pkt),
                Filled::Done => self.calendar.remove(i),
            }
            for pkt in &mut out[start..] {
                self.stamp(i, pkt);
            }
        }
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
        let merge = || {
            MergedSource::new(vec![
                tagged(0, &[1, 1, 3]),
                tagged(1, &[0, 1, 3, 3]),
                tagged(2, &[1, 2, 3]),
                tagged(3, &[]),
                tagged(4, &[0, 3]),
            ])
        };
        let mut m = merge();
        let stream: Vec<Packet> = std::iter::from_fn(|| m.next_packet()).collect();
        let order: Vec<(u64, u16, u16)> = stream
            .iter()
            .map(|p| (p.arrival.as_nanos() / 1_000_000, p.ip_id, p.ip_len))
            .collect();
        let mut want = order.clone();
        want.sort();
        assert_eq!(order, want);
        assert_eq!(order.len(), 12);
        assert_eq!(order[0], (0, 1, 0));
        assert_eq!(order[1], (0, 4, 0));

        // The run-length merge must leave ties in the same order, whatever
        // the batch size and wherever `until` cuts (on a tie instant, or
        // between instants).
        for max in 1..=13 {
            for until_ms in [0, 1, 2, 3, 4, u64::MAX / 1_000_000] {
                let until = SimTime::from_millis(until_ms);
                assert_eq!(
                    drain_by_fill(&mut merge(), max, until),
                    stream,
                    "max {max}, until {until_ms} ms"
                );
            }
        }
    }

    /// Drains `src` through `fill` calls of up to `max` packets each,
    /// the first one bounded by `until`; a held packet is appended in
    /// its turn.
    fn drain_by_fill(src: &mut dyn PacketSource, max: usize, until: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        let mut until = until;
        loop {
            let cap = out.len() + max;
            match src.fill(&mut out, cap, until) {
                Filled::Full => {}
                Filled::Held(pkt) => out.push(pkt),
                Filled::Done => return out,
            }
            until = SimTime::MAX;
        }
    }

    #[test]
    fn default_and_boxed_fill_match_next_packet() {
        let times = [0, 0, 2, 5, 5, 5, 9];
        let want = pkts(&times);
        for max in 1..=8 {
            for until_ms in [0, 2, 5, 6, 10] {
                let until = SimTime::from_millis(until_ms);
                let mut plain = VecSource::new(pkts(&times));
                let mut boxed: Box<dyn PacketSource> = Box::new(VecSource::new(pkts(&times)));
                assert_eq!(drain_by_fill(&mut plain, max, until), want);
                assert_eq!(drain_by_fill(&mut boxed, max, until), want);
            }
        }
    }

    #[test]
    fn fill_holds_the_first_packet_at_or_past_until() {
        let mut m = MergedSource::new(vec![
            Box::new(VecSource::new(pkts(&[0, 4, 8]))),
            Box::new(VecSource::new(pkts(&[4, 6]))),
        ]);
        let mut out = Vec::new();
        match m.fill(&mut out, 10, SimTime::from_millis(4)) {
            Filled::Held(p) => {
                assert_eq!(p.arrival, SimTime::from_millis(4));
                assert_eq!(p.seq, 1, "a held packet is numbered in its turn");
            }
            other => panic!("expected a held packet, got {other:?}"),
        }
        assert_eq!(out.len(), 1);
        assert_eq!(m.fill(&mut out, 3, SimTime::MAX), Filled::Full);
        assert_eq!(
            m.fill(&mut out, 3, SimTime::MAX),
            Filled::Full,
            "already full"
        );
        assert_eq!(m.fill(&mut out, 10, SimTime::MAX), Filled::Done);
        let seqs: Vec<u64> = out.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![0, 2, 3, 4]);
    }

    #[test]
    fn empty_merge_is_empty() {
        let mut m = MergedSource::new(vec![]);
        assert!(m.next_packet().is_none());
    }
}
