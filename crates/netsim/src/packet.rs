//! Packets and ground-truth classes.
//!
//! The simulator carries full header information for every packet because
//! ACC-Turbo's clustering (paper §4) can use any header field as a feature,
//! and classic ACC's inference clusters the IP addresses of dropped packets.
//! Each packet additionally carries a ground-truth [`ClassId`] (benign or a
//! specific attack vector) which defenses never see — it exists only so the
//! evaluation can compute purity/recall and benign-drop percentages.

use crate::time::SimTime;
use std::fmt;
use std::net::Ipv4Addr;

/// IP protocol numbers used by the workloads.
pub mod proto {
    /// ICMP (protocol number 1).
    pub const ICMP: u8 = 1;
    /// TCP (protocol number 6).
    pub const TCP: u8 = 6;
    /// UDP (protocol number 17).
    pub const UDP: u8 = 17;
}

/// Ground-truth class of a packet: benign background traffic, or one of the
/// attack/aggregate classes defined by the experiment.
///
/// Class 0 is always benign. Experiments assign classes 1.. to attack
/// vectors or to the numbered aggregates of the ACC experiments (Fig. 2/3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u16);

impl ClassId {
    /// The benign class.
    pub const BENIGN: ClassId = ClassId(0);

    /// True for the benign class.
    pub const fn is_benign(self) -> bool {
        self.0 == 0
    }

    /// True for any attack class.
    pub const fn is_attack(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_benign() {
            write!(f, "benign")
        } else {
            write!(f, "class{}", self.0)
        }
    }
}

/// A simulated packet with the header fields the paper's defenses inspect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Arrival time at the defended switch.
    pub arrival: SimTime,
    /// Wire size in bytes (used for serialization time and byte counters).
    pub size: u32,
    /// IPv4 source address.
    pub src: Ipv4Addr,
    /// IPv4 destination address.
    pub dst: Ipv4Addr,
    /// Transport source port (0 for non-TCP/UDP).
    pub sport: u16,
    /// Transport destination port (0 for non-TCP/UDP).
    pub dport: u16,
    /// IP protocol number.
    pub proto: u8,
    /// IP time-to-live.
    pub ttl: u8,
    /// IP total length field.
    pub ip_len: u16,
    /// IP identification field.
    pub ip_id: u16,
    /// IP fragment offset field (13 bits used).
    pub frag_offset: u16,
    /// TCP flags byte (0 for non-TCP).
    pub tcp_flags: u8,
    /// Ground-truth class (never visible to defenses).
    pub class: ClassId,
    /// Monotonic sequence number, unique per simulation, for stable
    /// tie-breaking in rank-ordered queues.
    pub seq: u64,
}

impl Packet {
    /// A builder-style constructor with neutral defaults: a 1000-byte benign
    /// UDP packet at t=0 from 10.0.0.1:1000 to 10.0.1.1:80.
    #[inline]
    pub fn new(arrival: SimTime) -> Self {
        Packet {
            arrival,
            size: 1000,
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 1, 1),
            sport: 1000,
            dport: 80,
            proto: proto::UDP,
            ttl: 64,
            ip_len: 1000,
            ip_id: 0,
            frag_offset: 0,
            tcp_flags: 0,
            class: ClassId::BENIGN,
            seq: 0,
        }
    }

    /// Sets the wire size and keeps `ip_len` consistent with it.
    #[inline]
    pub fn with_size(mut self, size: u32) -> Self {
        self.size = size;
        self.ip_len = size.min(u16::MAX as u32) as u16;
        self
    }

    /// Sets the source address.
    #[inline]
    pub fn with_src(mut self, src: Ipv4Addr) -> Self {
        self.src = src;
        self
    }

    /// Sets the destination address.
    #[inline]
    pub fn with_dst(mut self, dst: Ipv4Addr) -> Self {
        self.dst = dst;
        self
    }

    /// Sets the transport ports.
    #[inline]
    pub fn with_ports(mut self, sport: u16, dport: u16) -> Self {
        self.sport = sport;
        self.dport = dport;
        self
    }

    /// Sets the IP protocol.
    #[inline]
    pub fn with_proto(mut self, proto: u8) -> Self {
        self.proto = proto;
        self
    }

    /// Sets the TTL.
    #[inline]
    pub fn with_ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the ground-truth class.
    #[inline]
    pub fn with_class(mut self, class: ClassId) -> Self {
        self.class = class;
        self
    }

    /// The 5-tuple (src, dst, sport, dport, proto) identifying the flow.
    pub fn five_tuple(&self) -> FiveTuple {
        FiveTuple {
            src: self.src,
            dst: self.dst,
            sport: self.sport,
            dport: self.dport,
            proto: self.proto,
        }
    }
}

/// The classic transport 5-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    /// IPv4 source address.
    pub src: Ipv4Addr,
    /// IPv4 destination address.
    pub dst: Ipv4Addr,
    /// Transport source port.
    pub sport: u16,
    /// Transport destination port.
    pub dport: u16,
    /// IP protocol number.
    pub proto: u8,
}

/// Why a queue discipline dropped a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The queue was full on arrival (tail drop).
    TailDrop,
    /// RED dropped the packet probabilistically (early drop).
    RedEarly,
    /// RED dropped the packet because the average queue exceeded `max_th`.
    RedForced,
    /// A rank-ordered queue evicted the worst-ranked resident packet (or
    /// refused the arriving packet) under overflow.
    RankEviction,
    /// A rate limiter / policer dropped the packet.
    Policer,
    /// A mitigation filter (e.g. a Jaqen drop rule) dropped the packet.
    Filter,
}

impl DropReason {
    /// Stable snake_case tag used in trace output.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::TailDrop => "tail_drop",
            DropReason::RedEarly => "red_early",
            DropReason::RedForced => "red_forced",
            DropReason::RankEviction => "rank_eviction",
            DropReason::Policer => "policer",
            DropReason::Filter => "filter",
        }
    }
}

/// A dropped packet together with the reason it was dropped.
#[derive(Debug, Clone)]
pub struct Dropped {
    /// The dropped packet.
    pub packet: Packet,
    /// Why it was dropped.
    pub reason: DropReason,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_predicates() {
        assert!(ClassId::BENIGN.is_benign());
        assert!(!ClassId::BENIGN.is_attack());
        assert!(ClassId(3).is_attack());
        assert_eq!(ClassId::BENIGN.to_string(), "benign");
        assert_eq!(ClassId(2).to_string(), "class2");
    }

    #[test]
    fn builder_sets_fields() {
        let p = Packet::new(SimTime::from_secs(1))
            .with_size(500)
            .with_src(Ipv4Addr::new(1, 2, 3, 4))
            .with_dst(Ipv4Addr::new(5, 6, 7, 8))
            .with_ports(53, 4444)
            .with_proto(proto::TCP)
            .with_ttl(32)
            .with_class(ClassId(7));
        assert_eq!(p.size, 500);
        assert_eq!(p.ip_len, 500);
        assert_eq!(p.src, Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(p.sport, 53);
        assert_eq!(p.proto, proto::TCP);
        assert_eq!(p.ttl, 32);
        assert_eq!(p.class, ClassId(7));
    }

    #[test]
    fn five_tuple_extraction() {
        let p = Packet::new(SimTime::ZERO).with_ports(1, 2);
        let ft = p.five_tuple();
        assert_eq!(ft.sport, 1);
        assert_eq!(ft.dport, 2);
        assert_eq!(ft.src, p.src);
    }

    #[test]
    fn oversized_packet_clamps_ip_len() {
        let p = Packet::new(SimTime::ZERO).with_size(100_000);
        assert_eq!(p.size, 100_000);
        assert_eq!(p.ip_len, u16::MAX);
    }
}
