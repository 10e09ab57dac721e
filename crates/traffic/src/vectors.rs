//! Attack-vector packet templates.
//!
//! One generator per attack vector of the CICDDoS-2019 dataset used in the
//! paper's §8 evaluation, split as in Fig. 9a into reflection-based
//! (NTP, DNS, MSSQL, NetBIOS, SNMP, SSDP, TFTP) and exploitation-based
//! (UDP flood, UDPLag, SYN flood) vectors. Each template encodes the
//! header signature that drives clustering performance: reflection
//! vectors source from a bounded reflector pool on a well-known port;
//! exploitation vectors spoof freely. MSSQL and SSDP are given the high
//! source-port variance the paper calls out as the reason they cluster
//! worst among reflection attacks (§8.1).

use accturbo_netsim::packet::proto;
use accturbo_netsim::{ClassId, Packet, PacketSource, SimDuration, SimTime};
use accturbo_prng::{Rng, SeedableRng, StdRng};
use std::net::Ipv4Addr;

/// The attack vectors of the paper's simulation dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackVector {
    /// NTP monlist reflection: UDP from port 123, large fixed-size replies.
    Ntp,
    /// DNS ANY reflection: UDP from port 53, large replies.
    Dns,
    /// MSSQL reflection: UDP, *many* source ports (high variance).
    Mssql,
    /// NetBIOS name-service reflection: UDP from port 137.
    NetBios,
    /// SNMP GetBulk reflection: UDP from port 161.
    Snmp,
    /// SSDP reflection: UDP, high source-port variance.
    Ssdp,
    /// TFTP reflection: UDP from the server's ephemeral data port.
    Tftp,
    /// Generic UDP flood (exploitation): random headers.
    UdpFlood,
    /// UDP-Lag flood (exploitation): small packets, random ports.
    UdpLag,
    /// SYN flood (exploitation): 40-byte TCP SYNs, spoofed sources.
    SynFlood,
    /// Memcached reflection (the GitHub-2018 vector, §10): UDP from port
    /// 11211, huge fixed-size replies, small reflector pool.
    Memcached,
    /// CLDAP reflection: UDP from port 389, large replies.
    Ldap,
    /// ACK flood (Mirai's repertoire, §10): 40-byte TCP ACKs.
    AckFlood,
    /// ICMP flood: fixed-size echo requests, no ports.
    IcmpFlood,
}

impl AttackVector {
    /// Every vector, including those beyond the CICDDoS-2019 set
    /// (Memcached, CLDAP, ACK and ICMP floods from the paper's §10
    /// discussion of real-world attacks).
    pub const EXTENDED: [AttackVector; 14] = [
        AttackVector::Ntp,
        AttackVector::Dns,
        AttackVector::Mssql,
        AttackVector::NetBios,
        AttackVector::Snmp,
        AttackVector::Ssdp,
        AttackVector::Tftp,
        AttackVector::UdpFlood,
        AttackVector::UdpLag,
        AttackVector::SynFlood,
        AttackVector::Memcached,
        AttackVector::Ldap,
        AttackVector::AckFlood,
        AttackVector::IcmpFlood,
    ];

    /// All vectors, in the order of Fig. 9a.
    pub const ALL: [AttackVector; 10] = [
        AttackVector::Ntp,
        AttackVector::Dns,
        AttackVector::Mssql,
        AttackVector::NetBios,
        AttackVector::Snmp,
        AttackVector::Ssdp,
        AttackVector::Tftp,
        AttackVector::UdpFlood,
        AttackVector::UdpLag,
        AttackVector::SynFlood,
    ];

    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            AttackVector::Ntp => "NTP",
            AttackVector::Dns => "DNS",
            AttackVector::Mssql => "MSSQL",
            AttackVector::NetBios => "NetBIOS",
            AttackVector::Snmp => "SNMP",
            AttackVector::Ssdp => "SSDP",
            AttackVector::Tftp => "TFTP",
            AttackVector::UdpFlood => "UDP",
            AttackVector::UdpLag => "UDPLag",
            AttackVector::SynFlood => "SYN",
            AttackVector::Memcached => "Memcached",
            AttackVector::Ldap => "LDAP",
            AttackVector::AckFlood => "ACK",
            AttackVector::IcmpFlood => "ICMP",
        }
    }

    /// Resolves a vector from its display name, case-insensitively (the
    /// `xp run workload=cicday:vectors=…` grammar).
    pub fn by_name(name: &str) -> Option<AttackVector> {
        AttackVector::EXTENDED
            .iter()
            .copied()
            .find(|v| v.name().eq_ignore_ascii_case(name))
    }

    /// True for reflection/amplification vectors (Fig. 9a's split).
    pub fn is_reflection(self) -> bool {
        !matches!(
            self,
            AttackVector::UdpFlood
                | AttackVector::UdpLag
                | AttackVector::SynFlood
                | AttackVector::AckFlood
                | AttackVector::IcmpFlood
        )
    }

    /// Size of the reflector pool the vector sources from (`None` for
    /// exploitation vectors, which spoof arbitrary sources).
    fn reflector_pool(self) -> Option<u32> {
        match self {
            AttackVector::Ntp => Some(600),
            AttackVector::Dns => Some(900),
            AttackVector::Mssql => Some(1400),
            AttackVector::NetBios => Some(700),
            AttackVector::Snmp => Some(800),
            AttackVector::Ssdp => Some(1600),
            AttackVector::Tftp => Some(500),
            AttackVector::Memcached => Some(200),
            AttackVector::Ldap => Some(450),
            _ => None,
        }
    }
}

/// Configuration of one attack traffic stream.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Which vector to emit.
    pub vector: AttackVector,
    /// Aggregate attack rate in bits per second.
    pub rate_bps: u64,
    /// First packet at or after this time.
    pub start: SimTime,
    /// No packets at or after this time.
    pub end: SimTime,
    /// Victim destination address.
    pub victim: Ipv4Addr,
    /// Victim destination port (reflection responses land on the spoofed
    /// request's ephemeral port; pass the port the attacker chose).
    pub dport: u16,
    /// Ground-truth class to stamp.
    pub class: ClassId,
    /// RNG seed.
    pub seed: u64,
    /// Randomize the last byte of the destination (carpet bombing).
    pub carpet_bombing: bool,
    /// Randomize the source address fully (defeats src-based signatures).
    pub source_spoofing: bool,
    /// Randomize the destination port per packet (defaults to true for the
    /// exploitation flood vectors, false for reflection vectors, matching
    /// each vector's natural signature).
    pub randomize_dport: bool,
    /// Emit a single flow: every packet shares one 5-tuple and size (the
    /// base attack of the paper's §7.2 comparison — "all the packets share
    /// the 5-tuple"). Carpet bombing / spoofing modifiers still apply on
    /// top, morphing exactly the fields they randomize.
    pub single_flow: bool,
}

impl AttackConfig {
    /// An attack stream with the given essentials and neutral extras.
    pub fn new(
        vector: AttackVector,
        rate_bps: u64,
        start: SimTime,
        end: SimTime,
        class: ClassId,
        seed: u64,
    ) -> Self {
        AttackConfig {
            vector,
            rate_bps,
            start,
            end,
            victim: Ipv4Addr::new(198, 18, 0, 10),
            dport: 4444,
            class,
            seed,
            carpet_bombing: false,
            source_spoofing: false,
            randomize_dport: matches!(vector, AttackVector::UdpFlood | AttackVector::UdpLag),
            single_flow: false,
        }
    }

    /// Collapses the attack to a single flow (one 5-tuple, one size).
    pub fn with_single_flow(mut self) -> Self {
        self.single_flow = true;
        self.randomize_dport = false;
        self
    }

    /// Enables carpet bombing (random dst within the victim /24).
    pub fn with_carpet_bombing(mut self) -> Self {
        self.carpet_bombing = true;
        self
    }

    /// Enables full source spoofing.
    pub fn with_source_spoofing(mut self) -> Self {
        self.source_spoofing = true;
        self
    }

    /// Sets the victim address/port.
    pub fn with_victim(mut self, victim: Ipv4Addr, dport: u16) -> Self {
        self.victim = victim;
        self.dport = dport;
        self
    }

    /// Pins the destination port to `dport` for every packet (used by the
    /// Fig. 6 pulses, where each pulse targets one IP and one port).
    pub fn with_fixed_dport(mut self, dport: u16) -> Self {
        self.dport = dport;
        self.randomize_dport = false;
        self
    }
}

/// A lazily generated attack packet stream.
pub struct AttackSource {
    cfg: AttackConfig,
    rng: StdRng,
    next: SimTime,
    /// The pacing gap: the configured aggregate rate at the vector's mean
    /// size (per-packet sizes jitter around it).
    gap: SimDuration,
    /// The packet size of a single-flow attack: the mean size.
    flow_size: u32,
    ip_id: u16,
}

impl AttackSource {
    /// Creates the stream. Panics on a degenerate window or rate.
    pub fn new(cfg: AttackConfig) -> Self {
        assert!(cfg.end > cfg.start, "attack window must be non-empty");
        assert!(cfg.rate_bps > 0, "attack rate must be positive");
        let rng = StdRng::seed_from_u64(cfg.seed);
        let mean_size = match cfg.vector {
            AttackVector::Ntp => 468.0,
            AttackVector::Dns => 1100.0,
            AttackVector::Mssql => 630.0,
            AttackVector::NetBios => 250.0,
            AttackVector::Snmp => 800.0,
            AttackVector::Ssdp => 350.0,
            AttackVector::Tftp => 516.0,
            AttackVector::UdpFlood => 700.0,
            AttackVector::UdpLag => 90.0,
            AttackVector::SynFlood => 40.0,
            AttackVector::Memcached => 1428.0,
            AttackVector::Ldap => 1200.0,
            AttackVector::AckFlood => 40.0,
            AttackVector::IcmpFlood => 64.0,
        };
        let next = cfg.start;
        let gap_ns = mean_size * 8.0 * 1e9 / cfg.rate_bps as f64;
        AttackSource {
            cfg,
            rng,
            next,
            gap: SimDuration::from_nanos(gap_ns.max(1.0) as u64),
            flow_size: mean_size as u32,
            ip_id: 0,
        }
    }

    fn sample_size(&mut self) -> u32 {
        let v = self.cfg.vector;
        match v {
            // Fixed-size amplification payloads.
            AttackVector::Ntp => 468,
            AttackVector::NetBios => 250,
            AttackVector::SynFlood => 40,
            AttackVector::AckFlood => 40,
            AttackVector::IcmpFlood => 64,
            AttackVector::Memcached => 1428,
            AttackVector::Tftp => 516,
            // Moderate per-packet variance.
            AttackVector::Dns => self.rng.gen_range(900..1300),
            AttackVector::Snmp => self.rng.gen_range(600..1000),
            AttackVector::Ssdp => self.rng.gen_range(280..420),
            AttackVector::Ldap => self.rng.gen_range(1000..1400),
            AttackVector::Mssql => self.rng.gen_range(400..860),
            AttackVector::UdpLag => self.rng.gen_range(60..120),
            // Fully random (exploitation).
            AttackVector::UdpFlood => self.rng.gen_range(100..1400),
        }
    }

    fn sample_src(&mut self) -> Ipv4Addr {
        if self.cfg.source_spoofing {
            return Ipv4Addr::new(
                self.rng.gen_range(1..=223),
                self.rng.gen(),
                self.rng.gen(),
                self.rng.gen(),
            );
        }
        match self.cfg.vector.reflector_pool() {
            Some(pool) => {
                // Reflectors drawn deterministically from a few /16s:
                // reflector i lives at 185.X.Y.Z derived from i.
                let i = self.rng.gen_range(0..pool);
                Ipv4Addr::new(
                    185,
                    (40 + (i / 4096)) as u8,
                    ((i / 256) % 16 * 16 + i % 16) as u8,
                    (i % 256) as u8,
                )
            }
            None => {
                // Exploitation vectors: botnet-style sources from a handful
                // of infected /16s (Mirai-like: shared source subnets).
                let subnet = self.rng.gen_range(0..24u8);
                Ipv4Addr::new(
                    100 + subnet / 8,
                    64 + subnet,
                    self.rng.gen(),
                    self.rng.gen(),
                )
            }
        }
    }

    fn sample_sport(&mut self) -> u16 {
        match self.cfg.vector {
            AttackVector::Ntp => 123,
            AttackVector::Dns => 53,
            AttackVector::NetBios => 137,
            AttackVector::Snmp => 161,
            AttackVector::Memcached => 11_211,
            AttackVector::Ldap => 389,
            AttackVector::IcmpFlood => 0,
            // High source-port variance (paper §8.1: MSSQL and SSDP
            // cluster worst among reflection vectors for this reason).
            AttackVector::Mssql => self.rng.gen_range(1024..u16::MAX),
            AttackVector::Ssdp => self.rng.gen_range(1024..u16::MAX),
            AttackVector::Tftp => self.rng.gen_range(49152..u16::MAX),
            AttackVector::UdpFlood
            | AttackVector::UdpLag
            | AttackVector::SynFlood
            | AttackVector::AckFlood => self.rng.gen_range(1024..u16::MAX),
        }
    }

    fn sample_dst(&mut self) -> Ipv4Addr {
        let v = self.cfg.victim;
        if self.cfg.carpet_bombing {
            let o = v.octets();
            Ipv4Addr::new(o[0], o[1], o[2], self.rng.gen())
        } else {
            v
        }
    }
}

impl PacketSource for AttackSource {
    fn next_packet(&mut self) -> Option<Packet> {
        if self.next >= self.cfg.end {
            return None;
        }
        let (size, src, sport) = if self.cfg.single_flow {
            (
                self.flow_size,
                if self.cfg.source_spoofing {
                    self.sample_src()
                } else {
                    std::net::Ipv4Addr::new(185, 40, 0, 1)
                },
                7777,
            )
        } else {
            (self.sample_size(), self.sample_src(), self.sample_sport())
        };
        let dst = self.sample_dst();
        let (protocol, tcp_flags) = match self.cfg.vector {
            AttackVector::SynFlood => (proto::TCP, 0x02u8), // SYN
            AttackVector::AckFlood => (proto::TCP, 0x10),   // ACK
            AttackVector::IcmpFlood => (proto::ICMP, 0),
            _ => (proto::UDP, 0),
        };
        // Reflection replies traverse real paths: narrow TTL band.
        // Exploitation floods come from bot machines running the same
        // tool/OS: their TTLs also sit in a narrow band, just a different
        // one. Fully random TTLs only appear with explicit spoofing.
        let ttl = if self.cfg.source_spoofing {
            self.rng.gen_range(30..=128)
        } else if self.cfg.vector.is_reflection() {
            self.rng.gen_range(52..=60)
        } else {
            self.rng.gen_range(58..=64)
        };
        let dport = match self.cfg.vector {
            AttackVector::SynFlood | AttackVector::AckFlood => 80,
            AttackVector::IcmpFlood => 0,
            _ if self.cfg.randomize_dport => self.rng.gen_range(1..u16::MAX),
            _ => self.cfg.dport,
        };
        let mut pkt = Packet::new(self.next)
            .with_size(size)
            .with_src(src)
            .with_dst(dst)
            .with_ports(sport, dport)
            .with_proto(protocol)
            .with_ttl(ttl)
            .with_class(self.cfg.class);
        pkt.tcp_flags = tcp_flags;
        pkt.ip_id = self.ip_id;
        self.ip_id = self.ip_id.wrapping_add(1);
        self.next += self.gap;
        Some(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(cfg: AttackConfig) -> Vec<Packet> {
        let mut src = AttackSource::new(cfg);
        std::iter::from_fn(move || src.next_packet()).collect()
    }

    fn basic(vector: AttackVector) -> AttackConfig {
        AttackConfig::new(
            vector,
            10_000_000,
            SimTime::ZERO,
            SimTime::from_secs(1),
            ClassId(1),
            99,
        )
    }

    #[test]
    fn rate_is_close_to_target() {
        for vector in AttackVector::ALL {
            let pkts = collect(basic(vector));
            let bytes: u64 = pkts.iter().map(|p| p.size as u64).sum();
            let rate = bytes as f64 * 8.0;
            let err = (rate - 1e7).abs() / 1e7;
            assert!(
                err < 0.1,
                "{}: rate {rate:.0} off target ({err:.2})",
                vector.name()
            );
        }
    }

    #[test]
    fn reflection_vectors_have_signature_ports() {
        for (vector, port) in [
            (AttackVector::Ntp, 123),
            (AttackVector::Dns, 53),
            (AttackVector::NetBios, 137),
            (AttackVector::Snmp, 161),
        ] {
            let pkts = collect(basic(vector));
            assert!(pkts.iter().all(|p| p.sport == port), "{}", vector.name());
        }
    }

    #[test]
    fn mssql_and_ssdp_have_high_sport_variance() {
        for vector in [AttackVector::Mssql, AttackVector::Ssdp] {
            let pkts = collect(basic(vector));
            let sports: std::collections::HashSet<_> = pkts.iter().map(|p| p.sport).collect();
            assert!(
                sports.len() > 100,
                "{}: {} sports",
                vector.name(),
                sports.len()
            );
        }
    }

    #[test]
    fn reflection_sources_come_from_bounded_pool() {
        let pkts = collect(basic(AttackVector::Ntp));
        let srcs: std::collections::HashSet<_> = pkts.iter().map(|p| p.src).collect();
        assert!(srcs.len() <= 600, "NTP pool leaked: {}", srcs.len());
        assert!(pkts.iter().all(|p| p.src.octets()[0] == 185));
    }

    #[test]
    fn syn_flood_is_tcp_syn_40b() {
        let pkts = collect(basic(AttackVector::SynFlood));
        assert!(pkts.iter().all(|p| p.proto == proto::TCP));
        assert!(pkts.iter().all(|p| p.tcp_flags == 0x02));
        assert!(pkts.iter().all(|p| p.size == 40));
        assert!(pkts.iter().all(|p| p.dport == 80));
    }

    #[test]
    fn carpet_bombing_spreads_destinations_within_slash24() {
        let pkts = collect(basic(AttackVector::UdpFlood).with_carpet_bombing());
        let dsts: std::collections::HashSet<_> = pkts.iter().map(|p| p.dst).collect();
        assert!(dsts.len() > 100, "{} dsts", dsts.len());
        let prefix: std::collections::HashSet<_> = pkts
            .iter()
            .map(|p| {
                let o = p.dst.octets();
                (o[0], o[1], o[2])
            })
            .collect();
        assert_eq!(prefix.len(), 1, "carpet bombing must stay in the /24");
    }

    #[test]
    fn source_spoofing_diversifies_sources() {
        let plain = collect(basic(AttackVector::Ntp));
        let spoofed = collect(basic(AttackVector::Ntp).with_source_spoofing());
        let plain_srcs: std::collections::HashSet<_> = plain.iter().map(|p| p.src).collect();
        let spoofed_srcs: std::collections::HashSet<_> = spoofed.iter().map(|p| p.src).collect();
        assert!(spoofed_srcs.len() > plain_srcs.len() * 3);
    }

    #[test]
    fn class_and_window_are_respected() {
        let pkts = collect(AttackConfig::new(
            AttackVector::Dns,
            5_000_000,
            SimTime::from_secs(2),
            SimTime::from_secs(4),
            ClassId(7),
            1,
        ));
        assert!(pkts.iter().all(|p| p.class == ClassId(7)));
        assert!(pkts.iter().all(|p| p.arrival >= SimTime::from_secs(2)));
        assert!(pkts.iter().all(|p| p.arrival < SimTime::from_secs(4)));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = collect(basic(AttackVector::Ssdp));
        let b = collect(basic(AttackVector::Ssdp));
        assert_eq!(a, b);
    }

    #[test]
    fn extended_vectors_have_their_signatures() {
        let memcached = collect(basic(AttackVector::Memcached));
        assert!(memcached
            .iter()
            .all(|p| p.sport == 11_211 && p.size == 1428));
        let ldap = collect(basic(AttackVector::Ldap));
        assert!(ldap.iter().all(|p| p.sport == 389));
        assert!(ldap.iter().all(|p| (1000..1400).contains(&p.size)));
        let ack = collect(basic(AttackVector::AckFlood));
        assert!(ack
            .iter()
            .all(|p| p.proto == proto::TCP && p.tcp_flags == 0x10));
        assert!(ack.iter().all(|p| p.size == 40 && p.dport == 80));
        let icmp = collect(basic(AttackVector::IcmpFlood));
        assert!(icmp.iter().all(|p| p.proto == proto::ICMP));
        assert!(icmp.iter().all(|p| p.sport == 0 && p.dport == 0));
    }

    #[test]
    fn extended_list_is_a_superset_of_all() {
        for v in AttackVector::ALL {
            assert!(AttackVector::EXTENDED.contains(&v));
        }
        assert!(AttackVector::EXTENDED.len() > AttackVector::ALL.len());
        assert!(AttackVector::Memcached.is_reflection());
        assert!(AttackVector::Ldap.is_reflection());
        assert!(!AttackVector::AckFlood.is_reflection());
        assert!(!AttackVector::IcmpFlood.is_reflection());
    }

    #[test]
    fn single_flow_shares_one_five_tuple() {
        let pkts = collect(basic(AttackVector::UdpFlood).with_single_flow());
        let tuples: std::collections::HashSet<_> = pkts.iter().map(|p| p.five_tuple()).collect();
        assert_eq!(tuples.len(), 1);
        let sizes: std::collections::HashSet<_> = pkts.iter().map(|p| p.size).collect();
        assert_eq!(sizes.len(), 1);
    }

    #[test]
    fn single_flow_carpet_bombing_varies_only_dst() {
        let pkts = collect(
            basic(AttackVector::UdpFlood)
                .with_single_flow()
                .with_carpet_bombing(),
        );
        let srcs: std::collections::HashSet<_> = pkts.iter().map(|p| p.src).collect();
        let dsts: std::collections::HashSet<_> = pkts.iter().map(|p| p.dst).collect();
        assert_eq!(srcs.len(), 1, "carpet bombing keeps the source fixed");
        assert!(dsts.len() > 100, "carpet bombing spreads destinations");
    }

    #[test]
    fn single_flow_spoofing_varies_only_src() {
        let pkts = collect(
            basic(AttackVector::UdpFlood)
                .with_single_flow()
                .with_source_spoofing(),
        );
        let srcs: std::collections::HashSet<_> = pkts.iter().map(|p| p.src).collect();
        let dsts: std::collections::HashSet<_> = pkts.iter().map(|p| p.dst).collect();
        assert!(srcs.len() > 100, "spoofing spreads sources");
        assert_eq!(dsts.len(), 1, "spoofing keeps the victim fixed");
    }
}
