//! Packet features.
//!
//! The paper (§4.1) models a packet as a set of features, one per header
//! field, split into *ordinal* features (value proximity implies
//! similarity: addresses, lengths, TTL) and *nominal* features (proximity
//! is meaningless: ports, protocol). A [`FeatureSet`] selects which fields
//! to cluster on and how to treat each; the hardware profile of §7.1, for
//! example, uses the last two bytes of the destination address plus both
//! ports, all handled as ordinal ranges as in the P4 prototype.

use accturbo_netsim::Packet;
use std::fmt;

/// A clusterable header field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feature {
    /// Full 32-bit source address.
    SrcIp,
    /// Full 32-bit destination address.
    DstIp,
    /// Byte `i` (0 = most significant) of the source address.
    SrcIpByte(u8),
    /// Byte `i` (0 = most significant) of the destination address.
    DstIpByte(u8),
    /// Transport source port.
    SrcPort,
    /// Transport destination port.
    DstPort,
    /// IP time-to-live.
    Ttl,
    /// IP total length.
    IpLen,
    /// IP protocol number.
    Proto,
    /// IP fragment offset.
    FragOffset,
    /// IP identification.
    IpId,
}

impl Feature {
    /// Extracts this feature's value from a packet.
    pub fn extract(self, pkt: &Packet) -> u32 {
        match self {
            Feature::SrcIp => u32::from(pkt.src),
            Feature::DstIp => u32::from(pkt.dst),
            Feature::SrcIpByte(i) => {
                assert!(i < 4, "IP byte index out of range");
                pkt.src.octets()[i as usize] as u32
            }
            Feature::DstIpByte(i) => {
                assert!(i < 4, "IP byte index out of range");
                pkt.dst.octets()[i as usize] as u32
            }
            Feature::SrcPort => pkt.sport as u32,
            Feature::DstPort => pkt.dport as u32,
            Feature::Ttl => pkt.ttl as u32,
            Feature::IpLen => pkt.ip_len as u32,
            Feature::Proto => pkt.proto as u32,
            Feature::FragOffset => pkt.frag_offset as u32,
            Feature::IpId => pkt.ip_id as u32,
        }
    }

    /// The natural kind of this feature per the paper's taxonomy (§4.1):
    /// addresses, lengths, TTL and offsets are ordinal; ports and
    /// protocol are nominal.
    pub fn natural_kind(self) -> FeatureKind {
        match self {
            Feature::SrcPort | Feature::DstPort | Feature::Proto => FeatureKind::Nominal,
            _ => FeatureKind::Ordinal,
        }
    }

    /// The size of this feature's value space (number of distinct values).
    pub fn space(self) -> u64 {
        match self {
            Feature::SrcIp | Feature::DstIp => 1 << 32,
            Feature::SrcIpByte(_) | Feature::DstIpByte(_) => 1 << 8,
            Feature::SrcPort | Feature::DstPort | Feature::IpLen | Feature::IpId => 1 << 16,
            Feature::Ttl | Feature::Proto => 1 << 8,
            Feature::FragOffset => 1 << 13,
        }
    }

    /// Short display name used in Fig. 9b.
    pub fn name(self) -> String {
        match self {
            Feature::SrcIp => "saddr".into(),
            Feature::DstIp => "daddr".into(),
            Feature::SrcIpByte(i) => format!("saddr[{i}]"),
            Feature::DstIpByte(i) => format!("daddr[{i}]"),
            Feature::SrcPort => "sport".into(),
            Feature::DstPort => "dport".into(),
            Feature::Ttl => "ttl".into(),
            Feature::IpLen => "len".into(),
            Feature::Proto => "proto".into(),
            Feature::FragOffset => "f.off.".into(),
            Feature::IpId => "id".into(),
        }
    }
}

impl fmt::Display for Feature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// How a feature participates in clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureKind {
    /// Represented as a `[min, max]` range; distance is range extension.
    Ordinal,
    /// Represented as a set of admitted values; distance is membership.
    Nominal,
}

/// The header fields a feature can read, as one fixed array of words
/// (the packet's fields in [`Feature`] order, addresses whole).
const HEADER_WORDS: usize = 9;

/// A packet's header words: source and destination address, source and
/// destination port, TTL, IP length, protocol, fragment offset and IP
/// identification.
#[inline(always)]
fn header_words(pkt: &Packet) -> [u32; HEADER_WORDS] {
    [
        u32::from(pkt.src),
        u32::from(pkt.dst),
        u32::from(pkt.sport),
        u32::from(pkt.dport),
        u32::from(pkt.ttl),
        u32::from(pkt.ip_len),
        u32::from(pkt.proto),
        u32::from(pkt.frag_offset),
        u32::from(pkt.ip_id),
    ]
}

/// Where a feature sits in the [`header_words`]: its value is
/// `(words[word] >> shift) & mask`. Computed once per spec, so a feature
/// vector costs one pass of shifts and masks, with no per-feature
/// dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    word: u8,
    shift: u8,
    mask: u32,
}

impl Step {
    /// The step reading `feature`; panics on an IP byte index past 3.
    fn of(feature: Feature) -> Self {
        let whole = |word| Step {
            word,
            shift: 0,
            mask: u32::MAX,
        };
        let byte = |word, i: u8| {
            assert!(i < 4, "IP byte index out of range");
            Step {
                word,
                shift: 8 * (3 - i),
                mask: 0xFF,
            }
        };
        match feature {
            Feature::SrcIp => whole(0),
            Feature::DstIp => whole(1),
            Feature::SrcIpByte(i) => byte(0, i),
            Feature::DstIpByte(i) => byte(1, i),
            Feature::SrcPort => whole(2),
            Feature::DstPort => whole(3),
            Feature::Ttl => whole(4),
            Feature::IpLen => whole(5),
            Feature::Proto => whole(6),
            Feature::FragOffset => whole(7),
            Feature::IpId => whole(8),
        }
    }

    #[inline(always)]
    fn apply(self, words: &[u32; HEADER_WORDS]) -> u32 {
        (words[usize::from(self.word)] >> self.shift) & self.mask
    }
}

/// A feature together with the kind it is treated as. Two specs are
/// equal when their `feature` and `kind` are.
#[derive(Debug, Clone, Copy)]
pub struct FeatureSpec {
    /// The header field.
    pub feature: Feature,
    /// Ordinal or nominal handling.
    pub kind: FeatureKind,
    /// How to read `feature` from the header words; rewritten from
    /// `feature` by [`FeatureSet::new`], so it lives in the spec list's
    /// own allocation and can never disagree with the field inside a
    /// set. A cache of `feature`, so equality ignores it.
    step: Step,
}

impl PartialEq for FeatureSpec {
    fn eq(&self, other: &Self) -> bool {
        (self.feature, self.kind) == (other.feature, other.kind)
    }
}

impl Eq for FeatureSpec {}

impl FeatureSpec {
    /// A spec using the feature's natural kind.
    pub fn natural(feature: Feature) -> Self {
        FeatureSpec {
            feature,
            kind: feature.natural_kind(),
            step: Step::of(feature),
        }
    }

    /// A spec forcing ordinal (range) handling, as the Tofino prototype
    /// does for ports.
    pub fn ordinal(feature: Feature) -> Self {
        FeatureSpec {
            feature,
            kind: FeatureKind::Ordinal,
            step: Step::of(feature),
        }
    }
}

/// An ordered list of feature specs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureSet {
    specs: Vec<FeatureSpec>,
}

impl FeatureSet {
    /// Builds a feature set. Panics when empty.
    pub fn new(mut specs: Vec<FeatureSpec>) -> Self {
        assert!(!specs.is_empty(), "feature set must be non-empty");
        for spec in &mut specs {
            spec.step = Step::of(spec.feature);
        }
        FeatureSet { specs }
    }

    /// The hardware profile of §7.1: the last two bytes of the destination
    /// address (ordinal ranges) plus the source and destination ports,
    /// treated as nominal per the paper's taxonomy (§4.1) and stored as
    /// bloom-filter admission lists on hardware (§6).
    pub fn hardware_fig6() -> Self {
        FeatureSet::new(vec![
            FeatureSpec::ordinal(Feature::DstIpByte(2)),
            FeatureSpec::ordinal(Feature::DstIpByte(3)),
            FeatureSpec::natural(Feature::SrcPort),
            FeatureSpec::natural(Feature::DstPort),
        ])
    }

    /// The §7.2 profile: the four bytes of the destination address.
    pub fn hardware_dst_bytes() -> Self {
        FeatureSet::new(
            (0..4)
                .map(|i| FeatureSpec::ordinal(Feature::DstIpByte(i)))
                .collect(),
        )
    }

    /// The simulation default of §8: every byte of source and destination
    /// address, both ports, TTL, and IP length (all ordinal, matching the
    /// NetBench configuration).
    pub fn simulation_default() -> Self {
        let mut specs = Vec::new();
        for i in 0..4 {
            specs.push(FeatureSpec::ordinal(Feature::SrcIpByte(i)));
        }
        for i in 0..4 {
            specs.push(FeatureSpec::ordinal(Feature::DstIpByte(i)));
        }
        specs.push(FeatureSpec::ordinal(Feature::SrcPort));
        specs.push(FeatureSpec::ordinal(Feature::DstPort));
        specs.push(FeatureSpec::ordinal(Feature::Ttl));
        specs.push(FeatureSpec::ordinal(Feature::IpLen));
        FeatureSet::new(specs)
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the set is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The specs, in order.
    pub fn specs(&self) -> &[FeatureSpec] {
        &self.specs
    }

    /// Extracts the feature vector of `pkt` into `out` (cleared first):
    /// [`Feature::extract`] of every spec, read through the per-spec
    /// steps from one load of the packet's header words.
    pub fn extract_into(&self, pkt: &Packet, out: &mut Vec<u32>) {
        let words = header_words(pkt);
        out.clear();
        out.extend(self.specs.iter().map(|s| s.step.apply(&words)));
    }

    /// Extracts the feature vector of `pkt` as a fresh vector.
    pub fn extract(&self, pkt: &Packet) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.specs.len());
        self.extract_into(pkt, &mut out);
        out
    }
}

/// Packets per column group of a [`FeatureBatch`]: the batch kernel
/// reads one feature of eight packets as one `__m256i`.
pub(crate) const BATCH_GROUP: usize = 8;

/// The feature vectors of a run of packets, as
/// [`OnlineClusterer::assign_batch`](crate::OnlineClusterer::assign_batch)
/// reads them: one row per packet (its vector, as
/// [`FeatureSet::extract_into`] writes it) for the in-order commit, and
/// the same values in feature-major columns for the batch pass. Column
/// `f` holds feature `f` of every packet, padded with zeros to a whole
/// number of eight-packet groups. Each packet's byte count rides
/// alongside. Buffers grow on first use and are reused by every later
/// [`fill`](Self::fill).
#[derive(Debug, Clone, Default)]
pub struct FeatureBatch {
    width: usize,
    stride: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    bytes: Vec<u32>,
}

impl FeatureBatch {
    /// An empty batch; allocates nothing until the first fill.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the batch with the feature vectors of `pkts` under
    /// `features`.
    pub fn fill(&mut self, features: &FeatureSet, pkts: &[Packet]) {
        self.width = features.len();
        self.stride = pkts.len().next_multiple_of(BATCH_GROUP);
        self.rows.clear();
        self.rows.resize(self.width * pkts.len(), 0);
        self.cols.clear();
        self.cols.resize(self.width * self.stride, 0);
        self.bytes.clear();
        let rows = self.rows.chunks_exact_mut(self.width);
        for ((j, pkt), row) in pkts.iter().enumerate().zip(rows) {
            let words = header_words(pkt);
            let cols = self.cols.chunks_exact_mut(self.stride);
            for ((spec, r), col) in features.specs.iter().zip(row).zip(cols) {
                *r = spec.step.apply(&words);
                col[j] = *r;
            }
            self.bytes.push(pkt.size);
        }
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the batch holds no packets.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Features per packet.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Distance from one column to the next: [`len`](Self::len) rounded
    /// up to a whole group.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// The columns, `width × stride` values.
    pub(crate) fn columns(&self) -> &[u32] {
        &self.cols
    }

    /// Packet `j`'s feature vector.
    pub(crate) fn row(&self, j: usize) -> &[u32] {
        &self.rows[j * self.width..(j + 1) * self.width]
    }

    /// Packet `j`'s byte count.
    pub(crate) fn bytes(&self, j: usize) -> u32 {
        self.bytes[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accturbo_netsim::SimTime;
    use std::net::Ipv4Addr;

    fn pkt() -> Packet {
        let mut p = Packet::new(SimTime::ZERO)
            .with_src(Ipv4Addr::new(1, 2, 3, 4))
            .with_dst(Ipv4Addr::new(9, 8, 7, 6))
            .with_ports(1234, 80)
            .with_ttl(60);
        p.ip_len = 500;
        p.ip_id = 777;
        p.frag_offset = 3;
        p
    }

    #[test]
    fn extraction_per_feature() {
        let p = pkt();
        assert_eq!(Feature::SrcIp.extract(&p), u32::from_be_bytes([1, 2, 3, 4]));
        assert_eq!(Feature::DstIpByte(0).extract(&p), 9);
        assert_eq!(Feature::DstIpByte(3).extract(&p), 6);
        assert_eq!(Feature::SrcPort.extract(&p), 1234);
        assert_eq!(Feature::DstPort.extract(&p), 80);
        assert_eq!(Feature::Ttl.extract(&p), 60);
        assert_eq!(Feature::IpLen.extract(&p), 500);
        assert_eq!(Feature::IpId.extract(&p), 777);
        assert_eq!(Feature::FragOffset.extract(&p), 3);
    }

    #[test]
    fn natural_kinds_match_the_paper() {
        assert_eq!(Feature::SrcIp.natural_kind(), FeatureKind::Ordinal);
        assert_eq!(Feature::Ttl.natural_kind(), FeatureKind::Ordinal);
        assert_eq!(Feature::IpLen.natural_kind(), FeatureKind::Ordinal);
        assert_eq!(Feature::SrcPort.natural_kind(), FeatureKind::Nominal);
        assert_eq!(Feature::DstPort.natural_kind(), FeatureKind::Nominal);
        assert_eq!(Feature::Proto.natural_kind(), FeatureKind::Nominal);
    }

    #[test]
    fn hardware_profile_shapes() {
        assert_eq!(FeatureSet::hardware_fig6().len(), 4);
        assert_eq!(FeatureSet::hardware_dst_bytes().len(), 4);
        assert_eq!(FeatureSet::simulation_default().len(), 12);
    }

    #[test]
    fn extract_vector_in_order() {
        let set = FeatureSet::hardware_fig6();
        let v = set.extract(&pkt());
        assert_eq!(v, vec![7, 6, 1234, 80]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ip_byte_index_bounds() {
        let _ = Feature::DstIpByte(4).extract(&pkt());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ip_byte_index_bounds_at_construction() {
        let _ = FeatureSpec::ordinal(Feature::SrcIpByte(4));
    }

    /// Every variant, each byte index included.
    fn every_feature() -> Vec<Feature> {
        let mut all = vec![Feature::SrcIp, Feature::DstIp];
        all.extend((0..4).map(Feature::SrcIpByte));
        all.extend((0..4).map(Feature::DstIpByte));
        all.extend([
            Feature::SrcPort,
            Feature::DstPort,
            Feature::Ttl,
            Feature::IpLen,
            Feature::Proto,
            Feature::FragOffset,
            Feature::IpId,
        ]);
        all
    }

    #[test]
    fn extraction_plan_matches_per_feature_extract() {
        use accturbo_prng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xFEA7);
        let all = every_feature();
        let natural = FeatureSet::new(all.iter().map(|&f| FeatureSpec::natural(f)).collect());
        // A spec whose field was rewritten after construction reads the
        // new field: the set recomputes every step.
        let mut moved = FeatureSpec::ordinal(Feature::SrcIp);
        moved.feature = Feature::IpId;
        // Equality reads the fields, not the stale cached step.
        assert_eq!(moved, FeatureSpec::ordinal(Feature::IpId));
        let moved = FeatureSet::new(vec![moved]);
        let mut out = Vec::new();
        for _ in 0..2_000 {
            let mut p = Packet::new(SimTime::ZERO)
                .with_src(Ipv4Addr::from(rng.gen::<u32>()))
                .with_dst(Ipv4Addr::from(rng.gen::<u32>()))
                .with_ports(rng.gen(), rng.gen())
                .with_proto(rng.gen())
                .with_ttl(rng.gen());
            p.ip_len = rng.gen();
            p.ip_id = rng.gen();
            p.frag_offset = rng.gen();
            natural.extract_into(&p, &mut out);
            let want: Vec<u32> = all.iter().map(|f| f.extract(&p)).collect();
            assert_eq!(out, want, "{p:?}");
            for &f in &all {
                let single = FeatureSet::new(vec![FeatureSpec::ordinal(f)]);
                assert_eq!(single.extract(&p), vec![f.extract(&p)], "{f}");
            }
            assert_eq!(moved.extract(&p), vec![u32::from(p.ip_id)]);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Feature::DstIp.to_string(), "daddr");
        assert_eq!(Feature::SrcIpByte(2).to_string(), "saddr[2]");
        assert_eq!(Feature::FragOffset.to_string(), "f.off.");
    }
}
