//! Leaf placement for multi-switch topologies.
//!
//! A topology run needs every arriving packet assigned to an ingress
//! leaf. Placement must be (a) a pure function of the packet — the same
//! workload stream places identically regardless of topology shape or
//! job count — and (b) flow-sticky, so a flow's packets share a path and
//! per-leaf rate shaping makes sense. Hashing the source address gives
//! both: benign flows spread across all leaves, while attack traffic
//! (ground-truth `class != 0`, or the workload's own attack classes) is
//! confined to a configurable attacker subset, which is how the topology
//! figure dials attack dispersion.

use accturbo_netsim::{ClassId, Packet};

/// Maps packets to leaf ordinals (`0..leaves`) by source-address hash.
#[derive(Debug, Clone)]
pub struct LeafPlacement {
    leaves: usize,
    /// Leaf ordinals that host attack sources; empty = attackers spread
    /// over all leaves like everyone else.
    attackers: Vec<usize>,
    /// The classes confined to `attackers`; `None` = every class but
    /// benign.
    attack_classes: Option<Vec<ClassId>>,
}

/// FNV-1a, the same cheap deterministic hash used by the sketch layers.
fn fnv1a(ip: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in ip.to_be_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl LeafPlacement {
    /// A placement over `leaves` ingress nodes. `attackers` confines
    /// ground-truth attack classes to those leaf ordinals (`None` or
    /// empty = no confinement). Out-of-range ordinals panic.
    pub fn new(leaves: usize, attackers: Option<&[usize]>) -> Self {
        assert!(leaves > 0, "placement needs at least one leaf");
        let attackers = attackers.unwrap_or(&[]).to_vec();
        for &a in &attackers {
            assert!(a < leaves, "attacker leaf {a} out of range (< {leaves})");
        }
        LeafPlacement {
            leaves,
            attackers,
            attack_classes: None,
        }
    }

    /// Confines only `classes` to the attacker leaves, for workloads
    /// whose benign traffic has classes other than 0 (Fig. 2/3's benign
    /// aggregates are 1–4).
    pub fn with_attack_classes(mut self, classes: Vec<ClassId>) -> Self {
        self.attack_classes = Some(classes);
        self
    }

    fn is_attack(&self, class: ClassId) -> bool {
        match &self.attack_classes {
            Some(classes) => classes.contains(&class),
            None => class.is_attack(),
        }
    }

    /// The leaf ordinal for `pkt`.
    pub fn place(&self, pkt: &Packet) -> usize {
        let h = fnv1a(u32::from(pkt.src));
        if !self.attackers.is_empty() && self.is_attack(pkt.class) {
            self.attackers[(h % self.attackers.len() as u64) as usize]
        } else {
            (h % self.leaves as u64) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accturbo_netsim::{ClassId, SimTime};
    use std::net::Ipv4Addr;

    fn pkt(src: [u8; 4], class: u16) -> Packet {
        Packet::new(SimTime::ZERO)
            .with_src(Ipv4Addr::from(src))
            .with_class(ClassId(class))
    }

    #[test]
    fn placement_is_flow_sticky_and_in_range() {
        let p = LeafPlacement::new(4, None);
        for i in 0..64u8 {
            let a = p.place(&pkt([10, 0, 0, i], 0));
            let b = p.place(&pkt([10, 0, 0, i], 0));
            assert_eq!(a, b, "same source must always land on the same leaf");
            assert!(a < 4);
        }
    }

    #[test]
    fn benign_traffic_uses_every_leaf() {
        let p = LeafPlacement::new(4, Some(&[0]));
        let mut seen = [false; 4];
        for i in 0..255u8 {
            seen[p.place(&pkt([192, 168, i, 1], 0))] = true;
        }
        assert_eq!(seen, [true; 4], "benign sources must spread over leaves");
    }

    #[test]
    fn attack_traffic_is_confined_to_the_attacker_set() {
        let p = LeafPlacement::new(8, Some(&[2, 5]));
        for i in 0..255u8 {
            let leaf = p.place(&pkt([198, 18, i, 7], 1));
            assert!(leaf == 2 || leaf == 5, "attack leaked to leaf {leaf}");
        }
    }

    #[test]
    fn only_the_named_attack_classes_are_confined() {
        let p = LeafPlacement::new(8, Some(&[2])).with_attack_classes(vec![ClassId(5)]);
        let free = LeafPlacement::new(8, None);
        for i in 0..255u8 {
            let src = [198, 18, i, 7];
            assert_eq!(p.place(&pkt(src, 5)), 2);
            for benign in [0, 1, 4] {
                assert_eq!(p.place(&pkt(src, benign)), free.place(&pkt(src, benign)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_attacker_panics() {
        LeafPlacement::new(2, Some(&[2]));
    }
}
