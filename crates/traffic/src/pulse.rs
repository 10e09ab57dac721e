//! Pulse-wave attack composition.
//!
//! A pulse-wave DDoS attack is a series of short, high-rate pulses, each
//! potentially using a different attack vector, destination, and port
//! (paper §1, §3.1). This module composes [`AttackSource`] streams into a
//! pulse train; [`PulseWave::fig6`] builds the exact scenario of the
//! paper's hardware evaluation (§7.1): four UDP-flood pulses of 10 s with
//! 10 s interleaves, each targeting a different IP within a common subnet
//! and a different port.

use crate::vectors::{AttackConfig, AttackSource, AttackVector};
use accturbo_netsim::{ClassId, MergedSource, PacketSource, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// One pulse of a pulse-wave attack.
#[derive(Debug, Clone)]
pub struct PulseSpec {
    /// Attack vector of this pulse.
    pub vector: AttackVector,
    /// Pulse start.
    pub start: SimTime,
    /// Pulse duration.
    pub duration: SimDuration,
    /// Pulse rate in bits per second.
    pub rate_bps: u64,
    /// Destination address of this pulse.
    pub victim: Ipv4Addr,
    /// Destination port of this pulse (fixed per pulse).
    pub dport: u16,
    /// Ground-truth class for the pulse's packets.
    pub class: ClassId,
}

/// A composed pulse-wave attack.
#[derive(Debug, Clone)]
pub struct PulseWave {
    /// The pulses, in start-time order.
    pub pulses: Vec<PulseSpec>,
    /// Base RNG seed; pulse `i` uses `seed + i`.
    pub seed: u64,
}

impl PulseWave {
    /// Builds the paper's Fig. 6 pulse train: `n` UDP-flood pulses of
    /// `on` seconds separated by `off` seconds of silence, starting at
    /// `first_start`, each targeting a distinct IP in `subnet` (a /24)
    /// and a distinct destination port.
    pub fn fig6(
        n: usize,
        first_start: SimTime,
        on: SimDuration,
        off: SimDuration,
        rate_bps: u64,
        subnet: Ipv4Addr,
        seed: u64,
    ) -> Self {
        let o = subnet.octets();
        let pulses = (0..n)
            .map(|i| PulseSpec {
                vector: AttackVector::UdpFlood,
                start: first_start + (on + off) * i as u64,
                duration: on,
                rate_bps,
                victim: Ipv4Addr::new(o[0], o[1], o[2], 10 + i as u8),
                dport: 3000 + 7 * i as u16,
                class: ClassId(1 + i as u16),
            })
            .collect();
        PulseWave { pulses, seed }
    }

    /// Materializes the pulse train as a single time-ordered source.
    pub fn into_source(self) -> MergedSource {
        let seed = self.seed;
        let sources: Vec<Box<dyn PacketSource + Send>> = self
            .pulses
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                // Each pulse is one UDP flood aimed at one IP and one port
                // (paper §7.1) — a single flow, as in the §7.2 base attack.
                let cfg = AttackConfig::new(
                    p.vector,
                    p.rate_bps,
                    p.start,
                    p.start + p.duration,
                    p.class,
                    seed.wrapping_add(i as u64),
                )
                .with_victim(p.victim, p.dport)
                .with_single_flow()
                .with_fixed_dport(p.dport);
                Box::new(AttackSource::new(cfg)) as Box<dyn PacketSource + Send>
            })
            .collect();
        MergedSource::new(sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_pulse_layout() {
        let wave = PulseWave::fig6(
            4,
            SimTime::from_secs(10),
            SimDuration::from_secs(10),
            SimDuration::from_secs(10),
            1_000_000,
            Ipv4Addr::new(198, 18, 5, 0),
            1,
        );
        assert_eq!(wave.pulses.len(), 4);
        assert_eq!(wave.pulses[0].start, SimTime::from_secs(10));
        assert_eq!(wave.pulses[1].start, SimTime::from_secs(30));
        assert_eq!(wave.pulses[3].start, SimTime::from_secs(70));
        // Distinct victims within the subnet, distinct ports, distinct classes.
        let victims: std::collections::HashSet<_> = wave.pulses.iter().map(|p| p.victim).collect();
        let ports: std::collections::HashSet<_> = wave.pulses.iter().map(|p| p.dport).collect();
        let classes: std::collections::HashSet<_> = wave.pulses.iter().map(|p| p.class).collect();
        assert_eq!(victims.len(), 4);
        assert_eq!(ports.len(), 4);
        assert_eq!(classes.len(), 4);
        assert!(wave
            .pulses
            .iter()
            .all(|p| p.victim.octets()[..3] == [198, 18, 5]));
    }

    #[test]
    fn pulses_are_silent_in_the_gaps() {
        let mut src = PulseWave::fig6(
            2,
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
            2_000_000,
            Ipv4Addr::new(198, 18, 5, 0),
            3,
        )
        .into_source();
        let pkts: Vec<_> = std::iter::from_fn(|| src.next_packet()).collect();
        assert!(!pkts.is_empty());
        for p in &pkts {
            let s = p.arrival.as_secs_f64();
            assert!(
                (1.0..2.0).contains(&s) || (3.0..4.0).contains(&s),
                "packet at {s} outside any pulse"
            );
        }
    }

    #[test]
    fn each_pulse_keeps_its_port_and_victim() {
        let wave = PulseWave::fig6(
            3,
            SimTime::ZERO,
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
            1_000_000,
            Ipv4Addr::new(198, 18, 5, 0),
            5,
        );
        let specs = wave.pulses.clone();
        let mut src = wave.into_source();
        while let Some(p) = src.next_packet() {
            let spec = specs
                .iter()
                .find(|s| s.class == p.class)
                .expect("class maps to a pulse");
            assert_eq!(p.dst, spec.victim);
            assert_eq!(p.dport, spec.dport);
        }
    }
}
