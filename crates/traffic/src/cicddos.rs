//! A CICDDoS-2019-like attack day.
//!
//! The paper's simulation evaluation (§8) feeds the CICDDoS-2019 trace —
//! a day of traffic containing a sequence of distinct DDoS attacks — into
//! the simulated switch. This module synthesizes a time-compressed
//! equivalent: continuous benign background with one attack episode per
//! vector, in the order of Fig. 9a. Each episode's class is the vector's
//! index + 1, so clustering quality can be scored per vector.

use crate::background::{BackgroundConfig, BackgroundSource};
use crate::vectors::{AttackConfig, AttackSource, AttackVector};
use accturbo_netsim::{ClassId, MergedSource, PacketSource, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Configuration of the synthetic attack day.
#[derive(Debug, Clone)]
pub struct CicDdosConfig {
    /// Vectors to include, in episode order.
    pub vectors: Vec<AttackVector>,
    /// Benign background rate (bits per second), continuous.
    pub background_bps: u64,
    /// Attack rate during an episode (bits per second).
    pub attack_bps: u64,
    /// Length of each attack episode.
    pub episode: SimDuration,
    /// Quiet gap between episodes.
    pub gap: SimDuration,
    /// Lead-in of pure background before the first episode.
    pub lead_in: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CicDdosConfig {
    fn default() -> Self {
        CicDdosConfig {
            vectors: AttackVector::ALL.to_vec(),
            background_bps: 20_000_000,
            attack_bps: 60_000_000,
            episode: SimDuration::from_secs(8),
            gap: SimDuration::from_secs(4),
            lead_in: SimDuration::from_secs(4),
            seed: 0xC1C,
        }
    }
}

/// One scheduled attack episode.
#[derive(Debug, Clone, Copy)]
pub struct Episode {
    /// The attack vector.
    pub vector: AttackVector,
    /// Episode start.
    pub start: SimTime,
    /// Episode end.
    pub end: SimTime,
    /// Ground-truth class of the episode's packets.
    pub class: ClassId,
}

impl CicDdosConfig {
    /// The episode schedule implied by this configuration.
    pub fn schedule(&self) -> Vec<Episode> {
        let mut at = SimTime::ZERO + self.lead_in;
        self.vectors
            .iter()
            .enumerate()
            .map(|(i, &vector)| {
                let start = at;
                let end = start + self.episode;
                at = end + self.gap;
                Episode {
                    vector,
                    start,
                    end,
                    class: ClassId(i as u16 + 1),
                }
            })
            .collect()
    }

    /// Total duration of the day (end of the last gap).
    pub fn total_duration(&self) -> SimDuration {
        self.lead_in + (self.episode + self.gap) * self.vectors.len() as u64
    }

    /// Ground-truth class for `vector`, if scheduled.
    pub fn class_of(&self, vector: AttackVector) -> Option<ClassId> {
        self.schedule()
            .iter()
            .find(|e| e.vector == vector)
            .map(|e| e.class)
    }

    /// Materializes the full day as one time-ordered source.
    pub fn into_source(self) -> MergedSource {
        let end = SimTime::ZERO + self.total_duration();
        let mut sources: Vec<Box<dyn PacketSource + Send>> = Vec::new();
        sources.push(Box::new(BackgroundSource::new(BackgroundConfig::new(
            self.background_bps,
            SimTime::ZERO,
            end,
            self.seed,
        ))));
        for (i, ep) in self.schedule().into_iter().enumerate() {
            let cfg = AttackConfig::new(
                ep.vector,
                self.attack_bps,
                ep.start,
                ep.end,
                ep.class,
                self.seed.wrapping_add(1000 + i as u64),
            )
            .with_victim(Ipv4Addr::new(198, 18, 0, 10), 4444);
            sources.push(Box::new(AttackSource::new(cfg)));
        }
        MergedSource::new(sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_sequential_and_disjoint() {
        let cfg = CicDdosConfig::default();
        let eps = cfg.schedule();
        assert_eq!(eps.len(), 10);
        for w in eps.windows(2) {
            assert!(w[0].end <= w[1].start, "episodes must not overlap");
        }
        assert_eq!(eps[0].start, SimTime::from_secs(4));
        assert_eq!(eps[0].end, SimTime::from_secs(12));
        assert_eq!(eps[1].start, SimTime::from_secs(16));
    }

    #[test]
    fn classes_are_distinct_per_vector() {
        let cfg = CicDdosConfig::default();
        let classes: std::collections::HashSet<_> =
            cfg.schedule().iter().map(|e| e.class).collect();
        assert_eq!(classes.len(), 10);
        assert_eq!(cfg.class_of(AttackVector::Ntp), Some(ClassId(1)));
        assert_eq!(cfg.class_of(AttackVector::SynFlood), Some(ClassId(10)));
    }

    #[test]
    fn source_emits_attack_only_inside_episodes() {
        let cfg = CicDdosConfig {
            vectors: vec![AttackVector::Ntp, AttackVector::Dns],
            background_bps: 1_000_000,
            attack_bps: 5_000_000,
            episode: SimDuration::from_secs(2),
            gap: SimDuration::from_secs(2),
            lead_in: SimDuration::from_secs(1),
            seed: 7,
        };
        let schedule = cfg.schedule();
        let mut src = cfg.into_source();
        let mut saw_attack = 0u64;
        while let Some(p) = src.next_packet() {
            if p.class.is_attack() {
                saw_attack += 1;
                let ep = schedule
                    .iter()
                    .find(|e| e.class == p.class)
                    .expect("episode for class");
                assert!(p.arrival >= ep.start && p.arrival < ep.end);
            }
        }
        assert!(saw_attack > 100);
    }

    #[test]
    fn total_duration_accounts_for_everything() {
        let cfg = CicDdosConfig::default();
        assert_eq!(cfg.total_duration(), SimDuration::from_secs(4 + 10 * 12));
    }
}
