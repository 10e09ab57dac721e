//! The hybrid clustering approach of §8.1 ("Eucl. Fast In." in Fig. 10):
//! cluster centers are periodically recomputed offline (k-means over the
//! last window of packets) and updated online with each new packet in
//! between. The paper finds it outperforms pure-online Euclidean slightly
//! but not enough to justify the added complexity.

use crate::feature::FeatureSet;
use crate::kmeans::{kmeans, nearest};
use accturbo_netsim::Packet;

/// Hybrid offline-initialized / online-updated Euclidean clusterer.
#[derive(Debug, Clone)]
pub struct HybridClusterer {
    features: FeatureSet,
    k: usize,
    learning_rate: f64,
    refit_every: usize,
    seed: u64,
    centers: Vec<Vec<f64>>,
    buffer: Vec<Vec<f64>>,
    since_refit: usize,
    refits: u64,
}

impl HybridClusterer {
    /// Creates a hybrid clusterer that refits centers offline every
    /// `refit_every` packets.
    pub fn new(
        features: FeatureSet,
        k: usize,
        learning_rate: f64,
        refit_every: usize,
        seed: u64,
    ) -> Self {
        assert!(k >= 1, "need at least one cluster");
        assert!(refit_every >= k, "refit window must hold at least k points");
        assert!(
            learning_rate > 0.0 && learning_rate <= 1.0,
            "learning rate must be in (0, 1]"
        );
        HybridClusterer {
            features,
            k,
            learning_rate,
            refit_every,
            seed,
            centers: Vec::new(),
            buffer: Vec::new(),
            since_refit: 0,
            refits: 0,
        }
    }

    /// Assigns `pkt` to a cluster, updating the center online and
    /// triggering an offline refit when the window fills.
    pub fn assign(&mut self, pkt: &Packet) -> usize {
        let point: Vec<f64> = self
            .features
            .extract(pkt)
            .into_iter()
            .map(|v| v as f64)
            .collect();

        self.buffer.push(point.clone());
        self.since_refit += 1;

        if self.centers.is_empty() {
            // Bootstrap: first k distinct-ish points become centers.
            if self.centers.len() < self.k {
                self.centers = vec![point.clone()];
            }
        }

        // Offline refit on a full window.
        if self.since_refit >= self.refit_every && self.buffer.len() >= self.k {
            let fit = kmeans(
                &self.buffer,
                self.k,
                20,
                self.seed.wrapping_add(self.refits),
            );
            self.centers = fit.centers;
            self.refits += 1;
            self.since_refit = 0;
            self.buffer.clear();
        }

        if self.centers.len() < self.k {
            // Still bootstrapping: add the point as a new center if it is
            // not already one.
            if !self.centers.iter().any(|c| c == &point) {
                self.centers.push(point.clone());
                return self.centers.len() - 1;
            }
        }

        let idx = nearest(&self.centers, &point);
        // Online update between refits.
        for (c, v) in self.centers[idx].iter_mut().zip(&point) {
            *c += self.learning_rate * (v - *c);
        }
        idx
    }

    /// Number of offline refits performed so far.
    pub fn refits(&self) -> u64 {
        self.refits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{Feature, FeatureSpec};
    use accturbo_netsim::SimTime;
    use std::net::Ipv4Addr;

    fn features() -> FeatureSet {
        FeatureSet::new(vec![
            FeatureSpec::ordinal(Feature::DstIpByte(3)),
            FeatureSpec::ordinal(Feature::SrcPort),
        ])
    }

    fn pkt(dst_last: u8, sport: u16) -> Packet {
        Packet::new(SimTime::ZERO)
            .with_dst(Ipv4Addr::new(198, 18, 0, dst_last))
            .with_ports(sport, 80)
    }

    #[test]
    fn separates_two_streams() {
        let mut hc = HybridClusterer::new(features(), 2, 0.2, 50, 1);
        let mut assignments = Vec::new();
        for i in 0..200u32 {
            let p = if i % 2 == 0 {
                pkt(10, 1000 + (i % 5) as u16)
            } else {
                pkt(240, 60000 + (i % 5) as u16)
            };
            assignments.push((i % 2, hc.assign(&p)));
        }
        // After the first refit, adjacent packets of the two streams must
        // land in different clusters. Labels may permute exactly at refit
        // boundaries (every 50th packet), so skip the straddling pairs.
        for (i, pair) in assignments[100..].chunks(2).enumerate() {
            let first = 100 + 2 * i;
            if (first % 50) == 48 {
                continue; // refit happens inside this pair
            }
            if let [(0, a), (1, b)] = pair {
                assert_ne!(a, b, "streams collapsed into one cluster at {first}");
            }
        }
    }

    #[test]
    fn refits_happen_at_the_configured_period() {
        let mut hc = HybridClusterer::new(features(), 2, 0.2, 25, 1);
        for i in 0..100u32 {
            hc.assign(&pkt((i % 200) as u8, 1000));
        }
        assert_eq!(hc.refits(), 4);
    }

    #[test]
    fn bootstrap_reaches_k_centers() {
        let mut hc = HybridClusterer::new(features(), 3, 0.2, 100, 1);
        let seeded = [
            hc.assign(&pkt(1, 100)),
            hc.assign(&pkt(100, 20000)),
            hc.assign(&pkt(200, 50000)),
        ];
        assert_eq!(seeded, [0, 1, 2], "each distinct point seeds a center");
    }
}
