//! Per-packet rank scheduling for ACC-Turbo (the other end of §5's design
//! space).
//!
//! The deployed design offloads rank computation to the control plane and
//! maps whole clusters to queues. §5.1 also sketches true *per-packet*
//! ranking — `rank(p) = throughput(c)` etc. — which needs a rank-capable
//! scheduler. [`RankedAccTurboSwitch`] implements that path: every packet
//! is ranked by its cluster's last-polled score and scheduled by
//! [`accturbo_sched::SpPifo`] (the strict-priority approximation of a
//! PIFO, citing the paper's [24]).
//!
//! Compared to the cluster→queue mapping, per-packet ranks react to score
//! changes without waiting for a table update and grade priorities
//! continuously instead of in |queues| steps.

use crate::config::AccTurboConfig;
use accturbo_clustering::{FeatureBatch, OnlineClusterer, WindowStats};
use accturbo_netsim::{Dropped, Packet, SimTime, Switch};
use accturbo_sched::{RankingAlgorithm, SpPifo};

/// ACC-Turbo with per-packet ranks over an SP-PIFO scheduler.
pub struct RankedAccTurboSwitch {
    clusterer: OnlineClusterer,
    /// Feature columns of the arrivals classified ahead; empty until the
    /// first batch.
    batch: FeatureBatch,
    ranking: RankingAlgorithm,
    scheduler: SpPifo,
    /// Rank of each cluster, refreshed every control tick from the
    /// polled window statistics (quantized to the scheduler's integer
    /// rank space).
    cluster_rank: Vec<u64>,
    /// Control-tick scratch buffers, reused so ticks don't allocate.
    window_scratch: Vec<WindowStats>,
    scores_scratch: Vec<f64>,
    reset_on_poll: bool,
    ticks: u64,
}

/// Rank-space resolution: scores are mapped to [0, RANK_SPACE).
const RANK_SPACE: f64 = 4096.0;

impl RankedAccTurboSwitch {
    /// Builds the ranked variant from the same configuration as
    /// [`crate::AccTurboSwitch`] (the queue count bounds the SP-PIFO's
    /// queues).
    pub fn new(cfg: AccTurboConfig) -> Self {
        let n = cfg.clustering.num_clusters;
        RankedAccTurboSwitch {
            clusterer: OnlineClusterer::new(cfg.clustering),
            batch: FeatureBatch::new(),
            ranking: cfg.ranking,
            scheduler: SpPifo::new(cfg.num_queues, cfg.queue_capacity_bytes),
            cluster_rank: vec![0; n],
            window_scratch: Vec::new(),
            scores_scratch: Vec::new(),
            reset_on_poll: cfg.reset_on_poll,
            ticks: 0,
        }
    }

    /// Control ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The scheduler (bounds, unpifoness counters) for inspection.
    pub fn scheduler(&self) -> &SpPifo {
        &self.scheduler
    }
}

impl Switch for RankedAccTurboSwitch {
    fn ingress(&mut self, pkt: Packet, now: SimTime, drops: &mut Vec<Dropped>) {
        let cluster = self.clusterer.assign(&pkt);
        let rank = self.cluster_rank[cluster];
        self.scheduler.enqueue_ranked(pkt, rank, now, drops);
    }

    fn classify_ahead(&mut self, pkts: &[Packet], clusters: &mut Vec<u32>) -> bool {
        self.batch.fill(&self.clusterer.config().features, pkts);
        self.clusterer.assign_batch(&self.batch, clusters);
        true
    }

    fn ingress_classified(
        &mut self,
        pkt: Packet,
        cluster: u32,
        now: SimTime,
        drops: &mut Vec<Dropped>,
    ) {
        let rank = self.cluster_rank[cluster as usize];
        self.scheduler.enqueue_ranked(pkt, rank, now, drops);
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        self.scheduler.dequeue(now)
    }

    fn backlog_pkts(&self) -> usize {
        self.scheduler.len_pkts()
    }

    fn control_tick(&mut self, _now: SimTime) {
        self.clusterer.take_window_into(&mut self.window_scratch);
        self.scores_scratch.clear();
        for i in 0..self.window_scratch.len() {
            self.scores_scratch.push(
                self.ranking
                    .score(&self.window_scratch[i], self.clusterer.cost(i)),
            );
        }
        let scores = &self.scores_scratch;
        // Normalize scores into the scheduler's rank space: the heaviest
        // cluster gets the worst rank.
        let max = scores.iter().fold(0.0f64, |a, &b| a.max(b));
        for (i, &s) in scores.iter().enumerate() {
            self.cluster_rank[i] = if max <= 0.0 {
                0
            } else {
                ((s / max) * (RANK_SPACE - 1.0)) as u64
            };
        }
        if self.reset_on_poll {
            self.clusterer.reset_clusters();
        }
        self.ticks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccTurboConfig;
    use accturbo_clustering::FeatureSet;
    use accturbo_netsim::{
        run, Bandwidth, ClassId, EngineConfig, MergedSource, PacketSource, SimDuration, SimTime,
    };
    use accturbo_traffic::{
        AttackConfig, AttackSource, AttackVector, BackgroundConfig, BackgroundSource,
    };

    fn workload(secs: u64) -> MergedSource {
        let end = SimTime::from_secs(secs);
        let bg: Box<dyn PacketSource + Send> = Box::new(BackgroundSource::new(
            BackgroundConfig::new(6_000_000, SimTime::ZERO, end, 5),
        ));
        let attack: Box<dyn PacketSource + Send> = Box::new(AttackSource::new(
            AttackConfig::new(
                AttackVector::UdpFlood,
                40_000_000,
                SimTime::from_secs(3),
                end,
                ClassId(1),
                6,
            )
            .with_single_flow(),
        ));
        MergedSource::new(vec![bg, attack])
    }

    #[test]
    fn ranked_variant_mitigates_a_flood() {
        let mut src = workload(25);
        let mut sw =
            RankedAccTurboSwitch::new(AccTurboConfig::hardware(FeatureSet::hardware_dst_bytes()));
        let cfg = EngineConfig::new(Bandwidth::from_mbps(10))
            .with_stats_interval(SimDuration::from_secs(1))
            .with_control_period(SimDuration::from_millis(50))
            .with_end_time(SimTime::from_secs(25));
        let res = run(&mut src, &mut sw, &cfg);
        let benign = res.stats.benign_drop_pct();
        let attack = res.stats.attack_drop_pct();
        assert!(benign < 30.0, "benign drops {benign:.1}%");
        assert!(attack > 60.0, "attack drops {attack:.1}%");
        assert!(attack > 2.0 * benign);
        assert!(sw.ticks() > 0);
    }

    #[test]
    fn ranked_variant_is_transparent_without_congestion() {
        let end = SimTime::from_secs(5);
        let mut src =
            MergedSource::new(vec![Box::new(BackgroundSource::new(BackgroundConfig::new(
                5_000_000,
                SimTime::ZERO,
                end,
                9,
            ))) as Box<dyn PacketSource + Send>]);
        let mut sw =
            RankedAccTurboSwitch::new(AccTurboConfig::hardware(FeatureSet::hardware_dst_bytes()));
        let cfg = EngineConfig::new(Bandwidth::from_mbps(10))
            .with_control_period(SimDuration::from_millis(50))
            .with_end_time(end);
        let res = run(&mut src, &mut sw, &cfg);
        assert_eq!(res.drops, 0);
    }
}
