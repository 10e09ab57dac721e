//! ACC-Turbo switch configuration.

use accturbo_clustering::{ClusteringConfig, FeatureSet};
use accturbo_sched::RankingAlgorithm;

/// Configuration of a full ACC-Turbo switch.
#[derive(Debug, Clone)]
pub struct AccTurboConfig {
    /// The online-clustering engine (features, distance, search, |C|).
    pub clustering: ClusteringConfig,
    /// The control plane's ranking algorithm (§5.1).
    pub ranking: RankingAlgorithm,
    /// Number of strict-priority queues (≤ |C| on hardware; defaults to
    /// one queue per cluster).
    pub num_queues: usize,
    /// Per-queue buffer, in bytes.
    pub queue_capacity_bytes: u64,
    /// Shared buffer across all queues (a traffic manager's packet
    /// buffer): per-queue caps bound how much one queue can hog; the
    /// shared cap bounds the total.
    pub shared_capacity_bytes: Option<u64>,
    /// Re-seed the clusters at every control tick, as the authors'
    /// prototype does, so cluster shapes track the current traffic rather
    /// than growing monotonically (see DESIGN.md §4).
    pub reset_on_poll: bool,
}

impl AccTurboConfig {
    /// The Tofino-1 hardware profile of §6/§7: 4 clusters, 4 features, 4
    /// priority queues, Manhattan distance, fast search, throughput
    /// ranking, clusters re-seeded at every poll.
    pub fn hardware(features: FeatureSet) -> Self {
        assert!(
            features.len() <= 4,
            "the Tofino-1 profile supports at most 4 features (paper §6)"
        );
        AccTurboConfig {
            clustering: ClusteringConfig::deployable(4, features),
            ranking: RankingAlgorithm::Throughput,
            num_queues: 4,
            queue_capacity_bytes: 256 * 1024,
            shared_capacity_bytes: Some(512 * 1024),
            reset_on_poll: true,
        }
    }

    /// The simulation profile of §8: 10 clusters over the given features,
    /// deployable clustering, throughput ranking.
    pub fn simulation(features: FeatureSet) -> Self {
        AccTurboConfig {
            clustering: ClusteringConfig::deployable(10, features),
            ranking: RankingAlgorithm::Throughput,
            num_queues: 10,
            queue_capacity_bytes: 256 * 1024,
            shared_capacity_bytes: Some(1024 * 1024),
            reset_on_poll: true,
        }
    }

    /// Overrides the cluster count, keeping one priority queue per
    /// cluster (the deployable mapping both profiles use).
    pub fn with_clusters(mut self, n: usize) -> Self {
        assert!(n > 0, "cluster count must be positive");
        self.clustering.num_clusters = n;
        self.num_queues = n;
        self
    }

    /// Overrides the ranking algorithm.
    pub fn with_ranking(mut self, ranking: RankingAlgorithm) -> Self {
        self.ranking = ranking;
        self
    }

    /// Overrides the per-queue buffer size.
    pub fn with_queue_capacity(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "queue capacity must be positive");
        self.queue_capacity_bytes = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accturbo_clustering::{DistanceKind, SearchKind};

    #[test]
    fn hardware_profile_matches_the_paper() {
        let cfg = AccTurboConfig::hardware(FeatureSet::hardware_fig6());
        assert_eq!(cfg.clustering.num_clusters, 4);
        assert_eq!(cfg.clustering.features.len(), 4);
        assert_eq!(cfg.clustering.distance, DistanceKind::Manhattan);
        assert_eq!(cfg.clustering.search, SearchKind::Fast);
        assert_eq!(cfg.num_queues, 4);
        assert!(cfg.reset_on_poll);
    }

    #[test]
    fn simulation_profile_uses_ten_clusters() {
        let cfg = AccTurboConfig::simulation(FeatureSet::simulation_default());
        assert_eq!(cfg.clustering.num_clusters, 10);
        assert_eq!(cfg.num_queues, 10);
    }

    #[test]
    #[should_panic(expected = "at most 4 features")]
    fn hardware_rejects_wide_feature_sets() {
        let _ = AccTurboConfig::hardware(FeatureSet::simulation_default());
    }
}
