//! The control-plane priority mapper (paper §5.2).
//!
//! Each control period the controller (i) polls per-cluster statistics
//! from the data plane, (ii) scores every cluster with a ranking
//! algorithm, and (iii) derives the cluster → priority-queue mapping that
//! the data plane applies to subsequent packets. Least-malicious clusters
//! get the highest priority (queue 0); when there are more clusters than
//! queues the mapping spreads rank-proportionally.

use crate::rank::RankingAlgorithm;
use accturbo_clustering::WindowStats;
use accturbo_obs::{Event, NoopTracer, Tracer};
use std::collections::HashMap;

/// Derives cluster → queue mappings from polled statistics.
#[derive(Debug, Clone)]
pub struct Controller {
    ranking: RankingAlgorithm,
    num_queues: usize,
    /// Operator overrides (§10): cluster index → pinned queue.
    pinned: HashMap<usize, usize>,
    /// Reusable rank-order buffer for the allocation-free control path.
    scratch_order: Vec<usize>,
    /// Reusable score buffer for the allocation-free control path.
    scratch_scores: Vec<f64>,
}

impl Controller {
    /// Creates a controller using `ranking` over `num_queues` priority
    /// queues. Panics when `num_queues` is zero.
    pub fn new(ranking: RankingAlgorithm, num_queues: usize) -> Self {
        assert!(num_queues > 0, "need at least one priority queue");
        Controller {
            ranking,
            num_queues,
            pinned: HashMap::new(),
            scratch_order: Vec::new(),
            scratch_scores: Vec::new(),
        }
    }

    /// The ranking algorithm in use.
    pub fn ranking(&self) -> RankingAlgorithm {
        self.ranking
    }

    /// Number of priority queues.
    pub fn num_queues(&self) -> usize {
        self.num_queues
    }

    /// Pins `cluster` to `queue` regardless of its score — the operator
    /// override of §10 (e.g. a dedicated queue for known-benign traffic).
    pub fn pin(&mut self, cluster: usize, queue: usize) {
        assert!(queue < self.num_queues, "pinned queue out of range");
        self.pinned.insert(cluster, queue);
    }

    /// Removes a pin.
    pub fn unpin(&mut self, cluster: usize) {
        self.pinned.remove(&cluster);
    }

    /// Computes the cluster → queue mapping for this period.
    ///
    /// `stats[i]` and `sizes[i]` describe cluster `i` (`sizes[i] = None`
    /// for empty slots). Returns one queue index per cluster.
    pub fn assign_queues(&self, stats: &[WindowStats], sizes: &[Option<f64>]) -> Vec<usize> {
        let mut queues = Vec::new();
        self.clone()
            .assign_queues_into(stats, sizes, &mut NoopTracer, 0, &mut queues);
        queues
    }

    /// Allocation-free variant of [`assign_queues`](Self::assign_queues):
    /// writes the mapping into `out` (cleared first), reusing internal
    /// scratch buffers across calls, and emits a `priority_remap` trace
    /// event at `now_ns` carrying it.
    ///
    /// Clusters are ranked by ascending score (stable tie-break on
    /// index), the ranks spread proportionally over the queues, and
    /// operator pins applied last.
    pub fn assign_queues_into<T: Tracer + ?Sized>(
        &mut self,
        stats: &[WindowStats],
        sizes: &[Option<f64>],
        tracer: &mut T,
        now_ns: u64,
        out: &mut Vec<usize>,
    ) {
        assert_eq!(stats.len(), sizes.len(), "stats/sizes arity mismatch");
        let n = stats.len();
        let (order, scores) = (&mut self.scratch_order, &mut self.scratch_scores);
        order.clear();
        order.extend(0..n);
        scores.clear();
        scores.extend((0..n).map(|i| self.ranking.score(&stats[i], sizes[i])));
        // Ascending score: best behaved first. Stable tie-break on index.
        order.sort_by(|&a, &b| {
            scores[a]
                .partial_cmp(&scores[b])
                .expect("scores are finite")
                .then(a.cmp(&b))
        });
        out.clear();
        out.resize(n, 0);
        for (rank, &cluster) in order.iter().enumerate() {
            // Spread ranks over the queues proportionally.
            out[cluster] = rank * self.num_queues / n.max(1);
        }
        for (&cluster, &queue) in &self.pinned {
            if cluster < n {
                out[cluster] = queue;
            }
        }
        if tracer.enabled() {
            tracer.record(
                now_ns,
                &Event::PriorityRemap {
                    mapping: out.as_slice().into(),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(v: &[(u64, u64)]) -> Vec<WindowStats> {
        v.iter()
            .map(|&(pkts, bytes)| WindowStats { pkts, bytes })
            .collect()
    }

    #[test]
    fn highest_rate_cluster_gets_worst_queue() {
        let c = Controller::new(RankingAlgorithm::Throughput, 4);
        let s = stats(&[(10, 1_000), (10, 100_000), (10, 10_000), (10, 500)]);
        let sizes = vec![Some(1.0); 4];
        let q = c.assign_queues(&s, &sizes);
        assert_eq!(q[1], 3, "heaviest cluster must be deprioritized");
        assert_eq!(q[3], 0, "lightest cluster must keep top priority");
        assert_eq!(q, vec![1, 3, 2, 0]);
    }

    #[test]
    fn more_clusters_than_queues_spread_proportionally() {
        let c = Controller::new(RankingAlgorithm::NumPackets, 2);
        let s = stats(&[(1, 1), (2, 1), (3, 1), (4, 1)]);
        let sizes = vec![Some(1.0); 4];
        let q = c.assign_queues(&s, &sizes);
        assert_eq!(q, vec![0, 0, 1, 1]);
    }

    #[test]
    fn empty_slots_rank_best() {
        let c = Controller::new(RankingAlgorithm::Throughput, 3);
        let s = stats(&[(0, 0), (10, 10_000), (5, 3_000)]);
        let sizes = vec![None, Some(1.0), Some(1.0)];
        let q = c.assign_queues(&s, &sizes);
        assert_eq!(q[0], 0);
        assert_eq!(q[1], 2);
        assert_eq!(q[2], 1);
    }

    #[test]
    fn pinning_overrides_scores() {
        let mut c = Controller::new(RankingAlgorithm::Throughput, 4);
        c.pin(1, 0); // cluster 1 is known-benign
        let s = stats(&[(10, 100), (10, 1_000_000), (10, 500), (10, 200)]);
        let sizes = vec![Some(1.0); 4];
        let q = c.assign_queues(&s, &sizes);
        assert_eq!(q[1], 0, "pin must win over the score");
        c.unpin(1);
        let q = c.assign_queues(&s, &sizes);
        assert_eq!(q[1], 3);
    }

    #[test]
    fn ties_break_deterministically() {
        let c = Controller::new(RankingAlgorithm::Throughput, 4);
        let s = stats(&[(1, 100), (1, 100), (1, 100), (1, 100)]);
        let sizes = vec![Some(1.0); 4];
        assert_eq!(c.assign_queues(&s, &sizes), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one priority queue")]
    fn zero_queues_rejected() {
        let _ = Controller::new(RankingAlgorithm::Throughput, 0);
    }

    #[test]
    fn into_variant_matches_allocating_variant() {
        let mut c = Controller::new(RankingAlgorithm::Throughput, 4);
        c.pin(2, 1);
        let mut out = Vec::new();
        for round in 0..5u64 {
            let s = stats(&[
                (10 + round, 1_000 * (round + 1)),
                (10, 100_000 / (round + 1)),
                (10, 10_000),
                (0, 0),
            ]);
            let sizes = vec![Some(1.0), Some(2.0), Some(0.5), None];
            let expected = c.assign_queues(&s, &sizes);
            c.assign_queues_into(&s, &sizes, &mut NoopTracer, 0, &mut out);
            assert_eq!(out, expected, "round {round}");
        }
    }

    #[test]
    fn traced_assignment_records_the_mapping() {
        use accturbo_obs::RingTracer;
        let mut c = Controller::new(RankingAlgorithm::Throughput, 4);
        let s = stats(&[(10, 1_000), (10, 100_000), (10, 10_000), (10, 500)]);
        let sizes = vec![Some(1.0); 4];
        let mut t = RingTracer::new(8);
        let mut q = Vec::new();
        c.assign_queues_into(&s, &sizes, &mut t, 7, &mut q);
        assert_eq!(q, c.assign_queues(&s, &sizes));
        let jsonl = t.to_jsonl();
        assert_eq!(
            jsonl,
            "{\"ts\":7,\"ev\":\"priority_remap\",\"mapping\":[1,3,2,0]}\n"
        );
    }
}
