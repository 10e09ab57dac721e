//! Controller edge cases surfaced by fault injection: a faulted control
//! plane can poll mid-reset and hand the controller empty or all-idle
//! cluster views. Mapping derivation must stay total (no panic, sane
//! output) on those inputs.

use accturbo_clustering::WindowStats;
use accturbo_obs::NoopTracer;
use accturbo_sched::{Controller, RankingAlgorithm};

fn all_rankings() -> [RankingAlgorithm; 4] {
    [
        RankingAlgorithm::Throughput,
        RankingAlgorithm::NumPackets,
        RankingAlgorithm::ThroughputOverSize,
        RankingAlgorithm::NumPacketsOverSize,
    ]
}

/// Zero clusters (a poll racing the clusterer's reset): the mapping is
/// empty, for every ranking algorithm and both entry points.
#[test]
fn empty_cluster_view_maps_to_nothing() {
    for ranking in all_rankings() {
        let mut c = Controller::new(ranking, 8);
        assert!(c.assign_queues(&[], &[]).is_empty());
        // The into-variant must also clear stale output from a previous
        // period, not leave the old mapping in place.
        let mut out = vec![3, 1, 4, 1, 5];
        c.assign_queues_into(&[], &[], &mut NoopTracer, 0, &mut out);
        assert!(out.is_empty(), "stale mapping survived an empty poll");
    }
}

/// All-idle slots (`sizes[i] = None` everywhere): every cluster still
/// gets a valid queue index.
#[test]
fn all_idle_slots_still_map_to_valid_queues() {
    for ranking in all_rankings() {
        let c = Controller::new(ranking, 4);
        let stats = vec![WindowStats::default(); 6];
        let sizes = vec![None; 6];
        let queues = c.assign_queues(&stats, &sizes);
        assert_eq!(queues.len(), 6);
        assert!(queues.iter().all(|&q| q < 4), "queue index out of range");
    }
}

/// A single queue degenerates to "everything in queue 0" regardless of
/// scores — the shape the FIFO fallback relies on.
#[test]
fn single_queue_controller_maps_everything_to_zero() {
    let c = Controller::new(RankingAlgorithm::Throughput, 1);
    let stats: Vec<WindowStats> = (0..5)
        .map(|i| WindowStats {
            pkts: i * 100,
            bytes: i * 100_000,
        })
        .collect();
    let sizes: Vec<Option<f64>> = (0..5).map(|i| Some(i as f64)).collect();
    assert!(c.assign_queues(&stats, &sizes).iter().all(|&q| q == 0));
}

/// A pin on a cluster index that the (shrunken) view no longer contains
/// must not panic or corrupt the mapping of the clusters that do exist.
#[test]
fn pin_beyond_the_view_is_ignored() {
    let mut c = Controller::new(RankingAlgorithm::Throughput, 4);
    c.pin(10, 2);
    let stats = vec![WindowStats::default(); 3];
    let sizes = vec![None; 3];
    let queues = c.assign_queues(&stats, &sizes);
    assert_eq!(queues.len(), 3);
    assert!(queues.iter().all(|&q| q < 4));
    c.unpin(10);
    assert_eq!(c.assign_queues(&stats, &sizes), queues);
}
