//! Pushback extension experiment (the original ACC's upstream
//! rate-limiting, which the paper scopes out in §2.1's footnote).
//!
//! Topology: `star:2` at the scaled 10 Mbps bottleneck — two upstream
//! edges feed the bottleneck ACC switch over 12 Mbps links. The attack
//! enters upstream 0 and congests its link, which a benign service
//! shares; upstream 1 carries benign traffic only. Local-only ACC
//! protects the bottleneck but cannot help the shared upstream link;
//! hop-by-hop pushback (`pushback=on`) moves the attack drops upstream
//! and rescues the co-located benign service. The run is the engine's
//! one event loop on that tree, like every `topology=` scenario; the
//! switches and the placement are the figure's own (a RED-tuned ACC
//! root, deep FIFO edges, one upstream per service).

use crate::common::{forced_noop_faults, Scale, LINK_10G_SCALED};
use crate::result::FigureResult;
use crate::spec::TopologySpec;
use crate::Figure;
use accturbo_acc::{AccConfig, AccSwitch};
use accturbo_netsim::{
    run_topology_streamed, Bandwidth, ClassId, FifoQueue, Packet, PushbackPlan, RedConfig,
    SingleQueueSwitch, Switch, Topology, TopologyConfig, TopologyRunResult,
};
use accturbo_obs::{NoopTracer, Tracer};
use accturbo_telemetry::{f, Table};
use accturbo_traffic::workloads;

/// Ground-truth classes of the scenario.
pub const SHARED_BENIGN: ClassId = workloads::PUSHBACK_SHARED_BENIGN;
/// Benign class on the attack-free upstream.
pub const CLEAN_BENIGN: ClassId = workloads::PUSHBACK_CLEAN_BENIGN;
/// The attack class.
pub const ATTACK: ClassId = workloads::PUSHBACK_ATTACK;
/// The canonical workload seed (the historical in-module attack seed).
pub const DEFAULT_SEED: u64 = 0xACC;

/// The figure's tree for a `secs`-second run, with or without pushback:
/// the topology of `star:2[:pushback=on]`, one switch per node (a
/// RED-tuned ACC root, 256 KiB FIFO edges) and the run configuration
/// (ACC's control period, pushback refreshed every 500 ms).
pub fn tree(pushback: bool, secs: u64) -> (Topology, Vec<Box<dyn Switch>>, TopologyConfig) {
    let sentence = if pushback {
        "star:2:pushback=on"
    } else {
        "star:2"
    };
    let spec: TopologySpec = sentence.parse().expect("valid topology");
    let topo = spec.build(LINK_10G_SCALED);
    let acc = AccConfig {
        red: RedConfig {
            min_th: 20.0,
            max_th: 60.0,
            cap_bytes: 100_000,
            ..RedConfig::default()
        },
        ..AccConfig::default()
    };
    let period = acc.control_tick();
    let switches = (0..topo.num_nodes())
        .map(|i| -> Box<dyn Switch> {
            if i == topo.root() {
                Box::new(AccSwitch::new(
                    acc.clone(),
                    Bandwidth::from_bps(LINK_10G_SCALED),
                ))
            } else {
                Box::new(SingleQueueSwitch::new(FifoQueue::new(256 * 1024)))
            }
        })
        .collect();
    let mut cfg = TopologyConfig::experiment(secs, Some(period));
    if spec.pushback {
        cfg = cfg.with_pushback(PushbackPlan::new(spec.refresh()));
    }
    (topo, switches, cfg)
}

/// The upstream (leaf ordinal) `pkt` enters: the clean benign service
/// has upstream 1 to itself; the shared service and the attack enter
/// upstream 0.
pub fn place(pkt: &Packet) -> usize {
    usize::from(pkt.class == CLEAN_BENIGN)
}

/// Runs the scenario once for `secs` seconds at `seed`, with or without
/// pushback; the engine's trace events (a `pushback_limit` per limit
/// message among them) go to `tracer`.
pub fn run<T: Tracer + ?Sized>(
    pushback: bool,
    secs: u64,
    seed: u64,
    tracer: &mut T,
) -> TopologyRunResult {
    let (topo, mut switches, cfg) = tree(pushback, secs);
    let mut nodes: Vec<&mut dyn Switch> = switches.iter_mut().map(|s| s.as_mut() as _).collect();
    let mut src = workloads::pushback(secs, seed);
    let faults = forced_noop_faults();
    run_topology_streamed(
        &topo,
        &mut nodes,
        &mut src,
        &mut place,
        &cfg,
        tracer,
        faults.as_ref(),
        None,
    )
}

/// Percentage of `class`'s packets that left the bottleneck.
fn delivered_pct(res: &TopologyRunResult, class: ClassId) -> f64 {
    let stats = &res.result.stats;
    let arrived = stats.total_arrived(class).pkts;
    if arrived == 0 {
        return 0.0;
    }
    100.0 * stats.total_departed(class).pkts as f64 / arrived as f64
}

/// Regenerates the pushback comparison table at `seed`, returning the
/// rendered report and its machine-readable result.
pub fn figure(scale: Scale, seed: u64) -> Figure {
    let secs = scale.secs(30, 3);
    let local = run(false, secs, seed, &mut NoopTracer);
    let push = run(true, secs, seed, &mut NoopTracer);
    let mut r = FigureResult::new("pushback");
    let mut t = Table::new(&[
        "Traffic",
        "local ACC only (% delivered)",
        "ACC + pushback (% delivered)",
    ]);
    for (name, class, key) in [
        (
            "benign sharing the attacked upstream",
            SHARED_BENIGN,
            "shared_benign",
        ),
        ("benign on the clean upstream", CLEAN_BENIGN, "clean_benign"),
        ("attack", ATTACK, "attack"),
    ] {
        let (local, push) = (delivered_pct(&local, class), delivered_pct(&push, class));
        r.num(&format!("{key}.local_only_delivered_pct"), local);
        r.num(&format!("{key}.pushback_delivered_pct"), push);
        t.row(vec![name.into(), f(local), f(push)]);
    }
    Figure::new(t.render(), r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accturbo_obs::{Event, RingTracer};

    fn upstream_drops(res: &TopologyRunResult) -> u64 {
        res.node_drops[..2].iter().sum()
    }

    #[test]
    fn pushback_rescues_the_co_located_benign_service() {
        let without = run(false, 30, DEFAULT_SEED, &mut NoopTracer);
        let with = run(true, 30, DEFAULT_SEED, &mut NoopTracer);
        let (pct_without, pct_with) = (
            delivered_pct(&without, SHARED_BENIGN),
            delivered_pct(&with, SHARED_BENIGN),
        );
        assert!(
            pct_with > pct_without + 15.0,
            "pushback {pct_with:.1}% vs local-only {pct_without:.1}%"
        );
        // The shared upstream's FIFO crushes the co-located service
        // without pushback, even though the bottleneck eventually
        // rate-limits the aggregate.
        assert!(with.pushback_installs > 0, "pushback must have fired");
        let delivered = |r: &TopologyRunResult| r.result.stats.total_departed(SHARED_BENIGN).pkts;
        assert!(
            delivered(&with) as f64 > 1.5 * delivered(&without) as f64,
            "pushback {} vs local-only {}",
            delivered(&with),
            delivered(&without)
        );
        // And the attack is dropped *upstream* when pushback is on.
        assert!(
            upstream_drops(&with) > upstream_drops(&without),
            "drops must move upstream: {} vs {}",
            upstream_drops(&with),
            upstream_drops(&without)
        );
    }

    #[test]
    fn the_attack_gains_nothing_from_pushback() {
        let without = delivered_pct(&run(false, 30, DEFAULT_SEED, &mut NoopTracer), ATTACK);
        let with = delivered_pct(&run(true, 30, DEFAULT_SEED, &mut NoopTracer), ATTACK);
        assert!(with <= without + 2.0, "attack {with:.1}% vs {without:.1}%");
    }

    #[test]
    fn the_clean_upstream_is_unaffected_either_way() {
        let with = run(true, 20, DEFAULT_SEED, &mut NoopTracer);
        // Upstream 1 never sees the attack; its service is delivered
        // nearly whole under pushback.
        let pct = delivered_pct(&with, CLEAN_BENIGN);
        assert!(pct > 90.0, "clean benign delivered {pct:.2}%");
    }

    /// Keeps only the `pushback_limit` events, so a ring sized for them
    /// holds every one of a run that also traces each packet.
    struct Limits(RingTracer);

    impl Tracer for Limits {
        fn enabled(&self) -> bool {
            true
        }

        fn record(&mut self, ts_ns: u64, event: &Event) {
            if event.kind() == "pushback_limit" {
                self.0.record(ts_ns, event);
            }
        }
    }

    #[test]
    fn traced_run_records_pushback_limits() {
        let mut t = Limits(RingTracer::new(100_000));
        let res = run(true, 20, DEFAULT_SEED, &mut t);
        assert!(res.pushback_installs > 0, "pushback must have fired");
        let limits = t.0.iter().count() as u64;
        // Every install and every later revision is traced.
        assert!(
            limits >= res.pushback_installs,
            "{limits} events vs {} installs",
            res.pushback_installs
        );
        let jsonl = t.0.to_jsonl();
        assert!(jsonl.contains("\"ev\":\"pushback_limit\""));
        assert!(jsonl.contains("\"upstream\":0"));
    }

    #[test]
    fn conservation_is_exact_in_the_figure_tree() {
        for pushback in [false, true] {
            let t = run(pushback, 15, DEFAULT_SEED, &mut NoopTracer);
            let res = &t.result;
            assert_eq!(
                res.arrivals,
                res.departures + res.drops + t.backlog_pkts as u64,
                "pushback={pushback}"
            );
            for class in [SHARED_BENIGN, CLEAN_BENIGN, ATTACK] {
                let s = &res.stats;
                assert_eq!(
                    s.total_arrived(class).pkts,
                    s.total_departed(class).pkts + s.total_dropped(class).pkts,
                    "pushback={pushback}, class {class}: the tree drains"
                );
            }
        }
    }
}
