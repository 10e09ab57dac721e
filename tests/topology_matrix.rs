//! Property tests for the multi-switch topology layer:
//!
//! * every topology shape × every defense conserves packets end to end
//!   (no packet is created or lost crossing a link), with per-node drop
//!   accounting summing to the end-to-end total;
//! * a `line:1` topology is **byte-identical** to the single-switch
//!   `ScenarioSpec::execute()` for the fig2 and fig6 workloads — the
//!   differential that proves the topology layer composes the existing
//!   engine rather than re-implementing it;
//! * the engine's one loop equals the pre-unification scan loop
//!   (`topology::reference`) on every shape × defense × pushback setting;
//! * a faulted topology run conserves packets and repeats exactly;
//! * the `topology` registry figure is deterministic at a fixed seed and
//!   invariant under the worker count (`--jobs`).

use accturbo_experiments::cli::{self, Cli};
use accturbo_experiments::spec::{self, ScenarioSpec, TopologySpec, WorkloadSpec};
use accturbo_experiments::{topology, Scale};
use accturbo_netsim::TopologyRunResult;

const SHAPES: &[&str] = &["line:2", "star:3", "fattree:2", "isp-edge"];

/// Every shape × every defense the factory can build: the flood enters
/// at the leaves, crosses links, and every packet is accounted for at
/// exactly one place (departed, dropped at some node, or still queued).
#[test]
fn every_shape_and_defense_conserves_packets() {
    let flood: WorkloadSpec = "flood".parse().unwrap();
    for shape in SHAPES {
        for defense in spec::all_defenses() {
            let name = format!("{shape} × {defense}");
            let t = ScenarioSpec::new(flood.clone(), defense)
                .with_secs(10)
                .with_topology(shape.parse().unwrap())
                .execute_topology();
            let res = &t.result;
            assert!(res.arrivals > 0, "{name}: no packets arrived");
            assert_eq!(
                res.arrivals,
                res.departures + res.drops + t.backlog_pkts as u64,
                "{name}: packet conservation violated \
                 (arrivals {} != departures {} + drops {} + backlog {})",
                res.arrivals,
                res.departures,
                res.drops,
                t.backlog_pkts,
            );
            assert_eq!(
                res.drops,
                t.node_drops.iter().sum::<u64>(),
                "{name}: per-node drops must sum to the end-to-end total"
            );
            assert!(t.hops > 0, "{name}: no link was ever crossed");
        }
    }
}

/// The pushback variant of the matrix: limits flowing upstream must
/// never break conservation (policer drops are still drops).
#[test]
fn pushback_never_breaks_conservation() {
    let flood: WorkloadSpec = "flood".parse().unwrap();
    for shape in ["line:3:pushback=on", "star:3:pushback=on:refresh=0.25"] {
        let t = ScenarioSpec::new(flood.clone(), "acc".parse().unwrap())
            .with_secs(12)
            .with_topology(shape.parse().unwrap())
            .execute_topology();
        assert_eq!(
            t.result.arrivals,
            t.result.departures + t.result.drops + t.backlog_pkts as u64,
            "{shape}: conservation violated"
        );
    }
}

/// `line:1` is the single-switch model: the entire `RunResult` (stats
/// buckets, delay histograms, final time, counters) must match the
/// classic `ScenarioSpec::execute()` byte for byte, workload and
/// control plane included.
#[test]
fn line1_is_byte_identical_to_the_single_switch_engine() {
    for (workload, defense) in [("fig2", "accturbo"), ("fig6", "acc"), ("fig2", "fifo")] {
        let base = ScenarioSpec::new(workload.parse().unwrap(), defense.parse().unwrap());
        let secs = base.workload.default_secs(Scale::Quick);
        let base = base.with_secs(secs);

        let single = base.clone().execute();
        let multi = base
            .clone()
            .with_topology("line:1".parse::<TopologySpec>().unwrap())
            .execute_topology();

        assert_eq!(
            format!("{:?}", single.result),
            format!("{:?}", multi.result),
            "{workload} × {defense}: line:1 diverged from the single-switch engine"
        );
        assert_eq!(
            single.backlog_pkts, multi.backlog_pkts,
            "{workload} × {defense}: backlog diverged"
        );
        assert_eq!(multi.hops, 0, "a one-node topology crosses no links");
        assert_eq!(multi.node_drops.len(), 1);
    }
}

/// The `execute()` wrapper must agree with `execute_topology()` so both
/// CLI paths (summary rendering vs. figure internals) see one truth.
#[test]
fn execute_and_execute_topology_agree() {
    let spec = ScenarioSpec::new("flood".parse().unwrap(), "red".parse().unwrap())
        .with_secs(10)
        .with_topology("star:4:attackers=0+1".parse().unwrap());
    let a = spec.execute();
    let b = spec.execute_topology();
    assert_eq!(format!("{:?}", a.result), format!("{:?}", b.result));
    assert_eq!(a.backlog_pkts, b.backlog_pkts);
}

/// The differential for the engine's one loop: every shape × defense ×
/// pushback setting, run through `execute_topology()` and through the
/// reference scan loop on identically built switches, must agree on the
/// whole `RunResult` and the per-node record. The widest cases (the old
/// `star:64` and `fattree:6` caps, with pushback) exercise the calendar
/// and the ready set with many nodes in flight at once, and the
/// `pushback` figure's tree (a RED-tuned ACC root over two FIFO edges
/// with a placement of its own) checks heterogeneous switches.
#[test]
fn every_shape_matches_the_reference_scan_loop() {
    let mut cases = Vec::new();
    for shape in ["line:1", "line:3", "star:3", "fattree:2", "isp-edge"] {
        for defense in ["fifo", "red", "acc", "accturbo", "jaqen"] {
            for pushback in [false, true] {
                cases.push((shape, defense, pushback));
            }
        }
    }
    for shape in ["star:64", "fattree:6"] {
        for defense in ["fifo", "acc"] {
            cases.push((shape, defense, true));
        }
    }
    let mut installs: u64 = cases
        .into_iter()
        .map(|(shape, defense, pushback)| matches_the_reference(shape, defense, pushback))
        .sum();
    for pushback in [false, true] {
        installs += pushback_figure_matches_the_reference(pushback);
    }
    assert!(installs > 0, "the matrix must exercise pushback messages");
}

/// One case of the reference differential; returns the run's pushback
/// installs.
fn matches_the_reference(shape: &str, defense: &str, pushback: bool) -> u64 {
    use accturbo_netsim::topology::reference::run_topology_reference;
    use accturbo_netsim::{PushbackPlan, Switch, TopologyConfig};
    use accturbo_traffic::LeafPlacement;

    let mut tspec: TopologySpec = shape.parse().unwrap();
    tspec.pushback = pushback;
    let spec = ScenarioSpec::new("flood".parse().unwrap(), defense.parse().unwrap())
        .with_secs(8)
        .with_topology(tspec.clone());
    let topo = tspec.build(spec.link_bps);
    let mut switches: Vec<Box<dyn Switch>> = (0..topo.num_nodes())
        .map(|i| match i == topo.root() {
            true => spec.defense.build(spec.link_bps),
            false => spec::DefenseSpec::Fifo.build(tspec.uplink(spec.link_bps)),
        })
        .collect();
    let mut src = spec.workload.build(spec.link_bps, spec.secs, spec.seed);
    let placement = LeafPlacement::new(topo.leaves().len(), None);
    let mut cfg = TopologyConfig::experiment(spec.secs, spec.effective_period());
    if pushback {
        cfg = cfg.with_pushback(PushbackPlan::new(tspec.refresh()));
    }
    let place = &mut |p: &_| placement.place(p);
    let want = run_topology_reference(&topo, &mut switches, &mut *src, place, &cfg);
    assert_same_run(&format!("{spec}"), &spec.execute_topology(), &want)
}

/// The `pushback` figure's tree (8 s, canonical seed) against the
/// reference loop; returns the run's pushback installs.
fn pushback_figure_matches_the_reference(pushback: bool) -> u64 {
    use accturbo_experiments::pushback::{place, run, tree, DEFAULT_SEED};
    use accturbo_netsim::topology::reference::run_topology_reference;
    use accturbo_obs::NoopTracer;
    use accturbo_traffic::workloads;

    let secs = 8;
    let (topo, mut switches, cfg) = tree(pushback, secs);
    let mut src = workloads::pushback(secs, DEFAULT_SEED);
    let want = run_topology_reference(&topo, &mut switches, &mut src, &mut place, &cfg);
    let got = run(pushback, secs, DEFAULT_SEED, &mut NoopTracer);
    assert_same_run(
        &format!("pushback figure, pushback={pushback}"),
        &got,
        &want,
    )
}

/// Asserts that `got` equals the reference loop's `want`; returns the
/// run's pushback installs.
fn assert_same_run(name: &str, got: &TopologyRunResult, want: &TopologyRunResult) -> u64 {
    assert_eq!(
        format!("{:?}", got.result),
        format!("{:?}", want.result),
        "{name}: RunResult diverged from the reference loop"
    );
    assert_eq!(got.node_drops, want.node_drops, "{name}: node drops");
    assert_eq!(got.backlog_pkts, want.backlog_pkts, "{name}: backlog");
    assert_eq!(got.hops, want.hops, "{name}: hops");
    assert_eq!(
        got.pushback_installs, want.pushback_installs,
        "{name}: installs"
    );
    assert_eq!(
        got.node_first_limit, want.node_first_limit,
        "{name}: first limits"
    );
    got.pushback_installs
}

/// Faults compose with a tree: the same faulted sentence conserves
/// packets, injects faults, and repeats exactly.
#[test]
fn faulted_topology_runs_conserve_and_repeat() {
    for defense in ["acc", "accturbo"] {
        let argv: Vec<String> = [
            "workload=flood",
            &format!("defense={defense}"),
            "secs=10",
            "topology=star:4:pushback=on",
            "faults=ctrl_drop:0.5+pkt_drop:0.05+link_flap:0.1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let spec = cli::parse_run(&argv).unwrap().spec;
        let (a, b) = (spec.execute(), spec.execute());
        let res = &a.result;
        assert_eq!(
            res.arrivals,
            res.departures + res.drops + a.backlog_pkts as u64,
            "{defense}: conservation violated"
        );
        let stats = a
            .fault_stats
            .as_ref()
            .expect("a faulted run reports its faults");
        assert!(stats.ctrl_dropped > 0 && stats.pkt_dropped > 0, "{stats:?}");
        assert!(a.hops > 0);
        assert_eq!(format!("{:?}", a.result), format!("{:?}", b.result));
        assert_eq!(a.fault_stats, b.fault_stats);
        assert_eq!(
            (a.hops, a.pushback_installs, &a.node_first_limit),
            (b.hops, b.pushback_installs, &b.node_first_limit)
        );
        let mut clean = spec.clone();
        clean.faults = None;
        assert_ne!(
            format!("{:?}", clean.execute().result),
            format!("{:?}", a.result),
            "{defense}: the fault plane must reach the tree"
        );
    }
}

/// Same seed, same figure, twice: identical rendered report and result.
#[test]
fn topology_figure_is_seed_deterministic() {
    let a = topology::figure(Scale::Quick, topology::DEFAULT_SEED);
    let b = topology::figure(Scale::Quick, topology::DEFAULT_SEED);
    assert_eq!(a.rendered, b.rendered);
    assert_eq!(a.result, b.result);
    assert_eq!(a.result.figure, "topology");
}

fn cli_for(targets: &[&str], jobs: usize) -> Cli {
    let mut args: Vec<String> = targets.iter().map(|s| s.to_string()).collect();
    args.push("--quick".into());
    let mut cli = cli::parse(&args).expect("valid targets");
    cli.jobs = jobs;
    cli
}

fn rendered_stream(cli: &Cli) -> String {
    let mut out = String::new();
    cli::run_figures(cli, |block| out.push_str(block));
    out
}

/// The new figure through the real `xp` fan-out: the assembled byte
/// stream is identical for any `--jobs` value.
#[test]
fn topology_figure_is_jobs_invariant_through_the_cli() {
    let targets = ["topology", "fig7", "pushback"];
    let serial = rendered_stream(&cli_for(&targets, 1));
    let parallel = rendered_stream(&cli_for(&targets, 4));
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "stdout must not depend on --jobs");
    assert!(
        serial.contains("==================== topology ===================="),
        "missing the topology block"
    );
}
