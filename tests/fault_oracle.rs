//! Faulted runs against a per-packet oracle.
//!
//! A faulted run batches its arrivals like any other: the engine pulls
//! up to a control tick ahead through `FaultedSource`, so packet fates
//! are drawn before the clock reaches them, and the switch classifies
//! each batch ahead. The oracle takes the packet faults out of the loop:
//! it draws the faulted stream up front, replays it one packet per batch
//! (pulls then follow the per-packet schedule), and runs it under the
//! same seed with the packet knobs zeroed, so the control, stale and
//! link streams draw exactly as before. Both runs must agree on the
//! result, the backlog, every non-packet fault counter, the degradation
//! counters and the trace outside its `pkt_*` fault lines, where the
//! engine records each control, stale and link fault at its time.

use accturbo::netsim::{
    run_streamed, EngineConfig, FaultConfig, FaultInjector, FaultSchedule, FaultedSource, Filled,
    Packet, PacketSource, SimDuration, SimTime, Switch, VecSource,
};
use accturbo::obs::{shared, Event, RingTracer};
use accturbo_experiments::cli::parse_run;
use accturbo_experiments::spec::{AccTurboSpec, ScenarioSpec};

/// Replays a drawn stream with a `fill` that appends nothing: every
/// batch holds only the arrival that opened it.
struct OnePerBatch(VecSource);

impl PacketSource for OnePerBatch {
    fn next_packet(&mut self) -> Option<Packet> {
        self.0.next_packet()
    }
    fn fill(&mut self, _: &mut Vec<Packet>, _: usize, _: SimTime) -> Filled {
        Filled::Full
    }
}

/// Every fault kind, with flap windows short enough to recur often.
fn all_faults(seed: u64) -> FaultConfig {
    FaultConfig {
        ctrl_drop: 0.2,
        ctrl_delay: 0.2,
        ctrl_delay_max: SimDuration::from_millis(3),
        stale_snapshot: 0.3,
        pkt_drop: 0.02,
        pkt_reorder: 0.05,
        pkt_jitter_max: SimDuration::from_millis(2),
        link_flap: 0.3,
        flap_period: SimDuration::from_millis(200),
        ..FaultConfig::none(seed)
    }
}

/// What both runs must agree on.
struct Outcome {
    result: String,
    backlog: usize,
    /// `(ctrl_dropped, ctrl_delayed, stale_served, flap_windows)`.
    faults: (u64, u64, u64, u64),
    degradation: String,
    trace: Vec<(u64, Event)>,
}

/// Runs `source` through a traced ACC-Turbo switch under `faults`, with
/// the control period `period`.
fn run(
    spec: &ScenarioSpec,
    period: SimDuration,
    source: &mut dyn PacketSource,
    faults: &FaultInjector,
) -> Outcome {
    let ring = shared(RingTracer::new(1 << 22));
    let mut sw = AccTurboSpec::simulation().build();
    sw.set_tracer(Box::new(ring.clone()));
    sw.set_faults(faults.clone());
    let cfg = EngineConfig::experiment(spec.link_bps, spec.secs, Some(period));
    let res = run_streamed(source, &mut sw, &cfg, &mut ring.clone(), Some(faults), None);
    let s = faults.stats();
    let ring = ring.borrow();
    assert_eq!(ring.total_recorded(), ring.len() as u64, "nothing evicted");
    let trace = ring
        .iter()
        .filter(
            |(_, e)| !matches!(e, Event::FaultInjected { kind, .. } if kind.starts_with("pkt_")),
        )
        .cloned()
        .collect();
    Outcome {
        result: format!("{res:?}"),
        backlog: sw.backlog_pkts(),
        faults: (
            s.ctrl_dropped,
            s.ctrl_delayed,
            s.stale_served,
            s.flap_windows,
        ),
        degradation: format!("{:?}", sw.degradation().counters()),
        trace,
    }
}

#[test]
fn a_batched_faulted_run_matches_its_per_packet_oracle() {
    let spec = parse_run(&["workload=fig2", "defense=accturbo", "secs=10"].map(String::from))
        .unwrap()
        .spec;
    let workload = || spec.workload.build(spec.link_bps, spec.secs, spec.seed);
    for (seed, period_ms) in [(7, 10), (8, 3)] {
        let period = SimDuration::from_millis(period_ms);
        let label = format!("seed {seed}, period {period_ms} ms");

        let live = FaultInjector::new(FaultSchedule::new(all_faults(seed)));
        let mut src = FaultedSource::new(workload(), live.clone());
        let got = run(&spec, period, &mut src, &live);
        let stats = live.stats();
        assert!(stats.pkt_dropped > 0 && stats.pkt_reordered > 0, "{label}");
        let (drops, delays, stale, flaps) = got.faults;
        assert!(drops > 0 && delays > 0 && stale > 0 && flaps > 0, "{label}");
        let traced = got
            .trace
            .iter()
            .filter(|(_, e)| e.kind() == "fault")
            .count();
        let drawn = drops + delays + stale + flaps;
        assert_eq!(
            traced as u64, drawn,
            "{label}: the run's tracer gets every fault"
        );

        let drawn = FaultInjector::new(FaultSchedule::new(all_faults(seed)));
        let mut faulted = FaultedSource::new(workload(), drawn);
        let stream: Vec<Packet> = std::iter::from_fn(|| faulted.next_packet()).collect();
        let oracle = FaultInjector::new(FaultSchedule::new(FaultConfig {
            pkt_drop: 0.0,
            pkt_reorder: 0.0,
            ..all_faults(seed)
        }));
        let mut replay = OnePerBatch(VecSource::new(stream));
        let want = run(&spec, period, &mut replay, &oracle);
        assert_eq!(oracle.stats().pkt_dropped, 0, "{label}");

        assert_eq!(got.result, want.result, "{label}: run result");
        assert_eq!(got.backlog, want.backlog, "{label}: backlog");
        assert_eq!(got.faults, want.faults, "{label}: fault counters");
        assert_eq!(got.degradation, want.degradation, "{label}: degradation");
        assert_eq!(got.trace.len(), want.trace.len(), "{label}: trace length");
        assert!(got.trace == want.trace, "{label}: the traces differ");
    }
}
