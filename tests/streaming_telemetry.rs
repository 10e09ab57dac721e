//! Lockdown for the streaming telemetry layer (DESIGN.md §11):
//!
//! * bounded memory — an internet-day-shaped run keeps the sink ring and
//!   flow reservoir at their capacities no matter how many packets flow,
//! * non-perturbation — threading a live `Telemetry` through a scenario
//!   changes nothing about the simulation itself,
//! * determinism — same seed ⇒ byte-identical dataset export,
//! * flight recorder — a faulted run dumps an incident window, a clean
//!   run dumps nothing, and fault-plane events reach it, a flap's window
//!   holding what followed the flap,
//! * trace — the streamed trace is the `RingTracer` rendering of the
//!   same run, byte for byte, stays in time order under every fault
//!   kind, and installing it leaves the sink stream unchanged,
//! * fan-out — `TeeSink` delivers every line to every sink in order,
//!   including when fed from the parallel runner's in-order stream.

use accturbo_experiments::cli::{build_telemetry, parse_run, Outputs};
use accturbo_experiments::spec::{AccTurboSpec, ScenarioOutcome, ScenarioSpec};
use accturbo_netsim::{run_streamed, EngineConfig};
use accturbo_obs::{
    shared, DatasetSink, FlightRecorder, FlowSampler, RingSink, RingTracer, Sink, TeeSink,
    Telemetry,
};
use std::cell::RefCell;
use std::rc::Rc;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("accturbo_stream_{}_{name}", std::process::id()))
}

/// A sink whose lines stay inspectable after the sink itself has been
/// boxed and moved into a recorder or telemetry bundle.
#[derive(Clone, Default)]
struct ProbeSink(Rc<RefCell<Vec<String>>>);

impl Sink for ProbeSink {
    fn emit(&mut self, line: &str) {
        self.0.borrow_mut().push(line.to_string());
    }
    fn flush(&mut self) {}
}

/// The acceptance scenario: a quick-scale CICDDoS day replay with both
/// a JSONL sink and a dataset exporter attached stays within the
/// configured capacities even though millions of packets (and far more
/// flows than the reservoir holds) pass through.
#[test]
fn cicday_quick_run_keeps_telemetry_memory_bounded() {
    const RING: usize = 64;
    const FLOWS: usize = 256;
    let cmd = parse_run(&args(&[
        "workload=cicday",
        "defense=accturbo",
        "--quick",
        "secs=30",
    ]))
    .unwrap();
    let probe = ProbeSink::default();
    let mut ring = TeeSink::new();
    ring.push(Box::new(RingSink::new(RING)));
    let dataset_path = tmp_path("bounded.csv");
    let mut tel = Telemetry::new()
        .with_sink(Box::new(probe.clone()))
        .with_flow_sampler(FlowSampler::new(FLOWS, cmd.spec.seed))
        .with_dataset(DatasetSink::create(&dataset_path).unwrap());
    let outcome = cmd.spec.execute_streamed(Some(&mut tel));

    assert!(outcome.result.arrivals > 100_000, "workload too small");
    assert!(
        tel.flows_seen() > FLOWS as u64 * 10,
        "need many more flows than reservoir slots, saw {}",
        tel.flows_seen()
    );
    assert!(
        tel.flows_sampled() <= FLOWS,
        "reservoir exceeded capacity: {}",
        tel.flows_sampled()
    );
    assert_eq!(tel.dataset_rows() as usize, tel.flows_sampled());
    // One period per simulated second plus the final end-of-run flush.
    assert!(
        tel.periods() == 30 || tel.periods() == 31,
        "periods: {}",
        tel.periods()
    );
    // The sink was flushed every period, not accumulated: a bounded ring
    // fed the same stream would have evicted most of it.
    let mut bounded = RingSink::new(RING);
    for line in probe.0.borrow().iter() {
        bounded.emit(line);
    }
    assert_eq!(bounded.len(), RING);
    assert_eq!(bounded.total_emitted(), tel.sink_lines());
    assert!(tel.sink_lines() > RING as u64);
    std::fs::remove_file(&dataset_path).ok();
}

/// Attaching a full telemetry bundle (sink, trace and flight recorder)
/// must not perturb the simulation: for every defense with and without
/// a fault plane, the streamed outcome matches the plain `execute()`
/// packet for packet, fault counter for fault counter, and so does a
/// run with only a trace. `topology=line:1` runs flat when streamed,
/// and both of its outcomes match the flat run's.
#[test]
fn telemetry_does_not_perturb_the_scenario() {
    fn streamed(spec: &ScenarioSpec) -> ScenarioOutcome {
        let rec = FlightRecorder::new(256, 32, Box::new(RingSink::new(64)));
        let mut tel = Telemetry::new()
            .with_sink(Box::new(RingSink::new(1024)))
            .with_trace(Box::new(RingSink::new(64)))
            .with_recorder(rec);
        let out = spec.execute_streamed(Some(&mut tel));
        assert!(tel.periods() > 0 && tel.sink_lines() > 0 && tel.trace_lines() > 0);
        out
    }
    fn traced(spec: &ScenarioSpec) -> ScenarioOutcome {
        let mut tel = Telemetry::new().with_trace(Box::new(RingSink::new(64)));
        let out = spec.execute_streamed(Some(&mut tel));
        assert!(tel.trace_lines() > 0);
        out
    }
    fn assert_same(ctx: &str, a: &ScenarioOutcome, b: &ScenarioOutcome) {
        assert_eq!(a.result.arrivals, b.result.arrivals, "{ctx}: arrivals");
        assert_eq!(
            a.result.departures, b.result.departures,
            "{ctx}: departures"
        );
        assert_eq!(a.result.drops, b.result.drops, "{ctx}: drops");
        assert_eq!(a.backlog_pkts, b.backlog_pkts, "{ctx}: backlog");
        assert_eq!(a.fault_stats, b.fault_stats, "{ctx}: fault stats");
        assert_eq!(a.missed_ticks, b.missed_ticks, "{ctx}: missed ticks");
        assert_eq!(a.stale_ticks, b.stale_ticks, "{ctx}: stale ticks");
        assert_eq!(a.fallbacks, b.fallbacks, "{ctx}: fallbacks");
        assert_eq!(a.hops, b.hops, "{ctx}: hops");
        assert_eq!(a.pushback_installs, b.pushback_installs, "{ctx}: installs");
        assert_eq!(
            a.node_first_limit, b.node_first_limit,
            "{ctx}: first limits"
        );
    }

    // The single switch, then the tree rows: telemetry and the flight
    // recorder hook into the same loop on any topology.
    let rows = ["fifo", "acc", "accturbo", "jaqen"]
        .map(|d| (d, None))
        .into_iter()
        .chain(["acc", "accturbo"].into_iter().flat_map(|d| {
            ["topology=star:3", "topology=fattree:2:pushback=on"].map(|t| (d, Some(t)))
        }));
    for (defense, topology) in rows {
        for faults in [
            None,
            Some("faults=ctrl_drop:0.3+pkt_drop:0.05+link_flap:0.1"),
        ] {
            let mut argv = vec![
                "workload=fig2".to_string(),
                format!("defense={defense}"),
                "secs=6".to_string(),
                "--quick".to_string(),
            ];
            argv.extend(topology.map(str::to_string));
            argv.extend(faults.map(str::to_string));
            let spec = parse_run(&argv).unwrap().spec;
            let plain = spec.execute();
            assert_eq!(plain.fault_stats.is_some(), faults.is_some());
            let ctx = argv.join(" ");
            assert_same(&ctx, &plain, &streamed(&spec));
            assert_same(&format!("{ctx} --trace"), &plain, &traced(&spec));
        }
    }

    let line1 = parse_run(&args(&[
        "workload=fig2",
        "defense=accturbo",
        "secs=6",
        "topology=line:1",
    ]))
    .unwrap()
    .spec;
    let mut flat = line1.clone();
    flat.topology = None;
    let flat = flat.execute();
    assert_same("line:1 execute", &flat, &line1.execute());
    assert_same("line:1 streamed", &flat, &streamed(&line1));
}

/// Same seed ⇒ byte-identical dataset export, twice over.
#[test]
fn dataset_export_is_deterministic_per_seed() {
    let run = |path: &std::path::Path| {
        let cmd = parse_run(&args(&[
            "workload=fig2",
            "defense=accturbo",
            "secs=6",
            "--quick",
        ]))
        .unwrap();
        let outputs = Outputs {
            dataset: Some(path.to_str().unwrap().into()),
            ..Outputs::default()
        };
        let mut tel = build_telemetry(&outputs, cmd.spec.seed).unwrap().unwrap();
        cmd.spec.execute_streamed(Some(&mut tel));
        std::fs::read(path).unwrap()
    };
    let a_path = tmp_path("det_a.csv");
    let b_path = tmp_path("det_b.csv");
    let a = run(&a_path);
    let b = run(&b_path);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must produce a byte-identical dataset");
    std::fs::remove_file(&a_path).ok();
    std::fs::remove_file(&b_path).ok();
}

/// A fault-injected run trips the flight recorder and dumps a non-empty
/// incident window; the identical clean run dumps nothing. The
/// pulse-onset heuristic is floored out of reach on both sides so the
/// only difference between the runs is the fault plane.
#[test]
fn flight_recorder_fires_on_faults_and_stays_silent_when_clean() {
    let run = |faulted: bool| {
        let mut argv = vec![
            "workload=flood".to_string(),
            "defense=accturbo".to_string(),
            "secs=10".to_string(),
        ];
        if faulted {
            argv.push("faults=ctrl_drop:1.0".to_string());
        }
        let cmd = parse_run(&argv).unwrap();
        let probe = ProbeSink::default();
        let rec = FlightRecorder::new(256, 32, Box::new(probe.clone()));
        let mut tel = Telemetry::new()
            .with_recorder(rec)
            .with_pulse_onset(4.0, u64::MAX);
        cmd.spec.execute_streamed(Some(&mut tel));
        let lines = probe.0.borrow().clone();
        (tel.recorder_windows(), lines)
    };

    let (clean_windows, clean_lines) = run(false);
    assert_eq!(clean_windows, 0, "clean run must not trigger the recorder");
    assert!(clean_lines.is_empty(), "clean run dumped: {clean_lines:?}");

    let (fault_windows, fault_lines) = run(true);
    assert!(fault_windows >= 1, "faulted run must dump a window");
    assert!(
        fault_lines[0].contains("\"ev\":\"flight_window\""),
        "window header first: {}",
        fault_lines[0]
    );
    assert!(
        fault_lines.len() > 1,
        "window must contain the buffered events, got {fault_lines:?}"
    );
}

/// The fault plane's events reach the flight recorder: link flaps on a
/// plain FIFO (no switch tracer, no degradation) arm it, while
/// per-packet fates are recorded without arming it. The pulse-onset
/// heuristic is floored out of reach so only faults can arm.
#[test]
fn fault_events_reach_the_flight_recorder() {
    let windows = |faults: &str| {
        let cmd = parse_run(&args(&[
            "workload=background",
            "defense=fifo",
            "secs=10",
            faults,
        ]))
        .unwrap();
        let probe = ProbeSink::default();
        let rec = FlightRecorder::new(512, 64, Box::new(probe.clone()));
        let mut tel = Telemetry::new()
            .with_recorder(rec)
            .with_pulse_onset(4.0, u64::MAX);
        let out = cmd.spec.execute_streamed(Some(&mut tel));
        let lines = probe.0.borrow().clone();
        (
            out.fault_stats.expect("a fault plane"),
            tel.recorder_windows(),
            lines,
        )
    };

    let (stats, flap_windows, lines) = windows("faults=link_flap:0.3");
    assert!(stats.flap_windows > 0, "the flaps must fire");
    assert!(flap_windows >= 1, "link flaps must dump a window");
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"ev\":\"flight_window\"") && l.contains("\"trigger\":\"fault\"")),
        "a window armed by a fault"
    );
    assert!(lines.iter().any(|l| l.contains("\"kind\":\"link_flap\"")));
    // A flap's window holds what followed the flap: past its `fault`
    // line, no event is older than the flap.
    let mut rest = &lines[..];
    let mut flap_windows = 0;
    while let Some((header, tail)) = rest.split_first() {
        let events: usize = header
            .rsplit("\"events\":")
            .next()
            .unwrap()
            .trim_end_matches('}')
            .parse()
            .unwrap();
        let (window, next) = tail.split_at(events);
        rest = next;
        if !header.contains("\"trigger\":\"fault\"") {
            continue;
        }
        let at = line_ts(header);
        let flap = window
            .iter()
            .position(|l| l.contains("\"kind\":\"link_flap\"") && line_ts(l) == at)
            .expect("the arming flap is in its window");
        for l in &window[flap + 1..] {
            assert!(line_ts(l) >= at, "flap at {at} ns, then {l}");
        }
        flap_windows += 1;
    }
    assert!(flap_windows >= 1);

    let (stats, drop_windows, lines) = windows("faults=pkt_drop:0.2");
    assert!(stats.pkt_dropped > 0, "the drops must fire");
    assert_eq!(drop_windows, 0, "per-packet fates must not arm: {lines:?}");
}

/// The simulated time of a trace or flight-recorder line.
fn line_ts(line: &str) -> u64 {
    let ts = line.strip_prefix("{\"ts\":").expect("a line led by its ts");
    ts[..ts.find(',').unwrap()].parse().unwrap()
}

/// With every fault kind at once, a run's streamed trace stays in time
/// order, on the Fig. 2 ACC-Turbo switch and on a pushback star: packet
/// fates are drawn as the engine pulls arrivals ahead and link windows
/// when the previous one ends, yet each `fault` line lands at its own
/// time, and every fault drawn reaches the trace.
#[test]
fn faulted_traces_stay_in_time_order() {
    let faults = "faults=ctrl_drop:0.2+ctrl_delay:0.2+stale:0.2+pkt_drop:0.01+pkt_reorder:0.01+link_flap:0.2";
    for sentence in [
        &["workload=fig2", "defense=accturbo", "--quick", faults][..],
        &[
            "workload=flood",
            "defense=acc",
            "secs=10",
            "topology=star:4:pushback=on",
            faults,
        ],
    ] {
        let spec = parse_run(&args(sentence)).unwrap().spec;
        let probe = ProbeSink::default();
        let mut tel = Telemetry::new().with_trace(Box::new(probe.clone()));
        let s = spec.execute_streamed(Some(&mut tel)).fault_stats.unwrap();
        let lines = probe.0.borrow();
        let drawn = [
            s.ctrl_dropped,
            s.ctrl_delayed,
            s.pkt_dropped,
            s.pkt_reordered,
            s.flap_windows,
        ];
        assert!(drawn.iter().all(|&n| n > 0), "{sentence:?}: {s:?}");
        let traced = lines
            .iter()
            .filter(|l| l.contains("\"ev\":\"fault\""))
            .count();
        let all = drawn.iter().sum::<u64>() + s.stale_served;
        assert_eq!(traced as u64, all, "{sentence:?}: every fault is traced");
        for pair in lines.windows(2) {
            assert!(
                line_ts(&pair[0]) <= line_ts(&pair[1]),
                "{sentence:?}: {} before {}",
                pair[0],
                pair[1]
            );
        }
        // A tick's fault comes before what ACC-Turbo does about it.
        let mut last_fault = "";
        let mut degrades = 0;
        for line in lines.iter() {
            if line.contains("\"ev\":\"fault\"") {
                last_fault = line;
            } else if line.contains("\"ev\":\"degrade\"") {
                let tick_fault = last_fault.contains("\"kind\":\"ctrl_drop\"")
                    || last_fault.contains("\"kind\":\"stale_snapshot\"");
                let same_tick = tick_fault && line_ts(last_fault) == line_ts(line);
                assert!(same_tick, "{line} after {last_fault}");
                degrades += 1;
            }
        }
        assert!(degrades > 0 || sentence[1] != "defense=accturbo");
    }
}

/// The streamed trace of a run is, byte for byte, what a `RingTracer`
/// installed on the same emitters renders for the same run — the format
/// `xp trace` reads.
#[test]
fn streamed_trace_equals_the_ring_tracer_rendering() {
    let spec = parse_run(&args(&["workload=fig2", "defense=accturbo", "secs=6"]))
        .unwrap()
        .spec;
    let path = tmp_path("trace.jsonl");
    let outputs = Outputs {
        trace: Some(path.to_str().unwrap().into()),
        ..Outputs::default()
    };
    let mut tel = build_telemetry(&outputs, spec.seed).unwrap().unwrap();
    let streamed_out = spec.execute_streamed(Some(&mut tel));
    let streamed = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let ring = shared(RingTracer::new(1_000_000));
    let mut sw = AccTurboSpec::simulation().build();
    sw.set_tracer(Box::new(ring.clone()));
    let mut src = spec.workload.build(spec.link_bps, spec.secs, spec.seed);
    let cfg = EngineConfig::experiment(spec.link_bps, spec.secs, spec.effective_period());
    let res = run_streamed(&mut *src, &mut sw, &cfg, &mut ring.clone(), None, None);

    assert_eq!(res.arrivals, streamed_out.result.arrivals);
    let ring = ring.borrow();
    assert_eq!(ring.total_recorded(), ring.len() as u64, "nothing evicted");
    assert_eq!(tel.trace_lines(), ring.total_recorded());
    assert!(ring.len() > 10_000, "a real trace: {}", ring.len());
    assert!(streamed == ring.to_jsonl(), "the streamed trace drifted");
}

/// The Fig. 2 ACC-Turbo `--sink` stream does not depend on whether a
/// tracer is installed, and its `cluster_distance` histogram counts
/// every arrival's distance either way.
#[test]
fn the_sink_stream_is_identical_with_and_without_a_tracer() {
    let spec = parse_run(&args(&["workload=fig2", "defense=accturbo", "--quick"]))
        .unwrap()
        .spec;
    let sink_lines = |traced: bool| {
        let probe = ProbeSink::default();
        let mut tel = Telemetry::new().with_sink(Box::new(probe.clone()));
        if traced {
            tel = tel.with_trace(Box::new(RingSink::new(64)));
        }
        let out = spec.execute_streamed(Some(&mut tel));
        assert_eq!(tel.trace_lines() > 0, traced);
        let lines = probe.0.take();
        (out.result.arrivals, lines)
    };
    let (arrivals, plain) = sink_lines(false);
    let (_, traced) = sink_lines(true);
    assert!(plain == traced, "the tracer changed the sink stream");
    let counts: Vec<u64> = plain
        .iter()
        .filter(|l| l.contains(r#""metric":"cluster_distance""#))
        .map(|l| {
            let count = &l[l.find(r#""count":"#).expect("a count field") + 8..];
            count[..count.find(',').unwrap()].parse().unwrap()
        })
        .collect();
    assert!(counts.len() > 1, "one cluster_distance line per period");
    assert!(counts[0] > 0, "the first period observed distances");
    assert_eq!(counts.iter().sum::<u64>(), arrivals);
}

/// `TeeSink` fan-out keeps ordering when fed from the parallel runner:
/// jobs finish in arbitrary order across workers, `run_streaming`
/// re-sequences them, and every fanned-out sink sees the exact same
/// line sequence.
#[test]
fn tee_fanout_preserves_order_under_the_parallel_runner() {
    let first = ProbeSink::default();
    let second = ProbeSink::default();
    let mut tee = TeeSink::new();
    tee.push(Box::new(first.clone()));
    tee.push(Box::new(second.clone()));

    const JOBS: usize = 16;
    accturbo_runner::run_streaming(
        4,
        JOBS,
        |index| {
            // Later jobs are cheaper, so completion order inverts
            // delivery order on any multi-worker schedule.
            let spins = (JOBS - index) * 50_000;
            let mut acc = 0u64;
            for i in 0..spins {
                acc = acc.wrapping_add(i as u64);
            }
            std::hint::black_box(acc);
            (0..3)
                .map(|l| format!("{{\"job\":{index},\"line\":{l}}}"))
                .collect::<Vec<_>>()
        },
        |result| {
            for line in &result.output {
                tee.emit(line);
            }
            tee.flush();
        },
    );

    let expected: Vec<String> = (0..JOBS)
        .flat_map(|j| (0..3).map(move |l| format!("{{\"job\":{j},\"line\":{l}}}")))
        .collect();
    assert_eq!(*first.0.borrow(), expected);
    assert_eq!(*second.0.borrow(), expected);
}
