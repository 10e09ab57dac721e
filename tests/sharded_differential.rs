//! Serial-vs-threaded byte-identity differentials (DESIGN.md §14): a
//! scenario whose workload is generated on a producer thread
//! (`shards=2`) must reproduce the serial run (`shards=1`)
//! **bit-exactly** — on the figure scenarios, on the adversarial
//! worst-case corpus, on trees with pushback, under every fault kind and
//! with a full streaming-telemetry bundle attached.
//!
//! The threaded feed pulls the workload source on its own thread into
//! 4096-packet batches and hands them to the event loop in the source's
//! own order, underneath everything the serial path does (fault plane,
//! leaf placement, telemetry, the classify-ahead lookahead). Any
//! divergence — a packet lost or repeated at a batch boundary, a stream
//! cut short at the end time, a fault decision drawn for one packet more
//! or less — shows up here as a full `ScenarioOutcome` debug diff naming
//! the scenario.

use accturbo_adversary::Corpus;
use accturbo_experiments::cli::{build_telemetry, parse_run, Outputs};
use accturbo_experiments::robustness::FAULT_KINDS;
use accturbo_experiments::spec::{DefenseSpec, ScenarioOutcome, ScenarioSpec, WorkloadSpec};
use std::path::PathBuf;

/// The `shards=` count of the threaded runs. Any count above 1 takes the
/// same path: one producer thread.
const THREADED: usize = 2;

/// Runs `spec` serially and threaded, asserting every `ScenarioOutcome`
/// field (the debug form covers the result's counters, per-second
/// series and delay histograms, the backlog, hops, pushback installs,
/// first-limit times, fault counters and degradation counters) is
/// byte-identical. Returns the serial outcome.
fn assert_threaded_identity(spec: &ScenarioSpec, label: &str) -> ScenarioOutcome {
    let serial = spec.clone().with_shards(1).execute();
    let threaded = spec.clone().with_shards(THREADED).execute();
    assert_eq!(
        format!("{threaded:?}"),
        format!("{serial:?}"),
        "{label}: outcome drifted between serial and shards={THREADED}"
    );
    serial
}

/// The scenario an `xp run` sentence describes.
fn sentence(words: &str) -> ScenarioSpec {
    let argv: Vec<String> = words.split(' ').map(str::to_string).collect();
    parse_run(&argv)
        .unwrap_or_else(|e| panic!("`{words}`: {e}"))
        .spec
}

/// The Fig. 2 ramping-attack scenario under every defense the figure
/// plots (FIFO baseline, ACC, ACC-Turbo).
#[test]
fn fig2_scenarios_are_byte_identical_under_sharding() {
    for defense in [
        DefenseSpec::Fifo,
        "acc".parse::<DefenseSpec>().expect("acc grammar"),
        DefenseSpec::accturbo(),
    ] {
        let label = format!("fig2/{defense}");
        let spec = ScenarioSpec::new(WorkloadSpec::Fig2, defense).with_secs(15);
        assert_threaded_identity(&spec, &label);
    }
}

/// Fig. 6's pulse-wave attack: the pulses concentrate arrivals into
/// bursts, so batch boundaries fall mid-pulse.
#[test]
fn fig6_scenario_is_byte_identical_under_sharding() {
    for defense in [DefenseSpec::Fifo, DefenseSpec::accturbo()] {
        let label = format!("fig6/{defense}");
        let spec = ScenarioSpec::new(WorkloadSpec::Fig6, defense).with_secs(15);
        assert_threaded_identity(&spec, &label);
    }
}

/// The CICDDoS-style day behind Figs. 9–11: many concurrent attack
/// vectors at high rate, so many batches cross the thread per second.
#[test]
fn fig9_day_is_byte_identical_under_sharding() {
    let workload: WorkloadSpec = "cicday:vectors=NTP+MSSQL:episode=2:gap=1"
        .parse()
        .expect("cicday grammar");
    let spec = ScenarioSpec::new(workload, DefenseSpec::accturbo()).with_secs(10);
    assert_threaded_identity(&spec, "fig9/cicday");
}

/// Every committed worst-case corpus entry replays identically on the
/// threaded feed: the adversarial frontier is exactly where pulse timing
/// is most extreme, so a batch-boundary bug that survives the figure
/// scenarios gets caught here.
#[test]
fn attack_corpus_replays_byte_identically_under_sharding() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus");
    let mut checked = 0usize;
    for name in ["accturbo", "fifo"] {
        let path = dir.join(format!("{name}.corpus"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let corpus = Corpus::parse(&text)
            .unwrap_or_else(|e| panic!("corrupt corpus {}: {e}", path.display()));
        let defense: DefenseSpec = corpus
            .defense
            .parse()
            .unwrap_or_else(|e| panic!("{name}.corpus: bad defense header: {e}"));
        // The top of the frontier is the most damaging (and slowest)
        // attack; three entries per defense keeps the differential sharp
        // without replaying the whole corpus.
        for (i, entry) in corpus.entries.iter().take(3).enumerate() {
            let workload: WorkloadSpec = entry
                .workload
                .parse()
                .unwrap_or_else(|e| panic!("{name}.corpus entry {i}: {e}"));
            let spec = ScenarioSpec::new(workload, defense.clone())
                .with_link(corpus.link_bps)
                .with_secs(corpus.secs)
                .with_seed(corpus.seed);
            assert_threaded_identity(&spec, &format!("{name}.corpus entry {i}"));
            checked += 1;
        }
    }
    assert!(checked >= 6, "corpus differential must cover both defenses");
}

/// Trees with hop-by-hop pushback: leaf placement, link deliveries and
/// the root's limits all run on the threaded feed's stream.
#[test]
fn pushback_trees_are_byte_identical_under_sharding() {
    let acc = "workload=flood defense=acc topology=fattree:4:pushback=on --quick";
    let out = assert_threaded_identity(&sentence(acc), acc);
    assert!(
        out.hops > 0 && out.pushback_installs > 0,
        "{acc}: the root must push limits down the tree"
    );
    assert!(out.node_first_limit.iter().any(Option::is_some), "{acc}");

    let turbo = "workload=flood defense=accturbo topology=star:8:edges=same:pushback=on --quick";
    let out = assert_threaded_identity(&sentence(turbo), turbo);
    assert!(out.hops > 0, "{turbo}: traffic must cross the tree");
}

/// Every fault kind on its own, on a single switch and on a tree: the
/// fault plane wraps the threaded feed, so it must draw exactly the
/// serial run's decisions — one packet more or less pulled through it
/// shifts its counters.
#[test]
fn every_fault_kind_is_byte_identical_under_sharding() {
    for kind in FAULT_KINDS {
        for place in ["", " topology=fattree:2:pushback=on"] {
            let words = format!("workload=fig2 defense=accturbo secs=12 faults={kind}:0.2{place}");
            let out = assert_threaded_identity(&sentence(&words), &words);
            let stats = out.fault_stats.expect("a faulted run reports its counters");
            let fired = stats.ctrl_dropped
                + stats.ctrl_delayed
                + stats.stale_served
                + stats.pkt_dropped
                + stats.pkt_reordered
                + stats.flap_windows;
            assert!(fired > 0, "{words}: the fault must fire");
        }
    }
}

/// Each telemetry output's bytes, read back after the run.
fn telemetry_run(spec: &ScenarioSpec, tag: &str) -> (ScenarioOutcome, [Vec<u8>; 3]) {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let paths = ["sink.jsonl", "recorder.jsonl", "dataset.csv"]
        .map(|name| dir.join(format!("accturbo_threaded_{pid}_{tag}_{name}")));
    let [sink, recorder, dataset] = paths.each_ref().map(|p| p.to_str().expect("utf-8 path"));
    let outputs = Outputs {
        sink: Some(sink.into()),
        dataset: Some(dataset.into()),
        flight_recorder: Some(recorder.into()),
        ..Outputs::default()
    };
    let mut tel = build_telemetry(&outputs, spec.seed)
        .expect("telemetry outputs open")
        .expect("outputs were requested");
    let outcome = spec.execute_streamed(Some(&mut tel));
    drop(tel);
    let bytes = paths.each_ref().map(|p| {
        let b = std::fs::read(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
        let _ = std::fs::remove_file(p);
        b
    });
    (outcome, bytes)
}

/// A sink, a flight recorder and a dataset exporter on a faulted
/// pushback tree and on a faulted ACC-Turbo switch (whose tracer is the
/// recorder) — the serial and threaded runs must write the same bytes to
/// all three.
#[test]
fn telemetry_bundle_is_byte_identical_under_sharding() {
    for (tag, words) in [
        (
            "tree",
            "workload=flood defense=acc topology=fattree:4:pushback=on \
             faults=ctrl_drop:0.1+link_flap:0.05 --quick",
        ),
        (
            "turbo",
            "workload=fig2 defense=accturbo faults=stale:0.2+pkt_reorder:0.05 secs=12",
        ),
    ] {
        let spec = sentence(words);
        let (serial, serial_bytes) = telemetry_run(&spec.clone().with_shards(1), tag);
        let (threaded, threaded_bytes) = telemetry_run(&spec.with_shards(THREADED), tag);
        assert_eq!(format!("{threaded:?}"), format!("{serial:?}"), "{words}");
        for (name, (a, b)) in ["sink", "flight recorder", "dataset"]
            .iter()
            .zip(serial_bytes.iter().zip(&threaded_bytes))
        {
            assert!(!a.is_empty(), "{words}: the {name} must write something");
            assert!(a == b, "{words}: the {name} bytes drifted");
        }
    }
}
