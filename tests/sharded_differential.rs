//! Serial-vs-sharded byte-identity differentials (DESIGN.md §14): the
//! sharded datapath must reproduce the serial engine's output
//! **bit-exactly** for every shard count, on the figure scenarios and on
//! the adversarial worst-case corpus.
//!
//! The sharded engine's producer thread partitions the pre-merged stream
//! by FNV hash of each packet's flow into per-shard arenas (with
//! precomputed feature rows) and seals 4096-packet batches that record
//! the shard of every pulled packet; the calling thread replays that
//! record through the engine's one event loop. Any divergence from the
//! serial path — a packet replayed out of order, a batch boundary that
//! drops or repeats a packet, a feature row that differs from ingress-time
//! extraction — shows up here as a full `RunResult` debug diff naming the
//! scenario and shard count.

use accturbo_adversary::Corpus;
use accturbo_experiments::spec::{DefenseSpec, ScenarioSpec, WorkloadSpec};
use std::path::PathBuf;

/// Shard counts exercised against the serial (`shards=1`) baseline.
/// 2 is the smallest real split; 8 spreads each batch thinly enough
/// that any replay-order bug has many chances to fire.
const SHARD_COUNTS: &[usize] = &[2, 8];

/// Runs `spec` serially and at every sharded count, asserting the full
/// `RunResult` (debug form covers every counter, per-second series and
/// stats field) and the terminal backlog are byte-identical.
fn assert_shard_identity(spec: &ScenarioSpec, label: &str) {
    let serial = spec.clone().with_shards(1).execute();
    let serial_result = format!("{:?}", serial.result);
    for &shards in SHARD_COUNTS {
        let sharded = spec.clone().with_shards(shards).execute();
        assert_eq!(
            format!("{:?}", sharded.result),
            serial_result,
            "{label}: RunResult drifted between serial and shards={shards}"
        );
        assert_eq!(
            sharded.backlog_pkts, serial.backlog_pkts,
            "{label}: terminal backlog drifted between serial and shards={shards}"
        );
    }
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
        assert_shard_identity(&spec, &label);
    }
}

/// Fig. 6's pulse-wave attack: the pulses concentrate arrivals into
/// bursts, so batch boundaries fall mid-pulse.
#[test]
fn fig6_scenario_is_byte_identical_under_sharding() {
    for defense in [DefenseSpec::Fifo, DefenseSpec::accturbo()] {
        let label = format!("fig6/{defense}");
        let spec = ScenarioSpec::new(WorkloadSpec::Fig6, defense).with_secs(15);
        assert_shard_identity(&spec, &label);
    }
}

/// The CICDDoS-style day behind Figs. 9–11: many concurrent attack
/// vectors and the widest source-address diversity, so the FNV flow
/// partition actually spreads traffic across all shards.
#[test]
fn fig9_day_is_byte_identical_under_sharding() {
    let workload: WorkloadSpec = "cicday:vectors=NTP+MSSQL:episode=2:gap=1"
        .parse()
        .expect("cicday grammar");
    let spec = ScenarioSpec::new(workload, DefenseSpec::accturbo()).with_secs(10);
    assert_shard_identity(&spec, "fig9/cicday");
}

/// Every committed worst-case corpus entry replays identically under
/// sharding: the adversarial frontier is exactly where pulse timing is
/// most extreme, so a batch-boundary bug that survives the figure
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
        // without replaying the whole corpus twice per shard count.
        for (i, entry) in corpus.entries.iter().take(3).enumerate() {
            let workload: WorkloadSpec = entry
                .workload
                .parse()
                .unwrap_or_else(|e| panic!("{name}.corpus entry {i}: {e}"));
            let spec = ScenarioSpec::new(workload, defense.clone())
                .with_link(corpus.link_bps)
                .with_secs(corpus.secs)
                .with_seed(corpus.seed);
            assert_shard_identity(&spec, &format!("{name}.corpus entry {i}"));
            checked += 1;
        }
    }
    assert!(checked >= 6, "corpus differential must cover both defenses");
}
