//! The benchmark measures the program it claims to: the traced run gives
//! the untraced run's simulated results on every workload (so the
//! forwarding wrappers change no path through the engines), and the
//! sharded workload gives the serial one's.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml` (the dev
//! profile of this package is optimized; each attack day takes seconds).

use accturbo_perfbench::workload::{
    cicday_spec, corpus_dir, execute_traced, execute_untraced, load_corpora, replay_pass, Workload,
    CANONICAL_SEED,
};

fn check_cicday_traced(w: Workload) {
    let spec = cicday_spec(w, CANONICAL_SEED).expect("workload spec parses");
    let plain = execute_untraced(&spec);
    assert!(
        plain.conserves(),
        "{}: untraced run loses packets: {plain:?}",
        w.name()
    );
    let traced = execute_traced(&spec);
    assert!(
        traced.summary.same_as(&plain),
        "{}: traced {:?} != untraced {plain:?}",
        w.name(),
        traced.summary
    );
    assert_eq!(
        traced.tally.source_pkts,
        plain.arrivals,
        "{}: the wrapped source must feed every arrival",
        w.name()
    );
}

#[test]
fn traced_equals_untraced_cicday_accturbo() {
    check_cicday_traced(Workload::CicdayAccturbo);
}

#[test]
fn traced_equals_untraced_cicday_accturbo_shards2() {
    check_cicday_traced(Workload::CicdayAccturboShards2);
}

#[test]
fn traced_equals_untraced_cicday_fattree_pushback() {
    check_cicday_traced(Workload::CicdayFattreePushback);
    // The wrapper forwards `pushback_limits`: without it there would be
    // no installs at all.
    let spec = cicday_spec(Workload::CicdayFattreePushback, CANONICAL_SEED).unwrap();
    let plain = execute_untraced(&spec);
    assert!(plain.hops > 0 && plain.pushback_installs > 0, "{plain:?}");
}

#[test]
fn traced_equals_untraced_corpus_replay() {
    let entries = load_corpora(&corpus_dir()).expect("committed corpora load");
    assert_eq!(entries.len(), 50, "five corpora of ten attacks each");
    let (plain, _) = replay_pass(&entries, |e| execute_untraced(&e.spec));
    let (traced, _) = replay_pass(&entries, |e| execute_traced(&e.spec));
    for ((p, t), e) in plain.iter().zip(&traced).zip(&entries) {
        let name = format!("{} entry {}", e.corpus, e.index);
        assert!(p.output.conserves(), "{name}: loses packets");
        assert!(
            p.output.matches_damage(&e.expected),
            "{name}: replay {:?} differs from the corpus {:?}",
            p.output,
            e.expected
        );
        assert!(
            t.output.summary.same_as(&p.output),
            "{name}: traced {:?} != untraced {:?}",
            t.output.summary,
            p.output
        );
    }
}

#[test]
fn shards2_reports_the_serial_simulated_metrics() {
    let serial = execute_untraced(&cicday_spec(Workload::CicdayAccturbo, CANONICAL_SEED).unwrap());
    let sharded =
        execute_untraced(&cicday_spec(Workload::CicdayAccturboShards2, CANONICAL_SEED).unwrap());
    assert!(
        sharded.same_as(&serial),
        "shards=2 {sharded:?} != serial {serial:?}"
    );
}
