//! `xp bench-export` — the datapath throughput baseline (DESIGN.md §8).
//!
//! Measures packets/second through the hot kernels of the fast path —
//! the engine event loop stepping a full ACC-Turbo switch (serial and
//! threaded stream-mode), the online cluster update, the SP-PIFO ranked
//! enqueue and batched workload generation — and, where a slower path
//! is kept (the pre-optimization kernels under the `reference` feature,
//! per-packet generation), the same workload through that path,
//! recording the speedup. Results are written as machine-readable JSON
//! (`BENCH_datapath.json` by default) so CI can archive the baseline
//! per commit.
//!
//! The export refuses to report a speedup it cannot trust: before
//! timing anything it re-runs a subset of the paper figures with the
//! reference kernels forced on and asserts the rendered reports and
//! golden serializations are byte-identical to the optimized path.

use crate::spec::{AccTurboSpec, FeatureProfile, WorkloadSpec};
use crate::{figure_spec, Scale};
use accturbo_bench::{Harness, Stats};
use accturbo_clustering::online::reference::force_reference_kernels;
use accturbo_clustering::{
    ClusteringConfig, FeatureBatch, FeatureSet, OnlineClusterer, WindowStats,
};
use accturbo_core::AccTurboSwitch;
use accturbo_netsim::engine::reference::run_reference;
use accturbo_netsim::{
    run, Bandwidth, ClassId, EngineConfig, Filled, MergedSource, Packet, PacketSource, SimDuration,
    SimTime, ThreadedSource, VecSource,
};
use accturbo_prng::{Rng, SeedableRng, StdRng};
use accturbo_sched::SpPifo;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// Figures re-run under both kernel paths for the byte-identity gate.
const IDENTITY_FIGURES: &[&str] = &["fig2", "fig6", "fig9"];

/// Parsed `xp bench-export` arguments.
#[derive(Debug, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--smoke`: one iteration per bench (CI wiring check, no timing
    /// fidelity).
    pub smoke: bool,
    /// `--out PATH` (default `BENCH_datapath.json`).
    pub out: String,
}

/// Parses the arguments following `xp bench-export`.
pub fn parse_args(args: &[String]) -> Result<BenchArgs, String> {
    let mut parsed = BenchArgs {
        smoke: false,
        out: "BENCH_datapath.json".to_string(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--out" => {
                parsed.out = it
                    .next()
                    .ok_or_else(|| "--out requires a PATH argument".to_string())?
                    .clone();
            }
            other => return Err(format!("unknown bench-export option `{other}`")),
        }
    }
    Ok(parsed)
}

/// One exported bench row: the optimized path's throughput plus, when a
/// reference path exists, the reference throughput and the speedup.
#[derive(Debug)]
pub struct BenchRow {
    /// Bench name — one of the registry's names (see [`is_registered`]).
    pub name: String,
    /// Packets processed per timed iteration.
    pub elements: u64,
    /// Median nanoseconds per iteration, optimized path.
    pub median_ns: f64,
    /// Packets/second, optimized path.
    pub pkts_per_sec: f64,
    /// Packets/second through the pre-optimization reference path.
    pub reference_pkts_per_sec: Option<f64>,
    /// `pkts_per_sec / reference_pkts_per_sec`.
    pub speedup: Option<f64>,
}

/// The bench registry: every row name this module can produce from live
/// code. The JSON writer refuses rows outside this set, and the repo's
/// consistency test resolves every committed `BENCH_datapath.json` row
/// against it — a row from a deleted (or never-landed) bench cannot
/// survive in the archive.
pub fn is_registered(name: &str) -> bool {
    matches!(
        name,
        "engine_step"
            | "engine_step_threaded"
            | "cluster_scan_soa"
            | "cluster_update"
            | "cluster_assign_batch"
            | "sppifo_enqueue"
            | "source_fill"
    )
}

fn row(name: String, fast: &Stats, reference: Option<&Stats>) -> BenchRow {
    let elements = fast.elements.expect("throughput benches carry elements");
    let pkts = |s: &Stats| elements as f64 / (s.median_ns() * 1e-9);
    let fast_pps = pkts(fast);
    let ref_pps = reference.map(pkts);
    BenchRow {
        name,
        elements,
        median_ns: fast.median_ns(),
        pkts_per_sec: fast_pps,
        reference_pkts_per_sec: ref_pps,
        speedup: ref_pps.map(|r| fast_pps / r),
    }
}

/// Times a fast row and its reference row on `h`, interleaved sample by
/// sample ([`Harness::run_interleaved`]): a host that speeds up or slows
/// down during the run shifts both rows alike instead of landing in the
/// recorded speedup. `elements` packets per iteration.
fn paired_row<'a, T>(
    h: &Harness,
    name: &str,
    elements: u64,
    setup: impl FnMut() -> T,
    fast: (&str, &'a mut dyn FnMut(T)),
    reference: (&str, &'a mut dyn FnMut(T)),
) -> BenchRow {
    let [fast, reference] = <[_; 2]>::try_from(h.run_interleaved(setup, &mut [fast, reference]))
        .expect("one entry per row");
    let with_elements = |s: Option<Stats>| Stats {
        elements: Some(elements),
        ..s.expect("unfiltered")
    };
    row(
        name.into(),
        &with_elements(fast),
        Some(&with_elements(reference)),
    )
}

/// The synthetic overload workload shared by the engine benches: a
/// carpet of diverse benign flows with a high-rate single-flow attack on
/// top, arriving well above the drain rate so classify, enqueue, drop
/// and dequeue paths all stay hot.
fn engine_workload(n: u64) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            let t = SimTime::from_nanos(i * 4_000);
            if i.is_multiple_of(3) {
                Packet::new(t)
                    .with_dst(Ipv4Addr::new(198, 18, 0, 10))
                    .with_ports(123, 4444)
                    .with_size(1000)
                    .with_class(ClassId(1))
            } else {
                Packet::new(t)
                    .with_dst(Ipv4Addr::new(20, 0, (i % 7) as u8, (i % 251) as u8))
                    .with_ports(1024 + (i % 5000) as u16, 443)
                    .with_size(400)
            }
        })
        .collect()
}

fn engine_switch() -> AccTurboSwitch<'static> {
    AccTurboSpec {
        features: FeatureProfile::HwFig6,
        ..AccTurboSpec::simulation()
    }
    .build()
}

/// The switch for the threaded rows: the full 12-feature simulation
/// profile — the configuration ROADMAP item 2's "Internet-day at scale"
/// workloads run, and the regime the datapath rebuild targets: wide
/// per-packet feature extraction and a fully occupied cluster scan
/// dominate the step, so the producer thread's batched extraction and
/// the lane-blocked column scan carry the row. The serial `engine_step` row keeps
/// the 4-feature hardware profile for comparability with its committed
/// history.
fn threaded_switch() -> AccTurboSwitch<'static> {
    AccTurboSpec::simulation().build()
}

fn engine_cfg() -> EngineConfig {
    EngineConfig::new(Bandwidth::from_mbps(100))
        .with_stats_interval(SimDuration::from_secs(1))
        .with_control_period(SimDuration::from_millis(1))
}

/// Engine-step throughput: the calendar loop driving the full ACC-Turbo
/// switch, versus (reference) the sentinel min-scan loop driving the
/// generic per-packet-dispatch kernels. A clusterer picks its kernels
/// when built, so each iteration's setup builds one switch per row; the
/// timed routine drops the other row's switch, microseconds against
/// milliseconds of stepping.
fn bench_engine_step(h: &Harness, n: u64) -> BenchRow {
    let packets = engine_workload(n);
    let cfg = engine_cfg();
    let setup = || {
        let fast = engine_switch();
        force_reference_kernels(true);
        let reference = engine_switch();
        force_reference_kernels(false);
        (VecSource::new(packets.clone()), fast, reference)
    };
    let mut fast = |(mut src, mut sw, _)| assert_eq!(run(&mut src, &mut sw, &cfg).arrivals, n);
    let mut reference = |(mut src, _, mut sw)| {
        assert_eq!(run_reference(&mut src, &mut sw, &cfg).arrivals, n);
    };
    paired_row(
        h,
        "engine_step",
        n,
        setup,
        ("engine_step/accturbo", &mut fast),
        ("engine_step/accturbo (reference)", &mut reference),
    )
}

/// Source count for the threaded engine rows: enough independent
/// generators that the merge pays a realistically wide k-way heap (the
/// pulse-wave experiments' shape) — on the calling thread for the serial
/// side, on the producer thread for the threaded one.
const SHARD_SOURCES: usize = 512;

/// The engine workload split across [`SHARD_SOURCES`] generators:
/// source `j` emits every `j`-th packet of the same arrival grid, so the
/// merged stream is `engine_workload`-shaped but must be reassembled
/// from 512 interleaved heads. Per-source src addresses keep the flow
/// space diverse.
fn threaded_workload(n: u64) -> Vec<Vec<Packet>> {
    let per = (n as usize / SHARD_SOURCES).max(1);
    (0..SHARD_SOURCES)
        .map(|j| {
            (0..per)
                .map(|i| {
                    let g = (i * SHARD_SOURCES + j) as u64;
                    let t = SimTime::from_nanos(g * 4_000);
                    if g.is_multiple_of(3) {
                        Packet::new(t)
                            .with_src(Ipv4Addr::new(172, 16, (j / 256) as u8, (j % 256) as u8))
                            .with_dst(Ipv4Addr::new(198, 18, 0, 10))
                            .with_ports(123, 4444)
                            .with_size(1000)
                            .with_class(ClassId(1))
                    } else {
                        Packet::new(t)
                            .with_src(Ipv4Addr::new(10, (j / 256) as u8, (j % 256) as u8, 1))
                            .with_dst(Ipv4Addr::new(20, 0, (g % 7) as u8, (g % 251) as u8))
                            .with_ports(1024 + (g % 5000) as u16, 443)
                            .with_size(400)
                    }
                })
                .collect()
        })
        .collect()
}

/// The same per-source packets merged serially, `MergedSource`-style.
fn merged_source(per_source: &[Vec<Packet>]) -> MergedSource {
    MergedSource::new(
        per_source
            .iter()
            .map(|v| Box::new(VecSource::new(v.clone())) as Box<dyn PacketSource + Send>)
            .collect(),
    )
}

/// Workload multiplier of the threaded rows (see
/// [`bench_engine_step_threaded`]).
const THREADED_SCALE: u64 = 10;

/// Threaded throughput: the pre-merged 512-way [`merged_source`] behind
/// a [`ThreadedSource`], whose producer thread pulls it while the calling
/// thread runs the event loop — versus (reference) the serial `run` over
/// the same merge with the same live kernels, the path the producer
/// takes the generation work off. On a 1-core host the two threads
/// share the core, so the row only shows wall-clock scaling where
/// `host_cores` > 1.
///
/// Runs [`THREADED_SCALE`] × `n` packets: each run starts a fresh
/// producer thread and batch-buffer pool, whose first fills page in
/// about 16k packets' worth of buffers, so an `n`-packet run would time
/// mostly that warm-up instead of the steady state a long run sees.
fn bench_engine_step_threaded(h: &Harness, n: u64) -> BenchRow {
    let per_source = threaded_workload(n * THREADED_SCALE);
    let elements: u64 = per_source.iter().map(|v| v.len() as u64).sum();
    let cfg = engine_cfg();
    let mut threaded = |(src, mut sw)| {
        let res = run(&mut ThreadedSource::new(Box::new(src)), &mut sw, &cfg);
        assert_eq!(res.arrivals, elements);
    };
    let mut serial = |(mut src, mut sw)| {
        assert_eq!(run(&mut src, &mut sw, &cfg).arrivals, elements);
    };
    paired_row(
        h,
        "engine_step_threaded",
        elements,
        || (merged_source(&per_source), threaded_switch()),
        ("engine_step_threaded/accturbo", &mut threaded),
        ("engine_step_threaded/accturbo (serial)", &mut serial),
    )
}

/// Packets drained per `source_fill` iteration, per bench packet: the
/// day's 4 s background lead-in and its first attack episodes.
const SOURCE_FILL_SCALE: u64 = 50;

/// Generation throughput: the cicday day's `MergedSource` (the
/// background generator and one per attack episode) drained by `fill`
/// in batches of 256, the engine's lookahead, versus (reference) one
/// `next_packet` call per packet. Both yield the same packets
/// (`tests/source_fill.rs`). The two rows are timed interleaved, sample
/// by sample, so a host that speeds up or slows down shifts both.
fn bench_source_fill(h: &Harness, n: u64) -> BenchRow {
    let spec: WorkloadSpec = "cicday".parse().expect("the canonical day parses");
    let elements = n * SOURCE_FILL_SCALE;
    let mut batched = |mut src: MergedSource| {
        let mut out = Vec::with_capacity(256);
        let mut left = elements as usize;
        while left > 0 {
            out.clear();
            let filled = src.fill(&mut out, left.min(256), SimTime::MAX);
            assert!(filled == Filled::Full, "the day outlasts the bench");
            left -= out.len();
            std::hint::black_box(&out);
        }
    };
    let mut per_packet = |mut src: MergedSource| {
        for _ in 0..elements {
            let pkt = src.next_packet().expect("the day outlasts the bench");
            std::hint::black_box(&pkt);
        }
    };
    paired_row(
        h,
        "source_fill",
        elements,
        || spec.cic_config(spec.default_seed()).into_source(),
        ("source_fill/cicday", &mut batched),
        ("source_fill/cicday (next_packet)", &mut per_packet),
    )
}

/// Cluster-update throughput: `assign` over the fig6 hardware profile
/// (10 clusters), with a window poll + reset every 2048 packets, versus
/// the reference per-cluster-dispatch full-distance scan. Built like
/// `engine_step`'s switches: one clusterer per row per iteration.
fn bench_cluster_update(h: &Harness, n: u64) -> BenchRow {
    let packets = engine_workload(n);
    let cfg = ClusteringConfig::deployable(10, FeatureSet::hardware_fig6());
    let setup = || {
        let fast = OnlineClusterer::new(cfg.clone());
        force_reference_kernels(true);
        let reference = OnlineClusterer::new(cfg.clone());
        force_reference_kernels(false);
        (fast, reference)
    };
    let assign_all = |mut c: OnlineClusterer, window: &mut Vec<WindowStats>| {
        for (i, pkt) in packets.iter().enumerate() {
            accturbo_bench::black_box(c.assign(pkt));
            if i % 2048 == 2047 {
                c.take_window_into(window);
                c.reset_clusters();
            }
        }
    };
    let (mut fast_window, mut ref_window) = (Vec::new(), Vec::new());
    let mut fast = |(c, _)| assign_all(c, &mut fast_window);
    let mut reference = |(_, c)| assign_all(c, &mut ref_window);
    paired_row(
        h,
        "cluster_update",
        n,
        setup,
        ("cluster_update/assign", &mut fast),
        ("cluster_update/assign (reference)", &mut reference),
    )
}

/// Packets per batch of the `cluster_assign_batch` row: the engine's
/// classify-ahead lookahead cap.
const ASSIGN_BATCH: usize = 256;

/// Batched cluster-assignment throughput: [`OnlineClusterer::assign_batch`]
/// over runs of 256 packets (features extracted into the batch's
/// columns, then the frozen-geometry pass and the in-order commit, which
/// writes each packet's `Assignment` record), versus (reference)
/// per-packet `assign_record` over the same packets. The
/// 12-feature simulation profile with 10 anchored clusters, the
/// configuration that takes the batch pass; a window poll and reset
/// every 2048 packets as in `cluster_update`. Both sides must end with
/// the same cluster totals.
fn bench_cluster_assign_batch(h: &Harness, n: u64) -> BenchRow {
    let packets = engine_workload(n);
    let features = FeatureSet::simulation_default();
    let cfg = ClusteringConfig::deployable(10, features.clone());
    let (mut batch_window, mut packet_window) = (Vec::new(), Vec::new());
    let (mut batch_totals, mut packet_totals) = (Vec::new(), Vec::new());
    let (mut batch, mut out) = (FeatureBatch::new(), Vec::new());
    let mut batched = |mut c: OnlineClusterer| {
        for (i, run) in packets.chunks(ASSIGN_BATCH).enumerate() {
            batch.fill(&features, run);
            c.assign_batch(&batch, &mut out);
            accturbo_bench::black_box(&out);
            if i % 8 == 7 {
                c.take_window_into(&mut batch_window);
                c.reset_clusters();
            }
        }
        batch_totals.push(c.totals().to_vec());
    };
    let mut per_packet = |mut c: OnlineClusterer| {
        for (i, pkt) in packets.iter().enumerate() {
            accturbo_bench::black_box(c.assign_record(pkt));
            if i % 2048 == 2047 {
                c.take_window_into(&mut packet_window);
                c.reset_clusters();
            }
        }
        packet_totals.push(c.totals().to_vec());
    };
    let row = paired_row(
        h,
        "cluster_assign_batch",
        n,
        || OnlineClusterer::new(cfg.clone()),
        ("cluster_assign_batch/batch", &mut batched),
        ("cluster_assign_batch/assign (per packet)", &mut per_packet),
    );
    assert!(
        batch_totals
            .iter()
            .chain(&packet_totals)
            .all(|t| *t == batch_totals[0]),
        "batched and per-packet assignment disagree"
    );
    row
}

/// Nearest-cluster scan throughput on a realistically grown geometry:
/// the lane-blocked column scan (`scan_soa`, the live Manhattan kernel)
/// versus the per-cluster array-of-structs scan it replaced
/// (`scan_aos`, kept as the differential oracle). The clusterer is
/// first fed the whole workload so the ten clusters have the stretched,
/// overlapping shapes a scan meets mid-run, then each path re-scans
/// every extracted feature vector. Runs the 12-feature simulation
/// profile — the width the threaded engine rows drive the kernel at.
fn bench_cluster_scan_soa(h: &Harness, n: u64) -> BenchRow {
    let packets = engine_workload(n);
    let features = FeatureSet::simulation_default();
    let cfg = ClusteringConfig::deployable(10, features.clone());
    let mut clusterer = OnlineClusterer::new(cfg);
    for pkt in &packets {
        clusterer.assign(pkt);
    }
    let vectors: Vec<Vec<u32>> = packets
        .iter()
        .map(|p| {
            let mut v = Vec::new();
            features.extract_into(p, &mut v);
            v
        })
        .collect();
    let mut soa = |()| {
        for v in &vectors {
            accturbo_bench::black_box(clusterer.scan_soa(v));
        }
    };
    let mut aos = |()| {
        for v in &vectors {
            accturbo_bench::black_box(clusterer.scan_aos(v));
        }
    };
    paired_row(
        h,
        "cluster_scan_soa",
        n,
        || (),
        ("cluster_scan_soa/scan", &mut soa),
        ("cluster_scan_soa/scan (aos)", &mut aos),
    )
}

/// SP-PIFO ranked-enqueue throughput (drained interleaved, so the bench
/// isn't dominated by tail drops). No reference path: the scheduler was
/// already allocation-free; this row is the regression baseline.
fn bench_sppifo_enqueue(h: &Harness, n: u64) -> BenchRow {
    let mut rng = StdRng::seed_from_u64(0x5BF0);
    let ranked: Vec<(Packet, u64)> = (0..n)
        .map(|i| {
            let pkt = Packet::new(SimTime::from_nanos(i)).with_size(400);
            (pkt, rng.gen_range(0..4096u64))
        })
        .collect();
    let fast = h
        .run_batched(
            "sppifo_enqueue/ranked",
            Some(n),
            || SpPifo::new(8, 1 << 20),
            |mut sp| {
                let mut drops = Vec::new();
                for (i, (pkt, rank)) in ranked.iter().enumerate() {
                    sp.enqueue_ranked(
                        pkt.clone(),
                        *rank,
                        SimTime::from_nanos(i as u64),
                        &mut drops,
                    );
                    if i % 4 == 3 {
                        accturbo_bench::black_box(sp.dequeue(SimTime::from_nanos(i as u64)));
                    }
                }
            },
        )
        .expect("unfiltered");
    row("sppifo_enqueue".into(), &fast, None)
}

/// Runs `IDENTITY_FIGURES` at quick scale under both kernel paths and
/// returns an error naming the first figure whose rendered report or
/// golden serialization differs.
pub fn check_golden_identity() -> Result<(), String> {
    for name in IDENTITY_FIGURES {
        let spec = figure_spec(name).expect("identity figure is registered");
        let fast = spec.run_default(Scale::Quick);
        force_reference_kernels(true);
        let reference = spec.run_default(Scale::Quick);
        force_reference_kernels(false);
        if fast.rendered != reference.rendered {
            return Err(format!(
                "{name}: rendered report differs between optimized and reference kernels"
            ));
        }
        if fast.result.to_golden() != reference.result.to_golden() {
            return Err(format!(
                "{name}: golden serialization differs between optimized and reference kernels"
            ));
        }
    }
    Ok(())
}

/// The host's core count, recorded in the export so trajectory rows are
/// comparable across machines (a threaded speedup on one core is pure
/// algorithm; on many cores it could hide thread parallelism).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Serializes the export: schema tag, mode, host core count, identity
/// verdict, rows. Refuses any row whose name does not resolve against
/// the bench registry — the archive must never carry a number no
/// in-tree bench can reproduce. String fields go through the shared
/// [`accturbo_obs::escape_json`] so a bench name can never corrupt the
/// document.
pub fn to_json(smoke: bool, cores: usize, rows: &[BenchRow]) -> Result<String, String> {
    use accturbo_obs::escape_json;
    for r in rows {
        if !is_registered(&r.name) {
            return Err(format!(
                "refusing to export `{}`: no registered live bench produces this row",
                r.name
            ));
        }
    }
    let quoted = |v: &str| {
        let mut q = String::with_capacity(v.len() + 2);
        q.push('"');
        escape_json(v, &mut q);
        q.push('"');
        q
    };
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": \"accturbo-bench-datapath-v1\",");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    let _ = writeln!(s, "  \"host_cores\": {cores},");
    let _ = writeln!(
        s,
        "  \"golden_identity\": {{ \"figures\": [{}], \"identical\": true }},",
        IDENTITY_FIGURES
            .iter()
            .map(|f| quoted(f))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(s, "  \"benches\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{ \"name\": {}, \"elements\": {}, \"median_ns_per_iter\": {:.1}, \"pkts_per_sec\": {:.1}",
            quoted(&r.name),
            r.elements,
            r.median_ns,
            r.pkts_per_sec
        );
        if let (Some(rp), Some(sp)) = (r.reference_pkts_per_sec, r.speedup) {
            let _ = write!(
                s,
                ", \"reference_pkts_per_sec\": {rp:.1}, \"speedup\": {sp:.3}"
            );
        }
        let _ = writeln!(s, " }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ]");
    s.push_str("}\n");
    Ok(s)
}

/// Runs the datapath benches on `h` with `n` packets each — the serial
/// and threaded engine steps, the cluster kernels, and the SP-PIFO
/// enqueue — returning the export rows (shared with the `fastpath` bench
/// binary).
pub fn run_rows(h: &Harness, n: u64) -> Vec<BenchRow> {
    vec![
        bench_engine_step(h, n),
        bench_engine_step_threaded(h, n),
        bench_cluster_scan_soa(h, n),
        bench_cluster_update(h, n),
        bench_cluster_assign_batch(h, n),
        bench_sppifo_enqueue(h, n),
        bench_source_fill(h, n),
    ]
}

/// The `xp bench-export` entry point: identity gate, datapath benches,
/// JSON export. Returns the path written to.
pub fn run_export(args: &BenchArgs) -> Result<String, String> {
    eprintln!("checking optimized/reference figure identity (quick scale) ...");
    check_golden_identity()?;
    let h = Harness::new(args.smoke, Vec::new());
    let n: u64 = if args.smoke { 4_000 } else { 20_000 };
    let rows = run_rows(&h, n);
    let json = to_json(args.smoke, host_cores(), &rows)?;
    std::fs::write(&args.out, &json).map_err(|e| format!("cannot write `{}`: {e}", args.out))?;
    for r in &rows {
        if let Some(s) = r.speedup {
            eprintln!("{}: {:.2}x vs reference", r.name, s);
        }
    }
    Ok(args.out.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn sample_row(name: &str) -> BenchRow {
        BenchRow {
            name: name.to_string(),
            elements: 100,
            median_ns: 50.0,
            pkts_per_sec: 2e9,
            reference_pkts_per_sec: Some(1e9),
            speedup: Some(2.0),
        }
    }

    #[test]
    fn parse_defaults_and_flags() {
        let d = parse_args(&[]).unwrap();
        assert!(!d.smoke);
        assert_eq!(d.out, "BENCH_datapath.json");
        let p = parse_args(&args(&["--smoke", "--out", "x.json"])).unwrap();
        assert!(p.smoke);
        assert_eq!(p.out, "x.json");
    }

    #[test]
    fn parse_rejects_garbage_and_missing_out() {
        assert!(parse_args(&args(&["--out"]))
            .unwrap_err()
            .contains("requires a PATH"));
        assert!(parse_args(&args(&["--frob"]))
            .unwrap_err()
            .contains("--frob"));
        assert!(parse_args(&args(&["--shards", "2"]))
            .unwrap_err()
            .contains("--shards"));
    }

    #[test]
    fn json_shape_with_and_without_reference() {
        let rows = vec![
            sample_row("engine_step"),
            BenchRow {
                reference_pkts_per_sec: None,
                speedup: None,
                ..sample_row("sppifo_enqueue")
            },
        ];
        let json = to_json(true, 4, &rows).unwrap();
        assert!(json.contains("\"schema\": \"accturbo-bench-datapath-v1\""));
        assert!(json.contains("\"smoke\": true"));
        assert!(json.contains("\"host_cores\": 4"));
        assert!(json.contains("\"speedup\": 2.000"));
        assert!(json.contains("\"identical\": true"));
        let refs = json.matches("reference_pkts_per_sec").count();
        assert_eq!(refs, 1, "only the engine row carries a reference");
    }

    #[test]
    fn registry_resolves_every_producible_row_and_nothing_else() {
        for name in [
            "engine_step",
            "engine_step_threaded",
            "cluster_scan_soa",
            "cluster_update",
            "sppifo_enqueue",
            "source_fill",
        ] {
            assert!(is_registered(name), "{name} must resolve");
        }
        for name in [
            "engine_step_sharded@2",
            "engine_step_sharded@8",
            "engine_step_threaded@1",
            "engine_step_threaded@2",
            "cluster_scan",
            "made_up_bench",
        ] {
            assert!(!is_registered(name), "{name} must not resolve");
        }
    }

    #[test]
    fn export_refuses_unregistered_rows() {
        let rows = vec![sample_row("engine_step"), sample_row("made_up_bench")];
        let err = to_json(false, 1, &rows).unwrap_err();
        assert!(err.contains("made_up_bench"), "{err}");
        assert!(err.contains("no registered live bench"), "{err}");
    }
}
