//! Operator tooling from the paper's §10: inspect the live
//! cluster → priority-queue mapping while a defense runs, and pin a
//! known-benign cluster to a dedicated high-priority queue.
//!
//! A tight UDP flood shares the link with a legitimate high-rate backup
//! transfer (a benign "elephant"). A plain throughput ranking would
//! deprioritize the backup along with the flood; the operator identifies
//! the backup's cluster from the console and pins it to queue 0 so the
//! flood alone is punished.
//!
//! Run with: `cargo run --release --example operator_console`

use accturbo::clustering::FeatureSet;
use accturbo::core::{AccTurboConfig, AccTurboSwitch};
use accturbo::netsim::{
    run, run_streamed, Bandwidth, ClassId, EngineConfig, MergedSource, PacketSource, SimDuration,
    SimTime,
};
use accturbo::obs::{
    raw_field, Event, MetricsHandle, NoopTracer, Registry, Sink, Telemetry, Tracer,
};
use accturbo::sched::RankingAlgorithm;
use accturbo::traffic::{
    AttackConfig, AttackSource, AttackVector, BackgroundConfig, BackgroundSource, CbrSource,
    FlowTemplate, Spread, SpreadSource,
};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

const LINK_BPS: u64 = 18_000_000;
const SECS: u64 = 30;
/// The backup service's destination /24 — what the operator recognizes.
const BACKUP_NET: [u8; 3] = [203, 7, 44];
/// The backup's packet size, which background traffic rarely hits exactly.
const BACKUP_SIZE: u32 = 1200;

fn workload() -> MergedSource {
    let end = SimTime::from_secs(SECS);
    let flood: Box<dyn PacketSource + Send> = Box::new(AttackSource::new(
        AttackConfig::new(
            AttackVector::UdpFlood,
            10_000_000,
            SimTime::from_secs(5),
            end,
            ClassId(1),
            3,
        )
        .with_single_flow(),
    ));
    let background: Box<dyn PacketSource + Send> = Box::new(BackgroundSource::new(
        BackgroundConfig::new(6_000_000, SimTime::ZERO, end, 11),
    ));
    // The legitimate backup transfer: high rate, spread over its /24.
    let backup = CbrSource::new(
        FlowTemplate::udp(
            Ipv4Addr::new(95, 10, 1, 1),
            Ipv4Addr::new(BACKUP_NET[0], BACKUP_NET[1], BACKUP_NET[2], 0),
            30_000,
            443,
            ClassId::BENIGN,
        )
        .with_size(BACKUP_SIZE),
        11_000_000,
        SimTime::ZERO,
        end,
    );
    let backup: Box<dyn PacketSource + Send> = Box::new(SpreadSource::new(
        backup,
        Spread {
            dst_low_bits: 8,
            src_low_bits: 12,
            sport: Some((30_000, 33_000)),
            ..Spread::default()
        },
        7,
    ));
    MergedSource::new(vec![flood, background, backup])
}

fn switch() -> AccTurboSwitch<'static> {
    AccTurboSwitch::new(
        AccTurboConfig::simulation(FeatureSet::simulation_default())
            .with_ranking(RankingAlgorithm::Throughput),
    )
}

fn engine(secs: u64) -> EngineConfig {
    EngineConfig::new(Bandwidth::from_bps(LINK_BPS))
        .with_stats_interval(SimDuration::from_secs(1))
        .with_control_period(SimDuration::from_millis(50))
        .with_end_time(SimTime::from_secs(secs))
}

/// Counts, per cluster, the switch's `enqueue` events for benign
/// packets of the backup's size.
struct BackupCounts([u64; 10]);

impl Tracer for BackupCounts {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, _ts_ns: u64, event: &Event<'_>) {
        if let Event::Enqueue {
            cluster: Some(cluster),
            class: 0,
            size: BACKUP_SIZE,
            ..
        } = *event
        {
            self.0[cluster] += 1;
        }
    }
}

/// Warm up the defense and find which cluster slot carries the backup
/// transfer — what the operator reads off the console's trace.
fn find_backup_cluster() -> usize {
    let mut source = workload();
    let counts = Rc::new(RefCell::new(BackupCounts([0; 10])));
    let mut sw = switch();
    sw.set_tracer(Box::new(Rc::clone(&counts)));
    run(&mut source, &mut sw, &engine(10));
    let counts = counts.borrow();
    counts
        .0
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .expect("ten clusters")
}

fn run_once(pin: Option<usize>) -> (f64, f64) {
    let mut source = workload();
    let mut sw = switch();
    if let Some(cluster) = pin {
        sw.controller_mut().pin(cluster, 0);
    }
    let res = run(&mut source, &mut sw, &engine(SECS));
    (res.stats.benign_drop_pct(), res.stats.attack_drop_pct())
}

/// A [`Sink`] that renders the streaming telemetry feed as a console
/// table, one row per control period, as the run progresses. The
/// `Telemetry` layer already emits per-period deltas, so no
/// previous-total bookkeeping is needed: `period` lines carry arrivals
/// / drops / backlog, and the `switch_enqueues` counter delta rides in
/// on its `agg` line. Fields are pulled with the shared
/// [`accturbo::obs::raw_field`] flat-JSON extractor.
struct ConsoleSink {
    ts_ns: u64,
    arrived: u64,
    dropped: u64,
    enqueued: u64,
    backlog: u64,
    have_row: bool,
}

impl ConsoleSink {
    fn new() -> Self {
        ConsoleSink {
            ts_ns: 0,
            arrived: 0,
            dropped: 0,
            enqueued: 0,
            backlog: 0,
            have_row: false,
        }
    }
}

impl Sink for ConsoleSink {
    fn emit(&mut self, line: &str) {
        let num = |key: &str| raw_field(line, key).and_then(|v| v.parse::<u64>().ok());
        match raw_field(line, "ev").map(|v| v.trim_matches('"')) {
            Some("period") => {
                self.ts_ns = num("ts").unwrap_or(0);
                self.arrived = num("arrivals").unwrap_or(0);
                self.dropped = num("drops").unwrap_or(0);
                self.backlog = num("backlog").unwrap_or(0);
                self.have_row = true;
            }
            Some("agg") if raw_field(line, "metric") == Some("\"switch_enqueues\"") => {
                self.enqueued = num("delta").unwrap_or(0);
            }
            _ => {}
        }
    }

    // `Telemetry` flushes once per control period, after the period's
    // lines — exactly one complete console row per flush.
    fn flush(&mut self) {
        if !self.have_row {
            return;
        }
        println!(
            "{:>6.2}  {:>8}  {:>8}  {:>8}  {:>8}",
            self.ts_ns as f64 / 1e9,
            self.arrived,
            self.dropped,
            self.enqueued,
            self.backlog,
        );
        self.have_row = false;
    }
}

fn main() {
    // Console: watch the mapping evolve during the attack's onset, with
    // a live metrics row per control period (stats interval aligned to
    // the control period so each row covers exactly one remap). Rows
    // stream out of the engine as the simulation runs — nothing is
    // accumulated and replayed afterwards.
    let period = SimDuration::from_millis(250);
    let mut source = workload();
    let mut sw = switch();
    let metrics: MetricsHandle = Rc::new(RefCell::new(Registry::new()));
    sw.set_metrics(Rc::clone(&metrics));
    let cfg = EngineConfig::new(Bandwidth::from_bps(LINK_BPS))
        .with_stats_interval(period)
        .with_control_period(period)
        .with_end_time(SimTime::from_secs(8));
    println!(
        "live metrics (one row per {} ms control period; pkt counts are per-period):",
        period.as_secs_f64() * 1e3
    );
    println!(
        "{:>6}  {:>8}  {:>8}  {:>8}  {:>8}",
        "t(s)", "arrived", "dropped", "enqueued", "backlog"
    );
    let mut tel = Telemetry::new().with_sink(Box::new(ConsoleSink::new()));
    run_streamed(
        &mut source,
        &mut sw,
        &cfg,
        &mut NoopTracer,
        Some(&metrics),
        None,
        Some(&mut tel),
    );
    println!(
        "cluster -> queue mapping after 8 s: {:?} (queue 0 = best)",
        sw.mapping()
    );

    let backup_cluster = find_backup_cluster();
    println!("backup /{BACKUP_NET:?}/24 traffic lives in cluster {backup_cluster}");

    let (benign_plain, attack_plain) = run_once(None);
    let (benign_pinned, attack_pinned) = run_once(Some(backup_cluster));
    println!("\nwith a legitimate 11 Mbps backup next to a 10 Mbps flood:");
    println!(
        "  throughput ranking, no pin : benign drops {benign_plain:.1}%  attack drops {attack_plain:.1}%"
    );
    println!(
        "  backup cluster pinned to q0: benign drops {benign_pinned:.1}%  attack drops {attack_pinned:.1}%"
    );
}
