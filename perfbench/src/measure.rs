//! The two kinds of benchmark run: the untraced end-to-end run and the
//! traced per-layer run. Both count every scenario execution as one
//! operation and check it.

use crate::host;
use crate::instrument::{ClockCost, StageTotal, Tally};
use crate::workload::{
    cicday_spec, corpus_dir, day_seeds, evaluate_entry, execute_traced, execute_untraced,
    load_corpora, replay_pass, same_damage, time_setup, ReplayEntry, SetupTimes, SimSummary,
    Traced, Workload, CORPUS_WORKERS,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// The end-to-end metrics, with units, in the order `end_to_end` computes
/// them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("pkts_per_s", "pkt/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("benign_drop_pct", "%"),
    ("benign_delay_ms_p50", "sim_ms"),
    ("benign_delay_ms_p99", "sim_ms"),
];

/// The defenses with per-defense switch metrics, and whether each runs a
/// control plane (FIFO and RED have no control tick to time).
const SWITCH_LABELS: [(&str, bool); 5] = [
    ("fifo", false),
    ("red", false),
    ("acc", true),
    ("accturbo", true),
    ("jaqen", true),
];

/// The per-layer metrics, with units, in reporting order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("trace.overhead_pct", "%"),
        ("host.ref_mops", "Mop/s"),
        ("traffic.ns_per_pkt", "ns/pkt"),
        ("engine.self_ns_per_pkt", "ns/pkt"),
        ("shard.self_ns_per_pkt", "ns/pkt"),
        ("topology.self_ns_per_pkt", "ns/pkt"),
        ("topology.hops", "count"),
        ("pushback.installs", "count"),
        ("clustering.classify_ns_per_pkt", "ns/pkt"),
        ("sched.enqueue_ns_per_pkt", "ns/pkt"),
        ("sched.control_tick_us", "us"),
        ("sched.control_ticks", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for (label, control) in SWITCH_LABELS {
        names.push((format!("switch.{label}.ingress_ns_per_pkt"), "ns/pkt"));
        names.push((format!("switch.{label}.dequeue_ns_per_pkt"), "ns/pkt"));
        if control {
            names.push((format!("switch.{label}.control_tick_us"), "us"));
        }
    }
    names.extend(
        [
            ("netsim.arrivals", "count"),
            ("netsim.departures", "count"),
            ("netsim.drops", "count"),
            ("netsim.delivered_share", "ratio"),
            ("runner.busy_share", "ratio"),
            ("runner.eval_ms_p50", "ms"),
            ("runner.eval_ms_p80", "ms"),
            ("setup.build_us", "us"),
            ("setup.corpus_parse_us", "us"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    names
}

/// Timed repetitions an end-to-end run makes at least, however short
/// `--seconds` is.
const MIN_REPS: usize = 3;

/// Set-ups timed before each timed repetition; `setup_s` is the median
/// of all of them, so its samples spread over the run like the
/// throughput samples do.
const SETUP_BATCH: usize = 11;

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: String,
    /// The value, in `unit`.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one benchmark run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Scenario executions made.
    pub attempted: u64,
    /// Executions whose outputs failed a check.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
    /// The metrics, in reporting order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Counts one operation; `why` describes it if `ok` is false.
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// The median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// The `p`-th percentile of `v` by linear interpolation between order
/// statistics; `0.0` for an empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Whether another repetition fits: always until `min` are done, then
/// only while one more of typical length ends within `seconds`.
fn another(start: Instant, seconds: f64, done: &[f64], min: usize) -> bool {
    done.len() < min || start.elapsed().as_secs_f64() + median(done) <= seconds
}

/// Times `SETUP_BATCH` complete set-ups of the scenario about to run.
fn setup_batch(w: Workload, seed: u64) -> Result<Vec<SetupTimes>, String> {
    (0..SETUP_BATCH).map(|_| time_setup(w, seed)).collect()
}

/// The medians of the timed set-ups.
struct SetupMedians {
    corpus_parse_ns: f64,
    build_ns: f64,
}

impl SetupMedians {
    fn of(runs: &[SetupTimes]) -> Self {
        let med = |f: fn(&SetupTimes) -> u64| {
            median(&runs.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
        };
        SetupMedians {
            corpus_parse_ns: med(|s| s.corpus_parse_ns),
            build_ns: med(|s| s.build_ns),
        }
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The simulated end-to-end metrics — benign drop %, delay p50 and p99
/// in simulated ms — as the mean over the run's attack days or corpus
/// entries.
fn simulated_means(summaries: &[SimSummary]) -> [f64; 3] {
    let n = summaries.len() as f64;
    let mean = |f: fn(&SimSummary) -> f64| summaries.iter().map(f).sum::<f64>() / n;
    [
        mean(|s| s.benign_drop_pct),
        mean(|s| s.benign_delay_p50_ns as f64 / 1e6),
        mean(|s| s.benign_delay_p99_ns as f64 / 1e6),
    ]
}

/// The host's reference speed, measured between repetitions, as a
/// factor of [`host::NOMINAL_OPS_PER_S`]: a host time multiplied by it is
/// the time the same work takes at the nominal speed.
struct HostSpeed {
    threads: usize,
    last: f64,
    seen: Vec<f64>,
}

impl HostSpeed {
    fn measure(threads: usize) -> Self {
        let k = host::ops_per_s(threads);
        HostSpeed {
            threads,
            last: k,
            seen: vec![k],
        }
    }

    /// The factor over the whole run: set-ups take microseconds, far less
    /// than one reference measurement, so the run's median rate states
    /// them more steadily than the nearest measurement does.
    fn run_median(&self) -> f64 {
        median(&self.seen) / host::NOMINAL_OPS_PER_S
    }

    /// Measures again; the factor for work done since the last
    /// measurement is the mean of the two.
    fn since_last(&mut self) -> f64 {
        let k = host::ops_per_s(self.threads);
        let factor = (self.last + k) / 2.0 / host::NOMINAL_OPS_PER_S;
        self.last = k;
        self.seen.push(k);
        factor
    }
}

/// The untraced run: whole-run throughput and set-up time (stated at the
/// nominal host speed), memory, and the exact simulated defense metrics.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    // Host times of the set-ups, s.
    let mut setups = Vec::new();
    let setup_secs = |s: &SetupTimes| s.total_ns() as f64 / 1e9;
    // Packets per second at nominal host speed, and as measured.
    let (pkts_per_s, raw_pkts_per_s);
    let simulated: Vec<SimSummary>;
    let speed;
    if w == Workload::CorpusReplay {
        let entries = load_corpora(&corpus_dir())?;
        // Warm-up: the product's own damage evaluation, checked against
        // the corpus files.
        let (reference, _) = replay_pass(&entries, evaluate_entry);
        for (r, e) in reference.iter().zip(&entries) {
            report.check(same_damage(&r.output, &e.expected), || {
                format!(
                    "{} entry {}: evaluate_workload drifted from the corpus",
                    e.corpus, e.index
                )
            });
        }
        let mut sp = HostSpeed::measure(CORPUS_WORKERS);
        let (mut rates, mut raw_rates, mut iterations) = (Vec::new(), Vec::new(), Vec::new());
        let mut last = Vec::new();
        let start = Instant::now();
        while another(start, seconds, &iterations, MIN_REPS) {
            let t = Instant::now();
            setups.extend(setup_batch(w, seed)?.iter().map(setup_secs));
            let (pass, wall) = replay_pass(&entries, |e| execute_untraced(&e.spec));
            let factor = sp.since_last();
            last = pass.into_iter().map(|r| r.output).collect::<Vec<_>>();
            check_replays(&mut report, &entries, &last);
            let pkts: u64 = last.iter().map(|s| s.arrivals).sum();
            let secs = wall as f64 / 1e9;
            raw_rates.push(pkts as f64 / secs);
            rates.push(pkts as f64 / (secs * factor));
            iterations.push(t.elapsed().as_secs_f64());
        }
        pkts_per_s = median(&rates);
        raw_pkts_per_s = median(&raw_rates);
        simulated = last;
        speed = sp;
    } else {
        let specs = day_seeds(seed)
            .into_iter()
            .map(|d| cicday_spec(w, d))
            .collect::<Result<Vec<_>, _>>()?;
        // Each day's reference outcome: on the sharded workload the serial
        // engine's (= `cicday_accturbo`'s), which every sharded run must
        // equal; elsewhere the day's first run, which later ones repeat.
        let mut references: Vec<Option<SimSummary>> = vec![None; specs.len()];
        if w == Workload::CicdayAccturboShards2 {
            for (r, spec) in references.iter_mut().zip(&specs) {
                let serial = execute_untraced(&spec.clone().with_shards(1));
                report.check(serial.conserves(), || {
                    "serial reference loses packets".into()
                });
                *r = Some(serial);
            }
        }
        let mut sp = HostSpeed::measure(1);
        let mut outcomes: Vec<Option<SimSummary>> = vec![None; specs.len()];
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
        let mut raw_times: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
        let mut iterations = Vec::new();
        let start = Instant::now();
        while another(start, seconds, &iterations, specs.len()) {
            let t0 = Instant::now();
            let day = iterations.len() % specs.len();
            let spec = &specs[day];
            setups.extend(setup_batch(w, spec.seed)?.iter().map(setup_secs));
            let t = Instant::now();
            let s = execute_untraced(spec);
            let secs = t.elapsed().as_secs_f64();
            let factor = sp.since_last();
            let reference = *references[day].get_or_insert(s);
            report.check(s.conserves() && s.same_as(&reference), || {
                format!(
                    "day {day} (seed {}) differs from its reference: {s:?}",
                    spec.seed
                )
            });
            outcomes[day] = Some(s);
            raw_times[day].push(secs);
            times[day].push(secs * factor);
            iterations.push(t0.elapsed().as_secs_f64());
        }
        simulated = outcomes.into_iter().flatten().collect();
        // The days' packets over their median times: the rate of one
        // typical pass over all of them.
        let pkts = simulated.iter().map(|s| s.arrivals).sum::<u64>() as f64;
        let total = |t: &[Vec<f64>]| t.iter().map(|d| median(d)).sum::<f64>();
        pkts_per_s = pkts / total(&times);
        raw_pkts_per_s = pkts / total(&raw_times);
        speed = sp;
    }
    eprintln!(
        "{}: reference {:.3} Mop/s (median); as measured: {:.0} pkt/s, set-up {:.3e} s",
        w.name(),
        median(&speed.seen) / 1e6,
        raw_pkts_per_s,
        median(&setups)
    );
    let [drop_pct, delay_p50, delay_p99] = simulated_means(&simulated);
    let values = [
        pkts_per_s,
        median(&setups) * speed.run_median(),
        peak_rss_mib()?,
        drop_pct,
        delay_p50,
        delay_p99,
    ];
    for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
        report.put(name, value, unit);
    }
    Ok(report)
}

/// Checks one pass of corpus replays: conservation, and the damage fields
/// bit-exact to the corpus files.
fn check_replays(report: &mut Report, entries: &[ReplayEntry], outcomes: &[SimSummary]) {
    for (e, s) in entries.iter().zip(outcomes) {
        report.check(s.conserves() && s.matches_damage(&e.expected), || {
            format!(
                "{} entry {}: replay differs from the corpus: {s:?}",
                e.corpus, e.index
            )
        });
    }
}

/// What a traced run measured, summed over its passes.
#[derive(Default)]
struct TracedTotals {
    tally: Tally,
    wall_ns: u64,
    pkts: u64,
    /// Traced passes: one execution on a CICDDoS day, all 50 entries on
    /// the corpus.
    passes: u64,
    /// The last traced pass's outcomes.
    last: Option<Vec<SimSummary>>,
    /// Host time of each untraced and each traced pass, s.
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    /// Runner pool: busy share per untraced pass, and every job's time, ms.
    busy: Vec<f64>,
    evals: Vec<f64>,
    /// The host's reference speed over the run, Mop/s.
    ref_mops: f64,
}

impl TracedTotals {
    fn add(&mut self, t: &Traced) {
        self.tally.merge(&t.tally);
        self.wall_ns += t.wall_ns;
        self.pkts += t.summary.arrivals;
    }
}

/// The traced run: per-layer host times from the wrappers and the
/// ACC-Turbo stage clock, exact layer counts, and the tracing overhead
/// against untraced executions alternated with the traced ones.
pub fn per_layer(w: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let setup = SetupMedians::of(&setup_batch(w, seed)?);
    let clock = ClockCost::calibrate();
    let threads = if w == Workload::CorpusReplay {
        CORPUS_WORKERS
    } else {
        1
    };
    let mut speed = HostSpeed::measure(threads);
    let mut totals = TracedTotals::default();
    let start = Instant::now();
    if w == Workload::CorpusReplay {
        let entries = load_corpora(&corpus_dir())?;
        let mut pairs = Vec::new();
        while another(start, seconds, &pairs, 1) {
            let t = Instant::now();
            let (plain, wall) = replay_pass(&entries, |e| execute_untraced(&e.spec));
            let outcomes: Vec<SimSummary> = plain.iter().map(|r| r.output).collect();
            check_replays(&mut report, &entries, &outcomes);
            totals.untraced_s.push(wall as f64 / 1e9);
            let job_sum: u64 = plain.iter().map(|r| r.job_ns).sum();
            totals
                .busy
                .push(job_sum as f64 / (CORPUS_WORKERS as f64 * wall as f64));
            totals
                .evals
                .extend(plain.iter().map(|r| r.job_ns as f64 / 1e6));

            let (traced, wall) = replay_pass(&entries, |e| execute_traced(&e.spec));
            totals.traced_s.push(wall as f64 / 1e9);
            for ((r, plain), e) in traced.iter().zip(&outcomes).zip(&entries) {
                report.check(r.output.summary.same_as(plain), || {
                    format!(
                        "{} entry {}: traced replay differs from untraced",
                        e.corpus, e.index
                    )
                });
                totals.add(&r.output);
            }
            totals.last = Some(traced.iter().map(|r| r.output.summary).collect());
            totals.passes += 1;
            speed.since_last();
            pairs.push(t.elapsed().as_secs_f64());
        }
    } else {
        let spec = cicday_spec(w, seed)?;
        let reference = execute_untraced(&spec.clone().with_shards(1));
        report.check(reference.conserves(), || {
            "reference run does not conserve packets".into()
        });
        let mut pairs = Vec::new();
        while another(start, seconds, &pairs, 1) {
            let t = Instant::now();
            let plain = execute_untraced(&spec);
            totals.untraced_s.push(t.elapsed().as_secs_f64());
            report.check(plain.conserves() && plain.same_as(&reference), || {
                "untraced run differs from the serial reference".into()
            });
            let t2 = Instant::now();
            let traced = execute_traced(&spec);
            totals.traced_s.push(t2.elapsed().as_secs_f64());
            report.check(traced.summary.same_as(&reference), || {
                format!("traced run differs from untraced: {:?}", traced.summary)
            });
            totals.add(&traced);
            totals.last = Some(vec![traced.summary]);
            totals.passes += 1;
            speed.since_last();
            pairs.push(t.elapsed().as_secs_f64());
        }
    }
    totals.ref_mops = median(&speed.seen) / 1e6;
    put_layers(&mut report, w, &totals, &clock, &setup);
    Ok(report)
}

/// Host time net of the clock's own cost: `ns` measured over `calls`
/// timed calls, with `nested` further timed calls inside them.
fn net(ns: u64, calls: u64, nested: u64, clock: &ClockCost) -> f64 {
    (ns as f64 - calls as f64 * clock.inside_ns - nested as f64 * clock.pair_ns).max(0.0)
}

fn put_layers(
    report: &mut Report,
    w: Workload,
    totals: &TracedTotals,
    clock: &ClockCost,
    setup: &SetupMedians,
) {
    let t = &totals.tally;
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    put(
        "trace.overhead_pct",
        100.0 * (ratio(median(&totals.traced_s), median(&totals.untraced_s)) - 1.0),
    );
    put("host.ref_mops", totals.ref_mops);
    let source = net(t.source_ns, t.source_calls, 0, clock);
    put("traffic.ns_per_pkt", ratio(source, t.source_pkts as f64));

    // ACC-Turbo's stage clock times classify and enqueue inside ingress,
    // and its control loop inside control_tick.
    let (stage_ingress, stage_control) = (t.classify.calls + t.enqueue.calls, t.control.calls);
    let mut switch_ns = 0.0;
    let mut timed_calls = t.source_calls + stage_ingress + stage_control;
    for (label, s) in &t.switches {
        let turbo = *label == "accturbo";
        let nested = |n: u64| if turbo { n } else { 0 };
        let ingress = net(s.ingress_ns, s.ingress_pkts, nested(stage_ingress), clock);
        let dequeue = net(s.dequeue_ns, s.dequeue_calls, 0, clock);
        let control = net(s.control_ns, s.control_ticks, nested(stage_control), clock);
        let pushback = net(s.pushback_ns, s.pushback_calls, 0, clock);
        switch_ns += ingress + dequeue + control + pushback;
        timed_calls += s.timed_calls();
        put(
            &format!("switch.{label}.ingress_ns_per_pkt"),
            ratio(ingress, s.ingress_pkts as f64),
        );
        put(
            &format!("switch.{label}.dequeue_ns_per_pkt"),
            ratio(dequeue, s.dequeue_pkts as f64),
        );
        put(
            &format!("switch.{label}.control_tick_us"),
            ratio(control, s.control_ticks as f64) / 1e3,
        );
    }
    // What is left of the engine call once the source, the switches and
    // every clock read are taken out: the engine's own loop.
    let self_ns = totals.wall_ns as f64 - source - switch_ns - timed_calls as f64 * clock.pair_ns;
    let engine = match w {
        Workload::CicdayAccturbo | Workload::CorpusReplay => "engine",
        Workload::CicdayAccturboShards2 => "shard",
        Workload::CicdayFattreePushback => "topology",
    };
    put(
        &format!("{engine}.self_ns_per_pkt"),
        ratio(self_ns.max(0.0), totals.pkts as f64),
    );

    let last = totals.last.as_deref().unwrap_or(&[]);
    let sum = |f: fn(&SimSummary) -> u64| last.iter().map(f).sum::<u64>() as f64;
    put("topology.hops", sum(|s| s.hops));
    put("pushback.installs", sum(|s| s.pushback_installs));
    let stage = |st: &StageTotal| ratio(net(st.ns, st.calls, 0, clock), st.calls as f64);
    put("clustering.classify_ns_per_pkt", stage(&t.classify));
    put("sched.enqueue_ns_per_pkt", stage(&t.enqueue));
    put("sched.control_tick_us", stage(&t.control) / 1e3);
    // Every traced pass repeats the same simulations, so the count per
    // pass is exact.
    put(
        "sched.control_ticks",
        ratio(t.control.calls as f64, totals.passes as f64),
    );
    let (arrivals, departures) = (sum(|s| s.arrivals), sum(|s| s.departures));
    put("netsim.arrivals", arrivals);
    put("netsim.departures", departures);
    put("netsim.drops", sum(|s| s.drops));
    put("netsim.delivered_share", ratio(departures, arrivals));
    put("runner.busy_share", median(&totals.busy));
    put("runner.eval_ms_p50", percentile(&totals.evals, 50.0));
    put("runner.eval_ms_p80", percentile(&totals.evals, 80.0));
    put("setup.build_us", setup.build_ns / 1e3);
    put("setup.corpus_parse_us", setup.corpus_parse_ns / 1e3);

    // Every per-layer metric is reported; a layer this workload does not
    // run reads 0.
    for (name, unit) in per_layer_names() {
        report.put(&name, v.get(&name).copied().unwrap_or(0.0), unit);
    }
}
