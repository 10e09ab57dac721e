//! The four benchmark workloads: how each is set up, executed untraced
//! through the program's own entry points, executed traced through the
//! [`crate::instrument`] wrappers, and checked.

use crate::instrument::{Probe, StageTotal, Tally, TimedSource, TimedSwitch};
use accturbo_adversary::{Corpus, DamageMetrics};
use accturbo_core::AccTurboSwitch;
use accturbo_experiments::spec::{
    DefenseSpec, EdgeDefense, ScenarioSpec, TopologySpec, WorkloadSpec,
};
use accturbo_experiments::worstcase;
use accturbo_netsim::{
    run, run_topology, ClassId, EngineConfig, PacketSource, PushbackPlan, RunResult, ShardedEngine,
    Switch, TopologyConfig,
};
use accturbo_traffic::LeafPlacement;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The canonical seed of the CICDDoS attack day (the figure's own), used
/// when no `--seed` is given.
pub const CANONICAL_SEED: u64 = 0xC1C;

/// Attack days an end-to-end run of a CICDDoS workload replays.
pub const DAYS: usize = 5;

/// The seeds of a run's attack days: `seed` itself (so the canonical run
/// includes the figure's own day), then values mixed from it, so that
/// neighbouring seeds share no day.
pub fn day_seeds(seed: u64) -> [u64; DAYS] {
    let mut days = [seed; DAYS];
    for (i, d) in days.iter_mut().enumerate().skip(1) {
        // SplitMix64's finalizer over a Weyl step.
        let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *d = z ^ (z >> 31);
    }
    days
}

/// The corpora `corpus_replay` replays, pinned so the workload does not
/// grow when a defense is added to the search frontier.
pub const CORPUS_DEFENSES: [&str; 5] = ["fifo", "red", "acc", "accturbo", "jaqen"];

/// Worker threads of the runner pool on `corpus_replay` (= the 2 vCPUs of
/// the host the bounds were measured on).
pub const CORPUS_WORKERS: usize = 2;

/// Shard count of `cicday_accturbo_shards2`.
pub const SHARDS: usize = 2;

/// Where the committed worst-case corpora live, relative to this package.
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("tests")
        .join("corpus")
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §8 attack day through ACC-Turbo on the serial engine.
    CicdayAccturbo,
    /// The same scenario on the sharded engine with two shards.
    CicdayAccturboShards2,
    /// The attack day through classic ACC at the root of a k=4 fat tree
    /// with hop-by-hop pushback.
    CicdayFattreePushback,
    /// Every committed worst-case attack replayed on the runner pool.
    CorpusReplay,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::CicdayAccturbo,
        Workload::CicdayAccturboShards2,
        Workload::CicdayFattreePushback,
        Workload::CorpusReplay,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CicdayAccturbo => "cicday_accturbo",
            Workload::CicdayAccturboShards2 => "cicday_accturbo_shards2",
            Workload::CicdayFattreePushback => "cicday_fattree_pushback",
            Workload::CorpusReplay => "corpus_replay",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The exact simulated outcome of one scenario execution — everything
/// the benchmark reports or compares that does not depend on the host.
#[derive(Debug, Clone, Copy)]
pub struct SimSummary {
    /// Packets offered to the datapath.
    pub arrivals: u64,
    /// Packets sent on the bottleneck link.
    pub departures: u64,
    /// Packets dropped anywhere.
    pub drops: u64,
    /// Packets still queued at the end.
    pub backlog: u64,
    /// Benign packets dropped, percent.
    pub benign_drop_pct: f64,
    /// Attack packets dropped, percent.
    pub attack_drop_pct: f64,
    /// Benign goodput, Mbit/s, as `worstcase::evaluate_workload` defines it.
    pub benign_mbps: f64,
    /// Median simulated queueing delay of benign packets, ns.
    pub benign_delay_p50_ns: u64,
    /// 99th-percentile simulated queueing delay of benign packets, ns.
    pub benign_delay_p99_ns: u64,
    /// Inter-switch link crossings (topology runs only).
    pub hops: u64,
    /// Pushback limit deliveries (topology runs only).
    pub pushback_installs: u64,
}

impl SimSummary {
    fn of(result: &RunResult, backlog: usize, secs: u64) -> Self {
        let stats = &result.stats;
        // The reduction of `worstcase::evaluate_workload`, term for term,
        // so corpus replays compare bit-exactly against the corpus files.
        let benign_mbps = (0..secs as usize)
            .map(|t| stats.throughput_bps(t, ClassId::BENIGN))
            .sum::<f64>()
            / secs.max(1) as f64
            / 1e6;
        let delay = |p: f64| {
            result
                .delays
                .percentile(ClassId::BENIGN, p)
                .map_or(0, |d| d.as_nanos())
        };
        SimSummary {
            arrivals: result.arrivals,
            departures: result.departures,
            drops: result.drops,
            backlog: backlog as u64,
            benign_drop_pct: stats.benign_drop_pct(),
            attack_drop_pct: stats.attack_drop_pct(),
            benign_mbps,
            benign_delay_p50_ns: delay(50.0),
            benign_delay_p99_ns: delay(99.0),
            hops: 0,
            pushback_installs: 0,
        }
    }

    /// Packet conservation: every offered packet left, was dropped, or is
    /// still queued.
    pub fn conserves(&self) -> bool {
        self.arrivals == self.departures + self.drops + self.backlog
    }

    /// Bit-for-bit equality of every field.
    pub fn same_as(&self, o: &SimSummary) -> bool {
        self.arrivals == o.arrivals
            && self.departures == o.departures
            && self.drops == o.drops
            && self.backlog == o.backlog
            && self.benign_drop_pct.to_bits() == o.benign_drop_pct.to_bits()
            && self.attack_drop_pct.to_bits() == o.attack_drop_pct.to_bits()
            && self.benign_mbps.to_bits() == o.benign_mbps.to_bits()
            && self.benign_delay_p50_ns == o.benign_delay_p50_ns
            && self.benign_delay_p99_ns == o.benign_delay_p99_ns
            && self.hops == o.hops
            && self.pushback_installs == o.pushback_installs
    }

    /// Whether the damage fields equal a corpus record bit for bit.
    pub fn matches_damage(&self, d: &DamageMetrics) -> bool {
        self.benign_drop_pct.to_bits() == d.benign_drop_pct.to_bits()
            && self.attack_drop_pct.to_bits() == d.attack_drop_pct.to_bits()
            && self.benign_mbps.to_bits() == d.benign_mbps.to_bits()
    }
}

/// Whether two damage records are equal bit for bit.
pub fn same_damage(a: &DamageMetrics, b: &DamageMetrics) -> bool {
    a.benign_drop_pct.to_bits() == b.benign_drop_pct.to_bits()
        && a.attack_drop_pct.to_bits() == b.attack_drop_pct.to_bits()
        && a.benign_mbps.to_bits() == b.benign_mbps.to_bits()
}

/// The scenario sentence of a CICDDoS-day workload, parsed through the
/// scenario grammar as `xp run` would parse it.
pub fn cicday_spec(w: Workload, seed: u64) -> Result<ScenarioSpec, String> {
    let (defense, topology, shards) = match w {
        Workload::CicdayAccturbo => ("accturbo", None, 1),
        Workload::CicdayAccturboShards2 => ("accturbo", None, SHARDS),
        Workload::CicdayFattreePushback => ("acc", Some("fattree:4:pushback=on"), 1),
        Workload::CorpusReplay => return Err("corpus_replay is not a CICDDoS day".into()),
    };
    let workload: WorkloadSpec = "cicday".parse()?;
    let defense: DefenseSpec = defense.parse()?;
    let mut spec = ScenarioSpec::new(workload, defense)
        .with_seed(seed)
        .with_shards(shards);
    if let Some(t) = topology {
        let t: TopologySpec = t.parse()?;
        // `xp run` pads a topology run by its path RTT and one pushback
        // refresh per level, so limits reach the leaves before the end.
        let secs = spec.secs + t.extra_secs();
        spec = spec.with_topology(t).with_secs(secs);
    }
    Ok(spec)
}

/// One committed worst-case attack, ready to replay.
#[derive(Debug, Clone)]
pub struct ReplayEntry {
    /// The corpus (= defense) it came from.
    pub corpus: &'static str,
    /// Its position in that corpus file.
    pub index: usize,
    /// The scenario the corpus header and entry line describe.
    pub spec: ScenarioSpec,
    /// The damage recorded in the corpus file.
    pub expected: DamageMetrics,
}

/// Reads and parses every pinned corpus under `dir`, in
/// [`CORPUS_DEFENSES`] order, entries in file order.
pub fn load_corpora(dir: &Path) -> Result<Vec<ReplayEntry>, String> {
    let mut entries = Vec::new();
    for name in CORPUS_DEFENSES {
        let path = dir.join(format!("{name}.corpus"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let corpus =
            Corpus::parse(&text).map_err(|e| format!("corrupt corpus {}: {e}", path.display()))?;
        let defense: DefenseSpec = corpus
            .defense
            .parse()
            .map_err(|e| format!("{name}.corpus: bad defense header: {e}"))?;
        for (index, entry) in corpus.entries.iter().enumerate() {
            let workload: WorkloadSpec = entry
                .workload
                .parse()
                .map_err(|e| format!("{name}.corpus entry {index}: {e}"))?;
            let spec = ScenarioSpec::new(workload, defense.clone())
                .with_link(corpus.link_bps)
                .with_secs(corpus.secs)
                .with_seed(corpus.seed);
            entries.push(ReplayEntry {
                corpus: name,
                index,
                spec,
                expected: entry.metrics,
            });
        }
    }
    Ok(entries)
}

/// Host time of one set-up, split as the per-layer metrics report it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Reading and parsing the corpus files (`corpus_replay` only).
    pub corpus_parse_ns: u64,
    /// Parsing the scenario sentence and constructing sources, switches,
    /// topology and placement.
    pub build_ns: u64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_ns(&self) -> u64 {
        self.corpus_parse_ns + self.build_ns
    }
}

/// Everything a scenario constructs before its first packet, held so the
/// set-up measurement can drop it outside the timed region.
struct Built {
    _source: Box<dyn PacketSource>,
    _switches: Vec<Box<dyn Switch>>,
    _placement: Option<LeafPlacement>,
}

fn construct(spec: &ScenarioSpec) -> Built {
    let source = spec.workload.build(spec.link_bps, spec.secs, spec.seed);
    let mut switches = vec![spec.defense.build(spec.link_bps)];
    let mut placement = None;
    if let Some(t) = &spec.topology {
        let topo = t.build(spec.link_bps);
        let uplink = t.uplink(spec.link_bps);
        switches.extend((1..topo.num_nodes()).map(|_| edge_defense(spec, t).build(uplink)));
        placement = Some(LeafPlacement::new(
            topo.leaves().len(),
            t.attackers.as_deref(),
        ));
    }
    Built {
        _source: source,
        _switches: switches,
        _placement: placement,
    }
}

/// What defends a topology's non-bottleneck switches.
fn edge_defense(spec: &ScenarioSpec, t: &TopologySpec) -> DefenseSpec {
    match t.edges {
        EdgeDefense::Fifo => DefenseSpec::Fifo,
        EdgeDefense::Same => spec.defense.clone(),
    }
}

/// Performs one complete set-up of workload `w` — everything before the
/// first packet — and times it. The constructed objects are dropped
/// after the clock stops.
pub fn time_setup(w: Workload, seed: u64) -> Result<SetupTimes, String> {
    let t0 = Instant::now();
    if w == Workload::CorpusReplay {
        let entries = load_corpora(&corpus_dir())?;
        let t1 = Instant::now();
        let built: Vec<Built> = entries.iter().map(|e| construct(&e.spec)).collect();
        let t2 = Instant::now();
        drop(built);
        return Ok(SetupTimes {
            corpus_parse_ns: (t1 - t0).as_nanos() as u64,
            build_ns: (t2 - t1).as_nanos() as u64,
        });
    }
    let spec = cicday_spec(w, seed)?;
    let built = construct(&spec);
    let t1 = Instant::now();
    drop(built);
    Ok(SetupTimes {
        corpus_parse_ns: 0,
        build_ns: (t1 - t0).as_nanos() as u64,
    })
}

/// Runs a scenario untraced through the program's own entry point
/// (`ScenarioSpec::execute`; on a topology `execute_topology`, the path
/// `execute` takes, which also returns the hop and pushback counts).
pub fn execute_untraced(spec: &ScenarioSpec) -> SimSummary {
    if spec.topology.is_some() {
        let t = spec.execute_topology();
        let mut s = SimSummary::of(&t.result, t.backlog_pkts, spec.secs);
        s.hops = t.hops;
        s.pushback_installs = t.pushback_installs;
        return s;
    }
    let out = spec.execute();
    SimSummary::of(&out.result, out.backlog_pkts, spec.secs)
}

/// The label per-defense switch metrics are reported under.
pub fn defense_label(d: &DefenseSpec) -> &'static str {
    match d {
        DefenseSpec::Fifo => "fifo",
        DefenseSpec::Red => "red",
        DefenseSpec::Acc { .. } => "acc",
        DefenseSpec::AccTurbo(_) => "accturbo",
        DefenseSpec::Jaqen(_) => "jaqen",
        _ => "other",
    }
}

/// A traced defended switch: ACC-Turbo keeps its concrete type so its own
/// stage clock (classify / enqueue / control_tick) can be read afterwards.
enum TracedSwitch {
    Turbo(TimedSwitch<AccTurboSwitch<'static>>),
    Other(TimedSwitch<dyn Switch>),
}

impl TracedSwitch {
    fn new(defense: &DefenseSpec, link_bps: u64, probe: &Probe) -> Self {
        let label = defense_label(defense);
        match defense {
            DefenseSpec::AccTurbo(s) => {
                let mut sw = s.build();
                sw.set_timing(true);
                TracedSwitch::Turbo(TimedSwitch::new(Box::new(sw), label, probe.clone()))
            }
            d => TracedSwitch::Other(TimedSwitch::new(d.build(link_bps), label, probe.clone())),
        }
    }

    fn switch(&mut self) -> &mut dyn Switch {
        match self {
            TracedSwitch::Turbo(s) => s,
            TracedSwitch::Other(s) => s,
        }
    }

    /// Delivers the stage clock (ACC-Turbo) to the probe and drops the
    /// wrapper, which delivers its own totals.
    fn finish(self, probe: &Probe) {
        if let TracedSwitch::Turbo(s) = &self {
            let mut stages = Tally::default();
            for (name, total, calls) in s.inner().stage_clock().report() {
                let slot = match name {
                    "classify" => &mut stages.classify,
                    "enqueue" => &mut stages.enqueue,
                    "control_tick" => &mut stages.control,
                    _ => continue,
                };
                *slot = StageTotal {
                    ns: total.as_nanos() as u64,
                    calls,
                };
            }
            probe
                .lock()
                .expect("a traced job panicked holding the probe")
                .merge(&stages);
        }
    }
}

/// One traced execution: its simulated outcome, the host time of the
/// engine call, and what the wrappers measured.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The simulated outcome (must equal the untraced one).
    pub summary: SimSummary,
    /// Host time of the engine call (construction excluded).
    pub wall_ns: u64,
    /// The wrappers' measurements.
    pub tally: Tally,
}

/// Runs `spec` through the same engine its untraced execution uses, with
/// the source and every switch wrapped. The construction mirrors
/// `ScenarioSpec::execute`; the equality of the two summaries is what
/// shows the traced run measured the same program.
pub fn execute_traced(spec: &ScenarioSpec) -> Traced {
    assert!(
        spec.faults.is_none(),
        "the benchmark scenarios run fault-free"
    );
    let probe = Probe::default();
    let source = TimedSource::new(
        spec.workload.build(spec.link_bps, spec.secs, spec.seed),
        probe.clone(),
    );
    let period = spec.effective_period();
    let (summary, wall_ns) = if let Some(t) = &spec.topology {
        let topo = t.build(spec.link_bps);
        let uplink = t.uplink(spec.link_bps);
        let edge = edge_defense(spec, t);
        let mut switches: Vec<Box<dyn Switch>> = (0..topo.num_nodes())
            .map(|i| {
                let (d, link) = if i == topo.root() {
                    (&spec.defense, spec.link_bps)
                } else {
                    (&edge, uplink)
                };
                Box::new(TimedSwitch::new(
                    d.build(link),
                    defense_label(d),
                    probe.clone(),
                )) as Box<dyn Switch>
            })
            .collect();
        let placement = LeafPlacement::new(topo.leaves().len(), t.attackers.as_deref());
        let mut cfg = TopologyConfig::experiment(spec.secs, period);
        if t.pushback {
            cfg = cfg.with_pushback(PushbackPlan::new(t.refresh()));
        }
        let mut source = source;
        let start = Instant::now();
        let r = run_topology(
            &topo,
            &mut switches,
            &mut source,
            &mut |p| placement.place(p),
            &cfg,
        );
        let wall = start.elapsed().as_nanos() as u64;
        drop(switches);
        drop(source);
        let mut s = SimSummary::of(&r.result, r.backlog_pkts, spec.secs);
        s.hops = r.hops;
        s.pushback_installs = r.pushback_installs;
        (s, wall)
    } else {
        let cfg = EngineConfig::experiment(spec.link_bps, spec.secs, period);
        let mut sw = TracedSwitch::new(&spec.defense, spec.link_bps, &probe);
        let start = Instant::now();
        let result = if spec.shards > 1 {
            ShardedEngine::new(spec.shards).run_stream(Box::new(source), sw.switch(), &cfg)
        } else {
            let mut source = source;
            run(&mut source, sw.switch(), &cfg)
        };
        let wall = start.elapsed().as_nanos() as u64;
        let backlog = sw.switch().backlog_pkts();
        sw.finish(&probe);
        (SimSummary::of(&result, backlog, spec.secs), wall)
    };
    let tally = probe
        .lock()
        .expect("a traced job panicked holding the probe")
        .clone();
    Traced {
        summary,
        wall_ns,
        tally,
    }
}

/// One corpus entry's replay on the pool.
#[derive(Debug, Clone)]
pub struct Replayed<T> {
    /// What the job produced.
    pub output: T,
    /// Host time the job took on its worker.
    pub job_ns: u64,
}

/// Replays every entry on the runner pool with `job`, returning results
/// in entry order and the pass's host time.
pub fn replay_pass<T: Send>(
    entries: &[ReplayEntry],
    job: impl Fn(&ReplayEntry) -> T + Sync,
) -> (Vec<Replayed<T>>, u64) {
    let start = Instant::now();
    let results = accturbo_runner::run(CORPUS_WORKERS, entries.len(), |i| job(&entries[i]));
    let wall = start.elapsed().as_nanos() as u64;
    let out = results
        .into_iter()
        .map(|r| Replayed {
            output: r.output,
            job_ns: r.elapsed.as_nanos() as u64,
        })
        .collect();
    (out, wall)
}

/// The product's own damage evaluation of a corpus entry
/// (`worstcase::evaluate_workload`), as the corpus tests replay it.
pub fn evaluate_entry(e: &ReplayEntry) -> DamageMetrics {
    worstcase::evaluate_workload(
        &e.spec.defense,
        &e.spec.workload,
        e.spec.link_bps,
        e.spec.secs,
        e.spec.seed,
    )
}
