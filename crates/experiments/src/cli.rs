//! The `xp` command-line front end: argument parsing and the parallel
//! figure-run orchestration.
//!
//! Parsing and execution live in the library (rather than `main.rs`) so
//! both are unit-testable: [`parse`] covers every flag/figure error path
//! and [`run_figures`] writes its output through a caller-supplied sink,
//! which the determinism tests point at a `String` instead of stdout.
//!
//! Output contract: the emitted byte stream depends only on the parsed
//! [`Cli`], never on `jobs` — the runner delivers results in job-index
//! order, so `--jobs 8` is byte-identical to `--jobs 1`.

use crate::result::aggregate_csv;
use crate::spec::{DefenseSpec, ScenarioSpec, TopologySpec, WorkloadSpec};
use crate::{figure_spec, FigureSpec, Scale, FIGURES};
use accturbo_netsim::SimDuration;
use accturbo_obs::{DatasetSink, FlightRecorder, FlowSampler, JsonlSink, Telemetry};
use std::fmt::Write as _;
use std::time::Duration;

/// The parsed `xp` invocation.
#[derive(Debug)]
pub struct Cli {
    /// Experiment scale (`--quick` selects [`Scale::Quick`]).
    pub scale: Scale,
    /// Resolved run targets: deduplicated, unknown names rejected, `all`
    /// expanded, first-mention order preserved. Empty means "all".
    pub targets: Vec<&'static FigureSpec>,
    /// Worker threads for the figure fan-out (`--jobs N`, default: the
    /// machine's available parallelism).
    pub jobs: usize,
    /// Explicit seeds (`--seeds a,b,c`). Empty means each figure runs
    /// once at its canonical [`FigureSpec::default_seed`].
    pub seeds: Vec<u64>,
    /// `--faults KIND:VAL,...`: custom fault mix. Non-empty switches the
    /// run to the robustness scenario under exactly this mix (baseline +
    /// faulted cell) instead of the generic figure fan-out.
    pub faults: Vec<(String, f64)>,
    /// The exports of the Fig. 2 ACC-Turbo scenario run alongside the
    /// figures; the trace also gets the figure jobs' spans.
    pub outputs: Outputs,
}

/// A run's export paths: the path-valued flags figure mode and `xp run`
/// share. Each one attaches its output to the run's
/// [`Telemetry`] bundle ([`build_telemetry`]).
#[derive(Debug, Default)]
pub struct Outputs {
    /// `--trace PATH`: stream every traced event (engine, switch, fault
    /// plane) to a JSONL file.
    pub trace: Option<String>,
    /// `--sink PATH`: stream per-period telemetry (period lines + metric
    /// aggregates) to a JSONL file.
    pub sink: Option<String>,
    /// `--dataset PATH`: export sampled flow records as a labeled
    /// dataset (CSV or JSONL by extension).
    pub dataset: Option<String>,
    /// `--flight-recorder PATH`: dump incident windows (JSONL) to PATH.
    pub flight_recorder: Option<String>,
}

impl Outputs {
    /// Whether any export was requested.
    pub fn any(&self) -> bool {
        self.trace.is_some()
            || self.sink.is_some()
            || self.dataset.is_some()
            || self.flight_recorder.is_some()
    }

    /// Fails with the first write error of `telemetry`'s outputs,
    /// naming its flag and path; call it once the run is finished.
    pub fn check_written(&self, telemetry: &Telemetry) -> Result<(), String> {
        let Some((output, e)) = telemetry.io_error() else {
            return Ok(());
        };
        let path = match output {
            "trace" => &self.trace,
            "sink" => &self.sink,
            "dataset" => &self.dataset,
            _ => &self.flight_recorder,
        };
        Err(format!("--{output} {}: {e}", path.as_deref().unwrap_or("")))
    }

    /// The path a flag sets, or `None` when `flag` is not a path flag.
    fn slot(&mut self, flag: &str) -> Option<&mut Option<String>> {
        match flag {
            "--trace" => Some(&mut self.trace),
            "--sink" => Some(&mut self.sink),
            "--dataset" => Some(&mut self.dataset),
            "--flight-recorder" => Some(&mut self.flight_recorder),
            _ => None,
        }
    }
}

/// The keys `xp run` accepts, each with its usage note, in usage order.
/// The usage text and `parse_run`'s unknown-key error both list these.
const RUN_KEYS: &[(&str, &str)] = &[
    ("workload", "(required)"),
    ("defense", "(default fifo)"),
    ("link", "(10m/2.5g/bps)"),
    ("secs", ""),
    ("seed", ""),
    ("period", "(250ms/1s)"),
    (
        "topology",
        "(line:N/star:N/fattree:K/isp-edge with :delay= :uplink= :attackers= \
         :edges=same :pushback=on :refresh=)",
    ),
    ("faults", "(KIND:VAL+KIND:VAL)"),
    (
        "shards",
        "(a count above 1 generates the workload on a producer thread; same output)",
    ),
];

/// Column where the usage text's descriptions start, and their width.
const USAGE_INDENT: usize = 33;
const USAGE_WIDTH: usize = 38;

/// `head` followed by `text` word-wrapped into the usage text's
/// description column.
fn usage_entry(head: &str, text: &str) -> String {
    let mut lines: Vec<String> = vec![String::new()];
    for word in text.split_whitespace() {
        let line = lines.last_mut().expect("never empty");
        if !line.is_empty() && line.len() + 1 + word.len() > USAGE_WIDTH {
            lines.push(word.to_string());
        } else {
            if !line.is_empty() {
                line.push(' ');
            }
            line.push_str(word);
        }
    }
    let pad = " ".repeat(USAGE_INDENT);
    let mut out = format!("{head:<USAGE_INDENT$}");
    out.push_str(&lines.join(&format!("\n{pad}")));
    out
}

/// The usage text (`xp --help`).
pub fn usage() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|s| s.name).collect();
    let keys: Vec<String> = RUN_KEYS
        .iter()
        .map(|(k, note)| format!("{k} {note}").trim_end().to_string())
        .collect();
    let run = usage_entry(
        "    xp run KEY=VAL[,KEY=VAL...]",
        &format!(
            "run one declarative scenario: any workload x defense combination, \
             not just the paper's. Keys: {}. Flags: --csv (panel only), --quick.",
            keys.join(", ")
        ),
    );
    format!(
        "xp — regenerate the paper's tables and figures\n\
         \n\
         USAGE:\n\
         \x20   xp [FIGURE...] [OPTIONS]     run the named figures (default: all)\n\
         {run}\n\
         \x20                                e.g. xp run workload=fig2 defense=accturbo\n\
         \x20                                     xp run workload=flood:carpet \\\n\
         \x20                                            defense=accturbo:profile=hw:features=dst4\n\
         \x20                                     xp run workload=flood defense=acc \\\n\
         \x20                                            topology=star:4:attackers=0+1:pushback=on\n\
         \x20   xp search defense=SPEC [KEY=VAL...]\n\
         \x20                                adversarial worst-case search: anneal\n\
         \x20                                over the pulse-attack knobs (period,\n\
         \x20                                duty, amplitude, vector mix, spread,\n\
         \x20                                ramp) for the attack that drops the\n\
         \x20                                most benign traffic under SPEC. Keys:\n\
         \x20                                defense (required), secs, link. Flags:\n\
         \x20                                --budget N (default 32), --seed N,\n\
         \x20                                --top N (frontier size, default 10),\n\
         \x20                                --jobs N (never changes the result),\n\
         \x20                                --out PATH (write the replayable\n\
         \x20                                corpus file), --quick (corpus frame).\n\
         \x20                                e.g. xp search defense=accturbo \\\n\
         \x20                                        --budget 48 --out acc.corpus\n\
         \x20   xp trace PATH                pretty-print a JSONL trace file\n\
         \x20   xp bench-export [--smoke] [--out PATH]\n\
         \x20                                measure datapath throughput (engine\n\
         \x20                                step, cluster update, SP-PIFO enqueue)\n\
         \x20                                vs the pre-optimization reference and\n\
         \x20                                write BENCH_datapath.json\n\
         \n\
         FIGURES:\n\
         \x20   {}\n\
         \x20   all                          everything above\n\
         \n\
         OPTIONS:\n\
         \x20   --quick                      shrink durations/rates (CI scale)\n\
         \x20   --smoke                      alias for --quick (CI smoke runs)\n\
         \x20   --faults KIND:VAL,...        run the robustness scenario under a\n\
         \x20                                custom fault mix (kinds: ctrl_drop,\n\
         \x20                                ctrl_delay, stale, pkt_drop,\n\
         \x20                                pkt_reorder, link_flap; VAL in [0,1])\n\
         \x20   --jobs N                     run figures on N worker threads\n\
         \x20                                (default: available parallelism;\n\
         \x20                                output is identical for any N)\n\
         \x20   --seeds A,B,C                run every figure once per seed and\n\
         \x20                                append a mean/min/max aggregate\n\
         \x20                                (default: each figure's canonical seed)\n\
         \x20   --trace PATH                 also run the Fig. 2 ACC-Turbo scenario\n\
         \x20                                and stream its event trace (plus the\n\
         \x20                                figure jobs' spans) to a JSONL file\n\
         \x20                                (also an `xp run` flag)\n\
         \x20   --sink PATH                  stream the same scenario's per-period\n\
         \x20                                telemetry (period lines + counter\n\
         \x20                                deltas/gauges/histogram merges) to a\n\
         \x20                                JSONL file with bounded memory\n\
         \x20                                (also an `xp run` flag)\n\
         \x20   --dataset PATH               export reservoir-sampled per-flow\n\
         \x20                                records from that run as a labeled\n\
         \x20                                dataset; .csv or .jsonl by extension\n\
         \x20                                (also an `xp run` flag)\n\
         \x20   --flight-recorder PATH       arm a flight recorder: dump a JSONL\n\
         \x20                                window of events around faults,\n\
         \x20                                degradation, or pulse onsets to PATH\n\
         \x20                                (also an `xp run` flag)\n\
         \x20   --help                       this text",
        names.join(", ")
    )
}

fn valid_names() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|s| s.name).collect();
    format!("{}, all", names.join(", "))
}

/// Parses a `KIND:VAL`-separated fault mix (both the `--faults` flag,
/// comma-separated, and `xp run`'s `faults=` key, `+`-separated).
/// `ctx` prefixes every error message.
fn parse_fault_mix(ctx: &str, raw: &str, sep: char) -> Result<Vec<(String, f64)>, String> {
    let mut mix: Vec<(String, f64)> = Vec::new();
    for part in raw.split(sep) {
        let part = part.trim();
        if part.is_empty() {
            return Err(format!("{ctx}: empty entry in `{raw}`"));
        }
        let (kind, val) = part
            .split_once(':')
            .ok_or_else(|| format!("{ctx}: `{part}` is not KIND:VAL"))?;
        if !crate::robustness::FAULT_KINDS.contains(&kind) {
            return Err(format!(
                "{ctx}: unknown fault kind `{kind}`; valid kinds: {}",
                crate::robustness::FAULT_KINDS.join(", ")
            ));
        }
        let v: f64 = val
            .parse()
            .map_err(|_| format!("{ctx}: `{val}` is not an intensity"))?;
        if !v.is_finite() || !(0.0..=1.0).contains(&v) {
            return Err(format!(
                "{ctx}: intensity {val} for `{kind}` must be in [0, 1]"
            ));
        }
        if mix.iter().any(|(k, _)| k == kind) {
            return Err(format!("{ctx}: duplicate fault kind `{kind}`"));
        }
        mix.push((kind.to_string(), v));
    }
    Ok(mix)
}

/// Parses `xp` arguments (without the program name).
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        scale: Scale::Full,
        targets: Vec::new(),
        jobs: accturbo_runner::default_threads(),
        seeds: Vec::new(),
        faults: Vec::new(),
        outputs: Outputs::default(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(path) = cli.outputs.slot(arg) {
            let val = it
                .next()
                .ok_or_else(|| format!("{arg} requires a PATH argument"))?;
            *path = Some(val.clone());
            continue;
        }
        match arg.as_str() {
            "--quick" | "--smoke" => cli.scale = Scale::Quick,
            "--faults" => {
                let raw = it
                    .next()
                    .ok_or_else(|| "--faults requires a KIND:VAL,... fault mix".to_string())?;
                cli.faults = parse_fault_mix("--faults", raw, ',')?;
            }
            "--jobs" => {
                let raw = it
                    .next()
                    .ok_or_else(|| "--jobs requires a thread count".to_string())?;
                let n: usize = raw
                    .parse()
                    .map_err(|_| format!("--jobs: `{raw}` is not a thread count"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                cli.jobs = n;
            }
            "--seeds" => {
                let raw = it
                    .next()
                    .ok_or_else(|| "--seeds requires a comma-separated seed list".to_string())?;
                let mut seeds = Vec::new();
                for part in raw.split(',') {
                    let part = part.trim();
                    if part.is_empty() {
                        return Err(format!("--seeds: empty entry in `{raw}`"));
                    }
                    let seed: u64 = part
                        .parse()
                        .map_err(|_| format!("--seeds: `{part}` is not a u64 seed"))?;
                    if seeds.contains(&seed) {
                        return Err(format!("--seeds: duplicate seed {seed}"));
                    }
                    seeds.push(seed);
                }
                cli.seeds = seeds;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown option `{flag}`"));
            }
            "all" => {
                for spec in FIGURES {
                    if !cli.targets.iter().any(|t| t.name == spec.name) {
                        cli.targets.push(spec);
                    }
                }
            }
            name => {
                let spec = figure_spec(name).ok_or_else(|| {
                    format!("unknown figure `{name}`; valid names: {}", valid_names())
                })?;
                if !cli.targets.iter().any(|t| t.name == spec.name) {
                    cli.targets.push(spec);
                }
            }
        }
    }
    if cli.targets.is_empty() {
        cli.targets = FIGURES.iter().collect();
    }
    Ok(cli)
}

/// One finished figure job's timing, for `--trace` job spans and the
/// speedup bench.
#[derive(Debug, Clone)]
pub struct JobSpan {
    /// The figure's registry name.
    pub figure: &'static str,
    /// The seed the figure ran at.
    pub seed: u64,
    /// The worker thread (0-based) that ran the job.
    pub worker: usize,
    /// Job start, measured from the pool's launch.
    pub started_at: Duration,
    /// Wall-clock time the job took.
    pub elapsed: Duration,
}

/// Runs the parsed figure selection on `cli.jobs` workers, handing each
/// output block to `sink` **in deterministic order** (figures in target
/// order, seeds in `--seeds` order, aggregate after a figure's last
/// seed). Returns the per-job wall-clock spans.
pub fn run_figures(cli: &Cli, mut sink: impl FnMut(&str)) -> Vec<JobSpan> {
    // A custom fault mix bypasses the registry fan-out: the registry's
    // `fn(Scale, u64)` entry points cannot carry the mix, and a faulted
    // run answers one question (baseline vs this mix), not twelve.
    if !cli.faults.is_empty() {
        let seed = cli
            .seeds
            .first()
            .copied()
            .unwrap_or(crate::robustness::DEFAULT_SEED);
        let fig = crate::robustness::figure_with(cli.scale, seed, &cli.faults);
        let mut block = String::new();
        let _ = writeln!(
            block,
            "==================== robustness (custom faults, seed {seed}) ===================="
        );
        let _ = writeln!(block, "{}", fig.rendered);
        sink(&block);
        return Vec::new();
    }
    // The job list: figure-major, seed-minor, so a figure's seeds are
    // contiguous in delivery order and the aggregate can flush as soon
    // as its last seed lands.
    let seeded = !cli.seeds.is_empty();
    let per_figure = cli.seeds.len().max(1);
    let jobs: Vec<(&'static FigureSpec, u64)> = cli
        .targets
        .iter()
        .flat_map(|spec| {
            if seeded {
                cli.seeds.iter().map(|&s| (*spec, s)).collect::<Vec<_>>()
            } else {
                vec![(*spec, spec.default_seed)]
            }
        })
        .collect();

    let mut spans = Vec::with_capacity(jobs.len());
    let mut pending = Vec::with_capacity(per_figure);
    accturbo_runner::run_streaming(
        cli.jobs,
        jobs.len(),
        |i| {
            let (spec, seed) = jobs[i];
            (spec.run)(cli.scale, seed)
        },
        |r| {
            let (spec, seed) = jobs[r.index];
            spans.push(JobSpan {
                figure: spec.name,
                seed,
                worker: r.worker,
                started_at: r.started_at,
                elapsed: r.elapsed,
            });
            let mut block = String::new();
            if seeded {
                let _ = writeln!(
                    block,
                    "==================== {} (seed {seed}) ====================",
                    spec.name
                );
            } else {
                let _ = writeln!(
                    block,
                    "==================== {} ====================",
                    spec.name
                );
            }
            let _ = writeln!(block, "{}", r.output.rendered);
            if seeded {
                pending.push(r.output);
                if pending.len() == per_figure {
                    if per_figure > 1 {
                        let _ = writeln!(
                            block,
                            "==================== {} aggregate over {} seeds ====================",
                            spec.name, per_figure
                        );
                        let results: Vec<_> =
                            pending.iter().map(|f: &crate::Figure| &f.result).collect();
                        let _ = writeln!(block, "{}", aggregate_csv(&results).trim_end());
                        let _ = writeln!(block);
                    }
                    pending.clear();
                }
            }
            sink(&block);
        },
    );
    spans
}

// ---------------------------------------------------------------------------
// `xp run` — one declarative scenario
// ---------------------------------------------------------------------------

/// The parsed `xp run` invocation: a full scenario plus output shape.
#[derive(Debug)]
pub struct RunCmd {
    /// The scenario to execute.
    pub spec: ScenarioSpec,
    /// `--csv`: emit only the per-second panel, no header or summary.
    pub csv: bool,
    /// The run's exports.
    pub outputs: Outputs,
}

/// Parses a bandwidth value: plain bps, or with a `k`/`m`/`g` suffix
/// (`10m` = 10 Mbps, `2.5g` = 2.5 Gbps).
fn parse_link(v: &str) -> Result<u64, String> {
    crate::spec::parse_bandwidth(v).map_err(|e| format!("xp run: {e}"))
}

/// Parses a control period: `250ms`, `1s`, or bare seconds (`0.25`).
fn parse_period(v: &str) -> Result<SimDuration, String> {
    let (num, div) = if let Some(ms) = v.strip_suffix("ms") {
        (ms, 1000.0)
    } else {
        (v.strip_suffix('s').unwrap_or(v), 1.0)
    };
    let x: f64 = num
        .parse()
        .map_err(|_| format!("xp run: `{v}` is not a period (e.g. 250ms, 1s)"))?;
    if !x.is_finite() || x <= 0.0 {
        return Err(format!("xp run: period `{v}` must be positive"));
    }
    let period = SimDuration::from_secs_f64(x / div);
    if period.is_zero() {
        return Err(format!("xp run: period `{v}` rounds to 0 ns"));
    }
    Ok(period)
}

/// Parses `xp run` arguments: `key=value` pairs (comma- or
/// space-separated) plus the `--csv` / `--quick` flags and the
/// path-valued [`Outputs`] flags.
pub fn parse_run(args: &[String]) -> Result<RunCmd, String> {
    let mut workload: Option<WorkloadSpec> = None;
    let mut defense = DefenseSpec::Fifo;
    let mut csv = false;
    let mut quick = false;
    let mut secs: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut link: Option<u64> = None;
    let mut period: Option<SimDuration> = None;
    let mut topology: Option<TopologySpec> = None;
    let mut shards: Option<usize> = None;
    let mut fault_mix: Vec<(String, f64)> = Vec::new();
    let mut outputs = Outputs::default();

    // Path-valued flags take their value from the *next whole argument*
    // and must be peeled off before the key=value tokenizer splits
    // everything on commas and spaces (paths may contain either).
    let mut rest: Vec<&String> = Vec::with_capacity(args.len());
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if let Some(path) = outputs.slot(flag) {
            let val = args
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("xp run: {flag} requires a PATH argument"))?;
            *path = Some(val.clone());
            i += 2;
        } else {
            rest.push(&args[i]);
            i += 1;
        }
    }

    let mut seen_keys: Vec<String> = Vec::new();
    for token in rest
        .iter()
        .flat_map(|a| a.split([',', ' ']))
        .filter(|t| !t.is_empty())
    {
        match token {
            "--csv" => csv = true,
            "--quick" | "--smoke" => quick = true,
            flag if flag.starts_with("--") => {
                return Err(format!("xp run: unknown option `{flag}`"));
            }
            pair => {
                let (key, val) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("xp run: expected `key=value`, got `{pair}`"))?;
                // A repeated key is almost always a typo'd scenario, and
                // silently letting the last mention win would run the
                // wrong experiment — reject instead.
                if seen_keys.iter().any(|k| k == key) {
                    return Err(format!("xp run: duplicate key `{key}`"));
                }
                if !RUN_KEYS.iter().any(|(k, _)| *k == key) {
                    let valid: Vec<&str> = RUN_KEYS.iter().map(|(k, _)| *k).collect();
                    return Err(format!(
                        "xp run: unknown key `{key}`; valid keys: {}",
                        valid.join(", ")
                    ));
                }
                seen_keys.push(key.to_string());
                match key {
                    "workload" => {
                        workload = Some(val.parse().map_err(|e| format!("xp run: workload: {e}"))?)
                    }
                    "defense" => {
                        defense = val.parse().map_err(|e| format!("xp run: defense: {e}"))?
                    }
                    "secs" => {
                        let n: u64 = val.parse().map_err(|_| {
                            format!("xp run: `{val}` is not a run length in seconds")
                        })?;
                        if n == 0 {
                            return Err("xp run: secs must be at least 1".to_string());
                        }
                        secs = Some(n);
                    }
                    "seed" => {
                        seed = Some(
                            val.parse()
                                .map_err(|_| format!("xp run: `{val}` is not a u64 seed"))?,
                        );
                    }
                    "link" => link = Some(parse_link(val)?),
                    "period" => period = Some(parse_period(val)?),
                    "topology" => {
                        topology = Some(val.parse().map_err(|e| format!("xp run: topology: {e}"))?)
                    }
                    "shards" => {
                        let n: usize = val
                            .parse()
                            .map_err(|_| format!("xp run: `{val}` is not a shard count"))?;
                        if n == 0 {
                            return Err("xp run: shards must be at least 1".to_string());
                        }
                        shards = Some(n);
                    }
                    "faults" => fault_mix = parse_fault_mix("xp run: faults", val, '+')?,
                    other => unreachable!("`{other}` is in RUN_KEYS but has no arm"),
                }
            }
        }
    }
    let workload = workload
        .ok_or_else(|| "xp run: `workload=` is required (e.g. workload=fig2)".to_string())?;
    let quick_secs = workload.default_secs(Scale::Quick);
    let mut spec = ScenarioSpec::new(workload, defense);
    if quick {
        spec = spec.with_secs(quick_secs);
    }
    // A topology stretches the path (propagation RTT, pushback
    // convergence); inheriting the single-switch figure default would
    // silently cut the interesting tail off deep topologies. Pad the
    // default — an explicit secs= below still wins.
    if let Some(t) = &topology {
        let padded = spec.secs + t.extra_secs();
        spec = spec.with_secs(padded);
    }
    if let Some(s) = secs {
        spec = spec.with_secs(s);
    }
    if let Some(s) = seed {
        spec = spec.with_seed(s);
    }
    if let Some(l) = link {
        spec = spec.with_link(l);
    }
    if let Some(p) = period {
        spec = spec.with_period(p);
    }
    if let Some(t) = topology {
        spec = spec.with_topology(t);
    }
    if let Some(n) = shards {
        spec = spec.with_shards(n);
    }
    if !fault_mix.is_empty() {
        let fault_seed = spec.seed;
        spec = spec.with_faults(crate::robustness::config_from_mix(&fault_mix, fault_seed));
    }
    Ok(RunCmd { spec, csv, outputs })
}

/// Default capacities for CLI-constructed telemetry: the reservoir keeps
/// this many flows, the flight recorder this many events with this much
/// post-trigger aftermath. Fixed (not flags) so two runs of the same
/// scenario always sample identically.
const SAMPLER_FLOWS: usize = 4096;
const RECORDER_EVENTS: usize = 512;
const RECORDER_POST: usize = 64;

/// Builds the [`Telemetry`] bundle for the given output paths, or `None`
/// when no path was requested. The sampler is seeded from the scenario
/// seed so dataset exports are reproducible.
pub fn build_telemetry(outputs: &Outputs, seed: u64) -> Result<Option<Telemetry>, String> {
    if !outputs.any() {
        return Ok(None);
    }
    let mut t = Telemetry::new();
    if let Some(path) = &outputs.trace {
        let s = JsonlSink::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
        t = t.with_trace(Box::new(s));
    }
    if let Some(path) = &outputs.sink {
        let s = JsonlSink::create(path).map_err(|e| format!("--sink {path}: {e}"))?;
        t = t.with_sink(Box::new(s));
    }
    if let Some(path) = &outputs.dataset {
        let d = DatasetSink::create(path).map_err(|e| format!("--dataset {path}: {e}"))?;
        t = t
            .with_flow_sampler(FlowSampler::new(SAMPLER_FLOWS, seed))
            .with_dataset(d);
    }
    if let Some(path) = &outputs.flight_recorder {
        let s = JsonlSink::create(path).map_err(|e| format!("--flight-recorder {path}: {e}"))?;
        t = t.with_recorder(FlightRecorder::new(
            RECORDER_EVENTS,
            RECORDER_POST,
            Box::new(s),
        ));
    }
    Ok(Some(t))
}

/// Executes a parsed `xp run` and renders its report: the scenario
/// echo, the workload's natural per-second panel (bandwidth shares for
/// the Fig. 2/3 family, attack/benign throughput otherwise), and a
/// summary whose share/droprate means match the corresponding figure's
/// golden summary entries. `--csv` keeps only the panel. When any
/// [`Outputs`] path was given, the run carries a [`Telemetry`] bundle
/// and the summary gains a `telemetry.*` section.
pub fn render_run(cmd: &RunCmd) -> Result<String, String> {
    use crate::common::{share_panel, summary_means, throughput_panel};
    use accturbo_telemetry::f;

    let spec = &cmd.spec;
    let mut telemetry = build_telemetry(&cmd.outputs, spec.seed)?;
    let outcome = spec.execute_streamed(telemetry.as_mut());
    if let Some(t) = &telemetry {
        cmd.outputs.check_written(t)?;
    }
    let res = &outcome.result;
    let secs = spec.secs;
    let mut out = String::new();
    if !cmd.csv {
        let _ = writeln!(out, "# scenario {spec}");
    }
    let share_classes = spec.workload.share_classes();
    if share_classes.is_some() {
        share_panel(
            &mut out,
            "Per-second bandwidth shares",
            res,
            spec.link_bps,
            secs,
            true,
        );
    } else {
        throughput_panel(&mut out, "Per-second throughput", res, secs);
    }
    if cmd.csv {
        return Ok(out);
    }

    let _ = writeln!(out, "# summary");
    let shares = share_classes.as_deref().map(|c| (spec.link_bps, c));
    for (key, value) in summary_means(res, shares, secs) {
        let _ = writeln!(out, "{key},{}", f(value));
    }
    let _ = writeln!(out, "benign_drop_pct,{}", f(res.stats.benign_drop_pct()));
    let _ = writeln!(out, "attack_drop_pct,{}", f(res.stats.attack_drop_pct()));
    let _ = writeln!(out, "arrivals,{}", res.arrivals);
    let _ = writeln!(out, "delivered,{}", res.departures);
    let _ = writeln!(out, "dropped,{}", res.drops);
    let _ = writeln!(out, "queued,{}", outcome.backlog_pkts);
    let conserved = res.arrivals == res.departures + res.drops + outcome.backlog_pkts as u64;
    let _ = writeln!(
        out,
        "conservation,{}",
        if conserved { "ok" } else { "VIOLATED" }
    );
    if let Some(t) = &spec.topology {
        let _ = writeln!(out, "topology.hops,{}", outcome.hops);
        if t.pushback {
            let leaves = t.build(spec.link_bps).leaves().to_vec();
            let converge = leaves
                .iter()
                .filter_map(|&i| outcome.node_first_limit[i])
                .map(|at| at.as_secs_f64())
                .fold(None, |acc: Option<f64>, s| {
                    Some(acc.map_or(s, |a| a.max(s)))
                });
            let _ = writeln!(out, "pushback.installs,{}", outcome.pushback_installs);
            let _ = writeln!(
                out,
                "pushback.converge_s,{}",
                converge.map_or_else(|| "-1".to_string(), f)
            );
        }
    }
    if let Some(fs) = &outcome.fault_stats {
        let _ = writeln!(out, "faults.ctrl_dropped,{}", fs.ctrl_dropped);
        let _ = writeln!(out, "faults.ctrl_delayed,{}", fs.ctrl_delayed);
        let _ = writeln!(out, "faults.stale_served,{}", fs.stale_served);
        let _ = writeln!(out, "faults.pkt_dropped,{}", fs.pkt_dropped);
        let _ = writeln!(out, "faults.pkt_reordered,{}", fs.pkt_reordered);
        let _ = writeln!(out, "faults.flap_windows,{}", fs.flap_windows);
        let _ = writeln!(out, "degradation.missed_ticks,{}", outcome.missed_ticks);
        let _ = writeln!(out, "degradation.stale_ticks,{}", outcome.stale_ticks);
        let _ = writeln!(out, "degradation.fallbacks,{}", outcome.fallbacks);
    }
    if let Some(tel) = &telemetry {
        let outputs = &cmd.outputs;
        let _ = writeln!(out, "telemetry.periods,{}", tel.periods());
        if outputs.trace.is_some() {
            let _ = writeln!(out, "telemetry.trace_lines,{}", tel.trace_lines());
        }
        if outputs.sink.is_some() {
            let _ = writeln!(out, "telemetry.sink_lines,{}", tel.sink_lines());
        }
        if outputs.dataset.is_some() {
            let _ = writeln!(out, "telemetry.flows_seen,{}", tel.flows_seen());
            let _ = writeln!(out, "telemetry.dataset_rows,{}", tel.dataset_rows());
        }
        if outputs.flight_recorder.is_some() {
            let _ = writeln!(out, "telemetry.flight_windows,{}", tel.recorder_windows());
        }
        if tel.pulse_onsets() > 0 {
            let _ = writeln!(out, "telemetry.pulse_onsets,{}", tel.pulse_onsets());
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// `xp search` — adversarial worst-case search
// ---------------------------------------------------------------------------

/// The parsed `xp search` invocation: one defense, a search budget, and
/// where the found corpus goes.
#[derive(Debug)]
pub struct SearchCmd {
    /// The defense to attack.
    pub defense: DefenseSpec,
    /// Scenario evaluations to spend (`--budget N`).
    pub budget: usize,
    /// Search seed (`--seed N`).
    pub seed: u64,
    /// Worker threads for candidate evaluation (`--jobs N`; never
    /// changes the result, only the wall clock).
    pub jobs: usize,
    /// Frontier size: distinct top attacks kept (`--top N`).
    pub top: usize,
    /// Scenario length override (`secs=N`).
    pub secs: Option<u64>,
    /// Bottleneck override (`link=10m`).
    pub link_bps: Option<u64>,
    /// `--out PATH`: write the corpus file here instead of inlining it
    /// in the report.
    pub out: Option<String>,
    /// `--quick`: search in the short (corpus/CI) scenario frame.
    pub quick: bool,
}

/// Default `xp search` budget: enough for the annealing phase to engage
/// without making an interactive invocation minutes long.
const SEARCH_DEFAULT_BUDGET: usize = 32;
/// Budget ceiling — a typo'd `--budget 5000000` should fail fast, not
/// simulate for a week.
const SEARCH_MAX_BUDGET: usize = 100_000;

/// Parses `xp search` arguments: `defense=SPEC` (plus optional `secs=` /
/// `link=` overrides) and the `--budget` / `--seed` / `--jobs` / `--top`
/// / `--out PATH` / `--quick` flags.
pub fn parse_search(args: &[String]) -> Result<SearchCmd, String> {
    let mut defense: Option<DefenseSpec> = None;
    let mut budget = SEARCH_DEFAULT_BUDGET;
    let mut seed = crate::worstcase::DEFAULT_SEED;
    let mut jobs = accturbo_runner::default_threads();
    let mut top = 10;
    let mut secs: Option<u64> = None;
    let mut link_bps: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut quick = false;

    // `--out` takes a whole-argument PATH (it may contain commas or
    // spaces); peel it off before tokenizing, exactly as `xp run` does
    // for its path flags.
    let mut rest: Vec<&String> = Vec::with_capacity(args.len());
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--out" {
            let val = args
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| "xp search: --out requires a PATH argument".to_string())?
                .clone();
            out = Some(val);
            i += 2;
        } else {
            rest.push(&args[i]);
            i += 1;
        }
    }

    let tokens: Vec<&str> = rest
        .iter()
        .flat_map(|a| a.split([',', ' ']))
        .filter(|t| !t.is_empty())
        .collect();
    let mut seen_keys: Vec<String> = Vec::new();
    let mut t = 0;
    while t < tokens.len() {
        let token = tokens[t];
        t += 1;
        let mut value_of = |flag: &str| -> Result<&str, String> {
            let v = tokens
                .get(t)
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("xp search: {flag} requires a value"))?;
            t += 1;
            Ok(v)
        };
        match token {
            "--quick" | "--smoke" => quick = true,
            "--budget" => {
                let raw = value_of("--budget")?;
                let n: usize = raw
                    .parse()
                    .map_err(|_| format!("xp search: `{raw}` is not a budget"))?;
                if !(2..=SEARCH_MAX_BUDGET).contains(&n) {
                    return Err(format!(
                        "xp search: budget must be in 2..={SEARCH_MAX_BUDGET}, got {n}"
                    ));
                }
                budget = n;
            }
            "--seed" => {
                let raw = value_of("--seed")?;
                seed = raw
                    .parse()
                    .map_err(|_| format!("xp search: `{raw}` is not a u64 seed"))?;
            }
            "--jobs" => {
                let raw = value_of("--jobs")?;
                let n: usize = raw
                    .parse()
                    .map_err(|_| format!("xp search: `{raw}` is not a thread count"))?;
                if n == 0 {
                    return Err("xp search: --jobs must be at least 1".to_string());
                }
                jobs = n;
            }
            "--top" => {
                let raw = value_of("--top")?;
                let n: usize = raw
                    .parse()
                    .map_err(|_| format!("xp search: `{raw}` is not a frontier size"))?;
                if n == 0 {
                    return Err("xp search: --top must be at least 1".to_string());
                }
                top = n;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("xp search: unknown option `{flag}`"));
            }
            pair => {
                let (key, val) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("xp search: expected `key=value`, got `{pair}`"))?;
                if seen_keys.iter().any(|k| k == key) {
                    return Err(format!("xp search: duplicate key `{key}`"));
                }
                seen_keys.push(key.to_string());
                match key {
                    "defense" => {
                        defense = Some(
                            val.parse()
                                .map_err(|e| format!("xp search: defense: {e}"))?,
                        )
                    }
                    "secs" => {
                        let n: u64 = val.parse().map_err(|_| {
                            format!("xp search: `{val}` is not a run length in seconds")
                        })?;
                        if n == 0 {
                            return Err("xp search: secs must be at least 1".to_string());
                        }
                        secs = Some(n);
                    }
                    "link" => {
                        link_bps = Some(
                            crate::spec::parse_bandwidth(val)
                                .map_err(|e| format!("xp search: {e}"))?,
                        )
                    }
                    other => {
                        return Err(format!(
                            "xp search: unknown key `{other}`; valid keys: defense, secs, link"
                        ));
                    }
                }
            }
        }
    }
    let defense = defense
        .ok_or_else(|| "xp search: `defense=` is required (e.g. defense=accturbo)".to_string())?;
    Ok(SearchCmd {
        defense,
        budget,
        seed,
        jobs,
        top,
        secs,
        link_bps,
        out,
        quick,
    })
}

/// Executes a parsed `xp search` and renders its report: the search
/// frame, the best-damage trajectory, the frontier CSV, a ready-to-paste
/// `xp run` replay line for the worst attack, and the corpus itself
/// (written to `--out`, or inlined). The report depends only on the
/// parsed command, never on `--jobs`.
pub fn render_search(cmd: &SearchCmd) -> Result<String, String> {
    use accturbo_telemetry::f;

    let scale = if cmd.quick { Scale::Quick } else { Scale::Full };
    let mut frame = crate::worstcase::SearchFrame::at(scale, cmd.seed);
    if let Some(s) = cmd.secs {
        frame.secs = s;
    }
    if let Some(l) = cmd.link_bps {
        frame.link_bps = l;
    }
    let (outcome, corpus) =
        crate::worstcase::run_search(&cmd.defense, frame, cmd.budget, cmd.jobs, cmd.top);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# search defense={} budget={} seed={} secs={} link={} top={}",
        corpus.defense, cmd.budget, cmd.seed, frame.secs, frame.link_bps, cmd.top
    );
    let trajectory: Vec<String> = outcome.best_trajectory.iter().map(|d| f(*d)).collect();
    let _ = writeln!(out, "# best damage per round (explore, then annealing)");
    let _ = writeln!(out, "trajectory,{}", trajectory.join(","));
    let _ = writeln!(
        out,
        "rank,damage,benign_drop_pct,attack_drop_pct,benign_mbps,workload"
    );
    for (i, e) in corpus.entries.iter().enumerate() {
        let m = &e.metrics;
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            i + 1,
            f(m.damage),
            f(m.benign_drop_pct),
            f(m.attack_drop_pct),
            f(m.benign_mbps),
            e.workload
        );
    }
    let best = &corpus.entries[0];
    let _ = writeln!(
        out,
        "# replay the worst case:\n\
         #   xp run workload={} defense={} link={} secs={} seed={}",
        best.workload, corpus.defense, frame.link_bps, frame.secs, frame.seed
    );
    match &cmd.out {
        Some(path) => {
            std::fs::write(path, corpus.to_text())
                .map_err(|e| format!("xp search: --out {path}: {e}"))?;
            let _ = writeln!(out, "corpus,{path}");
            let _ = writeln!(out, "corpus_entries,{}", corpus.entries.len());
        }
        None => {
            let _ = writeln!(out, "# corpus (re-run with --out PATH to write a file)");
            out.push_str(&corpus.to_text());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_run_everything_at_full_scale() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.scale, Scale::Full);
        assert_eq!(cli.targets.len(), FIGURES.len());
        assert!(cli.seeds.is_empty());
        assert!(cli.jobs >= 1);
        assert!(!cli.outputs.any());
    }

    #[test]
    fn quick_and_explicit_targets_parse() {
        let cli = parse(&args(&["--quick", "fig3", "fig2"])).unwrap();
        assert_eq!(cli.scale, Scale::Quick);
        let names: Vec<&str> = cli.targets.iter().map(|t| t.name).collect();
        assert_eq!(names, vec!["fig3", "fig2"], "first-mention order");
    }

    #[test]
    fn duplicate_targets_are_deduped_preserving_order() {
        let cli = parse(&args(&["fig3", "fig2", "fig3", "fig2"])).unwrap();
        let names: Vec<&str> = cli.targets.iter().map(|t| t.name).collect();
        assert_eq!(names, vec!["fig3", "fig2"]);
    }

    #[test]
    fn all_expands_and_dedupes_against_explicit_names() {
        let cli = parse(&args(&["fig3", "all"])).unwrap();
        assert_eq!(cli.targets.len(), FIGURES.len());
        assert_eq!(
            cli.targets[0].name, "fig3",
            "explicit mention keeps its slot"
        );
    }

    #[test]
    fn unknown_figures_are_rejected_before_running() {
        let err = parse(&args(&["fig2", "fig99"])).unwrap_err();
        assert!(err.contains("unknown figure `fig99`"), "{err}");
        assert!(err.contains("valid names"), "{err}");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = parse(&args(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
    }

    #[test]
    fn jobs_rejects_zero_and_garbage_and_missing_value() {
        assert!(parse(&args(&["--jobs", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&args(&["--jobs", "many"]))
            .unwrap_err()
            .contains("not a thread count"));
        assert!(parse(&args(&["--jobs"]))
            .unwrap_err()
            .contains("requires a thread count"));
        assert_eq!(parse(&args(&["--jobs", "4"])).unwrap().jobs, 4);
    }

    #[test]
    fn seeds_parse_and_reject_malformed_lists() {
        let cli = parse(&args(&["--seeds", "1,2,33"])).unwrap();
        assert_eq!(cli.seeds, vec![1, 2, 33]);
        assert!(parse(&args(&["--seeds"]))
            .unwrap_err()
            .contains("requires a comma-separated"));
        assert!(parse(&args(&["--seeds", "1,,2"]))
            .unwrap_err()
            .contains("empty entry"));
        assert!(parse(&args(&["--seeds", "1,x"]))
            .unwrap_err()
            .contains("not a u64 seed"));
        assert!(parse(&args(&["--seeds", "7,7"]))
            .unwrap_err()
            .contains("duplicate seed 7"));
        assert!(parse(&args(&["--seeds", "-3"]))
            .unwrap_err()
            .contains("not a u64 seed"));
    }

    #[test]
    fn output_flags_require_paths() {
        for flag in ["--trace", "--sink", "--dataset", "--flight-recorder"] {
            assert!(parse(&args(&[flag])).unwrap_err().contains(flag));
        }
        let cli = parse(&args(&["--trace", "t.jsonl", "--sink", "s.jsonl"])).unwrap();
        assert_eq!(cli.outputs.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(cli.outputs.sink.as_deref(), Some("s.jsonl"));
        assert!(parse(&args(&["--metrics", "m.jsonl"]))
            .unwrap_err()
            .contains("unknown option `--metrics`"));
    }

    #[test]
    fn smoke_is_an_alias_for_quick() {
        let cli = parse(&args(&["--smoke", "robustness"])).unwrap();
        assert_eq!(cli.scale, Scale::Quick);
        assert_eq!(cli.targets[0].name, "robustness");
    }

    #[test]
    fn faults_parse_a_valid_mix() {
        let cli = parse(&args(&["--faults", "ctrl_drop:0.5,link_flap:1"])).unwrap();
        assert_eq!(
            cli.faults,
            vec![
                ("ctrl_drop".to_string(), 0.5),
                ("link_flap".to_string(), 1.0)
            ]
        );
    }

    #[test]
    fn faults_reject_unknown_kinds() {
        let err = parse(&args(&["--faults", "frobnicate:0.5"])).unwrap_err();
        assert!(err.contains("unknown fault kind `frobnicate`"), "{err}");
        assert!(err.contains("valid kinds"), "{err}");
    }

    #[test]
    fn faults_reject_out_of_range_and_nan_intensities() {
        assert!(parse(&args(&["--faults", "ctrl_drop:-0.1"]))
            .unwrap_err()
            .contains("must be in [0, 1]"));
        assert!(parse(&args(&["--faults", "ctrl_drop:1.5"]))
            .unwrap_err()
            .contains("must be in [0, 1]"));
        assert!(parse(&args(&["--faults", "ctrl_drop:NaN"]))
            .unwrap_err()
            .contains("must be in [0, 1]"));
        assert!(parse(&args(&["--faults", "ctrl_drop:lots"]))
            .unwrap_err()
            .contains("not an intensity"));
    }

    #[test]
    fn faults_reject_duplicates_and_malformed_entries() {
        assert!(parse(&args(&["--faults", "stale:0.2,stale:0.3"]))
            .unwrap_err()
            .contains("duplicate fault kind `stale`"));
        assert!(parse(&args(&["--faults", "ctrl_drop"]))
            .unwrap_err()
            .contains("not KIND:VAL"));
        assert!(parse(&args(&["--faults", "ctrl_drop:0.1,,stale:0.2"]))
            .unwrap_err()
            .contains("empty entry"));
        assert!(parse(&args(&["--faults"]))
            .unwrap_err()
            .contains("requires a KIND:VAL"));
    }

    #[test]
    fn a_fault_mix_short_circuits_into_the_robustness_scenario() {
        let mut cli = parse(&args(&["--quick", "--faults", "pkt_drop:0.5"])).unwrap();
        cli.jobs = 1;
        let mut out = String::new();
        let spans = run_figures(&cli, |block| out.push_str(block));
        assert!(spans.is_empty(), "fault runs bypass the figure fan-out");
        assert!(out.contains("robustness (custom faults"), "{out}");
        assert!(out.contains("# fault pkt_drop = 0.50"), "{out}");
        // Two data rows: the fault-free baseline and the faulted cell.
        assert!(out.contains("\n250,0.00,"), "{out}");
        assert!(out.contains("\n250,1.00,"), "{out}");
    }

    #[test]
    fn run_figures_emits_one_block_per_target_in_order() {
        let mut cli = parse(&args(&["--quick", "pushback", "table3"])).unwrap();
        cli.jobs = 2;
        let mut out = String::new();
        let spans = run_figures(&cli, |block| out.push_str(block));
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].figure, "pushback");
        assert_eq!(spans[1].figure, "table3");
        let pb = out.find("==================== pushback ====================");
        let t3 = out.find("==================== table3 ====================");
        assert!(pb.is_some() && t3.is_some(), "{out}");
        assert!(pb < t3, "target order must be preserved");
    }

    #[test]
    fn seeded_runs_emit_per_seed_blocks_and_an_aggregate() {
        let mut cli = parse(&args(&["--quick", "pushback", "--seeds", "1,2"])).unwrap();
        cli.jobs = 1;
        let mut out = String::new();
        let spans = run_figures(&cli, |block| out.push_str(block));
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].seed, spans[1].seed), (1, 2));
        assert!(out.contains("pushback (seed 1)"), "{out}");
        assert!(out.contains("pushback (seed 2)"), "{out}");
        assert!(out.contains("pushback aggregate over 2 seeds"), "{out}");
        assert!(out.contains("field,mean,min,max"), "{out}");
    }

    // ----- `xp run` parsing -----

    #[test]
    fn run_requires_a_workload() {
        let err = parse_run(&args(&["defense=fifo"])).unwrap_err();
        assert!(err.contains("`workload=` is required"), "{err}");
    }

    #[test]
    fn run_applies_workload_defaults() {
        let cmd = parse_run(&args(&["workload=fig2", "defense=accturbo"])).unwrap();
        assert_eq!(cmd.spec.link_bps, 10_000_000);
        assert_eq!(cmd.spec.seed, 2022);
        assert!(matches!(cmd.spec.defense, DefenseSpec::AccTurbo(_)));
        assert!(!cmd.csv);
    }

    #[test]
    fn run_parses_overrides_and_suffixes() {
        let cmd = parse_run(&args(&[
            "workload=flood:single,defense=red",
            "link=2.5g",
            "secs=12",
            "seed=7",
            "period=50ms",
            "--csv",
        ]))
        .unwrap();
        assert_eq!(cmd.spec.link_bps, 2_500_000_000);
        assert_eq!(cmd.spec.secs, 12);
        assert_eq!(cmd.spec.seed, 7);
        assert_eq!(cmd.spec.control_period, Some(SimDuration::from_millis(50)));
        assert!(cmd.csv);
    }

    #[test]
    fn run_quick_rescales_then_explicit_secs_wins() {
        let quick = parse_run(&args(&["workload=fig2", "--quick"])).unwrap();
        assert_eq!(quick.spec.secs, 25);
        let explicit = parse_run(&args(&["workload=fig2", "--quick", "secs=8"])).unwrap();
        assert_eq!(explicit.spec.secs, 8);
    }

    /// `topology=` must make the default run length topology-aware (the
    /// added path RTT / pushback convergence would otherwise be silently
    /// cut off), while an explicit `secs=` still wins and `line:1` adds
    /// nothing.
    #[test]
    fn run_topology_defaults_are_topology_aware() {
        let base = parse_run(&args(&["workload=fig2"])).unwrap();
        let line1 = parse_run(&args(&["workload=fig2", "topology=line:1"])).unwrap();
        assert_eq!(
            line1.spec.secs, base.spec.secs,
            "line:1 must not pad the default"
        );

        // 4 extra hops at 0.5 s each: +2·4·0.5 = 4 s of RTT, plus
        // 5 levels × 1 s of pushback refresh.
        let deep = parse_run(&args(&[
            "workload=fig2",
            "topology=line:5:delay=0.5:pushback=on:refresh=1",
        ]))
        .unwrap();
        assert_eq!(deep.spec.secs, base.spec.secs + 9);

        let explicit = parse_run(&args(&[
            "workload=fig2",
            "topology=line:5:delay=0.5:pushback=on:refresh=1",
            "secs=7",
        ]))
        .unwrap();
        assert_eq!(explicit.spec.secs, 7, "explicit secs= always wins");

        let quick = parse_run(&args(&[
            "workload=fig2",
            "--quick",
            "topology=line:5:delay=0.5:pushback=on:refresh=1",
        ]))
        .unwrap();
        assert_eq!(quick.spec.secs, 25 + 9, "padding applies on top of --quick");
    }

    #[test]
    fn run_topology_rejects_unsupported_combinations() {
        // Every tree runs on the engine's one loop, so faults and the
        // telemetry sinks combine with any topology.
        for extra in [
            vec!["topology=star:4", "faults=ctrl_drop:0.5"],
            vec!["topology=star:4", "--sink", "/tmp/x.jsonl"],
            vec!["topology=line:1:pushback=on", "--sink", "/tmp/x.jsonl"],
            vec![
                "topology=fattree:2:pushback=on",
                "faults=link_flap:0.1",
                "--dataset",
                "/tmp/x.csv",
            ],
        ] {
            let argv: Vec<&str> = ["workload=fig2"].into_iter().chain(extra).collect();
            let ok = parse_run(&args(&argv));
            assert!(ok.is_ok(), "{argv:?}: {ok:?}");
        }

        let err = parse_run(&args(&["workload=fig2", "topology=ring:4"])).unwrap_err();
        assert!(err.contains("unknown topology"), "{err}");

        let err = parse_run(&args(&["workload=fig2", "topology=star:4:attackers=9"])).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn run_parses_and_polices_shards() {
        let cmd = parse_run(&args(&["workload=fig2", "shards=8"])).unwrap();
        assert_eq!(cmd.spec.shards, 8);

        let cmd = parse_run(&args(&["workload=fig2", "shards=1"])).unwrap();
        assert_eq!(cmd.spec.shards, 1, "shards=1 is the serial engine");

        let err = parse_run(&args(&["workload=fig2", "shards=0"])).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");

        // One producer thread whatever the count, so there is no upper
        // bound, and the threaded feed combines with every other knob.
        let cmd = parse_run(&args(&["workload=fig2", "shards=100000000"])).unwrap();
        assert_eq!(cmd.spec.shards, 100_000_000);
        let cmd = parse_run(&args(&[
            "workload=fig2",
            "shards=2",
            "topology=fattree:4:pushback=on",
            "faults=ctrl_drop:0.5",
            "--sink",
            "/tmp/x.jsonl",
        ]))
        .unwrap();
        assert_eq!(cmd.spec.shards, 2);
        assert!(cmd.spec.topology.is_some() && cmd.spec.faults.is_some());
    }

    #[test]
    fn every_run_key_is_in_the_usage_text() {
        let usage = usage();
        let start = usage.find("xp run KEY=VAL").expect("the run entry");
        let end = usage.find("xp search").expect("the search entry");
        let run_entry = &usage[start..end];
        assert!(
            !run_entry.contains("single switch only"),
            "faults run on every topology"
        );
        let sample = |key: &str| match key {
            "workload" => "fig2",
            "defense" => "acc",
            "link" => "10m",
            "secs" => "5",
            "seed" => "7",
            "period" => "250ms",
            "topology" => "star:4",
            "faults" => "ctrl_drop:0.1",
            "shards" => "2",
            other => panic!("no sample value for the run key `{other}`"),
        };
        let words: Vec<&str> = run_entry
            .split(|c: char| c.is_whitespace() || c == ',' || c == '.')
            .collect();
        for (key, _) in RUN_KEYS {
            assert!(
                words.contains(key),
                "`{key}` is missing from the `xp run` usage:\n{run_entry}"
            );
            let mut argv = vec![format!("{key}={}", sample(key))];
            if *key != "workload" {
                argv.push("workload=fig2".into());
            }
            parse_run(&argv).unwrap_or_else(|e| panic!("{key}: {e}"));
        }
        // Any other key is rejected, naming exactly the documented ones.
        let err = parse_run(&args(&["workload=fig2", "feed=threaded"])).unwrap_err();
        let valid: Vec<&str> = RUN_KEYS.iter().map(|(k, _)| *k).collect();
        assert!(
            err.ends_with(&format!("valid keys: {}", valid.join(", "))),
            "{err}"
        );
    }

    #[test]
    fn run_render_reports_topology_summary() {
        let cmd = parse_run(&args(&[
            "workload=flood",
            "defense=acc",
            "topology=star:4:attackers=0:pushback=on",
            "secs=12",
            "link=10m",
        ]))
        .unwrap();
        let out = render_run(&cmd).unwrap();
        assert!(out.contains("# scenario"), "{out}");
        assert!(
            out.contains("topology=star:4:attackers=0:pushback=on"),
            "header must round-trip the topology: {out}"
        );
        assert!(out.contains("conservation,ok"), "{out}");
        assert!(out.contains("topology.hops,"), "{out}");
        assert!(out.contains("pushback.installs,"), "{out}");
        assert!(out.contains("pushback.converge_s,"), "{out}");
    }

    #[test]
    fn run_faults_seed_tracks_the_scenario_seed() {
        let cmd = parse_run(&args(&[
            "workload=fig2",
            "defense=accturbo",
            "faults=ctrl_drop:0.5+stale:0.25",
            "seed=99",
        ]))
        .unwrap();
        let fc = cmd.spec.faults.expect("faults set");
        assert_eq!(fc.seed, 99);
        assert_eq!(fc.ctrl_drop, 0.5);
        assert_eq!(fc.stale_snapshot, 0.25);
    }

    #[test]
    fn run_rejects_bad_input() {
        for (argv, needle) in [
            (vec!["workload=fig2", "--frob"], "unknown option `--frob`"),
            (vec!["workload=fig2", "frob"], "expected `key=value`"),
            (vec!["workload=fig2", "frob=1"], "unknown key `frob`"),
            (vec!["workload=nope"], "workload"),
            (vec!["workload=fig2", "secs=0"], "secs must be at least 1"),
            (vec!["workload=fig2", "link=-3m"], "must be positive"),
            (vec!["workload=fig2", "period=0ms"], "must be positive"),
            // Positive values that round to 0 ns / 0 bps.
            (
                vec!["workload=fig2", "period=0.0000000001"],
                "rounds to 0 ns",
            ),
            (vec!["workload=fig2", "link=0.4"], "rounds to 0 bps"),
            (
                vec![
                    "workload=fig2",
                    "topology=line:2:pushback=on:refresh=0.0000000001",
                ],
                "rounds to 0 ns",
            ),
            (
                vec!["workload=fig2", "topology=line:2:uplink=0.1"],
                "rounds to 0 bps",
            ),
            (
                vec!["workload=fig2", "faults=frob:0.5"],
                "unknown fault kind `frob`",
            ),
        ] {
            let err = parse_run(&args(&argv)).unwrap_err();
            assert!(err.contains(needle), "{argv:?}: {err}");
        }
    }

    #[test]
    fn run_parses_telemetry_path_flags() {
        let cmd = parse_run(&args(&[
            "workload=fig2",
            "defense=accturbo",
            "--trace",
            "tr,1.jsonl",
            "--sink",
            "out dir/t.jsonl",
            "--dataset",
            "flows,v1.csv",
            "--flight-recorder",
            "fr.jsonl",
        ]))
        .unwrap();
        let o = &cmd.outputs;
        assert_eq!(o.trace.as_deref(), Some("tr,1.jsonl"));
        assert_eq!(o.sink.as_deref(), Some("out dir/t.jsonl"));
        assert_eq!(o.dataset.as_deref(), Some("flows,v1.csv"));
        assert_eq!(o.flight_recorder.as_deref(), Some("fr.jsonl"));
        assert!(o.any());

        let err = parse_run(&args(&["workload=fig2", "--sink"])).unwrap_err();
        assert!(err.contains("--sink"), "{err}");
        let err = parse_run(&args(&["workload=fig2", "--trace", "--csv"])).unwrap_err();
        assert!(err.contains("--trace"), "{err}");
        let plain = parse_run(&args(&["workload=fig2"])).unwrap();
        assert!(!plain.outputs.any());
    }

    #[test]
    fn run_render_fails_on_a_full_device() {
        if !std::path::Path::new("/dev/full").exists() {
            return;
        }
        // Dropped control ticks arm the recorder, which writes nothing
        // in a clean run.
        for flag in ["--trace", "--sink", "--dataset", "--flight-recorder"] {
            let cmd = parse_run(&args(&[
                "workload=fig2",
                "defense=accturbo",
                "secs=2",
                "faults=ctrl_drop:1.0",
                flag,
                "/dev/full",
            ]))
            .unwrap();
            let err = render_run(&cmd).unwrap_err();
            assert!(err.starts_with(&format!("{flag} /dev/full: ")), "{err}");
        }
    }

    #[test]
    fn run_render_emits_panel_summary_and_conservation() {
        let cmd = parse_run(&args(&[
            "workload=fig2",
            "defense=accturbo",
            "secs=6",
            "--quick",
        ]))
        .unwrap();
        let out = render_run(&cmd).unwrap();
        assert!(
            out.starts_with("# scenario workload=fig2 defense=accturbo"),
            "{out}"
        );
        assert!(
            out.contains("t,agg1,agg2,agg3,agg4,agg5,all,droprate"),
            "{out}"
        );
        assert!(out.contains("agg1.mean_share,"), "{out}");
        assert!(out.contains("conservation,ok"), "{out}");
        let csv = render_run(&RunCmd {
            csv: true,
            ..parse_run(&args(&["workload=fig2", "secs=6"])).unwrap()
        })
        .unwrap();
        assert!(!csv.contains("# scenario"), "{csv}");
        assert!(!csv.contains("# summary"), "{csv}");
    }

    #[test]
    fn run_render_reports_fault_and_degradation_counters() {
        let cmd = parse_run(&args(&[
            "workload=fig2",
            "defense=accturbo",
            "secs=6",
            "faults=ctrl_drop:1.0",
        ]))
        .unwrap();
        let out = render_run(&cmd).unwrap();
        assert!(out.contains("faults.ctrl_dropped,"), "{out}");
        assert!(out.contains("degradation.missed_ticks,"), "{out}");
        assert!(out.contains("conservation,ok"), "{out}");
    }

    #[test]
    fn run_rejects_duplicate_keys() {
        for argv in [
            vec!["workload=fig2", "workload=fig3"],
            vec!["workload=fig2", "defense=fifo", "defense=red"],
            vec!["workload=fig2", "secs=5,secs=6"],
        ] {
            let err = parse_run(&args(&argv)).unwrap_err();
            assert!(err.contains("duplicate key"), "{argv:?}: {err}");
        }
    }

    #[test]
    fn search_parses_defaults() {
        let cmd = parse_search(&args(&["defense=accturbo"])).unwrap();
        assert!(matches!(cmd.defense, DefenseSpec::AccTurbo(_)));
        assert_eq!(cmd.budget, 32);
        assert_eq!(cmd.seed, crate::worstcase::DEFAULT_SEED);
        assert_eq!(cmd.top, 10);
        assert_eq!(cmd.secs, None);
        assert_eq!(cmd.link_bps, None);
        assert_eq!(cmd.out, None);
        assert!(!cmd.quick);
    }

    #[test]
    fn search_parses_flags_and_overrides() {
        let cmd = parse_search(&args(&[
            "defense=jaqen,secs=12",
            "link=20m",
            "--budget",
            "8",
            "--seed",
            "5",
            "--jobs",
            "3",
            "--top",
            "4",
            "--quick",
            "--out",
            "out dir/jaqen.corpus",
        ]))
        .unwrap();
        assert!(matches!(cmd.defense, DefenseSpec::Jaqen(_)));
        assert_eq!(cmd.budget, 8);
        assert_eq!(cmd.seed, 5);
        assert_eq!(cmd.jobs, 3);
        assert_eq!(cmd.top, 4);
        assert_eq!(cmd.secs, Some(12));
        assert_eq!(cmd.link_bps, Some(20_000_000));
        assert_eq!(cmd.out.as_deref(), Some("out dir/jaqen.corpus"));
        assert!(cmd.quick);
    }

    #[test]
    fn search_rejects_bad_input() {
        for (argv, needle) in [
            (vec!["--budget", "8"], "`defense=` is required"),
            (vec!["defense=nope"], "defense"),
            (vec!["defense=fifo", "--frob"], "unknown option `--frob`"),
            (vec!["defense=fifo", "frob"], "expected `key=value`"),
            (vec!["defense=fifo", "frob=1"], "unknown key `frob`"),
            (
                vec!["defense=fifo", "defense=red"],
                "duplicate key `defense`",
            ),
            (vec!["defense=fifo", "secs=0"], "secs must be at least 1"),
            (vec!["defense=fifo", "secs=abc"], "not a run length"),
            (vec!["defense=fifo", "link=0"], "must be positive"),
            (
                vec!["defense=fifo", "--budget", "1"],
                "budget must be in 2..=",
            ),
            (
                vec!["defense=fifo", "--budget", "999999"],
                "budget must be in 2..=",
            ),
            (vec!["defense=fifo", "--budget", "x"], "is not a budget"),
            (
                vec!["defense=fifo", "--budget"],
                "--budget requires a value",
            ),
            (
                vec!["defense=fifo", "--budget", "--quick"],
                "--budget requires a value",
            ),
            (vec!["defense=fifo", "--seed", "-1"], "is not a u64 seed"),
            (
                vec!["defense=fifo", "--jobs", "0"],
                "--jobs must be at least 1",
            ),
            (
                vec!["defense=fifo", "--top", "0"],
                "--top must be at least 1",
            ),
            (vec!["defense=fifo", "--out"], "--out requires a PATH"),
        ] {
            let err = parse_search(&args(&argv)).unwrap_err();
            assert!(err.contains(needle), "{argv:?}: {err}");
        }
    }

    #[test]
    fn search_render_reports_frontier_and_replay_line() {
        let cmd = parse_search(&args(&[
            "defense=fifo",
            "secs=4",
            "--budget",
            "3",
            "--top",
            "2",
            "--seed",
            "13",
            "--jobs",
            "2",
            "--quick",
        ]))
        .unwrap();
        let out = render_search(&cmd).unwrap();
        assert!(
            out.starts_with("# search defense=fifo budget=3 seed=13"),
            "{out}"
        );
        assert!(out.contains("trajectory,"), "{out}");
        assert!(
            out.contains("rank,damage,benign_drop_pct,attack_drop_pct,benign_mbps,workload"),
            "{out}"
        );
        assert!(out.contains("#   xp run workload=pulse"), "{out}");
        // No --out: the corpus is inlined.
        assert!(out.contains("# accturbo adversarial corpus v1"), "{out}");

        // --out diverts the corpus to a file whose bytes parse back.
        let path =
            std::env::temp_dir().join(format!("xp-search-cli-test-{}.corpus", std::process::id()));
        let cmd = SearchCmd {
            out: Some(path.to_string_lossy().into_owned()),
            ..cmd
        };
        let out = render_search(&cmd).unwrap();
        assert!(out.contains("corpus_entries,"), "{out}");
        assert!(!out.contains("# accturbo adversarial corpus v1"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let corpus = accturbo_adversary::Corpus::parse(&text).unwrap();
        assert_eq!(corpus.defense, "fifo");
        assert_eq!(corpus.secs, 4);
        assert_eq!(corpus.budget, 3);
        let _ = std::fs::remove_file(&path);
    }
}
