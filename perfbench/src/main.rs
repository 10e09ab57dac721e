//! `perfbench` — runs one benchmark workload and prints its metrics, the
//! last line of standard output being one JSON object:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cicday_accturbo --seed 3100 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. `--workload all` runs every workload in its own process (so peak
//! memory stays per workload) and prints every metric with its unit.

use accturbo_perfbench::measure::{end_to_end, per_layer, Report};
use accturbo_perfbench::workload::{Workload, CANONICAL_SEED};
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <cicday_accturbo|cicday_accturbo_shards2|\
cicday_fattree_pushback|corpus_replay|all> [--seed N] [--seconds N] [--trace 0|1]";

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("not a whole number: `{s}`"))
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut all = false;
    let mut seed = CANONICAL_SEED;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if val == "all" => all = true,
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload `{val}`"))?)
            }
            "--seed" => seed = parse_u64(&val)?,
            "--seconds" => seconds = parse_u64(&val)?.max(1),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{val}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if workload.is_none() && !all {
        return Err("--workload is required".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The report as the one-line JSON object the last line must be.
fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    if w == Workload::CorpusReplay && args.seed != CANONICAL_SEED {
        eprintln!(
            "corpus_replay: every replay runs in its corpus header's frame (link, secs, seed); \
             --seed {} is ignored",
            args.seed
        );
    }
    let seconds = args.seconds as f64;
    let result = if args.trace {
        per_layer(w, args.seed, seconds)
    } else {
        end_to_end(w, args.seed, seconds)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &report.failures {
        eprintln!("FAILED: {f}");
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {} is not a finite number", m.name);
        return ExitCode::FAILURE;
    }
    for m in &report.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "operations: {} attempted, {} failed",
        report.attempted, report.failed
    );
    println!("{}", json(&report));
    ExitCode::SUCCESS
}

/// Runs every workload in a child process of this binary and prints each
/// one's metric lines under its name.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        println!("== {}", w.name());
        for l in lines.iter().take(lines.len().saturating_sub(1)) {
            println!("   {l}");
        }
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let correct = lines
            .last()
            .is_some_and(|l| l.contains("\"correct\": true"));
        ok &= out.status.success() && correct;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}
