//! `xp` — regenerate the paper's tables and figures.
//!
//! ```text
//! xp [FIGURE...] [--quick] [--jobs N] [--seeds A,B,C]
//!    [--trace PATH] [--sink PATH] [--dataset PATH] [--flight-recorder PATH]
//! xp run KEY=VAL[,KEY=VAL...] [--csv] [--quick]   # one ad-hoc scenario
//!    [--trace PATH] [--sink PATH] [--dataset PATH] [--flight-recorder PATH]
//! xp search defense=SPEC [--budget N] [--seed N] [--top N]
//!    [--jobs N] [--out PATH] [--quick]   # adversarial worst-case search
//! xp trace PATH        # render a JSONL trace, one line per event
//! xp bench-export [--smoke] [--out PATH]   # datapath throughput JSON
//! xp --help
//! ```
//!
//! All parsing and orchestration lives in `accturbo_experiments::cli`;
//! this binary only wires stdout/stderr, the process exit code and the
//! figure mode's exports together.

#![forbid(unsafe_code)]

use accturbo_experiments::cli::{self, Cli, JobSpan};
use accturbo_obs::{Event, Tracer as _};
use std::process::ExitCode;

/// `xp trace PATH`: render a JSONL trace one line per event, each from
/// its own fields whatever its kind; a malformed line comes out raw with
/// a warning (`accturbo_experiments::trace`).
fn dump_trace(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    // A closed pipe (`xp trace … | head`) is a normal exit.
    let stats = match accturbo_experiments::trace::dump_to(&text, &mut out) {
        Ok(stats) => stats,
        Err(_) => return Ok(()),
    };
    if stats.malformed > 0 {
        let n = stats.malformed;
        eprintln!("warning: {n} malformed line(s) rendered raw (no `ts` and `ev`)");
    }
    Ok(())
}

/// Runs the Fig. 2 ACC-Turbo scenario with the requested exports
/// (`--trace` / `--sink` / `--dataset` / `--flight-recorder`) alongside
/// a figure run, through the same [`cli::build_telemetry`] bundle as
/// `xp run`. The figure jobs' spans open the trace, so a parallel
/// `xp all --jobs N --trace …` shows where every figure ran and for how
/// long.
fn export(cli: &Cli, spans: &[JobSpan]) -> Result<(), String> {
    eprintln!("running the instrumented Fig. 2 ACC-Turbo scenario ...");
    let mut argv: Vec<String> = vec!["workload=fig2".into(), "defense=accturbo".into()];
    if cli.scale == accturbo_experiments::Scale::Quick {
        argv.push("--quick".into());
    }
    let spec = cli::parse_run(&argv)?.spec;
    let outputs = &cli.outputs;
    let mut tel = cli::build_telemetry(outputs, spec.seed)?
        .expect("export is only called when an output path is set");
    if let Some(tracer) = tel.tracer().filter(|_| outputs.trace.is_some()) {
        for span in spans {
            tracer.borrow_mut().record(
                span.started_at.as_nanos() as u64,
                &Event::JobSpan {
                    job: span.figure,
                    seed: span.seed,
                    worker: span.worker,
                    elapsed_ns: span.elapsed.as_nanos() as u64,
                },
            );
        }
    }
    let _ = spec.execute_streamed(Some(&mut tel));
    outputs.check_written(&tel)?;
    if let Some(path) = &outputs.trace {
        eprintln!("wrote {} trace events to {path}", tel.trace_lines());
    }
    if let Some(path) = &outputs.sink {
        eprintln!(
            "wrote {} telemetry lines ({} periods) to {path}",
            tel.sink_lines(),
            tel.periods()
        );
    }
    if let Some(path) = &outputs.dataset {
        eprintln!(
            "wrote {} labeled flow records ({} flows seen) to {path}",
            tel.dataset_rows(),
            tel.flows_seen()
        );
    }
    if let Some(path) = &outputs.flight_recorder {
        eprintln!(
            "wrote {} flight window(s) to {path}",
            tel.recorder_windows()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", cli::usage());
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("bench-export") {
        use accturbo_experiments::benchx;
        return match benchx::parse_args(&args[1..]).and_then(|a| benchx::run_export(&a)) {
            Ok(path) => {
                eprintln!("wrote datapath bench baseline to {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("run") {
        return match cli::parse_run(&args[1..]).and_then(|cmd| cli::render_run(&cmd)) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}\n\n{}", cli::usage());
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("search") {
        return match cli::parse_search(&args[1..]).and_then(|cmd| cli::render_search(&cmd)) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}\n\n{}", cli::usage());
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("trace") {
        return match args.get(1) {
            Some(path) => match dump_trace(path) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            None => {
                eprintln!("error: `xp trace` requires a PATH argument");
                ExitCode::FAILURE
            }
        };
    }

    let cli = match cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::usage());
            return ExitCode::FAILURE;
        }
    };

    let spans = cli::run_figures(&cli, |block| print!("{block}"));

    if cli.outputs.any() {
        if let Err(e) = export(&cli, &spans) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
