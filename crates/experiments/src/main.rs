//! `xp` — regenerate the paper's tables and figures.
//!
//! ```text
//! xp [FIGURE...] [--quick] [--jobs N] [--seeds A,B,C]
//!    [--trace PATH] [--metrics PATH]
//! xp run KEY=VAL[,KEY=VAL...] [--csv] [--quick]   # one ad-hoc scenario
//! xp search defense=SPEC [--budget N] [--seed N] [--top N]
//!    [--jobs N] [--out PATH] [--quick]   # adversarial worst-case search
//! xp trace PATH        # pretty-print a JSONL trace
//! xp bench-export [--smoke] [--out PATH]   # datapath throughput JSON
//! xp --help
//! ```
//!
//! All parsing and orchestration lives in `accturbo_experiments::cli`;
//! this binary only wires stdout/stderr, the process exit code and the
//! observability exports together.

#![forbid(unsafe_code)]

use accturbo_experiments::cli::{self, Cli, JobSpan};
use accturbo_obs::{Event, Tracer as _};
use std::process::ExitCode;

/// `xp trace PATH`: pretty-print a JSONL trace written by `--trace`.
/// Forward-compatible: unknown event kinds come out raw with a warning
/// rather than being silently dropped (`accturbo_experiments::trace`).
fn dump_trace(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    // A closed pipe (`xp trace … | head`) is a normal exit.
    let stats = match accturbo_experiments::trace::dump_to(&text, &mut out) {
        Ok(stats) => stats,
        Err(_) => return Ok(()),
    };
    if stats.unknown > 0 {
        eprintln!(
            "warning: {} line(s) with unknown event kinds rendered raw \
             (trace written by a newer xp?)",
            stats.unknown
        );
    }
    Ok(())
}

/// Runs the instrumented Fig. 2 ACC-Turbo scenario and writes the
/// requested JSONL exports. The figure run's own job spans are appended
/// to the trace so a parallel `xp all --jobs N --trace …` shows where
/// every figure ran and for how long.
fn export_observability(cli: &Cli, spans: &[JobSpan]) -> Result<(), String> {
    eprintln!("running the instrumented Fig. 2 ACC-Turbo scenario ...");
    let (_, tracer, metrics) = accturbo_experiments::fig2::accturbo_traced_run(cli.scale);
    if let Some(path) = &cli.trace {
        for span in spans {
            tracer.borrow_mut().record(
                span.started_at.as_nanos() as u64,
                &Event::JobSpan {
                    job: span.figure.into(),
                    seed: span.seed,
                    worker: span.worker,
                    elapsed_ns: span.elapsed.as_nanos() as u64,
                },
            );
        }
        let t = tracer.borrow();
        t.write_jsonl_to(std::path::Path::new(path))
            .map_err(|e| format!("cannot write trace to `{path}`: {e}"))?;
        eprintln!(
            "wrote {} events ({} recorded in total) to {path}",
            t.len(),
            t.total_recorded()
        );
    }
    if let Some(path) = &cli.metrics {
        let m = metrics.borrow();
        m.write_jsonl_to(std::path::Path::new(path))
            .map_err(|e| format!("cannot write metrics to `{path}`: {e}"))?;
        eprintln!("wrote {} metric snapshots to {path}", m.snapshot_count());
    }
    Ok(())
}

/// Runs the Fig. 2 ACC-Turbo scenario through the streaming engine and
/// writes whichever of `--sink` / `--dataset` / `--flight-recorder` was
/// requested alongside a figure run. Mirrors [`export_observability`]
/// but with bounded-memory streaming outputs instead of accumulating
/// in-process buffers.
fn export_streaming(cli: &Cli) -> Result<(), String> {
    eprintln!("running the streamed Fig. 2 ACC-Turbo scenario ...");
    let mut argv: Vec<String> = vec!["workload=fig2".into(), "defense=accturbo".into()];
    if cli.scale == accturbo_experiments::Scale::Quick {
        argv.push("--quick".into());
    }
    let spec = cli::parse_run(&argv)?.spec;
    let mut tel = cli::build_telemetry(
        cli.sink.as_deref(),
        cli.dataset.as_deref(),
        cli.flight_recorder.as_deref(),
        spec.seed,
    )?
    .expect("export_streaming is only called when a telemetry flag is set");
    let _ = spec.execute_streamed(Some(&mut tel));
    if let Some(path) = &cli.sink {
        eprintln!(
            "wrote {} telemetry lines ({} periods) to {path}",
            tel.sink_lines(),
            tel.periods()
        );
    }
    if let Some(path) = &cli.dataset {
        eprintln!(
            "wrote {} labeled flow records ({} flows seen) to {path}",
            tel.dataset_rows(),
            tel.flows_seen()
        );
    }
    if let Some(path) = &cli.flight_recorder {
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

    if cli.trace.is_some() || cli.metrics.is_some() {
        if let Err(e) = export_observability(&cli, &spans) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if cli.sink.is_some() || cli.dataset.is_some() || cli.flight_recorder.is_some() {
        if let Err(e) = export_streaming(&cli) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
