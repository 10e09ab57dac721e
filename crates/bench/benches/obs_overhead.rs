//! Proof that observability is pay-for-what-you-use (DESIGN.md,
//! Observability): the plain `run` entry point monomorphizes
//! `run_streamed` over `NoopTracer`, so the tracing branches must
//! compile out of the hot path. This bench runs the Fig. 2 ACC-Turbo
//! workload three ways on identical inputs:
//!
//! * `plain`  — `run` (the pre-observability datapath),
//! * `noop`   — `run_streamed` with `NoopTracer` and no hooks, spelled
//!   out at the call site: the path every figure run takes,
//! * `active` — `run_streamed` with a live `RingTracer`, a metrics
//!   registry on both engine and switch, and stage timing enabled.
//!
//! The budget is **noop ≤ plain + 2%** (medians over samples). The two
//! gated rows run interleaved sample by sample, so neither gains from
//! running first on a machine whose speed drifts. The active row is
//! informational: it is the price of full tracing, not a budget.

use accturbo_bench::{black_box, fmt_ns, overhead_pct, Harness};
use accturbo_clustering::FeatureSet;
use accturbo_core::{AccTurboConfig, AccTurboSwitch};
use accturbo_netsim::{
    run, run_streamed, Bandwidth, EngineConfig, MergedSource, SimDuration, SimTime,
};
use accturbo_obs::{shared, NoopTracer, Registry, RingTracer};
use accturbo_traffic::scenarios;
use std::cell::RefCell;
use std::rc::Rc;

const LINK: u64 = 10_000_000;
const SEED: u64 = 2022;
/// Simulated seconds per iteration: long enough to cross several control
/// periods and stats intervals, short enough for many samples.
const SECS: u64 = 2;

fn cfg() -> EngineConfig {
    EngineConfig::new(Bandwidth::from_bps(LINK))
        .with_stats_interval(SimDuration::from_secs(1))
        .with_end_time(SimTime::from_secs(SECS))
        .with_control_period(SimDuration::from_millis(250))
}

fn fresh() -> (MergedSource, AccTurboSwitch<'static>) {
    let src = scenarios::fig2_source(LINK, SEED);
    let sw = AccTurboSwitch::new(AccTurboConfig::simulation(FeatureSet::simulation_default()));
    (src, sw)
}

fn main() {
    let h = Harness::from_args().with_samples(21);

    let mut plain_run = |(mut src, mut sw): (MergedSource, AccTurboSwitch<'static>)| {
        black_box(run(&mut src, &mut sw, &cfg()));
    };
    let mut noop_run = |(mut src, mut sw): (MergedSource, AccTurboSwitch<'static>)| {
        black_box(run_streamed(
            &mut src,
            &mut sw,
            &cfg(),
            &mut NoopTracer,
            None,
            None,
            None,
        ));
    };
    let [plain, noop] = <[_; 2]>::try_from(h.run_interleaved(
        fresh,
        &mut [
            ("obs_overhead/plain_run", &mut plain_run),
            ("obs_overhead/noop_tracer", &mut noop_run),
        ],
    ))
    .expect("one entry per row");

    let _active = h.run_batched(
        "obs_overhead/active_tracing",
        None,
        || {
            let (src, mut sw) = fresh();
            let tracer = shared(RingTracer::new(1_000_000));
            let metrics = Rc::new(RefCell::new(Registry::new()));
            sw.set_tracer(Box::new(Rc::clone(&tracer)));
            sw.set_metrics(Rc::clone(&metrics));
            sw.set_timing(true);
            (src, sw, tracer, metrics)
        },
        |(mut src, mut sw, tracer, metrics)| {
            let mut engine_tracer = Rc::clone(&tracer);
            black_box(run_streamed(
                &mut src,
                &mut sw,
                &cfg(),
                &mut engine_tracer,
                Some(&metrics),
                None,
                None,
            ));
        },
    );

    let mut failed = false;
    if let (Some(plain), Some(noop)) = (&plain, &noop) {
        let pct = overhead_pct(plain, noop);
        let verdict = if pct <= 2.0 { "PASS" } else { "FAIL" };
        println!("\nnoop-instrumented vs plain: {pct:+.2}% (budget +2.00%) ... {verdict}");
        println!(
            "  plain median {}, noop-instrumented median {}",
            fmt_ns(plain.median_ns()),
            fmt_ns(noop.median_ns())
        );
        if h.smoke() {
            println!("  (smoke mode: single iteration, percentage is noise)");
        } else if pct > 2.0 {
            failed = true;
        }
    }
    // A loaded machine can push any single run past the budget; a
    // nonzero exit makes the regression visible to CI wrappers.
    if failed {
        std::process::exit(1);
    }
}
