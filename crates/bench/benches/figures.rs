//! One benchmark per paper table/figure: each regenerates the experiment
//! at `Scale::Quick` (shortened durations, identical code paths), so
//! regressions in any reproduction pipeline are caught and timed. The
//! full-fidelity outputs come from `cargo run -p accturbo-experiments
//! --release -- all`.

use accturbo_bench::{black_box, Harness};
use accturbo_experiments::{figure_spec, Scale};

fn main() {
    // One quick-scale iteration already takes O(seconds); three samples
    // keep `cargo bench` tolerable while still exposing regressions.
    let h = Harness::from_args().with_samples(3);

    for name in [
        "fig2", "fig3", "fig6", "fig7", "table3", "fig8", "fig9", "fig10", "fig11",
    ] {
        let spec = figure_spec(name).expect("a registered figure");
        h.run(&format!("figures/{name}_quick"), || {
            black_box(spec.run_default(Scale::Quick).rendered);
        });
    }
}
