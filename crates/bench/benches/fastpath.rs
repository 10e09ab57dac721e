//! Datapath fast-path throughput benches (DESIGN.md §8): the same three
//! kernels `xp bench-export` measures — engine step over the full
//! ACC-Turbo switch, online cluster update, SP-PIFO ranked enqueue —
//! each reported with packets/second, plus their pre-optimization
//! reference counterparts where the `reference` feature keeps one.
//!
//! Run: `cargo bench --bench fastpath` (smoke: `cargo test --benches`).

use accturbo_bench::Harness;
use accturbo_experiments::benchx;

fn main() {
    let h = Harness::from_args();
    let n: u64 = if h.smoke() { 4_000 } else { 20_000 };
    benchx::check_golden_identity().expect("optimized and reference kernels must agree");
    for row in benchx::run_rows(&h, n) {
        if let Some(s) = row.speedup {
            println!("{:<40} speedup {s:.2}x vs reference", row.name);
        }
    }
}
