//! # accturbo-experiments
//!
//! Regeneration harness for every table and figure of the paper's
//! evaluation (see DESIGN.md §3 for the experiment index). Each module
//! owns one figure/table and exposes one entry point,
//! `figure(Scale, seed) -> Figure`: the rendered report *plus* a
//! machine-readable [`FigureResult`] (the golden-snapshot payload). Its
//! [`FigureSpec`] in the registry runs it at the module's canonical seed
//! ([`FigureSpec::run_default`], what `xp` prints by default).
//!
//! The [`FIGURES`] registry lists every figure in the paper's order and
//! is the single source of truth for the `xp` binary, the golden
//! regression tests and the parallel-runner benches.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod adversarial;
pub mod benchx;
pub mod cli;
pub mod common;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod pushback;
pub mod result;
pub mod robustness;
pub mod spec;
pub mod table3;
pub mod topology;
pub mod trace;
pub mod worstcase;

pub use common::Scale;
pub use result::FigureResult;

/// A figure regeneration: the rendered textual report plus its
/// machine-readable result.
#[derive(Debug, Clone)]
pub struct Figure {
    /// The report as printed by `xp`.
    pub rendered: String,
    /// The structured result, including a `rendered_fnv` digest field of
    /// the full rendered text (the golden backstop against drift that no
    /// summary field covers).
    pub result: FigureResult,
}

impl Figure {
    /// Pairs a rendered report with its result, appending the
    /// `rendered_fnv` digest field.
    pub fn new(rendered: String, mut result: FigureResult) -> Self {
        result.int("rendered_fnv", result::fnv1a64(&rendered));
        Figure { rendered, result }
    }
}

/// One registry entry: a figure's name, canonical seed and seeded entry
/// point.
#[derive(Debug)]
pub struct FigureSpec {
    /// Registry name (`fig2`, `table3`, ...).
    pub name: &'static str,
    /// The seed `xp` uses when `--seeds` is not given — kept identical
    /// to the modules' historical constants so default outputs are
    /// byte-stable across the refactor.
    pub default_seed: u64,
    /// Seeded regeneration entry point.
    pub run: fn(Scale, u64) -> Figure,
}

impl FigureSpec {
    /// Runs the figure at its canonical seed.
    pub fn run_default(&self, scale: Scale) -> Figure {
        (self.run)(scale, self.default_seed)
    }
}

/// Every figure/table `xp` can regenerate, in the paper's order.
pub const FIGURES: &[FigureSpec] = &[
    FigureSpec {
        name: "fig2",
        default_seed: fig2::DEFAULT_SEED,
        run: fig2::figure,
    },
    FigureSpec {
        name: "fig3",
        default_seed: fig3::DEFAULT_SEED,
        run: fig3::figure,
    },
    FigureSpec {
        name: "fig6",
        default_seed: fig6::DEFAULT_SEED,
        run: fig6::figure,
    },
    FigureSpec {
        name: "fig7",
        default_seed: fig7::DEFAULT_SEED,
        run: fig7::figure,
    },
    FigureSpec {
        name: "table3",
        default_seed: table3::DEFAULT_SEED,
        run: table3::figure,
    },
    FigureSpec {
        name: "fig8",
        default_seed: fig8::DEFAULT_SEED,
        run: fig8::figure,
    },
    FigureSpec {
        name: "fig9",
        default_seed: fig9::DEFAULT_SEED,
        run: fig9::figure,
    },
    FigureSpec {
        name: "fig10",
        default_seed: fig10::DEFAULT_SEED,
        run: fig10::figure,
    },
    FigureSpec {
        name: "fig11",
        default_seed: fig11::DEFAULT_SEED,
        run: fig11::figure,
    },
    FigureSpec {
        name: "adversarial",
        default_seed: adversarial::DEFAULT_SEED,
        run: adversarial::figure,
    },
    FigureSpec {
        name: "ablations",
        default_seed: ablations::DEFAULT_SEED,
        run: ablations::figure,
    },
    FigureSpec {
        name: "pushback",
        default_seed: pushback::DEFAULT_SEED,
        run: pushback::figure,
    },
    FigureSpec {
        name: "robustness",
        default_seed: robustness::DEFAULT_SEED,
        run: robustness::figure,
    },
    FigureSpec {
        name: "worstcase",
        default_seed: worstcase::DEFAULT_SEED,
        run: worstcase::figure,
    },
    FigureSpec {
        name: "topology",
        default_seed: topology::DEFAULT_SEED,
        run: topology::figure,
    },
];

/// Looks a figure up by registry name.
pub fn figure_spec(name: &str) -> Option<&'static FigureSpec> {
    FIGURES.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        for (i, spec) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|s| s.name != spec.name),
                "duplicate registry name {}",
                spec.name
            );
            assert!(figure_spec(spec.name).is_some());
        }
        assert!(figure_spec("fig99").is_none());
    }
}
