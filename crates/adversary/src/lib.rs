//! # accturbo-adversary
//!
//! Deterministic adversarial attack search (ROADMAP item 3, DESIGN.md
//! §12): a PRNG-seeded optimizer that hunts for the pulse-wave attack
//! each defense handles *worst*. The search space is the set of
//! [`accturbo_traffic::PulseAttackConfig`] knobs — pulse period, duty
//! cycle, burst amplitude, vector mix, feature spreading, ramp shape —
//! quantized into an [`AttackGenome`] so every candidate is a finite,
//! exactly-reproducible point that round-trips through the `pulse:`
//! workload grammar as a one-line replayable spec.
//!
//! The optimizer ([`search`]) is a two-phase loop: seeded random
//! exploration over the whole space, then batched simulated-annealing
//! refinement around the incumbent. All PRNG draws happen on the
//! calling thread in a fixed order and candidate batches are evaluated
//! through `accturbo_runner` (index-ordered delivery), so the outcome
//! is a pure function of `(space, config, evaluator)` — byte-identical
//! across `--jobs` counts and across runs.
//!
//! What the search finds is frozen into a [`Corpus`]: a plain-text,
//! diff-friendly file of attack specs plus the damage each inflicted,
//! committed under `tests/corpus/` and replayed as goldens so future
//! datapath changes can't silently regress robustness.
//!
//! This crate deliberately does **not** depend on the experiments
//! crate: the evaluator is a closure, so the scenario layer plugs in
//! from above and the search stays testable against cheap synthetic
//! landscapes.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod corpus;
pub mod genome;
pub mod search;
pub mod space;

pub use corpus::{Corpus, CorpusEntry};
pub use genome::AttackGenome;
pub use search::{search, DamageMetrics, Evaluated, SearchConfig, SearchOutcome};
pub use space::SearchSpace;
