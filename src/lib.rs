//! # accturbo
//!
//! A from-scratch Rust reproduction of **"Aggregate-Based Congestion
//! Control for Pulse-Wave DDoS Defense"** (Gran Alcoz et al., ACM SIGCOMM
//! 2022) — the ACC-Turbo system — together with every substrate the paper
//! depends on: a deterministic packet-level network simulator, classic
//! ACC (Mahajan et al. 2002), a behavioural model of Jaqen (Liu et al.
//! 2021), synthetic CAIDA/CICDDoS-like workloads, the full
//! online-clustering design space of §4, and the programmable-scheduling
//! control plane of §5.
//!
//! This facade re-exports the member crates under stable paths:
//!
//! * [`netsim`] — the simulator substrate (packets, queues, engine).
//! * [`traffic`] — workload generators (background, attack vectors,
//!   pulse waves, the Fig. 2/3 scenarios, the CICDDoS-like day).
//! * [`clustering`] — §4's online clustering (distances, searches,
//!   representations) plus k-means/hybrid baselines and purity/recall.
//! * [`sched`] — §5's ranking algorithms and the control plane.
//! * [`core`] — the assembled [`core::AccTurboSwitch`] and the
//!   ground-truth [`core::IdealPifoSwitch`].
//! * [`acc`] — the classic-ACC baseline switch.
//! * [`jaqen`] — the Jaqen baseline switch.
//! * [`telemetry`] — scores, reaction times, report rendering.
//! * [`obs`] — tracing, metrics, and span timing (also re-exported as
//!   [`telemetry::obs`]).
//!
//! ## Quickstart
//!
//! ```
//! use accturbo::core::{AccTurboConfig, AccTurboSwitch};
//! use accturbo::clustering::FeatureSet;
//! use accturbo::netsim::{run, Bandwidth, EngineConfig, SimDuration};
//! use accturbo::traffic::scenarios;
//!
//! // The paper's Fig. 3 pulse-wave workload on a 10 Mbps bottleneck ...
//! let mut source = scenarios::fig3_source(10_000_000, 42);
//! // ... defended by ACC-Turbo's simulation profile.
//! let mut switch =
//!     AccTurboSwitch::new(AccTurboConfig::simulation(FeatureSet::simulation_default()));
//! let cfg = EngineConfig::new(Bandwidth::from_mbps(10))
//!     .with_control_period(SimDuration::from_millis(250))
//!     .with_end_time(accturbo::netsim::SimTime::from_secs(10));
//! let result = run(&mut source, &mut switch, &cfg);
//! assert!(result.departures > 0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use accturbo_acc as acc;
pub use accturbo_clustering as clustering;
pub use accturbo_core as core;
pub use accturbo_jaqen as jaqen;
pub use accturbo_netsim as netsim;
pub use accturbo_obs as obs;
pub use accturbo_sched as sched;
pub use accturbo_telemetry as telemetry;
pub use accturbo_traffic as traffic;
