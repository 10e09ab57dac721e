//! # accturbo-obs
//!
//! The in-tree observability core: structured event tracing, a metrics
//! registry, and wall-clock span timing for the datapath, clustering and
//! control plane. Dependency-free by construction (the build environment
//! has no crates.io access) and dependency-*root* by design: `netsim`,
//! `clustering`, `sched`, `acc` and `core` all thread [`Tracer`] hooks,
//! so this crate must sit below all of them in the workspace DAG.
//! Downstream consumers use it as `accturbo_telemetry::obs`, which
//! re-exports this crate wholesale.
//!
//! Three pillars:
//!
//! * [`event`] / [`tracer`] — a structured record of datapath decisions
//!   (enqueue/drop with queue id, cluster seed/assign/merge, priority
//!   remap, control tick, pushback rate-limit change), emitted through
//!   the [`Tracer`] trait. [`NoopTracer`] is the default and compiles to
//!   nothing on the hot path; [`RingTracer`] buffers the last N events
//!   and exports JSONL.
//! * [`metrics`] — named counters, gauges, and fixed-bucket histograms,
//!   snapshotted per stats interval into JSONL lines.
//! * [`span`] — wall-clock self-profiling of pipeline stages
//!   (classify/rank/enqueue) using `std::time::Instant`.
//!
//! Plus the streaming layer for runs too long to buffer:
//!
//! * [`sink`] — where telemetry *goes* (JSONL file, bounded ring,
//!   fan-out tee, CSV/JSONL dataset exporter), flushed per period.
//! * [`stream`] — the per-period aggregation stage ([`Aggregator`]) and
//!   the per-run bundle ([`Telemetry`]) the engine drives.
//! * [`sample`] — deterministic reservoir sampling of per-flow records
//!   ([`FlowSampler`]), exported as labeled datasets.
//! * [`flight`] — the [`FlightRecorder`]: a silent ring that dumps a
//!   window of events around faults, degradation, or pulse onsets.
//! * [`json`] — the shared JSON escaping/formatting helpers every
//!   producer in the workspace uses.
//!
//! Timestamps are raw `u64` simulated nanoseconds rather than `SimTime`
//! so this crate stays below `netsim` in the dependency graph.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod sample;
pub mod sink;
pub mod span;
pub mod stream;
pub mod tracer;

pub use event::Event;
pub use flight::{shared_recorder, FlightRecorder, SharedFlightRecorder};
pub use json::{escape_json, json_f64, raw_field};
pub use metrics::{CounterId, GaugeId, Histogram, HistogramId, MetricsHandle, Registry};
pub use sample::{FlowKey, FlowRecord, FlowSampler};
pub use sink::{DatasetFormat, DatasetSink, JsonlSink, RingSink, Sink, TeeSink};
pub use span::{StageClock, StageId};
pub use stream::{Aggregator, Telemetry};
pub use tracer::{shared, NoopTracer, RingTracer, SharedTracer, Tracer};
