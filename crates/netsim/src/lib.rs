//! # accturbo-netsim
//!
//! Deterministic packet-level network simulator — the substrate on which
//! the ACC-Turbo reproduction runs (standing in for the NetBench simulator
//! and the Tofino testbed of the paper; see DESIGN.md §1).
//!
//! The core model is a single output-queued switch in front of a
//! bottleneck link, matching the paper's system model (§3.1): the defense
//! runs on the switch that gives access to the critical link, whose input
//! capacity exceeds the output bandwidth. The [`topology`] layer composes
//! that same switch abstraction into small trees (line, star, fat-tree,
//! ISP edge) with per-link serialization + propagation delay and
//! hop-by-hop pushback; one event loop runs them all, the single switch
//! being the one-node tree.
//!
//! Building blocks:
//!
//! * [`time`] / [`units`] — integer-nanosecond simulated time, bandwidths.
//! * [`packet`] — packets with full header state plus ground-truth labels.
//! * [`queue`] — FIFO, RED, strict-priority banks, and rank-ordered PIFO.
//! * [`rate`] — EWMA rate estimation and token-bucket policing.
//! * [`source`] — workload streams and the k-way time-ordered merge;
//!   [`shard`] — the threaded feed that generates a stream on a producer
//!   thread.
//! * [`switch`] / [`engine`] — the defended-switch abstraction and the
//!   event loop that drives arrivals, transmissions, control ticks and
//!   (on a tree) link deliveries and pushback messages.
//!
//! Everything is synchronous, allocation-conscious and seeded: running the
//! same experiment twice produces bit-identical results.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod calendar;
pub mod engine;
pub mod fault;
pub mod latency;
pub mod packet;
pub mod queue;
pub mod rate;
pub mod shard;
pub mod source;
pub mod stats;
pub mod switch;
pub mod time;
pub mod topology;
pub mod trace;
pub mod units;

pub use engine::{run, run_streamed, EngineConfig, RunResult};
pub use fault::{
    ControlAction, FaultConfig, FaultInjector, FaultRecord, FaultSchedule, FaultStats,
    FaultedSource, NoopFaultInjector, PktFate,
};
pub use latency::DelayHistogram;
pub use packet::{ClassId, DropReason, Dropped, FiveTuple, Packet};
pub use queue::{FifoQueue, PifoQueue, PriorityBank, QueueDiscipline, RedConfig, RedQueue};
pub use rate::{EwmaRate, TokenBucket};
pub use shard::{ShardedEngine, ThreadedSource};
pub use source::{Filled, IterSource, MergedSource, PacketSource, VecSource};
pub use stats::{Counts, StatsCollector};
pub use switch::{FeatureExtractor, ProgramSwapSwitch, SingleQueueSwitch, Switch};
pub use time::{SimDuration, SimTime};
pub use topology::{
    run_topology, run_topology_streamed, AggLimit, LinkSpec, PushbackPlan, Topology,
    TopologyConfig, TopologyRunResult,
};
pub use trace::{pcap_source, read_csv, read_pcap, write_csv, write_pcap, TraceStats};
pub use units::Bandwidth;
