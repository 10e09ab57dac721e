//! The structured trace-event vocabulary and its one codec.
//!
//! Every datapath decision the ACC-Turbo pipeline makes maps to one
//! variant here. Its names are `&'static str`s and its one list (a
//! `priority_remap` mapping) is built only under [`Tracer::enabled`], so
//! an untraced run never allocates for an event, and a tracer buffers
//! one by cloning it.
//!
//! [`Event::write_jsonl`] is the only per-kind code besides the variant
//! and its [`Event::kind`] tag. The JSONL schema is one object per line:
//! `{"ts":<ns>,"ev":"<kind>", ...variant fields...}` — documented per
//! variant below and in DESIGN.md §"Observability". Readers such as
//! `xp trace` walk a line with the generic [`crate::json::fields`]
//! scanner, so they never need to know the kinds.
//!
//! [`Tracer::enabled`]: crate::Tracer::enabled

use crate::json::{dotted, escape_json};
use std::fmt::Write as _;

/// A trace event: emitters build one and pass it by reference to
/// [`Tracer::record`](crate::Tracer::record).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A packet was accepted into priority queue `queue`
    /// (`{"queue":q,"cluster":c|null,"class":k,"size":b}`).
    Enqueue {
        /// Destination priority queue.
        queue: usize,
        /// The cluster that routed the packet there, when classified.
        cluster: Option<usize>,
        /// Ground-truth traffic class.
        class: u16,
        /// Packet size in bytes.
        size: u32,
    },
    /// A packet was dropped
    /// (`{"queue":q|null,"class":k,"size":b,"reason":"..."}`).
    Drop {
        /// The queue that rejected it, when known at the emission site.
        queue: Option<usize>,
        /// Ground-truth traffic class.
        class: u16,
        /// Packet size in bytes.
        size: u32,
        /// Drop reason (tail drop, RED early, policer, ...).
        reason: &'static str,
    },
    /// A packet finished transmission on the output link
    /// (`{"class":k,"size":b}`).
    Depart {
        /// Ground-truth traffic class.
        class: u16,
        /// Packet size in bytes.
        size: u32,
    },
    /// A cluster slot was (re-)seeded at a packet
    /// (`{"cluster":c}`).
    ClusterSeed {
        /// The seeded slot.
        cluster: usize,
    },
    /// A packet was assigned to a cluster
    /// (`{"cluster":c,"distance":d,"expanded":bool}`).
    ClusterAssign {
        /// The chosen cluster.
        cluster: usize,
        /// Distance from the packet to the cluster before admission.
        distance: f64,
        /// Whether the cluster grew to cover the packet.
        expanded: bool,
    },
    /// Two clusters were merged to free a slot
    /// (`{"from":a,"into":b}`).
    ClusterMerge {
        /// The slot that was absorbed (and re-seeded).
        from: usize,
        /// The surviving slot.
        into: usize,
    },
    /// The control plane deployed a new cluster → queue mapping
    /// (`{"mapping":[q0,q1,...]}`).
    PriorityRemap {
        /// `mapping[c]` is the queue now serving cluster `c`.
        mapping: Vec<usize>,
    },
    /// A control-plane tick ran (`{"tick":n}`).
    ControlTick {
        /// Monotone tick counter.
        tick: u64,
    },
    /// A pushback rate limit was installed or refreshed on an upstream
    /// (`{"upstream":u,"prefix":"a.b.c.d/len","bps":r}`).
    PushbackLimit {
        /// Index of the upstream switch the limit was pushed to.
        upstream: usize,
        /// The policed destination prefix, as a `u32` address.
        prefix: u32,
        /// Prefix length in bits.
        prefix_len: u8,
        /// The allocated rate, bits per second.
        bps: u64,
    },
    /// A packet crossed an inter-switch link in a multi-node topology
    /// (`{"node":n,"class":k,"size":b}`; `node` is the receiving switch).
    Hop {
        /// The switch the packet was delivered to.
        node: usize,
        /// Ground-truth traffic class.
        class: u16,
        /// Packet size in bytes.
        size: u32,
    },
    /// The engine crossed a stats-interval boundary (`{"bucket":n}`).
    StatsTick {
        /// Index of the bucket that just began.
        bucket: u64,
    },
    /// One experiment-runner job span, recorded post-hoc by `xp` when a
    /// parallel run is traced (`{"job":"...","seed":s,"worker":w,
    /// "elapsed_ns":n}`; the line's `ts` is the job's start, measured
    /// from the pool's launch).
    JobSpan {
        /// The job label (the figure's registry name).
        job: &'static str,
        /// The seed the figure ran at.
        seed: u64,
        /// The worker thread (0-based) that ran the job.
        worker: usize,
        /// Wall-clock nanoseconds the job took.
        elapsed_ns: u64,
    },
    /// A fault schedule injected a fault
    /// (`{"kind":"...","value":v}`; kinds: `ctrl_drop`, `ctrl_delay`,
    /// `stale_snapshot`, `pkt_drop`, `pkt_reorder`, `link_flap`).
    FaultInjected {
        /// Fault kind tag.
        kind: &'static str,
        /// Kind-specific magnitude (delay/jitter/window ns, or 0).
        value: f64,
    },
    /// The controller's graceful-degradation policy acted on a missed or
    /// stale control tick (`{"action":"...","missed":n}`; actions:
    /// `keep_last_good`, `fallback_fifo`, `fallback_strict`, `recover`).
    Degrade {
        /// The degradation decision taken.
        action: &'static str,
        /// Consecutive control ticks missed when the decision was made.
        missed: u64,
    },
}

impl Event {
    /// The event's kind tag, as written in the JSONL `"ev"` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Enqueue { .. } => "enqueue",
            Event::Drop { .. } => "drop",
            Event::Depart { .. } => "depart",
            Event::ClusterSeed { .. } => "cluster_seed",
            Event::ClusterAssign { .. } => "cluster_assign",
            Event::ClusterMerge { .. } => "cluster_merge",
            Event::PriorityRemap { .. } => "priority_remap",
            Event::ControlTick { .. } => "control_tick",
            Event::PushbackLimit { .. } => "pushback_limit",
            Event::Hop { .. } => "hop",
            Event::StatsTick { .. } => "stats_tick",
            Event::JobSpan { .. } => "job_span",
            Event::FaultInjected { .. } => "fault",
            Event::Degrade { .. } => "degrade",
        }
    }

    /// Appends the event as one JSONL line (with trailing newline).
    pub fn write_jsonl(&self, ts_ns: u64, out: &mut String) {
        let _ = write!(out, "{{\"ts\":{ts_ns},\"ev\":\"{}\"", self.kind());
        match self {
            Event::Enqueue {
                queue,
                cluster,
                class,
                size,
            } => {
                let _ = write!(out, ",\"queue\":{queue},\"cluster\":");
                match cluster {
                    Some(c) => {
                        let _ = write!(out, "{c}");
                    }
                    None => out.push_str("null"),
                }
                let _ = write!(out, ",\"class\":{class},\"size\":{size}");
            }
            Event::Drop {
                queue,
                class,
                size,
                reason,
            } => {
                out.push_str(",\"queue\":");
                match queue {
                    Some(q) => {
                        let _ = write!(out, "{q}");
                    }
                    None => out.push_str("null"),
                }
                let _ = write!(out, ",\"class\":{class},\"size\":{size},\"reason\":\"");
                escape_json(reason, out);
                out.push('"');
            }
            Event::Depart { class, size } => {
                let _ = write!(out, ",\"class\":{class},\"size\":{size}");
            }
            Event::ClusterSeed { cluster } => {
                let _ = write!(out, ",\"cluster\":{cluster}");
            }
            Event::ClusterAssign {
                cluster,
                distance,
                expanded,
            } => {
                let _ = write!(out, ",\"cluster\":{cluster},\"distance\":");
                crate::json_f64(*distance, out);
                let _ = write!(out, ",\"expanded\":{expanded}");
            }
            Event::ClusterMerge { from, into } => {
                let _ = write!(out, ",\"from\":{from},\"into\":{into}");
            }
            Event::PriorityRemap { mapping } => {
                out.push_str(",\"mapping\":[");
                for (i, q) in mapping.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{q}");
                }
                out.push(']');
            }
            Event::ControlTick { tick } => {
                let _ = write!(out, ",\"tick\":{tick}");
            }
            Event::PushbackLimit {
                upstream,
                prefix,
                prefix_len,
                bps,
            } => {
                let _ = write!(
                    out,
                    ",\"upstream\":{upstream},\"prefix\":\"{}/{prefix_len}\",\"bps\":{bps}",
                    dotted(*prefix)
                );
            }
            Event::Hop { node, class, size } => {
                let _ = write!(out, ",\"node\":{node},\"class\":{class},\"size\":{size}");
            }
            Event::StatsTick { bucket } => {
                let _ = write!(out, ",\"bucket\":{bucket}");
            }
            Event::JobSpan {
                job,
                seed,
                worker,
                elapsed_ns,
            } => {
                out.push_str(",\"job\":\"");
                escape_json(job, out);
                let _ = write!(
                    out,
                    "\",\"seed\":{seed},\"worker\":{worker},\"elapsed_ns\":{elapsed_ns}"
                );
            }
            Event::FaultInjected { kind, value } => {
                out.push_str(",\"kind\":\"");
                escape_json(kind, out);
                out.push_str("\",\"value\":");
                crate::json_f64(*value, out);
            }
            Event::Degrade { action, missed } => {
                out.push_str(",\"action\":\"");
                escape_json(action, out);
                let _ = write!(out, "\",\"missed\":{missed}");
            }
        }
        out.push_str("}\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_schema_round_trip_shape() {
        let mut out = String::new();
        Event::Enqueue {
            queue: 2,
            cluster: Some(7),
            class: 1,
            size: 1500,
        }
        .write_jsonl(1_500_000, &mut out);
        assert_eq!(
            out,
            "{\"ts\":1500000,\"ev\":\"enqueue\",\"queue\":2,\"cluster\":7,\"class\":1,\"size\":1500}\n"
        );

        out.clear();
        Event::Drop {
            queue: None,
            class: 0,
            size: 64,
            reason: "tail_drop",
        }
        .write_jsonl(0, &mut out);
        assert_eq!(
            out,
            "{\"ts\":0,\"ev\":\"drop\",\"queue\":null,\"class\":0,\"size\":64,\"reason\":\"tail_drop\"}\n"
        );

        out.clear();
        Event::PriorityRemap {
            mapping: vec![0, 3, 1],
        }
        .write_jsonl(42, &mut out);
        assert_eq!(
            out,
            "{\"ts\":42,\"ev\":\"priority_remap\",\"mapping\":[0,3,1]}\n"
        );
    }

    #[test]
    fn pushback_prefix_renders_dotted() {
        let mut out = String::new();
        Event::PushbackLimit {
            upstream: 1,
            prefix: u32::from_be_bytes([198, 18, 5, 0]),
            prefix_len: 24,
            bps: 1_000_000,
        }
        .write_jsonl(9, &mut out);
        assert!(out.contains("\"prefix\":\"198.18.5.0/24\""), "{out}");
    }

    #[test]
    fn kinds_are_stable() {
        assert_eq!(Event::ControlTick { tick: 1 }.kind(), "control_tick");
        let hop = Event::Hop {
            node: 3,
            class: 1,
            size: 64,
        };
        assert_eq!(hop.kind(), "hop");
    }
}
