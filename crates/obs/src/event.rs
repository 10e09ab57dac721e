//! The structured trace-event vocabulary.
//!
//! Every datapath decision the ACC-Turbo pipeline makes maps to one
//! variant here. An [`Event`] borrows its one slice-valued field and its
//! job label, so hot-path emission never allocates; its names are
//! `'static` strings, so [`Event::to_static`] buffers all but those two
//! fields without copying.
//!
//! The JSONL schema is one object per line:
//! `{"ts":<ns>,"ev":"<kind>", ...variant fields...}` — documented per
//! variant below and in DESIGN.md §"Observability".

use crate::json::{dotted, escape_json, raw_field};
use std::borrow::Cow;
use std::fmt::Write as _;

/// A trace event. Emitters borrow (`Event<'a>`); tracers buffer the
/// detached form (`Event<'static>`, see [`Event::to_static`]) and
/// parsing yields it with owned strings.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
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
        reason: Cow<'static, str>,
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
        mapping: Cow<'a, [usize]>,
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
    /// An ad-hoc named scalar (`{"name":"...","value":v}`).
    Custom {
        /// Event name.
        name: Cow<'static, str>,
        /// Scalar payload.
        value: f64,
    },
    /// One experiment-runner job span, recorded post-hoc by `xp` when a
    /// parallel run is traced (`{"job":"...","seed":s,"worker":w,
    /// "elapsed_ns":n}`; the line's `ts` is the job's start, measured
    /// from the pool's launch).
    JobSpan {
        /// The job label (the figure's registry name).
        job: Cow<'a, str>,
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
        kind: Cow<'static, str>,
        /// Kind-specific magnitude (delay/jitter/window ns, or 0).
        value: f64,
    },
    /// The controller's graceful-degradation policy acted on a missed or
    /// stale control tick (`{"action":"...","missed":n}`; actions:
    /// `keep_last_good`, `fallback_fifo`, `fallback_strict`, `recover`).
    Degrade {
        /// The degradation decision taken.
        action: Cow<'static, str>,
        /// Consecutive control ticks missed when the decision was made.
        missed: u64,
    },
}

impl Event<'_> {
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
            Event::Custom { .. } => "custom",
            Event::JobSpan { .. } => "job_span",
            Event::FaultInjected { .. } => "fault",
            Event::Degrade { .. } => "degrade",
        }
    }

    /// Detaches the event from the data it borrows, for buffering. Only
    /// a `priority_remap` mapping and a `job_span` label are copied; the
    /// `'static` names the other variants carry are shared, so buffering
    /// them allocates nothing.
    pub fn to_static(&self) -> Event<'static> {
        match *self {
            Event::Enqueue {
                queue,
                cluster,
                class,
                size,
            } => Event::Enqueue {
                queue,
                cluster,
                class,
                size,
            },
            Event::Drop {
                queue,
                class,
                size,
                ref reason,
            } => Event::Drop {
                queue,
                class,
                size,
                reason: reason.clone(),
            },
            Event::Depart { class, size } => Event::Depart { class, size },
            Event::ClusterSeed { cluster } => Event::ClusterSeed { cluster },
            Event::ClusterAssign {
                cluster,
                distance,
                expanded,
            } => Event::ClusterAssign {
                cluster,
                distance,
                expanded,
            },
            Event::ClusterMerge { from, into } => Event::ClusterMerge { from, into },
            Event::PriorityRemap { ref mapping } => Event::PriorityRemap {
                mapping: Cow::Owned(mapping.to_vec()),
            },
            Event::ControlTick { tick } => Event::ControlTick { tick },
            Event::PushbackLimit {
                upstream,
                prefix,
                prefix_len,
                bps,
            } => Event::PushbackLimit {
                upstream,
                prefix,
                prefix_len,
                bps,
            },
            Event::Hop { node, class, size } => Event::Hop { node, class, size },
            Event::StatsTick { bucket } => Event::StatsTick { bucket },
            Event::Custom { ref name, value } => Event::Custom {
                name: name.clone(),
                value,
            },
            Event::JobSpan {
                ref job,
                seed,
                worker,
                elapsed_ns,
            } => Event::JobSpan {
                job: Cow::Owned(job.to_string()),
                seed,
                worker,
                elapsed_ns,
            },
            Event::FaultInjected { ref kind, value } => Event::FaultInjected {
                kind: kind.clone(),
                value,
            },
            Event::Degrade { ref action, missed } => Event::Degrade {
                action: action.clone(),
                missed,
            },
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
            Event::Custom { name, value } => {
                out.push_str(",\"name\":\"");
                escape_json(name, out);
                out.push_str("\",\"value\":");
                crate::json_f64(*value, out);
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

    /// A one-line human-readable rendering (the trace pretty-printer).
    pub fn pretty(&self, ts_ns: u64) -> String {
        let t = ts_ns as f64 / 1e9;
        match self {
            Event::Enqueue {
                queue,
                cluster,
                class,
                size,
            } => match cluster {
                Some(c) => format!(
                    "{t:>12.6}s  ENQUEUE   q{queue} <- cluster {c} (class {class}, {size} B)"
                ),
                None => format!("{t:>12.6}s  ENQUEUE   q{queue} (class {class}, {size} B)"),
            },
            Event::Drop {
                queue,
                class,
                size,
                reason,
            } => match queue {
                Some(q) => {
                    format!("{t:>12.6}s  DROP      q{q} (class {class}, {size} B, {reason})")
                }
                None => format!("{t:>12.6}s  DROP      (class {class}, {size} B, {reason})"),
            },
            Event::Depart { class, size } => {
                format!("{t:>12.6}s  DEPART    (class {class}, {size} B)")
            }
            Event::ClusterSeed { cluster } => {
                format!("{t:>12.6}s  SEED      cluster {cluster}")
            }
            Event::ClusterAssign {
                cluster,
                distance,
                expanded,
            } => format!(
                "{t:>12.6}s  ASSIGN    cluster {cluster} (distance {distance:.1}{})",
                if *expanded { ", expanded" } else { "" }
            ),
            Event::ClusterMerge { from, into } => {
                format!("{t:>12.6}s  MERGE     cluster {from} -> {into}")
            }
            Event::PriorityRemap { mapping } => {
                format!("{t:>12.6}s  REMAP     cluster->queue {mapping:?}")
            }
            Event::ControlTick { tick } => {
                format!("{t:>12.6}s  TICK      #{tick}")
            }
            Event::PushbackLimit {
                upstream,
                prefix,
                prefix_len,
                bps,
            } => format!(
                "{t:>12.6}s  PUSHBACK  upstream {upstream}: {}/{prefix_len} limited to {bps} bps",
                dotted(*prefix)
            ),
            Event::Hop { node, class, size } => {
                format!("{t:>12.6}s  HOP       -> node {node} class {class} size {size}")
            }
            Event::StatsTick { bucket } => {
                format!("{t:>12.6}s  STATS     bucket {bucket}")
            }
            Event::Custom { name, value } => {
                format!("{t:>12.6}s  CUSTOM    {name} = {value}")
            }
            Event::JobSpan {
                job,
                seed,
                worker,
                elapsed_ns,
            } => format!(
                "{t:>12.6}s  JOB       {job} (seed {seed}) on worker {worker}: {:.3}s",
                *elapsed_ns as f64 / 1e9
            ),
            Event::FaultInjected { kind, value } => {
                format!("{t:>12.6}s  FAULT     {kind} (value {value})")
            }
            Event::Degrade { action, missed } => {
                format!("{t:>12.6}s  DEGRADE   {action} ({missed} ticks missed)")
            }
        }
    }

    /// Parses one JSONL line produced by
    /// [`write_jsonl`](Event::write_jsonl) back into `(ts_ns, event)`.
    ///
    /// This is a schema-specific reader for the tracer's own flat output,
    /// not a general JSON parser; unknown kinds and malformed lines yield
    /// `None`.
    pub fn parse_jsonl_line(line: &str) -> Option<(u64, Event<'static>)> {
        let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
        let ts: u64 = raw_field(body, "ts")?.parse().ok()?;
        let num = |key: &str| raw_field(body, key)?.parse::<u64>().ok();
        let opt = |key: &str| -> Option<Option<usize>> {
            let raw = raw_field(body, key)?;
            if raw == "null" {
                Some(None)
            } else {
                raw.parse().ok().map(Some)
            }
        };
        let string = |key: &str| Some(raw_field(body, key)?.trim_matches('"').to_string());
        let ev = match raw_field(body, "ev")?.trim_matches('"') {
            "enqueue" => Event::Enqueue {
                queue: num("queue")? as usize,
                cluster: opt("cluster")?,
                class: num("class")? as u16,
                size: num("size")? as u32,
            },
            "drop" => Event::Drop {
                queue: opt("queue")?,
                class: num("class")? as u16,
                size: num("size")? as u32,
                reason: string("reason")?.into(),
            },
            "depart" => Event::Depart {
                class: num("class")? as u16,
                size: num("size")? as u32,
            },
            "cluster_seed" => Event::ClusterSeed {
                cluster: num("cluster")? as usize,
            },
            "cluster_assign" => Event::ClusterAssign {
                cluster: num("cluster")? as usize,
                distance: raw_field(body, "distance")?.parse().ok()?,
                expanded: raw_field(body, "expanded")? == "true",
            },
            "cluster_merge" => Event::ClusterMerge {
                from: num("from")? as usize,
                into: num("into")? as usize,
            },
            "priority_remap" => {
                let raw = raw_field(body, "mapping")?;
                let inner = raw.strip_prefix('[')?.strip_suffix(']')?;
                let mapping = if inner.is_empty() {
                    Vec::new()
                } else {
                    inner
                        .split(',')
                        .map(|v| v.trim().parse::<usize>())
                        .collect::<Result<Vec<_>, _>>()
                        .ok()?
                };
                Event::PriorityRemap {
                    mapping: mapping.into(),
                }
            }
            "control_tick" => Event::ControlTick { tick: num("tick")? },
            "pushback_limit" => {
                let raw = string("prefix")?;
                let (addr, len) = raw.split_once('/')?;
                let mut prefix = 0u32;
                for octet in addr.split('.') {
                    prefix = (prefix << 8) | octet.parse::<u32>().ok()?;
                }
                Event::PushbackLimit {
                    upstream: num("upstream")? as usize,
                    prefix,
                    prefix_len: len.parse().ok()?,
                    bps: num("bps")?,
                }
            }
            "hop" => Event::Hop {
                node: num("node")? as usize,
                class: num("class")? as u16,
                size: num("size")? as u32,
            },
            "stats_tick" => Event::StatsTick {
                bucket: num("bucket")?,
            },
            "custom" => Event::Custom {
                name: string("name")?.into(),
                value: raw_field(body, "value")?.parse().ok()?,
            },
            "job_span" => Event::JobSpan {
                job: string("job")?.into(),
                seed: num("seed")?,
                worker: num("worker")? as usize,
                elapsed_ns: num("elapsed_ns")?,
            },
            "fault" => Event::FaultInjected {
                kind: string("kind")?.into(),
                value: raw_field(body, "value")?.parse().ok()?,
            },
            "degrade" => Event::Degrade {
                action: string("action")?.into(),
                missed: num("missed")?,
            },
            _ => return None,
        };
        Some((ts, ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_kind() {
        // Borrowed from locals, as emitters borrow: `to_static` must copy.
        let mapping = [0, 3, 1];
        let job = String::from("fig2");
        let events = [
            Event::Enqueue {
                queue: 2,
                cluster: Some(7),
                class: 1,
                size: 1500,
            },
            Event::Enqueue {
                queue: 0,
                cluster: None,
                class: 0,
                size: 64,
            },
            Event::Drop {
                queue: None,
                class: 3,
                size: 900,
                reason: "red_early".into(),
            },
            Event::Depart { class: 2, size: 40 },
            Event::ClusterSeed { cluster: 4 },
            Event::ClusterAssign {
                cluster: 1,
                distance: 12.5,
                expanded: true,
            },
            Event::ClusterMerge { from: 3, into: 0 },
            Event::PriorityRemap {
                mapping: mapping[..].into(),
            },
            Event::ControlTick { tick: 9 },
            Event::PushbackLimit {
                upstream: 1,
                prefix: 0xC612_0000,
                prefix_len: 24,
                bps: 1_000_000,
            },
            Event::Hop {
                node: 2,
                class: 1,
                size: 1500,
            },
            Event::StatsTick { bucket: 5 },
            Event::Custom {
                name: "x".into(),
                value: 1.5,
            },
            Event::JobSpan {
                job: job.as_str().into(),
                seed: 2022,
                worker: 3,
                elapsed_ns: 1_234_567,
            },
            Event::FaultInjected {
                kind: "ctrl_delay".into(),
                value: 2_500_000.0,
            },
            Event::Degrade {
                action: "fallback_fifo".into(),
                missed: 4,
            },
        ];
        let kinds: std::collections::BTreeSet<_> = events.iter().map(Event::kind).collect();
        assert_eq!(kinds.len(), 15, "every variant is covered");
        for (i, ev) in events.iter().enumerate() {
            let owned: Event<'static> = ev.to_static();
            let mut line = String::new();
            ev.write_jsonl(i as u64 * 10, &mut line);
            let (ts, parsed) =
                Event::parse_jsonl_line(&line).unwrap_or_else(|| panic!("line {i}: {line}"));
            assert_eq!(ts, i as u64 * 10);
            assert_eq!(&owned, ev, "event {i}");
            assert_eq!(&parsed, ev, "event {i}");
            for other in [&owned, &parsed] {
                let mut other_line = String::new();
                other.write_jsonl(ts, &mut other_line);
                assert_eq!(other_line, line, "event {i}");
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Event::parse_jsonl_line("").is_none());
        assert!(Event::parse_jsonl_line("not json").is_none());
        assert!(Event::parse_jsonl_line("{\"ts\":1,\"ev\":\"nope\"}").is_none());
        assert!(Event::parse_jsonl_line("{\"ts\":1,\"ev\":\"enqueue\"}").is_none());
    }

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
            reason: "tail_drop".into(),
        }
        .write_jsonl(0, &mut out);
        assert_eq!(
            out,
            "{\"ts\":0,\"ev\":\"drop\",\"queue\":null,\"class\":0,\"size\":64,\"reason\":\"tail_drop\"}\n"
        );

        out.clear();
        Event::PriorityRemap {
            mapping: [0, 3, 1][..].into(),
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

    #[test]
    fn pretty_lines_are_single_line() {
        let ev = Event::ClusterMerge { from: 1, into: 0 };
        let line = ev.pretty(2_000_000_000);
        assert!(line.contains("MERGE"));
        assert!(!line.contains('\n'));
    }
}
