//! Rendering for `xp trace`.
//!
//! Every trace line is rendered from its own fields, so a kind this
//! build has never heard of (one a newer build added) comes out exactly
//! like a known one: time, upper-cased `ev` tag, then each other field as
//! `key=value`. Only a line that is not a JSON object with `ts` and `ev`
//! is passed through raw, and counted so the caller can print one
//! warning at the end; no line is ever skipped.

use accturbo_obs::json::fields;
use std::io::{self, Write};

/// Counters from one [`dump_to`] pass over a trace.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Lines rendered from their fields.
    pub rendered: usize,
    /// Lines passed through raw: not a JSON object with `ts` and `ev`.
    pub malformed: usize,
}

/// Renders one trace line as
/// `<seconds>s  <EV, padded to 14> key=value key=value ...`, or `None`
/// when the line is not a flat JSON object with a numeric `ts` and a
/// string `ev`. Strings lose their quotes but keep their escapes, so a
/// rendered line is always one line.
pub fn render_line(line: &str) -> Option<String> {
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let (mut ts, mut ev, mut rest) = (None, None, String::new());
    let mut pairs = fields(body);
    for (key, value) in pairs.by_ref() {
        match key {
            "ts" => ts = value.parse::<u64>().ok(),
            "ev" => ev = unquote(value),
            _ => {
                rest.push(' ');
                rest.push_str(key);
                rest.push('=');
                rest.push_str(unquote(value).unwrap_or(value));
            }
        }
    }
    if !pairs.rest().is_empty() {
        return None;
    }
    let t = ts? as f64 / 1e9;
    let ev = ev?.to_ascii_uppercase();
    let mut text = format!("{t:>12.6}s  {ev:<14}{rest}");
    text.truncate(text.trim_end().len());
    Some(text)
}

/// The text inside a JSON string's quotes, or `None` for another value.
fn unquote(value: &str) -> Option<&str> {
    value.strip_prefix('"')?.strip_suffix('"')
}

/// Renders a whole JSONL trace to `out`, one line per non-blank input
/// line. Never drops a line: a malformed one comes out raw and is tallied
/// in [`TraceStats::malformed`].
pub fn dump_to<W: Write>(text: &str, out: &mut W) -> io::Result<TraceStats> {
    let mut stats = TraceStats::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match render_line(line) {
            Some(rendered) => {
                writeln!(out, "{rendered}")?;
                stats.rendered += 1;
            }
            None => {
                writeln!(out, "{line}")?;
                stats.malformed += 1;
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accturbo_obs::Event;

    /// The schema's field names for `ev`, in write order. The match is
    /// exhaustive, so a new variant does not compile until it is listed.
    fn schema(ev: &Event) -> &'static [&'static str] {
        match ev {
            Event::Enqueue { .. } => &["queue", "cluster", "class", "size"],
            Event::Drop { .. } => &["queue", "class", "size", "reason"],
            Event::Depart { .. } => &["class", "size"],
            Event::ClusterSeed { .. } => &["cluster"],
            Event::ClusterAssign { .. } => &["cluster", "distance", "expanded"],
            Event::ClusterMerge { .. } => &["from", "into"],
            Event::PriorityRemap { .. } => &["mapping"],
            Event::ControlTick { .. } => &["tick"],
            Event::PushbackLimit { .. } => &["upstream", "prefix", "bps"],
            Event::Hop { .. } => &["node", "class", "size"],
            Event::StatsTick { .. } => &["bucket"],
            Event::JobSpan { .. } => &["job", "seed", "worker", "elapsed_ns"],
            Event::FaultInjected { .. } => &["kind", "value"],
            Event::Degrade { .. } => &["action", "missed"],
        }
    }

    #[test]
    fn every_kind_writes_one_line_that_renders_field_by_field() {
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
                reason: "red_early",
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
                mapping: vec![0, 3, 1],
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
            Event::JobSpan {
                job: "fig2",
                seed: 2022,
                worker: 3,
                elapsed_ns: 1_234_567,
            },
            Event::FaultInjected {
                kind: "ctrl_delay",
                value: 2_500_000.0,
            },
            Event::Degrade {
                action: "fallback_fifo",
                missed: 4,
            },
        ];
        let kinds: std::collections::BTreeSet<_> = events.iter().map(Event::kind).collect();
        assert_eq!(kinds.len(), 14, "every variant is covered");
        for (i, ev) in events.iter().enumerate() {
            let ts = i as u64 * 10;
            let mut line = String::new();
            ev.write_jsonl(ts, &mut line);
            let body = line
                .strip_suffix("}\n")
                .and_then(|l| l.strip_prefix('{'))
                .unwrap_or_else(|| panic!("not one object line: {line:?}"));
            assert!(!body.contains('\n'), "{line:?}");
            let mut pairs = fields(body);
            let got: Vec<_> = pairs.by_ref().collect();
            assert_eq!(pairs.rest(), "", "{line}");
            assert_eq!(got[0], ("ts", ts.to_string().as_str()), "{line}");
            assert_eq!(got[1], ("ev", format!("\"{}\"", ev.kind()).as_str()));
            let keys: Vec<_> = got[2..].iter().map(|&(k, _)| k).collect();
            assert_eq!(keys, schema(ev), "{line}");
            let text = render_line(&line).unwrap_or_else(|| panic!("malformed: {line}"));
            assert!(text.contains(&ev.kind().to_ascii_uppercase()), "{text}");
            for &(key, value) in &got[2..] {
                let shown = format!(" {key}={}", unquote(value).unwrap_or(value));
                assert!(text.contains(&shown), "{text} lacks {shown}");
            }
            let mut out = Vec::new();
            let stats = dump_to(&line, &mut out).unwrap();
            assert_eq!((stats.rendered, stats.malformed), (1, 0), "{line}");
        }
    }

    #[test]
    fn known_kinds_render_in_columns() {
        let line = r#"{"ts":2000000000,"ev":"cluster_assign","cluster":0,"distance":24004,"expanded":false}"#;
        assert_eq!(
            render_line(line).unwrap(),
            "    2.000000s  CLUSTER_ASSIGN cluster=0 distance=24004 expanded=false"
        );
        let line =
            r#"{"ts":1000,"ev":"drop","queue":null,"class":3,"size":64,"reason":"tail_drop"}"#;
        assert_eq!(
            render_line(line).unwrap(),
            "    0.000001s  DROP           queue=null class=3 size=64 reason=tail_drop"
        );
    }

    #[test]
    fn a_future_kind_renders_like_a_known_one() {
        // An event kind no current build emits — a trace written by a
        // newer xp.
        let trace = concat!(
            r#"{"ts":5000000000,"ev":"quantum_teleport","qubits":3}"#,
            "\n\n",
            r#"{"ts":5000000000,"ev":"control_tick","tick":3}"#,
            "\n",
            r#"{"ts":5000000000,"ev":"enqueue"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let stats = dump_to(trace, &mut out).unwrap();
        assert_eq!(
            stats,
            TraceStats {
                rendered: 3,
                malformed: 0
            }
        );
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "    5.000000s  QUANTUM_TELEPORT qubits=3",
                "    5.000000s  CONTROL_TICK   tick=3",
                "    5.000000s  ENQUEUE",
            ]
        );
    }

    #[test]
    fn malformed_lines_come_out_raw_and_counted() {
        assert_eq!(
            render_line(""),
            None,
            "blank lines are skipped, not rendered"
        );
        for line in [
            "not json at all",
            r#"{"ts":1,"ev":"drop""#,
            r#"{"ev":"drop","size":9}"#,
            r#"{"ts":"soon","ev":"drop"}"#,
            r#"{"ts":1,"ev":7}"#,
            r#"{"ts":1,"ev":"drop",oops}"#,
        ] {
            assert_eq!(render_line(line), None, "{line}");
            let mut out = Vec::new();
            let stats = dump_to(line, &mut out).unwrap();
            assert_eq!(
                stats,
                TraceStats {
                    rendered: 0,
                    malformed: 1
                }
            );
            assert_eq!(String::from_utf8(out).unwrap(), format!("{line}\n"));
        }
    }

    #[test]
    fn arrays_and_strings_with_quotes_and_commas_stay_one_field() {
        let remap = r#"{"ts":42,"ev":"priority_remap","mapping":[0,3,1]}"#;
        assert_eq!(
            render_line(remap).unwrap(),
            "    0.000000s  PRIORITY_REMAP mapping=[0,3,1]"
        );
        let quoted = r#"{"ts":7,"ev":"drop","reason":"he said \"no,\" twice\nthen left","size":9}"#;
        assert_eq!(
            render_line(quoted).unwrap(),
            r#"    0.000000s  DROP           reason=he said \"no,\" twice\nthen left size=9"#
        );
    }
}
