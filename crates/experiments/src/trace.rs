//! Forward-compatible rendering for `xp trace`.
//!
//! Traces are JSONL and append-only by design: newer builds add event
//! kinds that older `xp` binaries have never heard of. Rather than
//! silently skipping those lines (which makes a trace *look* complete
//! while hiding exactly the events someone added last week), unknown
//! kinds are rendered raw — timestamp and kind tag extracted when
//! possible, the original JSON passed through — and counted so the
//! caller can print one warning at the end.

use accturbo_obs::{raw_field, Event};
use std::io::{self, Write};

/// Counters from one [`dump_to`] pass over a trace.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Lines parsed as known events and pretty-printed.
    pub rendered: usize,
    /// Lines rendered raw: unknown event kinds or malformed JSON.
    pub unknown: usize,
}

/// Renders one trace line: known events via [`Event::pretty`],
/// everything else raw in the same column layout so mixed output stays
/// scannable. Returns the text plus whether the line was unknown.
pub fn render_line(line: &str) -> (String, bool) {
    if let Some((ts, ev)) = Event::parse_jsonl_line(line) {
        return (ev.pretty(ts), false);
    }
    // Future/unknown kind: salvage the timestamp and tag so the line
    // still sorts visually with its neighbours, and keep the raw JSON.
    let ts = raw_field(line, "ts").and_then(|v| v.parse::<u64>().ok());
    let kind = raw_field(line, "ev")
        .map(|v| v.trim_matches('"').to_string())
        .unwrap_or_else(|| "?".into());
    let text = match ts {
        Some(ns) => format!(
            "{:>12.6}s  ?{:<8} {line}",
            ns as f64 / 1e9,
            kind.to_ascii_uppercase()
        ),
        None => format!("{:>12}   ?{:<8} {line}", "?", kind.to_ascii_uppercase()),
    };
    (text, true)
}

/// Renders a whole JSONL trace to `out`, one line per non-blank input
/// line. Never drops a line: unknown kinds come out raw and are tallied
/// in [`TraceStats::unknown`].
pub fn dump_to<W: Write>(text: &str, out: &mut W) -> io::Result<TraceStats> {
    let mut stats = TraceStats::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let (rendered, unknown) = render_line(line);
        writeln!(out, "{rendered}")?;
        if unknown {
            stats.unknown += 1;
        } else {
            stats.rendered += 1;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_events_pretty_print() {
        let line =
            r#"{"ts":2000000000,"ev":"drop","queue":1,"class":3,"size":1500,"reason":"full"}"#;
        let (text, unknown) = render_line(line);
        assert!(!unknown);
        assert!(text.contains("DROP"), "{text}");
        assert!(!text.contains('{'), "pretty output, not raw: {text}");
    }

    #[test]
    fn future_event_kind_renders_raw_not_skipped() {
        // An event kind no current build emits — simulates reading a
        // trace written by a newer xp.
        let line = r#"{"ts":5000000000,"ev":"quantum_teleport","qubits":3}"#;
        let (text, unknown) = render_line(line);
        assert!(unknown);
        assert!(text.contains("?QUANTUM_TELEPORT"), "{text}");
        assert!(text.contains(r#""qubits":3"#), "raw JSON retained: {text}");
        assert!(text.starts_with("    5.000000s"), "{text}");
    }

    #[test]
    fn malformed_line_renders_raw_with_placeholder() {
        let (text, unknown) = render_line("not json at all");
        assert!(unknown);
        assert!(text.contains("not json at all"), "{text}");
    }

    #[test]
    fn dump_counts_both_classes_and_emits_every_line() {
        let trace = concat!(
            r#"{"ts":1000000000,"ev":"drop","queue":0,"class":1,"size":64,"reason":"full"}"#,
            "\n\n",
            r#"{"ts":2000000000,"ev":"warp_core_breach","severity":9}"#,
            "\n",
        );
        let mut out = Vec::new();
        let stats = dump_to(trace, &mut out).unwrap();
        assert_eq!(
            stats,
            TraceStats {
                rendered: 1,
                unknown: 1
            }
        );
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(text.contains("?WARP_CORE_BREACH"), "{text}");
    }
}
