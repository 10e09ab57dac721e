//! Minimal JSON formatting and field-extraction helpers shared by the
//! whole observability layer (and re-used downstream by `experiments`).
//!
//! These existed as private copies in several crates; they live here
//! once, tested, because every JSONL producer in the workspace must
//! agree on escaping and number formatting for the goldens to stay
//! byte-stable. This is intentionally not a JSON library: the schema is
//! flat one-object-per-line JSONL that the workspace itself emits, and
//! [`fields`] / [`raw_field`] read it back without knowing its kinds.

use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Formats an `f64` as JSON (finite → shortest form; non-finite → null,
/// since JSON has no Infinity/NaN literals).
pub fn json_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Renders a big-endian `u32` address as dotted-quad (`a.b.c.d`).
pub fn dotted(addr: u32) -> String {
    let b = addr.to_be_bytes();
    format!("{}.{}.{}.{}", b[0], b[1], b[2], b[3])
}

/// The raw text of `"key":<value>` in a flat one-line JSON object body
/// (outer braces stripped), stopping at the next top-level comma.
/// String values keep their surrounding quotes.
pub fn raw_field<'s>(body: &'s str, key: &str) -> Option<&'s str> {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat)? + pat.len()..];
    Some(&rest[..value_len(rest)])
}

/// The `(key, raw value)` pairs of a flat one-line JSON object body
/// (outer braces stripped), in order. Values are cut as [`raw_field`]
/// cuts them. Iteration stops at the first text that is not a
/// `"key":value` pair; [`Fields::rest`] then holds that text, so a
/// well-formed body is one that leaves it empty.
pub fn fields(body: &str) -> Fields<'_> {
    Fields { rest: body }
}

/// The iterator [`fields`] returns.
#[derive(Debug, Clone)]
pub struct Fields<'s> {
    rest: &'s str,
}

impl<'s> Fields<'s> {
    /// The text not yet read as pairs: empty once every pair was read.
    pub fn rest(&self) -> &'s str {
        self.rest
    }
}

impl<'s> Iterator for Fields<'s> {
    type Item = (&'s str, &'s str);

    fn next(&mut self) -> Option<Self::Item> {
        let (key, after) = self.rest.strip_prefix('"')?.split_once('"')?;
        let after = after.strip_prefix(':')?;
        let value = &after[..value_len(after)];
        if value.is_empty() {
            return None;
        }
        let tail = &after[value.len()..];
        self.rest = tail.strip_prefix(',').unwrap_or(tail);
        Some((key, value))
    }
}

/// The length of the raw value that opens `rest`: up to its first comma
/// outside strings and brackets, or all of `rest`.
fn value_len(rest: &str) -> usize {
    let (mut depth, mut in_str, mut esc) = (0usize, false, false);
    for (i, ch) in rest.char_indices() {
        if esc {
            esc = false;
            continue;
        }
        match ch {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth = depth.saturating_sub(1),
            ',' if !in_str && depth == 0 => return i,
            _ => {}
        }
    }
    rest.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials_and_control_chars() {
        let mut out = String::new();
        escape_json("a\"b\\c\nd\re\tf\u{1}g", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\re\\tf\\u0001g");
    }

    #[test]
    fn escape_passes_unicode_through() {
        let mut out = String::new();
        escape_json("héllo→", &mut out);
        assert_eq!(out, "héllo→");
    }

    #[test]
    fn json_f64_finite_and_nonfinite() {
        let mut out = String::new();
        json_f64(1.5, &mut out);
        out.push(',');
        json_f64(f64::NAN, &mut out);
        out.push(',');
        json_f64(f64::INFINITY, &mut out);
        assert_eq!(out, "1.5,null,null");
    }

    #[test]
    fn dotted_renders_big_endian_octets() {
        assert_eq!(dotted(u32::from_be_bytes([198, 18, 5, 7])), "198.18.5.7");
        assert_eq!(dotted(0), "0.0.0.0");
    }

    #[test]
    fn raw_field_extracts_values_arrays_and_strings() {
        let body = "\"ts\":12,\"name\":\"a,b\",\"buckets\":[[\"1\",2],[\"+inf\",3]],\"last\":7";
        assert_eq!(raw_field(body, "ts"), Some("12"));
        assert_eq!(raw_field(body, "name"), Some("\"a,b\""));
        assert_eq!(raw_field(body, "buckets"), Some("[[\"1\",2],[\"+inf\",3]]"));
        assert_eq!(raw_field(body, "last"), Some("7"));
        assert_eq!(raw_field(body, "missing"), None);
    }

    #[test]
    fn raw_field_skips_escaped_quotes_inside_strings() {
        let body = "\"reason\":\"he said \\\"no,\\\" twice\",\"size\":9";
        assert_eq!(
            raw_field(body, "reason"),
            Some("\"he said \\\"no,\\\" twice\"")
        );
        assert_eq!(raw_field(body, "size"), Some("9"));
    }

    /// Object bodies `xp trace` must split into exactly these pairs: a
    /// kind no build emits, an array, and an escaped quote and a comma
    /// inside a string.
    const BODIES: [(&str, &[(&str, &str)]); 3] = [
        (
            r#""ts":5000000000,"ev":"quantum_teleport","qubits":3"#,
            &[
                ("ts", "5000000000"),
                ("ev", "\"quantum_teleport\""),
                ("qubits", "3"),
            ],
        ),
        (
            r#""ts":42,"ev":"priority_remap","mapping":[0,3,1]"#,
            &[
                ("ts", "42"),
                ("ev", "\"priority_remap\""),
                ("mapping", "[0,3,1]"),
            ],
        ),
        (
            r#""ts":7,"ev":"drop","reason":"he said \"no,\" twice","size":9"#,
            &[
                ("ts", "7"),
                ("ev", "\"drop\""),
                ("reason", r#""he said \"no,\" twice""#),
                ("size", "9"),
            ],
        ),
    ];

    #[test]
    fn fields_split_a_body_into_its_pairs() {
        for (body, pairs) in BODIES {
            let mut it = fields(body);
            assert_eq!(it.by_ref().collect::<Vec<_>>(), pairs, "{body}");
            assert_eq!(it.rest(), "", "{body}");
        }
    }

    #[test]
    fn fields_and_raw_field_agree_on_every_key() {
        for (body, _) in BODIES {
            for (key, value) in fields(body) {
                assert_eq!(raw_field(body, key), Some(value), "{body}: {key}");
            }
        }
    }

    #[test]
    fn fields_stop_at_the_first_text_that_is_no_pair() {
        for (body, read, rest) in [
            ("not json", 0, "not json"),
            (r#""ts":1,oops"#, 1, "oops"),
            (r#""ts":1,"ev":"#, 1, r#""ev":"#),
            (r#""ts" 1"#, 0, r#""ts" 1"#),
        ] {
            let mut it = fields(body);
            assert_eq!(it.by_ref().count(), read, "{body}");
            assert_eq!(it.rest(), rest, "{body}");
        }
    }
}
