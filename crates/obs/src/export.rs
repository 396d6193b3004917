//! Snapshot exporters: deterministic text and JSON renderings of a
//! [`MetricsSnapshot`] and the journal, plus a minimal JSON parser so
//! exported snapshots can be round-trip-checked without external
//! crates.
//!
//! Both renderers emit integers only and walk names in sorted order, so
//! the same registry state always produces byte-identical output —
//! which is what lets the golden-fixture tests compare exporter output
//! with a plain byte equality.

use crate::journal::Journal;
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use std::fmt::Write as _;

/// Render a snapshot as a human-readable text block: one line per
/// counter and gauge, a summary line plus indented bucket lines per
/// histogram. Quantiles come from [`HistogramSnapshot::quantile`];
/// empty histograms print `-` for min/max/p50/p99.
pub fn to_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let _ = writeln!(out, "counter {name} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let _ = writeln!(out, "gauge {name} {value}");
    }
    for (name, h) in &snapshot.histograms {
        let _ = writeln!(
            out,
            "histogram {name} count={} sum={} min={} max={} p50={} p99={}",
            h.count,
            h.sum,
            opt(h.min),
            opt(h.max),
            opt(h.quantile(0.5)),
            opt(h.quantile(0.99)),
        );
        for &(le, n) in &h.buckets {
            let _ = writeln!(out, "  le={le}: {n}");
        }
        let _ = writeln!(out, "  overflow: {}", h.overflow);
    }
    out
}

/// Render an optional integer as text (`-` when absent).
fn opt(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "-".to_string(),
    }
}

/// Render a snapshot as a single-line JSON object:
/// `{"counters":{..},"gauges":{..},"histograms":{..}}` with histogram
/// buckets as `[le, count]` pairs. Integers only, names in sorted
/// order; [`from_json`] parses this format back.
pub fn to_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{value}", json_string(name));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, value)) in snapshot.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{value}", json_string(name));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
            json_string(name),
            h.count,
            h.sum,
            json_opt(h.min),
            json_opt(h.max),
        );
        for (j, &(le, n)) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{le},{n}]");
        }
        let _ = write!(out, "],\"overflow\":{}}}", h.overflow);
    }
    out.push_str("}}");
    out
}

/// Render an optional integer as JSON (`null` when absent).
fn json_opt(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

/// Quote and escape a string for JSON.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// Render the journal as text, oldest first: one
/// `at=<nanos> kind=<name> shard=<n|-> entity=<id|-> <detail>` line per
/// event, with a trailing `overwritten=<n>` line when events were lost.
// lint: allow(r10) test: golden_snapshots.rs pins the journal rendering
pub fn journal_text(journal: &Journal) -> String {
    let mut out = String::new();
    for event in journal.events() {
        let _ = writeln!(
            out,
            "at={} kind={} shard={} entity={} {}",
            event.at_nanos,
            event.kind.name(),
            match event.shard {
                Some(s) => s.to_string(),
                None => "-".to_string(),
            },
            event.entity.as_deref().unwrap_or("-"),
            event.detail,
        );
    }
    let overwritten = journal.overwritten();
    if overwritten > 0 {
        let _ = writeln!(out, "overwritten={overwritten}");
    }
    out
}

/// A parsed JSON value — the minimal model needed to re-read exported
/// snapshots.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any numeric literal, as f64 (exact for the integer ranges the
    /// exporters emit).
    Number(f64),
    /// A string literal, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member of an object by key, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a u64, if it is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// This value as an i64, if it is an integer number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Number(n) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        }
    }
}

/// Parse a JSON document. Returns `None` on any syntax error or
/// trailing garbage. Supports the full value grammar the exporters
/// emit (objects, arrays, strings with basic escapes, integers,
/// `null`, booleans).
pub fn parse_json(input: &str) -> Option<JsonValue> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    (pos == bytes.len()).then_some(value)
}

/// Parse an exported snapshot back into a [`MetricsSnapshot`] — the
/// inverse of [`to_json`] (quantiles are re-derived, not stored).
// lint: allow(r10) test: golden_snapshots.rs parses the exporter's output back
pub fn from_json(input: &str) -> Option<MetricsSnapshot> {
    let root = parse_json(input)?;
    let pairs = |key: &str| -> Option<&Vec<(String, JsonValue)>> {
        match root.get(key)? {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    };
    let counters = pairs("counters")?
        .iter()
        .map(|(name, v)| Some((name.clone(), v.as_u64()?)))
        .collect::<Option<Vec<_>>>()?;
    let gauges = pairs("gauges")?
        .iter()
        .map(|(name, v)| Some((name.clone(), v.as_i64()?)))
        .collect::<Option<Vec<_>>>()?;
    let histograms = pairs("histograms")?
        .iter()
        .map(|(name, v)| Some((name.clone(), histogram_from_json(v)?)))
        .collect::<Option<Vec<_>>>()?;
    Some(MetricsSnapshot {
        counters,
        gauges,
        histograms,
    })
}

/// Rebuild one histogram snapshot from its exported JSON object.
fn histogram_from_json(v: &JsonValue) -> Option<HistogramSnapshot> {
    let opt_u64 = |key: &str| -> Option<Option<u64>> {
        match v.get(key)? {
            JsonValue::Null => Some(None),
            other => Some(Some(other.as_u64()?)),
        }
    };
    let buckets = match v.get("buckets")? {
        JsonValue::Array(items) => items
            .iter()
            .map(|pair| match pair {
                JsonValue::Array(le_n) if le_n.len() == 2 => {
                    Some((le_n[0].as_u64()?, le_n[1].as_u64()?))
                }
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    Some(HistogramSnapshot {
        count: v.get("count")?.as_u64()?,
        sum: v.get("sum")?.as_u64()?,
        min: opt_u64("min")?,
        max: opt_u64("max")?,
        buckets,
        overflow: v.get("overflow")?.as_u64()?,
    })
}

/// Advance past ASCII whitespace.
fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Consume `expected` at the cursor or fail.
fn expect(bytes: &[u8], pos: &mut usize, expected: u8) -> Option<()> {
    if *pos < bytes.len() && bytes[*pos] == expected {
        *pos += 1;
        Some(())
    } else {
        None
    }
}

/// Parse one JSON value starting at the cursor.
fn parse_value(bytes: &[u8], pos: &mut usize) -> Option<JsonValue> {
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'{' => parse_object(bytes, pos),
        b'[' => parse_array(bytes, pos),
        b'"' => Some(JsonValue::String(parse_string(bytes, pos)?)),
        b't' => parse_literal(bytes, pos, b"true", JsonValue::Bool(true)),
        b'f' => parse_literal(bytes, pos, b"false", JsonValue::Bool(false)),
        b'n' => parse_literal(bytes, pos, b"null", JsonValue::Null),
        _ => parse_number(bytes, pos),
    }
}

/// Parse a fixed keyword literal.
fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &[u8],
    value: JsonValue,
) -> Option<JsonValue> {
    if bytes.len() - *pos >= word.len() && &bytes[*pos..*pos + word.len()] == word {
        *pos += word.len();
        Some(value)
    } else {
        None
    }
}

/// Parse `{...}` with the cursor on the opening brace.
fn parse_object(bytes: &[u8], pos: &mut usize) -> Option<JsonValue> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(JsonValue::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        members.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(JsonValue::Object(members));
            }
            _ => return None,
        }
    }
}

/// Parse `[...]` with the cursor on the opening bracket.
fn parse_array(bytes: &[u8], pos: &mut usize) -> Option<JsonValue> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(JsonValue::Array(items));
            }
            _ => return None,
        }
    }
}

/// Parse a quoted string with the cursor on the opening quote.
fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    expect(bytes, pos, b'"')?;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).ok();
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos)? {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let hex = bytes.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.extend_from_slice(char::from_u32(code)?.to_string().as_bytes());
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            &b => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}

/// Parse a numeric literal (optional sign, digits, optional fraction).
fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<JsonValue> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if *pos == start {
        return None;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .map(JsonValue::Number)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::EventKind;
    use crate::metrics::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("reqs").add(7);
        r.gauge("depth").set(-2);
        let h = r.histogram("lat", &[10, 100]);
        h.record(5);
        h.record(50);
        h.record(500);
        r
    }

    #[test]
    fn text_and_json_are_deterministic() {
        let a = sample_registry();
        let b = sample_registry();
        assert_eq!(to_text(&a.snapshot()), to_text(&b.snapshot()));
        assert_eq!(to_json(&a.snapshot()), to_json(&b.snapshot()));
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let snapshot = sample_registry().snapshot();
        let parsed = from_json(&to_json(&snapshot)).expect("valid JSON");
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1}x", "nul"] {
            assert!(parse_json(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parser_handles_escapes_and_negatives() {
        let v = parse_json(r#"{"a\n\"b":[-3,null,true,"A"]}"#).expect("valid");
        let arr = v.get("a\n\"b").expect("escaped key resolves");
        match arr {
            JsonValue::Array(items) => {
                assert_eq!(items[0].as_i64(), Some(-3));
                assert_eq!(items[1], JsonValue::Null);
                assert_eq!(items[2], JsonValue::Bool(true));
                assert_eq!(items[3], JsonValue::String("A".to_string()));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn journal_text_lists_events_and_losses() {
        let j = crate::journal::Journal::new(2);
        j.emit(
            5,
            EventKind::Degraded,
            Some(1),
            Some("vm-9"),
            "fallback".into(),
        );
        j.emit(6, EventKind::Recovered, Some(1), None, "refit ok".into());
        j.emit(7, EventKind::Checkpoint, None, None, "saved".into());
        let text = journal_text(&j);
        assert_eq!(
            text,
            "at=6 kind=recovered shard=1 entity=- refit ok\n\
             at=7 kind=checkpoint shard=- entity=- saved\n\
             overwritten=1\n"
        );
    }
}
