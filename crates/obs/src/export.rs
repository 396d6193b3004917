//! Snapshot exporters: deterministic text and JSON renderings of a
//! [`MetricsSnapshot`] and the journal.
//!
//! Both renderers emit integers only and walk names in sorted order, so
//! the same registry state always produces byte-identical output —
//! which is what lets the golden-fixture tests compare exporter output
//! with a plain byte equality.

use crate::journal::Journal;
use crate::metrics::MetricsSnapshot;
use std::fmt::Write as _;

/// Render a snapshot as a human-readable text block: one line per
/// counter and gauge, a summary line plus indented bucket lines per
/// histogram. Quantiles come from
/// [`HistogramSnapshot::quantile`](crate::metrics::HistogramSnapshot::quantile);
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
/// order.
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
