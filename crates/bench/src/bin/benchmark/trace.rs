//! Benchmark-side spans. Every span wraps one call into a public
//! function of one layer; the traced run replays the same request at each
//! layer boundary, from the outermost call inwards, and links each replay
//! to the span one layer up as its parent. Spans of one request share a
//! `req` id. Spans stay in memory and are written out once, on exit.
//!
//! Self time is an onion: a layer's own span minus the spans of its
//! child layers for the same request. Because replays run one after
//! another (the layers are not instrumented from inside yet), "the part
//! of the interval its children cover" is the children's own duration.
//! Per layer the table reports `median(own) - sum(median(child))`, which
//! telescopes: the self times of a chain add up to the root's median.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::median;

/// Index of a recorded span, used as the parent link.
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub req: u32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span sink. A disabled tracer still runs the closure, so the
/// same code path serves the untraced reference ticks.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name` for request `req`, caused by
    /// `parent`. Returns `f`'s value and the span's id (`None` while
    /// disabled).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u32,
        f: impl FnOnce() -> T,
    ) -> (T, Option<SpanId>) {
        if !self.enabled {
            return (f(), None);
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        (out, Some((self.spans.len() - 1) as SpanId))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `{name, start_ns, end_ns, parent, req}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out
    }
}

/// One row of the per-layer table derived from spans.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    /// Requests that produced at least one span of this layer.
    pub requests: usize,
    /// Median over requests of the layer's total span time per request.
    pub median_ns: f64,
    /// `median_ns` minus the medians of the child layers.
    pub self_ns: f64,
    /// Layers whose spans name this layer's spans as parent.
    pub children: Vec<&'static str>,
    pub parent: Option<&'static str>,
}

/// Fold spans into per-layer rows. A request's figure for a layer is the
/// sum of that layer's spans for the request (a batch that the router
/// splits over two nodes has two wire spans; they add).
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let mut per_req: BTreeMap<&'static str, BTreeMap<u32, u64>> = BTreeMap::new();
    let mut parents: BTreeMap<&'static str, &'static str> = BTreeMap::new();
    for s in spans {
        *per_req.entry(s.name).or_default().entry(s.req).or_default() += s.nanos();
        if let Some(p) = s.parent {
            parents.insert(s.name, spans[p as usize].name);
        }
    }
    let medians: BTreeMap<&'static str, f64> = per_req
        .iter()
        .map(|(name, reqs)| {
            let totals: Vec<f64> = reqs.values().map(|&ns| ns as f64).collect();
            (*name, median(&totals))
        })
        .collect();
    per_req
        .iter()
        .map(|(name, reqs)| {
            let children: Vec<&'static str> = parents
                .iter()
                .filter(|(_, parent)| *parent == name)
                .map(|(child, _)| *child)
                .collect();
            let covered: f64 = children.iter().map(|c| medians[c]).sum();
            LayerRow {
                name,
                requests: reqs.len(),
                median_ns: medians[name],
                self_ns: medians[name] - covered,
                children,
                parent: parents.get(name).copied(),
            }
        })
        .collect()
}

/// The stage table of one request kind: every layer reachable from
/// `root`, outermost first, with its self time. The self times sum to the
/// root's median by construction; what the table shows is where the time
/// sits and whether any layer came out negative (replay noise, or a
/// layer that is cheaper reached from outside than from its twin).
pub fn stage_chain(rows: &[LayerRow], root: &str) -> Vec<LayerRow> {
    let mut chain = Vec::new();
    let mut frontier = vec![root.to_string()];
    while let Some(name) = frontier.pop() {
        if let Some(row) = rows.iter().find(|r| r.name == name) {
            frontier.extend(row.children.iter().rev().map(|c| c.to_string()));
            chain.push(row.clone());
        }
    }
    chain
}

/// Negative self times larger than this share of the whole are flagged.
pub const NEGATIVE_SELF_FLAG: f64 = 0.05;

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, dur: u64, parent: Option<SpanId>, req: u32) -> Span {
        Span {
            name,
            start_ns: 0,
            end_ns: dur,
            parent,
            req,
        }
    }

    #[test]
    fn tracer_records_parent_links_and_skips_when_disabled() {
        let mut t = Tracer::new(true);
        let (v, root) = t.span("outer", None, 7, || 41 + 1);
        assert_eq!(v, 42);
        let (_, child) = t.span("inner", root, 7, || ());
        assert_eq!(t.spans()[child.unwrap() as usize].parent, root);
        t.set_enabled(false);
        let (v, id) = t.span("outer", None, 8, || 5);
        assert_eq!((v, id), (5, None));
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.to_jsonl().lines().count(), 2);
        assert!(t.to_jsonl().contains("\"parent\": 0, \"req\": 7"));
    }

    #[test]
    fn self_time_is_own_minus_children_and_telescopes() {
        // Three requests through a chain a -> b -> {c, d}.
        let mut spans = Vec::new();
        for (req, (a, b, c, d)) in [(100, 60, 20, 10), (120, 70, 30, 10), (110, 65, 25, 10)]
            .into_iter()
            .enumerate()
        {
            let base = spans.len() as SpanId;
            spans.push(span("a", a, None, req as u32));
            spans.push(span("b", b, Some(base), req as u32));
            spans.push(span("c", c, Some(base + 1), req as u32));
            spans.push(span("d", d, Some(base + 1), req as u32));
        }
        let rows = layer_table(&spans);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("a").median_ns, 110.0);
        assert_eq!(get("a").self_ns, 110.0 - 65.0);
        assert_eq!(get("b").self_ns, 65.0 - 25.0 - 10.0);
        assert_eq!(get("c").self_ns, 25.0);
        assert_eq!(get("b").children, vec!["c", "d"]);
        assert_eq!(get("c").parent, Some("b"));
        let chain = stage_chain(&rows, "a");
        assert_eq!(
            chain.iter().map(|r| r.name).collect::<Vec<_>>(),
            vec!["a", "b", "c", "d"]
        );
        let sum: f64 = chain.iter().map(|r| r.self_ns).sum();
        assert_eq!(sum, get("a").median_ns);
    }

    #[test]
    fn spans_of_one_layer_and_request_add_up() {
        // A batch split over two nodes: two wire spans under one router span.
        let spans = vec![
            span("router", 100, None, 0),
            span("wire", 30, Some(0), 0),
            span("wire", 40, Some(0), 0),
        ];
        let rows = layer_table(&spans);
        let wire = rows.iter().find(|r| r.name == "wire").unwrap();
        assert_eq!(wire.median_ns, 70.0);
        assert_eq!(wire.requests, 1);
        let router = rows.iter().find(|r| r.name == "router").unwrap();
        assert_eq!(router.self_ns, 30.0);
    }

    #[test]
    fn a_child_slower_than_its_parent_shows_as_negative_self_time() {
        let spans = vec![span("outer", 50, None, 0), span("inner", 80, Some(0), 0)];
        let rows = layer_table(&spans);
        let outer = rows.iter().find(|r| r.name == "outer").unwrap();
        assert_eq!(outer.self_ns, -30.0);
        assert!(-outer.self_ns / outer.median_ns > NEGATIVE_SELF_FLAG);
    }
}
