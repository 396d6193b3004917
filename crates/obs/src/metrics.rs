//! The metrics registry: named atomic counters, gauges and fixed-bucket
//! histograms.
//!
//! Recording is the hot path — a relaxed atomic add, no locks, no
//! allocation — so shard workers can instrument every forecast without
//! paying for it. Registration and snapshotting take a short mutex on
//! the name tables only; the handles they return are plain `Arc`s to
//! atomics, so readers never contend with writers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default histogram bucket upper bounds for latencies, in nanoseconds:
/// a 1-2-5 series from 1 µs to 10 s. Fine enough for microsecond
/// forecasts and coarse enough for second-scale refits in one layout,
/// which keeps every latency histogram in the workspace mergeable.
pub const LATENCY_BOUNDS_NS: [u64; 22] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
];

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    // hot-path: one relaxed atomic add, no locks or allocation.
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    // hot-path: one relaxed atomic add, no locks or allocation.
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, entity counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    // hot-path: one relaxed atomic add, no locks or allocation.
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    // hot-path: one relaxed atomic sub, no locks or allocation.
    /// Subtract one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    // hot-path: one relaxed atomic add, no locks or allocation.
    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Current value clamped to zero — for gauges that are logically
    /// non-negative (queue depths) but may transiently dip under
    /// relaxed concurrent updates.
    pub fn get_non_negative(&self) -> u64 {
        self.get().max(0) as u64
    }
}

/// A fixed-bucket histogram of `u64` samples (typically nanoseconds).
///
/// Bucket `i` counts samples `<= bounds[i]`; one extra overflow bucket
/// counts everything beyond the last bound. Count, sum, min and max are
/// tracked exactly; quantiles are estimated from the bucket layout
/// (nearest-rank, resolved to the matching bucket's upper bound and
/// clamped into the exact `[min, max]` envelope).
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[u64]>,
    /// `bounds.len() + 1` slots; the last is the overflow bucket.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A histogram over the given bucket upper bounds. Bounds are
    /// sorted and deduplicated; an empty slice yields a single
    /// overflow bucket (count/sum/min/max still exact).
    pub fn with_bounds(bounds: &[u64]) -> Self {
        let mut sorted: Vec<u64> = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let buckets: Vec<AtomicU64> = (0..sorted.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds: sorted.into_boxed_slice(),
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The workspace-standard latency histogram
    /// ([`LATENCY_BOUNDS_NS`]).
    pub fn latency() -> Self {
        Self::with_bounds(&LATENCY_BOUNDS_NS)
    }

    // hot-path: a short bounded scan plus relaxed atomic adds — no
    // locks, no allocation, no timing calls.
    /// Record one sample.
    pub fn record(&self, value: u64) {
        let mut idx = 0;
        while idx < self.bounds.len() && value > self.bounds[idx] {
            idx += 1;
        }
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the bucket state. Under concurrent
    /// recording the copy is racy-but-monotone: it never shows a sample
    /// that was not recorded.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets = self
            .bounds
            .iter()
            .zip(self.buckets.iter())
            .map(|(&le, c)| (le, c.load(Ordering::Relaxed)))
            .collect();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: (count > 0).then(|| self.min.load(Ordering::Relaxed)),
            max: (count > 0).then(|| self.max.load(Ordering::Relaxed)),
            buckets,
            overflow: self.buckets[self.bounds.len()].load(Ordering::Relaxed),
        }
    }

    /// Estimated `q`-quantile of everything recorded so far.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile(q)
    }
}

/// Immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Exact smallest sample (`None` before the first record).
    pub min: Option<u64>,
    /// Exact largest sample.
    pub max: Option<u64>,
    /// `(upper bound, samples <= bound and > previous bound)` pairs in
    /// ascending bound order.
    pub buckets: Vec<(u64, u64)>,
    /// Samples beyond the last bound.
    pub overflow: u64,
}

impl HistogramSnapshot {
    /// Nearest-rank `q`-quantile estimate: the upper bound of the bucket
    /// holding the ranked sample, clamped into the exact `[min, max]`
    /// envelope (so `quantile(1.0)` is the true max). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let (min, max) = (self.min?, self.max?);
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(le, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(le.clamp(min, max));
            }
        }
        Some(max)
    }

    /// Mean of all samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// Name tables behind the registry mutex.
#[derive(Debug, Default)]
struct Tables {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A process-wide (or service-wide) collection of named metrics.
///
/// `counter` / `gauge` / `histogram` are get-or-create: requesting the
/// same name twice returns the same handle, so independent components
/// can share a metric without coordinating. The mutex guards only the
/// name tables — recording through a returned handle never locks.
#[derive(Debug, Default)]
pub struct Registry {
    tables: Mutex<Tables>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lock the name tables, recovering from poisoning: the tables are
    /// only ever maps of handles and stay usable after an unwind.
    fn tables(&self) -> MutexGuard<'_, Tables> {
        self.tables
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&mut self.tables().counters, name, Arc::default)
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&mut self.tables().gauges, name, Arc::default)
    }

    /// Get or create the histogram named `name`. The bounds apply only
    /// on first creation; later calls return the existing histogram
    /// unchanged.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        get_or_insert(&mut self.tables().histograms, name, || {
            Arc::new(Histogram::with_bounds(bounds))
        })
    }

    /// Get or create a latency histogram ([`LATENCY_BOUNDS_NS`]).
    pub fn latency_histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram(name, &LATENCY_BOUNDS_NS)
    }

    /// Point-in-time copy of every registered metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let tables = self.tables();
        MetricsSnapshot {
            counters: tables
                .counters
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: tables
                .gauges
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: tables
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// The handle registered under `name`, created by `make` on first use. A
/// hit is one map lookup: the name is copied only when it is inserted.
fn get_or_insert<T>(
    table: &mut BTreeMap<String, Arc<T>>,
    name: &str,
    make: impl FnOnce() -> Arc<T>,
) -> Arc<T> {
    if let Some(found) = table.get(name) {
        return Arc::clone(found);
    }
    Arc::clone(table.entry(name.to_string()).or_insert_with(make))
}

/// Point-in-time copy of a [`Registry`], in deterministic name order —
/// the exporters' input.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("reqs");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("reqs").get(), 5, "same name, same handle");
        let g = r.gauge("depth");
        g.inc();
        g.inc();
        g.dec();
        g.add(-5);
        assert_eq!(g.get(), -4);
        assert_eq!(g.get_non_negative(), 0);
    }

    #[test]
    fn histogram_buckets_count_and_exact_envelope() {
        let h = Histogram::with_bounds(&[10, 100, 1000]);
        for v in [1, 9, 10, 11, 100, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1 + 9 + 10 + 11 + 100 + 5000);
        assert_eq!(s.min, Some(1));
        assert_eq!(s.max, Some(5000));
        assert_eq!(s.buckets, vec![(10, 3), (100, 2), (1000, 0)]);
        assert_eq!(s.overflow, 1);
    }

    #[test]
    fn quantiles_are_monotone_and_clamped() {
        let h = Histogram::with_bounds(&[10, 100, 1000]);
        for v in [5, 6, 7, 8, 500] {
            h.record(v);
        }
        let p50 = h.quantile(0.5).expect("non-empty");
        let p99 = h.quantile(0.99).expect("non-empty");
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        assert_eq!(h.quantile(1.0), Some(500), "q=1 is the exact max");
        assert_eq!(h.quantile(0.0), Some(10).map(|b: u64| b.clamp(5, 500)));
        assert_eq!(Histogram::latency().quantile(0.5), None, "empty → None");
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new();
        r.counter("z");
        r.counter("a");
        r.gauge("m");
        r.latency_histogram("h");
        let s = r.snapshot();
        assert_eq!(
            s.counters
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "z"]
        );
        assert_eq!(s.gauges.len(), 1);
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms[0].1.buckets.len(), LATENCY_BOUNDS_NS.len());
    }
}
