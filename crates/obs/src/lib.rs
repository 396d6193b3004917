//! `rptcn-obs` — the workspace's observability layer.
//!
//! Online-prediction systems are operated by their telemetry: latency
//! percentiles, restart counters and fault trails are how an operator
//! tells a healthy fleet from a limping one. This crate supplies that
//! layer without pulling in a single external dependency:
//!
//! * **Metrics** ([`metrics`]): a [`Registry`] of named atomic
//!   [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s. Recording
//!   is allocation-free and lock-free — safe on the forecast hot path —
//!   while snapshots walk the registry without stopping writers.
//! * **Spans** ([`span`]): RAII timers that fold wall-clock durations
//!   into a histogram through an injected [`Clock`], so span-based
//!   latency tracking is testable with a virtual clock.
//! * **Event journal** ([`journal`]): a bounded ring buffer of
//!   operational events (shard restarts, degradations, refit rollbacks,
//!   quarantines, batch forecasts) with entity/shard attribution —
//!   queryable, lock-cheap, and deterministic under a [`SimClock`].
//! * **Clocks** ([`clock`]): the [`Clock`] trait with a production
//!   [`MonotonicClock`] and a manually-advanced [`SimClock`] that turns
//!   every timing-dependent test deterministic and instant.
//! * **Exporters** ([`export`]): text and JSON snapshot renderers with a
//!   deterministic field order.

// R2: no panics outside tests.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
// R4 and R7: poison-safe locks and deterministic replay (clippy.toml).
#![warn(clippy::disallowed_methods, clippy::iter_over_hash_type)]
// R5: documented public API.
#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod journal;
pub mod metrics;
pub mod span;

pub use clock::{Clock, MonotonicClock, SharedClock, SimClock};
pub use export::{journal_text, to_json, to_text};
pub use journal::{Event, EventKind, Journal};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use span::Span;
