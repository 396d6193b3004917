//! Sharded online prediction service for fleets of monitored entities.
//!
//! The offline pipeline in `rptcn` fits one predictor per container; this
//! crate turns that into a serving system for thousands of them:
//!
//! - **Sharding** ([`router`]): entity ids hash (FNV-1a) to a fixed shard,
//!   so one thread owns each entity and its messages stay FIFO-ordered.
//! - **Backpressure** ([`service`]): shard queues are bounded; callers
//!   choose between blocking and fail-fast [`ServeError::QueueFull`].
//! - **Shadow refits** ([`shard`](crate::service)): when an entity's refit
//!   cadence fires, the shard ships its history to a background training
//!   pool and keeps serving from the old model; the replacement is
//!   validated and swapped in between messages — ingest never blocks on
//!   training.
//! - **Supervision** ([`supervisor`]): shard workers run under
//!   `catch_unwind`; a panicking model restarts the shard loop with the
//!   surviving entities intact, degrades the culprit and counts the
//!   restart.
//! - **Degraded mode** ([`fallback`]): entities whose model errors,
//!   panics or emits non-finite values are served by an always-warm naive
//!   forecaster, and auto-recover on the next clean refit.
//! - **One model run per sample** (`memo`): a shard keeps each healthy
//!   entity's model forecast beside its predictor until the predictor is
//!   written, so forecast, interval and reservation reads between two
//!   samples are lookups, bitwise what the model path returns.
//! - **Ingest guardrails**: samples are validated at the shard boundary —
//!   NaN/Inf values repaired or quarantined, wrong arity dropped,
//!   sequence gaps forward-filled (the paper's cleaning step, online).
//! - **Probabilistic serving** ([`interval`]): every forecast can carry a
//!   split-conformal interval calibrated from the entity's rolling ingest
//!   residuals (two scalar offsets — zero extra allocations on the
//!   streaming path), and [`service::PredictionService::reserve`] turns
//!   interval + cost model into a Bayesian capacity reservation with
//!   scale-down hysteresis. Degraded entities answer from a journaled
//!   last-good interval, never an uncovered point estimate.
//! - **Fault injection** ([`faults`]): a seeded, deterministic
//!   [`FaultPlan`] drives chaos tests — poisoned samples, panicking
//!   models, failing/slow refits, saturated queues.
//! - **Checkpointing** ([`checkpoint`]): the full fleet (weights,
//!   preprocessing state, history) round-trips through a versioned binary
//!   file, and restored services resume bit-identical forecasts.
//! - **Observability** ([`stats`]): per-shard ingest/forecast/refit
//!   counters, restart/degraded/quarantine counters, queue depths, latency
//!   histograms and rolling online accuracy — all registered in an
//!   `obs::Registry` (exportable as text/JSON), with a bounded
//!   `obs::Journal` of operational events and an injectable `obs::Clock`
//!   so every timing-dependent test can run on virtual time.

pub mod checkpoint;
pub mod dedup;
pub mod error;
pub mod fallback;
pub mod faults;
pub mod interval;
mod memo;
pub mod router;
pub mod service;
mod shard;
pub mod stats;
pub mod supervisor;

pub use checkpoint::{load_fleet, save_fleet, FLEET_MAGIC, FLEET_VERSION};
pub use dedup::DedupCache;
pub use error::ServeError;
pub use fallback::FallbackForecaster;
pub use faults::FaultPlan;
pub use interval::{IntervalForecast, IntervalSource, Reservation};
pub use router::{entity_hash, group_by_shard, shard_for};
pub use service::{Backpressure, IngestGuard, PredictionService, RefitPolicy, ServiceConfig};
pub use stats::{lock_recover, EntityHealth, ServiceStats, ShardStats};
pub use supervisor::EntityHealthReport;
