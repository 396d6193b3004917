//! Service observability: per-shard counters, forecast-latency percentiles
//! and rolling online accuracy, all readable without stopping the shards.
//!
//! Counters, gauges and latency histograms are `obs` metrics registered
//! in the service's [`obs::Registry`] under `shard{N}.*` names, so the
//! whole fleet can be exported as one snapshot (`obs::to_text` /
//! `obs::to_json`) while this module keeps serving the typed
//! [`ShardStats`] view. The shard worker owns the hot path, so every
//! write here is either a relaxed atomic op on an `obs` handle or a short
//! mutex hold on data only the shard thread writes — the stats reader
//! never contends with ingestion.
//!
//! Fault-tolerance counters live here too: shard restarts, entities in
//! degraded mode, fallback forecasts, repaired/quarantined samples and
//! refit failures/timeouts — everything an operator needs to see whether
//! the fleet is healthy or limping.

use std::sync::{Arc, Mutex, MutexGuard};

use obs::{Counter, Gauge, Histogram, Registry};

/// Serving health of one entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityHealth {
    /// The fitted model is serving forecasts normally.
    Healthy,
    /// The model crashed or produced a non-finite forecast; the entity is
    /// served by the naive fallback until a clean refit restores it.
    Degraded,
}

/// Lock a stats mutex, recovering from poisoning: a panicking shard must
/// not take observability down with it — the guarded data is only ever a
/// counter accumulator and stays usable after an unwind. Public so the
/// distributed tier (`rptcn-net`) shares the same blessed acquisition
/// path instead of minting its own bare `.lock()` calls.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner()) // lint: allow(r4) — the one blessed bare lock
}

/// Rolling online-accuracy accumulator: forecasts scored against the
/// ground truth that arrives one interval later.
#[derive(Debug, Default)]
pub struct ScoreAccum {
    pub abs_err_sum: f64,
    pub sq_err_sum: f64,
    pub scored: u64,
}

impl ScoreAccum {
    /// Fold one (forecast, later-arriving truth) pair into the error sums.
    pub fn score(&mut self, forecast: f32, actual: f32) {
        let err = (forecast - actual) as f64;
        self.abs_err_sum += err.abs();
        self.sq_err_sum += err * err;
        self.scored += 1;
    }

    /// Mean absolute error over everything scored so far (0.0 if nothing).
    pub fn mae(&self) -> f64 {
        if self.scored == 0 {
            0.0
        } else {
            self.abs_err_sum / self.scored as f64
        }
    }

    /// Mean squared error over everything scored so far (0.0 if nothing).
    pub fn mse(&self) -> f64 {
        if self.scored == 0 {
            0.0
        } else {
            self.sq_err_sum / self.scored as f64
        }
    }
}

/// Live metric handles shared between one shard worker and the stats
/// reader. Every handle is registered under `shard{N}.<field>` in the
/// service registry, so the same numbers are visible both through
/// [`ShardStats`] and through an exported `obs` snapshot.
#[derive(Debug)]
pub struct ShardStatsCore {
    pub entities: Arc<Gauge>,
    pub ingested: Arc<Counter>,
    pub forecasts: Arc<Counter>,
    pub refits_started: Arc<Counter>,
    pub refits_completed: Arc<Counter>,
    /// Samples not applied because the queue was full under `Reject`.
    pub rejected: Arc<Counter>,
    /// Ingests addressed to an entity this shard has never installed.
    pub unknown_entity_ingests: Arc<Counter>,
    /// Messages currently queued for this shard.
    pub queue_depth: Arc<Gauge>,
    /// Times the supervisor restarted this shard's worker loop after a
    /// panic escaped message processing.
    pub restarts: Arc<Counter>,
    /// Entities currently in degraded (fallback-serving) mode.
    pub degraded: Arc<Gauge>,
    /// Forecasts answered by the naive fallback instead of the model.
    pub fallback_forecasts: Arc<Counter>,
    /// Forecasts answered through a batched (multi-entity) engine call.
    pub batched_forecasts: Arc<Counter>,
    /// Batched engine calls issued (each covers ≥2 entities).
    pub batch_calls: Arc<Counter>,
    /// Forecast reads answered from the entity's memo — its state had not
    /// changed since the last model run — instead of running the model.
    /// `memo_hits / forecasts` is the share of reads that cost a lookup.
    pub memo_hits: Arc<Counter>,
    /// Samples with non-finite values repaired by forward-filling the last
    /// valid observation at the shard boundary.
    pub repaired_samples: Arc<Counter>,
    /// Samples dropped at the shard boundary (wrong arity, unrepairable,
    /// or stale sequence numbers).
    pub quarantined_samples: Arc<Counter>,
    /// Missing samples detected through sequence-number gaps.
    pub gap_samples: Arc<Counter>,
    /// Background refits that failed every attempt.
    pub refit_failures: Arc<Counter>,
    /// Background refits abandoned at the configured deadline.
    pub refit_timeouts: Arc<Counter>,
    /// Refit replacements rejected because they could not produce a finite
    /// forecast on the live history.
    pub refits_rejected: Arc<Counter>,
    /// Interval forecasts answered (live conformal offsets).
    pub interval_forecasts: Arc<Counter>,
    /// Interval requests on degraded entities answered from the last-good
    /// interval instead of a live point estimate.
    pub interval_fallbacks: Arc<Counter>,
    /// Capacity reservations decided.
    pub reservations: Arc<Counter>,
    /// Reservation scale-up actions executed.
    pub scale_ups: Arc<Counter>,
    /// Reservation scale-down actions executed (post-hysteresis).
    pub scale_downs: Arc<Counter>,
    /// Per-forecast serving latency (nanoseconds): one record per answered
    /// forecast read, memo hits included (a hit records the lookup), so the
    /// percentiles describe what callers wait for, not what a model run
    /// costs. Rows of a stacked call record the call's time split evenly.
    pub forecast_ns: Arc<Histogram>,
    /// Per-sample ingest processing latency (nanoseconds).
    pub ingest_ns: Arc<Histogram>,
    /// End-to-end background refit duration (nanoseconds), including
    /// retries and backoff.
    pub refit_ns: Arc<Histogram>,
    /// Supervisor restart handling latency (nanoseconds): culprit
    /// quarantine, predictor rebuild and recovery-refit dispatch.
    pub restart_ns: Arc<Histogram>,
    pub score: Mutex<ScoreAccum>,
}

impl ShardStatsCore {
    /// Metric handles for shard `shard`, registered in `registry` under
    /// `shard{shard}.*` names.
    pub fn new(registry: &Registry, shard: usize) -> Self {
        let counter = |field: &str| registry.counter(&format!("shard{shard}.{field}"));
        let gauge = |field: &str| registry.gauge(&format!("shard{shard}.{field}"));
        let latency = |field: &str| registry.latency_histogram(&format!("shard{shard}.{field}"));
        Self {
            entities: gauge("entities"),
            ingested: counter("ingested"),
            forecasts: counter("forecasts"),
            refits_started: counter("refits_started"),
            refits_completed: counter("refits_completed"),
            rejected: counter("rejected"),
            unknown_entity_ingests: counter("unknown_entity_ingests"),
            queue_depth: gauge("queue_depth"),
            restarts: counter("restarts"),
            degraded: gauge("degraded"),
            fallback_forecasts: counter("fallback_forecasts"),
            batched_forecasts: counter("batched_forecasts"),
            batch_calls: counter("batch_calls"),
            memo_hits: counter("memo_hits"),
            repaired_samples: counter("repaired_samples"),
            quarantined_samples: counter("quarantined_samples"),
            gap_samples: counter("gap_samples"),
            refit_failures: counter("refit_failures"),
            refit_timeouts: counter("refit_timeouts"),
            refits_rejected: counter("refits_rejected"),
            interval_forecasts: counter("interval_forecasts"),
            interval_fallbacks: counter("interval_fallbacks"),
            reservations: counter("reservations"),
            scale_ups: counter("scale_ups"),
            scale_downs: counter("scale_downs"),
            forecast_ns: latency("forecast_ns"),
            ingest_ns: latency("ingest_ns"),
            refit_ns: latency("refit_ns"),
            restart_ns: latency("restart_ns"),
            score: Mutex::new(ScoreAccum::default()),
        }
    }

    /// Point-in-time snapshot for shard `shard`.
    pub fn snapshot(&self, shard: usize) -> ShardStats {
        let latency = self.forecast_ns.snapshot();
        let (mae, mse, scored) = {
            let score = lock_recover(&self.score);
            (score.mae(), score.mse(), score.scored)
        };
        ShardStats {
            shard,
            entities: self.entities.get_non_negative() as usize,
            ingested: self.ingested.get(),
            forecasts: self.forecasts.get(),
            refits_started: self.refits_started.get(),
            refits_completed: self.refits_completed.get(),
            rejected: self.rejected.get(),
            unknown_entity_ingests: self.unknown_entity_ingests.get(),
            queue_depth: self.queue_depth.get_non_negative() as usize,
            restarts: self.restarts.get(),
            degraded: self.degraded.get_non_negative() as usize,
            fallback_forecasts: self.fallback_forecasts.get(),
            batched_forecasts: self.batched_forecasts.get(),
            batch_calls: self.batch_calls.get(),
            memo_hits: self.memo_hits.get(),
            repaired_samples: self.repaired_samples.get(),
            quarantined_samples: self.quarantined_samples.get(),
            gap_samples: self.gap_samples.get(),
            refit_failures: self.refit_failures.get(),
            refit_timeouts: self.refit_timeouts.get(),
            refits_rejected: self.refits_rejected.get(),
            interval_forecasts: self.interval_forecasts.get(),
            interval_fallbacks: self.interval_fallbacks.get(),
            reservations: self.reservations.get(),
            scale_ups: self.scale_ups.get(),
            scale_downs: self.scale_downs.get(),
            forecast_p50_us: latency.quantile(0.50).map(|n| n as f64 / 1_000.0),
            forecast_p99_us: latency.quantile(0.99).map(|n| n as f64 / 1_000.0),
            rolling_mae: mae,
            rolling_mse: mse,
            scored,
        }
    }
}

/// Point-in-time view of one shard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStats {
    pub shard: usize,
    pub entities: usize,
    pub ingested: u64,
    pub forecasts: u64,
    pub refits_started: u64,
    pub refits_completed: u64,
    pub rejected: u64,
    pub unknown_entity_ingests: u64,
    pub queue_depth: usize,
    pub restarts: u64,
    pub degraded: usize,
    pub fallback_forecasts: u64,
    /// Forecasts answered through a batched (multi-entity) engine call.
    pub batched_forecasts: u64,
    /// Batched engine calls issued (each covers ≥2 entities).
    pub batch_calls: u64,
    /// Forecast reads answered from an entity's memo without a model run
    /// (hit ratio = `memo_hits / forecasts`).
    pub memo_hits: u64,
    pub repaired_samples: u64,
    pub quarantined_samples: u64,
    pub gap_samples: u64,
    pub refit_failures: u64,
    pub refit_timeouts: u64,
    pub refits_rejected: u64,
    /// Interval forecasts answered with live conformal offsets.
    pub interval_forecasts: u64,
    /// Interval requests answered from a degraded entity's last-good
    /// interval.
    pub interval_fallbacks: u64,
    /// Capacity reservations decided.
    pub reservations: u64,
    /// Reservation scale-up actions executed.
    pub scale_ups: u64,
    /// Reservation scale-down actions executed.
    pub scale_downs: u64,
    /// Median forecast latency in microseconds (`None` before any forecast),
    /// estimated from the shard's latency histogram buckets.
    pub forecast_p50_us: Option<f64>,
    /// 99th-percentile forecast latency in microseconds (histogram
    /// estimate, exact at the recorded maximum).
    pub forecast_p99_us: Option<f64>,
    /// Rolling MAE of forecasts scored against later-arriving truth.
    pub rolling_mae: f64,
    pub rolling_mse: f64,
    /// How many forecasts have been scored.
    pub scored: u64,
}

/// Fleet-wide view: one entry per shard plus aggregate helpers.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    pub shards: Vec<ShardStats>,
}

impl ServiceStats {
    /// One field (or expression over a shard's fields) summed across all
    /// shards: `stats.total(|s| s.ingested)`.
    pub fn total<T: std::iter::Sum>(&self, field: impl Fn(&ShardStats) -> T) -> T {
        self.shards.iter().map(field).sum()
    }

    /// Scored-count-weighted rolling MAE across shards.
    pub fn rolling_mae(&self) -> f64 {
        let scored: u64 = self.shards.iter().map(|s| s.scored).sum();
        if scored == 0 {
            return 0.0;
        }
        self.shards
            .iter()
            .map(|s| s.rolling_mae * s.scored as f64)
            .sum::<f64>()
            / scored as f64
    }

    /// Scored-count-weighted rolling MSE across shards.
    pub fn rolling_mse(&self) -> f64 {
        let scored: u64 = self.shards.iter().map(|s| s.scored).sum();
        if scored == 0 {
            return 0.0;
        }
        self.shards
            .iter()
            .map(|s| s.rolling_mse * s.scored as f64)
            .sum::<f64>()
            / scored as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_metrics_show_up_in_snapshot_and_registry() {
        let registry = Registry::new();
        let core = ShardStatsCore::new(&registry, 3);
        core.ingested.add(7);
        core.entities.inc();
        core.degraded.inc();
        for nanos in [10_000, 20_000, 30_000, 40_000] {
            core.forecast_ns.record(nanos);
        }
        let stats = core.snapshot(3);
        assert_eq!(stats.shard, 3);
        assert_eq!(stats.ingested, 7);
        assert_eq!(stats.entities, 1);
        assert_eq!(stats.degraded, 1);
        // p50 resolves to a bucket bound within the recorded envelope;
        // p99 is the exact recorded max.
        assert!(stats.forecast_p50_us.unwrap() <= stats.forecast_p99_us.unwrap());
        assert_eq!(stats.forecast_p99_us, Some(40.0));
        // The same numbers are visible through the registry export.
        let exported = registry.snapshot();
        assert!(exported
            .counters
            .contains(&("shard3.ingested".to_string(), 7)));
        assert!(exported
            .gauges
            .contains(&("shard3.degraded".to_string(), 1)));
    }

    #[test]
    fn same_registry_shard_names_are_disjoint() {
        let registry = Registry::new();
        let a = ShardStatsCore::new(&registry, 0);
        let b = ShardStatsCore::new(&registry, 1);
        a.ingested.inc();
        assert_eq!(a.ingested.get(), 1);
        assert_eq!(b.ingested.get(), 0, "shard metrics must not alias");
    }

    #[test]
    fn empty_latency_has_no_quantiles() {
        let core = ShardStatsCore::new(&Registry::new(), 0);
        let stats = core.snapshot(0);
        assert_eq!(stats.forecast_p50_us, None);
        assert_eq!(stats.forecast_p99_us, None);
    }

    #[test]
    fn score_accumulates_mae_and_mse() {
        let mut s = ScoreAccum::default();
        s.score(0.5, 0.7);
        s.score(0.9, 0.7);
        assert!((s.mae() - 0.2).abs() < 1e-6);
        assert!((s.mse() - 0.04).abs() < 1e-5);
        assert_eq!(s.scored, 2);
    }

    #[test]
    fn service_stats_aggregate_weighted() {
        let base = ShardStats {
            entities: 2,
            ingested: 10,
            forecasts: 5,
            refits_started: 1,
            refits_completed: 1,
            restarts: 1,
            degraded: 2,
            scale_ups: 1,
            scale_downs: 2,
            forecast_p50_us: Some(10.0),
            forecast_p99_us: Some(20.0),
            rolling_mae: 0.1,
            rolling_mse: 0.01,
            scored: 10,
            ..ShardStats::default()
        };
        let stats = ServiceStats {
            shards: vec![
                base.clone(),
                ShardStats {
                    shard: 1,
                    restarts: 2,
                    degraded: 1,
                    rolling_mae: 0.3,
                    scored: 30,
                    ..base
                },
            ],
        };
        assert_eq!(stats.total(|s| s.ingested), 20);
        assert_eq!(stats.total(|s| s.entities), 4);
        assert_eq!(stats.total(|s| s.restarts), 3);
        assert_eq!(stats.total(|s| s.degraded), 3);
        assert_eq!(stats.total(|s| s.scale_ups + s.scale_downs), 6);
        // (0.1*10 + 0.3*30) / 40 = 0.25
        assert!((stats.rolling_mae() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn lock_recover_survives_poisoning() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let m = Mutex::new(ScoreAccum::default());
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(m.is_poisoned());
        lock_recover(&m).score(1.0, 2.0);
        assert_eq!(lock_recover(&m).scored, 1);
    }
}
