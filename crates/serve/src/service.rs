//! The public face of the serving subsystem: [`PredictionService`] owns a
//! pool of shard workers (each a thread with a bounded FIFO queue) and a
//! background refit pool, and routes every entity to a fixed shard by
//! hashing its id.
//!
//! Lifecycle: `new` spawns the threads, [`PredictionService::add_entity`]
//! fits a model on the caller's thread and installs it on its shard,
//! [`PredictionService::ingest`] streams monitoring samples (with explicit
//! backpressure), [`PredictionService::forecast_many`] fans a batched
//! forecast request out across shards, and
//! [`PredictionService::checkpoint`] / [`PredictionService::restore`]
//! round-trip the whole fleet through a versioned binary file.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::mpsc::{channel, sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use models::Forecaster;
use obs::{EventKind, Journal, MetricsSnapshot, MonotonicClock, Registry, SharedClock};
use rptcn::{new_shared_group, DecisionConfig, PipelineConfig, PipelineRun, ResourcePredictor};
use timeseries::TimeSeriesFrame;

use crate::checkpoint::{load_fleet, save_fleet};
use crate::error::ServeError;
use crate::faults::FaultPlan;
use crate::interval::{IntervalForecast, Reservation};
use crate::router::{group_by_shard, shard_for};
use crate::shard::{run_refit_worker, RefitJob, ShardContext, ShardMsg};
use crate::stats::{ServiceStats, ShardStatsCore};
use crate::supervisor::{run_supervised_shard, EntityHealthReport};

/// What to do when an entity's shard queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the caller until the shard drains (no sample loss).
    Block,
    /// Fail fast with [`ServeError::QueueFull`]; the caller decides whether
    /// to retry or drop.
    Reject,
}

/// What to do with an invalid (NaN/Inf) sample at the shard boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestGuard {
    /// Forward-fill poisoned values from the entity's last valid sample
    /// (the paper's cleaning step, applied online). Counted in
    /// `repaired_samples`.
    Repair,
    /// Drop invalid samples entirely. Counted in `quarantined_samples`.
    Quarantine,
}

/// Retry/backoff/deadline policy for background refits.
#[derive(Debug, Clone)]
pub struct RefitPolicy {
    /// Training attempts per refit job before it is reported failed.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub backoff: Duration,
    /// Upper bound on the exponential backoff.
    pub backoff_max: Duration,
    /// Per-attempt deadline. A training run that exceeds it is abandoned
    /// on its watchdog thread and counted in `refit_timeouts`, so a wedged
    /// job cannot stall the entity's refit cadence. `None` disables the
    /// watchdog (attempts run inline on the pool worker).
    pub timeout: Option<Duration>,
}

impl Default for RefitPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff: Duration::from_millis(25),
            backoff_max: Duration::from_secs(1),
            timeout: None,
        }
    }
}

/// Tuning knobs for a [`PredictionService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shard worker threads.
    pub shards: usize,
    /// Bounded capacity of each shard's message queue.
    pub queue_capacity: usize,
    /// Background training threads shared by all shards.
    pub refit_workers: usize,
    /// Dispatch a background refit after this many ingested samples per
    /// entity (0 disables periodic refits).
    pub refit_every: usize,
    /// Full-queue policy for [`PredictionService::ingest`].
    pub backpressure: Backpressure,
    /// Issue a rolling one-step forecast on every ingest and score it
    /// against the next sample (feeds `rolling_mae` / `rolling_mse`).
    pub score_on_ingest: bool,
    /// Time source for every latency span, refit backoff/deadline and
    /// injected stall. Production uses the default monotonic clock; tests
    /// inject an [`obs::SimClock`] to advance time by hand.
    pub clock: SharedClock,
    /// Capacity of the service's bounded event journal (operational
    /// events: restarts, degradations, quarantines, refit outcomes).
    pub journal_capacity: usize,
    /// Shard-boundary policy for invalid samples.
    pub ingest_guard: IngestGuard,
    /// Retry/backoff/deadline policy for background refits.
    pub refit_policy: RefitPolicy,
    /// Deterministic fault-injection plan for chaos tests; `None` (the
    /// default) in production.
    pub faults: Option<FaultPlan>,
    /// Cost model, hysteresis and reservation clamps behind
    /// [`PredictionService::reserve`].
    pub decision: DecisionConfig,
    /// Nominal two-sided coverage of
    /// [`PredictionService::forecast_with_interval`] bounds (e.g. `0.9`
    /// for a 90% interval).
    pub interval_coverage: f64,
    /// Per-entity rolling residual window feeding conformal calibration
    /// (scored on ingest when `score_on_ingest` is set).
    pub residual_window: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 1024,
            refit_workers: 2,
            refit_every: 0,
            backpressure: Backpressure::Block,
            score_on_ingest: true,
            clock: MonotonicClock::shared(),
            journal_capacity: 1024,
            ingest_guard: IngestGuard::Repair,
            refit_policy: RefitPolicy::default(),
            faults: None,
            decision: DecisionConfig::default(),
            interval_coverage: 0.9,
            residual_window: 128,
        }
    }
}

/// A sharded online prediction service for a fleet of monitored entities.
pub struct PredictionService {
    config: ServiceConfig,
    ids: BTreeSet<String>,
    shard_txs: Vec<SyncSender<ShardMsg>>,
    stats: Vec<Arc<ShardStatsCore>>,
    registry: Arc<Registry>,
    journal: Arc<Journal>,
    shard_handles: Vec<JoinHandle<()>>,
    refit_handles: Vec<JoinHandle<()>>,
}

impl PredictionService {
    /// Spawn the shard workers and the refit pool.
    ///
    /// Fails with [`ServeError::Spawn`] if the OS refuses to start a
    /// worker thread; a partially-spawned service is dropped cleanly
    /// (already-started shards see their channels close and exit).
    pub fn new(config: ServiceConfig) -> Result<Self, ServeError> {
        assert!(config.shards > 0, "service needs at least one shard");
        assert!(
            config.queue_capacity > 0,
            "shard queues must be bounded but non-empty"
        );

        let (refit_tx, refit_rx) = channel::<RefitJob>();
        let refit_rx = Arc::new(Mutex::new(refit_rx));

        let workers = if config.refit_every > 0 {
            config.refit_workers.max(1)
        } else {
            config.refit_workers
        };

        let registry = Arc::new(Registry::new());
        let journal = Arc::new(Journal::new(config.journal_capacity));

        let mut shard_txs = Vec::with_capacity(config.shards);
        let mut stats = Vec::with_capacity(config.shards);
        let mut shard_handles = Vec::with_capacity(config.shards);
        for shard_id in 0..config.shards {
            let (tx, rx) = sync_channel::<ShardMsg>(config.queue_capacity);
            let core = Arc::new(ShardStatsCore::new(&registry, shard_id));
            let ctx = ShardContext {
                shard_id,
                stats: Arc::clone(&core),
                clock: Arc::clone(&config.clock),
                journal: Arc::clone(&journal),
                refit_tx: refit_tx.clone(),
                refit_every: config.refit_every,
                refit_enabled: workers > 0,
                score_on_ingest: config.score_on_ingest,
                ingest_guard: config.ingest_guard,
                faults: config.faults.clone(),
                decision: config.decision,
                interval_coverage: config.interval_coverage,
                residual_window: config.residual_window,
            };
            let handle = thread::Builder::new()
                .name(format!("serve-shard-{shard_id}"))
                .spawn(move || run_supervised_shard(ctx, rx))
                .map_err(|e| ServeError::Spawn(format!("shard worker {shard_id}: {e}")))?;
            shard_txs.push(tx);
            stats.push(core);
            shard_handles.push(handle);
        }
        // The shards own the only long-lived refit senders: when they exit
        // at shutdown the job channel closes and the pool drains out.
        drop(refit_tx);

        let pool: Vec<(SyncSender<ShardMsg>, Arc<ShardStatsCore>)> = shard_txs
            .iter()
            .cloned()
            .zip(stats.iter().map(Arc::clone))
            .collect();
        let mut refit_handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let rx = Arc::clone(&refit_rx);
            let pool = pool.clone();
            let policy = config.refit_policy.clone();
            let faults = config.faults.clone();
            let clock = Arc::clone(&config.clock);
            let handle = thread::Builder::new()
                .name(format!("serve-refit-{w}"))
                .spawn(move || run_refit_worker(rx, pool, policy, faults, clock))
                .map_err(|e| ServeError::Spawn(format!("refit worker {w}: {e}")))?;
            refit_handles.push(handle);
        }

        Ok(Self {
            config,
            ids: BTreeSet::new(),
            shard_txs,
            stats,
            registry,
            journal,
            shard_handles,
            refit_handles,
        })
    }

    /// Fit `model` on `bootstrap` (on the caller's thread — shards never
    /// block on training) and install the predictor on the entity's shard.
    pub fn add_entity(
        &mut self,
        id: &str,
        bootstrap: &TimeSeriesFrame,
        cfg: PipelineConfig,
        model: Box<dyn Forecaster + Send>,
    ) -> Result<PipelineRun, ServeError> {
        if self.ids.contains(id) {
            return Err(ServeError::DuplicateEntity(id.to_string()));
        }
        let (predictor, run) =
            ResourcePredictor::fit(model, bootstrap, cfg).map_err(ServeError::from)?;
        self.install(id, predictor)?;
        Ok(run)
    }

    /// Onboard a fleet of entities that share ONE model: the model is
    /// fitted once on the first entity's bootstrap, then cloned
    /// bit-identically (no retraining) for every other entity, each with
    /// its own history and a scaler fitted on its own bootstrap. All
    /// members are tagged with a fresh weight-sharing group, so their
    /// shard answers same-shape forecast requests with one batched engine
    /// call until any member is refitted away from the group.
    ///
    /// The model must support checkpointing (neural forecasters and the
    /// naive baseline do) — cloning weights goes through its state.
    pub fn add_entities_shared(
        &mut self,
        entities: &[(&str, TimeSeriesFrame)],
        cfg: PipelineConfig,
        model: Box<dyn Forecaster + Send>,
    ) -> Result<PipelineRun, ServeError> {
        let Some(((first_id, first_frame), rest)) = entities.split_first() else {
            return Err(ServeError::Frame(
                "add_entities_shared needs at least one entity".into(),
            ));
        };
        let mut seen = BTreeSet::new();
        for (id, _) in entities {
            if self.ids.contains(*id) || !seen.insert(*id) {
                return Err(ServeError::DuplicateEntity(id.to_string()));
            }
        }
        let (mut template, run) =
            ResourcePredictor::fit(model, first_frame, cfg).map_err(ServeError::from)?;
        template.set_shared_group(Some(new_shared_group()));
        // Clone every member before installing any, so a bad bootstrap
        // leaves the service unchanged.
        let mut members = Vec::with_capacity(rest.len());
        for (id, frame) in rest {
            let clone = template.clone_for_entity(frame).map_err(ServeError::from)?;
            members.push((*id, clone));
        }
        self.install(first_id, template)?;
        for (id, predictor) in members {
            self.install(id, predictor)?;
        }
        Ok(run)
    }

    /// Install an already-fitted predictor (used by both `add_entity` and
    /// checkpoint restore).
    fn install(&mut self, id: &str, predictor: ResourcePredictor) -> Result<(), ServeError> {
        let shard = shard_for(id, self.config.shards);
        let (reply_tx, reply_rx) = sync_channel(1);
        self.send_blocking(
            shard,
            ShardMsg::Install {
                id: id.to_string(),
                predictor: Box::new(predictor),
                reply: reply_tx,
            },
        )?;
        reply_rx
            .recv()
            .map_err(|_| ServeError::ShardDown(shard))??;
        self.ids.insert(id.to_string());
        Ok(())
    }

    /// Stream one monitoring sample for `id` (values in the entity's
    /// bootstrap column order). Under [`Backpressure::Block`] this waits
    /// for queue space; under [`Backpressure::Reject`] a full queue returns
    /// [`ServeError::QueueFull`] without losing previously queued samples.
    pub fn ingest(&self, id: &str, sample: Vec<f32>) -> Result<(), ServeError> {
        self.ingest_inner(id, sample, None)
    }

    /// Like [`PredictionService::ingest`], with the caller's monotone
    /// sample sequence number. The shard detects gaps (missing monitoring
    /// records, per the paper's cleaning step) and forward-fills them, and
    /// quarantines stale replays — see `gap_samples` /
    /// `quarantined_samples` in [`crate::ShardStats`].
    pub fn ingest_at(&self, id: &str, seq: u64, sample: Vec<f32>) -> Result<(), ServeError> {
        self.ingest_inner(id, sample, Some(seq))
    }

    fn ingest_inner(&self, id: &str, sample: Vec<f32>, seq: Option<u64>) -> Result<(), ServeError> {
        if !self.ids.contains(id) {
            return Err(ServeError::UnknownEntity(id.to_string()));
        }
        let shard = shard_for(id, self.config.shards);
        let msg = ShardMsg::Ingest {
            id: id.to_string(),
            sample,
            seq,
        };
        match self.config.backpressure {
            Backpressure::Block => self.send_blocking(shard, msg),
            Backpressure::Reject => {
                self.stats[shard].queue_depth.inc();
                match self.shard_txs[shard].try_send(msg) {
                    Ok(()) => Ok(()),
                    Err(TrySendError::Full(_)) => {
                        self.stats[shard].queue_depth.dec();
                        self.stats[shard].rejected.inc();
                        self.journal.emit(
                            self.config.clock.now_nanos(),
                            EventKind::QueueRejected,
                            Some(shard),
                            Some(id),
                            "ingest rejected: shard queue full".to_string(),
                        );
                        Err(ServeError::QueueFull {
                            shard,
                            entity: id.to_string(),
                        })
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        self.stats[shard].queue_depth.dec();
                        Err(ServeError::ShardDown(shard))
                    }
                }
            }
        }
    }

    /// Forecast the next `horizon` target values for one entity.
    pub fn forecast(&self, id: &str) -> Result<Vec<f32>, ServeError> {
        let mut results = self.forecast_many(&[id]);
        match results.pop() {
            Some((_, res)) => res,
            None => Err(ServeError::UnknownEntity(id.to_string())),
        }
    }

    /// Batched forecasts: requests are grouped per shard, dispatched to all
    /// shards concurrently, and returned in the caller's id order. Because
    /// shard queues are FIFO, each forecast reflects every sample ingested
    /// for that entity before this call.
    pub fn forecast_many(&self, ids: &[&str]) -> Vec<(String, Result<Vec<f32>, ServeError>)> {
        self.fan_out(ids, |ids, reply| ShardMsg::ForecastBatch { ids, reply })
    }

    /// Forecast with a calibrated conformal interval for one entity. The
    /// point block is bitwise-identical to [`PredictionService::forecast`];
    /// the interval attaches as two scalar offsets calibrated from the
    /// entity's rolling ingest residuals. Degraded entities are answered
    /// from their journaled last-good interval, never an uncovered point
    /// estimate.
    // lint: allow(r10) test: chaos.rs and interval_parity.rs read the served interval
    pub fn forecast_with_interval(&self, id: &str) -> Result<IntervalForecast, ServeError> {
        let mut results = self.forecast_with_interval_many(&[id]);
        match results.pop() {
            Some((_, res)) => res,
            None => Err(ServeError::UnknownEntity(id.to_string())),
        }
    }

    /// Batched [`PredictionService::forecast_with_interval`], grouped per
    /// shard and returned in the caller's id order.
    pub fn forecast_with_interval_many(
        &self,
        ids: &[&str],
    ) -> Vec<(String, Result<IntervalForecast, ServeError>)> {
        self.fan_out(ids, |ids, reply| ShardMsg::ForecastIntervalBatch {
            ids,
            reply,
        })
    }

    /// One Bayesian capacity-reservation decision for an entity: interval
    /// forecast, newsvendor target from the configured [`DecisionConfig`]
    /// cost model, then per-entity scale-down hysteresis.
    pub fn reserve(&self, id: &str) -> Result<Reservation, ServeError> {
        let mut results = self.reserve_many(&[id]);
        match results.pop() {
            Some((_, res)) => res,
            None => Err(ServeError::UnknownEntity(id.to_string())),
        }
    }

    /// Batched [`PredictionService::reserve`], grouped per shard and
    /// returned in the caller's id order.
    pub fn reserve_many(&self, ids: &[&str]) -> Vec<(String, Result<Reservation, ServeError>)> {
        self.fan_out(ids, |ids, reply| ShardMsg::ReserveBatch { ids, reply })
    }

    /// Shared fan-out plumbing for the batched request APIs: group the
    /// request's positions per shard, dispatch to every shard concurrently,
    /// then scatter each shard's rows — it answers in the order asked —
    /// back to the positions they were asked at. A shard that cannot be
    /// reached answers its whole group with the transport error.
    fn fan_out<T>(
        &self,
        ids: &[&str],
        make_msg: impl Fn(Vec<String>, SyncSender<Vec<(String, Result<T, ServeError>)>>) -> ShardMsg,
    ) -> Vec<(String, Result<T, ServeError>)> {
        // Every shard gets its message before any reply is awaited.
        let pending: Vec<_> = group_by_shard(ids, self.config.shards)
            .into_iter()
            .map(|(shard, positions)| {
                let (reply_tx, reply_rx) = sync_channel(1);
                let asked = positions.iter().map(|&at| ids[at].to_string()).collect();
                let sent = self.send_blocking(shard, make_msg(asked, reply_tx));
                (shard, positions, sent.map(|()| reply_rx))
            })
            .collect();
        let mut rows: Vec<Option<(String, Result<T, ServeError>)>> =
            ids.iter().map(|_| None).collect();
        for (shard, positions, sent) in pending {
            let answered = sent.and_then(|rx| rx.recv().map_err(|_| ServeError::ShardDown(shard)));
            match answered {
                Ok(answered) => {
                    for (at, row) in positions.into_iter().zip(answered) {
                        debug_assert_eq!(row.0, ids[at], "shard replied out of order");
                        rows[at] = Some(row);
                    }
                }
                Err(err) => {
                    for at in positions {
                        rows[at] = Some((ids[at].to_string(), Err(err.clone())));
                    }
                }
            }
        }
        rows.into_iter()
            .zip(ids)
            .map(|(row, id)| {
                // A shard answers every id it is asked; a short reply would
                // be a shard bug, surfaced as an error instead of a panic.
                row.unwrap_or_else(|| {
                    (
                        id.to_string(),
                        Err(ServeError::UnknownEntity(id.to_string())),
                    )
                })
            })
            .collect()
    }

    /// Wait until every shard has drained all messages queued before this
    /// call (ingests applied, refit results installed).
    pub fn flush(&self) -> Result<(), ServeError> {
        let mut pending = Vec::new();
        for shard in 0..self.config.shards {
            let (reply_tx, reply_rx) = sync_channel(1);
            self.send_blocking(shard, ShardMsg::Barrier { reply: reply_tx })?;
            pending.push((shard, reply_rx));
        }
        for (shard, reply_rx) in pending {
            reply_rx.recv().map_err(|_| ServeError::ShardDown(shard))?;
        }
        Ok(())
    }

    /// Serving health of every entity: `Healthy` entities are served by
    /// their model, `Degraded` ones by the naive fallback until a clean
    /// refit restores them. Reported per entity with crash counts and the
    /// error that caused the last transition.
    // lint: allow(r10) test: chaos.rs and batched_forecasts.rs assert per-entity health
    pub fn entity_health(&self) -> Result<BTreeMap<String, EntityHealthReport>, ServeError> {
        let mut pending = Vec::new();
        for shard in 0..self.config.shards {
            let (reply_tx, reply_rx) = sync_channel(1);
            self.send_blocking(shard, ShardMsg::Health { reply: reply_tx })?;
            pending.push((shard, reply_rx));
        }
        let mut out = BTreeMap::new();
        for (shard, reply_rx) in pending {
            let reports = reply_rx.recv().map_err(|_| ServeError::ShardDown(shard))?;
            out.extend(reports);
        }
        Ok(out)
    }

    /// Point-in-time statistics for every shard.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            shards: self
                .stats
                .iter()
                .enumerate()
                .map(|(shard, core)| core.snapshot(shard))
                .collect(),
        }
    }

    /// The service's bounded event journal: shard restarts, degradations,
    /// quarantines, refit outcomes and batch forecasts, with shard and
    /// entity attribution.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The metrics registry backing [`PredictionService::stats`]; useful
    /// for registering service-adjacent metrics under the same export.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Point-in-time copy of every registered metric, ready for
    /// `obs::to_text` / `obs::to_json`.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Entity ids currently served, sorted.
    pub fn entity_ids(&self) -> Vec<String> {
        self.ids.iter().cloned().collect()
    }

    /// Number of entities currently served.
    // lint: allow(r10) test: batched_forecasts.rs asserts a failed onboarding leaves no entity
    pub fn entity_count(&self) -> usize {
        self.ids.len()
    }

    /// Whether `id` is currently onboarded, without copying the id set
    /// (cheap enough for per-entry checks on million-entity fleets).
    pub fn contains_entity(&self, id: &str) -> bool {
        self.ids.contains(id)
    }

    /// The injectable clock this service (and its shards, journal and
    /// latency spans) runs on.
    pub fn clock(&self) -> SharedClock {
        self.config.clock.clone()
    }

    /// The shard serving `id`.
    // lint: allow(r10) test: chaos.rs and service_integration.rs locate an entity's shard
    pub fn shard_of(&self, id: &str) -> usize {
        shard_for(id, self.config.shards)
    }

    /// Capture every entity's full state (model weights, preprocessing,
    /// history) in memory, sorted by id. The snapshot is taken per shard
    /// behind the same FIFO queues as ingestion, so it reflects every
    /// sample ingested before this call. This is the building block for
    /// both file checkpoints and node-to-node state migration.
    pub fn snapshot_entities(&self) -> Result<Vec<(String, rptcn::PredictorState)>, ServeError> {
        self.snapshot_shards((0..self.config.shards).map(|shard| (shard, None)))
    }

    /// Like [`PredictionService::snapshot_entities`], for the named
    /// entities only: each shard snapshots just the names it serves, so a
    /// migration chunk costs its own entities, not the whole service.
    /// Names not served here are skipped; each entity appears once.
    pub fn snapshot_named(
        &self,
        ids: &[&str],
    ) -> Result<Vec<(String, rptcn::PredictorState)>, ServeError> {
        let asks = group_by_shard(ids, self.config.shards)
            .into_iter()
            .map(|(shard, positions)| {
                let named = positions.iter().map(|&at| ids[at].to_string()).collect();
                (shard, Some(named))
            });
        self.snapshot_shards(asks)
    }

    /// Ask each listed shard for a snapshot (of the named ids, or of all
    /// its entities) before awaiting any reply, then merge by id.
    fn snapshot_shards(
        &self,
        asks: impl Iterator<Item = (usize, Option<Vec<String>>)>,
    ) -> Result<Vec<(String, rptcn::PredictorState)>, ServeError> {
        let mut pending = Vec::new();
        for (shard, ids) in asks {
            let (reply_tx, reply_rx) = sync_channel(1);
            self.send_blocking(
                shard,
                ShardMsg::Snapshot {
                    ids,
                    reply: reply_tx,
                },
            )?;
            pending.push((shard, reply_rx));
        }
        let mut entities = Vec::new();
        for (shard, reply_rx) in pending {
            let states = reply_rx
                .recv()
                .map_err(|_| ServeError::ShardDown(shard))??;
            entities.extend(states);
        }
        entities.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(entities)
    }

    /// Install an entity from a captured [`rptcn::PredictorState`] — the
    /// receiving half of a warm handoff: model weights, preprocessing
    /// state and history resume bit-identical to the snapshotting node.
    pub fn install_state(
        &mut self,
        id: &str,
        state: &rptcn::PredictorState,
    ) -> Result<(), ServeError> {
        if self.ids.contains(id) {
            return Err(ServeError::DuplicateEntity(id.to_string()));
        }
        let predictor = ResourcePredictor::from_state(state)?;
        self.install(id, predictor)
    }

    /// Stop serving `id` and drop its state (used after its state has
    /// been migrated to another node). Returns [`ServeError::UnknownEntity`]
    /// if the entity was never onboarded.
    pub fn remove_entity(&mut self, id: &str) -> Result<(), ServeError> {
        if !self.ids.contains(id) {
            return Err(ServeError::UnknownEntity(id.to_string()));
        }
        let shard = shard_for(id, self.config.shards);
        let (reply_tx, reply_rx) = sync_channel(1);
        self.send_blocking(
            shard,
            ShardMsg::Remove {
                id: id.to_string(),
                reply: reply_tx,
            },
        )?;
        let removed = reply_rx.recv().map_err(|_| ServeError::ShardDown(shard))?;
        self.ids.remove(id);
        if removed {
            Ok(())
        } else {
            Err(ServeError::UnknownEntity(id.to_string()))
        }
    }

    /// Capture every entity's full state into a versioned fleet checkpoint
    /// at `path` (see [`PredictionService::snapshot_entities`]). Returns
    /// the number of entities written.
    pub fn checkpoint(&self, path: &Path) -> Result<usize, ServeError> {
        let entities = self.snapshot_entities()?;
        save_fleet(path, &entities)?;
        Ok(entities.len())
    }

    /// Rebuild a service from a fleet checkpoint: every entity is restored
    /// onto its shard with identical model weights, preprocessing state and
    /// history, so forecasts resume exactly where the checkpoint left off.
    pub fn restore(path: &Path, config: ServiceConfig) -> Result<Self, ServeError> {
        let entities = load_fleet(path)?;
        let mut service = Self::new(config)?;
        for (id, state) in &entities {
            let predictor = ResourcePredictor::from_state(state)?;
            service.install(id, predictor)?;
        }
        Ok(service)
    }

    /// Send a message to `shard`, blocking when its queue is full. Every
    /// send path increments `queue_depth` first; the shard decrements once
    /// per received message — so depth is never transiently negative.
    fn send_blocking(&self, shard: usize, msg: ShardMsg) -> Result<(), ServeError> {
        self.stats[shard].queue_depth.inc();
        self.shard_txs[shard].send(msg).map_err(|_| {
            self.stats[shard].queue_depth.dec();
            ServeError::ShardDown(shard)
        })
    }
}

impl Drop for PredictionService {
    fn drop(&mut self) {
        // Explicit shutdown breaks the sender cycle: shards hold refit-pool
        // senders, refit workers hold shard senders. Shards exit on the
        // marker, which closes the refit channel, which drains the pool.
        for shard in 0..self.shard_txs.len() {
            self.stats[shard].queue_depth.inc();
            if self.shard_txs[shard].send(ShardMsg::Shutdown).is_err() {
                self.stats[shard].queue_depth.dec();
            }
        }
        self.shard_txs.clear();
        for handle in self.shard_handles.drain(..) {
            let _ = handle.join();
        }
        for handle in self.refit_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::NaiveForecaster;
    use rptcn::Scenario;

    fn bootstrap_frame(n: usize, phase: f32) -> TimeSeriesFrame {
        let cpu: Vec<f32> = (0..n)
            .map(|i| 40.0 + 25.0 * ((i as f32 * 0.2 + phase).sin()))
            .collect();
        let mem: Vec<f32> = (0..n).map(|i| 30.0 + 0.01 * i as f32).collect();
        TimeSeriesFrame::from_columns(&[("cpu_util_percent", cpu), ("mem_util_percent", mem)])
            .unwrap()
    }

    fn uni_config() -> PipelineConfig {
        PipelineConfig {
            scenario: Scenario::Uni,
            window: 12,
            horizon: 1,
            ..Default::default()
        }
    }

    fn service_with_entities(config: ServiceConfig, n: usize) -> PredictionService {
        let mut service = PredictionService::new(config).expect("spawn service");
        for i in 0..n {
            service
                .add_entity(
                    &format!("c_{i}"),
                    &bootstrap_frame(96, i as f32),
                    uni_config(),
                    Box::new(NaiveForecaster::new()),
                )
                .unwrap();
        }
        service
    }

    #[test]
    fn lifecycle_ingest_and_forecast() {
        let service = service_with_entities(
            ServiceConfig {
                shards: 3,
                refit_workers: 0,
                ..Default::default()
            },
            8,
        );
        assert_eq!(service.entity_count(), 8);
        for i in 0..8 {
            service.ingest(&format!("c_{i}"), vec![55.0, 31.0]).unwrap();
        }
        let ids: Vec<String> = (0..8).map(|i| format!("c_{i}")).collect();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let results = service.forecast_many(&refs);
        assert_eq!(results.len(), 8);
        for (i, (id, res)) in results.iter().enumerate() {
            assert_eq!(id, &format!("c_{i}"));
            let fc = res.as_ref().unwrap();
            assert_eq!(fc.len(), 1);
            // Naive forecaster repeats the last observed target value.
            assert!((fc[0] - 55.0).abs() < 1.0, "forecast {} for {id}", fc[0]);
        }
        let stats = service.stats();
        assert_eq!(stats.total(|s| s.ingested), 8);
        assert_eq!(stats.total(|s| s.forecasts), 8);
        assert_eq!(stats.total(|s| s.entities), 8);
    }

    #[test]
    fn duplicate_and_unknown_entities_are_rejected() {
        let mut service = service_with_entities(ServiceConfig::default(), 1);
        let err = service
            .add_entity(
                "c_0",
                &bootstrap_frame(96, 0.0),
                uni_config(),
                Box::new(NaiveForecaster::new()),
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::DuplicateEntity(_)));
        assert!(matches!(
            service.ingest("nope", vec![1.0, 2.0]),
            Err(ServeError::UnknownEntity(_))
        ));
        assert!(matches!(
            service.forecast("nope"),
            Err(ServeError::UnknownEntity(_))
        ));
    }

    #[test]
    fn flush_drains_queued_ingests() {
        let service = service_with_entities(ServiceConfig::default(), 2);
        for _ in 0..50 {
            service.ingest("c_0", vec![60.0, 31.0]).unwrap();
            service.ingest("c_1", vec![20.0, 31.0]).unwrap();
        }
        service.flush().unwrap();
        let stats = service.stats();
        assert_eq!(stats.total(|s| s.ingested), 100);
        for shard in &stats.shards {
            assert_eq!(shard.queue_depth, 0, "shard {} not drained", shard.shard);
        }
    }
}
