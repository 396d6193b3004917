//! The shard worker: one thread owning a disjoint set of entities, driven
//! by a bounded FIFO message queue. Because an entity always routes to the
//! same shard, its messages are processed in arrival order — an ingest
//! followed by a forecast request is guaranteed to see the new sample.
//!
//! The message loop here is *supervised*: [`crate::supervisor`] runs it
//! under `catch_unwind` and restarts it (slots intact) when a panic
//! escapes, so one misbehaving model cannot take a whole shard's entities
//! offline. Samples are validated at this boundary (arity, NaN/Inf,
//! sequence gaps) and repaired or quarantined; non-finite or panicking
//! forecasts flip the entity into degraded mode, served by a naive
//! fallback until a clean refit restores it.
//!
//! Refits never run here. When an entity's cadence fires (or a degraded
//! entity needs recovery), the shard ships a [`RefitJob`] — a history
//! snapshot plus the model architecture — to the background refit pool and
//! keeps serving from the old model (or fallback); the freshly trained
//! replacement arrives later as [`ShardMsg::RefitDone`] and is validated
//! before being swapped in between messages.
//!
//! Every timing decision goes through the injected [`obs::Clock`] (span
//! durations, refit backoff and deadlines, injected stalls), and every
//! fault-path transition — quarantine, repair, degradation, refit
//! outcome — is recorded in the service's [`obs::Journal`] with shard and
//! entity attribution. Stacked forecast calls are counted
//! (`batch_calls`), not journaled.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use models::checkpoint::{forecaster_like, ModelState};
use models::Forecaster;
use obs::{EventKind, Journal, SharedClock, Span};
use rptcn::{
    prepare, run_model, Calibration, ConformalState, DecisionConfig, DecisionRule,
    FittedPreprocess, HysteresisState, PipelineConfig, PredictorState, ResourcePredictor,
    ScaleAction,
};
use tensor::Tensor;
use timeseries::TimeSeriesFrame;

use crate::error::ServeError;
use crate::fallback::FallbackForecaster;
use crate::faults::{FaultPlan, RefitFault};
use crate::interval::{IntervalForecast, IntervalSource, Reservation};
use crate::memo::{usable, MemoPredictor};
use crate::service::{IngestGuard, RefitPolicy};
use crate::stats::{lock_recover, EntityHealth, ShardStatsCore};
use crate::supervisor::EntityHealthReport;

/// Per-entity results of a batched forecast request.
pub(crate) type ForecastReplies = Vec<(String, Result<Vec<f32>, ServeError>)>;

/// Per-entity results of a batched interval-forecast request.
pub(crate) type IntervalReplies = Vec<(String, Result<IntervalForecast, ServeError>)>;

/// Per-entity results of a batched reservation request.
pub(crate) type ReserveReplies = Vec<(String, Result<Reservation, ServeError>)>;

/// When a sequence gap is detected, at most this many synthetic
/// forward-fill samples are inserted to keep window continuity (the
/// paper's cleaning step caps how much missing data is worth repairing).
const MAX_GAP_FILL: u64 = 4;

/// Real-time slice the refit watchdog waits per poll while comparing the
/// attempt's elapsed time — measured on the injected clock — against the
/// deadline. Small enough that a virtual-clock timeout is noticed almost
/// immediately, large enough not to spin.
const WATCHDOG_POLL: Duration = Duration::from_millis(2);

/// Everything a shard worker can be asked to do.
pub(crate) enum ShardMsg {
    /// Onboard a fitted predictor under `id`.
    Install {
        id: String,
        predictor: Box<ResourcePredictor>,
        reply: SyncSender<Result<(), ServeError>>,
    },
    /// One monitoring sample for `id` (fire-and-forget). `seq` is the
    /// caller's monotone sample counter when it has one — gaps are detected
    /// and repaired, stale replays quarantined.
    Ingest {
        id: String,
        sample: Vec<f32>,
        seq: Option<u64>,
    },
    /// Forecast a batch of entities living on this shard.
    ForecastBatch {
        ids: Vec<String>,
        reply: SyncSender<ForecastReplies>,
    },
    /// Forecast a batch of entities with conformal interval offsets.
    ForecastIntervalBatch {
        ids: Vec<String>,
        reply: SyncSender<IntervalReplies>,
    },
    /// Decide capacity reservations for a batch of entities.
    ReserveBatch {
        ids: Vec<String>,
        reply: SyncSender<ReserveReplies>,
    },
    /// A background refit finished.
    RefitDone { id: String, outcome: RefitOutcome },
    /// Capture the state of the named entities on this shard (`None`:
    /// every entity), sorted by id; names not on this shard are skipped.
    Snapshot {
        ids: Option<Vec<String>>,
        reply: SyncSender<Result<Vec<(String, PredictorState)>, ServeError>>,
    },
    /// Evict an entity from this shard (used when its state migrates to
    /// another node). Replies `false` if the entity was never installed.
    Remove { id: String, reply: SyncSender<bool> },
    /// Report every entity's serving health, sorted by id.
    Health {
        reply: SyncSender<Vec<(String, EntityHealthReport)>>,
    },
    /// Round-trip marker: replied to once every earlier message is done.
    Barrier { reply: SyncSender<()> },
    /// Stop the worker. Needed to break the sender cycle at shutdown: shards
    /// hold refit-pool senders and refit workers hold shard senders, so
    /// neither channel would close on its own.
    Shutdown,
}

/// How a background refit ended.
pub(crate) enum RefitOutcome {
    /// Training succeeded; the replacement still has to pass validation on
    /// the live history before it is installed.
    Replaced(Box<dyn Forecaster + Send>, FittedPreprocess),
    /// Every attempt failed (bad data, divergence, injected fault).
    Failed,
    /// The last attempt exceeded the refit deadline and was abandoned.
    TimedOut,
}

/// A unit of background training: everything the refit pool needs to fit a
/// fresh model without touching the live predictor. Cloneable so a timed
/// attempt can move its own copy onto a watchdog thread.
#[derive(Clone)]
pub(crate) struct RefitJob {
    pub entity: String,
    pub shard: usize,
    pub frame: TimeSeriesFrame,
    pub cfg: PipelineConfig,
    pub model_state: ModelState,
}

pub(crate) struct EntitySlot {
    /// The predictor and the model forecast of its current state; every
    /// write goes through [`MemoPredictor::mutate`], which drops the memo.
    pub(crate) predictor: MemoPredictor,
    /// Index of the pipeline target within the sample layout (for scoring
    /// and for feeding the fallback).
    target_column: Option<usize>,
    samples_since_refit: usize,
    pub(crate) refit_in_flight: bool,
    /// First step of the forecast issued at the previous ingest, scored on
    /// the next one.
    pending: Option<f32>,
    pub(crate) health: EntityHealth,
    /// Always-warm naive forecaster serving while the model is degraded.
    pub(crate) fallback: FallbackForecaster,
    /// Last fully-finite sample, used to repair poisoned values and fill
    /// sequence gaps.
    last_valid: Option<Vec<f32>>,
    /// Next expected sequence number when the caller supplies them.
    next_seq: Option<u64>,
    /// Times this entity's model crashed the shard worker.
    pub(crate) crashes: u32,
    pub(crate) last_error: Option<ServeError>,
    horizon: usize,
    /// Rolling signed residuals (`actual − forecast`, raw units) fed from
    /// ingest-time scoring; backs interval offsets and reservations.
    pub(crate) conformal: ConformalState,
    /// Per-entity scale-down damping state.
    hysteresis: HysteresisState,
    /// Last interval served while the entity was healthy — what a
    /// degraded entity answers from. The point buffer is reused in place
    /// on refresh, so steady-state serving never reallocates it.
    last_good: Option<LastGoodInterval>,
}

/// Snapshot of the most recent healthy interval, kept per entity so a
/// degraded model never forces callers onto an uncovered point estimate.
struct LastGoodInterval {
    point: Vec<f32>,
    offset_lo: f32,
    offset_hi: f32,
    /// Upper offset at the cost model's critical ratio (for reservations).
    reserve_offset: f32,
    calibration: Calibration,
}

/// Static configuration handed to each shard worker.
pub(crate) struct ShardContext {
    pub shard_id: usize,
    pub stats: Arc<ShardStatsCore>,
    /// Time source for spans, stalls and refit pacing — the production
    /// monotonic clock, or a `SimClock` in deterministic tests.
    pub clock: SharedClock,
    /// Fleet-wide event journal; every entry this shard writes carries its
    /// shard id.
    pub journal: Arc<Journal>,
    pub refit_tx: Sender<RefitJob>,
    /// Dispatch a background refit after this many samples per entity
    /// (0 disables periodic refits).
    pub refit_every: usize,
    /// Whether a refit pool exists at all — recovery refits for degraded
    /// entities are only dispatched when someone will train them.
    pub refit_enabled: bool,
    /// Issue (and later score) a rolling forecast on every ingest.
    pub score_on_ingest: bool,
    /// What to do with invalid samples at the shard boundary.
    pub ingest_guard: IngestGuard,
    /// Fault-injection plan (chaos tests); `None` in production.
    pub faults: Option<FaultPlan>,
    /// Cost model + hysteresis for capacity reservations.
    pub decision: DecisionConfig,
    /// Nominal central coverage of served intervals (e.g. 0.9).
    pub interval_coverage: f64,
    /// Size of each entity's conformal residual window.
    pub residual_window: usize,
}

impl ShardContext {
    /// Record a journal event attributed to this shard.
    pub(crate) fn note(&self, kind: EventKind, entity: Option<&str>, detail: String) {
        self.journal.emit(
            self.clock.now_nanos(),
            kind,
            Some(self.shard_id),
            entity,
            detail,
        );
    }
}

/// One pass of the shard message loop. Runs until every sender is dropped
/// or `Shutdown` arrives; panics unwind into the supervisor, which records
/// the entity named in `current` as the culprit and restarts the loop with
/// `slots` intact.
pub(crate) fn shard_loop(
    ctx: &ShardContext,
    rx: &Receiver<ShardMsg>,
    slots: &mut HashMap<String, EntitySlot>,
    current: &mut Option<String>,
) {
    while let Ok(msg) = rx.recv() {
        ctx.stats.queue_depth.dec();
        if let Some(stall) = ctx
            .faults
            .as_ref()
            .and_then(|p| p.message_stall(ctx.shard_id))
        {
            // Stalls wait on the injected clock like every other delay.
            // Backpressure tests that need the bounded queue to genuinely
            // fill keep the production clock, where this is a real sleep.
            ctx.clock.sleep(stall);
        }
        match msg {
            ShardMsg::Install {
                id,
                predictor,
                reply,
            } => {
                let result = install_entity(ctx, slots, id, predictor);
                let _ = reply.send(result);
            }
            ShardMsg::Ingest { id, sample, seq } => {
                ingest_sample(ctx, slots, current, id, sample, seq);
                *current = None;
            }
            ShardMsg::ForecastBatch { ids, reply } => {
                let _ = reply.send(forecast_many(ctx, slots, current, ids));
            }
            ShardMsg::ForecastIntervalBatch { ids, reply } => {
                let _ = reply.send(forecast_interval_many(ctx, slots, current, ids));
            }
            ShardMsg::ReserveBatch { ids, reply } => {
                let _ = reply.send(reserve_many(ctx, slots, current, ids));
            }
            ShardMsg::RefitDone { id, outcome } => {
                *current = Some(id.clone());
                apply_refit_outcome(ctx, slots, &id, outcome);
                *current = None;
            }
            ShardMsg::Snapshot { ids, reply } => {
                let _ = reply.send(match ids {
                    None => snapshot_all(slots),
                    Some(named) => snapshot_named(slots, &named),
                });
            }
            ShardMsg::Remove { id, reply } => {
                let removed = match slots.remove(&id) {
                    Some(slot) => {
                        ctx.stats.entities.dec();
                        if slot.health == EntityHealth::Degraded {
                            ctx.stats.degraded.dec();
                        }
                        true
                    }
                    None => false,
                };
                let _ = reply.send(removed);
            }
            ShardMsg::Health { reply } => {
                let mut out: Vec<(String, EntityHealthReport)> = slots
                    .iter()
                    .map(|(id, slot)| {
                        (
                            id.clone(),
                            EntityHealthReport {
                                health: slot.health,
                                crashes: slot.crashes,
                                last_error: slot.last_error.clone(),
                            },
                        )
                    })
                    .collect();
                out.sort_by(|a, b| a.0.cmp(&b.0));
                let _ = reply.send(out);
            }
            ShardMsg::Barrier { reply } => {
                let _ = reply.send(());
            }
            ShardMsg::Shutdown => break,
        }
    }
}

fn install_entity(
    ctx: &ShardContext,
    slots: &mut HashMap<String, EntitySlot>,
    id: String,
    predictor: Box<ResourcePredictor>,
) -> Result<(), ServeError> {
    match slots.entry(id) {
        Entry::Occupied(entry) => Err(ServeError::DuplicateEntity(entry.key().clone())),
        Entry::Vacant(entry) => {
            let target = predictor.config().target.clone();
            let target_column = predictor.column_names().iter().position(|n| n == &target);
            let horizon = predictor.config().horizon;
            let mut fallback = FallbackForecaster::default();
            fallback.seed(&predictor.target_history(64));
            let last_valid = predictor
                .last_sample()
                .filter(|s| s.iter().all(|v| v.is_finite()));
            entry.insert(EntitySlot {
                predictor: MemoPredictor::new(*predictor),
                target_column,
                samples_since_refit: 0,
                refit_in_flight: false,
                pending: None,
                health: EntityHealth::Healthy,
                fallback,
                last_valid,
                next_seq: None,
                crashes: 0,
                last_error: None,
                horizon,
                conformal: ConformalState::new(ctx.residual_window),
                hysteresis: HysteresisState::default(),
                last_good: None,
            });
            ctx.stats.entities.inc();
            Ok(())
        }
    }
}

fn ingest_sample(
    ctx: &ShardContext,
    slots: &mut HashMap<String, EntitySlot>,
    current: &mut Option<String>,
    id: String,
    mut sample: Vec<f32>,
    seq: Option<u64>,
) {
    // Records into the ingest histogram on every exit path, including the
    // quarantine early-returns.
    let _span = Span::start(&*ctx.clock, &ctx.stats.ingest_ns);
    let Some(slot) = slots.get_mut(&id) else {
        // No slot means no history to fabricate a forecast from: count the
        // orphan here; the next forecast for this id surfaces
        // `ServeError::UnknownEntity` to the caller.
        ctx.stats.unknown_entity_ingests.inc();
        return;
    };
    *current = Some(id.clone());
    if let Some(plan) = &ctx.faults {
        plan.corrupt_sample(&id, &mut sample);
    }

    // Guardrail 1: arity. A sample of the wrong width cannot be repaired.
    if sample.len() != slot.predictor.column_names().len() {
        ctx.stats.quarantined_samples.inc();
        ctx.note(
            EventKind::Quarantined,
            Some(&id),
            format!(
                "sample arity {} != {}",
                sample.len(),
                slot.predictor.column_names().len()
            ),
        );
        return;
    }

    // Guardrail 2: sequence gaps (paper §III-A: monitoring streams lose
    // records). Stale replays are quarantined; gaps are forward-filled up
    // to a cap so the model's input window stays contiguous.
    if let Some(seq) = seq {
        match slot.next_seq {
            Some(expected) if seq < expected => {
                ctx.stats.quarantined_samples.inc();
                ctx.note(
                    EventKind::Quarantined,
                    Some(&id),
                    format!("stale sequence replay: got {seq}, expected {expected}"),
                );
                return;
            }
            Some(expected) if seq > expected => {
                let missed = seq - expected;
                ctx.stats.gap_samples.add(missed);
                if ctx.ingest_guard == IngestGuard::Repair {
                    if let Some(fill) = slot.last_valid.clone() {
                        for _ in 0..missed.min(MAX_GAP_FILL) {
                            let _ = slot.predictor.mutate().observe(&fill);
                        }
                    }
                }
            }
            _ => {}
        }
        slot.next_seq = Some(seq + 1);
    }

    // Guardrail 3: non-finite values — repaired by forward-filling the
    // last valid observation, or quarantined when repair is impossible.
    if sample.iter().any(|v| !v.is_finite()) {
        let repaired = match (ctx.ingest_guard, &slot.last_valid) {
            (IngestGuard::Repair, Some(last)) => {
                for (v, lv) in sample.iter_mut().zip(last) {
                    if !v.is_finite() {
                        *v = *lv;
                    }
                }
                true
            }
            _ => false,
        };
        if repaired {
            ctx.stats.repaired_samples.inc();
            ctx.note(
                EventKind::Repaired,
                Some(&id),
                "non-finite values forward-filled from last valid sample".to_string(),
            );
        } else {
            ctx.stats.quarantined_samples.inc();
            ctx.note(
                EventKind::Quarantined,
                Some(&id),
                "unrepairable non-finite sample".to_string(),
            );
            return;
        }
    }

    // Score the forecast issued last interval against the truth arriving
    // now.
    if let (Some(forecast), Some(col)) = (slot.pending.take(), slot.target_column) {
        if let Some(&actual) = sample.get(col) {
            lock_recover(&ctx.stats.score).score(forecast, actual);
            // Same signed residual (raw units) calibrates the entity's
            // conformal window; non-finite values are dropped inside.
            slot.conformal.push(actual - forecast);
        }
    }
    if slot.predictor.mutate().observe(&sample).is_err() {
        ctx.stats.quarantined_samples.inc();
        ctx.note(
            EventKind::Quarantined,
            Some(&id),
            "history rejected the sample".to_string(),
        );
        return;
    }
    if let Some(col) = slot.target_column {
        slot.fallback.observe(sample[col]);
    }
    slot.last_valid = Some(sample);
    ctx.stats.ingested.inc();
    slot.samples_since_refit += 1;
    if ctx.refit_every > 0 && slot.samples_since_refit >= ctx.refit_every && !slot.refit_in_flight {
        dispatch_refit(ctx, &id, slot);
    }
    if ctx.score_on_ingest {
        slot.pending = rolling_forecast(ctx, &id, slot);
    }
}

/// First step of the forecast issued for ingest-time scoring: model when
/// healthy — this is the one model run a sample costs; the reads that
/// follow until the next sample are answered from what it leaves in the
/// memo — fallback otherwise, so the rolling accuracy of degraded
/// entities tracks what they actually serve.
fn rolling_forecast(ctx: &ShardContext, id: &str, slot: &mut EntitySlot) -> Option<f32> {
    if let Some(fc) = model_forecast(ctx, id, slot) {
        return Some(fc[0]);
    }
    slot.fallback.forecast(slot.horizon).map(|fc| fc[0])
}

/// The model's forecast for `slot`'s current state, `None` when the entity
/// is (or just became) degraded. Answered from the memo when the state has
/// not been written since it was computed; otherwise one model run,
/// guarded against panics and non-finite output, whose result the memo
/// keeps. A failure degrades the entity and leaves nothing behind.
fn model_forecast<'a>(ctx: &ShardContext, id: &str, slot: &'a mut EntitySlot) -> Option<&'a [f32]> {
    if slot.health != EntityHealth::Healthy {
        return None;
    }
    if slot.predictor.memo().is_some() {
        ctx.stats.memo_hits.inc();
        return slot.predictor.memo();
    }
    match catch_unwind(AssertUnwindSafe(|| slot.predictor.forecast())) {
        Ok(Ok(fc)) if usable(&fc) => {
            slot.predictor.remember(fc);
            return slot.predictor.memo();
        }
        Ok(Ok(fc)) => degrade(
            ctx,
            id,
            slot,
            ServeError::Frame(format!("non-finite forecast {fc:?}")),
        ),
        Ok(Err(e)) => degrade(ctx, id, slot, ServeError::from(e)),
        Err(_) => degrade(ctx, id, slot, ServeError::Frame("model panicked".into())),
    }
    None
}

/// Serve a batch of forecast requests. An entity whose state has not
/// changed since its last model run is answered from its memo. Of the
/// rest, healthy entities that share a weight group (see
/// [`ResourcePredictor::shared_group`]) and produce identically-shaped
/// input windows are stacked into ONE batched engine call, whose rows then
/// fill their memos; every other entity — degraded, unknown, ungrouped,
/// or alone in its group — takes the per-entity path, so the fallback and
/// degradation semantics of [`forecast_entity`] are preserved exactly.
fn forecast_many(
    ctx: &ShardContext,
    slots: &mut HashMap<String, EntitySlot>,
    current: &mut Option<String>,
    ids: Vec<String>,
) -> ForecastReplies {
    /// Members of one weight-sharing group: their reply indices in request
    /// order and their windows stacked row after row, ready to be the
    /// batched engine call's input.
    #[derive(Default)]
    struct Batch {
        members: Vec<usize>,
        stacked: Vec<f32>,
        /// `(window, features)` of every stacked row.
        shape: (usize, usize),
    }
    impl Batch {
        /// Stack `predictor`'s window as the next row. `false`, with
        /// nothing stacked, when window preparation fails or panics or the
        /// row does not have the group's shape: the per-entity path then
        /// re-runs it under its own guard and degrades.
        fn push(&mut self, idx: usize, predictor: &ResourcePredictor) -> bool {
            let mark = self.stacked.len();
            let window = catch_unwind(AssertUnwindSafe(|| {
                predictor.inference_window_into(&mut self.stacked)
            }));
            match window {
                Ok(Ok(shape)) if self.members.is_empty() || shape == self.shape => {
                    self.shape = shape;
                    self.members.push(idx);
                    true
                }
                _ => {
                    self.stacked.truncate(mark);
                    false
                }
            }
        }
    }
    let mut replies: Vec<Option<Result<Vec<f32>, ServeError>>> =
        (0..ids.len()).map(|_| None).collect();
    // Keyed by shared group id; ordered, so batch calls come out in the
    // same order on every run.
    let mut groups: BTreeMap<u64, Batch> = BTreeMap::new();

    for (idx, id) in ids.iter().enumerate() {
        *current = Some(id.clone());
        if let Some(plan) = &ctx.faults {
            if plan.take_forecast_panic(id) {
                FaultPlan::forecast_panic_now(id);
            }
        }
        let batched = match slots.get(id) {
            // Only a cold memo needs the model, hence a place in a stack.
            Some(slot)
                if slot.health == EntityHealth::Healthy && slot.predictor.memo().is_none() =>
            {
                slot.predictor.shared_group().is_some_and(|group| {
                    groups.entry(group).or_default().push(idx, &slot.predictor)
                })
            }
            _ => false,
        };
        if !batched {
            replies[idx] = Some(forecast_one(ctx, slots, id));
        }
        *current = None;
    }

    for batch in groups.into_values() {
        let Batch {
            members,
            stacked,
            shape: (window, features),
        } = batch;
        // A singleton gains nothing from stacking; keep it on the
        // per-entity path so its behaviour and latency accounting are
        // identical to an ungrouped entity.
        if members.len() <= 1 {
            for idx in members {
                let id = &ids[idx];
                *current = Some(id.clone());
                replies[idx] = Some(forecast_one(ctx, slots, id));
                *current = None;
            }
            continue;
        }
        let batch_started = ctx.clock.now_nanos();
        let rows = members.len();
        let leader = &ids[members[0]];
        *current = Some(leader.clone());
        let x = Tensor::from_vec(stacked, &[rows, window, features]);
        // The leader was grouped from `slots` moments ago, so the lookup
        // cannot miss; treating a miss like a panicked batch keeps this
        // path panic-free and still answers every member below.
        let pred = slots
            .get(leader)
            .map(|slot| catch_unwind(AssertUnwindSafe(|| slot.predictor.predict_batch(&x))));
        *current = None;
        let pred = match pred {
            Some(Ok(pred)) => pred,
            None | Some(Err(_)) => {
                // The batched call panicked; retry each member alone so the
                // per-entity guard pins down and degrades the culprit while
                // its groupmates still get answers.
                for idx in members {
                    let id = &ids[idx];
                    *current = Some(id.clone());
                    replies[idx] = Some(forecast_one(ctx, slots, id));
                    *current = None;
                }
                continue;
            }
        };
        ctx.stats.batch_calls.inc();
        let per_entity_nanos = ctx.clock.now_nanos().saturating_sub(batch_started) / rows as u64;
        let horizon = pred.shape()[1];
        for (row, idx) in members.iter().enumerate() {
            let id = &ids[*idx];
            *current = Some(id.clone());
            let normalized = &pred.as_slice()[row * horizon..(row + 1) * horizon];
            // Members were grouped from `slots` in this same call, so the
            // lookup cannot miss; answer UnknownEntity rather than panic.
            let Some(slot) = slots.get_mut(id) else {
                replies[*idx] = Some(Err(ServeError::UnknownEntity(id.clone())));
                *current = None;
                continue;
            };
            let fc = slot.predictor.denormalize_forecast(normalized);
            if usable(&fc) {
                ctx.stats.forecasts.inc();
                ctx.stats.batched_forecasts.inc();
                ctx.stats.forecast_ns.record(per_entity_nanos);
                // The row is what `forecast()` returns for this state, bit
                // for bit, so it serves the reads that follow.
                slot.predictor.remember(fc.clone());
                replies[*idx] = Some(Ok(fc));
            } else {
                // A bad row degrades only its own entity; the shared
                // fallback machinery answers, mirroring `forecast_entity`.
                degrade(
                    ctx,
                    id,
                    slot,
                    ServeError::Frame(format!("non-finite forecast {fc:?}")),
                );
                if ctx.refit_enabled && !slot.refit_in_flight {
                    dispatch_refit(ctx, id, slot);
                }
                replies[*idx] = Some(match slot.fallback.forecast(slot.horizon) {
                    Some(fb) => {
                        ctx.stats.fallback_forecasts.inc();
                        ctx.stats.forecasts.inc();
                        ctx.stats.forecast_ns.record(per_entity_nanos);
                        Ok(fb)
                    }
                    None => Err(ServeError::Poisoned(id.clone())),
                });
            }
            *current = None;
        }
    }

    ids.into_iter()
        .zip(replies)
        .map(|(id, res)| {
            // Every index is answered by the loops above; a hole would be
            // a batching bug, surfaced as an error instead of a panic.
            let res = res.unwrap_or_else(|| Err(ServeError::UnknownEntity(id.clone())));
            (id, res)
        })
        .collect()
}

/// Per-entity forecast with the original timing and counter accounting:
/// successful forecasts finish a span into the latency histogram, failed
/// ones cancel it so errors never skew the percentiles.
fn forecast_one(
    ctx: &ShardContext,
    slots: &mut HashMap<String, EntitySlot>,
    id: &str,
) -> Result<Vec<f32>, ServeError> {
    let span = Span::start(&*ctx.clock, &ctx.stats.forecast_ns);
    let res = forecast_entity(ctx, slots, id);
    if res.is_ok() {
        ctx.stats.forecasts.inc();
        span.finish();
    } else {
        span.cancel();
    }
    res
}

/// Batched interval forecasts. Point values come from the SAME
/// [`forecast_many`] path plain forecasts use, so the point block of an
/// interval reply is bitwise-identical to [`ShardMsg::ForecastBatch`];
/// the interval attaches as two scalar conformal offsets (no extra
/// allocation on the healthy streaming path — the point vector is moved,
/// not copied). Degraded entities are answered from their last-good
/// interval (journaled as `interval_fallback`), never from an uncovered
/// point estimate.
fn forecast_interval_many(
    ctx: &ShardContext,
    slots: &mut HashMap<String, EntitySlot>,
    current: &mut Option<String>,
    ids: Vec<String>,
) -> IntervalReplies {
    forecast_many(ctx, slots, current, ids)
        .into_iter()
        .map(|(id, res)| {
            let out = res.map(|point| attach_interval(ctx, slots, &id, point).0);
            (id, out)
        })
        .collect()
}

/// Batched capacity reservations: interval first (same machinery as
/// [`forecast_interval_many`], including the degraded last-good fallback),
/// then the Bayesian decision rule with per-entity hysteresis.
fn reserve_many(
    ctx: &ShardContext,
    slots: &mut HashMap<String, EntitySlot>,
    current: &mut Option<String>,
    ids: Vec<String>,
) -> ReserveReplies {
    let rule = DecisionRule::new(ctx.decision);
    forecast_many(ctx, slots, current, ids)
        .into_iter()
        .map(|(id, res)| {
            let out = res.map(|point| {
                let (interval, reserve_offset) = attach_interval(ctx, slots, &id, point);
                decide_reservation(ctx, slots, &rule, &id, &interval, reserve_offset)
            });
            (id, out)
        })
        .collect()
}

/// Attach conformal offsets to a point forecast that [`forecast_many`]
/// just produced for `id`. Returns the interval plus the upper offset at
/// the cost model's critical ratio (what a reservation adds on top of the
/// peak point forecast). Healthy entities refresh their last-good
/// interval in place (the stored point buffer is reused, not
/// reallocated); degraded entities answer from it.
fn attach_interval(
    ctx: &ShardContext,
    slots: &mut HashMap<String, EntitySlot>,
    id: &str,
    point: Vec<f32>,
) -> (IntervalForecast, f32) {
    let cold = ctx.decision.cold_start_headroom;
    let Some(slot) = slots.get_mut(id) else {
        // forecast_many only answers Ok for installed entities; a slot
        // evicted mid-batch is answered wide-open rather than panicking.
        let interval = IntervalForecast {
            point,
            offset_lo: -cold,
            offset_hi: cold,
            calibration: Calibration::Insufficient,
            source: IntervalSource::Widened,
        };
        return (interval, cold);
    };
    if slot.health == EntityHealth::Healthy {
        let calibration = slot.conformal.calibration();
        let (offset_lo, offset_hi, reserve_offset) = match calibration {
            Calibration::Calibrated => {
                let (lo, hi) = slot.conformal.interval_offsets(ctx.interval_coverage);
                let tau = ctx.decision.cost.critical_ratio();
                (lo, hi, slot.conformal.upper_offset(tau))
            }
            Calibration::Insufficient => {
                // Degrade gracefully: widest residual ever seen plus the
                // configured cold-start prior, on both sides.
                let w = slot.conformal.max_abs() + cold;
                (-w, w, w)
            }
        };
        match &mut slot.last_good {
            Some(lg) => {
                lg.point.clear();
                lg.point.extend_from_slice(&point);
                lg.offset_lo = offset_lo;
                lg.offset_hi = offset_hi;
                lg.reserve_offset = reserve_offset;
                lg.calibration = calibration;
            }
            None => {
                slot.last_good = Some(LastGoodInterval {
                    point: point.clone(),
                    offset_lo,
                    offset_hi,
                    reserve_offset,
                    calibration,
                });
            }
        }
        ctx.stats.interval_forecasts.inc();
        let interval = IntervalForecast {
            point,
            offset_lo,
            offset_hi,
            calibration,
            source: IntervalSource::Live,
        };
        (interval, reserve_offset)
    } else {
        ctx.stats.interval_fallbacks.inc();
        match &slot.last_good {
            Some(lg) => {
                ctx.note(
                    EventKind::IntervalFallback,
                    Some(id),
                    "degraded entity answered from last-good interval".to_string(),
                );
                let interval = IntervalForecast {
                    point: lg.point.clone(),
                    offset_lo: lg.offset_lo,
                    offset_hi: lg.offset_hi,
                    calibration: lg.calibration,
                    source: IntervalSource::LastGood,
                };
                (interval, lg.reserve_offset)
            }
            None => {
                let w = slot.conformal.max_abs() + cold;
                ctx.note(
                    EventKind::IntervalFallback,
                    Some(id),
                    "degraded entity with no last-good interval: fallback point widened"
                        .to_string(),
                );
                let interval = IntervalForecast {
                    point,
                    offset_lo: -w,
                    offset_hi: w,
                    calibration: Calibration::Insufficient,
                    source: IntervalSource::Widened,
                };
                (interval, w)
            }
        }
    }
}

/// Run one reservation decision through the rule + per-entity hysteresis,
/// with counter and journal accounting for executed scale actions.
fn decide_reservation(
    ctx: &ShardContext,
    slots: &mut HashMap<String, EntitySlot>,
    rule: &DecisionRule,
    id: &str,
    interval: &IntervalForecast,
    reserve_offset: f32,
) -> Reservation {
    // Reserve against the peak of the horizon: capacity must cover the
    // worst forecast step, not the average one.
    let peak = interval
        .point
        .iter()
        .fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let target = rule.target(peak, reserve_offset);
    let Some(slot) = slots.get_mut(id) else {
        return Reservation {
            target,
            reservation: target,
            action: ScaleAction::Hold,
            calibration: interval.calibration,
            source: interval.source,
        };
    };
    let decision = rule.decide(&mut slot.hysteresis, target);
    ctx.stats.reservations.inc();
    match decision.action {
        ScaleAction::Up => {
            ctx.stats.scale_ups.inc();
            ctx.note(
                EventKind::ScaleUp,
                Some(id),
                format!("reservation raised to {:.4}", decision.reservation),
            );
        }
        ScaleAction::Down => {
            ctx.stats.scale_downs.inc();
            ctx.note(
                EventKind::ScaleDown,
                Some(id),
                format!("reservation lowered to {:.4}", decision.reservation),
            );
        }
        ScaleAction::Hold => {}
    }
    Reservation {
        target,
        reservation: decision.reservation,
        action: decision.action,
        calibration: interval.calibration,
        source: interval.source,
    }
}

/// Serve one forecast request. Healthy entities use their model; any
/// panic, error or non-finite output flips them to degraded and the naive
/// fallback answers — the caller always receives finite values or a typed
/// error, never NaN.
fn forecast_entity(
    ctx: &ShardContext,
    slots: &mut HashMap<String, EntitySlot>,
    id: &str,
) -> Result<Vec<f32>, ServeError> {
    let Some(slot) = slots.get_mut(id) else {
        return Err(ServeError::UnknownEntity(id.to_string()));
    };
    if slot.health == EntityHealth::Healthy {
        if let Some(fc) = model_forecast(ctx, id, slot) {
            return Ok(fc.to_vec());
        }
        if ctx.refit_enabled && !slot.refit_in_flight {
            dispatch_refit(ctx, id, slot);
        }
    }
    match slot.fallback.forecast(slot.horizon) {
        Some(fc) => {
            ctx.stats.fallback_forecasts.inc();
            Ok(fc)
        }
        None => Err(ServeError::Poisoned(id.to_string())),
    }
}

/// Flip an entity into degraded mode (idempotent) and remember why. The
/// transition — not every repeated failure — is journalled. Its model no
/// longer answers, so the memo goes too.
pub(crate) fn degrade(ctx: &ShardContext, id: &str, slot: &mut EntitySlot, reason: ServeError) {
    slot.predictor.forget();
    if slot.health == EntityHealth::Healthy {
        slot.health = EntityHealth::Degraded;
        ctx.stats.degraded.inc();
        ctx.note(EventKind::Degraded, Some(id), reason.to_string());
    }
    slot.last_error = Some(reason);
}

fn apply_refit_outcome(
    ctx: &ShardContext,
    slots: &mut HashMap<String, EntitySlot>,
    id: &str,
    outcome: RefitOutcome,
) {
    let Some(slot) = slots.get_mut(id) else {
        return;
    };
    slot.refit_in_flight = false;
    match outcome {
        RefitOutcome::Replaced(model, preprocess) => {
            match slot.predictor.mutate().try_install_refit(model, preprocess) {
                Ok(()) => {
                    ctx.stats.refits_completed.inc();
                    ctx.note(
                        EventKind::RefitCompleted,
                        Some(id),
                        "replacement validated and swapped in".to_string(),
                    );
                    if slot.health == EntityHealth::Degraded {
                        slot.health = EntityHealth::Healthy;
                        ctx.stats.degraded.dec();
                        slot.last_error = None;
                        ctx.note(
                            EventKind::Recovered,
                            Some(id),
                            "clean refit restored the model".to_string(),
                        );
                    }
                }
                Err(e) => {
                    ctx.stats.refits_rejected.inc();
                    ctx.note(EventKind::RefitRollback, Some(id), e.0.clone());
                    slot.last_error = Some(ServeError::Frame(e.0));
                }
            }
        }
        RefitOutcome::Failed => {
            ctx.stats.refit_failures.inc();
            ctx.note(
                EventKind::RefitFailed,
                Some(id),
                "every training attempt failed".to_string(),
            );
            slot.last_error = Some(ServeError::Frame(format!(
                "background refit for `{id}` failed"
            )));
        }
        RefitOutcome::TimedOut => {
            ctx.stats.refit_timeouts.inc();
            ctx.note(
                EventKind::RefitTimedOut,
                Some(id),
                "last attempt exceeded the refit deadline".to_string(),
            );
            slot.last_error = Some(ServeError::RefitTimeout {
                entity: id.to_string(),
            });
        }
    }
}

/// Ship a shadow-refit job for `slot` to the background pool. The live
/// model keeps serving; `refit_in_flight` stops duplicate dispatches.
pub(crate) fn dispatch_refit(ctx: &ShardContext, id: &str, slot: &mut EntitySlot) {
    let Some(model_state) = slot.predictor.model_state() else {
        // Model cannot be checkpointed, so it cannot be shadow-trained
        // either; re-arm and keep serving.
        slot.samples_since_refit = 0;
        return;
    };
    let Ok(frame) = slot.predictor.history_snapshot() else {
        slot.samples_since_refit = 0;
        return;
    };
    let job = RefitJob {
        entity: id.to_string(),
        shard: ctx.shard_id,
        frame,
        cfg: slot.predictor.config().clone(),
        model_state,
    };
    if ctx.refit_tx.send(job).is_ok() {
        slot.refit_in_flight = true;
        slot.samples_since_refit = 0;
        ctx.stats.refits_started.inc();
    }
}

fn snapshot_all(
    slots: &HashMap<String, EntitySlot>,
) -> Result<Vec<(String, PredictorState)>, ServeError> {
    let mut ids: Vec<&String> = slots.keys().collect();
    ids.sort();
    snapshot_sorted(slots, ids)
}

/// The named entities this shard holds, sorted by id, once each.
fn snapshot_named(
    slots: &HashMap<String, EntitySlot>,
    named: &[String],
) -> Result<Vec<(String, PredictorState)>, ServeError> {
    let mut ids: Vec<&String> = named.iter().filter(|id| slots.contains_key(*id)).collect();
    ids.sort();
    ids.dedup();
    snapshot_sorted(slots, ids)
}

fn snapshot_sorted(
    slots: &HashMap<String, EntitySlot>,
    ids: Vec<&String>,
) -> Result<Vec<(String, PredictorState)>, ServeError> {
    ids.into_iter()
        .map(|id| {
            slots[id]
                .predictor
                .snapshot()
                .map(|st| (id.clone(), st))
                .map_err(ServeError::from)
        })
        .collect()
}

/// A refit-pool worker: pulls jobs, trains a fresh model of the same
/// architecture on the shipped history (with retries, bounded exponential
/// backoff and an optional per-attempt deadline, all paced on the injected
/// clock), and posts the outcome back to the owning shard. Each job's
/// end-to-end duration lands in the shard's `refit_ns` histogram. Exits
/// when the job channel closes.
pub(crate) fn run_refit_worker(
    rx: Arc<Mutex<Receiver<RefitJob>>>,
    shards: Vec<(SyncSender<ShardMsg>, Arc<ShardStatsCore>)>,
    policy: RefitPolicy,
    faults: Option<FaultPlan>,
    clock: SharedClock,
) {
    loop {
        // Hold the lock only while waiting: workers take turns receiving,
        // then train in parallel.
        let job = match lock_recover(&rx).recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        let (tx, stats) = &shards[job.shard];
        let span = Span::start(&*clock, &stats.refit_ns);
        let outcome = execute_refit(&job, &policy, faults.as_ref(), &clock);
        span.finish();
        stats.queue_depth.inc();
        if tx
            .send(ShardMsg::RefitDone {
                id: job.entity,
                outcome,
            })
            .is_err()
        {
            // Shard already gone: service is shutting down.
            stats.queue_depth.dec();
            return;
        }
    }
}

/// Run a job through the retry policy: every attempt is panic-guarded and
/// (when a deadline is set) abandoned if it exceeds it; failures back off
/// exponentially up to `backoff_max` so a struggling entity cannot hog the
/// pool. Backoff waits on the injected clock, so a `SimClock` turns the
/// whole retry ladder instant.
fn execute_refit(
    job: &RefitJob,
    policy: &RefitPolicy,
    faults: Option<&FaultPlan>,
    clock: &SharedClock,
) -> RefitOutcome {
    let fault = faults.and_then(|p| p.refit_fault(&job.entity));
    let mut timed_out = false;
    for attempt in 0..policy.max_attempts.max(1) {
        if attempt > 0 {
            let shift = (attempt - 1).min(16);
            let backoff = policy
                .backoff
                .saturating_mul(1u32 << shift)
                .min(policy.backoff_max);
            clock.sleep(backoff);
        }
        if fault == Some(RefitFault::Fail) {
            continue;
        }
        let delay = match fault {
            Some(RefitFault::Slow(d)) => Some(d),
            _ => None,
        };
        match attempt_refit(job, delay, policy.timeout, clock) {
            Ok(Some(replacement)) => return RefitOutcome::Replaced(replacement.0, replacement.1),
            Ok(None) => continue,
            Err(AttemptTimedOut) => {
                timed_out = true;
                continue;
            }
        }
    }
    if timed_out {
        RefitOutcome::TimedOut
    } else {
        RefitOutcome::Failed
    }
}

struct AttemptTimedOut;

type Replacement = (Box<dyn Forecaster + Send>, FittedPreprocess);

/// One training attempt. Panics are contained (a crashing `fit` is a
/// failed attempt, not a dead pool worker). With a deadline, training runs
/// on a watchdog thread; the watchdog compares elapsed time *on the
/// injected clock* against the deadline in short real-time polls, so a
/// virtually-delayed attempt under a `SimClock` times out deterministically
/// and without real waiting. A result that arrives after its (clock-time)
/// deadline is discarded as timed out, never installed.
fn attempt_refit(
    job: &RefitJob,
    injected_delay: Option<Duration>,
    timeout: Option<Duration>,
    clock: &SharedClock,
) -> Result<Option<Replacement>, AttemptTimedOut> {
    match timeout {
        None => {
            if let Some(d) = injected_delay {
                clock.sleep(d);
            }
            Ok(catch_unwind(AssertUnwindSafe(|| train_replacement(job))).unwrap_or(None))
        }
        Some(deadline) => {
            let owned = job.clone();
            let (tx, rx) = std::sync::mpsc::sync_channel(1);
            let attempt_clock = Arc::clone(clock);
            // Stamp the start *before* spawning: the attempt thread may
            // advance a `SimClock` (injected delay) before this thread
            // runs again, and that advance must count as elapsed time.
            let started = clock.now_nanos();
            std::thread::Builder::new()
                .name(format!("serve-refit-attempt-{}", owned.entity))
                .spawn(move || {
                    if let Some(d) = injected_delay {
                        attempt_clock.sleep(d);
                    }
                    let out = catch_unwind(AssertUnwindSafe(|| train_replacement(&owned)))
                        .unwrap_or(None);
                    let _ = tx.send(out);
                })
                .map_err(|_| AttemptTimedOut)?;
            let deadline_nanos = deadline.as_nanos() as u64;
            let over_deadline =
                |clock: &SharedClock| clock.now_nanos().saturating_sub(started) > deadline_nanos;
            loop {
                match rx.recv_timeout(WATCHDOG_POLL.min(deadline)) {
                    // Late results are discarded even though they arrived:
                    // in clock time the attempt overran its deadline.
                    Ok(_) if over_deadline(clock) => return Err(AttemptTimedOut),
                    Ok(out) => return Ok(out),
                    Err(RecvTimeoutError::Timeout) => {
                        if over_deadline(clock) {
                            return Err(AttemptTimedOut);
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => return Err(AttemptTimedOut),
                }
            }
        }
    }
}

/// Fit a fresh model of the same architecture on the job's history
/// snapshot. `None` when preparation or training fails — the shard then
/// keeps the model it has.
fn train_replacement(job: &RefitJob) -> Option<Replacement> {
    let mut model = forecaster_like(&job.model_state).ok()?;
    let prepared = prepare(&job.frame, &job.cfg).ok()?;
    run_model(model.as_mut(), &prepared);
    Some((model, prepared.fitted()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::{NeuralTrainSpec, RptcnConfig, RptcnForecaster};
    use obs::{MonotonicClock, Registry};
    use rptcn::Scenario;

    fn context() -> (ShardContext, Receiver<RefitJob>) {
        let (refit_tx, refit_rx) = std::sync::mpsc::channel();
        let ctx = ShardContext {
            shard_id: 0,
            stats: Arc::new(ShardStatsCore::new(&Registry::new(), 0)),
            clock: MonotonicClock::shared(),
            journal: Arc::new(Journal::new(16)),
            refit_tx,
            refit_every: 0,
            refit_enabled: false,
            score_on_ingest: true,
            ingest_guard: IngestGuard::Repair,
            faults: None,
            decision: DecisionConfig::default(),
            interval_coverage: 0.9,
            residual_window: 16,
        };
        (ctx, refit_rx)
    }

    fn rptcn(seed: u64) -> RptcnForecaster {
        RptcnForecaster::new(RptcnConfig {
            channels: 4,
            levels: 1,
            fc_dim: 8,
            spec: NeuralTrainSpec {
                epochs: 20,
                seed,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// No fault plan can make a trained replacement fail validation, so the
    /// rejected-refit route is driven here, below the service.
    #[test]
    fn a_rejected_replacement_keeps_the_answer_and_an_accepted_one_moves_it() {
        let cpu: Vec<f32> = (0..96)
            .map(|i| 0.45 + 0.25 * (i as f32 * 0.2).sin())
            .collect();
        let frame = TimeSeriesFrame::from_columns(&[("cpu_util_percent", cpu)]).unwrap();
        let cfg = PipelineConfig {
            scenario: Scenario::Uni,
            window: 12,
            horizon: 2,
            ..Default::default()
        };
        let (predictor, _) =
            ResourcePredictor::fit(Box::new(rptcn(1)), &frame, cfg.clone()).expect("fit");
        let (ctx, _refit_rx) = context();
        let mut slots = HashMap::new();
        install_entity(&ctx, &mut slots, "e".into(), Box::new(predictor)).expect("install");
        let own = |slots: &HashMap<String, EntitySlot>| {
            let state = slots["e"].predictor.snapshot().expect("snapshot");
            let twin = ResourcePredictor::from_state(&state).expect("twin");
            bits(&twin.forecast().expect("own forecast"))
        };

        let before = own(&slots);
        assert_eq!(
            bits(&forecast_entity(&ctx, &mut slots, "e").unwrap()),
            before
        );
        assert!(slots["e"].predictor.memo().is_some());

        // A replacement whose head diverged: validation refuses it.
        let prepared = prepare(&frame, &cfg).expect("prepare");
        let mut refit = rptcn(2);
        run_model(&mut refit, &prepared);
        let mut poisoned = refit.state().expect("fitted state");
        let (_, head) = poisoned.tensors.last_mut().expect("head tensors");
        *head = Tensor::full(head.shape(), f32::NAN);
        let diverged = RptcnForecaster::from_state(&poisoned).expect("shapes match");
        let outcome = RefitOutcome::Replaced(Box::new(diverged), prepared.fitted());
        apply_refit_outcome(&ctx, &mut slots, "e", outcome);
        assert_eq!(ctx.stats.refits_rejected.get(), 1);
        assert_eq!(
            bits(&forecast_entity(&ctx, &mut slots, "e").unwrap()),
            before
        );

        // The same refit, undamaged: the warm memo must not outlive it.
        assert!(slots["e"].predictor.memo().is_some());
        let outcome = RefitOutcome::Replaced(Box::new(refit), prepared.fitted());
        apply_refit_outcome(&ctx, &mut slots, "e", outcome);
        assert_eq!(ctx.stats.refits_completed.get(), 1);
        let after = own(&slots);
        assert_ne!(after, before, "the refit changed nothing");
        assert_eq!(
            bits(&forecast_entity(&ctx, &mut slots, "e").unwrap()),
            after
        );
        assert_eq!(slots["e"].health, EntityHealth::Healthy);
    }
}
