//! Shard supervision: the shard message loop runs under `catch_unwind`,
//! and a panic escaping it — a crashing model, a poisoned invariant, an
//! injected fault — restarts the loop with the surviving entity slots
//! intact instead of killing the thread and orphaning every entity on the
//! shard.
//!
//! On each restart the supervisor:
//! 1. bumps the shard's `restarts` counter,
//! 2. attributes the crash to the entity whose message was being processed
//!    (tracked in a crash cursor the loop updates before touching any
//!    predictor),
//! 3. rebuilds that entity's predictor from its own snapshot — shedding
//!    any state a half-completed mutation may have corrupted — and flips
//!    it to [`EntityHealth::Degraded`] so the naive fallback serves it,
//! 4. dispatches a recovery refit so the entity returns to `Healthy` as
//!    soon as a clean model can be trained from its history.
//!
//! Callers that were waiting on a reply channel when the panic struck
//! observe [`ServeError::ShardDown`](crate::ServeError::ShardDown) for
//! that one request (the reply sender is dropped during unwinding) and
//! succeed on retry — the restarted loop keeps draining the same queue.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::Receiver;

use obs::{EventKind, Span};
use rptcn::ResourcePredictor;

use crate::error::ServeError;
use crate::shard::{degrade, dispatch_refit, shard_loop, EntitySlot, ShardContext, ShardMsg};
use crate::stats::EntityHealth;

/// Serving health of one entity, as reported by
/// [`PredictionService::entity_health`](crate::PredictionService::entity_health).
#[derive(Debug, Clone, PartialEq)]
pub struct EntityHealthReport {
    /// Whether the entity serves from its model or its fallback.
    pub health: EntityHealth,
    /// Times this entity's model crashed the shard worker.
    pub crashes: u32,
    /// Why the entity last left `Healthy` (cleared on recovery).
    pub last_error: Option<ServeError>,
}

/// Run a shard worker until clean shutdown, restarting its message loop
/// whenever a panic unwinds out of it.
pub(crate) fn run_supervised_shard(ctx: ShardContext, rx: Receiver<ShardMsg>) {
    let mut slots: HashMap<String, EntitySlot> = HashMap::new();
    loop {
        let mut current: Option<String> = None;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            shard_loop(&ctx, &rx, &mut slots, &mut current)
        }));
        match outcome {
            Ok(()) => break,
            Err(_) => {
                ctx.stats.restarts.inc();
                ctx.note(
                    EventKind::ShardRestart,
                    current.as_deref(),
                    match &current {
                        Some(id) => format!("panic escaped while processing `{id}`"),
                        None => "panic escaped between messages".to_string(),
                    },
                );
                if let Some(id) = current {
                    // Restart handling — degrade, rebuild, recovery refit —
                    // is timed into the shard's restart histogram.
                    let _span = Span::start(&*ctx.clock, &ctx.stats.restart_ns);
                    quarantine_culprit(&ctx, &mut slots, &id);
                }
            }
        }
    }
}

/// Contain the entity whose message crashed the loop: degrade it, rebuild
/// its predictor from a snapshot, and queue a recovery refit.
fn quarantine_culprit(ctx: &ShardContext, slots: &mut HashMap<String, EntitySlot>, id: &str) {
    let Some(slot) = slots.get_mut(id) else {
        return;
    };
    slot.crashes += 1;
    degrade(
        ctx,
        id,
        slot,
        ServeError::Frame(format!("entity `{id}` crashed the shard worker")),
    );
    // Shed whatever a half-completed mutation left behind: a freshly
    // deserialised predictor from the entity's own snapshot is guaranteed
    // internally consistent. If even snapshotting fails, keep the old
    // object — degraded mode never calls its model anyway.
    if let Ok(state) = slot.predictor.snapshot() {
        if let Ok(fresh) = ResourcePredictor::from_state(&state) {
            slot.predictor.replace(fresh);
        }
    }
    // A refit may have been in flight when the crash hit; it will still be
    // applied (or fail) via its RefitDone message. Only dispatch a recovery
    // refit when none is pending.
    if ctx.refit_enabled && !slot.refit_in_flight {
        dispatch_refit(ctx, id, slot);
    }
}
