//! Bounded event journal: the operational flight recorder.
//!
//! Metrics say *how much*; the journal says *what happened* — which
//! shard restarted, which entity was quarantined, which refit rolled
//! back and why. It is a fixed-capacity ring: recording is O(1) under a
//! short mutex hold, old events are overwritten once the ring is full,
//! and the number of overwritten events is tracked so a reader knows
//! when the trail is incomplete.

use std::sync::{Mutex, MutexGuard};

/// What happened. Kinds mirror the fault-tolerance surface of the
/// serving stack so every injected fault has a distinct trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A shard worker panicked and was restarted by its supervisor.
    ShardRestart,
    /// A shard entered degraded (fallback-only) mode.
    Degraded,
    /// A shard left degraded mode after a successful refit.
    Recovered,
    /// An entity's stream was quarantined (poisoned input or repeated
    /// crash attribution).
    Quarantined,
    /// A sample was repaired in place (non-finite value substituted).
    Repaired,
    /// A shadow refit finished and was swapped in.
    RefitCompleted,
    /// A shadow refit failed validation or crashed.
    RefitFailed,
    /// A shadow refit overran its watchdog deadline.
    RefitTimedOut,
    /// A swapped-in refit regressed and was rolled back.
    RefitRollback,
    /// An ingest was rejected because the shard's queue was full.
    QueueRejected,
    /// A fleet checkpoint was written or restored.
    Checkpoint,
    /// A serving node joined the fleet (or recovered from `NodeDown`).
    NodeUp,
    /// A serving node stopped answering and was routed around.
    NodeDown,
    /// A serving node was gracefully drained: it stopped accepting new
    /// traffic and handed its entity states off for migration.
    NodeDrained,
    /// Entity state moved between serving nodes via a checkpoint-based
    /// warm handoff (drain, join rebalance or failover heal).
    EntityMigrated,
    /// A simulated network injected a per-frame fault (drop, duplicate,
    /// reorder, trickle or mid-frame reset).
    NetFault,
    /// A network partition opened between two endpoints (simulated or
    /// detected).
    NetPartition,
    /// A previously partitioned link healed.
    NetHealed,
    /// A node recognised a replayed request id and answered from its
    /// dedup cache instead of re-executing the request.
    DedupHit,
    /// The decision layer raised an entity's capacity reservation.
    ScaleUp,
    /// The decision layer lowered an entity's capacity reservation after
    /// its hysteresis hold expired.
    ScaleDown,
    /// An interval request on a degraded entity was answered from the
    /// last-good interval instead of a live (uncovered) point estimate.
    IntervalFallback,
}

impl EventKind {
    /// Stable snake_case name used by exporters and log lines.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ShardRestart => "shard_restart",
            EventKind::Degraded => "degraded",
            EventKind::Recovered => "recovered",
            EventKind::Quarantined => "quarantined",
            EventKind::Repaired => "repaired",
            EventKind::RefitCompleted => "refit_completed",
            EventKind::RefitFailed => "refit_failed",
            EventKind::RefitTimedOut => "refit_timed_out",
            EventKind::RefitRollback => "refit_rollback",
            EventKind::QueueRejected => "queue_rejected",
            EventKind::Checkpoint => "checkpoint",
            EventKind::NodeUp => "node_up",
            EventKind::NodeDown => "node_down",
            EventKind::NodeDrained => "node_drained",
            EventKind::EntityMigrated => "entity_migrated",
            EventKind::NetFault => "net_fault",
            EventKind::NetPartition => "net_partition",
            EventKind::NetHealed => "net_healed",
            EventKind::DedupHit => "dedup_hit",
            EventKind::ScaleUp => "scale_up",
            EventKind::ScaleDown => "scale_down",
            EventKind::IntervalFallback => "interval_fallback",
        }
    }
}

/// One journal entry: what happened, when (in the service clock's
/// nanoseconds), to which shard and entity, with free-form detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Clock timestamp (nanoseconds since the service clock's epoch).
    pub at_nanos: u64,
    /// What happened.
    pub kind: EventKind,
    /// Shard attribution, when the event is shard-scoped.
    pub shard: Option<usize>,
    /// Entity attribution, when the event is entity-scoped.
    pub entity: Option<String>,
    /// Free-form context (error text, batch size, attempt number).
    pub detail: String,
}

/// Ring state behind the journal mutex.
#[derive(Debug)]
struct Ring {
    /// Event slots; grows up to capacity then stays put.
    slots: Vec<Event>,
    /// Next slot to overwrite once `slots` is at capacity.
    head: usize,
    /// Events overwritten since creation.
    overwritten: u64,
}

/// A bounded, thread-safe ring of [`Event`]s.
///
/// Recording takes the mutex for a push or an in-place overwrite —
/// no allocation beyond the event itself — so it is cheap enough for
/// fault paths and batch boundaries, though not meant for per-sample
/// rates (use a [`crate::metrics::Counter`] for those).
#[derive(Debug)]
pub struct Journal {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl Journal {
    /// A journal holding at most `capacity` events (at least one slot).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            ring: Mutex::new(Ring {
                slots: Vec::with_capacity(capacity),
                head: 0,
                overwritten: 0,
            }),
        }
    }

    /// Lock the ring, recovering from poisoning: the ring is plain data
    /// and stays consistent after an unwind mid-push.
    #[expect(
        clippy::disallowed_methods,
        reason = "the poison-recovering acquisition"
    )]
    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append an event, overwriting the oldest once full.
    pub fn record(&self, event: Event) {
        let mut ring = self.ring();
        if ring.slots.len() < self.capacity {
            ring.slots.push(event);
        } else {
            let head = ring.head;
            ring.slots[head] = event;
            ring.head = (head + 1) % self.capacity;
            ring.overwritten += 1;
        }
    }

    /// Convenience for [`Journal::record`]: build and append in one call.
    pub fn emit(
        &self,
        at_nanos: u64,
        kind: EventKind,
        shard: Option<usize>,
        entity: Option<&str>,
        detail: String,
    ) {
        self.record(Event {
            at_nanos,
            kind,
            shard,
            entity: entity.map(str::to_string),
            detail,
        });
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring().slots.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten because the ring was full — non-zero means
    /// the trail returned by [`Journal::events`] is incomplete.
    pub fn overwritten(&self) -> u64 {
        self.ring().overwritten
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let ring = self.ring();
        let mut out = Vec::with_capacity(ring.slots.len());
        out.extend_from_slice(&ring.slots[ring.head..]);
        out.extend_from_slice(&ring.slots[..ring.head]);
        out
    }

    /// Retained events of one kind, oldest first.
    // lint: allow(r10) test: chaos.rs counts restarts, timeouts, rejections and fallbacks by kind
    pub fn of_kind(&self, kind: EventKind) -> Vec<Event> {
        self.matching(|e| e.kind == kind)
    }

    /// Number of retained events of one kind.
    pub fn count(&self, kind: EventKind) -> usize {
        self.ring().slots.iter().filter(|e| e.kind == kind).count()
    }

    /// Retained events attributed to one entity, oldest first.
    // lint: allow(r10) test: chaos.rs reads one entity's degrade/recover trail
    pub fn for_entity(&self, entity: &str) -> Vec<Event> {
        self.matching(|e| e.entity.as_deref() == Some(entity))
    }

    /// Retained events attributed to one shard, oldest first.
    // lint: allow(r10) test: concurrency.rs checks no event of a writer thread is lost
    pub fn for_shard(&self, shard: usize) -> Vec<Event> {
        self.matching(|e| e.shard == Some(shard))
    }

    /// Retained events satisfying `pred`, oldest first.
    pub fn matching(&self, pred: impl Fn(&Event) -> bool) -> Vec<Event> {
        self.events().into_iter().filter(|e| pred(e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: EventKind, shard: usize, entity: &str) -> Event {
        Event {
            at_nanos: at,
            kind,
            shard: Some(shard),
            entity: Some(entity.to_string()),
            detail: format!("t{at}"),
        }
    }

    #[test]
    fn records_in_order_until_capacity() {
        let j = Journal::new(4);
        assert!(j.is_empty());
        for at in 0..3 {
            j.record(ev(at, EventKind::Repaired, 0, "vm-1"));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.overwritten(), 0);
        let at: Vec<u64> = j.events().iter().map(|e| e.at_nanos).collect();
        assert_eq!(at, vec![0, 1, 2]);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let j = Journal::new(3);
        for at in 0..5 {
            j.record(ev(at, EventKind::Repaired, at as usize, "vm-1"));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.overwritten(), 2);
        let at: Vec<u64> = j.events().iter().map(|e| e.at_nanos).collect();
        assert_eq!(at, vec![2, 3, 4], "oldest-first after wrap");
    }

    #[test]
    fn queries_filter_by_kind_shard_and_entity() {
        let j = Journal::new(16);
        j.record(ev(1, EventKind::Quarantined, 0, "vm-1"));
        j.record(ev(2, EventKind::Degraded, 1, "vm-2"));
        j.record(ev(3, EventKind::Quarantined, 1, "vm-2"));
        assert_eq!(j.count(EventKind::Quarantined), 2);
        assert_eq!(j.count(EventKind::ShardRestart), 0);
        assert_eq!(j.of_kind(EventKind::Degraded).len(), 1);
        assert_eq!(j.for_entity("vm-2").len(), 2);
        assert_eq!(j.for_shard(1).len(), 2);
        assert_eq!(
            j.matching(|e| e.kind == EventKind::Quarantined && e.shard == Some(1))
                .len(),
            1
        );
    }

    #[test]
    fn emit_builds_the_event() {
        let j = Journal::new(2);
        j.emit(9, EventKind::Checkpoint, None, None, "saved".to_string());
        let events = j.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Checkpoint);
        assert_eq!(events[0].at_nanos, 9);
        assert_eq!(events[0].shard, None);
        assert_eq!(events[0].entity, None);
        assert_eq!(events[0].detail, "saved");
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let j = Journal::new(0);
        assert_eq!(j.capacity(), 1);
        j.emit(1, EventKind::Degraded, Some(0), None, String::new());
        j.emit(2, EventKind::Recovered, Some(0), None, String::new());
        assert_eq!(j.len(), 1);
        assert_eq!(j.events()[0].kind, EventKind::Recovered);
    }
}
