//! Consistent-hash fleet router: the client-facing frontend of the
//! distributed serving tier.
//!
//! A [`FleetRouter`] owns the entity→node placement (an
//! [`rptcn::HashRing`] over the live node set), one connection per node,
//! and the fleet's authoritative entity list. It routes ingest and
//! forecast batches to owners, probes node health, and repairs the fleet
//! when the topology changes:
//!
//! - **Failover**: a transport error marks the node down and re-routes
//!   its keys to ring successors. Entities materialise on the successor
//!   through a deterministic re-seed (same [`crate::seed_bootstrap`]
//!   series any node can reproduce) plus a replay of the entity's most
//!   recent *acknowledged* samples from the router's bounded replay
//!   buffer — so no acknowledged ingest is ever lost, at worst a sample
//!   is applied twice (at-least-once delivery).
//! - **Warm migration**: node drain/join moves entities with their full
//!   RPTF predictor state (model weights, preprocessing, history) over
//!   Checkpoint/Restore frames, so the receiving node resumes
//!   bit-identical forecasts.
//!
//! Reliability machinery on the data path:
//!
//! - **Retry budget**: a transport error retries against the same node
//!   under the *same* request id with deterministic exponential backoff
//!   (slept on the injectable clock, so virtual-time tests pay nothing).
//!   Ids come from a router-wide counter starting at
//!   [`IDEMPOTENT_ID_BASE`], so nodes dedup re-executed mutations —
//!   a retry whose first attempt executed but lost its reply is answered
//!   from the node's cache, never applied twice.
//! - **Probe hysteresis**: a node must fail `probe_failures` consecutive
//!   health probes before it is marked down, so one dropped probe frame
//!   cannot flap a healthy node out of the ring.
//!
//! Every transition is journaled through `rptcn-obs` (node up/down/
//! drained, entities migrated) on an injectable clock, and the data path
//! keeps counters and RTT histograms in a `Registry`.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use obs::{EventKind, Journal, MonotonicClock, Registry, SharedClock, Span};
use rptcn::HashRing;

use crate::client::NodeClient;
use crate::error::NetError;
use crate::frame::{
    ErrorCode, ForecastOutcome, IngestEntry, Message, SeedSpec, WireFault, IDEMPOTENT_ID_BASE,
};
use crate::transport::{SharedTransport, TcpTransport, Transport};

/// Router-side view of one node's availability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Answering requests; in the ring.
    Up,
    /// Unreachable; still in the ring but routed around.
    Down,
    /// Gracefully drained; removed from the ring permanently.
    Drained,
}

/// Tunables for a [`FleetRouter`].
#[derive(Clone)]
pub struct RouterConfig {
    /// Virtual nodes per physical node on the hash ring.
    pub vnodes: usize,
    /// Timeout for data-path requests (connect, ingest, forecast).
    pub request_timeout: Duration,
    /// Timeout for bulk transfers (checkpoint, restore, drain, seed).
    pub bulk_timeout: Duration,
    /// Timeout for health probes (much shorter than the data path).
    pub probe_timeout: Duration,
    /// Consecutive failed probes before a node is marked down. Values
    /// above one give probe hysteresis: a single lost probe frame on a
    /// flaky link no longer flaps a healthy node out of the ring.
    pub probe_failures: u32,
    /// Same-node retries after a transport error on the data path, on
    /// top of the initial attempt. Retries reuse the request id, so
    /// nodes answer an already-executed mutation from their dedup cache.
    pub retry_budget: u32,
    /// Base delay for deterministic exponential backoff between retries:
    /// attempt `k` (1-based) sleeps `retry_backoff * 2^(k-1)` on the
    /// configured clock (instant under a `SimClock`).
    pub retry_backoff: Duration,
    /// Acknowledged samples kept per entity for failover replay;
    /// 0 disables replay (failover re-seeds from the bootstrap only).
    pub replay_window: usize,
    /// Base seed for deterministic entity bootstraps.
    pub seed: u64,
    /// Bootstrap series length for seeded entities.
    pub bootstrap_len: u32,
    /// Model input window for seeded entities.
    pub window: u32,
    /// Clock used for journal timestamps, latency spans and backoff.
    pub clock: SharedClock,
    /// Capacity of the router's event journal.
    pub journal_capacity: usize,
    /// Transport used to reach nodes (TCP by default; the deterministic
    /// fleet simulator injects its in-process transport here).
    pub transport: SharedTransport,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            vnodes: 64,
            request_timeout: Duration::from_secs(5),
            bulk_timeout: Duration::from_secs(60),
            probe_timeout: Duration::from_millis(500),
            probe_failures: 3,
            retry_budget: 2,
            retry_backoff: Duration::from_millis(25),
            replay_window: 32,
            seed: 42,
            bootstrap_len: 64,
            window: 12,
            clock: MonotonicClock::shared(),
            journal_capacity: 1024,
            transport: TcpTransport::shared(),
        }
    }
}

struct NodeHandle {
    name: String,
    addr: String,
    client: Option<NodeClient>,
    status: NodeStatus,
    fails: u32,
}

/// Accounting for one routed ingest batch.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Samples acknowledged by a node (and captured for replay).
    pub accepted: u64,
    /// Samples re-routed after their owner died mid-batch.
    pub failed_over: u64,
    /// Entities re-seeded (and replayed) on a new owner.
    pub healed: u64,
    /// Per-entity hard failures as `(id, error)`.
    pub errors: Vec<(String, String)>,
}

/// How many ids travel in one Seed frame.
const SEED_CHUNK: usize = 50_000;
/// How many predictor states travel in one Restore frame.
const STATE_CHUNK: usize = 2_048;
/// Re-routing attempts per batch before giving up (covers every node in
/// a small fleet dying one after another mid-batch).
const MAX_ATTEMPTS: usize = 4;

/// Consistent-hash frontend over a set of [`crate::NodeServer`]s.
pub struct FleetRouter {
    cfg: RouterConfig,
    ring: HashRing,
    nodes: Vec<NodeHandle>,
    /// Entity → recent acknowledged samples (bounded by `replay_window`).
    /// Every entity the router ever seeded has an entry, even when replay
    /// is disabled — this is the authoritative fleet entity list.
    replay: BTreeMap<String, VecDeque<Vec<f32>>>,
    registry: Registry,
    journal: Journal,
    /// Next request id, allocated from the idempotent range so every
    /// routed request is globally unique and node-dedupable.
    next_request_id: u64,
}

impl FleetRouter {
    /// Create an empty router; add nodes with [`FleetRouter::add_node`].
    pub fn new(cfg: RouterConfig) -> Self {
        let journal = Journal::new(cfg.journal_capacity);
        FleetRouter {
            ring: HashRing::new(cfg.vnodes),
            nodes: Vec::new(),
            replay: BTreeMap::new(),
            registry: Registry::new(),
            journal,
            next_request_id: IDEMPOTENT_ID_BASE,
            cfg,
        }
    }

    /// Router metrics: routed/failed-over/healed/migrated counters, node
    /// gauge, per-kind RTT histograms.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Journal of topology events (node up/down/drained, migrations).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Status of a node by name, if known.
    // lint: allow(r10) test: cluster_failover.rs and cluster_membership.rs assert one node's status
    pub fn node_status(&self, name: &str) -> Option<NodeStatus> {
        self.nodes.iter().find(|n| n.name == name).map(|n| n.status)
    }

    /// All nodes with their current status.
    pub fn nodes(&self) -> Vec<(String, NodeStatus)> {
        self.nodes
            .iter()
            .map(|n| (n.name.clone(), n.status))
            .collect()
    }

    /// Every entity id the router has seeded (the authoritative fleet
    /// entity list), in arbitrary order.
    pub fn entity_ids(&self) -> Vec<String> {
        self.replay.keys().cloned().collect()
    }

    /// The placement ring, for external ownership audits
    /// ([`rptcn::HashRing::audit_ownership`]).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    fn alloc_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id = self.next_request_id.wrapping_add(1).max(IDEMPOTENT_ID_BASE);
        id
    }

    fn now(&self) -> u64 {
        self.cfg.clock.now_nanos()
    }

    fn emit(&self, kind: EventKind, detail: String) {
        self.journal.emit(self.now(), kind, None, None, detail);
    }

    /// Current owner of `key` among live nodes.
    fn route(&self, key: &str) -> Result<String, NetError> {
        self.ring
            .node_for_where(key, |name| {
                self.nodes
                    .iter()
                    .any(|n| n.name == name && n.status == NodeStatus::Up)
            })
            .map(str::to_string)
            .ok_or(NetError::NoNodes)
    }

    fn idx_of(&self, name: &str) -> Result<usize, NetError> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .ok_or_else(|| NetError::NodeDown(name.to_string()))
    }

    fn set_down(&mut self, name: &str, reason: &str) {
        let Ok(idx) = self.idx_of(name) else { return };
        if self.nodes[idx].status != NodeStatus::Up {
            return;
        }
        self.nodes[idx].status = NodeStatus::Down;
        self.nodes[idx].client = None;
        self.registry.gauge("router_nodes_up").dec();
        self.registry.counter("router_node_down_transitions").inc();
        self.emit(EventKind::NodeDown, format!("{name}: {reason}"));
    }

    /// One logical request to a named node. Allocates a globally unique
    /// request id, then makes up to `1 + retry_budget` attempts under
    /// that same id, reconnecting and backing off exponentially between
    /// attempts — nodes dedup re-executed mutations by id, so a retry of
    /// an executed-but-unacknowledged request is answered from cache.
    /// Only after the budget is exhausted is the node marked down.
    fn request_to(
        &mut self,
        name: &str,
        msg: &Message,
        timeout: Duration,
    ) -> Result<Message, NetError> {
        let id = self.alloc_id();
        let idx = self.idx_of(name)?;
        if self.nodes[idx].status == NodeStatus::Drained {
            return Err(NetError::NodeDown(name.to_string()));
        }
        let hist = self
            .registry
            .latency_histogram(&format!("router_rtt_{}", msg.kind_name()));
        let transport = self.cfg.transport.clone();
        let mut last = NetError::NodeDown(name.to_string());
        for attempt in 0..=self.cfg.retry_budget {
            if attempt > 0 {
                self.registry.counter("router_retries").inc();
                let shift = (attempt - 1).min(16);
                self.cfg
                    .clock
                    .sleep(self.cfg.retry_backoff.saturating_mul(1 << shift));
            }
            let result = {
                let _span = Span::start(self.cfg.clock.as_ref(), &hist);
                Self::try_request(
                    transport.as_ref(),
                    &mut self.nodes[idx],
                    self.cfg.request_timeout,
                    id,
                    msg,
                    timeout,
                )
            };
            match result {
                Ok(reply) => {
                    self.nodes[idx].fails = 0;
                    return Ok(reply);
                }
                Err(e) if e.is_transport() => {
                    last = e;
                }
                Err(e) => {
                    if matches!(
                        &e,
                        NetError::Remote(WireFault {
                            code: ErrorCode::Draining,
                            ..
                        })
                    ) {
                        // A node draining outside our control: route
                        // around it.
                        self.set_down(name, "remote draining");
                    }
                    return Err(e);
                }
            }
        }
        if self.cfg.retry_budget > 0 {
            self.registry.counter("router_retries_exhausted").inc();
        }
        self.set_down(name, &format!("{last} (retry budget exhausted)"));
        Err(last)
    }

    /// One attempt: connect if needed (plus one transparent reconnect
    /// for a stale cached connection) and issue the request under the
    /// caller's id.
    fn try_request(
        transport: &dyn Transport,
        node: &mut NodeHandle,
        connect_timeout: Duration,
        request_id: u64,
        msg: &Message,
        timeout: Duration,
    ) -> Result<Message, NetError> {
        let mut last = NetError::NodeDown(node.name.clone());
        for _attempt in 0..2 {
            if node.client.is_none() {
                match NodeClient::connect_with(transport, &node.addr, connect_timeout) {
                    Ok(c) => node.client = Some(c),
                    Err(e) => return Err(e),
                }
            }
            let Some(client) = node.client.as_mut() else {
                break;
            };
            match client.request_with_id(request_id, msg, timeout) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    let transport_err = e.is_transport();
                    if transport_err {
                        node.client = None;
                    }
                    last = e;
                    if !transport_err {
                        break;
                    }
                }
            }
        }
        Err(last)
    }

    /// Register a node and (if the fleet already has entities) rebalance
    /// the keys the ring now assigns to it via warm Checkpoint/Restore
    /// migration from their previous owners.
    pub fn add_node(&mut self, name: &str, addr: &str) -> Result<(), NetError> {
        if self.idx_of(name).is_ok() {
            return Err(NetError::Protocol(format!(
                "node {name} already registered"
            )));
        }
        let client =
            NodeClient::connect_with(self.cfg.transport.as_ref(), addr, self.cfg.request_timeout)?;
        self.nodes.push(NodeHandle {
            name: name.to_string(),
            addr: addr.to_string(),
            client: Some(client),
            status: NodeStatus::Up,
            fails: 0,
        });
        // Probe before entering the ring so a dead address never owns keys.
        match self.request_to(name, &Message::Health, self.cfg.probe_timeout) {
            Ok(Message::HealthOk(_)) => {}
            Ok(other) => {
                self.nodes.pop();
                return Err(NetError::Protocol(format!(
                    "health probe answered {}",
                    other.kind_name()
                )));
            }
            Err(e) => {
                self.nodes.pop();
                return Err(e);
            }
        }
        self.ring.add_node(name);
        self.registry.gauge("router_nodes_up").inc();
        self.emit(EventKind::NodeUp, format!("{name} joined at {addr}"));
        self.rebalance_to(name)?;
        Ok(())
    }

    /// Move every entity the ring now assigns to `name` from its previous
    /// owner, with full predictor state.
    fn rebalance_to(&mut self, name: &str) -> Result<(), NetError> {
        if self.replay.is_empty() {
            return Ok(());
        }
        // Previous owner = the live owner if the new node were skipped.
        let mut moves: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let ids: Vec<String> = self.replay.keys().cloned().collect();
        for id in ids {
            let Ok(owner) = self.route(&id) else { continue };
            if owner != name {
                continue;
            }
            let previous = self.ring.node_for_where(&id, |n| {
                n != name
                    && self
                        .nodes
                        .iter()
                        .any(|h| h.name == n && h.status == NodeStatus::Up)
            });
            if let Some(prev) = previous {
                moves.entry(prev.to_string()).or_default().push(id);
            }
        }
        let mut migrated = 0u64;
        for (prev, ids) in moves {
            for chunk in ids.chunks(STATE_CHUNK) {
                let reply = self.request_to(
                    &prev,
                    &Message::Checkpoint {
                        ids: chunk.to_vec(),
                    },
                    self.cfg.bulk_timeout,
                )?;
                let Message::CheckpointOk { entities } = reply else {
                    return Err(NetError::Protocol("checkpoint answered wrong kind".into()));
                };
                let n = entities.len() as u64;
                self.restore_states(name, entities)?;
                let evicted: Vec<String> = chunk.to_vec();
                self.request_to(
                    &prev,
                    &Message::Evict { ids: evicted },
                    self.cfg.bulk_timeout,
                )?;
                migrated += n;
            }
        }
        if migrated > 0 {
            self.registry.counter("router_migrated").add(migrated);
            self.emit(
                EventKind::EntityMigrated,
                format!("{migrated} entities rebalanced to {name}"),
            );
        }
        Ok(())
    }

    fn restore_states(
        &mut self,
        name: &str,
        entities: Vec<(String, rptcn::PredictorState)>,
    ) -> Result<u64, NetError> {
        let mut installed = 0u64;
        for chunk in chunk_states(entities) {
            let reply = self.request_to(
                name,
                &Message::Restore { entities: chunk },
                self.cfg.bulk_timeout,
            )?;
            match reply {
                Message::RestoreOk {
                    installed: n,
                    errors,
                } => {
                    installed += n;
                    for (id, e) in errors {
                        self.emit(
                            EventKind::EntityMigrated,
                            format!("restore {id} failed: {e}"),
                        );
                    }
                }
                other => {
                    return Err(NetError::Protocol(format!(
                        "restore answered {}",
                        other.kind_name()
                    )))
                }
            }
        }
        Ok(installed)
    }

    /// Seed entities across the fleet: each id is placed by the ring and
    /// registered on its owner from the deterministic bootstrap. Returns
    /// the number of freshly installed entities.
    pub fn seed_entities(&mut self, ids: &[String]) -> Result<u64, NetError> {
        self.seed_entities_tracked(ids).map(|(n, _)| n)
    }

    /// Like [`FleetRouter::seed_entities`], but also returns the ids the
    /// owning nodes actually installed fresh (as opposed to skipping
    /// because they already held the entity). Healing replays samples
    /// only into the fresh set — replaying into an entity that survived
    /// on its node would apply its suffix twice.
    fn seed_entities_tracked(&mut self, ids: &[String]) -> Result<(u64, Vec<String>), NetError> {
        let mut installed = 0u64;
        let mut fresh: Vec<String> = Vec::new();
        let mut pending: Vec<String> = ids.to_vec();
        let mut attempts = 0;
        while !pending.is_empty() {
            attempts += 1;
            if attempts > MAX_ATTEMPTS {
                return Err(NetError::NoNodes);
            }
            let mut groups: BTreeMap<String, Vec<String>> = BTreeMap::new();
            for id in pending.drain(..) {
                let owner = self.route(&id)?;
                groups.entry(owner).or_default().push(id);
            }
            for (node, node_ids) in groups {
                for chunk in node_ids.chunks(SEED_CHUNK) {
                    let msg = Message::Seed(SeedSpec {
                        ids: chunk.to_vec(),
                        seed: self.cfg.seed,
                        bootstrap_len: self.cfg.bootstrap_len,
                        window: self.cfg.window,
                    });
                    match self.request_to(&node, &msg, self.cfg.bulk_timeout) {
                        Ok(Message::SeedOk {
                            installed: n,
                            already,
                        }) => {
                            installed += n;
                            for id in chunk {
                                self.replay.entry(id.clone()).or_default();
                                if !already.contains(id) {
                                    fresh.push(id.clone());
                                }
                            }
                        }
                        Ok(other) => {
                            return Err(NetError::Protocol(format!(
                                "seed answered {}",
                                other.kind_name()
                            )))
                        }
                        Err(e) if e.is_transport() => {
                            // Owner died mid-seed: re-route this chunk.
                            pending.extend(chunk.iter().cloned());
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        self.registry.counter("router_seeded").add(installed);
        self.registry
            .gauge("router_entities")
            .set(self.replay.len() as i64);
        Ok((installed, fresh))
    }

    fn push_replay(&mut self, id: &str, values: &[f32]) {
        let Some(buf) = self.replay.get_mut(id) else {
            return;
        };
        if self.cfg.replay_window == 0 {
            return;
        }
        buf.push_back(values.to_vec());
        while buf.len() > self.cfg.replay_window {
            buf.pop_front();
        }
    }

    /// Re-create entities on their current owner: deterministic re-seed
    /// followed by a replay of each *freshly installed* entity's
    /// acknowledged sample suffix (entities the owner already held keep
    /// their live history — replaying into them would double-apply).
    /// Finally, stale copies of the healed ids are evicted from every
    /// other live node so exactly one live node owns each entity.
    fn heal_entities(&mut self, ids: &[String]) -> Result<(), NetError> {
        if ids.is_empty() {
            return Ok(());
        }
        let (_, fresh) = self.seed_entities_tracked(ids)?;
        // Replay acknowledged suffixes into the fresh entities
        // (at-least-once delivery, exactly-once effect via request-id
        // dedup on the node).
        let mut entries = Vec::new();
        for id in &fresh {
            if let Some(buf) = self.replay.get(id) {
                for values in buf {
                    entries.push(IngestEntry {
                        entity: id.clone(),
                        seq: None,
                        values: values.clone(),
                    });
                }
            }
        }
        let mut groups: BTreeMap<String, Vec<IngestEntry>> = BTreeMap::new();
        for e in entries {
            let owner = self.route(&e.entity)?;
            groups.entry(owner).or_default().push(e);
        }
        for (node, group) in groups {
            match self.request_to(
                &node,
                &Message::Ingest { entries: group },
                self.cfg.bulk_timeout,
            ) {
                Ok(_) | Err(NetError::Remote(_)) => {}
                Err(e) if e.is_transport() => {
                    // The healing target died too; the next data-path
                    // attempt will fail over again.
                }
                Err(e) => return Err(e),
            }
        }
        self.evict_stale_copies(ids);
        self.registry.counter("router_healed").add(ids.len() as u64);
        Ok(())
    }

    /// Remove copies of `ids` from every live node that is not the
    /// current ring owner. Best-effort: an unreachable node will be
    /// cleaned up when it recovers (see [`FleetRouter::recover_node`]),
    /// and unknown ids are cheap no-ops on the node.
    fn evict_stale_copies(&mut self, ids: &[String]) {
        let live: Vec<String> = self
            .nodes
            .iter()
            .filter(|n| n.status == NodeStatus::Up)
            .map(|n| n.name.clone())
            .collect();
        for node in live {
            let stale: Vec<String> = ids
                .iter()
                .filter(|id| self.route(id).as_deref() != Ok(node.as_str()))
                .cloned()
                .collect();
            if stale.is_empty() {
                continue;
            }
            for chunk in stale.chunks(SEED_CHUNK) {
                match self.request_to(
                    &node,
                    &Message::Evict {
                        ids: chunk.to_vec(),
                    },
                    self.cfg.bulk_timeout,
                ) {
                    Ok(Message::EvictOk { removed }) if removed > 0 => {
                        self.registry.counter("router_stale_evicted").add(removed);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Ingest one sample for one entity.
    pub fn ingest(&mut self, id: &str, values: Vec<f32>) -> Result<(), NetError> {
        let report = self.ingest_batch(&[(id.to_string(), values)])?;
        if let Some((entity, e)) = report.errors.into_iter().next() {
            return Err(NetError::Serve(format!("{entity}: {e}")));
        }
        Ok(())
    }

    /// Route a batch of samples to their owners, failing over and healing
    /// as needed. An entry is counted `accepted` only after a node
    /// acknowledged it AND it was captured in the replay buffer.
    pub fn ingest_batch(
        &mut self,
        entries: &[(String, Vec<f32>)],
    ) -> Result<IngestReport, NetError> {
        let mut report = IngestReport::default();
        let mut pending: Vec<(String, Vec<f32>)> = entries.to_vec();
        let mut attempts = 0;
        while !pending.is_empty() {
            attempts += 1;
            if attempts > MAX_ATTEMPTS {
                for (id, _) in pending.drain(..) {
                    report
                        .errors
                        .push((id, "exhausted routing attempts".into()));
                }
                break;
            }
            let mut groups: BTreeMap<String, Vec<(String, Vec<f32>)>> = BTreeMap::new();
            for (id, values) in pending.drain(..) {
                let owner = self.route(&id)?;
                groups.entry(owner).or_default().push((id, values));
            }
            for (node, group) in groups {
                let msg = Message::Ingest {
                    entries: group
                        .iter()
                        .map(|(id, values)| IngestEntry {
                            entity: id.clone(),
                            seq: None,
                            values: values.clone(),
                        })
                        .collect(),
                };
                match self.request_to(&node, &msg, self.cfg.request_timeout) {
                    Ok(Message::IngestOk {
                        accepted: _,
                        unknown,
                        errors,
                    }) => {
                        let mut retry: Vec<(String, Vec<f32>)> = Vec::new();
                        for (id, values) in group {
                            if unknown.contains(&id) {
                                retry.push((id, values));
                            } else if let Some((_, e)) = errors.iter().find(|(eid, _)| *eid == id) {
                                report.errors.push((id, e.clone()));
                            } else {
                                self.push_replay(&id, &values);
                                report.accepted += 1;
                            }
                        }
                        if !retry.is_empty() {
                            // The node lost (or never had) these entities:
                            // re-seed + replay, then resend the samples.
                            let ids: Vec<String> = retry.iter().map(|(id, _)| id.clone()).collect();
                            self.heal_entities(&ids)?;
                            report.healed += ids.len() as u64;
                            pending.extend(retry);
                        }
                    }
                    Ok(other) => {
                        return Err(NetError::Protocol(format!(
                            "ingest answered {}",
                            other.kind_name()
                        )))
                    }
                    Err(e)
                        if e.is_transport()
                            || matches!(
                                &e,
                                NetError::Remote(WireFault {
                                    code: ErrorCode::Draining,
                                    ..
                                })
                            ) =>
                    {
                        // Owner died (already marked down): everything in
                        // this group re-routes to ring successors. The
                        // successors won't know the entities yet and will
                        // answer `unknown`, triggering the heal path.
                        report.failed_over += group.len() as u64;
                        pending.extend(group);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        self.registry
            .counter("router_routed_ingests")
            .add(report.accepted);
        if report.failed_over > 0 {
            self.registry
                .counter("router_failed_over")
                .add(report.failed_over);
        }
        Ok(report)
    }

    /// Forecast one entity.
    pub fn forecast(&mut self, id: &str) -> Result<Vec<f32>, NetError> {
        let mut results = self.forecast_batch(&[id.to_string()]);
        match results.pop() {
            Some((_, r)) => r,
            None => Err(NetError::Serve(format!("no forecast produced for {id}"))),
        }
    }

    /// Forecast a batch of entities, failing over and healing like
    /// [`FleetRouter::ingest_batch`]. Results come back in arbitrary
    /// order, one per requested id.
    pub fn forecast_batch(&mut self, ids: &[String]) -> Vec<(String, Result<Vec<f32>, NetError>)> {
        let mut out: Vec<(String, Result<Vec<f32>, NetError>)> = Vec::with_capacity(ids.len());
        let mut pending: Vec<String> = ids.to_vec();
        let mut attempts = 0;
        while !pending.is_empty() {
            attempts += 1;
            if attempts > MAX_ATTEMPTS {
                for id in pending.drain(..) {
                    out.push((id, Err(NetError::NoNodes)));
                }
                break;
            }
            let mut groups: BTreeMap<String, Vec<String>> = BTreeMap::new();
            for id in pending.drain(..) {
                match self.route(&id) {
                    Ok(owner) => groups.entry(owner).or_default().push(id),
                    Err(e) => out.push((id, Err(e))),
                }
            }
            for (node, group) in groups {
                let msg = Message::Forecast { ids: group.clone() };
                match self.request_to(&node, &msg, self.cfg.request_timeout) {
                    Ok(Message::ForecastOk { results }) => {
                        let mut unknown: Vec<String> = Vec::new();
                        for (id, outcome) in results {
                            match outcome {
                                ForecastOutcome::Values(values) => out.push((id, Ok(values))),
                                ForecastOutcome::Unknown => unknown.push(id),
                                ForecastOutcome::Failed(e) => {
                                    out.push((id, Err(NetError::Serve(e))))
                                }
                            }
                        }
                        if !unknown.is_empty() {
                            if let Err(e) = self.heal_entities(&unknown) {
                                for id in unknown.drain(..) {
                                    out.push((id, Err(e.clone())));
                                }
                            } else {
                                pending.extend(unknown);
                            }
                        }
                    }
                    Ok(other) => {
                        let e =
                            NetError::Protocol(format!("forecast answered {}", other.kind_name()));
                        for id in group {
                            out.push((id, Err(e.clone())));
                        }
                    }
                    Err(e) if e.is_transport() => {
                        self.registry
                            .counter("router_failed_over")
                            .add(group.len() as u64);
                        pending.extend(group);
                    }
                    Err(e) => {
                        for id in group {
                            out.push((id, Err(e.clone())));
                        }
                    }
                }
            }
        }
        self.registry
            .counter("router_routed_forecasts")
            .add(out.iter().filter(|(_, r)| r.is_ok()).count() as u64);
        out
    }

    /// Probe every non-drained node with a short-deadline Health request.
    /// Consecutive failures past `probe_failures` mark a node down; a
    /// successful probe of a down node brings it back (see
    /// [`FleetRouter::recover_node`]). Returns each node's status.
    pub fn probe(&mut self) -> Vec<(String, NodeStatus)> {
        let names: Vec<String> = self.nodes.iter().map(|n| n.name.clone()).collect();
        for name in names {
            let Ok(idx) = self.idx_of(&name) else {
                continue;
            };
            if self.nodes[idx].status == NodeStatus::Drained {
                continue;
            }
            self.registry.counter("router_probes").inc();
            let was_down = self.nodes[idx].status == NodeStatus::Down;
            let probe_id = self.alloc_id();
            let transport = self.cfg.transport.clone();
            let result = Self::try_request(
                transport.as_ref(),
                &mut self.nodes[idx],
                self.cfg.probe_timeout,
                probe_id,
                &Message::Health,
                self.cfg.probe_timeout,
            );
            match result {
                Ok(Message::HealthOk(_)) => {
                    self.nodes[idx].fails = 0;
                    if was_down {
                        let _ = self.recover_node(&name);
                    }
                }
                _ => {
                    self.registry.counter("router_probe_failures").inc();
                    self.nodes[idx].fails = self.nodes[idx].fails.saturating_add(1);
                    let fails = self.nodes[idx].fails;
                    if !was_down {
                        if fails >= self.cfg.probe_failures {
                            self.set_down(
                                &name,
                                &format!(
                                    "{fails}/{} consecutive probe failures",
                                    self.cfg.probe_failures
                                ),
                            );
                        } else {
                            // Under the threshold: journal the suspicion
                            // but keep the node in the ring.
                            self.emit(
                                EventKind::NodeDown,
                                format!(
                                    "{name}: probe failure {fails}/{} (still up)",
                                    self.cfg.probe_failures
                                ),
                            );
                        }
                    }
                }
            }
        }
        self.nodes
            .iter()
            .map(|n| (n.name.clone(), n.status))
            .collect()
    }

    /// Bring a down node back: mark it up, then force-reinstall every
    /// entity the ring assigns to it (evict any stale copy, re-seed and
    /// replay), since the node missed samples while it was out.
    fn recover_node(&mut self, name: &str) -> Result<(), NetError> {
        let idx = self.idx_of(name)?;
        if self.nodes[idx].status != NodeStatus::Down {
            return Ok(());
        }
        self.nodes[idx].status = NodeStatus::Up;
        self.nodes[idx].fails = 0;
        self.registry.gauge("router_nodes_up").inc();
        self.emit(EventKind::NodeUp, format!("{name} recovered"));
        // Evict *everything* the node might still hold from before it
        // went out — both the keys the ring assigns to it (their history
        // is stale: samples kept flowing to successors) and keys it
        // inherited earlier that now live elsewhere. Unknown ids are
        // cheap skips on the node.
        let all_ids: Vec<String> = self.replay.keys().cloned().collect();
        if all_ids.is_empty() {
            return Ok(());
        }
        for chunk in all_ids.chunks(SEED_CHUNK) {
            match self.request_to(
                name,
                &Message::Evict {
                    ids: chunk.to_vec(),
                },
                self.cfg.bulk_timeout,
            ) {
                Ok(_) => {}
                Err(e) if e.is_transport() => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        let ids: Vec<String> = all_ids
            .into_iter()
            .filter(|id| self.route(id).as_deref() == Ok(name))
            .collect();
        if ids.is_empty() {
            return Ok(());
        }
        self.heal_entities(&ids)?;
        self.emit(
            EventKind::EntityMigrated,
            format!("{} entities reinstalled on recovered {name}", ids.len()),
        );
        Ok(())
    }

    /// Gracefully drain a node: it stops accepting ingests, hands over
    /// its full fleet state, and its entities are restored (warm, with
    /// history) onto the remaining nodes. The drained node is removed
    /// from the ring and asked to shut down. Returns migrated entities.
    pub fn drain_node(&mut self, name: &str) -> Result<u64, NetError> {
        let idx = self.idx_of(name)?;
        if self.nodes[idx].status != NodeStatus::Up {
            return Err(NetError::NodeDown(name.to_string()));
        }
        let reply = self.request_to(name, &Message::Drain, self.cfg.bulk_timeout)?;
        let Message::DrainOk { entities } = reply else {
            return Err(NetError::Protocol("drain answered wrong kind".into()));
        };
        // Out of the ring before restoring, so states land on successors.
        let idx = self.idx_of(name)?;
        self.nodes[idx].status = NodeStatus::Drained;
        self.ring.remove_node(name);
        self.registry.gauge("router_nodes_up").dec();
        let total = entities.len() as u64;
        let mut by_owner: BTreeMap<String, Vec<(String, rptcn::PredictorState)>> = BTreeMap::new();
        for (id, state) in entities {
            let owner = self.route(&id)?;
            by_owner.entry(owner).or_default().push((id, state));
        }
        for (owner, states) in by_owner {
            self.restore_states(&owner, states)?;
        }
        self.registry.counter("router_migrated").add(total);
        self.emit(
            EventKind::NodeDrained,
            format!("{name} drained, {total} entities migrated"),
        );
        // Best-effort: tell the drained node to exit.
        let _ = self.request_to_drained(name, &Message::Shutdown);
        Ok(total)
    }

    /// Minimal request path that works on a `Drained` node (the normal
    /// path refuses them).
    fn request_to_drained(&mut self, name: &str, msg: &Message) -> Result<Message, NetError> {
        let id = self.alloc_id();
        let idx = self.idx_of(name)?;
        let transport = self.cfg.transport.clone();
        Self::try_request(
            transport.as_ref(),
            &mut self.nodes[idx],
            self.cfg.request_timeout,
            id,
            msg,
            self.cfg.request_timeout,
        )
    }

    /// Best-effort shutdown of every node still reachable.
    pub fn shutdown_fleet(&mut self) {
        let names: Vec<String> = self.nodes.iter().map(|n| n.name.clone()).collect();
        for name in names {
            let _ = self.request_to_drained(&name, &Message::Shutdown);
        }
    }
}

fn chunk_states(
    entities: Vec<(String, rptcn::PredictorState)>,
) -> Vec<Vec<(String, rptcn::PredictorState)>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    for e in entities {
        current.push(e);
        if current.len() >= STATE_CHUNK {
            out.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}
