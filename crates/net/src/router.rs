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
//! The data path pays per request, not per entry. A batch is grouped as
//! request *positions* per node index; each node's frame is encoded once,
//! straight from the caller's borrowed ids and samples, into one reused
//! buffer, and a retry resends those bytes. An acknowledged sample is
//! captured in its entity's replay ring, which recycles the evicted
//! sample's allocation, found through a fixed-hash index.
//!
//! Every transition is journaled through `rptcn-obs` (node up/down/
//! drained, entities migrated) on an injectable clock, and the data path
//! keeps counters and RTT histograms in a `Registry`.

use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::Duration;

use obs::{Counter, EventKind, Histogram, Journal, MonotonicClock, Registry, SharedClock, Span};
use rptcn::HashRing;

use crate::client::NodeClient;
use crate::error::NetError;
use crate::frame::{
    encode_forecast_frame, encode_frame, encode_ingest_frame, kind_name, ErrorCode,
    ForecastOutcome, IngestEntry, Message, SeedSpec, WireError, WireFault, IDEMPOTENT_ID_BASE,
    KIND_FORECAST, KIND_INGEST, KIND_SLOTS,
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

/// FNV-1a as a [`Hasher`]: the fixed, seedless hash of the entity
/// index, probed once per acknowledged sample. The ids are the ones the
/// router's own caller seeds, already placed on the ring by the same
/// unkeyed hash family; a keyed hash would cost a few times the hashing
/// and protect nothing the placement does not already expose.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

type FnvBuild = BuildHasherDefault<Fnv>;

/// The fleet's authoritative entity list: every id the router ever
/// seeded, in seed order, with the entity's recent acknowledged samples.
/// `index` answers lookups and is never iterated; walks go over `ids`,
/// so they are deterministic without sorting the fleet.
#[derive(Default)]
struct Entities {
    ids: Vec<String>,
    /// Replay ring of `ids[row]`, at most `replay_window` samples.
    rings: Vec<VecDeque<Vec<f32>>>,
    index: HashMap<String, usize, FnvBuild>,
}

impl Entities {
    /// List `id` unless it already is.
    fn insert(&mut self, id: &str) {
        if !self.index.contains_key(id) {
            self.index.insert(id.to_string(), self.ids.len());
            self.ids.push(id.to_string());
            self.rings.push(VecDeque::new());
        }
    }

    fn ring(&self, id: &str) -> Option<&VecDeque<Vec<f32>>> {
        self.index.get(id).map(|&row| &self.rings[row])
    }

    /// Capture an acknowledged sample of a listed entity, keeping the
    /// last `window` (> 0). A full ring hands its evicted sample's
    /// allocation to the new one.
    fn push(&mut self, id: &str, values: &[f32], window: usize) {
        let Some(&row) = self.index.get(id) else {
            return;
        };
        let ring = &mut self.rings[row];
        let mut slot = if ring.len() >= window {
            ring.pop_front().unwrap_or_default()
        } else {
            Vec::new()
        };
        slot.clear();
        slot.extend_from_slice(values);
        ring.push_back(slot);
    }
}

/// One answered id of a forecast batch.
type ForecastRow = (String, Result<Vec<f32>, NetError>);

/// Whether a reply means the node refuses work because it is draining.
fn is_draining(e: &NetError) -> bool {
    matches!(
        e,
        NetError::Remote(WireFault {
            code: ErrorCode::Draining,
            ..
        })
    )
}

/// Consistent-hash frontend over a set of [`crate::NodeServer`]s.
pub struct FleetRouter {
    cfg: RouterConfig,
    ring: HashRing,
    nodes: Vec<NodeHandle>,
    entities: Entities,
    registry: Registry,
    journal: Journal,
    /// Next request id, allocated from the idempotent range so every
    /// routed request is globally unique and node-dedupable.
    next_request_id: u64,
    /// Encode buffer of the data path, reused across requests.
    frame: Vec<u8>,
    /// `router_rtt_<kind>` histograms by kind discriminant, registered
    /// on a kind's first request.
    rtt: [Option<Arc<Histogram>>; KIND_SLOTS],
    routed_ingests: Arc<Counter>,
    routed_forecasts: Arc<Counter>,
    failed_over: Arc<Counter>,
}

impl FleetRouter {
    /// Create an empty router; add nodes with [`FleetRouter::add_node`].
    pub fn new(cfg: RouterConfig) -> Self {
        let journal = Journal::new(cfg.journal_capacity);
        let registry = Registry::new();
        FleetRouter {
            ring: HashRing::new(cfg.vnodes),
            nodes: Vec::new(),
            entities: Entities::default(),
            routed_ingests: registry.counter("router_routed_ingests"),
            routed_forecasts: registry.counter("router_routed_forecasts"),
            failed_over: registry.counter("router_failed_over"),
            registry,
            journal,
            next_request_id: IDEMPOTENT_ID_BASE,
            frame: Vec::new(),
            rtt: std::array::from_fn(|_| None),
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
    /// entity list), in the order they were first seeded.
    pub fn entity_ids(&self) -> Vec<String> {
        self.entities.ids.clone()
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

    /// Index of the first live node on `key`'s ring walk other than
    /// `skip`: the owner, or with `skip` the owner `key` would have
    /// without that node.
    fn owner_where(&self, key: &str, skip: Option<usize>) -> Option<usize> {
        let found = Cell::new(None);
        self.ring.node_for_where(key, |name| {
            let live = self
                .nodes
                .iter()
                .position(|n| n.name == name)
                .filter(|&i| Some(i) != skip && self.nodes[i].status == NodeStatus::Up);
            found.set(live);
            live.is_some()
        })?;
        found.get()
    }

    /// Index of the current owner of `key` among live nodes.
    fn route_idx(&self, key: &str) -> Result<usize, NetError> {
        self.owner_where(key, None).ok_or(NetError::NoNodes)
    }

    /// Request positions grouped by owning node: `groups[node]` lists the
    /// positions of `positions` routed to that node, in request order.
    fn group_by_owner<'a>(
        &self,
        positions: &[usize],
        id_at: impl Fn(usize) -> &'a str,
    ) -> Result<Vec<Vec<usize>>, NetError> {
        let mut groups = vec![Vec::new(); self.nodes.len()];
        for &at in positions {
            groups[self.route_idx(id_at(at))?].push(at);
        }
        Ok(groups)
    }

    fn idx_of(&self, name: &str) -> Result<usize, NetError> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .ok_or_else(|| NetError::NodeDown(name.to_string()))
    }

    fn set_down(&mut self, idx: usize, reason: &str) {
        if self.nodes[idx].status != NodeStatus::Up {
            return;
        }
        self.nodes[idx].status = NodeStatus::Down;
        self.nodes[idx].client = None;
        self.registry.gauge("router_nodes_up").dec();
        self.registry.counter("router_node_down_transitions").inc();
        let name = &self.nodes[idx].name;
        self.emit(EventKind::NodeDown, format!("{name}: {reason}"));
    }

    /// One logical request to node `idx`, encoded once under a fresh
    /// request id (see [`FleetRouter::send_frame`]).
    fn request_to(
        &mut self,
        idx: usize,
        msg: &Message,
        timeout: Duration,
    ) -> Result<Message, NetError> {
        let request_id = self.alloc_id();
        let frame = encode_frame(request_id, msg)?;
        self.send_frame(idx, msg.kind(), request_id, &frame, timeout)
    }

    /// A data-path request to node `idx`: `encode` writes the frame under
    /// a fresh request id into the router's reused buffer, which
    /// [`FleetRouter::send_frame`] then sends.
    fn send_encoded(
        &mut self,
        idx: usize,
        kind: u8,
        timeout: Duration,
        encode: impl FnOnce(&mut Vec<u8>, u64) -> Result<(), WireError>,
    ) -> Result<Message, NetError> {
        let request_id = self.alloc_id();
        let mut frame = std::mem::take(&mut self.frame);
        let reply = match encode(&mut frame, request_id) {
            Ok(()) => self.send_frame(idx, kind, request_id, &frame, timeout),
            Err(e) => Err(e.into()),
        };
        self.frame = frame;
        reply
    }

    /// Send one encoded request of `kind`, whose header carries
    /// `request_id`, to node `idx` in up to `1 + retry_budget` attempts
    /// of the same bytes, reconnecting and backing off exponentially
    /// between attempts — nodes dedup re-executed mutations by id, so a
    /// retry of an executed-but-unacknowledged request is answered from
    /// cache. Only after the budget is exhausted is the node marked down.
    fn send_frame(
        &mut self,
        idx: usize,
        kind: u8,
        request_id: u64,
        frame: &[u8],
        timeout: Duration,
    ) -> Result<Message, NetError> {
        if self.nodes[idx].status == NodeStatus::Drained {
            return Err(NetError::NodeDown(self.nodes[idx].name.clone()));
        }
        let hist = Arc::clone(self.rtt[usize::from(kind)].get_or_insert_with(|| {
            self.registry
                .latency_histogram(&format!("router_rtt_{}", kind_name(kind)))
        }));
        let transport = self.cfg.transport.clone();
        let mut last = None;
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
                    request_id,
                    frame,
                    timeout,
                )
            };
            match result {
                Ok(reply) => {
                    self.nodes[idx].fails = 0;
                    return Ok(reply);
                }
                Err(e) if e.is_transport() => last = Some(e),
                Err(e) => {
                    if is_draining(&e) {
                        // A node draining outside our control: route
                        // around it.
                        self.set_down(idx, "remote draining");
                    }
                    return Err(e);
                }
            }
        }
        if self.cfg.retry_budget > 0 {
            self.registry.counter("router_retries_exhausted").inc();
        }
        let last = last.unwrap_or_else(|| NetError::NodeDown(self.nodes[idx].name.clone()));
        self.set_down(idx, &format!("{last} (retry budget exhausted)"));
        Err(last)
    }

    /// One attempt of one request to node `idx` under a fresh id, outside
    /// the retry budget and the RTT histograms: health probes and
    /// requests to drained nodes.
    fn attempt(
        &mut self,
        idx: usize,
        msg: &Message,
        connect_timeout: Duration,
        timeout: Duration,
    ) -> Result<Message, NetError> {
        let request_id = self.alloc_id();
        let frame = encode_frame(request_id, msg)?;
        let transport = self.cfg.transport.clone();
        Self::try_request(
            transport.as_ref(),
            &mut self.nodes[idx],
            connect_timeout,
            request_id,
            &frame,
            timeout,
        )
    }

    /// One attempt: connect if needed (plus one transparent reconnect
    /// for a stale cached connection) and send the caller's frame.
    fn try_request(
        transport: &dyn Transport,
        node: &mut NodeHandle,
        connect_timeout: Duration,
        request_id: u64,
        frame: &[u8],
        timeout: Duration,
    ) -> Result<Message, NetError> {
        let mut last = None;
        for _attempt in 0..2 {
            if node.client.is_none() {
                node.client = Some(NodeClient::connect_with(
                    transport,
                    &node.addr,
                    connect_timeout,
                )?);
            }
            let Some(client) = node.client.as_mut() else {
                break;
            };
            match client.request_encoded(request_id, frame, timeout) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    let transport_err = e.is_transport();
                    if transport_err {
                        node.client = None;
                    }
                    last = Some(e);
                    if !transport_err {
                        break;
                    }
                }
            }
        }
        Err(last.unwrap_or_else(|| NetError::NodeDown(node.name.clone())))
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
        let idx = self.nodes.len() - 1;
        // Probe before entering the ring so a dead address never owns keys.
        match self.request_to(idx, &Message::Health, self.cfg.probe_timeout) {
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
        self.rebalance_to(idx)?;
        Ok(())
    }

    /// Move every entity the ring now assigns to node `idx` from its
    /// previous owner, with full predictor state.
    fn rebalance_to(&mut self, idx: usize) -> Result<(), NetError> {
        if self.entities.ids.is_empty() {
            return Ok(());
        }
        // Previous owner = the live owner if the new node were skipped.
        let mut moves: Vec<Vec<String>> = vec![Vec::new(); self.nodes.len()];
        for id in &self.entities.ids {
            if self.owner_where(id, None) != Some(idx) {
                continue;
            }
            if let Some(prev) = self.owner_where(id, Some(idx)) {
                moves[prev].push(id.clone());
            }
        }
        let mut migrated = 0u64;
        for (prev, ids) in moves.iter().enumerate() {
            for chunk in ids.chunks(STATE_CHUNK) {
                let reply = self.request_to(
                    prev,
                    &Message::Checkpoint {
                        ids: chunk.to_vec(),
                    },
                    self.cfg.bulk_timeout,
                )?;
                let Message::CheckpointOk { entities } = reply else {
                    return Err(NetError::Protocol("checkpoint answered wrong kind".into()));
                };
                let n = entities.len() as u64;
                self.restore_states(idx, entities)?;
                self.request_to(
                    prev,
                    &Message::Evict {
                        ids: chunk.to_vec(),
                    },
                    self.cfg.bulk_timeout,
                )?;
                migrated += n;
            }
        }
        if migrated > 0 {
            self.registry.counter("router_migrated").add(migrated);
            let name = &self.nodes[idx].name;
            self.emit(
                EventKind::EntityMigrated,
                format!("{migrated} entities rebalanced to {name}"),
            );
        }
        Ok(())
    }

    fn restore_states(
        &mut self,
        idx: usize,
        entities: Vec<(String, rptcn::PredictorState)>,
    ) -> Result<u64, NetError> {
        let mut installed = 0u64;
        for chunk in chunk_states(entities) {
            let reply = self.request_to(
                idx,
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
        let mut pending: Vec<usize> = (0..ids.len()).collect();
        let mut attempts = 0;
        while !pending.is_empty() {
            attempts += 1;
            if attempts > MAX_ATTEMPTS {
                return Err(NetError::NoNodes);
            }
            let groups = self.group_by_owner(&pending, |at| ids[at].as_str())?;
            pending.clear();
            for (idx, group) in groups.iter().enumerate() {
                for chunk in group.chunks(SEED_CHUNK) {
                    let msg = Message::Seed(SeedSpec {
                        ids: chunk.iter().map(|&at| ids[at].clone()).collect(),
                        seed: self.cfg.seed,
                        bootstrap_len: self.cfg.bootstrap_len,
                        window: self.cfg.window,
                    });
                    match self.request_to(idx, &msg, self.cfg.bulk_timeout) {
                        Ok(Message::SeedOk {
                            installed: n,
                            already,
                        }) => {
                            installed += n;
                            let already_held: HashSet<&str> =
                                already.iter().map(String::as_str).collect();
                            for &at in chunk {
                                self.entities.insert(&ids[at]);
                                if !already_held.contains(ids[at].as_str()) {
                                    fresh.push(ids[at].clone());
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
                            pending.extend_from_slice(chunk);
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        self.registry.counter("router_seeded").add(installed);
        self.registry
            .gauge("router_entities")
            .set(self.entities.ids.len() as i64);
        Ok((installed, fresh))
    }

    fn push_replay(&mut self, id: &str, values: &[f32]) {
        if self.cfg.replay_window > 0 {
            self.entities.push(id, values, self.cfg.replay_window);
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
        // dedup on the node), one frame per owner.
        let all: Vec<usize> = (0..fresh.len()).collect();
        let groups = self.group_by_owner(&all, |k| fresh[k].as_str())?;
        for (idx, group) in groups.iter().enumerate() {
            let entries: Vec<IngestEntry> = group
                .iter()
                .flat_map(|&k| {
                    let id = &fresh[k];
                    let ring = self.entities.ring(id).into_iter().flatten();
                    ring.map(move |values| IngestEntry {
                        entity: id.clone(),
                        seq: None,
                        values: values.clone(),
                    })
                })
                .collect();
            if entries.is_empty() {
                continue;
            }
            let reply = self.request_to(idx, &Message::Ingest { entries }, self.cfg.bulk_timeout);
            match reply {
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
        let live: Vec<usize> = (0..self.nodes.len())
            .filter(|&idx| self.nodes[idx].status == NodeStatus::Up)
            .collect();
        for idx in live {
            let stale: Vec<String> = ids
                .iter()
                .filter(|id| self.owner_where(id, None) != Some(idx))
                .cloned()
                .collect();
            for chunk in stale.chunks(SEED_CHUNK) {
                match self.request_to(
                    idx,
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
        let report = self.route_ingests(&[(id, values.as_slice())])?;
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
        self.route_ingests(entries)
    }

    /// [`FleetRouter::ingest_batch`] over borrowed `(id, values)` entries:
    /// each owner's frame is encoded straight from them.
    fn route_ingests<S: AsRef<str>, V: AsRef<[f32]>>(
        &mut self,
        entries: &[(S, V)],
    ) -> Result<IngestReport, NetError> {
        let id_at = |at: usize| entries[at].0.as_ref();
        let timeout = self.cfg.request_timeout;
        let mut report = IngestReport::default();
        let mut pending: Vec<usize> = (0..entries.len()).collect();
        let mut attempts = 0;
        while !pending.is_empty() {
            attempts += 1;
            if attempts > MAX_ATTEMPTS {
                for &at in &pending {
                    report
                        .errors
                        .push((id_at(at).to_string(), "exhausted routing attempts".into()));
                }
                break;
            }
            let groups = self.group_by_owner(&pending, id_at)?;
            pending.clear();
            for (idx, group) in groups.iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let reply = self.send_encoded(idx, KIND_INGEST, timeout, |frame, request_id| {
                    let samples = group
                        .iter()
                        .map(|&at| (id_at(at), None, entries[at].1.as_ref()));
                    encode_ingest_frame(frame, request_id, samples)
                });
                match reply {
                    Ok(Message::IngestOk {
                        accepted: _,
                        unknown,
                        errors,
                    }) => {
                        // Both lists are empty on the healthy path, where
                        // the sets stay unallocated and never hash.
                        let unknown_ids: HashSet<&str> =
                            unknown.iter().map(String::as_str).collect();
                        let mut failed_ids: HashMap<&str, &str> = HashMap::new();
                        for (id, e) in &errors {
                            failed_ids.entry(id.as_str()).or_insert(e.as_str());
                        }
                        let mut retry: Vec<usize> = Vec::new();
                        for &at in group {
                            let id = id_at(at);
                            if unknown_ids.contains(id) {
                                retry.push(at);
                            } else if let Some(e) = failed_ids.get(id) {
                                report.errors.push((id.to_string(), e.to_string()));
                            } else {
                                self.push_replay(id, entries[at].1.as_ref());
                                report.accepted += 1;
                            }
                        }
                        if !retry.is_empty() {
                            // The node lost (or never had) these entities:
                            // re-seed + replay, then resend the samples.
                            let ids: Vec<String> =
                                retry.iter().map(|&at| id_at(at).to_string()).collect();
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
                    Err(e) if e.is_transport() || is_draining(&e) => {
                        // Owner died (already marked down): everything in
                        // this group re-routes to ring successors. The
                        // successors won't know the entities yet and will
                        // answer `unknown`, triggering the heal path.
                        report.failed_over += group.len() as u64;
                        pending.extend_from_slice(group);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        self.routed_ingests.add(report.accepted);
        if report.failed_over > 0 {
            self.failed_over.add(report.failed_over);
        }
        Ok(report)
    }

    /// Forecast one entity.
    pub fn forecast(&mut self, id: &str) -> Result<Vec<f32>, NetError> {
        match self.route_forecasts(&[id]).pop() {
            Some((_, r)) => r,
            None => Err(NetError::Serve(format!("no forecast produced for {id}"))),
        }
    }

    /// Forecast a batch of entities, failing over and healing like
    /// [`FleetRouter::ingest_batch`]. Results come back in request
    /// order, one per requested id.
    pub fn forecast_batch(&mut self, ids: &[String]) -> Vec<(String, Result<Vec<f32>, NetError>)> {
        self.route_forecasts(ids)
    }

    /// [`FleetRouter::forecast_batch`] over borrowed ids: each owner's
    /// frame is encoded straight from them, and its reply — one outcome
    /// per asked id, in the order asked — scatters back by position.
    fn route_forecasts<S: AsRef<str>>(&mut self, ids: &[S]) -> Vec<ForecastRow> {
        let id_at = |at: usize| ids[at].as_ref();
        let timeout = self.cfg.request_timeout;
        let mut out: Vec<Option<ForecastRow>> = ids.iter().map(|_| None).collect();
        let fail = |out: &mut Vec<Option<_>>, at: usize, e: NetError| {
            out[at] = Some((id_at(at).to_string(), Err(e)));
        };
        let mut pending: Vec<usize> = (0..ids.len()).collect();
        let mut attempts = 0;
        while !pending.is_empty() {
            attempts += 1;
            let groups = if attempts > MAX_ATTEMPTS {
                Err(NetError::NoNodes)
            } else {
                self.group_by_owner(&pending, id_at)
            };
            let groups = match groups {
                Ok(groups) => groups,
                Err(e) => {
                    for &at in &pending {
                        fail(&mut out, at, e.clone());
                    }
                    break;
                }
            };
            pending.clear();
            for (idx, group) in groups.iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let reply = self.send_encoded(idx, KIND_FORECAST, timeout, |frame, request_id| {
                    encode_forecast_frame(frame, request_id, group.iter().map(|&at| id_at(at)))
                });
                match reply {
                    Ok(Message::ForecastOk { results }) if results.len() == group.len() => {
                        let mut unknown: Vec<usize> = Vec::new();
                        for (&at, (id, outcome)) in group.iter().zip(results) {
                            match outcome {
                                ForecastOutcome::Values(values) => out[at] = Some((id, Ok(values))),
                                ForecastOutcome::Unknown => unknown.push(at),
                                ForecastOutcome::Failed(e) => {
                                    out[at] = Some((id, Err(NetError::Serve(e))));
                                }
                            }
                        }
                        if !unknown.is_empty() {
                            let heal: Vec<String> =
                                unknown.iter().map(|&at| id_at(at).to_string()).collect();
                            match self.heal_entities(&heal) {
                                Ok(()) => pending.extend(unknown),
                                Err(e) => {
                                    for at in unknown {
                                        fail(&mut out, at, e.clone());
                                    }
                                }
                            }
                        }
                    }
                    Ok(other) => {
                        let what = match other {
                            Message::ForecastOk { results } => {
                                format!("{} results for {} ids", results.len(), group.len())
                            }
                            other => other.kind_name().to_string(),
                        };
                        let e = NetError::Protocol(format!("forecast answered {what}"));
                        for &at in group {
                            fail(&mut out, at, e.clone());
                        }
                    }
                    Err(e) if e.is_transport() => {
                        self.failed_over.add(group.len() as u64);
                        pending.extend_from_slice(group);
                    }
                    Err(e) => {
                        for &at in group {
                            fail(&mut out, at, e.clone());
                        }
                    }
                }
            }
        }
        let answered = out.iter().flatten().filter(|(_, r)| r.is_ok()).count();
        self.routed_forecasts.add(answered as u64);
        out.into_iter()
            .zip(ids)
            .map(|(row, id)| {
                // Every position is answered above; a hole would be a
                // router bug, surfaced as an error instead of a panic.
                row.unwrap_or_else(|| {
                    let id = id.as_ref();
                    let e = NetError::Serve(format!("no forecast produced for {id}"));
                    (id.to_string(), Err(e))
                })
            })
            .collect()
    }

    /// Probe every non-drained node with a short-deadline Health request.
    /// Consecutive failures past `probe_failures` mark a node down; a
    /// successful probe of a down node brings it back (see
    /// [`FleetRouter::recover_node`]). Returns each node's status.
    pub fn probe(&mut self) -> Vec<(String, NodeStatus)> {
        for idx in 0..self.nodes.len() {
            if self.nodes[idx].status == NodeStatus::Drained {
                continue;
            }
            self.registry.counter("router_probes").inc();
            let was_down = self.nodes[idx].status == NodeStatus::Down;
            let timeout = self.cfg.probe_timeout;
            match self.attempt(idx, &Message::Health, timeout, timeout) {
                Ok(Message::HealthOk(_)) => {
                    self.nodes[idx].fails = 0;
                    if was_down {
                        let _ = self.recover_node(idx);
                    }
                }
                _ => {
                    self.registry.counter("router_probe_failures").inc();
                    self.nodes[idx].fails = self.nodes[idx].fails.saturating_add(1);
                    let fails = self.nodes[idx].fails;
                    let limit = self.cfg.probe_failures;
                    if !was_down {
                        if fails >= limit {
                            self.set_down(
                                idx,
                                &format!("{fails}/{limit} consecutive probe failures"),
                            );
                        } else {
                            // Under the threshold: journal the suspicion
                            // but keep the node in the ring.
                            let name = &self.nodes[idx].name;
                            self.emit(
                                EventKind::NodeDown,
                                format!("{name}: probe failure {fails}/{limit} (still up)"),
                            );
                        }
                    }
                }
            }
        }
        self.nodes()
    }

    /// Bring a down node back: mark it up, then force-reinstall every
    /// entity the ring assigns to it (evict any stale copy, re-seed and
    /// replay), since the node missed samples while it was out.
    fn recover_node(&mut self, idx: usize) -> Result<(), NetError> {
        if self.nodes[idx].status != NodeStatus::Down {
            return Ok(());
        }
        self.nodes[idx].status = NodeStatus::Up;
        self.nodes[idx].fails = 0;
        self.registry.gauge("router_nodes_up").inc();
        let name = self.nodes[idx].name.clone();
        self.emit(EventKind::NodeUp, format!("{name} recovered"));
        // Evict *everything* the node might still hold from before it
        // went out — both the keys the ring assigns to it (their history
        // is stale: samples kept flowing to successors) and keys it
        // inherited earlier that now live elsewhere. Unknown ids are
        // cheap skips on the node.
        let total = self.entities.ids.len();
        for start in (0..total).step_by(SEED_CHUNK) {
            let chunk = self.entities.ids[start..(start + SEED_CHUNK).min(total)].to_vec();
            match self.request_to(idx, &Message::Evict { ids: chunk }, self.cfg.bulk_timeout) {
                Ok(_) => {}
                Err(e) if e.is_transport() => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        let ids: Vec<String> = self
            .entities
            .ids
            .iter()
            .filter(|id| self.owner_where(id, None) == Some(idx))
            .cloned()
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
        let reply = self.request_to(idx, &Message::Drain, self.cfg.bulk_timeout)?;
        let Message::DrainOk { entities } = reply else {
            return Err(NetError::Protocol("drain answered wrong kind".into()));
        };
        // Out of the ring before restoring, so states land on successors.
        self.nodes[idx].status = NodeStatus::Drained;
        self.ring.remove_node(name);
        self.registry.gauge("router_nodes_up").dec();
        let total = entities.len() as u64;
        let mut by_owner: Vec<Vec<(String, rptcn::PredictorState)>> =
            std::iter::repeat_with(Vec::new)
                .take(self.nodes.len())
                .collect();
        for (id, state) in entities {
            by_owner[self.route_idx(&id)?].push((id, state));
        }
        for (owner, states) in by_owner.into_iter().enumerate() {
            if !states.is_empty() {
                self.restore_states(owner, states)?;
            }
        }
        self.registry.counter("router_migrated").add(total);
        self.emit(
            EventKind::NodeDrained,
            format!("{name} drained, {total} entities migrated"),
        );
        // Best-effort: tell the drained node to exit.
        let timeout = self.cfg.request_timeout;
        let _ = self.attempt(idx, &Message::Shutdown, timeout, timeout);
        Ok(total)
    }

    /// Best-effort shutdown of every node still reachable.
    pub fn shutdown_fleet(&mut self) {
        let timeout = self.cfg.request_timeout;
        for idx in 0..self.nodes.len() {
            let _ = self.attempt(idx, &Message::Shutdown, timeout, timeout);
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

#[cfg(test)]
mod tests {
    use std::io::BufReader;
    use std::sync::{Arc, Mutex};

    use super::*;
    use crate::frame::{read_frame, write_frame, IngestEntry};
    use crate::sim::SimNet;
    use crate::sync::lock_recover;

    /// What a scripted node saw, and whether it pretends to have lost its
    /// entities on the next Ingest.
    #[derive(Default)]
    struct Script {
        lose_next: bool,
        ingests: Vec<Vec<IngestEntry>>,
    }

    /// A node that seeds and acknowledges everything and records every
    /// Ingest frame; with `lose_next` set it answers one Ingest as if it
    /// had lost every entity in it. It serves one connection, until the
    /// router hangs up.
    fn scripted_node(
        net: &SimNet,
        name: &str,
        script: Arc<Mutex<Script>>,
    ) -> std::thread::JoinHandle<()> {
        let listener = net.transport(name).bind(name).expect("bind");
        std::thread::spawn(move || {
            let mut conn = BufReader::new(listener.accept().expect("router connects"));
            while let Ok((id, msg)) = read_frame(&mut conn) {
                let reply = match msg {
                    Message::Health => Message::HealthOk(Default::default()),
                    Message::Seed(spec) => Message::SeedOk {
                        installed: spec.ids.len() as u64,
                        already: Vec::new(),
                    },
                    Message::Ingest { entries } => {
                        let mut script = lock_recover(&script);
                        let ids: Vec<String> = entries.iter().map(|e| e.entity.clone()).collect();
                        let lost = std::mem::take(&mut script.lose_next);
                        script.ingests.push(entries);
                        Message::IngestOk {
                            accepted: if lost { 0 } else { ids.len() as u64 },
                            unknown: if lost { ids } else { Vec::new() },
                            errors: Vec::new(),
                        }
                    }
                    Message::Evict { .. } => Message::EvictOk { removed: 0 },
                    other => Message::Error(WireFault {
                        code: ErrorCode::Unsupported,
                        message: other.kind_name().into(),
                    }),
                };
                if write_frame(conn.get_mut(), id, &reply).is_err() {
                    return;
                }
            }
        })
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_full_ring_hands_the_evicted_allocation_to_the_new_sample() {
        let mut entities = Entities::default();
        entities.insert("a");
        entities.insert("a");
        for v in 0..3 {
            entities.push("a", &[v as f32], 3);
        }
        let oldest = entities.ring("a").expect("listed")[0].as_ptr();
        entities.push("a", &[9.0], 3);
        entities.push("unlisted", &[1.0], 3);
        let ring = entities.ring("a").expect("listed");
        assert_eq!(
            ring.iter().map(|v| v[0]).collect::<Vec<_>>(),
            [1.0, 2.0, 9.0]
        );
        assert_eq!(ring[2].as_ptr(), oldest, "the evicted buffer is reused");
        assert_eq!(entities.ids, ["a"]);
        assert!(entities.ring("unlisted").is_none());
    }

    /// After more than `replay_window` acknowledged samples — every ring
    /// slot recycled several times — a node that lost the entity is
    /// re-seeded and sent exactly the last `replay_window` samples, in
    /// order and bit for bit (NaN payloads, infinities and signed zeros
    /// included), then the sample it had refused.
    #[test]
    fn failover_replays_the_last_window_bitwise_from_recycled_rings() {
        let net = SimNet::new(5);
        let script = Arc::new(Mutex::new(Script::default()));
        let node = scripted_node(&net, "n0", Arc::clone(&script));
        let window = 4;
        let mut router = FleetRouter::new(RouterConfig {
            replay_window: window,
            transport: net.transport("router"),
            ..RouterConfig::default()
        });
        router.add_node("n0", "n0").expect("node joins");
        let seeded = router
            .seed_entities(&["e".to_string(), "f".to_string()])
            .expect("seed");
        assert_eq!(seeded, 2);
        let sample = |round: u32| {
            let edge = if round.is_multiple_of(2) {
                f32::INFINITY
            } else {
                -0.0
            };
            vec![f32::from_bits(0x7fc0_0000 | round), edge, round as f32]
        };
        let rounds = 3 * window as u32 + 1;
        for round in 0..rounds {
            router.ingest("e", sample(round)).expect("acked");
        }
        router.ingest("f", sample(99)).expect("acked");
        lock_recover(&script).lose_next = true;
        router
            .ingest("e", sample(rounds))
            .expect("healed and acked");

        let script = lock_recover(&script);
        let [refused, replay, resent] = &script.ingests[script.ingests.len() - 3..] else {
            panic!("the heal sends a replay and a resend");
        };
        assert_eq!(bits(&refused[0].values), bits(&sample(rounds)));
        let want: Vec<Vec<u32>> = (rounds - window as u32..rounds)
            .map(|round| bits(&sample(round)))
            .collect();
        assert!(replay.iter().all(|e| e.entity == "e" && e.seq.is_none()));
        let got: Vec<Vec<u32>> = replay.iter().map(|e| bits(&e.values)).collect();
        assert_eq!(got, want, "the last window, in order, bit for bit");
        assert_eq!(resent.len(), 1);
        assert_eq!(bits(&resent[0].values), bits(&sample(rounds)));
        assert_eq!(router.registry().counter("router_healed").get(), 1);
        drop(script);
        drop(router);
        node.join().expect("node thread");
    }
}
