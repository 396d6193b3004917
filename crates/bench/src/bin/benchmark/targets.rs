//! The three altitudes a workload can enter the stack at, behind one
//! [`Target`] interface so a single tick loop drives them all:
//!
//! - [`Fleet`] — `net::FleetRouter` over loopback TCP to in-process
//!   `NodeServer`s (`fleet_rptcn`, `fleet_wire`);
//! - [`Local`] — one `serve::PredictionService` called in-process
//!   (`serve_local`);
//! - [`Bare`] — `rptcn::ResourcePredictor`s and `DecisionPlanner`s with
//!   no service around them (`train_eval`).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use net::{FleetRouter, NodeConfig, NodeServer, RouterConfig};
use rptcn::{DecisionConfig, DecisionPlanner, ResourcePredictor};
use serve::{PredictionService, ServiceConfig, ServiceStats};
use tensor::Tensor;

use crate::stats::Call;

pub type Forecast = Result<Vec<f32>, String>;

/// Operation accounting and output checks of one run. A failed or
/// refused operation counts against `attempted`; a failed check makes the
/// run incorrect and the process exit 1.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    /// Count `n` attempted operations of which `ok` succeeded.
    pub fn ops(&mut self, n: usize, ok: usize, what: &str) {
        self.attempted += n as u64;
        if ok < n {
            self.failed += (n - ok) as u64;
            self.error(format!("{what}: {} of {n} failed", n - ok));
        }
    }

    /// Record a failed output check.
    pub fn error(&mut self, message: String) {
        if self.errors.len() < 20 {
            self.errors.push(message);
        }
    }

    pub fn require(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.error(message());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two forecasts of the same entity state are the same bits.
pub fn same_forecast(a: &Forecast, b: &Forecast) -> bool {
    matches!((a, b), (Ok(x), Ok(y)) if bitwise_eq(x, y))
}

pub trait Target {
    /// Send one sample per entry and wait until the system has taken
    /// them (wire ack, `flush`, or `observe` returning); returns how
    /// many it accepted.
    fn ingest(&mut self, batch: &[(String, Vec<f32>)]) -> usize;
    /// Batch-path forecasts, one per id.
    fn forecast_batch(&mut self, ids: &[String]) -> Vec<(String, Forecast)>;
    /// The interactive single-entity call.
    fn forecast_one(&mut self, id: &str) -> Forecast;
    /// The same forecast obtained another way that must give the same
    /// bits: one layer down (fleet), through the batched engine call
    /// (local), or from the stacked window (bare).
    fn forecast_reference(&mut self, id: &str) -> Forecast;
    /// Capacity reservations; returns how many succeeded.
    fn reserve(&mut self, ids: &[String]) -> usize;
    /// One-step online MAE the system reports for itself.
    fn rolling_mae(&self) -> f64;
    /// Move entities with their full state once; returns entities moved
    /// and the time it took.
    fn migrate(&mut self, checks: &mut Checks) -> Call;
}

/// Shard-scored-count weighted MAE over several services.
pub fn pooled_rolling_mae(stats: &[ServiceStats]) -> f64 {
    let (mut err, mut scored) = (0.0f64, 0u64);
    for shard in stats.iter().flat_map(|s| &s.shards) {
        err += shard.rolling_mae * shard.scored as f64;
        scored += shard.scored;
    }
    err / scored.max(1) as f64
}

// ---------------------------------------------------------------- fleet

/// A router plus the in-process nodes behind it.
pub struct Fleet {
    pub router: FleetRouter,
    pub nodes: Vec<(String, NodeServer)>,
    service_cfg: ServiceConfig,
    /// Index for the next joining node's name.
    next_node: usize,
    /// Whether a joined node is drained again after the migration, so the
    /// next migration starts from the same placement.
    pub drain_after_migrate: bool,
    /// Sample the shard queue depths right after each ingest is acked
    /// (traced runs only) and keep the maximum.
    pub probe_depth: bool,
    pub depth_max: usize,
}

fn queue_depth(stats: &ServiceStats) -> usize {
    stats
        .shards
        .iter()
        .map(|s| s.queue_depth)
        .max()
        .unwrap_or(0)
}

pub fn router_config(seed: u64) -> RouterConfig {
    RouterConfig {
        request_timeout: Duration::from_secs(30),
        bulk_timeout: Duration::from_secs(120),
        replay_window: 4,
        seed,
        bootstrap_len: 64,
        window: 12,
        ..Default::default()
    }
}

pub fn start_node(service: PredictionService) -> NodeServer {
    NodeServer::start(NodeConfig::default(), service).expect("node binds a loopback port")
}

impl Fleet {
    /// Connect a router to `services`, one node each, named `n0..`.
    pub fn start(seed: u64, service_cfg: ServiceConfig, services: Vec<PredictionService>) -> Fleet {
        let mut router = FleetRouter::new(router_config(seed));
        let mut nodes = Vec::new();
        for (i, service) in services.into_iter().enumerate() {
            let name = format!("n{i}");
            let server = start_node(service);
            router
                .add_node(&name, &server.addr())
                .expect("node joins the fleet");
            nodes.push((name, server));
        }
        Fleet {
            router,
            next_node: nodes.len(),
            nodes,
            service_cfg,
            drain_after_migrate: false,
            probe_depth: false,
            depth_max: 0,
        }
    }

    pub fn node(&self, name: &str) -> &NodeServer {
        &self
            .nodes
            .iter()
            .find(|(n, _)| n == name)
            .expect("node is part of the fleet")
            .1
    }

    pub fn owner(&self, id: &str) -> String {
        self.router
            .ring()
            .node_for(id)
            .expect("ring has nodes")
            .to_string()
    }

    /// `ids` grouped by owning node, in node-name order.
    pub fn by_owner(&self, ids: &[String]) -> BTreeMap<String, Vec<String>> {
        let mut groups: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for id in ids {
            groups.entry(self.owner(id)).or_default().push(id.clone());
        }
        groups
    }

    pub fn service_stats(&self) -> Vec<ServiceStats> {
        self.nodes
            .iter()
            .map(|(_, n)| n.with_service(PredictionService::stats))
            .collect()
    }

    pub fn flush(&self) {
        for (_, node) in &self.nodes {
            node.with_service(|s| s.flush()).expect("shards drain");
        }
    }
}

impl Target for Fleet {
    fn ingest(&mut self, batch: &[(String, Vec<f32>)]) -> usize {
        let taken = self
            .router
            .ingest_batch(batch)
            .map_or(0, |report| report.accepted as usize);
        if self.probe_depth {
            let depth = self.service_stats().iter().map(queue_depth).max();
            self.depth_max = self.depth_max.max(depth.unwrap_or(0));
        }
        // The wire acks a sample once it is queued. Wait, node-locally,
        // until the shards have applied the batch: the figure is samples
        // absorbed, and the backlog does not bleed into the next forecast.
        self.flush();
        taken
    }

    fn forecast_batch(&mut self, ids: &[String]) -> Vec<(String, Forecast)> {
        self.router
            .forecast_batch(ids)
            .into_iter()
            .map(|(id, r)| (id, r.map_err(|e| e.to_string())))
            .collect()
    }

    fn forecast_one(&mut self, id: &str) -> Forecast {
        self.router.forecast(id).map_err(|e| e.to_string())
    }

    /// Straight on the owning node's service: the wire must be
    /// value-transparent.
    fn forecast_reference(&mut self, id: &str) -> Forecast {
        self.node(&self.owner(id))
            .with_service(|s| s.forecast(id))
            .map_err(|e| e.to_string())
    }

    /// There is no wire message for reservations yet, so a fleet is asked
    /// node-locally, each node for the entities it owns.
    fn reserve(&mut self, ids: &[String]) -> usize {
        // Grouped by node index and borrowed: this runs inside the timed
        // call, so it must not allocate per id.
        let mut groups: Vec<Vec<&str>> = vec![Vec::new(); self.nodes.len()];
        for id in ids {
            let owner = self.router.ring().node_for(id).expect("ring has nodes");
            let node = self.nodes.iter().position(|(name, _)| name == owner);
            groups[node.expect("owner is part of the fleet")].push(id);
        }
        groups
            .iter()
            .zip(&self.nodes)
            .filter(|(refs, _)| !refs.is_empty())
            .map(|(refs, (_, node))| {
                node.with_service(|s| s.reserve_many(refs))
                    .iter()
                    .filter(|(_, r)| matches!(r, Ok(r) if r.reservation.is_finite()))
                    .count()
            })
            .sum()
    }

    fn rolling_mae(&self) -> f64 {
        pooled_rolling_mae(&self.service_stats())
    }

    /// A fresh empty node joins; the router moves the keys the ring now
    /// gives it over Checkpoint/Restore/Evict frames.
    fn migrate(&mut self, checks: &mut Checks) -> Call {
        let name = format!("n{}", self.next_node);
        self.next_node += 1;
        let service = PredictionService::new(self.service_cfg.clone()).expect("service starts");
        let server = start_node(service);
        let migrated = self.router.registry().counter("router_migrated");
        let before = migrated.get();
        let started = Instant::now();
        let joined = self.router.add_node(&name, &server.addr());
        let nanos = started.elapsed().as_nanos() as u64;
        let moved = (migrated.get() - before) as usize;
        checks.require(joined.is_ok(), || format!("add_node({name}): {joined:?}"));
        let held = server.with_service(PredictionService::entity_ids);
        checks.require(moved > 0 && held.len() == moved, || {
            format!("router_migrated {moved} but {name} holds {}", held.len())
        });
        self.nodes.push((name.clone(), server));
        let mut answered = 0;
        for chunk in held.chunks(500) {
            answered += self
                .forecast_batch(chunk)
                .iter()
                .filter(|(_, r)| matches!(r, Ok(v) if v.iter().all(|x| x.is_finite())))
                .count();
        }
        checks.ops(held.len(), answered, "forecast after migration");
        checks.ops(moved.max(1), moved, "migrate");
        if self.drain_after_migrate {
            let back = self.router.drain_node(&name);
            checks.require(matches!(back, Ok(n) if n as usize == moved), || {
                format!("drain_node({name}) after migration: {back:?}")
            });
            self.nodes.pop();
        }
        Call {
            items: moved,
            nanos,
        }
    }
}

// ---------------------------------------------------------------- local

/// Where a [`Local`] target's service lives: on its own, or (traced runs
/// only) inside the one node of an otherwise idle fleet, so the layers
/// above `serve` can be timed on the same entities afterwards.
pub enum Host {
    Own(Box<PredictionService>),
    Fleet(Box<Fleet>),
}

pub struct Local {
    pub host: Host,
    pub service_cfg: ServiceConfig,
}

impl Local {
    pub fn service<T>(&self, f: impl FnOnce(&PredictionService) -> T) -> T {
        match &self.host {
            Host::Own(service) => f(service),
            Host::Fleet(fleet) => fleet.nodes[0].1.with_service(f),
        }
    }
}

/// Ids forecast together with the checked one when comparing the batched
/// engine call against the single call.
const REFERENCE_BATCH: usize = 16;

impl Target for Local {
    fn ingest(&mut self, batch: &[(String, Vec<f32>)]) -> usize {
        // Traced runs (hosted in a fleet) sample the backlog between
        // enqueue and drain.
        let probe_depth = matches!(self.host, Host::Fleet(_));
        let (taken, depth) = self.service(|s| {
            let taken = batch
                .iter()
                .filter(|(id, values)| s.ingest(id, values.clone()).is_ok())
                .count();
            let depth = if probe_depth {
                queue_depth(&s.stats())
            } else {
                0
            };
            (if s.flush().is_ok() { taken } else { 0 }, depth)
        });
        if let Host::Fleet(fleet) = &mut self.host {
            fleet.depth_max = fleet.depth_max.max(depth);
        }
        taken
    }

    fn forecast_batch(&mut self, ids: &[String]) -> Vec<(String, Forecast)> {
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        self.service(|s| s.forecast_many(&refs))
            .into_iter()
            .map(|(id, r)| (id, r.map_err(|e| e.to_string())))
            .collect()
    }

    fn forecast_one(&mut self, id: &str) -> Forecast {
        self.service(|s| s.forecast(id)).map_err(|e| e.to_string())
    }

    /// `forecast_many` over the id and its neighbours takes the stacked
    /// engine call; its row must equal the single-entity path bit for bit.
    fn forecast_reference(&mut self, id: &str) -> Forecast {
        let all = self.service(PredictionService::entity_ids);
        let at = all.iter().position(|x| x == id).unwrap_or(0);
        let from = at.min(all.len().saturating_sub(REFERENCE_BATCH));
        let group: Vec<String> = all[from..(from + REFERENCE_BATCH).min(all.len())].to_vec();
        self.forecast_batch(&group)
            .into_iter()
            .find(|(x, _)| x == id)
            .map_or(Err(format!("{id} missing from batch")), |(_, r)| r)
    }

    fn reserve(&mut self, ids: &[String]) -> usize {
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        self.service(|s| s.reserve_many(&refs))
            .iter()
            .filter(|(_, r)| matches!(r, Ok(r) if r.reservation.is_finite()))
            .count()
    }

    fn rolling_mae(&self) -> f64 {
        pooled_rolling_mae(&[self.service(PredictionService::stats)])
    }

    /// What a node pair does for a migration, without the wire: snapshot
    /// every entity, install the states into a fresh service.
    fn migrate(&mut self, checks: &mut Checks) -> Call {
        let mut fresh = PredictionService::new(self.service_cfg.clone()).expect("service starts");
        let started = Instant::now();
        let states = self
            .service(PredictionService::snapshot_entities)
            .unwrap_or_default();
        let installed = states
            .iter()
            .filter(|(id, state)| fresh.install_state(id, state).is_ok())
            .count();
        let nanos = started.elapsed().as_nanos() as u64;
        checks.ops(states.len().max(1), installed, "migrate");
        for (id, _) in states.iter().step_by(64) {
            let (here, there) = (self.forecast_one(id), fresh.forecast(id));
            checks.require(
                same_forecast(&here, &there.map_err(|e| e.to_string())),
                || format!("{id}: forecast changed across snapshot/install"),
            );
        }
        Call {
            items: installed,
            nanos,
        }
    }
}

// ----------------------------------------------------------------- bare

/// One entity served by a bare predictor: what a shard keeps per entity,
/// kept here by the benchmark because there is no service.
pub struct BareEntity {
    pub predictor: ResourcePredictor,
    planner: DecisionPlanner,
    /// Forecast issued after the last sample, scored against the next.
    pending: Option<f32>,
    /// `(predicted, reserved)` of the last reservation, settled likewise.
    reserved: Option<(f32, f32)>,
}

pub struct Bare {
    pub entities: BTreeMap<String, BareEntity>,
    target_column: usize,
    abs_err: f64,
    scored: u64,
}

/// Residual window of the bare planners (the service's default).
const RESIDUAL_WINDOW: usize = 128;

impl Bare {
    pub fn new(predictors: Vec<(String, ResourcePredictor)>) -> Bare {
        let target_column = predictors
            .first()
            .and_then(|(_, p)| {
                p.column_names()
                    .iter()
                    .position(|c| c == &p.config().target)
            })
            .unwrap_or(0);
        let entities = predictors
            .into_iter()
            .map(|(id, predictor)| {
                let entity = BareEntity {
                    predictor,
                    planner: DecisionPlanner::new(DecisionConfig::default(), RESIDUAL_WINDOW),
                    pending: None,
                    reserved: None,
                };
                (id, entity)
            })
            .collect();
        Bare {
            entities,
            target_column,
            abs_err: 0.0,
            scored: 0,
        }
    }
}

fn predictor_forecast(p: &ResourcePredictor) -> Forecast {
    p.forecast().map_err(|e| e.to_string())
}

impl Target for Bare {
    /// Score the pending forecast, settle the pending reservation,
    /// observe, and issue the next rolling forecast — the work a shard
    /// does per sample with `score_on_ingest`.
    fn ingest(&mut self, batch: &[(String, Vec<f32>)]) -> usize {
        let mut taken = 0;
        for (id, values) in batch {
            let Some(e) = self.entities.get_mut(id) else {
                continue;
            };
            let actual = values[self.target_column];
            if let Some(forecast) = e.pending.take() {
                self.abs_err += f64::from((actual - forecast).abs());
                self.scored += 1;
            }
            if let Some((predicted, reserved)) = e.reserved.take() {
                e.planner.settle(predicted, reserved, actual);
            }
            if e.predictor.observe(values).is_ok() {
                taken += 1;
            }
            e.pending = e.predictor.forecast().ok().map(|fc| fc[0]);
        }
        taken
    }

    fn forecast_batch(&mut self, ids: &[String]) -> Vec<(String, Forecast)> {
        ids.iter()
            .map(|id| (id.clone(), self.forecast_one(id)))
            .collect()
    }

    fn forecast_one(&mut self, id: &str) -> Forecast {
        match self.entities.get(id) {
            Some(e) => predictor_forecast(&e.predictor),
            None => Err(format!("unknown entity {id}")),
        }
    }

    /// Window, model and de-normalisation called separately, the way the
    /// serving layer stacks them.
    fn forecast_reference(&mut self, id: &str) -> Forecast {
        let p = &self
            .entities
            .get(id)
            .ok_or(format!("unknown entity {id}"))?
            .predictor;
        let (x, w, f) = p.inference_window().map_err(|e| e.to_string())?;
        let normalized = p.predict_batch(&Tensor::from_vec(x, &[1, w, f]));
        Ok(p.denormalize_forecast(normalized.as_slice()))
    }

    fn reserve(&mut self, ids: &[String]) -> usize {
        let mut ok = 0;
        for id in ids {
            let Some(e) = self.entities.get_mut(id) else {
                continue;
            };
            let Ok(fc) = e.predictor.forecast() else {
                continue;
            };
            let decision = e.planner.reserve(fc[0]);
            e.reserved = Some((fc[0], decision.reservation));
            ok += usize::from(decision.reservation.is_finite());
        }
        ok
    }

    fn rolling_mae(&self) -> f64 {
        self.abs_err / self.scored.max(1) as f64
    }

    /// Snapshot every predictor and rebuild it from the snapshot.
    fn migrate(&mut self, checks: &mut Checks) -> Call {
        let started = Instant::now();
        let rebuilt: Vec<(&String, Option<ResourcePredictor>)> = self
            .entities
            .iter()
            .map(|(id, e)| {
                let twin = e
                    .predictor
                    .snapshot()
                    .ok()
                    .and_then(|state| ResourcePredictor::from_state(&state).ok());
                (id, twin)
            })
            .collect();
        let nanos = started.elapsed().as_nanos() as u64;
        let moved = rebuilt.iter().filter(|(_, twin)| twin.is_some()).count();
        checks.ops(rebuilt.len().max(1), moved, "migrate");
        for (id, twin) in &rebuilt {
            let here = predictor_forecast(&self.entities[*id].predictor);
            let there = twin
                .as_ref()
                .map_or(Err("no twin".into()), predictor_forecast);
            checks.require(same_forecast(&here, &there), || {
                format!("{id}: forecast changed across snapshot/from_state")
            });
        }
        Call {
            items: moved,
            nanos,
        }
    }
}
