//! Per-layer metrics of the traced run. Every workload ends its traced
//! ticks with its entities hosted in a [`Fleet`] (its own, or one built
//! around its service or predictors), so one probe times every layer on
//! the workload's own entities, messages and shapes:
//!
//! ```text
//! net.router  FleetRouter::forecast / forecast_batch / ingest_batch
//! net.wire    NodeClient::request of the frames the router sends
//! serve       PredictionService calls the node dispatches to
//! core        ResourcePredictor twin rebuilt from snapshot_entities
//! models      RptcnForecaster / NaiveForecaster predict
//! kernels     conv1d_into, relu/softmax, gemm_into at the model's shapes
//! ```
//!
//! Each request is replayed once per layer, outermost first, every replay
//! a span whose parent is the span one layer up.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Duration;

use autograd::conv1d_into;
use autograd::infer::{relu_in_place, softmax_rows_in_place, thread_context_allocs};
use models::{Forecaster, NaiveForecaster, RptcnForecaster, StreamingRptcn};
use net::{decode_frame, encode_frame, ForecastOutcome, IngestEntry, Message, NodeClient};
use rptcn::{DecisionConfig, DecisionPlanner, PredictorState, ResourcePredictor};
use serve::PredictionService;
use tensor::gemm::gemm_into;
use tensor::{Rng, Tensor};

use crate::inputs::container_frame;
use crate::scenario::{
    measured, pipeline_config, wire_pipeline_config, Feed, Measured, Onboard, Sizes, TickAcc,
    Workload,
};
use crate::stats::median;
use crate::targets::{Checks, Fleet};
use crate::trace::{layer_table, stage_chain, LayerRow, SpanId, Tracer, NEGATIVE_SELF_FLAG};

/// Single-forecast requests replayed through the onion.
const SINGLE_REQUESTS: usize = 320;
/// Batch requests (forecast, ingest, reserve) replayed through the onion.
const BATCH_REQUESTS: usize = 16;
/// Entities that get a predictor twin for the single-forecast onion.
const TWIN_SAMPLE: usize = 64;
/// Calls grouped under one span where a single call is too short to time.
const CALLS_PER_SPAN: usize = 256;
/// Rows of the stacked-batch model probe and the stacked GEMM shape
/// `[128, 240] x [240, 64]` (the probe `BENCH_infer.json` also reports).
const STACKED_ROWS: usize = 128;
const STACKED_GEMM: (usize, usize, usize) = (STACKED_ROWS, 240, 64);

/// Router and node counters that must stay 0 on these workloads.
pub fn fleet_counters(fleet: &Fleet) -> Vec<(&'static str, u64)> {
    let registry = fleet.router.registry();
    vec![
        (
            "net.router.failed_over",
            registry.counter("router_failed_over").get(),
        ),
        ("net.router.healed", registry.counter("router_healed").get()),
        (
            "net.node.dedup_hits",
            fleet.nodes.iter().map(|(_, n)| n.dedup_hits()).sum(),
        ),
    ]
}

pub struct Probe<'a> {
    workload: Workload,
    seed: u64,
    sizes: &'a Sizes,
    feed: &'a dyn Feed,
    onboard: &'a Onboard,
    /// Ticks run with spans on, and the interleaved ticks with spans off.
    traced: &'a TickAcc,
    untraced: &'a TickAcc,
}

/// The architecture constants of `RptcnConfig::default()` the kernel
/// replays are shaped by.
const CHANNELS: usize = 16;
const LEVELS: usize = 4;
const KERNEL: usize = 3;
const FC_DIM: usize = 32;

/// One causal convolution of the forward pass.
struct ConvShape {
    in_ch: usize,
    kernel: usize,
    dilation: usize,
}

/// The convolutions of one RPTCN forward pass over `features` inputs:
/// two per level at dilation `2^level`, plus the 1x1 residual projection
/// where the channel count changes.
fn conv_shapes(features: usize) -> Vec<ConvShape> {
    let mut shapes = Vec::new();
    for level in 0..LEVELS {
        let in_ch = if level == 0 { features } else { CHANNELS };
        for conv_in in [in_ch, CHANNELS] {
            shapes.push(ConvShape {
                in_ch: conv_in,
                kernel: KERNEL,
                dilation: 1 << level,
            });
        }
        if in_ch != CHANNELS {
            shapes.push(ConvShape {
                in_ch,
                kernel: 1,
                dilation: 1,
            });
        }
    }
    shapes
}

/// The matrix products of one single-row forward pass `(m, k, n)`: the
/// fully connected layer, the attention score projection and the head.
const GEMM_SHAPES: [(usize, usize, usize); 3] =
    [(1, CHANNELS, FC_DIM), (1, FC_DIM, FC_DIM), (1, FC_DIM, 1)];

fn flops(shapes: &[(usize, usize, usize)]) -> f64 {
    shapes.iter().map(|&(m, k, n)| (2 * m * k * n) as f64).sum()
}

/// Scratch inputs for the kernel replays, allocated once.
struct KernelBench {
    window: usize,
    convs: Vec<(ConvShape, Vec<f32>, Vec<f32>)>,
    conv_out: Vec<f32>,
    activations: Vec<f32>,
    scores: Vec<f32>,
    gemms: Vec<GemmCase>,
}

/// One `[m, k] x [k, n]` product with its operands and output.
struct GemmCase {
    shape: (usize, usize, usize),
    a: Vec<f32>,
    b: Vec<f32>,
    out: Vec<f32>,
}

impl KernelBench {
    fn new(window: usize, features: usize, rng: &mut Rng) -> KernelBench {
        let mut random = |n: usize| Tensor::rand_normal(&[n], 0.0, 0.5, rng).into_vec();
        let convs = conv_shapes(features)
            .into_iter()
            .map(|shape| {
                let x = random(shape.in_ch * window);
                let w = random(CHANNELS * shape.in_ch * shape.kernel);
                (shape, x, w)
            })
            .collect();
        let gemms = GEMM_SHAPES
            .iter()
            .map(|&(m, k, n)| GemmCase {
                shape: (m, k, n),
                a: random(m * k),
                b: random(k * n),
                out: vec![0.0; m * n],
            })
            .collect();
        KernelBench {
            window,
            convs,
            conv_out: vec![0.0; CHANNELS * window],
            activations: random(CHANNELS * window),
            scores: random(FC_DIM),
            gemms,
        }
    }

    fn convs(&mut self) {
        for (shape, x, w) in &self.convs {
            conv1d_into(
                x,
                w,
                &mut self.conv_out,
                1,
                shape.in_ch,
                CHANNELS,
                self.window,
                shape.kernel,
                shape.dilation,
            );
            black_box(&self.conv_out);
        }
    }

    /// Two activations per level on `[channels, window]`, one on the
    /// fully connected layer's output, one softmax over its scores.
    fn pointwise(&mut self) {
        for _ in 0..2 * LEVELS {
            relu_in_place(&mut self.activations);
            black_box(&self.activations);
        }
        relu_in_place(&mut self.scores);
        softmax_rows_in_place(&mut self.scores, 1, FC_DIM);
        black_box(&self.scores);
    }

    fn gemms(&mut self) {
        for case in &mut self.gemms {
            let (m, k, n) = case.shape;
            gemm_into(&case.a, &case.b, &mut case.out, m, k, n, false);
            black_box(&case.out);
        }
    }
}

/// Span `models.rptcn.predict` on `x`, then the kernel families of that
/// forward pass as its children.
fn rptcn_onion(
    tracer: &mut Tracer,
    model: &RptcnForecaster,
    kernels: &mut KernelBench,
    x: &Tensor,
    parent: Option<SpanId>,
    req: u32,
) {
    let (_, predict) = tracer.span("models.rptcn.predict", parent, req, || {
        black_box(model.predict(x));
    });
    tracer.span("autograd.conv", predict, req, || kernels.convs());
    tracer.span("autograd.infer.pointwise", predict, req, || {
        kernels.pointwise()
    });
    tracer.span("tensor.gemm", predict, req, || kernels.gemms());
}

fn finite_reply(reply: &Result<Message, net::NetError>, expected: usize) -> bool {
    match reply {
        Ok(Message::ForecastOk { results }) => {
            results.len() == expected
                && results.iter().all(|(_, outcome)| {
                    matches!(outcome, ForecastOutcome::Values(v) if v.iter().all(|x| x.is_finite()))
                })
        }
        _ => false,
    }
}

fn ingest_entries(batch: &[(String, Vec<f32>)]) -> Vec<IngestEntry> {
    batch
        .iter()
        .map(|(id, values)| IngestEntry {
            entity: id.clone(),
            seq: None,
            values: values.clone(),
        })
        .collect()
}

/// The first `chunk` entries of the feed's batch for `tick`.
fn ingest_chunk(feed: &dyn Feed, tick: usize, chunk: usize) -> Vec<(String, Vec<f32>)> {
    let mut batch = feed.batch(tick);
    batch.truncate(chunk);
    batch
}

/// Everything the replays share: the fleet under test, one direct client
/// per node, and predictor twins rebuilt from the nodes' own snapshots.
struct Onion<'a> {
    fleet: &'a mut Fleet,
    tracer: &'a mut Tracer,
    checks: &'a mut Checks,
    clients: BTreeMap<String, NodeClient>,
    states: BTreeMap<String, PredictorState>,
    twins: BTreeMap<String, ResourcePredictor>,
    /// Entities the single-forecast and observe replays rotate over.
    sample_ids: Vec<String>,
    /// One batch-forecast request of the workload, whole and per owner.
    batch_ids: Vec<String>,
    groups: BTreeMap<String, Vec<String>>,
    window: usize,
    features: usize,
    /// The workload's RPTCN, or an untrained one at its input shape.
    rptcn: RptcnForecaster,
    serves_rptcn: bool,
    kernels: KernelBench,
    rng: Rng,
}

/// Exact counts the codec probe reads off the workload's own frames.
struct FrameCounts {
    entries_per_round: f64,
    bytes_per_ingest: f64,
    bytes_per_forecast: f64,
    bytes_per_migrated_entity: f64,
}

impl<'a> Onion<'a> {
    fn new(
        fleet: &'a mut Fleet,
        tracer: &'a mut Tracer,
        checks: &'a mut Checks,
        ids: &[String],
        forecast_chunk: usize,
        seed: u64,
    ) -> Onion<'a> {
        let batch_ids: Vec<String> = ids[..forecast_chunk.min(ids.len())].to_vec();
        let sample_ids: Vec<String> = ids
            .iter()
            .step_by((ids.len() / TWIN_SAMPLE).max(1))
            .take(TWIN_SAMPLE)
            .cloned()
            .collect();
        let clients = fleet
            .nodes
            .iter()
            .map(|(name, node)| {
                let client = NodeClient::connect(&node.addr(), Duration::from_secs(30))
                    .expect("probe connects to the node");
                (name.clone(), client)
            })
            .collect();
        let mut states: BTreeMap<String, PredictorState> = BTreeMap::new();
        for (_, node) in &fleet.nodes {
            let snapshot = node
                .with_service(PredictionService::snapshot_entities)
                .expect("entities snapshot");
            states.extend(
                snapshot
                    .into_iter()
                    .filter(|(id, _)| batch_ids.contains(id) || sample_ids.contains(id)),
            );
        }
        let twins: BTreeMap<String, ResourcePredictor> = states
            .iter()
            .map(|(id, state)| {
                let twin = ResourcePredictor::from_state(state).expect("twin rebuilds");
                (id.clone(), twin)
            })
            .collect();
        let model = &states[&sample_ids[0]].model;
        let (_, window, features) = twins[&sample_ids[0]]
            .inference_window()
            .expect("twin has a full window");
        let serves_rptcn = model.arch == "RPTCN";
        let rptcn = if serves_rptcn {
            RptcnForecaster::from_state(model).expect("RPTCN rebuilds")
        } else {
            let mut untrained = RptcnForecaster::paper_default();
            untrained.init_untrained(features, 1);
            untrained
        };
        let mut rng = Rng::seed_from(seed);
        let kernels = KernelBench::new(window, features, &mut rng);
        let groups = fleet.by_owner(&batch_ids);
        Onion {
            fleet,
            tracer,
            checks,
            clients,
            states,
            twins,
            sample_ids,
            batch_ids,
            groups,
            window,
            features,
            rptcn,
            serves_rptcn,
            kernels,
            rng,
        }
    }

    /// `batch` grouped by owning node.
    fn by_owner(
        &self,
        batch: Vec<(String, Vec<f32>)>,
    ) -> BTreeMap<String, Vec<(String, Vec<f32>)>> {
        let mut groups: BTreeMap<String, Vec<(String, Vec<f32>)>> = BTreeMap::new();
        for entry in batch {
            groups
                .entry(self.fleet.owner(&entry.0))
                .or_default()
                .push(entry);
        }
        groups
    }

    /// One interactive forecast, replayed at every layer.
    fn single_forecasts(&mut self) {
        for r in 0..SINGLE_REQUESTS {
            let req = r as u32;
            let id = self.sample_ids[r % self.sample_ids.len()].clone();
            let owner = self.fleet.owner(&id);
            let (reply, router) = self.tracer.span("net.router.forecast", None, req, || {
                self.fleet.router.forecast(&id)
            });
            self.checks
                .require(reply.is_ok(), || format!("probe forecast {id}: {reply:?}"));
            let msg = Message::Forecast {
                ids: vec![id.clone()],
            };
            let client = self.clients.get_mut(&owner).expect("client per node");
            let (reply, wire) = self
                .tracer
                .span("net.wire.forecast", router, req, || client.request(&msg));
            self.checks.require(finite_reply(&reply, 1), || {
                format!("probe wire forecast {id}: {reply:?}")
            });
            let node = self.fleet.node(&owner);
            let (_, service) = self.tracer.span("serve.service.forecast", wire, req, || {
                black_box(node.with_service(|s| s.forecast_many(&[id.as_str()])));
            });
            let twin = &self.twins[&id];
            let (_, predictor) = self
                .tracer
                .span("core.predictor.forecast", service, req, || {
                    black_box(twin.forecast().ok());
                });
            let ((x, w, f), _) = self
                .tracer
                .span("core.predictor.window", predictor, req, || {
                    twin.inference_window().expect("twin has a full window")
                });
            let x = Tensor::from_vec(x, &[1, w, f]);
            if self.serves_rptcn {
                rptcn_onion(
                    self.tracer,
                    &self.rptcn,
                    &mut self.kernels,
                    &x,
                    predictor,
                    req,
                );
            } else {
                self.tracer
                    .span("models.naive.predict", predictor, req, || {
                        black_box(twin.predict_batch(&x));
                    });
            }
        }
    }

    /// The model the workload does not serve (outside its stage chain),
    /// the stacked-batch, streaming and stacked-GEMM probes. Returns arena
    /// allocations per steady-state forecast.
    fn model_probes(&mut self, naive_train: &timeseries::WindowedDataset) -> f64 {
        let (window, features) = (self.window, self.features);
        let x1 = Tensor::rand_normal(&[1, window, features], 0.5, 0.2, &mut self.rng);
        let mut naive = NaiveForecaster::new();
        naive.fit(naive_train, None);
        for r in 0..SINGLE_REQUESTS {
            let req = (SINGLE_REQUESTS + r) as u32;
            if self.serves_rptcn {
                self.tracer.span("models.naive.predict", None, req, || {
                    black_box(naive.predict(&x1));
                });
            } else {
                rptcn_onion(self.tracer, &self.rptcn, &mut self.kernels, &x1, None, req);
            }
        }
        let allocs_before = thread_context_allocs();
        for _ in 0..ALLOC_PROBE_FORECASTS {
            black_box(self.rptcn.predict(&x1));
        }
        let allocs =
            (thread_context_allocs() - allocs_before) as f64 / ALLOC_PROBE_FORECASTS as f64;

        let x_stacked =
            Tensor::rand_normal(&[STACKED_ROWS, window, features], 0.5, 0.2, &mut self.rng);
        let (m, k, n) = STACKED_GEMM;
        let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut self.rng);
        let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut self.rng);
        let mut c = vec![0.0f32; m * n];
        let mut stream = StreamingRptcn::new(&self.rptcn).expect("paper config streams");
        let push_row: Vec<f32> = x1.as_slice()[..features].to_vec();
        for r in 0..SINGLE_REQUESTS {
            let req = r as u32;
            if r % 8 == 0 {
                self.tracer
                    .span("models.rptcn.predict_batch", None, req, || {
                        black_box(self.rptcn.predict(&x_stacked));
                    });
            }
            self.tracer.span("models.streaming.push", None, req, || {
                black_box(stream.push(&push_row));
            });
            self.tracer.span("tensor.gemm.stacked", None, req, || {
                gemm_into(a.as_slice(), b.as_slice(), &mut c, m, k, n, false);
                black_box(&c);
            });
        }
        allocs
    }

    /// One batch forecast, replayed at every layer down to the twins.
    fn batch_forecasts(&mut self) {
        let (window, features) = (self.window, self.features);
        for r in 0..BATCH_REQUESTS {
            let req = r as u32;
            let (results, router) =
                self.tracer
                    .span("net.router.forecast_batch", None, req, || {
                        self.fleet.router.forecast_batch(&self.batch_ids)
                    });
            self.checks.require(
                results.len() == self.batch_ids.len() && results.iter().all(|(_, r)| r.is_ok()),
                || "probe batch forecast failed".into(),
            );
            for (owner, group) in &self.groups {
                let msg = Message::Forecast { ids: group.clone() };
                let client = self.clients.get_mut(owner).expect("client per node");
                let (reply, wire) =
                    self.tracer
                        .span("net.wire.forecast_batch", router, req, || {
                            client.request(&msg)
                        });
                self.checks.require(finite_reply(&reply, group.len()), || {
                    "probe wire batch forecast failed".into()
                });
                let refs: Vec<&str> = group.iter().map(String::as_str).collect();
                let node = self.fleet.node(owner);
                let (_, service) =
                    self.tracer
                        .span("serve.service.forecast_many", wire, req, || {
                            black_box(node.with_service(|s| s.forecast_many(&refs)));
                        });
                // What a shard does for a weight-sharing group: one window
                // per entity, one stacked model call, one de-normalisation
                // per entity.
                let twins = &self.twins;
                self.tracer
                    .span("core.predictor.forecast_many", service, req, || {
                        let mut stacked = Vec::with_capacity(group.len() * window * features);
                        for id in group {
                            let (x, _, _) = twins[id].inference_window().expect("full window");
                            stacked.extend_from_slice(&x);
                        }
                        let x = Tensor::from_vec(stacked, &[group.len(), window, features]);
                        let out = twins[&group[0]].predict_batch(&x);
                        for (row, id) in group.iter().enumerate() {
                            black_box(twins[id].denormalize_forecast(&out.as_slice()[row..=row]));
                        }
                    });
            }
        }
    }

    /// One ingest request per layer: three consecutive ticks' samples go
    /// through the router, the bare client and the service, then the
    /// shards drain and the sampled twins observe.
    fn ingests(&mut self, feed: &dyn Feed, first_tick: usize, chunk: usize) {
        for r in 0..BATCH_REQUESTS {
            let req = r as u32;
            let batch = ingest_chunk(feed, first_tick + 3 * r, chunk);
            let (report, router) = self.tracer.span("net.router.ingest_batch", None, req, || {
                self.fleet.router.ingest_batch(&batch)
            });
            self.checks.require(
                matches!(&report, Ok(rep) if rep.accepted as usize == batch.len()),
                || format!("probe ingest: {report:?}"),
            );
            self.fleet.flush();
            let mut wire_spans = BTreeMap::new();
            for (owner, group) in self.by_owner(ingest_chunk(feed, first_tick + 3 * r + 1, chunk)) {
                let msg = Message::Ingest {
                    entries: ingest_entries(&group),
                };
                let client = self.clients.get_mut(&owner).expect("client per node");
                let (reply, wire) = self
                    .tracer
                    .span("net.wire.ingest", router, req, || client.request(&msg));
                self.checks.require(
                    matches!(&reply, Ok(Message::IngestOk { accepted, .. }) if *accepted as usize == group.len()),
                    || format!("probe wire ingest: {reply:?}"),
                );
                wire_spans.insert(owner, wire);
            }
            self.fleet.flush();
            let direct = ingest_chunk(feed, first_tick + 3 * r + 2, chunk);
            for (owner, group) in self.by_owner(direct.clone()) {
                let node = self.fleet.node(&owner);
                self.tracer
                    .span("serve.service.ingest", wire_spans[&owner], req, || {
                        node.with_service(|s| {
                            for (id, values) in group {
                                let _ = s.ingest(&id, values);
                            }
                        })
                    });
            }
            self.tracer
                .span("serve.ingest.drain", None, req, || self.fleet.flush());
            // The per-sample work of a shard, on the twins.
            for (id, values) in direct.iter().filter(|(id, _)| self.sample_ids.contains(id)) {
                let twin = self.twins.get_mut(id).expect("sampled twin");
                self.tracer.span("core.predictor.observe", None, req, || {
                    let _ = twin.observe(values);
                });
            }
        }
    }

    /// Reservations on the service, and the planner's two calls alone on
    /// `demand` (many calls per span: one takes tens of nanoseconds).
    fn reservations(&mut self, demand: &[f32]) {
        for r in 0..BATCH_REQUESTS {
            let req = r as u32;
            for (owner, group) in &self.groups {
                let refs: Vec<&str> = group.iter().map(String::as_str).collect();
                let node = self.fleet.node(owner);
                let (_, reserve) =
                    self.tracer
                        .span("serve.service.reserve_many", None, req, || {
                            black_box(node.with_service(|s| s.reserve_many(&refs)));
                        });
                self.tracer
                    .span("serve.service.forecast_interval_many", reserve, req, || {
                        black_box(node.with_service(|s| s.forecast_with_interval_many(&refs)));
                    });
            }
        }
        let mut planner = DecisionPlanner::new(DecisionConfig::default(), 128);
        for r in 0..BATCH_REQUESTS {
            let req = r as u32;
            let (reserved, _) = self.tracer.span("core.decide.reserve", None, req, || {
                demand
                    .iter()
                    .map(|&d| planner.reserve(d).reservation)
                    .collect::<Vec<f32>>()
            });
            self.tracer.span("core.decide.settle", None, req, || {
                for (k, &d) in demand.iter().enumerate() {
                    planner.settle(d, reserved[k], demand[(k + 1) % demand.len()]);
                }
            });
        }
    }

    /// The wire's round-trip floor, then the codec alone on the
    /// workload's own Ingest, Forecast and ForecastOk frames.
    fn wire_floor_and_codec(&mut self, ingest: &[(String, Vec<f32>)]) -> FrameCounts {
        let owner = self.fleet.owner(&self.batch_ids[0]);
        for r in 0..SINGLE_REQUESTS {
            let client = self.clients.get_mut(&owner).expect("client per node");
            let (reply, _) = self.tracer.span("net.wire.health", None, r as u32, || {
                client.request(&Message::Health)
            });
            self.checks
                .require(reply.is_ok(), || format!("probe health: {reply:?}"));
        }
        let group = self.groups[&owner].clone();
        let ingest_msg = Message::Ingest {
            entries: ingest_entries(ingest),
        };
        let forecast_msg = Message::Forecast { ids: group.clone() };
        let reply_msg = self
            .clients
            .get_mut(&owner)
            .expect("client per node")
            .request(&forecast_msg)
            .expect("forecast reply for the codec probe");
        let messages = [&ingest_msg, &forecast_msg, &reply_msg];
        let frames: Vec<Vec<u8>> = messages
            .iter()
            .map(|m| encode_frame(1, m).expect("own messages encode"))
            .collect();
        for r in 0..SINGLE_REQUESTS / 4 {
            let req = r as u32;
            self.tracer.span("net.frame.encode", None, req, || {
                for m in messages {
                    black_box(encode_frame(1, m).ok());
                }
            });
            self.tracer.span("net.frame.decode", None, req, || {
                for f in &frames {
                    black_box(decode_frame(f).ok());
                }
            });
        }
        let migrated: Vec<(String, PredictorState)> = self
            .sample_ids
            .iter()
            .map(|id| (id.clone(), self.states[id].clone()))
            .collect();
        let migrated_bytes = encode_frame(1, &Message::Restore { entities: migrated })
            .expect("states encode")
            .len();
        FrameCounts {
            entries_per_round: (ingest.len() + 2 * group.len()) as f64,
            bytes_per_ingest: frames[0].len() as f64 / ingest.len() as f64,
            bytes_per_forecast: (frames[1].len() + frames[2].len()) as f64 / group.len() as f64,
            bytes_per_migrated_entity: migrated_bytes as f64 / self.sample_ids.len() as f64,
        }
    }
}

/// Forecasts the arena-allocation probe makes.
const ALLOC_PROBE_FORECASTS: u64 = 32;

impl<'a> Probe<'a> {
    pub fn new(
        workload: Workload,
        seed: u64,
        sizes: &'a Sizes,
        feed: &'a dyn Feed,
        onboard: &'a Onboard,
        traced: &'a TickAcc,
        untraced: &'a TickAcc,
    ) -> Probe<'a> {
        Probe {
            workload,
            seed,
            sizes,
            feed,
            onboard,
            traced,
            untraced,
        }
    }

    /// The outermost spans of the workload's own single-forecast, batch
    /// forecast and ingest requests: the roots of its stage tables.
    fn stage_roots(&self) -> &'static [&'static str] {
        match self.workload {
            Workload::FleetRptcn | Workload::FleetWire => &[
                "net.router.forecast",
                "net.router.forecast_batch",
                "net.router.ingest_batch",
            ],
            Workload::ServeLocal => &[
                "serve.service.forecast",
                "serve.service.forecast_many",
                "serve.service.ingest",
            ],
            Workload::TrainEval => &["core.predictor.forecast", "core.predictor.forecast_many"],
        }
    }

    /// The frame the workload's bootstraps come from, for the pipeline
    /// and generator probes.
    fn reference_frame(&self) -> timeseries::TimeSeriesFrame {
        match self.workload {
            Workload::FleetWire => {
                net::seed_bootstrap(self.seed, "w-000000", 64).expect("bootstrap generates")
            }
            Workload::TrainEval => container_frame(self.seed, 0, 2000),
            _ => container_frame(self.seed, 0, 400),
        }
    }

    fn pipeline(&self) -> rptcn::PipelineConfig {
        match self.workload {
            Workload::FleetWire => wire_pipeline_config(),
            Workload::TrainEval => pipeline_config(rptcn::Scenario::MulExp),
            _ => pipeline_config(rptcn::Scenario::Mul),
        }
    }

    /// `prepare` and the trace generator on the workload's own frame.
    /// Returns the training windows of that frame.
    fn pipeline_and_generator(&self, tracer: &mut Tracer) -> timeseries::WindowedDataset {
        let frame = self.reference_frame();
        let cfg = self.pipeline();
        let mut train = None;
        for r in 0..8 {
            let (data, _) = tracer.span("core.pipeline.prepare", None, r, || {
                rptcn::prepare(&frame, &cfg).expect("reference frame prepares")
            });
            train = Some(data.train);
            tracer.span("trace.generate", None, r, || match self.workload {
                Workload::FleetWire => {
                    black_box(net::seed_bootstrap(self.seed, "w-000000", 64).ok());
                }
                _ => {
                    black_box(container_frame(self.seed, r as usize, frame.len()));
                }
            });
        }
        train.expect("the probe loop ran")
    }

    pub fn run(
        &self,
        fleet: &mut Fleet,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> (Vec<Measured>, Vec<String>) {
        fleet.flush();
        // Shard accounting of the tick phase, before the probes add to it.
        let tick_stats = fleet.service_stats();
        let busy_ns: f64 = fleet
            .nodes
            .iter()
            .flat_map(|(_, n)| n.with_service(PredictionService::metrics).histograms)
            .filter(|(name, _)| name.ends_with(".forecast_ns") || name.ends_with(".ingest_ns"))
            .map(|(_, h)| h.count as f64 * h.mean().unwrap_or(0.0))
            .sum();
        let counters = fleet_counters(fleet);
        let depth_max = fleet.depth_max;

        let ids = self.feed.ids();
        let first_tick = self.sizes.warmup + 2 * self.sizes.ticks;
        let chunk = self.sizes.ingest_chunk.min(ids.len());
        let train = self.pipeline_and_generator(tracer);
        let ingest = ingest_chunk(self.feed, first_tick, chunk);
        let demand: Vec<f32> = (0..CALLS_PER_SPAN)
            .map(|k| ingest[k % ingest.len()].1[0])
            .collect();

        let mut onion = Onion::new(
            fleet,
            tracer,
            checks,
            ids,
            self.sizes.forecast_chunk,
            self.seed,
        );
        onion.single_forecasts();
        let allocs_per_forecast = onion.model_probes(&train);
        onion.batch_forecasts();
        onion.ingests(self.feed, first_tick, chunk);
        onion.reservations(&demand);
        let frames = onion.wire_floor_and_codec(&ingest);
        let per_batch = onion.batch_ids.len() as f64;
        let observes_per_request = onion
            .sample_ids
            .iter()
            .filter(|id| ids[..chunk].contains(id))
            .count()
            .max(1) as f64;
        let sampled = onion.sample_ids.len();

        // ---- fold spans into the catalogue -------------------------------
        let rows = layer_table(tracer.spans());
        let row = |span: &str| rows.iter().find(|r| r.name == span);
        let count = |span: &str| row(span).map_or(0, |r| r.requests);
        let total_us = |span: &str| row(span).map_or(f64::NAN, |r| r.median_ns / 1e3);
        // A span's median (`whole`) or self time in us, divided by `per`.
        let whole = |name, span: &str, per: f64| measured(name, total_us(span) / per, count(span));
        let own = |name, span: &str, per: f64| {
            let self_us = row(span).map_or(f64::NAN, |r| r.self_ns / 1e3);
            measured(name, self_us / per, count(span))
        };
        let (ns, ms) = (1e-3, 1e3);
        let per_ingest = chunk as f64;
        let per_span = CALLS_PER_SPAN as f64;
        let stats_sum = |f: fn(&serve::ShardStats) -> u64| -> f64 {
            tick_stats
                .iter()
                .flat_map(|s| &s.shards)
                .map(f)
                .sum::<u64>() as f64
        };
        let forecasts = stats_sum(|s| s.forecasts);
        let batched = stats_sum(|s| s.batched_forecasts);
        let batch_calls = stats_sum(|s| s.batch_calls);
        let shards = tick_stats.iter().map(|s| s.shards.len()).sum::<usize>() as f64;
        let tick_ns = |acc: &TickAcc| acc.tick_ns.iter().map(|&ns| ns as f64).collect::<Vec<_>>();
        let (on, off) = (tick_ns(self.traced), tick_ns(self.untraced));
        let ticks = on.len() + off.len();
        let tick_wall_ns: f64 = on.iter().chain(&off).sum();
        let fit = self
            .onboard
            .fits
            .last()
            .expect("every workload fits a model");
        let batch_size = models::NeuralTrainSpec::default().batch_size;
        let epochs = fit.epochs_run.max(1);
        let steps = epochs * train.len().div_ceil(batch_size);
        let counter = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |(_, v)| *v as f64)
        };
        let kernel_us = total_us("autograd.conv")
            + total_us("autograd.infer.pointwise")
            + total_us("tensor.gemm");
        let (m, k, n) = STACKED_GEMM;
        let stacked_flops = 2.0 * (m * k * n) as f64;

        let metrics = vec![
            own("net.router.forecast_self_us", "net.router.forecast", 1.0),
            own(
                "net.router.batch_self_us_per_entry",
                "net.router.forecast_batch",
                per_batch,
            ),
            own(
                "net.router.ingest_self_us_per_entry",
                "net.router.ingest_batch",
                per_ingest,
            ),
            own("net.wire.forecast_self_us", "net.wire.forecast", 1.0),
            own(
                "net.wire.ingest_self_us_per_entry",
                "net.wire.ingest",
                per_ingest,
            ),
            whole("net.wire.rtt_floor_us", "net.wire.health", 1.0),
            whole(
                "net.frame.encode_ns_per_entry",
                "net.frame.encode",
                ns * frames.entries_per_round,
            ),
            whole(
                "net.frame.decode_ns_per_entry",
                "net.frame.decode",
                ns * frames.entries_per_round,
            ),
            measured("net.frame.bytes_per_ingest", frames.bytes_per_ingest, 1),
            measured("net.frame.bytes_per_forecast", frames.bytes_per_forecast, 1),
            measured(
                "net.frame.bytes_per_migrated_entity",
                frames.bytes_per_migrated_entity,
                sampled,
            ),
            measured(
                "net.router.failed_over",
                counter("net.router.failed_over"),
                1,
            ),
            measured("net.router.healed", counter("net.router.healed"), 1),
            measured("net.node.dedup_hits", counter("net.node.dedup_hits"), 1),
            own(
                "serve.service.forecast_self_us",
                "serve.service.forecast",
                1.0,
            ),
            own(
                "serve.service.forecast_many_self_us_per_entity",
                "serve.service.forecast_many",
                per_batch,
            ),
            whole(
                "serve.ingest.enqueue_us",
                "serve.service.ingest",
                per_ingest,
            ),
            whole("serve.ingest.drain_ms_per_tick", "serve.ingest.drain", ms),
            measured(
                "serve.queue_depth_max",
                depth_max as f64,
                self.traced.ingest.len() + self.untraced.ingest.len(),
            ),
            measured(
                "serve.batched_share",
                batched / forecasts.max(1.0),
                forecasts as usize,
            ),
            measured(
                "serve.batch_rows_mean",
                batched / batch_calls.max(1.0),
                batch_calls as usize,
            ),
            measured(
                "serve.shard.busy_share",
                busy_ns / (tick_wall_ns * shards).max(1.0),
                ticks,
            ),
            own(
                "serve.reserve_self_us_per_entity",
                "serve.service.reserve_many",
                per_batch,
            ),
            whole("core.predictor.window_us", "core.predictor.window", 1.0),
            whole(
                "core.predictor.observe_us",
                "core.predictor.observe",
                observes_per_request,
            ),
            own(
                "core.predictor.forecast_self_us",
                "core.predictor.forecast",
                1.0,
            ),
            whole(
                "core.decide.reserve_ns",
                "core.decide.reserve",
                ns * per_span,
            ),
            whole("core.decide.settle_ns", "core.decide.settle", ns * per_span),
            whole("core.pipeline.prepare_ms", "core.pipeline.prepare", ms),
            whole("models.rptcn.predict_us", "models.rptcn.predict", 1.0),
            whole(
                "models.rptcn.predict_batch_us_per_row",
                "models.rptcn.predict_batch",
                STACKED_ROWS as f64,
            ),
            whole("models.streaming.push_us", "models.streaming.push", 1.0),
            whole("models.naive.predict_ns", "models.naive.predict", ns),
            measured(
                "models.rptcn.nonkernel_self_us",
                total_us("models.rptcn.predict") - kernel_us,
                count("models.rptcn.predict"),
            ),
            whole("autograd.conv.ns_per_forecast", "autograd.conv", ns),
            whole(
                "autograd.infer.pointwise_ns_per_forecast",
                "autograd.infer.pointwise",
                ns,
            ),
            measured(
                "autograd.infer.allocs_per_forecast",
                allocs_per_forecast,
                ALLOC_PROBE_FORECASTS as usize,
            ),
            whole("tensor.gemm.ns_per_forecast", "tensor.gemm", ns),
            measured("tensor.gemm.flop_per_forecast", flops(&GEMM_SHAPES), 1),
            measured(
                "tensor.gemm.gflops_stacked",
                stacked_flops / (total_us("tensor.gemm.stacked") * 1e3),
                count("tensor.gemm.stacked"),
            ),
            measured(
                "autograd.train.step_ms",
                fit.fit_s * 1e3 / steps as f64,
                steps,
            ),
            measured(
                "autograd.train.windows_per_s",
                (epochs * train.len()) as f64 / fit.fit_s,
                epochs * train.len(),
            ),
            measured("autograd.train.epochs_run", fit.epochs_run as f64, 1),
            whole("trace.generate_ms_per_entity", "trace.generate", ms),
            measured(
                "bench.trace_overhead_share",
                (median(&on) - median(&off)) / median(&off),
                on.len(),
            ),
        ];
        checks.require(allocs_per_forecast == 0.0, || {
            format!("{allocs_per_forecast} arena allocations per steady-state forecast")
        });
        (metrics, self.stage_notes(&rows))
    }

    /// The stage tables: per request kind, the layers under the workload's
    /// entry point with their self times, the sum and the measured whole.
    fn stage_notes(&self, rows: &[LayerRow]) -> Vec<String> {
        let mut notes = Vec::new();
        for root in self.stage_roots() {
            let chain = stage_chain(rows, root);
            let Some(whole) = chain.first().map(|r| r.median_ns) else {
                notes.push(format!("stage table: no spans under {root}"));
                continue;
            };
            notes.push(format!(
                "stage table of one {root} request ({} replays, medians):",
                chain[0].requests
            ));
            for r in &chain {
                let flag = if r.self_ns < -NEGATIVE_SELF_FLAG * whole {
                    "  <-- negative self time above 5 % of the whole"
                } else {
                    ""
                };
                notes.push(format!(
                    "  stage.{}.self_us {:.3}  ({:.1} % of the whole){flag}",
                    r.name,
                    r.self_ns / 1e3,
                    100.0 * r.self_ns / whole
                ));
            }
            let sum: f64 = chain.iter().map(|r| r.self_ns).sum();
            notes.push(format!(
                "  stage sum {:.3} us, measured whole {:.3} us",
                sum / 1e3,
                whole / 1e3
            ));
        }
        notes
    }
}
