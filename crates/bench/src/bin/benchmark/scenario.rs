//! The four workloads. Each one sets its stack up (several times, for a
//! steady `setup_s`), onboards its entities, runs a fixed number of
//! ticks through the shared tick loop, moves entities once or a few
//! times, and folds the timings into the end-to-end metrics. The traced
//! variant replays a tenth of the ticks and then hands the stack to
//! [`crate::layers`].

use std::time::Instant;

use models::{NaiveForecaster, NeuralTrainSpec, RptcnConfig, RptcnForecaster};
use rptcn::{PipelineConfig, PipelineRun, ResourcePredictor, Scenario};
use serve::{PredictionService, ServiceConfig};
use timeseries::TimeSeriesFrame;

use crate::host::peak_rss_mb;
use crate::inputs::{container_frame, entity_traces, place, wire_ids, wire_sample, EntityTrace};
use crate::layers;
use crate::stats::{
    floor_percentile, floor_seconds, highest_supported_percentile, peak_rate, percentile, Call,
    P50_STRETCH, P99_STRETCH,
};
use crate::targets::{same_forecast, Bare, Checks, Fleet, Forecast, Host, Local, Target};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetRptcn,
    FleetWire,
    ServeLocal,
    TrainEval,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetRptcn,
        Workload::FleetWire,
        Workload::ServeLocal,
        Workload::TrainEval,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetRptcn => "fleet_rptcn",
            Workload::FleetWire => "fleet_wire",
            Workload::ServeLocal => "serve_local",
            Workload::TrainEval => "train_eval",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One reported figure and how many samples stand behind it.
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

pub fn measured(name: &'static str, value: f64, samples: usize) -> Measured {
    Measured {
        name,
        value,
        samples,
    }
}

pub struct RunOutput {
    pub metrics: Vec<Measured>,
    pub checks: Checks,
    /// Fixed operation counts of this run, for the envelope.
    pub ops: Vec<(&'static str, u64)>,
    /// Free-form lines (stage table, flags) printed with the metrics.
    pub notes: Vec<String>,
}

// ------------------------------------------------------------- sizing

/// Seed of the reference dataset every model is fitted on. Fitting on
/// `--seed`-dependent data would make `test_mae`/`test_mse` differ from
/// seed to seed by the training noise of a small network (about 10 % at
/// these epoch counts), far more than any bound worth having; with the
/// training data fixed they repeat exactly and a numerics change shows.
/// The entities a run *serves* are generated from `--seed`.
const DATASET_SEED: u64 = 2018;

/// Container entities of the RPTCN serving workloads.
const RPTCN_ENTITIES: usize = 256;
/// History each served container entity starts with.
const BOOTSTRAP_ROWS: usize = 400;
/// Seeded Naive entities of `fleet_wire`.
const WIRE_ENTITIES: usize = 100_000;
/// Seed requests the `fleet_wire` onboarding is timed in.
const WIRE_SEED_CHUNKS: usize = 20;
/// Reference containers `train_eval` fits, and their length.
const TRAIN_CONTAINERS: usize = 3;
const TRAIN_ROWS: usize = 2000;
/// Seeded entities served by each fitted `train_eval` model.
const CLONES_PER_MODEL: usize = 32;
/// Passes `fleet_wire` makes over the reference containers each time it
/// times Naive fits (before seeding, after the ticks, after the
/// migrations).
const NAIVE_FIT_ROUNDS: usize = 8;

/// Fixed operation counts, all proportional to the run length asked for
/// so a run at HEAD on the 2-core reference box measures for about
/// `seconds`. Counts, not deadlines: forecasts get slower as histories
/// grow, so both commits must do the same ticks to be comparable.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub ticks: usize,
    pub warmup: usize,
    pub ingest_chunk: usize,
    pub forecast_chunk: usize,
    pub singles: usize,
    /// Set-ups of an untraced run: half before the ticks (the last one is
    /// the instance served), half after the migrations.
    pub setup_reps: usize,
    pub migrations: usize,
    pub epochs: usize,
    /// Samples each trace-fed entity needs after its bootstrap.
    pub feed_ticks: usize,
}

/// Ticks the layer probes of a traced run feed after the tick loop.
const PROBE_TICKS: usize = 64;

impl Sizes {
    pub fn of(workload: Workload, seconds: u64, traced: bool) -> Sizes {
        let s = seconds.max(1) as usize;
        let mut sizes = match workload {
            Workload::FleetRptcn => Sizes {
                ticks: 22 * s,
                warmup: 50,
                ingest_chunk: RPTCN_ENTITIES,
                forecast_chunk: RPTCN_ENTITIES,
                singles: 70,
                setup_reps: 6,
                migrations: 11,
                epochs: 3,
                feed_ticks: 0,
            },
            Workload::FleetWire => Sizes {
                ticks: (2 * s).div_ceil(5),
                warmup: 1,
                ingest_chunk: 2000,
                forecast_chunk: 500,
                singles: 3750,
                setup_reps: 16,
                migrations: 3,
                epochs: 0,
                feed_ticks: 0,
            },
            Workload::ServeLocal => Sizes {
                ticks: 24 * s,
                warmup: 50,
                ingest_chunk: RPTCN_ENTITIES,
                forecast_chunk: RPTCN_ENTITIES,
                singles: 64,
                setup_reps: 6,
                migrations: 21,
                epochs: 3,
                feed_ticks: 0,
            },
            Workload::TrainEval => Sizes {
                ticks: 6 * s,
                warmup: 10,
                ingest_chunk: TRAIN_CONTAINERS * CLONES_PER_MODEL,
                forecast_chunk: TRAIN_CONTAINERS * CLONES_PER_MODEL,
                singles: 270,
                setup_reps: 24,
                migrations: 100,
                epochs: (s * 3 / 4).max(1),
                feed_ticks: 0,
            },
        };
        sizes.warmup = sizes.warmup.min(sizes.ticks / 5);
        if traced {
            // A tenth of the ticks, run twice over (spans on and off).
            sizes.ticks = (sizes.ticks / 10).max(2);
            sizes.warmup = sizes.warmup.min(sizes.ticks);
            sizes.setup_reps = 1;
            if workload == Workload::TrainEval {
                sizes.epochs = (sizes.epochs / 10).max(1);
            }
        }
        sizes.feed_ticks = if traced {
            sizes.warmup + 2 * sizes.ticks + PROBE_TICKS
        } else {
            sizes.warmup + sizes.ticks
        };
        sizes
    }
}

// -------------------------------------------------------------- inputs

/// The per-tick ingest batches of a workload.
pub trait Feed {
    fn ids(&self) -> &[String];
    fn batch(&self, tick: usize) -> Vec<(String, Vec<f32>)>;
}

pub struct TraceFeed {
    ids: Vec<String>,
    traces: Vec<EntityTrace>,
}

impl TraceFeed {
    fn new(traces: Vec<EntityTrace>) -> TraceFeed {
        TraceFeed {
            ids: traces.iter().map(|t| t.id.clone()).collect(),
            traces,
        }
    }
}

impl Feed for TraceFeed {
    fn ids(&self) -> &[String] {
        &self.ids
    }

    fn batch(&self, tick: usize) -> Vec<(String, Vec<f32>)> {
        self.traces
            .iter()
            .map(|t| (t.id.clone(), t.samples[tick].clone()))
            .collect()
    }
}

pub struct WireFeed {
    seed: u64,
    ids: Vec<String>,
}

impl Feed for WireFeed {
    fn ids(&self) -> &[String] {
        &self.ids
    }

    fn batch(&self, tick: usize) -> Vec<(String, Vec<f32>)> {
        self.ids
            .iter()
            .enumerate()
            .map(|(i, id)| (id.clone(), wire_sample(self.seed, i, tick)))
            .collect()
    }
}

// ----------------------------------------------------------- tick loop

/// Timings of the recorded ticks.
#[derive(Default)]
pub struct TickAcc {
    pub ingest: Vec<Call>,
    pub forecast: Vec<Call>,
    pub reserve: Vec<Call>,
    pub single_ns: Vec<u64>,
    pub tick_ns: Vec<u64>,
}

/// Every this-many-th single forecast is compared with its reference.
const CHECK_EVERY: usize = 64;

fn finite(forecast: &Forecast) -> bool {
    matches!(forecast, Ok(v) if !v.is_empty() && v.iter().all(|x| x.is_finite()))
}

fn timed<T>(tracer: &mut Tracer, name: &'static str, req: u32, f: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let (out, _) = tracer.span(name, None, req, f);
    (out, started.elapsed().as_nanos() as u64)
}

/// What a tick loop threads through its ticks.
pub struct TickLoop<'a> {
    target: &'a mut dyn Target,
    feed: &'a dyn Feed,
    sizes: &'a Sizes,
    tracer: &'a mut Tracer,
    checks: &'a mut Checks,
    /// Rotates the single forecasts over the entities.
    cursor: usize,
}

impl TickLoop<'_> {
    /// One tick: every entity reports a sample, every entity is forecast
    /// on the batch path, `singles` rotating entities are forecast one at
    /// a time, and every entity gets a reservation.
    fn tick(&mut self, tick: usize, acc: &mut TickAcc) {
        let Self {
            target,
            feed,
            sizes,
            tracer,
            checks,
            cursor,
        } = self;
        let ids = feed.ids();
        let batch = feed.batch(tick);
        let req = tick as u32;
        let tick_started = Instant::now();
        for chunk in batch.chunks(sizes.ingest_chunk) {
            let (taken, nanos) = timed(tracer, "tick.ingest", req, || target.ingest(chunk));
            checks.ops(chunk.len(), taken, "ingest acked != sent");
            acc.ingest.push(Call {
                items: chunk.len(),
                nanos,
            });
        }
        for chunk in ids.chunks(sizes.forecast_chunk) {
            let (results, nanos) = timed(tracer, "tick.forecast_batch", req, || {
                target.forecast_batch(chunk)
            });
            let ok = results.iter().filter(|(_, r)| finite(r)).count();
            checks.ops(chunk.len(), ok.min(results.len()), "batch forecast");
            acc.forecast.push(Call {
                items: chunk.len(),
                nanos,
            });
        }
        for _ in 0..sizes.singles {
            let id = &ids[*cursor % ids.len()];
            let (forecast, nanos) = timed(tracer, "tick.forecast", req, || target.forecast_one(id));
            checks.ops(1, usize::from(finite(&forecast)), "single forecast");
            if cursor.is_multiple_of(CHECK_EVERY) {
                let reference = target.forecast_reference(id);
                checks.require(same_forecast(&forecast, &reference), || {
                    format!("{id}: forecast {forecast:?} differs from reference {reference:?}")
                });
            }
            acc.single_ns.push(nanos);
            *cursor += 1;
        }
        for chunk in ids.chunks(sizes.forecast_chunk) {
            let (ok, nanos) = timed(tracer, "tick.reserve", req, || target.reserve(chunk));
            checks.ops(chunk.len(), ok, "reserve");
            acc.reserve.push(Call {
                items: chunk.len(),
                nanos,
            });
        }
        acc.tick_ns.push(tick_started.elapsed().as_nanos() as u64);
    }
}

// ------------------------------------------------------------- fitting

/// What one model fit reported.
#[derive(Debug, Clone)]
pub struct FitInfo {
    pub fit_s: f64,
    pub test_mae: f64,
    pub test_mse: f64,
    pub epochs_run: usize,
}

impl FitInfo {
    fn of(run: &PipelineRun) -> FitInfo {
        FitInfo {
            fit_s: run.fit.fit_time.as_secs_f64(),
            test_mae: run.test_metrics.mae,
            test_mse: run.test_metrics.mse,
            epochs_run: run.fit.train_loss.len(),
        }
    }
}

/// RPTCN at the paper's architecture with a fixed epoch count (patience
/// equal to the epochs, so early stopping never shortens the work).
pub fn rptcn_model(epochs: usize) -> RptcnForecaster {
    let defaults = RptcnConfig::default();
    RptcnForecaster::new(RptcnConfig {
        spec: NeuralTrainSpec {
            epochs,
            patience: epochs,
            ..defaults.spec
        },
        ..defaults
    })
}

pub fn pipeline_config(scenario: Scenario) -> PipelineConfig {
    PipelineConfig {
        scenario,
        window: 30,
        horizon: 1,
        ..Default::default()
    }
}

/// The pipeline configuration a node gives seeded (Naive) entities.
pub fn wire_pipeline_config() -> PipelineConfig {
    PipelineConfig {
        scenario: Scenario::Uni,
        window: 12,
        horizon: 1,
        ..Default::default()
    }
}

pub fn service_config(shards: usize) -> ServiceConfig {
    ServiceConfig {
        shards,
        queue_capacity: 4096,
        refit_workers: 0,
        refit_every: 0,
        score_on_ingest: true,
        ..Default::default()
    }
}

/// Everything the phases before the tick loop produced.
#[derive(Default)]
pub struct Onboard {
    pub setup_s: Vec<f64>,
    pub seed: Vec<Call>,
    pub fits: Vec<FitInfo>,
    /// How many of `fits` had run when the served instance stood: the last
    /// of those are the models in service.
    pub fits_at_service: usize,
}

/// A service holding `owned` entities that share one RPTCN fitted on the
/// reference container `reference`, which stays installed but is never
/// fed or asked.
fn rptcn_service(
    shards: usize,
    reference: usize,
    owned: &[&EntityTrace],
    epochs: usize,
    onboard: &mut Onboard,
) -> PredictionService {
    let mut service = PredictionService::new(service_config(shards)).expect("service starts");
    let reference_id = format!("ref-{reference}");
    let mut frames: Vec<(&str, TimeSeriesFrame)> = vec![(
        reference_id.as_str(),
        container_frame(DATASET_SEED, reference, BOOTSTRAP_ROWS),
    )];
    frames.extend(owned.iter().map(|t| (t.id.as_str(), t.bootstrap.clone())));
    let started = Instant::now();
    let run = service
        .add_entities_shared(
            &frames,
            pipeline_config(Scenario::Mul),
            Box::new(rptcn_model(epochs)),
        )
        .expect("entities onboard");
    onboard.seed.push(Call {
        items: owned.len(),
        nanos: started.elapsed().as_nanos() as u64,
    });
    onboard.fits.push(FitInfo::of(&run));
    service
}

/// Make the router's entity list cover entities that were installed on
/// the nodes directly: the nodes answer "already have it", the router
/// starts buffering their samples for replay and can migrate them.
fn register(fleet: &mut Fleet, ids: &[String], onboard: &mut Onboard, checks: &mut Checks) {
    let started = Instant::now();
    let fresh = fleet.router.seed_entities(ids);
    let nanos = started.elapsed().as_nanos() as u64;
    checks.require(matches!(fresh, Ok(0)), || {
        format!("registering installed entities reseeded some: {fresh:?}")
    });
    if let Some(last) = onboard.seed.last_mut() {
        last.nanos += nanos;
    }
}

/// Fold the per-node onboarding calls of one set-up into one call.
fn merge_seed_calls(onboard: &mut Onboard, from: usize) {
    let merged = onboard
        .seed
        .drain(from..)
        .fold(Call { items: 0, nanos: 0 }, |a, c| Call {
            items: a.items + c.items,
            nanos: a.nanos + c.nanos,
        });
    onboard.seed.push(merged);
}

fn setup_fleet_rptcn(
    seed: u64,
    sizes: &Sizes,
    onboard: &mut Onboard,
    checks: &mut Checks,
) -> (Fleet, TraceFeed) {
    let started = Instant::now();
    let traces = entity_traces(seed, RPTCN_ENTITIES, BOOTSTRAP_ROWS, sizes.feed_ticks);
    let feed = TraceFeed::new(traces);
    let nodes = ["n0", "n1"];
    let placed = place(
        feed.ids(),
        &nodes,
        crate::targets::router_config(seed).vnodes,
    );
    let first_call = onboard.seed.len();
    let services = nodes
        .iter()
        .enumerate()
        .map(|(n, node)| {
            let owned: Vec<&EntityTrace> = placed[*node].iter().map(|&i| &feed.traces[i]).collect();
            rptcn_service(1, n, &owned, sizes.epochs, onboard)
        })
        .collect();
    let mut fleet = Fleet::start(seed, service_config(1), services);
    fleet.drain_after_migrate = true;
    register(&mut fleet, feed.ids(), onboard, checks);
    merge_seed_calls(onboard, first_call);
    onboard.setup_s.push(started.elapsed().as_secs_f64());
    (fleet, feed)
}

fn setup_serve_local(
    seed: u64,
    sizes: &Sizes,
    traced: bool,
    onboard: &mut Onboard,
    checks: &mut Checks,
) -> (Local, TraceFeed) {
    let started = Instant::now();
    let traces = entity_traces(seed, RPTCN_ENTITIES, BOOTSTRAP_ROWS, sizes.feed_ticks);
    let feed = TraceFeed::new(traces);
    let owned: Vec<&EntityTrace> = feed.traces.iter().collect();
    let service = rptcn_service(2, 0, &owned, sizes.epochs, onboard);
    let host = if traced {
        let mut fleet = Fleet::start(seed, service_config(2), vec![service]);
        register(&mut fleet, feed.ids(), onboard, checks);
        Host::Fleet(Box::new(fleet))
    } else {
        Host::Own(Box::new(service))
    };
    onboard.setup_s.push(started.elapsed().as_secs_f64());
    (
        Local {
            host,
            service_cfg: service_config(2),
        },
        feed,
    )
}

fn setup_fleet_wire(seed: u64, entities: usize, onboard: &mut Onboard) -> (Fleet, WireFeed) {
    let started = Instant::now();
    let feed = WireFeed {
        seed,
        ids: wire_ids(entities),
    };
    let services = (0..2)
        .map(|_| PredictionService::new(service_config(1)).expect("service starts"))
        .collect();
    let fleet = Fleet::start(seed, service_config(1), services);
    onboard.setup_s.push(started.elapsed().as_secs_f64());
    (fleet, feed)
}

/// Seed the fleet through the router in equal chunks, each one timed.
fn seed_fleet_wire(fleet: &mut Fleet, ids: &[String], onboard: &mut Onboard, checks: &mut Checks) {
    for chunk in ids.chunks(ids.len().div_ceil(WIRE_SEED_CHUNKS)) {
        let started = Instant::now();
        let installed = fleet.router.seed_entities(chunk).unwrap_or(0) as usize;
        onboard.seed.push(Call {
            items: chunk.len(),
            nanos: started.elapsed().as_nanos() as u64,
        });
        checks.ops(chunk.len(), installed, "seed");
    }
}

/// What fitting this workload's model costs: the pipeline steps, a Naive
/// fit and its test-split evaluation on the reference containers
/// `train_eval` fits its RPTCNs on. (A node fits seeded entities on
/// 64-sample bootstraps; that takes 5 us and reads 5 or 9 us from one
/// process to the next, so it is not used as a metric.)
fn naive_fit_probe(onboard: &mut Onboard) {
    let frames: Vec<TimeSeriesFrame> = (0..TRAIN_CONTAINERS)
        .map(|i| container_frame(DATASET_SEED, i, TRAIN_ROWS))
        .collect();
    for round in 0..=NAIVE_FIT_ROUNDS {
        for frame in &frames {
            let started = Instant::now();
            let fitted = ResourcePredictor::fit(
                Box::new(NaiveForecaster::new()),
                frame,
                wire_pipeline_config(),
            );
            let wall = started.elapsed().as_secs_f64();
            let (_, run) = fitted.expect("naive fit on a reference container");
            // Round 0 warms caches and the allocator up.
            if round > 0 {
                onboard.fits.push(FitInfo {
                    fit_s: wall,
                    ..FitInfo::of(&run)
                });
            }
        }
    }
}

/// `train_eval` inputs: the reference frames the models are fitted on
/// and the seeded entities the fitted models then serve.
struct TrainInputs {
    reference: Vec<TimeSeriesFrame>,
    feed: TraceFeed,
}

fn setup_train_eval(seed: u64, sizes: &Sizes, onboard: &mut Onboard) -> TrainInputs {
    let started = Instant::now();
    let reference: Vec<TimeSeriesFrame> = (0..TRAIN_CONTAINERS)
        .map(|i| container_frame(DATASET_SEED, i, TRAIN_ROWS))
        .collect();
    for frame in &reference {
        // The pipeline steps the researcher pays before any training.
        rptcn::prepare(frame, &pipeline_config(Scenario::MulExp))
            .expect("reference frame prepares");
    }
    let traces = entity_traces(
        seed,
        TRAIN_CONTAINERS * CLONES_PER_MODEL,
        BOOTSTRAP_ROWS,
        sizes.feed_ticks,
    );
    onboard.setup_s.push(started.elapsed().as_secs_f64());
    TrainInputs {
        reference,
        feed: TraceFeed::new(traces),
    }
}

/// Fit one RPTCN per reference container, then clone each fitted model
/// for the seeded entities of its class (same index modulo the
/// container count, so a model serves the workload class it was fitted
/// on).
fn fit_train_eval(inputs: &TrainInputs, sizes: &Sizes, onboard: &mut Onboard) -> Bare {
    let started = Instant::now();
    let templates: Vec<ResourcePredictor> = inputs
        .reference
        .iter()
        .map(|frame| {
            let (predictor, run) = ResourcePredictor::fit(
                Box::new(rptcn_model(sizes.epochs)),
                frame,
                pipeline_config(Scenario::MulExp),
            )
            .expect("reference container fits");
            onboard.fits.push(FitInfo::of(&run));
            predictor
        })
        .collect();
    let predictors: Vec<(String, ResourcePredictor)> = inputs
        .feed
        .traces
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            let clone = templates[i % templates.len()]
                .clone_for_entity(&trace.bootstrap)
                .expect("fitted model clones for an entity");
            (trace.id.clone(), clone)
        })
        .collect();
    onboard.seed.push(Call {
        items: predictors.len(),
        nanos: started.elapsed().as_nanos() as u64,
    });
    Bare::new(predictors)
}

// ------------------------------------------------------------ workloads

/// Run `warmup` unrecorded ticks, then the timed ones.
fn run_ticks(
    target: &mut dyn Target,
    feed: &dyn Feed,
    sizes: &Sizes,
    checks: &mut Checks,
) -> TickAcc {
    let mut tracer = Tracer::new(false);
    let (on, _) = run_traced_ticks(target, feed, sizes, &mut tracer, checks, 1);
    on
}

/// The tick loop. Of every `stride` ticks after the warm-up the first is
/// recorded (and traced, if the tracer is on) into the first accumulator,
/// the rest run with spans off into the second — so a traced replay
/// (`stride` 2) has both halves see the same history growth. The loop
/// runs `warmup + stride * ticks` ticks.
fn run_traced_ticks(
    target: &mut dyn Target,
    feed: &dyn Feed,
    sizes: &Sizes,
    tracer: &mut Tracer,
    checks: &mut Checks,
    stride: usize,
) -> (TickAcc, TickAcc) {
    let tracing = tracer.is_enabled();
    let (mut on, mut off, mut warm) = (TickAcc::default(), TickAcc::default(), TickAcc::default());
    let mut ticks = TickLoop {
        target,
        feed,
        sizes,
        tracer,
        checks,
        cursor: 0,
    };
    for tick in 0..sizes.warmup + stride * sizes.ticks {
        let first = tick >= sizes.warmup && (tick - sizes.warmup).is_multiple_of(stride);
        ticks.tracer.set_enabled(tracing && first);
        let acc = match (tick < sizes.warmup, first) {
            (true, _) => &mut warm,
            (false, true) => &mut on,
            (false, false) => &mut off,
        };
        ticks.tick(tick, acc);
    }
    ticks.tracer.set_enabled(tracing);
    (on, off)
}

/// Set a workload up `reps` times, dropping each instance before the
/// next is built, and keep the last.
fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> T {
    let mut instance = setup();
    for _ in 1..reps {
        drop(instance);
        instance = setup();
    }
    instance
}

/// The set-ups after the run: the served instance is gone, each new one is
/// dropped at once. Timed like the ones before the ticks; with both ends
/// of the run sampled a burst of interference at the start does not set
/// `setup_s`.
fn late_setups<T>(sizes: &Sizes, setup: impl FnMut() -> T) {
    drop(repeat_setup(sizes.setup_reps / 2, setup));
}

fn wire_entities(quick: bool) -> usize {
    if quick {
        WIRE_ENTITIES / 10
    } else {
        WIRE_ENTITIES
    }
}

fn run_migrations(target: &mut dyn Target, sizes: &Sizes, checks: &mut Checks) -> Vec<Call> {
    (0..sizes.migrations)
        .map(|_| target.migrate(checks))
        .collect()
}

fn mean(fits: &[FitInfo], of: impl Fn(&FitInfo) -> f64) -> f64 {
    fits.iter().map(of).sum::<f64>() / fits.len().max(1) as f64
}

/// The end-to-end metrics, the same thirteen for every workload.
fn end_to_end(
    onboard: &Onboard,
    acc: &TickAcc,
    migrations: &[Call],
    rolling_mae: f64,
    fits_per_setup: usize,
    checks: &mut Checks,
) -> Vec<Measured> {
    let singles = acc.single_ns.len();
    let p50 = floor_percentile(&acc.single_ns, 50.0, P50_STRETCH);
    let p99 = floor_percentile(&acc.single_ns, 99.0, P99_STRETCH);
    checks.require(p99.is_some(), || {
        format!("{singles} single-forecast samples cannot carry a p99 (needs 10 beyond it)")
    });
    let us = |ns: Option<f64>| ns.map_or(f64::NAN, |n| n / 1e3);
    let fit_s: Vec<f64> = onboard.fits.iter().map(|f| f.fit_s).collect();
    // Test error of the models in service: those of the last set-up.
    let serving = &onboard.fits[onboard.fits_at_service - fits_per_setup..onboard.fits_at_service];
    vec![
        measured(
            "setup_s",
            floor_seconds(&onboard.setup_s),
            onboard.setup_s.len(),
        ),
        measured(
            "forecast_per_s",
            peak_rate(&acc.forecast),
            acc.forecast.len(),
        ),
        measured("ingest_per_s", peak_rate(&acc.ingest), acc.ingest.len()),
        measured("forecast_p50_us", us(p50), singles),
        measured("forecast_p99_us", us(p99), singles),
        measured("reserve_per_s", peak_rate(&acc.reserve), acc.reserve.len()),
        measured("seed_per_s", peak_rate(&onboard.seed), onboard.seed.len()),
        measured("migrate_per_s", peak_rate(migrations), migrations.len()),
        measured("fit_s", floor_seconds(&fit_s), fit_s.len()),
        measured("test_mae", mean(serving, |f| f.test_mae), serving.len()),
        measured("test_mse", mean(serving, |f| f.test_mse), serving.len()),
        measured(
            "rolling_mae",
            rolling_mae,
            acc.ingest.iter().map(|c| c.items).sum(),
        ),
        measured("peak_rss_mb", peak_rss_mb(), 1),
    ]
}

/// The whole-run figures beside the quietest-stretch ones: what the run
/// saw with the host's interference left in.
fn whole_run_notes(acc: &TickAcc, onboard: &Onboard, migrations: &[Call]) -> Vec<String> {
    let mut sorted = acc.single_ns.clone();
    sorted.sort_unstable();
    let us = |p: f64| percentile(&sorted, p).map_or(f64::NAN, |n| n as f64 / 1e3);
    let tail = match highest_supported_percentile(sorted.len()) {
        Some(p) => format!(
            "p{p} = {:.1} us (highest percentile with 10 samples beyond it)",
            us(p)
        ),
        None => "no percentile".into(),
    };
    let rate = |c: &Call| c.items as f64 * 1e9 / c.nanos.max(1) as f64;
    let mean_rate = |calls: &[Call]| {
        let (items, nanos) = calls
            .iter()
            .fold((0, 0), |(i, n), c| (i + c.items, n + c.nanos));
        items as f64 * 1e9 / nanos.max(1) as f64
    };
    vec![
        format!(
            "single forecasts over the whole run: p50 = {:.1} us, p99 = {:.1} us, {tail}, {} samples",
            us(50.0),
            us(99.0),
            sorted.len()
        ),
        format!(
            "items / time over the whole run: ingest {:.0}/s, forecast {:.0}/s, reserve {:.0}/s",
            mean_rate(&acc.ingest),
            mean_rate(&acc.forecast),
            mean_rate(&acc.reserve)
        ),
        format!(
            "every repetition: setup_s {:.4?}; seed_per_s {:.0?}; migrate_per_s {:.0?}",
            onboard.setup_s,
            onboard.seed.iter().map(rate).collect::<Vec<_>>(),
            migrations.iter().map(rate).collect::<Vec<_>>()
        ),
    ]
}

fn op_counts(sizes: &Sizes, entities: usize) -> Vec<(&'static str, u64)> {
    let ticks = sizes.ticks as u64;
    vec![
        ("entities", entities as u64),
        ("ticks", ticks),
        ("warmup_ticks", sizes.warmup as u64),
        ("ingests", ticks * entities as u64),
        ("batch_forecasts", ticks * entities as u64),
        ("single_forecasts", ticks * sizes.singles as u64),
        ("reservations", ticks * entities as u64),
        ("setups", sizes.setup_reps as u64),
        ("migrations", sizes.migrations as u64),
        ("epochs", sizes.epochs as u64),
    ]
}

/// Run one workload untraced and report its end-to-end metrics.
pub fn run_end_to_end(workload: Workload, seed: u64, seconds: u64, quick: bool) -> RunOutput {
    let sizes = Sizes::of(workload, seconds, false);
    let mut checks = Checks::default();
    let mut onboard = Onboard::default();
    let early = sizes.setup_reps.div_ceil(2);
    let (acc, migrations, rolling, fits_per_setup, entities) = match workload {
        Workload::FleetRptcn => {
            let (mut fleet, feed) = repeat_setup(early, || {
                setup_fleet_rptcn(seed, &sizes, &mut onboard, &mut checks)
            });
            onboard.fits_at_service = onboard.fits.len();
            let acc = run_ticks(&mut fleet, &feed, &sizes, &mut checks);
            let rolling = fleet.rolling_mae();
            let migrations = run_migrations(&mut fleet, &sizes, &mut checks);
            check_fleet_counters(&fleet, &mut checks);
            let entities = feed.ids().len();
            drop((fleet, feed));
            late_setups(&sizes, || {
                setup_fleet_rptcn(seed, &sizes, &mut onboard, &mut checks)
            });
            (acc, migrations, rolling, 2, entities)
        }
        Workload::ServeLocal => {
            let (mut local, feed) = repeat_setup(early, || {
                setup_serve_local(seed, &sizes, false, &mut onboard, &mut checks)
            });
            onboard.fits_at_service = onboard.fits.len();
            let acc = run_ticks(&mut local, &feed, &sizes, &mut checks);
            let rolling = local.rolling_mae();
            let migrations = run_migrations(&mut local, &sizes, &mut checks);
            let entities = feed.ids().len();
            drop((local, feed));
            late_setups(&sizes, || {
                setup_serve_local(seed, &sizes, false, &mut onboard, &mut checks)
            });
            (acc, migrations, rolling, 1, entities)
        }
        Workload::FleetWire => {
            let (mut fleet, feed) = repeat_setup(early, || {
                setup_fleet_wire(seed, wire_entities(quick), &mut onboard)
            });
            naive_fit_probe(&mut onboard);
            onboard.fits_at_service = onboard.fits.len();
            seed_fleet_wire(&mut fleet, feed.ids(), &mut onboard, &mut checks);
            let acc = run_ticks(&mut fleet, &feed, &sizes, &mut checks);
            naive_fit_probe(&mut onboard);
            let rolling = fleet.rolling_mae();
            let migrations = run_migrations(&mut fleet, &sizes, &mut checks);
            check_fleet_counters(&fleet, &mut checks);
            let entities = feed.ids().len();
            drop((fleet, feed));
            naive_fit_probe(&mut onboard);
            late_setups(&sizes, || {
                setup_fleet_wire(seed, wire_entities(quick), &mut onboard)
            });
            (acc, migrations, rolling, TRAIN_CONTAINERS, entities)
        }
        Workload::TrainEval => {
            let inputs = repeat_setup(early, || setup_train_eval(seed, &sizes, &mut onboard));
            let mut bare = fit_train_eval(&inputs, &sizes, &mut onboard);
            onboard.fits_at_service = onboard.fits.len();
            let acc = run_ticks(&mut bare, &inputs.feed, &sizes, &mut checks);
            let rolling = bare.rolling_mae();
            let migrations = run_migrations(&mut bare, &sizes, &mut checks);
            let entities = inputs.feed.ids().len();
            drop((bare, inputs));
            late_setups(&sizes, || setup_train_eval(seed, &sizes, &mut onboard));
            (acc, migrations, rolling, TRAIN_CONTAINERS, entities)
        }
    };
    let metrics = end_to_end(
        &onboard,
        &acc,
        &migrations,
        rolling,
        fits_per_setup,
        &mut checks,
    );
    RunOutput {
        metrics,
        notes: whole_run_notes(&acc, &onboard, &migrations),
        ops: op_counts(&sizes, entities),
        checks,
    }
}

/// No request may have needed failover, healing or a dedup replay: the
/// workloads are chosen so that nothing fails.
fn check_fleet_counters(fleet: &Fleet, checks: &mut Checks) {
    for (name, value) in layers::fleet_counters(fleet) {
        checks.require(value == 0, || format!("{name} = {value}, expected 0"));
    }
}

/// Run one workload traced and report its per-layer metrics.
pub fn run_traced(workload: Workload, seed: u64, seconds: u64, quick: bool) -> RunOutput {
    let sizes = Sizes::of(workload, seconds, true);
    let mut checks = Checks::default();
    let mut onboard = Onboard::default();
    let mut tracer = Tracer::new(true);
    let (metrics, notes, entities) =
        match workload {
            Workload::FleetRptcn => {
                let (mut fleet, feed) = setup_fleet_rptcn(seed, &sizes, &mut onboard, &mut checks);
                fleet.probe_depth = true;
                let (on, off) =
                    run_traced_ticks(&mut fleet, &feed, &sizes, &mut tracer, &mut checks, 2);
                let (metrics, notes) = layers::Probe::new(
                    workload, seed, &sizes, &feed, &onboard, &on, &off,
                )
                .run(&mut fleet, &mut tracer, &mut checks);
                (metrics, notes, feed.ids().len())
            }
            Workload::ServeLocal => {
                let (mut local, feed) =
                    setup_serve_local(seed, &sizes, true, &mut onboard, &mut checks);
                let (on, off) =
                    run_traced_ticks(&mut local, &feed, &sizes, &mut tracer, &mut checks, 2);
                let Host::Fleet(fleet) = &mut local.host else {
                    unreachable!("a traced serve_local is hosted in a fleet")
                };
                let (metrics, notes) = layers::Probe::new(
                    workload, seed, &sizes, &feed, &onboard, &on, &off,
                )
                .run(fleet, &mut tracer, &mut checks);
                (metrics, notes, feed.ids().len())
            }
            Workload::FleetWire => {
                let (mut fleet, feed) = setup_fleet_wire(seed, wire_entities(quick), &mut onboard);
                fleet.probe_depth = true;
                naive_fit_probe(&mut onboard);
                seed_fleet_wire(&mut fleet, feed.ids(), &mut onboard, &mut checks);
                let (on, off) =
                    run_traced_ticks(&mut fleet, &feed, &sizes, &mut tracer, &mut checks, 2);
                let (metrics, notes) = layers::Probe::new(
                    workload, seed, &sizes, &feed, &onboard, &on, &off,
                )
                .run(&mut fleet, &mut tracer, &mut checks);
                (metrics, notes, feed.ids().len())
            }
            Workload::TrainEval => {
                let inputs = setup_train_eval(seed, &sizes, &mut onboard);
                let mut bare = fit_train_eval(&inputs, &sizes, &mut onboard);
                let (on, off) =
                    run_traced_ticks(&mut bare, &inputs.feed, &sizes, &mut tracer, &mut checks, 2);
                // Host the fitted predictors in a service behind a node and a
                // router, so the layers above `core` can be timed on them too.
                let mut service =
                    PredictionService::new(service_config(2)).expect("service starts");
                for (id, entity) in &bare.entities {
                    let state = entity.predictor.snapshot().expect("RPTCN snapshots");
                    service.install_state(id, &state).expect("state installs");
                }
                let mut fleet = Fleet::start(seed, service_config(2), vec![service]);
                register(&mut fleet, inputs.feed.ids(), &mut onboard, &mut checks);
                let (metrics, notes) =
                    layers::Probe::new(workload, seed, &sizes, &inputs.feed, &onboard, &on, &off)
                        .run(&mut fleet, &mut tracer, &mut checks);
                (metrics, notes, inputs.feed.ids().len())
            }
        };
    let mut notes = notes;
    match write_trace(workload, &tracer) {
        Ok(path) => notes.push(format!("{} spans written to {path}", tracer.spans().len())),
        Err(e) => checks.error(format!("writing the trace failed: {e}")),
    }
    RunOutput {
        metrics,
        notes,
        ops: op_counts(&sizes, entities),
        checks,
    }
}

/// Where build outputs go: the driver's `CARGO_TARGET_DIR`, else `target`.
pub fn output_dir() -> std::path::PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    std::path::Path::new(&target).join("benchmark")
}

fn write_trace(workload: Workload, tracer: &Tracer) -> std::io::Result<String> {
    let dir = output_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.trace.jsonl", workload.name()));
    std::fs::write(&path, tracer.to_jsonl())?;
    Ok(path.display().to_string())
}
