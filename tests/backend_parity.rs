//! One forward definition, two backends — checked through the public API,
//! in seconds, so the tier-1 command (`cargo test -q` at the root) guards
//! the seam the per-crate parity suites check in depth.
//!
//! A convolutional (RPTCN) and a recurrent (LSTM) forecaster are fitted
//! through `ResourcePredictor::fit`; the forecast must then be the same
//! bits on the tape-free arena backend (`predict`), on the taped backend
//! (`predict_taped`), through the predictor and through a
//! `PredictionService` shard — and repeated forecasts must stop taking
//! fresh buffers from the thread's scratch arena. A shared-weight group
//! answered by one stacked batch must answer each entity with the bits of
//! its own forecast (run outside the service, on a twin rebuilt from its
//! snapshot). And because the arena reads convolution weights prepared
//! when they were installed, an entity whose model is replaced must answer
//! with the replacement's bits at once. Last, a fixed-seed fit is pinned
//! to constants, so every host that runs this file checks that it trains
//! and forecasts the bits every other host does.

use std::collections::BTreeMap;

use autograd::infer::thread_context_allocs;
use cloudtrace::{ContainerConfig, WorkloadClass};
use models::{
    Forecaster, LstmConfig, LstmForecaster, NeuralTrainSpec, RptcnConfig, RptcnForecaster,
};
use rptcn::{prepare, run_model, PipelineConfig, ResourcePredictor, Scenario};
use serve::{PredictionService, ServiceConfig};
use tensor::Tensor;
use timeseries::TimeSeriesFrame;

fn bootstrap() -> TimeSeriesFrame {
    bootstrap_seeded(14)
}

fn bootstrap_seeded(seed: u64) -> TimeSeriesFrame {
    cloudtrace::container::generate_container(
        &ContainerConfig::new(WorkloadClass::HighDynamic, 320, seed).with_diurnal_period(120),
    )
}

fn pipeline() -> PipelineConfig {
    PipelineConfig {
        scenario: Scenario::Mul,
        window: 12,
        ..Default::default()
    }
}

fn spec() -> NeuralTrainSpec {
    NeuralTrainSpec {
        epochs: 2,
        ..Default::default()
    }
}

fn tiny_rptcn() -> RptcnForecaster {
    RptcnForecaster::new(RptcnConfig {
        channels: 6,
        levels: 3,
        fc_dim: 8,
        spec: spec(),
        ..Default::default()
    })
}

fn tiny_lstm() -> LstmForecaster {
    LstmForecaster::new(LstmConfig {
        hidden: 8,
        layers: 2,
        spec: spec(),
        ..Default::default()
    })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `build` makes an unfitted model; fits are deterministic, so every copy
/// trained on the same bootstrap holds the same weights. `taped` runs the
/// taped backend of a model restored from the predictor's checkpoint state.
fn check(
    what: &str,
    build: impl Fn() -> Box<dyn Forecaster + Send>,
    taped: impl Fn(&ResourcePredictor, &Tensor) -> (Tensor, Tensor),
) {
    let frame = bootstrap();
    let (predictor, _) = ResourcePredictor::fit(build(), &frame, pipeline()).expect("fit");

    // Arena backend == taped backend, on the window a forecast reads.
    let (window, w, f) = predictor.inference_window().expect("window");
    let x = Tensor::from_vec(window, &[1, w, f]);
    let (free, on_tape) = taped(&predictor, &x);
    assert_eq!(bits(free.as_slice()), bits(on_tape.as_slice()), "{what}");
    let normalized = predictor.forecast_normalized().expect("forecast");
    assert_eq!(bits(&normalized), bits(on_tape.as_slice()), "{what}");

    // The same forecast out of a service shard (its own thread and arena).
    let mut service = PredictionService::new(ServiceConfig {
        shards: 2,
        ..Default::default()
    })
    .expect("spawn service");
    service
        .add_entity("entity", &frame, pipeline(), build())
        .expect("onboard");
    let served = service.forecast("entity").expect("served forecast");
    let direct = predictor.forecast().expect("direct forecast");
    assert_eq!(bits(&served), bits(&direct), "{what}: service vs predictor");
    assert_eq!(
        bits(&direct),
        bits(&predictor.denormalize_forecast(on_tape.as_slice())),
        "{what}: predictor vs taped backend"
    );

    // Steady state takes no fresh scratch buffers.
    for _ in 0..8 {
        predictor.forecast().expect("warm-up forecast");
    }
    let warm = thread_context_allocs();
    for _ in 0..64 {
        predictor.forecast().expect("steady-state forecast");
    }
    assert_eq!(thread_context_allocs(), warm, "{what}: arena still growing");
}

#[test]
fn rptcn_forecast_is_the_same_bits_on_every_path() {
    check(
        "RPTCN",
        || Box::new(tiny_rptcn()),
        |predictor, x| {
            let state = predictor.model_state().expect("fitted state");
            let twin = RptcnForecaster::from_state(&state).expect("restore");
            (twin.predict(x), twin.predict_taped(x))
        },
    );
}

#[test]
fn lstm_forecast_is_the_same_bits_on_every_path() {
    check(
        "LSTM",
        || Box::new(tiny_lstm()),
        |predictor, x| {
            let state = predictor.model_state().expect("fitted state");
            let twin = LstmForecaster::from_state(&state).expect("restore");
            (twin.predict(x), twin.predict_taped(x))
        },
    );
}

/// A shard answers a shared-weight group with one stacked batch.
#[test]
fn stacked_batch_answers_each_entity_with_its_own_forecast_bits() {
    const ENTITIES: usize = 16;
    let ids: Vec<String> = (0..ENTITIES).map(|i| format!("e_{i}")).collect();
    let fleet: Vec<(&str, TimeSeriesFrame)> = ids
        .iter()
        .zip(14..)
        .map(|(id, seed)| (id.as_str(), bootstrap_seeded(seed)))
        .collect();
    let mut service = PredictionService::new(ServiceConfig {
        shards: 1,
        ..Default::default()
    })
    .expect("spawn service");
    service
        .add_entities_shared(&fleet, pipeline(), Box::new(tiny_rptcn()))
        .expect("onboard");

    // Each entity's own batch-1 forecast, computed outside the service on a
    // predictor rebuilt from its snapshot: a shard answers repeated reads
    // of an unchanged state from the forecast it kept, so asking the
    // service twice would compare that memo with itself.
    let own: BTreeMap<String, Vec<u32>> = service
        .snapshot_entities()
        .expect("snapshot")
        .into_iter()
        .map(|(id, state)| {
            let twin = ResourcePredictor::from_state(&state).expect("twin");
            (id, bits(&twin.forecast().expect("own forecast")))
        })
        .collect();

    // Freshly installed, so every memo is cold: one stacked call.
    let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let batched = service.forecast_many(&refs);
    let stats = service.stats();
    assert_eq!(
        stats.total(|s| s.batched_forecasts),
        ENTITIES as u64,
        "the group must be answered by one stacked call"
    );
    assert_eq!(stats.total(|s| s.batch_calls), 1);
    assert_eq!(stats.total(|s| s.memo_hits), 0);
    for (id, forecast) in &batched {
        let stacked = forecast.as_ref().expect("stacked forecast");
        assert_eq!(bits(stacked), own[id], "{id}: stacked vs own");
        // The row the stack left behind answers the next read, unchanged.
        let kept = service.forecast(id).expect("kept forecast");
        assert_eq!(bits(&kept), own[id], "{id}: kept vs own");
    }
    let stats = service.stats();
    assert_eq!(stats.total(|s| s.batch_calls), 1);
    assert_eq!(stats.total(|s| s.memo_hits), ENTITIES as u64);
}

/// The arena convolves with weights the store prepared at install, not per
/// forecast — so the forecast after a weight install must already be the
/// new model's, on every route an entity's weights arrive by.
#[test]
fn a_replaced_model_answers_the_next_forecast() {
    let frame = bootstrap();
    let (mut predictor, _) =
        ResourcePredictor::fit(Box::new(tiny_rptcn()), &frame, pipeline()).expect("fit");
    let first = predictor.forecast_normalized().expect("first forecast");

    // A refit trained elsewhere: same history and shapes, other weights.
    let prepared =
        prepare(&predictor.history_snapshot().expect("history"), &pipeline()).expect("prepare");
    let mut refit = RptcnForecaster::new(RptcnConfig {
        spec: NeuralTrainSpec {
            seed: spec().seed + 1,
            ..spec()
        },
        ..*tiny_rptcn().config()
    });
    run_model(&mut refit, &prepared);
    let refit_state = refit.state().expect("fitted state");

    // A diverged refit is refused and the old model keeps answering.
    let mut poisoned = refit_state.clone();
    // (The head's: a NaN further down would be zeroed by the next ReLU.)
    let (_, weight) = poisoned.tensors.last_mut().expect("head tensors");
    *weight = Tensor::full(weight.shape(), f32::NAN);
    let diverged = RptcnForecaster::from_state(&poisoned).expect("shapes still match");
    predictor
        .try_install_refit(Box::new(diverged), prepared.fitted())
        .expect_err("non-finite forecast");
    assert_eq!(
        bits(&predictor.forecast_normalized().expect("forecast")),
        bits(&first),
        "a rejected replacement changed the forecast"
    );

    predictor
        .try_install_refit(Box::new(refit), prepared.fitted())
        .expect("install");
    let second = predictor.forecast_normalized().expect("second forecast");
    let (window, w, f) = predictor.inference_window().expect("window");
    let x = Tensor::from_vec(window, &[1, w, f]);
    let twin = RptcnForecaster::from_state(&refit_state).expect("restore");
    assert_eq!(
        bits(&second),
        bits(twin.predict_taped(&x).as_slice()),
        "the forecast after an install is not the replacement's"
    );
    assert_ne!(bits(&second), bits(&first), "the refit changed nothing");

    // The same bits after a checkpoint round trip, from a shared-weight
    // clone, and out of a service shard the state is handed to.
    let state = predictor.snapshot().expect("snapshot");
    let restored = ResourcePredictor::from_state(&state).expect("from_state");
    assert_eq!(
        bits(&restored.forecast_normalized().expect("forecast")),
        bits(&second),
        "from_state"
    );
    // (A clone scales by its own bootstrap, so it reads its own window.)
    let sibling = predictor.clone_for_entity(&frame).expect("clone");
    let (window, w, f) = sibling.inference_window().expect("window");
    assert_eq!(
        bits(&sibling.forecast_normalized().expect("forecast")),
        bits(
            twin.predict_taped(&Tensor::from_vec(window, &[1, w, f]))
                .as_slice()
        ),
        "clone_for_entity"
    );
    let mut service = PredictionService::new(ServiceConfig {
        shards: 1,
        ..Default::default()
    })
    .expect("spawn service");
    service.install_state("entity", &state).expect("install");
    assert_eq!(
        bits(&service.forecast("entity").expect("served forecast")),
        bits(&predictor.forecast().expect("direct forecast")),
        "service vs predictor"
    );

    // The clone reads its source's weights only until one of them is
    // refitted: the other keeps the answer it had.
    let kept = sibling.forecast_normalized().expect("forecast");
    let last = predictor.last_sample().expect("history");
    for _ in 0..8 {
        predictor.observe(&last).expect("observe");
    }
    predictor.refit().expect("refit");
    assert_ne!(
        predictor.model_state().expect("state").tensors,
        state.model.tensors,
        "the refit changed nothing"
    );
    assert_eq!(
        bits(&sibling.forecast_normalized().expect("forecast")),
        bits(&kept),
        "refitting the source moved its clone"
    );
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The kernels fix every bit of a fit and a forecast: the GEMM and the
/// convolutions multiply and add separately, in one order, on every host.
/// A tiny RPTCN fitted for three epochs from a fixed seed must write the
/// checkpoint and forecast the bits pinned here (as FNV-1a hashes) —
/// wherever this test runs, whatever vector unit it has. The one input
/// outside the kernels is the platform libm's f32 `exp`/`ln`/`sin`/`cos`
/// (trace, weight init, attention softmax); DESIGN §8 says which libms
/// are known to agree.
#[test]
fn a_fixed_seed_fit_writes_and_forecasts_the_pinned_bits() {
    let model = RptcnForecaster::new(RptcnConfig {
        spec: NeuralTrainSpec {
            epochs: 3,
            ..spec()
        },
        ..*tiny_rptcn().config()
    });
    let (predictor, _) =
        ResourcePredictor::fit(Box::new(model), &bootstrap(), pipeline()).expect("fit");
    let mut checkpoint = Vec::new();
    models::checkpoint::write_model_file(&mut checkpoint, &predictor.model_state().expect("state"))
        .expect("encode");
    let forecast: Vec<u8> = predictor
        .forecast_normalized()
        .expect("forecast")
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    assert_eq!(
        (fnv1a(&checkpoint), fnv1a(&forecast)),
        (0x3c5e_9cdb_d7a8_e093, 0xe8b0_3c8f_3209_5829),
        "the fit or the forecast moved off the pinned bits: a kernel changed its \
         arithmetic, or this host's libm rounds differently (DESIGN §8)"
    );
}
