//! Batched shard forecasts: entities onboarded with
//! `add_entities_shared` share one model's weights and, while their memos
//! are cold, are answered by a single stacked engine call per shard —
//! bit-identical to each entity's own `forecast()`, computed outside the
//! service on a twin — while degraded or faulted members fall back to
//! individual serving without disturbing their groupmates.

mod common;

use common::{bits, twin_forecast_bits};
use models::NaiveForecaster;
use rptcn::{PipelineConfig, Scenario};
use serve::{EntityHealth, FaultPlan, PredictionService, ServeError, ServiceConfig};
use timeseries::TimeSeriesFrame;

fn bootstrap_frame(n: usize, phase: f32) -> TimeSeriesFrame {
    let cpu: Vec<f32> = (0..n)
        .map(|i| 40.0 + 25.0 * ((i as f32 * 0.2 + phase).sin()))
        .collect();
    let mem: Vec<f32> = (0..n)
        .map(|i| 30.0 + 10.0 * ((i as f32 * 0.13 + phase).cos()))
        .collect();
    TimeSeriesFrame::from_columns(&[("cpu_util_percent", cpu), ("mem_util_percent", mem)]).unwrap()
}

fn uni_config() -> PipelineConfig {
    PipelineConfig {
        scenario: Scenario::Uni,
        window: 12,
        horizon: 1,
        ..Default::default()
    }
}

fn shared_service(config: ServiceConfig, entities: usize) -> (PredictionService, Vec<String>) {
    let mut service = PredictionService::new(config).expect("spawn service");
    let frames: Vec<(String, TimeSeriesFrame)> = (0..entities)
        .map(|i| (format!("s_{i}"), bootstrap_frame(96, i as f32)))
        .collect();
    let refs: Vec<(&str, TimeSeriesFrame)> = frames
        .iter()
        .map(|(id, f)| (id.as_str(), f.clone()))
        .collect();
    service
        .add_entities_shared(&refs, uni_config(), Box::new(NaiveForecaster::new()))
        .unwrap();
    let ids = frames.into_iter().map(|(id, _)| id).collect();
    (service, ids)
}

#[test]
fn batched_forecasts_match_per_entity_path_bitwise() {
    let (service, ids) = shared_service(
        ServiceConfig {
            shards: 1,
            refit_workers: 0,
            score_on_ingest: false,
            ..Default::default()
        },
        5,
    );
    for (i, id) in ids.iter().enumerate() {
        service.ingest(id, vec![50.0 + i as f32, 31.0]).unwrap();
    }
    service.flush().unwrap();

    // No rolling forecast ran, so every memo is cold: the request is one
    // stacked call. The reference never enters the service.
    let twins = twin_forecast_bits(&service);
    let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    for (id, res) in service.forecast_many(&refs) {
        let fc = res.unwrap();
        assert_eq!(fc.len(), 1);
        assert_eq!(bits(&fc), twins[&id], "stacked row for {id} vs its twin");
    }
    let stats = service.stats();
    assert_eq!(stats.total(|s| s.batch_calls), 1, "{stats:?}");
    assert_eq!(stats.total(|s| s.batched_forecasts), 5, "{stats:?}");
    assert_eq!(stats.total(|s| s.forecasts), 5, "{stats:?}");
    assert_eq!(stats.total(|s| s.memo_hits), 0, "{stats:?}");

    // The rows filled the memos: batch and single reads of the unchanged
    // state are lookups with the same bits, and no engine call.
    for (id, res) in service.forecast_many(&refs) {
        assert_eq!(bits(&res.unwrap()), twins[&id], "memo for {id} vs its twin");
    }
    for id in &ids {
        assert_eq!(bits(&service.forecast(id).unwrap()), twins[id], "{id}");
    }
    let stats = service.stats();
    assert_eq!(stats.total(|s| s.batch_calls), 1, "{stats:?}");
    assert_eq!(stats.total(|s| s.batched_forecasts), 5, "{stats:?}");
    assert_eq!(stats.total(|s| s.forecasts), 15, "{stats:?}");
    assert_eq!(stats.total(|s| s.memo_hits), 10, "{stats:?}");
    assert_eq!(stats.total(|s| s.fallback_forecasts), 0);
}

#[test]
fn shared_onboarding_rejects_duplicates_and_empty_fleets() {
    let mut service = PredictionService::new(ServiceConfig {
        shards: 1,
        refit_workers: 0,
        ..Default::default()
    })
    .expect("spawn service");
    let err = service
        .add_entities_shared(&[], uni_config(), Box::new(NaiveForecaster::new()))
        .unwrap_err();
    assert!(matches!(err, ServeError::Frame(_)), "{err}");

    let frame = bootstrap_frame(96, 0.0);
    let err = service
        .add_entities_shared(
            &[("dup", frame.clone()), ("dup", frame)],
            uni_config(),
            Box::new(NaiveForecaster::new()),
        )
        .unwrap_err();
    assert!(matches!(err, ServeError::DuplicateEntity(_)), "{err}");
    assert_eq!(service.entity_count(), 0, "failed onboarding left entities");
}

#[test]
fn degraded_member_bypasses_the_batch_and_groupmates_keep_batching() {
    let (service, ids) = shared_service(
        ServiceConfig {
            shards: 1,
            refit_workers: 0,
            score_on_ingest: false,
            faults: Some(FaultPlan::seeded(7).panic_on_forecast("s_1", 1)),
            ..Default::default()
        },
        4,
    );
    let refs: Vec<&str> = ids.iter().map(String::as_str).collect();

    // First request: the injected panic kills the shard loop mid-batch; the
    // supervisor restarts it and the caller sees ShardDown for this request.
    let crashed = service.forecast_many(&refs);
    assert!(
        crashed
            .iter()
            .any(|(_, r)| matches!(r, Err(ServeError::ShardDown(_)))),
        "expected a ShardDown from the injected panic: {crashed:?}"
    );
    service.flush().unwrap();
    let health = service.entity_health().unwrap();
    assert_eq!(health["s_1"].health, EntityHealth::Degraded);
    assert_eq!(health["s_1"].crashes, 1);

    // Retry: the degraded member is served by its fallback on the
    // per-entity path while the three healthy groupmates share one call.
    let retried = service.forecast_many(&refs);
    for (id, res) in &retried {
        let fc = res.as_ref().unwrap_or_else(|e| panic!("{id} failed: {e}"));
        assert!(fc.iter().all(|v| v.is_finite()), "{id} returned {fc:?}");
    }
    let stats = service.stats();
    assert_eq!(stats.total(|s| s.restarts), 1);
    assert_eq!(stats.total(|s| s.degraded), 1);
    assert_eq!(stats.total(|s| s.fallback_forecasts), 1, "{stats:?}");
    assert_eq!(stats.total(|s| s.batch_calls), 1, "{stats:?}");
    assert_eq!(stats.total(|s| s.batched_forecasts), 3, "{stats:?}");
}

/// A shared RPTCN group answered by one stacked engine call inside
/// `forecast_many`: the batched answers must stay bitwise identical to each
/// entity's own batch-1 `forecast()` on a twin outside the service — with a
/// real fitted RPTCN, not a toy forecaster, so the full conv → attention →
/// FC → head stack rides the GEMM microkernel.
#[test]
fn rptcn_stacked_group_matches_twins_bitwise() {
    use models::{NeuralTrainSpec, RptcnConfig, RptcnForecaster};

    let entities = 10;
    let mut service = PredictionService::new(ServiceConfig {
        shards: 1,
        refit_workers: 0,
        score_on_ingest: false,
        ..Default::default()
    })
    .expect("spawn service");
    let frames: Vec<(String, TimeSeriesFrame)> = (0..entities)
        .map(|i| (format!("x_{i}"), bootstrap_frame(96, i as f32)))
        .collect();
    let refs: Vec<(&str, TimeSeriesFrame)> = frames
        .iter()
        .map(|(id, f)| (id.as_str(), f.clone()))
        .collect();
    service
        .add_entities_shared(
            &refs,
            uni_config(),
            Box::new(RptcnForecaster::new(RptcnConfig {
                channels: 4,
                levels: 1,
                fc_dim: 8,
                spec: NeuralTrainSpec {
                    epochs: 1,
                    ..Default::default()
                },
                ..Default::default()
            })),
        )
        .unwrap();
    let ids: Vec<String> = frames.into_iter().map(|(id, _)| id).collect();
    for (i, id) in ids.iter().enumerate() {
        service.ingest(id, vec![48.0 + i as f32, 29.0]).unwrap();
    }
    service.flush().unwrap();

    let twins = twin_forecast_bits(&service);
    let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let batched = service.forecast_many(&refs);
    assert_eq!(batched.len(), entities);
    for (id, res) in &batched {
        let fc = res.as_ref().unwrap_or_else(|e| panic!("{id}: {e:?}"));
        assert_eq!(
            bits(fc),
            twins[id],
            "stacked group diverged from {id}'s own forecast"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.total(|s| s.batch_calls), 1, "{stats:?}");
    assert_eq!(
        stats.total(|s| s.batched_forecasts),
        entities as u64,
        "{stats:?}"
    );
    assert_eq!(stats.total(|s| s.forecasts), entities as u64, "{stats:?}");
    assert_eq!(stats.total(|s| s.memo_hits), 0, "{stats:?}");
}
