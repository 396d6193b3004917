//! Interval parity: `forecast_with_interval` must answer with a point
//! block bitwise-identical to `forecast` — per entity and batched through
//! a shared group — because both ride the SAME forecast path; the interval
//! only attaches two scalar conformal offsets on top. Both are also read
//! from the same memo, so the batched case checks them against twins
//! outside the service as well as against each other.

mod common;

use common::{bits, twin_forecast_bits};
use models::{NaiveForecaster, NeuralTrainSpec, RptcnConfig, RptcnForecaster};
use rptcn::{Calibration, PipelineConfig, Scenario};
use serve::{IntervalSource, PredictionService, ServiceConfig};
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

/// Per-entity path with a real fitted RPTCN (tape-free serving engine):
/// the interval's point block is bitwise-identical to `forecast`, before
/// and after the conformal window calibrates.
#[test]
fn interval_point_block_matches_forecast_bitwise() {
    let mut service = PredictionService::new(ServiceConfig {
        shards: 2,
        refit_workers: 0,
        score_on_ingest: true,
        ..Default::default()
    })
    .expect("spawn service");
    service
        .add_entity(
            "vm-0",
            &bootstrap_frame(96, 0.0),
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

    // Cold: fewer than MIN_CALIBRATION_SAMPLES scored ingests.
    let point = service.forecast("vm-0").unwrap();
    let interval = service.forecast_with_interval("vm-0").unwrap();
    assert_eq!(interval.point.len(), point.len());
    for (a, b) in interval.point.iter().zip(&point) {
        assert_eq!(a.to_bits(), b.to_bits(), "cold interval point diverged");
    }
    assert_eq!(interval.calibration, Calibration::Insufficient);
    assert_eq!(interval.source, IntervalSource::Live);
    assert!(interval.offset_lo <= interval.offset_hi);
    assert!(interval.lower(0) <= interval.upper(0));

    // Warm the conformal window past the calibration threshold.
    for i in 0..16 {
        service
            .ingest("vm-0", vec![45.0 + (i as f32 * 0.7).sin() * 20.0, 31.0])
            .unwrap();
    }
    service.flush().unwrap();

    let point = service.forecast("vm-0").unwrap();
    let interval = service.forecast_with_interval("vm-0").unwrap();
    for (a, b) in interval.point.iter().zip(&point) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "calibrated interval point diverged"
        );
    }
    assert_eq!(interval.calibration, Calibration::Calibrated);
    assert_eq!(interval.source, IntervalSource::Live);
    assert!(interval.offset_lo.is_finite() && interval.offset_hi.is_finite());
    assert!(interval.offset_lo <= interval.offset_hi);

    let stats = service.stats();
    assert_eq!(stats.total(|s| s.interval_forecasts), 2, "{stats:?}");
    assert_eq!(stats.total(|s| s.interval_fallbacks), 0, "{stats:?}");
}

fn shared_naive_service(score_on_ingest: bool) -> (PredictionService, Vec<String>) {
    let mut service = PredictionService::new(ServiceConfig {
        shards: 1,
        refit_workers: 0,
        score_on_ingest,
        ..Default::default()
    })
    .expect("spawn service");
    let frames: Vec<(String, TimeSeriesFrame)> = (0..5)
        .map(|i| (format!("s_{i}"), bootstrap_frame(96, i as f32)))
        .collect();
    let refs: Vec<(&str, TimeSeriesFrame)> = frames
        .iter()
        .map(|(id, f)| (id.as_str(), f.clone()))
        .collect();
    service
        .add_entities_shared(&refs, uni_config(), Box::new(NaiveForecaster::new()))
        .unwrap();
    let ids: Vec<String> = frames.into_iter().map(|(id, _)| id).collect();
    for (i, id) in ids.iter().enumerate() {
        for j in 0..12 {
            service
                .ingest(id, vec![50.0 + i as f32 + j as f32 * 0.5, 31.0])
                .unwrap();
        }
    }
    service.flush().unwrap();
    (service, ids)
}

/// Batched path through a shared group: `forecast_with_interval_many`
/// point blocks are bitwise-identical to `forecast_many` and to each
/// entity's own forecast on a twin, member by member — from the memos the
/// rolling forecasts left when score-on-ingest is on, and through ONE
/// stacked engine call on cold memos when it is off.
#[test]
fn batched_interval_points_match_forecast_many_bitwise() {
    // Score-on-ingest calibrates the intervals and leaves every memo warm.
    let (service, ids) = shared_naive_service(true);
    let twins = twin_forecast_bits(&service);
    let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let points = service.forecast_many(&refs);
    let intervals = service.forecast_with_interval_many(&refs);
    assert_eq!(points.len(), intervals.len());
    for ((pid, pres), (iid, ires)) in points.iter().zip(&intervals) {
        assert_eq!(pid, iid, "caller-order mismatch");
        let interval = ires.as_ref().unwrap();
        assert_eq!(bits(pres.as_ref().unwrap()), twins[pid], "point for {pid}");
        assert_eq!(
            bits(&interval.point),
            twins[pid],
            "interval point for {pid}"
        );
        assert_eq!(interval.calibration, Calibration::Calibrated);
        assert_eq!(interval.source, IntervalSource::Live);
    }
    let stats = service.stats();
    assert_eq!(stats.total(|s| s.interval_forecasts), 5, "{stats:?}");
    // Neither wave reached the engine: the state had not changed since the
    // last sample's rolling forecast.
    assert_eq!(stats.total(|s| s.batch_calls), 0, "{stats:?}");
    assert_eq!(stats.total(|s| s.forecasts), 10, "{stats:?}");
    assert_eq!(stats.total(|s| s.memo_hits), 10, "{stats:?}");

    // Without it the memos are cold: the interval wave rides the stacked
    // call, and the plain wave after it reads what that call left.
    let (service, ids) = shared_naive_service(false);
    let twins = twin_forecast_bits(&service);
    let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    for (id, res) in service.forecast_with_interval_many(&refs) {
        let interval = res.unwrap();
        assert_eq!(bits(&interval.point), twins[&id], "stacked point for {id}");
        assert_eq!(interval.calibration, Calibration::Insufficient);
        assert_eq!(interval.source, IntervalSource::Live);
    }
    let stats = service.stats();
    assert_eq!(stats.total(|s| s.batch_calls), 1, "{stats:?}");
    assert_eq!(stats.total(|s| s.batched_forecasts), 5, "{stats:?}");
    assert_eq!(stats.total(|s| s.memo_hits), 0, "{stats:?}");
    for (id, res) in service.forecast_many(&refs) {
        assert_eq!(bits(&res.unwrap()), twins[&id], "memo for {id}");
    }
    let stats = service.stats();
    assert_eq!(stats.total(|s| s.batch_calls), 1, "{stats:?}");
    assert_eq!(stats.total(|s| s.forecasts), 10, "{stats:?}");
    assert_eq!(stats.total(|s| s.memo_hits), 5, "{stats:?}");
}
