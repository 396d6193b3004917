//! Serving-path benchmarks: ingest throughput (samples/sec) of the sharded
//! prediction service as the shard count grows, plus the batched forecast
//! fan-out path. Each ingest triggers the shard-side rolling forecast
//! (`score_on_ingest`), so the measured work is the real serving hot path
//! and parallelises across shards. Shard-count scaling only shows on
//! multi-core hosts — on a single CPU every configuration is serialised
//! and the curve is expected to be flat.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use cloudtrace::{ContainerConfig, WorkloadClass};
use models::NaiveForecaster;
use rptcn::{PipelineConfig, Scenario};
use serve::{FaultPlan, PredictionService, ServiceConfig};
use timeseries::TimeSeriesFrame;

const ENTITIES: usize = 64;
const BOOTSTRAP: usize = 200;
/// Ingest rounds (one sample per entity) per timed iteration.
const ROUNDS: usize = 8;
/// Concurrent producer threads in the ingest benchmark.
const PRODUCERS: usize = 4;

fn bootstrap_frames() -> Vec<TimeSeriesFrame> {
    (0..ENTITIES)
        .map(|i| {
            cloudtrace::container::generate_container(
                &ContainerConfig::new(WorkloadClass::OnlineService, BOOTSTRAP, 7 + i as u64)
                    .with_diurnal_period(120),
            )
        })
        .collect()
}

fn fitted_service_with(
    shards: usize,
    frames: &[TimeSeriesFrame],
    faults: Option<FaultPlan>,
) -> (PredictionService, Vec<String>) {
    // Multivariate scenario: the per-ingest rolling forecast re-applies
    // screening + scaling over several indicator columns, so the shard-side
    // cost dominates the producer's send cost and scaling is visible.
    let cfg = PipelineConfig {
        scenario: Scenario::Mul,
        window: 24,
        horizon: 1,
        ..Default::default()
    };
    let mut service = PredictionService::new(ServiceConfig {
        shards,
        queue_capacity: 512,
        refit_workers: 0,
        refit_every: 0,
        faults,
        ..Default::default()
    })
    .expect("spawn service");
    let mut ids = Vec::with_capacity(ENTITIES);
    for (i, frame) in frames.iter().enumerate() {
        let id = format!("container_{i:03}");
        service
            .add_entity(&id, frame, cfg.clone(), Box::new(NaiveForecaster::new()))
            .expect("onboard");
        ids.push(id);
    }
    (service, ids)
}

fn fitted_service(shards: usize, frames: &[TimeSeriesFrame]) -> (PredictionService, Vec<String>) {
    fitted_service_with(shards, frames, None)
}

fn samples_for(frames: &[TimeSeriesFrame]) -> Vec<Vec<f32>> {
    frames
        .iter()
        .map(|f| {
            (0..f.num_columns())
                .map(|j| f.column_at(j)[BOOTSTRAP - 1])
                .collect()
        })
        .collect()
}

fn bench_ingest_scaling(c: &mut Criterion) {
    let frames = bootstrap_frames();
    let samples = samples_for(&frames);
    let mut group = c.benchmark_group("serving_ingest");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        let (service, ids) = fitted_service(shards, &frames);
        // Four producer threads feed disjoint entity ranges, so the shard
        // pool — not a single caller — is the measured resource.
        let chunk = ENTITIES / PRODUCERS;
        group.throughput(Throughput::Elements((ENTITIES * ROUNDS) as u64));
        group.bench_function(
            BenchmarkId::new("samples_per_sec", format!("{shards}_shards")),
            |b| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for p in 0..PRODUCERS {
                            let service = &service;
                            let ids = &ids[p * chunk..(p + 1) * chunk];
                            let samples = &samples[p * chunk..(p + 1) * chunk];
                            scope.spawn(move || {
                                for _ in 0..ROUNDS {
                                    for (id, sample) in ids.iter().zip(samples) {
                                        service
                                            .ingest(black_box(id), black_box(sample.clone()))
                                            .expect("ingest");
                                    }
                                }
                            });
                        }
                    });
                    service.flush().expect("flush");
                });
            },
        );
    }
    group.finish();
}

fn bench_forecast_fanout(c: &mut Criterion) {
    let frames = bootstrap_frames();
    let mut group = c.benchmark_group("serving_forecast");
    group.sample_size(10);
    for shards in [1usize, 4] {
        let (service, ids) = fitted_service(shards, &frames);
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        group.throughput(Throughput::Elements(ENTITIES as u64));
        group.bench_function(
            BenchmarkId::new("batch_64", format!("{shards}_shards")),
            |b| {
                b.iter(|| {
                    let results = service.forecast_many(black_box(&refs));
                    assert_eq!(results.len(), ENTITIES);
                    results
                });
            },
        );
    }
    group.finish();
}

/// Degraded-mode overhead: the same ingest workload with 10% of the fleet
/// streaming NaN-poisoned samples (repaired at the shard boundary) versus a
/// clean fleet. The delta is the price of shard-boundary validation plus
/// repair and fallback bookkeeping on the poisoned entities.
fn bench_degraded_mode(c: &mut Criterion) {
    let frames = bootstrap_frames();
    let samples = samples_for(&frames);
    let mut group = c.benchmark_group("serving_degraded");
    group.sample_size(10);
    let shards = 4usize;
    let chunk = ENTITIES / PRODUCERS;
    for poisoned_pct in [0usize, 10] {
        let faults = 100usize.checked_div(poisoned_pct).map(|stride| {
            let mut plan = FaultPlan::seeded(17);
            // Poison every sample of every 10th entity — 10% of the fleet.
            for i in (0..ENTITIES).step_by(stride) {
                plan = plan.poison_entity(&format!("container_{i:03}"), 1.0);
            }
            plan
        });
        let (service, ids) = fitted_service_with(shards, &frames, faults);
        group.throughput(Throughput::Elements((ENTITIES * ROUNDS) as u64));
        group.bench_function(
            BenchmarkId::new("samples_per_sec", format!("{poisoned_pct}pct_poisoned")),
            |b| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for p in 0..PRODUCERS {
                            let service = &service;
                            let ids = &ids[p * chunk..(p + 1) * chunk];
                            let samples = &samples[p * chunk..(p + 1) * chunk];
                            scope.spawn(move || {
                                for _ in 0..ROUNDS {
                                    for (id, sample) in ids.iter().zip(samples) {
                                        service
                                            .ingest(black_box(id), black_box(sample.clone()))
                                            .expect("ingest");
                                    }
                                }
                            });
                        }
                    });
                    service.flush().expect("flush");
                });
            },
        );
        if poisoned_pct > 0 {
            let stats = service.stats();
            assert!(
                stats.total(|s| s.repaired_samples) > 0,
                "fault plan never fired; the degraded benchmark measured nothing"
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ingest_scaling,
    bench_forecast_fanout,
    bench_degraded_mode
);
criterion_main!(benches);
