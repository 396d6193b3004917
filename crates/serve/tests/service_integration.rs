//! End-to-end service tests: routing determinism, lossless ingestion under
//! backpressure, stats accounting, background refits and fleet
//! checkpoint/restore equivalence.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use models::{NaiveForecaster, NeuralTrainSpec, RptcnConfig, RptcnForecaster};
use rptcn::{PipelineConfig, Scenario};
use serve::{shard_for, Backpressure, PredictionService, ServeError, ServiceConfig};
use timeseries::TimeSeriesFrame;

static NEXT_FILE: AtomicU64 = AtomicU64::new(0);

fn scratch_path(tag: &str) -> PathBuf {
    let n = NEXT_FILE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rptcn-serve-test-{}-{tag}-{n}.bin",
        std::process::id()
    ))
}

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

fn sample(i: usize, phase: f32) -> Vec<f32> {
    vec![
        40.0 + 25.0 * ((i as f32 * 0.2 + phase).sin()),
        30.0 + 10.0 * ((i as f32 * 0.13 + phase).cos()),
    ]
}

fn naive_service(config: ServiceConfig, entities: usize) -> PredictionService {
    let mut service = PredictionService::new(config).expect("spawn service");
    for i in 0..entities {
        service
            .add_entity(
                &format!("c_{i}"),
                &bootstrap_frame(96, i as f32),
                uni_config(),
                Box::new(NaiveForecaster::new()),
            )
            .unwrap();
    }
    service
}

#[test]
fn shard_assignment_is_deterministic_and_stable() {
    let service = naive_service(
        ServiceConfig {
            shards: 5,
            refit_workers: 0,
            ..Default::default()
        },
        20,
    );
    for i in 0..20 {
        let id = format!("c_{i}");
        assert_eq!(service.shard_of(&id), shard_for(&id, 5));
        assert_eq!(service.shard_of(&id), service.shard_of(&id));
    }
    // Per-shard entity counts must sum to the fleet size.
    let stats = service.stats();
    assert_eq!(stats.total(|s| s.entities), 20);
    let nonempty = stats.shards.iter().filter(|s| s.entities > 0).count();
    assert!(nonempty > 1, "20 entities all landed on one of 5 shards");
}

/// Batched replies scatter back by request position, so an id asked for
/// twice is answered twice — on every batched read.
#[test]
fn a_duplicated_id_is_answered_at_both_positions() {
    let service = naive_service(
        ServiceConfig {
            shards: 2,
            refit_workers: 0,
            ..Default::default()
        },
        4,
    );
    let ids = ["c_0", "c_1", "c_0", "c_3", "c_0"];
    let forecasts = service.forecast_many(&ids);
    let intervals = service.forecast_with_interval_many(&ids);
    let reservations = service.reserve_many(&ids);
    for (at, &id) in ids.iter().enumerate() {
        assert_eq!(forecasts[at].0, id);
        assert_eq!(intervals[at].0, id);
        assert_eq!(reservations[at].0, id);
        let own = service.forecast(id).unwrap();
        assert_eq!(forecasts[at].1.as_ref(), Ok(&own), "{id} at {at}");
        let interval = intervals[at].1.as_ref();
        assert_eq!(interval.map(|i| &i.point), Ok(&own), "{id} at {at}");
        let reserved = reservations[at].1.as_ref();
        assert!(
            matches!(reserved, Ok(r) if r.reservation.is_finite()),
            "{id} at {at}: {reserved:?}"
        );
    }
    assert_ne!(forecasts[0].1, forecasts[1].1, "c_1 got c_0's row");
    assert_ne!(forecasts[0].1, forecasts[3].1, "c_3 got c_0's row");
}

#[test]
fn an_unknown_id_between_known_ones_fails_alone() {
    let service = naive_service(
        ServiceConfig {
            shards: 2,
            refit_workers: 0,
            ..Default::default()
        },
        2,
    );
    let got = service.forecast_many(&["c_0", "nope", "c_1"]);
    assert_eq!(
        got.iter().map(|(id, _)| id.as_str()).collect::<Vec<_>>(),
        ["c_0", "nope", "c_1"]
    );
    assert_eq!(got[0].1, service.forecast("c_0"));
    assert!(matches!(&got[1].1, Err(ServeError::UnknownEntity(id)) if id == "nope"));
    assert_eq!(got[2].1, service.forecast("c_1"));
    assert_ne!(got[0].1, got[2].1);
    let reserved = service.reserve_many(&["c_0", "nope", "c_1"]);
    assert!(reserved[0].1.is_ok() && reserved[2].1.is_ok());
    assert!(matches!(&reserved[1].1, Err(ServeError::UnknownEntity(id)) if id == "nope"));
}

#[test]
fn no_sample_loss_under_block_backpressure_with_tiny_queues() {
    // Queue capacity 2 forces constant backpressure; Block must deliver
    // every sample, from several producer threads at once.
    let service = naive_service(
        ServiceConfig {
            shards: 2,
            queue_capacity: 2,
            backpressure: Backpressure::Block,
            refit_workers: 0,
            ..Default::default()
        },
        8,
    );
    let per_thread = 200usize;
    let threads = 4usize;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let service = &service;
            scope.spawn(move || {
                for i in 0..per_thread {
                    let id = format!("c_{}", (t * per_thread + i) % 8);
                    service.ingest(&id, sample(i, t as f32)).unwrap();
                }
            });
        }
    });
    service.flush().unwrap();
    let stats = service.stats();
    assert_eq!(
        stats.total(|s| s.ingested),
        (threads * per_thread) as u64,
        "samples were lost under backpressure"
    );
    assert_eq!(stats.total(|s| s.rejected), 0);
    for shard in &stats.shards {
        assert_eq!(shard.queue_depth, 0, "shard {} not drained", shard.shard);
    }
}

#[test]
fn reject_backpressure_counts_every_dropped_sample() {
    let service = naive_service(
        ServiceConfig {
            shards: 1,
            queue_capacity: 1,
            backpressure: Backpressure::Reject,
            refit_workers: 0,
            ..Default::default()
        },
        2,
    );
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for i in 0..500 {
        match service.ingest("c_0", sample(i, 0.0)) {
            Ok(()) => accepted += 1,
            Err(ServeError::QueueFull { shard, entity }) => {
                assert_eq!(shard, 0);
                assert_eq!(entity, "c_0");
                rejected += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    service.flush().unwrap();
    let stats = service.stats();
    assert_eq!(stats.total(|s| s.ingested), accepted);
    assert_eq!(stats.total(|s| s.rejected), rejected);
    assert_eq!(accepted + rejected, 500);
    assert!(accepted > 0, "nothing was ever accepted");
}

#[test]
fn background_refits_complete_without_blocking_ingest() {
    let service = naive_service(
        ServiceConfig {
            shards: 2,
            refit_every: 10,
            refit_workers: 2,
            ..Default::default()
        },
        4,
    );
    for i in 0..40 {
        for e in 0..4 {
            service
                .ingest(&format!("c_{e}"), sample(i, e as f32))
                .unwrap();
        }
        // Forecasts keep flowing while refits are pending in the pool.
        let fc = service.forecast("c_0").unwrap();
        assert_eq!(fc.len(), 1);
    }
    service.flush().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = service.stats();
        if stats.total(|s| s.refits_completed) >= 4 {
            assert!(stats.shards.iter().map(|s| s.refits_started).sum::<u64>() >= 4);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "refits never completed: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
        service.flush().unwrap();
    }
    // The swapped-in models must keep forecasting.
    for e in 0..4 {
        assert_eq!(service.forecast(&format!("c_{e}")).unwrap().len(), 1);
    }
}

#[test]
fn fleet_checkpoint_restore_resumes_identical_forecasts() {
    let mut service = PredictionService::new(ServiceConfig {
        shards: 2,
        refit_workers: 0,
        ..Default::default()
    })
    .expect("spawn service");
    // A mixed fleet: two real neural models plus naive fillers.
    for i in 0..2 {
        service
            .add_entity(
                &format!("rptcn_{i}"),
                &bootstrap_frame(120, i as f32),
                uni_config(),
                Box::new(RptcnForecaster::new(RptcnConfig {
                    channels: 6,
                    levels: 2,
                    fc_dim: 12,
                    spec: NeuralTrainSpec {
                        epochs: 2,
                        ..Default::default()
                    },
                    ..Default::default()
                })),
            )
            .unwrap();
    }
    for i in 0..6 {
        service
            .add_entity(
                &format!("naive_{i}"),
                &bootstrap_frame(96, i as f32),
                uni_config(),
                Box::new(NaiveForecaster::new()),
            )
            .unwrap();
    }
    for i in 0..20 {
        for id in service.entity_ids() {
            service.ingest(&id, sample(i, 0.3)).unwrap();
        }
    }
    service.flush().unwrap();

    let ids = service.entity_ids();
    let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let before: Vec<Vec<f32>> = service
        .forecast_many(&refs)
        .into_iter()
        .map(|(_, r)| r.unwrap())
        .collect();

    let path = scratch_path("fleet");
    let written = service.checkpoint(&path).unwrap();
    assert_eq!(written, 8);
    drop(service);

    // Restore under a different shard layout: routing must not affect
    // forecasts, only placement.
    let restored = PredictionService::restore(
        &path,
        ServiceConfig {
            shards: 3,
            refit_workers: 0,
            ..Default::default()
        },
    )
    .unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(restored.entity_ids(), ids);

    let after: Vec<Vec<f32>> = restored
        .forecast_many(&refs)
        .into_iter()
        .map(|(_, r)| r.unwrap())
        .collect();
    for (id, (b, a)) in ids.iter().zip(before.iter().zip(&after)) {
        assert_eq!(b.len(), a.len());
        for (x, y) in b.iter().zip(a) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "forecast for {id} changed across checkpoint/restore: {x} vs {y}"
            );
        }
    }
}

#[test]
fn restore_rejects_garbage_files() {
    let path = scratch_path("garbage");
    std::fs::write(&path, b"definitely not a checkpoint").unwrap();
    let err = match PredictionService::restore(&path, ServiceConfig::default()) {
        Ok(_) => panic!("garbage file restored successfully"),
        Err(err) => err,
    };
    std::fs::remove_file(&path).ok();
    assert!(matches!(err, ServeError::Checkpoint(_)), "{err}");
}
