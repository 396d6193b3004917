//! Fleet serving demo: a sharded [`serve::PredictionService`] ingests live
//! monitoring samples for 64 containers, serves forecasts while background
//! refits retrain models off the hot path, then checkpoints the entire
//! fleet to disk and proves a restored service resumes bit-identical
//! forecasts.
//!
//! ```sh
//! cargo run --release --example serve_fleet
//! ```

use cloudtrace::{ContainerConfig, WorkloadClass};
use models::{NaiveForecaster, NeuralTrainSpec, RptcnConfig, RptcnForecaster};
use rptcn::{PipelineConfig, Scenario};
use serve::{PredictionService, ServiceConfig, ServiceStats};
use std::time::{Duration, Instant};
use timeseries::TimeSeriesFrame;

const ENTITIES: usize = 64;
const BOOTSTRAP: usize = 200;
const LIVE: usize = 60;

fn trace_for(i: usize) -> TimeSeriesFrame {
    let class = match i % 3 {
        0 => WorkloadClass::OnlineService,
        1 => WorkloadClass::BatchJob,
        _ => WorkloadClass::HighDynamic,
    };
    cloudtrace::container::generate_container(
        &ContainerConfig::new(class, BOOTSTRAP + LIVE, 1000 + i as u64).with_diurnal_period(120),
    )
}

fn print_stats(stats: &ServiceStats) {
    println!(
        "  fleet: {} entities, {} ingested, {} forecasts, {} refits done, rolling MAE {:.4}",
        stats.total(|s| s.entities),
        stats.total(|s| s.ingested),
        stats.total(|s| s.forecasts),
        stats.total(|s| s.refits_completed),
        stats.rolling_mae()
    );
    for s in &stats.shards {
        println!(
            "  shard {}: {:>2} entities  {:>5} ingested  depth {}  p50 {:>7.1}us  p99 {:>7.1}us",
            s.shard,
            s.entities,
            s.ingested,
            s.queue_depth,
            s.forecast_p50_us.unwrap_or(0.0),
            s.forecast_p99_us.unwrap_or(0.0),
        );
    }
}

fn main() {
    let cfg = PipelineConfig {
        scenario: Scenario::Uni,
        window: 24,
        horizon: 1,
        ..Default::default()
    };

    // 4 shards, background refits every 25 samples per entity.
    let mut service = PredictionService::new(ServiceConfig {
        shards: 4,
        queue_capacity: 256,
        refit_workers: 2,
        refit_every: 25,
        ..Default::default()
    })
    .expect("spawn service");

    println!("onboarding {ENTITIES} containers (4 RPTCN, rest persistence baseline)...");
    let start = Instant::now();
    let traces: Vec<TimeSeriesFrame> = (0..ENTITIES).map(trace_for).collect();
    for (i, trace) in traces.iter().enumerate() {
        let bootstrap = trace.slice_rows(0, BOOTSTRAP).expect("bootstrap slice");
        let model: Box<dyn models::Forecaster + Send> = if i < 4 {
            Box::new(RptcnForecaster::new(RptcnConfig {
                channels: 8,
                levels: 2,
                fc_dim: 16,
                spec: NeuralTrainSpec {
                    epochs: 4,
                    ..Default::default()
                },
                ..Default::default()
            }))
        } else {
            Box::new(NaiveForecaster::new())
        };
        service
            .add_entity(&format!("container_{i:03}"), &bootstrap, cfg.clone(), model)
            .expect("onboard");
    }
    println!("onboarded in {:.1}s\n", start.elapsed().as_secs_f32());

    // Stream the live region: every entity gets one sample per interval,
    // and forecasts are served continuously while the refit pool retrains
    // models in the background (cadence 25 → two refit rounds per entity).
    println!("streaming {LIVE} live intervals across the fleet...");
    let ids: Vec<String> = service.entity_ids();
    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    for t in BOOTSTRAP..BOOTSTRAP + LIVE {
        for (i, trace) in traces.iter().enumerate() {
            let sample: Vec<f32> = (0..trace.num_columns())
                .map(|j| trace.column_at(j)[t])
                .collect();
            service
                .ingest(&format!("container_{i:03}"), sample)
                .expect("ingest");
        }
        if t % 20 == 0 {
            // Batched fan-out forecast mid-stream, concurrent with refits.
            let results = service.forecast_many(&id_refs);
            let ok = results.iter().filter(|(_, r)| r.is_ok()).count();
            println!(
                "  t={t}: forecast fan-out over {} entities, {ok} ok",
                results.len()
            );
        }
    }
    service.flush().expect("flush");

    // Let in-flight background refits finish so the checkpoint captures
    // the freshest models.
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.stats().total(|s| s.refits_completed) < ENTITIES as u64
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(20));
        service.flush().expect("flush");
    }

    println!("\nafter streaming:");
    print_stats(&service.stats());

    // The same numbers straight from the obs registry: the text export is
    // what a scrape endpoint would serve. Shard-0 summary lines only; the
    // full export also carries every histogram bucket.
    println!("\nobs metrics snapshot (shard 0 excerpt):");
    let text = obs::to_text(&service.metrics());
    for line in text.lines().filter(|l| l.contains("shard0.")) {
        println!("  {line}");
    }
    let journal = service.journal();
    let events = journal.events();
    println!("\nevent journal ({} events, last 3):", events.len());
    for e in events.iter().rev().take(3).rev() {
        println!(
            "  at={}ms kind={} shard={} entity={} {}",
            e.at_nanos / 1_000_000,
            e.kind.name(),
            e.shard.map_or("-".to_string(), |s| s.to_string()),
            e.entity.as_deref().unwrap_or("-"),
            e.detail
        );
    }

    // Checkpoint the whole fleet, tear the service down, restore under a
    // different shard layout, and verify forecasts are bit-identical.
    let before: Vec<(String, Vec<f32>)> = service
        .forecast_many(&id_refs)
        .into_iter()
        .map(|(id, r)| (id, r.expect("forecast")))
        .collect();

    let path = std::env::temp_dir().join(format!("rptcn-fleet-{}.ckpt", std::process::id()));
    let written = service.checkpoint(&path).expect("checkpoint");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "\ncheckpointed {written} entities to {} ({bytes} bytes)",
        path.display()
    );
    drop(service);

    let restored = PredictionService::restore(
        &path,
        ServiceConfig {
            shards: 6,
            refit_workers: 0,
            ..Default::default()
        },
    )
    .expect("restore");
    std::fs::remove_file(&path).ok();
    println!("restored into a fresh 6-shard service");

    let after = restored.forecast_many(&id_refs);
    let mut mismatches = 0usize;
    for ((id, b), (id2, a)) in before.iter().zip(&after) {
        assert_eq!(id, id2);
        let a = a.as_ref().expect("restored forecast");
        if b.len() != a.len() || b.iter().zip(a).any(|(x, y)| x.to_bits() != y.to_bits()) {
            mismatches += 1;
        }
    }
    assert_eq!(
        mismatches, 0,
        "{mismatches} entities diverged after restore"
    );
    println!(
        "verified: all {} restored forecasts are bit-identical to the pre-checkpoint service",
        before.len()
    );
}
