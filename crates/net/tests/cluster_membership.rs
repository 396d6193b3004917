//! Membership-change tests: draining a node and joining a fresh node
//! must move entities with their full predictor state (warm handoff),
//! so forecasts resume bit-identically — replay is deliberately
//! disabled here to prove the state migration alone carries history.

use std::collections::HashMap;
use std::time::Duration;

use net::{FleetRouter, Message, NodeClient, NodeConfig, NodeServer, NodeStatus, RouterConfig};
use obs::EventKind;
use serve::{PredictionService, ServiceConfig};

fn start_node() -> NodeServer {
    let service = PredictionService::new(ServiceConfig {
        shards: 2,
        queue_capacity: 512,
        refit_workers: 0,
        refit_every: 0,
        score_on_ingest: false,
        ..Default::default()
    })
    .expect("service starts");
    NodeServer::start(NodeConfig::default(), service).expect("node starts")
}

fn router_config() -> RouterConfig {
    RouterConfig {
        // Replay off: any post-migration correctness must come from the
        // checkpointed state, not from the router's sample buffer.
        replay_window: 0,
        request_timeout: Duration::from_secs(2),
        bootstrap_len: 64,
        window: 12,
        seed: 1234,
        ..Default::default()
    }
}

fn sample(idx: usize, round: usize) -> Vec<f32> {
    vec![0.25 + 0.002 * (idx % 5) as f32 + 0.03 * round as f32]
}

fn ingest_rounds(
    router: &mut FleetRouter,
    ids: &[String],
    rounds: std::ops::Range<usize>,
) -> HashMap<String, f32> {
    let mut last = HashMap::new();
    for round in rounds {
        let batch: Vec<(String, Vec<f32>)> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| (id.clone(), sample(i, round)))
            .collect();
        let report = router.ingest_batch(&batch).expect("batch routes");
        assert_eq!(report.accepted, ids.len() as u64);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        for (i, id) in ids.iter().enumerate() {
            last.insert(id.clone(), sample(i, round)[0]);
        }
    }
    last
}

fn assert_forecasts_match(router: &mut FleetRouter, ids: &[String], last: &HashMap<String, f32>) {
    let results = router.forecast_batch(ids);
    assert_eq!(results.len(), ids.len());
    for (id, result) in results {
        let f = result.expect("forecast")[0];
        let expect = last[&id];
        assert!(
            (f - expect).abs() < 2e-2,
            "{id}: forecast {f} vs last ingested {expect}"
        );
    }
}

/// Draining a node hands every entity over with model weights,
/// preprocessing state and history; forecasts on the new owners pick up
/// exactly where the drained node left off, with zero failovers.
#[test]
fn drain_migrates_state_warm() {
    let nodes = [start_node(), start_node(), start_node()];
    let mut router = FleetRouter::new(router_config());
    for (i, n) in nodes.iter().enumerate() {
        router
            .add_node(&format!("n{i}"), &n.addr().to_string())
            .expect("node joins");
    }
    let ids: Vec<String> = (0..36).map(|i| format!("d-{i:02}")).collect();
    assert_eq!(router.seed_entities(&ids).expect("seed"), 36);
    let last = ingest_rounds(&mut router, &ids, 0..6);

    let migrated = router.drain_node("n1").expect("drain succeeds");
    assert!(migrated > 0, "n1 should have owned some entities");
    assert_eq!(router.node_status("n1"), Some(NodeStatus::Drained));
    assert_eq!(router.journal().count(EventKind::NodeDrained), 1);
    assert!(router.registry().counter("router_migrated").get() >= migrated);

    // Warm handoff: replay is off, so only migrated state can explain
    // correct persistence forecasts.
    assert_forecasts_match(&mut router, &ids, &last);
    assert_eq!(router.registry().counter("router_failed_over").get(), 0);

    // The fleet keeps ingesting at full acceptance on the survivors.
    let last = ingest_rounds(&mut router, &ids, 6..8);
    assert_forecasts_match(&mut router, &ids, &last);
}

/// A node joining an active fleet takes over its ring share through
/// Checkpoint/Restore/Evict migration, and forecasts stay correct with
/// replay disabled — the state moved, not just the placement.
#[test]
fn join_rebalances_with_state() {
    let nodes = [start_node(), start_node()];
    let mut router = FleetRouter::new(router_config());
    for (i, n) in nodes.iter().enumerate() {
        router
            .add_node(&format!("n{i}"), &n.addr().to_string())
            .expect("node joins");
    }
    let ids: Vec<String> = (0..36).map(|i| format!("j-{i:02}")).collect();
    assert_eq!(router.seed_entities(&ids).expect("seed"), 36);
    let last = ingest_rounds(&mut router, &ids, 0..6);

    let newcomer = start_node();
    router
        .add_node("n2", &newcomer.addr().to_string())
        .expect("join succeeds");
    let migrated = router.registry().counter("router_migrated").get();
    assert!(migrated > 0, "the newcomer should take over some entities");
    assert!(router.journal().count(EventKind::EntityMigrated) >= 1);

    assert_forecasts_match(&mut router, &ids, &last);
    assert_eq!(router.registry().counter("router_failed_over").get(), 0);

    let last = ingest_rounds(&mut router, &ids, 6..8);
    assert_forecasts_match(&mut router, &ids, &last);
    router.shutdown_fleet();
}

/// A `Restore` frame is outside input: preprocessing state that does not
/// fit the entity's own columns must come back as a typed per-entity
/// error — not install and then take a shard down on its first forecast.
#[test]
fn restore_of_malformed_state_is_a_typed_error() {
    let node = start_node();
    let mut router = FleetRouter::new(router_config());
    router
        .add_node("n0", &node.addr().to_string())
        .expect("node joins");
    let ids: Vec<String> = (0..8).map(|i| format!("r-{i:02}")).collect();
    assert_eq!(router.seed_entities(&ids).expect("seed"), 8);
    let last = ingest_rounds(&mut router, &ids, 0..4);

    let mut client =
        NodeClient::connect(&node.addr().to_string(), Duration::from_secs(2)).expect("connects");
    let reply = client
        .request(&Message::Checkpoint {
            ids: vec![ids[0].clone()],
        })
        .expect("checkpoint answers");
    let Message::CheckpointOk { entities } = reply else {
        panic!("unexpected reply {reply:?}");
    };
    let good = entities[0].1.clone();

    let mut unknown_column = good.clone();
    unknown_column.selected[0] = "no_such_indicator".into();
    unknown_column.scaler_columns[0].0 = "no_such_indicator".into();
    let mut scaler_mismatch = good.clone();
    scaler_mismatch.scaler_columns[0].0 = "fitted_elsewhere".into();
    let mut target_dropped = good.clone();
    target_dropped.cfg.target = "never_selected".into();
    let reply = client
        .request(&Message::Restore {
            entities: vec![
                ("bad-column".into(), unknown_column),
                ("bad-scaler".into(), scaler_mismatch),
                ("bad-target".into(), target_dropped),
                ("good-copy".into(), good),
            ],
        })
        .expect("restore answers");
    let Message::RestoreOk { installed, errors } = reply else {
        panic!("unexpected reply {reply:?}");
    };
    assert_eq!(installed, 1, "only the intact state installs: {errors:?}");
    let rejected: Vec<&str> = errors.iter().map(|(id, _)| id.as_str()).collect();
    assert_eq!(rejected, ["bad-column", "bad-scaler", "bad-target"]);
    assert!(errors[0].1.contains("unknown column"), "{errors:?}");
    assert!(errors[1].1.contains("scaler"), "{errors:?}");
    assert!(errors[2].1.contains("target"), "{errors:?}");

    // Every shard is still serving, the intact copy included.
    assert_forecasts_match(&mut router, &ids, &last);
    let reply = client
        .request(&Message::Forecast {
            ids: vec!["good-copy".into(), "bad-target".into()],
        })
        .expect("forecast answers");
    let Message::ForecastOk { results } = reply else {
        panic!("unexpected reply {reply:?}");
    };
    assert!(matches!(results[0].1, net::ForecastOutcome::Values(_)));
    assert!(matches!(results[1].1, net::ForecastOutcome::Unknown));
    router.shutdown_fleet();
}

/// `Checkpoint { ids }` snapshots only the entities it names: three known
/// ids and one unknown come back as exactly the three states, sorted by
/// id, byte for byte the rows a full `snapshot_entities` holds for them.
#[test]
fn checkpoint_of_named_ids_snapshots_only_those() {
    let node = start_node();
    let mut router = FleetRouter::new(router_config());
    router
        .add_node("n0", &node.addr().to_string())
        .expect("node joins");
    let ids: Vec<String> = (0..40).map(|i| format!("k-{i:02}")).collect();
    assert_eq!(router.seed_entities(&ids).expect("seed"), 40);
    ingest_rounds(&mut router, &ids, 0..3);

    let mut client =
        NodeClient::connect(&node.addr().to_string(), Duration::from_secs(2)).expect("connects");
    let asked = vec![
        ids[31].clone(),
        "k-unknown".to_string(),
        ids[4].clone(),
        ids[17].clone(),
    ];
    let reply = client
        .request(&Message::Checkpoint { ids: asked })
        .expect("checkpoint answers");
    let Message::CheckpointOk { entities } = reply else {
        panic!("unexpected reply {reply:?}");
    };
    let named: Vec<&str> = entities.iter().map(|(id, _)| id.as_str()).collect();
    assert_eq!(named, [&ids[4], &ids[17], &ids[31]]);

    let full = node
        .with_service(|s| s.snapshot_entities())
        .expect("full snapshot");
    let rows: Vec<(String, rptcn::PredictorState)> = full
        .into_iter()
        .filter(|(id, _)| named.contains(&id.as_str()))
        .collect();
    let frame = |entities| net::encode_frame(1, &Message::CheckpointOk { entities });
    assert_eq!(
        frame(entities).expect("encode"),
        frame(rows).expect("encode"),
        "named states equal their full-snapshot rows byte for byte"
    );
    router.shutdown_fleet();
}
