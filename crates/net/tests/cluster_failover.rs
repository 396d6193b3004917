//! Fault-injection tests for the distributed serving tier: a small
//! in-process cluster loses a node mid-traffic and the router must fail
//! over with zero lost acknowledged ingests and bounded forecast blips.

use std::collections::HashMap;
use std::time::Duration;

use net::{FleetRouter, NodeConfig, NodeServer, NodeStatus, RouterConfig};
use obs::EventKind;
use serve::{FaultPlan, PredictionService, ServiceConfig};

fn node_service(faults: Option<FaultPlan>) -> PredictionService {
    PredictionService::new(ServiceConfig {
        shards: 2,
        queue_capacity: 512,
        refit_workers: 0,
        refit_every: 0,
        score_on_ingest: false,
        faults,
        ..Default::default()
    })
    .expect("service starts")
}

fn start_node(faults: Option<FaultPlan>) -> NodeServer {
    NodeServer::start(NodeConfig::default(), node_service(faults)).expect("node starts")
}

fn router_config(replay_window: usize, request_timeout: Duration) -> RouterConfig {
    RouterConfig {
        replay_window,
        request_timeout,
        bulk_timeout: Duration::from_secs(60),
        probe_timeout: Duration::from_millis(500),
        bootstrap_len: 64,
        window: 12,
        seed: 99,
        ..Default::default()
    }
}

/// Per-entity, per-round sample value — single column to match the
/// seeded bootstrap arity.
fn sample(idx: usize, round: usize) -> Vec<f32> {
    vec![0.30 + 0.001 * (idx % 7) as f32 + 0.02 * round as f32]
}

/// Killing a node abruptly mid-traffic: the router marks it down,
/// re-routes its entities to ring successors (deterministic re-seed plus
/// replay of every acknowledged sample), and not one acknowledged ingest
/// is lost — post-failover forecasts equal the last acknowledged value.
#[test]
fn abrupt_node_kill_loses_no_acked_ingests() {
    let mut nodes = [start_node(None), start_node(None), start_node(None)];
    let mut router = FleetRouter::new(router_config(40, Duration::from_secs(2)));
    for (i, n) in nodes.iter().enumerate() {
        router
            .add_node(&format!("n{i}"), &n.addr().to_string())
            .expect("node joins");
    }

    let ids: Vec<String> = (0..60).map(|i| format!("e-{i:03}")).collect();
    let installed = router.seed_entities(&ids).expect("seed succeeds");
    assert_eq!(installed, 60);

    let rounds = 10usize;
    let kill_at = 4usize;
    let mut acked = 0u64;
    let mut saw_failover = false;
    let mut last_acked: HashMap<String, f32> = HashMap::new();
    for round in 0..rounds {
        if round == kill_at {
            // Abrupt kill: connection handlers stop, sockets die. The
            // node's process-local state is gone from the fleet's view.
            nodes[2].shutdown();
            nodes[2].join();
        }
        let batch: Vec<(String, Vec<f32>)> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| (id.clone(), sample(i, round)))
            .collect();
        let report = router.ingest_batch(&batch).expect("batch routes");
        assert!(report.errors.is_empty(), "hard errors: {:?}", report.errors);
        acked += report.accepted;
        for (i, id) in ids.iter().enumerate() {
            last_acked.insert(id.clone(), sample(i, round)[0]);
        }
        if round >= kill_at && report.failed_over > 0 {
            saw_failover = true;
        }
    }

    // Zero lost acknowledged ingests: every sample of every round acked.
    assert_eq!(acked, (rounds * ids.len()) as u64);
    assert!(saw_failover, "the kill must surface as a failover");

    // The death is journaled and visible in probes and counters.
    assert!(
        router.journal().count(EventKind::NodeDown) >= 1,
        "node death must be journaled"
    );
    router.probe();
    assert_eq!(router.node_status("n2"), Some(NodeStatus::Down));
    assert!(router.registry().counter("router_failed_over").get() > 0);

    // Bounded blip: every forecast exists, is finite, and equals the
    // last acknowledged sample (naive persistence over replayed state).
    let results = router.forecast_batch(&ids);
    assert_eq!(results.len(), ids.len());
    for (id, result) in results {
        let f = result.expect("forecast after failover")[0];
        let expect = last_acked[&id];
        assert!(f.is_finite(), "{id}: non-finite forecast");
        assert!(
            (f - expect).abs() < 2e-2,
            "{id}: forecast {f} strayed from last acked {expect}"
        );
    }
    router.shutdown_fleet();
}

/// A node wedged by the existing FaultPlan machinery (stalled shards)
/// times out on forecasts; the router marks it down, heals its entities
/// onto live nodes, and every forecast still comes back.
#[test]
fn stalled_node_times_out_and_fails_over() {
    // Both shards of the victim stall long past the request timeout.
    let plan = FaultPlan::seeded(7)
        .stall_shard(0, Duration::from_millis(400), 1000)
        .stall_shard(1, Duration::from_millis(400), 1000);
    let nodes = [start_node(None), start_node(None), start_node(Some(plan))];
    let mut router = FleetRouter::new(router_config(16, Duration::from_millis(100)));
    for (i, n) in nodes.iter().enumerate() {
        router
            .add_node(&format!("n{i}"), &n.addr().to_string())
            .expect("node joins");
    }

    let ids: Vec<String> = (0..24).map(|i| format!("s-{i:02}")).collect();
    router.seed_entities(&ids).expect("seed succeeds");

    // One ingest round; ingest acks are queue-level so the stall does
    // not bite yet, but the samples land behind the stalled messages.
    let batch: Vec<(String, Vec<f32>)> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| (id.clone(), sample(i, 0)))
        .collect();
    let report = router.ingest_batch(&batch).expect("batch routes");
    assert!(report.errors.is_empty());

    // Forecasts wait on shard processing: the stalled node times out.
    let results = router.forecast_batch(&ids);
    assert_eq!(results.len(), ids.len());
    for (id, result) in results {
        let f = result.expect("forecast heals onto live nodes");
        assert!(f[0].is_finite(), "{id}: non-finite forecast");
    }
    assert_eq!(router.node_status("n2"), Some(NodeStatus::Down));
    assert!(router.journal().count(EventKind::NodeDown) >= 1);
    assert!(router.registry().counter("router_failed_over").get() > 0);
    assert!(router.registry().counter("router_healed").get() > 0);
}

/// A node dies holding a group of thousands of entities: the survivor
/// answers the whole group `unknown`, and the router heals every one of
/// them in a single pass — re-seeded once, its acknowledged suffix
/// replayed once — so the survivor applies exactly `replay_window + 1`
/// samples per healed entity, and every forecast equals the last
/// acknowledged sample.
#[test]
fn a_lost_group_of_thousands_heals_each_entity_once() {
    const WINDOW: usize = 3;
    let mut nodes = [start_node(None), start_node(None)];
    let mut router = FleetRouter::new(router_config(WINDOW, Duration::from_secs(5)));
    for (i, n) in nodes.iter().enumerate() {
        router
            .add_node(&format!("n{i}"), &n.addr().to_string())
            .expect("node joins");
    }
    let ids: Vec<String> = (0..4400).map(|i| format!("g-{i:04}")).collect();
    assert_eq!(router.seed_entities(&ids).expect("seed"), 4400);
    let lost = ids
        .iter()
        .filter(|id| router.ring().node_for(id) == Some("n1"))
        .count();
    assert!(lost >= 2000, "the victim's group holds {lost} entities");

    let batch = |round: usize| -> Vec<(String, Vec<f32>)> {
        ids.iter()
            .enumerate()
            .map(|(i, id)| (id.clone(), sample(i, round)))
            .collect()
    };
    let rounds = WINDOW + 2;
    for round in 0..rounds {
        let report = router.ingest_batch(&batch(round)).expect("batch routes");
        assert_eq!(report.accepted, ids.len() as u64);
    }
    let applied = |node: &NodeServer| {
        node.with_service(|s| {
            s.flush().expect("flush");
            s.stats().total(|s| s.ingested)
        })
    };
    let before = applied(&nodes[0]);

    nodes[1].shutdown();
    nodes[1].join();
    let report = router.ingest_batch(&batch(rounds)).expect("batch routes");
    assert!(report.errors.is_empty(), "hard errors: {:?}", report.errors);
    assert_eq!(report.accepted, ids.len() as u64);
    assert_eq!(report.failed_over, lost as u64);
    assert_eq!(report.healed, lost as u64);
    assert_eq!(
        router.registry().counter("router_healed").get(),
        lost as u64
    );

    let survivors = (ids.len() - lost) as u64;
    assert_eq!(
        applied(&nodes[0]) - before,
        survivors + lost as u64 * (WINDOW as u64 + 1),
        "one sample per survivor; one replayed suffix plus the resent sample per healed entity"
    );
    for (id, result) in router.forecast_batch(&ids) {
        let f = result.expect("forecast after heal")[0];
        let i: usize = id[2..].parse().expect("numbered id");
        let expect = sample(i, rounds)[0];
        assert!(
            (f - expect).abs() < 2e-2,
            "{id}: forecast {f} strayed from last acked {expect}"
        );
    }
    router.shutdown_fleet();
}
