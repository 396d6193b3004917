//! Chaos tests: a seeded [`FaultPlan`] injects poisoned samples, panicking
//! models, failing/slow refits and queue saturation, and the service must
//! keep every guarantee it makes in clear weather — finite forecasts,
//! surviving shards, honest counters and automatic recovery. Every
//! injected fault must additionally leave a matching entry in the
//! service's event journal, attributed to the right shard and entity.

use std::time::{Duration, Instant};

use models::NaiveForecaster;
use obs::{EventKind, SimClock};
use rptcn::{PipelineConfig, Scenario};
use serve::{
    Backpressure, EntityHealth, FaultPlan, PredictionService, RefitPolicy, ServeError,
    ServiceConfig,
};
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

fn assert_finite(id: &str, fc: &[f32]) {
    assert!(!fc.is_empty(), "empty forecast for {id}");
    assert!(
        fc.iter().all(|v| v.is_finite()),
        "non-finite forecast for {id}: {fc:?}"
    );
}

/// The acceptance scenario: a panicking model on one shard, NaN samples
/// for 10% of the fleet, and one permanently failing refit — all at once.
/// The service must (a) never return a non-finite forecast, (b) restart
/// the crashed shard and keep serving its other entities, (c) report
/// degraded / restart / quarantine counts, and (d) recover the crashed
/// entity to `Healthy` after a clean refit while the permanently failing
/// one stays `Degraded`.
#[test]
fn service_survives_combined_fault_plan() {
    const ENTITIES: usize = 24;
    let panicker = "c_0"; // model whose panic escapes into the shard worker
    let perm_fail = "c_1"; // degrades, then every recovery refit fails
    let poisoned = ["c_3", "c_11", "c_19"]; // 10% of the fleet streams NaN

    let mut plan = FaultPlan::seeded(42)
        .panic_on_forecast(panicker, 1)
        .panic_on_forecast(perm_fail, 1)
        .fail_refit(perm_fail);
    for id in poisoned {
        plan = plan.poison_entity(id, 1.0);
    }

    let service = naive_service(
        ServiceConfig {
            shards: 3,
            refit_every: 10,
            refit_workers: 2,
            faults: Some(plan),
            ..Default::default()
        },
        ENTITIES,
    );
    let crash_shard = service.shard_of(panicker);

    // Stream the fleet. Every sample of the poisoned entities arrives with
    // a NaN and must be repaired at the shard boundary.
    for i in 0..30 {
        for e in 0..ENTITIES {
            service
                .ingest(&format!("c_{e}"), sample(i, e as f32))
                .unwrap();
        }
    }
    // One malformed (wrong-arity) sample: unrepairable, must be quarantined.
    service.ingest("c_2", vec![50.0]).unwrap();
    service.flush().unwrap();

    // Trip both injected panics. The in-flight request observes ShardDown
    // (its reply sender died mid-unwind); the supervisor restarts the loop.
    for id in [panicker, perm_fail] {
        match service.forecast(id) {
            Err(ServeError::ShardDown(_)) => {}
            other => panic!("expected ShardDown from injected panic for {id}, got {other:?}"),
        }
    }
    service.flush().unwrap();

    // (a) + (b): after the crash every entity — including the crashed ones,
    // now on fallback, and the crashed shard's bystanders — serves finite
    // forecasts.
    let mut bystander_on_crash_shard = false;
    for e in 0..ENTITIES {
        let id = format!("c_{e}");
        let fc = service.forecast(&id).unwrap();
        assert_finite(&id, &fc);
        if id != panicker && service.shard_of(&id) == crash_shard {
            bystander_on_crash_shard = true;
        }
    }
    assert!(
        bystander_on_crash_shard,
        "no other entity shared shard {crash_shard}; weaken the test layout"
    );

    // (c): the counters tell the story.
    let stats = service.stats();
    assert!(
        stats.total(|s| s.restarts) >= 2,
        "expected one restart per injected panic: {stats:?}"
    );
    assert!(
        stats.shards[crash_shard].restarts >= 1,
        "restart not attributed to the crashed shard"
    );
    assert!(
        stats.total(|s| s.repaired_samples) >= 30,
        "poisoned samples were not repaired: {stats:?}"
    );
    assert!(
        stats.total(|s| s.quarantined_samples) >= 1,
        "malformed sample was not quarantined: {stats:?}"
    );
    // The crashed entity may already have healed (naive refits are fast),
    // but the permanently failing one is still degraded and must have
    // answered from the fallback.
    assert!(
        stats.total(|s| s.fallback_forecasts) >= 1,
        "degraded entities did not serve from the fallback: {stats:?}"
    );
    let health = service.entity_health().unwrap();
    assert_eq!(health.len(), ENTITIES);
    assert!(
        health[panicker].crashes >= 1,
        "crash not attributed to {panicker}: {:?}",
        health[panicker]
    );

    // (d): the panicker heals on the next clean refit; the permanently
    // failing entity stays degraded (still serving via fallback) and its
    // failures are counted.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        service.flush().unwrap();
        let health = service.entity_health().unwrap();
        let stats = service.stats();
        if health[panicker].health == EntityHealth::Healthy
            && stats.total(|s| s.refit_failures) >= 1
        {
            assert_eq!(
                health[perm_fail].health,
                EntityHealth::Degraded,
                "entity with permanently failing refits must stay degraded"
            );
            assert!(stats.total(|s| s.degraded) >= 1);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no recovery before deadline: {health:?} {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Healed entity serves from its model again; degraded one still answers.
    assert_finite(panicker, &service.forecast(panicker).unwrap());
    assert_finite(perm_fail, &service.forecast(perm_fail).unwrap());

    // Every injected fault left its trace in the journal, attributed to
    // the right shard and entity.
    let journal = service.journal();
    let restarts = journal.of_kind(EventKind::ShardRestart);
    assert!(
        restarts.len() >= 2,
        "expected a journal entry per escaped panic: {restarts:?}"
    );
    assert!(
        restarts
            .iter()
            .any(|e| e.shard == Some(crash_shard) && e.entity.as_deref() == Some(panicker)),
        "restart not attributed to {panicker} on shard {crash_shard}: {restarts:?}"
    );
    for id in poisoned {
        assert!(
            journal
                .for_entity(id)
                .iter()
                .any(|e| e.kind == EventKind::Repaired),
            "no repair event for poisoned entity {id}"
        );
    }
    assert!(
        journal
            .for_entity("c_2")
            .iter()
            .any(|e| e.kind == EventKind::Quarantined),
        "no quarantine event for the malformed sample"
    );
    for id in [panicker, perm_fail] {
        assert!(
            journal
                .for_entity(id)
                .iter()
                .any(|e| e.kind == EventKind::Degraded),
            "no degradation event for {id}"
        );
    }
    assert!(
        journal
            .for_entity(perm_fail)
            .iter()
            .any(|e| e.kind == EventKind::RefitFailed),
        "no refit-failure event for {perm_fail}"
    );
    assert!(
        journal
            .for_entity(panicker)
            .iter()
            .any(|e| e.kind == EventKind::RefitCompleted),
        "no refit-completion event for the healed {panicker}"
    );
}

/// A refit that outlives its per-attempt deadline is abandoned and counted,
/// and the entity keeps serving from the model it already has. The whole
/// scenario — a 400ms injected delay, a 50ms deadline, exponential backoff
/// between attempts — runs on a [`SimClock`], so the injected sleeps
/// advance virtual time instantly and the test finishes without ever
/// sleeping real wall-time for the faults themselves.
#[test]
fn slow_refits_hit_the_deadline_and_are_abandoned() {
    let sim = SimClock::new();
    let plan = FaultPlan::seeded(7).slow_refit("c_0", Duration::from_millis(400));
    let service = naive_service(
        ServiceConfig {
            shards: 1,
            refit_every: 4,
            refit_workers: 1,
            refit_policy: RefitPolicy {
                max_attempts: 2,
                backoff: Duration::from_millis(5),
                backoff_max: Duration::from_millis(20),
                timeout: Some(Duration::from_millis(50)),
            },
            clock: sim.shared(),
            faults: Some(plan),
            ..Default::default()
        },
        1,
    );
    for i in 0..4 {
        service.ingest("c_0", sample(i, 0.0)).unwrap();
    }
    // The refit worker runs on its own thread, so we still poll for its
    // verdict — but every injected 400ms delay and 5–20ms backoff advances
    // the virtual clock instead of stalling the suite.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        service.flush().unwrap();
        let stats = service.stats();
        if stats.total(|s| s.refit_timeouts) >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "refit never timed out: {stats:?}"
        );
        std::thread::yield_now();
    }
    // A timed-out refit is an operational event, not a model failure: the
    // entity keeps its working model and stays healthy.
    let health = service.entity_health().unwrap();
    assert_eq!(health["c_0"].health, EntityHealth::Healthy);
    assert!(matches!(
        health["c_0"].last_error,
        Some(ServeError::RefitTimeout { .. })
    ));
    assert_finite("c_0", &service.forecast("c_0").unwrap());
    // The abandonment is journalled at a virtual timestamp on the shared
    // timeline, attributed to the slow entity.
    let timeouts = service.journal().of_kind(EventKind::RefitTimedOut);
    assert!(
        timeouts
            .iter()
            .any(|e| e.entity.as_deref() == Some("c_0") && e.shard == Some(0)),
        "no timeout event for c_0: {timeouts:?}"
    );
    // Virtual time moved: at least one full injected delay elapsed.
    assert!(
        timeouts
            .iter()
            .any(|e| e.at_nanos >= Duration::from_millis(50).as_nanos() as u64),
        "timeout journalled before the virtual deadline could pass: {timeouts:?}"
    );
}

/// A stalled shard saturates its bounded queue; under `Reject` the caller
/// sees `QueueFull` for the overflow and every drop is counted.
#[test]
fn stalled_shard_saturates_queue_and_backpressure_fires() {
    let plan = FaultPlan::seeded(3).stall_shard(0, Duration::from_millis(20), 50);
    let service = naive_service(
        ServiceConfig {
            shards: 1,
            queue_capacity: 2,
            backpressure: Backpressure::Reject,
            refit_workers: 0,
            score_on_ingest: false,
            faults: Some(plan),
            ..Default::default()
        },
        2,
    );
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for i in 0..200 {
        match service.ingest("c_0", sample(i, 0.0)) {
            Ok(()) => accepted += 1,
            Err(ServeError::QueueFull { .. }) => rejected += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(rejected > 0, "queue never filled despite the stall");
    service.flush().unwrap();
    let stats = service.stats();
    assert_eq!(stats.total(|s| s.ingested), accepted);
    assert_eq!(stats.total(|s| s.rejected), rejected);
    // One journal entry per drop, attributed to the saturated shard and
    // the entity whose sample was turned away.
    let journal = service.journal();
    let drops = journal.of_kind(EventKind::QueueRejected);
    assert_eq!(drops.len() as u64, rejected, "drop events != rejections");
    assert!(
        drops
            .iter()
            .all(|e| e.shard == Some(0) && e.entity.as_deref() == Some("c_0")),
        "misattributed drop event: {drops:?}"
    );
}

/// Probabilistic serving under fire: once an entity degrades, interval
/// and reservation requests are answered from its journaled last-good
/// interval — never an uncovered live point estimate — and a degraded
/// entity that never produced a calibrated interval gets a widened
/// fallback with `Insufficient` calibration instead of a bare point.
#[test]
fn degraded_entity_reserves_from_last_good_interval() {
    use rptcn::Calibration;
    use serve::IntervalSource;

    // The fault plan shares state across clones: keep a handle so panics
    // can be armed mid-test, after the last-good interval exists.
    let plan = FaultPlan::seeded(9);
    let service = naive_service(
        ServiceConfig {
            shards: 1,
            refit_workers: 0,
            score_on_ingest: true,
            faults: Some(plan.clone()),
            ..Default::default()
        },
        3,
    );
    // Calibrate every entity's conformal window past the threshold.
    for i in 0..16 {
        for e in 0..3 {
            service
                .ingest(&format!("c_{e}"), sample(i, e as f32))
                .unwrap();
        }
    }
    service.flush().unwrap();

    // A healthy reservation wave: c_0 and c_1 record calibrated last-good
    // intervals; c_2 deliberately gets none.
    let live = service.reserve_many(&["c_0", "c_1"]);
    for (id, res) in &live {
        let r = res.as_ref().unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(r.source, IntervalSource::Live);
        assert_eq!(r.calibration, Calibration::Calibrated);
        assert!(r.reservation.is_finite());
    }
    let live_interval = service.forecast_with_interval("c_0").unwrap();

    // Now arm the panics and trip them: c_0 (with a last-good interval)
    // and c_2 (without one) both degrade.
    let _ = plan.clone().panic_on_forecast("c_0", 1);
    let _ = plan.clone().panic_on_forecast("c_2", 1);
    for id in ["c_0", "c_2"] {
        match service.forecast(id) {
            Err(ServeError::ShardDown(_)) => {}
            other => panic!("expected ShardDown from injected panic for {id}, got {other:?}"),
        }
        service.flush().unwrap();
    }
    let health = service.entity_health().unwrap();
    assert_eq!(health["c_0"].health, EntityHealth::Degraded);
    assert_eq!(health["c_2"].health, EntityHealth::Degraded);

    // Degraded-with-history: answered from the last-good interval, point
    // block bitwise-identical to the interval served while healthy.
    let fallback = service.forecast_with_interval("c_0").unwrap();
    assert_eq!(fallback.source, IntervalSource::LastGood);
    assert_eq!(fallback.calibration, Calibration::Calibrated);
    assert_eq!(fallback.point.len(), live_interval.point.len());
    for (a, b) in fallback.point.iter().zip(&live_interval.point) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "last-good interval must replay the healthy point block"
        );
    }
    assert!(fallback.offset_lo <= fallback.offset_hi);
    let reservation = service.reserve("c_0").unwrap();
    assert_eq!(reservation.source, IntervalSource::LastGood);
    assert_eq!(reservation.calibration, Calibration::Calibrated);
    assert!(reservation.reservation.is_finite());

    // Degraded-without-history: a widened fallback, never a bare point.
    let widened = service.forecast_with_interval("c_2").unwrap();
    assert_eq!(widened.source, IntervalSource::Widened);
    assert_eq!(widened.calibration, Calibration::Insufficient);
    assert!(widened.offset_lo < widened.offset_hi, "{widened:?}");
    assert!(widened.lower(0) < widened.upper(0));
    let widened_reservation = service.reserve("c_2").unwrap();
    assert_eq!(widened_reservation.source, IntervalSource::Widened);
    assert!(widened_reservation.reservation.is_finite());

    // The healthy bystander still serves live intervals.
    let bystander = service.forecast_with_interval("c_1").unwrap();
    assert_eq!(bystander.source, IntervalSource::Live);

    // Every fallback answer is journalled against the degraded entity.
    let journal = service.journal();
    let fallbacks = journal.of_kind(EventKind::IntervalFallback);
    assert!(
        fallbacks
            .iter()
            .any(|e| e.entity.as_deref() == Some("c_0") && e.shard == Some(0)),
        "no interval-fallback event for c_0: {fallbacks:?}"
    );
    assert!(
        fallbacks
            .iter()
            .any(|e| e.entity.as_deref() == Some("c_2") && e.detail.contains("widened")),
        "no widened-fallback event for c_2: {fallbacks:?}"
    );
    let stats = service.stats();
    assert!(
        stats.total(|s| s.interval_fallbacks) >= 4,
        "fallback counter missed requests: {stats:?}"
    );
    assert!(stats.total(|s| s.reservations) >= 4, "{stats:?}");
}

/// Sequence-numbered ingestion: gaps are detected and forward-filled (up
/// to the cap), stale replays are quarantined, and forecasts stay finite
/// throughout.
#[test]
fn sequence_gaps_are_counted_and_stale_replays_quarantined() {
    let service = naive_service(
        ServiceConfig {
            shards: 1,
            refit_workers: 0,
            ..Default::default()
        },
        1,
    );
    for seq in 0..5u64 {
        service
            .ingest_at("c_0", seq, sample(seq as usize, 0.0))
            .unwrap();
    }
    // Jump from 5 to 11: six missing samples.
    service.ingest_at("c_0", 11, sample(11, 0.0)).unwrap();
    // Replay an old sequence number: must be dropped, not applied.
    service.ingest_at("c_0", 3, vec![9_999.0, 9_999.0]).unwrap();
    service.flush().unwrap();

    let stats = service.stats();
    assert_eq!(stats.shards[0].gap_samples, 6);
    assert_eq!(stats.shards[0].quarantined_samples, 1);
    let fc = service.forecast("c_0").unwrap();
    assert_finite("c_0", &fc);
    // The stale replay's absurd value must not have reached the model.
    assert!(
        fc[0] < 1_000.0,
        "stale replay leaked into the history: {fc:?}"
    );
    // The drop is journalled against the replaying entity with the
    // offending sequence numbers in the detail.
    let quarantines = service.journal().of_kind(EventKind::Quarantined);
    assert!(
        quarantines
            .iter()
            .any(|e| e.entity.as_deref() == Some("c_0") && e.detail.contains("stale")),
        "stale replay left no quarantine event: {quarantines:?}"
    );
}
