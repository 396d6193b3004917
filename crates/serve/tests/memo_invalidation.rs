//! One model run per sample, and never a stale answer: a shard keeps each
//! entity's forecast until its predictor is written, and every read —
//! `forecast`, `forecast_many`, `forecast_with_interval`, `reserve` — is
//! answered from it. For each route that changes (or must not change) an
//! entity's state, the reads that follow must equal a memo-free twin
//! outside the service (`common::Twin`), bit for bit; a property test does
//! the same over random interleavings of writes and reads.

mod common;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use common::{assert_reads_match, bits, Twin};
use models::{NeuralTrainSpec, RptcnConfig, RptcnForecaster};
use proptest::prelude::*;
use rptcn::{PipelineConfig, Scenario};
use serve::{
    EntityHealth, FaultPlan, IngestGuard, IntervalSource, PredictionService, ServeError,
    ServiceConfig,
};
use timeseries::TimeSeriesFrame;

/// Utilisation as a fraction of capacity, so reservations land inside the
/// decision rule's clamps and differ from entity to entity.
fn sample(i: usize, phase: f32) -> Vec<f32> {
    vec![
        0.45 + 0.25 * ((i as f32 * 0.2 + phase).sin()),
        0.30 + 0.10 * ((i as f32 * 0.13 + phase).cos()),
    ]
}

fn bootstrap_frame(n: usize, phase: f32) -> TimeSeriesFrame {
    let (cpu, mem) = (0..n)
        .map(|i| sample(i, phase))
        .map(|s| (s[0], s[1]))
        .unzip();
    TimeSeriesFrame::from_columns(&[("cpu_util_percent", cpu), ("mem_util_percent", mem)]).unwrap()
}

fn pipeline() -> PipelineConfig {
    PipelineConfig {
        scenario: Scenario::Mul,
        window: 12,
        horizon: 2,
        ..Default::default()
    }
}

fn tiny_rptcn() -> RptcnForecaster {
    RptcnForecaster::new(RptcnConfig {
        channels: 4,
        levels: 1,
        fc_dim: 8,
        spec: NeuralTrainSpec {
            epochs: 25,
            ..Default::default()
        },
        ..Default::default()
    })
}

const IDS: [&str; 3] = ["e_0", "e_1", "e_2"];

/// Three RPTCN entities sharing one set of weights (so a cold
/// `forecast_many` takes the stacked engine call) on one shard, and their
/// twins.
fn fleet(config: ServiceConfig) -> (PredictionService, BTreeMap<String, Twin>) {
    let config = ServiceConfig {
        shards: 1,
        ..config
    };
    let mut service = PredictionService::new(config.clone()).expect("spawn service");
    let frames: Vec<(&str, TimeSeriesFrame)> = IDS
        .iter()
        .zip(0u8..)
        .map(|(&id, i)| (id, bootstrap_frame(96, f32::from(i))))
        .collect();
    service
        .add_entities_shared(&frames, pipeline(), Box::new(tiny_rptcn()))
        .expect("onboard");
    let twins = Twin::fleet(&service, &config);
    (service, twins)
}

fn no_refits() -> ServiceConfig {
    ServiceConfig {
        refit_workers: 0,
        ..Default::default()
    }
}

fn poll_until(service: &PredictionService, what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        service.flush().unwrap();
        if done() {
            return;
        }
        assert!(Instant::now() < deadline, "{what}: not before the deadline");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Sample `i` of every entity's series, to the service and to its twin.
fn ingest_round(service: &PredictionService, twins: &mut BTreeMap<String, Twin>, i: usize) {
    for (&id, phase) in IDS.iter().zip(0u8..) {
        let s = sample(i, f32::from(phase));
        service.ingest(id, s.clone()).unwrap();
        twins.get_mut(id).unwrap().ingest(&s);
    }
}

fn total(service: &PredictionService, field: impl Fn(&serve::ShardStats) -> u64) -> u64 {
    service.stats().total(field)
}

#[test]
fn every_ingested_sample_moves_the_answer() {
    let (service, mut twins) = fleet(no_refits());
    assert_reads_match(&service, &mut twins, &IDS, "fresh install");
    for i in 96..112 {
        ingest_round(&service, &mut twins, i);
        service.flush().unwrap();
        // Twice: the second round is answered from memos the first filled.
        assert_reads_match(&service, &mut twins, &IDS, "after ingest");
        assert_reads_match(&service, &mut twins, &IDS, "repeated read");
    }
    // Every sample ran the model once (score-on-ingest); no read did, bar
    // the three of the fresh install, which one stacked call answered.
    let stats = service.stats();
    assert_eq!(stats.total(|s| s.batch_calls), 1, "{stats:?}");
    assert_eq!(stats.total(|s| s.batched_forecasts), 3, "{stats:?}");
    assert_eq!(
        stats.total(|s| s.memo_hits),
        stats.total(|s| s.forecasts) - 3,
        "{stats:?}"
    );
}

#[test]
fn reads_without_score_on_ingest_run_the_model_once_per_sample() {
    let (service, mut twins) = fleet(ServiceConfig {
        score_on_ingest: false,
        ..no_refits()
    });
    for i in 96..104 {
        ingest_round(&service, &mut twins, i);
        service.flush().unwrap();
        let before = total(&service, |s| s.batch_calls);
        assert_reads_match(&service, &mut twins, &IDS, "cold after ingest");
        assert_reads_match(&service, &mut twins, &IDS, "warm");
        // The first read of the round stacked the three cold entities;
        // nothing after it reached the engine.
        assert_eq!(total(&service, |s| s.batch_calls), before + 1);
    }
    let stats = service.stats();
    assert_eq!(stats.total(|s| s.batched_forecasts), 3 * 8, "{stats:?}");
    assert_eq!(
        stats.total(|s| s.memo_hits),
        stats.total(|s| s.forecasts) - 3 * 8,
        "{stats:?}"
    );
}

#[test]
fn sequence_gaps_are_forward_filled_before_the_next_answer() {
    let (service, mut twins) = fleet(no_refits());
    // Warm every memo, then jump the sequence: a gap under the fill cap,
    // one over it, and a stale replay that must change nothing.
    for (seq, i) in [(0u64, 96usize), (1, 97), (4, 98), (13, 99), (2, 100)] {
        for (&id, phase) in IDS.iter().zip(0u8..) {
            let s = sample(i, f32::from(phase));
            service.ingest_at(id, seq, s.clone()).unwrap();
            twins.get_mut(id).unwrap().ingest_at(seq, &s);
        }
        service.flush().unwrap();
        assert_reads_match(&service, &mut twins, &IDS, &format!("seq {seq}"));
    }
    let stats = service.stats();
    assert_eq!(stats.total(|s| s.gap_samples), 3 * (2 + 8), "{stats:?}");
    assert_eq!(stats.total(|s| s.quarantined_samples), 3, "{stats:?}");
}

#[test]
fn a_repaired_sample_moves_the_answer_by_what_was_applied() {
    let (service, mut twins) = fleet(no_refits());
    assert_reads_match(&service, &mut twins, &IDS, "fresh install");
    for (i, poison) in [(96usize, f32::NAN), (97, f32::INFINITY)] {
        for (&id, phase) in IDS.iter().zip(0u8..) {
            let mut s = sample(i, f32::from(phase));
            s[usize::from(phase) % 2] = poison;
            service.ingest(id, s.clone()).unwrap();
            twins.get_mut(id).unwrap().ingest_repaired(&s);
        }
        service.flush().unwrap();
        assert_reads_match(&service, &mut twins, &IDS, "after repair");
    }
    assert_eq!(total(&service, |s| s.repaired_samples), 6);
}

#[test]
fn quarantined_samples_leave_the_memo_in_place_and_right() {
    let (service, mut twins) = fleet(ServiceConfig {
        ingest_guard: IngestGuard::Quarantine,
        ..no_refits()
    });
    for (&id, phase) in IDS.iter().zip(0u8..) {
        let s = sample(96, f32::from(phase));
        service.ingest_at(id, 0, s.clone()).unwrap();
        twins.get_mut(id).unwrap().ingest_at(0, &s);
    }
    service.flush().unwrap();
    assert_reads_match(&service, &mut twins, &IDS, "before quarantine");

    // Wrong arity, a stale replay, an unrepairable value: none is applied.
    service.ingest("e_0", vec![0.5]).unwrap();
    service.ingest_at("e_1", 0, vec![0.9, 0.9]).unwrap();
    service.ingest("e_2", vec![f32::NAN, 0.3]).unwrap();
    service.flush().unwrap();
    assert_eq!(total(&service, |s| s.quarantined_samples), 3);

    // State unchanged, so the memo survives: every read is a hit, and
    // still what the (undriven) twins answer.
    let (hits, reads) = (
        total(&service, |s| s.memo_hits),
        total(&service, |s| s.forecasts),
    );
    assert_reads_match(&service, &mut twins, &IDS, "after quarantine");
    let stats = service.stats();
    assert_eq!(
        stats.total(|s| s.memo_hits) - hits,
        stats.total(|s| s.forecasts) - reads,
        "a quarantined sample dropped a memo: {stats:?}"
    );
}

#[test]
fn an_installed_refit_answers_the_next_read() {
    const EVERY: usize = 6;
    let (service, mut twins) = fleet(ServiceConfig {
        refit_every: EVERY,
        refit_workers: 1,
        ..Default::default()
    });
    for i in 96..96 + EVERY {
        ingest_round(&service, &mut twins, i);
    }
    poll_until(&service, "refits", || {
        total(&service, |s| s.refits_completed) == 3
    });
    // Nobody outside the pool saw the replacements train: take them from
    // the service's snapshot, leave the rest of each twin as driven.
    let mut moved = 0;
    for (id, fresh) in common::snapshot_twins(&service) {
        let twin = twins.get_mut(&id).unwrap();
        let (old, new) = (twin.forecast(), fresh.forecast().unwrap());
        moved += usize::from(bits(&old) != bits(&new));
        twin.predictor = fresh;
    }
    assert_eq!(moved, 3, "a refit that changes nothing checks nothing");
    assert_reads_match(&service, &mut twins, &IDS, "after refit install");
}

#[test]
fn a_failed_refit_keeps_model_and_memo() {
    const EVERY: usize = 6;
    let (service, mut twins) = fleet(ServiceConfig {
        refit_every: EVERY,
        refit_workers: 1,
        faults: Some(
            IDS.iter()
                .fold(FaultPlan::seeded(5), |p, id| p.fail_refit(id)),
        ),
        ..Default::default()
    });
    for i in 96..96 + EVERY {
        ingest_round(&service, &mut twins, i);
    }
    poll_until(&service, "refit failures", || {
        total(&service, |s| s.refit_failures) == 3
    });
    let (hits, reads) = (
        total(&service, |s| s.memo_hits),
        total(&service, |s| s.forecasts),
    );
    assert_reads_match(&service, &mut twins, &IDS, "after failed refit");
    let stats = service.stats();
    assert_eq!(
        stats.total(|s| s.memo_hits) - hits,
        stats.total(|s| s.forecasts) - reads,
        "a refit that installed nothing dropped a memo: {stats:?}"
    );
}

#[test]
fn a_crashed_entity_is_served_by_its_fallback_not_its_memo() {
    let plan = FaultPlan::seeded(11);
    let (service, mut twins) = fleet(ServiceConfig {
        faults: Some(plan.clone()),
        ..no_refits()
    });
    for i in 96..100 {
        ingest_round(&service, &mut twins, i);
    }
    service.flush().unwrap();
    assert_reads_match(&service, &mut twins, &IDS, "healthy");
    let model_bits = bits(&twins["e_1"].forecast());

    // The injected panic fires before the memo is looked at, although
    // e_1's memo is warm.
    let _ = plan.clone().panic_on_forecast("e_1", 1);
    assert!(matches!(
        service.forecast("e_1"),
        Err(ServeError::ShardDown(_))
    ));
    service.flush().unwrap();
    assert_eq!(
        service.entity_health().unwrap()["e_1"].health,
        EntityHealth::Degraded
    );
    twins.get_mut("e_1").unwrap().healthy = false;
    assert_ne!(bits(&twins["e_1"].forecast()), model_bits);
    assert_reads_match(&service, &mut twins, &IDS, "after restart");
    let interval = service.forecast_with_interval("e_1").unwrap();
    assert_eq!(interval.source, IntervalSource::LastGood);
    assert_eq!(
        bits(&interval.point),
        model_bits,
        "last-good point block is the last healthy forecast"
    );

    // Samples keep arriving; the degraded entity tracks its fallback, its
    // groupmates their models.
    for i in 100..104 {
        ingest_round(&service, &mut twins, i);
        service.flush().unwrap();
        assert_reads_match(&service, &mut twins, &IDS, "degraded ingest");
    }
    assert_eq!(total(&service, |s| s.restarts), 1);
}

#[test]
fn a_recovered_entity_answers_with_its_new_model() {
    let plan = FaultPlan::seeded(13);
    let (service, mut twins) = fleet(ServiceConfig {
        refit_workers: 1,
        faults: Some(plan.clone()),
        ..Default::default()
    });
    for i in 96..100 {
        ingest_round(&service, &mut twins, i);
    }
    service.flush().unwrap();
    assert_reads_match(&service, &mut twins, &IDS, "healthy");
    let before = bits(&twins["e_2"].forecast());

    // Crash → degraded → the supervisor's recovery refit → healthy again.
    let _ = plan.clone().panic_on_forecast("e_2", 1);
    assert!(matches!(
        service.forecast("e_2"),
        Err(ServeError::ShardDown(_))
    ));
    poll_until(&service, "recovery", || {
        service.entity_health().unwrap()["e_2"].health == EntityHealth::Healthy
    });
    assert_eq!(total(&service, |s| s.refits_completed), 1);
    let fresh = common::snapshot_twins(&service).remove("e_2").unwrap();
    assert_ne!(bits(&fresh.forecast().unwrap()), before, "same model back");
    twins.get_mut("e_2").unwrap().predictor = fresh;
    assert_reads_match(&service, &mut twins, &IDS, "after recovery");
}

#[test]
fn a_reinstalled_entity_starts_from_the_state_it_was_given() {
    let config = no_refits();
    let (mut service, mut twins) = fleet(config.clone());
    let early = service.snapshot_entities().unwrap();
    for i in 96..104 {
        ingest_round(&service, &mut twins, i);
    }
    service.flush().unwrap();
    assert_reads_match(&service, &mut twins, &IDS, "warm memos");

    // The same id comes back holding an older state: nothing of the
    // removed slot — memo, residuals, reservation — may answer for it.
    let (id, state) = &early[1];
    service.remove_entity(id).unwrap();
    service.install_state(id, state).unwrap();
    let reinstalled = Twin::install(
        state,
        &ServiceConfig {
            shards: 1,
            ..config
        },
    );
    assert_ne!(
        bits(&reinstalled.forecast()),
        bits(&twins[id].forecast()),
        "the older state forecasts the same: nothing checked"
    );
    twins.insert(id.clone(), reinstalled);
    assert_reads_match(&service, &mut twins, &IDS, "after reinstall");
}

/// One step of an interleaving: which operation, on which entity (or, for
/// `forecast_many`, which subset), with which sample.
type Op = (usize, usize, f32, f32);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0usize..6, 0usize..8, 0.05f32..0.95, 0.1f32..0.6), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever order writes and reads arrive in, with the rolling forecast
    /// on or off, the service answers what memo-free twins answer.
    #[test]
    fn interleaved_writes_and_reads_match_memo_free_twins(
        ops in ops(),
        score_on_ingest in 0usize..2,
    ) {
        let (service, mut twins) = fleet(ServiceConfig {
            score_on_ingest: score_on_ingest == 1,
            ..no_refits()
        });
        for (step, &(kind, pick, cpu, mem)) in ops.iter().enumerate() {
            let id = IDS[pick % IDS.len()];
            let what = format!("step {step} {:?}", ops[step]);
            match kind {
                // Writes are half the mix.
                0..=2 => {
                    service.ingest(id, vec![cpu, mem]).unwrap();
                    twins.get_mut(id).unwrap().ingest(&[cpu, mem]);
                }
                3 => {
                    let served = service.forecast(id).unwrap();
                    prop_assert_eq!(bits(&served), bits(&twins[id].forecast()), "{}", what);
                }
                4 => {
                    // A non-empty subset; the last pick names an id twice.
                    let mask = pick % 7 + 1;
                    let mut subset: Vec<&str> = IDS
                        .iter()
                        .enumerate()
                        .filter(|(bit, _)| mask >> bit & 1 == 1)
                        .map(|(_, &id)| id)
                        .collect();
                    if pick == 7 {
                        subset.push(subset[0]);
                    }
                    for (id, res) in service.forecast_many(&subset) {
                        let served = res.unwrap();
                        prop_assert_eq!(bits(&served), bits(&twins[&id].forecast()), "{}", what);
                    }
                }
                _ => {
                    let served = service.reserve(id).unwrap();
                    let expected = twins.get_mut(id).unwrap().reserve();
                    prop_assert_eq!(
                        (served.target.to_bits(), served.reservation.to_bits(), served.action),
                        (expected.target.to_bits(), expected.reservation.to_bits(), expected.action),
                        "{}", what
                    );
                }
            }
        }
        assert_reads_match(&service, &mut twins, &IDS, "end of interleaving");
    }
}
