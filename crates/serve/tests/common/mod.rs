//! Memo-free references for the serving suites. A shard answers reads from
//! the forecast it kept at the last model run, so comparing one service
//! path with another would compare the memo with itself: every reference
//! here is computed *outside* the service, on predictors it never sees.

#![allow(dead_code)] // each suite uses its own subset

use std::collections::BTreeMap;

use rptcn::{
    Calibration, ConformalState, DecisionRule, HysteresisState, PredictorState, ResourcePredictor,
    ScaleAction,
};
use serve::{FallbackForecaster, PredictionService, ServiceConfig};

pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every entity's predictor rebuilt from the service's own snapshot
/// (weights, preprocessing, history) — the state a forecast reads, without
/// the slot around it.
pub fn snapshot_twins(service: &PredictionService) -> BTreeMap<String, ResourcePredictor> {
    service
        .snapshot_entities()
        .expect("snapshot")
        .iter()
        .map(|(id, state)| {
            let twin = ResourcePredictor::from_state(state).expect("twin from snapshot");
            (id.clone(), twin)
        })
        .collect()
}

/// Model forecast bits of every entity, from [`snapshot_twins`].
pub fn twin_forecast_bits(service: &PredictionService) -> BTreeMap<String, Vec<u32>> {
    snapshot_twins(service)
        .into_iter()
        .map(|(id, twin)| (id, bits(&twin.forecast().expect("twin forecast"))))
        .collect()
}

/// What [`Twin::interval`] expects a healthy entity's interval to be.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedInterval {
    pub point: Vec<f32>,
    pub offset_lo: f32,
    pub offset_hi: f32,
    pub reserve_offset: f32,
    pub calibration: Calibration,
}

/// What [`Twin::reserve`] expects a healthy entity's reservation to be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpectedReservation {
    pub target: f32,
    pub reservation: f32,
    pub action: ScaleAction,
}

/// One entity as the shard's contract describes it, written against the
/// public `rptcn` pieces only and with no memo: every forecast is a model
/// run. Driven with the samples the service is given, it must answer what
/// the service answers, bit for bit.
pub struct Twin {
    pub predictor: ResourcePredictor,
    /// `false` once the service is known to have degraded the entity: the
    /// fallback answers from then on.
    pub healthy: bool,
    fallback: FallbackForecaster,
    target_column: usize,
    horizon: usize,
    score_on_ingest: bool,
    coverage: f64,
    rule: DecisionRule,
    pending: Option<f32>,
    last_valid: Option<Vec<f32>>,
    next_seq: Option<u64>,
    conformal: ConformalState,
    hysteresis: HysteresisState,
}

/// The shard's forward-fill cap for sequence gaps.
const MAX_GAP_FILL: u64 = 4;

impl Twin {
    /// The twin of an entity just installed from `state` under `config`.
    pub fn install(state: &PredictorState, config: &ServiceConfig) -> Twin {
        let predictor = ResourcePredictor::from_state(state).expect("twin from state");
        let target = &predictor.config().target;
        let target_column = predictor
            .column_names()
            .iter()
            .position(|name| name == target)
            .expect("target column");
        let mut fallback = FallbackForecaster::default();
        fallback.seed(&predictor.target_history(64));
        Twin {
            healthy: true,
            fallback,
            target_column,
            horizon: predictor.config().horizon,
            score_on_ingest: config.score_on_ingest,
            coverage: config.interval_coverage,
            rule: DecisionRule::new(config.decision),
            pending: None,
            last_valid: predictor
                .last_sample()
                .filter(|s| s.iter().all(|v| v.is_finite())),
            next_seq: None,
            conformal: ConformalState::new(config.residual_window),
            hysteresis: HysteresisState::default(),
            predictor,
        }
    }

    /// Twins of every entity the service holds right now (call it before
    /// the first sample: slot state outside the predictor is not captured).
    pub fn fleet(service: &PredictionService, config: &ServiceConfig) -> BTreeMap<String, Twin> {
        service
            .snapshot_entities()
            .expect("snapshot")
            .iter()
            .map(|(id, state)| (id.clone(), Twin::install(state, config)))
            .collect()
    }

    /// `ingest`: a finite sample of the right arity.
    pub fn ingest(&mut self, sample: &[f32]) {
        self.apply(sample.to_vec());
    }

    /// `ingest_at`: stale replays are dropped, gaps forward-filled from the
    /// last valid sample (up to the cap) before the sample itself.
    pub fn ingest_at(&mut self, seq: u64, sample: &[f32]) {
        match self.next_seq {
            Some(expected) if seq < expected => return,
            Some(expected) if seq > expected => {
                if let Some(fill) = self.last_valid.clone() {
                    for _ in 0..(seq - expected).min(MAX_GAP_FILL) {
                        self.predictor.observe(&fill).expect("gap fill");
                    }
                }
            }
            _ => {}
        }
        self.next_seq = Some(seq + 1);
        self.apply(sample.to_vec());
    }

    /// A sample with non-finite values under `IngestGuard::Repair`: each is
    /// replaced by the last valid sample's value.
    pub fn ingest_repaired(&mut self, sample: &[f32]) {
        let last = self
            .last_valid
            .clone()
            .expect("a valid sample to fill from");
        let repaired = sample
            .iter()
            .zip(&last)
            .map(|(&v, &lv)| if v.is_finite() { v } else { lv })
            .collect();
        self.apply(repaired);
    }

    fn apply(&mut self, sample: Vec<f32>) {
        let actual = sample[self.target_column];
        if let Some(forecast) = self.pending.take() {
            self.conformal.push(actual - forecast);
        }
        self.predictor.observe(&sample).expect("observe");
        self.fallback.observe(actual);
        self.last_valid = Some(sample);
        if self.score_on_ingest {
            self.pending = Some(self.forecast()[0]);
        }
    }

    /// What `forecast` must answer: the model while healthy, the fallback
    /// once degraded.
    pub fn forecast(&self) -> Vec<f32> {
        if self.healthy {
            self.predictor.forecast().expect("twin forecast")
        } else {
            self.fallback.forecast(self.horizon).expect("warm fallback")
        }
    }

    /// What `forecast_with_interval` must answer for a healthy entity.
    pub fn interval(&self) -> ExpectedInterval {
        assert!(self.healthy, "degraded intervals are not modelled");
        let calibration = self.conformal.calibration();
        let (offset_lo, offset_hi, reserve_offset) = match calibration {
            Calibration::Calibrated => {
                let (lo, hi) = self.conformal.interval_offsets(self.coverage);
                let tau = self.rule.config().cost.critical_ratio();
                (lo, hi, self.conformal.upper_offset(tau))
            }
            Calibration::Insufficient => {
                let w = self.conformal.max_abs() + self.rule.config().cold_start_headroom;
                (-w, w, w)
            }
        };
        ExpectedInterval {
            point: self.forecast(),
            offset_lo,
            offset_hi,
            reserve_offset,
            calibration,
        }
    }

    /// What `reserve` must answer for a healthy entity; advances the
    /// hysteresis state, so call it once per service reservation.
    pub fn reserve(&mut self) -> ExpectedReservation {
        let interval = self.interval();
        let peak = interval
            .point
            .iter()
            .fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let target = self.rule.target(peak, interval.reserve_offset);
        let decision = self.rule.decide(&mut self.hysteresis, target);
        ExpectedReservation {
            target,
            reservation: decision.reservation,
            action: decision.action,
        }
    }
}

/// Every read route of `id` — `forecast`, `forecast_many` over `batch`,
/// `forecast_with_interval` and `reserve` — against its twin, in bits.
pub fn assert_reads_match(
    service: &PredictionService,
    twins: &mut BTreeMap<String, Twin>,
    batch: &[&str],
    what: &str,
) {
    for (id, res) in service.forecast_many(batch) {
        let served = res.unwrap_or_else(|e| panic!("{what}: forecast_many {id}: {e}"));
        assert_eq!(
            bits(&served),
            bits(&twins[&id].forecast()),
            "{what}: forecast_many {id}"
        );
    }
    for &id in batch {
        let twin = twins.get_mut(id).expect("twin");
        let served = service
            .forecast(id)
            .unwrap_or_else(|e| panic!("{what}: forecast {id}: {e}"));
        assert_eq!(
            bits(&served),
            bits(&twin.forecast()),
            "{what}: forecast {id}"
        );
        if !twin.healthy {
            continue;
        }
        let interval = service
            .forecast_with_interval(id)
            .unwrap_or_else(|e| panic!("{what}: interval {id}: {e}"));
        let expected = twin.interval();
        assert_eq!(
            bits(&interval.point),
            bits(&expected.point),
            "{what}: interval {id}"
        );
        assert_eq!(
            (
                interval.offset_lo.to_bits(),
                interval.offset_hi.to_bits(),
                interval.calibration
            ),
            (
                expected.offset_lo.to_bits(),
                expected.offset_hi.to_bits(),
                expected.calibration
            ),
            "{what}: interval offsets {id}"
        );
        let reservation = service
            .reserve(id)
            .unwrap_or_else(|e| panic!("{what}: reserve {id}: {e}"));
        let expected = twin.reserve();
        assert_eq!(
            (
                reservation.target.to_bits(),
                reservation.reservation.to_bits(),
                reservation.action
            ),
            (
                expected.target.to_bits(),
                expected.reservation.to_bits(),
                expected.action
            ),
            "{what}: reserve {id}"
        );
    }
}
