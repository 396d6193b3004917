//! An entity's predictor together with the model forecast of its
//! *current* state.
//!
//! Between two samples of an entity nothing its forecast depends on
//! changes — history tail, weights and scaler all live inside the
//! [`ResourcePredictor`] — while forecast, interval and reservation reads
//! ask for that forecast several times. The shard therefore keeps what
//! [`ResourcePredictor::forecast`] returned and answers reads from it
//! until the predictor is written.
//!
//! Invalidation is structural (the `ParamStore` pattern of
//! `autograd::params`): the predictor is private to this module, shared
//! reads go through `Deref`, and the only routes to a `&mut` predictor —
//! [`MemoPredictor::mutate`] and [`MemoPredictor::replace`] — drop the
//! memo first. A mutator added later cannot leave a stale forecast behind,
//! because it cannot reach the predictor any other way.
//!
//! The memo holds only a usable model forecast (non-empty, all finite) of
//! the state it sits beside: never a fallback forecast, never offsets or
//! reservations (those depend on conformal and hysteresis state outside
//! the predictor). It is not part of `PredictorState`, so an installed,
//! restored or migrated entity starts cold.

use std::ops::Deref;

use rptcn::ResourcePredictor;

pub(crate) struct MemoPredictor {
    predictor: ResourcePredictor,
    forecast: Option<Vec<f32>>,
}

/// Whether a model forecast may be served (and kept): anything else flips
/// the entity to degraded mode.
pub(crate) fn usable(forecast: &[f32]) -> bool {
    !forecast.is_empty() && forecast.iter().all(|v| v.is_finite())
}

impl MemoPredictor {
    pub(crate) fn new(predictor: ResourcePredictor) -> Self {
        Self {
            predictor,
            forecast: None,
        }
    }

    /// The predictor, for writing. Whatever the caller does with it, the
    /// kept forecast no longer describes its state and is dropped.
    pub(crate) fn mutate(&mut self) -> &mut ResourcePredictor {
        self.forecast = None;
        &mut self.predictor
    }

    /// Swap in another predictor (a rebuild from a snapshot).
    pub(crate) fn replace(&mut self, predictor: ResourcePredictor) {
        *self = Self::new(predictor);
    }

    /// The model forecast of the current state, if one was kept since the
    /// last write.
    pub(crate) fn memo(&self) -> Option<&[f32]> {
        self.forecast.as_deref()
    }

    /// Keep `forecast` — what the model answered for the current state —
    /// until the next write. An unusable forecast is not kept.
    pub(crate) fn remember(&mut self, forecast: Vec<f32>) {
        self.forecast = usable(&forecast).then_some(forecast);
    }

    /// Drop the kept forecast without touching the predictor (the entity
    /// left `Healthy`: its model no longer answers).
    pub(crate) fn forget(&mut self) {
        self.forecast = None;
    }
}

impl Deref for MemoPredictor {
    type Target = ResourcePredictor;

    fn deref(&self) -> &ResourcePredictor {
        &self.predictor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::NaiveForecaster;
    use rptcn::{PipelineConfig, Scenario};
    use timeseries::TimeSeriesFrame;

    fn predictor() -> ResourcePredictor {
        let cpu: Vec<f32> = (0..64).map(|i| 40.0 + (i as f32 * 0.3).sin()).collect();
        let frame = TimeSeriesFrame::from_columns(&[("cpu_util_percent", cpu)]).unwrap();
        let cfg = PipelineConfig {
            scenario: Scenario::Uni,
            window: 8,
            horizon: 1,
            ..Default::default()
        };
        ResourcePredictor::fit(Box::new(NaiveForecaster::new()), &frame, cfg)
            .unwrap()
            .0
    }

    #[test]
    fn every_write_route_drops_the_memo() {
        let mut slot = MemoPredictor::new(predictor());
        assert!(slot.memo().is_none(), "a fresh predictor starts cold");

        slot.remember(vec![1.0]);
        assert_eq!(slot.memo(), Some(&[1.0][..]));
        // Shared reads leave it alone.
        let _ = slot.forecast().unwrap();
        assert!(slot.memo().is_some());

        // Handing out `&mut` is enough, even if the caller writes nothing.
        let _ = slot.mutate();
        assert!(slot.memo().is_none());

        slot.remember(vec![2.0]);
        slot.replace(predictor());
        assert!(slot.memo().is_none());

        slot.remember(vec![3.0]);
        slot.forget();
        assert!(slot.memo().is_none());
    }

    #[test]
    fn unusable_forecasts_are_never_kept() {
        let mut slot = MemoPredictor::new(predictor());
        for bad in [vec![], vec![f32::NAN], vec![1.0, f32::INFINITY]] {
            slot.remember(vec![1.0]);
            slot.remember(bad);
            assert!(slot.memo().is_none());
        }
    }
}
