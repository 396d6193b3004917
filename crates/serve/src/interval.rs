//! Public types for probabilistic serving: interval forecasts and
//! capacity reservations (the serve-side face of `rptcn::decide`).
//!
//! An interval is represented as the point forecast plus two *scalar*
//! offsets — the conformal lower/upper margins apply to every step of the
//! horizon — so attaching an interval to a streaming forecast costs two
//! floats, not another vector: zero extra allocations on the hot path.

use rptcn::{Calibration, ScaleAction};

/// Where an interval's numbers came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalSource {
    /// Healthy entity: live point forecast + live conformal offsets.
    Live,
    /// Degraded entity answered from its last-good interval (journaled as
    /// `interval_fallback`) — never an uncovered point estimate.
    LastGood,
    /// Degraded entity with no last-good interval yet: the fallback point
    /// widened by the largest residual magnitude ever observed.
    Widened,
}

/// A point forecast with calibrated conformal interval offsets.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalForecast {
    /// Per-step point forecast (same values as [`crate::PredictionService::forecast`]).
    pub point: Vec<f32>,
    /// Signed offset to add below each point value (usually negative).
    pub offset_lo: f32,
    /// Offset to add above each point value.
    pub offset_hi: f32,
    /// Whether the offsets carry the conformal coverage guarantee.
    pub calibration: Calibration,
    /// Provenance of the numbers.
    pub source: IntervalSource,
}

impl IntervalForecast {
    /// Lower interval bound for horizon step `i`.
    pub fn lower(&self, i: usize) -> f32 {
        self.point[i] + self.offset_lo
    }

    /// Upper interval bound for horizon step `i`.
    // lint: allow(r10) test: chaos.rs and interval_parity.rs check lower ≤ upper on served intervals
    pub fn upper(&self, i: usize) -> f32 {
        self.point[i] + self.offset_hi
    }

    /// Horizon length of the point forecast.
    pub fn len(&self) -> usize {
        self.point.len()
    }

    /// True when the point forecast is empty.
    pub fn is_empty(&self) -> bool {
        self.point.is_empty()
    }
}

/// One capacity-reservation decision for an entity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reservation {
    /// The raw Bayesian target: peak point forecast plus the conformal
    /// offset at the cost model's critical ratio, clamped.
    pub target: f32,
    /// The standing reservation after hysteresis.
    pub reservation: f32,
    /// How the standing reservation changed.
    pub action: ScaleAction,
    /// Calibration of the offsets behind the target.
    pub calibration: Calibration,
    /// Provenance of the interval behind the target.
    pub source: IntervalSource,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_point_plus_scalar_offsets() {
        let iv = IntervalForecast {
            point: vec![0.5, 0.6],
            offset_lo: -0.1,
            offset_hi: 0.2,
            calibration: Calibration::Calibrated,
            source: IntervalSource::Live,
        };
        assert!((iv.lower(0) - 0.4).abs() < 1e-6);
        assert!((iv.upper(1) - 0.8).abs() < 1e-6);
        assert_eq!(iv.len(), 2);
        assert!(!iv.is_empty());
    }
}
