//! Bayesian autoscaling decisions on top of probabilistic forecasts —
//! the layer where predictions become reservations (ROADMAP item 1,
//! following the two-stage forecast→decision design of arxiv 2408.01000).
//!
//! The pieces compose left to right:
//!
//! * [`conformal::ConformalState`] turns any forecaster's rolling
//!   residuals into calibrated interval offsets (split conformal).
//! * [`CostModel`] prices the two failure modes — an SLO violation versus
//!   a unit of stranded capacity — and yields the newsvendor critical
//!   ratio `τ = c_v / (c_v + c_o)`: reserving at the `τ`-quantile of the
//!   demand distribution minimises expected cost.
//! * [`DecisionRule`] maps `forecast + upper_offset(τ)` to a clamped
//!   reservation and applies hysteresis so the `scale_action_cost` is not
//!   paid twice per oscillation.
//! * [`DecisionPlanner`] bundles the three with outcome accounting.

pub mod conformal;

pub use conformal::{Calibration, ConformalState, MIN_CALIBRATION_SAMPLES};

/// Economic weights of the three ways an autoscaler can spend money.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of one step where demand exceeds the reservation.
    pub slo_violation_cost: f64,
    /// Cost of one unit of reserved-but-idle capacity for one step.
    pub overprovision_cost_per_unit: f64,
    /// Cost of executing one scaling action (up or down).
    pub scale_action_cost: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Violations an order of magnitude dearer than idle capacity —
        // the asymmetry Figs 2–3 of the paper motivate.
        Self {
            slo_violation_cost: 10.0,
            overprovision_cost_per_unit: 1.0,
            scale_action_cost: 0.05,
        }
    }
}

impl CostModel {
    /// Newsvendor critical ratio `c_v / (c_v + c_o)`: the demand quantile
    /// at which expected violation cost and expected waste cost balance.
    /// Degenerate (non-positive or non-finite) costs clamp to `[0, 1]`
    /// with an all-violation-cost prior of `1.0`.
    pub fn critical_ratio(&self) -> f64 {
        let v = self.slo_violation_cost.max(0.0);
        let o = self.overprovision_cost_per_unit.max(0.0);
        let denom = v + o;
        if !denom.is_finite() || denom <= 0.0 {
            return 1.0;
        }
        (v / denom).clamp(0.0, 1.0)
    }
}

/// Hysteresis knobs: when a lower reservation target is allowed to
/// actually shrink the reservation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HysteresisConfig {
    /// A target must sit at least this far below the current reservation
    /// to count as a down-pressure step.
    pub down_deadband: f32,
    /// Consecutive down-pressure steps required before scaling down.
    pub min_hold_steps: u32,
}

impl Default for HysteresisConfig {
    fn default() -> Self {
        Self {
            down_deadband: 0.05,
            min_hold_steps: 3,
        }
    }
}

/// Per-entity hysteresis memory: the standing reservation and how long
/// demand has been pressing below it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HysteresisState {
    current: Option<f32>,
    held: u32,
}

impl HysteresisState {
    /// The standing reservation, if one has been made.
    pub fn current(&self) -> Option<f32> {
        self.current
    }

    /// Consecutive steps the target has pressed below the deadband.
    pub fn held(&self) -> u32 {
        self.held
    }
}

/// What a decision did to the standing reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Reservation unchanged.
    Hold,
    /// Reservation raised (SLO pressure wins immediately).
    Up,
    /// Reservation lowered after the hysteresis hold.
    Down,
}

/// One autoscaling decision: the reservation now standing and how it
/// changed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Capacity reserved for the entity after this step.
    pub reservation: f32,
    /// How the standing reservation changed.
    pub action: ScaleAction,
}

/// Everything the decision rule needs besides the live interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionConfig {
    /// Failure-mode prices; sets the reservation quantile.
    pub cost: CostModel,
    /// Scale-down damping.
    pub hysteresis: HysteresisConfig,
    /// Safety margin used while the conformal window is still
    /// [`Calibration::Insufficient`] — the prior uncertainty before any
    /// residual evidence exists.
    pub cold_start_headroom: f32,
    /// Reservation bounds (fractions of machine capacity).
    pub min_alloc: f32,
    /// Upper reservation bound.
    pub max_alloc: f32,
}

impl Default for DecisionConfig {
    fn default() -> Self {
        Self {
            cost: CostModel::default(),
            hysteresis: HysteresisConfig::default(),
            cold_start_headroom: 0.05,
            min_alloc: 0.05,
            max_alloc: 1.0,
        }
    }
}

/// Stateless decision logic: `(target, hysteresis state) → decision`.
#[derive(Debug, Clone, Copy)]
pub struct DecisionRule {
    config: DecisionConfig,
}

impl DecisionRule {
    /// A rule with the given economics.
    pub fn new(config: DecisionConfig) -> Self {
        Self { config }
    }

    /// The rule's configuration.
    pub fn config(&self) -> &DecisionConfig {
        &self.config
    }

    /// The reservation target for a point forecast and a calibrated upper
    /// interval offset: `forecast + offset` at the critical ratio, clamped
    /// to the configured bounds. Non-finite inputs clamp to `max_alloc`
    /// (reserve high when the forecast is garbage, never panic).
    pub fn target(&self, forecast: f32, upper_offset: f32) -> f32 {
        let raw = forecast + upper_offset;
        let raw = if raw.is_finite() {
            raw
        } else {
            self.config.max_alloc
        };
        raw.clamp(self.config.min_alloc, self.config.max_alloc)
    }

    /// Apply hysteresis: scale up immediately when the target exceeds the
    /// standing reservation (violations are the expensive failure mode);
    /// scale down only after `min_hold_steps` consecutive steps below the
    /// deadband AND when the waste recovered over the hold window exceeds
    /// `scale_action_cost`. A target back inside the deadband resets the
    /// hold counter.
    pub fn decide(&self, state: &mut HysteresisState, target: f32) -> Decision {
        let target = target.clamp(self.config.min_alloc, self.config.max_alloc);
        let cur = match state.current {
            None => {
                state.current = Some(target);
                state.held = 0;
                return Decision {
                    reservation: target,
                    action: ScaleAction::Up,
                };
            }
            Some(c) => c,
        };
        if target > cur {
            state.current = Some(target);
            state.held = 0;
            return Decision {
                reservation: target,
                action: ScaleAction::Up,
            };
        }
        let h = &self.config.hysteresis;
        if target < cur - h.down_deadband {
            state.held = state.held.saturating_add(1);
            let hold_window = h.min_hold_steps.max(1) as f64;
            let recovered =
                (cur - target) as f64 * self.config.cost.overprovision_cost_per_unit * hold_window;
            if state.held >= h.min_hold_steps && recovered >= self.config.cost.scale_action_cost {
                state.current = Some(target);
                state.held = 0;
                return Decision {
                    reservation: target,
                    action: ScaleAction::Down,
                };
            }
        } else {
            state.held = 0;
        }
        Decision {
            reservation: cur,
            action: ScaleAction::Hold,
        }
    }
}

/// Cumulative decision outcomes over a replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionStats {
    /// Reservations made.
    pub decisions: usize,
    /// Steps where demand exceeded the reservation.
    pub violations: usize,
    /// Scale-up actions executed.
    pub scale_ups: usize,
    /// Scale-down actions executed.
    pub scale_downs: usize,
    /// Sum of `reservation − actual` over slack steps (stranded capacity).
    pub total_waste: f64,
    /// Sum of `actual − reservation` over violation steps.
    pub total_deficit: f64,
}

impl DecisionStats {
    /// Fraction of decisions that under-reserved.
    pub fn violation_rate(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.violations as f64 / self.decisions as f64
        }
    }

    /// Mean stranded capacity per decision.
    pub fn mean_waste(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.total_waste / self.decisions as f64
        }
    }

    /// Scaling actions per decision — the churn the hysteresis damps.
    pub fn churn(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            (self.scale_ups + self.scale_downs) as f64 / self.decisions as f64
        }
    }

    /// Total expected cost under a [`CostModel`] — the single scalar the
    /// bench compares across policies.
    pub fn cost(&self, model: &CostModel) -> f64 {
        self.violations as f64 * model.slo_violation_cost
            + self.total_waste * model.overprovision_cost_per_unit
            + (self.scale_ups + self.scale_downs) as f64 * model.scale_action_cost
    }
}

/// Conformal interval + Bayesian decision rule + hysteresis + accounting
/// for one entity.
#[derive(Debug, Clone)]
pub struct DecisionPlanner {
    rule: DecisionRule,
    conformal: ConformalState,
    hysteresis: HysteresisState,
    stats: DecisionStats,
}

impl DecisionPlanner {
    /// A planner with an empty residual window and zeroed counters.
    /// `residual_window` sizes the conformal calibration set.
    pub fn new(config: DecisionConfig, residual_window: usize) -> Self {
        Self {
            rule: DecisionRule::new(config),
            conformal: ConformalState::new(residual_window),
            hysteresis: HysteresisState::default(),
            stats: DecisionStats::default(),
        }
    }

    /// The decision rule in force.
    pub fn rule(&self) -> &DecisionRule {
        &self.rule
    }

    /// The live conformal window.
    pub fn conformal(&self) -> &ConformalState {
        &self.conformal
    }

    /// Reserve capacity for a point forecast: the conformal upper offset
    /// at the critical ratio when calibrated, the cold-start headroom plus
    /// max-magnitude widening otherwise, then hysteresis.
    pub fn reserve(&mut self, predicted: f32) -> Decision {
        let tau = self.rule.config().cost.critical_ratio();
        let offset = match self.conformal.calibration() {
            Calibration::Calibrated => self.conformal.upper_offset(tau),
            Calibration::Insufficient => {
                self.conformal.max_abs() + self.rule.config().cold_start_headroom
            }
        };
        let target = self.rule.target(predicted, offset);
        let decision = self.rule.decide(&mut self.hysteresis, target);
        self.stats.decisions += 1;
        match decision.action {
            ScaleAction::Up => self.stats.scale_ups += 1,
            ScaleAction::Down => self.stats.scale_downs += 1,
            ScaleAction::Hold => {}
        }
        decision
    }

    /// Record the realised demand for a past decision: feeds the signed
    /// residual to the conformal window and updates outcome accounting.
    pub fn settle(&mut self, predicted: f32, reserved: f32, actual: f32) {
        self.conformal.push(actual - predicted);
        if actual > reserved {
            self.stats.violations += 1;
            self.stats.total_deficit += (actual - reserved) as f64;
        } else {
            self.stats.total_waste += (reserved - actual) as f64;
        }
    }

    /// Cumulative outcomes observed so far.
    pub fn stats(&self) -> &DecisionStats {
        &self.stats
    }

    /// Replay a `(prediction, actual)` sequence and return the outcome
    /// statistics. Mismatched lengths replay the common prefix.
    pub fn replay(&mut self, predictions: &[f32], actuals: &[f32]) -> DecisionStats {
        for (&p, &a) in predictions.iter().zip(actuals) {
            let d = self.reserve(p);
            self.settle(p, d.reservation, a);
        }
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_ratio_is_the_newsvendor_quantile() {
        let cost = CostModel {
            slo_violation_cost: 9.0,
            overprovision_cost_per_unit: 1.0,
            scale_action_cost: 0.0,
        };
        assert!((cost.critical_ratio() - 0.9).abs() < 1e-12);
        let degenerate = CostModel {
            slo_violation_cost: 0.0,
            overprovision_cost_per_unit: 0.0,
            scale_action_cost: 0.0,
        };
        assert_eq!(degenerate.critical_ratio(), 1.0);
    }

    #[test]
    fn scale_up_is_immediate_scale_down_is_held() {
        let rule = DecisionRule::new(DecisionConfig {
            hysteresis: HysteresisConfig {
                down_deadband: 0.05,
                min_hold_steps: 3,
            },
            ..Default::default()
        });
        let mut st = HysteresisState::default();
        assert_eq!(rule.decide(&mut st, 0.5).action, ScaleAction::Up);
        assert_eq!(rule.decide(&mut st, 0.8).action, ScaleAction::Up);
        // Big drop: held for two steps, executed on the third.
        assert_eq!(rule.decide(&mut st, 0.3).action, ScaleAction::Hold);
        assert_eq!(rule.decide(&mut st, 0.3).action, ScaleAction::Hold);
        let d = rule.decide(&mut st, 0.3);
        assert_eq!(d.action, ScaleAction::Down);
        assert!((d.reservation - 0.3).abs() < 1e-6);
    }

    #[test]
    fn oscillating_demand_inside_the_deadband_never_churns() {
        let rule = DecisionRule::new(DecisionConfig::default());
        let mut st = HysteresisState::default();
        rule.decide(&mut st, 0.6);
        let mut actions = Vec::new();
        for i in 0..20 {
            // Oscillate between 0.56 and 0.60 — inside the 0.05 deadband.
            let t = if i % 2 == 0 { 0.56 } else { 0.60 };
            actions.push(rule.decide(&mut st, t).action);
        }
        assert!(
            actions.iter().all(|&a| a == ScaleAction::Hold),
            "deadband oscillation caused churn: {actions:?}"
        );
    }

    #[test]
    fn oscillation_across_the_deadband_resets_the_hold() {
        let rule = DecisionRule::new(DecisionConfig {
            hysteresis: HysteresisConfig {
                down_deadband: 0.05,
                min_hold_steps: 3,
            },
            ..Default::default()
        });
        let mut st = HysteresisState::default();
        rule.decide(&mut st, 0.6);
        // Demand dips below the deadband but pops back before the hold
        // expires — the reservation must never come down.
        for _ in 0..5 {
            assert_eq!(rule.decide(&mut st, 0.4).action, ScaleAction::Hold);
            assert_eq!(rule.decide(&mut st, 0.4).action, ScaleAction::Hold);
            assert_eq!(rule.decide(&mut st, 0.58).action, ScaleAction::Hold);
        }
        assert_eq!(st.current(), Some(0.6));
    }

    #[test]
    fn tiny_savings_never_pay_the_action_cost() {
        let rule = DecisionRule::new(DecisionConfig {
            cost: CostModel {
                slo_violation_cost: 10.0,
                overprovision_cost_per_unit: 1.0,
                scale_action_cost: 10.0, // prohibitively expensive actions
            },
            hysteresis: HysteresisConfig {
                down_deadband: 0.05,
                min_hold_steps: 1,
            },
            ..Default::default()
        });
        let mut st = HysteresisState::default();
        rule.decide(&mut st, 0.6);
        // 0.1 below: recovered = 0.1·1·1 < 10 → stay put forever.
        for _ in 0..10 {
            assert_eq!(rule.decide(&mut st, 0.5).action, ScaleAction::Hold);
        }
    }

    #[test]
    fn non_finite_targets_reserve_high_not_panic() {
        let rule = DecisionRule::new(DecisionConfig::default());
        assert_eq!(rule.target(f32::NAN, 0.0), 1.0);
        assert_eq!(rule.target(0.5, f32::INFINITY), 1.0);
        assert_eq!(rule.target(f32::NEG_INFINITY, 0.0), 1.0);
    }

    #[test]
    fn planner_learns_to_cover_biased_forecasts() {
        let mut planner = DecisionPlanner::new(DecisionConfig::default(), 64);
        // Forecasts consistently 0.2 low.
        let predictions = vec![0.4f32; 60];
        let actuals = vec![0.6f32; 60];
        let stats = planner.replay(&predictions, &actuals);
        // Cold start may violate; once calibrated the 0.2 residual is in
        // the window and every reservation covers.
        assert!(
            stats.violations <= MIN_CALIBRATION_SAMPLES,
            "calibrated planner kept violating: {stats:?}"
        );
        assert!(stats.violation_rate() < 0.2);
    }

    #[test]
    fn planner_churn_stays_low_on_noise() {
        let mut planner = DecisionPlanner::new(DecisionConfig::default(), 64);
        // Deterministic pseudo-noise around 0.5.
        let actuals: Vec<f32> = (0..200)
            .map(|i| 0.5 + 0.03 * ((i * 7919 % 13) as f32 / 13.0 - 0.5))
            .collect();
        let predictions = vec![0.5f32; 200];
        let stats = planner.replay(&predictions, &actuals);
        assert!(
            stats.churn() < 0.2,
            "noisy demand churned: {}",
            stats.churn()
        );
    }

    #[test]
    fn stats_cost_weights_all_three_terms() {
        let stats = DecisionStats {
            decisions: 10,
            violations: 2,
            scale_ups: 3,
            scale_downs: 1,
            total_waste: 4.0,
            total_deficit: 0.5,
        };
        let cost = stats.cost(&CostModel {
            slo_violation_cost: 10.0,
            overprovision_cost_per_unit: 1.0,
            scale_action_cost: 0.25,
        });
        assert!((cost - (20.0 + 4.0 + 1.0)).abs() < 1e-12);
    }
}
