//! # rptcn — the end-to-end resource-prediction system
//!
//! Ties the substrates together into the system the paper describes:
//!
//! * [`pipeline`] — Algorithm 1 as a typed pipeline
//!   ([`pipeline::prepare`] → [`pipeline::run_model`]): cleaning,
//!   min-max normalisation, Pearson top-half screening, horizontal data
//!   expansion, windowing and the 6:2:2 chronological split.
//! * [`scenario`] — the Uni / Mul / Mul-Exp input scenarios of Table II.
//! * [`predictor`] — an online [`predictor::ResourcePredictor`] that ingests
//!   monitoring samples, serves rolling forecasts and retrains periodically.
//! * [`decide`] — probabilistic reservations, the use-case motivating the
//!   paper: split-conformal intervals from rolling residuals
//!   ([`decide::ConformalState`]) driving a Bayesian cost-model decision
//!   rule with hysteresis ([`decide::DecisionPlanner`]), scored on
//!   over-/under-allocation.
//! * [`placement`] — the fleet tier's consistent-hash ring
//!   ([`placement::HashRing`]) and the ownership audit the chaos suites
//!   check a fleet's holdings against.
//! * [`observe`] — spans and counters around the pipeline stages
//!   ([`observe::PipelineObs`]), registered in a shared `obs::Registry`.
//!
//! ```
//! use rptcn::{prepare, run_model, PipelineConfig, Scenario};
//! use cloudtrace::{ContainerConfig, WorkloadClass};
//! use models::{Forecaster, NaiveForecaster};
//!
//! let frame = cloudtrace::container::generate_container(
//!     &ContainerConfig::new(WorkloadClass::HighDynamic, 600, 7).with_diurnal_period(300),
//! );
//! let cfg = PipelineConfig { window: 12, scenario: Scenario::Mul, ..Default::default() };
//! let data = prepare(&frame, &cfg).unwrap();
//! let run = run_model(&mut NaiveForecaster::new(), &data);
//! assert!(run.test_metrics.mse.is_finite());
//! ```

// R2: no panics outside tests.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
// R5: documented public API.
#![warn(missing_docs)]

pub mod decide;
pub mod observe;
pub mod pipeline;
pub mod placement;
pub mod predictor;
pub mod scenario;

pub use decide::{
    Calibration, ConformalState, CostModel, Decision, DecisionConfig, DecisionPlanner,
    DecisionRule, DecisionStats, HysteresisConfig, HysteresisState, ScaleAction,
};
pub use observe::PipelineObs;
pub use pipeline::{
    prepare, run_model, FittedPreprocess, PipelineConfig, PipelineRun, PreparedData, ScalerScope,
};
pub use placement::{HashRing, OwnershipAudit};
pub use predictor::{new_shared_group, PredictorState, ResourcePredictor};
pub use scenario::Scenario;
