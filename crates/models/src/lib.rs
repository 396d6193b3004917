//! # models — RPTCN and every baseline the paper compares against
//!
//! All five models of Table II behind one [`Forecaster`] trait:
//!
//! | Model | Module | Notes |
//! |---|---|---|
//! | RPTCN | [`rptcn`] | TCN + fully-connected layer + attention (the paper's contribution), with ablation flags for each component |
//! | TCN | [`tcn`] | plain backbone + dense head (ablation reference) |
//! | LSTM | [`lstm`] | stacked LSTM baseline |
//! | CNN-LSTM | [`cnn_lstm`] | causal conv feature extractor + LSTM |
//! | XGBoost | [`gbt`] | from-scratch second-order gradient-boosted trees |
//! | ARIMA | [`arima`] | Hannan–Rissanen-estimated ARIMA(p, d, q) |
//! | Naive | [`forecaster::NaiveForecaster`] | persistence sanity floor |
//!
//! Deep models share [`neural::NeuralTrainSpec`] (Adam + MSE +
//! early stopping), mirroring the paper's Keras setup.

// R2: no panics outside tests.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub mod arima;
pub mod checkpoint;
pub mod cnn_lstm;
pub mod ets;
pub mod forecaster;
pub mod gbt;
pub mod gru;
pub mod linear;
pub mod lstm;
mod neural;
pub mod rptcn;
pub mod streaming;
pub mod tcn;

pub use arima::{ArimaConfig, ArimaForecaster};
pub use checkpoint::{
    forecaster_from_state, forecaster_like, load_model, save_model, CheckpointError, ModelState,
};
pub use cnn_lstm::{CnnLstmConfig, CnnLstmForecaster};
pub use ets::{EtsConfig, EtsForecaster, EtsVariant};
pub use forecaster::{FitReport, Forecaster, NaiveForecaster};
pub use gbt::{GbtConfig, GbtForecaster};
pub use gru::{GruConfig, GruForecaster};
pub use linear::{LinearConfig, LinearForecaster};
pub use lstm::{LstmConfig, LstmForecaster};
pub use neural::NeuralTrainSpec;
pub use rptcn::{AttentionKind, RptcnConfig, RptcnForecaster};
pub use streaming::{StreamingError, StreamingRptcn};
pub use tcn::{TcnBackbone, TcnConfig, TcnForecaster, TemporalBlock};
