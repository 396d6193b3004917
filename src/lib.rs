//! # rptcn-repro — reproduction of "RPTCN: Resource Prediction for
//! # High-dynamic Workloads in Clouds based on Deep Learning" (CLUSTER 2021)
//!
//! This umbrella crate re-exports the whole workspace so examples and
//! downstream users need a single dependency:
//!
//! * [`tensor`] — dense numerical kernels (ndarray-lite, linalg, stats).
//! * [`autograd`] — tape-based reverse-mode autodiff, layers, optimisers.
//! * [`timeseries`] — cleaning, scaling, PCC screening, expansion, windows.
//! * [`cloudtrace`] — synthetic Alibaba-v2018-style cluster traces.
//! * [`models`] — RPTCN plus the ARIMA / XGBoost / LSTM / CNN-LSTM baselines.
//! * [`rptcn`] — the Algorithm-1 pipeline, online predictor and
//!   reservation decisions.
//! * [`serve`] — sharded online prediction service with bounded ingest
//!   queues, background refits and fleet checkpointing.
//!
//! See `examples/quickstart.rs` for the 30-line happy path and DESIGN.md /
//! EXPERIMENTS.md for the experiment inventory.

pub use autograd;
pub use cloudtrace;
pub use models;
pub use rptcn;
pub use serve;
pub use tensor;
pub use timeseries;
