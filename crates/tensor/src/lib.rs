//! # tensor — dense numerical kernels for the RPTCN reproduction
//!
//! A deliberately small, dependency-light numerical core:
//!
//! * [`Tensor`] — an owned, contiguous, row-major `f32` n-d array.
//! * [`ops`] — elementwise arithmetic with NumPy-style broadcasting.
//! * [`gemm`] — the GEMM microkernel: safe Rust, multiply and add
//!   separate, bitwise equal to its scalar reference on every host.
//! * [`matmul`] — matrix products routed through [`gemm`] (plus
//!   fused-transpose variants used by the autodiff backward passes).
//! * [`reduce`] — full and per-axis reductions, stable softmax.
//! * [`linalg`] — Cholesky / OLS / Levinson–Durbin for the ARIMA baseline.
//! * [`stats`] — moments, Pearson correlation, quantiles, autocovariance.
//! * [`rng`] — seedable RNG with the distributions the workspace needs.
//!
//! Everything upstream (`autograd`, `models`, `cloudtrace`, …) builds on these
//! primitives, so this crate carries the densest test coverage, including
//! property-based tests in `tests/`.

#![forbid(unsafe_code)]

pub mod gemm;
pub mod linalg;
pub mod matmul;
pub mod ops;
pub mod reduce;
pub mod rng;
pub mod shape;
pub mod stats;
mod tensor;

pub use rng::Rng;
pub use shape::ShapeError;
pub use tensor::Tensor;
