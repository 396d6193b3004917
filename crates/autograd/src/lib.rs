//! # autograd — reverse-mode autodiff and neural-network toolkit
//!
//! Everything the RPTCN reproduction needs to train deep models on CPU,
//! written from scratch on top of the `tensor` crate:
//!
//! * [`Graph`] — an eager, tape-based reverse-mode autodiff engine. Building
//!   an expression *is* the forward pass; [`Graph::backward`] returns
//!   per-parameter [`Gradients`].
//! * [`Exec`] — the seam forward passes are written over, with two
//!   backends: [`Tape`] records on a `Graph` (training, and the taped
//!   reference path), [`Arena`] evaluates in place in pooled scratch
//!   buffers ([`infer`], serving). A layer or model has one body, generic
//!   over `Exec`; the backends are held together per primitive, bit for
//!   bit (`tests/exec_parity.rs`).
//! * [`layers`] — `Linear`, dilated-causal `CausalConv1d` (with weight
//!   normalisation), `Lstm`, `Gru`, `Dropout` (incl. the spatial variant)
//!   and the paper's attention mechanisms, each written once over `Exec`.
//! * [`optim`] — Adam behind the [`optim::Optimizer`] trait.
//! * [`loss`] — MSE / MAE / Huber as tape compositions.
//! * [`train`] — mini-batch [`train::fit`] loop with validation tracking and
//!   Keras-style early stopping (`patience`), producing the
//!   [`train::TrainHistory`] the convergence figures are drawn from; and
//!   [`SequenceModel`], whose one required method is the network.
//!
//! The design decision worth knowing: one `Graph` per training step,
//! borrowing the [`ParamStore`] immutably. Gradients come back as a separate
//! value, so optimisers take `(&mut ParamStore, &Gradients)` with no interior
//! mutability anywhere.

// The crate's one unsafe item is the AVX-compiled wrapper of the safe
// kept-column kernel; make every unsafe operation inside an `unsafe fn`
// carry its own block + SAFETY note.
#![deny(unsafe_op_in_unsafe_fn)]

mod conv_kernels;
mod exec;
mod graph;
pub mod infer;
pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
mod params;
pub mod train;

pub use conv_kernels::{
    conv1d_backward_input, conv1d_backward_weight, conv1d_forward, conv1d_into,
};
pub use exec::{Exec, Tape};
pub use graph::{Graph, Var};
pub use infer::{Arena, InferenceContext};
pub use init::Init;
pub use loss::LossKind;
pub use params::{Gradients, ParamId, ParamStore, RestoreError};
pub use train::{fit, predict, SequenceModel, TrainConfig, TrainHistory};
