//! Shared plumbing for the deep forecasters: input-layout helpers and the
//! adapter that turns an `autograd::SequenceModel` into a [`Forecaster`].

use std::time::Instant;

use autograd::optim::Adam;
use autograd::{Exec, LossKind, SequenceModel, TrainConfig};
use tensor::{Rng, Tensor};
use timeseries::WindowedDataset;

use crate::forecaster::FitReport;

/// Training hyper-parameters shared by every deep model. Mirrors the
/// paper's Keras setup: Adam, MSE loss, `EarlyStopping(patience=10)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeuralTrainSpec {
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f32,
    pub clip_norm: f32,
    pub patience: usize,
    pub seed: u64,
}

impl Default for NeuralTrainSpec {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_size: 64,
            learning_rate: 1e-3,
            clip_norm: 5.0,
            patience: 10,
            seed: 0,
        }
    }
}

/// Append the training spec to a checkpoint's metadata table. The seed is
/// split into two u32 halves — every u32 is exactly representable as f64,
/// so the full 64-bit seed survives the trip losslessly.
pub(crate) fn push_spec_meta(state: &mut crate::checkpoint::ModelState, spec: &NeuralTrainSpec) {
    state.push_meta("spec.epochs", spec.epochs as f64);
    state.push_meta("spec.batch_size", spec.batch_size as f64);
    state.push_meta("spec.learning_rate", spec.learning_rate as f64);
    state.push_meta("spec.clip_norm", spec.clip_norm as f64);
    state.push_meta("spec.patience", spec.patience as f64);
    state.push_meta("spec.seed_lo", (spec.seed & 0xFFFF_FFFF) as f64);
    state.push_meta("spec.seed_hi", (spec.seed >> 32) as f64);
}

/// Inverse of [`push_spec_meta`].
pub(crate) fn spec_from_meta(
    state: &crate::checkpoint::ModelState,
) -> Result<NeuralTrainSpec, crate::checkpoint::CheckpointError> {
    let seed_lo = state.require_usize("spec.seed_lo")? as u64;
    let seed_hi = state.require_usize("spec.seed_hi")? as u64;
    Ok(NeuralTrainSpec {
        epochs: state.require_usize("spec.epochs")?,
        batch_size: state.require_usize("spec.batch_size")?,
        learning_rate: state.require_f32("spec.learning_rate")?,
        clip_norm: state.require_f32("spec.clip_norm")?,
        patience: state.require_usize("spec.patience")?,
        seed: (seed_hi << 32) | seed_lo,
    })
}

impl NeuralTrainSpec {
    /// Lower the spec into an autograd `TrainConfig` with an explicit
    /// training loss — plain MSE for the point models, the composite
    /// point + pinball loss for quantile-head models.
    pub(crate) fn to_train_config_with(self, loss: LossKind) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            loss,
            clip_norm: Some(self.clip_norm),
            patience: Some(self.patience),
            shuffle: true,
            seed: self.seed,
            // Online refits train unattended; keep the divergence guard at
            // its defaults so a bad refit rolls back instead of shipping
            // NaN weights to a serving entity.
            ..TrainConfig::default()
        }
    }
}

/// Fit a network and convert the history into a [`FitReport`].
pub(crate) fn fit_network<M: SequenceModel>(
    net: &mut M,
    spec: NeuralTrainSpec,
    train: &WindowedDataset,
    valid: Option<&WindowedDataset>,
) -> FitReport {
    fit_network_with_loss(net, spec, LossKind::Mse, train, valid)
}

/// [`fit_network`] with an explicit training loss (e.g. the composite
/// [`LossKind::PointInterval`] for multi-head quantile models).
pub(crate) fn fit_network_with_loss<M: SequenceModel>(
    net: &mut M,
    spec: NeuralTrainSpec,
    loss: LossKind,
    train: &WindowedDataset,
    valid: Option<&WindowedDataset>,
) -> FitReport {
    let start = Instant::now();
    let mut opt = Adam::new(spec.learning_rate);
    let history = autograd::fit(
        net,
        &train.x,
        &train.y,
        valid.map(|v| (&v.x, &v.y)),
        &mut opt,
        &spec.to_train_config_with(loss),
    );
    FitReport {
        train_loss: history.train_loss,
        valid_loss: history.valid_loss,
        fit_time: start.elapsed(),
        stopped_early: history.stopped_early,
    }
}

/// Run inference through the tape-free engine, reusing this thread's
/// scratch arena. All `Forecaster::predict` impls route through here, so
/// serving forecasts never build a tape.
pub(crate) fn predict_network<M: SequenceModel>(net: &M, x: &Tensor, batch: usize) -> Tensor {
    autograd::infer::with_thread_context(|ctx| autograd::infer::predict(net, x, batch, ctx))
}

/// Run inference through the taped [`SequenceModel`] interface. Kept as the
/// parity reference (and benchmark baseline) for the tape-free path.
pub(crate) fn predict_network_taped<M: SequenceModel>(net: &M, x: &Tensor, batch: usize) -> Tensor {
    let mut rng = Rng::seed_from(0);
    autograd::predict(net, x, batch, &mut rng)
}

/// Write step `step`'s `[batch, features]` slice of a `[batch, time,
/// features]` window batch into caller-provided scratch.
fn fill_time_step(x: &Tensor, step: usize, out: &mut [f32]) {
    let (b, t, f) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    debug_assert_eq!(out.len(), b * f, "fill_time_step scratch shape");
    for bi in 0..b {
        out[bi * f..(bi + 1) * f]
            .copy_from_slice(&x.as_slice()[(bi * t + step) * f..(bi * t + step) * f + f]);
    }
}

/// Slice a `[batch, time, features]` window batch into per-step
/// `[batch, features]` input leaves for recurrent models.
pub(crate) fn time_steps<E: Exec>(ex: &mut E, x: &Tensor) -> Vec<E::V> {
    let (b, t, f) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    (0..t)
        .map(|step| ex.input(&[b, f], |out| fill_time_step(x, step, out)))
        .collect()
}

/// Stage `[batch, time, features]` as the `[batch, channels, time]` input
/// leaf convolutional models consume.
pub(crate) fn channels_time<E: Exec>(ex: &mut E, x: &Tensor) -> E::V {
    let (b, t, f) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let src = x.as_slice();
    ex.input(&[b, f, t], |out| {
        for bi in 0..b {
            for ti in 0..t {
                for fi in 0..f {
                    out[(bi * f + fi) * t + ti] = src[(bi * t + ti) * f + fi];
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::{Graph, ParamStore, Tape};

    #[test]
    fn channels_time_layout() {
        // x[b][t][f] with distinguishable entries.
        let x = Tensor::arange(2 * 3 * 2).into_reshape(&[2, 3, 2]).unwrap();
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let ct = channels_time(&mut Tape::eval(&mut g), &x);
        let ct = g.value(ct);
        assert_eq!(ct.shape(), &[2, 2, 3]);
        // x[0, t, 0] = 0, 2, 4 should become channel 0 of item 0.
        assert_eq!(ct.at(&[0, 0, 0]), 0.0);
        assert_eq!(ct.at(&[0, 0, 1]), 2.0);
        assert_eq!(ct.at(&[0, 0, 2]), 4.0);
        // x[1, t, 1] = 7, 9, 11 -> channel 1 of item 1.
        assert_eq!(ct.at(&[1, 1, 0]), 7.0);
        assert_eq!(ct.at(&[1, 1, 2]), 11.0);
    }

    #[test]
    fn time_steps_slice_correctly() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let x = Tensor::arange(2 * 3 * 2).into_reshape(&[2, 3, 2]).unwrap();
        let steps = time_steps(&mut Tape::eval(&mut g), &x);
        assert_eq!(steps.len(), 3);
        // Step 1 holds x[:, 1, :] = [[2, 3], [8, 9]].
        assert_eq!(g.value(steps[1]).as_slice(), &[2.0, 3.0, 8.0, 9.0]);
        assert_eq!(g.value(steps[1]).shape(), &[2, 2]);
    }

    #[test]
    fn staging_is_the_same_on_both_backends() {
        let x = Tensor::arange(2 * 4 * 3).into_reshape(&[2, 4, 3]).unwrap();
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let mut ctx = autograd::InferenceContext::new();
        let mut arena = autograd::Arena::new(&mut ctx, &store);
        let taped = channels_time(&mut Tape::eval(&mut g), &x);
        let staged = channels_time(&mut arena, &x);
        assert_eq!(staged.shape(), g.value(taped).shape());
        assert_eq!(staged.as_slice(), g.value(taped).as_slice());
        let taped = time_steps(&mut Tape::eval(&mut g), &x);
        let staged = time_steps(&mut arena, &x);
        for (t, s) in taped.iter().zip(&staged) {
            assert_eq!(s.shape(), g.value(*t).shape());
            assert_eq!(s.as_slice(), g.value(*t).as_slice());
        }
    }

    #[test]
    fn spec_converts_to_train_config() {
        let spec = NeuralTrainSpec {
            epochs: 7,
            patience: 3,
            ..Default::default()
        };
        let cfg = spec.to_train_config_with(LossKind::Mse);
        assert_eq!(cfg.epochs, 7);
        assert_eq!(cfg.patience, Some(3));
        assert_eq!(cfg.loss, LossKind::Mse);
    }
}
