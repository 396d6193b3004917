//! Mini-batch training loop with validation tracking and early stopping —
//! mirrors the paper's Keras setup (`EarlyStopping`, `patience = 10`).

use tensor::{Rng, Tensor};

use crate::exec::{Exec, Tape};
use crate::graph::{Graph, Var};
use crate::infer::{self, Arena, InferenceContext};
use crate::loss::LossKind;
use crate::optim::Optimizer;
use crate::params::ParamStore;

/// A supervised sequence model trainable by [`fit`]: windows of shape
/// `[batch, time, features]` in, predictions `[batch, horizon]` out.
///
/// The network is defined once, in [`run`](Self::run), over the [`Exec`]
/// seam; [`forward`](Self::forward) and [`infer`](Self::infer) only pick
/// the backend.
pub trait SequenceModel {
    /// The forward pass, on whichever backend `ex` is.
    fn run<E: Exec>(&self, ex: &mut E, x: &Tensor) -> E::V;

    /// The model's parameters.
    fn params(&self) -> &ParamStore;

    /// Mutable access for the optimiser.
    fn params_mut(&mut self) -> &mut ParamStore;

    /// Prediction horizon (target width).
    fn horizon(&self) -> usize;

    /// [`run`](Self::run) recorded on the tape. `training` toggles dropout,
    /// which then draws from `rng`.
    fn forward(&self, g: &mut Graph, x: &Tensor, training: bool, rng: &mut Rng) -> Var {
        self.run(&mut Tape::new(g, training, rng), x)
    }

    /// [`run`](Self::run) evaluated tape-free for serving, with scratch
    /// drawn from `ctx`.
    fn infer(&self, ctx: &mut InferenceContext, x: &Tensor) -> Tensor {
        let mut arena = Arena::new(ctx, self.params());
        let out = self.run(&mut arena, x);
        arena.into_tensor(out)
    }
}

/// Hyper-parameters for one [`fit`] call.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub loss: LossKind,
    /// Clip the global gradient norm when set.
    pub clip_norm: Option<f32>,
    /// Early-stopping patience in epochs (paper: 10). `None` disables it.
    pub patience: Option<usize>,
    pub shuffle: bool,
    pub seed: u64,
    /// Divergence guard: an epoch whose training loss is non-finite,
    /// exceeds `spike_factor ×` the previous epoch's loss, or leaves
    /// non-finite weights behind is rolled back to the last good parameter
    /// snapshot. `None` disables the guard (and the per-epoch snapshot).
    pub spike_factor: Option<f64>,
    /// Rollbacks tolerated before training aborts with
    /// [`TrainHistory::diverged`] set — bounds how long a hopeless run can
    /// thrash.
    pub max_rollbacks: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_size: 64,
            loss: LossKind::Mse,
            clip_norm: Some(5.0),
            patience: Some(10),
            shuffle: true,
            seed: 0,
            spike_factor: Some(1e3),
            max_rollbacks: 2,
        }
    }
}

/// Per-epoch record of a training run; the raw material for the paper's
/// convergence figures (Figs 9–10).
#[derive(Debug, Clone, Default)]
pub struct TrainHistory {
    pub train_loss: Vec<f64>,
    pub valid_loss: Vec<f64>,
    pub best_epoch: usize,
    pub stopped_early: bool,
    /// Epochs undone by the divergence guard (non-finite or spiking loss).
    pub rollbacks: usize,
    /// Training aborted because the rollback budget was exhausted. The
    /// model holds the last good (finite) weights, not the diverged ones.
    pub diverged: bool,
}

impl TrainHistory {
    pub fn epochs_run(&self) -> usize {
        self.train_loss.len()
    }
}

/// Gather rows (axis 0) of a tensor into a new tensor.
pub fn take_rows(t: &Tensor, rows: &[usize]) -> Tensor {
    let shape = t.shape();
    assert!(!shape.is_empty());
    let row_len: usize = shape[1..].iter().product();
    let mut out = Vec::with_capacity(rows.len() * row_len);
    for &r in rows {
        assert!(r < shape[0], "row {r} out of {}", shape[0]);
        out.extend_from_slice(&t.as_slice()[r * row_len..(r + 1) * row_len]);
    }
    let mut new_shape = shape.to_vec();
    new_shape[0] = rows.len();
    Tensor::from_vec(out, &new_shape)
}

/// Train `model` on `(x, y)` with optional validation data.
///
/// * `x`: `[n, time, features]`, `y`: `[n, horizon]`.
/// * With validation and patience set, training stops after `patience`
///   epochs without improvement and the best weights are restored.
pub fn fit<M: SequenceModel>(
    model: &mut M,
    x: &Tensor,
    y: &Tensor,
    valid: Option<(&Tensor, &Tensor)>,
    opt: &mut dyn Optimizer,
    cfg: &TrainConfig,
) -> TrainHistory {
    assert_eq!(x.shape()[0], y.shape()[0], "x/y row mismatch");
    assert!(x.shape()[0] > 0, "empty training set");
    let n = x.shape()[0];
    let mut rng = Rng::seed_from(cfg.seed);
    let mut order: Vec<usize> = (0..n).collect();

    // Scratch for the validation passes, dropped with the fit.
    let mut ctx = InferenceContext::new();
    let mut history = TrainHistory::default();
    let mut best_valid = f64::INFINITY;
    let mut best_snapshot: Option<Vec<Tensor>> = None;
    let mut epochs_since_best = 0usize;
    // Divergence guard: the last parameter snapshot known to be finite and
    // non-spiking, plus the loss it achieved.
    let mut last_good: Option<(Vec<Tensor>, f64)> = cfg
        .spike_factor
        .map(|_| (model.params().snapshot(), f64::INFINITY));

    for _epoch in 0..cfg.epochs {
        if cfg.shuffle {
            rng.shuffle(&mut order);
        }
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let xb = take_rows(x, chunk);
            let yb = take_rows(y, chunk);
            let mut g = Graph::new(model.params());
            let pred = model.forward(&mut g, &xb, true, &mut rng);
            let loss = cfg.loss.build(&mut g, pred, &yb);
            epoch_loss += g.value(loss).item() as f64;
            batches += 1;
            let mut grads = g.backward(loss);
            if let Some(max_norm) = cfg.clip_norm {
                grads.clip_global_norm(max_norm);
            }
            if !grads.all_finite() {
                // A diverged batch (NaN/inf) would poison the weights; skip
                // the update and let the next batches recover.
                continue;
            }
            opt.step(model.params_mut(), &grads);
        }
        let epoch_mean = epoch_loss / batches.max(1) as f64;
        history.train_loss.push(epoch_mean);

        if let Some(factor) = cfg.spike_factor {
            let (snapshot, prev_loss) = last_good
                .as_mut()
                .expect("guard snapshot exists when spike_factor is set");
            let spiked = prev_loss.is_finite() && epoch_mean > prev_loss.abs() * factor + 1e-12;
            if !epoch_mean.is_finite() || spiked || !model.params().all_finite() {
                // Undo the whole epoch: diverged weights would poison every
                // later epoch (and, in serving, every later forecast).
                model
                    .params_mut()
                    .restore(snapshot)
                    .expect("last-good snapshot was taken from this very store");
                history.rollbacks += 1;
                if history.rollbacks > cfg.max_rollbacks {
                    history.diverged = true;
                    break;
                }
                continue; // skip validation: the epoch never happened
            }
            *snapshot = model.params().snapshot();
            *prev_loss = epoch_mean;
        }

        if let Some((xv, yv)) = valid {
            let vl = validation_loss(model, xv, yv, cfg.batch_size, cfg.loss, &mut ctx);
            history.valid_loss.push(vl);
            if vl < best_valid {
                best_valid = vl;
                history.best_epoch = history.valid_loss.len() - 1;
                best_snapshot = Some(model.params().snapshot());
                epochs_since_best = 0;
            } else {
                epochs_since_best += 1;
                if let Some(patience) = cfg.patience {
                    if epochs_since_best >= patience {
                        history.stopped_early = true;
                        break;
                    }
                }
            }
        }
    }
    if let Some(snap) = best_snapshot {
        model
            .params_mut()
            .restore(&snap)
            .expect("early-stopping snapshot was taken from this very store");
    }
    history
}

/// `loss` of `model`'s predictions on `(x, y)`: a tape-free pass in
/// batches of `batch` on `ctx` ([`infer::predict`]). It is the bits a taped
/// evaluation pass gives (`tests/exec_parity.rs` holds the two backends
/// together per primitive), so early stopping and the restored best
/// weights are those of a taped validation.
pub fn validation_loss<M: SequenceModel>(
    model: &M,
    x: &Tensor,
    y: &Tensor,
    batch: usize,
    loss: LossKind,
    ctx: &mut InferenceContext,
) -> f64 {
    loss.eval(&infer::predict(model, x, batch, ctx), y)
}

/// Run inference over `x` in batches (dropout disabled), returning
/// `[n, horizon]` predictions.
pub fn predict<M: SequenceModel>(
    model: &M,
    x: &Tensor,
    batch_size: usize,
    rng: &mut Rng,
) -> Tensor {
    let n = x.shape()[0];
    let horizon = model.horizon();
    let mut out = Vec::with_capacity(n * horizon);
    let rows: Vec<usize> = (0..n).collect();
    for chunk in rows.chunks(batch_size.max(1)) {
        let xb = take_rows(x, chunk);
        let mut g = Graph::new(model.params());
        let pred = model.forward(&mut g, &xb, false, rng);
        out.extend_from_slice(g.value(pred).as_slice());
    }
    Tensor::from_vec(out, &[n, horizon])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::linear::Linear;
    use crate::optim::Adam;

    /// Minimal model: flatten the window and apply one linear layer.
    struct FlatLinear {
        store: ParamStore,
        layer: Linear,
        time: usize,
        features: usize,
    }

    impl FlatLinear {
        fn new(time: usize, features: usize, horizon: usize, seed: u64) -> Self {
            let mut store = ParamStore::new();
            let mut rng = Rng::seed_from(seed);
            let layer = Linear::new(&mut store, "out", time * features, horizon, &mut rng);
            Self {
                store,
                layer,
                time,
                features,
            }
        }
    }

    impl SequenceModel for FlatLinear {
        fn run<E: Exec>(&self, ex: &mut E, x: &Tensor) -> E::V {
            let flat = [x.shape()[0], self.time * self.features];
            let xin = ex.input(&flat, |out| out.copy_from_slice(x.as_slice()));
            let y = self.layer.forward(ex, &xin);
            ex.release(xin);
            y
        }

        fn params(&self) -> &ParamStore {
            &self.store
        }

        fn params_mut(&mut self) -> &mut ParamStore {
            &mut self.store
        }

        fn horizon(&self) -> usize {
            1
        }
    }

    /// y = mean of the window: exactly representable by the linear model.
    fn toy_dataset(n: usize, time: usize, features: usize, seed: u64) -> (Tensor, Tensor) {
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::rand_uniform(&[n, time, features], 0.0, 1.0, &mut rng);
        let ys: Vec<f32> = (0..n)
            .map(|i| {
                let row = &x.as_slice()[i * time * features..(i + 1) * time * features];
                row.iter().sum::<f32>() / row.len() as f32
            })
            .collect();
        (x, Tensor::from_vec(ys, &[n, 1]))
    }

    #[test]
    fn take_rows_gathers() {
        let t = Tensor::arange(12).into_reshape(&[4, 3]).unwrap();
        let picked = take_rows(&t, &[2, 0]);
        assert_eq!(picked.shape(), &[2, 3]);
        assert_eq!(picked.as_slice(), &[6.0, 7.0, 8.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn training_reduces_loss() {
        let (x, y) = toy_dataset(256, 4, 2, 1);
        let mut model = FlatLinear::new(4, 2, 1, 2);
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs: 40,
            patience: None,
            ..Default::default()
        };
        let hist = fit(&mut model, &x, &y, None, &mut opt, &cfg);
        assert_eq!(hist.epochs_run(), 40);
        let last = *hist.train_loss.last().unwrap();
        assert!(
            last < hist.train_loss[0] * 0.05,
            "loss barely moved: {:?} -> {last:?}",
            hist.train_loss[0]
        );
    }

    #[test]
    fn early_stopping_halts_and_restores_best() {
        let (x, y) = toy_dataset(128, 3, 2, 3);
        let (xv, yv) = toy_dataset(64, 3, 2, 4);
        let mut model = FlatLinear::new(3, 2, 1, 5);
        let mut opt = Adam::new(0.02);
        let cfg = TrainConfig {
            epochs: 200,
            patience: Some(5),
            ..Default::default()
        };
        let hist = fit(&mut model, &x, &y, Some((&xv, &yv)), &mut opt, &cfg);
        assert!(hist.epochs_run() < 200, "early stopping never fired");
        // Restored weights reproduce the best validation loss.
        let mut rng = Rng::seed_from(0);
        let pv = predict(&model, &xv, 32, &mut rng);
        let vl = LossKind::Mse.eval(&pv, &yv);
        let best = hist
            .valid_loss
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!((vl - best).abs() < 1e-9);
    }

    #[test]
    fn divergence_guard_rolls_back_and_aborts() {
        let (x, y) = toy_dataset(64, 3, 2, 11);
        let mut model = FlatLinear::new(3, 2, 1, 12);
        // An absurd learning rate overflows the weights within one epoch:
        // every epoch ends non-finite and is rolled back.
        let mut opt = Adam::new(1e30);
        let cfg = TrainConfig {
            epochs: 20,
            batch_size: 16,
            patience: None,
            max_rollbacks: 2,
            ..Default::default()
        };
        let hist = fit(&mut model, &x, &y, None, &mut opt, &cfg);
        assert!(hist.diverged, "guard never fired: {:?}", hist.train_loss);
        assert_eq!(hist.rollbacks, 3, "stops right after the budget");
        assert!(
            hist.epochs_run() < 20,
            "aborted early instead of thrashing all epochs"
        );
        // The model holds the last good snapshot, not the exploded weights.
        assert!(model.params().all_finite());
        let mut rng = Rng::seed_from(0);
        let p = predict(&model, &x, 16, &mut rng);
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn disabled_guard_keeps_legacy_behaviour() {
        let (x, y) = toy_dataset(64, 3, 2, 13);
        let mut model = FlatLinear::new(3, 2, 1, 14);
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs: 5,
            patience: None,
            spike_factor: None,
            ..Default::default()
        };
        let hist = fit(&mut model, &x, &y, None, &mut opt, &cfg);
        assert_eq!(hist.epochs_run(), 5);
        assert_eq!(hist.rollbacks, 0);
        assert!(!hist.diverged);
    }

    #[test]
    fn spike_guard_undoes_loss_explosions() {
        let (x, y) = toy_dataset(64, 3, 2, 15);
        let mut model = FlatLinear::new(3, 2, 1, 16);
        let mut opt = Adam::new(0.01);
        // First fit normally so the loss is small and stable.
        let warm = TrainConfig {
            epochs: 30,
            patience: None,
            ..Default::default()
        };
        fit(&mut model, &x, &y, None, &mut opt, &warm);
        // Now continue with a step size large enough to spike the loss;
        // a tight spike factor must catch and undo it.
        let mut wild = Adam::new(10.0);
        let cfg = TrainConfig {
            epochs: 10,
            patience: None,
            spike_factor: Some(10.0),
            max_rollbacks: 1,
            ..Default::default()
        };
        let hist = fit(&mut model, &x, &y, None, &mut wild, &cfg);
        assert!(
            hist.rollbacks >= 1,
            "spike never detected: {:?}",
            hist.train_loss
        );
        assert!(model.params().all_finite());
    }

    #[test]
    fn predict_shape_and_determinism() {
        let (x, _) = toy_dataset(10, 3, 2, 6);
        let model = FlatLinear::new(3, 2, 1, 7);
        let mut rng = Rng::seed_from(0);
        let p1 = predict(&model, &x, 4, &mut rng);
        let p2 = predict(&model, &x, 10, &mut rng);
        assert_eq!(p1.shape(), &[10, 1]);
        assert!(p1.allclose(&p2, 1e-6), "batch size changed predictions");
    }

    #[test]
    fn history_tracks_validation() {
        let (x, y) = toy_dataset(64, 3, 2, 8);
        let mut model = FlatLinear::new(3, 2, 1, 9);
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs: 5,
            patience: None,
            ..Default::default()
        };
        let hist = fit(&mut model, &x, &y, Some((&x, &y)), &mut opt, &cfg);
        assert_eq!(hist.train_loss.len(), 5);
        assert_eq!(hist.valid_loss.len(), 5);
        assert!(hist.best_epoch < 5);
    }
}
