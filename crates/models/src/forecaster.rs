//! The common interface every prediction model implements, so the
//! experiment harness can sweep `{ARIMA, XGBoost, LSTM, CNN-LSTM, RPTCN}`
//! uniformly.

use std::path::Path;
use std::time::Duration;

use tensor::Tensor;
use timeseries::WindowedDataset;

use crate::checkpoint::{self, CheckpointError, ModelState};

/// Per-fit diagnostics. For iterative models the loss vectors have one entry
/// per epoch/boosting round — the raw material for the convergence figures.
#[derive(Debug, Clone, Default)]
pub struct FitReport {
    /// Training loss per epoch (or boosting round). May be empty for
    /// closed-form models such as ARIMA.
    pub train_loss: Vec<f64>,
    /// Validation loss per epoch, when validation data was supplied.
    pub valid_loss: Vec<f64>,
    /// Wall-clock fit time.
    pub fit_time: Duration,
    /// Whether early stopping fired.
    pub stopped_early: bool,
}

impl FitReport {
    // lint: allow(r10) test: convergence assertions of end_to_end.rs and the model unit suites
    pub fn final_train_loss(&self) -> f64 {
        self.train_loss.last().copied().unwrap_or(f64::NAN)
    }
}

/// A trainable multi-step forecaster over windowed multivariate inputs.
pub trait Forecaster {
    /// Short display name ("RPTCN", "ARIMA", …).
    fn name(&self) -> &str;

    /// Fit on a windowed training set, optionally monitoring validation
    /// loss (used for early stopping by the deep models).
    fn fit(&mut self, train: &WindowedDataset, valid: Option<&WindowedDataset>) -> FitReport;

    /// Predict `[n, horizon]` targets from `[n, window, features]` inputs.
    fn predict(&self, x: &Tensor) -> Tensor;

    /// Convenience: predict a dataset and return `(truth, predictions)` as
    /// flat paired slices.
    fn evaluate(&self, ds: &WindowedDataset) -> (Vec<f32>, Vec<f32>) {
        let pred = self.predict(&ds.x);
        (ds.y.as_slice().to_vec(), pred.into_vec())
    }

    /// Portable snapshot of the fitted state. `None` when the model is
    /// unfitted or does not support checkpointing (the classical baselines).
    fn state(&self) -> Option<ModelState> {
        None
    }

    /// Restore architecture + weights from a snapshot produced by
    /// [`Forecaster::state`]. Predictions after a restore are bit-identical
    /// to the model that produced the snapshot.
    fn load_state(&mut self, state: &ModelState) -> Result<(), CheckpointError> {
        Err(CheckpointError(format!(
            "{} does not support checkpointing (got `{}` state)",
            self.name(),
            state.arch
        )))
    }

    /// A copy of this forecaster, fitted state included, for another entity
    /// served with the same weights. A neural model's copy reads the
    /// original's weight storage until one of the two is refitted. `None`
    /// when the model cannot be shared (the classical baselines).
    fn clone_boxed(&self) -> Option<Box<dyn Forecaster + Send>> {
        None
    }

    /// Serialise the fitted model to a versioned binary checkpoint file.
    fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let state = self.state().ok_or_else(|| {
            CheckpointError(format!(
                "{} has no checkpointable state (not fitted?)",
                self.name()
            ))
        })?;
        checkpoint::save_model(path, &state)
    }

    /// Load architecture + weights from a checkpoint file written by
    /// [`Forecaster::save`].
    fn load(&mut self, path: &Path) -> Result<(), CheckpointError> {
        let state = checkpoint::load_model(path)?;
        self.load_state(&state)
    }
}

/// Persistence baseline: tomorrow looks like today. Not in the paper's
/// baseline list, but indispensable as a sanity floor — any trained model
/// that loses to persistence on these traces is broken.
#[derive(Debug, Clone)]
pub struct NaiveForecaster {
    target_index: usize,
    horizon: usize,
}

impl NaiveForecaster {
    pub fn new() -> Self {
        Self {
            target_index: 0,
            horizon: 1,
        }
    }

    /// Rebuild from a checkpoint snapshot.
    pub fn from_state(state: &ModelState) -> Result<Self, CheckpointError> {
        let mut m = Self::new();
        m.load_state(state)?;
        Ok(m)
    }
}

impl Default for NaiveForecaster {
    fn default() -> Self {
        Self::new()
    }
}

impl Forecaster for NaiveForecaster {
    fn name(&self) -> &str {
        "Naive"
    }

    fn fit(&mut self, train: &WindowedDataset, _valid: Option<&WindowedDataset>) -> FitReport {
        self.target_index = train.target_index;
        self.horizon = train.horizon;
        FitReport::default()
    }

    fn predict(&self, x: &Tensor) -> Tensor {
        let (n, window, f) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let mut out = Vec::with_capacity(n * self.horizon);
        for i in 0..n {
            let last = x.as_slice()[(i * window + window - 1) * f + self.target_index];
            out.extend(std::iter::repeat_n(last, self.horizon));
        }
        Tensor::from_vec(out, &[n, self.horizon])
    }

    fn state(&self) -> Option<ModelState> {
        let mut st = ModelState::new("Naive", 0, self.horizon);
        st.push_meta("target_index", self.target_index as f64);
        Some(st)
    }

    fn load_state(&mut self, state: &ModelState) -> Result<(), CheckpointError> {
        if state.arch != "Naive" {
            return Err(CheckpointError(format!(
                "expected Naive state, got `{}`",
                state.arch
            )));
        }
        self.target_index = state.require_usize("target_index")?;
        self.horizon = state.horizon;
        Ok(())
    }

    fn clone_boxed(&self) -> Option<Box<dyn Forecaster + Send>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timeseries::{make_windows, TimeSeriesFrame};

    fn dataset() -> WindowedDataset {
        let frame = TimeSeriesFrame::from_columns(&[
            ("cpu", (0..20).map(|i| i as f32).collect()),
            ("mem", (0..20).map(|i| i as f32 * 2.0).collect()),
        ])
        .unwrap();
        make_windows(&frame, "cpu", 4, 2).unwrap()
    }

    #[test]
    fn naive_repeats_last_target_value() {
        let ds = dataset();
        let mut model = NaiveForecaster::new();
        model.fit(&ds, None);
        let pred = model.predict(&ds.x);
        assert_eq!(pred.shape(), &[ds.len(), 2]);
        // Window 0 covers cpu values 0..=3; persistence predicts 3, 3.
        assert_eq!(pred.at(&[0, 0]), 3.0);
        assert_eq!(pred.at(&[0, 1]), 3.0);
    }

    #[test]
    fn naive_tracks_target_column_index() {
        let frame = TimeSeriesFrame::from_columns(&[
            ("mem", vec![9.0; 10]),
            ("cpu", (0..10).map(|i| i as f32).collect()),
        ])
        .unwrap();
        let ds = make_windows(&frame, "cpu", 3, 1).unwrap();
        let mut model = NaiveForecaster::new();
        model.fit(&ds, None);
        let pred = model.predict(&ds.x);
        assert_eq!(pred.at(&[0, 0]), 2.0, "naive read the wrong column");
    }

    #[test]
    fn evaluate_pairs_truth_and_prediction() {
        let ds = dataset();
        let mut model = NaiveForecaster::new();
        model.fit(&ds, None);
        let (truth, pred) = model.evaluate(&ds);
        assert_eq!(truth.len(), pred.len());
        // On a linear ramp, persistence is off by exactly 1 and 2.
        assert_eq!(truth[0] - pred[0], 1.0);
        assert_eq!(truth[1] - pred[1], 2.0);
    }

    #[test]
    fn fit_report_helpers() {
        let r = FitReport {
            train_loss: vec![1.0, 0.5],
            valid_loss: vec![0.9, 0.7],
            ..Default::default()
        };
        assert_eq!(r.final_train_loss(), 0.5);
        assert!(FitReport::default().final_train_loss().is_nan());
    }
}
