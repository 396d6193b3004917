//! LSTM baseline (paper §IV-C): stacked LSTM over the window, dense head on
//! the final hidden state.

use autograd::layers::{Dropout, Linear, Lstm};
use autograd::{Exec, ParamStore, SequenceModel};
use tensor::{Rng, Tensor};
use timeseries::WindowedDataset;

use crate::checkpoint::{CheckpointError, ModelState};
use crate::forecaster::{FitReport, Forecaster};
use crate::neural::{self, NeuralTrainSpec};

/// LSTM architecture and training knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LstmConfig {
    pub hidden: usize,
    pub layers: usize,
    pub dropout: f32,
    pub spec: NeuralTrainSpec,
}

impl Default for LstmConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            layers: 2,
            dropout: 0.1,
            spec: NeuralTrainSpec::default(),
        }
    }
}

#[derive(Clone)]
struct LstmNetwork {
    store: ParamStore,
    lstm: Lstm,
    dropout: Dropout,
    head: Linear,
    features: usize,
    horizon: usize,
}

impl SequenceModel for LstmNetwork {
    fn run<E: Exec>(&self, ex: &mut E, x: &Tensor) -> E::V {
        let steps = neural::time_steps(ex, x);
        let last = self.lstm.forward_last(ex, steps);
        let last = self.dropout.apply(ex, last);
        let out = self.head.forward(ex, &last);
        ex.release(last);
        out
    }

    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn horizon(&self) -> usize {
        self.horizon
    }
}

/// The LSTM baseline as a [`Forecaster`]. The network is built lazily at
/// `fit` time, once the input feature width is known.
#[derive(Clone)]
pub struct LstmForecaster {
    config: LstmConfig,
    network: Option<LstmNetwork>,
}

impl LstmForecaster {
    pub fn new(config: LstmConfig) -> Self {
        Self {
            config,
            network: None,
        }
    }

    fn build(&self, features: usize, horizon: usize) -> LstmNetwork {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(self.config.spec.seed.wrapping_add(0x157));
        let lstm = Lstm::new(
            &mut store,
            "lstm",
            features,
            self.config.hidden,
            self.config.layers,
            &mut rng,
        );
        let head = Linear::with_init(
            &mut store,
            "head",
            self.config.hidden,
            horizon,
            autograd::Init::Constant(0.0),
            true,
            &mut rng,
        );
        LstmNetwork {
            store,
            lstm,
            dropout: Dropout::new(self.config.dropout),
            head,
            features,
            horizon,
        }
    }

    /// Reconstruct the config recorded in a checkpoint snapshot.
    pub fn config_from_state(state: &ModelState) -> Result<LstmConfig, CheckpointError> {
        if state.arch != "LSTM" {
            return Err(CheckpointError(format!(
                "expected LSTM state, got `{}`",
                state.arch
            )));
        }
        Ok(LstmConfig {
            hidden: state.require_usize("hidden")?,
            layers: state.require_usize("layers")?,
            dropout: state.require_dropout("dropout")?,
            spec: neural::spec_from_meta(state)?,
        })
    }

    /// Rebuild a fitted forecaster from a checkpoint snapshot.
    pub fn from_state(state: &ModelState) -> Result<Self, CheckpointError> {
        let mut m = Self::new(Self::config_from_state(state)?);
        m.load_state(state)?;
        Ok(m)
    }

    /// Number of scalar parameters once built.
    pub fn num_parameters(&self) -> Option<usize> {
        self.network.as_ref().map(|n| n.store.num_scalars())
    }

    /// Taped-graph inference — the parity/benchmark reference for
    /// [`Forecaster::predict`]'s tape-free path.
    pub fn predict_taped(&self, x: &Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "Forecaster::predict contract: predict before fit panics"
        )]
        let net = self.network.as_ref().expect("predict before fit");
        neural::predict_network_taped(net, x, self.config.spec.batch_size)
    }
}

impl Forecaster for LstmForecaster {
    fn name(&self) -> &str {
        "LSTM"
    }

    fn fit(&mut self, train: &WindowedDataset, valid: Option<&WindowedDataset>) -> FitReport {
        let mut net = self.build(train.num_features(), train.horizon);
        let report = neural::fit_network(&mut net, self.config.spec, train, valid);
        self.network = Some(net);
        report
    }

    fn predict(&self, x: &Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "Forecaster::predict contract: predict before fit panics"
        )]
        let net = self.network.as_ref().expect("predict before fit");
        neural::predict_network(net, x, self.config.spec.batch_size)
    }

    fn state(&self) -> Option<ModelState> {
        let net = self.network.as_ref()?;
        let mut st = ModelState::new("LSTM", net.features, net.horizon);
        st.push_meta("hidden", self.config.hidden as f64);
        st.push_meta("layers", self.config.layers as f64);
        st.push_meta("dropout", self.config.dropout as f64);
        neural::push_spec_meta(&mut st, &self.config.spec);
        st.tensors = net.store.export_named();
        Some(st)
    }

    fn load_state(&mut self, state: &ModelState) -> Result<(), CheckpointError> {
        self.config = Self::config_from_state(state)?;
        let mut net = self.build(state.features, state.horizon);
        net.store.import_named(&state.tensors)?;
        self.network = Some(net);
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

    fn sine_dataset(n: usize) -> WindowedDataset {
        let series: Vec<f32> = (0..n).map(|i| 0.5 + 0.4 * (i as f32 * 0.3).sin()).collect();
        let frame = TimeSeriesFrame::from_columns(&[("cpu", series)]).unwrap();
        make_windows(&frame, "cpu", 8, 1).unwrap()
    }

    #[test]
    fn learns_a_sine_wave() {
        let ds = sine_dataset(400);
        let mut model = LstmForecaster::new(LstmConfig {
            hidden: 16,
            layers: 1,
            dropout: 0.0,
            spec: NeuralTrainSpec {
                epochs: 25,
                learning_rate: 5e-3,
                ..Default::default()
            },
        });
        let report = model.fit(&ds, None);
        assert!(report.train_loss.len() <= 25);
        let (truth, pred) = model.evaluate(&ds);
        let mse = timeseries::metrics::mse(&truth, &pred);
        assert!(mse < 0.01, "LSTM failed to learn a sine: mse {mse}");
        assert!(model.num_parameters().unwrap() > 0);
    }

    #[test]
    fn early_stopping_with_validation() {
        let ds = sine_dataset(300);
        let (train, valid, _) = timeseries::split_windows(&ds, timeseries::SplitRatios::PAPER);
        let mut model = LstmForecaster::new(LstmConfig {
            hidden: 8,
            layers: 1,
            dropout: 0.0,
            spec: NeuralTrainSpec {
                epochs: 200,
                patience: 4,
                learning_rate: 5e-3,
                ..Default::default()
            },
        });
        let report = model.fit(&train, Some(&valid));
        assert!(report.train_loss.len() < 200, "early stopping never fired");
        assert!(!report.valid_loss.is_empty());
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_requires_fit() {
        let model = LstmForecaster::new(LstmConfig::default());
        model.predict(&Tensor::zeros(&[1, 4, 1]));
    }
}
