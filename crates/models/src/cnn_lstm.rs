//! CNN-LSTM baseline (paper ref [29]): a causal convolution extracts local
//! temporal features, an LSTM models their sequence, a dense head predicts.

use autograd::layers::{CausalConv1d, Dropout, Linear, Lstm};
use autograd::{Exec, ParamStore, SequenceModel};
use tensor::{Rng, Tensor};
use timeseries::WindowedDataset;

use crate::checkpoint::{CheckpointError, ModelState};
use crate::forecaster::{FitReport, Forecaster};
use crate::neural::{self, NeuralTrainSpec};

/// CNN-LSTM architecture knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CnnLstmConfig {
    /// Convolution output channels.
    pub conv_channels: usize,
    pub kernel: usize,
    pub lstm_hidden: usize,
    pub lstm_layers: usize,
    pub dropout: f32,
    pub spec: NeuralTrainSpec,
}

impl Default for CnnLstmConfig {
    fn default() -> Self {
        Self {
            conv_channels: 16,
            kernel: 3,
            lstm_hidden: 32,
            lstm_layers: 1,
            dropout: 0.1,
            spec: NeuralTrainSpec::default(),
        }
    }
}

#[derive(Clone)]
struct CnnLstmNetwork {
    store: ParamStore,
    conv: CausalConv1d,
    lstm: Lstm,
    dropout: Dropout,
    head: Linear,
    features: usize,
    horizon: usize,
}

impl SequenceModel for CnnLstmNetwork {
    fn run<E: Exec>(&self, ex: &mut E, x: &Tensor) -> E::V {
        let time = x.shape()[1];
        let ct = neural::channels_time(ex, x);
        let conv_out = self.conv.forward(ex, &ct);
        ex.release(ct);
        let act = ex.relu(conv_out);
        // Feed the conv feature map to the LSTM step by step.
        let steps: Vec<E::V> = (0..time).map(|t| ex.select_time(&act, t)).collect();
        ex.release(act);
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

/// CNN-LSTM as a [`Forecaster`].
#[derive(Clone)]
pub struct CnnLstmForecaster {
    config: CnnLstmConfig,
    network: Option<CnnLstmNetwork>,
}

impl CnnLstmForecaster {
    pub fn new(config: CnnLstmConfig) -> Self {
        Self {
            config,
            network: None,
        }
    }

    fn build(&self, features: usize, horizon: usize) -> CnnLstmNetwork {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(self.config.spec.seed.wrapping_add(0x261));
        let conv = CausalConv1d::new(
            &mut store,
            "conv",
            features,
            self.config.conv_channels,
            self.config.kernel,
            1,
            false,
            &mut rng,
        );
        let lstm = Lstm::new(
            &mut store,
            "lstm",
            self.config.conv_channels,
            self.config.lstm_hidden,
            self.config.lstm_layers,
            &mut rng,
        );
        let head = Linear::with_init(
            &mut store,
            "head",
            self.config.lstm_hidden,
            horizon,
            autograd::Init::Constant(0.0),
            true,
            &mut rng,
        );
        CnnLstmNetwork {
            store,
            conv,
            lstm,
            dropout: Dropout::new(self.config.dropout),
            head,
            features,
            horizon,
        }
    }

    /// Reconstruct the config recorded in a checkpoint snapshot.
    pub fn config_from_state(state: &ModelState) -> Result<CnnLstmConfig, CheckpointError> {
        if state.arch != "CNN-LSTM" {
            return Err(CheckpointError(format!(
                "expected CNN-LSTM state, got `{}`",
                state.arch
            )));
        }
        Ok(CnnLstmConfig {
            conv_channels: state.require_usize("conv_channels")?,
            kernel: state.require_usize("kernel")?,
            lstm_hidden: state.require_usize("lstm_hidden")?,
            lstm_layers: state.require_usize("lstm_layers")?,
            dropout: state.require_f32("dropout")?,
            spec: neural::spec_from_meta(state)?,
        })
    }

    /// Rebuild a fitted forecaster from a checkpoint snapshot.
    pub fn from_state(state: &ModelState) -> Result<Self, CheckpointError> {
        let mut m = Self::new(Self::config_from_state(state)?);
        m.load_state(state)?;
        Ok(m)
    }

    /// Taped-graph inference — the parity/benchmark reference for
    /// [`Forecaster::predict`]'s tape-free path.
    pub fn predict_taped(&self, x: &Tensor) -> Tensor {
        let net = self.network.as_ref().expect("predict before fit"); // lint: allow(r2) — Forecaster::predict contract
        neural::predict_network_taped(net, x, self.config.spec.batch_size)
    }
}

impl Forecaster for CnnLstmForecaster {
    fn name(&self) -> &str {
        "CNN-LSTM"
    }

    fn fit(&mut self, train: &WindowedDataset, valid: Option<&WindowedDataset>) -> FitReport {
        let mut net = self.build(train.num_features(), train.horizon);
        let report = neural::fit_network(&mut net, self.config.spec, train, valid);
        self.network = Some(net);
        report
    }

    fn predict(&self, x: &Tensor) -> Tensor {
        let net = self.network.as_ref().expect("predict before fit"); // lint: allow(r2) — Forecaster::predict contract
        neural::predict_network(net, x, self.config.spec.batch_size)
    }

    fn state(&self) -> Option<ModelState> {
        let net = self.network.as_ref()?;
        let mut st = ModelState::new("CNN-LSTM", net.features, net.horizon);
        st.push_meta("conv_channels", self.config.conv_channels as f64);
        st.push_meta("kernel", self.config.kernel as f64);
        st.push_meta("lstm_hidden", self.config.lstm_hidden as f64);
        st.push_meta("lstm_layers", self.config.lstm_layers as f64);
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

    #[test]
    fn learns_a_multivariate_pattern() {
        // Target follows the helper column with a one-step delay.
        let n = 400;
        let helper: Vec<f32> = (0..n)
            .map(|i| 0.5 + 0.4 * (i as f32 * 0.21).sin())
            .collect();
        let cpu: Vec<f32> = (0..n)
            .map(|i| if i == 0 { 0.5 } else { helper[i - 1] })
            .collect();
        let frame = TimeSeriesFrame::from_columns(&[("cpu", cpu), ("helper", helper)]).unwrap();
        let ds = make_windows(&frame, "cpu", 8, 1).unwrap();
        let mut model = CnnLstmForecaster::new(CnnLstmConfig {
            conv_channels: 8,
            lstm_hidden: 16,
            dropout: 0.0,
            spec: NeuralTrainSpec {
                epochs: 25,
                learning_rate: 5e-3,
                ..Default::default()
            },
            ..Default::default()
        });
        let report = model.fit(&ds, None);
        assert!(report.final_train_loss() < report.train_loss[0]);
        let (truth, pred) = model.evaluate(&ds);
        let mse = timeseries::metrics::mse(&truth, &pred);
        assert!(mse < 0.01, "CNN-LSTM mse {mse}");
    }

    #[test]
    fn prediction_shape_matches_horizon() {
        let series: Vec<f32> = (0..150).map(|i| (i % 7) as f32 / 7.0).collect();
        let frame = TimeSeriesFrame::from_columns(&[("cpu", series)]).unwrap();
        let ds = make_windows(&frame, "cpu", 6, 2).unwrap();
        let mut model = CnnLstmForecaster::new(CnnLstmConfig {
            conv_channels: 4,
            lstm_hidden: 8,
            spec: NeuralTrainSpec {
                epochs: 2,
                ..Default::default()
            },
            ..Default::default()
        });
        model.fit(&ds, None);
        let pred = model.predict(&ds.x);
        assert_eq!(pred.shape(), &[ds.len(), 2]);
        assert!(pred.all_finite());
    }
}
