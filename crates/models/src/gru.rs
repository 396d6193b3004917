//! GRU forecaster — a related-work recurrent baseline (§VI-B) included in
//! the extended model zoo next to the paper's five Table-II models.

use autograd::layers::{Dropout, Gru, Linear};
use autograd::{Exec, ParamStore, SequenceModel};
use tensor::{Rng, Tensor};
use timeseries::WindowedDataset;

use crate::checkpoint::{CheckpointError, ModelState};
use crate::forecaster::{FitReport, Forecaster};
use crate::neural::{self, NeuralTrainSpec};

/// GRU architecture and training knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GruConfig {
    pub hidden: usize,
    pub layers: usize,
    pub dropout: f32,
    pub spec: NeuralTrainSpec,
}

impl Default for GruConfig {
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
struct GruNetwork {
    store: ParamStore,
    gru: Gru,
    dropout: Dropout,
    head: Linear,
    features: usize,
    horizon: usize,
}

impl SequenceModel for GruNetwork {
    fn run<E: Exec>(&self, ex: &mut E, x: &Tensor) -> E::V {
        let steps = neural::time_steps(ex, x);
        let last = self.gru.forward_last(ex, steps);
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

/// GRU as a [`Forecaster`].
#[derive(Clone)]
pub struct GruForecaster {
    config: GruConfig,
    network: Option<GruNetwork>,
}

impl GruForecaster {
    pub fn new(config: GruConfig) -> Self {
        Self {
            config,
            network: None,
        }
    }

    fn build(&self, features: usize, horizon: usize) -> GruNetwork {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(self.config.spec.seed.wrapping_add(0x6EF));
        let gru = Gru::new(
            &mut store,
            "gru",
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
        GruNetwork {
            store,
            gru,
            dropout: Dropout::new(self.config.dropout),
            head,
            features,
            horizon,
        }
    }

    /// Reconstruct the config recorded in a checkpoint snapshot.
    pub fn config_from_state(state: &ModelState) -> Result<GruConfig, CheckpointError> {
        if state.arch != "GRU" {
            return Err(CheckpointError(format!(
                "expected GRU state, got `{}`",
                state.arch
            )));
        }
        Ok(GruConfig {
            hidden: state.require_usize("hidden")?,
            layers: state.require_usize("layers")?,
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

impl Forecaster for GruForecaster {
    fn name(&self) -> &str {
        "GRU"
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
        let mut st = ModelState::new("GRU", net.features, net.horizon);
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

    #[test]
    fn learns_a_sine_wave() {
        let series: Vec<f32> = (0..400)
            .map(|i| 0.5 + 0.4 * (i as f32 * 0.3).sin())
            .collect();
        let frame = TimeSeriesFrame::from_columns(&[("cpu", series)]).unwrap();
        let ds = make_windows(&frame, "cpu", 8, 1).unwrap();
        let mut model = GruForecaster::new(GruConfig {
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
        assert!(report.final_train_loss() < report.train_loss[0]);
        let (truth, pred) = model.evaluate(&ds);
        let mse = timeseries::metrics::mse(&truth, &pred);
        assert!(mse < 0.01, "GRU failed to learn a sine: mse {mse}");
    }

    #[test]
    fn multistep_prediction_shape() {
        let series: Vec<f32> = (0..150).map(|i| (i % 9) as f32 / 9.0).collect();
        let frame = TimeSeriesFrame::from_columns(&[("cpu", series)]).unwrap();
        let ds = make_windows(&frame, "cpu", 6, 3).unwrap();
        let mut model = GruForecaster::new(GruConfig {
            hidden: 8,
            layers: 1,
            spec: NeuralTrainSpec {
                epochs: 2,
                ..Default::default()
            },
            ..Default::default()
        });
        model.fit(&ds, None);
        let pred = model.predict(&ds.x);
        assert_eq!(pred.shape(), &[ds.len(), 3]);
        assert!(pred.all_finite());
    }
}
