//! RPTCN — the paper's model (Fig. 5): a TCN backbone extended with a fully
//! connected layer (eq. 6) and an attention mechanism (eqs. 7–8) before the
//! output head. Ablation flags expose every component so the
//! `ablation_components` bench can quantify each addition.

use autograd::layers::{Dropout, FeatureAttention, Linear, TemporalAttention};
use autograd::{Exec, ParamStore, SequenceModel};
use tensor::{Rng, Tensor};
use timeseries::WindowedDataset;

use crate::checkpoint::{CheckpointError, ModelState};
use crate::forecaster::{FitReport, Forecaster};
use crate::neural::{self, NeuralTrainSpec};
use crate::tcn::TcnBackbone;

/// Which attention mechanism sits after the FC layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttentionKind {
    /// Paper default: feature attention `g = f_φ(x) ⊙ z` on the FC output.
    Feature,
    /// Discussion-section alternative: attention over the TCN time axis.
    Temporal,
}

/// RPTCN architecture and training knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RptcnConfig {
    pub channels: usize,
    pub levels: usize,
    pub kernel: usize,
    pub dropout: f32,
    pub weight_norm: bool,
    /// Width of the fully connected layer.
    pub fc_dim: usize,
    /// Ablation: include the FC layer.
    pub use_fc: bool,
    /// Ablation: include the attention mechanism.
    pub use_attention: bool,
    pub attention: AttentionKind,
    /// Optional quantile heads: `(lo, hi)` pinball levels. When set, a
    /// second zero-initialised linear head emits per-step `q_lo`/`q_hi`
    /// estimates, trained jointly with the point head via the composite
    /// `LossKind::PointInterval` loss. `Forecaster::predict` still returns
    /// the point block only; [`RptcnForecaster::predict_quantiles`] exposes
    /// the wide `[n, 3·horizon]` output.
    pub quantiles: Option<(f32, f32)>,
    pub spec: NeuralTrainSpec,
}

impl Default for RptcnConfig {
    fn default() -> Self {
        Self {
            channels: 16,
            levels: 4,
            kernel: 3,
            dropout: 0.1,
            weight_norm: true,
            fc_dim: 32,
            use_fc: true,
            use_attention: true,
            attention: AttentionKind::Feature,
            quantiles: None,
            spec: NeuralTrainSpec {
                learning_rate: 2e-3,
                ..Default::default()
            },
        }
    }
}

#[derive(Clone)]
pub(crate) struct RptcnNetwork {
    pub(crate) store: ParamStore,
    pub(crate) backbone: TcnBackbone,
    pub(crate) fc: Option<Linear>,
    pub(crate) feature_attention: Option<FeatureAttention>,
    pub(crate) temporal_attention: Option<TemporalAttention>,
    dropout: Dropout,
    pub(crate) head: Linear,
    /// Optional `[attn_dim → 2·horizon]` head emitting per-row
    /// `[q_lo | q_hi]` column blocks appended after the point block.
    quantile_head: Option<Linear>,
    features: usize,
    /// Point-forecast horizon; the network's total output width is
    /// `3·horizon` when the quantile head is present (see [`Self::horizon`]).
    horizon: usize,
}

impl SequenceModel for RptcnNetwork {
    fn run<E: Exec>(&self, ex: &mut E, x: &Tensor) -> E::V {
        let ct = neural::channels_time(ex, x);

        // Collapse the time axis: temporal attention reads every step of
        // the backbone; otherwise only the causally complete final step is
        // read, and only what it depends on is computed.
        let mut h = match &self.temporal_attention {
            Some(attn) => {
                let seq = self.backbone.forward(ex, ct);
                let pooled = attn.forward(ex, &seq);
                ex.release(seq);
                pooled
            }
            None => self.backbone.forward_last(ex, ct),
        };

        if let Some(fc) = &self.fc {
            let z = fc.forward(ex, &h);
            let z = ex.relu(z);
            let z = self.dropout.apply(ex, z);
            ex.replace(&mut h, z);
        }
        if let Some(attn) = &self.feature_attention {
            let gated = attn.forward(ex, &h, &h);
            ex.replace(&mut h, gated);
        }
        let point = self.head.forward(ex, &h);
        let out = match &self.quantile_head {
            // Rows laid out `[point | q_lo | q_hi]`.
            Some(q) => {
                let heads = [point, q.forward(ex, &h)];
                let wide = ex.concat_cols(&heads);
                heads.into_iter().for_each(|v| ex.release(v));
                wide
            }
            None => point,
        };
        ex.release(h);
        out
    }

    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn horizon(&self) -> usize {
        // Total output width: the tape-free engine and `train::predict`
        // both size their output buffers by this.
        if self.quantile_head.is_some() {
            3 * self.horizon
        } else {
            self.horizon
        }
    }
}

/// RPTCN as a [`Forecaster`].
#[derive(Clone)]
pub struct RptcnForecaster {
    config: RptcnConfig,
    network: Option<RptcnNetwork>,
}

impl RptcnForecaster {
    pub fn new(config: RptcnConfig) -> Self {
        Self {
            config,
            network: None,
        }
    }

    /// The paper's configuration.
    pub fn paper_default() -> Self {
        Self::new(RptcnConfig::default())
    }

    pub fn config(&self) -> &RptcnConfig {
        &self.config
    }

    fn build(&self, features: usize, horizon: usize) -> RptcnNetwork {
        let cfg = &self.config;
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(cfg.spec.seed.wrapping_add(0xA11));
        let backbone = TcnBackbone::new(
            &mut store,
            "rptcn",
            features,
            cfg.channels,
            cfg.levels,
            cfg.kernel,
            cfg.dropout,
            cfg.weight_norm,
            &mut rng,
        );
        let temporal_attention = (cfg.use_attention && cfg.attention == AttentionKind::Temporal)
            .then(|| TemporalAttention::new(&mut store, "tattn", cfg.channels, &mut rng));
        let fc = cfg
            .use_fc
            .then(|| Linear::new(&mut store, "fc", cfg.channels, cfg.fc_dim, &mut rng));
        let attn_dim = if cfg.use_fc { cfg.fc_dim } else { cfg.channels };
        let feature_attention = (cfg.use_attention && cfg.attention == AttentionKind::Feature)
            .then(|| FeatureAttention::new(&mut store, "attn", attn_dim, &mut rng));
        let head = Linear::with_init(
            &mut store,
            "head",
            attn_dim,
            horizon,
            autograd::Init::Constant(0.0),
            true,
            &mut rng,
        );
        let quantile_head = cfg.quantiles.is_some().then(|| {
            Linear::with_init(
                &mut store,
                "qhead",
                attn_dim,
                2 * horizon,
                autograd::Init::Constant(0.0),
                true,
                &mut rng,
            )
        });
        RptcnNetwork {
            store,
            backbone,
            fc,
            feature_attention,
            temporal_attention,
            dropout: Dropout::new(cfg.dropout),
            head,
            quantile_head,
            features,
            horizon,
        }
    }

    /// Reconstruct the config recorded in a checkpoint snapshot.
    pub fn config_from_state(state: &ModelState) -> Result<RptcnConfig, CheckpointError> {
        if state.arch != "RPTCN" {
            return Err(CheckpointError(format!(
                "expected RPTCN state, got `{}`",
                state.arch
            )));
        }
        let levels = state.require_usize("levels")?;
        if levels == 0 {
            return Err(CheckpointError(
                "meta key `levels` = 0: a TCN backbone needs at least one level".into(),
            ));
        }
        Ok(RptcnConfig {
            channels: state.require_usize("channels")?,
            levels,
            kernel: state.require_usize("kernel")?,
            dropout: state.require_dropout("dropout")?,
            weight_norm: state.require_bool("weight_norm")?,
            fc_dim: state.require_usize("fc_dim")?,
            use_fc: state.require_bool("use_fc")?,
            use_attention: state.require_bool("use_attention")?,
            attention: if state.require_bool("temporal_attention")? {
                AttentionKind::Temporal
            } else {
                AttentionKind::Feature
            },
            // Optional keys so pre-quantile checkpoints still load.
            quantiles: match (state.meta("quantile_lo"), state.meta("quantile_hi")) {
                (Some(lo), Some(hi)) => Some((lo as f32, hi as f32)),
                _ => None,
            },
            spec: neural::spec_from_meta(state)?,
        })
    }

    /// Rebuild a fitted forecaster from a checkpoint snapshot.
    pub fn from_state(state: &ModelState) -> Result<Self, CheckpointError> {
        let mut m = Self::new(Self::config_from_state(state)?);
        m.load_state(state)?;
        Ok(m)
    }

    /// Scalar parameter count once built.
    pub fn num_parameters(&self) -> Option<usize> {
        self.network.as_ref().map(|n| n.store.num_scalars())
    }

    /// Internal network handle (used by the streaming inference engine).
    pub(crate) fn network(&self) -> Option<&RptcnNetwork> {
        self.network.as_ref()
    }

    /// Build the network without training, perturbing every parameter with
    /// small Gaussian noise. The head and attention projection are
    /// zero-initialised, so a freshly built network would short-circuit most
    /// of the forward path; the noise makes benchmarks and parity tests
    /// exercise realistic weights without paying for a fit.
    pub fn init_untrained(&mut self, features: usize, horizon: usize) {
        let mut net = self.build(features, horizon);
        let mut rng = Rng::seed_from(self.config.spec.seed.wrapping_add(0x1DF5));
        let perturbed: Vec<(String, Tensor)> = net
            .store
            .export_named()
            .into_iter()
            .map(|(name, mut t)| {
                let noise = Tensor::rand_normal(t.shape(), 0.0, 0.05, &mut rng);
                for (v, &n) in t.as_mut_slice().iter_mut().zip(noise.as_slice()) {
                    *v += n;
                }
                (name, t)
            })
            .collect();
        #[expect(clippy::expect_used, reason = "a same-store round trip")]
        net.store
            .import_named(&perturbed)
            .expect("perturbed tensors keep their names and shapes");
        self.network = Some(net);
    }

    /// Taped-graph inference — the parity/benchmark reference for
    /// [`Forecaster::predict`]'s tape-free path.
    pub fn predict_taped(&self, x: &Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "Forecaster::predict contract: predict before fit panics"
        )]
        let net = self.network.as_ref().expect("predict before fit");
        self.point_block(neural::predict_network_taped(
            net,
            x,
            self.config.spec.batch_size,
        ))
    }

    /// Full multi-head output: `[n, 3·horizon]` rows laid out
    /// `[point | q_lo | q_hi]`. `None` when the model was built without
    /// quantile heads.
    // lint: allow(r10) test: the pinball-loss oracle — `quantile_heads_learn_an_ordered_interval` is the only reader of the q_lo/q_hi heads that still train
    pub fn predict_quantiles(&self, x: &Tensor) -> Option<Tensor> {
        self.config.quantiles?;
        #[expect(
            clippy::expect_used,
            reason = "Forecaster::predict contract: predict before fit panics"
        )]
        let net = self.network.as_ref().expect("predict before fit");
        Some(neural::predict_network(net, x, self.config.spec.batch_size))
    }

    /// Slice the point block out of a wide `[n, 3h]` multi-head prediction;
    /// identity for point-only models. A plain row-prefix copy, so point
    /// forecasts stay bitwise-identical with or without quantile heads.
    fn point_block(&self, wide: Tensor) -> Tensor {
        if self.config.quantiles.is_none() {
            return wide;
        }
        let (n, w) = (wide.shape()[0], wide.shape()[1]);
        let h = w / 3;
        let src = wide.as_slice();
        let mut out = vec![0.0f32; n * h];
        for r in 0..n {
            out[r * h..(r + 1) * h].copy_from_slice(&src[r * w..r * w + h]);
        }
        Tensor::from_vec(out, &[n, h])
    }
}

impl Forecaster for RptcnForecaster {
    fn name(&self) -> &str {
        "RPTCN"
    }

    fn fit(&mut self, train: &WindowedDataset, valid: Option<&WindowedDataset>) -> FitReport {
        let mut net = self.build(train.num_features(), train.horizon);
        let loss = match self.config.quantiles {
            Some((lo, hi)) => autograd::LossKind::PointInterval { lo, hi },
            None => autograd::LossKind::Mse,
        };
        let report = neural::fit_network_with_loss(&mut net, self.config.spec, loss, train, valid);
        self.network = Some(net);
        report
    }

    fn predict(&self, x: &Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "Forecaster::predict contract: predict before fit panics"
        )]
        let net = self.network.as_ref().expect("predict before fit");
        self.point_block(neural::predict_network(net, x, self.config.spec.batch_size))
    }

    fn state(&self) -> Option<ModelState> {
        let net = self.network.as_ref()?;
        let cfg = &self.config;
        let mut st = ModelState::new("RPTCN", net.features, net.horizon);
        st.push_meta("channels", cfg.channels as f64);
        st.push_meta("levels", cfg.levels as f64);
        st.push_meta("kernel", cfg.kernel as f64);
        st.push_meta("dropout", cfg.dropout as f64);
        st.push_meta("weight_norm", cfg.weight_norm as u8 as f64);
        st.push_meta("fc_dim", cfg.fc_dim as f64);
        st.push_meta("use_fc", cfg.use_fc as u8 as f64);
        st.push_meta("use_attention", cfg.use_attention as u8 as f64);
        st.push_meta(
            "temporal_attention",
            (cfg.attention == AttentionKind::Temporal) as u8 as f64,
        );
        if let Some((lo, hi)) = cfg.quantiles {
            st.push_meta("quantile_lo", lo as f64);
            st.push_meta("quantile_hi", hi as f64);
        }
        neural::push_spec_meta(&mut st, &cfg.spec);
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

    fn dataset() -> WindowedDataset {
        let series: Vec<f32> = (0..400)
            .map(|i| 0.5 + 0.35 * (i as f32 * 0.2).sin())
            .collect();
        let frame = TimeSeriesFrame::from_columns(&[("cpu", series)]).unwrap();
        make_windows(&frame, "cpu", 16, 1).unwrap()
    }

    fn quick_spec() -> NeuralTrainSpec {
        NeuralTrainSpec {
            epochs: 15,
            learning_rate: 3e-3,
            ..Default::default()
        }
    }

    #[test]
    fn full_model_learns() {
        let ds = dataset();
        let mut model = RptcnForecaster::new(RptcnConfig {
            channels: 8,
            levels: 3,
            dropout: 0.0,
            fc_dim: 16,
            spec: quick_spec(),
            ..Default::default()
        });
        let report = model.fit(&ds, None);
        assert!(report.final_train_loss() < report.train_loss[0] * 0.5);
        let (truth, pred) = model.evaluate(&ds);
        let mse = timeseries::metrics::mse(&truth, &pred);
        assert!(mse < 0.01, "RPTCN mse {mse}");
        assert!(model.num_parameters().unwrap() > 0);
    }

    #[test]
    fn every_ablation_variant_trains() {
        let ds = dataset();
        let variants = [
            (true, true, AttentionKind::Feature),
            (true, false, AttentionKind::Feature),
            (false, true, AttentionKind::Feature),
            (false, false, AttentionKind::Feature),
            (true, true, AttentionKind::Temporal),
        ];
        for (use_fc, use_attention, attention) in variants {
            let mut model = RptcnForecaster::new(RptcnConfig {
                channels: 6,
                levels: 2,
                fc_dim: 12,
                dropout: 0.0,
                use_fc,
                use_attention,
                attention,
                spec: NeuralTrainSpec {
                    epochs: 3,
                    ..quick_spec()
                },
                ..Default::default()
            });
            let report = model.fit(&ds, None);
            assert!(
                report.train_loss.iter().all(|l| l.is_finite()),
                "variant fc={use_fc} attn={use_attention} {attention:?} diverged"
            );
            let pred = model.predict(&ds.x);
            assert!(pred.all_finite());
            assert_eq!(pred.shape(), &[ds.len(), 1]);
        }
    }

    #[test]
    fn paper_default_has_documented_components() {
        let m = RptcnForecaster::paper_default();
        assert!(m.config().use_fc);
        assert!(m.config().use_attention);
        assert_eq!(m.config().attention, AttentionKind::Feature);
        assert_eq!(m.config().levels, 4);
    }

    #[test]
    fn quantile_heads_learn_an_ordered_interval() {
        let ds = dataset();
        let mut model = RptcnForecaster::new(RptcnConfig {
            channels: 8,
            levels: 3,
            dropout: 0.0,
            fc_dim: 16,
            quantiles: Some((0.1, 0.9)),
            spec: quick_spec(),
            ..Default::default()
        });
        model.fit(&ds, None);
        let point = model.predict(&ds.x);
        assert_eq!(point.shape(), &[ds.len(), 1], "point block shape");
        let wide = model.predict_quantiles(&ds.x).expect("quantile model");
        assert_eq!(wide.shape(), &[ds.len(), 3]);
        assert!(wide.all_finite());
        // Point block of the wide output must equal `predict` bitwise.
        let mut ordered = 0usize;
        for r in 0..ds.len() {
            assert_eq!(wide.at(&[r, 0]), point.at(&[r, 0]), "row {r} point");
            if wide.at(&[r, 1]) <= wide.at(&[r, 2]) {
                ordered += 1;
            }
        }
        // Pinball training at (0.1, 0.9) should order lo ≤ hi on nearly
        // every window of a smooth series.
        assert!(
            ordered * 10 >= ds.len() * 9,
            "only {ordered}/{} rows ordered",
            ds.len()
        );
        // The interval should bracket most of the truth.
        let truth = &ds.y;
        let mut covered = 0usize;
        for r in 0..ds.len() {
            let t = truth.at(&[r, 0]);
            if wide.at(&[r, 1]) <= t && t <= wide.at(&[r, 2]) {
                covered += 1;
            }
        }
        assert!(
            covered * 2 >= ds.len(),
            "quantile interval covers only {covered}/{} targets",
            ds.len()
        );
    }

    #[test]
    fn quantile_model_tape_free_matches_taped_and_round_trips() {
        let ds = dataset();
        let mut model = RptcnForecaster::new(RptcnConfig {
            channels: 6,
            levels: 2,
            dropout: 0.0,
            fc_dim: 12,
            quantiles: Some((0.05, 0.95)),
            spec: NeuralTrainSpec {
                epochs: 2,
                ..quick_spec()
            },
            ..Default::default()
        });
        model.fit(&ds, None);
        let tape_free = model.predict(&ds.x);
        let taped = model.predict_taped(&ds.x);
        assert_eq!(tape_free.shape(), taped.shape());
        assert_eq!(
            tape_free.as_slice(),
            taped.as_slice(),
            "taped/tape-free diverged"
        );

        let state = model.state().expect("fitted state");
        let restored = RptcnForecaster::from_state(&state).expect("round trip");
        assert_eq!(restored.config().quantiles, Some((0.05, 0.95)));
        let again = restored.predict(&ds.x);
        assert_eq!(
            again.as_slice(),
            tape_free.as_slice(),
            "restore changed output"
        );
        let wide = restored.predict_quantiles(&ds.x).expect("quantile model");
        assert_eq!(wide.shape(), &[ds.len(), 3]);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset();
        let run = || {
            let mut m = RptcnForecaster::new(RptcnConfig {
                channels: 6,
                levels: 2,
                dropout: 0.0,
                spec: NeuralTrainSpec {
                    epochs: 3,
                    ..quick_spec()
                },
                ..Default::default()
            });
            m.fit(&ds, None);
            m.predict(&ds.x)
        };
        let a = run();
        let b = run();
        assert!(a.allclose(&b, 1e-6), "training not reproducible");
    }
}
