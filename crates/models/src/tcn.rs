//! Temporal Convolutional Network backbone (Bai et al. 2018, paper §III-D):
//! a stack of residual blocks of dilated causal convolutions with weight
//! normalisation, ReLU and spatial dropout. RPTCN builds on this backbone;
//! it is also exposed as a plain `TCN` forecaster for the component
//! ablation.

use autograd::layers::{CausalConv1d, Dropout, Linear};
use autograd::{Exec, ParamStore, SequenceModel};
use tensor::{Rng, Tensor};
use timeseries::WindowedDataset;

use crate::forecaster::{FitReport, Forecaster};
use crate::neural::{self, NeuralTrainSpec};

/// One TCN residual block (paper Fig. 6): two dilated causal convolutions,
/// each followed by ReLU and spatial dropout, plus a 1×1 convolution on the
/// skip path when channel counts differ; the block output is
/// `ReLU(x + F(x))` (paper eq. 5).
#[derive(Clone)]
pub struct TemporalBlock {
    conv1: CausalConv1d,
    conv2: CausalConv1d,
    downsample: Option<CausalConv1d>,
    dropout: Dropout,
}

impl TemporalBlock {
    #[allow(clippy::too_many_arguments)] // block hyper-parameters
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        dilation: usize,
        dropout: f32,
        weight_norm: bool,
        rng: &mut Rng,
    ) -> Self {
        let conv1 = CausalConv1d::new(
            store,
            &format!("{name}.conv1"),
            in_ch,
            out_ch,
            kernel,
            dilation,
            weight_norm,
            rng,
        );
        let conv2 = CausalConv1d::new(
            store,
            &format!("{name}.conv2"),
            out_ch,
            out_ch,
            kernel,
            dilation,
            weight_norm,
            rng,
        );
        let downsample = (in_ch != out_ch).then(|| {
            CausalConv1d::new(
                store,
                &format!("{name}.down"),
                in_ch,
                out_ch,
                1,
                1,
                false,
                rng,
            )
        });
        Self {
            conv1,
            conv2,
            downsample,
            dropout: Dropout::new(dropout),
        }
    }

    /// `[batch, in_ch, T] -> [batch, out_ch, T]` with both convolutions run
    /// at `dilation`: the block's own for a full-length sequence, the
    /// quotient left after the caller subsampled the time axis.
    pub fn forward<E: Exec>(&self, ex: &mut E, x: &E::V, dilation: usize) -> E::V {
        let h = self.conv1.forward_dilated(ex, x, dilation);
        let h = ex.relu(h);
        let h = self.dropout.apply_spatial(ex, h);
        let h2 = self.conv2.forward_dilated(ex, &h, dilation);
        ex.release(h);
        let h2 = ex.relu(h2);
        let h2 = self.dropout.apply_spatial(ex, h2);
        match &self.downsample {
            Some(d) => {
                let res = d.forward(ex, x);
                let out = ex.add_relu(&res, h2);
                ex.release(res);
                out
            }
            None => ex.add_relu(x, h2),
        }
    }

    /// Dilation of the block's two convolutions.
    pub fn dilation(&self) -> usize {
        self.conv1.dilation()
    }

    pub fn conv1(&self) -> &CausalConv1d {
        &self.conv1
    }

    pub fn conv2(&self) -> &CausalConv1d {
        &self.conv2
    }

    pub fn downsample(&self) -> Option<&CausalConv1d> {
        self.downsample.as_ref()
    }
}

/// Stack of [`TemporalBlock`]s with exponentially growing dilations
/// `1, 2, 4, …` (paper Fig. 5 uses `[1, 2, 4]`).
#[derive(Clone)]
pub struct TcnBackbone {
    blocks: Vec<TemporalBlock>,
    out_channels: usize,
}

impl TcnBackbone {
    #[allow(clippy::too_many_arguments)] // backbone hyper-parameters
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_features: usize,
        channels: usize,
        levels: usize,
        kernel: usize,
        dropout: f32,
        weight_norm: bool,
        rng: &mut Rng,
    ) -> Self {
        assert!(levels >= 1);
        let blocks = (0..levels)
            .map(|l| {
                let in_ch = if l == 0 { in_features } else { channels };
                TemporalBlock::new(
                    store,
                    &format!("{name}.block{l}"),
                    in_ch,
                    channels,
                    kernel,
                    1 << l,
                    dropout,
                    weight_norm,
                    rng,
                )
            })
            .collect();
        Self {
            blocks,
            out_channels: channels,
        }
    }

    /// `[batch, features, T] -> [batch, channels, T]`: every step, for a
    /// head that reads them all (temporal attention). Consumes `x`.
    pub fn forward<E: Exec>(&self, ex: &mut E, x: E::V) -> E::V {
        self.run(ex, x, false)
    }

    /// `[batch, features, T] -> [batch, channels]`: step `T − 1` of
    /// [`forward`](Self::forward), bitwise, for a head that reads nothing
    /// else. A block of dilation `d` whose output is read only at
    /// `t ≡ T − 1 (mod d)` reads its input only on that residue class, where
    /// its convolutions are dilation-1 convolutions over the subsampled row;
    /// so each block runs on `⌈T/d⌉` columns instead of `T`.
    pub fn forward_last<E: Exec>(&self, ex: &mut E, x: E::V) -> E::V {
        let seq = self.run(ex, x, true);
        let kept = ex.shape(&seq)[2];
        let last = ex.select_time(&seq, kept - 1);
        ex.release(seq);
        last
    }

    /// The block loop. With `last_only`, the time axis is subsampled down
    /// to the residue class of the last step before each block whose
    /// dilation grows, and the block runs at the remaining quotient.
    fn run<E: Exec>(&self, ex: &mut E, x: E::V, last_only: bool) -> E::V {
        let mut h = x;
        let mut stride = 1; // original steps between adjacent columns of `h`
        for block in &self.blocks {
            let d = block.dilation();
            if last_only && d > stride {
                let sub = ex.subsample_time(&h, d / stride);
                ex.replace(&mut h, sub);
                stride = d;
            }
            let next = block.forward(ex, &h, d / stride);
            ex.replace(&mut h, next);
        }
        h
    }

    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    pub fn blocks(&self) -> &[TemporalBlock] {
        &self.blocks
    }
}

/// Plain-TCN architecture knobs (shared by RPTCN, which extends them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcnConfig {
    pub channels: usize,
    pub levels: usize,
    pub kernel: usize,
    pub dropout: f32,
    pub weight_norm: bool,
    pub spec: NeuralTrainSpec,
}

impl Default for TcnConfig {
    fn default() -> Self {
        Self {
            channels: 16,
            levels: 4,
            kernel: 3,
            dropout: 0.1,
            weight_norm: true,
            spec: NeuralTrainSpec {
                learning_rate: 2e-3,
                ..Default::default()
            },
        }
    }
}

struct TcnNetwork {
    store: ParamStore,
    backbone: TcnBackbone,
    head: Linear,
    horizon: usize,
}

impl SequenceModel for TcnNetwork {
    fn run<E: Exec>(&self, ex: &mut E, x: &Tensor) -> E::V {
        let ct = neural::channels_time(ex, x);
        let last = self.backbone.forward_last(ex, ct);
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

/// Vanilla TCN forecaster (backbone + dense head, no FC/attention) — the
/// ablation reference RPTCN is compared against.
pub struct TcnForecaster {
    config: TcnConfig,
    network: Option<TcnNetwork>,
}

impl TcnForecaster {
    pub fn new(config: TcnConfig) -> Self {
        Self {
            config,
            network: None,
        }
    }

    fn build(&self, features: usize, horizon: usize) -> TcnNetwork {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(self.config.spec.seed.wrapping_add(0x7C4));
        let backbone = TcnBackbone::new(
            &mut store,
            "tcn",
            features,
            self.config.channels,
            self.config.levels,
            self.config.kernel,
            self.config.dropout,
            self.config.weight_norm,
            &mut rng,
        );
        let head = Linear::with_init(
            &mut store,
            "head",
            self.config.channels,
            horizon,
            autograd::Init::Constant(0.0),
            true,
            &mut rng,
        );
        TcnNetwork {
            store,
            backbone,
            head,
            horizon,
        }
    }
}

impl Forecaster for TcnForecaster {
    fn name(&self) -> &str {
        "TCN"
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
}

impl TcnForecaster {
    /// Taped-graph inference — the parity/benchmark reference for
    /// [`Forecaster::predict`]'s tape-free path.
    pub fn predict_taped(&self, x: &Tensor) -> Tensor {
        let net = self.network.as_ref().expect("predict before fit"); // lint: allow(r2) — Forecaster::predict contract
        neural::predict_network_taped(net, x, self.config.spec.batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timeseries::{make_windows, TimeSeriesFrame};

    #[test]
    fn backbone_preserves_time_length_and_causality() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(1);
        let backbone = TcnBackbone::new(&mut store, "t", 2, 4, 2, 3, 0.0, true, &mut rng);

        let x1 = Tensor::rand_normal(&[1, 2, 12], 0.0, 1.0, &mut rng);
        let mut x2 = x1.clone();
        for c in 0..2 {
            let v = x2.at(&[0, c, 11]) + 10.0;
            x2.set(&[0, c, 11], v);
        }
        let run = |xd: &Tensor| {
            let mut g = autograd::Graph::new(&store);
            let xi = g.input(xd.clone());
            let out = backbone.forward(&mut autograd::Tape::eval(&mut g), xi);
            g.value(out).clone()
        };
        let y1 = run(&x1);
        let y2 = run(&x2);
        assert_eq!(y1.shape(), &[1, 4, 12]);
        // Perturbing the last step must not change earlier outputs.
        for c in 0..4 {
            for t in 0..11 {
                assert_eq!(
                    y1.at(&[0, c, t]),
                    y2.at(&[0, c, t]),
                    "future leaked at t={t}"
                );
            }
        }
    }

    #[test]
    fn tcn_learns_a_periodic_signal() {
        let series: Vec<f32> = (0..400)
            .map(|i| 0.5 + 0.4 * (i as f32 * 0.25).sin())
            .collect();
        let frame = TimeSeriesFrame::from_columns(&[("cpu", series)]).unwrap();
        let ds = make_windows(&frame, "cpu", 16, 1).unwrap();
        let mut model = TcnForecaster::new(TcnConfig {
            channels: 8,
            levels: 3,
            dropout: 0.0,
            spec: NeuralTrainSpec {
                epochs: 20,
                learning_rate: 3e-3,
                ..Default::default()
            },
            ..Default::default()
        });
        let report = model.fit(&ds, None);
        assert!(report.final_train_loss() < report.train_loss[0] * 0.5);
        let (truth, pred) = model.evaluate(&ds);
        let mse = timeseries::metrics::mse(&truth, &pred);
        assert!(mse < 0.01, "TCN mse {mse}");
    }
}
