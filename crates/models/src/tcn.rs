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

    /// `[batch, in_ch, T] -> [batch, out_ch, ⌈T/keep⌉]` with both
    /// convolutions run at `dilation` — the block's own for a full-length
    /// sequence, the quotient left once the time axis is subsampled — and
    /// the output on every `keep`-th column counted back from the last,
    /// the ones the caller goes on to read. Conv 1 runs on every column
    /// (conv 2's taps reach all of them); conv 2, the skip path and the
    /// join only on the kept ones.
    pub fn forward<E: Exec>(&self, ex: &mut E, x: &E::V, dilation: usize, keep: usize) -> E::V {
        let h = self.conv1.forward_dilated(ex, x, dilation, 1);
        let h = ex.relu(h);
        let h = self.dropout.apply_spatial(ex, h);
        let h2 = self.conv2.forward_dilated(ex, &h, dilation, keep);
        ex.release(h);
        let h2 = ex.relu(h2);
        let h2 = self.dropout.apply_spatial(ex, h2);
        let res = match &self.downsample {
            Some(d) => Some(d.forward_dilated(ex, x, d.dilation(), keep)),
            None if keep > 1 => Some(ex.subsample_time(x, keep)),
            None => None,
        };
        let out = ex.add_relu(res.as_ref().unwrap_or(x), h2);
        if let Some(res) = res {
            ex.release(res);
        }
        out
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
    /// else — computed on that step's dependency cone. A block of dilation
    /// `d` whose output is read only at `t ≡ T − 1 (mod d)` reads its input
    /// only on that residue class, where its convolutions are dilation-1
    /// convolutions over the subsampled row: conv 1 of block `l` runs on
    /// `⌈T/d_l⌉` columns. The next block reads its output on the residue
    /// class of `d_{l+1}` only, so conv 2, the skip path and the join run
    /// on `⌈T/d_{l+1}⌉` columns; the last block's on the final one.
    pub fn forward_last<E: Exec>(&self, ex: &mut E, x: E::V) -> E::V {
        let seq = self.run(ex, x, true);
        let kept = ex.shape(&seq)[2];
        let last = ex.select_time(&seq, kept - 1);
        ex.release(seq);
        last
    }

    /// The block loop. With `last_only`, each block hands on only the
    /// columns the next one reads — the residue class of the last step
    /// modulo the next dilation, the final column after the last block —
    /// and a block whose input is already that sparse runs at the
    /// remaining quotient.
    fn run<E: Exec>(&self, ex: &mut E, x: E::V, last_only: bool) -> E::V {
        let mut h = x;
        let mut stride = 1; // original steps between adjacent columns of `h`
        for (l, block) in self.blocks.iter().enumerate() {
            let d = block.dilation();
            let keep = match (last_only, self.blocks.get(l + 1)) {
                (false, _) => 1,
                (true, Some(next)) => next.dilation() / stride,
                (true, None) => ex.shape(&h)[2],
            };
            let next = block.forward(ex, &h, d / stride, keep);
            ex.replace(&mut h, next);
            stride *= keep;
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

    /// A block asked for every `keep`-th column hands on exactly those
    /// columns of its full output, bit for bit, on both backends, with and
    /// without the 1×1 projection on the skip path.
    #[test]
    fn a_block_hands_on_the_kept_columns_of_its_full_output() {
        use autograd::{Arena, InferenceContext};
        let mut rng = Rng::seed_from(5);
        for in_ch in [3, 6] {
            let mut store = ParamStore::new();
            let block = TemporalBlock::new(&mut store, "b", in_ch, 6, 3, 2, 0.0, true, &mut rng);
            for (time, keep) in [(13, 1), (13, 2), (13, 3), (4, 4), (2, 5)] {
                let x = Tensor::rand_normal(&[2, in_ch, time], 0.0, 1.0, &mut rng);
                let taped = |keep: usize| {
                    let mut g = autograd::Graph::new(&store);
                    let xi = g.input(x.clone());
                    let out = block.forward(&mut autograd::Tape::eval(&mut g), &xi, 2, keep);
                    g.value(out).clone()
                };
                let full = taped(1);
                let mut g = autograd::Graph::new(&store);
                let full_node = g.input(full);
                let want = g.subsample_time(full_node, keep);
                let want = g.value(want);
                assert_eq!(want.shape(), &[2, 6, time.div_ceil(keep)]);
                assert_eq!(taped(keep).as_slice(), want.as_slice(), "tape, keep {keep}");

                let mut ctx = InferenceContext::new();
                let mut arena = Arena::new(&mut ctx, &store);
                let xi = arena.input(x.shape(), |buf| buf.copy_from_slice(x.as_slice()));
                let out = block.forward(&mut arena, &xi, 2, keep);
                let out = arena.into_tensor(out);
                assert_eq!(out.shape(), want.shape());
                assert_eq!(out.as_slice(), want.as_slice(), "arena, keep {keep}");
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
