//! Incremental (streaming) RPTCN inference.
//!
//! The batch path recomputes the whole lookback window for every forecast:
//! `O(levels · ch² · K · T)` per sample. A dilated causal convolution only
//! ever reads taps at offsets `0, d, …, (K−1)·d` behind the current step,
//! so a per-layer ring buffer of depth `(K−1)·d + 1` is enough to produce
//! the next output column incrementally. [`StreamingRptcn`] keeps one such
//! ring per convolution input; after construction each
//! [`push`](StreamingRptcn::push) costs one timestep per layer —
//! `O(levels · ch² · K)`, independent of the window length — and performs
//! no heap allocation.
//!
//! Rings start zero-filled, which is exactly the implicit left
//! zero-padding of the batch convolution. The guarantee, enforced by the
//! parity suite in `tests/infer_parity.rs`: after `n` pushes the returned
//! forecast equals `Forecaster::predict` on the `[1, n, features]` window
//! of the full pushed history.
//!
//! Temporal attention re-weights every historical step on each forecast,
//! which is inherently `O(T)`; [`StreamingRptcn::new`] rejects models
//! configured with it.

use autograd::infer::{relu_in_place, softmax_rows_in_place};
use autograd::layers::{CausalConv1d, Linear};
use autograd::ParamStore;
use tensor::matmul::matmul_into;

use crate::rptcn::{AttentionKind, RptcnForecaster};

/// Why a forecaster could not be converted into a streaming engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamingError {
    /// The forecaster has no fitted network yet.
    NotFitted,
    /// The model uses temporal attention, which needs the full window.
    TemporalAttention,
}

impl std::fmt::Display for StreamingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotFitted => write!(f, "streaming engine requires a fitted model"),
            Self::TemporalAttention => {
                write!(f, "temporal attention needs the full window; cannot stream")
            }
        }
    }
}

impl std::error::Error for StreamingError {}

#[derive(Debug)]
/// Fixed-depth ring of `[width]` rows, zero-initialised so taps beyond the
/// pushed history read the batch path's implicit zero padding.
struct Ring {
    data: Vec<f32>,
    width: usize,
    depth: usize,
    head: usize,
}

impl Ring {
    fn new(width: usize, depth: usize) -> Self {
        Self {
            data: vec![0.0; width * depth],
            width,
            depth,
            head: 0,
        }
    }

    // hot-path: runs once per streamed sample, must stay allocation-free
    fn push(&mut self, row: &[f32]) {
        debug_assert_eq!(row.len(), self.width);
        self.head = (self.head + 1) % self.depth;
        self.data[self.head * self.width..(self.head + 1) * self.width].copy_from_slice(row);
    }

    // hot-path: runs once per streamed sample, must stay allocation-free
    /// Row pushed `back` steps ago (`back == 0` is the newest row).
    fn tap(&self, back: usize) -> &[f32] {
        debug_assert!(back < self.depth);
        let idx = (self.head + self.depth - back) % self.depth;
        &self.data[idx * self.width..(idx + 1) * self.width]
    }

    fn clear(&mut self) {
        self.data.fill(0.0);
        self.head = 0;
    }
}

/// Output-channel lanes of [`StreamWeights::Lanes`]; channels are padded up
/// to a multiple of it.
const LANES: usize = 8;

/// Widest kernel [`StreamWeights::Lanes`] handles (its taps are resolved
/// once per step into a fixed array); wider ones run channel by channel.
const MAX_TAPS: usize = 8;

/// Folded (weight-norm applied) weights of a [`StreamConv`], laid out for
/// the form its `step` takes.
#[derive(Debug)]
enum StreamWeights {
    /// `[out_ch, in_ch, k]`: one output channel at a time, skipping
    /// exact-zero weights as the batch kernel's reference path does.
    Rows(Vec<f32>),
    /// `[in_ch, k, out_ch padded to LANES]`: output channels on the vector
    /// lanes. Only without an exact-zero weight (nothing to skip) and with
    /// `k <= MAX_TAPS`.
    Lanes(Vec<f32>),
}

/// A causal convolution with weight normalisation folded into a dense
/// weight tensor, evaluated one output column at a time against a [`Ring`].
#[derive(Debug)]
struct StreamConv {
    w: StreamWeights,
    b: Vec<f32>,
    in_ch: usize,
    out_ch: usize,
    k: usize,
    dilation: usize,
}

impl StreamConv {
    fn from_layer(store: &ParamStore, conv: &CausalConv1d) -> Self {
        let (in_ch, out_ch) = (conv.in_channels(), conv.out_channels());
        let (k, dilation) = (conv.kernel_size(), conv.dilation());
        let rows = conv.folded_weight(store);
        let w = if k <= MAX_TAPS && rows.iter().all(|&wv| wv != 0.0) {
            let ocp = out_ch.div_ceil(LANES) * LANES;
            let mut lanes = vec![0.0; in_ch * k * ocp];
            for (oc, w_oc) in rows.chunks_exact(in_ch * k).enumerate() {
                for (slot, &wv) in w_oc.iter().enumerate() {
                    lanes[slot * ocp + oc] = wv;
                }
            }
            StreamWeights::Lanes(lanes)
        } else {
            StreamWeights::Rows(rows)
        };
        Self {
            w,
            b: conv.bias_values(store).to_vec(),
            in_ch,
            out_ch,
            k,
            dilation,
        }
    }

    /// Depth of the input ring this conv taps into.
    fn ring_depth(&self) -> usize {
        (self.k - 1) * self.dilation + 1
    }

    // hot-path: runs once per streamed sample, must stay allocation-free
    /// One output column. Mirrors the batch kernel exactly: every output
    /// channel accumulates in `ic → kk` order with the same sparse-weight
    /// skip, bias last.
    ///
    /// Channel by channel that is `out_ch` dependent chains of `in_ch·k`
    /// adds, bound by add latency, not by the window. With no exact-zero
    /// weight to skip, the channels go on the vector lanes instead — input
    /// sample broadcast, weights transposed once at construction — and
    /// each lane keeps the same chain.
    fn step(&self, ring: &Ring, out_row: &mut [f32]) {
        debug_assert_eq!(out_row.len(), self.out_ch);
        debug_assert_eq!(ring.width, self.in_ch);
        let shift = |kk: usize| (self.k - 1 - kk) * self.dilation;
        match &self.w {
            StreamWeights::Rows(w) => {
                for (oc, out) in out_row.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for ic in 0..self.in_ch {
                        let wrow = &w[(oc * self.in_ch + ic) * self.k..][..self.k];
                        for (kk, &wv) in wrow.iter().enumerate() {
                            if wv == 0.0 {
                                continue;
                            }
                            acc += wv * ring.tap(shift(kk))[ic];
                        }
                    }
                    *out = acc + self.b[oc];
                }
            }
            StreamWeights::Lanes(wt) => {
                let ocp = wt.len() / (self.in_ch * self.k);
                let mut taps: [&[f32]; MAX_TAPS] = [&[]; MAX_TAPS];
                for (kk, tap) in taps.iter_mut().enumerate().take(self.k) {
                    *tap = ring.tap(shift(kk));
                }
                for (lane0, (out, b)) in (0..ocp)
                    .step_by(LANES)
                    .zip(out_row.chunks_mut(LANES).zip(self.b.chunks(LANES)))
                {
                    let mut acc = [0.0f32; LANES];
                    for ic in 0..self.in_ch {
                        for (kk, tap) in taps.iter().enumerate().take(self.k) {
                            let xv = tap[ic];
                            let w = &wt[(ic * self.k + kk) * ocp + lane0..][..LANES];
                            for (a, &wv) in acc.iter_mut().zip(w) {
                                *a += wv * xv;
                            }
                        }
                    }
                    for ((o, &a), &bv) in out.iter_mut().zip(&acc).zip(b) {
                        *o = a + bv;
                    }
                }
            }
        }
    }
}

/// One TCN residual block in streaming form: two ring-buffered dilated
/// convolutions plus the (optionally downsampled) skip connection.
#[derive(Debug)]
struct StreamBlock {
    conv1: StreamConv,
    conv2: StreamConv,
    downsample: Option<StreamConv>,
    ring_in: Ring,
    ring_mid: Ring,
    h1: Vec<f32>,
    h2: Vec<f32>,
    res: Vec<f32>,
    /// The block's latest output row; the next block reads it directly.
    out: Vec<f32>,
}

impl StreamBlock {
    fn new(conv1: StreamConv, conv2: StreamConv, downsample: Option<StreamConv>) -> Self {
        let ring_in = Ring::new(conv1.in_ch, conv1.ring_depth());
        let ring_mid = Ring::new(conv2.in_ch, conv2.ring_depth());
        let (h1, h2) = (vec![0.0; conv1.out_ch], vec![0.0; conv2.out_ch]);
        let res = vec![0.0; downsample.as_ref().map_or(0, |d| d.out_ch)];
        let out = vec![0.0; conv2.out_ch];
        Self {
            conv1,
            conv2,
            downsample,
            ring_in,
            ring_mid,
            h1,
            h2,
            res,
            out,
        }
    }

    // hot-path: runs once per streamed sample, must stay allocation-free
    fn push(&mut self, x_row: &[f32]) {
        self.ring_in.push(x_row);
        self.conv1.step(&self.ring_in, &mut self.h1);
        relu_in_place(&mut self.h1);
        self.ring_mid.push(&self.h1);
        self.conv2.step(&self.ring_mid, &mut self.h2);
        relu_in_place(&mut self.h2);
        let res: &[f32] = match &self.downsample {
            Some(d) => {
                d.step(&self.ring_in, &mut self.res);
                &self.res
            }
            None => x_row,
        };
        for ((o, &h), &r) in self.out.iter_mut().zip(&self.h2).zip(res) {
            *o = (r + h).max(0.0);
        }
    }

    fn clear(&mut self) {
        self.ring_in.clear();
        self.ring_mid.clear();
    }
}

/// A dense layer snapshot (`[in, out]` weight plus optional bias).
#[derive(Debug)]
struct DenseStage {
    w: Vec<f32>,
    b: Option<Vec<f32>>,
    in_dim: usize,
    out_dim: usize,
}

impl DenseStage {
    fn from_layer(store: &ParamStore, linear: &Linear) -> Self {
        Self {
            w: linear.weight_values(store).to_vec(),
            b: linear.bias_values(store).map(<[f32]>::to_vec),
            in_dim: linear.in_dim(),
            out_dim: linear.out_dim(),
        }
    }

    // hot-path: runs once per streamed sample, must stay allocation-free
    /// `out = x · W (+ b)` for a single row — the same `matmul_into` kernel
    /// the batch path uses, so results are bitwise identical.
    fn apply(&self, x: &[f32], out: &mut [f32]) {
        matmul_into(x, &self.w, out, 1, self.in_dim, self.out_dim);
        if let Some(b) = &self.b {
            for (o, &bv) in out.iter_mut().zip(b) {
                *o += bv;
            }
        }
    }
}

/// Incremental RPTCN inference over an unbounded sample stream. See the
/// module docs for the cost model and the parity guarantee.
#[derive(Debug)]
pub struct StreamingRptcn {
    blocks: Vec<StreamBlock>,
    fc: Option<DenseStage>,
    attn: Option<DenseStage>,
    head: DenseStage,
    features: usize,
    horizon: usize,
    hidden: Vec<f32>,
    fc_out: Vec<f32>,
    scores: Vec<f32>,
    out: Vec<f32>,
    steps: u64,
}

impl StreamingRptcn {
    /// Snapshot a fitted forecaster's weights into a streaming engine.
    /// Weight normalisation is folded once here, so pushes touch only
    /// dense tensors.
    pub fn new(model: &RptcnForecaster) -> Result<Self, StreamingError> {
        if model.config().use_attention && model.config().attention == AttentionKind::Temporal {
            return Err(StreamingError::TemporalAttention);
        }
        let net = model.network().ok_or(StreamingError::NotFitted)?;
        let store = &net.store;
        let blocks: Vec<StreamBlock> = net
            .backbone
            .blocks()
            .iter()
            .map(|b| {
                StreamBlock::new(
                    StreamConv::from_layer(store, b.conv1()),
                    StreamConv::from_layer(store, b.conv2()),
                    b.downsample().map(|d| StreamConv::from_layer(store, d)),
                )
            })
            .collect();
        let fc = net.fc.as_ref().map(|l| DenseStage::from_layer(store, l));
        let attn = net
            .feature_attention
            .as_ref()
            .map(|a| DenseStage::from_layer(store, a.proj()));
        let head = DenseStage::from_layer(store, &net.head);

        let features = blocks[0].conv1.in_ch;
        let ch = net.backbone.out_channels();
        let fc_dim = fc.as_ref().map_or(0, |f| f.out_dim);
        Self::validate_widths(&blocks);
        Ok(Self {
            hidden: vec![0.0; ch],
            fc_out: vec![0.0; fc_dim],
            scores: vec![0.0; head.in_dim],
            out: vec![0.0; head.out_dim],
            horizon: head.out_dim,
            features,
            blocks,
            fc,
            attn,
            head,
            steps: 0,
        })
    }

    fn validate_widths(blocks: &[StreamBlock]) {
        for pair in blocks.windows(2) {
            debug_assert_eq!(pair[0].conv2.out_ch, pair[1].conv1.in_ch);
        }
    }

    // hot-path: runs once per streamed sample, must stay allocation-free
    /// Feed one `[features]` sample and get the forecast for the stream so
    /// far. Allocation-free; the returned slice is valid until the next
    /// push.
    pub fn push(&mut self, sample: &[f32]) -> &[f32] {
        assert_eq!(sample.len(), self.features, "sample width");
        self.steps += 1;

        for i in 0..self.blocks.len() {
            let (done, rest) = self.blocks.split_at_mut(i);
            let cur: &[f32] = match done.last() {
                Some(prev) => &prev.out,
                None => sample,
            };
            rest[0].push(cur);
        }
        // The constructor builds at least one block; skip the copy (and
        // keep the previous hidden state) rather than panic if not.
        if let Some(last) = self.blocks.last() {
            self.hidden.copy_from_slice(&last.out);
        }

        let h: &mut Vec<f32> = if let Some(fc) = &self.fc {
            fc.apply(&self.hidden, &mut self.fc_out);
            relu_in_place(&mut self.fc_out);
            &mut self.fc_out
        } else {
            &mut self.hidden
        };
        if let Some(attn) = &self.attn {
            let dim = attn.out_dim;
            attn.apply(h, &mut self.scores[..dim]);
            softmax_rows_in_place(&mut self.scores[..dim], 1, dim);
            for (hv, &s) in h.iter_mut().zip(&self.scores[..dim]) {
                *hv *= s * dim as f32;
            }
        }
        self.head.apply(h, &mut self.out);
        &self.out
    }

    /// Forget all pushed history (rings back to the zero-padded state).
    pub fn reset(&mut self) {
        for b in &mut self.blocks {
            b.clear();
        }
        self.steps = 0;
    }

    /// Samples pushed since construction or the last [`reset`](Self::reset).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    pub fn features(&self) -> usize {
        self.features
    }

    pub fn horizon(&self) -> usize {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rptcn::RptcnConfig;

    #[test]
    fn ring_taps_and_wraps() {
        let mut r = Ring::new(2, 3);
        assert_eq!(r.tap(0), &[0.0, 0.0]);
        r.push(&[1.0, 2.0]);
        r.push(&[3.0, 4.0]);
        assert_eq!(r.tap(0), &[3.0, 4.0]);
        assert_eq!(r.tap(1), &[1.0, 2.0]);
        assert_eq!(r.tap(2), &[0.0, 0.0]);
        r.push(&[5.0, 6.0]);
        r.push(&[7.0, 8.0]); // wraps, evicting [1, 2]
        assert_eq!(r.tap(0), &[7.0, 8.0]);
        assert_eq!(r.tap(2), &[3.0, 4.0]);
    }

    #[test]
    fn unfitted_and_temporal_models_are_rejected() {
        let unfitted = RptcnForecaster::paper_default();
        assert_eq!(
            StreamingRptcn::new(&unfitted).unwrap_err(),
            StreamingError::NotFitted
        );
        let mut temporal = RptcnForecaster::new(RptcnConfig {
            attention: AttentionKind::Temporal,
            ..RptcnConfig::default()
        });
        temporal.init_untrained(2, 1);
        assert_eq!(
            StreamingRptcn::new(&temporal).unwrap_err(),
            StreamingError::TemporalAttention
        );
    }

    #[test]
    fn reset_restores_the_cold_stream() {
        let mut model = RptcnForecaster::new(RptcnConfig {
            channels: 6,
            levels: 2,
            fc_dim: 8,
            ..RptcnConfig::default()
        });
        model.init_untrained(3, 1);
        let mut s = StreamingRptcn::new(&model).unwrap();
        let samples = [[0.3, -0.1, 0.8], [0.9, 0.2, -0.4], [0.1, 0.1, 0.5]];
        let first: Vec<Vec<f32>> = samples.iter().map(|r| s.push(r).to_vec()).collect();
        assert_eq!(s.steps(), 3);
        s.reset();
        assert_eq!(s.steps(), 0);
        let second: Vec<Vec<f32>> = samples.iter().map(|r| s.push(r).to_vec()).collect();
        assert_eq!(first, second, "reset did not clear ring state");
    }
}
