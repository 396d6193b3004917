//! Forward and backward kernels for dilated causal 1-D convolution — the
//! workhorse of TCN/RPTCN. Layout: activations are `[batch, channels, time]`,
//! weights are `[out_ch, in_ch, kernel]`.
//!
//! Causality follows eq. (4) of the paper: the output at time `t` reads
//! inputs `x_{t - (K-1-kk)·d}` for tap `kk`, i.e. only the past. Negative
//! time indices contribute zero (implicit left padding of `(K-1)·d`).

use tensor::Tensor;

use crate::infer::{add_channel_bias, subsample_time_into, subsampled_len};

/// Accumulate one `(oc, ic)` filter row tap-by-tap: for each tap `kk`, an
/// axpy over the valid region of the row. The reference accumulation
/// order — [`conv1d_kept_into`] reproduces it bitwise wherever it runs.
#[inline]
fn tap_accumulate(
    y_row: &mut [f32],
    x_row: &[f32],
    w_row: &[f32],
    time: usize,
    k: usize,
    dilation: usize,
) {
    for (kk, &wv) in w_row.iter().enumerate() {
        if wv == 0.0 {
            continue;
        }
        // Tap kk reads x[t - shift]; only t >= shift contributes.
        let shift = (k - 1 - kk) * dilation;
        if shift >= time {
            continue;
        }
        for (y, &xv) in y_row[shift..].iter_mut().zip(&x_row[..time - shift]) {
            *y += wv * xv;
        }
    }
}

/// Every weight finite and nonzero: a `w · 0.0` term is `±0.0`, and adding
/// a signed zero never changes an accumulator that started at `+0.0`. One
/// pass without early exit, so the scan vectorises. It depends on the
/// weights alone: the serving path runs it once per weight install (the
/// [`ParamStore`](crate::ParamStore) picks the layout it prepares by it),
/// the training kernels once per call.
fn uniform_weights(dw: &[f32]) -> bool {
    let (mut nonzero, mut finite) = (true, true);
    for &w in dw {
        nonzero &= w != 0.0;
        finite &= w.is_finite();
    }
    nonzero && finite
}

/// The weight-norm reparameterisation `gain · v / ‖v‖` of a `[out_ch, per]`
/// weight as one dense weight, replicating the tape's op sequence exactly
/// (f32 squares accumulated in f64, sqrt, `+ 1e-6`, divide, then gain) so
/// the folded weight is bit-identical to the one the taped conv primitive
/// convolves with. Once per weight install, not per forecast; the tape
/// folds per pass instead, because gradients have to reach `v` and the
/// gain through the fold.
pub(crate) fn fold_weight_norm(v: &[f32], gain: &[f32]) -> Vec<f32> {
    let out_ch = gain.len();
    let per = v.len() / out_ch.max(1);
    assert_eq!(v.len(), out_ch * per, "fold_weight_norm weight length");
    let mut out = vec![0.0f32; v.len()];
    for ((row, orow), &gn) in v.chunks(per).zip(out.chunks_mut(per)).zip(gain) {
        let mut ss = 0.0f64;
        for &x in row {
            ss += (x * x) as f64;
        }
        let norm = (ss as f32).sqrt() + 1e-6;
        for (o, &x) in orow.iter_mut().zip(row) {
            *o = (x / norm) * gn;
        }
    }
    out
}

/// `out = causal_conv1d(x, w)` over raw row-major slices — behind
/// [`conv1d_forward`], the whole-row convolution the tape's node falls back
/// to. `out` is fully overwritten.
///
/// Weights [`kept_kernel_takes`] run on [`conv1d_kept_into`] with every
/// column kept, laid out lane-major for this call and with a zero bias:
/// `acc + 0.0` is `acc`, because no chain that starts at `+0.0` reaches
/// `−0.0`. Any other weight — weight-normed filters can carry exact zeros —
/// takes the tap-wise reference.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_into(
    dx: &[f32],
    dw: &[f32],
    out: &mut [f32],
    batch: usize,
    in_ch: usize,
    out_ch: usize,
    time: usize,
    k: usize,
    dilation: usize,
) {
    if kept_kernel_takes(dw) {
        let lanes = lane_major_weight(dw, out_ch, in_ch, k);
        let zero_bias = vec![0.0f32; out_ch];
        conv1d_kept_into(
            dx, &lanes, &zero_bias, out, batch, in_ch, out_ch, time, k, dilation, 1,
        );
        return;
    }
    out.fill(0.0);
    conv1d_taps_into_zeroed(dx, dw, out, batch, in_ch, out_ch, time, k, dilation);
}

/// The reference convolution — [`tap_accumulate`] for every `(out-channel,
/// in-channel)` pair — into an `out` that **the caller has zeroed**: it
/// accumulates, so any other content ends up in the sums. Both callers
/// hold to it: the arena's `take` hands out zero-filled buffers
/// ([`InferenceContext::take`] resizes from empty), [`conv1d_into`] fills.
///
/// [`InferenceContext::take`]: crate::infer::InferenceContext::take
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv1d_taps_into_zeroed(
    dx: &[f32],
    dw: &[f32],
    out: &mut [f32],
    batch: usize,
    in_ch: usize,
    out_ch: usize,
    time: usize,
    k: usize,
    dilation: usize,
) {
    assert!(dilation >= 1, "dilation must be >= 1");
    assert_eq!(dx.len(), batch * in_ch * time, "conv1d_into input length");
    assert_eq!(dw.len(), out_ch * in_ch * k, "conv1d_into weight length");
    assert_eq!(
        out.len(),
        batch * out_ch * time,
        "conv1d_into output length"
    );
    debug_assert!(out.iter().all(|v| v.to_bits() == 0), "out not zeroed");
    for b in 0..batch {
        let x_item = &dx[b * in_ch * time..][..in_ch * time];
        for oc in 0..out_ch {
            let y_row = &mut out[(b * out_ch + oc) * time..][..time];
            for ic in 0..in_ch {
                let x_row = &x_item[ic * time..][..time];
                let w_row = &dw[(oc * in_ch + ic) * k..][..k];
                tap_accumulate(y_row, x_row, w_row, time, k, dilation);
            }
        }
    }
}

/// Out-channel lanes of one accumulator of the kept-column kernel: two AVX
/// registers. Its weight copy pads the out-channels up to a multiple.
const KEPT_LANES: usize = 16;

/// Row length of the lane-major weight: `out_ch` padded to whole lane blocks.
fn kept_lane_stride(out_ch: usize) -> usize {
    out_ch.div_ceil(KEPT_LANES) * KEPT_LANES
}

/// Columns [`conv1d_kept_into`] advances together: with [`KEPT_LANES`]
/// lanes each, eight independent chains that share every weight load.
const KEPT_COLS: usize = 4;

/// Whether a convolution with the `[out_ch, in_ch, k]` weight `dw` runs on
/// [`conv1d_kept_into`]: weights [`uniform_weights`] accepts — the
/// reference's zero test is the one thing the kernel does not reproduce —
/// and not empty. Everything else takes the tap-wise reference.
pub(crate) fn kept_kernel_takes(dw: &[f32]) -> bool {
    !dw.is_empty() && uniform_weights(dw)
}

/// `[out_ch, in_ch, k]` re-laid as `[in_ch, k, out_ch]`, out-channels
/// zero-padded up to a multiple of [`KEPT_LANES`]: the weight
/// [`conv1d_kept_into`] reads, one contiguous lane vector per
/// `(in-channel, tap)`. Depends on the weights alone — made once per weight
/// install for the arena, like the fold and the scan.
pub(crate) fn lane_major_weight(dw: &[f32], out_ch: usize, in_ch: usize, k: usize) -> Vec<f32> {
    assert_eq!(dw.len(), out_ch * in_ch * k, "lane_major_weight length");
    let lane_stride = kept_lane_stride(out_ch);
    let mut lanes = vec![0.0f32; in_ch * k * lane_stride];
    for (oc, w_oc) in dw.chunks_exact((in_ch * k).max(1)).enumerate() {
        for (row, &wv) in w_oc.iter().enumerate() {
            lanes[row * lane_stride + oc] = wv;
        }
    }
    lanes
}

/// One batch item of a kept-column convolution: its `[in_ch, time]` input
/// rows and the whole lane-major weight, one row of `lane_stride` per
/// `(in-channel, tap)`.
#[derive(Clone, Copy)]
struct KeptItem<'a> {
    x_item: &'a [f32],
    w_rows: &'a [f32],
    lane_stride: usize,
    time: usize,
    k: usize,
    dilation: usize,
}

impl KeptItem<'_> {
    /// The convolution sums at the `S` steps `cols` (ascending) of the
    /// input rows for the [`KEPT_LANES`] out-channels from `lane0`: every
    /// `(out-channel, column)` element accumulates `acc += w · x[t − shift]`
    /// in `(in-channel, tap)` order from `+0.0`, multiply and add separate,
    /// over exactly the taps with `shift <= t` — the chain
    /// [`tap_accumulate`] builds for it, with no padding term. `WARM`
    /// admits columns with taps that reach before the row and tests for
    /// them; a block whose first column has every tap runs without the
    /// test.
    #[inline(always)]
    fn chains<const S: usize, const WARM: bool>(
        self,
        lane0: usize,
        cols: [usize; S],
    ) -> [[f32; KEPT_LANES]; S] {
        let (time, k, dilation) = (self.time, self.k, self.dilation);
        let reach = (k - 1) * dilation;
        // Leading taps a column leaves out.
        let skip: [usize; S] = match WARM {
            true => cols.map(|t| (k - 1).saturating_sub(t / dilation)),
            false => [0; S],
        };
        // Column `s` reads `xs[s][ic · time + (kk − skip[s]) · dilation]`:
        // its slice starts at the first step it reads of in-channel 0.
        let mut xs: [&[f32]; S] =
            std::array::from_fn(|s| &self.x_item[cols[s] + skip[s] * dilation - reach..]);
        if !WARM {
            // One length, so that one bounds check serves a tap's `S` loads.
            let shortest = xs[S - 1].len();
            xs = xs.map(|x| &x[..shortest]);
        }
        let mut acc = [[0.0f32; KEPT_LANES]; S];
        let w_ics = self.w_rows.chunks_exact(k * self.lane_stride);
        for (ic, w_ic) in w_ics.enumerate() {
            for (kk, w_row) in w_ic.chunks_exact(self.lane_stride).enumerate() {
                let w = &w_row[lane0..lane0 + KEPT_LANES];
                let i = ic * time + kk * dilation;
                for s in 0..S {
                    if !WARM || kk >= skip[s] {
                        let xv = xs[s][i - skip[s] * dilation];
                        for (slot, &wv) in acc[s].iter_mut().zip(w) {
                            *slot += wv * xv;
                        }
                    }
                }
            }
        }
        acc
    }

    /// [`chains`](Self::chains) of a block, biased and written out to the
    /// `[out_ch, kept]` item: `acc[s][l]` is kept column `j0 + s` of
    /// out-channel `lane0 + l`, so each out-channel gets its `S`
    /// neighbouring columns in one copy.
    #[inline(always)]
    fn block<const S: usize>(
        self,
        lane0: usize,
        cols: [usize; S],
        bias: &[f32],
        out_item: &mut [f32],
        kept: usize,
        j0: usize,
    ) {
        let acc = match cols[0] < (self.k - 1) * self.dilation {
            true => self.chains::<S, true>(lane0, cols),
            false => self.chains::<S, false>(lane0, cols),
        };
        for (oc, &b) in bias.iter().enumerate().skip(lane0).take(KEPT_LANES) {
            let columns: [f32; S] = std::array::from_fn(|s| acc[s][oc - lane0] + b);
            out_item[oc * kept + j0..][..S].copy_from_slice(&columns);
        }
    }
}

// hot-path: the body of every kept-column convolution, must stay allocation-free
/// One batch item of [`conv1d_kept_into`]: `out_item` is the
/// `[out_ch, ⌈time/keep⌉]` kept columns, fully overwritten with sum plus
/// channel bias. Blocks of [`KEPT_COLS`] columns by [`KEPT_LANES`]
/// out-channels keep their chains in registers; the last block of a row is
/// taken back from its end, recomputing the columns it shares with the
/// block before it, and rows shorter than a block go column by column.
/// Safe Rust: this body is the portable (and Miri) path and, inlined under
/// [`kept_item_avx`], the vector one.
#[inline(always)]
fn kept_item_scalar(item: KeptItem, bias: &[f32], out_item: &mut [f32], keep: usize) {
    let kept = item.time.div_ceil(keep);
    let first = (item.time - 1) % keep;
    for lane0 in (0..bias.len()).step_by(KEPT_LANES) {
        if kept < KEPT_COLS {
            for j in 0..kept {
                item.block(lane0, [first + j * keep], bias, out_item, kept, j);
            }
            continue;
        }
        for block in 0..kept.div_ceil(KEPT_COLS) {
            let j0 = (block * KEPT_COLS).min(kept - KEPT_COLS);
            let cols: [usize; KEPT_COLS] = std::array::from_fn(|s| first + (j0 + s) * keep);
            item.block(lane0, cols, bias, out_item, kept, j0);
        }
    }
}

/// [`kept_item_scalar`] compiled with AVX enabled, so that an accumulator
/// is two `ymm` registers rather than four `xmm` ones and a block's eight
/// chains fit the register file. The same safe body: the same operations in
/// the same order on every element, hence the same bits.
///
/// # Safety
///
/// The caller must verify AVX support at runtime. No memory access depends
/// on it: every index is bounds-checked.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx")]
unsafe fn kept_item_avx(item: KeptItem, bias: &[f32], out_item: &mut [f32], keep: usize) {
    kept_item_scalar(item, bias, out_item, keep);
}

// hot-path: one call per convolution of a served forecast, must stay allocation-free
/// The columns of `causal_conv1d(x, w) + bias` a consumer reads when it
/// keeps every `keep`-th step counted back from the last
/// ([`subsample_time_into`](crate::infer::subsample_time_into)'s rule;
/// `keep == 1` is the whole row), and only those: `out` is
/// `[batch, out_ch, ⌈time/keep⌉]`, fully overwritten. `w_lanes` is the
/// [`lane_major_weight`] of a weight [`kept_kernel_takes`]: out-channels
/// sit on the vector lanes, which fill at any row length (a handful of
/// kept columns cannot fill them along time), and each kept element keeps
/// the `(in-channel, tap)` chain of [`tap_accumulate`] — so the result is
/// bitwise the reference convolution, biased, then subsampled. Batch items
/// go through one kernel one after the other: a stacked row is the lone
/// forecast's bits.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv1d_kept_into(
    dx: &[f32],
    w_lanes: &[f32],
    bias: &[f32],
    out: &mut [f32],
    batch: usize,
    in_ch: usize,
    out_ch: usize,
    time: usize,
    k: usize,
    dilation: usize,
    keep: usize,
) {
    assert!(dilation >= 1 && keep >= 1 && k >= 1 && in_ch >= 1);
    let kept = time.div_ceil(keep);
    let lane_stride = kept_lane_stride(out_ch);
    assert_eq!(dx.len(), batch * in_ch * time, "conv1d_kept_into input");
    assert_eq!(
        w_lanes.len(),
        in_ch * k * lane_stride,
        "conv1d_kept_into weight"
    );
    assert_eq!(bias.len(), out_ch, "conv1d_kept_into bias");
    assert_eq!(out.len(), batch * out_ch * kept, "conv1d_kept_into output");
    if out.is_empty() {
        return;
    }
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    let avx = std::is_x86_feature_detected!("avx");
    for (b, out_item) in out.chunks_exact_mut(out_ch * kept).enumerate() {
        let item = KeptItem {
            x_item: &dx[b * in_ch * time..(b + 1) * in_ch * time],
            w_rows: w_lanes,
            lane_stride,
            time,
            k,
            dilation,
        };
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if avx {
            // SAFETY: AVX support was verified at runtime just above.
            unsafe {
                kept_item_avx(item, bias, out_item, keep);
            }
            continue;
        }
        kept_item_scalar(item, bias, out_item, keep);
    }
}

/// `y = causal_conv1d(x, w)` with dilation `d`.
///
/// * `x`: `[batch, in_ch, time]`
/// * `w`: `[out_ch, in_ch, k]`
/// * returns `[batch, out_ch, time]` (same length as the input — the network
///   is a 1-D fully-convolutional stack).
pub fn conv1d_forward(x: &Tensor, w: &Tensor, dilation: usize) -> Tensor {
    assert_eq!(x.rank(), 3, "conv input must be [batch, in_ch, time]");
    assert_eq!(w.rank(), 3, "conv weight must be [out_ch, in_ch, k]");
    let (batch, in_ch, time) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (out_ch, in_ch_w, k) = (w.shape()[0], w.shape()[1], w.shape()[2]);
    assert_eq!(
        in_ch, in_ch_w,
        "channel mismatch: input {in_ch}, weight {in_ch_w}"
    );

    let mut out = vec![0.0f32; batch * out_ch * time];
    conv1d_into(
        x.as_slice(),
        w.as_slice(),
        &mut out,
        batch,
        in_ch,
        out_ch,
        time,
        k,
        dilation,
    );
    Tensor::from_vec(out, &[batch, out_ch, time])
}

/// The value of the tape's convolution node: `causal_conv1d(x, w) + bias`
/// on every `keep`-th column counted back from the last,
/// `[batch, out_ch, ⌈time/keep⌉]` — bitwise [`conv1d_forward`], the
/// channel-bias broadcast and `subsample_time` in turn. Weights
/// [`kept_kernel_takes`] run on [`conv1d_kept_into`] with the real bias on
/// the kept columns only: its chains end in `acc + b`, and `acc + 0.0` is
/// `acc`. Any other weight takes the tap-wise reference on the whole row,
/// then the bias, then the kept columns.
pub(crate) fn conv1d_kept_forward(
    x: &Tensor,
    w: &Tensor,
    bias: &[f32],
    dilation: usize,
    keep: usize,
) -> Tensor {
    assert_eq!(x.rank(), 3, "conv input must be [batch, in_ch, time]");
    assert_eq!(w.rank(), 3, "conv weight must be [out_ch, in_ch, k]");
    let (batch, in_ch, time) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (out_ch, in_ch_w, k) = (w.shape()[0], w.shape()[1], w.shape()[2]);
    assert_eq!(
        in_ch, in_ch_w,
        "channel mismatch: input {in_ch}, weight {in_ch_w}"
    );
    let kept = subsampled_len(time, keep);
    if kept_kernel_takes(w.as_slice()) {
        let lanes = lane_major_weight(w.as_slice(), out_ch, in_ch, k);
        let mut out = vec![0.0f32; batch * out_ch * kept];
        conv1d_kept_into(
            x.as_slice(),
            &lanes,
            bias,
            &mut out,
            batch,
            in_ch,
            out_ch,
            time,
            k,
            dilation,
            keep,
        );
        return Tensor::from_vec(out, &[batch, out_ch, kept]);
    }
    let mut full = conv1d_forward(x, w, dilation).into_vec();
    add_channel_bias(&mut full, bias, batch, out_ch, time);
    if keep == 1 {
        return Tensor::from_vec(full, &[batch, out_ch, time]);
    }
    let mut out = vec![0.0f32; batch * out_ch * kept];
    subsample_time_into(&full, &mut out, batch * out_ch, time, keep);
    Tensor::from_vec(out, &[batch, out_ch, kept])
}

/// The gradients of the tape's convolution node; `x` is `None` when the
/// input is a data leaf.
pub(crate) struct ConvGrads {
    pub x: Option<Tensor>,
    pub w: Tensor,
    /// `[out_ch]`, for the caller to shape like its bias.
    pub b: Vec<f32>,
}

/// Backward of [`conv1d_kept_forward`] from `grad_out: [batch, out_ch,
/// ⌈time/keep⌉]`, bitwise the three nodes it replaces: `subsample_time`
/// scatters the kept columns into a zeroed row, the bias broadcast reduces
/// it, the convolution's kernels run on it.
///
/// The kernels skip what that row adds nothing with. A dropped column's
/// term is `0 · v = ±0.0`, and adding a signed zero never changes a chain
/// that started at `+0.0`, so the weight-gradient chains walk only the kept
/// steps, and the input gradient runs only the taps that land on kept
/// columns. That needs every `v` finite: a non-finite input or a weight
/// [`kept_kernel_takes`] refuses (whose zeros the input gradient skips tap
/// by tap) scatters to the full row and runs the kernels there, so NaNs
/// propagate exactly as before.
pub(crate) fn conv1d_kept_backward(
    grad_out: &Tensor,
    x: &Tensor,
    w: &Tensor,
    dilation: usize,
    keep: usize,
    input_grad: bool,
) -> ConvGrads {
    let (batch, in_ch, time) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (out_ch, k) = (w.shape()[0], w.shape()[2]);
    let cols = KeptCols::of(time, keep);
    assert_eq!(
        grad_out.shape(),
        &[batch, out_ch, cols.kept][..],
        "conv grad_out must be [batch, out_ch, kept]"
    );
    let b = bias_grad(grad_out.as_slice(), out_ch, cols.kept);
    if keep > 1 && !(kept_kernel_takes(w.as_slice()) && x.all_finite()) {
        let mut full = vec![0.0f32; batch * out_ch * time];
        for (dst, src) in full
            .chunks_exact_mut(time)
            .zip(grad_out.as_slice().chunks_exact(cols.kept))
        {
            cols.scatter(src, dst);
        }
        let full = Tensor::from_vec(full, &[batch, out_ch, time]);
        return ConvGrads {
            x: input_grad.then(|| conv1d_backward_input(&full, w, x.shape(), dilation)),
            w: conv1d_backward_weight(&full, x, k, dilation),
            b,
        };
    }
    let (go, shape) = (grad_out.as_slice(), [batch, in_ch, time]);
    let gx = input_grad.then(|| {
        let gin = backward_input(go, cols, w.as_slice(), &shape, out_ch, k, dilation);
        Tensor::from_vec(gin, &shape)
    });
    let gw = backward_weight(go, cols, x.as_slice(), &shape, out_ch, k, dilation);
    ConvGrads {
        x: gx,
        w: Tensor::from_vec(gw, &[out_ch, in_ch, k]),
        b,
    }
}

/// The bias gradient of `[batch, out_ch, kept]` in the order the tape's
/// broadcast reduction takes it: per `(out-channel, column)` the batch
/// summed in f64 from `+0.0` and rounded, then per out-channel those
/// summed over the columns in f64 and rounded. The dropped columns' sums
/// are `+0.0` and change nothing. Contiguous per out-channel, so the
/// column sums run along the lanes.
fn bias_grad(go: &[f32], out_ch: usize, kept: usize) -> Vec<f32> {
    let mut cols = vec![0.0f64; out_ch * kept];
    for item in go.chunks_exact((out_ch * kept).max(1)) {
        for (c, &g) in cols.iter_mut().zip(item) {
            *c += g as f64;
        }
    }
    (0..out_ch)
        .map(|oc| {
            let mut total = 0.0f64;
            for &c in &cols[oc * kept..(oc + 1) * kept] {
                total += (c as f32) as f64;
            }
            total as f32
        })
        .collect()
}

/// The steps of a `time`-step row a kept-column consumer reads: `first +
/// j·keep` for `j < kept`, the last step's residue class modulo `keep`.
#[derive(Clone, Copy)]
struct KeptCols {
    first: usize,
    keep: usize,
    kept: usize,
}

impl KeptCols {
    fn of(time: usize, keep: usize) -> Self {
        Self {
            first: time.saturating_sub(1) % keep,
            keep,
            kept: subsampled_len(time, keep),
        }
    }

    /// The step of kept column `j`.
    #[inline(always)]
    fn step(self, j: usize) -> usize {
        self.first + j * self.keep
    }

    /// The first kept column at or after step `t` (`kept` if none).
    fn at_or_after(self, t: usize) -> usize {
        t.saturating_sub(self.first)
            .div_ceil(self.keep)
            .min(self.kept)
    }

    /// Kept columns `src` to their steps of the row `dst`.
    fn scatter(self, src: &[f32], dst: &mut [f32]) {
        for (j, &v) in src.iter().enumerate() {
            dst[self.step(j)] = v;
        }
    }
}

/// Channel lanes of the gradient kernels. Both put channels on the vector
/// axis — a row of `time` is 4 to 30 steps after the last-step cut, the
/// channel count is a fixed 16 — and pad them up to a multiple of this, so
/// the inner loops are full-width at any channel count. Eight `f32` lanes
/// are two SSE or one AVX register.
const LANES: usize = 8;

/// Time steps [`input_chains`] advances together: independent accumulator
/// chains that share every weight load and hide the add latency.
const STEPS: usize = 4;

fn pad_lanes(channels: usize) -> usize {
    channels.div_ceil(LANES) * LANES
}

/// Shape check shared by the two gradient kernels: `grad_out` must be
/// `[batch, out_ch, time]` for the input's `batch` and `time`. Returns
/// `out_ch`.
fn grad_out_channels(grad_out: &Tensor, batch: usize, time: usize) -> usize {
    assert_eq!(
        grad_out.rank(),
        3,
        "conv grad_out must be [batch, out_ch, time]"
    );
    let (b, t) = (grad_out.shape()[0], grad_out.shape()[2]);
    assert_eq!(b, batch, "batch mismatch: input {batch}, grad_out {b}");
    assert_eq!(t, time, "time mismatch: input {time}, grad_out {t}");
    grad_out.shape()[1]
}

/// `[rows, cols]` row-major into `[cols, stride]`, `stride >= rows`; the
/// lanes past `rows` keep whatever `dst` held (zeros at every call site).
fn transpose_padded(src: &[f32], dst: &mut [f32], rows: usize, cols: usize, stride: usize) {
    for (r, row) in src.chunks_exact(cols).take(rows).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            dst[c * stride + r] = v;
        }
    }
}

/// Input-gradient elements of `S` steps for the `LANES` input channels at
/// `wt_lanes`: each `(in-channel, step)` element accumulates its
/// `(out-channel, tap)`-ordered chain `acc += w · go[oc][i0 + at + j]` over
/// the `(tap, at)` pairs of `taps`, step `j` reading `j` columns further
/// on, multiply and add separate — the chain of the tap-wise reference.
/// `go` holds `out_ch` rows of stride `row`. `SKIP_ZERO` reproduces the
/// reference's skip of an exact-zero weight, whose term would turn a
/// non-finite `go` into NaN.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn input_chains<const S: usize, const SKIP_ZERO: bool>(
    wt_lanes: &[f32],
    lane_stride: usize,
    go: &[f32],
    row: usize,
    out_ch: usize,
    k: usize,
    taps: &[(usize, usize)],
    i0: usize,
) -> [[f32; LANES]; S] {
    let mut acc = [[0.0f32; LANES]; S];
    for oc in 0..out_ch {
        let go_row = &go[oc * row..(oc + 1) * row];
        for &(kk, at) in taps {
            let w = &wt_lanes[(oc * k + kk) * lane_stride..][..LANES];
            let go_steps = &go_row[i0 + at..][..S];
            for (a, &gv) in acc.iter_mut().zip(go_steps) {
                for (slot, &wv) in a.iter_mut().zip(w) {
                    if !SKIP_ZERO || wv != 0.0 {
                        *slot += wv * gv;
                    }
                }
            }
        }
    }
    acc
}

/// One batch item of [`conv1d_backward_input`]; `wt` is the weight
/// transposed to `[out_ch, k, in_ch padded to LANES]`, `go_item` the item's
/// `out_ch` rows of kept `grad_out` columns at stride `row`.
///
/// With `uniform` the rows carry zeros past their kept columns (see the
/// caller). Step `s` then reads tap `kk` at step `s + shift` of the whole
/// row, and that is a kept column for the taps of one set per residue of
/// `s` modulo `keep`; the others add `w · 0.0 = ±0.0` and are left out.
/// Steps of one residue class read neighbouring kept columns, so `STEPS`
/// of them advance together. Otherwise (every column kept) each step runs
/// alone over exactly the taps the reference gives it, skipping exact-zero
/// weights as the reference does.
#[allow(clippy::too_many_arguments)]
fn backward_input_item(
    wt: &[f32],
    go_item: &[f32],
    row: usize,
    cols: KeptCols,
    gin_item: &mut [f32],
    in_ch: usize,
    out_ch: usize,
    time: usize,
    k: usize,
    dilation: usize,
    uniform: bool,
    taps: &mut Vec<(usize, usize)>,
) {
    let icp = pad_lanes(in_ch);
    let shift = |kk: usize| (k - 1 - kk) * dilation;
    for lane0 in (0..icp).step_by(LANES) {
        let wt_lanes = &wt[lane0..];
        let lanes = LANES.min(in_ch - lane0);
        let mut store = |s: usize, acc: &[f32; LANES]| {
            for (l, &v) in acc[..lanes].iter().enumerate() {
                gin_item[(lane0 + l) * time + s] = v;
            }
        };
        if uniform {
            for r in 0..cols.keep.min(time) {
                // Tap `kk` from step `r` lands on kept column
                // `(r + shift − first) / keep` when it lands on one at all.
                taps.clear();
                taps.extend((0..k).filter_map(|kk| {
                    let p = (r + shift(kk)).checked_sub(cols.first)?;
                    (p % cols.keep == 0).then_some((kk, p / cols.keep))
                }));
                let steps = (time - r).div_ceil(cols.keep);
                for i0 in (0..steps).step_by(STEPS) {
                    let acc = input_chains::<STEPS, false>(
                        wt_lanes, icp, go_item, row, out_ch, k, taps, i0,
                    );
                    for (j, a) in acc.iter().enumerate().take(steps - i0) {
                        store(r + (i0 + j) * cols.keep, a);
                    }
                }
            }
        } else {
            for s in 0..time {
                // Taps with `shift <= time-1-s` exist: `kk >= k-1-(time-1-s)/d`.
                let kk_min = (k - 1).saturating_sub((time - 1 - s) / dilation);
                taps.clear();
                taps.extend((kk_min..k).map(|kk| (kk, shift(kk))));
                let acc = input_chains::<1, true>(wt_lanes, icp, go_item, row, out_ch, k, taps, s);
                store(s, &acc[0]);
            }
        }
    }
}

/// Gradient of the loss w.r.t. the convolution input.
///
/// Lane-parallel over input channels: the weight is transposed once to
/// `[out_ch, k, in_ch]`, each `grad_out` element is broadcast, and every
/// `(in-channel, step)` element keeps its own `(out-channel, tap)`-ordered
/// accumulation chain in a register — the chain of the tap-wise reference
/// (kept as the test oracle), so the result is bitwise equal to it while
/// the loop vectorises with no reassociation.
pub fn conv1d_backward_input(
    grad_out: &Tensor,
    w: &Tensor,
    input_shape: &[usize],
    dilation: usize,
) -> Tensor {
    assert_eq!(
        input_shape.len(),
        3,
        "conv input must be [batch, in_ch, time]"
    );
    assert_eq!(w.rank(), 3, "conv weight must be [out_ch, in_ch, k]");
    let (batch, in_ch, time) = (input_shape[0], input_shape[1], input_shape[2]);
    let (out_ch, in_ch_w, k) = (w.shape()[0], w.shape()[1], w.shape()[2]);
    assert_eq!(
        in_ch, in_ch_w,
        "channel mismatch: input {in_ch}, weight {in_ch_w}"
    );
    let out_ch_g = grad_out_channels(grad_out, batch, time);
    assert_eq!(
        out_ch, out_ch_g,
        "channel mismatch: weight {out_ch}, grad_out {out_ch_g}"
    );
    let shape = [batch, in_ch, time];
    let cols = KeptCols::of(time, 1);
    let gin = backward_input(
        grad_out.as_slice(),
        cols,
        w.as_slice(),
        &shape,
        out_ch,
        k,
        dilation,
    );
    Tensor::from_vec(gin, &shape)
}

/// [`conv1d_backward_input`] from the kept columns `go: [batch, out_ch,
/// cols.kept]` of a `[batch, out_ch, time]` gradient whose other columns
/// are zero. Keeping fewer than every column takes weights
/// [`kept_kernel_takes`] (see [`conv1d_kept_backward`]).
fn backward_input(
    go: &[f32],
    cols: KeptCols,
    dw: &[f32],
    input_shape: &[usize; 3],
    out_ch: usize,
    k: usize,
    dilation: usize,
) -> Vec<f32> {
    assert!(dilation >= 1, "dilation must be >= 1");
    let [batch, in_ch, time] = *input_shape;
    let mut grad_in = vec![0.0f32; batch * in_ch * time];
    if grad_in.is_empty() || dw.is_empty() {
        return grad_in;
    }

    let icp = pad_lanes(in_ch);
    let mut wt = vec![0.0f32; out_ch * k * icp];
    for (w_oc, wt_oc) in dw.chunks_exact(in_ch * k).zip(wt.chunks_exact_mut(k * icp)) {
        transpose_padded(w_oc, wt_oc, in_ch, k, icp);
    }
    // With every weight finite and nonzero — the rule by which the forward
    // pass takes the kept-column kernel — the kept columns are copied into
    // rows with zeros past their end, as far as a step block's last tap
    // reads: the terms this adds are `w · 0.0 = ±0.0`, and adding a signed
    // zero never changes an accumulator that started at `+0.0`.
    let uniform = uniform_weights(dw);
    debug_assert!(
        uniform || cols.keep == 1,
        "dropped columns need uniform weights"
    );
    let mut padded = Vec::new();
    let (go, row) = if uniform {
        let reach = ((k - 1) * dilation).div_ceil(cols.keep);
        let row = cols.kept.div_ceil(STEPS) * STEPS + reach;
        padded.resize(batch * out_ch * row, 0.0f32);
        for (dst, src) in padded.chunks_exact_mut(row).zip(go.chunks_exact(cols.kept)) {
            dst[..cols.kept].copy_from_slice(src);
        }
        (padded.as_slice(), row)
    } else {
        (go, time)
    };

    let mut taps = Vec::with_capacity(k);
    for (gin_item, go_item) in grad_in
        .chunks_mut(in_ch * time)
        .zip(go.chunks(out_ch * row))
    {
        backward_input_item(
            &wt, go_item, row, cols, gin_item, in_ch, out_ch, time, k, dilation, uniform, &mut taps,
        );
    }
    grad_in
}

/// Weight-gradient chains of `K` neighbouring taps (from `kk0`) of one
/// input channel, for the `LANES` output channels at `got_lanes` (one row
/// of `lane_stride` per kept column): each `(out-channel, tap)` slot
/// accumulates `acc += go[t] · x[t − shift]` over the kept steps
/// `t >= shift` in ascending `t` — the chain of the tap-wise reference
/// less its zero terms. The taps advance together so their chains overlap.
#[inline(always)]
fn weight_chains<const K: usize>(
    got_lanes: &[f32],
    lane_stride: usize,
    x_row: &[f32],
    cols: KeptCols,
    shifts: [usize; K],
) -> [[f32; LANES]; K] {
    let mut acc = [[0.0f32; LANES]; K];
    // `shifts` descend; below the largest only some taps have started.
    let all = cols.at_or_after(shifts[0]);
    for j in cols.at_or_after(shifts[K - 1])..all {
        let t = cols.step(j);
        let go = &got_lanes[j * lane_stride..][..LANES];
        for (a, &shift) in acc.iter_mut().zip(&shifts) {
            if t >= shift {
                let xv = x_row[t - shift];
                for (slot, &gv) in a.iter_mut().zip(go) {
                    *slot += gv * xv;
                }
            }
        }
    }
    for j in all..cols.kept {
        let t = cols.step(j);
        let go = &got_lanes[j * lane_stride..][..LANES];
        for (a, &shift) in acc.iter_mut().zip(&shifts) {
            let xv = x_row[t - shift];
            for (slot, &gv) in a.iter_mut().zip(go) {
                *slot += gv * xv;
            }
        }
    }
    acc
}

/// Gradient of the loss w.r.t. the convolution weights.
///
/// Lane-parallel over output channels: `grad_out` is transposed once per
/// item to `[time, out_ch]`, each input sample is broadcast, and every
/// weight slot keeps its own `t`-ordered chain in a register — the chain
/// of the tap-wise reference (kept as the test oracle), bitwise. Items are
/// then summed in batch order, one fixed association at any batch size.
pub fn conv1d_backward_weight(
    grad_out: &Tensor,
    x: &Tensor,
    kernel: usize,
    dilation: usize,
) -> Tensor {
    assert_eq!(x.rank(), 3, "conv input must be [batch, in_ch, time]");
    let (batch, in_ch, time) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let out_ch = grad_out_channels(grad_out, batch, time);
    let shape = [batch, in_ch, time];
    let cols = KeptCols::of(time, 1);
    let gw = backward_weight(
        grad_out.as_slice(),
        cols,
        x.as_slice(),
        &shape,
        out_ch,
        kernel,
        dilation,
    );
    Tensor::from_vec(gw, &[out_ch, in_ch, kernel])
}

/// [`conv1d_backward_weight`] from the kept columns `go: [batch, out_ch,
/// cols.kept]` of a gradient whose other columns are zero, with the chains
/// walking only the kept steps. Keeping fewer than every column takes an
/// all-finite `x` (see [`conv1d_kept_backward`]).
fn backward_weight(
    go: &[f32],
    cols: KeptCols,
    dx: &[f32],
    input_shape: &[usize; 3],
    out_ch: usize,
    kernel: usize,
    dilation: usize,
) -> Vec<f32> {
    assert!(dilation >= 1, "dilation must be >= 1");
    let [batch, in_ch, time] = *input_shape;
    let slots = out_ch * in_ch * kernel;
    if slots == 0 || batch * time == 0 {
        return vec![0.0f32; slots];
    }

    let ocp = pad_lanes(out_ch);
    let shift_of = |kk: usize| (kernel - 1 - kk) * dilation;
    // `[in_ch, kernel, ocp]`: a slot's lane neighbours are output channels.
    let mut total_t = vec![0.0f32; in_ch * kernel * ocp];
    let mut got = vec![0.0f32; cols.kept * ocp];
    for (go_item, x_item) in go
        .chunks_exact(out_ch * cols.kept)
        .zip(dx.chunks_exact(in_ch * time))
    {
        transpose_padded(go_item, &mut got, out_ch, cols.kept, ocp);
        for (ic, x_row) in x_item.chunks_exact(time).enumerate() {
            for lane0 in (0..ocp).step_by(LANES) {
                let got_lanes = &got[lane0..];
                let mut add = |kk: usize, acc: &[f32; LANES]| {
                    let slot = &mut total_t[(ic * kernel + kk) * ocp + lane0..][..LANES];
                    for (tot, &a) in slot.iter_mut().zip(acc) {
                        *tot += a;
                    }
                };
                let mut kk = 0;
                while kk + 3 <= kernel {
                    let shifts = [shift_of(kk), shift_of(kk + 1), shift_of(kk + 2)];
                    let acc = weight_chains::<3>(got_lanes, ocp, x_row, cols, shifts);
                    for (j, a) in acc.iter().enumerate() {
                        add(kk + j, a);
                    }
                    kk += 3;
                }
                while kk < kernel {
                    let acc = weight_chains::<1>(got_lanes, ocp, x_row, cols, [shift_of(kk)]);
                    add(kk, &acc[0]);
                    kk += 1;
                }
            }
        }
    }

    let mut total = vec![0.0f32; slots];
    for (oc, gw_oc) in total.chunks_exact_mut(in_ch * kernel).enumerate() {
        for (slot, lanes) in gw_oc.iter_mut().zip(total_t.chunks_exact(ocp)) {
            *slot = lanes[oc];
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::Rng;

    #[test]
    fn identity_kernel_passes_input_through() {
        // k=1 weight of 1.0 on a single channel is the identity.
        let x = Tensor::from_vec((1..=5).map(|v| v as f32).collect(), &[1, 1, 5]);
        let w = Tensor::ones(&[1, 1, 1]);
        let y = conv1d_forward(&x, &w, 1);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn causal_shift_matches_hand_computation() {
        // k=2, w = [a=0.5 (past tap), b=2.0 (current tap)], d=1:
        // y[t] = 2*x[t] + 0.5*x[t-1]
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 4]);
        let w = Tensor::from_vec(vec![0.5, 2.0], &[1, 1, 2]);
        let y = conv1d_forward(&x, &w, 1);
        assert_eq!(y.as_slice(), &[2.0, 4.5, 7.0, 9.5]);
    }

    #[test]
    fn dilation_reaches_further_back() {
        // k=2, d=2: y[t] = w1*x[t] + w0*x[t-2]
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0], &[1, 1, 5]);
        let w = Tensor::from_vec(vec![1.0, 1.0], &[1, 1, 2]);
        let y = conv1d_forward(&x, &w, 2);
        assert_eq!(y.as_slice(), &[1.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn no_future_leakage() {
        // Changing x[t0] must not affect y[t] for t < t0 at any dilation.
        let mut rng = Rng::seed_from(1);
        for &d in &[1usize, 2, 4] {
            let x1 = Tensor::rand_normal(&[1, 2, 10], 0.0, 1.0, &mut rng);
            let mut x2 = x1.clone();
            // Perturb the final time step of each channel.
            for c in 0..2 {
                let v = x2.at(&[0, c, 9]) + 100.0;
                x2.set(&[0, c, 9], v);
            }
            let w = Tensor::rand_normal(&[3, 2, 3], 0.0, 1.0, &mut rng);
            let y1 = conv1d_forward(&x1, &w, d);
            let y2 = conv1d_forward(&x2, &w, d);
            for oc in 0..3 {
                for t in 0..9 {
                    assert_eq!(
                        y1.at(&[0, oc, t]),
                        y2.at(&[0, oc, t]),
                        "leak at d={d} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_channel_sums_contributions() {
        // Two input channels, k=1: y = w0*x0 + w1*x1.
        let x = Tensor::from_vec(vec![1.0, 2.0, 10.0, 20.0], &[1, 2, 2]);
        let w = Tensor::from_vec(vec![1.0, 0.1], &[1, 2, 1]);
        let y = conv1d_forward(&x, &w, 1);
        assert_eq!(y.as_slice(), &[2.0, 4.0]);
    }

    /// Finite-difference check of both backward kernels.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(7);
        let (b, ic, oc, t, k, d) = (2, 3, 2, 8, 3, 2);
        let x = Tensor::rand_normal(&[b, ic, t], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[oc, ic, k], 0.0, 0.5, &mut rng);

        // Loss = sum(y); then dL/dy = 1 everywhere.
        let grad_out = Tensor::ones(&[b, oc, t]);
        let gin = conv1d_backward_input(&grad_out, &w, &[b, ic, t], d);
        let gw = conv1d_backward_weight(&grad_out, &x, k, d);

        let loss = |x: &Tensor, w: &Tensor| -> f64 {
            conv1d_forward(x, w, d)
                .as_slice()
                .iter()
                .map(|&v| v as f64)
                .sum()
        };
        let eps = 1e-3f32;
        // Sample a few coordinates of each gradient.
        for idx in [0usize, 5, 17, b * ic * t - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = ((loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps as f64)) as f32;
            assert!(
                (gin.as_slice()[idx] - fd).abs() < 1e-2,
                "input grad mismatch at {idx}: analytic {} vs fd {fd}",
                gin.as_slice()[idx]
            );
        }
        for idx in [0usize, 3, oc * ic * k - 1] {
            let mut wp = w.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[idx] -= eps;
            let fd = ((loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps as f64)) as f32;
            assert!(
                (gw.as_slice()[idx] - fd).abs() < 1e-1,
                "weight grad mismatch at {idx}: analytic {} vs fd {fd}",
                gw.as_slice()[idx]
            );
        }
    }

    /// Tap-wise forward convolution — the accumulation order the kernel of
    /// [`conv1d_into`] must reproduce.
    fn forward_reference(x: &Tensor, w: &Tensor, dilation: usize) -> Vec<f32> {
        let (batch, in_ch, time) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let (out_ch, k) = (w.shape()[0], w.shape()[2]);
        let mut reference = vec![0.0f32; batch * out_ch * time];
        for (x_item, y_item) in x
            .as_slice()
            .chunks(in_ch * time)
            .zip(reference.chunks_mut(out_ch * time))
        {
            for (o, y_row) in y_item.chunks_mut(time).enumerate() {
                for (i, x_row) in x_item.chunks(time).enumerate() {
                    let w_row = &w.as_slice()[(o * in_ch + i) * k..(o * in_ch + i + 1) * k];
                    tap_accumulate(y_row, x_row, w_row, time, k, dilation);
                }
            }
        }
        reference
    }

    /// What a forward parity case plants in otherwise finite, nonzero
    /// weights and finite inputs. Either weight sends [`conv1d_into`] down
    /// the reference's path; a non-finite input keeps it on the kernel.
    #[derive(Clone, Copy, Debug)]
    enum Planted {
        Nothing,
        /// An exact `0.0` and a `-0.0`, beside an infinite activation that
        /// the reference's skip keeps from turning into NaN.
        ZeroWeight,
        NonFiniteWeight,
        /// An infinity, a negative infinity and a NaN among the
        /// activations, weights untouched.
        NonFiniteInput,
    }

    #[allow(clippy::too_many_arguments)]
    fn check_forward_parity(
        batch: usize,
        in_ch: usize,
        out_ch: usize,
        time: usize,
        k: usize,
        d: usize,
        planted: Planted,
        rng: &mut Rng,
    ) {
        let mut x = Tensor::rand_normal(&[batch, in_ch, time], 0.0, 1.0, rng);
        let mut w = Tensor::rand_normal(&[out_ch, in_ch, k], 0.0, 0.5, rng);
        // The kernel takes only nonzero weights; nudge any exact zeros.
        for v in w.as_mut_slice() {
            if *v == 0.0 {
                *v = 0.25;
            }
        }
        match planted {
            Planted::Nothing => {}
            Planted::ZeroWeight => {
                season(&mut w, &[0.0, -0.0], rng);
                season(&mut x, &[f32::INFINITY], rng);
            }
            Planted::NonFiniteWeight => {
                let v = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.below(3)];
                season(&mut w, &[v], rng);
            }
            Planted::NonFiniteInput => {
                season(&mut x, &[f32::INFINITY, f32::NEG_INFINITY, f32::NAN], rng);
            }
        }
        assert_same_bits(
            conv1d_forward(&x, &w, d).as_slice(),
            &forward_reference(&x, &w, d),
            &format!("b{batch} ic{in_ch} oc{out_ch} t{time} k{k} d{d} {planted:?}"),
        );
    }

    /// [`conv1d_forward`] — the kept-column kernel at every column, or the
    /// reference itself for a planted zero or non-finite weight — must
    /// reproduce the tap-wise reference accumulation order bit for bit:
    /// k=3 at every dilation the paper config uses, k=1 (the residual
    /// projection) at channel counts on both sides of a lane block and row
    /// lengths on both sides of a column block, non-finite inputs on the
    /// bias-free route. Inference parity and streaming-state checks build
    /// on this.
    #[test]
    fn forward_kernel_matches_tap_reference_bitwise() {
        let mut rng = Rng::seed_from(21);
        let planted = [
            Planted::Nothing,
            Planted::ZeroWeight,
            Planted::NonFiniteWeight,
            Planted::NonFiniteInput,
        ];
        for &d in &[1usize, 2, 4, 8] {
            // 18 output channels exercise the remainder rows.
            for how in planted {
                check_forward_parity(2, 16, 18, 30, 3, d, how, &mut rng);
            }
        }
        let mut case = 0usize;
        for in_ch in 1..=17 {
            for out_ch in 1..=17 {
                case += 1;
                // 37 is coprime to 70: the cases walk every row length.
                let time = 1 + (case * 37) % 70;
                let batch = [1, 3, 1, 3, 1, 3, 1, 64][case % 8];
                check_forward_parity(
                    batch,
                    in_ch,
                    out_ch,
                    time,
                    1,
                    1,
                    planted[case % 4],
                    &mut rng,
                );
            }
        }
        for time in 1..=70 {
            for how in planted {
                check_forward_parity(1, 8, 16, time, 1, 1, how, &mut rng);
                check_forward_parity(3, 5, 7, time, 1, 2, how, &mut rng);
            }
        }
    }

    /// The kept-column kernel — its dispatched form and its portable body
    /// — against the reference convolution, biased, then subsampled: in-
    /// and out-channel counts on both sides of a lane block (24 leaves a
    /// remainder, 4 a lone padded block), every row length up to two
    /// column blocks past the paper's window, `keep` on both sides of the
    /// row length, dilations with no, some and all taps before the row,
    /// stacked items.
    #[test]
    fn kept_columns_match_tap_reference_bitwise() {
        let mut rng = Rng::seed_from(57);
        let mut case = 0usize;
        for in_ch in [1usize, 8, 16] {
            for out_ch in [4usize, 16, 24] {
                // Every eighth row length under Miri, which interprets the
                // portable body (the AVX wrapper is compiled out there).
                for time in (1..=33usize).step_by(if cfg!(miri) { 8 } else { 1 }) {
                    for keep in [1, 2, 3, time, time + 2] {
                        case += 1;
                        let k = [3, 1, 3, 2][case % 4];
                        let d = [1, 2, 1, 4, 40][case % 5];
                        let batch = [1, 3][case % 2];
                        let x = Tensor::rand_normal(&[batch, in_ch, time], 0.0, 1.0, &mut rng);
                        let mut w = Tensor::rand_normal(&[out_ch, in_ch, k], 0.0, 0.5, &mut rng);
                        for v in w.as_mut_slice() {
                            if *v == 0.0 {
                                *v = 0.25;
                            }
                        }
                        let bias = Tensor::rand_normal(&[out_ch], 0.0, 1.0, &mut rng);
                        assert!(kept_kernel_takes(w.as_slice()));

                        let mut full = forward_reference(&x, &w, d);
                        for (row, oc) in full.chunks_mut(time).zip((0..out_ch).cycle()) {
                            for y in row {
                                *y += bias.as_slice()[oc];
                            }
                        }
                        let kept = time.div_ceil(keep);
                        let mut reference = vec![0.0f32; batch * out_ch * kept];
                        crate::infer::subsample_time_into(
                            &full,
                            &mut reference,
                            batch * out_ch,
                            time,
                            keep,
                        );

                        let what =
                            format!("b{batch} ic{in_ch} oc{out_ch} t{time} k{k} d{d} keep{keep}");
                        let lanes = lane_major_weight(w.as_slice(), out_ch, in_ch, k);
                        let mut out = vec![f32::NAN; reference.len()];
                        conv1d_kept_into(
                            x.as_slice(),
                            &lanes,
                            bias.as_slice(),
                            &mut out,
                            batch,
                            in_ch,
                            out_ch,
                            time,
                            k,
                            d,
                            keep,
                        );
                        assert_same_bits(&out, &reference, &what);
                        let mut portable = vec![f32::NAN; reference.len()];
                        for (x_item, out_item) in x
                            .as_slice()
                            .chunks(in_ch * time)
                            .zip(portable.chunks_mut(out_ch * kept))
                        {
                            let item = KeptItem {
                                x_item,
                                w_rows: &lanes,
                                lane_stride: lanes.len() / (in_ch * k),
                                time,
                                k,
                                dilation: d,
                            };
                            kept_item_scalar(item, bias.as_slice(), out_item, keep);
                        }
                        assert_same_bits(&portable, &reference, &format!("portable, {what}"));
                    }
                }
            }
        }
    }

    /// Tap-wise input gradient — the loop [`conv1d_backward_input`] ran
    /// before it went lane-parallel, kept as its oracle: per `(oc, ic)`
    /// one axpy per tap, skipping exact-zero weights.
    fn backward_input_reference(
        grad_out: &Tensor,
        w: &Tensor,
        input_shape: &[usize],
        dilation: usize,
    ) -> Vec<f32> {
        let (batch, in_ch, time) = (input_shape[0], input_shape[1], input_shape[2]);
        let (out_ch, k) = (w.shape()[0], w.shape()[2]);
        let (dgo, dw) = (grad_out.as_slice(), w.as_slice());
        let mut grad_in = vec![0.0f32; batch * in_ch * time];
        for (b, gin_item) in grad_in.chunks_mut((in_ch * time).max(1)).enumerate() {
            let go_item = &dgo[b * out_ch * time..(b + 1) * out_ch * time];
            for oc in 0..out_ch {
                let go_row = &go_item[oc * time..(oc + 1) * time];
                for ic in 0..in_ch {
                    let gin_row = &mut gin_item[ic * time..(ic + 1) * time];
                    let w_row = &dw[(oc * in_ch + ic) * k..(oc * in_ch + ic + 1) * k];
                    for (kk, &wv) in w_row.iter().enumerate() {
                        if wv == 0.0 {
                            continue;
                        }
                        let shift = (k - 1 - kk) * dilation;
                        if shift >= time {
                            continue;
                        }
                        // y[t] += w * x[t-shift]  =>  dx[s] += w * dy[s+shift]
                        for t in shift..time {
                            gin_row[t - shift] += wv * go_row[t];
                        }
                    }
                }
            }
        }
        grad_in
    }

    /// Tap-wise weight gradient — the oracle of [`conv1d_backward_weight`]:
    /// one serial `acc += go[t]·x[t−shift]` per slot and item, items summed
    /// in batch order.
    fn backward_weight_reference(
        grad_out: &Tensor,
        x: &Tensor,
        kernel: usize,
        dilation: usize,
    ) -> Vec<f32> {
        let (batch, in_ch, time) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let out_ch = grad_out.shape()[1];
        let (dgo, dx) = (grad_out.as_slice(), x.as_slice());
        let mut total = vec![0.0f32; out_ch * in_ch * kernel];
        for b in 0..batch {
            let mut gw = vec![0.0f32; out_ch * in_ch * kernel];
            let go_item = &dgo[b * out_ch * time..(b + 1) * out_ch * time];
            let x_item = &dx[b * in_ch * time..(b + 1) * in_ch * time];
            for oc in 0..out_ch {
                let go_row = &go_item[oc * time..(oc + 1) * time];
                for ic in 0..in_ch {
                    let x_row = &x_item[ic * time..(ic + 1) * time];
                    for kk in 0..kernel {
                        let shift = (kernel - 1 - kk) * dilation;
                        if shift >= time {
                            continue;
                        }
                        let mut acc = 0.0f32;
                        for t in shift..time {
                            acc += go_row[t] * x_row[t - shift];
                        }
                        gw[(oc * in_ch + ic) * kernel + kk] += acc;
                    }
                }
            }
            for (t, g) in total.iter_mut().zip(&gw) {
                *t += g;
            }
        }
        total
    }

    /// Bitwise equality, any NaN matching any NaN (which payload survives
    /// `NaN + NaN` is the instruction's operand order, not arithmetic).
    fn assert_same_bits(fast: &[f32], reference: &[f32], what: &str) {
        assert_eq!(fast.len(), reference.len(), "{what}: length");
        for (i, (a, b)) in fast.iter().zip(reference).enumerate() {
            assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "{what} idx {i}: {a} ({:#x}) vs {b} ({:#x})",
                a.to_bits(),
                b.to_bits()
            );
        }
    }

    /// How a parity case seasons its tensors.
    #[derive(Clone, Copy, Debug)]
    enum Season {
        Plain,
        /// `±0.0` in the activations and `grad_out`, exact-zero weights.
        Zeros,
        /// A NaN and an infinity in `grad_out`; weights stay finite.
        NonFiniteGrad,
        /// Both of the above, plus an infinite weight.
        Everything,
    }

    fn season(t: &mut Tensor, values: &[f32], rng: &mut Rng) {
        if t.is_empty() {
            return;
        }
        for &v in values {
            let i = rng.below(t.len());
            t.as_mut_slice()[i] = v;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_gradient_parity(
        batch: usize,
        in_ch: usize,
        out_ch: usize,
        time: usize,
        k: usize,
        d: usize,
        how: Season,
        rng: &mut Rng,
    ) {
        let mut x = Tensor::rand_normal(&[batch, in_ch, time], 0.0, 1.0, rng);
        let mut w = Tensor::rand_normal(&[out_ch, in_ch, k], 0.0, 0.5, rng);
        let mut go = Tensor::rand_normal(&[batch, out_ch, time], 0.0, 1.0, rng);
        if matches!(how, Season::Zeros | Season::Everything) {
            season(&mut x, &[0.0, -0.0, 0.0], rng);
            season(&mut go, &[0.0, -0.0], rng);
            season(&mut w, &[0.0, -0.0], rng);
        }
        if matches!(how, Season::NonFiniteGrad | Season::Everything) {
            season(&mut go, &[f32::NAN, f32::INFINITY, f32::NEG_INFINITY], rng);
        }
        if matches!(how, Season::Everything) {
            season(&mut w, &[f32::INFINITY], rng);
        }
        let what = format!("b{batch} ic{in_ch} oc{out_ch} t{time} k{k} d{d} {how:?}");
        let shape = [batch, in_ch, time];
        assert_same_bits(
            conv1d_backward_input(&go, &w, &shape, d).as_slice(),
            &backward_input_reference(&go, &w, &shape, d),
            &format!("input grad, {what}"),
        );
        assert_same_bits(
            conv1d_backward_weight(&go, &x, k, d).as_slice(),
            &backward_weight_reference(&go, &x, k, d),
            &format!("weight grad, {what}"),
        );
    }

    /// The lane-parallel gradient kernels against the tap-wise loops they
    /// replaced, bit for bit: every dilation and compacted row length the
    /// backbone produces, channel counts on both sides of a lane block,
    /// batches of 1, 2 and 64.
    #[test]
    fn gradient_kernels_match_tap_reference_parity() {
        let mut rng = Rng::seed_from(31);
        let hows = [
            Season::Plain,
            Season::Zeros,
            Season::NonFiniteGrad,
            Season::Everything,
        ];
        let mut case = 0;
        for &d in &[1usize, 2, 4, 8] {
            for &time in &[1usize, 2, 3, 4, 8, 15, 30, 61] {
                for &in_ch in &[1usize, 6, 16, 18] {
                    for &out_ch in &[1usize, 6, 16, 18] {
                        case += 1;
                        // Batch 64 on one case in eight, 1 and 2 on the rest.
                        let batch = match case % 8 {
                            0 => 64,
                            n if n % 2 == 1 => 1,
                            _ => 2,
                        };
                        let k = [3, 2, 3, 1][case % 4];
                        check_gradient_parity(
                            batch,
                            in_ch,
                            out_ch,
                            time,
                            k,
                            d,
                            hows[(case / 3) % 4],
                            &mut rng,
                        );
                    }
                }
            }
        }
        // The paper's training shape, every season.
        for how in hows {
            check_gradient_parity(64, 16, 16, 30, 3, 1, how, &mut rng);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The forward kernel on arbitrary shapes; one case in two is
            /// the `k == 1` projection, rows up to 70 steps.
            #[test]
            fn forward_kernel_matches_tap_reference_on_arbitrary_shapes(
                dims in (1usize..5, 1usize..18, 1usize..18, 1usize..71),
                (pointwise, kernel) in (0usize..2, 1usize..6),
                dilation in 1usize..10,
                planted in 0usize..4,
                seed in 0u64..1_000_000,
            ) {
                let (batch, in_ch, out_ch, time) = dims;
                let kernel = if pointwise == 1 { 1 } else { kernel };
                let planted = [
                    Planted::Nothing,
                    Planted::ZeroWeight,
                    Planted::NonFiniteWeight,
                    Planted::NonFiniteInput,
                ][planted];
                let mut rng = Rng::seed_from(seed);
                check_forward_parity(
                    batch, in_ch, out_ch, time, kernel, dilation, planted, &mut rng,
                );
            }

            /// Arbitrary shapes, kernel widths and dilations (taps that fall
            /// off a short row included), arbitrary seasoning.
            #[test]
            fn gradient_kernels_match_tap_reference_parity_on_arbitrary_shapes(
                dims in (1usize..5, 1usize..20, 1usize..20, 1usize..40),
                kernel in 1usize..6,
                dilation in 1usize..10,
                how in 0usize..4,
                seed in 0u64..1_000_000,
            ) {
                let (batch, in_ch, out_ch, time) = dims;
                let how = [
                    Season::Plain,
                    Season::Zeros,
                    Season::NonFiniteGrad,
                    Season::Everything,
                ][how];
                let mut rng = Rng::seed_from(seed);
                check_gradient_parity(
                    batch, in_ch, out_ch, time, kernel, dilation, how, &mut rng,
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "conv grad_out must be [batch, out_ch, time]")]
    fn backward_input_rejects_a_flat_grad_out() {
        let go = Tensor::zeros(&[2, 12]);
        conv1d_backward_input(&go, &Tensor::zeros(&[3, 2, 3]), &[2, 2, 4], 1);
    }

    #[test]
    #[should_panic(expected = "time mismatch: input 4, grad_out 5")]
    fn backward_input_rejects_a_longer_grad_out() {
        let go = Tensor::zeros(&[2, 3, 5]);
        conv1d_backward_input(&go, &Tensor::zeros(&[3, 2, 3]), &[2, 2, 4], 1);
    }

    #[test]
    #[should_panic(expected = "channel mismatch: weight 3, grad_out 4")]
    fn backward_input_rejects_foreign_output_channels() {
        let go = Tensor::zeros(&[2, 4, 4]);
        conv1d_backward_input(&go, &Tensor::zeros(&[3, 2, 3]), &[2, 2, 4], 1);
    }

    #[test]
    #[should_panic(expected = "channel mismatch: input 5, weight 2")]
    fn backward_input_rejects_foreign_input_channels() {
        let go = Tensor::zeros(&[2, 3, 4]);
        conv1d_backward_input(&go, &Tensor::zeros(&[3, 2, 3]), &[2, 5, 4], 1);
    }

    #[test]
    #[should_panic(expected = "batch mismatch: input 2, grad_out 3")]
    fn backward_weight_rejects_a_foreign_batch() {
        let go = Tensor::zeros(&[3, 3, 4]);
        conv1d_backward_weight(&go, &Tensor::zeros(&[2, 2, 4]), 3, 1);
    }

    #[test]
    #[should_panic(expected = "time mismatch: input 4, grad_out 3")]
    fn backward_weight_rejects_a_shorter_grad_out() {
        let go = Tensor::zeros(&[2, 3, 3]);
        conv1d_backward_weight(&go, &Tensor::zeros(&[2, 2, 4]), 3, 1);
    }

    #[test]
    #[should_panic(expected = "conv input must be [batch, in_ch, time]")]
    fn backward_weight_rejects_a_flat_input() {
        let go = Tensor::zeros(&[2, 3, 4]);
        conv1d_backward_weight(&go, &Tensor::zeros(&[2, 8]), 3, 1);
    }

    #[test]
    fn batch_items_are_independent() {
        let mut rng = Rng::seed_from(9);
        let x0 = Tensor::rand_normal(&[1, 2, 6], 0.0, 1.0, &mut rng);
        let x1 = Tensor::rand_normal(&[1, 2, 6], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[2, 2, 2], 0.0, 1.0, &mut rng);
        let mut stacked = x0.as_slice().to_vec();
        stacked.extend_from_slice(x1.as_slice());
        let both = conv1d_forward(&Tensor::from_vec(stacked, &[2, 2, 6]), &w, 1);
        let y0 = conv1d_forward(&x0, &w, 1);
        let y1 = conv1d_forward(&x1, &w, 1);
        assert_eq!(&both.as_slice()[..12], y0.as_slice());
        assert_eq!(&both.as_slice()[12..], y1.as_slice());
    }
}
