//! Tape-free inference: the arena backend of [`Exec`] and its drivers.
//!
//! Training needs the tape — every op records a node and allocates a fresh
//! `Tensor` so `Graph::backward` can replay the chain rule. Serving needs
//! neither: a forecast is a single forward evaluation, so the per-op
//! bookkeeping and allocations are pure overhead. This module is the
//! serving side of the one forward definition in `layers` and `models`:
//!
//! * [`InferenceContext`] — a pool of reusable `Vec<f32>` scratch buffers.
//!   After a warm-up pass the pool serves every request and the
//!   steady-state path performs **zero heap allocations**
//!   ([`InferenceContext::fresh_allocs`] counts the misses so benchmarks
//!   can prove it).
//! * [`Arena`] — the [`Exec`] backend over a context and a `ParamStore`:
//!   a value is a pooled buffer with an inline shape ([`Buf`]), ops that
//!   can run in place do, and [`Exec::release`] hands the buffer back.
//! * The in-place kernels behind it, each replicating the exact arithmetic
//!   of the corresponding `tensor` op (same accumulation widths, same
//!   evaluation order) and sharing the matmul and conv kernels with the
//!   tape, so every primitive matches its taped twin bit for bit
//!   (`tests/exec_parity.rs`).
//! * [`predict`] — the batched driver mirroring `train::predict`, routed
//!   through [`SequenceModel::infer`](crate::SequenceModel::infer).

use std::cell::RefCell;

use tensor::Tensor;

use crate::conv_kernels::{conv1d_kept_into, conv1d_taps_into_zeroed};
use crate::exec::Exec;
use crate::params::{ParamId, ParamStore};
use crate::train::{take_rows, SequenceModel};

/// Buffers kept in the pool; beyond this the extras are dropped. An RPTCN
/// forward pass holds under ten at once; a recurrent or temporal-attention
/// model holds one per window step and layer.
const MAX_POOLED: usize = 256;

/// A scratch arena for tape-free forward passes.
///
/// Not thread-safe by design — each shard / worker thread owns one (or uses
/// [`with_thread_context`]). Buffers are recycled by *capacity*, so a
/// context warmed up on one shape serves any smaller shape allocation-free.
#[derive(Debug, Default)]
pub struct InferenceContext {
    pool: Vec<Vec<f32>>,
    fresh_allocs: u64,
}

impl InferenceContext {
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow a zero-filled buffer of exactly `len` elements, reusing pooled
    /// capacity when available.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        match self.pool.iter().position(|b| b.capacity() >= len) {
            Some(i) => {
                let mut buf = self.pool.swap_remove(i);
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.fresh_allocs += 1;
                vec![0.0; len]
            }
        }
    }

    /// Return a buffer to the pool for reuse.
    pub fn give(&mut self, buf: Vec<f32>) {
        if self.pool.len() < MAX_POOLED && buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// How many `take` calls had to hit the heap. Flat across repeated
    /// same-shape forward passes == the steady-state path is allocation-free.
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs
    }
}

thread_local! {
    static THREAD_CTX: RefCell<InferenceContext> = RefCell::new(InferenceContext::new());
}

/// Run `f` with this thread's shared inference context. The serving hot
/// path goes through here so every forecast on a shard thread reuses one
/// warmed-up arena.
pub fn with_thread_context<R>(f: impl FnOnce(&mut InferenceContext) -> R) -> R {
    THREAD_CTX.with(|c| f(&mut c.borrow_mut()))
}

/// Fresh-allocation count of this thread's shared context.
pub fn thread_context_allocs() -> u64 {
    THREAD_CTX.with(|c| c.borrow().fresh_allocs())
}

// ---- in-place kernels ------------------------------------------------------
//
// Each helper replicates the arithmetic of the corresponding `tensor` op
// exactly (same accumulator widths, same order), so tape-free activations
// match taped ones bitwise.

// hot-path: per-push inference kernel, must stay allocation-free
/// `x.max(0.0)` elementwise (replicates `tensor::ops::relu`).
pub fn relu_in_place(buf: &mut [f32]) {
    for v in buf {
        *v = v.max(0.0);
    }
}

// hot-path: per-push inference kernel, must stay allocation-free
/// `tanh(x)` elementwise (replicates `tensor::ops::tanh`).
pub fn tanh_in_place(buf: &mut [f32]) {
    for v in buf {
        *v = v.tanh();
    }
}

// hot-path: per-push inference kernel, must stay allocation-free
/// Numerically-stable logistic sigmoid, identical to the `tensor` kernel.
#[inline]
fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

// hot-path: per-push inference kernel, must stay allocation-free
/// Sigmoid elementwise (replicates `tensor::ops::sigmoid`).
pub fn sigmoid_in_place(buf: &mut [f32]) {
    for v in buf {
        *v = stable_sigmoid(*v);
    }
}

// hot-path: per-push inference kernel, must stay allocation-free
/// Row-wise softmax over a `[rows, cols]` buffer (replicates
/// `tensor::reduce::softmax_rows`, including the f64 denominator).
pub fn softmax_rows_in_place(buf: &mut [f32], rows: usize, cols: usize) {
    assert_eq!(buf.len(), rows * cols, "softmax_rows_in_place shape");
    for row in buf.chunks_mut(cols.max(1)).take(rows) {
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f64;
        for x in row.iter_mut() {
            let e = (*x - mx).exp();
            *x = e;
            denom += e as f64;
        }
        let inv = 1.0 / denom as f32;
        for slot in row.iter_mut() {
            *slot *= inv;
        }
    }
}

// hot-path: per-push inference kernel, must stay allocation-free
/// `out[r][j] += bias[j]` — the `[batch, n] + [n]` broadcast of the tape.
pub fn add_row_bias(out: &mut [f32], bias: &[f32], rows: usize, cols: usize) {
    assert_eq!(out.len(), rows * cols, "add_row_bias shape");
    assert_eq!(bias.len(), cols, "add_row_bias bias length");
    for row in out.chunks_mut(cols) {
        for (o, &b) in row.iter_mut().zip(bias) {
            *o += b;
        }
    }
}

// hot-path: per-push inference kernel, must stay allocation-free
/// `out[b][c][t] += bias[c]` — the `[batch, ch, time] + [ch, 1]` broadcast
/// of a convolution's bias on the tap-wise reference path, on both
/// backends.
pub fn add_channel_bias(out: &mut [f32], bias: &[f32], batch: usize, ch: usize, time: usize) {
    assert_eq!(out.len(), batch * ch * time, "add_channel_bias shape");
    assert_eq!(bias.len(), ch, "add_channel_bias bias length");
    for item in out.chunks_mut(ch * time).take(batch) {
        for (c, row) in item.chunks_mut(time).enumerate() {
            let b = bias[c];
            for o in row {
                *o += b;
            }
        }
    }
}

// hot-path: per-push inference kernel, must stay allocation-free
/// `out[b][c] = src[b][c][t]` — replicates `Graph::select_time`.
pub fn select_time_into(
    src: &[f32],
    out: &mut [f32],
    batch: usize,
    ch: usize,
    time: usize,
    t: usize,
) {
    assert!(t < time, "select_time_into {t} out of {time}");
    assert_eq!(src.len(), batch * ch * time, "select_time_into src shape");
    assert_eq!(out.len(), batch * ch, "select_time_into out shape");
    for bi in 0..batch {
        for ci in 0..ch {
            out[bi * ch + ci] = src[(bi * ch + ci) * time + t];
        }
    }
}

// hot-path: per-push inference kernel, must stay allocation-free
/// Copy the `[rows, width]` block `src` into columns `offset..offset + width`
/// of the `[rows, total]` matrix `out` — one part of a `concat_cols`.
pub fn put_cols(src: &[f32], width: usize, out: &mut [f32], total: usize, offset: usize) {
    assert!(offset + width <= total, "put_cols range out of {total}");
    for (orow, srow) in out.chunks_mut(total).zip(src.chunks(width)) {
        orow[offset..offset + width].copy_from_slice(srow);
    }
}

// hot-path: per-push inference kernel, must stay allocation-free
/// Copy columns `from..to` of the `[rows, cols]` matrix `src` into the
/// `[rows, to − from]` matrix `out` — `slice_cols`.
pub fn take_cols(src: &[f32], cols: usize, from: usize, to: usize, out: &mut [f32]) {
    assert!(
        from < to && to <= cols,
        "slice_cols range {from}..{to} out of {cols}"
    );
    for (orow, srow) in out.chunks_mut(to - from).zip(src.chunks(cols)) {
        orow.copy_from_slice(&srow[from..to]);
    }
}

/// Steps [`subsample_time_into`] keeps of a `time`-step row: `⌈time/step⌉`.
pub fn subsampled_len(time: usize, step: usize) -> usize {
    assert!(step >= 1, "subsample step must be >= 1");
    time.div_ceil(step)
}

// hot-path: per-push inference kernel, must stay allocation-free
/// Keep every `step`-th step of each `[time]` row counted back from the
/// last: `out[r][j] = src[r][time − 1 − (n − 1 − j)·step]` with
/// `n = ⌈time/step⌉` — the residue class of `time − 1` modulo `step`, on
/// which a dilation-`step` causal convolution is a dilation-1 convolution
/// (`j − 1` is `t − step`; `j < 0` is the same implicit zero padding).
/// Replicates `Graph::subsample_time`.
pub fn subsample_time_into(src: &[f32], out: &mut [f32], rows: usize, time: usize, step: usize) {
    assert!(time >= 1, "subsample_time_into needs at least one step");
    let kept = subsampled_len(time, step);
    assert_eq!(src.len(), rows * time, "subsample_time_into src shape");
    assert_eq!(out.len(), rows * kept, "subsample_time_into out shape");
    let first = (time - 1) % step;
    for (orow, srow) in out.chunks_mut(kept).zip(src.chunks(time)) {
        for (o, &v) in orow.iter_mut().zip(srow[first..].iter().step_by(step)) {
            *o = v;
        }
    }
}

/// A value of an [`Arena`] pass: a pooled buffer and its shape (rank ≤ 3).
#[derive(Debug)]
pub struct Buf {
    data: Vec<f32>,
    dims: [usize; 3],
    rank: usize,
}

impl Buf {
    pub fn shape(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Unused trailing dims are 1, so the arrays compare whole.
    fn same_shape(&self, other: &Buf) -> bool {
        self.rank == other.rank && self.dims == other.dims
    }

    /// `a ∘ b` in place in `self`: equal shapes, or `b: [rows, 1]` against
    /// every column of `self: [rows, cols]` — the two broadcasts the tape's
    /// binary ops are used with.
    fn combine(mut self, b: &Buf, f: impl Fn(f32, f32) -> f32) -> Buf {
        if self.same_shape(b) {
            for (x, &y) in self.data.iter_mut().zip(&b.data) {
                *x = f(*x, y);
            }
        } else {
            let (rows, cols) = (self.dims[0], self.dims[1]);
            assert!(
                self.rank == 2 && b.rank == 2 && b.dims == [rows, 1, 1],
                "arena binary op: {:?} with {:?}",
                self.shape(),
                b.shape()
            );
            for (row, &y) in self.data.chunks_mut(cols).zip(&b.data) {
                for x in row {
                    *x = f(*x, y);
                }
            }
        }
        self
    }
}

/// The evaluating backend of [`Exec`]: the in-place kernels above over a
/// scratch pool, parameters read straight from the store. Dropout is the
/// identity — an arena pass is never a training pass.
pub struct Arena<'a> {
    ctx: &'a mut InferenceContext,
    store: &'a ParamStore,
}

impl<'a> Arena<'a> {
    pub fn new(ctx: &'a mut InferenceContext, store: &'a ParamStore) -> Self {
        Self { ctx, store }
    }

    fn take(&mut self, shape: &[usize]) -> Buf {
        assert!(shape.len() <= 3, "arena values have rank <= 3");
        let mut dims = [1usize; 3];
        for (d, &s) in dims.iter_mut().zip(shape) {
            *d = s;
        }
        Buf {
            data: self.ctx.take(dims[0] * dims[1] * dims[2]),
            dims,
            rank: shape.len(),
        }
    }

    /// Copy a finished value out as a tensor and release its buffer.
    pub fn into_tensor(&mut self, v: Buf) -> Tensor {
        let t = Tensor::from_vec(v.data.clone(), v.shape());
        self.release(v);
        t
    }
}

impl Exec for Arena<'_> {
    type V = Buf;

    fn shape<'v>(&'v self, v: &'v Buf) -> &'v [usize] {
        v.shape()
    }

    fn input(&mut self, shape: &[usize], fill: impl FnOnce(&mut [f32])) -> Buf {
        let mut out = self.take(shape);
        fill(&mut out.data);
        out
    }

    fn matmul(&mut self, x: &Buf, w: ParamId) -> Buf {
        let w = self.store.value(w);
        let (rows, k, n) = (x.dims[0], w.shape()[0], w.shape()[1]);
        assert!(x.rank == 2 && x.dims[1] == k, "arena matmul input shape");
        let mut out = self.take(&[rows, n]);
        tensor::matmul::matmul_into(&x.data, w.as_slice(), &mut out.data, rows, k, n);
        out
    }

    fn add_bias(&mut self, mut x: Buf, b: ParamId) -> Buf {
        let (rows, cols) = (x.dims[0], x.dims[1]);
        add_row_bias(&mut x.data, self.store.value(b).as_slice(), rows, cols);
        x
    }

    fn conv(
        &mut self,
        x: &Buf,
        v: ParamId,
        gain: Option<ParamId>,
        bias: ParamId,
        dilation: usize,
        keep: usize,
    ) -> Buf {
        let w = self.store.conv_weight(v, gain);
        let (out_ch, in_ch, kernel) = w.dims;
        let (batch, time) = (x.dims[0], x.dims[2]);
        assert!(x.rank == 3 && x.dims[1] == in_ch, "arena conv input shape");
        let bias = self.store.value(bias).as_slice();
        if w.lane_major {
            let mut out = self.take(&[batch, out_ch, subsampled_len(time, keep)]);
            conv1d_kept_into(
                &x.data,
                w.values,
                bias,
                &mut out.data,
                batch,
                in_ch,
                out_ch,
                time,
                kernel,
                dilation,
                keep,
            );
            return out;
        }
        let mut out = self.take(&[batch, out_ch, time]);
        conv1d_taps_into_zeroed(
            &x.data,
            w.values,
            &mut out.data,
            batch,
            in_ch,
            out_ch,
            time,
            kernel,
            dilation,
        );
        add_channel_bias(&mut out.data, bias, batch, out_ch, time);
        if keep == 1 {
            return out;
        }
        // Weights the kept-column kernel refuses (an exact zero, a
        // non-finite value): the reference's own path, then its columns.
        let kept = self.subsample_time(&out, keep);
        self.release(out);
        kept
    }

    fn relu(&mut self, mut x: Buf) -> Buf {
        relu_in_place(&mut x.data);
        x
    }

    fn tanh(&mut self, mut x: Buf) -> Buf {
        tanh_in_place(&mut x.data);
        x
    }

    fn sigmoid(&mut self, mut x: Buf) -> Buf {
        sigmoid_in_place(&mut x.data);
        x
    }

    fn softmax_rows(&mut self, mut x: Buf) -> Buf {
        assert_eq!(x.rank, 2, "softmax_rows requires rank-2");
        softmax_rows_in_place(&mut x.data, x.dims[0], x.dims[1]);
        x
    }

    fn scale(&mut self, mut x: Buf, c: f32) -> Buf {
        for v in &mut x.data {
            *v *= c;
        }
        x
    }

    fn add(&mut self, a: Buf, b: &Buf) -> Buf {
        a.combine(b, |x, y| x + y)
    }

    fn sub(&mut self, a: Buf, b: &Buf) -> Buf {
        a.combine(b, |x, y| x - y)
    }

    fn mul(&mut self, a: Buf, b: &Buf) -> Buf {
        a.combine(b, |x, y| x * y)
    }

    fn add_relu(&mut self, res: &Buf, h: Buf) -> Buf {
        assert!(res.same_shape(&h), "add_relu shapes");
        h.combine(res, |hv, r| (r + hv).max(0.0))
    }

    fn select_time(&mut self, x: &Buf, t: usize) -> Buf {
        assert_eq!(x.rank, 3, "select_time requires [batch, ch, time]");
        let [batch, ch, time] = x.dims;
        let mut out = self.take(&[batch, ch]);
        select_time_into(&x.data, &mut out.data, batch, ch, time, t);
        out
    }

    fn subsample_time(&mut self, x: &Buf, step: usize) -> Buf {
        assert_eq!(x.rank, 3, "subsample_time requires [batch, ch, time]");
        let [batch, ch, time] = x.dims;
        let mut out = self.take(&[batch, ch, subsampled_len(time, step)]);
        subsample_time_into(&x.data, &mut out.data, batch * ch, time, step);
        out
    }

    fn slice_cols(&mut self, x: &Buf, from: usize, to: usize) -> Buf {
        assert_eq!(x.rank, 2, "slice_cols requires rank-2");
        let mut out = self.take(&[x.dims[0], to.saturating_sub(from)]);
        take_cols(&x.data, x.dims[1], from, to, &mut out.data);
        out
    }

    fn concat_cols(&mut self, parts: &[Buf]) -> Buf {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = parts[0].dims[0];
        let total: usize = parts.iter().map(|p| p.dims[1]).sum();
        let mut out = self.take(&[rows, total]);
        let mut offset = 0;
        for p in parts {
            assert!(p.rank == 2 && p.dims[0] == rows, "concat_cols row mismatch");
            put_cols(&p.data, p.dims[1], &mut out.data, total, offset);
            offset += p.dims[1];
        }
        out
    }

    fn dropout(&mut self, x: Buf, _p: f32) -> Buf {
        x
    }

    fn dropout_spatial(&mut self, x: Buf, _p: f32) -> Buf {
        x
    }

    fn dup(&mut self, x: &Buf) -> Buf {
        let mut out = self.take(x.shape());
        out.data.copy_from_slice(&x.data);
        out
    }

    fn release(&mut self, v: Buf) {
        self.ctx.give(v.data);
    }
}

/// Tape-free batched inference over `x: [n, time, features]`, chunked like
/// `train::predict` and routed through [`SequenceModel::infer`], on the
/// calling thread.
///
/// Rows are independent through the whole network (the GEMM and conv
/// kernels give every output element one fixed accumulation chain
/// regardless of `m`), so any chunking of the batch is bitwise identical to
/// forecasting each row alone — asserted in `tests/infer_parity.rs`.
pub fn predict<M: SequenceModel + ?Sized>(
    model: &M,
    x: &Tensor,
    batch_size: usize,
    ctx: &mut InferenceContext,
) -> Tensor {
    let n = x.shape()[0];
    let cap = batch_size.max(1);
    if n <= cap {
        // The serving hot path: no row gather, straight into the model.
        return model.infer(ctx, x);
    }
    let horizon = model.horizon();
    let mut out = Vec::with_capacity(n * horizon);
    let rows: Vec<usize> = (0..n).collect();
    for chunk in rows.chunks(cap) {
        let xb = take_rows(x, chunk);
        out.extend_from_slice(model.infer(ctx, &xb).as_slice());
    }
    Tensor::from_vec(out, &[n, horizon])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::{ops, reduce, Rng};

    #[test]
    fn arena_reuses_buffers_after_warmup() {
        let mut ctx = InferenceContext::new();
        let a = ctx.take(128);
        let b = ctx.take(64);
        assert_eq!(ctx.fresh_allocs(), 2);
        ctx.give(a);
        ctx.give(b);
        // Smaller and equal requests are served from the pool.
        let c = ctx.take(100);
        let d = ctx.take(64);
        assert_eq!(ctx.fresh_allocs(), 2, "pool miss after warm-up");
        assert!(c.iter().all(|&v| v == 0.0), "recycled buffer not zeroed");
        ctx.give(c);
        ctx.give(d);
    }

    #[test]
    fn arena_counts_fresh_allocations() {
        let mut ctx = InferenceContext::new();
        let a = ctx.take(16);
        ctx.give(a);
        let _bigger = ctx.take(32); // cannot be served by the 16-cap buffer
        assert_eq!(ctx.fresh_allocs(), 2);
    }

    #[test]
    fn softmax_matches_tensor_kernel_bitwise() {
        let mut rng = Rng::seed_from(1);
        let t = Tensor::rand_normal(&[5, 7], 0.0, 3.0, &mut rng);
        let reference = reduce::softmax_rows(&t);
        let mut buf = t.as_slice().to_vec();
        softmax_rows_in_place(&mut buf, 5, 7);
        assert_eq!(buf.as_slice(), reference.as_slice());
    }

    #[test]
    fn activations_match_tensor_kernels_bitwise() {
        let mut rng = Rng::seed_from(2);
        let t = Tensor::rand_normal(&[64], 0.0, 10.0, &mut rng);
        let mut relu = t.as_slice().to_vec();
        relu_in_place(&mut relu);
        assert_eq!(relu.as_slice(), ops::relu(&t).as_slice());
        let mut tanh = t.as_slice().to_vec();
        tanh_in_place(&mut tanh);
        assert_eq!(tanh.as_slice(), ops::tanh(&t).as_slice());
        let mut sig = t.as_slice().to_vec();
        sigmoid_in_place(&mut sig);
        assert_eq!(sig.as_slice(), ops::sigmoid(&t).as_slice());
    }

    #[test]
    fn row_and_channel_bias_match_broadcast_add() {
        let mut rng = Rng::seed_from(3);
        let y = Tensor::rand_normal(&[4, 3], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[3], 0.0, 1.0, &mut rng);
        let reference = ops::add(&y, &b);
        let mut buf = y.as_slice().to_vec();
        add_row_bias(&mut buf, b.as_slice(), 4, 3);
        assert_eq!(buf.as_slice(), reference.as_slice());

        let y3 = Tensor::rand_normal(&[2, 3, 5], 0.0, 1.0, &mut rng);
        let bc = Tensor::rand_normal(&[3, 1], 0.0, 1.0, &mut rng);
        let reference = ops::add(&y3, &bc);
        let mut buf = y3.as_slice().to_vec();
        add_channel_bias(&mut buf, bc.as_slice(), 2, 3, 5);
        assert_eq!(buf.as_slice(), reference.as_slice());
    }

    #[test]
    fn select_time_matches_layout() {
        let t = Tensor::arange(2 * 3 * 4).into_reshape(&[2, 3, 4]).unwrap();
        let mut out = vec![0.0f32; 2 * 3];
        select_time_into(t.as_slice(), &mut out, 2, 3, 4, 2);
        // src[b][c][t=2] = (b*3 + c)*4 + 2
        assert_eq!(out, &[2.0, 6.0, 10.0, 14.0, 18.0, 22.0]);
    }

    #[test]
    fn thread_context_is_reused() {
        let before = thread_context_allocs();
        with_thread_context(|ctx| {
            let buf = ctx.take(256);
            ctx.give(buf);
        });
        with_thread_context(|ctx| {
            let buf = ctx.take(256);
            ctx.give(buf);
        });
        assert_eq!(thread_context_allocs(), before + 1);
    }
}
