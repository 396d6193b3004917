//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is an append-only tape: every builder method evaluates its
//! result eagerly and records the operation, so the forward pass *is* the
//! graph construction. [`Graph::backward`] then walks the tape in reverse,
//! propagating vector-Jacobian products, and returns per-parameter
//! [`Gradients`]. One graph corresponds to one training step and is dropped
//! afterwards — no retained state, no reference counting.

use tensor::reduce;
use tensor::{matmul, ops, Tensor};

use crate::conv_kernels;
use crate::infer;
use crate::params::{Gradients, ParamId, ParamStore};

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// The recorded operation for one tape node.
enum Op {
    /// Constant leaf: data, targets, dropout masks. Receives no gradient.
    Input,
    /// Trainable leaf: gradient flows into the [`ParamStore`] slot.
    Param(ParamId),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    MatMul(Var, Var),
    Relu(Var),
    Tanh(Var),
    Sigmoid(Var),
    Exp(Var),
    Sqrt(Var),
    Square(Var),
    Abs(Var),
    Neg(Var),
    Scale(Var, f32),
    // The shift constant is not needed for the backward pass, so it is not
    // stored: d(x + c)/dx = 1.
    AddScalar(Var),
    Reshape(Var),
    SoftmaxRows(Var),
    SliceCols(Var, usize, usize),
    ConcatCols(Vec<Var>),
    SelectTime(Var, usize),
    SubsampleTime(Var, usize),
    SumAll(Var),
    MeanAll(Var),
    SumAxisKeepdim(Var, usize),
    /// Product with a constant mask (dropout): a factor per element, or
    /// per row of the last axis.
    MulMask(Var, Tensor),
    /// Dilated causal 1-D convolution plus channel bias on the kept columns
    /// (see [`conv_kernels::conv1d_kept_forward`]).
    Conv {
        x: Var,
        w: Var,
        b: Var,
        dilation: usize,
        keep: usize,
    },
    /// Elementwise Huber penalty applied to a difference tensor.
    HuberOnDiff(Var, f32),
}

struct Node {
    value: Tensor,
    op: Op,
}

/// The autodiff tape. Borrows the parameter store immutably: parameter
/// *values* are read during construction, and gradients are returned as a
/// separate [`Gradients`] object so the caller can hand them to an optimiser.
pub struct Graph<'s> {
    store: &'s ParamStore,
    nodes: Vec<Node>,
}

impl<'s> Graph<'s> {
    pub fn new(store: &'s ParamStore) -> Self {
        Self {
            store,
            nodes: Vec::with_capacity(64),
        }
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Current value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // ---- leaves -----------------------------------------------------------

    /// Add a constant leaf (input data, targets, masks).
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Input)
    }

    /// Add a trainable-parameter leaf.
    pub fn param(&mut self, id: ParamId) -> Var {
        let value = self.store.value(id).clone();
        self.push(value, Op::Param(id))
    }

    // ---- binary broadcasting ops -------------------------------------------

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = ops::add(self.value(a), self.value(b));
        self.push(v, Op::Add(a, b))
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = ops::sub(self.value(a), self.value(b));
        self.push(v, Op::Sub(a, b))
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = ops::mul(self.value(a), self.value(b));
        self.push(v, Op::Mul(a, b))
    }

    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let v = ops::div(self.value(a), self.value(b));
        self.push(v, Op::Div(a, b))
    }

    /// `[m, k] · [k, n]` matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = matmul::matmul(self.value(a), self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    // ---- unary ops ---------------------------------------------------------

    pub fn relu(&mut self, a: Var) -> Var {
        let v = ops::relu(self.value(a));
        self.push(v, Op::Relu(a))
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let v = ops::tanh(self.value(a));
        self.push(v, Op::Tanh(a))
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = ops::sigmoid(self.value(a));
        self.push(v, Op::Sigmoid(a))
    }

    pub fn exp(&mut self, a: Var) -> Var {
        let v = ops::exp(self.value(a));
        self.push(v, Op::Exp(a))
    }

    pub fn sqrt(&mut self, a: Var) -> Var {
        let v = ops::sqrt(self.value(a));
        self.push(v, Op::Sqrt(a))
    }

    pub fn square(&mut self, a: Var) -> Var {
        let v = ops::square(self.value(a));
        self.push(v, Op::Square(a))
    }

    pub fn abs(&mut self, a: Var) -> Var {
        let v = ops::abs(self.value(a));
        self.push(v, Op::Abs(a))
    }

    pub fn neg(&mut self, a: Var) -> Var {
        let v = ops::neg(self.value(a));
        self.push(v, Op::Neg(a))
    }

    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = ops::scale(self.value(a), c);
        self.push(v, Op::Scale(a, c))
    }

    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = ops::add_scalar(self.value(a), c);
        self.push(v, Op::AddScalar(a))
    }

    // ---- shape ops ---------------------------------------------------------

    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let v = self
            .value(a)
            .reshape(shape)
            .expect("graph reshape: bad shape");
        self.push(v, Op::Reshape(a))
    }

    /// Columns `[from, to)` of a rank-2 node.
    pub fn slice_cols(&mut self, a: Var, from: usize, to: usize) -> Var {
        let src = self.value(a);
        assert_eq!(src.rank(), 2, "slice_cols requires rank-2");
        let (m, n) = (src.shape()[0], src.shape()[1]);
        assert!(
            from < to && to <= n,
            "slice_cols range {from}..{to} out of {n}"
        );
        let width = to - from;
        let mut out = vec![0.0f32; m * width];
        infer::take_cols(src.as_slice(), n, from, to, &mut out);
        self.push(
            Tensor::from_vec(out, &[m, width]),
            Op::SliceCols(a, from, to),
        )
    }

    /// Concatenate rank-2 nodes with equal row counts along the column axis.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let m = self.value(parts[0]).shape()[0];
        let total: usize = parts.iter().map(|&p| self.value(p).shape()[1]).sum();
        let mut out = vec![0.0f32; m * total];
        let mut offset = 0;
        for &p in parts {
            let t = self.value(p);
            assert_eq!(t.rank(), 2, "concat_cols requires rank-2 parts");
            assert_eq!(t.shape()[0], m, "concat_cols row mismatch");
            let w = t.shape()[1];
            infer::put_cols(t.as_slice(), w, &mut out, total, offset);
            offset += w;
        }
        self.push(
            Tensor::from_vec(out, &[m, total]),
            Op::ConcatCols(parts.to_vec()),
        )
    }

    /// Time slice `t` of a `[batch, channels, time]` node, yielding
    /// `[batch, channels]`.
    pub fn select_time(&mut self, a: Var, t: usize) -> Var {
        let src = self.value(a);
        assert_eq!(src.rank(), 3, "select_time requires [batch, ch, time]");
        let (b, c, time) = (src.shape()[0], src.shape()[1], src.shape()[2]);
        assert!(t < time, "select_time {t} out of {time}");
        let mut out = vec![0.0f32; b * c];
        infer::select_time_into(src.as_slice(), &mut out, b, c, time, t);
        self.push(Tensor::from_vec(out, &[b, c]), Op::SelectTime(a, t))
    }

    /// Every `step`-th time step of a `[batch, channels, time]` node counted
    /// back from the last one (see [`infer::subsample_time_into`]), yielding
    /// `[batch, channels, ⌈time/step⌉]`. The dropped steps receive an exact
    /// zero gradient.
    pub fn subsample_time(&mut self, a: Var, step: usize) -> Var {
        let src = self.value(a);
        assert_eq!(src.rank(), 3, "subsample_time requires [batch, ch, time]");
        let (b, c, time) = (src.shape()[0], src.shape()[1], src.shape()[2]);
        let kept = infer::subsampled_len(time, step);
        let mut out = vec![0.0f32; b * c * kept];
        infer::subsample_time_into(src.as_slice(), &mut out, b * c, time, step);
        self.push(
            Tensor::from_vec(out, &[b, c, kept]),
            Op::SubsampleTime(a, step),
        )
    }

    // ---- reductions --------------------------------------------------------

    /// Scalar sum of all elements.
    // lint: allow(r10) test: the scalar loss gradcheck.rs and the layer unit suites backpropagate from
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(reduce::sum(self.value(a)));
        self.push(v, Op::SumAll(a))
    }

    /// Scalar mean of all elements.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(reduce::mean(self.value(a)));
        self.push(v, Op::MeanAll(a))
    }

    /// Sum along `axis`, keeping that axis with size 1.
    pub fn sum_axis_keepdim(&mut self, a: Var, axis: usize) -> Var {
        let reduced = reduce::sum_axis(self.value(a), axis);
        let mut shape = self.value(a).shape().to_vec();
        shape[axis] = 1;
        let v = reduced.into_reshape(&shape).expect("keepdim reshape");
        self.push(v, Op::SumAxisKeepdim(a, axis))
    }

    /// Row-wise softmax of a rank-2 node.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let v = reduce::softmax_rows(self.value(a));
        self.push(v, Op::SoftmaxRows(a))
    }

    // ---- special ops -------------------------------------------------------

    /// Product with a fixed mask; the mask receives no gradient. This is how
    /// dropout enters the tape. `mask` has `a`'s shape, or `a`'s shape with
    /// the last axis 1: one factor per row, the whole row scaled by it —
    /// spatial dropout's one draw per `(item, channel)`.
    pub fn mul_mask(&mut self, a: Var, mask: Tensor) -> Var {
        let v = mask_rows(self.value(a), &mask);
        self.push(v, Op::MulMask(a, mask))
    }

    /// Dilated causal convolution of `x: [batch, in_ch, time]` with `w:
    /// [out_ch, in_ch, k]` plus the `[out_ch, 1]` channel bias `b`, on every
    /// `keep`-th column counted back from the last ([`Graph::subsample_time`]'s
    /// rule): `[batch, out_ch, ⌈time/keep⌉]`, one node. Forward and backward
    /// run on the kept columns only; the value and every gradient are the
    /// bits of a whole-row convolution, a broadcast bias add and
    /// `subsample_time` (see [`conv_kernels::conv1d_kept_backward`]).
    pub fn conv(&mut self, x: Var, w: Var, b: Var, dilation: usize, keep: usize) -> Var {
        let v = conv_kernels::conv1d_kept_forward(
            self.value(x),
            self.value(w),
            self.value(b).as_slice(),
            dilation,
            keep,
        );
        self.push(
            v,
            Op::Conv {
                x,
                w,
                b,
                dilation,
                keep,
            },
        )
    }

    /// Elementwise Huber penalty of a difference tensor with threshold
    /// `delta`; combine with [`Graph::mean_all`] for the usual loss.
    pub fn huber_on_diff(&mut self, diff: Var, delta: f32) -> Var {
        assert!(delta > 0.0);
        let v = self.value(diff).map(|d| {
            if d.abs() <= delta {
                0.5 * d * d
            } else {
                delta * (d.abs() - 0.5 * delta)
            }
        });
        self.push(v, Op::HuberOnDiff(diff, delta))
    }

    // ---- backward ----------------------------------------------------------

    /// Reverse-mode sweep from the scalar node `loss`. Returns gradients for
    /// every parameter that participated in the tape.
    ///
    /// # Panics
    /// Panics when `loss` is not a single-element tensor.
    pub fn backward(self, loss: Var) -> Gradients {
        assert_eq!(
            self.nodes[loss.0].value.len(),
            1,
            "backward requires a scalar loss, got shape {:?}",
            self.nodes[loss.0].value.shape()
        );
        let n = self.nodes.len();
        let mut grads: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::full(self.nodes[loss.0].value.shape(), 1.0));
        let mut out = Gradients::new(self.store.len());

        for i in (0..n).rev() {
            let g = match grads[i].take() {
                Some(g) => g,
                None => continue,
            };
            let node = &self.nodes[i];
            match &node.op {
                Op::Input => {}
                Op::Param(id) => out.accumulate(*id, &g),
                Op::Add(a, b) => {
                    accumulate(&mut grads, *a, reduce_grad_to(&g, self.shape_of(*a)));
                    accumulate(&mut grads, *b, reduce_grad_to(&g, self.shape_of(*b)));
                }
                Op::Sub(a, b) => {
                    accumulate(&mut grads, *a, reduce_grad_to(&g, self.shape_of(*a)));
                    accumulate(
                        &mut grads,
                        *b,
                        reduce_grad_to(&ops::neg(&g), self.shape_of(*b)),
                    );
                }
                Op::Mul(a, b) => {
                    let ga = ops::mul(&g, &self.nodes[b.0].value);
                    let gb = ops::mul(&g, &self.nodes[a.0].value);
                    accumulate(&mut grads, *a, reduce_grad_to(&ga, self.shape_of(*a)));
                    accumulate(&mut grads, *b, reduce_grad_to(&gb, self.shape_of(*b)));
                }
                Op::Div(a, b) => {
                    let bv = &self.nodes[b.0].value;
                    let ga = ops::div(&g, bv);
                    // d/db (a/b) = -a / b^2
                    let gb = ops::neg(&ops::div(
                        &ops::mul(&g, &self.nodes[a.0].value),
                        &ops::square(bv),
                    ));
                    accumulate(&mut grads, *a, reduce_grad_to(&ga, self.shape_of(*a)));
                    accumulate(&mut grads, *b, reduce_grad_to(&gb, self.shape_of(*b)));
                }
                Op::MatMul(a, b) => {
                    let ga = matmul::matmul_a_bt(&g, &self.nodes[b.0].value);
                    let gb = matmul::matmul_at_b(&self.nodes[a.0].value, &g);
                    accumulate(&mut grads, *a, ga);
                    accumulate(&mut grads, *b, gb);
                }
                Op::Relu(a) => {
                    let xa = &self.nodes[a.0].value;
                    let ga = Tensor::from_vec(
                        g.as_slice()
                            .iter()
                            .zip(xa.as_slice())
                            .map(|(&gv, &xv)| if xv > 0.0 { gv } else { 0.0 })
                            .collect(),
                        xa.shape(),
                    );
                    accumulate(&mut grads, *a, ga);
                }
                Op::Tanh(a) => {
                    // dx = g * (1 - y^2), using the cached output y.
                    let y = &node.value;
                    let ga = ops::mul(&g, &y.map(|v| 1.0 - v * v));
                    accumulate(&mut grads, *a, ga);
                }
                Op::Sigmoid(a) => {
                    let y = &node.value;
                    let ga = ops::mul(&g, &y.map(|v| v * (1.0 - v)));
                    accumulate(&mut grads, *a, ga);
                }
                Op::Exp(a) => {
                    accumulate(&mut grads, *a, ops::mul(&g, &node.value));
                }
                Op::Sqrt(a) => {
                    // dx = g / (2*sqrt(x)); guard the origin.
                    let y = &node.value;
                    let ga = ops::mul(&g, &y.map(|v| 0.5 / v.max(1e-12)));
                    accumulate(&mut grads, *a, ga);
                }
                Op::Square(a) => {
                    let xa = &self.nodes[a.0].value;
                    let ga = ops::mul(&g, &xa.map(|v| 2.0 * v));
                    accumulate(&mut grads, *a, ga);
                }
                Op::Abs(a) => {
                    let xa = &self.nodes[a.0].value;
                    let ga = ops::mul(&g, &xa.map(|v| if v >= 0.0 { 1.0 } else { -1.0 }));
                    accumulate(&mut grads, *a, ga);
                }
                Op::Neg(a) => accumulate(&mut grads, *a, ops::neg(&g)),
                Op::Scale(a, c) => accumulate(&mut grads, *a, ops::scale(&g, *c)),
                Op::AddScalar(a) => accumulate(&mut grads, *a, g),
                Op::Reshape(a) => {
                    let target = self.shape_of(*a).to_vec();
                    accumulate(
                        &mut grads,
                        *a,
                        g.into_reshape(&target).expect("reshape grad"),
                    );
                }
                Op::SoftmaxRows(a) => {
                    // dx_ij = y_ij * (g_ij - sum_k g_ik y_ik)
                    let y = &node.value;
                    let (m, ncols) = (y.shape()[0], y.shape()[1]);
                    let mut ga = vec![0.0f32; m * ncols];
                    for r in 0..m {
                        let yr = &y.as_slice()[r * ncols..(r + 1) * ncols];
                        let gr = &g.as_slice()[r * ncols..(r + 1) * ncols];
                        let dot: f64 = yr
                            .iter()
                            .zip(gr)
                            .map(|(&yv, &gv)| yv as f64 * gv as f64)
                            .sum();
                        for c in 0..ncols {
                            ga[r * ncols + c] = yr[c] * (gr[c] - dot as f32);
                        }
                    }
                    accumulate(&mut grads, *a, Tensor::from_vec(ga, &[m, ncols]));
                }
                Op::SliceCols(a, from, to) => {
                    let pshape = self.shape_of(*a);
                    let (m, ncols) = (pshape[0], pshape[1]);
                    let width = to - from;
                    let mut ga = Tensor::zeros(pshape);
                    for r in 0..m {
                        ga.as_mut_slice()[r * ncols + from..r * ncols + to]
                            .copy_from_slice(&g.as_slice()[r * width..(r + 1) * width]);
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::ConcatCols(parts) => {
                    let m = node.value.shape()[0];
                    let total = node.value.shape()[1];
                    let mut offset = 0;
                    for &p in parts {
                        let w = self.shape_of(p)[1];
                        let mut gp = vec![0.0f32; m * w];
                        for r in 0..m {
                            gp[r * w..(r + 1) * w].copy_from_slice(
                                &g.as_slice()[r * total + offset..r * total + offset + w],
                            );
                        }
                        accumulate(&mut grads, p, Tensor::from_vec(gp, &[m, w]));
                        offset += w;
                    }
                }
                Op::SelectTime(a, t) => {
                    let pshape = self.shape_of(*a);
                    let (b, c, time) = (pshape[0], pshape[1], pshape[2]);
                    let mut ga = Tensor::zeros(pshape);
                    for bi in 0..b {
                        for ci in 0..c {
                            ga.as_mut_slice()[(bi * c + ci) * time + t] = g.as_slice()[bi * c + ci];
                        }
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::SubsampleTime(a, step) => {
                    let pshape = self.shape_of(*a);
                    let (time, kept) = (pshape[2], node.value.shape()[2]);
                    let first = (time - 1) % step;
                    let mut ga = Tensor::zeros(pshape);
                    for (row, grow) in ga
                        .as_mut_slice()
                        .chunks_mut(time)
                        .zip(g.as_slice().chunks(kept))
                    {
                        for (slot, &gv) in row[first..].iter_mut().step_by(*step).zip(grow) {
                            *slot = gv;
                        }
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::SumAll(a) => {
                    let ga = Tensor::full(self.shape_of(*a), g.item());
                    accumulate(&mut grads, *a, ga);
                }
                Op::MeanAll(a) => {
                    let n_elems = self.nodes[a.0].value.len().max(1) as f32;
                    let ga = Tensor::full(self.shape_of(*a), g.item() / n_elems);
                    accumulate(&mut grads, *a, ga);
                }
                Op::SumAxisKeepdim(a, _axis) => {
                    let ga = g.broadcast_to(self.shape_of(*a)).expect("keepdim grad");
                    accumulate(&mut grads, *a, ga);
                }
                Op::MulMask(a, mask) => {
                    accumulate(&mut grads, *a, mask_rows(&g, mask));
                }
                Op::Conv {
                    x,
                    w,
                    b,
                    dilation,
                    keep,
                } => {
                    // A data leaf takes no gradient (the first block's
                    // convolutions read the window itself).
                    let cg = conv_kernels::conv1d_kept_backward(
                        &g,
                        &self.nodes[x.0].value,
                        &self.nodes[w.0].value,
                        *dilation,
                        *keep,
                        !matches!(self.nodes[x.0].op, Op::Input),
                    );
                    if let Some(gx) = cg.x {
                        accumulate(&mut grads, *x, gx);
                    }
                    accumulate(&mut grads, *w, cg.w);
                    let gb = Tensor::from_vec(cg.b, self.shape_of(*b));
                    accumulate(&mut grads, *b, gb);
                }
                Op::HuberOnDiff(a, delta) => {
                    let d = &self.nodes[a.0].value;
                    let ga = ops::mul(&g, &d.map(|v| v.clamp(-*delta, *delta)));
                    accumulate(&mut grads, *a, ga);
                }
            }
        }
        out
    }

    fn shape_of(&self, v: Var) -> &[usize] {
        self.nodes[v.0].value.shape()
    }
}

fn accumulate(grads: &mut [Option<Tensor>], v: Var, g: Tensor) {
    match &mut grads[v.0] {
        Some(existing) => ops::axpy(existing, 1.0, &g),
        slot @ None => *slot = Some(g),
    }
}

/// `x · mask` with one factor per element, or per row of `x`'s last axis
/// when `mask` has that axis 1 — the operand order of an elementwise
/// `ops::mul(x, mask)` against the broadcast mask, so the same bits.
fn mask_rows(x: &Tensor, mask: &Tensor) -> Tensor {
    let (xs, ms) = (x.shape(), mask.shape());
    let row = match xs.split_last() {
        _ if ms == xs => 1,
        Some((&len, lead)) if ms.split_last() == Some((&1, lead)) => len,
        _ => panic!("mask {ms:?} is neither {xs:?} nor one factor per row of it"),
    };
    let mut out = x.as_slice().to_vec();
    for (r, &m) in out.chunks_mut(row.max(1)).zip(mask.as_slice()) {
        for v in r {
            *v *= m;
        }
    }
    Tensor::from_vec(out, xs)
}

/// Collapse a gradient back to the (possibly broadcast) shape of its source:
/// sum over prepended axes, then over axes the source held with size 1.
fn reduce_grad_to(grad: &Tensor, target: &[usize]) -> Tensor {
    if grad.shape() == target {
        return grad.clone();
    }
    let mut g = grad.clone();
    while g.rank() > target.len() {
        g = reduce::sum_axis(&g, 0);
    }
    for axis in 0..target.len() {
        if target[axis] == 1 && g.shape()[axis] != 1 {
            let mut keep = g.shape().to_vec();
            keep[axis] = 1;
            g = reduce::sum_axis(&g, axis)
                .into_reshape(&keep)
                .expect("reduce_grad_to");
        }
    }
    debug_assert_eq!(g.shape(), target);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::Rng;

    fn store_with(values: &[(&str, Tensor)]) -> (ParamStore, Vec<ParamId>) {
        let mut store = ParamStore::new();
        let ids = values
            .iter()
            .map(|(n, t)| store.register(*n, t.clone()))
            .collect();
        (store, ids)
    }

    #[test]
    fn gradient_of_squared_param() {
        // L = mean((w)^2), w = [1, 2, 3] => dL/dw = 2w/3.
        let (store, ids) = store_with(&[("w", Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]))]);
        let mut g = Graph::new(&store);
        let w = g.param(ids[0]);
        let sq = g.square(w);
        let loss = g.mean_all(sq);
        let grads = g.backward(loss);
        let gw = grads.get(ids[0]).unwrap();
        assert!(gw.allclose(
            &Tensor::from_vec(vec![2.0 / 3.0, 4.0 / 3.0, 2.0], &[3]),
            1e-6
        ));
    }

    #[test]
    fn gradient_through_matmul_and_bias() {
        // L = sum(x·W + b); dW = xᵀ·1, db = column sums of ones.
        let (store, ids) = store_with(&[
            (
                "w",
                Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]),
            ),
            ("b", Tensor::from_vec(vec![0.1, 0.2, 0.3], &[3])),
        ]);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let w = g.param(ids[0]);
        let b = g.param(ids[1]);
        let xw = g.matmul(x, w);
        let y = g.add(xw, b);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        // dW[i][j] = sum_batch x[batch][i]
        let gw = grads.get(ids[0]).unwrap();
        assert!(gw.allclose(
            &Tensor::from_vec(vec![4.0, 4.0, 4.0, 6.0, 6.0, 6.0], &[2, 3]),
            1e-5
        ));
        let gb = grads.get(ids[1]).unwrap();
        assert!(gb.allclose(&Tensor::from_vec(vec![2.0, 2.0, 2.0], &[3]), 1e-6));
    }

    #[test]
    fn chain_rule_through_activations() {
        // L = sum(tanh(w)); dL/dw = 1 - tanh(w)^2.
        let (store, ids) = store_with(&[("w", Tensor::from_vec(vec![0.5, -1.0], &[2]))]);
        let mut g = Graph::new(&store);
        let w = g.param(ids[0]);
        let y = g.tanh(w);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        let expected = Tensor::from_vec(
            vec![1.0 - 0.5f32.tanh().powi(2), 1.0 - (-1.0f32).tanh().powi(2)],
            &[2],
        );
        assert!(grads.get(ids[0]).unwrap().allclose(&expected, 1e-6));
    }

    #[test]
    fn reused_node_accumulates_gradient() {
        // L = sum(w * w') where both operands are the SAME node: dL/dw = 2w.
        let (store, ids) = store_with(&[("w", Tensor::from_vec(vec![3.0, -2.0], &[2]))]);
        let mut g = Graph::new(&store);
        let w = g.param(ids[0]);
        let prod = g.mul(w, w);
        let loss = g.sum_all(prod);
        let grads = g.backward(loss);
        assert!(grads
            .get(ids[0])
            .unwrap()
            .allclose(&Tensor::from_vec(vec![6.0, -4.0], &[2]), 1e-6));
    }

    #[test]
    fn broadcast_bias_gradient_is_reduced() {
        // y = x + b with x: [4, 3], b: [3]; L = sum(y) => db = [4, 4, 4].
        let (store, ids) = store_with(&[("b", Tensor::zeros(&[3]))]);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::ones(&[4, 3]));
        let b = g.param(ids[0]);
        let y = g.add(x, b);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert!(grads
            .get(ids[0])
            .unwrap()
            .allclose(&Tensor::full(&[3], 4.0), 1e-6));
    }

    #[test]
    fn softmax_gradient_sums_to_zero_per_row() {
        // Softmax outputs sum to 1 per row, so grad wrt logits sums to 0.
        let (store, ids) = store_with(&[(
            "w",
            Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]),
        )]);
        let mut g = Graph::new(&store);
        let w = g.param(ids[0]);
        let s = g.softmax_rows(w);
        let weights = g.input(Tensor::from_vec(
            vec![1.0, 5.0, 2.0, 0.5, 1.5, 2.5],
            &[2, 3],
        ));
        let weighted = g.mul(s, weights);
        let loss = g.sum_all(weighted);
        let grads = g.backward(loss);
        let gw = grads.get(ids[0]).unwrap();
        for r in 0..2 {
            let row_sum: f32 = gw.row(r).as_slice().iter().sum();
            assert!(row_sum.abs() < 1e-5, "row {r} grad sum {row_sum}");
        }
    }

    #[test]
    fn slice_and_concat_are_inverse_for_gradients() {
        let (store, ids) = store_with(&[(
            "w",
            Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]),
        )]);
        let mut g = Graph::new(&store);
        let w = g.param(ids[0]);
        let left = g.slice_cols(w, 0, 2);
        let right = g.slice_cols(w, 2, 4);
        let rejoined = g.concat_cols(&[left, right]);
        assert_eq!(g.value(rejoined), store.value(ids[0]));
        let loss = g.sum_all(rejoined);
        let grads = g.backward(loss);
        assert!(grads
            .get(ids[0])
            .unwrap()
            .allclose(&Tensor::ones(&[3, 4]), 1e-6));
    }

    #[test]
    fn select_time_routes_gradient_to_one_step() {
        let (store, ids) = store_with(&[("w", Tensor::ones(&[2, 3, 4]))]);
        let mut g = Graph::new(&store);
        let w = g.param(ids[0]);
        let last = g.select_time(w, 3);
        assert_eq!(g.value(last).shape(), &[2, 3]);
        let loss = g.sum_all(last);
        let grads = g.backward(loss);
        let gw = grads.get(ids[0]).unwrap();
        for bi in 0..2 {
            for ci in 0..3 {
                for t in 0..4 {
                    let expected = if t == 3 { 1.0 } else { 0.0 };
                    assert_eq!(gw.at(&[bi, ci, t]), expected);
                }
            }
        }
    }

    #[test]
    fn subsample_time_keeps_the_last_steps_residue_class() {
        // time 7, step 3: steps 0, 3, 6 — counted back from the last one.
        let data: Vec<f32> = (0..14).map(|i| i as f32).collect();
        let (store, ids) = store_with(&[("w", Tensor::from_vec(data, &[1, 2, 7]))]);
        let mut g = Graph::new(&store);
        let w = g.param(ids[0]);
        let sub = g.subsample_time(w, 3);
        assert_eq!(g.value(sub).shape(), &[1, 2, 3]);
        assert_eq!(g.value(sub).as_slice(), &[0.0, 3.0, 6.0, 7.0, 10.0, 13.0]);
        // time 8, step 3: steps 1, 4, 7 — the class of the last step, not of 0.
        let even = g.input(Tensor::arange(8).into_reshape(&[1, 1, 8]).unwrap());
        let sub_even = g.subsample_time(even, 3);
        assert_eq!(g.value(sub_even).as_slice(), &[1.0, 4.0, 7.0]);

        // Gradient: kept steps receive theirs, dropped steps an exact zero.
        let weights = g.input(Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            &[1, 2, 3],
        ));
        let weighted = g.mul(sub, weights);
        let loss = g.sum_all(weighted);
        let grads = g.backward(loss);
        assert_eq!(
            grads.get(ids[0]).unwrap().as_slice(),
            &[1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 3.0, 4.0, 0.0, 0.0, 5.0, 0.0, 0.0, 6.0]
        );
    }

    #[test]
    fn subsample_time_by_one_is_the_identity() {
        let (store, ids) =
            store_with(&[("w", Tensor::arange(6).into_reshape(&[1, 2, 3]).unwrap())]);
        let mut g = Graph::new(&store);
        let w = g.param(ids[0]);
        let sub = g.subsample_time(w, 1);
        assert_eq!(g.value(sub), store.value(ids[0]));
    }

    #[test]
    fn division_gradients() {
        // L = sum(a/b): da = 1/b, db = -a/b^2.
        let (store, ids) = store_with(&[
            ("a", Tensor::from_vec(vec![2.0, 6.0], &[2])),
            ("b", Tensor::from_vec(vec![1.0, 3.0], &[2])),
        ]);
        let mut g = Graph::new(&store);
        let a = g.param(ids[0]);
        let b = g.param(ids[1]);
        let q = g.div(a, b);
        let loss = g.sum_all(q);
        let grads = g.backward(loss);
        assert!(grads
            .get(ids[0])
            .unwrap()
            .allclose(&Tensor::from_vec(vec![1.0, 1.0 / 3.0], &[2]), 1e-6));
        assert!(grads
            .get(ids[1])
            .unwrap()
            .allclose(&Tensor::from_vec(vec![-2.0, -6.0 / 9.0], &[2]), 1e-6));
    }

    #[test]
    fn unused_param_has_no_gradient() {
        let (store, ids) =
            store_with(&[("used", Tensor::ones(&[2])), ("unused", Tensor::ones(&[2]))]);
        let mut g = Graph::new(&store);
        let w = g.param(ids[0]);
        let loss = g.sum_all(w);
        let grads = g.backward(loss);
        assert!(grads.get(ids[0]).is_some());
        assert!(grads.get(ids[1]).is_none());
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let (store, ids) = store_with(&[("w", Tensor::ones(&[3]))]);
        let mut g = Graph::new(&store);
        let w = g.param(ids[0]);
        g.backward(w);
    }

    /// A kept convolution is one node on the tape, holding only the kept
    /// columns: no whole-row value, bias add or subsample beside it.
    #[test]
    fn a_kept_conv_records_one_node_of_the_kept_columns() {
        use crate::exec::{Exec, Tape};
        let mut rng = Rng::seed_from(1);
        let (store, ids) = store_with(&[
            ("v", Tensor::rand_normal(&[5, 3, 3], 0.0, 1.0, &mut rng)),
            ("g", Tensor::ones(&[5, 1])),
            ("b", Tensor::rand_normal(&[5, 1], 0.0, 1.0, &mut rng)),
        ]);
        for (time, keep) in [(30, 1), (30, 2), (7, 3), (8, 8)] {
            for gain in [None, Some(ids[1])] {
                let mut g = Graph::new(&store);
                let x = g.input(Tensor::rand_normal(&[2, 3, time], 0.0, 1.0, &mut rng));
                let before = g.len();
                let y = Tape::eval(&mut g).conv(&x, ids[0], gain, ids[2], 2, keep);
                let recorded = &g.nodes[before..];
                let convs = recorded.iter().filter(|n| matches!(n.op, Op::Conv { .. }));
                assert_eq!(convs.count(), 1, "t{time} keep{keep}");
                assert!(
                    !recorded
                        .iter()
                        .any(|n| matches!(n.op, Op::Add(..) | Op::SubsampleTime(..))),
                    "t{time} keep{keep}: a bias add or subsample was recorded"
                );
                assert!(matches!(g.nodes[y.0].op, Op::Conv { keep: k, .. } if k == keep));
                assert_eq!(g.value(y).shape(), &[2, 5, time.div_ceil(keep)]);
            }
        }
    }

    /// Spatial dropout is one node scaling whole `(item, channel)` rows:
    /// its mask holds one factor per row.
    #[test]
    fn spatial_dropout_records_one_row_scaled_node() {
        use crate::exec::{Exec, Tape};
        let store = ParamStore::new();
        let mut rng = Rng::seed_from(2);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::ones(&[3, 4, 6]));
        let before = g.len();
        let y = Tape::new(&mut g, true, &mut rng).dropout_spatial(x, 0.5);
        assert_eq!(g.len() - before, 1);
        assert_eq!(g.value(y).shape(), &[3, 4, 6]);
        match &g.nodes[y.0].op {
            Op::MulMask(a, mask) => {
                assert_eq!(*a, x);
                assert_eq!(mask.shape(), &[3, 4, 1]);
            }
            _ => panic!("spatial dropout is not a mask node"),
        }
    }

    /// Finite-difference validation of a realistic composite expression that
    /// exercises matmul, conv, softmax, attention-style mul and reductions.
    #[test]
    fn finite_difference_composite() {
        let mut rng = Rng::seed_from(21);
        let w0 = Tensor::rand_normal(&[2, 2, 3], 0.0, 0.5, &mut rng);
        let w1 = Tensor::rand_normal(&[2, 4], 0.0, 0.5, &mut rng);
        let (store, ids) = store_with(&[("conv_w", w0.clone()), ("fc_w", w1.clone())]);
        let x_data = Tensor::rand_normal(&[3, 2, 5], 0.0, 1.0, &mut rng);
        let target = Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng);

        let eval = |store: &ParamStore| -> (f32, Option<Gradients>) {
            let mut g = Graph::new(store);
            let x = g.input(x_data.clone());
            let cw = g.param(ids[0]);
            let zero_bias = g.input(Tensor::zeros(&[2, 1]));
            let conv = g.conv(x, cw, zero_bias, 2, 1);
            let act = g.relu(conv);
            let last = g.select_time(act, 4);
            let fw = g.param(ids[1]);
            let logits = g.matmul(last, fw);
            let attn = g.softmax_rows(logits);
            let gated = g.mul(attn, logits);
            let tgt = g.input(target.clone());
            let diff = g.sub(gated, tgt);
            let sq = g.square(diff);
            let loss = g.mean_all(sq);
            let lv = g.value(loss).item();
            (lv, Some(g.backward(loss)))
        };

        let (_, grads) = eval(&store);
        let grads = grads.unwrap();
        let eps = 1e-2f32;
        for (pid, base) in [(ids[0], &w0), (ids[1], &w1)] {
            let analytic = grads.get(pid).unwrap();
            for idx in [0usize, base.len() / 2, base.len() - 1] {
                let mut s_plus = store.clone();
                s_plus.value_mut(pid).as_mut_slice()[idx] += eps;
                let mut s_minus = store.clone();
                s_minus.value_mut(pid).as_mut_slice()[idx] -= eps;
                let (lp, _) = eval(&s_plus);
                let (lm, _) = eval(&s_minus);
                let fd = (lp - lm) / (2.0 * eps);
                let an = analytic.as_slice()[idx];
                assert!(
                    (an - fd).abs() < 2e-2 + 0.05 * fd.abs(),
                    "param {pid:?} idx {idx}: analytic {an} vs fd {fd}"
                );
            }
        }
    }
}
