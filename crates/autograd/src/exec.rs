//! The seam every layer and network is written over.
//!
//! A forward pass is one body, generic over [`Exec`]; the two backends are
//! where training and serving genuinely differ:
//!
//! * [`Tape`] records every primitive on a [`Graph`] so `Graph::backward`
//!   can differentiate it, and owns the dropout decision (the RNG is
//!   present exactly when the pass is a training pass).
//! * [`Arena`](crate::infer::Arena) evaluates the same primitives in place
//!   in pooled buffers, with no tape and no per-op allocation.
//!
//! A primitive exists where the two cannot share code: wherever a
//! parameter enters (`matmul`, `add_bias`, `conv` — a `Param` leaf on the
//! tape, the store's slice in the arena), wherever a value is produced (a
//! new node against an owned buffer that is updated in place or handed
//! back by [`Exec::release`]), and dropout. Everything above that line —
//! blocks, backbones, attention, recurrent cells, whole models — is plain
//! generic code, so "taped == tape-free" is checked once per primitive
//! (`tests/exec_parity.rs`) and holds by construction for every model.
//!
//! Ownership follows the arena: an op that can run in place takes its
//! first operand by value and returns it; operands that are only read are
//! borrowed. On the tape `V` is a `Copy` node handle and `release`/`dup`
//! cost nothing.

use tensor::{Rng, Tensor};

use crate::graph::{Graph, Var};
use crate::params::ParamId;

/// The primitives a forward pass is built from. See the module docs.
pub trait Exec {
    /// A value of the pass: a tape node, or an owned pooled buffer.
    type V;

    /// Shape of a value.
    fn shape<'v>(&'v self, v: &'v Self::V) -> &'v [usize];

    /// A data leaf of `shape`: `fill` writes it into a zeroed buffer. How a
    /// model stages its window (channel-major for convolutions, one leaf
    /// per step for recurrent cells) and its zero initial states.
    fn input(&mut self, shape: &[usize], fill: impl FnOnce(&mut [f32])) -> Self::V;

    /// `[rows, k] · W` with `W: [k, n]` a parameter.
    fn matmul(&mut self, x: &Self::V, w: ParamId) -> Self::V;

    /// `[rows, n] + b` with `b: [n]` a parameter.
    fn add_bias(&mut self, x: Self::V, b: ParamId) -> Self::V;

    /// Causal convolution of `[batch, in_ch, time]` at `dilation` with the
    /// weight `v: [out_ch, in_ch, k]` — reparameterised as
    /// `gain · v / ‖v‖` per output channel when `gain` is given — plus the
    /// `[out_ch, 1]` channel `bias`, on the columns its consumer reads:
    /// every `keep`-th step counted back from the last
    /// ([`subsample_time`](Self::subsample_time)'s rule; `keep == 1` is
    /// every step). Both backends compute only the kept columns: one
    /// [`Graph::conv`] node on the tape, whose backward runs on them too.
    #[allow(clippy::too_many_arguments)]
    fn conv(
        &mut self,
        x: &Self::V,
        v: ParamId,
        gain: Option<ParamId>,
        bias: ParamId,
        dilation: usize,
        keep: usize,
    ) -> Self::V;

    fn relu(&mut self, x: Self::V) -> Self::V;
    fn tanh(&mut self, x: Self::V) -> Self::V;
    fn sigmoid(&mut self, x: Self::V) -> Self::V;
    /// Row-wise softmax of a rank-2 value.
    fn softmax_rows(&mut self, x: Self::V) -> Self::V;
    fn scale(&mut self, x: Self::V, c: f32) -> Self::V;

    /// `a + b`, `a − b`, `a ⊙ b`: equal shapes, or `b: [rows, 1]` broadcast
    /// over the columns of `a: [rows, cols]`.
    fn add(&mut self, a: Self::V, b: &Self::V) -> Self::V;
    fn sub(&mut self, a: Self::V, b: &Self::V) -> Self::V;
    fn mul(&mut self, a: Self::V, b: &Self::V) -> Self::V;
    /// `relu(res + h)`, the residual join of a TCN block.
    fn add_relu(&mut self, res: &Self::V, h: Self::V) -> Self::V;

    /// Step `t` of `[batch, ch, time]` as `[batch, ch]`.
    fn select_time(&mut self, x: &Self::V, t: usize) -> Self::V;
    /// Every `step`-th step of `[batch, ch, time]` counted back from the
    /// last (see [`crate::infer::subsample_time_into`]).
    fn subsample_time(&mut self, x: &Self::V, step: usize) -> Self::V;
    /// Columns `[from, to)` of a rank-2 value.
    fn slice_cols(&mut self, x: &Self::V, from: usize, to: usize) -> Self::V;
    /// Rank-2 values with equal row counts, side by side.
    fn concat_cols(&mut self, parts: &[Self::V]) -> Self::V;

    /// Inverted dropout at rate `p`; the identity outside training.
    fn dropout(&mut self, x: Self::V, p: f32) -> Self::V;
    /// Dropout of whole channels of `[batch, ch, time]`: one draw per
    /// `(batch, channel)`, shared across time.
    fn dropout_spatial(&mut self, x: Self::V, p: f32) -> Self::V;

    /// A second handle to `x` for an op that consumes its operand while
    /// `x` is still needed.
    fn dup(&mut self, x: &Self::V) -> Self::V;
    /// Hand back a value nothing reads any more.
    fn release(&mut self, v: Self::V);

    /// Put `next` in `slot` and release what it held.
    fn replace(&mut self, slot: &mut Self::V, next: Self::V) {
        let old = std::mem::replace(slot, next);
        self.release(old);
    }
}

/// The recording backend: every primitive becomes the node sequence the
/// gradient is defined on. Dropout is active iff the tape holds an RNG.
pub struct Tape<'a, 's> {
    g: &'a mut Graph<'s>,
    rng: Option<&'a mut Rng>,
}

impl<'a, 's> Tape<'a, 's> {
    /// A pass on `g`; `rng` is drawn from only when `training`.
    pub fn new(g: &'a mut Graph<'s>, training: bool, rng: &'a mut Rng) -> Self {
        Self {
            g,
            rng: training.then_some(rng),
        }
    }

    /// An evaluation-mode pass (dropout off).
    pub fn eval(g: &'a mut Graph<'s>) -> Self {
        Self { g, rng: None }
    }
}

/// Inverted-dropout mask: `1/(1−p)` with probability `1−p`, else `0`, so
/// inference needs no rescaling.
fn sample_mask(rng: &mut Rng, p: f32, shape: &[usize]) -> Tensor {
    let keep = 1.0 - p;
    let scale = 1.0 / keep;
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|_| if rng.chance(keep as f64) { scale } else { 0.0 })
        .collect();
    Tensor::from_vec(data, shape)
}

impl Exec for Tape<'_, '_> {
    type V = Var;

    fn shape<'v>(&'v self, v: &'v Var) -> &'v [usize] {
        self.g.value(*v).shape()
    }

    fn input(&mut self, shape: &[usize], fill: impl FnOnce(&mut [f32])) -> Var {
        let mut data = vec![0.0f32; shape.iter().product()];
        fill(&mut data);
        self.g.input(Tensor::from_vec(data, shape))
    }

    fn matmul(&mut self, x: &Var, w: ParamId) -> Var {
        let w = self.g.param(w);
        self.g.matmul(*x, w)
    }

    fn add_bias(&mut self, x: Var, b: ParamId) -> Var {
        let b = self.g.param(b);
        self.g.add(x, b)
    }

    fn conv(
        &mut self,
        x: &Var,
        v: ParamId,
        gain: Option<ParamId>,
        bias: ParamId,
        dilation: usize,
        keep: usize,
    ) -> Var {
        let g = &mut *self.g;
        let v = g.param(v);
        let w = match gain {
            // Salimans & Kingma weight normalisation, on the tape so the
            // gradient reaches both the direction `v` and the gain.
            Some(gain) => {
                let s = g.value(v).shape();
                let shape = [s[0], s[1], s[2]];
                let flat = g.reshape(v, &[shape[0], shape[1] * shape[2]]);
                let sq = g.square(flat);
                let ssum = g.sum_axis_keepdim(sq, 1);
                let norm_raw = g.sqrt(ssum);
                let norm = g.add_scalar(norm_raw, 1e-6);
                let dir = g.div(flat, norm);
                let gain = g.param(gain);
                let scaled = g.mul(dir, gain);
                g.reshape(scaled, &shape)
            }
            None => v,
        };
        let b = g.param(bias);
        g.conv(*x, w, b, dilation, keep)
    }

    fn relu(&mut self, x: Var) -> Var {
        self.g.relu(x)
    }

    fn tanh(&mut self, x: Var) -> Var {
        self.g.tanh(x)
    }

    fn sigmoid(&mut self, x: Var) -> Var {
        self.g.sigmoid(x)
    }

    fn softmax_rows(&mut self, x: Var) -> Var {
        self.g.softmax_rows(x)
    }

    fn scale(&mut self, x: Var, c: f32) -> Var {
        self.g.scale(x, c)
    }

    fn add(&mut self, a: Var, b: &Var) -> Var {
        self.g.add(a, *b)
    }

    fn sub(&mut self, a: Var, b: &Var) -> Var {
        self.g.sub(a, *b)
    }

    fn mul(&mut self, a: Var, b: &Var) -> Var {
        self.g.mul(a, *b)
    }

    fn add_relu(&mut self, res: &Var, h: Var) -> Var {
        let sum = self.g.add(*res, h);
        self.g.relu(sum)
    }

    fn select_time(&mut self, x: &Var, t: usize) -> Var {
        self.g.select_time(*x, t)
    }

    fn subsample_time(&mut self, x: &Var, step: usize) -> Var {
        self.g.subsample_time(*x, step)
    }

    fn slice_cols(&mut self, x: &Var, from: usize, to: usize) -> Var {
        self.g.slice_cols(*x, from, to)
    }

    fn concat_cols(&mut self, parts: &[Var]) -> Var {
        self.g.concat_cols(parts)
    }

    fn dropout(&mut self, x: Var, p: f32) -> Var {
        let Some(rng) = self.rng.as_deref_mut().filter(|_| p != 0.0) else {
            return x;
        };
        let mask = sample_mask(rng, p, self.g.value(x).shape());
        self.g.mul_mask(x, mask)
    }

    fn dropout_spatial(&mut self, x: Var, p: f32) -> Var {
        let Some(rng) = self.rng.as_deref_mut().filter(|_| p != 0.0) else {
            return x;
        };
        let shape = self.g.value(x).shape();
        assert_eq!(shape.len(), 3, "spatial dropout expects [batch, ch, time]");
        // One factor per `(item, channel)` row: the node scales whole rows.
        let mask = sample_mask(rng, p, &[shape[0], shape[1], 1]);
        self.g.mul_mask(x, mask)
    }

    fn dup(&mut self, x: &Var) -> Var {
        *x
    }

    fn release(&mut self, _v: Var) {}
}
