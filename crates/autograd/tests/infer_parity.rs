//! Bitwise parity of the forward conv kernel against an independent
//! tap-wise reference, plus the in-place inference kernels against their
//! taped `tensor` counterparts.
//!
//! This is one of the suites the Miri CI job interprets: under Miri the
//! kept-column kernel runs its portable body (the AVX-compiled wrapper
//! around the same safe body is compiled out), so Miri checks it while
//! these assertions pin its numerics to the reference bit for bit. Shapes
//! are kept small enough for an interpreter but large enough to cover the
//! remainder (a part-filled out-channel lane block, a row that is not a
//! whole number of column blocks).

use autograd::conv1d_forward;
use autograd::infer::{
    add_channel_bias, add_row_bias, relu_in_place, sigmoid_in_place, softmax_rows_in_place,
    subsample_time_into, subsampled_len, tanh_in_place,
};
use tensor::{Rng, Tensor};

/// Independent reference: accumulate tap-by-tap in `(out-channel,
/// in-channel, tap)` order, skipping exact-zero weights and the causal
/// warm-up region — a reimplementation of the slow path, NOT a call to it.
fn conv_reference(x: &Tensor, w: &Tensor, dilation: usize) -> Vec<f32> {
    let (batch, in_ch, time) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (out_ch, _, k) = (w.shape()[0], w.shape()[1], w.shape()[2]);
    let dx = x.as_slice();
    let dw = w.as_slice();
    let mut out = vec![0.0f32; batch * out_ch * time];
    for b in 0..batch {
        for oc in 0..out_ch {
            let y = &mut out[(b * out_ch + oc) * time..(b * out_ch + oc + 1) * time];
            for ic in 0..in_ch {
                let xr = &dx[(b * in_ch + ic) * time..(b * in_ch + ic + 1) * time];
                let wr = &dw[(oc * in_ch + ic) * k..(oc * in_ch + ic + 1) * k];
                for (kk, &wv) in wr.iter().enumerate() {
                    if wv == 0.0 {
                        continue;
                    }
                    let shift = (k - 1 - kk) * dilation;
                    for t in shift..time {
                        y[t] += wv * xr[t - shift];
                    }
                }
            }
        }
    }
    out
}

/// Weights with no exact zeros, so the kept-column kernel takes them.
fn nonzero_weights(shape: &[usize], rng: &mut Rng) -> Tensor {
    let mut w = Tensor::rand_normal(shape, 0.0, 0.5, rng);
    for v in w.as_mut_slice() {
        if *v == 0.0 {
            *v = 0.25;
        }
    }
    w
}

#[test]
fn forward_conv_matches_reference_bitwise_across_dilations() {
    let mut rng = Rng::seed_from(33);
    // 6 output channels part-fill a lane block; time=19 leaves a last
    // column block that overlaps the one before it.
    let (ic, oc, time) = (4, 6, 19);
    for &d in &[1usize, 2, 4] {
        let x = Tensor::rand_normal(&[2, ic, time], 0.0, 1.0, &mut rng);
        let w = nonzero_weights(&[oc, ic, 3], &mut rng);
        let fast = conv1d_forward(&x, &w, d);
        let reference = conv_reference(&x, &w, d);
        for (i, (a, b)) in fast.as_slice().iter().zip(&reference).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "d={d} idx={i}: {a} vs {b}");
        }
    }
}

#[test]
fn zero_weights_route_to_the_reference_path_and_agree() {
    let mut rng = Rng::seed_from(34);
    let x = Tensor::rand_normal(&[1, 3, 12], 0.0, 1.0, &mut rng);
    let mut w = Tensor::rand_normal(&[2, 3, 3], 0.0, 0.5, &mut rng);
    // An exact zero disables the fused path; results must still agree.
    w.as_mut_slice()[4] = 0.0;
    let out = conv1d_forward(&x, &w, 2);
    let reference = conv_reference(&x, &w, 2);
    for (a, b) in out.as_slice().iter().zip(&reference) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// Every `step`-th step counted back from the last, through the arena
/// kernel the tape-free backbone uses.
fn subsample(x: &Tensor, step: usize) -> Tensor {
    let (b, c, time) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let kept = subsampled_len(time, step);
    let mut out = vec![0.0f32; b * c * kept];
    subsample_time_into(x.as_slice(), &mut out, b * c, time, step);
    Tensor::from_vec(out, &[b, c, kept])
}

#[test]
fn subsample_op_matches_between_tape_and_arena_bitwise() {
    let mut rng = Rng::seed_from(37);
    let store = autograd::ParamStore::new();
    for (time, step) in [(1usize, 2usize), (2, 2), (7, 2), (8, 2), (9, 4), (5, 8)] {
        let x = Tensor::rand_normal(&[2, 3, time], 0.0, 1.0, &mut rng);
        let mut g = autograd::Graph::new(&store);
        let xi = g.input(x.clone());
        let taped = g.subsample_time(xi, step);
        let arena = subsample(&x, step);
        assert_eq!(g.value(taped).shape(), arena.shape(), "t={time} s={step}");
        assert_eq!(g.value(taped).as_slice(), arena.as_slice());
        // The last step is always kept, and last.
        assert_eq!(
            arena.as_slice()[arena.shape()[2] - 1].to_bits(),
            x.as_slice()[time - 1].to_bits()
        );
    }
}

/// The identity the last-step backbone rests on: on the residue class of
/// the final step, a dilation-`d` causal convolution is the dilation-1
/// convolution of the subsampled row — whichever kernel path either side
/// takes (an exact zero falls back to the reference).
#[test]
fn dilated_conv_on_the_last_steps_residue_class_is_a_dilation_1_conv_bitwise() {
    let mut rng = Rng::seed_from(38);
    let (ic, oc) = (4, 6);
    for &d in &[2usize, 4, 8] {
        for &time in &[1usize, 3, 8, 13, 19] {
            for zero_weight in [false, true] {
                let x = Tensor::rand_normal(&[2, ic, time], 0.0, 1.0, &mut rng);
                let mut w = nonzero_weights(&[oc, ic, 3], &mut rng);
                if zero_weight {
                    w.as_mut_slice()[7] = 0.0;
                }
                let full = subsample(&conv1d_forward(&x, &w, d), d);
                let compact = conv1d_forward(&subsample(&x, d), &w, 1);
                assert_eq!(full.shape(), compact.shape());
                for (i, (a, b)) in full.as_slice().iter().zip(compact.as_slice()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "d={d} t={time} zero={zero_weight} idx={i}: {a} vs {b}"
                    );
                }
            }
        }
    }
}

#[test]
fn in_place_activations_match_taped_kernels_bitwise() {
    let mut rng = Rng::seed_from(35);
    let x = Tensor::rand_normal(&[4, 9], 0.0, 2.0, &mut rng);

    let mut buf = x.as_slice().to_vec();
    relu_in_place(&mut buf);
    assert_eq!(buf, tensor::ops::relu(&x).as_slice());

    let mut buf = x.as_slice().to_vec();
    tanh_in_place(&mut buf);
    assert_eq!(buf, tensor::ops::tanh(&x).as_slice());

    let mut buf = x.as_slice().to_vec();
    sigmoid_in_place(&mut buf);
    assert_eq!(buf, tensor::ops::sigmoid(&x).as_slice());

    let mut buf = x.as_slice().to_vec();
    softmax_rows_in_place(&mut buf, 4, 9);
    assert_eq!(buf, tensor::reduce::softmax_rows(&x).as_slice());
}

#[test]
fn bias_broadcasts_match_taped_adds_bitwise() {
    let mut rng = Rng::seed_from(36);
    let (rows, cols) = (3, 5);
    let out = Tensor::rand_normal(&[rows, cols], 0.0, 1.0, &mut rng);
    let bias = Tensor::rand_normal(&[cols], 0.0, 1.0, &mut rng);
    let mut buf = out.as_slice().to_vec();
    add_row_bias(&mut buf, bias.as_slice(), rows, cols);
    assert_eq!(buf, tensor::ops::add(&out, &bias).as_slice());

    let (batch, ch, time) = (2, 3, 7);
    let out = Tensor::rand_normal(&[batch, ch, time], 0.0, 1.0, &mut rng);
    let bias = Tensor::rand_normal(&[ch, 1], 0.0, 1.0, &mut rng);
    let mut buf = out.as_slice().to_vec();
    add_channel_bias(&mut buf, bias.as_slice(), batch, ch, time);
    assert_eq!(buf, tensor::ops::add(&out, &bias).as_slice());
}

// ---------------------------------------------------------------------------
// GEMM rerouting + stacked-batch parity.
//
// After routing every matmul through the GEMM microkernel (`tensor::gemm`),
// two invariants must keep holding bitwise:
//
//  1. the taped forward pass and the tape-free `infer` path agree (both call
//     the same kernel), and
//  2. a stacked batch equals the same rows forecast individually — which is
//     what keeps `forecast_many`'s one stacked call bitwise equal to each
//     entity's own `forecast`.
// ---------------------------------------------------------------------------

use autograd::infer::{predict, with_thread_context};
use autograd::layers::linear::Linear;
use autograd::{Exec, Graph, ParamStore, SequenceModel};

/// Two stacked linear layers with a tanh between — enough structure to push
/// several GEMM shapes (packed and direct paths) through both the taped and
/// the tape-free drivers.
struct TwoLayer {
    store: ParamStore,
    hidden: Linear,
    out: Linear,
    time: usize,
    features: usize,
}

impl TwoLayer {
    fn new(time: usize, features: usize, hidden: usize, horizon: usize, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(seed);
        let h = Linear::new(&mut store, "h", time * features, hidden, &mut rng);
        let out = Linear::new(&mut store, "out", hidden, horizon, &mut rng);
        Self {
            store,
            hidden: h,
            out,
            time,
            features,
        }
    }
}

impl SequenceModel for TwoLayer {
    fn run<E: Exec>(&self, ex: &mut E, x: &Tensor) -> E::V {
        let flat = [x.shape()[0], self.time * self.features];
        let xin = ex.input(&flat, |out| out.copy_from_slice(x.as_slice()));
        let h = self.hidden.forward(ex, &xin);
        ex.release(xin);
        let h = ex.tanh(h);
        let y = self.out.forward(ex, &h);
        ex.release(h);
        y
    }

    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn horizon(&self) -> usize {
        2
    }
}

/// Invariant 1: taped forward == tape-free infer, bit for bit, now that both
/// route through `tensor::gemm` (packed path at this batch size).
#[test]
fn taped_and_tape_free_agree_after_gemm_rerouting() {
    let model = TwoLayer::new(6, 3, 10, 2, 91);
    let mut rng = Rng::seed_from(17);
    let x = Tensor::rand_normal(&[5, 6, 3], 0.0, 1.0, &mut rng);

    let mut g = Graph::new(model.params());
    let mut frng = Rng::seed_from(0);
    let taped = model.forward(&mut g, &x, false, &mut frng);
    let taped = g.value(taped).clone();

    let tape_free = with_thread_context(|ctx| model.infer(ctx, &x));
    assert_eq!(taped.as_slice(), tape_free.as_slice());
    assert_eq!(taped.shape(), tape_free.shape());
}

/// Invariant 2: how `predict` chunks a stacked batch is invisible in the
/// bits — one chunk per row, ragged chunks, one chunk of all rows and a cap
/// past the row count all equal row-at-a-time inference exactly.
#[test]
fn chunked_predict_is_bitwise_row_at_a_time() {
    let model = TwoLayer::new(4, 2, 7, 2, 23);
    let rows = 13;
    let mut rng = Rng::seed_from(29);
    let x = Tensor::rand_normal(&[rows, 4, 2], 0.0, 1.0, &mut rng);

    // Reference: one row at a time.
    let mut seq = Vec::new();
    for i in 0..rows {
        let xi = Tensor::from_vec(x.as_slice()[i * 8..(i + 1) * 8].to_vec(), &[1, 4, 2]);
        let yi = with_thread_context(|ctx| model.infer(ctx, &xi));
        seq.extend_from_slice(yi.as_slice());
    }

    for cap in [1, 2, 5, rows, rows + 3] {
        let stacked = with_thread_context(|ctx| predict(&model, &x, cap, ctx));
        assert_eq!(stacked.shape(), &[rows, 2]);
        assert_eq!(
            stacked.as_slice(),
            seq.as_slice(),
            "batch cap {cap} diverged from row-at-a-time"
        );
    }
}
