//! Property-based finite-difference gradient checks: for randomly sampled
//! parameters, the tape's analytic gradient must match a central-difference
//! estimate on every tested operation.
//!
//! Two nodes also have a bitwise oracle: the node sequences they replaced,
//! rebuilt here. The convolution node against `conv1d_forward`, a broadcast
//! bias add and `subsample_time` with the gradient kernels run on the full
//! row; the spatial-dropout node against its mask broadcast over time. The
//! Miri CI job interprets these with fewer cases.

use autograd::{
    conv1d_backward_input, conv1d_backward_weight, conv1d_forward, Exec, Graph, ParamStore, Tape,
    Var,
};
use proptest::prelude::*;
use tensor::{Rng, Tensor};

/// Evaluate `build` as a scalar loss and return (loss, dL/dw) for the single
/// registered parameter.
fn loss_and_grad(w: &Tensor, build: &dyn Fn(&mut Graph, Var) -> Var) -> (f32, Tensor) {
    let mut store = ParamStore::new();
    let wid = store.register("w", w.clone());
    let mut g = Graph::new(&store);
    let wv = g.param(wid);
    let loss = build(&mut g, wv);
    let lv = g.value(loss).item();
    let grads = g.backward(loss);
    (
        lv,
        grads
            .get(wid)
            .cloned()
            .unwrap_or_else(|| Tensor::zeros(w.shape())),
    )
}

/// Central-difference gradient check at a handful of coordinates.
fn check_op(w: &Tensor, build: &dyn Fn(&mut Graph, Var) -> Var) -> Result<(), TestCaseError> {
    let (_, analytic) = loss_and_grad(w, build);
    let eps = 1e-2f32;
    let idxs = [0usize, w.len() / 2, w.len() - 1];
    for &i in &idxs {
        let mut wp = w.clone();
        wp.as_mut_slice()[i] += eps;
        let mut wm = w.clone();
        wm.as_mut_slice()[i] -= eps;
        let (lp, _) = loss_and_grad(&wp, build);
        let (lm, _) = loss_and_grad(&wm, build);
        let fd = (lp - lm) / (2.0 * eps);
        let an = analytic.as_slice()[i];
        prop_assert!(
            (an - fd).abs() <= 3e-2 + 0.05 * fd.abs().max(an.abs()),
            "coord {i}: analytic {an} vs finite-diff {fd}"
        );
    }
    Ok(())
}

fn weight(seed: u64, shape: &[usize]) -> Tensor {
    let mut rng = Rng::seed_from(seed);
    // Keep away from relu/abs kinks and div-by-tiny.
    Tensor::rand_uniform(shape, 0.3, 1.7, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 24 }))]

    #[test]
    fn grad_tanh_chain(seed in 0u64..10_000) {
        let w = weight(seed, &[6]);
        check_op(&w, &|g, w| {
            let t = g.tanh(w);
            let s = g.square(t);
            g.sum_all(s)
        })?;
    }

    #[test]
    fn grad_sigmoid_exp(seed in 0u64..10_000) {
        let w = weight(seed, &[5]);
        check_op(&w, &|g, w| {
            let s = g.sigmoid(w);
            let e = g.exp(s);
            g.mean_all(e)
        })?;
    }

    #[test]
    fn grad_matmul_quadratic(seed in 0u64..10_000) {
        let w = weight(seed, &[3, 4]);
        check_op(&w, &|g, w| {
            let x = g.input(Tensor::from_vec((1..=6).map(|v| v as f32 * 0.3).collect(), &[2, 3]));
            let y = g.matmul(x, w);
            let sq = g.square(y);
            g.sum_all(sq)
        })?;
    }

    #[test]
    fn grad_division(seed in 0u64..10_000) {
        let w = weight(seed, &[4]);
        check_op(&w, &|g, w| {
            let c = g.input(Tensor::from_vec(vec![2.0, 3.0, 4.0, 5.0], &[4]));
            let q = g.div(c, w);
            g.sum_all(q)
        })?;
    }

    #[test]
    fn grad_softmax_weighted(seed in 0u64..10_000) {
        let w = weight(seed, &[2, 5]);
        check_op(&w, &|g, w| {
            let s = g.softmax_rows(w);
            let v = g.input(Tensor::from_vec((1..=10).map(|v| v as f32).collect(), &[2, 5]));
            let gated = g.mul(s, v);
            g.sum_all(gated)
        })?;
    }

    #[test]
    fn grad_conv(seed in 0u64..10_000) {
        // The weight, with a zero bias on every column.
        let w = weight(seed, &[2, 2, 3]);
        check_op(&w, &|g, w| {
            let mut rng = Rng::seed_from(99);
            let x = g.input(Tensor::rand_uniform(&[2, 2, 7], -1.0, 1.0, &mut rng));
            let b = g.input(Tensor::zeros(&[2, 1]));
            let y = g.conv(x, w, b, 2, 1);
            let sq = g.square(y);
            g.mean_all(sq)
        })?;
        // The input and the weight on every third column, with a bias.
        let x = weight(seed, &[2, 3, 8]);
        check_op(&x, &|g, x| {
            let mut rng = Rng::seed_from(98);
            let w = g.input(Tensor::rand_uniform(&[4, 3, 3], -1.0, 1.0, &mut rng));
            let b = g.input(Tensor::rand_uniform(&[4, 1], -1.0, 1.0, &mut rng));
            let y = g.conv(x, w, b, 1, 3);
            let sq = g.square(y);
            g.mean_all(sq)
        })?;
        let w = weight(seed, &[4, 3, 3]);
        check_op(&w, &|g, w| {
            let mut rng = Rng::seed_from(97);
            let x = g.input(Tensor::rand_uniform(&[2, 3, 8], -1.0, 1.0, &mut rng));
            let b = g.input(Tensor::rand_uniform(&[4, 1], -1.0, 1.0, &mut rng));
            let y = g.conv(x, w, b, 1, 3);
            let sq = g.square(y);
            g.mean_all(sq)
        })?;
    }

    #[test]
    fn grad_weight_norm_composition(seed in 0u64..10_000) {
        // The exact composition CausalConv1d builds for weight norm.
        let w = weight(seed, &[3, 4]);
        check_op(&w, &|g, w| {
            let sq = g.square(w);
            let ssum = g.sum_axis_keepdim(sq, 1);
            let norm0 = g.sqrt(ssum);
            let norm = g.add_scalar(norm0, 1e-6);
            let dir = g.div(w, norm);
            let s = g.square(dir);
            g.sum_all(s)
        })?;
    }

    #[test]
    fn grad_slice_concat(seed in 0u64..10_000) {
        let w = weight(seed, &[3, 6]);
        check_op(&w, &|g, w| {
            let a = g.slice_cols(w, 0, 3);
            let b = g.slice_cols(w, 3, 6);
            let prod = g.mul(a, b);
            let joined = g.concat_cols(&[prod, a]);
            let sq = g.square(joined);
            g.sum_all(sq)
        })?;
    }

    #[test]
    fn grad_select_time(seed in 0u64..10_000) {
        let w = weight(seed, &[2, 3, 4]);
        check_op(&w, &|g, w| {
            let last = g.select_time(w, 3);
            let first = g.select_time(w, 0);
            let d = g.sub(last, first);
            let sq = g.square(d);
            g.mean_all(sq)
        })?;
    }

    #[test]
    fn grad_subsample_time(seed in 0u64..10_000) {
        // Five steps at stride 2 keep 0, 2, 4: check_op's first probe is a
        // kept step. Four steps keep 1, 3: the same probe is a dropped one,
        // whose gradient must be zero.
        let w = weight(seed, &[2, 3, 5]);
        check_op(&w, &|g, w| {
            let sub = g.subsample_time(w, 2);
            let sq = g.square(sub);
            g.mean_all(sq)
        })?;
        let w = weight(seed, &[2, 3, 4]);
        check_op(&w, &|g, w| {
            let sub = g.subsample_time(w, 2);
            let sq = g.square(sub);
            g.mean_all(sq)
        })?;
    }

    #[test]
    fn grad_huber(seed in 0u64..10_000) {
        let w = weight(seed, &[5]);
        check_op(&w, &|g, w| {
            let t = g.input(Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0], &[5]));
            let d = g.sub(w, t);
            let h = g.huber_on_diff(d, 0.7);
            g.mean_all(h)
        })?;
    }

    #[test]
    fn grad_broadcast_bias(seed in 0u64..10_000) {
        let w = weight(seed, &[4]);
        check_op(&w, &|g, w| {
            let x = g.input(Tensor::from_vec((1..=12).map(|v| v as f32 * 0.1).collect(), &[3, 4]));
            let y = g.add(x, w);
            let sq = g.square(y);
            g.sum_all(sq)
        })?;
    }
}

/// Bitwise equality, any NaN matching any NaN (which payload survives
/// `NaN + NaN` is the instruction's operand order, not arithmetic).
fn assert_same_bits(node: &Tensor, oracle: &Tensor, what: &str) {
    assert_eq!(node.shape(), oracle.shape(), "{what}: shape");
    for (i, (a, b)) in node.as_slice().iter().zip(oracle.as_slice()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            "{what} idx {i}: node {a} ({:#x}) vs oracle {b} ({:#x})",
            a.to_bits(),
            b.to_bits()
        );
    }
}

/// What a convolution oracle case plants in otherwise finite, nonzero
/// weights and finite inputs.
#[derive(Debug, Clone, Copy)]
enum Planted {
    Nothing,
    /// An exact `0.0` and a `-0.0` among the weights: the tap-wise
    /// reference forward, the full-row backward.
    ZeroWeight,
    /// A NaN among the inputs: the full-row weight gradient.
    NanInput,
}

/// One convolution case: `Graph::conv`'s value and its gradients for the
/// input, the weight and the bias against the old node sequence's.
#[allow(clippy::too_many_arguments)]
fn check_conv_oracle(
    batch: usize,
    in_ch: usize,
    out_ch: usize,
    time: usize,
    k: usize,
    dilation: usize,
    keep: usize,
    planted: Planted,
    seed: u64,
) {
    let mut rng = Rng::seed_from(seed);
    let mut x = Tensor::rand_normal(&[batch, in_ch, time], 0.0, 1.0, &mut rng);
    let mut w = Tensor::rand_normal(&[out_ch, in_ch, k], 0.0, 0.5, &mut rng);
    for v in w.as_mut_slice() {
        if *v == 0.0 {
            *v = 0.25;
        }
    }
    let b = Tensor::rand_normal(&[out_ch, 1], 0.0, 1.0, &mut rng);
    match planted {
        Planted::Nothing => {}
        Planted::ZeroWeight => {
            let n = w.len();
            w.as_mut_slice()[rng.below(n)] = 0.0;
            w.as_mut_slice()[rng.below(n)] = -0.0;
        }
        Planted::NanInput => {
            let n = x.len();
            x.as_mut_slice()[rng.below(n)] = f32::NAN;
        }
    }
    let kept = time.div_ceil(keep);
    // What the loss reads of each kept column: `grad_out` of the node.
    let readout = Tensor::rand_normal(&[batch, out_ch, kept], 0.0, 1.0, &mut rng);
    let what =
        format!("b{batch} ic{in_ch} oc{out_ch} t{time} k{k} d{dilation} keep{keep} {planted:?}");

    let mut store = ParamStore::new();
    let ids = [("x", &x), ("w", &w), ("b", &b)].map(|(n, t)| store.register(n, t.clone()));
    let mut g = Graph::new(&store);
    let [xv, wv, bv] = ids.map(|id| g.param(id));
    let y = g.conv(xv, wv, bv, dilation, keep);
    let value = g.value(y).clone();
    let r = g.input(readout.clone());
    let read = g.mul(y, r);
    let loss = g.sum_all(read);
    let grads = g.backward(loss);
    let [gx, gw, gb] = ids.map(|id| {
        grads
            .get(id)
            .expect("every operand gets a gradient")
            .clone()
    });

    // The old sequence: the whole-row convolution as a leaf, the broadcast
    // bias, the kept columns; its gradient on the full row then goes
    // through the convolution's kernels.
    let mut old_store = ParamStore::new();
    let yid = old_store.register("y", conv1d_forward(&x, &w, dilation));
    let bid = old_store.register("b", b.clone());
    let mut og = Graph::new(&old_store);
    let (yv, obv) = (og.param(yid), og.param(bid));
    let biased = og.add(yv, obv);
    let kept_cols = match keep {
        1 => biased,
        _ => og.subsample_time(biased, keep),
    };
    let old_value = og.value(kept_cols).clone();
    let r = og.input(readout);
    let read = og.mul(kept_cols, r);
    let loss = og.sum_all(read);
    let old_grads = og.backward(loss);
    let full = old_grads.get(yid).expect("row gradient");

    assert_same_bits(&value, &old_value, &format!("value, {what}"));
    assert_same_bits(
        &gx,
        &conv1d_backward_input(full, &w, x.shape(), dilation),
        &format!("input grad, {what}"),
    );
    assert_same_bits(
        &gw,
        &conv1d_backward_weight(full, &x, k, dilation),
        &format!("weight grad, {what}"),
    );
    assert_same_bits(
        &gb,
        old_grads.get(bid).expect("bias gradient"),
        &format!("bias grad, {what}"),
    );
}

/// The edges the backbone and the serving shapes meet, each at every kept
/// stride: batch 1, a one-step row, taps that reach before the row, the
/// paper's 16 channels over a 30-step window.
#[test]
fn conv_node_is_the_old_sequence_bitwise_at_the_edges() {
    let mut seed = 0;
    for (batch, in_ch, out_ch, time, k, dilation) in [
        (1, 8, 16, 30, 3, 1),
        (1, 1, 1, 1, 3, 4),
        (2, 3, 5, 4, 3, 8),
        (3, 16, 16, 30, 3, 2),
        (1, 16, 16, 15, 1, 1),
        (2, 5, 18, 7, 2, 40),
    ] {
        for keep in [1, 2, 3, time] {
            for planted in [Planted::Nothing, Planted::ZeroWeight, Planted::NanInput] {
                seed += 1;
                // Every fourth case under Miri.
                if cfg!(miri) && seed % 4 != 0 {
                    continue;
                }
                check_conv_oracle(batch, in_ch, out_ch, time, k, dilation, keep, planted, seed);
            }
        }
    }
}

/// One spatial-dropout case: the row-scaled node against the old mask
/// broadcast over time and applied elementwise, same RNG draws.
fn check_spatial_dropout_oracle(batch: usize, ch: usize, time: usize, p: f32, seed: u64) {
    let mut rng = Rng::seed_from(seed);
    let x = Tensor::rand_normal(&[batch, ch, time], 0.0, 1.0, &mut rng);
    let readout = Tensor::rand_normal(&[batch, ch, time], 0.0, 1.0, &mut rng);
    let what = format!("b{batch} ch{ch} t{time} p{p}");

    let mut store = ParamStore::new();
    let xid = store.register("x", x.clone());
    let mut g = Graph::new(&store);
    let xv = g.param(xid);
    let mut draws = Rng::seed_from(seed ^ 0xD0);
    let y = Tape::new(&mut g, true, &mut draws).dropout_spatial(xv, p);
    let value = g.value(y).clone();
    let r = g.input(readout.clone());
    let read = g.mul(y, r);
    let loss = g.sum_all(read);
    let grads = g.backward(loss);

    // The old node: one draw per (item, channel), broadcast to every step.
    let mut draws = Rng::seed_from(seed ^ 0xD0);
    let keep = 1.0 - p;
    let factors: Vec<f32> = (0..batch * ch)
        .map(|_| {
            if draws.chance(keep as f64) {
                1.0 / keep
            } else {
                0.0
            }
        })
        .collect();
    let mask = Tensor::from_vec(factors, &[batch, ch, 1])
        .broadcast_to(&[batch, ch, time])
        .expect("mask broadcast");
    let mut og = Graph::new(&store);
    let oxv = og.param(xid);
    let oy = og.mul_mask(oxv, mask);
    let old_value = og.value(oy).clone();
    let r = og.input(readout);
    let read = og.mul(oy, r);
    let loss = og.sum_all(read);
    let old_grads = og.backward(loss);

    assert_same_bits(&value, &old_value, &format!("value, {what}"));
    assert_same_bits(
        grads.get(xid).expect("input gradient"),
        old_grads.get(xid).expect("old input gradient"),
        &format!("input grad, {what}"),
    );
}

fn oracle_cases() -> ProptestConfig {
    ProptestConfig::with_cases(if cfg!(miri) { 3 } else { 64 })
}

proptest! {
    #![proptest_config(oracle_cases())]

    /// Arbitrary shapes, widths and dilations (taps past a short row
    /// included), every kept stride from all columns to the last alone.
    #[test]
    fn conv_node_is_the_old_sequence_bitwise(
        dims in (1usize..4, 1usize..18, 1usize..18, 1usize..40),
        (k, dilation) in (1usize..4, 1usize..10),
        keep in 0usize..4,
        planted in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let (batch, in_ch, out_ch, time) = dims;
        let keep = [1, 2, 3, time][keep];
        let planted = [Planted::Nothing, Planted::ZeroWeight, Planted::NanInput][planted];
        check_conv_oracle(batch, in_ch, out_ch, time, k, dilation, keep, planted, seed);
    }

    #[test]
    fn spatial_dropout_node_is_the_broadcast_mask_bitwise(
        dims in (1usize..5, 1usize..18, 1usize..31),
        p in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let (batch, ch, time) = dims;
        let p = [0.1f32, 0.3, 0.5][p];
        check_spatial_dropout_oracle(batch, ch, time, p, seed);
    }
}
