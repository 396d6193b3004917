//! Property-based finite-difference gradient checks: for randomly sampled
//! parameters, the tape's analytic gradient must match a central-difference
//! estimate on every tested operation.

use autograd::{Graph, ParamStore, Var};
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
    #![proptest_config(ProptestConfig::with_cases(24))]

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
    fn grad_conv1d(seed in 0u64..10_000) {
        let w = weight(seed, &[2, 2, 3]);
        check_op(&w, &|g, w| {
            let mut rng = Rng::seed_from(99);
            let x = g.input(Tensor::rand_uniform(&[2, 2, 7], -1.0, 1.0, &mut rng));
            let y = g.conv1d(x, w, 2);
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
