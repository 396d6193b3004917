//! Bitwise parity of the two [`Exec`] backends, one primitive at a time.
//!
//! Every layer and model is a single body over `Exec`, so "the taped and
//! the tape-free forecast are the same bits" reduces to: each primitive
//! yields the same shape and the same bits on [`Tape`] and on [`Arena`].
//! This file is that check — random shapes (proptest) plus the edges the
//! serving path meets: `batch = 1`, `time = 1`, a dilation longer than the
//! row, exact-zero weights (which send the conv to the tap-wise reference).
//!
//! A convolution's arena pass reads weights the store prepared when they
//! were installed (the weight-norm fold, laid out for the kernel its scan
//! picks), so the last test writes weights through every `&mut` route the
//! store has and requires the next arena pass to be the tape's bits for
//! the new ones.
//!
//! It is also a suite the Miri CI job interprets: the arena `conv` runs
//! the kept-column kernel's portable body there (the AVX-compiled wrapper
//! is compiled out), and `subsample_time` runs strided row copies.

use autograd::layers::CausalConv1d;
use autograd::optim::{Adam, Optimizer};
use autograd::{Arena, Exec, Graph, InferenceContext, ParamId, ParamStore, Tape};
use proptest::prelude::*;
use tensor::{Rng, Tensor};

/// One primitive applied to staged inputs.
#[derive(Debug, Clone)]
enum Prim {
    Input,
    Matmul(ParamId),
    AddBias(ParamId),
    Conv {
        v: ParamId,
        gain: Option<ParamId>,
        bias: ParamId,
        dilation: usize,
        keep: usize,
    },
    Relu,
    Tanh,
    Sigmoid,
    SoftmaxRows,
    Scale(f32),
    Add,
    Sub,
    Mul,
    AddRelu,
    SelectTime(usize),
    SubsampleTime(usize),
    SliceCols(usize, usize),
    ConcatCols,
    Dropout(f32),
    DropoutSpatial(f32),
    Dup,
}

/// The single definition both backends run: stage the inputs, apply the
/// primitive, release whatever it only read.
fn apply<E: Exec>(prim: &Prim, ex: &mut E, inputs: &[Tensor]) -> E::V {
    let mut vs: Vec<E::V> = inputs
        .iter()
        .map(|t| ex.input(t.shape(), |out| out.copy_from_slice(t.as_slice())))
        .collect();
    if matches!(prim, Prim::ConcatCols) {
        let out = ex.concat_cols(&vs);
        vs.into_iter().for_each(|v| ex.release(v));
        return out;
    }
    let a = vs.remove(0);
    // In place in `a`.
    match *prim {
        Prim::Input => return a,
        Prim::AddBias(b) => return ex.add_bias(a, b),
        Prim::Relu => return ex.relu(a),
        Prim::Tanh => return ex.tanh(a),
        Prim::Sigmoid => return ex.sigmoid(a),
        Prim::SoftmaxRows => return ex.softmax_rows(a),
        Prim::Scale(c) => return ex.scale(a, c),
        Prim::Dropout(p) => return ex.dropout(a, p),
        Prim::DropoutSpatial(p) => return ex.dropout_spatial(a, p),
        _ => {}
    }
    // `a` (and a second input `b`) read, a fresh value out.
    let out = match *prim {
        Prim::Matmul(w) => ex.matmul(&a, w),
        Prim::Conv {
            v,
            gain,
            bias,
            dilation,
            keep,
        } => ex.conv(&a, v, gain, bias, dilation, keep),
        Prim::SelectTime(t) => ex.select_time(&a, t),
        Prim::SubsampleTime(step) => ex.subsample_time(&a, step),
        Prim::SliceCols(from, to) => ex.slice_cols(&a, from, to),
        Prim::Dup => ex.dup(&a),
        // `a` is the residual, `b` the branch it joins.
        Prim::AddRelu => {
            let b = vs.remove(0);
            ex.add_relu(&a, b)
        }
        Prim::Add | Prim::Sub | Prim::Mul => {
            let b = vs.remove(0);
            let a = ex.dup(&a);
            let out = match prim {
                Prim::Add => ex.add(a, &b),
                Prim::Sub => ex.sub(a, &b),
                _ => ex.mul(a, &b),
            };
            ex.release(b);
            out
        }
        _ => unreachable!("in-place primitives returned above"),
    };
    ex.release(a);
    out
}

/// Run `prim` on both backends and require equal shape and equal bits;
/// then again on the warmed arena, which must stop allocating: a buffer
/// that did not come back through `release` would be missed on every pass.
/// (The pool is first-fit, so it may take a pass or two to settle.)
fn check(store: &ParamStore, prim: &Prim, inputs: &[Tensor]) -> Tensor {
    let mut g = Graph::new(store);
    let taped = apply(prim, &mut Tape::eval(&mut g), inputs);
    let taped = g.value(taped).clone();

    let mut ctx = InferenceContext::new();
    let run = |ctx: &mut InferenceContext| {
        let mut arena = Arena::new(ctx, store);
        let out = apply(prim, &mut arena, inputs);
        assert_eq!(arena.shape(&out), taped.shape(), "{prim:?}: shape");
        arena.into_tensor(out)
    };
    let free = run(&mut ctx);
    for (i, (a, b)) in free.as_slice().iter().zip(taped.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{prim:?} on {:?}: element {i}: arena {a} vs tape {b}",
            inputs.iter().map(Tensor::shape).collect::<Vec<_>>()
        );
    }
    for _ in 0..3 {
        run(&mut ctx);
    }
    let warm = ctx.fresh_allocs();
    run(&mut ctx);
    assert_eq!(
        ctx.fresh_allocs(),
        warm,
        "{prim:?}: a buffer was not released"
    );
    taped
}

fn normal(shape: &[usize], rng: &mut Rng) -> Tensor {
    Tensor::rand_normal(shape, 0.0, 1.5, rng)
}

fn cases() -> ProptestConfig {
    ProptestConfig::with_cases(if cfg!(miri) { 3 } else { 48 })
}

/// What a conv case plants in its direction tensor. Either sends the arena
/// off its vector kernels onto the reference's tap-wise path (and, for a
/// kept convolution, through `subsample_time`).
#[derive(Debug, Clone, Copy)]
enum Planted {
    Nothing,
    /// An exact zero and a `-0.0`.
    Zero,
    Nan,
}

fn conv_params(
    store: &mut ParamStore,
    (in_ch, out_ch, kernel): (usize, usize, usize),
    weight_norm: bool,
    planted: Planted,
    rng: &mut Rng,
) -> (ParamId, Option<ParamId>, ParamId) {
    let mut v = Tensor::rand_normal(&[out_ch, in_ch, kernel], 0.0, 0.5, rng);
    let n = v.len();
    match planted {
        Planted::Nothing => {}
        Planted::Zero => {
            v.as_mut_slice()[n / 2] = 0.0;
            v.as_mut_slice()[n - 1] = -0.0;
        }
        Planted::Nan => v.as_mut_slice()[n / 2] = f32::NAN,
    }
    let v = store.register("v", v);
    let gain = weight_norm.then(|| store.register("g", normal(&[out_ch, 1], rng)));
    let bias = store.register("b", normal(&[out_ch, 1], rng));
    (v, gain, bias)
}

/// `(batch, time, dilation, keep)` of a conv case.
type Call = (usize, usize, usize, usize);

fn check_conv(
    dims: (usize, usize, usize),
    (batch, time, dilation, keep): Call,
    weight_norm: bool,
    planted: Planted,
    seed: u64,
) {
    let mut rng = Rng::seed_from(seed);
    let mut store = ParamStore::new();
    let (v, gain, bias) = conv_params(&mut store, dims, weight_norm, planted, &mut rng);
    let x = normal(&[batch, dims.0, time], &mut rng);
    let prim = Prim::Conv {
        v,
        gain,
        bias,
        dilation,
        keep,
    };
    let out = check(&store, &prim, &[x]);
    assert_eq!(out.shape(), &[batch, dims.1, time.div_ceil(keep)]);
}

#[test]
fn conv_edges_single_row_single_step_and_dilation_past_the_row() {
    let mut seed = 0;
    for weight_norm in [false, true] {
        for planted in [Planted::Nothing, Planted::Zero] {
            for (batch, time, dilation) in [
                (1, 1, 1),
                (1, 1, 4),
                (1, 3, 8),
                (2, 4, 2),
                (1, 30, 1),
                (3, 19, 4),
            ] {
                for dims in [(1, 1, 1), (2, 5, 3), (6, 4, 2), (3, 6, 1)] {
                    seed += 1;
                    let call = (batch, time, dilation, 1);
                    check_conv(dims, call, weight_norm, planted, seed);
                }
            }
        }
    }
}

/// The columns a consumer keeps: the tape convolves the whole row and
/// subsamples it, the arena computes the kept columns alone (out-channels
/// on the lanes) or, for weights that kernel refuses, takes the tape's
/// route. `keep` on both sides of the row length, rows on both sides of a
/// column block, out-channels on both sides of a lane block, taps that
/// reach before the row at every kept column.
#[test]
fn conv_on_kept_columns_is_the_subsampled_convolution() {
    let mut seed = 1000;
    for time in [1usize, 2, 7, 30] {
        for keep in [1, 2, 3, time, time + 5] {
            for batch in [1, 3] {
                for (dims, dilation) in [
                    ((3, 5, 1), 1),
                    ((8, 16, 3), 1),
                    ((16, 16, 3), 2),
                    ((2, 20, 3), 40),
                    ((5, 33, 2), 3),
                ] {
                    for planted in [Planted::Nothing, Planted::Zero, Planted::Nan] {
                        seed += 1;
                        let call = (batch, time, dilation, keep);
                        check_conv(dims, call, seed % 2 == 0, planted, seed);
                    }
                }
            }
        }
    }
}

#[test]
fn subsample_and_select_edges() {
    let store = ParamStore::new();
    let mut rng = Rng::seed_from(7);
    for (time, step) in [(1, 1), (1, 2), (2, 2), (7, 2), (8, 2), (9, 4), (5, 8)] {
        let x = normal(&[2, 3, time], &mut rng);
        let kept = check(&store, &Prim::SubsampleTime(step), std::slice::from_ref(&x));
        // The last step is always kept, and last.
        assert_eq!(
            kept.as_slice().last().unwrap().to_bits(),
            x.as_slice().last().unwrap().to_bits()
        );
        check(
            &store,
            &Prim::SelectTime(time - 1),
            std::slice::from_ref(&x),
        );
        check(&store, &Prim::SelectTime(0), &[x]);
    }
}

/// A TCN block's convolutions: two weight-normed `k = 3` layers and the
/// gain-less 1×1 projection on the skip path.
struct ConvStack {
    conv1: CausalConv1d,
    conv2: CausalConv1d,
    proj: CausalConv1d,
}

impl ConvStack {
    fn new(store: &mut ParamStore, rng: &mut Rng) -> Self {
        Self {
            conv1: CausalConv1d::new(store, "c1", 3, 6, 3, 1, true, rng),
            conv2: CausalConv1d::new(store, "c2", 6, 6, 3, 2, true, rng),
            proj: CausalConv1d::new(store, "proj", 3, 6, 1, 1, false, rng),
        }
    }

    fn run<E: Exec>(&self, ex: &mut E, x: &Tensor) -> E::V {
        let x = ex.input(x.shape(), |out| out.copy_from_slice(x.as_slice()));
        // Conv 2 and the projection on every second column, as a block
        // of the last-step backbone runs them: the arena reads their
        // lane-major copies, conv 1's dense fold.
        let h = self.conv1.forward(ex, &x);
        let h = ex.relu(h);
        let h2 = self.conv2.forward_dilated(ex, &h, 2, 2);
        ex.release(h);
        let res = self.proj.forward_dilated(ex, &x, 1, 2);
        ex.release(x);
        let out = ex.add_relu(&res, h2);
        ex.release(res);
        out
    }

    fn taped(&self, store: &ParamStore, x: &Tensor) -> Vec<u32> {
        let mut g = Graph::new(store);
        let out = self.run(&mut Tape::eval(&mut g), x);
        g.value(out)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    fn arena(&self, store: &ParamStore, ctx: &mut InferenceContext, x: &Tensor) -> Vec<u32> {
        let mut arena = Arena::new(ctx, store);
        let out = self.run(&mut arena, x);
        let t = arena.into_tensor(out);
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// One optimiser step on `mean(out²)`.
    fn step(&self, store: &mut ParamStore, opt: &mut dyn Optimizer, x: &Tensor) {
        let mut g = Graph::new(store);
        let out = self.run(&mut Tape::eval(&mut g), x);
        let sq = g.square(out);
        let loss = g.mean_all(sq);
        let grads = g.backward(loss);
        opt.step(store, &grads);
    }
}

/// Shift every weight, element by element differently (a uniform scale of
/// `v` would cancel in `v / ‖v‖`).
fn perturbed(t: &Tensor) -> Tensor {
    let mut t = t.clone();
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        *v += 0.05 * (1 + i % 3) as f32;
    }
    t
}

/// A way of writing weights into a store.
type Write = fn(&ConvStack, &mut ParamStore, &Tensor);

fn write_direction(stack: &ConvStack, store: &mut ParamStore, _x: &Tensor) {
    let v = stack.conv1.param_ids()[0];
    let next = perturbed(store.value(v));
    *store.value_mut(v) = next;
}

#[test]
fn arena_convolves_with_the_weights_of_the_last_write() {
    let writes: [(&str, Write); 5] = [
        ("value_mut on v", write_direction),
        ("value_mut on g alone", |stack, store, _| {
            let g = stack.conv2.param_ids()[1];
            let next = perturbed(store.value(g));
            *store.value_mut(g) = next;
        }),
        ("Adam step", |stack, store, x| {
            stack.step(store, &mut Adam::new(0.01), x)
        }),
        ("restore", |_, store, _| {
            let snapshot: Vec<Tensor> = store.snapshot().iter().map(perturbed).collect();
            store.restore(&snapshot).unwrap();
        }),
        ("import_named", |_, store, _| {
            let table: Vec<(String, Tensor)> = store
                .export_named()
                .into_iter()
                .map(|(name, t)| (name, perturbed(&t)))
                .collect();
            store.import_named(&table).unwrap();
        }),
    ];
    let build = || {
        let mut rng = Rng::seed_from(99);
        let mut store = ParamStore::new();
        let stack = ConvStack::new(&mut store, &mut rng);
        (stack, store, normal(&[2, 3, 12], &mut rng))
    };
    let mut ctx = InferenceContext::new();
    let mut stale = Vec::new();
    for (route, write) in writes {
        let (stack, mut store, x) = build();
        let first = stack.arena(&store, &mut ctx, &x);
        assert_eq!(first, stack.taped(&store, &x), "{route}: before the write");
        write(&stack, &mut store, &x);
        let taped = stack.taped(&store, &x);
        assert_ne!(taped, first, "{route}: the write changed nothing");
        if stack.arena(&store, &mut ctx, &x) != taped {
            stale.push(route);
        }
    }
    assert!(
        stale.is_empty(),
        "the arena read weights from before the write: {stale:?}"
    );

    // A clone shares what its source prepared until either is written;
    // then the written one re-prepares and the other keeps its answer.
    let (stack, mut source, x) = build();
    let first = stack.arena(&source, &mut ctx, &x);
    let mut copy = source.clone();
    write_direction(&stack, &mut copy, &x);
    let copied = stack.arena(&copy, &mut ctx, &x);
    assert_eq!(copied, stack.taped(&copy, &x), "a written clone");
    assert_ne!(copied, first, "a written clone");
    assert_eq!(stack.arena(&source, &mut ctx, &x), first, "its source");
    let kept = source.clone();
    write_direction(&stack, &mut source, &x);
    assert_eq!(
        stack.arena(&source, &mut ctx, &x),
        copied,
        "a written source"
    );
    assert_eq!(stack.arena(&kept, &mut ctx, &x), first, "its clone");
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn input_stages_the_same_leaf(seed in 0u64..1000, b in 1usize..4, c in 1usize..5, t in 1usize..6) {
        let mut rng = Rng::seed_from(seed);
        let store = ParamStore::new();
        check(&store, &Prim::Input, &[normal(&[b, c, t], &mut rng)]);
        check(&store, &Prim::Input, &[normal(&[b, c], &mut rng)]);
        check(&store, &Prim::Dup, &[normal(&[b, c, t], &mut rng)]);
    }

    #[test]
    fn matmul_and_bias(seed in 0u64..1000, rows in 1usize..9, k in 1usize..20, n in 1usize..20) {
        let mut rng = Rng::seed_from(seed);
        let mut store = ParamStore::new();
        let mut wt = normal(&[k, n], &mut rng);
        wt.as_mut_slice()[0] = 0.0;
        let w = store.register("w", wt);
        let b = store.register("b", normal(&[n], &mut rng));
        check(&store, &Prim::Matmul(w), &[normal(&[rows, k], &mut rng)]);
        check(&store, &Prim::AddBias(b), &[normal(&[rows, n], &mut rng)]);
    }

    #[test]
    fn conv_with_and_without_weight_norm(
        seed in 0u64..1000,
        (in_ch, out_ch, kernel) in (1usize..8, 1usize..8, 1usize..4),
        (batch, time, dilation, keep) in (1usize..4, 1usize..24, 1usize..10, 1usize..6),
    ) {
        let wn = seed % 2 == 0;
        let planted = [Planted::Zero, Planted::Nothing, Planted::Nothing][seed as usize % 3];
        check_conv((in_ch, out_ch, kernel), (batch, time, dilation, keep), wn, planted, seed);
    }

    #[test]
    fn activations_softmax_and_scale(seed in 0u64..1000, rows in 1usize..6, cols in 1usize..12, c in -3.0f32..3.0) {
        let mut rng = Rng::seed_from(seed);
        let store = ParamStore::new();
        let mut x = Tensor::rand_normal(&[rows, cols], 0.0, 6.0, &mut rng);
        x.as_mut_slice()[0] = -0.0;
        for prim in [Prim::Relu, Prim::Tanh, Prim::Sigmoid, Prim::SoftmaxRows, Prim::Scale(c)] {
            check(&store, &prim, std::slice::from_ref(&x));
        }
        // Rank-3 values take the same elementwise kernels.
        let x3 = normal(&[rows, 2, cols], &mut rng);
        for prim in [Prim::Relu, Prim::Tanh, Prim::Sigmoid, Prim::Scale(c)] {
            check(&store, &prim, std::slice::from_ref(&x3));
        }
    }

    #[test]
    fn binary_ops_same_shape_and_column_broadcast(seed in 0u64..1000, rows in 1usize..6, cols in 1usize..12) {
        let mut rng = Rng::seed_from(seed);
        let store = ParamStore::new();
        let a = normal(&[rows, cols], &mut rng);
        let same = normal(&[rows, cols], &mut rng);
        let column = normal(&[rows, 1], &mut rng);
        for prim in [Prim::Add, Prim::Sub, Prim::Mul] {
            check(&store, &prim, &[a.clone(), same.clone()]);
            check(&store, &prim, &[a.clone(), column.clone()]);
        }
        let res = normal(&[rows, 3, cols], &mut rng);
        let h = normal(&[rows, 3, cols], &mut rng);
        check(&store, &Prim::AddRelu, &[res, h]);
    }

    #[test]
    fn time_and_column_selection(
        seed in 0u64..1000,
        (batch, ch, time) in (1usize..4, 1usize..6, 1usize..20),
        step in 1usize..10,
        pick in 0usize..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let store = ParamStore::new();
        let x = normal(&[batch, ch, time], &mut rng);
        check(&store, &Prim::SelectTime(pick % time), std::slice::from_ref(&x));
        check(&store, &Prim::SubsampleTime(step), &[x]);

        let m = normal(&[batch, time], &mut rng);
        let from = pick % time;
        let to = from + 1 + (seed as usize) % (time - from);
        check(&store, &Prim::SliceCols(from, to), std::slice::from_ref(&m));
        let parts = [m, normal(&[batch, 1], &mut rng), normal(&[batch, ch], &mut rng)];
        check(&store, &Prim::ConcatCols, &parts);
        check(&store, &Prim::ConcatCols, &parts[..1]);
    }

    #[test]
    fn dropout_is_the_identity_outside_training(seed in 0u64..1000, batch in 1usize..4, ch in 1usize..6, time in 1usize..8) {
        let mut rng = Rng::seed_from(seed);
        let store = ParamStore::new();
        let x = normal(&[batch, ch, time], &mut rng);
        for prim in [Prim::Dropout(0.5), Prim::DropoutSpatial(0.5)] {
            let out = check(&store, &prim, std::slice::from_ref(&x));
            prop_assert_eq!(out.as_slice(), x.as_slice());
        }
    }
}
