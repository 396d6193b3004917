//! Parity suite for the last-step form of the TCN backbone.
//!
//! A model whose head reads only the final step runs each block of
//! dilation `d` on the `⌈T/d⌉` columns of that step's residue class, and
//! its second convolution, skip path and join only on the columns the next
//! block reads of those (`TcnBackbone::forward_last`) — the step's
//! dependency cone. The contract checked here is that this is
//! **bitwise** what the full sequence followed by `select_time(T − 1)`
//! computes: forecasts (taped, tape-free, streaming), the loss, every
//! parameter gradient, the dropout RNG stream, and so every trained weight.
//!
//! The full-sequence reference is built from the public `forward`, the one
//! temporal attention uses, so no model needs a switch between the forms.

use autograd::layers::Linear;
use autograd::optim::Adam;
use autograd::{
    Exec, Gradients, Graph, InferenceContext, LossKind, ParamStore, SequenceModel, TrainConfig,
};
use models::checkpoint::{write_model_state, ModelState};
use models::{
    Forecaster, RptcnConfig, RptcnForecaster, StreamingRptcn, TcnBackbone, TcnConfig, TcnForecaster,
};
use tensor::{Rng, Tensor};

/// `[batch, time, features] -> [batch, features, time]`.
fn to_channels_time(x: &Tensor) -> Tensor {
    let (b, t, f) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let src = x.as_slice();
    let mut out = vec![0.0f32; b * f * t];
    for bi in 0..b {
        for ti in 0..t {
            for fi in 0..f {
                out[(bi * f + fi) * t + ti] = src[(bi * t + ti) * f + fi];
            }
        }
    }
    Tensor::from_vec(out, &[b, f, t])
}

#[derive(Clone, Copy, Debug)]
struct Shape {
    features: usize,
    channels: usize,
    levels: usize,
    kernel: usize,
    weight_norm: bool,
    quantiles: bool,
    dropout: f32,
}

/// Backbone plus the heads RPTCN puts on its last step, in either form.
struct Net {
    store: ParamStore,
    backbone: TcnBackbone,
    head: Linear,
    qhead: Option<Linear>,
    full_sequence: bool,
}

impl Net {
    /// Both forms built from one seed hold identical weights; every
    /// parameter is perturbed so zero-initialised ones take part.
    fn new(s: Shape, seed: u64, full_sequence: bool) -> Self {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(seed);
        let backbone = TcnBackbone::new(
            &mut store,
            "tcn",
            s.features,
            s.channels,
            s.levels,
            s.kernel,
            s.dropout,
            s.weight_norm,
            &mut rng,
        );
        let head = Linear::new(&mut store, "head", s.channels, 1, &mut rng);
        let qhead = s
            .quantiles
            .then(|| Linear::new(&mut store, "qhead", s.channels, 2, &mut rng));
        let perturbed: Vec<(String, Tensor)> = store
            .export_named()
            .into_iter()
            .map(|(name, mut t)| {
                for v in t.as_mut_slice() {
                    *v += rng.normal(0.0, 0.05);
                }
                (name, t)
            })
            .collect();
        store.import_named(&perturbed).unwrap();
        Self {
            store,
            backbone,
            head,
            qhead,
            full_sequence,
        }
    }

    fn loss(&self) -> LossKind {
        match self.qhead {
            Some(_) => LossKind::PointInterval { lo: 0.1, hi: 0.9 },
            None => LossKind::Mse,
        }
    }

    /// Overwrite one scalar of a named parameter.
    fn poke(&mut self, name: &str, index: usize, value: f32) {
        let mut named = self.store.export_named();
        let entry = named
            .iter_mut()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no parameter named {name}"));
        entry.1.as_mut_slice()[index] = value;
        self.store.import_named(&named).unwrap();
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut st = ModelState::new("parity", 0, 1);
        st.tensors = self.store.export_named();
        let mut bytes = Vec::new();
        write_model_state(&mut bytes, &st).unwrap();
        bytes
    }
}

impl SequenceModel for Net {
    fn run<E: Exec>(&self, ex: &mut E, x: &Tensor) -> E::V {
        let time = x.shape()[1];
        let ct = to_channels_time(x);
        let ct = ex.input(ct.shape(), |out| out.copy_from_slice(ct.as_slice()));
        let last = if self.full_sequence {
            let seq = self.backbone.forward(ex, ct);
            ex.select_time(&seq, time - 1)
        } else {
            self.backbone.forward_last(ex, ct)
        };
        let point = self.head.forward(ex, &last);
        match &self.qhead {
            Some(q) => {
                let quant = q.forward(ex, &last);
                ex.concat_cols(&[point, quant])
            }
            None => point,
        }
    }

    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn horizon(&self) -> usize {
        if self.qhead.is_some() {
            3
        } else {
            1
        }
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One taped pass: prediction, loss, gradients, and the next draws of the
/// RNG the pass consumed (its state, as far as the public API shows it).
fn taped_step(
    net: &Net,
    x: &Tensor,
    y: &Tensor,
    training: bool,
    seed: u64,
) -> (Tensor, f32, Gradients, [usize; 4]) {
    let mut rng = Rng::seed_from(seed);
    let mut g = Graph::new(&net.store);
    let pred = net.forward(&mut g, x, training, &mut rng);
    let pred_value = g.value(pred).clone();
    let loss = net.loss().build(&mut g, pred, y);
    let loss_value = g.value(loss).item();
    let grads = g.backward(loss);
    let next = [(); 4].map(|_| rng.below(usize::MAX));
    (pred_value, loss_value, grads, next)
}

fn assert_grads_bitwise(a: &Net, ga: &Gradients, gb: &Gradients, what: &str) {
    for (id, _) in a.store.iter() {
        let (x, y) = (ga.get(id), gb.get(id));
        assert_eq!(x.is_some(), y.is_some(), "{what}: {}", a.store.name(id));
        if let (Some(x), Some(y)) = (x, y) {
            assert_eq!(bits(x), bits(y), "{what}: gradient of {}", a.store.name(id));
        }
    }
}

/// Deterministic rotation of the dimensions that are not swept exhaustively.
fn shape_for(case: usize, levels: usize) -> (Shape, usize) {
    let shape = Shape {
        features: [1, 6, 16][case % 3],
        channels: [16, 5][(case / 3) % 2],
        levels,
        kernel: [3, 2][(case / 2) % 2],
        weight_norm: case % 4 < 2,
        quantiles: case % 5 < 2,
        dropout: 0.25,
    };
    (shape, [1, 3, 64][(case / 5) % 3])
}

fn inputs(batch: usize, window: usize, features: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = Rng::seed_from(seed);
    let x = Tensor::rand_normal(&[batch, window, features], 0.4, 0.5, &mut rng);
    let y = Tensor::rand_normal(&[batch, 1], 0.4, 0.3, &mut rng);
    (x, y)
}

#[test]
fn forecasts_match_the_full_sequence_for_every_window_and_depth() {
    let mut ctx = InferenceContext::new();
    let mut case = 0;
    for window in 1..=70 {
        for levels in 1..=5 {
            case += 1;
            let (shape, batch) = shape_for(case, levels);
            let what = format!("window {window} batch {batch} {shape:?}");
            let last = Net::new(shape, case as u64, false);
            let full = Net::new(shape, case as u64, true);
            let (x, y) = inputs(batch, window, shape.features, 1000 + case as u64);
            let (p_last, ..) = taped_step(&last, &x, &y, false, 0);
            let (p_full, ..) = taped_step(&full, &x, &y, false, 0);
            assert_eq!(bits(&p_last), bits(&p_full), "taped, {what}");
            let p_free = last.infer(&mut ctx, &x);
            assert_eq!(bits(&p_free), bits(&p_full), "tape-free, {what}");
        }
    }
}

/// The dependency cone at the windows where it is least regular — primes
/// and odd lengths, whose residue classes never halve evenly, and windows
/// shorter than a column block or a single step — at every depth, with
/// channel counts on both sides of the kernel's 16 out-channel lanes, alone
/// and stacked: conv 2, the skip path and the join of every block run on
/// the columns the next block reads, and the forecast is still the full
/// sequence's last step.
#[test]
fn the_cone_matches_the_full_sequence_at_prime_and_odd_windows() {
    let mut ctx = InferenceContext::new();
    let mut case = 0;
    for window in [29, 31, 3, 1] {
        for levels in 1..=5 {
            for channels in [16, 5, 24] {
                for batch in [1, 3] {
                    case += 1;
                    let shape = Shape {
                        features: [8, 1, 3][case % 3],
                        channels,
                        levels,
                        kernel: [3, 3, 2][case % 3],
                        weight_norm: case % 2 == 0,
                        quantiles: false,
                        dropout: 0.1,
                    };
                    let what = format!("window {window} batch {batch} {shape:?}");
                    let last = Net::new(shape, 500 + case as u64, false);
                    let full = Net::new(shape, 500 + case as u64, true);
                    let (x, y) = inputs(batch, window, shape.features, 3000 + case as u64);
                    let (p_full, ..) = taped_step(&full, &x, &y, false, 0);
                    let (p_last, ..) = taped_step(&last, &x, &y, false, 0);
                    assert_eq!(bits(&p_last), bits(&p_full), "taped, {what}");
                    let p_free = last.infer(&mut ctx, &x);
                    assert_eq!(bits(&p_free), bits(&p_full), "tape-free, {what}");
                }
            }
        }
    }
}

#[test]
fn a_training_step_matches_the_full_sequence_bitwise() {
    let mut case = 0;
    for window in 1..=70 {
        for levels in 1..=5 {
            case += 1;
            // Every case runs at batch 1 or 3; one in four also at 64.
            let (shape, mut batch) = shape_for(case, levels);
            if batch == 64 && case % 4 != 0 {
                batch = 3;
            }
            let what = format!("window {window} batch {batch} {shape:?}");
            let last = Net::new(shape, case as u64, false);
            let full = Net::new(shape, case as u64, true);
            let (x, y) = inputs(batch, window, shape.features, 2000 + case as u64);
            let seed = 77 + case as u64;
            let (p_last, l_last, g_last, r_last) = taped_step(&last, &x, &y, true, seed);
            let (p_full, l_full, g_full, r_full) = taped_step(&full, &x, &y, true, seed);
            assert_eq!(
                bits(&p_last),
                bits(&p_full),
                "dropout masks / output, {what}"
            );
            assert_eq!(l_last.to_bits(), l_full.to_bits(), "loss, {what}");
            assert_grads_bitwise(&last, &g_last, &g_full, &what);
            assert_eq!(r_last, r_full, "RNG state after the step, {what}");
        }
    }
}

fn fit_three_epochs(net: &mut Net, x: &Tensor, y: &Tensor) -> autograd::TrainHistory {
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 64,
        loss: net.loss(),
        seed: 9,
        ..Default::default()
    };
    let mut opt = Adam::new(2e-3);
    autograd::fit(net, x, y, Some((x, y)), &mut opt, &cfg)
}

#[test]
fn a_three_epoch_fit_yields_byte_identical_state() {
    for (quantiles, weight_norm) in [(false, true), (true, false)] {
        let shape = Shape {
            features: 6,
            channels: 16,
            levels: 4,
            kernel: 3,
            weight_norm,
            quantiles,
            dropout: 0.1,
        };
        let (x, y) = inputs(150, 30, shape.features, 5);
        let mut last = Net::new(shape, 3, false);
        let mut full = Net::new(shape, 3, true);
        assert_eq!(last.state_bytes(), full.state_bytes(), "same start");
        let h_last = fit_three_epochs(&mut last, &x, &y);
        let h_full = fit_three_epochs(&mut full, &x, &y);
        assert_eq!(h_last.train_loss, h_full.train_loss);
        assert_eq!(h_last.valid_loss, h_full.valid_loss);
        assert_eq!(h_last.rollbacks, 0);
        assert_eq!(
            last.state_bytes(),
            full.state_bytes(),
            "trained weights differ (quantiles {quantiles}, weight norm {weight_norm})"
        );
    }
}

#[test]
fn exact_zero_weights_take_the_same_fallback() {
    // An exact zero routes the forward conv off its fused path and makes
    // the gradient kernels skip terms; both forms must skip the same ones.
    for weight_norm in [false, true] {
        let shape = Shape {
            features: 6,
            channels: 16,
            levels: 4,
            kernel: 3,
            weight_norm,
            quantiles: false,
            dropout: 0.2,
        };
        let mut last = Net::new(shape, 21, false);
        let mut full = Net::new(shape, 21, true);
        for net in [&mut last, &mut full] {
            net.poke("tcn.block0.conv1.v", 4, 0.0);
            net.poke("tcn.block2.conv2.v", 100, 0.0);
            net.poke("tcn.block3.conv1.v", 0, -0.0);
        }
        let (x, y) = inputs(3, 30, shape.features, 22);
        let (p_last, l_last, g_last, _) = taped_step(&last, &x, &y, true, 23);
        let (p_full, l_full, g_full, _) = taped_step(&full, &x, &y, true, 23);
        assert_eq!(bits(&p_last), bits(&p_full));
        assert_eq!(l_last.to_bits(), l_full.to_bits());
        assert!(g_last.all_finite());
        assert_grads_bitwise(&last, &g_last, &g_full, "zero weights");
        let mut ctx = InferenceContext::new();
        assert_eq!(
            bits(&last.infer(&mut ctx, &x)),
            bits(&eval_taped(&full, &x))
        );
    }
}

/// Taped evaluation-mode prediction.
fn eval_taped(net: &Net, x: &Tensor) -> Tensor {
    let mut rng = Rng::seed_from(0);
    let mut g = Graph::new(&net.store);
    let pred = net.forward(&mut g, x, false, &mut rng);
    g.value(pred).clone()
}

#[test]
fn a_non_finite_weight_skips_the_same_optimiser_steps() {
    let shape = Shape {
        features: 6,
        channels: 16,
        levels: 4,
        kernel: 3,
        weight_norm: true,
        quantiles: false,
        dropout: 0.1,
    };
    let (x, y) = inputs(96, 30, shape.features, 31);
    for poison in [f32::NAN, f32::INFINITY] {
        let mut last = Net::new(shape, 32, false);
        let mut full = Net::new(shape, 32, true);
        for net in [&mut last, &mut full] {
            net.poke("tcn.block2.conv1.v", 7, poison);
        }
        // One step: ReLU swallows the poisoned channel (`NaN.max(0.0)` is
        // 0), so the loss is finite and equal, but the channel's input
        // gradient is not, and neither form would take the step.
        let (_, l_last, g_last, r_last) = taped_step(&last, &x, &y, true, 33);
        let (_, l_full, g_full, r_full) = taped_step(&full, &x, &y, true, 33);
        assert_eq!(l_last.to_bits(), l_full.to_bits());
        assert!(!g_last.all_finite() && !g_full.all_finite());
        assert_eq!(r_last, r_full);
        // A whole fit: every step skipped, every epoch rolled back, the
        // poisoned store left exactly as it was in both forms.
        let before = last.state_bytes();
        let h_last = fit_three_epochs(&mut last, &x, &y);
        let h_full = fit_three_epochs(&mut full, &x, &y);
        assert_eq!(h_last.rollbacks, h_full.rollbacks);
        assert_eq!(h_last.diverged, h_full.diverged);
        assert_eq!(last.state_bytes(), full.state_bytes());
        assert_eq!(last.state_bytes(), before);
    }
}

#[test]
fn forecasters_agree_taped_tape_free_and_streaming_bitwise() {
    // The shipped models in their shipped form: RPTCN (quantile heads on
    // and off) and TCN, every window 1..=70, against the streaming engine
    // that still runs every block at its own dilation.
    let mut rng = Rng::seed_from(41);
    for (quantiles, features, zero_weights) in [
        (None, 2, false),
        (Some((0.1, 0.9)), 3, false),
        (None, 2, true),
    ] {
        let mut model = RptcnForecaster::new(RptcnConfig {
            quantiles,
            ..Default::default()
        });
        model.init_untrained(features, 1);
        if zero_weights {
            // Exact zeros send the batch conv to its tap-wise path and the
            // streaming conv to its channel-by-channel one.
            let mut state = model.state().unwrap();
            for (name, t) in &mut state.tensors {
                if name.ends_with("conv1.v") {
                    t.as_mut_slice()[5] = 0.0;
                }
            }
            model = RptcnForecaster::from_state(&state).unwrap();
        }
        let history = Tensor::rand_normal(&[1, 70, features], 0.5, 0.3, &mut rng);
        let mut stream = StreamingRptcn::new(&model).unwrap();
        for n in 1..=70 {
            let streamed = stream
                .push(&history.as_slice()[(n - 1) * features..n * features])
                .to_vec();
            let prefix = Tensor::from_vec(
                history.as_slice()[..n * features].to_vec(),
                &[1, n, features],
            );
            let free = model.predict(&prefix);
            let taped = model.predict_taped(&prefix);
            assert_eq!(bits(&free), bits(&taped), "window {n}");
            assert_eq!(
                streamed[0].to_bits(),
                free.as_slice()[0].to_bits(),
                "streaming, window {n}"
            );
        }
    }
    let mut tcn = TcnForecaster::new(TcnConfig {
        levels: 5,
        spec: models::NeuralTrainSpec {
            epochs: 1,
            ..Default::default()
        },
        ..Default::default()
    });
    let ds = {
        let series: Vec<f32> = (0..120)
            .map(|i| 0.5 + 0.3 * (i as f32 * 0.3).sin())
            .collect();
        let frame = timeseries::TimeSeriesFrame::from_columns(&[("cpu", series)]).unwrap();
        timeseries::make_windows(&frame, "cpu", 33, 1).unwrap()
    };
    tcn.fit(&ds, None);
    assert_eq!(bits(&tcn.predict(&ds.x)), bits(&tcn.predict_taped(&ds.x)));
}
