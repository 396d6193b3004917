//! Inference-engine microbenchmark: taped vs tape-free single-entity
//! forecast latency at the paper configuration (RPTCN channels 16, levels
//! 4, kernel 3; lookback 30), steady-state scratch-arena allocations per
//! forecast, streaming-push latency across lookback lengths (flat ⇒
//! O(1) in window length), the GEMM microkernel vs its scalar reference on
//! representative layer shapes, a per-layer breakdown
//! (every kernel of one real forward pass, at the shapes the last-step
//! backbone runs them), one training step in the last-step form against
//! the full sequence followed by `select_time` and the validation pass
//! `fit` runs once an epoch, per window, window-preparation
//! latency across history lengths (flat ⇒ a forecast does not
//! re-preprocess the entity's history), and what a row of a stacked batch
//! costs on the calling thread. Emits `BENCH_infer.json` for the CI
//! smoke job; every timing loop also feeds an `obs` histogram, so the
//! report carries full bucketed distributions alongside the exact sorted
//! quantiles.
//!
//! Flags: `--quick` cuts iteration counts, `--seed` varies the weights.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use autograd::infer::{
    add_row_bias, relu_in_place, select_time_into, softmax_rows_in_place, subsample_time_into,
    subsampled_len,
};
use autograd::layers::{CausalConv1d, Dropout, FeatureAttention, Linear};
use autograd::optim::{Adam, Optimizer};
use autograd::train::validation_loss;
use autograd::{Arena, Exec, Graph, InferenceContext, LossKind, ParamStore, SequenceModel};
use bench_harness::ExperimentArgs;
use cloudtrace::{ContainerConfig, WorkloadClass};
use models::{
    Forecaster, NaiveForecaster, RptcnConfig, RptcnForecaster, StreamingRptcn, TcnBackbone,
};
use obs::{Histogram, Registry};
use rptcn::{PipelineConfig, ResourcePredictor, Scenario};
use tensor::gemm;
use tensor::{Rng, Tensor};

const FEATURES: usize = 8;
const WINDOW: usize = 30;
const LOOKBACKS: [usize; 3] = [32, 64, 128];
/// Rows of the stacked batch section.
const BATCH_ROWS: usize = 128;
/// History lengths for the window-preparation section: a monitoring
/// stream an hour, ten hours and four days old at 10 s samples.
const WINDOW_PREP_ROWS: [usize; 3] = [400, 4_000, 40_000];
/// Rows of one training batch (the paper's batch size).
const TRAIN_BATCH: usize = 64;
/// GEMM shapes representative of the paper-default forward pass:
/// `(label, m, k, n)`.
const GEMM_SHAPES: [(&str, usize, usize, usize); 4] = [
    ("streaming_row", 1, 240, 64),
    ("fc_per_step", 30, 16, 32),
    ("attention_scores", 30, 32, 30),
    ("stacked_batch", 128, 240, 64),
];

fn quantiles(mut ns: Vec<u64>) -> (u64, u64) {
    ns.sort_unstable();
    let q = |p: f64| ns[((ns.len() - 1) as f64 * p).round() as usize];
    (q(0.50), q(0.99))
}

/// Per-call latency quantiles `(p50, p99)` in nanoseconds, computed from
/// the exact sorted samples. Each sample is also recorded into `hist`, so
/// the emitted report can show the bucketed distribution next to the
/// exact quantiles.
fn time_loop(iters: usize, hist: &Histogram, f: impl FnMut()) -> (u64, u64) {
    quantiles(time_samples(iters, hist, f))
}

/// The nanoseconds of `iters` calls of `f`, each also recorded into `hist`.
fn time_samples(iters: usize, hist: &Histogram, mut f: impl FnMut()) -> Vec<u64> {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        let ns = t.elapsed().as_nanos() as u64;
        hist.record(ns);
        samples.push(ns);
    }
    samples
}

/// One kernel of the forward pass in the per-layer breakdown.
struct KernelRow {
    name: String,
    class: &'static str,
    shape: String,
    p50: u64,
    p99: u64,
}

/// An [`Exec`] backend that computes nothing: a value is its shape, and
/// each convolution adds the multiply-accumulates of the columns it was
/// asked for (kept column × in-channel × out-channel × tap). Running the
/// real `TcnBackbone` on it counts what the one forward definition asks a
/// serving backend to compute — so the count moves if, and only if, the
/// definition does.
struct MacCounter<'a> {
    store: &'a ParamStore,
    conv_macs: usize,
}

impl Exec for MacCounter<'_> {
    type V = Vec<usize>;

    fn shape<'v>(&'v self, v: &'v Vec<usize>) -> &'v [usize] {
        v
    }
    fn input(&mut self, shape: &[usize], _fill: impl FnOnce(&mut [f32])) -> Vec<usize> {
        shape.to_vec()
    }
    fn matmul(&mut self, x: &Vec<usize>, w: autograd::ParamId) -> Vec<usize> {
        vec![x[0], self.store.value(w).shape()[1]]
    }
    fn add_bias(&mut self, x: Vec<usize>, _b: autograd::ParamId) -> Vec<usize> {
        x
    }
    fn conv(
        &mut self,
        x: &Vec<usize>,
        v: autograd::ParamId,
        _gain: Option<autograd::ParamId>,
        _bias: autograd::ParamId,
        _dilation: usize,
        keep: usize,
    ) -> Vec<usize> {
        let w = self.store.value(v).shape();
        let kept = subsampled_len(x[2], keep);
        self.conv_macs += x[0] * kept * w.iter().product::<usize>();
        vec![x[0], w[0], kept]
    }
    fn relu(&mut self, x: Vec<usize>) -> Vec<usize> {
        x
    }
    fn tanh(&mut self, x: Vec<usize>) -> Vec<usize> {
        x
    }
    fn sigmoid(&mut self, x: Vec<usize>) -> Vec<usize> {
        x
    }
    fn softmax_rows(&mut self, x: Vec<usize>) -> Vec<usize> {
        x
    }
    fn scale(&mut self, x: Vec<usize>, _c: f32) -> Vec<usize> {
        x
    }
    fn add(&mut self, a: Vec<usize>, _b: &Vec<usize>) -> Vec<usize> {
        a
    }
    fn sub(&mut self, a: Vec<usize>, _b: &Vec<usize>) -> Vec<usize> {
        a
    }
    fn mul(&mut self, a: Vec<usize>, _b: &Vec<usize>) -> Vec<usize> {
        a
    }
    fn add_relu(&mut self, _res: &Vec<usize>, h: Vec<usize>) -> Vec<usize> {
        h
    }
    fn select_time(&mut self, x: &Vec<usize>, _t: usize) -> Vec<usize> {
        x[..2].to_vec()
    }
    fn subsample_time(&mut self, x: &Vec<usize>, step: usize) -> Vec<usize> {
        vec![x[0], x[1], subsampled_len(x[2], step)]
    }
    fn slice_cols(&mut self, x: &Vec<usize>, from: usize, to: usize) -> Vec<usize> {
        vec![x[0], to - from]
    }
    fn concat_cols(&mut self, parts: &[Vec<usize>]) -> Vec<usize> {
        vec![parts[0][0], parts.iter().map(|p| p[1]).sum()]
    }
    fn dropout(&mut self, x: Vec<usize>, _p: f32) -> Vec<usize> {
        x
    }
    fn dropout_spatial(&mut self, x: Vec<usize>, _p: f32) -> Vec<usize> {
        x
    }
    fn dup(&mut self, x: &Vec<usize>) -> Vec<usize> {
        x.clone()
    }
    fn release(&mut self, _v: Vec<usize>) {}
}

/// Multiply-accumulates of the backbone's convolutions in one
/// paper-default forecast. `full_sequence` and `cone` are what
/// `TcnBackbone::forward` and `forward_last` ask of a [`MacCounter`];
/// `residue_class` is what `forward_last` asked before the cone (both
/// convolutions and the projection of block `l` on `⌈WINDOW/2^l⌉` columns),
/// which no code path computes any more. Counts, not timings: they repeat
/// exactly on every host.
fn macs_per_forecast() -> [(&'static str, usize); 3] {
    let net = TrainStepNet::new(false, 0);
    let count = |last_only: bool| {
        let mut ex = MacCounter {
            store: &net.store,
            conv_macs: 0,
        };
        let x = vec![1, FEATURES, WINDOW];
        match last_only {
            true => net.backbone.forward_last(&mut ex, x),
            false => net.backbone.forward(&mut ex, x),
        };
        ex.conv_macs
    };
    let cfg = RptcnConfig::default();
    let residue_class = (0..cfg.levels)
        .map(|l| {
            let in_ch = if l == 0 { FEATURES } else { cfg.channels };
            let proj = if l == 0 { in_ch * cfg.channels } else { 0 };
            let taps = (in_ch + cfg.channels) * cfg.channels * cfg.kernel;
            WINDOW.div_ceil(1 << l) * (taps + proj)
        })
        .sum();
    [
        ("full_sequence", count(false)),
        ("residue_class", residue_class),
        ("cone", count(true)),
    ]
}

/// Every kernel of one tape-free paper-default forecast, timed on its own
/// at the shape the last-step backbone runs it. Block `l` takes the
/// `⌈WINDOW/2^l⌉` columns the block before it kept: conv 1 on all of them,
/// conv 2 and the skip path (level 0: the 1×1 projection; above: a
/// subsample of the block input) on every second one — the last block on
/// its final column — each convolution as the arena's `conv` primitive
/// runs it (prepared weights, pooled output, bias), and their ReLUs; then
/// the FC, attention and head products, one `fc_dim`-wide softmax. The
/// rows should add up towards `single_entity_forecast_ns`; what they leave
/// is the glue between the kernels (arena, copies, dispatch).
///
/// Each row is net of the timing loop's own cost: the p50 of an empty
/// closure timed the same way (returned as the second value, and recorded
/// raw in `layer.clock_read_ns` like every row's samples).
///
/// Also returns `(p50, p99, convolutions)` of preparing every
/// convolution's weights (weight-norm fold, kernel-path scan, and the
/// layout its kernel reads — lane-major wherever the scan finds the
/// weights uniform): paid once per weight install, so not a row of the
/// forecast.
fn forward_pass_kernels(
    iters: usize,
    registry: &Registry,
    rng: &mut Rng,
) -> (Vec<KernelRow>, u64, (u64, u64, usize)) {
    let cfg = RptcnConfig::default();
    let (ch, k, fc_dim) = (cfg.channels, cfg.kernel, cfg.fc_dim);
    let time_raw = |name: &str, f: &mut dyn FnMut()| {
        let hist = registry.latency_histogram(&format!("layer.{name}_ns"));
        for _ in 0..iters / 10 + 1 {
            f();
        }
        time_loop(iters, &hist, f)
    };
    let (clock_read, _) = time_raw("clock_read", &mut || {});
    let mut rows = Vec::new();
    let mut time = |name: String, class: &'static str, shape: String, f: &mut dyn FnMut()| {
        let (p50, p99) = time_raw(&name, f);
        rows.push(KernelRow {
            name,
            class,
            shape,
            p50: p50.saturating_sub(clock_read),
            p99: p99.saturating_sub(clock_read),
        });
    };

    let window = Tensor::rand_normal(&[1, WINDOW, FEATURES], 0.5, 0.2, rng);
    let mut ct = vec![0.0f32; FEATURES * WINDOW];
    time(
        "input_transpose".into(),
        "pointwise",
        format!("{WINDOW}x{FEATURES}"),
        &mut || {
            for (t, row) in window.as_slice().chunks(FEATURES).enumerate() {
                for (f, &v) in row.iter().enumerate() {
                    ct[f * WINDOW + t] = v;
                }
            }
            black_box(&ct);
        },
    );

    let mut store = ParamStore::new();
    let mut ctx = InferenceContext::new();
    let mut layers: Vec<CausalConv1d> = Vec::new();
    let mut len = WINDOW;
    for level in 0..cfg.levels {
        let in_ch = if level == 0 { FEATURES } else { ch };
        // What the next block reads of this one's `len` columns.
        let keep = if level + 1 == cfg.levels { len } else { 2 };
        let kept = subsampled_len(len, keep);
        let mut convs = vec![("conv1", in_ch, k, 1), ("conv2", ch, k, keep)];
        if in_ch != ch {
            convs.push(("proj1x1", in_ch, 1, keep));
        }
        for (which, conv_in, conv_k, conv_keep) in convs {
            let layer = CausalConv1d::new(
                &mut store,
                &format!("l{level}.{which}"),
                conv_in,
                ch,
                conv_k,
                1,
                cfg.weight_norm && conv_k > 1,
                rng,
            );
            // Timed as the arena's `conv` primitive, which reads the
            // weights the store prepared: the public `conv1d_into` scans
            // and lays out its weights on every call, which a forecast
            // does not.
            let x = Tensor::rand_normal(&[1, conv_in, len], 0.0, 1.0, rng);
            let x = Arena::new(&mut ctx, &store)
                .input(x.shape(), |buf| buf.copy_from_slice(x.as_slice()));
            let columns = match conv_keep {
                1 => format!("t{len}"),
                _ => format!("t{len} keep{conv_keep}->{kept}"),
            };
            time(
                format!("level{level}.{which}"),
                "conv",
                format!("{conv_in}->{ch} k{conv_k} {columns}"),
                &mut || {
                    let mut arena = Arena::new(&mut ctx, &store);
                    let out = layer.forward_dilated(&mut arena, &x, 1, conv_keep);
                    black_box(out.as_slice());
                    arena.release(out);
                },
            );
            Arena::new(&mut ctx, &store).release(x);
            layers.push(layer);
        }
        if in_ch == ch {
            let src = Tensor::rand_normal(&[ch, len], 0.0, 1.0, rng);
            let mut dst = vec![0.0f32; ch * kept];
            time(
                format!("level{level}.skip_subsample"),
                "pointwise",
                format!("{ch}x{len}->{kept}"),
                &mut || {
                    subsample_time_into(src.as_slice(), &mut dst, ch, len, keep);
                    black_box(&dst);
                },
            );
        }
        let act = Tensor::rand_normal(&[ch, len], 0.0, 1.0, rng);
        let mut buf = vec![0.0f32; ch * len];
        time(
            format!("level{level}.relus"),
            "pointwise",
            format!("{ch}x{len}+2x{ch}x{kept}"),
            &mut || {
                // Conv 1's ReLU on every column; conv 2's and the fused
                // residual `(res + h).max(0)` on the kept ones.
                buf.copy_from_slice(act.as_slice());
                relu_in_place(&mut buf);
                let joined = &mut buf[..ch * kept];
                joined.copy_from_slice(&act.as_slice()[..ch * kept]);
                relu_in_place(joined);
                for (o, &r) in joined.iter_mut().zip(act.as_slice()) {
                    *o = (r + *o).max(0.0);
                }
                black_box(&buf);
            },
        );
        len = kept;
    }

    let seq = Tensor::rand_normal(&[ch, len], 0.0, 1.0, rng);
    let mut last = vec![0.0f32; ch];
    time(
        "select_last".into(),
        "pointwise",
        format!("{ch}x{len}"),
        &mut || {
            select_time_into(seq.as_slice(), &mut last, 1, ch, len, len - 1);
            black_box(&last);
        },
    );
    for (name, m_in, m_out) in [
        ("fc", ch, fc_dim),
        ("attention_proj", fc_dim, fc_dim),
        ("head", fc_dim, 1),
    ] {
        let a = Tensor::rand_normal(&[1, m_in], 0.0, 1.0, rng);
        let b = Tensor::rand_normal(&[m_in, m_out], 0.0, 1.0, rng);
        let bias = vec![0.01f32; m_out];
        let mut out = vec![0.0f32; m_out];
        time(
            name.into(),
            "matmul",
            format!("1x{m_in}x{m_out}"),
            &mut || {
                gemm::gemm_into(a.as_slice(), b.as_slice(), &mut out, 1, m_in, m_out, false);
                add_row_bias(&mut out, &bias, 1, m_out);
                black_box(&out);
            },
        );
    }
    let fc_out = Tensor::rand_normal(&[fc_dim], 0.0, 1.0, rng);
    let logits = Tensor::rand_normal(&[fc_dim], 0.0, 1.0, rng);
    let mut gated = vec![0.0f32; fc_dim];
    let mut scores = vec![0.0f32; fc_dim];
    time(
        "fc_relu_softmax_gate".into(),
        "pointwise",
        format!("1x{fc_dim}"),
        &mut || {
            gated.copy_from_slice(fc_out.as_slice());
            relu_in_place(&mut gated);
            scores.copy_from_slice(logits.as_slice());
            softmax_rows_in_place(&mut scores, 1, fc_dim);
            for (h, &s) in gated.iter_mut().zip(&scores) {
                *h *= s * fc_dim as f32;
            }
            black_box(&gated);
        },
    );

    let any_weight = layers[0].param_ids()[0];
    let hist = registry.latency_histogram("weight_install_ns");
    let (p50, p99) = time_loop(iters, &hist, || {
        // Any write drops what the store had prepared.
        black_box(store.value_mut(any_weight));
        for layer in &layers {
            black_box(layer.prepared_weight(&store));
        }
    });
    (rows, clock_read, (p50, p99, layers.len()))
}

/// Paper-default RPTCN rebuilt from the public layers, so that one training
/// step can be timed with the backbone in either form: the shipped
/// last-step one, or the full sequence followed by `select_time` it
/// replaced (bitwise the same step, `models/tests/last_step_parity.rs`).
/// A [`SequenceModel`], so that `fit`'s validation pass runs on it too.
struct TrainStepNet {
    store: ParamStore,
    backbone: TcnBackbone,
    fc: Linear,
    attention: FeatureAttention,
    head: Linear,
    dropout: Dropout,
    full_sequence: bool,
}

impl TrainStepNet {
    fn new(full_sequence: bool, seed: u64) -> Self {
        let cfg = RptcnConfig::default();
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(seed);
        let backbone = TcnBackbone::new(
            &mut store,
            "rptcn",
            FEATURES,
            cfg.channels,
            cfg.levels,
            cfg.kernel,
            cfg.dropout,
            cfg.weight_norm,
            &mut rng,
        );
        let fc = Linear::new(&mut store, "fc", cfg.channels, cfg.fc_dim, &mut rng);
        let attention = FeatureAttention::new(&mut store, "attn", cfg.fc_dim, &mut rng);
        let head = Linear::new(&mut store, "head", cfg.fc_dim, 1, &mut rng);
        Self {
            store,
            backbone,
            fc,
            attention,
            head,
            dropout: Dropout::new(cfg.dropout),
            full_sequence,
        }
    }

    /// Forward, loss, backward, clip, Adam — what `autograd::fit` does per
    /// batch, on `x: [batch, time, features]`.
    fn step(&mut self, opt: &mut Adam, x: &Tensor, y: &Tensor, rng: &mut Rng) {
        let mut g = Graph::new(&self.store);
        let pred = self.forward(&mut g, x, true, rng);
        let loss = LossKind::Mse.build(&mut g, pred, y);
        let mut grads = g.backward(loss);
        grads.clip_global_norm(RptcnConfig::default().spec.clip_norm);
        opt.step(&mut self.store, &grads);
    }
}

impl SequenceModel for TrainStepNet {
    fn run<E: Exec>(&self, ex: &mut E, x: &Tensor) -> E::V {
        let (batch, time, features) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let ct = ex.input(&[batch, features, time], |out| {
            for (item, window) in out
                .chunks_mut(features * time)
                .zip(x.as_slice().chunks(time * features))
            {
                for (t, row) in window.chunks(features).enumerate() {
                    for (f, &v) in row.iter().enumerate() {
                        item[f * time + t] = v;
                    }
                }
            }
        });
        let last = if self.full_sequence {
            let seq = self.backbone.forward(ex, ct);
            let last = ex.select_time(&seq, time - 1);
            ex.release(seq);
            last
        } else {
            self.backbone.forward_last(ex, ct)
        };
        let h = self.fc.forward(ex, &last);
        ex.release(last);
        let h = ex.relu(h);
        let h = self.dropout.apply(ex, h);
        let gated = self.attention.forward(ex, &h, &h);
        ex.release(h);
        let pred = self.head.forward(ex, &gated);
        ex.release(gated);
        pred
    }

    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn horizon(&self) -> usize {
        1
    }
}

/// Median milliseconds of one batch-`TRAIN_BATCH` training step.
fn train_step_ms(full_sequence: bool, steps: usize, seed: u64, registry: &Registry) -> f64 {
    let mut net = TrainStepNet::new(full_sequence, seed);
    let mut rng = Rng::seed_from(seed ^ 0x57E9);
    let x = Tensor::rand_normal(&[TRAIN_BATCH, WINDOW, FEATURES], 0.5, 0.2, &mut rng);
    let y = Tensor::rand_normal(&[TRAIN_BATCH, 1], 0.5, 0.2, &mut rng);
    let mut opt = Adam::new(RptcnConfig::default().spec.learning_rate);
    for _ in 0..steps / 10 + 1 {
        net.step(&mut opt, &x, &y, &mut rng);
    }
    let form = if full_sequence {
        "full_sequence"
    } else {
        "last_step"
    };
    let hist = registry.latency_histogram(&format!("train_step_ns.{form}"));
    let (p50, _) = time_loop(steps, &hist, || net.step(&mut opt, &x, &y, &mut rng));
    p50 as f64 / 1e6
}

/// Median nanoseconds a window of `autograd::fit`'s per-epoch validation
/// costs: [`validation_loss`] over the stacked batch's `BATCH_ROWS`
/// windows in batches of `TRAIN_BATCH`, on a context of its own as `fit`
/// holds one.
fn validation_window_ns(iters: usize, seed: u64, registry: &Registry) -> f64 {
    let net = TrainStepNet::new(false, seed);
    let mut rng = Rng::seed_from(seed ^ 0x7A11);
    let x = Tensor::rand_normal(&[BATCH_ROWS, WINDOW, FEATURES], 0.5, 0.2, &mut rng);
    let y = Tensor::rand_normal(&[BATCH_ROWS, 1], 0.5, 0.2, &mut rng);
    let mut ctx = InferenceContext::new();
    let mut validate = || {
        black_box(validation_loss(
            &net,
            &x,
            &y,
            TRAIN_BATCH,
            LossKind::Mse,
            &mut ctx,
        ));
    };
    for _ in 0..3 {
        validate();
    }
    let (p50, _) = time_loop(
        iters,
        &registry.latency_histogram("validation_ns"),
        validate,
    );
    p50 as f64 / BATCH_ROWS as f64
}

fn main() {
    let args = ExperimentArgs::parse();
    let iters = if args.quick { 40 } else { 400 };
    let warmup = iters / 10 + 1;
    let registry = Registry::new();

    let mut model = RptcnForecaster::paper_default();
    model.init_untrained(FEATURES, 1);
    let mut rng = Rng::seed_from(args.seed);
    let x = Tensor::rand_normal(&[1, WINDOW, FEATURES], 0.5, 0.2, &mut rng);

    for _ in 0..warmup {
        black_box(model.predict(&x));
        black_box(model.predict_taped(&x));
    }
    let (taped_p50, taped_p99) = time_loop(iters, &registry.latency_histogram("taped_ns"), || {
        black_box(model.predict_taped(&x));
    });
    let (free_p50, free_p99) =
        time_loop(iters, &registry.latency_histogram("tape_free_ns"), || {
            black_box(model.predict(&x));
        });
    let speedup = taped_p50 as f64 / free_p50.max(1) as f64;

    // Steady-state heap traffic: after warm-up the thread-local arena
    // satisfies every buffer request from its pool.
    let probe = 32u64;
    let before = autograd::infer::thread_context_allocs();
    for _ in 0..probe {
        black_box(model.predict(&x));
    }
    let allocs_per_forecast =
        (autograd::infer::thread_context_allocs() - before) as f64 / probe as f64;

    // Streaming push must cost the same no matter how much history the
    // stream has absorbed; the batch forward over the same history grows
    // linearly and is shown for contrast.
    let mut streaming = Vec::new();
    for &lookback in &LOOKBACKS {
        let mut stream = StreamingRptcn::new(&model).expect("paper config streams");
        let history = Tensor::rand_normal(&[1, lookback, FEATURES], 0.5, 0.2, &mut rng);
        for t in 0..lookback {
            stream.push(&history.as_slice()[t * FEATURES..(t + 1) * FEATURES]);
        }
        let sample: Vec<f32> = history.as_slice()[..FEATURES].to_vec();
        let push_hist = registry.latency_histogram(&format!("push_ns.lookback{lookback}"));
        let (push_p50, push_p99) = time_loop(iters, &push_hist, || {
            black_box(stream.push(&sample));
        });
        let batch_hist = registry.latency_histogram(&format!("batch_ns.lookback{lookback}"));
        let (batch_p50, _) = time_loop(warmup.max(10), &batch_hist, || {
            black_box(model.predict(&history));
        });
        streaming.push((lookback, push_p50, push_p99, batch_p50));
    }

    // GEMM microkernel vs the reference chains it reproduces, on
    // forward-pass shapes. Same inputs, bitwise-identical outputs — only the
    // clock differs.
    let mut gemm_rows = Vec::new();
    for &(label, m, k, n) in &GEMM_SHAPES {
        let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        let scalar_hist = registry.latency_histogram(&format!("gemm.scalar.{label}"));
        let (scalar_p50, _) = time_loop(iters, &scalar_hist, || {
            gemm::gemm_scalar(a.as_slice(), b.as_slice(), &mut out, m, k, n, false);
            black_box(&out);
        });
        let kernel_hist = registry.latency_histogram(&format!("gemm.kernel.{label}"));
        let (kernel_p50, _) = time_loop(iters, &kernel_hist, || {
            gemm::gemm_into(a.as_slice(), b.as_slice(), &mut out, m, k, n, false);
            black_box(&out);
        });
        let speedup = scalar_p50 as f64 / kernel_p50.max(1) as f64;
        gemm_rows.push((label, m, k, n, scalar_p50, kernel_p50, speedup));
    }
    let gemm_speedup_p50 = {
        let mut s: Vec<f64> = gemm_rows.iter().map(|r| r.6).collect();
        s.sort_by(|a, b| a.total_cmp(b));
        s[s.len() / 2]
    };

    // Per-layer breakdown: the kernels of one real forward pass.
    let (layer_rows, clock_read_p50, (install_p50, install_p99, install_convs)) =
        forward_pass_kernels(iters, &registry, &mut rng);
    let class_p50 = |class: &str| -> u64 {
        layer_rows
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.p50)
            .sum()
    };
    let layers_sum: u64 = layer_rows.iter().map(|r| r.p50).sum();

    // One training step, paper-default RPTCN at batch 64: the last-step
    // backbone against the full sequence followed by `select_time`. The
    // forms alternate so that a slow stretch of the host hits both.
    let train_steps = if args.quick { 12 } else { 60 };
    let mut last_ms = Vec::new();
    let mut full_ms = Vec::new();
    for round in 0..3 {
        last_ms.push(train_step_ms(
            false,
            train_steps,
            args.seed + round,
            &registry,
        ));
        full_ms.push(train_step_ms(
            true,
            train_steps,
            args.seed + round,
            &registry,
        ));
    }
    let median3 = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[1]
    };
    let (train_last_ms, train_full_ms) = (median3(&mut last_ms), median3(&mut full_ms));
    let validation_ns =
        validation_window_ns(if args.quick { 10 } else { 60 }, args.seed, &registry);

    // Window preparation: turning an entity's raw history into the model
    // input reads `window + copies - 1` clean rows, so its cost must not
    // move as the stream grows from 400 rows to 40 000.
    let bootstrap = cloudtrace::container::generate_container(
        &ContainerConfig::new(WorkloadClass::OnlineService, WINDOW_PREP_ROWS[0], args.seed)
            .with_diurnal_period(200),
    );
    let mut window_prep = Vec::new();
    for scenario in [Scenario::Mul, Scenario::MulExp] {
        let cfg = PipelineConfig {
            window: WINDOW,
            scenario,
            ..Default::default()
        };
        let (mut predictor, _) =
            ResourcePredictor::fit(Box::new(NaiveForecaster::new()), &bootstrap, cfg)
                .expect("bootstrap trace fits");
        let (_, _, features) = predictor.inference_window().expect("full window");
        let mut rows = Vec::new();
        for &history in &WINDOW_PREP_ROWS {
            while predictor.history_len() < history {
                let i = predictor.history_len() % bootstrap.len();
                let sample: Vec<f32> = (0..bootstrap.num_columns())
                    .map(|j| bootstrap.column_at(j)[i])
                    .collect();
                predictor.observe(&sample).expect("sample fits");
            }
            for _ in 0..warmup {
                black_box(predictor.inference_window().expect("full window"));
            }
            let hist =
                registry.latency_histogram(&format!("window_prep_ns.{scenario:?}.rows{history}"));
            let (p50, p99) = time_loop(iters, &hist, || {
                black_box(predictor.inference_window().expect("full window"));
            });
            rows.push((history, p50, p99));
        }
        let growth = rows[rows.len() - 1].1 as f64 / rows[0].1.max(1) as f64;
        window_prep.push((scenario, features, rows, growth));
    }

    // A stacked batch, the shape of `forecast_many`'s one engine call for a
    // cold shared group, run on the calling thread like every kernel. Each
    // round times the batch once and then lone forecasts, so a row and the
    // forecast it is held against see the same host.
    let x_batch = Tensor::rand_normal(&[BATCH_ROWS, WINDOW, FEATURES], 0.5, 0.2, &mut rng);
    let batch_iters = if args.quick { 10 } else { 60 };
    for _ in 0..3 {
        black_box(model.predict(&x_batch));
    }
    let (batch_hist, alone_hist) = (
        registry.latency_histogram("stacked_batch_ns"),
        registry.latency_histogram("stacked_alone_ns"),
    );
    let (mut batch_ns, mut alone_ns) = (Vec::new(), Vec::new());
    for _ in 0..batch_iters {
        batch_ns.extend(time_samples(1, &batch_hist, || {
            black_box(model.predict(&x_batch));
        }));
        alone_ns.extend(time_samples(8, &alone_hist, || {
            black_box(model.predict(&x));
        }));
    }
    let ((batch_p50, _), (alone_p50, _)) = (quantiles(batch_ns), quantiles(alone_ns));
    let row_ns = batch_p50 as f64 / BATCH_ROWS as f64;

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"host\": {},", bench_harness::host_json()).unwrap();
    writeln!(json, "  \"model\": \"RPTCN paper_default\",").unwrap();
    writeln!(
        json,
        "  \"config\": {{\"features\": {FEATURES}, \"window\": {WINDOW}, \"iters\": {iters}}},"
    )
    .unwrap();
    writeln!(json, "  \"single_entity_forecast_ns\": {{").unwrap();
    writeln!(json, "    \"taped_p50\": {taped_p50},").unwrap();
    writeln!(json, "    \"taped_p99\": {taped_p99},").unwrap();
    writeln!(json, "    \"tape_free_p50\": {free_p50},").unwrap();
    writeln!(json, "    \"tape_free_p99\": {free_p99},").unwrap();
    writeln!(json, "    \"speedup_p50\": {speedup:.2}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(
        json,
        "  \"allocations_per_forecast\": {allocs_per_forecast:.2},"
    )
    .unwrap();
    writeln!(json, "  \"streaming_push_ns\": [").unwrap();
    for (i, (lookback, p50, p99, batch)) in streaming.iter().enumerate() {
        let sep = if i + 1 == streaming.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"lookback\": {lookback}, \"push_p50\": {p50}, \"push_p99\": {p99}, \"batch_forward_p50\": {batch}}}{sep}"
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"gemm\": {{").unwrap();
    writeln!(json, "    \"shapes\": [").unwrap();
    for (i, (label, m, k, n, scalar, kernel, speedup)) in gemm_rows.iter().enumerate() {
        let sep = if i + 1 == gemm_rows.len() { "" } else { "," };
        writeln!(
            json,
            "      {{\"label\": \"{label}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \"scalar_p50_ns\": {scalar}, \"kernel_p50_ns\": {kernel}, \"speedup\": {speedup:.2}}}{sep}"
        )
        .unwrap();
    }
    writeln!(json, "    ],").unwrap();
    writeln!(json, "    \"speedup_p50\": {gemm_speedup_p50:.2}").unwrap();
    writeln!(json, "  }},").unwrap();
    let macs: Vec<String> = macs_per_forecast()
        .iter()
        .map(|(form, n)| format!("\"{form}\": {n}"))
        .collect();
    writeln!(json, "  \"macs_per_forecast\": {{{}}},", macs.join(", ")).unwrap();
    writeln!(json, "  \"per_layer_breakdown_ns\": {{").unwrap();
    for class in ["conv", "matmul", "pointwise"] {
        writeln!(json, "    \"{class}_p50\": {},", class_p50(class)).unwrap();
    }
    writeln!(json, "    \"sum_p50\": {layers_sum},").unwrap();
    writeln!(json, "    \"clock_read_p50\": {clock_read_p50},").unwrap();
    writeln!(json, "    \"tape_free_forecast_p50\": {free_p50},").unwrap();
    writeln!(
        json,
        "    \"share_of_forecast\": {:.2},",
        layers_sum as f64 / free_p50.max(1) as f64
    )
    .unwrap();
    writeln!(
        json,
        "    \"weight_install_ns\": {{\"p50\": {install_p50}, \"p99\": {install_p99}, \"convolutions\": {install_convs}}},"
    )
    .unwrap();
    writeln!(json, "    \"kernels\": [").unwrap();
    for (i, r) in layer_rows.iter().enumerate() {
        let sep = if i + 1 == layer_rows.len() { "" } else { "," };
        writeln!(
            json,
            "      {{\"name\": \"{}\", \"class\": \"{}\", \"shape\": \"{}\", \"p50\": {}, \"p99\": {}}}{sep}",
            r.name, r.class, r.shape, r.p50, r.p99
        )
        .unwrap();
    }
    writeln!(json, "    ]").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"train_step\": {{").unwrap();
    writeln!(json, "    \"batch\": {TRAIN_BATCH},").unwrap();
    writeln!(json, "    \"steps_per_form\": {},", 3 * train_steps).unwrap();
    writeln!(json, "    \"last_step_ms\": {train_last_ms:.3},").unwrap();
    writeln!(
        json,
        "    \"last_step_windows_per_s\": {:.0},",
        TRAIN_BATCH as f64 * 1e3 / train_last_ms
    )
    .unwrap();
    writeln!(json, "    \"full_sequence_ms\": {train_full_ms:.3},").unwrap();
    writeln!(
        json,
        "    \"full_sequence_windows_per_s\": {:.0},",
        TRAIN_BATCH as f64 * 1e3 / train_full_ms
    )
    .unwrap();
    writeln!(
        json,
        "    \"last_step_over_full_sequence\": {:.2},",
        train_last_ms / train_full_ms
    )
    .unwrap();
    writeln!(json, "    \"validation_window_ns\": {validation_ns:.0}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"window_prep_ns\": [").unwrap();
    for (i, (scenario, features, rows, growth)) in window_prep.iter().enumerate() {
        let sep = if i + 1 == window_prep.len() { "" } else { "," };
        let history: Vec<String> = rows
            .iter()
            .map(|(n, p50, p99)| format!("{{\"rows\": {n}, \"p50\": {p50}, \"p99\": {p99}}}"))
            .collect();
        writeln!(
            json,
            "    {{\"scenario\": \"{scenario:?}\", \"features\": {features}, \"history\": [{}], \"p50_growth\": {growth:.2}}}{sep}",
            history.join(", ")
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(
        json,
        "  \"stacked_batch\": {{\"rows\": {BATCH_ROWS}, \"batch_p50_ns\": {batch_p50}, \"row_ns\": {row_ns:.0}, \"alone_p50_ns\": {alone_p50}}},"
    )
    .unwrap();
    // Bucketed distribution summaries from the obs histograms that every
    // timing loop fed. The `*_p50`/`*_p99` fields above stay the exact
    // sorted-sample quantiles; these add count/mean/max and bucket-resolved
    // quantiles per instrument.
    let snap = registry.snapshot();
    writeln!(json, "  \"latency_histograms\": {{").unwrap();
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        let sep = if i + 1 == snap.histograms.len() {
            ""
        } else {
            ","
        };
        writeln!(
            json,
            "    \"{name}\": {{\"count\": {}, \"mean_ns\": {:.0}, \"p50_le_ns\": {}, \"p99_le_ns\": {}, \"max_ns\": {}}}{sep}",
            h.count,
            h.mean().unwrap_or(0.0),
            h.quantile(0.50).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0),
            h.max.unwrap_or(0),
        )
        .unwrap();
    }
    writeln!(json, "  }}").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write("BENCH_infer.json", &json).expect("write BENCH_infer.json");
    print!("{json}");
    eprintln!(
        "tape-free forecast: p50 {:.1}us vs taped {:.1}us ({speedup:.1}x), {allocs_per_forecast:.2} allocs/forecast",
        free_p50 as f64 / 1_000.0,
        taped_p50 as f64 / 1_000.0,
    );
    eprintln!(
        "forward-pass kernels: {:.1}us of the {:.1}us forecast; train step (batch {TRAIN_BATCH}): last-step {train_last_ms:.2}ms vs full-sequence {train_full_ms:.2}ms; validation {validation_ns:.0} ns a window",
        layers_sum as f64 / 1_000.0,
        free_p50 as f64 / 1_000.0,
    );
    for (scenario, _, rows, growth) in &window_prep {
        eprintln!(
            "window prep [{scenario:?}]: p50 {} ns at {} rows, {} ns at {} rows ({growth:.2}x)",
            rows[0].1,
            rows[0].0,
            rows[rows.len() - 1].1,
            rows[rows.len() - 1].0,
        );
    }
    eprintln!(
        "gemm: median {gemm_speedup_p50:.1}x over the scalar reference; stacked batch: {row_ns:.0} ns a row of {BATCH_ROWS}, {alone_p50} ns a lone forecast beside it",
    );
}
