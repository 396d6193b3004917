//! Inference-engine microbenchmark: taped vs tape-free single-entity
//! forecast latency at the paper configuration (RPTCN channels 16, levels
//! 4, kernel 3; lookback 30), steady-state scratch-arena allocations per
//! forecast, streaming-push latency across lookback lengths (flat ⇒
//! O(1) in window length), the runtime-dispatched GEMM microkernel vs its
//! scalar twin on representative layer shapes, a per-layer breakdown
//! (conv vs matmul vs pointwise), window-preparation latency across
//! history lengths (flat ⇒ a forecast does not re-preprocess the
//! entity's history), and stacked-batch throughput across
//! batch-executor worker counts. Emits `BENCH_infer.json` for the CI
//! smoke job; every timing loop also feeds an `obs` histogram, so the
//! report carries full bucketed distributions alongside the exact sorted
//! quantiles.
//!
//! Flags: `--quick` cuts iteration counts, `--seed` varies the weights.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use autograd::batch_exec::BatchExecutor;
use autograd::conv1d_into;
use autograd::infer::{relu_in_place, softmax_rows_in_place};
use bench_harness::ExperimentArgs;
use cloudtrace::{ContainerConfig, WorkloadClass};
use models::{Forecaster, NaiveForecaster, RptcnForecaster, StreamingRptcn};
use obs::{Histogram, Registry};
use rptcn::{PipelineConfig, ResourcePredictor, Scenario};
use tensor::gemm::{self, Tier};
use tensor::{Rng, Tensor};

const FEATURES: usize = 8;
const WINDOW: usize = 30;
const LOOKBACKS: [usize; 3] = [32, 64, 128];
/// Stacked batch size for the executor-scaling section — large enough that
/// `predict` always takes the parallel path.
const BATCH_ROWS: usize = 128;
/// Worker counts swept by the executor-scaling section.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
/// History lengths for the window-preparation section: a monitoring
/// stream an hour, ten hours and four days old at 10 s samples.
const WINDOW_PREP_ROWS: [usize; 3] = [400, 4_000, 40_000];
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
fn time_loop(iters: usize, hist: &Histogram, mut f: impl FnMut()) -> (u64, u64) {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        let ns = t.elapsed().as_nanos() as u64;
        hist.record(ns);
        samples.push(ns);
    }
    quantiles(samples)
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

    // GEMM microkernel vs its scalar twin on forward-pass shapes. The
    // dispatched path picks the best runtime tier (FMA/AVX/scalar); the
    // baseline forces the scalar tier, i.e. the exact code a non-x86 or
    // Miri build runs. Same inputs, bitwise-identical outputs — only the
    // clock differs.
    let gemm_tier = gemm::active_tier();
    let mut gemm_rows = Vec::new();
    for &(label, m, k, n) in &GEMM_SHAPES {
        let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        let scalar_hist = registry.latency_histogram(&format!("gemm.scalar.{label}"));
        let (scalar_p50, _) = time_loop(iters, &scalar_hist, || {
            gemm::gemm_with_tier(
                Tier::Scalar,
                a.as_slice(),
                b.as_slice(),
                &mut out,
                m,
                k,
                n,
                false,
            );
            black_box(&out);
        });
        let dispatch_hist = registry.latency_histogram(&format!("gemm.dispatch.{label}"));
        let (dispatch_p50, _) = time_loop(iters, &dispatch_hist, || {
            gemm::gemm_into(a.as_slice(), b.as_slice(), &mut out, m, k, n, false);
            black_box(&out);
        });
        let speedup = scalar_p50 as f64 / dispatch_p50.max(1) as f64;
        gemm_rows.push((label, m, k, n, scalar_p50, dispatch_p50, speedup));
    }
    let gemm_speedup_p50 = {
        let mut s: Vec<f64> = gemm_rows.iter().map(|r| r.6).collect();
        s.sort_by(|a, b| a.total_cmp(b));
        s[s.len() / 2]
    };

    // Per-layer breakdown: one representative kernel invocation per layer
    // family at the paper-default shapes, each feeding its own obs
    // histogram. Shows where a forecast's nanoseconds actually go.
    let conv_x = Tensor::rand_normal(&[1, FEATURES, WINDOW], 0.0, 1.0, &mut rng);
    let conv_w = Tensor::rand_normal(&[16, FEATURES, 3], 0.0, 0.3, &mut rng);
    let mut conv_out = vec![0.0f32; 16 * WINDOW];
    let (conv_p50, conv_p99) =
        time_loop(iters, &registry.latency_histogram("layer.conv_ns"), || {
            conv1d_into(
                conv_x.as_slice(),
                conv_w.as_slice(),
                &mut conv_out,
                1,
                FEATURES,
                16,
                WINDOW,
                3,
                1,
            );
            black_box(&conv_out);
        });
    let fc_a = Tensor::rand_normal(&[WINDOW, 16], 0.0, 1.0, &mut rng);
    let fc_b = Tensor::rand_normal(&[16, 32], 0.0, 1.0, &mut rng);
    let mut fc_out = vec![0.0f32; WINDOW * 32];
    let (matmul_p50, matmul_p99) = time_loop(
        iters,
        &registry.latency_histogram("layer.matmul_ns"),
        || {
            gemm::gemm_into(
                fc_a.as_slice(),
                fc_b.as_slice(),
                &mut fc_out,
                WINDOW,
                16,
                32,
                false,
            );
            black_box(&fc_out);
        },
    );
    let mut act = vec![0.0f32; WINDOW * 32];
    let mut scores = vec![0.0f32; WINDOW * WINDOW];
    let (pointwise_p50, pointwise_p99) = time_loop(
        iters,
        &registry.latency_histogram("layer.pointwise_ns"),
        || {
            act.copy_from_slice(fc_out.as_slice());
            relu_in_place(&mut act);
            for (i, s) in scores.iter_mut().enumerate() {
                *s = (i % 17) as f32 * 0.1;
            }
            softmax_rows_in_place(&mut scores, WINDOW, WINDOW);
            black_box((&act, &scores));
        },
    );

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

    // Stacked-batch throughput across explicit worker pools. Each pool is
    // built fresh so one process can sweep worker counts; `predict` itself
    // uses the identical code path through the process-global pool. On a
    // 1-core host the sweep is flat — `available_parallelism` is recorded
    // so readers can tell capped from broken scaling.
    let x_batch = Tensor::rand_normal(&[BATCH_ROWS, WINDOW, FEATURES], 0.5, 0.2, &mut rng);
    let batch_iters = if args.quick { 10 } else { 60 };
    let mut scaling = Vec::new();
    let mut best_fps = 0.0f64;
    for &w in &WORKER_COUNTS {
        let exec = BatchExecutor::new(w);
        for _ in 0..3 {
            black_box(model.predict_with_executor(&x_batch, &exec));
        }
        let hist = registry.latency_histogram(&format!("batch_exec.workers{w}_ns"));
        let (p50, _) = time_loop(batch_iters, &hist, || {
            black_box(model.predict_with_executor(&x_batch, &exec));
        });
        let fps = BATCH_ROWS as f64 * 1e9 / p50.max(1) as f64;
        best_fps = best_fps.max(fps);
        scaling.push((w, exec.pinned_workers(), p50, fps));
    }
    let available_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
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
    writeln!(json, "    \"tier\": \"{}\",", gemm_tier.name()).unwrap();
    writeln!(json, "    \"shapes\": [").unwrap();
    for (i, (label, m, k, n, scalar, dispatch, speedup)) in gemm_rows.iter().enumerate() {
        let sep = if i + 1 == gemm_rows.len() { "" } else { "," };
        writeln!(
            json,
            "      {{\"label\": \"{label}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \"scalar_p50_ns\": {scalar}, \"dispatch_p50_ns\": {dispatch}, \"speedup\": {speedup:.2}}}{sep}"
        )
        .unwrap();
    }
    writeln!(json, "    ],").unwrap();
    writeln!(json, "    \"speedup_p50\": {gemm_speedup_p50:.2}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"per_layer_breakdown_ns\": {{").unwrap();
    writeln!(json, "    \"conv_p50\": {conv_p50},").unwrap();
    writeln!(json, "    \"conv_p99\": {conv_p99},").unwrap();
    writeln!(json, "    \"matmul_p50\": {matmul_p50},").unwrap();
    writeln!(json, "    \"matmul_p99\": {matmul_p99},").unwrap();
    writeln!(json, "    \"pointwise_p50\": {pointwise_p50},").unwrap();
    writeln!(json, "    \"pointwise_p99\": {pointwise_p99}").unwrap();
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
    writeln!(json, "  \"batch_executor\": {{").unwrap();
    writeln!(json, "    \"rows\": {BATCH_ROWS},").unwrap();
    writeln!(
        json,
        "    \"available_parallelism\": {available_parallelism},"
    )
    .unwrap();
    writeln!(json, "    \"scaling\": [").unwrap();
    for (i, (w, pinned, p50, fps)) in scaling.iter().enumerate() {
        let sep = if i + 1 == scaling.len() { "" } else { "," };
        writeln!(
            json,
            "      {{\"workers\": {w}, \"pinned_workers\": {pinned}, \"batch_p50_ns\": {p50}, \"forecasts_per_sec\": {fps:.0}}}{sep}"
        )
        .unwrap();
    }
    writeln!(json, "    ],").unwrap();
    writeln!(json, "    \"forecasts_per_sec_aggregate\": {best_fps:.0}").unwrap();
    writeln!(json, "  }},").unwrap();
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
        "gemm [{}]: median {gemm_speedup_p50:.1}x over scalar; batch executor: {best_fps:.0} forecasts/sec aggregate ({available_parallelism} cores)",
        gemm_tier.name(),
    );
}
