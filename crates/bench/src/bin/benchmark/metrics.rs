//! The metric catalogue: every name the benchmark prints, with unit,
//! direction and (for end-to-end metrics) the regression bound. This
//! table is the source `BENCHMARK.json` is generated from
//! (`benchmark --print-benchmark-json`); a unit test keeps the two equal.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees. `failed_share` is printed beside
/// these but travels as the result line's `attempted`/`failed` counts,
/// because it is 0 at HEAD and a bound is a share of the parent's value.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("forecast_per_s", "1/s", Higher, 0.25),
    e2e("ingest_per_s", "1/s", Higher, 0.25),
    e2e("forecast_p50_us", "us", Lower, 0.25),
    e2e("forecast_p99_us", "us", Lower, 0.25),
    e2e("reserve_per_s", "1/s", Higher, 0.25),
    e2e("seed_per_s", "1/s", Higher, 0.25),
    e2e("migrate_per_s", "1/s", Higher, 0.25),
    e2e("fit_s", "s", Lower, 0.25),
    e2e("test_mae", "1", Lower, 0.01),
    e2e("test_mse", "1", Lower, 0.01),
    e2e("rolling_mae", "1", Lower, 0.12),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Single layers, traced run only, no bound. Names are `crate.module.*`.
pub const PER_LAYER: &[PerLayer] = &[
    layer("net.router.forecast_self_us", "us", Lower),
    layer("net.router.batch_self_us_per_entry", "us", Lower),
    layer("net.router.ingest_self_us_per_entry", "us", Lower),
    layer("net.wire.forecast_self_us", "us", Lower),
    layer("net.wire.ingest_self_us_per_entry", "us", Lower),
    layer("net.wire.rtt_floor_us", "us", Lower),
    layer("net.frame.encode_ns_per_entry", "ns", Lower),
    layer("net.frame.decode_ns_per_entry", "ns", Lower),
    layer("net.frame.bytes_per_ingest", "bytes", Lower),
    layer("net.frame.bytes_per_forecast", "bytes", Lower),
    layer("net.frame.bytes_per_migrated_entity", "bytes", Lower),
    layer("net.router.failed_over", "count", Lower),
    layer("net.router.healed", "count", Lower),
    layer("net.node.dedup_hits", "count", Lower),
    layer("serve.service.forecast_self_us", "us", Lower),
    layer(
        "serve.service.forecast_many_self_us_per_entity",
        "us",
        Lower,
    ),
    layer("serve.ingest.enqueue_us", "us", Lower),
    layer("serve.ingest.drain_ms_per_tick", "ms", Lower),
    layer("serve.queue_depth_max", "count", Lower),
    layer("serve.batched_share", "share", Higher),
    layer("serve.batch_rows_mean", "count", Higher),
    layer("serve.shard.busy_share", "share", Lower),
    layer("serve.reserve_self_us_per_entity", "us", Lower),
    layer("core.predictor.window_us", "us", Lower),
    layer("core.predictor.observe_us", "us", Lower),
    layer("core.predictor.forecast_self_us", "us", Lower),
    layer("core.decide.reserve_ns", "ns", Lower),
    layer("core.decide.settle_ns", "ns", Lower),
    layer("core.pipeline.prepare_ms", "ms", Lower),
    layer("models.rptcn.predict_us", "us", Lower),
    layer("models.rptcn.predict_batch_us_per_row", "us", Lower),
    layer("models.streaming.push_us", "us", Lower),
    layer("models.naive.predict_ns", "ns", Lower),
    layer("models.rptcn.nonkernel_self_us", "us", Lower),
    layer("autograd.conv.ns_per_forecast", "ns", Lower),
    layer("autograd.infer.pointwise_ns_per_forecast", "ns", Lower),
    layer("autograd.infer.allocs_per_forecast", "count", Lower),
    layer("tensor.gemm.ns_per_forecast", "ns", Lower),
    layer("tensor.gemm.flop_per_forecast", "count", Lower),
    layer("tensor.gemm.gflops_stacked", "gflop/s", Higher),
    layer("autograd.train.step_ms", "ms", Lower),
    layer("autograd.train.windows_per_s", "1/s", Higher),
    layer("autograd.train.epochs_run", "count", Higher),
    layer("trace.generate_ms_per_entity", "ms", Lower),
    layer("bench.trace_overhead_share", "share", Lower),
];

/// The workloads, in run order, each with why it was chosen.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "fleet_rptcn",
        "every layer on: 256 RPTCN entities behind FleetRouter over loopback, wire, queue hop and kernels each hold a visible share",
    ),
    (
        "fleet_wire",
        "net does the work: 100k Naive entities, so encode/socket/decode/dispatch dominate and kernel changes must show nothing",
    ),
    (
        "serve_local",
        "serve+core+models+kernels without net: batched forecasts and score-on-ingest are compute-bound, the decision layer is on the path",
    ),
    (
        "train_eval",
        "the same autograd/tensor layers run as training (taped forward, backward, Adam) plus bare core predictors; serve and net are off",
    ),
];

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

/// `BENCHMARK.json`, generated from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"crates/bench/src/bin/benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"crates/bench/src/bin/benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.label()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_repo_root_matches_the_catalogue() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark --print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "bad name {n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200));
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
