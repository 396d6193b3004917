//! Capacity planning — the use-case the paper motivates: drive a CPU
//! allocator from forecasts and compare RPTCN-driven allocation against a
//! persistence-driven one on the same high-dynamic trace. Reports SLO
//! violation rate (under-allocation) and mean idle capacity (waste).
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use cloudtrace::{ContainerConfig, WorkloadClass};
use models::{NaiveForecaster, NeuralTrainSpec, RptcnConfig, RptcnForecaster};
use rptcn::{prepare, run_model, DecisionConfig, DecisionPlanner, PipelineConfig, Scenario};

fn plan(name: &str, predictions: &[f32], actuals: &[f32]) {
    let mut planner = DecisionPlanner::new(DecisionConfig::default(), 128);
    let stats = planner.replay(predictions, actuals);
    println!(
        "{name:<12} violations {:>5.1}%   mean waste {:>5.1}% of capacity   total deficit {:.2}",
        100.0 * stats.violation_rate(),
        100.0 * stats.mean_waste(),
        stats.total_deficit,
    );
}

fn main() {
    let frame = cloudtrace::container::generate_container(
        &ContainerConfig::new(WorkloadClass::HighDynamic, 2500, 7).with_diurnal_period(720),
    );
    let cfg = PipelineConfig {
        scenario: Scenario::MulExp,
        window: 30,
        ..Default::default()
    };
    let data = prepare(&frame, &cfg).expect("pipeline");

    println!("training RPTCN for the allocator ...");
    let mut model = RptcnForecaster::new(RptcnConfig {
        spec: NeuralTrainSpec {
            epochs: 20,
            learning_rate: 2e-3,
            ..Default::default()
        },
        ..Default::default()
    });
    let rptcn_run = run_model(&mut model, &data);
    let naive_run = run_model(&mut NaiveForecaster::new(), &data);

    println!(
        "\nreplaying {} test intervals through the capacity planner:",
        rptcn_run.truth.len()
    );
    plan("RPTCN", &rptcn_run.predictions, &rptcn_run.truth);
    plan("Naive", &naive_run.predictions, &naive_run.truth);
    plan("Oracle", &rptcn_run.truth, &rptcn_run.truth);
    println!(
        "\nreading: a better predictor buys a lower violation rate at the same \
         headroom, or the same violations with less reserved-but-idle CPU."
    );
}
