//! Online autoscaling loop: an [`rptcn::ResourcePredictor`] ingests live
//! monitoring samples one interval at a time, forecasts the next interval's
//! CPU demand, and an allocator acts on it — including across a sudden
//! workload mutation, the regime the paper targets.
//!
//! ```sh
//! cargo run --release --example online_autoscaler
//! ```

use cloudtrace::{ContainerConfig, WorkloadClass};
use models::{GbtConfig, GbtForecaster};
use rptcn::{DecisionConfig, DecisionPlanner, PipelineConfig, ResourcePredictor, Scenario};

fn main() {
    // Full trace: the second half contains a persistent usage jump.
    let steps = 1600;
    let frame = cloudtrace::container::generate_container(
        &ContainerConfig::new(WorkloadClass::OnlineService, steps, 99)
            .with_diurnal_period(600)
            .with_mutation(1200, 0.35),
    );
    let bootstrap = frame.slice_rows(0, 800).expect("bootstrap slice");

    // A gradient-boosted predictor keeps per-step retraining cheap in an
    // online loop; swap in RptcnForecaster for the full model.
    let model = GbtForecaster::new(GbtConfig {
        n_rounds: 60,
        ..Default::default()
    });
    let cfg = PipelineConfig {
        scenario: Scenario::Mul,
        window: 30,
        ..Default::default()
    };
    let (mut predictor, fit_run) =
        ResourcePredictor::fit(Box::new(model), &bootstrap, cfg).expect("bootstrap fit");
    predictor.set_refit_every(400);
    println!(
        "bootstrapped on 800 samples; test MSE {:.4}x1e-2",
        fit_run.test_metrics.mse * 100.0
    );

    let mut planner = DecisionPlanner::new(DecisionConfig::default(), 128);
    let cpu = frame.column("cpu_util_percent").unwrap().to_vec();
    let mut refits = 0;
    #[allow(clippy::needless_range_loop)] // t is wall-clock time, not just an index
    for t in 800..steps {
        // Forecast, allocate, then observe reality.
        let forecast = predictor.forecast().expect("forecast")[0];
        let allocation = planner.reserve(forecast).reservation;
        let actual = cpu[t];
        planner.settle(forecast, allocation, actual);

        let sample: Vec<f32> = (0..frame.num_columns())
            .map(|j| frame.column_at(j)[t])
            .collect();
        if predictor.observe(&sample).expect("observe") {
            refits += 1;
        }
        if t % 200 == 0 {
            println!(
                "t={t:>5}  actual {actual:.3}  forecast {forecast:.3}  allocated {allocation:.3}"
            );
        }
    }

    let stats = planner.stats();
    println!(
        "\nran {} live decisions with {refits} periodic refits",
        stats.decisions
    );
    println!(
        "violation rate {:.1}%   mean waste {:.1}% of capacity",
        100.0 * stats.violation_rate(),
        100.0 * stats.mean_waste()
    );
    println!("the mutation at t=1200 shows in the residuals: the planner's conformal margin widens after the level shift.");
}
