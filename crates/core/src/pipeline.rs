//! The paper's Algorithm 1 ("Dynamic Resource Prediction") as a typed
//! pipeline: clean → normalise → correlation-screen → expand → window →
//! split → fit/predict.

use models::{FitReport, Forecaster};
use timeseries::{
    clean, make_windows, metrics, split_windows, Expansion, FrameError, MinMaxScaler, RepairPolicy,
    SplitRatios, TimeSeriesFrame, WindowedDataset,
};

use crate::scenario::Scenario;

/// Pipeline hyper-parameters. Defaults follow the paper's setup: CPU
/// utilisation target, window of 30 ten-second samples, one-step horizon,
/// 6:2:2 chronological split, three-way horizontal expansion.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    pub target: String,
    pub scenario: Scenario,
    pub window: usize,
    pub horizon: usize,
    pub ratios: SplitRatios,
    pub repair: RepairPolicy,
    /// Lag copies per indicator in the Mul-Exp scenario (paper: 3).
    pub expansion_copies: usize,
    /// Which rows the min-max scaler is fitted on.
    pub scaler_scope: ScalerScope,
}

/// Span the eq.-(1) normalisation is fitted on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalerScope {
    /// Fit on the training rows only — strictly leak-free (our default).
    TrainOnly,
    /// Fit on the whole series — the paper's Algorithm 1 normalises before
    /// splitting. Use when a test-segment level shift would otherwise push
    /// targets outside the trainable range (e.g. the Fig. 8 mutation).
    Global,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            target: "cpu_util_percent".to_string(),
            scenario: Scenario::MulExp,
            window: 30,
            horizon: 1,
            ratios: SplitRatios::PAPER,
            repair: RepairPolicy::DropRows,
            expansion_copies: 3,
            scaler_scope: ScalerScope::TrainOnly,
        }
    }
}

/// The fully prepared, model-ready data for one entity.
#[derive(Debug, Clone)]
pub struct PreparedData {
    pub train: WindowedDataset,
    pub valid: WindowedDataset,
    pub test: WindowedDataset,
    /// Scaler fitted on the training rows only (leak-free; the paper
    /// normalises globally, which we tighten here).
    pub scaler: MinMaxScaler,
    /// Indicator names that survived correlation screening.
    pub selected: Vec<String>,
    /// Name of the target column inside the expanded feature set.
    pub expanded_target: String,
}

impl PreparedData {
    /// De-normalise predictions back to raw utilisation units.
    pub fn denormalize(&self, target_original: &str, values: &[f32]) -> Vec<f32> {
        self.scaler
            .inverse_transform_column(target_original, values)
    }

    /// Extract the state a live predictor must keep after fitting — the
    /// windowed datasets are training artifacts and can be dropped.
    pub fn fitted(&self) -> FittedPreprocess {
        FittedPreprocess {
            scaler: self.scaler.clone(),
            selected: self.selected.clone(),
            expanded_target: self.expanded_target.clone(),
        }
    }
}

/// The preprocessing state captured at fit time that online serving needs:
/// which indicators survived screening, the fitted scaler, and the expanded
/// target name. Unlike [`PreparedData`] it carries no datasets, so it is
/// cheap to clone and small enough to checkpoint.
#[derive(Debug, Clone)]
pub struct FittedPreprocess {
    pub scaler: MinMaxScaler,
    pub selected: Vec<String>,
    pub expanded_target: String,
}

/// Run Algorithm 1 steps 1–5 on a raw entity frame.
pub fn prepare(frame: &TimeSeriesFrame, cfg: &PipelineConfig) -> Result<PreparedData, FrameError> {
    if !frame.names().iter().any(|n| n == &cfg.target) {
        return Err(FrameError(format!("target '{}' not in frame", cfg.target)));
    }

    // Step 1: DataClean.
    let (cleaned, _) = clean(frame, cfg.repair);
    if cleaned.len() < (cfg.window + cfg.horizon) * 3 {
        return Err(FrameError(format!(
            "only {} clean rows; too short for window {} + horizon {}",
            cleaned.len(),
            cfg.window,
            cfg.horizon
        )));
    }

    // Steps 3-4: correlation screening on the *training* span only, so the
    // indicator choice cannot peek at the future.
    let (train_end, _) = cfg.ratios.boundaries(cleaned.len());
    let train_span = cleaned.slice_rows(0, train_end)?;
    let selected: Vec<String> = match cfg.scenario {
        Scenario::Uni => vec![cfg.target.clone()],
        Scenario::Mul | Scenario::MulExp => timeseries::screen_top_half(&train_span, &cfg.target)?,
    };
    let selected_refs: Vec<&str> = selected.iter().map(String::as_str).collect();
    let screened = cleaned.select(&selected_refs)?;

    // Step 2: normalisation (eq. 1).
    let scaler = match cfg.scaler_scope {
        ScalerScope::TrainOnly => MinMaxScaler::fit(&screened.slice_rows(0, train_end)?),
        ScalerScope::Global => MinMaxScaler::fit(&screened),
    };
    let normalized = scaler.transform(&screened);

    // Step 5: data expansion.
    let (expanded, expanded_target) = match cfg.scenario {
        Scenario::MulExp => {
            let e = Expansion::Horizontal {
                copies: cfg.expansion_copies,
            };
            (e.apply(&normalized)?, format!("{}#lag0", cfg.target))
        }
        _ => (normalized, cfg.target.clone()),
    };

    // Windowing + chronological split.
    let ds = make_windows(&expanded, &expanded_target, cfg.window, cfg.horizon)?;
    let (train, valid, test) = split_windows(&ds, cfg.ratios);
    if train.is_empty() || test.is_empty() {
        return Err(FrameError("split produced an empty partition".into()));
    }
    Ok(PreparedData {
        train,
        valid,
        test,
        scaler,
        selected,
        expanded_target,
    })
}

/// Result of fitting and evaluating one model on prepared data.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    pub model_name: String,
    pub fit: FitReport,
    /// Test-set metrics in normalised units (multiply MSE/MAE by 10² to
    /// compare with Table II's `×10⁻²` convention).
    pub test_metrics: metrics::MetricReport,
    pub truth: Vec<f32>,
    pub predictions: Vec<f32>,
}

/// Normalised utilisation lives in `[0, 1]` on the training span; allowing
/// a 20 % extrapolation margin tolerates test values beyond the training
/// maximum while cutting off unphysical model outputs.
const PREDICTION_CLAMP: (f32, f32) = (0.0, 1.2);

/// Algorithm 1 step 6: fit `model` on the prepared data (with validation
/// for early stopping) and evaluate on the held-out test windows.
/// Predictions are clamped to the physically meaningful range before
/// scoring (utilisation cannot be negative or far above capacity).
pub fn run_model(model: &mut dyn Forecaster, data: &PreparedData) -> PipelineRun {
    let valid = if data.valid.is_empty() {
        None
    } else {
        Some(&data.valid)
    };
    let fit = model.fit(&data.train, valid);
    let (truth, mut predictions) = model.evaluate(&data.test);
    for p in &mut predictions {
        *p = p.clamp(PREDICTION_CLAMP.0, PREDICTION_CLAMP.1);
    }
    PipelineRun {
        model_name: model.name().to_string(),
        fit,
        test_metrics: metrics::report(&truth, &predictions),
        truth,
        predictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtrace::{ContainerConfig, WorkloadClass};
    use models::NaiveForecaster;

    fn container_frame() -> TimeSeriesFrame {
        cloudtrace::container::generate_container(
            &ContainerConfig::new(WorkloadClass::HighDynamic, 1200, 11).with_diurnal_period(400),
        )
    }

    #[test]
    fn uni_scenario_keeps_only_target() {
        let data = prepare(
            &container_frame(),
            &PipelineConfig {
                scenario: Scenario::Uni,
                window: 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(data.selected, vec!["cpu_util_percent".to_string()]);
        assert_eq!(data.train.num_features(), 1);
        assert_eq!(data.expanded_target, "cpu_util_percent");
    }

    #[test]
    fn mul_scenario_keeps_top_half() {
        let data = prepare(
            &container_frame(),
            &PipelineConfig {
                scenario: Scenario::Mul,
                window: 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(data.selected.len(), 4); // ceil(8/2)
        assert_eq!(data.selected[0], "cpu_util_percent");
        assert_eq!(data.train.num_features(), 4);
    }

    #[test]
    fn mul_exp_scenario_triples_features() {
        let data = prepare(
            &container_frame(),
            &PipelineConfig {
                scenario: Scenario::MulExp,
                window: 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(data.train.num_features(), 12); // 4 indicators x 3 lags
        assert_eq!(data.expanded_target, "cpu_util_percent#lag0");
        // The expanded target index must point at the lag-0 CPU column.
        let names = &data.train.feature_names;
        assert_eq!(names[data.train.target_index], "cpu_util_percent#lag0");
    }

    #[test]
    fn split_fractions_are_respected() {
        let data = prepare(
            &container_frame(),
            &PipelineConfig {
                window: 10,
                ..Default::default()
            },
        )
        .unwrap();
        let total = data.train.len() + data.valid.len() + data.test.len();
        let train_frac = data.train.len() as f64 / total as f64;
        assert!(
            (train_frac - 0.6).abs() < 0.02,
            "train fraction {train_frac}"
        );
    }

    #[test]
    fn features_are_normalised() {
        let data = prepare(
            &container_frame(),
            &PipelineConfig {
                window: 10,
                ..Default::default()
            },
        )
        .unwrap();
        // Training windows live in [0, 1] by construction of the scaler.
        for &v in data.train.x.as_slice() {
            assert!((-0.01..=1.01).contains(&v), "unnormalised value {v}");
        }
    }

    #[test]
    fn run_model_produces_consistent_report() {
        let data = prepare(
            &container_frame(),
            &PipelineConfig {
                window: 10,
                scenario: Scenario::Uni,
                ..Default::default()
            },
        )
        .unwrap();
        let mut naive = NaiveForecaster::new();
        let run = run_model(&mut naive, &data);
        assert_eq!(run.model_name, "Naive");
        assert_eq!(run.truth.len(), run.predictions.len());
        assert_eq!(run.truth.len(), data.test.len());
        assert!(run.test_metrics.mse > 0.0);
        assert!(run.test_metrics.mse.is_finite());
    }

    #[test]
    fn denormalize_roundtrip() {
        let frame = container_frame();
        let data = prepare(
            &frame,
            &PipelineConfig {
                window: 10,
                scenario: Scenario::Uni,
                ..Default::default()
            },
        )
        .unwrap();
        let normalized = [0.0f32, 0.5, 1.0];
        let raw = data.denormalize("cpu_util_percent", &normalized);
        let (min, max) = data.scaler.bounds("cpu_util_percent").unwrap();
        assert!((raw[0] - min).abs() < 1e-6);
        assert!((raw[2] - max).abs() < 1e-6);
    }

    #[test]
    fn too_short_frame_errors() {
        let frame = TimeSeriesFrame::from_columns(&[("cpu_util_percent", vec![0.5; 20])]).unwrap();
        assert!(prepare(&frame, &PipelineConfig::default()).is_err());
    }

    #[test]
    fn missing_target_errors() {
        let frame = TimeSeriesFrame::from_columns(&[("mem", vec![0.5; 200])]).unwrap();
        assert!(prepare(&frame, &PipelineConfig::default()).is_err());
    }

    #[test]
    fn dirty_rows_are_repaired() {
        let mut frame = container_frame();
        frame.column_mut("cpu_util_percent").unwrap()[100] = f32::NAN;
        frame.column_mut("mpki").unwrap()[200] = f32::INFINITY;
        let data = prepare(
            &frame,
            &PipelineConfig {
                window: 10,
                repair: RepairPolicy::Interpolate,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(data.train.x.all_finite());
        assert!(data.test.x.all_finite());
    }
}
