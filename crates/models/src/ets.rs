//! Exponential-smoothing (Holt–Winters) forecaster — the classic
//! regression-family baseline from the paper's related work (§VI-A).
//! Supports simple, trend (Holt) and additive-seasonal (Winters) variants;
//! smoothing constants are selected by grid search over the in-sample
//! one-step squared error.

use std::time::Instant;

use tensor::Tensor;
use timeseries::WindowedDataset;

use crate::arima::reconstruct_target_series;
use crate::forecaster::{FitReport, Forecaster};

/// Which exponential-smoothing variant to fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EtsVariant {
    /// Level only (simple exponential smoothing).
    Simple,
    /// Level + additive trend (Holt's linear method, damped).
    Trend,
    /// Level + trend + additive seasonality with the given period.
    Seasonal { period: usize },
}

/// ETS hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EtsConfig {
    pub variant: EtsVariant,
    /// Grid resolution for the smoothing-constant search.
    pub grid: usize,
    /// Trend damping factor (1 = undamped).
    pub damping: f64,
}

impl Default for EtsConfig {
    fn default() -> Self {
        Self {
            variant: EtsVariant::Trend,
            grid: 8,
            damping: 0.95,
        }
    }
}

/// Holt–Winters state fitted to a series.
#[derive(Debug, Clone)]
pub struct EtsForecaster {
    config: EtsConfig,
    alpha: f64,
    beta: f64,
    gamma: f64,
    target_index: usize,
    horizon: usize,
    fitted: bool,
}

impl EtsForecaster {
    pub fn new(config: EtsConfig) -> Self {
        Self {
            config,
            alpha: 0.5,
            beta: 0.1,
            gamma: 0.1,
            target_index: 0,
            horizon: 1,
            fitted: false,
        }
    }

    /// One-step-ahead in-sample SSE for a candidate parameterisation.
    fn sse(&self, series: &[f32], alpha: f64, beta: f64, gamma: f64) -> f64 {
        let mut sse = 0.0;
        let mut count = 0usize;
        run_smoother(series, self.config, alpha, beta, gamma, |pred, actual| {
            let e = pred - actual as f64;
            sse += e * e;
            count += 1;
        });
        if count == 0 {
            f64::INFINITY
        } else {
            sse / count as f64
        }
    }

    /// Grid-search the smoothing constants on a raw series.
    pub fn fit_series(&mut self, series: &[f32]) {
        assert!(series.len() >= 8, "series too short for ETS");
        let grid = self.config.grid.max(2);
        let candidates: Vec<f64> = (1..=grid).map(|i| i as f64 / (grid + 1) as f64).collect();
        let mut best = (f64::INFINITY, 0.5, 0.1, 0.1);
        let needs_beta = !matches!(self.config.variant, EtsVariant::Simple);
        let needs_gamma = matches!(self.config.variant, EtsVariant::Seasonal { .. });
        for &a in &candidates {
            let betas: &[f64] = if needs_beta { &candidates } else { &[0.0] };
            for &b in betas {
                let gammas: &[f64] = if needs_gamma { &candidates } else { &[0.0] };
                for &g in gammas {
                    let sse = self.sse(series, a, b, g);
                    if sse < best.0 {
                        best = (sse, a, b, g);
                    }
                }
            }
        }
        self.alpha = best.1;
        self.beta = best.2;
        self.gamma = best.3;
        self.fitted = true;
    }

    /// Forecast `horizon` values following `history`.
    pub fn forecast(&self, history: &[f32], horizon: usize) -> Vec<f32> {
        assert!(self.fitted, "forecast before fit");
        let state = final_state(history, self.config, self.alpha, self.beta, self.gamma);
        (1..=horizon)
            .map(|h| state.predict(h, self.config) as f32)
            .collect()
    }
}

/// Smoother state: level, trend and seasonal components.
struct SmootherState {
    level: f64,
    trend: f64,
    seasonal: Vec<f64>,
    t: usize,
    damping: f64,
}

impl SmootherState {
    fn predict(&self, h: usize, cfg: EtsConfig) -> f64 {
        // Damped-trend extrapolation: sum of phi^1..phi^h.
        let phi_sum: f64 = (1..=h).map(|i| self.damping.powi(i as i32)).sum();
        let mut out = self.level + phi_sum * self.trend;
        if let EtsVariant::Seasonal { period } = cfg.variant {
            if period > 0 && !self.seasonal.is_empty() {
                // `t` is the index of the last observed sample, so the
                // sample being forecast sits at index t + h.
                out += self.seasonal[(self.t + h) % period];
            }
        }
        out
    }
}

/// Run the additive Holt–Winters recursion over `series`, invoking
/// `on_step(prediction, actual)` for each one-step-ahead forecast, and
/// return the final state.
fn run_smoother(
    series: &[f32],
    cfg: EtsConfig,
    alpha: f64,
    beta: f64,
    gamma: f64,
    mut on_step: impl FnMut(f64, f32),
) -> SmootherState {
    let period = match cfg.variant {
        EtsVariant::Seasonal { period } => period.max(1),
        _ => 1,
    };
    // Initialise the level from the first season's mean and the seasonal
    // components from the deviations within it — the standard Holt–Winters
    // warm start, without which the recursion spends the whole first cycle
    // absorbing the seasonal signal into the trend.
    let warm = period.min(series.len());
    let level0 = tensor::stats::mean(&series[..warm]);
    let seasonal0: Vec<f64> = (0..period)
        .map(|i| {
            if i < warm {
                series[i] as f64 - level0
            } else {
                0.0
            }
        })
        .collect();
    let mut state = SmootherState {
        level: level0,
        // The raw first difference is season-contaminated, so the seasonal
        // variant starts trendless.
        trend: if series.len() > 1 && period == 1 {
            (series[1] - series[0]) as f64
        } else {
            0.0
        },
        seasonal: seasonal0,
        t: 0,
        damping: cfg.damping,
    };
    for (t, &x) in series.iter().enumerate().skip(1) {
        state.t = t - 1;
        let pred = state.predict(1, cfg);
        on_step(pred, x);
        let x = x as f64;
        let season_idx = t % period;
        let seasonal = if matches!(cfg.variant, EtsVariant::Seasonal { .. }) {
            state.seasonal[season_idx]
        } else {
            0.0
        };
        let prev_level = state.level;
        state.level =
            alpha * (x - seasonal) + (1.0 - alpha) * (prev_level + cfg.damping * state.trend);
        if !matches!(cfg.variant, EtsVariant::Simple) {
            state.trend =
                beta * (state.level - prev_level) + (1.0 - beta) * cfg.damping * state.trend;
        }
        if matches!(cfg.variant, EtsVariant::Seasonal { .. }) {
            state.seasonal[season_idx] = gamma * (x - state.level) + (1.0 - gamma) * seasonal;
        }
    }
    state.t = series.len() - 1;
    state
}

fn final_state(series: &[f32], cfg: EtsConfig, alpha: f64, beta: f64, gamma: f64) -> SmootherState {
    run_smoother(series, cfg, alpha, beta, gamma, |_, _| {})
}

impl Forecaster for EtsForecaster {
    fn name(&self) -> &str {
        "ETS"
    }

    fn fit(&mut self, train: &WindowedDataset, _valid: Option<&WindowedDataset>) -> FitReport {
        let start = Instant::now();
        self.target_index = train.target_index;
        self.horizon = train.horizon;
        let series = reconstruct_target_series(train);
        self.fit_series(&series);
        let (truth, pred) = self.evaluate(train);
        FitReport {
            train_loss: vec![timeseries::metrics::mse(&truth, &pred)],
            valid_loss: Vec::new(),
            fit_time: start.elapsed(),
            stopped_early: false,
        }
    }

    fn predict(&self, x: &Tensor) -> Tensor {
        let (n, window, f) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let mut out = Vec::with_capacity(n * self.horizon);
        for i in 0..n {
            let history: Vec<f32> = (0..window)
                .map(|t| x.as_slice()[(i * window + t) * f + self.target_index])
                .collect();
            out.extend(self.forecast(&history, self.horizon));
        }
        Tensor::from_vec(out, &[n, self.horizon])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timeseries::{make_windows, TimeSeriesFrame};

    #[test]
    fn constant_series_forecasts_constant() {
        let series = vec![0.42f32; 100];
        let mut m = EtsForecaster::new(EtsConfig::default());
        m.fit_series(&series);
        let fc = m.forecast(&series[60..100], 4);
        for &v in &fc {
            assert!((v - 0.42).abs() < 1e-3, "drifted: {v}");
        }
    }

    #[test]
    fn trend_variant_extrapolates_a_line() {
        let series: Vec<f32> = (0..150).map(|i| 0.1 + 0.005 * i as f32).collect();
        let mut m = EtsForecaster::new(EtsConfig {
            variant: EtsVariant::Trend,
            damping: 1.0,
            ..Default::default()
        });
        m.fit_series(&series);
        let fc = m.forecast(&series[100..150], 3);
        for (h, &v) in fc.iter().enumerate() {
            let expected = 0.1 + 0.005 * (150 + h) as f32;
            assert!((v - expected).abs() < 0.01, "h={h}: {v} vs {expected}");
        }
    }

    #[test]
    fn seasonal_variant_tracks_a_cycle() {
        let series: Vec<f32> = (0..240)
            .map(|i| 0.5 + 0.2 * ((i % 12) as f32 / 12.0 * std::f32::consts::TAU).sin())
            .collect();
        let mut m = EtsForecaster::new(EtsConfig {
            variant: EtsVariant::Seasonal { period: 12 },
            ..Default::default()
        });
        m.fit_series(&series);
        let fc = m.forecast(&series[..228], 12);
        let truth = &series[228..240];
        let mae = timeseries::metrics::mae(truth, &fc);
        assert!(mae < 0.06, "seasonal forecast mae {mae}");
    }

    #[test]
    fn windowed_interface_and_report() {
        let series: Vec<f32> = (0..200)
            .map(|i| 0.4 + 0.1 * (i as f32 * 0.2).sin())
            .collect();
        let frame = TimeSeriesFrame::from_columns(&[("cpu", series)]).unwrap();
        let ds = make_windows(&frame, "cpu", 20, 2).unwrap();
        let mut m = EtsForecaster::new(EtsConfig::default());
        let report = m.fit(&ds, None);
        assert_eq!(report.train_loss.len(), 1);
        let pred = m.predict(&ds.x);
        assert_eq!(pred.shape(), &[ds.len(), 2]);
        assert!(pred.all_finite());
    }

    #[test]
    #[should_panic(expected = "forecast before fit")]
    fn forecast_requires_fit() {
        EtsForecaster::new(EtsConfig::default()).forecast(&[0.5; 20], 1);
    }
}
