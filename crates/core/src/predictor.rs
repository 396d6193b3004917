//! Online resource predictor: the component a cluster resource manager
//! would embed. It owns a fitted model plus the exact preprocessing state
//! (selected indicators, scaler, expansion) and serves rolling forecasts as
//! new monitoring samples arrive, retraining periodically.

use std::sync::atomic::{AtomicU64, Ordering};

use models::checkpoint::{CheckpointError, ModelState};
use models::Forecaster;
use tensor::Tensor;
use timeseries::{
    clean, clean_tail, min_max_scale, min_max_unscale, FrameError, MinMaxScaler, TimeSeriesFrame,
};

use crate::pipeline::{prepare, run_model, FittedPreprocess, PipelineConfig, PipelineRun};
use crate::scenario::Scenario;

static NEXT_GROUP: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh weight-sharing group id (see
/// [`ResourcePredictor::set_shared_group`]).
pub fn new_shared_group() -> u64 {
    NEXT_GROUP.fetch_add(1, Ordering::Relaxed)
}

/// A live predictor bound to one entity's indicator stream.
pub struct ResourcePredictor {
    model: Box<dyn Forecaster + Send>,
    cfg: PipelineConfig,
    /// Rolling raw history per original indicator (column order fixed).
    names: Vec<String>,
    history: Vec<Vec<f32>>,
    /// Preprocessing state captured at the last (re)fit.
    preprocess: FittedPreprocess,
    /// `preprocess` resolved against `names`; replaced together with it.
    plan: WindowPlan,
    samples_since_fit: usize,
    /// Refit after this many new samples (0 disables periodic refits).
    /// Private: the predictor is the single owner of its refit cadence;
    /// callers (including the fleet layer) configure it through
    /// [`ResourcePredictor::set_refit_every`] / [`set_refit_schedule`].
    ///
    /// [`set_refit_schedule`]: ResourcePredictor::set_refit_schedule
    refit_every: usize,
    /// Entities whose models share identical weights carry the same group
    /// id, letting the serving layer stack their inference windows into one
    /// batched forward pass. Any refit clears it — the weights have
    /// diverged from the group. Deliberately not persisted in
    /// [`PredictorState`]: group ids are process-local.
    shared_group: Option<u64>,
}

/// A [`FittedPreprocess`] resolved once against a predictor's history
/// layout, so a forecast does no name lookups: which history column feeds
/// each selected indicator, its scaler slot, and where the target sits.
/// Resolving is also the validation — a plan exists only for preprocessing
/// state that window preparation and de-normalisation can index safely.
struct WindowPlan {
    /// History column of each selected indicator, in feature order.
    sources: Vec<usize>,
    /// `(min, range)` of each selected indicator's scaler slot.
    scales: Vec<(f32, f32)>,
    /// Position of the pipeline target within `scales`.
    target: usize,
}

impl WindowPlan {
    fn resolve(
        names: &[String],
        target: &str,
        preprocess: &FittedPreprocess,
    ) -> Result<WindowPlan, String> {
        let selected = &preprocess.selected;
        let fitted = || preprocess.scaler.iter();
        if !fitted().map(|(name, ..)| name).eq(selected) {
            return Err(format!(
                "scaler was fitted on {:?}, not on the selected indicators {selected:?}",
                fitted().map(|(name, ..)| name).collect::<Vec<_>>()
            ));
        }
        let sources = selected
            .iter()
            .map(|sel| {
                names
                    .iter()
                    .position(|name| name == sel)
                    .ok_or_else(|| format!("unknown column '{sel}'"))
            })
            .collect::<Result<_, _>>()?;
        let target = selected
            .iter()
            .position(|sel| sel == target)
            .ok_or_else(|| format!("target '{target}' is not among the selected indicators"))?;
        Ok(WindowPlan {
            sources,
            scales: fitted().map(|(_, min, max)| (min, max - min)).collect(),
            target,
        })
    }
}

/// Complete portable snapshot of one live predictor: fitted model weights,
/// preprocessing state and raw history. Restoring yields a predictor whose
/// forecasts are bit-identical to the one snapshotted.
#[derive(Debug, Clone)]
pub struct PredictorState {
    /// The fitted model's weights and meta.
    pub model: ModelState,
    /// The pipeline configuration the predictor was built with.
    pub cfg: PipelineConfig,
    /// Original indicator names, in history column order.
    pub names: Vec<String>,
    /// Raw history, one column per entry of `names`.
    pub history: Vec<Vec<f32>>,
    /// Scaler parameters as `(column, min, max)` triples.
    pub scaler_columns: Vec<(String, f32, f32)>,
    /// Indicators that survived correlation screening at the last fit.
    pub selected: Vec<String>,
    /// Name of the target column after expansion.
    pub expanded_target: String,
    /// Samples observed since the last (re)fit.
    pub samples_since_fit: usize,
    /// Refit after this many new samples (0 disables periodic refits).
    pub refit_every: usize,
}

impl ResourcePredictor {
    /// Fit `model` on `bootstrap` history and return a live predictor.
    pub fn fit(
        mut model: Box<dyn Forecaster + Send>,
        bootstrap: &TimeSeriesFrame,
        cfg: PipelineConfig,
    ) -> Result<(ResourcePredictor, PipelineRun), FrameError> {
        let prepared = prepare(bootstrap, &cfg)?;
        let run = run_model(model.as_mut(), &prepared);
        let names = bootstrap.names().to_vec();
        let history = (0..bootstrap.num_columns())
            .map(|j| bootstrap.column_at(j).to_vec())
            .collect();
        let preprocess = prepared.fitted();
        let plan = WindowPlan::resolve(&names, &cfg.target, &preprocess).map_err(FrameError)?;
        Ok((
            ResourcePredictor {
                model,
                cfg,
                names,
                history,
                preprocess,
                plan,
                samples_since_fit: 0,
                refit_every: 0,
                shared_group: None,
            },
            run,
        ))
    }

    /// The weight-sharing group this predictor belongs to, if any.
    pub fn shared_group(&self) -> Option<u64> {
        self.shared_group
    }

    /// Tag (or untag) this predictor as sharing model weights with a group.
    /// Only callers that actually installed identical weights may set this:
    /// the serving layer batches forecasts across a group under one model.
    pub fn set_shared_group(&mut self, group: Option<u64>) {
        self.shared_group = group;
    }

    /// Refit after `every` new samples; 0 disables periodic refits.
    pub fn set_refit_every(&mut self, every: usize) {
        self.set_refit_schedule(every, 0);
    }

    /// Set the refit cadence with a phase `offset`: the first periodic refit
    /// fires after `every - offset % every` samples, subsequent ones every
    /// `every`. A fleet staggers entities by giving each a different offset
    /// so they never all retrain in the same interval.
    pub fn set_refit_schedule(&mut self, every: usize, offset: usize) {
        self.refit_every = every;
        self.samples_since_fit = if every > 0 { offset % every } else { 0 };
    }

    /// The configured refit cadence (0 = disabled).
    pub fn refit_every(&self) -> usize {
        self.refit_every
    }

    /// Ingest one new monitoring sample (values in the bootstrap frame's
    /// column order). Returns `true` if a periodic refit was triggered.
    pub fn observe(&mut self, sample: &[f32]) -> Result<bool, FrameError> {
        if sample.len() != self.names.len() {
            return Err(FrameError(format!(
                "sample has {} values, expected {}",
                sample.len(),
                self.names.len()
            )));
        }
        for (col, &v) in self.history.iter_mut().zip(sample) {
            col.push(v);
        }
        self.samples_since_fit += 1;
        if self.refit_every > 0 && self.samples_since_fit >= self.refit_every {
            self.refit()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Refit model and preprocessing on the full accumulated history.
    pub fn refit(&mut self) -> Result<PipelineRun, FrameError> {
        let frame = self.current_frame()?;
        let prepared = prepare(&frame, &self.cfg)?;
        let preprocess = prepared.fitted();
        let plan =
            WindowPlan::resolve(&self.names, &self.cfg.target, &preprocess).map_err(FrameError)?;
        let run = run_model(self.model.as_mut(), &prepared);
        self.preprocess = preprocess;
        self.plan = plan;
        self.samples_since_fit = 0;
        self.shared_group = None;
        Ok(run)
    }

    /// Swap in a model trained elsewhere (e.g. on a background refit pool
    /// from a [`ResourcePredictor::history_snapshot`]) together with the
    /// preprocessing state it was fitted with, and reset the refit clock.
    /// The replacement is installed only if its preprocessing state fits
    /// this predictor's columns and it produces a finite forecast on the
    /// live history. On failure the previous model and preprocessing
    /// state are restored untouched and the refit clock is left running —
    /// a diverged background refit can never poison a serving entity.
    pub fn try_install_refit(
        &mut self,
        model: Box<dyn Forecaster + Send>,
        preprocess: FittedPreprocess,
    ) -> Result<(), FrameError> {
        let plan =
            WindowPlan::resolve(&self.names, &self.cfg.target, &preprocess).map_err(FrameError)?;
        let old_model = std::mem::replace(&mut self.model, model);
        let old_preprocess = std::mem::replace(&mut self.preprocess, preprocess);
        let old_plan = std::mem::replace(&mut self.plan, plan);
        let old_clock = self.samples_since_fit;
        match self.forecast() {
            Ok(fc) if fc.iter().all(|v| v.is_finite()) => {
                self.samples_since_fit = 0;
                self.shared_group = None;
                Ok(())
            }
            outcome => {
                self.model = old_model;
                self.preprocess = old_preprocess;
                self.plan = old_plan;
                self.samples_since_fit = old_clock;
                match outcome {
                    Ok(fc) => Err(FrameError(format!(
                        "refit replacement produced non-finite forecast {fc:?}"
                    ))),
                    Err(e) => Err(e),
                }
            }
        }
    }

    /// The full accumulated raw history as a frame — what a background
    /// refit trains on.
    pub fn history_snapshot(&self) -> Result<TimeSeriesFrame, FrameError> {
        self.current_frame()
    }

    /// The pipeline configuration this predictor was fitted with.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Display name of the underlying model.
    pub fn model_name(&self) -> &str {
        self.model.name()
    }

    /// Portable state of the underlying model, when it supports
    /// checkpointing — what a background refit pool clones architecture
    /// hyper-parameters from.
    pub fn model_state(&self) -> Option<ModelState> {
        self.model.state()
    }

    /// Forecast the next `horizon` target values (normalised units) from
    /// the most recent window of history.
    pub fn forecast_normalized(&self) -> Result<Vec<f32>, FrameError> {
        let (x, w, f) = self.inference_window()?;
        let pred = self.model.predict(&Tensor::from_vec(x, &[1, w, f]));
        Ok(pred.into_vec())
    }

    /// The preprocessed `[window · features]` model input for the current
    /// history tail, plus its `(window, features)` shape. The serving layer
    /// stacks these across a weight-sharing group and answers them with a
    /// single batched [`ResourcePredictor::predict_batch`] call.
    pub fn inference_window(&self) -> Result<(Vec<f32>, usize, usize), FrameError> {
        let mut x = Vec::new();
        let (w, f) = self.inference_window_into(&mut x)?;
        Ok((x, w, f))
    }

    /// Append the current inference window to `out` and return its
    /// `(window, features)` shape; `out` is left as it was on error.
    ///
    /// Re-applies the fitted preprocessing — Algorithm 1 steps 1–5: clean,
    /// screen, min-max scale, lag-expand — to the stream, bitwise-equal to
    /// running it over the whole history and keeping the last `window`
    /// rows, but reading only the `window + copies − 1` clean rows those
    /// depend on, so the cost does not grow with the history. The cleaning
    /// step is the one training uses: non-finite samples admitted into the
    /// history (a poisoned bootstrap, an unguarded `observe`) never reach
    /// the scaler or the model.
    pub fn inference_window_into(&self, out: &mut Vec<f32>) -> Result<(usize, usize), FrameError> {
        let w = self.cfg.window;
        // Step 5 turns each indicator into `copies` lag columns and
        // consumes `copies - 1` leading rows.
        let expands = matches!(self.cfg.scenario, Scenario::MulExp);
        let copies = if expands {
            self.cfg.expansion_copies
        } else {
            1
        };
        if copies == 0 {
            return Err(FrameError("horizontal expansion needs copies >= 1".into()));
        }
        let indicators = self.plan.sources.len();
        let need = w.saturating_add(copies - 1);
        // Sizes are trusted only once the history is known to hold `need`
        // rows: `cfg` may come from a restored checkpoint.
        if need <= self.history_len() {
            out.reserve(indicators * (need + w * copies));
        }

        // Stage the cleaned raw tail (one indicator after another) behind
        // whatever `out` already holds, build the window after it, then
        // drop the stage.
        let base = out.len();
        let tail = clean_tail(
            &self.history,
            &self.plan.sources,
            self.cfg.repair,
            need,
            out,
        );
        if tail.rows < need {
            out.truncate(base);
            // Short of `need` the tail is the whole cleaned series.
            return Err(FrameError(if expands && tail.rows < copies {
                format!(
                    "frame of {} rows too short for {copies} lag copies",
                    tail.rows
                )
            } else {
                format!(
                    "need {w} preprocessed samples, have {}",
                    tail.rows + 1 - copies
                )
            }));
        }
        let f = indicators * copies;
        let stage = indicators * need;
        out.resize(base + stage + w * f, 0.0);
        let (staged, window) = out[base..].split_at_mut(stage);
        for (j, &(min, range)) in self.plan.scales.iter().enumerate() {
            for v in &mut staged[j * need..(j + 1) * need] {
                *v = min_max_scale(*v, min, range);
            }
        }
        // Feature `j·copies + k` is indicator `j` at lag `copies − 1 − k`:
        // window row `t` reads cleaned row `t + k`.
        for (t, row) in window.chunks_exact_mut(f).enumerate() {
            for (j, lags) in row.chunks_exact_mut(copies).enumerate() {
                lags.copy_from_slice(&staged[j * need + t..][..copies]);
            }
        }
        out.drain(base..base + stage);
        Ok((w, f))
    }

    /// Run this predictor's model on a pre-stacked `[n, window, features]`
    /// batch of inference windows (normalised units). Per-row kernels make
    /// each output row exactly equal to the corresponding batch-1 call.
    pub fn predict_batch(&self, x: &Tensor) -> Tensor {
        self.model.predict(x)
    }

    /// De-normalise a model output with this predictor's fitted scaler —
    /// the per-entity half of a batched forecast.
    pub fn denormalize_forecast(&self, normalized: &[f32]) -> Vec<f32> {
        let (min, range) = self.plan.scales[self.plan.target];
        normalized
            .iter()
            .map(|&v| min_max_unscale(v, min, range))
            .collect()
    }

    /// Forecast in raw (de-normalised) target units.
    pub fn forecast(&self) -> Result<Vec<f32>, FrameError> {
        let normalized = self.forecast_normalized()?;
        Ok(self.denormalize_forecast(&normalized))
    }

    /// Samples currently buffered.
    pub fn history_len(&self) -> usize {
        self.history.first().map_or(0, Vec::len)
    }

    /// The most recent raw observation across all columns (in
    /// [`ResourcePredictor::column_names`] order), `None` when the history
    /// is empty.
    pub fn last_sample(&self) -> Option<Vec<f32>> {
        let n = self.history_len();
        if n == 0 {
            return None;
        }
        Some(self.history.iter().map(|col| col[n - 1]).collect())
    }

    /// The last `n` raw observations of the pipeline target (oldest first,
    /// fewer if the history is shorter) — what a degraded-mode fallback
    /// forecaster warms up from.
    pub fn target_history(&self, n: usize) -> Vec<f32> {
        let Some(col) = self.names.iter().position(|name| name == &self.cfg.target) else {
            return Vec::new();
        };
        let hist = &self.history[col];
        hist[hist.len().saturating_sub(n)..].to_vec()
    }

    /// Indicator column names, in the order [`ResourcePredictor::observe`]
    /// expects sample values.
    pub fn column_names(&self) -> &[String] {
        &self.names
    }

    /// Capture the complete serving state: model weights, preprocessing and
    /// raw history. Fails when the model cannot be checkpointed (classical
    /// baselines) — neural forecasters and the naive baseline all can.
    pub fn snapshot(&self) -> Result<PredictorState, CheckpointError> {
        let model = self.model.state().ok_or_else(|| {
            CheckpointError(format!(
                "model {} does not support checkpointing",
                self.model.name()
            ))
        })?;
        Ok(PredictorState {
            model,
            cfg: self.cfg.clone(),
            names: self.names.clone(),
            history: self.history.clone(),
            scaler_columns: self.preprocess.scaler.columns(),
            selected: self.preprocess.selected.clone(),
            expanded_target: self.preprocess.expanded_target.clone(),
            samples_since_fit: self.samples_since_fit,
            refit_every: self.refit_every,
        })
    }

    /// Rebuild a live predictor from a snapshot **without retraining** —
    /// forecasts resume bit-identical to the predictor that was snapshotted.
    pub fn from_state(state: &PredictorState) -> Result<Self, CheckpointError> {
        if state.names.len() != state.history.len() {
            return Err(CheckpointError(format!(
                "predictor state has {} column names but {} history columns",
                state.names.len(),
                state.history.len()
            )));
        }
        let rows = state.history.first().map_or(0, Vec::len);
        if let Some(j) = state.history.iter().position(|col| col.len() != rows) {
            return Err(CheckpointError(format!(
                "history column '{}' has {} rows, expected {rows}",
                state.names[j],
                state.history[j].len()
            )));
        }
        let preprocess = FittedPreprocess {
            scaler: MinMaxScaler::from_parts(state.scaler_columns.clone()),
            selected: state.selected.clone(),
            expanded_target: state.expanded_target.clone(),
        };
        let plan = WindowPlan::resolve(&state.names, &state.cfg.target, &preprocess)
            .map_err(CheckpointError)?;
        let model = models::checkpoint::forecaster_from_state(&state.model)?;
        Ok(ResourcePredictor {
            model,
            cfg: state.cfg.clone(),
            names: state.names.clone(),
            history: state.history.clone(),
            preprocess,
            plan,
            samples_since_fit: state.samples_since_fit,
            refit_every: state.refit_every,
            shared_group: None,
        })
    }

    /// Clone this predictor for a new entity that shares its model weights:
    /// the model is copied (no retraining; a neural model's copy reads this
    /// one's weight storage until either is refitted) and the template's
    /// indicator selection is kept — input shapes must stay identical
    /// across the group for the serving layer to stack windows into one
    /// batched call — while the scaler is re-fitted on the entity's own
    /// bootstrap so each entity is normalised (and de-normalised) in its
    /// own range. The clone inherits this predictor's
    /// [`ResourcePredictor::shared_group`] tag.
    pub fn clone_for_entity(
        &self,
        bootstrap: &TimeSeriesFrame,
    ) -> Result<ResourcePredictor, FrameError> {
        let model = self.model.clone_boxed().ok_or_else(|| {
            FrameError(format!(
                "model {} cannot be copied, so its weights cannot be shared",
                self.model.name()
            ))
        })?;
        let (cleaned, _) = clean(bootstrap, self.cfg.repair);
        let selected: Vec<&str> = self
            .preprocess
            .selected
            .iter()
            .map(String::as_str)
            .collect();
        let screened = cleaned.select(&selected)?;
        let names = bootstrap.names().to_vec();
        let preprocess = FittedPreprocess {
            scaler: MinMaxScaler::fit(&screened),
            selected: self.preprocess.selected.clone(),
            expanded_target: self.preprocess.expanded_target.clone(),
        };
        let plan =
            WindowPlan::resolve(&names, &self.cfg.target, &preprocess).map_err(FrameError)?;
        Ok(ResourcePredictor {
            model,
            cfg: self.cfg.clone(),
            names,
            history: (0..bootstrap.num_columns())
                .map(|j| bootstrap.column_at(j).to_vec())
                .collect(),
            preprocess,
            plan,
            samples_since_fit: 0,
            refit_every: self.refit_every,
            shared_group: self.shared_group,
        })
    }

    fn current_frame(&self) -> Result<TimeSeriesFrame, FrameError> {
        TimeSeriesFrame::new(
            self.names
                .iter()
                .cloned()
                .zip(self.history.iter().cloned())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtrace::{ContainerConfig, WorkloadClass};
    use models::NaiveForecaster;

    fn bootstrap() -> TimeSeriesFrame {
        cloudtrace::container::generate_container(
            &ContainerConfig::new(WorkloadClass::OnlineService, 600, 3).with_diurnal_period(300),
        )
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig {
            window: 12,
            scenario: Scenario::MulExp,
            ..Default::default()
        }
    }

    #[test]
    fn fit_then_forecast() {
        let (predictor, run) =
            ResourcePredictor::fit(Box::new(NaiveForecaster::new()), &bootstrap(), cfg()).unwrap();
        assert!(run.test_metrics.mse.is_finite());
        let fc = predictor.forecast().unwrap();
        assert_eq!(fc.len(), 1);
        assert!(fc[0].is_finite());
        // Raw forecast is in utilisation units.
        assert!((0.0..=1.5).contains(&fc[0]), "forecast {fc:?} out of range");
    }

    #[test]
    fn observe_extends_history_and_shifts_forecast() {
        let (mut predictor, _) =
            ResourcePredictor::fit(Box::new(NaiveForecaster::new()), &bootstrap(), cfg()).unwrap();
        let before = predictor.history_len();
        // Push a burst of high samples; persistence forecast must follow.
        for _ in 0..15 {
            predictor.observe(&[0.95; 8]).unwrap();
        }
        assert_eq!(predictor.history_len(), before + 15);
        let fc = predictor.forecast().unwrap();
        assert!(fc[0] > 0.7, "forecast did not track new samples: {fc:?}");
    }

    #[test]
    fn observe_validates_sample_width() {
        let (mut predictor, _) =
            ResourcePredictor::fit(Box::new(NaiveForecaster::new()), &bootstrap(), cfg()).unwrap();
        assert!(predictor.observe(&[0.5; 3]).is_err());
    }

    #[test]
    fn periodic_refit_fires() {
        let (mut predictor, _) =
            ResourcePredictor::fit(Box::new(NaiveForecaster::new()), &bootstrap(), cfg()).unwrap();
        predictor.set_refit_every(10);
        let mut refits = 0;
        for i in 0..25 {
            if predictor.observe(&[0.4 + 0.001 * i as f32; 8]).unwrap() {
                refits += 1;
            }
        }
        assert_eq!(refits, 2);
    }

    #[test]
    fn refit_schedule_offset_staggers_first_refit() {
        let (mut predictor, _) =
            ResourcePredictor::fit(Box::new(NaiveForecaster::new()), &bootstrap(), cfg()).unwrap();
        // Offset 7 of 10: first refit after only 3 samples, then every 10.
        predictor.set_refit_schedule(10, 7);
        let mut refit_steps = Vec::new();
        for i in 0..25 {
            if predictor.observe(&[0.5; 8]).unwrap() {
                refit_steps.push(i);
            }
        }
        assert_eq!(refit_steps, vec![2, 12, 22]);
    }

    #[test]
    fn snapshot_restore_resumes_identical_forecasts() {
        let (mut predictor, _) =
            ResourcePredictor::fit(Box::new(NaiveForecaster::new()), &bootstrap(), cfg()).unwrap();
        for i in 0..10 {
            predictor.observe(&[0.5 + 0.01 * i as f32; 8]).unwrap();
        }
        let state = predictor.snapshot().unwrap();
        let restored = ResourcePredictor::from_state(&state).unwrap();
        assert_eq!(restored.history_len(), predictor.history_len());
        assert_eq!(restored.model_name(), predictor.model_name());
        let a = predictor.forecast().unwrap();
        let b = restored.forecast().unwrap();
        assert_eq!(a, b, "restored forecast differs");
    }

    #[test]
    fn target_history_returns_target_tail() {
        let (mut predictor, _) =
            ResourcePredictor::fit(Box::new(NaiveForecaster::new()), &bootstrap(), cfg()).unwrap();
        for i in 0..5 {
            let mut s = [0.1; 8];
            s[0] = 0.5 + i as f32 * 0.1; // target column leads the layout
            predictor.observe(&s).unwrap();
        }
        let names = predictor.column_names().to_vec();
        let target_col = names
            .iter()
            .position(|n| n == &predictor.config().target)
            .unwrap();
        assert_eq!(target_col, 0, "generated traces lead with the target");
        let tail = predictor.target_history(3);
        assert_eq!(tail, vec![0.7, 0.8, 0.9]);
        // Asking for more than exists returns the whole column.
        assert_eq!(
            predictor.target_history(usize::MAX).len(),
            predictor.history_len()
        );
    }

    struct PoisonForecaster;
    impl models::Forecaster for PoisonForecaster {
        fn name(&self) -> &str {
            "poison"
        }
        fn fit(
            &mut self,
            _train: &timeseries::WindowedDataset,
            _valid: Option<&timeseries::WindowedDataset>,
        ) -> models::FitReport {
            models::FitReport::default()
        }
        fn predict(&self, x: &tensor::Tensor) -> tensor::Tensor {
            tensor::Tensor::full(&[x.shape()[0], 1], f32::NAN)
        }
    }

    #[test]
    fn try_install_refit_rejects_non_finite_replacement() {
        let (mut predictor, _) =
            ResourcePredictor::fit(Box::new(NaiveForecaster::new()), &bootstrap(), cfg()).unwrap();
        let before = predictor.forecast().unwrap();
        let preprocess = FittedPreprocess {
            scaler: MinMaxScaler::from_parts(predictor.preprocess.scaler.columns()),
            selected: predictor.preprocess.selected.clone(),
            expanded_target: predictor.preprocess.expanded_target.clone(),
        };
        let err = predictor
            .try_install_refit(Box::new(PoisonForecaster), preprocess)
            .unwrap_err();
        assert!(err.0.contains("non-finite"), "{err:?}");
        // The previous model still serves, bit-identically.
        assert_eq!(predictor.forecast().unwrap(), before);
    }

    #[test]
    fn try_install_refit_accepts_finite_replacement() {
        let (mut predictor, _) =
            ResourcePredictor::fit(Box::new(NaiveForecaster::new()), &bootstrap(), cfg()).unwrap();
        let frame = predictor.history_snapshot().unwrap();
        let prepared = prepare(&frame, predictor.config()).unwrap();
        let mut fresh: Box<dyn Forecaster + Send> = Box::new(NaiveForecaster::new());
        run_model(fresh.as_mut(), &prepared);
        predictor
            .try_install_refit(fresh, prepared.fitted())
            .unwrap();
        assert!(predictor.forecast().unwrap()[0].is_finite());
    }

    #[test]
    fn clone_for_entity_shares_weights_and_group() {
        let (mut template, _) =
            ResourcePredictor::fit(Box::new(NaiveForecaster::new()), &bootstrap(), cfg()).unwrap();
        template.set_shared_group(Some(new_shared_group()));
        // Same bootstrap → same history, same scaler → identical forecasts
        // from the cloned weights.
        let clone = template.clone_for_entity(&bootstrap()).unwrap();
        assert_eq!(clone.shared_group(), template.shared_group());
        assert_eq!(clone.forecast().unwrap(), template.forecast().unwrap());
        // A different bootstrap yields its own history but stays grouped.
        let other = cloudtrace::container::generate_container(
            &ContainerConfig::new(WorkloadClass::BatchJob, 600, 7).with_diurnal_period(200),
        );
        let clone = template.clone_for_entity(&other).unwrap();
        assert_eq!(clone.shared_group(), template.shared_group());
        assert!(clone.forecast().unwrap()[0].is_finite());
    }

    #[test]
    fn refit_clears_the_shared_group() {
        let (mut predictor, _) =
            ResourcePredictor::fit(Box::new(NaiveForecaster::new()), &bootstrap(), cfg()).unwrap();
        predictor.set_shared_group(Some(new_shared_group()));
        predictor.refit().unwrap();
        assert_eq!(
            predictor.shared_group(),
            None,
            "refit weights diverged from the group but the tag survived"
        );
    }

    #[test]
    fn batched_pieces_compose_to_forecast() {
        let (predictor, _) =
            ResourcePredictor::fit(Box::new(NaiveForecaster::new()), &bootstrap(), cfg()).unwrap();
        let (x, w, f) = predictor.inference_window().unwrap();
        let pred = predictor.predict_batch(&Tensor::from_vec(x, &[1, w, f]));
        let fc = predictor.denormalize_forecast(pred.as_slice());
        assert_eq!(fc, predictor.forecast().unwrap());
    }

    #[test]
    fn restore_rejects_inconsistent_state() {
        let (predictor, _) =
            ResourcePredictor::fit(Box::new(NaiveForecaster::new()), &bootstrap(), cfg()).unwrap();
        let good = predictor.snapshot().unwrap();
        assert!(ResourcePredictor::from_state(&good).is_ok());
        let rejected = |mutate: &dyn Fn(&mut PredictorState), expect: &str| {
            let mut state = good.clone();
            mutate(&mut state);
            match ResourcePredictor::from_state(&state) {
                Ok(_) => panic!("accepted a state that should fail with '{expect}'"),
                Err(e) => assert!(e.0.contains(expect), "{e:?} lacks '{expect}'"),
            }
        };
        rejected(&|s| s.history.truncate(2), "history columns");
        rejected(&|s| s.history[2].truncate(5), "rows, expected");
        // Preprocessing state that window preparation or de-normalisation
        // would index out of range — each used to restore fine and panic
        // on the first forecast.
        rejected(&|s| s.selected[1] = "no_such_indicator".into(), "scaler");
        rejected(
            &|s| {
                s.selected[1] = "no_such_indicator".into();
                s.scaler_columns[1].0 = "no_such_indicator".into();
            },
            "unknown column 'no_such_indicator'",
        );
        rejected(&|s| s.scaler_columns.truncate(1), "scaler");
        rejected(&|s| s.scaler_columns.swap(0, 1), "scaler");
        rejected(&|s| s.cfg.target = "mem_util_percent_x".into(), "target");
        rejected(
            &|s| {
                // The target is a real column, but screening dropped it.
                let pos = s.selected.iter().position(|n| n == &s.cfg.target).unwrap();
                s.selected.remove(pos);
                s.scaler_columns.remove(pos);
            },
            "target",
        );
    }

    #[test]
    fn try_install_refit_rejects_preprocessing_for_other_columns() {
        let (mut predictor, _) =
            ResourcePredictor::fit(Box::new(NaiveForecaster::new()), &bootstrap(), cfg()).unwrap();
        let before = predictor.forecast().unwrap();
        let mut columns = predictor.preprocess.scaler.columns();
        columns[0].0 = "elsewhere".into();
        let foreign = FittedPreprocess {
            scaler: MinMaxScaler::from_parts(columns),
            selected: predictor.preprocess.selected.clone(),
            expanded_target: predictor.preprocess.expanded_target.clone(),
        };
        assert!(predictor
            .try_install_refit(Box::new(NaiveForecaster::new()), foreign)
            .is_err());
        assert_eq!(predictor.forecast().unwrap(), before);
    }
}
