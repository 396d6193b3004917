//! `ResourcePredictor::inference_window` reads only the tail of the history
//! (`window + copies − 1` clean rows). This suite pins it **bitwise** to
//! the definition it replaced — Algorithm 1 steps 1–5 run over the entity's
//! whole history, keeping the last `window` rows — across scenarios, repair
//! policies, history lengths and non-finite samples wherever they can hurt:
//! inside the tail, on the `n − need` boundary, in unselected columns, and
//! filling a column outright. Errors must match too, message and count.

use models::{Forecaster, NaiveForecaster};
use proptest::prelude::*;
use rptcn::{PipelineConfig, PredictorState, ResourcePredictor, Scenario};
use tensor::{Rng, Tensor};
use timeseries::{clean, Expansion, FrameError, MinMaxScaler, RepairPolicy, TimeSeriesFrame};

const NAMES: [&str; 5] = ["mem", "cpu", "disk", "net", "junk"];
const TARGET: &str = "cpu";
/// Screened indicators in an order that differs from the history's.
const SELECTED: [&str; 3] = ["cpu", "net", "mem"];

const SCENARIOS: [Scenario; 3] = [Scenario::Uni, Scenario::Mul, Scenario::MulExp];
const POLICIES: [RepairPolicy; 3] = [
    RepairPolicy::DropRows,
    RepairPolicy::Interpolate,
    RepairPolicy::ForwardFill,
];

/// The reference oracle: the full-history composition `inference_window`
/// used to run on every call, built from the frame-level public pieces.
fn reference_window(state: &PredictorState) -> Result<(Vec<f32>, usize, usize), FrameError> {
    let frame = TimeSeriesFrame::new(
        state
            .names
            .iter()
            .cloned()
            .zip(state.history.iter().cloned())
            .collect(),
    )?;
    let (frame, _) = clean(&frame, state.cfg.repair);
    let selected: Vec<&str> = state.selected.iter().map(String::as_str).collect();
    let screened = frame.select(&selected)?;
    let normalized = MinMaxScaler::from_parts(state.scaler_columns.clone()).transform(&screened);
    let expanded = match state.cfg.scenario {
        Scenario::MulExp => Expansion::Horizontal {
            copies: state.cfg.expansion_copies,
        }
        .apply(&normalized)?,
        _ => normalized,
    };
    let w = state.cfg.window;
    if expanded.len() < w {
        return Err(FrameError(format!(
            "need {w} preprocessed samples, have {}",
            expanded.len()
        )));
    }
    let tail = expanded.slice_rows(expanded.len() - w, expanded.len())?;
    let f = tail.num_columns();
    let mut x = vec![0.0f32; w * f];
    for t in 0..w {
        for j in 0..f {
            x[t * f + j] = tail.column_at(j)[t];
        }
    }
    Ok((x, w, f))
}

fn state_with(
    scenario: Scenario,
    repair: RepairPolicy,
    window: usize,
    copies: usize,
    history: Vec<Vec<f32>>,
    rng: &mut Rng,
) -> PredictorState {
    let selected: Vec<String> = match scenario {
        Scenario::Uni => vec![TARGET.to_string()],
        _ => SELECTED.iter().map(|s| s.to_string()).collect(),
    };
    let scaler_columns = selected
        .iter()
        .map(|name| {
            let min = rng.uniform(-2.0, 2.0);
            // One indicator in four was constant over the fitting span.
            let max = if rng.chance(0.25) {
                min
            } else {
                min + rng.uniform(0.1, 5.0)
            };
            (name.clone(), min, max)
        })
        .collect();
    PredictorState {
        model: NaiveForecaster::new().state().expect("naive checkpoints"),
        cfg: PipelineConfig {
            target: TARGET.to_string(),
            scenario,
            window,
            repair,
            expansion_copies: copies,
            ..Default::default()
        },
        names: NAMES.iter().map(|s| s.to_string()).collect(),
        history,
        scaler_columns,
        expanded_target: match scenario {
            Scenario::MulExp => format!("{TARGET}#lag0"),
            _ => TARGET.to_string(),
        },
        selected,
        samples_since_fit: 0,
        refit_every: 0,
    }
}

/// Raw history of `n` rows with non-finite samples injected by `mode`.
fn history(n: usize, need: usize, mode: usize, rng: &mut Rng) -> Vec<Vec<f32>> {
    const BAD: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    let mut cols: Vec<Vec<f32>> = (0..NAMES.len())
        .map(|_| (0..n).map(|_| rng.uniform(-3.0, 6.0)).collect())
        .collect();
    if n == 0 {
        return cols;
    }
    let boundary = n.saturating_sub(need);
    let poison = |cols: &mut [Vec<f32>], col: usize, row: usize, rng: &mut Rng| {
        cols[col][row.min(n - 1)] = BAD[rng.below(3)];
    };
    match mode {
        // Clean.
        0 => {}
        // Scattered over every column, anywhere in the series.
        1 => {
            for _ in 0..rng.below(n / 4 + 2) {
                poison(&mut cols, rng.below(NAMES.len()), rng.below(n), rng);
            }
        }
        // Inside the tail, selected columns, including the newest rows.
        2 => {
            for _ in 0..rng.below(need + 1) + 1 {
                poison(
                    &mut cols,
                    rng.below(4),
                    boundary + rng.below(n - boundary),
                    rng,
                );
            }
            poison(&mut cols, 1, n - 1, rng);
        }
        // A gap straddling the `n - need` boundary in each of two columns.
        3 => {
            for col in [1, 3] {
                let from = boundary.saturating_sub(rng.below(6));
                for row in from..=boundary + rng.below(4) {
                    poison(&mut cols, col, row, rng);
                }
            }
        }
        // Only columns screening dropped.
        4 => {
            for _ in 0..rng.below(n / 3 + 2) {
                poison(
                    &mut cols,
                    if rng.chance(0.5) { 2 } else { 4 },
                    rng.below(n),
                    rng,
                );
            }
        }
        // An unselected column that never reported a finite sample.
        5 => cols[4].fill(f32::NAN),
        // A selected column that never did, plus scattered damage.
        _ => {
            cols[3].fill(f32::INFINITY);
            for _ in 0..rng.below(8) {
                poison(&mut cols, rng.below(3), rng.below(n), rng);
            }
        }
    }
    cols
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Check one predictor state against the oracle; `Err` carries the diff.
fn check(state: &PredictorState) -> Result<(), String> {
    let label = format!(
        "{:?}/{:?} window {} copies {} rows {}",
        state.cfg.scenario,
        state.cfg.repair,
        state.cfg.window,
        state.cfg.expansion_copies,
        state.history[0].len()
    );
    let predictor = ResourcePredictor::from_state(state).map_err(|e| format!("{label}: {e}"))?;
    let want = reference_window(state);

    // The appending form must leave what the buffer already held alone —
    // on success and on failure.
    let mut stacked = vec![42.0f32; 3];
    let into = predictor.inference_window_into(&mut stacked);
    if stacked[..3] != [42.0; 3] {
        return Err(format!(
            "{label}: inference_window_into clobbered its buffer"
        ));
    }

    match (predictor.inference_window(), want) {
        (Ok((x, w, f)), Ok((rx, rw, rf))) => {
            if (w, f) != (rw, rf) || bits(&x) != bits(&rx) {
                return Err(format!(
                    "{label}: window differs from the full-history oracle"
                ));
            }
            if into.as_ref().ok() != Some(&(w, f)) || bits(&stacked[3..]) != bits(&x) {
                return Err(format!("{label}: inference_window_into disagrees"));
            }
            // The single-forecast path de-normalises through the resolved
            // scaler slot; it must equal the by-name inverse transform.
            let pred = predictor.predict_batch(&Tensor::from_vec(x, &[1, w, f]));
            let by_name = MinMaxScaler::from_parts(state.scaler_columns.clone())
                .inverse_transform_column(TARGET, pred.as_slice());
            let forecast = predictor.forecast().map_err(|e| format!("{label}: {e}"))?;
            if bits(&forecast) != bits(&by_name)
                || bits(&predictor.denormalize_forecast(pred.as_slice())) != bits(&by_name)
            {
                return Err(format!("{label}: forecast de-normalised differently"));
            }
            Ok(())
        }
        (Err(e), Err(re)) => {
            if e.0 != re.0 {
                return Err(format!("{label}: error '{}' != oracle '{}'", e.0, re.0));
            }
            if into.is_ok() || stacked.len() != 3 {
                return Err(format!("{label}: failed call left rows in the buffer"));
            }
            if predictor.forecast().is_ok() {
                return Err(format!("{label}: forecast succeeded without a window"));
            }
            Ok(())
        }
        (got, want) => Err(format!(
            "{label}: got {:?}, oracle {:?}",
            got.map(|(_, w, f)| (w, f)),
            want.map(|(_, w, f)| (w, f))
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tail_window_equals_full_history_composition(
        seed in 0u64..u64::MAX,
        window_idx in 0usize..3,
        copies_idx in 0usize..3,
        len_class in 0usize..6,
        mode in 0usize..7,
    ) {
        let mut rng = Rng::seed_from(seed);
        let window = [1usize, 5, 30][window_idx];
        let copies = [1usize, 3, 4][copies_idx];
        let need = window + copies - 1;
        let n = match len_class {
            0 => rng.below(need),          // too short, including empty
            1 => need - 1 + rng.below(3),  // around the threshold
            2 => need + rng.below(40),
            3 => 400 + rng.below(200),
            4 => 5_000,
            _ => need + rng.below(2_000),
        };
        let raw = history(n, need, mode, &mut rng);
        for scenario in SCENARIOS {
            for repair in POLICIES {
                let state = state_with(scenario, repair, window, copies, raw.clone(), &mut rng);
                if let Err(diff) = check(&state) {
                    prop_assert!(false, "{}", diff);
                }
            }
        }
    }
}

#[test]
fn error_cases_keep_their_message_and_count() {
    let mut rng = Rng::seed_from(7);
    let clean_rows = |n| history(n, 0, 0, &mut Rng::seed_from(n as u64));

    // Too short: 20 rows cannot fill a window of 30.
    let s = state_with(
        Scenario::Mul,
        RepairPolicy::DropRows,
        30,
        3,
        clean_rows(20),
        &mut rng,
    );
    check(&s).unwrap();
    let err = ResourcePredictor::from_state(&s)
        .unwrap()
        .inference_window()
        .unwrap_err();
    assert_eq!(err.0, "need 30 preprocessed samples, have 20");

    // Expansion eats `copies - 1` of them first.
    let s = state_with(
        Scenario::MulExp,
        RepairPolicy::DropRows,
        30,
        3,
        clean_rows(20),
        &mut rng,
    );
    check(&s).unwrap();
    let err = ResourcePredictor::from_state(&s)
        .unwrap()
        .inference_window()
        .unwrap_err();
    assert_eq!(err.0, "need 30 preprocessed samples, have 18");

    // Too few *clean* rows: 100 raw rows, but DropRows keeps only 25.
    let mut raw = clean_rows(100);
    for row in 0..75 {
        raw[row % 5][row] = f32::NAN;
    }
    let s = state_with(
        Scenario::Mul,
        RepairPolicy::DropRows,
        30,
        3,
        raw.clone(),
        &mut rng,
    );
    check(&s).unwrap();
    let err = ResourcePredictor::from_state(&s)
        .unwrap()
        .inference_window()
        .unwrap_err();
    assert_eq!(err.0, "need 30 preprocessed samples, have 25");
    // The repairing policies keep every row, so the same history serves.
    for repair in [RepairPolicy::Interpolate, RepairPolicy::ForwardFill] {
        let s = state_with(Scenario::Mul, repair, 30, 3, raw.clone(), &mut rng);
        check(&s).unwrap();
        assert!(ResourcePredictor::from_state(&s)
            .unwrap()
            .inference_window()
            .is_ok());
    }

    // A zero-copy expansion is an error, never a panic or an empty window.
    for n in [0, 10, 500] {
        let s = state_with(
            Scenario::MulExp,
            RepairPolicy::DropRows,
            30,
            0,
            clean_rows(n),
            &mut rng,
        );
        check(&s).unwrap();
        let err = ResourcePredictor::from_state(&s)
            .unwrap()
            .inference_window()
            .unwrap_err();
        assert_eq!(err.0, "horizontal expansion needs copies >= 1");
    }

    // Fewer clean rows than lag copies.
    let s = state_with(
        Scenario::MulExp,
        RepairPolicy::DropRows,
        5,
        4,
        clean_rows(2),
        &mut rng,
    );
    check(&s).unwrap();
    let err = ResourcePredictor::from_state(&s)
        .unwrap()
        .inference_window()
        .unwrap_err();
    assert_eq!(err.0, "frame of 2 rows too short for 4 lag copies");
}
