//! Checkpoint round-trip guarantees for the neural forecasters: a model
//! saved to disk and loaded into a fresh process state must predict
//! bit-identically, corrupted or truncated files must be rejected with an
//! error — never a panic or a silently wrong model — and a save that
//! fails part-way must leave the previous file whole.

use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use models::checkpoint::{write_atomically, write_model_file};
use models::{
    load_model, save_model, Forecaster, LstmConfig, LstmForecaster, ModelState, NeuralTrainSpec,
    RptcnConfig, RptcnForecaster,
};
use proptest::prelude::*;
use timeseries::{make_windows, TimeSeriesFrame, WindowedDataset};

static NEXT_FILE: AtomicU64 = AtomicU64::new(0);

/// A unique scratch path per call, cleaned up by the caller.
fn scratch_path(tag: &str) -> PathBuf {
    let n = NEXT_FILE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rptcn-ckpt-test-{}-{tag}-{n}.bin",
        std::process::id()
    ))
}

fn dataset() -> WindowedDataset {
    let series: Vec<f32> = (0..300)
        .map(|i| 0.5 + 0.35 * (i as f32 * 0.2).sin())
        .collect();
    let frame = TimeSeriesFrame::from_columns(&[("cpu", series)]).unwrap();
    make_windows(&frame, "cpu", 16, 1).unwrap()
}

fn quick_spec() -> NeuralTrainSpec {
    NeuralTrainSpec {
        epochs: 3,
        ..Default::default()
    }
}

fn trained_rptcn(ds: &WindowedDataset) -> RptcnForecaster {
    let mut model = RptcnForecaster::new(RptcnConfig {
        channels: 6,
        levels: 2,
        fc_dim: 12,
        dropout: 0.1,
        spec: quick_spec(),
        ..Default::default()
    });
    model.fit(ds, None);
    model
}

fn trained_lstm(ds: &WindowedDataset) -> LstmForecaster {
    let mut model = LstmForecaster::new(LstmConfig {
        hidden: 12,
        layers: 1,
        spec: quick_spec(),
        ..Default::default()
    });
    model.fit(ds, None);
    model
}

/// Bitwise equality — `==` on floats would also pass for values that are
/// merely close, and NaNs would hide differences.
fn assert_bit_identical(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "prediction lengths differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "prediction {i} differs after restore: {x} vs {y}"
        );
    }
}

#[test]
fn rptcn_save_load_predicts_bit_identically() {
    let ds = dataset();
    let model = trained_rptcn(&ds);
    let before = model.predict(&ds.x).into_vec();

    let path = scratch_path("rptcn");
    model.save(&path).unwrap();
    // A fresh, unfitted forecaster with a *different* configured shape:
    // load_state must rebuild the architecture from the checkpoint alone.
    let mut restored = RptcnForecaster::new(RptcnConfig {
        channels: 32,
        levels: 5,
        ..Default::default()
    });
    restored.load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let after = restored.predict(&ds.x).into_vec();
    assert_bit_identical(&before, &after);
}

#[test]
fn lstm_save_load_predicts_bit_identically() {
    let ds = dataset();
    let model = trained_lstm(&ds);
    let before = model.predict(&ds.x).into_vec();

    let path = scratch_path("lstm");
    model.save(&path).unwrap();
    let mut restored = LstmForecaster::new(LstmConfig::default());
    restored.load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let after = restored.predict(&ds.x).into_vec();
    assert_bit_identical(&before, &after);
}

#[test]
fn cross_architecture_load_is_rejected() {
    let ds = dataset();
    let lstm = trained_lstm(&ds);
    let path = scratch_path("cross");
    lstm.save(&path).unwrap();
    let mut rptcn = RptcnForecaster::paper_default();
    let err = rptcn.load(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        err.0.contains("LSTM"),
        "error should name the mismatched architecture: {}",
        err.0
    );
}

#[test]
fn corrupted_header_is_rejected() {
    let ds = dataset();
    let model = trained_lstm(&ds);
    let path = scratch_path("header");
    model.save(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] ^= 0xFF; // break the magic
    std::fs::write(&path, &bytes).unwrap();
    let err = load_model(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(err.0.contains("magic"), "unexpected error: {}", err.0);
}

#[test]
fn truncated_file_is_rejected_at_every_cut() {
    let ds = dataset();
    let model = trained_lstm(&ds);
    let path = scratch_path("trunc");
    model.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    for cut in [
        0,
        1,
        4,
        8,
        bytes.len() / 4,
        bytes.len() / 2,
        bytes.len() - 1,
    ] {
        let path = scratch_path("trunc-cut");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let result = load_model(&path);
        std::fs::remove_file(&path).ok();
        assert!(result.is_err(), "truncation at {cut} bytes was accepted");
    }
}

/// `state` with meta `key` set to `value`.
fn with_meta(state: &ModelState, key: &str, value: f64) -> ModelState {
    let mut state = state.clone();
    let slot = state.meta.iter_mut().find(|(k, _)| k == key);
    slot.expect("the meta key exists").1 = value;
    state
}

#[test]
fn rptcn_state_with_zero_levels_is_a_typed_error() {
    let state = trained_rptcn(&dataset()).state().unwrap();
    let Err(err) = RptcnForecaster::from_state(&with_meta(&state, "levels", 0.0)) else {
        panic!("zero levels loaded");
    };
    assert!(err.0.contains("levels"), "{}", err.0);
}

#[test]
fn rptcn_state_with_dropout_out_of_range_is_a_typed_error() {
    let state = trained_rptcn(&dataset()).state().unwrap();
    for p in [1.0, 1.5, -0.1, f64::NAN] {
        let Err(err) = RptcnForecaster::from_state(&with_meta(&state, "dropout", p)) else {
            panic!("dropout {p} loaded");
        };
        assert!(err.0.contains("dropout"), "{p}: {}", err.0);
    }
}

/// A writer that takes `left` bytes, then fails every write: a disk that
/// fills, or a process killed, mid-save.
struct FailAfter<W> {
    inner: W,
    left: usize,
}

impl<W: Write> Write for FailAfter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.left == 0 {
            return Err(io::Error::other("no space left"));
        }
        let n = self.inner.write(&buf[..buf.len().min(self.left)])?;
        self.left -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[test]
fn a_save_that_fails_part_way_leaves_the_previous_file_whole() {
    let ds = dataset();
    let a = trained_lstm(&ds).state().unwrap();
    let b = trained_rptcn(&ds).state().unwrap();
    let path = scratch_path("atomic");
    save_model(&path, &a).unwrap();
    let a_bytes = std::fs::read(&path).unwrap();
    let mut b_bytes = Vec::new();
    write_model_file(&mut b_bytes, &b).unwrap();

    let mut tmp = path.clone().into_os_string();
    tmp.push(".tmp");
    for n in 0..b_bytes.len() {
        let result = write_atomically(&path, |w| {
            write_model_file(&mut FailAfter { inner: w, left: n }, &b)
        });
        assert!(result.is_err(), "a save cut at byte {n} reported success");
        assert_eq!(std::fs::read(&path).unwrap(), a_bytes, "cut at byte {n}");
        assert!(
            !PathBuf::from(&tmp).exists(),
            "cut at byte {n} left the temporary file"
        );
    }
    assert_eq!(load_model(&path).unwrap(), a);
    save_model(&path, &b).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), b_bytes);
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any single flipped byte either fails to load or loads a model whose
    /// state is self-consistent enough to predict — never a panic.
    #[test]
    fn single_byte_corruption_never_panics(pos_frac in 0.0f64..1.0, flip in 1u8..=255) {
        let ds = dataset();
        let model = trained_lstm(&ds);
        let path = scratch_path("prop");
        model.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        let path = scratch_path("prop-flipped");
        std::fs::write(&path, &bytes).unwrap();
        let mut restored = LstmForecaster::new(LstmConfig::default());
        if restored.load(&path).is_ok() {
            // The flip landed in weight data: the model must still run.
            let pred = restored.predict(&ds.x);
            prop_assert_eq!(pred.shape()[0], ds.x.shape()[0]);
        }
        std::fs::remove_file(&path).ok();
    }
}
