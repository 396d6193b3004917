//! Parity guarantees for the tape-free inference engine: every forecaster's
//! `predict` (arena backend, no tape) must match the taped backend bit for
//! bit, the streaming RPTCN engine must match batch inference over the full
//! pushed history, and batched inputs must match row-at-a-time inference
//! exactly.

use models::{
    AttentionKind, CnnLstmConfig, CnnLstmForecaster, Forecaster, GruConfig, GruForecaster,
    LstmConfig, LstmForecaster, NeuralTrainSpec, RptcnConfig, RptcnForecaster, StreamingRptcn,
    TcnConfig, TcnForecaster,
};
use proptest::prelude::*;
use tensor::Tensor;
use timeseries::{make_windows, TimeSeriesFrame, WindowedDataset};

fn dataset(window: usize) -> WindowedDataset {
    let n = 260;
    let cpu: Vec<f32> = (0..n)
        .map(|i| 0.5 + 0.3 * (i as f32 * 0.23).sin() + 0.05 * ((i % 17) as f32 / 17.0))
        .collect();
    let mem: Vec<f32> = (0..n)
        .map(|i| 0.4 + 0.2 * (i as f32 * 0.11).cos())
        .collect();
    let frame = TimeSeriesFrame::from_columns(&[("cpu", cpu), ("mem", mem)]).unwrap();
    make_windows(&frame, "cpu", window, 1).unwrap()
}

fn quick_spec() -> NeuralTrainSpec {
    NeuralTrainSpec {
        epochs: 2,
        ..Default::default()
    }
}

/// One definition run on two backends whose primitives agree bit for bit:
/// the forecasts are the same bits, not merely close.
fn assert_bitwise(tape_free: &Tensor, taped: &Tensor, what: &str) {
    assert_eq!(tape_free.shape(), taped.shape(), "{what}: shape mismatch");
    for (i, (a, b)) in tape_free
        .as_slice()
        .iter()
        .zip(taped.as_slice())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: element {i} differs, tape-free {a} vs taped {b}"
        );
    }
}

#[test]
fn rptcn_every_ablation_variant_matches_taped_path() {
    let ds = dataset(16);
    let variants = [
        (true, true, AttentionKind::Feature),
        (true, false, AttentionKind::Feature),
        (false, true, AttentionKind::Feature),
        (false, false, AttentionKind::Feature),
        (true, true, AttentionKind::Temporal),
    ];
    for (use_fc, use_attention, attention) in variants {
        let mut model = RptcnForecaster::new(RptcnConfig {
            channels: 6,
            levels: 2,
            fc_dim: 12,
            use_fc,
            use_attention,
            attention,
            spec: quick_spec(),
            ..Default::default()
        });
        model.fit(&ds, None);
        assert_bitwise(
            &model.predict(&ds.x),
            &model.predict_taped(&ds.x),
            &format!("RPTCN fc={use_fc} attn={use_attention} {attention:?}"),
        );
    }
}

#[test]
fn untrained_rptcn_at_paper_config_matches_taped_path() {
    // Paper defaults (channels 16, levels 4, kernel 3) without paying for a
    // fit: init_untrained perturbs every parameter, including the
    // zero-initialised head, so the full forward path is exercised.
    let mut model = RptcnForecaster::paper_default();
    model.init_untrained(2, 1);
    let mut rng = tensor::Rng::seed_from(11);
    let x = Tensor::rand_normal(&[5, 30, 2], 0.5, 0.2, &mut rng);
    assert_bitwise(
        &model.predict(&x),
        &model.predict_taped(&x),
        "untrained paper-config RPTCN",
    );
}

#[test]
fn tcn_lstm_gru_cnn_lstm_match_taped_path() {
    let ds = dataset(12);

    let mut tcn = TcnForecaster::new(TcnConfig {
        channels: 6,
        levels: 2,
        spec: quick_spec(),
        ..Default::default()
    });
    tcn.fit(&ds, None);
    assert_bitwise(&tcn.predict(&ds.x), &tcn.predict_taped(&ds.x), "TCN");

    let mut lstm = LstmForecaster::new(LstmConfig {
        hidden: 10,
        layers: 2,
        spec: quick_spec(),
        ..Default::default()
    });
    lstm.fit(&ds, None);
    assert_bitwise(&lstm.predict(&ds.x), &lstm.predict_taped(&ds.x), "LSTM");

    let mut gru = GruForecaster::new(GruConfig {
        hidden: 10,
        layers: 2,
        spec: quick_spec(),
        ..Default::default()
    });
    gru.fit(&ds, None);
    assert_bitwise(&gru.predict(&ds.x), &gru.predict_taped(&ds.x), "GRU");

    let mut cnn = CnnLstmForecaster::new(CnnLstmConfig {
        conv_channels: 6,
        lstm_hidden: 10,
        spec: quick_spec(),
        ..Default::default()
    });
    cnn.fit(&ds, None);
    assert_bitwise(&cnn.predict(&ds.x), &cnn.predict_taped(&ds.x), "CNN-LSTM");
}

#[test]
fn batched_predict_matches_row_at_a_time() {
    // The serve layer stacks same-shape entities into one call; per-row
    // kernels make the batched result exactly equal to n batch-1 calls.
    let mut model = RptcnForecaster::new(RptcnConfig {
        channels: 8,
        levels: 2,
        fc_dim: 12,
        spec: quick_spec(),
        ..Default::default()
    });
    model.init_untrained(3, 2);
    let mut rng = tensor::Rng::seed_from(5);
    let x = Tensor::rand_normal(&[7, 20, 3], 0.5, 0.3, &mut rng);
    let batched = model.predict(&x);
    for row in 0..7 {
        let one = Tensor::from_vec(
            x.as_slice()[row * 20 * 3..(row + 1) * 20 * 3].to_vec(),
            &[1, 20, 3],
        );
        let single = model.predict(&one);
        assert_eq!(
            single.as_slice(),
            &batched.as_slice()[row * 2..(row + 1) * 2],
            "row {row} of batched forecast differs from its batch-1 call"
        );
    }
}

fn streaming_model(features: usize) -> RptcnForecaster {
    let mut model = RptcnForecaster::new(RptcnConfig {
        channels: 8,
        levels: 3,
        fc_dim: 12,
        ..Default::default()
    });
    model.init_untrained(features, 1);
    model
}

#[test]
fn streaming_push_matches_batch_forward_past_receptive_field() {
    // Stream far beyond the receptive field (levels 3, kernel 3 → 29) so
    // the rings wrap many times; every push must still match the batch
    // forward over the full history pushed so far.
    let features = 2;
    let model = streaming_model(features);
    let mut stream = StreamingRptcn::new(&model).unwrap();
    let mut rng = tensor::Rng::seed_from(42);
    let total = 80;
    let history = Tensor::rand_normal(&[1, total, features], 0.5, 0.25, &mut rng);
    for n in 1..=total {
        let sample = &history.as_slice()[(n - 1) * features..n * features];
        let streamed = stream.push(sample).to_vec();
        let prefix = Tensor::from_vec(
            history.as_slice()[..n * features].to_vec(),
            &[1, n, features],
        );
        let batch = model.predict(&prefix);
        let diff = (streamed[0] - batch.as_slice()[0]).abs();
        assert!(
            diff <= 1e-5,
            "streaming push {n} diverged from batch forward by {diff}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After warm-up (any number of pushes), a streaming forecast equals
    /// the batch forward on the same full history, for arbitrary sample
    /// values and stream lengths.
    #[test]
    fn streaming_equals_batch_on_arbitrary_streams(
        raw in proptest::collection::vec(-2.0f32..2.0, 2..97),
    ) {
        let features = 2;
        let n = raw.len() / features;
        prop_assume!(n >= 1);
        let data = &raw[..n * features];
        let model = streaming_model(features);
        let mut stream = StreamingRptcn::new(&model).unwrap();
        let mut last = Vec::new();
        for i in 0..n {
            last = stream.push(&data[i * features..(i + 1) * features]).to_vec();
        }
        let batch = model.predict(&Tensor::from_vec(data.to_vec(), &[1, n, features]));
        let diff = (last[0] - batch.as_slice()[0]).abs();
        prop_assert!(
            diff <= 1e-5,
            "stream of {n} samples diverged from batch forward by {diff}"
        );
    }
}
