//! Property tests for the no-NaN-out guarantee: however many NaN/Inf
//! values enter — in the bootstrap frame, in streamed samples, under
//! either ingest guard — every forecast the stack hands back is finite.

use models::NaiveForecaster;
use obs::{EventKind, SimClock};
use proptest::prelude::*;
use rptcn::{PipelineConfig, ResourcePredictor, Scenario};
use serve::{IngestGuard, PredictionService, ServiceConfig};
use timeseries::{clean, MinMaxScaler, RepairPolicy, TimeSeriesFrame};

const LEN: usize = 48;

fn series() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-50.0f32..150.0, LEN)
}

/// Positions to poison and which non-finite value to plant at each.
fn poison_mask(max: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0usize..LEN, 0usize..3), 0..max)
}

fn poison_value(kind: usize) -> f32 {
    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][kind]
}

fn poisoned_frame(
    mut cpu: Vec<f32>,
    mut mem: Vec<f32>,
    mask: &[(usize, usize)],
) -> TimeSeriesFrame {
    for (i, &(pos, kind)) in mask.iter().enumerate() {
        let col: &mut Vec<f32> = if i % 2 == 0 { &mut cpu } else { &mut mem };
        col[pos] = poison_value(kind);
    }
    TimeSeriesFrame::from_columns(&[("cpu_util_percent", cpu), ("mem_util_percent", mem)]).unwrap()
}

fn uni_config(repair: RepairPolicy) -> PipelineConfig {
    PipelineConfig {
        scenario: Scenario::Uni,
        window: 8,
        horizon: 1,
        repair,
        ..Default::default()
    }
}

proptest! {
    /// The offline path: a poisoned frame through cleaning and min-max
    /// scaling yields only finite values, under every repair policy.
    #[test]
    fn preprocess_and_scaler_swallow_non_finite_input(
        cpu in series(),
        mem in series(),
        mask in poison_mask(10),
        policy_idx in 0usize..3,
    ) {
        let frame = poisoned_frame(cpu, mem, &mask);
        let policy = [RepairPolicy::DropRows, RepairPolicy::Interpolate, RepairPolicy::ForwardFill][policy_idx];
        let (cleaned, _) = clean(&frame, policy);
        prop_assert!(cleaned.is_clean());
        let scaled = MinMaxScaler::fit(&cleaned).transform(&cleaned);
        for j in 0..scaled.num_columns() {
            for &v in scaled.column_at(j) {
                prop_assert!(v.is_finite(), "scaler leaked non-finite value {v}");
            }
        }
    }

    /// The full offline pipeline: fitting a predictor on a poisoned
    /// bootstrap frame and forecasting never yields non-finite output.
    #[test]
    fn predictor_fit_on_poisoned_bootstrap_forecasts_finite(
        cpu in series(),
        mem in series(),
        mask in poison_mask(8),
        policy_idx in 0usize..2,
    ) {
        let frame = poisoned_frame(cpu, mem, &mask);
        let policy = [RepairPolicy::Interpolate, RepairPolicy::ForwardFill][policy_idx];
        let (predictor, _) = ResourcePredictor::fit(
            Box::new(NaiveForecaster::new()),
            &frame,
            uni_config(policy),
        )
        .expect("repairing policies keep every row, so fit must succeed");
        let fc = predictor.forecast().unwrap();
        prop_assert!(!fc.is_empty());
        for v in fc {
            prop_assert!(v.is_finite(), "non-finite forecast {v}; mask {mask:?} policy {policy:?}");
        }
    }
}

proptest! {
    // Each case spins up a real service (threads and all); fewer, fatter
    // cases keep the suite fast without losing coverage.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The online path: streaming poisoned samples into a live service —
    /// under both ingest guards — never produces a non-finite forecast,
    /// and every poisoned sample is accounted for as repaired or
    /// quarantined.
    #[test]
    fn service_ingest_of_poisoned_samples_forecasts_finite(
        cpu in series(),
        mem in series(),
        mask in poison_mask(12),
        guard_idx in 0usize..2,
    ) {
        let guard = [IngestGuard::Repair, IngestGuard::Quarantine][guard_idx];
        // A virtual clock keeps the whole service off real wall-time and
        // stamps journal entries on a deterministic timeline.
        let mut service = PredictionService::new(ServiceConfig {
            shards: 1,
            refit_workers: 0,
            ingest_guard: guard,
            clock: SimClock::new().shared(),
            ..Default::default()
        })
        .expect("spawn service");
        service
            .add_entity(
                "c_0",
                &poisoned_frame(vec![50.0; LEN], vec![30.0; LEN], &[]),
                uni_config(RepairPolicy::ForwardFill),
                Box::new(NaiveForecaster::new()),
            )
            .unwrap();

        let frame = poisoned_frame(cpu, mem, &mask);
        let mut dirty = 0u64;
        for row in 0..frame.len() {
            let sample: Vec<f32> = (0..frame.num_columns())
                .map(|j| frame.column_at(j)[row])
                .collect();
            if sample.iter().any(|v| !v.is_finite()) {
                dirty += 1;
            }
            service.ingest("c_0", sample).unwrap();

            let fc = service.forecast("c_0").unwrap();
            prop_assert!(!fc.is_empty());
            for v in fc {
                prop_assert!(v.is_finite(), "non-finite forecast {v} after row {row}");
            }
        }
        service.flush().unwrap();
        let stats = service.stats();
        prop_assert_eq!(
            stats.total(|s| s.repaired_samples) + stats.total(|s| s.quarantined_samples),
            dirty,
            "every poisoned sample must be repaired or quarantined"
        );
        match guard {
            IngestGuard::Repair => prop_assert_eq!(stats.total(|s| s.quarantined_samples), 0),
            IngestGuard::Quarantine => prop_assert_eq!(stats.total(|s| s.repaired_samples), 0),
        }
        // The journal agrees with the counters, event for event.
        let journal = service.journal();
        prop_assert_eq!(
            journal.count(EventKind::Quarantined) as u64,
            stats.total(|s| s.quarantined_samples)
        );
        prop_assert_eq!(
            journal.count(EventKind::Repaired) as u64,
            stats.total(|s| s.repaired_samples)
        );
    }
}
