//! Property tests for histogram invariants: whatever the bucket layout
//! and sample stream, counts are conserved and quantiles are monotone
//! and stay inside the exact [min, max] envelope.

use obs::{Histogram, HistogramSnapshot};
use proptest::collection::vec;
use proptest::prelude::*;

/// Record every sample into a fresh histogram over `bounds`.
fn recorded(bounds: &[u64], samples: &[u64]) -> Histogram {
    let h = Histogram::with_bounds(bounds);
    for &s in samples {
        h.record(s);
    }
    h
}

/// Total samples accounted for by the bucket layout of a snapshot.
fn bucketed_total(s: &HistogramSnapshot) -> u64 {
    s.buckets.iter().map(|&(_, n)| n).sum::<u64>() + s.overflow
}

proptest! {
    /// Every recorded sample lands in exactly one bucket (or overflow):
    /// bucket totals equal the count, and count/sum/min/max are exact.
    #[test]
    fn count_is_conserved_across_buckets(
        bounds in vec(1u64..1_000_000, 0..12),
        samples in vec(0u64..10_000_000, 0..300),
    ) {
        let s = recorded(&bounds, &samples).snapshot();
        prop_assert_eq!(s.count, samples.len() as u64);
        prop_assert_eq!(bucketed_total(&s), s.count);
        prop_assert_eq!(s.sum, samples.iter().sum::<u64>());
        prop_assert_eq!(s.min, samples.iter().min().copied());
        prop_assert_eq!(s.max, samples.iter().max().copied());
    }

    /// Quantiles never decrease as q grows, sit inside [min, max], and
    /// q = 1 is the exact maximum — so p50 <= p99 <= max always holds.
    #[test]
    fn quantiles_are_monotone_and_enveloped(
        bounds in vec(1u64..1_000_000, 0..12),
        samples in vec(0u64..10_000_000, 1..300),
    ) {
        let s = recorded(&bounds, &samples).snapshot();
        let (min, max) = (s.min.unwrap(), s.max.unwrap());
        let mut last = min;
        for step in 0..=20u32 {
            let q = f64::from(step) / 20.0;
            let v = s.quantile(q).unwrap();
            prop_assert!(v >= last, "quantile({}) = {} < previous {}", q, v, last);
            prop_assert!(v >= min && v <= max, "quantile({}) = {} outside [{}, {}]", q, v, min, max);
            last = v;
        }
        prop_assert_eq!(s.quantile(1.0), Some(max));
        let (p50, p99) = (s.quantile(0.5).unwrap(), s.quantile(0.99).unwrap());
        prop_assert!(p50 <= p99 && p99 <= max);
    }
}
