//! Order statistics the benchmark reports: medians, Python-compatible
//! quartiles, tail percentiles that are only quoted when enough samples
//! lie beyond them, and the quietest-stretch figures (latency percentile,
//! duration, rate) that a shared host's bursts of interference leave alone.

/// A percentile is quoted only when at least this many samples lie
/// beyond it — fewer and the figure is one outlier, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for even counts);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them,
/// so `--repeat` reproduces the acceptance check's spread figure. Needs
/// at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The `p`-th percentile (`0 < p < 100`) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    let beyond = ((n as f64) * (1.0 - p / 100.0)).floor() as usize;
    if n == 0 || beyond < MIN_BEYOND {
        return None;
    }
    Some(sorted[n - 1 - beyond])
}

/// Consecutive single forecasts per stretch of [`floor_percentile`]: the
/// p99 stretch is the shortest that leaves [`MIN_BEYOND`] samples beyond
/// it, the p50 stretch is kept short so that one fits between two bursts
/// of interference.
pub const P50_STRETCH: usize = 200;
pub const P99_STRETCH: usize = 1000;

/// Consecutive repetitions per stretch of [`floor_seconds`] and
/// [`peak_rate`], and how many repetitions it takes before stretches are
/// formed at all.
pub const CALL_STRETCH: usize = 5;
pub const MIN_FOR_STRETCHES: usize = 20;

/// The `p`-th percentile of the quietest stretch: taken over every run of
/// `stretch` consecutive samples (in arrival order, starting every tenth of
/// a stretch), the lowest is reported. The host only ever adds time, in
/// bursts of a few seconds that cover a third of some runs and none of
/// others, so the whole-run percentile repeats to 20 % and the quietest
/// stretch to a few. With fewer samples than one stretch it is the plain
/// percentile. `None` when a stretch cannot carry the percentile.
pub fn floor_percentile(samples: &[u64], p: f64, stretch: usize) -> Option<f64> {
    let stretch = stretch.min(samples.len()).max(1);
    let mut sorted = Vec::with_capacity(stretch);
    let mut lowest: Option<u64> = None;
    for window in samples.windows(stretch).step_by((stretch / 10).max(1)) {
        sorted.clear();
        sorted.extend_from_slice(window);
        sorted.sort_unstable();
        let value = percentile(&sorted, p)?;
        lowest = Some(lowest.map_or(value, |l| l.min(value)));
    }
    lowest.map(|v| v as f64)
}

/// The highest of p50/p90/p99/p99.9/p99.99 that `n` samples support.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| ((n as f64) * (1.0 - p / 100.0)).floor() as usize >= MIN_BEYOND)
}

/// One timed call that moved `items` entries.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub items: usize,
    pub nanos: u64,
}

/// Medians of every [`CALL_STRETCH`] consecutive `values`; with fewer than
/// [`MIN_FOR_STRETCHES`] of them, the values themselves.
fn stretch_medians(values: &[f64]) -> impl Iterator<Item = f64> + '_ {
    let stretch = if values.len() >= MIN_FOR_STRETCHES {
        CALL_STRETCH
    } else {
        1
    };
    values.windows(stretch).map(median)
}

/// Seconds one repetition of an operation (a set-up, a fit) takes in the
/// quietest stretch of the run: the lowest median of [`CALL_STRETCH`]
/// consecutive repetitions. The median keeps one lucky repetition from
/// setting the figure, the stretch keeps a burst of interference out of
/// it. A few repetitions of a long operation form no stretches: each is
/// thousands of steps and so its own average, and the fastest is reported.
/// `NaN` when empty.
pub fn floor_seconds(seconds: &[f64]) -> f64 {
    stretch_medians(seconds).fold(f64::NAN, f64::min)
}

/// [`floor_seconds`] for calls counted in entries (a chunk of a tick, a
/// seeding chunk, a migration): the highest entries per second.
pub fn peak_rate(calls: &[Call]) -> f64 {
    let rates: Vec<f64> = calls
        .iter()
        .map(|c| c.items as f64 * 1e9 / c.nanos.max(1) as f64)
        .collect();
    stretch_medians(&rates).fold(f64::NAN, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 30], n=4) == [5.0, 20.0, 35.0]
        assert_eq!(quartiles(&[30.0, 10.0]), Some((5.0, 20.0, 35.0)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]),
            Some((1.5, 4.0, 12.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sorted: Vec<u64> = (1..=1000).collect();
        // 10 samples (991..=1000) lie beyond the p99 of 1000.
        assert_eq!(percentile(&sorted, 99.0), Some(990));
        assert_eq!(percentile(&sorted, 50.0), Some(500));
        // p99.9 of 1000 samples would have one sample beyond it.
        assert_eq!(percentile(&sorted, 99.9), None);
        assert_eq!(percentile(&sorted[..999], 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn floor_percentile_reports_the_quietest_stretch() {
        // 1..=1000 three times over; the middle third is slowed tenfold and
        // the last third stalls for its last 5 %.
        let mut samples: Vec<u64> = Vec::new();
        for third in 0..3 {
            for i in 1..=1000u64 {
                samples.push(match third {
                    1 => i * 10,
                    2 if i > 950 => i * 1000,
                    _ => i,
                });
            }
        }
        assert_eq!(floor_percentile(&samples, 99.0, 1000), Some(990.0));
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        assert!(percentile(&sorted, 99.0).unwrap() > 9_000);
        // The quietest 200 consecutive samples are 1..=200.
        assert_eq!(floor_percentile(&samples, 50.0, 200), Some(100.0));
        // Less than a stretch: the plain percentile, same ten-beyond rule.
        assert_eq!(floor_percentile(&samples[..500], 50.0, 1000), Some(250.0));
        assert_eq!(floor_percentile(&samples[..999], 99.0, 1000), None);
        assert_eq!(floor_percentile(&[], 50.0, 200), None);
    }

    #[test]
    fn highest_percentile_follows_the_sample_count() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(30_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn peak_rate_ignores_a_slow_stretch_and_one_lucky_call() {
        let call = |nanos| Call { items: 100, nanos };
        // 100 items per millisecond, then a burst that slows ten calls
        // tenfold, and one call that reads ten times too fast.
        let mut calls = vec![call(1_000_000); 6];
        calls.extend(vec![call(10_000_000); 10]);
        calls.push(call(100_000));
        calls.extend(vec![call(1_000_000); 4]);
        assert_eq!(peak_rate(&calls), 100_000.0);
        let seconds: Vec<f64> = calls.iter().map(|c| c.nanos as f64 / 1e9).collect();
        assert_eq!(floor_seconds(&seconds), 0.001);
        // Fewer than twenty repetitions form no stretches: the fastest one.
        assert_eq!(peak_rate(&calls[10..]), 1_000_000.0);
        assert_eq!(floor_seconds(&[0.3, 0.2, 0.4]), 0.2);
        assert!(peak_rate(&[]).is_nan() && floor_seconds(&[]).is_nan());
    }
}
