//! Data cleaning and normalisation (paper §III-A, Algorithm 1 steps 1–2).

use crate::frame::TimeSeriesFrame;

/// How the cleaning stage repairs missing (`NaN`/infinite) samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairPolicy {
    /// Drop every row containing an invalid value in any column — the
    /// paper's "screen the records with complete information".
    DropRows,
    /// Linearly interpolate between the nearest valid neighbours (edges are
    /// extended with the nearest valid value).
    Interpolate,
    /// Carry the last valid observation forward (first valid backward at
    /// the start).
    ForwardFill,
}

/// Clean a frame: repair or drop invalid samples, returning a frame for
/// which [`TimeSeriesFrame::is_clean`] holds, plus how many samples were
/// touched.
pub fn clean(frame: &TimeSeriesFrame, policy: RepairPolicy) -> (TimeSeriesFrame, usize) {
    match repair_for(policy) {
        None => {
            let n = frame.len();
            let keep: Vec<usize> = (0..n)
                .filter(|&i| row_complete(frame.columns(), i))
                .collect();
            let dropped = n - keep.len();
            let cols = frame
                .names()
                .iter()
                .enumerate()
                .map(|(j, name)| {
                    let col = frame.column_at(j);
                    (name.clone(), keep.iter().map(|&i| col[i]).collect())
                })
                .collect();
            (TimeSeriesFrame::new(cols).expect("clean frame"), dropped)
        }
        Some(repair) => {
            let mut repaired = 0usize;
            let cols = frame
                .names()
                .iter()
                .enumerate()
                .map(|(j, name)| {
                    let mut col = frame.column_at(j).to_vec();
                    repaired += repair(&mut col);
                    (name.clone(), col)
                })
                .collect();
            (TimeSeriesFrame::new(cols).expect("clean frame"), repaired)
        }
    }
}

/// What [`clean_tail`] appended, and how far back into the raw series it
/// had to read to get it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleanTail {
    /// First raw row read: cleaning `[start, n)` alone reproduces the tail
    /// of cleaning the whole series.
    pub start: usize,
    /// Clean rows appended per emitted column: `need`, or every clean row
    /// the series has when that is fewer.
    pub rows: usize,
}

/// The last `need` rows of [`clean`] without cleaning the whole series:
/// appends them to `out` for each raw column index in `emit`, one column
/// after another, bitwise-equal to cleaning all of `columns` and slicing.
///
/// Only the rows the tail depends on are read. Under
/// [`RepairPolicy::DropRows`] that is back to the `need`-th row from the
/// end that is finite in *every* column; under the repairing policies a
/// finite sample pins every repaired value after it, so each emitted
/// column is read back to its nearest finite sample at or before row
/// `n - need`. A finite tail therefore costs `need` rows however long the
/// series has grown.
pub fn clean_tail<C: AsRef<[f32]>>(
    columns: &[C],
    emit: &[usize],
    policy: RepairPolicy,
    need: usize,
    out: &mut Vec<f32>,
) -> CleanTail {
    let n = columns.first().map_or(0, |c| c.as_ref().len());
    let Some(repair) = repair_for(policy) else {
        let mut keep: Vec<usize> = (0..n)
            .rev()
            .filter(|&i| row_complete(columns, i))
            .take(need)
            .collect();
        keep.reverse();
        for &j in emit {
            let col = columns[j].as_ref();
            out.extend(keep.iter().map(|&i| col[i]));
        }
        return CleanTail {
            start: if keep.len() < need { 0 } else { keep[0] },
            rows: keep.len(),
        };
    };
    let from = n.saturating_sub(need);
    let mut start = from;
    for &j in emit {
        let col = columns[j].as_ref();
        let anchor = col[..n.min(from + 1)]
            .iter()
            .rposition(|v| v.is_finite())
            .unwrap_or(0);
        let base = out.len();
        out.extend_from_slice(&col[anchor..]);
        repair(&mut out[base..]);
        out.drain(base..base + (from - anchor));
        start = start.min(anchor);
    }
    CleanTail {
        start,
        rows: n - from,
    }
}

/// The in-place column repair of a policy; `None` for
/// [`RepairPolicy::DropRows`], which removes rows instead.
fn repair_for(policy: RepairPolicy) -> Option<fn(&mut [f32]) -> usize> {
    match policy {
        RepairPolicy::DropRows => None,
        RepairPolicy::Interpolate => Some(interpolate_gaps),
        RepairPolicy::ForwardFill => Some(forward_fill),
    }
}

/// Whether row `i` is finite in every column — a record
/// [`RepairPolicy::DropRows`] keeps.
fn row_complete<C: AsRef<[f32]>>(columns: &[C], i: usize) -> bool {
    columns.iter().all(|c| c.as_ref()[i].is_finite())
}

fn interpolate_gaps(col: &mut [f32]) -> usize {
    let n = col.len();
    let mut repaired = 0;
    let mut i = 0;
    while i < n {
        if col[i].is_finite() {
            i += 1;
            continue;
        }
        // Find the invalid run [i, j).
        let mut j = i;
        while j < n && !col[j].is_finite() {
            j += 1;
        }
        let left = if i > 0 { Some(col[i - 1]) } else { None };
        let right = if j < n { Some(col[j]) } else { None };
        for (step, slot) in col[i..j].iter_mut().enumerate() {
            *slot = match (left, right) {
                (Some(l), Some(r)) => {
                    let frac = (step + 1) as f32 / (j - i + 1) as f32;
                    l + (r - l) * frac
                }
                (Some(l), None) => l,
                (None, Some(r)) => r,
                (None, None) => 0.0,
            };
            repaired += 1;
        }
        i = j;
    }
    repaired
}

fn forward_fill(col: &mut [f32]) -> usize {
    let mut repaired = 0;
    let mut last_valid: Option<f32> = None;
    for v in col.iter_mut() {
        if v.is_finite() {
            last_valid = Some(*v);
        } else if let Some(l) = last_valid {
            *v = l;
            repaired += 1;
        }
    }
    // Leading gap: backward-fill from the first valid value.
    if let Some(first_valid) = col.iter().copied().find(|v| v.is_finite()) {
        for v in col.iter_mut() {
            if !v.is_finite() {
                *v = first_valid;
                repaired += 1;
            } else {
                break;
            }
        }
    } else {
        for v in col.iter_mut() {
            *v = 0.0;
            repaired += 1;
        }
    }
    repaired
}

/// Eq. (1) for one value of a column fitted to `[min, min + range]`;
/// constant columns (`range` ≈ 0) map to 0. The one definition behind
/// [`MinMaxScaler::transform`] and the serving path's per-value scaling.
#[inline]
pub fn min_max_scale(v: f32, min: f32, range: f32) -> f32 {
    if range.abs() < 1e-12 {
        0.0
    } else {
        (v - min) / range
    }
}

/// Inverse of [`min_max_scale`]: back to the column's raw units.
#[inline]
pub fn min_max_unscale(v: f32, min: f32, range: f32) -> f32 {
    v * range + min
}

/// Min-max normalisation to `[0, 1]` (paper eq. 1), fit per column.
#[derive(Debug, Clone)]
pub struct MinMaxScaler {
    mins: Vec<f32>,
    maxs: Vec<f32>,
    names: Vec<String>,
}

impl MinMaxScaler {
    /// Learn per-column min/max from a frame.
    pub fn fit(frame: &TimeSeriesFrame) -> Self {
        let mut mins = Vec::with_capacity(frame.num_columns());
        let mut maxs = Vec::with_capacity(frame.num_columns());
        for j in 0..frame.num_columns() {
            let col = frame.column_at(j);
            mins.push(col.iter().copied().fold(f32::INFINITY, f32::min));
            maxs.push(col.iter().copied().fold(f32::NEG_INFINITY, f32::max));
        }
        Self {
            mins,
            maxs,
            names: frame.names().to_vec(),
        }
    }

    /// Apply `(x - min) / (max - min)`. Constant columns map to 0.
    pub fn transform(&self, frame: &TimeSeriesFrame) -> TimeSeriesFrame {
        self.apply(frame, |v, min, max| min_max_scale(v, min, max - min))
    }

    /// Undo the normalisation for the named column.
    pub fn inverse_transform_column(&self, name: &str, values: &[f32]) -> Vec<f32> {
        let j = self
            .names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("scaler does not know column '{name}'"));
        let (min, max) = (self.mins[j], self.maxs[j]);
        values
            .iter()
            .map(|&v| min_max_unscale(v, min, max - min))
            .collect()
    }

    /// `(min, max)` learned for the named column.
    pub fn bounds(&self, name: &str) -> Option<(f32, f32)> {
        let j = self.names.iter().position(|n| n == name)?;
        Some((self.mins[j], self.maxs[j]))
    }

    /// The complete fitted parameters as `(name, min, max)` triples — the
    /// checkpointable state of the scaler.
    pub fn columns(&self) -> Vec<(String, f32, f32)> {
        self.iter()
            .map(|(name, min, max)| (name.to_string(), min, max))
            .collect()
    }

    /// The fitted `(name, min, max)` of every column, in column order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f32, f32)> + '_ {
        self.names
            .iter()
            .zip(self.mins.iter().zip(&self.maxs))
            .map(|(name, (&min, &max))| (name.as_str(), min, max))
    }

    /// Rebuild a scaler from parameters captured by [`MinMaxScaler::columns`]
    /// — the restore half of a checkpoint round-trip.
    pub fn from_parts(columns: Vec<(String, f32, f32)>) -> Self {
        let mut names = Vec::with_capacity(columns.len());
        let mut mins = Vec::with_capacity(columns.len());
        let mut maxs = Vec::with_capacity(columns.len());
        for (name, min, max) in columns {
            names.push(name);
            mins.push(min);
            maxs.push(max);
        }
        Self { mins, maxs, names }
    }

    fn apply(&self, frame: &TimeSeriesFrame, f: impl Fn(f32, f32, f32) -> f32) -> TimeSeriesFrame {
        assert_eq!(
            frame.names(),
            self.names.as_slice(),
            "scaler/frame column mismatch"
        );
        let cols = frame
            .names()
            .iter()
            .enumerate()
            .map(|(j, name)| {
                let data = frame
                    .column_at(j)
                    .iter()
                    .map(|&v| f(v, self.mins[j], self.maxs[j]))
                    .collect();
                (name.clone(), data)
            })
            .collect();
        TimeSeriesFrame::new(cols).expect("scaled frame")
    }
}

/// Z-score standardisation, offered as the alternative normalisation for the
/// preprocessing ablation.
#[derive(Debug, Clone)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
    names: Vec<String>,
}

impl StandardScaler {
    pub fn fit(frame: &TimeSeriesFrame) -> Self {
        let mut means = Vec::new();
        let mut stds = Vec::new();
        for j in 0..frame.num_columns() {
            let col = frame.column_at(j);
            means.push(tensor::stats::mean(col));
            stds.push(tensor::stats::std_dev(col).max(1e-12));
        }
        Self {
            means,
            stds,
            names: frame.names().to_vec(),
        }
    }

    pub fn transform(&self, frame: &TimeSeriesFrame) -> TimeSeriesFrame {
        assert_eq!(frame.names(), self.names.as_slice());
        let cols = frame
            .names()
            .iter()
            .enumerate()
            .map(|(j, name)| {
                let data = frame
                    .column_at(j)
                    .iter()
                    .map(|&v| ((v as f64 - self.means[j]) / self.stds[j]) as f32)
                    .collect();
                (name.clone(), data)
            })
            .collect();
        TimeSeriesFrame::new(cols).expect("scaled frame")
    }

    pub fn inverse_transform_column(&self, name: &str, values: &[f32]) -> Vec<f32> {
        let j = self
            .names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("scaler does not know column '{name}'"));
        values
            .iter()
            .map(|&v| (v as f64 * self.stds[j] + self.means[j]) as f32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dirty() -> TimeSeriesFrame {
        TimeSeriesFrame::from_columns(&[
            ("cpu", vec![0.1, f32::NAN, 0.3, 0.4]),
            ("mem", vec![0.5, 0.6, f32::INFINITY, 0.8]),
        ])
        .unwrap()
    }

    #[test]
    fn drop_rows_removes_incomplete_records() {
        let (clean_frame, dropped) = clean(&dirty(), RepairPolicy::DropRows);
        assert_eq!(dropped, 2);
        assert_eq!(clean_frame.len(), 2);
        assert!(clean_frame.is_clean());
        assert_eq!(clean_frame.column("cpu").unwrap(), &[0.1, 0.4]);
    }

    #[test]
    fn interpolation_fills_gaps_linearly() {
        let (c, repaired) = clean(&dirty(), RepairPolicy::Interpolate);
        assert_eq!(repaired, 2);
        assert!(c.is_clean());
        assert!((c.column("cpu").unwrap()[1] - 0.2).abs() < 1e-6);
        assert!((c.column("mem").unwrap()[2] - 0.7).abs() < 1e-6);
    }

    #[test]
    fn interpolation_handles_edge_gaps() {
        let f = TimeSeriesFrame::from_columns(&[("x", vec![f32::NAN, 2.0, f32::NAN])]).unwrap();
        let (c, repaired) = clean(&f, RepairPolicy::Interpolate);
        assert_eq!(repaired, 2);
        assert_eq!(c.column("x").unwrap(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn forward_fill_carries_values() {
        let f =
            TimeSeriesFrame::from_columns(&[("x", vec![f32::NAN, 1.0, f32::NAN, f32::NAN, 4.0])])
                .unwrap();
        let (c, repaired) = clean(&f, RepairPolicy::ForwardFill);
        assert_eq!(repaired, 3);
        assert_eq!(c.column("x").unwrap(), &[1.0, 1.0, 1.0, 1.0, 4.0]);
    }

    #[test]
    fn all_invalid_column_becomes_zero() {
        let f = TimeSeriesFrame::from_columns(&[("x", vec![f32::NAN, f32::NAN])]).unwrap();
        let (c, _) = clean(&f, RepairPolicy::ForwardFill);
        assert_eq!(c.column("x").unwrap(), &[0.0, 0.0]);
    }

    const POLICIES: [RepairPolicy; 3] = [
        RepairPolicy::DropRows,
        RepairPolicy::Interpolate,
        RepairPolicy::ForwardFill,
    ];

    /// `clean` on the whole series, then the last `need` rows of `emit`.
    fn full_clean_tail(
        cols: &[Vec<f32>],
        emit: &[usize],
        policy: RepairPolicy,
        need: usize,
    ) -> Vec<f32> {
        let named = cols
            .iter()
            .enumerate()
            .map(|(j, c)| (format!("c{j}"), c.clone()))
            .collect();
        let (cleaned, _) = clean(&TimeSeriesFrame::new(named).unwrap(), policy);
        let from = cleaned.len().saturating_sub(need);
        emit.iter()
            .flat_map(|&j| cleaned.column_at(j)[from..].to_vec())
            .collect()
    }

    fn ramp(n: usize, phase: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37 + phase).sin()).collect()
    }

    #[test]
    fn clean_tail_reads_need_rows_however_long_the_history() {
        for n in [400, 40_000] {
            let cols = vec![ramp(n, 0.0), ramp(n, 1.0), ramp(n, 2.0)];
            for policy in POLICIES {
                let mut out = Vec::new();
                let tail = clean_tail(&cols, &[2, 0], policy, 32, &mut out);
                assert_eq!(
                    tail,
                    CleanTail {
                        start: n - 32,
                        rows: 32
                    },
                    "{policy:?} at {n}"
                );
                assert_eq!(out, full_clean_tail(&cols, &[2, 0], policy, 32));
            }
        }
    }

    #[test]
    fn clean_tail_matches_full_clean_across_gaps() {
        let n = 60;
        let mut cols = vec![ramp(n, 0.0), ramp(n, 1.0), ramp(n, 2.0)];
        // Gaps inside the tail, straddling the `n - need` boundary, at the
        // very end, and a long one reaching far behind the tail.
        cols[0][57..].fill(f32::NAN);
        cols[1][20..45].fill(f32::INFINITY);
        cols[2][49] = f32::NEG_INFINITY;
        cols[2][50] = f32::NAN;
        for policy in POLICIES {
            for need in [1, 10, 11, 25, 59, 60, 61, 200] {
                let mut out = vec![7.0];
                let tail = clean_tail(&cols, &[1, 2, 0], policy, need, &mut out);
                let want = full_clean_tail(&cols, &[1, 2, 0], policy, need);
                assert_eq!(out[0], 7.0, "clean_tail appends, never overwrites");
                assert_eq!(
                    out[1..].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{policy:?} need {need}"
                );
                assert_eq!(tail.rows * 3, want.len(), "{policy:?} need {need}");
            }
        }
    }

    #[test]
    fn clean_tail_handles_degenerate_series() {
        for policy in POLICIES {
            // No rows at all, and a column with no finite sample anywhere.
            let empty: Vec<Vec<f32>> = vec![Vec::new(), Vec::new()];
            let mut out = Vec::new();
            assert_eq!(clean_tail(&empty, &[0, 1], policy, 5, &mut out).rows, 0);
            assert!(out.is_empty());
            let cols = vec![vec![f32::NAN; 9], ramp(9, 0.0)];
            let tail = clean_tail(&cols, &[0, 1], policy, 4, &mut out);
            assert_eq!(out, full_clean_tail(&cols, &[0, 1], policy, 4));
            assert_eq!(tail.start, 0, "an all-invalid column is read to the start");
        }
    }

    #[test]
    fn minmax_scales_to_unit_interval_and_inverts() {
        let f = TimeSeriesFrame::from_columns(&[("cpu", vec![10.0, 20.0, 30.0])]).unwrap();
        let scaler = MinMaxScaler::fit(&f);
        let s = scaler.transform(&f);
        assert_eq!(s.column("cpu").unwrap(), &[0.0, 0.5, 1.0]);
        let back = scaler.inverse_transform_column("cpu", s.column("cpu").unwrap());
        assert_eq!(back, vec![10.0, 20.0, 30.0]);
        assert_eq!(scaler.bounds("cpu"), Some((10.0, 30.0)));
    }

    #[test]
    fn minmax_parts_roundtrip() {
        let f =
            TimeSeriesFrame::from_columns(&[("cpu", vec![10.0, 30.0]), ("mem", vec![-1.0, 1.0])])
                .unwrap();
        let scaler = MinMaxScaler::fit(&f);
        let rebuilt = MinMaxScaler::from_parts(scaler.columns());
        assert_eq!(rebuilt.bounds("cpu"), Some((10.0, 30.0)));
        assert_eq!(rebuilt.bounds("mem"), Some((-1.0, 1.0)));
        let a = scaler.transform(&f);
        let b = rebuilt.transform(&f);
        assert_eq!(a.column("cpu").unwrap(), b.column("cpu").unwrap());
    }

    #[test]
    fn minmax_constant_column_maps_to_zero() {
        let f = TimeSeriesFrame::from_columns(&[("c", vec![5.0, 5.0, 5.0])]).unwrap();
        let s = MinMaxScaler::fit(&f).transform(&f);
        assert_eq!(s.column("c").unwrap(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn minmax_transform_uses_training_bounds() {
        // Fit on train, transform test: values can leave [0, 1]; that is the
        // correct leak-free behaviour.
        let train = TimeSeriesFrame::from_columns(&[("x", vec![0.0, 10.0])]).unwrap();
        let test = TimeSeriesFrame::from_columns(&[("x", vec![20.0])]).unwrap();
        let scaler = MinMaxScaler::fit(&train);
        let s = scaler.transform(&test);
        assert_eq!(s.column("x").unwrap(), &[2.0]);
    }

    #[test]
    fn standard_scaler_zero_mean_unit_std() {
        let f = TimeSeriesFrame::from_columns(&[("x", vec![1.0, 2.0, 3.0, 4.0])]).unwrap();
        let s = StandardScaler::fit(&f).transform(&f);
        let col = s.column("x").unwrap();
        assert!(tensor::stats::mean(col).abs() < 1e-6);
        assert!((tensor::stats::std_dev(col) - 1.0).abs() < 1e-5);
        let back = StandardScaler::fit(&f).inverse_transform_column("x", col);
        for (a, b) in back.iter().zip(&[1.0, 2.0, 3.0, 4.0]) {
            assert!((a - b).abs() < 1e-5);
        }
    }
}
