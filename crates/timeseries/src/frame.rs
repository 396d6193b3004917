//! A minimal column-oriented time-series table with CSV I/O.
//!
//! Traces produced by `cloudtrace` and consumed by the prediction pipeline
//! travel as [`TimeSeriesFrame`]s: equal-length named `f32` columns sampled
//! at a fixed interval. Missing observations are represented as `NaN` and
//! handled by the cleaning stage.

use std::fmt;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

/// Error type for frame operations and CSV parsing.
#[derive(Debug)]
pub struct FrameError(pub String);

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame error: {}", self.0)
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError(format!("io: {e}"))
    }
}

/// Equal-length named columns of `f32` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesFrame {
    names: Vec<String>,
    columns: Vec<Vec<f32>>,
}

impl TimeSeriesFrame {
    /// Build from `(name, data)` pairs; all columns must share a length.
    pub fn new(columns: Vec<(String, Vec<f32>)>) -> Result<Self, FrameError> {
        if columns.is_empty() {
            return Err(FrameError("frame needs at least one column".into()));
        }
        let len = columns[0].1.len();
        for (name, col) in &columns {
            if col.len() != len {
                return Err(FrameError(format!(
                    "column '{name}' has {} rows, expected {len}",
                    col.len()
                )));
            }
        }
        let (names, columns) = columns.into_iter().unzip();
        Ok(Self { names, columns })
    }

    /// Convenience constructor from string slices.
    pub fn from_columns(pairs: &[(&str, Vec<f32>)]) -> Result<Self, FrameError> {
        Self::new(
            pairs
                .iter()
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect(),
        )
    }

    /// Number of rows (time steps).
    pub fn len(&self) -> usize {
        self.columns[0].len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns (indicators).
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Column data by name.
    pub fn column(&self, name: &str) -> Option<&[f32]> {
        self.column_index(name).map(|i| self.columns[i].as_slice())
    }

    /// Column data by position.
    pub fn column_at(&self, idx: usize) -> &[f32] {
        &self.columns[idx]
    }

    /// Every column's data, in [`TimeSeriesFrame::names`] order.
    pub(crate) fn columns(&self) -> &[Vec<f32>] {
        &self.columns
    }

    /// Mutable column data by name.
    pub fn column_mut(&mut self, name: &str) -> Option<&mut Vec<f32>> {
        let i = self.column_index(name)?;
        Some(&mut self.columns[i])
    }

    /// A new frame with only the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<TimeSeriesFrame, FrameError> {
        let mut cols = Vec::with_capacity(names.len());
        for &n in names {
            let idx = self
                .column_index(n)
                .ok_or_else(|| FrameError(format!("unknown column '{n}'")))?;
            cols.push((n.to_string(), self.columns[idx].clone()));
        }
        TimeSeriesFrame::new(cols)
    }

    /// A new frame with rows `[from, to)`.
    pub fn slice_rows(&self, from: usize, to: usize) -> Result<TimeSeriesFrame, FrameError> {
        if from > to || to > self.len() {
            return Err(FrameError(format!(
                "bad row range {from}..{to} of {}",
                self.len()
            )));
        }
        TimeSeriesFrame::new(
            self.names
                .iter()
                .zip(&self.columns)
                .map(|(n, c)| (n.clone(), c[from..to].to_vec()))
                .collect(),
        )
    }

    /// True when no column contains NaN or infinity.
    pub fn is_clean(&self) -> bool {
        self.columns.iter().all(|c| c.iter().all(|v| v.is_finite()))
    }

    /// Write as CSV (header + rows). NaN is serialised as an empty field,
    /// matching how real traces encode missing samples.
    // lint: allow(r10) test: end_to_end.rs round-trips a frame through CSV
    pub fn write_csv(&self, path: &Path) -> Result<(), FrameError> {
        let file = std::fs::File::create(path)?;
        let mut w = BufWriter::new(file);
        writeln!(w, "{}", self.names.join(","))?;
        for i in 0..self.len() {
            let row: Vec<String> = self
                .columns
                .iter()
                .map(|c| {
                    if c[i].is_nan() {
                        String::new()
                    } else {
                        format!("{}", c[i])
                    }
                })
                .collect();
            writeln!(w, "{}", row.join(","))?;
        }
        w.flush()?;
        Ok(())
    }

    /// Read a CSV written by [`TimeSeriesFrame::write_csv`] (or any
    /// header-first numeric CSV; empty fields become NaN).
    // lint: allow(r10) test: end_to_end.rs round-trips a frame through CSV
    pub fn read_csv(path: &Path) -> Result<TimeSeriesFrame, FrameError> {
        let file = std::fs::File::open(path)?;
        let mut lines = std::io::BufReader::new(file).lines();
        let header = lines
            .next()
            .ok_or_else(|| FrameError("empty csv".into()))??;
        let names: Vec<String> = header.split(',').map(|s| s.trim().to_string()).collect();
        let mut columns: Vec<Vec<f32>> = vec![Vec::new(); names.len()];
        for (lineno, line) in lines.enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != names.len() {
                return Err(FrameError(format!(
                    "row {} has {} fields, expected {}",
                    lineno + 2,
                    fields.len(),
                    names.len()
                )));
            }
            for (j, f) in fields.iter().enumerate() {
                let f = f.trim();
                let v = if f.is_empty() {
                    f32::NAN
                } else {
                    f.parse::<f32>()
                        .map_err(|e| FrameError(format!("row {}: '{f}': {e}", lineno + 2)))?
                };
                columns[j].push(v);
            }
        }
        TimeSeriesFrame::new(names.into_iter().zip(columns).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimeSeriesFrame {
        TimeSeriesFrame::from_columns(&[("cpu", vec![0.1, 0.2, 0.3]), ("mem", vec![0.5, 0.6, 0.7])])
            .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let f = sample();
        assert_eq!(f.len(), 3);
        assert_eq!(f.num_columns(), 2);
        assert_eq!(f.column("cpu").unwrap(), &[0.1, 0.2, 0.3]);
        assert_eq!(f.column_index("mem"), Some(1));
        assert!(f.column("disk").is_none());
    }

    #[test]
    fn ragged_columns_rejected() {
        assert!(
            TimeSeriesFrame::from_columns(&[("a", vec![1.0]), ("b", vec![1.0, 2.0]),]).is_err()
        );
        assert!(TimeSeriesFrame::new(vec![]).is_err());
    }

    #[test]
    fn select_reorders() {
        let f = sample();
        let g = f.select(&["mem", "cpu"]).unwrap();
        assert_eq!(g.names(), &["mem".to_string(), "cpu".to_string()]);
        assert_eq!(g.column_at(0), &[0.5, 0.6, 0.7]);
        assert!(f.select(&["nope"]).is_err());
    }

    #[test]
    fn slice_rows_bounds() {
        let f = sample();
        let g = f.slice_rows(1, 3).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.column("cpu").unwrap(), &[0.2, 0.3]);
        assert!(f.slice_rows(2, 5).is_err());
    }

    #[test]
    fn csv_roundtrip_preserves_values_and_nans() {
        let mut f = sample();
        f.column_mut("cpu").unwrap()[1] = f32::NAN;
        let dir = std::env::temp_dir().join("rptcn_frame_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.csv");
        f.write_csv(&path).unwrap();
        let g = TimeSeriesFrame::read_csv(&path).unwrap();
        assert_eq!(g.names(), f.names());
        assert_eq!(g.len(), 3);
        assert!(g.column("cpu").unwrap()[1].is_nan());
        assert_eq!(g.column("mem").unwrap(), f.column("mem").unwrap());
        assert!(!g.is_clean());
        std::fs::remove_file(&path).ok();
    }
}
