//! Chronological train/validation/test splitting (paper §IV-B: 6:2:2).

use crate::frame::FrameError;
use crate::window::WindowedDataset;

/// Fractions for a chronological three-way split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitRatios {
    pub train: f64,
    pub valid: f64,
    pub test: f64,
}

impl SplitRatios {
    /// The paper's 6:2:2 split.
    pub const PAPER: SplitRatios = SplitRatios {
        train: 0.6,
        valid: 0.2,
        test: 0.2,
    };

    pub fn new(train: f64, valid: f64, test: f64) -> Result<Self, FrameError> {
        let s = train + valid + test;
        if !(0.999..=1.001).contains(&s) || train <= 0.0 || valid < 0.0 || test < 0.0 {
            return Err(FrameError(format!(
                "bad split ratios {train}:{valid}:{test}"
            )));
        }
        Ok(Self { train, valid, test })
    }

    /// Boundary indices `(train_end, valid_end)` for `n` samples.
    pub fn boundaries(&self, n: usize) -> (usize, usize) {
        let train_end = ((n as f64) * self.train).round() as usize;
        let valid_end = ((n as f64) * (self.train + self.valid)).round() as usize;
        (train_end.min(n), valid_end.min(n))
    }
}

impl Default for SplitRatios {
    fn default() -> Self {
        Self::PAPER
    }
}

/// Chronological split of a windowed dataset: earlier windows train, the
/// middle validates, the most recent test — windows never shuffle across the
/// boundary, so the test set is strictly in the future of the training set.
pub fn split_windows(
    ds: &WindowedDataset,
    ratios: SplitRatios,
) -> (WindowedDataset, WindowedDataset, WindowedDataset) {
    let n = ds.len();
    let (a, b) = ratios.boundaries(n);
    (ds.slice(0, a), ds.slice(a, b), ds.slice(b, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::TimeSeriesFrame;
    use crate::window::make_windows;

    #[test]
    fn paper_ratios_partition_exactly() {
        let (a, b) = SplitRatios::PAPER.boundaries(100);
        assert_eq!((a, b), (60, 80));
        let (a, b) = SplitRatios::PAPER.boundaries(7);
        assert!(a <= b && b <= 7);
        assert!(a >= 1);
    }

    #[test]
    fn invalid_ratios_rejected() {
        assert!(SplitRatios::new(0.5, 0.2, 0.2).is_err());
        assert!(SplitRatios::new(0.0, 0.5, 0.5).is_err());
        assert!(SplitRatios::new(0.7, 0.2, 0.1).is_ok());
    }

    #[test]
    fn window_split_is_chronological() {
        let frame = TimeSeriesFrame::from_columns(&[("cpu", (0..104).map(|i| i as f32).collect())])
            .unwrap();
        let ds = make_windows(&frame, "cpu", 4, 1).unwrap(); // 100 samples
        let (train, valid, test) = split_windows(&ds, SplitRatios::PAPER);
        assert_eq!(train.len(), 60);
        assert_eq!(valid.len(), 20);
        assert_eq!(test.len(), 20);
        // Every training target precedes every validation target, which
        // precedes every test target.
        let max_train = train.y.as_slice().iter().copied().fold(f32::MIN, f32::max);
        let min_valid = valid.y.as_slice().iter().copied().fold(f32::MAX, f32::min);
        let max_valid = valid.y.as_slice().iter().copied().fold(f32::MIN, f32::max);
        let min_test = test.y.as_slice().iter().copied().fold(f32::MAX, f32::min);
        assert!(max_train < min_valid);
        assert!(max_valid < min_test);
    }
}
