//! Pearson-correlation screening (paper §III-B, Fig. 7): rank every
//! indicator by |PCC| against the prediction target and keep the top half.

use crate::frame::TimeSeriesFrame;
use tensor::stats;

/// Full correlation matrix between all columns of a frame, in column order.
/// Entry `[i][j]` is the PCC between columns `i` and `j`.
#[allow(clippy::needless_range_loop)] // symmetric matrix fill reads best indexed
pub fn correlation_matrix(frame: &TimeSeriesFrame) -> Vec<Vec<f64>> {
    let k = frame.num_columns();
    let mut m = vec![vec![0.0f64; k]; k];
    for i in 0..k {
        m[i][i] = 1.0;
        for j in (i + 1)..k {
            let r = stats::pearson(frame.column_at(i), frame.column_at(j));
            m[i][j] = r;
            m[j][i] = r;
        }
    }
    m
}

/// One indicator's correlation with the target.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationRank {
    pub name: String,
    pub pcc: f64,
}

/// Rank every column (including the target itself, which trivially ranks
/// first with PCC 1) by absolute correlation with `target`, descending.
pub fn rank_by_correlation(
    frame: &TimeSeriesFrame,
    target: &str,
) -> Result<Vec<CorrelationRank>, crate::frame::FrameError> {
    let t = frame
        .column(target)
        .ok_or_else(|| crate::frame::FrameError(format!("unknown target column '{target}'")))?;
    let mut ranks: Vec<CorrelationRank> = frame
        .names()
        .iter()
        .enumerate()
        .map(|(j, name)| CorrelationRank {
            name: name.clone(),
            pcc: stats::pearson(frame.column_at(j), t),
        })
        .collect();
    ranks.sort_by(|a, b| {
        b.pcc
            .abs()
            .partial_cmp(&a.pcc.abs())
            .expect("NaN correlation")
            // Deterministic tie-break on name.
            .then_with(|| a.name.cmp(&b.name))
    });
    Ok(ranks)
}

/// Algorithm 1 step 4: keep the top `ceil(k/2)` indicators by |PCC| with the
/// target. The target itself always survives (it correlates perfectly with
/// itself) and is returned first.
pub fn screen_top_half(
    frame: &TimeSeriesFrame,
    target: &str,
) -> Result<Vec<String>, crate::frame::FrameError> {
    let ranks = rank_by_correlation(frame, target)?;
    let keep = frame.num_columns().div_ceil(2);
    Ok(ranks
        .into_iter()
        .take(keep.max(1))
        .map(|r| r.name)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// cpu is the target; "strong" tracks it, "weak" is an alternating
    /// pattern, "anti" is its negation (strong negative correlation).
    fn frame() -> TimeSeriesFrame {
        let cpu: Vec<f32> = (0..40)
            .map(|i| (i as f32 * 0.3).sin() * 0.5 + 0.5)
            .collect();
        let strong: Vec<f32> = cpu.iter().map(|&c| c * 0.8 + 0.05).collect();
        let anti: Vec<f32> = cpu.iter().map(|&c| 1.0 - c).collect();
        let weak: Vec<f32> = (0..40)
            .map(|i| if i % 2 == 0 { 0.9 } else { 0.1 })
            .collect();
        TimeSeriesFrame::from_columns(&[
            ("cpu", cpu),
            ("strong", strong),
            ("weak", weak),
            ("anti", anti),
        ])
        .unwrap()
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let m = correlation_matrix(&frame());
        for i in 0..4 {
            assert!((m[i][i] - 1.0).abs() < 1e-9);
            for j in 0..4 {
                assert_eq!(m[i][j], m[j][i]);
                assert!(m[i][j].abs() <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn ranking_puts_target_first_and_weak_last() {
        let ranks = rank_by_correlation(&frame(), "cpu").unwrap();
        assert_eq!(ranks[0].name, "cpu");
        assert!((ranks[0].pcc - 1.0).abs() < 1e-9);
        assert_eq!(ranks.last().unwrap().name, "weak");
        // Anti-correlated column ranks on |PCC|, so it beats "weak".
        let anti_pos = ranks.iter().position(|r| r.name == "anti").unwrap();
        let weak_pos = ranks.iter().position(|r| r.name == "weak").unwrap();
        assert!(anti_pos < weak_pos);
    }

    #[test]
    fn top_half_keeps_ceil_half() {
        let kept = screen_top_half(&frame(), "cpu").unwrap();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0], "cpu");
        assert_eq!(kept[1], "strong");
    }

    #[test]
    fn unknown_target_errors() {
        assert!(rank_by_correlation(&frame(), "nope").is_err());
        assert!(screen_top_half(&frame(), "nope").is_err());
    }

    #[test]
    fn odd_column_count_top_half() {
        let f = TimeSeriesFrame::from_columns(&[
            ("a", vec![1.0, 2.0, 3.0]),
            ("b", vec![1.1, 2.1, 3.2]),
            ("c", vec![3.0, 1.0, 2.0]),
        ])
        .unwrap();
        let kept = screen_top_half(&f, "a").unwrap();
        assert_eq!(kept.len(), 2); // ceil(3/2)
        assert_eq!(kept[0], "a");
    }
}
