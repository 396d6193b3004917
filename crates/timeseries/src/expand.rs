//! Feature-dimension expansion (paper §III-C, Fig. 4).
//!
//! *Horizontal* expansion — the paper's contribution — replicates each
//! indicator into lag-shifted columns, widening the feature axis instead of
//! lengthening the lookback window, which both injects short-term
//! dependence and raises the weight of recent samples. The
//! correlation-weighted and first-difference variants implement the
//! extensions sketched in the paper's discussion (§V-C).

use crate::correlate;
use crate::frame::{FrameError, TimeSeriesFrame};

/// Which expansion Algorithm 1 step 5 applies.
#[derive(Debug, Clone, PartialEq)]
pub enum Expansion {
    /// Feed indicators as-is.
    None,
    /// Fig. 4(b): every indicator becomes `copies` lag-shifted columns
    /// (`r_{t-copies+1} … r_t`). The paper uses 3.
    Horizontal { copies: usize },
    /// §V-C extension: indicators better correlated with the target get
    /// more lag columns (between 1 and `max_copies`, proportional to |PCC|).
    CorrelationWeighted { target: String, max_copies: usize },
    /// §V-C extension: append first-order difference columns `Δr_t`.
    FirstDifference,
}

impl Expansion {
    /// Apply the expansion, returning a (possibly shorter) frame.
    pub fn apply(&self, frame: &TimeSeriesFrame) -> Result<TimeSeriesFrame, FrameError> {
        match self {
            Expansion::None => Ok(frame.clone()),
            Expansion::Horizontal { copies } => expand_horizontal(frame, *copies),
            Expansion::CorrelationWeighted { target, max_copies } => {
                expand_correlation_weighted(frame, target, *max_copies)
            }
            Expansion::FirstDifference => add_first_differences(frame),
        }
    }

    /// Rows consumed from the start of the frame by this expansion.
    // lint: allow(r10) test: length oracle of tests/properties.rs
    pub fn rows_consumed(&self) -> usize {
        match self {
            Expansion::None => 0,
            Expansion::Horizontal { copies } => copies.saturating_sub(1),
            Expansion::CorrelationWeighted { max_copies, .. } => max_copies.saturating_sub(1),
            Expansion::FirstDifference => 1,
        }
    }
}

/// Lag-expand every column into `copies` columns named `name#lagL`
/// (`L = copies-1 … 0`). Output has `len - copies + 1` rows.
pub fn expand_horizontal(
    frame: &TimeSeriesFrame,
    copies: usize,
) -> Result<TimeSeriesFrame, FrameError> {
    if copies == 0 {
        return Err(FrameError("horizontal expansion needs copies >= 1".into()));
    }
    if frame.len() < copies {
        return Err(FrameError(format!(
            "frame of {} rows too short for {copies} lag copies",
            frame.len()
        )));
    }
    let out_len = frame.len() - copies + 1;
    let mut cols = Vec::with_capacity(frame.num_columns() * copies);
    for (j, name) in frame.names().iter().enumerate() {
        let col = frame.column_at(j);
        for lag in (0..copies).rev() {
            // Row i of the output corresponds to time t = i + copies - 1;
            // lag L reads col[t - L].
            let data: Vec<f32> = (0..out_len).map(|i| col[i + copies - 1 - lag]).collect();
            cols.push((format!("{name}#lag{lag}"), data));
        }
    }
    TimeSeriesFrame::new(cols)
}

/// Lag-expand with a per-indicator number of copies proportional to |PCC|
/// against `target` (minimum 1, maximum `max_copies`; the target always
/// receives `max_copies`). All columns align to the same `max_copies`
/// left-trim so rows stay aligned.
pub fn expand_correlation_weighted(
    frame: &TimeSeriesFrame,
    target: &str,
    max_copies: usize,
) -> Result<TimeSeriesFrame, FrameError> {
    if max_copies == 0 {
        return Err(FrameError(
            "correlation-weighted expansion needs max_copies >= 1".into(),
        ));
    }
    if frame.len() < max_copies {
        return Err(FrameError(
            "frame too short for correlation-weighted expansion".into(),
        ));
    }
    let ranks = correlate::rank_by_correlation(frame, target)?;
    let pcc_of = |name: &str| -> f64 {
        ranks
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.pcc.abs())
            .unwrap_or(0.0)
    };
    let out_len = frame.len() - max_copies + 1;
    let mut cols = Vec::new();
    for (j, name) in frame.names().iter().enumerate() {
        let col = frame.column_at(j);
        let copies = if name == target {
            max_copies
        } else {
            ((pcc_of(name) * max_copies as f64).ceil() as usize).clamp(1, max_copies)
        };
        for lag in (0..copies).rev() {
            let data: Vec<f32> = (0..out_len)
                .map(|i| col[i + max_copies - 1 - lag])
                .collect();
            cols.push((format!("{name}#lag{lag}"), data));
        }
    }
    TimeSeriesFrame::new(cols)
}

/// Append `Δname` columns holding `x_t - x_{t-1}`; the first row is dropped
/// so every column stays aligned and fully observed.
pub fn add_first_differences(frame: &TimeSeriesFrame) -> Result<TimeSeriesFrame, FrameError> {
    if frame.len() < 2 {
        return Err(FrameError(
            "need at least 2 rows for first differences".into(),
        ));
    }
    let out_len = frame.len() - 1;
    let mut cols = Vec::with_capacity(frame.num_columns() * 2);
    for (j, name) in frame.names().iter().enumerate() {
        let col = frame.column_at(j);
        cols.push((name.clone(), col[1..].to_vec()));
        let diff: Vec<f32> = (0..out_len).map(|i| col[i + 1] - col[i]).collect();
        cols.push((format!("d_{name}"), diff));
    }
    TimeSeriesFrame::new(cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> TimeSeriesFrame {
        TimeSeriesFrame::from_columns(&[
            ("cpu", vec![1.0, 2.0, 3.0, 4.0, 5.0]),
            ("mem", vec![10.0, 20.0, 30.0, 40.0, 50.0]),
        ])
        .unwrap()
    }

    #[test]
    fn horizontal_matches_fig4b() {
        let e = expand_horizontal(&frame(), 3).unwrap();
        assert_eq!(e.len(), 3);
        assert_eq!(e.num_columns(), 6);
        // Row 0 corresponds to t=2: cpu lags are (t-2, t-1, t) = (1, 2, 3).
        assert_eq!(e.column("cpu#lag2").unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(e.column("cpu#lag1").unwrap(), &[2.0, 3.0, 4.0]);
        assert_eq!(e.column("cpu#lag0").unwrap(), &[3.0, 4.0, 5.0]);
        assert_eq!(e.column("mem#lag0").unwrap(), &[30.0, 40.0, 50.0]);
    }

    #[test]
    fn horizontal_single_copy_is_rename_only() {
        let e = expand_horizontal(&frame(), 1).unwrap();
        assert_eq!(e.len(), 5);
        assert_eq!(
            e.column("cpu#lag0").unwrap(),
            frame().column("cpu").unwrap()
        );
    }

    #[test]
    fn horizontal_rejects_degenerate_inputs() {
        assert!(expand_horizontal(&frame(), 0).is_err());
        assert!(expand_horizontal(&frame(), 6).is_err());
    }

    #[test]
    fn correlation_weighted_gives_target_full_width() {
        // "noise" is weakly correlated with cpu, so gets fewer copies.
        let f = TimeSeriesFrame::from_columns(&[
            ("cpu", vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            ("twin", vec![1.1, 2.1, 3.1, 4.1, 5.1, 6.1]),
            ("noise", vec![5.0, -5.0, 5.0, -5.0, 5.0, -5.0]),
        ])
        .unwrap();
        let e = expand_correlation_weighted(&f, "cpu", 3).unwrap();
        let cpu_cols = e.names().iter().filter(|n| n.starts_with("cpu#")).count();
        let twin_cols = e.names().iter().filter(|n| n.starts_with("twin#")).count();
        let noise_cols = e.names().iter().filter(|n| n.starts_with("noise#")).count();
        assert_eq!(cpu_cols, 3);
        assert_eq!(
            twin_cols, 3,
            "perfectly correlated indicator gets full width"
        );
        assert!(
            noise_cols < 3,
            "weak indicator must get fewer copies, got {noise_cols}"
        );
        assert!(noise_cols >= 1);
        assert_eq!(e.len(), 4);
    }

    #[test]
    fn first_differences_append_delta_columns() {
        let e = add_first_differences(&frame()).unwrap();
        assert_eq!(e.len(), 4);
        assert_eq!(e.column("cpu").unwrap(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(e.column("d_cpu").unwrap(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(e.column("d_mem").unwrap(), &[10.0, 10.0, 10.0, 10.0]);
    }

    #[test]
    fn expansion_enum_dispatch_and_rows_consumed() {
        let f = frame();
        assert_eq!(Expansion::None.apply(&f).unwrap(), f);
        assert_eq!(Expansion::None.rows_consumed(), 0);
        let h = Expansion::Horizontal { copies: 3 };
        assert_eq!(h.apply(&f).unwrap().len(), 3);
        assert_eq!(h.rows_consumed(), 2);
        assert_eq!(Expansion::FirstDifference.rows_consumed(), 1);
        let cw = Expansion::CorrelationWeighted {
            target: "cpu".into(),
            max_copies: 2,
        };
        assert_eq!(cw.apply(&f).unwrap().len(), 4);
    }
}
