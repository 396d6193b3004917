//! # timeseries — preprocessing pipeline primitives
//!
//! Everything between a raw trace and a trainable dataset, mirroring the
//! paper's Algorithm 1:
//!
//! 1. [`frame::TimeSeriesFrame`] — named-column table with CSV I/O.
//! 2. [`preprocess::clean`] — repair/drop missing samples
//!    (`DataClean`, step 1).
//! 3. [`preprocess::MinMaxScaler`] — eq. (1) normalisation (step 2).
//! 4. [`correlate`] — Pearson screening: rank indicators by |PCC| with the
//!    target and keep the top half (steps 3–4, Fig. 7).
//! 5. [`expand`] — feature expansion (step 5, Fig. 4): horizontal lag
//!    replication plus the correlation-weighted and first-difference
//!    extensions from the paper's discussion.
//! 6. [`window::make_windows`] — sliding supervised windows.
//! 7. [`split`] — chronological 6:2:2 train/valid/test split.
//! 8. [`metrics`] — MSE / MAE / RMSE / MAPE / sMAPE / R².

pub mod correlate;
pub mod decompose;
pub mod expand;
pub mod frame;
pub mod metrics;
pub mod preprocess;
pub mod split;
pub mod window;

pub use correlate::{correlation_matrix, rank_by_correlation, screen_top_half};
pub use decompose::{decompose_additive, estimate_period, Decomposition};
pub use expand::Expansion;
pub use frame::{FrameError, TimeSeriesFrame};
pub use metrics::MetricReport;
pub use preprocess::{
    clean, clean_tail, min_max_scale, min_max_unscale, CleanTail, MinMaxScaler, RepairPolicy,
    StandardScaler,
};
pub use split::{split_windows, SplitRatios};
pub use window::{make_windows, WindowedDataset};
