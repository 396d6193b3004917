//! Neural-network layers: dense, causal convolution, dropout, attention,
//! LSTM and GRU. Each has one `forward`, generic over [`crate::Exec`], so
//! the same body records on the tape and evaluates in the serving arena.

pub mod attention;
pub mod conv;
pub mod dropout;
pub mod gru;
pub mod linear;
pub mod lstm;

pub use attention::{FeatureAttention, TemporalAttention};
pub use conv::CausalConv1d;
pub use dropout::Dropout;
pub use gru::{Gru, GruCell};
pub use linear::Linear;
pub use lstm::{Lstm, LstmCell};
