//! Model checkpointing: a portable [`ModelState`] snapshot plus a versioned
//! binary file format (`magic + version + named-tensor table`).
//!
//! Every neural forecaster can round-trip through a checkpoint and resume
//! serving with **bit-identical** predictions: weights are written as raw
//! IEEE-754 bits (never formatted through text), and the architecture
//! hyper-parameters ride along as named `f64` metadata so
//! [`forecaster_from_state`] can rebuild the exact network without the
//! original config in hand.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use autograd::RestoreError;
use tensor::Tensor;

use crate::cnn_lstm::CnnLstmForecaster;
use crate::forecaster::{Forecaster, NaiveForecaster};
use crate::gru::GruForecaster;
use crate::lstm::LstmForecaster;
use crate::rptcn::RptcnForecaster;

/// Anything that can go wrong saving or loading a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError(pub String);

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint error: {}", self.0)
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError(format!("io: {e}"))
    }
}

impl From<RestoreError> for CheckpointError {
    fn from(e: RestoreError) -> Self {
        CheckpointError(e.0)
    }
}

/// Portable snapshot of one fitted forecaster: architecture name, input
/// width, horizon, hyper-parameter metadata and the named weight table.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelState {
    /// Architecture tag ("RPTCN", "LSTM", …) — the registry key.
    pub arch: String,
    /// Input feature width the network was built for.
    pub features: usize,
    /// Prediction horizon.
    pub horizon: usize,
    /// Named scalar hyper-parameters (flags stored as 0.0 / 1.0).
    pub meta: Vec<(String, f64)>,
    /// Named weight tensors, exactly as exported by the `ParamStore`.
    pub tensors: Vec<(String, Tensor)>,
}

impl ModelState {
    pub fn new(arch: &str, features: usize, horizon: usize) -> Self {
        Self {
            arch: arch.to_string(),
            features,
            horizon,
            meta: Vec::new(),
            tensors: Vec::new(),
        }
    }

    pub fn push_meta(&mut self, key: &str, value: f64) {
        self.meta.push((key.to_string(), value));
    }

    pub fn meta(&self, key: &str) -> Option<f64> {
        self.meta.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    pub fn require(&self, key: &str) -> Result<f64, CheckpointError> {
        self.meta(key).ok_or_else(|| {
            CheckpointError(format!("missing meta key `{key}` in {} state", self.arch))
        })
    }

    pub fn require_usize(&self, key: &str) -> Result<usize, CheckpointError> {
        let v = self.require(key)?;
        if v < 0.0 || v.fract() != 0.0 || v > u64::MAX as f64 {
            return Err(CheckpointError(format!(
                "meta key `{key}` = {v} is not a valid count"
            )));
        }
        Ok(v as usize)
    }

    pub fn require_bool(&self, key: &str) -> Result<bool, CheckpointError> {
        Ok(self.require(key)? != 0.0)
    }

    pub fn require_f32(&self, key: &str) -> Result<f32, CheckpointError> {
        Ok(self.require(key)? as f32)
    }

    /// Total scalar weight count — handy for stats and sanity checks.
    pub fn num_scalars(&self) -> usize {
        self.tensors.iter().map(|(_, t)| t.len()).sum()
    }
}

/// Low-level little-endian encoding primitives shared by the model format
/// here and the fleet/service format in `rptcn-serve`.
pub mod wire {
    use super::CheckpointError;
    use std::io::{Read, Write};
    use tensor::Tensor;

    /// Strings longer than this are rejected — corrupted length prefixes
    /// must not drive huge allocations.
    pub const MAX_STR: usize = 1 << 20;
    /// Tensors beyond this rank are rejected for the same reason.
    pub const MAX_RANK: usize = 8;

    pub fn write_u32<W: Write>(w: &mut W, v: u32) -> Result<(), CheckpointError> {
        w.write_all(&v.to_le_bytes())?;
        Ok(())
    }

    pub fn write_u64<W: Write>(w: &mut W, v: u64) -> Result<(), CheckpointError> {
        w.write_all(&v.to_le_bytes())?;
        Ok(())
    }

    pub fn write_f32<W: Write>(w: &mut W, v: f32) -> Result<(), CheckpointError> {
        w.write_all(&v.to_bits().to_le_bytes())?;
        Ok(())
    }

    pub fn write_f64<W: Write>(w: &mut W, v: f64) -> Result<(), CheckpointError> {
        w.write_all(&v.to_bits().to_le_bytes())?;
        Ok(())
    }

    pub fn write_str<W: Write>(w: &mut W, s: &str) -> Result<(), CheckpointError> {
        write_u32(w, s.len() as u32)?;
        w.write_all(s.as_bytes())?;
        Ok(())
    }

    pub fn write_tensor<W: Write>(w: &mut W, t: &Tensor) -> Result<(), CheckpointError> {
        write_u32(w, t.shape().len() as u32)?;
        for &d in t.shape() {
            write_u64(w, d as u64)?;
        }
        for &v in t.as_slice() {
            write_f32(w, v)?;
        }
        Ok(())
    }

    pub fn read_u32<R: Read>(r: &mut R) -> Result<u32, CheckpointError> {
        let mut buf = [0u8; 4];
        r.read_exact(&mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    pub fn read_u64<R: Read>(r: &mut R) -> Result<u64, CheckpointError> {
        let mut buf = [0u8; 8];
        r.read_exact(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    pub fn read_f32<R: Read>(r: &mut R) -> Result<f32, CheckpointError> {
        let mut buf = [0u8; 4];
        r.read_exact(&mut buf)?;
        Ok(f32::from_bits(u32::from_le_bytes(buf)))
    }

    pub fn read_f64<R: Read>(r: &mut R) -> Result<f64, CheckpointError> {
        let mut buf = [0u8; 8];
        r.read_exact(&mut buf)?;
        Ok(f64::from_bits(u64::from_le_bytes(buf)))
    }

    pub fn read_str<R: Read>(r: &mut R) -> Result<String, CheckpointError> {
        let len = read_u32(r)? as usize;
        if len > MAX_STR {
            return Err(CheckpointError(format!(
                "string length {len} exceeds limit {MAX_STR}"
            )));
        }
        let mut buf = vec![0u8; len];
        r.read_exact(&mut buf)?;
        String::from_utf8(buf).map_err(|e| CheckpointError(format!("invalid utf-8 string: {e}")))
    }

    pub fn read_tensor<R: Read>(r: &mut R) -> Result<Tensor, CheckpointError> {
        let rank = read_u32(r)? as usize;
        if rank > MAX_RANK {
            return Err(CheckpointError(format!(
                "tensor rank {rank} exceeds limit {MAX_RANK}"
            )));
        }
        let mut shape = Vec::with_capacity(rank);
        let mut len = 1usize;
        for _ in 0..rank {
            let d = read_u64(r)? as usize;
            len = len
                .checked_mul(d)
                .ok_or_else(|| CheckpointError("tensor shape overflows usize".into()))?;
            shape.push(d);
        }
        // Read in bounded chunks so a corrupted length prefix hits EOF
        // before it can drive a giant allocation.
        const CHUNK: usize = 1 << 16;
        let mut data = Vec::new();
        let mut remaining = len;
        let mut buf = vec![0u8; CHUNK.min(len.max(1)) * 4];
        while remaining > 0 {
            let take = remaining.min(CHUNK);
            let bytes = &mut buf[..take * 4];
            r.read_exact(bytes)?;
            data.extend(
                bytes
                    .chunks_exact(4)
                    .map(|b| f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))),
            );
            remaining -= take;
        }
        Ok(Tensor::from_vec(data, &shape))
    }
}

/// File magic for single-model checkpoints.
pub const MODEL_MAGIC: [u8; 4] = *b"RPTM";
/// Current checkpoint format version.
pub const FORMAT_VERSION: u32 = 1;

/// Serialise one [`ModelState`] (payload only — no magic/version framing).
pub fn write_model_state<W: Write>(w: &mut W, state: &ModelState) -> Result<(), CheckpointError> {
    wire::write_str(w, &state.arch)?;
    wire::write_u64(w, state.features as u64)?;
    wire::write_u64(w, state.horizon as u64)?;
    wire::write_u32(w, state.meta.len() as u32)?;
    for (k, v) in &state.meta {
        wire::write_str(w, k)?;
        wire::write_f64(w, *v)?;
    }
    wire::write_u32(w, state.tensors.len() as u32)?;
    for (name, t) in &state.tensors {
        wire::write_str(w, name)?;
        wire::write_tensor(w, t)?;
    }
    Ok(())
}

/// Inverse of [`write_model_state`].
pub fn read_model_state<R: Read>(r: &mut R) -> Result<ModelState, CheckpointError> {
    let arch = wire::read_str(r)?;
    let features = wire::read_u64(r)? as usize;
    let horizon = wire::read_u64(r)? as usize;
    let n_meta = wire::read_u32(r)? as usize;
    if n_meta > wire::MAX_STR {
        return Err(CheckpointError(format!("implausible meta count {n_meta}")));
    }
    let mut meta = Vec::with_capacity(n_meta);
    for _ in 0..n_meta {
        let k = wire::read_str(r)?;
        let v = wire::read_f64(r)?;
        meta.push((k, v));
    }
    let n_tensors = wire::read_u32(r)? as usize;
    if n_tensors > wire::MAX_STR {
        return Err(CheckpointError(format!(
            "implausible tensor count {n_tensors}"
        )));
    }
    let mut tensors = Vec::with_capacity(n_tensors.min(1024));
    for _ in 0..n_tensors {
        let name = wire::read_str(r)?;
        let t = wire::read_tensor(r)?;
        tensors.push((name, t));
    }
    Ok(ModelState {
        arch,
        features,
        horizon,
        meta,
        tensors,
    })
}

/// Write a framed (magic + version) model checkpoint to `w`.
pub fn write_model_file<W: Write>(w: &mut W, state: &ModelState) -> Result<(), CheckpointError> {
    w.write_all(&MODEL_MAGIC)?;
    wire::write_u32(w, FORMAT_VERSION)?;
    write_model_state(w, state)
}

/// Read a framed model checkpoint, rejecting bad magic or unknown versions.
pub fn read_model_file<R: Read>(r: &mut R) -> Result<ModelState, CheckpointError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MODEL_MAGIC {
        return Err(CheckpointError(format!(
            "bad magic {magic:?}, expected {MODEL_MAGIC:?} — not a model checkpoint"
        )));
    }
    let version = wire::read_u32(r)?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError(format!(
            "unsupported checkpoint version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    read_model_state(r)
}

/// Save a model checkpoint to `path`.
// lint: allow(r10) test: checkpoint_roundtrip.rs writes model files through `Forecaster::save`
pub fn save_model(path: &Path, state: &ModelState) -> Result<(), CheckpointError> {
    let mut w = BufWriter::new(File::create(path)?);
    write_model_file(&mut w, state)?;
    w.flush()?;
    Ok(())
}

/// Load a model checkpoint from `path`.
pub fn load_model(path: &Path) -> Result<ModelState, CheckpointError> {
    let mut r = BufReader::new(File::open(path)?);
    read_model_file(&mut r)
}

/// Rebuild a fitted forecaster from a snapshot — the restore half of the
/// serving checkpoint story. Dispatches on [`ModelState::arch`].
pub fn forecaster_from_state(
    state: &ModelState,
) -> Result<Box<dyn Forecaster + Send>, CheckpointError> {
    match state.arch.as_str() {
        "RPTCN" => Ok(Box::new(RptcnForecaster::from_state(state)?)),
        "LSTM" => Ok(Box::new(LstmForecaster::from_state(state)?)),
        "GRU" => Ok(Box::new(GruForecaster::from_state(state)?)),
        "CNN-LSTM" => Ok(Box::new(CnnLstmForecaster::from_state(state)?)),
        "Naive" => Ok(Box::new(NaiveForecaster::from_state(state)?)),
        other => Err(CheckpointError(format!(
            "unknown architecture `{other}` in checkpoint"
        ))),
    }
}

/// Build a **fresh, unfitted** forecaster with the same architecture and
/// hyper-parameters as `state` — what a refit pool trains after a restore.
pub fn forecaster_like(state: &ModelState) -> Result<Box<dyn Forecaster + Send>, CheckpointError> {
    match state.arch.as_str() {
        "RPTCN" => Ok(Box::new(RptcnForecaster::new(
            RptcnForecaster::config_from_state(state)?,
        ))),
        "LSTM" => Ok(Box::new(LstmForecaster::new(
            LstmForecaster::config_from_state(state)?,
        ))),
        "GRU" => Ok(Box::new(GruForecaster::new(
            GruForecaster::config_from_state(state)?,
        ))),
        "CNN-LSTM" => Ok(Box::new(CnnLstmForecaster::new(
            CnnLstmForecaster::config_from_state(state)?,
        ))),
        "Naive" => Ok(Box::new(NaiveForecaster::new())),
        other => Err(CheckpointError(format!(
            "unknown architecture `{other}` in checkpoint"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> ModelState {
        let mut st = ModelState::new("RPTCN", 3, 2);
        st.push_meta("channels", 16.0);
        st.push_meta("dropout", 0.1f32 as f64);
        st.tensors = vec![
            (
                "w".into(),
                Tensor::from_vec(vec![1.5, -2.25, 0.0, f32::MIN_POSITIVE], &[2, 2]),
            ),
            ("b".into(), Tensor::from_vec(vec![0.125], &[1])),
        ];
        st
    }

    #[test]
    fn state_roundtrips_through_bytes() {
        let st = sample_state();
        let mut buf = Vec::new();
        write_model_file(&mut buf, &st).unwrap();
        let back = read_model_file(&mut buf.as_slice()).unwrap();
        assert_eq!(back, st);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let st = sample_state();
        let mut buf = Vec::new();
        write_model_file(&mut buf, &st).unwrap();
        buf[0] = b'X';
        let err = read_model_file(&mut buf.as_slice()).unwrap_err();
        assert!(err.0.contains("bad magic"), "{err}");
    }

    #[test]
    fn unknown_version_is_rejected() {
        let st = sample_state();
        let mut buf = Vec::new();
        write_model_file(&mut buf, &st).unwrap();
        buf[4] = 99;
        let err = read_model_file(&mut buf.as_slice()).unwrap_err();
        assert!(err.0.contains("version"), "{err}");
    }

    #[test]
    fn every_truncation_point_errors_cleanly() {
        let st = sample_state();
        let mut buf = Vec::new();
        write_model_file(&mut buf, &st).unwrap();
        for cut in 0..buf.len() {
            let err = read_model_file(&mut &buf[..cut]);
            assert!(
                err.is_err(),
                "truncation at {cut}/{} was accepted",
                buf.len()
            );
        }
    }

    #[test]
    fn meta_helpers_validate() {
        let st = sample_state();
        assert_eq!(st.require_usize("channels").unwrap(), 16);
        assert_eq!(st.require_f32("dropout").unwrap(), 0.1);
        assert!(st.require("missing").is_err());
        let mut bad = st.clone();
        bad.push_meta("frac", 1.5);
        assert!(bad.require_usize("frac").is_err());
    }

    #[test]
    fn num_scalars_counts_weights() {
        assert_eq!(sample_state().num_scalars(), 5);
    }
}
