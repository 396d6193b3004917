//! Fleet checkpointing: the whole service — every entity's model weights,
//! preprocessing state and raw history — in one versioned binary file
//! (`magic + version + entity table`), built on the same wire primitives
//! as the single-model format in `models::checkpoint`.

use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;

use models::checkpoint::{
    read_model_state, wire, write_atomically, write_model_state, CheckpointError,
};
use rptcn::{PipelineConfig, PredictorState, ScalerScope, Scenario};
use tensor::Tensor;
use timeseries::{RepairPolicy, SplitRatios};

/// File magic for fleet (multi-entity service) checkpoints.
pub const FLEET_MAGIC: [u8; 4] = *b"RPTF";
/// Current fleet checkpoint format version.
pub const FLEET_VERSION: u32 = 1;

fn write_pipeline_config<W: Write>(w: &mut W, cfg: &PipelineConfig) -> Result<(), CheckpointError> {
    wire::write_str(w, &cfg.target)?;
    wire::write_u32(
        w,
        match cfg.scenario {
            Scenario::Uni => 0,
            Scenario::Mul => 1,
            Scenario::MulExp => 2,
        },
    )?;
    wire::write_u64(w, cfg.window as u64)?;
    wire::write_u64(w, cfg.horizon as u64)?;
    wire::write_f64(w, cfg.ratios.train)?;
    wire::write_f64(w, cfg.ratios.valid)?;
    wire::write_f64(w, cfg.ratios.test)?;
    wire::write_u32(
        w,
        match cfg.repair {
            RepairPolicy::DropRows => 0,
            RepairPolicy::Interpolate => 1,
            RepairPolicy::ForwardFill => 2,
        },
    )?;
    wire::write_u64(w, cfg.expansion_copies as u64)?;
    wire::write_u32(
        w,
        match cfg.scaler_scope {
            ScalerScope::TrainOnly => 0,
            ScalerScope::Global => 1,
        },
    )?;
    Ok(())
}

fn read_pipeline_config<R: Read>(r: &mut R) -> Result<PipelineConfig, CheckpointError> {
    let target = wire::read_str(r)?;
    let scenario = match wire::read_u32(r)? {
        0 => Scenario::Uni,
        1 => Scenario::Mul,
        2 => Scenario::MulExp,
        other => return Err(CheckpointError(format!("unknown scenario tag {other}"))),
    };
    let window = wire::read_u64(r)? as usize;
    let horizon = wire::read_u64(r)? as usize;
    let (train, valid, test) = (wire::read_f64(r)?, wire::read_f64(r)?, wire::read_f64(r)?);
    let ratios = SplitRatios::new(train, valid, test)
        .map_err(|e| CheckpointError(format!("bad split ratios in checkpoint: {}", e.0)))?;
    let repair = match wire::read_u32(r)? {
        0 => RepairPolicy::DropRows,
        1 => RepairPolicy::Interpolate,
        2 => RepairPolicy::ForwardFill,
        other => return Err(CheckpointError(format!("unknown repair tag {other}"))),
    };
    let expansion_copies = wire::read_u64(r)? as usize;
    let scaler_scope = match wire::read_u32(r)? {
        0 => ScalerScope::TrainOnly,
        1 => ScalerScope::Global,
        other => return Err(CheckpointError(format!("unknown scaler-scope tag {other}"))),
    };
    Ok(PipelineConfig {
        target,
        scenario,
        window,
        horizon,
        ratios,
        repair,
        expansion_copies,
        scaler_scope,
    })
}

/// Serialise one entity's complete predictor state.
pub fn write_predictor_state<W: Write>(
    w: &mut W,
    state: &PredictorState,
) -> Result<(), CheckpointError> {
    write_model_state(w, &state.model)?;
    write_pipeline_config(w, &state.cfg)?;
    wire::write_u32(w, state.names.len() as u32)?;
    for name in &state.names {
        wire::write_str(w, name)?;
    }
    // History columns ride as rank-1 tensors to reuse the bounded reader.
    wire::write_u32(w, state.history.len() as u32)?;
    for col in &state.history {
        wire::write_tensor(w, &Tensor::from_vec(col.clone(), &[col.len()]))?;
    }
    wire::write_u32(w, state.scaler_columns.len() as u32)?;
    for (name, min, max) in &state.scaler_columns {
        wire::write_str(w, name)?;
        wire::write_f32(w, *min)?;
        wire::write_f32(w, *max)?;
    }
    wire::write_u32(w, state.selected.len() as u32)?;
    for name in &state.selected {
        wire::write_str(w, name)?;
    }
    wire::write_str(w, &state.expanded_target)?;
    wire::write_u64(w, state.samples_since_fit as u64)?;
    wire::write_u64(w, state.refit_every as u64)?;
    Ok(())
}

/// Inverse of [`write_predictor_state`].
pub fn read_predictor_state<R: Read>(r: &mut R) -> Result<PredictorState, CheckpointError> {
    let model = read_model_state(r)?;
    let cfg = read_pipeline_config(r)?;
    let n_names = wire::read_u32(r)? as usize;
    if n_names > wire::MAX_STR {
        return Err(CheckpointError(format!(
            "implausible column count {n_names}"
        )));
    }
    let mut names = Vec::with_capacity(n_names);
    for _ in 0..n_names {
        names.push(wire::read_str(r)?);
    }
    let n_cols = wire::read_u32(r)? as usize;
    if n_cols > wire::MAX_STR {
        return Err(CheckpointError(format!(
            "implausible history column count {n_cols}"
        )));
    }
    let mut history = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        history.push(wire::read_tensor(r)?.into_vec());
    }
    let n_scaler = wire::read_u32(r)? as usize;
    if n_scaler > wire::MAX_STR {
        return Err(CheckpointError(format!(
            "implausible scaler column count {n_scaler}"
        )));
    }
    let mut scaler_columns = Vec::with_capacity(n_scaler);
    for _ in 0..n_scaler {
        let name = wire::read_str(r)?;
        let min = wire::read_f32(r)?;
        let max = wire::read_f32(r)?;
        scaler_columns.push((name, min, max));
    }
    let n_selected = wire::read_u32(r)? as usize;
    if n_selected > wire::MAX_STR {
        return Err(CheckpointError(format!(
            "implausible selected count {n_selected}"
        )));
    }
    let mut selected = Vec::with_capacity(n_selected);
    for _ in 0..n_selected {
        selected.push(wire::read_str(r)?);
    }
    let expanded_target = wire::read_str(r)?;
    let samples_since_fit = wire::read_u64(r)? as usize;
    let refit_every = wire::read_u64(r)? as usize;
    Ok(PredictorState {
        model,
        cfg,
        names,
        history,
        scaler_columns,
        selected,
        expanded_target,
        samples_since_fit,
        refit_every,
    })
}

/// Write a framed fleet checkpoint: every `(entity id, state)` pair.
pub fn write_fleet<W: Write>(
    w: &mut W,
    entities: &[(String, PredictorState)],
) -> Result<(), CheckpointError> {
    w.write_all(&FLEET_MAGIC).map_err(CheckpointError::from)?;
    wire::write_u32(w, FLEET_VERSION)?;
    wire::write_u32(w, entities.len() as u32)?;
    for (id, state) in entities {
        wire::write_str(w, id)?;
        write_predictor_state(w, state)?;
    }
    Ok(())
}

/// Read a framed fleet checkpoint, rejecting bad magic / unknown versions.
pub fn read_fleet<R: Read>(r: &mut R) -> Result<Vec<(String, PredictorState)>, CheckpointError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(CheckpointError::from)?;
    if magic != FLEET_MAGIC {
        return Err(CheckpointError(format!(
            "bad magic {magic:?}, expected {FLEET_MAGIC:?} — not a fleet checkpoint"
        )));
    }
    let version = wire::read_u32(r)?;
    if version != FLEET_VERSION {
        return Err(CheckpointError(format!(
            "unsupported fleet checkpoint version {version} (this build reads {FLEET_VERSION})"
        )));
    }
    let count = wire::read_u32(r)? as usize;
    if count > wire::MAX_STR {
        return Err(CheckpointError(format!("implausible entity count {count}")));
    }
    let mut entities = Vec::with_capacity(count);
    for _ in 0..count {
        let id = wire::read_str(r)?;
        let state = read_predictor_state(r)?;
        entities.push((id, state));
    }
    Ok(entities)
}

/// Save a fleet checkpoint to `path`, atomically
/// ([`models::checkpoint::write_atomically`]).
pub fn save_fleet(
    path: &Path,
    entities: &[(String, PredictorState)],
) -> Result<(), CheckpointError> {
    write_atomically(path, |w| write_fleet(w, entities))
}

/// Load a fleet checkpoint from `path`.
pub fn load_fleet(path: &Path) -> Result<Vec<(String, PredictorState)>, CheckpointError> {
    let mut r = BufReader::new(File::open(path).map_err(CheckpointError::from)?);
    read_fleet(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::checkpoint::ModelState;

    fn sample_entity(id: &str) -> (String, PredictorState) {
        let mut model = ModelState::new("Naive", 0, 2);
        model.push_meta("target_index", 0.0);
        (
            id.to_string(),
            PredictorState {
                model,
                cfg: PipelineConfig {
                    window: 12,
                    scenario: Scenario::MulExp,
                    ..Default::default()
                },
                names: vec!["cpu".into(), "mem".into()],
                history: vec![vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6]],
                scaler_columns: vec![("cpu".into(), 0.0, 1.0), ("mem".into(), 0.2, 0.8)],
                selected: vec!["cpu".into()],
                expanded_target: "cpu#lag0".into(),
                samples_since_fit: 7,
                refit_every: 100,
            },
        )
    }

    #[test]
    fn fleet_roundtrips_through_bytes() {
        let entities = vec![sample_entity("c_0"), sample_entity("c_1")];
        let mut buf = Vec::new();
        write_fleet(&mut buf, &entities).unwrap();
        let back = read_fleet(&mut buf.as_slice()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, "c_0");
        assert_eq!(back[0].1.model, entities[0].1.model);
        assert_eq!(back[0].1.history, entities[0].1.history);
        assert_eq!(back[0].1.scaler_columns, entities[0].1.scaler_columns);
        assert_eq!(back[0].1.cfg.window, 12);
        assert_eq!(back[0].1.cfg.scenario, Scenario::MulExp);
        assert_eq!(back[1].1.samples_since_fit, 7);
        assert_eq!(back[1].1.refit_every, 100);
    }

    #[test]
    fn fleet_magic_and_version_are_checked() {
        let mut buf = Vec::new();
        write_fleet(&mut buf, &[sample_entity("c_0")]).unwrap();
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'Z';
        assert!(read_fleet(&mut bad_magic.as_slice())
            .unwrap_err()
            .0
            .contains("bad magic"));
        let mut bad_version = buf;
        bad_version[4] = 42;
        assert!(read_fleet(&mut bad_version.as_slice())
            .unwrap_err()
            .0
            .contains("version"));
    }

    #[test]
    fn truncated_fleet_files_error() {
        let mut buf = Vec::new();
        write_fleet(&mut buf, &[sample_entity("c_0")]).unwrap();
        for cut in [0, 3, 4, 7, 8, buf.len() / 2, buf.len() - 1] {
            assert!(
                read_fleet(&mut &buf[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }
}
