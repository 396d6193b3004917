//! Trainable-parameter storage shared by layers, the tape and the optimisers.

use tensor::Tensor;

pub(crate) use weights::ConvWeight;

/// Error raised when a snapshot or named-tensor table does not match the
/// store it is being restored into (wrong length, unknown name, shape
/// mismatch). Restoring mismatched weights would silently corrupt a model,
/// so every import path validates and reports instead of asserting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreError(pub String);

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parameter restore failed: {}", self.0)
    }
}

impl std::error::Error for RestoreError {}

/// Opaque handle to one parameter tensor inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Index into the store (also the index into [`Gradients`]).
    pub fn index(self) -> usize {
        self.0
    }
}

mod weights {
    //! The tensors of a [`ParamStore`](super::ParamStore) together with
    //! what has been derived from them, behind accessors that keep the two
    //! consistent: the only way to a `&mut` tensor drops everything derived.

    use std::sync::{Arc, OnceLock};

    use tensor::Tensor;

    use super::ParamId;
    use crate::conv_kernels::{fold_weight_norm, kept_kernel_takes, lane_major_weight};

    /// What the arena's convolution over the direction tensor at this
    /// index derives from the weights alone: the weight in the one layout
    /// its kernel reads.
    #[derive(Debug)]
    struct Slot {
        /// The gain it was folded with.
        gain: Option<ParamId>,
        prepared: Prepared,
    }

    /// The layout [`kept_kernel_takes`] picks for the folded weight.
    #[derive(Debug)]
    enum Prepared {
        /// [`lane_major_weight`] of the fold, for the kept-column kernel.
        LaneMajor(Vec<f32>),
        /// `[out_ch, in_ch, k]` with the gain folded in, for the tap-wise
        /// reference.
        Folded(Vec<f32>),
        /// The reference's path without a gain: `v` itself, read in place.
        Direction,
    }

    /// The prepared weight of one convolution, made at the first request
    /// after the weights were installed and kept with them.
    pub(crate) struct ConvWeight<'a> {
        /// `(out_ch, in_ch, k)`.
        pub(crate) dims: (usize, usize, usize),
        /// Whether `values` is lane-major, for the kept-column kernel, rather
        /// than the dense `[out_ch, in_ch, k]` the tap-wise reference reads.
        pub(crate) lane_major: bool,
        pub(crate) values: &'a [f32],
    }

    #[derive(Debug, Default)]
    struct Installed {
        tensors: Vec<Tensor>,
        /// One slot per tensor, filled at a convolution's first arena pass
        /// after the weights changed.
        prepared: OnceLock<Box<[OnceLock<Slot>]>>,
    }

    /// A copy is taken to be written to: the tensors, nothing prepared.
    impl Clone for Installed {
        fn clone(&self) -> Self {
            Installed {
                tensors: self.tensors.clone(),
                prepared: OnceLock::new(),
            }
        }
    }

    /// Clones read one allocation — tensors and what was prepared from
    /// them — until one of them is written, which gives that one a copy.
    #[derive(Debug, Default, Clone)]
    pub(super) struct Weights(Arc<Installed>);

    /// Reads go straight to the tensors.
    impl std::ops::Deref for Weights {
        type Target = [Tensor];

        fn deref(&self) -> &[Tensor] {
            &self.0.tensors
        }
    }

    impl Weights {
        /// Mutable access; what was prepared from the old values goes.
        /// O(1) for a store that is not shared: dropping the table frees at
        /// most what one fill allocated, and an optimiser's run of steps
        /// finds it already gone.
        pub(super) fn tensors_mut(&mut self) -> &mut Vec<Tensor> {
            let own = Arc::make_mut(&mut self.0);
            own.prepared.take();
            &mut own.tensors
        }

        /// See [`ParamStore::conv_weight`](super::ParamStore::conv_weight).
        pub(super) fn conv(&self, v: ParamId, gain: Option<ParamId>) -> ConvWeight<'_> {
            let tensors = &self.0.tensors;
            let table = self
                .0
                .prepared
                .get_or_init(|| tensors.iter().map(|_| OnceLock::new()).collect());
            let dir = tensors[v.0].as_slice();
            let shape = tensors[v.0].shape();
            assert_eq!(shape.len(), 3, "conv weight must be [out_ch, in_ch, k]");
            let (out_ch, in_ch, k) = (shape[0], shape[1], shape[2]);
            let slot = table[v.0].get_or_init(|| {
                let folded = gain.map(|g| fold_weight_norm(dir, tensors[g.0].as_slice()));
                let dense = folded.as_deref().unwrap_or(dir);
                let prepared = match kept_kernel_takes(dense) {
                    true => Prepared::LaneMajor(lane_major_weight(dense, out_ch, in_ch, k)),
                    false => folded.map_or(Prepared::Direction, Prepared::Folded),
                };
                Slot { gain, prepared }
            });
            assert_eq!(slot.gain, gain, "one convolution per direction tensor");
            let (lane_major, values) = match &slot.prepared {
                Prepared::LaneMajor(lanes) => (true, lanes.as_slice()),
                Prepared::Folded(folded) => (false, folded.as_slice()),
                Prepared::Direction => (false, dir),
            };
            ConvWeight {
                dims: (out_ch, in_ch, k),
                lane_major,
                values,
            }
        }
    }
}

/// Owns every trainable tensor of a model. Layers register parameters at
/// construction and keep only [`ParamId`]s, so the whole model's state lives
/// in one place — simple to snapshot, count and update.
///
/// It also keeps what the serving path derives from the weights alone (the
/// weight-norm fold of each convolution), filled at first use and dropped
/// by every `&mut` method here, so a fit, refit or restore re-derives it
/// and nothing else does. A clone shares the tensors and what was derived
/// from them with its source until either is written.
#[derive(Debug, Default, Clone)]
pub struct ParamStore {
    values: weights::Weights,
    names: Vec<String>,
}

impl ParamStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new parameter, returning its handle.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let values = self.values.tensors_mut();
        values.push(value);
        self.names.push(name.into());
        ParamId(values.len() - 1)
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable value (used by the optimisers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values.tensors_mut()[id.0]
    }

    /// The `[out_ch, in_ch, k]` weight a causal convolution over the
    /// direction tensor `v` convolves with — `gain · v / ‖v‖` per output
    /// channel when `gain` is given, `v` itself otherwise — in the layout
    /// the arena's kernel for it reads. Prepared once per weight install,
    /// not per call.
    pub(crate) fn conv_weight(&self, v: ParamId, gain: Option<ParamId>) -> ConvWeight<'_> {
        self.values.conv(v, gain)
    }

    /// Diagnostic name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Snapshot every value (used to restore the best-validation weights
    /// after early stopping).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.values.to_vec()
    }

    /// Restore a snapshot taken with [`ParamStore::snapshot`]. Rejects
    /// snapshots whose length or tensor shapes do not match this store.
    pub fn restore(&mut self, snapshot: &[Tensor]) -> Result<(), RestoreError> {
        if snapshot.len() != self.values.len() {
            return Err(RestoreError(format!(
                "snapshot has {} tensors, store has {}",
                snapshot.len(),
                self.values.len()
            )));
        }
        for (i, s) in snapshot.iter().enumerate() {
            if s.shape() != self.values[i].shape() {
                return Err(RestoreError(format!(
                    "parameter '{}' has shape {:?}, snapshot has {:?}",
                    self.names[i],
                    self.values[i].shape(),
                    s.shape()
                )));
            }
        }
        for (v, s) in self.values.tensors_mut().iter_mut().zip(snapshot) {
            *v = s.clone();
        }
        Ok(())
    }

    /// Export every parameter as a `(name, value)` table — the portable
    /// form checkpoint files serialise. Names follow registration order.
    pub fn export_named(&self) -> Vec<(String, Tensor)> {
        self.names
            .iter()
            .cloned()
            .zip(self.values.iter().cloned())
            .collect()
    }

    /// Import a named-tensor table produced by [`ParamStore::export_named`]
    /// on an identically built store. Entries are matched by *name* (not
    /// position), so a checkpoint survives registration-order refactors as
    /// long as layer names stay stable. Every entry must resolve to a
    /// registered parameter of the same shape, every parameter must be
    /// covered exactly once, and nothing is written until the whole table
    /// validates — a failed import leaves the store untouched.
    pub fn import_named(&mut self, entries: &[(String, Tensor)]) -> Result<(), RestoreError> {
        if entries.len() != self.values.len() {
            return Err(RestoreError(format!(
                "checkpoint has {} tensors, store has {}",
                entries.len(),
                self.values.len()
            )));
        }
        let mut resolved = vec![usize::MAX; self.values.len()];
        for (slot, (name, value)) in resolved.iter_mut().zip(entries) {
            let idx = self
                .names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| RestoreError(format!("unknown parameter '{name}'")))?;
            if value.shape() != self.values[idx].shape() {
                return Err(RestoreError(format!(
                    "parameter '{name}' has shape {:?}, checkpoint has {:?}",
                    self.values[idx].shape(),
                    value.shape()
                )));
            }
            *slot = idx;
        }
        let mut seen = vec![false; self.values.len()];
        for &idx in &resolved {
            if seen[idx] {
                return Err(RestoreError(format!(
                    "duplicate parameter '{}' in checkpoint",
                    self.names[idx]
                )));
            }
            seen[idx] = true;
        }
        let values = self.values.tensors_mut();
        for (&idx, (_, value)) in resolved.iter().zip(entries) {
            values[idx] = value.clone();
        }
        Ok(())
    }

    /// Iterate over `(id, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.values.iter().enumerate().map(|(i, t)| (ParamId(i), t))
    }

    /// True when every scalar weight in the store is finite. A store that
    /// fails this check has been poisoned by a diverged update and must be
    /// rolled back before it can serve predictions.
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(Tensor::all_finite)
    }
}

/// Per-parameter gradients produced by one backward pass.
#[derive(Debug, Clone)]
pub struct Gradients {
    by_param: Vec<Option<Tensor>>,
}

impl Gradients {
    pub(crate) fn new(num_params: usize) -> Self {
        Self {
            by_param: vec![None; num_params],
        }
    }

    pub(crate) fn accumulate(&mut self, id: ParamId, grad: &Tensor) {
        match &mut self.by_param[id.0] {
            Some(g) => tensor::ops::axpy(g, 1.0, grad),
            slot @ None => *slot = Some(grad.clone()),
        }
    }

    /// Gradient for a parameter; `None` when the parameter did not
    /// participate in the forward pass.
    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.by_param[id.0].as_ref()
    }

    /// Scale all gradients by `s` (e.g. 1/num_micro_batches).
    pub fn scale(&mut self, s: f32) {
        for g in self.by_param.iter_mut().flatten() {
            g.map_inplace(|x| x * s);
        }
    }

    /// Global L2 norm across every gradient element.
    pub fn global_norm(&self) -> f32 {
        let ss: f64 = self
            .by_param
            .iter()
            .flatten()
            .flat_map(|g| g.as_slice())
            .map(|&x| x as f64 * x as f64)
            .sum();
        ss.sqrt() as f32
    }

    /// Clip gradients so the global norm does not exceed `max_norm`
    /// (the standard recipe for stabilising recurrent nets).
    pub fn clip_global_norm(&mut self, max_norm: f32) {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
    }

    /// True if every present gradient element is finite.
    pub fn all_finite(&self) -> bool {
        self.by_param.iter().flatten().all(Tensor::all_finite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::ones(&[2, 3]));
        assert_eq!(store.value(id).shape(), &[2, 3]);
        assert_eq!(store.name(id), "w");
        assert_eq!(store.len(), 1);
        assert_eq!(store.num_scalars(), 6);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::ones(&[4]));
        let snap = store.snapshot();
        store.value_mut(id).map_inplace(|x| x * 5.0);
        assert_eq!(store.value(id).as_slice(), &[5.0; 4]);
        store.restore(&snap).unwrap();
        assert_eq!(store.value(id).as_slice(), &[1.0; 4]);
    }

    #[test]
    fn restore_rejects_length_and_shape_mismatch() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::ones(&[4]));
        assert!(store.restore(&[]).is_err());
        assert!(store.restore(&[Tensor::ones(&[3])]).is_err());
        // A failed restore leaves the original values intact.
        assert_eq!(store.value(ParamId(0)).as_slice(), &[1.0; 4]);
    }

    #[test]
    fn named_export_import_roundtrip() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::ones(&[2, 2]));
        let b = store.register("b", Tensor::zeros(&[2]));
        let exported = store.export_named();
        assert_eq!(exported.len(), 2);
        store.value_mut(w).map_inplace(|x| x + 7.0);
        store.value_mut(b).map_inplace(|x| x - 3.0);
        store.import_named(&exported).unwrap();
        assert_eq!(store.value(w).as_slice(), &[1.0; 4]);
        assert_eq!(store.value(b).as_slice(), &[0.0; 2]);
    }

    #[test]
    fn import_named_matches_by_name_not_position() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::ones(&[2]));
        let b = store.register("b", Tensor::zeros(&[3]));
        // Reversed order relative to registration.
        let table = vec![
            ("b".to_string(), Tensor::full(&[3], 9.0)),
            ("w".to_string(), Tensor::full(&[2], 5.0)),
        ];
        store.import_named(&table).unwrap();
        assert_eq!(store.value(w).as_slice(), &[5.0; 2]);
        assert_eq!(store.value(b).as_slice(), &[9.0; 3]);
    }

    #[test]
    fn import_named_rejects_bad_tables() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::ones(&[2]));
        store.register("b", Tensor::zeros(&[3]));
        // Unknown name.
        let unknown = vec![
            ("w".to_string(), Tensor::ones(&[2])),
            ("nope".to_string(), Tensor::ones(&[3])),
        ];
        assert!(store.import_named(&unknown).is_err());
        // Wrong shape.
        let misshapen = vec![
            ("w".to_string(), Tensor::ones(&[5])),
            ("b".to_string(), Tensor::ones(&[3])),
        ];
        assert!(store.import_named(&misshapen).is_err());
        // Duplicate entry.
        let duplicated = vec![
            ("w".to_string(), Tensor::ones(&[2])),
            ("w".to_string(), Tensor::ones(&[2])),
        ];
        assert!(store.import_named(&duplicated).is_err());
        // Wrong count.
        assert!(store
            .import_named(&[("w".to_string(), Tensor::ones(&[2]))])
            .is_err());
        // Nothing was clobbered by the failed imports.
        assert_eq!(store.value(ParamId(0)).as_slice(), &[1.0; 2]);
        assert_eq!(store.value(ParamId(1)).as_slice(), &[0.0; 3]);
    }

    fn conv_store(v: Tensor, gain: f32) -> (ParamStore, ParamId, ParamId) {
        let mut store = ParamStore::new();
        let out_ch = v.shape()[0];
        let v = store.register("v", v);
        let g = store.register("g", Tensor::full(&[out_ch, 1], gain));
        (store, v, g)
    }

    #[test]
    fn clones_share_weights_until_one_is_written() {
        let dir = Tensor::from_vec((1..=24).map(|i| i as f32 * 0.37).collect(), &[2, 4, 3]);
        let (mut a, v, g) = conv_store(dir, 1.5);
        let with_zero = [1.0, 0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let p = a.register("p", Tensor::from_vec(with_zero.to_vec(), &[2, 4, 1]));
        let mut b = a.clone();
        let (wa, wb) = (a.conv_weight(v, Some(g)), b.conv_weight(v, Some(g)));
        assert!(wa.lane_major, "uniform weights are prepared lane-major");
        assert!(
            std::ptr::eq(wa.values, wb.values),
            "a clone prepared a second copy"
        );
        assert!(std::ptr::eq(a.value(v), b.value(v)));
        // Without a gain, a weight the kept-column kernel refuses is `v`
        // itself, read in place.
        let plain = a.conv_weight(p, None);
        assert!(!plain.lane_major);
        assert!(std::ptr::eq(plain.values, a.value(p).as_slice()));

        // The written store gets tensors of its own and prepares them anew;
        // the other keeps what it had.
        let before = wa.values.to_vec();
        b.value_mut(g).map_inplace(|x| x * 2.0);
        assert!(!std::ptr::eq(a.value(v), b.value(v)));
        assert_eq!(a.value(g).as_slice(), &[1.5; 2]);
        assert_eq!(a.conv_weight(v, Some(g)).values, before.as_slice());
        assert_ne!(b.conv_weight(v, Some(g)).values, before.as_slice());
    }

    #[test]
    fn all_finite_detects_poisoned_weights() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::ones(&[3]));
        assert!(store.all_finite());
        store.value_mut(id).map_inplace(|_| f32::NAN);
        assert!(!store.all_finite());
    }

    #[test]
    fn gradients_accumulate() {
        let mut g = Gradients::new(2);
        let id = ParamId(0);
        g.accumulate(id, &Tensor::ones(&[3]));
        g.accumulate(id, &Tensor::full(&[3], 2.0));
        assert_eq!(g.get(id).unwrap().as_slice(), &[3.0; 3]);
        assert!(g.get(ParamId(1)).is_none());
    }

    #[test]
    fn global_norm_and_clipping() {
        let mut g = Gradients::new(1);
        g.accumulate(ParamId(0), &Tensor::from_vec(vec![3.0, 4.0], &[2]));
        assert!((g.global_norm() - 5.0).abs() < 1e-6);
        g.clip_global_norm(1.0);
        assert!((g.global_norm() - 1.0).abs() < 1e-5);
        // Clipping below the threshold is a no-op.
        let mut g2 = Gradients::new(1);
        g2.accumulate(ParamId(0), &Tensor::from_vec(vec![0.3, 0.4], &[2]));
        g2.clip_global_norm(1.0);
        assert!((g2.global_norm() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn scale_multiplies_every_gradient() {
        let mut a = Gradients::new(2);
        a.accumulate(ParamId(0), &Tensor::full(&[2], 4.0));
        a.scale(0.5);
        assert_eq!(a.get(ParamId(0)).unwrap().as_slice(), &[2.0, 2.0]);
    }
}
