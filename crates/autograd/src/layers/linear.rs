//! Fully connected layer (paper eq. 6: `y = W·x + b`).

use tensor::{Rng, Tensor};

use crate::exec::Exec;
use crate::init::Init;
use crate::params::{ParamId, ParamStore};

/// Dense affine map from `in_dim` to `out_dim` features.
///
/// Weights are stored `[in_dim, out_dim]` so the forward pass is a plain
/// `x · W` on `[batch, in_dim]` activations.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Create with Xavier-uniform weights and zero bias.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        Self::with_init(store, name, in_dim, out_dim, Init::XavierUniform, true, rng)
    }

    /// Create with an explicit weight initialiser and optional bias.
    pub fn with_init(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        init: Init,
        bias: bool,
        rng: &mut Rng,
    ) -> Self {
        let w = store.register(format!("{name}.w"), init.sample(&[in_dim, out_dim], rng));
        let b = bias.then(|| store.register(format!("{name}.b"), Tensor::zeros(&[out_dim])));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// `[batch, in_dim] -> [batch, out_dim]`.
    pub fn forward<E: Exec>(&self, ex: &mut E, x: &E::V) -> E::V {
        debug_assert_eq!(ex.shape(x)[1], self.in_dim, "Linear input width mismatch");
        let y = ex.matmul(x, self.w);
        match self.b {
            Some(b) => ex.add_bias(y, b),
            None => y,
        }
    }

    /// Raw weight values `[in_dim, out_dim]` (for streaming inference).
    pub fn weight_values<'a>(&self, store: &'a ParamStore) -> &'a [f32] {
        store.value(self.w).as_slice()
    }

    /// Raw bias values `[out_dim]`, when the layer has a bias.
    pub fn bias_values<'a>(&self, store: &'a ParamStore) -> Option<&'a [f32]> {
        self.b.map(|b| store.value(b).as_slice())
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Parameter handles (weight first, then bias if present).
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = vec![self.w];
        ids.extend(self.b);
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Tape;
    use crate::graph::Graph;

    #[test]
    fn forward_matches_manual_affine() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(1);
        let layer = Linear::new(&mut store, "fc", 2, 3, &mut rng);
        // Overwrite with known weights.
        *store.value_mut(layer.param_ids()[0]) =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        *store.value_mut(layer.param_ids()[1]) = Tensor::from_vec(vec![0.1, 0.2, 0.3], &[3]);

        let mut g = Graph::new(&store);
        let x = g.input(Tensor::from_vec(vec![1.0, 1.0], &[1, 2]));
        let y = layer.forward(&mut Tape::eval(&mut g), &x);
        assert!(g
            .value(y)
            .allclose(&Tensor::from_vec(vec![5.1, 7.2, 9.3], &[1, 3]), 1e-5));
    }

    #[test]
    fn bias_free_variant() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(2);
        let layer = Linear::with_init(&mut store, "fc", 4, 2, Init::Constant(0.5), false, &mut rng);
        assert_eq!(layer.param_ids().len(), 1);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::ones(&[3, 4]));
        let y = layer.forward(&mut Tape::eval(&mut g), &x);
        assert!(g.value(y).allclose(&Tensor::full(&[3, 2], 2.0), 1e-6));
    }

    #[test]
    fn gradients_flow_through_both_params() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(3);
        let layer = Linear::new(&mut store, "fc", 3, 2, &mut rng);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::ones(&[5, 3]));
        let y = layer.forward(&mut Tape::eval(&mut g), &x);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        for id in layer.param_ids() {
            assert!(grads.get(id).is_some(), "missing grad for {id:?}");
        }
        // db = batch count per output.
        assert!(grads
            .get(layer.param_ids()[1])
            .unwrap()
            .allclose(&Tensor::full(&[2], 5.0), 1e-5));
    }
}
