//! First-order optimisers operating on a [`ParamStore`] and a set of
//! [`Gradients`] returned by [`crate::Graph::backward`].

use tensor::Tensor;

use crate::params::{Gradients, ParamStore};

/// A first-order optimiser. Implementations keep their own per-parameter
/// state (moments), lazily initialised on the first step.
pub trait Optimizer {
    /// Apply one update from `grads`. Parameters without a gradient are
    /// untouched.
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients);

    /// Current learning rate (useful for schedules and logging).
    fn learning_rate(&self) -> f32;

    /// Override the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Adam (Kingma & Ba 2015) — the optimiser the paper's Keras setup defaults
/// to, and what all deep models in this reproduction train with.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step: u64,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    pub fn with_betas(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        Self {
            lr,
            beta1,
            beta2,
            eps,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        self.m.resize(store.len(), None);
        self.v.resize(store.len(), None);
        self.step += 1;
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        for i in 0..store.len() {
            let id = crate::params::ParamId(i);
            let Some(g) = grads.get(id) else { continue };
            let m = self.m[i].get_or_insert_with(|| Tensor::zeros(g.shape()));
            let v = self.v[i].get_or_insert_with(|| Tensor::zeros(g.shape()));
            let value = store.value_mut(id);
            for (((p, ms), vs), &gs) in value
                .as_mut_slice()
                .iter_mut()
                .zip(m.as_mut_slice())
                .zip(v.as_mut_slice())
                .zip(g.as_slice())
            {
                *ms = self.beta1 * *ms + (1.0 - self.beta1) * gs;
                *vs = self.beta2 * *vs + (1.0 - self.beta2) * gs * gs;
                let m_hat = *ms / bc1;
                let v_hat = *vs / bc2;
                *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Minimise L(w) = mean((w - target)^2) and assert convergence.
    fn converges(mut opt: impl Optimizer, steps: usize, tol: f32) {
        let target = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]);
        let mut store = ParamStore::new();
        let wid = store.register("w", Tensor::zeros(&[3]));
        for _ in 0..steps {
            let mut g = Graph::new(&store);
            let w = g.param(wid);
            let t = g.input(target.clone());
            let d = g.sub(w, t);
            let sq = g.square(d);
            let loss = g.mean_all(sq);
            let grads = g.backward(loss);
            opt.step(&mut store, &grads);
        }
        let final_w = store.value(wid);
        assert!(
            final_w.allclose(&target, tol),
            "did not converge: {:?}",
            final_w
        );
    }

    #[test]
    fn adam_converges_on_quadratic() {
        converges(Adam::new(0.05), 600, 1e-2);
    }

    #[test]
    fn missing_gradients_leave_params_untouched() {
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::ones(&[2]));
        let b = store.register("b", Tensor::ones(&[2]));
        let mut opt = Adam::new(0.1);
        let mut g = Graph::new(&store);
        let va = g.param(a);
        let loss = g.sum_all(va);
        let grads = g.backward(loss);
        opt.step(&mut store, &grads);
        assert_ne!(store.value(a).as_slice(), &[1.0, 1.0]);
        assert_eq!(store.value(b).as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn learning_rate_adjustable() {
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
