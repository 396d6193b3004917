//! GRU cell and stacked-sequence module — the lighter recurrent unit used
//! by several related-work predictors (§VI-B); included so the extended
//! model zoo can compare recurrent architectures beyond the LSTM.

use tensor::{Rng, Tensor};

use crate::exec::Exec;
use crate::init::Init;
use crate::params::{ParamId, ParamStore};

/// A single GRU cell. Gate order along the packed `3·hidden` axis is
/// `[reset, update, candidate]`.
#[derive(Debug, Clone)]
pub struct GruCell {
    w_ih: ParamId,
    w_hh: ParamId,
    b_ih: ParamId,
    b_hh: ParamId,
    input_dim: usize,
    hidden: usize,
}

impl GruCell {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> Self {
        let w_ih = store.register(
            format!("{name}.w_ih"),
            Init::XavierUniform.sample(&[input_dim, 3 * hidden], rng),
        );
        let w_hh = store.register(
            format!("{name}.w_hh"),
            Init::XavierUniform.sample(&[hidden, 3 * hidden], rng),
        );
        let b_ih = store.register(format!("{name}.b_ih"), Tensor::zeros(&[3 * hidden]));
        let b_hh = store.register(format!("{name}.b_hh"), Tensor::zeros(&[3 * hidden]));
        Self {
            w_ih,
            w_hh,
            b_ih,
            b_hh,
            input_dim,
            hidden,
        }
    }

    /// One step: `(x_t, h) -> h'` with the standard GRU equations
    /// (separate input/hidden biases, as in cuDNN/PyTorch):
    /// `r = σ(W_ir x + b_ir + W_hr h + b_hr)`,
    /// `z = σ(W_iz x + b_iz + W_hz h + b_hz)`,
    /// `n = tanh(W_in x + b_in + r ⊙ (W_hn h + b_hn))`,
    /// `h' = (1 − z) ⊙ n + z ⊙ h`.
    pub fn step<E: Exec>(&self, ex: &mut E, x: &E::V, h: &E::V) -> E::V {
        debug_assert_eq!(ex.shape(x)[1], self.input_dim);
        let hsz = self.hidden;
        let xi = ex.matmul(x, self.w_ih);
        let xi = ex.add_bias(xi, self.b_ih);
        let hi = ex.matmul(h, self.w_hh);
        let hi = ex.add_bias(hi, self.b_hh);

        let r = {
            let a = ex.slice_cols(&xi, 0, hsz);
            let b = ex.slice_cols(&hi, 0, hsz);
            let s = ex.add(a, &b);
            ex.release(b);
            ex.sigmoid(s)
        };
        let z = {
            let a = ex.slice_cols(&xi, hsz, 2 * hsz);
            let b = ex.slice_cols(&hi, hsz, 2 * hsz);
            let s = ex.add(a, &b);
            ex.release(b);
            ex.sigmoid(s)
        };
        let n = {
            let a = ex.slice_cols(&xi, 2 * hsz, 3 * hsz);
            let b = ex.slice_cols(&hi, 2 * hsz, 3 * hsz);
            let gated = ex.mul(r, &b);
            ex.release(b);
            let s = ex.add(a, &gated);
            ex.release(gated);
            ex.tanh(s)
        };
        ex.release(xi);
        ex.release(hi);
        // h' = (1 - z) * n + z * h, evaluated as (n - z*n) + z*h.
        let zn = ex.dup(&z);
        let zn = ex.mul(zn, &n);
        let zh = ex.mul(z, h);
        let diff = ex.sub(n, &zn);
        ex.release(zn);
        let h_next = ex.add(diff, &zh);
        ex.release(zh);
        h_next
    }

    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    pub fn param_ids(&self) -> Vec<ParamId> {
        vec![self.w_ih, self.w_hh, self.b_ih, self.b_hh]
    }
}

/// Stacked GRU unrolled over a sequence of `[batch, features]` steps.
#[derive(Debug, Clone)]
pub struct Gru {
    cells: Vec<GruCell>,
}

impl Gru {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden: usize,
        layers: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(layers >= 1);
        let cells = (0..layers)
            .map(|l| {
                let in_dim = if l == 0 { input_dim } else { hidden };
                GruCell::new(store, &format!("{name}.l{l}"), in_dim, hidden, rng)
            })
            .collect();
        Self { cells }
    }

    /// Top-layer hidden state at every step; `steps` are consumed.
    pub fn forward_seq<E: Exec>(&self, ex: &mut E, steps: Vec<E::V>) -> Vec<E::V> {
        assert!(!steps.is_empty(), "GRU over empty sequence");
        let state = [ex.shape(&steps[0])[0], self.hidden_size()];
        let mut layer_inputs = steps;
        for cell in &self.cells {
            let h0 = ex.input(&state, |_| {});
            let mut outputs: Vec<E::V> = Vec::with_capacity(layer_inputs.len());
            for x in layer_inputs {
                let h = outputs.last().unwrap_or(&h0);
                let h_next = cell.step(ex, &x, h);
                ex.release(x);
                outputs.push(h_next);
            }
            ex.release(h0);
            layer_inputs = outputs;
        }
        layer_inputs
    }

    /// Final hidden state `[batch, hidden]`.
    pub fn forward_last<E: Exec>(&self, ex: &mut E, steps: Vec<E::V>) -> E::V {
        let mut seq = self.forward_seq(ex, steps);
        let last = seq.pop().expect("GRU over empty sequence");
        seq.into_iter().for_each(|h| ex.release(h));
        last
    }

    pub fn hidden_size(&self) -> usize {
        self.cells[0].hidden_size()
    }

    pub fn input_dim(&self) -> usize {
        self.cells[0].input_dim()
    }

    pub fn param_ids(&self) -> Vec<ParamId> {
        self.cells.iter().flat_map(GruCell::param_ids).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Tape;
    use crate::graph::{Graph, Var};

    #[test]
    fn shapes_and_bounds() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(1);
        let gru = Gru::new(&mut store, "gru", 4, 6, 2, &mut rng);
        let mut g = Graph::new(&store);
        let steps: Vec<Var> = (0..5)
            .map(|_| g.input(Tensor::rand_normal(&[3, 4], 0.0, 10.0, &mut rng)))
            .collect();
        let outs = gru.forward_seq(&mut Tape::eval(&mut g), steps);
        assert_eq!(outs.len(), 5);
        for &o in &outs {
            assert_eq!(g.value(o).shape(), &[3, 6]);
            // Convex mixing of tanh values keeps |h| <= 1.
            assert!(g.value(o).as_slice().iter().all(|&v| v.abs() <= 1.0 + 1e-5));
        }
    }

    #[test]
    fn zero_update_gate_bias_starts_balanced() {
        // At init, z ≈ sigmoid(small) ≈ 0.5: the state moves but does not
        // jump to the candidate; one step from zero state stays bounded.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(2);
        let cell = GruCell::new(&mut store, "c", 2, 3, &mut rng);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::ones(&[1, 2]));
        let h0 = g.input(Tensor::zeros(&[1, 3]));
        let h1 = cell.step(&mut Tape::eval(&mut g), &x, &h0);
        assert!(g.value(h1).as_slice().iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(3);
        let gru = Gru::new(&mut store, "gru", 3, 4, 2, &mut rng);
        let mut g = Graph::new(&store);
        let steps: Vec<Var> = (0..4)
            .map(|_| g.input(Tensor::rand_normal(&[2, 3], 0.0, 1.0, &mut rng)))
            .collect();
        let last = gru.forward_last(&mut Tape::eval(&mut g), steps);
        let sq = g.square(last);
        let loss = g.mean_all(sq);
        let grads = g.backward(loss);
        for id in gru.param_ids() {
            assert!(grads.get(id).is_some(), "no grad for {}", store.name(id));
            assert!(grads.get(id).unwrap().all_finite());
        }
    }

    #[test]
    fn order_sensitivity() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(4);
        let gru = Gru::new(&mut store, "gru", 1, 5, 1, &mut rng);
        let a = Tensor::from_vec(vec![1.0], &[1, 1]);
        let b = Tensor::from_vec(vec![-1.0], &[1, 1]);
        let run = |first: &Tensor, second: &Tensor| {
            let mut g = Graph::new(&store);
            let s1 = g.input(first.clone());
            let s2 = g.input(second.clone());
            let last = gru.forward_last(&mut Tape::eval(&mut g), vec![s1, s2]);
            g.value(last).clone()
        };
        assert!(run(&a, &b).max_abs_diff(&run(&b, &a)) > 1e-4);
    }
}
