//! LSTM cell and multi-layer sequence module — the substrate for the paper's
//! LSTM and CNN-LSTM baselines.

use tensor::{Rng, Tensor};

use crate::exec::Exec;
use crate::init::Init;
use crate::params::{ParamId, ParamStore};

/// A single LSTM cell with the standard four gates packed into one matmul:
/// gate order is `[input, forget, cell, output]` along the `4·hidden` axis.
#[derive(Debug, Clone)]
pub struct LstmCell {
    w_ih: ParamId,
    w_hh: ParamId,
    bias: ParamId,
    input_dim: usize,
    hidden: usize,
}

impl LstmCell {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> Self {
        let w_ih = store.register(
            format!("{name}.w_ih"),
            Init::XavierUniform.sample(&[input_dim, 4 * hidden], rng),
        );
        let w_hh = store.register(
            format!("{name}.w_hh"),
            Init::XavierUniform.sample(&[hidden, 4 * hidden], rng),
        );
        // Forget-gate bias starts at 1 so early training does not erase the
        // cell state — the standard Jozefowicz et al. trick.
        let mut b = Tensor::zeros(&[4 * hidden]);
        for i in hidden..2 * hidden {
            b.as_mut_slice()[i] = 1.0;
        }
        let bias = store.register(format!("{name}.b"), b);
        Self {
            w_ih,
            w_hh,
            bias,
            input_dim,
            hidden,
        }
    }

    /// One step: `(x_t, h, c) -> (h', c')` where `x_t` is `[batch, input]`
    /// and the states are `[batch, hidden]`. The pre-activation is
    /// `(x·W_ih + h·W_hh) + b`, in that association.
    pub fn step<E: Exec>(&self, ex: &mut E, x: &E::V, h: &E::V, c: &E::V) -> (E::V, E::V) {
        debug_assert_eq!(ex.shape(x)[1], self.input_dim);
        let xi = ex.matmul(x, self.w_ih);
        let hi = ex.matmul(h, self.w_hh);
        let z = ex.add(xi, &hi);
        ex.release(hi);
        let z = ex.add_bias(z, self.bias);
        let hsz = self.hidden;
        let i_gate = ex.slice_cols(&z, 0, hsz);
        let i_gate = ex.sigmoid(i_gate);
        let f_gate = ex.slice_cols(&z, hsz, 2 * hsz);
        let f_gate = ex.sigmoid(f_gate);
        let g_gate = ex.slice_cols(&z, 2 * hsz, 3 * hsz);
        let g_gate = ex.tanh(g_gate);
        let o_gate = ex.slice_cols(&z, 3 * hsz, 4 * hsz);
        let o_gate = ex.sigmoid(o_gate);
        ex.release(z);
        let fc = ex.mul(f_gate, c);
        let ig = ex.mul(i_gate, &g_gate);
        ex.release(g_gate);
        let c_next = ex.add(fc, &ig);
        ex.release(ig);
        let tc = ex.dup(&c_next);
        let tc = ex.tanh(tc);
        let h_next = ex.mul(o_gate, &tc);
        ex.release(tc);
        (h_next, c_next)
    }

    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    pub fn param_ids(&self) -> Vec<ParamId> {
        vec![self.w_ih, self.w_hh, self.bias]
    }
}

/// Stacked LSTM unrolled over a sequence of `[batch, features]` steps.
#[derive(Debug, Clone)]
pub struct Lstm {
    cells: Vec<LstmCell>,
}

impl Lstm {
    /// `layers` stacked cells; the first consumes `input_dim` features, the
    /// rest consume the hidden size of the layer below.
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
                LstmCell::new(store, &format!("{name}.l{l}"), in_dim, hidden, rng)
            })
            .collect();
        Self { cells }
    }

    /// Run the stack over `steps` (each `[batch, features]`, consumed),
    /// returning the top-layer hidden state at every step.
    pub fn forward_seq<E: Exec>(&self, ex: &mut E, steps: Vec<E::V>) -> Vec<E::V> {
        assert!(!steps.is_empty(), "LSTM over empty sequence");
        let state = [ex.shape(&steps[0])[0], self.hidden_size()];
        let mut layer_inputs = steps;
        for cell in &self.cells {
            let h0 = ex.input(&state, |_| {});
            let mut c = ex.input(&state, |_| {});
            let mut outputs: Vec<E::V> = Vec::with_capacity(layer_inputs.len());
            for x in layer_inputs {
                let h = outputs.last().unwrap_or(&h0);
                let (h_next, c_next) = cell.step(ex, &x, h, &c);
                ex.release(x);
                ex.replace(&mut c, c_next);
                outputs.push(h_next);
            }
            ex.release(h0);
            ex.release(c);
            layer_inputs = outputs;
        }
        layer_inputs
    }

    /// Run the stack and return only the final hidden state `[batch, hidden]`.
    pub fn forward_last<E: Exec>(&self, ex: &mut E, steps: Vec<E::V>) -> E::V {
        let mut seq = self.forward_seq(ex, steps);
        let last = seq.pop().expect("LSTM over empty sequence");
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
        self.cells.iter().flat_map(LstmCell::param_ids).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Tape;
    use crate::graph::{Graph, Var};

    fn make_steps(g: &mut Graph, batch: usize, dim: usize, time: usize, rng: &mut Rng) -> Vec<Var> {
        (0..time)
            .map(|_| g.input(Tensor::rand_normal(&[batch, dim], 0.0, 1.0, rng)))
            .collect()
    }

    #[test]
    fn shapes_through_stacked_lstm() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(1);
        let lstm = Lstm::new(&mut store, "lstm", 5, 8, 2, &mut rng);
        let mut g = Graph::new(&store);
        let steps = make_steps(&mut g, 3, 5, 7, &mut rng);
        let outs = lstm.forward_seq(&mut Tape::eval(&mut g), steps);
        assert_eq!(outs.len(), 7);
        for &o in &outs {
            assert_eq!(g.value(o).shape(), &[3, 8]);
        }
    }

    #[test]
    fn states_stay_bounded() {
        // tanh/sigmoid gating keeps |h| < 1 no matter the input scale.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(2);
        let lstm = Lstm::new(&mut store, "lstm", 2, 4, 1, &mut rng);
        let mut g = Graph::new(&store);
        let steps: Vec<Var> = (0..20)
            .map(|_| g.input(Tensor::rand_normal(&[1, 2], 0.0, 100.0, &mut rng)))
            .collect();
        let last = lstm.forward_last(&mut Tape::eval(&mut g), steps);
        assert!(g.value(last).as_slice().iter().all(|&h| h.abs() <= 1.0));
    }

    #[test]
    fn gradients_reach_every_cell_parameter() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(3);
        let lstm = Lstm::new(&mut store, "lstm", 3, 4, 2, &mut rng);
        let mut g = Graph::new(&store);
        let steps = make_steps(&mut g, 2, 3, 5, &mut rng);
        let last = lstm.forward_last(&mut Tape::eval(&mut g), steps);
        let sq = g.square(last);
        let loss = g.mean_all(sq);
        let grads = g.backward(loss);
        for id in lstm.param_ids() {
            let grad = grads.get(id);
            assert!(grad.is_some(), "no grad for {}", store.name(id));
            assert!(grad.unwrap().all_finite());
        }
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(4);
        let cell = LstmCell::new(&mut store, "cell", 2, 3, &mut rng);
        let b = store.value(cell.param_ids()[2]);
        assert_eq!(&b.as_slice()[3..6], &[1.0, 1.0, 1.0]);
        assert_eq!(&b.as_slice()[0..3], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn order_sensitivity() {
        // An LSTM must distinguish the same multiset of inputs in different
        // orders (unlike a bag-of-steps model).
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(5);
        let lstm = Lstm::new(&mut store, "lstm", 1, 6, 1, &mut rng);
        let a = Tensor::from_vec(vec![1.0], &[1, 1]);
        let b = Tensor::from_vec(vec![-1.0], &[1, 1]);
        let run = |first: &Tensor, second: &Tensor| {
            let mut g = Graph::new(&store);
            let s1 = g.input(first.clone());
            let s2 = g.input(second.clone());
            let last = lstm.forward_last(&mut Tape::eval(&mut g), vec![s1, s2]);
            g.value(last).clone()
        };
        let fwd = run(&a, &b);
        let rev = run(&b, &a);
        assert!(fwd.max_abs_diff(&rev) > 1e-4, "LSTM ignored input order");
    }
}
