//! Dropout, including the *spatial* (channel) variant TCN residual blocks
//! use: entire channels are zeroed together so temporally-adjacent
//! activations are not decorrelated.

use crate::exec::Exec;

/// Inverted dropout: surviving activations are scaled by `1/(1-p)` during
/// training so inference needs no rescaling. The layer holds the rate; the
/// backend decides whether the pass is a training pass and draws the mask.
#[derive(Debug, Clone, Copy)]
pub struct Dropout {
    p: f32,
}

impl Dropout {
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0, 1)");
        Self { p }
    }

    pub fn rate(&self) -> f32 {
        self.p
    }

    /// Standard elementwise dropout. Identity outside a training pass or
    /// when `p == 0`.
    pub fn apply<E: Exec>(&self, ex: &mut E, x: E::V) -> E::V {
        ex.dropout(x, self.p)
    }

    /// Spatial dropout on `[batch, channels, time]`: one Bernoulli draw per
    /// (batch, channel), broadcast across time.
    pub fn apply_spatial<E: Exec>(&self, ex: &mut E, x: E::V) -> E::V {
        ex.dropout_spatial(x, self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Tape;
    use crate::graph::Graph;
    use crate::params::ParamStore;
    use tensor::{Rng, Tensor};

    #[test]
    fn inference_is_identity() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let mut rng = Rng::seed_from(1);
        let x = g.input(Tensor::ones(&[4, 4]));
        let y = Dropout::new(0.5).apply(&mut Tape::new(&mut g, false, &mut rng), x);
        assert_eq!(g.value(y), g.value(x));
    }

    #[test]
    fn zero_rate_is_identity_even_in_training() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let mut rng = Rng::seed_from(2);
        let x = g.input(Tensor::ones(&[4, 4]));
        let y = Dropout::new(0.0).apply(&mut Tape::new(&mut g, true, &mut rng), x);
        assert_eq!(g.value(y), g.value(x));
    }

    #[test]
    fn expected_value_is_preserved() {
        let store = ParamStore::new();
        let mut rng = Rng::seed_from(3);
        let drop = Dropout::new(0.3);
        let mut total = 0.0f64;
        let n_trials = 200;
        for _ in 0..n_trials {
            let mut g = Graph::new(&store);
            let x = g.input(Tensor::ones(&[10, 10]));
            let y = drop.apply(&mut Tape::new(&mut g, true, &mut rng), x);
            total += tensor::reduce::mean(g.value(y)) as f64;
        }
        let avg = total / n_trials as f64;
        assert!(
            (avg - 1.0).abs() < 0.05,
            "inverted dropout broke the mean: {avg}"
        );
    }

    #[test]
    fn spatial_dropout_zeroes_whole_channels() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let mut rng = Rng::seed_from(4);
        let x = g.input(Tensor::ones(&[2, 8, 6]));
        let y = Dropout::new(0.5).apply_spatial(&mut Tape::new(&mut g, true, &mut rng), x);
        let out = g.value(y);
        let mut zeroed = 0;
        for b in 0..2 {
            for c in 0..8 {
                let vals: Vec<f32> = (0..6).map(|t| out.at(&[b, c, t])).collect();
                let all_zero = vals.iter().all(|&v| v == 0.0);
                let all_scaled = vals.iter().all(|&v| (v - 2.0).abs() < 1e-6);
                assert!(
                    all_zero || all_scaled,
                    "channel partially dropped: {vals:?}"
                );
                zeroed += all_zero as usize;
            }
        }
        assert!(
            zeroed > 0 && zeroed < 16,
            "degenerate mask: {zeroed}/16 channels zeroed"
        );
    }

    #[test]
    fn gradient_is_masked_consistently() {
        let mut store = ParamStore::new();
        let wid = store.register("w", Tensor::ones(&[3, 3]));
        let mut rng = Rng::seed_from(5);
        let mut g = Graph::new(&store);
        let w = g.param(wid);
        let y = Dropout::new(0.5).apply(&mut Tape::new(&mut g, true, &mut rng), w);
        let dropped: Vec<bool> = g.value(y).as_slice().iter().map(|&v| v == 0.0).collect();
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        let gw = grads.get(wid).unwrap();
        for (i, &was_dropped) in dropped.iter().enumerate() {
            if was_dropped {
                assert_eq!(gw.as_slice()[i], 0.0);
            } else {
                assert!((gw.as_slice()[i] - 2.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    #[should_panic(expected = "dropout rate")]
    fn invalid_rate_panics() {
        Dropout::new(1.0);
    }
}
