//! Attention mechanisms (paper eqs. 7–8: `a = f_φ(x)`, `g = a ⊙ z`).

use tensor::Rng;

use crate::exec::Exec;
use crate::init::Init;
use crate::layers::linear::Linear;
use crate::params::{ParamId, ParamStore};

/// Feature attention: a single-layer attention network produces a softmax
/// weighting over the feature vector, which elementwise-gates a value vector
/// (`g = a ⊙ z`). This is the mechanism RPTCN inserts after its fully
/// connected layer.
///
/// The softmax is rescaled by the feature count so an uninformative
/// (uniform) attention leaves the values unchanged instead of shrinking
/// them by `1/dim` — without this the block would start as a heavy
/// attenuation and slow convergence.
#[derive(Debug, Clone)]
pub struct FeatureAttention {
    proj: Linear,
    dim: usize,
}

impl FeatureAttention {
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, rng: &mut Rng) -> Self {
        // Zero-initialised scores give a uniform softmax, so with the
        // dim-rescaling below the block starts as the identity gate and the
        // network's initial loss is not inflated by random attention peaks.
        let proj = Linear::with_init(
            store,
            &format!("{name}.proj"),
            dim,
            dim,
            Init::Constant(0.0),
            true,
            rng,
        );
        Self { proj, dim }
    }

    /// Compute the attention vector from `query` and gate `values` with it.
    /// Both are `[batch, dim]`; so is the result.
    pub fn forward<E: Exec>(&self, ex: &mut E, query: &E::V, values: &E::V) -> E::V {
        debug_assert_eq!(ex.shape(query)[1], self.dim);
        let scores = self.proj.forward(ex, query);
        let attn = ex.softmax_rows(scores);
        let attn = ex.scale(attn, self.dim as f32);
        ex.mul(attn, values)
    }

    /// The score projection (for streaming inference).
    pub fn proj(&self) -> &Linear {
        &self.proj
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn param_ids(&self) -> Vec<ParamId> {
        self.proj.param_ids()
    }
}

/// Temporal attention over a `[batch, channels, time]` sequence: a learned
/// score per time step, softmax across time, and a weighted sum of the
/// per-step channel vectors. Offered as the `future-work` alternative the
/// paper's discussion mentions; the component ablation bench compares it
/// with [`FeatureAttention`].
#[derive(Debug, Clone)]
pub struct TemporalAttention {
    score: Linear,
    channels: usize,
}

impl TemporalAttention {
    pub fn new(store: &mut ParamStore, name: &str, channels: usize, rng: &mut Rng) -> Self {
        let score = Linear::with_init(
            store,
            &format!("{name}.score"),
            channels,
            1,
            Init::XavierUniform,
            true,
            rng,
        );
        Self { score, channels }
    }

    /// `[batch, channels, time] -> [batch, channels]` context vector.
    pub fn forward<E: Exec>(&self, ex: &mut E, seq: &E::V) -> E::V {
        let shape = ex.shape(seq);
        assert_eq!(
            shape.len(),
            3,
            "temporal attention expects [batch, ch, time]"
        );
        assert_eq!(shape[1], self.channels);
        let time = shape[2];
        // Score each step: tanh(h_t) -> linear -> [batch, 1].
        let mut scores = Vec::with_capacity(time);
        let mut steps = Vec::with_capacity(time);
        for t in 0..time {
            let h_t = ex.select_time(seq, t);
            let a = ex.dup(&h_t);
            let a = ex.tanh(a);
            scores.push(self.score.forward(ex, &a));
            ex.release(a);
            steps.push(h_t);
        }
        let logits = ex.concat_cols(&scores); // [batch, time]
        scores.into_iter().for_each(|s| ex.release(s));
        let weights = ex.softmax_rows(logits);
        // context = sum_t w_t * h_t; the first product starts the sum.
        let mut context: Option<E::V> = None;
        for (t, h_t) in steps.into_iter().enumerate() {
            let w_t = ex.slice_cols(&weights, t, t + 1); // [batch, 1]
            let contrib = ex.mul(h_t, &w_t); // broadcast over channels
            ex.release(w_t);
            context = Some(match context {
                Some(c) => {
                    let sum = ex.add(c, &contrib);
                    ex.release(contrib);
                    sum
                }
                None => contrib,
            });
        }
        ex.release(weights);
        context.expect("temporal attention over empty sequence")
    }

    pub fn channels(&self) -> usize {
        self.channels
    }

    pub fn param_ids(&self) -> Vec<ParamId> {
        self.score.param_ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Tape;
    use crate::graph::Graph;
    use tensor::Tensor;

    #[test]
    fn feature_attention_shape_and_gradients() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(1);
        let attn = FeatureAttention::new(&mut store, "attn", 4, &mut rng);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng));
        let y = attn.forward(&mut Tape::eval(&mut g), &x, &x);
        assert_eq!(g.value(y).shape(), &[3, 4]);
        let sq = g.square(y);
        let loss = g.mean_all(sq);
        let grads = g.backward(loss);
        for id in attn.param_ids() {
            assert!(grads.get(id).is_some());
        }
    }

    #[test]
    fn uniform_attention_is_near_identity_at_init() {
        // With zero weights the softmax is uniform; rescaling by dim makes
        // the gate exactly 1 everywhere.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(2);
        let attn = FeatureAttention::new(&mut store, "attn", 5, &mut rng);
        for id in attn.param_ids() {
            store.value_mut(id).map_inplace(|_| 0.0);
        }
        let mut g = Graph::new(&store);
        let data = Tensor::rand_normal(&[2, 5], 0.0, 1.0, &mut rng);
        let x = g.input(data.clone());
        let y = attn.forward(&mut Tape::eval(&mut g), &x, &x);
        assert!(g.value(y).allclose(&data, 1e-5));
    }

    #[test]
    fn temporal_attention_contracts_time_axis() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(3);
        let attn = TemporalAttention::new(&mut store, "tattn", 6, &mut rng);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::rand_normal(&[4, 6, 9], 0.0, 1.0, &mut rng));
        let ctx = attn.forward(&mut Tape::eval(&mut g), &x);
        assert_eq!(g.value(ctx).shape(), &[4, 6]);
    }

    #[test]
    fn temporal_attention_is_convex_combination() {
        // With a constant-across-time sequence the context equals that
        // constant vector regardless of the learned scores.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(4);
        let attn = TemporalAttention::new(&mut store, "tattn", 3, &mut rng);
        let step = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]);
        let mut data = Tensor::zeros(&[1, 3, 5]);
        for c in 0..3 {
            for t in 0..5 {
                data.set(&[0, c, t], step.as_slice()[c]);
            }
        }
        let mut g = Graph::new(&store);
        let x = g.input(data);
        let ctx = attn.forward(&mut Tape::eval(&mut g), &x);
        assert!(g.value(ctx).allclose(&step.reshape(&[1, 3]).unwrap(), 1e-5));
    }

    #[test]
    fn temporal_attention_gradients_reach_scores() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(5);
        let attn = TemporalAttention::new(&mut store, "tattn", 3, &mut rng);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::rand_normal(&[2, 3, 4], 0.0, 1.0, &mut rng));
        let ctx = attn.forward(&mut Tape::eval(&mut g), &x);
        let sq = g.square(ctx);
        let loss = g.mean_all(sq);
        let grads = g.backward(loss);
        for id in attn.param_ids() {
            assert!(grads.get(id).is_some());
            assert!(grads.get(id).unwrap().all_finite());
        }
    }
}
