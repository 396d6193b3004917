//! Dilated causal 1-D convolution layer with optional weight normalisation —
//! the building block of every TCN residual branch (paper §III-D).

use tensor::{Rng, Tensor};

use crate::conv_kernels::fold_weight_norm;
use crate::exec::Exec;
use crate::init::Init;
use crate::params::{ParamId, ParamStore};

/// Causal, dilated 1-D convolution over `[batch, channels, time]`.
///
/// With `weight_norm` enabled the effective weight is reparameterised as
/// `w = gain · v / ‖v‖` with the norm taken per output channel, exactly the
/// Salimans & Kingma scheme TCNs use to stabilise training; on the tape the
/// normalisation is recorded so gradients flow into both `v` and `gain`.
#[derive(Debug, Clone)]
pub struct CausalConv1d {
    v: ParamId,
    gain: Option<ParamId>,
    bias: ParamId,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    dilation: usize,
}

impl CausalConv1d {
    #[allow(clippy::too_many_arguments)] // layer hyper-parameters
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        dilation: usize,
        weight_norm: bool,
        rng: &mut Rng,
    ) -> Self {
        assert!(kernel >= 1 && dilation >= 1);
        let v = store.register(
            format!("{name}.v"),
            Init::KaimingNormal.sample(&[out_ch, in_ch, kernel], rng),
        );
        let gain = weight_norm.then(|| {
            // Initialise the gain to the initial per-channel norm so the
            // reparameterised weight starts identical to `v`.
            let init_v = store.value(v).clone();
            let mut gains = vec![0.0f32; out_ch];
            let per = in_ch * kernel;
            for (oc, gslot) in gains.iter_mut().enumerate() {
                let ss: f32 = init_v.as_slice()[oc * per..(oc + 1) * per]
                    .iter()
                    .map(|&x| x * x)
                    .sum();
                *gslot = ss.sqrt();
            }
            store.register(format!("{name}.g"), Tensor::from_vec(gains, &[out_ch, 1]))
        });
        let bias = store.register(format!("{name}.b"), Tensor::zeros(&[out_ch, 1]));
        Self {
            v,
            gain,
            bias,
            in_ch,
            out_ch,
            kernel,
            dilation,
        }
    }

    /// `[batch, in_ch, T] -> [batch, out_ch, T]`.
    pub fn forward<E: Exec>(&self, ex: &mut E, x: &E::V) -> E::V {
        self.forward_dilated(ex, x, self.dilation, 1)
    }

    /// [`forward`](Self::forward) at `dilation` instead of the layer's own —
    /// for a caller that has subsampled the time axis, so that adjacent
    /// columns of `x` are already `self.dilation() / dilation` steps apart —
    /// on every `keep`-th column counted back from the last, for a caller
    /// that reads no others: `[batch, out_ch, ⌈T/keep⌉]`.
    pub fn forward_dilated<E: Exec>(
        &self,
        ex: &mut E,
        x: &E::V,
        dilation: usize,
        keep: usize,
    ) -> E::V {
        debug_assert_eq!(ex.shape(x)[1], self.in_ch, "conv input channels mismatch");
        ex.conv(x, self.v, self.gain, self.bias, dilation, keep)
    }

    /// The dense `[out, in, k]` weight the layer convolves with, weight
    /// normalisation folded in — folded anew on each call, since the store
    /// prepares only the layout the arena reads; the streaming engine
    /// snapshots it.
    pub fn folded_weight(&self, store: &ParamStore) -> Vec<f32> {
        let v = store.value(self.v).as_slice();
        match self.gain {
            Some(gain) => fold_weight_norm(v, store.value(gain).as_slice()),
            None => v.to_vec(),
        }
    }

    /// The store's prepared copy of the folded weight, the one the arena
    /// reads: lane-major (`[in, k, out]`, out-channels zero-padded to a lane
    /// multiple) when the kept-column kernel takes it, else dense. Made at
    /// first use after a weight install.
    pub fn prepared_weight<'a>(&self, store: &'a ParamStore) -> &'a [f32] {
        store.conv_weight(self.v, self.gain).values
    }

    /// Raw bias values `[out_ch]` (for streaming inference).
    pub fn bias_values<'a>(&self, store: &'a ParamStore) -> &'a [f32] {
        store.value(self.bias).as_slice()
    }

    pub fn in_channels(&self) -> usize {
        self.in_ch
    }

    pub fn out_channels(&self) -> usize {
        self.out_ch
    }

    pub fn kernel_size(&self) -> usize {
        self.kernel
    }

    pub fn dilation(&self) -> usize {
        self.dilation
    }

    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = vec![self.v];
        ids.extend(self.gain);
        ids.push(self.bias);
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Tape;
    use crate::graph::Graph;

    #[test]
    fn plain_conv_forward_shape_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(1);
        let conv = CausalConv1d::new(&mut store, "c", 2, 4, 3, 2, false, &mut rng);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::ones(&[3, 2, 7]));
        let y = conv.forward(&mut Tape::eval(&mut g), &x);
        assert_eq!(g.value(y).shape(), &[3, 4, 7]);
    }

    #[test]
    fn weight_norm_starts_equivalent_to_plain_weights() {
        // gain is initialised to ||v||, so w == v at construction and the
        // outputs of normalised and raw convs coincide.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(2);
        let conv = CausalConv1d::new(&mut store, "c", 3, 5, 3, 1, true, &mut rng);
        let mut g = Graph::new(&store);
        let xdata = Tensor::rand_normal(&[2, 3, 6], 0.0, 1.0, &mut rng);
        let x = g.input(xdata.clone());
        let y_norm = conv.forward(&mut Tape::eval(&mut g), &x);

        // Raw conv with the same v and bias.
        let x2 = g.input(xdata);
        let v = g.param(conv.v);
        let b = g.param(conv.bias);
        let y_raw = g.conv(x2, v, b, 1, 1);
        assert!(g.value(y_norm).allclose(g.value(y_raw), 1e-4));
    }

    #[test]
    fn weight_norm_gradients_reach_gain_and_direction() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(3);
        let conv = CausalConv1d::new(&mut store, "c", 2, 2, 2, 1, true, &mut rng);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::rand_normal(&[1, 2, 5], 0.0, 1.0, &mut rng));
        let y = conv.forward(&mut Tape::eval(&mut g), &x);
        let sq = g.square(y);
        let loss = g.mean_all(sq);
        let grads = g.backward(loss);
        for id in conv.param_ids() {
            assert!(grads.get(id).is_some(), "no grad for {:?}", store.name(id));
            assert!(grads.get(id).unwrap().all_finite());
        }
    }

    #[test]
    fn stacking_dilations_grows_receptive_field() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(4);
        // Dilations 1, 2, 4 with k=3: receptive field 1 + 2*(1+2+4) = 15.
        let convs: Vec<CausalConv1d> = [1usize, 2, 4]
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                CausalConv1d::new(&mut store, &format!("c{i}"), 1, 1, 3, d, false, &mut rng)
            })
            .collect();

        // Verify empirically: output at t=14 depends on x[0], output at
        // t=15.. would not (we use T=16 and perturb x[0]).
        let mut x1 = Tensor::zeros(&[1, 1, 16]);
        x1.set(&[0, 0, 0], 1.0);
        let x2 = Tensor::zeros(&[1, 1, 16]);
        let run = |xd: &Tensor| {
            let mut g = Graph::new(&store);
            let mut h = g.input(xd.clone());
            for c in &convs {
                h = c.forward(&mut Tape::eval(&mut g), &h);
            }
            g.value(h).clone()
        };
        let y1 = run(&x1);
        let y2 = run(&x2);
        // Influence present within the receptive field...
        assert!((y1.at(&[0, 0, 14]) - y2.at(&[0, 0, 14])).abs() > 0.0);
        // ...and absent beyond it.
        assert_eq!(y1.at(&[0, 0, 15]), y2.at(&[0, 0, 15]));
    }
}
