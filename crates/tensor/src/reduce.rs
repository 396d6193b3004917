//! Reductions: full-tensor and along a single axis.

use crate::shape::row_major_strides;
use crate::tensor::Tensor;

/// Sum of all elements, accumulated in f64.
pub fn sum(a: &Tensor) -> f32 {
    a.as_slice().iter().map(|&x| x as f64).sum::<f64>() as f32
}

/// Mean of all elements; 0 for an empty tensor.
pub fn mean(a: &Tensor) -> f32 {
    if a.is_empty() {
        return 0.0;
    }
    sum(a) / a.len() as f32
}

/// Maximum element; `-inf` for an empty tensor.
pub fn max(a: &Tensor) -> f32 {
    a.as_slice()
        .iter()
        .copied()
        .fold(f32::NEG_INFINITY, f32::max)
}

/// Minimum element; `+inf` for an empty tensor.
pub fn min(a: &Tensor) -> f32 {
    a.as_slice().iter().copied().fold(f32::INFINITY, f32::min)
}

/// Walk a tensor reduced along `axis`, calling `f(out_index, value)` for every
/// element, where `out_index` is the linear index in the reduced tensor.
fn for_each_reduced(a: &Tensor, axis: usize, mut f: impl FnMut(usize, f32)) -> Vec<usize> {
    assert!(
        axis < a.rank(),
        "axis {axis} out of range for rank {}",
        a.rank()
    );
    let shape = a.shape();
    let out_shape: Vec<usize> = shape
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != axis)
        .map(|(_, &d)| d)
        .collect();
    let strides = row_major_strides(shape);
    let axis_len = shape[axis];
    let axis_stride = strides[axis];
    // outer iterates over all indices with the reduced axis removed.
    let outer: usize = out_shape.iter().product();
    let out_strides = row_major_strides(&out_shape);
    for o in 0..outer {
        // Decompose o into the multi-index of the reduced tensor, then map to
        // the base offset in the source tensor.
        let mut rem = o;
        let mut base = 0usize;
        let mut oi = 0usize;
        for (i, &d) in shape.iter().enumerate() {
            if i == axis {
                continue;
            }
            let idx = rem / out_strides[oi];
            rem %= out_strides[oi];
            debug_assert!(idx < d);
            base += idx * strides[i];
            oi += 1;
        }
        for j in 0..axis_len {
            f(o, a.as_slice()[base + j * axis_stride]);
        }
    }
    out_shape
}

/// Sum along `axis`, removing that axis from the shape.
pub fn sum_axis(a: &Tensor, axis: usize) -> Tensor {
    let mut acc: Vec<f64> = Vec::new();
    let out_shape = for_each_reduced(a, axis, |o, v| {
        if o >= acc.len() {
            acc.resize(o + 1, 0.0);
        }
        acc[o] += v as f64;
    });
    let n: usize = out_shape.iter().product();
    acc.resize(n, 0.0);
    Tensor::from_vec(acc.into_iter().map(|x| x as f32).collect(), &out_shape)
}

/// Numerically-stable softmax along the last axis of a rank-2 tensor.
pub fn softmax_rows(a: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "softmax_rows requires rank-2");
    let (m, n) = (a.shape()[0], a.shape()[1]);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let row = &a.as_slice()[i * n..(i + 1) * n];
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f64;
        for (j, &x) in row.iter().enumerate() {
            let e = (x - mx).exp();
            out[i * n + j] = e;
            denom += e as f64;
        }
        let inv = 1.0 / denom as f32;
        for slot in &mut out[i * n..(i + 1) * n] {
            *slot *= inv;
        }
    }
    Tensor::from_vec(out, &[m, n])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32], s: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), s)
    }

    #[test]
    fn full_reductions() {
        let a = t(&[1.0, -2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(sum(&a), 6.0);
        assert_eq!(mean(&a), 1.5);
        assert_eq!(max(&a), 4.0);
        assert_eq!(min(&a), -2.0);
    }

    #[test]
    fn sum_axis_matrix() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(sum_axis(&a, 0).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(sum_axis(&a, 0).shape(), &[3]);
        assert_eq!(sum_axis(&a, 1).as_slice(), &[6.0, 15.0]);
        assert_eq!(sum_axis(&a, 1).shape(), &[2]);
    }

    #[test]
    fn sum_axis_rank3() {
        let a = Tensor::arange(24).into_reshape(&[2, 3, 4]).unwrap();
        let s0 = sum_axis(&a, 0);
        assert_eq!(s0.shape(), &[3, 4]);
        assert_eq!(s0.at(&[0, 0]), 0.0 + 12.0);
        let s1 = sum_axis(&a, 1);
        assert_eq!(s1.shape(), &[2, 4]);
        assert_eq!(s1.at(&[0, 1]), 1.0 + 5.0 + 9.0);
        let s2 = sum_axis(&a, 2);
        assert_eq!(s2.shape(), &[2, 3]);
        assert_eq!(s2.at(&[1, 2]), 20.0 + 21.0 + 22.0 + 23.0);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let a = t(&[1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], &[2, 3]);
        let s = softmax_rows(&a);
        assert!(s.all_finite());
        for i in 0..2 {
            let row_sum: f32 = s.row(i).as_slice().iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
        // Uniform logits give uniform probabilities.
        assert!((s.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-5);
        // Larger logit gets larger mass.
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
    }

    #[test]
    fn sum_axis_is_consistent_with_full_sum() {
        let a = Tensor::arange(24).into_reshape(&[2, 3, 4]).unwrap();
        for axis in 0..3 {
            assert!((sum(&sum_axis(&a, axis)) - sum(&a)).abs() < 1e-4);
        }
    }
}
