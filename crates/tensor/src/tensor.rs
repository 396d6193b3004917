//! The dense, row-major, `f32` tensor type every other crate builds on.

use crate::rng::Rng;
use crate::shape::{self, ShapeError};

/// A dense n-dimensional array of `f32` values in row-major (C) order.
///
/// The type is deliberately simple: owned contiguous storage, no views, no
/// reference counting. Kernels that need strided access (broadcasting,
/// transposition) compute strides on the fly. This keeps every operation
/// easy to reason about and trivially `Send + Sync`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor(shape={:?}, data[..{}]={:?}{})",
            self.shape,
            preview.len(),
            preview,
            if self.data.len() > 8 { ", ..." } else { "" }
        )
    }
}

impl Tensor {
    /// Build a tensor from raw `data` laid out row-major for `shape`.
    ///
    /// # Panics
    /// Panics when `data.len()` disagrees with the shape volume.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            shape::num_elements(shape),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Self {
            data: vec![value],
            shape: vec![],
        }
    }

    /// All-zero tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            data: vec![0.0; shape::num_elements(shape)],
            shape: shape.to_vec(),
        }
    }

    /// All-one tensor of the given shape.
    // lint: allow(r10) test: constant input of the autograd layer unit suites
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            data: vec![value; shape::num_elements(shape)],
            shape: shape.to_vec(),
        }
    }

    /// Uniform samples from `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let n = shape::num_elements(shape);
        let data = (0..n).map(|_| rng.uniform(lo, hi)).collect();
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Gaussian samples with the given mean and standard deviation.
    pub fn rand_normal(shape: &[usize], mean: f32, std: f32, rng: &mut Rng) -> Self {
        let n = shape::num_elements(shape);
        let data = (0..n).map(|_| rng.normal(mean, std)).collect();
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// `[0, 1, 2, ..., n-1]` as a 1-D tensor.
    // lint: allow(r10) test: counting input of the autograd and models unit suites
    pub fn arange(n: usize) -> Self {
        Self {
            data: (0..n).map(|i| i as f32).collect(),
            shape: vec![n],
        }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements (some axis is zero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor and return its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The single value of a rank-0 or single-element tensor.
    ///
    /// # Panics
    /// Panics when the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() on tensor with {} elements",
            self.data.len()
        );
        self.data[0]
    }

    /// Element at a multi-dimensional index.
    #[inline]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[shape::linear_index(&self.shape, index)]
    }

    /// Set the element at a multi-dimensional index.
    #[inline]
    pub fn set(&mut self, index: &[usize], value: f32) {
        let i = shape::linear_index(&self.shape, index);
        self.data[i] = value;
    }

    /// Reinterpret the storage under a new shape with the same volume.
    pub fn reshape(&self, new_shape: &[usize]) -> Result<Tensor, ShapeError> {
        if shape::num_elements(new_shape) != self.data.len() {
            return Err(ShapeError::new(format!(
                "cannot reshape {:?} ({} elems) to {:?}",
                self.shape,
                self.data.len(),
                new_shape
            )));
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape: new_shape.to_vec(),
        })
    }

    /// Reshape without cloning, consuming `self`.
    pub fn into_reshape(mut self, new_shape: &[usize]) -> Result<Tensor, ShapeError> {
        if shape::num_elements(new_shape) != self.data.len() {
            return Err(ShapeError::new(format!(
                "cannot reshape {:?} ({} elems) to {:?}",
                self.shape,
                self.data.len(),
                new_shape
            )));
        }
        self.shape = new_shape.to_vec();
        Ok(self)
    }

    /// Apply `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Materialise this tensor broadcast to `target` shape.
    pub fn broadcast_to(&self, target: &[usize]) -> Result<Tensor, ShapeError> {
        if !shape::broadcastable_to(&self.shape, target) {
            return Err(ShapeError::new(format!(
                "cannot broadcast {:?} to {:?}",
                self.shape, target
            )));
        }
        if self.shape == target {
            return Ok(self.clone());
        }
        let strides = shape::broadcast_strides(&self.shape, target);
        let n = shape::num_elements(target);
        let mut out = vec![0.0f32; n];
        let mut index = vec![0usize; target.len()];
        for slot in out.iter_mut() {
            let mut src = 0usize;
            for (axis, &i) in index.iter().enumerate() {
                src += i * strides[axis];
            }
            *slot = self.data[src];
            // Increment the odometer.
            for axis in (0..target.len()).rev() {
                index[axis] += 1;
                if index[axis] < target[axis] {
                    break;
                }
                index[axis] = 0;
            }
        }
        Ok(Tensor {
            data: out,
            shape: target.to_vec(),
        })
    }

    /// Extract row `i` of a rank-2 tensor as a 1-D tensor.
    pub fn row(&self, i: usize) -> Tensor {
        assert_eq!(self.rank(), 2, "row() requires a matrix");
        let cols = self.shape[1];
        Tensor::from_vec(self.data[i * cols..(i + 1) * cols].to_vec(), &[cols])
    }

    /// Extract column `j` of a rank-2 tensor as a 1-D tensor.
    pub fn col(&self, j: usize) -> Tensor {
        assert_eq!(self.rank(), 2, "col() requires a matrix");
        let (rows, cols) = (self.shape[0], self.shape[1]);
        let data = (0..rows).map(|i| self.data[i * cols + j]).collect();
        Tensor::from_vec(data, &[rows])
    }

    /// True when every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference between two tensors of identical shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// Approximate equality within `tol` (absolute, elementwise).
    // lint: allow(r10) test: tolerance oracle of the autograd and model unit suites
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.row(1).as_slice(), &[4.0, 5.0, 6.0]);
        assert_eq!(t.col(0).as_slice(), &[1.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_bad_len_panics() {
        Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[3]).as_slice(), &[0.0; 3]);
        assert_eq!(Tensor::ones(&[2]).as_slice(), &[1.0; 2]);
        assert_eq!(Tensor::full(&[2], 7.0).as_slice(), &[7.0, 7.0]);
        assert_eq!(Tensor::arange(4).as_slice(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(6).reshape(&[2, 3]).unwrap();
        assert_eq!(t.at(&[1, 0]), 3.0);
        assert!(t.reshape(&[4, 2]).is_err());
        let back = t.into_reshape(&[6]).unwrap();
        assert_eq!(back.shape(), &[6]);
    }

    #[test]
    fn broadcast_to_row_and_col() {
        let row = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = row.broadcast_to(&[2, 3]).unwrap();
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);

        let col = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let b = col.broadcast_to(&[2, 3]).unwrap();
        assert_eq!(b.as_slice(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);

        assert!(col.broadcast_to(&[3, 3]).is_err());
    }

    #[test]
    fn map_and_allclose() {
        let t = Tensor::arange(3).map(|x| x * 2.0);
        assert_eq!(t.as_slice(), &[0.0, 2.0, 4.0]);
        let u = Tensor::from_vec(vec![0.0, 2.0, 4.0 + 1e-4], &[3]);
        assert!(t.allclose(&u, 1e-3));
        assert!(!t.allclose(&u, 1e-6));
    }

    #[test]
    fn rand_uniform_in_range() {
        let mut rng = Rng::seed_from(7);
        let t = Tensor::rand_uniform(&[100], -1.0, 1.0, &mut rng);
        assert!(t.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
        assert!(t.all_finite());
    }

    #[test]
    fn rand_normal_moments() {
        let mut rng = Rng::seed_from(11);
        let t = Tensor::rand_normal(&[10_000], 2.0, 0.5, &mut rng);
        let mean = t.as_slice().iter().sum::<f32>() / 10_000.0;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }
}
