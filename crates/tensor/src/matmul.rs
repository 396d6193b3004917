//! Matrix multiplication and transposition kernels.
//!
//! Every product here routes through the runtime-dispatched SIMD GEMM in
//! [`crate::gemm`] (AVX2+FMA → AVX → scalar, picked per host), so the taped
//! training path, the tape-free inference engine, and the backward-pass
//! transpose variants all share one microkernel and produce bit-identical
//! rows on a given machine.

use crate::gemm;
use crate::tensor::Tensor;

/// `out = A · B` over raw row-major slices; `out` is fully overwritten.
pub fn matmul_into(da: &[f32], db: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm::gemm_into(da, db, out, m, k, n, false);
}

/// `C = A · B` for row-major matrices `A: [m, k]`, `B: [k, n]`.
///
/// # Panics
/// Panics unless both inputs are rank-2 with matching inner dimension.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(
        a.rank(),
        2,
        "matmul lhs must be rank-2, got {:?}",
        a.shape()
    );
    assert_eq!(
        b.rank(),
        2,
        "matmul rhs must be rank-2, got {:?}",
        b.shape()
    );
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(
        k,
        k2,
        "matmul inner dims differ: {:?} x {:?}",
        a.shape(),
        b.shape()
    );

    let mut out = vec![0.0f32; m * n];
    matmul_into(a.as_slice(), b.as_slice(), &mut out, m, k, n);
    Tensor::from_vec(out, &[m, n])
}

/// `y = A · x` for `A: [m, k]`, `x: [k]`.
pub fn matvec(a: &Tensor, x: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matvec lhs must be rank-2");
    assert_eq!(x.rank(), 1, "matvec rhs must be rank-1");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    assert_eq!(k, x.shape()[0], "matvec dims differ");
    let da = a.as_slice();
    let dx = x.as_slice();
    let out = (0..m)
        .map(|i| {
            da[i * k..(i + 1) * k]
                .iter()
                .zip(dx)
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum::<f64>() as f32
        })
        .collect();
    Tensor::from_vec(out, &[m])
}

/// Blocked transpose of a row-major `[rows, cols]` slice into a
/// `[cols, rows]` slice; both streams stay within cache lines.
///
/// # Panics
/// Panics if either slice length differs from `rows * cols`.
pub fn transpose_into(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "transpose_into src length mismatch");
    assert_eq!(dst.len(), rows * cols, "transpose_into dst length mismatch");
    const B: usize = 32;
    for ib in (0..rows).step_by(B) {
        for jb in (0..cols).step_by(B) {
            for i in ib..(ib + B).min(rows) {
                for j in jb..(jb + B).min(cols) {
                    dst[j * rows + i] = src[i * cols + j];
                }
            }
        }
    }
}

/// Transpose of a rank-2 tensor.
pub fn transpose(a: &Tensor) -> Tensor {
    assert_eq!(
        a.rank(),
        2,
        "transpose requires rank-2, got {:?}",
        a.shape()
    );
    let (m, n) = (a.shape()[0], a.shape()[1]);
    let mut out = vec![0.0f32; m * n];
    transpose_into(a.as_slice(), &mut out, m, n);
    Tensor::from_vec(out, &[n, m])
}

/// `C = Aᵀ · B`: the transpose is staged into scratch so the product runs
/// through the packed GEMM panels — bitwise identical to
/// `matmul(&transpose(a), b)`. Used by the backward pass, so the taped
/// training path hits the SIMD kernel too.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2);
    assert_eq!(b.rank(), 2);
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_at_b inner dims differ");
    let mut at = vec![0.0f32; k * m];
    transpose_into(a.as_slice(), &mut at, k, m);
    let mut out = vec![0.0f32; m * n];
    matmul_into(&at, b.as_slice(), &mut out, m, k, n);
    Tensor::from_vec(out, &[m, n])
}

/// `C = A · Bᵀ`: stages `Bᵀ` into scratch and runs the packed GEMM —
/// bitwise identical to `matmul(a, &transpose(b))`.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2);
    assert_eq!(b.rank(), 2);
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, k2) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_a_bt inner dims differ");
    let mut bt = vec![0.0f32; n * k];
    transpose_into(b.as_slice(), &mut bt, n, k);
    let mut out = vec![0.0f32; m * n];
    matmul_into(a.as_slice(), &bt, &mut out, m, k, n);
    Tensor::from_vec(out, &[m, n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn t(v: &[f32], s: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), s)
    }

    /// Naive reference implementation used to validate the optimised kernels.
    fn matmul_ref(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for kk in 0..k {
                    acc += a.at(&[i, kk]) as f64 * b.at(&[kk, j]) as f64;
                }
                out.set(&[i, j], acc as f32);
            }
        }
        out
    }

    #[test]
    fn small_matmul_exact() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        assert_eq!(matmul(&a, &b).as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::seed_from(1);
        let a = Tensor::rand_normal(&[7, 7], 0.0, 1.0, &mut rng);
        let mut eye = Tensor::zeros(&[7, 7]);
        for i in 0..7 {
            eye.set(&[i, i], 1.0);
        }
        assert!(matmul(&a, &eye).allclose(&a, 1e-6));
        assert!(matmul(&eye, &a).allclose(&a, 1e-6));
    }

    #[test]
    fn matches_reference_on_random_rectangles() {
        let mut rng = Rng::seed_from(2);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (17, 9, 13), (64, 32, 48)] {
            let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
            assert!(matmul(&a, &b).allclose(&matmul_ref(&a, &b), 1e-3));
        }
    }

    #[test]
    fn parallel_path_matches_reference() {
        let mut rng = Rng::seed_from(3);
        let a = Tensor::rand_normal(&[80, 70], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[70, 90], 0.0, 1.0, &mut rng);
        assert!(matmul(&a, &b).allclose(&matmul_ref(&a, &b), 1e-2));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::seed_from(4);
        let a = Tensor::rand_normal(&[33, 57], 0.0, 1.0, &mut rng);
        let tt = transpose(&transpose(&a));
        assert_eq!(tt, a);
        assert_eq!(transpose(&a).at(&[5, 7]), a.at(&[7, 5]));
    }

    #[test]
    fn fused_transpose_products_match_explicit() {
        let mut rng = Rng::seed_from(5);
        let a = Tensor::rand_normal(&[10, 6], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[10, 8], 0.0, 1.0, &mut rng);
        // Both variants stage the transpose and run the same GEMM, so the
        // match is exact, not just within tolerance.
        assert_eq!(
            matmul_at_b(&a, &b).as_slice(),
            matmul(&transpose(&a), &b).as_slice()
        );

        let c = Tensor::rand_normal(&[9, 6], 0.0, 1.0, &mut rng);
        let d = Tensor::rand_normal(&[11, 6], 0.0, 1.0, &mut rng);
        assert_eq!(
            matmul_a_bt(&c, &d).as_slice(),
            matmul(&c, &transpose(&d)).as_slice()
        );
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = Rng::seed_from(6);
        let a = Tensor::rand_normal(&[12, 5], 0.0, 1.0, &mut rng);
        let x = Tensor::rand_normal(&[5], 0.0, 1.0, &mut rng);
        let via_mm = matmul(&a, &x.reshape(&[5, 1]).unwrap());
        assert!(matvec(&a, &x)
            .reshape(&[12, 1])
            .unwrap()
            .allclose(&via_mm, 1e-4));
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn dimension_mismatch_panics() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn slice_kernel_matches_tensor_matmul_bitwise() {
        let mut rng = Rng::seed_from(7);
        for &(m, k, n) in &[(1, 1, 1), (2, 7, 3), (5, 13, 4), (1, 30, 16)] {
            let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
            let via_tensor = matmul(&a, &b);
            let mut out = vec![0.0f32; m * n];
            matmul_into(a.as_slice(), b.as_slice(), &mut out, m, k, n);
            assert_eq!(out.as_slice(), via_tensor.as_slice());
        }
    }

    #[test]
    fn zeros_in_lhs_do_not_change_result() {
        // The dense path no longer skips zero multiplicands; make sure the
        // arithmetic is unaffected (x + 0*y == x for finite y).
        let mut rng = Rng::seed_from(8);
        let mut a = Tensor::rand_normal(&[4, 9], 0.0, 1.0, &mut rng);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
        }
        let b = Tensor::rand_normal(&[9, 6], 0.0, 1.0, &mut rng);
        assert!(matmul(&a, &b).allclose(&matmul_ref(&a, &b), 1e-4));
    }
}
