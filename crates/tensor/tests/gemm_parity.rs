//! Property-based parity suite for the runtime-dispatched GEMM.
//!
//! Every dispatch tier must be **bitwise** identical to its scalar twin on
//! arbitrary shapes — including degenerate 0/1 dims, shapes that are not a
//! multiple of the 4×16 microtile, and both merge modes (overwrite vs
//! accumulate). The twins are the semantics; the SIMD kernels are only an
//! implementation detail, and these tests are what let the rest of the
//! workspace (taped training, tape-free inference, chunked batches,
//! shard batching) assume row-partitioning never changes results.

use proptest::prelude::*;
use tensor::gemm::{self, Tier};
use tensor::{matmul, Rng, Tensor};

/// Strategy: a GEMM problem with dims crossing the direct (`m < 4`) and
/// packed (`m >= 4`) paths, partial tiles (`n % 16 != 0`), and degenerate
/// 0-sized axes.
fn gemm_problem() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (0usize..10, 0usize..40, 0usize..40, 0u64..10_000)
}

fn rand_vec(len: usize, rng: &mut Rng) -> Vec<f32> {
    (0..len).map(|_| rng.normal(0.0, 1.0)).collect()
}

type GemmFn = fn(&[f32], &[f32], &mut [f32], usize, usize, usize, bool);

fn twin_for(tier: Tier) -> GemmFn {
    match tier {
        Tier::Fma => gemm::gemm_scalar_fma,
        Tier::Avx | Tier::Scalar => gemm::gemm_scalar,
    }
}

fn assert_bits_eq(got: &[f32], want: &[f32], ctx: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{ctx}: element {i} differs ({g} vs {w})"
        );
    }
}

proptest! {
    /// Core parity property: each tier equals its twin bitwise for random
    /// shapes, in both overwrite and accumulate mode (accumulate starts
    /// from a random, non-zero output so the terminal `+=` is exercised).
    #[test]
    fn tier_matches_twin_bitwise((m, k, n, seed) in gemm_problem()) {
        let mut rng = Rng::seed_from(seed);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let seed_out = rand_vec(m * n, &mut rng);
        for tier in [Tier::Fma, Tier::Avx, Tier::Scalar] {
            for accumulate in [false, true] {
                let mut got = seed_out.clone();
                let mut want = seed_out.clone();
                gemm::gemm_with_tier(tier, &a, &b, &mut got, m, k, n, accumulate);
                twin_for(tier)(&a, &b, &mut want, m, k, n, accumulate);
                assert_bits_eq(&got, &want, &format!("{tier:?} ({m},{k},{n}) acc={accumulate}"));
            }
        }
    }

    /// `matmul_into` (overwrite) must agree with the twin's chains too —
    /// the public slice entry point shares the kernel and its
    /// terminal-store rule.
    #[test]
    fn slice_entry_point_shares_chains((m, k, n, seed) in gemm_problem()) {
        let mut rng = Rng::seed_from(seed);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut over = vec![0.0f32; m * n];
        matmul::matmul_into(&a, &b, &mut over, m, k, n);
        let mut want = vec![0.0f32; m * n];
        twin_for(gemm::active_tier())(&a, &b, &mut want, m, k, n, false);
        assert_bits_eq(&over, &want, "matmul_into vs twin");
    }

    /// Any row partition of the batch is bitwise neutral: computing a
    /// stacked [m, k] product equals computing each contiguous row chunk
    /// independently. This is the exact property `infer::predict` relies on
    /// when it runs a stacked batch in chunks of the model's batch size.
    #[test]
    fn row_chunking_is_bitwise_neutral(
        (m, k, n, seed) in (1usize..12, 1usize..32, 1usize..32, 0u64..10_000),
        split in 1usize..12,
    ) {
        let split = split.min(m);
        let mut rng = Rng::seed_from(seed);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut stacked = vec![0.0f32; m * n];
        matmul::matmul_into(&a, &b, &mut stacked, m, k, n);
        let mut chunked = vec![0.0f32; m * n];
        for start in (0..m).step_by(split) {
            let rows = split.min(m - start);
            matmul::matmul_into(
                &a[start * k..(start + rows) * k],
                &b,
                &mut chunked[start * n..(start + rows) * n],
                rows,
                k,
                n,
            );
        }
        assert_bits_eq(&chunked, &stacked, "chunked vs stacked");
    }

    /// The staged-transpose variants are bitwise identical to transposing
    /// explicitly and multiplying — the backward pass and the forward pass
    /// share the kernel exactly.
    #[test]
    fn transpose_variants_match_explicit_bitwise(
        (k, m, n, seed) in (1usize..10, 1usize..10, 1usize..10, 0u64..10_000),
    ) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::rand_normal(&[k, m], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
        let fused = matmul::matmul_at_b(&a, &b);
        let explicit = matmul::matmul(&matmul::transpose(&a), &b);
        assert_bits_eq(fused.as_slice(), explicit.as_slice(), "at_b");

        let c = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let d = Tensor::rand_normal(&[n, k], 0.0, 1.0, &mut rng);
        let fused = matmul::matmul_a_bt(&c, &d);
        let explicit = matmul::matmul(&c, &matmul::transpose(&d));
        assert_bits_eq(fused.as_slice(), explicit.as_slice(), "a_bt");
    }
}

/// Deterministic spot-check of the exact microtile boundaries (the proptest
/// ranges above cover them probabilistically; these shapes pin the edges:
/// one full tile, one-past, one-short, and the pure-tail column counts).
#[test]
fn tile_boundary_shapes_match_twins() {
    let mut rng = Rng::seed_from(99);
    let tier = gemm::active_tier();
    for &(m, k, n) in &[
        (4, 8, 16),
        (5, 8, 17),
        (3, 8, 15),
        (8, 1, 32),
        (4, 8, 7),
        (4, 8, 8),
        (4, 8, 9),
        (1, 240, 64),
        (30, 240, 64),
    ] {
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut got = vec![0.0f32; m * n];
        gemm::gemm_into(&a, &b, &mut got, m, k, n, false);
        let mut want = vec![0.0f32; m * n];
        twin_for(tier)(&a, &b, &mut want, m, k, n, false);
        assert_bits_eq(&got, &want, &format!("boundary ({m},{k},{n})"));
    }
}
