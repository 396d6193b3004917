//! The f32 GEMM microkernel: safe Rust, multiply and add separate.
//!
//! Every matmul entry point in [`crate::matmul`] routes through [`gemm_into`].
//! A call with `m < MR` runs each row on a direct kernel that streams B in
//! place (packing B costs as much as the multiply at m = 1, the streaming
//! hot path); a larger one packs B into `NR`-column panels and A into
//! `MR`-row panels and runs an `MR×NR` tile over them. Accumulators are
//! fixed-size lane arrays the compiler keeps in vector registers; there is
//! no intrinsic, no `unsafe` and no run-time dispatch, so every host runs
//! the same operations.
//!
//! # Bitwise contract
//!
//! Each output element `C[i][j]` is produced by exactly **one** accumulator
//! chain: `acc = 0; for p in 0..k ascending { acc = acc + A[i][p] * B[p][j] }`
//! — a multiply, then an add, never contracted — then a single store
//! (overwrite) or a single add into the existing value (accumulate). That is
//! [`gemm_scalar`]'s chain, and IEEE 754 fixes the result of every step of
//! it. Because the chain never depends on `m`, on packing, on the column
//! block, on which rows share a call or on the host, the following all hold
//! bitwise:
//!
//! * [`gemm_into`] equals [`gemm_scalar`] on every shape, including
//!   degenerate and non-tile-multiple ones;
//! * the packed large-`m` path equals the direct small-`m` path, so a
//!   stacked batch of rows equals the same rows computed one at a time;
//! * splitting a batch into row chunks does not change results.

// R2: no panics outside tests.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
// R4 and R7: poison-safe locks and deterministic replay (clippy.toml).
#![warn(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use std::cell::RefCell;

/// Rows per packed tile: one broadcast of A feeds `MR` accumulator rows.
const MR: usize = 4;
/// Columns per packed tile. `MR×NR` accumulators are eight 4-lane
/// registers of the baseline x86-64 target, which leaves room for the
/// operands beside them.
const NR: usize = 8;
/// Columns per block of a direct row: four 4-lane chains, enough to hide
/// the add latency of a single row.
const ROW_NR: usize = 16;

/// The arithmetic a host runs the GEMM with. There is one — separate
/// multiply and add, the same on every host — so this carries no data.
#[derive(Clone, Copy, Debug)]
pub struct Tier;

impl Tier {
    /// `"unfused"`: multiply and add are separate IEEE operations.
    pub fn name(self) -> &'static str {
        "unfused"
    }
}

/// The tier every host runs. Kept for the frozen benchmark's host
/// envelope, which prints `active_tier().name()`.
pub fn active_tier() -> Tier {
    Tier
}

/// `C = A · B` (or `C += A · B` when `accumulate`) over raw row-major
/// slices: `A: [m, k]`, `B: [k, n]`, `out: [m, n]`.
///
/// # Panics
/// Panics if the slice lengths disagree with `m`/`k`/`n`.
pub fn gemm_into(
    da: &[f32],
    db: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    if trivial(da, db, out, m, k, n, accumulate) {
        return;
    }
    if m < MR {
        for (a_row, out_row) in da.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            gemm_row(a_row, db, out_row, n, accumulate);
        }
        return;
    }
    PACK_SCRATCH.with(|cell| {
        let (a_panel, b_pack) = &mut *cell.borrow_mut();
        pack_b(db, b_pack, k, n);
        a_panel.resize(k * MR, 0.0);
        for (blk, out_rows) in out.chunks_mut(MR * n).enumerate() {
            let i0 = blk * MR;
            let rows = MR.min(m - i0);
            pack_a(da, a_panel, i0, rows, k);
            for (j0, b_panel) in (0..n).step_by(NR).zip(b_pack.chunks_exact(k * NR)) {
                let cols = NR.min(n - j0);
                let acc = tile(a_panel, b_panel);
                for (r, acc_r) in acc.iter().enumerate().take(rows) {
                    let out_row = &mut out_rows[r * n + j0..];
                    // A whole panel merges at a length known when compiling.
                    match cols {
                        NR => merge(acc_r, &mut out_row[..NR], accumulate),
                        _ => merge(&acc_r[..cols], &mut out_row[..cols], accumulate),
                    }
                }
            }
        }
    });
}

/// The reference chains: one `acc + a * b` per step, element by element in
/// ascending `p`. [`gemm_into`] reproduces it bit for bit; the parity tests
/// compare against it and `bench_infer` times the kernel's speedup over it.
pub fn gemm_scalar(
    da: &[f32],
    db: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    if trivial(da, db, out, m, k, n, accumulate) {
        return;
    }
    for (a_row, out_row) in da.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (j, o) in out_row.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (p, &av) in a_row.iter().enumerate() {
                acc += av * db[p * n + j];
            }
            *o = if accumulate { *o + acc } else { acc };
        }
    }
}

/// Checks the slice lengths and finishes the calls with nothing to
/// multiply: an empty output, or `k == 0`, where overwrite zeroes the
/// output and accumulate leaves it alone (no `+= 0.0`, which would flip
/// `-0.0`). Returns whether the call is done.
fn trivial(
    da: &[f32],
    db: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) -> bool {
    assert_eq!(da.len(), m * k, "gemm lhs length mismatch");
    assert_eq!(db.len(), k * n, "gemm rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm out length mismatch");
    if k == 0 && !accumulate {
        out.fill(0.0);
    }
    m == 0 || n == 0 || k == 0
}

/// The chain's terminal step: store the sums, or add them to what is there.
#[inline(always)]
fn merge(acc: &[f32], out: &mut [f32], accumulate: bool) {
    if accumulate {
        for (o, &a) in out.iter_mut().zip(acc) {
            *o += a;
        }
    } else {
        out.copy_from_slice(acc);
    }
}

/// One row of a direct product: `out_row[j] (+)= Σp a_row[p] · B[p][j]`,
/// `ROW_NR` columns at a time read straight from B's rows, then the
/// columns past the last whole block one chain each (the head's `n = 1`).
fn gemm_row(a_row: &[f32], db: &[f32], out_row: &mut [f32], n: usize, accumulate: bool) {
    let b_rows = db.chunks_exact(n);
    let full = n - n % ROW_NR;
    for j0 in (0..full).step_by(ROW_NR) {
        let mut acc = [0.0f32; ROW_NR];
        for (&a, b_row) in a_row.iter().zip(b_rows.clone()) {
            for (slot, &b) in acc.iter_mut().zip(&b_row[j0..j0 + ROW_NR]) {
                *slot += a * b;
            }
        }
        merge(&acc, &mut out_row[j0..j0 + ROW_NR], accumulate);
    }
    for (j, o) in out_row.iter_mut().enumerate().skip(full) {
        let mut acc = 0.0f32;
        for (&a, b_row) in a_row.iter().zip(b_rows.clone()) {
            acc += a * b_row[j];
        }
        *o = if accumulate { *o + acc } else { acc };
    }
}

/// The `MR×NR` tile of packed panels: `acc[r][c] = Σp a_panel[p·MR + r] ·
/// b_panel[p·NR + c]`, one chain per element in ascending `p`. Padding rows
/// and columns compute sums nobody merges.
fn tile(a_panel: &[f32], b_panel: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (a, b) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        for (acc_r, &av) in acc.iter_mut().zip(a) {
            for (slot, &bv) in acc_r.iter_mut().zip(b) {
                *slot += av * bv;
            }
        }
    }
    acc
}

thread_local! {
    /// Packing scratch reused across calls: `(A panel, packed B)`. Grown
    /// once per thread to the largest shape seen, so steady-state inference
    /// packs without allocating.
    static PACK_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Pack all of B into `NR`-column panels: panel `c` holds, for each `p` in
/// `0..k`, the `NR` floats `B[p][c*NR .. c*NR+NR]` (zero-padded past `n`),
/// so the tile streams B contiguously regardless of `n`.
fn pack_b(db: &[f32], scratch: &mut Vec<f32>, k: usize, n: usize) {
    scratch.resize(n.div_ceil(NR) * k * NR, 0.0);
    for (p, b_row) in db.chunks_exact(n).enumerate() {
        let mut whole = b_row.chunks_exact(NR);
        for (c, src) in whole.by_ref().enumerate() {
            scratch[(c * k + p) * NR..][..NR].copy_from_slice(src);
        }
        let tail = whole.remainder();
        if !tail.is_empty() {
            let dst = &mut scratch[((n / NR) * k + p) * NR..][..NR];
            dst[..tail.len()].copy_from_slice(tail);
            // Scratch is reused across shapes: re-zero the pad lanes so a
            // previous call's data can't leak into the (discarded) pad
            // accumulators.
            dst[tail.len()..].fill(0.0);
        }
    }
}

/// Pack one `MR`-row block of A k-major: for each `p`, the `MR` values
/// `A[i0..i0+MR][p]` (zero rows past `m`), the broadcast order the tile
/// consumes.
fn pack_a(da: &[f32], scratch: &mut [f32], i0: usize, rows: usize, k: usize) {
    for (p, dst) in scratch.chunks_exact_mut(MR).enumerate() {
        for (r, d) in dst.iter_mut().enumerate() {
            *d = if r < rows { da[(i0 + r) * k + p] } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn rand_vec(len: usize, rng: &mut Rng) -> Vec<f32> {
        (0..len).map(|_| rng.normal(0.0, 1.0)).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The kernel must match the reference chains bitwise on shapes that
    /// cross every code path: direct vs packed, full and partial tiles,
    /// both merge modes.
    #[test]
    fn kernel_matches_reference_bitwise() {
        let shapes = [
            (0usize, 3usize, 4usize),
            (3, 0, 4),
            (3, 4, 0),
            (1, 1, 1),
            (1, 7, 5),
            (1, 30, 16),
            (2, 9, 17),
            (3, 64, 8),
            (4, 16, 16),
            (5, 13, 19),
            (7, 31, 33),
            (16, 24, 48),
            (30, 240, 64),
            (80, 70, 64),
        ];
        let mut rng = Rng::seed_from(42);
        for &(m, k, n) in &shapes {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let seed_out = rand_vec(m * n, &mut rng);
            for accumulate in [false, true] {
                let mut got = seed_out.clone();
                let mut want = seed_out.clone();
                gemm_into(&a, &b, &mut got, m, k, n, accumulate);
                gemm_scalar(&a, &b, &mut want, m, k, n, accumulate);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "diverged from the reference at ({m},{k},{n}) acc={accumulate}"
                );
            }
        }
    }

    /// Stacked rows must equal the same rows computed one at a time — the
    /// property chunked inference and shard batching rely on.
    #[test]
    fn row_partition_is_bitwise_neutral() {
        let mut rng = Rng::seed_from(11);
        let (m, k, n) = (13, 40, 24);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut stacked = vec![0.0f32; m * n];
        gemm_into(&a, &b, &mut stacked, m, k, n, false);
        for i in 0..m {
            let mut row = vec![0.0f32; n];
            gemm_into(&a[i * k..(i + 1) * k], &b, &mut row, 1, k, n, false);
            assert_eq!(
                bits(&row),
                bits(&stacked[i * n..(i + 1) * n]),
                "row {i} differs between stacked and per-row gemm"
            );
        }
    }

    /// k == 0 must leave accumulate targets untouched (incl. -0.0 bits) and
    /// zero overwrite targets.
    #[test]
    fn empty_inner_dim_preserves_accumulator_bits() {
        for gemm in [gemm_into, gemm_scalar] {
            let mut acc = vec![-0.0f32, 1.5];
            gemm(&[], &[], &mut acc, 2, 0, 1, true);
            assert_eq!(acc[0].to_bits(), (-0.0f32).to_bits());
            assert_eq!(acc[1], 1.5);
            let mut over = vec![-0.0f32, 1.5];
            gemm(&[], &[], &mut over, 2, 0, 1, false);
            assert_eq!(over, vec![0.0, 0.0]);
        }
    }
}
