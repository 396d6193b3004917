//! Runtime-dispatched f32 GEMM microkernel.
//!
//! Every matmul entry point in [`crate::matmul`] routes through [`gemm_into`],
//! which picks the widest instruction tier the host supports at runtime:
//!
//! * **Fma** — AVX2 + FMA, 4×16 register-tiled microkernel (8 independent
//!   `ymm` accumulator chains) over cache-blocked packed panels of A and B.
//! * **Avx** — the same tiling with separate multiply/add (no contraction),
//!   for AVX-only hosts.
//! * **Scalar** — portable fallback, and the tier every non-x86 target uses.
//!
//! # Bitwise-parity contract
//!
//! Each output element `C[i][j]` is produced by exactly **one** accumulator
//! chain: `acc = 0; for p in 0..k ascending { acc = fused(A[i][p], B[p][j],
//! acc) }`, then a single store (overwrite) or a single add into the existing
//! value (accumulate). `fused` is `f32::mul_add` on the Fma tier (identical
//! per lane to `_mm256_fmadd_ps`) and plain `a * b + acc` on the Avx and
//! Scalar tiers (identical per lane to `_mm256_add_ps(_mm256_mul_ps(..))`).
//! Because the chain never depends on `m`, on packing, on the column-chunk
//! width, or on which rows share a call, the following all hold bitwise:
//!
//! * the SIMD path of a tier equals that tier's scalar twin
//!   ([`gemm_scalar_fma`] for Fma, [`gemm_scalar`] for Avx/Scalar) on every
//!   shape, including degenerate and non-tile-multiple ones;
//! * the packed large-`m` path equals the direct small-`m` path, so a
//!   stacked batch of rows equals the same rows computed one at a time;
//! * splitting a batch into row chunks does not change results.
//!
//! Under Miri (and on non-x86 targets) the `#[target_feature]` kernels are
//! replaced by raw-pointer scalar twins with identical signatures and
//! chains, following the pattern `autograd::conv_kernels` established, so
//! Miri validates the packing/dispatch plumbing and the twins' memory
//! contract while producing the same bits as native execution.

use std::cell::RefCell;

/// Rows per microtile: one broadcast register feeds MR accumulator rows.
pub const MR: usize = 4;
/// Columns per microtile: two 8-lane `ymm` vectors per row.
pub const NR: usize = 16;

/// Instruction tier selected by runtime CPU feature detection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    /// AVX2 + FMA: fused multiply-add chains (`f32::mul_add` semantics).
    Fma,
    /// AVX without FMA: separate multiply then add per chain step.
    Avx,
    /// Portable scalar fallback (also every non-x86 target).
    Scalar,
}

impl Tier {
    /// Stable lowercase name for reports and journal lines.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Fma => "fma",
            Tier::Avx => "avx",
            Tier::Scalar => "scalar",
        }
    }
}

/// The widest tier the running host supports.
///
/// Under Miri this reports [`Tier::Fma`] so the dispatch plumbing, panel
/// packing, and the raw-pointer scalar twins all execute under the
/// interpreter.
pub fn active_tier() -> Tier {
    #[cfg(miri)]
    {
        Tier::Fma
    }
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            Tier::Fma
        } else if is_x86_feature_detected!("avx") {
            Tier::Avx
        } else {
            Tier::Scalar
        }
    }
    #[cfg(all(not(target_arch = "x86_64"), not(miri)))]
    {
        Tier::Scalar
    }
}

/// `C = A · B` (or `C += A · B` when `accumulate`) over raw row-major
/// slices: `A: [m, k]`, `B: [k, n]`, `out: [m, n]`, dispatched to the
/// widest tier the host supports.
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
    gemm_with_tier(active_tier(), da, db, out, m, k, n, accumulate);
}

/// [`gemm_into`] with an explicit tier — the seam the parity tests and
/// `bench_infer` use to compare tiers on one machine. Requesting a SIMD
/// tier on a target without the real kernels runs that tier's scalar twin,
/// which produces the same bits.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_tier(
    tier: Tier,
    da: &[f32],
    db: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    assert_eq!(da.len(), m * k, "gemm lhs length mismatch");
    assert_eq!(db.len(), k * n, "gemm rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm out length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // An empty inner dimension contributes nothing; overwrite semantics
        // still zero the output. No `+= 0.0` here — that would flip -0.0.
        if !accumulate {
            out.fill(0.0);
        }
        return;
    }
    match tier {
        Tier::Fma => driver_fma(da, db, out, m, k, n, accumulate),
        Tier::Avx => driver_avx(da, db, out, m, k, n, accumulate),
        Tier::Scalar => gemm_scalar(da, db, out, m, k, n, accumulate),
    }
}

/// Scalar twin of the **Fma** tier: one `f32::mul_add` chain per output
/// element in ascending-`p` order — bitwise identical per element to the
/// AVX2+FMA microkernel. This is the reference the parity tests pin the
/// SIMD path against, and the baseline `bench_infer` times speedups from.
// lint: allow(r10) test: the Fma tier's scalar twin gemm_parity.rs compares bits with
pub fn gemm_scalar_fma(
    da: &[f32],
    db: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    scalar_core(da, db, out, m, k, n, accumulate, |a, b, acc| {
        a.mul_add(b, acc)
    });
}

/// Scalar twin of the **Avx** tier and the `Tier::Scalar` implementation:
/// separate multiply and add per chain step (`acc + a * b`), matching
/// `_mm256_add_ps(_mm256_mul_ps(..))` per lane.
pub fn gemm_scalar(
    da: &[f32],
    db: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    scalar_core(da, db, out, m, k, n, accumulate, |a, b, acc| acc + a * b);
}

/// Shared body of the two scalar twins: per-element ascending-`p` chains,
/// parameterised over the fused step so both twins stay structurally
/// identical to their vector kernels.
#[allow(clippy::too_many_arguments)]
fn scalar_core(
    da: &[f32],
    db: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
    step: impl Fn(f32, f32, f32) -> f32 + Copy,
) {
    assert_eq!(da.len(), m * k, "gemm lhs length mismatch");
    assert_eq!(db.len(), k * n, "gemm rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm out length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            out.fill(0.0);
        }
        return;
    }
    for (i, out_row) in out.chunks_mut(n).enumerate() {
        let a_row = &da[i * k..(i + 1) * k];
        for (j, o) in out_row.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (p, &av) in a_row.iter().enumerate() {
                acc = step(av, db[p * n + j], acc);
            }
            *o = if accumulate { *o + acc } else { acc };
        }
    }
}

thread_local! {
    /// Packing scratch reused across calls: `(A panel, packed B)`. Grown
    /// once per thread to the largest shape seen, so steady-state inference
    /// packs without allocating.
    static PACK_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Pack all of B into `NR`-column panels: panel `c` holds, for each `p` in
/// `0..k`, the `NR` floats `B[p][c*NR .. c*NR+NR]` (zero-padded past `n`),
/// so the microkernel streams B contiguously regardless of `n`.
fn pack_b(db: &[f32], scratch: &mut Vec<f32>, k: usize, n: usize) {
    let chunks = n.div_ceil(NR);
    scratch.resize(chunks * k * NR, 0.0);
    for c in 0..chunks {
        let j0 = c * NR;
        let cols = NR.min(n - j0);
        let panel = &mut scratch[c * k * NR..(c + 1) * k * NR];
        for (p, dst) in panel.chunks_mut(NR).enumerate() {
            let src = &db[p * n + j0..p * n + j0 + cols];
            dst[..cols].copy_from_slice(src);
            // Scratch is reused across shapes: re-zero the pad lanes so a
            // previous call's data can't leak into the (discarded) pad
            // accumulators.
            dst[cols..].fill(0.0);
        }
    }
}

/// Pack one `MR`-row block of A k-major: for each `p`, the `MR` values
/// `A[i0..i0+MR][p]` (zero rows past `m`), matching the broadcast order the
/// microkernel consumes.
fn pack_a(da: &[f32], scratch: &mut [f32], i0: usize, rows: usize, k: usize) {
    for (p, dst) in scratch.chunks_mut(MR).enumerate() {
        for (r, d) in dst.iter_mut().enumerate() {
            *d = if r < rows { da[(i0 + r) * k + p] } else { 0.0 };
        }
    }
}

/// Merge a computed 4×16 tile into the output block (rows `0..rows` of
/// `out_rows`, columns `j0..j0+cols`). The merge is the chain's single
/// terminal store/add, shared verbatim by every tier.
fn merge_tile(
    tile: &[f32; MR * NR],
    out_rows: &mut [f32],
    rows: usize,
    cols: usize,
    j0: usize,
    n: usize,
    accumulate: bool,
) {
    for r in 0..rows {
        let dst = &mut out_rows[r * n + j0..r * n + j0 + cols];
        let src = &tile[r * NR..r * NR + cols];
        if accumulate {
            for (o, &t) in dst.iter_mut().zip(src) {
                *o += t;
            }
        } else {
            dst.copy_from_slice(src);
        }
    }
}

/// Generates one dispatch tier's driver: the direct per-row path for
/// `m < MR` (packing B costs as much as the multiply at m=1, the streaming
/// hot path) and the packed-panel path for larger `m`. Both paths produce
/// identical bits (see module docs).
macro_rules! define_driver {
    ($driver:ident, $tile:ident, $row:ident) => {
        #[allow(clippy::too_many_arguments)]
        fn $driver(
            da: &[f32],
            db: &[f32],
            out: &mut [f32],
            m: usize,
            k: usize,
            n: usize,
            accumulate: bool,
        ) {
            if m < MR {
                for (i, out_row) in out.chunks_mut(n).enumerate() {
                    // SAFETY: `da[i*k..]` holds `k` floats (length asserted
                    // by the caller), `db` holds `k*n`, `out_row` holds `n`;
                    // the kernel reads/writes strictly within those bounds.
                    // The Fma/Avx kernels are only compiled on x86_64 and
                    // only reached through `active_tier`/tests after the
                    // matching feature check (`gemm_with_tier` on a host
                    // without them uses the scalar-twin build of `$row`).
                    unsafe {
                        kernels::$row(
                            da[i * k..(i + 1) * k].as_ptr(),
                            db.as_ptr(),
                            out_row.as_mut_ptr(),
                            k,
                            n,
                            accumulate,
                        );
                    }
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
                    let mut tile = [0.0f32; MR * NR];
                    for (c, j0) in (0..n).step_by(NR).enumerate() {
                        let cols = NR.min(n - j0);
                        let panel = &b_pack[c * k * NR..(c + 1) * k * NR];
                        // SAFETY: `a_panel` holds `k*MR` floats and `panel`
                        // holds `k*NR`; the kernel reads exactly those and
                        // writes exactly `MR*NR` floats into `tile`. Feature
                        // availability as above.
                        unsafe {
                            kernels::$tile(a_panel.as_ptr(), panel.as_ptr(), k, tile.as_mut_ptr());
                        }
                        merge_tile(&tile, out_rows, rows, cols, j0, n, accumulate);
                    }
                }
            });
        }
    };
}

define_driver!(driver_fma, tile_fma, row_fma);
define_driver!(driver_avx, tile_avx, row_avx);

/// The per-tier microkernels. Real `#[target_feature]` implementations on
/// native x86_64; raw-pointer scalar twins (same signatures, same chains)
/// under Miri and on every other architecture.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod kernels {
    use super::{MR, NR};
    use core::arch::x86_64::*;

    /// Generates one tier's `(tile, row)` kernel pair. `$madd` fuses one
    /// chain step on 8 lanes; `$smadd` is its exact scalar-lane equivalent,
    /// used for the sub-8-column tail so every element of a row shares the
    /// tier's chain semantics.
    macro_rules! define_kernels {
        ($tile:ident, $row:ident, $madd:ident, $smadd:ident, $($feat:literal),+) => {
            /// Packed 4×16 microtile: `tile[r][c] = Σp ap[p*MR+r] * bp[p*NR+c]`
            /// as one fused chain per element, kept in 8 `ymm` accumulators.
            ///
            /// # Safety
            /// `ap` must be valid for `k*MR` reads, `bp` for `k*NR` reads,
            /// `tile` for `MR*NR` writes, and the CPU must support this
            /// tier's features (guaranteed by `active_tier` dispatch or an
            /// explicit caller check).
            #[target_feature($(enable = $feat),+)]
            pub unsafe fn $tile(ap: *const f32, bp: *const f32, k: usize, tile: *mut f32) {
                // SAFETY: all pointer arithmetic below stays inside the
                // ranges the fn contract guarantees: `ap` reads index
                // `p*MR + r` with `p < k`, `r < MR`; `bp` reads 8-lane
                // vectors at `p*NR` and `p*NR + 8` (NR == 16); `tile`
                // writes rows `r*NR` and `r*NR + 8` for `r < MR`.
                unsafe {
                    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
                    for p in 0..k {
                        let b0 = _mm256_loadu_ps(bp.add(p * NR));
                        let b1 = _mm256_loadu_ps(bp.add(p * NR + 8));
                        for (r, acc_r) in acc.iter_mut().enumerate() {
                            let a = _mm256_set1_ps(*ap.add(p * MR + r));
                            acc_r[0] = $madd!(a, b0, acc_r[0]);
                            acc_r[1] = $madd!(a, b1, acc_r[1]);
                        }
                    }
                    for (r, acc_r) in acc.iter().enumerate() {
                        _mm256_storeu_ps(tile.add(r * NR), acc_r[0]);
                        _mm256_storeu_ps(tile.add(r * NR + 8), acc_r[1]);
                    }
                }
            }

            /// Direct (unpacked) single-row kernel for small `m`:
            /// `out[j] (+)= Σp a_row[p] * db[p*n + j]`, streaming B rows
            /// in-place. 16-wide main loop, 8-wide then scalar tails — the
            /// per-element chain is identical across all three widths.
            ///
            /// # Safety
            /// `a_row` must be valid for `k` reads, `db` for `k*n` reads,
            /// `out_row` for `n` reads/writes, with CPU features as for the
            /// tile kernel.
            #[target_feature($(enable = $feat),+)]
            pub unsafe fn $row(
                a_row: *const f32,
                db: *const f32,
                out_row: *mut f32,
                k: usize,
                n: usize,
                accumulate: bool,
            ) {
                // SAFETY: `j` only reaches offsets where the full vector
                // (or scalar) access fits inside `n`, and every B access is
                // `p*n + j + lanes <= k*n`; bounds follow from the fn
                // contract.
                unsafe {
                    let mut j = 0usize;
                    while j + NR <= n {
                        let mut acc0 = _mm256_setzero_ps();
                        let mut acc1 = _mm256_setzero_ps();
                        for p in 0..k {
                            let a = _mm256_set1_ps(*a_row.add(p));
                            acc0 = $madd!(a, _mm256_loadu_ps(db.add(p * n + j)), acc0);
                            acc1 = $madd!(a, _mm256_loadu_ps(db.add(p * n + j + 8)), acc1);
                        }
                        if accumulate {
                            acc0 = _mm256_add_ps(_mm256_loadu_ps(out_row.add(j)), acc0);
                            acc1 = _mm256_add_ps(_mm256_loadu_ps(out_row.add(j + 8)), acc1);
                        }
                        _mm256_storeu_ps(out_row.add(j), acc0);
                        _mm256_storeu_ps(out_row.add(j + 8), acc1);
                        j += NR;
                    }
                    while j + 8 <= n {
                        let mut acc = _mm256_setzero_ps();
                        for p in 0..k {
                            let a = _mm256_set1_ps(*a_row.add(p));
                            acc = $madd!(a, _mm256_loadu_ps(db.add(p * n + j)), acc);
                        }
                        if accumulate {
                            acc = _mm256_add_ps(_mm256_loadu_ps(out_row.add(j)), acc);
                        }
                        _mm256_storeu_ps(out_row.add(j), acc);
                        j += 8;
                    }
                    while j < n {
                        let mut acc = 0.0f32;
                        // Spelled `acc = acc + a*b` (not `+=`) so the macro
                        // expansion matches the twin's chain token-for-token.
                        #[allow(clippy::assign_op_pattern)]
                        for p in 0..k {
                            acc = $smadd!(*a_row.add(p), *db.add(p * n + j), acc);
                        }
                        let o = out_row.add(j);
                        *o = if accumulate { *o + acc } else { acc };
                        j += 1;
                    }
                }
            }
        };
    }

    macro_rules! madd_fma {
        ($a:expr, $b:expr, $c:expr) => {
            _mm256_fmadd_ps($a, $b, $c)
        };
    }
    macro_rules! madd_avx {
        ($a:expr, $b:expr, $c:expr) => {
            _mm256_add_ps($c, _mm256_mul_ps($a, $b))
        };
    }
    macro_rules! smadd_fma {
        ($a:expr, $b:expr, $c:expr) => {
            ($a).mul_add($b, $c)
        };
    }
    macro_rules! smadd_avx {
        ($a:expr, $b:expr, $c:expr) => {
            $c + $a * $b
        };
    }

    define_kernels!(tile_fma, row_fma, madd_fma, smadd_fma, "avx2", "fma");
    define_kernels!(tile_avx, row_avx, madd_avx, smadd_avx, "avx");
}

/// Raw-pointer scalar twins for Miri and non-x86 targets: same signatures,
/// same per-element chains as the vector kernels, so Miri validates the
/// exact memory contract the `# Safety` sections claim and every target
/// computes the same bits.
#[cfg(any(not(target_arch = "x86_64"), miri))]
mod kernels {
    use super::{MR, NR};

    macro_rules! define_twins {
        ($tile:ident, $row:ident, $smadd:ident) => {
            /// Scalar twin of the packed 4×16 microtile (see the native
            /// kernel for the shared contract).
            ///
            /// # Safety
            /// Same contract as the native kernel: `ap` valid for `k*MR`
            /// reads, `bp` for `k*NR` reads, `tile` for `MR*NR` writes.
            pub unsafe fn $tile(ap: *const f32, bp: *const f32, k: usize, tile: *mut f32) {
                for r in 0..MR {
                    for c in 0..NR {
                        let mut acc = 0.0f32;
                        for p in 0..k {
                            // SAFETY: `p < k`, `r < MR`, `c < NR` keep both
                            // reads inside the contract's ranges.
                            unsafe {
                                acc = $smadd!(*ap.add(p * MR + r), *bp.add(p * NR + c), acc);
                            }
                        }
                        // SAFETY: `r*NR + c < MR*NR`, within the contract's
                        // writable range.
                        unsafe {
                            *tile.add(r * NR + c) = acc;
                        }
                    }
                }
            }

            /// Scalar twin of the direct row kernel. Chunk widths don't
            /// affect per-element chains, so one scalar loop over `j`
            /// reproduces the vector kernel's bits exactly.
            ///
            /// # Safety
            /// Same contract as the native kernel: `a_row` valid for `k`
            /// reads, `db` for `k*n` reads, `out_row` for `n` reads/writes.
            pub unsafe fn $row(
                a_row: *const f32,
                db: *const f32,
                out_row: *mut f32,
                k: usize,
                n: usize,
                accumulate: bool,
            ) {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        // SAFETY: `p < k` and `j < n` bound both reads per
                        // the contract.
                        unsafe {
                            acc = $smadd!(*a_row.add(p), *db.add(p * n + j), acc);
                        }
                    }
                    // SAFETY: `j < n` bounds the read-modify-write.
                    unsafe {
                        let o = out_row.add(j);
                        *o = if accumulate { *o + acc } else { acc };
                    }
                }
            }
        };
    }

    macro_rules! smadd_fma {
        ($a:expr, $b:expr, $c:expr) => {
            ($a).mul_add($b, $c)
        };
    }
    macro_rules! smadd_avx {
        ($a:expr, $b:expr, $c:expr) => {
            $c + $a * $b
        };
    }

    define_twins!(tile_fma, row_fma, smadd_fma);
    define_twins!(tile_avx, row_avx, smadd_avx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn rand_vec(len: usize, rng: &mut Rng) -> Vec<f32> {
        (0..len).map(|_| rng.normal(0.0, 1.0)).collect()
    }

    type GemmFn = fn(&[f32], &[f32], &mut [f32], usize, usize, usize, bool);

    fn twin_for(tier: Tier) -> GemmFn {
        match tier {
            Tier::Fma => gemm_scalar_fma,
            Tier::Avx | Tier::Scalar => gemm_scalar,
        }
    }

    /// Every tier must match its scalar twin bitwise on shapes that cross
    /// every code path: direct vs packed, full and partial tiles, both
    /// merge modes.
    #[test]
    fn tiers_match_twins_bitwise() {
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
        ];
        let mut rng = Rng::seed_from(42);
        for &(m, k, n) in &shapes {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let seed_out = rand_vec(m * n, &mut rng);
            for tier in [Tier::Fma, Tier::Avx, Tier::Scalar] {
                for accumulate in [false, true] {
                    let mut got = seed_out.clone();
                    let mut want = seed_out.clone();
                    gemm_with_tier(tier, &a, &b, &mut got, m, k, n, accumulate);
                    twin_for(tier)(&a, &b, &mut want, m, k, n, accumulate);
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "tier {tier:?} diverged from twin at ({m},{k},{n}) acc={accumulate}"
                        );
                    }
                }
            }
        }
    }

    /// The dispatch entry point must agree with whichever twin matches the
    /// detected tier — the bridge between `gemm_into` callers and the
    /// per-tier parity above.
    #[test]
    fn dispatch_matches_active_tier_twin() {
        let mut rng = Rng::seed_from(7);
        let (m, k, n) = (9, 21, 27);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        gemm_into(&a, &b, &mut got, m, k, n, false);
        twin_for(active_tier())(&a, &b, &mut want, m, k, n, false);
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
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
                row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                stacked[i * n..(i + 1) * n]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "row {i} differs between stacked and per-row gemm"
            );
        }
    }

    /// k == 0 must leave accumulate targets untouched (incl. -0.0 bits) and
    /// zero overwrite targets.
    #[test]
    fn empty_inner_dim_preserves_accumulator_bits() {
        for tier in [Tier::Fma, Tier::Avx, Tier::Scalar] {
            let mut acc = vec![-0.0f32, 1.5];
            gemm_with_tier(tier, &[], &[], &mut acc, 2, 0, 1, true);
            assert_eq!(acc[0].to_bits(), (-0.0f32).to_bits());
            assert_eq!(acc[1], 1.5);
            let mut over = vec![-0.0f32, 1.5];
            gemm_with_tier(tier, &[], &[], &mut over, 2, 0, 1, false);
            assert_eq!(over, vec![0.0, 0.0]);
        }
    }

    /// A shape of many row blocks and several column panels equals the
    /// tier's one-element-at-a-time twin bit for bit.
    #[test]
    #[cfg_attr(miri, ignore = "a shape this large is too slow under miri")]
    fn parallel_path_is_bitwise_stable() {
        let mut rng = Rng::seed_from(13);
        let (m, k, n) = (80, 70, 64);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut par = vec![0.0f32; m * n];
        gemm_into(&a, &b, &mut par, m, k, n, false);
        let mut twin = vec![0.0f32; m * n];
        twin_for(active_tier())(&a, &b, &mut twin, m, k, n, false);
        assert_eq!(
            par.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            twin.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
