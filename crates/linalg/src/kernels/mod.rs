//! Hot `f32` vector kernels used by every distance-computation path, with
//! runtime-dispatched SIMD backends.
//!
//! All distance computation in the library funnels through this module,
//! which is what makes the "dimensions scanned" accounting of Fig. 10
//! meaningful — and which makes these loops the unit cost the whole query
//! budget is measured in. The paper evaluates with SIMD *disabled*
//! (§VII-A) to isolate algorithmic gains; this reproduction keeps that
//! scalar path as the reference implementation and layers explicit SIMD
//! backends on top so the system also runs as fast as the hardware allows.
//!
//! # Backend / dispatch design
//!
//! The module is split into interchangeable backends plus a dispatch layer:
//!
//! * [`scalar`] — the reference implementation: plain loops with 4-way
//!   unrolled independent accumulators, exactly the code the paper's cost
//!   model assumes. Always compiled, on every architecture, and kept
//!   public so tests can pin it.
//! * `avx2` (x86-64 only) — AVX2 + FMA intrinsics, 4× unrolled 8-lane
//!   accumulators (32 floats in flight per iteration).
//! * `neon` (aarch64 only) — NEON intrinsics, 4× unrolled 4-lane
//!   accumulators.
//! * `dispatch` — probes the CPU once per process
//!   (`is_x86_feature_detected!` / aarch64 equivalent), caches a
//!   function-pointer table in a `OnceLock`, and routes every public free
//!   function through it. A single portable binary therefore picks the
//!   fastest available path at startup; call sites never name a backend.
//!
//! Setting the environment variable `DDC_FORCE_SCALAR` to any value other
//! than `0` or the empty string pins the scalar reference path for the
//! whole process (read once, at first kernel call). [`backend_name`]
//! reports which path was selected, so the benchmark and tests can
//! assert or log the active backend.
//!
//! The `_range` variants accept arbitrary `lo`/`hi` offsets: DDC's
//! early-termination scans resume from whatever split point the previous
//! `Δd` block ended at, so SIMD paths use unaligned loads and handle
//! ragged tails of any length (including empty ranges).
//!
//! # Accuracy contract
//!
//! SIMD backends reassociate the reduction (lane-parallel partial sums,
//! FMA contraction), so results may differ from the scalar path in the
//! final bits. The guaranteed bound — enforced by the
//! `simd_equivalence` property suite — is
//!
//! > `|simd − scalar| ≤ 4 · ε_f32 · Σ|termᵢ|`
//!
//! i.e. within 4 units in the last place *of the magnitude of the
//! accumulated terms* (`termᵢ = (aᵢ−bᵢ)²` for [`l2_sq`], `aᵢ·bᵢ` for
//! [`dot`], `wᵢ·(aᵢ−bᵢ)²` for [`wl2_sq`], and each of the three sums of
//! [`cosine_parts`] independently). Non-finite inputs propagate
//! identically in kind: a NaN
//! anywhere in the scanned range yields NaN from every backend, and
//! overflow to ±∞ yields the same infinity. Empty ranges (`lo == hi`)
//! return exactly `0.0` from every backend.

pub mod scalar;

mod dispatch;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "aarch64")]
mod neon;

pub use dispatch::backend_name;

use dispatch::table;

/// Squared Euclidean distance `‖a - b‖²` over full vectors.
///
/// # Panics
/// Panics if the slices differ in length. (A hard assert, not a
/// `debug_assert`: the SIMD backends run raw-pointer loops over `a.len()`
/// elements of both operands, so an unchecked length mismatch would read
/// out of bounds in release builds rather than panic like the scalar
/// slice-indexing path did.)
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    (table().l2_sq)(a, b)
}

/// Squared Euclidean distance restricted to dimensions `lo..hi`.
///
/// This is the incremental-scan primitive of ADSampling / DDCres: each call
/// consumes one `Δd` block of the (rotated) vectors. `lo` may land at any
/// offset — SIMD backends use unaligned loads throughout.
#[inline]
pub fn l2_sq_range(a: &[f32], b: &[f32], lo: usize, hi: usize) -> f32 {
    debug_assert!(hi <= a.len() && hi <= b.len() && lo <= hi);
    (table().l2_sq)(&a[lo..hi], &b[lo..hi])
}

/// Inner product `⟨a, b⟩` over full vectors.
///
/// # Panics
/// Panics if the slices differ in length (see [`l2_sq`] for why this is a
/// hard assert).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    (table().dot)(a, b)
}

/// Inner product restricted to dimensions `lo..hi`.
///
/// DDCres accumulates `C2 = 2·⟨x_d, q_d⟩` through this primitive
/// (Algorithm 2, line 3 of the paper).
#[inline]
pub fn dot_range(a: &[f32], b: &[f32], lo: usize, hi: usize) -> f32 {
    debug_assert!(hi <= a.len() && hi <= b.len() && lo <= hi);
    (table().dot)(&a[lo..hi], &b[lo..hi])
}

/// Squared Euclidean norm `‖a‖²`.
#[inline]
pub fn norm_sq(a: &[f32]) -> f32 {
    (table().dot)(a, a)
}

/// Squared norm restricted to dimensions `lo..hi`.
#[inline]
pub fn norm_sq_range(a: &[f32], lo: usize, hi: usize) -> f32 {
    debug_assert!(hi <= a.len() && lo <= hi);
    let a = &a[lo..hi];
    (table().dot)(a, a)
}

/// Fused cosine reduction `(⟨a, b⟩, ‖a‖², ‖b‖²)` over full vectors in a
/// single sweep.
///
/// The dispatch table carries only this triple; the combine into a
/// distance ([`cosine_dist`]) lives here so every backend shares one
/// definition of the zero-vector conventions and the division — which is
/// what lets `simd_equivalence` bound each of the three sums
/// independently.
///
/// # Panics
/// Panics if the slices differ in length (see [`l2_sq`] for why this is a
/// hard assert).
#[inline]
pub fn cosine_parts(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
    assert_eq!(a.len(), b.len());
    (table().cosine_parts)(a, b)
}

/// Cosine *distance* of two full vectors, as the squared chord length
/// `2·(1 − cos θ) = ‖â − b̂‖²` of the normalized pair — i.e. exactly the
/// squared Euclidean distance the L2 machinery would compute over
/// unit-normalized rows, so cosine search reduces to L2 in prepped space.
///
/// Conventions (shared by every backend, and matched by
/// `Metric::prep_into` normalization so prepped-space `l2_sq` agrees):
/// * both vectors zero → `0.0` (a zero row is "identical" to a zero query);
/// * exactly one vector zero → `1.0` (`‖0 − û‖² = 1`);
/// * otherwise `(2 − 2·⟨a,b⟩/√(‖a‖²·‖b‖²))`, clamped below at `0.0` so
///   rounding can't produce a tiny negative distance for parallel vectors.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn cosine_dist(a: &[f32], b: &[f32]) -> f32 {
    let (d, na, nb) = cosine_parts(a, b);
    combine_cosine(d, na, nb)
}

/// The shared combine for [`cosine_dist`]: backend-independent by
/// construction (only the three sums come from the dispatch table).
#[inline]
fn combine_cosine(d: f32, na: f32, nb: f32) -> f32 {
    if na == 0.0 && nb == 0.0 {
        0.0
    } else if na == 0.0 || nb == 0.0 {
        1.0
    } else {
        let dist = 2.0 - 2.0 * d / (na * nb).sqrt();
        // Clamp below at 0 without `f32::max`, which would swallow a NaN
        // instead of propagating it like every other kernel does.
        if dist < 0.0 {
            0.0
        } else {
            dist
        }
    }
}

/// Weighted squared Euclidean distance `Σ wᵢ·(aᵢ − bᵢ)²` over full
/// vectors.
///
/// # Panics
/// Panics unless all three slices have equal length (hard asserts — see
/// [`l2_sq`]).
#[inline]
pub fn wl2_sq(a: &[f32], b: &[f32], w: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), w.len());
    (table().wl2_sq)(a, b, w)
}

/// `out[i] = a[i] - b[i]`.
///
/// Memory-bound; stays scalar (LLVM auto-vectorizes the copy loop) and is
/// not part of the dispatch table.
#[inline]
pub fn sub_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    scalar::sub_into(a, b, out);
}

/// `acc[i] += w * x[i]` (AXPY). Scalar; see [`sub_into`].
#[inline]
pub fn axpy(w: f32, x: &[f32], acc: &mut [f32]) {
    scalar::axpy(w, x, acc);
}

/// `a[i] *= s` in place. Scalar; see [`sub_into`].
#[inline]
pub fn scale(a: &mut [f32], s: f32) {
    scalar::scale(a, s);
}

/// Dense row-major matrix–vector product in `f32`:
/// `out[r] = ⟨mat.row(r), x⟩` for an `rows x dim` matrix.
///
/// This is the query-rotation primitive (`q_D = R·q`), whose `O(D²)` cost
/// the paper measures at ~3% of a high-recall query (§VI-A). Dispatched as
/// one table entry so the per-row inner product inlines into the SIMD
/// backend's row loop (no per-row indirect call).
///
/// # Panics
/// Panics unless `mat.len() == rows·dim`, `x.len() == dim`, and
/// `out.len() == rows` (hard asserts — see [`l2_sq`]).
#[inline]
pub fn matvec_f32(mat: &[f32], rows: usize, dim: usize, x: &[f32], out: &mut [f32]) {
    assert_eq!(mat.len(), rows * dim);
    assert_eq!(x.len(), dim);
    assert_eq!(out.len(), rows);
    (table().matvec)(mat, rows, dim, x, out);
}

/// Number of vectors processed per cache block by [`matvec_batch_f32`].
///
/// `16 · dim · 4` bytes of query data (8 KiB at `dim = 128`) must stay
/// L1-resident while a matrix row streams past; 16 keeps that true for
/// every dimensionality the paper evaluates (`D ≤ 960` → 60 KiB is too
/// big, so the block shrinks implicitly via the chunked loop only in the
/// batch direction — rows always stream).
const MATVEC_BATCH_BLOCK: usize = 16;

/// Dense row-major matrix product against a batch of vectors:
/// `out[b·rows + r] = ⟨mat.row(r), xs[b]⟩` for `b < n`.
///
/// Semantically `n` independent [`matvec_f32`] calls — and **bit-identical**
/// to them, because every backend's `matvec` is defined as a row-wise `dot`
/// over the same dispatched kernel. The win is memory traffic, not
/// arithmetic: the batch is processed in blocks of `MATVEC_BATCH_BLOCK`
/// (16) vectors, and within a block the loop order is row-outer / vector-inner,
/// so each `dim·4`-byte matrix row is streamed from memory once per block
/// instead of once per vector. With a `D×D` rotation bigger than L2 (the
/// per-query `O(D²)` setup cost the paper accounts in §VI-A), this is the
/// difference between reading the matrix `n` times and `⌈n/16⌉` times —
/// the batched-search amortization the benchmark's
/// `linalg.rotate_batch_us_per_query` measures.
///
/// Purely sequential (no threading): callers that want parallelism can
/// split the batch themselves.
///
/// # Panics
/// Panics unless `mat.len() == rows·dim`, `xs.len() == n·dim`, and
/// `out.len() == n·rows` (hard asserts — see [`l2_sq`]).
pub fn matvec_batch_f32(
    mat: &[f32],
    rows: usize,
    dim: usize,
    xs: &[f32],
    n: usize,
    out: &mut [f32],
) {
    assert_eq!(mat.len(), rows * dim);
    assert_eq!(xs.len(), n * dim);
    assert_eq!(out.len(), n * rows);
    let dot = table().dot;
    let mut b0 = 0usize;
    while b0 < n {
        let b1 = (b0 + MATVEC_BATCH_BLOCK).min(n);
        for r in 0..rows {
            let row = &mat[r * dim..(r + 1) * dim];
            for b in b0..b1 {
                out[b * rows + r] = dot(row, &xs[b * dim..(b + 1) * dim]);
            }
        }
        b0 = b1;
    }
}

/// Suffix sums of `w[i] * v[i]²`: `out[k] = Σ_{i>=k} w[i]·v[i]²`, with
/// `out[len] = 0`.
///
/// DDCres precomputes, per query, the residual-error variance
/// `σ(d)² = 4·Σ_{i>=d} λ_i·q_i²` (Eq. 3); this helper produces the suffix
/// table in one backward pass so every incremental level reads it in O(1).
/// Runs in `f64` and is inherently sequential, so it is not dispatched.
pub fn weighted_sq_suffix(v: &[f32], w: &[f32], out: &mut Vec<f64>) {
    debug_assert_eq!(v.len(), w.len());
    out.clear();
    out.resize(v.len() + 1, 0.0);
    for i in (0..v.len()).rev() {
        out[i] = out[i + 1] + f64::from(w[i]) * f64::from(v[i]) * f64::from(v[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_l2(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    fn naive_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn backend_name_is_stable_and_known() {
        let name = backend_name();
        assert!(
            ["scalar", "avx2-fma", "neon"].contains(&name),
            "unexpected backend {name}"
        );
        // Cached: a second call must return the same pointer-identical str.
        assert_eq!(name, backend_name());
    }

    #[test]
    fn l2_matches_naive_various_lengths() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 15, 16, 33, 100, 129] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32) * 0.5 - 3.0).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * i as f32) * 0.01).collect();
            let got = l2_sq(&a, &b);
            let want = naive_l2(&a, &b);
            assert!((got - want).abs() <= 1e-3 * (1.0 + want.abs()), "len={len}");
        }
    }

    #[test]
    fn dot_matches_naive_various_lengths() {
        for len in [0usize, 1, 2, 4, 9, 31, 64, 127] {
            let a: Vec<f32> = (0..len).map(|i| ((i * 7 + 3) % 13) as f32 - 6.0).collect();
            let b: Vec<f32> = (0..len).map(|i| ((i * 5 + 1) % 11) as f32 - 5.0).collect();
            let got = dot(&a, &b);
            let want = naive_dot(&a, &b);
            assert!((got - want).abs() <= 1e-3 * (1.0 + want.abs()), "len={len}");
        }
    }

    #[test]
    fn range_kernels_partition_full_kernels() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32).cos()).collect();
        for split in [0usize, 1, 4, 17, 36, 37] {
            let l2 = l2_sq_range(&a, &b, 0, split) + l2_sq_range(&a, &b, split, 37);
            assert!((l2 - l2_sq(&a, &b)).abs() < 1e-4);
            let d = dot_range(&a, &b, 0, split) + dot_range(&a, &b, split, 37);
            assert!((d - dot(&a, &b)).abs() < 1e-4);
        }
    }

    #[test]
    fn cosine_parts_match_separate_kernels() {
        for len in [0usize, 1, 3, 7, 8, 16, 33, 100] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32).sin() + 0.5).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32).cos() - 0.25).collect();
            let (d, na, nb) = cosine_parts(&a, &b);
            assert!(
                (d - dot(&a, &b)).abs() <= 1e-3 * (1.0 + d.abs()),
                "len={len}"
            );
            assert!(
                (na - norm_sq(&a)).abs() <= 1e-3 * (1.0 + na.abs()),
                "len={len}"
            );
            assert!(
                (nb - norm_sq(&b)).abs() <= 1e-3 * (1.0 + nb.abs()),
                "len={len}"
            );
        }
    }

    #[test]
    fn cosine_dist_conventions() {
        // Both zero → 0; one zero → 1; parallel → 0; antiparallel → 4;
        // orthogonal → 2. Distances are squared chord lengths.
        let z = [0.0f32; 4];
        let u = [3.0f32, 0.0, 0.0, 0.0];
        let v = [0.0f32, 5.0, 0.0, 0.0];
        assert_eq!(cosine_dist(&z, &z), 0.0);
        assert_eq!(cosine_dist(&z, &u), 1.0);
        assert_eq!(cosine_dist(&u, &z), 1.0);
        assert_eq!(cosine_dist(&u, &u), 0.0); // clamped at 0, scale-free
        let neg = [-6.0f32, 0.0, 0.0, 0.0];
        assert!((cosine_dist(&u, &neg) - 4.0).abs() < 1e-6);
        assert!((cosine_dist(&u, &v) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_dist_is_scale_invariant() {
        let a: Vec<f32> = (0..29).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..29).map(|i| (i as f32 * 0.7).cos()).collect();
        let a2: Vec<f32> = a.iter().map(|x| x * 17.5).collect();
        let d1 = cosine_dist(&a, &b);
        let d2 = cosine_dist(&a2, &b);
        assert!((d1 - d2).abs() < 1e-5, "{d1} vs {d2}");
    }

    #[test]
    fn wl2_matches_naive_various_lengths() {
        for len in [0usize, 1, 3, 4, 5, 8, 15, 33, 100] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32) * 0.5 - 3.0).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * i as f32) * 0.01).collect();
            let w: Vec<f32> = (0..len).map(|i| ((i % 5) as f32) * 0.3 + 0.1).collect();
            let got = wl2_sq(&a, &b, &w);
            let want: f32 = a
                .iter()
                .zip(&b)
                .zip(&w)
                .map(|((x, y), wi)| wi * (x - y) * (x - y))
                .sum();
            assert!((got - want).abs() <= 1e-3 * (1.0 + want.abs()), "len={len}");
        }
    }

    #[test]
    fn wl2_with_unit_weights_is_l2() {
        let a: Vec<f32> = (0..41).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..41).map(|i| (i as f32).cos()).collect();
        let w = vec![1.0f32; 41];
        assert!((wl2_sq(&a, &b, &w) - l2_sq(&a, &b)).abs() < 1e-5);
    }

    #[test]
    fn l2_is_zero_on_identical_vectors() {
        let a: Vec<f32> = (0..19).map(|i| i as f32 * 1.25).collect();
        assert_eq!(l2_sq(&a, &a), 0.0);
    }

    #[test]
    fn norm_sq_is_self_dot() {
        let a = [1.0f32, -2.0, 3.0];
        assert!((norm_sq(&a) - 14.0).abs() < 1e-6);
        assert!((norm_sq_range(&a, 1, 3) - 13.0).abs() < 1e-6);
    }

    #[test]
    fn sub_axpy_scale() {
        let a = [3.0f32, 4.0, 5.0];
        let b = [1.0f32, 1.0, 1.0];
        let mut out = [0.0f32; 3];
        sub_into(&a, &b, &mut out);
        assert_eq!(out, [2.0, 3.0, 4.0]);
        axpy(2.0, &b, &mut out);
        assert_eq!(out, [4.0, 5.0, 6.0]);
        scale(&mut out, 0.5);
        assert_eq!(out, [2.0, 2.5, 3.0]);
    }

    #[test]
    fn matvec_identity() {
        let dim = 5;
        let mut eye = vec![0.0f32; dim * dim];
        for i in 0..dim {
            eye[i * dim + i] = 1.0;
        }
        let x: Vec<f32> = (0..dim).map(|i| i as f32 - 2.0).collect();
        let mut out = vec![0.0f32; dim];
        matvec_f32(&eye, dim, dim, &x, &mut out);
        assert_eq!(out, x);
    }

    #[test]
    fn matvec_rectangular() {
        // 2x3 matrix times length-3 vector.
        let m = [1.0f32, 0.0, 2.0, 0.0, 1.0, -1.0];
        let x = [3.0f32, 4.0, 5.0];
        let mut out = [0.0f32; 2];
        matvec_f32(&m, 2, 3, &x, &mut out);
        assert_eq!(out, [13.0, -1.0]);
    }

    #[test]
    fn suffix_sums_match_naive() {
        let v = [1.0f32, 2.0, 3.0];
        let w = [0.5f32, 1.0, 2.0];
        let mut out = Vec::new();
        weighted_sq_suffix(&v, &w, &mut out);
        // naive: [0.5*1 + 1*4 + 2*9, 1*4 + 2*9, 2*9, 0]
        let want = [22.5f64, 22.0, 18.0, 0.0];
        for (g, w_) in out.iter().zip(want.iter()) {
            assert!((g - w_).abs() < 1e-9);
        }
    }

    #[test]
    fn suffix_sums_reuse_buffer() {
        let mut out = vec![99.0f64; 10];
        weighted_sq_suffix(&[1.0], &[1.0], &mut out);
        assert_eq!(out.len(), 2);
        assert!((out[0] - 1.0).abs() < 1e-12);
        assert_eq!(out[1], 0.0);
    }
}
