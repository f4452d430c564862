//! The scalar reference backend: the exact kernels the paper's cost model
//! assumes (§VII-A evaluates with SIMD disabled).
//!
//! Plain loops written so LLVM can auto-vectorize them — 4-way unrolled
//! independent accumulators, no early exits — with no `std::arch`
//! intrinsics. This module is always compiled on every architecture and is
//! the ground truth the `simd_equivalence` property suite compares the
//! SIMD backends against. It is reachable three ways:
//!
//! * directly, through these public functions (the equivalence suite pins
//!   it this way);
//! * via dispatch on hardware without a SIMD backend;
//! * via dispatch when `DDC_FORCE_SCALAR` is set (how CI keeps this path
//!   exercised end to end).
//!
//! Functions here take pre-sliced operands: the `lo..hi` windowing of the
//! public `_range` API happens in the parent module, so every backend sees
//! the same contiguous-slice contract.

/// Squared Euclidean distance `‖a - b‖²` of two equal-length slices.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for i in 0..chunks {
        let j = i * 4;
        let d0 = a[j] - b[j];
        let d1 = a[j + 1] - b[j + 1];
        let d2 = a[j + 2] - b[j + 2];
        let d3 = a[j + 3] - b[j + 3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    let mut tail = 0.0f32;
    for j in chunks * 4..a.len() {
        let d = a[j] - b[j];
        tail += d * d;
    }
    s0 + s1 + s2 + s3 + tail
}

/// Inner product `⟨a, b⟩` of two equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    let mut tail = 0.0f32;
    for j in chunks * 4..a.len() {
        tail += a[j] * b[j];
    }
    s0 + s1 + s2 + s3 + tail
}

/// Squared Euclidean distance restricted to dimensions `lo..hi`, on the
/// scalar path regardless of the dispatched backend.
#[inline]
pub fn l2_sq_range(a: &[f32], b: &[f32], lo: usize, hi: usize) -> f32 {
    debug_assert!(hi <= a.len() && hi <= b.len() && lo <= hi);
    l2_sq(&a[lo..hi], &b[lo..hi])
}

/// Inner product restricted to dimensions `lo..hi`, on the scalar path
/// regardless of the dispatched backend.
#[inline]
pub fn dot_range(a: &[f32], b: &[f32], lo: usize, hi: usize) -> f32 {
    debug_assert!(hi <= a.len() && hi <= b.len() && lo <= hi);
    dot(&a[lo..hi], &b[lo..hi])
}

/// Squared Euclidean norm `‖a‖²` on the scalar path.
#[inline]
pub fn norm_sq(a: &[f32]) -> f32 {
    dot(a, a)
}

/// Squared norm restricted to dimensions `lo..hi` on the scalar path.
#[inline]
pub fn norm_sq_range(a: &[f32], lo: usize, hi: usize) -> f32 {
    dot_range(a, a, lo, hi)
}

/// Fused one-pass reduction for cosine distance: returns
/// `(⟨a, b⟩, ‖a‖², ‖b‖²)` in a single sweep over the operands.
#[inline]
pub fn cosine_parts(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / 2;
    let (mut d0, mut d1) = (0.0f32, 0.0f32);
    let (mut na0, mut na1) = (0.0f32, 0.0f32);
    let (mut nb0, mut nb1) = (0.0f32, 0.0f32);
    for i in 0..chunks {
        let j = i * 2;
        d0 += a[j] * b[j];
        d1 += a[j + 1] * b[j + 1];
        na0 += a[j] * a[j];
        na1 += a[j + 1] * a[j + 1];
        nb0 += b[j] * b[j];
        nb1 += b[j + 1] * b[j + 1];
    }
    let (mut dt, mut nat, mut nbt) = (0.0f32, 0.0f32, 0.0f32);
    for j in chunks * 2..a.len() {
        dt += a[j] * b[j];
        nat += a[j] * a[j];
        nbt += b[j] * b[j];
    }
    (d0 + d1 + dt, na0 + na1 + nat, nb0 + nb1 + nbt)
}

/// Weighted squared Euclidean distance `Σ wᵢ·(aᵢ − bᵢ)²` on the scalar
/// path.
#[inline]
pub fn wl2_sq(a: &[f32], b: &[f32], w: &[f32]) -> f32 {
    debug_assert!(a.len() == b.len() && a.len() == w.len());
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for i in 0..chunks {
        let j = i * 4;
        let d0 = a[j] - b[j];
        let d1 = a[j + 1] - b[j + 1];
        let d2 = a[j + 2] - b[j + 2];
        let d3 = a[j + 3] - b[j + 3];
        s0 += w[j] * d0 * d0;
        s1 += w[j + 1] * d1 * d1;
        s2 += w[j + 2] * d2 * d2;
        s3 += w[j + 3] * d3 * d3;
    }
    let mut tail = 0.0f32;
    for j in chunks * 4..a.len() {
        let d = a[j] - b[j];
        tail += w[j] * d * d;
    }
    s0 + s1 + s2 + s3 + tail
}

/// `out[i] = a[i] - b[i]`.
#[inline]
pub fn sub_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert!(a.len() == b.len() && a.len() == out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

/// `acc[i] += w * x[i]` (AXPY).
#[inline]
pub fn axpy(w: f32, x: &[f32], acc: &mut [f32]) {
    debug_assert_eq!(x.len(), acc.len());
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += w * v;
    }
}

/// `a[i] *= s` in place.
#[inline]
pub fn scale(a: &mut [f32], s: f32) {
    for v in a {
        *v *= s;
    }
}

/// Dense row-major matrix–vector product on the scalar path:
/// `out[r] = ⟨mat.row(r), x⟩` for an `rows x dim` matrix.
#[inline]
pub fn matvec_f32(mat: &[f32], rows: usize, dim: usize, x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(mat.len(), rows * dim);
    debug_assert_eq!(x.len(), dim);
    debug_assert_eq!(out.len(), rows);
    for (r, o) in out.iter_mut().enumerate() {
        *o = dot(&mat[r * dim..(r + 1) * dim], x);
    }
}
