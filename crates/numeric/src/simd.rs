//! Runtime-dispatched SIMD backend for the panel kernels.
//!
//! The batched engines spend almost all of their time in three loop shapes:
//! the per-lane-bias affine step behind [`crate::affine_panel_bias_apply_elem`]
//! (the thermal transition of every micro-step), the leakage-current spans of
//! the power model, and elementwise `out = base + coef ⊙ cur` assembly spans.
//! This module provides explicit AVX2 implementations of those shapes (4 f64
//! or 8 f32 per 256-bit vector) on x86-64, plus the f64 broadcast-bias
//! [`crate::affine_pair_apply`] the batched predictor runs. The arm is
//! selected **once** per process by [`PanelKernel::active`]; every other host
//! runs the portable blocked scalar code.
//!
//! # Kernel dispatch
//!
//! [`PanelKernel::active`] picks AVX2 when the host supports it, probed at
//! first use via `is_x86_feature_detected!` and cached for the life of the
//! process. The [`KERNEL_ENV`] environment variable (`DTPM_PANEL_KERNEL`)
//! overrides the choice for testing: `scalar` forces the portable path,
//! `avx2` demands the vector path (panicking if the host cannot run it), and
//! `auto` (or unset) keeps the probe. Every dispatched entry point also has a
//! `*_with` form taking an explicit [`PanelKernel`], which the equivalence
//! suites and benchmarks use to compare arms inside one process; a `*_with`
//! call requesting an unavailable kernel safely degrades to scalar.
//!
//! # Bit-identical arms
//!
//! The AVX2 arm performs, per lane, the *same sequence of IEEE-754 multiplies
//! and adds* as the blocked scalar kernels (vector lanes are independent, so
//! elementwise vector ops round exactly like their scalar counterparts). A
//! lane's result is therefore bit-identical no matter which arm processed it
//! — the existing scalar-vs-batched equivalence suites double as the SIMD
//! oracle.

use std::sync::OnceLock;

use crate::Elem;

/// Environment variable overriding [`PanelKernel::active`]: `auto` (default),
/// `scalar` or `avx2`.
pub const KERNEL_ENV: &str = "DTPM_PANEL_KERNEL";

/// The SIMD arm the panel kernels dispatch through.
///
/// Both variants exist on every architecture (so dispatch code can name them
/// unconditionally); [`PanelKernel::is_available`] reports whether the
/// current host can actually run one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelKernel {
    /// 256-bit AVX2 path on x86-64: 4 f64 or 8 f32 per vector.
    Avx2Fma,
    /// The portable blocked scalar path — always available, and the
    /// reference the vector arm is held bit-identical to.
    Scalar,
}

impl PanelKernel {
    /// The widest kernel this host supports.
    pub fn detect() -> Self {
        if Self::Avx2Fma.is_available() {
            Self::Avx2Fma
        } else {
            Self::Scalar
        }
    }

    /// Whether this host can run the kernel.
    pub fn is_available(self) -> bool {
        match self {
            Self::Scalar => true,
            Self::Avx2Fma => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    /// The process-wide kernel every dispatched entry point uses: probed once
    /// at first use, honouring the [`KERNEL_ENV`] override (see the module
    /// docs).
    ///
    /// # Panics
    ///
    /// Panics (on first use) if [`KERNEL_ENV`] names an unknown kernel or one
    /// this host cannot run — the override is a testing knob, and silently
    /// ignoring it would un-test the arm it asked for.
    pub fn active() -> Self {
        static ACTIVE: OnceLock<PanelKernel> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            Self::select_from(std::env::var(KERNEL_ENV).ok().as_deref(), Self::detect())
        })
    }

    /// The pure resolution step behind [`PanelKernel::active`]: maps a raw
    /// [`KERNEL_ENV`] value (`None` = unset) to a kernel, given the host
    /// probe's result `detected` (the widest kernel the host can run). Both
    /// inputs are parameters so the diagnostics are unit-testable without
    /// racing on process-global environment state, and on any host.
    ///
    /// # Panics
    ///
    /// Panics on an unknown or unavailable kernel name; the message lists the
    /// valid names and what the probe detected on this host, so a typo'd or
    /// mistargeted override is diagnosable from the panic alone.
    fn select_from(raw: Option<&str>, detected: Self) -> Self {
        const VALID: &str = "valid values are auto, scalar and avx2 (aliases avx2fma, avx2-fma)";
        let Some(raw) = raw else {
            return detected;
        };
        let kernel = match raw.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => return detected,
            "scalar" => Self::Scalar,
            "avx2" | "avx2fma" | "avx2-fma" => Self::Avx2Fma,
            other => panic!(
                "{KERNEL_ENV}={other:?} is not a known panel kernel: {VALID}; \
                 the probe detected `{detected}` on this host",
                detected = detected.name()
            ),
        };
        assert!(
            kernel == Self::Scalar || kernel == detected,
            "{KERNEL_ENV} requested the `{name}` kernel, which this host cannot run: \
             {VALID}; the probe detected `{detected}` on this host",
            name = kernel.name(),
            detected = detected.name()
        );
        kernel
    }

    /// Short lower-case name (as accepted by [`KERNEL_ENV`]).
    pub fn name(self) -> &'static str {
        match self {
            Self::Avx2Fma => "avx2",
            Self::Scalar => "scalar",
        }
    }
}

/// The panel kernels' per-element accumulate step `acc + a·x`.
///
/// Plain multiply-then-add, never fused. Scalar twins of the batched paths
/// (the thermal transition applies, the horizon-map prediction) accumulate
/// through this same primitive, which is what keeps them bit-identical to
/// the panel kernels.
#[inline(always)]
pub fn madd(a: f64, x: f64, acc: f64) -> f64 {
    acc + a * x
}

/// The panel kernels' fused two-term accumulate step `acc + a·x + b·y`
/// (see [`madd`]): one expression per index, `a`-term before `b`-term.
#[inline(always)]
pub fn madd2(a: f64, x: f64, b: f64, y: f64, acc: f64) -> f64 {
    acc + (a * x + b * y)
}

/// The `f32` twin of [`madd`]: `acc + a·x` in single precision. The
/// mixed-precision panel paths accumulate through this primitive so their
/// scalar and vector arms round identically per lane.
#[inline(always)]
pub fn madd_f32(a: f32, x: f32, acc: f32) -> f32 {
    acc + a * x
}

/// The `f32` twin of [`madd2`]: `acc + a·x + b·y` in single precision
/// (`a`-term before `b`-term).
#[inline(always)]
pub fn madd2_f32(a: f32, x: f32, b: f32, y: f32, acc: f32) -> f32 {
    acc + (a * x + b * y)
}

/// Elementwise fused span `out[k] = base[k] + coef[k] · cur[k]` at either
/// panel width, dispatched through [`PanelKernel::active`] — the batched
/// plants' per-micro-step power-assembly kernel. At `f32` every vector
/// carries twice the lanes of the `f64` path.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn fused_mul_add_span<E: Elem>(base: &[E], coef: &[E], cur: &[E], out: &mut [E]) {
    fused_mul_add_span_with(PanelKernel::active(), base, coef, cur, out);
}

/// [`fused_mul_add_span`] through an explicit kernel arm (testing/benching
/// form; an unavailable kernel degrades to scalar).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn fused_mul_add_span_with<E: Elem>(
    kernel: PanelKernel,
    base: &[E],
    coef: &[E],
    cur: &[E],
    out: &mut [E],
) {
    let len = out.len();
    assert!(
        base.len() == len && coef.len() == len && cur.len() == len,
        "fused span slices must agree in length"
    );
    if E::fused_span(kernel, base, coef, cur, out) {
        return;
    }
    for k in 0..len {
        out[k] = E::madd(coef[k], cur[k], base[k]);
    }
}

/// AVX2 (x86-64) arm: 256-bit vectors of 4 f64 (a [`crate::LANE_CHUNK`] of
/// 8 lanes as a low/high vector pair) or 8 f32 (one vector per chunk), with
/// the same operation order as the scalar [`madd`] / [`madd2`] primitives
/// and their f32 twins, so every lane rounds identically.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use core::arch::x86_64::{
        __m256, __m256d, _mm256_add_pd, _mm256_add_ps, _mm256_loadu_pd, _mm256_loadu_ps,
        _mm256_mul_pd, _mm256_mul_ps, _mm256_set1_pd, _mm256_set1_ps, _mm256_storeu_pd,
        _mm256_storeu_ps,
    };

    use crate::panel::LANE_CHUNK;

    /// `acc + a·x` per lane, rounding exactly like [`crate::simd::madd`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn vmadd(a: __m256d, x: __m256d, acc: __m256d) -> __m256d {
        _mm256_add_pd(acc, _mm256_mul_pd(a, x))
    }

    /// `acc + a·x + b·y` per lane, rounding exactly like
    /// [`crate::simd::madd2`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn vmadd2(a: __m256d, x: __m256d, b: __m256d, y: __m256d, acc: __m256d) -> __m256d {
        _mm256_add_pd(acc, _mm256_add_pd(_mm256_mul_pd(a, x), _mm256_mul_pd(b, y)))
    }

    /// Rows handled per register-blocked pass: 8 vector accumulators (4 rows
    /// × a low/high pair) leave half the register file for operands.
    const ROW_BLOCK: usize = 4;

    /// Affine-pair panel step over the full lane chunks `[0, full)`:
    /// `out = bias ⊗ 1ᵀ + a·x + b·y`, row-blocked so each loaded input row
    /// is applied to [`ROW_BLOCK`] output rows.
    ///
    /// # Safety
    ///
    /// AVX2 must be available. `a` and `b` must cover `m × n` (row-major),
    /// `x` and `y` `n × lanes`, `out` `m × lanes`, `bias` `m`; `full` must be
    /// a multiple of [`LANE_CHUNK`] and ≤ `lanes`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn affine_chunks(
        a: &[f64],
        b: &[f64],
        bias: &[f64],
        x: &[f64],
        y: &[f64],
        out: &mut [f64],
        m: usize,
        n: usize,
        lanes: usize,
        full: usize,
    ) {
        debug_assert!(full <= lanes && full.is_multiple_of(LANE_CHUNK));
        debug_assert!(a.len() >= m * n && b.len() >= m * n && bias.len() >= m);
        debug_assert!(x.len() >= n * lanes && y.len() >= n * lanes && out.len() >= m * lanes);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let op = out.as_mut_ptr();
        let mut off = 0;
        while off < full {
            let mut i = 0;
            while i + ROW_BLOCK <= m {
                let mut acc = [[_mm256_set1_pd(0.0); 2]; ROW_BLOCK];
                for (r, slot) in acc.iter_mut().enumerate() {
                    let bv = _mm256_set1_pd(bias[i + r]);
                    *slot = [bv, bv];
                }
                for j in 0..n {
                    let xl = _mm256_loadu_pd(xp.add(j * lanes + off));
                    let xh = _mm256_loadu_pd(xp.add(j * lanes + off + 4));
                    let yl = _mm256_loadu_pd(yp.add(j * lanes + off));
                    let yh = _mm256_loadu_pd(yp.add(j * lanes + off + 4));
                    for (r, slot) in acc.iter_mut().enumerate() {
                        let va = _mm256_set1_pd(*ap.add((i + r) * n + j));
                        let vb = _mm256_set1_pd(*bp.add((i + r) * n + j));
                        slot[0] = vmadd2(va, xl, vb, yl, slot[0]);
                        slot[1] = vmadd2(va, xh, vb, yh, slot[1]);
                    }
                }
                for (r, slot) in acc.iter().enumerate() {
                    _mm256_storeu_pd(op.add((i + r) * lanes + off), slot[0]);
                    _mm256_storeu_pd(op.add((i + r) * lanes + off + 4), slot[1]);
                }
                i += ROW_BLOCK;
            }
            while i < m {
                let bv = _mm256_set1_pd(bias[i]);
                let mut accl = bv;
                let mut acch = bv;
                for j in 0..n {
                    let va = _mm256_set1_pd(*ap.add(i * n + j));
                    let vb = _mm256_set1_pd(*bp.add(i * n + j));
                    let xl = _mm256_loadu_pd(xp.add(j * lanes + off));
                    let xh = _mm256_loadu_pd(xp.add(j * lanes + off + 4));
                    let yl = _mm256_loadu_pd(yp.add(j * lanes + off));
                    let yh = _mm256_loadu_pd(yp.add(j * lanes + off + 4));
                    accl = vmadd2(va, xl, vb, yl, accl);
                    acch = vmadd2(va, xh, vb, yh, acch);
                }
                _mm256_storeu_pd(op.add(i * lanes + off), accl);
                _mm256_storeu_pd(op.add(i * lanes + off + 4), acch);
                i += 1;
            }
            off += LANE_CHUNK;
        }
    }

    /// [`affine_chunks`] with a per-lane bias *panel* (`m × lanes`, same
    /// layout as `out`): `out = bias + a·x + b·y`. Accumulator init is a
    /// plain vector load of the bias row instead of a broadcast, so a
    /// constant per-lane drive term fuses into the transition apply rather
    /// than costing a separate read-modify-write pass over the output panel.
    ///
    /// # Safety
    ///
    /// As for [`affine_chunks`], with `bias` covering `m × lanes`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn affine_panel_chunks(
        a: &[f64],
        b: &[f64],
        bias: &[f64],
        x: &[f64],
        y: &[f64],
        out: &mut [f64],
        m: usize,
        n: usize,
        lanes: usize,
        full: usize,
    ) {
        debug_assert!(full <= lanes && full.is_multiple_of(LANE_CHUNK));
        debug_assert!(a.len() >= m * n && b.len() >= m * n && bias.len() >= m * lanes);
        debug_assert!(x.len() >= n * lanes && y.len() >= n * lanes && out.len() >= m * lanes);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = bias.as_ptr();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let op = out.as_mut_ptr();
        let mut off = 0;
        while off < full {
            let mut i = 0;
            while i + ROW_BLOCK <= m {
                let mut acc = [[_mm256_set1_pd(0.0); 2]; ROW_BLOCK];
                for (r, slot) in acc.iter_mut().enumerate() {
                    slot[0] = _mm256_loadu_pd(cp.add((i + r) * lanes + off));
                    slot[1] = _mm256_loadu_pd(cp.add((i + r) * lanes + off + 4));
                }
                for j in 0..n {
                    let xl = _mm256_loadu_pd(xp.add(j * lanes + off));
                    let xh = _mm256_loadu_pd(xp.add(j * lanes + off + 4));
                    let yl = _mm256_loadu_pd(yp.add(j * lanes + off));
                    let yh = _mm256_loadu_pd(yp.add(j * lanes + off + 4));
                    for (r, slot) in acc.iter_mut().enumerate() {
                        let va = _mm256_set1_pd(*ap.add((i + r) * n + j));
                        let vb = _mm256_set1_pd(*bp.add((i + r) * n + j));
                        slot[0] = vmadd2(va, xl, vb, yl, slot[0]);
                        slot[1] = vmadd2(va, xh, vb, yh, slot[1]);
                    }
                }
                for (r, slot) in acc.iter().enumerate() {
                    _mm256_storeu_pd(op.add((i + r) * lanes + off), slot[0]);
                    _mm256_storeu_pd(op.add((i + r) * lanes + off + 4), slot[1]);
                }
                i += ROW_BLOCK;
            }
            while i < m {
                let mut accl = _mm256_loadu_pd(cp.add(i * lanes + off));
                let mut acch = _mm256_loadu_pd(cp.add(i * lanes + off + 4));
                for j in 0..n {
                    let va = _mm256_set1_pd(*ap.add(i * n + j));
                    let vb = _mm256_set1_pd(*bp.add(i * n + j));
                    let xl = _mm256_loadu_pd(xp.add(j * lanes + off));
                    let xh = _mm256_loadu_pd(xp.add(j * lanes + off + 4));
                    let yl = _mm256_loadu_pd(yp.add(j * lanes + off));
                    let yh = _mm256_loadu_pd(yp.add(j * lanes + off + 4));
                    accl = vmadd2(va, xl, vb, yl, accl);
                    acch = vmadd2(va, xh, vb, yh, acch);
                }
                _mm256_storeu_pd(op.add(i * lanes + off), accl);
                _mm256_storeu_pd(op.add(i * lanes + off + 4), acch);
                i += 1;
            }
            off += LANE_CHUNK;
        }
    }

    /// Elementwise `out[k] = base[k] + coef[k] · cur[k]` (vector body plus a
    /// scalar tail that rounds identically).
    ///
    /// # Safety
    ///
    /// AVX2 must be available; the slices
    /// must agree in length (checked by the dispatching caller).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn fused_mul_add_span(
        base: &[f64],
        coef: &[f64],
        cur: &[f64],
        out: &mut [f64],
    ) {
        let len = out.len();
        let mut k = 0;
        while k + 4 <= len {
            let v = vmadd(
                _mm256_loadu_pd(coef.as_ptr().add(k)),
                _mm256_loadu_pd(cur.as_ptr().add(k)),
                _mm256_loadu_pd(base.as_ptr().add(k)),
            );
            _mm256_storeu_pd(out.as_mut_ptr().add(k), v);
            k += 4;
        }
        while k < len {
            out[k] = crate::simd::madd(coef[k], cur[k], base[k]);
            k += 1;
        }
    }

    // ---- f32 arms: 8 single-precision lanes per 256-bit vector, so one ----
    // ---- vector covers a whole LANE_CHUNK — twice the f64 throughput.  ----

    /// `acc + a·x` per f32 lane, rounding exactly like
    /// [`crate::simd::madd_f32`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn vmadd_f32(a: __m256, x: __m256, acc: __m256) -> __m256 {
        _mm256_add_ps(acc, _mm256_mul_ps(a, x))
    }

    /// `acc + a·x + b·y` per f32 lane, rounding exactly like
    /// [`crate::simd::madd2_f32`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn vmadd2_f32(a: __m256, x: __m256, b: __m256, y: __m256, acc: __m256) -> __m256 {
        _mm256_add_ps(acc, _mm256_add_ps(_mm256_mul_ps(a, x), _mm256_mul_ps(b, y)))
    }

    /// The f32 [`affine_panel_chunks`]: one 8-lane vector per [`LANE_CHUNK`]
    /// chunk, [`ROW_BLOCK`] output rows per pass, accumulators initialised by
    /// vector loads of the `m × lanes` bias panel.
    ///
    /// # Safety
    ///
    /// As for [`affine_panel_chunks`], with every slice in f32.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn affine_panel_chunks_f32(
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        x: &[f32],
        y: &[f32],
        out: &mut [f32],
        m: usize,
        n: usize,
        lanes: usize,
        full: usize,
    ) {
        debug_assert!(full <= lanes && full.is_multiple_of(LANE_CHUNK));
        debug_assert!(a.len() >= m * n && b.len() >= m * n && bias.len() >= m * lanes);
        debug_assert!(x.len() >= n * lanes && y.len() >= n * lanes && out.len() >= m * lanes);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = bias.as_ptr();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let op = out.as_mut_ptr();
        let mut off = 0;
        // Two-chunk pass: each coefficient broadcast feeds both chunks'
        // multiply-adds, halving the broadcast traffic that dominates this
        // kernel at narrow panel widths (at 16 f32 lanes a row is just two
        // vectors, so per-chunk broadcasting would re-load every `a`/`b`
        // entry twice).
        // Per-lane operation order is untouched — a lane still sees bias,
        // then the `a`-term before the `b`-term for each `j` in order.
        while off + 2 * LANE_CHUNK <= full {
            let mut i = 0;
            while i + ROW_BLOCK <= m {
                let mut acc0 = [_mm256_set1_ps(0.0); ROW_BLOCK];
                let mut acc1 = [_mm256_set1_ps(0.0); ROW_BLOCK];
                for r in 0..ROW_BLOCK {
                    acc0[r] = _mm256_loadu_ps(cp.add((i + r) * lanes + off));
                    acc1[r] = _mm256_loadu_ps(cp.add((i + r) * lanes + off + LANE_CHUNK));
                }
                for j in 0..n {
                    let xv0 = _mm256_loadu_ps(xp.add(j * lanes + off));
                    let xv1 = _mm256_loadu_ps(xp.add(j * lanes + off + LANE_CHUNK));
                    let yv0 = _mm256_loadu_ps(yp.add(j * lanes + off));
                    let yv1 = _mm256_loadu_ps(yp.add(j * lanes + off + LANE_CHUNK));
                    for r in 0..ROW_BLOCK {
                        let va = _mm256_set1_ps(*ap.add((i + r) * n + j));
                        let vb = _mm256_set1_ps(*bp.add((i + r) * n + j));
                        acc0[r] = vmadd2_f32(va, xv0, vb, yv0, acc0[r]);
                        acc1[r] = vmadd2_f32(va, xv1, vb, yv1, acc1[r]);
                    }
                }
                for r in 0..ROW_BLOCK {
                    _mm256_storeu_ps(op.add((i + r) * lanes + off), acc0[r]);
                    _mm256_storeu_ps(op.add((i + r) * lanes + off + LANE_CHUNK), acc1[r]);
                }
                i += ROW_BLOCK;
            }
            while i < m {
                let mut acc0 = _mm256_loadu_ps(cp.add(i * lanes + off));
                let mut acc1 = _mm256_loadu_ps(cp.add(i * lanes + off + LANE_CHUNK));
                for j in 0..n {
                    let va = _mm256_set1_ps(*ap.add(i * n + j));
                    let vb = _mm256_set1_ps(*bp.add(i * n + j));
                    let xv0 = _mm256_loadu_ps(xp.add(j * lanes + off));
                    let xv1 = _mm256_loadu_ps(xp.add(j * lanes + off + LANE_CHUNK));
                    let yv0 = _mm256_loadu_ps(yp.add(j * lanes + off));
                    let yv1 = _mm256_loadu_ps(yp.add(j * lanes + off + LANE_CHUNK));
                    acc0 = vmadd2_f32(va, xv0, vb, yv0, acc0);
                    acc1 = vmadd2_f32(va, xv1, vb, yv1, acc1);
                }
                _mm256_storeu_ps(op.add(i * lanes + off), acc0);
                _mm256_storeu_ps(op.add(i * lanes + off + LANE_CHUNK), acc1);
                i += 1;
            }
            off += 2 * LANE_CHUNK;
        }
        while off < full {
            let mut i = 0;
            while i + ROW_BLOCK <= m {
                let mut acc = [_mm256_set1_ps(0.0); ROW_BLOCK];
                for (r, slot) in acc.iter_mut().enumerate() {
                    *slot = _mm256_loadu_ps(cp.add((i + r) * lanes + off));
                }
                for j in 0..n {
                    let xv = _mm256_loadu_ps(xp.add(j * lanes + off));
                    let yv = _mm256_loadu_ps(yp.add(j * lanes + off));
                    for (r, slot) in acc.iter_mut().enumerate() {
                        let va = _mm256_set1_ps(*ap.add((i + r) * n + j));
                        let vb = _mm256_set1_ps(*bp.add((i + r) * n + j));
                        *slot = vmadd2_f32(va, xv, vb, yv, *slot);
                    }
                }
                for (r, slot) in acc.iter().enumerate() {
                    _mm256_storeu_ps(op.add((i + r) * lanes + off), *slot);
                }
                i += ROW_BLOCK;
            }
            while i < m {
                let mut acc = _mm256_loadu_ps(cp.add(i * lanes + off));
                for j in 0..n {
                    let va = _mm256_set1_ps(*ap.add(i * n + j));
                    let vb = _mm256_set1_ps(*bp.add(i * n + j));
                    let xv = _mm256_loadu_ps(xp.add(j * lanes + off));
                    let yv = _mm256_loadu_ps(yp.add(j * lanes + off));
                    acc = vmadd2_f32(va, xv, vb, yv, acc);
                }
                _mm256_storeu_ps(op.add(i * lanes + off), acc);
                i += 1;
            }
            off += LANE_CHUNK;
        }
    }

    /// The f32 [`fused_mul_add_span`]: 8-wide vector body plus a scalar tail
    /// that rounds identically.
    ///
    /// # Safety
    ///
    /// AVX2 must be available; the slices
    /// must agree in length (checked by the dispatching caller).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn fused_mul_add_span_f32(
        base: &[f32],
        coef: &[f32],
        cur: &[f32],
        out: &mut [f32],
    ) {
        let len = out.len();
        let mut k = 0;
        while k + 8 <= len {
            let v = vmadd_f32(
                _mm256_loadu_ps(coef.as_ptr().add(k)),
                _mm256_loadu_ps(cur.as_ptr().add(k)),
                _mm256_loadu_ps(base.as_ptr().add(k)),
            );
            _mm256_storeu_ps(out.as_mut_ptr().add(k), v);
            k += 8;
        }
        while k < len {
            out[k] = crate::simd::madd_f32(coef[k], cur[k], base[k]);
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_returns_an_available_kernel() {
        assert!(PanelKernel::detect().is_available());
        assert!(PanelKernel::Scalar.is_available());
    }

    #[test]
    fn active_is_available() {
        assert!(PanelKernel::active().is_available());
    }

    #[test]
    fn names_round_trip() {
        for k in [PanelKernel::Avx2Fma, PanelKernel::Scalar] {
            assert_eq!(PanelKernel::select_from(Some(k.name()), k), k);
        }
    }

    #[test]
    fn fused_span_arms_are_bit_identical() {
        let len = 37;
        let base: Vec<f64> = (0..len).map(|k| 0.3 + k as f64 * 0.07).collect();
        let coef: Vec<f64> = (0..len).map(|k| (k as f64 * 0.31).sin()).collect();
        let cur: Vec<f64> = (0..len).map(|k| 0.9 + (k as f64 * 0.17).cos()).collect();
        let mut scalar = vec![0.0; len];
        fused_mul_add_span_with(PanelKernel::Scalar, &base, &coef, &cur, &mut scalar);
        let mut wide = vec![0.0; len];
        fused_mul_add_span_with(PanelKernel::detect(), &base, &coef, &cur, &mut wide);
        for (k, (a, b)) in scalar.iter().zip(&wide).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "index {k}");
        }
    }

    #[test]
    fn unavailable_kernel_degrades_to_scalar() {
        // Requesting the vector arm must compute the scalar result on every
        // host, including one that cannot run it.
        let base = [1.0, 2.0, 3.0];
        let coef = [0.5; 3];
        let cur = [2.0; 3];
        let mut out = [0.0; 3];
        fused_mul_add_span_with(PanelKernel::Avx2Fma, &base, &coef, &cur, &mut out);
        assert_eq!(out, [2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "fused span slices must agree in length")]
    fn fused_span_rejects_mismatched_lengths() {
        let mut out = [0.0; 2];
        fused_mul_add_span(&[1.0], &[1.0], &[1.0], &mut out);
    }

    #[test]
    fn f32_fused_span_arms_are_bit_identical() {
        let len = 37;
        let base: Vec<f32> = (0..len).map(|k| 0.3 + k as f32 * 0.07).collect();
        let coef: Vec<f32> = (0..len).map(|k| (k as f32 * 0.31).sin()).collect();
        let cur: Vec<f32> = (0..len).map(|k| 0.9 + (k as f32 * 0.17).cos()).collect();
        let mut scalar = vec![0.0f32; len];
        fused_mul_add_span_with(PanelKernel::Scalar, &base, &coef, &cur, &mut scalar);
        let mut wide = vec![0.0f32; len];
        fused_mul_add_span_with(PanelKernel::detect(), &base, &coef, &cur, &mut wide);
        for (k, (a, b)) in scalar.iter().zip(&wide).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "index {k}");
        }
    }

    /// Runs `f`, returning the panic payload's message (panics if `f` does
    /// not panic).
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("closure must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic payload must be a string")
    }

    #[test]
    fn override_resolution_honours_known_names() {
        let detected = PanelKernel::detect();
        assert_eq!(PanelKernel::select_from(None, detected), detected);
        assert_eq!(PanelKernel::select_from(Some("auto"), detected), detected);
        assert_eq!(PanelKernel::select_from(Some(""), detected), detected);
        assert_eq!(
            PanelKernel::select_from(Some(" SCALAR "), detected),
            PanelKernel::Scalar
        );
        for alias in ["avx2", "AVX2FMA", "avx2-fma"] {
            assert_eq!(
                PanelKernel::select_from(Some(alias), PanelKernel::Avx2Fma),
                PanelKernel::Avx2Fma
            );
        }
    }

    #[test]
    fn unknown_override_panics_with_valid_names_and_probe_result() {
        // `neon` is rejected like any typo, whatever the host's probe found.
        for (raw, detected) in [
            ("axv2", PanelKernel::detect()),
            ("neon", PanelKernel::Avx2Fma),
            ("neon", PanelKernel::Scalar),
        ] {
            let message = panic_message(move || {
                PanelKernel::select_from(Some(raw), detected);
            });
            assert!(message.contains(KERNEL_ENV), "{message}");
            assert!(message.contains(&format!("{raw:?}")), "{message}");
            assert!(message.contains("not a known panel kernel"), "{message}");
            for name in ["auto", "scalar", "avx2"] {
                assert!(message.contains(name), "missing {name}: {message}");
            }
            let probe = format!("the probe detected `{}` on this host", detected.name());
            assert!(message.contains(&probe), "{message}");
        }
    }

    #[test]
    fn unavailable_override_panics_with_valid_names_and_probe_result() {
        // Present a host whose probe found no AVX2, whatever this host has.
        let message = panic_message(|| {
            PanelKernel::select_from(Some("avx2"), PanelKernel::Scalar);
        });
        assert!(message.contains(KERNEL_ENV), "{message}");
        assert!(message.contains("cannot run"), "{message}");
        assert!(message.contains("`avx2` kernel"), "{message}");
        for name in ["auto", "scalar", "avx2"] {
            assert!(message.contains(name), "missing {name}: {message}");
        }
        assert!(
            message.contains("the probe detected `scalar` on this host"),
            "{message}"
        );
    }
}
