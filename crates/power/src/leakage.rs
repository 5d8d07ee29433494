//! Temperature-dependent leakage model and its characterisation.
//!
//! The paper condenses the sub-threshold leakage equation into
//!
//! ```text
//! I_leak(T) = c1·T²·e^(c2/T) + I_gate      (Eq. 4.2, T in kelvin)
//! ```
//!
//! and fits `c1`, `c2` and `I_gate` to furnace measurements taken while a
//! light, fixed-frequency workload keeps the dynamic power constant
//! (Figures 4.1–4.3). Leakage *power* is the supply voltage times the leakage
//! current.

use numeric::simd::{madd, madd_f32, PanelKernel};
use numeric::{levenberg_marquardt, FitOptions, Vector};
use soc_model::Voltage;

use crate::PowerError;

/// Converts a temperature in °C to kelvin.
pub fn celsius_to_kelvin(temp_c: f64) -> f64 {
    temp_c + 273.15
}

/// The three condensed parameters of the leakage-current model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageParams {
    /// Pre-exponential constant `c1` (A/K²).
    pub c1: f64,
    /// Exponential constant `c2` (K); negative for sub-threshold leakage that
    /// grows with temperature.
    pub c2: f64,
    /// Gate leakage current `I_gate` (A), independent of temperature.
    pub igate_a: f64,
}

impl LeakageParams {
    /// Parameters characterised for the Exynos 5410 big (A15) cluster.
    ///
    /// They reproduce the shape of Figure 4.3: roughly 0.08 W of leakage at
    /// 40 °C growing to roughly 0.27 W at 80 °C (at 1.2 V).
    pub fn exynos5410_big() -> Self {
        LeakageParams {
            c1: 0.0115,
            c2: -3100.0,
            igate_a: 0.008,
        }
    }

    /// Parameters for the little (A7) cluster: the A7 cores are far smaller,
    /// so their leakage is roughly an order of magnitude below the A15's.
    pub fn exynos5410_little() -> Self {
        LeakageParams {
            c1: 0.0017,
            c2: -3100.0,
            igate_a: 0.0015,
        }
    }

    /// Parameters for the GPU domain.
    pub fn exynos5410_gpu() -> Self {
        LeakageParams {
            c1: 0.0040,
            c2: -3100.0,
            igate_a: 0.003,
        }
    }

    /// Parameters for the memory domain (mostly temperature-insensitive
    /// standby current).
    pub fn exynos5410_memory() -> Self {
        LeakageParams {
            c1: 0.0008,
            c2: -3100.0,
            igate_a: 0.010,
        }
    }
}

/// Leakage currents for `N` (domain, temperature) pairs at once,
/// bit-identical to `N` separate [`LeakageModel::current_a`] calls.
///
/// The batched, branch-free form lets the compiler vectorise the temperature
/// conversions and the `c2/T` divisions and lets the `exp` latency chains
/// overlap — the plant simulator evaluates every domain's leakage this way
/// once per micro-step, millions of times per simulated run.
#[inline]
pub fn currents_batch<const N: usize>(models: [&LeakageModel; N], temps_c: [f64; N]) -> [f64; N] {
    let mut pre = [0.0f64; N];
    let mut arg = [0.0f64; N];
    for k in 0..N {
        let t = celsius_to_kelvin(temps_c[k]);
        pre[k] = models[k].params.c1 * t * t;
        arg[k] = models[k].params.c2 / t;
    }
    let mut out = [0.0f64; N];
    for k in 0..N {
        out[k] = arg[k].exp();
    }
    for k in 0..N {
        out[k] = pre[k] * out[k] + models[k].params.igate_a;
    }
    out
}

/// Structure-of-arrays leakage evaluation for many scenarios at once: one
/// (domain, lane) leakage model per panel cell, evaluated row by row with
/// unit-stride inner loops.
///
/// This is the panel variant of [`currents_batch`] used by the batched plant
/// engine. The expensive part of the leakage equation is `e^(c2/T)`; the
/// panel replaces the per-call `libm` exponential with an *anchored* form
///
/// ```text
/// e^a = e^a0 · e^(a − a0)
/// ```
///
/// where the anchor `e^a0` is computed exactly (via `f64::exp`) every
/// [`LeakagePanel::REANCHOR_STEPS`] micro-steps — per lane, on the lane's own
/// cadence ([`LeakagePanel::anchor_lane`]) — and the drift factor
/// `e^(a − a0)` by a degree-7 polynomial. Node temperatures move by at most a
/// few hundredths of a kelvin per micro-step, so `|a − a0|` stays below ~0.05
/// between re-anchors and the polynomial is accurate to < 1 ulp (≈ 2e-16
/// relative); the batched currents therefore agree with
/// [`LeakageModel::current_a`] to floating-point rounding, not bit-exactly.
///
/// The branch-free inner loops (divide, polynomial, fused add) vectorise
/// across lanes, which is where the batched engine's leakage speedup over
/// one `libm` exponential per scenario comes from.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakagePanel {
    rows: usize,
    lanes: usize,
    c1: Vec<f64>,
    c2: Vec<f64>,
    igate: Vec<f64>,
    /// Anchor argument `a0 = c2 / T_anchor` per cell.
    a0: Vec<f64>,
    /// Anchor exponential `e^(a0)` per cell.
    e0: Vec<f64>,
}

impl LeakagePanel {
    /// How many micro-steps an anchor stays valid before
    /// [`LeakagePanel::anchor_lane`] must refresh it. At the plant's worst-case
    /// drift (~0.06 K per 10 ms micro-step) the exponent moves ~2e-3 per
    /// step, so 16 steps keep `|a − a0| < 0.05` with a wide margin.
    pub const REANCHOR_STEPS: usize = 16;

    /// Creates a `rows × lanes` panel with every cell set to `model`,
    /// anchored at `anchor_temp_c`.
    ///
    /// Anchors are valid from construction: there is no unanchored state a
    /// caller could evaluate by mistake, so a panel (or a lane admitted into
    /// one mid-sweep via [`LeakagePanel::set_model`]) always produces finite
    /// currents. The anchor is *exact* at `anchor_temp_c` and the drift
    /// polynomial covers departures of a few hundredths of a kelvin, so pass
    /// the temperature the first evaluation will actually use (the plant's
    /// initial temperature) and re-anchor on the usual cadence afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `lanes` is zero or `anchor_temp_c` is not finite.
    pub fn filled(rows: usize, lanes: usize, model: &LeakageModel, anchor_temp_c: f64) -> Self {
        assert!(rows > 0 && lanes > 0, "panel dimensions must be non-zero");
        assert!(
            anchor_temp_c.is_finite(),
            "anchor temperature must be finite"
        );
        let n = rows * lanes;
        let a = model.params.c2 / celsius_to_kelvin(anchor_temp_c);
        LeakagePanel {
            rows,
            lanes,
            c1: vec![model.params.c1; n],
            c2: vec![model.params.c2; n],
            igate: vec![model.params.igate_a; n],
            a0: vec![a; n],
            e0: vec![a.exp(); n],
        }
    }

    /// Number of domain rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of scenario lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Sets the leakage model of cell `(row, lane)` and immediately anchors
    /// it at `anchor_temp_c` with the exact `libm` exponential.
    ///
    /// Requiring the anchor temperature here (instead of poisoning the cell
    /// until a separate anchor call) means a lane admitted into a running
    /// sweep can never read an unanchored exponential: the stale anchor of
    /// the *old* model is replaced atomically with a fresh, exact anchor for
    /// the new one. Pass the temperature the lane restarts at (its initial
    /// temperature); scheduled re-anchoring takes over from there.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `lane` is out of bounds or `anchor_temp_c` is not
    /// finite.
    pub fn set_model(&mut self, row: usize, lane: usize, model: &LeakageModel, anchor_temp_c: f64) {
        assert!(
            row < self.rows && lane < self.lanes,
            "panel index out of bounds"
        );
        assert!(
            anchor_temp_c.is_finite(),
            "anchor temperature must be finite"
        );
        let k = row * self.lanes + lane;
        self.c1[k] = model.params.c1;
        self.c2[k] = model.params.c2;
        self.igate[k] = model.params.igate_a;
        let a = model.params.c2 / celsius_to_kelvin(anchor_temp_c);
        self.a0[k] = a;
        self.e0[k] = a.exp();
    }

    /// Re-anchors every row of lane `lane` (one `libm` exponential per row)
    /// at its temperature in `temps_c`, which covers every cell in row-major
    /// order (`rows × lanes`); the other lanes' anchors are untouched. This
    /// is the batch plant's re-anchor call: each lane keeps its own cadence,
    /// counted from its admission, so a lane's currents never depend on when
    /// its batch mates were admitted.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of bounds or `temps_c` does not cover every
    /// cell.
    pub fn anchor_lane(&mut self, lane: usize, temps_c: &[f64]) {
        assert!(lane < self.lanes, "panel lane out of bounds");
        assert_eq!(temps_c.len(), self.rows * self.lanes, "anchor panel size");
        for k in (lane..temps_c.len()).step_by(self.lanes) {
            let a = self.c2[k] / celsius_to_kelvin(temps_c[k]);
            self.a0[k] = a;
            self.e0[k] = a.exp();
        }
    }

    /// Evaluates the whole panel's leakage currents in one unit-stride pass:
    /// `temps_c` and `out` cover every cell in row-major order
    /// (`rows × lanes`). This is the batch engine's per-micro-step call — one
    /// long vector loop (through the SIMD arm selected by
    /// [`PanelKernel::active`]) instead of one short loop per domain row.
    ///
    /// # Panics
    ///
    /// Panics if the slices do not cover every cell.
    #[inline]
    pub fn currents_into(&self, temps_c: &[f64], out: &mut [f64]) {
        self.currents_into_with(PanelKernel::active(), temps_c, out);
    }

    /// [`LeakagePanel::currents_into`] through an explicit [`PanelKernel`]
    /// arm (testing/benching form; an unavailable kernel degrades to scalar).
    ///
    /// # Panics
    ///
    /// Panics if the slices do not cover every cell.
    #[inline]
    pub fn currents_into_with(&self, kernel: PanelKernel, temps_c: &[f64], out: &mut [f64]) {
        let cells = self.rows * self.lanes;
        assert_eq!(temps_c.len(), cells, "temperature panel size");
        assert_eq!(out.len(), cells, "output panel size");
        currents_span_with(
            kernel,
            &self.c1,
            &self.c2,
            &self.igate,
            &self.a0,
            &self.e0,
            temps_c,
            out,
        );
    }
}

/// The anchored leakage-current evaluation over one contiguous span (see
/// [`LeakagePanel`]; all slices have equal length) through an explicit
/// kernel arm: the vector arm (if requested and available) covers the
/// full-vector prefix, the scalar [`leak_cell`] the tail. Both arms perform
/// the same per-cell operation sequence, so a cell's current is
/// bit-identical regardless of arm or position — see `numeric::simd` for the
/// dispatch contract.
#[allow(clippy::too_many_arguments)]
fn currents_span_with(
    kernel: PanelKernel,
    c1: &[f64],
    c2: &[f64],
    igate: &[f64],
    a0: &[f64],
    e0: &[f64],
    temps_c: &[f64],
    out: &mut [f64],
) {
    let len = out.len();
    #[cfg(debug_assertions)]
    for k in 0..len {
        debug_assert!(
            a0[k].is_finite() && e0[k].is_finite(),
            "leakage cell {k} evaluated with an invalid anchor"
        );
    }
    let kernel = if kernel.is_available() {
        kernel
    } else {
        PanelKernel::Scalar
    };
    let mut k = 0;
    match kernel {
        #[cfg(target_arch = "x86_64")]
        PanelKernel::Avx2Fma => {
            let vec_len = len - len % 4;
            if vec_len > 0 {
                // SAFETY: availability was just checked; all slices cover
                // `len >= vec_len` cells.
                unsafe { leak_avx2::span(c1, c2, igate, a0, e0, temps_c, out, vec_len) };
            }
            k = vec_len;
        }
        _ => {}
    }
    while k < len {
        out[k] = leak_cell(c1[k], c2[k], igate[k], a0[k], e0[k], temps_c[k]);
        k += 1;
    }
}

/// One cell of the anchored leakage evaluation — the scalar reference the
/// vector arms mirror operation for operation.
#[inline(always)]
fn leak_cell(c1: f64, c2: f64, igate: f64, a0: f64, e0: f64, temp_c: f64) -> f64 {
    let t = celsius_to_kelvin(temp_c);
    let delta = c2 / t - a0;
    let e = e0 * exp_delta(delta);
    madd(c1 * t * t, e, igate)
}

/// `e^d` for a small drift `|d| ≲ 0.05` via a degree-7 polynomial (Estrin
/// form for instruction-level parallelism). The truncation error at
/// `|d| = 0.05` is `0.05^8/8! ≈ 1e-15` relative — below one ulp of the full
/// leakage expression. Accumulates through [`madd`] so the scalar and vector
/// evaluations round identically.
#[inline(always)]
fn exp_delta(d: f64) -> f64 {
    let d2 = d * d;
    let p01 = 1.0 + d;
    let p23 = madd(d, 1.0 / 6.0, 0.5);
    let p45 = madd(d, 1.0 / 120.0, 1.0 / 24.0);
    let p67 = madd(d, 1.0 / 5040.0, 1.0 / 720.0);
    madd(d2 * d2, madd(d2, p67, p45), madd(d2, p23, p01))
}

/// AVX2 arm of the leakage span: 4 cells per vector, operation order
/// identical to [`leak_cell`] per lane (divide → drift polynomial → fused
/// accumulate).
#[cfg(target_arch = "x86_64")]
mod leak_avx2 {
    use core::arch::x86_64::{
        __m256, __m256d, _mm256_add_pd, _mm256_add_ps, _mm256_div_pd, _mm256_div_ps,
        _mm256_loadu_pd, _mm256_loadu_ps, _mm256_mul_pd, _mm256_mul_ps, _mm256_set1_pd,
        _mm256_set1_ps, _mm256_storeu_pd, _mm256_storeu_ps, _mm256_sub_pd, _mm256_sub_ps,
    };

    /// `acc + a·x` per lane, rounding exactly like `numeric::simd::madd`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn vmadd(a: __m256d, x: __m256d, acc: __m256d) -> __m256d {
        _mm256_add_pd(acc, _mm256_mul_pd(a, x))
    }

    /// The vector body of `currents_span_with` over cells `[0, vec_len)`
    /// (`vec_len` a multiple of 4).
    ///
    /// # Safety
    ///
    /// AVX2 must be available; every slice
    /// must cover at least `vec_len` cells.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn span(
        c1: &[f64],
        c2: &[f64],
        igate: &[f64],
        a0: &[f64],
        e0: &[f64],
        temps_c: &[f64],
        out: &mut [f64],
        vec_len: usize,
    ) {
        // One vector's worth of the per-cell pipeline; the caller interleaves
        // two of these per pass so the divide latency chains overlap.
        #[target_feature(enable = "avx2")]
        #[inline]
        #[allow(clippy::too_many_arguments)]
        unsafe fn cell4(
            c1: &[f64],
            c2: &[f64],
            igate: &[f64],
            a0: &[f64],
            e0: &[f64],
            temps_c: &[f64],
            out: &mut [f64],
            k: usize,
        ) {
            let kelvin = _mm256_set1_pd(273.15);
            let one = _mm256_set1_pd(1.0);
            let c3 = _mm256_set1_pd(1.0 / 6.0);
            let half = _mm256_set1_pd(0.5);
            let c5 = _mm256_set1_pd(1.0 / 120.0);
            let c4 = _mm256_set1_pd(1.0 / 24.0);
            let c7 = _mm256_set1_pd(1.0 / 5040.0);
            let c6 = _mm256_set1_pd(1.0 / 720.0);
            let t = _mm256_add_pd(_mm256_loadu_pd(temps_c.as_ptr().add(k)), kelvin);
            let d = _mm256_sub_pd(
                _mm256_div_pd(_mm256_loadu_pd(c2.as_ptr().add(k)), t),
                _mm256_loadu_pd(a0.as_ptr().add(k)),
            );
            let d2 = _mm256_mul_pd(d, d);
            let p01 = _mm256_add_pd(one, d);
            let p23 = vmadd(d, c3, half);
            let p45 = vmadd(d, c5, c4);
            let p67 = vmadd(d, c7, c6);
            let expd = vmadd(
                _mm256_mul_pd(d2, d2),
                vmadd(d2, p67, p45),
                vmadd(d2, p23, p01),
            );
            let e = _mm256_mul_pd(_mm256_loadu_pd(e0.as_ptr().add(k)), expd);
            let pre = _mm256_mul_pd(_mm256_mul_pd(_mm256_loadu_pd(c1.as_ptr().add(k)), t), t);
            let i = vmadd(pre, e, _mm256_loadu_pd(igate.as_ptr().add(k)));
            _mm256_storeu_pd(out.as_mut_ptr().add(k), i);
        }

        let mut k = 0;
        while k + 8 <= vec_len {
            cell4(c1, c2, igate, a0, e0, temps_c, out, k);
            cell4(c1, c2, igate, a0, e0, temps_c, out, k + 4);
            k += 8;
        }
        while k < vec_len {
            cell4(c1, c2, igate, a0, e0, temps_c, out, k);
            k += 4;
        }
    }

    /// `acc + a·x` per f32 lane, rounding exactly like
    /// `numeric::simd::madd_f32`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn vmadd_f32(a: __m256, x: __m256, acc: __m256) -> __m256 {
        _mm256_add_ps(acc, _mm256_mul_ps(a, x))
    }

    /// The f32 vector body of `currents_span_with_f32` over cells
    /// `[0, vec_len)` (`vec_len` a multiple of 8): 8 cells per vector with
    /// two divide chains in flight per pass, mirroring [`span`].
    ///
    /// # Safety
    ///
    /// AVX2 must be available; every slice
    /// must cover at least `vec_len` cells.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn span_f32(
        c1: &[f32],
        c2: &[f32],
        igate: &[f32],
        a0: &[f32],
        e0: &[f32],
        temps_c: &[f32],
        out: &mut [f32],
        vec_len: usize,
    ) {
        // One vector's worth (8 cells) of the per-cell f32 pipeline,
        // operation order identical to `leak_cell_f32` per lane.
        #[target_feature(enable = "avx2")]
        #[inline]
        #[allow(clippy::too_many_arguments)]
        unsafe fn cell8(
            c1: &[f32],
            c2: &[f32],
            igate: &[f32],
            a0: &[f32],
            e0: &[f32],
            temps_c: &[f32],
            out: &mut [f32],
            k: usize,
        ) {
            let kelvin = _mm256_set1_ps(273.15);
            let one = _mm256_set1_ps(1.0);
            let c3 = _mm256_set1_ps(1.0 / 6.0);
            let half = _mm256_set1_ps(0.5);
            let c4 = _mm256_set1_ps(1.0 / 24.0);
            let t = _mm256_add_ps(_mm256_loadu_ps(temps_c.as_ptr().add(k)), kelvin);
            let d = _mm256_sub_ps(
                _mm256_div_ps(_mm256_loadu_ps(c2.as_ptr().add(k)), t),
                _mm256_loadu_ps(a0.as_ptr().add(k)),
            );
            let d2 = _mm256_mul_ps(d, d);
            let p01 = _mm256_add_ps(one, d);
            let p23 = vmadd_f32(d, c3, half);
            let expd = vmadd_f32(d2, vmadd_f32(d2, c4, p23), p01);
            let e = _mm256_mul_ps(_mm256_loadu_ps(e0.as_ptr().add(k)), expd);
            let pre = _mm256_mul_ps(_mm256_mul_ps(_mm256_loadu_ps(c1.as_ptr().add(k)), t), t);
            let i = vmadd_f32(pre, e, _mm256_loadu_ps(igate.as_ptr().add(k)));
            _mm256_storeu_ps(out.as_mut_ptr().add(k), i);
        }

        let mut k = 0;
        while k + 16 <= vec_len {
            cell8(c1, c2, igate, a0, e0, temps_c, out, k);
            cell8(c1, c2, igate, a0, e0, temps_c, out, k + 8);
            k += 16;
        }
        while k < vec_len {
            cell8(c1, c2, igate, a0, e0, temps_c, out, k);
            k += 8;
        }
    }

    /// Gathered f32 row span over cells `[0, vec_len)` (`vec_len` a multiple
    /// of 8): the temperature is reconstructed on the fly as `t0 + dx` — the
    /// same single f32 add a separate gather pass would perform — before the
    /// per-cell pipeline of [`span_f32`].
    ///
    /// # Safety
    ///
    /// AVX2 must be available; every slice
    /// must cover at least `vec_len` cells.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn span_gathered_f32(
        c1: &[f32],
        c2: &[f32],
        igate: &[f32],
        a0: &[f32],
        e0: &[f32],
        t0: &[f32],
        dx: &[f32],
        out: &mut [f32],
        vec_len: usize,
    ) {
        // One vector's worth (8 cells), identical to `span_f32`'s `cell8`
        // except the temperature load is the two-panel sum.
        #[target_feature(enable = "avx2")]
        #[inline]
        #[allow(clippy::too_many_arguments)]
        unsafe fn cell8(
            c1: &[f32],
            c2: &[f32],
            igate: &[f32],
            a0: &[f32],
            e0: &[f32],
            t0: &[f32],
            dx: &[f32],
            out: &mut [f32],
            k: usize,
        ) {
            let kelvin = _mm256_set1_ps(273.15);
            let one = _mm256_set1_ps(1.0);
            let c3 = _mm256_set1_ps(1.0 / 6.0);
            let half = _mm256_set1_ps(0.5);
            let c4 = _mm256_set1_ps(1.0 / 24.0);
            let temp = _mm256_add_ps(
                _mm256_loadu_ps(t0.as_ptr().add(k)),
                _mm256_loadu_ps(dx.as_ptr().add(k)),
            );
            let t = _mm256_add_ps(temp, kelvin);
            let d = _mm256_sub_ps(
                _mm256_div_ps(_mm256_loadu_ps(c2.as_ptr().add(k)), t),
                _mm256_loadu_ps(a0.as_ptr().add(k)),
            );
            let d2 = _mm256_mul_ps(d, d);
            let p01 = _mm256_add_ps(one, d);
            let p23 = vmadd_f32(d, c3, half);
            let expd = vmadd_f32(d2, vmadd_f32(d2, c4, p23), p01);
            let e = _mm256_mul_ps(_mm256_loadu_ps(e0.as_ptr().add(k)), expd);
            let pre = _mm256_mul_ps(_mm256_mul_ps(_mm256_loadu_ps(c1.as_ptr().add(k)), t), t);
            let i = vmadd_f32(pre, e, _mm256_loadu_ps(igate.as_ptr().add(k)));
            _mm256_storeu_ps(out.as_mut_ptr().add(k), i);
        }

        let mut k = 0;
        while k + 16 <= vec_len {
            cell8(c1, c2, igate, a0, e0, t0, dx, out, k);
            cell8(c1, c2, igate, a0, e0, t0, dx, out, k + 8);
            k += 16;
        }
        while k < vec_len {
            cell8(c1, c2, igate, a0, e0, t0, dx, out, k);
            k += 8;
        }
    }
}

/// Single-precision variant of [`LeakagePanel`] for the mixed-precision
/// batch engine: f32 storage and f32 inter-anchor spans, with the anchor
/// itself — the one numerically delicate step — still computed in f64.
///
/// Each re-anchor evaluates `a0 = c2/T` in f64 (using an f64 copy of `c2`
/// kept alongside the f32 coefficients) and advances an f64 shadow of the
/// anchor exponential incrementally — `e0 ·= e^Δa` through the degree-7
/// drift polynomial, with a true `libm` `exp` fallback for large anchor
/// moves (see [`LeakagePanelF32::anchor_all`]) — then demotes the results
/// once, so f32 rounding never compounds through the exponential. Between
/// anchors the drift `|a − a0|` stays below ~0.1 over
/// the doubled horizon (see [`LeakagePanelF32::REANCHOR_STEPS`]), where a
/// *degree-4* polynomial has truncation error `0.1⁵/5! ≈ 8.3e-8` — below
/// f32 epsilon (~1.2e-7), which is the real precision floor of the span.
/// Relative current error versus the f64 panel is therefore a few f32 ulps,
/// well inside the mixed-precision engine's ≤ 1e-3 °C trajectory budget.
///
/// The AVX2 arm evaluates 8 cells per vector (twice the f64 arm's 4) and
/// performs the same per-cell f32 operation sequence as the scalar
/// reference, so the arms are bit-identical to each other exactly like the
/// f64 panel's.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakagePanelF32 {
    rows: usize,
    lanes: usize,
    c1: Vec<f32>,
    c2: Vec<f32>,
    igate: Vec<f32>,
    /// f64 copy of `c2` used only at re-anchor time, so the anchor argument
    /// is exact.
    c2_anchor: Vec<f64>,
    /// Anchor argument `a0 = c2 / T_anchor` per cell, demoted from f64.
    a0: Vec<f32>,
    /// Anchor exponential `e^(a0)` per cell, demoted from f64 `libm` `exp`.
    e0: Vec<f32>,
    /// f64 shadow of `a0`, kept so re-anchoring can measure the exact drift
    /// since the previous anchor.
    a0_anchor: Vec<f64>,
    /// f64 shadow of `e0`, maintained incrementally across re-anchors
    /// (`e0 ·= e^Δa` via the f64 drift polynomial) so the `libm` exponential
    /// is only paid when a cell's anchor moves far.
    e0_anchor: Vec<f64>,
}

impl LeakagePanelF32 {
    /// Anchor validity horizon — twice the f64 panel's, because the f32 span
    /// has precision to spare: over 32 micro-steps the drift stays
    /// `|a − a0| ≲ 0.1` (double the f64 panel's per-16-step budget), where
    /// the degree-4 polynomial's truncation error `0.1⁵/5! ≈ 8.3e-8` is
    /// still below f32 epsilon (~1.2e-7) — the span's precision floor. The
    /// f64 anchor (a `libm` exponential per cell) is the panel's costliest
    /// amortised step, so doubling the horizon halves it.
    pub const REANCHOR_STEPS: usize = 2 * LeakagePanel::REANCHOR_STEPS;

    /// Creates a `rows × lanes` panel with every cell set to `model`,
    /// anchored (in f64, then demoted) at `anchor_temp_c`. See
    /// [`LeakagePanel::filled`] for the always-anchored rationale.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `lanes` is zero or `anchor_temp_c` is not finite.
    pub fn filled(rows: usize, lanes: usize, model: &LeakageModel, anchor_temp_c: f64) -> Self {
        assert!(rows > 0 && lanes > 0, "panel dimensions must be non-zero");
        assert!(
            anchor_temp_c.is_finite(),
            "anchor temperature must be finite"
        );
        let n = rows * lanes;
        let a = model.params.c2 / celsius_to_kelvin(anchor_temp_c);
        LeakagePanelF32 {
            rows,
            lanes,
            c1: vec![model.params.c1 as f32; n],
            c2: vec![model.params.c2 as f32; n],
            igate: vec![model.params.igate_a as f32; n],
            c2_anchor: vec![model.params.c2; n],
            a0: vec![a as f32; n],
            e0: vec![a.exp() as f32; n],
            a0_anchor: vec![a; n],
            e0_anchor: vec![a.exp(); n],
        }
    }

    /// Number of domain rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of scenario lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Sets the leakage model of cell `(row, lane)` and immediately anchors
    /// it at `anchor_temp_c` (f64 anchor, demoted). See
    /// [`LeakagePanel::set_model`] for the mid-sweep admission rationale.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `lane` is out of bounds or `anchor_temp_c` is not
    /// finite.
    pub fn set_model(&mut self, row: usize, lane: usize, model: &LeakageModel, anchor_temp_c: f64) {
        assert!(
            row < self.rows && lane < self.lanes,
            "panel index out of bounds"
        );
        assert!(
            anchor_temp_c.is_finite(),
            "anchor temperature must be finite"
        );
        let k = row * self.lanes + lane;
        self.c1[k] = model.params.c1 as f32;
        self.c2[k] = model.params.c2 as f32;
        self.igate[k] = model.params.igate_a as f32;
        self.c2_anchor[k] = model.params.c2;
        let a = model.params.c2 / celsius_to_kelvin(anchor_temp_c);
        self.a0[k] = a as f32;
        self.e0[k] = a.exp() as f32;
        self.a0_anchor[k] = a;
        self.e0_anchor[k] = a.exp();
    }

    /// Re-anchors the whole panel at once; `temps_c` covers every cell in
    /// row-major order (`rows × lanes`). The anchor argument is computed in
    /// f64 (promoting each f32 temperature) and the f64 anchor exponential
    /// is advanced *incrementally*: `e0 ·= e^Δa` with the drift `Δa` since
    /// the previous anchor evaluated through the degree-7 f64 drift
    /// polynomial (truncation ≤ `0.25⁸/8! ≈ 3.8e-10` relative at the
    /// fallback threshold, and the product is carried in f64, so lifetime
    /// accumulation stays orders of magnitude below f32 epsilon). A cell
    /// whose anchor moved beyond the polynomial's range (`|Δa| > 0.25`,
    /// e.g. across a large ambient step) falls back to a true `libm`
    /// exponential — correct at any drift, just slower.
    ///
    /// # Panics
    ///
    /// Panics if `temps_c` does not cover every cell.
    pub fn anchor_all(&mut self, temps_c: &[f32]) {
        assert_eq!(temps_c.len(), self.rows * self.lanes, "anchor panel size");
        for (k, &t) in temps_c.iter().enumerate() {
            let a = self.c2_anchor[k] / celsius_to_kelvin(f64::from(t));
            let d = a - self.a0_anchor[k];
            self.e0_anchor[k] = if d.abs() <= 0.25 {
                self.e0_anchor[k] * exp_delta(d)
            } else {
                a.exp()
            };
            self.a0_anchor[k] = a;
            self.a0[k] = a as f32;
            self.e0[k] = self.e0_anchor[k] as f32;
        }
    }

    /// Evaluates the whole panel's leakage currents in one unit-stride f32
    /// pass; `temps_c` and `out` cover every cell in row-major order. The
    /// mixed-precision engine's per-micro-step call.
    ///
    /// # Panics
    ///
    /// Panics if the slices do not cover every cell.
    #[inline]
    pub fn currents_into(&self, temps_c: &[f32], out: &mut [f32]) {
        self.currents_into_with(PanelKernel::active(), temps_c, out);
    }

    /// [`LeakagePanelF32::currents_into`] through an explicit [`PanelKernel`]
    /// arm (testing/benching form; an unavailable kernel degrades to scalar).
    ///
    /// # Panics
    ///
    /// Panics if the slices do not cover every cell.
    #[inline]
    pub fn currents_into_with(&self, kernel: PanelKernel, temps_c: &[f32], out: &mut [f32]) {
        let cells = self.rows * self.lanes;
        assert_eq!(temps_c.len(), cells, "temperature panel size");
        assert_eq!(out.len(), cells, "output panel size");
        currents_span_with_f32(
            kernel,
            &self.c1,
            &self.c2,
            &self.igate,
            &self.a0,
            &self.e0,
            temps_c,
            out,
        );
    }

    /// Evaluates every cell's leakage current with the temperature
    /// reconstructed on the fly as `t0[row_map[r]·lanes + l] + dx[…]`
    /// instead of reading a pre-gathered panel — the mixed-precision
    /// engine's non-anchor micro-step call, which skips materialising the
    /// intermediate temperature panel entirely. The reconstruction performs
    /// the same single f32 add a separate gather pass would, so the result
    /// is bit-identical to gathering into a panel and calling
    /// [`LeakagePanelF32::currents_into`].
    ///
    /// `t0` and `dx` are node-major panels of `lanes` columns (baseline and
    /// deviation temperatures, summing to °C); `row_map[r]` names the node
    /// whose temperature feeds leakage row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` differs from the panel's, `row_map` does not name a
    /// node per row, `out` does not cover every cell, or a mapped node row
    /// lies outside `t0`/`dx`.
    #[inline]
    pub fn currents_into_gathered(
        &self,
        t0: &[f32],
        dx: &[f32],
        lanes: usize,
        row_map: &[usize],
        out: &mut [f32],
    ) {
        self.currents_into_gathered_with(PanelKernel::active(), t0, dx, lanes, row_map, out);
    }

    /// [`LeakagePanelF32::currents_into_gathered`] through an explicit
    /// [`PanelKernel`] arm (testing/benching form; an unavailable kernel
    /// degrades to scalar).
    ///
    /// # Panics
    ///
    /// As [`LeakagePanelF32::currents_into_gathered`].
    #[allow(clippy::too_many_arguments)]
    pub fn currents_into_gathered_with(
        &self,
        kernel: PanelKernel,
        t0: &[f32],
        dx: &[f32],
        lanes: usize,
        row_map: &[usize],
        out: &mut [f32],
    ) {
        assert_eq!(lanes, self.lanes, "lane count mismatch");
        assert_eq!(row_map.len(), self.rows, "row map must name a node per row");
        assert_eq!(out.len(), self.rows * self.lanes, "output panel size");
        #[cfg(debug_assertions)]
        for k in 0..out.len() {
            debug_assert!(
                self.a0[k].is_finite() && self.e0[k].is_finite(),
                "leakage cell {k} evaluated with an invalid anchor"
            );
        }
        let kernel = if kernel.is_available() {
            kernel
        } else {
            PanelKernel::Scalar
        };
        for (r, &node) in row_map.iter().enumerate() {
            let start = node * lanes;
            let tr = &t0[start..start + lanes];
            let xr = &dx[start..start + lanes];
            let pr = r * lanes;
            let or = &mut out[pr..pr + lanes];
            let c1 = &self.c1[pr..pr + lanes];
            let c2 = &self.c2[pr..pr + lanes];
            let igate = &self.igate[pr..pr + lanes];
            let a0 = &self.a0[pr..pr + lanes];
            let e0 = &self.e0[pr..pr + lanes];
            let mut k = 0;
            match kernel {
                #[cfg(target_arch = "x86_64")]
                PanelKernel::Avx2Fma => {
                    let vec_len = lanes - lanes % 8;
                    if vec_len > 0 {
                        // SAFETY: availability was just checked; all slices
                        // cover `lanes >= vec_len` cells.
                        unsafe {
                            leak_avx2::span_gathered_f32(c1, c2, igate, a0, e0, tr, xr, or, vec_len)
                        };
                    }
                    k = vec_len;
                }
                _ => {}
            }
            while k < lanes {
                or[k] = leak_cell_f32(c1[k], c2[k], igate[k], a0[k], e0[k], tr[k] + xr[k]);
                k += 1;
            }
        }
    }
}

/// f32 twin of [`currents_span_with`]: the vector arm (if requested and
/// available) covers the full-vector prefix at f32 width — 8 cells per AVX2
/// vector — and the scalar [`leak_cell_f32`] the tail.
#[allow(clippy::too_many_arguments)]
fn currents_span_with_f32(
    kernel: PanelKernel,
    c1: &[f32],
    c2: &[f32],
    igate: &[f32],
    a0: &[f32],
    e0: &[f32],
    temps_c: &[f32],
    out: &mut [f32],
) {
    let len = out.len();
    #[cfg(debug_assertions)]
    for k in 0..len {
        debug_assert!(
            a0[k].is_finite() && e0[k].is_finite(),
            "leakage cell {k} evaluated with an invalid anchor"
        );
    }
    let kernel = if kernel.is_available() {
        kernel
    } else {
        PanelKernel::Scalar
    };
    let mut k = 0;
    match kernel {
        #[cfg(target_arch = "x86_64")]
        PanelKernel::Avx2Fma => {
            let vec_len = len - len % 8;
            if vec_len > 0 {
                // SAFETY: availability was just checked; all slices cover
                // `len >= vec_len` cells.
                unsafe { leak_avx2::span_f32(c1, c2, igate, a0, e0, temps_c, out, vec_len) };
            }
            k = vec_len;
        }
        _ => {}
    }
    while k < len {
        out[k] = leak_cell_f32(c1[k], c2[k], igate[k], a0[k], e0[k], temps_c[k]);
        k += 1;
    }
}

/// One cell of the f32 anchored leakage evaluation — the scalar reference
/// the f32 vector arms mirror operation for operation.
#[inline(always)]
fn leak_cell_f32(c1: f32, c2: f32, igate: f32, a0: f32, e0: f32, temp_c: f32) -> f32 {
    let t = temp_c + 273.15f32;
    let delta = c2 / t - a0;
    let e = e0 * exp_delta_f32(delta);
    madd_f32(c1 * t * t, e, igate)
}

/// `e^d` for a small drift `|d| ≲ 0.1` at f32 precision via a degree-4
/// polynomial: the truncation error `0.1⁵/5! ≈ 8.3e-8` stays below f32
/// epsilon even at the doubled f32 re-anchor horizon, so the extra terms of
/// the f64 panel's degree-7 form would only burn latency. Accumulates
/// through [`madd_f32`] so scalar and vector evaluations round
/// identically.
#[inline(always)]
fn exp_delta_f32(d: f32) -> f32 {
    let d2 = d * d;
    let p01 = 1.0 + d;
    let p23 = madd_f32(d, 1.0 / 6.0, 0.5);
    madd_f32(d2, madd_f32(d2, 1.0 / 24.0, p23), p01)
}

/// Temperature-dependent leakage model for one power domain.
///
/// # Example
///
/// ```
/// use power_model::LeakageModel;
/// use soc_model::Voltage;
///
/// let model = LeakageModel::exynos5410_big();
/// let cool = model.power_w(Voltage::from_volts(1.2), 40.0);
/// let hot = model.power_w(Voltage::from_volts(1.2), 80.0);
/// assert!(hot > 2.5 * cool, "leakage grows steeply with temperature");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageModel {
    params: LeakageParams,
}

impl LeakageModel {
    /// Creates a leakage model from explicit parameters.
    pub fn new(params: LeakageParams) -> Self {
        LeakageModel { params }
    }

    /// Characterised model of the big cluster.
    pub fn exynos5410_big() -> Self {
        LeakageModel::new(LeakageParams::exynos5410_big())
    }

    /// Characterised model of the little cluster.
    pub fn exynos5410_little() -> Self {
        LeakageModel::new(LeakageParams::exynos5410_little())
    }

    /// Characterised model of the GPU.
    pub fn exynos5410_gpu() -> Self {
        LeakageModel::new(LeakageParams::exynos5410_gpu())
    }

    /// Characterised model of the memory domain.
    pub fn exynos5410_memory() -> Self {
        LeakageModel::new(LeakageParams::exynos5410_memory())
    }

    /// The model parameters.
    pub fn params(&self) -> LeakageParams {
        self.params
    }

    /// Leakage current at the given die temperature, in amperes.
    #[inline]
    pub fn current_a(&self, temp_c: f64) -> f64 {
        let t = celsius_to_kelvin(temp_c);
        self.params.c1 * t * t * (self.params.c2 / t).exp() + self.params.igate_a
    }

    /// Leakage power at the given supply voltage and die temperature, in watts.
    pub fn power_w(&self, voltage: Voltage, temp_c: f64) -> f64 {
        voltage.volts() * self.current_a(temp_c)
    }

    /// Fits the leakage parameters to furnace measurements.
    ///
    /// Each sample pairs a die temperature (°C) with the measured *total*
    /// power (W) of the domain while a light workload keeps the dynamic power
    /// constant at `dynamic_w` (the paper's central assumption: "dynamic power
    /// shows negligible variation with temperature"). The dynamic component is
    /// subtracted, the remainder is divided by the supply voltage, and the
    /// condensed leakage-current equation is fitted to the result with
    /// nonlinear least squares.
    ///
    /// # Errors
    ///
    /// * [`PowerError::InsufficientData`] with fewer than four distinct
    ///   temperature points.
    /// * [`PowerError::InvalidArgument`] for a non-positive supply voltage or
    ///   negative dynamic power.
    /// * [`PowerError::FitFailed`] if the nonlinear fit does not converge or
    ///   produces non-physical (negative-leakage) parameters.
    pub fn fit_from_furnace(
        samples: &[(f64, f64)],
        supply: Voltage,
        dynamic_w: f64,
    ) -> Result<Self, PowerError> {
        if samples.len() < 4 {
            return Err(PowerError::InsufficientData {
                required: 4,
                provided: samples.len(),
            });
        }
        if supply.volts() <= 0.0 {
            return Err(PowerError::InvalidArgument(
                "supply voltage must be positive",
            ));
        }
        if dynamic_w < 0.0 {
            return Err(PowerError::InvalidArgument(
                "characterisation dynamic power must be non-negative",
            ));
        }
        let temps: Vec<f64> = samples.iter().map(|(t, _)| *t).collect();
        let v = supply.volts();
        // Leakage current implied by each measurement.
        let currents: Vec<f64> = samples
            .iter()
            .map(|(_, p)| ((p - dynamic_w) / v).max(0.0))
            .collect();

        let i_min = currents.iter().cloned().fold(f64::INFINITY, f64::min);
        let initial = Vector::from_slice(&[0.005, -2500.0, (0.3 * i_min).max(1e-4)]);

        let report = levenberg_marquardt(&initial, &FitOptions::default(), |p| {
            Vector::from_iter(temps.iter().zip(&currents).map(|(&t_c, &i_meas)| {
                let t = celsius_to_kelvin(t_c);
                p[0] * t * t * (p[1] / t).exp() + p[2] - i_meas
            }))
        })
        .map_err(|e| PowerError::FitFailed(e.to_string()))?;

        let fitted = LeakageParams {
            c1: report.parameters[0],
            c2: report.parameters[1],
            igate_a: report.parameters[2],
        };
        let model = LeakageModel::new(fitted);

        // Sanity: the fitted model must predict non-negative, finite leakage
        // over the characterised range.
        for &t in &temps {
            let i = model.current_a(t);
            if !i.is_finite() || i < 0.0 {
                return Err(PowerError::FitFailed(format!(
                    "fitted leakage current is non-physical at {t} degC: {i}"
                )));
            }
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn currents_batch_is_bit_identical_to_scalar() {
        let model = LeakageModel::exynos5410_big();
        let temps = [41.25, 55.5, 68.875, 83.0625];
        let batched = currents_batch([&model; 4], temps);
        for k in 0..4 {
            assert_eq!(batched[k], model.current_a(temps[k]), "lane {k}");
        }
    }

    #[test]
    fn leakage_panel_matches_scalar_at_anchor() {
        // At the anchor temperature the polynomial drift factor is exactly 1,
        // so the panel reproduces `current_a` bit for bit.
        let big = LeakageModel::exynos5410_big();
        let gpu = LeakageModel::exynos5410_gpu();
        let mut panel = LeakagePanel::filled(2, 3, &big, 52.0);
        for lane in 0..3 {
            panel.set_model(1, lane, &gpu, 52.0);
        }
        let temps = [41.5, 63.25, 80.0, 41.5, 63.25, 80.0];
        let mut out = [0.0; 6];
        for lane in 0..3 {
            panel.anchor_lane(lane, &temps);
        }
        panel.currents_into(&temps, &mut out);
        for (k, &t) in temps[..3].iter().enumerate() {
            assert_eq!(out[k], big.current_a(t), "big lane {k}");
            assert_eq!(out[3 + k], gpu.current_a(t), "gpu lane {k}");
        }
    }

    #[test]
    fn anchor_lane_refreshes_one_lane_only() {
        // Anchoring lane 1 must give its cells the bits a fresh admission at
        // their temperatures gives them, and leave lanes 0 and 2 on their
        // construction anchor.
        let model = LeakageModel::exynos5410_big();
        let temps = [40.0, 55.5, 71.25, 43.0, 60.0, 88.5];
        let mut per_lane = LeakagePanel::filled(2, 3, &model, 52.0);
        per_lane.anchor_lane(1, &temps);
        let mut admitted = LeakagePanel::filled(2, 3, &model, 52.0);
        admitted.set_model(0, 1, &model, temps[1]);
        admitted.set_model(1, 1, &model, temps[4]);
        let untouched = LeakagePanel::filled(2, 3, &model, 52.0);
        for row in 0..2 {
            for lane in 0..3 {
                let k = row * 3 + lane;
                let expected = if lane == 1 { &admitted } else { &untouched };
                assert_eq!(per_lane.a0[k].to_bits(), expected.a0[k].to_bits(), "a0 {k}");
                assert_eq!(per_lane.e0[k].to_bits(), expected.e0[k].to_bits(), "e0 {k}");
            }
        }
    }

    #[test]
    fn leakage_panel_tracks_scalar_through_drift() {
        // Between re-anchors the temperatures drift; the anchored polynomial
        // must stay within floating-point rounding of the scalar model over
        // the documented drift budget.
        let model = LeakageModel::exynos5410_big();
        let mut panel = LeakagePanel::filled(1, 4, &model, 45.0);
        let anchor = [45.0, 55.0, 70.0, 85.0];
        for lane in 0..4 {
            panel.anchor_lane(lane, &anchor);
        }
        let mut out = [0.0; 4];
        for step in 0..=LeakagePanel::REANCHOR_STEPS {
            // Worst-case plant drift: ~0.06 K per micro-step.
            let temps: [f64; 4] = std::array::from_fn(|k| anchor[k] + 0.06 * step as f64);
            panel.currents_into(&temps, &mut out);
            for (k, &t) in temps.iter().enumerate() {
                let exact = model.current_a(t);
                let rel = ((out[k] - exact) / exact).abs();
                assert!(
                    rel < 5e-15,
                    "step {step} lane {k}: rel error {rel:.3e} ({} vs {exact})",
                    out[k]
                );
            }
        }
    }

    #[test]
    fn leakage_panel_is_anchored_from_construction() {
        // Regression for the NaN-until-first-anchor footgun: a freshly built
        // panel must be evaluable immediately, and at the construction anchor
        // temperature it must reproduce `current_a` bit for bit.
        let model = LeakageModel::exynos5410_big();
        let panel = LeakagePanel::filled(3, 2, &model, 52.0);
        let temps = [52.0; 6];
        let mut out = [0.0; 6];
        panel.currents_into(&temps, &mut out);
        for (k, &i) in out.iter().enumerate() {
            assert!(i.is_finite(), "cell {k} must be finite without anchoring");
            assert_eq!(i, model.current_a(52.0), "cell {k}");
        }
    }

    #[test]
    fn set_model_mid_run_never_reads_unanchored_exponential() {
        // A lane admitted into a running sweep swaps its models mid-flight,
        // between scheduled re-anchors. The swapped cell must evaluate to the
        // new model's exact current straight away — no NaN, no stale-anchor
        // drift from the old model.
        let big = LeakageModel::exynos5410_big();
        let gpu = LeakageModel::exynos5410_gpu();
        let mut panel = LeakagePanel::filled(1, 3, &big, 48.0);
        let mut out = [0.0; 3];
        // Drift the running lanes away from the anchor, as a sweep would.
        panel.currents_into(&[48.3, 48.3, 48.3], &mut out);

        // Admit a new scenario into lane 1 at a different temperature.
        panel.set_model(0, 1, &gpu, 61.0);
        panel.currents_into(&[48.3, 61.0, 48.3], &mut out);
        assert!(out.iter().all(|i| i.is_finite()));
        assert_eq!(out[1], gpu.current_a(61.0), "admitted lane is exact");
        // Neighbouring lanes keep tracking the old model within drift budget.
        let exact = big.current_a(48.3);
        for &lane in &[0usize, 2] {
            let rel = ((out[lane] - exact) / exact).abs();
            assert!(rel < 5e-15, "lane {lane} rel error {rel:.3e}");
        }
    }

    #[test]
    fn currents_kernel_arms_are_bit_identical() {
        // All dispatch arms perform the same per-cell operation sequence, so
        // they must agree to the bit — including at awkward span lengths that exercise the vector tail.
        let big = LeakageModel::exynos5410_big();
        let gpu = LeakageModel::exynos5410_gpu();
        for lanes in [1, 2, 3, 4, 5, 7, 8, 13] {
            let mut panel = LeakagePanel::filled(3, lanes, &big, 48.0);
            for lane in 0..lanes {
                panel.set_model(2, lane, &gpu, 48.0 + lane as f64);
            }
            let cells = 3 * lanes;
            let temps: Vec<f64> = (0..cells).map(|k| 48.0 + (k as f64) * 0.013).collect();
            let mut scalar = vec![0.0; cells];
            panel.currents_into_with(PanelKernel::Scalar, &temps, &mut scalar);
            let mut wide = vec![0.0; cells];
            panel.currents_into_with(PanelKernel::Avx2Fma, &temps, &mut wide);
            for (k, (s, w)) in scalar.iter().zip(&wide).enumerate() {
                assert_eq!(s.to_bits(), w.to_bits(), "lanes {lanes} cell {k}");
            }
        }
    }

    #[test]
    fn f32_panel_tracks_the_f64_oracle_through_drift() {
        // The f32 panel must stay within a few f32 ulps of the exact f64
        // model across the full anchored drift budget — the anchor is f64,
        // so only the span contributes f32 rounding.
        let model = LeakageModel::exynos5410_big();
        let mut panel = LeakagePanelF32::filled(1, 4, &model, 45.0);
        let anchor = [45.0f32, 55.0, 70.0, 85.0];
        panel.anchor_all(&anchor);
        let mut out = [0.0f32; 4];
        for step in 0..=LeakagePanelF32::REANCHOR_STEPS {
            let temps: [f32; 4] = std::array::from_fn(|k| anchor[k] + 0.06 * step as f32);
            panel.currents_into(&temps, &mut out);
            for (k, &t) in temps.iter().enumerate() {
                let exact = model.current_a(f64::from(t));
                let rel = ((f64::from(out[k]) - exact) / exact).abs();
                assert!(
                    rel < 1e-5,
                    "step {step} lane {k}: rel error {rel:.3e} ({} vs {exact})",
                    out[k]
                );
            }
        }
    }

    #[test]
    fn f32_panel_is_anchored_from_construction_and_on_admission() {
        let big = LeakageModel::exynos5410_big();
        let gpu = LeakageModel::exynos5410_gpu();
        let mut panel = LeakagePanelF32::filled(2, 3, &big, 52.0);
        assert_eq!(panel.rows(), 2);
        assert_eq!(panel.lanes(), 3);
        let temps = [52.0f32; 6];
        let mut out = [0.0f32; 6];
        panel.currents_into(&temps, &mut out);
        let exact = big.current_a(52.0);
        for (k, &i) in out.iter().enumerate() {
            assert!(i.is_finite(), "cell {k} must be finite without anchoring");
            let rel = ((f64::from(i) - exact) / exact).abs();
            assert!(rel < 1e-6, "cell {k}: rel error {rel:.3e}");
        }
        // Mid-sweep admission replaces model and anchor atomically.
        panel.set_model(1, 1, &gpu, 61.0);
        let temps = [52.0f32, 52.0, 52.0, 52.0, 61.0, 52.0];
        panel.currents_into(&temps, &mut out);
        let exact = gpu.current_a(61.0);
        let rel = ((f64::from(out[4]) - exact) / exact).abs();
        assert!(rel < 1e-6, "admitted cell: rel error {rel:.3e}");
    }

    #[test]
    fn f32_currents_kernel_arms_are_bit_identical() {
        // Like the f64 arms, both f32 arms perform the same per-cell f32
        // operation sequence — including at lengths exercising the 8-wide
        // AVX2 tail.
        let big = LeakageModel::exynos5410_big();
        let gpu = LeakageModel::exynos5410_gpu();
        for lanes in [1, 3, 4, 7, 8, 9, 16, 21] {
            let mut panel = LeakagePanelF32::filled(3, lanes, &big, 48.0);
            for lane in 0..lanes {
                panel.set_model(2, lane, &gpu, 48.0 + lane as f64);
            }
            let cells = 3 * lanes;
            let temps: Vec<f32> = (0..cells).map(|k| 48.0 + (k as f32) * 0.013).collect();
            let mut scalar = vec![0.0f32; cells];
            panel.currents_into_with(PanelKernel::Scalar, &temps, &mut scalar);
            let mut wide = vec![0.0f32; cells];
            panel.currents_into_with(PanelKernel::Avx2Fma, &temps, &mut wide);
            for (k, (s, w)) in scalar.iter().zip(&wide).enumerate() {
                assert_eq!(s.to_bits(), w.to_bits(), "lanes {lanes} cell {k}");
            }
        }
    }

    #[test]
    fn leakage_panel_validates_indices() {
        let model = LeakageModel::exynos5410_big();
        let panel = LeakagePanel::filled(2, 2, &model, 52.0);
        assert_eq!(panel.rows(), 2);
        assert_eq!(panel.lanes(), 2);
        let lane_out_of_bounds = std::panic::catch_unwind(|| {
            panel.clone().anchor_lane(5, &[40.0; 4]);
        });
        assert!(lane_out_of_bounds.is_err(), "out-of-bounds lane must panic");
        let short_temps = std::panic::catch_unwind(|| {
            let mut out = [0.0; 4];
            panel.currents_into(&[40.0, 40.0], &mut out);
        });
        assert!(short_temps.is_err(), "a short temperature panel must panic");
    }

    #[test]
    fn leakage_grows_with_temperature() {
        let m = LeakageModel::exynos5410_big();
        let mut last = 0.0;
        for t in [40.0, 50.0, 60.0, 70.0, 80.0] {
            let p = m.power_w(Voltage::from_volts(1.2), t);
            assert!(p > last, "leakage must be monotonic in temperature");
            last = p;
        }
    }

    #[test]
    fn big_cluster_leakage_matches_figure_4_3_shape() {
        // Figure 4.3: about 0.07-0.09 W at 40degC and 0.22-0.3 W at 80degC.
        let m = LeakageModel::exynos5410_big();
        let cool = m.power_w(Voltage::from_volts(1.2), 40.0);
        let hot = m.power_w(Voltage::from_volts(1.2), 80.0);
        assert!((0.05..0.12).contains(&cool), "cool leakage {cool}");
        assert!((0.20..0.35).contains(&hot), "hot leakage {hot}");
        assert!(hot / cool > 2.5 && hot / cool < 5.0, "ratio {}", hot / cool);
    }

    #[test]
    fn little_cluster_leaks_much_less_than_big() {
        let big = LeakageModel::exynos5410_big();
        let little = LeakageModel::exynos5410_little();
        for t in [40.0, 60.0, 80.0] {
            assert!(little.current_a(t) < 0.3 * big.current_a(t));
        }
    }

    #[test]
    fn leakage_power_scales_with_voltage() {
        let m = LeakageModel::exynos5410_big();
        let lo = m.power_w(Voltage::from_volts(0.92), 60.0);
        let hi = m.power_w(Voltage::from_volts(1.20), 60.0);
        assert!((hi / lo - 1.2 / 0.92).abs() < 1e-9);
    }

    #[test]
    fn fit_recovers_generated_parameters() {
        let truth = LeakageModel::exynos5410_big();
        let v = Voltage::from_volts(1.2);
        let dyn_const = 0.31;
        let samples: Vec<(f64, f64)> = (0..9)
            .map(|i| {
                let t = 40.0 + 5.0 * i as f64;
                (t, truth.power_w(v, t) + dyn_const)
            })
            .collect();
        let fitted = LeakageModel::fit_from_furnace(&samples, v, dyn_const).unwrap();
        for t in [40.0, 55.0, 70.0, 80.0] {
            let err = (fitted.power_w(v, t) - truth.power_w(v, t)).abs();
            assert!(err < 0.005, "fit error {err} W at {t} degC");
        }
    }

    #[test]
    fn fit_tolerates_measurement_noise() {
        let truth = LeakageModel::exynos5410_big();
        let v = Voltage::from_volts(1.2);
        let samples: Vec<(f64, f64)> = (0..9)
            .map(|i| {
                let t = 40.0 + 5.0 * i as f64;
                // Deterministic +-5 mW "noise".
                let noise = if i % 2 == 0 { 0.005 } else { -0.005 };
                (t, truth.power_w(v, t) + 0.31 + noise)
            })
            .collect();
        let fitted = LeakageModel::fit_from_furnace(&samples, v, 0.31).unwrap();
        for t in [45.0, 65.0, 75.0] {
            let rel = (fitted.power_w(v, t) - truth.power_w(v, t)).abs() / truth.power_w(v, t);
            assert!(rel < 0.15, "relative fit error {rel} at {t} degC");
        }
    }

    #[test]
    fn fit_rejects_too_few_samples() {
        let err = LeakageModel::fit_from_furnace(
            &[(40.0, 0.4), (50.0, 0.45)],
            Voltage::from_volts(1.2),
            0.3,
        )
        .unwrap_err();
        assert!(matches!(err, PowerError::InsufficientData { .. }));
    }

    #[test]
    fn fit_rejects_non_positive_voltage_and_negative_dynamic() {
        let samples = [(40.0, 0.4), (50.0, 0.45), (60.0, 0.5), (70.0, 0.55)];
        assert!(LeakageModel::fit_from_furnace(&samples, Voltage::from_volts(0.0), 0.3).is_err());
        assert!(LeakageModel::fit_from_furnace(&samples, Voltage::from_volts(1.2), -0.1).is_err());
    }

    #[test]
    fn kelvin_conversion() {
        assert!((celsius_to_kelvin(0.0) - 273.15).abs() < 1e-12);
        assert!((celsius_to_kelvin(40.0) - 313.15).abs() < 1e-12);
    }
}
