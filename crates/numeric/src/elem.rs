//! Element precision for the panel kernels: [`Elem`] abstracts the scalar
//! type (`f64` or `f32`) that [`crate::PanelT`] and the SIMD dispatch arms
//! operate on.
//!
//! The batched hot loops (the per-lane-bias affine step, elementwise fused
//! spans) are shape-identical at both widths; what differs is the vector
//! geometry — AVX2 carries 4 f64 or 8 f32 per 256-bit register — and the
//! rounding of each accumulate. `Elem` carries exactly that per-type
//! knowledge: the scalar accumulate primitives ([`Elem::madd`] /
//! [`Elem::madd2`], which round exactly like their [`crate::simd`] `f64`
//! twins) and the hooks that hand full [`crate::LANE_CHUNK`]-wide lane
//! chunks to the concrete `#[target_feature]` kernels (generic functions
//! cannot be `#[target_feature]`, so each impl forwards to monomorphic
//! intrinsics code in [`crate::simd`]).
//!
//! The trait is sealed: implementations promise that the all-zero byte
//! pattern is a valid value equal to [`Elem::ZERO`] (panel storage is
//! allocated with `alloc_zeroed`) and that the SIMD hooks round bit-for-bit
//! like the scalar primitives, lane by lane. `f64` and `f32` are the only
//! implementors.

use crate::simd::PanelKernel;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// A panel element type: `f64` (the default precision everywhere) or `f32`
/// (the mixed-precision engine's lane type). See the [module docs](self) for
/// the contract the SIMD hooks uphold.
pub trait Elem:
    sealed::Sealed + Copy + PartialEq + PartialOrd + std::fmt::Debug + Send + Sync + 'static
{
    /// The additive identity (also the value of zeroed storage).
    const ZERO: Self;

    /// Short type name for diagnostics and bench JSON (`"f64"` / `"f32"`).
    const NAME: &'static str;

    /// Demotes (or passes through) an `f64` value.
    fn from_f64(v: f64) -> Self;

    /// Promotes to `f64` (exact for both implementors).
    fn to_f64(self) -> f64;

    /// The per-element accumulate step `acc + a·x`: plain multiply-then-add,
    /// rounding exactly like the vector arms' per-lane operation.
    fn madd(a: Self, x: Self, acc: Self) -> Self;

    /// The fused two-term accumulate `acc + a·x + b·y` (`a`-term before
    /// `b`-term, like [`Elem::madd`]).
    fn madd2(a: Self, x: Self, b: Self, y: Self, acc: Self) -> Self;

    /// Hands the full lane chunks `[0, full)` of an affine-pair step with a
    /// per-lane bias *panel*, `out = bias + a·x + b·y`, to this type's
    /// vector kernel, returning how many lanes were handled (`full`, or 0
    /// when `kernel` has no vector arm on this host — the caller then runs
    /// the blocked scalar path).
    ///
    /// `a` and `b` cover `m × n` row-major, `x` and `y` `n × lanes`, `bias`
    /// and `out` `m × lanes`; `full` is a multiple of [`crate::LANE_CHUNK`]
    /// and ≤ `lanes`. Callers must pre-validate those extents.
    #[allow(clippy::too_many_arguments)]
    fn affine_panel_chunks(
        kernel: PanelKernel,
        a: &[Self],
        b: &[Self],
        bias: &[Self],
        x: &[Self],
        y: &[Self],
        out: &mut [Self],
        m: usize,
        n: usize,
        lanes: usize,
        full: usize,
    ) -> usize;

    /// Hands an entire elementwise span `out[k] = base[k] + coef[k]·cur[k]`
    /// (equal-length slices, pre-validated) to this type's vector kernel;
    /// returns `true` if handled (vector body plus an identically-rounding
    /// scalar tail), `false` when the caller should run the scalar loop.
    fn fused_span(
        kernel: PanelKernel,
        base: &[Self],
        coef: &[Self],
        cur: &[Self],
        out: &mut [Self],
    ) -> bool;
}

impl Elem for f64 {
    const ZERO: Self = 0.0;
    const NAME: &'static str = "f64";

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline(always)]
    fn madd(a: Self, x: Self, acc: Self) -> Self {
        crate::simd::madd(a, x, acc)
    }

    #[inline(always)]
    fn madd2(a: Self, x: Self, b: Self, y: Self, acc: Self) -> Self {
        crate::simd::madd2(a, x, b, y, acc)
    }

    #[allow(unused_variables)]
    fn affine_panel_chunks(
        kernel: PanelKernel,
        a: &[Self],
        b: &[Self],
        bias: &[Self],
        x: &[Self],
        y: &[Self],
        out: &mut [Self],
        m: usize,
        n: usize,
        lanes: usize,
        full: usize,
    ) -> usize {
        if full == 0 || !kernel.is_available() {
            return 0;
        }
        match kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: availability checked above; extents pre-validated.
            PanelKernel::Avx2Fma => unsafe {
                crate::simd::avx2::affine_panel_chunks(a, b, bias, x, y, out, m, n, lanes, full);
                full
            },
            _ => 0,
        }
    }

    #[allow(unused_variables)]
    fn fused_span(
        kernel: PanelKernel,
        base: &[Self],
        coef: &[Self],
        cur: &[Self],
        out: &mut [Self],
    ) -> bool {
        if !kernel.is_available() {
            return false;
        }
        match kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: availability checked above; lengths pre-validated.
            PanelKernel::Avx2Fma => unsafe {
                crate::simd::avx2::fused_mul_add_span(base, coef, cur, out);
                true
            },
            _ => false,
        }
    }
}

impl Elem for f32 {
    const ZERO: Self = 0.0;
    const NAME: &'static str = "f32";

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }

    #[inline(always)]
    fn madd(a: Self, x: Self, acc: Self) -> Self {
        crate::simd::madd_f32(a, x, acc)
    }

    #[inline(always)]
    fn madd2(a: Self, x: Self, b: Self, y: Self, acc: Self) -> Self {
        crate::simd::madd2_f32(a, x, b, y, acc)
    }

    #[allow(unused_variables)]
    fn affine_panel_chunks(
        kernel: PanelKernel,
        a: &[Self],
        b: &[Self],
        bias: &[Self],
        x: &[Self],
        y: &[Self],
        out: &mut [Self],
        m: usize,
        n: usize,
        lanes: usize,
        full: usize,
    ) -> usize {
        if full == 0 || !kernel.is_available() {
            return 0;
        }
        match kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: availability checked above; extents pre-validated.
            PanelKernel::Avx2Fma => unsafe {
                crate::simd::avx2::affine_panel_chunks_f32(
                    a, b, bias, x, y, out, m, n, lanes, full,
                );
                full
            },
            _ => 0,
        }
    }

    #[allow(unused_variables)]
    fn fused_span(
        kernel: PanelKernel,
        base: &[Self],
        coef: &[Self],
        cur: &[Self],
        out: &mut [Self],
    ) -> bool {
        if !kernel.is_available() {
            return false;
        }
        match kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: availability checked above; lengths pre-validated.
            PanelKernel::Avx2Fma => unsafe {
                crate::simd::avx2::fused_mul_add_span_f32(base, coef, cur, out);
                true
            },
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip_exactly() {
        assert_eq!(f64::from_f64(1.25), 1.25);
        assert_eq!(1.25f64.to_f64(), 1.25);
        assert_eq!(f32::from_f64(1.25), 1.25f32);
        assert_eq!(1.25f32.to_f64(), 1.25);
        assert_eq!(f64::NAME, "f64");
        assert_eq!(f32::NAME, "f32");
        assert_eq!(f64::ZERO, 0.0);
        assert_eq!(f32::ZERO, 0.0);
    }

    #[test]
    fn generic_madd_matches_the_concrete_primitives() {
        assert_eq!(
            <f64 as Elem>::madd(1.5, 2.0, 0.25),
            crate::simd::madd(1.5, 2.0, 0.25)
        );
        assert_eq!(
            <f64 as Elem>::madd2(1.5, 2.0, 3.0, 4.0, 0.25),
            crate::simd::madd2(1.5, 2.0, 3.0, 4.0, 0.25)
        );
        assert_eq!(
            <f32 as Elem>::madd(1.5, 2.0, 0.25),
            crate::simd::madd_f32(1.5, 2.0, 0.25)
        );
        assert_eq!(
            <f32 as Elem>::madd2(1.5, 2.0, 3.0, 4.0, 0.25),
            crate::simd::madd2_f32(1.5, 2.0, 3.0, 4.0, 0.25)
        );
    }

    #[test]
    fn scalar_kernel_hooks_decline_the_work() {
        let a = [1.0f64; 4];
        let bias = [0.0f64; 8];
        let x = [1.0f64; 32];
        let mut out = [0.0f64; 8];
        assert_eq!(
            f64::affine_panel_chunks(
                PanelKernel::Scalar,
                &a,
                &a,
                &bias,
                &x,
                &x,
                &mut out,
                1,
                4,
                8,
                8
            ),
            0
        );
        let mut out32 = [0.0f32; 8];
        assert!(!f32::fused_span(
            PanelKernel::Scalar,
            &[0.0; 8],
            &[0.0; 8],
            &[0.0; 8],
            &mut out32
        ));
    }
}
