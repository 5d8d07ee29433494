//! Small, dependency-free numerical substrate for the DTPM reproduction.
//!
//! The paper's methodology relies on three numerical building blocks that are
//! normally delegated to MATLAB:
//!
//! * dense linear algebra for the discrete thermal state-space model
//!   `T[k+1] = As·T[k] + Bs·P[k]` ([`Matrix`], [`Vector`]),
//! * linear least squares for system identification of `As` and `Bs`
//!   ([`lstsq`](mod@lstsq)),
//! * nonlinear least squares for fitting the leakage model
//!   `I_leak = c1·T²·e^(c2/T) + I_gate` to furnace measurements ([`fit`]).
//!
//! On top of those, [`stats`] provides the descriptive statistics used by the
//! evaluation (variance, max–min spread, RMSE, MAPE, fit percentage) and
//! [`interp`] provides the table interpolation used by voltage/frequency maps.
//!
//! For batched scenario evaluation, [`panel`] adds the structure-of-arrays
//! [`Panel`] (one scenario per column, [`PANEL_ALIGN`]-byte-aligned storage)
//! and the blocked panel kernels that advance many scenarios per instruction
//! stream with each matrix loaded once per step: the per-lane-bias affine
//! step [`affine_panel_bias_apply_elem`] every batched engine's transition
//! runs, and the f64 broadcast-bias [`affine_pair_apply`] of the batched
//! predictor. Panels are generic over element precision via the sealed
//! [`Elem`] trait ([`PanelT`]; `Panel` is `PanelT<f64>`, [`PanelF32`] is
//! `PanelT<f32>`), and the bias step and the elementwise
//! [`fused_mul_add_span`] serve both widths from one code path.
//!
//! # Kernel dispatch
//!
//! The panel kernels run through an explicit SIMD backend ([`simd`]):
//!
//! * **Selection** happens once per process. [`PanelKernel::active`] probes
//!   the host at first use (`is_x86_feature_detected!("avx2")` on x86-64)
//!   and caches the widest available arm — AVX2 (4 f64 or 8 f32 per vector)
//!   or the portable blocked scalar code, which every other host runs.
//! * **Override for testing**: set [`KERNEL_ENV`] (`DTPM_PANEL_KERNEL`) to
//!   `scalar`, `avx2` or `auto`. Naming an arm the host cannot run panics
//!   rather than silently degrading. Each kernel entry point also has a
//!   `*_with` form taking an explicit [`PanelKernel`] so equivalence suites
//!   and benchmarks can compare arms inside one process.
//! * **Bit-identical arms**: both arms perform the same per-lane sequence of
//!   IEEE-754 multiplies and adds, so a lane's result is bit-for-bit
//!   independent of the arm that produced it — the scalar-vs-batched
//!   equivalence suites double as the SIMD oracle.
//!
//! # Precision selection
//!
//! The bias step, the fused span and the leakage spans exist at two element
//! widths: the default f64 path and an f32 path reached through
//! [`PanelF32`] (AVX2 carries 8 f32 lanes per vector instead of 4, and every
//! panel byte moved per micro-step halves). Guidance for choosing:
//!
//! * **When f32 is safe.** The thermal state spans ~25–95 °C, where f32 has
//!   ≈ 4–8 µ°C of resolution — three orders of magnitude below both sensor
//!   quantisation and the 1e-3 °C trajectory budget the mixed-precision
//!   engine is validated against. Numerically sensitive *setup* work
//!   (state-space discretisation, leakage anchoring via `libm` exp,
//!   least-squares fits) always stays in f64 and is demoted once per control
//!   interval, so f32 only ever integrates short inter-anchor spans.
//! * **Measured error** (16-lane paper-scale sweep shape, f32 vs f64 oracle;
//!   see `BENCH_mixed_precision.json` and the `mixed_precision` proptests):
//!   worst-case trajectory divergence stays below the 1e-3 °C budget with
//!   over two orders of headroom (~4e-6 °C measured), per-lane energy
//!   totals agree within 0.01 %, and
//!   `SafetyLadder` rung transitions agree exactly on every tested run.
//! * **Speed.** End to end the f32 engine is slower than the f64 one on
//!   the campaign benchmark's paper grid (its `arm.lanes-*.f32` rows), so
//!   campaigns default to f64.
//! * **Bit-identity caveat.** The f32 arms are bit-identical *to each other*
//!   (same per-lane IEEE-754 operation order on scalar and AVX2, like the
//!   f64 arms) but not to the f64 path; cross-width comparisons are
//!   budgeted, not exact.
//!
//! # Example
//!
//! ```
//! use numeric::{Matrix, Vector};
//!
//! # fn main() -> Result<(), numeric::NumericError> {
//! // Solve a small linear system A x = b.
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let b = Vector::from_slice(&[1.0, 2.0]);
//! let x = a.solve(&b)?;
//! assert!((a.mul_vector(&x)? - b).norm() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aligned;
pub mod codec;
pub mod elem;
pub mod fit;
pub mod interp;
pub mod lstsq;
pub mod matrix;
pub mod panel;
pub mod simd;
pub mod solve;
pub mod stats;

mod error;

pub use aligned::PANEL_ALIGN;
pub use codec::{crc32, ByteReader, ByteWriter, CodecError};
pub use elem::Elem;
pub use error::NumericError;
pub use fit::{levenberg_marquardt, FitOptions, FitReport};
pub use interp::{interp1, Table1d};
pub use lstsq::{lstsq, ridge_lstsq};
pub use matrix::{Matrix, Vector};
pub use panel::{
    affine_pair_apply, affine_pair_apply_with, affine_panel_bias_apply_elem,
    affine_panel_bias_apply_elem_with, Panel, PanelF32, PanelT, LANE_CHUNK,
};
pub use simd::{
    fused_mul_add_span, fused_mul_add_span_with, madd2_f32, madd_f32, PanelKernel, KERNEL_ENV,
};
pub use solve::LuDecomposition;
pub use stats::{Summary, Welford};
