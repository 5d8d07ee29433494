//! Structure-of-arrays panels: one scenario per column.
//!
//! A [`Panel`] holds the same state vector for `lanes` independent scenarios
//! side by side: row `i` stores element `i` of every scenario contiguously, so
//! column `l` is scenario `l`'s state scattered at stride `lanes`. Batched
//! kernels walk a row across all lanes with unit stride, which is exactly the
//! layout wide vector loads want and what lets an `n × n` transition matrix be
//! loaded *once* per step for every scenario instead of once per scenario.
//! Panel storage is allocated at [`crate::PANEL_ALIGN`]-byte boundaries (see
//! [`crate::aligned`]) so those wide loads never straddle cache lines.
//!
//! The panel kernels ([`Matrix::mul_panel_into`], [`affine_pair_apply`])
//! process lanes in fixed-width chunks of [`LANE_CHUNK`] through the SIMD arm
//! selected by [`PanelKernel::active`] (see [`crate::simd`] for the dispatch
//! and equivalence contract), falling back to register-blocked scalar code for
//! the remainder lanes and on hosts without a vector unit. Every arm
//! accumulates each lane in the same per-lane order (`j = 0..n`, `A`-term
//! before `B`-term), so a lane's result is bit-identical no matter which arm
//! processed it or how many lanes surround it.
//!
//! # Example
//!
//! ```
//! use numeric::{Matrix, Panel};
//!
//! # fn main() -> Result<(), numeric::NumericError> {
//! // Two scenarios advanced by the same 2×2 map in one pass.
//! let a = Matrix::from_rows(&[&[0.5, 0.0], &[0.0, 2.0]])?;
//! let mut x = Panel::zeros(2, 2);
//! x.set_column(0, &[1.0, 1.0]);
//! x.set_column(1, &[4.0, 4.0]);
//! let mut out = Panel::zeros(2, 2);
//! a.mul_panel_into(&x, &mut out)?;
//! assert_eq!(out.column(0), vec![0.5, 2.0]);
//! assert_eq!(out.column(1), vec![2.0, 8.0]);
//! # Ok(())
//! # }
//! ```

use crate::aligned::{AlignedVec, PANEL_ALIGN};
use crate::elem::Elem;
use crate::matrix::Matrix;
use crate::simd::PanelKernel;
use crate::NumericError;

/// Width of the register-blocked fast path of the panel kernels.
pub const LANE_CHUNK: usize = 8;

/// The default double-precision panel every existing path uses.
pub type Panel = PanelT<f64>;

/// A single-precision panel: same layout as [`Panel`] at half the width, so
/// every 256-bit vector carries 8 lanes instead of 4. Used by the
/// mixed-precision engine; see [`crate::simd`] for the precision-selection
/// guide.
pub type PanelF32 = PanelT<f32>;

/// A structure-of-arrays panel: `rows` state elements for `lanes` independent
/// scenarios, stored row-major (`data[i * lanes + l]` is element `i` of
/// scenario `l`) in [`crate::PANEL_ALIGN`]-byte-aligned storage, generic over
/// the element precision ([`Elem`]: `f64` or `f32`).
#[derive(Debug, Clone, PartialEq)]
pub struct PanelT<E: Elem> {
    rows: usize,
    lanes: usize,
    data: AlignedVec<E>,
}

impl<E: Elem> PanelT<E> {
    /// Creates a `rows × lanes` panel filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `lanes` is zero.
    pub fn zeros(rows: usize, lanes: usize) -> Self {
        assert!(rows > 0 && lanes > 0, "panel dimensions must be non-zero");
        let data = AlignedVec::zeroed(rows * lanes);
        debug_assert_eq!(
            data.as_ptr() as usize % PANEL_ALIGN,
            0,
            "panel storage must be {PANEL_ALIGN}-byte aligned"
        );
        PanelT { rows, lanes, data }
    }

    /// Number of state rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of scenario lanes (columns).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Row `i` across all lanes, unit stride.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[E] {
        assert!(i < self.rows, "panel row index out of bounds");
        &self.data[i * self.lanes..(i + 1) * self.lanes]
    }

    /// Mutable row `i` across all lanes.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [E] {
        assert!(i < self.rows, "panel row index out of bounds");
        &mut self.data[i * self.lanes..(i + 1) * self.lanes]
    }

    /// Element `i` of scenario `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `lane` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, lane: usize) -> E {
        assert!(
            i < self.rows && lane < self.lanes,
            "panel index out of bounds"
        );
        self.data[i * self.lanes + lane]
    }

    /// Sets element `i` of scenario `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `lane` is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, lane: usize, value: E) {
        assert!(
            i < self.rows && lane < self.lanes,
            "panel index out of bounds"
        );
        self.data[i * self.lanes + lane] = value;
    }

    /// Copies scenario `lane`'s state vector into the panel (one value per
    /// row).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of bounds or `values.len() != self.rows()`.
    pub fn set_column(&mut self, lane: usize, values: &[E]) {
        assert!(lane < self.lanes, "panel lane index out of bounds");
        assert_eq!(values.len(), self.rows, "column length mismatch");
        for (i, &v) in values.iter().enumerate() {
            self.data[i * self.lanes + lane] = v;
        }
    }

    /// Extracts scenario `lane`'s state vector into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of bounds or `out.len() != self.rows()`.
    pub fn column_into(&self, lane: usize, out: &mut [E]) {
        assert!(lane < self.lanes, "panel lane index out of bounds");
        assert_eq!(out.len(), self.rows, "column length mismatch");
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.data[i * self.lanes + lane];
        }
    }

    /// Scenario `lane`'s state vector as a fresh `Vec` (allocating
    /// convenience over [`PanelT::column_into`]).
    pub fn column(&self, lane: usize) -> Vec<E> {
        let mut out = vec![E::ZERO; self.rows];
        self.column_into(lane, &mut out);
        out
    }

    /// Fills the whole panel with `value`.
    pub fn fill(&mut self, value: E) {
        self.data.fill(value);
    }

    /// The underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[E] {
        &self.data
    }

    /// The underlying row-major storage, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [E] {
        &mut self.data
    }
}

impl Matrix {
    /// The `i`-th row as a borrowed slice — the allocation-free form of
    /// [`Matrix::row`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row_slice(&self, i: usize) -> &[f64] {
        assert!(i < self.rows(), "row index out of bounds");
        &self.as_slice()[i * self.cols()..(i + 1) * self.cols()]
    }

    /// Matrix–panel product `out = self · x`: advances every scenario column
    /// of `x` through the same linear map in one pass, loading each matrix
    /// entry once for all lanes.
    ///
    /// Full chunks of [`LANE_CHUNK`] lanes go through the SIMD arm selected
    /// by [`PanelKernel::active`]; remainder lanes take the blocked scalar
    /// path. Every lane accumulates in the same order regardless of arm, so
    /// results are bit-identical across chunk boundaries, lane counts and
    /// (in the default build) dispatch arms — see [`crate::simd`].
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `self.cols() != x.rows()`
    /// or `out` is not `self.rows() × x.lanes()`.
    pub fn mul_panel_into(&self, x: &Panel, out: &mut Panel) -> Result<(), NumericError> {
        self.mul_panel_into_with(PanelKernel::active(), x, out)
    }

    /// [`Matrix::mul_panel_into`] through an explicit [`PanelKernel`] arm
    /// (testing/benching form; an unavailable kernel degrades to scalar).
    ///
    /// # Errors
    ///
    /// As for [`Matrix::mul_panel_into`].
    pub fn mul_panel_into_with(
        &self,
        kernel: PanelKernel,
        x: &Panel,
        out: &mut Panel,
    ) -> Result<(), NumericError> {
        if self.cols() != x.rows() {
            return Err(NumericError::DimensionMismatch {
                operation: "matrix-panel multiplication",
                left: (self.rows(), self.cols()),
                right: (x.rows(), x.lanes()),
            });
        }
        if out.rows != self.rows() || out.lanes != x.lanes {
            return Err(NumericError::DimensionMismatch {
                operation: "matrix-panel output",
                left: (self.rows(), x.lanes),
                right: (out.rows, out.lanes),
            });
        }
        let (m, n, lanes) = (self.rows(), self.cols(), x.lanes);
        fused_panel_kernel::<f64>(
            kernel,
            self.as_slice(),
            None,
            None,
            x.as_slice(),
            None,
            &mut out.data,
            m,
            n,
            lanes,
        );
        Ok(())
    }
}

/// Width-generic matrix–panel product `out = a · x`, where the `m × n`
/// "matrix" is itself a [`PanelT`] (`rows() = m`, `lanes() = n`, row-major —
/// the exact [`Matrix`] layout at either precision). This is the f32-capable
/// twin of [`Matrix::mul_panel_into`], dispatched through
/// [`PanelKernel::active`].
///
/// # Errors
///
/// Returns [`NumericError::DimensionMismatch`] if `a.lanes() != x.rows()` or
/// `out` is not `a.rows() × x.lanes()`.
pub fn mul_panel_into_elem<E: Elem>(
    a: &PanelT<E>,
    x: &PanelT<E>,
    out: &mut PanelT<E>,
) -> Result<(), NumericError> {
    mul_panel_into_elem_with(PanelKernel::active(), a, x, out)
}

/// [`mul_panel_into_elem`] through an explicit [`PanelKernel`] arm
/// (testing/benching form; an unavailable kernel degrades to scalar).
///
/// # Errors
///
/// As for [`mul_panel_into_elem`].
pub fn mul_panel_into_elem_with<E: Elem>(
    kernel: PanelKernel,
    a: &PanelT<E>,
    x: &PanelT<E>,
    out: &mut PanelT<E>,
) -> Result<(), NumericError> {
    if a.lanes != x.rows {
        return Err(NumericError::DimensionMismatch {
            operation: "matrix-panel multiplication",
            left: (a.rows, a.lanes),
            right: (x.rows, x.lanes),
        });
    }
    if out.rows != a.rows || out.lanes != x.lanes {
        return Err(NumericError::DimensionMismatch {
            operation: "matrix-panel output",
            left: (a.rows, x.lanes),
            right: (out.rows, out.lanes),
        });
    }
    let (m, n, lanes) = (a.rows, a.lanes, x.lanes);
    fused_panel_kernel::<E>(
        kernel,
        a.as_slice(),
        None,
        None,
        x.as_slice(),
        None,
        &mut out.data,
        m,
        n,
        lanes,
    );
    Ok(())
}

/// Fused affine panel step `out = bias ⊗ 1ᵀ + a·x + b·y`.
///
/// This is the batched form of one affine transition applied to `x.lanes()`
/// scenarios at once: both matrices are streamed through the cache a single
/// time per call, and the inner loops run across lanes at unit stride through
/// the SIMD arm selected by [`PanelKernel::active`]. For each output element
/// the accumulation order is `bias`, then for `j = 0..n` the `a`-term
/// followed by the `b`-term — the same order for every lane and arm, and
/// identical to a scalar column-major (axpy) evaluation, which is what makes
/// batched and scalar transition stepping agree to the last bit (see
/// [`crate::simd`] for the `fma`-build contract).
///
/// # Errors
///
/// Returns [`NumericError::DimensionMismatch`] if the matrix shapes differ,
/// `bias` does not cover the output rows, the panels disagree in shape, or
/// `out` is not `a.rows() × x.lanes()`.
pub fn affine_pair_apply(
    a: &Matrix,
    b: &Matrix,
    bias: &[f64],
    x: &Panel,
    y: &Panel,
    out: &mut Panel,
) -> Result<(), NumericError> {
    affine_pair_apply_with(PanelKernel::active(), a, b, bias, x, y, out)
}

/// [`affine_pair_apply`] through an explicit [`PanelKernel`] arm
/// (testing/benching form; an unavailable kernel degrades to scalar).
///
/// # Errors
///
/// As for [`affine_pair_apply`].
pub fn affine_pair_apply_with(
    kernel: PanelKernel,
    a: &Matrix,
    b: &Matrix,
    bias: &[f64],
    x: &Panel,
    y: &Panel,
    out: &mut Panel,
) -> Result<(), NumericError> {
    if a.rows() != b.rows() || a.cols() != b.cols() {
        return Err(NumericError::DimensionMismatch {
            operation: "affine panel pair",
            left: (a.rows(), a.cols()),
            right: (b.rows(), b.cols()),
        });
    }
    if a.cols() != x.rows() || x.rows != y.rows || x.lanes != y.lanes {
        return Err(NumericError::DimensionMismatch {
            operation: "affine panel inputs",
            left: (a.cols(), x.lanes),
            right: (y.rows, y.lanes),
        });
    }
    if bias.len() != a.rows() || out.rows != a.rows() || out.lanes != x.lanes {
        return Err(NumericError::DimensionMismatch {
            operation: "affine panel output",
            left: (a.rows(), x.lanes),
            right: (out.rows, out.lanes),
        });
    }
    let (m, n, lanes) = (a.rows(), a.cols(), x.lanes);
    fused_panel_kernel::<f64>(
        kernel,
        a.as_slice(),
        Some(b.as_slice()),
        Some(bias),
        x.as_slice(),
        Some(y.as_slice()),
        &mut out.data,
        m,
        n,
        lanes,
    );
    Ok(())
}

/// Width-generic fused affine panel step `out = bias ⊗ 1ᵀ + a·x + b·y`,
/// where the `m × n` matrices are [`PanelT`]s (`rows() = m`, `lanes() = n`,
/// row-major). This is the f32-capable twin of [`affine_pair_apply`] — the
/// batched thermal transition's hot loop — with the same per-lane
/// accumulation-order contract, dispatched through [`PanelKernel::active`].
///
/// # Errors
///
/// Returns [`NumericError::DimensionMismatch`] under the same conditions as
/// [`affine_pair_apply`].
pub fn affine_pair_apply_elem<E: Elem>(
    a: &PanelT<E>,
    b: &PanelT<E>,
    bias: &[E],
    x: &PanelT<E>,
    y: &PanelT<E>,
    out: &mut PanelT<E>,
) -> Result<(), NumericError> {
    affine_pair_apply_elem_with(PanelKernel::active(), a, b, bias, x, y, out)
}

/// [`affine_pair_apply_elem`] through an explicit [`PanelKernel`] arm
/// (testing/benching form; an unavailable kernel degrades to scalar).
///
/// # Errors
///
/// As for [`affine_pair_apply_elem`].
#[allow(clippy::too_many_arguments)]
pub fn affine_pair_apply_elem_with<E: Elem>(
    kernel: PanelKernel,
    a: &PanelT<E>,
    b: &PanelT<E>,
    bias: &[E],
    x: &PanelT<E>,
    y: &PanelT<E>,
    out: &mut PanelT<E>,
) -> Result<(), NumericError> {
    if a.rows != b.rows || a.lanes != b.lanes {
        return Err(NumericError::DimensionMismatch {
            operation: "affine panel pair",
            left: (a.rows, a.lanes),
            right: (b.rows, b.lanes),
        });
    }
    if a.lanes != x.rows || x.rows != y.rows || x.lanes != y.lanes {
        return Err(NumericError::DimensionMismatch {
            operation: "affine panel inputs",
            left: (a.lanes, x.lanes),
            right: (y.rows, y.lanes),
        });
    }
    if bias.len() != a.rows || out.rows != a.rows || out.lanes != x.lanes {
        return Err(NumericError::DimensionMismatch {
            operation: "affine panel output",
            left: (a.rows, x.lanes),
            right: (out.rows, out.lanes),
        });
    }
    let (m, n, lanes) = (a.rows, a.lanes, x.lanes);
    fused_panel_kernel::<E>(
        kernel,
        a.as_slice(),
        Some(b.as_slice()),
        Some(bias),
        x.as_slice(),
        Some(y.as_slice()),
        &mut out.data,
        m,
        n,
        lanes,
    );
    Ok(())
}

/// Width-generic fused affine panel step with a per-lane bias *panel*:
/// `out = bias + a·x + b·y`, where `bias` is `m × lanes` (the same layout as
/// `out`) instead of a per-row broadcast vector. This is the transition-apply
/// shape used by the mixed-precision delta-form engine: the constant per-lane
/// drive `c + (R − I)·T0` rides in through the accumulator initialisation (a
/// plain vector load), so it costs no separate read-modify-write pass over
/// the deviation panel. Accumulation order per output element is the bias
/// element, then for `j = 0..n` the `a`-term followed by the `b`-term — the
/// same contract as [`affine_pair_apply_elem`], upheld identically by every
/// arm.
///
/// # Errors
///
/// Returns [`NumericError::DimensionMismatch`] if the matrix panels disagree
/// in shape, the inputs do not match, or `bias`/`out` is not
/// `a.rows() × x.lanes()`.
pub fn affine_panel_bias_apply_elem<E: Elem>(
    a: &PanelT<E>,
    b: &PanelT<E>,
    bias: &PanelT<E>,
    x: &PanelT<E>,
    y: &PanelT<E>,
    out: &mut PanelT<E>,
) -> Result<(), NumericError> {
    affine_panel_bias_apply_elem_with(PanelKernel::active(), a, b, bias, x, y, out)
}

/// [`affine_panel_bias_apply_elem`] through an explicit [`PanelKernel`] arm
/// (testing/benching form; an unavailable kernel degrades to scalar).
///
/// # Errors
///
/// As for [`affine_panel_bias_apply_elem`].
#[allow(clippy::too_many_arguments)]
pub fn affine_panel_bias_apply_elem_with<E: Elem>(
    kernel: PanelKernel,
    a: &PanelT<E>,
    b: &PanelT<E>,
    bias: &PanelT<E>,
    x: &PanelT<E>,
    y: &PanelT<E>,
    out: &mut PanelT<E>,
) -> Result<(), NumericError> {
    if a.rows != b.rows || a.lanes != b.lanes {
        return Err(NumericError::DimensionMismatch {
            operation: "affine panel pair",
            left: (a.rows, a.lanes),
            right: (b.rows, b.lanes),
        });
    }
    if a.lanes != x.rows || x.rows != y.rows || x.lanes != y.lanes {
        return Err(NumericError::DimensionMismatch {
            operation: "affine panel inputs",
            left: (a.lanes, x.lanes),
            right: (y.rows, y.lanes),
        });
    }
    if bias.rows != a.rows || bias.lanes != x.lanes || out.rows != a.rows || out.lanes != x.lanes {
        return Err(NumericError::DimensionMismatch {
            operation: "affine panel bias/output",
            left: (a.rows, x.lanes),
            right: (out.rows, out.lanes),
        });
    }
    let (m, n, lanes) = (a.rows, a.lanes, x.lanes);
    let kernel = if kernel.is_available() {
        kernel
    } else {
        PanelKernel::Scalar
    };
    let (a_data, b_data, bias_data) = (a.as_slice(), b.as_slice(), bias.as_slice());
    let (x_data, y_data) = (x.as_slice(), y.as_slice());
    let out = &mut out.data;
    let full = lanes - lanes % LANE_CHUNK;
    let handled = E::affine_panel_chunks(
        kernel, a_data, b_data, bias_data, x_data, y_data, out, m, n, lanes, full,
    );
    if handled == lanes {
        return Ok(());
    }

    // Scalar arm and remainder: same row blocking as [`fused_panel_kernel`],
    // with the accumulators seeded from the bias panel row instead of a
    // broadcast.
    let mut i = 0;
    while i + 2 <= m {
        let mut off = handled;
        while off + LANE_CHUNK <= lanes {
            scalar_rows_bias_panel::<E, 2>(
                a_data, b_data, bias_data, x_data, y_data, out, i, n, lanes, off, LANE_CHUNK,
            );
            off += LANE_CHUNK;
        }
        if off < lanes {
            scalar_rows_bias_panel::<E, 2>(
                a_data,
                b_data,
                bias_data,
                x_data,
                y_data,
                out,
                i,
                n,
                lanes,
                off,
                lanes - off,
            );
        }
        i += 2;
    }
    if i < m {
        let mut off = handled;
        while off + LANE_CHUNK <= lanes {
            scalar_rows_bias_panel::<E, 1>(
                a_data, b_data, bias_data, x_data, y_data, out, i, n, lanes, off, LANE_CHUNK,
            );
            off += LANE_CHUNK;
        }
        if off < lanes {
            scalar_rows_bias_panel::<E, 1>(
                a_data,
                b_data,
                bias_data,
                x_data,
                y_data,
                out,
                i,
                n,
                lanes,
                off,
                lanes - off,
            );
        }
    }
    Ok(())
}

/// Shared dispatching kernel behind [`Matrix::mul_panel_into`],
/// [`affine_pair_apply`] and their width-generic `_elem` twins, operating on
/// raw row-major slices so one monomorphisation per element type serves both
/// the [`Matrix`]-fronted f64 API and the panel-as-matrix f32 API. `b_data` /
/// `y_data` are `None` for the single-matrix product; a `None` bias means all
/// zeros (no allocation). Dimensions are assumed pre-validated: `a` (and `b`)
/// cover `m × n`, `x` (and `y`) `n × lanes`, `out` `m × lanes`.
///
/// The requested arm (degraded to scalar if unavailable on this host, routed
/// through the [`Elem`] chunk hooks) handles the full [`LANE_CHUNK`]-wide
/// chunks `[0, full)`; the remainder lanes always take [`scalar_rows`]. Both
/// produce bit-identical lanes — see [`crate::simd`].
#[allow(clippy::too_many_arguments)]
fn fused_panel_kernel<E: Elem>(
    kernel: PanelKernel,
    a_data: &[E],
    b_data: Option<&[E]>,
    bias: Option<&[E]>,
    x_data: &[E],
    y_data: Option<&[E]>,
    out: &mut [E],
    m: usize,
    n: usize,
    lanes: usize,
) {
    let full = lanes - lanes % LANE_CHUNK;

    let kernel = if kernel.is_available() {
        kernel
    } else {
        PanelKernel::Scalar
    };
    let handled = match (b_data, y_data) {
        (Some(bd), Some(yd)) => {
            E::affine_chunks(kernel, a_data, bd, bias, x_data, yd, out, m, n, lanes, full)
        }
        _ => E::mul_chunks(kernel, a_data, bias, x_data, out, m, n, lanes, full),
    };
    if handled == lanes {
        return;
    }

    // Scalar arm and remainder: rows outer so each row's bias is read once
    // (not once per lane chunk), two output rows per pass so each loaded
    // input row is applied twice. Full chunks call the width-generic helper
    // with the literal `LANE_CHUNK` so constant propagation recovers the
    // fixed-trip-count inner loops the autovectorizer needs.
    let mut i = 0;
    while i + 2 <= m {
        let biases = [bias_at(bias, i), bias_at(bias, i + 1)];
        let mut off = handled;
        while off + LANE_CHUNK <= lanes {
            scalar_rows::<E, 2>(
                a_data, b_data, biases, x_data, y_data, out, i, n, lanes, off, LANE_CHUNK,
            );
            off += LANE_CHUNK;
        }
        if off < lanes {
            scalar_rows::<E, 2>(
                a_data,
                b_data,
                biases,
                x_data,
                y_data,
                out,
                i,
                n,
                lanes,
                off,
                lanes - off,
            );
        }
        i += 2;
    }
    if i < m {
        let biases = [bias_at(bias, i)];
        let mut off = handled;
        while off + LANE_CHUNK <= lanes {
            scalar_rows::<E, 1>(
                a_data, b_data, biases, x_data, y_data, out, i, n, lanes, off, LANE_CHUNK,
            );
            off += LANE_CHUNK;
        }
        if off < lanes {
            scalar_rows::<E, 1>(
                a_data,
                b_data,
                biases,
                x_data,
                y_data,
                out,
                i,
                n,
                lanes,
                off,
                lanes - off,
            );
        }
    }
}

#[inline(always)]
fn bias_at<E: Elem>(bias: Option<&[E]>, i: usize) -> E {
    bias.map_or(E::ZERO, |b| b[i])
}

/// Width- and precision-generic scalar body of the panel kernels:
/// accumulates `R` output rows starting at `i` over lanes
/// `[off, off + width)` (`width <=` [`LANE_CHUNK`]). The single helper serves
/// the blocked full-chunk pass, the odd-row tail and the remainder lanes, so
/// all of them share one accumulation order by construction — per lane,
/// `bias`, then for each `j` the `a`-term before the `b`-term, through the
/// [`Elem::madd`] / [`Elem::madd2`] primitives (identical to
/// [`crate::simd::madd`] / [`crate::simd::madd2`] and their f32 twins).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn scalar_rows<E: Elem, const R: usize>(
    a_data: &[E],
    b_data: Option<&[E]>,
    biases: [E; R],
    x_data: &[E],
    y_data: Option<&[E]>,
    out: &mut [E],
    i: usize,
    n: usize,
    lanes: usize,
    off: usize,
    width: usize,
) {
    let mut acc = [[E::ZERO; LANE_CHUNK]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        *row = [biases[r]; LANE_CHUNK];
    }
    match (b_data, y_data) {
        (Some(bd), Some(yd)) => {
            for j in 0..n {
                let x_row = &x_data[j * lanes + off..j * lanes + off + width];
                let y_row = &yd[j * lanes + off..j * lanes + off + width];
                for (r, row) in acc.iter_mut().enumerate() {
                    let a0 = a_data[(i + r) * n + j];
                    let b0 = bd[(i + r) * n + j];
                    for q in 0..width {
                        row[q] = E::madd2(a0, x_row[q], b0, y_row[q], row[q]);
                    }
                }
            }
        }
        _ => {
            for j in 0..n {
                let x_row = &x_data[j * lanes + off..j * lanes + off + width];
                for (r, row) in acc.iter_mut().enumerate() {
                    let a0 = a_data[(i + r) * n + j];
                    for q in 0..width {
                        row[q] = E::madd(a0, x_row[q], row[q]);
                    }
                }
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[(i + r) * lanes + off..(i + r) * lanes + off + width].copy_from_slice(&row[..width]);
    }
}

/// The [`scalar_rows`] twin for [`affine_panel_bias_apply_elem`]: identical
/// blocking and accumulation order, except the accumulators are seeded from
/// the `m × lanes` bias panel row (one element per lane) instead of a
/// per-row broadcast.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn scalar_rows_bias_panel<E: Elem, const R: usize>(
    a_data: &[E],
    b_data: &[E],
    bias_data: &[E],
    x_data: &[E],
    y_data: &[E],
    out: &mut [E],
    i: usize,
    n: usize,
    lanes: usize,
    off: usize,
    width: usize,
) {
    let mut acc = [[E::ZERO; LANE_CHUNK]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        let start = (i + r) * lanes + off;
        row[..width].copy_from_slice(&bias_data[start..start + width]);
    }
    for j in 0..n {
        let x_row = &x_data[j * lanes + off..j * lanes + off + width];
        let y_row = &y_data[j * lanes + off..j * lanes + off + width];
        for (r, row) in acc.iter_mut().enumerate() {
            let a0 = a_data[(i + r) * n + j];
            let b0 = b_data[(i + r) * n + j];
            for q in 0..width {
                row[q] = E::madd2(a0, x_row[q], b0, y_row[q], row[q]);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[(i + r) * lanes + off..(i + r) * lanes + off + width].copy_from_slice(&row[..width]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vector;

    fn test_matrix(n: usize, seed: f64) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = ((i * n + j) as f64).sin() * seed + if i == j { 0.9 } else { 0.0 };
            }
        }
        m
    }

    #[test]
    fn panel_accessors_round_trip() {
        let mut p = Panel::zeros(3, 5);
        assert_eq!(p.rows(), 3);
        assert_eq!(p.lanes(), 5);
        p.set(1, 4, 2.5);
        assert_eq!(p.get(1, 4), 2.5);
        p.set_column(2, &[1.0, 2.0, 3.0]);
        assert_eq!(p.column(2), vec![1.0, 2.0, 3.0]);
        assert_eq!(p.row(1)[2], 2.0);
        p.row_mut(0)[0] = 7.0;
        assert_eq!(p.get(0, 0), 7.0);
        let mut col = vec![0.0; 3];
        p.column_into(2, &mut col);
        assert_eq!(col, vec![1.0, 2.0, 3.0]);
        p.fill(0.0);
        assert!(p.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "column length mismatch")]
    fn set_column_rejects_wrong_length() {
        Panel::zeros(3, 2).set_column(0, &[1.0]);
    }

    #[test]
    fn panel_storage_is_aligned() {
        let p = Panel::zeros(6, 9);
        assert_eq!(p.as_slice().as_ptr() as usize % PANEL_ALIGN, 0);
        let twin = p.clone();
        assert_eq!(twin.as_slice().as_ptr() as usize % PANEL_ALIGN, 0);
    }

    #[test]
    fn row_slice_matches_row() {
        let m = test_matrix(4, 0.3);
        for i in 0..4 {
            assert_eq!(m.row_slice(i), m.row(i).as_slice());
        }
    }

    #[test]
    fn mul_panel_matches_per_column_mat_vec() {
        // Cover the blocked path, the remainder path and the odd-row tail.
        for lanes in [1, 3, 7, 8, 9, 16, 19] {
            for n in [3, 4, 8] {
                let a = test_matrix(n, 0.7);
                let mut x = Panel::zeros(n, lanes);
                for lane in 0..lanes {
                    let col: Vec<f64> = (0..n).map(|i| (lane * n + i) as f64 * 0.1 + 1.0).collect();
                    x.set_column(lane, &col);
                }
                let mut out = Panel::zeros(n, lanes);
                a.mul_panel_into(&x, &mut out).unwrap();
                for lane in 0..lanes {
                    let v = Vector::from_slice(&x.column(lane));
                    let expect = a.mul_vector(&v).unwrap();
                    for i in 0..n {
                        assert!(
                            (out.get(i, lane) - expect[i]).abs() < 1e-12,
                            "n={n} lanes={lanes} lane={lane} row={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mul_panel_lane_results_do_not_depend_on_neighbours() {
        // A lane's result must be bit-identical whether it sits in a full
        // chunk of 8 (SIMD arm) or in the scalar remainder.
        let n = 8;
        let a = test_matrix(n, 0.4);
        let col: Vec<f64> = (0..n).map(|i| 40.0 + i as f64 * 1.3).collect();
        let mut wide = Panel::zeros(n, 11);
        for lane in 0..11 {
            wide.set_column(lane, &col);
        }
        let mut out_wide = Panel::zeros(n, 11);
        a.mul_panel_into(&wide, &mut out_wide).unwrap();
        let mut narrow = Panel::zeros(n, 1);
        narrow.set_column(0, &col);
        let mut out_narrow = Panel::zeros(n, 1);
        a.mul_panel_into(&narrow, &mut out_narrow).unwrap();
        for lane in 0..11 {
            for i in 0..n {
                assert_eq!(
                    out_wide.get(i, lane).to_bits(),
                    out_narrow.get(i, 0).to_bits(),
                    "lane {lane} row {i}"
                );
            }
        }
    }

    #[test]
    fn affine_pair_matches_scalar_reference() {
        for lanes in [1, 5, 8, 13] {
            let n = 8;
            let a = test_matrix(n, 0.2);
            let b = test_matrix(n, 0.05);
            let bias: Vec<f64> = (0..n).map(|i| 0.01 * i as f64).collect();
            let mut x = Panel::zeros(n, lanes);
            let mut y = Panel::zeros(n, lanes);
            for lane in 0..lanes {
                for i in 0..n {
                    x.set(i, lane, 50.0 + (lane + i) as f64 * 0.37);
                    y.set(i, lane, 0.5 + (lane * i) as f64 * 0.011);
                }
            }
            let mut out = Panel::zeros(n, lanes);
            affine_pair_apply(&a, &b, &bias, &x, &y, &mut out).unwrap();
            for lane in 0..lanes {
                for i in 0..n {
                    let mut acc = bias[i];
                    for j in 0..n {
                        acc += a[(i, j)] * x.get(j, lane);
                        acc += b[(i, j)] * y.get(j, lane);
                    }
                    assert!(
                        (out.get(i, lane) - acc).abs() < 1e-10,
                        "lanes={lanes} lane={lane} row={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn explicit_kernel_arms_agree_with_scalar() {
        // The `_with` forms are the oracle hook for the dispatch arms: on the
        // default build every available arm must match forced-scalar to the
        // bit; under `fma` they still must match each other (all arms fuse
        // identically), which this test covers by comparing vs Scalar, whose
        // madd primitives fuse too.
        let n = 8;
        let a = test_matrix(n, 0.2);
        let b = test_matrix(n, 0.05);
        let bias: Vec<f64> = (0..n).map(|i| 0.01 * i as f64).collect();
        for lanes in [8, 11, 24] {
            let mut x = Panel::zeros(n, lanes);
            let mut y = Panel::zeros(n, lanes);
            for lane in 0..lanes {
                for i in 0..n {
                    x.set(i, lane, 50.0 + (lane + i) as f64 * 0.37);
                    y.set(i, lane, 0.5 + (lane * i) as f64 * 0.011);
                }
            }
            let mut scalar_out = Panel::zeros(n, lanes);
            affine_pair_apply_with(PanelKernel::Scalar, &a, &b, &bias, &x, &y, &mut scalar_out)
                .unwrap();
            let mut scalar_mul = Panel::zeros(n, lanes);
            a.mul_panel_into_with(PanelKernel::Scalar, &x, &mut scalar_mul)
                .unwrap();
            for kernel in [PanelKernel::Avx2Fma, PanelKernel::Neon] {
                if !kernel.is_available() {
                    continue;
                }
                let mut out = Panel::zeros(n, lanes);
                affine_pair_apply_with(kernel, &a, &b, &bias, &x, &y, &mut out).unwrap();
                assert_eq!(out, scalar_out, "affine {kernel:?} lanes={lanes}");
                let mut mul = Panel::zeros(n, lanes);
                a.mul_panel_into_with(kernel, &x, &mut mul).unwrap();
                assert_eq!(mul, scalar_mul, "mul {kernel:?} lanes={lanes}");
            }
        }
    }

    /// An n×n f32 "matrix" panel mirroring [`test_matrix`]'s values.
    fn test_matrix_f32(n: usize, seed: f64) -> PanelF32 {
        let m = test_matrix(n, seed);
        let mut p = PanelF32::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                p.set(i, j, m[(i, j)] as f32);
            }
        }
        p
    }

    #[test]
    fn f32_panel_accessors_round_trip() {
        let mut p = PanelF32::zeros(3, 5);
        p.set(1, 4, 2.5);
        assert_eq!(p.get(1, 4), 2.5);
        p.set_column(2, &[1.0, 2.0, 3.0]);
        assert_eq!(p.column(2), vec![1.0f32, 2.0, 3.0]);
        assert_eq!(p.as_slice().as_ptr() as usize % PANEL_ALIGN, 0);
        let twin = p.clone();
        assert_eq!(p, twin);
    }

    #[test]
    fn f32_mul_panel_matches_the_f64_kernel_within_precision() {
        for lanes in [1, 3, 7, 8, 9, 16, 19] {
            for n in [3, 4, 8] {
                let a64 = test_matrix(n, 0.7);
                let a32 = test_matrix_f32(n, 0.7);
                let mut x64 = Panel::zeros(n, lanes);
                let mut x32 = PanelF32::zeros(n, lanes);
                for lane in 0..lanes {
                    for i in 0..n {
                        let v = (lane * n + i) as f64 * 0.1 + 1.0;
                        x64.set(i, lane, v);
                        x32.set(i, lane, v as f32);
                    }
                }
                let mut out64 = Panel::zeros(n, lanes);
                a64.mul_panel_into(&x64, &mut out64).unwrap();
                let mut out32 = PanelF32::zeros(n, lanes);
                mul_panel_into_elem(&a32, &x32, &mut out32).unwrap();
                for lane in 0..lanes {
                    for i in 0..n {
                        let want = out64.get(i, lane);
                        let got = f64::from(out32.get(i, lane));
                        assert!(
                            (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                            "n={n} lanes={lanes} lane={lane} row={i}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn f32_explicit_kernel_arms_agree_with_f32_scalar_to_the_bit() {
        let n = 8;
        let a = test_matrix_f32(n, 0.2);
        let b = test_matrix_f32(n, 0.05);
        let bias: Vec<f32> = (0..n).map(|i| 0.01 * i as f32).collect();
        for lanes in [8, 11, 24] {
            let mut x = PanelF32::zeros(n, lanes);
            let mut y = PanelF32::zeros(n, lanes);
            for lane in 0..lanes {
                for i in 0..n {
                    x.set(i, lane, 50.0 + (lane + i) as f32 * 0.37);
                    y.set(i, lane, 0.5 + (lane * i) as f32 * 0.011);
                }
            }
            let mut scalar_out = PanelF32::zeros(n, lanes);
            affine_pair_apply_elem_with(
                PanelKernel::Scalar,
                &a,
                &b,
                &bias,
                &x,
                &y,
                &mut scalar_out,
            )
            .unwrap();
            let mut scalar_mul = PanelF32::zeros(n, lanes);
            mul_panel_into_elem_with(PanelKernel::Scalar, &a, &x, &mut scalar_mul).unwrap();
            for kernel in [PanelKernel::Avx2Fma, PanelKernel::Neon] {
                if !kernel.is_available() {
                    continue;
                }
                let mut out = PanelF32::zeros(n, lanes);
                affine_pair_apply_elem_with(kernel, &a, &b, &bias, &x, &y, &mut out).unwrap();
                assert_eq!(out, scalar_out, "affine {kernel:?} lanes={lanes}");
                let mut mul = PanelF32::zeros(n, lanes);
                mul_panel_into_elem_with(kernel, &a, &x, &mut mul).unwrap();
                assert_eq!(mul, scalar_mul, "mul {kernel:?} lanes={lanes}");
            }
        }
    }

    #[test]
    fn f32_lane_results_do_not_depend_on_neighbours() {
        let n = 8;
        let a = test_matrix_f32(n, 0.4);
        let col: Vec<f32> = (0..n).map(|i| 40.0 + i as f32 * 1.3).collect();
        let mut wide = PanelF32::zeros(n, 11);
        for lane in 0..11 {
            wide.set_column(lane, &col);
        }
        let mut out_wide = PanelF32::zeros(n, 11);
        mul_panel_into_elem(&a, &wide, &mut out_wide).unwrap();
        let mut narrow = PanelF32::zeros(n, 1);
        narrow.set_column(0, &col);
        let mut out_narrow = PanelF32::zeros(n, 1);
        mul_panel_into_elem(&a, &narrow, &mut out_narrow).unwrap();
        for lane in 0..11 {
            for i in 0..n {
                assert_eq!(
                    out_wide.get(i, lane).to_bits(),
                    out_narrow.get(i, 0).to_bits(),
                    "lane {lane} row {i}"
                );
            }
        }
    }

    #[test]
    fn f32_kernels_reject_mismatched_shapes() {
        let a = PanelF32::zeros(3, 3);
        let x = PanelF32::zeros(4, 2);
        let mut out = PanelF32::zeros(3, 2);
        assert!(mul_panel_into_elem(&a, &x, &mut out).is_err());
        let x = PanelF32::zeros(3, 2);
        let y = PanelF32::zeros(3, 2);
        assert!(affine_pair_apply_elem(&a, &a, &[0.0; 2], &x, &y, &mut out).is_err());
        let b = PanelF32::zeros(3, 2);
        assert!(affine_pair_apply_elem(&a, &b, &[0.0; 3], &x, &y, &mut out).is_err());
    }

    #[test]
    fn kernels_reject_mismatched_shapes() {
        let a = Matrix::zeros(3, 3);
        let x = Panel::zeros(4, 2);
        let mut out = Panel::zeros(3, 2);
        assert!(a.mul_panel_into(&x, &mut out).is_err());
        let x = Panel::zeros(3, 2);
        let mut bad_out = Panel::zeros(3, 4);
        assert!(a.mul_panel_into(&x, &mut bad_out).is_err());

        let b = Matrix::zeros(3, 2);
        let y = Panel::zeros(3, 2);
        assert!(affine_pair_apply(&a, &b, &[0.0; 3], &x, &y, &mut out).is_err());
        let b = Matrix::zeros(3, 3);
        assert!(affine_pair_apply(&a, &b, &[0.0; 2], &x, &y, &mut out).is_err());
        let y_bad = Panel::zeros(3, 3);
        assert!(affine_pair_apply(&a, &b, &[0.0; 3], &x, &y_bad, &mut out).is_err());
    }
}
