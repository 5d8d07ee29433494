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
//! The panel kernels ([`affine_panel_bias_apply_elem`], the batched engines'
//! transition step, and the f64 [`affine_pair_apply`]) process lanes in
//! fixed-width chunks of [`LANE_CHUNK`] through the SIMD arm selected by
//! [`PanelKernel::active`] (see [`crate::simd`] for the dispatch and
//! equivalence contract), falling back to register-blocked scalar code for
//! the remainder lanes and on hosts without a vector unit. Every arm
//! accumulates each lane in the same per-lane order (bias, then for
//! `j = 0..n` the `A`-term before the `B`-term), so a lane's result is
//! bit-identical no matter which arm processed it or how many lanes surround
//! it.
//!
//! # Example
//!
//! ```
//! use numeric::{affine_panel_bias_apply_elem, Panel};
//!
//! # fn main() -> Result<(), numeric::NumericError> {
//! // Two scenarios advanced by the same affine map `out = c + A·x + B·p` in
//! // one pass. The 2×2 matrices are panels too (rows × columns), and each
//! // scenario brings its own bias column `c`.
//! let mut a = Panel::zeros(2, 2);
//! a.set(0, 0, 0.5);
//! a.set(1, 1, 2.0);
//! let mut b = Panel::zeros(2, 2);
//! b.set(0, 0, 1.0);
//! b.set(1, 1, 1.0);
//! let mut x = Panel::zeros(2, 2);
//! x.set_column(0, &[1.0, 1.0]);
//! x.set_column(1, &[4.0, 4.0]);
//! let mut p = Panel::zeros(2, 2);
//! p.set_column(1, &[0.25, 0.25]);
//! let mut c = Panel::zeros(2, 2);
//! c.set_column(0, &[10.0, 10.0]);
//! let mut out = Panel::zeros(2, 2);
//! affine_panel_bias_apply_elem(&a, &b, &c, &x, &p, &mut out)?;
//! assert_eq!(out.column(0), vec![10.5, 12.0]);
//! assert_eq!(out.column(1), vec![2.25, 8.25]);
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

/// Fused affine panel step `out = bias ⊗ 1ᵀ + a·x + b·y` in f64, with one
/// bias value per row broadcast to every lane — the shape the batched DTPM
/// predictor advances its scenarios with.
///
/// This is the batched form of one affine transition applied to `x.lanes()`
/// scenarios at once: both matrices are streamed through the cache a single
/// time per call, and the inner loops run across lanes at unit stride through
/// the SIMD arm selected by [`PanelKernel::active`]. For each output element
/// the accumulation order is `bias`, then for `j = 0..n` the `a`-term
/// followed by the `b`-term — the same order for every lane and arm, and
/// identical to a scalar column-major (axpy) evaluation, which is what makes
/// batched and scalar transition stepping agree to the last bit (see
/// [`crate::simd`] for the dispatch contract).
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
    let (a, b, x, y) = (a.as_slice(), b.as_slice(), x.as_slice(), y.as_slice());
    let out = &mut out.data;
    let handled = match kernel {
        #[cfg(target_arch = "x86_64")]
        PanelKernel::Avx2Fma if kernel.is_available() => {
            let full = lanes - lanes % LANE_CHUNK;
            // SAFETY: AVX2 availability was just checked, and the shape
            // checks above guarantee the extents `affine_chunks` requires.
            unsafe { crate::simd::avx2::affine_chunks(a, b, bias, x, y, out, m, n, lanes, full) };
            full
        }
        _ => 0,
    };
    if handled == lanes {
        return Ok(());
    }

    // Scalar arm and remainder: rows outer so each row's bias is read once
    // (not once per lane chunk), two output rows per pass so each loaded
    // input row is applied twice. Full chunks call the width-generic helper
    // with the literal `LANE_CHUNK` so constant propagation recovers the
    // fixed-trip-count inner loops the autovectorizer needs.
    let mut i = 0;
    while i + 2 <= m {
        let biases = [bias[i], bias[i + 1]];
        let mut off = handled;
        while off + LANE_CHUNK <= lanes {
            scalar_rows::<2>(a, b, biases, x, y, out, i, n, lanes, off, LANE_CHUNK);
            off += LANE_CHUNK;
        }
        if off < lanes {
            scalar_rows::<2>(a, b, biases, x, y, out, i, n, lanes, off, lanes - off);
        }
        i += 2;
    }
    if i < m {
        let biases = [bias[i]];
        let mut off = handled;
        while off + LANE_CHUNK <= lanes {
            scalar_rows::<1>(a, b, biases, x, y, out, i, n, lanes, off, LANE_CHUNK);
            off += LANE_CHUNK;
        }
        if off < lanes {
            scalar_rows::<1>(a, b, biases, x, y, out, i, n, lanes, off, lanes - off);
        }
    }
    Ok(())
}

/// Width-generic fused affine panel step with a per-lane bias *panel*:
/// `out = bias + a·x + b·y`, where the `m × n` matrices are [`PanelT`]s
/// (`rows() = m`, `lanes() = n`, row-major) and `bias` is `m × lanes` (the
/// same layout as `out`). This is the batched engines' transition step at
/// both widths: each lane's constant drive (its ambient, or the f32
/// engine's `c + (R − I)·T0`) rides in through the accumulator
/// initialisation (a plain vector load), so it costs no separate
/// read-modify-write pass over the output panel. Accumulation order per
/// output element is the bias element, then for `j = 0..n` the `a`-term
/// followed by the `b`-term — the same contract as [`affine_pair_apply`],
/// upheld identically by every arm.
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

    // Scalar arm and remainder: same row blocking as
    // [`affine_pair_apply_with`], with the accumulators seeded from the bias
    // panel row instead of a broadcast.
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

/// The scalar body of [`affine_pair_apply_with`]: accumulates `R` output
/// rows starting at `i` over lanes `[off, off + width)` (`width <=`
/// [`LANE_CHUNK`]). The single helper serves the blocked full-chunk pass, the
/// odd-row tail and the remainder lanes, so all of them share one
/// accumulation order by construction — per lane, `bias`, then for each `j`
/// the `a`-term before the `b`-term, through [`crate::simd::madd2`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn scalar_rows<const R: usize>(
    a_data: &[f64],
    b_data: &[f64],
    biases: [f64; R],
    x_data: &[f64],
    y_data: &[f64],
    out: &mut [f64],
    i: usize,
    n: usize,
    lanes: usize,
    off: usize,
    width: usize,
) {
    let mut acc = [[0.0; LANE_CHUNK]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        *row = [biases[r]; LANE_CHUNK];
    }
    for j in 0..n {
        let x_row = &x_data[j * lanes + off..j * lanes + off + width];
        let y_row = &y_data[j * lanes + off..j * lanes + off + width];
        for (r, row) in acc.iter_mut().enumerate() {
            let a0 = a_data[(i + r) * n + j];
            let b0 = b_data[(i + r) * n + j];
            for q in 0..width {
                row[q] = crate::simd::madd2(a0, x_row[q], b0, y_row[q], row[q]);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[(i + r) * lanes + off..(i + r) * lanes + off + width].copy_from_slice(&row[..width]);
    }
}

/// The [`scalar_rows`] twin for [`affine_panel_bias_apply_elem`], at either
/// width: identical blocking and accumulation order (through [`Elem::madd2`]),
/// except the accumulators are seeded from the `m × lanes` bias panel row
/// (one element per lane) instead of a per-row broadcast.
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

    fn test_matrix(n: usize, seed: f64) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = ((i * n + j) as f64).sin() * seed + if i == j { 0.9 } else { 0.0 };
            }
        }
        m
    }

    /// An `m × n` matrix panel at width `E` with [`test_matrix`]'s fill.
    fn test_matrix_panel<E: Elem>(m: usize, n: usize, seed: f64) -> PanelT<E> {
        let mut p = PanelT::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let v = ((i * n + j) as f64).sin() * seed + if i == j { 0.9 } else { 0.0 };
                p.set(i, j, E::from_f64(v));
            }
        }
        p
    }

    /// The bias kernel's operands `[a, b, bias, x, y]` for an `m × n` map
    /// over `lanes` scenarios, every lane's columns distinct.
    fn bias_fixture<E: Elem>(m: usize, n: usize, lanes: usize) -> [PanelT<E>; 5] {
        let mut bias = PanelT::zeros(m, lanes);
        let mut x = PanelT::zeros(n, lanes);
        let mut y = PanelT::zeros(n, lanes);
        for lane in 0..lanes {
            for i in 0..m {
                bias.set(i, lane, E::from_f64(0.01 * (i + lane) as f64 - 0.3));
            }
            for j in 0..n {
                x.set(j, lane, E::from_f64(50.0 + (lane + j) as f64 * 0.37));
                y.set(j, lane, E::from_f64(0.5 + (lane * j) as f64 * 0.011));
            }
        }
        [
            test_matrix_panel(m, n, 0.2),
            test_matrix_panel(m, n, 0.05),
            bias,
            x,
            y,
        ]
    }

    /// Runs the bias kernel on `operands` through `kernel`.
    fn run_bias<E: Elem>(kernel: PanelKernel, operands: &[PanelT<E>; 5]) -> PanelT<E> {
        let [a, b, bias, x, y] = operands;
        let mut out = PanelT::zeros(a.rows(), x.lanes());
        affine_panel_bias_apply_elem_with(kernel, a, b, bias, x, y, &mut out).unwrap();
        out
    }

    /// A lane's result must be bit-identical whether it sits in a full
    /// chunk (vector arm), in the scalar remainder, or alone.
    fn assert_lanes_independent<E: Elem>() {
        let m = 8;
        let single = bias_fixture::<E>(m, 8, 1);
        let alone = run_bias(PanelKernel::active(), &single);
        for lanes in [11, 17] {
            let wide: [PanelT<E>; 5] = std::array::from_fn(|k| {
                if k < 2 {
                    return single[k].clone();
                }
                let mut p = PanelT::zeros(single[k].rows(), lanes);
                for lane in 0..lanes {
                    p.set_column(lane, &single[k].column(0));
                }
                p
            });
            let out = run_bias(PanelKernel::active(), &wide);
            for lane in 0..lanes {
                for i in 0..m {
                    assert_eq!(
                        out.get(i, lane).to_f64().to_bits(),
                        alone.get(i, 0).to_f64().to_bits(),
                        "{} lanes={lanes} lane={lane} row={i}",
                        E::NAME
                    );
                }
            }
        }
    }

    /// Holds each of the bias kernel's three shape checks to its own error.
    fn assert_bias_kernel_rejects_shapes<E: Elem>() {
        let z = |rows, lanes| PanelT::<E>::zeros(rows, lanes);
        // A 3×4 map over 2 lanes; each case breaks one check through the
        // shapes of `b`, `bias`, `y` and `out`.
        let cases = [
            ((3, 3), (3, 2), (4, 2), (3, 2), "affine panel pair"),
            ((3, 4), (3, 2), (4, 3), (3, 2), "affine panel inputs"),
            ((3, 4), (3, 3), (4, 2), (3, 2), "affine panel bias/output"),
            ((3, 4), (3, 2), (4, 2), (2, 2), "affine panel bias/output"),
        ];
        let (a, x) = (z(3, 4), z(4, 2));
        for (b, bias, y, out, expected) in cases {
            let (b, bias, y, mut out) =
                (z(b.0, b.1), z(bias.0, bias.1), z(y.0, y.1), z(out.0, out.1));
            let result = affine_panel_bias_apply_elem(&a, &b, &bias, &x, &y, &mut out);
            assert!(
                matches!(
                    result,
                    Err(NumericError::DimensionMismatch { operation, .. }) if operation == expected
                ),
                "{expected}: {result:?}"
            );
        }
        assert!(affine_panel_bias_apply_elem(&a, &a, &z(3, 2), &x, &x, &mut z(3, 2)).is_ok());
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
    fn bias_panel_matches_per_column_reference() {
        // Cover the blocked path, the remainder path, the odd-row tail and
        // non-square maps against a plain per-lane loop in the documented
        // order: bias, then for each `j` the `a`-term plus the `b`-term.
        for lanes in [1, 3, 7, 8, 9, 16, 19] {
            for (m, n) in [(3, 3), (4, 8), (8, 8), (5, 2)] {
                let operands = bias_fixture::<f64>(m, n, lanes);
                let out = run_bias(PanelKernel::active(), &operands);
                let [a, b, bias, x, y] = &operands;
                for lane in 0..lanes {
                    for i in 0..m {
                        let mut acc = bias.get(i, lane);
                        for j in 0..n {
                            acc += a.get(i, j) * x.get(j, lane) + b.get(i, j) * y.get(j, lane);
                        }
                        assert_eq!(
                            out.get(i, lane).to_bits(),
                            acc.to_bits(),
                            "m={m} n={n} lanes={lanes} lane={lane} row={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bias_panel_lane_results_do_not_depend_on_neighbours() {
        assert_lanes_independent::<f64>();
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
        // The `_with` forms are the oracle hook for the dispatch arms: the
        // vector arm must match forced-scalar to the bit (on a host without
        // AVX2 the request degrades to scalar and the check is trivial).
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
            let mut out = Panel::zeros(n, lanes);
            affine_pair_apply_with(PanelKernel::Avx2Fma, &a, &b, &bias, &x, &y, &mut out).unwrap();
            assert_eq!(out, scalar_out, "affine pair lanes={lanes}");

            let operands = bias_fixture::<f64>(n, n, lanes);
            assert_eq!(
                run_bias(PanelKernel::Avx2Fma, &operands),
                run_bias(PanelKernel::Scalar, &operands),
                "bias panel lanes={lanes}"
            );
        }
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
    fn f32_bias_panel_matches_the_f64_kernel_within_precision() {
        for lanes in [1, 3, 7, 8, 9, 16, 19] {
            for (m, n) in [(3, 3), (4, 8), (8, 8)] {
                let out64 = run_bias(PanelKernel::active(), &bias_fixture::<f64>(m, n, lanes));
                let out32 = run_bias(PanelKernel::active(), &bias_fixture::<f32>(m, n, lanes));
                for lane in 0..lanes {
                    for i in 0..m {
                        let want = out64.get(i, lane);
                        let got = f64::from(out32.get(i, lane));
                        assert!(
                            (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                            "m={m} n={n} lanes={lanes} lane={lane} row={i}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn f32_explicit_kernel_arms_agree_with_f32_scalar_to_the_bit() {
        // 16 and 24 lanes reach the f32 vector arm's two-chunk pass.
        for lanes in [8, 11, 16, 24, 35] {
            let operands = bias_fixture::<f32>(8, 8, lanes);
            assert_eq!(
                run_bias(PanelKernel::Avx2Fma, &operands),
                run_bias(PanelKernel::Scalar, &operands),
                "bias panel lanes={lanes}"
            );
        }
    }

    #[test]
    fn f32_lane_results_do_not_depend_on_neighbours() {
        assert_lanes_independent::<f32>();
    }

    #[test]
    fn f32_kernels_reject_mismatched_shapes() {
        assert_bias_kernel_rejects_shapes::<f32>();
    }

    #[test]
    fn kernels_reject_mismatched_shapes() {
        let a = Matrix::zeros(3, 3);
        let x = Panel::zeros(3, 2);
        let mut out = Panel::zeros(3, 2);
        let b = Matrix::zeros(3, 2);
        let y = Panel::zeros(3, 2);
        assert!(affine_pair_apply(&a, &b, &[0.0; 3], &x, &y, &mut out).is_err());
        let b = Matrix::zeros(3, 3);
        assert!(affine_pair_apply(&a, &b, &[0.0; 2], &x, &y, &mut out).is_err());
        let y_bad = Panel::zeros(3, 3);
        assert!(affine_pair_apply(&a, &b, &[0.0; 3], &x, &y_bad, &mut out).is_err());
        let mut bad_out = Panel::zeros(3, 4);
        assert!(affine_pair_apply(&a, &b, &[0.0; 3], &x, &y, &mut bad_out).is_err());

        assert_bias_kernel_rejects_shapes::<f64>();
    }
}
