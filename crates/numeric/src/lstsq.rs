//! Linear least squares.
//!
//! System identification of the thermal model reduces to an ordinary linear
//! least-squares problem per output row (see `sysid`): given a regressor
//! matrix `Φ` (one row per time step, columns = previous temperatures and
//! power inputs) and a target vector `y` (next-step temperature of one
//! hotspot), find `θ` minimising `‖Φθ − y‖²`. Every row shares `Φ`, so
//! [`NormalEquations`] accumulates one Gram matrix `ΦᵀΦ` and one `Φᵀy` per
//! target, a row of `Φ` at a time, and solves them all.
//!
//! The problems here are small and well-conditioned (a handful of regressors,
//! thousands of samples), so the normal equations with optional ridge
//! regularisation are accurate enough and keep the code simple.

use crate::{LuDecomposition, Matrix, NumericError, Vector};

/// The normal equations `(ΦᵀΦ + λI)·θⱼ = Φᵀyⱼ` of least-squares problems
/// whose targets `yⱼ` share the regressors `Φ`, accumulated one row of `Φ`
/// at a time, so neither `Φ` nor the targets need to exist in memory.
///
/// Each Gram entry accumulates `Φ[k,i]·Φ[k,j]` in row order from zero and
/// skips the terms whose `Φ[k,i]` is exactly zero, as [`Matrix::mul`] does
/// for `Φᵀ·Φ`. Each `Φᵀyⱼ` entry accumulates `Φ[k,i]·yⱼ[k]` in row order
/// from where `Iterator::sum::<f64>` starts, as [`Matrix::mul_vector`] does
/// for `Φᵀ·yⱼ`. Every `θⱼ` therefore has the bits [`Matrix::transpose`],
/// [`Matrix::mul`], [`Matrix::mul_vector`] and [`Matrix::solve`] give it.
///
/// # Example
///
/// ```
/// use numeric::NormalEquations;
///
/// # fn main() -> Result<(), numeric::NumericError> {
/// // Fit y = 2x + 1 and z = −x from three rows (x, 1).
/// let mut normal = NormalEquations::new(2, 2);
/// for x in [0.0, 1.0, 2.0] {
///     normal.add_row(&[x, 1.0], &[2.0 * x + 1.0, -x]);
/// }
/// let thetas = normal.solve(0.0)?;
/// assert!((thetas[0][0] - 2.0).abs() < 1e-12 && (thetas[0][1] - 1.0).abs() < 1e-12);
/// assert!((thetas[1][0] + 1.0).abs() < 1e-12 && thetas[1][1].abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NormalEquations {
    regressors: usize,
    rows: usize,
    /// `ΦᵀΦ`, row-major.
    gram: Vec<f64>,
    /// `Φᵀyⱼ` of every target in turn, `regressors` entries each.
    rhs: Vec<f64>,
}

impl NormalEquations {
    /// Empty normal equations for `regressors` columns of `Φ` and `targets`
    /// target vectors.
    ///
    /// # Panics
    ///
    /// Panics if `regressors` is zero.
    pub fn new(regressors: usize, targets: usize) -> Self {
        assert!(regressors > 0, "least squares needs at least one regressor");
        NormalEquations {
            regressors,
            rows: 0,
            gram: vec![0.0; regressors * regressors],
            rhs: vec![std::iter::empty::<f64>().sum(); targets * regressors],
        }
    }

    /// Adds row `k` of the problem: `row` is `Φ[k, ..]` and `targets` holds
    /// `yⱼ[k]` of every target in order.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not hold one value per regressor or `targets`
    /// one value per target.
    pub fn add_row(&mut self, row: &[f64], targets: &[f64]) {
        let n = self.regressors;
        assert_eq!(row.len(), n, "a row needs one value per regressor");
        assert_eq!(
            targets.len() * n,
            self.rhs.len(),
            "a row needs one value per target"
        );
        for (&phi_i, gram_row) in row.iter().zip(self.gram.chunks_exact_mut(n)) {
            if phi_i == 0.0 {
                continue;
            }
            for (g, &phi_j) in gram_row.iter_mut().zip(row) {
                *g += phi_i * phi_j;
            }
        }
        for (rhs, &y) in self.rhs.chunks_exact_mut(n).zip(targets) {
            for (r, &phi_i) in rhs.iter_mut().zip(row) {
                *r += phi_i * y;
            }
        }
        self.rows += 1;
    }

    /// Rows added so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Solves `(ΦᵀΦ + λI)·θⱼ = Φᵀyⱼ` for every target, returning one `θⱼ`
    /// per target in order. One LU factorisation serves every target; it is
    /// the one [`Matrix::solve`] would compute for each.
    ///
    /// # Errors
    ///
    /// * [`NumericError::InvalidArgument`] for a negative or non-finite
    ///   `lambda`.
    /// * [`NumericError::InsufficientData`] if fewer rows than regressors
    ///   were added.
    /// * [`NumericError::Singular`] if the regularised Gram matrix is
    ///   singular (collinear regressors); a positive `lambda` helps.
    pub fn solve(&self, lambda: f64) -> Result<Vec<Vector>, NumericError> {
        if !(lambda >= 0.0) || !lambda.is_finite() {
            return Err(NumericError::InvalidArgument(
                "ridge parameter must be finite and non-negative",
            ));
        }
        let n = self.regressors;
        if self.rows < n {
            return Err(NumericError::InsufficientData {
                required: n,
                provided: self.rows,
            });
        }
        let mut gram = self.gram.clone();
        if lambda > 0.0 {
            for i in 0..n {
                gram[i * n + i] += lambda;
            }
        }
        let lu = LuDecomposition::new(&Matrix::from_vec(n, n, gram)?)?;
        self.rhs
            .chunks_exact(n)
            .map(|rhs| lu.solve(&Vector::from_slice(rhs)))
            .collect()
    }
}

/// Solves the ordinary least-squares problem `min‖Φθ − y‖²`.
///
/// # Errors
///
/// * [`NumericError::DimensionMismatch`] if `phi.rows() != y.len()`.
/// * [`NumericError::InsufficientData`] if there are fewer rows than columns.
/// * [`NumericError::Singular`] if the normal equations are singular
///   (collinear regressors); use [`ridge_lstsq`] in that case.
///
/// # Example
///
/// ```
/// use numeric::{lstsq, Matrix, Vector};
///
/// # fn main() -> Result<(), numeric::NumericError> {
/// // Fit y = 2x + 1 from noisy-free samples.
/// let phi = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0]])?;
/// let y = Vector::from_slice(&[1.0, 3.0, 5.0]);
/// let theta = lstsq(&phi, &y)?;
/// assert!((theta[0] - 2.0).abs() < 1e-12);
/// assert!((theta[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn lstsq(phi: &Matrix, y: &Vector) -> Result<Vector, NumericError> {
    ridge_lstsq(phi, y, 0.0)
}

/// Solves the ridge-regularised least-squares problem
/// `min ‖Φθ − y‖² + λ‖θ‖²`.
///
/// A small positive `lambda` keeps the normal equations well conditioned when
/// an excitation signal leaves some input almost constant (e.g. the memory
/// power channel while only the big cluster is excited).
///
/// This feeds the rows of `Φ` to one-target [`NormalEquations`].
///
/// # Errors
///
/// Same conditions as [`lstsq`]; additionally returns
/// [`NumericError::InvalidArgument`] for a negative or non-finite `lambda`.
pub fn ridge_lstsq(phi: &Matrix, y: &Vector, lambda: f64) -> Result<Vector, NumericError> {
    if y.len() != phi.rows() {
        return Err(NumericError::DimensionMismatch {
            operation: "least squares",
            left: (phi.rows(), phi.cols()),
            right: (y.len(), 1),
        });
    }
    let mut normal = NormalEquations::new(phi.cols(), 1);
    for (row, &target) in phi.as_slice().chunks_exact(phi.cols()).zip(y.iter()) {
        normal.add_row(row, &[target]);
    }
    let mut thetas = normal.solve(lambda)?;
    Ok(thetas.pop().expect("one target has one solution"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_fit_of_linear_model() {
        let phi = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0]]).unwrap();
        let theta_true = Vector::from_slice(&[3.0, -1.5]);
        let y = phi.mul_vector(&theta_true).unwrap();
        let theta = lstsq(&phi, &y).unwrap();
        assert!((theta[0] - 3.0).abs() < 1e-12);
        assert!((theta[1] + 1.5).abs() < 1e-12);
    }

    #[test]
    fn overdetermined_noisy_fit_recovers_parameters() {
        // y = 0.8*x1 + 0.05*x2 with deterministic "noise" pattern.
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for k in 0..200 {
            let x1 = (k as f64 * 0.37).sin();
            let x2 = (k as f64 * 0.11).cos() * 2.0;
            let noise = ((k * 7919) % 13) as f64 / 13.0 - 0.5; // bounded, zero-ish mean
            rows.push(vec![x1, x2]);
            targets.push(0.8 * x1 + 0.05 * x2 + 0.001 * noise);
        }
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let phi = Matrix::from_rows(&row_refs).unwrap();
        let y = Vector::from_slice(&targets);
        let theta = lstsq(&phi, &y).unwrap();
        assert!((theta[0] - 0.8).abs() < 0.01);
        assert!((theta[1] - 0.05).abs() < 0.01);
    }

    #[test]
    fn underdetermined_rejected() {
        let phi = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        let y = Vector::from_slice(&[1.0]);
        assert!(matches!(
            lstsq(&phi, &y),
            Err(NumericError::InsufficientData { .. })
        ));
    }

    #[test]
    fn mismatched_target_length_rejected() {
        let phi = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let y = Vector::from_slice(&[1.0, 2.0, 3.0]);
        assert!(lstsq(&phi, &y).is_err());
    }

    #[test]
    fn collinear_regressors_need_ridge() {
        // Second column is exactly twice the first: singular normal equations.
        let phi = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        let y = Vector::from_slice(&[1.0, 2.0, 3.0]);
        assert!(matches!(lstsq(&phi, &y), Err(NumericError::Singular)));
        let theta = ridge_lstsq(&phi, &y, 1e-6).unwrap();
        // The ridge solution still reproduces the targets.
        let res = phi.mul_vector(&theta).unwrap() - y;
        assert!(res.inf_norm() < 1e-3);
    }

    #[test]
    fn negative_lambda_rejected() {
        let phi = Matrix::identity(2);
        let y = Vector::from_slice(&[1.0, 1.0]);
        assert!(ridge_lstsq(&phi, &y, -1.0).is_err());
        assert!(ridge_lstsq(&phi, &y, f64::NAN).is_err());
    }

    #[test]
    fn multi_target_solve_checks_every_target() {
        let rows = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]];
        let y = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let normal = |targets: &[&Vector]| {
            let mut normal = NormalEquations::new(2, targets.len());
            for (k, row) in rows.iter().enumerate() {
                let ys: Vec<f64> = targets.iter().map(|t| t[k]).collect();
                normal.add_row(row, &ys);
            }
            normal
        };
        let short_row =
            std::panic::catch_unwind(|| NormalEquations::new(2, 1).add_row(&[1.0], &[1.0]));
        assert!(
            short_row.is_err(),
            "a row must hold one value per regressor"
        );
        let short_targets =
            std::panic::catch_unwind(|| NormalEquations::new(2, 2).add_row(&[1.0, 2.0], &[1.0]));
        assert!(
            short_targets.is_err(),
            "a row must hold one value per target"
        );
        assert!(normal(&[&y]).solve(f64::INFINITY).is_err());
        assert!(normal(&[&y]).solve(-1.0).is_err());
        let mut wide = NormalEquations::new(3, 1);
        wide.add_row(&[1.0, 2.0, 3.0], &[1.0]);
        assert!(matches!(
            wide.solve(0.0),
            Err(NumericError::InsufficientData {
                required: 3,
                provided: 1
            })
        ));
        assert_eq!(normal(&[]).solve(0.0).unwrap(), Vec::<Vector>::new());
        let doubled = y.scale(2.0);
        let both = normal(&[&y, &doubled]);
        assert_eq!(both.rows(), 3);
        let thetas = both.solve(0.0).unwrap();
        let phi = Matrix::from_rows(&[&rows[0], &rows[1], &rows[2]]).unwrap();
        assert_eq!(thetas.len(), 2);
        assert_eq!(thetas[0], ridge_lstsq(&phi, &y, 0.0).unwrap());
        assert_eq!(thetas[1], ridge_lstsq(&phi, &doubled, 0.0).unwrap());
    }
}
