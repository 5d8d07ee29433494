//! Linear least squares.
//!
//! System identification of the thermal model reduces to an ordinary linear
//! least-squares problem per output row (see `sysid`): given a regressor
//! matrix `Φ` (one row per time step, columns = previous temperatures and
//! power inputs) and a target vector `y` (next-step temperature of one
//! hotspot), find `θ` minimising `‖Φθ − y‖²`. Every row shares `Φ`, so
//! [`ridge_lstsq_multi`] solves them together from one Gram matrix `ΦᵀΦ`.
//!
//! The problems here are small and well-conditioned (a handful of regressors,
//! thousands of samples), so the normal equations with optional ridge
//! regularisation are accurate enough and keep the code simple.

use crate::{Matrix, NumericError, Vector};

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
/// This is the one-target case of [`ridge_lstsq_multi`].
///
/// # Errors
///
/// Same conditions as [`lstsq`]; additionally returns
/// [`NumericError::InvalidArgument`] for a negative or non-finite `lambda`.
pub fn ridge_lstsq(phi: &Matrix, y: &Vector, lambda: f64) -> Result<Vector, NumericError> {
    let mut thetas = ridge_lstsq_multi(phi, std::slice::from_ref(y), lambda)?;
    Ok(thetas.pop().expect("one target has one solution"))
}

/// Solves `min ‖Φθⱼ − yⱼ‖² + λ‖θⱼ‖²` for every target `yⱼ` against the same
/// regressors, returning one `θⱼ` per target in order.
///
/// The Gram matrix `ΦᵀΦ + λI` is formed once, straight from the rows of `Φ`:
/// each entry accumulates `Φ[k,i]·Φ[k,j]` over `k` in increasing order and
/// skips the terms whose `Φ[k,i]` is exactly zero, as [`Matrix::mul`] does
/// for `Φᵀ·Φ`. Each `Φᵀyⱼ` entry is one `.sum()` over `k`, as in
/// [`Matrix::mul_vector`], and each target gets its own [`Matrix::solve`].
/// Every `θⱼ` therefore has the bits [`Matrix::transpose`],
/// [`Matrix::mul`], [`Matrix::mul_vector`] and [`Matrix::solve`] give it,
/// but `Φ` is read once instead of once per target.
///
/// # Errors
///
/// Same conditions as [`ridge_lstsq`], for every target.
pub fn ridge_lstsq_multi(
    phi: &Matrix,
    targets: &[Vector],
    lambda: f64,
) -> Result<Vec<Vector>, NumericError> {
    if !(lambda >= 0.0) || !lambda.is_finite() {
        return Err(NumericError::InvalidArgument(
            "ridge parameter must be finite and non-negative",
        ));
    }
    if let Some(y) = targets.iter().find(|y| y.len() != phi.rows()) {
        return Err(NumericError::DimensionMismatch {
            operation: "least squares",
            left: (phi.rows(), phi.cols()),
            right: (y.len(), 1),
        });
    }
    if phi.rows() < phi.cols() {
        return Err(NumericError::InsufficientData {
            required: phi.cols(),
            provided: phi.rows(),
        });
    }

    let n = phi.cols();
    let mut gram = vec![0.0; n * n];
    for row in phi.as_slice().chunks_exact(n) {
        for (&phi_ki, gram_row) in row.iter().zip(gram.chunks_exact_mut(n)) {
            if phi_ki == 0.0 {
                continue;
            }
            for (g, &phi_kj) in gram_row.iter_mut().zip(row) {
                *g += phi_ki * phi_kj;
            }
        }
    }
    if lambda > 0.0 {
        for i in 0..n {
            gram[i * n + i] += lambda;
        }
    }
    let gram = Matrix::from_vec(n, n, gram)?;
    targets
        .iter()
        .map(|y| {
            let rhs = Vector::from_iter((0..n).map(|i| {
                let column = phi.as_slice()[i..].iter().step_by(n);
                column.zip(y.iter()).map(|(p, t)| p * t).sum::<f64>()
            }));
            gram.solve(&rhs)
        })
        .collect()
}

/// Residual vector `Φθ − y` of a least-squares fit.
///
/// # Errors
///
/// Returns a dimension error if the operands are incompatible.
pub fn residuals(phi: &Matrix, y: &Vector, theta: &Vector) -> Result<Vector, NumericError> {
    let predicted = phi.mul_vector(theta)?;
    if predicted.len() != y.len() {
        return Err(NumericError::DimensionMismatch {
            operation: "residual computation",
            left: (predicted.len(), 1),
            right: (y.len(), 1),
        });
    }
    Ok(Vector::from_iter(
        predicted.iter().zip(y.iter()).map(|(p, t)| p - t),
    ))
}

/// Coefficient of determination (R²) of a fit; 1.0 means a perfect fit.
///
/// Returns `None` when the target has zero variance (R² is undefined).
pub fn r_squared(phi: &Matrix, y: &Vector, theta: &Vector) -> Option<f64> {
    let res = residuals(phi, y, theta).ok()?;
    let ss_res: f64 = res.iter().map(|r| r * r).sum();
    let mean = y.iter().sum::<f64>() / y.len() as f64;
    let ss_tot: f64 = y.iter().map(|v| (v - mean) * (v - mean)).sum();
    if ss_tot <= f64::EPSILON {
        return None;
    }
    Some(1.0 - ss_res / ss_tot)
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
        assert_eq!(r_squared(&phi, &y, &theta), Some(1.0));
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
        assert!(r_squared(&phi, &y, &theta).unwrap() > 0.999);
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
        let res = residuals(&phi, &y, &theta).unwrap();
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
        let phi = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let y = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let short = Vector::from_slice(&[1.0, 2.0]);
        assert!(matches!(
            ridge_lstsq_multi(&phi, &[y.clone(), short], 0.0),
            Err(NumericError::DimensionMismatch { right: (2, 1), .. })
        ));
        assert!(ridge_lstsq_multi(&phi, std::slice::from_ref(&y), f64::INFINITY).is_err());
        let wide = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        assert!(matches!(
            ridge_lstsq_multi(&wide, &[Vector::from_slice(&[1.0])], 0.0),
            Err(NumericError::InsufficientData { .. })
        ));
        assert_eq!(
            ridge_lstsq_multi(&phi, &[], 0.0).unwrap(),
            Vec::<Vector>::new()
        );
        let thetas = ridge_lstsq_multi(&phi, &[y.clone(), y.scale(2.0)], 0.0).unwrap();
        assert_eq!(thetas.len(), 2);
        assert_eq!(thetas[0], ridge_lstsq(&phi, &y, 0.0).unwrap());
        assert_eq!(thetas[1], ridge_lstsq(&phi, &y.scale(2.0), 0.0).unwrap());
    }

    #[test]
    fn r_squared_undefined_for_constant_target() {
        let phi = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        let y = Vector::from_slice(&[4.0, 4.0, 4.0]);
        let theta = lstsq(&phi, &y).unwrap();
        assert_eq!(r_squared(&phi, &y, &theta), None);
    }
}
