//! LU factorisation with partial pivoting and linear solves.

use crate::{Matrix, NumericError, Vector};

/// LU decomposition with partial pivoting of a square matrix, `P·A = L·U`.
///
/// The factorisation is computed once and can then be reused for several
/// right-hand sides, which is how the ridge-regularised normal equations of
/// the system-identification step are solved.
///
/// # Example
///
/// ```
/// use numeric::{LuDecomposition, Matrix, Vector};
///
/// # fn main() -> Result<(), numeric::NumericError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let lu = LuDecomposition::new(&a)?;
/// let x = lu.solve(&Vector::from_slice(&[3.0, 5.0]))?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined L (below diagonal, unit diagonal implied) and U (upper) factors.
    lu: Matrix,
    /// Row permutation applied by partial pivoting.
    permutation: Vec<usize>,
}

/// Pivot entries whose magnitude falls below this threshold are treated as
/// zero, i.e. the matrix is reported singular.
const SINGULARITY_THRESHOLD: f64 = 1e-13;

impl LuDecomposition {
    /// Factorises the square matrix `a`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::NotSquare`] if `a` is not square and
    /// [`NumericError::Singular`] if a pivot smaller than the singularity
    /// threshold is encountered.
    pub fn new(a: &Matrix) -> Result<Self, NumericError> {
        if !a.is_square() {
            return Err(NumericError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut permutation: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: find the largest entry in column k at or below row k.
            let mut pivot_row = k;
            let mut pivot_value = lu[(k, k)].abs();
            for i in (k + 1)..n {
                if lu[(i, k)].abs() > pivot_value {
                    pivot_value = lu[(i, k)].abs();
                    pivot_row = i;
                }
            }
            if pivot_value < SINGULARITY_THRESHOLD {
                return Err(NumericError::Singular);
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                permutation.swap(k, pivot_row);
            }
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / lu[(k, k)];
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    lu[(i, j)] -= factor * lu[(k, j)];
                }
            }
        }

        Ok(LuDecomposition { lu, permutation })
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` using the stored factorisation.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len()` does not match
    /// the matrix dimension.
    pub fn solve(&self, b: &Vector) -> Result<Vector, NumericError> {
        let n = self.dim();
        if b.len() != n {
            return Err(NumericError::DimensionMismatch {
                operation: "LU solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Forward substitution with permuted b (L has unit diagonal).
        let mut y = Vector::zeros(n);
        for i in 0..n {
            let mut sum = b[self.permutation[i]];
            for j in 0..i {
                sum -= self.lu[(i, j)] * y[j];
            }
            y[i] = sum;
        }
        // Back substitution.
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut sum = y[i];
            for j in (i + 1)..n {
                sum -= self.lu[(i, j)] * x[j];
            }
            x[i] = sum / self.lu[(i, i)];
        }
        Ok(x)
    }
}

impl Matrix {
    /// Solves `self · x = b` via LU factorisation with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::NotSquare`] if the matrix is not square,
    /// [`NumericError::Singular`] if it is singular, or
    /// [`NumericError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &Vector) -> Result<Vector, NumericError> {
        LuDecomposition::new(self)?.solve(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[&[3.0, 2.0], &[1.0, 4.0]]).unwrap();
        let b = Vector::from_slice(&[7.0, 9.0]);
        let x = a.solve(&b).unwrap();
        assert_close(x[0], 1.0, 1e-12);
        assert_close(x[1], 2.0, 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the first diagonal entry forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let b = Vector::from_slice(&[2.0, 3.0]);
        let x = a.solve(&b).unwrap();
        assert_close(x[0], 3.0, 1e-12);
        assert_close(x[1], 2.0, 1e-12);
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(NumericError::Singular)
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(NumericError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_4x4_thermal_like_system() {
        // Diagonally dominant system resembling a thermal conductance matrix.
        let a = Matrix::from_rows(&[
            &[10.0, -1.0, -0.5, -0.2],
            &[-1.0, 9.0, -1.2, -0.3],
            &[-0.5, -1.2, 11.0, -0.8],
            &[-0.2, -0.3, -0.8, 8.0],
        ])
        .unwrap();
        let x_true = Vector::from_slice(&[1.0, -2.0, 0.5, 3.0]);
        let b = a.mul_vector(&x_true).unwrap();
        let x = a.solve(&b).unwrap();
        for i in 0..4 {
            assert_close(x[i], x_true[i], 1e-10);
        }
    }

    #[test]
    fn solve_rejects_wrong_rhs_length() {
        let a = Matrix::identity(3);
        let b = Vector::from_slice(&[1.0, 2.0]);
        assert!(a.solve(&b).is_err());
    }
}
