//! Dense row-major matrices and vectors.
//!
//! The thermal state-space model of the paper is tiny (4 states, 4 inputs), so
//! a straightforward heap-allocated dense representation is more than
//! sufficient; clarity and correctness win over raw speed here.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::NumericError;

/// A dense, row-major matrix of `f64` values.
///
/// # Example
///
/// ```
/// use numeric::Matrix;
///
/// # fn main() -> Result<(), numeric::NumericError> {
/// let a = Matrix::identity(3);
/// let b = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]])?;
/// assert_eq!(a.mul(&b)?, b);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major slice.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidArgument`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, NumericError> {
        if rows == 0 || cols == 0 {
            return Err(NumericError::InvalidArgument(
                "matrix dimensions must be non-zero",
            ));
        }
        if data.len() != rows * cols {
            return Err(NumericError::InvalidArgument(
                "data length does not match rows * cols",
            ));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidArgument`] if the rows have unequal
    /// lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, NumericError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(NumericError::InvalidArgument(
                "matrix rows must be non-empty",
            ));
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(NumericError::InvalidArgument("rows have unequal lengths"));
        }
        let data = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Matrix::from_vec(rows.len(), cols, data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns the underlying row-major data as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the `i`-th row as a [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> Vector {
        assert!(i < self.rows, "row index out of bounds");
        Vector::from_slice(&self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Returns the `j`-th column as a [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn column(&self, j: usize) -> Vector {
        assert!(j < self.cols, "column index out of bounds");
        Vector::from_iter((0..self.rows).map(|i| self[(i, j)]))
    }

    /// Replaces the `i`-th row with the given values.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds or `values.len() != self.cols()`.
    pub fn set_row(&mut self, i: usize, values: &[f64]) {
        assert!(i < self.rows, "row index out of bounds");
        assert_eq!(values.len(), self.cols, "row length mismatch");
        self.data[i * self.cols..(i + 1) * self.cols].copy_from_slice(values);
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if
    /// `self.cols() != other.rows()`.
    pub fn mul(&self, other: &Matrix) -> Result<Matrix, NumericError> {
        if self.cols != other.rows {
            return Err(NumericError::DimensionMismatch {
                operation: "matrix multiplication",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `self.cols() != v.len()`.
    pub fn mul_vector(&self, v: &Vector) -> Result<Vector, NumericError> {
        if self.cols != v.len() {
            return Err(NumericError::DimensionMismatch {
                operation: "matrix-vector multiplication",
                left: (self.rows, self.cols),
                right: (v.len(), 1),
            });
        }
        Ok(Vector::from_iter((0..self.rows).map(|i| {
            (0..self.cols).map(|j| self[(i, j)] * v[j]).sum::<f64>()
        })))
    }

    /// Matrix–vector product `self · v` written into `out` without
    /// allocating (`out` is resized to the row count if needed).
    ///
    /// This is the scratch-reuse form of [`Matrix::mul_vector`] used by the
    /// simulation and prediction hot paths.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `self.cols() != v.len()`.
    pub fn mul_vec_into(&self, v: &Vector, out: &mut Vector) -> Result<(), NumericError> {
        if self.cols != v.len() {
            return Err(NumericError::DimensionMismatch {
                operation: "matrix-vector multiplication",
                left: (self.rows, self.cols),
                right: (v.len(), 1),
            });
        }
        out.resize(self.rows, 0.0);
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            out[i] = row.iter().zip(v.iter()).map(|(a, x)| a * x).sum::<f64>();
        }
        Ok(())
    }

    /// Accumulating matrix–vector product: `out += self · v`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `self.cols() != v.len()`
    /// or `out.len() != self.rows()`.
    pub fn mul_vec_acc_into(&self, v: &Vector, out: &mut Vector) -> Result<(), NumericError> {
        if self.cols != v.len() {
            return Err(NumericError::DimensionMismatch {
                operation: "matrix-vector multiplication",
                left: (self.rows, self.cols),
                right: (v.len(), 1),
            });
        }
        if out.len() != self.rows {
            return Err(NumericError::DimensionMismatch {
                operation: "matrix-vector accumulation",
                left: (self.rows, self.cols),
                right: (out.len(), 1),
            });
        }
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            out[i] += row.iter().zip(v.iter()).map(|(a, x)| a * x).sum::<f64>();
        }
        Ok(())
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if the shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, NumericError> {
        self.zip_with(other, "matrix addition", |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix, NumericError> {
        self.zip_with(other, "matrix subtraction", |a, b| a - b)
    }

    fn zip_with(
        &self,
        other: &Matrix,
        operation: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix, NumericError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(NumericError::DimensionMismatch {
                operation,
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiplies every entry by the scalar `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x * s).collect(),
        }
    }

    /// Largest absolute entry of the matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Infinity norm (maximum absolute row sum), the induced norm used by the
    /// paper's `L∞` temperature constraint argument.
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|i| (0..self.cols).map(|j| self[(i, j)].abs()).sum::<f64>())
            .fold(0.0_f64, f64::max)
    }

    /// Returns `true` if every entry is finite (no NaN or infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Spectral radius estimate via power iteration on `AᵀA` (singular-value
    /// based bound), used to check stability of identified thermal models.
    ///
    /// Returns the dominant-eigenvalue magnitude estimate of the matrix. For a
    /// stable discrete thermal model the value must be `< 1`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::NotSquare`] if the matrix is not square.
    pub fn spectral_radius_estimate(&self, iterations: usize) -> Result<f64, NumericError> {
        if !self.is_square() {
            return Err(NumericError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let n = self.rows;
        let mut v = Vector::from_iter((0..n).map(|i| 1.0 + (i as f64) * 0.01));
        let mut lambda = 0.0;
        for _ in 0..iterations.max(1) {
            let w = self.mul_vector(&v)?;
            let norm = w.norm();
            if norm < 1e-300 {
                return Ok(0.0);
            }
            lambda = norm / v.norm();
            v = w.scale(1.0 / norm);
        }
        Ok(lambda)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.5}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// A dense vector of `f64` values.
///
/// # Example
///
/// ```
/// use numeric::Vector;
///
/// let v = Vector::from_slice(&[3.0, 4.0]);
/// assert_eq!(v.norm(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector of `n` zeros.
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector from a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        Vector {
            data: values.to_vec(),
        }
    }

    /// Creates a vector by collecting an iterator.
    // An inherent convenience next to the `FromIterator` impl below; the
    // shared name is intentional.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(values: impl IntoIterator<Item = f64>) -> Self {
        Vector {
            data: values.into_iter().collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the elements as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Resizes the vector in place, filling new slots with `value` (scratch
    /// reuse: resizing to an already-held capacity does not allocate).
    pub fn resize(&mut self, n: usize, value: f64) {
        self.data.resize(n, value);
    }

    /// Consumes the vector and returns the underlying `Vec`.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Dot product with another vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "vector length mismatch in dot");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Maximum absolute element (L∞ norm); returns 0 for an empty vector.
    pub fn inf_norm(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Maximum element; returns `f64::NEG_INFINITY` for an empty vector.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum element; returns `f64::INFINITY` for an empty vector.
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Multiplies every element by the scalar `s`.
    pub fn scale(&self, s: f64) -> Vector {
        Vector::from_iter(self.data.iter().map(|&x| x * s))
    }

    /// Returns `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Returns an iterator over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl Add for Vector {
    type Output = Vector;

    fn add(self, rhs: Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector length mismatch in add");
        Vector::from_iter(self.data.iter().zip(&rhs.data).map(|(a, b)| a + b))
    }
}

impl Sub for Vector {
    type Output = Vector;

    fn sub(self, rhs: Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector length mismatch in sub");
        Vector::from_iter(self.data.iter().zip(&rhs.data).map(|(a, b)| a - b))
    }
}

impl Neg for Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.scale(-1.0)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;

    fn mul(self, rhs: f64) -> Vector {
        self.scale(rhs)
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.5}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_vec(0, 2, vec![]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, NumericError::InvalidArgument(_)));
    }

    #[test]
    fn multiplication_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.mul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn multiplication_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn matrix_vector_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let v = Vector::from_slice(&[1.0, 1.0]);
        let r = a.mul_vector(&v).unwrap();
        assert_eq!(r.as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::identity(2);
        let sum = a.add(&b).unwrap();
        assert_eq!(sum[(0, 0)], 2.0);
        let diff = sum.sub(&b).unwrap();
        assert_eq!(diff, a);
        assert_eq!(a.scale(2.0)[(1, 1)], 8.0);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, -4.0], &[0.0, 0.0]]).unwrap();
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.inf_norm(), 7.0);
    }

    #[test]
    fn spectral_radius_of_diagonal() {
        let a = Matrix::from_rows(&[&[0.9, 0.0], &[0.0, 0.3]]).unwrap();
        let rho = a.spectral_radius_estimate(200).unwrap();
        assert!((rho - 0.9).abs() < 1e-6, "rho = {rho}");
    }

    #[test]
    fn row_and_column_extraction() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.row(1).as_slice(), &[3.0, 4.0]);
        assert_eq!(a.column(0).as_slice(), &[1.0, 3.0]);
    }

    #[test]
    fn set_row_overwrites() {
        let mut a = Matrix::zeros(2, 2);
        a.set_row(1, &[5.0, 6.0]);
        assert_eq!(a.row(1).as_slice(), &[5.0, 6.0]);
        assert_eq!(a.row(0).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn vector_basic_ops() {
        let v = Vector::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(v.len(), 3);
        assert_eq!(v.inf_norm(), 3.0);
        assert_eq!(v.max(), 3.0);
        assert_eq!(v.min(), -2.0);
        let w = v.clone() + Vector::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(w.as_slice(), &[2.0, 0.0, 6.0]);
        let d = w - Vector::from_slice(&[2.0, 0.0, 6.0]);
        assert_eq!(d.norm(), 0.0);
    }

    #[test]
    fn vector_is_finite_detects_nan() {
        let v = Vector::from_slice(&[1.0, f64::NAN]);
        assert!(!v.is_finite());
        assert!(Vector::from_slice(&[1.0, 2.0]).is_finite());
    }

    #[test]
    fn display_formats_without_panicking() {
        let a = Matrix::identity(2);
        let s = format!("{a}");
        assert!(s.contains("1.0"));
        let v = Vector::from_slice(&[1.5]);
        assert_eq!(format!("{v}"), "[1.50000]");
    }
}
