//! One-dimensional table interpolation.
//!
//! Voltage/frequency operating points, fan-speed curves and characterised
//! power tables are all piecewise-linear lookups; [`Table1d`] provides a
//! checked, monotonic table with clamped linear interpolation.

use crate::NumericError;

/// Linearly interpolates `y(x)` on the sample points `(xs, ys)`.
///
/// Values of `x` outside the table range are clamped to the first/last entry,
/// which matches how DVFS voltage tables behave (no extrapolation beyond the
/// supported operating points).
///
/// # Errors
///
/// Returns [`NumericError::InvalidArgument`] if the tables are empty, have
/// different lengths, or `xs` is not strictly increasing.
pub fn interp1(xs: &[f64], ys: &[f64], x: f64) -> Result<f64, NumericError> {
    Table1d::new(xs.to_vec(), ys.to_vec())?.lookup(x)
}

/// A monotonic piecewise-linear lookup table.
///
/// # Example
///
/// ```
/// use numeric::Table1d;
///
/// # fn main() -> Result<(), numeric::NumericError> {
/// let volts = Table1d::new(vec![800.0, 1600.0], vec![0.9, 1.2])?;
/// assert_eq!(volts.lookup(1200.0)?, 1.05);
/// assert_eq!(volts.lookup(2000.0)?, 1.2); // clamped
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table1d {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Table1d {
    /// Builds a table from strictly increasing abscissae `xs` and ordinates `ys`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidArgument`] if the inputs are empty, of
    /// different lengths, non-finite, or `xs` is not strictly increasing.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self, NumericError> {
        if xs.is_empty() || ys.is_empty() {
            return Err(NumericError::InvalidArgument(
                "interpolation table is empty",
            ));
        }
        if xs.len() != ys.len() {
            return Err(NumericError::InvalidArgument(
                "interpolation table has mismatched lengths",
            ));
        }
        if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
            return Err(NumericError::InvalidArgument(
                "interpolation table contains non-finite values",
            ));
        }
        if xs.windows(2).any(|w| w[1] <= w[0]) {
            return Err(NumericError::InvalidArgument(
                "interpolation abscissae must be strictly increasing",
            ));
        }
        Ok(Table1d { xs, ys })
    }

    /// Number of sample points in the table.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Returns `true` if the table has no entries (never true for a
    /// successfully constructed table).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Looks up `y(x)` with clamped linear interpolation.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidArgument`] if `x` is not finite.
    pub fn lookup(&self, x: f64) -> Result<f64, NumericError> {
        if !x.is_finite() {
            return Err(NumericError::InvalidArgument(
                "lookup abscissa is not finite",
            ));
        }
        if x <= self.xs[0] {
            return Ok(self.ys[0]);
        }
        if x >= *self.xs.last().expect("non-empty") {
            return Ok(*self.ys.last().expect("non-empty"));
        }
        // Find the bracketing interval.
        let idx = self.xs.partition_point(|&v| v < x);
        let (x0, x1) = (self.xs[idx - 1], self.xs[idx]);
        let (y0, y1) = (self.ys[idx - 1], self.ys[idx]);
        let t = (x - x0) / (x1 - x0);
        Ok(y0 + t * (y1 - y0))
    }

    /// Sample abscissae of the table.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Sample ordinates of the table.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_linearly() {
        let t = Table1d::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 30.0]).unwrap();
        assert_eq!(t.lookup(0.5).unwrap(), 5.0);
        assert_eq!(t.lookup(1.5).unwrap(), 20.0);
        assert_eq!(t.lookup(1.0).unwrap(), 10.0);
    }

    #[test]
    fn clamps_outside_range() {
        let t = Table1d::new(vec![1.0, 2.0], vec![5.0, 6.0]).unwrap();
        assert_eq!(t.lookup(0.0).unwrap(), 5.0);
        assert_eq!(t.lookup(3.0).unwrap(), 6.0);
    }

    #[test]
    fn single_point_table_is_constant() {
        let t = Table1d::new(vec![1.0], vec![42.0]).unwrap();
        assert_eq!(t.lookup(-10.0).unwrap(), 42.0);
        assert_eq!(t.lookup(10.0).unwrap(), 42.0);
    }

    #[test]
    fn rejects_bad_tables() {
        assert!(Table1d::new(vec![], vec![]).is_err());
        assert!(Table1d::new(vec![1.0], vec![1.0, 2.0]).is_err());
        assert!(Table1d::new(vec![1.0, 1.0], vec![1.0, 2.0]).is_err());
        assert!(Table1d::new(vec![2.0, 1.0], vec![1.0, 2.0]).is_err());
        assert!(Table1d::new(vec![1.0, f64::NAN], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn rejects_non_finite_lookup() {
        let t = Table1d::new(vec![0.0, 1.0], vec![0.0, 1.0]).unwrap();
        assert!(t.lookup(f64::NAN).is_err());
    }

    #[test]
    fn interp1_convenience_matches_table() {
        assert_eq!(interp1(&[0.0, 2.0], &[0.0, 4.0], 1.0).unwrap(), 2.0);
    }
}
