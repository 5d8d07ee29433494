//! Property-based tests for the numerical substrate.

use numeric::{lstsq, ridge_lstsq, stats, Matrix, NormalEquations, NumericError, Summary, Vector};
use proptest::prelude::*;

fn small_f64() -> impl Strategy<Value = f64> {
    (-1.0e3..1.0e3f64).prop_filter("finite", |v| v.is_finite())
}

fn square_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(small_f64(), n * n)
        .prop_map(move |data| Matrix::from_vec(n, n, data).expect("dims match"))
}

fn vector(n: usize) -> impl Strategy<Value = Vector> {
    prop::collection::vec(small_f64(), n).prop_map(Vector::from)
}

/// Ridge least squares spelled out with the matrix operations: `Φᵀ`, then
/// `Φᵀ·Φ + λI` and `Φᵀ·y`, then one LU solve. The normal equations
/// accumulated row by row must match it bit for bit.
fn reference_ridge_lstsq(phi: &Matrix, y: &Vector, lambda: f64) -> Result<Vector, NumericError> {
    let phi_t = phi.transpose();
    let mut gram = phi_t.mul(phi)?;
    if lambda > 0.0 {
        for i in 0..gram.rows() {
            gram[(i, i)] += lambda;
        }
    }
    let rhs = phi_t.mul_vector(y)?;
    gram.solve(&rhs)
}

/// A value that is exactly zero about a third of the time.
fn sparse_f64() -> impl Strategy<Value = f64> {
    (-3.0..3.0f64).prop_map(|v| if v.abs() < 1.0 { 0.0 } else { v * 7.3 })
}

proptest! {
    #[test]
    fn multi_target_solve_matches_the_matrix_operations_bit_for_bit(
        cols in 1..9usize,
        extra_rows in 0..40usize,
        cells in prop::collection::vec(sparse_f64(), 9 * 48),
        target_cells in prop::collection::vec(sparse_f64(), 4 * 48),
        targets in 1..5usize,
        lambda_pick in 0..3usize,
    ) {
        let rows = cols + extra_rows;
        let phi = Matrix::from_vec(rows, cols, cells[..rows * cols].to_vec()).unwrap();
        let ys: Vec<Vector> = target_cells
            .chunks_exact(48)
            .take(targets)
            .map(|c| Vector::from_slice(&c[..rows]))
            .collect();
        let lambda = [0.0, 1e-9, 0.5][lambda_pick];
        let mut normal = NormalEquations::new(cols, ys.len());
        for (k, row) in phi.as_slice().chunks_exact(cols).enumerate() {
            let targets: Vec<f64> = ys.iter().map(|y| y[k]).collect();
            normal.add_row(row, &targets);
        }
        let thetas = normal.solve(lambda);
        let references: Vec<_> = ys
            .iter()
            .map(|y| reference_ridge_lstsq(&phi, y, lambda))
            .collect();
        match thetas {
            Ok(thetas) => {
                prop_assert_eq!(thetas.len(), ys.len());
                for (theta, reference) in thetas.iter().zip(&references) {
                    let reference = reference.as_ref().expect("the reference solves too");
                    let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(theta), bits(reference));
                }
            }
            // A singular Gram matrix fails for every target alike.
            Err(err) => prop_assert_eq!(references[0].as_ref().unwrap_err(), &err),
        }
    }

    #[test]
    fn transpose_is_involution(m in square_matrix(4)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matrix_addition_commutes(a in square_matrix(3), b in square_matrix(3)) {
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert!(ab.sub(&ba).unwrap().max_abs() < 1e-9);
    }

    #[test]
    fn identity_is_multiplicative_neutral(m in square_matrix(4)) {
        let i = Matrix::identity(4);
        let left = i.mul(&m).unwrap();
        let right = m.mul(&i).unwrap();
        prop_assert!(left.sub(&m).unwrap().max_abs() < 1e-12);
        prop_assert!(right.sub(&m).unwrap().max_abs() < 1e-12);
    }

    #[test]
    fn solve_round_trips_diagonally_dominant(
        offdiag in prop::collection::vec(-0.9..0.9f64, 12),
        x in vector(4),
    ) {
        // Build a diagonally dominant (hence nonsingular) 4x4 matrix.
        let mut a = Matrix::identity(4).scale(5.0);
        let mut k = 0;
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    a[(i, j)] = offdiag[k];
                    k += 1;
                }
            }
        }
        let b = a.mul_vector(&x).unwrap();
        let solved = a.solve(&b).unwrap();
        for i in 0..4 {
            prop_assert!((solved[i] - x[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn lstsq_recovers_exact_linear_model(
        theta in vector(3),
        xs in prop::collection::vec(prop::collection::vec(-10.0..10.0f64, 3), 20..60),
    ) {
        let rows: Vec<&[f64]> = xs.iter().map(|r| r.as_slice()).collect();
        let phi = Matrix::from_rows(&rows).unwrap();
        let y = phi.mul_vector(&theta).unwrap();
        match lstsq(&phi, &y) {
            Ok(est) => {
                let reproduced = phi.mul_vector(&est).unwrap();
                for i in 0..y.len() {
                    prop_assert!((reproduced[i] - y[i]).abs() < 1e-5);
                }
            }
            // Random regressors can be (near-)collinear; ridge must then succeed.
            Err(_) => {
                let est = ridge_lstsq(&phi, &y, 1e-6).unwrap();
                prop_assert!(est.is_finite());
            }
        }
    }

    #[test]
    fn summary_bounds_are_consistent(samples in prop::collection::vec(-1e3..1e3f64, 1..200)) {
        let s = Summary::of(&samples);
        prop_assert!(s.min <= s.mean + 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
        prop_assert!(s.variance >= 0.0);
        prop_assert!((s.std_dev * s.std_dev - s.variance).abs() < 1e-6);
        prop_assert!(s.range() >= 0.0);
    }

    #[test]
    fn rmse_is_zero_iff_series_equal(samples in prop::collection::vec(-1e3..1e3f64, 1..50)) {
        prop_assert_eq!(stats::rmse(&samples, &samples), 0.0);
    }

    #[test]
    fn fit_percentage_of_self_is_100(samples in prop::collection::vec(-1e3..1e3f64, 2..50)) {
        prop_assert!((stats::fit_percentage(&samples, &samples) - 100.0).abs() < 1e-9);
    }
}
