//! Least-squares identification of the discrete thermal model.
//!
//! Each row of `[As | Bs]` is identified independently: for hotspot `i` the
//! regression target is `T_i[k+1]` and the regressors are all hotspot
//! temperatures `T[k]` followed by all domain powers `P[k]` (temperatures
//! relative to ambient). This is exactly the ARX structure the paper fits
//! with MATLAB's System Identification Toolbox. The rows share the
//! regressors, so one set of [`NormalEquations`], accumulated transition by
//! transition straight from the log, fits them all.

use numeric::{Matrix, NormalEquations};
use thermal_model::DiscreteThermalModel;

use crate::{DatasetRows, SysIdError};

/// Options controlling the identification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdentificationOptions {
    /// Ridge (Tikhonov) regularisation applied to the normal equations. A
    /// small positive value keeps the problem well-conditioned when one input
    /// channel is barely excited (e.g. memory power during a CPU-only PRBS).
    pub ridge_lambda: f64,
    /// Reject identified models whose spectral radius is not strictly below
    /// one. A physical thermal model is always stable, so an unstable fit
    /// indicates an inadequate experiment.
    pub require_stable: bool,
}

impl Default for IdentificationOptions {
    fn default() -> Self {
        IdentificationOptions {
            ridge_lambda: 1e-9,
            require_stable: true,
        }
    }
}

/// Identifies a [`DiscreteThermalModel`] from a range of logged samples.
///
/// The regressors and targets of every transition `k → k+1` are read from
/// the log in place, relative to the ambient, and added to the normal
/// equations one transition at a time.
///
/// # Errors
///
/// * [`SysIdError::InsufficientData`] if the range has fewer samples than
///   regressors (plus one).
/// * [`SysIdError::Numeric`] if the least-squares problem is singular even
///   with regularisation.
/// * [`SysIdError::UnstableModel`] if the fit is unstable and
///   [`IdentificationOptions::require_stable`] is set.
pub fn identify(
    data: DatasetRows<'_>,
    options: &IdentificationOptions,
) -> Result<DiscreteThermalModel, SysIdError> {
    let n_states = data.state_count();
    let n_inputs = data.input_count();
    let n_regressors = n_states + n_inputs;
    let n_samples = data.len();
    if n_samples < n_regressors + 1 {
        return Err(SysIdError::InsufficientData {
            required: n_regressors + 1,
            provided: n_samples,
        });
    }

    let ambient = data.ambient_c();
    let mut normal = NormalEquations::new(n_regressors, n_states);
    let mut regressors = vec![0.0; n_regressors];
    let mut targets = vec![0.0; n_states];
    for k in 0..n_samples - 1 {
        let (temps, powers) = data.sample(k);
        for (x, t) in regressors.iter_mut().zip(temps) {
            *x = t - ambient;
        }
        regressors[n_states..].copy_from_slice(powers);
        for (y, t) in targets.iter_mut().zip(data.sample(k + 1).0) {
            *y = t - ambient;
        }
        normal.add_row(&regressors, &targets);
    }
    let thetas = normal.solve(options.ridge_lambda)?;

    let mut a = Matrix::zeros(n_states, n_states);
    let mut b = Matrix::zeros(n_states, n_inputs);
    for (i, theta) in thetas.iter().enumerate() {
        a.set_row(i, &theta.as_slice()[..n_states]);
        b.set_row(i, &theta.as_slice()[n_states..]);
    }

    let model = DiscreteThermalModel::new(a, b, data.sample_period_s())?;
    if options.require_stable {
        let rho = model.spectral_radius()?;
        // A NaN radius (a non-finite fit) is no more stable than rho >= 1.
        if !(rho < 1.0) {
            return Err(SysIdError::UnstableModel {
                spectral_radius: rho,
            });
        }
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IdentificationDataset;
    use numeric::Vector;

    /// Generates a dataset by simulating a known discrete model under a
    /// square-wave excitation on each input in turn.
    fn simulate_dataset(
        truth: &DiscreteThermalModel,
        steps: usize,
        ambient: f64,
    ) -> IdentificationDataset {
        let n_states = truth.state_count();
        let n_inputs = truth.input_count();
        let mut ds =
            IdentificationDataset::new(n_states, n_inputs, truth.sample_period_s(), ambient)
                .unwrap();
        let mut t = Vector::zeros(n_states);
        for k in 0..steps {
            // Excite each input with a different-period square wave so every
            // column of B is observable.
            let p = Vector::from_iter((0..n_inputs).map(|u| {
                let period = 8 + 6 * u;
                if (k / period) % 2 == 0 {
                    0.3
                } else {
                    2.0 + u as f64 * 0.5
                }
            }));
            let abs_t = Vector::from_iter(t.iter().map(|x| x + ambient));
            ds.push(abs_t, p.clone()).unwrap();
            t = truth.step(&t, &p).unwrap();
        }
        ds
    }

    fn example_truth() -> DiscreteThermalModel {
        // All rows distinct so every state trajectory is distinguishable and
        // the parameters are identifiable from input-output data.
        let a = Matrix::from_rows(&[
            &[0.930, 0.020, 0.025, 0.010],
            &[0.015, 0.920, 0.010, 0.030],
            &[0.030, 0.012, 0.940, 0.015],
            &[0.008, 0.028, 0.018, 0.910],
        ])
        .unwrap();
        let b = Matrix::from_rows(&[
            &[0.25, 0.04, 0.08, 0.03],
            &[0.20, 0.06, 0.05, 0.04],
            &[0.28, 0.03, 0.09, 0.02],
            &[0.22, 0.07, 0.04, 0.05],
        ])
        .unwrap();
        DiscreteThermalModel::new(a, b, 0.1).unwrap()
    }

    #[test]
    fn recovers_exact_model_from_noise_free_data() {
        let truth = example_truth();
        let ds = simulate_dataset(&truth, 800, 25.0);
        let model = identify(ds.rows(..), &IdentificationOptions::default()).unwrap();
        let a_err = model.a().sub(truth.a()).unwrap().max_abs();
        let b_err = model.b().sub(truth.b()).unwrap().max_abs();
        assert!(a_err < 1e-6, "A error {a_err}");
        assert!(b_err < 1e-6, "B error {b_err}");
        assert!(model.is_stable());
    }

    #[test]
    fn identified_model_predicts_held_out_data() {
        let truth = example_truth();
        let ds = simulate_dataset(&truth, 1200, 25.0);
        let (train, test) = (ds.rows(..720), ds.rows(720..));
        let model = identify(train, &IdentificationOptions::default()).unwrap();
        // Free-run the identified model over the validation segment.
        let rel = test.relative_temps();
        let mut state = Vector::from_slice(&rel[..4]);
        let mut worst = 0.0f64;
        for (k, p) in test
            .powers()
            .chunks_exact(4)
            .enumerate()
            .take(test.len() - 1)
        {
            state = model.step(&state, &Vector::from_slice(p)).unwrap();
            worst = worst.max((state[0] - rel[(k + 1) * 4]).abs());
        }
        assert!(worst < 0.05, "free-run error {worst}");
    }

    #[test]
    fn rejects_insufficient_data() {
        let truth = example_truth();
        let ds = simulate_dataset(&truth, 6, 25.0);
        assert!(matches!(
            identify(ds.rows(..), &IdentificationOptions::default()),
            Err(SysIdError::InsufficientData { .. })
        ));
    }

    #[test]
    fn unexcited_input_needs_ridge() {
        // Build a dataset where input 3 is exactly constant; without
        // regularisation the normal equations are singular (constant column is
        // collinear with nothing but still rank-deficient together with the
        // steady temperature offset pattern it induces).
        let truth = example_truth();
        let mut ds = IdentificationDataset::new(4, 4, 0.1, 25.0).unwrap();
        let mut t = Vector::zeros(4);
        for k in 0..600 {
            let p = Vector::from_slice(&[
                if (k / 10) % 2 == 0 { 0.3 } else { 2.0 },
                if (k / 16) % 2 == 0 { 0.1 } else { 0.8 },
                0.0, // GPU never excited
                0.0, // memory never excited
            ]);
            ds.push(Vector::from_iter(t.iter().map(|x| x + 25.0)), p.clone())
                .unwrap();
            t = truth.step(&t, &p).unwrap();
        }
        let options = IdentificationOptions {
            ridge_lambda: 1e-6,
            require_stable: true,
        };
        let model = identify(ds.rows(..), &options).unwrap();
        // The excited columns must still be accurate.
        for i in 0..4 {
            assert!((model.b()[(i, 0)] - truth.b()[(i, 0)]).abs() < 1e-3);
            assert!((model.b()[(i, 1)] - truth.b()[(i, 1)]).abs() < 1e-3);
        }
    }

    #[test]
    fn a_non_finite_fit_is_not_stable() {
        // One NaN reading poisons the normal equations. The fit comes out
        // NaN, and so does its spectral radius, which `rho >= 1.0` let
        // through as stable.
        let truth = example_truth();
        let mut ds = simulate_dataset(&truth, 200, 25.0);
        ds.push_row(&[f64::NAN, 25.0, 25.0, 25.0], &[1.0; 4])
            .unwrap();
        assert!(matches!(
            identify(ds.rows(..), &IdentificationOptions::default()),
            Err(SysIdError::UnstableModel { spectral_radius }) if spectral_radius.is_nan()
        ));
    }

    #[test]
    fn stability_requirement_can_be_relaxed() {
        // A dataset from an *unstable* artificial system: identification
        // succeeds only when the stability check is disabled.
        let a = Matrix::from_rows(&[&[1.02]]).unwrap();
        let b = Matrix::from_rows(&[&[0.5]]).unwrap();
        let truth = DiscreteThermalModel::new(a, b, 0.1).unwrap();
        let mut ds = IdentificationDataset::new(1, 1, 0.1, 25.0).unwrap();
        let mut t = Vector::zeros(1);
        for k in 0..100 {
            let p = Vector::from_slice(&[if (k / 5) % 2 == 0 { 0.1 } else { 1.0 }]);
            ds.push(Vector::from_iter(t.iter().map(|x| x + 25.0)), p.clone())
                .unwrap();
            t = truth.step(&t, &p).unwrap();
        }
        assert!(matches!(
            identify(ds.rows(..), &IdentificationOptions::default()),
            Err(SysIdError::UnstableModel { .. })
        ));
        let relaxed = IdentificationOptions {
            require_stable: false,
            ..IdentificationOptions::default()
        };
        let model = identify(ds.rows(..), &relaxed).unwrap();
        assert!((model.a()[(0, 0)] - 1.02).abs() < 1e-6);
    }
}
