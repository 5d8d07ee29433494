//! Least-squares identification of the discrete thermal model.
//!
//! Each row of `[As | Bs]` is identified independently: for hotspot `i` the
//! regression target is `T_i[k+1]` and the regressors are all hotspot
//! temperatures `T[k]` followed by all domain powers `P[k]` (temperatures
//! relative to ambient). This is exactly the ARX structure the paper fits
//! with MATLAB's System Identification Toolbox.

use numeric::{ridge_lstsq, Matrix, Vector};
use thermal_model::DiscreteThermalModel;

use crate::{IdentificationDataset, SysIdError};

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

/// Identifies a [`DiscreteThermalModel`] from a logged dataset.
///
/// # Errors
///
/// * [`SysIdError::InsufficientData`] if the dataset has fewer samples than
///   regressors (plus one).
/// * [`SysIdError::Numeric`] if the least-squares problem is singular even
///   with regularisation.
/// * [`SysIdError::UnstableModel`] if the fit is unstable and
///   [`IdentificationOptions::require_stable`] is set.
pub fn identify(
    dataset: &IdentificationDataset,
    options: &IdentificationOptions,
) -> Result<DiscreteThermalModel, SysIdError> {
    let n_states = dataset.state_count();
    let n_inputs = dataset.input_count();
    let n_regressors = n_states + n_inputs;
    let n_samples = dataset.len();
    if n_samples < n_regressors + 1 {
        return Err(SysIdError::InsufficientData {
            required: n_regressors + 1,
            provided: n_samples,
        });
    }

    let temps = dataset.relative_temps();
    let powers = dataset.powers();

    // Build the shared regressor matrix Φ: one row per transition k -> k+1.
    let rows = n_samples - 1;
    let mut phi = Matrix::zeros(rows, n_regressors);
    for k in 0..rows {
        for s in 0..n_states {
            phi[(k, s)] = temps[k][s];
        }
        for u in 0..n_inputs {
            phi[(k, n_states + u)] = powers[k][u];
        }
    }

    let mut a = Matrix::zeros(n_states, n_states);
    let mut b = Matrix::zeros(n_states, n_inputs);
    for i in 0..n_states {
        let target = Vector::from_iter((0..rows).map(|k| temps[k + 1][i]));
        let theta = ridge_lstsq(&phi, &target, options.ridge_lambda)?;
        for s in 0..n_states {
            a[(i, s)] = theta[s];
        }
        for u in 0..n_inputs {
            b[(i, u)] = theta[n_states + u];
        }
    }

    let model = DiscreteThermalModel::new(a, b, dataset.sample_period_s())?;
    if options.require_stable {
        let rho = model.spectral_radius()?;
        if rho >= 1.0 {
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
    use numeric::Matrix;

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
        let model = identify(&ds, &IdentificationOptions::default()).unwrap();
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
        let (train, test) = ds.split(0.6).unwrap();
        let model = identify(&train, &IdentificationOptions::default()).unwrap();
        // Free-run the identified model over the validation segment.
        let rel = test.relative_temps();
        let mut state = rel[0].clone();
        let mut worst = 0.0f64;
        for k in 0..test.len() - 1 {
            state = model.step(&state, &test.powers()[k]).unwrap();
            worst = worst.max((state[0] - rel[k + 1][0]).abs());
        }
        assert!(worst < 0.05, "free-run error {worst}");
    }

    #[test]
    fn rejects_insufficient_data() {
        let truth = example_truth();
        let ds = simulate_dataset(&truth, 6, 25.0);
        assert!(matches!(
            identify(&ds, &IdentificationOptions::default()),
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
        let model = identify(&ds, &options).unwrap();
        // The excited columns must still be accurate.
        for i in 0..4 {
            assert!((model.b()[(i, 0)] - truth.b()[(i, 0)]).abs() < 1e-3);
            assert!((model.b()[(i, 1)] - truth.b()[(i, 1)]).abs() < 1e-3);
        }
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
            identify(&ds, &IdentificationOptions::default()),
            Err(SysIdError::UnstableModel { .. })
        ));
        let relaxed = IdentificationOptions {
            require_stable: false,
            ..IdentificationOptions::default()
        };
        let model = identify(&ds, &relaxed).unwrap();
        assert!((model.a()[(0, 0)] - 1.02).abs() < 1e-6);
    }
}
