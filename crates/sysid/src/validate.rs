//! Validation of identified thermal models.
//!
//! Two validation views are used by the paper:
//!
//! * a *free-run* comparison — simulate the identified model from the first
//!   measured state using only the recorded powers and compare against the
//!   measured temperatures (the classic `compare` plot, Figure 4.9),
//! * an *n-step prediction error* — at every sample `k`, predict `T[k+n]`
//!   from the measured `T[k]` and the recorded powers, then compare with the
//!   measurement at `k+n`; the paper reports the average percentage error at
//!   a 1 s horizon (< 3 %) and its growth with the horizon (Figure 4.10,
//!   Figure 6.2).

use numeric::{stats, Vector};
use thermal_model::DiscreteThermalModel;

use crate::{DatasetRows, SysIdError};

/// Free-run validation metrics (per the hottest-tracked hotspot and averaged).
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Root-mean-square error per hotspot, in °C.
    pub rmse_per_state_c: Vec<f64>,
    /// Maximum absolute error over all hotspots and samples, in °C.
    pub max_abs_error_c: f64,
    /// Normalised fit percentage per hotspot (100 = perfect).
    pub fit_percent_per_state: Vec<f64>,
    /// Number of validation samples.
    pub samples: usize,
}

impl ValidationReport {
    /// Mean RMSE across hotspots, in °C.
    pub fn mean_rmse_c(&self) -> f64 {
        stats::mean(&self.rmse_per_state_c)
    }

    /// Mean fit percentage across hotspots.
    pub fn mean_fit_percent(&self) -> f64 {
        stats::mean(&self.fit_percent_per_state)
    }
}

/// n-step prediction error metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionErrorReport {
    /// Horizon in control intervals.
    pub horizon_steps: usize,
    /// Horizon in seconds.
    pub horizon_s: f64,
    /// Mean absolute error in °C over all hotspots and samples.
    pub mean_abs_error_c: f64,
    /// Mean absolute percentage error (temperatures in °C, as the paper
    /// reports it).
    pub mean_percent_error: f64,
    /// Maximum absolute error in °C.
    pub max_abs_error_c: f64,
    /// Maximum percentage error.
    pub max_percent_error: f64,
    /// Number of prediction points evaluated.
    pub samples: usize,
}

/// Free-runs the identified model over a range of samples and reports fit
/// metrics.
///
/// # Errors
///
/// Returns [`SysIdError::DimensionMismatch`] if the model and dataset
/// dimensions disagree, or [`SysIdError::InsufficientData`] for fewer than two
/// samples.
pub fn validate_free_run(
    model: &DiscreteThermalModel,
    dataset: DatasetRows<'_>,
) -> Result<ValidationReport, SysIdError> {
    check_compat(model, dataset)?;
    if dataset.len() < 2 {
        return Err(SysIdError::InsufficientData {
            required: 2,
            provided: dataset.len(),
        });
    }
    let measured = dataset.relative_temps();
    let n_states = dataset.state_count();

    let mut simulated = Vec::with_capacity(measured.len());
    let mut state = Vector::from_slice(&measured[..n_states]);
    let mut next = Vector::zeros(n_states);
    let mut power = Vector::zeros(dataset.input_count());
    simulated.extend_from_slice(state.as_slice());
    for p in dataset
        .powers()
        .chunks_exact(power.len())
        .take(dataset.len() - 1)
    {
        power.as_mut_slice().copy_from_slice(p);
        model.step_into(&state, &power, &mut next)?;
        std::mem::swap(&mut state, &mut next);
        simulated.extend_from_slice(state.as_slice());
    }

    let mut rmse_per_state_c = Vec::with_capacity(n_states);
    let mut fit_percent_per_state = Vec::with_capacity(n_states);
    let mut max_abs = 0.0f64;
    let mut sim = Vec::with_capacity(dataset.len());
    let mut meas = Vec::with_capacity(dataset.len());
    for s in 0..n_states {
        sim.clear();
        sim.extend(simulated[s..].iter().step_by(n_states));
        meas.clear();
        meas.extend(measured[s..].iter().step_by(n_states));
        rmse_per_state_c.push(stats::rmse(&sim, &meas));
        fit_percent_per_state.push(stats::fit_percentage(&sim, &meas));
        max_abs = max_abs.max(stats::max_absolute_error(&sim, &meas));
    }
    Ok(ValidationReport {
        rmse_per_state_c,
        max_abs_error_c: max_abs,
        fit_percent_per_state,
        samples: dataset.len(),
    })
}

/// Evaluates the n-step-ahead prediction error of the model over a range of
/// samples.
///
/// At every sample `k` the model predicts `T[k+horizon]` starting from the
/// *measured* `T[k]`, applying the recorded powers `P[k..k+horizon]`. Errors
/// are evaluated on absolute temperatures in °C (relative-to-ambient
/// temperatures are shifted back), matching how the paper quotes percentages.
///
/// The samples are read in place and the errors are summed as they are
/// found, in the order [`stats::mean`] would sum them once collected, so no
/// buffer grows with the range.
///
/// # Errors
///
/// Returns [`SysIdError::InvalidConfig`] for a zero horizon,
/// [`SysIdError::DimensionMismatch`] for incompatible dimensions, or
/// [`SysIdError::InsufficientData`] if the range is shorter than the horizon
/// plus one.
pub fn n_step_prediction(
    model: &DiscreteThermalModel,
    dataset: DatasetRows<'_>,
    horizon_steps: usize,
) -> Result<PredictionErrorReport, SysIdError> {
    if horizon_steps == 0 {
        return Err(SysIdError::InvalidConfig(
            "horizon must be at least one step",
        ));
    }
    check_compat(model, dataset)?;
    if dataset.len() < horizon_steps + 1 {
        return Err(SysIdError::InsufficientData {
            required: horizon_steps + 1,
            provided: dataset.len(),
        });
    }

    let ambient = dataset.ambient_c();
    let n_states = dataset.state_count();
    let n_inputs = dataset.input_count();
    let mut abs_errors = ErrorSum::default();
    let mut pct_errors = ErrorSum::default();
    let mut state = Vector::zeros(n_states);
    let mut next = Vector::zeros(n_states);
    let mut power = Vector::zeros(n_inputs);
    for k in 0..dataset.len() - horizon_steps {
        for (s, t) in state.as_mut_slice().iter_mut().zip(dataset.sample(k).0) {
            *s = t - ambient;
        }
        for j in k..k + horizon_steps {
            power.as_mut_slice().copy_from_slice(dataset.sample(j).1);
            model.step_into(&state, &power, &mut next)?;
            std::mem::swap(&mut state, &mut next);
        }
        let truth = dataset.sample(k + horizon_steps).0;
        for (&predicted_rel, &truth_c) in state.iter().zip(truth) {
            let predicted_c = predicted_rel + ambient;
            // The measurement as the model sees it: relative, shifted back.
            let measured_c = (truth_c - ambient) + ambient;
            let err = (predicted_c - measured_c).abs();
            abs_errors.add(err);
            if measured_c.abs() > f64::EPSILON {
                pct_errors.add(100.0 * err / measured_c.abs());
            }
        }
    }

    Ok(PredictionErrorReport {
        horizon_steps,
        horizon_s: horizon_steps as f64 * dataset.sample_period_s(),
        mean_abs_error_c: abs_errors.mean(),
        mean_percent_error: pct_errors.mean(),
        max_abs_error_c: abs_errors.max,
        max_percent_error: pct_errors.max,
        samples: abs_errors.count,
    })
}

/// The count, sum and maximum of a stream of errors. The sum starts where
/// `Iterator::sum::<f64>` starts and adds in arrival order, so
/// [`ErrorSum::mean`] has the bits of [`stats::mean`] over the collected
/// errors; the maximum folds from zero with `f64::max`.
#[derive(Debug)]
struct ErrorSum {
    count: usize,
    sum: f64,
    max: f64,
}

impl Default for ErrorSum {
    fn default() -> Self {
        ErrorSum {
            count: 0,
            sum: std::iter::empty::<f64>().sum(),
            max: 0.0,
        }
    }
}

impl ErrorSum {
    fn add(&mut self, error: f64) {
        self.count += 1;
        self.sum += error;
        self.max = self.max.max(error);
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

fn check_compat(model: &DiscreteThermalModel, dataset: DatasetRows<'_>) -> Result<(), SysIdError> {
    if model.state_count() != dataset.state_count() {
        return Err(SysIdError::DimensionMismatch {
            what: "model state count",
            expected: dataset.state_count(),
            actual: model.state_count(),
        });
    }
    if model.input_count() != dataset.input_count() {
        return Err(SysIdError::DimensionMismatch {
            what: "model input count",
            expected: dataset.input_count(),
            actual: model.input_count(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identify::{identify, IdentificationOptions};
    use crate::IdentificationDataset;
    use numeric::{Matrix, Vector};

    fn truth_model() -> DiscreteThermalModel {
        let a = Matrix::from_rows(&[&[0.94, 0.02], &[0.02, 0.94]]).unwrap();
        let b = Matrix::from_rows(&[&[0.20, 0.05], &[0.18, 0.06]]).unwrap();
        DiscreteThermalModel::new(a, b, 0.1).unwrap()
    }

    fn make_dataset(truth: &DiscreteThermalModel, steps: usize) -> IdentificationDataset {
        let mut ds = IdentificationDataset::new(2, 2, 0.1, 25.0).unwrap();
        let mut t = Vector::from_slice(&[20.0, 18.0]);
        for k in 0..steps {
            let p = Vector::from_slice(&[
                if (k / 12) % 2 == 0 { 0.4 } else { 2.2 },
                if (k / 20) % 2 == 0 { 0.1 } else { 0.9 },
            ]);
            ds.push(Vector::from_iter(t.iter().map(|x| x + 25.0)), p.clone())
                .unwrap();
            t = truth.step(&t, &p).unwrap();
        }
        ds
    }

    #[test]
    fn perfect_model_validates_perfectly() {
        let truth = truth_model();
        let ds = make_dataset(&truth, 400);
        let report = validate_free_run(&truth, ds.rows(..)).unwrap();
        assert!(report.mean_rmse_c() < 1e-9);
        assert!(report.max_abs_error_c < 1e-9);
        assert!(report.mean_fit_percent() > 99.9);

        let pred = n_step_prediction(&truth, ds.rows(..), 10).unwrap();
        assert!(pred.mean_abs_error_c < 1e-9);
        assert!(pred.mean_percent_error < 1e-9);
        assert!((pred.horizon_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identified_model_keeps_errors_small() {
        let truth = truth_model();
        let ds = make_dataset(&truth, 800);
        let (train, test) = (ds.rows(..400), ds.rows(400..));
        let model = identify(train, &IdentificationOptions::default()).unwrap();
        let report = validate_free_run(&model, test).unwrap();
        assert!(report.mean_rmse_c() < 0.05, "rmse {}", report.mean_rmse_c());
        let pred = n_step_prediction(&model, test, 10).unwrap();
        assert!(pred.mean_percent_error < 1.0);
    }

    #[test]
    fn prediction_error_grows_with_horizon_for_wrong_model() {
        // Deliberately perturbed model: longer horizons accumulate more error.
        let truth = truth_model();
        let ds = make_dataset(&truth, 600);
        let wrong = DiscreteThermalModel::new(
            truth.a().scale(0.98),
            truth.b().scale(1.1),
            truth.sample_period_s(),
        )
        .unwrap();
        let e1 = n_step_prediction(&wrong, ds.rows(..), 1).unwrap();
        let e10 = n_step_prediction(&wrong, ds.rows(..), 10).unwrap();
        let e50 = n_step_prediction(&wrong, ds.rows(..), 50).unwrap();
        assert!(e1.mean_abs_error_c < e10.mean_abs_error_c);
        assert!(e10.mean_abs_error_c < e50.mean_abs_error_c);
    }

    /// The dataset as one `Vector` per sample: (relative temps, powers).
    fn sample_vectors(dataset: &IdentificationDataset) -> (Vec<Vector>, Vec<Vector>) {
        let rel = dataset.rows(..).relative_temps();
        let rows = |flat: &[f64], width| flat.chunks_exact(width).map(Vector::from_slice).collect();
        (
            rows(&rel, dataset.state_count()),
            rows(dataset.powers(), dataset.input_count()),
        )
    }

    /// The free-run loop over per-sample vectors, one allocating `step` per
    /// sample: the reference `validate_free_run` must match bit for bit.
    fn reference_free_run(
        model: &DiscreteThermalModel,
        dataset: &IdentificationDataset,
    ) -> ValidationReport {
        let (measured, powers) = sample_vectors(dataset);
        let mut simulated = Vec::with_capacity(dataset.len());
        let mut state = measured[0].clone();
        simulated.push(state.clone());
        for power in powers.iter().take(dataset.len() - 1) {
            state = model.step(&state, power).unwrap();
            simulated.push(state.clone());
        }
        let mut rmse_per_state_c = Vec::new();
        let mut fit_percent_per_state = Vec::new();
        let mut max_abs = 0.0f64;
        for s in 0..dataset.state_count() {
            let sim: Vec<f64> = simulated.iter().map(|v| v[s]).collect();
            let meas: Vec<f64> = measured.iter().map(|v| v[s]).collect();
            rmse_per_state_c.push(stats::rmse(&sim, &meas));
            fit_percent_per_state.push(stats::fit_percentage(&sim, &meas));
            max_abs = max_abs.max(stats::max_absolute_error(&sim, &meas));
        }
        ValidationReport {
            rmse_per_state_c,
            max_abs_error_c: max_abs,
            fit_percent_per_state,
            samples: dataset.len(),
        }
    }

    /// The n-step loop over per-sample vectors, cloning each starting state
    /// and allocating every `step`: the reference `n_step_prediction` must
    /// match bit for bit.
    fn reference_n_step(
        model: &DiscreteThermalModel,
        dataset: &IdentificationDataset,
        horizon: usize,
    ) -> PredictionErrorReport {
        let (measured_rel, powers) = sample_vectors(dataset);
        let ambient = dataset.ambient_c();
        let mut abs_errors = Vec::new();
        let mut pct_errors = Vec::new();
        for k in 0..dataset.len() - horizon {
            let mut state = measured_rel[k].clone();
            for power in &powers[k..k + horizon] {
                state = model.step(&state, power).unwrap();
            }
            let truth = &measured_rel[k + horizon];
            for s in 0..dataset.state_count() {
                let predicted_c = state[s] + ambient;
                let measured_c = truth[s] + ambient;
                let err = (predicted_c - measured_c).abs();
                abs_errors.push(err);
                if measured_c.abs() > f64::EPSILON {
                    pct_errors.push(100.0 * err / measured_c.abs());
                }
            }
        }
        PredictionErrorReport {
            horizon_steps: horizon,
            horizon_s: horizon as f64 * dataset.sample_period_s(),
            mean_abs_error_c: stats::mean(&abs_errors),
            mean_percent_error: stats::mean(&pct_errors),
            max_abs_error_c: abs_errors.iter().copied().fold(0.0, f64::max),
            max_percent_error: pct_errors.iter().copied().fold(0.0, f64::max),
            samples: abs_errors.len(),
        }
    }

    /// A noisy log of `truth` (deterministic pseudo-noise on every reading)
    /// and a model that is wrong in every entry, so every error is non-zero.
    fn noisy_log_and_wrong_model() -> (IdentificationDataset, DiscreteThermalModel) {
        let truth = truth_model();
        let mut ds = IdentificationDataset::new(2, 2, 0.1, 25.0).unwrap();
        let mut t = Vector::from_slice(&[20.0, 18.0]);
        let mut noise = 0x9e37_79b9_u64;
        let mut jitter = || {
            noise = noise
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((noise >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.2
        };
        for k in 0..300 {
            let p = Vector::from_slice(&[
                if (k / 12) % 2 == 0 { 0.4 } else { 2.2 },
                if (k / 20) % 2 == 0 { 0.1 } else { 0.9 },
            ]);
            let temps = [t[0] + 25.0 + jitter(), t[1] + 25.0 + jitter()];
            ds.push_row(&temps, &[p[0] + jitter(), p[1]]).unwrap();
            t = truth.step(&t, &p).unwrap();
        }
        let wrong = DiscreteThermalModel::new(
            Matrix::from_rows(&[&[0.931, 0.027], &[0.013, 0.95]]).unwrap(),
            Matrix::from_rows(&[&[0.21, 0.047], &[0.171, 0.066]]).unwrap(),
            0.1,
        )
        .unwrap();
        (ds, wrong)
    }

    #[test]
    fn free_run_matches_the_per_sample_loop_bit_for_bit() {
        let (ds, model) = noisy_log_and_wrong_model();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let report = validate_free_run(&model, ds.rows(..)).unwrap();
        let reference = reference_free_run(&model, &ds);
        assert_eq!(
            bits(&report.rmse_per_state_c),
            bits(&reference.rmse_per_state_c)
        );
        assert_eq!(
            bits(&report.fit_percent_per_state),
            bits(&reference.fit_percent_per_state)
        );
        assert_eq!(
            report.max_abs_error_c.to_bits(),
            reference.max_abs_error_c.to_bits()
        );
        assert_eq!(report.samples, reference.samples);
    }

    #[test]
    fn n_step_prediction_matches_the_per_sample_loop_bit_for_bit() {
        let (ds, model) = noisy_log_and_wrong_model();
        for horizon in [1, 7, 10, 50, 299] {
            let report = n_step_prediction(&model, ds.rows(..), horizon).unwrap();
            let reference = reference_n_step(&model, &ds, horizon);
            let fields = |r: &PredictionErrorReport| {
                (
                    r.horizon_steps,
                    r.samples,
                    [
                        r.horizon_s,
                        r.mean_abs_error_c,
                        r.mean_percent_error,
                        r.max_abs_error_c,
                        r.max_percent_error,
                    ]
                    .map(f64::to_bits),
                )
            };
            assert_eq!(fields(&report), fields(&reference), "horizon {horizon}");
        }
    }

    #[test]
    fn rejects_incompatible_dimensions_and_tiny_data() {
        let truth = truth_model();
        let ds = make_dataset(&truth, 30);
        let other =
            DiscreteThermalModel::new(Matrix::identity(3).scale(0.9), Matrix::zeros(3, 2), 0.1)
                .unwrap();
        assert!(validate_free_run(&other, ds.rows(..)).is_err());
        assert!(n_step_prediction(&truth, ds.rows(..), 0).is_err());
        assert!(n_step_prediction(&truth, ds.rows(..), 40).is_err());

        let tiny = make_dataset(&truth, 1);
        assert!(validate_free_run(&truth, tiny.rows(..)).is_err());
    }
}
