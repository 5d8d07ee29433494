//! Discrete linear state-space thermal model (Eqs. 4.4 and 4.5).
//!
//! The controller-side thermal model is a discrete linear time-invariant
//! system
//!
//! ```text
//! T[k+1] = As·T[k] + Bs·P[k]
//! ```
//!
//! whose states are the hotspot temperatures (the four big cores) and whose
//! inputs are the measured domain powers `[P_big, P_little, P_gpu, P_mem]`.
//! The temperatures here are expressed **relative to the ambient** so that a
//! zero-power system decays to zero — this is also what makes the simple
//! `T[k+1] = As·T[k] + Bs·P[k]` form physically meaningful and is how the
//! identification in the `sysid` crate fits the model.

use numeric::{Matrix, Vector};

use crate::ThermalError;

/// Discrete thermal state-space model `(As, Bs)` with a fixed sample period.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteThermalModel {
    a: Matrix,
    b: Matrix,
    sample_period_s: f64,
}

impl DiscreteThermalModel {
    /// Creates a model from its matrices and sample period.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidParameter`] if the sample period is not
    ///   positive or `As` is not square.
    /// * [`ThermalError::DimensionMismatch`] if `Bs` does not have the same
    ///   number of rows as `As`.
    pub fn new(a: Matrix, b: Matrix, sample_period_s: f64) -> Result<Self, ThermalError> {
        if !(sample_period_s > 0.0) || !sample_period_s.is_finite() {
            return Err(ThermalError::InvalidParameter(
                "sample period must be positive",
            ));
        }
        if !a.is_square() {
            return Err(ThermalError::InvalidParameter(
                "state matrix must be square",
            ));
        }
        if b.rows() != a.rows() {
            return Err(ThermalError::DimensionMismatch {
                what: "input matrix rows",
                expected: a.rows(),
                actual: b.rows(),
            });
        }
        Ok(DiscreteThermalModel {
            a,
            b,
            sample_period_s,
        })
    }

    /// Builds the model by Euler-discretising a continuous thermal network
    /// description `C·dT/dt = −G·T + P`:
    ///
    /// ```text
    /// As = I − Ts·C⁻¹·G,   Bs = Ts·C⁻¹          (Eq. 4.4)
    /// ```
    ///
    /// # Errors
    ///
    /// Returns an error if the matrices are incompatible, `C` is singular, or
    /// the resulting discrete model is unstable (sample period too long for
    /// the fastest time constant).
    pub fn from_continuous(
        capacitance: &Matrix,
        conductance: &Matrix,
        sample_period_s: f64,
    ) -> Result<Self, ThermalError> {
        if !capacitance.is_square() || !conductance.is_square() {
            return Err(ThermalError::InvalidParameter(
                "capacitance and conductance matrices must be square",
            ));
        }
        let c_inv = capacitance.inverse()?;
        let a = Matrix::identity(capacitance.rows())
            .sub(&c_inv.mul(conductance)?.scale(sample_period_s))?;
        let b = c_inv.scale(sample_period_s);
        let model = DiscreteThermalModel::new(a, b, sample_period_s)?;
        let rho = model.spectral_radius()?;
        if rho >= 1.0 {
            return Err(ThermalError::UnstableModel {
                spectral_radius: rho,
            });
        }
        Ok(model)
    }

    /// Number of thermal states (hotspots).
    pub fn state_count(&self) -> usize {
        self.a.rows()
    }

    /// Number of power inputs.
    pub fn input_count(&self) -> usize {
        self.b.cols()
    }

    /// The state matrix `As`.
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// The input matrix `Bs`.
    pub fn b(&self) -> &Matrix {
        &self.b
    }

    /// The sample period `Ts` in seconds.
    pub fn sample_period_s(&self) -> f64 {
        self.sample_period_s
    }

    /// The `i`-th row of `As` (written `As,i` in the paper's budget equation)
    /// as a borrowed slice — no per-call allocation.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn a_row(&self, i: usize) -> &[f64] {
        self.a.row_slice(i)
    }

    /// The `i`-th row of `Bs` (written `Bs,i` in the paper's budget equation)
    /// as a borrowed slice — no per-call allocation.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn b_row(&self, i: usize) -> &[f64] {
        self.b.row_slice(i)
    }

    /// One prediction step: `T[k+1] = As·T[k] + Bs·P[k]`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::DimensionMismatch`] for wrong-length vectors.
    pub fn step(&self, temps: &Vector, powers: &Vector) -> Result<Vector, ThermalError> {
        let mut out = Vector::zeros(self.state_count());
        self.step_into(temps, powers, &mut out)?;
        Ok(out)
    }

    /// One prediction step written into `out` without allocating:
    /// `out = As·temps + Bs·powers`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::DimensionMismatch`] for wrong-length vectors.
    pub fn step_into(
        &self,
        temps: &Vector,
        powers: &Vector,
        out: &mut Vector,
    ) -> Result<(), ThermalError> {
        self.check_dims(temps, powers)?;
        self.a.mul_vec_into(temps, out)?;
        self.b.mul_vec_acc_into(powers, out)?;
        Ok(())
    }

    /// Predicts the temperature `horizon` steps ahead assuming the power
    /// vector stays constant over the horizon (Eq. 4.5 with
    /// `P[k+i] = P[k]` for all `i`).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::DimensionMismatch`] for wrong-length vectors or
    /// [`ThermalError::InvalidParameter`] for a zero horizon.
    pub fn predict_constant_power(
        &self,
        temps: &Vector,
        powers: &Vector,
        horizon: usize,
    ) -> Result<Vector, ThermalError> {
        if horizon == 0 {
            return Err(ThermalError::InvalidParameter(
                "prediction horizon must be at least one step",
            ));
        }
        let mut state = temps.clone();
        let mut tmp = Vector::zeros(self.state_count());
        self.predict_constant_power_into(&mut state, powers, horizon, &mut tmp)?;
        Ok(state)
    }

    /// In-place form of [`DiscreteThermalModel::predict_constant_power`]:
    /// advances `state` by `horizon` steps under constant `powers`, using
    /// `tmp` as ping-pong scratch. Neither vector is reallocated when already
    /// correctly sized, which is what keeps the DTPM decision path
    /// allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::DimensionMismatch`] for wrong-length vectors or
    /// [`ThermalError::InvalidParameter`] for a zero horizon.
    pub fn predict_constant_power_into(
        &self,
        state: &mut Vector,
        powers: &Vector,
        horizon: usize,
        tmp: &mut Vector,
    ) -> Result<(), ThermalError> {
        if horizon == 0 {
            return Err(ThermalError::InvalidParameter(
                "prediction horizon must be at least one step",
            ));
        }
        self.check_dims(state, powers)?;
        for _ in 0..horizon {
            self.step_into(state, powers, tmp)?;
            std::mem::swap(state, tmp);
        }
        Ok(())
    }

    /// Predicts the full temperature trajectory for a given power trajectory
    /// (Eq. 4.5). Returns one temperature vector per step, starting at
    /// `T[k+1]`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::DimensionMismatch`] if any power vector has the
    /// wrong length.
    pub fn predict_trajectory(
        &self,
        temps: &Vector,
        power_trajectory: &[Vector],
    ) -> Result<Vec<Vector>, ThermalError> {
        let mut out = Vec::with_capacity(power_trajectory.len());
        let mut state = temps.clone();
        for powers in power_trajectory {
            state = self.step(&state, powers)?;
            out.push(state.clone());
        }
        Ok(out)
    }

    /// The "aggregate" one-shot form of an `n`-step constant-power prediction:
    /// returns `(A_n, B_n)` such that `T[k+n] = A_n·T[k] + B_n·P`.
    ///
    /// `A_n = As^n` and `B_n = (Σ_{i=0}^{n-1} As^i)·Bs`. The DTPM power-budget
    /// computation uses the hot row of these matrices.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for a zero horizon.
    pub fn horizon_matrices(&self, horizon: usize) -> Result<(Matrix, Matrix), ThermalError> {
        if horizon == 0 {
            return Err(ThermalError::InvalidParameter(
                "prediction horizon must be at least one step",
            ));
        }
        let mut a_power = Matrix::identity(self.state_count());
        let mut a_sum = Matrix::zeros(self.state_count(), self.state_count());
        for _ in 0..horizon {
            a_sum = a_sum.add(&a_power)?;
            a_power = a_power.mul(&self.a)?;
        }
        let b_n = a_sum.mul(&self.b)?;
        Ok((a_power, b_n))
    }

    /// Packages [`DiscreteThermalModel::horizon_matrices`] into a
    /// [`HorizonMap`]: the reusable one-shot form of an `horizon`-step
    /// constant-power prediction.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for a zero horizon.
    pub fn horizon_map(&self, horizon: usize) -> Result<HorizonMap, ThermalError> {
        let (a_n, b_n) = self.horizon_matrices(horizon)?;
        Ok(HorizonMap { horizon, a_n, b_n })
    }

    /// Estimate of the spectral radius of `As`; a stable thermal model has a
    /// value strictly below 1.
    ///
    /// # Errors
    ///
    /// Propagates numeric errors from the underlying power iteration.
    pub fn spectral_radius(&self) -> Result<f64, ThermalError> {
        Ok(self.a.spectral_radius_estimate(300)?)
    }

    /// Returns `true` if the model is stable (spectral radius below 1).
    pub fn is_stable(&self) -> bool {
        self.spectral_radius().map(|r| r < 1.0).unwrap_or(false)
    }

    fn check_dims(&self, temps: &Vector, powers: &Vector) -> Result<(), ThermalError> {
        if temps.len() != self.state_count() {
            return Err(ThermalError::DimensionMismatch {
                what: "temperature vector",
                expected: self.state_count(),
                actual: temps.len(),
            });
        }
        if powers.len() != self.input_count() {
            return Err(ThermalError::DimensionMismatch {
                what: "power vector",
                expected: self.input_count(),
                actual: powers.len(),
            });
        }
        Ok(())
    }
}

/// The precomputed one-shot horizon map `(Aₙ, Bₙ)` of an `n`-step
/// constant-power prediction: `T[k+n] = Aₙ·T[k] + Bₙ·P`.
///
/// Iterating `T ← As·T + Bs·P` for `n` steps costs `2n` mat-vecs per
/// prediction; applying the map costs exactly one affine application,
/// independent of the horizon. The matrices are the same
/// [`DiscreteThermalModel::horizon_matrices`] the DTPM power-budget
/// computation solves against, so one map serves both the violation
/// pre-check and the budget.
///
/// [`HorizonMap::apply_into`] accumulates each output element in the same
/// order as the scalar remainder of `numeric::affine_pair_apply` (for
/// `j = 0..n`, the `Aₙ`-term and `Bₙ`-term as one fused expression), so a
/// panel application of the same map is **bit-identical** per lane to this
/// scalar application — the property the batched control-path predictor
/// builds on.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizonMap {
    horizon: usize,
    a_n: Matrix,
    b_n: Matrix,
}

impl HorizonMap {
    /// The horizon `n` the map aggregates, in control intervals.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// The aggregate state matrix `Aₙ = As^n`.
    pub fn a_n(&self) -> &Matrix {
        &self.a_n
    }

    /// The aggregate input matrix `Bₙ = (Σ As^i)·Bs`.
    pub fn b_n(&self) -> &Matrix {
        &self.b_n
    }

    /// Number of thermal states the map predicts.
    pub fn state_count(&self) -> usize {
        self.a_n.rows()
    }

    /// Number of power inputs the map consumes.
    pub fn input_count(&self) -> usize {
        self.b_n.cols()
    }

    /// One-shot `horizon`-step prediction: `out = Aₙ·state + Bₙ·powers`.
    ///
    /// When the state and input counts agree (the identified 4-state /
    /// 4-input hotspot model), each output element accumulates the two terms
    /// fused per index — the exact per-lane order of the panel kernels, so
    /// batched and scalar predictions agree to the last bit.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::DimensionMismatch`] for wrong-length slices.
    pub fn apply_into(
        &self,
        state: &[f64],
        powers: &[f64],
        out: &mut [f64],
    ) -> Result<(), ThermalError> {
        let n = self.state_count();
        let m = self.input_count();
        if state.len() != n || out.len() != n {
            return Err(ThermalError::DimensionMismatch {
                what: "temperature vector",
                expected: n,
                actual: if state.len() != n {
                    state.len()
                } else {
                    out.len()
                },
            });
        }
        if powers.len() != m {
            return Err(ThermalError::DimensionMismatch {
                what: "power vector",
                expected: m,
                actual: powers.len(),
            });
        }
        let a = self.a_n.as_slice();
        let b = self.b_n.as_slice();
        if n == m {
            for (i, slot) in out.iter_mut().enumerate() {
                let mut acc = 0.0;
                for j in 0..n {
                    // One madd2 step per j, matching the panel kernel's
                    // rounding exactly in both the default and fma builds.
                    acc =
                        numeric::simd::madd2(a[i * n + j], state[j], b[i * m + j], powers[j], acc);
                }
                *slot = acc;
            }
        } else {
            for (i, slot) in out.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (j, x) in state.iter().enumerate() {
                    acc += a[i * n + j] * x;
                }
                for (j, p) in powers.iter().enumerate() {
                    acc += b[i * m + j] * p;
                }
                *slot = acc;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small, stable 4-state/4-input model loosely shaped like an identified
    /// Exynos model (temperatures relative to ambient).
    fn example_model() -> DiscreteThermalModel {
        let a = Matrix::from_rows(&[
            &[0.92, 0.02, 0.02, 0.01],
            &[0.02, 0.92, 0.01, 0.02],
            &[0.02, 0.01, 0.92, 0.02],
            &[0.01, 0.02, 0.02, 0.92],
        ])
        .unwrap();
        let b = Matrix::from_rows(&[
            &[0.30, 0.05, 0.08, 0.04],
            &[0.28, 0.06, 0.06, 0.04],
            &[0.30, 0.05, 0.08, 0.04],
            &[0.28, 0.06, 0.06, 0.04],
        ])
        .unwrap();
        DiscreteThermalModel::new(a, b, 0.1).unwrap()
    }

    #[test]
    fn construction_validates_inputs() {
        let a = Matrix::identity(2).scale(0.9);
        let b = Matrix::zeros(2, 3);
        assert!(DiscreteThermalModel::new(a.clone(), b.clone(), 0.1).is_ok());
        assert!(DiscreteThermalModel::new(a.clone(), b.clone(), 0.0).is_err());
        assert!(DiscreteThermalModel::new(a.clone(), Matrix::zeros(3, 2), 0.1).is_err());
        assert!(DiscreteThermalModel::new(Matrix::zeros(2, 3), b, 0.1).is_err());
    }

    #[test]
    fn step_matches_manual_computation() {
        let model = example_model();
        let t = Vector::from_slice(&[20.0, 21.0, 19.0, 22.0]);
        let p = Vector::from_slice(&[2.0, 0.1, 0.3, 0.4]);
        let next = model.step(&t, &p).unwrap();
        let expected = model.a().mul_vector(&t).unwrap() + model.b().mul_vector(&p).unwrap();
        for i in 0..4 {
            assert!((next[i] - expected[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_power_decays_towards_ambient() {
        let model = example_model();
        let mut t = Vector::from_slice(&[30.0, 28.0, 31.0, 29.0]);
        let p = Vector::zeros(4);
        for _ in 0..2000 {
            t = model.step(&t, &p).unwrap();
        }
        assert!(t.inf_norm() < 0.1, "relative temps must decay, got {t}");
    }

    #[test]
    fn constant_power_converges_to_fixed_point() {
        let model = example_model();
        let p = Vector::from_slice(&[2.0, 0.05, 0.2, 0.4]);
        let long = model
            .predict_constant_power(&Vector::zeros(4), &p, 5000)
            .unwrap();
        let next = model.step(&long, &p).unwrap();
        for i in 0..4 {
            assert!((next[i] - long[i]).abs() < 1e-6, "fixed point not reached");
        }
        assert!(long[0] > 5.0, "steady state must be well above ambient");
    }

    #[test]
    fn predict_constant_power_equals_repeated_steps() {
        let model = example_model();
        let t = Vector::from_slice(&[15.0, 14.0, 16.0, 15.5]);
        let p = Vector::from_slice(&[1.5, 0.1, 0.2, 0.35]);
        let direct = model.predict_constant_power(&t, &p, 10).unwrap();
        let mut manual = t.clone();
        for _ in 0..10 {
            manual = model.step(&manual, &p).unwrap();
        }
        for i in 0..4 {
            assert!((direct[i] - manual[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn horizon_matrices_agree_with_iterated_prediction() {
        let model = example_model();
        let t = Vector::from_slice(&[18.0, 17.0, 19.0, 18.5]);
        let p = Vector::from_slice(&[2.2, 0.1, 0.4, 0.4]);
        for horizon in [1, 5, 10, 25] {
            let (a_n, b_n) = model.horizon_matrices(horizon).unwrap();
            let aggregated = a_n.mul_vector(&t).unwrap() + b_n.mul_vector(&p).unwrap();
            let iterated = model.predict_constant_power(&t, &p, horizon).unwrap();
            for i in 0..4 {
                assert!(
                    (aggregated[i] - iterated[i]).abs() < 1e-9,
                    "horizon {horizon} state {i}"
                );
            }
        }
    }

    #[test]
    fn trajectory_prediction_tracks_varying_power() {
        let model = example_model();
        let t = Vector::zeros(4);
        let trajectory: Vec<Vector> = (0..20)
            .map(|k| {
                let load = if k < 10 { 2.5 } else { 0.5 };
                Vector::from_slice(&[load, 0.05, 0.1, 0.3])
            })
            .collect();
        let temps = model.predict_trajectory(&t, &trajectory).unwrap();
        assert_eq!(temps.len(), 20);
        // Heating during the first phase, cooling during the second.
        assert!(temps[9][0] > temps[0][0]);
        assert!(temps[19][0] < temps[9][0]);
    }

    #[test]
    fn zero_horizon_rejected() {
        let model = example_model();
        assert!(model
            .predict_constant_power(&Vector::zeros(4), &Vector::zeros(4), 0)
            .is_err());
        assert!(model.horizon_matrices(0).is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let model = example_model();
        assert!(model.step(&Vector::zeros(3), &Vector::zeros(4)).is_err());
        assert!(model.step(&Vector::zeros(4), &Vector::zeros(2)).is_err());
    }

    #[test]
    fn from_continuous_produces_stable_model() {
        // Simple 2-node network: both nodes 1 J/K, coupled by 0.5 W/K, node 0
        // connected to ambient with 0.2 W/K.
        let c = Matrix::from_diagonal(&[1.0, 1.0]);
        let g = Matrix::from_rows(&[&[0.7, -0.5], &[-0.5, 0.5]]).unwrap();
        let model = DiscreteThermalModel::from_continuous(&c, &g, 0.1).unwrap();
        assert!(model.is_stable());
        assert_eq!(model.state_count(), 2);
        assert_eq!(model.input_count(), 2);
        // Heating node 1 heats node 0 through the coupling.
        let heated = model
            .predict_constant_power(&Vector::zeros(2), &Vector::from_slice(&[0.0, 1.0]), 500)
            .unwrap();
        assert!(heated[0] > 0.5);
        assert!(heated[1] > heated[0]);
    }

    #[test]
    fn from_continuous_rejects_too_long_sample_period() {
        // Same network, but a 10 s Euler step is way past the stability limit.
        let c = Matrix::from_diagonal(&[0.1, 0.1]);
        let g = Matrix::from_rows(&[&[0.7, -0.5], &[-0.5, 0.5]]).unwrap();
        let err = DiscreteThermalModel::from_continuous(&c, &g, 10.0).unwrap_err();
        assert!(matches!(err, ThermalError::UnstableModel { .. }));
    }

    #[test]
    fn horizon_map_matches_horizon_matrices() {
        let model = example_model();
        let map = model.horizon_map(12).unwrap();
        let (a_n, b_n) = model.horizon_matrices(12).unwrap();
        assert_eq!(map.horizon(), 12);
        assert_eq!(map.a_n(), &a_n);
        assert_eq!(map.b_n(), &b_n);
        assert_eq!(map.state_count(), 4);
        assert_eq!(map.input_count(), 4);
        assert!(model.horizon_map(0).is_err());
    }

    #[test]
    fn horizon_map_apply_matches_iterated_prediction() {
        let model = example_model();
        let t = [18.0, 17.0, 19.0, 18.5];
        let p = [2.2, 0.1, 0.4, 0.4];
        for horizon in [1, 5, 10, 25] {
            let map = model.horizon_map(horizon).unwrap();
            let mut one_shot = [0.0; 4];
            map.apply_into(&t, &p, &mut one_shot).unwrap();
            let iterated = model
                .predict_constant_power(&Vector::from_slice(&t), &Vector::from_slice(&p), horizon)
                .unwrap();
            for i in 0..4 {
                assert!(
                    (one_shot[i] - iterated[i]).abs() < 1e-12,
                    "horizon {horizon} state {i}: {} vs {}",
                    one_shot[i],
                    iterated[i]
                );
            }
        }
    }

    #[test]
    fn horizon_map_apply_handles_rectangular_inputs() {
        // 2 states, 3 inputs: the non-square (separate-loop) path.
        let a = Matrix::from_rows(&[&[0.9, 0.02], &[0.02, 0.9]]).unwrap();
        let b = Matrix::from_rows(&[&[0.1, 0.02, 0.01], &[0.08, 0.03, 0.01]]).unwrap();
        let model = DiscreteThermalModel::new(a, b, 0.1).unwrap();
        let map = model.horizon_map(7).unwrap();
        let t = [5.0, 6.0];
        let p = [1.0, 0.5, 0.25];
        let mut out = [0.0; 2];
        map.apply_into(&t, &p, &mut out).unwrap();
        let iterated = model
            .predict_constant_power(&Vector::from_slice(&t), &Vector::from_slice(&p), 7)
            .unwrap();
        for i in 0..2 {
            assert!((out[i] - iterated[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn horizon_map_apply_rejects_wrong_lengths() {
        let map = example_model().horizon_map(3).unwrap();
        let mut out = [0.0; 4];
        assert!(map.apply_into(&[0.0; 3], &[0.0; 4], &mut out).is_err());
        assert!(map.apply_into(&[0.0; 4], &[0.0; 5], &mut out).is_err());
        assert!(map.apply_into(&[0.0; 4], &[0.0; 4], &mut [0.0; 2]).is_err());
    }

    #[test]
    fn row_accessors_match_matrices() {
        let model = example_model();
        assert_eq!(model.a_row(2), model.a().row(2).as_slice());
        assert_eq!(model.b_row(1), model.b().row(1).as_slice());
        assert_eq!(model.sample_period_s(), 0.1);
    }
}
