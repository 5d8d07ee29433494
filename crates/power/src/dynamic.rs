//! Dynamic power model and run-time `αC` estimation.
//!
//! Dynamic power follows the classic CMOS switching equation
//! `P_dyn = αCV²f`. The product of the activity factor `α` and the switching
//! capacitance `C` is workload dependent, so the paper estimates it at run
//! time (Figure 4.4): subtract the modelled leakage from the measured power
//! and divide by `V²f`. The estimate is then used to predict the dynamic
//! power of *candidate* frequencies before the governor commits to one.

use soc_model::{Frequency, Voltage};

use crate::leakage::LeakageModel;

/// Plain `P = αCV²f` dynamic-power model with a fixed effective capacitance.
///
/// # Example
///
/// ```
/// use power_model::DynamicPowerModel;
/// use soc_model::{Frequency, Voltage};
///
/// // A fully-active big core has an effective switched capacitance of ~0.3 nF.
/// let core = DynamicPowerModel::new(0.30e-9);
/// let p = core.power_w(Voltage::from_volts(1.2), Frequency::from_mhz(1600));
/// assert!((p - 0.69).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicPowerModel {
    /// Effective switched capacitance `αC` in farads.
    alpha_c_f: f64,
}

impl DynamicPowerModel {
    /// Creates a model with the given `αC` product in farads.
    pub fn new(alpha_c_f: f64) -> Self {
        DynamicPowerModel { alpha_c_f }
    }

    /// The `αC` product in farads.
    pub fn alpha_c(&self) -> f64 {
        self.alpha_c_f
    }

    /// Dynamic power at the given voltage and frequency, in watts.
    pub fn power_w(&self, voltage: Voltage, frequency: Frequency) -> f64 {
        let v = voltage.volts();
        self.alpha_c_f * v * v * frequency.hz()
    }
}

/// Run-time estimator of the `αC` product for one power domain (Figure 4.4).
///
/// Every control interval the estimator receives the measured total power,
/// the die temperature, and the operating point; it subtracts the modelled
/// leakage and updates an exponentially-weighted moving average of `αC`. The
/// smoothing mirrors the kernel implementation, which must tolerate sensor
/// noise and abrupt workload phase changes without oscillating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityEstimator {
    /// Current EWMA of the `αC` product, in farads.
    alpha_c_f: f64,
    /// EWMA smoothing factor in (0, 1]; 1.0 means "use the newest sample only".
    smoothing: f64,
    /// Number of observations folded into the estimate.
    samples: u64,
}

impl ActivityEstimator {
    /// Creates an estimator with the given initial `αC` guess (farads) and
    /// EWMA smoothing factor.
    ///
    /// # Panics
    ///
    /// Panics if `smoothing` is not in `(0, 1]` or the initial value is
    /// negative.
    pub fn new(initial_alpha_c_f: f64, smoothing: f64) -> Self {
        assert!(
            smoothing > 0.0 && smoothing <= 1.0,
            "smoothing factor must be in (0, 1]"
        );
        assert!(initial_alpha_c_f >= 0.0, "alpha*C must be non-negative");
        ActivityEstimator {
            alpha_c_f: initial_alpha_c_f,
            smoothing,
            samples: 0,
        }
    }

    /// Rebuilds an estimator from the three values [`alpha_c`],
    /// [`smoothing`] and [`sample_count`] report, so a decoder can restore
    /// one exactly.
    ///
    /// [`alpha_c`]: ActivityEstimator::alpha_c
    /// [`smoothing`]: ActivityEstimator::smoothing
    /// [`sample_count`]: ActivityEstimator::sample_count
    ///
    /// # Panics
    ///
    /// As [`ActivityEstimator::new`].
    pub fn from_parts(alpha_c_f: f64, smoothing: f64, samples: u64) -> Self {
        ActivityEstimator {
            samples,
            ..ActivityEstimator::new(alpha_c_f, smoothing)
        }
    }

    /// Default estimator used for CPU clusters: starts from a light-workload
    /// capacitance and follows changes quickly (the kernel runs this every
    /// 100 ms, so a smoothing factor of 0.5 settles within a few hundred ms).
    pub fn for_cpu_cluster() -> Self {
        ActivityEstimator::new(0.15e-9, 0.5)
    }

    /// Default estimator used for the GPU and memory domains.
    pub fn for_uncore() -> Self {
        ActivityEstimator::new(0.10e-9, 0.5)
    }

    /// The current `αC` estimate in farads.
    pub fn alpha_c(&self) -> f64 {
        self.alpha_c_f
    }

    /// The EWMA smoothing factor, in `(0, 1]`.
    pub fn smoothing(&self) -> f64 {
        self.smoothing
    }

    /// Number of observations folded into the estimate so far.
    pub fn sample_count(&self) -> u64 {
        self.samples
    }

    /// The dynamic-power model implied by the current estimate.
    pub fn dynamic_model(&self) -> DynamicPowerModel {
        DynamicPowerModel::new(self.alpha_c_f)
    }

    /// Folds one sensor observation into the estimate and returns the
    /// instantaneous (un-smoothed) `αC` value computed from it.
    ///
    /// `measured_total_w` is the domain's total measured power; the leakage
    /// model and die temperature determine how much of it is attributed to
    /// leakage. Negative dynamic residuals (possible with sensor noise at
    /// idle) are clamped to zero rather than corrupting the estimate.
    pub fn observe(
        &mut self,
        measured_total_w: f64,
        temp_c: f64,
        voltage: Voltage,
        frequency: Frequency,
        leakage: &LeakageModel,
    ) -> f64 {
        let leak_w = leakage.power_w(voltage, temp_c);
        let dynamic_w = (measured_total_w - leak_w).max(0.0);
        let v = voltage.volts();
        let denom = v * v * frequency.hz();
        let instantaneous = if denom > 0.0 { dynamic_w / denom } else { 0.0 };
        if self.samples == 0 {
            self.alpha_c_f = instantaneous;
        } else {
            self.alpha_c_f =
                self.smoothing * instantaneous + (1.0 - self.smoothing) * self.alpha_c_f;
        }
        self.samples += 1;
        instantaneous
    }

    /// Predicts the dynamic power this domain would draw at a candidate
    /// operating point, assuming the workload activity stays what it is now.
    pub fn predict_dynamic_w(&self, voltage: Voltage, frequency: Frequency) -> f64 {
        self.dynamic_model().power_w(voltage, frequency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leakage::LeakageModel;

    #[test]
    fn dynamic_power_scales_quadratically_with_voltage_and_linearly_with_f() {
        let m = DynamicPowerModel::new(0.3e-9);
        let p_base = m.power_w(Voltage::from_volts(1.0), Frequency::from_mhz(1000));
        let p_2v = m.power_w(Voltage::from_volts(2.0), Frequency::from_mhz(1000));
        let p_2f = m.power_w(Voltage::from_volts(1.0), Frequency::from_mhz(2000));
        assert!((p_2v / p_base - 4.0).abs() < 1e-9);
        assert!((p_2f / p_base - 2.0).abs() < 1e-9);
    }

    #[test]
    fn estimator_recovers_true_alpha_c_from_clean_measurements() {
        let truth = DynamicPowerModel::new(0.25e-9);
        let leak = LeakageModel::exynos5410_big();
        let mut est = ActivityEstimator::for_cpu_cluster();
        let v = Voltage::from_volts(1.2);
        let f = Frequency::from_mhz(1600);
        for _ in 0..20 {
            let total = truth.power_w(v, f) + leak.power_w(v, 60.0);
            est.observe(total, 60.0, v, f, &leak);
        }
        assert!((est.alpha_c() - 0.25e-9).abs() / 0.25e-9 < 1e-6);
        assert_eq!(est.sample_count(), 20);
        let restored = ActivityEstimator::from_parts(est.alpha_c(), est.smoothing(), 20);
        assert_eq!(restored, est);
    }

    #[test]
    fn estimator_tracks_workload_phase_change() {
        let leak = LeakageModel::exynos5410_big();
        let mut est = ActivityEstimator::for_cpu_cluster();
        let v = Voltage::from_volts(1.2);
        let f = Frequency::from_mhz(1600);
        // Light phase.
        for _ in 0..10 {
            let total = DynamicPowerModel::new(0.05e-9).power_w(v, f) + leak.power_w(v, 50.0);
            est.observe(total, 50.0, v, f, &leak);
        }
        let light = est.alpha_c();
        // Heavy phase.
        for _ in 0..10 {
            let total = DynamicPowerModel::new(0.30e-9).power_w(v, f) + leak.power_w(v, 50.0);
            est.observe(total, 50.0, v, f, &leak);
        }
        let heavy = est.alpha_c();
        assert!(light < 0.1e-9);
        assert!(
            heavy > 0.25e-9,
            "estimator must converge towards the heavy phase"
        );
    }

    #[test]
    fn estimator_clamps_negative_dynamic_residual() {
        let leak = LeakageModel::exynos5410_big();
        let mut est = ActivityEstimator::for_cpu_cluster();
        let v = Voltage::from_volts(1.2);
        let f = Frequency::from_mhz(800);
        // Measured power below the modelled leakage (sensor noise at idle).
        let inst = est.observe(0.01, 70.0, v, f, &leak);
        assert_eq!(inst, 0.0);
        assert_eq!(est.alpha_c(), 0.0);
    }

    #[test]
    fn estimator_prediction_matches_model() {
        let mut est = ActivityEstimator::new(0.2e-9, 1.0);
        let leak = LeakageModel::exynos5410_big();
        let v = Voltage::from_volts(1.0);
        let f = Frequency::from_mhz(1000);
        est.observe(0.5, 50.0, v, f, &leak);
        let predicted = est.predict_dynamic_w(v, f);
        let expected = est.alpha_c() * 1.0 * 1.0 * 1.0e9;
        assert!((predicted - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "smoothing factor")]
    fn estimator_rejects_bad_smoothing() {
        ActivityEstimator::new(0.1e-9, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn estimator_rejects_negative_capacitance() {
        ActivityEstimator::new(-1.0, 0.5);
    }
}
