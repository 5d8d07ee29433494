//! The combined per-domain power model used by the DTPM framework.

use soc_model::{Frequency, PowerDomain, Voltage};

use crate::dynamic::ActivityEstimator;
use crate::leakage::LeakageModel;

/// Power model of a single measured domain: a characterised leakage model
/// plus the run-time activity estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainPowerModel {
    domain: PowerDomain,
    leakage: LeakageModel,
    activity: ActivityEstimator,
}

impl DomainPowerModel {
    /// Creates a domain model from a characterised leakage model and an
    /// activity estimator.
    pub fn new(domain: PowerDomain, leakage: LeakageModel, activity: ActivityEstimator) -> Self {
        DomainPowerModel {
            domain,
            leakage,
            activity,
        }
    }

    /// The domain this model describes.
    pub fn domain(&self) -> PowerDomain {
        self.domain
    }

    /// The leakage model of this domain.
    pub fn leakage(&self) -> &LeakageModel {
        &self.leakage
    }

    /// The current activity (αC) estimator of this domain.
    pub fn activity(&self) -> &ActivityEstimator {
        &self.activity
    }

    /// Feeds one sensor observation into the activity estimator.
    pub fn observe(
        &mut self,
        measured_total_w: f64,
        temp_c: f64,
        voltage: Voltage,
        frequency: Frequency,
    ) {
        self.activity
            .observe(measured_total_w, temp_c, voltage, frequency, &self.leakage);
    }

    /// Predicted leakage power at a temperature/voltage, in watts.
    pub fn predict_leakage(&self, temp_c: f64, voltage: Voltage) -> f64 {
        self.leakage.power_w(voltage, temp_c)
    }

    /// Predicted dynamic power at a candidate operating point, assuming the
    /// current workload activity, in watts.
    pub fn predict_dynamic(&self, voltage: Voltage, frequency: Frequency) -> f64 {
        self.activity.predict_dynamic_w(voltage, frequency)
    }

    /// Predicted total power at a candidate operating point and temperature,
    /// in watts.
    pub fn predict_total(&self, temp_c: f64, voltage: Voltage, frequency: Frequency) -> f64 {
        self.predict_leakage(temp_c, voltage) + self.predict_dynamic(voltage, frequency)
    }
}

/// The complete power model: one [`DomainPowerModel`] per measured domain.
///
/// # Example
///
/// ```
/// use power_model::PowerModel;
/// use soc_model::{Frequency, PowerDomain, Voltage};
///
/// let mut model = PowerModel::exynos5410_defaults();
/// model.observe(
///     PowerDomain::Gpu,
///     0.4,
///     50.0,
///     Voltage::from_volts(1.05),
///     Frequency::from_mhz(533),
/// );
/// let at_min = model.predict_total(
///     PowerDomain::Gpu,
///     50.0,
///     Voltage::from_volts(0.85),
///     Frequency::from_mhz(177),
/// );
/// assert!(at_min < 0.4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    domains: Vec<DomainPowerModel>,
}

impl PowerModel {
    /// Builds a power model from explicit per-domain models.
    ///
    /// # Panics
    ///
    /// Panics if a domain is missing or duplicated.
    pub fn new(domains: Vec<DomainPowerModel>) -> Self {
        assert_eq!(
            domains.len(),
            PowerDomain::COUNT,
            "power model needs exactly one model per domain"
        );
        for domain in PowerDomain::ALL {
            assert_eq!(
                domains.iter().filter(|m| m.domain() == domain).count(),
                1,
                "domain {domain} must appear exactly once"
            );
        }
        PowerModel { domains }
    }

    /// The default characterised model of the Exynos 5410: per-domain leakage
    /// parameters from the furnace experiment and fresh activity estimators.
    pub fn exynos5410_defaults() -> Self {
        PowerModel::new(vec![
            DomainPowerModel::new(
                PowerDomain::BigCpu,
                LeakageModel::exynos5410_big(),
                ActivityEstimator::for_cpu_cluster(),
            ),
            DomainPowerModel::new(
                PowerDomain::LittleCpu,
                LeakageModel::exynos5410_little(),
                ActivityEstimator::for_cpu_cluster(),
            ),
            DomainPowerModel::new(
                PowerDomain::Gpu,
                LeakageModel::exynos5410_gpu(),
                ActivityEstimator::for_uncore(),
            ),
            DomainPowerModel::new(
                PowerDomain::Memory,
                LeakageModel::exynos5410_memory(),
                ActivityEstimator::for_uncore(),
            ),
        ])
    }

    /// The per-domain model for `domain`.
    pub fn domain(&self, domain: PowerDomain) -> &DomainPowerModel {
        self.domains
            .iter()
            .find(|m| m.domain() == domain)
            .expect("constructor guarantees every domain exists")
    }

    /// Mutable access to the per-domain model for `domain`.
    pub fn domain_mut(&mut self, domain: PowerDomain) -> &mut DomainPowerModel {
        self.domains
            .iter_mut()
            .find(|m| m.domain() == domain)
            .expect("constructor guarantees every domain exists")
    }

    /// Feeds one sensor observation for `domain` into the model.
    pub fn observe(
        &mut self,
        domain: PowerDomain,
        measured_total_w: f64,
        temp_c: f64,
        voltage: Voltage,
        frequency: Frequency,
    ) {
        self.domain_mut(domain)
            .observe(measured_total_w, temp_c, voltage, frequency);
    }

    /// Predicted total power of `domain` at a candidate operating point.
    pub fn predict_total(
        &self,
        domain: PowerDomain,
        temp_c: f64,
        voltage: Voltage,
        frequency: Frequency,
    ) -> f64 {
        self.domain(domain)
            .predict_total(temp_c, voltage, frequency)
    }

    /// Predicted leakage power of `domain` at a temperature and voltage.
    pub fn predict_leakage(&self, domain: PowerDomain, temp_c: f64, voltage: Voltage) -> f64 {
        self.domain(domain).predict_leakage(temp_c, voltage)
    }

    /// Predicted dynamic power of `domain` at a candidate operating point.
    pub fn predict_dynamic(
        &self,
        domain: PowerDomain,
        voltage: Voltage,
        frequency: Frequency,
    ) -> f64 {
        self.domain(domain).predict_dynamic(voltage, frequency)
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::exynos5410_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_covers_all_domains() {
        let model = PowerModel::exynos5410_defaults();
        for domain in PowerDomain::ALL {
            assert_eq!(model.domain(domain).domain(), domain);
        }
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn duplicate_domain_rejected() {
        let big = DomainPowerModel::new(
            PowerDomain::BigCpu,
            LeakageModel::exynos5410_big(),
            ActivityEstimator::for_cpu_cluster(),
        );
        PowerModel::new(vec![big.clone(), big.clone(), big.clone(), big]);
    }

    #[test]
    fn observation_then_prediction_round_trips() {
        let mut model = PowerModel::exynos5410_defaults();
        let v = Voltage::from_volts(1.2);
        let f = Frequency::from_mhz(1600);
        let temp = 58.0;
        let measured = 2.3;
        // After repeated observations of the same operating point the
        // prediction converges to the measurement.
        for _ in 0..12 {
            model.observe(PowerDomain::BigCpu, measured, temp, v, f);
        }
        let predicted = model.predict_total(PowerDomain::BigCpu, temp, v, f);
        assert!((predicted - measured).abs() < 0.01, "predicted {predicted}");
    }

    #[test]
    fn prediction_scales_down_with_frequency() {
        let mut model = PowerModel::exynos5410_defaults();
        let v_hi = Voltage::from_volts(1.2);
        let f_hi = Frequency::from_mhz(1600);
        for _ in 0..10 {
            model.observe(PowerDomain::BigCpu, 2.5, 60.0, v_hi, f_hi);
        }
        let v_lo = Voltage::from_volts(0.92);
        let f_lo = Frequency::from_mhz(800);
        let p_hi = model.predict_total(PowerDomain::BigCpu, 60.0, v_hi, f_hi);
        let p_lo = model.predict_total(PowerDomain::BigCpu, 60.0, v_lo, f_lo);
        // Halving f and dropping V should cut dynamic power by ~3.4x.
        assert!(p_lo < 0.5 * p_hi, "p_lo {p_lo} vs p_hi {p_hi}");
    }

    #[test]
    fn default_trait_matches_exynos_defaults() {
        assert_eq!(PowerModel::default(), PowerModel::exynos5410_defaults());
    }
}
