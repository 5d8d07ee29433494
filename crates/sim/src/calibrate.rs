//! The characterisation campaign: furnace sweep + PRBS system identification.
//!
//! Before the DTPM algorithm can run, the paper characterises the platform
//! once (Chapter 4): the leakage model is fitted to furnace measurements and
//! the thermal state-space model is identified from PRBS excitation of each
//! power source. [`CalibrationCampaign::run`] performs both campaigns against
//! the simulated plant and returns the [`Calibration`] every experiment uses.

use dtpm::ThermalPredictor;
use governors::{CpufreqGovernor, UserspaceGovernor};
use numeric::Vector;
use power_model::{ActivityEstimator, DomainPowerModel, LeakageModel, PowerModel};
use soc_model::{ClusterKind, Frequency, PlatformState, PowerDomain, SocSpec};
use sysid::{
    identify, n_step_prediction, IdentificationDataset, IdentificationOptions, PrbsConfig,
    PrbsSignal, PredictionErrorReport,
};
use workload::Demand;

use crate::plant::{PhysicalPlant, PlantPowerParams};
use crate::sensors::SensorSuite;
use crate::SimError;

/// The characterised models used by the experiments.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Run-time power model (leakage from the furnace fit + fresh activity
    /// estimators).
    pub power_model: PowerModel,
    /// Identified thermal predictor.
    pub predictor: ThermalPredictor,
    /// Validation report of the identified model at the 1 s prediction horizon
    /// on held-out data.
    pub validation: PredictionErrorReport,
}

/// Configuration of the characterisation campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationCampaign {
    /// Ambient temperature during the identification experiments, °C.
    pub ambient_c: f64,
    /// Control interval (sampling period of the logged data), seconds.
    pub control_period_s: f64,
    /// Duration of each per-domain PRBS experiment, seconds (the paper's
    /// big-cluster experiment in Figure 4.8 runs for ~1050 s).
    pub prbs_duration_s: f64,
    /// PRBS bit hold time in control intervals.
    pub prbs_hold_intervals: usize,
    /// Whether to run the furnace characterisation (otherwise the nominal
    /// leakage parameters are kept).
    pub run_furnace: bool,
    /// Fraction of the identification data used for fitting (the rest
    /// validates the model).
    pub train_fraction: f64,
    /// Plant parameters (the "true" silicon being characterised).
    pub plant: PlantPowerParams,
    /// Use ideal sensors for the campaign instead of the noisy chain.
    pub ideal_sensors: bool,
}

impl Default for CalibrationCampaign {
    fn default() -> Self {
        CalibrationCampaign {
            ambient_c: 28.0,
            control_period_s: 0.1,
            prbs_duration_s: 700.0,
            prbs_hold_intervals: 20,
            run_furnace: true,
            train_fraction: 0.7,
            plant: PlantPowerParams::default(),
            ideal_sensors: false,
        }
    }
}

impl CalibrationCampaign {
    /// Runs the furnace sweep and the PRBS identification experiments.
    ///
    /// # Errors
    ///
    /// Returns an error if the campaign parameters are invalid, the furnace
    /// fit fails, or no stable thermal model can be identified.
    pub fn run(&self, seed: u64) -> Result<Calibration, SimError> {
        if !(self.control_period_s > 0.0) || !(self.prbs_duration_s > self.control_period_s) {
            return Err(SimError::InvalidConfig(
                "calibration timing parameters must be positive",
            ));
        }
        if !(self.train_fraction > 0.0 && self.train_fraction < 1.0) {
            return Err(SimError::InvalidConfig(
                "train fraction must be strictly between 0 and 1",
            ));
        }

        let spec = SocSpec::odroid_xu_e().with_ambient_c(self.ambient_c);
        let power_model = self.build_power_model(&spec, seed)?;
        let dataset = self.run_identification_experiments(&spec, seed)?;

        let (train, test) = dataset.split(self.train_fraction)?;
        let model = identify_with_retries(&train)?;
        let horizon = (1.0 / self.control_period_s).round() as usize;
        let validation = n_step_prediction(&model, &test, horizon)?;
        let predictor = ThermalPredictor::new(model, self.ambient_c)?;

        Ok(Calibration {
            power_model,
            predictor,
            validation,
        })
    }

    /// Builds the run-time power model, running the furnace characterisation
    /// of the big cluster's leakage when enabled.
    fn build_power_model(&self, spec: &SocSpec, seed: u64) -> Result<PowerModel, SimError> {
        let mut model = PowerModel::exynos5410_defaults();
        if !self.run_furnace {
            return Ok(model);
        }

        // Light characterisation workload pinned to a fixed frequency/voltage:
        // one barely-active stream, everything else quiet (Section 4.1.1).
        let freq = Frequency::from_mhz(1600);
        let volts = spec.big_opps().voltage_for(freq)?;
        let mut state = PlatformState::default_for(spec);
        state.big_frequency = freq;
        let demand = Demand {
            cpu_streams: 0.5,
            activity_factor: 0.10,
            gpu_utilization: 0.0,
            memory_intensity: 0.1,
            frequency_scalability: 1.0,
        };

        let mut samples = Vec::new();
        let mut dynamic_w = 0.0;
        for (i, &setpoint) in power_model::FurnaceDataset::PAPER_SWEEP_C
            .iter()
            .enumerate()
        {
            let furnace_spec = spec.clone().with_ambient_c(setpoint);
            let mut plant = PhysicalPlant::new(furnace_spec, self.plant);
            // Soak the board at the furnace setpoint.
            plant.reset_temps(setpoint);
            let mut sensors = if self.ideal_sensors {
                SensorSuite::ideal(seed.wrapping_add(i as u64))
            } else {
                SensorSuite::odroid_defaults(seed.wrapping_add(i as u64))
            };
            // Let the die settle above the furnace ambient, then log samples.
            let mut temp_sum = 0.0;
            let mut power_sum = 0.0;
            let mut count = 0usize;
            let settle_steps = (120.0 / self.control_period_s) as usize;
            let sample_steps = (200.0 / self.control_period_s) as usize;
            for step_idx in 0..(settle_steps + sample_steps) {
                let step = plant.step_interval(
                    &state,
                    &demand,
                    soc_model::FanLevel::Off,
                    setpoint,
                    self.control_period_s,
                )?;
                if step_idx >= settle_steps {
                    let reading = sensors.sample(
                        step.core_temps_c,
                        &step.domain_power,
                        step.platform_power_w,
                    );
                    temp_sum += reading.max_core_temp_c();
                    power_sum += reading.domain_power.big_w;
                    count += 1;
                }
            }
            samples.push((temp_sum / count as f64, power_sum / count as f64));
            // The constant dynamic power of the pinned characterisation
            // workload is known from αCV²f (the paper's assumption); it is the
            // same at every setpoint, so compute it once.
            if i == 0 {
                dynamic_w = plant.true_dynamic_power_w(&state, &demand)?;
            }
        }

        let fitted = LeakageModel::fit_from_furnace(&samples, volts, dynamic_w)?;
        *model.domain_mut(PowerDomain::BigCpu) = DomainPowerModel::new(
            PowerDomain::BigCpu,
            fitted,
            ActivityEstimator::for_cpu_cluster(),
        );
        Ok(model)
    }

    /// Runs one PRBS excitation experiment per power source and concatenates
    /// the logs into a single identification dataset (Section 4.2.1).
    fn run_identification_experiments(
        &self,
        spec: &SocSpec,
        seed: u64,
    ) -> Result<IdentificationDataset, SimError> {
        let mut dataset = IdentificationDataset::new(
            4,
            PowerDomain::COUNT,
            self.control_period_s,
            self.ambient_c,
        )?;
        let steps = (self.prbs_duration_s / self.control_period_s).round() as usize;

        for (experiment_index, target) in PowerDomain::ALL.into_iter().enumerate() {
            let prbs = PrbsSignal::generate(
                PrbsConfig {
                    register_bits: 11,
                    hold_intervals: self.prbs_hold_intervals,
                    low: 0.0,
                    high: 1.0,
                    seed: 0x23 + experiment_index as u32 * 97,
                },
                steps,
            )?;
            let mut plant = PhysicalPlant::new(spec.clone(), self.plant);
            let mut sensors = if self.ideal_sensors {
                SensorSuite::ideal(seed.wrapping_add(1000 + experiment_index as u64))
            } else {
                SensorSuite::odroid_defaults(seed.wrapping_add(1000 + experiment_index as u64))
            };
            let mut governor = UserspaceGovernor::new(spec.big_opps().lowest().frequency);

            for &bit in prbs.values() {
                let (state, demand) = self.excitation_point(spec, target, bit, &mut governor);
                let step = plant.step_interval(
                    &state,
                    &demand,
                    soc_model::FanLevel::Off,
                    self.ambient_c,
                    self.control_period_s,
                )?;
                let reading =
                    sensors.sample(step.core_temps_c, &step.domain_power, step.platform_power_w);
                dataset.push(
                    Vector::from_slice(&reading.core_temps_c),
                    Vector::from_slice(&reading.domain_power.to_vec()),
                )?;
            }
        }
        Ok(dataset)
    }

    /// The platform state and workload demand used to excite one power source
    /// with a PRBS bit (all other sources held low/constant).
    fn excitation_point(
        &self,
        spec: &SocSpec,
        target: PowerDomain,
        bit: f64,
        governor: &mut UserspaceGovernor,
    ) -> (PlatformState, Demand) {
        let mut state = PlatformState::default_for(spec);
        let high = bit > 0.5;
        let mut demand = Demand {
            cpu_streams: 0.3,
            activity_factor: 0.2,
            gpu_utilization: 0.0,
            memory_intensity: 0.1,
            frequency_scalability: 1.0,
        };
        match target {
            PowerDomain::BigCpu => {
                // Oscillate the big-cluster frequency between min and max with a
                // busy workload (Figure 4.8).
                let freq = if high {
                    spec.big_opps().highest().frequency
                } else {
                    spec.big_opps().lowest().frequency
                };
                governor.set_frequency(freq);
                state.big_frequency = governor.select_frequency(
                    &governors::GovernorInput {
                        load: 1.0,
                        current: state.big_frequency,
                    },
                    spec.big_opps(),
                );
                demand.cpu_streams = 4.0;
                demand.activity_factor = if high { 0.75 } else { 0.55 };
            }
            PowerDomain::LittleCpu => {
                state.migrate_to_cluster(
                    ClusterKind::Little,
                    if high {
                        spec.little_opps().highest().frequency
                    } else {
                        spec.little_opps().lowest().frequency
                    },
                );
                demand.cpu_streams = 4.0;
                demand.activity_factor = if high { 0.8 } else { 0.4 };
            }
            PowerDomain::Gpu => {
                state.big_frequency = spec.big_opps().lowest().frequency;
                state.gpu_frequency = if high {
                    spec.gpu_opps().highest().frequency
                } else {
                    spec.gpu_opps().lowest().frequency
                };
                demand.gpu_utilization = if high { 0.9 } else { 0.1 };
            }
            PowerDomain::Memory => {
                state.big_frequency = spec.big_opps().lowest().frequency;
                demand.memory_intensity = if high { 0.95 } else { 0.05 };
            }
        }
        (state, demand)
    }
}

/// Identifies the thermal model, retrying with progressively stronger ridge
/// regularisation if the unregularised fit is unstable (which can happen when
/// sensor noise makes the nearly-collinear core temperatures look independent).
fn identify_with_retries(
    train: &IdentificationDataset,
) -> Result<thermal_model::DiscreteThermalModel, SimError> {
    let mut last_err = None;
    for lambda in [1e-9, 1e-4, 1e-2, 1.0, 100.0] {
        let options = IdentificationOptions {
            ridge_lambda: lambda,
            require_stable: true,
        };
        match identify(train, &options) {
            Ok(model) => return Ok(model),
            Err(err) => last_err = Some(err),
        }
    }
    Err(SimError::Identification(format!(
        "no stable model found: {}",
        last_err.expect("at least one attempt was made")
    )))
}

impl PhysicalPlant {
    /// True dynamic power of the big cluster for a pinned state and demand —
    /// the `αCV²f` value of the characterisation workload, which the paper
    /// treats as known during the furnace experiment.
    pub fn true_dynamic_power_w(
        &self,
        state: &PlatformState,
        demand: &Demand,
    ) -> Result<f64, SimError> {
        let spec = SocSpec::odroid_xu_e();
        let volts = spec.big_opps().voltage_for(state.big_frequency)?.volts();
        let v2f = volts * volts * state.big_frequency.hz();
        let mut dynamic = self.params().big_uncore_ceff_f * v2f;
        let online = state.online_core_count(ClusterKind::Big) as f64;
        let busy = demand.cpu_streams.min(online);
        dynamic += self.params().big_core_ceff_f * demand.activity_factor * busy * v2f;
        Ok(dynamic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A quick campaign used by the tests (shorter PRBS, ideal sensors).
    fn quick_campaign() -> CalibrationCampaign {
        CalibrationCampaign {
            prbs_duration_s: 240.0,
            run_furnace: false,
            ideal_sensors: true,
            ..CalibrationCampaign::default()
        }
    }

    #[test]
    fn quick_campaign_identifies_a_stable_accurate_model() {
        let calibration = quick_campaign().run(11).unwrap();
        assert!(calibration.predictor.model().is_stable());
        // The paper reports < 3% average error at the 1 s horizon; the quick
        // campaign with ideal sensors should do well under that.
        assert!(
            calibration.validation.mean_percent_error < 3.0,
            "mean 1 s prediction error {:.2}%",
            calibration.validation.mean_percent_error
        );
        assert_eq!(calibration.validation.horizon_steps, 10);
    }

    #[test]
    fn furnace_campaign_fits_a_temperature_sensitive_leakage_model() {
        let campaign = CalibrationCampaign {
            prbs_duration_s: 180.0,
            run_furnace: true,
            ideal_sensors: true,
            ..CalibrationCampaign::default()
        };
        let calibration = campaign.run(3).unwrap();
        let leak = calibration
            .power_model
            .domain(PowerDomain::BigCpu)
            .leakage();
        let v = soc_model::Voltage::from_volts(1.2);
        let cool = leak.power_w(v, 42.0);
        let hot = leak.power_w(v, 82.0);
        assert!(
            hot > 1.8 * cool,
            "fitted leakage not temperature sensitive: {cool} -> {hot}"
        );
    }

    #[test]
    fn invalid_campaign_parameters_are_rejected() {
        let mut campaign = quick_campaign();
        campaign.train_fraction = 1.5;
        assert!(campaign.run(1).is_err());
        let mut campaign = quick_campaign();
        campaign.prbs_duration_s = 0.0;
        assert!(campaign.run(1).is_err());
    }
}
