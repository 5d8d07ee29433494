//! The characterisation campaign: furnace sweep + PRBS system identification.
//!
//! Before the DTPM algorithm can run, the paper characterises the platform
//! once (Chapter 4): the leakage model is fitted to furnace measurements and
//! the thermal state-space model is identified from PRBS excitation of each
//! power source. [`CalibrationCampaign::run`] performs both campaigns against
//! the simulated plant and returns the [`Calibration`] every experiment uses.
//!
//! The campaign is nine independent experiments: five furnace setpoints and
//! one PRBS experiment per power domain. Each runs its own scalar
//! [`PhysicalPlant`] with its own sensor seed, so they run as tasks on
//! scoped threads. The four PRBS experiments log into disjoint row blocks
//! of one preallocated, row-major log, which identification and validation
//! then read in place: the train/test split is a row index, and the fit
//! accumulates its normal equations row by row. No copy of the log is ever
//! made, so the log itself is most of the campaign's peak heap. The results
//! are assembled in a fixed order, so a [`Calibration`]'s bits do not depend
//! on the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use dtpm::ThermalPredictor;
use governors::UserspaceGovernor;
use power_model::{ActivityEstimator, DomainPowerModel, LeakageModel, PowerModel};
use soc_model::{ClusterKind, FanLevel, Frequency, PlatformState, PowerDomain, SocSpec, Voltage};
use sysid::{
    identify, n_step_prediction, BlockWriter, DatasetRows, IdentificationDataset,
    IdentificationOptions, PrbsConfig, PrbsSignal, PredictionErrorReport,
};
use workload::Demand;

use crate::plant::{PhysicalPlant, PlantPowerParams};
use crate::sensors::SensorSuite;
use crate::SimError;

/// The most control intervals one experiment may run. The default recipe
/// needs 3,200 per furnace setpoint and 7,000 per PRBS experiment.
const MAX_EXPERIMENT_INTERVALS: f64 = 1e6;

/// The characterised models used by the experiments.
#[derive(Debug, Clone, PartialEq)]
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

/// The control intervals of each experiment, computed once from the recipe.
#[derive(Debug, Clone, Copy)]
struct IntervalCounts {
    /// Furnace intervals before logging starts.
    settle: usize,
    /// Furnace intervals that are logged.
    sample: usize,
    /// Intervals of each PRBS experiment.
    prbs: usize,
}

/// The pinned characterisation workload of the furnace sweep (Section
/// 4.1.1): one barely-active stream at a fixed frequency and voltage,
/// everything else quiet.
#[derive(Debug)]
struct FurnaceLoad {
    state: PlatformState,
    demand: Demand,
    volts: Voltage,
    /// The load's constant dynamic power, known from αCV²f (the paper's
    /// assumption); the same at every setpoint.
    dynamic_w: f64,
}

impl CalibrationCampaign {
    /// Runs the furnace sweep and the PRBS identification experiments.
    ///
    /// The nine experiments run as tasks on `available_parallelism()`
    /// scoped threads (at most nine); the calling thread is one of them.
    /// Workers claim the four PRBS experiments, the longest, first. The
    /// results are assembled in a fixed order: the furnace setpoints by
    /// temperature, then the PRBS logs by power domain. The first error in
    /// that order is returned, and the [`Calibration`]'s bits do not depend
    /// on the thread count.
    ///
    /// # Errors
    ///
    /// Returns an error if the campaign parameters are invalid (non-finite,
    /// non-positive, or an experiment longer than 10⁶ control intervals), the
    /// furnace fit fails, or no stable thermal model can be identified.
    pub fn run(&self, seed: u64) -> Result<Calibration, SimError> {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        self.run_on(seed, threads)
    }

    /// [`CalibrationCampaign::run`] on `threads` threads.
    pub(crate) fn run_on(&self, seed: u64, threads: usize) -> Result<Calibration, SimError> {
        let (power_model, log) = self.characterise(seed, threads)?;
        self.identify_and_validate(power_model, &log)
    }

    /// Runs the nine experiments on `threads` threads and returns the power
    /// model (with the furnace fit, if the recipe runs the furnace) and the
    /// PRBS log: one block of rows per power domain, in
    /// [`PowerDomain::ALL`] order.
    fn characterise(
        &self,
        seed: u64,
        threads: usize,
    ) -> Result<(PowerModel, IdentificationDataset), SimError> {
        let counts = self.interval_counts()?;
        let spec = SocSpec::odroid_xu_e().with_ambient_c(self.ambient_c);
        let furnace = if self.run_furnace {
            Some(self.furnace_load(&spec)?)
        } else {
            None
        };

        let mut log = IdentificationDataset::new(
            4,
            PowerDomain::COUNT,
            self.control_period_s,
            self.ambient_c,
        )?;
        let blocks: Vec<Mutex<BlockWriter<'_>>> = log
            .append_blocks(PowerDomain::COUNT, counts.prbs)
            .into_iter()
            .map(Mutex::new)
            .collect();
        let logged: Vec<OnceLock<Result<(), SimError>>> =
            blocks.iter().map(|_| OnceLock::new()).collect();
        let setpoints: &[f64] = if furnace.is_some() {
            &LeakageModel::FURNACE_SWEEP_C
        } else {
            &[]
        };
        let samples: Vec<OnceLock<Result<(f64, f64), SimError>>> =
            setpoints.iter().map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        // Each task index is claimed once, so its block is unlocked and its
        // slot still empty.
        let worker = || loop {
            let task = next.fetch_add(1, Ordering::Relaxed);
            if let Some(block) = blocks.get(task) {
                let mut block = block.lock().expect("a PRBS block is claimed once");
                let _ = logged[task].set(self.prbs_experiment(&spec, task, seed, &mut block));
            } else if let (Some(slot), Some(load)) = (samples.get(task - blocks.len()), &furnace) {
                let i = task - blocks.len();
                let sensor_seed = seed.wrapping_add(i as u64);
                let _ =
                    slot.set(self.furnace_setpoint(&spec, load, setpoints[i], sensor_seed, counts));
            } else {
                break;
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..threads.min(blocks.len() + samples.len()) {
                scope.spawn(worker);
            }
            worker();
        });
        drop(blocks);

        let mut power_model = PowerModel::exynos5410_defaults();
        if let Some(load) = furnace {
            let samples = samples
                .into_iter()
                .map(|slot| slot.into_inner().expect("every setpoint ran"))
                .collect::<Result<Vec<_>, _>>()?;
            let fitted = LeakageModel::fit_from_furnace(&samples, load.volts, load.dynamic_w)?;
            *power_model.domain_mut(PowerDomain::BigCpu) = DomainPowerModel::new(
                PowerDomain::BigCpu,
                fitted,
                ActivityEstimator::for_cpu_cluster(),
            );
        }
        for result in logged {
            result.into_inner().expect("every PRBS experiment ran")?;
        }
        Ok((power_model, log))
    }

    /// Identifies the thermal model on the first `train_fraction` of the
    /// PRBS log's rows and validates it at the 1 s horizon on the rest.
    fn identify_and_validate(
        &self,
        power_model: PowerModel,
        log: &IdentificationDataset,
    ) -> Result<Calibration, SimError> {
        let held_out = self.held_out_start(log.len());
        let model = identify_with_retries(log.rows(..held_out))?;
        let horizon = (1.0 / self.control_period_s).round() as usize;
        let validation = n_step_prediction(&model, log.rows(held_out..), horizon)?;
        let predictor = ThermalPredictor::new(model, self.ambient_c)?;
        Ok(Calibration {
            power_model,
            predictor,
            validation,
        })
    }

    /// The first held-out row of a PRBS log of `rows` rows.
    fn held_out_start(&self, rows: usize) -> usize {
        (rows as f64 * self.train_fraction).round() as usize
    }

    /// Checks the recipe and computes how many control intervals each
    /// experiment runs, before any buffer is sized.
    fn interval_counts(&self) -> Result<IntervalCounts, SimError> {
        if !(self.ambient_c.is_finite()
            && self.control_period_s.is_finite()
            && self.prbs_duration_s.is_finite())
        {
            return Err(SimError::InvalidConfig(
                "calibration ambient, period and duration must be finite",
            ));
        }
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
        // Let the die settle above the furnace ambient, then log samples.
        let settle = (120.0 / self.control_period_s).trunc();
        let sample = (200.0 / self.control_period_s).trunc();
        let prbs = (self.prbs_duration_s / self.control_period_s).round();
        let furnace = if self.run_furnace {
            settle + sample
        } else {
            0.0
        };
        if !(furnace <= MAX_EXPERIMENT_INTERVALS && prbs <= MAX_EXPERIMENT_INTERVALS) {
            return Err(SimError::InvalidConfig(
                "a calibration experiment would run more than 10^6 control intervals",
            ));
        }
        Ok(IntervalCounts {
            settle: settle as usize,
            sample: sample as usize,
            prbs: prbs as usize,
        })
    }

    /// The sensor chain of one experiment.
    fn sensors(&self, seed: u64) -> SensorSuite {
        if self.ideal_sensors {
            SensorSuite::ideal(seed)
        } else {
            SensorSuite::odroid_defaults(seed)
        }
    }

    /// The furnace sweep's characterisation load on the big cluster.
    fn furnace_load(&self, spec: &SocSpec) -> Result<FurnaceLoad, SimError> {
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
        let dynamic_w = true_dynamic_power_w(spec, &self.plant, &state, &demand)?;
        Ok(FurnaceLoad {
            state,
            demand,
            volts,
            dynamic_w,
        })
    }

    /// One furnace setpoint: soaks the board at `setpoint_c`, runs the load,
    /// and returns the mean logged maximum core temperature and big-cluster
    /// power.
    fn furnace_setpoint(
        &self,
        spec: &SocSpec,
        load: &FurnaceLoad,
        setpoint_c: f64,
        sensor_seed: u64,
        counts: IntervalCounts,
    ) -> Result<(f64, f64), SimError> {
        let mut plant = PhysicalPlant::new(spec.clone().with_ambient_c(setpoint_c), self.plant);
        plant.reset_temps(setpoint_c);
        let mut sensors = self.sensors(sensor_seed);
        let mut temp_sum = 0.0;
        let mut power_sum = 0.0;
        for step_idx in 0..(counts.settle + counts.sample) {
            let step = plant.step_interval(
                &load.state,
                &load.demand,
                FanLevel::Off,
                setpoint_c,
                self.control_period_s,
            )?;
            if step_idx >= counts.settle {
                let reading =
                    sensors.sample(step.core_temps_c, &step.domain_power, step.platform_power_w);
                temp_sum += reading.max_core_temp_c();
                power_sum += reading.domain_power.big_w;
            }
        }
        let count = counts.sample as f64;
        Ok((temp_sum / count, power_sum / count))
    }

    /// One PRBS excitation experiment of the power source
    /// `PowerDomain::ALL[experiment_index]`, logged at the control-interval
    /// rate (Section 4.2.1) into every row of `log`.
    fn prbs_experiment(
        &self,
        spec: &SocSpec,
        experiment_index: usize,
        seed: u64,
        log: &mut BlockWriter<'_>,
    ) -> Result<(), SimError> {
        let target = PowerDomain::ALL[experiment_index];
        let prbs = PrbsSignal::generate(
            PrbsConfig {
                register_bits: 11,
                hold_intervals: self.prbs_hold_intervals,
                low: 0.0,
                high: 1.0,
                seed: 0x23 + experiment_index as u32 * 97,
            },
            log.remaining(),
        )?;
        let mut plant = PhysicalPlant::new(spec.clone(), self.plant);
        let mut sensors = self.sensors(seed.wrapping_add(1000 + experiment_index as u64));
        let mut governor = UserspaceGovernor::new(spec.big_opps().lowest().frequency);
        let boot = PlatformState::default_for(spec);
        for &bit in prbs.values() {
            let (state, demand) = self.excitation_point(spec, boot, target, bit, &mut governor);
            let step = plant.step_interval(
                &state,
                &demand,
                FanLevel::Off,
                self.ambient_c,
                self.control_period_s,
            )?;
            let reading =
                sensors.sample(step.core_temps_c, &step.domain_power, step.platform_power_w);
            log.push_row(&reading.core_temps_c, &reading.domain_power.as_array())?;
        }
        Ok(())
    }

    /// The platform state and workload demand used to excite one power source
    /// with a PRBS bit (all other sources held low/constant), starting from
    /// the board's `boot` state.
    fn excitation_point(
        &self,
        spec: &SocSpec,
        boot: PlatformState,
        target: PowerDomain,
        bit: f64,
        governor: &mut UserspaceGovernor,
    ) -> (PlatformState, Demand) {
        let mut state = boot;
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
    train: DatasetRows<'_>,
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

/// True dynamic power of the big cluster of a plant with power parameters
/// `plant` for a pinned state and demand — the `αCV²f` value of the
/// characterisation workload, which the paper treats as known during the
/// furnace experiment.
fn true_dynamic_power_w(
    spec: &SocSpec,
    plant: &PlantPowerParams,
    state: &PlatformState,
    demand: &Demand,
) -> Result<f64, SimError> {
    let volts = spec.big_opps().voltage_for(state.big_frequency)?.volts();
    let v2f = volts * volts * state.big_frequency.hz();
    let mut dynamic = plant.big_uncore_ceff_f * v2f;
    let online = state.online_core_count(ClusterKind::Big) as f64;
    let busy = demand.cpu_streams.min(online);
    dynamic += plant.big_core_ceff_f * demand.activity_factor * busy * v2f;
    Ok(dynamic)
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// The pinned recipe: furnace on, noisy sensors, 240 s PRBS experiments.
    pub(crate) fn pinned_recipe() -> CalibrationCampaign {
        CalibrationCampaign {
            prbs_duration_s: 240.0,
            ..CalibrationCampaign::default()
        }
    }

    /// `f64::to_bits` of the big cluster's fitted leakage parameters
    /// (`c1`, `c2`, `igate_a`) of `pinned_recipe().run(1)`.
    const PINNED_LEAKAGE: [u64; 3] = [0x3f864b1afdc22fdf, 0xc0a7e2114e0898cd, 0x3f78c17487e63a74];

    /// `f64::to_bits` of the identified `As`, row-major.
    #[rustfmt::skip]
    const PINNED_A: [u64; 16] = [
        0x3fd29fed5ead24b8, 0x3fce7e53567eba8b, 0x3fcd9a61dfb72b01, 0x3fce29fd9d814d61,
        0x3fd0717a19e51018, 0x3fd1e5b2fb8bdb5b, 0x3fcda87145012dfb, 0x3fcd3df3c9540007,
        0x3fd24b6e9fe32906, 0x3fced6a37c3276b9, 0x3fcee6c13f7a4523, 0x3fcd3de6473ab78b,
        0x3fd0cf11c00434c8, 0x3fd12a95fe580df5, 0x3fcc1162122d47a7, 0x3fcf9304b4ab5f8f,
    ];

    /// `f64::to_bits` of the identified `Bs`, row-major.
    #[rustfmt::skip]
    const PINNED_B: [u64; 16] = [
        0x3f894c5a5fdf052a, 0xbfb979be9d4abf17, 0x3fb99392f8f7bdac, 0x3fcd5737448677d6,
        0x3f9b8f1711c7adb4, 0x3faef716de223d16, 0xbfb2edd485f813a7, 0x3fc34c171e659d5b,
        0x3f85caa6e868346c, 0xbfb696ad31bc23d0, 0x3fb01fe2bfc91765, 0x3fc8c6d11dd31a66,
        0x3f9aa757ada5aadf, 0x3fb19c630b39b9ca, 0xbfb41d14075538eb, 0x3fc14cd8a9f4c3cd,
    ];

    /// `f64::to_bits` of the validation report's `horizon_s`,
    /// `mean_abs_error_c`, `mean_percent_error`, `max_abs_error_c` and
    /// `max_percent_error`.
    const PINNED_VALIDATION: [u64; 5] = [
        0x3ff0000000000000,
        0x3fd57b950baf8985,
        0x3fe7e0608cce5ffa,
        0x40229a69762bf548,
        0x4031c8f9a0746d2f,
    ];

    #[test]
    fn pinned_recipe_keeps_its_bits_on_one_and_four_threads() {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for threads in [1, 4] {
            let calibration = pinned_recipe().run_on(1, threads).unwrap();
            let leak = calibration
                .power_model
                .domain(PowerDomain::BigCpu)
                .leakage()
                .params();
            assert_eq!(
                bits(&[leak.c1, leak.c2, leak.igate_a]),
                PINNED_LEAKAGE,
                "leakage fit on {threads} threads"
            );
            let model = calibration.predictor.model();
            assert_eq!(
                bits(model.a().as_slice()),
                PINNED_A,
                "As on {threads} threads"
            );
            assert_eq!(
                bits(model.b().as_slice()),
                PINNED_B,
                "Bs on {threads} threads"
            );
            let v = calibration.validation;
            assert_eq!((v.horizon_steps, v.samples), (10, 11_480));
            assert_eq!(
                bits(&[
                    v.horizon_s,
                    v.mean_abs_error_c,
                    v.mean_percent_error,
                    v.max_abs_error_c,
                    v.max_percent_error,
                ]),
                PINNED_VALIDATION,
                "validation on {threads} threads"
            );
        }
    }

    #[test]
    fn the_validation_max_comes_from_windows_across_an_experiment_boundary() {
        // The held-out rows start inside the GPU experiment's block and run
        // on through the memory experiment's. The ten 1 s windows that
        // straddle that boundary predict one experiment's temperatures from
        // the other's powers; they hold the pinned max. On either side of
        // the boundary, every window is accurate.
        let recipe = pinned_recipe();
        let (power_model, log) = recipe.characterise(1, 4).unwrap();
        let calibration = recipe.identify_and_validate(power_model, &log).unwrap();
        let max = calibration.validation.max_percent_error;
        assert_eq!(max.to_bits(), PINNED_VALIDATION[4], "{max}");
        let block = log.len() / PowerDomain::COUNT;
        let held_out = recipe.held_out_start(log.len());
        let memory = PowerDomain::ALL
            .iter()
            .position(|&d| d == PowerDomain::Memory)
            .unwrap();
        let boundary = memory * block;
        assert_eq!((held_out, boundary, log.len()), (6720, 7200, 9600));
        assert!((boundary - block..boundary).contains(&held_out));
        let model = calibration.predictor.model();
        for (what, rows) in [
            ("before", log.rows(held_out..boundary)),
            ("after", log.rows(boundary..)),
        ] {
            let side = n_step_prediction(model, rows, 10).unwrap();
            assert!(
                side.max_percent_error < 4.0,
                "held-out rows {what} the boundary: max {:.2}%",
                side.max_percent_error
            );
        }
    }

    /// Asserts `recipe` fails as an invalid configuration within a second.
    fn assert_rejected_promptly(recipe: CalibrationCampaign) {
        let start = std::time::Instant::now();
        let result = recipe.run(1);
        assert!(
            matches!(result, Err(SimError::InvalidConfig(_))),
            "{recipe:?} gave {result:?}"
        );
        assert!(start.elapsed().as_secs_f64() < 1.0, "{recipe:?} was slow");
    }

    #[test]
    fn a_picosecond_period_is_rejected_promptly() {
        // The furnace sweep alone would run 3.2e14 intervals.
        assert_rejected_promptly(CalibrationCampaign {
            control_period_s: 1e-12,
            ..CalibrationCampaign::default()
        });
    }

    #[test]
    fn an_astronomical_prbs_duration_is_rejected_promptly() {
        // Sizing the PRBS signal for it would overflow a buffer's capacity.
        assert_rejected_promptly(CalibrationCampaign {
            prbs_duration_s: 1e300,
            ..CalibrationCampaign::default()
        });
    }

    #[test]
    fn a_nan_ambient_is_rejected() {
        // It used to calibrate "successfully", with a NaN validation error.
        assert_rejected_promptly(CalibrationCampaign {
            ambient_c: f64::NAN,
            ..CalibrationCampaign::default()
        });
    }

    #[test]
    fn infinite_timing_parameters_are_rejected() {
        for recipe in [
            CalibrationCampaign {
                control_period_s: f64::INFINITY,
                ..CalibrationCampaign::default()
            },
            CalibrationCampaign {
                prbs_duration_s: f64::INFINITY,
                ..CalibrationCampaign::default()
            },
        ] {
            assert_rejected_promptly(recipe);
        }
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
