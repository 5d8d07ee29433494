//! Furnace characterisation of the leakage model (Section 4.1.1).
//!
//! The paper places the board in a temperature furnace, sweeps the ambient
//! temperature from 40 °C to 80 °C in 10 °C steps, runs a light fixed
//! frequency/voltage workload so the dynamic power stays constant, and logs
//! the total power of each domain. Because the dynamic component is constant,
//! any growth of the total power with temperature is attributable to leakage
//! (Figure 4.2), which is then fitted with the condensed leakage equation
//! (Figure 4.3).
//!
//! This module holds the dataset produced by such an experiment and a
//! synthetic generator that plays the role of the physical furnace: it clamps
//! the die temperature to the furnace setpoint (a light workload cannot raise
//! it appreciably) and samples the power model plus measurement noise.

use soc_model::Voltage;

use crate::leakage::LeakageModel;
use crate::PowerError;

/// One logged power sample inside the furnace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FurnaceSample {
    /// Time since the start of the run, in seconds.
    pub time_s: f64,
    /// Die temperature at the sample, in °C.
    pub die_temp_c: f64,
    /// Measured total power of the domain, in watts.
    pub total_power_w: f64,
}

/// All samples collected at one furnace setpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct FurnaceRun {
    /// Furnace setpoint (ambient temperature), in °C.
    pub ambient_c: f64,
    /// Logged samples.
    pub samples: Vec<FurnaceSample>,
}

impl FurnaceRun {
    /// Mean measured power over the run, in watts.
    ///
    /// # Panics
    ///
    /// Panics if the run has no samples.
    pub fn mean_power_w(&self) -> f64 {
        assert!(!self.samples.is_empty(), "furnace run has no samples");
        self.samples.iter().map(|s| s.total_power_w).sum::<f64>() / self.samples.len() as f64
    }

    /// Mean die temperature over the run, in °C.
    ///
    /// # Panics
    ///
    /// Panics if the run has no samples.
    pub fn mean_die_temp_c(&self) -> f64 {
        assert!(!self.samples.is_empty(), "furnace run has no samples");
        self.samples.iter().map(|s| s.die_temp_c).sum::<f64>() / self.samples.len() as f64
    }
}

/// A complete furnace sweep: one run per ambient setpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct FurnaceDataset {
    /// Supply voltage of the characterised domain during the sweep.
    pub supply: Voltage,
    /// Constant dynamic power of the light characterisation workload, in
    /// watts. In the paper this is known from `αCV²f` of the (fixed-frequency)
    /// characterisation workload; the fit subtracts it before extracting the
    /// leakage current.
    pub light_workload_dynamic_w: f64,
    /// Runs, one per furnace setpoint.
    pub runs: Vec<FurnaceRun>,
}

impl FurnaceDataset {
    /// The ambient sweep used by the paper: 40 °C to 80 °C in 10 °C steps.
    pub const PAPER_SWEEP_C: [f64; 5] = [40.0, 50.0, 60.0, 70.0, 80.0];

    /// Synthesises the dataset a furnace experiment would produce.
    ///
    /// The light characterisation workload draws the constant dynamic power
    /// `dynamic_w`; the die temperature settles slightly above the furnace
    /// ambient (`die_offset_c`); `noise` is called once per sample and its
    /// return value (watts) is added to the measurement to emulate sensor
    /// noise. `sample_period_s` and `duration_s` control the log density.
    #[allow(clippy::too_many_arguments)]
    pub fn synthesize(
        leakage: &LeakageModel,
        supply: Voltage,
        dynamic_w: f64,
        ambients_c: &[f64],
        die_offset_c: f64,
        duration_s: f64,
        sample_period_s: f64,
        mut noise: impl FnMut() -> f64,
    ) -> Self {
        let mut runs = Vec::with_capacity(ambients_c.len());
        for &ambient_c in ambients_c {
            let die_temp_c = ambient_c + die_offset_c;
            let steps = (duration_s / sample_period_s).floor() as usize;
            let samples = (0..steps)
                .map(|k| {
                    let time_s = k as f64 * sample_period_s;
                    let true_power = leakage.power_w(supply, die_temp_c) + dynamic_w;
                    FurnaceSample {
                        time_s,
                        die_temp_c,
                        total_power_w: (true_power + noise()).max(0.0),
                    }
                })
                .collect();
            runs.push(FurnaceRun { ambient_c, samples });
        }
        FurnaceDataset {
            supply,
            light_workload_dynamic_w: dynamic_w,
            runs,
        }
    }

    /// The per-setpoint `(mean die temperature, mean total power)` table used
    /// as input to the leakage fit — the condensed form of Figure 4.2.
    pub fn temperature_power_table(&self) -> Vec<(f64, f64)> {
        self.runs
            .iter()
            .filter(|r| !r.samples.is_empty())
            .map(|r| (r.mean_die_temp_c(), r.mean_power_w()))
            .collect()
    }

    /// Fits the leakage model to this dataset.
    ///
    /// # Errors
    ///
    /// Propagates [`PowerError`] from [`LeakageModel::fit_from_furnace`].
    pub fn fit_leakage(&self) -> Result<LeakageModel, PowerError> {
        LeakageModel::fit_from_furnace(
            &self.temperature_power_table(),
            self.supply,
            self.light_workload_dynamic_w,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leakage::LeakageParams;

    fn no_noise() -> impl FnMut() -> f64 {
        || 0.0
    }

    fn paper_like_dataset(noise: impl FnMut() -> f64) -> FurnaceDataset {
        FurnaceDataset::synthesize(
            &LeakageModel::exynos5410_big(),
            Voltage::from_volts(1.2),
            0.31,
            &FurnaceDataset::PAPER_SWEEP_C,
            2.0,
            400.0,
            1.0,
            noise,
        )
    }

    #[test]
    fn synthesized_sweep_has_five_runs_of_400_samples() {
        let ds = paper_like_dataset(no_noise());
        assert_eq!(ds.runs.len(), 5);
        for run in &ds.runs {
            assert_eq!(run.samples.len(), 400);
        }
    }

    #[test]
    fn total_power_grows_with_furnace_setpoint() {
        // Figure 4.2: the 80degC trace sits clearly above the 40degC trace.
        let ds = paper_like_dataset(no_noise());
        let means: Vec<f64> = ds.runs.iter().map(|r| r.mean_power_w()).collect();
        assert!(means.windows(2).all(|w| w[1] > w[0]), "{means:?}");
        assert!(
            means[4] - means[0] > 0.1,
            "spread {:.3} W",
            means[4] - means[0]
        );
    }

    #[test]
    fn fit_recovers_leakage_within_a_few_percent() {
        let truth = LeakageModel::exynos5410_big();
        let ds = paper_like_dataset(no_noise());
        let fitted = ds.fit_leakage().unwrap();
        for t in [45.0, 60.0, 75.0] {
            let rel = (fitted.power_w(Voltage::from_volts(1.2), t + 2.0)
                - truth.power_w(Voltage::from_volts(1.2), t + 2.0))
            .abs()
                / truth.power_w(Voltage::from_volts(1.2), t + 2.0);
            assert!(rel < 0.05, "relative error {rel} at {t}");
        }
    }

    #[test]
    fn fit_survives_deterministic_noise() {
        let mut flip = false;
        let ds = paper_like_dataset(move || {
            flip = !flip;
            if flip {
                0.004
            } else {
                -0.004
            }
        });
        let fitted = ds.fit_leakage().unwrap();
        let p40 = fitted.power_w(Voltage::from_volts(1.2), 42.0);
        let p80 = fitted.power_w(Voltage::from_volts(1.2), 82.0);
        assert!(
            p80 > 2.0 * p40,
            "fitted model must keep the exponential shape"
        );
    }

    #[test]
    fn table_skips_empty_runs() {
        let mut ds = paper_like_dataset(no_noise());
        ds.runs.push(FurnaceRun {
            ambient_c: 90.0,
            samples: vec![],
        });
        assert_eq!(ds.temperature_power_table().len(), 5);
    }

    #[test]
    fn custom_leakage_parameters_round_trip_through_fit() {
        let truth = LeakageModel::new(LeakageParams {
            c1: 0.02,
            c2: -3500.0,
            igate_a: 0.004,
        });
        let ds = FurnaceDataset::synthesize(
            &truth,
            Voltage::from_volts(1.0),
            0.2,
            &[40.0, 48.0, 56.0, 64.0, 72.0, 80.0],
            1.5,
            100.0,
            0.5,
            no_noise(),
        );
        let fitted = ds.fit_leakage().unwrap();
        for t in [45.0, 65.0, 80.0] {
            let rel = (fitted.current_a(t) - truth.current_a(t)).abs() / truth.current_a(t);
            assert!(rel < 0.05, "relative current error {rel} at {t}");
        }
    }
}
