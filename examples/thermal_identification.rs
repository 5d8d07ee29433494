//! Thermal system identification walkthrough (Chapter 4.2 of the paper):
//! excite the big cluster with a PRBS frequency signal, log power and
//! temperature through the sensors, identify the discrete thermal model with
//! least squares, and validate its prediction accuracy.
//!
//! Run with `cargo run --release --example thermal_identification`.

use platform_sim::{PhysicalPlant, PlantPowerParams, SensorSuite};
use soc_model::{FanLevel, PlatformState, SocSpec};
use sysid::{
    identify, n_step_prediction, validate_free_run, IdentificationDataset, IdentificationOptions,
    PrbsConfig, PrbsSignal,
};
use workload::Demand;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = SocSpec::odroid_xu_e();
    let control_period_s = 0.1;
    let duration_s = 900.0;
    let steps = (duration_s / control_period_s) as usize;

    // 1. PRBS excitation of the big cluster: oscillate its frequency between
    //    the minimum and maximum level with a busy workload (Figure 4.8).
    println!("Generating the PRBS excitation signal ({duration_s:.0} s)...");
    let prbs = PrbsSignal::generate(
        PrbsConfig {
            register_bits: 11,
            hold_intervals: 20,
            low: 0.0,
            high: 1.0,
            seed: 0x5a,
        },
        steps,
    )?;
    println!(
        "  {} intervals, {} transitions, duty cycle {:.2}",
        prbs.len(),
        prbs.transition_count(),
        prbs.duty_cycle()
    );

    // 2. Run the plant and log the sensed powers and temperatures.
    let mut plant = PhysicalPlant::new(spec.clone(), PlantPowerParams::default());
    let mut sensors = SensorSuite::odroid_defaults(7);
    let mut dataset = IdentificationDataset::new(4, 4, control_period_s, spec.ambient_c())?;
    let mut state = PlatformState::default_for(&spec);
    for &bit in prbs.values() {
        let high = bit > 0.5;
        state.big_frequency = if high {
            spec.big_opps().highest().frequency
        } else {
            spec.big_opps().lowest().frequency
        };
        let demand = Demand {
            cpu_streams: 4.0,
            activity_factor: if high { 0.75 } else { 0.55 },
            gpu_utilization: 0.0,
            memory_intensity: 0.1,
            frequency_scalability: 1.0,
        };
        let step = plant.step_interval(
            &state,
            &demand,
            FanLevel::Off,
            spec.ambient_c(),
            control_period_s,
        )?;
        let reading = sensors.sample(step.core_temps_c, &step.domain_power, step.platform_power_w);
        dataset.push_row(&reading.core_temps_c, &reading.domain_power.as_array())?;
    }

    // 3. Identify the model on the first 70% and validate on the rest.
    let cut = (dataset.len() as f64 * 0.7).round() as usize;
    let (train, test) = (dataset.rows(..cut), dataset.rows(cut..));
    let model = identify(train, &IdentificationOptions::default())?;
    println!(
        "\nIdentified model (sample period {:.1} s):",
        model.sample_period_s()
    );
    println!("  As =\n{}", model.a());
    println!("  Bs =\n{}", model.b());
    println!("  stable: {}", model.is_stable());

    let free_run = validate_free_run(&model, test)?;
    println!(
        "\nFree-run validation: mean RMSE {:.2} degC, fit {:.1}%",
        free_run.mean_rmse_c(),
        free_run.mean_fit_percent()
    );
    for horizon in [10usize, 30, 50] {
        let report = n_step_prediction(&model, test, horizon)?;
        println!(
            "  {:>4.1} s ahead: mean error {:.2}% ({:.2} degC), max {:.2} degC",
            report.horizon_s,
            report.mean_percent_error,
            report.mean_abs_error_c,
            report.max_abs_error_c
        );
    }
    Ok(())
}
