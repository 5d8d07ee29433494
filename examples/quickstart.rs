//! Quickstart: characterise the platform, then run one benchmark under the
//! default fan-cooled configuration and under the proposed DTPM algorithm,
//! and compare temperature, power and execution time.
//!
//! Run with `cargo run --release --example quickstart`.

use platform_sim::{
    BenchmarkComparison, CalibrationCampaign, Experiment, ExperimentConfig, ExperimentKind,
};
use workload::BenchmarkId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Characterise the platform once: furnace sweep for the leakage model,
    //    PRBS excitation + least-squares identification for the thermal model.
    println!("Characterising the platform (furnace + PRBS identification)...");
    let calibration = CalibrationCampaign::default().run(42)?;
    println!(
        "  identified thermal model: 1 s prediction error {:.2}% (max {:.2}%)",
        calibration.validation.mean_percent_error, calibration.validation.max_percent_error
    );

    // 2. Run the same benchmark under the default (fan) configuration and
    //    under the proposed DTPM algorithm.
    let benchmark = BenchmarkId::Basicmath;
    println!("\nRunning {benchmark} under the default configuration (with fan)...");
    let baseline = Experiment::new(
        &ExperimentConfig::new(ExperimentKind::DefaultWithFan, benchmark),
        &calibration,
    )?
    .run()?
    .summary;

    println!("Running {benchmark} under the proposed DTPM algorithm (no fan)...");
    let dtpm = Experiment::new(
        &ExperimentConfig::new(ExperimentKind::Dtpm, benchmark),
        &calibration,
    )?
    .run()?
    .summary;

    // 3. Report the comparison.
    for (name, summary) in [("default+fan", &baseline), ("DTPM", &dtpm)] {
        let stability = &summary.stability;
        println!(
            "\n  {name:<12} execution {:.1} s | platform power {:.2} W | peak {:.1} °C | \
             mean {:.1} °C | max–min {:.1} °C | variance {:.2}",
            summary.execution_time_s,
            summary.mean_platform_power_w,
            stability.peak_temp_c,
            stability.mean_temp_c,
            stability.temp_range_c,
            stability.temp_variance,
        );
    }
    let comparison = BenchmarkComparison::against_baseline(&baseline, &dtpm);
    println!(
        "\n  DTPM vs default+fan: {:.1}% platform power saved, {:.1}% performance loss, \
         {:.1}x temperature-variance reduction",
        comparison.power_saving_percent,
        comparison.performance_loss_percent,
        comparison.variance_reduction_factor,
    );
    Ok(())
}
