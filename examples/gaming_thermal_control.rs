//! Gaming scenario (the paper's motivating use case): run the Temple Run
//! workload — GPU plus an overloaded CPU — under all four experimental
//! configurations and compare temperature control, power and frame-time
//! proxy (execution time).
//!
//! Run with `cargo run --release --example gaming_thermal_control`.

use platform_sim::{
    CalibrationCampaign, Experiment, ExperimentConfig, ExperimentKind, RunReport, StabilityReport,
};
use workload::BenchmarkId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Characterising the platform...");
    let calibration = CalibrationCampaign::default().run(11)?;

    println!("Running Temple Run under the four configurations of Section 6.2...\n");
    println!(
        "{:<18} {:>10} {:>12} {:>10} {:>10} {:>12} {:>12}",
        "configuration",
        "exec (s)",
        "power (W)",
        "peak degC",
        "avg degC",
        "max-min degC",
        "little res. %"
    );
    let mut baseline_power = None;
    for kind in ExperimentKind::ALL {
        let config = ExperimentConfig::new(kind, BenchmarkId::Templerun).with_seed(3);
        let RunReport { summary, trace } = Experiment::new(&config, &calibration)?.run()?;
        let trace = trace.expect("an experiment retains its trace by default");
        let stability = StabilityReport::of_steady_portion(&trace, 0.3);
        println!(
            "{:<18} {:>10.1} {:>12.2} {:>10.1} {:>10.1} {:>12.1} {:>12.1}",
            kind.name(),
            summary.execution_time_s,
            summary.mean_platform_power_w,
            stability.peak_temp_c,
            stability.mean_temp_c,
            stability.temp_range_c,
            100.0 * summary.little_cluster_residency,
        );
        if kind == ExperimentKind::DefaultWithFan {
            baseline_power = Some(summary.mean_platform_power_w);
        }
        if kind == ExperimentKind::Dtpm {
            if let Some(base) = baseline_power {
                println!(
                    "  -> DTPM saves {:.1}% platform power relative to the fan-cooled default",
                    100.0 * (base - summary.mean_platform_power_w) / base
                );
            }
            // Export the DTPM trace for plotting.
            let path = std::path::Path::new("target/experiments/templerun_dtpm_trace.csv");
            trace.write_csv(path)?;
            println!("  -> full DTPM trace written to {}", path.display());
        }
    }
    Ok(())
}
