//! Shared helpers for the cross-crate integration tests.

use platform_sim::{
    Calibration, CalibrationCampaign, Experiment, ExperimentConfig, ExperimentKind, RunReport,
};
use workload::BenchmarkId;

/// A reduced-length characterisation campaign used by the integration tests:
/// the same pipeline as the full campaign (furnace skipped, PRBS shortened)
/// with realistic noisy sensors.
#[allow(dead_code)]
pub fn quick_calibration() -> Calibration {
    CalibrationCampaign {
        prbs_duration_s: 300.0,
        run_furnace: false,
        ..CalibrationCampaign::default()
    }
    .run(2024)
    .expect("calibration campaign must succeed")
}

/// The full characterisation campaign including the furnace sweep.
#[allow(dead_code)]
pub fn full_calibration() -> Calibration {
    CalibrationCampaign::default()
        .run(2024)
        .expect("calibration campaign must succeed")
}

/// Runs one benchmark under one configuration with a fixed seed, its trace
/// retained.
#[allow(dead_code)]
pub fn run(calibration: &Calibration, kind: ExperimentKind, benchmark: BenchmarkId) -> RunReport {
    let config = ExperimentConfig::new(kind, benchmark).with_seed(7);
    Experiment::new(&config, calibration)
        .expect("experiment construction must succeed")
        .run()
        .expect("experiment run must succeed")
}
