//! End-to-end integration test: characterisation → DTPM control of a
//! benchmark → constraint satisfaction and sensible outputs.

#[path = "common/mod.rs"]
mod common;

use platform_sim::{ExperimentKind, RunReport};
use workload::BenchmarkId;

#[test]
fn dtpm_runs_a_benchmark_to_completion_within_the_thermal_constraint() {
    let calibration = common::quick_calibration();
    let RunReport { summary, trace } =
        common::run(&calibration, ExperimentKind::Dtpm, BenchmarkId::Patricia);
    let trace = trace.expect("trace retained");

    assert!(
        summary.completed,
        "patricia must finish within the duration cap"
    );
    assert!(summary.execution_time_s > 50.0, "suspiciously short run");
    assert!(!trace.is_empty());

    // The DTPM configuration must keep the maximum core temperature at or
    // below the 63 degC constraint, allowing a small margin for prediction
    // error and sensor noise (the paper reports <1 degC at the 1 s horizon).
    let peak = summary.stability.peak_temp_c;
    assert!(
        peak <= 64.5,
        "DTPM must respect the 63 degC constraint, peak was {peak:.1}"
    );

    // Power and progress signals must be physically sensible.
    for record in trace.records() {
        assert!(record.domain_power.is_physical());
        assert!(record.platform_power_w > 1.0 && record.platform_power_w < 12.0);
        assert!((0.0..=1.0).contains(&record.progress));
        assert!(record.frequency_mhz >= 500 && record.frequency_mhz <= 1600);
        assert!(record.online_cores >= 1 && record.online_cores <= 4);
    }
    // Progress must be monotonically non-decreasing and end at 1.
    let progresses: Vec<f64> = trace.records().iter().map(|r| r.progress).collect();
    assert!(progresses.windows(2).all(|w| w[1] >= w[0] - 1e-9));
    assert!(progresses.last().copied().unwrap_or(0.0) > 0.999);
}

#[test]
fn dtpm_is_non_intrusive_for_light_workloads() {
    let calibration = common::quick_calibration();
    let dtpm = common::run(&calibration, ExperimentKind::Dtpm, BenchmarkId::Crc32).summary;
    let plain = common::run(&calibration, ExperimentKind::WithoutFan, BenchmarkId::Crc32).summary;

    // CRC32 barely heats the chip, so the DTPM algorithm should almost never
    // intervene and the execution time should match the unmanaged run closely.
    assert!(
        dtpm.intervention_rate < 0.10,
        "DTPM intervened in {:.1}% of intervals for a light workload",
        100.0 * dtpm.intervention_rate
    );
    let slowdown = (dtpm.execution_time_s - plain.execution_time_s) / plain.execution_time_s;
    assert!(
        slowdown.abs() < 0.02,
        "light workloads must not be slowed down ({:.2}% observed)",
        100.0 * slowdown
    );
}

#[test]
fn dtpm_trace_reports_predictions_and_interventions_for_heavy_workloads() {
    let calibration = common::quick_calibration();
    let RunReport { summary, trace } =
        common::run(&calibration, ExperimentKind::Dtpm, BenchmarkId::MatrixMult);
    let trace = trace.expect("trace retained");
    assert!(summary.completed);

    // Predictions are logged every interval in the DTPM configuration.
    assert!(trace.records().iter().all(|r| r.predicted_peak_c.is_some()));

    // A heavy benchmark must eventually trigger the DTPM algorithm, and the
    // trace must reflect the throttling (some interval runs below 1.6 GHz).
    assert!(trace.intervention_rate() > 0.0);
    let min_freq = trace
        .frequency_series()
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_freq < 1600.0,
        "matrix multiplication must see throttling"
    );

    // The platform state in every record stays consistent with the actions.
    let peak = summary.stability.peak_temp_c;
    assert!(
        peak <= 65.0,
        "peak {peak:.1} degC exceeds the constraint region"
    );
}
