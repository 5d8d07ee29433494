//! Comparison of the four experimental configurations of Section 6.2 on a
//! high-activity benchmark (matrix multiplication, the Figure 6.8 workload).

#[path = "common/mod.rs"]
mod common;

use platform_sim::{ExperimentKind, StabilityReport};
use workload::BenchmarkId;

#[test]
fn configurations_rank_as_in_the_paper_for_a_heavy_benchmark() {
    let calibration = common::quick_calibration();
    let benchmark = BenchmarkId::MatrixMult;

    let with_fan = common::run(&calibration, ExperimentKind::DefaultWithFan, benchmark);
    let without_fan = common::run(&calibration, ExperimentKind::WithoutFan, benchmark);
    let reactive = common::run(&calibration, ExperimentKind::Reactive, benchmark);
    let dtpm = common::run(&calibration, ExperimentKind::Dtpm, benchmark);

    let peak = |r: &platform_sim::RunReport| r.summary.stability.peak_temp_c;

    // Without any thermal management the temperature runs away well past the
    // fan-cooled baseline (Figure 1.1 / Figure 6.3 "Without Fan").
    assert!(
        peak(&without_fan) > peak(&with_fan) + 3.0,
        "without-fan peak {:.1} vs with-fan {:.1}",
        peak(&without_fan),
        peak(&with_fan)
    );
    assert!(peak(&without_fan) > 66.0);

    // The proposed DTPM regulates the temperature at the 63 degC constraint
    // without a fan (small margin for prediction error / sensor noise).
    assert!(
        peak(&dtpm) <= 65.0,
        "DTPM peak {:.1} violates the constraint",
        peak(&dtpm)
    );
    assert!(
        peak(&dtpm) < peak(&without_fan) - 2.0,
        "DTPM must clearly improve over no management"
    );

    // DTPM saves platform power relative to the fan-cooled default (the fan
    // power goes away and the cluster runs at lower V/f when throttled).
    assert!(
        dtpm.summary.mean_platform_power_w < with_fan.summary.mean_platform_power_w,
        "DTPM {:.2} W vs with-fan {:.2} W",
        dtpm.summary.mean_platform_power_w,
        with_fan.summary.mean_platform_power_w
    );

    // The performance cost of DTPM stays bounded for a run of this length
    // (the paper reports at most ~5%; allow extra head-room for the simulated
    // plant, which heats faster than the real board).
    let loss = 100.0 * (dtpm.summary.execution_time_s - with_fan.summary.execution_time_s)
        / with_fan.summary.execution_time_s;
    assert!(
        (0.0..20.0).contains(&loss),
        "DTPM performance loss {loss:.1}% out of expected range"
    );

    // All four configurations complete the benchmark within the cap.
    for result in [&with_fan, &without_fan, &reactive, &dtpm] {
        let summary = &result.summary;
        assert!(summary.completed, "{} did not finish", summary.config.kind);
    }
}

#[test]
fn dtpm_is_more_stable_than_the_fan_once_regulation_engages() {
    let calibration = common::quick_calibration();
    let benchmark = BenchmarkId::Templerun;

    let with_fan = common::run(&calibration, ExperimentKind::DefaultWithFan, benchmark);
    let dtpm = common::run(&calibration, ExperimentKind::Dtpm, benchmark);

    // Figure 6.5: the DTPM algorithm shows a much smaller temperature spread
    // and variance than the fan-cooled default, which limit-cycles through its
    // 57/63/68 degC thresholds. Evaluate over the regulated portion of the
    // runs (skip the shared warm-up ramp).
    let steady = |r: &platform_sim::RunReport| {
        StabilityReport::of_steady_portion(r.trace.as_ref().expect("trace retained"), 0.3)
    };
    let fan_stability = steady(&with_fan);
    let dtpm_stability = steady(&dtpm);

    assert!(
        dtpm_stability.temp_range_c < fan_stability.temp_range_c,
        "DTPM range {:.1} vs fan range {:.1}",
        dtpm_stability.temp_range_c,
        fan_stability.temp_range_c
    );
    assert!(
        dtpm_stability.temp_variance < fan_stability.temp_variance,
        "DTPM variance {:.2} vs fan variance {:.2}",
        dtpm_stability.temp_variance,
        fan_stability.temp_variance
    );
}

#[test]
fn reactive_heuristic_fails_to_hold_the_constraint_that_dtpm_holds() {
    let calibration = common::quick_calibration();
    let benchmark = BenchmarkId::MatrixMult;

    let reactive = common::run(&calibration, ExperimentKind::Reactive, benchmark);
    let dtpm = common::run(&calibration, ExperimentKind::Dtpm, benchmark);

    let reactive_peak = reactive.summary.stability.peak_temp_c;
    let dtpm_peak = dtpm.summary.stability.peak_temp_c;

    // The reactive heuristic only acts after the threshold has been crossed
    // and its fixed 18%/25% cuts are not matched to the actual power budget,
    // so on a heavy workload it overshoots the constraint by several degrees
    // while the predictive approach stays pinned at it.
    assert!(
        reactive_peak > dtpm_peak + 1.0,
        "reactive peak {reactive_peak:.1} vs DTPM peak {dtpm_peak:.1}"
    );
    assert!(reactive_peak > 63.5, "reactive peak {reactive_peak:.1}");
    assert!(dtpm_peak <= 65.0, "DTPM peak {dtpm_peak:.1}");
}
