//! Correctness of the lane-compacting sweep scheduler.
//!
//! A [`ScenarioSweep`] recycles engine lanes: when a scenario finishes, its
//! lane is re-initialised and refilled with the next queued scenario, so a
//! ragged mix of short and long scenarios keeps every lane busy. These tests
//! pin down that recycling is invisible in the results: every scenario's
//! outcome lands in input order and matches the same scenario run alone
//! through the scalar [`Experiment`] — to ≤ 1e-9 °C on the trajectory —
//! regardless of thread count, lane width, scenario lengths, or which
//! (possibly recycled) lane a scenario happened to land on. On the panel
//! engine the match is exact: a scenario's result is bit-identical to the
//! same scenario run alone through a panel engine.

use platform_sim::{
    Calibration, CalibrationCampaign, Experiment, ExperimentConfig, ExperimentKind, FaultKind,
    FaultPlan, FaultWindow, RunReport, ScenarioSweep, SensorChannel, SimError, Trace,
};
use proptest::prelude::*;
use workload::BenchmarkId;

fn calibration() -> &'static Calibration {
    static CALIBRATION: std::sync::OnceLock<Calibration> = std::sync::OnceLock::new();
    CALIBRATION.get_or_init(|| {
        CalibrationCampaign {
            prbs_duration_s: 120.0,
            run_furnace: false,
            ..CalibrationCampaign::default()
        }
        .run(29)
        .expect("calibration campaign must succeed")
    })
}

/// A ragged scenario: unique seed per slot (so result order is provable),
/// ideal sensors (so trace temperatures are the true plant temperatures and
/// a ≤ 1e-9 °C trajectory comparison is meaningful), duration in seconds.
fn ragged_config(i: usize, duration_s: f64) -> ExperimentConfig {
    let kinds = [
        ExperimentKind::WithoutFan,
        ExperimentKind::DefaultWithFan,
        ExperimentKind::Reactive,
        ExperimentKind::Dtpm,
    ];
    let benchmarks = [
        BenchmarkId::Crc32,
        BenchmarkId::Qsort,
        BenchmarkId::Dijkstra,
    ];
    let mut config =
        ExperimentConfig::new(kinds[i % kinds.len()], benchmarks[i % benchmarks.len()])
            .with_seed(500 + i as u64);
    config.max_duration_s = duration_s;
    config.ideal_sensors = true;
    config
}

/// Asserts that a sweep result matches the scalar run of the same
/// configuration: identical discrete outcome, trajectory within 1e-9 °C.
fn assert_matches_scalar(result: &RunReport, label: &str) {
    let scalar = Experiment::new(&result.summary.config, calibration())
        .expect("scalar experiment builds")
        .run()
        .expect("scalar experiment runs");
    let (swept, solo) = (&result.summary, &scalar.summary);
    assert_eq!(swept.completed, solo.completed, "{label}: completed");
    assert_eq!(
        swept.execution_time_s, solo.execution_time_s,
        "{label}: execution time"
    );
    let (swept_trace, solo_trace) = (trace(result), trace(&scalar));
    assert_eq!(swept_trace.len(), solo_trace.len(), "{label}: trace length");
    for (k, (a, b)) in swept_trace
        .records()
        .iter()
        .zip(solo_trace.records())
        .enumerate()
    {
        for (x, y) in a.core_temps_c.iter().zip(b.core_temps_c.iter()) {
            assert!(
                (x - y).abs() < 1e-9,
                "{label}: interval {k} core temp diverged: {x} vs {y}"
            );
        }
        assert_eq!(
            a.frequency_mhz, b.frequency_mhz,
            "{label}: interval {k} frequency"
        );
    }
    assert!(
        (swept.energy_j - solo.energy_j).abs() <= 1e-6 * solo.energy_j.abs().max(1.0),
        "{label}: energy {} vs {}",
        swept.energy_j,
        solo.energy_j
    );
}

/// The trace of a report from a trace-retaining (default) run.
fn trace(report: &RunReport) -> &Trace {
    report.trace.as_ref().expect("full trace retained")
}

/// Runs `config` alone through the panel engine: a one-scenario sweep
/// configured for two lanes (the engine is sized to the one claimed lane).
fn solo_panel_run(config: &ExperimentConfig) -> RunReport {
    ScenarioSweep::new(vec![config.clone()])
        .with_threads(1)
        .with_lanes(2)
        .run(calibration())
        .pop()
        .expect("one result")
        .expect("solo panel run succeeds")
}

proptest! {
    #[test]
    fn ragged_sweeps_match_scalar_runs_for_any_shape(
        threads in 1usize..4,
        lanes in 1usize..5,
        count in 1usize..11,
        short_s in 1.0f64..2.5,
        long_s in 2.5f64..6.0,
    ) {
        // Arbitrary differing lengths: every third scenario is long, the
        // rest short, so any count > lanes·threads forces lane recycling
        // while long lanes are still in flight. Ambients differ between
        // neighbouring slots, so every lane group mixes them.
        let configs: Vec<ExperimentConfig> = (0..count)
            .map(|i| {
                let mut config = ragged_config(i, if i % 3 == 0 { long_s } else { short_s });
                config.ambient_c = [22.0, 26.0, 30.0, 34.0][i % 4];
                config
            })
            .collect();
        let results = ScenarioSweep::new(configs.clone())
            .with_threads(threads)
            .with_lanes(lanes)
            .run(calibration());
        prop_assert_eq!(results.len(), configs.len());
        for (i, (config, result)) in configs.iter().zip(&results).enumerate() {
            let result = result.as_ref().expect("sweep run must succeed");
            // Seeds are unique per input slot, so config equality pins order.
            prop_assert_eq!(&result.summary.config, config);
            let label = format!("threads={threads} lanes={lanes} count={count} slot={i}");
            assert_matches_scalar(result, &label);
            if lanes >= 2 {
                // Schedule independence: whatever lane, batch mates and
                // admission time the scenario got, its result carries the
                // same bits as the scenario run alone.
                prop_assert_eq!(result, &solo_panel_run(config), "{}", label);
            }
        }
    }
}

proptest! {
    /// A faulted lane never perturbs its siblings: whatever fault scenario
    /// lands on one slot of a multi-lane lockstep sweep — a degraded-and-
    /// recovered channel, a runaway reading that walks the ladder to early
    /// shutdown, or a drained lane erroring mid-flight — every other slot's
    /// trajectory still matches its own solo scalar run to ≤ 1e-9 °C, and
    /// the faulted slot itself replays its scalar outcome bit-for-bit
    /// (including its error, for the drained case).
    #[test]
    fn faulted_lanes_never_perturb_their_siblings(
        threads in 1usize..3,
        lanes in 2usize..5,
        count in 3usize..8,
        fault_slot_seed in 0usize..64,
        scenario in 0usize..3,
    ) {
        let fault_slot = fault_slot_seed % count;
        let mut configs: Vec<ExperimentConfig> = (0..count)
            .map(|i| ragged_config(i, if i % 3 == 0 { 4.0 } else { 2.0 }))
            .collect();
        // The faulted slot is always a DTPM lane (the kind with a policy to
        // demote or drain); its siblings keep their ragged mix of kinds.
        configs[fault_slot].kind = ExperimentKind::Dtpm;
        let (plan, drains) = match scenario {
            // Dropped channel long enough to demote the policy, then recover.
            0 => (
                FaultPlan::new(21).with_window(FaultWindow {
                    channel: SensorChannel::CoreTemp(0),
                    kind: FaultKind::Dropped,
                    start_s: 0.3,
                    end_s: 1.3,
                }),
                false,
            ),
            // Runaway (but plausible) reading: ladder shutdown retires the
            // lane early — the raggedest possible lane.
            1 => (
                FaultPlan::new(22).with_window(FaultWindow {
                    channel: SensorChannel::CoreTemp(1),
                    kind: FaultKind::OffsetDrift { initial: 80.0, drift_per_s: 0.0 },
                    start_s: 0.5,
                    end_s: f64::INFINITY,
                }),
                false,
            ),
            // Dropped channel with the fallback disabled: the lane drains
            // with a structured error mid-flight.
            _ => (
                FaultPlan::new(23).with_window(FaultWindow {
                    channel: SensorChannel::CoreTemp(0),
                    kind: FaultKind::Dropped,
                    start_s: 0.3,
                    end_s: f64::INFINITY,
                }),
                true,
            ),
        };
        configs[fault_slot].faults = Some(plan);
        if drains {
            configs[fault_slot].safety.health.degraded_fallback = false;
        }

        let results = ScenarioSweep::new(configs.clone())
            .with_threads(threads)
            .with_lanes(lanes)
            .run(calibration());
        prop_assert_eq!(results.len(), configs.len());
        let label = format!(
            "threads={threads} lanes={lanes} count={count} \
             fault_slot={fault_slot} scenario={scenario}"
        );
        for (i, (config, result)) in configs.iter().zip(&results).enumerate() {
            if i == fault_slot && drains {
                // The drained lane reports the same structured error its
                // solo scalar run does.
                let swept = result.as_ref().expect_err("drained lane must error");
                prop_assert!(
                    matches!(swept, SimError::Sensor(_)),
                    "{} slot {}: expected SimError::Sensor, got {:?}",
                    &label, i, swept
                );
                let solo = Experiment::new(config, calibration())
                    .expect("scalar experiment builds")
                    .run()
                    .expect_err("scalar run of the drained config must error");
                prop_assert_eq!(swept, &solo);
                continue;
            }
            let result = result.as_ref().expect("non-drained run must succeed");
            prop_assert_eq!(&result.summary.config, config);
            assert_matches_scalar(result, &format!("{label} slot={i}"));
        }
    }
}

#[test]
fn recycled_lanes_reproduce_scalar_trajectories() {
    // The canonical ragged mix: one long scenario pins a lane while seven
    // short ones churn through the remaining lanes of a single worker —
    // every short lane after the first two is a recycled (retired →
    // admitted) lane.
    let mut configs = vec![ragged_config(0, 12.0)];
    configs.extend((1..8).map(|i| ragged_config(i, 2.0)));
    let results = ScenarioSweep::new(configs.clone())
        .with_threads(1)
        .with_lanes(3)
        .run(calibration());
    assert_eq!(results.len(), configs.len());
    for (i, (config, result)) in configs.iter().zip(&results).enumerate() {
        let result = result.as_ref().expect("sweep run must succeed");
        assert_eq!(&result.summary.config, config);
        assert_matches_scalar(result, &format!("ragged slot {i}"));
    }
}

#[test]
fn sweeps_over_mixed_control_periods_group_and_complete() {
    // Scenarios with different control periods cannot share a lockstep
    // batch; the sweep partitions them into per-period groups and still
    // returns everything in input order.
    let mut configs = Vec::new();
    for i in 0..6 {
        let mut config = ragged_config(i, 2.0);
        config.control_period_s = if i % 2 == 0 { 0.1 } else { 0.2 };
        configs.push(config);
    }
    let results = ScenarioSweep::new(configs.clone())
        .with_threads(2)
        .with_lanes(2)
        .run(calibration());
    assert_eq!(results.len(), configs.len());
    for (i, (config, result)) in configs.iter().zip(&results).enumerate() {
        let result = result.as_ref().expect("sweep run must succeed");
        assert_eq!(&result.summary.config, config, "slot {i} out of order");
        assert_matches_scalar(result, &format!("mixed-period slot {i}"));
    }
}

#[test]
fn failing_scenarios_do_not_disturb_their_lane_mates() {
    // An invalid configuration (non-physical timing) fails at admission;
    // the scenarios sharing its worker and queue must be unaffected.
    let mut configs: Vec<ExperimentConfig> = (0..5).map(|i| ragged_config(i, 2.0)).collect();
    configs[2].max_duration_s = 0.05; // below the control period: rejected
    let results = ScenarioSweep::new(configs.clone())
        .with_threads(1)
        .with_lanes(2)
        .run(calibration());
    assert_eq!(results.len(), configs.len());
    for (i, result) in results.iter().enumerate() {
        if i == 2 {
            assert!(result.is_err(), "invalid scenario must report its error");
        } else {
            let result = result.as_ref().expect("valid scenario must succeed");
            assert_eq!(&result.summary.config, &configs[i]);
            assert_matches_scalar(result, &format!("fault-isolation slot {i}"));
        }
    }
}
