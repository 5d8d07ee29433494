//! Robustness of the fault-injection / safety-ladder / degraded-mode stack.
//!
//! Three contracts are pinned here:
//!
//! * **Armed safety is invisible when nothing is wrong.** A fault-free run
//!   with the default (armed) [`SafetyConfig`] is bit-identical to the same
//!   run with safety disabled — the watchdog layers must not perturb healthy
//!   trajectories.
//! * **Fault scenarios are deterministic.** The same seed and [`FaultPlan`]
//!   replay a bit-identical [`IncidentLog`] regardless of whether the run
//!   executes alone on the scalar engine or batched into any lane of any
//!   sweep shape.
//! * **Faults degrade, never corrupt.** An unreliable sensor chain demotes
//!   the predictive policy to the reactive fallback (and promotes back after
//!   recovery), drains the run with a structured error when the fallback is
//!   disabled, and walks the thermal ladder to simulated shutdown when
//!   temperatures run away — all without panics.

use platform_sim::{
    Calibration, CalibrationCampaign, CollectSink, Experiment, ExperimentConfig, ExperimentKind,
    FaultKind, FaultPlan, FaultWindow, IncidentKind, ScenarioSweep, SensorChannel, SimError,
    SweepSpec, TracePolicy,
};
use workload::BenchmarkId;

fn calibration() -> &'static Calibration {
    static CALIBRATION: std::sync::OnceLock<Calibration> = std::sync::OnceLock::new();
    CALIBRATION.get_or_init(|| {
        CalibrationCampaign {
            prbs_duration_s: 120.0,
            run_furnace: false,
            ..CalibrationCampaign::default()
        }
        .run(53)
        .expect("calibration campaign must succeed")
    })
}

fn base_config(kind: ExperimentKind, seed: u64, duration_s: f64) -> ExperimentConfig {
    let mut config = ExperimentConfig::new(kind, BenchmarkId::Qsort).with_seed(seed);
    config.max_duration_s = duration_s;
    config.ideal_sensors = true;
    config
}

/// A plan that drops one core-temperature channel (NaN readings) over
/// `[start_s, end_s)`.
fn dropped_temp_plan(core: usize, start_s: f64, end_s: f64) -> FaultPlan {
    FaultPlan::new(11).with_window(FaultWindow {
        channel: SensorChannel::CoreTemp(core),
        kind: FaultKind::Dropped,
        start_s,
        end_s,
    })
}

/// The default safety configuration must be a bit-exact no-op on healthy
/// runs: same trajectory, same energy, no incidents — for every experiment
/// kind, with both ideal and noisy sensor chains (the noisy case also pins
/// that screening consumes no RNG draws).
#[test]
fn armed_safety_is_invisible_on_fault_free_runs() {
    for kind in [
        ExperimentKind::WithoutFan,
        ExperimentKind::DefaultWithFan,
        ExperimentKind::Reactive,
        ExperimentKind::Dtpm,
    ] {
        for ideal in [true, false] {
            let mut armed = base_config(kind, 404, 2.5);
            armed.ideal_sensors = ideal;
            let disabled = armed
                .clone()
                .with_safety(platform_sim::SafetyConfig::disabled());

            let armed_report = Experiment::new(&armed, calibration())
                .expect("armed experiment builds")
                .run()
                .expect("armed experiment runs");
            let disabled_report = Experiment::new(&disabled, calibration())
                .expect("disabled experiment builds")
                .run()
                .expect("disabled experiment runs");

            let label = format!("{kind:?} ideal={ideal}");
            assert!(
                armed_report.summary.incidents.is_empty(),
                "{label}: healthy run must log no incidents"
            );
            assert_eq!(
                armed_report.trace, disabled_report.trace,
                "{label}: trajectories must be bit-identical"
            );
            assert_eq!(
                armed_report.summary.energy_j, disabled_report.summary.energy_j,
                "{label}: energy"
            );
            assert_eq!(
                armed_report.summary.execution_time_s, disabled_report.summary.execution_time_s,
                "{label}: execution time"
            );
            assert_eq!(
                armed_report.summary.intervals, disabled_report.summary.intervals,
                "{label}: interval count"
            );
        }
    }
}

/// Identical seed + plan ⇒ identical incidents, independent of engine and
/// lane placement: the scalar run, a re-run, and the same cell batched into
/// two different sweep shapes all report the same [`IncidentLog`].
#[test]
fn identical_seed_and_plan_replay_bit_identical_incident_logs() {
    // A plan with two flavours of trouble: a dropped temperature channel and
    // a platform-meter spike train large enough to leave the plausibility
    // envelope (seed-deterministic spike times).
    let plan = FaultPlan::new(7777)
        .with_window(FaultWindow {
            channel: SensorChannel::CoreTemp(1),
            kind: FaultKind::Dropped,
            start_s: 0.5,
            end_s: 1.2,
        })
        .with_window(FaultWindow {
            channel: SensorChannel::PlatformPower,
            kind: FaultKind::Spike {
                magnitude: 100.0,
                period_intervals: 10,
            },
            start_s: 0.0,
            end_s: f64::INFINITY,
        });
    let faulted = base_config(ExperimentKind::Dtpm, 808, 4.0).with_faults(plan);

    let scalar = Experiment::new(&faulted, calibration())
        .expect("experiment builds")
        .run()
        .expect("experiment runs");
    assert!(
        !scalar.summary.incidents.is_empty(),
        "the plan must actually produce incidents"
    );
    assert!(scalar.summary.incidents.sensor_faults() >= 2);

    // Exact re-run: the whole summary is bit-identical.
    let again = Experiment::new(&faulted, calibration())
        .expect("experiment builds")
        .run()
        .expect("experiment runs");
    assert_eq!(scalar.summary, again.summary, "scalar replay");

    // The same cell embedded in two different sweep shapes (different
    // thread/lane counts, different slot, different lane mates) reports the
    // same incident log.
    for (threads, lanes, slot, total) in [(1usize, 3usize, 1usize, 3usize), (2, 2, 0, 5)] {
        let mut configs: Vec<ExperimentConfig> = (0..total)
            .map(|i| base_config(ExperimentKind::Reactive, 9_000 + i as u64, 2.0))
            .collect();
        configs[slot] = faulted.clone();
        let reports = ScenarioSweep::new(configs)
            .with_threads(threads)
            .with_lanes(lanes)
            .with_recording(TracePolicy::SummaryOnly)
            .run(calibration());
        let report = reports[slot]
            .as_ref()
            .expect("faulted cell completes in the sweep");
        assert_eq!(
            report.summary.incidents, scalar.summary.incidents,
            "threads={threads} lanes={lanes}: incident log must not depend \
             on lane placement"
        );
    }
}

/// A dropped sensor demotes DTPM to the reactive fallback once the staleness
/// budget is exhausted, and the run promotes back after the chain has been
/// healthy long enough — the full incident sequence in order, no errors.
#[test]
fn dropped_sensor_degrades_the_policy_and_recovery_promotes_it() {
    // 15 dropped intervals (budget is 5) then 3.5 s of healthy readings
    // (recovery needs 20 intervals).
    let config =
        base_config(ExperimentKind::Dtpm, 42, 6.0).with_faults(dropped_temp_plan(0, 1.0, 2.5));
    let report = Experiment::new(&config, calibration())
        .expect("experiment builds")
        .run()
        .expect("a degraded run still completes");
    let incidents = &report.summary.incidents;

    let position = |predicate: fn(&IncidentKind) -> bool| {
        incidents
            .iter()
            .position(|incident| predicate(&incident.kind))
    };
    let faulted = position(|k| matches!(k, IncidentKind::SensorFault { .. }))
        .expect("the dropped channel is reported");
    let degraded = position(|k| matches!(k, IncidentKind::PolicyDegraded { .. }))
        .expect("exhausting the staleness budget demotes the policy");
    let recovered = position(|k| matches!(k, IncidentKind::SensorRecovered { .. }))
        .expect("the channel recovers after the window closes");
    let restored = position(|k| matches!(k, IncidentKind::PolicyRestored))
        .expect("a healthy streak promotes the policy back");
    assert!(
        faulted < degraded && degraded < recovered && recovered < restored,
        "incidents out of order: {incidents:?}"
    );
    assert_eq!(
        incidents.escalations(),
        0,
        "substituted readings must keep the ladder on its Normal rung"
    );
    assert!(!incidents.shut_down());
    assert_eq!(report.summary.intervals, 60, "the run reaches its cap");
}

/// With the degraded fallback disabled, exhausting the staleness budget
/// drains the run with a structured sensor error instead of limping on.
#[test]
fn unreliable_sensors_drain_the_run_when_fallback_is_disabled() {
    let mut config =
        base_config(ExperimentKind::Dtpm, 42, 6.0).with_faults(dropped_temp_plan(0, 1.0, 2.5));
    config.safety.health.degraded_fallback = false;
    let error = Experiment::new(&config, calibration())
        .expect("experiment builds")
        .run()
        .expect_err("an unreliable chain without fallback must drain");
    assert!(
        matches!(error, SimError::Sensor(_)),
        "expected SimError::Sensor, got {error:?}"
    );
}

/// A sensor stuck at a plausible-but-lethal temperature walks the ladder
/// straight to simulated shutdown and retires the run early.
#[test]
fn stuck_high_sensor_walks_the_ladder_to_simulated_shutdown() {
    // An +80 °C offset puts the channel well above the 100 °C shutdown rung
    // yet inside the plausibility envelope — the health monitor must believe
    // the reading so the ladder, not substitution, handles it.
    let plan = FaultPlan::new(3).with_window(FaultWindow {
        channel: SensorChannel::CoreTemp(2),
        kind: FaultKind::OffsetDrift {
            initial: 80.0,
            drift_per_s: 0.0,
        },
        start_s: 0.8,
        end_s: f64::INFINITY,
    });
    let config = base_config(ExperimentKind::DefaultWithFan, 13, 10.0).with_faults(plan);
    let report = Experiment::new(&config, calibration())
        .expect("experiment builds")
        .run()
        .expect("a simulated shutdown is a reported outcome, not an error");
    let incidents = &report.summary.incidents;
    assert!(incidents.shut_down(), "the ladder must reach shutdown");
    assert_eq!(
        incidents.escalations(),
        1,
        "a runaway reading escalates once, straight to the top rung"
    );
    assert!(
        !report.summary.completed,
        "a shut-down run did not complete its benchmark"
    );
    assert!(
        report.summary.intervals < 15,
        "shutdown retires the run early, not at the 100-interval cap \
         (got {} intervals)",
        report.summary.intervals
    );
}

/// A campaign with a fault axis completes every cell — faulted cells report
/// their incidents, fault-free cells stay silent, nothing panics or drains.
#[test]
fn fault_campaigns_complete_every_cell() {
    // 12 dropped intervals: enough to demote the DTPM cells (budget 5) while
    // the reactive cells just log the fault episode.
    let plan = dropped_temp_plan(0, 0.4, 1.6);
    let spec = SweepSpec::new(
        vec![ExperimentKind::Dtpm, ExperimentKind::Reactive],
        vec![BenchmarkId::Crc32, BenchmarkId::Qsort],
    )
    .with_fault_plans(vec![None, Some(plan)])
    .with_max_duration_s(2.0)
    .with_ideal_sensors(true)
    .with_campaign_seed(0xFA017);
    assert_eq!(spec.cells(), 8, "2 kinds x 2 benchmarks x 2 fault plans");

    let mut sink = CollectSink::new(spec.cells());
    spec.runner()
        .with_threads(2)
        .with_lanes(2)
        .run_into(calibration(), &mut sink);

    let configs: Vec<ExperimentConfig> = spec.expand().collect();
    for (index, report) in sink.into_reports().into_iter().enumerate() {
        let report = report.unwrap_or_else(|error| {
            panic!("cell {index} must complete, got {error}");
        });
        assert_eq!(report.summary.config, configs[index], "cell {index}: order");
        let incidents = &report.summary.incidents;
        if configs[index].faults.is_some() {
            assert!(
                incidents.sensor_faults() >= 1,
                "cell {index}: faulted cell must report its sensor fault"
            );
            assert!(!incidents.shut_down(), "cell {index}: no thermal runaway");
        } else {
            assert!(
                incidents.is_empty(),
                "cell {index}: fault-free cell must log nothing, \
                 got {incidents:?}"
            );
        }
    }
}
