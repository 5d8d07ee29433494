//! Precision-budget property tests for the mixed-precision (f32 panel)
//! engine.
//!
//! The f32 engine's correctness contract is *budgeted, not assumed*: against
//! the f64 panel oracle, over randomised scenarios (demand mixes, ambients,
//! control periods — which also vary the micro-step/re-anchor interplay —
//! initial temperatures, leakage mismatch and actuation schedules) and over
//! a paper-scale deterministic run, the trajectories must agree to the
//! documented ≤ 1e-3 °C budget, integrated energy to ≤ 0.01 %, and every
//! thermal *decision* built on the trajectories — here the [`SafetyLadder`]
//! rung sequence — must agree exactly. The `EnginePrecision::F64` default
//! must leave existing runs bit-identical.

use platform_sim::{
    CalibrationCampaign, EnginePrecision, Experiment, ExperimentConfig, ExperimentKind,
    IncidentLog, LadderConfig, LaneInput, MixedPanelEngine, PanelEngine, PlantEngine,
    PlantPowerParams, SafetyLadder,
};
use proptest::prelude::*;
use soc_model::{ClusterKind, FanLevel, Frequency, PlatformState, SocSpec};
use workload::{BenchmarkId, Demand};

/// Per-lane actuation schedule: frequency steps, hotplug, cluster migration
/// and fan phases, offset per lane and by a per-case seed so the lanes (and
/// cases) genuinely diverge — diverging fan levels also force the per-lane
/// strided transition fallback.
fn lane_state(spec: &SocSpec, seed: usize, lane: usize, i: usize) -> (PlatformState, FanLevel) {
    let mut state = PlatformState::default_for(spec);
    let phase = (i + lane * 37 + seed * 13) % 400;
    if (100..180).contains(&phase) {
        state.set_core_online(ClusterKind::Big, 2, false);
    }
    if (180..260).contains(&phase) {
        state.set_cluster_frequency(ClusterKind::Big, Frequency::from_mhz(1000));
    }
    if (260..330).contains(&phase) {
        state.migrate_to_cluster(ClusterKind::Little, Frequency::from_mhz(1200));
    }
    let fan = match (i / 60 + lane + seed) % 4 {
        0 => FanLevel::Off,
        1 => FanLevel::Base,
        2 => FanLevel::Half,
        _ => FanLevel::Full,
    };
    (state, fan)
}

/// Outcome of stepping the f64 panel oracle and the f32 engine in lockstep.
struct PairRun {
    /// Worst per-node absolute trajectory divergence, °C.
    worst_temp_c: f64,
    /// Worst per-lane relative energy divergence.
    worst_energy_rel: f64,
    /// Per-interval maximum core temperature per lane, per engine
    /// (`[lane][interval]`), for decision-agreement checks.
    max_core_f64: Vec<Vec<f64>>,
    max_core_f32: Vec<Vec<f64>>,
}

/// Drives a [`PanelEngine`] (f64 oracle) and a [`MixedPanelEngine`] through
/// the same scripted scenario and measures their divergence.
fn run_pair(
    lanes: usize,
    intervals: usize,
    period_s: f64,
    ambient_c: f64,
    base_demand: Demand,
    seed: usize,
) -> PairRun {
    let spec = SocSpec::odroid_xu_e();
    let params: Vec<PlantPowerParams> = (0..lanes)
        .map(|lane| PlantPowerParams {
            leakage_mismatch: 0.95 + 0.03 * lane as f64,
            initial_temp_c: 40.0 + 2.0 * lane as f64 + (seed % 7) as f64,
            ..PlantPowerParams::default()
        })
        .collect();
    let mut oracle = PanelEngine::new(spec.clone(), &params);
    let mut mixed = MixedPanelEngine::new(spec.clone(), &params);

    let mut worst_temp_c = 0.0f64;
    let mut max_core_f64 = vec![Vec::with_capacity(intervals); lanes];
    let mut max_core_f32 = vec![Vec::with_capacity(intervals); lanes];
    let mut oracle_steps = Vec::new();
    let mut mixed_steps = Vec::new();
    let mut nodes_a = vec![0.0; oracle.node_count()];
    let mut nodes_b = vec![0.0; mixed.node_count()];
    for i in 0..intervals {
        let lane_inputs: Vec<(PlatformState, FanLevel, Demand)> = (0..lanes)
            .map(|lane| {
                let (state, fan) = lane_state(&spec, seed, lane, i);
                let demand = Demand {
                    cpu_streams: (base_demand.cpu_streams + 0.3 * lane as f64).min(4.0),
                    ..base_demand
                };
                (state, fan, demand)
            })
            .collect();
        let inputs: Vec<LaneInput<'_>> = lane_inputs
            .iter()
            .map(|(state, fan, demand)| LaneInput {
                state,
                demand,
                fan_level: *fan,
                ambient_c,
            })
            .collect();
        oracle
            .step_interval(&inputs, period_s, &mut oracle_steps)
            .unwrap();
        mixed
            .step_interval(&inputs, period_s, &mut mixed_steps)
            .unwrap();
        for lane in 0..lanes {
            let a = oracle_steps[lane].as_ref().expect("oracle lane steps");
            let b = mixed_steps[lane].as_ref().expect("mixed lane steps");
            assert_eq!(a.work_done, b.work_done, "work model must agree exactly");
            oracle.node_temps_into(lane, &mut nodes_a);
            mixed.node_temps_into(lane, &mut nodes_b);
            for (x, y) in nodes_a.iter().zip(&nodes_b) {
                worst_temp_c = worst_temp_c.max((x - y).abs());
            }
            let fold = |t: [f64; 4]| t.into_iter().fold(f64::NEG_INFINITY, f64::max);
            max_core_f64[lane].push(fold(a.core_temps_c));
            max_core_f32[lane].push(fold(b.core_temps_c));
        }
    }

    let mut worst_energy_rel = 0.0f64;
    for lane in 0..lanes {
        let a = oracle.energy_j(lane);
        let b = mixed.energy_j(lane);
        worst_energy_rel = worst_energy_rel.max((a - b).abs() / a.abs().max(1.0));
    }
    PairRun {
        worst_temp_c,
        worst_energy_rel,
        max_core_f64,
        max_core_f32,
    }
}

/// Nudges a candidate ladder threshold until no sample grazes it (within
/// 5e-3 °C — five precision budgets), so threshold-crossing decisions are
/// insensitive to sub-budget trajectory divergence. Thermal decisions in the
/// simulator sit on 0.1 °C-quantised sensor readings, far coarser than this.
fn clear_of_samples(samples: &[f64], mut candidate: f64) -> f64 {
    while samples.iter().any(|&s| (s - candidate).abs() < 5e-3) {
        candidate += 7.1e-3;
    }
    candidate
}

/// Runs one ladder over a max-core-temperature sequence and returns the rung
/// after every observation.
fn rung_sequence(config: LadderConfig, samples: &[f64]) -> Vec<platform_sim::SafetyState> {
    let mut ladder = SafetyLadder::new(config);
    let mut incidents = IncidentLog::default();
    samples
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            ladder.observe(i, i as f64 * 0.1, t, &mut incidents);
            ladder.state()
        })
        .collect()
}

proptest! {
    #[test]
    fn f32_engine_stays_inside_the_documented_budgets(
        lanes in 1usize..5,
        intervals in 40usize..240,
        period_index in 0usize..3,
        ambient_c in 20.0..36.0f64,
        cpu_streams in 0.5..4.0f64,
        activity in 0.4..1.0f64,
        gpu in 0.0..0.8f64,
        mem in 0.1..0.9f64,
        seed in 0usize..1000,
    ) {
        let period_s = [0.05, 0.1, 0.2][period_index];
        let demand = Demand {
            cpu_streams,
            activity_factor: activity,
            gpu_utilization: gpu,
            memory_intensity: mem,
            frequency_scalability: 0.9,
        };
        let run = run_pair(lanes, intervals, period_s, ambient_c, demand, seed);
        prop_assert!(
            run.worst_temp_c <= 1e-3,
            "trajectory divergence {:.3e} °C exceeds the budget \
             (lanes={lanes} intervals={intervals} period={period_s})",
            run.worst_temp_c
        );
        prop_assert!(
            run.worst_energy_rel <= 1e-4,
            "energy divergence {:.3e} exceeds the 0.01% budget",
            run.worst_energy_rel
        );

        // Constraint decisions built on the trajectories must agree exactly:
        // run a safety ladder over each engine's max core temperature with
        // trip points inside the observed range (placed clear of any sample
        // by 5e-3 °C, five budgets — real decisions quantise at 0.1 °C).
        for lane in 0..lanes {
            let samples = &run.max_core_f64[lane];
            let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let throttle_c = clear_of_samples(samples, lo + 0.45 * (hi - lo));
            let critical_c = clear_of_samples(samples, lo + 0.75 * (hi - lo)).max(throttle_c + 0.1);
            // The de-escalation release points (threshold − hysteresis) are
            // decision boundaries too: nudge the hysteresis until both sit
            // clear of every sample.
            let mut hysteresis_c = 0.3;
            while samples.iter().any(|&s| {
                (s - (throttle_c - hysteresis_c)).abs() < 5e-3
                    || (s - (critical_c - hysteresis_c)).abs() < 5e-3
            }) {
                hysteresis_c += 7.1e-3;
            }
            let config = LadderConfig {
                throttle_c,
                critical_c,
                shutdown_c: clear_of_samples(samples, hi + 5.0),
                hysteresis_c,
                min_dwell_intervals: 3,
                ..LadderConfig::default()
            };
            prop_assert_eq!(
                rung_sequence(config, samples),
                rung_sequence(config, &run.max_core_f32[lane]),
                "safety-ladder rung sequences diverged on lane {}",
                lane
            );
        }
    }
}

#[test]
fn f32_engine_holds_the_budget_over_a_paper_scale_run() {
    // 600 simulated seconds at the paper's 100 ms control period — the
    // full length of a Section 6.2 run — across a chunk-plus-remainder lane
    // count.
    let demand = Demand {
        cpu_streams: 3.5,
        activity_factor: 0.9,
        gpu_utilization: 0.4,
        memory_intensity: 0.5,
        frequency_scalability: 0.9,
    };
    let run = run_pair(9, 6000, 0.1, 28.0, demand, 1);
    assert!(
        run.worst_temp_c <= 1e-3,
        "paper-scale trajectory divergence {:.3e} °C exceeds the budget",
        run.worst_temp_c
    );
    assert!(
        run.worst_energy_rel <= 1e-4,
        "paper-scale energy divergence {:.3e} exceeds the 0.01% budget",
        run.worst_energy_rel
    );
}

fn calibration() -> &'static platform_sim::Calibration {
    static CALIBRATION: std::sync::OnceLock<platform_sim::Calibration> = std::sync::OnceLock::new();
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

#[test]
fn f64_default_precision_is_bit_identical() {
    // The default precision and the explicit F64 knob must run the very same
    // engine: results agree bit for bit.
    let mut config = ExperimentConfig::new(ExperimentKind::Dtpm, BenchmarkId::Dijkstra);
    config.max_duration_s = 20.0;
    assert_eq!(config.precision, EnginePrecision::F64);
    let default_run = Experiment::new(&config, calibration())
        .unwrap()
        .run()
        .unwrap();
    let explicit = config.clone().with_precision(EnginePrecision::F64);
    let explicit_run = Experiment::new(&explicit, calibration())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(default_run.energy_j, explicit_run.energy_j);
    assert_eq!(default_run.execution_time_s, explicit_run.execution_time_s);
    assert_eq!(
        default_run.mean_platform_power_w,
        explicit_run.mean_platform_power_w
    );
    assert_eq!(default_run.trace.len(), explicit_run.trace.len());
}

#[test]
fn f32_closed_loop_runs_track_f64_across_experiment_kinds() {
    // Full closed-loop runs (sensors, governors, policy feedback) under
    // every thermal-management kind: the f32 plant must complete the same
    // scenarios with near-identical outcomes. Decisions quantise sensor
    // readings at 0.1 °C, three orders above the trajectory budget, so the
    // discrete outcomes agree and energy stays within a loose closed-loop
    // bound.
    for kind in ExperimentKind::ALL {
        let mut config = ExperimentConfig::new(kind, BenchmarkId::Qsort).with_seed(17);
        config.max_duration_s = 30.0;
        let f64_run = Experiment::new(&config, calibration())
            .unwrap()
            .run()
            .unwrap();
        let f32_config = config.clone().with_precision(EnginePrecision::F32);
        let f32_run = Experiment::new(&f32_config, calibration())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(f64_run.completed, f32_run.completed, "kind {kind}");
        assert_eq!(
            f64_run.execution_time_s, f32_run.execution_time_s,
            "kind {kind}"
        );
        let rel = (f64_run.energy_j - f32_run.energy_j).abs() / f64_run.energy_j.abs().max(1.0);
        assert!(
            rel < 1e-3,
            "kind {kind}: closed-loop energy diverged by {rel:.3e}"
        );
    }
}

#[test]
fn shadow_precision_completes_and_matches_f32() {
    // F32Shadow steps the f64 twin alongside for validation: the published
    // run must be the f32 engine's (identical to plain F32), with the shadow
    // only observing.
    let mut config = ExperimentConfig::new(ExperimentKind::Reactive, BenchmarkId::Crc32);
    config.max_duration_s = 20.0;
    let f32_run = Experiment::new(
        &config.clone().with_precision(EnginePrecision::F32),
        calibration(),
    )
    .unwrap()
    .run()
    .unwrap();
    let shadow_run = Experiment::new(
        &config.with_precision(EnginePrecision::F32Shadow),
        calibration(),
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(f32_run.energy_j, shadow_run.energy_j);
    assert_eq!(f32_run.execution_time_s, shadow_run.execution_time_s);
    assert_eq!(
        f32_run.mean_platform_power_w,
        shadow_run.mean_platform_power_w
    );
}
