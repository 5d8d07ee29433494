//! Equivalence proofs for the optimized simulation hot paths.
//!
//! The zero-allocation engine ([`PhysicalPlant`]) must reproduce the
//! trajectories of the naive baseline ([`NaivePhysicalPlant`] in
//! `tests/naive`, the original allocation-heavy loop), the
//! structure-of-arrays batch engine ([`PanelEngine`]) must reproduce the
//! scalar plant lane by lane, and the parallel scenario sweep must reproduce
//! sequential execution exactly.
//!
//! The plant comparisons allow for floating-point *reassociation* only: the
//! optimized engines advance the linear thermal ODE with the precomputed
//! affine form of the RK4 step and hoist interval-constant arithmetic, which
//! reorders mathematically-identical operations (the batch engine
//! additionally evaluates leakage with an anchored exponential accurate to a
//! few ulps). Over tens of thousands of micro-steps the divergence stays far
//! below a nano-kelvin per the batched bars here — physically the same
//! trajectory (sensor quantisation alone is 0.1 °C).

mod naive;

use naive::NaivePhysicalPlant;
use platform_sim::{
    CalibrationCampaign, Experiment, ExperimentConfig, ExperimentKind, LaneInput, PanelEngine,
    PhysicalPlant, PlantEngine, PlantPowerParams, ScenarioSweep,
};
use proptest::prelude::*;
use soc_model::{ClusterKind, FanLevel, Frequency, PlatformState, SocSpec};
use workload::{BenchmarkId, Demand};

fn demand_phase(i: usize) -> Demand {
    match i % 3 {
        0 => Demand {
            cpu_streams: 4.0,
            activity_factor: 0.95,
            gpu_utilization: 0.0,
            memory_intensity: 0.5,
            frequency_scalability: 1.0,
        },
        1 => Demand {
            cpu_streams: 1.5,
            activity_factor: 0.5,
            gpu_utilization: 0.7,
            memory_intensity: 0.3,
            frequency_scalability: 0.8,
        },
        _ => Demand {
            cpu_streams: 2.5,
            activity_factor: 0.75,
            gpu_utilization: 0.2,
            memory_intensity: 0.8,
            frequency_scalability: 0.9,
        },
    }
}

fn fan_phase(i: usize) -> FanLevel {
    match (i / 50) % 4 {
        0 => FanLevel::Off,
        1 => FanLevel::Base,
        2 => FanLevel::Half,
        _ => FanLevel::Full,
    }
}

#[test]
fn optimized_plant_tracks_naive_baseline_trajectories() {
    let spec = SocSpec::odroid_xu_e();
    let mut optimized = PhysicalPlant::new(spec.clone(), PlantPowerParams::default());
    let mut naive = NaivePhysicalPlant::new(spec.clone(), PlantPowerParams::default());

    let mut state = PlatformState::default_for(&spec);
    let mut worst_temp = 0.0f64;
    let mut worst_power = 0.0f64;
    for i in 0..3000 {
        // Exercise every actuation path: fan steps, frequency changes, core
        // shutdown phases and a little-cluster migration phase.
        if i == 800 {
            state.set_core_online(ClusterKind::Big, 2, false);
        }
        if i == 1200 {
            state.set_core_online(ClusterKind::Big, 2, true);
            state.set_cluster_frequency(ClusterKind::Big, Frequency::from_mhz(1000));
        }
        if i == 1800 {
            state.migrate_to_cluster(ClusterKind::Little, Frequency::from_mhz(1200));
        }
        if i == 2300 {
            state.migrate_to_cluster(ClusterKind::Big, Frequency::from_mhz(1600));
        }
        let demand = demand_phase(i);
        let fan = fan_phase(i);

        let fast = optimized
            .step_interval(&state, &demand, fan, 28.0, 0.1)
            .unwrap();
        let slow = naive
            .step_interval(&state, &demand, fan, 28.0, 0.1)
            .unwrap();

        for (a, b) in optimized
            .node_temps_c()
            .iter()
            .zip(naive.node_temps_c().iter())
        {
            worst_temp = worst_temp.max((a - b).abs());
        }
        worst_power = worst_power.max((fast.platform_power_w - slow.platform_power_w).abs());
        assert_eq!(
            fast.work_done, slow.work_done,
            "work model must agree exactly"
        );
    }

    // 30 000 micro-steps of reassociated-but-identical arithmetic: the
    // engines must agree far below any physically meaningful scale.
    assert!(
        worst_temp < 1e-6,
        "trajectories diverged: max |dT| = {worst_temp} degC"
    );
    assert!(
        worst_power < 1e-6,
        "power outputs diverged: max |dP| = {worst_power} W"
    );
}

#[test]
fn scenario_sweep_matches_sequential_runs() {
    let campaign = CalibrationCampaign {
        prbs_duration_s: 120.0,
        run_furnace: false,
        ..CalibrationCampaign::default()
    };
    let calibration = campaign.run(11).unwrap();

    let configs: Vec<ExperimentConfig> = [
        (ExperimentKind::Dtpm, BenchmarkId::Dijkstra, 1),
        (ExperimentKind::DefaultWithFan, BenchmarkId::Blowfish, 2),
        (ExperimentKind::Reactive, BenchmarkId::MatrixMult, 3),
        (ExperimentKind::WithoutFan, BenchmarkId::Qsort, 4),
        (ExperimentKind::Dtpm, BenchmarkId::Templerun, 5),
    ]
    .into_iter()
    .map(|(kind, benchmark, seed)| {
        let mut config = ExperimentConfig::new(kind, benchmark).with_seed(seed);
        config.max_duration_s = 20.0;
        config
    })
    .collect();

    let sweep = ScenarioSweep::new(configs.clone()).with_threads(4);
    assert!(sweep.threads() >= 1);
    assert_eq!(sweep.configs().len(), configs.len());
    let parallel = sweep.run(&calibration);

    for (config, result) in configs.iter().zip(parallel) {
        let sequential = Experiment::new(config, &calibration)
            .unwrap()
            .run()
            .unwrap()
            .summary;
        let result = result.expect("sweep run must succeed").summary;
        // Bit-exact determinism: the sweep runs the very same simulation.
        assert_eq!(result.config, sequential.config);
        assert_eq!(result.execution_time_s, sequential.execution_time_s);
        assert_eq!(result.energy_j, sequential.energy_j);
        assert_eq!(
            result.mean_platform_power_w,
            sequential.mean_platform_power_w
        );
        assert_eq!(result.intervals, sequential.intervals);
    }
}

/// Per-lane platform state driven through frequency, hotplug, migration and
/// fan phases, offset per lane so the lanes genuinely diverge.
fn lane_state(spec: &SocSpec, lane: usize, i: usize) -> (PlatformState, FanLevel) {
    let mut state = PlatformState::default_for(spec);
    let phase = (i + lane * 37) % 400;
    if (100..180).contains(&phase) {
        state.set_core_online(ClusterKind::Big, 2, false);
    }
    if (180..260).contains(&phase) {
        state.set_cluster_frequency(ClusterKind::Big, Frequency::from_mhz(1000));
    }
    if (260..330).contains(&phase) {
        state.migrate_to_cluster(ClusterKind::Little, Frequency::from_mhz(1200));
    }
    let fan = match (i / 60 + lane) % 4 {
        0 => FanLevel::Off,
        1 => FanLevel::Base,
        2 => FanLevel::Half,
        _ => FanLevel::Full,
    };
    (state, fan)
}

#[test]
fn batch_plant_matches_scalar_trajectories_for_mixed_lane_counts() {
    // Lane counts covering the scalar case, a partial chunk, a full 8-lane
    // chunk and a chunk-plus-remainder; every lane follows its own actuation
    // schedule (including diverging fan levels, which run one panel pass per
    // fan transition in use).
    let spec = SocSpec::odroid_xu_e();
    for lanes in [1usize, 3, 8, 11] {
        let params: Vec<PlantPowerParams> = (0..lanes)
            .map(|lane| PlantPowerParams {
                leakage_mismatch: 1.0 + 0.02 * lane as f64,
                initial_temp_c: 45.0 + lane as f64,
                ..PlantPowerParams::default()
            })
            .collect();
        let mut batch = PanelEngine::new(spec.clone(), &params);
        let mut scalars: Vec<PhysicalPlant> = params
            .iter()
            .map(|p| PhysicalPlant::new(spec.clone(), *p))
            .collect();

        let mut batch_steps = Vec::new();
        for i in 0..800 {
            let lane_inputs: Vec<(PlatformState, FanLevel, Demand)> = (0..lanes)
                .map(|lane| {
                    let (state, fan) = lane_state(&spec, lane, i);
                    (state, fan, demand_phase(i + lane))
                })
                .collect();
            let inputs: Vec<LaneInput<'_>> = lane_inputs
                .iter()
                .map(|(state, fan, demand)| LaneInput {
                    state,
                    demand,
                    fan_level: *fan,
                    ambient_c: 28.0,
                })
                .collect();
            batch.step_interval(&inputs, 0.1, &mut batch_steps).unwrap();
            for (lane, ((state, fan, demand), batch_step)) in
                lane_inputs.iter().zip(batch_steps.drain(..)).enumerate()
            {
                let scalar_step = scalars[lane]
                    .step_interval(state, demand, *fan, 28.0, 0.1)
                    .unwrap();
                let batch_step = batch_step.expect("lane step succeeds");
                assert_eq!(
                    batch_step.work_done, scalar_step.work_done,
                    "work model must agree exactly (lanes={lanes} lane={lane})"
                );
                assert!(
                    (batch_step.platform_power_w - scalar_step.platform_power_w).abs() < 1e-9,
                    "power diverged at lanes={lanes} lane={lane} interval {i}"
                );
            }
        }

        let mut batch_temps = vec![0.0; batch.node_count()];
        for (lane, scalar) in scalars.iter().enumerate() {
            batch.node_temps_into(lane, &mut batch_temps);
            for (node, (a, b)) in batch_temps
                .iter()
                .zip(scalar.node_temps_c().iter())
                .enumerate()
            {
                assert!(
                    (a - b).abs() < 1e-9,
                    "lanes={lanes} lane={lane} node={node}: batched {a} vs scalar {b}"
                );
            }
        }
    }
}

#[test]
fn lockstep_runner_matches_scalar_experiments() {
    let campaign = CalibrationCampaign {
        prbs_duration_s: 120.0,
        run_furnace: false,
        ..CalibrationCampaign::default()
    };
    let calibration = campaign.run(19).unwrap();

    let configs: Vec<ExperimentConfig> = [
        (ExperimentKind::Dtpm, BenchmarkId::Dijkstra, 21),
        (ExperimentKind::DefaultWithFan, BenchmarkId::Blowfish, 22),
        (ExperimentKind::WithoutFan, BenchmarkId::Qsort, 23),
        (ExperimentKind::Reactive, BenchmarkId::Templerun, 24),
    ]
    .into_iter()
    .map(|(kind, benchmark, seed)| {
        let mut config = ExperimentConfig::new(kind, benchmark).with_seed(seed);
        config.max_duration_s = 15.0;
        config
    })
    .collect();

    // One thread and one lane per configuration: every scenario is claimed
    // into a single panel engine up front and the group steps in lockstep.
    let lockstep = ScenarioSweep::new(configs.clone())
        .with_threads(1)
        .with_lanes(configs.len())
        .run(&calibration);
    assert_eq!(lockstep.len(), configs.len());
    for (config, result) in configs.iter().zip(lockstep) {
        let result = result.expect("lockstep run must succeed").summary;
        let sequential = Experiment::new(config, &calibration)
            .unwrap()
            .run()
            .unwrap()
            .summary;
        // The control loops are identical state machines; only the plant
        // integration is batched (reassociated leakage at ~1e-13 °C), so the
        // discrete outcomes must agree exactly and the continuous ones to
        // far below sensor resolution.
        assert_eq!(result.config, sequential.config);
        assert_eq!(result.execution_time_s, sequential.execution_time_s);
        assert_eq!(result.completed, sequential.completed);
        assert_eq!(result.intervals, sequential.intervals);
        assert!(
            (result.energy_j - sequential.energy_j).abs()
                <= 1e-6 * sequential.energy_j.abs().max(1.0),
            "energy diverged: {} vs {}",
            result.energy_j,
            sequential.energy_j
        );
        assert!(
            (result.mean_platform_power_w - sequential.mean_platform_power_w).abs() < 1e-6,
            "mean power diverged: {} vs {}",
            result.mean_platform_power_w,
            sequential.mean_platform_power_w
        );
    }
}

fn sweep_calibration() -> &'static platform_sim::Calibration {
    static CALIBRATION: std::sync::OnceLock<platform_sim::Calibration> = std::sync::OnceLock::new();
    CALIBRATION.get_or_init(|| {
        CalibrationCampaign {
            prbs_duration_s: 120.0,
            run_furnace: false,
            ..CalibrationCampaign::default()
        }
        .run(13)
        .expect("calibration campaign must succeed")
    })
}

proptest! {
    #[test]
    fn sweep_returns_results_in_input_order_for_any_thread_and_lane_count(
        threads in 1usize..5,
        lanes in 1usize..6,
        count in 1usize..9,
    ) {
        let calibration = sweep_calibration();
        let kinds = [
            ExperimentKind::WithoutFan,
            ExperimentKind::DefaultWithFan,
            ExperimentKind::Reactive,
            ExperimentKind::Dtpm,
        ];
        let benchmarks = [BenchmarkId::Crc32, BenchmarkId::Qsort, BenchmarkId::Dijkstra];
        let configs: Vec<ExperimentConfig> = (0..count)
            .map(|i| {
                let mut config = ExperimentConfig::new(
                    kinds[i % kinds.len()],
                    benchmarks[i % benchmarks.len()],
                )
                .with_seed(100 + i as u64);
                config.max_duration_s = 2.0;
                config
            })
            .collect();
        let results = ScenarioSweep::new(configs.clone())
            .with_threads(threads)
            .with_lanes(lanes)
            .run(calibration);
        prop_assert_eq!(results.len(), configs.len());
        for (config, result) in configs.iter().zip(&results) {
            let result = result.as_ref().expect("sweep run must succeed");
            // Seeds are unique per input slot, so config equality pins order.
            prop_assert_eq!(&result.summary.config, config);
        }
    }
}

#[test]
fn sweep_handles_empty_and_single_configuration() {
    let campaign = CalibrationCampaign {
        prbs_duration_s: 120.0,
        run_furnace: false,
        ..CalibrationCampaign::default()
    };
    let calibration = campaign.run(3).unwrap();

    assert!(ScenarioSweep::new(Vec::new()).run(&calibration).is_empty());

    let mut config = ExperimentConfig::new(ExperimentKind::Dtpm, BenchmarkId::Crc32);
    config.max_duration_s = 10.0;
    let results = ScenarioSweep::new(vec![config]).run(&calibration);
    assert_eq!(results.len(), 1);
    assert!(results[0].is_ok());
}
