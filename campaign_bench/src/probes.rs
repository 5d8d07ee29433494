//! Layer probes that call the hot per-interval functions directly: the
//! plant engines, the absorb chain (sensors, fault injection, health
//! screening, safety ladder, run observer) and the DTPM decision.
//!
//! Every probe times a whole loop and divides, so clock reads do not
//! dominate nanosecond-scale calls, and reports the median of
//! [`PROBE_REPS`] repetitions.

use std::hint::black_box;
use std::time::Instant;

use dtpm::{BatchPredictor, DtpmConfig, DtpmInputs, DtpmPolicy};
use platform_sim::plant::PlantStep;
use platform_sim::{
    Calibration, ExperimentConfig, ExperimentKind, FaultInjector, FaultPlan, HealthConfig,
    IncidentLog, LadderConfig, LaneInput, MixedPanelEngine, OnlineRunStats, PanelEngine,
    PlantEngine, RunObserver, SafetyLadder, ScalarEngine, SensorHealth, SensorReadings,
    SensorSuite, TraceRecord,
};
use soc_model::{FanLevel, PlatformState, SocSpec};
use workload::Demand;

use crate::trace::median;
use crate::workloads::{fault_plan, Grid, SHORT_DURATION_S};

/// Repetitions per probe; the median is reported.
const PROBE_REPS: usize = 5;
/// Lanes of the widest engine arm, and cells in each lane mix.
const MIX_CELLS: usize = 16;
/// Control intervals each engine arm steps per repetition.
const ENGINE_INTERVALS: usize = 600;
/// Control period, seconds.
const PERIOD_S: f64 = 0.1;
/// Absorb-chain cells per repetition, each one short cell long.
const ABSORB_CELLS: usize = 1600;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The `sweep_step` bench's busy demand: every lane runs flat out.
fn busy_demand() -> Demand {
    Demand {
        cpu_streams: 3.5,
        activity_factor: 0.9,
        gpu_utilization: 0.4,
        memory_intensity: 0.5,
        frequency_scalability: 0.9,
    }
}

/// The fan level a cell's kind runs its plant with in the probe.
fn fan_for(kind: ExperimentKind) -> FanLevel {
    match kind {
        ExperimentKind::DefaultWithFan => FanLevel::Base,
        _ => FanLevel::Off,
    }
}

/// The engine arms: (name, lanes).
const ARMS: [(&str, usize); 4] = [
    ("scalar-1", 1),
    ("panel-8", 8),
    ("panel-16", 16),
    ("mixed-16", 16),
];

/// Per-lane plant trajectories recorded by the engine probe: lane ×
/// interval.
pub type Trajectories = Vec<Vec<PlantStep>>;

/// Steps `engine` for [`ENGINE_INTERVALS`] intervals with `inputs`,
/// returning lane-major trajectories when `record` is set.
fn drive<E: PlantEngine>(engine: &mut E, inputs: &[LaneInput<'_>], record: bool) -> Trajectories {
    let mut trajectories = vec![Vec::new(); if record { inputs.len() } else { 0 }];
    let mut steps = Vec::with_capacity(inputs.len());
    for _ in 0..ENGINE_INTERVALS {
        engine
            .step_interval(black_box(inputs), PERIOD_S, &mut steps)
            .expect("lane inputs match the engine width");
        for (lane, step) in steps.iter().enumerate().take(trajectories.len()) {
            trajectories[lane].push(step.clone().expect("the probe's operating point is valid"));
        }
        black_box(&steps);
    }
    trajectories
}

/// `engine.<arm>.<mix>.ns_per_lane_interval` for both lane mixes: the first
/// [`MIX_CELLS`] cells of the paper grid (four ambients in every panel) and
/// of the short-cell grid (one shared ambient). Returns the 16-lane panel
/// trajectories of each mix, for the absorb and DTPM probes.
pub fn engine(seed: u64, metrics: &mut Vec<Metric>) -> (Trajectories, Trajectories) {
    let spec = SocSpec::odroid_xu_e();
    let state = PlatformState::default_for(&spec);
    let demand = busy_demand();
    let mut recorded = Vec::new();
    for (mix, grid) in [
        ("mixed_ambient", Grid::Paper),
        ("shared_ambient", Grid::Short),
    ] {
        let sweep = grid.spec(seed);
        let cells: Vec<ExperimentConfig> = (0..MIX_CELLS).map(|i| sweep.cell(i)).collect();
        let params: Vec<_> = cells.iter().map(|c| c.plant).collect();
        let inputs: Vec<LaneInput<'_>> = cells
            .iter()
            .map(|c| LaneInput {
                state: &state,
                demand: &demand,
                fan_level: fan_for(c.kind),
                ambient_c: c.ambient_c,
            })
            .collect();
        for (arm, lanes) in ARMS {
            let mut samples = Vec::with_capacity(PROBE_REPS);
            for _ in 0..PROBE_REPS {
                let start = Instant::now();
                let lane_intervals = match arm {
                    "scalar-1" => {
                        // One single-lane engine per cell, as the default
                        // runner steps them.
                        for (param, input) in params.iter().zip(&inputs) {
                            let mut engine = ScalarEngine::new(spec.clone(), &[*param]);
                            drive(&mut engine, std::slice::from_ref(input), false);
                        }
                        MIX_CELLS * ENGINE_INTERVALS
                    }
                    "mixed-16" => {
                        let mut engine = MixedPanelEngine::new(spec.clone(), &params[..lanes]);
                        drive(&mut engine, &inputs[..lanes], false);
                        lanes * ENGINE_INTERVALS
                    }
                    _ => {
                        let mut engine = PanelEngine::new(spec.clone(), &params[..lanes]);
                        drive(&mut engine, &inputs[..lanes], false);
                        lanes * ENGINE_INTERVALS
                    }
                };
                samples.push(start.elapsed().as_nanos() as f64 / lane_intervals as f64);
            }
            metrics.push(Metric::new(
                format!("engine.{arm}.{mix}.ns_per_lane_interval"),
                median(&samples),
                "ns",
            ));
        }
        // The absorb and DTPM probes replay these, recorded untimed.
        let mut engine = PanelEngine::new(spec.clone(), &params);
        recorded.push(drive(&mut engine, &inputs, true));
    }
    let shared = recorded.pop().expect("two mixes");
    let mixed = recorded.pop().expect("two mixes");
    (mixed, shared)
}

/// Intervals in one short cell.
fn cell_intervals() -> usize {
    (SHORT_DURATION_S / PERIOD_S).round() as usize
}

/// `absorb.<stage>_ns.<health>`: per-interval cost of each absorb stage,
/// over [`ABSORB_CELLS`] short cells cut from `trajectories`, without faults
/// (`healthy`) and under the short-cell grid's fault plan (`faulted`).
///
/// Returns the sensor-fault episodes the faulted chain logged, so the caller
/// can check the plan injected something.
pub fn absorb(
    seed: u64,
    healthy: &Trajectories,
    faulted: &Trajectories,
    metrics: &mut Vec<Metric>,
) -> usize {
    let plan = fault_plan(seed);
    let mut faults_logged = 0;
    for (health, trajectories, plan) in [
        ("healthy", healthy, None),
        ("faulted", faulted, Some(&plan)),
    ] {
        let mut samples: [Vec<f64>; 5] = Default::default();
        for rep in 0..PROBE_REPS {
            let (ns, faults) = absorb_once(seed, rep, trajectories, plan);
            for (stage, value) in samples.iter_mut().zip(ns) {
                stage.push(value);
            }
            faults_logged = faults_logged.max(faults);
        }
        for (stage, values) in ["sample", "fault_apply", "screen", "ladder", "observer"]
            .iter()
            .zip(&samples)
        {
            metrics.push(Metric::new(
                format!("absorb.{stage}_ns.{health}"),
                median(values),
                "ns",
            ));
        }
    }
    faults_logged
}

/// One repetition of the absorb probe: each stage runs over every interval
/// of every cell, in the control loop's order, and is timed as a whole.
fn absorb_once(
    seed: u64,
    rep: usize,
    trajectories: &Trajectories,
    plan: Option<&FaultPlan>,
) -> ([f64; 5], usize) {
    let intervals = cell_intervals();
    let windows = trajectories[0].len() / intervals;
    // Cell c replays lane c % lanes over one cell-length window of its
    // trajectory, so cells cover the whole warm-up.
    let cells: Vec<&[PlantStep]> = (0..ABSORB_CELLS)
        .map(|c| {
            let lane = &trajectories[c % trajectories.len()];
            let window = (c / trajectories.len()) % windows;
            &lane[window * intervals..(window + 1) * intervals]
        })
        .collect();
    let calls = (ABSORB_CELLS * intervals) as f64;
    let time_of = |interval: usize| interval as f64 * PERIOD_S;
    let mut ns = [0.0; 5];

    let mut sensors: Vec<SensorSuite> = (0..ABSORB_CELLS)
        .map(|c| SensorSuite::odroid_defaults(seed ^ (rep * ABSORB_CELLS + c) as u64))
        .collect();
    let mut sampled: Vec<SensorReadings> = Vec::with_capacity(ABSORB_CELLS * intervals);
    let start = Instant::now();
    for (steps, suite) in cells.iter().zip(&mut sensors) {
        for step in *steps {
            sampled.push(suite.sample(
                step.core_temps_c,
                &step.domain_power,
                step.platform_power_w,
            ));
        }
    }
    ns[0] = start.elapsed().as_nanos() as f64 / calls;

    let mut injectors: Vec<Option<FaultInjector>> = (0..ABSORB_CELLS)
        .map(|_| plan.cloned().map(FaultInjector::new))
        .collect();
    let mut injected: Vec<SensorReadings> = Vec::with_capacity(sampled.len());
    let start = Instant::now();
    for (readings, injector) in sampled.chunks(intervals).zip(&mut injectors) {
        for (i, reading) in readings.iter().enumerate() {
            injected.push(match injector.as_mut() {
                Some(injector) => injector.apply(i + 1, time_of(i + 1), *reading),
                None => *reading,
            });
        }
    }
    ns[1] = start.elapsed().as_nanos() as f64 / calls;

    let mut monitors: Vec<SensorHealth> = (0..ABSORB_CELLS)
        .map(|_| SensorHealth::new(HealthConfig::default()))
        .collect();
    let mut logs: Vec<IncidentLog> = vec![IncidentLog::default(); ABSORB_CELLS];
    let mut screened: Vec<SensorReadings> = Vec::with_capacity(sampled.len());
    let start = Instant::now();
    for ((readings, monitor), log) in injected.chunks(intervals).zip(&mut monitors).zip(&mut logs) {
        for (i, reading) in readings.iter().enumerate() {
            screened.push(monitor.screen(i + 1, time_of(i + 1), *reading, log));
        }
    }
    ns[2] = start.elapsed().as_nanos() as f64 / calls;

    let mut ladders: Vec<SafetyLadder> = (0..ABSORB_CELLS)
        .map(|_| SafetyLadder::new(LadderConfig::default()))
        .collect();
    let start = Instant::now();
    for ((readings, ladder), log) in screened.chunks(intervals).zip(&mut ladders).zip(&mut logs) {
        for (i, reading) in readings.iter().enumerate() {
            ladder.observe(i + 1, time_of(i + 1), reading.max_core_temp_c(), log);
        }
    }
    ns[3] = start.elapsed().as_nanos() as f64 / calls;

    let state = PlatformState::default_for(&SocSpec::odroid_xu_e());
    let records: Vec<TraceRecord> = screened
        .iter()
        .enumerate()
        .map(|(k, reading)| TraceRecord {
            time_s: time_of(k % intervals + 1),
            core_temps_c: reading.core_temps_c,
            active_cluster: state.active_cluster,
            frequency_mhz: state.active_frequency().mhz(),
            online_cores: state.active_online_core_count(),
            gpu_frequency_mhz: state.gpu_frequency.mhz(),
            fan_level: FanLevel::Off,
            domain_power: reading.domain_power,
            platform_power_w: reading.platform_power_w,
            progress: (k % intervals) as f64 / intervals as f64,
            predicted_peak_c: None,
            dtpm_intervened: false,
        })
        .collect();
    let mut observers: Vec<OnlineRunStats> =
        (0..ABSORB_CELLS).map(|_| OnlineRunStats::new()).collect();
    let start = Instant::now();
    for (records, observer) in records.chunks(intervals).zip(&mut observers) {
        for record in records {
            observer.on_interval(record);
        }
    }
    ns[4] = start.elapsed().as_nanos() as f64 / calls;
    black_box(&observers);

    let faults = logs.iter().map(IncidentLog::sensor_faults).sum();
    (ns, faults)
}

/// `dtpm.decide_ns` (one `DtpmPolicy::decide` with the calibration's model)
/// and `dtpm.batch_classify_ns_per_lane` (an 8-lane `BatchPredictor`
/// classification), over every recorded plant step.
pub fn dtpm(calibration: &Calibration, trajectories: &Trajectories, metrics: &mut Vec<Metric>) {
    const BATCH_LANES: usize = 8;
    let spec = SocSpec::odroid_xu_e();
    let config = DtpmConfig::default();
    let policy = DtpmPolicy::new(config, calibration.predictor.clone())
        .expect("the default DTPM configuration is valid");
    let steps: Vec<&PlantStep> = trajectories.iter().flatten().collect();
    let inputs: Vec<DtpmInputs<'_>> = steps
        .iter()
        .map(|step| DtpmInputs {
            spec: &spec,
            proposed: PlatformState::default_for(&spec),
            core_temps_c: step.core_temps_c,
            measured_power: step.domain_power,
        })
        .collect();

    let mut decide = Vec::with_capacity(PROBE_REPS);
    let mut classify = Vec::with_capacity(PROBE_REPS);
    for _ in 0..PROBE_REPS {
        let start = Instant::now();
        for input in &inputs {
            black_box(
                policy
                    .decide(black_box(input), &calibration.power_model)
                    .expect("recorded operating points are valid"),
            );
        }
        decide.push(start.elapsed().as_nanos() as f64 / inputs.len() as f64);

        let mut batch = BatchPredictor::for_predictor(
            &calibration.predictor,
            config.prediction_horizon_steps,
            BATCH_LANES,
        )
        .expect("the calibrated predictor has the hotspot shape");
        let groups = steps.len() / BATCH_LANES;
        let start = Instant::now();
        for group in steps.chunks_exact(BATCH_LANES) {
            for (lane, step) in group.iter().enumerate() {
                batch.set_lane(lane, step.core_temps_c, &step.domain_power);
            }
            batch.predict();
            for lane in 0..BATCH_LANES {
                black_box(batch.peak_c(lane));
            }
        }
        classify.push(start.elapsed().as_nanos() as f64 / (groups * BATCH_LANES) as f64);
    }
    metrics.push(Metric::new("dtpm.decide_ns", median(&decide), "ns"));
    metrics.push(Metric::new(
        "dtpm.batch_classify_ns_per_lane",
        median(&classify),
        "ns",
    ));
}
