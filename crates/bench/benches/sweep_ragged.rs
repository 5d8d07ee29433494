//! Microbench of the lane-compacting sweep scheduler on a ragged scenario
//! mix.
//!
//! The workload is the static scheduler's worst case: tiles of one *long*
//! scenario packed with short ones (benchmark-major sweep order). Static
//! tiling — the pre-compaction `ScenarioSweep` behaviour, reproduced here as
//! one single-thread sweep per consecutive lane-group, each as wide as its
//! tile so the whole tile steps in lockstep — keeps every tile alive until
//! its long pole completes, stepping the finished short lanes as frozen
//! ballast the whole time. The compacting scheduler retires finished lanes
//! and admits queued scenarios into them, so the engine's lanes stay filled
//! with *live* work and the sweep's wall clock approaches
//! `total work / lanes` instead of `Σ per-tile longest`.
//!
//! Both arms run on one worker thread, so the ratio is pure scheduling
//! efficiency (lane-intervals of ballast avoided), not thread-pool jitter.
//! The claim is the compacting speed-up over static tiling, at least
//! [`SPEEDUP_FLOOR`]; the two arms' results are cross-checked slot by slot.
//! Results land in `BENCH_sweep_ragged.json`.

use bench::microbench::{Bound, Microbench};
use platform_sim::{
    Calibration, CalibrationCampaign, ExperimentConfig, ExperimentKind, RunReport, ScenarioSweep,
    SimError,
};
use workload::BenchmarkId;

/// Lanes per engine (batch width) for both schedulers.
const LANES: usize = 4;
/// Number of [1 long + (LANES-1) short] tiles in the mix.
const TILES: usize = 4;
/// Simulated duration of a short scenario in the full run, seconds.
const SHORT_S: f64 = 4.0;
/// Simulated duration of a long scenario in the full run, seconds.
const LONG_S: f64 = 40.0;
/// Pairs timed in a full run.
const PAIRS: usize = 21;
/// Acceptance floor: compacting over static tiling on this mix.
const SPEEDUP_FLOOR: f64 = 1.3;

/// The ragged mix: every `LANES`-th scenario is long, so each static tile of
/// consecutive scenarios carries exactly one long pole.
fn ragged_configs(short_s: f64, long_s: f64) -> Vec<ExperimentConfig> {
    (0..TILES * LANES)
        .map(|i| {
            let mut config =
                ExperimentConfig::new(ExperimentKind::WithoutFan, BenchmarkId::MatrixMult)
                    .with_seed(900 + i as u64);
            config.max_duration_s = if i % LANES == 0 { long_s } else { short_s };
            config
        })
        .collect()
}

/// The pre-compaction scheduler: consecutive static tiles of `LANES`
/// scenarios, each batch alive until its slowest member completes.
fn run_static(
    configs: &[ExperimentConfig],
    calibration: &Calibration,
) -> Vec<Result<RunReport, SimError>> {
    let mut results = Vec::with_capacity(configs.len());
    for tile in configs.chunks(LANES) {
        let sweep = ScenarioSweep::new(tile.to_vec())
            .with_threads(1)
            .with_lanes(tile.len());
        results.extend(sweep.run(calibration));
    }
    results
}

fn main() {
    let mut bench = Microbench::from_args("sweep_ragged", PAIRS);
    let (short_s, long_s) = if bench.test_mode() {
        (1.0, 4.0)
    } else {
        (SHORT_S, LONG_S)
    };
    bench.config("lanes", LANES);
    bench.config("tiles", TILES);
    bench.config("short_s", short_s);
    bench.config("long_s", long_s);

    let calibration = CalibrationCampaign {
        prbs_duration_s: 120.0,
        run_furnace: false,
        ..CalibrationCampaign::default()
    }
    .run(31)
    .expect("calibration campaign must succeed");
    let configs = ragged_configs(short_s, long_s);
    let sweep = ScenarioSweep::new(configs.clone())
        .with_threads(1)
        .with_lanes(LANES);

    let mut static_results = Vec::new();
    let mut compact_results = Vec::new();
    bench.paired(
        "speedup_vs_static",
        Some(Bound::Floor(SPEEDUP_FLOOR)),
        ["static_tiling", "compacting"],
        |t| static_results = t.time(|| run_static(&configs, &calibration)),
        |t| compact_results = t.time(|| sweep.run(&calibration)),
    );

    // Lane recycling must be invisible in the results.
    assert_eq!(static_results.len(), compact_results.len());
    for (slot, (a, b)) in static_results.iter().zip(&compact_results).enumerate() {
        let a = &a.as_ref().expect("static run succeeds").summary;
        let b = &b.as_ref().expect("compacting run succeeds").summary;
        assert_eq!(a.config, b.config, "slot {slot} out of order");
        assert_eq!(
            a.execution_time_s, b.execution_time_s,
            "slot {slot} execution time diverged"
        );
        assert_eq!(
            a.intervals, b.intervals,
            "slot {slot} interval count diverged"
        );
        assert!(
            (a.energy_j - b.energy_j).abs() <= 1e-6 * a.energy_j.abs().max(1.0),
            "slot {slot} energy diverged: {} vs {}",
            a.energy_j,
            b.energy_j
        );
    }
    bench.finish();
}
