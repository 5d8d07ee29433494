//! Wall-clock benchmark for the lane-compacting sweep scheduler on a ragged
//! scenario mix.
//!
//! The workload is the static scheduler's worst case: tiles of one *long*
//! scenario packed with short ones (benchmark-major sweep order). Static
//! tiling — the pre-compaction `ScenarioSweep` behaviour, reproduced here as
//! one single-thread sweep per consecutive lane-group, each as wide as its
//! tile so the whole tile steps in lockstep — keeps
//! every tile alive until its long pole completes, stepping the finished
//! short lanes as frozen ballast the whole time. The compacting scheduler
//! retires finished lanes and admits queued scenarios into them, so the
//! engine's lanes stay filled with *live* work and the sweep's wall clock
//! approaches `total work / lanes` instead of `Σ per-tile longest`.
//!
//! Run with a single worker thread so the measured ratio is pure scheduling
//! efficiency (lane-intervals of ballast avoided), not thread-pool jitter.
//! The acceptance bar is ≥ 1.3× over static tiling, asserted as a floor in
//! the full (non `--test`) run; measured numbers land in
//! `BENCH_sweep_ragged.json`.

use std::time::{Duration, Instant};

use platform_sim::{
    Calibration, CalibrationCampaign, ExperimentConfig, ExperimentKind, ScenarioSweep, SimError,
    SimulationResult,
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
) -> Vec<Result<SimulationResult, SimError>> {
    let mut results = Vec::with_capacity(configs.len());
    for tile in configs.chunks(LANES) {
        let sweep = ScenarioSweep::new(tile.to_vec())
            .with_threads(1)
            .with_lanes(tile.len());
        results.extend(sweep.run(calibration));
    }
    results
}

/// Best-of-N wall clock (the minimum is the least-interference estimate on a
/// shared machine; the simulated trajectories are identical in every pass).
fn best_of<F: FnMut() -> Vec<Result<SimulationResult, SimError>>>(
    passes: usize,
    mut run: F,
) -> (Duration, Vec<Result<SimulationResult, SimError>>) {
    let mut best = Duration::MAX;
    let mut results = Vec::new();
    for _ in 0..passes {
        let start = Instant::now();
        let r = run();
        let elapsed = start.elapsed();
        if elapsed < best {
            best = elapsed;
        }
        results = r;
    }
    (best, results)
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (short_s, long_s) = if test_mode {
        (1.0, 4.0)
    } else {
        (SHORT_S, LONG_S)
    };
    let passes = if test_mode { 1 } else { 5 };

    let calibration = CalibrationCampaign {
        prbs_duration_s: 120.0,
        run_furnace: false,
        ..CalibrationCampaign::default()
    }
    .run(31)
    .expect("calibration campaign must succeed");
    let configs = ragged_configs(short_s, long_s);

    let (static_wall, static_results) = best_of(passes, || run_static(&configs, &calibration));
    let sweep = ScenarioSweep::new(configs.clone())
        .with_threads(1)
        .with_lanes(LANES);
    let (compact_wall, compact_results) = best_of(passes, || sweep.run(&calibration));

    // Cross-check the schedulers while we have them side by side: lane
    // recycling must be invisible in the results.
    assert_eq!(static_results.len(), compact_results.len());
    for (slot, (a, b)) in static_results.iter().zip(&compact_results).enumerate() {
        let a = a.as_ref().expect("static run succeeds");
        let b = b.as_ref().expect("compacting run succeeds");
        assert_eq!(a.config, b.config, "slot {slot} out of order");
        assert_eq!(
            a.execution_time_s, b.execution_time_s,
            "slot {slot} execution time diverged"
        );
        assert_eq!(a.trace.len(), b.trace.len(), "slot {slot} trace diverged");
        assert!(
            (a.energy_j - b.energy_j).abs() <= 1e-6 * a.energy_j.abs().max(1.0),
            "slot {slot} energy diverged: {} vs {}",
            a.energy_j,
            b.energy_j
        );
    }

    let static_ms = static_wall.as_secs_f64() * 1e3;
    let compact_ms = compact_wall.as_secs_f64() * 1e3;
    let speedup = static_ms / compact_ms;
    println!(
        "sweep_ragged/static_tiling_wall          {static_ms:>14.2} ms \
         ({TILES} tiles x {LANES} lanes)"
    );
    println!("sweep_ragged/compacting_wall             {compact_ms:>14.2} ms");
    println!(
        "sweep_ragged/speedup_vs_static           {speedup:>14.2}x \
         (acceptance floor: >= {SPEEDUP_FLOOR}x)"
    );

    if !test_mode {
        write_bench_json(static_ms, compact_ms, speedup);
        // Regression guard: asserted only on the full run — the --test smoke
        // run is too short to measure meaningfully.
        assert!(
            speedup >= SPEEDUP_FLOOR,
            "lane compaction regressed to {speedup:.2}x over static tiling \
             (floor: {SPEEDUP_FLOOR}x)"
        );
    }
}

/// Records the measured numbers for tracking (`BENCH_sweep_ragged.json`).
fn write_bench_json(static_ms: f64, compact_ms: f64, speedup: f64) {
    let json = format!(
        "{{\n  \"bench\": \"sweep_ragged\",\n  \"lanes\": {LANES},\n  \
         \"tiles\": {TILES},\n  \
         \"short_s\": {SHORT_S},\n  \
         \"long_s\": {LONG_S},\n  \
         \"static_tiling_wall_ms\": {static_ms:.2},\n  \
         \"compacting_wall_ms\": {compact_ms:.2},\n  \
         \"speedup_vs_static\": {speedup:.3},\n  \
         \"floor\": {SPEEDUP_FLOOR}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep_ragged.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("warning: could not write {path}: {e}");
    }
}
