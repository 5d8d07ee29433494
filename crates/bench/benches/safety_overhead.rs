//! Wall-clock overhead of the armed safety stack on the fault-free hot path.
//!
//! The safety ladder and sensor-health monitor run inside every control
//! interval of every lane — screening nine channels, updating staleness
//! bookkeeping, and comparing the hot-spot temperature against the ladder
//! rungs. Their contract is that a healthy run pays (almost) nothing for
//! them: the trajectories are bit-identical with the stack disabled, and the
//! wall-clock cost must stay under 2 % of the sweep.
//!
//! Both arms run the same lockstep DTPM sweep through the real executor
//! (one thread, one panel engine as wide as the sweep: batched plant,
//! per-lane decide), differing only in the safety configuration:
//! **disabled** (pre-robustness hot path) vs **armed** (the default ladder +
//! health monitor). The claim is the armed-over-disabled wall-clock ratio,
//! at most 1 + [`OVERHEAD_CEILING_PCT`] / 100, from many short alternating
//! pairs; the trajectories are cross-checked bit-identical first. Results
//! land in `BENCH_safety_overhead.json`.

use bench::microbench::{Bound, Microbench};
use platform_sim::{
    CalibrationCampaign, ExperimentConfig, ExperimentKind, SafetyConfig, ScenarioSweep,
};
use workload::BenchmarkId;

/// Scenario lanes advanced per instruction stream (the sweep batch width).
const LANES: usize = 8;
/// Control period, seconds (10 ms: ten times the paper's rate, so each timed
/// sweep spans thousands of intervals and timer noise stays well below the
/// overhead being measured).
const CONTROL_PERIOD_S: f64 = 0.01;
/// Simulated seconds per sweep in a full run.
const DURATION_S: f64 = 8.0;
/// Pairs timed in a full run: each sweep takes milliseconds, and the
/// ceiling is far below the spread of a single pair.
const PAIRS: usize = 61;
/// Acceptance ceiling: armed-over-disabled wall-clock overhead, percent.
const OVERHEAD_CEILING_PCT: f64 = 2.0;

/// The lockstep sweep of one arm: every scenario in one `LANES`-wide engine.
fn sweep(safety: SafetyConfig, duration_s: f64) -> ScenarioSweep {
    let configs = (0..LANES)
        .map(|i| {
            let mut config = ExperimentConfig::new(ExperimentKind::Dtpm, BenchmarkId::MatrixMult)
                .with_seed(4_400 + i as u64)
                .with_safety(safety);
            config.control_period_s = CONTROL_PERIOD_S;
            config.max_duration_s = duration_s;
            config
        })
        .collect();
    ScenarioSweep::new(configs)
        .with_threads(1)
        .with_lanes(LANES)
}

fn main() {
    let mut bench = Microbench::from_args("safety_overhead", PAIRS);
    let duration_s = if bench.test_mode() { 0.5 } else { DURATION_S };
    bench.config("lanes", LANES);
    bench.config("control_period_s", CONTROL_PERIOD_S);
    bench.config("max_duration_s", duration_s);

    let calibration = CalibrationCampaign {
        prbs_duration_s: 120.0,
        run_furnace: false,
        ..CalibrationCampaign::default()
    }
    .run(37)
    .expect("calibration campaign must succeed");

    let disabled = sweep(SafetyConfig::disabled(), duration_s);
    let armed = sweep(SafetyConfig::default(), duration_s);

    // Cross-check once, outside the timed loops: the armed stack must be
    // invisible on this fault-free sweep — bit-identical trajectories, no
    // incidents. A bench that got faster by perturbing the numbers would be
    // measuring the wrong thing.
    let disabled_results = disabled.run(&calibration);
    let armed_results = armed.run(&calibration);
    let mut intervals = 0usize;
    for (lane, (armed, disabled)) in armed_results.iter().zip(&disabled_results).enumerate() {
        let armed = armed.as_ref().expect("armed lane succeeds");
        let disabled = disabled.as_ref().expect("disabled lane succeeds");
        assert_eq!(
            armed.trace, disabled.trace,
            "lane {lane}: armed safety must be bit-identical on healthy runs"
        );
        intervals += armed.summary.intervals;
    }
    bench.config("intervals", intervals);

    bench.paired(
        "overhead",
        Some(Bound::Ceiling(1.0 + OVERHEAD_CEILING_PCT / 100.0)),
        ["armed", "disabled"],
        |t| {
            std::hint::black_box(t.time(|| armed.run(&calibration)));
        },
        |t| {
            std::hint::black_box(t.time(|| disabled.run(&calibration)));
        },
    );
    bench.finish();
}
