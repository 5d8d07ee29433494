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
//! health monitor). Passes are interleaved best-of-N so the two arms see the
//! same thermal/cache conditions; the overhead ceiling is asserted in the
//! full (non `--test`) run and the measured numbers land in
//! `BENCH_safety_overhead.json`.

use std::time::{Duration, Instant};

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
    let test_mode = std::env::args().any(|a| a == "--test");
    let duration_s = if test_mode { 0.5 } else { 8.0 };
    let passes = if test_mode { 1 } else { 7 };

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
        intervals += armed.trace.len();
    }

    // Interleaved best-of-N: the arms alternate within each pass so neither
    // systematically benefits from warm-up or frequency drift.
    let mut disabled_best = Duration::MAX;
    let mut armed_best = Duration::MAX;
    for _ in 0..passes {
        let start = Instant::now();
        std::hint::black_box(disabled.run(&calibration));
        disabled_best = disabled_best.min(start.elapsed());

        let start = Instant::now();
        std::hint::black_box(armed.run(&calibration));
        armed_best = armed_best.min(start.elapsed());
    }

    let disabled_ms = disabled_best.as_secs_f64() * 1e3;
    let armed_ms = armed_best.as_secs_f64() * 1e3;
    let overhead_pct = (armed_ms / disabled_ms - 1.0) * 100.0;
    let intervals_per_s = intervals as f64 / armed_best.as_secs_f64();
    println!(
        "safety_overhead/disabled_sweep           {disabled_ms:>14.2} ms \
         ({LANES} lanes, {intervals} intervals)"
    );
    println!("safety_overhead/armed_sweep              {armed_ms:>14.2} ms");
    println!(
        "safety_overhead/overhead                 {overhead_pct:>14.2} % \
         (acceptance ceiling: < {OVERHEAD_CEILING_PCT} %)"
    );
    println!("safety_overhead/armed_intervals_per_s    {intervals_per_s:>14.0}");

    if !test_mode {
        write_bench_json(disabled_ms, armed_ms, overhead_pct, intervals_per_s);
        // Regression guard: asserted only on the full run — the --test smoke
        // run is too short to measure meaningfully.
        assert!(
            overhead_pct <= OVERHEAD_CEILING_PCT,
            "armed safety stack costs {overhead_pct:.2} % on the fault-free \
             hot path (ceiling: {OVERHEAD_CEILING_PCT} %)"
        );
    }
}

/// Records the measured numbers for tracking (`BENCH_safety_overhead.json`).
fn write_bench_json(disabled_ms: f64, armed_ms: f64, overhead_pct: f64, intervals_per_s: f64) {
    let json = format!(
        "{{\n  \"bench\": \"safety_overhead\",\n  \"lanes\": {LANES},\n  \
         \"disabled_sweep_ms\": {disabled_ms:.2},\n  \
         \"armed_sweep_ms\": {armed_ms:.2},\n  \
         \"overhead_pct\": {overhead_pct:.3},\n  \
         \"ceiling_pct\": {OVERHEAD_CEILING_PCT},\n  \
         \"armed_intervals_per_s\": {intervals_per_s:.0}\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_safety_overhead.json"
    );
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("warning: could not write {path}: {e}");
    }
}
