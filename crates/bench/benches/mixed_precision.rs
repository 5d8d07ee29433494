//! Microbench of the mixed-precision (f32 panel) batched plant.
//!
//! Times `MixedPanelEngine::step_interval` against the f64 `PanelEngine` on
//! the `sweep_step` shape at sixteen lanes — twice the f64 bench's width,
//! where the halved element width pays the most: each AVX2 vector carries 8
//! scenario lanes instead of 4 and the panel working set halves. The claim
//! is the f32-over-f64 speed-up at sixteen lanes, at least
//! [`SPEEDUP_FLOOR`]. After the timed pairs every lane's trajectory must stay
//! within the documented [`DIVERGENCE_BUDGET_C`] of its f64 twin. Results
//! land in `BENCH_mixed_precision.json`.

use std::hint::black_box;

use bench::microbench::{Bound, Microbench};
use platform_sim::{LaneInput, MixedPanelEngine, PanelEngine, PlantEngine, PlantPowerParams};
use soc_model::{FanLevel, PlatformState, SocSpec};
use workload::Demand;

const CONTROL_PERIOD_S: f64 = 0.1;
/// Scenarios advanced per instruction stream.
const LANES: usize = 16;
/// Control intervals per timed sample in a full run.
const INTERVALS: usize = 2_000;
/// Pairs timed in a full run.
const PAIRS: usize = 21;
/// Acceptance floor for the f32 engine over the f64 panel path at sixteen
/// lanes.
const SPEEDUP_FLOOR: f64 = 1.4;
/// Trajectory-divergence budget the f32 engine is validated against, °C.
const DIVERGENCE_BUDGET_C: f64 = 1e-3;

fn busy_demand() -> Demand {
    Demand {
        cpu_streams: 3.5,
        activity_factor: 0.9,
        gpu_utilization: 0.4,
        memory_intensity: 0.5,
        frequency_scalability: 0.9,
    }
}

/// Every lane's plant input for one interval: the same busy demand.
fn lane_inputs<'a>(state: &'a PlatformState, demand: &'a Demand) -> [LaneInput<'a>; LANES] {
    std::array::from_fn(|_| LaneInput {
        state: black_box(state),
        demand: black_box(demand),
        fan_level: FanLevel::Off,
        ambient_c: 28.0,
    })
}

fn main() {
    let mut bench = Microbench::from_args("mixed_precision", PAIRS);
    let intervals = if bench.test_mode() { 20 } else { INTERVALS };
    bench.config("lanes", LANES);
    bench.config("intervals_per_sample", intervals);
    bench.config("control_period_s", CONTROL_PERIOD_S);
    bench.config("divergence_budget_degc", DIVERGENCE_BUDGET_C);

    let spec = SocSpec::odroid_xu_e();
    let demand = busy_demand();
    let state = PlatformState::default_for(&spec);
    let params = [PlantPowerParams::default(); LANES];
    let mut full = PanelEngine::new(spec.clone(), &params);
    let mut mixed = MixedPanelEngine::new(spec.clone(), &params);
    let mut full_steps = Vec::with_capacity(LANES);
    let mut mixed_steps = Vec::with_capacity(LANES);
    bench.paired(
        "speedup_vs_f64",
        Some(Bound::Floor(SPEEDUP_FLOOR)),
        ["f64_panel", "f32_panel"],
        |t| {
            t.time(|| {
                for _ in 0..intervals {
                    full.step_interval(
                        &lane_inputs(&state, &demand),
                        CONTROL_PERIOD_S,
                        &mut full_steps,
                    )
                    .unwrap();
                    black_box(&full_steps);
                }
            })
        },
        |t| {
            t.time(|| {
                for _ in 0..intervals {
                    mixed
                        .step_interval(
                            &lane_inputs(&state, &demand),
                            CONTROL_PERIOD_S,
                            &mut mixed_steps,
                        )
                        .unwrap();
                    black_box(&mixed_steps);
                }
            })
        },
    );

    // Correctness on the very trajectories just timed: both engines
    // advanced the same scenarios over the same horizon, so every lane must
    // sit inside the documented budget.
    let mut worst = 0.0f64;
    let mut f64_temps = vec![0.0; full.node_count()];
    let mut f32_temps = vec![0.0; mixed.node_count()];
    for lane in 0..LANES {
        full.node_temps_into(lane, &mut f64_temps);
        mixed.node_temps_into(lane, &mut f32_temps);
        for (a, b) in f64_temps.iter().zip(&f32_temps) {
            worst = worst.max((a - b).abs());
        }
    }
    assert!(
        worst < DIVERGENCE_BUDGET_C,
        "f32 and f64 trajectories diverged: {worst} degC (budget {DIVERGENCE_BUDGET_C})"
    );
    bench.value("max_lane_divergence_degc", worst, None);
    bench.finish();
}
