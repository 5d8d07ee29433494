//! Microbench of the structure-of-arrays batched plant engine.
//!
//! Times `PanelEngine::step_interval` advancing eight scenarios per
//! instruction stream against the per-scenario scalar loop (eight
//! independent `PhysicalPlant`s stepped back to back — what `ScenarioSweep`
//! does per worker thread without lanes), over the same simulated horizon.
//! The claim is the batched-over-scalar speed-up at eight lanes, at least
//! [`SPEEDUP_FLOOR`]; campaign_bench's `engine.*` probes report the same
//! ratio but assert nothing. Every lane is cross-checked against its scalar
//! twin after the timed pairs. Results land in `BENCH_sweep_step.json`.

use std::hint::black_box;

use bench::microbench::{Bound, Microbench};
use platform_sim::{LaneInput, PanelEngine, PhysicalPlant, PlantEngine, PlantPowerParams};
use soc_model::{FanLevel, PlatformState, SocSpec};
use workload::Demand;

const CONTROL_PERIOD_S: f64 = 0.1;
/// Scenarios advanced per instruction stream in the batched engine.
const LANES: usize = 8;
/// Control intervals per timed sample in a full run.
const INTERVALS: usize = 2_000;
/// Pairs timed in a full run.
const PAIRS: usize = 21;
/// Acceptance floor for the batched engine at eight lanes. Re-baselined
/// upward from 2.0 after the explicit SIMD panel kernels landed (measured
/// 2.84x on the AVX2 reference host, up from 2.35x with autovectorized
/// scalar kernels).
const SPEEDUP_FLOOR: f64 = 2.5;

fn busy_demand() -> Demand {
    Demand {
        cpu_streams: 3.5,
        activity_factor: 0.9,
        gpu_utilization: 0.4,
        memory_intensity: 0.5,
        frequency_scalability: 0.9,
    }
}

fn main() {
    let mut bench = Microbench::from_args("sweep_step", PAIRS);
    let intervals = if bench.test_mode() { 20 } else { INTERVALS };
    bench.config("lanes", LANES);
    bench.config("intervals_per_sample", intervals);
    bench.config("control_period_s", CONTROL_PERIOD_S);

    let spec = SocSpec::odroid_xu_e();
    let demand = busy_demand();
    let state = PlatformState::default_for(&spec);
    let params = [PlantPowerParams::default(); LANES];
    let mut batched = PanelEngine::new(spec.clone(), &params);
    let mut steps = Vec::with_capacity(LANES);
    let mut scalars: Vec<PhysicalPlant> = params
        .iter()
        .map(|p| PhysicalPlant::new(spec.clone(), *p))
        .collect();
    bench.paired(
        "speedup_vs_scalar",
        Some(Bound::Floor(SPEEDUP_FLOOR)),
        ["scalar_per_scenario", "batched"],
        |t| {
            t.time(|| {
                for _ in 0..intervals {
                    for plant in &mut scalars {
                        black_box(
                            plant
                                .step_interval(
                                    black_box(&state),
                                    black_box(&demand),
                                    FanLevel::Off,
                                    28.0,
                                    CONTROL_PERIOD_S,
                                )
                                .unwrap(),
                        );
                    }
                }
            })
        },
        |t| {
            t.time(|| {
                for _ in 0..intervals {
                    let inputs: [LaneInput<'_>; LANES] = std::array::from_fn(|_| LaneInput {
                        state: black_box(&state),
                        demand: black_box(&demand),
                        fan_level: FanLevel::Off,
                        ambient_c: 28.0,
                    });
                    batched
                        .step_interval(&inputs, CONTROL_PERIOD_S, &mut steps)
                        .unwrap();
                    black_box(&steps);
                }
            })
        },
    );

    // Both engines advanced the same scenarios over the same horizon: every
    // lane must match its scalar twin far below any physical scale.
    let mut worst = 0.0f64;
    let mut lane_temps = vec![0.0; batched.node_count()];
    for (lane, plant) in scalars.iter().enumerate() {
        batched.node_temps_into(lane, &mut lane_temps);
        for (a, b) in lane_temps.iter().zip(plant.node_temps_c().iter()) {
            worst = worst.max((a - b).abs());
        }
    }
    assert!(
        worst < 1e-9,
        "batched and scalar trajectories diverged: {worst} degC"
    );
    bench.value("max_lane_divergence_degc", worst, None);
    bench.finish();
}
