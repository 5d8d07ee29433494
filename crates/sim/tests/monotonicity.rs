//! Metamorphic oracle for the plant: at a pinned platform state, a warmer
//! room or busier code never cools a trajectory, and a faster fan never
//! heats one.
//!
//! This holds whatever the implementation. One RK4 micro-step of the RC
//! network is affine in the node temperatures, the node powers and the
//! ambient, and every coefficient of the temperature transition and of the
//! ambient drive is positive at every fan level. Leakage only grows with
//! temperature. So each micro-step is monotone in the ambient and in the
//! injected power. A faster fan only adds conductance from the heat sink to
//! the room, and the room is cooler than every node here (the plant starts
//! above it and is heated), so it only removes heat. A run that starts
//! level with another but differs in one of these inputs therefore reads
//! strictly hotter, or strictly cooler, at every hot spot after every
//! interval. The test uses none of those facts: it steps each engine as a
//! black box and compares lanes.

use platform_sim::{LaneInput, PanelEngine, PlantEngine, PlantPowerParams, ScalarEngine};
use soc_model::{FanLevel, PlatformState, SocSpec};
use workload::Demand;

/// Control intervals per run: 60 s of plant time, long enough for the
/// hot spots to leave their common start far behind.
const INTERVALS: usize = 600;
/// Control interval, seconds.
const INTERVAL_S: f64 = 0.1;

/// Each lane's (ambient °C, activity factor, fan level). Lane 0 is the
/// base; lanes 1–2 climb the ambient in 1 °C steps, lanes 3–4 the activity
/// factor and lanes 5–7 the fan level.
const LANES: [(f64, f64, FanLevel); 8] = [
    (28.0, 0.5, FanLevel::Off),
    (29.0, 0.5, FanLevel::Off),
    (30.0, 0.5, FanLevel::Off),
    (28.0, 0.6, FanLevel::Off),
    (28.0, 0.7, FanLevel::Off),
    (28.0, 0.5, FanLevel::Base),
    (28.0, 0.5, FanLevel::Half),
    (28.0, 0.5, FanLevel::Full),
];

/// (cooler lane, hotter lane): each pair differs in one input only.
const HOTTER: [(usize, usize); 7] = [(0, 1), (1, 2), (0, 3), (3, 4), (5, 0), (6, 5), (7, 6)];

/// Steps `engine` (one lane per entry of [`LANES`]) at a pinned state with
/// every big core online and four busy streams, asserting the order of
/// [`HOTTER`] at every hot spot after every interval.
fn assert_hotter_inputs_read_hotter(engine: &mut dyn PlantEngine, label: &str) {
    let spec = SocSpec::odroid_xu_e();
    let state = PlatformState::default_for(&spec);
    assert_eq!(state.big_cores_online, [true; 4], "every big core online");
    let demands: Vec<Demand> = LANES
        .iter()
        .map(|&(_, activity_factor, _)| Demand {
            cpu_streams: 4.0,
            activity_factor,
            ..Demand::default()
        })
        .collect();
    let inputs: Vec<LaneInput<'_>> = LANES
        .iter()
        .zip(&demands)
        .map(|(&(ambient_c, _, fan_level), demand)| LaneInput {
            state: &state,
            demand,
            fan_level,
            ambient_c,
        })
        .collect();

    let mut steps = Vec::new();
    for interval in 0..INTERVALS {
        engine
            .step_interval(&inputs, INTERVAL_S, &mut steps)
            .expect("well-formed interval");
        let temps: Vec<[f64; 4]> = steps
            .iter()
            .map(|step| step.as_ref().expect("every lane steps").core_temps_c)
            .collect();
        for (cooler, hotter) in HOTTER {
            let pairs = temps[cooler].iter().zip(&temps[hotter]);
            for (hotspot, (&cool_c, &hot_c)) in pairs.enumerate() {
                assert!(
                    hot_c > cool_c,
                    "{label}: interval {interval}, hot spot {hotspot}: lane {hotter} \
                     read {hot_c} degC, not above lane {cooler}'s {cool_c} degC"
                );
            }
        }
    }
}

fn params() -> [PlantPowerParams; 8] {
    [PlantPowerParams::default(); 8]
}

#[test]
fn hotter_inputs_read_hotter_on_the_scalar_engine() {
    let mut engine = ScalarEngine::new(SocSpec::odroid_xu_e(), &params());
    assert_hotter_inputs_read_hotter(&mut engine, "scalar");
}

#[test]
fn hotter_inputs_read_hotter_on_the_panel_engine() {
    let mut engine = PanelEngine::new(SocSpec::odroid_xu_e(), &params());
    assert_hotter_inputs_read_hotter(&mut engine, "panel-8");
}
