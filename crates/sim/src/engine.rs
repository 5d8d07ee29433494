//! The plant-engine seam.
//!
//! Everything the closed-loop executor needs from "the silicon" is the small
//! per-interval contract captured by [`PlantEngine`]: re-initialise a lane
//! for a new scenario ([`PlantEngine::admit`]), advance every lane by one
//! control interval with per-lane inputs held constant
//! ([`PlantEngine::step_interval`]), and read back per-lane temperatures.
//! Three engines implement it:
//!
//! * [`ScalarEngine`] — one independent [`PhysicalPlant`] per lane, stepped
//!   back to back. The single-lane instantiation *is* the classic scalar
//!   simulation path ([`crate::Experiment::run`]).
//! * [`PanelEngine`](crate::PanelEngine) — the structure-of-arrays engine of
//!   [`crate::batch`]: all lanes advanced per instruction stream, one
//!   scenario per panel column.
//! * [`MixedPanelEngine`](crate::MixedPanelEngine) — the same panel layout
//!   at f32 width with f64 anchoring ([`crate::mixed`]), selected by
//!   [`EnginePrecision::F32`].
//!
//! Because all three speak the same contract, the control-loop executor in
//! [`crate::experiment`] is written once, generically, and a many-lane sweep
//! is just a wider instantiation of the same code that runs a single scalar
//! experiment; which engine a run gets is decided in one place, from its
//! lane count and precision. A run's energy is integrated by its control
//! loop from the platform power of the [`PlantStep`]s it absorbs.
//!
//! Lane recycling: [`PlantEngine::admit`] fully re-initialises a lane
//! (temperatures to the scenario's initial value, per-lane power parameters
//! and leakage models), so a sweep scheduler can retire a finished scenario
//! and admit a queued one into the freed lane mid-flight — the basis of the
//! lane-compacting scheduler in [`crate::ScenarioSweep`]. Every engine
//! admits in place: the lane keeps its buffers and the engine its cached
//! transitions, so an admission builds no plant.

use soc_model::{FanLevel, PlatformState, SocSpec};
use workload::Demand;

use crate::plant::{PhysicalPlant, PlantPowerParams, PlantStep};
use crate::SimError;

/// Element precision of the plant engine a run steps its scenarios with.
///
/// The default, [`EnginePrecision::F64`], selects the existing engines
/// ([`ScalarEngine`] for single-lane runs, [`PanelEngine`](crate::PanelEngine)
/// for batches) and leaves every trajectory bit-identical to previous
/// releases. [`EnginePrecision::F32`] selects the
/// [`MixedPanelEngine`](crate::MixedPanelEngine) — f32 panel
/// state with f64 anchoring, roughly doubling SIMD width on the hot loops
/// within a validated ≤ 1e-3 °C trajectory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EnginePrecision {
    /// Full f64 panels — the bit-identical default.
    #[default]
    F64,
    /// f32 panels with f64 anchoring (the mixed-precision engine).
    F32,
}

/// One lane's interval-constant control inputs to
/// [`PlantEngine::step_interval`].
#[derive(Debug, Clone, Copy)]
pub struct LaneInput<'a> {
    /// Platform state held constant over the interval.
    pub state: &'a PlatformState,
    /// Workload demand held constant over the interval.
    pub demand: &'a Demand,
    /// Fan level held constant over the interval.
    pub fan_level: FanLevel,
    /// Ambient temperature, °C.
    pub ambient_c: f64,
}

/// The per-interval plant contract every simulation backend implements (see
/// the [module docs](self)).
///
/// An engine owns K scenario lanes of plant state. Per control interval the
/// executor hands it one [`LaneInput`] per lane and reads back one
/// [`PlantStep`] result per lane; between scenarios it re-initialises
/// individual lanes with [`PlantEngine::admit`]. Implementations must keep
/// lanes strictly isolated: admitting or failing one lane never disturbs the
/// trajectories of the others.
pub trait PlantEngine {
    /// Number of scenario lanes this engine advances per interval.
    fn lanes(&self) -> usize;

    /// Number of thermal nodes per lane.
    fn node_count(&self) -> usize;

    /// Re-initialises lane `lane` for a new scenario: every node temperature
    /// to `params.initial_temp_c` and the lane's true power parameters (and
    /// the leakage models derived from them) to `params`. The other lanes are
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    fn admit(&mut self, lane: usize, params: PlantPowerParams);

    /// Advances every lane by one control interval of `interval_s` seconds
    /// with its inputs held constant, replacing the contents of `steps` with
    /// one [`PlantStep`] result per lane (in lane order). A lane whose
    /// interval fails (e.g. an unsupported frequency) reports its error in
    /// its slot without disturbing the other lanes.
    ///
    /// # Errors
    ///
    /// Returns an engine-level error only for malformed calls: an input
    /// count that does not match [`PlantEngine::lanes`] or a non-positive
    /// interval. `steps` is left empty in that case.
    fn step_interval(
        &mut self,
        inputs: &[LaneInput<'_>],
        interval_s: f64,
        steps: &mut Vec<Result<PlantStep, SimError>>,
    ) -> Result<(), SimError>;

    /// Lane `lane`'s current true hotspot (big-core) temperatures, °C.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    fn core_temps_c(&self, lane: usize) -> [f64; 4];

    /// Writes lane `lane`'s current true temperature of every thermal node
    /// (°C) into `out`, allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `out` does not cover
    /// [`PlantEngine::node_count`] nodes.
    fn node_temps_into(&self, lane: usize, out: &mut [f64]);
}

/// The scalar backend: one independent [`PhysicalPlant`] per lane, stepped
/// back to back per interval. One lane of this engine is exactly the classic
/// per-scenario simulation; K lanes are the unbatched comparator for the
/// structure-of-arrays [`PanelEngine`](crate::PanelEngine).
#[derive(Debug, Clone)]
pub struct ScalarEngine {
    plants: Vec<PhysicalPlant>,
}

impl ScalarEngine {
    /// Creates one plant per entry of `params`, each at its configured
    /// initial temperature.
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty.
    pub fn new(spec: SocSpec, params: &[PlantPowerParams]) -> Self {
        assert!(!params.is_empty(), "an engine needs at least one lane");
        let plants = params
            .iter()
            .map(|p| PhysicalPlant::new(spec.clone(), *p))
            .collect();
        ScalarEngine { plants }
    }
}

impl PlantEngine for ScalarEngine {
    fn lanes(&self) -> usize {
        self.plants.len()
    }

    fn node_count(&self) -> usize {
        self.plants[0].node_temps_c().len()
    }

    fn admit(&mut self, lane: usize, params: PlantPowerParams) {
        self.plants[lane].readmit(params);
    }

    fn step_interval(
        &mut self,
        inputs: &[LaneInput<'_>],
        interval_s: f64,
        steps: &mut Vec<Result<PlantStep, SimError>>,
    ) -> Result<(), SimError> {
        steps.clear();
        if inputs.len() != self.plants.len() {
            return Err(SimError::InvalidConfig(
                "lane input count must match the engine width",
            ));
        }
        if !(interval_s > 0.0) {
            return Err(SimError::InvalidConfig("control interval must be positive"));
        }
        for (plant, input) in self.plants.iter_mut().zip(inputs) {
            steps.push(plant.step_interval(
                input.state,
                input.demand,
                input.fan_level,
                input.ambient_c,
                interval_s,
            ));
        }
        Ok(())
    }

    fn core_temps_c(&self, lane: usize) -> [f64; 4] {
        self.plants[lane].core_temps_c()
    }

    fn node_temps_into(&self, lane: usize, out: &mut [f64]) {
        out.copy_from_slice(self.plants[lane].node_temps_c());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MixedPanelEngine, PanelEngine};

    fn demand() -> Demand {
        Demand {
            cpu_streams: 3.0,
            activity_factor: 0.85,
            gpu_utilization: 0.3,
            memory_intensity: 0.5,
            frequency_scalability: 0.9,
        }
    }

    fn params() -> [PlantPowerParams; 2] {
        [
            PlantPowerParams::default(),
            PlantPowerParams {
                leakage_mismatch: 1.02,
                initial_temp_c: 47.0,
                ..PlantPowerParams::default()
            },
        ]
    }

    fn engines() -> (ScalarEngine, PanelEngine, SocSpec) {
        let spec = SocSpec::odroid_xu_e();
        (
            ScalarEngine::new(spec.clone(), &params()),
            PanelEngine::new(spec.clone(), &params()),
            spec,
        )
    }

    /// Steps both engines `intervals` times with every lane at the same
    /// inputs, returning each engine's per-lane energy, J: platform power
    /// times the period, summed over the steps.
    fn step_both<'e>(
        a: &'e mut dyn PlantEngine,
        b: &'e mut dyn PlantEngine,
        spec: &SocSpec,
        intervals: usize,
    ) -> [Vec<f64>; 2] {
        let state = PlatformState::default_for(spec);
        let d = demand();
        let inputs: Vec<LaneInput<'_>> = (0..a.lanes())
            .map(|_| LaneInput {
                state: &state,
                demand: &d,
                fan_level: FanLevel::Off,
                ambient_c: 28.0,
            })
            .collect();
        let mut energy = [vec![0.0; a.lanes()], vec![0.0; b.lanes()]];
        let mut steps = Vec::new();
        for _ in 0..intervals {
            for (engine, energy) in [&mut *a, &mut *b].into_iter().zip(&mut energy) {
                engine.step_interval(&inputs, 0.1, &mut steps).unwrap();
                for (lane, step) in steps.iter().enumerate() {
                    energy[lane] += step.as_ref().unwrap().platform_power_w * 0.1;
                }
            }
        }
        energy
    }

    #[test]
    fn scalar_and_panel_engines_agree_through_the_trait() {
        let (mut scalar, mut panel, spec) = engines();
        let [scalar_energy, panel_energy] = step_both(&mut scalar, &mut panel, &spec, 200);
        assert_eq!(scalar.lanes(), panel.lanes());
        assert_eq!(scalar.node_count(), panel.node_count());
        let mut a = vec![0.0; scalar.node_count()];
        let mut b = vec![0.0; panel.node_count()];
        for lane in 0..scalar.lanes() {
            scalar.node_temps_into(lane, &mut a);
            panel.node_temps_into(lane, &mut b);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-9, "lane {lane}: {x} vs {y}");
            }
            for (x, y) in scalar
                .core_temps_c(lane)
                .iter()
                .zip(panel.core_temps_c(lane))
            {
                assert!((x - y).abs() < 1e-9, "lane {lane} cores: {x} vs {y}");
            }
            let (ea, eb) = (scalar_energy[lane], panel_energy[lane]);
            assert!(ea > 0.0, "energy must accumulate");
            assert!(
                (ea - eb).abs() <= 1e-6 * ea,
                "lane {lane} energy: {ea} vs {eb}"
            );
        }
    }

    #[test]
    fn admit_resets_a_lane_without_disturbing_the_others() {
        let (mut scalar, mut panel, spec) = engines();
        step_both(&mut scalar, &mut panel, &spec, 100);
        let untouched_before = panel.core_temps_c(0);
        let fresh = PlantPowerParams {
            initial_temp_c: 33.0,
            ..PlantPowerParams::default()
        };
        scalar.admit(1, fresh);
        panel.admit(1, fresh);
        for engine in [&scalar as &dyn PlantEngine, &panel as &dyn PlantEngine] {
            assert_eq!(engine.core_temps_c(1), [33.0; 4]);
            let mut nodes = vec![0.0; engine.node_count()];
            engine.node_temps_into(1, &mut nodes);
            assert!(nodes.iter().all(|&t| t == 33.0));
        }
        assert_eq!(panel.core_temps_c(0), untouched_before);
    }

    /// Steps a one-lane engine by one interval at `fan_level` and 28 °C.
    fn step_lane(engine: &mut ScalarEngine, spec: &SocSpec, fan_level: FanLevel) -> PlantStep {
        let state = PlatformState::default_for(spec);
        let d = demand();
        let input = LaneInput {
            state: &state,
            demand: &d,
            fan_level,
            ambient_c: 28.0,
        };
        let mut steps = Vec::new();
        engine.step_interval(&[input], 0.1, &mut steps).unwrap();
        steps.pop().unwrap().unwrap()
    }

    #[test]
    fn a_readmitted_scalar_lane_matches_a_fresh_engine_bit_for_bit() {
        let spec = SocSpec::odroid_xu_e();
        let [first, second] = params();
        let mut readmitted = ScalarEngine::new(spec.clone(), &[first]);
        // The first scenario leaves heat and a cached transition behind.
        for _ in 0..50 {
            step_lane(&mut readmitted, &spec, FanLevel::Off);
        }
        readmitted.admit(0, second);
        let mut fresh = ScalarEngine::new(spec.clone(), &[second]);
        let mut a = vec![0.0; fresh.node_count()];
        let mut b = vec![0.0; fresh.node_count()];
        for k in 0..100 {
            // The fan switches on halfway: the kept transition serves the
            // first half, a rebuilt one the second.
            let fan = if k < 50 {
                FanLevel::Off
            } else {
                FanLevel::Full
            };
            let (x, y) = (
                step_lane(&mut readmitted, &spec, fan),
                step_lane(&mut fresh, &spec, fan),
            );
            assert_eq!(x, y, "interval {k}");
            readmitted.node_temps_into(0, &mut a);
            fresh.node_temps_into(0, &mut b);
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "interval {k}: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn mixed_engine_tracks_the_panel_engine_within_budget() {
        let (_scalar, mut panel, spec) = engines();
        let mut mixed = MixedPanelEngine::new(spec.clone(), &params());
        assert_eq!(mixed.lanes(), panel.lanes());
        assert_eq!(mixed.node_count(), panel.node_count());
        let [panel_energy, mixed_energy] = step_both(&mut panel, &mut mixed, &spec, 200);
        let mut x = vec![0.0; panel.node_count()];
        let mut y = vec![0.0; mixed.node_count()];
        for lane in 0..panel.lanes() {
            panel.node_temps_into(lane, &mut x);
            mixed.node_temps_into(lane, &mut y);
            for (p, m) in x.iter().zip(&y) {
                assert!((p - m).abs() < 1e-3, "lane {lane}: {p} vs {m}");
            }
            let (ep, em) = (panel_energy[lane], mixed_energy[lane]);
            assert!(
                (ep - em).abs() <= 1e-3 * ep,
                "lane {lane} energy: {ep} vs {em}"
            );
        }
    }

    #[test]
    fn engine_precision_defaults_to_f64() {
        assert_eq!(EnginePrecision::default(), EnginePrecision::F64);
    }

    #[test]
    fn engines_reject_malformed_calls() {
        let (mut scalar, mut panel, spec) = engines();
        let state = PlatformState::default_for(&spec);
        let d = demand();
        let one = [LaneInput {
            state: &state,
            demand: &d,
            fan_level: FanLevel::Off,
            ambient_c: 28.0,
        }];
        let mut out = Vec::new();
        assert!(scalar.step_interval(&one, 0.1, &mut out).is_err());
        assert!(out.is_empty());
        assert!(panel.step_interval(&one, 0.1, &mut out).is_err());
        let two = [one[0], one[0]];
        assert!(scalar.step_interval(&two, 0.0, &mut out).is_err());
        assert!(panel.step_interval(&two, 0.0, &mut out).is_err());
    }
}
