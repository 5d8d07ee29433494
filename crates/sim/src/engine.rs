//! The pluggable plant-engine backend seam.
//!
//! Everything the closed-loop executor needs from "the silicon" is the small
//! per-interval contract captured by [`PlantEngine`]: re-initialise a lane
//! for a new scenario ([`PlantEngine::admit`]), advance every lane by one
//! control interval with per-lane inputs held constant
//! ([`PlantEngine::step_interval`]), and read back per-lane temperatures and
//! accumulated energy. Two backends implement it today:
//!
//! * [`ScalarEngine`] — one independent [`PhysicalPlant`] per lane, stepped
//!   back to back. The single-lane instantiation *is* the classic scalar
//!   simulation path ([`crate::Experiment::run`]).
//! * [`PanelEngine`] — the structure-of-arrays [`BatchPlant`]: all lanes
//!   advanced per instruction stream, one scenario per panel column.
//!
//! Because both speak the same contract, the control-loop executor in
//! [`crate::experiment`] is written once, generically, and the batched
//! lockstep runner is just the many-lane instantiation of the same code that
//! runs a single scalar experiment. The seam is also where a device backend
//! slots in: a GPU engine would keep temperature/power state in device
//! buffers and consume the precomputed per-step math exposed by
//! [`thermal_model::BatchStepTransition`] (`r` / `s_power` / `ambient_drive`
//! views), while the executor and control loops stay untouched.
//!
//! Lane recycling: [`PlantEngine::admit`] fully re-initialises a lane
//! (temperatures to the scenario's initial value, per-lane power parameters
//! and leakage models, energy accumulator to zero), so a sweep scheduler can
//! retire a finished scenario and admit a queued one into the freed lane
//! mid-flight — the basis of the lane-compacting scheduler in
//! [`crate::ScenarioSweep`].

use soc_model::{FanLevel, PlatformState, SocSpec};
use workload::Demand;

use crate::batch::BatchPlant;
use crate::mixed::MixedBatchPlant;
use crate::plant::{PhysicalPlant, PlantPowerParams, PlantStep};
use crate::SimError;

/// Element precision of the plant engine a run steps its scenarios with.
///
/// The default, [`EnginePrecision::F64`], selects the existing engines
/// ([`ScalarEngine`] for single-lane runs, [`PanelEngine`] for batches) and
/// leaves every trajectory bit-identical to previous releases.
/// [`EnginePrecision::F32`] selects the [`MixedPanelEngine`] — f32 panel
/// state with f64 anchoring, roughly doubling SIMD width on the hot loops
/// within a validated ≤ 1e-3 °C trajectory budget.
/// [`EnginePrecision::F32Shadow`] steps *both* engines in lockstep and
/// records their worst-case node-temperature divergence
/// ([`MixedPanelEngine::worst_divergence_c`]) — the qualification mode for
/// new scenario families, costing slightly more than an f64-only run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EnginePrecision {
    /// Full f64 panels — the bit-identical default.
    #[default]
    F64,
    /// f32 panels with f64 anchoring (the mixed-precision engine).
    F32,
    /// f32 engine with an f64 shadow stepped in lockstep for validation.
    F32Shadow,
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
    /// to `params.initial_temp_c`, the lane's true power parameters (and the
    /// leakage models derived from them) to `params`, and the lane's energy
    /// accumulator to zero.
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

    /// True platform energy lane `lane` has accumulated since it was last
    /// admitted, in joules: the per-interval platform power integrated over
    /// *every* interval the engine stepped the lane. That includes intervals
    /// a finished scenario's lane idles on frozen inputs while its batch
    /// mates keep running — so this is the lane's integrated energy, not
    /// necessarily one scenario's. Read it when the scenario completes (the
    /// closed-loop executor's per-result energy bookkeeping does exactly
    /// that, via the control loop) if per-scenario energy is what you need.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    fn energy_j(&self, lane: usize) -> f64;
}

/// The scalar backend: one independent [`PhysicalPlant`] per lane, stepped
/// back to back per interval. One lane of this engine is exactly the classic
/// per-scenario simulation; K lanes are the unbatched comparator for the
/// structure-of-arrays [`PanelEngine`].
#[derive(Debug, Clone)]
pub struct ScalarEngine {
    spec: SocSpec,
    plants: Vec<PhysicalPlant>,
    energy_j: Vec<f64>,
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
        ScalarEngine {
            spec,
            plants,
            energy_j: vec![0.0; params.len()],
        }
    }

    /// Borrowed view of lane `lane`'s plant.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn plant(&self, lane: usize) -> &PhysicalPlant {
        &self.plants[lane]
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
        self.plants[lane] = PhysicalPlant::new(self.spec.clone(), params);
        self.energy_j[lane] = 0.0;
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
        for (lane, (plant, input)) in self.plants.iter_mut().zip(inputs).enumerate() {
            let step = plant.step_interval(
                input.state,
                input.demand,
                input.fan_level,
                input.ambient_c,
                interval_s,
            );
            if let Ok(step) = &step {
                self.energy_j[lane] += step.platform_power_w * interval_s;
            }
            steps.push(step);
        }
        Ok(())
    }

    fn core_temps_c(&self, lane: usize) -> [f64; 4] {
        self.plants[lane].core_temps_c()
    }

    fn node_temps_into(&self, lane: usize, out: &mut [f64]) {
        out.copy_from_slice(self.plants[lane].node_temps_c());
    }

    fn energy_j(&self, lane: usize) -> f64 {
        self.energy_j[lane]
    }
}

/// The structure-of-arrays backend: a [`BatchPlant`] advancing every lane
/// per instruction stream (see the [`crate::batch`] module docs for the
/// panel layout and its equivalence bars).
#[derive(Debug, Clone)]
pub struct PanelEngine {
    plant: BatchPlant,
    energy_j: Vec<f64>,
}

impl PanelEngine {
    /// Creates a batch of `params.len()` lanes, each starting at its
    /// configured initial temperature.
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty.
    pub fn new(spec: SocSpec, params: &[PlantPowerParams]) -> Self {
        PanelEngine {
            plant: BatchPlant::new(spec, params),
            energy_j: vec![0.0; params.len()],
        }
    }

    /// Borrowed view of the underlying batch plant.
    pub fn batch(&self) -> &BatchPlant {
        &self.plant
    }
}

impl PlantEngine for PanelEngine {
    fn lanes(&self) -> usize {
        self.plant.lanes()
    }

    fn node_count(&self) -> usize {
        self.plant.node_count()
    }

    fn admit(&mut self, lane: usize, params: PlantPowerParams) {
        self.plant.admit_lane(lane, params);
        self.energy_j[lane] = 0.0;
    }

    fn step_interval(
        &mut self,
        inputs: &[LaneInput<'_>],
        interval_s: f64,
        steps: &mut Vec<Result<PlantStep, SimError>>,
    ) -> Result<(), SimError> {
        steps.clear();
        self.plant.step_interval_into(inputs, interval_s, steps)?;
        for (lane, step) in steps.iter().enumerate() {
            if let Ok(step) = step {
                self.energy_j[lane] += step.platform_power_w * interval_s;
            }
        }
        Ok(())
    }

    fn core_temps_c(&self, lane: usize) -> [f64; 4] {
        self.plant.core_temps_c(lane)
    }

    fn node_temps_into(&self, lane: usize, out: &mut [f64]) {
        self.plant.node_temps_into(lane, out);
    }

    fn energy_j(&self, lane: usize) -> f64 {
        self.energy_j[lane]
    }
}

/// The f64 shadow state of a [`MixedPanelEngine`] in
/// [`EnginePrecision::F32Shadow`] mode.
#[derive(Debug, Clone)]
struct ShadowState {
    plant: BatchPlant,
    steps: Vec<Result<PlantStep, SimError>>,
    nodes32: Vec<f64>,
    nodes64: Vec<f64>,
    worst_divergence_c: f64,
}

/// The mixed-precision backend: a [`MixedBatchPlant`] advancing every lane
/// at f32 panel width with f64 anchoring (see the [`crate::mixed`] module
/// docs for the precision split and its budgets).
///
/// With [`MixedPanelEngine::with_shadow`] the engine additionally steps a
/// full-precision [`BatchPlant`] in lockstep on the same inputs and records
/// the worst node-temperature divergence observed so far — the
/// [`EnginePrecision::F32Shadow`] validation mode.
#[derive(Debug, Clone)]
pub struct MixedPanelEngine {
    plant: MixedBatchPlant,
    energy_j: Vec<f64>,
    shadow: Option<Box<ShadowState>>,
}

impl MixedPanelEngine {
    /// Creates a batch of `params.len()` f32 lanes, each starting at its
    /// configured initial temperature.
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty.
    pub fn new(spec: SocSpec, params: &[PlantPowerParams]) -> Self {
        MixedPanelEngine {
            plant: MixedBatchPlant::new(spec, params),
            energy_j: vec![0.0; params.len()],
            shadow: None,
        }
    }

    /// Creates the engine with an f64 shadow plant stepped in lockstep; the
    /// per-lane results still come from the f32 engine, while
    /// [`MixedPanelEngine::worst_divergence_c`] tracks the divergence.
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty.
    pub fn with_shadow(spec: SocSpec, params: &[PlantPowerParams]) -> Self {
        let plant = MixedBatchPlant::new(spec.clone(), params);
        let node_count = plant.node_count();
        MixedPanelEngine {
            plant,
            energy_j: vec![0.0; params.len()],
            shadow: Some(Box::new(ShadowState {
                plant: BatchPlant::new(spec, params),
                steps: Vec::with_capacity(params.len()),
                nodes32: vec![0.0; node_count],
                nodes64: vec![0.0; node_count],
                worst_divergence_c: 0.0,
            })),
        }
    }

    /// Borrowed view of the underlying mixed batch plant.
    pub fn batch(&self) -> &MixedBatchPlant {
        &self.plant
    }

    /// Worst absolute f32-vs-f64 node-temperature divergence (°C) observed
    /// since construction, across every lane and interval. `None` unless the
    /// engine was built with [`MixedPanelEngine::with_shadow`].
    pub fn worst_divergence_c(&self) -> Option<f64> {
        self.shadow.as_ref().map(|s| s.worst_divergence_c)
    }
}

impl PlantEngine for MixedPanelEngine {
    fn lanes(&self) -> usize {
        self.plant.lanes()
    }

    fn node_count(&self) -> usize {
        self.plant.node_count()
    }

    fn admit(&mut self, lane: usize, params: PlantPowerParams) {
        self.plant.admit_lane(lane, params);
        if let Some(shadow) = self.shadow.as_mut() {
            shadow.plant.admit_lane(lane, params);
        }
        self.energy_j[lane] = 0.0;
    }

    fn step_interval(
        &mut self,
        inputs: &[LaneInput<'_>],
        interval_s: f64,
        steps: &mut Vec<Result<PlantStep, SimError>>,
    ) -> Result<(), SimError> {
        steps.clear();
        self.plant.step_interval_into(inputs, interval_s, steps)?;
        for (lane, step) in steps.iter().enumerate() {
            if let Ok(step) = step {
                self.energy_j[lane] += step.platform_power_w * interval_s;
            }
        }
        if let Some(shadow) = self.shadow.as_mut() {
            let shadow_steps = &mut shadow.steps;
            shadow
                .plant
                .step_interval_into(inputs, interval_s, shadow_steps)?;
            for lane in 0..self.plant.lanes() {
                self.plant.node_temps_into(lane, &mut shadow.nodes32);
                shadow.plant.node_temps_into(lane, &mut shadow.nodes64);
                for (a, b) in shadow.nodes32.iter().zip(&shadow.nodes64) {
                    let d = (a - b).abs();
                    if d > shadow.worst_divergence_c {
                        shadow.worst_divergence_c = d;
                    }
                }
            }
        }
        Ok(())
    }

    fn core_temps_c(&self, lane: usize) -> [f64; 4] {
        self.plant.core_temps_c(lane)
    }

    fn node_temps_into(&self, lane: usize, out: &mut [f64]) {
        self.plant.node_temps_into(lane, out);
    }

    fn energy_j(&self, lane: usize) -> f64 {
        self.energy_j[lane]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand() -> Demand {
        Demand {
            cpu_streams: 3.0,
            activity_factor: 0.85,
            gpu_utilization: 0.3,
            memory_intensity: 0.5,
            frequency_scalability: 0.9,
        }
    }

    fn engines() -> (ScalarEngine, PanelEngine, SocSpec) {
        let spec = SocSpec::odroid_xu_e();
        let params = [
            PlantPowerParams::default(),
            PlantPowerParams {
                leakage_mismatch: 1.02,
                initial_temp_c: 47.0,
                ..PlantPowerParams::default()
            },
        ];
        (
            ScalarEngine::new(spec.clone(), &params),
            PanelEngine::new(spec.clone(), &params),
            spec,
        )
    }

    fn step_both(
        scalar: &mut ScalarEngine,
        panel: &mut PanelEngine,
        spec: &SocSpec,
        intervals: usize,
    ) {
        let state = PlatformState::default_for(spec);
        let d = demand();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..intervals {
            let inputs: Vec<LaneInput<'_>> = (0..scalar.lanes())
                .map(|_| LaneInput {
                    state: &state,
                    demand: &d,
                    fan_level: FanLevel::Off,
                    ambient_c: 28.0,
                })
                .collect();
            scalar.step_interval(&inputs, 0.1, &mut a).unwrap();
            panel.step_interval(&inputs, 0.1, &mut b).unwrap();
            assert!(a.iter().chain(&b).all(Result::is_ok));
        }
    }

    #[test]
    fn scalar_and_panel_engines_agree_through_the_trait() {
        let (mut scalar, mut panel, spec) = engines();
        step_both(&mut scalar, &mut panel, &spec, 200);
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
            let (ea, eb) = (scalar.energy_j(lane), panel.energy_j(lane));
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
            assert_eq!(engine.energy_j(1), 0.0, "admit resets the accumulator");
            let mut nodes = vec![0.0; engine.node_count()];
            engine.node_temps_into(1, &mut nodes);
            assert!(nodes.iter().all(|&t| t == 33.0));
        }
        assert_eq!(panel.core_temps_c(0), untouched_before);
        assert!(scalar.energy_j(0) > 0.0);
    }

    #[test]
    fn mixed_engine_tracks_the_panel_engine_within_budget() {
        let (_scalar, mut panel, spec) = engines();
        let params = [
            PlantPowerParams::default(),
            PlantPowerParams {
                leakage_mismatch: 1.02,
                initial_temp_c: 47.0,
                ..PlantPowerParams::default()
            },
        ];
        let mut mixed = MixedPanelEngine::new(spec.clone(), &params);
        assert_eq!(mixed.lanes(), panel.lanes());
        assert_eq!(mixed.node_count(), panel.node_count());
        assert!(mixed.worst_divergence_c().is_none());
        let state = PlatformState::default_for(&spec);
        let d = demand();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..200 {
            let inputs: Vec<LaneInput<'_>> = (0..panel.lanes())
                .map(|_| LaneInput {
                    state: &state,
                    demand: &d,
                    fan_level: FanLevel::Off,
                    ambient_c: 28.0,
                })
                .collect();
            panel.step_interval(&inputs, 0.1, &mut a).unwrap();
            mixed.step_interval(&inputs, 0.1, &mut b).unwrap();
            assert!(a.iter().chain(&b).all(Result::is_ok));
        }
        let mut x = vec![0.0; panel.node_count()];
        let mut y = vec![0.0; mixed.node_count()];
        for lane in 0..panel.lanes() {
            panel.node_temps_into(lane, &mut x);
            mixed.node_temps_into(lane, &mut y);
            for (p, m) in x.iter().zip(&y) {
                assert!((p - m).abs() < 1e-3, "lane {lane}: {p} vs {m}");
            }
            let (ep, em) = (panel.energy_j(lane), mixed.energy_j(lane));
            assert!(
                (ep - em).abs() <= 1e-3 * ep,
                "lane {lane} energy: {ep} vs {em}"
            );
        }
    }

    #[test]
    fn shadow_mode_records_worst_divergence() {
        let spec = SocSpec::odroid_xu_e();
        let params = [PlantPowerParams::default(), PlantPowerParams::default()];
        let mut shadowed = MixedPanelEngine::with_shadow(spec.clone(), &params);
        assert_eq!(shadowed.worst_divergence_c(), Some(0.0));
        let state = PlatformState::default_for(&spec);
        let d = demand();
        let mut out = Vec::new();
        for _ in 0..50 {
            let inputs: Vec<LaneInput<'_>> = (0..2)
                .map(|_| LaneInput {
                    state: &state,
                    demand: &d,
                    fan_level: FanLevel::Off,
                    ambient_c: 28.0,
                })
                .collect();
            shadowed.step_interval(&inputs, 0.1, &mut out).unwrap();
        }
        let worst = shadowed.worst_divergence_c().unwrap();
        assert!(worst > 0.0, "lockstep runs must observe some divergence");
        assert!(worst < 1e-3, "divergence {worst:.3e} exceeds the budget");
        // Admission resets both engines, so the shadow stays in lockstep.
        shadowed.admit(1, PlantPowerParams::default());
        let admitted = PlantPowerParams::default().initial_temp_c;
        assert_eq!(shadowed.core_temps_c(1), [admitted; 4]);
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
