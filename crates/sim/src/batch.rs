//! Structure-of-arrays batched plant engine: advance N scenarios per
//! instruction stream.
//!
//! [`PanelEngine`] steps K independent physical plants in lockstep, one
//! scenario per column of a [`numeric::Panel`]:
//!
//! * the temperature and node-power state live in `8 × K` panels (row = node,
//!   column = scenario), so every per-node quantity is contiguous across
//!   scenarios and the inner loops run at unit stride;
//! * the thermal ODE advances through a [`thermal_model::BatchStepTransition`]
//!   — the precomputed affine RK4 micro-step applied to the whole panel as a
//!   blocked mat-mat, loading the two 8×8 transition matrices *once* per
//!   micro-step for all lanes (a scalar sweep re-streams them once per
//!   scenario);
//! * the temperature-dependent leakage currents are evaluated by a
//!   [`power_model::LeakagePanel`] (anchored exponential, vectorised across
//!   lanes), and the remaining per-node power assembly is linearised per
//!   control interval into `P = base + coef · I_leak` panel rows.
//!
//! Control decisions stay strictly per-lane: each lane carries its own
//! platform state, demand, fan level and ambient. Only the integrator is
//! batched. The transition cache is keyed by fan level alone, so it holds at
//! most one transition per [`FanLevel`](soc_model::FanLevel); each lane's
//! ambient enters as its own drive column of the bias kernel, so lanes at
//! different ambients still advance in one blocked pass. When lanes sit at
//! different fan levels, each transition in use advances the whole panel and
//! every lane keeps the pass of its own transition. The bias kernel's result
//! for a lane does not depend on the other lanes, so divergence costs one
//! panel pass per transition in use and never changes a bit.
//!
//! Every lane also re-anchors its leakage exponentials on its own cadence,
//! counted from its admission. A lane's trajectory is therefore a function
//! of its own inputs only: the same bits at any batch width, lane position,
//! thread count, lease split or resume point.
//!
//! Trajectories match the scalar [`PhysicalPlant`](crate::PhysicalPlant) to well below 1e-9 °C over
//! full runs (the integrator is bit-identical; the leakage linearisation and
//! anchored exponential reassociate a few floating-point operations), which
//! the equivalence suite in `tests/equivalence.rs` pins down.

use numeric::Panel;
use power_model::{DomainPower, LeakagePanel, LeakageParams};
use soc_model::SocSpec;
use thermal_model::{BatchStepTransition, ExynosThermalNetwork};

use crate::engine::{LaneInput, PlantEngine};
use crate::plant::{
    compute_interval_ops, micro_steps, online_cores, scaled, throughput_units_per_s, true_leakage,
    IntervalOps, PlantPowerParams, PlantStep, PLANT_DT_S,
};
use crate::SimError;

/// Number of leakage-current rows the batch evaluates per micro-step: the
/// four big cores, the little cluster (sensed at the case) and the GPU. They
/// power node rows `0..LEAK_ROWS`; the constant-power nodes (memory, case)
/// follow (see [`PanelEngine::new`]).
const LEAK_ROWS: usize = 6;

/// A cached batch transition together with the fan boost it was built for.
#[derive(Debug, Clone)]
struct TransitionEntry {
    fan_bits: u64,
    transition: BatchStepTransition,
}

/// K physical plants advanced in lockstep with a structure-of-arrays state
/// (see the module docs). Lanes share the thermal network topology and the
/// SoC spec; power parameters (and therefore leakage models and initial
/// temperatures) are per-lane.
#[derive(Debug, Clone)]
pub struct PanelEngine {
    spec: SocSpec,
    thermal: ExynosThermalNetwork,
    lanes: usize,
    params: Vec<PlantPowerParams>,
    /// Node temperatures, °C; `node_count × lanes`.
    temps: Panel,
    /// Node power injections, W; `node_count × lanes`.
    powers: Panel,
    /// Integrator output; `node_count × lanes`.
    step_tmp: Panel,
    /// Output of the passes of the transitions other than lane 0's, when
    /// lanes sit at different fan levels; `node_count × lanes`.
    pass_tmp: Panel,
    /// Per-interval power linearisation `P = base + coef · I`; both
    /// `node_count × lanes`.
    base: Panel,
    coef: Panel,
    /// Batched leakage models and their current values; `LEAK_ROWS × lanes`.
    leak: LeakagePanel,
    currents: Panel,
    /// Per-micro-step gather of the leakage-relevant node temperatures;
    /// `LEAK_ROWS × lanes`, so the whole leakage pass runs at unit stride.
    leak_temps: Panel,
    /// Per-domain power accumulators (big, little, gpu, memory); `4 × lanes`.
    accum: Panel,
    /// Per-lane big-cluster uncore power that lands in no node injection:
    /// the scalar plant counts the uncore in `big_w` even when zero cores
    /// are online (so no node receives a share); matched here as an
    /// interval-constant addend to the big-domain average.
    uncore_orphan_w: Vec<f64>,
    /// Temperature-panel row feeding each leakage row.
    leak_temp_rows: [usize; LEAK_ROWS],
    /// One transition per fan level seen; at most four.
    transitions: Vec<TransitionEntry>,
    lane_transition: Vec<usize>,
    /// The transitions other than lane 0's that some lane uses this
    /// interval; empty when every lane shares lane 0's.
    other_transitions: Vec<usize>,
    /// Per-lane ambient drive columns, the bias of the transition apply;
    /// `node_count × lanes`.
    drive: Panel,
    /// The (transition index, ambient bits) each lane's drive column was
    /// computed for.
    drive_keys: Vec<(usize, u64)>,
    /// Per-lane micro-steps since the lane's leakage anchors were last
    /// refreshed; admission anchors the lane and resets its count.
    steps_since_anchor: Vec<usize>,
    /// Per-lane column scratch for the drive.
    col_scratch: Vec<f64>,
    /// Per-lane interval-setup failure, written for every lane before the
    /// interval's steps are assembled and taken back out by them.
    lane_errors: Vec<Option<SimError>>,
}

impl PanelEngine {
    /// Creates a batch of `params.len()` lanes, each admitted with its
    /// parameters (see [`PlantEngine::admit`]).
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty.
    pub fn new(spec: SocSpec, params: &[PlantPowerParams]) -> Self {
        assert!(!params.is_empty(), "a batch plant needs at least one lane");
        let thermal = ExynosThermalNetwork::odroid_xu_e();
        let node_count = thermal.node_count();
        let lanes = params.len();

        // Node row `r < LEAK_ROWS` is powered by leakage row `r`, and the
        // constant-power rows close the panel, so the micro-step assembles
        // every leakage-driven power in one fused span.
        let core_nodes = thermal.big_core_nodes();
        let layout = [
            core_nodes[0],
            core_nodes[1],
            core_nodes[2],
            core_nodes[3],
            thermal.little_node(),
            thermal.gpu_node(),
            thermal.memory_node(),
            thermal.case_node(),
        ];
        assert!(
            layout.iter().map(|node| node.0).eq(0..node_count),
            "the batch plant needs the leakage-driven nodes first, in leakage-row order"
        );
        let leak_temp_rows = [
            core_nodes[0].0,
            core_nodes[1].0,
            core_nodes[2].0,
            core_nodes[3].0,
            thermal.case_node().0,
            thermal.gpu_node().0,
        ];

        // Every lane's temperatures and leakage models are written by
        // `admit` below; the fill only sizes the panels.
        let mut engine = PanelEngine {
            spec,
            lanes,
            params: params.to_vec(),
            temps: Panel::zeros(node_count, lanes),
            powers: Panel::zeros(node_count, lanes),
            step_tmp: Panel::zeros(node_count, lanes),
            pass_tmp: Panel::zeros(node_count, lanes),
            base: Panel::zeros(node_count, lanes),
            coef: Panel::zeros(node_count, lanes),
            leak: LeakagePanel::filled(
                LEAK_ROWS,
                lanes,
                &scaled(LeakageParams::exynos5410_big(), params[0].leakage_mismatch),
                params[0].initial_temp_c,
            ),
            currents: Panel::zeros(LEAK_ROWS, lanes),
            leak_temps: Panel::zeros(LEAK_ROWS, lanes),
            accum: Panel::zeros(4, lanes),
            uncore_orphan_w: vec![0.0; lanes],
            leak_temp_rows,
            transitions: Vec::new(),
            lane_transition: vec![0; lanes],
            other_transitions: Vec::new(),
            drive: Panel::zeros(node_count, lanes),
            drive_keys: vec![(usize::MAX, 0); lanes],
            steps_since_anchor: vec![0; lanes],
            col_scratch: vec![0.0; node_count],
            lane_errors: vec![None; lanes],
            thermal,
        };
        for (lane, p) in params.iter().enumerate() {
            engine.admit(lane, *p);
        }
        engine
    }

    /// Looks up (or builds and caches) the batch transition for one fan
    /// boost.
    fn ensure_transition(&mut self, boost_w_per_k: f64) -> Result<usize, SimError> {
        let fan_bits = boost_w_per_k.to_bits();
        if let Some(found) = self.transitions.iter().position(|t| t.fan_bits == fan_bits) {
            return Ok(found);
        }
        let boost = self.thermal.fan_boost(boost_w_per_k);
        let transition = self
            .thermal
            .network()
            .batch_step_transition(boost, PLANT_DT_S)?;
        self.transitions.push(TransitionEntry {
            fan_bits,
            transition,
        });
        Ok(self.transitions.len() - 1)
    }

    /// Points lane `lane` at the transition of its fan boost and refreshes
    /// its drive column when its (fan, ambient) pair changed.
    fn select_transition(
        &mut self,
        lane: usize,
        boost_w_per_k: f64,
        ambient_c: f64,
    ) -> Result<(), SimError> {
        let index = self.ensure_transition(boost_w_per_k)?;
        self.lane_transition[lane] = index;
        let key = (index, ambient_c.to_bits());
        if self.drive_keys[lane] != key {
            let column = &mut self.col_scratch;
            self.transitions[index]
                .transition
                .ambient_drive_into(ambient_c, column);
            self.drive.set_column(lane, column);
            self.drive_keys[lane] = key;
        }
        Ok(())
    }

    /// Writes lane `lane`'s per-node power linearisation `P = base + coef·I`
    /// for one control interval. The coefficients reproduce the scalar
    /// plant's power computation (same expressions, reassociated at the
    /// interval level), with the per-domain totals recoverable as sums of
    /// node powers.
    fn fill_lane_linearisation(&mut self, lane: usize, ops: &IntervalOps, online_mask: &[bool; 4]) {
        let params = &self.params[lane];
        let core_nodes = self.thermal.big_core_nodes();
        let mut slot = 0;
        for (core, node) in core_nodes.iter().enumerate() {
            let (b, k) = if ops.active_is_big {
                if online_mask[core] {
                    let dynamic = ops.slot_dynamic[slot];
                    slot += 1;
                    (dynamic + ops.uncore_share, ops.volts * 0.25)
                } else {
                    (0.0, ops.volts * 0.25 * params.gated_leakage_fraction)
                }
            } else {
                (0.0, ops.idle_volts * 0.25 * params.gated_leakage_fraction)
            };
            self.base.set(node.0, lane, b);
            self.coef.set(node.0, lane, k);
        }
        let little = self.thermal.little_node().0;
        if ops.active_is_big {
            self.base.set(little, lane, 0.0);
            self.coef
                .set(little, lane, ops.idle_volts * params.gated_leakage_fraction);
        } else {
            self.base.set(little, lane, ops.little_base);
            self.coef.set(little, lane, ops.volts);
        }
        let gpu = self.thermal.gpu_node().0;
        self.base.set(gpu, lane, ops.gpu_dynamic);
        self.coef.set(gpu, lane, ops.gpu_volts);
        let memory = self.thermal.memory_node().0;
        self.base.set(memory, lane, ops.mem_power);
        self.coef.set(memory, lane, 0.0);
        let case = self.thermal.case_node().0;
        self.base.set(case, lane, 0.0);
        self.coef.set(case, lane, 0.0);
    }

    /// Zeroes lane `lane`'s power injection (used when the lane's interval
    /// setup failed: its temperatures keep relaxing, its powers are zero).
    fn zero_lane(&mut self, lane: usize) {
        for node in 0..self.base.rows() {
            self.base.set(node, lane, 0.0);
            self.coef.set(node, lane, 0.0);
        }
    }

    /// Fills the power rows of nodes without a leakage source (memory, case:
    /// the rows after `LEAK_ROWS`) once per interval — they are constant
    /// between control decisions, so the per-micro-step assembly only
    /// touches leakage-driven rows.
    fn prefill_constant_power_rows(&mut self) {
        let span = LEAK_ROWS * self.lanes;
        self.powers.as_mut_slice()[span..].copy_from_slice(&self.base.as_slice()[span..]);
    }

    /// One batched micro-step: leakage currents, node-power assembly, domain
    /// accumulation and the panel transition. Allocation-free.
    fn micro_step(&mut self) {
        let lanes = self.lanes;
        let PanelEngine {
            temps,
            powers,
            step_tmp,
            pass_tmp,
            base,
            coef,
            leak,
            currents,
            leak_temps,
            accum,
            leak_temp_rows,
            transitions,
            lane_transition,
            other_transitions,
            drive,
            steps_since_anchor,
            thermal,
            ..
        } = self;

        // Gather the leakage-relevant node temperatures into one contiguous
        // panel (six row copies), so anchoring and evaluation below are
        // single unit-stride passes over all rows × lanes cells.
        for (row, &temp_row) in leak_temp_rows.iter().enumerate() {
            leak_temps.row_mut(row).copy_from_slice(temps.row(temp_row));
        }
        // Each lane re-anchors every REANCHOR_STEPS micro-steps of its own,
        // counted from admission (which anchored it at its initial
        // temperature), never on a batch-wide clock.
        for (lane, steps) in steps_since_anchor.iter_mut().enumerate() {
            if *steps == LeakagePanel::REANCHOR_STEPS {
                leak.anchor_lane(lane, leak_temps.as_slice());
                *steps = 0;
            }
            *steps += 1;
        }
        leak.currents_into(leak_temps.as_slice(), currents.as_mut_slice());

        // Node power assembly: P = base + coef · I. The six leakage-driven
        // node rows coincide with the six current rows, so the whole
        // assembly is one fused span; the constant rows were prefilled at
        // interval setup.
        let span = LEAK_ROWS * lanes;
        numeric::simd::fused_mul_add_span(
            &base.as_slice()[..span],
            &coef.as_slice()[..span],
            currents.as_slice(),
            &mut powers.as_mut_slice()[..span],
        );

        // Per-domain power accumulation (big = the four core nodes, little,
        // gpu, memory — the per-domain totals are exactly the node sums).
        {
            let cores = thermal.big_core_nodes();
            let p = powers.as_slice();
            let (c0, c1, c2, c3) = (
                &p[cores[0].0 * lanes..cores[0].0 * lanes + lanes],
                &p[cores[1].0 * lanes..cores[1].0 * lanes + lanes],
                &p[cores[2].0 * lanes..cores[2].0 * lanes + lanes],
                &p[cores[3].0 * lanes..cores[3].0 * lanes + lanes],
            );
            let little_node = thermal.little_node().0 * lanes;
            let gpu_node = thermal.gpu_node().0 * lanes;
            let memory_node = thermal.memory_node().0 * lanes;
            let little = &p[little_node..little_node + lanes];
            let gpu = &p[gpu_node..gpu_node + lanes];
            let memory = &p[memory_node..memory_node + lanes];
            let acc = accum.as_mut_slice();
            let (acc_big, rest) = acc.split_at_mut(lanes);
            let (acc_little, rest) = rest.split_at_mut(lanes);
            let (acc_gpu, acc_mem) = rest.split_at_mut(lanes);
            for l in 0..lanes {
                acc_big[l] += c0[l] + c1[l] + c2[l] + c3[l];
                acc_little[l] += little[l];
                acc_gpu[l] += gpu[l];
                acc_mem[l] += memory[l];
            }
        }

        // Advance the thermal panel: lane 0's transition runs over every
        // lane. Each other transition in use runs over the whole panel too,
        // and only its own lanes' columns are kept: a lane's drive column
        // was computed for its own transition, and the bias kernel's result
        // for a lane does not depend on the other lanes, so every lane gets
        // the bits of a panel that holds it alone.
        transitions[lane_transition[0]]
            .transition
            .apply_into(temps, powers, drive, step_tmp);
        for &index in other_transitions.iter() {
            transitions[index]
                .transition
                .apply_into(temps, powers, drive, pass_tmp);
            for lane in (1..lanes).filter(|&lane| lane_transition[lane] == index) {
                let kept = pass_tmp.as_slice().iter().skip(lane).step_by(lanes);
                let out = step_tmp.as_mut_slice().iter_mut().skip(lane).step_by(lanes);
                for (out, &kept) in out.zip(kept) {
                    *out = kept;
                }
            }
        }
        std::mem::swap(temps, step_tmp);
    }
}

impl PlantEngine for PanelEngine {
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn node_count(&self) -> usize {
        self.temps.rows()
    }

    /// Rebuilds the lane's leakage models from the new mismatch factor,
    /// anchored at the new initial temperature, so the admitted lane never
    /// reads a stale or unanchored exponential. Its re-anchor cadence
    /// restarts from admission, so the admitted scenario's trajectory does
    /// not depend on when it was admitted, and the other lanes'
    /// temperatures, anchors and cadences stay as they were.
    fn admit(&mut self, lane: usize, params: PlantPowerParams) {
        assert!(lane < self.lanes, "lane index out of bounds");
        let [big, little, gpu] = true_leakage(&params);
        for row in 0..4 {
            self.leak.set_model(row, lane, &big, params.initial_temp_c);
        }
        self.leak.set_model(4, lane, &little, params.initial_temp_c);
        self.leak.set_model(5, lane, &gpu, params.initial_temp_c);
        for node in 0..self.temps.rows() {
            self.temps.set(node, lane, params.initial_temp_c);
        }
        self.steps_since_anchor[lane] = 0;
        self.params[lane] = params;
    }

    /// A lane whose interval setup fails (e.g. an unsupported frequency)
    /// has zero power injection for the interval.
    fn step_interval(
        &mut self,
        inputs: &[LaneInput<'_>],
        interval_s: f64,
        steps: &mut Vec<Result<PlantStep, SimError>>,
    ) -> Result<(), SimError> {
        steps.clear();
        if inputs.len() != self.lanes {
            return Err(SimError::InvalidConfig(
                "lane input count must match the batch width",
            ));
        }
        if !(interval_s > 0.0) {
            return Err(SimError::InvalidConfig("control interval must be positive"));
        }
        let micro_steps = micro_steps(interval_s);

        // Per-lane interval setup: power linearisation, transition and drive.
        for (lane, input) in inputs.iter().enumerate() {
            let (online_buf, online_mask, online_count) =
                online_cores(input.state, input.state.active_cluster);
            let ops = compute_interval_ops(
                &self.spec,
                &self.params[lane],
                input.state,
                input.demand,
                &online_buf[..online_count],
            );
            match ops {
                Ok(ops) => {
                    self.fill_lane_linearisation(lane, &ops, &online_mask);
                    // With zero online cores there is no node to carry the
                    // powered cluster's uncore share, but the scalar plant
                    // still bills it to the big domain — keep the averages
                    // equivalent.
                    self.uncore_orphan_w[lane] = if ops.active_is_big && online_count == 0 {
                        ops.uncore
                    } else {
                        0.0
                    };
                    self.lane_errors[lane] = None;
                }
                Err(e) => {
                    self.zero_lane(lane);
                    self.uncore_orphan_w[lane] = 0.0;
                    self.lane_errors[lane] = Some(e);
                }
            }
            let boost = self.spec.fan().conductance_boost_w_per_k(input.fan_level);
            self.select_transition(lane, boost, input.ambient_c)?;
        }
        let first = self.lane_transition[0];
        self.other_transitions.clear();
        for &index in &self.lane_transition[1..] {
            if index != first && !self.other_transitions.contains(&index) {
                self.other_transitions.push(index);
            }
        }
        self.prefill_constant_power_rows();

        self.accum.fill(0.0);
        for _ in 0..micro_steps {
            self.micro_step();
        }

        let scale = 1.0 / micro_steps as f64;
        steps.extend(inputs.iter().enumerate().map(|(lane, input)| {
            if let Some(e) = self.lane_errors[lane].take() {
                return Err(e);
            }
            let domain_power = DomainPower::new(
                self.accum.get(0, lane) * scale + self.uncore_orphan_w[lane],
                self.accum.get(1, lane) * scale,
                self.accum.get(2, lane) * scale,
                self.accum.get(3, lane) * scale,
            );
            let fan_power = self.spec.fan().power_w(input.fan_level);
            let platform_power_w =
                domain_power.total() + self.params[lane].board_base_w + fan_power;
            let work_done =
                throughput_units_per_s(&self.spec, input.state, input.demand) * interval_s;
            Ok(PlantStep {
                domain_power,
                core_temps_c: self.core_temps_c(lane),
                platform_power_w,
                work_done,
            })
        }));
        Ok(())
    }

    fn core_temps_c(&self, lane: usize) -> [f64; 4] {
        let cores = self.thermal.big_core_nodes();
        [
            self.temps.get(cores[0].0, lane),
            self.temps.get(cores[1].0, lane),
            self.temps.get(cores[2].0, lane),
            self.temps.get(cores[3].0, lane),
        ]
    }

    fn node_temps_into(&self, lane: usize, out: &mut [f64]) {
        self.temps.column_into(lane, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plant::PhysicalPlant;
    use soc_model::{FanLevel, PlatformState};
    use workload::Demand;

    fn demand() -> Demand {
        Demand {
            cpu_streams: 3.0,
            activity_factor: 0.85,
            gpu_utilization: 0.3,
            memory_intensity: 0.5,
            frequency_scalability: 0.9,
        }
    }

    /// Lane `lane`'s node temperatures, °C.
    fn node_temps(engine: &PanelEngine, lane: usize) -> Vec<f64> {
        let mut out = vec![0.0; engine.node_count()];
        engine.node_temps_into(lane, &mut out);
        out
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Every number a successful step reports, as bits.
    fn step_bits(step: &Result<PlantStep, SimError>) -> Vec<u64> {
        let step = step.as_ref().expect("lane step succeeds");
        let power = step.domain_power;
        let mut values = vec![
            power.big_w,
            power.little_w,
            power.gpu_w,
            power.memory_w,
            step.platform_power_w,
            step.work_done,
        ];
        values.extend(step.core_temps_c);
        bits(&values)
    }

    #[test]
    fn single_lane_batch_tracks_scalar_plant() {
        let spec = SocSpec::odroid_xu_e();
        let params = PlantPowerParams::default();
        let mut scalar = PhysicalPlant::new(spec.clone(), params);
        let mut batch = PanelEngine::new(spec.clone(), &[params]);
        let state = PlatformState::default_for(&spec);
        let d = demand();
        let input = [LaneInput {
            state: &state,
            demand: &d,
            fan_level: FanLevel::Off,
            ambient_c: 28.0,
        }];
        let mut steps = Vec::new();
        for _ in 0..600 {
            let scalar_step = scalar
                .step_interval(&state, &d, FanLevel::Off, 28.0, 0.1)
                .unwrap();
            batch.step_interval(&input, 0.1, &mut steps).unwrap();
            let batch_step = steps[0].as_ref().unwrap();
            assert_eq!(batch_step.work_done, scalar_step.work_done);
            assert!(
                (batch_step.platform_power_w - scalar_step.platform_power_w).abs() < 1e-9,
                "power diverged: {} vs {}",
                batch_step.platform_power_w,
                scalar_step.platform_power_w
            );
        }
        for (a, b) in node_temps(&batch, 0).iter().zip(scalar.node_temps_c()) {
            assert!((a - b).abs() < 1e-9, "trajectories diverged: {a} vs {b}");
        }
    }

    #[test]
    fn lanes_at_different_fan_levels_keep_their_solo_bits() {
        // Nine lanes (one SIMD chunk plus the scalar tail), each at its own
        // ambient and on its own fan schedule, against one-lane engines fed
        // the same inputs. The schedule runs through uniform intervals, lane
        // 0 alone at its level, four and then three levels live at once and
        // lanes switching level; every lane must keep its solo bits. Lanes 1
        // and 5 share parameters and ambient; the final hold keeps lane 1 at
        // `Full` and lane 5 at `Off`.
        const LANES: usize = 9;
        const HOLD: usize = 60;
        const LEVELS: [FanLevel; 4] = [
            FanLevel::Off,
            FanLevel::Base,
            FanLevel::Half,
            FanLevel::Full,
        ];
        let fan = |lane: usize, interval: usize| match interval {
            0..10 => FanLevel::Off,
            10..20 if lane == 0 => FanLevel::Full,
            10..20 => FanLevel::Half,
            20..40 => LEVELS[(lane / 2 + interval / 5) % 4],
            40..50 => LEVELS[lane % 3],
            50..HOLD => FanLevel::Base,
            _ if lane == 1 => FanLevel::Full,
            _ if lane == 5 => FanLevel::Off,
            _ => LEVELS[(lane + interval / 40) % 4],
        };
        let ambient = |lane: usize| [22.0, 26.0, 30.0, 34.0][lane % 4];
        let spec = SocSpec::odroid_xu_e();
        let params: Vec<PlantPowerParams> = (0..LANES)
            .map(|lane| PlantPowerParams {
                leakage_mismatch: 0.98 + 0.01 * (lane % 4) as f64,
                initial_temp_c: 40.0 + (lane % 4) as f64,
                ..PlantPowerParams::default()
            })
            .collect();
        let state = PlatformState::default_for(&spec);
        let d = demand();
        let mut batch = PanelEngine::new(spec.clone(), &params);
        let mut solos: Vec<PanelEngine> = params
            .iter()
            .map(|p| PanelEngine::new(spec.clone(), &[*p]))
            .collect();
        let (mut steps, mut solo_steps) = (Vec::new(), Vec::new());
        for interval in 0..HOLD + 300 {
            let inputs: Vec<LaneInput<'_>> = (0..LANES)
                .map(|lane| LaneInput {
                    state: &state,
                    demand: &d,
                    fan_level: fan(lane, interval),
                    ambient_c: ambient(lane),
                })
                .collect();
            batch.step_interval(&inputs, 0.1, &mut steps).unwrap();
            for (lane, solo) in solos.iter_mut().enumerate() {
                solo.step_interval(&inputs[lane..=lane], 0.1, &mut solo_steps)
                    .unwrap();
                assert_eq!(
                    step_bits(&steps[lane]),
                    step_bits(&solo_steps[0]),
                    "lane {lane} interval {interval}"
                );
            }
        }
        for (lane, solo) in solos.iter().enumerate() {
            assert_eq!(
                bits(&node_temps(&batch, lane)),
                bits(&node_temps(solo, 0)),
                "lane {lane} node temperatures"
            );
        }
        let hot = batch.core_temps_c(5)[0];
        let cooled = batch.core_temps_c(1)[0];
        assert!(
            cooled < hot - 5.0,
            "fanned lane must run cooler: {hot} vs {cooled}"
        );
    }

    #[test]
    fn zero_online_cores_keep_uncore_power_equivalent_to_scalar() {
        // With the big cluster powered but every core offline, no node can
        // carry the uncore share; the scalar plant still bills the uncore to
        // the big domain and the batch must agree.
        let spec = SocSpec::odroid_xu_e();
        let params = PlantPowerParams::default();
        let mut scalar = PhysicalPlant::new(spec.clone(), params);
        let mut batch = PanelEngine::new(spec.clone(), &[params]);
        let mut state = PlatformState::default_for(&spec);
        for core in 0..4 {
            state.set_core_online(soc_model::ClusterKind::Big, core, false);
        }
        let d = demand();
        let input = [LaneInput {
            state: &state,
            demand: &d,
            fan_level: FanLevel::Off,
            ambient_c: 28.0,
        }];
        let mut steps = Vec::new();
        for _ in 0..50 {
            let scalar_step = scalar
                .step_interval(&state, &d, FanLevel::Off, 28.0, 0.1)
                .unwrap();
            batch.step_interval(&input, 0.1, &mut steps).unwrap();
            let batch_step = steps[0].as_ref().unwrap();
            assert!(
                (batch_step.domain_power.big_w - scalar_step.domain_power.big_w).abs() < 1e-9,
                "big power diverged with zero online cores: {} vs {}",
                batch_step.domain_power.big_w,
                scalar_step.domain_power.big_w
            );
        }
        for (a, b) in node_temps(&batch, 0).iter().zip(scalar.node_temps_c()) {
            assert!((a - b).abs() < 1e-9, "trajectories diverged: {a} vs {b}");
        }
    }

    #[test]
    fn transition_cache_churn_stays_correct() {
        // Ambient churn through the drive columns — both across intervals
        // (one lane, ambient changing every interval) and within a single
        // interval (many lanes, all-distinct ambients sharing one fan
        // transition). Lane results must keep matching the scalar plant.
        let spec = SocSpec::odroid_xu_e();
        let params = PlantPowerParams::default();
        let d = demand();

        let mut scalar = PhysicalPlant::new(spec.clone(), params);
        let mut batch = PanelEngine::new(spec.clone(), &[params]);
        let state = PlatformState::default_for(&spec);
        let mut steps = Vec::new();
        for i in 0..80 {
            let ambient = 20.0 + 0.25 * i as f64;
            scalar
                .step_interval(&state, &d, FanLevel::Off, ambient, 0.1)
                .unwrap();
            let input = [LaneInput {
                state: &state,
                demand: &d,
                fan_level: FanLevel::Off,
                ambient_c: ambient,
            }];
            batch.step_interval(&input, 0.1, &mut steps).unwrap();
            assert!(steps[0].is_ok());
        }
        for (a, b) in node_temps(&batch, 0).iter().zip(scalar.node_temps_c()) {
            assert!((a - b).abs() < 1e-9, "churned lane diverged: {a} vs {b}");
        }

        let lanes = 40;
        let wide_params = vec![params; lanes];
        let mut wide = PanelEngine::new(spec.clone(), &wide_params);
        let ambients: Vec<f64> = (0..lanes).map(|l| 20.0 + 0.5 * l as f64).collect();
        for _ in 0..5 {
            let inputs: Vec<LaneInput<'_>> = ambients
                .iter()
                .map(|&ambient_c| LaneInput {
                    state: &state,
                    demand: &d,
                    fan_level: FanLevel::Off,
                    ambient_c,
                })
                .collect();
            wide.step_interval(&inputs, 0.1, &mut steps).unwrap();
            assert!(steps.iter().all(Result::is_ok));
        }
        for (lane, &ambient) in ambients.iter().enumerate() {
            let mut twin = PhysicalPlant::new(spec.clone(), params);
            for _ in 0..5 {
                twin.step_interval(&state, &d, FanLevel::Off, ambient, 0.1)
                    .unwrap();
            }
            for (a, b) in node_temps(&wide, lane).iter().zip(twin.node_temps_c()) {
                assert!(
                    (a - b).abs() < 1e-9,
                    "wide-batch lane {lane} diverged: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn batch_rejects_malformed_calls() {
        let spec = SocSpec::odroid_xu_e();
        let params = PlantPowerParams::default();
        let mut batch = PanelEngine::new(spec.clone(), &[params]);
        let state = PlatformState::default_for(&spec);
        let d = demand();
        let input = LaneInput {
            state: &state,
            demand: &d,
            fan_level: FanLevel::Off,
            ambient_c: 28.0,
        };
        let mut steps = Vec::new();
        assert!(batch
            .step_interval(&[input, input], 0.1, &mut steps)
            .is_err());
        assert!(batch.step_interval(&[input], 0.0, &mut steps).is_err());
    }

    #[test]
    fn lane_admitted_mid_sweep_matches_a_fresh_scalar_run() {
        // The retire→admit primitive: run a 2-lane batch for a while (so
        // lane 0's re-anchor cadence is mid-stride), recycle lane 1 for a
        // new scenario with different power parameters at another ambient,
        // and check that (a) the admitted lane's trajectory matches a fresh
        // scalar plant of the new scenario to ≤ 1e-9 °C — in particular it
        // never reads an unanchored leakage exponential (which would show up
        // as NaN temperatures) — (b) it is bit-identical to the same
        // scenario in a fresh one-lane batch, so admission time leaves no
        // trace, and (c) the surviving lane 0 stays on its original
        // trajectory.
        let spec = SocSpec::odroid_xu_e();
        let params = PlantPowerParams::default();
        let mut batch = PanelEngine::new(spec.clone(), &[params, params]);
        let mut survivor = PhysicalPlant::new(spec.clone(), params);
        let state = PlatformState::default_for(&spec);
        let d = demand();
        let fresh_ambient_c = 31.0;
        let input = |state, ambient_c| LaneInput {
            state,
            demand: &d,
            fan_level: FanLevel::Off,
            ambient_c,
        };
        let mut steps = Vec::new();
        // 7 intervals × 10 micro-steps: lane 0 is 70 % 16 = 6 micro-steps
        // past its last re-anchor when lane 1 is admitted.
        for _ in 0..7 {
            batch
                .step_interval(&[input(&state, 28.0), input(&state, 28.0)], 0.1, &mut steps)
                .unwrap();
            survivor
                .step_interval(&state, &d, FanLevel::Off, 28.0, 0.1)
                .unwrap();
        }

        let fresh_params = PlantPowerParams {
            leakage_mismatch: 0.97,
            initial_temp_c: 38.5,
            ..PlantPowerParams::default()
        };
        batch.admit(1, fresh_params);
        assert_eq!(batch.core_temps_c(1), [38.5; 4]);
        let mut fresh = PhysicalPlant::new(spec.clone(), fresh_params);
        let mut alone = PanelEngine::new(spec.clone(), &[fresh_params]);

        let mut alone_steps = Vec::new();
        for i in 0..200 {
            batch
                .step_interval(
                    &[input(&state, 28.0), input(&state, fresh_ambient_c)],
                    0.1,
                    &mut steps,
                )
                .unwrap();
            let survivor_step = survivor
                .step_interval(&state, &d, FanLevel::Off, 28.0, 0.1)
                .unwrap();
            let fresh_step = fresh
                .step_interval(&state, &d, FanLevel::Off, fresh_ambient_c, 0.1)
                .unwrap();
            alone
                .step_interval(&[input(&state, fresh_ambient_c)], 0.1, &mut alone_steps)
                .unwrap();
            assert_eq!(
                steps[1].as_ref().expect("lane step succeeds"),
                alone_steps[0].as_ref().expect("lone step succeeds"),
                "admitted lane departs from its one-lane batch at interval {i}"
            );
            for (lane, scalar_step) in [(0usize, &survivor_step), (1, &fresh_step)] {
                let batch_step = steps[lane].as_ref().expect("lane step succeeds");
                assert!(
                    batch_step.core_temps_c.iter().all(|t| t.is_finite()),
                    "lane {lane} produced non-finite temperatures at interval {i}"
                );
                assert!(
                    (batch_step.platform_power_w - scalar_step.platform_power_w).abs() < 1e-9,
                    "lane {lane} power diverged at interval {i}"
                );
            }
        }
        for (lane, scalar) in [(0usize, &survivor), (1, &fresh)] {
            for (a, b) in node_temps(&batch, lane).iter().zip(scalar.node_temps_c()) {
                assert!(
                    (a - b).abs() < 1e-9,
                    "recycled-batch lane {lane} diverged: {a} vs {b}"
                );
            }
        }
        assert_eq!(
            bits(&node_temps(&batch, 1)),
            bits(&node_temps(&alone, 0)),
            "admitted lane's node temperatures differ from its one-lane batch"
        );
    }
}
