//! Mixed-precision batched plant: f32 panel state with f64 anchoring.
//!
//! [`MixedBatchPlant`] is the single-precision twin of
//! [`BatchPlant`](crate::batch::BatchPlant): the same structure-of-arrays
//! layout and the same per-interval control contract, but every panel the
//! micro-step hot loops stream — temperatures, node powers, the
//! `P = base + coef·I` linearisation and the leakage currents — is stored at
//! f32 width, so each AVX2 vector carries 8 lanes instead of 4 and the
//! per-micro-step memory traffic halves.
//!
//! Precision is split, not sacrificed, along the lines the error analysis
//! actually cares about:
//!
//! * **the temperature baseline stays f64** — the f32 panels never hold
//!   absolute temperatures. Each lane's node temperatures are carried as
//!   `T = T0 + x`, where the baseline `T0` is an f64 vector advanced once
//!   per control interval and `x` is the f32 *intra-interval deviation*
//!   (zero at every interval start, at most a few tenths of a kelvin by
//!   interval end). Integrating `x⁺ = R·x + S·p + c + (R − I)·T0` instead of
//!   `T⁺ = R·T + …` keeps the f32 rounding magnitudes at the size of the
//!   per-step *increments*, not the ~25–95 °C state, so micro-step rounding
//!   cannot random-walk the slow thermal modes out of budget — the
//!   `c + (R − I)·T0` drive is computed in exact f64 from the undemoted
//!   transition at every rebaseline and demoted as a constant bias panel
//!   that the transition apply consumes directly;
//! * **per-interval setup stays f64** — `compute_interval_ops`, the power
//!   linearisation coefficients and the RK4 transition matrices are computed
//!   in f64 exactly as in the f64 batch and demoted *once per control
//!   interval* ([`thermal_model::BatchStepTransitionF32::from_f64`]);
//! * **leakage anchors stay f64** — the `libm` exponential anchor of the
//!   [`power_model::LeakagePanelF32`] is evaluated in f64 every re-anchor
//!   and demoted, so f32 rounding only ever touches the short inter-anchor
//!   drift spans;
//! * **reductions stay f64** — per-domain power accumulation and the energy
//!   integral promote each f32 node power to f64 before summing, so
//!   interval-average powers do not lose precision to long f32 sums.
//!
//! What remains at f32 is exactly the bandwidth-bound integrator inner
//! loops, validated against a ≤ 1e-3 °C trajectory budget (see
//! `tests/mixed_precision.rs` and the `mixed_precision` bench).

use numeric::{Panel, PanelF32};
use power_model::{DomainPower, LeakagePanelF32, LeakageParams};
use soc_model::{PlatformState, SocSpec};
use thermal_model::{BatchStepTransition, BatchStepTransitionF32, ExynosThermalNetwork};
use workload::Demand;

use crate::engine::LaneInput;
use crate::plant::{
    compute_interval_ops, online_cores, scaled, throughput_units_per_s, IntervalOps,
    PlantPowerParams, PlantStep,
};
use crate::SimError;

/// Number of leakage-current rows the batch evaluates per micro-step (see
/// [`crate::batch::BatchPlant`]).
const LEAK_ROWS: usize = 6;

/// Control intervals a baseline (and its `c + (R − I)·T0` drive) stays valid
/// for before the accumulated f32 deviation is folded back into the f64
/// baseline and the drive recomputed. Amortises the per-rebaseline f64 work
/// (one `n × n` mat-vec per lane plus the panel demotions) without touching
/// the error budget: the deviation grows to at most a few kelvin over eight
/// 100 ms intervals, so its f32 rounding stays well under ~1e-6 K per
/// operation — more than two orders below the documented 1e-3 °C trajectory
/// budget (validated in `tests/mixed_precision.rs`).
const REBASELINE_INTERVALS: usize = 8;

/// A cached transition together with the (fan boost, ambient) key it was
/// built for: the exact f64 form and its ambient drive (needed at every
/// rebaseline to fold the f64 baseline into the delta drive) and its demoted
/// f32 twin the micro-step hot loop consumes.
#[derive(Debug, Clone)]
struct TransitionEntry {
    fan_bits: u64,
    ambient_bits: u64,
    full: BatchStepTransition,
    ambient_drive: Vec<f64>,
    demoted: BatchStepTransitionF32,
}

/// K physical plants advanced in lockstep at f32 panel width with f64
/// anchoring (see the module docs). The public surface mirrors
/// [`crate::batch::BatchPlant`] so [`crate::MixedPanelEngine`] can drive it
/// through the same [`crate::PlantEngine`] seam.
#[derive(Debug, Clone)]
pub struct MixedBatchPlant {
    spec: SocSpec,
    thermal: ExynosThermalNetwork,
    lanes: usize,
    plant_dt_s: f64,
    params: Vec<PlantPowerParams>,
    /// f64 per-lane node-temperature baseline `T0`, °C; row-major
    /// `node_count × lanes`, advanced at every rebaseline (at most every
    /// [`REBASELINE_INTERVALS`] control intervals). The authoritative
    /// temperature state — f32 never holds absolute temperatures.
    baseline: Vec<f64>,
    /// f32 demotion of the baseline, refreshed at every rebaseline; feeds
    /// the absolute-temperature leakage reads (`T ≈ f32(T0) + x`).
    baseline_f32: PanelF32,
    /// Temperature deviation from the baseline `x = T − T0`; `node_count ×
    /// lanes`, f32, zero at every rebaseline.
    delta: PanelF32,
    /// Delta drive `c + (R − I)·T0` (ambient drive plus baseline drift),
    /// computed in exact f64 at every rebaseline and demoted;
    /// `node_count × lanes`. Consumed as the transition apply's bias panel.
    drive: PanelF32,
    /// Per-lane f64 accumulator row for the vectorised drive mat-vec.
    drive_scratch: Vec<f64>,
    /// Node power injections, W; `node_count × lanes`, f32.
    powers: PanelF32,
    /// Integrator scratch; `node_count × lanes`, f32.
    step_tmp: PanelF32,
    /// Per-interval power linearisation `P = base + coef · I`, demoted from
    /// the f64 interval setup; both `node_count × lanes`, f32.
    base: PanelF32,
    coef: PanelF32,
    /// Batched f32 leakage models (f64-anchored) and their current values;
    /// `LEAK_ROWS × lanes`.
    leak: LeakagePanelF32,
    currents: PanelF32,
    /// Per-micro-step gather of the leakage-relevant node temperatures;
    /// `LEAK_ROWS × lanes`.
    leak_temps: PanelF32,
    /// Whether node rows `0..LEAK_ROWS` line up with the leakage rows,
    /// enabling the fused assembly span.
    aligned_leak_rows: bool,
    /// Per-domain power accumulators (big, little, gpu, memory); `4 × lanes`,
    /// kept in f64 — reductions never run at f32.
    accum: Panel,
    /// Per-lane big-cluster uncore power that lands in no node injection
    /// (see [`crate::batch::BatchPlant`]).
    uncore_orphan_w: Vec<f64>,
    /// Temperature-panel row feeding each leakage row.
    leak_temp_rows: [usize; LEAK_ROWS],
    /// Leakage row feeding each node's power assembly (`usize::MAX` = none).
    node_leak_row: Vec<usize>,
    /// Accumulator row (big/little/gpu/memory) each node's power feeds
    /// (`usize::MAX` = none, e.g. the case node).
    node_domain: Vec<usize>,
    /// The `(state, demand)` each lane's linearisation (and cached
    /// throughput) was last computed for. The interval setup — power
    /// linearisation, uncore orphan, throughput — is a pure function of
    /// `(spec, params, state, demand)`, so when a lane's inputs repeat the
    /// stored coefficients are still exact and the whole f64 setup is
    /// skipped. `None` after construction, admission or a failed setup.
    setup_cache: Vec<Option<(PlatformState, Demand)>>,
    /// Per-lane `throughput_units_per_s` for the cached setup.
    throughput_cache: Vec<f64>,
    transitions: Vec<TransitionEntry>,
    lane_transition: Vec<usize>,
    /// The `(fan boost, ambient)` key each lane's current drive was computed
    /// with; a mismatch against the interval's transition key forces a
    /// rebaseline. `u64::MAX` pairs (the initial / post-admission state)
    /// match no real key.
    drive_keys: Vec<(u64, u64)>,
    /// Control intervals advanced since the last rebaseline.
    intervals_since_rebaseline: usize,
    /// Micro-steps since the leakage anchors were last refreshed.
    steps_since_anchor: usize,
    /// Per-lane column scratch for the diverged-transition fallback.
    col_scratch: Vec<f32>,
}

impl MixedBatchPlant {
    /// Creates a batch of `params.len()` lanes, each starting at its
    /// configured initial temperature.
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty.
    pub fn new(spec: SocSpec, params: &[PlantPowerParams]) -> Self {
        assert!(!params.is_empty(), "a batch plant needs at least one lane");
        let thermal = ExynosThermalNetwork::odroid_xu_e();
        let node_count = thermal.node_count();
        let lanes = params.len();

        let mut baseline = vec![0.0f64; node_count * lanes];
        let mut leak = LeakagePanelF32::filled(
            LEAK_ROWS,
            lanes,
            &scaled(LeakageParams::exynos5410_big(), params[0].leakage_mismatch),
            params[0].initial_temp_c,
        );
        for (lane, p) in params.iter().enumerate() {
            for node in 0..node_count {
                baseline[node * lanes + lane] = p.initial_temp_c;
            }
            let big = scaled(LeakageParams::exynos5410_big(), p.leakage_mismatch);
            let little = scaled(LeakageParams::exynos5410_little(), p.leakage_mismatch);
            let gpu = scaled(LeakageParams::exynos5410_gpu(), p.leakage_mismatch);
            for row in 0..4 {
                leak.set_model(row, lane, &big, p.initial_temp_c);
            }
            leak.set_model(4, lane, &little, p.initial_temp_c);
            leak.set_model(5, lane, &gpu, p.initial_temp_c);
        }

        let core_nodes = thermal.big_core_nodes();
        let leak_temp_rows = [
            core_nodes[0].0,
            core_nodes[1].0,
            core_nodes[2].0,
            core_nodes[3].0,
            thermal.case_node().0,
            thermal.gpu_node().0,
        ];
        let mut node_leak_row = vec![usize::MAX; node_count];
        for (row, core) in core_nodes.iter().enumerate() {
            node_leak_row[core.0] = row;
        }
        node_leak_row[thermal.little_node().0] = 4;
        node_leak_row[thermal.gpu_node().0] = 5;
        let aligned_leak_rows = node_leak_row.iter().enumerate().all(|(node, &row)| {
            if node < LEAK_ROWS {
                row == node
            } else {
                row == usize::MAX
            }
        });
        let mut node_domain = vec![usize::MAX; node_count];
        for core in core_nodes.iter() {
            node_domain[core.0] = 0;
        }
        node_domain[thermal.little_node().0] = 1;
        node_domain[thermal.gpu_node().0] = 2;
        node_domain[thermal.memory_node().0] = 3;

        MixedBatchPlant {
            spec,
            lanes,
            plant_dt_s: 0.01,
            params: params.to_vec(),
            baseline,
            baseline_f32: PanelF32::zeros(node_count, lanes),
            delta: PanelF32::zeros(node_count, lanes),
            drive: PanelF32::zeros(node_count, lanes),
            drive_scratch: vec![0.0; lanes],
            powers: PanelF32::zeros(node_count, lanes),
            step_tmp: PanelF32::zeros(node_count, lanes),
            base: PanelF32::zeros(node_count, lanes),
            coef: PanelF32::zeros(node_count, lanes),
            leak,
            currents: PanelF32::zeros(LEAK_ROWS, lanes),
            leak_temps: PanelF32::zeros(LEAK_ROWS, lanes),
            aligned_leak_rows,
            accum: Panel::zeros(4, lanes),
            uncore_orphan_w: vec![0.0; lanes],
            leak_temp_rows,
            node_leak_row,
            node_domain,
            setup_cache: vec![None; lanes],
            throughput_cache: vec![0.0; lanes],
            transitions: Vec::new(),
            lane_transition: vec![0; lanes],
            drive_keys: vec![(u64::MAX, u64::MAX); lanes],
            intervals_since_rebaseline: 0,
            steps_since_anchor: 0,
            col_scratch: vec![0.0; node_count],
            thermal,
        }
    }

    /// Number of scenario lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of thermal nodes per lane.
    pub fn node_count(&self) -> usize {
        self.delta.rows()
    }

    /// Lane `lane`'s current true temperature of node `node`, °C: the f64
    /// baseline plus the f32 deviation accumulated since the last
    /// rebaseline. This sum is exactly what the next rebaseline folds into
    /// the baseline, so reads and state advancement always agree.
    #[inline]
    fn node_temp(&self, node: usize, lane: usize) -> f64 {
        self.baseline[node * self.lanes + lane] + f64::from(self.delta.get(node, lane))
    }

    /// Writes lane `lane`'s current true temperature of every thermal node
    /// (°C) into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `out` does not cover
    /// [`MixedBatchPlant::node_count`] nodes.
    pub fn node_temps_into(&self, lane: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.delta.rows(), "node output length");
        for (node, slot) in out.iter_mut().enumerate() {
            *slot = self.node_temp(node, lane);
        }
    }

    /// Lane `lane`'s current true hotspot (big-core) temperatures, °C.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn core_temps_c(&self, lane: usize) -> [f64; 4] {
        let cores = self.thermal.big_core_nodes();
        [
            self.node_temp(cores[0].0, lane),
            self.node_temp(cores[1].0, lane),
            self.node_temp(cores[2].0, lane),
            self.node_temp(cores[3].0, lane),
        ]
    }

    /// Re-initialises lane `lane` for a new scenario mid-batch (see
    /// [`crate::batch::BatchPlant::admit_lane`]): new power parameters,
    /// freshly anchored leakage models, every node at the new initial
    /// temperature; all other lanes untouched.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn admit_lane(&mut self, lane: usize, params: PlantPowerParams) {
        assert!(lane < self.lanes, "lane index out of bounds");
        let big = scaled(LeakageParams::exynos5410_big(), params.leakage_mismatch);
        let little = scaled(LeakageParams::exynos5410_little(), params.leakage_mismatch);
        let gpu = scaled(LeakageParams::exynos5410_gpu(), params.leakage_mismatch);
        for row in 0..4 {
            self.leak.set_model(row, lane, &big, params.initial_temp_c);
        }
        self.leak.set_model(4, lane, &little, params.initial_temp_c);
        self.leak.set_model(5, lane, &gpu, params.initial_temp_c);
        for node in 0..self.delta.rows() {
            self.baseline[node * self.lanes + lane] = params.initial_temp_c;
            self.delta.set(node, lane, 0.0);
        }
        // The lane's drive no longer matches its baseline: force a
        // rebaseline on the next interval. The setup cache keys on
        // `(state, demand)` with `params` fixed, so admission invalidates it.
        self.drive_keys[lane] = (u64::MAX, u64::MAX);
        self.setup_cache[lane] = None;
        self.params[lane] = params;
    }

    /// Looks up (or builds in f64, demotes and caches) the transition for
    /// one (fan boost, ambient) key.
    fn ensure_transition(&mut self, boost_w_per_k: f64, ambient_c: f64) -> Result<usize, SimError> {
        let key = (boost_w_per_k.to_bits(), ambient_c.to_bits());
        if let Some(found) = self
            .transitions
            .iter()
            .position(|t| (t.fan_bits, t.ambient_bits) == key)
        {
            return Ok(found);
        }
        let boost = self.thermal.fan_boost(boost_w_per_k);
        let full = self
            .thermal
            .network()
            .batch_step_transition(boost, self.plant_dt_s)?;
        let mut ambient_drive = vec![0.0; full.node_count()];
        full.ambient_drive_into(ambient_c, &mut ambient_drive);
        let demoted = BatchStepTransitionF32::from_f64(&full);
        self.transitions.push(TransitionEntry {
            fan_bits: key.0,
            ambient_bits: key.1,
            full,
            ambient_drive,
            demoted,
        });
        Ok(self.transitions.len() - 1)
    }

    /// Writes lane `lane`'s per-node power linearisation `P = base + coef·I`
    /// for one control interval: the coefficients are computed in f64 exactly
    /// as by the f64 batch and demoted here, once per interval.
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
            self.base.set(node.0, lane, b as f32);
            self.coef.set(node.0, lane, k as f32);
        }
        let little = self.thermal.little_node().0;
        if ops.active_is_big {
            self.base.set(little, lane, 0.0);
            self.coef.set(
                little,
                lane,
                (ops.idle_volts * params.gated_leakage_fraction) as f32,
            );
        } else {
            self.base.set(little, lane, ops.little_base as f32);
            self.coef.set(little, lane, ops.volts as f32);
        }
        let gpu = self.thermal.gpu_node().0;
        self.base.set(gpu, lane, ops.gpu_dynamic as f32);
        self.coef.set(gpu, lane, ops.gpu_volts as f32);
        let memory = self.thermal.memory_node().0;
        self.base.set(memory, lane, ops.mem_power as f32);
        self.coef.set(memory, lane, 0.0);
        let case = self.thermal.case_node().0;
        self.base.set(case, lane, 0.0);
        self.coef.set(case, lane, 0.0);
    }

    /// Zeroes lane `lane`'s power injection (failed interval setup).
    fn zero_lane(&mut self, lane: usize) {
        for node in 0..self.base.rows() {
            self.base.set(node, lane, 0.0);
            self.coef.set(node, lane, 0.0);
        }
    }

    /// Advances every lane by one control interval (allocating convenience
    /// wrapper over [`MixedBatchPlant::step_interval_into`]).
    ///
    /// # Errors
    ///
    /// See [`MixedBatchPlant::step_interval_into`].
    pub fn step_interval(
        &mut self,
        inputs: &[LaneInput<'_>],
        interval_s: f64,
    ) -> Result<Vec<Result<PlantStep, SimError>>, SimError> {
        let mut steps = Vec::with_capacity(self.lanes);
        self.step_interval_into(inputs, interval_s, &mut steps)?;
        Ok(steps)
    }

    /// Advances every lane by one control interval with per-lane inputs held
    /// constant, replacing `steps` with one [`PlantStep`] result per lane —
    /// the same contract as
    /// [`crate::batch::BatchPlant::step_interval_into`], at f32 panel width.
    ///
    /// # Errors
    ///
    /// Returns a batch-level error only for malformed calls: a lane-input
    /// count that does not match [`MixedBatchPlant::lanes`] or a
    /// non-positive interval. `steps` is left empty in that case.
    pub fn step_interval_into(
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
        let micro_steps = (interval_s / self.plant_dt_s).round().max(1.0) as usize;

        // Bounded exactly like the f64 batch: eviction is only safe between
        // intervals, while `lane_transition` holds no live indices.
        if self.transitions.len() >= 32 {
            self.transitions.clear();
        }

        // Per-lane interval setup in f64: power linearisation + transition
        // key (demoted on store). The linearisation, uncore orphan and
        // throughput are pure functions of `(spec, params, state, demand)`,
        // so a lane whose inputs repeat the previous computation keeps the
        // stored coefficients untouched — in sweep steady state this skips
        // the whole f64 setup per lane.
        let mut lane_errors: Vec<Option<SimError>> = Vec::with_capacity(self.lanes);
        for (lane, input) in inputs.iter().enumerate() {
            let cached = self.setup_cache[lane]
                .as_ref()
                .is_some_and(|(s, d)| s == input.state && d == input.demand);
            if cached {
                lane_errors.push(None);
            } else {
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
                        self.uncore_orphan_w[lane] = if ops.active_is_big && online_count == 0 {
                            ops.uncore
                        } else {
                            0.0
                        };
                        self.throughput_cache[lane] =
                            throughput_units_per_s(&self.spec, input.state, input.demand);
                        self.setup_cache[lane] = Some((input.state.clone(), *input.demand));
                        lane_errors.push(None);
                    }
                    Err(e) => {
                        self.zero_lane(lane);
                        self.uncore_orphan_w[lane] = 0.0;
                        self.setup_cache[lane] = None;
                        lane_errors.push(Some(e));
                    }
                }
            }
            let boost = self.spec.fan().conductance_boost_w_per_k(input.fan_level);
            let index = self.ensure_transition(boost, input.ambient_c)?;
            self.lane_transition[lane] = index;
        }
        let uniform = self
            .lane_transition
            .iter()
            .all(|&i| i == self.lane_transition[0]);
        self.prefill_constant_power_rows();

        // Rebaseline when any lane's transition key changed (fan / ambient /
        // admission) or the amortisation horizon ran out: fold the f32
        // deviations back into the f64 baseline, demote the new `T0` for the
        // leakage reads and recompute the constant delta drive `(R − I)·T0`
        // from each lane's *undemoted* transition — all in f64, so the
        // micro-step rounding only ever touches increment-sized values.
        let keys_current =
            self.lane_transition
                .iter()
                .zip(&self.drive_keys)
                .all(|(&index, &key)| {
                    let t = &self.transitions[index];
                    (t.fan_bits, t.ambient_bits) == key
                });
        if !keys_current || self.intervals_since_rebaseline >= REBASELINE_INTERVALS {
            self.rebaseline(uniform);
        }
        self.intervals_since_rebaseline += 1;

        self.accum.fill(0.0);
        for _ in 0..micro_steps {
            self.micro_step(uniform);
        }

        // Constant-power rows (no leakage source) hold the same injection
        // for the whole interval, so their contribution to the per-domain
        // sums is `micro_steps × P` — added once here instead of every
        // micro-step.
        {
            let MixedBatchPlant {
                powers,
                accum,
                node_domain,
                node_leak_row,
                ..
            } = &mut *self;
            let k = micro_steps as f64;
            for (node, &dom) in node_domain.iter().enumerate() {
                if dom == usize::MAX || node_leak_row[node] != usize::MAX {
                    continue;
                }
                let p = powers.row(node);
                for (a, &v) in accum.row_mut(dom).iter_mut().zip(p) {
                    *a += k * f64::from(v);
                }
            }
        }

        let scale = 1.0 / micro_steps as f64;
        steps.extend(inputs.iter().enumerate().map(|(lane, input)| {
            if let Some(e) = lane_errors[lane].take() {
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
            let work_done = self.throughput_cache[lane] * interval_s;
            Ok(PlantStep {
                domain_power,
                core_temps_c: self.core_temps_c(lane),
                platform_power_w,
                work_done,
            })
        }));
        Ok(())
    }

    /// Folds the accumulated f32 deviation into the f64 baseline, demotes
    /// the new baseline for the leakage reads and recomputes each lane's
    /// `c + (R − I)·T0` delta drive in exact f64. Runs at most once every
    /// [`REBASELINE_INTERVALS`] control intervals (earlier when a lane's
    /// transition key changes or a lane is admitted).
    fn rebaseline(&mut self, uniform: bool) {
        let n = self.delta.rows();
        let lanes = self.lanes;

        // Fold `x` into `T0` and zero the deviation panel; both rows are
        // contiguous lane spans, so the promote-and-add vectorises.
        for node in 0..n {
            let row = self.delta.row_mut(node);
            let base = &mut self.baseline[node * lanes..(node + 1) * lanes];
            for (b, x) in base.iter_mut().zip(row.iter_mut()) {
                *b += f64::from(*x);
                *x = 0.0;
            }
        }

        let MixedBatchPlant {
            baseline,
            baseline_f32,
            drive,
            drive_scratch,
            transitions,
            lane_transition,
            ..
        } = self;
        if uniform {
            // One transition for every lane: compute the drive row-by-row as
            // a lane-contiguous f64 mat-vec,
            // `drive_i = c_i + Σ_j r_ij · T0_j − T0_i` (the transition's own
            // ambient drive `c` folded in, so the micro-step's bias panel
            // carries the whole constant term), then demote the drive and
            // the baseline in full-row passes.
            let entry = &transitions[lane_transition[0]];
            let r = entry.full.r().as_slice();
            let amb = &entry.ambient_drive;
            for node in 0..n {
                let acc = &mut drive_scratch[..lanes];
                for (a, &t) in acc.iter_mut().zip(&baseline[node * lanes..]) {
                    *a = amb[node] - t;
                }
                for (j, &rij) in r[node * n..(node + 1) * n].iter().enumerate() {
                    let src = &baseline[j * lanes..(j + 1) * lanes];
                    for (a, &t) in acc.iter_mut().zip(src) {
                        *a += rij * t;
                    }
                }
                for (slot, &a) in drive.row_mut(node).iter_mut().zip(acc.iter()) {
                    *slot = a as f32;
                }
                let t0 = &baseline[node * lanes..(node + 1) * lanes];
                for (slot, &t) in baseline_f32.row_mut(node).iter_mut().zip(t0) {
                    *slot = t as f32;
                }
            }
        } else {
            for lane in 0..lanes {
                let entry = &transitions[lane_transition[lane]];
                let r = entry.full.r().as_slice();
                let amb = &entry.ambient_drive;
                for node in 0..n {
                    let t0 = baseline[node * lanes + lane];
                    baseline_f32.set(node, lane, t0 as f32);
                    let mut acc = amb[node] - t0;
                    for (j, rij) in r[node * n..(node + 1) * n].iter().enumerate() {
                        acc += rij * baseline[j * lanes + lane];
                    }
                    drive.set(node, lane, acc as f32);
                }
            }
        }

        for (key, &index) in self.drive_keys.iter_mut().zip(&self.lane_transition) {
            let t = &self.transitions[index];
            *key = (t.fan_bits, t.ambient_bits);
        }
        self.intervals_since_rebaseline = 0;
    }

    /// Fills the power rows of nodes without a leakage source once per
    /// interval.
    fn prefill_constant_power_rows(&mut self) {
        for node in 0..self.powers.rows() {
            if self.node_leak_row[node] == usize::MAX {
                let MixedBatchPlant { powers, base, .. } = self;
                powers.row_mut(node).copy_from_slice(base.row(node));
            }
        }
    }

    /// One batched f32 micro-step: leakage currents, node-power assembly,
    /// f64 domain accumulation and the panel transition. Allocation-free.
    fn micro_step(&mut self, uniform: bool) {
        let lanes = self.lanes;
        let MixedBatchPlant {
            baseline_f32,
            delta,
            drive,
            powers,
            step_tmp,
            base,
            coef,
            leak,
            currents,
            leak_temps,
            accum,
            leak_temp_rows,
            node_leak_row,
            node_domain,
            aligned_leak_rows,
            transitions,
            lane_transition,
            steps_since_anchor,
            col_scratch,
            ..
        } = self;

        // Leakage currents at absolute temperatures `T ≈ f32(T0) + x`. On
        // anchor steps the relevant node rows are gathered into one
        // contiguous panel (the f64 re-anchor wants a materialised view);
        // every other step fuses the gather into the currents evaluation, so
        // the intermediate temperature panel is never written or re-read.
        // Both paths reconstruct `T` with the same single f32 add, so the
        // currents are bit-identical either way.
        if *steps_since_anchor == 0 {
            for (row, &temp_row) in leak_temp_rows.iter().enumerate() {
                let dst = leak_temps.row_mut(row);
                let t0 = &baseline_f32.row(temp_row)[..dst.len()];
                let x = &delta.row(temp_row)[..dst.len()];
                for (slot, i) in dst.iter_mut().zip(0..) {
                    *slot = t0[i] + x[i];
                }
            }
            leak.anchor_all(leak_temps.as_slice());
            leak.currents_into(leak_temps.as_slice(), currents.as_mut_slice());
        } else {
            leak.currents_into_gathered(
                baseline_f32.as_slice(),
                delta.as_slice(),
                lanes,
                &leak_temp_rows[..],
                currents.as_mut_slice(),
            );
        }
        *steps_since_anchor = (*steps_since_anchor + 1) % LeakagePanelF32::REANCHOR_STEPS;

        // Node power assembly: P = base + coef · I(src), at f32 width.
        if *aligned_leak_rows {
            let span = LEAK_ROWS * lanes;
            numeric::simd::fused_mul_add_span(
                &base.as_slice()[..span],
                &coef.as_slice()[..span],
                &currents.as_slice()[..span],
                &mut powers.as_mut_slice()[..span],
            );
        } else {
            for (node, &src) in node_leak_row.iter().enumerate() {
                if src == usize::MAX {
                    continue;
                }
                numeric::simd::fused_mul_add_span(
                    base.row(node),
                    coef.row(node),
                    currents.row(src),
                    powers.row_mut(node),
                );
            }
        }

        // Per-domain power accumulation: each f32 node power is promoted to
        // f64 before summing, so the interval averages never accumulate f32
        // rounding. Only leakage-backed rows change within the interval —
        // constant rows are folded in once per interval by the caller.
        for (node, &dom) in node_domain.iter().enumerate() {
            if dom == usize::MAX || node_leak_row[node] == usize::MAX {
                continue;
            }
            let p = &powers.row(node)[..lanes];
            for (a, &v) in accum.row_mut(dom).iter_mut().zip(p) {
                *a += f64::from(v);
            }
        }

        // Advance the deviation panel at f32 width: one blocked mat-mat when
        // every lane shares the transition, the bit-identical strided
        // fallback otherwise. The drive panel carries the whole constant
        // term `c + (R − I)·T0` per lane and rides in as the kernel's bias
        // (an accumulator-init vector load), so
        // `x⁺ = R·x + S·p + c + (R − I)·T0` completes in the single apply
        // pass.
        if uniform {
            let transition = &transitions[lane_transition[0]].demoted;
            transition.apply_panel_bias(delta, powers, drive, step_tmp);
        } else {
            for lane in 0..lanes {
                let transition = &transitions[lane_transition[lane]].demoted;
                transition.apply_lane_bias(delta, powers, drive, lane, col_scratch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchPlant;
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

    #[test]
    fn mixed_batch_tracks_f64_batch_within_budget() {
        let spec = SocSpec::odroid_xu_e();
        let params = PlantPowerParams::default();
        let mut full = BatchPlant::new(spec.clone(), &[params, params]);
        let mut mixed = MixedBatchPlant::new(spec.clone(), &[params, params]);
        assert_eq!(mixed.lanes(), 2);
        assert_eq!(mixed.node_count(), full.node_count());
        let state = PlatformState::default_for(&spec);
        let d = demand();
        let inputs = [
            LaneInput {
                state: &state,
                demand: &d,
                fan_level: FanLevel::Off,
                ambient_c: 28.0,
            },
            LaneInput {
                state: &state,
                demand: &d,
                fan_level: FanLevel::Full,
                ambient_c: 31.0,
            },
        ];
        let mut worst = 0.0f64;
        for i in 0..600 {
            let full_steps = full.step_interval(&inputs, 0.1).unwrap();
            let mixed_steps = mixed.step_interval(&inputs, 0.1).unwrap();
            for lane in 0..2 {
                let a = full_steps[lane].as_ref().unwrap();
                let b = mixed_steps[lane].as_ref().unwrap();
                assert_eq!(a.work_done, b.work_done);
                let rel = ((a.platform_power_w - b.platform_power_w) / a.platform_power_w).abs();
                assert!(
                    rel < 1e-4,
                    "interval {i} lane {lane}: power rel error {rel:.3e}"
                );
            }
            for lane in 0..2 {
                for (x, y) in full.core_temps_c(lane).iter().zip(mixed.core_temps_c(lane)) {
                    worst = worst.max((x - y).abs());
                }
            }
        }
        assert!(
            worst < 1e-3,
            "worst trajectory divergence {worst:.3e} °C exceeds the budget"
        );
    }

    #[test]
    fn mixed_batch_admit_and_reject_mirror_the_f64_batch() {
        let spec = SocSpec::odroid_xu_e();
        let params = PlantPowerParams::default();
        let mut mixed = MixedBatchPlant::new(spec.clone(), &[params, params]);
        let state = PlatformState::default_for(&spec);
        let d = demand();
        let input = LaneInput {
            state: &state,
            demand: &d,
            fan_level: FanLevel::Off,
            ambient_c: 28.0,
        };
        assert!(mixed.step_interval(&[input], 0.1).is_err());
        assert!(mixed.step_interval(&[input, input], 0.0).is_err());

        for _ in 0..30 {
            mixed.step_interval(&[input, input], 0.1).unwrap();
        }
        let untouched = mixed.core_temps_c(0);
        let fresh = PlantPowerParams {
            leakage_mismatch: 0.97,
            initial_temp_c: 38.5,
            ..PlantPowerParams::default()
        };
        mixed.admit_lane(1, fresh);
        assert_eq!(mixed.core_temps_c(1), [38.5; 4]);
        assert_eq!(mixed.core_temps_c(0), untouched);
        let mut nodes = vec![0.0; mixed.node_count()];
        mixed.node_temps_into(1, &mut nodes);
        assert!(nodes.iter().all(|&t| t == 38.5));
        // The admitted lane must step finitely straight away (fresh anchor).
        let steps = mixed.step_interval(&[input, input], 0.1).unwrap();
        assert!(steps.iter().all(Result::is_ok));
        assert!(mixed.core_temps_c(1).iter().all(|t| t.is_finite()));
    }
}
