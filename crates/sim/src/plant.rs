//! The physical plant: true power consumption and the RC thermal network.
//!
//! The plant plays the role of the silicon and the board. Its power parameters
//! are deliberately *not* identical to the characterised values in
//! `power-model` (a few percent off, like a real chip vs. its model), and its
//! thermal structure (eight RC nodes) is richer than the four-state model the
//! controller identifies, so the controller faces realistic model error.

use power_model::{DomainPower, LeakageModel, LeakageParams};
use soc_model::{ClusterKind, FanLevel, PlatformState, SocSpec};
use thermal_model::{ExynosThermalNetwork, StepTransition};
use workload::Demand;

use crate::SimError;

/// "True" power parameters of the simulated silicon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlantPowerParams {
    /// Effective switched capacitance of one fully-active big (A15) core, in
    /// farads (used as `P = act·C·V²·f` per busy core).
    pub big_core_ceff_f: f64,
    /// Cluster-shared (L2, interconnect, clocking) switched capacitance of the
    /// big cluster, active whenever the cluster is powered.
    pub big_uncore_ceff_f: f64,
    /// Effective switched capacitance of one fully-active little (A7) core.
    pub little_core_ceff_f: f64,
    /// Cluster-shared switched capacitance of the little cluster.
    pub little_uncore_ceff_f: f64,
    /// Effective switched capacitance of the GPU at full utilisation.
    pub gpu_ceff_f: f64,
    /// Memory power floor, in watts.
    pub memory_base_w: f64,
    /// Additional memory power at full memory intensity, in watts.
    pub memory_active_w: f64,
    /// Board power outside the measured SoC domains (display, storage, radios,
    /// regulators), counted only by the external power meter, in watts.
    pub board_base_w: f64,
    /// Multiplier applied to the characterised leakage parameters to produce
    /// the silicon's true leakage (model error on purpose).
    pub leakage_mismatch: f64,
    /// Fraction of leakage that remains when a cluster is power-gated.
    pub gated_leakage_fraction: f64,
    /// Initial temperature of every thermal node at the start of a run, °C.
    pub initial_temp_c: f64,
}

impl Default for PlantPowerParams {
    fn default() -> Self {
        PlantPowerParams {
            big_core_ceff_f: 0.46e-9,
            big_uncore_ceff_f: 0.30e-9,
            little_core_ceff_f: 0.065e-9,
            little_uncore_ceff_f: 0.035e-9,
            gpu_ceff_f: 1.1e-9,
            memory_base_w: 0.28,
            memory_active_w: 0.45,
            board_base_w: 1.80,
            leakage_mismatch: 1.06,
            gated_leakage_fraction: 0.05,
            initial_temp_c: 52.0,
        }
    }
}

/// Outcome of stepping the plant over one control interval.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantStep {
    /// True average power per measured domain over the interval, in watts.
    pub domain_power: DomainPower,
    /// True hotspot (big-core) temperatures at the end of the interval, °C.
    pub core_temps_c: [f64; 4],
    /// True platform power (SoC domains + board base + fan), in watts.
    pub platform_power_w: f64,
    /// CPU work completed during the interval, in work units.
    pub work_done: f64,
}

/// The physical plant: thermal network state plus true power computation.
///
/// Stepping is allocation-free in steady state: the node-power and integrator
/// scratch buffers live inside the plant and are reused by every micro-step,
/// the fan enters the integrator as a [`thermal_model::FanBoost`] step
/// parameter (no network clone), the online-core list is a fixed-size array
/// computed once per control interval, and the thermal ODE is advanced with a
/// cached [`StepTransition`] (the precomputed affine form of one RK4 step,
/// rebuilt only when the fan level or ambient changes).
#[derive(Debug, Clone)]
pub struct PhysicalPlant {
    spec: SocSpec,
    params: PlantPowerParams,
    thermal: ExynosThermalNetwork,
    node_temps_c: Vec<f64>,
    big_leak: LeakageModel,
    little_leak: LeakageModel,
    gpu_leak: LeakageModel,
    /// Integration step of the plant, much finer than the control interval.
    plant_dt_s: f64,
    /// Reusable per-node power-injection vector.
    node_powers: Vec<f64>,
    /// Reusable integrator scratch for [`StepTransition::apply`].
    step_tmp: Vec<f64>,
    /// Cached RK4 transition, keyed by the (fan boost, ambient) it was built
    /// for; rebuilt only when those change (fan steps are rare, ambient is
    /// constant within an experiment).
    transition: Option<CachedTransition>,
}

/// A [`StepTransition`] together with the key it was built for.
#[derive(Debug, Clone)]
struct CachedTransition {
    fan_boost_bits: u64,
    ambient_bits: u64,
    transition: StepTransition,
}

/// Quantities of the true power computation that stay constant over one
/// control interval (platform state and demand are held constant within an
/// interval, so only the temperature-dependent leakage terms vary per
/// micro-step). Shared between the scalar plant and the batched
/// [`crate::batch::BatchPlant`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct IntervalOps {
    pub(crate) active_is_big: bool,
    /// Voltage of the active cluster.
    pub(crate) volts: f64,
    /// Dynamic power of each online core, indexed by its slot in the online
    /// list (work streams spill over the online cores in order).
    pub(crate) slot_dynamic: [f64; 4],
    /// Cluster-shared (uncore) power of the big cluster (big active only).
    pub(crate) uncore: f64,
    /// Per-online-core share of the uncore power (big active only).
    pub(crate) uncore_share: f64,
    /// Uncore + dynamic part of the little-cluster total (little active only).
    pub(crate) little_base: f64,
    /// Lowest-OPP voltage of the power-gated cluster (residual leakage).
    pub(crate) idle_volts: f64,
    pub(crate) gpu_volts: f64,
    pub(crate) gpu_dynamic: f64,
    pub(crate) mem_power: f64,
}

pub(crate) fn scaled(params: LeakageParams, factor: f64) -> LeakageModel {
    LeakageModel::new(LeakageParams {
        c1: params.c1 * factor,
        c2: params.c2,
        igate_a: params.igate_a * factor,
    })
}

impl PhysicalPlant {
    /// Creates a plant for the given platform at the configured initial
    /// temperature.
    pub fn new(spec: SocSpec, params: PlantPowerParams) -> Self {
        let thermal = ExynosThermalNetwork::odroid_xu_e();
        let node_count = thermal.network().node_count();
        PhysicalPlant {
            node_temps_c: vec![params.initial_temp_c; node_count],
            big_leak: scaled(LeakageParams::exynos5410_big(), params.leakage_mismatch),
            little_leak: scaled(LeakageParams::exynos5410_little(), params.leakage_mismatch),
            gpu_leak: scaled(LeakageParams::exynos5410_gpu(), params.leakage_mismatch),
            spec,
            params,
            thermal,
            plant_dt_s: 0.01,
            node_powers: vec![0.0; node_count],
            step_tmp: vec![0.0; node_count],
            transition: None,
        }
    }

    /// The plant's power parameters.
    pub fn params(&self) -> &PlantPowerParams {
        &self.params
    }

    /// Current true hotspot temperatures, °C.
    pub fn core_temps_c(&self) -> [f64; 4] {
        self.thermal.hotspot_temps(&self.node_temps_c)
    }

    /// Current true temperature of every thermal node, °C.
    pub fn node_temps_c(&self) -> &[f64] {
        &self.node_temps_c
    }

    /// Resets every node to the given temperature (used by the furnace, which
    /// soaks the board at the ambient setpoint).
    pub fn reset_temps(&mut self, temp_c: f64) {
        for t in &mut self.node_temps_c {
            *t = temp_c;
        }
    }

    /// Precomputes everything about the true power computation that does not
    /// depend on the evolving temperatures. Platform state, demand and fan are
    /// held constant over a control interval, so this runs once per interval;
    /// only the leakage terms in [`PhysicalPlant::domain_powers_into`] remain
    /// in the per-micro-step path.
    fn interval_ops(
        &self,
        state: &PlatformState,
        demand: &Demand,
        online: &[usize],
    ) -> Result<IntervalOps, SimError> {
        compute_interval_ops(&self.spec, &self.params, state, demand, online)
    }

    /// True per-domain power at the current temperatures, written directly
    /// into the per-node power vector `node_powers`. Allocation-free:
    /// everything state/demand-dependent was precomputed by
    /// [`PhysicalPlant::interval_ops`]; this only evaluates the
    /// temperature-dependent leakage terms.
    ///
    /// A free function over split borrows so the caller can keep mutable
    /// references to the plant's reusable buffers while it runs.
    #[allow(clippy::too_many_arguments)]
    fn domain_powers_into(
        thermal: &ExynosThermalNetwork,
        node_temps_c: &[f64],
        big_leak: &LeakageModel,
        little_leak: &LeakageModel,
        gpu_leak: &LeakageModel,
        params: &PlantPowerParams,
        ops: &IntervalOps,
        online_mask: &[bool; 4],
        node_powers: &mut [f64],
    ) -> DomainPower {
        let core_nodes = thermal.big_core_nodes();
        let case_temp = node_temps_c[thermal.case_node().0];
        let gpu_node = thermal.gpu_node().0;
        // Batched, branch-free leakage for every domain: the divisions
        // vectorise and the exp latency chains overlap (bit-identical to the
        // equivalent scalar `current_a` calls).
        let currents = power_model::currents_batch(
            [
                big_leak,
                big_leak,
                big_leak,
                big_leak,
                little_leak,
                gpu_leak,
            ],
            [
                node_temps_c[core_nodes[0].0],
                node_temps_c[core_nodes[1].0],
                node_temps_c[core_nodes[2].0],
                node_temps_c[core_nodes[3].0],
                case_temp,
                node_temps_c[gpu_node],
            ],
        );
        let core_currents = [currents[0], currents[1], currents[2], currents[3]];

        let mut big_total = 0.0;
        let little_total;

        if ops.active_is_big {
            big_total += ops.uncore;
            let mut slot = 0;
            for core in 0..4 {
                let node = core_nodes[core].0;
                if online_mask[core] {
                    let dynamic = ops.slot_dynamic[slot];
                    slot += 1;
                    let leak = ops.volts * core_currents[core] / 4.0;
                    node_powers[node] = dynamic + leak + ops.uncore_share;
                    big_total += dynamic + leak;
                } else {
                    // Offline cores still leak a gated fraction.
                    let leak =
                        ops.volts * core_currents[core] / 4.0 * params.gated_leakage_fraction;
                    node_powers[node] = leak;
                    big_total += leak;
                }
            }
            little_total = ops.idle_volts * currents[4] * params.gated_leakage_fraction;
        } else {
            little_total = ops.little_base + ops.volts * currents[4];
            for core in 0..4 {
                let node = core_nodes[core].0;
                let leak =
                    ops.idle_volts * core_currents[core] / 4.0 * params.gated_leakage_fraction;
                node_powers[node] = leak;
                big_total += leak;
            }
        }

        let gpu_power = ops.gpu_dynamic + ops.gpu_volts * currents[5];

        node_powers[thermal.little_node().0] = little_total;
        node_powers[gpu_node] = gpu_power;
        node_powers[thermal.memory_node().0] = ops.mem_power;
        node_powers[thermal.case_node().0] = 0.0;

        DomainPower::new(big_total, little_total, gpu_power, ops.mem_power)
    }

    /// CPU work completed per second for the given state and demand.
    ///
    /// Real applications are not perfectly frequency-scalable: memory-bound
    /// phases progress at (almost) the same rate regardless of the CPU clock.
    /// The demand's `frequency_scalability` interpolates between a fully
    /// memory-bound (0) and a fully compute-bound (1) workload, which is what
    /// keeps the paper's performance loss small even when the DTPM algorithm
    /// throttles the frequency.
    fn throughput_units_per_s(&self, state: &PlatformState, demand: &Demand) -> f64 {
        throughput_units_per_s(&self.spec, state, demand)
    }

    /// Advances the plant by one control interval of `interval_s` seconds with
    /// the platform state, workload demand and fan level held constant.
    ///
    /// # Errors
    ///
    /// Returns an error if the platform state uses unsupported frequencies or
    /// the thermal integration fails.
    pub fn step_interval(
        &mut self,
        state: &PlatformState,
        demand: &Demand,
        fan_level: FanLevel,
        ambient_c: f64,
        interval_s: f64,
    ) -> Result<PlantStep, SimError> {
        if !(interval_s > 0.0) {
            return Err(SimError::InvalidConfig("control interval must be positive"));
        }
        // The fan enters the integrator as a step parameter — no network
        // clone — and the RK4 transition for this (fan, ambient) pair is
        // cached across intervals.
        let boost_w_per_k = self.spec.fan().conductance_boost_w_per_k(fan_level);
        let fan_boost = self.thermal.fan_boost(boost_w_per_k);
        let cache_valid = self.transition.as_ref().is_some_and(|cached| {
            cached.fan_boost_bits == boost_w_per_k.to_bits()
                && cached.ambient_bits == ambient_c.to_bits()
        });
        if !cache_valid {
            self.transition = Some(CachedTransition {
                fan_boost_bits: boost_w_per_k.to_bits(),
                ambient_bits: ambient_c.to_bits(),
                transition: self.thermal.network().step_transition(
                    fan_boost,
                    ambient_c,
                    self.plant_dt_s,
                )?,
            });
        }

        // Online cores of the active cluster, computed once per interval into
        // a fixed-size array (work streams spill over them in index order).
        let (online_buf, online_mask, online_count) = online_cores(state, state.active_cluster);
        let online = &online_buf[..online_count];
        let ops = self.interval_ops(state, demand, online)?;

        let steps = (interval_s / self.plant_dt_s).round().max(1.0) as usize;
        let mut power_accum = DomainPower::default();
        // Split the borrows: the power computation reads the models while the
        // integrator writes the reusable buffers.
        let PhysicalPlant {
            thermal,
            node_temps_c,
            big_leak,
            little_leak,
            gpu_leak,
            params,
            node_powers,
            step_tmp,
            transition,
            ..
        } = self;
        let transition = &transition
            .as_ref()
            .expect("transition cache was just filled")
            .transition;
        for _ in 0..steps {
            let domains = Self::domain_powers_into(
                thermal,
                node_temps_c,
                big_leak,
                little_leak,
                gpu_leak,
                params,
                &ops,
                &online_mask,
                node_powers,
            );
            power_accum = power_accum + domains;
            transition.apply(node_temps_c, node_powers, step_tmp);
        }
        let scale = 1.0 / steps as f64;
        let domain_power = DomainPower::new(
            power_accum.big_w * scale,
            power_accum.little_w * scale,
            power_accum.gpu_w * scale,
            power_accum.memory_w * scale,
        );
        let fan_power = self.spec.fan().power_w(fan_level);
        let platform_power_w = domain_power.total() + self.params.board_base_w + fan_power;
        let work_done = self.throughput_units_per_s(state, demand) * interval_s;

        Ok(PlantStep {
            domain_power,
            core_temps_c: self.core_temps_c(),
            platform_power_w,
            work_done,
        })
    }
}

/// The interval-constant part of the true power computation, shared between
/// the scalar [`PhysicalPlant`] and the batched [`crate::batch::BatchPlant`]
/// (which evaluates it once per lane per control interval).
pub(crate) fn compute_interval_ops(
    spec: &SocSpec,
    params: &PlantPowerParams,
    state: &PlatformState,
    demand: &Demand,
    online: &[usize],
) -> Result<IntervalOps, SimError> {
    let per_core_utilisation = |slot: usize| -> f64 {
        // Stream `slot` gets the leftover demand after earlier cores.
        (demand.cpu_streams - slot as f64).clamp(0.0, 1.0)
    };

    let mut slot_dynamic = [0.0f64; 4];
    let (active_is_big, volts, uncore, uncore_share, little_base, idle_volts) =
        match state.active_cluster {
            ClusterKind::Big => {
                let freq = state.big_frequency;
                let volts = spec.big_opps().voltage_for(freq)?.volts();
                let v2f = volts * volts * freq.hz();
                // Shared/uncore power (L2, interconnect, clock tree) of the
                // powered cluster: it dissipates on the die, so it is
                // spread across the online core nodes for the thermal
                // network.
                let uncore = params.big_uncore_ceff_f * v2f;
                let uncore_share = if online.is_empty() {
                    0.0
                } else {
                    uncore / online.len() as f64
                };
                for (slot, slot_dyn) in slot_dynamic.iter_mut().enumerate().take(online.len()) {
                    *slot_dyn = params.big_core_ceff_f
                        * demand.activity_factor
                        * per_core_utilisation(slot)
                        * v2f;
                }
                // The little cluster is power-gated.
                let lv = spec.little_opps().lowest().voltage.volts();
                (true, volts, uncore, uncore_share, 0.0, lv)
            }
            ClusterKind::Little => {
                let freq = state.little_frequency;
                let volts = spec.little_opps().voltage_for(freq)?.volts();
                let v2f = volts * volts * freq.hz();
                let little_base = params.little_uncore_ceff_f * v2f
                    + lv_cluster_dynamic(
                        params.little_core_ceff_f,
                        demand,
                        online,
                        v2f,
                        per_core_utilisation,
                    );
                // Big cluster gated: residual leakage only.
                let bv = spec.big_opps().lowest().voltage.volts();
                (false, volts, 0.0, 0.0, little_base, bv)
            }
        };

    let gpu_volts = spec.gpu_opps().voltage_for(state.gpu_frequency)?.volts();
    let gpu_dynamic = params.gpu_ceff_f
        * demand.gpu_utilization
        * gpu_volts
        * gpu_volts
        * state.gpu_frequency.hz();

    // Memory power: the measured floor plus the demand-proportional active
    // part. Memory leakage is folded into `memory_base_w` (the INA231 rail
    // measurement the floor was taken from includes it), so no leakage
    // model is evaluated for the memory domain.
    let mem_power = params.memory_base_w + params.memory_active_w * demand.memory_intensity;

    Ok(IntervalOps {
        active_is_big,
        volts,
        slot_dynamic,
        uncore,
        uncore_share,
        little_base,
        idle_volts,
        gpu_volts,
        gpu_dynamic,
        mem_power,
    })
}

/// Which cores of the active cluster are online, as (online list, per-core
/// mask, count). Work streams spill over the online list in index order.
pub(crate) fn online_cores(
    state: &PlatformState,
    active: soc_model::ClusterKind,
) -> ([usize; 4], [bool; 4], usize) {
    let mut online_buf = [0usize; 4];
    let mut online_mask = [false; 4];
    let mut online_count = 0;
    for (core, flag) in online_mask.iter_mut().enumerate() {
        if state.is_core_online(active, core) {
            online_buf[online_count] = core;
            *flag = true;
            online_count += 1;
        }
    }
    (online_buf, online_mask, online_count)
}

/// CPU work completed per second for the given state and demand (see
/// [`PhysicalPlant::throughput_units_per_s`]); shared with the batched plant
/// so both engines report bit-identical work.
pub(crate) fn throughput_units_per_s(
    spec: &SocSpec,
    state: &PlatformState,
    demand: &Demand,
) -> f64 {
    let active = state.active_cluster;
    let online = state.online_core_count(active) as f64;
    let streams = demand.cpu_streams.min(online);
    let cluster = spec.cluster(active);
    let freq_ghz = state.cluster_frequency(active).ghz();
    let max_ghz = cluster.opps.highest().frequency.ghz();
    let s = demand.frequency_scalability.clamp(0.0, 1.0);
    let effective_ghz = max_ghz * ((1.0 - s) + s * freq_ghz / max_ghz);
    streams * effective_ghz * cluster.performance_per_ghz
}

fn lv_cluster_dynamic(
    core_ceff: f64,
    demand: &Demand,
    online: &[usize],
    v2f: f64,
    per_core_utilisation: impl Fn(usize) -> f64,
) -> f64 {
    online
        .iter()
        .enumerate()
        .map(|(slot, _)| core_ceff * demand.activity_factor * per_core_utilisation(slot) * v2f)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_model::Frequency;

    fn busy_demand() -> Demand {
        Demand {
            cpu_streams: 4.0,
            activity_factor: 0.95,
            gpu_utilization: 0.0,
            memory_intensity: 0.5,
            frequency_scalability: 1.0,
        }
    }

    fn light_demand() -> Demand {
        Demand {
            cpu_streams: 1.0,
            activity_factor: 0.45,
            gpu_utilization: 0.0,
            memory_intensity: 0.2,
            frequency_scalability: 1.0,
        }
    }

    fn plant() -> PhysicalPlant {
        PhysicalPlant::new(SocSpec::odroid_xu_e(), PlantPowerParams::default())
    }

    #[test]
    fn heavy_load_draws_several_watts_and_heats_up() {
        let spec = SocSpec::odroid_xu_e();
        let mut plant = plant();
        let state = PlatformState::default_for(&spec);
        let step = plant
            .step_interval(&state, &busy_demand(), FanLevel::Off, 28.0, 0.1)
            .unwrap();
        // A fully loaded A15 cluster draws somewhere around 3.5-6 W.
        assert!(
            (3.0..7.0).contains(&step.domain_power.big_w),
            "big cluster power {}",
            step.domain_power.big_w
        );
        assert!(step.platform_power_w > step.domain_power.total());
        assert!(step.work_done > 0.0);
        // Run for a simulated minute and confirm the cores heat up markedly.
        for _ in 0..600 {
            plant
                .step_interval(&state, &busy_demand(), FanLevel::Off, 28.0, 0.1)
                .unwrap();
        }
        let hottest = plant.core_temps_c().into_iter().fold(f64::MIN, f64::max);
        assert!(hottest > 60.0, "hottest core after 60 s: {hottest}");
    }

    #[test]
    fn light_load_draws_much_less_power() {
        let spec = SocSpec::odroid_xu_e();
        let mut plant = plant();
        let state = PlatformState::default_for(&spec);
        let heavy = plant
            .step_interval(&state, &busy_demand(), FanLevel::Off, 28.0, 0.1)
            .unwrap();
        let light = plant
            .step_interval(&state, &light_demand(), FanLevel::Off, 28.0, 0.1)
            .unwrap();
        assert!(light.domain_power.big_w < 0.5 * heavy.domain_power.big_w);
    }

    #[test]
    fn lower_frequency_reduces_power_and_throughput() {
        let spec = SocSpec::odroid_xu_e();
        let mut plant = plant();
        let mut state = PlatformState::default_for(&spec);
        let fast = plant
            .step_interval(&state, &busy_demand(), FanLevel::Off, 28.0, 0.1)
            .unwrap();
        state.set_cluster_frequency(ClusterKind::Big, Frequency::from_mhz(800));
        let slow = plant
            .step_interval(&state, &busy_demand(), FanLevel::Off, 28.0, 0.1)
            .unwrap();
        assert!(slow.domain_power.big_w < 0.55 * fast.domain_power.big_w);
        assert!((slow.work_done - fast.work_done * 0.5).abs() < 1e-9);
    }

    #[test]
    fn fan_cools_the_cores() {
        let spec = SocSpec::odroid_xu_e();
        let state = PlatformState::default_for(&spec);
        let mut no_fan = plant();
        let mut with_fan = plant();
        for _ in 0..1200 {
            no_fan
                .step_interval(&state, &busy_demand(), FanLevel::Off, 28.0, 0.1)
                .unwrap();
            with_fan
                .step_interval(&state, &busy_demand(), FanLevel::Full, 28.0, 0.1)
                .unwrap();
        }
        let hot_no_fan = no_fan.core_temps_c()[0];
        let hot_with_fan = with_fan.core_temps_c()[0];
        assert!(
            hot_with_fan < hot_no_fan - 5.0,
            "fan must cool: {hot_no_fan} vs {hot_with_fan}"
        );
    }

    #[test]
    fn little_cluster_uses_far_less_power_than_big() {
        let spec = SocSpec::odroid_xu_e();
        let mut plant = plant();
        let mut state = PlatformState::default_for(&spec);
        let big = plant
            .step_interval(&state, &busy_demand(), FanLevel::Off, 28.0, 0.1)
            .unwrap();
        state.migrate_to_cluster(ClusterKind::Little, Frequency::from_mhz(1200));
        let little = plant
            .step_interval(&state, &busy_demand(), FanLevel::Off, 28.0, 0.1)
            .unwrap();
        let big_cpu_total = big.domain_power.big_w + big.domain_power.little_w;
        let little_cpu_total = little.domain_power.big_w + little.domain_power.little_w;
        assert!(little_cpu_total < 0.35 * big_cpu_total);
        // The big cluster also delivers more work per interval.
        assert!(big.work_done > 2.0 * little.work_done);
    }

    #[test]
    fn gpu_demand_adds_gpu_power() {
        let spec = SocSpec::odroid_xu_e();
        let mut plant = plant();
        let mut state = PlatformState::default_for(&spec);
        state.gpu_frequency = Frequency::from_mhz(533);
        let mut demand = busy_demand();
        demand.gpu_utilization = 0.8;
        let with_gpu = plant
            .step_interval(&state, &demand, FanLevel::Off, 28.0, 0.1)
            .unwrap();
        demand.gpu_utilization = 0.0;
        let without_gpu = plant
            .step_interval(&state, &demand, FanLevel::Off, 28.0, 0.1)
            .unwrap();
        assert!(with_gpu.domain_power.gpu_w > without_gpu.domain_power.gpu_w + 0.2);
    }

    #[test]
    fn core_shutdown_reduces_cluster_power() {
        let spec = SocSpec::odroid_xu_e();
        let mut plant = plant();
        let mut state = PlatformState::default_for(&spec);
        let all_cores = plant
            .step_interval(&state, &busy_demand(), FanLevel::Off, 28.0, 0.1)
            .unwrap();
        state.set_core_online(ClusterKind::Big, 3, false);
        let three_cores = plant
            .step_interval(&state, &busy_demand(), FanLevel::Off, 28.0, 0.1)
            .unwrap();
        assert!(three_cores.domain_power.big_w < all_cores.domain_power.big_w - 0.5);
        assert!(three_cores.work_done < all_cores.work_done);
    }

    #[test]
    fn dijkstra_like_load_reaches_high_fifties() {
        // Calibration check: a low-activity benchmark should settle in the
        // mid-to-high 50s (Figure 6.6 shows the default configuration around
        // 57-70 degC), well below the matrix-multiplication case.
        let spec = SocSpec::odroid_xu_e();
        let mut plant = plant();
        let state = PlatformState::default_for(&spec);
        let demand = Demand {
            cpu_streams: 1.2,
            activity_factor: 0.50,
            gpu_utilization: 0.0,
            memory_intensity: 0.5,
            frequency_scalability: 0.6,
        };
        for _ in 0..4000 {
            plant
                .step_interval(&state, &demand, FanLevel::Off, 28.0, 0.1)
                .unwrap();
        }
        let hottest = plant.core_temps_c().into_iter().fold(f64::MIN, f64::max);
        assert!(
            (48.0..68.0).contains(&hottest),
            "low-activity steady temperature {hottest}"
        );
    }

    #[test]
    fn reset_temps_resets_every_node() {
        let mut plant = plant();
        plant.reset_temps(60.0);
        assert!(plant.node_temps_c().iter().all(|&t| t == 60.0));
        assert_eq!(plant.core_temps_c(), [60.0; 4]);
    }

    #[test]
    fn rejects_non_positive_interval() {
        let spec = SocSpec::odroid_xu_e();
        let mut plant = plant();
        let state = PlatformState::default_for(&spec);
        assert!(plant
            .step_interval(&state, &light_demand(), FanLevel::Off, 28.0, 0.0)
            .is_err());
    }
}
