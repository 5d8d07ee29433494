//! Naive baseline of the plant integrator, the reference the equivalence
//! suite holds the optimized plant to.
//!
//! [`NaivePhysicalPlant`] reproduces, through the public APIs, the original
//! allocation-heavy simulation loop that `platform_sim::PhysicalPlant`
//! replaced:
//!
//! * the whole thermal network is cloned once per control interval to apply
//!   the fan conductance (`ExynosThermalNetwork::network_with_fan_boost`),
//! * every micro-step rebuilds the online-core list as a `Vec<usize>`,
//!   re-reads the OPP tables, allocates a fresh node-power `Vec` and runs the
//!   original collect-per-stage RK4 (eight intermediate `Vec`s per step, a
//!   division by the capacitance per node per stage),
//! * nothing state-dependent is hoisted out of the micro-step loop — the
//!   original even evaluated the memory leakage model each micro-step only to
//!   multiply the result by zero, which is preserved here.

use platform_sim::plant::{PlantPowerParams, PlantStep};
use platform_sim::SimError;
use power_model::{DomainPower, LeakageModel, LeakageParams};
use soc_model::{ClusterKind, FanLevel, PlatformState, SocSpec};
use thermal_model::{ExynosThermalNetwork, ThermalNetwork};
use workload::Demand;

/// The reference (slow) implementation of the physical plant.
#[derive(Debug, Clone)]
pub struct NaivePhysicalPlant {
    spec: SocSpec,
    params: PlantPowerParams,
    thermal: ExynosThermalNetwork,
    node_temps_c: Vec<f64>,
    big_leak: LeakageModel,
    little_leak: LeakageModel,
    gpu_leak: LeakageModel,
    mem_leak: LeakageModel,
    plant_dt_s: f64,
}

/// The original allocating RK4 derivative: one heap-allocated flow vector and
/// one derivative vector per evaluation.
fn derivative(network: &ThermalNetwork, temps: &[f64], powers: &[f64], ambient_c: f64) -> Vec<f64> {
    let n = network.node_count();
    let mut heat_flow = vec![0.0; n];
    for &(a, b, g) in network.couplings() {
        let flow = g * (temps[b] - temps[a]);
        heat_flow[a] += flow;
        heat_flow[b] -= flow;
    }
    let capacitances = network.capacitances();
    let ambient_conductances = network.ambient_conductances();
    let mut derivative = vec![0.0; n];
    for i in 0..n {
        let ambient_flow = ambient_conductances[i] * (ambient_c - temps[i]);
        derivative[i] = (heat_flow[i] + ambient_flow + powers[i]) / capacitances[i];
    }
    derivative
}

/// The original allocating RK4 step: collects every stage into a fresh `Vec`.
fn rk4_step(
    network: &ThermalNetwork,
    temps: &[f64],
    powers: &[f64],
    ambient_c: f64,
    dt_s: f64,
) -> Vec<f64> {
    let k1 = derivative(network, temps, powers, ambient_c);
    let mid1: Vec<f64> = temps
        .iter()
        .zip(&k1)
        .map(|(t, k)| t + 0.5 * dt_s * k)
        .collect();
    let k2 = derivative(network, &mid1, powers, ambient_c);
    let mid2: Vec<f64> = temps
        .iter()
        .zip(&k2)
        .map(|(t, k)| t + 0.5 * dt_s * k)
        .collect();
    let k3 = derivative(network, &mid2, powers, ambient_c);
    let end: Vec<f64> = temps.iter().zip(&k3).map(|(t, k)| t + dt_s * k).collect();
    let k4 = derivative(network, &end, powers, ambient_c);
    (0..temps.len())
        .map(|i| temps[i] + dt_s / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]))
        .collect()
}

fn scaled(params: LeakageParams, factor: f64) -> LeakageModel {
    LeakageModel::new(LeakageParams {
        c1: params.c1 * factor,
        c2: params.c2,
        igate_a: params.igate_a * factor,
    })
}

impl NaivePhysicalPlant {
    /// Creates the baseline plant (same parameters as
    /// `PhysicalPlant::new`).
    pub fn new(spec: SocSpec, params: PlantPowerParams) -> Self {
        let thermal = ExynosThermalNetwork::odroid_xu_e();
        let node_count = thermal.network().node_count();
        NaivePhysicalPlant {
            node_temps_c: vec![params.initial_temp_c; node_count],
            big_leak: scaled(LeakageParams::exynos5410_big(), params.leakage_mismatch),
            little_leak: scaled(LeakageParams::exynos5410_little(), params.leakage_mismatch),
            gpu_leak: scaled(LeakageParams::exynos5410_gpu(), params.leakage_mismatch),
            mem_leak: scaled(LeakageParams::exynos5410_memory(), params.leakage_mismatch),
            spec,
            params,
            thermal,
            plant_dt_s: 0.01,
        }
    }

    /// Current true hotspot temperatures, °C.
    pub fn core_temps_c(&self) -> [f64; 4] {
        self.thermal.hotspot_temps(&self.node_temps_c)
    }

    /// Current true temperature of every thermal node, °C.
    pub fn node_temps_c(&self) -> &[f64] {
        &self.node_temps_c
    }

    /// The original per-micro-step power computation: rebuilds the online
    /// list and re-reads the OPP tables every call.
    fn domain_powers(
        &self,
        state: &PlatformState,
        demand: &Demand,
    ) -> Result<(DomainPower, [f64; 4]), SimError> {
        let spec = &self.spec;
        let core_temps = self.core_temps_c();
        let case_temp = self.node_temps_c[self.thermal.case_node().0];

        let mut big_core_powers = [0.0f64; 4];
        let mut big_total = 0.0;
        let little_total;

        let active = state.active_cluster;
        let online: Vec<usize> = (0..4)
            .filter(|&i| state.is_core_online(active, i))
            .collect();
        let per_core_utilisation =
            |slot: usize| -> f64 { (demand.cpu_streams - slot as f64).clamp(0.0, 1.0) };

        match active {
            ClusterKind::Big => {
                let freq = state.big_frequency;
                let volts = spec.big_opps().voltage_for(freq)?.volts();
                let v2f = volts * volts * freq.hz();
                let uncore = self.params.big_uncore_ceff_f * v2f;
                big_total += uncore;
                let uncore_share = if online.is_empty() {
                    0.0
                } else {
                    uncore / online.len() as f64
                };
                for (slot, &core) in online.iter().enumerate() {
                    let util = per_core_utilisation(slot);
                    let dynamic = self.params.big_core_ceff_f * demand.activity_factor * util * v2f;
                    let leak = volts * self.big_leak.current_a(core_temps[core]) / 4.0;
                    big_core_powers[core] = dynamic + leak + uncore_share;
                    big_total += dynamic + leak;
                }
                for core in 0..4 {
                    if !state.is_core_online(ClusterKind::Big, core) {
                        let leak = volts * self.big_leak.current_a(core_temps[core]) / 4.0
                            * self.params.gated_leakage_fraction;
                        big_core_powers[core] += leak;
                        big_total += leak;
                    }
                }
                let lv = spec.little_opps().lowest().voltage.volts();
                little_total =
                    lv * self.little_leak.current_a(case_temp) * self.params.gated_leakage_fraction;
            }
            ClusterKind::Little => {
                let freq = state.little_frequency;
                let volts = spec.little_opps().voltage_for(freq)?.volts();
                let v2f = volts * volts * freq.hz();
                little_total = self.params.little_uncore_ceff_f * v2f
                    + online
                        .iter()
                        .enumerate()
                        .map(|(slot, _)| {
                            self.params.little_core_ceff_f
                                * demand.activity_factor
                                * per_core_utilisation(slot)
                                * v2f
                        })
                        .sum::<f64>()
                    + volts * self.little_leak.current_a(case_temp);
                let bv = spec.big_opps().lowest().voltage.volts();
                for core in 0..4 {
                    let leak = bv * self.big_leak.current_a(core_temps[core]) / 4.0
                        * self.params.gated_leakage_fraction;
                    big_core_powers[core] = leak;
                    big_total += leak;
                }
            }
        }

        let gpu_temp = self.node_temps_c[self.thermal.gpu_node().0];
        let gpu_volts = spec.gpu_opps().voltage_for(state.gpu_frequency)?.volts();
        let gpu_dynamic = self.params.gpu_ceff_f
            * demand.gpu_utilization
            * gpu_volts
            * gpu_volts
            * state.gpu_frequency.hz();
        let gpu_power = gpu_dynamic + gpu_volts * self.gpu_leak.current_a(gpu_temp);

        // The original's dead memory-leakage lookup: evaluated every
        // micro-step, multiplied by zero (leakage is folded into the base).
        let mem_temp = self.node_temps_c[self.thermal.memory_node().0];
        let mem_power = self.params.memory_base_w
            + self.params.memory_active_w * demand.memory_intensity
            + 1.0 * self.mem_leak.current_a(mem_temp) * 0.0;

        Ok((
            DomainPower::new(big_total, little_total, gpu_power, mem_power),
            big_core_powers,
        ))
    }

    fn throughput_units_per_s(&self, state: &PlatformState, demand: &Demand) -> f64 {
        let active = state.active_cluster;
        let online = state.online_core_count(active) as f64;
        let streams = demand.cpu_streams.min(online);
        let cluster = self.spec.cluster(active);
        let freq_ghz = state.cluster_frequency(active).ghz();
        let max_ghz = cluster.opps.highest().frequency.ghz();
        let s = demand.frequency_scalability.clamp(0.0, 1.0);
        let effective_ghz = max_ghz * ((1.0 - s) + s * freq_ghz / max_ghz);
        streams * effective_ghz * cluster.performance_per_ghz
    }

    /// The original per-interval loop: clones the fan-boosted network, then
    /// allocates its way through every micro-step.
    ///
    /// # Errors
    ///
    /// Same error behaviour as `PhysicalPlant::step_interval`.
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
        let fan_boost = self.spec.fan().conductance_boost_w_per_k(fan_level);
        let network: ThermalNetwork = self.thermal.network_with_fan_boost(fan_boost);

        let steps = (interval_s / self.plant_dt_s).round().max(1.0) as usize;
        let mut power_accum = DomainPower::default();
        for _ in 0..steps {
            let (domains, big_cores) = self.domain_powers(state, demand)?;
            power_accum = power_accum + domains;
            let node_powers = self.thermal.power_vector(
                &big_cores,
                domains.little_w,
                domains.gpu_w,
                domains.memory_w,
            );
            self.node_temps_c = rk4_step(
                &network,
                &self.node_temps_c,
                &node_powers,
                ambient_c,
                self.plant_dt_s,
            );
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
