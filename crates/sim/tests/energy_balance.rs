//! Energy-balance oracle for the plant engines: the RC network stores the
//! heat it is given less the heat it loses to the room.
//!
//! Summed over the nodes, the network's equation
//! `C·dT/dt = −G·T + P + g·T_amb` loses its couplings (an edge moves heat
//! from one node to another), so over one micro-step of `h` seconds
//!
//! ```text
//! Σᵢ Cᵢ·ΔTᵢ = h·Σᵢ Pᵢ − h·Σᵢ gᵢ·(T̄ᵢ − T_amb)
//! ```
//!
//! with `T̄` the mean of the step's start and end temperatures (the
//! trapezoid rule) and `g` the conductances to ambient, the fan's boost at
//! the case included.
//!
//! It holds to the integrator's truncation error. One RK4 step of the linear
//! network is `T⁺ = T + h·(I + hA/2 + (hA)²/6 + (hA)³/24)·v`, with
//! `A = −C⁻¹·G` and `v = A·T + C⁻¹·(P + g·T_amb)` the derivative at the
//! step's start. Because `1ᵀ·C·A = −gᵀ`, the balance's residual is exactly
//!
//! ```text
//! r = (h³/12)·gᵀA·v + (h⁴/24)·gᵀA²·v + (h⁵/48)·gᵀA³·v,
//! ```
//!
//! the trapezoid rule's error on the heat lost: RK4 adds nothing at these
//! orders. The test bounds `|v|` node by node from the start temperatures
//! and the domain powers a step reports (a node's power is non-negative
//! and at most its domain's), adds the rounding of the sums, and holds
//! every step of every lane to that bound. It reads only the engines'
//! outputs; `C`, `G` and `g` come from `thermal_model` and the fan model.
//!
//! Holding every step holds each lane's whole run to the sum of its steps'
//! bounds, about 1e-6 of the energy it injects over 300 s. A wrong
//! capacitance in the transitions, or power that a step reports but does
//! not inject, breaks the balance by orders of magnitude more than that.

use platform_sim::{LaneInput, PanelEngine, PlantEngine, PlantPowerParams, ScalarEngine};
use soc_model::{ClusterKind, FanLevel, PlatformState, SocSpec};
use thermal_model::ExynosThermalNetwork;
use workload::Demand;

/// The micro-step, s: an interval this long is one step of every engine,
/// so every step's end temperatures are read.
const H_S: f64 = 0.01;
/// Steps per run: 300 s of plant time.
const STEPS: usize = 30_000;
/// Steps between demand switches (heavy ↔ light) and fan rotations: 7 s.
const PHASE_STEPS: usize = 700;
const LANES: usize = 8;

/// The model's constants, read from `thermal_model`: node capacitances,
/// the conductance matrix `G` without the ambient terms, the passive
/// conductances to ambient, and the nodes each domain heats.
struct Model {
    capacitance: Vec<f64>,
    /// Row-major `n × n`: the couplings' Laplacian.
    laplacian: Vec<f64>,
    ambient: Vec<f64>,
    case: usize,
    big_cores: [usize; 4],
    little: usize,
    gpu: usize,
    memory: usize,
}

impl Model {
    fn odroid_xu_e() -> Model {
        let plant = ExynosThermalNetwork::odroid_xu_e();
        let network = plant.network();
        let n = network.node_count();
        let mut laplacian = vec![0.0; n * n];
        for &(a, b, g) in network.couplings() {
            laplacian[a * n + a] += g;
            laplacian[b * n + b] += g;
            laplacian[a * n + b] -= g;
            laplacian[b * n + a] -= g;
        }
        Model {
            capacitance: network.capacitances().to_vec(),
            laplacian,
            ambient: network.ambient_conductances().to_vec(),
            case: plant.case_node().0,
            big_cores: plant.big_core_nodes().map(|node| node.0),
            little: plant.little_node().0,
            gpu: plant.gpu_node().0,
            memory: plant.memory_node().0,
        }
    }

    fn n(&self) -> usize {
        self.capacitance.len()
    }

    /// The conductances to ambient with `boost_w_per_k` added at the case.
    fn ambient_with_fan(&self, boost_w_per_k: f64) -> Vec<f64> {
        let mut g = self.ambient.clone();
        g[self.case] += boost_w_per_k;
        g
    }

    /// `G[i][j]` under the conductances to ambient `g`.
    fn conductance(&self, g: &[f64], i: usize, j: usize) -> f64 {
        self.laplacian[i * self.n() + j] + if i == j { g[i] } else { 0.0 }
    }

    /// The bound on one step's residual, J, from the start temperatures
    /// `t`, the ambient, the conductances to ambient `g` and the domain
    /// powers `[big, little, gpu, memory]` the step reports.
    fn step_bound(&self, t: &[f64], t_end: &[f64], ambient_c: f64, g: &[f64], p: [f64; 4]) -> f64 {
        let n = self.n();
        // The most power node j can receive: its domain's.
        let mut p_max = vec![0.0; n];
        for &core in &self.big_cores {
            p_max[core] = p[0];
        }
        p_max[self.little] = p[1];
        p_max[self.gpu] = p[2];
        p_max[self.memory] = p[3];
        // |v_j| ≤ (|(g·T_amb − G·T)_j| + P_max,j) / C_j.
        let v: Vec<f64> = (0..n)
            .map(|j| {
                let flow: f64 = g[j] * ambient_c
                    - (0..n)
                        .map(|l| self.conductance(g, j, l) * t[l])
                        .sum::<f64>();
                (flow.abs() + p_max[j]) / self.capacitance[j]
            })
            .collect();
        // a = gᵀA with A = −C⁻¹·G, and ‖A‖∞.
        let a: Vec<f64> = (0..n)
            .map(|j| {
                -(0..n)
                    .map(|i| g[i] * self.conductance(g, i, j) / self.capacitance[i])
                    .sum::<f64>()
            })
            .collect();
        let a_norm = (0..n)
            .map(|i| {
                (0..n).map(|j| self.conductance(g, i, j).abs()).sum::<f64>() / self.capacitance[i]
            })
            .fold(0.0, f64::max);
        let v_max = v.iter().copied().fold(0.0, f64::max);
        let a_sum: f64 = a.iter().map(|x| x.abs()).sum();
        let leading: f64 = a.iter().zip(&v).map(|(a, v)| a.abs() * v).sum();
        let truncation = H_S.powi(3) / 12.0 * leading
            + (H_S.powi(4) / 24.0 * a_norm + H_S.powi(5) / 48.0 * a_norm * a_norm) * a_sum * v_max;
        // Each node's step rounds about 2n products of temperature size,
        // and the balance sums C·ΔT and g·T̄ over the nodes.
        let t_scale = t
            .iter()
            .chain(t_end)
            .map(|x| x.abs())
            .fold(ambient_c.abs(), f64::max);
        let c_sum: f64 = self.capacitance.iter().sum::<f64>() + H_S * g.iter().sum::<f64>();
        let rounding = 4.0 * n as f64 * f64::EPSILON * t_scale * c_sum;
        truncation + rounding
    }
}

/// Lane `lane`'s platform state: the big cluster with one to four cores
/// online, or (lane 7) the little cluster with the big cores power-gated.
/// A big cluster keeps a core online, so every watt a step reports is
/// injected into the network.
fn state_for(spec: &SocSpec, lane: usize) -> PlatformState {
    let mut state = PlatformState::default_for(spec);
    state.gpu_frequency = spec.gpu_opps().highest().frequency;
    if lane == 7 {
        state.migrate_to_cluster(ClusterKind::Little, spec.little_opps().highest().frequency);
    } else {
        for core in 4 - lane % 4..4 {
            state.set_core_online(ClusterKind::Big, core, false);
        }
    }
    state
}

fn demand(heavy: bool) -> Demand {
    if heavy {
        Demand {
            cpu_streams: 4.0,
            activity_factor: 0.95,
            gpu_utilization: 0.8,
            memory_intensity: 0.7,
            frequency_scalability: 1.0,
        }
    } else {
        Demand {
            cpu_streams: 0.5,
            activity_factor: 0.3,
            gpu_utilization: 0.05,
            memory_intensity: 0.2,
            frequency_scalability: 1.0,
        }
    }
}

/// Steps `engine` through the grid and holds every lane's balance at every
/// step to the truncation bound.
fn assert_energy_balances(engine: &mut dyn PlantEngine, label: &str) {
    let spec = SocSpec::odroid_xu_e();
    let model = Model::odroid_xu_e();
    let n = model.n();
    assert_eq!(engine.node_count(), n);
    let ambients: Vec<f64> = (0..LANES).map(|lane| 22.0 + 1.5 * lane as f64).collect();
    let states: Vec<PlatformState> = (0..LANES).map(|lane| state_for(&spec, lane)).collect();
    let demands = [demand(true), demand(false)];

    let mut start = vec![vec![0.0; n]; LANES];
    let mut end = vec![0.0; n];
    for (lane, temps) in start.iter_mut().enumerate() {
        engine.node_temps_into(lane, temps);
    }
    let mut steps = Vec::new();
    for step in 0..STEPS {
        let phase = step / PHASE_STEPS;
        let fans: Vec<FanLevel> = (0..LANES)
            .map(|lane| FanLevel::ALL[(lane + phase) % 4])
            .collect();
        let inputs: Vec<LaneInput<'_>> = (0..LANES)
            .map(|lane| LaneInput {
                state: &states[lane],
                demand: &demands[(lane + phase) % 2],
                fan_level: fans[lane],
                ambient_c: ambients[lane],
            })
            .collect();
        engine
            .step_interval(&inputs, H_S, &mut steps)
            .expect("well-formed interval");
        for lane in 0..LANES {
            let power = steps[lane].as_ref().expect("every lane steps").domain_power;
            engine.node_temps_into(lane, &mut end);
            let t = &start[lane];
            let g = model.ambient_with_fan(spec.fan().conductance_boost_w_per_k(fans[lane]));
            let ambient_c = ambients[lane];
            let stored: f64 = (0..n).map(|i| model.capacitance[i] * (end[i] - t[i])).sum();
            let lost: f64 = (0..n)
                .map(|i| g[i] * (0.5 * (t[i] + end[i]) - ambient_c))
                .sum();
            let step_residual = stored - H_S * power.total() + H_S * lost;
            let p = [power.big_w, power.little_w, power.gpu_w, power.memory_w];
            let step_bound = model.step_bound(t, &end, ambient_c, &g, p);
            assert!(
                step_residual.abs() <= step_bound,
                "{label}: lane {lane}, step {step}: residual {step_residual:.3e} J \
                 against a bound of {step_bound:.3e} J"
            );
            start[lane].copy_from_slice(&end);
        }
    }
}

fn params() -> Vec<PlantPowerParams> {
    (0..LANES)
        .map(|lane| PlantPowerParams {
            initial_temp_c: 35.0 + 7.0 * lane as f64,
            ..PlantPowerParams::default()
        })
        .collect()
}

#[test]
fn the_scalar_engine_conserves_energy() {
    let mut engine = ScalarEngine::new(SocSpec::odroid_xu_e(), &params());
    assert_energy_balances(&mut engine, "scalar");
}

#[test]
fn the_panel_engine_conserves_energy() {
    let mut engine = PanelEngine::new(SocSpec::odroid_xu_e(), &params());
    assert_energy_balances(&mut engine, "panel-8");
}
