//! Ground-truth RC thermal network (the simulated silicon).
//!
//! Using the duality between thermal and electrical quantities, the plant is a
//! lumped RC network: every node has a heat capacitance (J/K) and nodes are
//! connected by thermal conductances (W/K); some nodes are additionally
//! connected to the ambient. The node temperatures obey
//!
//! ```text
//! C·dT/dt = −G·T(t) + P(t) + G_amb·T_amb        (Eq. 4.3 of the paper)
//! ```
//!
//! The simulator integrates this with a fixed-step RK4 scheme at a much finer
//! time step than the 100 ms control interval, so the controller's identified
//! model is a genuine *reduction* of the plant, exactly as on real hardware.

use numeric::{Matrix, Panel, PanelF32, Vector};

use crate::ThermalError;

/// Index of a node in a [`ThermalNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

/// Builder for a [`ThermalNetwork`].
///
/// # Example
///
/// ```
/// use thermal_model::ThermalNetworkBuilder;
///
/// # fn main() -> Result<(), thermal_model::ThermalError> {
/// let mut b = ThermalNetworkBuilder::new();
/// let die = b.add_node("die", 0.2);
/// let case = b.add_node("case", 8.0);
/// b.connect(die, case, 2.0)?;
/// b.connect_to_ambient(case, 0.07)?;
/// let network = b.build()?;
/// assert_eq!(network.node_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ThermalNetworkBuilder {
    names: Vec<String>,
    capacitances: Vec<f64>,
    /// (node a, node b, conductance W/K)
    couplings: Vec<(usize, usize, f64)>,
    /// per-node conductance to ambient
    ambient_conductances: Vec<f64>,
}

impl ThermalNetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ThermalNetworkBuilder::default()
    }

    /// Adds a node with the given name and heat capacitance (J/K) and returns
    /// its id.
    pub fn add_node(&mut self, name: &str, capacitance_j_per_k: f64) -> NodeId {
        self.names.push(name.to_owned());
        self.capacitances.push(capacitance_j_per_k);
        self.ambient_conductances.push(0.0);
        NodeId(self.names.len() - 1)
    }

    /// Connects two nodes with a thermal conductance (W/K).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for unknown nodes,
    /// self-connections or non-positive conductances.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        conductance_w_per_k: f64,
    ) -> Result<(), ThermalError> {
        if a.0 >= self.names.len() || b.0 >= self.names.len() {
            return Err(ThermalError::InvalidParameter("unknown node id"));
        }
        if a == b {
            return Err(ThermalError::InvalidParameter(
                "cannot connect a node to itself",
            ));
        }
        if !(conductance_w_per_k > 0.0) {
            return Err(ThermalError::InvalidParameter(
                "conductance must be positive",
            ));
        }
        self.couplings.push((a.0, b.0, conductance_w_per_k));
        Ok(())
    }

    /// Connects a node to the ambient with the given conductance (W/K).
    /// Calling this twice for a node accumulates the conductances.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for unknown nodes or
    /// non-positive conductances.
    pub fn connect_to_ambient(
        &mut self,
        node: NodeId,
        conductance_w_per_k: f64,
    ) -> Result<(), ThermalError> {
        if node.0 >= self.names.len() {
            return Err(ThermalError::InvalidParameter("unknown node id"));
        }
        if !(conductance_w_per_k > 0.0) {
            return Err(ThermalError::InvalidParameter(
                "conductance must be positive",
            ));
        }
        self.ambient_conductances[node.0] += conductance_w_per_k;
        Ok(())
    }

    /// Builds the network.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] if the network has no nodes,
    /// a node has a non-positive capacitance, or no node is connected to the
    /// ambient (the network could then not shed heat at all).
    pub fn build(self) -> Result<ThermalNetwork, ThermalError> {
        if self.names.is_empty() {
            return Err(ThermalError::InvalidParameter("network has no nodes"));
        }
        if self.capacitances.iter().any(|&c| !(c > 0.0)) {
            return Err(ThermalError::InvalidParameter(
                "all node capacitances must be positive",
            ));
        }
        if self.ambient_conductances.iter().all(|&g| g == 0.0) {
            return Err(ThermalError::InvalidParameter(
                "at least one node must be connected to the ambient",
            ));
        }
        // Hot-path precomputation: the RK4 integrator multiplies by the
        // reciprocal capacitance instead of dividing, and walks `couplings`
        // as a flat edge list.
        let inv_capacitances = self.capacitances.iter().map(|c| 1.0 / c).collect();
        Ok(ThermalNetwork {
            names: self.names,
            capacitances: self.capacitances,
            couplings: self.couplings,
            ambient_conductances: self.ambient_conductances,
            inv_capacitances,
        })
    }
}

/// Extra node-to-ambient conductance applied during a single integration step
/// without modifying (or cloning) the network — how the fan's contribution
/// enters the hot path.
///
/// The per-interval simulation loop used to call
/// [`ThermalNetwork::with_extra_ambient_conductance`], cloning the entire
/// network (names included) once per control interval. A `FanBoost` carries
/// the same information as a two-word value instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanBoost {
    node: usize,
    conductance_w_per_k: f64,
}

impl FanBoost {
    /// No extra conductance anywhere (fan off).
    pub const NONE: FanBoost = FanBoost {
        node: 0,
        conductance_w_per_k: 0.0,
    };

    /// Adds `conductance_w_per_k` (clamped at zero) of extra ambient
    /// conductance to `node` for the duration of a step.
    pub fn at(node: NodeId, conductance_w_per_k: f64) -> Self {
        FanBoost {
            node: node.0,
            conductance_w_per_k: conductance_w_per_k.max(0.0),
        }
    }

    /// The boosted node.
    pub fn node(&self) -> NodeId {
        NodeId(self.node)
    }

    /// The extra conductance, W/K.
    pub fn conductance_w_per_k(&self) -> f64 {
        self.conductance_w_per_k
    }
}

impl Default for FanBoost {
    fn default() -> Self {
        FanBoost::NONE
    }
}

/// Reusable buffers for the in-place RK4 integrator
/// ([`ThermalNetwork::step_into`]).
///
/// Holding one `RkScratch` per integration loop makes stepping completely
/// allocation-free: the four slope vectors, the stage-state vector and the
/// edge-flow accumulator are allocated once and reused for every micro-step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RkScratch {
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    stage: Vec<f64>,
    flows: Vec<f64>,
}

impl RkScratch {
    /// Creates scratch buffers sized for a network with `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        let mut scratch = RkScratch::default();
        scratch.ensure(node_count);
        scratch
    }

    fn ensure(&mut self, n: usize) {
        for buf in [
            &mut self.k1,
            &mut self.k2,
            &mut self.k3,
            &mut self.k4,
            &mut self.stage,
            &mut self.flows,
        ] {
            buf.resize(n, 0.0);
        }
    }
}

/// A lumped RC thermal network integrated with fixed-step RK4.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalNetwork {
    names: Vec<String>,
    capacitances: Vec<f64>,
    couplings: Vec<(usize, usize, f64)>,
    ambient_conductances: Vec<f64>,
    /// `1 / capacitances[i]`, precomputed at build time for the integrator.
    inv_capacitances: Vec<f64>,
}

impl ThermalNetwork {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.names[node.0]
    }

    /// Looks up a node id by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.iter().position(|n| n == name).map(NodeId)
    }

    /// Additional conductance to ambient applied to `node` (used to model the
    /// fan speeding up); returns a modified copy.
    pub fn with_extra_ambient_conductance(&self, node: NodeId, extra_w_per_k: f64) -> Self {
        let mut copy = self.clone();
        if let Some(g) = copy.ambient_conductances.get_mut(node.0) {
            *g += extra_w_per_k.max(0.0);
        }
        copy
    }

    /// Temperature derivative `dT/dt` for the given state, power injection and
    /// ambient temperature, written into `out` without allocating. `flows`
    /// accumulates the node-to-node edge flows.
    fn derivative_into(
        &self,
        temps: &[f64],
        powers: &[f64],
        ambient_c: f64,
        boost: FanBoost,
        flows: &mut [f64],
        out: &mut [f64],
    ) {
        flows.fill(0.0);
        // Node-to-node coupling over the flat edge list.
        for &(a, b, g) in &self.couplings {
            let flow = g * (temps[b] - temps[a]);
            flows[a] += flow;
            flows[b] -= flow;
        }
        // Ambient exchange and power injection.
        for (i, slot) in out.iter_mut().enumerate() {
            let mut g_amb = self.ambient_conductances[i];
            if i == boost.node {
                g_amb += boost.conductance_w_per_k;
            }
            let ambient_flow = g_amb * (ambient_c - temps[i]);
            *slot = (flows[i] + ambient_flow + powers[i]) * self.inv_capacitances[i];
        }
    }

    /// Advances `temps_c` in place by `dt` seconds using one RK4 step with the
    /// node power injections `powers_w` (W) held constant over the step.
    ///
    /// This is the allocation-free hot path: all intermediate state lives in
    /// `scratch`, and `fan_boost` injects the fan's extra ambient conductance
    /// without cloning the network (pass [`FanBoost::NONE`] when the fan is
    /// off). [`ThermalNetwork::step`] is a convenience wrapper around this
    /// method, so the two are bit-identical by construction.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::DimensionMismatch`] if the vectors have the
    /// wrong length, or [`ThermalError::InvalidParameter`] for a non-positive
    /// step size.
    pub fn step_into(
        &self,
        temps_c: &mut [f64],
        powers_w: &[f64],
        ambient_c: f64,
        dt_s: f64,
        fan_boost: FanBoost,
        scratch: &mut RkScratch,
    ) -> Result<(), ThermalError> {
        let n = self.node_count();
        if temps_c.len() != n {
            return Err(ThermalError::DimensionMismatch {
                what: "temperature vector",
                expected: n,
                actual: temps_c.len(),
            });
        }
        if powers_w.len() != n {
            return Err(ThermalError::DimensionMismatch {
                what: "power vector",
                expected: n,
                actual: powers_w.len(),
            });
        }
        if !(dt_s > 0.0) || !dt_s.is_finite() {
            return Err(ThermalError::InvalidParameter("step size must be positive"));
        }
        scratch.ensure(n);
        let RkScratch {
            k1,
            k2,
            k3,
            k4,
            stage,
            flows,
        } = scratch;

        self.derivative_into(temps_c, powers_w, ambient_c, fan_boost, flows, k1);
        for i in 0..n {
            stage[i] = temps_c[i] + 0.5 * dt_s * k1[i];
        }
        self.derivative_into(stage, powers_w, ambient_c, fan_boost, flows, k2);
        for i in 0..n {
            stage[i] = temps_c[i] + 0.5 * dt_s * k2[i];
        }
        self.derivative_into(stage, powers_w, ambient_c, fan_boost, flows, k3);
        for i in 0..n {
            stage[i] = temps_c[i] + dt_s * k3[i];
        }
        self.derivative_into(stage, powers_w, ambient_c, fan_boost, flows, k4);

        for i in 0..n {
            temps_c[i] += dt_s / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        Ok(())
    }

    /// Advances the node temperatures by `dt` seconds using one RK4 step with
    /// the node power injections `powers_w` (W) held constant over the step.
    ///
    /// Allocating convenience wrapper over [`ThermalNetwork::step_into`];
    /// prefer the latter (with a reused [`RkScratch`]) in loops.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::DimensionMismatch`] if the vectors have the
    /// wrong length, or [`ThermalError::InvalidParameter`] for a non-positive
    /// step size.
    pub fn step(
        &self,
        temps_c: &[f64],
        powers_w: &[f64],
        ambient_c: f64,
        dt_s: f64,
    ) -> Result<Vec<f64>, ThermalError> {
        if temps_c.len() != self.node_count() {
            return Err(ThermalError::DimensionMismatch {
                what: "temperature vector",
                expected: self.node_count(),
                actual: temps_c.len(),
            });
        }
        let mut out = temps_c.to_vec();
        let mut scratch = RkScratch::new(self.node_count());
        self.step_into(
            &mut out,
            powers_w,
            ambient_c,
            dt_s,
            FanBoost::NONE,
            &mut scratch,
        )?;
        Ok(out)
    }

    /// The node-to-node couplings as `(a, b, conductance W/K)` triples — the
    /// flat edge list the integrator walks.
    pub fn couplings(&self) -> &[(usize, usize, f64)] {
        &self.couplings
    }

    /// Per-node conductance to the ambient (W/K).
    pub fn ambient_conductances(&self) -> &[f64] {
        &self.ambient_conductances
    }

    /// Precomputes the exact one-micro-step RK4 transition for this network
    /// under a fixed fan boost, ambient temperature and step size.
    ///
    /// The thermal ODE is linear, `dT/dt = A·T + u` with constant `A` (the
    /// conductance/capacitance structure) and a per-step-constant drive `u`
    /// (power injection plus ambient exchange), so one classical RK4 step is
    /// *exactly* the affine map
    ///
    /// ```text
    /// T⁺ = R·T + S·u,   R = I + hA·K,   S = h·K,
    /// K = I + (hA/2)·(I + (hA/3)·(I + hA/4))
    /// ```
    ///
    /// [`StepTransition::apply`] evaluates that map with two dense
    /// matrix–vector products — several times cheaper than the four staged
    /// derivative sweeps of [`ThermalNetwork::step_into`], at the cost of
    /// floating-point *reassociation*: results agree with the staged RK4 to
    /// rounding error (~1e-12 °C over long horizons), not bit-exactly. The
    /// simulation hot loop caches one transition per (fan level, ambient)
    /// and reuses it for every micro-step.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for a non-positive step
    /// size.
    pub fn step_transition(
        &self,
        fan_boost: FanBoost,
        ambient_c: f64,
        dt_s: f64,
    ) -> Result<StepTransition, ThermalError> {
        let (r, s_power, ambient_drive) = self.transition_parts(fan_boost, ambient_c, dt_s)?;
        Ok(StepTransition {
            n: self.node_count(),
            r_t: r.transpose().as_slice().to_vec(),
            s_power_t: s_power.transpose().as_slice().to_vec(),
            ambient_drive,
        })
    }

    /// The affine one-micro-step RK4 map `T⁺ = R·T + S_p·p + c` shared by
    /// [`ThermalNetwork::step_transition`] (scalar, transposed storage) and
    /// [`ThermalNetwork::batch_step_transition`] (structure-of-arrays panel
    /// form). Returns `(R, S_p, c)` with the matrices in row-major layout.
    fn transition_parts(
        &self,
        fan_boost: FanBoost,
        ambient_c: f64,
        dt_s: f64,
    ) -> Result<(Matrix, Matrix, Vec<f64>), ThermalError> {
        if !(dt_s > 0.0) || !dt_s.is_finite() {
            return Err(ThermalError::InvalidParameter("step size must be positive"));
        }
        let n = self.node_count();

        // hA, with A_ij = ∂(dT_i/dt)/∂T_j.
        let mut ha = Matrix::zeros(n, n);
        for &(a, b, g) in &self.couplings {
            ha[(a, b)] += dt_s * g * self.inv_capacitances[a];
            ha[(a, a)] -= dt_s * g * self.inv_capacitances[a];
            ha[(b, a)] += dt_s * g * self.inv_capacitances[b];
            ha[(b, b)] -= dt_s * g * self.inv_capacitances[b];
        }
        for i in 0..n {
            let mut g_amb = self.ambient_conductances[i];
            if i == fan_boost.node {
                g_amb += fan_boost.conductance_w_per_k;
            }
            ha[(i, i)] -= dt_s * g_amb * self.inv_capacitances[i];
        }

        // K = I + (hA/2)·(I + (hA/3)·(I + hA/4)), Horner form of the RK4
        // polynomial; then R = I + hA·K and S = h·K.
        let identity = Matrix::identity(n);
        let k = identity
            .add(
                &ha.scale(0.5)
                    .mul(
                        &identity
                            .add(
                                &ha.scale(1.0 / 3.0)
                                    .mul(&identity.add(&ha.scale(0.25)).expect("same shape"))
                                    .expect("square"),
                            )
                            .expect("same shape"),
                    )
                    .expect("square"),
            )
            .expect("same shape");
        let r = identity
            .add(&ha.mul(&k).expect("square"))
            .expect("same shape");
        let s = k.scale(dt_s);

        // Fold the drive u = inv_cap ⊙ (p + g_amb·T_amb) into the matrices:
        // T⁺ = R·T + (S·diag(inv_cap))·p + S·(inv_cap ⊙ g_amb·T_amb).
        let mut s_power = s.clone();
        let mut ambient_drive = vec![0.0; n];
        for i in 0..n {
            let mut c = 0.0;
            for j in 0..n {
                let mut g_amb = self.ambient_conductances[j];
                if j == fan_boost.node {
                    g_amb += fan_boost.conductance_w_per_k;
                }
                c += s[(i, j)] * self.inv_capacitances[j] * g_amb * ambient_c;
                s_power[(i, j)] = s[(i, j)] * self.inv_capacitances[j];
            }
            ambient_drive[i] = c;
        }

        Ok((r, s_power, ambient_drive))
    }

    /// Precomputes the one-micro-step RK4 transition in its
    /// structure-of-arrays batch form: the same affine map as
    /// [`ThermalNetwork::step_transition`], stored row-major so
    /// [`BatchStepTransition::apply_panel`] can advance a whole temperature
    /// panel (one scenario per column) with the matrices loaded once per
    /// micro-step for all lanes.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for a non-positive step
    /// size.
    pub fn batch_step_transition(
        &self,
        fan_boost: FanBoost,
        ambient_c: f64,
        dt_s: f64,
    ) -> Result<BatchStepTransition, ThermalError> {
        let (r, s_power, ambient_drive) = self.transition_parts(fan_boost, ambient_c, dt_s)?;
        Ok(BatchStepTransition {
            n: self.node_count(),
            r,
            s_power,
            ambient_drive,
        })
    }

    /// Steady-state temperatures for constant power injections and ambient.
    ///
    /// Solves `G·T = P + G_amb·T_amb`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::DimensionMismatch`] for a wrong-length power
    /// vector or [`ThermalError::Numeric`] if the conductance matrix is
    /// singular (no path to ambient).
    pub fn steady_state(&self, powers_w: &[f64], ambient_c: f64) -> Result<Vec<f64>, ThermalError> {
        let n = self.node_count();
        if powers_w.len() != n {
            return Err(ThermalError::DimensionMismatch {
                what: "power vector",
                expected: n,
                actual: powers_w.len(),
            });
        }
        let mut g = Matrix::zeros(n, n);
        for &(a, b, cond) in &self.couplings {
            g[(a, a)] += cond;
            g[(b, b)] += cond;
            g[(a, b)] -= cond;
            g[(b, a)] -= cond;
        }
        let mut rhs = Vector::zeros(n);
        for i in 0..n {
            g[(i, i)] += self.ambient_conductances[i];
            rhs[i] = powers_w[i] + self.ambient_conductances[i] * ambient_c;
        }
        Ok(g.solve(&rhs)?.into_vec())
    }

    /// The thermal capacitance of each node (J/K).
    pub fn capacitances(&self) -> &[f64] {
        &self.capacitances
    }
}

/// Precomputed one-micro-step RK4 transition of a [`ThermalNetwork`] for a
/// fixed fan boost, ambient temperature and step size
/// (see [`ThermalNetwork::step_transition`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StepTransition {
    n: usize,
    /// `Rᵀ`, row-major `n × n` — i.e. the columns of `R` stored contiguously,
    /// so the apply loop is a dense axpy sweep the compiler can vectorise.
    r_t: Vec<f64>,
    /// `(S·diag(1/C))ᵀ`, row-major `n × n` (applied to the raw power vector).
    s_power_t: Vec<f64>,
    /// `S·(1/C ⊙ G_amb·T_amb)`, the constant ambient drive.
    ambient_drive: Vec<f64>,
}

impl StepTransition {
    /// Number of nodes the transition covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Advances `temps` in place by one micro-step with the node power
    /// injections `powers_w`, using `tmp` as scratch. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `temps`, `powers_w` or `tmp` do not cover all nodes.
    #[inline]
    pub fn apply(&self, temps: &mut [f64], powers_w: &[f64], tmp: &mut [f64]) {
        let n = self.n;
        assert_eq!(temps.len(), n, "temperature vector length");
        assert_eq!(powers_w.len(), n, "power vector length");
        assert_eq!(tmp.len(), n, "scratch vector length");
        // Column-major (axpy) accumulation: tmp = drive + Σ_j R[:,j]·t_j +
        // Σ_j S[:,j]·p_j. Every tmp element is independent, so the inner
        // loops vectorise without any reduction reassociation.
        tmp.copy_from_slice(&self.ambient_drive);
        for j in 0..n {
            let tj = temps[j];
            let pj = powers_w[j];
            let r_col = &self.r_t[j * n..(j + 1) * n];
            let s_col = &self.s_power_t[j * n..(j + 1) * n];
            for i in 0..n {
                tmp[i] = numeric::simd::madd2(r_col[i], tj, s_col[i], pj, tmp[i]);
            }
        }
        temps.copy_from_slice(tmp);
    }
}

/// The batched (structure-of-arrays) form of a [`StepTransition`]: the same
/// precomputed affine RK4 micro-step, applied to a temperature [`Panel`] that
/// holds one scenario per column
/// (see [`ThermalNetwork::batch_step_transition`]).
///
/// [`BatchStepTransition::apply_panel`] advances every lane in one blocked
/// mat-mat pass (`numeric::affine_pair_apply`), so the two 8×8 matrices are
/// streamed through the cache once per micro-step for *all* scenarios;
/// [`BatchStepTransition::apply_lane`] advances a single column at stride and
/// is used when lanes diverge (e.g. different fan levels) within a batch.
/// Both paths accumulate each lane in the same order as
/// [`StepTransition::apply`], so a batched lane's trajectory is bit-identical
/// to the scalar transition given identical power inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStepTransition {
    n: usize,
    /// `R`, row-major `n × n`.
    r: Matrix,
    /// `S·diag(1/C)`, row-major `n × n` (applied to the raw power panel).
    s_power: Matrix,
    /// `S·(1/C ⊙ G_amb·T_amb)`, the constant ambient drive.
    ambient_drive: Vec<f64>,
}

impl BatchStepTransition {
    /// Number of nodes the transition covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The transition matrix `R` (row-major `n × n`).
    ///
    /// Together with [`BatchStepTransition::s_power`] and
    /// [`BatchStepTransition::ambient_drive`] this exposes the complete
    /// affine micro-step `T⁺ = R·T + S_p·p + c` as borrowed views, so an
    /// alternative `PlantEngine` backend (a GPU kernel over device buffers,
    /// a different SoA layout) can consume the precomputed per-step math
    /// without going through the CPU [`Panel`] apply paths.
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// The power-injection matrix `S·diag(1/C)` (row-major `n × n`), applied
    /// to the raw per-node power vector (see [`BatchStepTransition::r`]).
    pub fn s_power(&self) -> &Matrix {
        &self.s_power
    }

    /// The constant ambient drive `S·(1/C ⊙ G_amb·T_amb)` (length `n`, see
    /// [`BatchStepTransition::r`]).
    pub fn ambient_drive(&self) -> &[f64] {
        &self.ambient_drive
    }

    /// Advances every lane of `temps` by one micro-step with the per-lane
    /// node power injections in `powers`, using `tmp` as scratch (its
    /// contents are overwritten; after the call `temps` holds the new
    /// temperatures). Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the panels do not all have `node_count` rows and matching
    /// lane counts.
    #[inline]
    pub fn apply_panel(&self, temps: &mut Panel, powers: &Panel, tmp: &mut Panel) {
        numeric::affine_pair_apply(
            &self.r,
            &self.s_power,
            &self.ambient_drive,
            temps,
            powers,
            tmp,
        )
        .expect("panel shapes must cover all nodes");
        std::mem::swap(temps, tmp);
    }

    /// Advances only lane `lane` of `temps` by one micro-step — the strided
    /// fallback for batches whose lanes need different transitions. The
    /// per-lane accumulation order matches [`BatchStepTransition::apply_panel`]
    /// exactly, so mixing the two paths never changes a trajectory.
    ///
    /// # Panics
    ///
    /// Panics if the panels do not have `node_count` rows, `lane` is out of
    /// range, or `col` does not cover all nodes.
    #[inline]
    pub fn apply_lane(&self, temps: &mut Panel, powers: &Panel, lane: usize, col: &mut [f64]) {
        let n = self.n;
        assert_eq!(temps.rows(), n, "temperature panel rows");
        assert_eq!(powers.rows(), n, "power panel rows");
        assert_eq!(col.len(), n, "column scratch length");
        assert!(lane < temps.lanes(), "lane index out of bounds");
        let r = self.r.as_slice();
        let s = self.s_power.as_slice();
        for (i, slot) in col.iter_mut().enumerate() {
            let mut acc = self.ambient_drive[i];
            for j in 0..n {
                acc = numeric::simd::madd2(
                    r[i * n + j],
                    temps.get(j, lane),
                    s[i * n + j],
                    powers.get(j, lane),
                    acc,
                );
            }
            *slot = acc;
        }
        for (i, &v) in col.iter().enumerate() {
            temps.set(i, lane, v);
        }
    }
}

/// Single-precision demotion of a [`BatchStepTransition`] for the
/// mixed-precision batch engine.
///
/// The transition matrices are always *computed* in f64 — the RK4
/// discretisation involves matrix powers whose conditioning f32 would
/// visibly degrade — and demoted element-wise once per control interval via
/// [`BatchStepTransitionF32::from_f64`]. The apply paths then run entirely
/// at f32 width through the width-generic panel kernels
/// ([`numeric::affine_pair_apply_elem`]), doubling the lanes advanced per
/// vector relative to [`BatchStepTransition::apply_panel`]. Like the f64
/// form, the panel and per-lane paths share one per-lane accumulation
/// order, so mixing them never changes a trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStepTransitionF32 {
    n: usize,
    /// `R`, demoted, as an `n × n` row-major panel-as-matrix.
    r: PanelF32,
    /// `S·diag(1/C)`, demoted, `n × n` row-major.
    s_power: PanelF32,
    /// `S·(1/C ⊙ G_amb·T_amb)`, demoted.
    ambient_drive: Vec<f32>,
}

impl BatchStepTransitionF32 {
    /// Demotes a precomputed f64 transition to f32 storage, element-wise.
    pub fn from_f64(full: &BatchStepTransition) -> Self {
        let n = full.n;
        let mut r = PanelF32::zeros(n, n);
        let mut s_power = PanelF32::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                r.set(i, j, full.r[(i, j)] as f32);
                s_power.set(i, j, full.s_power[(i, j)] as f32);
            }
        }
        BatchStepTransitionF32 {
            n,
            r,
            s_power,
            ambient_drive: full.ambient_drive.iter().map(|&v| v as f32).collect(),
        }
    }

    /// Number of nodes the transition covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Advances every lane of `temps` by one f32 micro-step (see
    /// [`BatchStepTransition::apply_panel`]); `tmp` is overwritten scratch.
    ///
    /// # Panics
    ///
    /// Panics if the panels do not all have `node_count` rows and matching
    /// lane counts.
    #[inline]
    pub fn apply_panel(&self, temps: &mut PanelF32, powers: &PanelF32, tmp: &mut PanelF32) {
        numeric::affine_pair_apply_elem(
            &self.r,
            &self.s_power,
            &self.ambient_drive,
            temps,
            powers,
            tmp,
        )
        .expect("panel shapes must cover all nodes");
        std::mem::swap(temps, tmp);
    }

    /// Advances every lane of `temps` by one f32 micro-step with a caller
    /// supplied per-lane bias panel *replacing* the transition's own ambient
    /// drive: `T⁺ = bias + R·T + S_p·p`. This is the delta-form engine's hot
    /// call — the bias carries the whole constant term `c + (R − I)·T0` per
    /// lane, so the deviation advance needs no follow-up pass. `tmp` is
    /// overwritten scratch. Per-lane accumulation order matches
    /// [`BatchStepTransitionF32::apply_lane_bias`] exactly.
    ///
    /// # Panics
    ///
    /// Panics if the panels do not all have `node_count` rows and matching
    /// lane counts.
    #[inline]
    pub fn apply_panel_bias(
        &self,
        temps: &mut PanelF32,
        powers: &PanelF32,
        bias: &PanelF32,
        tmp: &mut PanelF32,
    ) {
        numeric::affine_panel_bias_apply_elem(&self.r, &self.s_power, bias, temps, powers, tmp)
            .expect("panel shapes must cover all nodes");
        std::mem::swap(temps, tmp);
    }

    /// Advances only lane `lane` of `temps` with a per-lane bias panel — the
    /// strided fallback twin of [`BatchStepTransitionF32::apply_panel_bias`],
    /// accumulation order identical per lane.
    ///
    /// # Panics
    ///
    /// Panics if the panels do not have `node_count` rows, `lane` is out of
    /// range, or `col` does not cover all nodes.
    #[inline]
    pub fn apply_lane_bias(
        &self,
        temps: &mut PanelF32,
        powers: &PanelF32,
        bias: &PanelF32,
        lane: usize,
        col: &mut [f32],
    ) {
        let n = self.n;
        assert_eq!(temps.rows(), n, "temperature panel rows");
        assert_eq!(powers.rows(), n, "power panel rows");
        assert_eq!(bias.rows(), n, "bias panel rows");
        assert_eq!(col.len(), n, "column scratch length");
        assert!(lane < temps.lanes(), "lane index out of bounds");
        let r = self.r.as_slice();
        let s = self.s_power.as_slice();
        for (i, slot) in col.iter_mut().enumerate() {
            let mut acc = bias.get(i, lane);
            for j in 0..n {
                acc = numeric::simd::madd2_f32(
                    r[i * n + j],
                    temps.get(j, lane),
                    s[i * n + j],
                    powers.get(j, lane),
                    acc,
                );
            }
            *slot = acc;
        }
        for (i, &v) in col.iter().enumerate() {
            temps.set(i, lane, v);
        }
    }

    /// Advances only lane `lane` of `temps` — the strided fallback for
    /// batches whose lanes need different transitions, accumulation order
    /// identical to [`BatchStepTransitionF32::apply_panel`].
    ///
    /// # Panics
    ///
    /// Panics if the panels do not have `node_count` rows, `lane` is out of
    /// range, or `col` does not cover all nodes.
    #[inline]
    pub fn apply_lane(
        &self,
        temps: &mut PanelF32,
        powers: &PanelF32,
        lane: usize,
        col: &mut [f32],
    ) {
        let n = self.n;
        assert_eq!(temps.rows(), n, "temperature panel rows");
        assert_eq!(powers.rows(), n, "power panel rows");
        assert_eq!(col.len(), n, "column scratch length");
        assert!(lane < temps.lanes(), "lane index out of bounds");
        let r = self.r.as_slice();
        let s = self.s_power.as_slice();
        for (i, slot) in col.iter_mut().enumerate() {
            let mut acc = self.ambient_drive[i];
            for j in 0..n {
                acc = numeric::simd::madd2_f32(
                    r[i * n + j],
                    temps.get(j, lane),
                    s[i * n + j],
                    powers.get(j, lane),
                    acc,
                );
            }
            *slot = acc;
        }
        for (i, &v) in col.iter().enumerate() {
            temps.set(i, lane, v);
        }
    }
}

/// The eight-node plant model of the Odroid-XU+E used by the simulator.
///
/// Nodes: the four big (A15) cores — the thermal hotspots with dedicated
/// sensors — plus lumped nodes for the little cluster, the GPU, the memory and
/// the board/heat-sink ("case"). Only the case exchanges heat with the ambient;
/// the fan increases that exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct ExynosThermalNetwork {
    network: ThermalNetwork,
    big_cores: [NodeId; 4],
    little: NodeId,
    gpu: NodeId,
    memory: NodeId,
    case: NodeId,
    passive_case_conductance: f64,
}

impl ExynosThermalNetwork {
    /// Builds the calibrated Odroid-XU+E plant.
    ///
    /// The parameters are chosen so the closed-loop behaviour matches the
    /// paper's measurements in shape: without a fan a sustained ~4 W load
    /// drives the hottest core towards ~85–90 °C within a couple of minutes
    /// (Figure 1.1), while light loads settle in the mid-40s.
    pub fn odroid_xu_e() -> Self {
        let mut b = ThermalNetworkBuilder::new();
        let big0 = b.add_node("big_core0", 0.18);
        let big1 = b.add_node("big_core1", 0.18);
        let big2 = b.add_node("big_core2", 0.18);
        let big3 = b.add_node("big_core3", 0.18);
        let little = b.add_node("little_cluster", 0.35);
        let gpu = b.add_node("gpu", 0.30);
        let memory = b.add_node("memory", 0.40);
        let case = b.add_node("case", 11.0);

        // Big cores sit on a 2x2 grid: 0-1 / 2-3. The relatively small
        // conductances produce per-core gradients of a degree or two under
        // asymmetric load, which is what the hottest-core shutdown rule of the
        // DTPM algorithm keys on.
        let adjacent = 0.18;
        let diagonal = 0.09;
        b.connect(big0, big1, adjacent).expect("valid");
        b.connect(big2, big3, adjacent).expect("valid");
        b.connect(big0, big2, adjacent).expect("valid");
        b.connect(big1, big3, adjacent).expect("valid");
        b.connect(big0, big3, diagonal).expect("valid");
        b.connect(big1, big2, diagonal).expect("valid");

        // Every active block conducts into the case / heat spreader. The
        // junction-to-case resistance of a few K/W per core gives the fast
        // several-degree hotspot response to power steps that real mobile
        // silicon shows within a second — this is what the identified B
        // matrix (and hence the power budget) keys on.
        for core in [big0, big1, big2, big3] {
            b.connect(core, case, 0.25).expect("valid");
        }
        b.connect(little, case, 0.60).expect("valid");
        b.connect(gpu, case, 0.60).expect("valid");
        b.connect(memory, case, 0.50).expect("valid");

        // Lateral die coupling: the GPU neighbours cores 0/2, the little
        // cluster neighbours cores 1/3 (this is what makes the identified B
        // matrix sensitive to GPU and little-cluster power).
        b.connect(gpu, big0, 0.15).expect("valid");
        b.connect(gpu, big2, 0.15).expect("valid");
        b.connect(little, big1, 0.12).expect("valid");
        b.connect(little, big3, 0.12).expect("valid");
        b.connect(memory, gpu, 0.10).expect("valid");

        // Passive convection/radiation from the case to ambient.
        let passive = 0.080;
        b.connect_to_ambient(case, passive).expect("valid");

        ExynosThermalNetwork {
            network: b.build().expect("static network is valid"),
            big_cores: [big0, big1, big2, big3],
            little,
            gpu,
            memory,
            case,
            passive_case_conductance: passive,
        }
    }

    /// The underlying RC network with the fan contributing `fan_boost_w_per_k`
    /// of extra case-to-ambient conductance.
    pub fn network_with_fan_boost(&self, fan_boost_w_per_k: f64) -> ThermalNetwork {
        self.network
            .with_extra_ambient_conductance(self.case, fan_boost_w_per_k)
    }

    /// The underlying RC network without any fan contribution.
    pub fn network(&self) -> &ThermalNetwork {
        &self.network
    }

    /// Number of nodes in the plant model (convenience for
    /// `self.network().node_count()`, which every engine backend needs to
    /// size its temperature and power state).
    pub fn node_count(&self) -> usize {
        self.network.node_count()
    }

    /// The fan's contribution as a [`FanBoost`] step parameter for
    /// [`ThermalNetwork::step_into`] — the allocation-free alternative to
    /// [`ExynosThermalNetwork::network_with_fan_boost`].
    pub fn fan_boost(&self, fan_boost_w_per_k: f64) -> FanBoost {
        FanBoost::at(self.case, fan_boost_w_per_k)
    }

    /// Node ids of the four big cores (the thermal hotspots).
    pub fn big_core_nodes(&self) -> [NodeId; 4] {
        self.big_cores
    }

    /// Node id of the little-cluster lump.
    pub fn little_node(&self) -> NodeId {
        self.little
    }

    /// Node id of the GPU lump.
    pub fn gpu_node(&self) -> NodeId {
        self.gpu
    }

    /// Node id of the memory lump.
    pub fn memory_node(&self) -> NodeId {
        self.memory
    }

    /// Node id of the case / heat-sink lump.
    pub fn case_node(&self) -> NodeId {
        self.case
    }

    /// Passive (fan-off) case-to-ambient conductance in W/K.
    pub fn passive_case_conductance(&self) -> f64 {
        self.passive_case_conductance
    }

    /// Builds the per-node power-injection vector from per-core big powers and
    /// lumped little/GPU/memory powers (all in watts).
    ///
    /// # Panics
    ///
    /// Panics if `big_core_powers` does not have four entries.
    pub fn power_vector(
        &self,
        big_core_powers: &[f64],
        little_w: f64,
        gpu_w: f64,
        memory_w: f64,
    ) -> Vec<f64> {
        assert_eq!(big_core_powers.len(), 4, "expected four big-core powers");
        let mut p = vec![0.0; self.network.node_count()];
        self.power_vector_into(big_core_powers, little_w, gpu_w, memory_w, &mut p);
        p
    }

    /// Fills `out` with the per-node power-injection vector, the
    /// allocation-free form of [`ExynosThermalNetwork::power_vector`].
    ///
    /// # Panics
    ///
    /// Panics if `big_core_powers` does not have four entries or `out` does
    /// not cover all nodes.
    pub fn power_vector_into(
        &self,
        big_core_powers: &[f64],
        little_w: f64,
        gpu_w: f64,
        memory_w: f64,
        out: &mut [f64],
    ) {
        assert_eq!(big_core_powers.len(), 4, "expected four big-core powers");
        assert_eq!(out.len(), self.network.node_count(), "power vector length");
        out.fill(0.0);
        for (node, &power) in self.big_cores.iter().zip(big_core_powers) {
            out[node.0] = power;
        }
        out[self.little.0] = little_w;
        out[self.gpu.0] = gpu_w;
        out[self.memory.0] = memory_w;
    }

    /// Extracts the big-core (hotspot) temperatures from a full plant state.
    ///
    /// # Panics
    ///
    /// Panics if `temps` does not cover all nodes.
    pub fn hotspot_temps(&self, temps: &[f64]) -> [f64; 4] {
        assert_eq!(temps.len(), self.network.node_count());
        [
            temps[self.big_cores[0].0],
            temps[self.big_cores[1].0],
            temps[self.big_cores[2].0],
            temps[self.big_cores[3].0],
        ]
    }
}

impl Default for ExynosThermalNetwork {
    fn default() -> Self {
        ExynosThermalNetwork::odroid_xu_e()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_start(network: &ThermalNetwork, temp: f64) -> Vec<f64> {
        vec![temp; network.node_count()]
    }

    #[test]
    fn builder_rejects_bad_networks() {
        assert!(ThermalNetworkBuilder::new().build().is_err());

        let mut b = ThermalNetworkBuilder::new();
        let n = b.add_node("n", 1.0);
        // No ambient connection.
        assert!(b.clone().build().is_err());
        assert!(b.connect(n, n, 1.0).is_err());
        assert!(b.connect(n, NodeId(7), 1.0).is_err());
        assert!(b.connect_to_ambient(n, -1.0).is_err());
        assert!(b.connect_to_ambient(NodeId(9), 1.0).is_err());
        b.connect_to_ambient(n, 0.5).unwrap();
        assert!(b.build().is_ok());
    }

    #[test]
    fn builder_rejects_non_positive_capacitance() {
        let mut b = ThermalNetworkBuilder::new();
        let n = b.add_node("bad", 0.0);
        b.connect_to_ambient(n, 0.5).unwrap();
        assert!(b.build().is_err());
    }

    #[test]
    fn unpowered_network_relaxes_to_ambient() {
        let plant = ExynosThermalNetwork::odroid_xu_e();
        let network = plant.network();
        let mut temps = uniform_start(network, 70.0);
        let powers = vec![0.0; network.node_count()];
        for _ in 0..200_000 {
            temps = network.step(&temps, &powers, 25.0, 0.01).unwrap();
        }
        for t in &temps {
            assert!((t - 25.0).abs() < 0.5, "temps {temps:?}");
        }
    }

    #[test]
    fn powered_network_heats_above_ambient() {
        let plant = ExynosThermalNetwork::odroid_xu_e();
        let network = plant.network();
        let powers = plant.power_vector(&[0.8, 0.8, 0.8, 0.8], 0.05, 0.2, 0.4);
        let mut temps = uniform_start(network, 28.0);
        for _ in 0..3000 {
            temps = network.step(&temps, &powers, 28.0, 0.01).unwrap();
        }
        let hotspots = plant.hotspot_temps(&temps);
        for t in hotspots {
            assert!(t > 28.5, "cores must heat up, got {hotspots:?}");
        }
    }

    #[test]
    fn steady_state_matches_long_integration() {
        let plant = ExynosThermalNetwork::odroid_xu_e();
        let network = plant.network();
        let powers = plant.power_vector(&[0.6, 0.7, 0.5, 0.6], 0.05, 0.3, 0.4);
        let ss = network.steady_state(&powers, 28.0).unwrap();
        let mut temps = uniform_start(network, 28.0);
        for _ in 0..1_000_000 {
            temps = network.step(&temps, &powers, 28.0, 0.01).unwrap();
        }
        for (a, b) in temps.iter().zip(&ss) {
            assert!(
                (a - b).abs() < 0.3,
                "integration {temps:?} vs steady {ss:?}"
            );
        }
    }

    #[test]
    fn high_load_without_fan_reaches_paper_like_temperatures() {
        // Figure 1.1: without the fan a heavy workload pushes the hottest core
        // towards ~85-90 degC.
        let plant = ExynosThermalNetwork::odroid_xu_e();
        let network = plant.network();
        let powers = plant.power_vector(&[0.95, 1.0, 0.9, 0.95], 0.05, 0.3, 0.45);
        let ss = network.steady_state(&powers, 28.0).unwrap();
        let hottest = plant
            .hotspot_temps(&ss)
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (75.0..100.0).contains(&hottest),
            "steady hottest core {hottest} degC"
        );
    }

    #[test]
    fn fan_boost_lowers_steady_state() {
        let plant = ExynosThermalNetwork::odroid_xu_e();
        let powers = plant.power_vector(&[0.9, 0.9, 0.9, 0.9], 0.05, 0.3, 0.4);
        let no_fan = plant.network().steady_state(&powers, 28.0).unwrap();
        let with_fan = plant
            .network_with_fan_boost(0.075)
            .steady_state(&powers, 28.0)
            .unwrap();
        let hot_no_fan = plant.hotspot_temps(&no_fan)[0];
        let hot_with_fan = plant.hotspot_temps(&with_fan)[0];
        assert!(
            hot_with_fan < hot_no_fan - 10.0,
            "fan must cool noticeably: {hot_no_fan} vs {hot_with_fan}"
        );
    }

    #[test]
    fn asymmetric_core_power_creates_a_hotspot_gradient() {
        let plant = ExynosThermalNetwork::odroid_xu_e();
        let powers = plant.power_vector(&[1.4, 0.3, 0.3, 0.3], 0.05, 0.1, 0.3);
        let ss = plant.network().steady_state(&powers, 28.0).unwrap();
        let hotspots = plant.hotspot_temps(&ss);
        assert!(hotspots[0] > hotspots[1] + 0.3);
        assert!(hotspots[0] > hotspots[3] + 0.3);
    }

    #[test]
    fn gpu_power_heats_the_big_cores() {
        // The lateral coupling means GPU activity raises core temperatures,
        // which is why the identified B matrix has a GPU column.
        let plant = ExynosThermalNetwork::odroid_xu_e();
        let idle = plant.power_vector(&[0.1, 0.1, 0.1, 0.1], 0.05, 0.0, 0.3);
        let gpu_busy = plant.power_vector(&[0.1, 0.1, 0.1, 0.1], 0.05, 1.0, 0.3);
        let t_idle = plant.network().steady_state(&idle, 28.0).unwrap();
        let t_busy = plant.network().steady_state(&gpu_busy, 28.0).unwrap();
        let d0 = plant.hotspot_temps(&t_busy)[0] - plant.hotspot_temps(&t_idle)[0];
        assert!(
            d0 > 1.0,
            "GPU heat must couple into the big cores, delta {d0}"
        );
    }

    #[test]
    fn step_rejects_bad_inputs() {
        let plant = ExynosThermalNetwork::odroid_xu_e();
        let network = plant.network();
        let temps = uniform_start(network, 30.0);
        assert!(network.step(&temps[..3], &[0.0; 8], 25.0, 0.01).is_err());
        assert!(network.step(&temps, &[0.0; 3], 25.0, 0.01).is_err());
        assert!(network.step(&temps, &[0.0; 8], 25.0, 0.0).is_err());
        assert!(network.steady_state(&[0.0; 2], 25.0).is_err());
    }

    #[test]
    fn step_transition_matches_staged_rk4() {
        let plant = ExynosThermalNetwork::odroid_xu_e();
        let network = plant.network();
        let powers = plant.power_vector(&[0.9, 1.0, 0.8, 0.95], 0.05, 0.4, 0.4);
        let boost = plant.fan_boost(0.055);
        let transition = network.step_transition(boost, 28.0, 0.01).unwrap();
        assert_eq!(transition.node_count(), 8);

        let mut staged = uniform_start(network, 52.0);
        let mut fast = staged.clone();
        let mut scratch = RkScratch::new(network.node_count());
        let mut tmp = vec![0.0; network.node_count()];
        for step in 0..20_000 {
            network
                .step_into(&mut staged, &powers, 28.0, 0.01, boost, &mut scratch)
                .unwrap();
            transition.apply(&mut fast, &powers, &mut tmp);
            if step % 1000 == 0 {
                for (a, b) in staged.iter().zip(&fast) {
                    assert!(
                        (a - b).abs() < 1e-9,
                        "transition diverged at step {step}: {staged:?} vs {fast:?}"
                    );
                }
            }
        }
        for (a, b) in staged.iter().zip(&fast) {
            assert!((a - b).abs() < 1e-9, "{staged:?} vs {fast:?}");
        }
    }

    #[test]
    fn batch_transition_lanes_match_scalar_transition_bitwise() {
        // Every lane of the panel apply (and the strided per-lane fallback)
        // must reproduce the scalar StepTransition exactly: the accumulation
        // order is the same by construction.
        let plant = ExynosThermalNetwork::odroid_xu_e();
        let network = plant.network();
        let boost = plant.fan_boost(0.04);
        let scalar = network.step_transition(boost, 28.0, 0.01).unwrap();
        let batch = network.batch_step_transition(boost, 28.0, 0.01).unwrap();
        assert_eq!(batch.node_count(), 8);

        for lanes in [1, 3, 8, 11] {
            let n = network.node_count();
            let mut temps = Panel::zeros(n, lanes);
            let mut powers = Panel::zeros(n, lanes);
            let mut tmp = Panel::zeros(n, lanes);
            let mut scalar_temps: Vec<Vec<f64>> = Vec::new();
            let mut scalar_powers: Vec<Vec<f64>> = Vec::new();
            for lane in 0..lanes {
                let t: Vec<f64> = (0..n)
                    .map(|i| 45.0 + (lane * n + i) as f64 * 0.31)
                    .collect();
                let p =
                    plant.power_vector(&[0.8, 0.9, 0.7, 0.6], 0.05, 0.3 + lane as f64 * 0.02, 0.4);
                temps.set_column(lane, &t);
                powers.set_column(lane, &p);
                scalar_temps.push(t);
                scalar_powers.push(p);
            }
            let mut scratch = vec![0.0; n];
            for step in 0..200 {
                if step % 2 == 0 {
                    batch.apply_panel(&mut temps, &powers, &mut tmp);
                } else {
                    for lane in 0..lanes {
                        batch.apply_lane(&mut temps, &powers, lane, &mut scratch);
                    }
                }
                for (lane_temps, lane_powers) in scalar_temps.iter_mut().zip(&scalar_powers) {
                    scalar.apply(lane_temps, lane_powers, &mut scratch);
                }
            }
            for (lane, lane_temps) in scalar_temps.iter().enumerate() {
                for (i, expected) in lane_temps.iter().enumerate() {
                    assert_eq!(
                        temps.get(i, lane).to_bits(),
                        expected.to_bits(),
                        "lanes={lanes} lane={lane} node={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn f32_batch_transition_tracks_f64_within_budget() {
        // The demoted transition steps the same trajectories as the f64
        // batch within the mixed-precision budget: over 200 micro-steps
        // (two control intervals' worth) the divergence must stay well
        // under the engine's documented 1e-3 degC bound. Panel and per-lane
        // f32 paths must also agree with each other to the bit.
        let plant = ExynosThermalNetwork::odroid_xu_e();
        let network = plant.network();
        let boost = plant.fan_boost(0.04);
        let batch = network.batch_step_transition(boost, 28.0, 0.01).unwrap();
        let demoted = BatchStepTransitionF32::from_f64(&batch);
        assert_eq!(demoted.node_count(), batch.node_count());

        let n = network.node_count();
        let lanes = 5;
        let mut temps64 = Panel::zeros(n, lanes);
        let mut powers64 = Panel::zeros(n, lanes);
        let mut tmp64 = Panel::zeros(n, lanes);
        let mut temps32 = PanelF32::zeros(n, lanes);
        let mut powers32 = PanelF32::zeros(n, lanes);
        let mut tmp32 = PanelF32::zeros(n, lanes);
        let mut lane32 = temps32.clone();
        for lane in 0..lanes {
            for i in 0..n {
                let t = 45.0 + (lane * n + i) as f64 * 0.31;
                temps64.set(i, lane, t);
                temps32.set(i, lane, t as f32);
                lane32.set(i, lane, t as f32);
            }
            let p = plant.power_vector(&[0.8, 0.9, 0.7, 0.6], 0.05, 0.3 + lane as f64 * 0.02, 0.4);
            powers64.set_column(lane, &p);
            for (i, &v) in p.iter().enumerate() {
                powers32.set(i, lane, v as f32);
            }
        }
        let mut scratch = vec![0.0f32; n];
        for _ in 0..200 {
            batch.apply_panel(&mut temps64, &powers64, &mut tmp64);
            demoted.apply_panel(&mut temps32, &powers32, &mut tmp32);
            for lane in 0..lanes {
                demoted.apply_lane(&mut lane32, &powers32, lane, &mut scratch);
            }
        }
        for lane in 0..lanes {
            for i in 0..n {
                let err = (f64::from(temps32.get(i, lane)) - temps64.get(i, lane)).abs();
                assert!(err < 5e-4, "lane {lane} node {i}: divergence {err:.3e}");
                assert_eq!(
                    temps32.get(i, lane).to_bits(),
                    lane32.get(i, lane).to_bits(),
                    "f32 panel and lane paths must agree bitwise (lane {lane} node {i})"
                );
            }
        }
    }

    #[test]
    fn batch_transition_rejects_bad_step_size() {
        let plant = ExynosThermalNetwork::odroid_xu_e();
        assert!(plant
            .network()
            .batch_step_transition(FanBoost::NONE, 28.0, -1.0)
            .is_err());
    }

    #[test]
    fn step_transition_rejects_bad_step_size() {
        let plant = ExynosThermalNetwork::odroid_xu_e();
        assert!(plant
            .network()
            .step_transition(FanBoost::NONE, 28.0, 0.0)
            .is_err());
    }

    #[test]
    fn node_lookup_by_name() {
        let plant = ExynosThermalNetwork::odroid_xu_e();
        let network = plant.network();
        assert_eq!(network.node_by_name("gpu"), Some(plant.gpu_node()));
        assert_eq!(network.node_by_name("nonexistent"), None);
        assert_eq!(network.node_name(plant.case_node()), "case");
        assert_eq!(network.capacitances().len(), 8);
    }

    #[test]
    #[should_panic(expected = "four big-core powers")]
    fn power_vector_requires_four_core_powers() {
        let plant = ExynosThermalNetwork::odroid_xu_e();
        plant.power_vector(&[1.0, 1.0], 0.0, 0.0, 0.0);
    }
}
