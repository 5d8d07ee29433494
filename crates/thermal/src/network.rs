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
/// let die = b.add_node(0.2);
/// let case = b.add_node(8.0);
/// b.connect(die, case, 2.0)?;
/// b.connect_to_ambient(case, 0.07)?;
/// let network = b.build()?;
/// assert_eq!(network.node_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ThermalNetworkBuilder {
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

    /// Adds a node with the given heat capacitance (J/K) and returns its id.
    pub fn add_node(&mut self, capacitance_j_per_k: f64) -> NodeId {
        self.capacitances.push(capacitance_j_per_k);
        self.ambient_conductances.push(0.0);
        NodeId(self.capacitances.len() - 1)
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
        if a.0 >= self.capacitances.len() || b.0 >= self.capacitances.len() {
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
        if node.0 >= self.capacitances.len() {
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
        if self.capacitances.is_empty() {
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
            capacitances: self.capacitances,
            couplings: self.couplings,
            ambient_conductances: self.ambient_conductances,
            inv_capacitances,
        })
    }
}

/// Extra node-to-ambient conductance that a transition is built under — how
/// the fan's contribution enters [`ThermalNetwork::step_transition`] and
/// [`ThermalNetwork::batch_step_transition`] without cloning the network.
///
/// A transition built with `FanBoost::at(node, g)` equals the one built with
/// [`FanBoost::NONE`] for the network
/// [`ThermalNetwork::with_extra_ambient_conductance`]`(node, g)` returns.
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
    /// conductance to `node`.
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

/// A lumped RC thermal network integrated with fixed-step RK4.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalNetwork {
    capacitances: Vec<f64>,
    couplings: Vec<(usize, usize, f64)>,
    ambient_conductances: Vec<f64>,
    /// `1 / capacitances[i]`, precomputed at build time for the integrator.
    inv_capacitances: Vec<f64>,
}

impl ThermalNetwork {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.capacitances.len()
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
    /// ambient temperature, written into `out`. `flows` accumulates the
    /// node-to-node edge flows.
    fn derivative_into(
        &self,
        temps: &[f64],
        powers: &[f64],
        ambient_c: f64,
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
            let ambient_flow = self.ambient_conductances[i] * (ambient_c - temps[i]);
            *slot = (flows[i] + ambient_flow + powers[i]) * self.inv_capacitances[i];
        }
    }

    /// Advances the node temperatures by `dt` seconds using one classical
    /// RK4 step, in four staged derivative sweeps, with the node power
    /// injections `powers_w` (W) held constant over the step.
    ///
    /// This is the staged reference that the precomputed transitions
    /// ([`ThermalNetwork::step_transition`],
    /// [`ThermalNetwork::batch_step_transition`]) equal up to rounding. It
    /// allocates its stage buffers on every call; the simulator steps the
    /// transitions instead. To step with the fan on, step the network that
    /// [`ThermalNetwork::with_extra_ambient_conductance`] returns.
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
        let [mut k1, mut k2, mut k3, mut k4, mut stage, mut flows]: [Vec<f64>; 6] =
            std::array::from_fn(|_| vec![0.0; n]);

        self.derivative_into(temps_c, powers_w, ambient_c, &mut flows, &mut k1);
        for i in 0..n {
            stage[i] = temps_c[i] + 0.5 * dt_s * k1[i];
        }
        self.derivative_into(&stage, powers_w, ambient_c, &mut flows, &mut k2);
        for i in 0..n {
            stage[i] = temps_c[i] + 0.5 * dt_s * k2[i];
        }
        self.derivative_into(&stage, powers_w, ambient_c, &mut flows, &mut k3);
        for i in 0..n {
            stage[i] = temps_c[i] + dt_s * k3[i];
        }
        self.derivative_into(&stage, powers_w, ambient_c, &mut flows, &mut k4);

        Ok((0..n)
            .map(|i| temps_c[i] + dt_s / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]))
            .collect())
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
    /// derivative sweeps of [`ThermalNetwork::step`], at the cost of
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
        let (r, s_power, ambient_conductance) = self.transition_parts(fan_boost, dt_s)?;
        let mut ambient_drive = vec![0.0; self.node_count()];
        ambient_drive_into(
            s_power.as_slice(),
            &ambient_conductance,
            ambient_c,
            &mut ambient_drive,
        );
        Ok(StepTransition {
            n: self.node_count(),
            r_t: r.transpose().as_slice().to_vec(),
            s_power_t: s_power.transpose().as_slice().to_vec(),
            ambient_drive,
        })
    }

    /// The fan-dependent part of the affine one-micro-step RK4 map
    /// `T⁺ = R·T + S_p·p + c` shared by [`ThermalNetwork::step_transition`]
    /// (scalar, transposed storage) and
    /// [`ThermalNetwork::batch_step_transition`] (panel form). Returns
    /// `(R, S_p, g)` with the matrices in row-major layout and `g` the
    /// per-node conductance to ambient including the fan boost; the ambient
    /// drive `c` follows from `S_p`, `g` and the ambient temperature through
    /// [`ambient_drive_into`].
    fn transition_parts(
        &self,
        fan_boost: FanBoost,
        dt_s: f64,
    ) -> Result<(Matrix, Matrix, Vec<f64>), ThermalError> {
        if !(dt_s > 0.0) || !dt_s.is_finite() {
            return Err(ThermalError::InvalidParameter("step size must be positive"));
        }
        let n = self.node_count();
        let mut ambient_conductance = self.ambient_conductances.clone();
        if let Some(g) = ambient_conductance.get_mut(fan_boost.node) {
            *g += fan_boost.conductance_w_per_k;
        }

        // hA, with A_ij = ∂(dT_i/dt)/∂T_j.
        let mut ha = Matrix::zeros(n, n);
        for &(a, b, g) in &self.couplings {
            ha[(a, b)] += dt_s * g * self.inv_capacitances[a];
            ha[(a, a)] -= dt_s * g * self.inv_capacitances[a];
            ha[(b, a)] += dt_s * g * self.inv_capacitances[b];
            ha[(b, b)] -= dt_s * g * self.inv_capacitances[b];
        }
        for i in 0..n {
            ha[(i, i)] -= dt_s * ambient_conductance[i] * self.inv_capacitances[i];
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

        // Fold the power half of the drive u = inv_cap ⊙ (p + g·T_amb) into
        // S: T⁺ = R·T + (S·diag(inv_cap))·p + S_p·(g·T_amb).
        let mut s_power = s;
        for i in 0..n {
            for j in 0..n {
                s_power[(i, j)] *= self.inv_capacitances[j];
            }
        }

        Ok((r, s_power, ambient_conductance))
    }

    /// Precomputes the one-micro-step RK4 transition for one fan boost in
    /// its structure-of-arrays batch form: the matrices of
    /// [`ThermalNetwork::step_transition`], stored row-major so
    /// [`BatchStepTransition::apply_into`] can advance a whole temperature
    /// panel (one scenario per column) with the matrices loaded once per
    /// micro-step for all lanes. Ambient is not part of the key: each lane's
    /// ambient enters as its own drive column
    /// ([`BatchStepTransition::ambient_drive_into`]), so lanes at different
    /// ambients share one transition.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for a non-positive step
    /// size.
    pub fn batch_step_transition(
        &self,
        fan_boost: FanBoost,
        dt_s: f64,
    ) -> Result<BatchStepTransition, ThermalError> {
        let (r, s_power, ambient_conductance) = self.transition_parts(fan_boost, dt_s)?;
        let n = self.node_count();
        let to_panel = |m: &Matrix| {
            let mut panel = Panel::zeros(n, n);
            panel.as_mut_slice().copy_from_slice(m.as_slice());
            panel
        };
        Ok(BatchStepTransition {
            n,
            r: to_panel(&r),
            s_power: to_panel(&s_power),
            ambient_conductance,
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

/// The constant ambient drive `c = S_p·(g·T_amb)` of one micro-step, written
/// into `out` (one entry per node): `s_power` is the row-major `n × n`
/// power-injection matrix, `g` the per-node conductance to ambient (fan boost
/// included). Every element accumulates `Σ_j (S_p[i,j]·g[j])·T_amb` in `j`
/// order from zero, so the scalar [`StepTransition`] and every lane of a
/// [`BatchStepTransition`] at the same ambient carry the same drive bits.
fn ambient_drive_into(s_power: &[f64], g: &[f64], ambient_c: f64, out: &mut [f64]) {
    let n = out.len();
    for (i, slot) in out.iter_mut().enumerate() {
        let row = &s_power[i * n..(i + 1) * n];
        let mut c = 0.0;
        for (&s, &g) in row.iter().zip(g) {
            c += s * g * ambient_c;
        }
        *slot = c;
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

/// The batched (structure-of-arrays) form of a [`StepTransition`] for one fan
/// boost: the same precomputed affine RK4 micro-step, applied to a
/// temperature [`Panel`] that holds one scenario per column
/// (see [`ThermalNetwork::batch_step_transition`]).
///
/// Ambient is an affine input of the linear model, so it is not baked into
/// the transition: every lane brings its own drive column `c = S_p·(g·T_amb)`
/// ([`BatchStepTransition::ambient_drive_into`]), and the apply seeds each
/// lane's accumulator from that column. Lanes at different ambients
/// therefore share one transition and one blocked pass.
///
/// [`BatchStepTransition::apply_into`] advances every lane in one blocked
/// mat-mat pass (`numeric::affine_panel_bias_apply_elem`), so the two 8×8
/// matrices are streamed through the cache once per micro-step for *all*
/// scenarios. It accumulates each lane in the same order as
/// [`StepTransition::apply`], so a batched lane's trajectory is bit-identical
/// to the scalar transition given identical power inputs and ambient, at any
/// panel width and whatever the other lanes hold.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStepTransition {
    n: usize,
    /// `R`, row-major `n × n`.
    r: Panel,
    /// `S·diag(1/C)`, row-major `n × n` (applied to the raw power panel).
    s_power: Panel,
    /// Per-node conductance to ambient, fan boost included, W/K.
    ambient_conductance: Vec<f64>,
}

impl BatchStepTransition {
    /// Number of nodes the transition covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The transition matrix `R` (row-major `n × n`, stored as a panel
    /// whose lanes are the matrix columns), for engines that fold a
    /// temperature baseline into their drive (`(R − I)·T0`).
    pub fn r(&self) -> &Panel {
        &self.r
    }

    /// Writes the constant ambient drive `c = S_p·(g·T_amb)` at `ambient_c`
    /// into `out` (one entry per node) — a lane's drive column for
    /// [`BatchStepTransition::apply_into`], bit-identical to the drive of the
    /// scalar [`StepTransition`] at the same fan boost and ambient.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not cover all nodes.
    pub fn ambient_drive_into(&self, ambient_c: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.n, "drive vector length");
        ambient_drive_into(
            self.s_power.as_slice(),
            &self.ambient_conductance,
            ambient_c,
            out,
        );
    }

    /// Advances every lane of `temps` by one micro-step with the per-lane
    /// node power injections in `powers` and the per-lane ambient drive
    /// columns in `drive` (`T⁺ = drive + R·T + S_p·p`), writing the new
    /// temperatures into `out` and leaving `temps` as it was.
    /// Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the panels do not all have `node_count` rows and matching
    /// lane counts.
    #[inline]
    pub fn apply_into(&self, temps: &Panel, powers: &Panel, drive: &Panel, out: &mut Panel) {
        numeric::affine_panel_bias_apply_elem(&self.r, &self.s_power, drive, temps, powers, out)
            .expect("panel shapes must cover all nodes");
    }
}

/// Single-precision demotion of a [`BatchStepTransition`] for the
/// mixed-precision batch engine.
///
/// The transition matrices are always *computed* in f64 — the RK4
/// discretisation involves matrix powers whose conditioning f32 would
/// visibly degrade — and demoted element-wise once via
/// [`BatchStepTransitionF32::from_f64`]. The apply paths then run entirely
/// at f32 width through the width-generic panel kernels
/// ([`numeric::affine_panel_bias_apply_elem`]), doubling the lanes advanced
/// per vector relative to [`BatchStepTransition::apply_into`]. Like the f64
/// form, the constant term arrives as a per-lane bias panel and the panel
/// and per-lane paths share one per-lane accumulation order, so mixing them
/// never changes a trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStepTransitionF32 {
    n: usize,
    /// `R`, demoted, as an `n × n` row-major panel-as-matrix.
    r: PanelF32,
    /// `S·diag(1/C)`, demoted, `n × n` row-major.
    s_power: PanelF32,
}

impl BatchStepTransitionF32 {
    /// Demotes a precomputed f64 transition to f32 storage, element-wise.
    pub fn from_f64(full: &BatchStepTransition) -> Self {
        let n = full.n;
        let mut r = PanelF32::zeros(n, n);
        let mut s_power = PanelF32::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                r.set(i, j, full.r.get(i, j) as f32);
                s_power.set(i, j, full.s_power.get(i, j) as f32);
            }
        }
        BatchStepTransitionF32 { n, r, s_power }
    }

    /// Number of nodes the transition covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Advances every lane of `temps` by one f32 micro-step with a caller
    /// supplied per-lane bias panel: `T⁺ = bias + R·T + S_p·p`. This is the
    /// delta-form engine's hot call — the bias carries the whole constant
    /// term `c + (R − I)·T0` per lane, so the deviation advance needs no
    /// follow-up pass. `tmp` is overwritten scratch. Per-lane accumulation
    /// order matches [`BatchStepTransitionF32::apply_lane_bias`] exactly.
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
        let big0 = b.add_node(0.18);
        let big1 = b.add_node(0.18);
        let big2 = b.add_node(0.18);
        let big3 = b.add_node(0.18);
        let little = b.add_node(0.35);
        let gpu = b.add_node(0.30);
        let memory = b.add_node(0.40);
        let case = b.add_node(11.0);

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

    /// The fan's contribution as the [`FanBoost`] that the transitions of
    /// [`ExynosThermalNetwork::network`] are built under: they then equal
    /// those of [`ExynosThermalNetwork::network_with_fan_boost`], and the
    /// network is not cloned.
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
        for (node, &power) in self.big_cores.iter().zip(big_core_powers) {
            p[node.0] = power;
        }
        p[self.little.0] = little_w;
        p[self.gpu.0] = gpu_w;
        p[self.memory.0] = memory_w;
        p
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
        let n = b.add_node(1.0);
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
        let n = b.add_node(0.0);
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
        // Under constant power every step form must settle on the
        // conductance solution G·T = P + G_amb·T_amb, at every fan level of
        // the Odroid fan model. An RK4 step of a linear system has that
        // solution as its fixed point whatever the step size, so 100 ms
        // steps reach it in a tenth of the plant's 10 ms micro-steps; 6000 s
        // is ~40 time constants of the slowest (fan-off) mode.
        const DT_S: f64 = 0.1;
        const STEPS: usize = 60_000;
        const TOLERANCE_C: f64 = 1e-8;
        const LANES: usize = 2;
        let plant = ExynosThermalNetwork::odroid_xu_e();
        let network = plant.network();
        let n = network.node_count();
        let powers = plant.power_vector(&[0.6, 0.7, 0.5, 0.6], 0.05, 0.3, 0.4);
        let fan = soc_model::FanModel::odroid_xu_e();
        for level in soc_model::FanLevel::ALL {
            let boost_w_per_k = fan.conductance_boost_w_per_k(level);
            let boost = plant.fan_boost(boost_w_per_k);
            let ss = plant
                .network_with_fan_boost(boost_w_per_k)
                .steady_state(&powers, 28.0)
                .unwrap();

            let boosted = plant.network_with_fan_boost(boost_w_per_k);
            let mut staged = uniform_start(network, 28.0);
            let transition = network.step_transition(boost, 28.0, DT_S).unwrap();
            let mut scalar = uniform_start(network, 28.0);
            let mut tmp = vec![0.0; n];
            let batch = network.batch_step_transition(boost, DT_S).unwrap();
            let mut panel = Panel::zeros(n, LANES);
            let mut power_panel = Panel::zeros(n, LANES);
            let mut drive = Panel::zeros(n, LANES);
            let mut column = vec![0.0; n];
            batch.ambient_drive_into(28.0, &mut column);
            for lane in 0..LANES {
                panel.set_column(lane, &uniform_start(network, 28.0));
                power_panel.set_column(lane, &powers);
                drive.set_column(lane, &column);
            }
            let mut tmp_panel = Panel::zeros(n, LANES);
            for _ in 0..STEPS {
                staged = boosted.step(&staged, &powers, 28.0, DT_S).unwrap();
                transition.apply(&mut scalar, &powers, &mut tmp);
                batch.apply_into(&panel, &power_panel, &drive, &mut tmp_panel);
                std::mem::swap(&mut panel, &mut tmp_panel);
            }

            let mut forms = vec![("staged RK4", staged), ("StepTransition", scalar)];
            for lane in 0..LANES {
                forms.push((
                    "BatchStepTransition",
                    (0..n).map(|i| panel.get(i, lane)).collect(),
                ));
            }
            for (form, temps) in forms {
                for (node, (t, s)) in temps.iter().zip(&ss).enumerate() {
                    assert!(
                        (t - s).abs() < TOLERANCE_C,
                        "{form} at fan {level:?}: node {node} settled at {t}, steady state {s}"
                    );
                }
            }
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
        assert_eq!(network.capacitances().len(), 8);

        let boosted = plant.network_with_fan_boost(0.055);
        let mut staged = uniform_start(network, 52.0);
        let mut fast = staged.clone();
        let mut tmp = vec![0.0; network.node_count()];
        for step in 0..20_000 {
            staged = boosted.step(&staged, &powers, 28.0, 0.01).unwrap();
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

    /// The Odroid fan's conductance boosts, W/K: `0.28 ×` the speed
    /// fraction of each level (off, base, half, full), as the plant
    /// computes them.
    fn fan_boosts() -> [f64; 4] {
        [0.0, 0.12, 0.5, 1.0].map(|fraction| 0.28 * fraction)
    }

    /// The ambients of the paper grid, °C.
    const AMBIENTS: [f64; 4] = [22.0, 26.0, 30.0, 34.0];

    /// `(R, S_p, c)` exactly as the transition was built when ambient was
    /// part of its key: one combined loop that accumulates the ambient drive
    /// `c_i = Σ_j S[i,j]·(1/C_j)·g_j·T_amb` next to `S_p = S·diag(1/C)`. The
    /// fan-keyed transition and its shared drive function must reproduce
    /// these bits.
    fn reference_parts(
        network: &ThermalNetwork,
        fan_boost: FanBoost,
        ambient_c: f64,
        dt_s: f64,
    ) -> (Matrix, Matrix, Vec<f64>) {
        let n = network.node_count();
        let g_amb = |i: usize| {
            let mut g = network.ambient_conductances[i];
            if i == fan_boost.node {
                g += fan_boost.conductance_w_per_k;
            }
            g
        };
        let mut ha = Matrix::zeros(n, n);
        for &(a, b, g) in &network.couplings {
            ha[(a, b)] += dt_s * g * network.inv_capacitances[a];
            ha[(a, a)] -= dt_s * g * network.inv_capacitances[a];
            ha[(b, a)] += dt_s * g * network.inv_capacitances[b];
            ha[(b, b)] -= dt_s * g * network.inv_capacitances[b];
        }
        for i in 0..n {
            ha[(i, i)] -= dt_s * g_amb(i) * network.inv_capacitances[i];
        }
        let identity = Matrix::identity(n);
        let inner = identity.add(&ha.scale(0.25)).unwrap();
        let middle = identity
            .add(&ha.scale(1.0 / 3.0).mul(&inner).unwrap())
            .unwrap();
        let k = identity.add(&ha.scale(0.5).mul(&middle).unwrap()).unwrap();
        let r = identity.add(&ha.mul(&k).unwrap()).unwrap();
        let s = k.scale(dt_s);
        let mut s_power = s.clone();
        let mut drive = vec![0.0; n];
        for i in 0..n {
            let mut c = 0.0;
            for j in 0..n {
                c += s[(i, j)] * network.inv_capacitances[j] * g_amb(j) * ambient_c;
                s_power[(i, j)] = s[(i, j)] * network.inv_capacitances[j];
            }
            drive[i] = c;
        }
        (r, s_power, drive)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn fan_keyed_transition_reproduces_the_reference_parts_bitwise() {
        let plant = ExynosThermalNetwork::odroid_xu_e();
        let network = plant.network();
        let n = network.node_count();
        let mut drive = vec![0.0; n];
        for boost_w_per_k in fan_boosts() {
            let boost = plant.fan_boost(boost_w_per_k);
            let batch = network.batch_step_transition(boost, 0.01).unwrap();
            for ambient_c in AMBIENTS {
                let (r, s_power, reference) = reference_parts(network, boost, ambient_c, 0.01);
                let label = format!("boost {boost_w_per_k} W/K, ambient {ambient_c} °C");
                assert_eq!(bits(batch.r().as_slice()), bits(r.as_slice()), "R, {label}");
                assert_eq!(
                    bits(batch.s_power.as_slice()),
                    bits(s_power.as_slice()),
                    "S_p, {label}"
                );
                batch.ambient_drive_into(ambient_c, &mut drive);
                assert_eq!(bits(&drive), bits(&reference), "batch drive, {label}");
                let scalar = network.step_transition(boost, ambient_c, 0.01).unwrap();
                assert_eq!(
                    bits(&scalar.ambient_drive),
                    bits(&reference),
                    "scalar drive, {label}"
                );
                assert_eq!(
                    bits(&scalar.r_t),
                    bits(r.transpose().as_slice()),
                    "Rᵀ, {label}"
                );
                assert_eq!(
                    bits(&scalar.s_power_t),
                    bits(s_power.transpose().as_slice()),
                    "S_pᵀ, {label}"
                );
            }
        }
    }

    #[test]
    fn batch_transition_lanes_match_scalar_transition_bitwise() {
        // A mixed-ambient panel — lane l at AMBIENTS[l % 4], each lane's
        // ambient riding in as its drive column — advanced through the bias
        // kernel (active arm and the scalar arm) and the scalar
        // StepTransition of the lane's own ambient: all three must agree to
        // the bit at every width up to and past two LANE_CHUNKs.
        let plant = ExynosThermalNetwork::odroid_xu_e();
        let network = plant.network();
        let n = network.node_count();
        let boost = plant.fan_boost(0.04);
        let batch = network.batch_step_transition(boost, 0.01).unwrap();
        assert_eq!(batch.node_count(), n);
        let scalars: Vec<StepTransition> = AMBIENTS
            .iter()
            .map(|&ambient_c| network.step_transition(boost, ambient_c, 0.01).unwrap())
            .collect();

        for lanes in 1..=2 * numeric::LANE_CHUNK + 1 {
            let mut temps = Panel::zeros(n, lanes);
            let mut powers = Panel::zeros(n, lanes);
            let mut drive = Panel::zeros(n, lanes);
            let mut column = vec![0.0; n];
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
                batch.ambient_drive_into(AMBIENTS[lane % AMBIENTS.len()], &mut column);
                drive.set_column(lane, &column);
                scalar_temps.push(t);
                scalar_powers.push(p);
            }
            let mut scalar_arm = temps.clone();
            let mut tmp = Panel::zeros(n, lanes);
            for _ in 0..100 {
                batch.apply_into(&temps, &powers, &drive, &mut tmp);
                std::mem::swap(&mut temps, &mut tmp);
                numeric::affine_panel_bias_apply_elem_with(
                    numeric::PanelKernel::Scalar,
                    batch.r(),
                    &batch.s_power,
                    &drive,
                    &scalar_arm,
                    &powers,
                    &mut tmp,
                )
                .unwrap();
                std::mem::swap(&mut scalar_arm, &mut tmp);
                for (lane, (lane_temps, lane_powers)) in
                    scalar_temps.iter_mut().zip(&scalar_powers).enumerate()
                {
                    scalars[lane % AMBIENTS.len()].apply(lane_temps, lane_powers, &mut column);
                }
            }
            for (lane, lane_temps) in scalar_temps.iter().enumerate() {
                for (i, expected) in lane_temps.iter().enumerate() {
                    let label = format!("lanes={lanes} lane={lane} node={i}");
                    assert_eq!(temps.get(i, lane).to_bits(), expected.to_bits(), "{label}");
                    assert_eq!(
                        scalar_arm.get(i, lane).to_bits(),
                        expected.to_bits(),
                        "scalar arm, {label}"
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
        let batch = network.batch_step_transition(boost, 0.01).unwrap();
        let demoted = BatchStepTransitionF32::from_f64(&batch);
        assert_eq!(demoted.node_count(), batch.node_count());

        let n = network.node_count();
        let lanes = 5;
        let mut temps64 = Panel::zeros(n, lanes);
        let mut powers64 = Panel::zeros(n, lanes);
        let mut drive64 = Panel::zeros(n, lanes);
        let mut tmp64 = Panel::zeros(n, lanes);
        let mut temps32 = PanelF32::zeros(n, lanes);
        let mut powers32 = PanelF32::zeros(n, lanes);
        let mut drive32 = PanelF32::zeros(n, lanes);
        let mut tmp32 = PanelF32::zeros(n, lanes);
        let mut lane32 = temps32.clone();
        let mut column = vec![0.0; n];
        for lane in 0..lanes {
            batch.ambient_drive_into(AMBIENTS[lane % AMBIENTS.len()], &mut column);
            drive64.set_column(lane, &column);
            for (i, &c) in column.iter().enumerate() {
                let t = 45.0 + (lane * n + i) as f64 * 0.31;
                temps64.set(i, lane, t);
                temps32.set(i, lane, t as f32);
                lane32.set(i, lane, t as f32);
                drive32.set(i, lane, c as f32);
            }
            let p = plant.power_vector(&[0.8, 0.9, 0.7, 0.6], 0.05, 0.3 + lane as f64 * 0.02, 0.4);
            powers64.set_column(lane, &p);
            for (i, &v) in p.iter().enumerate() {
                powers32.set(i, lane, v as f32);
            }
        }
        let mut scratch = vec![0.0f32; n];
        for _ in 0..200 {
            batch.apply_into(&temps64, &powers64, &drive64, &mut tmp64);
            std::mem::swap(&mut temps64, &mut tmp64);
            demoted.apply_panel_bias(&mut temps32, &powers32, &drive32, &mut tmp32);
            for lane in 0..lanes {
                demoted.apply_lane_bias(&mut lane32, &powers32, &drive32, lane, &mut scratch);
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
            .batch_step_transition(FanBoost::NONE, -1.0)
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
    #[should_panic(expected = "four big-core powers")]
    fn power_vector_requires_four_core_powers() {
        let plant = ExynosThermalNetwork::odroid_xu_e();
        plant.power_vector(&[1.0, 1.0], 0.0, 0.0, 0.0);
    }
}
