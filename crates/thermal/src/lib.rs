//! Thermal modelling for the DTPM reproduction (Chapter 4.2).
//!
//! Two kinds of thermal model live here, mirroring the paper's methodology:
//!
//! * [`network::ThermalNetwork`] — a physical RC thermal network used as the
//!   *ground-truth plant* in the simulator. Using the duality between thermal
//!   and electrical networks, every die/package location is a capacitance and
//!   every heat-flow path a conductance, and the temperatures obey
//!   `C·dT/dt = −G·T + P` (Eq. 4.3). The Odroid plant instantiated by
//!   [`network::ExynosThermalNetwork`] has eight nodes (four big cores, the
//!   little cluster, the GPU, the memory and the board/heat-sink "case"), so it
//!   is deliberately *richer* than the model the controller identifies.
//!
//! * [`state_space::DiscreteThermalModel`] — the discrete linear state-space
//!   model `T[k+1] = As·T[k] + Bs·P[k]` (Eq. 4.4) that the paper identifies
//!   from measurements and uses for prediction (Eq. 4.5). The DTPM controller
//!   only ever sees this reduced model, never the plant.
//!
//! # Hot-path architecture
//!
//! Large calibration/evaluation sweeps step the plant millions of times, so
//! the simulator never runs the staged integrator:
//!
//! * [`network::ThermalNetwork::step`] is the one staged RK4: four
//!   derivative sweeps, allocating its stage buffers on every call. It is
//!   the reference the transitions below are held to.
//! * [`network::ThermalNetwork::step_transition`] precomputes one RK4 step of
//!   the (linear, constant-coefficient) thermal ODE as an affine map
//!   `T⁺ = R·T + S·p + c`; [`network::StepTransition::apply`] evaluates it
//!   with two dense mat-vecs, several times faster than the staged sweeps and
//!   equal to them up to floating-point reassociation. The simulator caches
//!   one transition per (fan level, ambient).
//! * The fan's extra case-to-ambient conductance is a [`network::FanBoost`]
//!   *transition parameter* — building a transition never clones the
//!   network.
//! * Per-node inverse capacitances are precomputed at build time, and
//!   [`state_space::DiscreteThermalModel::step_into`] /
//!   [`state_space::DiscreteThermalModel::predict_constant_power_into`] give
//!   the prediction side the same scratch-reuse treatment.
//! * [`state_space::DiscreteThermalModel::horizon_map`] collapses an
//!   `n`-step constant-power prediction into the precomputed affine map
//!   `T[k+n] = Aₙ·T[k] + Bₙ·P` ([`state_space::HorizonMap`]): one
//!   application regardless of the horizon, agreeing with the iterated
//!   predictor to ≤ 1e-12 °C, and with an accumulation order chosen so a
//!   panel (batched) application is bit-identical per lane to the scalar
//!   one. This is the control-path twin of the plant's cached transitions.
//!
//! # Batched (structure-of-arrays) stepping
//!
//! Scenario sweeps advance many *independent* plants through the same
//! network, so beyond the scalar transition there is a batch form:
//! [`network::ThermalNetwork::batch_step_transition`] builds a
//! [`network::BatchStepTransition`] that advances a `numeric::Panel` of
//! temperatures — **one scenario per column**, each node row contiguous
//! across scenarios. One call to
//! [`network::BatchStepTransition::apply_into`] is a blocked mat-mat that
//! streams the two `n × n` matrices through the cache once for *all* lanes,
//! instead of once per scenario as the scalar
//! [`network::StepTransition::apply`] loop does.
//!
//! The batch transition is keyed by fan boost and step size only. Ambient is
//! an affine input of the linear model, so each lane carries its own drive
//! column ([`network::BatchStepTransition::ambient_drive_into`]) that seeds
//! the lane's accumulator: lanes at different ambients share one blocked
//! pass. Each lane accumulates in the scalar transition's order, so its
//! result is bit-identical to the scalar transition whatever the panel
//! width and the other lanes hold; a panel whose lanes sit at different fan
//! levels runs one pass per transition and keeps each lane's own. Scalar
//! stepping remains the right tool for a single trajectory; the panel pays
//! for itself from a handful of lanes up.
//!
//! # Example
//!
//! ```
//! use numeric::{Matrix, Vector};
//! use thermal_model::DiscreteThermalModel;
//!
//! # fn main() -> Result<(), thermal_model::ThermalError> {
//! // A 2-hotspot, 1-input toy model.
//! let a = Matrix::from_rows(&[&[0.90, 0.05], &[0.04, 0.91]]).unwrap();
//! let b = Matrix::from_rows(&[&[0.8], &[0.3]]).unwrap();
//! let model = DiscreteThermalModel::new(a, b, 0.1)?;
//! let next = model.step(
//!     &Vector::from_slice(&[50.0, 48.0]),
//!     &Vector::from_slice(&[2.0]),
//! )?;
//! assert!(next[0] > 46.0 && next[0] < 52.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod network;
pub mod state_space;

pub use error::ThermalError;
pub use network::{
    BatchStepTransition, BatchStepTransitionF32, ExynosThermalNetwork, FanBoost, NodeId,
    StepTransition, ThermalNetwork, ThermalNetworkBuilder,
};
pub use state_space::{DiscreteThermalModel, HorizonMap};
