//! Predictive dynamic thermal and power management (DTPM).
//!
//! This crate is the paper's primary contribution (Chapters 3 and 5): a
//! proactive thermal/power manager for big.LITTLE MPSoCs that
//!
//! 1. **predicts** the hotspot temperatures one prediction interval ahead
//!    using the identified thermal model ([`predictor::ThermalPredictor`]),
//! 2. when — and only when — a violation of the temperature constraint is
//!    predicted, **computes a power budget** that is guaranteed to keep the
//!    temperature within the constraint ([`budget`], Eqs. 5.4–5.6),
//! 3. **translates the budget into actuator settings**: the maximum feasible
//!    big-cluster frequency (Eq. 5.7), shutting down the hottest core when one
//!    core runs away from the others (Eq. 5.9), migrating to the little
//!    cluster, and finally throttling the GPU
//!    ([`policy::DtpmPolicy`]),
//! 4. as the future-work extension, **distributes** the budget across the
//!    heterogeneous resources by minimising the execution-time cost function
//!    of Eq. 7.1 under the power constraint of Eq. 7.2
//!    ([`distribution`]).
//!
//! When no violation is predicted the policy is non-intrusive: the decisions
//! of the stock governors are affirmed unchanged.
//!
//! # Example
//!
//! ```
//! use dtpm::{DtpmConfig, DtpmPolicy, DtpmInputs, ThermalPredictor};
//! use numeric::Matrix;
//! use power_model::{DomainPower, PowerModel};
//! use soc_model::{PlatformState, SocSpec};
//! use thermal_model::DiscreteThermalModel;
//!
//! # fn main() -> Result<(), dtpm::DtpmError> {
//! let spec = SocSpec::odroid_xu_e();
//! // A small identified model (in practice produced by the sysid crate).
//! let a = Matrix::identity(4).scale(0.94);
//! let b = Matrix::from_rows(&[
//!     &[0.05, 0.01, 0.015, 0.008],
//!     &[0.05, 0.01, 0.012, 0.008],
//!     &[0.05, 0.01, 0.015, 0.008],
//!     &[0.05, 0.01, 0.012, 0.008],
//! ]).unwrap();
//! let model = DiscreteThermalModel::new(a, b, 0.1).unwrap();
//! let predictor = ThermalPredictor::new(model, spec.ambient_c())?;
//! let policy = DtpmPolicy::new(DtpmConfig::default(), predictor)?;
//!
//! let power_model = PowerModel::exynos5410_defaults();
//! let proposed = PlatformState::default_for(&spec);
//! let decision = policy.decide(
//!     &DtpmInputs {
//!         spec: &spec,
//!         proposed,
//!         core_temps_c: [45.0; 4],
//!         measured_power: DomainPower::new(1.0, 0.05, 0.1, 0.3),
//!     },
//!     &power_model,
//! )?;
//! // Far below the constraint: the default decision is affirmed.
//! assert_eq!(decision.state, proposed);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod budget;
pub mod config;
pub mod distribution;
pub mod error;
pub mod panel_predictor;
pub mod policy;
pub mod predictor;

pub use budget::PowerBudget;
pub use config::DtpmConfig;
pub use distribution::{distribute_budget, DistributionMethod, DistributionResult, ResourceLoad};
pub use error::DtpmError;
pub use panel_predictor::BatchPredictor;
pub use policy::{DtpmAction, DtpmDecision, DtpmInputs, DtpmPolicy};
pub use predictor::ThermalPredictor;
pub use thermal_model::HorizonMap;
