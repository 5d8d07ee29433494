//! Power modelling methodology of the DTPM paper (Chapter 4.1).
//!
//! The total power of every measured domain is split into a dynamic and a
//! leakage component:
//!
//! ```text
//! P_total = P_dynamic + P_leakage = αCV²f + V·I_leak(T)
//! I_leak(T) = c1·T²·e^(c2/T) + I_gate
//! ```
//!
//! Two pieces reproduce the paper's methodology:
//!
//! * [`leakage`] — the condensed leakage-current model and the nonlinear fit
//!   of `c1`, `c2`, `I_gate` from furnace measurements (Figures 4.1–4.3),
//!   with the paper's five furnace setpoints
//!   ([`LeakageModel::FURNACE_SWEEP_C`]); the sweep itself runs on the
//!   simulated plant, in the `platform-sim` crate's calibration campaign,
//! * [`dynamic`] — the run-time estimation of the activity-factor ×
//!   switching-capacitance product `αC` by subtracting modelled leakage from
//!   measured power (Figure 4.4), and the resulting dynamic-power predictor.
//!
//! [`model::PowerModel`] ties the per-domain pieces together and is what the
//! DTPM algorithm queries to translate a power budget into a frequency.
//!
//! # Example
//!
//! ```
//! use power_model::{LeakageModel, PowerModel};
//! use soc_model::{Frequency, PowerDomain, SocSpec, Voltage};
//!
//! let spec = SocSpec::odroid_xu_e();
//! let mut model = PowerModel::exynos5410_defaults();
//!
//! // Feed one sensor observation for the big cluster...
//! model.observe(
//!     PowerDomain::BigCpu,
//!     /* measured power */ 1.8,
//!     /* temperature  */ 55.0,
//!     Voltage::from_volts(1.2),
//!     Frequency::from_mhz(1600),
//! );
//! // ...and predict what the cluster would draw at 1.2 GHz instead.
//! let v = spec.big_opps().voltage_for(Frequency::from_mhz(1200)).unwrap();
//! let predicted = model.predict_total(
//!     PowerDomain::BigCpu,
//!     55.0,
//!     v,
//!     Frequency::from_mhz(1200),
//! );
//! assert!(predicted > 0.0 && predicted < 1.8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod domain_power;
pub mod dynamic;
pub mod error;
pub mod leakage;
pub mod model;

pub use domain_power::DomainPower;
pub use dynamic::{ActivityEstimator, DynamicPowerModel};
pub use error::PowerError;
pub use leakage::{currents_batch, LeakageModel, LeakagePanel, LeakagePanelF32, LeakageParams};
pub use model::{DomainPowerModel, PowerModel};
