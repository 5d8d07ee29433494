//! System identification of the thermal model (Section 4.2.1).
//!
//! Instead of deriving the thermal conductance and capacitance matrices from
//! floorplans and material properties (which are not public), the paper
//! identifies the discrete model `T[k+1] = As·T[k] + Bs·P[k]` directly from
//! measurements:
//!
//! 1. excite one power source at a time with a pseudo-random bit sequence
//!    (PRBS) that toggles its frequency between the minimum and maximum
//!    levels ([`prbs`]),
//! 2. log the power inputs and hotspot temperatures at the control-interval
//!    rate ([`dataset`]),
//! 3. fit each row of `As` and `Bs` with linear least squares
//!    ([`identify`](mod@identify)) — the Rust stand-in for MATLAB's System Identification
//!    Toolbox,
//! 4. validate the identified model against held-out measurements
//!    ([`validate`]), reporting the fit percentage and the n-step prediction
//!    error the paper quotes (< 3 % on average at a 1 s horizon).
//!
//! # Example
//!
//! ```
//! use numeric::{Matrix, Vector};
//! use sysid::{identify, IdentificationDataset, IdentificationOptions};
//! use thermal_model::DiscreteThermalModel;
//!
//! # fn main() -> Result<(), sysid::SysIdError> {
//! // Generate data from a known 1-state, 1-input model and re-identify it.
//! // The model works on temperatures relative to the 25 °C ambient, so the
//! // logged (absolute) temperatures are the state plus the ambient.
//! let a = Matrix::from_rows(&[&[0.9]]).unwrap();
//! let b = Matrix::from_rows(&[&[0.5]]).unwrap();
//! let truth = DiscreteThermalModel::new(a, b, 0.1).unwrap();
//! let mut dataset = IdentificationDataset::new(1, 1, 0.1, 25.0)?;
//! let mut t = Vector::zeros(1);
//! for k in 0..200 {
//!     let p = Vector::from_slice(&[if (k / 10) % 2 == 0 { 2.0 } else { 0.5 }]);
//!     dataset.push(Vector::from_slice(&[t[0] + 25.0]), p.clone())?;
//!     t = truth.step(&t, &p).unwrap();
//! }
//! let model = identify(dataset.rows(..), &IdentificationOptions::default())?;
//! assert!((model.a()[(0, 0)] - 0.9).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dataset;
pub mod error;
pub mod identify;
pub mod prbs;
pub mod validate;

pub use dataset::{BlockWriter, DatasetRows, IdentificationDataset};
pub use error::SysIdError;
pub use identify::{identify, IdentificationOptions};
pub use prbs::{PrbsConfig, PrbsSignal};
pub use validate::{n_step_prediction, validate_free_run, PredictionErrorReport, ValidationReport};
