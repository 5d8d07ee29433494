//! Model of the heterogeneous mobile platform used by the DTPM paper.
//!
//! The paper evaluates on the Odroid-XU+E board built around the Samsung
//! Exynos 5410 MPSoC: a big.LITTLE processor with a 4-core ARM Cortex-A15
//! ("big") cluster, a 4-core Cortex-A7 ("little") cluster, a GPU, memory and
//! accelerators. This crate captures everything the DTPM algorithm can observe
//! or actuate on that platform:
//!
//! * the discrete operating performance points of each cluster and the GPU
//!   (Tables 6.1–6.3 of the paper) together with their supply voltages
//!   ([`opp`]),
//! * the cluster-exclusive big/little switching and per-core hotplug state
//!   ([`cluster`], [`platform`]),
//! * the power domains whose consumption is measured by the built-in sensors
//!   ([`domain`]),
//! * the fan of the development board, including the 57/63/68 °C control
//!   thresholds of the default configuration ([`fan`]).
//!
//! # Example
//!
//! ```
//! use soc_model::{ClusterKind, PlatformState, SocSpec};
//!
//! let spec = SocSpec::odroid_xu_e();
//! let mut state = PlatformState::default_for(&spec);
//! assert_eq!(state.active_cluster, ClusterKind::Big);
//! assert_eq!(state.online_core_count(ClusterKind::Big), 4);
//!
//! // The DTPM algorithm can cap the big-cluster frequency...
//! state.big_frequency = spec.big_opps().lowest().frequency;
//! // ...or put the hottest core to sleep.
//! state.set_core_online(ClusterKind::Big, 2, false);
//! assert_eq!(state.online_core_count(ClusterKind::Big), 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod domain;
pub mod error;
pub mod fan;
pub mod opp;
pub mod platform;

pub use cluster::{ClusterKind, ClusterSpec};
pub use domain::PowerDomain;
pub use error::SocError;
pub use fan::{FanLevel, FanModel, FanPolicy};
pub use opp::{Frequency, OperatingPoint, OppTable, Voltage};
pub use platform::{PlatformState, SocSpec};
