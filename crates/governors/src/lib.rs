//! Linux-style governors and baseline thermal-management policies.
//!
//! The DTPM framework of the paper is *non-intrusive*: the stock kernel
//! governors keep making their decisions and the DTPM algorithm only
//! overrides them when a thermal violation is predicted (Figure 3.1). This
//! crate provides those stock pieces plus the baselines the evaluation
//! compares against:
//!
//! * [`cpufreq`] — the `ondemand` frequency governor the default
//!   configuration runs, and the `userspace` governor the PRBS
//!   identification experiments pin the big-cluster frequency with,
//! * [`hotplug`] — the idle-state/core-count governor that wakes additional
//!   cores as the number of runnable threads grows,
//! * [`fan`] — the board's default fan controller (57/63/68 °C thresholds),
//! * [`reactive`] — the reactive throttling heuristic that mimics the fan
//!   controller in software (−18 % / −25 % frequency at 63 / 68 °C), the
//!   baseline the paper reports as costing ≈20 % performance.
//!
//! # Example
//!
//! ```
//! use governors::{GovernorInput, OndemandGovernor};
//! use soc_model::{Frequency, OppTable};
//!
//! let opps = OppTable::exynos5410_big();
//! let gov = OndemandGovernor::default();
//! let busy = GovernorInput { load: 0.97, current: Frequency::from_mhz(800) };
//! assert_eq!(gov.select_frequency(&busy, &opps).mhz(), 1600);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cpufreq;
pub mod fan;
pub mod hotplug;
pub mod reactive;

pub use cpufreq::{GovernorInput, OndemandGovernor, UserspaceGovernor};
pub use fan::FanController;
pub use hotplug::HotplugGovernor;
pub use reactive::ReactiveThrottler;
