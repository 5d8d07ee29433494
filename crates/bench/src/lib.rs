//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Chapters 1, 4 and 6, plus the Chapter 7 future-work study).
//!
//! Each `fig*`/`table*` function produces a plain-text report with the same
//! rows/series the paper plots, so the *shape* of every result can be checked
//! against the original (absolute values differ: the substrate is a simulated
//! plant, not the authors' board). The [`run_experiment`] entry point is used
//! by the `experiments` binary (`cargo run -p bench --bin experiments`).
//! [`microbench`] is the recorder every claim bench in `benches/` runs
//! through.

#![warn(missing_docs)]

pub mod control;
pub mod microbench;
pub mod modeling;
pub mod summary;

use std::fmt::Write as _;

use platform_sim::{Calibration, CalibrationCampaign, SimError};

/// Shared context: the characterised models reused by every experiment.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// The characterised power model and identified thermal predictor.
    pub calibration: Calibration,
    /// Whether to run shortened experiments (used by the test suite to keep
    /// wall-clock time reasonable).
    pub quick: bool,
}

impl ExperimentContext {
    /// Characterises the platform and builds the context.
    ///
    /// # Errors
    ///
    /// Propagates calibration failures.
    pub fn new(quick: bool) -> Result<Self, SimError> {
        let campaign = if quick {
            CalibrationCampaign {
                prbs_duration_s: 300.0,
                run_furnace: false,
                ..CalibrationCampaign::default()
            }
        } else {
            CalibrationCampaign::default()
        };
        Ok(ExperimentContext {
            calibration: campaign.run(42)?,
            quick,
        })
    }
}

/// Identifier and description of every reproducible experiment.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    (
        "tables",
        "Tables 6.1-6.4: OPP tables and the benchmark list",
    ),
    (
        "fig1_1",
        "Figure 1.1: maximum core temperature with and without the fan",
    ),
    (
        "fig4_2",
        "Figure 4.2: furnace total CPU power at each ambient setpoint",
    ),
    (
        "fig4_3",
        "Figure 4.3: leakage power vs temperature (fitted model)",
    ),
    (
        "fig4_5",
        "Figure 4.5: leakage and dynamic power vs temperature at 1.6 GHz",
    ),
    (
        "fig4_6",
        "Figure 4.6: leakage and dynamic power vs frequency",
    ),
    (
        "fig4_7",
        "Figure 4.7: power model validation (predicted vs measured)",
    ),
    (
        "fig4_8",
        "Figure 4.8: PRBS excitation signal and core-0 temperature",
    ),
    (
        "fig4_9",
        "Figure 4.9: thermal model validation for Blowfish at a 1 s horizon",
    ),
    (
        "fig4_10",
        "Figure 4.10: prediction error vs horizon for Templerun",
    ),
    (
        "fig6_2",
        "Figure 6.2: 1 s temperature prediction error for all benchmarks",
    ),
    ("fig6_3", "Figure 6.3: temperature control for Templerun"),
    ("fig6_4", "Figure 6.4: temperature control for Basicmath"),
    ("fig6_5", "Figure 6.5: thermal stability comparison"),
    (
        "fig6_6",
        "Figure 6.6: frequency and temperature for Dijkstra (default vs DTPM)",
    ),
    (
        "fig6_7",
        "Figure 6.7: frequency and temperature for Patricia (default vs DTPM)",
    ),
    (
        "fig6_8",
        "Figure 6.8: frequency and temperature for matrix multiplication",
    ),
    (
        "fig6_9",
        "Figure 6.9: power savings and performance loss summary",
    ),
    (
        "fig6_10",
        "Figure 6.10: multi-threaded power savings and performance loss",
    ),
    (
        "fig7_1",
        "Figure 7.1: power-budget distribution across heterogeneous resources",
    ),
];

/// Runs one experiment by id and returns its textual report.
///
/// # Errors
///
/// Returns an error for unknown ids or failures inside the experiment.
pub fn run_experiment(id: &str, context: &ExperimentContext) -> Result<String, SimError> {
    match id {
        "tables" => Ok(summary::tables()),
        "fig1_1" => control::fig1_1(context),
        "fig4_2" => modeling::fig4_2(context),
        "fig4_3" => modeling::fig4_3(context),
        "fig4_5" => modeling::fig4_5(context),
        "fig4_6" => modeling::fig4_6(context),
        "fig4_7" => modeling::fig4_7(context),
        "fig4_8" => modeling::fig4_8(context),
        "fig4_9" => modeling::fig4_9(context),
        "fig4_10" => modeling::fig4_10(context),
        "fig6_2" => modeling::fig6_2(context),
        "fig6_3" => control::fig6_3(context),
        "fig6_4" => control::fig6_4(context),
        "fig6_5" => control::fig6_5(context),
        "fig6_6" => control::fig6_6(context),
        "fig6_7" => control::fig6_7(context),
        "fig6_8" => control::fig6_8(context),
        "fig6_9" => summary::fig6_9(context),
        "fig6_10" => summary::fig6_10(context),
        "fig7_1" => Ok(summary::fig7_1()),
        other => Err(SimError::InvalidConfig(Box::leak(
            format!("unknown experiment id '{other}'").into_boxed_str(),
        ))),
    }
}

/// Formats a numeric time series as sparse `t, value` rows (used by the
/// figure reports to keep the output readable).
pub(crate) fn format_series(
    title: &str,
    times: &[f64],
    values: &[f64],
    every: usize,
    unit: &str,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "  {title}:");
    for (i, (t, v)) in times.iter().zip(values).enumerate() {
        if i % every.max(1) == 0 {
            let _ = writeln!(out, "    t={t:7.1} s  {v:8.2} {unit}");
        }
    }
    out
}
