//! Cross-configuration metrics: power savings, performance loss, stability.

use numeric::Summary;

use crate::experiment::ExperimentConfig;
use crate::safety::IncidentLog;
use crate::trace::Trace;

/// Thermal stability metrics of one run (the quantities behind Figure 6.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityReport {
    /// Mean of the maximum core temperature, °C.
    pub mean_temp_c: f64,
    /// Max–min spread of the maximum core temperature, °C.
    pub temp_range_c: f64,
    /// Variance of the maximum core temperature, °C².
    pub temp_variance: f64,
    /// Absolute peak temperature reached, °C.
    pub peak_temp_c: f64,
}

impl StabilityReport {
    /// Computes the stability metrics over the *regulated* portion of a
    /// retained trace, skipping its first `skip_fraction`. The paper's
    /// thermal stability comparison (Figure 6.5) looks at how the
    /// temperature behaves once the thermal management is engaged, not at
    /// the initial warm-up ramp shared by all configurations. A run's
    /// whole-run stability needs no trace: it is [`RunSummary::stability`].
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or `skip_fraction` is not within `[0, 1)`.
    pub fn of_steady_portion(trace: &Trace, skip_fraction: f64) -> StabilityReport {
        assert!(
            (0.0..1.0).contains(&skip_fraction),
            "skip fraction must be in [0, 1)"
        );
        let series = trace.max_temp_series();
        let start = ((series.len() as f64) * skip_fraction).floor() as usize;
        let window = &series[start.min(series.len() - 1)..];
        let summary: Summary = Summary::of(window);
        StabilityReport {
            mean_temp_c: summary.mean,
            temp_range_c: summary.range(),
            temp_variance: summary.variance,
            peak_temp_c: summary.max,
        }
    }
}

/// Everything the evaluation needs from one run *without* its trace: the
/// streamed per-run product of the observer/sink pipeline.
///
/// A `RunSummary` is O(1) regardless of run length — it is what a
/// summaries-only sweep retains per scenario, and it carries every input of
/// the paper's figures: execution time and completion (performance loss),
/// mean platform power and energy (power saving), the [`StabilityReport`]
/// (Figure 6.5), and the intervention/residency rates. The trace policy
/// never changes it: a trace-retaining run streams the records it retains
/// through the same accumulators.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// The configuration that produced this run.
    pub config: ExperimentConfig,
    /// Whether the benchmark ran to completion within the duration cap.
    pub completed: bool,
    /// Execution time of the benchmark, seconds.
    pub execution_time_s: f64,
    /// Number of absorbed control intervals.
    pub intervals: usize,
    /// Total true platform energy over the run, joules.
    pub energy_j: f64,
    /// Mean measured platform power over the run, watts.
    pub mean_platform_power_w: f64,
    /// Thermal stability of the run (whole-run window).
    pub stability: StabilityReport,
    /// Fraction of intervals in which the DTPM policy intervened.
    pub intervention_rate: f64,
    /// Fraction of intervals spent on the little cluster.
    pub little_cluster_residency: f64,
    /// Every robustness event of the run: sensor faults and recoveries,
    /// safety-ladder transitions, policy demotions/promotions, shutdown.
    /// Empty for a healthy run.
    pub incidents: IncidentLog,
}

/// Comparison of one configuration against a baseline run of the same
/// benchmark (the quantities behind Figures 6.9 and 6.10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkComparison {
    /// Platform power saving relative to the baseline, percent (positive =
    /// the evaluated configuration uses less power).
    pub power_saving_percent: f64,
    /// Performance loss relative to the baseline, percent (positive = the
    /// evaluated configuration takes longer).
    pub performance_loss_percent: f64,
    /// Reduction factor of the temperature variance (baseline variance divided
    /// by the evaluated configuration's variance; >1 means more stable).
    pub variance_reduction_factor: f64,
    /// Reduction of the max–min temperature spread, °C.
    pub range_reduction_c: f64,
}

impl BenchmarkComparison {
    /// Compares `evaluated` against `baseline` (two runs of the same
    /// benchmark) from their streamed summaries.
    pub fn against_baseline(baseline: &RunSummary, evaluated: &RunSummary) -> BenchmarkComparison {
        let base_power = baseline.mean_platform_power_w;
        let base_time_s = baseline.execution_time_s;
        let (base, eval) = (&baseline.stability, &evaluated.stability);
        let power_saving_percent = if base_power > 0.0 {
            100.0 * (base_power - evaluated.mean_platform_power_w) / base_power
        } else {
            0.0
        };
        let performance_loss_percent = if base_time_s > 0.0 {
            100.0 * (evaluated.execution_time_s - base_time_s) / base_time_s
        } else {
            0.0
        };
        let variance_reduction_factor = if eval.temp_variance > 1e-9 {
            base.temp_variance / eval.temp_variance
        } else {
            f64::INFINITY
        };
        BenchmarkComparison {
            power_saving_percent,
            performance_loss_percent,
            variance_reduction_factor,
            range_reduction_c: base.temp_range_c - eval.temp_range_c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentKind;
    use crate::trace::TraceRecord;
    use power_model::DomainPower;
    use soc_model::{ClusterKind, FanLevel};
    use workload::BenchmarkId;

    fn synthetic_trace(temps: &[f64], power_w: f64) -> Trace {
        let mut trace = Trace::new();
        for (k, &t) in temps.iter().enumerate() {
            trace.push(TraceRecord {
                time_s: k as f64 * 0.1,
                core_temps_c: [t, t - 0.5, t - 1.0, t - 0.2],
                active_cluster: ClusterKind::Big,
                frequency_mhz: 1600,
                online_cores: 4,
                gpu_frequency_mhz: 177,
                fan_level: FanLevel::Off,
                domain_power: DomainPower::new(power_w - 2.0, 0.05, 0.1, 0.4),
                platform_power_w: power_w,
                progress: 0.5,
                predicted_peak_c: None,
                dtpm_intervened: false,
            });
        }
        trace
    }

    fn synthetic_summary(
        kind: ExperimentKind,
        temps: &[f64],
        power_w: f64,
        execution_time_s: f64,
    ) -> RunSummary {
        RunSummary {
            config: ExperimentConfig::new(kind, BenchmarkId::Basicmath),
            completed: true,
            execution_time_s,
            intervals: temps.len(),
            energy_j: power_w * execution_time_s,
            mean_platform_power_w: power_w,
            stability: StabilityReport::of_steady_portion(&synthetic_trace(temps, power_w), 0.0),
            intervention_rate: 0.0,
            little_cluster_residency: 0.0,
            incidents: IncidentLog::default(),
        }
    }

    #[test]
    fn stability_report_reflects_temperature_swings() {
        let swingy = synthetic_trace(&[55.0, 65.0, 55.0, 65.0, 55.0, 65.0], 6.0);
        let steady = synthetic_trace(&[62.0, 62.5, 62.2, 62.4], 5.2);
        let swingy_report = StabilityReport::of_steady_portion(&swingy, 0.0);
        let steady_report = StabilityReport::of_steady_portion(&steady, 0.0);
        assert!(swingy_report.temp_variance > 5.0 * steady_report.temp_variance);
        assert!(swingy_report.temp_range_c > steady_report.temp_range_c);
        assert!(swingy_report.peak_temp_c >= steady_report.peak_temp_c);
    }

    #[test]
    fn steady_portion_skips_the_leading_fraction() {
        // floor(6 · 0.5) = 3 records are skipped: the hot start drops out.
        let trace = synthetic_trace(&[80.0, 75.0, 70.0, 60.0, 61.0, 62.0], 5.0);
        let steady = StabilityReport::of_steady_portion(&trace, 0.5);
        assert_eq!(steady.peak_temp_c, 62.0);
        assert_eq!(steady.temp_range_c, 2.0);
        assert!((steady.mean_temp_c - 61.0).abs() < 1e-12);
        let whole = StabilityReport::of_steady_portion(&trace, 0.0);
        assert_eq!(whole.peak_temp_c, 80.0);
    }

    #[test]
    fn comparison_computes_savings_and_loss() {
        let baseline = synthetic_summary(
            ExperimentKind::DefaultWithFan,
            &[55.0, 60.0, 65.0, 60.0],
            6.0,
            100.0,
        );
        let dtpm = synthetic_summary(ExperimentKind::Dtpm, &[61.0, 62.0, 62.5, 62.0], 5.4, 103.3);
        let cmp = BenchmarkComparison::against_baseline(&baseline, &dtpm);
        assert!((cmp.power_saving_percent - 10.0).abs() < 1e-9);
        assert!((cmp.performance_loss_percent - 3.3).abs() < 1e-9);
        assert!(cmp.variance_reduction_factor > 1.0);
        assert!(cmp.range_reduction_c > 0.0);
    }

    #[test]
    fn identical_runs_compare_as_neutral() {
        let a = synthetic_summary(ExperimentKind::Dtpm, &[60.0, 61.0, 60.5], 5.0, 90.0);
        let b = synthetic_summary(ExperimentKind::Dtpm, &[60.0, 61.0, 60.5], 5.0, 90.0);
        let cmp = BenchmarkComparison::against_baseline(&a, &b);
        assert_eq!(cmp.power_saving_percent, 0.0);
        assert_eq!(cmp.performance_loss_percent, 0.0);
        assert!((cmp.variance_reduction_factor - 1.0).abs() < 1e-9);
        assert_eq!(cmp.range_reduction_c, 0.0);
    }
}
