//! Cross-configuration metrics: power savings, performance loss, stability.

use numeric::Summary;

use crate::experiment::{ExperimentConfig, SimulationResult};
use crate::observer::{OnlineRunStats, RunObserver};
use crate::safety::IncidentLog;

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
    /// Computes the stability metrics from a run.
    ///
    /// # Panics
    ///
    /// Panics if the run's trace is empty.
    pub fn of(result: &SimulationResult) -> StabilityReport {
        Self::of_steady_portion(result, 0.0)
    }

    /// Computes the stability metrics over the *regulated* portion of a run,
    /// skipping the first `skip_fraction` of the trace. The paper's thermal
    /// stability comparison (Figure 6.5) looks at how the temperature behaves
    /// once the thermal management is engaged, not at the initial warm-up
    /// ramp shared by all configurations.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or `skip_fraction` is not within `[0, 1)`.
    pub fn of_steady_portion(result: &SimulationResult, skip_fraction: f64) -> StabilityReport {
        assert!(
            (0.0..1.0).contains(&skip_fraction),
            "skip fraction must be in [0, 1)"
        );
        let series = result.trace.max_temp_series();
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
/// (Figure 6.5), and the intervention/residency rates. Runs executed with a
/// trace-retaining policy produce the identical summary (the streaming
/// accumulators see the same records the trace retains; see
/// [`RunSummary::of`]).
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

impl RunSummary {
    /// Computes the summary post-hoc from a trace-retaining result, by
    /// replaying the retained records through the same online accumulators a
    /// streaming run uses — so the outcome is bit-identical to what the same
    /// run would have streamed.
    ///
    /// # Panics
    ///
    /// Panics if the result's trace is empty.
    pub fn of(result: &SimulationResult) -> RunSummary {
        let mut stats = OnlineRunStats::new();
        for record in result.trace.records() {
            stats.on_interval(record);
        }
        RunSummary {
            config: result.config.clone(),
            completed: result.completed,
            execution_time_s: result.execution_time_s,
            intervals: result.trace.len(),
            energy_j: result.energy_j,
            mean_platform_power_w: stats.mean_platform_power_w(),
            stability: stats.stability(),
            intervention_rate: stats.intervention_rate(),
            little_cluster_residency: stats.little_cluster_residency(),
            // Traces do not carry incidents; a post-hoc summary of a healthy
            // trace-retaining run matches its streamed twin (both logs
            // empty). Runs with incidents must be read from their streamed
            // summary, which carries the full log.
            incidents: IncidentLog::default(),
        }
    }
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
    /// Compares `evaluated` against `baseline` (both runs of the same
    /// benchmark).
    ///
    /// # Panics
    ///
    /// Panics if either trace is empty.
    pub fn against_baseline(
        baseline: &SimulationResult,
        evaluated: &SimulationResult,
    ) -> BenchmarkComparison {
        Self::compare(
            baseline.mean_platform_power_w,
            baseline.execution_time_s,
            &StabilityReport::of(baseline),
            evaluated.mean_platform_power_w,
            evaluated.execution_time_s,
            &StabilityReport::of(evaluated),
        )
    }

    /// Compares two runs from their streamed summaries — the trace-free
    /// analogue of [`BenchmarkComparison::against_baseline`], for pipelines
    /// that never retained the traces.
    pub fn from_summaries(baseline: &RunSummary, evaluated: &RunSummary) -> BenchmarkComparison {
        Self::compare(
            baseline.mean_platform_power_w,
            baseline.execution_time_s,
            &baseline.stability,
            evaluated.mean_platform_power_w,
            evaluated.execution_time_s,
            &evaluated.stability,
        )
    }

    fn compare(
        base_power: f64,
        base_time_s: f64,
        base_stability: &StabilityReport,
        eval_power: f64,
        eval_time_s: f64,
        eval_stability: &StabilityReport,
    ) -> BenchmarkComparison {
        let power_saving_percent = if base_power > 0.0 {
            100.0 * (base_power - eval_power) / base_power
        } else {
            0.0
        };
        let performance_loss_percent = if base_time_s > 0.0 {
            100.0 * (eval_time_s - base_time_s) / base_time_s
        } else {
            0.0
        };
        let variance_reduction_factor = if eval_stability.temp_variance > 1e-9 {
            base_stability.temp_variance / eval_stability.temp_variance
        } else {
            f64::INFINITY
        };
        BenchmarkComparison {
            power_saving_percent,
            performance_loss_percent,
            variance_reduction_factor,
            range_reduction_c: base_stability.temp_range_c - eval_stability.temp_range_c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentConfig, ExperimentKind, SimulationResult};
    use crate::trace::{Trace, TraceRecord};
    use power_model::DomainPower;
    use soc_model::{ClusterKind, FanLevel};
    use workload::BenchmarkId;

    fn synthetic_result(
        kind: ExperimentKind,
        temps: &[f64],
        power_w: f64,
        execution_time_s: f64,
    ) -> SimulationResult {
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
        SimulationResult {
            config: ExperimentConfig::new(kind, BenchmarkId::Basicmath),
            trace,
            execution_time_s,
            completed: true,
            mean_platform_power_w: power_w,
            energy_j: power_w * execution_time_s,
        }
    }

    #[test]
    fn stability_report_reflects_temperature_swings() {
        let swingy = synthetic_result(
            ExperimentKind::DefaultWithFan,
            &[55.0, 65.0, 55.0, 65.0, 55.0, 65.0],
            6.0,
            100.0,
        );
        let steady = synthetic_result(ExperimentKind::Dtpm, &[62.0, 62.5, 62.2, 62.4], 5.2, 104.0);
        let swingy_report = StabilityReport::of(&swingy);
        let steady_report = StabilityReport::of(&steady);
        assert!(swingy_report.temp_variance > 5.0 * steady_report.temp_variance);
        assert!(swingy_report.temp_range_c > steady_report.temp_range_c);
        assert!(swingy_report.peak_temp_c >= steady_report.peak_temp_c);
    }

    #[test]
    fn comparison_computes_savings_and_loss() {
        let baseline = synthetic_result(
            ExperimentKind::DefaultWithFan,
            &[55.0, 60.0, 65.0, 60.0],
            6.0,
            100.0,
        );
        let dtpm = synthetic_result(ExperimentKind::Dtpm, &[61.0, 62.0, 62.5, 62.0], 5.4, 103.3);
        let cmp = BenchmarkComparison::against_baseline(&baseline, &dtpm);
        assert!((cmp.power_saving_percent - 10.0).abs() < 1e-9);
        assert!((cmp.performance_loss_percent - 3.3).abs() < 1e-9);
        assert!(cmp.variance_reduction_factor > 1.0);
        assert!(cmp.range_reduction_c > 0.0);
    }

    #[test]
    fn summaries_compare_like_full_results() {
        let baseline = synthetic_result(
            ExperimentKind::DefaultWithFan,
            &[55.0, 60.0, 65.0, 60.0],
            6.0,
            100.0,
        );
        let dtpm = synthetic_result(ExperimentKind::Dtpm, &[61.0, 62.0, 62.5, 62.0], 5.4, 103.3);
        let from_results = BenchmarkComparison::against_baseline(&baseline, &dtpm);
        let from_summaries =
            BenchmarkComparison::from_summaries(&RunSummary::of(&baseline), &RunSummary::of(&dtpm));
        assert_eq!(
            from_results.power_saving_percent,
            from_summaries.power_saving_percent
        );
        assert_eq!(
            from_results.performance_loss_percent,
            from_summaries.performance_loss_percent
        );
        assert!(
            (from_results.variance_reduction_factor - from_summaries.variance_reduction_factor)
                .abs()
                <= 1e-9 * from_results.variance_reduction_factor.abs()
        );
        assert!((from_results.range_reduction_c - from_summaries.range_reduction_c).abs() <= 1e-9);
    }

    #[test]
    fn run_summary_reproduces_trace_metrics() {
        let result = synthetic_result(
            ExperimentKind::Dtpm,
            &[58.0, 61.0, 63.0, 62.0, 61.5, 62.2],
            5.5,
            120.0,
        );
        let summary = RunSummary::of(&result);
        assert_eq!(summary.config, result.config);
        assert_eq!(summary.completed, result.completed);
        assert_eq!(summary.intervals, result.trace.len());
        assert_eq!(summary.energy_j, result.energy_j);
        assert_eq!(summary.execution_time_s, result.execution_time_s);
        assert_eq!(
            summary.mean_platform_power_w,
            result.trace.mean_platform_power_w()
        );
        assert_eq!(summary.intervention_rate, result.trace.intervention_rate());
        let reference = StabilityReport::of(&result);
        assert_eq!(summary.stability.peak_temp_c, reference.peak_temp_c);
        assert_eq!(summary.stability.temp_range_c, reference.temp_range_c);
        assert!((summary.stability.mean_temp_c - reference.mean_temp_c).abs() < 1e-12);
        assert!((summary.stability.temp_variance - reference.temp_variance).abs() < 1e-9);
    }

    #[test]
    fn identical_runs_compare_as_neutral() {
        let a = synthetic_result(ExperimentKind::Dtpm, &[60.0, 61.0, 60.5], 5.0, 90.0);
        let b = synthetic_result(ExperimentKind::Dtpm, &[60.0, 61.0, 60.5], 5.0, 90.0);
        let cmp = BenchmarkComparison::against_baseline(&a, &b);
        assert_eq!(cmp.power_saving_percent, 0.0);
        assert_eq!(cmp.performance_loss_percent, 0.0);
        assert!((cmp.variance_reduction_factor - 1.0).abs() < 1e-9);
        assert_eq!(cmp.range_reduction_c, 0.0);
    }
}
