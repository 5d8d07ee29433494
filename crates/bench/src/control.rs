//! Closed-loop temperature-control experiments (Figures 1.1, 6.3–6.8).

use std::fmt::Write as _;

use platform_sim::{
    Experiment, ExperimentConfig, ExperimentKind, RunReport, RunSummary, SimError, StabilityReport,
    Trace,
};
use workload::BenchmarkId;

use crate::ExperimentContext;

/// Runs one benchmark with its trace retained: the summary for the printed
/// numbers, the trace for the plotted series.
fn run(
    context: &ExperimentContext,
    kind: ExperimentKind,
    benchmark: BenchmarkId,
) -> Result<(RunSummary, Trace), SimError> {
    let mut config = ExperimentConfig::new(kind, benchmark).with_seed(7);
    if context.quick {
        config.max_duration_s = 240.0;
    }
    let RunReport { summary, trace } = Experiment::new(&config, &context.calibration)?.run()?;
    Ok((
        summary,
        trace.expect("an experiment retains its trace by default"),
    ))
}

fn temperature_figure(
    title: &str,
    context: &ExperimentContext,
    benchmark: BenchmarkId,
    kinds: &[ExperimentKind],
) -> Result<String, SimError> {
    let mut out = format!("{title}\n");
    for &kind in kinds {
        let (summary, trace) = run(context, kind, benchmark)?;
        let series = trace.max_temp_series();
        let times: Vec<f64> = trace.records().iter().map(|r| r.time_s).collect();
        let _ = writeln!(
            out,
            "  [{kind}] execution {:.1} s, peak {:.1} degC, mean {:.1} degC",
            summary.execution_time_s, summary.stability.peak_temp_c, summary.stability.mean_temp_c
        );
        out.push_str(&crate::format_series(
            &format!("max core temperature ({kind})"),
            &times,
            &series,
            (series.len() / 20).max(1),
            "degC",
        ));
    }
    Ok(out)
}

fn frequency_figure(
    title: &str,
    context: &ExperimentContext,
    benchmark: BenchmarkId,
) -> Result<String, SimError> {
    let mut out = format!("{title}\n");
    for kind in [ExperimentKind::DefaultWithFan, ExperimentKind::Dtpm] {
        let (summary, trace) = run(context, kind, benchmark)?;
        let times: Vec<f64> = trace.records().iter().map(|r| r.time_s).collect();
        let freqs = trace.frequency_series();
        let temps = trace.max_temp_series();
        let _ = writeln!(
            out,
            "  [{kind}] execution {:.1} s, mean platform power {:.2} W, DTPM intervention rate {:.1}%",
            summary.execution_time_s,
            summary.mean_platform_power_w,
            100.0 * summary.intervention_rate
        );
        out.push_str(&crate::format_series(
            &format!("frequency ({kind})"),
            &times,
            &freqs,
            (freqs.len() / 16).max(1),
            "MHz",
        ));
        out.push_str(&crate::format_series(
            &format!("max core temperature ({kind})"),
            &times,
            &temps,
            (temps.len() / 16).max(1),
            "degC",
        ));
    }
    Ok(out)
}

/// Figure 1.1 — maximum core temperature with and without the fan under a
/// heavy load.
pub fn fig1_1(context: &ExperimentContext) -> Result<String, SimError> {
    temperature_figure(
        "Figure 1.1 — maximum core temperature with and without the fan (matrix multiplication)",
        context,
        BenchmarkId::MatrixMult,
        &[ExperimentKind::DefaultWithFan, ExperimentKind::WithoutFan],
    )
}

/// Figure 6.3 — temperature control for Templerun.
pub fn fig6_3(context: &ExperimentContext) -> Result<String, SimError> {
    temperature_figure(
        "Figure 6.3 — temperature control for Templerun",
        context,
        BenchmarkId::Templerun,
        &[
            ExperimentKind::WithoutFan,
            ExperimentKind::DefaultWithFan,
            ExperimentKind::Dtpm,
        ],
    )
}

/// Figure 6.4 — temperature control for Basicmath.
pub fn fig6_4(context: &ExperimentContext) -> Result<String, SimError> {
    temperature_figure(
        "Figure 6.4 — temperature control for Basicmath",
        context,
        BenchmarkId::Basicmath,
        &[
            ExperimentKind::WithoutFan,
            ExperimentKind::DefaultWithFan,
            ExperimentKind::Dtpm,
        ],
    )
}

/// Figure 6.5 — thermal stability comparison (average temperature and max–min
/// spread) for Templerun and Basicmath.
pub fn fig6_5(context: &ExperimentContext) -> Result<String, SimError> {
    let mut out = String::from(
        "Figure 6.5 — thermal stability comparison (metrics over the regulated portion)\n",
    );
    let _ = writeln!(
        out,
        "  {:<12} {:<18} {:>10} {:>12} {:>10}",
        "benchmark", "configuration", "avg degC", "max-min degC", "variance"
    );
    for benchmark in [BenchmarkId::Templerun, BenchmarkId::Basicmath] {
        let mut fan_variance = None;
        for kind in [
            ExperimentKind::WithoutFan,
            ExperimentKind::DefaultWithFan,
            ExperimentKind::Dtpm,
        ] {
            let (_, trace) = run(context, kind, benchmark)?;
            let stability = StabilityReport::of_steady_portion(&trace, 0.3);
            let _ = writeln!(
                out,
                "  {:<12} {:<18} {:>10.1} {:>12.1} {:>10.2}",
                benchmark.name(),
                kind.name(),
                stability.mean_temp_c,
                stability.temp_range_c,
                stability.temp_variance
            );
            if kind == ExperimentKind::DefaultWithFan {
                fan_variance = Some(stability.temp_variance);
            }
            if kind == ExperimentKind::Dtpm {
                if let Some(fan) = fan_variance {
                    let factor = if stability.temp_variance > 1e-9 {
                        fan / stability.temp_variance
                    } else {
                        f64::INFINITY
                    };
                    let _ = writeln!(
                        out,
                        "  {:<12} variance reduction vs fan: {factor:.1}x (paper: ~6x)",
                        benchmark.name()
                    );
                }
            }
        }
    }
    Ok(out)
}

/// Figure 6.6 — frequency and temperature for Dijkstra (low activity).
pub fn fig6_6(context: &ExperimentContext) -> Result<String, SimError> {
    frequency_figure(
        "Figure 6.6 — frequency and temperature for Dijkstra (default with fan vs DTPM)",
        context,
        BenchmarkId::Dijkstra,
    )
}

/// Figure 6.7 — frequency and temperature for Patricia (medium activity).
pub fn fig6_7(context: &ExperimentContext) -> Result<String, SimError> {
    frequency_figure(
        "Figure 6.7 — frequency and temperature for Patricia (default with fan vs DTPM)",
        context,
        BenchmarkId::Patricia,
    )
}

/// Figure 6.8 — frequency and temperature for matrix multiplication (high
/// activity).
pub fn fig6_8(context: &ExperimentContext) -> Result<String, SimError> {
    frequency_figure(
        "Figure 6.8 — frequency and temperature for matrix multiplication (default with fan vs DTPM)",
        context,
        BenchmarkId::MatrixMult,
    )
}
