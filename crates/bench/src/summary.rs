//! Tables, the power/performance summaries (Figures 6.9 and 6.10) and the
//! future-work budget-distribution study (Figure 7.1).

use std::fmt::Write as _;

use dtpm::{distribute_budget, DistributionMethod, ResourceLoad};
use platform_sim::{
    BenchmarkComparison, ExperimentConfig, ExperimentKind, RunSummary, ScenarioSweep, SimError,
    TracePolicy,
};
use soc_model::{OppTable, SocSpec};
use workload::{BenchmarkCategory, BenchmarkId};

use crate::ExperimentContext;

/// Tables 6.1–6.4 — the frequency tables of both CPU clusters and the GPU and
/// the benchmark list.
pub fn tables() -> String {
    let spec = SocSpec::odroid_xu_e();
    let mut out = String::new();
    for (title, table) in [
        ("Table 6.1 — big CPU cluster frequencies", spec.big_opps()),
        (
            "Table 6.2 — little CPU cluster frequencies",
            spec.little_opps(),
        ),
        ("Table 6.3 — GPU frequencies", spec.gpu_opps()),
    ] {
        let _ = writeln!(out, "{title}");
        for op in table.points() {
            let _ = writeln!(
                out,
                "  {:>5} MHz  ({:.2} V)",
                op.frequency.mhz(),
                op.voltage.volts()
            );
        }
    }
    let _ = writeln!(out, "Table 6.4 — benchmarks used in the experiments");
    let _ = writeln!(
        out,
        "  {:<14} {:<14} {:<8} {:<4}",
        "benchmark", "type", "category", "gpu"
    );
    for id in BenchmarkId::PAPER_SET {
        let spec = id.spec();
        let _ = writeln!(
            out,
            "  {:<14} {:<14} {:<8} {:<4}",
            id.name(),
            format!("{:?}", spec.kind),
            spec.category.to_string(),
            if spec.uses_gpu { "yes" } else { "no" }
        );
    }
    out
}

fn config_for(
    context: &ExperimentContext,
    kind: ExperimentKind,
    benchmark: BenchmarkId,
) -> ExperimentConfig {
    let mut config = ExperimentConfig::new(kind, benchmark).with_seed(7);
    if context.quick {
        config.max_duration_s = 240.0;
    }
    config
}

fn summary_rows(
    context: &ExperimentContext,
    benchmarks: &[BenchmarkId],
) -> Result<(String, Vec<(BenchmarkId, BenchmarkComparison)>), SimError> {
    // Every benchmark needs a fan-cooled baseline run and a DTPM run; the
    // pairs are independent closed-loop simulations, so fan them all out over
    // the scenario sweep's worker threads. The figures only need each run's
    // summary (mean power, execution time, stability), so the sweep streams
    // summaries-only: nothing per-interval is retained across the whole
    // benchmark set.
    let mut configs = Vec::with_capacity(benchmarks.len() * 2);
    for &benchmark in benchmarks {
        configs.push(config_for(
            context,
            ExperimentKind::DefaultWithFan,
            benchmark,
        ));
        configs.push(config_for(context, ExperimentKind::Dtpm, benchmark));
    }
    let mut results = ScenarioSweep::new(configs)
        .with_recording(TracePolicy::SummaryOnly)
        .run(&context.calibration)
        .into_iter()
        .map(|report| report.map(|report| report.summary));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<14} {:<8} {:>14} {:>16} {:>12}",
        "benchmark", "category", "power saving %", "perf. impact %", "peak degC"
    );
    let mut rows = Vec::new();
    for &benchmark in benchmarks {
        let baseline: RunSummary = results.next().expect("one result per config")?;
        let dtpm: RunSummary = results.next().expect("one result per config")?;
        let cmp = BenchmarkComparison::against_baseline(&baseline, &dtpm);
        let peak = dtpm.stability.peak_temp_c;
        let _ = writeln!(
            out,
            "  {:<14} {:<8} {:>14.1} {:>16.1} {:>12.1}",
            benchmark.name(),
            benchmark.spec().category.to_string(),
            cmp.power_saving_percent,
            cmp.performance_loss_percent,
            peak
        );
        rows.push((benchmark, cmp));
    }
    Ok((out, rows))
}

/// Figure 6.9 — power savings and performance loss of the DTPM algorithm
/// relative to the fan-cooled default, per benchmark.
pub fn fig6_9(context: &ExperimentContext) -> Result<String, SimError> {
    let mut out = String::from(
        "Figure 6.9 — power savings and performance loss (DTPM vs default with fan)\n",
    );
    let benchmarks: Vec<BenchmarkId> = if context.quick {
        vec![
            BenchmarkId::Dijkstra,
            BenchmarkId::Blowfish,
            BenchmarkId::Patricia,
            BenchmarkId::Qsort,
            BenchmarkId::Basicmath,
            BenchmarkId::MatrixMult,
            BenchmarkId::Templerun,
        ]
    } else {
        BenchmarkId::PAPER_SET.to_vec()
    };
    let (rows, comparisons) = summary_rows(context, &benchmarks)?;
    out.push_str(&rows);

    // Per-category averages (the paper quotes ~3% / ~8% / ~14%).
    for category in [
        BenchmarkCategory::Low,
        BenchmarkCategory::Medium,
        BenchmarkCategory::High,
    ] {
        let in_category: Vec<&BenchmarkComparison> = comparisons
            .iter()
            .filter(|(b, _)| b.spec().category == category)
            .map(|(_, c)| c)
            .collect();
        if in_category.is_empty() {
            continue;
        }
        let saving = in_category
            .iter()
            .map(|c| c.power_saving_percent)
            .sum::<f64>()
            / in_category.len() as f64;
        let loss = in_category
            .iter()
            .map(|c| c.performance_loss_percent)
            .sum::<f64>()
            / in_category.len() as f64;
        let _ = writeln!(
            out,
            "  average for {:<6} activity: {saving:5.1}% power saving, {loss:5.1}% performance impact",
            category.to_string()
        );
    }
    Ok(out)
}

/// Figure 6.10 — the same summary for the multi-threaded benchmarks.
pub fn fig6_10(context: &ExperimentContext) -> Result<String, SimError> {
    let mut out = String::from(
        "Figure 6.10 — power savings and performance loss for multi-threaded benchmarks\n",
    );
    let (rows, _) = summary_rows(context, &BenchmarkId::MULTI_THREADED_SET)?;
    out.push_str(&rows);
    Ok(out)
}

/// Figure 7.1 — distributing a dynamic power budget across the heterogeneous
/// resources (future-work study, Eqs. 7.1–7.3): greedy vs branch-and-bound.
pub fn fig7_1() -> String {
    let resources = vec![
        ResourceLoad {
            name: "big-cpu".to_owned(),
            performance_weight: 3.0,
            power_coefficient: 0.9,
            opps: OppTable::exynos5410_big(),
        },
        ResourceLoad {
            name: "little-cpu".to_owned(),
            performance_weight: 0.6,
            power_coefficient: 0.12,
            opps: OppTable::exynos5410_little(),
        },
        ResourceLoad {
            name: "gpu".to_owned(),
            performance_weight: 1.2,
            power_coefficient: 2.0,
            opps: OppTable::exynos5410_gpu(),
        },
    ];
    let mut out = String::from(
        "Figure 7.1 — dynamic power budget distribution across big CPU / little CPU / GPU\n",
    );
    let _ = writeln!(
        out,
        "  {:>10} {:>12} {:>26} {:>12} {:>12}",
        "budget W", "method", "frequencies (MHz)", "power W", "cost J"
    );
    for budget in [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0] {
        for method in [
            DistributionMethod::Greedy,
            DistributionMethod::BranchAndBound,
        ] {
            let result = distribute_budget(&resources, budget, method)
                .expect("static resource description is valid");
            let freqs: Vec<String> = result
                .frequencies
                .iter()
                .map(|f| f.mhz().to_string())
                .collect();
            let _ = writeln!(
                out,
                "  {budget:>10.1} {:>12} {:>26} {:>12.2} {:>12.3}",
                match method {
                    DistributionMethod::Greedy => "greedy",
                    DistributionMethod::BranchAndBound => "optimal",
                },
                freqs.join("/"),
                result.total_power_w,
                result.cost
            );
        }
    }
    out.push_str("  (the greedy Eq. 7.3 heuristic tracks the branch-and-bound optimum closely)\n");
    out
}
