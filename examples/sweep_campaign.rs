//! A declarative streaming sweep campaign: the paper's evaluation grid
//! ({baseline, reactive, DTPM} × benchmarks × ambients) declared as one
//! [`SweepSpec`], streamed summaries-only through the lane-compacting sweep,
//! and folded into a per-benchmark comparison table — without retaining a
//! single per-interval trace.
//!
//! Run with `cargo run --release --example sweep_campaign`.

use platform_sim::{
    BenchmarkComparison, CalibrationCampaign, ExperimentKind, ResultSink, RunReport, RunSummary,
    SimError, SweepSpec,
};
use workload::BenchmarkId;

/// A streaming sink that keeps only the O(1) per-cell summaries.
#[derive(Default)]
struct SummarySink {
    summaries: Vec<(usize, RunSummary)>,
    failures: Vec<(usize, SimError)>,
}

impl ResultSink for SummarySink {
    fn accept(&mut self, index: usize, outcome: Result<RunReport, SimError>) {
        match outcome {
            Ok(report) => {
                assert!(report.trace.is_none(), "summaries-only: no traces");
                self.summaries.push((index, report.summary));
            }
            Err(e) => self.failures.push((index, e)),
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Characterising the platform...");
    let calibration = CalibrationCampaign::default().run(7)?;

    // The grid: 3 thermal-management kinds x 4 benchmarks x 2 ambients.
    let spec = SweepSpec::new(
        vec![
            ExperimentKind::DefaultWithFan,
            ExperimentKind::Reactive,
            ExperimentKind::Dtpm,
        ],
        vec![
            BenchmarkId::Crc32,
            BenchmarkId::Qsort,
            BenchmarkId::Basicmath,
            BenchmarkId::Templerun,
        ],
    )
    .with_ambients_c(vec![24.0, 32.0])
    .with_campaign_seed(2026);
    println!(
        "Running {} cells ({} kinds x {} benchmarks x {} ambients), streaming summaries...",
        spec.cells(),
        spec.kinds.len(),
        spec.benchmarks.len(),
        spec.ambients_c.len()
    );

    let mut sink = SummarySink::default();
    spec.runner().run_into(&calibration, &mut sink);
    for (index, error) in &sink.failures {
        eprintln!("cell {index} failed: {error}");
    }

    // Fold the stream into the Figure 6.9-style table: per (benchmark,
    // ambient), DTPM vs the fan baseline.
    println!(
        "\n{:>12} {:>9} {:>12} {:>12} {:>12} {:>10}",
        "benchmark", "ambient", "power save", "perf loss", "var reduce", "peak degC"
    );
    let cell_of = |kind: ExperimentKind, benchmark: BenchmarkId, ambient_c: f64| {
        sink.summaries.iter().map(|(_, s)| s).find(|s| {
            s.config.kind == kind
                && s.config.benchmark == benchmark
                && s.config.ambient_c == ambient_c
        })
    };
    for &benchmark in &spec.benchmarks {
        for &ambient_c in &spec.ambients_c {
            let (Some(baseline), Some(dtpm)) = (
                cell_of(ExperimentKind::DefaultWithFan, benchmark, ambient_c),
                cell_of(ExperimentKind::Dtpm, benchmark, ambient_c),
            ) else {
                continue;
            };
            let cmp = BenchmarkComparison::against_baseline(baseline, dtpm);
            println!(
                "{:>12} {:>8}C {:>11.1}% {:>11.1}% {:>11.1}x {:>10.1}",
                benchmark.name(),
                ambient_c,
                cmp.power_saving_percent,
                cmp.performance_loss_percent,
                cmp.variance_reduction_factor,
                dtpm.stability.peak_temp_c
            );
        }
    }

    let retained = sink.summaries.len() * std::mem::size_of::<RunSummary>();
    println!(
        "\nRetained {} summaries (~{:.1} KiB); no per-interval traces were kept.",
        sink.summaries.len(),
        retained as f64 / 1024.0
    );
    Ok(())
}
