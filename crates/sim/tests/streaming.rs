//! Correctness of the streaming observer/sink/campaign pipeline.
//!
//! The result path's contract is that *streaming is invisible in the
//! numbers*: every run reports the summary its control loop streamed, which
//! equals a replay of its retained trace through the same accumulators and
//! does not depend on the trace policy; and a grid campaign streamed
//! through a summaries-only sink must agree with the trace-retaining sweep
//! of the same cells — while provably not retaining any per-interval
//! traces.

use platform_sim::{
    Calibration, CalibrationCampaign, CollectSink, Experiment, ExperimentConfig, ExperimentKind,
    OnlineRunStats, RunObserver, RunSummary, ScenarioSweep, StabilityReport, SweepSpec,
    TracePolicy, TraceRecord,
};
use proptest::prelude::*;
use workload::BenchmarkId;

fn calibration() -> &'static Calibration {
    static CALIBRATION: std::sync::OnceLock<Calibration> = std::sync::OnceLock::new();
    CALIBRATION.get_or_init(|| {
        CalibrationCampaign {
            prbs_duration_s: 120.0,
            run_furnace: false,
            ..CalibrationCampaign::default()
        }
        .run(37)
        .expect("calibration campaign must succeed")
    })
}

fn config_for(
    kind_index: usize,
    bench_index: usize,
    seed: u64,
    duration_s: f64,
) -> ExperimentConfig {
    let kinds = [
        ExperimentKind::DefaultWithFan,
        ExperimentKind::WithoutFan,
        ExperimentKind::Reactive,
        ExperimentKind::Dtpm,
    ];
    let benchmarks = [
        BenchmarkId::Crc32,
        BenchmarkId::Qsort,
        BenchmarkId::Basicmath,
        BenchmarkId::Templerun,
    ];
    let mut config = ExperimentConfig::new(
        kinds[kind_index % kinds.len()],
        benchmarks[bench_index % benchmarks.len()],
    )
    .with_seed(seed);
    config.max_duration_s = duration_s;
    config
}

/// Field-by-field comparison of two summaries at the acceptance bar
/// (≤ 1e-9, absolute on temperatures and rates, relative on power/energy).
fn assert_summaries_close(streamed: &RunSummary, reference: &RunSummary, label: &str) {
    assert_eq!(streamed.config, reference.config, "{label}: config");
    assert_eq!(
        streamed.completed, reference.completed,
        "{label}: completed"
    );
    assert_eq!(
        streamed.intervals, reference.intervals,
        "{label}: intervals"
    );
    assert_eq!(
        streamed.execution_time_s, reference.execution_time_s,
        "{label}: execution time"
    );
    let close_rel = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    assert!(
        close_rel(streamed.energy_j, reference.energy_j),
        "{label}: energy {} vs {}",
        streamed.energy_j,
        reference.energy_j
    );
    assert!(
        close_rel(
            streamed.mean_platform_power_w,
            reference.mean_platform_power_w
        ),
        "{label}: mean power {} vs {}",
        streamed.mean_platform_power_w,
        reference.mean_platform_power_w
    );
    for (name, a, b) in [
        (
            "mean temp",
            streamed.stability.mean_temp_c,
            reference.stability.mean_temp_c,
        ),
        (
            "temp range",
            streamed.stability.temp_range_c,
            reference.stability.temp_range_c,
        ),
        (
            "temp variance",
            streamed.stability.temp_variance,
            reference.stability.temp_variance,
        ),
        (
            "peak temp",
            streamed.stability.peak_temp_c,
            reference.stability.peak_temp_c,
        ),
        (
            "intervention rate",
            streamed.intervention_rate,
            reference.intervention_rate,
        ),
        (
            "residency",
            streamed.little_cluster_residency,
            reference.little_cluster_residency,
        ),
    ] {
        assert!(
            (a - b).abs() <= 1e-9,
            "{label}: {name} diverged: {a} vs {b}"
        );
    }
}

proptest! {
    /// The online-metrics observer, replaying the records a trace-retaining
    /// run kept, reproduces every post-hoc metric of that trace (mean power,
    /// peak and range bit-equal, the rest to ≤ 1e-9) and the run's streamed
    /// summary bit for bit; a summaries-only run streams the same summary.
    #[test]
    fn online_metrics_match_post_hoc_analysis(
        kind_index in 0usize..4,
        bench_index in 0usize..4,
        seed in 0i64..1_000_000,
        duration_s in 1.5f64..4.0,
    ) {
        let config = config_for(kind_index, bench_index, seed as u64, duration_s);
        let report = Experiment::new(&config, calibration())
            .expect("experiment builds")
            .run()
            .expect("experiment runs");
        let trace = report.trace.as_ref().expect("full trace retained");
        let records = trace.records();
        prop_assert!(!records.is_empty());

        // Whole-run statistics.
        let mut stats = OnlineRunStats::new();
        for record in records {
            stats.on_interval(record);
        }
        prop_assert_eq!(stats.intervals(), records.len());
        // The running power sum is the same left fold `Iterator::sum` does.
        prop_assert_eq!(stats.mean_platform_power_w(), trace.mean_platform_power_w());
        prop_assert_eq!(stats.intervention_rate(), trace.intervention_rate());
        prop_assert_eq!(
            stats.little_cluster_residency(),
            trace.little_cluster_residency()
        );
        let online = stats.stability();
        let reference = StabilityReport::of_steady_portion(trace, 0.0);
        prop_assert_eq!(online.peak_temp_c, reference.peak_temp_c);
        prop_assert_eq!(online.temp_range_c, reference.temp_range_c);
        prop_assert!((online.mean_temp_c - reference.mean_temp_c).abs() <= 1e-9);
        prop_assert!((online.temp_variance - reference.temp_variance).abs() <= 1e-9);

        // The streamed summary is that replay, bit for bit: the control loop
        // folded the same records through the same accumulators.
        let summary = &report.summary;
        prop_assert_eq!(summary.intervals, stats.intervals());
        prop_assert_eq!(summary.mean_platform_power_w, stats.mean_platform_power_w());
        prop_assert_eq!(summary.stability, online);
        prop_assert_eq!(summary.intervention_rate, stats.intervention_rate());
        prop_assert_eq!(
            summary.little_cluster_residency,
            stats.little_cluster_residency()
        );

        // A live summary-only run of the same configuration streams the
        // bit-identical summary (same record sequence, same accumulators).
        let summary_only = Experiment::new(&config, calibration())
            .expect("experiment builds")
            .with_recording(TracePolicy::SummaryOnly)
            .run()
            .expect("experiment runs");
        prop_assert!(summary_only.trace.is_none(), "summary-only retains no trace");
        prop_assert_eq!(&summary_only.summary, summary);
    }

    /// Grid expansion derives a distinct, deterministic seed for every cell,
    /// stable across expansions and independent of iteration order.
    #[test]
    fn grid_cells_have_distinct_order_independent_seeds(
        kind_count in 1usize..4,
        bench_count in 1usize..4,
        ambient_count in 1usize..3,
        variant_count in 1usize..3,
        replicates in 1usize..4,
        campaign_seed in 0i64..1_000_000_000,
    ) {
        let kinds = [
            ExperimentKind::DefaultWithFan,
            ExperimentKind::Reactive,
            ExperimentKind::Dtpm,
        ];
        let benchmarks = [BenchmarkId::Crc32, BenchmarkId::Sha, BenchmarkId::Fft];
        let spec = SweepSpec::new(
            kinds[..kind_count].to_vec(),
            benchmarks[..bench_count].to_vec(),
        )
        .with_ambients_c((0..ambient_count).map(|i| 24.0 + 4.0 * i as f64).collect())
        .with_dtpm_variants(
            (0..variant_count)
                .map(|i| platform_sim::DtpmVariant {
                    horizon_steps: 10 + 10 * i,
                    constraint_c: 63.0 - 3.0 * i as f64,
                })
                .collect(),
        )
        .with_replicates(replicates)
        .with_campaign_seed(campaign_seed as u64);

        let cells = spec.cells();
        prop_assert_eq!(
            cells,
            kind_count * bench_count * ambient_count * variant_count * replicates
        );

        // Forward expansion: every seed distinct.
        let forward: Vec<u64> = spec.expand().map(|config| config.seed).collect();
        let unique: std::collections::HashSet<u64> = forward.iter().copied().collect();
        prop_assert_eq!(unique.len(), cells, "cell seeds must be distinct");

        // Reverse-order and strided random access derive identical cells:
        // seeding is a pure function of (campaign seed, cell index).
        for index in (0..cells).rev() {
            prop_assert_eq!(spec.cell(index).seed, forward[index]);
        }
        for index in (0..cells).step_by(3) {
            prop_assert_eq!(spec.cell_seed(index), forward[index]);
        }

        // Stable across runs: an identical spec derives identical seeds.
        let again: Vec<u64> = spec.clone().expand().map(|config| config.seed).collect();
        prop_assert_eq!(again, forward);
    }
}

/// The acceptance-criteria path: a ≥ 3-axis grid declared as a [`SweepSpec`]
/// runs end-to-end through the compacting sweep into a streaming
/// summaries-only sink, and every per-run summary is bit-equal to the
/// trace-retaining path's, while no full per-interval traces are retained.
#[test]
fn streamed_campaign_matches_trace_retaining_sweep() {
    let spec = SweepSpec::new(
        vec![
            ExperimentKind::DefaultWithFan,
            ExperimentKind::Reactive,
            ExperimentKind::Dtpm,
        ],
        vec![BenchmarkId::Crc32, BenchmarkId::Dijkstra],
    )
    .with_ambients_c(vec![26.0, 30.0])
    .with_max_duration_s(2.5)
    .with_ideal_sensors(true)
    .with_campaign_seed(0xCA11B0A7);
    assert_eq!(spec.cells(), 12, "3 kinds x 2 benchmarks x 2 ambients");

    // Trace-retaining arm: the Vec-collecting sweep over the same
    // cells. Both arms run the panel engine, where a cell's trajectory does
    // not depend on its lane, batch mates or thread, so the summary
    // comparison is exact rather than merely within the batched-engine
    // equivalence bar.
    let configs: Vec<ExperimentConfig> = spec.expand().collect();
    let retained = ScenarioSweep::new(configs.clone())
        .with_threads(1)
        .with_lanes(3)
        .run(calibration());

    // Streaming arm: same grid, same scheduler shape, summaries only.
    let mut sink = CollectSink::new(spec.cells());
    spec.runner()
        .with_threads(1)
        .with_lanes(3)
        .run_into(calibration(), &mut sink);
    let streamed = sink.into_reports();

    assert_eq!(streamed.len(), retained.len());
    for (index, (report, result)) in streamed.iter().zip(&retained).enumerate() {
        let report = report.as_ref().expect("streamed cell succeeds");
        let result = result.as_ref().expect("retained cell succeeds");
        assert!(
            report.trace.is_none(),
            "cell {index}: streaming configuration must retain no trace"
        );
        assert_eq!(report.summary.config, configs[index], "cell {index}: order");
        assert_eq!(
            report.summary, result.summary,
            "cell {index}: streamed summary must be bit-equal to the \
             trace-retaining path"
        );
    }
}

/// Multi-worker streaming covers every cell exactly once, and each cell's
/// retained trace and summary match the scalar reference run.
#[test]
fn parallel_streaming_covers_every_cell() {
    let spec = SweepSpec::new(
        vec![ExperimentKind::WithoutFan, ExperimentKind::Dtpm],
        vec![BenchmarkId::Qsort],
    )
    .with_ambients_c(vec![25.0, 29.0])
    .with_replicates(2)
    .with_max_duration_s(2.0)
    .with_ideal_sensors(true);
    assert_eq!(spec.cells(), 8);
    let configs: Vec<ExperimentConfig> = spec.expand().collect();

    // Parallel sweep: every cell's report arrives exactly once (CollectSink
    // asserts single writes), carries its full trace, and its summary
    // matches the scalar reference run.
    let reports = ScenarioSweep::new(configs.clone())
        .with_threads(2)
        .with_lanes(2)
        .with_recording(TracePolicy::Full)
        .run(calibration());
    for (index, report) in reports.into_iter().enumerate() {
        let report = report.expect("cell succeeds");
        assert_eq!(report.summary.config, configs[index]);
        let trace = report.trace.as_ref().expect("full trace retained");
        assert_eq!(
            trace.len(),
            report.summary.intervals,
            "cell {index}: one record per interval"
        );
        let reference = Experiment::new(&configs[index], calibration())
            .expect("reference builds")
            .run()
            .expect("reference runs");
        assert_summaries_close(
            &report.summary,
            &reference.summary,
            &format!("cell {index}"),
        );
    }
}

/// A summaries-only [`ScenarioSweep::run`] returns one report per
/// configuration, in input order, each without a trace and with the summary
/// the trace-retaining sweep of the same configurations reports: the trace
/// policy never changes a summary.
#[test]
fn summary_only_sweeps_return_reports() {
    let configs: Vec<ExperimentConfig> = (0..5)
        .map(|i| config_for(i, i + 1, 40 + i as u64, 1.5 + 0.25 * i as f64))
        .collect();
    let sweep = ScenarioSweep::new(configs.clone())
        .with_threads(2)
        .with_lanes(2);
    let full = sweep.run(calibration());
    let summaries_only = sweep
        .with_recording(TracePolicy::SummaryOnly)
        .run(calibration());
    assert_eq!(summaries_only.len(), configs.len());
    for (index, (report, reference)) in summaries_only.iter().zip(&full).enumerate() {
        let report = report.as_ref().expect("summary-only cell succeeds");
        let reference = reference.as_ref().expect("trace-retaining cell succeeds");
        assert_eq!(report.summary.config, configs[index], "cell {index}: order");
        assert!(report.trace.is_none(), "cell {index}: no trace retained");
        assert!(reference.trace.is_some(), "cell {index}: Full retains one");
        assert_eq!(report.summary, reference.summary, "cell {index}: summary");
    }
}

/// `RunObserver` is usable as a plain streaming tee outside the executor —
/// the seam future sinks (live plots, remote shipping) build on.
#[test]
fn observers_compose_over_one_record_stream() {
    /// An observer from outside the crate that keeps every record.
    #[derive(Debug, Default)]
    struct Retain(Vec<TraceRecord>);
    impl RunObserver for Retain {
        fn on_interval(&mut self, record: &TraceRecord) {
            self.0.push(*record);
        }
    }

    let config = config_for(3, 0, 11, 2.0);
    let report = Experiment::new(&config, calibration())
        .expect("experiment builds")
        .run()
        .expect("experiment runs");
    let trace = report.trace.as_ref().expect("full trace retained");
    let mut full = Retain::default();
    let mut stats = OnlineRunStats::new();
    {
        let observers: [&mut dyn RunObserver; 2] = [&mut full, &mut stats];
        for observer in observers {
            for record in trace.records() {
                observer.on_interval(record);
            }
        }
    }
    assert_eq!(full.0, trace.records());
    assert_eq!(stats.intervals(), trace.len());
    assert_eq!(stats.mean_platform_power_w(), trace.mean_platform_power_w());
}
