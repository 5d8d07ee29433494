//! Memory and wall-clock microbench for streaming sweep campaigns.
//!
//! A ~200-cell grid (kinds × benchmarks × ambients × DTPM variants ×
//! replicates) is run twice through the same lane-compacting scheduler:
//!
//! * **collect-everything** — the classic trace-retaining path
//!   ([`TracePolicy::Full`] into a [`CollectSink`]): every run keeps one
//!   `TraceRecord` per control interval, so retained memory scales as
//!   cells × intervals.
//! * **streaming-summaries** — the campaign default
//!   ([`TracePolicy::SummaryOnly`]): every run streams through the online
//!   accumulators and retains one O(1) `RunSummary`, so retained memory is
//!   O(cells) regardless of run length.
//!
//! The claim is structural, not a race: the streaming sink's retained
//! result bytes stay exactly O(cells) — zero per-interval records retained
//! — while the collect arm's retention grows with the per-run interval
//! count, and the per-cell summaries of the two arms agree. The retention
//! ratio must reach [`RETENTION_FLOOR`]; the arms' wall clocks are recorded
//! alongside, without a bound. Results land in `BENCH_sweep_campaign.json`.

use bench::microbench::{Bound, Microbench, Timer};
use platform_sim::{
    Calibration, CalibrationCampaign, CollectSink, DtpmVariant, ExperimentKind, RunReport,
    SimError, SweepSpec, TracePolicy,
};
use workload::BenchmarkId;

/// Lanes per worker engine (batch width) for both arms.
const LANES: usize = 8;
/// Simulated duration cap per cell in the full run, seconds.
const FULL_DURATION_S: f64 = 4.0;
/// Pairs timed in a full run.
const PAIRS: usize = 11;
/// Acceptance floor: collect-arm retained bytes over streaming-arm retained
/// bytes. With 40 retained intervals per cell the measured ratio sits far
/// above this; the floor only guards against per-interval retention
/// sneaking back into the streaming path.
const RETENTION_FLOOR: f64 = 4.0;

/// The campaign grid: 2 kinds × 5 benchmarks × 2 ambients × 2 DTPM variants
/// × 5 replicates = 200 cells (8 cells in `--test` mode), and its cap on
/// simulated seconds per cell.
fn campaign(test_mode: bool) -> (SweepSpec, f64) {
    let (benchmarks, ambients, variants, replicates) = if test_mode {
        (
            vec![BenchmarkId::Crc32],
            vec![28.0],
            vec![DtpmVariant::default()],
            4,
        )
    } else {
        (
            vec![
                BenchmarkId::Crc32,
                BenchmarkId::Qsort,
                BenchmarkId::Dijkstra,
                BenchmarkId::Basicmath,
                BenchmarkId::Templerun,
            ],
            vec![26.0, 32.0],
            vec![
                DtpmVariant::default(),
                DtpmVariant {
                    horizon_steps: 20,
                    constraint_c: 60.0,
                },
            ],
            5,
        )
    };
    let duration_s = if test_mode { 1.0 } else { FULL_DURATION_S };
    let spec = SweepSpec::new(
        vec![ExperimentKind::Reactive, ExperimentKind::Dtpm],
        benchmarks,
    )
    .with_ambients_c(ambients)
    .with_dtpm_variants(variants)
    .with_replicates(replicates)
    .with_campaign_seed(0x5EED_CA4D)
    .with_max_duration_s(duration_s)
    .with_ideal_sensors(true);
    (spec, duration_s)
}

/// Bytes a collected report pins in memory beyond its own struct: the heap
/// side of the retained trace.
fn retained_trace_bytes(report: &RunReport) -> usize {
    report
        .trace
        .as_ref()
        .map(|t| t.len() * std::mem::size_of::<platform_sim::TraceRecord>())
        .unwrap_or(0)
}

struct ArmOutcome {
    reports: Vec<Result<RunReport, SimError>>,
    /// Total retained result bytes: per-report struct plus retained trace
    /// heap.
    retained_bytes: usize,
    /// Total per-interval records retained across every report.
    retained_records: usize,
}

/// Runs the grid into a [`CollectSink`] under `recording`, timing the
/// campaign alone.
fn run_arm(
    spec: &SweepSpec,
    calibration: &Calibration,
    recording: TracePolicy,
    timer: &mut Timer,
) -> ArmOutcome {
    let mut sink = CollectSink::new(spec.cells());
    timer.time(|| {
        spec.runner()
            .with_threads(1)
            .with_lanes(LANES)
            .with_recording(recording)
            .run_into(calibration, &mut sink)
    });
    let reports = sink.into_reports();
    let retained_records: usize = reports
        .iter()
        .map(|r| {
            r.as_ref()
                .map(|r| r.trace.as_ref().map(platform_sim::Trace::len).unwrap_or(0))
                .unwrap_or(0)
        })
        .sum();
    let retained_bytes = reports.len() * std::mem::size_of::<Result<RunReport, SimError>>()
        + reports
            .iter()
            .map(|r| r.as_ref().map(retained_trace_bytes).unwrap_or(0))
            .sum::<usize>();
    ArmOutcome {
        reports,
        retained_bytes,
        retained_records,
    }
}

fn main() {
    let mut bench = Microbench::from_args("sweep_campaign", PAIRS);
    let (spec, duration_s) = campaign(bench.test_mode());
    let cells = spec.cells();
    bench.config("cells", cells);
    bench.config("lanes", LANES);
    bench.config("max_duration_s", duration_s);

    let calibration = CalibrationCampaign {
        prbs_duration_s: 120.0,
        run_furnace: false,
        ..CalibrationCampaign::default()
    }
    .run(41)
    .expect("calibration campaign must succeed");

    let mut collect = None;
    let mut streaming = None;
    bench.paired(
        "collect_over_streaming_wall",
        None,
        ["collect", "streaming"],
        |t| collect = Some(run_arm(&spec, &calibration, TracePolicy::Full, t)),
        |t| streaming = Some(run_arm(&spec, &calibration, TracePolicy::SummaryOnly, t)),
    );
    let collect = collect.expect("the collect arm ran");
    let streaming = streaming.expect("the streaming arm ran");

    // Streaming must be invisible in the summaries. A single worker makes
    // lane placement deterministic, so the comparison is exact.
    assert_eq!(collect.reports.len(), cells);
    assert_eq!(streaming.reports.len(), cells);
    for (index, (collected, streamed)) in collect.reports.iter().zip(&streaming.reports).enumerate()
    {
        let collected = collected.as_ref().expect("collect arm cell succeeds");
        let streamed = streamed.as_ref().expect("streaming arm cell succeeds");
        assert_eq!(
            collected.summary, streamed.summary,
            "cell {index}: summaries diverged between arms"
        );
        assert!(
            streamed.trace.is_none(),
            "cell {index}: streaming arm retained a trace"
        );
        assert!(streamed.summary.mean_platform_power_w.is_finite());
    }

    // The structural bar: the streaming sink retains zero per-interval
    // records — its result bytes are exactly O(cells) — while the collect
    // arm's retention carries every interval of every cell.
    assert_eq!(
        streaming.retained_records, 0,
        "streaming arm must retain no per-interval records"
    );
    assert_eq!(
        streaming.retained_bytes,
        cells * std::mem::size_of::<Result<RunReport, SimError>>(),
        "streaming retention must be exactly cells x report size"
    );
    let intervals_total: usize = collect
        .reports
        .iter()
        .map(|r| r.as_ref().map(|r| r.summary.intervals).unwrap_or(0))
        .sum();
    assert_eq!(
        collect.retained_records, intervals_total,
        "collect arm retains every interval"
    );

    bench.value(
        "collect_retained_records",
        collect.retained_records as f64,
        None,
    );
    bench.value(
        "collect_retained_bytes",
        collect.retained_bytes as f64,
        None,
    );
    bench.value(
        "streaming_retained_bytes",
        streaming.retained_bytes as f64,
        None,
    );
    bench.value(
        "retention_ratio",
        collect.retained_bytes as f64 / streaming.retained_bytes as f64,
        Some(Bound::Floor(RETENTION_FLOOR)),
    );
    bench.finish();
}
