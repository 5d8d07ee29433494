//! End-to-end campaign resilience: checkpoint/resume bit-identity, partial
//! fold merge arrival-order independence, and cell-level fault containment.
//!
//! The contracts under test:
//!
//! * A campaign killed after any number of completed cells and resumed from
//!   its on-disk checkpoint folds to the **bit-identical** aggregate of the
//!   uninterrupted run (scalar lanes, where the engine is exactly
//!   deterministic).
//! * A grid run as separate cell ranges and merged in any arrival order
//!   yields one canonical aggregate.
//! * A cell that panics or blows its deadline is quarantined as a structured
//!   failure; sibling lanes of the same panel report summaries within the
//!   batched-engine equivalence bar (≤ 1e-9) of solo runs.
//! * A panicking result sink cannot poison the sweep: every other slot is
//!   still delivered.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use platform_sim::{
    Calibration, CalibrationCampaign, CampaignCheckpoint, ChaosPlan, CheckpointSink, CollectSink,
    Experiment, ExperimentConfig, ExperimentKind, FaultKind, FaultPlan, FaultWindow, MergeSink,
    ResiliencePolicy, ResultSink, RunReport, RunSummary, ScenarioSweep, SensorChannel, SimError,
    SweepSpec, TracePolicy,
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

/// A short six-cell campaign (2 kinds × 3 benchmarks, 1 s per cell) used by
/// every checkpoint/merge test here.
fn small_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(
        vec![ExperimentKind::Dtpm, ExperimentKind::Reactive],
        vec![
            BenchmarkId::Crc32,
            BenchmarkId::Qsort,
            BenchmarkId::Basicmath,
        ],
    );
    spec.campaign_seed = 0xC0FF_EE01;
    spec.max_duration_s = 1.0;
    spec.ideal_sensors = true;
    spec
}

/// A unique scratch path per call so parallel tests never collide on disk.
fn scratch_path(label: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dtpm-resilience-{}-{label}-{unique}.ckpt",
        std::process::id()
    ))
}

/// Records every delivery in arrival order (for later replay).
#[derive(Default)]
struct RecordingSink {
    events: Vec<(usize, Result<RunReport, SimError>)>,
}

impl ResultSink for RecordingSink {
    fn accept(&mut self, index: usize, outcome: Result<RunReport, SimError>) {
        self.events.push((index, outcome));
    }
}

/// Swallows everything (the resumed runs fold through their checkpoint).
struct NullSink;

impl ResultSink for NullSink {
    fn accept(&mut self, _index: usize, _outcome: Result<RunReport, SimError>) {}
}

/// Panics on the first delivery, accepts everything afterwards — the sink
/// half of the poisoning regression test.
#[derive(Default)]
struct PanickySink {
    panicked: bool,
    delivered: Vec<usize>,
}

impl ResultSink for PanickySink {
    fn accept(&mut self, index: usize, _outcome: Result<RunReport, SimError>) {
        if !self.panicked {
            self.panicked = true;
            panic!("sink rejects its first delivery");
        }
        self.delivered.push(index);
    }
}

/// Runs the small campaign once (single worker, scalar lanes — exactly
/// deterministic) and returns its deliveries in arrival order.
fn recorded_small_campaign() -> &'static [(usize, Result<RunReport, SimError>)] {
    static EVENTS: std::sync::OnceLock<Vec<(usize, Result<RunReport, SimError>)>> =
        std::sync::OnceLock::new();
    EVENTS.get_or_init(|| {
        let spec = small_spec();
        let mut sink = RecordingSink::default();
        spec.runner()
            .with_threads(1)
            .with_lanes(1)
            .with_recording(TracePolicy::SummaryOnly)
            .run_into(calibration(), &mut sink);
        assert_eq!(sink.events.len(), spec.cells(), "every cell delivers once");
        sink.events
    })
}

proptest! {
    /// Kill-and-resume bit-identity: replay the first `k` deliveries of the
    /// uninterrupted run into a checkpoint, round-trip it through disk,
    /// resume the campaign from it, and compare the final fold against the
    /// uninterrupted fold **by wire encoding** — bit-exact, not just close.
    #[test]
    fn killed_campaign_resumes_to_the_bit_identical_aggregate(k in 0usize..7) {
        let spec = small_spec();
        let events = recorded_small_campaign();
        prop_assert!(k <= events.len());

        // The uninterrupted reference fold.
        let mut reference = MergeSink::new(0..spec.cells());
        for (index, outcome) in events {
            reference.accept(*index, outcome.clone());
        }
        prop_assert!(reference.is_complete());

        // Kill after k completed cells: only the first k deliveries made it
        // into the checkpoint before the process died.
        let mut checkpoint = CampaignCheckpoint::new(spec.fingerprint(), spec.cells());
        for (index, outcome) in &events[..k] {
            checkpoint.record(*index, outcome.clone());
        }
        let path = scratch_path("resume");
        checkpoint.write_atomic(&path).expect("checkpoint write");

        // Resume from what is on disk.
        let loaded = CampaignCheckpoint::load(&path).expect("checkpoint load");
        prop_assert_eq!(loaded.completed(), k);
        let mut sink = CheckpointSink::resume(loaded.clone(), &path, 2, NullSink);
        spec.runner()
            .with_threads(1)
            .with_lanes(1)
            .with_recording(TracePolicy::SummaryOnly)
            .resume_from(&loaded, calibration(), &mut sink)
            .expect("resume must accept its own checkpoint");
        let (resumed, _, write) = sink.finish();
        write.expect("final checkpoint write");

        prop_assert!(resumed.is_complete());
        // Encoding equality is bit-exactness: every float is stored as its
        // bit pattern.
        prop_assert_eq!(resumed.fold().encode(), reference.encode());
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn shard_merge_is_independent_of_shard_arrival_order() {
    // Three contiguous cell ranges, each run on its own into its own fold.
    let spec = small_spec();
    let sinks: Vec<MergeSink> = [0..2, 2..4, 4..6]
        .into_iter()
        .map(|range| {
            let mut sink = MergeSink::new(range.clone());
            spec.runner()
                .with_threads(1)
                .with_lanes(1)
                .with_recording(TracePolicy::SummaryOnly)
                .run_indices_into(&range.collect::<Vec<_>>(), calibration(), &mut sink);
            sink
        })
        .collect();

    let orders: [[usize; 3]; 3] = [[0, 1, 2], [2, 0, 1], [1, 2, 0]];
    let merged: Vec<_> = orders
        .iter()
        .map(|order| {
            MergeSink::merge_all(order.iter().map(|&i| sinks[i].clone()))
                .expect("complete shards merge")
        })
        .collect();
    assert_eq!(merged[0], merged[1], "arrival order must not matter");
    assert_eq!(merged[0], merged[2], "arrival order must not matter");

    // The sharded aggregate matches the whole-campaign fold: counts and
    // extrema exactly, merged moments within the numerical bar.
    let mut whole = MergeSink::new(0..spec.cells());
    spec.runner()
        .with_threads(1)
        .with_lanes(1)
        .with_recording(TracePolicy::SummaryOnly)
        .run_into(calibration(), &mut whole);
    let sequential = whole.aggregate();
    let sharded = &merged[0];
    assert_eq!(sharded.cells, sequential.cells);
    assert_eq!(sharded.completed_runs, sequential.completed_runs);
    assert_eq!(sharded.failed_cells, sequential.failed_cells);
    assert_eq!(sharded.total_intervals, sequential.total_intervals);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    assert!(close(sharded.total_energy_j, sequential.total_energy_j));
    assert_eq!(sharded.peak_temp_c.max(), sequential.peak_temp_c.max());
    assert_eq!(sharded.mean_temp_c.min(), sequential.mean_temp_c.min());
    assert!(close(
        sharded.mean_temp_c.mean(),
        sequential.mean_temp_c.mean()
    ));
    assert!(close(
        sharded.mean_temp_c.variance(),
        sequential.mean_temp_c.variance()
    ));
}

#[test]
fn resume_rejects_a_checkpoint_from_a_different_grid() {
    let spec = small_spec();
    let mut other = small_spec();
    other.campaign_seed ^= 1;
    let foreign = CampaignCheckpoint::new(other.fingerprint(), other.cells());
    let mut sink = NullSink;
    let err = spec
        .runner()
        .resume_from(&foreign, calibration(), &mut sink)
        .expect_err("foreign checkpoints must be rejected");
    assert!(
        matches!(err, SimError::InvalidConfig(msg) if msg.contains("fingerprint")),
        "got {err:?}"
    );
}

/// Field-by-field comparison at the batched-engine equivalence bar
/// (≤ 1e-9 absolute on temperatures and rates, relative on power/energy).
fn assert_summaries_close(observed: &RunSummary, reference: &RunSummary, label: &str) {
    assert_eq!(
        observed.completed, reference.completed,
        "{label}: completed"
    );
    assert_eq!(
        observed.intervals, reference.intervals,
        "{label}: intervals"
    );
    let close_rel = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    assert!(
        close_rel(observed.energy_j, reference.energy_j),
        "{label}: energy {} vs {}",
        observed.energy_j,
        reference.energy_j
    );
    for (name, a, b) in [
        (
            "mean temp",
            observed.stability.mean_temp_c,
            reference.stability.mean_temp_c,
        ),
        (
            "peak temp",
            observed.stability.peak_temp_c,
            reference.stability.peak_temp_c,
        ),
        (
            "intervention rate",
            observed.intervention_rate,
            reference.intervention_rate,
        ),
    ] {
        assert!(
            (a - b).abs() <= 1e-9,
            "{label}: {name} diverged: {a} vs {b}"
        );
    }
}

/// The four sibling configurations used by the containment tests: cell 1
/// carries the injected failure, the rest must be unaffected.
fn sibling_configs() -> Vec<ExperimentConfig> {
    let benchmarks = [
        BenchmarkId::Crc32,
        BenchmarkId::Qsort,
        BenchmarkId::Basicmath,
        BenchmarkId::Templerun,
    ];
    benchmarks
        .iter()
        .enumerate()
        .map(|(i, &benchmark)| {
            let mut config =
                ExperimentConfig::new(ExperimentKind::Dtpm, benchmark).with_seed(90 + i as u64);
            config.max_duration_s = 1.5;
            config.ideal_sensors = true;
            config
        })
        .collect()
}

#[test]
fn a_panicking_cell_is_quarantined_and_its_panel_siblings_are_unaffected() {
    let mut configs = sibling_configs();
    configs[1] = configs[1].clone().with_chaos(ChaosPlan::panic_at(3));

    let mut sink = CollectSink::new(configs.len());
    ScenarioSweep::new(configs.clone())
        .with_threads(1)
        .with_lanes(2)
        .with_recording(TracePolicy::SummaryOnly)
        .run_into(calibration(), &mut sink);
    let reports = sink.into_reports();

    match &reports[1] {
        Err(SimError::Panicked(message)) => {
            assert!(
                message.contains("chaos plan"),
                "panic payload is preserved: {message}"
            );
        }
        other => panic!("chaos cell must be quarantined as Panicked, got {other:?}"),
    }

    // Every sibling matches its solo (scalar, chaos-free) run.
    let solo = sibling_configs();
    for index in [0, 2, 3] {
        let report = reports[index].as_ref().expect("sibling cells succeed");
        let reference = Experiment::new(&solo[index], calibration())
            .expect("solo experiment")
            .run()
            .expect("solo run");
        assert_summaries_close(
            &report.summary,
            &RunSummary::of(&reference),
            &format!("sibling {index}"),
        );
    }
}

#[test]
fn a_deadline_blown_cell_reports_a_structured_deadline_error() {
    let mut configs = sibling_configs();
    configs[1].max_duration_s = 30.0; // would run 300 intervals unchecked

    let mut sink = CollectSink::new(configs.len());
    ScenarioSweep::new(configs.clone())
        .with_threads(1)
        .with_lanes(2)
        .with_recording(TracePolicy::SummaryOnly)
        .with_resilience(ResiliencePolicy::default().with_deadline_intervals(20))
        .run_into(calibration(), &mut sink);
    let reports = sink.into_reports();

    match &reports[1] {
        Err(SimError::Deadline { intervals }) => {
            assert_eq!(*intervals, 20, "retired at the configured deadline");
        }
        other => panic!("runaway cell must be retired as Deadline, got {other:?}"),
    }
    // The short siblings (capped at 15 intervals) sit inside the deadline
    // and are delivered untouched.
    for index in [0, 2, 3] {
        let report = reports[index].as_ref().expect("short cells finish");
        assert!(report.summary.intervals <= 15);
    }
}

#[test]
fn a_transient_panic_is_retried_deterministically_and_heals() {
    let mut configs = sibling_configs();
    configs.truncate(2);
    configs[1] = configs[1]
        .clone()
        .with_chaos(ChaosPlan::panic_at(4).healing_after(1));

    // Without retries the transient fault is a quarantined failure.
    let mut sink = CollectSink::new(configs.len());
    ScenarioSweep::new(configs.clone())
        .with_threads(1)
        .with_recording(TracePolicy::SummaryOnly)
        .run_into(calibration(), &mut sink);
    let reports = sink.into_reports();
    assert!(
        matches!(&reports[1], Err(SimError::Panicked(_))),
        "no retry budget: the fault surfaces"
    );

    // With a retry budget the second, healed attempt completes — and its
    // numbers match a run that never faulted at all.
    let mut sink = CollectSink::new(configs.len());
    ScenarioSweep::new(configs.clone())
        .with_threads(1)
        .with_recording(TracePolicy::SummaryOnly)
        .with_resilience(ResiliencePolicy::default().with_max_retries(2))
        .run_into(calibration(), &mut sink);
    let reports = sink.into_reports();
    let healed = reports[1].as_ref().expect("healed retry completes");

    let clean = sibling_configs()[1].clone();
    let reference = Experiment::new(&clean, calibration())
        .expect("clean experiment")
        .run()
        .expect("clean run");
    assert_summaries_close(&healed.summary, &RunSummary::of(&reference), "healed retry");
}

#[test]
fn a_panicking_sink_does_not_poison_the_sweep() {
    let configs = sibling_configs();
    let expected = configs.len() - 1;
    let mut sink = PanickySink::default();
    ScenarioSweep::new(configs)
        .with_threads(2)
        .with_recording(TracePolicy::SummaryOnly)
        .run_into(calibration(), &mut sink);
    // The first delivery was discarded by the panicking accept; every other
    // slot still arrived, and no worker deadlocked on a poisoned mutex.
    assert_eq!(sink.delivered.len(), expected);
    let mut delivered = sink.delivered.clone();
    delivered.sort_unstable();
    delivered.dedup();
    assert_eq!(
        delivered.len(),
        expected,
        "each surviving slot exactly once"
    );
}

#[test]
fn malformed_fault_plans_are_rejected_at_the_experiment_gate() {
    let plan = FaultPlan::new(7).with_window(FaultWindow {
        channel: SensorChannel::PlatformPower,
        kind: FaultKind::OffsetDrift {
            initial: f64::NAN,
            drift_per_s: 0.0,
        },
        start_s: 0.0,
        end_s: 10.0,
    });
    let config = ExperimentConfig::new(ExperimentKind::Dtpm, BenchmarkId::Crc32).with_faults(plan);
    let err = Experiment::new(&config, calibration()).expect_err("NaN offset must be rejected");
    assert!(matches!(err, SimError::FaultPlan(_)), "got {err:?}");
}
