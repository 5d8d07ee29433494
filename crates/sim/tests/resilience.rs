//! End-to-end campaign resilience: checkpoint/resume bit-identity and
//! cell-level fault containment.
//!
//! The contracts under test:
//!
//! * A campaign killed after any number of completed cells and resumed from
//!   its on-disk checkpoint folds to the **bit-identical** aggregate of the
//!   uninterrupted run — on scalar lanes, and at the runner's default panel
//!   width on one or two threads, where resumed cells land in other lanes,
//!   next to other cells, at other times than in the uninterrupted run.
//! * A cell that panics or blows its deadline is quarantined as a structured
//!   failure; sibling lanes of the same panel report summaries within the
//!   batched-engine equivalence bar (≤ 1e-9) of solo runs.
//! * A cell that panics and heals on retry — re-run on the worker that saw
//!   it fail, in whatever panel lane is free — folds to the bits of a
//!   campaign in which it never faulted, on one or two threads.
//! * A panicking result sink cannot poison the sweep: every other slot is
//!   still delivered.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use platform_sim::{
    Calibration, CalibrationCampaign, CampaignCheckpoint, ChaosPlan, CheckpointSink, Experiment,
    ExperimentConfig, ExperimentKind, FaultKind, FaultPlan, FaultWindow, MergeSink,
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

/// The small campaign with three replicates: 18 cells, more than one
/// default-width lane group, so a one-thread run admits cells into recycled
/// lanes mid-campaign. Hot (40 °C), 3 s cells and modelled sensors make the
/// last bits of a cell's leakage power reach its summary, so a cell whose
/// numerics depended on its admission time would change the fold.
fn wide_spec() -> SweepSpec {
    let mut spec = small_spec()
        .with_replicates(3)
        .with_ambients_c(vec![40.0])
        .with_max_duration_s(3.0);
    spec.ideal_sensors = false;
    spec
}

/// Runs `spec` once on a single worker (`lanes: None` keeps the runner's
/// default width) and returns its deliveries in arrival order.
fn record_campaign(
    spec: &SweepSpec,
    lanes: Option<usize>,
) -> Vec<(usize, Result<RunReport, SimError>)> {
    let mut runner = spec.runner().with_threads(1);
    if let Some(lanes) = lanes {
        runner = runner.with_lanes(lanes);
    }
    let mut sink = RecordingSink::default();
    runner.run_into(calibration(), &mut sink);
    assert_eq!(sink.events.len(), spec.cells(), "every cell delivers once");
    sink.events
}

/// The small campaign's deliveries on scalar lanes.
fn recorded_small_campaign() -> &'static [(usize, Result<RunReport, SimError>)] {
    static EVENTS: std::sync::OnceLock<Vec<(usize, Result<RunReport, SimError>)>> =
        std::sync::OnceLock::new();
    EVENTS.get_or_init(|| record_campaign(&small_spec(), Some(1)))
}

/// The wide campaign's deliveries at the runner's default width.
fn recorded_wide_campaign() -> &'static [(usize, Result<RunReport, SimError>)] {
    static EVENTS: std::sync::OnceLock<Vec<(usize, Result<RunReport, SimError>)>> =
        std::sync::OnceLock::new();
    EVENTS.get_or_init(|| record_campaign(&wide_spec(), None))
}

/// Kill-and-resume bit-identity for one runner shape: replay the first `k`
/// deliveries of the uninterrupted run into a checkpoint, round-trip it
/// through disk, resume the campaign from it on `threads` workers (`lanes:
/// None` keeps the default width), and compare the final fold against the
/// uninterrupted fold **by wire encoding** — bit-exact, not just close.
fn assert_resume_is_bit_identical(
    spec: &SweepSpec,
    events: &[(usize, Result<RunReport, SimError>)],
    k: usize,
    threads: usize,
    lanes: Option<usize>,
) {
    let label = format!("k={k} threads={threads} lanes={lanes:?}");
    assert!(k <= events.len(), "{label}");

    // The uninterrupted reference fold.
    let mut reference = MergeSink::new(0..spec.cells());
    for (index, outcome) in events {
        reference.accept(*index, outcome.clone());
    }
    assert!(reference.is_complete(), "{label}");

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
    assert_eq!(loaded.completed(), k, "{label}");
    let mut sink = CheckpointSink::resume(loaded.clone(), &path, 2, NullSink);
    let mut runner = spec.runner().with_threads(threads);
    if let Some(lanes) = lanes {
        runner = runner.with_lanes(lanes);
    }
    runner
        .resume_from(&loaded, calibration(), &mut sink)
        .expect("resume must accept its own checkpoint");
    let (resumed, _, write) = sink.finish();
    write.expect("final checkpoint write");

    assert!(resumed.is_complete(), "{label}");
    // Encoding equality is bit-exactness: every float is stored as its
    // bit pattern.
    assert_eq!(resumed.fold().encode(), reference.encode(), "{label}");
    std::fs::remove_file(&path).ok();
}

proptest! {
    #[test]
    fn killed_campaign_resumes_to_the_bit_identical_aggregate(k in 0usize..7) {
        assert_resume_is_bit_identical(&small_spec(), recorded_small_campaign(), k, 1, Some(1));

        // The default runner drives panel engines; the resumed cells run in
        // other lanes, beside other cells and from other admission times
        // than in the uninterrupted one-thread run.
        let wide = wide_spec();
        prop_assert_eq!(wide.runner().lanes(), numeric::LANE_CHUNK);
        for threads in [1, 2] {
            assert_resume_is_bit_identical(&wide, recorded_wide_campaign(), 3 * k, threads, None);
        }
    }
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

    let reports = ScenarioSweep::new(configs.clone())
        .with_threads(1)
        .with_lanes(2)
        .with_recording(TracePolicy::SummaryOnly)
        .run(calibration());

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
            &reference.summary,
            &format!("sibling {index}"),
        );
    }
}

#[test]
fn a_deadline_blown_cell_reports_a_structured_deadline_error() {
    let mut configs = sibling_configs();
    configs[1].max_duration_s = 30.0; // would run 300 intervals unchecked

    let reports = ScenarioSweep::new(configs.clone())
        .with_threads(1)
        .with_lanes(2)
        .with_recording(TracePolicy::SummaryOnly)
        .with_resilience(ResiliencePolicy::default().with_deadline_intervals(20))
        .run(calibration());

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
    let reports = ScenarioSweep::new(configs.clone())
        .with_threads(1)
        .with_recording(TracePolicy::SummaryOnly)
        .run(calibration());
    assert!(
        matches!(&reports[1], Err(SimError::Panicked(_))),
        "no retry budget: the fault surfaces"
    );

    // With a retry budget the second, healed attempt completes — and its
    // numbers match a run that never faulted at all.
    let reports = ScenarioSweep::new(configs.clone())
        .with_threads(1)
        .with_recording(TracePolicy::SummaryOnly)
        .with_resilience(ResiliencePolicy::default().with_max_retries(2))
        .run(calibration());
    let healed = reports[1].as_ref().expect("healed retry completes");

    let clean = sibling_configs()[1].clone();
    let reference = Experiment::new(&clean, calibration())
        .expect("clean experiment")
        .run()
        .expect("clean run");
    assert_summaries_close(&healed.summary, &reference.summary, "healed retry");
}

/// 36 cells at the runner's default panel width (2 kinds × 3 benchmarks ×
/// 2 ambients × 3 replicates, 2 s cells, modelled sensors): more cells
/// than one panel, so retried cells re-enter recycled lanes mid-campaign.
fn panel_spec() -> SweepSpec {
    let mut spec = small_spec()
        .with_ambients_c(vec![28.0, 40.0])
        .with_replicates(3)
        .with_max_duration_s(2.0);
    spec.ideal_sensors = false;
    spec
}

/// Folds `spec` on the default runner with `threads` workers and a retry
/// budget of `retries`.
fn panel_fold(spec: &SweepSpec, threads: usize, retries: u32) -> MergeSink {
    let mut fold = MergeSink::new(0..spec.cells());
    spec.runner()
        .with_threads(threads)
        .with_resilience(ResiliencePolicy::default().with_max_retries(retries))
        .run_into(calibration(), &mut fold);
    assert!(fold.is_complete());
    fold
}

#[test]
fn healed_retries_at_panel_width_fold_to_the_bits_of_a_clean_run() {
    let clean = panel_spec();
    assert_eq!(clean.cells(), 36);
    assert_eq!(clean.runner().lanes(), 8);
    let chaotic = panel_spec()
        .with_cell_chaos(5, ChaosPlan::panic_at(4).healing_after(1))
        .with_cell_chaos(17, ChaosPlan::panic_at(0).healing_after(2))
        .with_cell_chaos(30, ChaosPlan::panic_at(11).healing_after(1));
    let reference = panel_fold(&clean, 1, 0).encode();
    for threads in [1, 2] {
        assert_eq!(
            panel_fold(&chaotic, threads, 2).encode(),
            reference,
            "threads={threads}: a healed retry must fold like a cell that never faulted"
        );
    }
    // One retry heals cells 5 and 30; cell 17 needs two and is quarantined.
    let short_budget = panel_fold(&chaotic, 2, 1);
    assert_eq!(short_budget.aggregate().failed_cells, 1);
    assert_eq!(short_budget.failures()[0].index, 17);
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

#[test]
fn non_finite_ambients_and_plant_parameters_are_rejected_at_the_experiment_gate() {
    let base = ExperimentConfig::new(ExperimentKind::Dtpm, BenchmarkId::Basicmath);
    let mut nan_ambient = base.clone();
    nan_ambient.ambient_c = f64::NAN;
    let mut infinite_ambient = base.clone();
    infinite_ambient.ambient_c = f64::INFINITY;
    let mut nan_start = base;
    nan_start.plant.initial_temp_c = f64::NAN;
    for config in [nan_ambient, infinite_ambient, nan_start] {
        let err = Experiment::new(&config, calibration()).expect_err("non-finite input");
        assert!(
            matches!(err, SimError::InvalidConfig(msg) if msg.contains("finite")),
            "got {err:?}"
        );
    }

    // In a campaign the NaN-ambient cell is one contained failure, not a NaN
    // folded into the aggregate.
    let mut spec = SweepSpec::new(vec![ExperimentKind::Dtpm], vec![BenchmarkId::Basicmath])
        .with_ambients_c(vec![28.0, f64::NAN]);
    spec.max_duration_s = 5.0;
    let mut sink = MergeSink::new(0..spec.cells());
    spec.runner().run_into(calibration(), &mut sink);
    let aggregate = sink.aggregate();
    assert_eq!(aggregate.failed_cells, 1);
    assert!(aggregate.total_energy_j.is_finite() && aggregate.total_energy_j > 0.0);
    assert!(aggregate.energy_j.mean().is_finite());
}
