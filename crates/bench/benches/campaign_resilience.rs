//! Microbench of the wall-clock overhead of checkpointed campaigns.
//!
//! A 200-cell campaign (kinds × benchmarks × ambients × DTPM variants ×
//! replicates), which streams summaries as every campaign does, is run
//! through two sinks:
//!
//! * **plain** — a bare [`MergeSink`]: the in-memory canonical fold, no
//!   persistence.
//! * **checkpointed** — a [`CheckpointSink`] around the same fold, writing
//!   an atomic on-disk snapshot every [`CHECKPOINT_EVERY`] completed cells
//!   (temp-file + sync + rename, the crash-safe path a long campaign uses).
//!
//! The claim: resilience is close to free. The checkpointed arm's wall
//! clock stays within [`OVERHEAD_CEILING`] of the plain arm's, and both arms
//! fold to the **bit-identical** aggregate (compared by wire encoding, where
//! every float is a bit pattern). Results land in
//! `BENCH_campaign_resilience.json`.

use bench::microbench::{Bound, Microbench, Timer};
use platform_sim::{
    Calibration, CalibrationCampaign, CheckpointSink, DtpmVariant, ExperimentKind, MergeSink,
    SweepSpec,
};
use workload::BenchmarkId;

/// Lanes per worker engine (batch width) for both arms.
const LANES: usize = 8;
/// Simulated duration cap per cell in the full run, seconds. Long enough
/// that cells carry a realistic amount of simulation work: the checkpoint
/// bar is about amortised cost, and a campaign of trivially short cells
/// would measure little but the fsync floor.
const FULL_DURATION_S: f64 = 60.0;
/// Checkpoint cadence, completed cells per snapshot.
const CHECKPOINT_EVERY: usize = 25;
/// Pairs timed in a full run.
const PAIRS: usize = 11;
/// Acceptance ceiling: checkpointed wall over plain wall.
const OVERHEAD_CEILING: f64 = 1.05;

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

fn run_plain(spec: &SweepSpec, calibration: &Calibration, timer: &mut Timer) -> MergeSink {
    let mut sink = MergeSink::new(0..spec.cells());
    timer.time(|| {
        spec.runner()
            .with_threads(1)
            .with_lanes(LANES)
            .run_into(calibration, &mut sink)
    });
    sink
}

/// The checkpointed arm; the final snapshot write after the campaign is
/// not timed.
fn run_checkpointed(
    spec: &SweepSpec,
    calibration: &Calibration,
    path: &std::path::Path,
    timer: &mut Timer,
) -> MergeSink {
    let mut sink =
        CheckpointSink::new(spec.fingerprint(), spec.cells(), path, CHECKPOINT_EVERY, ());
    timer.time(|| {
        spec.runner()
            .with_threads(1)
            .with_lanes(LANES)
            .run_into(calibration, &mut sink)
    });
    let (checkpoint, (), write) = sink.finish();
    write.expect("final checkpoint write must succeed");
    assert!(checkpoint.is_complete(), "every cell must be recorded");
    checkpoint.into_fold()
}

fn main() {
    let mut bench = Microbench::from_args("campaign_resilience", PAIRS);
    let (spec, duration_s) = campaign(bench.test_mode());
    let cells = spec.cells();
    bench.config("cells", cells);
    bench.config("lanes", LANES);
    bench.config("max_duration_s", duration_s);
    bench.config("checkpoint_every", CHECKPOINT_EVERY);
    bench.config("snapshots", cells.div_ceil(CHECKPOINT_EVERY));
    let path = std::env::temp_dir().join(format!(
        "dtpm-bench-campaign-resilience-{}.ckpt",
        std::process::id()
    ));

    let calibration = CalibrationCampaign {
        prbs_duration_s: 120.0,
        run_furnace: false,
        ..CalibrationCampaign::default()
    }
    .run(41)
    .expect("calibration campaign must succeed");

    let mut ckpt_fold = None;
    let mut plain_fold = None;
    bench.paired(
        "overhead",
        Some(Bound::Ceiling(OVERHEAD_CEILING)),
        ["checkpointed", "plain"],
        |t| ckpt_fold = Some(run_checkpointed(&spec, &calibration, &path, t)),
        |t| plain_fold = Some(run_plain(&spec, &calibration, t)),
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(path.with_extension("ckpt.tmp")).ok();

    // Resilience must be invisible in the numbers: the checkpointed fold is
    // bit-identical to the plain one (the wire encoding renders every float
    // by bit pattern).
    let plain_fold = plain_fold.expect("the plain arm ran");
    let ckpt_fold = ckpt_fold.expect("the checkpointed arm ran");
    assert!(plain_fold.is_complete() && ckpt_fold.is_complete());
    assert_eq!(
        plain_fold.encode(),
        ckpt_fold.encode(),
        "checkpointed fold diverged from the plain fold"
    );
    assert_eq!(plain_fold.aggregate().cells, cells);
    bench.finish();
}
