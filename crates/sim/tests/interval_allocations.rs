//! Steady-state control intervals allocate nothing, and admitting a cell
//! costs a one-lane engine no more than a panel engine.
//!
//! Once a cell is admitted, each of its intervals decides, steps the plant
//! and absorbs without touching the heap: the platform state is a `Copy`
//! value, and every per-interval buffer is owned by the executor, the
//! engine or the control loop and reused. Admission and retirement may
//! allocate (a control loop, its report); the intervals in between may not.
//! The engine's side of an admission re-initialises a lane in place on
//! every engine, so it allocates nothing either.
//!
//! The allocator below counts allocations per thread, because the test
//! harness runs tests on parallel threads and a one-thread sweep runs on the
//! calling thread. The steady-state tests run one grid at a duration cap and
//! at twice that cap, and assert that the extra intervals add fewer than one
//! allocation per cell. The admission test runs the grid at one and at two
//! replicates, so that one-time engine set-up cancels.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use platform_sim::{
    Calibration, CalibrationCampaign, CollectSink, ExperimentKind, FaultKind, FaultPlan,
    FaultWindow, RunSummary, SensorChannel, SweepSpec,
};
use soc_model::PowerDomain;
use workload::BenchmarkId;

thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct Counting;

fn count_one() {
    // A const-initialised `Cell` has no destructor, so this never allocates
    // and stays readable while the thread exits.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; the counter only
// observes that a call happened.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The shorter duration cap, seconds: 40 control intervals, by which every
/// faulted cell has recovered and its policy is restored.
const SHORT_S: f64 = 4.0;

fn calibration() -> &'static Calibration {
    static CALIBRATION: std::sync::OnceLock<Calibration> = std::sync::OnceLock::new();
    CALIBRATION.get_or_init(|| {
        CalibrationCampaign {
            prbs_duration_s: 120.0,
            run_furnace: false,
            ..CalibrationCampaign::default()
        }
        .run(3)
        .expect("calibration campaign must succeed")
    })
}

/// Sensor faults on four channels whose windows all close by 1.2 s, so the
/// faulted cells inject, screen, substitute, degrade and recover inside the
/// shorter cap and run healthy after it.
fn early_faults() -> FaultPlan {
    FaultPlan::new(0xA110C)
        .with_window(FaultWindow {
            channel: SensorChannel::CoreTemp(1),
            kind: FaultKind::Dropped,
            start_s: 0.3,
            end_s: 0.8,
        })
        .with_window(FaultWindow {
            channel: SensorChannel::DomainPower(PowerDomain::BigCpu),
            kind: FaultKind::Spike {
                magnitude: 4.0,
                period_intervals: 3,
            },
            start_s: 0.2,
            end_s: 1.0,
        })
        .with_window(FaultWindow {
            channel: SensorChannel::CoreTemp(2),
            kind: FaultKind::StuckAt,
            start_s: 0.5,
            end_s: 1.2,
        })
        .with_window(FaultWindow {
            channel: SensorChannel::PlatformPower,
            kind: FaultKind::Delayed { intervals: 2 },
            start_s: 0.4,
            end_s: 1.0,
        })
}

/// The paper's three kinds × a CPU-bound and a GPU-bound benchmark × two
/// ambients × {healthy, faulted}: 24 cells, none of which finishes its
/// benchmark within `duration_s`. Every cell starts at 64 °C, above the
/// fan's, the throttler's and the DTPM policy's thresholds, so the fan, the
/// throttler and the policy act in the counted intervals too.
fn grid(duration_s: f64) -> SweepSpec {
    let mut spec = SweepSpec::new(
        vec![
            ExperimentKind::DefaultWithFan,
            ExperimentKind::Reactive,
            ExperimentKind::Dtpm,
        ],
        vec![BenchmarkId::MatrixMult, BenchmarkId::AngryBirds],
    )
    .with_ambients_c(vec![26.0, 34.0])
    .with_fault_plans(vec![None, Some(early_faults())])
    .with_max_duration_s(duration_s);
    spec.plant.initial_temp_c = 64.0;
    spec
}

/// Runs `spec` on this thread with `lanes` engine lanes, and returns the
/// allocations the run made and the cells' summaries.
fn run(lanes: usize, spec: &SweepSpec) -> (u64, Vec<RunSummary>) {
    let runner = spec.runner().with_threads(1).with_lanes(lanes);
    let mut sink = CollectSink::new(spec.cells());
    let before = ALLOCATIONS.with(Cell::get);
    runner.run_into(calibration(), &mut sink);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let summaries = sink
        .into_reports()
        .into_iter()
        .map(|report| report.expect("every cell runs").summary)
        .collect();
    (allocations, summaries)
}

/// Asserts that doubling the duration cap adds fewer than one allocation per
/// cell on engines of `lanes` lanes.
fn assert_steady_state_allocates_nothing(lanes: usize) {
    // One-time set-up (lazily built caches, kernel dispatch) lands here.
    run(lanes, &grid(SHORT_S));
    let (short, short_cells) = run(lanes, &grid(SHORT_S));
    let (long, long_cells) = run(lanes, &grid(2.0 * SHORT_S));
    // The extra intervals are steady state: every cell ran to both caps,
    // logged its last incident before the shorter one, and its policy kept
    // acting.
    for (a, b) in short_cells.iter().zip(&long_cells) {
        let cell = format!("{} {:?}", b.config.kind, b.config.benchmark);
        assert!(!b.completed, "{cell} finished its benchmark");
        assert_eq!(b.intervals, 2 * a.intervals, "{cell} ran to both caps");
        assert_eq!(b.incidents, a.incidents, "{cell} logged an incident late");
        if b.config.kind != ExperimentKind::DefaultWithFan {
            assert!(b.intervention_rate > 0.5, "{cell} left the proposals alone");
        }
    }
    let cells = short_cells.len() as u64;
    let extra_intervals = long_cells.iter().map(|c| c.intervals).sum::<usize>()
        - short_cells.iter().map(|c| c.intervals).sum::<usize>();
    assert!(
        long < short + cells,
        "{lanes} lanes: {extra_intervals} extra lane-intervals over {cells} cells made {} \
         allocations ({short} at the shorter cap, {long} at the longer)",
        long.saturating_sub(short)
    );
}

#[test]
fn steady_state_intervals_allocate_nothing_on_eight_lanes() {
    assert_steady_state_allocates_nothing(8);
}

#[test]
fn steady_state_intervals_allocate_nothing_on_one_lane() {
    assert_steady_state_allocates_nothing(1);
}

/// The allocations that the grid's second replicate adds to a sweep on
/// engines of `lanes` lanes, and how many cells it adds.
fn second_replicate_allocations(lanes: usize) -> (u64, u64) {
    let one = grid(SHORT_S);
    let two = grid(SHORT_S).with_replicates(2);
    // One-time set-up (lazily built caches, kernel dispatch) lands here.
    run(lanes, &one);
    let (single, _) = run(lanes, &one);
    let (double, _) = run(lanes, &two);
    (double - single, (two.cells() - one.cells()) as u64)
}

#[test]
fn an_admitted_cell_costs_one_lane_no_more_allocations_than_eight() {
    let (one_lane, cells) = second_replicate_allocations(1);
    let (eight_lanes, _) = second_replicate_allocations(8);
    // Per extra cell: one lane at most one allocation above eight lanes.
    assert!(
        one_lane <= eight_lanes + cells,
        "{cells} extra cells made {one_lane} allocations on one lane against \
         {eight_lanes} on eight"
    );
}
