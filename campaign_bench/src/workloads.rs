//! The campaign workloads and the two grids they run.
//!
//! See `README.md` in this directory for why each workload exists and which
//! layer it stresses.

use platform_sim::{
    CalibrationCampaign, ExperimentKind, FaultKind, FaultPlan, FaultWindow, SensorChannel,
    SweepSpec,
};
use soc_model::PowerDomain;
use workload::BenchmarkId;

/// The thermal-management configurations of Fig. 6.9: the stock baseline
/// with its fan, the reactive heuristic, and the proposed DTPM policy.
pub const KINDS: [ExperimentKind; 3] = [
    ExperimentKind::DefaultWithFan,
    ExperimentKind::Reactive,
    ExperimentKind::Dtpm,
];

/// Ambient temperatures of the paper grid, °C.
pub const PAPER_AMBIENTS_C: [f64; 4] = [22.0, 26.0, 30.0, 34.0];
/// Replicates per paper-grid point. Fewer than a panel's lane count, so
/// every lane group mixes ambients.
pub const PAPER_REPLICATES: usize = 4;

/// Ambient temperatures of the short-cell grid, °C.
pub const SHORT_AMBIENTS_C: [f64; 2] = [25.0, 32.0];
/// Replicates per short-cell grid point. More than a panel's lane count,
/// so consecutive cells share an ambient.
pub const SHORT_REPLICATES: usize = 64;
/// Duration cap of a short cell, seconds (15 control intervals).
pub const SHORT_DURATION_S: f64 = 1.5;

/// Checkpoint cadence, in delivered cells, of the in-process comparison fold
/// that `short_cells_2workers` checks its workers against. Every snapshot is
/// an fsync'd write under the sweep's sink lock, and fsync latency on a
/// shared disk swings from 0.4 ms to over 10 ms; 13 writes per campaign keep
/// the write path measured without letting the disk set the figure.
pub const CHECKPOINT_EVERY: usize = 1024;

/// Compute threads of that comparison fold. A short cell is a few dozen
/// microseconds of work, so two sweep threads meet at the shared cell queue
/// and sink lock constantly; one thread keeps its spans free of that
/// contention.
pub const CHECKPOINT_THREADS: usize = 1;

/// Worker processes of `short_cells_2workers`.
pub const WORKERS: usize = 2;

/// One benchmark workload: a grid plus the path it runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper grid, in process, into a `MergeSink`.
    PaperGrid,
    /// The short-cell grid through the coordinator and two worker processes.
    ShortCells2Workers,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::PaperGrid, Workload::ShortCells2Workers];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::ShortCells2Workers => "short_cells_2workers",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The grid the workload runs.
    pub fn grid(self) -> Grid {
        match self {
            Workload::PaperGrid => Grid::Paper,
            Workload::ShortCells2Workers => Grid::Short,
        }
    }
}

/// A campaign grid, parameterised by the workload seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// 3 kinds × 17 benchmarks × 4 ambients × 4 replicates, full-length cells.
    Paper,
    /// 3 kinds × 17 benchmarks × 2 ambients × {healthy, faulted} × 64
    /// replicates, 1.5 s cells.
    Short,
}

impl Grid {
    /// The grid's name in the pinned reference table.
    pub fn name(self) -> &'static str {
        match self {
            Grid::Paper => "paper",
            Grid::Short => "short",
        }
    }

    /// Parses a reference-table grid name.
    pub fn parse(name: &str) -> Option<Grid> {
        [Grid::Paper, Grid::Short]
            .into_iter()
            .find(|g| g.name() == name)
    }

    /// The grid's campaign for `seed` (the campaign seed).
    pub fn spec(self, seed: u64) -> SweepSpec {
        let base =
            SweepSpec::new(KINDS.to_vec(), BenchmarkId::all().collect()).with_campaign_seed(seed);
        match self {
            Grid::Paper => base
                .with_ambients_c(PAPER_AMBIENTS_C.to_vec())
                .with_replicates(PAPER_REPLICATES),
            Grid::Short => base
                .with_ambients_c(SHORT_AMBIENTS_C.to_vec())
                .with_fault_plans(vec![None, Some(fault_plan(seed))])
                .with_replicates(SHORT_REPLICATES)
                .with_max_duration_s(SHORT_DURATION_S),
        }
    }
}

/// The calibration recipe every workload characterises the platform with
/// (the library default: furnace sweep plus 700 s PRBS per domain).
pub fn calibration_recipe() -> CalibrationCampaign {
    CalibrationCampaign::default()
}

/// The faulted half of the short-cell grid: every window opens inside the
/// 1.5 s cap, so each faulted cell injects, screens and substitutes.
pub fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 0xFA17_5EED)
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
            end_s: f64::INFINITY,
        })
        .with_window(FaultWindow {
            channel: SensorChannel::CoreTemp(2),
            kind: FaultKind::StuckAt,
            start_s: 0.5,
            end_s: f64::INFINITY,
        })
        .with_window(FaultWindow {
            channel: SensorChannel::PlatformPower,
            kind: FaultKind::Delayed { intervals: 2 },
            start_s: 0.4,
            end_s: f64::INFINITY,
        })
}
