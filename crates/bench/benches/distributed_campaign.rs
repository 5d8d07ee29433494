//! Microbench of distributed campaign execution.
//!
//! Two claims, each a paired ratio:
//!
//! * **Straggler-proofing** (floor ≥ [`SPEEDUP_FLOOR`]): micro-shard
//!   leasing versus a static split when one of two workers is a
//!   straggler. A static split is the coordinator with one lease of
//!   `cells / workers` per worker and re-leasing off (a lease deadline no
//!   stall reaches). The grid is ragged twice over — DTPM cells cost more
//!   wall time per simulated second than Reactive ones (kind-major order
//!   puts all the expensive cells in the first half-grid lease), and one
//!   DTPM cell panics late and is retried under the resilience policy —
//!   and on top of that worker 0 stalls for [`STRAGGLER_STALL`] before its
//!   first delivery. Under a static split the stalled worker's whole half
//!   convoys behind the stall; under leasing the coordinator re-leases the
//!   unreported cells of the silent worker's micro-shard after
//!   [`LEASE_TIMEOUT`] and the healthy
//!   worker absorbs it, so the damage is bounded by the timeout instead of
//!   the stall. Stalls sleep rather than burn CPU, so the gap measures the
//!   scheduling difference honestly on any core count.
//! * **Dispatch overhead** (ceiling ≤ [`OVERHEAD_CEILING`]): coordinator +
//!   one healthy local worker (binary frames over an in-process pipe; both
//!   half-grid leases queued at the worker at once and run by its session's
//!   one sweep; outcome frames of up to eight cells) versus the plain
//!   in-process [`platform_sim::CampaignRunner`] at the same thread count
//!   on the same grid.
//!
//! Every coordinator arm must fold the **bit-identical** aggregate of the
//! in-process run (compared by encoding, where every float is a bit
//! pattern) — the tax and the speed-up are both pure wall clock. The
//! coordinator's one calibration and the Hello that ships it happen during
//! the untimed handshake, exactly as a long campaign would amortise them.
//! Results land in `BENCH_distributed_campaign.json`.

use std::time::Duration;

use bench::microbench::{Bound, Microbench, Timer};
use platform_sim::distributed::{serve, serve_with, MemoryTransport, Transport, WorkerChaos};
use platform_sim::{
    Calibration, CalibrationCampaign, ChaosPlan, Coordinator, DtpmVariant, ExperimentKind,
    MergeSink, ResiliencePolicy, SweepSpec,
};
use workload::BenchmarkId;

/// Simulated duration cap per cell, seconds (full run). Long enough that
/// per-cell compute dominates per-lease latency.
const FULL_DURATION_S: f64 = 300.0;
/// Workers (and static half-grid leases) in the straggler arm.
const WORKERS: usize = 2;
/// Cells per micro-shard lease.
const LEASE_CELLS: usize = 2;
/// How long the straggling worker goes silent.
const STRAGGLER_STALL: Duration = Duration::from_millis(400);
/// Lease deadline in the straggler arm (a lease whose worker sends no
/// frame this long is released): the bound leasing puts on the stall's
/// damage.
const LEASE_TIMEOUT: Duration = Duration::from_millis(100);
/// The static split's lease deadline: longer than any run, so nothing is
/// ever re-leased.
const NO_RELEASE: Duration = Duration::from_secs(3600);
/// Threads per side in the overhead arm.
const OVERHEAD_THREADS: usize = 2;
/// Lease size in the overhead arm: half the grid per lease, so the tax
/// measured is the frame transport and the one lease boundary, which the
/// worker's session sweep crosses without a drain or a round trip, not
/// micro-shard scheduling (arm (a) covers that).
const OVERHEAD_LEASE_CELLS: usize = 12;
/// Retry budget covering the injected panicking cell.
const MAX_RETRIES: u32 = 2;
/// Pairs timed per ratio in a full run.
const PAIRS: usize = 11;
/// Acceptance floor: static-split wall over leased wall with a straggler.
const SPEEDUP_FLOOR: f64 = 1.3;
/// Acceptance ceiling: distributed wall over in-process wall, equal threads.
const OVERHEAD_CEILING: f64 = 1.15;

/// The ragged grid: kind-major order puts all DTPM cells (a predictive
/// optimisation every control interval — expensive) in the first half and
/// all Reactive cells (a threshold check — cheap) in the second, so a
/// static two-way split hands worker 0 all the expensive cells. One DTPM
/// cell panics late in its first attempt and heals on retry, so its true
/// cost is roughly doubled in a way no static partitioner can predict. The
/// same spec (chaos plan included — it travels in the spec codec) runs on
/// every arm; only the topology differs.
fn campaign(test_mode: bool) -> SweepSpec {
    let (benchmarks, ambients, replicates, duration_s, panic_at) = if test_mode {
        (vec![BenchmarkId::Crc32], vec![28.0], 2, 1.0, 3)
    } else {
        (
            vec![
                BenchmarkId::Templerun,
                BenchmarkId::Crc32,
                BenchmarkId::Qsort,
            ],
            vec![26.0, 32.0],
            2,
            FULL_DURATION_S,
            // Late enough to waste most of a first attempt, early enough
            // that even the shortest DTPM cell (~865 intervals) reaches it.
            700,
        )
    };
    SweepSpec::new(
        vec![ExperimentKind::Dtpm, ExperimentKind::Reactive],
        benchmarks,
    )
    .with_ambients_c(ambients)
    .with_dtpm_variants(vec![DtpmVariant {
        horizon_steps: 80,
        constraint_c: 60.0,
    }])
    .with_replicates(replicates)
    .with_campaign_seed(0xD157_CA4D)
    .with_max_duration_s(duration_s)
    .with_ideal_sensors(true)
    .with_cell_chaos(
        if test_mode { 1 } else { 4 },
        ChaosPlan::panic_at(panic_at).healing_after(1),
    )
}

fn resilience() -> ResiliencePolicy {
    ResiliencePolicy::default().with_max_retries(MAX_RETRIES)
}

/// The calibration recipe both sides share: the coordinator runs it once
/// and ships the models to its workers, the in-process arms run it
/// directly.
fn calibration_campaign() -> CalibrationCampaign {
    CalibrationCampaign {
        prbs_duration_s: 120.0,
        run_furnace: false,
        ..CalibrationCampaign::default()
    }
}

const CALIBRATION_SEED: u64 = 41;

/// Static sharding with a straggler: one `cells / WORKERS` lease per
/// worker and no re-leasing. Worker 0 takes the first half and stalls; a
/// statically assigned shard has nowhere else to go, so the campaign eats
/// the whole delay.
fn run_static_split(spec: &SweepSpec, chaos: WorkerChaos, timer: &mut Timer) -> MergeSink {
    let half = spec.cells().div_ceil(WORKERS);
    run_leased(spec, WORKERS, 1, half, NO_RELEASE, chaos, timer)
}

/// Leased execution over in-process worker threads speaking the real
/// binary protocol over memory pipes; worker 0 gets `chaos` (the straggler
/// arm stalls it). The handshake (including the coordinator's
/// calibration) is untimed; the timer covers leasing through completion.
fn run_leased(
    spec: &SweepSpec,
    workers: usize,
    threads_per_worker: usize,
    lease_cells: usize,
    lease_timeout: Duration,
    chaos: WorkerChaos,
    timer: &mut Timer,
) -> MergeSink {
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut serving = Vec::new();
    for which in 0..workers {
        let (coordinator_end, worker_end) = MemoryTransport::pair();
        transports.push(Box::new(coordinator_end));
        serving.push(std::thread::spawn(move || {
            if which == 0 {
                serve_with(Box::new(worker_end), chaos)
            } else {
                serve(Box::new(worker_end))
            }
        }));
    }
    let pool = Coordinator::new(spec.clone())
        .with_calibration(calibration_campaign(), CALIBRATION_SEED)
        .with_lease_cells(lease_cells)
        .with_lease_timeout(lease_timeout)
        .with_worker_threads(threads_per_worker)
        .with_resilience(resilience())
        .connect(transports)
        .expect("handshake must succeed");
    let report = timer.time(|| pool.run().expect("campaign must complete"));
    for worker in serving {
        worker
            .join()
            .expect("worker thread must not panic")
            .expect("worker must exit cleanly");
    }
    report.into_fold()
}

/// Plain in-process run at the overhead arm's thread count.
fn run_in_process(spec: &SweepSpec, calibration: &Calibration, timer: &mut Timer) -> MergeSink {
    let mut sink = MergeSink::new(0..spec.cells());
    timer.time(|| {
        spec.runner()
            .with_threads(OVERHEAD_THREADS)
            .with_resilience(resilience())
            .run_into(calibration, &mut sink)
    });
    sink
}

/// The injected chaos panics are caught and retried by the resilience
/// machinery; with `RUST_BACKTRACE` set their default-hook backtrace
/// symbolisation is slow enough to pollute the timings, so silence exactly
/// those panics and leave every other one loud.
fn silence_chaos_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        if !message.contains("chaos plan") {
            default_hook(info);
        }
    }));
}

fn main() {
    let mut bench = Microbench::from_args("distributed_campaign", PAIRS);
    let test_mode = bench.test_mode();
    silence_chaos_panics();
    let spec = campaign(test_mode);
    let cells = spec.cells();
    let stall = if test_mode {
        Duration::from_millis(60)
    } else {
        STRAGGLER_STALL
    };
    let timeout = if test_mode {
        Duration::from_millis(20)
    } else {
        LEASE_TIMEOUT
    };
    let straggler = WorkerChaos {
        stall_after_cells: Some(0),
        stall_for: stall,
        ..WorkerChaos::default()
    };
    bench.config("cells", cells);
    bench.config(
        "max_duration_s",
        if test_mode { 1.0 } else { FULL_DURATION_S },
    );
    bench.config("workers", WORKERS);
    bench.config("lease_cells", LEASE_CELLS);
    bench.config("straggler_stall_ms", stall.as_secs_f64() * 1e3);
    bench.config("lease_timeout_ms", timeout.as_secs_f64() * 1e3);
    bench.config("overhead_threads", OVERHEAD_THREADS);
    bench.config("overhead_lease_cells", OVERHEAD_LEASE_CELLS);

    let calibration = calibration_campaign()
        .run(CALIBRATION_SEED)
        .expect("calibration campaign must succeed");

    let mut static_fold = None;
    let mut leased_fold = None;
    bench.paired(
        "lease_speedup",
        Some(Bound::Floor(SPEEDUP_FLOOR)),
        ["static_split", "leased"],
        |t| static_fold = Some(run_static_split(&spec, straggler, t)),
        |t| {
            leased_fold = Some(run_leased(
                &spec,
                WORKERS,
                1,
                LEASE_CELLS,
                timeout,
                straggler,
                t,
            ))
        },
    );

    // Overhead arm: one healthy worker at OVERHEAD_THREADS vs in-process at
    // the same thread count.
    let mut dist_fold = None;
    let mut inproc_fold = None;
    bench.paired(
        "dispatch_overhead",
        Some(Bound::Ceiling(OVERHEAD_CEILING)),
        ["distributed", "in_process"],
        |t| {
            dist_fold = Some(run_leased(
                &spec,
                1,
                OVERHEAD_THREADS,
                OVERHEAD_LEASE_CELLS,
                Duration::from_secs(120),
                WorkerChaos::default(),
                t,
            ))
        },
        |t| inproc_fold = Some(run_in_process(&spec, &calibration, t)),
    );

    // Every coordinator arm folds in canonical order and must reproduce
    // the in-process bits exactly (every float compared as a bit pattern
    // via the encoding) — stalls, re-leases and deduped duplicates
    // included.
    let inproc_fold = inproc_fold.expect("the in-process arm ran");
    assert!(inproc_fold.is_complete());
    assert_eq!(inproc_fold.aggregate().cells, cells);
    let reference = inproc_fold.encode();
    for (arm, fold) in [
        ("static", static_fold),
        ("leased", leased_fold),
        ("distributed", dist_fold),
    ] {
        let fold = fold.expect("every arm ran");
        assert!(fold.is_complete(), "{arm} fold incomplete");
        assert_eq!(fold.encode(), reference, "{arm} fold diverged");
    }
    bench.finish();
}
