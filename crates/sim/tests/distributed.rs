//! Distributed campaign execution: the transport/leasing layer cannot
//! change the answer.
//!
//! The contracts under test:
//!
//! * A campaign run through the coordinator over worker transports folds to
//!   the **bit-identical** aggregate of the plain in-process
//!   [`CampaignRunner`] run — same grid, same calibration recipe.
//! * That identity survives chaos: workers killed or stalled at arbitrary
//!   lease points force re-leases and duplicate completions, and the
//!   cell-level dedup still folds every cell exactly once (proptest over
//!   injection points).
//! * The binary codec round-trips arbitrary [`SweepSpec`] and [`MergeSink`]
//!   states bit-exactly, including non-finite float bit patterns.
//! * Per-worker sink batching (the sweep-stream contention fix) does not
//!   change delivered bits: multi-threaded and single-threaded folds agree.

use std::thread;
use std::time::{Duration, Instant};

use platform_sim::distributed::{read_frame, serve_with, MemoryTransport, Transport, WorkerChaos};
use platform_sim::{
    Calibration, CalibrationCampaign, CellOutcome, CellStats, Coordinator, DistributedReport,
    ExperimentKind, MergeSink, SimError, SweepSpec,
};
use proptest::prelude::*;
use workload::BenchmarkId;

/// The calibration recipe of the in-process reference and of the
/// coordinator, which runs it once and ships the models to every worker:
/// cheap but real, like the resilience tests use.
fn calibration_campaign() -> CalibrationCampaign {
    CalibrationCampaign {
        prbs_duration_s: 120.0,
        run_furnace: false,
        ..CalibrationCampaign::default()
    }
}

const CALIBRATION_SEED: u64 = 37;

fn calibration() -> &'static Calibration {
    static CALIBRATION: std::sync::OnceLock<Calibration> = std::sync::OnceLock::new();
    CALIBRATION.get_or_init(|| {
        calibration_campaign()
            .run(CALIBRATION_SEED)
            .expect("calibration campaign must succeed")
    })
}

/// A short six-cell campaign (2 kinds × 3 benchmarks, 1 s per cell).
fn small_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(
        vec![ExperimentKind::Dtpm, ExperimentKind::Reactive],
        vec![
            BenchmarkId::Crc32,
            BenchmarkId::Qsort,
            BenchmarkId::Basicmath,
        ],
    );
    spec.campaign_seed = 0xD157_0001;
    spec.max_duration_s = 1.0;
    spec.ideal_sensors = true;
    spec
}

/// The uninterrupted in-process fold every distributed run must reproduce.
fn reference_fold() -> &'static MergeSink {
    static REFERENCE: std::sync::OnceLock<MergeSink> = std::sync::OnceLock::new();
    REFERENCE.get_or_init(|| {
        let spec = small_spec();
        let mut sink = MergeSink::new(0..spec.cells());
        spec.runner().run_into(calibration(), &mut sink);
        assert!(sink.is_complete());
        sink
    })
}

/// Runs `small_spec` through the coordinator with one in-process worker
/// thread per chaos entry, over memory transports.
fn run_distributed(
    worker_chaos: Vec<WorkerChaos>,
    lease_cells: usize,
    lease_timeout: Duration,
) -> DistributedReport {
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut workers = Vec::new();
    for chaos in worker_chaos {
        let (coordinator_end, worker_end) = MemoryTransport::pair();
        transports.push(Box::new(coordinator_end));
        workers.push(thread::spawn(move || {
            serve_with(Box::new(worker_end), chaos)
        }));
    }
    let report = Coordinator::new(small_spec())
        .with_calibration(calibration_campaign(), CALIBRATION_SEED)
        .with_lease_cells(lease_cells)
        .with_lease_timeout(lease_timeout)
        .connect(transports)
        .expect("handshake must succeed")
        .run()
        .expect("campaign must complete");
    for worker in workers {
        // A chaos-killed worker returns Ok too (it just vanishes); only
        // genuine transport/protocol bugs error here.
        worker
            .join()
            .expect("worker thread must not panic")
            .expect("worker must exit cleanly");
    }
    report
}

#[test]
fn distributed_run_matches_in_process_bit_for_bit() {
    let report = run_distributed(
        vec![WorkerChaos::default(), WorkerChaos::default()],
        2,
        Duration::from_secs(20),
    );
    let reference = reference_fold();
    assert!(report.fold().is_complete());
    assert_eq!(report.fold(), reference);
    assert_eq!(report.fold().encode(), reference.encode());
    let stats = report.stats();
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.lost_workers, 0);
    assert_eq!(stats.duplicate_cells, 0);
    assert!(stats.leases >= 3, "6 cells / 2-cell leases");
}

#[test]
fn single_worker_pool_matches_too() {
    let report = run_distributed(vec![WorkerChaos::default()], 32, Duration::from_secs(20));
    assert_eq!(report.fold().encode(), reference_fold().encode());
    assert_eq!(report.stats().leases, 1);
}

#[test]
fn an_invalid_recipe_fails_connect_before_any_hello_is_written() {
    let recipe = CalibrationCampaign {
        control_period_s: 0.0,
        ..calibration_campaign()
    };
    let expected = recipe.run(CALIBRATION_SEED).unwrap_err();
    assert!(matches!(expected, SimError::InvalidConfig(_)), "{expected}");
    let (coordinator_end, worker_end) = MemoryTransport::pair();
    let result = Coordinator::new(small_spec())
        .with_calibration(recipe, CALIBRATION_SEED)
        .connect(vec![Box::new(coordinator_end)]);
    assert_eq!(result.unwrap_err(), expected);
    // The coordinator hung up without writing a frame.
    let (_writer, mut reader) = Box::new(worker_end).split().expect("memory halves");
    assert!(read_frame(&mut reader).expect("clean end").is_none());
}

#[test]
fn a_worker_that_never_answers_hello_fails_connect_at_the_deadline() {
    let (coordinator_end, worker_end) = MemoryTransport::pair();
    let silent = thread::spawn(move || {
        let (_writer, mut reader) = Box::new(worker_end).split().expect("memory halves");
        let hello = read_frame(&mut reader).expect("a frame");
        // Hold the transport open, unanswered, until the coordinator gives up.
        let after = read_frame(&mut reader).expect("a clean end");
        (hello.is_some(), after.is_none())
    });
    let deadline = Duration::from_millis(300);
    let start = Instant::now();
    let result = Coordinator::new(small_spec())
        .with_calibration(calibration_campaign(), CALIBRATION_SEED)
        .with_ready_timeout(deadline)
        .connect(vec![Box::new(coordinator_end)]);
    let elapsed = start.elapsed();
    match result {
        Err(SimError::Io(message)) => assert!(
            message.contains("timed out") && message.contains("not ready: memory:a"),
            "{message}"
        ),
        other => panic!("expected a handshake timeout, got {other:?}"),
    }
    // The configured deadline, plus the coordinator's own calibration, not
    // the 30 s default.
    assert!(
        elapsed >= deadline && elapsed < Duration::from_secs(10),
        "{elapsed:?}"
    );
    assert_eq!(silent.join().expect("the silent worker"), (true, true));
}

proptest! {
    #[test]
    /// Chaos: worker A dies or stalls at an arbitrary lease point while
    /// worker B stays healthy. Whatever gets re-leased, re-run, or folded
    /// twice, the merged aggregate is bit-identical to the uninterrupted
    /// in-process fold.
    fn chaos_workers_cannot_change_the_aggregate(
        die_after in 0usize..7,
        stall in 0usize..2,
        lease_cells in 1usize..4,
    ) {
        let chaos = if stall == 1 {
            // Stall straight through the lease deadline, then finish late:
            // exercises release, re-lease, and duplicate-completion dedup.
            WorkerChaos {
                stall_after_cells: Some(die_after.min(5)),
                stall_for: Duration::from_millis(1500),
                ..WorkerChaos::default()
            }
        } else {
            // Silent death mid-campaign: exercises EOF recovery.
            WorkerChaos {
                die_after_cells: Some(die_after),
                ..WorkerChaos::default()
            }
        };
        let lease_timeout = if stall == 1 {
            Duration::from_millis(400)
        } else {
            Duration::from_secs(20)
        };
        let report = run_distributed(
            vec![chaos, WorkerChaos::default()],
            lease_cells,
            lease_timeout,
        );
        prop_assert!(report.fold().is_complete());
        prop_assert_eq!(report.fold(), reference_fold());
        prop_assert_eq!(report.fold().encode(), reference_fold().encode());
    }
}

proptest! {
    #[test]
    /// The spec codec round-trips arbitrary grids bit-exactly, and the
    /// fingerprint (a hash of the same bytes) survives the trip.
    fn spec_codec_round_trips(
        seed in 0i64..i64::MAX,
        ambients in prop::collection::vec(-40.0f64..120.0, 1..4),
        replicates in 1usize..4,
        duration_s in 0.5f64..600.0,
    ) {
        let spec = SweepSpec::new(
            vec![ExperimentKind::Dtpm, ExperimentKind::WithoutFan],
            vec![BenchmarkId::Fft, BenchmarkId::Gsm],
        )
        .with_ambients_c(ambients)
        .with_replicates(replicates)
        .with_campaign_seed(seed as u64)
        .with_max_duration_s(duration_s);
        let blob = platform_sim::distributed::encode_spec(&spec);
        let decoded = platform_sim::distributed::decode_spec(&blob).expect("decode");
        prop_assert_eq!(&decoded, &spec);
        prop_assert_eq!(decoded.fingerprint(), spec.fingerprint());
        // Re-encoding the decoded value reproduces the exact blob.
        prop_assert_eq!(platform_sim::distributed::encode_spec(&decoded), blob);
    }
}

proptest! {
    #[test]
    /// The merge-sink codec round-trips arbitrary fold states — including
    /// out-of-order pending cells, failures, and non-finite float bit
    /// patterns — bit-exactly.
    fn sink_codec_round_trips(
        bits in prop::collection::vec(0i64..i64::MAX, 2..12),
        rot in 0usize..12,
        tail in 0usize..3,
    ) {
        let n = bits.len();
        let mut sink = MergeSink::new(0..n + tail);
        for k in 0..n {
            // Rotated arrival order populates the pending (out-of-order)
            // buffer without double-offering any index.
            let index = (k + rot) % n;
            // Mix to full 64-bit coverage: NaN payloads, infinities and
            // negative zero all show up as bit patterns.
            let raw = f64::from_bits(platform_sim::splitmix64(bits[index] as u64));
            let outcome = if bits[index].rem_euclid(5) == 0 {
                CellOutcome::Failed(platform_sim::CellFailure {
                    index,
                    error: format!("injected failure {index}"),
                })
            } else {
                CellOutcome::Completed(CellStats {
                    completed: bits[index].rem_euclid(2) == 0,
                    execution_time_s: raw,
                    intervals: bits[index].rem_euclid(1000) as usize,
                    energy_j: raw * 2.0,
                    mean_platform_power_w: raw * 0.5,
                    mean_temp_c: 50.0,
                    peak_temp_c: raw.abs(),
                    intervention_rate: 0.125,
                    escalations: 1,
                    sensor_faults: 0,
                    shut_down: false,
                })
            };
            sink.offer(index, outcome);
        }
        let blob = platform_sim::distributed::encode_sink(&sink);
        let decoded = platform_sim::distributed::decode_sink(&blob).expect("decode");
        // Bit-exactness via re-encode: robust to NaN != NaN in PartialEq.
        prop_assert_eq!(platform_sim::distributed::encode_sink(&decoded), blob);
        if bits
            .iter()
            .all(|&b| f64::from_bits(platform_sim::splitmix64(b as u64)).is_finite())
        {
            prop_assert_eq!(&decoded, &sink);
        }
    }
}

#[test]
fn sink_batching_does_not_change_delivered_bits() {
    // The sweep-stream sink batching (per-worker outboxes flushed under one
    // lock take) must be invisible in the fold: a multi-threaded, batched
    // run delivers exactly the bits of the sequential one.
    let spec = small_spec();
    let mut sequential = MergeSink::new(0..spec.cells());
    spec.runner()
        .with_threads(1)
        .run_into(calibration(), &mut sequential);
    let mut threaded = MergeSink::new(0..spec.cells());
    spec.runner()
        .with_threads(4)
        .run_into(calibration(), &mut threaded);
    assert_eq!(sequential.encode(), threaded.encode());
}
