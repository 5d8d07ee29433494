//! End-to-end distributed campaigns with real `dtpm-worker` subprocesses:
//! the coordinator in this test process, workers as spawned OS processes,
//! over both transport wirings (child stdio and localhost TCP).
//!
//! Verifies the full stack — binary spawn, the Hello/Ready handshake that
//! ships the coordinator's calibration, micro-shard leasing with two leases
//! queued at each worker, each worker session's one sweep over its leases,
//! outcome frames of up to eight cells, subprocess death recovery (the
//! cells a dead worker sent fold, the rest are leased again) — and that the
//! merged aggregate is bit-identical to the in-process run of the same
//! grid. Also covers the binary's `inspect` subcommand on a checkpoint
//! file.

use std::net::TcpListener;
use std::process::Command;
use std::time::Duration;

use platform_sim::distributed::{ChildTransport, TcpTransport, Transport};
use platform_sim::{
    CalibrationCampaign, CampaignCheckpoint, Coordinator, ExperimentKind, MergeSink, SimError,
    SweepSpec,
};
use workload::BenchmarkId;

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_dtpm-worker");
const CALIBRATION_SEED: u64 = 37;

fn calibration_campaign() -> CalibrationCampaign {
    CalibrationCampaign {
        prbs_duration_s: 120.0,
        run_furnace: false,
        ..CalibrationCampaign::default()
    }
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
    spec.campaign_seed = 0xE2E_0001;
    spec.max_duration_s = 1.0;
    spec.ideal_sensors = true;
    spec
}

/// The uninterrupted in-process fold the subprocess runs must reproduce.
fn reference_fold() -> &'static MergeSink {
    static REFERENCE: std::sync::OnceLock<MergeSink> = std::sync::OnceLock::new();
    REFERENCE.get_or_init(|| {
        let calibration = calibration_campaign()
            .run(CALIBRATION_SEED)
            .expect("calibration campaign must succeed");
        let spec = small_spec();
        let mut sink = MergeSink::new(0..spec.cells());
        spec.runner().run_into(&calibration, &mut sink);
        assert!(sink.is_complete());
        sink
    })
}

fn coordinator() -> Coordinator {
    Coordinator::new(small_spec())
        .with_calibration(calibration_campaign(), CALIBRATION_SEED)
        .with_lease_cells(2)
        .with_lease_timeout(Duration::from_secs(60))
}

#[test]
fn two_subprocess_workers_over_stdio_match_in_process_bits() {
    let transports: Vec<Box<dyn Transport>> = (0..2)
        .map(|_| {
            let transport = ChildTransport::spawn(&mut Command::new(WORKER_BIN))
                .expect("worker binary must spawn");
            Box::new(transport) as Box<dyn Transport>
        })
        .collect();
    let report = coordinator()
        .connect(transports)
        .expect("handshake with subprocess workers must succeed")
        .run()
        .expect("campaign must complete");
    assert_eq!(report.fold().encode(), reference_fold().encode());
    let stats = report.stats();
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.lost_workers, 0);
}

#[test]
fn dying_subprocess_worker_is_recovered_bit_identically() {
    // One worker dies (process exit, no goodbye) after delivering a single
    // cell; that cell folds, and the healthy worker is leased the rest.
    let chaotic = ChildTransport::spawn(Command::new(WORKER_BIN).args(["--die-after", "1"]))
        .expect("worker binary must spawn");
    let healthy =
        ChildTransport::spawn(&mut Command::new(WORKER_BIN)).expect("worker binary must spawn");
    let report = coordinator()
        .connect(vec![Box::new(chaotic), Box::new(healthy)])
        .expect("handshake must succeed")
        .run()
        .expect("campaign must survive the worker death");
    assert_eq!(report.fold().encode(), reference_fold().encode());
    assert_eq!(report.stats().lost_workers, 1);
}

#[test]
fn tcp_workers_match_in_process_bits() {
    // Workers connect back to a listening coordinator over localhost TCP —
    // the cross-host wiring, exercised end to end on one machine.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let mut children: Vec<std::process::Child> = (0..2)
        .map(|_| {
            Command::new(WORKER_BIN)
                .args(["--connect", &addr])
                .spawn()
                .expect("worker binary must spawn")
        })
        .collect();
    let transports: Vec<Box<dyn Transport>> = (0..2)
        .map(|_| {
            let (stream, _) = listener.accept().expect("worker must connect");
            Box::new(TcpTransport::from_stream(stream).expect("wrap stream")) as Box<dyn Transport>
        })
        .collect();
    let report = coordinator()
        .connect(transports)
        .expect("handshake over TCP must succeed")
        .run()
        .expect("campaign must complete");
    assert_eq!(report.fold().encode(), reference_fold().encode());
    for child in &mut children {
        let status = child.wait().expect("worker must be reapable");
        assert!(status.success(), "worker must exit cleanly: {status}");
    }
}

#[test]
fn inspect_prints_a_checkpoint_file_and_rejects_garbage() {
    let spec = small_spec();
    let mut checkpoint = CampaignCheckpoint::new(spec.fingerprint(), spec.cells());
    checkpoint.record(0, Err(SimError::Panicked("boom".to_owned())));
    let path = std::env::temp_dir().join(format!("dtpm-inspect-{}.ckpt", std::process::id()));
    checkpoint.write_atomic(&path).expect("checkpoint write");
    let inspect = || {
        Command::new(WORKER_BIN)
            .arg("inspect")
            .arg(&path)
            .output()
            .expect("worker binary must run")
    };
    let output = inspect();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        stdout.starts_with(&format!(
            "checkpoint: fingerprint {:016x}, 1 of 6 cells complete",
            spec.fingerprint()
        )),
        "{stdout}"
    );
    assert!(stdout.contains("failed cell 0: cell panicked (contained): boom"));
    std::fs::write(&path, b"not a blob").expect("overwrite");
    assert!(!inspect().status.success());
    std::fs::remove_file(&path).ok();
}
