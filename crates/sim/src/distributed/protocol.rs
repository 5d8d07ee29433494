//! The coordinator↔worker message protocol: a handful of small enums
//! encoded with the [`super::codec`] field encoders inside length-prefixed
//! frames ([`super::transport::write_frame`]).
//!
//! A session is Hello → Ready, then leases one way and outcomes the other.
//! The coordinator keeps up to two [`ToWorker::Lease`]s queued at each
//! worker. The worker reports retired cells in [`ToCoordinator::Cells`]
//! frames of up to [`SINK_BATCH`](crate::experiment::SINK_BATCH) outcomes,
//! and a lease's [`ToCoordinator::LeaseDone`] follows the frame that carries
//! its last cell. Any frame from a worker is its liveness signal.
//!
//! Messages are *not* individually checksummed — the transport's framing
//! already bounds each payload, and the standalone-blob CRC discipline is
//! reserved for payloads that touch disk. A structurally malformed message
//! is a protocol error ([`crate::SimError::Io`]) and tears down the
//! connection; the coordinator treats that like any other worker death and
//! re-leases the cells the worker had not reported.

use numeric::codec::{ByteReader, ByteWriter};

use crate::calibrate::Calibration;
use crate::campaign::SweepSpec;
use crate::error::SimError;
use crate::resilience::{CellOutcome, ResiliencePolicy};

use super::codec;

/// Everything a worker needs to execute leases against a grid: the shared
/// sweep, the coordinator's calibration as exact bits, and the execution
/// knobs the coordinator pins so every worker runs cells identically.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WorkerSetup {
    /// The campaign grid every lease indexes into.
    pub spec: SweepSpec,
    /// The models every cell runs with, calibrated once by the coordinator.
    pub calibration: Calibration,
    /// Worker-local shard threads per lease.
    pub threads: usize,
    /// Cell-level containment policy, identical on every worker.
    pub resilience: ResiliencePolicy,
}

/// A coordinator-to-worker message.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ToWorker {
    /// Opens the session: ships the grid, the calibration and the execution
    /// knobs. The worker answers [`ToCoordinator::Ready`] once it has
    /// decoded them.
    Hello(Box<WorkerSetup>),
    /// Leases cells `[start, end)` of the grid to this worker under an
    /// opaque lease id (echoed in the lease's completion). The worker queues
    /// it behind the leases it already holds.
    Lease {
        lease: u64,
        start: usize,
        end: usize,
    },
    /// Ends the session; the worker exits its serve loop.
    Shutdown,
}

/// A worker-to-coordinator message.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ToCoordinator {
    /// The worker decoded its Hello and accepts leases.
    Ready,
    /// Retired cells as `(grid index, outcome)`: at most
    /// [`SINK_BATCH`](crate::experiment::SINK_BATCH) per frame, sent when the
    /// worker holds that many, when a lease's last cell retires, and when
    /// its sweep drains. The grid index lets the coordinator dedup cells
    /// that a re-lease ran twice; a failure's own
    /// [`crate::resilience::CellFailure::index`] must equal it.
    Cells(Vec<(usize, CellOutcome)>),
    /// Lease `lease` finished: every one of its cells has been sent.
    LeaseDone { lease: u64 },
}

/// The fewest bytes one entry of a [`ToCoordinator::Cells`] frame encodes
/// to: its grid index, then a failure's tag, index and empty message.
const MIN_CELL_BYTES: usize = 8 + 1 + 8 + 8;

fn malformed(what: &str) -> SimError {
    SimError::Io(format!("malformed protocol message: {what}"))
}

impl ToWorker {
    /// Serialises the message as one frame payload.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            ToWorker::Hello(setup) => {
                w.put_u8(0);
                codec::put_spec(&mut w, &setup.spec);
                codec::put_calibration(&mut w, &setup.calibration);
                w.put_usize(setup.threads);
                codec::put_resilience(&mut w, &setup.resilience);
            }
            ToWorker::Lease { lease, start, end } => {
                w.put_u8(1);
                w.put_u64(*lease);
                w.put_usize(*start);
                w.put_usize(*end);
            }
            ToWorker::Shutdown => w.put_u8(2),
        }
        w.into_bytes()
    }

    /// Decodes one frame payload.
    pub(crate) fn decode(bytes: &[u8]) -> Result<ToWorker, SimError> {
        let mut r = ByteReader::new(bytes);
        let message = match r.take_u8().map_err(codec::codec_error)? {
            0 => ToWorker::Hello(Box::new(WorkerSetup {
                spec: codec::take_spec(&mut r)?,
                calibration: codec::take_calibration(&mut r)?,
                threads: r.take_usize().map_err(codec::codec_error)?,
                resilience: codec::take_resilience(&mut r)?,
            })),
            1 => ToWorker::Lease {
                lease: r.take_u64().map_err(codec::codec_error)?,
                start: r.take_usize().map_err(codec::codec_error)?,
                end: r.take_usize().map_err(codec::codec_error)?,
            },
            2 => ToWorker::Shutdown,
            _ => return Err(malformed("unknown coordinator message tag")),
        };
        r.finish().map_err(codec::codec_error)?;
        Ok(message)
    }
}

impl ToCoordinator {
    /// Serialises the message as one frame payload.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            ToCoordinator::Ready => w.put_u8(0),
            ToCoordinator::Cells(cells) => {
                w.put_u8(1);
                w.put_usize(cells.len());
                for (index, outcome) in cells {
                    w.put_usize(*index);
                    codec::put_outcome(&mut w, outcome);
                }
            }
            ToCoordinator::LeaseDone { lease } => {
                w.put_u8(2);
                w.put_u64(*lease);
            }
        }
        w.into_bytes()
    }

    /// Decodes one frame payload.
    pub(crate) fn decode(bytes: &[u8]) -> Result<ToCoordinator, SimError> {
        let mut r = ByteReader::new(bytes);
        let message = match r.take_u8().map_err(codec::codec_error)? {
            0 => ToCoordinator::Ready,
            1 => {
                let count = r.take_usize().map_err(codec::codec_error)?;
                if count > r.remaining() / MIN_CELL_BYTES {
                    return Err(malformed("more cells than the frame holds"));
                }
                let mut cells = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let index = r.take_usize().map_err(codec::codec_error)?;
                    let outcome = codec::take_outcome(&mut r)?;
                    if matches!(&outcome, CellOutcome::Failed(failure) if failure.index != index) {
                        return Err(malformed("a failure record names another cell"));
                    }
                    cells.push((index, outcome));
                }
                ToCoordinator::Cells(cells)
            }
            2 => ToCoordinator::LeaseDone {
                lease: r.take_u64().map_err(codec::codec_error)?,
            },
            _ => return Err(malformed("unknown worker message tag")),
        };
        r.finish().map_err(codec::codec_error)?;
        Ok(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentKind;
    use crate::resilience::{CellFailure, CellStats};
    use workload::BenchmarkId;

    /// One message of every kind, Hello fully populated and a multi-cell
    /// frame holding each kind of outcome.
    fn sample_messages() -> (Vec<ToWorker>, Vec<ToCoordinator>) {
        let setup = WorkerSetup {
            spec: SweepSpec::new(
                vec![ExperimentKind::Dtpm],
                vec![BenchmarkId::Crc32, BenchmarkId::Fft],
            )
            .with_replicates(2)
            .with_campaign_seed(7),
            calibration: codec::tests::calibration().clone(),
            threads: 2,
            resilience: ResiliencePolicy::default().with_max_retries(1),
        };
        let completed = CellOutcome::Completed(CellStats {
            completed: true,
            execution_time_s: 4.0,
            intervals: 40,
            energy_j: 16.0,
            mean_platform_power_w: 4.0,
            mean_temp_c: 51.0,
            peak_temp_c: 58.0,
            intervention_rate: 0.0,
            escalations: 0,
            sensor_faults: 0,
            shut_down: false,
        });
        let failed = CellOutcome::Failed(CellFailure {
            index: 2,
            error: "cell panicked (contained): chaos".to_owned(),
        });
        (
            vec![
                ToWorker::Hello(Box::new(setup)),
                ToWorker::Lease {
                    lease: 9,
                    start: 1,
                    end: 3,
                },
                ToWorker::Shutdown,
            ],
            vec![
                ToCoordinator::Ready,
                ToCoordinator::Cells(vec![(1, completed), (2, failed)]),
                ToCoordinator::LeaseDone { lease: 9 },
            ],
        )
    }

    #[test]
    fn messages_round_trip() {
        let (to_worker, to_coordinator) = sample_messages();
        for message in to_worker {
            assert_eq!(ToWorker::decode(&message.encode()).expect("ok"), message);
        }
        for message in to_coordinator {
            assert_eq!(
                ToCoordinator::decode(&message.encode()).expect("ok"),
                message
            );
        }
    }

    #[test]
    fn mutated_and_truncated_frames_never_panic_the_decoders() {
        let (to_worker, to_coordinator) = sample_messages();
        let frames = to_worker
            .iter()
            .map(ToWorker::encode)
            .chain(to_coordinator.iter().map(ToCoordinator::encode));
        for frame in frames {
            codec::tests::for_each_mutation(&frame, |mutation, bytes| {
                let outcome = std::panic::catch_unwind(|| {
                    let _ = ToWorker::decode(bytes);
                    let _ = ToCoordinator::decode(bytes);
                });
                assert!(outcome.is_ok(), "frame {mutation}: a decoder panicked");
            });
        }
    }

    #[test]
    fn malformed_messages_are_rejected() {
        assert!(ToWorker::decode(&[]).is_err());
        assert!(ToWorker::decode(&[99]).is_err());
        assert!(ToCoordinator::decode(&[99]).is_err());
        // Trailing bytes after a well-formed message are a protocol error.
        let mut frame = ToCoordinator::Ready.encode();
        frame.push(0);
        assert!(ToCoordinator::decode(&frame).is_err());
        // A cell count the remaining bytes cannot hold is rejected before
        // anything is allocated for it.
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_usize(usize::MAX);
        match ToCoordinator::decode(&w.into_bytes()) {
            Err(SimError::Io(message)) => assert!(message.contains("more cells"), "{message}"),
            other => panic!("a count past the frame must be rejected, got {other:?}"),
        }
        // A failure record must name the cell it is reported under, or the
        // fold would keep it under another cell's index.
        let misfiled = ToCoordinator::Cells(vec![(
            3,
            CellOutcome::Failed(CellFailure {
                index: 2,
                error: "chaos".to_owned(),
            }),
        )]);
        assert!(ToCoordinator::decode(&misfiled.encode()).is_err());
    }
}
