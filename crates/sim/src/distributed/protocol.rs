//! The coordinator↔worker message protocol: a handful of small enums
//! encoded with the [`super::codec`] field encoders inside length-prefixed
//! frames ([`super::transport::write_frame`]).
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
    /// opaque lease id (echoed in every cell frame and in the completion).
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
    /// Cell `index` of lease `lease` retired with `outcome`. Sent once per
    /// retired cell (modulo the sink's delivery batching), so it is also the
    /// worker's liveness signal. The grid index lets the coordinator dedup
    /// cells that a re-lease ran twice.
    Cell {
        lease: u64,
        index: usize,
        outcome: CellOutcome,
    },
    /// Lease `lease` finished: the worker sends no more cells for it.
    LeaseDone { lease: u64 },
}

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
            ToCoordinator::Cell {
                lease,
                index,
                outcome,
            } => {
                w.put_u8(1);
                w.put_u64(*lease);
                w.put_usize(*index);
                codec::put_outcome(&mut w, outcome);
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
            1 => ToCoordinator::Cell {
                lease: r.take_u64().map_err(codec::codec_error)?,
                index: r.take_usize().map_err(codec::codec_error)?,
                outcome: codec::take_outcome(&mut r)?,
            },
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

    /// One message of every kind, Hello fully populated and a Cell with
    /// each kind of outcome.
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
                ToCoordinator::Cell {
                    lease: 9,
                    index: 1,
                    outcome: completed,
                },
                ToCoordinator::Cell {
                    lease: 9,
                    index: 2,
                    outcome: failed,
                },
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
    }
}
