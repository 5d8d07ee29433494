//! The worker side of distributed campaigns: a serve loop that decodes the
//! grid and the coordinator's calibration from Hello, executes each leased
//! cell range with the ordinary in-process machinery (the campaign runner's
//! one sweep body, claiming the range's cells in order, at the runner's
//! default panel width), and sends each cell's outcome back over the
//! transport as the cell retires. A lease that reaches past the grid is a
//! protocol error, rejected before any cell runs. A worker never
//! calibrates: every worker runs its cells with the coordinator's model
//! bits.
//!
//! The loop is deliberately stateless between leases: every cell's seed and
//! configuration derive from the shared [`crate::SweepSpec`], so a worker
//! that dies mid-lease loses nothing: the cells it already sent are folded,
//! and the coordinator leases the rest to a peer — and because the per-cell
//! bits are transport-independent, the re-run produces the identical
//! outcome.
//!
//! [`WorkerChaos`] exists for the chaos tests and the straggler bench: it
//! makes a worker die or stall after a configurable number of retired
//! cells, exercising the coordinator's re-lease and dedup paths with real
//! transports.

use std::io::Write;
use std::thread;
use std::time::Duration;

use crate::error::SimError;
use crate::experiment::{ResultSink, RunReport};
use crate::resilience::CellOutcome;

use super::protocol::{ToCoordinator, ToWorker, WorkerSetup};
use super::transport::{read_frame, write_frame, Transport};

/// Fault injection for the worker itself (as opposed to the simulated
/// sensors): controlled death and stalling, counted over the worker's whole
/// lifetime, for exercising lease recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerChaos {
    /// Die silently (drop the transport without a goodbye) once this many
    /// cells have been delivered. `Some(0)` dies on the first retirement.
    pub die_after_cells: Option<usize>,
    /// Sleep [`WorkerChaos::stall_for`] once, just before delivering the
    /// cell that crosses this count — long enough and the coordinator
    /// re-leases the range, then dedups the late completion.
    pub stall_after_cells: Option<usize>,
    /// How long the one-shot stall sleeps.
    pub stall_for: Duration,
}

/// Lifetime chaos bookkeeping: cells retired across all leases.
#[derive(Debug)]
struct ChaosState {
    plan: WorkerChaos,
    delivered: usize,
    stalled: bool,
    dead: bool,
}

impl ChaosState {
    fn new(plan: WorkerChaos) -> ChaosState {
        ChaosState {
            plan,
            delivered: 0,
            stalled: false,
            dead: false,
        }
    }

    /// Called per retiring cell, before delivery; returns whether the cell
    /// (and everything after it) should be swallowed.
    fn on_retire(&mut self) -> bool {
        if let Some(limit) = self.plan.die_after_cells {
            if self.delivered >= limit {
                self.dead = true;
            }
        }
        if self.dead {
            return true;
        }
        if let Some(limit) = self.plan.stall_after_cells {
            if self.delivered >= limit && !self.stalled {
                self.stalled = true;
                thread::sleep(self.plan.stall_for);
            }
        }
        self.delivered += 1;
        false
    }
}

/// The [`ResultSink`] a worker drives one lease through: sends each retired
/// cell's outcome in its own [`ToCoordinator::Cell`] frame, which is also
/// how the coordinator tells a slow lease from a dead worker. Cell frames
/// ride the sink's delivery batching (up to a handful of cells per flush) —
/// lease timeouts must allow for that slack.
struct LeaseSink<'a> {
    lease: u64,
    writer: &'a mut (dyn Write + Send),
    chaos: &'a mut ChaosState,
    io_error: Option<std::io::Error>,
}

impl ResultSink for LeaseSink<'_> {
    fn accept(&mut self, index: usize, outcome: Result<RunReport, SimError>) {
        if self.chaos.on_retire() || self.io_error.is_some() {
            return;
        }
        let cell = ToCoordinator::Cell {
            lease: self.lease,
            index,
            outcome: CellOutcome::from_run(index, &outcome),
        };
        if let Err(e) = write_frame(self.writer, &cell.encode()) {
            self.io_error = Some(e);
        }
    }
}

/// Serves leases over `transport` until the coordinator says
/// `Shutdown` or closes the connection. This is the whole
/// worker: the `dtpm-worker` binary is a thin argument parser around it.
///
/// # Errors
///
/// Returns [`SimError::Io`] on transport or protocol failures, including a
/// Hello whose calibration does not decode.
pub fn serve(transport: Box<dyn Transport>) -> Result<(), SimError> {
    serve_with(transport, WorkerChaos::default())
}

/// [`serve`] with worker-level chaos injection (for tests and benches).
///
/// # Errors
///
/// As [`serve`], plus [`SimError::Io`] naming the lease when a lease
/// reaches past the grid or ends before it starts — rejected before any of
/// its cells runs.
pub fn serve_with(transport: Box<dyn Transport>, chaos: WorkerChaos) -> Result<(), SimError> {
    let (mut writer, mut reader) = transport.split()?;
    let frame = read_frame(&mut reader)?
        .ok_or_else(|| SimError::Io("transport closed before Hello".to_owned()))?;
    let setup: Box<WorkerSetup> = match ToWorker::decode(&frame)? {
        ToWorker::Hello(setup) => setup,
        other => {
            return Err(SimError::Io(format!(
                "expected Hello to open the session, got {other:?}"
            )))
        }
    };
    write_frame(&mut writer, &ToCoordinator::Ready.encode())?;

    let mut chaos = ChaosState::new(chaos);
    loop {
        let Some(frame) = read_frame(&mut reader)? else {
            // Coordinator hung up; nothing left to do.
            return Ok(());
        };
        match ToWorker::decode(&frame)? {
            ToWorker::Lease { lease, start, end } => {
                let cells = setup.spec.cells();
                if start > end || end > cells {
                    return Err(SimError::Io(format!(
                        "lease {lease} names cells {start}..{end}, not a range within the grid's {cells} cells"
                    )));
                }
                let mut sink = LeaseSink {
                    lease,
                    writer: writer.as_mut(),
                    chaos: &mut chaos,
                    io_error: None,
                };
                setup
                    .spec
                    .runner()
                    .with_threads(setup.threads)
                    .with_resilience(setup.resilience)
                    .run_range_into(start..end, &setup.calibration, &mut sink);
                let io_error = sink.io_error;
                if chaos.dead {
                    // Injected death: vanish without a goodbye — dropping
                    // the transport is what the coordinator sees.
                    return Ok(());
                }
                if io_error.is_some() {
                    // The coordinator hung up mid-lease (campaign complete,
                    // or this worker was abandoned as a straggler). Not an
                    // error on this side: the session is simply over.
                    return Ok(());
                }
                let done = ToCoordinator::LeaseDone { lease };
                if write_frame(&mut writer, &done.encode()).is_err() {
                    return Ok(());
                }
            }
            ToWorker::Shutdown => return Ok(()),
            ToWorker::Hello(_) => {
                return Err(SimError::Io("unexpected mid-session Hello".to_owned()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::SweepSpec;
    use crate::distributed::codec;
    use crate::distributed::transport::MemoryTransport;
    use crate::experiment::ExperimentKind;
    use crate::resilience::ResiliencePolicy;
    use workload::BenchmarkId;

    /// Serves one Hello and one lease over a memory transport; returns what
    /// `serve_with` returned and every frame the worker wrote after Ready.
    fn serve_one_lease(
        spec: &SweepSpec,
        start: usize,
        end: usize,
    ) -> (Result<(), SimError>, Vec<ToCoordinator>) {
        let (coordinator_end, worker_end) = MemoryTransport::pair();
        let (mut writer, mut reader) = Box::new(coordinator_end).split().expect("memory halves");
        let setup = WorkerSetup {
            spec: spec.clone(),
            calibration: codec::tests::calibration().clone(),
            threads: 1,
            resilience: ResiliencePolicy::default(),
        };
        write_frame(&mut writer, &ToWorker::Hello(Box::new(setup)).encode()).expect("hello");
        let lease = ToWorker::Lease {
            lease: 3,
            start,
            end,
        };
        write_frame(&mut writer, &lease.encode()).expect("lease");
        write_frame(&mut writer, &ToWorker::Shutdown.encode()).expect("shutdown");
        let served =
            thread::spawn(move || serve_with(Box::new(worker_end), WorkerChaos::default()))
                .join()
                .expect("the worker must not panic");
        let ready = read_frame(&mut reader).expect("a frame").expect("Ready");
        assert_eq!(ToCoordinator::decode(&ready), Ok(ToCoordinator::Ready));
        let mut frames = Vec::new();
        while let Some(frame) = read_frame(&mut reader).expect("a clean end") {
            frames.push(ToCoordinator::decode(&frame).expect("a worker message"));
        }
        (served, frames)
    }

    #[test]
    fn leases_outside_the_grid_are_rejected_before_any_cell_runs() {
        let spec = SweepSpec::new(vec![ExperimentKind::Dtpm], vec![BenchmarkId::Crc32])
            .with_max_duration_s(1.0);
        let cells = spec.cells();
        for (start, end) in [(0, cells + 1), (1, 0), (0, usize::MAX)] {
            let (served, frames) = serve_one_lease(&spec, start, end);
            match served {
                Err(SimError::Io(message)) => assert!(
                    message.contains("lease 3") && message.contains(&format!("{start}..{end}")),
                    "{message}"
                ),
                other => panic!("lease {start}..{end} must be rejected, got {other:?}"),
            }
            assert!(frames.is_empty(), "lease {start}..{end}: {frames:?}");
        }
        // The whole grid is a lease the worker runs: one Cell frame per
        // cell, then LeaseDone.
        let (served, frames) = serve_one_lease(&spec, 0, cells);
        served.expect("an in-grid lease is served");
        assert_eq!(frames.len(), cells + 1, "{frames:?}");
        let mut indices: Vec<usize> = frames[..cells]
            .iter()
            .map(|frame| match frame {
                ToCoordinator::Cell {
                    lease: 3, index, ..
                } => *index,
                other => panic!("expected a Cell of lease 3, got {other:?}"),
            })
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..cells).collect::<Vec<_>>());
        assert_eq!(frames[cells], ToCoordinator::LeaseDone { lease: 3 });
    }
}
