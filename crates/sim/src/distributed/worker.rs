//! The worker side of distributed campaigns: a serve loop that decodes the
//! grid and the coordinator's calibration from Hello, executes leased cell
//! ranges with the ordinary in-process machinery
//! ([`crate::CampaignRunner::run_indices_into`]), and streams per-cell
//! outcomes back over the transport. A worker never calibrates: every
//! worker runs its cells with the coordinator's model bits.
//!
//! The loop is deliberately stateless between leases: every cell's seed and
//! configuration derive from the shared [`crate::SweepSpec`], so a worker
//! that dies mid-lease loses nothing the coordinator cannot re-lease to a
//! peer — and because the per-cell bits are transport-independent, the
//! re-run produces the identical outcome.
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

/// Options for [`serve_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerOptions {
    /// Worker-level fault injection; default is none.
    pub chaos: WorkerChaos,
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

/// The [`ResultSink`] a worker drives one lease through: collects per-cell
/// outcomes for the final [`ToCoordinator::LeaseDone`] and emits a
/// heartbeat per retired cell so the coordinator can tell a slow lease from
/// a dead worker. Heartbeats ride the sink's delivery batching (up to a
/// handful of cells per flush) — lease timeouts must allow for that slack.
struct LeaseSink<'a> {
    lease: u64,
    writer: &'a mut (dyn Write + Send),
    chaos: &'a mut ChaosState,
    outcomes: Vec<(usize, CellOutcome)>,
    io_error: Option<std::io::Error>,
}

impl ResultSink for LeaseSink<'_> {
    fn accept(&mut self, index: usize, outcome: Result<RunReport, SimError>) {
        let outcome = CellOutcome::from_run(index, outcome);
        if self.chaos.on_retire() || self.io_error.is_some() {
            return;
        }
        self.outcomes.push((index, outcome));
        let heartbeat = ToCoordinator::Heartbeat {
            lease: self.lease,
            completed: self.outcomes.len(),
        };
        if let Err(e) = write_frame(self.writer, &heartbeat.encode()) {
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
    serve_with(transport, WorkerOptions::default())
}

/// [`serve`] with options (chaos injection for tests and benches).
///
/// # Errors
///
/// As [`serve`].
pub fn serve_with(transport: Box<dyn Transport>, options: WorkerOptions) -> Result<(), SimError> {
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

    let mut chaos = ChaosState::new(options.chaos);
    loop {
        let Some(frame) = read_frame(&mut reader)? else {
            // Coordinator hung up; nothing left to do.
            return Ok(());
        };
        match ToWorker::decode(&frame)? {
            ToWorker::Lease { lease, start, end } => {
                let indices: Vec<usize> = (start..end).collect();
                let mut sink = LeaseSink {
                    lease,
                    writer: writer.as_mut(),
                    chaos: &mut chaos,
                    outcomes: Vec::with_capacity(indices.len()),
                    io_error: None,
                };
                setup
                    .spec
                    .runner()
                    .with_threads(setup.threads)
                    .with_lanes(setup.lanes)
                    .with_resilience(setup.resilience)
                    .run_indices_into(&indices, &setup.calibration, &mut sink);
                let LeaseSink {
                    outcomes, io_error, ..
                } = sink;
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
                let done = ToCoordinator::LeaseDone { lease, outcomes };
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
