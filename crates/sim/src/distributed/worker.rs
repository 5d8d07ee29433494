//! The worker side of distributed campaigns: a session that decodes the
//! grid and the coordinator's calibration from Hello, then runs the
//! campaign runner's one sweep body (at the runner's default panel width,
//! the runner built once per session) over the cells of the leases it
//! receives, in order. A worker never calibrates: every worker runs its
//! cells with the coordinator's model bits.
//!
//! A reader thread decodes the coordinator's frames into the session's
//! inbox as they arrive. The sweep's claim takes the next cell of the lease
//! in hand, else the next lease already in the inbox, and never waits: when
//! nothing has arrived it returns `None`, the sweep drains, the worker sends
//! what it holds, and only then does it block for the next message. The
//! coordinator keeps a second lease queued at each worker, so a lease
//! boundary normally costs neither a round trip nor a drain. The worker
//! keeps no record of its leases: it sends retired cells in `Cells` frames
//! of eight outcomes, fewer only when its sweep drains, and the
//! coordinator's fold decides when a lease is done. A lease that ends before
//! it starts or reaches past the grid is a protocol error, found when the
//! lease is taken from the inbox and before any of its cells runs: the
//! cells already claimed finish and are sent, and the session returns the
//! error.
//!
//! A session keeps nothing the campaign needs: every cell's seed and
//! configuration derive from the shared [`crate::SweepSpec`], so a worker
//! that dies mid-lease loses nothing. The cells it already sent are folded,
//! and the coordinator leases the rest to a peer — and because the per-cell
//! bits are transport-independent, the re-run produces the identical
//! outcome.
//!
//! [`WorkerChaos`] exists for the chaos tests and the straggler bench: it
//! makes a worker die or stall after a configurable number of retired
//! cells, exercising the coordinator's re-lease and dedup paths with real
//! transports.

use std::io::{Read, Write};
use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use crate::error::SimError;
use crate::experiment::{ResultSink, RunReport, SINK_BATCH};
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

/// One worker session, shared by its sweep's claim and its sink.
struct Session {
    /// The grid's cell count: every lease must lie within it.
    cells: usize,
    /// Decoded coordinator messages, in arrival order.
    inbox: Receiver<Result<ToWorker, SimError>>,
    writer: Box<dyn Write + Send>,
    chaos: ChaosState,
    /// The newest lease's unclaimed cells.
    claimable: Range<usize>,
    /// Retired outcomes not yet sent.
    frame: Vec<(usize, CellOutcome)>,
    /// The worker died (chaos) or the coordinator hung up: send nothing more.
    silent: bool,
    /// Set once the session claims no more cells: what [`serve_with`]
    /// returns after the sweep drains.
    end: Option<Result<(), SimError>>,
}

impl Session {
    /// The sweep's claim: the next cell of the lease in hand, else of the
    /// next lease already in the inbox, else `None`. It never waits for a
    /// message: the sweep's outbox may hold outcomes the coordinator needs
    /// before it leases again or shuts down, so a blocking claim could
    /// deadlock.
    fn claim(&mut self) -> Option<usize> {
        loop {
            if self.end.is_some() {
                return None;
            }
            if let Some(index) = self.claimable.next() {
                return Some(index);
            }
            match self.inbox.try_recv() {
                Ok(message) => self.receive(Some(message)),
                Err(TryRecvError::Disconnected) => self.receive(None),
                Err(TryRecvError::Empty) => return None,
            }
        }
    }

    /// Takes one coordinator message into the session; `None` means the
    /// coordinator hung up.
    fn receive(&mut self, message: Option<Result<ToWorker, SimError>>) {
        match message {
            Some(Ok(ToWorker::Lease { start, end })) => self.open_lease(start, end),
            // Goodbye, or the coordinator hung up: nothing left to do.
            Some(Ok(ToWorker::Shutdown)) | None => self.finish(Ok(())),
            Some(Ok(ToWorker::Hello(_))) => {
                self.finish(Err(SimError::Io("unexpected mid-session Hello".to_owned())))
            }
            Some(Err(e)) => self.finish(Err(e)),
        }
    }

    /// Makes `[start, end)` the claimable cells, or ends the session with an
    /// error naming the range if that is not a range within the grid.
    fn open_lease(&mut self, start: usize, end: usize) {
        if start > end || end > self.cells {
            return self.finish(Err(SimError::Io(format!(
                "leased cells {start}..{end} are not a range within the grid's {} cells",
                self.cells
            ))));
        }
        self.claimable = start..end;
    }

    /// Takes a retired cell's outcome: the frame goes out when it holds
    /// [`SINK_BATCH`] outcomes.
    fn retire(&mut self, index: usize, outcome: &Result<RunReport, SimError>) {
        if self.silent {
            return;
        }
        if self.chaos.on_retire() {
            // Injected death: what was delivered goes out, then the worker
            // vanishes without a goodbye — dropping the transport is what
            // the coordinator sees.
            self.send_frame();
            self.silent = true;
            return self.finish(Ok(()));
        }
        self.frame
            .push((index, CellOutcome::from_run(index, outcome)));
        if self.frame.len() >= SINK_BATCH {
            self.send_frame();
        }
    }

    /// Sends the retired outcomes not yet sent, if any.
    fn send_frame(&mut self) {
        if self.silent || self.frame.is_empty() {
            return;
        }
        let cells = std::mem::replace(&mut self.frame, Vec::with_capacity(SINK_BATCH));
        if write_frame(self.writer.as_mut(), &ToCoordinator::Cells(cells).encode()).is_err() {
            // The coordinator hung up (campaign complete, or this worker was
            // abandoned as a straggler). Not an error on this side: the
            // session is simply over.
            self.silent = true;
            self.finish(Ok(()));
        }
    }

    /// Stops claiming; the first reason to stop is the one returned.
    fn finish(&mut self, end: Result<(), SimError>) {
        self.end.get_or_insert(end);
    }
}

fn lock(session: &Mutex<Session>) -> MutexGuard<'_, Session> {
    session.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The session sweep's [`ResultSink`]: hands each retired cell to the
/// session.
struct SessionSink<'a>(&'a Mutex<Session>);

impl ResultSink for SessionSink<'_> {
    fn accept(&mut self, index: usize, outcome: Result<RunReport, SimError>) {
        lock(self.0).retire(index, &outcome);
    }
}

/// The session's reader thread: decodes each coordinator frame into `inbox`
/// as it arrives. Stops at the end of the stream (the inbox then reads as
/// disconnected), after forwarding a read or decode error, or once the
/// session has stopped listening.
fn forward(mut reader: Box<dyn Read + Send>, inbox: Sender<Result<ToWorker, SimError>>) {
    loop {
        let message = match read_frame(&mut reader) {
            Ok(Some(frame)) => ToWorker::decode(&frame),
            Ok(None) => return,
            Err(e) => Err(SimError::from(e)),
        };
        let failed = message.is_err();
        if inbox.send(message).is_err() || failed {
            return;
        }
    }
}

/// The sweep threads a session runs: the `requested` count from Hello,
/// capped at the host's `available` parallelism. The session has no cell
/// count to cap them at, and it starts them again after every drain.
fn session_threads(requested: usize, available: usize) -> usize {
    requested.min(available)
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
/// As [`serve`], plus [`SimError::Io`] naming the leased range when a
/// lease reaches past the grid or ends before it starts — rejected before
/// any of its cells runs, once the cells already claimed have finished and
/// been sent.
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

    // Detached: its read ends only when the coordinator hangs up, which a
    // finished session must not wait for.
    let (forwarder, inbox) = mpsc::channel();
    thread::spawn(move || forward(reader, forwarder));
    let available = thread::available_parallelism().map_or(1, usize::from);
    let runner = setup
        .spec
        .runner()
        .with_threads(session_threads(setup.threads, available))
        .with_resilience(setup.resilience);
    let mut session = Session {
        cells: setup.spec.cells(),
        inbox,
        writer,
        chaos: ChaosState::new(chaos),
        claimable: 0..0,
        frame: Vec::with_capacity(SINK_BATCH),
        silent: false,
        end: None,
    };
    loop {
        // Nothing is left to claim: wait for the coordinator.
        let message = session.inbox.recv().ok();
        session.receive(message);
        if session.end.is_none() {
            let shared = Mutex::new(session);
            runner.run_claimed(
                usize::MAX,
                &|| lock(&shared).claim(),
                &setup.calibration,
                &mut SessionSink(&shared),
            );
            session = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
            // The sweep drained: send what it left before waiting again.
            session.send_frame();
        }
        if let Some(end) = session.end {
            return end;
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
    use crate::resilience::{MergeSink, ResiliencePolicy};
    use workload::BenchmarkId;

    /// A grid of `cells` one-second cells.
    fn spec(cells: usize) -> SweepSpec {
        SweepSpec::new(vec![ExperimentKind::Dtpm], vec![BenchmarkId::Crc32])
            .with_replicates(cells)
            .with_max_duration_s(1.0)
    }

    /// The cells of one `Cells` frame.
    type Frame = Vec<(usize, CellOutcome)>;

    /// Serves one Hello and `leases` as `(start, end)`, all queued before
    /// the worker starts, then Shutdown, over a memory transport; returns
    /// what `serve_with` returned and the cells of every frame the worker
    /// wrote after Ready.
    fn serve_leases(
        spec: &SweepSpec,
        leases: &[(usize, usize)],
    ) -> (Result<(), SimError>, Vec<Frame>) {
        let (coordinator_end, worker_end) = MemoryTransport::pair();
        let (mut writer, mut reader) = Box::new(coordinator_end).split().expect("memory halves");
        let setup = WorkerSetup {
            spec: spec.clone(),
            calibration: codec::tests::calibration().clone(),
            threads: 1,
            resilience: ResiliencePolicy::default(),
        };
        write_frame(&mut writer, &ToWorker::Hello(Box::new(setup)).encode()).expect("hello");
        for &(start, end) in leases {
            let lease = ToWorker::Lease { start, end };
            write_frame(&mut writer, &lease.encode()).expect("lease");
        }
        write_frame(&mut writer, &ToWorker::Shutdown.encode()).expect("shutdown");
        let served =
            thread::spawn(move || serve_with(Box::new(worker_end), WorkerChaos::default()))
                .join()
                .expect("the worker must not panic");
        let ready = read_frame(&mut reader).expect("a frame").expect("Ready");
        assert_eq!(ToCoordinator::decode(&ready), Ok(ToCoordinator::Ready));
        let mut frames = Vec::new();
        while let Some(frame) = read_frame(&mut reader).expect("a clean end") {
            match ToCoordinator::decode(&frame).expect("a worker message") {
                ToCoordinator::Cells(cells) => frames.push(cells),
                other => panic!("after Ready a worker sends only cells, got {other:?}"),
            }
        }
        (served, frames)
    }

    fn sorted_indices(cells: &[(usize, CellOutcome)]) -> Vec<usize> {
        let mut indices: Vec<usize> = cells.iter().map(|(index, _)| *index).collect();
        indices.sort_unstable();
        indices
    }

    #[test]
    fn leases_outside_the_grid_are_rejected_before_any_cell_runs() {
        let spec = spec(1);
        let cells = spec.cells();
        for (start, end) in [(0, cells + 1), (1, 0), (0, usize::MAX)] {
            let (served, frames) = serve_leases(&spec, &[(start, end)]);
            match served {
                Err(SimError::Io(message)) => {
                    assert!(message.contains(&format!("{start}..{end}")), "{message}")
                }
                other => panic!("lease {start}..{end} must be rejected, got {other:?}"),
            }
            assert!(frames.is_empty(), "lease {start}..{end}: {frames:?}");
        }
        // The whole grid is a lease the worker runs.
        let (served, frames) = serve_leases(&spec, &[(0, cells)]);
        served.expect("an in-grid lease is served");
        assert_eq!(
            sorted_indices(&frames.concat()),
            (0..cells).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_session_runs_queued_leases_as_one_sweep_and_reports_each_cell_once() {
        let spec = spec(20);
        let (served, frames) = serve_leases(&spec, &[(0, 9), (9, 20)]);
        served.expect("both leases are served");
        let cells = frames.concat();
        assert_eq!(sorted_indices(&cells), (0..20).collect::<Vec<_>>());
        // The outcomes fold to the bits of an in-process run.
        let mut fold = MergeSink::new(0..20);
        for (index, outcome) in cells {
            fold.offer(index, outcome);
        }
        let mut reference = MergeSink::new(0..20);
        spec.runner()
            .run_into(codec::tests::calibration(), &mut reference);
        assert_eq!(fold.encode(), reference.encode());
    }

    #[test]
    fn a_worker_sends_full_frames_until_its_sweep_drains() {
        // Within one lease the sweep never drains, so every frame holds
        // SINK_BATCH outcomes but the one sent when the lease runs out.
        let spec = spec(2 * SINK_BATCH + 3);
        let (served, frames) = serve_leases(&spec, &[(0, spec.cells())]);
        served.expect("the lease is served");
        let sizes: Vec<usize> = frames.iter().map(Vec::len).collect();
        assert_eq!(sizes, [SINK_BATCH, SINK_BATCH, 3]);
    }

    #[test]
    fn a_bad_lease_queued_behind_a_good_one_ends_the_session_after_the_good_one() {
        let spec = spec(6);
        let (served, frames) = serve_leases(&spec, &[(0, 4), (4, 7)]);
        match served {
            Err(SimError::Io(message)) => assert!(message.contains("4..7"), "{message}"),
            other => panic!("lease 4..7 must be rejected, got {other:?}"),
        }
        assert_eq!(sorted_indices(&frames.concat()), [0, 1, 2, 3]);
    }

    #[test]
    fn a_session_runs_at_most_one_sweep_thread_per_available_cpu() {
        assert_eq!(session_threads(usize::MAX, 2), 2);
        assert_eq!(session_threads(1, 2), 1);
    }
}
