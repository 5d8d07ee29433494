//! The coordinator side of distributed campaigns: micro-shard leasing over
//! a pool of worker transports, straggler recovery by re-lease, and the
//! single canonical fold that makes the distributed aggregate bit-identical
//! to an in-process run.
//!
//! # Leasing protocol
//!
//! The fold is the only record of which cells and which leases are done.
//! Every live worker holds up to two leases, topped up one lease per worker
//! per round; each lease is the first run of at most
//! [`Coordinator::with_lease_cells`] cells, from the fold's cursor, that the
//! fold has not seen and no unreleased lease holds. The worker queues its
//! second lease behind the first, so its sweep moves on without waiting for
//! a round trip. No message ends a lease: after folding a worker's frame,
//! the coordinator retires each of that worker's leases whose cells the fold
//! now holds. Any frame from a worker pushes forward the deadline of every
//! lease it holds — liveness is per worker, so a queued lease is not
//! released while the one ahead of it runs. A lease whose deadline passes is
//! **released**: it turns *suspect* and holds no cells, so a peer can be
//! leased the ones it has not reported, and one more silent deadline window
//! abandons the worker for good. A suspect worker that was merely stalled
//! and reports late is welcomed back: its outcomes fold through cell-level
//! dedup (cells another worker already delivered count once), its leases
//! retire as the fold completes them, and it returns to the rotation. A cell
//! that nobody has reported and nobody holds can always be leased, so a lost
//! worker or a lease whose cells never all arrive costs a deadline and a
//! re-run, never a hang.
//!
//! Because every cell's outcome is deterministic and the fold is the
//! canonical in-order [`MergeSink`], none of this machinery can change the
//! answer — only who computes it and when. `tests/distributed.rs` proves
//! the aggregate stays bit-identical under injected deaths and stalls.

use std::io::Write;
use std::ops::Range;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread;
use std::time::{Duration, Instant};

use crate::calibrate::CalibrationCampaign;
use crate::campaign::SweepSpec;
use crate::error::SimError;
use crate::resilience::{CampaignAggregate, MergeSink, ResiliencePolicy};

use super::protocol::{ToCoordinator, ToWorker, WorkerSetup};
use super::transport::{read_frame, write_frame, Transport};

/// Configures and connects a distributed campaign run. Build with
/// [`Coordinator::new`], adjust the knobs, then [`Coordinator::connect`]
/// a set of worker transports into a [`WorkerPool`].
#[derive(Debug, Clone)]
pub struct Coordinator {
    spec: SweepSpec,
    calibration: CalibrationCampaign,
    calibration_seed: u64,
    lease_cells: Option<usize>,
    lease_timeout: Duration,
    ready_timeout: Duration,
    worker_threads: usize,
    resilience: ResiliencePolicy,
}

impl Coordinator {
    /// A coordinator over `spec`'s grid with default knobs: the default
    /// calibration recipe with seed 1, single-threaded workers driving
    /// [`numeric::LANE_CHUNK`]-lane panel engines (the width
    /// [`SweepSpec::runner`] defaults to, so a default distributed fold
    /// equals a default in-process fold bit for bit), automatic lease
    /// sizing, and a 30 s deadline for both a lease's silence and the
    /// handshake.
    pub fn new(spec: SweepSpec) -> Coordinator {
        Coordinator {
            spec,
            calibration: CalibrationCampaign::default(),
            calibration_seed: 1,
            lease_cells: None,
            lease_timeout: Duration::from_secs(30),
            ready_timeout: Duration::from_secs(30),
            worker_threads: 1,
            resilience: ResiliencePolicy::default(),
        }
    }

    /// The calibration recipe and seed. [`Coordinator::connect`] runs the
    /// recipe once and ships the resulting models to every worker. Must
    /// match the calibration an in-process comparison run uses, or the
    /// cells (and therefore the aggregate) legitimately differ.
    #[must_use]
    pub fn with_calibration(mut self, calibration: CalibrationCampaign, seed: u64) -> Self {
        self.calibration = calibration;
        self.calibration_seed = seed;
        self
    }

    /// Cells per micro-shard lease. Default targets ~8 leases per worker,
    /// clamped to `[1, 32]` — see the module docs on sizing.
    #[must_use]
    pub fn with_lease_cells(mut self, lease_cells: usize) -> Self {
        self.lease_cells = Some(lease_cells.max(1));
        self
    }

    /// The lease deadline: a lease whose worker sends nothing for this long
    /// is released, and its unreported cells are leased again. Any frame
    /// from the worker restarts the window of every lease it holds, and a
    /// worker sends one whenever it holds eight outcomes and whenever its
    /// sweep drains, so set this to comfortably more than the time one of
    /// its threads takes to retire eight cells.
    #[must_use]
    pub fn with_lease_timeout(mut self, lease_timeout: Duration) -> Self {
        self.lease_timeout = lease_timeout;
        self
    }

    /// The handshake deadline: how long a worker may take to answer Hello
    /// with Ready (it only decodes the Hello in between). The deadline
    /// starts once the coordinator has calibrated and written every Hello.
    #[must_use]
    pub fn with_ready_timeout(mut self, ready_timeout: Duration) -> Self {
        self.ready_timeout = ready_timeout;
        self
    }

    /// Sweep threads each worker session runs its leases with, capped on
    /// the worker at its host's available parallelism: a session claims
    /// cells as leases arrive, so it has no cell count to cap the threads
    /// at, the way an in-process run does. No cell's bits depend on the
    /// count.
    #[must_use]
    pub fn with_worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = threads.max(1);
        self
    }

    /// The cell-level containment policy every worker applies.
    #[must_use]
    pub fn with_resilience(mut self, resilience: ResiliencePolicy) -> Self {
        self.resilience = resilience;
        self
    }

    /// Opens a session on every transport: runs the calibration recipe
    /// once, ships Hello (grid, the calibration's exact bits, execution
    /// knobs) to all workers, then waits for each Ready. The campaign's
    /// setup therefore costs one calibration whatever the worker count, and
    /// every worker runs its cells with the coordinator's model bits.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty pool, the
    /// calibration's own error (an invalid recipe is
    /// [`SimError::InvalidConfig`]) before any Hello is written, and
    /// [`SimError::Io`] if any worker fails the handshake — a partial pool
    /// at startup is a configuration problem, unlike a worker lost
    /// mid-campaign (which the lease loop absorbs).
    pub fn connect(self, transports: Vec<Box<dyn Transport>>) -> Result<WorkerPool, SimError> {
        if transports.is_empty() {
            return Err(SimError::InvalidConfig(
                "distributed campaign needs at least one worker transport",
            ));
        }
        let setup = WorkerSetup {
            spec: self.spec.clone(),
            calibration: self.calibration.run(self.calibration_seed)?,
            threads: self.worker_threads,
            resilience: self.resilience,
        };
        let hello = ToWorker::Hello(Box::new(setup)).encode();
        let (events_tx, events) = mpsc::channel();
        let mut workers = Vec::with_capacity(transports.len());
        for (id, transport) in transports.into_iter().enumerate() {
            let label = transport.label();
            let (mut writer, reader) = transport.split()?;
            write_frame(&mut writer, &hello)
                .map_err(|e| SimError::Io(format!("worker {label}: hello failed: {e}")))?;
            spawn_pump(id, reader, events_tx.clone());
            workers.push(WorkerState {
                label,
                writer,
                alive: true,
                ready: false,
                leases: Vec::with_capacity(LEASES_IN_FLIGHT),
            });
        }
        drop(events_tx);

        // Collect one Ready per worker under the handshake deadline.
        let deadline = Instant::now() + self.ready_timeout;
        while workers.iter().any(|w| !w.ready) {
            let wait = deadline.saturating_duration_since(Instant::now());
            let (id, event) = events.recv_timeout(wait).map_err(|_| {
                let missing: Vec<&str> = workers
                    .iter()
                    .filter(|w| !w.ready)
                    .map(|w| w.label.as_str())
                    .collect();
                SimError::Io(format!(
                    "worker handshake timed out or channel closed; not ready: {}",
                    missing.join(", ")
                ))
            })?;
            match event {
                Event::Message(ToCoordinator::Ready) => workers[id].ready = true,
                Event::Message(other) => {
                    return Err(SimError::Io(format!(
                        "worker {}: expected Ready, got {other:?}",
                        workers[id].label
                    )))
                }
                Event::Closed => {
                    return Err(SimError::Io(format!(
                        "worker {} closed its transport during the handshake",
                        workers[id].label
                    )))
                }
                Event::Failed(e) => {
                    return Err(SimError::Io(format!(
                        "worker {} failed during the handshake: {e}",
                        workers[id].label
                    )))
                }
            }
        }

        Ok(WorkerPool {
            spec: self.spec,
            lease_cells: self.lease_cells,
            lease_timeout: self.lease_timeout,
            workers,
            events,
        })
    }
}

/// One event from a worker's pump thread.
enum Event {
    Message(ToCoordinator),
    /// Clean EOF: the worker closed its transport.
    Closed,
    /// Transport or protocol failure.
    Failed(SimError),
}

/// Reads frames off `reader` forever, decoding and forwarding to the
/// coordinator loop. Detached: exits on EOF/error, or when the receiver is
/// dropped after the campaign completes.
fn spawn_pump(
    id: usize,
    mut reader: Box<dyn std::io::Read + Send>,
    events: Sender<(usize, Event)>,
) {
    thread::spawn(move || loop {
        let event = match read_frame(&mut reader) {
            Ok(Some(frame)) => match ToCoordinator::decode(&frame) {
                Ok(message) => Event::Message(message),
                Err(e) => Event::Failed(e),
            },
            Ok(None) => Event::Closed,
            Err(e) => Event::Failed(SimError::from(e)),
        };
        let terminal = !matches!(event, Event::Message(_));
        if events.send((id, event)).is_err() || terminal {
            return;
        }
    });
}

/// Leases each live worker holds: the one its sweep runs and the next,
/// already queued at the worker when the first runs out. A lease leaves the
/// count once the fold holds all its cells. The worker sends a lease's last
/// outcomes with its next full frame, so with leases longer than a frame a
/// slot frees up while the worker still runs the lease behind it.
const LEASES_IN_FLIGHT: usize = 2;

/// An outstanding lease on one worker. It retires once the fold holds every
/// one of its cells, checked after each frame from its worker, so a lease
/// whose cells a peer completed retires at its own worker's next frame.
#[derive(Debug)]
struct LeaseState {
    cells: Range<usize>,
    deadline: Instant,
    /// Missed one deadline already: released (it holds no cells), one more
    /// silent window and the worker is abandoned.
    suspect: bool,
}

struct WorkerState {
    label: String,
    writer: Box<dyn Write + Send>,
    alive: bool,
    ready: bool,
    /// Outstanding leases, oldest first: at most [`LEASES_IN_FLIGHT`].
    leases: Vec<LeaseState>,
}

impl WorkerState {
    /// Gives the worker up and drops its leases, counting each as released
    /// unless its deadline already did.
    fn lose(&mut self, stats: &mut LeaseStats) {
        self.alive = false;
        stats.lost_workers += 1;
        stats.releases += self.leases.drain(..).filter(|l| !l.suspect).count();
    }
}

/// Telemetry from one distributed run: how the leases played out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseStats {
    /// Workers in the pool at connect time.
    pub workers: usize,
    /// Leases issued (including re-leases of unreported cells).
    pub leases: usize,
    /// Leases handed back before their completion, on a missed deadline or
    /// a lost worker; each lease counts once.
    pub releases: usize,
    /// Cells that arrived more than once (late stragglers overlapping a
    /// re-lease) and were deduplicated — folded exactly once.
    pub duplicate_cells: usize,
    /// Workers abandoned mid-campaign (death or repeated silence).
    pub lost_workers: usize,
}

/// The result of a distributed campaign: the canonical whole-grid fold and
/// the lease telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedReport {
    fold: MergeSink,
    stats: LeaseStats,
}

impl DistributedReport {
    /// The completed whole-grid merge fold — bit-identical to the
    /// [`MergeSink`] an in-process [`crate::CampaignRunner`] run over the
    /// same grid and calibration produces.
    pub fn fold(&self) -> &MergeSink {
        &self.fold
    }

    /// Consumes the report, returning the fold.
    pub fn into_fold(self) -> MergeSink {
        self.fold
    }

    /// The campaign-level aggregate statistics.
    pub fn aggregate(&self) -> &CampaignAggregate {
        self.fold.aggregate()
    }

    /// How the leases played out.
    pub fn stats(&self) -> LeaseStats {
        self.stats
    }
}

/// A connected pool of ready workers; [`WorkerPool::run`] executes the
/// campaign.
pub struct WorkerPool {
    spec: SweepSpec,
    lease_cells: Option<usize>,
    lease_timeout: Duration,
    workers: Vec<WorkerState>,
    events: Receiver<(usize, Event)>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("cells", &self.spec.cells())
            .field("lease_cells", &self.lease_cells)
            .field("lease_timeout", &self.lease_timeout)
            .field(
                "workers",
                &self.workers.iter().map(|w| &w.label).collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// The micro-shard size: explicit if set, otherwise ~8 leases per
    /// worker clamped to `[1, 32]`.
    fn lease_size(&self, cells: usize) -> usize {
        self.lease_cells
            .unwrap_or_else(|| (cells / (self.workers.len() * 8)).clamp(1, 32))
    }

    /// Runs the campaign to completion: leases micro-shards, recovers from
    /// stragglers and deaths by re-leasing, folds every cell exactly once,
    /// and shuts the workers down.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] if every worker is lost before the grid
    /// completes. Individual worker losses are absorbed (counted in
    /// [`LeaseStats::lost_workers`]).
    pub fn run(mut self) -> Result<DistributedReport, SimError> {
        let cells = self.spec.cells();
        let lease_size = self.lease_size(cells.max(1));
        let mut fold = MergeSink::new(0..cells);
        let mut stats = LeaseStats {
            workers: self.workers.len(),
            ..LeaseStats::default()
        };
        let lease_timeout = self.lease_timeout;

        while !fold.is_complete() {
            // Top every live worker up to LEASES_IN_FLIGHT with the first
            // cells nobody holds, one lease per worker per round.
            'top_up: for held in 0..LEASES_IN_FLIGHT {
                for id in 0..self.workers.len() {
                    if !self.workers[id].alive || self.workers[id].leases.len() > held {
                        continue;
                    }
                    let Some(range) = unleased(&fold, &self.workers, lease_size) else {
                        break 'top_up;
                    };
                    let worker = &mut self.workers[id];
                    let message = ToWorker::Lease {
                        start: range.start,
                        end: range.end,
                    };
                    if let Err(e) = write_frame(&mut worker.writer, &message.encode()) {
                        eprintln!(
                            "dtpm distributed: worker {} lost on lease write: {e}",
                            worker.label
                        );
                        worker.lose(&mut stats);
                        continue;
                    }
                    stats.leases += 1;
                    worker.leases.push(LeaseState {
                        cells: range,
                        deadline: Instant::now() + lease_timeout,
                        suspect: false,
                    });
                }
            }

            if !self.workers.iter().any(|w| w.alive) {
                return Err(SimError::Io(format!(
                    "all {} workers lost with {} cells unfolded",
                    stats.workers,
                    cells - fold.folded()
                )));
            }

            // Sleep until the next outstanding deadline (or a message).
            let wait = self
                .workers
                .iter()
                .flat_map(|w| &w.leases)
                .map(|l| l.deadline.saturating_duration_since(Instant::now()))
                .min()
                .unwrap_or(lease_timeout);
            match self.events.recv_timeout(wait) {
                Ok((id, Event::Message(message))) => {
                    Self::on_message(
                        &mut self.workers[id],
                        message,
                        &mut fold,
                        &mut stats,
                        lease_timeout,
                    );
                }
                Ok((id, event)) => {
                    let worker = &mut self.workers[id];
                    if worker.alive {
                        if let Event::Failed(e) = &event {
                            eprintln!("dtpm distributed: worker {} failed: {e}", worker.label);
                        }
                        worker.lose(&mut stats);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    let now = Instant::now();
                    for worker in self.workers.iter_mut().filter(|w| w.alive) {
                        let mut abandon = false;
                        for lease in worker.leases.iter_mut().filter(|l| l.deadline <= now) {
                            if lease.suspect {
                                // Second silent window: abandon the worker.
                                // Its cells were free for a peer since the
                                // first.
                                abandon = true;
                            } else {
                                // First miss: free the cells for a peer, keep
                                // listening for late ones.
                                stats.releases += 1;
                                lease.suspect = true;
                                lease.deadline = now + lease_timeout;
                            }
                        }
                        if abandon {
                            eprintln!(
                                "dtpm distributed: worker {} abandoned after repeated silence",
                                worker.label
                            );
                            worker.lose(&mut stats);
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(SimError::Io(format!(
                        "all worker transports closed with {} cells unfolded",
                        cells - fold.folded()
                    )));
                }
            }
        }

        // Grid complete: wave the workers goodbye (best effort).
        let shutdown = ToWorker::Shutdown.encode();
        for worker in self.workers.iter_mut().filter(|w| w.alive) {
            let _ = write_frame(&mut worker.writer, &shutdown);
        }
        Ok(DistributedReport { fold, stats })
    }

    /// Applies one worker message to the lease state and fold.
    fn on_message(
        worker: &mut WorkerState,
        message: ToCoordinator,
        fold: &mut MergeSink,
        stats: &mut LeaseStats,
        lease_timeout: Duration,
    ) {
        // Any frame shows the worker alive, so every lease it holds gets a
        // fresh window: a queued lease is not released while the one ahead
        // of it runs. A released lease stays released — its cells may
        // already be re-leased — but its worker is not abandoned.
        let deadline = Instant::now() + lease_timeout;
        for state in &mut worker.leases {
            state.deadline = deadline;
        }
        match message {
            ToCoordinator::Cells(cells) => {
                for (index, outcome) in cells {
                    // Dedup: a cell that already landed (from a re-lease)
                    // counts once, and the duplicate is telemetry.
                    if fold.is_cell_complete(index) {
                        stats.duplicate_cells += 1;
                    } else if fold.range().contains(&index) {
                        fold.offer(index, outcome);
                    }
                }
                // The fold is the lease ledger: a lease whose every cell
                // has landed, from this worker or a peer, is done.
                worker
                    .leases
                    .retain(|lease| !lease.cells.clone().all(|i| fold.is_cell_complete(i)));
            }
            ToCoordinator::Ready => {
                // Spurious after the handshake; ignore.
            }
        }
    }
}

/// The first run of at most `lease_size` cells, from the fold's cursor, that
/// the fold has not seen and no unreleased lease holds.
fn unleased(fold: &MergeSink, workers: &[WorkerState], lease_size: usize) -> Option<Range<usize>> {
    let held = |index: usize| {
        workers
            .iter()
            .flat_map(|w| &w.leases)
            .any(|lease| !lease.suspect && lease.cells.contains(&index))
    };
    let mut free = fold.unreported().filter(|&index| !held(index));
    let start = free.next()?;
    let mut end = start + 1;
    while end - start < lease_size && free.next() == Some(end) {
        end += 1;
    }
    Some(start..end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::codec;
    use crate::distributed::transport::MemoryTransport;
    use crate::experiment::ExperimentKind;
    use crate::resilience::{CellFailure, CellOutcome};
    use workload::BenchmarkId;

    /// A grid of `cells` short cells. The scripted workers never run them.
    fn spec(cells: usize) -> SweepSpec {
        SweepSpec::new(vec![ExperimentKind::Dtpm], vec![BenchmarkId::Crc32])
            .with_replicates(cells)
            .with_max_duration_s(1.0)
    }

    /// A worker scripted over `transport`: it answers Hello with Ready and
    /// hands each lease to `on_lease`, which returns whether to keep
    /// serving. Returns each lease's `(start, end)` once it stops serving,
    /// is shut down, or the coordinator hangs up; it has dropped the
    /// transport by then.
    fn scripted_worker(
        transport: MemoryTransport,
        mut on_lease: impl FnMut(&mut dyn Write, Range<usize>) -> bool + Send + 'static,
    ) -> thread::JoinHandle<Vec<(usize, usize)>> {
        thread::spawn(move || {
            let (mut writer, mut reader) = Box::new(transport).split().expect("memory halves");
            let mut leases = Vec::new();
            while let Some(frame) = read_frame(&mut reader).expect("a frame") {
                match ToWorker::decode(&frame).expect("a coordinator message") {
                    ToWorker::Hello(_) => send(writer.as_mut(), &ToCoordinator::Ready),
                    ToWorker::Lease { start, end } => {
                        leases.push((start, end));
                        if !on_lease(writer.as_mut(), start..end) {
                            break;
                        }
                    }
                    ToWorker::Shutdown => break,
                }
            }
            leases
        })
    }

    fn send(writer: &mut dyn Write, message: &ToCoordinator) {
        write_frame(writer, &message.encode()).expect("the coordinator is listening");
    }

    /// A scripted worker's frame reporting `indices`: any outcome folds.
    fn cells(indices: impl IntoIterator<Item = usize>) -> ToCoordinator {
        ToCoordinator::Cells(
            indices
                .into_iter()
                .map(|index| {
                    let error = "scripted".to_owned();
                    (index, CellOutcome::Failed(CellFailure { index, error }))
                })
                .collect(),
        )
    }

    /// Connects `coordinator` (calibrating with the cheap test recipe) to
    /// the scripted workers behind `transports`.
    fn connect(coordinator: Coordinator, transports: Vec<MemoryTransport>) -> WorkerPool {
        coordinator
            .with_calibration(codec::tests::recipe(), 5)
            .connect(
                transports
                    .into_iter()
                    .map(|t| Box::new(t) as Box<dyn Transport>)
                    .collect(),
            )
            .expect("the scripted workers answer Hello")
    }

    /// Runs `pool` on a thread of its own, so a coordinator that hangs
    /// fails the waiting test instead of hanging it.
    fn spawn_run(pool: WorkerPool) -> Receiver<Result<DistributedReport, SimError>> {
        let (done, report) = mpsc::channel();
        thread::spawn(move || {
            let _ = done.send(pool.run());
        });
        report
    }

    #[test]
    fn unreported_cells_are_leased_again_at_the_deadline() {
        let (a_end, a_worker) = MemoryTransport::pair();
        let (b_end, b_worker) = MemoryTransport::pair();
        // A reports only the first cell of every lease, so the fold never
        // completes its lease 0..3 and the lease never retires.
        let a = scripted_worker(a_worker, |writer, range| {
            send(writer, &cells(range.start..range.start + 1));
            true
        });
        // B reports whatever it is leased: first 3..6, then, once A's lease
        // is released at its deadline, A's unreported cells.
        let b = scripted_worker(b_worker, |writer, range| {
            send(writer, &cells(range));
            true
        });
        let pool = connect(
            Coordinator::new(spec(6))
                .with_lease_cells(3)
                .with_lease_timeout(Duration::from_secs(1)),
            vec![a_end, b_end],
        );
        let report = spawn_run(pool)
            .recv_timeout(Duration::from_secs(20))
            .expect("the coordinator must not wait on cells nobody reports")
            .expect("the campaign completes");
        assert!(report.fold().is_complete());
        assert_eq!(a.join().expect("worker A")[0], (0, 3));
        let b_leases = b.join().expect("worker B");
        assert!(b_leases.contains(&(1, 3)), "{b_leases:?}");
        let stats = report.stats();
        assert!(stats.releases >= 1, "{stats:?}");
    }

    #[test]
    fn a_released_lease_whose_worker_hangs_up_counts_one_release() {
        let (a_end, a_worker) = MemoryTransport::pair();
        let (b_end, b_worker) = MemoryTransport::pair();
        // A takes the only cell, stays silent through its 1 s deadline and
        // hangs up at 1.5 s, before a second deadline could abandon it.
        let a = scripted_worker(a_worker, |_, _| {
            thread::sleep(Duration::from_millis(1500));
            false
        });
        // B is leased the released cell and reports it once A is gone. The
        // pause lets A's hang-up reach the coordinator first: the two
        // workers' frames arrive on different threads.
        let (gone, a_gone) = mpsc::channel::<()>();
        let b = scripted_worker(b_worker, move |writer, range| {
            a_gone.recv().expect("A hangs up");
            thread::sleep(Duration::from_millis(100));
            send(writer, &cells(range));
            true
        });
        let pool = connect(
            Coordinator::new(spec(1)).with_lease_timeout(Duration::from_secs(1)),
            vec![a_end, b_end],
        );
        let report = spawn_run(pool);
        assert_eq!(a.join().expect("worker A"), [(0, 1)]);
        gone.send(()).expect("B waits for A");
        let report = report
            .recv_timeout(Duration::from_secs(20))
            .expect("the campaign must finish")
            .expect("the campaign completes");
        assert_eq!(b.join().expect("worker B"), [(0, 1)]);
        assert!(report.fold().is_complete());
        let stats = report.stats();
        assert_eq!(
            (stats.leases, stats.releases, stats.lost_workers),
            (2, 1, 1),
            "{stats:?}"
        );
        assert_eq!(stats.duplicate_cells, 0);
    }

    #[test]
    fn a_worker_holds_its_second_lease_before_it_reports() {
        let (coordinator_end, worker_end) = MemoryTransport::pair();
        // Says nothing until its second lease arrives, then reports both.
        let mut first = None;
        let worker = scripted_worker(worker_end, move |writer, range| {
            match first.take() {
                None => first = Some(range),
                Some(first_range) => {
                    send(writer, &cells(first_range));
                    send(writer, &cells(range));
                }
            }
            true
        });
        let pool = connect(
            Coordinator::new(spec(4))
                .with_lease_cells(2)
                .with_lease_timeout(Duration::from_secs(30)),
            vec![coordinator_end],
        );
        let report = spawn_run(pool)
            .recv_timeout(Duration::from_secs(20))
            .expect("the second lease must not wait for the first one's cells")
            .expect("the campaign completes");
        assert!(report.fold().is_complete());
        assert_eq!(
            worker.join().expect("the scripted worker"),
            [(0, 2), (2, 4)]
        );
        let stats = report.stats();
        assert_eq!((stats.leases, stats.releases), (2, 0), "{stats:?}");
    }

    #[test]
    fn a_slow_first_lease_keeps_the_queued_one_alive() {
        let (coordinator_end, worker_end) = MemoryTransport::pair();
        // One cell per 300 ms against a 1 s deadline: the first lease takes
        // 1.2 s while its successor waits in the worker's queue, and every
        // frame keeps both leases alive.
        let worker = scripted_worker(worker_end, |writer, range| {
            for index in range.clone() {
                if range.start == 0 {
                    thread::sleep(Duration::from_millis(300));
                }
                send(writer, &cells([index]));
            }
            true
        });
        let pool = connect(
            Coordinator::new(spec(8))
                .with_lease_cells(4)
                .with_lease_timeout(Duration::from_secs(1)),
            vec![coordinator_end],
        );
        let report = spawn_run(pool)
            .recv_timeout(Duration::from_secs(20))
            .expect("the campaign must finish")
            .expect("the campaign completes");
        assert!(report.fold().is_complete());
        assert_eq!(
            worker.join().expect("the scripted worker"),
            [(0, 4), (4, 8)]
        );
        let stats = report.stats();
        assert_eq!(
            (stats.leases, stats.releases, stats.duplicate_cells),
            (2, 0, 0),
            "{stats:?}"
        );
    }

    #[test]
    fn a_worker_that_hangs_up_holding_two_leases_releases_each_once() {
        let (a_end, a_worker) = MemoryTransport::pair();
        let (b_end, b_worker) = MemoryTransport::pair();
        // A takes its two leases and hangs up on receiving the second.
        let mut held = 0;
        let a = scripted_worker(a_worker, move |_, _| {
            held += 1;
            held < 2
        });
        // B reports whatever it is leased, A's cells included.
        let b = scripted_worker(b_worker, |writer, range| {
            send(writer, &cells(range));
            true
        });
        let pool = connect(
            Coordinator::new(spec(8))
                .with_lease_cells(2)
                .with_lease_timeout(Duration::from_secs(30)),
            vec![a_end, b_end],
        );
        let report = spawn_run(pool)
            .recv_timeout(Duration::from_secs(20))
            .expect("the campaign must finish")
            .expect("the campaign completes");
        assert!(report.fold().is_complete());
        assert_eq!(a.join().expect("worker A"), [(0, 2), (4, 6)]);
        let mut b_leases = b.join().expect("worker B");
        b_leases.sort_unstable();
        assert_eq!(b_leases, [(0, 2), (2, 4), (4, 6), (6, 8)]);
        let stats = report.stats();
        assert_eq!(
            (stats.leases, stats.releases, stats.lost_workers),
            (6, 2, 1),
            "{stats:?}"
        );
        assert_eq!(stats.duplicate_cells, 0);
    }
}
