//! The coordinator side of distributed campaigns: micro-shard leasing over
//! a pool of worker transports, straggler recovery by re-lease, and the
//! single canonical fold that makes the distributed aggregate bit-identical
//! to an in-process run.
//!
//! # Leasing protocol
//!
//! The remaining-cell queue starts as the grid chopped into micro-shards of
//! [`Coordinator::with_lease_cells`] cells. Each idle worker is handed the
//! next range; a worker that retires cells heartbeats per cell, pushing its
//! deadline forward. A lease whose deadline passes is **released**: its
//! range goes back on the front of the queue (another worker picks it up
//! next) and the worker enters *suspect* state — one more silent deadline
//! window and it is abandoned for good. A suspect worker that was merely
//! stalled and completes late is welcomed back: its outcomes fold through
//! cell-level dedup (cells another worker already delivered count once) and
//! it returns to the rotation.
//!
//! Because every cell's outcome is deterministic and the fold is the
//! canonical in-order [`MergeSink`], none of this machinery can change the
//! answer — only who computes it and when. `tests/distributed.rs` proves
//! the aggregate stays bit-identical under injected deaths and stalls.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread;
use std::time::{Duration, Instant};

use crate::calibrate::CalibrationCampaign;
use crate::campaign::SweepSpec;
use crate::error::SimError;
use crate::resilience::{CampaignAggregate, CellOutcome, MergeSink, ResiliencePolicy};

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
    /// sizing, and a 30 s deadline for both the heartbeat and the
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

    /// The heartbeat deadline: a lease silent this long is released and
    /// re-queued. Workers heartbeat per retired cell (batched with sink
    /// delivery), so set this to comfortably more than a few cells' wall
    /// time.
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

    /// Shard threads each worker runs its leases with.
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
                lease: None,
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

/// An outstanding lease on one worker.
#[derive(Debug)]
struct LeaseState {
    id: u64,
    start: usize,
    end: usize,
    deadline: Instant,
    /// Missed one deadline already: released (range re-queued), one more
    /// silent window and the worker is abandoned.
    suspect: bool,
}

struct WorkerState {
    label: String,
    writer: Box<dyn Write + Send>,
    alive: bool,
    ready: bool,
    lease: Option<LeaseState>,
}

/// Telemetry from one distributed run: how the leases played out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseStats {
    /// Workers in the pool at connect time.
    pub workers: usize,
    /// Leases issued (including re-issues of released ranges).
    pub leases: usize,
    /// Leases released on a missed deadline and re-queued.
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
        let mut queue: VecDeque<(usize, usize)> = (0..cells)
            .step_by(lease_size)
            .map(|start| (start, (start + lease_size).min(cells)))
            .collect();
        let mut fold = MergeSink::new(0..cells);
        // Ranges released on a missed deadline, by lease id: a late
        // completion of one is still folded (dedup'd) and, if the range is
        // still queued, the redundant re-run is cancelled.
        let mut released: HashMap<u64, (usize, usize)> = HashMap::new();
        let mut stats = LeaseStats {
            workers: self.workers.len(),
            ..LeaseStats::default()
        };
        let mut next_lease: u64 = 1;
        let lease_timeout = self.lease_timeout;

        while !fold.is_complete() {
            // Hand ranges to every idle live worker.
            for worker in self
                .workers
                .iter_mut()
                .filter(|w| w.alive && w.lease.is_none())
            {
                let Some((start, end)) = queue.pop_front() else {
                    break;
                };
                let id = next_lease;
                next_lease += 1;
                let message = ToWorker::Lease {
                    lease: id,
                    start,
                    end,
                };
                if let Err(e) = write_frame(&mut worker.writer, &message.encode()) {
                    eprintln!(
                        "dtpm distributed: worker {} lost on lease write: {e}",
                        worker.label
                    );
                    worker.alive = false;
                    stats.lost_workers += 1;
                    queue.push_front((start, end));
                    continue;
                }
                stats.leases += 1;
                worker.lease = Some(LeaseState {
                    id,
                    start,
                    end,
                    deadline: Instant::now() + lease_timeout,
                    suspect: false,
                });
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
                .filter_map(|w| w.lease.as_ref())
                .map(|l| l.deadline.saturating_duration_since(Instant::now()))
                .min()
                .unwrap_or(lease_timeout);
            match self.events.recv_timeout(wait) {
                Ok((id, Event::Message(message))) => {
                    Self::on_message(
                        &mut self.workers[id],
                        message,
                        &mut fold,
                        &mut queue,
                        &mut released,
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
                        worker.alive = false;
                        stats.lost_workers += 1;
                        if let Some(lease) = worker.lease.take() {
                            stats.releases += 1;
                            // A suspect lease's range was already re-queued.
                            if !lease.suspect {
                                queue.push_front((lease.start, lease.end));
                            }
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    let now = Instant::now();
                    for worker in self.workers.iter_mut().filter(|w| w.alive) {
                        let Some(lease) = worker.lease.as_mut() else {
                            continue;
                        };
                        if lease.deadline > now {
                            continue;
                        }
                        if lease.suspect {
                            // Second silent window: abandon the worker. Its
                            // range is already back in the queue.
                            eprintln!(
                                "dtpm distributed: worker {} abandoned after repeated silence",
                                worker.label
                            );
                            worker.lease = None;
                            worker.alive = false;
                            stats.lost_workers += 1;
                        } else {
                            // First miss: release the range for a peer, keep
                            // listening for a late completion.
                            stats.releases += 1;
                            lease.suspect = true;
                            lease.deadline = now + lease_timeout;
                            queue.push_front((lease.start, lease.end));
                            released.insert(lease.id, (lease.start, lease.end));
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
        queue: &mut VecDeque<(usize, usize)>,
        released: &mut HashMap<u64, (usize, usize)>,
        stats: &mut LeaseStats,
        lease_timeout: Duration,
    ) {
        match message {
            ToCoordinator::Heartbeat { lease } => {
                if let Some(state) = worker.lease.as_mut() {
                    if state.id == lease {
                        state.deadline = Instant::now() + lease_timeout;
                        // A released range stays released — the peer re-run
                        // is already paid for — but the worker is clearly
                        // alive, so keep extending its window instead of
                        // abandoning it.
                    }
                }
            }
            ToCoordinator::LeaseDone { lease, outcomes } => {
                let current = worker.lease.as_ref().is_some_and(|state| state.id == lease);
                if current {
                    worker.lease = None;
                }
                // Late completion of a released lease: cancel the redundant
                // re-run if its range is still queued.
                if let Some(range) = released.remove(&lease) {
                    if let Some(at) = queue.iter().position(|&r| r == range) {
                        queue.remove(at);
                    }
                }
                for (index, outcome) in outcomes {
                    Self::fold_outcome(fold, index, outcome, stats);
                }
            }
            ToCoordinator::Ready => {
                // Spurious after the handshake; ignore.
            }
        }
    }

    /// Folds one cell outcome with dedup: a cell that already landed (via a
    /// re-leased range) counts once, and the duplicate is telemetry.
    fn fold_outcome(
        fold: &mut MergeSink,
        index: usize,
        outcome: CellOutcome,
        stats: &mut LeaseStats,
    ) {
        if !fold.range().contains(&index) {
            return;
        }
        if fold.is_cell_complete(index) {
            stats.duplicate_cells += 1;
            return;
        }
        fold.offer(index, outcome);
    }
}
