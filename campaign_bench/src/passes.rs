//! One campaign pass per workload path: in process into a `MergeSink`, in
//! process through a `CheckpointSink`, and through the coordinator with
//! worker processes. Each returns its wall times and the merged fold; with
//! a tracer it also records spans around every layer call.

use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use platform_sim::distributed::ChildTransport;
use platform_sim::{
    Calibration, CampaignCheckpoint, CheckpointSink, Coordinator, DistributedReport, MergeSink,
    ResultSink, RunReport, SimError, SweepSpec, Transport,
};

use crate::domain::{DomainCells, DomainFold};
use crate::trace::{maybe_scope, maybe_span, Spanned, Tracer};
use crate::workloads::{calibration_recipe, CHECKPOINT_EVERY, CHECKPOINT_THREADS, WORKERS};

/// An in-process pass: cells claimed by the sweep to a complete fold.
#[derive(Debug)]
pub struct InProcess {
    pub campaign_s: f64,
    pub fold: MergeSink,
    pub domain: DomainCells,
}

/// Runs `spec` in process into a `MergeSink`. `lanes: None` keeps the
/// runner's default lane width; `threads: None` its default thread count.
pub fn in_process(
    spec: &SweepSpec,
    calibration: &Calibration,
    lanes: Option<usize>,
    threads: Option<usize>,
    tracer: Option<&Tracer>,
) -> InProcess {
    let cells = spec.cells();
    let mut runner = spec.runner();
    if let Some(lanes) = lanes {
        runner = runner.with_lanes(lanes);
    }
    if let Some(threads) = threads {
        runner = runner.with_threads(threads);
    }
    let merge = Spanned::new("resilience.merge_offer", tracer, MergeSink::new(0..cells));
    let outer = Spanned::new("resilience.sink_accept", tracer, merge);
    let mut sink = Spanned::new("campaign.deliver", tracer, DomainFold::new(cells, outer));
    let start = Instant::now();
    maybe_scope(tracer, "campaign.run_into", || {
        runner.run_into(calibration, &mut sink)
    });
    let campaign_s = start.elapsed().as_secs_f64();
    let (domain, outer) = sink.into_inner().into_parts();
    InProcess {
        campaign_s,
        fold: outer.into_inner().into_inner(),
        domain,
    }
}

/// A checkpointed pass and the snapshot writes it made.
#[derive(Debug)]
pub struct Checkpointed {
    pub fold: MergeSink,
    pub domain: DomainCells,
    pub checkpoint: CampaignCheckpoint,
    /// Ordinals of the deliveries during which the checkpoint file was
    /// replaced (traced passes only).
    pub write_deliveries: Vec<usize>,
    /// Snapshot writes seen on disk, the final one included (traced passes
    /// only).
    pub writes: usize,
}

/// Runs `spec` in process on [`CHECKPOINT_THREADS`] threads through a
/// `CheckpointSink` (snapshot every [`CHECKPOINT_EVERY`] cells to `path`)
/// wrapping a `MergeSink`.
///
/// # Errors
///
/// A failed final snapshot write.
pub fn checkpointed(
    spec: &SweepSpec,
    calibration: &Calibration,
    path: &Path,
    tracer: Option<&Tracer>,
) -> Result<Checkpointed, String> {
    // A leftover snapshot would only be overwritten, but starting from no
    // file makes the first replacement observable.
    let _ = std::fs::remove_file(path);
    let cells = spec.cells();
    let merge = Spanned::new("resilience.merge_offer", tracer, MergeSink::new(0..cells));
    let checkpoint = CheckpointSink::new(spec.fingerprint(), cells, path, CHECKPOINT_EVERY, merge);
    let watch = WriteWatch::new(tracer.map(|_| path.to_path_buf()), checkpoint);
    let outer = Spanned::new("resilience.sink_accept", tracer, watch);
    let mut sink = Spanned::new("campaign.deliver", tracer, DomainFold::new(cells, outer));
    maybe_scope(tracer, "campaign.run_into", || {
        spec.runner()
            .with_threads(CHECKPOINT_THREADS)
            .run_into(calibration, &mut sink)
    });
    let (domain, outer) = sink.into_inner().into_parts();
    let WriteWatch { mut files, inner } = outer.into_inner();
    let (checkpoint, merge, written) =
        maybe_span(tracer, "resilience.checkpoint_finish", || inner.finish());
    written.map_err(|e| format!("final checkpoint write failed: {e}"))?;
    let final_write = files.replaced();
    Ok(Checkpointed {
        fold: merge.into_inner(),
        domain,
        checkpoint,
        writes: files.writes.len() + usize::from(final_write),
        write_deliveries: files.writes,
    })
}

/// Notices, after each delivery, whether the checkpoint file was replaced:
/// every atomic write renames a fresh file over the path, so the inode
/// changes.
#[derive(Debug)]
struct WriteWatch<S> {
    files: InodeWatch,
    inner: S,
}

/// The watched path and what has been seen of it.
#[derive(Debug)]
struct InodeWatch {
    path: Option<PathBuf>,
    inode: Option<u64>,
    deliveries: usize,
    writes: Vec<usize>,
}

impl InodeWatch {
    /// Whether the file was replaced since the last look.
    fn replaced(&mut self) -> bool {
        let Some(path) = &self.path else {
            return false;
        };
        let inode = std::fs::metadata(path).ok().map(|m| m.ino());
        let replaced = inode.is_some() && inode != self.inode;
        self.inode = inode;
        replaced
    }
}

impl<S> WriteWatch<S> {
    fn new(path: Option<PathBuf>, inner: S) -> Self {
        WriteWatch {
            files: InodeWatch {
                path,
                inode: None,
                deliveries: 0,
                writes: Vec::new(),
            },
            inner,
        }
    }
}

impl<S: ResultSink> ResultSink for WriteWatch<S> {
    fn accept(&mut self, index: usize, outcome: Result<RunReport, SimError>) {
        self.inner.accept(index, outcome);
        if self.files.replaced() {
            self.files.writes.push(self.files.deliveries);
        }
        self.files.deliveries += 1;
    }
}

/// A pass through the coordinator and [`WORKERS`] worker processes.
#[derive(Debug)]
pub struct Distributed {
    pub spawn_s: f64,
    pub connect_s: f64,
    pub run_s: f64,
    pub shutdown_s: f64,
    pub report: DistributedReport,
}

impl Distributed {
    /// Worker spawn plus the handshake, during which the workers derive
    /// their calibration.
    pub fn setup_s(&self) -> f64 {
        self.spawn_s + self.connect_s
    }

    /// First lease to merged fold, plus worker shutdown.
    pub fn campaign_s(&self) -> f64 {
        self.run_s + self.shutdown_s
    }
}

/// How long worker shutdown may take before the pass fails.
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(30);

/// Runs `spec` through [`Coordinator`] defaults with [`WORKERS`] `worker`
/// child processes over stdio, and waits until every child has exited and
/// been reaped.
///
/// # Errors
///
/// Spawn, handshake and campaign failures, and workers that do not exit.
pub fn distributed(
    spec: &SweepSpec,
    seed: u64,
    worker: &Path,
    tracer: Option<&Tracer>,
) -> Result<Distributed, String> {
    let start = Instant::now();
    let children = maybe_span(tracer, "distributed.spawn", || {
        (0..WORKERS)
            .map(|_| ChildTransport::spawn(&mut Command::new(worker)))
            .collect::<std::io::Result<Vec<ChildTransport>>>()
    })
    .map_err(|e| format!("spawning {}: {e}", worker.display()))?;
    let spawn_s = start.elapsed().as_secs_f64();
    // The read half owns each child and reaps it once the worker's stream
    // ends; the pid tells when that has happened.
    let pids: Vec<String> = children
        .iter()
        .map(|child| child.label().trim_start_matches("child:").to_owned())
        .collect();
    let transports: Vec<Box<dyn Transport>> = children
        .into_iter()
        .map(|child| Box::new(child) as Box<dyn Transport>)
        .collect();

    let start = Instant::now();
    let pool = maybe_span(tracer, "distributed.connect", || {
        Coordinator::new(spec.clone())
            .with_calibration(calibration_recipe(), seed)
            .connect(transports)
    })
    .map_err(|e| format!("worker handshake failed: {e}"))?;
    let connect_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let report = maybe_span(tracer, "distributed.run", || pool.run())
        .map_err(|e| format!("distributed campaign failed: {e}"))?;
    let run_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    maybe_span(tracer, "distributed.shutdown", || await_reaped(&pids))?;
    let shutdown_s = start.elapsed().as_secs_f64();
    Ok(Distributed {
        spawn_s,
        connect_s,
        run_s,
        shutdown_s,
        report,
    })
}

/// Waits until no process with any of `pids` exists any more.
fn await_reaped(pids: &[String]) -> Result<(), String> {
    let deadline = Instant::now() + SHUTDOWN_TIMEOUT;
    while pids.iter().any(|pid| Path::new("/proc").join(pid).exists()) {
        if Instant::now() > deadline {
            return Err(format!("workers {pids:?} still running after shutdown"));
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    Ok(())
}
