//! Sweeps: many scenarios streamed through the executor's lane-compacting
//! engines into a result sink, through one sweep loop.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use soc_model::SocSpec;

use super::control::ControlLoop;
use super::executor::{drive_engine, engine_for, panic_error, LaneSlot};
use super::{ExperimentConfig, RunReport, ScenarioSweep};
use crate::calibrate::Calibration;
use crate::engine::EnginePrecision;
use crate::observer::TracePolicy;
use crate::plant::PlantPowerParams;
use crate::resilience::ResiliencePolicy;
use crate::SimError;

impl ScenarioSweep {
    /// Creates a sweep over the given configurations using one worker per
    /// available CPU (capped at the number of configurations), scalar
    /// (one-lane) execution and full trace retention.
    pub fn new(configs: Vec<ExperimentConfig>) -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        ScenarioSweep {
            threads: parallelism.min(configs.len()).max(1),
            configs,
            lanes: 1,
            recording: TracePolicy::Full,
            resilience: ResiliencePolicy::default(),
        }
    }

    /// Overrides the worker-thread count (clamped to at least one).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets what each run retains per interval: full traces (the default)
    /// or streamed summaries only — the knob that
    /// decouples a campaign's memory footprint from its scenario count.
    /// Every report carries its [`RunSummary`](crate::RunSummary) under
    /// either policy; only its `trace` depends on this.
    pub fn with_recording(mut self, recording: TracePolicy) -> Self {
        self.recording = recording;
        self
    }

    /// Sets the batch width: every worker drives a structure-of-arrays
    /// [`PanelEngine`](crate::PanelEngine) of this many lanes, refilling
    /// freed lanes from the shared scenario queue, so total parallelism is
    /// `threads × lanes`. One lane (the default) is the scalar per-scenario
    /// engine.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.max(1);
        self
    }

    /// The configurations in this sweep.
    pub fn configs(&self) -> &[ExperimentConfig] {
        &self.configs
    }

    /// The worker-thread count the sweep will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The batch width (scenarios advanced per instruction stream).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The per-run trace-retention policy.
    pub fn recording(&self) -> TracePolicy {
        self.recording
    }

    /// Sets the containment policy: retry budget for panicking/overrunning
    /// scenarios and the cooperative per-cell interval deadline (default:
    /// no retries, no deadline — panic containment itself is always on).
    #[must_use]
    pub fn with_resilience(mut self, resilience: ResiliencePolicy) -> Self {
        self.resilience = resilience;
        self
    }

    /// The containment policy the sweep will apply.
    pub fn resilience(&self) -> ResiliencePolicy {
        self.resilience
    }

    /// Runs every configuration and returns one report per configuration,
    /// in input order. Individual failures do not abort the sweep.
    ///
    /// This is the trivial-sink instantiation of the streaming pipeline: the
    /// sweep runs into a [`CollectSink`], so every report is held until the
    /// last one retires — under the default [`TracePolicy::Full`] memory
    /// scales as scenarios × intervals, under [`TracePolicy::SummaryOnly`]
    /// as scenarios. Campaigns that aggregate as they go should stream
    /// through [`ScenarioSweep::run_into`] instead.
    pub fn run(&self, calibration: &Calibration) -> Vec<Result<RunReport, SimError>> {
        let mut sink = CollectSink::new(self.configs.len());
        self.run_into(calibration, &mut sink);
        sink.into_reports()
    }

    /// Runs every configuration, pushing each scenario's [`RunReport`] into
    /// `sink` as its lane retires — tagged with the scenario's input-order
    /// index, in *arrival* order (scenarios on other workers finish
    /// whenever they finish). What each report carries is governed by
    /// [`ScenarioSweep::with_recording`]; with
    /// [`TracePolicy::SummaryOnly`] the sweep's memory footprint is O(1) per
    /// in-flight lane plus whatever the sink keeps, independent of run
    /// lengths — scenario count is no longer bounded by trace memory.
    ///
    /// The sink is shared by all workers behind a mutex; it is locked once
    /// per scenario completion (not per interval), so sink contention is
    /// negligible against simulation work.
    pub fn run_into<S>(&self, calibration: &Calibration, sink: &mut S)
    where
        S: ResultSink + Send + ?Sized,
    {
        // Lockstep needs a shared control period and one engine needs a
        // shared precision: partition the scenario indices into
        // per-(period, precision) groups (almost always exactly one) and
        // sweep the groups one after another, each with the full pool.
        let mut groups: Vec<((u64, EnginePrecision), Vec<usize>)> = Vec::new();
        for (index, config) in self.configs.iter().enumerate() {
            let key = (config.control_period_s.to_bits(), config.precision);
            match groups.iter_mut().find(|(group, _)| *group == key) {
                Some((_, slots)) => slots.push(index),
                None => groups.push((key, vec![index])),
            }
        }
        let sink = std::sync::Mutex::new(sink);
        for ((period_bits, precision), slots) in &groups {
            let next = AtomicUsize::new(0);
            sweep_stream(
                self.threads.min(slots.len()),
                self.lanes,
                f64::from_bits(*period_bits),
                *precision,
                &|| slots.get(next.fetch_add(1, Ordering::Relaxed)).copied(),
                &|slot| self.configs[slot].clone(),
                self.recording,
                calibration,
                &self.resilience,
                &sink,
            );
        }
    }
}

/// Destination of a streaming sweep's per-scenario reports.
///
/// [`ResultSink::accept`] is called exactly once per scenario, tagged with
/// the scenario's input-order index, as lanes retire (arrival order is not
/// input order across workers). Sinks aggregate however they like: collect
/// everything ([`CollectSink`]), fold summaries into running statistics,
/// write rows to disk — the pipeline itself retains nothing.
pub trait ResultSink {
    /// Accepts scenario `index`'s report (or its failure). Individual
    /// failures do not abort a sweep, so sinks see every index exactly once.
    fn accept(&mut self, index: usize, outcome: Result<RunReport, SimError>);
}

/// The trivial sink: collects every report into its input-order slot.
#[derive(Debug, Default)]
pub struct CollectSink {
    slots: Vec<Option<Result<RunReport, SimError>>>,
}

impl CollectSink {
    /// A sink with one empty slot per expected scenario.
    pub fn new(count: usize) -> CollectSink {
        CollectSink {
            slots: (0..count).map(|_| None).collect(),
        }
    }

    /// Consumes the sink into one report per scenario, in input order.
    ///
    /// # Panics
    ///
    /// Panics if any slot was never filled (the sweep it was handed to did
    /// not cover every index).
    pub fn into_reports(self) -> Vec<Result<RunReport, SimError>> {
        self.slots
            .into_iter()
            .map(|slot| slot.expect("every sweep slot is filled"))
            .collect()
    }
}

impl ResultSink for CollectSink {
    fn accept(&mut self, index: usize, outcome: Result<RunReport, SimError>) {
        assert!(
            self.slots[index].replace(outcome).is_none(),
            "every sweep slot is written exactly once"
        );
    }
}

/// The null sink: discards every delivery. Useful as the inner sink of a
/// wrapper that does all the aggregation itself (e.g. a
/// [`crate::CheckpointSink`] whose checkpoint fold is the result).
impl ResultSink for () {
    fn accept(&mut self, _index: usize, _outcome: Result<RunReport, SimError>) {}
}

/// Retired results a sweep worker buffers before taking the sink lock:
/// batching amortises the mutex handoff across deliveries, so a wide pool of
/// fast cells no longer serialises on the sink. Small enough that sink-side
/// effects (checkpoint cadence, a distributed worker's outcome frames) lag
/// completion by at most a few cells; a distributed worker's `Cells` frame
/// holds at most this many outcomes.
pub(crate) const SINK_BATCH: usize = 8;

/// The one streaming sweep body every sweep, campaign, resume and worker
/// session runs through: `threads` workers (at least one) drive
/// lane-compacting engines of `lanes` lanes at one control period and
/// engine precision. A worker takes result slots from `claim` and builds
/// each slot's configuration through `cell` only when it admits the slot —
/// nothing about a scenario exists before a worker claims it — and every
/// report is pushed into the shared sink as its lane retires.
/// [`ScenarioSweep`] (one call per lockstep group, claiming from the
/// group's slot list) and the campaign runner (claiming grid cells) are the
/// instantiations.
///
/// The sink is delivered to behind poison-recovering locking with the
/// `accept` call itself under `catch_unwind`: a sink that panics on one
/// result neither poisons the mutex (deadlocking or aborting sibling
/// workers) nor unwinds a worker — the failed delivery is reported to
/// stderr and the sweep carries on. `policy` arms the executor's per-cell
/// containment (see [`drive_engine`]) and, with a non-zero retry budget,
/// bounded deterministic retry: a cell that failed retryably
/// ([`ResiliencePolicy::is_retryable`]) runs again on the worker that saw it
/// fail — its configuration rebuilt from its slot through `cell`, no RNG
/// state involved — up to `max_retries` times before its final error is
/// delivered (poison-cell quarantine).
#[allow(clippy::too_many_arguments)] // one call-site-shared body, not an API
pub(crate) fn sweep_stream<S>(
    threads: usize,
    lanes: usize,
    period_s: f64,
    precision: EnginePrecision,
    claim: &(dyn Fn() -> Option<usize> + Sync),
    cell: &(dyn Fn(usize) -> ExperimentConfig + Sync),
    recording: TracePolicy,
    calibration: &Calibration,
    policy: &ResiliencePolicy,
    sink: &std::sync::Mutex<&mut S>,
) where
    S: ResultSink + Send + ?Sized,
{
    let worker = || {
        // Retired results awaiting delivery. Each entry is handed to the
        // sink exactly once — at the next batch flush or at worker exit —
        // so the ResultSink contract (every index, exactly once) and the
        // merge layer's order-independence are untouched; only the lock
        // cadence changes.
        let outbox = std::cell::RefCell::new(
            Vec::<(usize, Result<RunReport, SimError>)>::with_capacity(SINK_BATCH),
        );
        // Delivers the buffered results to the shared sink under one lock
        // acquisition. Poison recovery + catch_unwind keep a panicking sink
        // from taking the sweep down: the unwind is stopped while the guard
        // is still held, so the mutex is never poisoned in the first place,
        // and recovery makes even an externally-poisoned mutex (a sink
        // panic outside this path) non-fatal to siblings.
        let flush = || {
            let batch: Vec<(usize, Result<RunReport, SimError>)> = {
                let mut outbox = outbox.borrow_mut();
                if outbox.is_empty() {
                    return;
                }
                outbox.drain(..).collect()
            };
            let mut sink_panics: Vec<String> = Vec::new();
            {
                let mut guard = sink
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                for (slot, result) in batch {
                    if let Err(payload) =
                        catch_unwind(AssertUnwindSafe(|| guard.accept(slot, result)))
                    {
                        sink_panics.push(format!(
                            "result sink panicked accepting slot {slot} (result discarded): {}",
                            panic_error(payload.as_ref())
                        ));
                    }
                }
            }
            for message in sink_panics {
                eprintln!("{message}");
            }
        };
        // Queues one final result for delivery, flushing a full batch.
        let deliver = |slot: usize, result: Result<RunReport, SimError>| {
            let full = {
                let mut outbox = outbox.borrow_mut();
                outbox.push((slot, result));
                outbox.len() >= SINK_BATCH
            };
            if full {
                flush();
            }
        };
        // The retries this worker owes, as (slot, attempt). A cell that
        // failed retryably here runs again here, so no lane, map or peer
        // has to hold its configuration; empty when the budget is zero.
        let retries = std::cell::RefCell::new(Vec::<(usize, u32)>::new());
        // Admits the next scenario — this worker's retries first, then a
        // newly claimed slot — publishing construction failures in place.
        let mut next = || loop {
            let retry = retries.borrow_mut().pop();
            let (slot, attempt) = match retry {
                Some(retry) => retry,
                None => (claim()?, 0),
            };
            let mut config = cell(slot);
            if let Some(chaos) = config.chaos.as_mut() {
                chaos.attempt = attempt;
            }
            match ControlLoop::new(&config, calibration, recording) {
                Ok(control) => return Some((slot, attempt, control)),
                Err(e) => deliver(slot, Err(e)),
            }
        };
        // Routes a retired result: a retryable failure with budget left
        // goes back on this worker's retry list (`drive_engine` calls
        // `next` after every publish, so it runs before the engine drains);
        // everything else is final and delivered.
        let mut publish = |slot: usize, attempt: u32, result: Result<RunReport, SimError>| {
            if let Err(error) = &result {
                if attempt < policy.max_retries && ResiliencePolicy::is_retryable(error) {
                    retries.borrow_mut().push((slot, attempt + 1));
                    return;
                }
            }
            deliver(slot, result);
        };

        // Claim the initial lane-group; the engine is sized to what the
        // queue could actually provide, so a near-empty queue never creates
        // idle-from-birth lanes.
        let claimed: Vec<(usize, u32, ControlLoop)> =
            std::iter::from_fn(&mut next).take(lanes).collect();
        if !claimed.is_empty() {
            let params: Vec<PlantPowerParams> = claimed
                .iter()
                .map(|(_, _, control)| control.config.plant)
                .collect();
            let mut lane_slots: Vec<LaneSlot> = claimed
                .into_iter()
                .map(|(slot, attempt, control)| LaneSlot::holding(slot, attempt, control))
                .collect();
            let mut engine = engine_for(SocSpec::odroid_xu_e(), &params, lanes, precision);
            drive_engine(
                engine.as_mut(),
                period_s,
                &mut lane_slots,
                policy,
                &mut next,
                &mut publish,
            );
        }
        // Everything this worker retired reaches the sink before the worker
        // (and therefore the sweep) returns.
        flush();
    };
    if threads <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }
}
