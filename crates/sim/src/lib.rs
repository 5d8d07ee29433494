//! Closed-loop co-simulation of the Odroid-XU+E platform.
//!
//! This crate stands in for the physical test bench of the paper (Figure 6.1):
//! the Odroid-XU+E board, its power/temperature sensors, the external power
//! meter, the temperature furnace and the Android software stack. It wires the
//! substrate crates into a closed loop running at the kernel's 100 ms control
//! interval:
//!
//! ```text
//!  workload ──► governors (ondemand + hotplug) ──► proposed configuration
//!                                                        │
//!            DTPM / fan / reactive baseline  ◄── sensors ─┤
//!                     │                                   │
//!                     ▼                                   │
//!  platform state ──► physical plant (power + RC thermal network) ──► sensors
//! ```
//!
//! * [`plant`] — the "silicon": converts the platform state and workload
//!   demand into true per-domain powers (with parameters deliberately
//!   different from the characterised power model) and integrates the
//!   eight-node RC thermal network.
//! * [`sensors`] — sampling, quantisation and noise for the on-board sensors
//!   and the external power meter.
//! * [`experiment`] — the four experimental configurations of Section 6.2
//!   (default with fan, without fan, reactive heuristic, proposed DTPM) and
//!   the simulation engine that runs a benchmark under one of them.
//! * [`calibrate`] — the characterisation campaign: the furnace sweep for the
//!   leakage model and the per-domain PRBS experiments for system
//!   identification, run as parallel tasks whose results do not depend on
//!   the thread count, producing the [`dtpm::ThermalPredictor`] the DTPM
//!   configuration uses. The PRBS experiments write one flat, preallocated
//!   log that identification and validation read in place. A distributed
//!   campaign calibrates once, in the coordinator, and ships the result.
//! * [`trace`], [`metrics`] — per-interval logging, CSV export and the
//!   power/performance/stability summaries the figures are built from.
//! * [`observer`] — the streaming result seam: every absorbed interval
//!   folds into an [`observer::OnlineRunStats`], so every run produces an
//!   O(1) [`metrics::RunSummary`]; a full trace is retained only on
//!   request.
//! * [`campaign`] — declarative sweep campaigns: a
//!   [`campaign::SweepSpec`] grid (kinds × benchmarks × ambients ×
//!   replicates × DTPM variants) expanded lazily with deterministic per-cell
//!   seeds and streamed through the compacting sweep into a
//!   [`experiment::ResultSink`].
//! * [`faults`] — seed-deterministic sensor fault injection: a declarative
//!   [`faults::FaultPlan`] of per-channel fault windows (stuck-at, dropped,
//!   offset drift, spikes, delayed readings) applied to the *measured*
//!   chain by a [`faults::FaultInjector`], and exposed as a
//!   [`campaign::SweepSpec`] grid axis.
//! * [`safety`] — the robustness layer above any policy: the thermal
//!   [`safety::SafetyLadder`] (Normal → Throttle → Critical →
//!   SimulatedShutdown with hysteresis de-escalation), the
//!   [`safety::SensorHealth`] monitor (plausibility screening, last-known-
//!   good substitution, policy demotion/promotion), and the structured
//!   [`safety::IncidentLog`] both record into.
//! * [`engine`] — the [`engine::PlantEngine`] seam: the per-interval plant
//!   contract (admit a lane, step all lanes, read per-lane temperatures)
//!   and the scalar [`engine::ScalarEngine`].
//! * [`experiment::ScenarioSweep`] — runs many independent experiment
//!   configurations across `std::thread::scope` workers (deterministic,
//!   input-order results); with [`experiment::ScenarioSweep::with_lanes`]
//!   each worker drives a batched engine whose lanes are *recycled* from a
//!   shared scenario queue (the lane-compacting scheduler), for
//!   `threads × lanes` total parallelism.
//! * [`batch`] — the structure-of-arrays [`batch::PanelEngine`]: K plants
//!   advanced in lockstep, one scenario per panel column.
//! * [`mixed`] — [`mixed::MixedPanelEngine`], the same panel layout at f32
//!   width with f64 anchoring.
//! * [`resilience`] — the robustness layer for long campaigns: atomic
//!   checkpoint/resume ([`resilience::CampaignCheckpoint`], the grid
//!   fingerprint plus its fold, maintained by
//!   [`resilience::CheckpointSink`]), the deterministic canonical-order
//!   fold ([`resilience::MergeSink`]) and the
//!   cell-level fault-containment policy ([`resilience::ResiliencePolicy`]:
//!   contained panics, bounded deterministic retry, cooperative per-cell
//!   deadlines) the sweep executor enforces.
//!
//! # Hot-path architecture
//!
//! Once a cell is admitted, its control intervals touch no heap until it
//! retires: in a summaries-only run (the default [`TracePolicy`]) on either
//! f64 engine, each interval decides, steps the plant and absorbs in state
//! that admission or engine construction sized.
//!
//! * [`soc_model::PlatformState`] is a `Copy` value with fixed-size hotplug
//!   masks, so the governors' proposal, a DTPM decision
//!   ([`dtpm::DtpmPolicy::decide`]) and an idle lane's frozen inputs are
//!   copies,
//! * the executor builds each interval's engine inputs in one buffer it
//!   keeps across intervals and hands the engine one reused step buffer,
//!   and [`batch::PanelEngine`] keeps its per-lane setup errors in a field.
//!
//! Admission itself builds no plant: every engine re-initialises the freed
//! lane in place ([`engine::PlantEngine::admit`]), so what a cell costs the
//! heap (its control loop and report) does not depend on the lane count.
//!
//! `tests/interval_allocations.rs` enforces both with a counting allocator:
//! one grid of the three paper kinds, healthy and under sensor faults, on
//! one lane and on eight, run to two duration caps; the extra intervals
//! must add fewer than one allocation per cell. The same grid at one and
//! at two replicates bounds what an extra cell costs one lane by what it
//! costs eight, plus one allocation.
//!
//! Inside the interval, [`plant::PhysicalPlant::step_interval`] performs
//! zero heap allocations per micro-step:
//!
//! * the node-power vector and integrator scratch live inside the plant and
//!   are reused across micro-steps,
//! * the fan enters the transition as a [`thermal_model::FanBoost`]
//!   parameter instead of a cloned network, and the RK4 transition
//!   ([`thermal_model::StepTransition`]) for the current (fan, ambient) pair
//!   is cached across intervals,
//! * the online-core list is a fixed-size array computed once per control
//!   interval, and everything state/demand-dependent in the power computation
//!   is hoisted out of the micro-step loop (only the temperature-dependent
//!   leakage terms, evaluated with `power_model::currents_batch`, remain),
//! * memory leakage is folded into the memory power floor
//!   (`PlantPowerParams::memory_base_w`); no leakage model is evaluated for
//!   the memory domain.
//!
//! `tests/equivalence.rs` holds this engine to a naive copy of the original
//! allocating loop, kept in the test tree, and the campaign benchmark's
//! `engine.scalar-1.*` probe measures it end to end.
//!
//! # Batched scenario execution
//!
//! On top of the scalar engine, [`batch::PanelEngine`] advances K scenarios
//! per instruction stream with a structure-of-arrays state: node temperatures
//! and power injections live in `8 × K` panels, **one scenario per column**,
//! so each per-node row is contiguous across scenarios. Per micro-step the
//! batch engine
//!
//! * evaluates every lane's leakage in one unit-stride pass through a
//!   [`power_model::LeakagePanel`] (anchored exponential: an exact `exp`
//!   anchor refreshed every few micro-steps of the lane's own, counted from
//!   its admission, plus a short drift polynomial, accurate to a few ulps),
//! * assembles node powers from a per-interval linearisation
//!   `P = base + coef · I_leak`, and
//! * advances the thermal panel through one blocked mat-mat
//!   ([`thermal_model::BatchStepTransition`]), loading the 8×8 transition
//!   matrices once for all lanes; each lane's ambient enters as its own
//!   drive column of the bias kernel, so the transition is keyed by fan
//!   level alone.
//!
//! Control decisions stay per-lane (the executor drives one control loop per
//! scenario against the shared batch plant), so batched and scalar runs
//! agree: the integrator is bit-identical, and full trajectories match
//! within 1e-9 °C (proven by `tests/equivalence.rs`). On the batch engine a
//! scenario's trajectory depends on its own inputs only — not on its lane,
//! its batch mates, the thread it ran on or when it was admitted — so any
//! panel width, thread count, lease split or resume gives the same bits
//! (`tests/compaction.rs`, `tests/resilience.rs`). Batched stepping applies
//! when scenarios share the control period. Lanes at different fan levels
//! cost one panel pass per fan transition in use, each lane keeping its own
//! transition's pass, with the same bits. The `sweep_step` bench asserts a
//! floor on the batched engine's micro-step throughput over the scalar
//! per-scenario engine at eight lanes; the floor and the last measurement
//! are recorded in `BENCH_sweep_step.json`.
//!
//! The *decision* side stays per lane: each DTPM lane predicts its proposal
//! one horizon ahead with a single application of the precomputed horizon
//! map ([`dtpm::DtpmPolicy::decide`]), a 4×4 affine map that costs little
//! next to the lane's plant step, so the executor does not batch it. The
//! `sweep_decide` bench compares batched ([`dtpm::BatchPredictor`]) and
//! iterated classification at the `dtpm` level (`BENCH_sweep_decide.json`).
//!
//! # The `PlantEngine` seam and the one executor
//!
//! Both execution paths above are instantiations of a single generic
//! control-loop executor over the [`engine::PlantEngine`] trait: per
//! control interval it retires finished scenarios, admits queued ones into
//! the freed lanes, lets every live lane decide, steps the engine once with
//! per-lane inputs, and absorbs the per-lane results. [`Experiment::run`]
//! is the executor over a one-lane engine, and the one sweep loop behind
//! [`ScenarioSweep`], [`CampaignRunner`], checkpoint resume and worker
//! leases runs it over per-worker engines of the sweep's lane width. Each
//! lane carries its result slot and attempt number, and the executor hands
//! every retired result to its caller before it admits the lane's next
//! scenario. One function picks every engine from the lane count and
//! [`engine::EnginePrecision`]: [`engine::ScalarEngine`] for one f64 lane,
//! [`PanelEngine`] for more, and [`MixedPanelEngine`] under f32. There is
//! no scalar-vs-batched fork in the stepping logic.
//!
//! # Lane-compacting sweeps
//!
//! Every sweep, campaign, resume and worker lease runs through one sweep
//! loop fed by two closures: `claim` hands out the next result slot from a
//! shared cursor (the sweep's slot list, the grid, a checkpoint's missing
//! cells or a lease's range), and `cell` builds a slot's configuration only
//! when a worker admits it. Each worker owns an engine of
//! [`experiment::ScenarioSweep::with_lanes`] lanes and refills every freed
//! lane from the cursor (retire → compact → admit via
//! [`engine::PlantEngine::admit`], which resets lane state and re-anchors
//! the lane's leakage models at the new scenario's initial temperature). A
//! ragged mix of short and long scenarios therefore no longer serialises on
//! the slowest member of a static lane-group; the `sweep_ragged` bench
//! measures compaction against static tiling on a 1-long + 3-short tile mix
//! (floor and last measurement in `BENCH_sweep_ragged.json`), and
//! `tests/compaction.rs` proves recycled lanes reproduce scalar trajectories
//! to ≤ 1e-9 °C and the scenario's solo panel run to the bit. A cell that
//! fails retryably runs again on the worker that saw it fail, its
//! configuration rebuilt from its slot; since a cell's bits depend on
//! nothing but its own inputs, a healed retry folds to the bits of a cell
//! that never faulted. A [`ScenarioSweep`] that mixes control periods or
//! engine precisions runs one such loop per group, one group after
//! another. [`campaign::SweepSpec::runner`] and the distributed
//! [`distributed::Coordinator`] default to panels of [`numeric::LANE_CHUNK`]
//! lanes.
//!
//! # Streaming results: observers, sinks, campaigns
//!
//! The result path is stream-then-aggregate, not accumulate-then-analyse.
//! Per absorbed control interval the control loop builds one [`TraceRecord`]
//! and folds it into an always-on [`observer::OnlineRunStats`] (Welford
//! mean/variance and running min/max via [`numeric::Welford`], running
//! power sum, intervention/residency counters — O(1) state); under
//! [`observer::TracePolicy::Full`] it also keeps the record in the run's
//! [`Trace`]. Every run path — [`Experiment::run`], [`ScenarioSweep::run`],
//! sinks, campaigns and workers — reports a run as one [`RunReport`]: the
//! streamed [`RunSummary`] — every input of the paper's figures
//! ([`StabilityReport`], mean power, energy, execution time) — plus the
//! trace, if the policy retained one. The policy never changes the summary,
//! and the summary equals a replay of the retained trace through the same
//! accumulators (`tests/streaming.rs`).
//!
//! Sweeps push reports into a [`ResultSink`] as lanes retire, tagged with
//! the scenario's input-order index; [`ScenarioSweep::run`] is the trivial
//! [`CollectSink`] instantiation. On top,
//! [`campaign::SweepSpec`] declares a whole evaluation grid as a value —
//! axes, campaign seed, shared timing — expands cells *lazily* as workers
//! claim them (per-cell seeds are [`campaign::splitmix64`] of the campaign
//! seed plus the cell index: distinct, stable, order-independent), and
//! streams through the same compacting scheduler.
//!
//! **Retain traces** ([`observer::TracePolicy::Full`], the
//! [`ScenarioSweep`] default) when you need trajectories: plots, CSV
//! export, steady-portion analyses with a skip fraction chosen after the
//! fact ([`StabilityReport::of_steady_portion`]); a grid's trajectories come
//! from `ScenarioSweep::new(spec.expand().collect())`. **Stream summaries**
//! ([`observer::TracePolicy::SummaryOnly`]) for large grids: a campaign
//! always does, so its retained memory is O(cells) instead of O(cells ×
//! intervals), a gap that grows linearly with run length
//! (`tests/streaming.rs` holds that a streamed campaign retains no trace).
//! Scenario count is bounded by compute, not memory.
//!
//! # Robustness: faults, the safety ladder, graceful degradation
//!
//! Between sampling and the control decision sits a robustness stack,
//! armed by default in every run:
//!
//! * **Fault injection** ([`faults`]): a [`faults::FaultPlan`] corrupts the
//!   measured chain — never the plant — inside declared time windows.
//!   Injection is a pure function of the plan seed and the interval index
//!   (no RNG state), so the same seed + plan replay bit-identically
//!   regardless of which sweep lane, thread, or shard the run lands on.
//! * **Sensor health** ([`safety::SensorHealth`]): each channel is screened
//!   against a plausibility envelope (finite, in range, not flatlined);
//!   invalid readings are replaced with the last-known-good value under a
//!   staleness budget. A chain stale beyond its budget demotes the DTPM
//!   policy to the [`governors::ReactiveThrottler`] fallback (same
//!   constraint, no model in the loop) and promotes it back after a
//!   sustained healthy streak — or, with the fallback disabled, drains the
//!   lane with a structured [`error::SimError::Sensor`] that never disturbs
//!   lockstep siblings.
//! * **Safety ladder** ([`safety::SafetyLadder`]): a watchdog above the
//!   policy escalates Normal → Throttle → Critical → SimulatedShutdown on
//!   the screened hot-spot temperature (with dwell + hysteresis
//!   de-escalation) and enforces each rung after the policy commits;
//!   shutdown retires the run.
//!
//! Every transition lands in the run's [`safety::IncidentLog`], carried by
//! the [`RunSummary`]. The ladder thresholds sit above every fault-free
//! trajectory, screening passes valid readings through bit-unchanged, and
//! none of it draws from the RNG — so healthy runs are **bit-identical**
//! with the stack armed or disabled (`tests/faults.rs`). The
//! `safety_overhead` bench holds the armed stack's wall-clock cost to a 2 %
//! ceiling; `BENCH_safety_overhead.json` records its paired median and
//! verdict.
//!
//! # Example
//!
//! ```no_run
//! use platform_sim::{CalibrationCampaign, Experiment, ExperimentConfig, ExperimentKind};
//! use workload::BenchmarkId;
//!
//! # fn main() -> Result<(), platform_sim::SimError> {
//! // Characterise the platform once (furnace + PRBS identification)...
//! let calibration = CalibrationCampaign::default().run(7)?;
//! // ...then run Temple Run under the proposed DTPM policy.
//! let config = ExperimentConfig::new(ExperimentKind::Dtpm, BenchmarkId::Templerun);
//! let report = Experiment::new(&config, &calibration)?.run()?;
//! println!("execution time: {:.1} s", report.summary.execution_time_s);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod calibrate;
pub mod campaign;
pub mod distributed;
pub mod engine;
pub mod error;
pub mod experiment;
pub mod faults;
pub mod metrics;
pub mod mixed;
pub mod observer;
pub mod plant;
pub mod resilience;
pub mod safety;
pub mod sensors;
pub mod trace;

pub use batch::PanelEngine;
pub use calibrate::{Calibration, CalibrationCampaign};
pub use campaign::{splitmix64, CampaignRunner, DtpmVariant, SweepSpec};
pub use distributed::{
    Coordinator, DistributedReport, LeaseStats, MemoryTransport, Transport, WorkerPool,
};
pub use engine::{EnginePrecision, LaneInput, PlantEngine, ScalarEngine};
pub use error::SimError;
pub use experiment::{
    CollectSink, Experiment, ExperimentConfig, ExperimentKind, ResultSink, RunReport, ScenarioSweep,
};
pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultWindow, SensorChannel};
pub use metrics::{BenchmarkComparison, RunSummary, StabilityReport};
pub use mixed::MixedPanelEngine;
pub use observer::{OnlineRunStats, RunObserver, TracePolicy};
pub use plant::{PhysicalPlant, PlantPowerParams};
pub use resilience::{
    CampaignAggregate, CampaignCheckpoint, CellFailure, CellOutcome, CellStats, ChaosPlan,
    CheckpointSink, MergeSink, ResiliencePolicy,
};
pub use safety::{
    FaultObservation, HealthConfig, Incident, IncidentKind, IncidentLog, LadderConfig,
    SafetyConfig, SafetyLadder, SafetyState, SensorHealth,
};
pub use sensors::{SensorReadings, SensorSuite};
pub use trace::{Trace, TraceRecord};
