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
//!   identification, producing the [`dtpm::ThermalPredictor`] the DTPM
//!   configuration uses.
//! * [`trace`], [`metrics`] — per-interval logging, CSV export and the
//!   power/performance/stability summaries the figures are built from.
//! * [`observer`] — the streaming result seam: every absorbed interval flows
//!   through a [`observer::RunObserver`] (full-trace, decimated, or
//!   summary-only retention) and every run produces an O(1)
//!   [`metrics::RunSummary`] from online accumulators.
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
//! * [`engine`] — the pluggable [`engine::PlantEngine`] backend seam: the
//!   per-interval plant contract (admit a lane, step all lanes, read per-lane
//!   temperatures and accumulated energy) with the scalar
//!   ([`engine::ScalarEngine`]) and structure-of-arrays
//!   ([`engine::PanelEngine`]) implementations.
//! * [`experiment::ScenarioSweep`] — runs many independent experiment
//!   configurations across `std::thread::scope` workers (deterministic,
//!   input-order results); with [`experiment::ScenarioSweep::with_lanes`]
//!   each worker drives a batched engine whose lanes are *recycled* from a
//!   shared scenario queue (the lane-compacting scheduler), for
//!   `threads × lanes` total parallelism.
//! * [`batch`] — the structure-of-arrays [`batch::BatchPlant`]: K plants
//!   advanced in lockstep, one scenario per panel column.
//! * [`naive`] — the checked-in naive baseline of the plant integrator, kept
//!   for benchmarking and trajectory-equivalence tests.
//! * [`resilience`] — the robustness layer for long campaigns: atomic
//!   checkpoint/resume ([`resilience::CampaignCheckpoint`] /
//!   [`resilience::CheckpointSink`]), the deterministic canonical-order
//!   fold ([`resilience::MergeSink`]) and the
//!   cell-level fault-containment policy ([`resilience::ResiliencePolicy`]:
//!   contained panics, bounded deterministic retry, cooperative per-cell
//!   deadlines) the sweep executor enforces.
//!
//! # Hot-path architecture
//!
//! [`plant::PhysicalPlant::step_interval`] performs zero heap allocations per
//! micro-step in steady state:
//!
//! * the node-power vector and integrator scratch live inside the plant and
//!   are reused across micro-steps,
//! * the fan enters the integrator as a [`thermal_model::FanBoost`] step
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
//! The `plant_step` Criterion bench in the `bench` crate measures this engine
//! against [`naive::NaivePhysicalPlant`] (acceptance bar: ≥ 5× micro-steps
//! per second) and cross-checks that both produce the same trajectory.
//!
//! # Batched scenario execution
//!
//! On top of the scalar engine, [`batch::BatchPlant`] advances K scenarios
//! per instruction stream with a structure-of-arrays state: node temperatures
//! and power injections live in `8 × K` panels, **one scenario per column**,
//! so each per-node row is contiguous across scenarios. Per micro-step the
//! batch engine
//!
//! * evaluates every lane's leakage in one unit-stride pass through a
//!   [`power_model::LeakagePanel`] (anchored exponential: an exact `exp`
//!   anchor refreshed every few micro-steps plus a short drift polynomial,
//!   accurate to a few ulps),
//! * assembles node powers from a per-interval linearisation
//!   `P = base + coef · I_leak`, and
//! * advances the thermal panel through one blocked mat-mat
//!   ([`thermal_model::BatchStepTransition`]), loading the 8×8 transition
//!   matrices once for all lanes.
//!
//! Control decisions stay per-lane ([`experiment::run_lockstep`] drives one
//! control loop per scenario against the shared batch plant), so batched and
//! scalar runs agree: the integrator is bit-identical, and full trajectories
//! match within 1e-9 °C (proven by `tests/equivalence.rs`). Batched stepping
//! applies when scenarios share the control period and (mostly) the
//! fan/ambient transition key; diverging lanes fall back to an equivalent
//! strided apply. The `sweep_step` Criterion bench pins the batched engine at
//! ≥ 2× the scalar per-scenario micro-step throughput at eight lanes.
//!
//! The *decision* side is batched too: each interval the executor stages
//! every lane's decision up to the thermal classification, then one fused
//! panel application of the precomputed horizon map
//! ([`dtpm::BatchPredictor`]) classifies all DTPM proposals at once —
//! bit-identical per lane to the scalar predictor, so only lanes actually
//! predicted to violate pay the scalar actuation walk. The `sweep_decide`
//! bench pins the batched two-phase decide at ≥ 1.5× decisions/s over the
//! per-lane iterated path on a control-heavy sweep (measured 13.4×, see
//! `BENCH_sweep_decide.json`).
//!
//! # The `PlantEngine` seam and the one executor
//!
//! Both execution paths above are instantiations of a single generic
//! control-loop executor over the [`engine::PlantEngine`] trait: per control
//! interval it retires finished scenarios, admits queued ones into the freed
//! lanes, lets every live lane decide, steps the engine once with per-lane
//! inputs, and absorbs the per-lane results. [`Experiment::run`] is the
//! executor over a one-lane [`engine::ScalarEngine`];
//! [`experiment::run_lockstep`] is the executor over an
//! [`engine::PanelEngine`] as wide as the configuration list. There is no
//! scalar-vs-batched fork in the stepping logic, and a future device backend
//! (GPU panels for calibration-scale sweeps) only has to implement the trait
//! — the per-step math it needs is already exposed by
//! [`thermal_model::BatchStepTransition`] (`r`/`s_power`/`ambient_drive`).
//!
//! # Lane-compacting sweeps
//!
//! [`experiment::ScenarioSweep`] feeds the same executor from a shared
//! atomic scenario queue: each worker owns an engine of
//! [`experiment::ScenarioSweep::with_lanes`] lanes and refills every freed
//! lane from the queue (retire → compact → admit via
//! [`engine::PlantEngine::admit`], which resets lane state and re-anchors
//! the lane's leakage models at the new scenario's initial temperature). A
//! ragged mix of short and long scenarios therefore no longer serialises on
//! the slowest member of a static lane-group; the `sweep_ragged` bench pins
//! compaction at ≥ 1.3× over static tiling on a 1-long + 3-short tile mix
//! (measured 2.15×, see `BENCH_sweep_ragged.json`), and `tests/compaction.rs` proves recycled lanes
//! reproduce scalar trajectories to ≤ 1e-9 °C.
//!
//! # Streaming results: observers, sinks, campaigns
//!
//! The result path is stream-then-aggregate, not accumulate-then-analyse.
//! Per absorbed control interval the control loop builds one [`TraceRecord`]
//! and hands it to two observers: an always-on [`observer::OnlineRunStats`]
//! (Welford mean/variance and running min/max via [`numeric::Welford`],
//! running power sum, intervention/residency counters — O(1) state) and the
//! [`observer::TracePolicy`]-selected trace-retention observer. When the run
//! retires it reports a [`RunReport`]: the streamed [`RunSummary`] — every
//! input of the paper's figures ([`StabilityReport`], mean power, energy,
//! execution time) — plus whatever trajectory the policy retained. Summaries
//! from a streaming run are bit-equal to those computed post-hoc from a
//! fully retained trace of the same run (`tests/streaming.rs`).
//!
//! Sweeps push reports into a [`ResultSink`] as lanes retire, tagged with
//! the scenario's input-order index; [`ScenarioSweep::run`] is the trivial
//! [`CollectSink`] instantiation with full traces. On top,
//! [`campaign::SweepSpec`] declares a whole evaluation grid as a value —
//! axes, campaign seed, shared timing — expands cells *lazily* as workers
//! claim them (per-cell seeds are [`campaign::splitmix64`] of the campaign
//! seed plus the cell index: distinct, stable, order-independent), and
//! streams through the same compacting scheduler.
//!
//! **Retain traces** ([`observer::TracePolicy::Full`]) when you need
//! trajectories: plots, CSV export, steady-portion analyses with a skip
//! fraction chosen after the fact. **Stream summaries**
//! ([`observer::TracePolicy::SummaryOnly`], the campaign default) for large
//! grids: retained memory is O(cells) instead of O(cells × intervals) — the
//! `sweep_campaign` bench measures ~19× less retention on a 200-cell grid
//! at just 40 intervals per cell, and the gap grows linearly with run
//! length ([`observer::TracePolicy::Decimated`] sits in between with coarse
//! trajectories). Scenario count is bounded by compute, not memory.
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
//! Every transition lands in the run's [`safety::IncidentLog`], streamed
//! through [`observer::RunObserver::on_incident`] and carried by the
//! [`RunSummary`]. The ladder thresholds sit above every fault-free
//! trajectory, screening passes valid readings through bit-unchanged, and
//! none of it draws from the RNG — so healthy runs are **bit-identical**
//! with the stack armed or disabled (`tests/faults.rs`), at wall-clock
//! overhead under 2 % (`safety_overhead` bench).
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
//! let result = Experiment::new(&config, &calibration)?.run()?;
//! println!("execution time: {:.1} s", result.execution_time_s);
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
pub mod naive;
pub mod observer;
pub mod plant;
pub mod resilience;
pub mod safety;
pub mod sensors;
pub mod trace;

pub use batch::BatchPlant;
pub use calibrate::{Calibration, CalibrationCampaign};
pub use campaign::{splitmix64, CampaignRunner, DtpmVariant, SweepSpec};
pub use distributed::{
    Coordinator, DistributedReport, LeaseStats, MemoryTransport, Transport, WorkerPool,
};
pub use engine::{
    EnginePrecision, LaneInput, MixedPanelEngine, PanelEngine, PlantEngine, ScalarEngine,
};
pub use error::SimError;
pub use experiment::{
    run_lockstep, CollectSink, Experiment, ExperimentConfig, ExperimentKind, ResultSink, RunReport,
    ScenarioSweep, SimulationResult,
};
pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultWindow, SensorChannel};
pub use metrics::{BenchmarkComparison, RunSummary, StabilityReport};
pub use mixed::MixedBatchPlant;
pub use naive::NaivePhysicalPlant;
pub use observer::{DecimatedTrace, OnlineRunStats, RunObserver, TracePolicy};
pub use plant::{PhysicalPlant, PlantPowerParams};
pub use resilience::{
    CampaignAggregate, CampaignCheckpoint, CellBitmap, CellFailure, CellOutcome, CellStats,
    ChaosPlan, CheckpointSink, MergeSink, ResiliencePolicy,
};
pub use safety::{
    FaultObservation, HealthConfig, Incident, IncidentKind, IncidentLog, LadderConfig,
    SafetyConfig, SafetyLadder, SafetyState, SensorHealth,
};
pub use sensors::{SensorReadings, SensorSuite};
pub use trace::{Trace, TraceRecord};
