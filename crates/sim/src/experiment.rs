//! Experimental configurations and the closed-loop simulation engine.
//!
//! Section 6.2 of the paper evaluates every benchmark under several
//! configurations; [`ExperimentKind`] reproduces them:
//!
//! * **Default configuration (with fan)** — stock governors plus the board's
//!   fan controller (57/63/68 °C).
//! * **Without fan** — stock governors, fan removed, no thermal management.
//! * **Reactive heuristic** — fan removed; a software throttler that mimics
//!   the fan control by cutting the frequency 18 %/25 % past 63/68 °C.
//! * **Proposed DTPM** — fan removed; the predictive DTPM algorithm using the
//!   identified thermal model and the run-time power model.
//!
//! The simulation engine is split along one seam. The `control` submodule
//! holds the per-run control loop: sensors, workload, governors and policy,
//! everything but the plant. The `executor` submodule holds the one
//! executor, which drives a control loop per engine lane against any
//! [`crate::engine::PlantEngine`] and picks that engine. [`ScenarioSweep`]
//! is declared here, beside the configurations it sweeps; the `sweep`
//! submodule holds its methods, the [`ResultSink`] seam and the one
//! sweep loop: workers claim result slots from a shared cursor, build each
//! slot's configuration only when they admit it, and re-run a retryable
//! failure on the worker that saw it. [`Experiment`] is the executor over
//! one lane; sweeps, campaigns, resumes and worker leases all run through
//! the sweep loop.

mod control;
mod executor;
mod sweep;

use dtpm::DtpmConfig;
use workload::BenchmarkId;

use self::control::{retained_trace, ControlLoop};
use self::executor::{drive_engine, engine_for, LaneSlot};
pub(crate) use self::sweep::{sweep_stream, SINK_BATCH};
pub use self::sweep::{CollectSink, ResultSink};
use crate::calibrate::Calibration;
use crate::engine::EnginePrecision;
use crate::faults::FaultPlan;
use crate::metrics::RunSummary;
use crate::observer::TracePolicy;
use crate::plant::PlantPowerParams;
use crate::resilience::{ChaosPlan, ResiliencePolicy};
use crate::safety::SafetyConfig;
use crate::trace::Trace;
use crate::SimError;

/// The experimental configurations of Section 6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentKind {
    /// Stock governors with the board fan enabled (the paper's baseline).
    DefaultWithFan,
    /// Stock governors with the fan removed and no thermal management at all.
    WithoutFan,
    /// Fan removed; reactive throttling heuristic mimicking the fan control.
    Reactive,
    /// Fan removed; the proposed predictive DTPM algorithm.
    Dtpm,
}

impl ExperimentKind {
    /// All four configurations.
    pub const ALL: [ExperimentKind; 4] = [
        ExperimentKind::DefaultWithFan,
        ExperimentKind::WithoutFan,
        ExperimentKind::Reactive,
        ExperimentKind::Dtpm,
    ];

    /// Short name used in tables and CSV output.
    pub fn name(self) -> &'static str {
        match self {
            ExperimentKind::DefaultWithFan => "default-with-fan",
            ExperimentKind::WithoutFan => "without-fan",
            ExperimentKind::Reactive => "reactive",
            ExperimentKind::Dtpm => "dtpm",
        }
    }
}

impl std::fmt::Display for ExperimentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Configuration of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Which thermal-management configuration to run.
    pub kind: ExperimentKind,
    /// Which benchmark to execute.
    pub benchmark: BenchmarkId,
    /// Random seed for workload jitter and sensor noise.
    pub seed: u64,
    /// Control interval (the kernel invokes the governors every 100 ms).
    pub control_period_s: f64,
    /// Safety cap on the simulated duration (a real run is stopped early when
    /// temperatures run away, exactly like the paper's without-fan runs).
    pub max_duration_s: f64,
    /// Ambient temperature, °C.
    pub ambient_c: f64,
    /// DTPM algorithm configuration (only used by [`ExperimentKind::Dtpm`]).
    pub dtpm: DtpmConfig,
    /// Plant (true silicon) parameters.
    pub plant: PlantPowerParams,
    /// Use ideal (noise-free) sensors instead of the realistic sensor chain.
    pub ideal_sensors: bool,
    /// Sensor fault scenario injected over the sampled readings (`None` or
    /// an empty plan: healthy sensors). Deterministic per plan seed.
    pub faults: Option<FaultPlan>,
    /// Safety ladder and sensor-health configuration. The default arms both
    /// layers; their thresholds sit above every fault-free trajectory, so
    /// healthy runs are bit-identical with or without them
    /// ([`SafetyConfig::disabled`] turns both off).
    pub safety: SafetyConfig,
    /// Plant-engine element precision. The default [`EnginePrecision::F64`]
    /// keeps every existing campaign bit-identical;
    /// [`EnginePrecision::F32`] runs the mixed-precision panel engine.
    pub precision: EnginePrecision,
    /// Deterministic executor-fault injection for containment testing
    /// (`None`: no injected faults, zero per-interval work). See
    /// [`ChaosPlan`].
    pub chaos: Option<ChaosPlan>,
}

impl ExperimentConfig {
    /// A configuration with the paper's defaults for the given kind and
    /// benchmark.
    pub fn new(kind: ExperimentKind, benchmark: BenchmarkId) -> Self {
        ExperimentConfig {
            kind,
            benchmark,
            seed: 1,
            control_period_s: 0.1,
            max_duration_s: 600.0,
            ambient_c: 28.0,
            dtpm: DtpmConfig::default(),
            plant: PlantPowerParams::default(),
            ideal_sensors: false,
            faults: None,
            safety: SafetyConfig::default(),
            precision: EnginePrecision::default(),
            chaos: None,
        }
    }

    /// Returns the configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the configuration with the given sensor fault scenario.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Returns the configuration with the given safety/health configuration.
    #[must_use]
    pub fn with_safety(mut self, safety: SafetyConfig) -> Self {
        self.safety = safety;
        self
    }

    /// Returns the configuration with the given plant-engine precision.
    #[must_use]
    pub fn with_precision(mut self, precision: EnginePrecision) -> Self {
        self.precision = precision;
        self
    }

    /// Returns the configuration with the given executor-fault injection
    /// plan (containment testing only; see [`ChaosPlan`]).
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosPlan) -> Self {
        self.chaos = Some(chaos);
        self
    }
}

/// What every run path returns for one run: its always-streamed
/// [`RunSummary`] plus whatever trajectory its [`TracePolicy`] retained
/// (full under [`TracePolicy::Full`], none under
/// [`TracePolicy::SummaryOnly`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The streamed per-run summary (O(1) in the run length).
    pub summary: RunSummary,
    /// The retained trajectory, if the run's [`TracePolicy`] kept one.
    pub trace: Option<Trace>,
}

/// The closed-loop simulation of one benchmark run: a control loop wired
/// to a single-lane engine (scalar f64 by default, the mixed-precision
/// panel under [`EnginePrecision::F32`]) and driven by the same generic
/// executor as the sweeping paths. [`Experiment::run`] returns the same
/// [`RunReport`] a sweep delivers per scenario; the trace is retained by
/// default ([`Experiment::with_recording`] turns it off).
#[derive(Debug)]
pub struct Experiment {
    control: ControlLoop,
}

impl Experiment {
    /// Builds an experiment from its configuration and the characterised
    /// models (power model + identified thermal predictor). The configuration
    /// is borrowed; the one owned copy lives in the eventual report's
    /// [`RunSummary`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for non-physical timing parameters.
    pub fn new(config: &ExperimentConfig, calibration: &Calibration) -> Result<Self, SimError> {
        Ok(Experiment {
            control: ControlLoop::new(config, calibration, TracePolicy::Full)?,
        })
    }

    /// Replaces the run's trace-retention policy (the default is
    /// [`TracePolicy::Full`]).
    #[must_use]
    pub fn with_recording(mut self, recording: TracePolicy) -> Self {
        self.control.trace = retained_trace(recording);
        self
    }

    /// Runs the experiment to completion and returns its report: the
    /// streamed [`RunSummary`] plus the trace, if the recording policy
    /// retained one.
    ///
    /// # Errors
    ///
    /// Propagates plant, platform and DTPM errors.
    pub fn run(self) -> Result<RunReport, SimError> {
        let control = self.control;
        let period_s = control.config.control_period_s;
        let mut engine = engine_for(
            control.spec.clone(),
            &[control.config.plant],
            1,
            control.config.precision,
        );
        let mut lanes = [LaneSlot::holding(0, 0, control)];
        let mut out = None;
        drive_engine(
            engine.as_mut(),
            period_s,
            &mut lanes,
            &ResiliencePolicy::default(),
            &mut || None,
            &mut |_, _, result| out = Some(result),
        );
        out.expect("a single-lane run publishes exactly one result")
    }
}

/// Runs many independent experiment configurations across worker threads
/// with a lane-compacting scheduler.
///
/// Every configuration is a self-contained closed-loop simulation (own plant,
/// sensors, workload and seed), so a sweep is embarrassingly parallel: the
/// runner shares one [`Calibration`] across `std::thread::scope` workers that
/// pull scenarios from a shared atomic work queue. With
/// [`ScenarioSweep::with_lanes`] each worker drives a [`PanelEngine`](crate::PanelEngine) of that
/// width and *recycles* its lanes: when a scenario finishes, the lane is
/// retired, re-initialised and refilled with the next queued scenario
/// (retire → compact → admit via [`PlantEngine::admit`](crate::engine::PlantEngine::admit)), so a ragged mix of
/// short and long scenarios no longer serialises on the slowest member of a
/// statically tiled lane-group — the batch stays dense until the queue runs
/// dry. Results come back in input order; each scenario's trajectory is
/// independent of which lane or worker it landed on and of when it was
/// admitted: bit-identical across every multi-lane width, and within the
/// batched engine's ≤ 1e-9 °C equivalence bar of the one-lane (scalar)
/// sweep.
///
/// Scenarios must share a control period to step in lockstep; a sweep over
/// mixed periods is partitioned into per-period groups that are processed
/// one after another, each with the full worker pool.
///
/// # Example
///
/// ```no_run
/// use platform_sim::{CalibrationCampaign, ExperimentConfig, ExperimentKind, ScenarioSweep};
/// use workload::BenchmarkId;
///
/// # fn main() -> Result<(), platform_sim::SimError> {
/// let calibration = CalibrationCampaign::default().run(7)?;
/// let configs: Vec<ExperimentConfig> = (0..16)
///     .map(|seed| {
///         ExperimentConfig::new(ExperimentKind::Dtpm, BenchmarkId::Templerun)
///             .with_seed(seed)
///     })
///     .collect();
/// let results = ScenarioSweep::new(configs).run(&calibration);
/// assert_eq!(results.len(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioSweep {
    configs: Vec<ExperimentConfig>,
    threads: usize,
    lanes: usize,
    recording: TracePolicy,
    resilience: ResiliencePolicy,
}
