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

use std::panic::{catch_unwind, AssertUnwindSafe};

use dtpm::{DtpmConfig, DtpmInputs, DtpmPolicy};
use governors::{
    CpufreqGovernor, FanController, GovernorInput, HotplugGovernor, OndemandGovernor,
    ReactiveThrottler,
};
use power_model::PowerModel;
use soc_model::{ClusterKind, FanLevel, Frequency, PlatformState, PowerDomain, SocSpec};
use workload::{BenchmarkId, Demand, WorkloadState};

use crate::calibrate::Calibration;
use crate::engine::{
    EnginePrecision, LaneInput, MixedPanelEngine, PanelEngine, PlantEngine, ScalarEngine,
};
use crate::faults::{FaultInjector, FaultPlan};
use crate::metrics::RunSummary;
use crate::observer::{OnlineRunStats, RunObserver, TracePolicy};
use crate::plant::{PlantPowerParams, PlantStep};
use crate::resilience::{ChaosPlan, ResiliencePolicy};
use crate::safety::{IncidentLog, SafetyConfig, SafetyLadder, SensorHealth};
use crate::sensors::{SensorReadings, SensorSuite};
use crate::trace::{Trace, TraceRecord};
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

/// What one retired run reports through the streaming pipeline: its always-
/// streamed [`RunSummary`] plus whatever trajectory its observer retained
/// (full under [`TracePolicy::Full`], none under
/// [`TracePolicy::SummaryOnly`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The streamed per-run summary (O(1) in the run length).
    pub summary: RunSummary,
    /// The retained trajectory, if the run's [`TracePolicy`] kept one.
    pub trace: Option<Trace>,
}

impl RunReport {
    /// Converts a trace-retaining report into the classic
    /// [`SimulationResult`].
    ///
    /// # Panics
    ///
    /// Panics if the run retained no trace ([`TracePolicy::SummaryOnly`]);
    /// use [`RunReport::summary`] directly in streaming pipelines.
    pub fn into_simulation_result(self) -> SimulationResult {
        let trace = self
            .trace
            .expect("run retained no trace (TracePolicy::SummaryOnly); use the summary instead");
        let RunSummary {
            config,
            completed,
            execution_time_s,
            energy_j,
            mean_platform_power_w,
            ..
        } = self.summary;
        SimulationResult {
            config,
            trace,
            execution_time_s,
            completed,
            mean_platform_power_w,
            energy_j,
        }
    }
}

/// Outcome of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    /// The configuration that produced this result.
    pub config: ExperimentConfig,
    /// Per-interval trace.
    pub trace: Trace,
    /// Execution time of the benchmark, seconds (equal to the duration cap if
    /// the benchmark did not finish).
    pub execution_time_s: f64,
    /// Whether the benchmark ran to completion within the duration cap.
    pub completed: bool,
    /// Mean total platform power over the run, watts.
    pub mean_platform_power_w: f64,
    /// Total platform energy over the run, joules.
    pub energy_j: f64,
}

/// Everything in the closed loop except the physical plant: sensors,
/// workload, governors, the configured thermal-management policy, and the
/// running trace/energy bookkeeping.
///
/// Splitting the controller side out of the plant is what lets one executor
/// ([`drive_engine`]) drive K control loops against one multi-lane engine:
/// control decisions stay strictly per-lane while the plant integration is
/// batched.
#[derive(Debug)]
struct ControlLoop {
    config: ExperimentConfig,
    spec: SocSpec,
    sensors: SensorSuite,
    workload: WorkloadState,
    governor: OndemandGovernor,
    hotplug: HotplugGovernor,
    fan: FanController,
    reactive: ReactiveThrottler,
    dtpm_policy: Option<DtpmPolicy>,
    power_model: PowerModel,
    state: PlatformState,
    readings: SensorReadings,
    /// Replays the configured [`FaultPlan`] over each interval's sampled
    /// readings (`None`: healthy sensors, zero per-interval work).
    faults: Option<FaultInjector>,
    /// Screens every reading before the policy sees it and tracks chain
    /// reliability (the degraded-mode state machine).
    health: SensorHealth,
    /// The escalating thermal watchdog above the policy.
    ladder: SafetyLadder,
    /// Every robustness event of the run, in firing order.
    incidents: IncidentLog,
    /// Set when the ladder's terminal rung fires: the run retires at the
    /// end of the interval (always after ≥ 1 absorbed interval, so a
    /// retiring run's statistics are never empty).
    shutdown: bool,
    /// Streaming run statistics, maintained for every run regardless of the
    /// trace policy (they cost a handful of flops per interval and make the
    /// [`RunSummary`] unconditional).
    stats: OnlineRunStats,
    /// The per-interval trace under [`TracePolicy::Full`]; `None` under
    /// [`TracePolicy::SummaryOnly`].
    trace: Option<Trace>,
    time_s: f64,
    energy_j: f64,
    completed: bool,
    max_steps: usize,
    steps_taken: usize,
}

/// The trace a run under `recording` starts with.
fn retained_trace(recording: TracePolicy) -> Option<Trace> {
    match recording {
        TracePolicy::Full => Some(Trace::new()),
        TracePolicy::SummaryOnly => None,
    }
}

/// One control interval's decisions, handed from [`ControlLoop::decide`]
/// to the plant step and back into [`ControlLoop::absorb`].
#[derive(Debug, Clone)]
struct IntervalDecision {
    demand: Demand,
    fan_level: FanLevel,
    predicted_peak_c: Option<f64>,
    intervened: bool,
}

impl ControlLoop {
    fn new(
        config: &ExperimentConfig,
        calibration: &Calibration,
        recording: TracePolicy,
    ) -> Result<Self, SimError> {
        if !(config.control_period_s > 0.0) {
            return Err(SimError::InvalidConfig("control period must be positive"));
        }
        if !(config.max_duration_s > config.control_period_s) {
            return Err(SimError::InvalidConfig(
                "maximum duration must exceed the control period",
            ));
        }
        // A NaN or infinite ambient or plant parameter would run to `Ok`
        // with NaN energy and fold silently into a campaign's aggregate.
        if !config.ambient_c.is_finite() {
            return Err(SimError::InvalidConfig(
                "ambient temperature must be finite",
            ));
        }
        if !config.plant.is_finite() {
            return Err(SimError::InvalidConfig("plant parameters must be finite"));
        }
        // The fault-plan gate: every run path (scalar experiments, sweeps
        // and campaigns) builds its control loops here, so a malformed
        // sensor-fault scenario is rejected with a descriptive error before
        // anything executes instead of producing silent nonsense
        // mid-campaign.
        if let Some(plan) = &config.faults {
            plan.validate()?;
        }
        let spec = SocSpec::odroid_xu_e().with_ambient_c(config.ambient_c);
        let mut sensors = if config.ideal_sensors {
            SensorSuite::ideal(config.seed)
        } else {
            SensorSuite::odroid_defaults(config.seed)
        };
        let workload = WorkloadState::new(
            config.benchmark,
            config.seed.wrapping_mul(31).wrapping_add(7),
        );
        let fan = match config.kind {
            ExperimentKind::DefaultWithFan => FanController::odroid_default(),
            _ => FanController::disabled(),
        };
        let dtpm_policy = match config.kind {
            ExperimentKind::Dtpm => {
                // Validates the DTPM configuration and precomputes the
                // one-shot horizon map (shared with every other loop cloned
                // from this calibration's predictor).
                Some(DtpmPolicy::new(config.dtpm, calibration.predictor.clone())?)
            }
            _ => None,
        };
        let state = PlatformState::default_for(&spec);
        let max_steps = (config.max_duration_s / config.control_period_s).ceil() as usize;
        // The degraded-mode fallback throttler: a DTPM lane that loses its
        // sensor chain demotes to reactive throttling *at the policy's own
        // constraint*; other kinds keep the paper's reactive geometry.
        let reactive = match &dtpm_policy {
            Some(policy) => ReactiveThrottler::for_constraint(policy.effective_constraint_c()),
            None => ReactiveThrottler::paper_default(),
        };
        let mut health_config = config.safety.health;
        if config.ideal_sensors {
            // A noiseless chain legitimately repeats readings exactly (the
            // plant settling to an f64 fixed point), so flatline detection
            // is only meaningful for a noisy chain.
            health_config.flatline_intervals = 0;
        }
        let mut faults = config
            .faults
            .clone()
            .filter(|plan| !plan.is_empty())
            .map(FaultInjector::new);
        let mut health = SensorHealth::new(health_config);
        let mut ladder = SafetyLadder::new(config.safety.ladder);
        let mut incidents = IncidentLog::default();
        // Bootstrap sensor readings from the initial plant state (every node
        // starts at the configured initial temperature), through the same
        // inject → screen → observe chain every later interval takes
        // (interval 0 = the bootstrap sample).
        let sampled = sensors.sample(
            [config.plant.initial_temp_c; 4],
            &power_model::DomainPower::default(),
            config.plant.board_base_w,
        );
        let sampled = match faults.as_mut() {
            Some(injector) => injector.apply(0, 0.0, sampled),
            None => sampled,
        };
        let readings = health.screen(0, 0.0, sampled, &mut incidents);
        ladder.observe(0, 0.0, readings.max_core_temp_c(), &mut incidents);
        Ok(ControlLoop {
            config: config.clone(),
            spec,
            sensors,
            workload,
            governor: OndemandGovernor::default(),
            hotplug: HotplugGovernor::exynos_default(),
            fan,
            reactive,
            dtpm_policy,
            power_model: calibration.power_model.clone(),
            state,
            readings,
            faults,
            health,
            ladder,
            incidents,
            shutdown: false,
            stats: OnlineRunStats::new(),
            trace: retained_trace(recording),
            time_s: 0.0,
            energy_j: 0.0,
            completed: false,
            max_steps,
            steps_taken: 0,
        })
    }

    /// Whether the run is over (benchmark complete, duration cap reached, or
    /// the safety ladder's terminal rung fired).
    fn is_done(&self) -> bool {
        self.completed || self.shutdown || self.steps_taken >= self.max_steps
    }

    /// The default (stock governor) proposal for the next interval: the big
    /// cluster stays active, `ondemand` picks the frequency from the load,
    /// the hotplug governor picks the core count and a simple GPU governor
    /// tracks GPU utilisation.
    fn default_proposal(&mut self, demand: &Demand) -> PlatformState {
        let mut proposal = self.state.clone();
        // The stock switcher prefers the big cluster whenever there is
        // foreground load (all paper benchmarks run on the big cores).
        proposal.active_cluster = ClusterKind::Big;

        // Frequency from ondemand: the load is the busy fraction of the most
        // loaded core over the last interval.
        let load = demand.cpu_streams.min(1.0);
        let freq = self.governor.select_frequency(
            &GovernorInput {
                load,
                current: proposal.big_frequency,
            },
            self.spec.big_opps(),
        );
        proposal.big_frequency = freq;

        // Core count from the hotplug governor.
        let online_target = self.hotplug.select_core_count(
            demand.cpu_streams,
            proposal.online_core_count(ClusterKind::Big),
        );
        for core in 0..4 {
            proposal.set_core_online(ClusterKind::Big, core, core < online_target);
        }

        // GPU frequency follows GPU utilisation.
        let gpu_opps = self.spec.gpu_opps();
        proposal.gpu_frequency = if demand.gpu_utilization > 0.05 {
            let target_mhz = gpu_opps.highest().frequency.mhz() as f64
                * demand.gpu_utilization.clamp(0.0, 1.0)
                / 0.85;
            gpu_opps
                .ceil(Frequency::from_mhz(target_mhz.ceil() as u32))
                .frequency
        } else {
            gpu_opps.lowest().frequency
        };
        proposal
    }

    /// This interval's control decisions: workload demand, governor
    /// proposal and the configuration-specific thermal management. A DTPM
    /// lane feeds the run-time power model and lets [`DtpmPolicy::decide`]
    /// predict the proposal's peak one horizon ahead and affirm or actuate.
    ///
    /// # Errors
    ///
    /// Propagates platform and DTPM errors, and drains the lane with
    /// [`SimError::Sensor`] when an invalid reading reaches the decision
    /// boundary unscreened, or when the chain is unreliable and the degraded
    /// fallback is disabled.
    fn decide(&mut self) -> Result<IntervalDecision, SimError> {
        // Executor-fault injection for containment testing: fires (panics)
        // only when the run's config carries an armed chaos plan.
        if let Some(chaos) = &self.config.chaos {
            chaos.maybe_panic(self.steps_taken);
        }
        // The control-loop boundary check: with the health monitor armed
        // this never trips (screening substituted already); with it off, a
        // non-finite reading drains the lane with a structured error instead
        // of flowing silently into fan control and throttling decisions.
        if !self.readings.is_valid() {
            return Err(SimError::Sensor(
                "non-finite sensor reading reached the control loop unscreened".into(),
            ));
        }
        let demand = self.workload.demand();
        let proposal = self.default_proposal(&demand);

        // Degraded mode: the chain is unreliable (a channel outlived its
        // staleness budget). The predictive policy must not keep deciding on
        // substituted data — demote it to the reactive throttler at its own
        // constraint, or drain the lane when the fallback is disabled.
        // Non-DTPM kinds have no model in the loop and carry on screened.
        if self.config.kind == ExperimentKind::Dtpm && self.health.degraded() {
            if !self.health.fallback_enabled() {
                return Err(SimError::Sensor(
                    "sensor chain unreliable and the degraded fallback is disabled".into(),
                ));
            }
            let mut state = proposal;
            let throttled = self.reactive.apply(
                self.readings.max_core_temp_c(),
                state.big_frequency,
                self.spec.big_opps(),
            );
            let intervened = throttled != state.big_frequency;
            state.big_frequency = throttled;
            return Ok(self.commit(demand, state, None, intervened));
        }

        match self.config.kind {
            ExperimentKind::DefaultWithFan | ExperimentKind::WithoutFan => {
                Ok(self.commit(demand, proposal, None, false))
            }
            ExperimentKind::Reactive => {
                let mut state = proposal;
                let throttled = self.reactive.apply(
                    self.readings.max_core_temp_c(),
                    state.big_frequency,
                    self.spec.big_opps(),
                );
                let intervened = throttled != state.big_frequency;
                state.big_frequency = throttled;
                Ok(self.commit(demand, state, None, intervened))
            }
            ExperimentKind::Dtpm => {
                // Feed the run-time power model with the latest sensor data
                // (Figure 4.4) before making the decision.
                let active = self.state.active_cluster;
                let active_freq = self.state.cluster_frequency(active);
                let active_volts = self.spec.cluster_opps(active).voltage_for(active_freq)?;
                self.power_model.observe(
                    PowerDomain::from_cluster(active),
                    self.readings.domain_power[PowerDomain::from_cluster(active)],
                    self.readings.max_core_temp_c(),
                    active_volts,
                    active_freq,
                );
                let gpu_volts = self.spec.gpu_opps().voltage_for(self.state.gpu_frequency)?;
                self.power_model.observe(
                    PowerDomain::Gpu,
                    self.readings.domain_power[PowerDomain::Gpu],
                    self.readings.max_core_temp_c(),
                    gpu_volts,
                    self.state.gpu_frequency,
                );

                let policy = self
                    .dtpm_policy
                    .as_ref()
                    .expect("DTPM configuration always constructs a policy");
                let decision = policy.decide(
                    &DtpmInputs {
                        spec: &self.spec,
                        proposed: proposal,
                        core_temps_c: self.readings.core_temps_c,
                        measured_power: self.readings.domain_power,
                    },
                    &self.power_model,
                )?;
                let intervened = decision.action != dtpm::DtpmAction::Affirmed;
                Ok(self.commit(
                    demand,
                    decision.state,
                    Some(decision.predicted_peak_c),
                    intervened,
                ))
            }
        }
    }

    /// The shared tail of a decision: fan control (only meaningful in the
    /// default configuration), programming the decided platform state —
    /// clamped by whatever rung the safety ladder currently holds, which
    /// overrides *any* policy — and the [`IntervalDecision`] record.
    fn commit(
        &mut self,
        demand: Demand,
        next_state: PlatformState,
        predicted_peak_c: Option<f64>,
        intervened: bool,
    ) -> IntervalDecision {
        let fan_level: FanLevel = self.fan.update(self.readings.max_core_temp_c());
        self.state = next_state;
        self.state.fan_level = fan_level;
        let enforced = self.ladder.enforce(&mut self.state, &self.spec);
        IntervalDecision {
            demand,
            fan_level,
            predicted_peak_c,
            intervened: intervened || enforced,
        }
    }

    /// Folds one plant interval back into the loop: workload progress, energy
    /// accounting, the next interval's sensor readings and the trace record.
    fn absorb(&mut self, decision: &IntervalDecision, step: &PlantStep) {
        let control_period = self.config.control_period_s;
        self.workload.advance(step.work_done);
        self.time_s += control_period;
        self.energy_j += step.platform_power_w * control_period;

        // Sample the sensors for the next interval's decisions, through the
        // robustness chain: inject the configured faults over the sampled
        // values, screen what the controller will see, and feed the screened
        // maximum temperature to the watchdog.
        let interval = self.steps_taken + 1;
        let sampled =
            self.sensors
                .sample(step.core_temps_c, &step.domain_power, step.platform_power_w);
        let sampled = match self.faults.as_mut() {
            Some(injector) => injector.apply(interval, self.time_s, sampled),
            None => sampled,
        };
        self.readings = self
            .health
            .screen(interval, self.time_s, sampled, &mut self.incidents);
        self.ladder.observe(
            interval,
            self.time_s,
            self.readings.max_core_temp_c(),
            &mut self.incidents,
        );
        if self.ladder.is_shutdown() {
            self.shutdown = true;
        }

        // Stream the interval instead of accumulating: the online stats
        // always fold it in (O(1) state); a retained trace keeps it too.
        let record = TraceRecord {
            time_s: self.time_s,
            core_temps_c: self.readings.core_temps_c,
            active_cluster: self.state.active_cluster,
            frequency_mhz: self.state.active_frequency().mhz(),
            online_cores: self.state.active_online_core_count(),
            gpu_frequency_mhz: self.state.gpu_frequency.mhz(),
            fan_level: decision.fan_level,
            domain_power: self.readings.domain_power,
            platform_power_w: self.readings.platform_power_w,
            progress: self.workload.progress(),
            predicted_peak_c: decision.predicted_peak_c,
            dtpm_intervened: decision.intervened,
        };
        self.stats.on_interval(&record);
        if let Some(trace) = &mut self.trace {
            trace.push(record);
        }

        self.steps_taken += 1;
        if self.workload.is_complete() {
            self.completed = true;
        }
    }

    /// Consumes the loop and produces the run's report: the streamed summary
    /// plus whatever trace the policy retained.
    fn finish(self) -> RunReport {
        RunReport {
            summary: RunSummary {
                config: self.config,
                completed: self.completed,
                execution_time_s: self.time_s,
                intervals: self.stats.intervals(),
                energy_j: self.energy_j,
                mean_platform_power_w: self.stats.mean_platform_power_w(),
                stability: self.stats.stability(),
                intervention_rate: self.stats.intervention_rate(),
                little_cluster_residency: self.stats.little_cluster_residency(),
                incidents: self.incidents,
            },
            trace: self.trace,
        }
    }
}

/// One engine lane's bookkeeping inside [`drive_engine`]: which result slot
/// it reports to, its control loop while a scenario is in flight, and the
/// frozen plant inputs replayed while the lane idles.
struct LaneSlot {
    /// Index into the caller's configuration (and result) order.
    slot: usize,
    /// `None` once the lane has retired its scenario (and no replacement was
    /// admitted from the work queue).
    control: Option<ControlLoop>,
    /// This interval's decision, between decide and absorb.
    decision: Option<IntervalDecision>,
    /// The plant inputs replayed while the lane idles, captured once when
    /// its scenario retires: the final platform state with idle demand and
    /// the fan off (the finished scenario's platform cooling down). An idle
    /// lane's results are already captured and engine lanes are strictly
    /// isolated, so the replayed inputs only keep the engine call well
    /// formed — they cannot perturb the surviving lanes' trajectories.
    frozen: (PlatformState, Demand, FanLevel, f64),
}

impl LaneSlot {
    /// A lane holding a freshly admitted control loop.
    fn holding(slot: usize, control: ControlLoop) -> Self {
        LaneSlot {
            slot,
            frozen: frozen_inputs(&control),
            control: Some(control),
            decision: None,
        }
    }
}

/// The idle-replay inputs captured when a lane's scenario retires: its final
/// platform state winding down with idle demand and the fan off. Every
/// retire site uses this one helper so retire-on-done and retire-on-error
/// lanes idle identically.
fn frozen_inputs(control: &ControlLoop) -> (PlatformState, Demand, FanLevel, f64) {
    (
        control.state.clone(),
        Demand::idle(),
        FanLevel::Off,
        control.config.ambient_c,
    )
}

/// Renders a contained panic payload as a structured
/// [`SimError::Panicked`], preserving the panic message when it is a string
/// (the overwhelmingly common case: `panic!`, `assert!`, index/overflow
/// panics all carry one).
fn panic_error(payload: &(dyn std::any::Any + Send)) -> SimError {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    SimError::Panicked(message)
}

/// One lane's engine inputs for the current interval: the decided inputs
/// while a scenario is in flight, the frozen retire snapshot while it idles.
fn lane_input(lane: &LaneSlot) -> LaneInput<'_> {
    match (&lane.control, &lane.decision) {
        (Some(control), Some(decision)) => LaneInput {
            state: &control.state,
            demand: &decision.demand,
            fan_level: decision.fan_level,
            ambient_c: control.config.ambient_c,
        },
        _ => LaneInput {
            state: &lane.frozen.0,
            demand: &lane.frozen.1,
            fan_level: lane.frozen.2,
            ambient_c: lane.frozen.3,
        },
    }
}

/// The unified control-loop executor: drives one [`ControlLoop`] per engine
/// lane against any [`PlantEngine`] until every scenario has finished and
/// the work queue is dry.
///
/// Per control interval the executor
///
/// 1. walks the lanes once: each lane **retires** its scenario when it is
///    done (publishing the result), **admits** a replacement from `next`
///    into a freed lane (retire → compact → admit; the lane restarts at the
///    new scenario's initial state via [`PlantEngine::admit`]), and
///    **decides** its next interval ([`ControlLoop::decide`]; a DTPM lane
///    predicts its proposal one horizon ahead through its own policy). A
///    lane whose decision fails retires on the spot and admits the next
///    queued scenario in its place,
/// 2. advances the engine by one interval with per-lane inputs (idle lanes
///    replay their frozen inputs), and
/// 3. absorbs the per-lane plant steps back into the control loops.
///
/// Control decisions stay strictly per-lane; only the plant integration is
/// delegated to the engine, which [`engine_for`] picks. [`Experiment::run`]
/// is this function over a single-lane engine with an empty queue, and the
/// lane-compacting [`ScenarioSweep`] over per-worker engines refilled from
/// a shared scenario queue (a one-thread sweep as wide as its configuration
/// list is plain lockstep).
///
/// Every lane's result is reported through `publish` exactly once, keyed by
/// the slot index handed out by `next` (or pre-assigned in `lanes`);
/// individual lane failures never abort the other lanes. An engine-level
/// error (malformed call, lost device) is unattributable to one lane and is
/// reported on every unfinished lane *and* every scenario remaining in the
/// queue, so no result slot is ever left unfilled.
///
/// **Cell-level fault containment.** Every per-lane control-loop call
/// (decide, absorb, finish) runs under
/// `catch_unwind`: a panicking cell retires with a structured
/// [`SimError::Panicked`] — its partially-mutated control loop is discarded
/// whole — while sibling lanes continue untouched (lanes are strictly
/// isolated, so a quarantined lane's idle replay cannot perturb survivors).
/// `policy` additionally arms the cooperative per-cell deadline: a cell
/// still running after `deadline_intervals` absorbed intervals is cancelled
/// at the next interval boundary with [`SimError::Deadline`] instead of
/// hanging its worker.
fn drive_engine<E, N, P>(
    engine: &mut E,
    period_s: f64,
    lanes: &mut [LaneSlot],
    policy: &ResiliencePolicy,
    next: &mut N,
    publish: &mut P,
) where
    E: PlantEngine + ?Sized,
    N: FnMut() -> Option<(usize, ControlLoop)>,
    P: FnMut(usize, Result<RunReport, SimError>),
{
    debug_assert_eq!(engine.lanes(), lanes.len(), "engine width matches lanes");
    let mut steps: Vec<Result<PlantStep, SimError>> = Vec::with_capacity(lanes.len());
    loop {
        // Phase 1: retire → admit → decide, per lane.
        let mut any_active = false;
        for (index, lane) in lanes.iter_mut().enumerate() {
            loop {
                match lane.control.as_mut() {
                    Some(control) if control.is_done() => {
                        lane.frozen = frozen_inputs(control);
                        let control = lane.control.take().expect("control is present");
                        // The engine's per-lane accumulated energy is the
                        // same integral the control loop publishes; hold the
                        // two accountants to each other at retirement
                        // (before any idle intervals accrue on the lane).
                        debug_assert!(
                            (engine.energy_j(index) - control.energy_j).abs()
                                <= 1e-9 * control.energy_j.abs().max(1.0),
                            "engine and control-loop energy bookkeeping diverged"
                        );
                        let report = catch_unwind(AssertUnwindSafe(move || control.finish()))
                            .map_err(|payload| panic_error(payload.as_ref()));
                        publish(lane.slot, report);
                        // Fall through to the admission arm.
                    }
                    Some(control) if policy.exceeds_deadline(control.steps_taken) => {
                        // The cooperative watchdog: the cell overran its
                        // interval budget — cancel it cleanly at this
                        // interval boundary instead of hanging the worker.
                        lane.frozen = frozen_inputs(control);
                        publish(
                            lane.slot,
                            Err(SimError::Deadline {
                                intervals: control.steps_taken,
                            }),
                        );
                        lane.control = None;
                        // Fall through to the admission arm.
                    }
                    Some(control) => {
                        let decided = catch_unwind(AssertUnwindSafe(|| control.decide()))
                            .unwrap_or_else(|payload| Err(panic_error(payload.as_ref())));
                        match decided {
                            Ok(decision) => {
                                lane.decision = Some(decision);
                                any_active = true;
                                break;
                            }
                            Err(e) => {
                                lane.frozen = frozen_inputs(control);
                                publish(lane.slot, Err(e));
                                lane.control = None;
                                // Fall through to the admission arm.
                            }
                        }
                    }
                    None => match next() {
                        Some((slot, control)) => {
                            engine.admit(index, control.config.plant);
                            lane.slot = slot;
                            lane.control = Some(control);
                            // `frozen` still holds the previous occupant's
                            // retire snapshot; every retire path recaptures
                            // it before this lane can idle again.
                            // Loop back so the fresh scenario decides now.
                        }
                        None => break,
                    },
                }
            }
        }
        if !any_active {
            break;
        }

        // Phase 2: advance every engine lane one interval (frozen inputs for
        // idle lanes). The single-lane case — the scalar `Experiment::run`
        // hot path — borrows its one input on the stack, keeping that path
        // allocation-free per interval as before the refactor.
        let single_input;
        let multi_inputs;
        let inputs: &[LaneInput<'_>] = if let [lane] = &*lanes {
            single_input = [lane_input(lane)];
            &single_input
        } else {
            multi_inputs = lanes.iter().map(lane_input).collect::<Vec<_>>();
            &multi_inputs
        };
        if let Err(e) = engine.step_interval(inputs, period_s, &mut steps) {
            // An engine-level error (malformed call, lost device) cannot be
            // attributed to one lane; report it on all unfinished lanes. The
            // engine is unusable now, so the queue's remaining scenarios can
            // never run here either — drain it with the same error so every
            // result slot is filled.
            for lane in lanes.iter_mut() {
                if lane.control.take().is_some() {
                    publish(lane.slot, Err(e.clone()));
                }
            }
            while let Some((slot, _control)) = next() {
                publish(slot, Err(e.clone()));
            }
            break;
        }

        // Phase 3: absorb per lane.
        for (lane, step) in lanes.iter_mut().zip(steps.drain(..)) {
            let Some(control) = lane.control.as_mut() else {
                continue;
            };
            let Some(decision) = lane.decision.take() else {
                continue;
            };
            match step {
                Ok(step) => {
                    if let Err(payload) =
                        catch_unwind(AssertUnwindSafe(|| control.absorb(&decision, &step)))
                    {
                        lane.frozen = frozen_inputs(control);
                        publish(lane.slot, Err(panic_error(payload.as_ref())));
                        lane.control = None;
                    }
                }
                Err(e) => {
                    lane.frozen = frozen_inputs(control);
                    publish(lane.slot, Err(e));
                    lane.control = None;
                }
            }
        }
    }
}

/// Builds the engine for one run or sweep group: `params` holds the plant
/// parameters of the lanes it starts with, `lanes` the group's configured
/// batch width. One f64 lane gets the [`ScalarEngine`], wider f64 batches
/// the [`PanelEngine`], and [`EnginePrecision::F32`] the
/// [`MixedPanelEngine`] at every width. This is the only place an engine
/// for [`drive_engine`] is built.
fn engine_for(
    spec: SocSpec,
    params: &[PlantPowerParams],
    lanes: usize,
    precision: EnginePrecision,
) -> Box<dyn PlantEngine> {
    match precision {
        EnginePrecision::F64 if lanes == 1 => Box::new(ScalarEngine::new(spec, params)),
        EnginePrecision::F64 => Box::new(PanelEngine::new(spec, params)),
        EnginePrecision::F32 => Box::new(MixedPanelEngine::new(spec, params)),
    }
}

/// The closed-loop simulation of one benchmark run: a control loop wired
/// to a single-lane engine (scalar f64 by default, the mixed-precision
/// panel under [`EnginePrecision::F32`]) and driven by the same generic
/// executor as the sweeping paths.
#[derive(Debug)]
pub struct Experiment {
    control: ControlLoop,
}

impl Experiment {
    /// Builds an experiment from its configuration and the characterised
    /// models (power model + identified thermal predictor). The configuration
    /// is borrowed; the one owned copy lives in the eventual
    /// [`SimulationResult`].
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
    /// [`TracePolicy::Full`]). Under [`TracePolicy::SummaryOnly`] use
    /// [`Experiment::run_report`] — [`Experiment::run`] needs a retained
    /// trace.
    #[must_use]
    pub fn with_recording(mut self, recording: TracePolicy) -> Self {
        self.control.trace = retained_trace(recording);
        self
    }

    /// Runs the experiment to completion and returns the result.
    ///
    /// # Errors
    ///
    /// Propagates plant, platform and DTPM errors.
    ///
    /// # Panics
    ///
    /// Panics if the experiment was switched to [`TracePolicy::SummaryOnly`]
    /// (no trace to build the result from); use [`Experiment::run_report`].
    pub fn run(self) -> Result<SimulationResult, SimError> {
        self.run_report().map(RunReport::into_simulation_result)
    }

    /// Runs the experiment to completion and returns its streamed report:
    /// the always-present [`RunSummary`] plus whatever trace the recording
    /// policy retained.
    ///
    /// # Errors
    ///
    /// Propagates plant, platform and DTPM errors.
    pub fn run_report(self) -> Result<RunReport, SimError> {
        let control = self.control;
        let period_s = control.config.control_period_s;
        let mut engine = engine_for(
            control.spec.clone(),
            &[control.config.plant],
            1,
            control.config.precision,
        );
        let mut lanes = [LaneSlot::holding(0, control)];
        let mut out = None;
        drive_engine(
            engine.as_mut(),
            period_s,
            &mut lanes,
            &ResiliencePolicy::default(),
            &mut || None,
            &mut |_, result| out = Some(result),
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
/// [`ScenarioSweep::with_lanes`] each worker drives a [`PanelEngine`] of that
/// width and *recycles* its lanes: when a scenario finishes, the lane is
/// retired, re-initialised and refilled with the next queued scenario
/// (retire → compact → admit via [`PlantEngine::admit`]), so a ragged mix of
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
    /// [`TracePolicy::SummaryOnly`] requires streaming through
    /// [`ScenarioSweep::run_into`]; [`ScenarioSweep::run`] builds its
    /// [`SimulationResult`]s from retained traces.
    pub fn with_recording(mut self, recording: TracePolicy) -> Self {
        self.recording = recording;
        self
    }

    /// Sets the batch width: every worker drives a [`PanelEngine`] of this
    /// many lanes through the structure-of-arrays
    /// [`crate::batch::BatchPlant`], refilling freed lanes from the shared
    /// scenario queue, so total parallelism is `threads × lanes`. One lane
    /// (the default) is the scalar per-scenario engine.
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

    /// The per-run trace-retention policy [`ScenarioSweep::run_into`] uses.
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

    /// Runs every configuration and returns one result per configuration, in
    /// input order. Individual failures do not abort the sweep.
    ///
    /// This is the trivial-sink instantiation of the streaming pipeline: the
    /// sweep runs under its trace-retaining [`ScenarioSweep::with_recording`]
    /// policy into a [`CollectSink`] and the collected reports become
    /// [`SimulationResult`]s — under the default [`TracePolicy::Full`],
    /// memory scales as scenarios × intervals.
    /// Campaigns that only need per-run summaries should stream through
    /// [`ScenarioSweep::run_into`] with [`TracePolicy::SummaryOnly`]
    /// instead, which retains O(1) per scenario.
    ///
    /// # Panics
    ///
    /// Panics if the sweep was configured with [`TracePolicy::SummaryOnly`]:
    /// there would be no traces to build the results from — stream through
    /// [`ScenarioSweep::run_into`].
    pub fn run(&self, calibration: &Calibration) -> Vec<Result<SimulationResult, SimError>> {
        assert!(
            self.recording != TracePolicy::SummaryOnly,
            "ScenarioSweep::run builds SimulationResults from retained traces; \
             stream a TracePolicy::SummaryOnly sweep through run_into instead"
        );
        let mut sink = CollectSink::new(self.configs.len());
        self.run_groups(calibration, self.recording, &mut sink);
        sink.into_reports()
            .into_iter()
            .map(|report| report.map(RunReport::into_simulation_result))
            .collect()
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
        self.run_groups(calibration, self.recording, sink);
    }

    /// Shared body of [`ScenarioSweep::run`] / [`ScenarioSweep::run_into`]:
    /// partition into shared-period groups and stream each group through the
    /// lane-compacting scheduler.
    fn run_groups<S>(&self, calibration: &Calibration, recording: TracePolicy, sink: &mut S)
    where
        S: ResultSink + Send + ?Sized,
    {
        if self.configs.is_empty() {
            return;
        }
        // Lockstep needs a shared control period and one engine per group
        // needs a shared precision: partition the scenario indices into
        // per-(period, precision) groups (almost always exactly one). One
        // worker pool sweeps the groups in order, draining each group's
        // shared queue before flowing into the next, so a sweep over many
        // distinct periods still keeps the whole pool busy — workers that
        // find a group's queue already drained skip ahead immediately.
        let mut groups: Vec<((u64, EnginePrecision), Vec<usize>)> = Vec::new();
        for (index, config) in self.configs.iter().enumerate() {
            let bits = (config.control_period_s.to_bits(), config.precision);
            match groups.iter_mut().find(|(key, _)| *key == bits) {
                Some((_, group)) => group.push(index),
                None => groups.push((bits, vec![index])),
            }
        }
        let group_meta: Vec<(f64, EnginePrecision, usize)> = groups
            .iter()
            .map(|((_, precision), group)| {
                (
                    self.configs[group[0]].control_period_s,
                    *precision,
                    group.len(),
                )
            })
            .collect();
        let provider = |group: usize, k: usize| -> (usize, ExperimentConfig) {
            let slot = groups[group].1[k];
            (slot, self.configs[slot].clone())
        };
        let sink = std::sync::Mutex::new(sink);
        sweep_stream(
            self.threads,
            self.lanes,
            &group_meta,
            recording,
            &provider,
            calibration,
            &self.resilience,
            &sink,
        );
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

/// The shared streaming sweep body: `threads` workers sweep the
/// shared-period `groups` (each a `(control period, engine precision,
/// scenario count)` triple) in order, pulling within-group indices from one
/// atomic cursor per group
/// and materialising each scenario through `provider(group, k)` lazily —
/// nothing about a scenario exists before a worker claims it. Scenarios are
/// driven through lane-compacting engines of `lanes` lanes and every report
/// is pushed into the shared sink as its lane retires. A worker that finds
/// a group's queue already drained flows into the next group immediately,
/// so a multi-period sweep never idles the pool on one group's ragged tail.
/// Both [`ScenarioSweep`] (providers indexed into its config list) and the
/// campaign runner (a single group over the grid-cell expansion) are
/// instantiations.
///
/// The sink is delivered to behind poison-recovering locking with the
/// `accept` call itself under `catch_unwind`: a sink that panics on one
/// result neither poisons the mutex (deadlocking or aborting sibling
/// workers) nor unwinds a worker — the failed delivery is reported to
/// stderr and the sweep carries on. `policy` arms the executor's per-cell
/// containment (see [`drive_engine`]) and, with a non-zero retry budget,
/// bounded deterministic retry: a cell that failed retryably
/// ([`ResiliencePolicy::is_retryable`]) is re-admitted from scratch — its
/// configuration re-derived identically, no RNG state involved — up to
/// `max_retries` times before its final error is delivered (poison-cell
/// quarantine).
#[allow(clippy::too_many_arguments)] // one call-site-shared body, not an API
pub(crate) fn sweep_stream<F, S>(
    threads: usize,
    lanes: usize,
    groups: &[(f64, EnginePrecision, usize)],
    recording: TracePolicy,
    provider: &F,
    calibration: &Calibration,
    policy: &ResiliencePolicy,
    sink: &std::sync::Mutex<&mut S>,
) where
    F: Fn(usize, usize) -> (usize, ExperimentConfig) + Sync,
    S: ResultSink + Send + ?Sized,
{
    /// A retryably-failed scenario awaiting re-admission: its result slot,
    /// the configuration to re-derive it from, and which attempt the next
    /// execution will be.
    struct RetryEntry {
        slot: usize,
        config: ExperimentConfig,
        attempt: u32,
    }

    let total: usize = groups.iter().map(|(_, _, count)| count).sum();
    if total == 0 {
        return;
    }
    let cursors: Vec<std::sync::atomic::AtomicUsize> = groups
        .iter()
        .map(|_| std::sync::atomic::AtomicUsize::new(0))
        .collect();
    // Per-group retry queues (retries must re-run inside their own lockstep
    // group: the engine's period and precision are group properties). Empty
    // and untouched when the policy's retry budget is zero.
    let retries: Vec<std::sync::Mutex<Vec<RetryEntry>>> = groups
        .iter()
        .map(|_| std::sync::Mutex::new(Vec::new()))
        .collect();
    /// Retired results a worker buffers before taking the sink lock:
    /// batching amortises the mutex handoff across deliveries, so a wide
    /// pool of fast cells no longer serialises on the sink. Small enough
    /// that sink-side effects (checkpoint cadence, worker heartbeats) lag
    /// completion by at most a few cells.
    const SINK_BATCH: usize = 8;
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
        // Scenarios this worker currently has in flight, by result slot —
        // the configs a retry re-derives cells from. Only maintained when
        // retry is armed, so the default policy costs nothing.
        let in_flight = std::cell::RefCell::new(std::collections::HashMap::<
            usize,
            (ExperimentConfig, u32),
        >::new());
        for (group, (&(period_s, precision, count), cursor)) in
            groups.iter().zip(&cursors).enumerate()
        {
            // Keep draining this group while retry work reappears: any
            // worker that enqueues a retry re-checks its own queue after
            // its engine drains, so no entry is ever orphaned.
            loop {
                // Pulls the next admissible scenario — retries first, then
                // the group's shared cursor — publishing construction
                // failures in place.
                let mut next = || loop {
                    if policy.max_retries > 0 {
                        let entry = retries[group]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .pop();
                        if let Some(RetryEntry {
                            slot,
                            mut config,
                            attempt,
                        }) = entry
                        {
                            if let Some(chaos) = config.chaos.as_mut() {
                                chaos.attempt = attempt;
                            }
                            match ControlLoop::new(&config, calibration, recording) {
                                Ok(control) => {
                                    in_flight.borrow_mut().insert(slot, (config, attempt));
                                    return Some((slot, control));
                                }
                                Err(e) => {
                                    deliver(slot, Err(e));
                                    continue;
                                }
                            }
                        }
                    }
                    let k = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if k >= count {
                        return None;
                    }
                    let (slot, config) = provider(group, k);
                    match ControlLoop::new(&config, calibration, recording) {
                        Ok(control) => {
                            if policy.max_retries > 0 {
                                in_flight.borrow_mut().insert(slot, (config, 0));
                            }
                            return Some((slot, control));
                        }
                        Err(e) => deliver(slot, Err(e)),
                    }
                };
                // Routes a retired result: retryable failures with budget
                // left go back on the group's retry queue (the cell is
                // re-derived from its config — deterministic, seed-stable);
                // everything else is final and delivered.
                let mut publish = |slot: usize, result: Result<RunReport, SimError>| {
                    if policy.max_retries > 0 {
                        let entry = in_flight.borrow_mut().remove(&slot);
                        if let Err(error) = &result {
                            if let Some((config, attempt)) = entry {
                                if ResiliencePolicy::is_retryable(error)
                                    && attempt < policy.max_retries
                                {
                                    retries[group]
                                        .lock()
                                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                                        .push(RetryEntry {
                                            slot,
                                            config,
                                            attempt: attempt + 1,
                                        });
                                    return;
                                }
                            }
                        }
                    }
                    deliver(slot, result);
                };

                // Claim the initial lane-group; the engine is sized to what
                // the queue could actually provide, so a near-empty queue
                // never creates idle-from-birth lanes, and a drained queue
                // lets the worker flow straight into the next group.
                let mut claimed = Vec::with_capacity(lanes);
                while claimed.len() < lanes {
                    match next() {
                        Some(admitted) => claimed.push(admitted),
                        None => break,
                    }
                }
                if claimed.is_empty() {
                    break;
                }
                let spec = SocSpec::odroid_xu_e();
                let params: Vec<PlantPowerParams> = claimed
                    .iter()
                    .map(|(_, control)| control.config.plant)
                    .collect();
                let mut lane_slots: Vec<LaneSlot> = claimed
                    .into_iter()
                    .map(|(slot, control)| LaneSlot::holding(slot, control))
                    .collect();
                let mut engine = engine_for(spec, &params, lanes, precision);
                drive_engine(
                    engine.as_mut(),
                    period_s,
                    &mut lane_slots,
                    policy,
                    &mut next,
                    &mut publish,
                );
                if policy.max_retries == 0 {
                    break;
                }
            }
        }
        // Everything this worker retired reaches the sink before the worker
        // (and therefore the sweep) returns.
        flush();
    };
    let pool = threads.min(total).max(1);
    if pool == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..pool {
                scope.spawn(worker);
            }
        });
    }
}
