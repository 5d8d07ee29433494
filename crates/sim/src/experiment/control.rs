//! The control loop of one run: everything in the closed loop except the
//! physical plant, stepped one interval at a time by the executor.

use dtpm::{DtpmInputs, DtpmPolicy};
use governors::{
    FanController, GovernorInput, HotplugGovernor, OndemandGovernor, ReactiveThrottler,
};
use power_model::PowerModel;
use soc_model::{ClusterKind, FanLevel, Frequency, PlatformState, PowerDomain, SocSpec};
use workload::{Demand, WorkloadState};

use super::{ExperimentConfig, ExperimentKind, RunReport};
use crate::calibrate::Calibration;
use crate::faults::FaultInjector;
use crate::metrics::RunSummary;
use crate::observer::{OnlineRunStats, RunObserver, TracePolicy};
use crate::plant::PlantStep;
use crate::safety::{IncidentLog, SafetyLadder, SensorHealth};
use crate::sensors::{SensorReadings, SensorSuite};
use crate::trace::{Trace, TraceRecord};
use crate::SimError;

/// Everything in the closed loop except the physical plant: sensors,
/// workload, governors, the configured thermal-management policy, and the
/// running trace/energy bookkeeping.
///
/// Splitting the controller side out of the plant is what lets one executor
/// ([`drive_engine`](super::executor::drive_engine)) drive K control loops
/// against one multi-lane engine: control decisions stay strictly per-lane
/// while the plant integration is batched.
#[derive(Debug)]
pub(super) struct ControlLoop {
    pub(super) config: ExperimentConfig,
    pub(super) spec: SocSpec,
    sensors: SensorSuite,
    workload: WorkloadState,
    governor: OndemandGovernor,
    hotplug: HotplugGovernor,
    fan: FanController,
    reactive: ReactiveThrottler,
    dtpm_policy: Option<DtpmPolicy>,
    power_model: PowerModel,
    pub(super) state: PlatformState,
    readings: SensorReadings,
    /// Replays the configured [`FaultPlan`](crate::faults::FaultPlan) over
    /// each interval's sampled readings (`None`: healthy sensors, zero
    /// per-interval work).
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
    pub(super) trace: Option<Trace>,
    time_s: f64,
    pub(super) energy_j: f64,
    completed: bool,
    max_steps: usize,
    pub(super) steps_taken: usize,
}

/// The trace a run under `recording` starts with.
pub(super) fn retained_trace(recording: TracePolicy) -> Option<Trace> {
    match recording {
        TracePolicy::Full => Some(Trace::new()),
        TracePolicy::SummaryOnly => None,
    }
}

/// One control interval's decisions, handed from [`ControlLoop::decide`]
/// to the plant step and back into [`ControlLoop::absorb`].
#[derive(Debug, Clone)]
pub(super) struct IntervalDecision {
    pub(super) demand: Demand,
    pub(super) fan_level: FanLevel,
    predicted_peak_c: Option<f64>,
    intervened: bool,
}

impl ControlLoop {
    pub(super) fn new(
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
    pub(super) fn is_done(&self) -> bool {
        self.completed || self.shutdown || self.steps_taken >= self.max_steps
    }

    /// The default (stock governor) proposal for the next interval: the big
    /// cluster stays active, `ondemand` picks the frequency from the load,
    /// the hotplug governor picks the core count and a simple GPU governor
    /// tracks GPU utilisation.
    fn default_proposal(&mut self, demand: &Demand) -> PlatformState {
        let mut proposal = self.state;
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
    pub(super) fn decide(&mut self) -> Result<IntervalDecision, SimError> {
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
    pub(super) fn absorb(&mut self, decision: &IntervalDecision, step: &PlantStep) {
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
    pub(super) fn finish(self) -> RunReport {
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
