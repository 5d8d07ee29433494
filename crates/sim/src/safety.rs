//! Thermal safety ladder, sensor-health monitoring and incident records.
//!
//! The predictive DTPM loop is only as safe as the sensor chain it reads, so
//! two defensive layers sit *above* any policy in the control loop:
//!
//! * **[`SafetyLadder`]** — a watchdog over the screened maximum core
//!   temperature: `Normal → Throttle → Critical → SimulatedShutdown`
//!   escalation (straight to the highest crossed rung) with
//!   hysteresis-plus-dwell de-escalation one rung at a time.
//!   [`SafetyLadder::enforce`] clamps whatever the policy decided —
//!   frequency cap on `Throttle`, floor-everything on `Critical` — and
//!   `SimulatedShutdown` is terminal: the run halts with an incident instead
//!   of melting the (simulated) board. Default trip points (80/90/100 °C)
//!   sit above any fault-free trajectory, so a healthy run with the ladder
//!   armed is bit-identical to one without it.
//! * **[`SensorHealth`]** — per-channel screening of every reading before
//!   the policy sees it: non-finite and out-of-plausible-range values (and,
//!   for noisy chains, exact flatlines) are replaced with the channel's
//!   last-known-good value. Substitution has a staleness budget; a channel
//!   stale past the budget makes the chain *unreliable*, which demotes the
//!   predictive policy to the reactive throttling governor
//!   (`governors::ReactiveThrottler`) until the chain has been healthy for a
//!   full recovery window — or, with [`HealthConfig::degraded_fallback`]
//!   off, drains the lane with a structured error. Screening is
//!   comparison-only: a valid reading passes through bit-unchanged.
//!
//! Every transition — detected fault, recovery, escalation, de-escalation,
//! demotion, shutdown — is recorded in an [`IncidentLog`] that rides on
//! [`crate::RunSummary`] and streams through
//! [`crate::RunObserver::on_incident`]. The log is a pure function of the
//! screened readings sequence, so identical seeds and fault plans replay
//! bit-identical logs regardless of lane or thread assignment.

use soc_model::{ClusterKind, PlatformState, SocSpec};

use crate::faults::SensorChannel;
use crate::sensors::SensorReadings;

/// Rung of the thermal safety ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SafetyState {
    /// No intervention: the policy's decision stands.
    Normal,
    /// Big-cluster frequency capped at a fraction of the top OPP.
    Throttle,
    /// Everything floored: lowest OPPs, one big core.
    Critical,
    /// Terminal: the run halts (the simulated analogue of a hardware trip).
    SimulatedShutdown,
}

impl SafetyState {
    fn rung(self) -> u8 {
        match self {
            SafetyState::Normal => 0,
            SafetyState::Throttle => 1,
            SafetyState::Critical => 2,
            SafetyState::SimulatedShutdown => 3,
        }
    }
}

/// Configuration of the [`SafetyLadder`] watchdog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderConfig {
    /// Whether the watchdog runs at all.
    pub enabled: bool,
    /// Temperature (°C) at or above which the `Throttle` rung engages.
    pub throttle_c: f64,
    /// Temperature (°C) at or above which the `Critical` rung engages.
    pub critical_c: f64,
    /// Temperature (°C) at or above which the run is shut down.
    pub shutdown_c: f64,
    /// De-escalation margin: a rung releases only below its entry threshold
    /// minus this hysteresis, °C.
    pub hysteresis_c: f64,
    /// Minimum intervals spent on a rung before it may de-escalate.
    pub min_dwell_intervals: usize,
    /// Big-cluster frequency cap on the `Throttle` rung, as a fraction of
    /// the highest OPP.
    pub throttle_factor: f64,
}

impl Default for LadderConfig {
    /// Trip points mirroring the Exynos TMU defaults (80/90/100 °C with
    /// software throttle, hardware throttle and trip rungs) — deliberately
    /// above every fault-free trajectory of the paper's experiments, whose
    /// worst observed peak is ≈71 °C, so arming the ladder does not perturb
    /// healthy runs.
    fn default() -> Self {
        LadderConfig {
            enabled: true,
            throttle_c: 80.0,
            critical_c: 90.0,
            shutdown_c: 100.0,
            hysteresis_c: 5.0,
            min_dwell_intervals: 10,
            throttle_factor: 0.6,
        }
    }
}

/// Configuration of the [`SensorHealth`] monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Whether readings are screened at all.
    pub monitor: bool,
    /// Lower edge of the plausible temperature envelope, °C.
    pub temp_min_c: f64,
    /// Upper edge of the plausible temperature envelope, °C.
    pub temp_max_c: f64,
    /// Upper edge of the plausible per-channel power envelope, W (the lower
    /// edge is 0: the measurement chain clamps there, so a negative reading
    /// is necessarily corrupt).
    pub power_max_w: f64,
    /// Exactly-equal consecutive readings after which a channel is declared
    /// flatlined (stuck). `0` disables flatline detection — required for
    /// ideal (noiseless) sensor chains, where consecutive equal readings
    /// are legitimate.
    pub flatline_intervals: usize,
    /// Consecutive intervals a channel may ride its last-known-good
    /// substitute before the chain is declared unreliable.
    pub staleness_budget: usize,
    /// Consecutive fully-healthy intervals required to promote the policy
    /// back after a demotion.
    pub recovery_intervals: usize,
    /// Substitute temperature when a channel faults before any good sample
    /// exists (assume hot-but-not-melting: throttle, don't fabricate a
    /// shutdown), °C.
    pub fallback_temp_c: f64,
    /// `true`: an unreliable chain demotes the predictive policy to the
    /// reactive throttling governor. `false`: it drains the lane with a
    /// structured sensor error instead.
    pub degraded_fallback: bool,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            monitor: true,
            temp_min_c: -40.0,
            temp_max_c: 150.0,
            power_max_w: 50.0,
            flatline_intervals: 50,
            staleness_budget: 5,
            recovery_intervals: 20,
            fallback_temp_c: 85.0,
            degraded_fallback: true,
        }
    }
}

/// The combined robustness configuration carried by an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SafetyConfig {
    /// Watchdog ladder configuration.
    pub ladder: LadderConfig,
    /// Sensor-health monitor configuration.
    pub health: HealthConfig,
}

impl SafetyConfig {
    /// Both layers off: readings flow unscreened and no watchdog runs —
    /// exactly the pre-ladder control loop.
    pub fn disabled() -> Self {
        SafetyConfig {
            ladder: LadderConfig {
                enabled: false,
                ..LadderConfig::default()
            },
            health: HealthConfig {
                monitor: false,
                ..HealthConfig::default()
            },
        }
    }
}

/// What the health monitor observed on a channel when it declared a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultObservation {
    /// NaN or ±inf.
    NonFinite,
    /// Finite but outside the plausible operating envelope.
    OutOfRange,
    /// Exactly constant for the configured flatline window.
    Flatline,
}

/// One recorded robustness event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Incident {
    /// Control-interval index at which the event fired (0 = bootstrap).
    pub interval: usize,
    /// Simulation time of the event, seconds.
    pub time_s: f64,
    /// What happened.
    pub kind: IncidentKind,
}

/// The kinds of robustness events recorded in an [`IncidentLog`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IncidentKind {
    /// A sensor channel started reporting implausible values.
    SensorFault {
        /// The faulted channel.
        channel: SensorChannel,
        /// What the monitor observed.
        observed: FaultObservation,
    },
    /// A previously faulted channel reported a valid value again.
    SensorRecovered {
        /// The recovered channel.
        channel: SensorChannel,
    },
    /// The safety ladder climbed to a hotter rung.
    Escalated {
        /// Rung before the transition.
        from: SafetyState,
        /// Rung after the transition.
        to: SafetyState,
        /// Screened maximum core temperature that triggered it, °C.
        temp_c: f64,
    },
    /// The safety ladder stepped down one rung.
    Deescalated {
        /// Rung before the transition.
        from: SafetyState,
        /// Rung after the transition.
        to: SafetyState,
        /// Screened maximum core temperature at the transition, °C.
        temp_c: f64,
    },
    /// The run was halted by the ladder's terminal rung.
    SimulatedShutdown {
        /// Screened maximum core temperature at the trip, °C.
        temp_c: f64,
    },
    /// The sensor chain went unreliable and the predictive policy was
    /// demoted to the reactive throttling governor (or the lane drained,
    /// when the fallback is disabled).
    PolicyDegraded {
        /// The channel whose staleness exhausted the budget.
        channel: SensorChannel,
    },
    /// The chain stayed healthy through the recovery window and the
    /// predictive policy was promoted back.
    PolicyRestored,
}

/// Ordered record of every robustness event in a run.
///
/// A pure function of the screened reading sequence: identical seeds and
/// fault plans replay identical logs regardless of lane, thread or shard
/// assignment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IncidentLog {
    incidents: Vec<Incident>,
}

impl IncidentLog {
    /// Appends an incident.
    pub fn push(&mut self, incident: Incident) {
        self.incidents.push(incident);
    }

    /// Number of recorded incidents.
    pub fn len(&self) -> usize {
        self.incidents.len()
    }

    /// Whether the run recorded no incidents (the healthy-run invariant).
    pub fn is_empty(&self) -> bool {
        self.incidents.is_empty()
    }

    /// The incidents, in firing order.
    pub fn as_slice(&self) -> &[Incident] {
        &self.incidents
    }

    /// Iterates the incidents in firing order.
    pub fn iter(&self) -> std::slice::Iter<'_, Incident> {
        self.incidents.iter()
    }

    /// Number of ladder escalations (including the terminal shutdown
    /// transition).
    pub fn escalations(&self) -> usize {
        self.incidents
            .iter()
            .filter(|i| matches!(i.kind, IncidentKind::Escalated { .. }))
            .count()
    }

    /// Number of sensor-fault detections.
    pub fn sensor_faults(&self) -> usize {
        self.incidents
            .iter()
            .filter(|i| matches!(i.kind, IncidentKind::SensorFault { .. }))
            .count()
    }

    /// Whether the run ended in a simulated shutdown.
    pub fn shut_down(&self) -> bool {
        self.incidents
            .iter()
            .any(|i| matches!(i.kind, IncidentKind::SimulatedShutdown { .. }))
    }
}

impl<'a> IntoIterator for &'a IncidentLog {
    type Item = &'a Incident;
    type IntoIter = std::slice::Iter<'a, Incident>;

    fn into_iter(self) -> Self::IntoIter {
        self.incidents.iter()
    }
}

/// The escalating thermal watchdog. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SafetyLadder {
    config: LadderConfig,
    state: SafetyState,
    dwell: usize,
}

impl SafetyLadder {
    /// A ladder starting on the `Normal` rung.
    pub fn new(config: LadderConfig) -> SafetyLadder {
        SafetyLadder {
            config,
            state: SafetyState::Normal,
            dwell: 0,
        }
    }

    /// The current rung.
    pub fn state(&self) -> SafetyState {
        self.state
    }

    /// Whether the terminal rung has fired.
    pub fn is_shutdown(&self) -> bool {
        self.state == SafetyState::SimulatedShutdown
    }

    /// Entry threshold of a rung, °C.
    fn threshold(&self, state: SafetyState) -> f64 {
        match state {
            SafetyState::Normal => f64::NEG_INFINITY,
            SafetyState::Throttle => self.config.throttle_c,
            SafetyState::Critical => self.config.critical_c,
            SafetyState::SimulatedShutdown => self.config.shutdown_c,
        }
    }

    /// Feeds one interval's screened maximum core temperature through the
    /// ladder, recording any transition. Escalation jumps straight to the
    /// highest crossed rung; de-escalation steps down one rung at a time and
    /// only after [`LadderConfig::min_dwell_intervals`] on the current rung
    /// with the temperature below its entry threshold minus the hysteresis.
    /// A NaN temperature (possible only with screening disabled) holds the
    /// current rung.
    pub fn observe(
        &mut self,
        interval: usize,
        time_s: f64,
        max_core_temp_c: f64,
        incidents: &mut IncidentLog,
    ) {
        if !self.config.enabled || self.state == SafetyState::SimulatedShutdown {
            return;
        }
        let target = if max_core_temp_c >= self.config.shutdown_c {
            SafetyState::SimulatedShutdown
        } else if max_core_temp_c >= self.config.critical_c {
            SafetyState::Critical
        } else if max_core_temp_c >= self.config.throttle_c {
            SafetyState::Throttle
        } else {
            SafetyState::Normal
        };
        if target.rung() > self.state.rung() {
            let from = self.state;
            self.state = target;
            self.dwell = 0;
            incidents.push(Incident {
                interval,
                time_s,
                kind: IncidentKind::Escalated {
                    from,
                    to: target,
                    temp_c: max_core_temp_c,
                },
            });
            if target == SafetyState::SimulatedShutdown {
                incidents.push(Incident {
                    interval,
                    time_s,
                    kind: IncidentKind::SimulatedShutdown {
                        temp_c: max_core_temp_c,
                    },
                });
            }
            return;
        }
        let release = self.threshold(self.state) - self.config.hysteresis_c;
        if target.rung() < self.state.rung()
            && self.dwell >= self.config.min_dwell_intervals
            && max_core_temp_c < release
        {
            let from = self.state;
            self.state = match self.state {
                SafetyState::Critical => SafetyState::Throttle,
                SafetyState::Throttle => SafetyState::Normal,
                other => other,
            };
            self.dwell = 0;
            incidents.push(Incident {
                interval,
                time_s,
                kind: IncidentKind::Deescalated {
                    from,
                    to: self.state,
                    temp_c: max_core_temp_c,
                },
            });
            return;
        }
        self.dwell = self.dwell.saturating_add(1);
    }

    /// Clamps the policy's decided platform state to the current rung.
    /// Returns whether anything was overridden. On `Normal` this touches
    /// nothing (the healthy-run bit-identity path).
    pub fn enforce(&self, state: &mut PlatformState, spec: &SocSpec) -> bool {
        match self.state {
            SafetyState::Normal => false,
            SafetyState::Throttle => {
                let cap = spec
                    .big_opps()
                    .scaled_floor(
                        spec.big_opps().highest().frequency,
                        self.config.throttle_factor,
                    )
                    .frequency;
                if state.big_frequency.mhz() > cap.mhz() {
                    state.big_frequency = cap;
                    true
                } else {
                    false
                }
            }
            SafetyState::Critical | SafetyState::SimulatedShutdown => {
                let mut changed = false;
                let big_floor = spec.big_opps().lowest().frequency;
                if state.big_frequency.mhz() != big_floor.mhz() {
                    state.big_frequency = big_floor;
                    changed = true;
                }
                let gpu_floor = spec.gpu_opps().lowest().frequency;
                if state.gpu_frequency.mhz() != gpu_floor.mhz() {
                    state.gpu_frequency = gpu_floor;
                    changed = true;
                }
                // One big core carries whatever must still run; the rest go
                // offline. The little cluster is the low-power island — leave
                // its hotplug state to the policy.
                for core in 1..state.big_cores_online.len() {
                    if state.is_core_online(ClusterKind::Big, core) {
                        state.set_core_online(ClusterKind::Big, core, false);
                        changed = true;
                    }
                }
                if !state.is_core_online(ClusterKind::Big, 0) {
                    state.set_core_online(ClusterKind::Big, 0, true);
                    changed = true;
                }
                changed
            }
        }
    }
}

/// Number of screened channels (see [`SensorChannel::ALL`]).
const CHANNELS: usize = SensorChannel::ALL.len();

/// The sensor-health monitor. See the [module docs](self).
///
/// State is kept as flat per-channel arrays with NaN sentinels (no good
/// sample yet / no previous raw) rather than `Option`s: the screen runs on
/// every control interval of every lane, and the healthy case must cost a
/// handful of array sweeps, not nine branchy per-channel dispatches.
#[derive(Debug, Clone)]
pub struct SensorHealth {
    config: HealthConfig,
    /// Previous raw value per channel (NaN before the first sample — NaN
    /// never compares equal, so it can't extend a flatline run).
    last_raw: [f64; CHANNELS],
    /// Length of the current exactly-constant run of raw values.
    flatline_run: [usize; CHANNELS],
    /// Last value that passed screening (NaN before the first good sample;
    /// unambiguous, since a passing value is always finite).
    last_good: [f64; CHANNELS],
    /// Consecutive intervals each channel has been substituted.
    staleness: [usize; CHANNELS],
    /// Whether any channel currently has non-zero staleness (recovery
    /// incidents pending) — false on the healthy fast path.
    any_stale: bool,
    degraded: bool,
    healthy_streak: usize,
}

impl SensorHealth {
    /// A monitor with no history.
    pub fn new(config: HealthConfig) -> SensorHealth {
        SensorHealth {
            config,
            last_raw: [f64::NAN; CHANNELS],
            flatline_run: [0; CHANNELS],
            last_good: [f64::NAN; CHANNELS],
            staleness: [0; CHANNELS],
            any_stale: false,
            degraded: false,
            healthy_streak: 0,
        }
    }

    /// Whether the chain is currently unreliable (predictive policy demoted).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Whether an unreliable chain demotes (true) or drains (false).
    pub fn fallback_enabled(&self) -> bool {
        self.config.degraded_fallback
    }

    fn envelope(config: &HealthConfig, channel: SensorChannel) -> (f64, f64) {
        if channel.is_temperature() {
            (config.temp_min_c, config.temp_max_c)
        } else {
            (0.0, config.power_max_w)
        }
    }

    fn fallback(config: &HealthConfig, channel: SensorChannel) -> f64 {
        if channel.is_temperature() {
            config.fallback_temp_c
        } else {
            0.0
        }
    }

    /// Screens one interval's readings: invalid channels are replaced with
    /// their last-known-good value (or a conservative fallback before any
    /// good sample exists), fault detections/recoveries and policy
    /// demotions/promotions are recorded, and the screened readings are
    /// returned. Valid channels pass through bit-unchanged; with
    /// [`HealthConfig::monitor`] off the readings are returned untouched.
    pub fn screen(
        &mut self,
        interval: usize,
        time_s: f64,
        mut readings: SensorReadings,
        incidents: &mut IncidentLog,
    ) -> SensorReadings {
        if !self.config.monitor {
            return readings;
        }
        let config = self.config;
        let mut raws = [0.0f64; CHANNELS];
        raws[..4].copy_from_slice(&readings.core_temps_c);
        raws[4..8].copy_from_slice(&readings.domain_power.as_array());
        raws[8] = readings.platform_power_w;

        // Flatline bookkeeping runs on the raw stream: an exact repeat
        // extends the run, anything else (including the NaN initial
        // sentinel) resets it. (Disabled at 0 — mandatory for noiseless
        // chains, where repeats are legitimate.)
        let mut flatlined = false;
        if config.flatline_intervals > 0 {
            for (run, (&raw, &previous)) in self
                .flatline_run
                .iter_mut()
                .zip(raws.iter().zip(&self.last_raw))
            {
                *run = if raw == previous { *run + 1 } else { 0 };
                flatlined |= *run >= config.flatline_intervals;
            }
            self.last_raw = raws;
        }

        // Envelope sweep: `>= lo && <= hi` is false for NaN, so non-finite
        // readings fail closed without a separate finiteness pass.
        let mut all_in_envelope = true;
        for &raw in &raws[..4] {
            all_in_envelope &= raw >= config.temp_min_c && raw <= config.temp_max_c;
        }
        for &raw in &raws[4..] {
            all_in_envelope &= raw >= 0.0 && raw <= config.power_max_w;
        }

        // Fast path — the healthy steady state: every channel valid, nothing
        // stale (no recovery incidents pending), the policy not demoted.
        // Refresh the good samples wholesale and pass the readings through
        // bit-unchanged.
        if all_in_envelope && !flatlined && !self.any_stale && !self.degraded {
            self.last_good = raws;
            return readings;
        }

        let mut all_valid = true;
        let mut worst: Option<SensorChannel> = None;
        let mut worst_staleness = 0;
        for (index, channel) in SensorChannel::ALL.into_iter().enumerate() {
            let raw = raws[index];
            let (lo, hi) = Self::envelope(&config, channel);
            let observed = if !raw.is_finite() {
                Some(FaultObservation::NonFinite)
            } else if raw < lo || raw > hi {
                Some(FaultObservation::OutOfRange)
            } else if config.flatline_intervals > 0
                && self.flatline_run[index] >= config.flatline_intervals
            {
                Some(FaultObservation::Flatline)
            } else {
                None
            };
            match observed {
                None => {
                    if self.staleness[index] > 0 {
                        incidents.push(Incident {
                            interval,
                            time_s,
                            kind: IncidentKind::SensorRecovered { channel },
                        });
                    }
                    self.last_good[index] = raw;
                    self.staleness[index] = 0;
                }
                Some(observed) => {
                    if self.staleness[index] == 0 {
                        incidents.push(Incident {
                            interval,
                            time_s,
                            kind: IncidentKind::SensorFault { channel, observed },
                        });
                    }
                    self.staleness[index] += 1;
                    all_valid = false;
                    let substitute = if self.last_good[index].is_nan() {
                        Self::fallback(&config, channel)
                    } else {
                        self.last_good[index]
                    };
                    channel.write(&mut readings, substitute);
                    if self.staleness[index] > worst_staleness {
                        worst_staleness = self.staleness[index];
                        worst = Some(channel);
                    }
                }
            }
        }
        self.any_stale = !all_valid;
        if !self.degraded {
            if worst_staleness > self.config.staleness_budget {
                self.degraded = true;
                self.healthy_streak = 0;
                incidents.push(Incident {
                    interval,
                    time_s,
                    kind: IncidentKind::PolicyDegraded {
                        channel: worst.expect("staleness implies a faulted channel"),
                    },
                });
            }
        } else if all_valid {
            self.healthy_streak += 1;
            if self.healthy_streak >= self.config.recovery_intervals {
                self.degraded = false;
                self.healthy_streak = 0;
                incidents.push(Incident {
                    interval,
                    time_s,
                    kind: IncidentKind::PolicyRestored,
                });
            }
        } else {
            self.healthy_streak = 0;
        }
        readings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_model::DomainPower;

    fn reading(temps: [f64; 4]) -> SensorReadings {
        SensorReadings {
            core_temps_c: temps,
            domain_power: DomainPower::new(2.0, 0.1, 0.3, 0.4),
            platform_power_w: 6.0,
        }
    }

    #[test]
    fn ladder_stays_normal_below_every_threshold() {
        let mut ladder = SafetyLadder::new(LadderConfig::default());
        let mut log = IncidentLog::default();
        for k in 0..100 {
            ladder.observe(k, k as f64 * 0.1, 71.2, &mut log);
        }
        assert_eq!(ladder.state(), SafetyState::Normal);
        assert!(log.is_empty());
        let spec = SocSpec::odroid_xu_e();
        let mut state = PlatformState::default_for(&spec);
        let before = state.clone();
        assert!(!ladder.enforce(&mut state, &spec));
        assert_eq!(state, before, "Normal rung must not touch the state");
    }

    #[test]
    fn ladder_escalates_straight_to_the_highest_crossed_rung() {
        let mut ladder = SafetyLadder::new(LadderConfig::default());
        let mut log = IncidentLog::default();
        ladder.observe(5, 0.5, 93.0, &mut log);
        assert_eq!(ladder.state(), SafetyState::Critical);
        assert_eq!(log.len(), 1);
        assert!(matches!(
            log.as_slice()[0].kind,
            IncidentKind::Escalated {
                from: SafetyState::Normal,
                to: SafetyState::Critical,
                ..
            }
        ));
    }

    #[test]
    fn shutdown_is_terminal_and_double_logged() {
        let mut ladder = SafetyLadder::new(LadderConfig::default());
        let mut log = IncidentLog::default();
        ladder.observe(1, 0.1, 104.0, &mut log);
        assert!(ladder.is_shutdown());
        assert_eq!(log.len(), 2);
        assert!(log.shut_down());
        assert_eq!(log.escalations(), 1);
        // Cooling down cannot resurrect a shut-down run.
        ladder.observe(2, 0.2, 20.0, &mut log);
        assert!(ladder.is_shutdown());
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn deescalation_needs_dwell_and_hysteresis_and_steps_one_rung() {
        let config = LadderConfig {
            min_dwell_intervals: 3,
            ..LadderConfig::default()
        };
        let mut ladder = SafetyLadder::new(config);
        let mut log = IncidentLog::default();
        ladder.observe(0, 0.0, 92.0, &mut log);
        assert_eq!(ladder.state(), SafetyState::Critical);
        // Below critical−hysteresis (85) immediately, but dwell not served.
        ladder.observe(1, 0.1, 70.0, &mut log);
        ladder.observe(2, 0.2, 70.0, &mut log);
        ladder.observe(3, 0.3, 70.0, &mut log);
        assert_eq!(
            ladder.state(),
            SafetyState::Critical,
            "dwell not yet served"
        );
        ladder.observe(4, 0.4, 70.0, &mut log);
        assert_eq!(ladder.state(), SafetyState::Throttle, "one rung at a time");
        // 76 °C is below throttle_c but not below throttle−hysteresis (75):
        // the Throttle rung holds no matter how long it dwells.
        for k in 5..20 {
            ladder.observe(k, k as f64 * 0.1, 76.0, &mut log);
        }
        assert_eq!(ladder.state(), SafetyState::Throttle);
        for k in 20..26 {
            ladder.observe(k, k as f64 * 0.1, 70.0, &mut log);
        }
        assert_eq!(ladder.state(), SafetyState::Normal);
        assert_eq!(log.escalations(), 1);
    }

    #[test]
    fn throttle_rung_caps_big_frequency() {
        let spec = SocSpec::odroid_xu_e();
        let mut ladder = SafetyLadder::new(LadderConfig::default());
        let mut log = IncidentLog::default();
        ladder.observe(0, 0.0, 83.0, &mut log);
        assert_eq!(ladder.state(), SafetyState::Throttle);
        let mut state = PlatformState::default_for(&spec);
        assert!(ladder.enforce(&mut state, &spec));
        // 1600 * 0.6 = 960 → floors to 900 MHz on the Exynos big table.
        assert!(state.big_frequency.mhz() <= 960);
        // Already below the cap: nothing to do.
        assert!(!ladder.enforce(&mut state, &spec));
    }

    #[test]
    fn critical_rung_floors_everything_but_keeps_one_big_core() {
        let spec = SocSpec::odroid_xu_e();
        let mut ladder = SafetyLadder::new(LadderConfig::default());
        let mut log = IncidentLog::default();
        ladder.observe(0, 0.0, 95.0, &mut log);
        let mut state = PlatformState::default_for(&spec);
        assert!(ladder.enforce(&mut state, &spec));
        assert_eq!(state.big_frequency, spec.big_opps().lowest().frequency);
        assert_eq!(state.gpu_frequency, spec.gpu_opps().lowest().frequency);
        assert_eq!(state.online_core_count(ClusterKind::Big), 1);
        assert!(state.validate(&spec).is_ok());
    }

    #[test]
    fn disabled_ladder_never_moves() {
        let mut ladder = SafetyLadder::new(LadderConfig {
            enabled: false,
            ..LadderConfig::default()
        });
        let mut log = IncidentLog::default();
        ladder.observe(0, 0.0, 500.0, &mut log);
        assert_eq!(ladder.state(), SafetyState::Normal);
        assert!(log.is_empty());
    }

    #[test]
    fn screening_passes_valid_readings_through_bit_unchanged() {
        let mut health = SensorHealth::new(HealthConfig::default());
        let mut log = IncidentLog::default();
        let input = reading([50.0, 51.0, 49.5, 50.5]);
        let out = health.screen(0, 0.0, input, &mut log);
        assert_eq!(out, input);
        assert!(log.is_empty());
        assert!(!health.degraded());
    }

    #[test]
    fn invalid_channels_ride_last_known_good_then_degrade() {
        let config = HealthConfig {
            staleness_budget: 3,
            recovery_intervals: 4,
            flatline_intervals: 0,
            ..HealthConfig::default()
        };
        let mut health = SensorHealth::new(config);
        let mut log = IncidentLog::default();
        let good = health.screen(0, 0.0, reading([50.0; 4]), &mut log);
        assert_eq!(good.core_temps_c[1], 50.0);
        // Channel 1 goes NaN: substituted from the last good sample.
        let mut bad = reading([51.0; 4]);
        bad.core_temps_c[1] = f64::NAN;
        for k in 1..=3 {
            let out = health.screen(k, k as f64 * 0.1, bad, &mut log);
            assert_eq!(out.core_temps_c[1], 50.0, "rides last-known-good");
            assert!(!health.degraded(), "within the staleness budget");
        }
        assert_eq!(log.sensor_faults(), 1, "one fault episode, logged once");
        let out = health.screen(4, 0.4, bad, &mut log);
        assert_eq!(out.core_temps_c[1], 50.0);
        assert!(health.degraded(), "budget exhausted");
        // Recovery: healthy intervals accumulate, then the policy returns.
        for k in 5..=7 {
            health.screen(k, k as f64 * 0.1, reading([52.0; 4]), &mut log);
            assert!(health.degraded());
        }
        health.screen(8, 0.8, reading([52.0; 4]), &mut log);
        assert!(!health.degraded());
        let kinds: Vec<_> = log.iter().map(|i| i.kind).collect();
        assert!(matches!(
            kinds[1],
            IncidentKind::PolicyDegraded {
                channel: SensorChannel::CoreTemp(1)
            }
        ));
        assert!(matches!(
            kinds[2],
            IncidentKind::SensorRecovered {
                channel: SensorChannel::CoreTemp(1)
            }
        ));
        assert!(matches!(
            kinds.last().unwrap(),
            IncidentKind::PolicyRestored
        ));
    }

    #[test]
    fn out_of_range_and_fallback_substitution() {
        let mut health = SensorHealth::new(HealthConfig {
            flatline_intervals: 0,
            ..HealthConfig::default()
        });
        let mut log = IncidentLog::default();
        // First-ever reading already corrupt: no last-known-good exists, so
        // the conservative fallback substitutes.
        let mut bad = reading([50.0; 4]);
        bad.core_temps_c[0] = 400.0;
        bad.platform_power_w = -2.0;
        let out = health.screen(0, 0.0, bad, &mut log);
        assert_eq!(out.core_temps_c[0], HealthConfig::default().fallback_temp_c);
        assert_eq!(out.platform_power_w, 0.0);
        assert_eq!(log.sensor_faults(), 2);
        let faults: Vec<_> = log
            .iter()
            .filter_map(|i| match i.kind {
                IncidentKind::SensorFault { observed, .. } => Some(observed),
                _ => None,
            })
            .collect();
        assert_eq!(
            faults,
            [FaultObservation::OutOfRange, FaultObservation::OutOfRange]
        );
    }

    #[test]
    fn flatline_detection_catches_stuck_channels() {
        let config = HealthConfig {
            flatline_intervals: 5,
            staleness_budget: 100,
            ..HealthConfig::default()
        };
        let mut health = SensorHealth::new(config);
        let mut log = IncidentLog::default();
        // A varying signal never trips it (every channel must vary: a noisy
        // chain never repeats exactly)...
        let varying = |k: usize| {
            let jitter = (k % 3) as f64 * 0.01;
            SensorReadings {
                core_temps_c: [50.0 + jitter; 4],
                domain_power: DomainPower::new(2.0 + jitter, 0.1, 0.3, 0.4),
                platform_power_w: 6.0 + jitter,
            }
        };
        for k in 0..20 {
            health.screen(k, k as f64 * 0.1, varying(k), &mut log);
        }
        // Only the three constant power channels flatlined; the jittered
        // channels never did.
        assert_eq!(log.sensor_faults(), 3);
        let pre_stick = log.len();
        // ...a stuck temperature chain does trip it.
        for k in 20..27 {
            health.screen(k, k as f64 * 0.1, varying(20), &mut log);
        }
        let new_faults = log
            .iter()
            .skip(pre_stick)
            .filter(|i| matches!(i.kind, IncidentKind::SensorFault { .. }))
            .count();
        assert_eq!(new_faults, 6, "four temp lanes + big power + meter stuck");
        assert!(log.iter().all(|i| matches!(
            i.kind,
            IncidentKind::SensorFault {
                observed: FaultObservation::Flatline,
                ..
            }
        )));
    }

    #[test]
    fn monitoring_off_passes_garbage_through() {
        let mut health = SensorHealth::new(HealthConfig {
            monitor: false,
            ..HealthConfig::default()
        });
        let mut log = IncidentLog::default();
        let mut bad = reading([50.0; 4]);
        bad.core_temps_c[2] = f64::NAN;
        let out = health.screen(0, 0.0, bad, &mut log);
        assert!(out.core_temps_c[2].is_nan());
        assert!(log.is_empty());
    }

    #[test]
    fn logs_compare_and_clone_structurally() {
        let mut log = IncidentLog::default();
        log.push(Incident {
            interval: 3,
            time_s: 0.3,
            kind: IncidentKind::Escalated {
                from: SafetyState::Normal,
                to: SafetyState::Throttle,
                temp_c: 81.0,
            },
        });
        log.push(Incident {
            interval: 9,
            time_s: 0.9,
            kind: IncidentKind::SensorFault {
                channel: SensorChannel::PlatformPower,
                observed: FaultObservation::NonFinite,
            },
        });
        assert_eq!(log.clone(), log);
        assert_eq!(log.len(), 2);
        assert_eq!(log.iter().count(), 2);
        assert_eq!((&log).into_iter().count(), 2);
        assert!(!log.shut_down());
        assert_ne!(log, IncidentLog::default());
    }
}
