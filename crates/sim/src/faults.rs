//! Sensor fault injection: deterministic, declarative fault plans applied
//! over the sampled sensor chain.
//!
//! The controller only ever sees what [`crate::SensorSuite`] reports, so the
//! natural place to model sensor failure is a wrapper over the sampled
//! readings: a [`FaultPlan`] declares per-channel time windows of stuck-at,
//! dropped (NaN), offset-drift, spike and delayed-reading faults, and a
//! [`FaultInjector`] replays the plan over each interval's readings. Three
//! properties are load-bearing:
//!
//! * **Determinism.** Everything is a pure function of the plan, its seed and
//!   the interval index ([`crate::campaign::splitmix64`] hashes decide spike
//!   timing — no shared RNG state, no draw-order coupling with the sensor
//!   noise stream), so the same plan replays bit-identically regardless of
//!   which sweep lane, worker or shard the scenario lands on.
//! * **Isolation.** An injector is owned by one control loop and touches only
//!   that lane's readings; sibling lanes in a batched sweep cannot observe
//!   it (pinned by `tests/compaction.rs`).
//! * **Declarativity.** A plan is a small plain value, so fault scenarios
//!   are grid cells like any other: [`crate::campaign::SweepSpec`] exposes a
//!   fault axis whose cells differ only in their plan.
//!
//! Faults corrupt the *measured* chain, never the plant: the silicon keeps
//! integrating the truth while the controller sees garbage — which is
//! exactly the failure mode the safety ladder and sensor-health monitor
//! ([`crate::safety`]) exist to survive.

use soc_model::PowerDomain;

use crate::campaign::splitmix64;
use crate::sensors::SensorReadings;
use crate::SimError;

/// One addressable channel of the measured sensor chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorChannel {
    /// One of the four per-core temperature sensors (index 0..4).
    CoreTemp(usize),
    /// One of the per-domain INA231 power monitors.
    DomainPower(PowerDomain),
    /// The external platform power meter.
    PlatformPower,
}

impl SensorChannel {
    /// Every channel of the sensor chain, in a fixed canonical order.
    pub const ALL: [SensorChannel; 9] = [
        SensorChannel::CoreTemp(0),
        SensorChannel::CoreTemp(1),
        SensorChannel::CoreTemp(2),
        SensorChannel::CoreTemp(3),
        SensorChannel::DomainPower(PowerDomain::BigCpu),
        SensorChannel::DomainPower(PowerDomain::LittleCpu),
        SensorChannel::DomainPower(PowerDomain::Gpu),
        SensorChannel::DomainPower(PowerDomain::Memory),
        SensorChannel::PlatformPower,
    ];

    /// Whether this channel reports a temperature (°C) rather than a power
    /// (W) — the sensor-health monitor picks its plausibility envelope by
    /// this.
    pub fn is_temperature(self) -> bool {
        matches!(self, SensorChannel::CoreTemp(_))
    }

    /// Reads this channel's value out of a set of readings.
    pub fn read(self, readings: &SensorReadings) -> f64 {
        match self {
            SensorChannel::CoreTemp(core) => readings.core_temps_c[core],
            SensorChannel::DomainPower(domain) => readings.domain_power[domain],
            SensorChannel::PlatformPower => readings.platform_power_w,
        }
    }

    /// Writes this channel's value into a set of readings.
    pub fn write(self, readings: &mut SensorReadings, value: f64) {
        match self {
            SensorChannel::CoreTemp(core) => readings.core_temps_c[core] = value,
            SensorChannel::DomainPower(domain) => readings.domain_power[domain] = value,
            SensorChannel::PlatformPower => readings.platform_power_w = value,
        }
    }
}

impl std::fmt::Display for SensorChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SensorChannel::CoreTemp(core) => write!(f, "core-temp-{core}"),
            SensorChannel::DomainPower(domain) => write!(f, "power-{domain:?}"),
            SensorChannel::PlatformPower => write!(f, "platform-meter"),
        }
    }
}

/// What a faulty channel reports while its window is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The reading freezes at the value it had when the window opened (a
    /// stuck register / wedged driver). Looks plausible — only the
    /// flatline detector can tell.
    StuckAt,
    /// The reading is lost: the channel reports NaN (an I²C read that came
    /// back empty).
    Dropped,
    /// An offset that drifts linearly over the window (calibration walk,
    /// thermal EMF): `reading + initial + drift_per_s · (t − start)`.
    OffsetDrift {
        /// Offset at the start of the window, in the channel's unit.
        initial: f64,
        /// Drift rate, unit per second.
        drift_per_s: f64,
    },
    /// Pseudo-random spikes: roughly one interval in `period_intervals`
    /// (decided by a [`splitmix64`] hash of the plan seed and the interval
    /// index — deterministic, replayable) reads `magnitude` too high or too
    /// low.
    Spike {
        /// Spike amplitude, in the channel's unit (sign is hash-chosen).
        magnitude: f64,
        /// Mean interval count between spikes (clamped to ≥ 1).
        period_intervals: usize,
    },
    /// The channel reports the value it sampled `intervals` control
    /// intervals ago (a stale mailbox / queued DMA). Until enough history
    /// exists the oldest sample available is reported.
    Delayed {
        /// Reporting delay in whole control intervals.
        intervals: usize,
    },
}

/// One fault: a channel, a kind, and the `[start_s, end_s)` window (in
/// simulation time) during which it is active. `end_s = f64::INFINITY` holds
/// the fault for the rest of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// The channel this fault corrupts.
    pub channel: SensorChannel,
    /// What the channel reports while faulted.
    pub kind: FaultKind,
    /// Window start, seconds (inclusive).
    pub start_s: f64,
    /// Window end, seconds (exclusive).
    pub end_s: f64,
}

impl FaultWindow {
    /// Whether the window covers simulation time `time_s`.
    pub fn is_active(&self, time_s: f64) -> bool {
        time_s >= self.start_s && time_s < self.end_s
    }
}

/// A declarative sensor fault scenario: a list of fault windows
/// plus the seed that fixes every hash-derived choice (spike timing and
/// signs). See the [module docs](self) for the determinism contract.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for hash-derived fault behaviour (spike timing/sign).
    pub seed: u64,
    /// The fault windows, applied in order (later windows see the output of
    /// earlier ones when they overlap on a channel).
    pub windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            windows: Vec::new(),
        }
    }

    /// Appends a fault window.
    #[must_use]
    pub fn with_window(mut self, window: FaultWindow) -> Self {
        self.windows.push(window);
        self
    }

    /// Whether the plan contains no windows at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Validates every window of the plan: windows must be well-formed
    /// (`start_s` finite and non-negative, `end_s > start_s` — open-ended
    /// `end_s = ∞` is fine), fault parameters must be finite (offsets,
    /// drift rates, spike magnitudes), and channels must exist (core index
    /// < 4). A malformed plan is rejected here, at construction or
    /// deserialisation time, with a descriptive [`SimError::FaultPlan`] —
    /// not discovered as silent NaN injection mid-campaign. Every run gate
    /// ([`crate::Experiment::new`], sweeps, campaigns) validates the
    /// configured plan before building its control loop.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FaultPlan`] naming the first offending window and
    /// what is wrong with it.
    pub fn validate(&self) -> Result<(), SimError> {
        for (index, window) in self.windows.iter().enumerate() {
            let reject = |what: String| {
                Err(SimError::FaultPlan(format!(
                    "window {index} ({}): {what}",
                    window.channel
                )))
            };
            if let SensorChannel::CoreTemp(core) = window.channel {
                if core >= 4 {
                    return reject(format!("core-temp index {core} out of range (0..4)"));
                }
            }
            if !window.start_s.is_finite() || window.start_s < 0.0 {
                return reject(format!(
                    "window start {} must be finite and non-negative",
                    window.start_s
                ));
            }
            if window.end_s.is_nan() || window.end_s <= window.start_s {
                return reject(format!(
                    "window [{}, {}) is inverted or zero-length",
                    window.start_s, window.end_s
                ));
            }
            match window.kind {
                FaultKind::StuckAt | FaultKind::Dropped | FaultKind::Delayed { .. } => {}
                FaultKind::OffsetDrift {
                    initial,
                    drift_per_s,
                } => {
                    if !initial.is_finite() || !drift_per_s.is_finite() {
                        return reject(format!(
                            "offset-drift parameters ({initial}, {drift_per_s}/s) must be finite"
                        ));
                    }
                }
                FaultKind::Spike { magnitude, .. } => {
                    if !magnitude.is_finite() {
                        return reject(format!("spike magnitude {magnitude} must be finite"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Per-window mutable state of an in-flight injection.
#[derive(Debug, Clone, Default)]
struct WindowState {
    /// The latched value of a stuck-at window (`None` outside the window, so
    /// a window that re-opens re-latches).
    stuck: Option<f64>,
    /// Rolling history of the channel's pre-fault values for a delayed
    /// window (front = oldest retained sample).
    history: std::collections::VecDeque<f64>,
}

/// Applies a [`FaultPlan`] over each interval's sampled readings.
///
/// Owned by one control loop; state is a pure function of the plan and the
/// sequence of `(interval, time, readings)` triples it has seen, so replay is
/// bit-identical for a given scenario regardless of scheduling.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    states: Vec<WindowState>,
}

impl FaultInjector {
    /// An injector replaying the given plan from the start of a run.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let states = plan
            .windows
            .iter()
            .map(|_| WindowState::default())
            .collect();
        FaultInjector { plan, states }
    }

    /// The plan this injector replays.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Applies the plan to one interval's readings. `interval` is the
    /// control-interval index (0 = the bootstrap sample), `time_s` the
    /// simulation time of the sample.
    pub fn apply(
        &mut self,
        interval: usize,
        time_s: f64,
        mut readings: SensorReadings,
    ) -> SensorReadings {
        for (index, (window, state)) in self
            .plan
            .windows
            .iter()
            .zip(self.states.iter_mut())
            .enumerate()
        {
            let value = window.channel.read(&readings);
            // Delayed windows record history continuously (also outside the
            // window), so a window opening mid-run has samples to serve.
            if let FaultKind::Delayed { intervals } = window.kind {
                state.history.push_back(value);
                while state.history.len() > intervals + 1 {
                    state.history.pop_front();
                }
            }
            if !window.is_active(time_s) {
                state.stuck = None;
                continue;
            }
            let faulted = match window.kind {
                FaultKind::StuckAt => *state.stuck.get_or_insert(value),
                FaultKind::Dropped => f64::NAN,
                FaultKind::OffsetDrift {
                    initial,
                    drift_per_s,
                } => value + initial + drift_per_s * (time_s - window.start_s),
                FaultKind::Spike {
                    magnitude,
                    period_intervals,
                } => {
                    let hash = splitmix64(
                        self.plan
                            .seed
                            .wrapping_add((index as u64) << 32)
                            .wrapping_add(interval as u64),
                    );
                    if hash.is_multiple_of(period_intervals.max(1) as u64) {
                        let sign = if hash >> 63 == 0 { 1.0 } else { -1.0 };
                        value + sign * magnitude
                    } else {
                        value
                    }
                }
                FaultKind::Delayed { .. } => {
                    *state.history.front().expect("history holds this sample")
                }
            };
            window.channel.write(&mut readings, faulted);
        }
        readings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_model::DomainPower;

    fn reading(temps: [f64; 4], platform_w: f64) -> SensorReadings {
        SensorReadings {
            core_temps_c: temps,
            domain_power: DomainPower::new(2.0, 0.1, 0.3, 0.4),
            platform_power_w: platform_w,
        }
    }

    #[test]
    fn channels_read_and_write_every_lane() {
        let mut r = reading([50.0, 51.0, 52.0, 53.0], 6.0);
        for (i, channel) in SensorChannel::ALL.into_iter().enumerate() {
            channel.write(&mut r, 100.0 + i as f64);
        }
        for (i, channel) in SensorChannel::ALL.into_iter().enumerate() {
            assert_eq!(channel.read(&r), 100.0 + i as f64, "{channel}");
        }
        assert!(SensorChannel::CoreTemp(2).is_temperature());
        assert!(!SensorChannel::PlatformPower.is_temperature());
    }

    #[test]
    fn stuck_at_latches_the_window_opening_value_and_relatches() {
        let plan = FaultPlan::new(1).with_window(FaultWindow {
            channel: SensorChannel::CoreTemp(0),
            kind: FaultKind::StuckAt,
            start_s: 0.2,
            end_s: 0.4,
        });
        let mut injector = FaultInjector::new(plan);
        let out = injector.apply(1, 0.1, reading([50.0; 4], 6.0));
        assert_eq!(out.core_temps_c[0], 50.0, "before the window: untouched");
        let out = injector.apply(2, 0.2, reading([51.0; 4], 6.0));
        assert_eq!(out.core_temps_c[0], 51.0, "latches the opening value");
        let out = injector.apply(3, 0.3, reading([57.0; 4], 6.0));
        assert_eq!(out.core_temps_c[0], 57.0 - 6.0, "stays stuck at 51");
        let out = injector.apply(4, 0.4, reading([58.0; 4], 6.0));
        assert_eq!(out.core_temps_c[0], 58.0, "window closed (exclusive end)");
        // Sibling channels untouched throughout.
        assert_eq!(out.core_temps_c[1], 58.0);
    }

    #[test]
    fn dropped_reads_nan_and_only_in_the_window() {
        let plan = FaultPlan::new(2).with_window(FaultWindow {
            channel: SensorChannel::PlatformPower,
            kind: FaultKind::Dropped,
            start_s: 1.0,
            end_s: f64::INFINITY,
        });
        let mut injector = FaultInjector::new(plan);
        assert_eq!(
            injector
                .apply(0, 0.0, reading([50.0; 4], 6.0))
                .platform_power_w,
            6.0
        );
        let out = injector.apply(10, 1.0, reading([50.0; 4], 6.0));
        assert!(out.platform_power_w.is_nan());
        assert!(out.core_temps_c.iter().all(|t| *t == 50.0));
    }

    #[test]
    fn offset_drift_grows_linearly_from_the_window_start() {
        let plan = FaultPlan::new(3).with_window(FaultWindow {
            channel: SensorChannel::CoreTemp(2),
            kind: FaultKind::OffsetDrift {
                initial: 2.0,
                drift_per_s: 1.5,
            },
            start_s: 1.0,
            end_s: 10.0,
        });
        let mut injector = FaultInjector::new(plan);
        let out = injector.apply(10, 1.0, reading([50.0; 4], 6.0));
        assert_eq!(out.core_temps_c[2], 52.0);
        let out = injector.apply(30, 3.0, reading([50.0; 4], 6.0));
        assert_eq!(out.core_temps_c[2], 52.0 + 1.5 * 2.0);
    }

    #[test]
    fn spikes_are_seed_deterministic_and_roughly_periodic() {
        let window = FaultWindow {
            channel: SensorChannel::CoreTemp(0),
            kind: FaultKind::Spike {
                magnitude: 20.0,
                period_intervals: 5,
            },
            start_s: 0.0,
            end_s: f64::INFINITY,
        };
        let run = |seed: u64| -> Vec<f64> {
            let mut injector = FaultInjector::new(FaultPlan::new(seed).with_window(window));
            (0..200)
                .map(|k| {
                    injector
                        .apply(k, k as f64 * 0.1, reading([50.0; 4], 6.0))
                        .core_temps_c[0]
                })
                .collect()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed replays the same spikes");
        let spikes = a.iter().filter(|t| **t != 50.0).count();
        assert!(
            (10..=80).contains(&spikes),
            "~1 in 5 of 200 intervals should spike, got {spikes}"
        );
        assert!(a.iter().all(|t| *t == 50.0 || *t == 70.0 || *t == 30.0));
        let c = run(8);
        assert_ne!(a, c, "a different seed moves the spikes");
    }

    #[test]
    fn delayed_channel_reports_old_samples() {
        let plan = FaultPlan::new(4).with_window(FaultWindow {
            channel: SensorChannel::CoreTemp(1),
            kind: FaultKind::Delayed { intervals: 3 },
            start_s: 0.5,
            end_s: f64::INFINITY,
        });
        let mut injector = FaultInjector::new(plan);
        // History accumulates before the window opens.
        for k in 0..5 {
            let out = injector.apply(k, k as f64 * 0.1, reading([40.0 + k as f64; 4], 6.0));
            assert_eq!(
                out.core_temps_c[1],
                40.0 + k as f64,
                "pre-window pass-through"
            );
        }
        // At t=0.5 (k=5) the window is active: report the sample from 3
        // intervals ago (k=2).
        let out = injector.apply(5, 0.5, reading([45.0; 4], 6.0));
        assert_eq!(out.core_temps_c[1], 42.0);
        let out = injector.apply(6, 0.6, reading([46.0; 4], 6.0));
        assert_eq!(out.core_temps_c[1], 43.0);
    }

    #[test]
    fn validation_accepts_well_formed_plans() {
        assert!(FaultPlan::new(0).validate().is_ok(), "empty plan is fine");
        let plan = FaultPlan::new(1)
            .with_window(FaultWindow {
                channel: SensorChannel::CoreTemp(3),
                kind: FaultKind::OffsetDrift {
                    initial: -2.0,
                    drift_per_s: 0.5,
                },
                start_s: 0.0,
                end_s: f64::INFINITY,
            })
            .with_window(FaultWindow {
                channel: SensorChannel::PlatformPower,
                kind: FaultKind::Spike {
                    magnitude: 10.0,
                    period_intervals: 5,
                },
                start_s: 1.0,
                end_s: 2.0,
            });
        assert!(plan.validate().is_ok(), "open-ended windows are fine");
    }

    #[test]
    fn validation_rejects_malformed_windows_descriptively() {
        let base = |kind, start_s, end_s| FaultWindow {
            channel: SensorChannel::CoreTemp(0),
            kind,
            start_s,
            end_s,
        };
        let cases = [
            (base(FaultKind::Dropped, 1.0, 1.0), "zero-length"),
            (base(FaultKind::Dropped, 2.0, 1.0), "inverted"),
            (base(FaultKind::Dropped, f64::NAN, 5.0), "finite"),
            (base(FaultKind::Dropped, -1.0, 5.0), "non-negative"),
            (
                base(FaultKind::Dropped, 0.0, f64::NAN),
                "inverted or zero-length",
            ),
            (
                base(
                    FaultKind::OffsetDrift {
                        initial: f64::INFINITY,
                        drift_per_s: 0.0,
                    },
                    0.0,
                    1.0,
                ),
                "offset-drift",
            ),
            (
                base(
                    FaultKind::OffsetDrift {
                        initial: 0.0,
                        drift_per_s: f64::NAN,
                    },
                    0.0,
                    1.0,
                ),
                "offset-drift",
            ),
            (
                base(
                    FaultKind::Spike {
                        magnitude: f64::NAN,
                        period_intervals: 3,
                    },
                    0.0,
                    1.0,
                ),
                "spike magnitude",
            ),
            (
                FaultWindow {
                    channel: SensorChannel::CoreTemp(7),
                    kind: FaultKind::Dropped,
                    start_s: 0.0,
                    end_s: 1.0,
                },
                "out of range",
            ),
        ];
        for (window, needle) in cases {
            let err = FaultPlan::new(0)
                .with_window(window)
                .validate()
                .expect_err("malformed window must be rejected");
            let msg = err.to_string();
            assert!(
                msg.contains("invalid fault plan") && msg.contains(needle),
                "error {msg:?} should mention {needle:?}"
            );
        }
        // The offending window is named by position.
        let plan = FaultPlan::new(0)
            .with_window(base(FaultKind::Dropped, 0.0, 1.0))
            .with_window(base(FaultKind::Dropped, 5.0, 4.0));
        assert!(plan
            .validate()
            .unwrap_err()
            .to_string()
            .contains("window 1"));
    }

    #[test]
    fn plans_compare_and_clone_structurally() {
        let plan = FaultPlan::new(99)
            .with_window(FaultWindow {
                channel: SensorChannel::DomainPower(PowerDomain::BigCpu),
                kind: FaultKind::Spike {
                    magnitude: 5.0,
                    period_intervals: 10,
                },
                start_s: 2.0,
                end_s: 8.0,
            })
            .with_window(FaultWindow {
                channel: SensorChannel::CoreTemp(3),
                kind: FaultKind::Delayed { intervals: 7 },
                start_s: 0.0,
                end_s: f64::INFINITY,
            });
        assert_eq!(plan.clone(), plan);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(0).is_empty());
        assert_eq!(FaultInjector::new(plan.clone()).plan(), &plan);
    }
}
