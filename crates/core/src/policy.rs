//! The DTPM control policy (Section 5.2, Figure 3.1).
//!
//! Every control interval the policy receives the configuration proposed by
//! the stock governors, the measured hotspot temperatures and the measured
//! domain powers. It predicts the temperature one prediction interval ahead;
//! if no violation is predicted the proposal is affirmed untouched. Otherwise
//! it computes the power budget and walks the actuation priority list:
//!
//! 1. cap the active cluster's frequency at the highest level whose predicted
//!    dynamic power fits the budget (Eq. 5.7 / 5.8),
//! 2. if even the minimum frequency does not fit and one core is clearly
//!    hotter than the rest (Eq. 5.9), put the hottest core to sleep,
//! 3. as the last resort, migrate to the little cluster and, if the GPU is
//!    active, drop its frequency one level — these have the largest
//!    performance impact, so they come last.

use std::sync::Arc;

use power_model::{DomainPower, PowerModel};
use soc_model::{ClusterKind, Frequency, PlatformState, PowerDomain, SocSpec};
use thermal_model::HorizonMap;

use crate::budget::PowerBudget;
use crate::config::DtpmConfig;
use crate::predictor::{ThermalPredictor, HOTSPOT_COUNT};
use crate::DtpmError;

/// Everything the policy sees at one control interval.
#[derive(Debug, Clone)]
pub struct DtpmInputs<'a> {
    /// The platform description.
    pub spec: &'a SocSpec,
    /// Configuration proposed by the default governors for the next interval.
    pub proposed: PlatformState,
    /// Measured hotspot (big-core) temperatures, °C.
    pub core_temps_c: [f64; HOTSPOT_COUNT],
    /// Domain powers measured over the last interval, watts.
    pub measured_power: DomainPower,
}

/// What the policy decided to do this interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DtpmAction {
    /// No violation predicted: the default decision was affirmed unchanged.
    Affirmed,
    /// The active cluster's frequency was capped to fit the power budget.
    FrequencyCapped {
        /// Frequency the governors proposed.
        proposed: Frequency,
        /// Frequency actually programmed.
        selected: Frequency,
    },
    /// The hottest big core was put to sleep (and the frequency set as well).
    CoreShutdown {
        /// Index of the core that was taken offline.
        core: usize,
        /// Frequency programmed for the remaining cores.
        frequency: Frequency,
    },
    /// All tasks were migrated to the little cluster; the GPU may also have
    /// been throttled one level.
    ClusterMigration {
        /// Little-cluster frequency programmed.
        frequency: Frequency,
        /// Whether the GPU frequency was reduced as well.
        gpu_throttled: bool,
    },
}

/// The decision for one control interval.
#[derive(Debug, Clone, PartialEq)]
pub struct DtpmDecision {
    /// The platform state to program for the next interval.
    pub state: PlatformState,
    /// Which action was taken.
    pub action: DtpmAction,
    /// Peak hotspot temperature predicted for the *proposed* configuration, °C.
    pub predicted_peak_c: f64,
    /// The power budget, when one had to be computed.
    pub budget: Option<PowerBudget>,
}

/// The predictive DTPM policy.
///
/// The policy holds the precomputed one-shot horizon map `(Aₙ, Bₙ)` of its
/// configured prediction horizon (shared through the predictor's cache, so
/// the K cloned policies of a lockstep sweep all hold the *same* map), which
/// serves both the per-interval violation pre-check — one affine application
/// instead of a `horizon`-length model loop — and the power-budget
/// computation. A successful decision touches no heap — the proposal it
/// reads and the state it returns are `Copy` values — and, in the affirmed
/// steady state, is horizon-independent (the paper's "negligible overhead"
/// in-kernel requirement).
#[derive(Debug, Clone)]
pub struct DtpmPolicy {
    config: DtpmConfig,
    predictor: ThermalPredictor,
    /// The one-shot horizon map for `config.prediction_horizon_steps`.
    map: Arc<HorizonMap>,
}

/// Two policies are equal when they would make the same decisions: the
/// horizon map is derived state (fixed by the configuration and the
/// predictor) and deliberately excluded.
impl PartialEq for DtpmPolicy {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config && self.predictor == other.predictor
    }
}

impl DtpmPolicy {
    /// Creates a policy from its configuration and an identified thermal
    /// predictor, validating the configuration and precomputing the horizon
    /// map once — [`DtpmPolicy::decide`] never re-derives either.
    ///
    /// # Errors
    ///
    /// Returns [`DtpmError::InvalidConfig`] for a non-physical configuration
    /// (see [`DtpmConfig::validate`]).
    pub fn new(config: DtpmConfig, predictor: ThermalPredictor) -> Result<Self, DtpmError> {
        config.validate()?;
        let map = predictor.horizon_map(config.prediction_horizon_steps)?;
        Ok(DtpmPolicy {
            config,
            predictor,
            map,
        })
    }

    /// The policy configuration.
    pub fn config(&self) -> &DtpmConfig {
        &self.config
    }

    /// The thermal predictor.
    pub fn predictor(&self) -> &ThermalPredictor {
        &self.predictor
    }

    /// The precomputed one-shot horizon map of the configured prediction
    /// horizon — what a batched classifier ([`crate::BatchPredictor`])
    /// applies to predict many lanes at once.
    pub fn horizon_map(&self) -> &Arc<HorizonMap> {
        &self.map
    }

    /// The effective temperature constraint the policy classifies against:
    /// the configured constraint minus the prediction safety margin, °C.
    pub fn effective_constraint_c(&self) -> f64 {
        self.config.temperature_constraint_c - self.config.prediction_margin_c
    }

    /// Predicted total power of the active cluster at a candidate frequency,
    /// scaled for the number of online cores relative to the proposal.
    fn predicted_cluster_dynamic(
        &self,
        power_model: &PowerModel,
        spec: &SocSpec,
        cluster: ClusterKind,
        frequency: Frequency,
        online_ratio: f64,
    ) -> Result<f64, DtpmError> {
        let domain = PowerDomain::from_cluster(cluster);
        let voltage = spec.cluster_opps(cluster).voltage_for(frequency)?;
        Ok(power_model.predict_dynamic(domain, voltage, frequency) * online_ratio)
    }

    /// Builds the power vector the predictor should assume for a candidate
    /// platform state: knob-controlled domains (active cluster, GPU) use model
    /// predictions at the candidate operating point, the rest keep their
    /// measured values.
    fn predicted_powers(
        &self,
        inputs: &DtpmInputs<'_>,
        power_model: &PowerModel,
        state: &PlatformState,
        hot_temp_c: f64,
        online_ratio: f64,
    ) -> Result<DomainPower, DtpmError> {
        let spec = inputs.spec;
        let mut powers = inputs.measured_power;

        let cluster = state.active_cluster;
        let domain = PowerDomain::from_cluster(cluster);
        let freq = state.cluster_frequency(cluster);
        let voltage = spec.cluster_opps(cluster).voltage_for(freq)?;
        let dynamic =
            self.predicted_cluster_dynamic(power_model, spec, cluster, freq, online_ratio)?;
        let leakage = power_model.predict_leakage(domain, hot_temp_c, voltage);
        powers[domain] = dynamic + leakage;

        // The inactive cluster is power-gated down to residual leakage.
        let idle_domain = PowerDomain::from_cluster(cluster.other());
        let idle_voltage = spec.cluster_opps(cluster.other()).lowest().voltage;
        powers[idle_domain] = power_model
            .predict_leakage(idle_domain, hot_temp_c, idle_voltage)
            .min(powers[idle_domain].max(0.05));

        // GPU: model prediction at the candidate GPU frequency.
        let gpu_voltage = spec.gpu_opps().voltage_for(state.gpu_frequency)?;
        powers[PowerDomain::Gpu] = power_model.predict_total(
            PowerDomain::Gpu,
            hot_temp_c,
            gpu_voltage,
            state.gpu_frequency,
        );
        Ok(powers)
    }

    /// Makes the DTPM decision for one control interval: predicts the
    /// proposal's outcome and resolves the decision ([`DtpmPolicy::resolve`]).
    ///
    /// # Errors
    ///
    /// Returns an error for a malformed proposed state (frequency not in the
    /// OPP tables) or thermal-model failures.
    pub fn decide(
        &self,
        inputs: &DtpmInputs<'_>,
        power_model: &PowerModel,
    ) -> Result<DtpmDecision, DtpmError> {
        let proposed_powers = self.proposal_powers(inputs, power_model)?;
        let predicted_peak =
            self.predictor
                .predict_peak_with(inputs.core_temps_c, &proposed_powers, &self.map)?;
        self.resolve(inputs, power_model, &proposed_powers, predicted_peak)
    }

    /// The first step of [`DtpmPolicy::decide`]: the power vector the
    /// predictor should assume for the governors' proposal. A batched
    /// classifier can assemble these across many policies, predict them with
    /// one [`crate::BatchPredictor`] panel, and hand each peak to
    /// [`DtpmPolicy::resolve`].
    ///
    /// # Errors
    ///
    /// Returns an error for a malformed proposed state (frequency not in the
    /// OPP tables), or [`DtpmError::NonFiniteInput`] when a measured
    /// temperature or power is NaN/infinite — the policy refuses to classify
    /// on corrupt sensor data (a NaN would otherwise be silently swallowed
    /// by the max fold below and poison the leakage linearisation).
    pub fn proposal_powers(
        &self,
        inputs: &DtpmInputs<'_>,
        power_model: &PowerModel,
    ) -> Result<DomainPower, DtpmError> {
        if inputs.core_temps_c.iter().any(|t| !t.is_finite()) {
            return Err(DtpmError::NonFiniteInput("measured core temperature"));
        }
        if !inputs
            .measured_power
            .as_array()
            .iter()
            .all(|p| p.is_finite())
        {
            return Err(DtpmError::NonFiniteInput("measured domain power"));
        }
        let hot_temp = inputs
            .core_temps_c
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        self.predicted_powers(inputs, power_model, &inputs.proposed, hot_temp, 1.0)
    }

    /// The last step of [`DtpmPolicy::decide`]: resolves the decision given
    /// the proposal's power vector (from [`DtpmPolicy::proposal_powers`]) and
    /// its predicted peak temperature (scalar or batched — the two are
    /// bit-identical). No violation predicted ⇒ the proposal is affirmed
    /// with no further model work; otherwise the power budget is solved from
    /// the precomputed horizon map and walked down the actuation priority
    /// list.
    ///
    /// # Errors
    ///
    /// Returns an error for a malformed proposed state or thermal-model
    /// failures.
    pub fn resolve(
        &self,
        inputs: &DtpmInputs<'_>,
        power_model: &PowerModel,
        proposed_powers: &DomainPower,
        predicted_peak: f64,
    ) -> Result<DtpmDecision, DtpmError> {
        let spec = inputs.spec;
        let constraint = self.effective_constraint_c();

        // Step 1: no violation predicted for the proposal — affirm it
        // untouched. This is the steady-state common path.
        if predicted_peak <= constraint {
            return Ok(DtpmDecision {
                state: inputs.proposed,
                action: DtpmAction::Affirmed,
                predicted_peak_c: predicted_peak,
                budget: None,
            });
        }

        // Step 2: a violation is predicted — compute the power budget for the
        // active cluster from the precomputed horizon map.
        let hot_temp = inputs
            .core_temps_c
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let (a_n, b_n) = (self.map.a_n(), self.map.b_n());
        let cluster = inputs.proposed.active_cluster;
        let domain = PowerDomain::from_cluster(cluster);
        let opps = spec.cluster_opps(cluster);
        let proposed_freq = inputs.proposed.cluster_frequency(cluster);
        let proposed_voltage = opps.voltage_for(proposed_freq)?;
        let leakage = power_model.predict_leakage(domain, hot_temp, proposed_voltage);
        let budget = PowerBudget::compute_with(
            &self.predictor,
            inputs.core_temps_c,
            proposed_powers,
            domain,
            constraint,
            a_n,
            b_n,
            leakage,
        )?;

        // Step 3: highest frequency not above the proposal whose predicted
        // dynamic power fits the dynamic budget (Eqs. 5.7 / 5.8).
        let fits = |freq: Frequency, ratio: f64| -> Result<bool, DtpmError> {
            Ok(
                self.predicted_cluster_dynamic(power_model, spec, cluster, freq, ratio)?
                    <= budget.dynamic_w,
            )
        };
        let candidate = self.highest_fitting_frequency(opps, proposed_freq, |f| fits(f, 1.0))?;
        if let Some(freq) = candidate {
            let mut state = inputs.proposed;
            state.set_cluster_frequency(cluster, freq);
            return Ok(DtpmDecision {
                state,
                action: DtpmAction::FrequencyCapped {
                    proposed: proposed_freq,
                    selected: freq,
                },
                predicted_peak_c: predicted_peak,
                budget: Some(budget),
            });
        }

        // Step 4: even f_min does not fit. If the hottest core clearly runs
        // away from the others (Eq. 5.9) and we may drop a core, do that.
        if cluster == ClusterKind::Big {
            let online = inputs.proposed.online_core_count(ClusterKind::Big);
            let coolest = inputs
                .core_temps_c
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            let imbalance = hot_temp - coolest;
            if online > self.config.min_big_cores && imbalance >= self.config.hot_core_delta_c {
                let ratio = (online as f64 - 1.0) / online as f64;
                let freq = self
                    .highest_fitting_frequency(opps, proposed_freq, |f| fits(f, ratio))?
                    .unwrap_or_else(|| opps.lowest().frequency);
                let mut state = inputs.proposed;
                // Take the hottest *online* core offline.
                let hottest_online = inputs
                    .core_temps_c
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| state.is_core_online(ClusterKind::Big, *i))
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(budget.hot_core);
                state.set_core_online(ClusterKind::Big, hottest_online, false);
                state.set_cluster_frequency(ClusterKind::Big, freq);
                return Ok(DtpmDecision {
                    state,
                    action: DtpmAction::CoreShutdown {
                        core: hottest_online,
                        frequency: freq,
                    },
                    predicted_peak_c: predicted_peak,
                    budget: Some(budget),
                });
            }
        }

        // Step 5: last resort — migrate everything to the little cluster and,
        // if the GPU is drawing real power, drop its frequency one level.
        let little_opps = spec.little_opps();
        // The little cluster's switched capacitance is roughly an order of
        // magnitude below the big cluster's; reuse the big-cluster activity
        // scaled accordingly unless the little-cluster estimator has data.
        let little_domain = PowerDomain::LittleCpu;
        let little_ratio = if power_model.domain(little_domain).activity().sample_count() > 0 {
            1.0
        } else {
            0.12
        };
        let little_fits = |freq: Frequency| -> Result<bool, DtpmError> {
            let voltage = little_opps.voltage_for(freq)?;
            let dynamic = if little_ratio < 1.0 {
                power_model.predict_dynamic(
                    PowerDomain::from_cluster(ClusterKind::Big),
                    voltage,
                    freq,
                ) * little_ratio
            } else {
                power_model.predict_dynamic(little_domain, voltage, freq)
            };
            Ok(dynamic <= budget.dynamic_w)
        };
        let little_freq = self
            .highest_fitting_frequency(little_opps, little_opps.highest().frequency, little_fits)?
            .unwrap_or_else(|| little_opps.lowest().frequency);

        let mut state = inputs.proposed;
        state.migrate_to_cluster(ClusterKind::Little, little_freq);
        let gpu_active = inputs.measured_power[PowerDomain::Gpu] > 0.08;
        let mut gpu_throttled = false;
        if gpu_active {
            if let Some(lower) = spec.gpu_opps().step_down(state.gpu_frequency) {
                state.gpu_frequency = lower.frequency;
                gpu_throttled = true;
            }
        }
        Ok(DtpmDecision {
            state,
            action: DtpmAction::ClusterMigration {
                frequency: little_freq,
                gpu_throttled,
            },
            predicted_peak_c: predicted_peak,
            budget: Some(budget),
        })
    }

    /// Scans the OPP table downwards from `start` and returns the highest
    /// frequency accepted by `fits`, or `None` if none fits.
    fn highest_fitting_frequency(
        &self,
        opps: &soc_model::OppTable,
        start: Frequency,
        mut fits: impl FnMut(Frequency) -> Result<bool, DtpmError>,
    ) -> Result<Option<Frequency>, DtpmError> {
        let start_idx = opps
            .index_of(start)
            .unwrap_or_else(|| opps.len().saturating_sub(1));
        for idx in (0..=start_idx).rev() {
            let freq = opps.get(idx).expect("index in range").frequency;
            if fits(freq)? {
                return Ok(Some(freq));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::Matrix;
    use power_model::PowerModel;
    use soc_model::Voltage;
    use thermal_model::DiscreteThermalModel;

    fn predictor() -> ThermalPredictor {
        let a = Matrix::from_rows(&[
            &[0.71, 0.09, 0.09, 0.09],
            &[0.09, 0.71, 0.09, 0.09],
            &[0.09, 0.09, 0.71, 0.09],
            &[0.09, 0.09, 0.09, 0.71],
        ])
        .unwrap();
        let b = Matrix::from_rows(&[
            &[0.26, 0.10, 0.16, 0.06],
            &[0.24, 0.12, 0.10, 0.06],
            &[0.26, 0.10, 0.16, 0.06],
            &[0.24, 0.12, 0.10, 0.06],
        ])
        .unwrap();
        ThermalPredictor::new(DiscreteThermalModel::new(a, b, 0.1).unwrap(), 28.0).unwrap()
    }

    /// Power model whose big-cluster activity estimator has been trained on a
    /// heavy workload (≈3.5 W dynamic at 1.6 GHz).
    fn trained_power_model(dynamic_at_max_w: f64) -> PowerModel {
        let mut model = PowerModel::exynos5410_defaults();
        let v = Voltage::from_volts(1.20);
        let f = Frequency::from_mhz(1600);
        let leak = model.predict_leakage(PowerDomain::BigCpu, 60.0, v);
        for _ in 0..20 {
            model.observe(PowerDomain::BigCpu, dynamic_at_max_w + leak, 60.0, v, f);
        }
        // Give the GPU and memory estimators some light observations too.
        for _ in 0..5 {
            model.observe(
                PowerDomain::Gpu,
                0.15,
                55.0,
                Voltage::from_volts(0.85),
                Frequency::from_mhz(177),
            );
            model.observe(
                PowerDomain::Memory,
                0.35,
                55.0,
                Voltage::from_volts(1.0),
                Frequency::from_mhz(800),
            );
        }
        model
    }

    fn inputs<'a>(spec: &'a SocSpec, temps: [f64; 4], big_power_w: f64) -> DtpmInputs<'a> {
        DtpmInputs {
            spec,
            proposed: PlatformState::default_for(spec),
            core_temps_c: temps,
            measured_power: DomainPower::new(big_power_w, 0.04, 0.15, 0.35),
        }
    }

    #[test]
    fn cool_system_affirms_default_decision() {
        let spec = SocSpec::odroid_xu_e();
        let policy = DtpmPolicy::new(DtpmConfig::default(), predictor()).unwrap();
        let model = trained_power_model(3.5);
        let decision = policy
            .decide(&inputs(&spec, [42.0; 4], 3.6), &model)
            .unwrap();
        assert_eq!(decision.action, DtpmAction::Affirmed);
        assert_eq!(decision.state, PlatformState::default_for(&spec));
        assert!(decision.budget.is_none());
    }

    #[test]
    fn imminent_violation_caps_frequency() {
        let spec = SocSpec::odroid_xu_e();
        let policy = DtpmPolicy::new(DtpmConfig::default(), predictor()).unwrap();
        let model = trained_power_model(3.5);
        let decision = policy
            .decide(&inputs(&spec, [60.5, 60.0, 60.2, 59.8], 3.7), &model)
            .unwrap();
        match decision.action {
            DtpmAction::FrequencyCapped { proposed, selected } => {
                assert_eq!(proposed.mhz(), 1600);
                assert!(selected.mhz() < 1600, "must throttle, got {selected}");
                assert!(selected.mhz() >= 800);
            }
            other => panic!("expected a frequency cap, got {other:?}"),
        }
        assert!(decision.predicted_peak_c > 62.0);
        let budget = decision.budget.expect("budget computed");
        assert!(budget.total_w.is_finite());
        // The chosen state keeps all cores online on the big cluster.
        assert_eq!(decision.state.active_cluster, ClusterKind::Big);
        assert_eq!(decision.state.online_core_count(ClusterKind::Big), 4);
    }

    #[test]
    fn hotter_system_gets_lower_frequency() {
        let spec = SocSpec::odroid_xu_e();
        let policy = DtpmPolicy::new(DtpmConfig::default(), predictor()).unwrap();
        let model = trained_power_model(3.5);
        let warm = policy
            .decide(&inputs(&spec, [59.0; 4], 3.7), &model)
            .unwrap();
        let hot = policy
            .decide(&inputs(&spec, [62.0; 4], 3.7), &model)
            .unwrap();
        let freq_of = |d: &DtpmDecision| d.state.cluster_frequency(d.state.active_cluster).mhz();
        assert!(freq_of(&hot) <= freq_of(&warm));
    }

    #[test]
    fn runaway_hot_core_is_shut_down_when_budget_is_tiny() {
        let spec = SocSpec::odroid_xu_e();
        let policy = DtpmPolicy::new(DtpmConfig::default(), predictor()).unwrap();
        // Very heavy activity estimate: even 800 MHz cannot fit a tiny budget.
        let model = trained_power_model(4.5);
        // Core 2 runs several degrees hotter than the others and the whole
        // cluster is essentially at the constraint already.
        let decision = policy
            .decide(&inputs(&spec, [66.5, 66.3, 68.8, 66.4], 4.6), &model)
            .unwrap();
        match decision.action {
            DtpmAction::CoreShutdown { core, .. } => {
                assert_eq!(core, 2);
                assert!(!decision.state.is_core_online(ClusterKind::Big, 2));
                assert_eq!(decision.state.online_core_count(ClusterKind::Big), 3);
            }
            other => panic!("expected a core shutdown, got {other:?}"),
        }
    }

    #[test]
    fn balanced_overload_migrates_to_little_cluster() {
        let spec = SocSpec::odroid_xu_e();
        let config = DtpmConfig {
            // Force the shutdown path to be unavailable so migration triggers.
            hot_core_delta_c: 10.0,
            ..DtpmConfig::default()
        };
        let policy = DtpmPolicy::new(config, predictor()).unwrap();
        let model = trained_power_model(4.5);
        let decision = policy
            .decide(&inputs(&spec, [66.0, 65.8, 66.1, 65.9], 4.6), &model)
            .unwrap();
        match decision.action {
            DtpmAction::ClusterMigration { gpu_throttled, .. } => {
                assert_eq!(decision.state.active_cluster, ClusterKind::Little);
                assert_eq!(decision.state.online_core_count(ClusterKind::Little), 4);
                // GPU was drawing 0.15 W in the inputs, so it gets throttled
                // only if it was above the minimum level; the default proposal
                // keeps the GPU at its lowest frequency, so no throttle.
                assert!(!gpu_throttled);
            }
            other => panic!("expected a cluster migration, got {other:?}"),
        }
    }

    #[test]
    fn gpu_gets_throttled_on_migration_when_active() {
        let spec = SocSpec::odroid_xu_e();
        let config = DtpmConfig {
            hot_core_delta_c: 10.0,
            ..DtpmConfig::default()
        };
        let policy = DtpmPolicy::new(config, predictor()).unwrap();
        let model = trained_power_model(4.5);
        let mut input = inputs(&spec, [66.0, 65.8, 66.1, 65.9], 4.6);
        input.proposed.gpu_frequency = Frequency::from_mhz(533);
        input.measured_power[PowerDomain::Gpu] = 0.5;
        let decision = policy.decide(&input, &model).unwrap();
        match decision.action {
            DtpmAction::ClusterMigration { gpu_throttled, .. } => {
                assert!(gpu_throttled);
                assert_eq!(decision.state.gpu_frequency.mhz(), 480);
            }
            other => panic!("expected a cluster migration, got {other:?}"),
        }
    }

    #[test]
    fn decisions_keep_the_platform_state_valid() {
        let spec = SocSpec::odroid_xu_e();
        let policy = DtpmPolicy::new(DtpmConfig::default(), predictor()).unwrap();
        let model = trained_power_model(4.0);
        for temps in [[45.0; 4], [58.0; 4], [61.0, 60.0, 63.5, 60.5], [66.0; 4]] {
            let decision = policy.decide(&inputs(&spec, temps, 4.0), &model).unwrap();
            decision
                .state
                .validate(&spec)
                .expect("DTPM must never produce an invalid platform state");
        }
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let config = DtpmConfig {
            prediction_horizon_steps: 0,
            ..DtpmConfig::default()
        };
        assert!(DtpmPolicy::new(config, predictor()).is_err());
    }

    #[test]
    fn policies_compare_by_configuration() {
        let spec = SocSpec::odroid_xu_e();
        let a = DtpmPolicy::new(DtpmConfig::default(), predictor()).unwrap();
        let b = DtpmPolicy::new(DtpmConfig::default(), predictor()).unwrap();
        assert_eq!(a, b);
        // Deciding derives nothing new: the policy stays behaviourally (and
        // structurally) identical.
        let model = trained_power_model(3.5);
        a.decide(&inputs(&spec, [62.0; 4], 3.7), &model).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn two_phase_split_matches_one_shot_decide() {
        // proposal_powers + external peak + resolve must be exactly decide.
        let spec = SocSpec::odroid_xu_e();
        let policy = DtpmPolicy::new(DtpmConfig::default(), predictor()).unwrap();
        let model = trained_power_model(3.5);
        for temps in [[45.0; 4], [60.5, 60.0, 60.2, 59.8], [66.0; 4]] {
            let input = inputs(&spec, temps, 3.7);
            let powers = policy.proposal_powers(&input, &model).unwrap();
            let peak = policy
                .predictor()
                .predict_peak_with(temps, &powers, policy.horizon_map())
                .unwrap();
            let two_phase = policy.resolve(&input, &model, &powers, peak).unwrap();
            let one_shot = policy.decide(&input, &model).unwrap();
            assert_eq!(two_phase, one_shot);
            assert_eq!(two_phase.predicted_peak_c.to_bits(), peak.to_bits());
        }
    }

    #[test]
    fn accessors_round_trip() {
        let policy = DtpmPolicy::new(DtpmConfig::default(), predictor()).unwrap();
        assert_eq!(policy.config().temperature_constraint_c, 63.0);
        assert_eq!(policy.predictor().ambient_c(), 28.0);
        assert_eq!(policy.horizon_map().horizon(), 10);
        assert_eq!(policy.effective_constraint_c(), 62.5);
    }
}
