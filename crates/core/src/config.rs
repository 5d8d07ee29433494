//! DTPM configuration parameters.

/// Tunables of the DTPM algorithm.
///
/// The defaults reproduce the configuration evaluated in the paper: a 63 °C
/// constraint (the same threshold the fan controller uses, for a fair
/// comparison), a 1 s prediction interval realised as ten 100 ms control
/// intervals, and an empirically chosen hotspot-imbalance threshold Δ for the
/// hottest-core shutdown rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtpmConfig {
    /// Maximum permissible hotspot temperature `T_max`, in °C.
    pub temperature_constraint_c: f64,
    /// Prediction horizon in control intervals (10 intervals × 100 ms = 1 s).
    pub prediction_horizon_steps: usize,
    /// Hotspot imbalance threshold Δ (°C) above which the hottest core is put
    /// to sleep rather than throttling the whole cluster further (Eq. 5.9).
    pub hot_core_delta_c: f64,
    /// Minimum number of big cores kept online before migrating to the little
    /// cluster.
    pub min_big_cores: usize,
    /// Safety margin (°C) subtracted from the constraint when computing the
    /// power budget, absorbing prediction error (the paper reports < 1 °C at
    /// the 1 s horizon).
    pub prediction_margin_c: f64,
}

impl Default for DtpmConfig {
    fn default() -> Self {
        DtpmConfig {
            temperature_constraint_c: 63.0,
            prediction_horizon_steps: 10,
            hot_core_delta_c: 1.0,
            min_big_cores: 2,
            prediction_margin_c: 0.5,
        }
    }
}

impl DtpmConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DtpmError::InvalidConfig`] for non-physical values.
    pub fn validate(&self) -> Result<(), crate::DtpmError> {
        if !(self.temperature_constraint_c > 0.0) {
            return Err(crate::DtpmError::InvalidConfig(
                "temperature constraint must be positive",
            ));
        }
        if self.prediction_horizon_steps == 0 {
            return Err(crate::DtpmError::InvalidConfig(
                "prediction horizon must be at least one step",
            ));
        }
        if self.hot_core_delta_c < 0.0 {
            return Err(crate::DtpmError::InvalidConfig(
                "hot-core delta must be non-negative",
            ));
        }
        if self.min_big_cores == 0 || self.min_big_cores > 4 {
            return Err(crate::DtpmError::InvalidConfig(
                "minimum big-core count must be between 1 and 4",
            ));
        }
        if self.prediction_margin_c < 0.0 {
            return Err(crate::DtpmError::InvalidConfig(
                "prediction margin must be non-negative",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let cfg = DtpmConfig::default();
        assert_eq!(cfg.temperature_constraint_c, 63.0);
        assert_eq!(cfg.prediction_horizon_steps, 10);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(DtpmConfig {
            temperature_constraint_c: 0.0,
            ..DtpmConfig::default()
        }
        .validate()
        .is_err());
        assert!(DtpmConfig {
            prediction_horizon_steps: 0,
            ..DtpmConfig::default()
        }
        .validate()
        .is_err());
        assert!(DtpmConfig {
            hot_core_delta_c: -1.0,
            ..DtpmConfig::default()
        }
        .validate()
        .is_err());
        assert!(DtpmConfig {
            min_big_cores: 0,
            ..DtpmConfig::default()
        }
        .validate()
        .is_err());
        assert!(DtpmConfig {
            min_big_cores: 5,
            ..DtpmConfig::default()
        }
        .validate()
        .is_err());
        assert!(DtpmConfig {
            prediction_margin_c: -0.1,
            ..DtpmConfig::default()
        }
        .validate()
        .is_err());
    }
}
