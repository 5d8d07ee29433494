//! The board's default fan controller.

use soc_model::{FanLevel, FanPolicy};

/// Stateful wrapper around the default fan policy: remembers the current level
/// so that the hysteresis of [`FanPolicy::level_for`] applies across control
/// intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanController {
    policy: FanPolicy,
    level: FanLevel,
    /// `false` models the fan being physically removed (the "without fan" and
    /// DTPM configurations): the level is forced to `Off` regardless of
    /// temperature.
    enabled: bool,
}

impl FanController {
    /// A controller running the board's default 57/63/68 °C policy.
    pub fn odroid_default() -> Self {
        FanController {
            policy: FanPolicy::odroid_default(),
            level: FanLevel::Off,
            enabled: true,
        }
    }

    /// A controller for a board whose fan has been removed or disabled.
    pub fn disabled() -> Self {
        FanController {
            policy: FanPolicy::odroid_default(),
            level: FanLevel::Off,
            enabled: false,
        }
    }

    /// Whether the fan is physically present and under control.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The current fan level.
    pub fn level(&self) -> FanLevel {
        self.level
    }

    /// Updates the fan level from the current maximum core temperature and
    /// returns the new level.
    pub fn update(&mut self, max_core_temp_c: f64) -> FanLevel {
        if !self.enabled {
            self.level = FanLevel::Off;
            return self.level;
        }
        self.level = self.policy.level_for(max_core_temp_c, self.level);
        self.level
    }
}

impl Default for FanController {
    fn default() -> Self {
        FanController::odroid_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_through_levels_as_temperature_rises() {
        let mut fan = FanController::odroid_default();
        assert_eq!(fan.update(45.0), FanLevel::Off);
        assert_eq!(fan.update(58.0), FanLevel::Base);
        assert_eq!(fan.update(64.0), FanLevel::Half);
        assert_eq!(fan.update(70.0), FanLevel::Full);
        assert!(fan.is_enabled());
    }

    #[test]
    fn hysteresis_holds_level_near_threshold() {
        let mut fan = FanController::odroid_default();
        fan.update(64.0);
        assert_eq!(fan.level(), FanLevel::Half);
        // Dropping just below the threshold keeps the fan at half speed.
        assert_eq!(fan.update(62.5), FanLevel::Half);
        // A clear drop steps it down.
        assert_eq!(fan.update(58.0), FanLevel::Base);
    }

    #[test]
    fn disabled_fan_never_spins() {
        let mut fan = FanController::disabled();
        assert!(!fan.is_enabled());
        assert_eq!(fan.update(90.0), FanLevel::Off);
        assert_eq!(fan.level(), FanLevel::Off);
    }
}
