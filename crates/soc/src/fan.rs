//! Fan model of the Odroid-XU+E development board.
//!
//! The board's default configuration cools the SoC with a small fan: it is
//! switched on when the maximum core temperature exceeds 57 °C, raised to 50 %
//! speed above 63 °C and to 100 % above 68 °C (Section 6.2 of the paper). The
//! paper's whole point is that phones cannot carry a fan, so the proposed DTPM
//! algorithm must regulate temperature with the fan removed while matching or
//! beating the fan's thermal stability.

/// Discrete fan speed levels used by the default configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FanLevel {
    /// Fan switched off.
    #[default]
    Off,
    /// Fan switched on at its base speed (trips at 57 °C).
    Base,
    /// Fan at 50 % speed (trips at 63 °C).
    Half,
    /// Fan at 100 % speed (trips at 68 °C).
    Full,
}

impl FanLevel {
    /// All levels in increasing cooling order.
    pub const ALL: [FanLevel; 4] = [
        FanLevel::Off,
        FanLevel::Base,
        FanLevel::Half,
        FanLevel::Full,
    ];

    /// Fraction of the maximum fan speed this level corresponds to.
    ///
    /// The base speed is deliberately weak — on the real board the fan at its
    /// activation speed barely slows the temperature rise, which is why the
    /// default configuration cycles through the 57/63/68 °C thresholds and
    /// shows the large temperature swings of Figures 6.3–6.5.
    pub fn speed_fraction(self) -> f64 {
        match self {
            FanLevel::Off => 0.0,
            FanLevel::Base => 0.12,
            FanLevel::Half => 0.50,
            FanLevel::Full => 1.00,
        }
    }

    /// Returns `true` if the fan is spinning at all.
    pub fn is_on(self) -> bool {
        !matches!(self, FanLevel::Off)
    }
}

impl std::fmt::Display for FanLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FanLevel::Off => "off",
            FanLevel::Base => "on (base speed)",
            FanLevel::Half => "50%",
            FanLevel::Full => "100%",
        };
        write!(f, "{s}")
    }
}

/// Physical model of the fan: electrical power drawn and the additional
/// convective conductance it provides from the SoC case to ambient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanModel {
    /// Electrical power drawn at full speed, in watts.
    pub max_power_w: f64,
    /// Additional case-to-ambient thermal conductance at full speed, in W/K.
    /// The plant adds `speed_fraction × max_conductance_boost` to its passive
    /// case-to-ambient conductance.
    pub max_conductance_boost_w_per_k: f64,
}

impl FanModel {
    /// Fan of the Odroid-XU+E board: a small 5 V fan drawing roughly half a
    /// watt at full speed and roughly doubling the convective heat removal
    /// from the heat sink to ambient.
    pub fn odroid_xu_e() -> Self {
        FanModel {
            max_power_w: 0.45,
            max_conductance_boost_w_per_k: 0.28,
        }
    }

    /// Electrical power drawn at the given level, in watts.
    pub fn power_w(&self, level: FanLevel) -> f64 {
        // Fan power grows roughly with the cube of speed for an ideal fan, but
        // small DC fans have significant fixed losses; a linear model between
        // a base offset and the maximum is a good approximation.
        match level {
            FanLevel::Off => 0.0,
            level => 0.15 * self.max_power_w + 0.85 * self.max_power_w * level.speed_fraction(),
        }
    }

    /// Additional case-to-ambient conductance provided at the given level, in W/K.
    pub fn conductance_boost_w_per_k(&self, level: FanLevel) -> f64 {
        self.max_conductance_boost_w_per_k * level.speed_fraction()
    }
}

impl Default for FanModel {
    fn default() -> Self {
        FanModel::odroid_xu_e()
    }
}

/// The temperature thresholds of the board's default fan-control policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanPolicy {
    /// Temperature (°C) above which the fan is switched on.
    pub on_threshold_c: f64,
    /// Temperature (°C) above which the fan runs at 50 %.
    pub half_threshold_c: f64,
    /// Temperature (°C) above which the fan runs at 100 %.
    pub full_threshold_c: f64,
    /// Hysteresis (°C) applied when stepping back down to avoid chattering.
    pub hysteresis_c: f64,
}

impl FanPolicy {
    /// The default 57/63/68 °C policy described in Section 6.2.
    pub fn odroid_default() -> Self {
        FanPolicy {
            on_threshold_c: 57.0,
            half_threshold_c: 63.0,
            full_threshold_c: 68.0,
            hysteresis_c: 2.0,
        }
    }

    /// The fan level this policy selects for the given maximum core
    /// temperature, given the level currently active (hysteresis applies when
    /// stepping down).
    pub fn level_for(&self, max_core_temp_c: f64, current: FanLevel) -> FanLevel {
        // Step up based on raw thresholds.
        let up = if max_core_temp_c > self.full_threshold_c {
            FanLevel::Full
        } else if max_core_temp_c > self.half_threshold_c {
            FanLevel::Half
        } else if max_core_temp_c > self.on_threshold_c {
            FanLevel::Base
        } else {
            FanLevel::Off
        };
        if rank(up) >= rank(current) {
            return up;
        }
        // Stepping down: only when the temperature has fallen below the
        // threshold of the current level minus the hysteresis.
        let down_threshold = match current {
            FanLevel::Full => self.full_threshold_c,
            FanLevel::Half => self.half_threshold_c,
            FanLevel::Base => self.on_threshold_c,
            FanLevel::Off => return FanLevel::Off,
        };
        if max_core_temp_c < down_threshold - self.hysteresis_c {
            up
        } else {
            current
        }
    }
}

impl Default for FanPolicy {
    fn default() -> Self {
        FanPolicy::odroid_default()
    }
}

fn rank(level: FanLevel) -> u8 {
    match level {
        FanLevel::Off => 0,
        FanLevel::Base => 1,
        FanLevel::Half => 2,
        FanLevel::Full => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_fractions_are_monotonic() {
        let fractions: Vec<f64> = FanLevel::ALL.iter().map(|l| l.speed_fraction()).collect();
        assert!(fractions.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(fractions[0], 0.0);
        assert_eq!(fractions[3], 1.0);
    }

    #[test]
    fn fan_power_increases_with_level() {
        let fan = FanModel::odroid_xu_e();
        assert_eq!(fan.power_w(FanLevel::Off), 0.0);
        let powers: Vec<f64> = FanLevel::ALL.iter().map(|&l| fan.power_w(l)).collect();
        assert!(powers.windows(2).all(|w| w[1] > w[0]));
        assert!((fan.power_w(FanLevel::Full) - fan.max_power_w).abs() < 1e-12);
    }

    #[test]
    fn conductance_boost_scales_with_speed() {
        let fan = FanModel::odroid_xu_e();
        assert_eq!(fan.conductance_boost_w_per_k(FanLevel::Off), 0.0);
        assert!(
            fan.conductance_boost_w_per_k(FanLevel::Half)
                < fan.conductance_boost_w_per_k(FanLevel::Full)
        );
    }

    #[test]
    fn policy_steps_up_at_paper_thresholds() {
        let p = FanPolicy::odroid_default();
        assert_eq!(p.level_for(50.0, FanLevel::Off), FanLevel::Off);
        assert_eq!(p.level_for(58.0, FanLevel::Off), FanLevel::Base);
        assert_eq!(p.level_for(64.0, FanLevel::Off), FanLevel::Half);
        assert_eq!(p.level_for(69.0, FanLevel::Off), FanLevel::Full);
    }

    #[test]
    fn policy_applies_hysteresis_when_stepping_down() {
        let p = FanPolicy::odroid_default();
        // At 62°C a fan already at Half stays at Half (62 > 63 - 2).
        assert_eq!(p.level_for(62.0, FanLevel::Half), FanLevel::Half);
        // Once the temperature drops below 61°C the fan steps down.
        assert_eq!(p.level_for(60.5, FanLevel::Half), FanLevel::Base);
        // An off fan stays off regardless.
        assert_eq!(p.level_for(40.0, FanLevel::Off), FanLevel::Off);
        // Cooling all the way down turns the fan off even from Full.
        assert_eq!(p.level_for(40.0, FanLevel::Full), FanLevel::Off);
    }

    #[test]
    fn fan_is_on_reports_spinning() {
        assert!(!FanLevel::Off.is_on());
        assert!(FanLevel::Base.is_on());
        assert!(FanLevel::Full.is_on());
    }
}
