//! CPU frequency governors (DVFS policies).

use soc_model::{Frequency, OppTable};

/// Input the kernel hands a cpufreq governor at every sampling interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorInput {
    /// Busy fraction of the most loaded online core over the last interval,
    /// 0..1 (what `ondemand` calls the load).
    pub load: f64,
    /// Frequency the cluster ran at during that interval.
    pub current: Frequency,
}

/// The classic `ondemand` governor: jump to the maximum frequency when the
/// load exceeds the up-threshold, otherwise pick the lowest frequency that
/// can serve the measured load with some headroom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OndemandGovernor {
    /// Load above which the governor jumps straight to the maximum frequency.
    pub up_threshold: f64,
    /// Headroom factor when scaling down (the selected frequency can serve the
    /// load at no more than this utilisation).
    pub down_headroom: f64,
}

impl Default for OndemandGovernor {
    fn default() -> Self {
        OndemandGovernor {
            up_threshold: 0.80,
            down_headroom: 0.80,
        }
    }
}

impl OndemandGovernor {
    /// Selects the frequency for the next interval from the cluster's OPP
    /// table, given the load observed over the last one.
    pub fn select_frequency(&self, input: &GovernorInput, opps: &OppTable) -> Frequency {
        let load = input.load.clamp(0.0, 1.0);
        if load > self.up_threshold {
            return opps.highest().frequency;
        }
        // Capacity needed so the load would sit at `down_headroom` utilisation.
        let required_mhz = input.current.mhz() as f64 * load / self.down_headroom;
        opps.ceil(Frequency::from_mhz(required_mhz.ceil() as u32))
            .frequency
    }
}

/// The `userspace` governor: a fixed frequency chosen by the caller (used by
/// the PRBS identification experiments, which toggle the frequency directly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserspaceGovernor {
    /// The pinned frequency.
    pub frequency: Frequency,
}

impl UserspaceGovernor {
    /// Creates a userspace governor pinned to `frequency`.
    pub fn new(frequency: Frequency) -> Self {
        UserspaceGovernor { frequency }
    }

    /// Re-pins the governor to a new frequency (how the PRBS experiment
    /// toggles between the minimum and maximum levels).
    pub fn set_frequency(&mut self, frequency: Frequency) {
        self.frequency = frequency;
    }

    /// Selects the frequency for the next interval: the pinned frequency,
    /// snapped to the nearest operating point at or below it. The load is
    /// ignored.
    pub fn select_frequency(&self, _input: &GovernorInput, opps: &OppTable) -> Frequency {
        opps.floor(self.frequency)
            .unwrap_or_else(|| opps.lowest())
            .frequency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(load: f64, mhz: u32) -> GovernorInput {
        GovernorInput {
            load,
            current: Frequency::from_mhz(mhz),
        }
    }

    #[test]
    fn ondemand_jumps_to_max_under_high_load() {
        let opps = OppTable::exynos5410_big();
        let gov = OndemandGovernor::default();
        assert_eq!(gov.select_frequency(&input(0.95, 800), &opps).mhz(), 1600);
        assert_eq!(gov.select_frequency(&input(1.0, 1600), &opps).mhz(), 1600);
    }

    #[test]
    fn ondemand_scales_down_proportionally_to_load() {
        let opps = OppTable::exynos5410_big();
        let gov = OndemandGovernor::default();
        // 40% load at 1.6 GHz needs ~800 MHz at 80% headroom.
        assert_eq!(gov.select_frequency(&input(0.40, 1600), &opps).mhz(), 800);
        // 60% load at 1.6 GHz needs 1200 MHz.
        assert_eq!(gov.select_frequency(&input(0.60, 1600), &opps).mhz(), 1200);
        // Idle load clamps at the minimum.
        assert_eq!(gov.select_frequency(&input(0.0, 1600), &opps).mhz(), 800);
    }

    #[test]
    fn ondemand_clamps_out_of_range_load() {
        let opps = OppTable::exynos5410_big();
        let gov = OndemandGovernor::default();
        assert_eq!(gov.select_frequency(&input(7.0, 800), &opps).mhz(), 1600);
        assert_eq!(gov.select_frequency(&input(-1.0, 1600), &opps).mhz(), 800);
    }

    #[test]
    fn userspace_pins_and_snaps_to_table() {
        let opps = OppTable::exynos5410_big();
        let mut gov = UserspaceGovernor::new(Frequency::from_mhz(1234));
        assert_eq!(gov.select_frequency(&input(1.0, 800), &opps).mhz(), 1200);
        gov.set_frequency(Frequency::from_mhz(100));
        assert_eq!(gov.select_frequency(&input(1.0, 800), &opps).mhz(), 800);
    }
}
