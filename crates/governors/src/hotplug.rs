//! Idle-power / hotplug governor: how many cores should be online.

/// Decides how many cores of the active cluster should be online based on the
/// number of runnable work streams, with hysteresis so cores are not bounced
/// on and off every interval.
///
/// This models the stock idle-power management the paper leaves in place: "the
/// OS kernel wakes up more processors and increases their frequencies as the
/// workload intensifies".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotplugGovernor {
    /// A core is added when the runnable streams exceed
    /// `online_cores − 1 + up_margin`.
    pub up_margin: f64,
    /// A core is removed when the runnable streams fall below
    /// `online_cores − 1 − down_margin`.
    pub down_margin: f64,
    /// Minimum number of cores kept online.
    pub min_cores: usize,
    /// Maximum number of cores that may be online (cluster size).
    pub max_cores: usize,
}

impl HotplugGovernor {
    /// The default policy for a four-core Exynos cluster.
    pub fn exynos_default() -> Self {
        HotplugGovernor {
            up_margin: 0.20,
            down_margin: 0.40,
            min_cores: 1,
            max_cores: 4,
        }
    }

    /// Chooses the number of online cores for the next interval.
    ///
    /// `runnable_streams` is the demand observed over the last interval;
    /// `currently_online` is the present core count.
    pub fn select_core_count(&self, runnable_streams: f64, currently_online: usize) -> usize {
        let mut online = currently_online.clamp(self.min_cores, self.max_cores);
        // Bring cores up as long as demand exceeds the current capacity.
        while online < self.max_cores
            && runnable_streams > (online as f64 - 1.0) + self.up_margin + 1.0
        {
            online += 1;
        }
        // Take cores down while there is comfortable slack.
        while online > self.min_cores && runnable_streams < (online as f64 - 1.0) - self.down_margin
        {
            online -= 1;
        }
        online.clamp(self.min_cores, self.max_cores)
    }
}

impl Default for HotplugGovernor {
    fn default() -> Self {
        HotplugGovernor::exynos_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stream_keeps_one_or_two_cores() {
        let gov = HotplugGovernor::exynos_default();
        let online = gov.select_core_count(1.1, 4);
        assert!(online <= 2, "got {online}");
        assert!(online >= 1);
    }

    #[test]
    fn four_streams_bring_all_cores_online() {
        let gov = HotplugGovernor::exynos_default();
        assert_eq!(gov.select_core_count(3.8, 1), 4);
        assert_eq!(gov.select_core_count(4.0, 4), 4);
    }

    #[test]
    fn hysteresis_avoids_bouncing() {
        let gov = HotplugGovernor::exynos_default();
        // With two cores online and demand right at the boundary, nothing changes.
        assert_eq!(gov.select_core_count(1.0, 2), 2);
        // Only a clearly lower demand drops the core.
        assert_eq!(gov.select_core_count(0.4, 2), 1);
    }

    #[test]
    fn respects_min_and_max() {
        let gov = HotplugGovernor {
            min_cores: 2,
            max_cores: 3,
            ..HotplugGovernor::exynos_default()
        };
        assert_eq!(gov.select_core_count(0.0, 4), 2);
        assert_eq!(gov.select_core_count(4.0, 1), 3);
    }

    #[test]
    fn intermediate_demand_gets_intermediate_core_count() {
        let gov = HotplugGovernor::exynos_default();
        let online = gov.select_core_count(2.5, 1);
        assert!(online == 2 || online == 3, "got {online}");
    }
}
