//! The complete platform specification and its run-time actuator state.

use crate::cluster::{ClusterKind, ClusterSpec};
use crate::fan::FanModel;
use crate::opp::{Frequency, OppTable};
use crate::SocError;

/// Static description of the SoC and board: clusters, GPU, fan.
///
/// # Example
///
/// ```
/// use soc_model::{ClusterKind, SocSpec};
///
/// let spec = SocSpec::odroid_xu_e();
/// assert_eq!(spec.cluster(ClusterKind::Big).core_count, 4);
/// assert_eq!(spec.gpu_opps().len(), 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SocSpec {
    big: ClusterSpec,
    little: ClusterSpec,
    gpu_opps: OppTable,
    fan: FanModel,
    /// Ambient temperature around the board in °C.
    ambient_c: f64,
}

impl SocSpec {
    /// The Odroid-XU+E board with the Samsung Exynos 5410 used by the paper.
    pub fn odroid_xu_e() -> Self {
        SocSpec {
            big: ClusterSpec::exynos5410_big(),
            little: ClusterSpec::exynos5410_little(),
            gpu_opps: OppTable::exynos5410_gpu(),
            fan: FanModel::odroid_xu_e(),
            ambient_c: 28.0,
        }
    }

    /// Returns a copy of this spec with a different ambient temperature, used
    /// by the furnace characterisation experiments that sweep the ambient
    /// from 40 °C to 80 °C.
    pub fn with_ambient_c(mut self, ambient_c: f64) -> Self {
        self.ambient_c = ambient_c;
        self
    }

    /// The cluster description for the given kind.
    pub fn cluster(&self, kind: ClusterKind) -> &ClusterSpec {
        match kind {
            ClusterKind::Big => &self.big,
            ClusterKind::Little => &self.little,
        }
    }

    /// Operating points of the big cluster (Table 6.1).
    pub fn big_opps(&self) -> &OppTable {
        &self.big.opps
    }

    /// Operating points of the little cluster (Table 6.2).
    pub fn little_opps(&self) -> &OppTable {
        &self.little.opps
    }

    /// Operating points of the GPU (Table 6.3).
    pub fn gpu_opps(&self) -> &OppTable {
        &self.gpu_opps
    }

    /// Operating points of the given cluster.
    pub fn cluster_opps(&self, kind: ClusterKind) -> &OppTable {
        &self.cluster(kind).opps
    }

    /// The board fan model.
    pub fn fan(&self) -> &FanModel {
        &self.fan
    }

    /// Ambient temperature around the board, in °C.
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
    }
}

impl Default for SocSpec {
    fn default() -> Self {
        SocSpec::odroid_xu_e()
    }
}

/// Cores per CPU cluster: both Exynos 5410 clusters have four, and
/// [`SocSpec::odroid_xu_e`] is the only platform. The hotplug masks of
/// [`PlatformState`] are this wide.
pub(crate) const CORES_PER_CLUSTER: usize = 4;

/// The actuator state of the platform: everything a governor or the DTPM
/// algorithm can change at run time.
///
/// A plain `Copy` value: the hotplug masks are fixed-size arrays, so a
/// governor proposal or a policy decision copies the state without touching
/// the heap.
///
/// # Example
///
/// ```
/// use soc_model::{ClusterKind, Frequency, PlatformState, SocSpec};
///
/// let spec = SocSpec::odroid_xu_e();
/// let mut state = PlatformState::default_for(&spec);
/// state.set_cluster_frequency(ClusterKind::Big, Frequency::from_mhz(1200));
/// assert_eq!(state.active_frequency().mhz(), 1200);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformState {
    /// Which CPU cluster is currently powered (cluster-exclusive switching).
    pub active_cluster: ClusterKind,
    /// Operating frequency of the big cluster (applies when it is active).
    pub big_frequency: Frequency,
    /// Operating frequency of the little cluster (applies when it is active).
    pub little_frequency: Frequency,
    /// Operating frequency of the GPU.
    pub gpu_frequency: Frequency,
    /// Hotplug state of the big cores (`true` = online).
    pub big_cores_online: [bool; CORES_PER_CLUSTER],
    /// Hotplug state of the little cores (`true` = online).
    pub little_cores_online: [bool; CORES_PER_CLUSTER],
    /// Current fan level (always `Off` when the fan is removed/disabled).
    pub fan_level: crate::fan::FanLevel,
}

impl PlatformState {
    /// The state the board boots into: big cluster active, all cores online,
    /// maximum frequencies (the `performance`/`ondemand` governor will adjust
    /// from there), fan off.
    pub fn default_for(spec: &SocSpec) -> Self {
        PlatformState {
            active_cluster: ClusterKind::Big,
            big_frequency: spec.big_opps().highest().frequency,
            little_frequency: spec.little_opps().highest().frequency,
            gpu_frequency: spec.gpu_opps().lowest().frequency,
            big_cores_online: [true; CORES_PER_CLUSTER],
            little_cores_online: [true; CORES_PER_CLUSTER],
            fan_level: crate::fan::FanLevel::Off,
        }
    }

    /// Frequency of the currently active cluster.
    pub fn active_frequency(&self) -> Frequency {
        match self.active_cluster {
            ClusterKind::Big => self.big_frequency,
            ClusterKind::Little => self.little_frequency,
        }
    }

    /// Frequency of the given cluster.
    pub fn cluster_frequency(&self, kind: ClusterKind) -> Frequency {
        match kind {
            ClusterKind::Big => self.big_frequency,
            ClusterKind::Little => self.little_frequency,
        }
    }

    /// Sets the frequency of the given cluster.
    pub fn set_cluster_frequency(&mut self, kind: ClusterKind, frequency: Frequency) {
        match kind {
            ClusterKind::Big => self.big_frequency = frequency,
            ClusterKind::Little => self.little_frequency = frequency,
        }
    }

    /// Number of online cores in the given cluster.
    pub fn online_core_count(&self, kind: ClusterKind) -> usize {
        self.core_mask(kind).iter().filter(|&&on| on).count()
    }

    /// Number of online cores in the currently active cluster.
    pub fn active_online_core_count(&self) -> usize {
        self.online_core_count(self.active_cluster)
    }

    /// The hotplug mask of the given cluster.
    pub fn core_mask(&self, kind: ClusterKind) -> &[bool] {
        match kind {
            ClusterKind::Big => &self.big_cores_online,
            ClusterKind::Little => &self.little_cores_online,
        }
    }

    /// Whether the given core is online.
    ///
    /// Cores outside the cluster are reported offline.
    pub fn is_core_online(&self, kind: ClusterKind, core: usize) -> bool {
        self.core_mask(kind).get(core).copied().unwrap_or(false)
    }

    /// Sets the hotplug state of one core. Indices outside the cluster are
    /// ignored (the kernel would reject the sysfs write the same way).
    pub fn set_core_online(&mut self, kind: ClusterKind, core: usize, online: bool) {
        let mask = match kind {
            ClusterKind::Big => &mut self.big_cores_online,
            ClusterKind::Little => &mut self.little_cores_online,
        };
        if let Some(slot) = mask.get_mut(core) {
            *slot = online;
        }
    }

    /// Brings all cores of the given cluster online.
    pub fn bring_all_cores_online(&mut self, kind: ClusterKind) {
        let mask = match kind {
            ClusterKind::Big => &mut self.big_cores_online,
            ClusterKind::Little => &mut self.little_cores_online,
        };
        mask.iter_mut().for_each(|c| *c = true);
    }

    /// Switches the active cluster, bringing all cores of the target cluster
    /// online (this is what the kernel switcher does on a cluster migration)
    /// and setting its frequency to the given value.
    pub fn migrate_to_cluster(&mut self, kind: ClusterKind, frequency: Frequency) {
        self.active_cluster = kind;
        self.bring_all_cores_online(kind);
        self.set_cluster_frequency(kind, frequency);
    }

    /// Validates the state against the platform spec.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidState`] if the active cluster has no online
    /// core, or [`SocError::UnsupportedFrequency`] if any configured frequency
    /// is not an operating point of its device.
    pub fn validate(&self, spec: &SocSpec) -> Result<(), SocError> {
        if self.active_online_core_count() == 0 {
            return Err(SocError::InvalidState("active cluster has no online cores"));
        }
        for (table, freq, target) in [
            (spec.big_opps(), self.big_frequency, "big cluster"),
            (spec.little_opps(), self.little_frequency, "little cluster"),
            (spec.gpu_opps(), self.gpu_frequency, "gpu"),
        ] {
            if table.index_of(freq).is_none() {
                return Err(SocError::UnsupportedFrequency {
                    target,
                    requested_mhz: freq.mhz(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fan::FanLevel;

    #[test]
    fn default_state_is_valid() {
        let spec = SocSpec::odroid_xu_e();
        let state = PlatformState::default_for(&spec);
        assert!(state.validate(&spec).is_ok());
        assert_eq!(state.active_cluster, ClusterKind::Big);
        assert_eq!(state.active_frequency().mhz(), 1600);
        assert_eq!(state.online_core_count(ClusterKind::Big), 4);
        assert_eq!(state.fan_level, FanLevel::Off);
    }

    #[test]
    fn hotplug_changes_online_count() {
        let spec = SocSpec::odroid_xu_e();
        let mut state = PlatformState::default_for(&spec);
        state.set_core_online(ClusterKind::Big, 0, false);
        state.set_core_online(ClusterKind::Big, 3, false);
        assert_eq!(state.online_core_count(ClusterKind::Big), 2);
        assert!(!state.is_core_online(ClusterKind::Big, 0));
        assert!(state.is_core_online(ClusterKind::Big, 1));
        // Out-of-range indices are ignored and read as offline.
        state.set_core_online(ClusterKind::Big, 99, true);
        assert!(!state.is_core_online(ClusterKind::Big, 99));
        state.bring_all_cores_online(ClusterKind::Big);
        assert_eq!(state.online_core_count(ClusterKind::Big), 4);
    }

    #[test]
    fn hotplug_masks_span_each_cluster_and_ignore_other_indices() {
        let spec = SocSpec::odroid_xu_e();
        for kind in [ClusterKind::Big, ClusterKind::Little] {
            let mut state = PlatformState::default_for(&spec);
            let cores = spec.cluster(kind).core_count;
            let mask: &[bool] = state.core_mask(kind);
            assert_eq!(mask, vec![true; cores]);
            state.set_core_online(kind, 1, false);
            // Indices outside the cluster are ignored and read as offline.
            for core in [cores, cores + 1, 99, usize::MAX] {
                state.set_core_online(kind, core, true);
                state.set_core_online(kind, core, false);
                state.set_core_online(kind, core, true);
                assert!(!state.is_core_online(kind, core));
            }
            assert_eq!(state.core_mask(kind), [true, false, true, true]);
            assert_eq!(state.online_core_count(kind), cores - 1);
            // The state is a value: a copy keeps the mask it was taken with.
            let copy = state;
            state.bring_all_cores_online(kind);
            assert_eq!(copy.online_core_count(kind), cores - 1);
            assert_eq!(state.online_core_count(kind), cores);
        }
    }

    #[test]
    fn cluster_migration_brings_target_online() {
        let spec = SocSpec::odroid_xu_e();
        let mut state = PlatformState::default_for(&spec);
        state.set_core_online(ClusterKind::Little, 1, false);
        state.migrate_to_cluster(ClusterKind::Little, Frequency::from_mhz(1000));
        assert_eq!(state.active_cluster, ClusterKind::Little);
        assert_eq!(state.active_frequency().mhz(), 1000);
        assert_eq!(state.online_core_count(ClusterKind::Little), 4);
        assert!(state.validate(&spec).is_ok());
    }

    #[test]
    fn validate_rejects_all_cores_offline() {
        let spec = SocSpec::odroid_xu_e();
        let mut state = PlatformState::default_for(&spec);
        for i in 0..4 {
            state.set_core_online(ClusterKind::Big, i, false);
        }
        assert!(matches!(
            state.validate(&spec),
            Err(SocError::InvalidState(_))
        ));
    }

    #[test]
    fn validate_rejects_off_table_frequency() {
        let spec = SocSpec::odroid_xu_e();
        let mut state = PlatformState::default_for(&spec);
        state.big_frequency = Frequency::from_mhz(1234);
        assert!(matches!(
            state.validate(&spec),
            Err(SocError::UnsupportedFrequency { .. })
        ));
    }

    #[test]
    fn spec_accessors() {
        let spec = SocSpec::odroid_xu_e();
        assert_eq!(spec.cluster(ClusterKind::Big).kind, ClusterKind::Big);
        assert_eq!(spec.cluster_opps(ClusterKind::Little).len(), 8);
        assert_eq!(spec.ambient_c(), 28.0);
        let hot = spec.clone().with_ambient_c(60.0);
        assert_eq!(hot.ambient_c(), 60.0);
        assert_eq!(SocSpec::default(), SocSpec::odroid_xu_e());
    }
}
