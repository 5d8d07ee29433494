//! Power domains measured by the on-board sensors.

use crate::cluster::ClusterKind;

/// The four power domains whose consumption the Odroid-XU+E measures with
/// dedicated current sensors, and which form the input vector
/// `P = [P_big, P_little, P_gpu, P_mem]ᵀ` of the thermal model (Eq. 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerDomain {
    /// The Cortex-A15 (big) CPU cluster.
    BigCpu,
    /// The Cortex-A7 (little) CPU cluster.
    LittleCpu,
    /// The GPU.
    Gpu,
    /// The memory subsystem.
    Memory,
}

impl PowerDomain {
    /// All four measured domains in the order used by the thermal model's
    /// power input vector.
    pub const ALL: [PowerDomain; 4] = [
        PowerDomain::BigCpu,
        PowerDomain::LittleCpu,
        PowerDomain::Gpu,
        PowerDomain::Memory,
    ];

    /// Number of measured power domains.
    pub const COUNT: usize = 4;

    /// Index of this domain in the thermal-model power vector.
    pub fn index(self) -> usize {
        match self {
            PowerDomain::BigCpu => 0,
            PowerDomain::LittleCpu => 1,
            PowerDomain::Gpu => 2,
            PowerDomain::Memory => 3,
        }
    }

    /// The domain at the given power-vector index, if valid.
    pub fn from_index(index: usize) -> Option<PowerDomain> {
        PowerDomain::ALL.get(index).copied()
    }

    /// The CPU power domain corresponding to a cluster.
    pub fn from_cluster(kind: ClusterKind) -> PowerDomain {
        match kind {
            ClusterKind::Big => PowerDomain::BigCpu,
            ClusterKind::Little => PowerDomain::LittleCpu,
        }
    }

    /// Returns `true` if this domain is one of the CPU clusters.
    pub fn is_cpu(self) -> bool {
        matches!(self, PowerDomain::BigCpu | PowerDomain::LittleCpu)
    }
}

impl std::fmt::Display for PowerDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            PowerDomain::BigCpu => "A15 (big) cluster",
            PowerDomain::LittleCpu => "A7 (little) cluster",
            PowerDomain::Gpu => "GPU",
            PowerDomain::Memory => "memory",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_round_trip() {
        for domain in PowerDomain::ALL {
            assert_eq!(PowerDomain::from_index(domain.index()), Some(domain));
        }
        assert_eq!(PowerDomain::from_index(4), None);
        assert_eq!(PowerDomain::ALL.len(), PowerDomain::COUNT);
    }

    #[test]
    fn cluster_mapping() {
        assert_eq!(
            PowerDomain::from_cluster(ClusterKind::Big),
            PowerDomain::BigCpu
        );
        assert_eq!(
            PowerDomain::from_cluster(ClusterKind::Little),
            PowerDomain::LittleCpu
        );
        assert!(PowerDomain::BigCpu.is_cpu());
        assert!(PowerDomain::LittleCpu.is_cpu());
        assert!(!PowerDomain::Gpu.is_cpu());
        assert!(!PowerDomain::Memory.is_cpu());
    }

    #[test]
    fn display_is_descriptive() {
        assert!(PowerDomain::BigCpu.to_string().contains("big"));
        assert!(PowerDomain::Memory.to_string().contains("memory"));
    }
}
