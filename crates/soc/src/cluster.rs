//! CPU clusters of the big.LITTLE processor.

use crate::opp::OppTable;

/// The two CPU cluster types of the ARM big.LITTLE architecture.
///
/// The Exynos 5410 uses *cluster switching*: either the big (Cortex-A15) or
/// the little (Cortex-A7) cluster is active at any time, never both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterKind {
    /// High-performance Cortex-A15 cluster ("big").
    Big,
    /// Energy-efficient Cortex-A7 cluster ("little").
    Little,
}

impl ClusterKind {
    /// Both cluster kinds, big first.
    pub const ALL: [ClusterKind; 2] = [ClusterKind::Big, ClusterKind::Little];

    /// The other cluster.
    pub fn other(self) -> ClusterKind {
        match self {
            ClusterKind::Big => ClusterKind::Little,
            ClusterKind::Little => ClusterKind::Big,
        }
    }

    /// `true` for the big cluster.
    pub fn is_big(self) -> bool {
        matches!(self, ClusterKind::Big)
    }
}

impl std::fmt::Display for ClusterKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterKind::Big => write!(f, "big"),
            ClusterKind::Little => write!(f, "little"),
        }
    }
}

/// Identifier of a core inside a cluster (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub usize);

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Static description of one CPU cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Which cluster this is.
    pub kind: ClusterKind,
    /// Number of cores in the cluster (4 for both clusters of the Exynos 5410).
    pub core_count: usize,
    /// Operating performance points supported by the cluster. All cores of a
    /// cluster share a single frequency/voltage domain.
    pub opps: OppTable,
    /// Relative single-thread performance of one core of this cluster at a
    /// given frequency, normalised so that a big core at 1 GHz delivers 1.0
    /// "work units" per second. The A7 delivers roughly a third of the A15's
    /// per-clock performance.
    pub performance_per_ghz: f64,
}

impl ClusterSpec {
    /// The Exynos 5410 big cluster: 4× Cortex-A15.
    pub fn exynos5410_big() -> Self {
        ClusterSpec {
            kind: ClusterKind::Big,
            core_count: 4,
            opps: OppTable::exynos5410_big(),
            performance_per_ghz: 1.0,
        }
    }

    /// The Exynos 5410 little cluster: 4× Cortex-A7.
    pub fn exynos5410_little() -> Self {
        ClusterSpec {
            kind: ClusterKind::Little,
            core_count: 4,
            opps: OppTable::exynos5410_little(),
            performance_per_ghz: 0.35,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_is_involution() {
        for kind in ClusterKind::ALL {
            assert_eq!(kind.other().other(), kind);
            assert_ne!(kind.other(), kind);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ClusterKind::Big.to_string(), "big");
        assert_eq!(ClusterKind::Little.to_string(), "little");
        assert_eq!(CoreId(3).to_string(), "core3");
    }

    #[test]
    fn exynos_clusters_have_four_cores() {
        assert_eq!(ClusterSpec::exynos5410_big().core_count, 4);
        assert_eq!(ClusterSpec::exynos5410_little().core_count, 4);
    }

    #[test]
    fn big_cluster_outperforms_little_per_clock() {
        let big = ClusterSpec::exynos5410_big();
        let little = ClusterSpec::exynos5410_little();
        assert!(big.performance_per_ghz > little.performance_per_ghz);
        assert!(big.is_big_kind());
    }

    impl ClusterSpec {
        fn is_big_kind(&self) -> bool {
            self.kind.is_big()
        }
    }
}
