//! Per-domain power breakdowns.

use std::ops::{Add, Index, IndexMut};

use soc_model::PowerDomain;

/// Power consumption of the four measured domains, in watts.
///
/// The ordering matches the thermal model's power input vector
/// `P = [P_big, P_little, P_gpu, P_mem]ᵀ`.
///
/// # Example
///
/// ```
/// use power_model::DomainPower;
/// use soc_model::PowerDomain;
///
/// let mut p = DomainPower::default();
/// p[PowerDomain::BigCpu] = 2.0;
/// p[PowerDomain::Memory] = 0.4;
/// assert_eq!(p.total(), 2.4);
/// assert_eq!(p.to_vec(), vec![2.0, 0.0, 0.0, 0.4]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DomainPower {
    /// Big (A15) cluster power in watts.
    pub big_w: f64,
    /// Little (A7) cluster power in watts.
    pub little_w: f64,
    /// GPU power in watts.
    pub gpu_w: f64,
    /// Memory power in watts.
    pub memory_w: f64,
}

impl DomainPower {
    /// Creates a breakdown from the four domain powers (watts).
    pub fn new(big_w: f64, little_w: f64, gpu_w: f64, memory_w: f64) -> Self {
        DomainPower {
            big_w,
            little_w,
            gpu_w,
            memory_w,
        }
    }

    /// Creates a breakdown from a `[big, little, gpu, mem]` slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice does not have exactly four elements.
    pub fn from_slice(values: &[f64]) -> Self {
        assert_eq!(values.len(), PowerDomain::COUNT, "expected 4 domain powers");
        DomainPower::new(values[0], values[1], values[2], values[3])
    }

    /// Total SoC power (sum of the four measured domains), in watts.
    pub fn total(&self) -> f64 {
        self.big_w + self.little_w + self.gpu_w + self.memory_w
    }

    /// The breakdown as a `[big, little, gpu, mem]` array (the ordering used
    /// by the thermal model) — the allocation-free form of
    /// [`DomainPower::to_vec`].
    pub fn as_array(&self) -> [f64; 4] {
        [self.big_w, self.little_w, self.gpu_w, self.memory_w]
    }

    /// The breakdown as a `[big, little, gpu, mem]` vector, the ordering used
    /// by the thermal model.
    pub fn to_vec(&self) -> Vec<f64> {
        self.as_array().to_vec()
    }

    /// Element-wise maximum of two breakdowns.
    pub fn max(&self, other: &DomainPower) -> DomainPower {
        DomainPower::new(
            self.big_w.max(other.big_w),
            self.little_w.max(other.little_w),
            self.gpu_w.max(other.gpu_w),
            self.memory_w.max(other.memory_w),
        )
    }

    /// Returns `true` if all four values are finite and non-negative.
    pub fn is_physical(&self) -> bool {
        self.to_vec().iter().all(|p| p.is_finite() && *p >= 0.0)
    }
}

impl Index<PowerDomain> for DomainPower {
    type Output = f64;

    fn index(&self, domain: PowerDomain) -> &f64 {
        match domain {
            PowerDomain::BigCpu => &self.big_w,
            PowerDomain::LittleCpu => &self.little_w,
            PowerDomain::Gpu => &self.gpu_w,
            PowerDomain::Memory => &self.memory_w,
        }
    }
}

impl IndexMut<PowerDomain> for DomainPower {
    fn index_mut(&mut self, domain: PowerDomain) -> &mut f64 {
        match domain {
            PowerDomain::BigCpu => &mut self.big_w,
            PowerDomain::LittleCpu => &mut self.little_w,
            PowerDomain::Gpu => &mut self.gpu_w,
            PowerDomain::Memory => &mut self.memory_w,
        }
    }
}

impl Add for DomainPower {
    type Output = DomainPower;

    fn add(self, rhs: DomainPower) -> DomainPower {
        DomainPower::new(
            self.big_w + rhs.big_w,
            self.little_w + rhs.little_w,
            self.gpu_w + rhs.gpu_w,
            self.memory_w + rhs.memory_w,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_and_vector_ordering() {
        let p = DomainPower::new(2.0, 0.3, 0.5, 0.4);
        assert!((p.total() - 3.2).abs() < 1e-12);
        assert_eq!(p.to_vec(), vec![2.0, 0.3, 0.5, 0.4]);
        assert_eq!(DomainPower::from_slice(&p.to_vec()), p);
    }

    #[test]
    fn indexing_by_domain_matches_vector_order() {
        let p = DomainPower::new(1.0, 2.0, 3.0, 4.0);
        for domain in PowerDomain::ALL {
            assert_eq!(p[domain], p.to_vec()[domain.index()]);
        }
    }

    #[test]
    fn index_mut_updates_domain() {
        let mut p = DomainPower::default();
        p[PowerDomain::Gpu] = 0.7;
        assert_eq!(p.gpu_w, 0.7);
    }

    #[test]
    fn addition_and_max() {
        let a = DomainPower::new(1.0, 0.1, 0.2, 0.3);
        let b = DomainPower::new(0.5, 0.2, 0.1, 0.3);
        let sum = a + b;
        let expected = DomainPower::new(1.5, 0.3, 0.3, 0.6);
        for domain in PowerDomain::ALL {
            assert!((sum[domain] - expected[domain]).abs() < 1e-12);
        }
        assert_eq!(a.max(&b), DomainPower::new(1.0, 0.2, 0.2, 0.3));
    }

    #[test]
    fn physical_check() {
        assert!(DomainPower::new(1.0, 0.0, 0.0, 0.0).is_physical());
        assert!(!DomainPower::new(-1.0, 0.0, 0.0, 0.0).is_physical());
        assert!(!DomainPower::new(f64::NAN, 0.0, 0.0, 0.0).is_physical());
    }

    #[test]
    #[should_panic(expected = "expected 4")]
    fn from_slice_rejects_wrong_length() {
        DomainPower::from_slice(&[1.0, 2.0]);
    }
}
