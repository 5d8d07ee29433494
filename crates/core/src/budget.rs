//! Run-time power-budget computation (Section 5.1).
//!
//! Working backwards from the temperature constraint: using the horizon form
//! of the identified model, `T[k+n] = Aₙ·T[k] + Bₙ·P`, the constraint
//! `T[k+n] ≤ T_max` becomes, for the hottest core `h` (the one most likely to
//! violate, Eq. 5.5),
//!
//! ```text
//! Bₙ,h·P  ≤  (T_max − T_amb) − Aₙ,h·(T[k] − T_amb)
//! ```
//!
//! Solving the equality for the active cluster's power — holding the other
//! domains at their predicted values — yields the *total* power budget of the
//! cluster; subtracting the predicted leakage gives the *dynamic* budget that
//! is finally converted into a frequency (Eq. 5.6).

use numeric::Matrix;
use power_model::DomainPower;
use soc_model::PowerDomain;

use crate::predictor::{ThermalPredictor, HOTSPOT_COUNT};
use crate::DtpmError;

/// The computed power budget for the domain being throttled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBudget {
    /// Domain the budget applies to (the active CPU cluster).
    pub domain: PowerDomain,
    /// Index of the hottest core the budget was solved for.
    pub hot_core: usize,
    /// Thermal headroom at the horizon if the domain drew no power at all, in °C.
    pub headroom_c: f64,
    /// Total power the domain may draw without violating the constraint, in watts.
    /// Never negative (clamped at zero).
    pub total_w: f64,
    /// Dynamic component of the budget (total minus predicted leakage), in watts.
    /// Never negative (clamped at zero).
    pub dynamic_w: f64,
}

impl PowerBudget {
    /// Computes the budget for `domain` (normally the active CPU cluster).
    ///
    /// * `predictor` — the identified thermal model.
    /// * `core_temps_c` — current measured hotspot temperatures.
    /// * `other_powers` — predicted powers of **all** domains for the next
    ///   interval; the entry for `domain` is ignored (it is what we solve for).
    /// * `constraint_c` — the effective temperature constraint (already
    ///   including any safety margin).
    /// * `horizon` — prediction horizon in control intervals.
    /// * `predicted_leakage_w` — predicted leakage power of `domain`, used to
    ///   derive the dynamic budget (Eq. 5.6).
    ///
    /// # Errors
    ///
    /// Propagates thermal-model errors; returns [`DtpmError::InvalidConfig`]
    /// for a zero horizon.
    pub fn compute(
        predictor: &ThermalPredictor,
        core_temps_c: [f64; HOTSPOT_COUNT],
        other_powers: &DomainPower,
        domain: PowerDomain,
        constraint_c: f64,
        horizon: usize,
        predicted_leakage_w: f64,
    ) -> Result<PowerBudget, DtpmError> {
        if horizon == 0 {
            return Err(DtpmError::InvalidConfig(
                "horizon must be at least one step",
            ));
        }
        let (a_n, b_n) = predictor.model().horizon_matrices(horizon)?;
        PowerBudget::compute_with(
            predictor,
            core_temps_c,
            other_powers,
            domain,
            constraint_c,
            &a_n,
            &b_n,
            predicted_leakage_w,
        )
    }

    /// Allocation-free form of [`PowerBudget::compute`] taking the
    /// precomputed horizon matrices `(Aₙ, Bₙ)` from
    /// [`thermal_model::DiscreteThermalModel::horizon_matrices`]. The DTPM
    /// policy caches those per configured horizon, so the per-interval budget
    /// computation reduces to a handful of dot products.
    ///
    /// # Errors
    ///
    /// Returns [`DtpmError::InvalidConfig`] if the matrices do not cover the
    /// hotspot states.
    #[allow(clippy::too_many_arguments)]
    pub fn compute_with(
        predictor: &ThermalPredictor,
        core_temps_c: [f64; HOTSPOT_COUNT],
        other_powers: &DomainPower,
        domain: PowerDomain,
        constraint_c: f64,
        a_n: &Matrix,
        b_n: &Matrix,
        predicted_leakage_w: f64,
    ) -> Result<PowerBudget, DtpmError> {
        if a_n.rows() < HOTSPOT_COUNT
            || a_n.cols() < HOTSPOT_COUNT
            || b_n.rows() < HOTSPOT_COUNT
            || b_n.cols() < PowerDomain::COUNT
        {
            return Err(DtpmError::InvalidConfig(
                "horizon matrices do not cover the hotspot states",
            ));
        }
        let ambient = predictor.ambient_c();

        // The hottest core is the constraint most likely to be violated (Eq. 5.5).
        let hot_core = core_temps_c
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);

        // Contribution of the current temperatures (Aₙ,h · T).
        let temp_term = core_temps_c
            .iter()
            .enumerate()
            .map(|(j, t)| a_n[(hot_core, j)] * (t - ambient))
            .sum::<f64>();
        // Contribution of the domains we are not solving for.
        let mut fixed_power_term = 0.0;
        for other in PowerDomain::ALL {
            if other != domain {
                fixed_power_term += b_n[(hot_core, other.index())] * other_powers[other];
            }
        }
        let rhs = (constraint_c - ambient) - temp_term - fixed_power_term;
        let own_coefficient = b_n[(hot_core, domain.index())];

        // Headroom if the domain drew nothing at all.
        let headroom_c = rhs;

        let total_w = if own_coefficient > f64::EPSILON {
            (rhs / own_coefficient).max(0.0)
        } else {
            // The identified model says this domain barely heats the hotspot;
            // any power satisfies the constraint as far as this row goes.
            f64::INFINITY
        };
        let dynamic_w = if total_w.is_finite() {
            (total_w - predicted_leakage_w).max(0.0)
        } else {
            f64::INFINITY
        };

        Ok(PowerBudget {
            domain,
            hot_core,
            headroom_c,
            total_w,
            dynamic_w,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::Matrix;
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

    fn others() -> DomainPower {
        DomainPower::new(0.0, 0.05, 0.2, 0.35)
    }

    #[test]
    fn budget_shrinks_as_temperature_approaches_constraint() {
        let p = predictor();
        let cool =
            PowerBudget::compute(&p, [45.0; 4], &others(), PowerDomain::BigCpu, 63.0, 10, 0.2)
                .unwrap();
        let warm =
            PowerBudget::compute(&p, [58.0; 4], &others(), PowerDomain::BigCpu, 63.0, 10, 0.2)
                .unwrap();
        let hot =
            PowerBudget::compute(&p, [62.5; 4], &others(), PowerDomain::BigCpu, 63.0, 10, 0.2)
                .unwrap();
        assert!(cool.total_w > warm.total_w);
        assert!(warm.total_w > hot.total_w);
        assert!(hot.total_w >= 0.0);
    }

    #[test]
    fn budget_respects_the_constraint_when_applied() {
        // Feeding the budgeted power back into the predictor must land at or
        // below the constraint at the horizon.
        let p = predictor();
        let temps = [57.0, 56.0, 58.0, 55.5];
        let constraint = 63.0;
        let budget = PowerBudget::compute(
            &p,
            temps,
            &others(),
            PowerDomain::BigCpu,
            constraint,
            10,
            0.25,
        )
        .unwrap();
        assert!(budget.total_w.is_finite());
        let mut powers = others();
        powers[PowerDomain::BigCpu] = budget.total_w;
        let peak = p.predict_peak(temps, &powers, 10).unwrap();
        assert!(
            peak <= constraint + 0.05,
            "peak {peak} exceeds constraint {constraint}"
        );
        // The budget is tight: meaningfully exceeding it violates the constraint.
        powers[PowerDomain::BigCpu] = budget.total_w + 2.0;
        let over = p.predict_peak(temps, &powers, 10).unwrap();
        assert!(over > constraint);
    }

    #[test]
    fn dynamic_budget_subtracts_leakage() {
        let p = predictor();
        let with_leak =
            PowerBudget::compute(&p, [55.0; 4], &others(), PowerDomain::BigCpu, 63.0, 10, 0.5)
                .unwrap();
        let without_leak =
            PowerBudget::compute(&p, [55.0; 4], &others(), PowerDomain::BigCpu, 63.0, 10, 0.0)
                .unwrap();
        assert!((without_leak.dynamic_w - with_leak.dynamic_w - 0.5).abs() < 1e-9);
        assert_eq!(with_leak.total_w, without_leak.total_w);
    }

    #[test]
    fn budget_is_clamped_at_zero_when_already_violating() {
        let p = predictor();
        let budget = PowerBudget::compute(
            &p,
            [75.0, 74.0, 76.0, 75.5],
            &others(),
            PowerDomain::BigCpu,
            63.0,
            10,
            0.3,
        )
        .unwrap();
        assert_eq!(budget.total_w, 0.0);
        assert_eq!(budget.dynamic_w, 0.0);
        assert!(budget.headroom_c < 0.0);
    }

    #[test]
    fn hottest_core_is_selected() {
        let p = predictor();
        let budget = PowerBudget::compute(
            &p,
            [50.0, 55.0, 52.0, 51.0],
            &others(),
            PowerDomain::BigCpu,
            63.0,
            10,
            0.2,
        )
        .unwrap();
        assert_eq!(budget.hot_core, 1);
        assert_eq!(budget.domain, PowerDomain::BigCpu);
    }

    #[test]
    fn gpu_heat_reduces_cpu_budget() {
        let p = predictor();
        let mut gpu_hot = others();
        gpu_hot[PowerDomain::Gpu] = 1.5;
        let base =
            PowerBudget::compute(&p, [55.0; 4], &others(), PowerDomain::BigCpu, 63.0, 10, 0.2)
                .unwrap();
        let with_gpu =
            PowerBudget::compute(&p, [55.0; 4], &gpu_hot, PowerDomain::BigCpu, 63.0, 10, 0.2)
                .unwrap();
        assert!(with_gpu.total_w < base.total_w);
    }

    #[test]
    fn zero_horizon_rejected() {
        let p = predictor();
        assert!(
            PowerBudget::compute(&p, [50.0; 4], &others(), PowerDomain::BigCpu, 63.0, 0, 0.2)
                .is_err()
        );
    }

    #[test]
    fn longer_horizon_gives_tighter_budget() {
        // Predicting further ahead leaves less thermal capacitance to hide
        // behind, so the allowed power is smaller.
        let p = predictor();
        let short =
            PowerBudget::compute(&p, [55.0; 4], &others(), PowerDomain::BigCpu, 63.0, 5, 0.2)
                .unwrap();
        let long =
            PowerBudget::compute(&p, [55.0; 4], &others(), PowerDomain::BigCpu, 63.0, 30, 0.2)
                .unwrap();
        assert!(long.total_w < short.total_w);
    }
}
