//! Thermal prediction from the identified state-space model.
//!
//! # One-shot horizon prediction and the two-phase decide
//!
//! The policy predicts the hotspot temperatures one prediction interval
//! (`horizon` control steps) ahead on **every** control interval, so the
//! prediction is the control path's hot loop. Instead of iterating the
//! discrete model `horizon` times (two mat-vecs per step), the predictor
//! applies the precomputed affine horizon map
//! [`thermal_model::HorizonMap`] — `T[k+n] = Aₙ·T[k] + Bₙ·P` — a single
//! application whatever the horizon, agreeing with the iterated model to
//! ≤ 1e-12 °C ([`ThermalPredictor::predict_iterated`] keeps the loop as the
//! equivalence reference). The maps are cached *inside* the predictor behind
//! an [`Arc`], and clones share the cache: a lockstep sweep that clones one
//! calibrated predictor into K per-lane policies computes `(Aₙ, Bₙ)` once
//! for the whole sweep, not once per lane.
//!
//! At sweep scale the decision itself splits into two phases
//! (`platform_sim`'s executor drives this):
//!
//! 1. **Batched classify** — every lane's proposed powers are assembled into
//!    a [`crate::BatchPredictor`] panel and one fused panel application
//!    predicts all lanes at once (the horizon matrices are loaded once per
//!    interval for *all* lanes). Lanes whose predicted peak stays below the
//!    constraint are affirmed right there — the steady-state common case
//!    pays **zero** per-lane mat-vecs.
//! 2. **Scalar actuate** — only the (rare) violating lanes fall through to
//!    the full [`crate::DtpmPolicy`] actuation walk: power budget from the
//!    same horizon map, frequency scan, core shutdown, migration.
//!
//! The scalar one-shot application accumulates in exactly the panel
//! kernels' per-lane order, so batched and scalar classification are
//! bit-identical — batching is purely a throughput optimisation and can
//! never flip a decision.

use std::sync::{Arc, RwLock};

use power_model::DomainPower;
use thermal_model::{DiscreteThermalModel, HorizonMap};

use crate::DtpmError;

/// Number of thermal hotspots (the four big cores with temperature sensors).
pub const HOTSPOT_COUNT: usize = 4;

/// Wraps the identified thermal model and the ambient temperature it was
/// identified against, and answers the predictions the DTPM policy needs in
/// absolute °C.
///
/// # Example
///
/// ```
/// use dtpm::ThermalPredictor;
/// use numeric::Matrix;
/// use power_model::DomainPower;
/// use thermal_model::DiscreteThermalModel;
///
/// # fn main() -> Result<(), dtpm::DtpmError> {
/// let a = Matrix::identity(4).scale(0.95);
/// let b = Matrix::from_rows(&[
///     &[0.04, 0.01, 0.01, 0.005],
///     &[0.04, 0.01, 0.01, 0.005],
///     &[0.04, 0.01, 0.01, 0.005],
///     &[0.04, 0.01, 0.01, 0.005],
/// ]).unwrap();
/// let model = DiscreteThermalModel::new(a, b, 0.1).unwrap();
/// let predictor = ThermalPredictor::new(model, 28.0)?;
/// let future = predictor.predict(
///     [50.0, 49.0, 50.5, 49.5],
///     &DomainPower::new(3.0, 0.05, 0.3, 0.4),
///     10,
/// )?;
/// assert!(future.iter().all(|t| *t > 28.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ThermalPredictor {
    model: DiscreteThermalModel,
    ambient_c: f64,
    /// Precomputed horizon maps, one per horizon ever requested. Shared
    /// (`Arc`) so clones of this predictor — e.g. the per-lane policies of a
    /// lockstep sweep — reuse the same `(Aₙ, Bₙ)` instead of recomputing
    /// them per lane.
    maps: Arc<RwLock<Vec<Arc<HorizonMap>>>>,
}

/// Two predictors are equal when they would make the same predictions: the
/// lazily-built horizon-map cache is deliberately excluded (it only records
/// which horizons have already been requested).
impl PartialEq for ThermalPredictor {
    fn eq(&self, other: &Self) -> bool {
        self.model == other.model && self.ambient_c == other.ambient_c
    }
}

impl ThermalPredictor {
    /// Creates a predictor from an identified model and the ambient
    /// temperature its training data was referenced to.
    ///
    /// # Errors
    ///
    /// Returns [`DtpmError::ModelShape`] if the model does not have four
    /// states and four inputs.
    pub fn new(model: DiscreteThermalModel, ambient_c: f64) -> Result<Self, DtpmError> {
        if model.state_count() != HOTSPOT_COUNT
            || model.input_count() != DomainPower::default().to_vec().len()
        {
            return Err(DtpmError::ModelShape {
                states: model.state_count(),
                inputs: model.input_count(),
            });
        }
        Ok(ThermalPredictor {
            model,
            ambient_c,
            maps: Arc::default(),
        })
    }

    /// The wrapped identified model.
    pub fn model(&self) -> &DiscreteThermalModel {
        &self.model
    }

    /// Ambient temperature the model is referenced to, in °C.
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
    }

    /// The precomputed one-shot horizon map for `horizon` control steps,
    /// computed at most once per horizon and shared across clones of this
    /// predictor (see the [module docs](self)). Hot-path callers fetch the
    /// `Arc` once and hold it; [`ThermalPredictor::predict`] looks it up per
    /// call.
    ///
    /// # Errors
    ///
    /// Returns an error for a zero horizon.
    pub fn horizon_map(&self, horizon: usize) -> Result<Arc<HorizonMap>, DtpmError> {
        {
            let maps = self.maps.read().expect("horizon-map cache poisoned");
            if let Some(map) = maps.iter().find(|m| m.horizon() == horizon) {
                return Ok(Arc::clone(map));
            }
        }
        let map = Arc::new(self.model.horizon_map(horizon)?);
        let mut maps = self.maps.write().expect("horizon-map cache poisoned");
        // Another clone may have raced us to the write lock: reuse its map so
        // every holder of this cache sees one canonical map per horizon.
        if let Some(existing) = maps.iter().find(|m| m.horizon() == horizon) {
            return Ok(Arc::clone(existing));
        }
        maps.push(Arc::clone(&map));
        Ok(map)
    }

    /// Predicts the hotspot temperatures `horizon` control intervals ahead
    /// assuming the domain powers stay constant, returning absolute °C.
    ///
    /// One application of the cached horizon map — no horizon-length loop,
    /// no allocation in steady state.
    ///
    /// # Errors
    ///
    /// Propagates thermal-model errors (zero horizon).
    pub fn predict(
        &self,
        core_temps_c: [f64; HOTSPOT_COUNT],
        powers: &DomainPower,
        horizon: usize,
    ) -> Result<[f64; HOTSPOT_COUNT], DtpmError> {
        let map = self.horizon_map(horizon)?;
        self.predict_with(core_temps_c, powers, &map)
    }

    /// One-shot prediction through an explicitly held horizon map (the form
    /// the control hot path uses: fetch the [`Arc`] once via
    /// [`ThermalPredictor::horizon_map`], apply it every interval).
    ///
    /// Bit-identical per lane to a [`crate::BatchPredictor`] panel
    /// application of the same map.
    ///
    /// # Errors
    ///
    /// Returns an error if `map` does not match the model's dimensions.
    pub fn predict_with(
        &self,
        core_temps_c: [f64; HOTSPOT_COUNT],
        powers: &DomainPower,
        map: &HorizonMap,
    ) -> Result<[f64; HOTSPOT_COUNT], DtpmError> {
        let mut rel = [0.0; HOTSPOT_COUNT];
        for (slot, t) in rel.iter_mut().zip(core_temps_c) {
            *slot = t - self.ambient_c;
        }
        let p = powers.as_array();
        let mut out = [0.0; HOTSPOT_COUNT];
        map.apply_into(&rel, &p, &mut out)?;
        for slot in out.iter_mut() {
            *slot += self.ambient_c;
        }
        Ok(out)
    }

    /// The pre-map prediction path: iterates the discrete model `horizon`
    /// times. Kept as the equivalence reference (the one-shot map agrees to
    /// ≤ 1e-12 °C) and as the baseline of the `sweep_decide` benchmark; the
    /// control path itself uses [`ThermalPredictor::predict_with`].
    ///
    /// # Errors
    ///
    /// Propagates thermal-model errors (zero horizon).
    pub fn predict_iterated(
        &self,
        core_temps_c: [f64; HOTSPOT_COUNT],
        powers: &DomainPower,
        horizon: usize,
    ) -> Result<[f64; HOTSPOT_COUNT], DtpmError> {
        let mut rel = numeric::Vector::zeros(HOTSPOT_COUNT);
        for (i, t) in core_temps_c.iter().enumerate() {
            rel[i] = t - self.ambient_c;
        }
        let p = numeric::Vector::from_slice(&powers.as_array());
        let mut tmp = numeric::Vector::zeros(HOTSPOT_COUNT);
        self.model
            .predict_constant_power_into(&mut rel, &p, horizon, &mut tmp)?;
        let mut out = [0.0; HOTSPOT_COUNT];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = rel[i] + self.ambient_c;
        }
        Ok(out)
    }

    /// Predicted maximum hotspot temperature at the horizon (°C) through an
    /// explicitly held horizon map.
    ///
    /// # Errors
    ///
    /// Propagates thermal-model errors.
    pub fn predict_peak_with(
        &self,
        core_temps_c: [f64; HOTSPOT_COUNT],
        powers: &DomainPower,
        map: &HorizonMap,
    ) -> Result<f64, DtpmError> {
        Ok(self
            .predict_with(core_temps_c, powers, map)?
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max))
    }

    /// Predicted maximum hotspot temperature at the horizon (°C).
    ///
    /// # Errors
    ///
    /// Propagates thermal-model errors.
    pub fn predict_peak(
        &self,
        core_temps_c: [f64; HOTSPOT_COUNT],
        powers: &DomainPower,
        horizon: usize,
    ) -> Result<f64, DtpmError> {
        Ok(self
            .predict(core_temps_c, powers, horizon)?
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max))
    }

    /// Iterated-model form of [`ThermalPredictor::predict_peak`] (the
    /// `sweep_decide` baseline).
    ///
    /// # Errors
    ///
    /// Propagates thermal-model errors.
    pub fn predict_peak_iterated(
        &self,
        core_temps_c: [f64; HOTSPOT_COUNT],
        powers: &DomainPower,
        horizon: usize,
    ) -> Result<f64, DtpmError> {
        Ok(self
            .predict_iterated(core_temps_c, powers, horizon)?
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max))
    }

    /// Returns `true` if a thermal violation of `constraint_c` is predicted at
    /// the horizon for the given constant powers.
    ///
    /// # Errors
    ///
    /// Propagates thermal-model errors.
    pub fn violation_predicted(
        &self,
        core_temps_c: [f64; HOTSPOT_COUNT],
        powers: &DomainPower,
        horizon: usize,
        constraint_c: f64,
    ) -> Result<bool, DtpmError> {
        Ok(self.predict_peak(core_temps_c, powers, horizon)? > constraint_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::Matrix;

    fn example_predictor() -> ThermalPredictor {
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

    #[test]
    fn rejects_wrong_model_shape() {
        let model =
            DiscreteThermalModel::new(Matrix::identity(2).scale(0.9), Matrix::zeros(2, 4), 0.1)
                .unwrap();
        assert!(matches!(
            ThermalPredictor::new(model, 25.0),
            Err(DtpmError::ModelShape { .. })
        ));
    }

    #[test]
    fn more_power_predicts_higher_temperature() {
        let p = example_predictor();
        let temps = [50.0, 49.0, 50.0, 49.0];
        let low = p
            .predict_peak(temps, &DomainPower::new(0.5, 0.05, 0.1, 0.3), 10)
            .unwrap();
        let high = p
            .predict_peak(temps, &DomainPower::new(4.0, 0.05, 0.1, 0.3), 10)
            .unwrap();
        assert!(high > low + 1.0, "high {high} vs low {low}");
    }

    #[test]
    fn longer_horizon_moves_further_towards_equilibrium() {
        let p = example_predictor();
        let temps = [40.0; 4];
        let powers = DomainPower::new(4.0, 0.05, 0.3, 0.4);
        let one = p.predict_peak(temps, &powers, 1).unwrap();
        let ten = p.predict_peak(temps, &powers, 10).unwrap();
        let fifty = p.predict_peak(temps, &powers, 50).unwrap();
        assert!(one < ten && ten < fifty);
    }

    #[test]
    fn zero_power_cools_towards_ambient() {
        let p = example_predictor();
        let predicted = p
            .predict([60.0, 58.0, 59.0, 61.0], &DomainPower::default(), 100)
            .unwrap();
        for t in predicted {
            assert!((28.0 - 1e-9..45.0).contains(&t));
        }
    }

    #[test]
    fn violation_detection_uses_constraint() {
        let p = example_predictor();
        let temps = [61.0, 60.0, 61.5, 60.5];
        let powers = DomainPower::new(3.5, 0.05, 0.3, 0.4);
        assert!(p.violation_predicted(temps, &powers, 10, 63.0).unwrap());
        assert!(!p.violation_predicted(temps, &powers, 10, 90.0).unwrap());
    }

    #[test]
    fn accessors_expose_model_and_ambient() {
        let p = example_predictor();
        assert_eq!(p.ambient_c(), 28.0);
        assert_eq!(p.model().state_count(), 4);
    }

    #[test]
    fn one_shot_prediction_tracks_the_iterated_model() {
        let p = example_predictor();
        let temps = [55.0, 52.5, 56.0, 54.0];
        let powers = DomainPower::new(3.2, 0.05, 0.25, 0.4);
        for horizon in [1, 4, 10, 32] {
            let one_shot = p.predict(temps, &powers, horizon).unwrap();
            let iterated = p.predict_iterated(temps, &powers, horizon).unwrap();
            for i in 0..HOTSPOT_COUNT {
                assert!(
                    (one_shot[i] - iterated[i]).abs() <= 1e-12,
                    "horizon {horizon} hotspot {i}"
                );
            }
        }
    }

    #[test]
    fn horizon_maps_are_computed_once_and_shared_across_clones() {
        let p = example_predictor();
        let clone = p.clone();
        let a = p.horizon_map(10).unwrap();
        // The clone sees the map the original already computed (one
        // computation per sweep, not per lane), and repeated requests return
        // the same canonical map.
        let b = clone.horizon_map(10).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &p.horizon_map(10).unwrap()));
        // Distinct horizons get distinct maps.
        assert!(!Arc::ptr_eq(&a, &p.horizon_map(11).unwrap()));
        assert!(p.horizon_map(0).is_err());
    }

    #[test]
    fn equality_ignores_the_map_cache() {
        let p = example_predictor();
        let q = example_predictor();
        assert_eq!(p, q);
        p.horizon_map(10).unwrap();
        assert_eq!(p, q, "a warmed cache must not affect equality");
    }
}
