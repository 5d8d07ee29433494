//! Batched (panel) horizon prediction.
//!
//! [`BatchPredictor`] applies one precomputed [`HorizonMap`] to K lanes at
//! once through the structure-of-arrays [`Panel`] kernels: the `(Aₙ, Bₙ)`
//! matrices are loaded once for every lane, the inner loops run across lanes
//! at unit stride, and the accumulation order matches the scalar
//! [`ThermalPredictor::predict_with`] exactly — per-lane results are
//! **bit-identical** to the scalar path, so batching can never flip a
//! control decision. `platform_sim`'s executor does not use it: each lane
//! decides through [`crate::DtpmPolicy::decide`], one scalar 4×4 map
//! application that costs little next to the lane's plant step. The
//! `sweep_decide` bench compares the two classifications.

use std::sync::Arc;

use numeric::{affine_pair_apply, Panel};
use power_model::DomainPower;
use thermal_model::HorizonMap;

use crate::predictor::{ThermalPredictor, HOTSPOT_COUNT};
use crate::DtpmError;

/// Applies one horizon map to K scenario lanes per call (see the
/// [module docs](self)).
///
/// Lanes are loaded with [`BatchPredictor::set_lane`] (current hotspot
/// temperatures + the power vector to hold constant), advanced together by
/// [`BatchPredictor::predict`], and read back per lane. Lane results never
/// depend on their neighbours, so callers may leave unused lanes stale and
/// simply not read them.
///
/// # Example
///
/// ```
/// use dtpm::{BatchPredictor, ThermalPredictor};
/// use numeric::Matrix;
/// use power_model::DomainPower;
/// use thermal_model::DiscreteThermalModel;
///
/// # fn main() -> Result<(), dtpm::DtpmError> {
/// let model = DiscreteThermalModel::new(
///     Matrix::identity(4).scale(0.9),
///     Matrix::identity(4).scale(0.05),
///     0.1,
/// ).unwrap();
/// let predictor = ThermalPredictor::new(model, 28.0)?;
/// let mut batch = BatchPredictor::for_predictor(&predictor, 10, 3)?;
/// for lane in 0..3 {
///     batch.set_lane(lane, [50.0; 4], &DomainPower::new(3.0, 0.05, 0.3, 0.4));
/// }
/// batch.predict();
/// // Bit-identical to the scalar one-shot prediction, lane by lane.
/// let scalar = predictor.predict([50.0; 4], &DomainPower::new(3.0, 0.05, 0.3, 0.4), 10)?;
/// assert_eq!(batch.predicted_c(1), scalar);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchPredictor {
    map: Arc<HorizonMap>,
    ambient_c: f64,
    /// Current hotspot temperatures relative to ambient, one lane per column.
    temps: Panel,
    /// Constant power inputs, one lane per column.
    powers: Panel,
    /// Predicted relative temperatures at the horizon.
    predicted: Panel,
}

impl BatchPredictor {
    /// Creates a predictor over `lanes` scenario lanes applying `map`, with
    /// temperatures referenced to `ambient_c`.
    ///
    /// # Errors
    ///
    /// Returns [`DtpmError::ModelShape`] if the map is not the identified
    /// hotspot shape (four states, four inputs) and
    /// [`DtpmError::InvalidConfig`] for zero lanes.
    pub fn new(map: Arc<HorizonMap>, ambient_c: f64, lanes: usize) -> Result<Self, DtpmError> {
        if map.state_count() != HOTSPOT_COUNT || map.input_count() != HOTSPOT_COUNT {
            return Err(DtpmError::ModelShape {
                states: map.state_count(),
                inputs: map.input_count(),
            });
        }
        if lanes == 0 {
            return Err(DtpmError::InvalidConfig(
                "a batch predictor needs at least one lane",
            ));
        }
        Ok(BatchPredictor {
            map,
            ambient_c,
            temps: Panel::zeros(HOTSPOT_COUNT, lanes),
            powers: Panel::zeros(HOTSPOT_COUNT, lanes),
            predicted: Panel::zeros(HOTSPOT_COUNT, lanes),
        })
    }

    /// Convenience constructor: fetches the (shared, cached) horizon map and
    /// ambient from a [`ThermalPredictor`].
    ///
    /// # Errors
    ///
    /// Propagates map construction errors (zero horizon) and the shape
    /// checks of [`BatchPredictor::new`].
    pub fn for_predictor(
        predictor: &ThermalPredictor,
        horizon: usize,
        lanes: usize,
    ) -> Result<Self, DtpmError> {
        BatchPredictor::new(
            predictor.horizon_map(horizon)?,
            predictor.ambient_c(),
            lanes,
        )
    }

    /// Number of scenario lanes.
    pub fn lanes(&self) -> usize {
        self.temps.lanes()
    }

    /// The horizon map every lane is advanced by.
    pub fn map(&self) -> &Arc<HorizonMap> {
        &self.map
    }

    /// Ambient temperature the predictions are referenced to, °C.
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
    }

    /// Loads lane `lane` with its current hotspot temperatures (absolute °C)
    /// and the domain powers to hold constant over the horizon.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn set_lane(
        &mut self,
        lane: usize,
        core_temps_c: [f64; HOTSPOT_COUNT],
        powers: &DomainPower,
    ) {
        let p = powers.as_array();
        for i in 0..HOTSPOT_COUNT {
            self.temps.set(i, lane, core_temps_c[i] - self.ambient_c);
            self.powers.set(i, lane, p[i]);
        }
    }

    /// Advances every lane to the horizon in one fused panel application:
    /// `predicted = Aₙ·temps + Bₙ·powers`, matrices loaded once for all
    /// lanes. Infallible: the panel shapes are fixed at construction and the
    /// map shape was validated there.
    pub fn predict(&mut self) {
        affine_pair_apply(
            self.map.a_n(),
            self.map.b_n(),
            &[0.0; HOTSPOT_COUNT],
            &self.temps,
            &self.powers,
            &mut self.predicted,
        )
        .expect("panel shapes are fixed at construction");
    }

    /// Lane `lane`'s predicted hotspot temperatures at the horizon, absolute
    /// °C (as of the last [`BatchPredictor::predict`] call).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn predicted_c(&self, lane: usize) -> [f64; HOTSPOT_COUNT] {
        let mut out = [0.0; HOTSPOT_COUNT];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.predicted.get(i, lane) + self.ambient_c;
        }
        out
    }

    /// Lane `lane`'s predicted peak hotspot temperature at the horizon, °C.
    /// Bit-identical to [`ThermalPredictor::predict_peak_with`] on the same
    /// inputs and map.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn peak_c(&self, lane: usize) -> f64 {
        self.predicted_c(lane)
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max)
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

    fn lane_inputs(lane: usize) -> ([f64; 4], DomainPower) {
        let temps = [
            45.0 + lane as f64 * 1.7,
            44.0 + lane as f64 * 1.3,
            46.5 + lane as f64 * 0.9,
            43.5 + lane as f64 * 1.1,
        ];
        let powers = DomainPower::new(
            2.0 + lane as f64 * 0.31,
            0.05,
            0.2 + lane as f64 * 0.02,
            0.35,
        );
        (temps, powers)
    }

    #[test]
    fn panel_predictions_are_bit_identical_to_scalar() {
        let p = predictor();
        for lanes in [1usize, 3, 8, 11] {
            let mut batch = BatchPredictor::for_predictor(&p, 10, lanes).unwrap();
            let map = p.horizon_map(10).unwrap();
            for lane in 0..lanes {
                let (temps, powers) = lane_inputs(lane);
                batch.set_lane(lane, temps, &powers);
            }
            batch.predict();
            for lane in 0..lanes {
                let (temps, powers) = lane_inputs(lane);
                let scalar = p.predict_with(temps, &powers, &map).unwrap();
                let batched = batch.predicted_c(lane);
                for i in 0..HOTSPOT_COUNT {
                    assert_eq!(
                        batched[i].to_bits(),
                        scalar[i].to_bits(),
                        "lanes={lanes} lane={lane} hotspot={i}"
                    );
                }
                assert_eq!(
                    batch.peak_c(lane).to_bits(),
                    p.predict_peak_with(temps, &powers, &map).unwrap().to_bits(),
                    "lanes={lanes} lane={lane} peak"
                );
            }
        }
    }

    #[test]
    fn construction_validates_shape_and_width() {
        let p = predictor();
        assert!(BatchPredictor::for_predictor(&p, 10, 0).is_err());
        assert!(BatchPredictor::for_predictor(&p, 0, 4).is_err());
        // A rectangular (non-hotspot) map is rejected.
        let model =
            DiscreteThermalModel::new(Matrix::identity(2).scale(0.9), Matrix::zeros(2, 3), 0.1)
                .unwrap();
        let map = Arc::new(model.horizon_map(5).unwrap());
        assert!(matches!(
            BatchPredictor::new(map, 28.0, 4),
            Err(DtpmError::ModelShape { .. })
        ));
    }

    #[test]
    fn accessors_round_trip() {
        let p = predictor();
        let batch = BatchPredictor::for_predictor(&p, 10, 5).unwrap();
        assert_eq!(batch.lanes(), 5);
        assert_eq!(batch.ambient_c(), 28.0);
        assert_eq!(batch.map().horizon(), 10);
        // The batch shares the predictor's cached map, not a private copy.
        assert!(Arc::ptr_eq(batch.map(), &p.horizon_map(10).unwrap()));
    }
}
