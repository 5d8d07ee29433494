//! Closed-form oracle for the DTPM thermal prediction.
//!
//! Relative to ambient, the identified discrete model steps
//! `T[k+1] = A·T[k] + B·P`, so under constant power `P` it settles at
//! `T* = (I − A)⁻¹·B·P` whatever the start. The oracle solves that system
//! with `numeric`'s LU, apart from every prediction path, and holds both the
//! one-shot horizon-map prediction and the iterated model loop to it at a
//! horizon long enough for `Aⁿ` to vanish.

use numeric::{LuDecomposition, Matrix, Vector};
use platform_sim::CalibrationCampaign;
use power_model::DomainPower;

/// Bound on `‖Aⁿ‖∞` at the test horizon: the start's remaining influence on
/// the prediction, per °C of initial offset from the steady state.
const DECAY: f64 = 1e-12;

/// Agreement with the closed form, °C. What is left at the horizon is
/// rounding: the measured worst case is 6.1e-11 °C on both paths.
const TOLERANCE_C: f64 = 1e-9;

#[test]
fn predictions_converge_to_the_closed_form_steady_state() {
    let calibration = CalibrationCampaign {
        prbs_duration_s: 120.0,
        run_furnace: false,
        ..CalibrationCampaign::default()
    }
    .run(11)
    .expect("calibration campaign must succeed");
    let predictor = &calibration.predictor;
    let ambient_c = predictor.ambient_c();
    let a = predictor.model().a();
    let b = predictor.model().b();
    let n = a.rows();

    // The shortest horizon at which the start has decayed below `DECAY`.
    let mut a_power = Matrix::identity(n);
    let mut horizon = 0;
    while a_power.inf_norm() >= DECAY {
        a_power = a_power.mul(a).expect("square state matrix");
        horizon += 1;
        assert!(horizon < 1_000_000, "identified model must be stable");
    }

    let lu = LuDecomposition::new(&Matrix::identity(n).sub(a).expect("square state matrix"))
        .expect("a stable model has a regular I - A");
    let loads = [
        DomainPower::new(3.5, 0.05, 0.15, 0.4),
        DomainPower::new(0.6, 0.3, 1.2, 0.6),
        DomainPower::new(1.8, 0.05, 0.6, 0.9),
    ];
    let starts = [
        [ambient_c; 4],
        [45.0, 44.0, 46.5, 45.5],
        [85.0, 80.0, 82.5, 79.0],
    ];
    for powers in &loads {
        let drive = b
            .mul_vector(&Vector::from_slice(&powers.as_array()))
            .expect("one power per input");
        let rise = lu.solve(&drive).expect("regular system");
        assert!(
            rise.iter().all(|r| *r > 0.0),
            "positive power must heat every hotspot: {rise:?}"
        );
        for start in starts {
            let one_shot = predictor
                .predict(start, powers, horizon)
                .expect("one-shot prediction");
            let iterated = predictor
                .predict_iterated(start, powers, horizon)
                .expect("iterated prediction");
            for i in 0..n {
                let steady_c = ambient_c + rise[i];
                for (path, got) in [("one-shot", one_shot[i]), ("iterated", iterated[i])] {
                    assert!(
                        (got - steady_c).abs() <= TOLERANCE_C,
                        "{path} prediction of hotspot {i} from {start:?} under \
                         {powers:?}: {got} degC at horizon {horizon}, closed form \
                         {steady_c} degC"
                    );
                }
            }
        }
    }
}
