//! Property tests for the SIMD-dispatched leakage span across re-anchor
//! cadences.
//!
//! Two layers of contract: (1) the AVX2 arm is bit-identical to forced
//! scalar (both perform the same per-cell operation sequence); (2)
//! against the libm-based `LeakageModel::current_a` reference, the anchored
//! panel tracks within floating-point rounding across a whole re-anchor
//! period — exactly the documented drift bound.

use numeric::simd::PanelKernel;
use power_model::{LeakageModel, LeakagePanel, LeakageParams};
use proptest::prelude::*;

const REL_BOUND: f64 = 5e-15;

fn models() -> [LeakageModel; 4] {
    [
        LeakageModel::exynos5410_big(),
        LeakageModel::exynos5410_little(),
        LeakageModel::exynos5410_gpu(),
        LeakageModel::exynos5410_memory(),
    ]
}

proptest! {
    #[test]
    fn anchored_currents_track_libm_across_reanchor_cadences(
        lanes in 1usize..14,
        anchor_t in 35.0..85.0f64,
        // Per-step drift up to the documented worst case (~0.06 K/step).
        drift in -0.06..0.06f64,
        // Re-anchor after 1..=REANCHOR_STEPS steps — every legal cadence.
        cadence in 1usize..(LeakagePanel::REANCHOR_STEPS + 1),
        model_idx in 0usize..4,
        periods in 1usize..4,
    ) {
        let model = models()[model_idx];
        let mut panel = LeakagePanel::filled(1, lanes, &model, anchor_t);
        let mut temps = vec![anchor_t; lanes];
        let mut out = vec![0.0; lanes];
        let mut steps_since_anchor = 0;
        for _step in 0..periods * cadence {
            if steps_since_anchor == cadence {
                for lane in 0..lanes {
                    panel.anchor_lane(lane, &temps);
                }
                steps_since_anchor = 0;
            }
            for (l, t) in temps.iter_mut().enumerate() {
                *t += drift * (1.0 + l as f64 * 0.03);
            }
            panel.currents_into(&temps, &mut out);
            for (l, &got) in out.iter().enumerate() {
                let exact = model.current_a(temps[l]);
                let rel = ((got - exact) / exact).abs();
                prop_assert!(
                    rel < REL_BOUND,
                    "lane {l} rel error {rel:.3e} ({got} vs {exact})"
                );
            }
            steps_since_anchor += 1;
        }
    }

    #[test]
    fn leakage_arms_bit_identical_across_cells_and_drift(
        rows in 1usize..7,
        lanes in 1usize..14,
        anchor_t in 35.0..85.0f64,
        offset in -0.5..0.5f64,
        model_seed in 0usize..4,
    ) {
        let base = models();
        let mut panel = LeakagePanel::filled(rows, lanes, &base[model_seed], anchor_t);
        // Vary the models per cell so the coefficient loads actually differ.
        for r in 0..rows {
            for l in 0..lanes {
                let m = base[(r + l + model_seed) % 4];
                // Perturb igate per cell to break symmetry further.
                let params = LeakageParams {
                    igate_a: m.params().igate_a * (1.0 + 0.01 * l as f64),
                    ..m.params()
                };
                panel.set_model(r, l, &LeakageModel::new(params), anchor_t + 0.1 * r as f64);
            }
        }
        let cells = rows * lanes;
        let temps: Vec<f64> = (0..cells)
            .map(|k| anchor_t + offset + 0.002 * k as f64)
            .collect();
        let mut scalar = vec![0.0; cells];
        panel.currents_into_with(PanelKernel::Scalar, &temps, &mut scalar);
        let mut wide = vec![0.0; cells];
        panel.currents_into_with(PanelKernel::Avx2Fma, &temps, &mut wide);
        for (k, (s, w)) in scalar.iter().zip(&wide).enumerate() {
            prop_assert_eq!(s.to_bits(), w.to_bits(), "cell {} ({} vs {})", k, s, w);
        }
    }
}
