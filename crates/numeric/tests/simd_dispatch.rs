//! Equivalence and invariant tests for the SIMD panel-kernel dispatch.
//!
//! The contract (see the `numeric::simd` docs): every dispatch arm produces
//! bit-identical lanes, because all arms perform the same per-lane operation
//! sequence. These tests therefore compare arms with `to_bits` equality.

use numeric::simd::{fused_mul_add_span_with, PanelKernel};
use numeric::{affine_pair_apply_with, Matrix, Panel, LANE_CHUNK, PANEL_ALIGN};
use proptest::prelude::*;

fn coeff() -> impl Strategy<Value = f64> {
    (-3.0..3.0f64).prop_filter("finite", |v| v.is_finite())
}

fn state() -> impl Strategy<Value = f64> {
    (-100.0..100.0f64).prop_filter("finite", |v| v.is_finite())
}

/// Lane counts straddling the `LANE_CHUNK` boundary: remainder-only panels,
/// exact chunk multiples, and chunk + remainder mixes up to four chunks.
fn lane_counts() -> impl Strategy<Value = usize> {
    1usize..(4 * LANE_CHUNK + 2)
}

fn available_vector_kernels() -> Vec<PanelKernel> {
    [PanelKernel::Avx2Fma, PanelKernel::Neon]
        .into_iter()
        .filter(|k| k.is_available())
        .collect()
}

fn panel_from(rows: usize, lanes: usize, data: &[f64]) -> Panel {
    let mut p = Panel::zeros(rows, lanes);
    p.as_mut_slice().copy_from_slice(&data[..rows * lanes]);
    p
}

fn assert_panels_bit_identical(a: &Panel, b: &Panel, ctx: &str) {
    for (k, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {k}");
    }
}

proptest! {
    #[test]
    fn mul_panel_simd_matches_forced_scalar(
        m in 1usize..13,
        n in 1usize..13,
        lanes in lane_counts(),
        seed in prop::collection::vec(coeff(), 12 * 12),
        xs in prop::collection::vec(state(), 12 * (4 * LANE_CHUNK + 1)),
    ) {
        let a = Matrix::from_vec(m, n, seed[..m * n].to_vec()).unwrap();
        let x = panel_from(n, lanes, &xs);
        let mut scalar = Panel::zeros(m, lanes);
        a.mul_panel_into_with(PanelKernel::Scalar, &x, &mut scalar).unwrap();
        for kernel in available_vector_kernels() {
            let mut wide = Panel::zeros(m, lanes);
            a.mul_panel_into_with(kernel, &x, &mut wide).unwrap();
            assert_panels_bit_identical(
                &wide,
                &scalar,
                &format!("mul {kernel:?} m={m} n={n} lanes={lanes}"),
            );
        }
    }

    #[test]
    fn affine_pair_simd_matches_forced_scalar(
        m in 1usize..13,
        lanes in lane_counts(),
        a_seed in prop::collection::vec(coeff(), 12 * 12),
        b_seed in prop::collection::vec(coeff(), 12 * 12),
        bias in prop::collection::vec(state(), 12),
        xs in prop::collection::vec(state(), 12 * (4 * LANE_CHUNK + 1)),
        ys in prop::collection::vec(state(), 12 * (4 * LANE_CHUNK + 1)),
    ) {
        // The affine-pair kernel requires square-compatible shapes (n == m
        // panels rows); exercise the biased form, which covers the unbiased
        // code path too (bias handling is the only difference).
        let n = m;
        let a = Matrix::from_vec(m, n, a_seed[..m * n].to_vec()).unwrap();
        let b = Matrix::from_vec(m, n, b_seed[..m * n].to_vec()).unwrap();
        let x = panel_from(n, lanes, &xs);
        let y = panel_from(n, lanes, &ys);
        let mut scalar = Panel::zeros(m, lanes);
        affine_pair_apply_with(
            PanelKernel::Scalar, &a, &b, &bias[..m], &x, &y, &mut scalar,
        ).unwrap();
        for kernel in available_vector_kernels() {
            let mut wide = Panel::zeros(m, lanes);
            affine_pair_apply_with(kernel, &a, &b, &bias[..m], &x, &y, &mut wide).unwrap();
            assert_panels_bit_identical(
                &wide,
                &scalar,
                &format!("affine {kernel:?} m={m} lanes={lanes}"),
            );
        }
    }

    #[test]
    fn fused_span_simd_matches_forced_scalar(
        len in 1usize..71,
        base in prop::collection::vec(state(), 70),
        coef_v in prop::collection::vec(coeff(), 70),
        cur in prop::collection::vec(state(), 70),
    ) {
        let mut scalar = vec![0.0; len];
        fused_mul_add_span_with(
            PanelKernel::Scalar, &base[..len], &coef_v[..len], &cur[..len], &mut scalar,
        );
        for kernel in available_vector_kernels() {
            let mut wide = vec![0.0; len];
            fused_mul_add_span_with(
                kernel, &base[..len], &coef_v[..len], &cur[..len], &mut wide,
            );
            for (k, (s, w)) in scalar.iter().zip(&wide).enumerate() {
                assert_eq!(s.to_bits(), w.to_bits(), "{kernel:?} len={len} k={k}");
            }
        }
    }
}

/// Alignment regression: every construction path (fresh zeros at any lane
/// count, clones of written panels) must land on `PANEL_ALIGN`-byte storage.
#[test]
fn panels_are_aligned_at_every_lane_count() {
    for lanes in 1..=33 {
        for rows in [1, 3, 8] {
            let mut p = Panel::zeros(rows, lanes);
            assert_eq!(
                p.as_slice().as_ptr() as usize % PANEL_ALIGN,
                0,
                "zeros rows={rows} lanes={lanes}"
            );
            for i in 0..rows {
                for l in 0..lanes {
                    p.set(i, l, (i * lanes + l) as f64);
                }
            }
            let twin = p.clone();
            assert_eq!(
                twin.as_slice().as_ptr() as usize % PANEL_ALIGN,
                0,
                "clone rows={rows} lanes={lanes}"
            );
            assert_eq!(twin, p);
        }
    }
}

#[test]
fn active_kernel_is_available_and_detect_prefers_vector_units() {
    let active = PanelKernel::active();
    assert!(active.is_available());
    let detected = PanelKernel::detect();
    assert!(detected.is_available());
    // If any vector arm is available, auto-detection must not settle for
    // scalar.
    if !available_vector_kernels().is_empty() {
        assert_ne!(detected, PanelKernel::Scalar);
    }
}
