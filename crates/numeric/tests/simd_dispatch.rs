//! Equivalence and invariant tests for the SIMD panel-kernel dispatch.
//!
//! The contract (see the `numeric::simd` docs): the AVX2 arm produces lanes
//! bit-identical to the forced scalar arm, because both perform the same
//! per-lane operation sequence. These tests therefore compare arms with
//! `to_bits` equality. On a host without AVX2 the vector request degrades to
//! scalar and the comparisons hold trivially.

use numeric::simd::{fused_mul_add_span_with, PanelKernel};
use numeric::{
    affine_pair_apply_with, affine_panel_bias_apply_elem_with, Elem, Matrix, Panel, PanelT,
    LANE_CHUNK, PANEL_ALIGN,
};
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

/// A `rows × lanes` panel at width `E` filled from the front of `data`.
fn panel_from<E: Elem>(rows: usize, lanes: usize, data: &[f64]) -> PanelT<E> {
    let mut p = PanelT::zeros(rows, lanes);
    for (slot, &v) in p.as_mut_slice().iter_mut().zip(data) {
        *slot = E::from_f64(v);
    }
    p
}

fn assert_panels_bit_identical<E: Elem>(a: &PanelT<E>, b: &PanelT<E>, ctx: &str) {
    for (k, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_f64().to_bits(),
            y.to_f64().to_bits(),
            "{ctx}: element {k}"
        );
    }
}

/// Runs the per-lane-bias affine step `out = bias + a·x + b·y` for an
/// `m × n` map over `lanes` lanes at width `E`, through AVX2 and through
/// forced scalar, and requires the two to agree bit for bit.
#[allow(clippy::too_many_arguments)]
fn check_bias_kernel<E: Elem>(
    m: usize,
    n: usize,
    lanes: usize,
    a_seed: &[f64],
    b_seed: &[f64],
    bias: &[f64],
    xs: &[f64],
    ys: &[f64],
) {
    let a = panel_from::<E>(m, n, a_seed);
    let b = panel_from::<E>(m, n, b_seed);
    let bias = panel_from::<E>(m, lanes, bias);
    let x = panel_from::<E>(n, lanes, xs);
    let y = panel_from::<E>(n, lanes, ys);
    let mut scalar = PanelT::zeros(m, lanes);
    affine_panel_bias_apply_elem_with(PanelKernel::Scalar, &a, &b, &bias, &x, &y, &mut scalar)
        .unwrap();
    let mut wide = PanelT::zeros(m, lanes);
    affine_panel_bias_apply_elem_with(PanelKernel::Avx2Fma, &a, &b, &bias, &x, &y, &mut wide)
        .unwrap();
    assert_panels_bit_identical(
        &wide,
        &scalar,
        &format!("{} bias m={m} n={n} lanes={lanes}", E::NAME),
    );
}

proptest! {
    #[test]
    fn affine_panel_bias_simd_matches_forced_scalar(
        m in 1usize..13,
        n in 1usize..13,
        lanes in lane_counts(),
        a_seed in prop::collection::vec(coeff(), 12 * 12),
        b_seed in prop::collection::vec(coeff(), 12 * 12),
        bias in prop::collection::vec(state(), 12 * (4 * LANE_CHUNK + 1)),
        xs in prop::collection::vec(state(), 12 * (4 * LANE_CHUNK + 1)),
        ys in prop::collection::vec(state(), 12 * (4 * LANE_CHUNK + 1)),
    ) {
        check_bias_kernel::<f64>(m, n, lanes, &a_seed, &b_seed, &bias, &xs, &ys);
        check_bias_kernel::<f32>(m, n, lanes, &a_seed, &b_seed, &bias, &xs, &ys);
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
        let x: Panel = panel_from(n, lanes, &xs);
        let y: Panel = panel_from(n, lanes, &ys);
        let mut scalar = Panel::zeros(m, lanes);
        affine_pair_apply_with(
            PanelKernel::Scalar, &a, &b, &bias[..m], &x, &y, &mut scalar,
        ).unwrap();
        let mut wide = Panel::zeros(m, lanes);
        affine_pair_apply_with(PanelKernel::Avx2Fma, &a, &b, &bias[..m], &x, &y, &mut wide)
            .unwrap();
        assert_panels_bit_identical(&wide, &scalar, &format!("affine m={m} lanes={lanes}"));
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
        let mut wide = vec![0.0; len];
        fused_mul_add_span_with(
            PanelKernel::Avx2Fma, &base[..len], &coef_v[..len], &cur[..len], &mut wide,
        );
        for (k, (s, w)) in scalar.iter().zip(&wide).enumerate() {
            assert_eq!(s.to_bits(), w.to_bits(), "len={len} k={k}");
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
    // If the vector arm is available, auto-detection must not settle for
    // scalar.
    if PanelKernel::Avx2Fma.is_available() {
        assert_eq!(detected, PanelKernel::Avx2Fma);
    }
}
