//! Oracle for the plant's micro-step: the RK4 transition `R` of
//! [`ThermalNetwork::batch_step_transition`] held to the exact exponential
//! `exp(A·h)` of the Odroid RC network, at every fan level.
//!
//! The exponential is computed here from the network's conductances and
//! capacitances alone, with a Jacobi eigendecomposition written in this
//! file, so it shares no code with the library. The network is reciprocal
//! (its conductance matrix `G` is symmetric) and its capacitance matrix `C`
//! is diagonal, so `A = −C⁻¹·G` is similar to `−S` with the symmetric
//! `S = C^−½·G·C^−½ = V·Λ·Vᵀ`, and `C^½·exp(A·h)·C^−½ = V·exp(−Λh)·Vᵀ`.
//! One RK4 step of a linear system replaces each `exp(−λh)` with its
//! degree-4 Taylor polynomial, so in that basis every entry of the step's
//! error is at most `Σ_{k≥5} (λ_max·h)^k / k!` (the error is `V·D·Vᵀ` with
//! `D` diagonal, and `V` is orthogonal).

use soc_model::{FanLevel, FanModel};
use thermal_model::{ExynosThermalNetwork, ThermalNetwork};

/// The plant's integration step, s: ten micro-steps per 100 ms interval.
const H_S: f64 = 0.01;

/// Room for rounding in `R` and in the eigendecomposition, on entries of
/// order one.
const ROUNDING: f64 = 1e-12;

/// The symmetric `S = C^−½·G·C^−½` of `network` with `boost_w_per_k` of
/// extra conductance to ambient at `case`, as dense rows.
fn symmetric_conductance(
    network: &ThermalNetwork,
    case: usize,
    boost_w_per_k: f64,
) -> Vec<Vec<f64>> {
    let n = network.node_count();
    let mut g = vec![vec![0.0; n]; n];
    for &(a, b, conductance) in network.couplings() {
        g[a][a] += conductance;
        g[b][b] += conductance;
        g[a][b] -= conductance;
        g[b][a] -= conductance;
    }
    for (i, conductance) in network.ambient_conductances().iter().enumerate() {
        g[i][i] += conductance;
    }
    g[case][case] += boost_w_per_k;
    let c = network.capacitances();
    for (i, row) in g.iter_mut().enumerate() {
        for (j, entry) in row.iter_mut().enumerate() {
            *entry /= (c[i] * c[j]).sqrt();
        }
    }
    g
}

/// Eigenvalues and eigenvectors (the columns of the second result) of the
/// symmetric matrix `s`, by cyclic Jacobi rotations until the off-diagonal
/// mass vanishes to rounding.
fn jacobi(mut s: Vec<Vec<f64>>) -> (Vec<f64>, Vec<Vec<f64>>) {
    let n = s.len();
    let mut v: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..n).map(|j| f64::from(u8::from(i == j))).collect())
        .collect();
    let scale: f64 = s.iter().flatten().map(|x| x * x).sum::<f64>().sqrt();
    for _sweep in 0..64 {
        let off: f64 = (0..n)
            .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| s[i][j] * s[i][j])
            .sum::<f64>()
            .sqrt();
        if off <= 1e-15 * scale {
            return ((0..n).map(|i| s[i][i]).collect(), v);
        }
        for p in 0..n {
            for q in p + 1..n {
                if s[p][q] == 0.0 {
                    continue;
                }
                // The rotation that zeroes s[p][q]: tan of its angle is the
                // smaller root of t² + 2θt − 1 = 0.
                let theta = (s[q][q] - s[p][p]) / (2.0 * s[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let cos = 1.0 / (t * t + 1.0).sqrt();
                let sin = t * cos;
                for row in s.iter_mut() {
                    let (a, b) = (row[p], row[q]);
                    row[p] = cos * a - sin * b;
                    row[q] = sin * a + cos * b;
                }
                let (head, tail) = s.split_at_mut(q);
                for (a, b) in head[p].iter_mut().zip(tail[0].iter_mut()) {
                    (*a, *b) = (cos * *a - sin * *b, sin * *a + cos * *b);
                }
                for row in v.iter_mut() {
                    let (a, b) = (row[p], row[q]);
                    row[p] = cos * a - sin * b;
                    row[q] = sin * a + cos * b;
                }
            }
        }
    }
    panic!("Jacobi sweeps did not converge");
}

/// `Σ_{k≥5} x^k / k!`, the tail of the exponential series that RK4 drops.
fn rk4_truncation_bound(x: f64) -> f64 {
    let mut term = x.powi(5) / 120.0;
    let mut sum = 0.0;
    for k in 6..40 {
        sum += term;
        term *= x / f64::from(k);
    }
    sum
}

#[test]
fn the_rk4_micro_step_tracks_the_exact_exponential_at_every_fan_level() {
    let plant = ExynosThermalNetwork::odroid_xu_e();
    let network = plant.network();
    let n = network.node_count();
    let case = plant.case_node().0;
    let c = network.capacitances();
    let fan = FanModel::odroid_xu_e();
    for level in FanLevel::ALL {
        let boost_w_per_k = fan.conductance_boost_w_per_k(level);
        let (lambda, v) = jacobi(symmetric_conductance(network, case, boost_w_per_k));
        assert!(
            lambda.iter().all(|&l| l > 0.0),
            "fan {level:?}: every mode decays, got {lambda:?}"
        );
        let lambda_max = lambda.iter().copied().fold(0.0, f64::max);
        // The fastest die mode's λ·h is 0.061 at the 10 ms step: RK4 sits
        // deep inside its stability region.
        assert!(
            lambda_max * H_S < 0.07,
            "fan {level:?}: λ_max·h = {}",
            lambda_max * H_S
        );
        let bound = rk4_truncation_bound(lambda_max * H_S) + ROUNDING;

        let transition = network
            .batch_step_transition(plant.fan_boost(boost_w_per_k), H_S)
            .expect("a positive step");
        let r = transition.r();
        for i in 0..n {
            for j in 0..n {
                let exact: f64 = (0..n)
                    .map(|k| v[i][k] * (-lambda[k] * H_S).exp() * v[j][k])
                    .sum();
                let rk4 = c[i].sqrt() * r.get(i, j) / c[j].sqrt();
                assert!(
                    (rk4 - exact).abs() <= bound,
                    "fan {level:?}: entry ({i}, {j}) is {rk4}, exp(A·h) gives {exact}, \
                     off by {:e} against a bound of {bound:e}",
                    (rk4 - exact).abs()
                );
            }
        }
    }
}
