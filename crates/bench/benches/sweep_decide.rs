//! Microbench of batched against iterated DTPM classification, at the
//! `dtpm` level.
//!
//! Iterating the discrete thermal model `horizon` times costs two mat-vecs
//! per step, per lane, per interval. One application of the precomputed
//! horizon map `(Aₙ, Bₙ)` replaces that loop; a [`BatchPredictor`] panel
//! applies it to a whole lane group at once. This bench compares the two
//! classifications through the `dtpm` API. The sweep executor itself does
//! not batch: each lane decides through [`DtpmPolicy::decide`], one scalar
//! horizon-map application, which is bit-identical per lane to the panel.
//!
//! The workload is control-heavy by construction — a long prediction horizon
//! (32 steps, vs the paper's 10) over a sweep-wide lane group. Both arms run
//! the *full* decision (proposal power vector, classification,
//! affirm-or-actuate resolution) on identical inputs:
//!
//! * **per-lane iterated** — each lane classifies through
//!   [`ThermalPredictor::predict_peak_iterated`], the `horizon`-length model
//!   loop.
//! * **batched** — every lane's proposal assembled into one
//!   [`BatchPredictor`] panel, one prediction for the whole group.
//!
//! The claim is the batched arm's speed-up in decisions/s, at least
//! [`SPEEDUP_FLOOR`]; both arms' decisions are cross-checked first. Results
//! land in `BENCH_sweep_decide.json`.

use bench::microbench::{Bound, Microbench};
use dtpm::{BatchPredictor, DtpmAction, DtpmConfig, DtpmInputs, DtpmPolicy};
use platform_sim::CalibrationCampaign;
use power_model::{DomainPower, PowerModel};
use soc_model::{Frequency, PlatformState, PowerDomain, SocSpec, Voltage};

/// Scenario lanes advanced per instruction stream (the sweep batch width).
const LANES: usize = 8;
/// Prediction horizon in control intervals: control-heavy (the paper's
/// configuration uses 10).
const HORIZON: usize = 32;
/// Decision intervals per timed sample in a full run.
const INTERVALS: usize = 20_000;
/// Pairs timed in a full run.
const PAIRS: usize = 11;
/// Acceptance floor: batched over per-lane iterated decisions/s.
/// Re-baselined upward from 1.5 after the explicit SIMD panel kernels landed
/// (measured 13.1x on the AVX2 reference host, up from 11.98x with
/// autovectorized scalar kernels).
const SPEEDUP_FLOOR: f64 = 10.0;

/// A run-time power model trained like a warm sweep's (heavy big-cluster
/// activity, light GPU/memory observations).
fn trained_power_model() -> PowerModel {
    let mut model = PowerModel::exynos5410_defaults();
    let v = Voltage::from_volts(1.2);
    let f = Frequency::from_mhz(1600);
    for _ in 0..20 {
        model.observe(PowerDomain::BigCpu, 3.8, 58.0, v, f);
    }
    for _ in 0..5 {
        model.observe(
            PowerDomain::Gpu,
            0.15,
            55.0,
            Voltage::from_volts(0.85),
            Frequency::from_mhz(177),
        );
        model.observe(
            PowerDomain::Memory,
            0.35,
            55.0,
            Voltage::from_volts(1.0),
            Frequency::from_mhz(800),
        );
    }
    model
}

/// Per-lane measured temperatures: a steady-state mix — most lanes cruising
/// below the constraint (affirmed), one lane per group near it (pays the
/// actuation walk), mirroring "violations are rare" on a real sweep.
fn lane_temps(lane: usize) -> [f64; 4] {
    if lane == LANES - 1 {
        [62.8, 62.3, 63.3, 62.6]
    } else {
        let base = 48.0 + lane as f64 * 1.1;
        [base, base - 0.7, base + 0.4, base - 0.3]
    }
}

fn lane_power(lane: usize) -> DomainPower {
    DomainPower::new(3.4 + 0.05 * lane as f64, 0.04, 0.15, 0.4)
}

fn main() {
    let mut bench = Microbench::from_args("sweep_decide", PAIRS);
    let intervals = if bench.test_mode() { 200 } else { INTERVALS };
    bench.config("lanes", LANES);
    bench.config("horizon", HORIZON);
    bench.config("intervals_per_sample", intervals);

    let calibration = CalibrationCampaign {
        prbs_duration_s: 120.0,
        run_furnace: false,
        ..CalibrationCampaign::default()
    }
    .run(37)
    .expect("calibration campaign must succeed");
    let spec = SocSpec::odroid_xu_e();
    let power_model = trained_power_model();
    let dtpm_config = DtpmConfig {
        prediction_horizon_steps: HORIZON,
        ..DtpmConfig::default()
    };

    // One policy per lane, cloned from the shared calibration predictor —
    // exactly how a lockstep sweep builds its control loops. The clones
    // share one precomputed horizon map through the predictor's cache.
    let policies: Vec<DtpmPolicy> = (0..LANES)
        .map(|_| {
            DtpmPolicy::new(dtpm_config, calibration.predictor.clone())
                .expect("valid configuration")
        })
        .collect();
    let inputs: Vec<DtpmInputs<'_>> = (0..LANES)
        .map(|lane| DtpmInputs {
            spec: &spec,
            proposed: PlatformState::default_for(&spec),
            core_temps_c: lane_temps(lane),
            measured_power: lane_power(lane),
        })
        .collect();

    // Cross-check once, outside the timed loops: the batched classification
    // must reproduce the scalar (iterated-predictor) decisions exactly on
    // this input set, the cool lanes must affirm and the hot lane must
    // exercise the actuation walk.
    let mut batch = BatchPredictor::new(
        std::sync::Arc::clone(policies[0].horizon_map()),
        calibration.predictor.ambient_c(),
        LANES,
    )
    .expect("hotspot-shaped map");
    let mut lane_powers: Vec<DomainPower> = vec![DomainPower::default(); LANES];
    for (lane, (policy, input)) in policies.iter().zip(&inputs).enumerate() {
        let powers = policy
            .proposal_powers(input, &power_model)
            .expect("proposal powers");
        batch.set_lane(lane, input.core_temps_c, &powers);
        lane_powers[lane] = powers;
    }
    batch.predict();
    for (lane, (policy, input)) in policies.iter().zip(&inputs).enumerate() {
        let batched = policy
            .resolve(input, &power_model, &lane_powers[lane], batch.peak_c(lane))
            .expect("decision resolves");
        let scalar_peak = policy
            .predictor()
            .predict_peak_iterated(input.core_temps_c, &lane_powers[lane], HORIZON)
            .expect("iterated prediction");
        let scalar = policy
            .resolve(input, &power_model, &lane_powers[lane], scalar_peak)
            .expect("decision resolves");
        assert_eq!(batched.action, scalar.action, "lane {lane} diverged");
        assert!(
            (batched.predicted_peak_c - scalar.predicted_peak_c).abs() <= 1e-12,
            "lane {lane} peaks diverged beyond the equivalence bar"
        );
        assert_eq!(
            batched.action == DtpmAction::Affirmed,
            lane != LANES - 1,
            "steady state must affirm the cool lanes and throttle the hot one"
        );
    }

    // Arm A — per-lane iterated horizon loop, then the affirm-or-actuate
    // resolution. Arm B — batched: every lane's proposal classified by one
    // fused panel prediction; only violating lanes walk the actuation list.
    bench.paired(
        "speedup_vs_scalar",
        Some(Bound::Floor(SPEEDUP_FLOOR)),
        ["per_lane_iterated", "batched"],
        |t| {
            t.time(|| {
                for _ in 0..intervals {
                    for (policy, input) in policies.iter().zip(&inputs) {
                        let powers = policy
                            .proposal_powers(input, &power_model)
                            .expect("proposal powers");
                        let peak = policy
                            .predictor()
                            .predict_peak_iterated(input.core_temps_c, &powers, HORIZON)
                            .expect("iterated prediction");
                        std::hint::black_box(
                            policy
                                .resolve(input, &power_model, &powers, peak)
                                .expect("decision resolves"),
                        );
                    }
                }
            })
        },
        |t| {
            t.time(|| {
                for _ in 0..intervals {
                    for (lane, (policy, input)) in policies.iter().zip(&inputs).enumerate() {
                        let powers = policy
                            .proposal_powers(input, &power_model)
                            .expect("proposal powers");
                        batch.set_lane(lane, input.core_temps_c, &powers);
                        lane_powers[lane] = powers;
                    }
                    batch.predict();
                    for (lane, (policy, input)) in policies.iter().zip(&inputs).enumerate() {
                        std::hint::black_box(
                            policy
                                .resolve(
                                    input,
                                    &power_model,
                                    &lane_powers[lane],
                                    batch.peak_c(lane),
                                )
                                .expect("decision resolves"),
                        );
                    }
                }
            })
        },
    );
    bench.finish();
}
