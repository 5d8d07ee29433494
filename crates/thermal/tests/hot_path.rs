//! Property tests for the allocation-free integration hot path.
//!
//! Three guarantees keep the fast paths honest:
//!
//! 1. the allocating [`ThermalNetwork::step`] wrapper is **bit-identical** to
//!    the in-place [`ThermalNetwork::step_into`] across random networks,
//!    states and step sizes,
//! 2. a [`FanBoost`] step parameter is **bit-identical** to stepping a network
//!    rebuilt with [`ThermalNetwork::with_extra_ambient_conductance`] (the old
//!    clone-per-interval path),
//! 3. repeatedly stepping converges to [`ThermalNetwork::steady_state`].

use proptest::prelude::*;
use thermal_model::{
    ExynosThermalNetwork, FanBoost, RkScratch, ThermalNetwork, ThermalNetworkBuilder,
};

/// Builds a connected random network from property-generated parameters.
fn build_network(caps: &[f64], conds: &[f64], ambient_conds: &[f64]) -> ThermalNetwork {
    let n = caps.len();
    let mut b = ThermalNetworkBuilder::new();
    let ids: Vec<_> = caps.iter().map(|&c| b.add_node(c)).collect();
    // A chain keeps every node connected; a long-range edge adds structure.
    for i in 0..n - 1 {
        b.connect(ids[i], ids[i + 1], conds[i % conds.len()])
            .unwrap();
    }
    if n > 2 {
        b.connect(ids[0], ids[n - 1], conds[n % conds.len()])
            .unwrap();
    }
    for (i, &g) in ambient_conds.iter().enumerate() {
        if i < n && g > 0.0 {
            b.connect_to_ambient(ids[i], g).unwrap();
        }
    }
    // Guarantee at least one ambient path.
    b.connect_to_ambient(ids[0], conds[0]).unwrap();
    b.build().unwrap()
}

proptest! {
    #[test]
    fn step_is_bit_identical_to_step_into(
        caps in prop::collection::vec(0.1..5.0f64, 2..7),
        conds in prop::collection::vec(0.05..2.0f64, 12),
        ambient_conds in prop::collection::vec(0.01..0.8f64, 3),
        temps_pool in prop::collection::vec(15.0..95.0f64, 7),
        powers_pool in prop::collection::vec(0.0..3.0f64, 7),
        dt in 0.001..0.05f64,
    ) {
        let network = build_network(&caps, &conds, &ambient_conds);
        let n = network.node_count();
        let temps: Vec<f64> = (0..n).map(|i| temps_pool[i % temps_pool.len()]).collect();
        let powers: Vec<f64> = (0..n).map(|i| powers_pool[i % powers_pool.len()]).collect();

        let via_wrapper = network.step(&temps, &powers, 25.0, dt).unwrap();
        let mut in_place = temps.clone();
        let mut scratch = RkScratch::new(n);
        network
            .step_into(&mut in_place, &powers, 25.0, dt, FanBoost::NONE, &mut scratch)
            .unwrap();
        // Bit-identical, not approximately equal.
        prop_assert_eq!(via_wrapper, in_place);
    }

    #[test]
    fn fan_boost_is_bit_identical_to_modified_network(
        caps in prop::collection::vec(0.1..5.0f64, 2..7),
        conds in prop::collection::vec(0.05..2.0f64, 12),
        ambient_conds in prop::collection::vec(0.01..0.8f64, 3),
        temps_pool in prop::collection::vec(15.0..95.0f64, 7),
        powers_pool in prop::collection::vec(0.0..3.0f64, 7),
        boost in 0.0..1.5f64,
        node_pick in 0.0..1.0f64,
        dt in 0.001..0.05f64,
    ) {
        let network = build_network(&caps, &conds, &ambient_conds);
        let n = network.node_count();
        let temps: Vec<f64> = (0..n).map(|i| temps_pool[i % temps_pool.len()]).collect();
        let powers: Vec<f64> = (0..n).map(|i| powers_pool[i % powers_pool.len()]).collect();
        let node = thermal_model::NodeId((node_pick * n as f64) as usize % n);

        // Old path: clone the network with the boost baked in, then step.
        let cloned = network
            .with_extra_ambient_conductance(node, boost)
            .step(&temps, &powers, 25.0, dt)
            .unwrap();
        // Hot path: pass the boost as a step parameter.
        let mut in_place = temps.clone();
        let mut scratch = RkScratch::new(n);
        network
            .step_into(
                &mut in_place,
                &powers,
                25.0,
                dt,
                FanBoost::at(node, boost),
                &mut scratch,
            )
            .unwrap();
        prop_assert_eq!(cloned, in_place);
    }
}

#[test]
fn repeated_step_into_converges_to_steady_state() {
    let plant = ExynosThermalNetwork::odroid_xu_e();
    let network = plant.network();
    let powers = plant.power_vector(&[0.9, 0.8, 0.85, 0.95], 0.05, 0.35, 0.4);
    let expected = network.steady_state(&powers, 28.0).unwrap();

    let mut temps = vec![28.0; network.node_count()];
    let mut scratch = RkScratch::new(network.node_count());
    for _ in 0..3_000_000 {
        network
            .step_into(
                &mut temps,
                &powers,
                28.0,
                0.01,
                FanBoost::NONE,
                &mut scratch,
            )
            .unwrap();
    }
    for (simulated, steady) in temps.iter().zip(&expected) {
        assert!(
            (simulated - steady).abs() < 0.05,
            "integration {temps:?} vs steady state {expected:?}"
        );
    }
}

#[test]
fn fan_boosted_convergence_matches_boosted_steady_state() {
    let plant = ExynosThermalNetwork::odroid_xu_e();
    let network = plant.network();
    let boost = 0.065;
    let powers = plant.power_vector(&[1.0, 1.0, 1.0, 1.0], 0.05, 0.3, 0.45);
    let expected = plant
        .network_with_fan_boost(boost)
        .steady_state(&powers, 28.0)
        .unwrap();

    let mut temps = vec![40.0; network.node_count()];
    let mut scratch = RkScratch::new(network.node_count());
    let fan = plant.fan_boost(boost);
    for _ in 0..3_000_000 {
        network
            .step_into(&mut temps, &powers, 28.0, 0.01, fan, &mut scratch)
            .unwrap();
    }
    for (simulated, steady) in temps.iter().zip(&expected) {
        assert!(
            (simulated - steady).abs() < 0.05,
            "integration {temps:?} vs steady state {expected:?}"
        );
    }
}
