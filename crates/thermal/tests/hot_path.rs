//! Property tests for the fan's entry into the precomputed transitions.
//!
//! A [`FanBoost`] transition parameter is **bit-identical** to building the
//! transition for a network rebuilt with
//! [`ThermalNetwork::with_extra_ambient_conductance`], across random
//! networks, boosted nodes, ambients and step sizes.

use proptest::prelude::*;
use thermal_model::{FanBoost, NodeId, ThermalNetwork, ThermalNetworkBuilder};

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
    fn fan_boost_is_bit_identical_to_modified_network(
        caps in prop::collection::vec(0.1..5.0f64, 2..7),
        conds in prop::collection::vec(0.05..2.0f64, 12),
        ambient_conds in prop::collection::vec(0.01..0.8f64, 3),
        boost in 0.0..1.5f64,
        node_pick in 0.0..1.0f64,
        ambient_c in 15.0..40.0f64,
        dt in 0.001..0.05f64,
    ) {
        let network = build_network(&caps, &conds, &ambient_conds);
        let n = network.node_count();
        let node = NodeId((node_pick * n as f64) as usize % n);
        let fan = FanBoost::at(node, boost);
        // The network with the boost baked in, built without one.
        let modified = network.with_extra_ambient_conductance(node, boost);
        prop_assert_eq!(
            network.step_transition(fan, ambient_c, dt).unwrap(),
            modified.step_transition(FanBoost::NONE, ambient_c, dt).unwrap()
        );
        prop_assert_eq!(
            network.batch_step_transition(fan, dt).unwrap(),
            modified.batch_step_transition(FanBoost::NONE, dt).unwrap()
        );
    }
}
