//! Power-budget distribution across heterogeneous resources (Chapter 7).
//!
//! The thesis' future-work chapter formulates how a dynamic power budget
//! should be split across the big CPU cluster, the little cluster and the GPU:
//! minimise the execution-time cost
//!
//! ```text
//! J(f₁ … fₙ) = Σ cᵢ / fᵢ            (Eq. 7.1)
//! ```
//!
//! subject to the dynamic-power constraint
//!
//! ```text
//! P(f₁ … fₙ) = Σ aᵢ·fᵢ³ ≤ P_budget   (Eq. 7.2)
//! ```
//!
//! Chapter 7 notes that branch-and-bound solves this exactly but is awkward in
//! kernel space, so the practical algorithm greedily throttles whichever
//! component costs the least performance (Eq. 7.3). Both are implemented here
//! so the trade-off can be quantified (experiment `fig7_1`).

use soc_model::{Frequency, OppTable};

use crate::DtpmError;

/// One throttleable resource participating in the budget distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceLoad {
    /// Resource name (for reporting).
    pub name: String,
    /// Performance parameter `cᵢ` of Eq. 7.1: work pending on the resource, so
    /// its contribution to the cost is `cᵢ / fᵢ` (frequency in GHz).
    pub performance_weight: f64,
    /// Power parameter `aᵢ` of Eq. 7.2 such that the resource consumes
    /// `aᵢ·fᵢ³` watts at frequency `fᵢ` (GHz).
    pub power_coefficient: f64,
    /// Discrete frequencies available to the resource.
    pub opps: OppTable,
}

impl ResourceLoad {
    /// Dynamic power at the given frequency, `aᵢ·fᵢ³`, in watts.
    pub fn power_at(&self, frequency: Frequency) -> f64 {
        let f = frequency.ghz();
        self.power_coefficient * f * f * f
    }

    /// Cost contribution `cᵢ / fᵢ` at the given frequency.
    pub fn cost_at(&self, frequency: Frequency) -> f64 {
        self.performance_weight / frequency.ghz()
    }
}

/// How to solve the distribution problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistributionMethod {
    /// Greedy descent: repeatedly step down the frequency of the resource
    /// whose step costs the least additional execution time per watt saved
    /// (Eq. 7.3). This is what fits in a kernel.
    Greedy,
    /// Exhaustive branch-and-bound over the discrete frequency combinations;
    /// optimal but exponential in the number of resources.
    BranchAndBound,
}

/// The outcome of a budget distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionResult {
    /// Selected frequency per resource, in the order the resources were given.
    pub frequencies: Vec<Frequency>,
    /// Total dynamic power at the selected frequencies, in watts.
    pub total_power_w: f64,
    /// Total cost `J` (Eq. 7.1) at the selected frequencies.
    pub cost: f64,
    /// Whether the budget could be met at all (if `false`, every resource is
    /// at its minimum frequency and the budget is still exceeded).
    pub feasible: bool,
}

/// Distributes `budget_w` of dynamic power across the resources.
///
/// # Errors
///
/// Returns [`DtpmError::InvalidConfig`] if no resources are given or the
/// budget is negative/not finite.
pub fn distribute_budget(
    resources: &[ResourceLoad],
    budget_w: f64,
    method: DistributionMethod,
) -> Result<DistributionResult, DtpmError> {
    if resources.is_empty() {
        return Err(DtpmError::InvalidConfig(
            "budget distribution needs at least one resource",
        ));
    }
    if !(budget_w >= 0.0) || !budget_w.is_finite() {
        return Err(DtpmError::InvalidConfig(
            "power budget must be finite and non-negative",
        ));
    }
    match method {
        DistributionMethod::Greedy => Ok(greedy(resources, budget_w)),
        DistributionMethod::BranchAndBound => Ok(branch_and_bound(resources, budget_w)),
    }
}

fn summarise(resources: &[ResourceLoad], freqs: &[Frequency], budget_w: f64) -> DistributionResult {
    let total_power_w: f64 = resources
        .iter()
        .zip(freqs)
        .map(|(r, &f)| r.power_at(f))
        .sum();
    let cost: f64 = resources
        .iter()
        .zip(freqs)
        .map(|(r, &f)| r.cost_at(f))
        .sum();
    DistributionResult {
        frequencies: freqs.to_vec(),
        total_power_w,
        cost,
        feasible: total_power_w <= budget_w + 1e-12,
    }
}

/// Greedy throttling (Eq. 7.3): start with every resource at its maximum
/// frequency; while the budget is exceeded, step down the resource whose step
/// increases the cost the least per watt of power saved.
fn greedy(resources: &[ResourceLoad], budget_w: f64) -> DistributionResult {
    let mut freqs: Vec<Frequency> = resources
        .iter()
        .map(|r| r.opps.highest().frequency)
        .collect();
    loop {
        let result = summarise(resources, &freqs, budget_w);
        if result.feasible {
            return result;
        }
        // Pick the cheapest step-down.
        let mut best: Option<(usize, Frequency, f64)> = None;
        for (i, resource) in resources.iter().enumerate() {
            if let Some(lower) = resource.opps.step_down(freqs[i]) {
                let power_saved = resource.power_at(freqs[i]) - resource.power_at(lower.frequency);
                let cost_added = resource.cost_at(lower.frequency) - resource.cost_at(freqs[i]);
                if power_saved <= 0.0 {
                    continue;
                }
                let ratio = cost_added / power_saved;
                if best.map(|(_, _, b)| ratio < b).unwrap_or(true) {
                    best = Some((i, lower.frequency, ratio));
                }
            }
        }
        match best {
            Some((i, freq, _)) => freqs[i] = freq,
            // Everything already at minimum: infeasible.
            None => return summarise(resources, &freqs, budget_w),
        }
    }
}

/// Exhaustive search over all discrete frequency combinations with pruning on
/// the power constraint (the resource counts here are tiny, so this is cheap
/// enough offline; the kernel cannot afford the recursion, as the thesis
/// notes).
fn branch_and_bound(resources: &[ResourceLoad], budget_w: f64) -> DistributionResult {
    struct Search<'a> {
        resources: &'a [ResourceLoad],
        budget_w: f64,
        best_cost: f64,
        best_freqs: Option<Vec<Frequency>>,
    }

    impl Search<'_> {
        fn recurse(
            &mut self,
            index: usize,
            chosen: &mut Vec<Frequency>,
            power_so_far: f64,
            cost_so_far: f64,
        ) {
            if power_so_far > self.budget_w + 1e-12 {
                return; // prune: power only grows as we add resources
            }
            if cost_so_far >= self.best_cost {
                return; // prune: cost only grows
            }
            if index == self.resources.len() {
                self.best_cost = cost_so_far;
                self.best_freqs = Some(chosen.clone());
                return;
            }
            let resource = &self.resources[index];
            // Try the highest frequencies first so good solutions are found early.
            for op in resource.opps.points().iter().rev() {
                chosen.push(op.frequency);
                self.recurse(
                    index + 1,
                    chosen,
                    power_so_far + resource.power_at(op.frequency),
                    cost_so_far + resource.cost_at(op.frequency),
                );
                chosen.pop();
            }
        }
    }

    let mut search = Search {
        resources,
        budget_w,
        best_cost: f64::INFINITY,
        best_freqs: None,
    };
    search.recurse(0, &mut Vec::new(), 0.0, 0.0);

    match search.best_freqs {
        Some(freqs) => summarise(resources, &freqs, budget_w),
        // Infeasible: report the all-minimum configuration like the greedy path.
        None => {
            let freqs: Vec<Frequency> = resources
                .iter()
                .map(|r| r.opps.lowest().frequency)
                .collect();
            summarise(resources, &freqs, budget_w)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu_gpu_resources() -> Vec<ResourceLoad> {
        vec![
            ResourceLoad {
                name: "big-cpu".to_owned(),
                performance_weight: 3.0,
                power_coefficient: 0.9,
                opps: OppTable::exynos5410_big(),
            },
            ResourceLoad {
                name: "gpu".to_owned(),
                performance_weight: 1.0,
                power_coefficient: 2.0,
                opps: OppTable::exynos5410_gpu(),
            },
        ]
    }

    #[test]
    fn generous_budget_keeps_everything_at_max() {
        let resources = cpu_gpu_resources();
        for method in [
            DistributionMethod::Greedy,
            DistributionMethod::BranchAndBound,
        ] {
            let result = distribute_budget(&resources, 100.0, method).unwrap();
            assert!(result.feasible);
            assert_eq!(result.frequencies[0].mhz(), 1600);
            assert_eq!(result.frequencies[1].mhz(), 533);
        }
    }

    #[test]
    fn tight_budget_throttles_the_resource_with_the_best_power_per_cost() {
        let resources = cpu_gpu_resources();
        // The CPU dominates the power draw (a³f³ with a ten-fold larger power
        // coefficient at its frequencies), so stepping it down frees far more
        // power per unit of added cost than throttling the tiny GPU.
        let result = distribute_budget(&resources, 3.2, DistributionMethod::Greedy).unwrap();
        assert!(result.feasible);
        assert!(
            result.frequencies[0].mhz() < 1600,
            "CPU should be throttled"
        );
        assert_eq!(result.frequencies[1].mhz(), 533, "GPU spared");
    }

    #[test]
    fn branch_and_bound_never_loses_to_greedy() {
        let resources = cpu_gpu_resources();
        for budget in [0.5, 1.0, 2.0, 3.0, 4.0, 5.0] {
            let greedy = distribute_budget(&resources, budget, DistributionMethod::Greedy).unwrap();
            let optimal =
                distribute_budget(&resources, budget, DistributionMethod::BranchAndBound).unwrap();
            if greedy.feasible && optimal.feasible {
                assert!(
                    optimal.cost <= greedy.cost + 1e-9,
                    "budget {budget}: optimal {} vs greedy {}",
                    optimal.cost,
                    greedy.cost
                );
            }
        }
    }

    #[test]
    fn infeasible_budget_reports_all_minimum() {
        let resources = cpu_gpu_resources();
        let result = distribute_budget(&resources, 0.0, DistributionMethod::Greedy).unwrap();
        assert!(!result.feasible);
        assert_eq!(result.frequencies[0].mhz(), 800);
        assert_eq!(result.frequencies[1].mhz(), 177);
        let bb = distribute_budget(&resources, 0.0, DistributionMethod::BranchAndBound).unwrap();
        assert!(!bb.feasible);
    }

    #[test]
    fn three_resource_distribution_includes_little_cluster() {
        let mut resources = cpu_gpu_resources();
        resources.push(ResourceLoad {
            name: "little-cpu".to_owned(),
            performance_weight: 0.5,
            power_coefficient: 0.15,
            opps: OppTable::exynos5410_little(),
        });
        let result =
            distribute_budget(&resources, 2.5, DistributionMethod::BranchAndBound).unwrap();
        assert!(result.feasible);
        assert_eq!(result.frequencies.len(), 3);
        assert!(result.total_power_w <= 2.5 + 1e-9);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(distribute_budget(&[], 1.0, DistributionMethod::Greedy).is_err());
        let resources = cpu_gpu_resources();
        assert!(distribute_budget(&resources, -1.0, DistributionMethod::Greedy).is_err());
        assert!(distribute_budget(&resources, f64::NAN, DistributionMethod::Greedy).is_err());
    }

    #[test]
    fn cost_decreases_with_larger_budget() {
        let resources = cpu_gpu_resources();
        let small = distribute_budget(&resources, 1.5, DistributionMethod::Greedy).unwrap();
        let large = distribute_budget(&resources, 4.0, DistributionMethod::Greedy).unwrap();
        assert!(large.cost <= small.cost);
        assert!(large.total_power_w >= small.total_power_w);
    }
}
