//! Property-based tests for the optimizer's invariants.

use blueprint_optimizer::{
    optimize_choices, pareto_frontier, select, Budget, Candidate, CostProfile, Objective,
    QosConstraints,
};
use proptest::prelude::*;

fn profile_strategy() -> impl Strategy<Value = CostProfile> {
    (0.0f64..20.0, 0u64..500_000, 0.0f64..1.0).prop_map(|(c, l, a)| CostProfile::new(c, l, a))
}

fn candidates_strategy() -> impl Strategy<Value = Vec<Candidate<usize>>> {
    prop::collection::vec(profile_strategy(), 1..40).prop_map(|ps| {
        ps.into_iter()
            .enumerate()
            .map(|(i, p)| Candidate::new(i, p))
            .collect()
    })
}

fn dominates(a: &CostProfile, b: &CostProfile) -> bool {
    let no_worse = a.cost_per_call <= b.cost_per_call
        && a.latency_micros <= b.latency_micros
        && a.accuracy >= b.accuracy;
    let better = a.cost_per_call < b.cost_per_call
        || a.latency_micros < b.latency_micros
        || a.accuracy > b.accuracy;
    no_worse && better
}

proptest! {
    /// No frontier member is dominated by any candidate.
    #[test]
    fn frontier_members_are_non_dominated(cands in candidates_strategy()) {
        let frontier = pareto_frontier(&cands);
        prop_assert!(!frontier.is_empty());
        for &i in &frontier {
            for (j, other) in cands.iter().enumerate() {
                if i != j {
                    prop_assert!(
                        !dominates(&other.profile, &cands[i].profile),
                        "candidate {j} dominates frontier member {i}"
                    );
                }
            }
        }
    }

    /// Every non-frontier candidate is dominated by someone.
    #[test]
    fn non_frontier_members_are_dominated(cands in candidates_strategy()) {
        let frontier: std::collections::HashSet<usize> =
            pareto_frontier(&cands).into_iter().collect();
        for i in 0..cands.len() {
            if !frontier.contains(&i) {
                let dominated = cands
                    .iter()
                    .enumerate()
                    .any(|(j, other)| j != i && dominates(&other.profile, &cands[i].profile));
                prop_assert!(dominated, "non-frontier candidate {i} is not dominated");
            }
        }
    }

    /// `select` returns a feasible candidate with the minimal score.
    #[test]
    fn select_is_feasible_and_minimal(
        cands in candidates_strategy(),
        max_cost in 0.0f64..25.0,
        min_acc in 0.0f64..1.0,
    ) {
        let constraints = QosConstraints::none()
            .with_max_cost(max_cost)
            .with_min_accuracy(min_acc);
        match select(&cands, Objective::MinCost, &constraints) {
            Some(i) => {
                prop_assert!(constraints.admits(&cands[i].profile));
                for c in &cands {
                    if constraints.admits(&c.profile) {
                        prop_assert!(cands[i].profile.cost_per_call <= c.profile.cost_per_call);
                    }
                }
            }
            None => {
                // Nothing was feasible.
                for c in &cands {
                    prop_assert!(!constraints.admits(&c.profile));
                }
            }
        }
    }

    /// optimize_choices output is always in-bounds and feasible.
    #[test]
    fn assignment_is_valid_and_feasible(
        nodes in prop::collection::vec(prop::collection::vec(profile_strategy(), 1..4), 1..6),
        min_acc in 0.0f64..0.5,
    ) {
        let constraints = QosConstraints::none().with_min_accuracy(min_acc);
        if let Some(choice) = optimize_choices(&nodes, Objective::MinCost, &constraints) {
            prop_assert_eq!(choice.len(), nodes.len());
            let mut total = CostProfile::FREE;
            for (n, &c) in nodes.iter().zip(&choice) {
                prop_assert!(c < n.len());
                total = total.then(&n[c]);
            }
            prop_assert!(constraints.admits(&total));
        }
    }

    /// Sequential composition is associative (within float tolerance).
    #[test]
    fn composition_is_associative(a in profile_strategy(), b in profile_strategy(), c in profile_strategy()) {
        let left = a.then(&b).then(&c);
        let right = a.then(&b.then(&c));
        prop_assert!((left.cost_per_call - right.cost_per_call).abs() < 1e-9);
        prop_assert_eq!(left.latency_micros, right.latency_micros);
        prop_assert!((left.accuracy - right.accuracy).abs() < 1e-9);
    }

    /// Budget: spent totals are monotone under charges, and status never
    /// goes back from Exceeded.
    #[test]
    fn budget_monotonicity(charges in prop::collection::vec((0.0f64..2.0, 0u64..10_000, 0.5f64..1.0), 1..20)) {
        let mut budget = Budget::new(QosConstraints::none().with_max_cost(5.0));
        let mut last_spent = 0.0;
        let mut exceeded_seen = false;
        for (cost, latency, acc) in charges {
            budget.charge(cost, latency, acc);
            prop_assert!(budget.spent_cost >= last_spent);
            last_spent = budget.spent_cost;
            let exceeded = budget.status(&CostProfile::FREE) == blueprint_optimizer::BudgetStatus::Exceeded;
            if exceeded_seen {
                prop_assert!(exceeded, "budget un-exceeded itself");
            }
            exceeded_seen = exceeded;
        }
    }
}
