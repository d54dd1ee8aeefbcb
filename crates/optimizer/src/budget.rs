//! QoS constraints and the runtime budget.
//!
//! The paper's **budget** component keeps "records of the current and
//! projected QoS stats to guide execution \[and\] planning" (§IV). The task
//! coordinator charges actual costs as agent reports arrive and aborts or
//! replans when the actuals together with the projection of the rest of
//! the plan exceed the constraints (§V-H). The ledger records the actuals;
//! the projection is worked out from the running plan at each checkpoint
//! and passed to [`Budget::status`].

use serde::{Deserialize, Serialize};

use blueprint_agents::CostProfile;

/// Hard QoS limits on a task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct QosConstraints {
    /// Maximum total monetary cost (cost units).
    pub max_cost: Option<f64>,
    /// Maximum end-to-end latency in simulated microseconds.
    pub max_latency_micros: Option<u64>,
    /// Minimum acceptable accuracy.
    pub min_accuracy: Option<f64>,
}

impl QosConstraints {
    /// No constraints.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builder-style: caps cost.
    pub fn with_max_cost(mut self, max: f64) -> Self {
        self.max_cost = Some(max);
        self
    }

    /// Builder-style: caps latency.
    pub fn with_max_latency_micros(mut self, max: u64) -> Self {
        self.max_latency_micros = Some(max);
        self
    }

    /// Builder-style: sets an accuracy floor.
    pub fn with_min_accuracy(mut self, min: f64) -> Self {
        self.min_accuracy = Some(min);
        self
    }

    /// True if a profile satisfies every limit.
    pub fn admits(&self, p: &CostProfile) -> bool {
        self.max_cost.is_none_or(|m| p.cost_per_call <= m)
            && self
                .max_latency_micros
                .is_none_or(|m| p.latency_micros <= m)
            && self.min_accuracy.is_none_or(|m| p.accuracy >= m)
    }
}

/// Verdict of a budget check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BudgetStatus {
    /// Within limits, including the projection of the rest of the plan.
    Healthy,
    /// Actuals are within limits but actual+projected exceeds them — the
    /// coordinator should consider replanning (§V-H).
    ProjectedOverrun,
    /// Actuals already exceed a limit — abort.
    Exceeded,
}

/// Runtime QoS ledger for one task execution (or one serving session): the
/// actual spend only. The projection of the rest of the plan belongs to the
/// plan, so the owner of the ledger works it out at each checkpoint and
/// hands it to [`Budget::status`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Budget {
    /// The task's limits.
    pub constraints: QosConstraints,
    /// Cost actually incurred so far.
    pub spent_cost: f64,
    /// Latency actually incurred so far (µs).
    pub spent_latency_micros: u64,
    /// Running accuracy estimate of completed steps (product).
    pub accuracy_so_far: f64,
}

impl Budget {
    /// A fresh budget under the given constraints.
    pub fn new(constraints: QosConstraints) -> Self {
        Budget {
            constraints,
            spent_cost: 0.0,
            spent_latency_micros: 0,
            accuracy_so_far: 1.0,
        }
    }

    /// Charges the actual QoS of one completed step.
    pub fn charge(&mut self, actual_cost: f64, actual_latency_micros: u64, step_accuracy: f64) {
        self.spent_cost += actual_cost.max(0.0);
        self.spent_latency_micros += actual_latency_micros;
        self.accuracy_so_far *= step_accuracy.clamp(0.0, 1.0);
    }

    /// Actuals only, as a profile.
    pub fn actual(&self) -> CostProfile {
        CostProfile {
            cost_per_call: self.spent_cost,
            latency_micros: self.spent_latency_micros,
            accuracy: self.accuracy_so_far,
        }
    }

    /// Checks the ledger against the constraints, with `remaining` the
    /// projected QoS of the steps still to run ([`CostProfile::FREE`] when
    /// nothing is projected).
    pub fn status(&self, remaining: &CostProfile) -> BudgetStatus {
        // Accuracy floors are checked on the projection only: accuracy does
        // not "run out" the way cost does, but a projection below the floor
        // means the plan cannot meet it.
        let actual_over = self
            .constraints
            .max_cost
            .is_some_and(|m| self.spent_cost > m)
            || self
                .constraints
                .max_latency_micros
                .is_some_and(|m| self.spent_latency_micros > m);
        if actual_over {
            return BudgetStatus::Exceeded;
        }
        if !self.constraints.admits(&self.actual().then(remaining)) {
            return BudgetStatus::ProjectedOverrun;
        }
        BudgetStatus::Healthy
    }

    /// Remaining cost headroom (infinite when unconstrained).
    pub fn remaining_cost(&self) -> f64 {
        self.constraints
            .max_cost
            .map(|m| (m - self.spent_cost).max(0.0))
            .unwrap_or(f64::INFINITY)
    }

    /// The constraints that remain for the not-yet-executed plan suffix:
    /// cost/latency caps shrunk by what was already spent, accuracy floor
    /// unchanged. Used by mid-flight re-optimization to re-select data
    /// sources and model tiers under the headroom that is actually left.
    pub fn remaining_constraints(&self) -> QosConstraints {
        QosConstraints {
            max_cost: self
                .constraints
                .max_cost
                .map(|m| (m - self.spent_cost).max(0.0)),
            max_latency_micros: self
                .constraints
                .max_latency_micros
                .map(|m| m.saturating_sub(self.spent_latency_micros)),
            min_accuracy: self.constraints.min_accuracy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraints_admit_matrix() {
        let c = QosConstraints::none()
            .with_max_cost(5.0)
            .with_max_latency_micros(100)
            .with_min_accuracy(0.8);
        assert!(c.admits(&CostProfile::new(5.0, 100, 0.8)));
        assert!(!c.admits(&CostProfile::new(5.1, 100, 0.8)));
        assert!(!c.admits(&CostProfile::new(5.0, 101, 0.8)));
        assert!(!c.admits(&CostProfile::new(5.0, 100, 0.79)));
        assert!(QosConstraints::none().admits(&CostProfile::new(1e9, u64::MAX, 0.0)));
    }

    #[test]
    fn fresh_budget_is_healthy() {
        let b = Budget::new(QosConstraints::none().with_max_cost(1.0));
        assert_eq!(b.status(&CostProfile::FREE), BudgetStatus::Healthy);
        assert_eq!(b.remaining_cost(), 1.0);
    }

    #[test]
    fn charge_accumulates_and_detects_exceeded() {
        let mut b = Budget::new(QosConstraints::none().with_max_cost(1.0));
        b.charge(0.6, 10, 0.95);
        assert_eq!(b.status(&CostProfile::FREE), BudgetStatus::Healthy);
        assert!((b.remaining_cost() - 0.4).abs() < 1e-9);
        b.charge(0.6, 10, 0.95);
        assert_eq!(b.status(&CostProfile::FREE), BudgetStatus::Exceeded);
        assert_eq!(b.remaining_cost(), 0.0);
    }

    #[test]
    fn latency_exceeded() {
        let mut b = Budget::new(QosConstraints::none().with_max_latency_micros(100));
        b.charge(0.0, 101, 1.0);
        assert_eq!(b.status(&CostProfile::FREE), BudgetStatus::Exceeded);
    }

    #[test]
    fn projection_triggers_overrun_before_actuals() {
        let mut b = Budget::new(QosConstraints::none().with_max_cost(1.0));
        b.charge(0.2, 0, 1.0);
        // Spent 0.2 + projected 0.9 = 1.1 > 1.0, but actuals are fine.
        assert_eq!(
            b.status(&CostProfile::new(0.9, 0, 1.0)),
            BudgetStatus::ProjectedOverrun
        );
        // With less of the plan left to run the same ledger is healthy.
        assert_eq!(
            b.status(&CostProfile::new(0.8, 0, 1.0)),
            BudgetStatus::Healthy
        );
        assert_eq!(b.status(&CostProfile::FREE), BudgetStatus::Healthy);
    }

    #[test]
    fn latency_projection_composes_with_spend() {
        let mut b = Budget::new(QosConstraints::none().with_max_latency_micros(300));
        b.charge(0.0, 100, 1.0);
        assert_eq!(
            b.status(&CostProfile::new(0.0, 200, 1.0)),
            BudgetStatus::Healthy
        );
        assert_eq!(
            b.status(&CostProfile::new(0.0, 201, 1.0)),
            BudgetStatus::ProjectedOverrun
        );
    }

    #[test]
    fn accuracy_floor_checked_on_projection() {
        let mut b = Budget::new(QosConstraints::none().with_min_accuracy(0.9));
        b.charge(0.0, 0, 0.85);
        assert_eq!(b.status(&CostProfile::FREE), BudgetStatus::ProjectedOverrun);
        // The projected accuracy multiplies onto the actual one.
        let mut b = Budget::new(QosConstraints::none().with_min_accuracy(0.7));
        b.charge(0.0, 0, 0.9);
        assert_eq!(
            b.status(&CostProfile::new(0.0, 0, 0.8)),
            BudgetStatus::Healthy
        );
        assert_eq!(
            b.status(&CostProfile::new(0.0, 0, 0.75)),
            BudgetStatus::ProjectedOverrun
        );
    }

    #[test]
    fn exceeded_actuals_win_over_any_projection() {
        let mut b = Budget::new(QosConstraints::none().with_max_cost(1.0));
        b.charge(1.5, 0, 1.0);
        assert_eq!(b.status(&CostProfile::FREE), BudgetStatus::Exceeded);
        assert_eq!(
            b.status(&CostProfile::new(5.0, 0, 0.1)),
            BudgetStatus::Exceeded
        );
        let actual = b.actual();
        assert!((actual.cost_per_call - 1.5).abs() < 1e-9);
    }

    #[test]
    fn negative_charges_ignored() {
        let mut b = Budget::new(QosConstraints::none().with_max_cost(1.0));
        b.charge(-5.0, 0, 1.5);
        assert_eq!(b.spent_cost, 0.0);
        assert_eq!(b.accuracy_so_far, 1.0);
    }

    #[test]
    fn remaining_constraints_shrink_with_spend() {
        let mut b = Budget::new(
            QosConstraints::none()
                .with_max_cost(10.0)
                .with_max_latency_micros(1_000)
                .with_min_accuracy(0.8),
        );
        b.charge(4.0, 300, 0.95);
        let rem = b.remaining_constraints();
        assert!((rem.max_cost.unwrap() - 6.0).abs() < 1e-9);
        assert_eq!(rem.max_latency_micros, Some(700));
        assert_eq!(rem.min_accuracy, Some(0.8));
        // Overspend saturates at zero instead of going negative.
        b.charge(100.0, 10_000, 1.0);
        let rem = b.remaining_constraints();
        assert_eq!(rem.max_cost, Some(0.0));
        assert_eq!(rem.max_latency_micros, Some(0));
        // Unconstrained axes stay unconstrained.
        let rem = Budget::new(QosConstraints::none()).remaining_constraints();
        assert_eq!(rem, QosConstraints::none());
    }
}
