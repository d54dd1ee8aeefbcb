//! # blueprint-optimizer
//!
//! Multi-objective optimization over task and data plans (§V-G "Optimization
//! plays a crucial role", §IV "optimizer: performs multi-objective
//! optimization over task and data plans") plus the **budget** component
//! (§IV, §V-H): "records of the current and projected QoS stats to guide
//! execution \[and\] planning".
//!
//! The optimizer works over [`CostProfile`]s (cost, latency, accuracy):
//!
//! * [`pareto_frontier`] — the non-dominated set of candidates;
//! * [`select`] — pick the best feasible candidate under
//!   [`QosConstraints`] for an [`Objective`];
//! * [`optimize_choices`] — assign one option per plan node (e.g. a model
//!   tier per operator), exhaustively for small search spaces and greedily
//!   for large ones;
//! * [`optimize_unified`] — joint Pareto-pruned assignment over the unified
//!   plan IR's choice points (model tiers on agent nodes *and* parametric
//!   sources on data operators in one search space);
//! * [`Budget`] — the runtime ledger of actual QoS, plain data with one
//!   owner (a task's event loop, or a serving session's lane). Its
//!   [`Budget::status`] checks the actuals together with a projection of
//!   the rest of the plan that the caller works out when it checks.

pub mod budget;
pub mod objective;
pub mod pareto;
pub mod unified;

pub use budget::{Budget, BudgetStatus, QosConstraints};
pub use objective::Objective;
pub use pareto::{optimize_choices, pareto_frontier, select, Candidate};
pub use unified::{optimize_unified, ChoicePoint, UnifiedSelection};

pub use blueprint_agents::CostProfile;
