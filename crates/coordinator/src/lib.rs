//! # blueprint-coordinator
//!
//! The task coordinator (§V-H): receives a [`TaskPlan`](blueprint_planner::TaskPlan) DAG under QoS
//! constraints, initiates agents by streaming instruction messages to them,
//! monitors execution, applies input transformations (the data planner's
//! plans for `FromData` bindings and for text→criteria extraction, both
//! spliced into the IR), updates the [`Budget`](blueprint_optimizer::Budget) with actual costs from agent
//! reports, and aborts or replans when the actuals together with the
//! projection of the rest of the running plan exceed the constraints. The
//! ledger has one owner, the execution's event loop; the projection is
//! composed from the estimates of the nodes that have not settled yet at
//! each checkpoint, so a replan checkpoints against its own plan.
//!
//! [`TaskCoordinator::execute`] is the one entry point. It lowers every
//! plan — internal replans included — into the unified
//! [`PlanIr`](blueprint_planner::PlanIr) with each `FromData` binding's data
//! plan spliced into the binding, and runs that IR: a spliced plan executes
//! in place when its node resolves its inputs. With
//! [`TaskCoordinator::with_adaptive`] the coordinator re-optimizes the
//! pending IR suffix once when observed spend drifts past the given factor
//! of the estimate.

pub mod coordinator;
pub mod daemon;
pub mod memo;
mod scheduler;

pub use coordinator::{
    CacheSavings, ExecutionError, ExecutionReport, NodeResult, Outcome, OverrunPolicy,
    ReoptimizationNote, SchedulerMode, TaskCoordinator,
};
pub use daemon::CoordinatorDaemon;
pub use memo::{MemoCache, MemoEntry, MemoStats};
