//! # blueprint-coordinator
//!
//! The task coordinator (§V-H): receives a [`TaskPlan`](blueprint_planner::TaskPlan) DAG with an initial
//! budget and projected costs, initiates agents by streaming instruction
//! messages to them, monitors execution, applies input transformations
//! (invoking the data planner for `FromData` bindings and text→criteria
//! extraction), updates the [`Budget`](blueprint_optimizer::Budget) with actual costs from agent
//! reports, and aborts or replans when thresholds are exceeded.
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
