//! # blueprint-planner
//!
//! The blueprint's two planners (§V-F, §V-G):
//!
//! * the **task planner** — an agent that interprets a user utterance and
//!   produces a [`TaskPlan`]: a DAG whose nodes are sub-tasks assigned to
//!   registry agents with input/output parameters connected (Fig 6);
//! * the **data planner** — invoked by agents and by the task coordinator
//!   to "provide agents with the right data": it decomposes a data
//!   retrieval/transformation request into a [`DataPlan`] over operators
//!   (discover, select, join, extract, summarize, Q2NL, ...) spanning
//!   sources of different modalities, injecting operators where needed —
//!   e.g. routing "cities in the SF bay area" to an LLM-as-data-source and
//!   splicing the answer into a relational query (Fig 7) — and recording
//!   the interchangeable sources of each such operator.
//!
//! A task plan lowers into the unified [`PlanIr`] (see [`ir`]) through one
//! lowering, [`PlanIr::from_task_plan`], which splices the data plan of
//! every `FromData` binding into the input binding of the node that
//! consumes it, where it stays whole. That IR is the single DAG the
//! optimizer searches and the coordinator executes: its joint search,
//! [`PlanIr::optimize`], is the one place a source is picked.

pub mod data_plan;
pub mod data_planner;
pub mod error;
pub mod ir;
pub mod plan;
pub mod task_planner;

pub use data_plan::{DataNode, DataOp, DataPlan};
pub use data_planner::{DataPlanner, ExecutedPlan};
pub use error::PlanError;
pub use ir::{IrAlternative, IrBinding, IrNode, PlanIr, Schedule, TierSwitch};
pub use plan::{InputBinding, PlanEdge, PlanNode, TaskPlan};
pub use task_planner::{PlanFeedback, TaskPlanner};

/// Result alias for planner operations.
pub type Result<T> = std::result::Result<T, PlanError>;
