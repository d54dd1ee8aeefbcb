//! The unified **plan IR**: one typed DAG for agent invocations and data
//! operators.
//!
//! The paper treats task plans (§V-F, Fig 6) and data plans (§V-G, Fig 7)
//! as one composable artifact — a data plan is *spliced* into the task plan
//! as an input transformation, and the optimizer picks operators and model
//! tiers over the whole composite DAG. This module is that artifact:
//!
//! * [`PlanIr::from_task_plan`] is the one lowering of a [`TaskPlan`]: it
//!   splices a data plan into every `FromData` binding via the
//!   [`DataPlanner`]'s routing, annotating `Knowledge` operators with their
//!   interchangeable parametric sources. A binding the planner cannot plan
//!   stays in the IR as [`IrBinding::Unplanned`], carrying the error its
//!   node fails with when dispatched. [`PlanIr::lower_spliced`] is the same
//!   lowering with a data planner at hand;
//! * [`PlanIr::from_data_plan`] lowers a standalone [`DataPlan`];
//! * [`PlanIr::optimize`] runs the optimizer's joint Pareto-pruned search
//!   over every choice point (model tiers *and* data sources) at once;
//! * [`PlanIr::reoptimize_pending`] is the bounded mid-flight pass the
//!   coordinator triggers when observed cost drifts past its estimate.

use std::collections::{BTreeMap, HashSet};

use serde::{Deserialize, Serialize};
use serde_json::Value;

use blueprint_agents::CostProfile;
use blueprint_datastore::CostEstimate;
use blueprint_optimizer::{
    optimize_unified, select, Candidate, ChoicePoint, Objective, QosConstraints,
};

use crate::data_plan::{DataNode, DataOp, DataPlan};
use crate::data_planner::DataPlanner;
use crate::error::PlanError;
use crate::plan::{index_edges, topo_sort, InputBinding, TaskPlan};
use crate::Result;

/// Where an IR node's input comes from. Mirrors [`InputBinding`], with each
/// `FromData` binding lowered to [`IrBinding::Spliced`] or
/// [`IrBinding::Unplanned`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IrBinding {
    /// The original user utterance.
    FromUser,
    /// The named output of an upstream agent node.
    FromNode {
        /// Producing node id.
        node: String,
        /// Output parameter name on that node's agent.
        output: String,
    },
    /// A constant.
    Literal(Value),
    /// A `FromData` binding the lowering could not plan (no data planner,
    /// or the planner's error). Lowering succeeds; resolving the binding
    /// fails its node with `error` when the node is dispatched.
    Unplanned {
        /// Natural-language description of the data needed.
        query: String,
        /// Why no data plan could be spliced.
        error: String,
    },
    /// Satisfied by the inlined data-operator subgraph owned by this
    /// `(node, slot)`; `output` names the subgraph's result node.
    Spliced {
        /// Result node id of the inlined data plan.
        output: String,
        /// The original `FromData` query (kept for replanning and display).
        query: String,
    },
}

/// What an IR node *is*.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IrKind {
    /// Invoke a registry agent.
    AgentInvocation {
        /// Agent name.
        agent: String,
        /// The sub-task description this node covers.
        task: String,
    },
    /// Execute a data operator (from a spliced or standalone data plan).
    /// The full [`DataNode`] is embedded so the coordinator reconstructs the
    /// owning sub-plan byte-for-byte.
    DataOperator {
        /// The operator instance, including its slot wiring and estimate.
        node: DataNode,
        /// `(agent node id, input slot)` this operator was spliced under;
        /// `None` for standalone data-plan lowerings.
        owner: Option<(String, String)>,
    },
}

/// One interchangeable implementation of a node (a model tier for an LLM
/// node, a parametric source for a `Knowledge` operator).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IrAlternative {
    /// Human-level tier label (e.g. `sim-large`).
    pub tier: String,
    /// Concrete target to substitute (source name or agent name).
    pub target: String,
    /// Estimated QoS of choosing it.
    pub profile: CostProfile,
}

/// Per-node QoS annotation: the current estimate plus the alternatives the
/// optimizer may swap in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IrQos {
    /// Estimated QoS of the currently selected implementation.
    pub profile: CostProfile,
    /// Tier label of the current selection, when tiered.
    pub tier: Option<String>,
    /// Interchangeable implementations (empty when the node is fixed).
    pub alternatives: Vec<IrAlternative>,
}

impl IrQos {
    fn fixed(profile: CostProfile) -> Self {
        IrQos {
            profile,
            tier: None,
            alternatives: Vec::new(),
        }
    }
}

/// One node of the unified plan IR.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IrNode {
    /// Node id, unique across the whole IR.
    pub id: String,
    /// Agent invocation or data operator.
    pub kind: IrKind,
    /// Input bindings (agent nodes; data operators carry their wiring in
    /// the embedded [`DataNode`], mirrored here for rendering).
    pub inputs: BTreeMap<String, IrBinding>,
    /// QoS annotation.
    pub qos: IrQos,
}

impl IrNode {
    /// True for agent-invocation nodes.
    pub fn is_agent(&self) -> bool {
        matches!(self.kind, IrKind::AgentInvocation { .. })
    }

    /// The agent name and task, for agent-invocation nodes.
    pub fn agent(&self) -> Option<(&str, &str)> {
        match &self.kind {
            IrKind::AgentInvocation { agent, task } => Some((agent, task)),
            _ => None,
        }
    }

    /// The implementation currently selected at this node: the agent name,
    /// a `Knowledge` operator's source, or the node id for other operators.
    fn current_target(&self) -> String {
        match &self.kind {
            IrKind::AgentInvocation { agent, .. } => agent.clone(),
            IrKind::DataOperator { node, .. } => match &node.op {
                DataOp::Knowledge { source } => source.clone(),
                _ => self.id.clone(),
            },
        }
    }
}

/// A mid-flight tier switch applied by [`PlanIr::reoptimize_pending`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierSwitch {
    /// The IR node whose implementation changed.
    pub node: String,
    /// Tier label before the switch.
    pub from: String,
    /// Tier label after the switch.
    pub to: String,
}

/// Maps a parametric-source name to the model tier that backs it
/// (`gpt-large` → `sim-large`, matching the runtime's source naming).
fn tier_label(target: &str) -> String {
    match target.strip_prefix("gpt-") {
        Some(suffix) => format!("sim-{suffix}"),
        None => target.to_string(),
    }
}

/// The agent nodes of a [`PlanIr`] in execution order, from
/// [`PlanIr::schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Agent node ids in topological order.
    pub order: Vec<String>,
    /// One `(from, to)` edge per `FromNode` binding, as indices into
    /// `order`.
    pub edges: Vec<(usize, usize)>,
}

/// The unified plan IR: one DAG reaching the optimizer and the coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanIr {
    /// Unique task id (from the lowered task plan).
    pub task_id: String,
    /// The user utterance this plan serves.
    pub goal: String,
    /// Nodes in insertion order: agent nodes in task-plan order, then
    /// spliced data operators.
    pub nodes: Vec<IrNode>,
    /// Objective the plan was optimized for.
    pub objective: Objective,
    /// QoS constraints the plan must satisfy.
    pub constraints: QosConstraints,
}

impl PlanIr {
    /// Lowers a task plan into IR — the one lowering every execution takes.
    /// Each `FromData` binding gets its data plan from `dp`'s routing,
    /// spliced under the owning node with the interchangeable parametric
    /// sources of its `Knowledge` operators as alternatives; one it cannot
    /// plan (or every one, without a data planner) becomes
    /// [`IrBinding::Unplanned`]. The IR carries the data planner's
    /// objective and constraints so the optimizer and coordinator work from
    /// the same QoS contract. Errors only on a structurally invalid plan.
    pub fn from_task_plan(plan: &TaskPlan, dp: Option<&DataPlanner>) -> Result<PlanIr> {
        plan.validate()?;
        let mut ir = PlanIr {
            task_id: plan.task_id.clone(),
            goal: plan.utterance.clone(),
            nodes: Vec::with_capacity(plan.nodes.len()),
            objective: dp.map_or_else(Objective::balanced, DataPlanner::objective),
            constraints: dp.map_or_else(QosConstraints::none, DataPlanner::constraints),
        };
        // Agent nodes in insertion order, slots in BTreeMap order: the
        // splice order (and therefore data-node id allocation) is
        // deterministic.
        let mut data_nodes = Vec::new();
        for n in &plan.nodes {
            let mut inputs = BTreeMap::new();
            for (slot, b) in &n.inputs {
                let binding = match b {
                    InputBinding::FromUser => IrBinding::FromUser,
                    InputBinding::FromNode { node, output } => IrBinding::FromNode {
                        node: node.clone(),
                        output: output.clone(),
                    },
                    InputBinding::Literal(v) => IrBinding::Literal(v.clone()),
                    InputBinding::FromData { query } => {
                        let owner = (n.id.clone(), slot.clone());
                        lower_data_binding(query, owner, &plan.utterance, dp, &mut data_nodes)
                    }
                };
                inputs.insert(slot.clone(), binding);
            }
            ir.nodes.push(IrNode {
                id: n.id.clone(),
                kind: IrKind::AgentInvocation {
                    agent: n.agent.clone(),
                    task: n.task.clone(),
                },
                inputs,
                qos: IrQos::fixed(n.profile),
            });
        }
        ir.nodes.extend(data_nodes);
        Ok(ir)
    }

    /// [`PlanIr::from_task_plan`] with a data planner: the spliced lowering
    /// of Figs 6–7.
    pub fn lower_spliced(plan: &TaskPlan, dp: &DataPlanner) -> Result<PlanIr> {
        Self::from_task_plan(plan, Some(dp))
    }

    /// Lowers a standalone data plan into IR (one `DataOperator` node per
    /// operator, no owner). Used by the Fig 7 regenerator to show that both
    /// figures are one artifact.
    pub fn from_data_plan(plan: &DataPlan) -> PlanIr {
        let nodes = plan.nodes.iter().map(|n| data_ir_node(n, None)).collect();
        PlanIr {
            task_id: "data".into(),
            goal: plan.request.clone(),
            nodes,
            objective: Objective::balanced(),
            constraints: QosConstraints::none(),
        }
    }

    /// Node lookup.
    pub fn node(&self, id: &str) -> Option<&IrNode> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// Agent-invocation nodes in insertion order.
    pub fn agent_nodes(&self) -> impl Iterator<Item = &IrNode> {
        self.nodes.iter().filter(|n| n.is_agent())
    }

    /// The agent nodes' execution schedule: their ids in topological order
    /// (insertion order breaks ties, exactly like [`TaskPlan::topo_order`],
    /// so a lowered plan schedules identically to its source) and the
    /// dataflow edges between them. Errors on cycles and unknown upstream
    /// nodes.
    pub fn schedule(&self) -> Result<Schedule> {
        let ids: Vec<&str> = self.agent_nodes().map(|n| n.id.as_str()).collect();
        let edges = self.agent_nodes().flat_map(|n| {
            n.inputs.values().filter_map(|b| match b {
                IrBinding::FromNode { node, .. } => Some((node.as_str(), n.id.as_str())),
                _ => None,
            })
        });
        let pairs = index_edges(&ids, edges)?;
        let order = topo_sort(ids.len(), &pairs)?;
        let mut rank = vec![0; order.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }
        Ok(Schedule {
            order: order.iter().map(|&i| ids[i].to_string()).collect(),
            edges: pairs.iter().map(|&(f, t)| (rank[f], rank[t])).collect(),
        })
    }

    /// Validates the whole IR: unique ids, known references, acyclic agent
    /// DAG, spliced bindings resolvable.
    pub fn validate(&self) -> Result<()> {
        let mut ids = HashSet::new();
        for n in &self.nodes {
            if !ids.insert(n.id.as_str()) {
                return Err(PlanError::InvalidPlan(format!(
                    "duplicate node id: {}",
                    n.id
                )));
            }
            if let IrKind::DataOperator { node, .. } = &n.kind {
                if node.id != n.id {
                    return Err(PlanError::InvalidPlan(format!(
                        "data operator {} embeds mismatched node {}",
                        n.id, node.id
                    )));
                }
            }
        }
        let agent_ids: HashSet<&str> = self.agent_nodes().map(|n| n.id.as_str()).collect();
        for n in self.agent_nodes() {
            for (slot, b) in &n.inputs {
                match b {
                    IrBinding::FromNode { node, .. } => {
                        if !agent_ids.contains(node.as_str()) {
                            return Err(PlanError::InvalidPlan(format!(
                                "node {} references unknown node {node}",
                                n.id
                            )));
                        }
                        if node == &n.id {
                            return Err(PlanError::InvalidPlan(format!(
                                "node {} depends on itself",
                                n.id
                            )));
                        }
                    }
                    IrBinding::Spliced { output, .. } => {
                        let sub = self.data_subplan(&n.id, slot).ok_or_else(|| {
                            PlanError::InvalidPlan(format!(
                                "spliced binding {}.{slot} has no data nodes",
                                n.id
                            ))
                        })?;
                        if sub.node(output).is_none() {
                            return Err(PlanError::InvalidPlan(format!(
                                "spliced binding {}.{slot} output {output} not in subplan",
                                n.id
                            )));
                        }
                    }
                    _ => {}
                }
            }
        }
        self.schedule().map(|_| ())
    }

    /// Projected QoS of the plan: composes the *agent* nodes in insertion
    /// order, exactly like [`TaskPlan::projected_profile`]. Data operators
    /// are charged from actuals when their owner resolves inputs — the same
    /// accounting as the legacy path, so lowered plans budget identically.
    pub fn projected_profile(&self) -> CostProfile {
        self.agent_nodes()
            .fold(CostProfile::FREE, |acc, n| acc.then(&n.qos.profile))
    }

    /// Reconstructs the data plan spliced under `(owner, slot)`:
    /// the owned operators in insertion order with the recorded output.
    /// Byte-identical to the plan that was spliced in.
    pub fn data_subplan(&self, owner: &str, slot: &str) -> Option<DataPlan> {
        let IrBinding::Spliced { output, query } = self.node(owner)?.inputs.get(slot)? else {
            return None;
        };
        let nodes: Vec<DataNode> = self
            .nodes
            .iter()
            .filter_map(|n| match &n.kind {
                IrKind::DataOperator {
                    node,
                    owner: Some((o, s)),
                } if o == owner && s == slot => Some(node.clone()),
                _ => None,
            })
            .collect();
        if nodes.is_empty() {
            return None;
        }
        Some(DataPlan {
            request: query.clone(),
            nodes,
            output: output.clone(),
        })
    }

    /// Every optimizable position in the IR as a [`ChoicePoint`]: nodes
    /// with alternatives offer them all; fixed nodes offer exactly their
    /// current profile, so the composed feasibility check covers the whole
    /// plan.
    pub fn choice_points(&self) -> Vec<ChoicePoint<String>> {
        self.nodes
            .iter()
            .map(|n| {
                let options = if n.qos.alternatives.is_empty() {
                    vec![Candidate::new(n.current_target(), n.qos.profile)]
                } else {
                    n.qos
                        .alternatives
                        .iter()
                        .map(|a| Candidate::new(a.target.clone(), a.profile))
                        .collect()
                };
                ChoicePoint::new(n.id.clone(), options)
            })
            .collect()
    }

    /// Runs the optimizer's joint Pareto-pruned search over every choice
    /// point — model tiers on LLM nodes and source choices on data
    /// operators in one space — and applies the winning assignment.
    /// Returns the composed QoS of the chosen plan, or `None` when no
    /// feasible assignment exists (the IR is left unchanged).
    pub fn optimize(
        &mut self,
        objective: Objective,
        constraints: &QosConstraints,
    ) -> Option<CostProfile> {
        let points = self.choice_points();
        let selection = optimize_unified(&points, objective, constraints)?;
        for (point, &pick) in points.iter().zip(&selection.assignment) {
            let target = &point.options[pick].item;
            self.apply_alternative(&point.node, target);
        }
        self.objective = objective;
        self.constraints = *constraints;
        Some(selection.composed)
    }

    /// Re-selects the implementation of data operators owned by
    /// still-pending agent nodes, under the given objective and (typically
    /// tightened) constraints. Used by the coordinator's bounded mid-flight
    /// re-optimization; nodes already executed are never touched. Returns
    /// the switches applied, in insertion order.
    pub fn reoptimize_pending(
        &mut self,
        pending: &HashSet<String>,
        objective: Objective,
        constraints: &QosConstraints,
    ) -> Vec<TierSwitch> {
        let mut plans: Vec<(usize, String)> = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let owned_by_pending = matches!(
                &n.kind,
                IrKind::DataOperator { owner: Some((o, _)), .. } if pending.contains(o)
            );
            if !owned_by_pending || n.qos.alternatives.len() < 2 {
                continue;
            }
            let cands: Vec<Candidate<String>> = n
                .qos
                .alternatives
                .iter()
                .map(|a| Candidate::new(a.target.clone(), a.profile))
                .collect();
            let Some(idx) = select(&cands, objective, constraints) else {
                continue;
            };
            let target = cands[idx].item.clone();
            if target != n.current_target() {
                plans.push((i, target));
            }
        }
        let mut switches = Vec::new();
        for (i, target) in plans {
            let id = self.nodes[i].id.clone();
            let from = self.nodes[i]
                .qos
                .tier
                .clone()
                .unwrap_or_else(|| tier_label(&self.nodes[i].current_target()));
            if self.apply_alternative(&id, &target) {
                switches.push(TierSwitch {
                    node: id,
                    from,
                    to: tier_label(&target),
                });
            }
        }
        switches
    }

    /// Swaps a node's implementation to the alternative named `target`.
    /// Returns false when the node or alternative doesn't exist (or the
    /// target is already selected with no alternative entry).
    pub fn apply_alternative(&mut self, node_id: &str, target: &str) -> bool {
        let Some(n) = self.nodes.iter_mut().find(|n| n.id == node_id) else {
            return false;
        };
        if n.current_target() == target {
            return true;
        }
        let Some(alt) = n
            .qos
            .alternatives
            .iter()
            .find(|a| a.target == target)
            .cloned()
        else {
            return false;
        };
        match &mut n.kind {
            IrKind::AgentInvocation { agent, .. } => *agent = alt.target.clone(),
            IrKind::DataOperator { node, .. } => {
                if let DataOp::Knowledge { source } = &mut node.op {
                    *source = alt.target.clone();
                }
                node.estimate = CostEstimate {
                    cost_units: alt.profile.cost_per_call,
                    latency_micros: alt.profile.latency_micros,
                    accuracy: alt.profile.accuracy,
                };
            }
        }
        n.qos.profile = alt.profile;
        n.qos.tier = Some(alt.tier);
        true
    }

    /// Renders the IR as text: agent nodes in order with their spliced data
    /// operators indented beneath, then standalone operators.
    ///
    /// ```text
    /// plan-ir t1: "I am looking for a data scientist position in SF bay area."
    ///   n1 PROFILER(text ← user)
    ///   n2 JOB-MATCHER(job_seeker_data ← n1.profile, jobs ← splice(d4))
    ///     ↳ d1 q2nl("city ∈ \"sf bay area\"")
    ///     ↳ d2 knowledge[gpt-large] (question ← d1) ~tier sim-large
    ///   n3 PRESENTER(content ← n2.matches)
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = format!("plan-ir {}: \"{}\"\n", self.task_id, self.goal);
        let render_data = |n: &IrNode, node: &DataNode, indent: &str, out: &mut String| {
            let wiring = if node.inputs.is_empty() {
                String::new()
            } else {
                let parts: Vec<String> = node
                    .inputs
                    .iter()
                    .map(|(slot, dep)| format!("{slot} ← {dep}"))
                    .collect();
                format!(" ({})", parts.join(", "))
            };
            let tier = n
                .qos
                .tier
                .as_ref()
                .map(|t| format!(" ~tier {t}"))
                .unwrap_or_default();
            out.push_str(&format!(
                "{indent}{} {}{}{}\n",
                n.id,
                node.op.detail(),
                wiring,
                tier
            ));
        };
        for n in self.agent_nodes() {
            let (agent, _) = n.agent().expect("agent node");
            let inputs: Vec<String> = n
                .inputs
                .iter()
                .map(|(p, b)| match b {
                    IrBinding::FromUser => format!("{p} ← user"),
                    IrBinding::FromNode { node, output } => format!("{p} ← {node}.{output}"),
                    IrBinding::Literal(v) => format!("{p} ← {v}"),
                    IrBinding::Unplanned { query, .. } => format!("{p} ← data(\"{query}\")"),
                    IrBinding::Spliced { output, .. } => format!("{p} ← splice({output})"),
                })
                .collect();
            out.push_str(&format!(
                "  {} {}({})\n",
                n.id,
                agent.to_uppercase(),
                inputs.join(", ")
            ));
            for d in &self.nodes {
                if let IrKind::DataOperator {
                    node,
                    owner: Some((o, _)),
                } = &d.kind
                {
                    if o == &n.id {
                        render_data(d, node, "    ↳ ", &mut out);
                    }
                }
            }
        }
        for d in &self.nodes {
            if let IrKind::DataOperator { node, owner: None } = &d.kind {
                render_data(d, node, "  ", &mut out);
            }
        }
        out
    }
}

/// Lowers one `FromData` binding of `owner = (node, slot)`: plans it through
/// `dp` and appends the plan's operators to `data_nodes` (each `Knowledge`
/// operator carrying its interchangeable sources as alternatives), or
/// records why it could not be planned.
fn lower_data_binding(
    query: &str,
    owner: (String, String),
    utterance: &str,
    dp: Option<&DataPlanner>,
    data_nodes: &mut Vec<IrNode>,
) -> IrBinding {
    let Some(dp) = dp else {
        return IrBinding::Unplanned {
            query: query.to_string(),
            error: format!("no data planner to satisfy: {query}"),
        };
    };
    let dplan = match dp
        .plan_for_binding(query, utterance)
        .and_then(|d| d.validate().map(|()| d))
    {
        Ok(dplan) => dplan,
        Err(e) => {
            return IrBinding::Unplanned {
                query: query.to_string(),
                error: e.to_string(),
            }
        }
    };
    let alternatives = dp.knowledge_alternatives(&dplan);
    for dn in &dplan.nodes {
        let mut ir_node = data_ir_node(dn, Some(owner.clone()));
        if let Some((_, options)) = alternatives.iter().find(|(id, _)| id == &dn.id) {
            ir_node.qos.alternatives = options
                .iter()
                .map(|c| IrAlternative {
                    tier: tier_label(&c.item),
                    target: c.item.clone(),
                    profile: c.profile,
                })
                .collect();
        }
        data_nodes.push(ir_node);
    }
    IrBinding::Spliced {
        output: dplan.output,
        query: query.to_string(),
    }
}

/// Converts one data-plan node into its IR form.
fn data_ir_node(dn: &DataNode, owner: Option<(String, String)>) -> IrNode {
    let inputs = dn
        .inputs
        .iter()
        .map(|(slot, dep)| {
            (
                slot.clone(),
                IrBinding::FromNode {
                    node: dep.clone(),
                    output: "value".to_string(),
                },
            )
        })
        .collect();
    let tier = match &dn.op {
        DataOp::Knowledge { source } => Some(tier_label(source)),
        _ => None,
    };
    IrNode {
        id: dn.id.clone(),
        kind: IrKind::DataOperator {
            node: dn.clone(),
            owner,
        },
        inputs,
        qos: IrQos {
            profile: CostProfile::new(
                dn.estimate.cost_units,
                dn.estimate.latency_micros,
                dn.estimate.accuracy,
            ),
            tier,
            alternatives: Vec::new(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use serde_json::json;

    use blueprint_datastore::{GraphSource, PropertyGraph, RelationalDb, RelationalSource};
    use blueprint_llmsim::{ModelProfile, ParametricSource, SimLlm};
    use blueprint_registry::DataRegistry;

    use crate::plan::PlanNode;

    const RUNNING_EXAMPLE: &str = "I am looking for a data scientist position in SF bay area.";

    fn chain() -> TaskPlan {
        let mut plan = TaskPlan::new("t1", RUNNING_EXAMPLE);
        let mut n1 = PlanNode {
            id: "n1".into(),
            agent: "profiler".into(),
            task: "collect the profile".into(),
            inputs: BTreeMap::new(),
            profile: CostProfile::new(1.0, 1_000, 0.9),
        };
        n1.inputs.insert("text".into(), InputBinding::FromUser);
        let mut n2 = PlanNode {
            id: "n2".into(),
            agent: "job-matcher".into(),
            task: "match jobs".into(),
            inputs: BTreeMap::new(),
            profile: CostProfile::new(2.0, 2_000, 0.95),
        };
        n2.inputs.insert(
            "job_seeker_data".into(),
            InputBinding::FromNode {
                node: "n1".into(),
                output: "profile".into(),
            },
        );
        n2.inputs.insert(
            "jobs".into(),
            InputBinding::FromData {
                query: "available job listings".into(),
            },
        );
        let mut plan_nodes = vec![n1, n2];
        for n in plan_nodes.drain(..) {
            plan.push(n);
        }
        plan
    }

    fn jobs_db() -> Arc<RelationalDb> {
        let db = Arc::new(RelationalDb::new());
        db.execute("CREATE TABLE jobs (id INT, title TEXT, city TEXT)")
            .unwrap();
        db.execute(
            "INSERT INTO jobs VALUES \
             (1, 'data scientist', 'san francisco'), \
             (2, 'machine learning engineer', 'oakland'), \
             (3, 'data scientist', 'new york')",
        )
        .unwrap();
        db
    }

    fn taxonomy() -> Arc<PropertyGraph> {
        let g = Arc::new(PropertyGraph::new());
        for (id, name) in [
            ("data-scientist", "data scientist"),
            ("machine-learning-engineer", "machine learning engineer"),
        ] {
            g.add_node(id, "title", json!({"name": name})).unwrap();
        }
        g.add_edge("machine-learning-engineer", "data-scientist", "related_to")
            .unwrap();
        g
    }

    fn data_planner() -> DataPlanner {
        let llm = Arc::new(SimLlm::new(ModelProfile::large()));
        let mut dp = DataPlanner::new(Arc::new(DataRegistry::new()), Arc::clone(&llm));
        dp.add_source(Arc::new(RelationalSource::new("hr-db", jobs_db())));
        dp.add_source(Arc::new(GraphSource::new("title-taxonomy", taxonomy())));
        dp.add_source(Arc::new(ParametricSource::new("gpt-large", llm)));
        dp.add_source(Arc::new(ParametricSource::new(
            "gpt-small",
            Arc::new(SimLlm::new(ModelProfile::small())),
        )));
        dp
    }

    #[test]
    fn lowering_preserves_structure_and_profile() {
        let plan = chain();
        let ir = PlanIr::from_task_plan(&plan, None).unwrap();
        ir.validate().unwrap();
        let schedule = ir.schedule().unwrap();
        assert_eq!(schedule.order, plan.topo_order().unwrap());
        assert_eq!(schedule.edges, [(0, 1)]);
        let a = ir.projected_profile();
        let b = plan.projected_profile();
        assert_eq!(a.cost_per_call.to_bits(), b.cost_per_call.to_bits());
        assert_eq!(a.latency_micros, b.latency_micros);
        assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        assert_eq!(ir.agent_nodes().count(), 2);
    }

    #[test]
    fn splice_rewires_binding_and_reconstructs_byte_identical_subplan() {
        let plan = chain();
        // Two identical planners allocate identical data-node ids: one
        // lowers, the other plans the binding directly as the reference.
        let ir = PlanIr::lower_spliced(&plan, &data_planner()).unwrap();
        let dplan = data_planner()
            .plan_for_binding("available job listings", RUNNING_EXAMPLE)
            .unwrap();
        ir.validate().unwrap();
        assert!(matches!(
            ir.node("n2").unwrap().inputs.get("jobs"),
            Some(IrBinding::Spliced { .. })
        ));
        let back = ir.data_subplan("n2", "jobs").unwrap();
        assert_eq!(back.nodes, dplan.nodes);
        assert_eq!(back.output, dplan.output);
        // Knowledge node carries both parametric tiers as alternatives.
        let know = ir
            .nodes
            .iter()
            .find(|n| {
                matches!(&n.kind, IrKind::DataOperator { node, .. }
                if matches!(node.op, DataOp::Knowledge { .. }))
            })
            .unwrap();
        let tiers: Vec<&str> = know
            .qos
            .alternatives
            .iter()
            .map(|a| a.tier.as_str())
            .collect();
        assert_eq!(tiers, ["sim-large", "sim-small"]);
    }

    #[test]
    fn lower_spliced_handles_every_from_data_binding() {
        let plan = chain();
        let dp = data_planner();
        let ir = PlanIr::lower_spliced(&plan, &dp).unwrap();
        ir.validate().unwrap();
        assert!(ir.nodes.iter().any(
            |n| matches!(&n.kind, IrKind::DataOperator { owner: Some((o, s)), .. }
                if o == "n2" && s == "jobs")
        ));
        assert!(!ir.agent_nodes().any(|n| n
            .inputs
            .values()
            .any(|b| matches!(b, IrBinding::Unplanned { .. }))));
    }

    #[test]
    fn unplannable_bindings_carry_the_error() {
        let mut plan = chain();
        plan.nodes[1].inputs.insert(
            "jobs".into(),
            InputBinding::FromData {
                query: "candidate profiles".into(),
            },
        );
        let unplanned = |ir: &PlanIr| match ir.node("n2").unwrap().inputs.get("jobs") {
            Some(IrBinding::Unplanned { error, .. }) => error.clone(),
            other => panic!("expected an unplanned binding, got {other:?}"),
        };
        // No document source to route the query to: lowering still
        // succeeds and records the planner's own error text.
        let dp = data_planner();
        let ir = PlanIr::lower_spliced(&plan, &dp).unwrap();
        ir.validate().unwrap();
        assert_eq!(
            unplanned(&ir),
            dp.plan_for_binding("candidate profiles", RUNNING_EXAMPLE)
                .unwrap_err()
                .to_string()
        );
        assert!(ir.nodes.iter().all(|n| n.is_agent()));
        // Without a data planner every data binding is unplanned.
        let ir = PlanIr::from_task_plan(&chain(), None).unwrap();
        assert_eq!(
            unplanned(&ir),
            "no data planner to satisfy: available job listings"
        );
        // Only a structurally invalid plan fails the lowering itself.
        let mut cyclic = chain();
        cyclic.nodes[0].inputs.insert(
            "text".into(),
            InputBinding::FromNode {
                node: "n2".into(),
                output: "matches".into(),
            },
        );
        assert!(PlanIr::from_task_plan(&cyclic, None).is_err());
    }

    #[test]
    fn unified_optimize_switches_source_under_accuracy_floor() {
        let plan = chain();
        let mut dp = data_planner();
        dp.set_objective(Objective::MinCost);
        let mut ir = PlanIr::lower_spliced(&plan, &dp).unwrap();
        // Cost-min picks the small tier...
        let composed = ir.optimize(Objective::MinCost, &QosConstraints::none());
        assert!(composed.is_some());
        let know = |ir: &PlanIr| {
            ir.nodes
                .iter()
                .find_map(|n| match &n.kind {
                    IrKind::DataOperator { node, .. } => match &node.op {
                        DataOp::Knowledge { source } => Some(source.clone()),
                        _ => None,
                    },
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(know(&ir), "gpt-small");
        // ...an accuracy floor over the *composed* plan forces the large
        // tier back in (agent nodes 0.9·0.95 × data accuracies).
        let floor = QosConstraints::none().with_min_accuracy(0.82);
        ir.optimize(Objective::MinCost, &floor).unwrap();
        assert_eq!(know(&ir), "gpt-large");
        assert_eq!(
            ir.node("d2").unwrap().qos.tier.as_deref(),
            Some("sim-large")
        );
    }

    #[test]
    fn reoptimize_pending_only_touches_pending_owners() {
        let plan = chain();
        let dp = data_planner();
        let mut ir = PlanIr::lower_spliced(&plan, &dp).unwrap();
        // Pin the knowledge operator to the large tier so the downgrade is
        // observable regardless of what the planner picked by default.
        let know_id = ir
            .nodes
            .iter()
            .find_map(|n| match &n.kind {
                IrKind::DataOperator { node, .. }
                    if matches!(node.op, DataOp::Knowledge { .. }) =>
                {
                    Some(n.id.clone())
                }
                _ => None,
            })
            .unwrap();
        assert!(ir.apply_alternative(&know_id, "gpt-large"));
        assert_eq!(
            ir.node(&know_id).unwrap().qos.tier.as_deref(),
            Some("sim-large")
        );
        // Under a tight latency cap the large tier is infeasible per-node.
        let tight = QosConstraints::none().with_max_latency_micros(200_000);
        // Nothing pending → nothing switches.
        let none = ir
            .clone()
            .reoptimize_pending(&HashSet::new(), Objective::MinLatency, &tight);
        assert!(none.is_empty());
        // n2 pending → its knowledge operator downgrades to the small tier.
        let pending: HashSet<String> = ["n2".to_string()].into();
        let switches = ir.reoptimize_pending(&pending, Objective::MinLatency, &tight);
        assert_eq!(switches.len(), 1);
        assert_eq!(switches[0].from, "sim-large");
        assert_eq!(switches[0].to, "sim-small");
        let sub = ir.data_subplan("n2", "jobs").unwrap();
        let know = sub
            .nodes
            .iter()
            .find(|n| matches!(n.op, DataOp::Knowledge { .. }))
            .unwrap();
        assert!(matches!(&know.op, DataOp::Knowledge { source } if source == "gpt-small"));
        // Idempotent: re-running under the same constraints is a no-op.
        assert!(ir
            .reoptimize_pending(&pending, Objective::MinLatency, &tight)
            .is_empty());
    }

    #[test]
    fn from_data_plan_lowers_operators() {
        let dp = data_planner();
        let dplan = dp.plan_job_query(RUNNING_EXAMPLE).unwrap();
        let ir = PlanIr::from_data_plan(&dplan);
        assert_eq!(ir.nodes.len(), dplan.nodes.len());
        assert!(ir.nodes.iter().all(|n| !n.is_agent()));
        let text = ir.render_text();
        assert!(text.contains("knowledge[gpt-"));
        assert!(text.contains("~tier sim-"));
    }

    #[test]
    fn render_shows_splice_wiring() {
        let plan = chain();
        let dp = data_planner();
        let ir = PlanIr::lower_spliced(&plan, &dp).unwrap();
        let text = ir.render_text();
        assert!(text.contains("n2 JOB-MATCHER"));
        assert!(text.contains("jobs ← splice("));
        assert!(text.contains("↳"));
        assert!(text.contains("sql[hr-db]"));
    }

    #[test]
    fn serde_round_trip() {
        let plan = chain();
        let dp = data_planner();
        let ir = PlanIr::lower_spliced(&plan, &dp).unwrap();
        let json = serde_json::to_value(&ir).unwrap();
        let back: PlanIr = serde_json::from_value(json).unwrap();
        assert_eq!(back, ir);
    }
}
