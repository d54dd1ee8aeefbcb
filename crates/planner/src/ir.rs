//! The unified **plan IR**: the task DAG with its data plans held in place.
//!
//! The paper treats task plans (§V-F, Fig 6) and data plans (§V-G, Fig 7)
//! as one composable artifact — a data plan is *spliced* into the task plan
//! as an input transformation of the node that consumes it, and the
//! optimizer picks operators and model tiers over the whole composite. This
//! module is that artifact: a DAG of agent nodes whose
//! [`IrBinding::Spliced`] inputs own their [`DataPlan`], with each
//! `Knowledge` operator's interchangeable parametric sources stored beside
//! the plan.
//!
//! * [`PlanIr::from_task_plan`] is the one lowering of a [`TaskPlan`]: it
//!   splices a data plan into every `FromData` binding via the
//!   [`DataPlanner`]'s routing. A binding the planner cannot plan stays in
//!   the IR as [`IrBinding::Unplanned`], carrying the error its node fails
//!   with when dispatched. [`PlanIr::lower_spliced`] is the same lowering
//!   with a data planner at hand. The lowering validates the task plan; a
//!   spliced data plan is validated where it runs,
//!   [`DataPlanner::execute`], which fails its node with the planner's
//!   error text;
//! * [`PlanIr::optimize`] runs the optimizer's joint Pareto-pruned search
//!   over every choice point (agent nodes, then data operators in splice
//!   order) at once. The lowering only records each `Knowledge`
//!   operator's candidate sources; this search is the one place a source
//!   is picked, and the coordinator runs it on every IR it executes;
//! * [`PlanIr::reoptimize_pending`] is the same search limited to the
//!   still-pending agent nodes and their operators: the bounded mid-flight
//!   pass the coordinator triggers when observed cost drifts past its
//!   estimate;
//! * [`PlanIr::render_data_plan`] renders a standalone data plan with the
//!   same operator lines as [`PlanIr::render_text`] (Fig 7).

use std::collections::{BTreeMap, HashSet};

use serde::{Deserialize, Serialize};
use serde_json::Value;

use blueprint_agents::CostProfile;
use blueprint_datastore::CostEstimate;
use blueprint_optimizer::{optimize_unified, Candidate, ChoicePoint, Objective, QosConstraints};

use crate::data_plan::{DataNode, DataOp, DataPlan};
use crate::data_planner::DataPlanner;
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
    /// Satisfied by the spliced data plan, which runs when the node
    /// resolves its inputs; the plan's output is the binding's value.
    Spliced {
        /// The data plan, with the sources currently selected.
        plan: DataPlan,
        /// The interchangeable parametric sources of each `Knowledge`
        /// operator in `plan`, as `(operator id, sources)` in plan order.
        sources: Vec<(String, Vec<IrAlternative>)>,
    },
}

/// One interchangeable parametric source of a `Knowledge` operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IrAlternative {
    /// Source name to substitute.
    pub target: String,
    /// Estimated QoS of choosing it.
    pub profile: CostProfile,
}

/// One agent node of the unified plan IR.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IrNode {
    /// Node id, unique among the agent nodes.
    pub id: String,
    /// Agent name.
    pub agent: String,
    /// The sub-task description this node covers.
    pub task: String,
    /// Input bindings, spliced data plans included.
    pub inputs: BTreeMap<String, IrBinding>,
    /// Estimated QoS of the invocation.
    pub profile: CostProfile,
}

/// A mid-flight tier switch applied by [`PlanIr::reoptimize_pending`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierSwitch {
    /// The data operator whose source changed.
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

/// The implementation selected at a data operator: a `Knowledge`
/// operator's source, or the operator id for the others.
fn current_target(node: &DataNode) -> &str {
    match &node.op {
        DataOp::Knowledge { source } => source,
        _ => &node.id,
    }
}

/// The sources recorded for operator `id` (empty when it has none).
fn sources_of<'a>(sources: &'a [(String, Vec<IrAlternative>)], id: &str) -> &'a [IrAlternative] {
    sources
        .iter()
        .find(|(op, _)| op == id)
        .map_or(&[], |(_, alts)| alts)
}

/// The choice point of data operator `node`: its sources when it has any,
/// otherwise its current implementation alone.
fn operator_point(
    node: &DataNode,
    sources: &[(String, Vec<IrAlternative>)],
) -> ChoicePoint<String> {
    let alts = sources_of(sources, &node.id);
    let options = if alts.is_empty() {
        let e = node.estimate;
        let profile = CostProfile::new(e.cost_units, e.latency_micros, e.accuracy);
        vec![Candidate::new(current_target(node).to_string(), profile)]
    } else {
        alts.iter()
            .map(|a| Candidate::new(a.target.clone(), a.profile))
            .collect()
    };
    ChoicePoint::new(node.id.clone(), options)
}

/// Points a `Knowledge` operator at the source `alt`, with its estimate.
fn switch_source(node: &mut DataNode, alt: &IrAlternative) {
    if let DataOp::Knowledge { source } = &mut node.op {
        source.clone_from(&alt.target);
    }
    node.estimate = CostEstimate {
        cost_units: alt.profile.cost_per_call,
        latency_micros: alt.profile.latency_micros,
        accuracy: alt.profile.accuracy,
    };
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
    /// Agent nodes in task-plan order.
    pub nodes: Vec<IrNode>,
}

impl PlanIr {
    /// Lowers a task plan into IR — the one lowering every execution takes.
    /// Each `FromData` binding gets its data plan from `dp`'s routing,
    /// spliced in place with the interchangeable parametric sources of its
    /// `Knowledge` operators; one it cannot plan (or every one, without a
    /// data planner) becomes [`IrBinding::Unplanned`]. Each `Knowledge`
    /// operator starts on its first candidate source by name; no objective
    /// or constraint is consulted here, because [`PlanIr::optimize`] picks
    /// the sources. Errors only on a structurally invalid task plan.
    pub fn from_task_plan(plan: &TaskPlan, dp: Option<&DataPlanner>) -> Result<PlanIr> {
        plan.validate()?;
        // Agent nodes in insertion order, slots in BTreeMap order: the
        // splice order (and therefore data-node id allocation) is
        // deterministic.
        let nodes = plan
            .nodes
            .iter()
            .map(|n| IrNode {
                id: n.id.clone(),
                agent: n.agent.clone(),
                task: n.task.clone(),
                inputs: n
                    .inputs
                    .iter()
                    .map(|(slot, b)| {
                        let binding = match b {
                            InputBinding::FromUser => IrBinding::FromUser,
                            InputBinding::FromNode { node, output } => IrBinding::FromNode {
                                node: node.clone(),
                                output: output.clone(),
                            },
                            InputBinding::Literal(v) => IrBinding::Literal(v.clone()),
                            InputBinding::FromData { query } => splice(query, &plan.utterance, dp),
                        };
                        (slot.clone(), binding)
                    })
                    .collect(),
                profile: n.profile,
            })
            .collect();
        Ok(PlanIr {
            task_id: plan.task_id.clone(),
            goal: plan.utterance.clone(),
            nodes,
        })
    }

    /// [`PlanIr::from_task_plan`] with a data planner: the spliced lowering
    /// of Figs 6–7.
    pub fn lower_spliced(plan: &TaskPlan, dp: &DataPlanner) -> Result<PlanIr> {
        Self::from_task_plan(plan, Some(dp))
    }

    /// Node lookup.
    pub fn node(&self, id: &str) -> Option<&IrNode> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// Every spliced data plan with its sources, in splice order (agent
    /// order, then slot order), beside the id of the agent node owning it.
    fn splices(&self) -> impl Iterator<Item = (&str, &DataPlan, &[(String, Vec<IrAlternative>)])> {
        self.nodes.iter().flat_map(|n| {
            let owner = n.id.as_str();
            n.inputs.values().filter_map(move |b| match b {
                IrBinding::Spliced { plan, sources, .. } => Some((owner, plan, sources.as_slice())),
                _ => None,
            })
        })
    }

    /// [`PlanIr::splices`] with each data plan open for a source switch.
    fn splices_mut(
        &mut self,
    ) -> impl Iterator<Item = (&str, &mut DataPlan, &[(String, Vec<IrAlternative>)])> {
        self.nodes.iter_mut().flat_map(|n| {
            let owner = n.id.as_str();
            n.inputs.values_mut().filter_map(move |b| match b {
                IrBinding::Spliced { plan, sources, .. } => Some((owner, plan, sources.as_slice())),
                _ => None,
            })
        })
    }

    /// The agent nodes' execution schedule: their ids in topological order
    /// (insertion order breaks ties, exactly like [`TaskPlan::topo_order`],
    /// so a lowered plan schedules identically to its source) and the
    /// dataflow edges between them. Errors on cycles and unknown upstream
    /// nodes.
    pub fn schedule(&self) -> Result<Schedule> {
        let ids: Vec<&str> = self.nodes.iter().map(|n| n.id.as_str()).collect();
        let edges = self.nodes.iter().flat_map(|n| {
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

    /// Projected QoS of the agent nodes `keep` admits by id, composed in
    /// insertion order like [`TaskPlan::projected_profile`]: with every
    /// node, the whole plan's; with the nodes that have no result yet, the
    /// rest of a running plan, which the coordinator checks its ledger
    /// against. Data operators are charged from actuals when their owner
    /// resolves its inputs.
    pub fn projected_profile(&self, keep: impl Fn(&str) -> bool) -> CostProfile {
        self.nodes
            .iter()
            .filter(|n| keep(&n.id))
            .fold(CostProfile::FREE, |acc, n| acc.then(&n.profile))
    }

    /// Every optimizable position in the IR as a [`ChoicePoint`]: the agent
    /// nodes, then the data operators in splice order. A `Knowledge`
    /// operator offers its sources; every other position offers exactly its
    /// current implementation, so the composed feasibility check covers the
    /// whole plan.
    pub fn choice_points(&self) -> Vec<ChoicePoint<String>> {
        self.choice_points_of(|_| true)
    }

    /// [`PlanIr::choice_points`] of the agent nodes `owns` admits, and of
    /// the operators spliced under them.
    fn choice_points_of(&self, owns: impl Fn(&str) -> bool) -> Vec<ChoicePoint<String>> {
        let agents = self.nodes.iter().filter(|n| owns(&n.id)).map(|n| {
            ChoicePoint::new(
                n.id.clone(),
                vec![Candidate::new(n.agent.clone(), n.profile)],
            )
        });
        let operators = self
            .splices()
            .filter(|(owner, ..)| owns(owner))
            .flat_map(|(_, plan, sources)| plan.nodes.iter().map(|dn| operator_point(dn, sources)));
        agents.chain(operators).collect()
    }

    /// Runs the optimizer's joint Pareto-pruned search over every choice
    /// point — model tiers on LLM nodes and source choices on data
    /// operators in one space — and applies the winning assignment by
    /// choice-point position. Returns the composed QoS of the chosen plan,
    /// or `None` when no feasible assignment exists (the IR is left
    /// unchanged).
    pub fn optimize(
        &mut self,
        objective: Objective,
        constraints: &QosConstraints,
    ) -> Option<CostProfile> {
        self.search(|_| true, objective, constraints)
            .map(|(composed, _)| composed)
    }

    /// Re-runs the joint search of [`PlanIr::optimize`] over the choice
    /// points of the still-pending agent nodes and the operators spliced
    /// under them, under the given objective and (typically tightened)
    /// constraints. Used by the coordinator's bounded mid-flight
    /// re-optimization; nodes already executed are never touched. Returns
    /// the switches applied, in splice order (none when no assignment is
    /// feasible).
    pub fn reoptimize_pending(
        &mut self,
        pending: &HashSet<String>,
        objective: Objective,
        constraints: &QosConstraints,
    ) -> Vec<TierSwitch> {
        self.search(|id| pending.contains(id), objective, constraints)
            .map_or_else(Vec::new, |(_, switches)| switches)
    }

    /// The joint search over the choice points of the agent nodes `owns`
    /// admits: applies the winning assignment by choice-point position
    /// (agent nodes offer only their own agent; the operators' picks follow
    /// them in splice order, and index the operators' sources). Returns the
    /// composed QoS and the source switches, or `None` when no assignment
    /// is feasible.
    fn search(
        &mut self,
        owns: impl Fn(&str) -> bool,
        objective: Objective,
        constraints: &QosConstraints,
    ) -> Option<(CostProfile, Vec<TierSwitch>)> {
        let selection = optimize_unified(&self.choice_points_of(&owns), objective, constraints)?;
        let agents = self.nodes.iter().filter(|n| owns(&n.id)).count();
        let mut picks = selection.assignment[agents..].iter();
        let mut switches = Vec::new();
        for (_, plan, sources) in self.splices_mut().filter(|(owner, ..)| owns(owner)) {
            for dn in &mut plan.nodes {
                let pick = *picks.next().expect("one choice point per operator");
                if let Some(alt) = sources_of(sources, &dn.id).get(pick) {
                    if alt.target != current_target(dn) {
                        switches.push(TierSwitch {
                            node: dn.id.clone(),
                            from: tier_label(current_target(dn)),
                            to: tier_label(&alt.target),
                        });
                        switch_source(dn, alt);
                    }
                }
            }
        }
        Some((selection.composed, switches))
    }

    /// Renders the IR as text: agent nodes in order with their spliced data
    /// operators indented beneath.
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
        for n in &self.nodes {
            let inputs: Vec<String> = n
                .inputs
                .iter()
                .map(|(p, b)| match b {
                    IrBinding::FromUser => format!("{p} ← user"),
                    IrBinding::FromNode { node, output } => format!("{p} ← {node}.{output}"),
                    IrBinding::Literal(v) => format!("{p} ← {v}"),
                    IrBinding::Unplanned { query, .. } => format!("{p} ← data(\"{query}\")"),
                    IrBinding::Spliced { plan, .. } => format!("{p} ← splice({})", plan.output),
                })
                .collect();
            out.push_str(&format!(
                "  {} {}({})\n",
                n.id,
                n.agent.to_uppercase(),
                inputs.join(", ")
            ));
            for b in n.inputs.values() {
                if let IrBinding::Spliced { plan, .. } = b {
                    render_operators(plan, "    ↳ ", &mut out);
                }
            }
        }
        out
    }

    /// Renders a standalone data plan in the IR's text form: a header, then
    /// one line per operator as [`PlanIr::render_text`] draws it (Fig 7).
    pub fn render_data_plan(plan: &DataPlan) -> String {
        let mut out = format!("plan-ir data: \"{}\"\n", plan.request);
        render_operators(plan, "  ", &mut out);
        out
    }
}

/// Plans one `FromData` binding through `dp` and splices the plan in, with
/// the sources of its `Knowledge` operators, or records why it could not be
/// planned. The plan is not validated here: [`DataPlanner::execute`]
/// validates it when its node resolves.
fn splice(query: &str, utterance: &str, dp: Option<&DataPlanner>) -> IrBinding {
    let Some(dp) = dp else {
        return IrBinding::Unplanned {
            query: query.to_string(),
            error: format!("no data planner to satisfy: {query}"),
        };
    };
    match dp.plan_for_binding(query, utterance) {
        Ok(plan) => IrBinding::Spliced {
            sources: dp.knowledge_alternatives(&plan),
            plan,
        },
        Err(e) => IrBinding::Unplanned {
            query: query.to_string(),
            error: e.to_string(),
        },
    }
}

/// Appends one line per data operator: id, operator, wiring, and the model
/// tier behind a `Knowledge` operator's source.
fn render_operators(plan: &DataPlan, indent: &str, out: &mut String) {
    for node in &plan.nodes {
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
        let tier = match &node.op {
            DataOp::Knowledge { source } => format!(" ~tier {}", tier_label(source)),
            _ => String::new(),
        };
        out.push_str(&format!(
            "{indent}{} {}{wiring}{tier}\n",
            node.id,
            node.op.detail()
        ));
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
        plan.push(n1);
        plan.push(n2);
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

    /// The plan spliced under `(node, slot)`, with its sources.
    fn spliced<'a>(
        ir: &'a PlanIr,
        node: &str,
        slot: &str,
    ) -> (&'a DataPlan, &'a [(String, Vec<IrAlternative>)]) {
        match ir.node(node).unwrap().inputs.get(slot) {
            Some(IrBinding::Spliced { plan, sources, .. }) => (plan, sources),
            other => panic!("expected a spliced binding, got {other:?}"),
        }
    }

    /// The source of the first `Knowledge` operator spliced into the IR.
    fn knowledge_source(ir: &PlanIr) -> String {
        ir.splices()
            .flat_map(|(_, plan, _)| &plan.nodes)
            .find_map(|n| match &n.op {
                DataOp::Knowledge { source } => Some(source.clone()),
                _ => None,
            })
            .unwrap()
    }

    #[test]
    fn lowering_preserves_structure_and_profile() {
        let plan = chain();
        let ir = PlanIr::from_task_plan(&plan, None).unwrap();
        let schedule = ir.schedule().unwrap();
        assert_eq!(schedule.order, plan.topo_order().unwrap());
        assert_eq!(schedule.edges, [(0, 1)]);
        let a = ir.projected_profile(|_| true);
        let b = plan.projected_profile();
        assert_eq!(a.cost_per_call.to_bits(), b.cost_per_call.to_bits());
        assert_eq!(a.latency_micros, b.latency_micros);
        assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        assert_eq!(ir.nodes.len(), 2);
        // The rest of the plan after its first node is its second node.
        let rest = ir.projected_profile(|id| id != plan.nodes[0].id);
        assert_eq!(rest, CostProfile::FREE.then(&plan.nodes[1].profile));
        assert_eq!(ir.projected_profile(|_| false), CostProfile::FREE);
    }

    #[test]
    fn splice_binding_holds_exactly_the_planners_plan() {
        let plan = chain();
        // Two identical planners allocate identical data-node ids: one
        // lowers, the other plans the binding directly as the reference.
        let ir = PlanIr::lower_spliced(&plan, &data_planner()).unwrap();
        let reference = data_planner();
        let dplan = reference
            .plan_for_binding("available job listings", RUNNING_EXAMPLE)
            .unwrap();
        let Some(IrBinding::Spliced {
            plan: held,
            sources,
        }) = ir.node("n2").unwrap().inputs.get("jobs")
        else {
            panic!("jobs was not spliced");
        };
        assert_eq!(held, &dplan);
        // The knowledge operator carries both parametric tiers as sources,
        // exactly the planner's candidates.
        assert_eq!(sources, &reference.knowledge_alternatives(&dplan));
        assert_eq!(sources.len(), 1);
        let tiers: Vec<String> = sources[0].1.iter().map(|a| tier_label(&a.target)).collect();
        assert_eq!(tiers, ["sim-large", "sim-small"]);
    }

    #[test]
    fn lower_spliced_handles_every_from_data_binding() {
        let plan = chain();
        let dp = data_planner();
        let ir = PlanIr::lower_spliced(&plan, &dp).unwrap();
        assert!(!spliced(&ir, "n2", "jobs").0.nodes.is_empty());
        assert!(!ir.nodes.iter().any(|n| n
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
        assert_eq!(
            unplanned(&ir),
            dp.plan_for_binding("candidate profiles", RUNNING_EXAMPLE)
                .unwrap_err()
                .to_string()
        );
        assert_eq!(ir.choice_points().len(), 2);
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
        assert_eq!(knowledge_source(&ir), "gpt-small");
        // ...an accuracy floor over the *composed* plan forces the large
        // tier back in (agent nodes 0.9·0.95 × data accuracies).
        let floor = QosConstraints::none().with_min_accuracy(0.82);
        ir.optimize(Objective::MinCost, &floor).unwrap();
        assert_eq!(knowledge_source(&ir), "gpt-large");
        assert!(ir.render_text().contains("~tier sim-large"));
    }

    /// An agent node whose id is also a spliced operator's id takes
    /// neither that operator's pick nor its place in the plan: the
    /// assignment applies by choice-point position.
    #[test]
    fn optimize_applies_picks_by_position_when_ids_collide() {
        let mut plan = chain();
        plan.nodes[1].id = "d2".into();
        let mut ir = PlanIr::lower_spliced(&plan, &data_planner()).unwrap();
        let names: Vec<String> = ir.choice_points().into_iter().map(|p| p.node).collect();
        assert_eq!(names, ["n1", "d2", "d1", "d2", "d3", "d4"]);
        ir.optimize(Objective::MaxAccuracy, &QosConstraints::none())
            .unwrap();
        assert_eq!(knowledge_source(&ir), "gpt-large");
        ir.optimize(Objective::MinCost, &QosConstraints::none())
            .unwrap();
        assert_eq!(knowledge_source(&ir), "gpt-small");
        assert_eq!(ir.node("d2").unwrap().agent, "job-matcher");
        let (plan, sources) = spliced(&ir, "d2", "jobs");
        let small = &sources_of(sources, "d2")[1];
        assert_eq!(small.target, "gpt-small");
        let know = plan.node("d2").unwrap();
        assert_eq!(
            know.estimate.cost_units.to_bits(),
            small.profile.cost_per_call.to_bits()
        );
    }

    #[test]
    fn reoptimize_pending_only_touches_pending_owners() {
        let plan = chain();
        let dp = data_planner();
        let mut ir = PlanIr::lower_spliced(&plan, &dp).unwrap();
        // Pin the knowledge operator to the large tier so the downgrade is
        // observable regardless of what the planner picked by default.
        ir.optimize(Objective::MaxAccuracy, &QosConstraints::none())
            .unwrap();
        assert_eq!(knowledge_source(&ir), "gpt-large");
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
        assert_eq!(switches[0].node, "d2");
        assert_eq!(switches[0].from, "sim-large");
        assert_eq!(switches[0].to, "sim-small");
        assert_eq!(knowledge_source(&ir), "gpt-small");
        // Idempotent: re-running under the same constraints is a no-op.
        assert!(ir
            .reoptimize_pending(&pending, Objective::MinLatency, &tight)
            .is_empty());
    }

    /// The mid-flight pass is the joint search over the pending suffix: it
    /// composes a pending node with its spliced operators, and leaves out
    /// the nodes already run.
    #[test]
    fn reoptimize_pending_composes_only_the_pending_suffix() {
        let mut ir = PlanIr::lower_spliced(&chain(), &data_planner()).unwrap();
        assert_eq!(knowledge_source(&ir), "gpt-large");
        let pending: HashSet<String> = ["n2".to_string()].into();
        // n2 and its operators, on the large tier the lowering starts on.
        let operators: u64 = spliced(&ir, "n2", "jobs")
            .0
            .nodes
            .iter()
            .map(|n| n.estimate.latency_micros)
            .sum();
        let suffix = ir.node("n2").unwrap().profile.latency_micros + operators;
        let cap = QosConstraints::none().with_max_latency_micros(suffix);
        // The suffix on the large tier fits the cap exactly: nothing moves,
        // though n1 puts the whole plan over it.
        assert!(ir
            .reoptimize_pending(&pending, Objective::MaxAccuracy, &cap)
            .is_empty());
        assert_eq!(knowledge_source(&ir), "gpt-large");
        let mut whole = ir.clone();
        whole.optimize(Objective::MaxAccuracy, &cap).unwrap();
        assert_eq!(knowledge_source(&whole), "gpt-small");
        // One microsecond less and the large tier fits on its own, but not
        // with its owner and siblings: the pass downgrades it.
        let tighter = QosConstraints::none().with_max_latency_micros(suffix - 1);
        let switches = ir.reoptimize_pending(&pending, Objective::MaxAccuracy, &tighter);
        assert_eq!(switches.len(), 1);
        assert_eq!(knowledge_source(&ir), "gpt-small");
    }

    #[test]
    fn standalone_render_uses_the_ir_operator_lines() {
        let dp = data_planner();
        let dplan = dp.plan_job_query(RUNNING_EXAMPLE).unwrap();
        let text = PlanIr::render_data_plan(&dplan);
        assert!(text.starts_with(&format!("plan-ir data: \"{RUNNING_EXAMPLE}\"\n")));
        assert!(text.contains("knowledge[gpt-"));
        assert!(text.contains("~tier sim-"));
        // Spliced, the same operators render as the same lines, indented
        // under their owner.
        let ir = PlanIr::lower_spliced(&chain(), &data_planner()).unwrap();
        let rendered = ir.render_text();
        let nested: Vec<&str> = rendered
            .lines()
            .filter_map(|l| l.strip_prefix("    ↳ "))
            .collect();
        let standalone: Vec<&str> = text
            .lines()
            .skip(1)
            .filter_map(|l| l.strip_prefix("  "))
            .collect();
        assert_eq!(nested.len(), dplan.nodes.len());
        assert_eq!(nested, standalone);
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
