//! Task plans: DAGs connecting agent inputs and outputs (Fig 6).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use serde::{Deserialize, Serialize};
use serde_json::Value;

use blueprint_agents::{ops, CostProfile};
use blueprint_streams::Message;

use crate::error::PlanError;
use crate::Result;

/// Where a plan node's input parameter gets its value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InputBinding {
    /// The original user utterance (or a user-provided value).
    FromUser,
    /// The named output of an upstream node.
    FromNode {
        /// Producing node id.
        node: String,
        /// Output parameter name on that node's agent.
        output: String,
    },
    /// A constant.
    Literal(Value),
    /// To be satisfied by the data planner (§V-H, e.g.
    /// `JOBS ← data("job listings")` in Fig 6): lowering splices the data
    /// plan for this query into the consuming node, which executes it when
    /// it resolves its inputs.
    FromData {
        /// Natural-language description of the data needed.
        query: String,
    },
}

/// One sub-task assigned to an agent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanNode {
    /// Node id (unique within the plan, e.g. `n1`).
    pub id: String,
    /// Assigned agent name.
    pub agent: String,
    /// The sub-task description this node covers.
    pub task: String,
    /// Input parameter bindings.
    pub inputs: BTreeMap<String, InputBinding>,
    /// The agent's QoS profile (copied at planning time for the budget).
    pub profile: CostProfile,
}

/// A dataflow edge (derived from `FromNode` bindings).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanEdge {
    /// Producing node id.
    pub from: String,
    /// Consuming node id.
    pub to: String,
}

/// An agentic workflow: a DAG of agent invocations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TaskPlan {
    /// Unique task id.
    pub task_id: String,
    /// The utterance this plan serves.
    pub utterance: String,
    /// Nodes in insertion order.
    pub nodes: Vec<PlanNode>,
}

impl TaskPlan {
    /// Creates an empty plan.
    pub fn new(task_id: impl Into<String>, utterance: impl Into<String>) -> Self {
        TaskPlan {
            task_id: task_id.into(),
            utterance: utterance.into(),
            nodes: Vec::new(),
        }
    }

    /// Adds a node.
    pub fn push(&mut self, node: PlanNode) {
        self.nodes.push(node);
    }

    /// Node lookup.
    pub fn node(&self, id: &str) -> Option<&PlanNode> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// Edges derived from `FromNode` bindings.
    pub fn edges(&self) -> Vec<PlanEdge> {
        let mut edges = Vec::new();
        for n in &self.nodes {
            for binding in n.inputs.values() {
                if let InputBinding::FromNode { node, .. } = binding {
                    edges.push(PlanEdge {
                        from: node.clone(),
                        to: n.id.clone(),
                    });
                }
            }
        }
        edges
    }

    /// Validates structure: unique ids, known upstream references,
    /// acyclicity.
    pub fn validate(&self) -> Result<()> {
        let mut ids = HashSet::new();
        for n in &self.nodes {
            if !ids.insert(n.id.as_str()) {
                return Err(PlanError::InvalidPlan(format!(
                    "duplicate node id: {}",
                    n.id
                )));
            }
        }
        for n in &self.nodes {
            for b in n.inputs.values() {
                if let InputBinding::FromNode { node, .. } = b {
                    if !ids.contains(node.as_str()) {
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
            }
        }
        self.topo_order().map(|_| ())
    }

    /// Topological order of node ids; errors on cycles.
    ///
    /// Deterministic: among simultaneously ready nodes, insertion order
    /// wins — so planner-produced chains execute exactly in the order they
    /// were planned, and hand-built DAGs get a stable order.
    pub fn topo_order(&self) -> Result<Vec<String>> {
        let ids: Vec<&str> = self.nodes.iter().map(|n| n.id.as_str()).collect();
        let edges = self.edges();
        let pairs = index_edges(&ids, edges.iter().map(|e| (e.from.as_str(), e.to.as_str())))?;
        let order = topo_sort(ids.len(), &pairs)?;
        Ok(order.into_iter().map(|i| ids[i].to_string()).collect())
    }

    /// Projected QoS of the whole plan: cost and latency add along the
    /// sequential execution, accuracy multiplies.
    pub fn projected_profile(&self) -> CostProfile {
        self.nodes
            .iter()
            .fold(CostProfile::FREE, |acc, n| acc.then(&n.profile))
    }

    /// Wraps the plan in a `task-plan` control message.
    pub fn into_message(self) -> Message {
        let value = serde_json::to_value(&self).expect("TaskPlan serializes");
        Message::control(ops::TASK_PLAN, value).with_tag("plan")
    }

    /// Parses a plan from a `task-plan` control message.
    pub fn from_message(msg: &Message) -> Option<TaskPlan> {
        if msg.control_op() != Some(ops::TASK_PLAN) {
            return None;
        }
        serde_json::from_value(msg.control_args()?.clone()).ok()
    }

    /// Renders the plan as text — the Fig 6 regeneration format:
    ///
    /// ```text
    /// task t1: "I am looking for a data scientist position in SF bay area."
    ///   n1 PROFILER(text ← user) → profile
    ///   n2 JOB-MATCHER(job_seeker_data ← n1.profile, jobs ← …) → matches
    ///   n3 PRESENTER(content ← n2.matches) → rendered
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = format!("task {}: \"{}\"\n", self.task_id, self.utterance);
        for n in &self.nodes {
            let inputs: Vec<String> = n
                .inputs
                .iter()
                .map(|(p, b)| match b {
                    InputBinding::FromUser => format!("{p} ← user"),
                    InputBinding::FromNode { node, output } => {
                        format!("{p} ← {node}.{output}")
                    }
                    InputBinding::Literal(v) => format!("{p} ← {v}"),
                    InputBinding::FromData { query } => format!("{p} ← data(\"{query}\")"),
                })
                .collect();
            out.push_str(&format!(
                "  {} {}({})\n",
                n.id,
                n.agent.to_uppercase(),
                inputs.join(", ")
            ));
        }
        out
    }
}

/// Maps `(from, to)` id edges to position pairs into `ids`. Errors on an
/// unknown edge source; targets are the consuming nodes themselves.
pub(crate) fn index_edges<'a>(
    ids: &[&'a str],
    edges: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Result<Vec<(usize, usize)>> {
    let position: HashMap<&str, usize> = ids.iter().enumerate().map(|(i, id)| (*id, i)).collect();
    edges
        .into_iter()
        .map(|(from, to)| {
            let from = *position
                .get(from)
                .ok_or_else(|| PlanError::InvalidPlan(format!("unknown edge source {from}")))?;
            Ok((from, position[to]))
        })
        .collect()
}

/// Kahn's algorithm, shared by [`TaskPlan`] and the plan IR: orders nodes
/// `0..n` along the `(from, to)` position pairs, breaking ties by the lower
/// position (insertion order). Errors on a cycle.
pub(crate) fn topo_sort(n: usize, edges: &[(usize, usize)]) -> Result<Vec<usize>> {
    let mut indegree = vec![0usize; n];
    let mut children = vec![Vec::new(); n];
    for &(from, to) in edges {
        children[from].push(to);
        indegree[to] += 1;
    }
    let mut ready: BTreeSet<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = ready.pop_first() {
        order.push(i);
        for &c in &children[i] {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                ready.insert(c);
            }
        }
    }
    if order.len() != n {
        return Err(PlanError::InvalidPlan("plan contains a cycle".into()));
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn node(id: &str, agent: &str) -> PlanNode {
        PlanNode {
            id: id.into(),
            agent: agent.into(),
            task: format!("task for {agent}"),
            inputs: BTreeMap::new(),
            profile: CostProfile::new(1.0, 1_000, 0.9),
        }
    }

    fn chain() -> TaskPlan {
        let mut plan = TaskPlan::new("t1", "find me a data scientist job");
        let mut n1 = node("n1", "profiler");
        n1.inputs.insert("text".into(), InputBinding::FromUser);
        let mut n2 = node("n2", "job-matcher");
        n2.inputs.insert(
            "job_seeker_data".into(),
            InputBinding::FromNode {
                node: "n1".into(),
                output: "profile".into(),
            },
        );
        n2.inputs
            .insert("jobs".into(), InputBinding::Literal(json!([])));
        let mut n3 = node("n3", "presenter");
        n3.inputs.insert(
            "content".into(),
            InputBinding::FromNode {
                node: "n2".into(),
                output: "matches".into(),
            },
        );
        plan.push(n1);
        plan.push(n2);
        plan.push(n3);
        plan
    }

    #[test]
    fn valid_chain_passes_and_orders() {
        let plan = chain();
        plan.validate().unwrap();
        assert_eq!(plan.topo_order().unwrap(), ["n1", "n2", "n3"]);
        assert_eq!(plan.edges().len(), 2);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut plan = chain();
        plan.push(node("n1", "dup"));
        assert!(matches!(plan.validate(), Err(PlanError::InvalidPlan(_))));
    }

    #[test]
    fn unknown_reference_rejected() {
        let mut plan = TaskPlan::new("t", "u");
        let mut n = node("n1", "a");
        n.inputs.insert(
            "x".into(),
            InputBinding::FromNode {
                node: "ghost".into(),
                output: "o".into(),
            },
        );
        plan.push(n);
        assert!(plan.validate().is_err());
    }

    #[test]
    fn self_loop_rejected() {
        let mut plan = TaskPlan::new("t", "u");
        let mut n = node("n1", "a");
        n.inputs.insert(
            "x".into(),
            InputBinding::FromNode {
                node: "n1".into(),
                output: "o".into(),
            },
        );
        plan.push(n);
        assert!(plan.validate().is_err());
    }

    #[test]
    fn cycle_rejected() {
        let mut plan = TaskPlan::new("t", "u");
        let mut a = node("a", "x");
        a.inputs.insert(
            "i".into(),
            InputBinding::FromNode {
                node: "b".into(),
                output: "o".into(),
            },
        );
        let mut b = node("b", "y");
        b.inputs.insert(
            "i".into(),
            InputBinding::FromNode {
                node: "a".into(),
                output: "o".into(),
            },
        );
        plan.push(a);
        plan.push(b);
        assert!(
            matches!(plan.validate(), Err(PlanError::InvalidPlan(msg)) if msg.contains("cycle"))
        );
    }

    #[test]
    fn out_of_order_insertion_still_topo_sorts() {
        let mut plan = TaskPlan::new("t", "u");
        // Insert consumer before producer.
        let mut consumer = node("n2", "b");
        consumer.inputs.insert(
            "i".into(),
            InputBinding::FromNode {
                node: "n1".into(),
                output: "o".into(),
            },
        );
        plan.push(consumer);
        plan.push(node("n1", "a"));
        let order = plan.topo_order().unwrap();
        assert_eq!(order, ["n1", "n2"]);
    }

    #[test]
    fn projected_profile_composes() {
        let plan = chain();
        let p = plan.projected_profile();
        assert!((p.cost_per_call - 3.0).abs() < 1e-9);
        assert_eq!(p.latency_micros, 3_000);
        assert!((p.accuracy - 0.729).abs() < 1e-9);
    }

    #[test]
    fn message_round_trip() {
        let plan = chain();
        let msg = plan.clone().into_message();
        assert!(msg.has_tag(&blueprint_streams::Tag::new("plan")));
        let back = TaskPlan::from_message(&msg).unwrap();
        assert_eq!(back, plan);
        assert!(TaskPlan::from_message(&Message::data("x")).is_none());
    }

    #[test]
    fn render_text_shows_connections() {
        let text = chain().render_text();
        assert!(text.contains("n1 PROFILER(text ← user)"));
        assert!(text.contains("job_seeker_data ← n1.profile"));
        assert!(text.contains("content ← n2.matches"));
    }

    #[test]
    fn empty_plan_is_valid() {
        let plan = TaskPlan::new("t", "u");
        plan.validate().unwrap();
        assert!(plan.topo_order().unwrap().is_empty());
        assert_eq!(plan.projected_profile(), CostProfile::FREE);
    }
}
