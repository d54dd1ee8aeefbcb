//! Store deliveries per task: the coordinator's one report subscription
//! receives exactly the reports of its own instructions, and plan outputs
//! start no tag-triggered agent. Every dispatched node therefore costs
//! exactly two deliveries: its instruction to the agent's host and the
//! agent's report to the coordinator. Nothing else may arrive afterwards.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use blueprint_core::agents::{
    AgentContext, AgentFactory, AgentSpec, CostProfile, DataType, FnProcessor, Inputs, Outputs,
    ParamSpec, Processor,
};
use blueprint_core::coordinator::{ExecutionReport, TaskCoordinator};
use blueprint_core::optimizer::QosConstraints;
use blueprint_core::planner::{InputBinding, PlanNode, TaskPlan};
use blueprint_core::registry::AgentRegistry;
use blueprint_core::streams::StreamStore;
use blueprint_core::Blueprint;

/// Runs `task` and returns its report with the store deliveries it caused,
/// checking that none trickles in after it returned.
fn deliveries_of(
    store: &StreamStore,
    task: impl FnOnce() -> ExecutionReport,
) -> (ExecutionReport, u64) {
    let before = store.stats().deliveries;
    let report = task();
    assert!(report.outcome.succeeded(), "outcome: {:?}", report.outcome);
    let delivered = store.stats().deliveries - before;
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        store.stats().deliveries - before,
        delivered,
        "deliveries after execute returned"
    );
    (report, delivered)
}

fn hr_session_deliveries(utterance: &str) -> (Vec<String>, u64) {
    let bp = Blueprint::builder()
        .with_hr_domain(Default::default())
        .build()
        .unwrap();
    let session = bp.start_session().unwrap();
    let (report, delivered) = deliveries_of(bp.store(), || session.handle(utterance).unwrap());
    let agents = report
        .node_results
        .iter()
        .map(|r| r.agent.clone())
        .collect();
    (agents, delivered)
}

#[test]
fn running_example_delivers_two_messages_per_node() {
    let (agents, delivered) =
        hr_session_deliveries("I am looking for a data scientist position in SF bay area.");
    assert_eq!(agents, ["profiler", "job-matcher", "presenter"]);
    assert_eq!(delivered, 6);
}

#[test]
fn nl2sql_turn_delivers_two_messages_per_node() {
    // The planned `nl2q` output is tagged `sql` and the planned
    // `sql-executor` output `rows`: neither may start the tag-triggered
    // `sql-executor` or `query-summarizer` on its own.
    let (agents, delivered) = hr_session_deliveries("How many applicants per city?");
    assert_eq!(agents, ["nl2q", "sql-executor", "query-summarizer"]);
    assert_eq!(delivered, 6);
}

#[test]
fn no_op_fan_out_delivers_two_messages_per_branch() {
    let store = StreamStore::new();
    let factory = AgentFactory::new(store.clone());
    let registry = Arc::new(AgentRegistry::new());
    let spec = AgentSpec::new("no-op", "answers at once")
        .with_input(ParamSpec::required("text", "input", DataType::Text))
        .with_output(ParamSpec::required("out", "output", DataType::Text))
        .with_profile(CostProfile::new(0.0, 0, 1.0));
    let proc: Arc<dyn Processor> =
        Arc::new(FnProcessor::new(|inputs: &Inputs, _: &AgentContext| {
            Ok(Outputs::new().with("out", serde_json::json!(inputs.require_str("text")?)))
        }));
    factory.register(spec.clone(), proc).unwrap();
    registry.register(spec).unwrap();
    factory.spawn("no-op", "session:1").unwrap();
    let coordinator = TaskCoordinator::new(store.clone(), "session:1", registry);

    let mut plan = TaskPlan::new("t-fan8", "hello");
    for i in 1..=8 {
        plan.push(PlanNode {
            id: format!("n{i}"),
            agent: "no-op".into(),
            task: format!("branch {i}"),
            inputs: BTreeMap::from([("text".to_string(), InputBinding::FromUser)]),
            profile: CostProfile::new(0.0, 0, 1.0),
        });
    }
    let (report, delivered) = deliveries_of(&store, || {
        coordinator.execute(&plan, QosConstraints::none()).unwrap()
    });
    assert_eq!(report.node_results.len(), 8);
    assert_eq!(delivered, 16);
}
