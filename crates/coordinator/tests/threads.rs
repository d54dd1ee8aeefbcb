//! The coordinator drives a task on the calling thread: executing a plan
//! starts no thread and opens one report subscription. An agent reads the
//! process's thread count from `/proc/self/status`, and the store's live
//! subscriptions, while it runs, for every node of a 16-node chain and of
//! an 8-way fan-out; the thread count must equal the one taken before
//! `execute`, and the subscriptions exceed theirs by one.
//!
//! This file holds a single test so no other test's threads come and go in
//! the process while it counts.

#![cfg(target_os = "linux")]

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use serde_json::json;

use blueprint_agents::{
    AgentContext, AgentFactory, AgentSpec, CostProfile, DataType, FnProcessor, Inputs, Outputs,
    ParamSpec, Processor,
};
use blueprint_coordinator::{SchedulerMode, TaskCoordinator};
use blueprint_optimizer::QosConstraints;
use blueprint_planner::{InputBinding, PlanNode, TaskPlan};
use blueprint_registry::AgentRegistry;
use blueprint_streams::StreamStore;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("status has a Threads line")
}

fn node(id: usize, input: InputBinding) -> PlanNode {
    PlanNode {
        id: format!("n{id}"),
        agent: "thread-counter".into(),
        task: format!("count threads {id}"),
        inputs: BTreeMap::from([("text".to_string(), input)]),
        profile: CostProfile::new(0.0, 0, 1.0),
    }
}

#[test]
fn executing_a_plan_starts_no_thread_and_one_subscription() {
    let store = StreamStore::new();
    let factory = AgentFactory::new(store.clone());
    let registry = Arc::new(AgentRegistry::new());
    // (threads, live subscriptions) as each agent run saw them.
    let seen: Arc<Mutex<Vec<(usize, u64)>>> = Arc::default();
    let record = Arc::clone(&seen);
    let live = store.clone();
    let spec = AgentSpec::new("thread-counter", "reports the process thread count")
        .with_input(ParamSpec::required("text", "input", DataType::Text))
        .with_output(ParamSpec::required("out", "output", DataType::Text))
        .with_profile(CostProfile::new(0.0, 0, 1.0));
    let proc: Arc<dyn Processor> = Arc::new(FnProcessor::new(
        move |inputs: &Inputs, _: &AgentContext| {
            record
                .lock()
                .push((threads(), live.stats().active_subscriptions));
            Ok(Outputs::new().with("out", json!(inputs.require_str("text")?)))
        },
    ));
    factory.register(spec.clone(), proc).unwrap();
    registry.register(spec).unwrap();
    factory.spawn("thread-counter", "session:1").unwrap();
    let coordinator = TaskCoordinator::new(store.clone(), "session:1", registry)
        .with_scheduler(SchedulerMode::Parallel { max_in_flight: 0 });

    let mut chain = TaskPlan::new("t-chain16", "count");
    chain.push(node(1, InputBinding::FromUser));
    for i in 2..=16 {
        let from = InputBinding::FromNode {
            node: format!("n{}", i - 1),
            output: "out".into(),
        };
        chain.push(node(i, from));
    }
    let mut fan_out = TaskPlan::new("t-fan8", "count");
    for i in 1..=8 {
        fan_out.push(node(i, InputBinding::FromUser));
    }

    for (plan, nodes) in [(chain, 16), (fan_out, 8)] {
        seen.lock().clear();
        let before = (threads(), store.stats().active_subscriptions);
        let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
        assert!(
            report.outcome.succeeded(),
            "{}: {:?}",
            plan.task_id,
            report.outcome
        );
        let seen = seen.lock();
        assert_eq!(seen.len(), nodes, "{}", plan.task_id);
        assert!(
            seen.iter()
                .all(|&during| during == (before.0, before.1 + 1)),
            "{}: (threads, subscriptions) {before:?} before execute, {seen:?} during",
            plan.task_id
        );
    }
}
