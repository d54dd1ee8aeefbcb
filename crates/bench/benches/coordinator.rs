//! B6 — coordination overhead (§V-H): end-to-end task execution through
//! instruction messages, reports, and budget tracking.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use serde_json::json;

use blueprint_core::agents::{
    AgentContext, AgentFactory, AgentSpec, CostProfile, DataType, FnProcessor, Inputs, Outputs,
    ParamSpec, Processor,
};
use blueprint_core::coordinator::{SchedulerMode, TaskCoordinator};
use blueprint_core::optimizer::QosConstraints;
use blueprint_core::planner::{InputBinding, PlanNode, TaskPlan};
use blueprint_core::registry::AgentRegistry;
use blueprint_core::streams::StreamStore;

fn setup(chain_len: usize) -> (Arc<AgentFactory>, TaskCoordinator) {
    let store = StreamStore::new();
    let factory = Arc::new(AgentFactory::new(store.clone()));
    let registry = Arc::new(AgentRegistry::new());
    for i in 0..chain_len {
        let spec = AgentSpec::new(format!("step-{i}"), "pass the text along")
            .with_input(ParamSpec::required("text", "t", DataType::Text))
            .with_output(ParamSpec::required("out", "o", DataType::Text))
            .with_profile(CostProfile::new(0.01, 10, 1.0));
        let proc: Arc<dyn Processor> =
            Arc::new(FnProcessor::new(|inputs: &Inputs, _: &AgentContext| {
                Ok(Outputs::new().with("out", json!(inputs.require_str("text")?)))
            }));
        factory.register(spec.clone(), proc).unwrap();
        registry.register(spec).unwrap();
        factory.spawn(&format!("step-{i}"), "session:1").unwrap();
    }
    let coordinator = TaskCoordinator::new(store, "session:1", registry)
        .with_report_timeout(Duration::from_secs(10));
    (factory, coordinator)
}

fn chain_plan(task_id: &str, chain_len: usize) -> TaskPlan {
    let mut plan = TaskPlan::new(task_id, "benchmark payload");
    for i in 0..chain_len {
        let mut inputs = BTreeMap::new();
        if i == 0 {
            inputs.insert("text".to_string(), InputBinding::FromUser);
        } else {
            inputs.insert(
                "text".to_string(),
                InputBinding::FromNode {
                    node: format!("n{i}"),
                    output: "out".to_string(),
                },
            );
        }
        plan.push(PlanNode {
            id: format!("n{}", i + 1),
            agent: format!("step-{i}"),
            task: "pass along".into(),
            inputs,
            profile: CostProfile::new(0.01, 10, 1.0),
        });
    }
    plan
}

fn bench_chain_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("coordinator/chain");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    for len in [1usize, 3, 8] {
        group.bench_with_input(BenchmarkId::new("agents", len), &len, |b, &len| {
            let (_factory, coordinator) = setup(len);
            let mut task = 0u64;
            b.iter(|| {
                task += 1;
                let plan = chain_plan(&format!("t{task}"), len);
                let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
                assert!(report.outcome.succeeded());
            });
        });
    }
    group.finish();
}

/// One coordinator over `branches` independent agents, each of which sleeps
/// for `work` before answering — a stand-in for real model latency. Every
/// branch gets its own agent so worker-pool sizing never serializes the plan.
fn fanout_setup(
    branches: usize,
    work: Duration,
    mode: SchedulerMode,
) -> (Arc<AgentFactory>, TaskCoordinator) {
    let store = StreamStore::new();
    let factory = Arc::new(AgentFactory::new(store.clone()));
    let registry = Arc::new(AgentRegistry::new());
    for i in 0..branches {
        let spec = AgentSpec::new(format!("branch-{i}"), "sleep then answer")
            .with_input(ParamSpec::required("text", "t", DataType::Text))
            .with_output(ParamSpec::required("out", "o", DataType::Text))
            .with_profile(CostProfile::new(0.01, 10, 1.0));
        let proc: Arc<dyn Processor> = Arc::new(FnProcessor::new(
            move |inputs: &Inputs, _: &AgentContext| {
                std::thread::sleep(work);
                Ok(Outputs::new().with("out", json!(inputs.require_str("text")?)))
            },
        ));
        factory.register(spec.clone(), proc).unwrap();
        registry.register(spec).unwrap();
        factory.spawn(&format!("branch-{i}"), "session:1").unwrap();
    }
    let coordinator = TaskCoordinator::new(store, "session:1", registry)
        .with_report_timeout(Duration::from_secs(10))
        .with_scheduler(mode);
    (factory, coordinator)
}

fn fanout_plan(task_id: &str, branches: usize) -> TaskPlan {
    let mut plan = TaskPlan::new(task_id, "benchmark payload");
    for i in 0..branches {
        let mut inputs = BTreeMap::new();
        inputs.insert("text".to_string(), InputBinding::FromUser);
        plan.push(PlanNode {
            id: format!("n{}", i + 1),
            agent: format!("branch-{i}"),
            task: "sleep then answer".into(),
            inputs,
            profile: CostProfile::new(0.01, 10, 1.0),
        });
    }
    plan
}

fn bench_fanout_schedulers(c: &mut Criterion) {
    // The acceptance benchmark: an 8-way fan-out of 2 ms agents must run at
    // least 2x faster under the ready-set scheduler than one at a time.
    let mut group = c.benchmark_group("coordinator/fanout8");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    for (label, mode) in [
        ("sequential", SchedulerMode::Sequential),
        ("parallel", SchedulerMode::Parallel { max_in_flight: 0 }),
    ] {
        group.bench_function(label, |b| {
            let (_factory, coordinator) = fanout_setup(8, Duration::from_millis(2), mode);
            let mut task = 0u64;
            b.iter(|| {
                task += 1;
                let plan = fanout_plan(&format!("f{task}"), 8);
                let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
                assert!(report.outcome.succeeded());
            });
        });
    }
    group.finish();
}

fn bench_budget_tracking_overhead(c: &mut Criterion) {
    // The same single-agent task with and without constraints: the delta is
    // the cost of budget checks.
    let mut group = c.benchmark_group("coordinator/budget");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    for (label, constraints) in [
        ("unconstrained", QosConstraints::none()),
        (
            "constrained",
            QosConstraints::none()
                .with_max_cost(1e9)
                .with_max_latency_micros(u64::MAX / 2)
                .with_min_accuracy(0.0),
        ),
    ] {
        group.bench_function(label, |b| {
            let (_factory, coordinator) = setup(1);
            let mut task = 0u64;
            b.iter(|| {
                task += 1;
                let plan = chain_plan(&format!("b{task}"), 1);
                coordinator.execute(&plan, constraints).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_chain_execution,
    bench_fanout_schedulers,
    bench_budget_tracking_overhead
);
criterion_main!(benches);
