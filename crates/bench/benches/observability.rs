//! B10 — observability overhead: the same coordinator chain with the
//! instrumentation layer disarmed (default no-op handles) and fully armed
//! (sim-clock spans + metrics).
//!
//! The acceptance claim is that the disarmed path costs <5% over the
//! pre-instrumentation baseline: every hot-path touchpoint is one `Option`
//! check or one relaxed atomic, so `observability/chain3/disarmed` should be
//! statistically indistinguishable from `coordinator/chain` at the same
//! length.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use serde_json::json;

use blueprint_core::agents::{
    AgentContext, AgentFactory, AgentSpec, CostProfile, DataType, FnProcessor, Inputs, Outputs,
    ParamSpec, Processor,
};
use blueprint_core::coordinator::TaskCoordinator;
use blueprint_core::observability::{Observability, SimClock};
use blueprint_core::optimizer::QosConstraints;
use blueprint_core::planner::{InputBinding, PlanNode, TaskPlan};
use blueprint_core::registry::AgentRegistry;
use blueprint_core::streams::StreamStore;

const CHAIN: usize = 3;

fn setup(armed: bool) -> (Arc<AgentFactory>, TaskCoordinator, Observability) {
    let clock = SimClock::new();
    let obs = if armed {
        Observability::armed(clock.clone())
    } else {
        Observability::disarmed()
    };
    // The store carries the bundle; the factory's hosts and the coordinator
    // resolve their instruments from it.
    let store = StreamStore::observed(clock, obs.clone());
    let factory = Arc::new(AgentFactory::new(store.clone()));
    let registry = Arc::new(AgentRegistry::new());
    for i in 0..CHAIN {
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
    (factory, coordinator, obs)
}

fn chain_plan(task_id: &str) -> TaskPlan {
    let mut plan = TaskPlan::new(task_id, "benchmark payload");
    for i in 0..CHAIN {
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

fn bench_disarmed_vs_armed(c: &mut Criterion) {
    let mut group = c.benchmark_group("observability/chain3");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));

    group.bench_function("disarmed", |b| {
        let (_factory, coordinator, _obs) = setup(false);
        let mut task = 0u64;
        b.iter(|| {
            task += 1;
            let plan = chain_plan(&format!("t{task}"));
            let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
            assert!(report.outcome.succeeded());
        });
    });

    group.bench_function("armed", |b| {
        let (_factory, coordinator, obs) = setup(true);
        let mut task = 0u64;
        b.iter(|| {
            task += 1;
            let plan = chain_plan(&format!("t{task}"));
            let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
            assert!(report.outcome.succeeded());
            // Drain the span and flow buffers so the armed run measures
            // recording, not an ever-growing backlog.
            obs.tracer.clear();
        });
    });

    group.finish();
}

criterion_group!(benches, bench_disarmed_vs_armed);
criterion_main!(benches);
