//! B9 — resilience bookkeeping overhead: the same fault-free task chain
//! with and without the full resilience stack armed (zero-rate fault
//! injector, retry policy, circuit breakers, degradation ladder). The
//! delta between `plain` and `resilient` is the hot-path cost of the
//! bookkeeping; it should stay well under 5%.

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
use blueprint_core::optimizer::QosConstraints;
use blueprint_core::planner::{InputBinding, PlanNode, TaskPlan};
use blueprint_core::registry::AgentRegistry;
use blueprint_core::resilience::{
    BreakerConfig, BreakerRegistry, DegradationLadder, FaultInjector, FaultPlan, RetryPolicy,
};
use blueprint_core::streams::StreamStore;

const CHAIN_LEN: usize = 3;

fn setup(resilient: bool) -> (Arc<AgentFactory>, TaskCoordinator) {
    let store = StreamStore::new();
    let factory = Arc::new(AgentFactory::new(store.clone()));
    let registry = Arc::new(AgentRegistry::new());
    if resilient {
        // Zero-rate plan: every fault check runs, none ever fires.
        let injector = Arc::new(FaultInjector::new(FaultPlan::none(0)));
        store.set_fault_injector(Arc::clone(&injector));
        factory.set_fault_injector(injector);
        let breakers = Arc::new(BreakerRegistry::new(BreakerConfig::default()));
        registry.set_breakers(Arc::clone(&breakers));
        factory.set_breakers(breakers);
    }
    for i in 0..CHAIN_LEN {
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
    let mut coordinator = TaskCoordinator::new(store, "session:1", Arc::clone(&registry))
        .with_report_timeout(Duration::from_secs(10));
    if resilient {
        let breakers = Arc::new(BreakerRegistry::new(BreakerConfig::default()));
        coordinator = coordinator
            .with_retry_policy(RetryPolicy::standard(7))
            .with_breakers(breakers)
            .with_degradation(DegradationLadder::new().with_fallback("step-0", "step-1", 0.05));
    }
    (factory, coordinator)
}

fn chain_plan(task_id: &str) -> TaskPlan {
    let mut plan = TaskPlan::new(task_id, "benchmark payload");
    for i in 0..CHAIN_LEN {
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

fn bench_resilience_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("resilience/fault-free");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    for (label, resilient) in [("plain", false), ("resilient", true)] {
        group.bench_function(label, |b| {
            let (_factory, coordinator) = setup(resilient);
            let mut task = 0u64;
            b.iter(|| {
                task += 1;
                let plan = chain_plan(&format!("t{task}"));
                let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
                assert!(report.outcome.succeeded());
                assert!(report.degradations.is_empty());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_resilience_overhead);
criterion_main!(benches);
