//! A1 + A3 ablations:
//!
//! * A1 — centralized (coordinator-driven) vs decentralized (tag-chained)
//!   execution of an equivalent two-step workflow;
//! * A3 — direct NL2Q vs the Fig 7 decomposed data plan (recall is asserted,
//!   latency is measured).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use serde_json::json;

use blueprint_bench::{bench_blueprint, RUNNING_EXAMPLE};
use blueprint_core::agents::{
    ActivationMode, AgentContext, AgentFactory, AgentSpec, CostProfile, DataType, FnProcessor,
    Inputs, Outputs, ParamSpec, Processor, StreamBinding,
};
use blueprint_core::coordinator::TaskCoordinator;
use blueprint_core::optimizer::QosConstraints;
use blueprint_core::planner::{InputBinding, PlanNode, TaskPlan};
use blueprint_core::registry::AgentRegistry;
use blueprint_core::streams::{Message, Selector, StreamStore, TagFilter};

fn passthrough(tag_in: &str, tag_out: Option<&str>, name: &str) -> (AgentSpec, Arc<dyn Processor>) {
    let mut spec = AgentSpec::new(name, "pass text along")
        .with_input(ParamSpec::required("text", "t", DataType::Text))
        .with_output(ParamSpec::required("out", "o", DataType::Text))
        .with_profile(CostProfile::new(0.01, 10, 1.0));
    spec = spec
        .with_binding(StreamBinding::tagged("text", [tag_in]))
        .with_activation(ActivationMode::Hybrid);
    if let Some(t) = tag_out {
        spec = spec.with_output_tag(t);
    }
    let proc: Arc<dyn Processor> =
        Arc::new(FnProcessor::new(|inputs: &Inputs, _: &AgentContext| {
            Ok(Outputs::new().with("out", json!(inputs.require_str("text")?)))
        }));
    (spec, proc)
}

/// A1 — the same two-step pipeline, both control styles.
fn bench_control_styles(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/a1_control_style");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));

    // Decentralized: stage-a (tag in:a, out:b) → stage-b (tag in:b, out:done).
    group.bench_function("decentralized_tags", |b| {
        let store = StreamStore::new();
        let factory = AgentFactory::new(store.clone());
        for (spec, proc) in [
            passthrough("stage-a", Some("stage-b"), "a"),
            passthrough("stage-b", Some("done"), "b"),
        ] {
            factory.register(spec, proc).unwrap();
        }
        factory.spawn("a", "session:1").unwrap();
        factory.spawn("b", "session:1").unwrap();
        let done = store
            .subscribe(Selector::AllStreams, TagFilter::any_of(["done"]))
            .unwrap();
        b.iter(|| {
            store
                .publish_to(
                    "session:1:in",
                    ["in"],
                    Message::data("payload").with_tag("stage-a"),
                )
                .unwrap();
            done.recv_timeout(Duration::from_secs(10)).unwrap()
        });
    });

    // Centralized: the coordinator drives the same two agents.
    group.bench_function("centralized_coordinator", |b| {
        let store = StreamStore::new();
        let factory = AgentFactory::new(store.clone());
        let registry = Arc::new(AgentRegistry::new());
        for (spec, proc) in [
            passthrough("unused-a", None, "a"),
            passthrough("unused-b", None, "b"),
        ] {
            registry.register(spec.clone()).unwrap();
            factory.register(spec, proc).unwrap();
        }
        factory.spawn("a", "session:1").unwrap();
        factory.spawn("b", "session:1").unwrap();
        let coordinator = TaskCoordinator::new(store, "session:1", registry)
            .with_report_timeout(Duration::from_secs(10));
        let mut task = 0u64;
        b.iter(|| {
            task += 1;
            let mut plan = TaskPlan::new(format!("t{task}"), "payload");
            let mut i1 = std::collections::BTreeMap::new();
            i1.insert("text".to_string(), InputBinding::FromUser);
            plan.push(PlanNode {
                id: "n1".into(),
                agent: "a".into(),
                task: "stage a".into(),
                inputs: i1,
                profile: CostProfile::new(0.01, 10, 1.0),
            });
            let mut i2 = std::collections::BTreeMap::new();
            i2.insert(
                "text".to_string(),
                InputBinding::FromNode {
                    node: "n1".into(),
                    output: "out".into(),
                },
            );
            plan.push(PlanNode {
                id: "n2".into(),
                agent: "b".into(),
                task: "stage b".into(),
                inputs: i2,
                profile: CostProfile::new(0.01, 10, 1.0),
            });
            let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
            assert!(report.outcome.succeeded());
        });
    });
    group.finish();
}

/// A3 — decomposed vs direct data plans. Recall is asserted once; the bench
/// measures planning+execution latency of both.
fn bench_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/a3_decomposition");
    group.sample_size(10);
    let bp = bench_blueprint();
    let dataset = bp.dataset().unwrap();

    // Recall assertion: decomposition strictly dominates on region queries.
    let decomposed = bp
        .data_planner()
        .execute(&bp.data_planner().plan_job_query(RUNNING_EXAMPLE).unwrap())
        .unwrap();
    let direct = bp
        .data_planner()
        .execute(
            &bp.data_planner()
                .plan_nl2q_direct(RUNNING_EXAMPLE, &dataset.db, "hr-db")
                .unwrap(),
        )
        .unwrap();
    let d_rows = decomposed.value.as_array().map(Vec::len).unwrap_or(0);
    let n_rows = direct.value.as_array().map(Vec::len).unwrap_or(0);
    assert!(
        d_rows > n_rows,
        "decomposed {d_rows} must beat direct {n_rows}"
    );

    group.bench_function("decomposed_plan_and_execute", |b| {
        b.iter(|| {
            let plan = bp.data_planner().plan_job_query(RUNNING_EXAMPLE).unwrap();
            bp.data_planner().execute(&plan).unwrap()
        });
    });
    group.bench_function("direct_nl2q_plan_and_execute", |b| {
        b.iter(|| {
            let plan = bp
                .data_planner()
                .plan_nl2q_direct(RUNNING_EXAMPLE, &dataset.db, "hr-db")
                .unwrap();
            bp.data_planner().execute(&plan).unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_control_styles, bench_decomposition);
criterion_main!(benches);
