//! B11 — multi-session serving: a wave of concurrent sessions through the
//! session router + shared agent pool, dispatch parallelism 1 (sequential
//! baseline) vs 8. Complements `--bin loadgen`, which sweeps 1–256 sessions
//! and records `BENCH_serving.json`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use serde_json::json;

use blueprint_core::agents::{
    AgentContext, AgentSpec, CostProfile, DataType, Deployment, FnProcessor, Inputs, Outputs,
    ParamSpec, Processor,
};
use blueprint_core::planner::{InputBinding, PlanNode, TaskPlan};
use blueprint_core::Blueprint;

const SESSIONS: usize = 16;
const TASKS_PER_SESSION: usize = 2;
const STAGES: [&str; 2] = ["translate", "execute"];
const THINK: Duration = Duration::from_millis(2);

/// Serving-enabled blueprint with a 2-stage chain of sleeping agents.
fn serving_blueprint(max_in_flight: usize) -> Blueprint {
    let bp = Blueprint::builder()
        .with_serving(SESSIONS, max_in_flight)
        .build()
        .unwrap();
    for name in STAGES {
        let spec = AgentSpec::new(name, "sleep then answer")
            .with_input(ParamSpec::required("text", "t", DataType::Text))
            .with_output(ParamSpec::required("out", "o", DataType::Text))
            .with_profile(CostProfile::new(0.01, 2_000, 1.0))
            .with_deployment(Deployment {
                workers: 16,
                ..Deployment::default()
            });
        let proc: Arc<dyn Processor> =
            Arc::new(FnProcessor::new(|inputs: &Inputs, _: &AgentContext| {
                std::thread::sleep(THINK);
                Ok(Outputs::new().with("out", json!(inputs.require_str("text")?)))
            }));
        bp.factory().register(spec.clone(), proc).unwrap();
        bp.agent_registry().register(spec).unwrap();
    }
    bp
}

fn chain_plan(task_id: String) -> TaskPlan {
    let mut plan = TaskPlan::new(task_id, "benchmark payload");
    for (i, agent) in STAGES.iter().enumerate() {
        let mut inputs = BTreeMap::new();
        let binding = if i == 0 {
            InputBinding::FromUser
        } else {
            InputBinding::FromNode {
                node: format!("n{i}"),
                output: "out".into(),
            }
        };
        inputs.insert("text".to_string(), binding);
        plan.push(PlanNode {
            id: format!("n{}", i + 1),
            agent: (*agent).into(),
            task: "sleep then answer".into(),
            inputs,
            profile: CostProfile::new(0.01, 2_000, 1.0),
        });
    }
    plan
}

fn bench_session_wave(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving/wave16");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(10));
    for (label, in_flight) in [("sequential", 1usize), ("in-flight-8", 8)] {
        group.bench_function(label, |b| {
            let bp = serving_blueprint(in_flight);
            let serving = bp.serving().unwrap();
            let mut wave = 0u64;
            b.iter(|| {
                wave += 1;
                let ids: Vec<u64> = (0..SESSIONS)
                    .map(|_| serving.open_session().unwrap())
                    .collect();
                for turn in 0..TASKS_PER_SESSION {
                    for (s, &id) in ids.iter().enumerate() {
                        serving
                            .submit_plan(id, chain_plan(format!("w{wave}s{s}t{turn}")))
                            .unwrap();
                    }
                }
                serving.await_idle();
                for &id in &ids {
                    let report = serving.finish(id).unwrap();
                    assert_eq!(report.completions.len(), TASKS_PER_SESSION);
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_session_wave);
criterion_main!(benches);
