//! Machine-readable coordinator perf trajectory: sequential vs parallel vs
//! memoized timings for a synthetic 8-way fan-out and the paper's Fig 6/7
//! running-example plan, written to `BENCH_coordinator.json` at the repo
//! root so future PRs can diff the numbers.
//!
//! Run with: `cargo run --release -p blueprint-bench --bin bench_json`
//! (or `make bench-json`).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use blueprint_bench::{bench_hr, RUNNING_EXAMPLE};
use blueprint_core::agents::{
    AgentContext, AgentFactory, AgentSpec, CostProfile, DataType, FnProcessor, Inputs, Outputs,
    ParamSpec, Processor,
};
use blueprint_core::coordinator::{MemoCache, SchedulerMode, TaskCoordinator};
use blueprint_core::optimizer::QosConstraints;
use blueprint_core::planner::{InputBinding, PlanNode, TaskPlan};
use blueprint_core::registry::AgentRegistry;
use blueprint_core::streams::StreamStore;
use blueprint_core::Blueprint;

const RUNS: usize = 7;
const FANOUT: usize = 8;
const WORK_MS: u64 = 2;

/// Median wall-clock of `RUNS` invocations, in microseconds.
fn median_micros(mut sample: impl FnMut() -> Duration) -> u64 {
    let mut times: Vec<u64> = (0..RUNS).map(|_| sample().as_micros() as u64).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn fanout_coordinator(mode: SchedulerMode, memo: bool) -> (Arc<AgentFactory>, TaskCoordinator) {
    let store = StreamStore::new();
    let factory = Arc::new(AgentFactory::new(store.clone()));
    let registry = Arc::new(AgentRegistry::new());
    for i in 0..FANOUT {
        let spec = AgentSpec::new(format!("branch-{i}"), "sleep then answer")
            .with_input(ParamSpec::required("text", "t", DataType::Text))
            .with_output(ParamSpec::required("out", "o", DataType::Text))
            .with_profile(CostProfile::new(0.01, 10, 1.0));
        let proc: Arc<dyn Processor> = Arc::new(FnProcessor::new(
            move |inputs: &Inputs, _: &AgentContext| {
                std::thread::sleep(Duration::from_millis(WORK_MS));
                Ok(Outputs::new().with("out", json!(inputs.require_str("text")?)))
            },
        ));
        factory.register(spec.clone(), proc).unwrap();
        registry.register(spec).unwrap();
        factory.spawn(&format!("branch-{i}"), "session:1").unwrap();
    }
    let mut coordinator = TaskCoordinator::new(store, "session:1", registry)
        .with_report_timeout(Duration::from_secs(10))
        .with_scheduler(mode);
    if memo {
        coordinator = coordinator.with_memoization(Arc::new(MemoCache::new(64)));
    }
    (factory, coordinator)
}

fn fanout_plan(task_id: &str) -> TaskPlan {
    let mut plan = TaskPlan::new(task_id, "benchmark payload");
    for i in 0..FANOUT {
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

/// Times the 8-way fan-out under one scheduler mode.
fn time_fanout(mode: SchedulerMode, memo: bool) -> u64 {
    let (_factory, coordinator) = fanout_coordinator(mode, memo);
    if memo {
        // Warm the cache so the timed runs measure pure replay.
        let report = coordinator
            .execute(&fanout_plan("warm"), QosConstraints::none())
            .unwrap();
        assert!(report.outcome.succeeded());
    }
    let mut task = 0u64;
    median_micros(|| {
        task += 1;
        let plan = fanout_plan(&format!("f{task}"));
        let start = Instant::now();
        let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
        let elapsed = start.elapsed();
        assert!(report.outcome.succeeded());
        elapsed
    })
}

fn scheduled_blueprint(mode: SchedulerMode, memo: bool) -> Blueprint {
    let mut builder = Blueprint::builder()
        .with_hr_domain(bench_hr())
        .with_scheduler(mode);
    if memo {
        builder = builder.with_memoization(256);
    }
    builder.build().expect("blueprint assembles")
}

/// Times the Fig 6 task plan (which internally resolves its Fig 7 data plan)
/// end to end through a session, planner included.
fn time_running_example(mode: SchedulerMode, memo: bool) -> (u64, Value) {
    let bp = scheduled_blueprint(mode, memo);
    if memo {
        let session = bp.start_session().unwrap();
        let report = session.handle(RUNNING_EXAMPLE).unwrap();
        assert!(report.outcome.succeeded());
    }
    let mut cache = json!(null);
    let micros = median_micros(|| {
        let session = bp.start_session().unwrap();
        let start = Instant::now();
        let report = session.handle(RUNNING_EXAMPLE).unwrap();
        let elapsed = start.elapsed();
        assert!(report.outcome.succeeded());
        cache = json!({
            "hits": report.cache.hits,
            "cost_saved": report.cache.cost_saved,
            "latency_saved_micros": report.cache.latency_saved_micros,
        });
        elapsed
    });
    (micros, cache)
}

fn speedup(baseline: u64, candidate: u64) -> f64 {
    (baseline as f64 / candidate.max(1) as f64 * 100.0).round() / 100.0
}

fn main() {
    let parallel = SchedulerMode::Parallel { max_in_flight: 0 };

    eprintln!("timing fanout-{FANOUT} ({WORK_MS} ms agents) ...");
    let fan_seq = time_fanout(SchedulerMode::Sequential, false);
    let fan_par = time_fanout(parallel, false);
    let fan_memo = time_fanout(parallel, true);

    eprintln!("timing running-example plan (Fig 6 task plan / Fig 7 data plan) ...");
    let (hr_seq, _) = time_running_example(SchedulerMode::Sequential, false);
    let (hr_par, _) = time_running_example(parallel, false);
    let (hr_memo, hr_cache) = time_running_example(parallel, true);

    let doc = json!({
        "benchmark": "coordinator scheduler + memoization",
        "units": "wall-clock microseconds, median of runs",
        "runs_per_sample": RUNS,
        "fanout": {
            "description": format!(
                "{FANOUT} independent branches, one {WORK_MS} ms agent each, no data deps"
            ),
            "sequential_us": fan_seq,
            "parallel_us": fan_par,
            "memoized_repeat_us": fan_memo,
            "parallel_speedup_x": speedup(fan_seq, fan_par),
            "memoized_speedup_x": speedup(fan_seq, fan_memo),
        },
        "running_example": {
            "description": "Fig 6 task plan over the HR domain (resolves its Fig 7 \
                            data plan), full session handle() including planning",
            "utterance": RUNNING_EXAMPLE,
            "sequential_us": hr_seq,
            "parallel_us": hr_par,
            "memoized_repeat_us": hr_memo,
            "parallel_speedup_x": speedup(hr_seq, hr_par),
            "memoized_speedup_x": speedup(hr_seq, hr_memo),
            "memoized_repeat_cache": hr_cache,
        },
    });

    // `BENCH_OUT` redirects the report (CI writes a candidate file next to
    // the committed baseline instead of overwriting it).
    let path = std::env::var("BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_coordinator.json").to_string()
    });
    let rendered = format!("{}\n", serde_json::to_string_pretty(&doc).unwrap());
    std::fs::write(&path, &rendered).expect("write coordinator bench report");
    println!("{rendered}");
    eprintln!("wrote {path}");
}
