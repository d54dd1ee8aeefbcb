//! Deterministic multi-session serving load generator: replays a seeded mix
//! of chat turns, NL2SQL queries, and extraction flows across 1–256
//! simulated sessions through the [`ServingRuntime`], and compares task
//! throughput against a sequential baseline (the same pool and router with a
//! single dispatch worker). Results land in `BENCH_serving.json` at the repo
//! root so future PRs can diff the numbers.
//!
//! Run with: `cargo run --release -p blueprint-bench --bin loadgen`
//! (or `make serving-bench`). Flags (all optional):
//!
//! ```text
//! loadgen [--sessions 1,8,64] [--tasks 3] [--in-flight 8] [--seed 42]
//! ```
//!
//! Every flow is a chain plan over synthetic agents whose processors sleep a
//! fixed think-time (simulated model latency, as in `bench_json`'s fan-out),
//! so the serving speedup measures *overlapped waiting* — exactly what a
//! multi-session server buys — rather than CPU parallelism.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};

use blueprint_core::agents::{
    AgentContext, AgentSpec, CostProfile, DataType, Deployment, FnProcessor, Inputs, Outputs,
    ParamSpec, Processor,
};
use blueprint_core::planner::{InputBinding, PlanNode, TaskPlan};
use blueprint_core::{Blueprint, ServingRuntime};

const RUNS: usize = 7;

/// One stage of a flow: agent name + think-time the processor sleeps.
struct Stage {
    agent: &'static str,
    think_ms: u64,
}

/// The mixed workload: every task is one of these flows.
#[derive(Clone, Copy, Debug)]
enum Flow {
    /// Single conversational turn.
    Chat,
    /// Translate NL to SQL, then execute it.
    Nl2Sql,
    /// Extract spans, normalize entities, render a report.
    Extraction,
}

impl Flow {
    fn pick(rng: &mut StdRng) -> Flow {
        match rng.gen_range(0..3usize) {
            0 => Flow::Chat,
            1 => Flow::Nl2Sql,
            _ => Flow::Extraction,
        }
    }

    fn stages(self) -> &'static [Stage] {
        match self {
            Flow::Chat => &[Stage {
                agent: "chat-responder",
                think_ms: 3,
            }],
            Flow::Nl2Sql => &[
                Stage {
                    agent: "nl2sql-translator",
                    think_ms: 2,
                },
                Stage {
                    agent: "sql-executor",
                    think_ms: 2,
                },
            ],
            Flow::Extraction => &[
                Stage {
                    agent: "span-extractor",
                    think_ms: 1,
                },
                Stage {
                    agent: "entity-normalizer",
                    think_ms: 2,
                },
                Stage {
                    agent: "report-renderer",
                    think_ms: 1,
                },
            ],
        }
    }

    fn utterance(self, session: usize, turn: usize) -> String {
        match self {
            Flow::Chat => format!("s{session}t{turn}: how is my application going?"),
            Flow::Nl2Sql => format!("s{session}t{turn}: how many applicants per city?"),
            Flow::Extraction => {
                format!("s{session}t{turn}: looking for a data scientist position")
            }
        }
    }
}

const ALL_AGENTS: [Flow; 3] = [Flow::Chat, Flow::Nl2Sql, Flow::Extraction];

/// A bare blueprint carrying only the synthetic flow agents, serving-enabled.
fn loadgen_blueprint(max_sessions: usize, max_in_flight: usize, workers: usize) -> Blueprint {
    let bp = Blueprint::builder()
        .with_serving(max_sessions, max_in_flight)
        .with_metrics()
        .build()
        .expect("blueprint assembles");
    for flow in ALL_AGENTS {
        for stage in flow.stages() {
            if bp.agent_registry().contains(stage.agent) {
                continue;
            }
            let spec = AgentSpec::new(stage.agent, "seeded load-generator stage")
                .with_input(ParamSpec::required("text", "t", DataType::Text))
                .with_output(ParamSpec::required("out", "o", DataType::Text))
                .with_profile(CostProfile::new(0.01, stage.think_ms * 1000, 1.0))
                .with_deployment(Deployment {
                    workers,
                    ..Deployment::default()
                });
            let think = Duration::from_millis(stage.think_ms);
            let name = stage.agent;
            let proc: std::sync::Arc<dyn Processor> = std::sync::Arc::new(FnProcessor::new(
                move |inputs: &Inputs, ctx: &AgentContext| {
                    std::thread::sleep(think);
                    ctx.charge_cost(0.01);
                    ctx.charge_latency_micros(think.as_micros() as u64);
                    Ok(Outputs::new().with(
                        "out",
                        json!(format!("{name}: {}", inputs.require_str("text")?)),
                    ))
                },
            ));
            bp.factory().register(spec.clone(), proc).unwrap();
            bp.agent_registry().register(spec).unwrap();
        }
    }
    bp
}

/// Builds the chain plan for one task of the workload.
fn flow_plan(flow: Flow, session: usize, turn: usize, run: usize) -> TaskPlan {
    let mut plan = TaskPlan::new(
        format!("r{run}s{session}t{turn}"),
        flow.utterance(session, turn),
    );
    let mut upstream: Option<String> = None;
    for (i, stage) in flow.stages().iter().enumerate() {
        let node_id = format!("n{}", i + 1);
        let mut inputs = BTreeMap::new();
        let binding = match &upstream {
            None => InputBinding::FromUser,
            Some(prev) => InputBinding::FromNode {
                node: prev.clone(),
                output: "out".into(),
            },
        };
        inputs.insert("text".to_string(), binding);
        plan.push(PlanNode {
            id: node_id.clone(),
            agent: stage.agent.into(),
            task: "seeded load-generator stage".into(),
            inputs,
            profile: CostProfile::new(0.01, stage.think_ms * 1000, 1.0),
        });
        upstream = Some(node_id);
    }
    plan
}

/// The full deterministic schedule for one sweep point: `flows[s][t]` is
/// session `s`'s `t`-th task. Derived only from the seed and the shape, so
/// the sequential and serving arms replay byte-identical workloads.
fn schedule(seed: u64, sessions: usize, tasks: usize) -> Vec<Vec<Flow>> {
    (0..sessions)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(seed ^ (s as u64).wrapping_mul(0x9E37));
            (0..tasks).map(|_| Flow::pick(&mut rng)).collect()
        })
        .collect()
}

struct ArmStats {
    wall_us: u64,
    throughput_tps: f64,
    p50_us: u64,
    p99_us: u64,
    dispatches: u64,
    latency_records: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Replays the schedule through a serving runtime with `max_in_flight`
/// dispatch workers and returns the median-run stats. `max_in_flight = 1` is
/// the sequential baseline: identical pool, identical router, no overlap.
fn run_arm(seed: u64, sessions: usize, tasks: usize, max_in_flight: usize) -> ArmStats {
    let flows = schedule(seed, sessions, tasks);
    let total_tasks = sessions * tasks;
    let mut walls: Vec<u64> = Vec::with_capacity(RUNS);
    let mut latencies: Vec<u64> = Vec::new();
    let mut dispatches = 0u64;
    let mut latency_records = 0u64;
    for run in 0..RUNS {
        // Agent-side capacity is held constant across arms (worker threads
        // sized to the *largest* arm) so only router concurrency varies.
        let bp = loadgen_blueprint(sessions, max_in_flight, 16);
        let serving: ServingRuntime = bp.serving().expect("serving configured");
        let ids: Vec<u64> = (0..sessions)
            .map(|_| serving.open_session().expect("admitted"))
            .collect();
        let start = Instant::now();
        // Interleaved submission: turn 0 of every session, then turn 1, ...
        // matching many concurrent conversations advancing together. The
        // turn-major index pair is the point, so a range loop reads best.
        #[allow(clippy::needless_range_loop)]
        for turn in 0..tasks {
            for (s, &id) in ids.iter().enumerate() {
                serving
                    .submit_plan(id, flow_plan(flows[s][turn], s, turn, run))
                    .expect("submitted");
            }
        }
        serving.await_idle();
        walls.push(start.elapsed().as_micros() as u64);
        let mut run_latencies = Vec::with_capacity(total_tasks);
        for &id in &ids {
            let report = serving.finish(id).expect("finished");
            assert_eq!(report.completions.len(), tasks);
            for c in &report.completions {
                assert!(
                    matches!(
                        c.disposition,
                        blueprint_core::session::Disposition::Completed
                    ),
                    "task {} of session {} did not complete: {:?}",
                    c.label,
                    id,
                    c.output
                );
                run_latencies.push(c.latency_micros);
            }
        }
        // Per-task latency is read off the simulated ledger: each invocation
        // measures shared-clock progress, so under concurrency it also
        // absorbs siblings' charges — i.e. it behaves like sojourn time and
        // the serving arm's tail reflects contention. Keep the first run's.
        if run == 0 {
            latencies = run_latencies;
            let snap = bp.metrics();
            dispatches = snap.counter("blueprint.session.dispatches");
            latency_records = snap.histograms["blueprint.session.task_latency_micros"].count;
            assert_eq!(dispatches, total_tasks as u64, "every task dispatched once");
        }
    }
    walls.sort_unstable();
    latencies.sort_unstable();
    let wall_us = walls[walls.len() / 2];
    ArmStats {
        wall_us,
        throughput_tps: (total_tasks as f64 / (wall_us.max(1) as f64 / 1e6) * 10.0).round() / 10.0,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        dispatches,
        latency_records,
    }
}

fn arm_json(a: &ArmStats) -> Value {
    json!({
        "wall_us": a.wall_us,
        "throughput_tps": a.throughput_tps,
        "p50_us": a.p50_us,
        "p99_us": a.p99_us,
        "metrics": {
            "dispatches": a.dispatches,
            "latency_records": a.latency_records,
        },
    })
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sweep: Vec<usize> = flag(&args, "--sessions")
        .unwrap_or_else(|| "1,8,64".into())
        .split(',')
        .map(|s| s.trim().parse().expect("--sessions takes e.g. 1,8,64"))
        .collect();
    let tasks: usize = flag(&args, "--tasks").map_or(3, |v| v.parse().expect("--tasks N"));
    let in_flight: usize =
        flag(&args, "--in-flight").map_or(8, |v| v.parse().expect("--in-flight N"));
    let seed: u64 = flag(&args, "--seed").map_or(42, |v| v.parse().expect("--seed N"));
    assert!(
        sweep.iter().all(|&s| (1..=256).contains(&s)),
        "sessions must be within 1..=256"
    );

    let mut points = Vec::new();
    let mut achieved_at_64 = None;
    for &sessions in &sweep {
        eprintln!("loadgen: {sessions} session(s) x {tasks} task(s), sequential baseline ...");
        let sequential = run_arm(seed, sessions, tasks, 1);
        eprintln!(
            "loadgen: {sessions} session(s) x {tasks} task(s), serving (in-flight {in_flight}) ..."
        );
        let serving = run_arm(seed, sessions, tasks, in_flight);
        let speedup =
            (serving.throughput_tps / sequential.throughput_tps.max(f64::EPSILON) * 100.0).round()
                / 100.0;
        if sessions == 64 {
            achieved_at_64 = Some(speedup);
        }
        eprintln!(
            "loadgen: {sessions} session(s): {} -> {} tasks/s ({speedup}x)",
            sequential.throughput_tps, serving.throughput_tps
        );
        points.push(json!({
            "sessions": sessions,
            "total_tasks": sessions * tasks,
            "sequential": arm_json(&sequential),
            "serving": arm_json(&serving),
            "speedup_x": speedup,
        }));
    }

    let doc = json!({
        "benchmark": "multi-session serving runtime (sharded streams + session router)",
        "units": "wall-clock microseconds (median of runs); latencies from the simulated ledger",
        "runs_per_sample": RUNS,
        "seed": seed,
        "tasks_per_session": tasks,
        "max_in_flight": in_flight,
        "workload": {
            "flows": {
                "chat": "1-stage chain, 3 ms think-time",
                "nl2sql": "2-stage chain (translate -> execute), 2+2 ms",
                "extraction": "3-stage chain (extract -> normalize -> render), 1+2+1 ms",
            },
            "mix": "uniform per task, seeded per session (deterministic)",
            "baseline": "identical pool + router with max_in_flight = 1",
        },
        "sweep": points,
        "acceptance": {
            "sessions": 64,
            "required_speedup_x": 4.0,
            "achieved_speedup_x": achieved_at_64,
            "pass": achieved_at_64.map(|s| s >= 4.0),
        },
    });

    let path = std::env::var("BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json").to_string()
    });
    let rendered = format!("{}\n", serde_json::to_string_pretty(&doc).unwrap());
    std::fs::write(&path, &rendered).expect("write serving bench report");
    println!("{rendered}");
    eprintln!("wrote {path}");
    if let Some(s) = achieved_at_64 {
        assert!(s >= 4.0, "serving speedup at 64 sessions below 4x: {s}");
    }
}
