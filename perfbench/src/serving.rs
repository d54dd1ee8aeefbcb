//! `serving`: an open loop over 64 sessions of one `ServingRuntime`. One
//! generator thread submits a seeded arrival schedule of loadgen's chat,
//! NL2SQL and extraction flows through `submit_plan`; one listener thread
//! sees each task complete on its `task-status` stream. Many coordinators
//! publish at once onto the shared `pool:` shard, and the router's admission
//! and queueing are on the path.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blueprint_core::agents::{
    AgentContext, AgentSpec, CostProfile, DataType, Deployment, FnProcessor, Inputs, Outputs,
    ParamSpec, Processor,
};
use blueprint_core::planner::{InputBinding, PlanNode, TaskPlan};
use blueprint_core::serving::ServingRuntime;
use blueprint_core::session::Disposition;
use blueprint_core::streams::{Selector, Subscription, TagFilter};
use blueprint_core::Blueprint;
use serde_json::json;

use crate::stats::{self, Rung};
use crate::{Args, Counters, Outcome, Rng, SetupTimes};

const SESSIONS: usize = 64;
/// Router workers: tasks executing at once across all sessions.
const IN_FLIGHT: usize = 8;
/// Worker threads of each pooled agent.
const AGENT_WORKERS: usize = 8;
/// Set-ups timed on their own before each phase, which times its own too.
const EXTRA_SETUPS: usize = 3;

/// The fixed rate at which the latency figures are taken.
const REFERENCE_RATE: f64 = 400.0;
const REFERENCE_S: f64 = 4.0;
/// Fewest reference phases per run, each on a fresh runtime; figures are
/// medians. More run while their share of `--seconds` allows.
const MIN_REFERENCE_REPS: usize = 3;
const REFERENCE_SHARE: f64 = 0.7;
/// Tasks submitted at once to measure the runtime's capacity, and the fewest
/// such bursts per run.
const BURST: usize = 2400;
const MIN_BURSTS: usize = 3;
/// Completions per capacity window: capacity is the median completion rate
/// over windows, so a moment in which the host was slow, or the drain at a
/// burst's end when few sessions still have work, moves only a few windows.
const CAPACITY_WINDOW: usize = BURST / 10;
/// The offered-rate ladder of the traced run, climbed until a rung fails.
/// Rungs double, so that noise cannot move the highest passing rung by
/// itself.
const LADDER: [f64; 4] = [200.0, 400.0, 800.0, 1600.0];
const RUNG_S: f64 = 1.5;
const RUNG_ATTEMPTS: usize = 2;
/// A rung passes when its p99 latency is within this limit...
const LATENCY_LIMIT_MS: f64 = 50.0;
/// ...and it leaves at most this many seconds of offered work unfinished.
const BACKLOG_SLACK_S: f64 = 0.05;
/// Ledger charge and accuracy of one stage.
const STAGE_COST: f64 = 0.01;
const STAGE_ACCURACY: f64 = 0.99;

/// Loadgen's flows: agent and think time of each stage.
const FLOWS: [&[(&str, u64)]; 3] = [
    &[("chat-responder", 3)],
    &[("nl2sql-translator", 2), ("sql-executor", 2)],
    &[
        ("span-extractor", 1),
        ("entity-normalizer", 2),
        ("report-renderer", 1),
    ],
];

fn flow_plan(flow: usize, task_id: String, text: &str) -> TaskPlan {
    let mut plan = TaskPlan::new(task_id, text);
    for (i, &(agent, think_ms)) in FLOWS[flow].iter().enumerate() {
        let binding = if i == 0 {
            InputBinding::FromUser
        } else {
            InputBinding::FromNode {
                node: format!("n{i}"),
                output: "out".into(),
            }
        };
        plan.push(PlanNode {
            id: format!("n{}", i + 1),
            agent: agent.into(),
            task: "seeded load-generator stage".into(),
            inputs: BTreeMap::from([("text".to_string(), binding)]),
            profile: CostProfile::new(STAGE_COST, think_ms * 1000, STAGE_ACCURACY),
        });
    }
    plan
}

/// Each stage prefixes its agent's name.
fn expected(flow: usize, text: &str) -> String {
    FLOWS[flow]
        .iter()
        .fold(text.to_string(), |acc, (agent, _)| {
            format!("{agent}: {acc}")
        })
}

/// One task of the arrival schedule.
struct Arrival {
    at_s: f64,
    session: usize,
    flow: usize,
    text: String,
}

/// Poisson arrivals at `rate` for `duration_s`, each to a uniformly chosen
/// session and flow.
fn schedule(seed: u64, stream: u64, rate: f64, duration_s: f64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, stream);
    let mut out = Vec::new();
    let mut at_s = 0.0;
    loop {
        at_s += -(1.0 - rng.unit()).ln() / rate;
        if at_s >= duration_s {
            return out;
        }
        out.push(arrival(&mut rng, at_s));
    }
}

/// `n` tasks all due at once.
fn burst(seed: u64, stream: u64, n: usize) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, stream);
    (0..n).map(|_| arrival(&mut rng, 0.0)).collect()
}

fn arrival(rng: &mut Rng, at_s: f64) -> Arrival {
    Arrival {
        at_s,
        session: rng.below(SESSIONS),
        flow: rng.below(FLOWS.len()),
        text: format!("{:016x}", rng.next_u64()),
    }
}

fn blueprint(metrics: bool, processor_ns: &Arc<AtomicU64>) -> Result<Blueprint, String> {
    let mut builder = Blueprint::builder().with_serving(SESSIONS, IN_FLIGHT);
    if metrics {
        builder = builder.with_metrics();
    }
    let bp = builder.build().map_err(|e| e.to_string())?;
    for flow in FLOWS {
        for &(agent, think_ms) in flow {
            let spec = AgentSpec::new(agent, "seeded load-generator stage")
                .with_input(ParamSpec::required("text", "t", DataType::Text))
                .with_output(ParamSpec::required("out", "o", DataType::Text))
                .with_profile(CostProfile::new(
                    STAGE_COST,
                    think_ms * 1000,
                    STAGE_ACCURACY,
                ))
                .with_deployment(Deployment {
                    workers: AGENT_WORKERS,
                    ..Deployment::default()
                });
            let think = Duration::from_millis(think_ms);
            let clock = Arc::clone(processor_ns);
            let proc: Arc<dyn Processor> = Arc::new(FnProcessor::new(
                move |inputs: &Inputs, ctx: &AgentContext| {
                    let start = Instant::now();
                    std::thread::sleep(think);
                    ctx.charge_cost(STAGE_COST);
                    let out = format!("{agent}: {}", inputs.require_str("text")?);
                    clock.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    Ok(Outputs::new().with("out", json!(out)))
                },
            ));
            bp.factory()
                .register(spec.clone(), proc)
                .map_err(|e| e.to_string())?;
            bp.agent_registry()
                .register(spec)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(bp)
}

/// Starts the serving pool, opens every session and subscribes to the task
/// status streams: after this the runtime takes its first request.
fn start(bp: &Blueprint) -> Result<(ServingRuntime<'_>, Vec<u64>, Subscription), String> {
    let serving = bp.serving().map_err(|e| e.to_string())?;
    let ids: Vec<u64> = (0..SESSIONS)
        .map(|_| serving.open_session().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let status = bp
        .store()
        .subscribe(Selector::AllStreams, TagFilter::any_of(["task-status"]))
        .map_err(|e| e.to_string())?;
    Ok((serving, ids, status))
}

/// Times a set-up that takes no request.
fn time_setup(setups: &mut SetupTimes) -> Result<(), String> {
    let t0 = Instant::now();
    let bp = blueprint(false, &Arc::new(AtomicU64::new(0)))?;
    let build_s = crate::secs(t0);
    let t1 = Instant::now();
    let started = start(&bp)?;
    setups.push(build_s, crate::secs(t1));
    drop(started);
    Ok(())
}

/// What one open-loop phase measured.
#[derive(Default)]
struct Phase {
    /// Due-to-completion latency per task in due order; infinite when the
    /// task failed or never completed.
    latencies_ms: Vec<f64>,
    failed: u64,
    backlog_end: usize,
    completed_tps: f64,
    /// Time between consecutive completions of the phase's tasks, in ms.
    completion_gaps_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    submit_us: Vec<f64>,
    queue_depth: Vec<f64>,
    cost: Vec<f64>,
    /// Σ ln(per-task accuracy) and the tasks it covers.
    log_accuracy: (f64, usize),
    processor_us_per_invocation: f64,
    layers: Outcome,
}

impl Phase {
    fn p99(&self) -> f64 {
        stats::percentile(&stats::sorted(&self.latencies_ms), 0.99)
    }
}

/// Runs one phase on a fresh runtime: set-up, then the schedule, then the
/// drain and the output checks. Returns the set-up times with the phase.
fn run_phase(
    arrivals: &[Arrival],
    label: &str,
    metrics: bool,
) -> Result<(f64, f64, Phase), String> {
    let processor_ns = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let bp = blueprint(metrics, &processor_ns)?;
    let build_s = crate::secs(t0);
    let t1 = Instant::now();
    let (serving, ids, status) = start(&bp)?;
    let start_s = crate::secs(t1);

    let queue_depth = bp
        .observability()
        .metrics
        .gauge("blueprint.session.queue_depth");
    let mut submitted: Vec<Vec<(String, usize, String)>> = vec![Vec::new(); SESSIONS];
    // Warm-up: one chat turn per session, checked with the rest but not
    // timed.
    for (s, &id) in ids.iter().enumerate() {
        let task_id = format!("{label}warm{s}");
        let text = format!("warm-up {s}");
        serving
            .submit_plan(id, flow_plan(0, task_id.clone(), &text))
            .map_err(|e| e.to_string())?;
        submitted[s].push((task_id, 0, text));
    }
    serving.await_idle();
    let warm_ns = processor_ns.load(Ordering::Relaxed);
    let before = Counters::read(&bp);
    let completed = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut phase = Phase::default();
    let mut due = Vec::with_capacity(arrivals.len());
    let start = Instant::now();
    let done = std::thread::scope(|scope| {
        // The listener: a task is complete when its coordinator publishes
        // `task-completed` on the task's status stream.
        let listener = scope.spawn(|| {
            let mut done: HashMap<String, Instant> = HashMap::new();
            let mut record = |msg: &blueprint_core::streams::Message| {
                if msg.control_op() == Some("task-completed") {
                    if let Some(task) = msg.control_args().and_then(|a| a["task"].as_str()) {
                        done.insert(task.to_string(), Instant::now());
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            };
            while !stop.load(Ordering::Relaxed) {
                if let Ok(msg) = status.recv_timeout(Duration::from_millis(20)) {
                    record(&msg);
                }
            }
            for msg in status.drain() {
                record(&msg);
            }
            done
        });
        for (i, a) in arrivals.iter().enumerate() {
            let at = start + Duration::from_secs_f64(a.at_s);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            phase.lag_ms.push(at.elapsed().as_secs_f64() * 1e3);
            if metrics {
                phase.queue_depth.push(queue_depth.get() as f64);
            }
            let task_id = format!("{label}{i}");
            let t = Instant::now();
            let ok = serving
                .submit_plan(ids[a.session], flow_plan(a.flow, task_id.clone(), &a.text))
                .is_ok();
            phase.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            due.push((task_id.clone(), at));
            if ok {
                submitted[a.session].push((task_id, a.flow, a.text.clone()));
            } else {
                phase.failed += 1;
            }
        }
        let sent = SESSIONS + due.len() - phase.failed as usize;
        phase.backlog_end = sent - completed.load(Ordering::Relaxed);
        serving.await_idle();
        stop.store(true, Ordering::Relaxed);
        listener.join().expect("listener thread panicked")
    });

    let timed: Vec<Instant> = due
        .iter()
        .filter_map(|(task, _)| done.get(task).copied())
        .collect();
    let last = timed.iter().max().copied().unwrap_or(start);
    phase.completed_tps = timed.len() as f64 / (last - start).as_secs_f64().max(1e-9);
    let mut in_order = timed.clone();
    in_order.sort();
    phase.completion_gaps_ms = in_order
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    phase.latencies_ms = due
        .iter()
        .map(|(task, at)| match done.get(task) {
            Some(t) => t.saturating_duration_since(*at).as_secs_f64() * 1e3,
            None => f64::INFINITY,
        })
        .collect();
    let invocations: usize = arrivals.iter().map(|a| FLOWS[a.flow].len()).sum();
    phase.processor_us_per_invocation =
        (processor_ns.load(Ordering::Relaxed) - warm_ns) as f64 / 1e3 / invocations.max(1) as f64;
    before.per_task(&Counters::read(&bp), arrivals.len(), &mut phase.layers);
    crate::record_live(&bp, &mut phase.layers);

    // Every session's completions must be Completed, in submission order,
    // with each flow's output.
    for (s, &id) in ids.iter().enumerate() {
        let report = serving.finish(id).map_err(|e| e.to_string())?;
        let want = &submitted[s];
        if report.completions.len() != want.len() {
            phase.failed += want.len().abs_diff(report.completions.len()) as u64;
        }
        let mut ok_tasks = 0;
        for (k, (c, (task, flow, text))) in report.completions.iter().zip(want).enumerate() {
            let good = c.label == *task
                && c.disposition == Disposition::Completed
                && c.output["out"].as_str() == Some(expected(*flow, text).as_str())
                && done.contains_key(task);
            if good {
                // The first completion is the untimed warm-up turn.
                if k > 0 {
                    phase.cost.push(c.cost);
                }
                ok_tasks += 1;
            } else {
                phase.failed += 1;
            }
        }
        if ok_tasks == report.completions.len() && ok_tasks > 0 {
            phase.log_accuracy.0 += report.budget.accuracy_so_far.ln();
            phase.log_accuracy.1 += ok_tasks;
        }
    }
    Ok((build_s, start_s, phase))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    let mut setups = SetupTimes::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut peak_rss_mb = None;
    let mut phase_of = |arrivals: &[Arrival], label: &str, metrics: bool| {
        for _ in 0..EXTRA_SETUPS {
            time_setup(&mut setups)?;
        }
        let (build_s, start_s, phase) = run_phase(arrivals, label, metrics)?;
        setups.push(build_s, start_s);
        attempted += arrivals.len() as u64;
        failed += phase.failed;
        crate::first_peak_rss(&mut peak_rss_mb)?;
        Ok::<_, String>(phase)
    };

    // Each reference phase draws its own arrival schedule from the seed, so
    // that no one schedule's bursts set the run's tail.
    let mut k = 0;
    let reference_phases = crate::timed_reps(
        MIN_REFERENCE_REPS,
        REFERENCE_SHARE * args.seconds as f64,
        || {
            k += 1;
            let arrivals = schedule(args.seed, 100 + k, REFERENCE_RATE, REFERENCE_S);
            phase_of(&arrivals, "r", false)
        },
    )?;
    out.note(format!(
        "reference phases: {REFERENCE_RATE} tasks/s for {REFERENCE_S} s each"
    ));
    let latencies: Vec<Vec<f64>> = reference_phases
        .iter()
        .map(|p| p.latencies_ms.clone())
        .collect();
    crate::record_latencies(&latencies, &mut out)?;
    let cost: Vec<f64> = reference_phases
        .iter()
        .flat_map(|p| p.cost.iter().copied())
        .collect();
    out.set("ledger_cost_per_task", stats::mean(&cost));
    let (log_sum, tasks) = reference_phases.iter().fold((0.0, 0), |acc, p| {
        (acc.0 + p.log_accuracy.0, acc.1 + p.log_accuracy.1)
    });
    out.set("ledger_accuracy", (log_sum / tasks.max(1) as f64).exp());

    // Capacity: every task of a burst is due at once, so the runtime is
    // never short of work, and its completion rate is the most it sustains.
    let bursts = burst(args.seed, 1, BURST);
    let capacity = crate::timed_reps(
        MIN_BURSTS,
        (1.0 - REFERENCE_SHARE) * args.seconds as f64,
        || {
            let phase = phase_of(&bursts, "b", false)?;
            Ok(stats::window_rates(
                &phase.completion_gaps_ms,
                CAPACITY_WINDOW,
            ))
        },
    )?;
    crate::record_median("throughput_tps", &capacity.concat(), &mut out);
    let untraced_p50 = out.metrics["latency_p50_ms"];

    if args.trace {
        let reference = schedule(args.seed, 0, REFERENCE_RATE, REFERENCE_S);
        let mut traced = phase_of(&reference, "t", true)?;
        out.metrics.append(&mut traced.layers.metrics);
        out.set("session.submit_us", stats::median(&traced.submit_us));
        out.set("session.queue_depth_mean", stats::mean(&traced.queue_depth));
        out.set("session.backlog_end", traced.backlog_end as f64);
        out.set(
            "session.generator_lag_ms",
            stats::percentile(&stats::sorted(&traced.lag_ms), 0.99),
        );
        out.set("agents.processor_us", traced.processor_us_per_invocation);
        let traced_p50 = stats::median(&traced.latencies_ms);
        out.set(
            "observability.overhead_pct",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
        );
        let max_rate = climb_ladder(args.seed, &mut phase_of, &mut out)?;
        out.set("session.max_rate_tps", max_rate);
    }
    setups.record(&mut out);
    out.set("peak_rss_mb", peak_rss_mb.expect("one phase ran"));
    out.attempted = attempted;
    out.failed = failed;
    Ok(out)
}

/// Climbs the rate ladder until a rung fails and returns the highest rung
/// that passed. Each rung gets up to `RUNG_ATTEMPTS` fresh runtimes and
/// passes when one of them meets the limit: noise only ever slows a rung
/// down, so one clean pass shows the rate is sustainable.
fn climb_ladder(
    seed: u64,
    phase_of: &mut impl FnMut(&[Arrival], &str, bool) -> Result<Phase, String>,
    out: &mut Outcome,
) -> Result<f64, String> {
    let mut rungs: Vec<Rung> = Vec::new();
    for (k, &rate) in LADDER.iter().enumerate() {
        let arrivals = schedule(seed, 2 + k as u64, rate, RUNG_S);
        let mut tries = Vec::new();
        let mut rung = None;
        for attempt in 0..RUNG_ATTEMPTS {
            let phase = phase_of(&arrivals, &format!("l{k}a{attempt}-"), false)?;
            let r = Rung {
                rate,
                p99_ms: phase.p99(),
                backlog_end: phase.backlog_end,
                completed_tps: phase.completed_tps,
            };
            tries.push(format!(
                "p99 {:.2} ms, backlog {}, {:.1} completed/s",
                r.p99_ms, r.backlog_end, r.completed_tps
            ));
            let passed = r.passes(LATENCY_LIMIT_MS, BACKLOG_SLACK_S);
            rung = Some(r);
            if passed {
                break;
            }
        }
        out.note(format!("rung {rate} tasks/s: {}", tries.join("; ")));
        let rung = rung.expect("at least one attempt");
        let passed = rung.passes(LATENCY_LIMIT_MS, BACKLOG_SLACK_S);
        rungs.push(rung);
        if !passed {
            break;
        }
    }
    let best = stats::max_passing_rung(&rungs, LATENCY_LIMIT_MS, BACKLOG_SLACK_S)
        .ok_or("the lowest rung of the ladder missed the latency limit")?;
    out.note(format!(
        "max_rate_tps: {} (limit p99 <= {LATENCY_LIMIT_MS} ms)",
        best.rate
    ));
    Ok(best.rate)
}
