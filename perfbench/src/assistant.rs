//! `assistant`: one closed-loop client holds a long conversation through one
//! `BlueprintSession::handle` over an HR dataset ten times the exhibits'.
//! Planner, data planner, datastore and the simulated model do most of the
//! work; each turn takes only one to three agent hops with large payloads.

use std::collections::HashMap;
use std::time::Instant;

use blueprint_core::coordinator::{ExecutionReport, Outcome as TaskOutcome};
use blueprint_core::hrdomain::data::{CITIES, TITLES};
use blueprint_core::hrdomain::HrConfig;
use blueprint_core::planner::{InputBinding, PlanIr, TaskPlan};
use blueprint_core::Blueprint;

use crate::trace::Tracer;
use crate::{stats, Args, Counters, Outcome, Rig, Rng, SetupTimes};

/// Turns per repetition: a fixed amount of work, so a faster program does
/// not age its session further. A multiple of 100 keeps every tenth of the
/// run to whole intent blocks.
const TURNS: usize = 1000;
/// Set-ups timed in each repetition; it runs on the last.
const SETUPS_PER_REP: usize = 3;
/// Fewest timed repetitions, each on a fresh session; figures are their
/// medians. More run while `--seconds` allows.
const MIN_REPS: usize = 3;
const WARMUP_TURNS: usize = 20;
/// Turns per throughput window: a tenth of a repetition, whole intent
/// blocks. Throughput is the median over windows, so a few seconds in which
/// the host was slow move only the windows inside them.
const WINDOW: usize = TURNS / 10;

/// Five times `bench_hr()`.
const HR: HrConfig = HrConfig {
    seed: 11,
    jobs: 1500,
    applicants: 1000,
    companies: 60,
    applications: 3000,
};

const SKILLS: [&str; 5] = ["python", "sql", "statistics", "java", "rust"];
const GREETINGS: [&str; 4] = ["hello", "hi there", "good morning", "hey, how are you?"];

/// The utterances of each intent the planner handles: job search,
/// open-ended NL2SQL and greeting. Summarize requests are left out: the
/// planner cannot bind the summarizer's `job_id` from an utterance, so
/// `handle` refuses them.
fn vocabulary() -> [Vec<String>; 3] {
    let titles: Vec<&str> = TITLES.iter().map(|(t, _)| *t).collect();
    let cities: Vec<&str> = CITIES.iter().map(|(c, _)| *c).collect();
    let mut places: Vec<&str> = cities.clone();
    places.push("SF bay area");
    let mut jobs = Vec::new();
    for t in &titles {
        for p in &places {
            jobs.push(format!("I am looking for a {t} position in {p}."));
            for s in SKILLS {
                jobs.push(format!(
                    "With {s} skills, I am looking for a {t} position in {p}."
                ));
            }
        }
    }
    let mut nl2sql = vec![
        "How many applicants per city?".to_string(),
        "How many jobs per city?".to_string(),
        "What is the average salary per title?".to_string(),
        "What is the average salary per city?".to_string(),
    ];
    for s in SKILLS {
        nl2sql.push(format!("How many applicants have {s} skills?"));
    }
    for c in &cities {
        nl2sql.push(format!("How many jobs are in {c}?"));
        nl2sql.push(format!("How many applicants live in {c}?"));
        for t in &titles {
            nl2sql.push(format!("How many {t} jobs are in {c}?"));
        }
    }
    for t in &titles {
        nl2sql.push(format!("What is the average salary of {t} jobs?"));
    }
    let greetings = GREETINGS.iter().map(|g| g.to_string()).collect();
    [jobs, nl2sql, greetings]
}

/// Intents of one block of ten turns, shuffled per block: job search,
/// NL2SQL, greeting.
const BLOCK: [usize; 10] = [0, 0, 0, 0, 0, 1, 1, 1, 1, 2];
/// Share of turns that repeat an earlier turn of the same intent, chosen
/// uniformly from the conversation so far; the rest are uniform over the
/// intent's vocabulary.
const REPEAT_SHARE: f64 = 0.4;
/// The turns every run asks, whatever its seed: the seed orders them.
const MIX_SEED: u64 = 0x5EED;

/// The conversation and the share of its turns that repeat an earlier turn
/// exactly. The turns are a fixed multiset drawn in blocks of ten; the seed
/// shuffles the blocks (the first tenth's apart from the rest) and the turns
/// within each block. So every seed asks the same questions, in its own
/// order, and every tenth of the run has the same intent mix. The last tenth
/// re-asks the first tenth's blocks, so the age slowdown compares the same
/// questions asked early and late.
fn conversation(seed: u64, n: usize) -> (Vec<String>, f64) {
    let blocks_n = n.div_ceil(BLOCK.len());
    let tenth = blocks_n / 10;
    let mut rng = Rng::new(MIX_SEED, 2);
    let vocab = vocabulary();
    let mut asked: [Vec<usize>; 3] = Default::default();
    let mut blocks = Vec::with_capacity(blocks_n);
    for _ in 0..blocks_n - tenth {
        let block: Vec<String> = BLOCK
            .iter()
            .map(|&intent| {
                let history = &mut asked[intent];
                let pick = if !history.is_empty() && rng.unit() < REPEAT_SHARE {
                    history[rng.below(history.len())]
                } else {
                    rng.below(vocab[intent].len())
                };
                history.push(pick);
                vocab[intent][pick].clone()
            })
            .collect();
        blocks.push(block);
    }
    let mut rng = Rng::new(seed, 2);
    rng.shuffle(&mut blocks[..tenth]);
    rng.shuffle(&mut blocks[tenth..]);
    let first: Vec<Vec<String>> = blocks[..tenth].to_vec();
    blocks.extend(first);
    let mut turns: Vec<String> = Vec::with_capacity(n);
    for mut block in blocks {
        rng.shuffle(&mut block);
        turns.extend(block);
    }
    turns.truncate(n);
    let mut seen = std::collections::HashSet::new();
    let repeats = turns.iter().filter(|t| !seen.insert(t.as_str())).count();
    (turns, repeats as f64 / n as f64)
}

/// What a turn must answer: its final output (or terminal state) and its
/// ledger cost, both of which depend only on the utterance and the dataset.
#[derive(PartialEq, Debug)]
struct Answer {
    output: String,
    cost: f64,
}

fn answer(report: &ExecutionReport) -> Answer {
    let output = match &report.outcome {
        TaskOutcome::Completed { output } => output.to_string(),
        other => format!("{other:?}"),
    };
    Answer {
        output,
        cost: report.budget.spent_cost,
    }
}

fn setup(metrics: bool) -> Result<(Rig, f64, f64), String> {
    let t0 = Instant::now();
    let mut builder = Blueprint::builder().with_hr_domain(HR);
    if metrics {
        builder = builder.with_metrics();
    }
    let bp = builder.build().map_err(|e| e.to_string())?;
    let build_s = crate::secs(t0);
    let t1 = Instant::now();
    let session = bp.start_session().map_err(|e| e.to_string())?;
    Ok((Rig { session, bp }, build_s, crate::secs(t1)))
}

/// Answers every distinct utterance once on a fresh session: the reference
/// each turn of the long conversation must match. Job-search answers are
/// checked against a direct query of the jobs table: the matcher lists at
/// least every exact title-and-city match, up to its limit of ten.
fn references(turns: &[String]) -> Result<HashMap<String, Answer>, String> {
    let (rig, _, _) = setup(false)?;
    let db = &rig.bp.dataset().expect("HR domain is wired").db;
    let mut refs = HashMap::new();
    for t in turns {
        if refs.contains_key(t) {
            continue;
        }
        let report = rig.session.handle(t).map_err(|e| format!("{t:?}: {e}"))?;
        if !report.outcome.succeeded() {
            return Err(format!(
                "reference {t:?} did not complete: {:?}",
                report.outcome
            ));
        }
        let a = answer(&report);
        let listed = serde_json::from_str::<serde_json::Value>(&a.output)
            .ok()
            .and_then(|v| v["rendered"].as_str().map(str::to_string))
            .and_then(|r| r.split(' ').next().and_then(|n| n.parse::<usize>().ok()));
        let city = CITIES
            .iter()
            .map(|(c, _)| *c)
            .find(|c| t.ends_with(&format!(" {c}.")));
        let title = TITLES
            .iter()
            .map(|(title, _)| *title)
            .find(|x| t.contains(&format!(" {x} ")));
        if let (Some(listed), Some(city), Some(title)) = (listed, city, title) {
            let sql = format!("SELECT id FROM jobs WHERE title = '{title}' AND city = '{city}'");
            let direct = db.execute(&sql).map_err(|e| e.to_string())?.len();
            if listed > 10 || listed < direct.min(10) {
                return Err(format!(
                    "{t:?} lists {listed} jobs; the jobs table has {direct} exact matches"
                ));
            }
        }
        refs.insert(t.clone(), a);
    }
    Ok(refs)
}

/// Per-turn records of one timed phase.
#[derive(Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    failed: u64,
    cost: Vec<f64>,
    accuracy: Vec<f64>,
    plans: Vec<TaskPlan>,
}

impl Phase {
    fn judge(&mut self, report: Option<ExecutionReport>, want: &Answer) {
        match report {
            Some(r) if answer(&r) == *want => {
                self.cost.push(r.budget.spent_cost);
                self.accuracy.push(r.budget.accuracy_so_far);
            }
            _ => self.failed += 1,
        }
    }
}

fn drive(rig: &Rig, turns: &[String], refs: &HashMap<String, Answer>) -> Phase {
    let mut phase = Phase::default();
    for t in turns {
        let t0 = Instant::now();
        let report = rig.session.handle(t);
        phase.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        phase.judge(report.ok(), &refs[t]);
    }
    phase
}

/// The same turns, planned and executed as two timed calls (what `handle`
/// does), each turn a root span with the two calls as children.
fn drive_traced(
    rig: &Rig,
    turns: &[String],
    refs: &HashMap<String, Answer>,
    tracer: &mut Tracer,
) -> Phase {
    let mut phase = Phase::default();
    for (i, t) in turns.iter().enumerate() {
        let req = i as u64;
        let turn = tracer.open(req, "turn", None);
        let plan = tracer.time(req, "plan", Some(turn), || rig.session.plan(t));
        let report = plan.as_ref().ok().and_then(|p| {
            tracer
                .time(req, "execute", Some(turn), || rig.session.execute(p))
                .ok()
        });
        tracer.close(turn);
        phase
            .latencies_ms
            .push(tracer.spans()[turn].duration_ns() as f64 / 1e6);
        phase.judge(report, &refs[t]);
        if let Ok(p) = plan {
            phase.plans.push(p);
        }
    }
    phase
}

/// Times the layers `handle` reaches only from inside the coordinator, by
/// calling them directly on each turn's plan: splicing the data plans into
/// the plan IR, optimizing it, and planning and running the job query.
fn probe_layers(rig: &Rig, plans: &[TaskPlan], tracer: &mut Tracer) -> Result<(), String> {
    let dp = rig.bp.data_planner();
    for (i, plan) in plans.iter().enumerate() {
        let req = i as u64;
        let mut ir: PlanIr = tracer
            .time(req, "lower", None, || PlanIr::lower_spliced(plan, dp))
            .map_err(|e| e.to_string())?;
        tracer.time(req, "optimize", None, || {
            ir.optimize(dp.objective(), &dp.constraints())
        });
        let wants_jobs = plan.nodes.iter().any(|n| {
            n.inputs.values().any(|b| {
                matches!(b, InputBinding::FromData { query } if query.to_lowercase().contains("job"))
            })
        });
        if wants_jobs {
            let data_plan = tracer
                .time(req, "data_plan", None, || {
                    dp.plan_job_query(&plan.utterance)
                })
                .map_err(|e| e.to_string())?;
            tracer
                .time(req, "data_execute", None, || dp.execute(&data_plan))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let n = TURNS;
    let (turns, repeat_share) = conversation(args.seed, n);
    let (warm, _) = conversation(u64::MAX, WARMUP_TURNS);
    let mut all = turns.clone();
    all.extend(warm.iter().cloned());
    let refs = references(&all)?;
    let mut out = Outcome::default();
    out.note(format!(
        "{} distinct utterances; {:.1}% of turns repeat an earlier one",
        refs.len(),
        repeat_share * 100.0
    ));

    let mut setups = SetupTimes::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut peak_rss_mb = None;
    let warm_up = |rig: &Rig| -> Result<(), String> {
        match drive(rig, &warm, &refs).failed {
            0 => Ok(()),
            f => Err(format!("{f} warm-up turns failed")),
        }
    };
    // Each repetition asks the same turns in its own order, drawn from the
    // seed, so that no one order's placement of the heavy turns sets the
    // run's figures.
    let mut order = Rng::new(args.seed, 3);
    let reps = crate::timed_reps(MIN_REPS, args.seconds as f64, || {
        let (turns, _) = conversation(order.next_u64(), n);
        let rig = setups.time(SETUPS_PER_REP, || setup(false))?;
        warm_up(&rig)?;
        let phase = drive(&rig, &turns, &refs);
        attempted += n as u64;
        failed += phase.failed;
        crate::first_peak_rss(&mut peak_rss_mb)?;
        Ok(phase)
    })?;
    let (mut cost, mut accuracy) = (Vec::new(), Vec::new());
    let mut throughput = Vec::new();
    let reps: Vec<Vec<f64>> = reps
        .into_iter()
        .map(|p| {
            cost.extend(p.cost);
            accuracy.extend(p.accuracy);
            throughput.extend(stats::window_rates(&p.latencies_ms, WINDOW));
            p.latencies_ms
        })
        .collect();
    setups.record(&mut out);
    crate::record_median("throughput_tps", &throughput, &mut out);
    crate::record_latencies(&reps, &mut out)?;
    out.set("peak_rss_mb", peak_rss_mb.expect("one repetition ran"));
    out.set("ledger_cost_per_task", stats::mean(&cost));
    out.set("ledger_accuracy", stats::mean(&accuracy));
    let untraced_p50 = out.metrics["latency_p50_ms"];

    if args.trace {
        let (rig, _, _) = setup(true)?;
        warm_up(&rig)?;
        let mut tracer = Tracer::new(Instant::now());
        let before = Counters::read(&rig.bp);
        let phase = drive_traced(&rig, &turns, &refs, &mut tracer);
        before.per_task(&Counters::read(&rig.bp), n, &mut out);
        crate::record_live(&rig.bp, &mut out);
        probe_layers(&rig, &phase.plans, &mut tracer)?;
        attempted += n as u64;
        failed += phase.failed;
        let p50 = |name: &str| stats::median(&tracer.durations_us(name));
        out.set("planner.plan_us", p50("plan"));
        out.set("coordinator.execute_us", p50("execute"));
        out.set("planner.lower_us", p50("lower"));
        out.set("optimizer.optimize_us", p50("optimize"));
        out.set("planner.data_plan_us", p50("data_plan"));
        out.set("datastore.execute_us", p50("data_execute"));
        let traced_p50 = stats::median(&phase.latencies_ms);
        out.set(
            "observability.overhead_pct",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
        );
        out.note(format!(
            "blocking path: plan p50 {:.1} us + execute p50 {:.1} us = {:.1}% of turn p50 {:.1} us",
            p50("plan"),
            p50("execute"),
            100.0 * (p50("plan") + p50("execute")) / p50("turn"),
            p50("turn")
        ));
        tracer.note_self_times(&mut out);
    }
    out.attempted = attempted;
    out.failed = failed;
    Ok(out)
}
