//! Cross-crate integration: the full runtime driving both scenarios.

use std::time::Duration;

use blueprint_core::agents::UiForm;
use blueprint_core::coordinator::Outcome;
use blueprint_core::llmsim::ModelProfile;
use blueprint_core::optimizer::{Objective, QosConstraints};
use blueprint_core::streams::{Selector, TagFilter};
use blueprint_core::Blueprint;
use integration_tests::{hr_blueprint, small_hr};
use serde_json::json;

const RUNNING_EXAMPLE: &str = "I am looking for a data scientist position in SF bay area.";

#[test]
fn career_assistance_scenario_end_to_end() {
    let bp = hr_blueprint();
    let session = bp.start_session().unwrap();
    let report = session.handle(RUNNING_EXAMPLE).unwrap();
    assert!(report.outcome.succeeded());
    let Outcome::Completed { output } = &report.outcome else {
        panic!("expected completion: {:?}", report.outcome);
    };
    // The presenter rendered the matched jobs.
    let rendered = output["rendered"].as_str().unwrap();
    assert!(rendered.contains("item(s)"));
    // All three Fig 6 agents ran, in order.
    let agents: Vec<&str> = report
        .node_results
        .iter()
        .map(|n| n.agent.as_str())
        .collect();
    assert_eq!(agents, ["profiler", "job-matcher", "presenter"]);
}

#[test]
fn agentic_employer_ui_flow_fig9() {
    let bp = hr_blueprint();
    let session = bp.start_session().unwrap();
    let summary_sub = bp
        .store()
        .subscribe(Selector::AllStreams, TagFilter::any_of(["summary"]))
        .unwrap();
    let form = UiForm::new("applicants", "Applicants");
    session.click(&form, "job", json!(2)).unwrap();
    let summary = summary_sub.recv_timeout(Duration::from_secs(15)).unwrap();
    assert!(summary.payload.as_str().unwrap().starts_with("Job 2:"));
}

#[test]
fn agentic_employer_conversation_flow_fig10() {
    let bp = Blueprint::builder()
        .with_hr_domain(small_hr())
        .with_tracing()
        .build()
        .unwrap();
    let session = bp.start_session().unwrap();
    let summary_sub = bp
        .store()
        .subscribe(Selector::AllStreams, TagFilter::any_of(["summary"]))
        .unwrap();
    session.say("How many applicants per city?").unwrap();
    let summary = summary_sub.recv_timeout(Duration::from_secs(15)).unwrap();
    let text = summary.payload.as_str().unwrap();
    assert!(text.contains("row"));
    // The flow passed through the expected participants.
    let participants = bp.trace().participants();
    for expected in [
        "user",
        "intent-classifier",
        "agentic-employer",
        "nl2q",
        "sql-executor",
        "query-summarizer",
    ] {
        assert!(
            participants.iter().any(|p| p == expected),
            "missing participant {expected}; saw {participants:?}"
        );
    }
}

#[test]
fn flow_trace_is_replayable_from_streams() {
    // Every exchange is persisted: replaying the store's streams
    // reconstructs the workflow without tracing.
    let bp = hr_blueprint();
    let session = bp.start_session().unwrap();
    session.handle(RUNNING_EXAMPLE).unwrap();
    let scope = session.session().scope().to_string();
    let streams = bp.store().list_streams(Some(&scope));
    assert!(streams.iter().any(|s| s.as_str().contains(":instructions")));
    assert!(streams.iter().any(|s| s.as_str().contains(":reports")));
    // The instruction stream replays the exact agent sequence.
    let instructions = bp
        .store()
        .read(&format!("{scope}:instructions").into(), 0)
        .unwrap();
    let agents: Vec<String> = instructions
        .iter()
        .filter_map(|m| blueprint_core::agents::ExecuteAgent::from_message(m))
        .map(|e| e.agent)
        .collect();
    assert_eq!(agents, ["profiler", "job-matcher", "presenter"]);
}

#[test]
fn budget_is_charged_across_agents_and_data_plans() {
    let bp = hr_blueprint();
    let session = bp.start_session().unwrap();
    let report = session.handle(RUNNING_EXAMPLE).unwrap();
    // Agent charges: profiler (llm extract) + matcher (per-job) + presenter.
    // Data-plan charges: parametric knowledge for the region.
    assert!(
        report.budget.spent_cost > 0.3,
        "spent {}",
        report.budget.spent_cost
    );
    assert!(report.budget.spent_latency_micros > 100_000);
    // Per-node records agree with the ledger within the data-plan share.
    let node_cost: f64 = report.node_results.iter().map(|n| n.cost).sum();
    assert!(report.budget.spent_cost >= node_cost);
}

#[test]
fn tight_budget_aborts_and_loose_budget_completes() {
    let tight = Blueprint::builder()
        .with_hr_domain(small_hr())
        .with_constraints(QosConstraints::none().with_max_cost(0.01))
        .build()
        .unwrap();
    let report = tight
        .start_session()
        .unwrap()
        .handle(RUNNING_EXAMPLE)
        .unwrap();
    assert!(matches!(report.outcome, Outcome::Aborted { .. }));

    let loose = Blueprint::builder()
        .with_hr_domain(small_hr())
        .with_constraints(QosConstraints::none().with_max_cost(100.0))
        .build()
        .unwrap();
    let report = loose
        .start_session()
        .unwrap()
        .handle(RUNNING_EXAMPLE)
        .unwrap();
    assert!(report.outcome.succeeded());
}

#[test]
fn objective_changes_tier_choice_in_data_plans() {
    let bp = Blueprint::builder()
        .with_hr_domain(small_hr())
        .with_model(ModelProfile::large())
        .with_extra_model(ModelProfile::tiny())
        .with_objective(Objective::MinCost)
        .build()
        .unwrap();
    let plan = bp.data_planner().plan_job_query(RUNNING_EXAMPLE).unwrap();
    let text = plan.render_text();
    // Cost-min picks the tiny tier for the knowledge lookup.
    assert!(text.contains("knowledge[gpt-tiny]"), "{text}");
}

#[test]
fn sessions_do_not_interfere() {
    let bp = hr_blueprint();
    let s1 = bp.start_session().unwrap();
    let s2 = bp.start_session().unwrap();
    let r1 = s1.handle(RUNNING_EXAMPLE).unwrap();
    let r2 = s2
        .handle("I am looking for a machine learning engineer position in oakland.")
        .unwrap();
    assert!(r1.outcome.succeeded());
    assert!(r2.outcome.succeeded());
    // Streams of each session stay under their scope.
    let s1_streams = bp.store().list_streams(Some(s1.session().scope()));
    assert!(s1_streams
        .iter()
        .all(|s| s.is_scoped_under(s1.session().scope())));
}

#[test]
fn plans_execute_exactly_once_with_concurrent_sessions() {
    // Two live sessions each have a coordinator daemon; a plan emitted in
    // session A must be executed by A's daemon only (no double execution).
    let bp = hr_blueprint();
    let s1 = bp.start_session().unwrap();
    let s2 = bp.start_session().unwrap();
    let form = UiForm::new("applicants", "Applicants");
    let status_sub = bp
        .store()
        .subscribe(Selector::AllStreams, TagFilter::any_of(["task-status"]))
        .unwrap();
    s1.click(&form, "job", json!(1)).unwrap();
    status_sub.recv_timeout(Duration::from_secs(15)).unwrap();
    // Give any (incorrect) second execution time to surface.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(s1.plans_executed(), 1);
    assert_eq!(s2.plans_executed(), 0);
    // Exactly one completion status exists.
    assert!(status_sub.drain().is_empty());
}

#[test]
fn registry_usage_grows_with_planning() {
    let bp = hr_blueprint();
    let session = bp.start_session().unwrap();
    let before = bp.agent_registry().get("job-matcher").unwrap().usage_count;
    session.handle(RUNNING_EXAMPLE).unwrap();
    session.handle(RUNNING_EXAMPLE).unwrap();
    let after = bp.agent_registry().get("job-matcher").unwrap().usage_count;
    assert_eq!(after, before + 2);
}

#[test]
fn greeting_is_answered_by_the_responder() {
    let bp = hr_blueprint();
    let session = bp.start_session().unwrap();
    let report = session.handle("hello there!").unwrap();
    assert!(report.outcome.succeeded());
    let Outcome::Completed { output } = &report.outcome else {
        panic!("expected completion: {:?}", report.outcome)
    };
    assert!(output["reply"].as_str().unwrap().starts_with("Hello!"));
    assert_eq!(report.node_results[0].agent, "responder");
}

#[test]
fn deterministic_across_runs() {
    // Two identical blueprints produce identical plan structures and
    // identical matched-job sets for the running example.
    let run = || {
        let bp = hr_blueprint();
        let session = bp.start_session().unwrap();
        let plan = session.plan(RUNNING_EXAMPLE).unwrap().render_text();
        let dp = bp.data_planner().plan_job_query(RUNNING_EXAMPLE).unwrap();
        let rows = bp.data_planner().execute(&dp).unwrap().value;
        (plan, rows)
    };
    let (plan_a, rows_a) = run();
    let (plan_b, rows_b) = run();
    assert_eq!(plan_a, plan_b);
    assert_eq!(rows_a, rows_b);
}
