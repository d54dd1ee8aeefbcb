//! Integration: the §III-A guardrail modules and §V-F interactive planning
//! working against the live runtime.

use std::time::Duration;

use blueprint_core::agents::{ExecuteAgent, Inputs};
use blueprint_core::coordinator::Outcome;
use blueprint_core::hrdomain::HrConfig;
use blueprint_core::planner::PlanFeedback;
use blueprint_core::streams::{Selector, StreamId, TagFilter};
use blueprint_core::Blueprint;
use serde_json::json;

const RUNNING_EXAMPLE: &str = "I am looking for a data scientist position in SF bay area.";

fn guarded_blueprint() -> Blueprint {
    Blueprint::builder()
        .with_hr_domain(HrConfig {
            seed: 31,
            jobs: 80,
            applicants: 60,
            companies: 10,
            applications: 150,
        })
        .with_guardrails()
        .build()
        .unwrap()
}

#[test]
fn refined_plan_executes_without_removed_agent() {
    let bp = guarded_blueprint();
    let session = bp.start_session().unwrap();
    let plan = session.plan(RUNNING_EXAMPLE).unwrap();
    let refined = bp
        .task_planner()
        .refine(&plan, &PlanFeedback::RemoveAgent("profiler".into()))
        .unwrap();
    let report = session.execute(&refined).unwrap();
    assert!(report.outcome.succeeded());
    assert!(report.node_results.iter().all(|n| n.agent != "profiler"));
    assert_eq!(report.node_results.len(), 2);
}

#[test]
fn pinned_input_reaches_the_agent() {
    let bp = guarded_blueprint();
    let session = bp.start_session().unwrap();
    let plan = session.plan(RUNNING_EXAMPLE).unwrap();
    let refined = bp
        .task_planner()
        .refine(
            &plan,
            &PlanFeedback::PinInput {
                agent: "job-matcher".into(),
                param: "criteria".into(),
                value: json!("remote only"),
            },
        )
        .unwrap();
    let report = session.execute(&refined).unwrap();
    assert!(report.outcome.succeeded());
    // The instruction stream shows the literal criteria delivered.
    let scope = session.session().scope();
    let instructions = bp
        .store()
        .read(&StreamId::new(format!("{scope}:instructions")), 0)
        .unwrap();
    let matcher_instr = instructions
        .iter()
        .filter_map(|m| ExecuteAgent::from_message(m))
        .find(|e| e.agent == "job-matcher")
        .unwrap();
    assert_eq!(
        matcher_instr.inputs.get("criteria"),
        Some(&json!("remote only"))
    );
}

#[test]
fn moderator_blocks_pii_through_the_stream_path() {
    let bp = guarded_blueprint();
    let session = bp.start_session().unwrap();
    let scope = session.session().scope().to_string();
    let out_sub = bp
        .store()
        .subscribe(
            Selector::Stream(StreamId::new(format!("{scope}:moderation"))),
            TagFilter::all(),
        )
        .unwrap();
    let instr = ExecuteAgent {
        agent: "content-moderator".into(),
        inputs: Inputs::new().with(
            "text",
            json!("please email the candidate's SSN to hr@example.com"),
        ),
        output_stream: format!("{scope}:moderation"),
        task_id: "mod-1".into(),
        node_id: "n1".into(),
        span: None,
    };
    bp.store()
        .publish_to(
            format!("{scope}:instructions"),
            ["instructions"],
            instr.into_message(),
        )
        .unwrap();
    let verdict = out_sub.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(verdict.payload()["allowed"], json!(false));
    let reasons = verdict.payload()["reasons"].as_array().unwrap();
    assert!(reasons.len() >= 2); // SSN term + email PII
}

#[test]
fn verifier_checks_summarizer_claims_end_to_end() {
    // Run the decentralized Fig 10 chain, then have the fact-verifier check
    // the produced summary against the SQL rows it summarizes.
    let bp = guarded_blueprint();
    let session = bp.start_session().unwrap();
    let rows_sub = bp
        .store()
        .subscribe(Selector::AllStreams, TagFilter::any_of(["rows"]))
        .unwrap();
    let summary_sub = bp
        .store()
        .subscribe(Selector::AllStreams, TagFilter::any_of(["summary"]))
        .unwrap();
    session.say("How many applicants per city?").unwrap();
    let rows = rows_sub.recv_timeout(Duration::from_secs(15)).unwrap();
    let summary = summary_sub.recv_timeout(Duration::from_secs(15)).unwrap();

    // Drive the verifier with the (claim, rows) pair.
    let scope = session.session().scope().to_string();
    let verdict_sub = bp
        .store()
        .subscribe(
            Selector::Stream(StreamId::new(format!("{scope}:verification"))),
            TagFilter::all(),
        )
        .unwrap();
    let instr = ExecuteAgent {
        agent: "fact-verifier".into(),
        inputs: Inputs::new()
            .with("claim", summary.payload().clone())
            .with("rows", rows.payload().clone()),
        output_stream: format!("{scope}:verification"),
        task_id: "verify-1".into(),
        node_id: "n1".into(),
        span: None,
    };
    bp.store()
        .publish_to(
            format!("{scope}:instructions"),
            ["instructions"],
            instr.into_message(),
        )
        .unwrap();
    let verdict = verdict_sub.recv_timeout(Duration::from_secs(10)).unwrap();
    // The honest summarizer's row-count claim is grounded in the data.
    assert_eq!(
        verdict.payload()["supported"],
        json!(true),
        "verifier said: {}",
        verdict.payload()["explanation"]
    );
}

#[test]
fn incremental_execution_step_by_step() {
    // Dynamic planning: execute the decomposition one node at a time,
    // deciding after each step whether to continue (§V-F).
    let bp = guarded_blueprint();
    let session = bp.start_session().unwrap();
    let mut completed = 0usize;
    let mut succeeded = 0usize;
    while let Some(step) = bp
        .task_planner()
        .plan_step(RUNNING_EXAMPLE, completed)
        .unwrap()
    {
        let report = session.execute(&step).unwrap();
        if matches!(report.outcome, Outcome::Completed { .. }) {
            succeeded += 1;
        }
        completed += 1;
    }
    assert_eq!(completed, 3);
    assert_eq!(succeeded, 3);
}
