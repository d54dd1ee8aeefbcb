//! Fig 9 — the flow initiated from the UI, step by step:
//!
//! 1. user (U) clicks a job id → event object on the form's event stream;
//! 2. Agentic Employer (AE) emits the job id and a plan to invoke the
//!    Summarizer (S);
//! 3. Task Coordinator (TC) unrolls the plan into an `execute-agent`
//!    control message;
//! 4. Summarizer executes and produces the summary.
//!
//! Run with: `cargo run -p blueprint-bench --bin fig9_ui_flow`

use std::time::Duration;

use blueprint_bench::{bench_hr, figure, write_artifact};
use blueprint_core::agents::UiForm;
use blueprint_core::streams::{Selector, TagFilter};
use blueprint_core::Blueprint;
use serde_json::json;

fn main() {
    figure("Fig 9", "Flow initiated from UI");
    // Tracing records the flow edges of the sequence diagram.
    let bp = Blueprint::builder()
        .with_hr_domain(bench_hr())
        .with_tracing()
        .build()
        .expect("blueprint assembles");
    let session = bp.start_session().expect("session");
    bp.observability().tracer.clear(); // trace only this flow

    let summaries = bp
        .store()
        .subscribe(Selector::AllStreams, TagFilter::any_of(["summary"]))
        .expect("subscribe");
    let statuses = bp
        .store()
        .subscribe(Selector::AllStreams, TagFilter::any_of(["task-status"]))
        .expect("subscribe");

    let form = UiForm::new("applicants", "Applicants by job");
    println!("\nStep 1: U clicks job id 3 → ui-event message");
    session.click(&form, "job", json!(3)).expect("click");

    let summary = summaries
        .recv_timeout(Duration::from_secs(10))
        .expect("summary");
    println!(
        "Final: S produced → {}\n",
        summary.payload.as_str().unwrap_or("?")
    );

    // The coordinator publishes the plan's completion after the summary:
    // wait for it, so the recorded flow is complete whatever the thread
    // timing.
    loop {
        let status = statuses
            .recv_timeout(Duration::from_secs(10))
            .expect("task status");
        if status.control_op() == Some("task-completed") {
            break;
        }
    }

    println!("sequence (from the trace's flow edges):");
    let trace = bp.trace();
    let sequence = trace.render_sequence();
    // Keep the lines involving the Fig 9 participants.
    for line in sequence.lines() {
        if ["user", "agentic-employer", "task-coordinator", "summarizer"]
            .iter()
            .any(|p| line.contains(p))
        {
            println!("{line}");
        }
    }

    // Assert the paper's ordering: U → AE → TC → S.
    let participants = trace.participants();
    let pos = |name: &str| participants.iter().position(|p| p == name);
    let (u, ae, tc, s) = (
        pos("user").expect("user in trace"),
        pos("agentic-employer").expect("AE in trace"),
        pos("task-coordinator").expect("TC in trace"),
        pos("summarizer").expect("S in trace"),
    );
    assert!(u < ae && ae < tc && tc < s, "U→AE→TC→S ordering holds");
    println!("\n✓ participant order U → AE → TC → S reproduced");

    write_artifact(
        "fig9_ui_flow",
        &json!({
            "figure": "fig9",
            "summary": summary.payload.as_str().unwrap_or("?"),
            "participants": participants,
            "ordering": "user → agentic-employer → task-coordinator → summarizer",
            "sequence": sequence,
        }),
    );
}
