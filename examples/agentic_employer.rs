//! Scenario II / the §VI case study: the Agentic Employer.
//!
//! Reproduces both interaction flows of the paper:
//!
//! * **Fig 9** — a UI click on a job id flows through streams to the
//!   Agentic Employer agent, which emits a plan; the Task Coordinator
//!   unrolls it into an `execute-agent` control message; the Summarizer
//!   produces the applicant-pool summary.
//! * **Fig 10** — conversation text is classified by the Intent Classifier,
//!   routed by the Agentic Employer as an `NLQ`-tagged stream, translated
//!   by NL2Q, executed by the SQL agent, and explained by the Query
//!   Summarizer — all via stream tags, no central driver.
//!
//! Run with: `cargo run -p blueprint-examples --bin agentic_employer`

use std::time::Duration;

use blueprint_core::agents::UiForm;
use blueprint_core::streams::{Selector, TagFilter};
use blueprint_core::Blueprint;
use blueprint_examples::banner;
use serde_json::json;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Tracing records the message flow printed at the end.
    let blueprint = Blueprint::builder()
        .with_hr_domain(Default::default())
        .with_tracing()
        .build()?;
    let session = blueprint.start_session()?;

    banner("Fig 9: flow initiated from the UI");
    let form = UiForm::new("applicants", "Applicants by job");
    let summary_sub = blueprint
        .store()
        .subscribe(Selector::AllStreams, TagFilter::any_of(["summary"]))?;
    let status_sub = blueprint
        .store()
        .subscribe(Selector::AllStreams, TagFilter::any_of(["task-status"]))?;

    println!("employer clicks job id 3 in the UI…");
    session.click(&form, "job", json!(3))?;
    let status = status_sub.recv_timeout(Duration::from_secs(10))?;
    println!("coordinator status: {}", status.control_op().unwrap_or("?"));
    let summary = summary_sub.recv_timeout(Duration::from_secs(10))?;
    println!("summarizer → {}", summary.payload().as_str().unwrap_or("?"));

    banner("Fig 10: flow initiated from conversation");
    let summary_sub2 = blueprint
        .store()
        .subscribe(Selector::AllStreams, TagFilter::any_of(["summary"]))?;
    println!("employer types: \"How many applicants per city?\"");
    session.say("How many applicants per city?")?;
    let summary2 = summary_sub2.recv_timeout(Duration::from_secs(10))?;
    println!(
        "query summarizer → {}",
        summary2.payload().as_str().unwrap_or("?")
    );

    banner("The recorded message-flow trace (sequence diagram)");
    let trace = blueprint.trace();
    for line in trace.render_sequence().lines().take(30) {
        println!("{line}");
    }
    let participants = trace.participants();
    println!("\nparticipants: {}", participants.join(" · "));
    Ok(())
}
