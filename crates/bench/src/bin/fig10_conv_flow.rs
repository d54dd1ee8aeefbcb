//! Fig 10 — the flow initiated from conversation, step by step:
//!
//! 1. user text enters a stream;
//! 2. Intent Classifier (IC) emits the identified intent;
//! 3. Agentic Employer (AE) tags the query `NLQ`; NL2Q produces SQL;
//! 4. the SQL agent (QE) executes the query;
//! 5. the Query Summarizer (QS) explains the results.
//!
//! Steps 3–5 chain automatically through stream tags (decentralized
//! execution — no coordinator involved).
//!
//! Run with: `cargo run -p blueprint-bench --bin fig10_conv_flow`

use std::time::Duration;

use blueprint_bench::{bench_hr, figure, write_artifact};
use blueprint_core::streams::{Selector, TagFilter};
use blueprint_core::Blueprint;
use serde_json::json;

fn main() {
    figure("Fig 10", "Flow initiated from conversation");
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

    let utterance = "How many applicants per city?";
    println!("\nStep 1: user types \"{utterance}\"");
    session.say(utterance).expect("say");

    let summary = summaries
        .recv_timeout(Duration::from_secs(10))
        .expect("summary");
    println!(
        "Final: QS produced → {}\n",
        summary.payload().as_str().unwrap_or("?")
    );

    println!("sequence (from the trace's flow edges):");
    let trace = bp.trace();
    let sequence = trace.render_sequence();
    for line in sequence.lines() {
        if [
            "user",
            "intent-classifier",
            "agentic-employer",
            "nl2q",
            "sql-executor",
            "query-summarizer",
        ]
        .iter()
        .any(|p| line.contains(p))
        {
            println!("{line}");
        }
    }

    // Assert the paper's ordering: U → IC → AE → NL2Q → QE → QS.
    let participants = trace.participants();
    let pos = |name: &str| participants.iter().position(|p| p == name);
    let order = [
        pos("user").expect("user"),
        pos("intent-classifier").expect("IC"),
        pos("agentic-employer").expect("AE"),
        pos("nl2q").expect("NL2Q"),
        pos("sql-executor").expect("QE"),
        pos("query-summarizer").expect("QS"),
    ];
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "tag chain order holds"
    );
    println!("\n✓ participant order U → IC → AE → NL2Q → QE → QS reproduced");
    println!("✓ no coordinator participated: fully decentralized via tags");

    write_artifact(
        "fig10_conv_flow",
        &json!({
            "figure": "fig10",
            "utterance": utterance,
            "summary": summary.payload().as_str().unwrap_or("?"),
            "participants": participants,
            "ordering": "user → intent-classifier → agentic-employer → nl2q → sql-executor → query-summarizer",
            "sequence": sequence,
        }),
    );
}
