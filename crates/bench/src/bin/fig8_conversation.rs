//! Fig 8 — a conversation in the Agentic Employer: interleaved UI
//! interactions and text turns, with rendered outputs.
//!
//! Run with: `cargo run -p blueprint-bench --bin fig8_conversation`

use std::time::Duration;

use blueprint_bench::{bench_blueprint, figure, write_artifact};
use blueprint_core::agents::UiForm;
use blueprint_core::streams::{Selector, TagFilter};
use serde_json::json;

fn main() {
    figure("Fig 8", "A conversation in Agentic Employer");
    let bp = bench_blueprint();
    let session = bp.start_session().expect("session");

    let summaries = bp
        .store()
        .subscribe(Selector::AllStreams, TagFilter::any_of(["summary"]))
        .expect("subscribe");

    let form = UiForm::new("applicants", "Applicants by job").with_field(
        blueprint_core::agents::UiField::select("job", "Job", ["1", "2", "3"]),
    );
    println!("\n[ui form rendered]");
    print!("{}", form.render_text());

    // Turn 1: UI selection.
    println!("employer clicks job 1 …");
    session.click(&form, "job", json!(1)).expect("click");
    let s1 = summaries
        .recv_timeout(Duration::from_secs(10))
        .expect("summary");
    println!("system: {}", s1.payload().as_str().unwrap_or("?"));
    let mut turns = vec![json!({
        "employer": "[clicks job 1]",
        "system": s1.payload().as_str().unwrap_or("?"),
    })];

    // Turn 2: open-ended question.
    for turn in [
        "How many applicants per city?",
        "how many applicants have python skills",
        "what is the average salary of jobs in san francisco",
    ] {
        println!("\nemployer: \"{turn}\"");
        session.say(turn).expect("say");
        let s = summaries
            .recv_timeout(Duration::from_secs(10))
            .expect("summary");
        println!("system: {}", s.payload().as_str().unwrap_or("?"));
        turns.push(json!({
            "employer": turn,
            "system": s.payload().as_str().unwrap_or("?"),
        }));
    }

    let stats = bp.store().stats();
    println!(
        "\nconversation stats: {} streams, {} messages, {} deliveries",
        stats.streams_created, stats.messages_published, stats.deliveries
    );

    write_artifact(
        "fig8_conversation",
        &json!({
            "figure": "fig8",
            "turns": turns,
            "streams": stats.streams_created,
            "messages": stats.messages_published,
            "deliveries": stats.deliveries,
        }),
    );
}
