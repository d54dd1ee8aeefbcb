//! A terminal chat REPL over the blueprint runtime: type text and watch the
//! decentralized agent chain answer; slash-commands expose the architecture
//! (plans, budget, activity, trace).
//!
//! Run with: `cargo run -p blueprint-examples --bin chat_repl`
//!
//! Commands:
//!
//! ```text
//! /plan <text>   show the task plan without executing
//! /run <text>    centralized execution through the coordinator
//! /activity      session activity log
//! /trace         recent message-flow trace
//! /stats         streams-database counters
//! /quit          exit
//! ```
//!
//! Anything else is published as tagged user text (decentralized path).

use std::io::{BufRead, Write};
use std::time::Duration;

use blueprint_core::coordinator::Outcome;
use blueprint_core::streams::{Selector, TagFilter};
use blueprint_core::Blueprint;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Tracing records the message flow that `/trace` prints.
    let blueprint = Blueprint::builder()
        .with_hr_domain(Default::default())
        .with_guardrails()
        .with_tracing()
        .build()?;
    let session = blueprint.start_session()?;
    let summaries = blueprint.store().subscribe(
        Selector::AllStreams,
        TagFilter::any_of(["summary", "reply"]),
    )?;

    println!(
        "blueprint chat — YourJourney HR domain loaded ({} agents).",
        blueprint.factory().registered().len()
    );
    println!("Try: How many applicants per city?   (or /run, /plan, /trace, /quit)\n");

    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    loop {
        print!("you> ");
        std::io::stdout().flush()?;
        let Some(Ok(line)) = lines.next() else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("/plan ") {
            match session.plan(rest) {
                Ok(plan) => print!("{}", plan.render_text()),
                Err(e) => println!("(cannot plan: {e})"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("/run ") {
            match session.handle(rest) {
                Ok(report) => {
                    match &report.outcome {
                        Outcome::Completed { output } => println!(
                            "sys> {}",
                            output
                                .get("rendered")
                                .or_else(|| output.get("summary"))
                                .and_then(|v| v.as_str())
                                .unwrap_or("(done)")
                        ),
                        other => println!("sys> {other:?}"),
                    }
                    println!(
                        "     (cost {:.3}, latency {} ms)",
                        report.budget.spent_cost,
                        report.budget.spent_latency_micros / 1_000
                    );
                }
                Err(e) => println!("(failed: {e})"),
            }
            continue;
        }
        match line {
            "/quit" | "/exit" => break,
            "/activity" => {
                for a in session.session().activity() {
                    println!("  {a}");
                }
            }
            "/trace" => {
                let trace = blueprint.trace().render_sequence();
                for l in trace
                    .lines()
                    .rev()
                    .take(15)
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                {
                    println!("{l}");
                }
            }
            "/stats" => {
                let s = blueprint.store().stats();
                println!(
                    "  streams={} messages={} deliveries={} bytes={}",
                    s.streams_created, s.messages_published, s.deliveries, s.bytes_published
                );
            }
            text => {
                // Moderation gate, then the decentralized path (Fig 10).
                let verdict = blueprint_core::hrdomain::moderate(text);
                if !verdict.allowed {
                    println!(
                        "sys> blocked by content moderation: {}",
                        verdict.reasons.join("; ")
                    );
                    continue;
                }
                session.say(text)?;
                match summaries.recv_timeout(Duration::from_secs(10)) {
                    Ok(m) => println!("sys> {}", m.payload.as_str().unwrap_or("?")),
                    Err(_) => println!("sys> (no agent answered — try /run {text})"),
                }
            }
        }
    }
    println!("bye.");
    Ok(())
}
