//! Fig 3 — agent anatomy: triggered by data/control messages from incoming
//! streams, the processor runs and produces outputs to output streams.
//!
//! Run with: `cargo run -p blueprint-bench --bin fig3_agent_anatomy`

use std::sync::Arc;
use std::time::Duration;

use blueprint_bench::{figure, write_artifact};
use blueprint_core::agents::{
    AgentContext, AgentHost, AgentSpec, DataType, FnProcessor, Inputs, Outputs, ParamSpec,
    Processor, StreamBinding,
};
use blueprint_core::observability::{Observability, SimClock, Tracer};
use blueprint_core::streams::{Message, Selector, StreamStore, TagFilter};
use serde_json::json;

fn main() {
    figure(
        "Fig 3",
        "Agents: incoming streams → processor() → output streams",
    );
    // A store whose tracer records the flow edges drawn below.
    let clock = SimClock::new();
    let obs = Observability {
        tracer: Tracer::new(clock.clone()),
        ..Observability::disarmed()
    };
    let store = StreamStore::observed(clock, obs);

    // An agent with one bound input parameter and one output parameter.
    let spec = AgentSpec::new("skill-extractor", "extract skills from resume text")
        .with_input(ParamSpec::required("resume", "resume text", DataType::Text))
        .with_output(ParamSpec::required(
            "skills",
            "extracted skills",
            DataType::List,
        ))
        .with_binding(StreamBinding::tagged("resume", ["resume"]))
        .with_output_tag("skills");
    println!("\nagent spec:");
    println!("  name       : {}", spec.name);
    println!(
        "  inputs     : {:?}",
        spec.inputs.iter().map(|p| &p.name).collect::<Vec<_>>()
    );
    println!(
        "  outputs    : {:?}",
        spec.outputs.iter().map(|p| &p.name).collect::<Vec<_>>()
    );
    println!("  trigger    : messages tagged [resume] on any stream");

    let proc: Arc<dyn Processor> =
        Arc::new(FnProcessor::new(|inputs: &Inputs, ctx: &AgentContext| {
            let text = inputs.require_str("resume")?;
            ctx.charge_cost(0.01);
            ctx.charge_latency_micros(500);
            let skills: Vec<&str> = ["python", "sql", "rust"]
                .into_iter()
                .filter(|s| text.to_lowercase().contains(*s))
                .collect();
            Ok(Outputs::new().with("skills", json!(skills)))
        }));
    let _host = AgentHost::start(spec, proc, store.clone(), "session:1").expect("host starts");

    let out_sub = store
        .subscribe(Selector::AllStreams, TagFilter::any_of(["skills"]))
        .expect("subscribe");
    let report_sub = store
        .subscribe(Selector::AllStreams, TagFilter::any_of(["agent-report"]))
        .expect("subscribe");

    println!("\npublishing data message onto session:1:resumes (tagged resume)…");
    store
        .publish_to(
            "session:1:resumes",
            ["resumes"],
            Message::data("Senior engineer. Python and SQL daily; learning Rust.")
                .with_tag("resume")
                .from_producer("user"),
        )
        .expect("publish");

    let out = out_sub
        .recv_timeout(Duration::from_secs(5))
        .expect("agent fired");
    println!("agent fired: skills = {}", out.payload());
    println!("output stream: session:1:skill-extractor:out");
    // The host publishes its report after the output: wait for it, so the
    // recorded flow is complete whatever the thread timing.
    report_sub
        .recv_timeout(Duration::from_secs(5))
        .expect("agent report");

    let flow = store.observability().tracer.snapshot().render_sequence();
    println!("\nrecorded flow:");
    print!("{flow}");

    write_artifact(
        "fig3_agent_anatomy",
        &json!({
            "figure": "fig3",
            "agent": "skill-extractor",
            "trigger": "messages tagged [resume] on any stream",
            "skills": out.payload(),
            "flow": flow,
        }),
    );
}
