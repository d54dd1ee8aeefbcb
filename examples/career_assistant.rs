//! Scenario I (§II-A): the conversational career assistant.
//!
//! Job seekers explore roles and run searches; each utterance is planned by
//! the task planner and executed by the coordinator, with the data planner
//! pulling jobs through the Fig 7 decomposition (LLM region knowledge +
//! taxonomy title expansion + relational select).
//!
//! Run with: `cargo run -p blueprint-examples --bin career_assistant`

use blueprint_core::coordinator::Outcome;
use blueprint_core::hrdomain::HrConfig;
use blueprint_core::Blueprint;
use blueprint_examples::banner;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let blueprint = Blueprint::builder()
        .with_hr_domain(HrConfig {
            seed: 2026,
            jobs: 400,
            applicants: 200,
            companies: 30,
            applications: 800,
        })
        .build()?;
    let session = blueprint.start_session()?;

    let inquiries = [
        "I am looking for a data scientist position in SF bay area.",
        "I am looking for a machine learning engineer position in oakland.",
        "what are the required skills for a data scientist?",
    ];

    for utterance in inquiries {
        banner(&format!("seeker: \"{utterance}\""));
        match session.handle(utterance) {
            Ok(report) => match &report.outcome {
                Outcome::Completed { output } => {
                    if let Some(rendered) = output.get("rendered").and_then(|v| v.as_str()) {
                        println!("{rendered}");
                    } else if let Some(summary) = output.get("summary").and_then(|v| v.as_str()) {
                        println!("{summary}");
                    } else {
                        println!("{output}");
                    }
                    println!(
                        "(cost {:.3}, latency {} ms, {} agents)",
                        report.budget.spent_cost,
                        report.budget.spent_latency_micros / 1_000,
                        report.node_results.len()
                    );
                }
                other => println!("(did not complete: {other:?})"),
            },
            Err(e) => println!("(planning failed: {e})"),
        }
    }

    banner("the data planner's decomposition for the region query (Fig 7)");
    let plan = blueprint
        .data_planner()
        .plan_job_query("data scientist position in sf bay area")?;
    print!("{}", plan.render_text());
    let executed = blueprint.data_planner().execute(&plan)?;
    println!(
        "→ {} matching jobs, data-plan cost {:.3}",
        executed
            .value
            .as_json()
            .as_array()
            .map(Vec::len)
            .unwrap_or(0),
        executed.actual.cost_per_call
    );
    Ok(())
}
