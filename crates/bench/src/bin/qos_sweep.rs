//! B5/B8 — the QoS sweep: which model tier the optimizer selects per
//! objective and constraint, and the end-to-end cost/latency/accuracy of
//! the running example under three QoS presets. The constraints bound the
//! whole plan (agent nodes and spliced data operators composed), as the
//! coordinator's joint optimization applies them.
//!
//! Run with: `cargo run -p blueprint-bench --bin qos_sweep`

use blueprint_bench::{bench_hr, figure, write_artifact, RUNNING_EXAMPLE};
use blueprint_core::coordinator::Outcome;
use blueprint_core::llmsim::ModelProfile;
use blueprint_core::optimizer::{Objective, QosConstraints};
use blueprint_core::Blueprint;
use serde_json::json;

fn blueprint_with(objective: Objective, constraints: QosConstraints) -> Blueprint {
    Blueprint::builder()
        .with_hr_domain(bench_hr())
        .with_model(ModelProfile::large())
        .with_extra_model(ModelProfile::small())
        .with_extra_model(ModelProfile::tiny())
        .with_objective(objective)
        .with_constraints(constraints)
        .build()
        .expect("blueprint assembles")
}

/// The knowledge source of the plan the runtime would run for the running
/// example: the task plan, lowered and optimized by the session's
/// coordinator exactly as `handle` does before it dispatches.
fn chosen_tier(bp: &Blueprint, constraints: &QosConstraints) -> String {
    let session = bp.start_session().expect("session");
    let plan = session.plan(RUNNING_EXAMPLE).expect("plans");
    let ir = session
        .coordinator()
        .lower(&plan, constraints)
        .expect("lowers");
    let text = ir.render_text();
    let source = text
        .split_once("knowledge[")
        .and_then(|(_, rest)| rest.split_once(']'));
    source.map_or_else(|| "-".into(), |(source, _)| source.to_string())
}

fn main() {
    figure(
        "B5",
        "Optimizer tier selection across objectives and constraints",
    );
    println!("\n{:<34} {:<12}", "objective / constraint", "chosen tier");
    println!("{}", "-".repeat(48));
    let mut selections = Vec::new();
    for (label, objective, constraints) in [
        (
            "min-cost, unconstrained",
            Objective::MinCost,
            QosConstraints::none(),
        ),
        (
            "min-cost, accuracy ≥ 0.70",
            Objective::MinCost,
            QosConstraints::none().with_min_accuracy(0.70),
        ),
        (
            "min-cost, accuracy ≥ 0.80",
            Objective::MinCost,
            QosConstraints::none().with_min_accuracy(0.80),
        ),
        (
            "min-latency, unconstrained",
            Objective::MinLatency,
            QosConstraints::none(),
        ),
        (
            "max-accuracy, unconstrained",
            Objective::MaxAccuracy,
            QosConstraints::none(),
        ),
        (
            "max-accuracy, latency ≤ 400ms",
            Objective::MaxAccuracy,
            QosConstraints::none().with_max_latency_micros(400_000),
        ),
        ("balanced", Objective::balanced(), QosConstraints::none()),
    ] {
        let bp = blueprint_with(objective, constraints);
        let tier = chosen_tier(&bp, &constraints);
        println!("{:<34} {:<12}", label, tier);
        selections.push(json!({ "setting": label, "chosen_tier": tier }));
    }

    figure("B8", "End-to-end running example under three QoS presets");
    println!(
        "\n{:<14} {:>10} {:>12} {:>10}  outcome",
        "preset", "cost", "latency(ms)", "jobs"
    );
    println!("{}", "-".repeat(64));
    let mut presets = Vec::new();
    for (label, objective) in [
        ("cost-min", Objective::MinCost),
        ("latency-min", Objective::MinLatency),
        ("accuracy-max", Objective::MaxAccuracy),
    ] {
        let bp = blueprint_with(objective, QosConstraints::none());
        let session = bp.start_session().expect("session");
        let report = session.handle(RUNNING_EXAMPLE).expect("handles");
        let jobs = match &report.outcome {
            Outcome::Completed { output } => output
                .get("rendered")
                .and_then(|v| v.as_str())
                .and_then(|s| s.split(" item").next())
                .unwrap_or("?")
                .to_string(),
            _ => "-".into(),
        };
        println!(
            "{:<14} {:>10.3} {:>12} {:>10}  {}",
            label,
            report.budget.spent_cost,
            report.budget.spent_latency_micros / 1_000,
            jobs,
            if report.outcome.succeeded() {
                "completed"
            } else {
                "failed"
            },
        );
        presets.push(json!({
            "preset": label,
            "cost_units": report.budget.spent_cost,
            "latency_micros": report.budget.spent_latency_micros,
            "jobs": jobs,
            "succeeded": report.outcome.succeeded(),
        }));
    }
    println!("\nReading: cost-min routes knowledge to the cheap tier (lower cost,");
    println!("fewer recovered cities → possibly fewer matches); accuracy-max pays");
    println!("the premium tier for full recall.");

    write_artifact(
        "qos_sweep",
        &json!({
            "figure": "qos_sweep",
            "tier_selection": selections,
            "end_to_end": presets,
        }),
    );
}
