//! Fig 6 — the task plan for the running example: PROFILER → JOB MATCHER →
//! PRESENTER with input and output parameters connected.
//!
//! Run with: `cargo run -p blueprint-bench --bin fig6_task_plan`

use blueprint_bench::{bench_blueprint, figure, write_artifact, RUNNING_EXAMPLE};
use blueprint_core::planner::PlanIr;
use serde_json::json;

fn main() {
    figure(
        "Fig 6",
        "A task plan: connecting agent input/output parameters",
    );
    let bp = bench_blueprint();
    let planner = bp.task_planner();

    let (intent, subtasks) = planner.decompose(RUNNING_EXAMPLE);
    println!("\nutterance : \"{RUNNING_EXAMPLE}\"");
    println!("intent    : {intent:?}");
    println!("sub-tasks :");
    for (i, s) in subtasks.iter().enumerate() {
        println!("  {}. {s}", i + 1);
    }

    let plan = planner.plan(RUNNING_EXAMPLE).expect("plans");
    println!("\n{}", plan.render_text());

    let profile = plan.projected_profile();
    println!("projected QoS (fed to the budget):");
    println!("  cost     : {:.2} units", profile.cost_per_call);
    println!("  latency  : {} ms", profile.latency_micros / 1_000);
    println!("  accuracy : {:.3}", profile.accuracy);

    println!("edges (derived from FromNode bindings):");
    for e in plan.edges() {
        println!("  {} → {}", e.from, e.to);
    }
    println!(
        "topological order: {:?}",
        plan.topo_order().expect("acyclic")
    );

    // The same plan lowered into the unified IR, with every FromData binding
    // spliced into the owning task node (§V-F ∘ §V-G in one DAG).
    let ir = PlanIr::lower_spliced(&plan, bp.data_planner()).expect("lowers");
    println!("\nlowered unified IR (data plans spliced in):");
    print!("{}", ir.render_text());

    write_artifact(
        "fig6_task_plan",
        &json!({
            "figure": "fig6",
            "utterance": RUNNING_EXAMPLE,
            "intent": format!("{intent:?}"),
            "subtasks": subtasks,
            "plan": plan.render_text(),
            "projected": {
                "cost_units": profile.cost_per_call,
                "latency_micros": profile.latency_micros,
                "accuracy": profile.accuracy,
            },
            "edges": plan.edges().iter().map(|e| json!([e.from, e.to])).collect::<Vec<_>>(),
            "topo_order": plan.topo_order().expect("acyclic"),
            "ir": ir.render_text(),
            // Every agent node and spliced operator is one choice point.
            "ir_nodes": ir.choice_points().len(),
        }),
    );
}
