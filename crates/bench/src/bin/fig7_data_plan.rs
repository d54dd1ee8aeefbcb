//! Fig 7 — the data plan: JOBS relational table in conjunction with an LLM
//! (GPT) as a data source, with the injected Q2NL operator and taxonomy
//! expansion — versus the direct NL2Q baseline the paper says "may not
//! always work".
//!
//! Run with: `cargo run -p blueprint-bench --bin fig7_data_plan`

use blueprint_bench::{bench_blueprint, figure, write_artifact, RUNNING_EXAMPLE};
use blueprint_core::planner::PlanIr;
use serde_json::json;

fn main() {
    figure("Fig 7", "A data plan using JOBS ⋈ LLM(GPT) as data sources");
    let bp = bench_blueprint();
    let dp = bp.data_planner();

    println!("\nquery: \"{RUNNING_EXAMPLE}\"");

    println!("\n── decomposed plan (the paper's approach) ──");
    let plan = dp.plan_job_query(RUNNING_EXAMPLE).expect("plans");
    print!("{}", plan.render_text());
    let est = plan.projected_estimate();
    println!(
        "estimated: cost {:.3}, latency {} ms, accuracy {:.2}",
        est.cost_units,
        est.latency_micros / 1_000,
        est.accuracy
    );
    let result = dp.execute(&plan).expect("executes");
    println!("\nexecution trace:");
    for (node, op, rows) in &result.trace {
        println!("  {node} {op:<14} → {rows} row(s)");
    }
    let decomposed_rows = result.value.as_json().as_array().map(Vec::len).unwrap_or(0);
    println!("result: {decomposed_rows} matching jobs");

    println!("\n── direct NL2Q baseline (§V-G: \"may not always work\") ──");
    let dataset = bp.dataset().expect("hr domain");
    let direct = dp
        .plan_nl2q_direct(RUNNING_EXAMPLE, &dataset.db, "hr-db")
        .expect("plans");
    print!("{}", direct.render_text());
    let direct_result = dp.execute(&direct).expect("executes");
    let direct_rows = direct_result
        .value
        .as_json()
        .as_array()
        .map(Vec::len)
        .unwrap_or(0);
    println!("result: {direct_rows} matching jobs");

    println!("\n── comparison ──");
    println!("  decomposed plan : {decomposed_rows} jobs (bay-area cities resolved via LLM, titles via taxonomy)");
    println!("  direct NL2Q     : {direct_rows} jobs (\"SF bay area\" matches no city literal)");
    assert!(decomposed_rows > direct_rows);
    println!(
        "  → decomposition recovers {} jobs the direct query misses",
        decomposed_rows - direct_rows
    );

    // The standalone data plan in the unified IR's text form: the same
    // operator lines the IR draws once the plan is spliced into a task plan.
    let ir = PlanIr::render_data_plan(&plan);
    println!("\nlowered unified IR (standalone data plan):");
    print!("{ir}");

    write_artifact(
        "fig7_data_plan",
        &json!({
            "figure": "fig7",
            "query": RUNNING_EXAMPLE,
            "decomposed": {
                "plan": plan.render_text(),
                "estimated": {
                    "cost_units": est.cost_units,
                    "latency_micros": est.latency_micros,
                    "accuracy": est.accuracy,
                },
                "rows": decomposed_rows,
            },
            "direct_nl2q": {
                "plan": direct.render_text(),
                "rows": direct_rows,
            },
            "recovered_rows": decomposed_rows - direct_rows,
            "ir": ir,
        }),
    );
}
