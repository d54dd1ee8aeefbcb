//! End-to-end observability: deterministic traces, hand-countable metrics,
//! and a Chrome export whose span tree matches the plan DAG.

use blueprint_core::observability::{SpanKind, Trace};
use blueprint_core::Blueprint;

const RUNNING_EXAMPLE: &str = "I am looking for a data scientist position in SF bay area.";

/// Boots an armed runtime, drives the running example once, and returns the
/// recorded trace plus the metrics snapshot.
fn traced_run() -> (Trace, blueprint_core::observability::MetricsSnapshot) {
    let bp = Blueprint::builder()
        .with_hr_domain(Default::default())
        .with_tracing()
        .with_metrics()
        .build()
        .unwrap();
    let session = bp.start_session().unwrap();
    let report = session.handle(RUNNING_EXAMPLE).unwrap();
    assert!(report.outcome.succeeded(), "outcome: {:?}", report.outcome);
    (bp.trace(), bp.metrics())
}

#[test]
fn identical_runs_yield_identical_traces() {
    let (a, _) = traced_run();
    let (b, _) = traced_run();
    // Sim-clock stamps make the whole tree byte-stable: same span names,
    // same parentage, same ids, same timestamps.
    assert_eq!(a.spans, b.spans);
    assert_eq!(
        a.to_chrome_json().to_string(),
        b.to_chrome_json().to_string()
    );
}

#[test]
fn trace_tree_matches_plan_dag() {
    let (trace, _) = traced_run();

    // One trace tree per task.
    let roots = trace.roots();
    assert_eq!(roots.len(), 1, "trace:\n{}", trace.render_text());
    let task = roots[0];
    assert!(task.name.starts_with("task:"));
    assert_eq!(task.category, "coordinator");

    // The running example plans a 3-node chain (profiler → job-matcher →
    // presenter): each node span parents the next, and each node span has
    // exactly one invoke child.
    let expected = ["profiler", "job-matcher", "presenter"];
    let mut parent = task.id;
    for (i, agent) in expected.iter().enumerate() {
        let children: Vec<_> = trace
            .children_of(parent)
            .into_iter()
            .filter(|s| s.kind == SpanKind::Span)
            .collect();
        let node = children
            .iter()
            .find(|s| s.name == format!("node:n{}", i + 1))
            .unwrap_or_else(|| panic!("missing node span n{}:\n{}", i + 1, trace.render_text()));
        assert_eq!(node.attrs.get("agent").map(String::as_str), Some(*agent));
        let invoke = trace
            .find(&format!("invoke:{agent}"))
            .unwrap_or_else(|| panic!("missing invoke span for {agent}"));
        assert_eq!(invoke.parent, Some(node.id), "invoke parents its node span");
        assert!(invoke.start_micros >= node.start_micros);
        assert!(invoke.end_micros <= node.end_micros);
        parent = node.id;
    }
}

#[test]
fn chrome_export_mirrors_the_tree() {
    let (trace, _) = traced_run();
    let chrome = trace.to_chrome_json();
    let events = chrome["traceEvents"].as_array().unwrap();
    assert_eq!(events.len(), trace.spans.len());
    // Parentage follows plan-DAG edges, so a child node span may start when
    // its parent node ends; but no child starts before its parent does, and
    // invoke spans nest fully inside their node span.
    for span in &trace.spans {
        let Some(parent_id) = span.parent else {
            continue;
        };
        let parent = trace.spans.iter().find(|s| s.id == parent_id).unwrap();
        assert!(span.start_micros >= parent.start_micros);
        if span.name.starts_with("invoke:") {
            assert!(span.end_micros <= parent.end_micros);
        }
    }
    let task = events
        .iter()
        .find(|e| e["name"].as_str().is_some_and(|n| n.starts_with("task:")))
        .unwrap();
    assert_eq!(task["ph"].as_str(), Some("X"));
    assert!(task["dur"].as_u64().unwrap() > 0);
}

#[test]
fn metrics_match_hand_counts_for_three_node_plan() {
    let (_, snap) = traced_run();
    // The chain plan dispatches each of its 3 nodes exactly once; every
    // dispatch invokes one agent; nothing fails, retries, or memoizes.
    assert_eq!(snap.counter("blueprint.coordinator.dispatches"), 3);
    assert_eq!(snap.counter("blueprint.agents.invocations"), 3);
    assert_eq!(snap.counter("blueprint.agents.failures"), 0);
    assert_eq!(snap.counter("blueprint.coordinator.memo_hits"), 0);
    assert_eq!(snap.counter("blueprint.resilience.retries"), 0);
    // Data access and model calls happened and were metered.
    assert!(snap.counter("blueprint.llmsim.calls") > 0);
    assert!(snap.counter("blueprint.datastore.queries") > 0);
    assert!(snap.counter("blueprint.optimizer.budget_debits") >= 3);
    assert!(snap.counter("blueprint.streams.publishes") > 0);
    // Identical runs meter identically.
    let (_, again) = traced_run();
    assert_eq!(snap.counters, again.counters);
}

#[test]
fn untraced_runtime_records_no_flow_edge_or_dispatch_over_1000_turns() {
    let bp = Blueprint::builder()
        .with_hr_domain(integration_tests::small_hr())
        .with_serving(4, 2)
        .with_metrics()
        .build()
        .unwrap();
    let serving = bp.serving().unwrap();
    let sessions: Vec<u64> = (0..4).map(|_| serving.open_session().unwrap()).collect();
    for turn in 0..1_000 {
        serving
            .submit(sessions[turn % sessions.len()], "hello there!")
            .unwrap();
    }
    serving.await_idle();
    for id in sessions {
        let report = serving.finish(id).unwrap();
        assert_eq!(report.completions.len(), 250);
    }
    // Every turn was dispatched and published, and none of it was kept.
    let snap = bp.metrics();
    assert_eq!(snap.counter("blueprint.session.dispatches"), 1_000);
    assert!(snap.counter("blueprint.streams.publishes") >= 1_000);
    let trace = bp.trace();
    assert!(trace.flows.is_empty(), "{} flow edges", trace.flows.len());
    assert!(
        trace.spans.is_empty(),
        "{} trace records",
        trace.spans.len()
    );
}

#[test]
fn store_stats_are_the_streams_instruments_after_an_nl2sql_turn() {
    let bp = Blueprint::builder()
        .with_hr_domain(integration_tests::small_hr())
        .with_metrics()
        .build()
        .unwrap();
    let session = bp.start_session().unwrap();
    let report = session.handle("How many applicants per city?").unwrap();
    assert!(report.outcome.succeeded(), "outcome: {:?}", report.outcome);
    // Let any tag-triggered follow-up settle before reading both views.
    let mut stats = bp.store().stats();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(50));
        let again = bp.store().stats();
        if again == stats {
            break;
        }
        stats = again;
    }
    let snap = bp.metrics();
    let counter = |name: &str| snap.counter(&format!("blueprint.streams.{name}"));
    assert!(stats.messages_published > 0 && stats.deliveries > 0);
    assert_eq!(stats.streams_created, counter("streams_created"));
    assert_eq!(stats.messages_published, counter("publishes"));
    assert_eq!(stats.deliveries, counter("deliveries"));
    assert_eq!(stats.bytes_published, counter("bytes_published"));
    assert_eq!(
        stats.active_subscriptions as i64,
        snap.gauge("blueprint.streams.active_subscriptions")
    );
    assert_eq!(stats.faults_dropped, counter("faults_dropped"));
    assert_eq!(stats.faults_duplicated, counter("faults_duplicated"));
    assert_eq!(stats.faults_delayed, counter("faults_delayed"));
}

#[test]
fn traced_runtime_records_the_turn_as_flow_edges() {
    let bp = Blueprint::builder()
        .with_hr_domain(integration_tests::small_hr())
        .with_tracing()
        .build()
        .unwrap();
    let session = bp.start_session().unwrap();
    let report = session.handle(RUNNING_EXAMPLE).unwrap();
    assert!(report.outcome.succeeded(), "outcome: {:?}", report.outcome);
    let trace = bp.trace();
    let sequence = trace.render_sequence();
    // The coordinator instructs each of the three agents, and each host
    // records consuming its instruction.
    for agent in ["profiler", "job-matcher", "presenter"] {
        assert!(
            sequence.contains(&format!(
                "{agent} <--[control:execute-agent]-- instructions"
            )),
            "no consume edge for {agent}:\n{sequence}"
        );
    }
    assert!(
        trace.participants().iter().any(|p| p == "task-coordinator"),
        "{sequence}"
    );
}
