//! A disarmed tracer allocates nothing: span names are rendered and
//! attribute values copied only when the tracer is armed. A counting global
//! allocator (std only) counts the allocations made on the calling thread,
//! so tests running in parallel do not disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use blueprint_observability::{SimClock, SpanId, Tracer};

/// Forwards to the system allocator, counting allocations and reallocations
/// per thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one traced task does: a task span, node spans under it, an invoke
/// span under each node, attributes on each, and an instant. Names are
/// formatted lazily, as the coordinator and the agent hosts pass them.
fn task(tracer: &Tracer, task_id: &str, goal: &str) {
    let mut task = tracer.span("coordinator", format_args!("task:{task_id}"));
    task.attr("utterance", goal);
    for node_id in ["n1", "n2", "n3"] {
        let mut node = match task.id() {
            Some(pid) => tracer.child_span("coordinator", format_args!("node:{node_id}"), pid),
            None => tracer.span("coordinator", format_args!("node:{node_id}")),
        };
        node.attr("agent", "job-matcher");
        let mut invoke = tracer.child_span(
            "agents",
            format_args!("invoke:{}", "job-matcher"),
            node.id().unwrap_or(SpanId(0)),
        );
        invoke.attr("ok", "true");
        invoke.attr("task", task_id);
        invoke.attr("node", node_id);
        invoke.end();
        tracer.instant(
            "coordinator",
            format_args!("retry:{}#{}", "job-matcher", 1),
            node.id(),
            &[("why", "test")],
        );
        node.attr("ok", "true");
        node.end();
    }
    task.end();
}

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn disarmed_spans_allocate_nothing() {
    let tracer = Tracer::disarmed();
    let counts: Vec<u64> = (0..100)
        .map(|i| allocations(|| task(&tracer, "session:1:t7", if i % 2 == 0 { "hi" } else { "" })))
        .collect();
    assert!(counts.iter().all(|&n| n == 0), "{counts:?}");
    assert!(tracer.is_empty());
}

#[test]
fn armed_spans_record_the_lazy_names() {
    let tracer = Tracer::new(SimClock::new());
    assert!(allocations(|| task(&tracer, "t7", "hi")) > 0);
    let trace = tracer.snapshot();
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        &names[..4],
        [
            "task:t7",
            "node:n1",
            "invoke:job-matcher",
            "retry:job-matcher#1"
        ]
    );
    assert_eq!(trace.spans[0].attrs["utterance"], "hi");
    assert_eq!(trace.spans[2].attrs["node"], "n1");
}
