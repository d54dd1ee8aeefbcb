//! Heap allocations of an agent hop do not grow with the rows it carries:
//! an `execute-agent` instruction holds its row batch by `Arc`, the publish
//! counts the batch's JSON length without rendering it, and the host takes
//! the inputs from the shared body without decoding them. A counting global
//! allocator (std only) counts the allocations made on the calling thread,
//! so tests running in parallel do not disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use blueprint_agents::{DataType, ExecuteAgent, Inputs, ParamSpec};
use blueprint_datastore::{Datum, RowBatch};
use blueprint_streams::{Selector, StreamStore, TagFilter};
use serde_json::json;

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

/// A job table of `rows` rows, shaped like the HR domain's.
fn jobs(rows: i64) -> Arc<RowBatch> {
    let columns: Vec<String> = ["id", "title", "city", "remote", "salary"]
        .map(String::from)
        .into();
    let rows = (0..rows)
        .map(|id| {
            vec![
                Datum::Int(id),
                Datum::Text(format!("title \"{}\"", id % 13)),
                Datum::Text(format!("city-{}", id % 7)),
                Datum::Bool(id % 2 == 0),
                Datum::Float(50_000.0 + id as f64 * 0.5),
            ]
        })
        .collect();
    Arc::new(RowBatch::new(columns, rows))
}

/// The matcher's declared inputs, which the host validates against.
fn specs() -> [ParamSpec; 2] {
    [
        ParamSpec::required("jobs", "job rows", DataType::Table),
        ParamSpec::optional("criteria", "conditions", DataType::Text),
    ]
}

/// One hop: the instruction is built around the prebuilt batch and
/// published to a subscribed host's scope; the host receives it, takes the
/// inputs and validates them. Returns the allocations of the second hop
/// (the first warms the store up) and the row count the host saw.
fn hop(batch: &Arc<RowBatch>) -> (u64, usize) {
    let store = StreamStore::new();
    let sub = store
        .subscribe(
            Selector::Scope("session:1".into()),
            TagFilter::any_of(["agent:job-matcher"]),
        )
        .unwrap();
    let mut counts = Vec::new();
    let mut seen = 0;
    for node in ["n1", "n2"] {
        let before = ALLOCATIONS.with(Cell::get);
        let exec = ExecuteAgent {
            agent: "job-matcher".into(),
            inputs: Inputs::new()
                .with_data("jobs", Arc::clone(batch))
                .with("criteria", json!("remote")),
            output_stream: format!("session:1:task:t1:{node}"),
            task_id: "t1".into(),
            node_id: node.into(),
            span: None,
        };
        store
            .publish_to(
                "session:1:instructions",
                ["instructions"],
                exec.into_message(),
            )
            .unwrap();
        let msg = sub.recv().unwrap();
        let inputs = ExecuteAgent::from_message(&msg)
            .unwrap()
            .inputs
            .validate(&specs())
            .unwrap();
        seen = inputs.rows("jobs").unwrap().len();
        drop((inputs, msg));
        counts.push(ALLOCATIONS.with(Cell::get) - before);
    }
    (counts[1], seen)
}

#[test]
fn a_hop_allocates_the_same_at_1000_and_10000_rows() {
    let (small, large) = (jobs(1_000), jobs(10_000));
    let (at_1000, rows_1000) = hop(&small);
    let (at_10000, rows_10000) = hop(&large);
    assert_eq!((rows_1000, rows_10000), (1_000, 10_000));
    assert_eq!(at_1000, at_10000);
    // The batch was shared, never rendered: nothing close to a row each.
    assert!(at_1000 < 100, "{at_1000} allocations");
}
