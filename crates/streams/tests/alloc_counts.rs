//! A publish with telemetry disarmed makes no telemetry allocation: no flow
//! edge is built and no counter lock is taken, so a publish to a stream with
//! no subscriber allocates only the shared message (plus, now and then, the
//! growth of the stream's history). A counting global allocator (std only)
//! counts the allocations made on the calling thread, so tests running in
//! parallel do not disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use blueprint_streams::{Message, StreamStore};

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

#[test]
fn disarmed_publish_without_subscribers_allocates_only_the_message() {
    let store = StreamStore::new();
    let id = store
        .create_stream("session:1:task:t1:status", ["task-status"])
        .unwrap();
    let counts: Vec<u64> = (0..200)
        .map(|i| {
            // The message is built before counting: only the publish counts.
            let msg = Message::data(format!("status {i}"))
                .with_tag("task-status")
                .from_producer("task-coordinator");
            let before = ALLOCATIONS.with(Cell::get);
            store.publish(&id, msg).unwrap();
            ALLOCATIONS.with(Cell::get) - before
        })
        .collect();
    // Steady state: one allocation, the `Arc` the history and every
    // subscriber share.
    assert_eq!(counts.iter().min(), Some(&1), "{counts:?}");
    // When the history grows, one reallocation more; never anything else.
    assert!(counts.iter().all(|&n| n <= 2), "{counts:?}");
    assert_eq!(store.stats().messages_published, 200);
    assert_eq!(store.stats().deliveries, 0);
}
