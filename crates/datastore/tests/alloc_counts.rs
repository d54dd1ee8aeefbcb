//! Heap allocations of a query do not grow with the table: the engine reads
//! rows in place and copies only the rows it returns. A counting global
//! allocator (std only) counts the allocations made on the calling thread,
//! so tests running in parallel do not disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use blueprint_datastore::{Column, ColumnType, Datum, RelationalDb, ResultSet, Schema};

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

/// Rows that match the test queries: the same ten in every table size.
const MATCHING: i64 = 10;

/// A `people` table of `rows` rows. Rows `0..MATCHING` live in `zurich`,
/// are tagged `rare` and have `rare` in their note; no other row does.
fn people(rows: i64, index_city: bool) -> RelationalDb {
    let db = RelationalDb::new();
    db.create_table(
        "people",
        Schema::new(vec![
            Column::new("id", ColumnType::Int),
            Column::new("city", ColumnType::Text),
            Column::new("tag", ColumnType::Text),
            Column::new("note", ColumnType::Text),
        ])
        .unwrap(),
    )
    .unwrap();
    for id in 0..rows {
        let (city, tag, note) = if id < MATCHING {
            (
                "zurich".to_string(),
                "rare",
                format!("row {id}: a rare find"),
            )
        } else {
            (
                format!("city-{}", id % 7),
                "common",
                format!("row {id}: nothing"),
            )
        };
        db.insert_row(
            "people",
            vec![
                Datum::Int(id),
                Datum::Text(city),
                Datum::from(tag),
                Datum::Text(note),
            ],
        )
        .unwrap();
    }
    if index_city {
        db.create_index("people", "city").unwrap();
    }
    db
}

/// Runs `sql` once to warm up, then again while counting this thread's
/// allocations.
fn counted(db: &RelationalDb, sql: &str) -> (u64, ResultSet) {
    db.execute(sql).unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    let result = db.execute(sql).unwrap();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// Asserts that `sql` returns the same `MATCHING` rows with the same
/// number of allocations on a 1,000-row and a 10,000-row table.
fn assert_flat(sql: &str, index_city: bool) {
    let (small, small_rows) = counted(&people(1_000, index_city), sql);
    let (large, large_rows) = counted(&people(10_000, index_city), sql);
    assert_eq!(small_rows.len(), MATCHING as usize, "{sql}");
    assert_eq!(small_rows, large_rows, "{sql}");
    assert_eq!(
        small, large,
        "{sql}: {small} allocations on 1,000 rows, {large} on 10,000"
    );
}

#[test]
fn indexed_in_probe_allocates_independently_of_table_size() {
    assert_flat(
        "SELECT * FROM people WHERE city IN ('zurich', 'nowhere', 'zurich')",
        true,
    );
}

#[test]
fn unindexed_in_scan_allocates_independently_of_table_size() {
    assert_flat(
        "SELECT * FROM people WHERE tag IN ('rare', 'unheard-of')",
        false,
    );
}

#[test]
fn unindexed_like_scan_allocates_independently_of_table_size() {
    assert_flat("SELECT * FROM people WHERE note LIKE '%RARE%'", false);
}
