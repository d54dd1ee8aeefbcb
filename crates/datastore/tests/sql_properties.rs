//! Property-based tests for the relational engine: the executor is checked
//! against a naive in-Rust oracle over randomly generated tables and
//! predicates.

use blueprint_datastore::{Column, ColumnType, Datum, RelationalDb, Schema};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct JobRow {
    id: i64,
    title: String,
    salary: f64,
}

fn title_strategy() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "data scientist".to_string(),
        "ml engineer".to_string(),
        "analyst".to_string(),
        "recruiter".to_string(),
    ])
}

fn rows_strategy() -> impl Strategy<Value = Vec<JobRow>> {
    prop::collection::vec(
        (0i64..1000, title_strategy(), 50_000.0f64..250_000.0).prop_map(|(id, title, salary)| {
            JobRow {
                id,
                title,
                salary: salary.round(),
            }
        }),
        0..60,
    )
}

fn build_db(rows: &[JobRow], index: bool) -> RelationalDb {
    let db = RelationalDb::new();
    db.create_table(
        "jobs",
        Schema::new(vec![
            Column::new("id", ColumnType::Int),
            Column::new("title", ColumnType::Text),
            Column::new("salary", ColumnType::Float),
        ])
        .unwrap(),
    )
    .unwrap();
    for r in rows {
        db.insert_row(
            "jobs",
            vec![
                Datum::Int(r.id),
                Datum::Text(r.title.clone()),
                Datum::Float(r.salary),
            ],
        )
        .unwrap();
    }
    if index {
        db.create_index("jobs", "title").unwrap();
    }
    db
}

// --- Index probes against full scans ---------------------------------------

/// One row of the `staff` table. Every column but `id` may be NULL; `score`
/// is a FLOAT column holding Int and Float datums alike. `grade` and `score`
/// include values around ±2^53, where an Int and the nearest float differ.
#[derive(Debug, Clone)]
struct StaffRow {
    id: i64,
    title: Datum,
    city: Datum,
    grade: Datum,
    score: Datum,
    bonus: Datum,
}

/// 2^53: the first integer whose successor has no exact f64.
const BIG: i64 = 9_007_199_254_740_992;

const TITLES: [&str; 3] = ["analyst", "engineer", "recruiter"];
const CITIES: [&str; 3] = ["austin", "boston", "chicago"];

fn staff_rows_strategy() -> impl Strategy<Value = Vec<StaffRow>> {
    prop::collection::vec(
        (
            (0i64..50, 0usize..4, 0usize..4),
            (0usize..9, 0usize..9, 0i64..4),
        )
            .prop_map(|((id, title, city), (grade, score, bonus))| StaffRow {
                id,
                title: TITLES.get(title).map_or(Datum::Null, |&t| Datum::from(t)),
                city: CITIES.get(city).map_or(Datum::Null, |&c| Datum::from(c)),
                grade: [
                    Datum::Int(0),
                    Datum::Int(1),
                    Datum::Int(2),
                    Datum::Int(3),
                    Datum::Null,
                    Datum::Int(BIG),
                    Datum::Int(BIG + 1),
                    Datum::Int(-BIG),
                    Datum::Int(-BIG - 1),
                ][grade]
                    .clone(),
                score: [
                    Datum::Int(1),
                    Datum::Int(2),
                    Datum::Float(2.0),
                    Datum::Float(2.5),
                    Datum::Float(3.0),
                    Datum::Null,
                    Datum::Int(BIG + 1),
                    Datum::Float(BIG as f64),
                    Datum::Int(-BIG - 1),
                ][score]
                    .clone(),
                // Bonus 3 stands for NULL.
                bonus: if bonus == 3 {
                    Datum::Null
                } else {
                    Datum::Int(bonus * 100)
                },
            }),
        0..60,
    )
}

fn build_staff_db(rows: &[StaffRow], index: bool) -> RelationalDb {
    let db = RelationalDb::new();
    db.create_table(
        "staff",
        Schema::new(vec![
            Column::new("id", ColumnType::Int),
            Column::new("title", ColumnType::Text),
            Column::new("city", ColumnType::Text),
            Column::new("grade", ColumnType::Int),
            Column::new("score", ColumnType::Float),
            Column::new("bonus", ColumnType::Int),
        ])
        .unwrap(),
    )
    .unwrap();
    for r in rows {
        let row = vec![
            Datum::Int(r.id),
            r.title.clone(),
            r.city.clone(),
            r.grade.clone(),
            r.score.clone(),
            r.bonus.clone(),
        ];
        db.insert_row("staff", row).unwrap();
    }
    if index {
        for column in ["title", "city", "grade", "score"] {
            db.create_index("staff", column).unwrap();
        }
    }
    db
}

/// Each conjunct of a generated WHERE clause is drawn from one seed.
fn terms_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..u64::MAX, 1..4)
}

/// Draws from a seed (a linear congruential step per draw).
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }

    fn pick<'a>(&mut self, choices: &[&'a str]) -> &'a str {
        choices[self.below(choices.len())]
    }

    /// An indexed column and a literal of its type, NULL included (text
    /// literals include a key that no row holds; numeric ones include
    /// values around ±2^53 and whole floats on the INT column).
    fn indexed_literal(&mut self) -> (&'static str, &'static str) {
        match self.below(4) {
            0 => (
                "title",
                self.pick(&["'analyst'", "'engineer'", "'recruiter'", "'pilot'", "NULL"]),
            ),
            1 => (
                "city",
                self.pick(&["'austin'", "'boston'", "'chicago'", "'denver'", "NULL"]),
            ),
            2 => (
                "grade",
                self.pick(&[
                    "0",
                    "1",
                    "2",
                    "3",
                    "1.0",
                    "2.0",
                    "2.5",
                    "NULL",
                    "9007199254740992",
                    "9007199254740993",
                    "9007199254740992.0",
                    "-9007199254740993",
                    "-9007199254740992.0",
                ]),
            ),
            _ => (
                "score",
                self.pick(&[
                    "1",
                    "2",
                    "3",
                    "2.0",
                    "2.5",
                    "3.5",
                    "NULL",
                    "9007199254740992",
                    "9007199254740993",
                    "9007199254740992.0",
                    "-9007199254740993",
                ]),
            ),
        }
    }

    /// `column` and 1–4 literals of its type, repeats allowed.
    fn indexed_list(&mut self) -> (&'static str, String) {
        let (column, first) = self.indexed_literal();
        let mut items = vec![first];
        for _ in 0..self.below(4) {
            loop {
                let (c, literal) = self.indexed_literal();
                if c == column {
                    items.push(literal);
                    break;
                }
            }
        }
        (column, items.join(", "))
    }

    fn equality(&mut self) -> String {
        let (column, literal) = self.indexed_literal();
        if self.below(2) == 0 {
            format!("{column} = {literal}")
        } else {
            format!("{literal} = {column}")
        }
    }
}

/// Renders one conjunct from its seed.
fn render_term(seed: u64) -> String {
    let mut d = Draw(seed);
    match d.below(8) {
        0 | 1 => d.equality(),
        2 | 3 => {
            let (column, list) = d.indexed_list();
            format!("{column} IN ({list})")
        }
        4 => {
            let (column, list) = d.indexed_list();
            format!("{column} NOT IN ({list})")
        }
        5 => format!("({} OR {})", d.equality(), d.equality()),
        6 => d
            .pick(&[
                "id > 20",
                "id <= 35",
                "bonus IN (100, 200, NULL)",
                "bonus IS NULL",
                "score > 1.5",
                "grade IN (1, bonus)",
                "title IN ('analyst', city)",
            ])
            .to_string(),
        _ => {
            // An IN probe on a second indexed column.
            let (column, list) = d.indexed_list();
            format!("{column} IN ({list}) AND {}", d.equality())
        }
    }
}

fn render_where(terms: &[u64]) -> String {
    terms
        .iter()
        .map(|&t| render_term(t))
        .collect::<Vec<_>>()
        .join(" AND ")
}

proptest! {
    /// COUNT(*) with a comparison predicate matches the oracle.
    #[test]
    fn count_with_predicate_matches_oracle(rows in rows_strategy(), threshold in 50_000.0f64..250_000.0) {
        let db = build_db(&rows, false);
        let threshold = threshold.round();
        let got = db
            .execute(&format!("SELECT COUNT(*) FROM jobs WHERE salary >= {threshold}"))
            .unwrap();
        let expected = rows.iter().filter(|r| r.salary >= threshold).count() as i64;
        prop_assert_eq!(&got.rows[0][0], &Datum::Int(expected));
    }

    /// Filtering is identical with and without hash indices, row order
    /// included: random well-typed WHERE clauses mix `=` and `IN` probes on
    /// one or two indexed columns (repeated list items, NULL in lists and
    /// data, Int/Float mixes) with unindexed conjuncts, `OR` and `NOT IN`.
    #[test]
    fn index_agrees_with_scan(rows in staff_rows_strategy(), terms in terms_strategy()) {
        let plain = build_staff_db(&rows, false);
        let indexed = build_staff_db(&rows, true);
        let sql = format!("SELECT * FROM staff WHERE {}", render_where(&terms));
        let a = plain.execute(&sql).unwrap();
        let b = indexed.execute(&sql).unwrap();
        prop_assert_eq!(a, b);
    }

    /// ORDER BY produces a sorted permutation of the unordered result.
    #[test]
    fn order_by_sorts_and_preserves_rows(rows in rows_strategy()) {
        let db = build_db(&rows, false);
        let ordered = db.execute("SELECT salary FROM jobs ORDER BY salary ASC").unwrap();
        let mut expected: Vec<f64> = rows.iter().map(|r| r.salary).collect();
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let got: Vec<f64> = ordered.rows.iter().map(|r| r[0].as_f64().unwrap()).collect();
        prop_assert_eq!(got, expected);
    }

    /// LIMIT n returns min(n, total) rows — the prefix of the ordered set.
    #[test]
    fn limit_truncates_prefix(rows in rows_strategy(), limit in 0u64..20) {
        let db = build_db(&rows, false);
        let full = db.execute("SELECT id FROM jobs ORDER BY id, salary").unwrap();
        let limited = db
            .execute(&format!("SELECT id FROM jobs ORDER BY id, salary LIMIT {limit}"))
            .unwrap();
        prop_assert_eq!(limited.rows.len(), full.rows.len().min(limit as usize));
        prop_assert_eq!(&limited.rows[..], &full.rows[..limited.rows.len()]);
    }

    /// GROUP BY counts partition the table: group sizes sum to row count.
    #[test]
    fn group_by_partitions(rows in rows_strategy()) {
        let db = build_db(&rows, false);
        let grouped = db
            .execute("SELECT title, COUNT(*) AS n FROM jobs GROUP BY title")
            .unwrap();
        let total: i64 = grouped
            .rows
            .iter()
            .map(|r| match r[1] {
                Datum::Int(n) => n,
                _ => 0,
            })
            .sum();
        prop_assert_eq!(total, rows.len() as i64);
        // Each group's count matches the oracle.
        for row in &grouped.rows {
            let title = row[0].as_str().unwrap();
            let expected = rows.iter().filter(|r| r.title == title).count() as i64;
            prop_assert_eq!(&row[1], &Datum::Int(expected));
        }
    }

    /// SUM/AVG/MIN/MAX agree with the oracle (within float tolerance).
    #[test]
    fn aggregates_match_oracle(rows in rows_strategy()) {
        prop_assume!(!rows.is_empty());
        let db = build_db(&rows, false);
        let r = db
            .execute("SELECT SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM jobs")
            .unwrap();
        let salaries: Vec<f64> = rows.iter().map(|r| r.salary).collect();
        let sum: f64 = salaries.iter().sum();
        let avg = sum / salaries.len() as f64;
        let min = salaries.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = salaries.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((r.rows[0][0].as_f64().unwrap() - sum).abs() < 1e-6 * sum.abs().max(1.0));
        prop_assert!((r.rows[0][1].as_f64().unwrap() - avg).abs() < 1e-6 * avg.abs().max(1.0));
        prop_assert_eq!(r.rows[0][2].as_f64().unwrap(), min);
        prop_assert_eq!(r.rows[0][3].as_f64().unwrap(), max);
    }

    /// DISTINCT returns the set of distinct values.
    #[test]
    fn distinct_is_set_semantics(rows in rows_strategy()) {
        let db = build_db(&rows, false);
        let got = db.execute("SELECT DISTINCT title FROM jobs").unwrap();
        let expected: std::collections::BTreeSet<&str> =
            rows.iter().map(|r| r.title.as_str()).collect();
        let got_set: std::collections::BTreeSet<String> = got
            .rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        prop_assert_eq!(got.rows.len(), got_set.len()); // no duplicates
        prop_assert_eq!(
            got_set,
            expected.into_iter().map(str::to_string).collect::<std::collections::BTreeSet<_>>()
        );
    }

    /// IN-list equals the union of equality predicates.
    #[test]
    fn in_list_is_union(rows in rows_strategy()) {
        let db = build_db(&rows, false);
        let in_list = db
            .execute("SELECT COUNT(*) FROM jobs WHERE title IN ('data scientist', 'analyst')")
            .unwrap();
        let a = db
            .execute("SELECT COUNT(*) FROM jobs WHERE title = 'data scientist'")
            .unwrap();
        let b = db
            .execute("SELECT COUNT(*) FROM jobs WHERE title = 'analyst'")
            .unwrap();
        let count = |r: &blueprint_datastore::ResultSet| match r.rows[0][0] {
            Datum::Int(n) => n,
            _ => 0,
        };
        prop_assert_eq!(count(&in_list), count(&a) + count(&b));
    }

    /// Inserting after index creation keeps index probes consistent.
    #[test]
    fn incremental_index_maintenance(first in rows_strategy(), second in rows_strategy()) {
        let db = build_db(&first, true);
        for r in &second {
            db.insert_row(
                "jobs",
                vec![Datum::Int(r.id), Datum::Text(r.title.clone()), Datum::Float(r.salary)],
            )
            .unwrap();
        }
        let probed = db
            .execute("SELECT COUNT(*) FROM jobs WHERE title = 'analyst'")
            .unwrap();
        let expected = first
            .iter()
            .chain(&second)
            .filter(|r| r.title == "analyst")
            .count() as i64;
        prop_assert_eq!(&probed.rows[0][0], &Datum::Int(expected));
    }
}
