//! Property tests of `RowBatch`: over random result sets, a batch renders
//! exactly what `ResultSet::into_json` renders, and its byte length, counted
//! at construction, is the length of that JSON's compact text.

use blueprint_datastore::{Datum, ResultSet, RowBatch};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Column names from a small pool, so duplicates are common; some need
/// escaping or hold multi-byte characters.
const COLUMNS: &[&str] = &["id", "title", "city", "remote", "a\"b", "é", "", "x\ny"];

/// Characters covering every escape class of the JSON printer, plus
/// multi-byte characters of each UTF-8 length.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{08}', '\u{0C}', '\u{0}', '\u{1}',
    '\u{1F}', '\u{7F}', 'é', '€', '😀',
];

/// 2^53: the first integer an `f64` cannot tell from its successor.
const TWO_POW_53: i64 = 9_007_199_254_740_992;

fn arb_text(rng: &mut TestRng) -> String {
    (0..rng.below(10))
        .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
        .collect()
}

fn arb_float(rng: &mut TestRng) -> f64 {
    match rng.below(6) {
        0 => f64::from_bits(rng.next_u64()),
        1 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3) as usize],
        // Whole floats of every magnitude, either side of 1e15.
        2 => {
            let whole = (rng.next_u64() >> rng.below(64)) as f64;
            if rng.chance(0.5) {
                -whole
            } else {
                whole
            }
        }
        3 => (rng.unit_f64() - 0.5) * 10f64.powi(rng.below(40) as i32 - 20),
        4 => TWO_POW_53 as f64 * if rng.chance(0.5) { 1.0 } else { -1.0 },
        _ => [
            0.0,
            -0.0,
            1e15,
            -1e15,
            1e16,
            0.1,
            1e-7,
            f64::MAX,
            f64::MIN_POSITIVE,
        ][rng.below(9) as usize],
    }
}

fn arb_int(rng: &mut TestRng) -> i64 {
    match rng.below(4) {
        0 => TWO_POW_53 + rng.below(3) as i64 - 1,
        1 => -TWO_POW_53 + rng.below(3) as i64 - 1,
        2 => [0, i64::MIN, i64::MAX, -1][rng.below(4) as usize],
        _ => (rng.next_u64() >> rng.below(64)) as i64,
    }
}

fn arb_datum(rng: &mut TestRng) -> Datum {
    match rng.below(5) {
        0 => Datum::Null,
        1 => Datum::Int(arb_int(rng)),
        2 => Datum::Float(arb_float(rng)),
        3 => Datum::Text(arb_text(rng)),
        _ => Datum::Bool(rng.chance(0.5)),
    }
}

/// A result set of up to 6 columns (names drawn with repetition) and up to
/// 12 rows.
struct ArbResultSet;

impl Strategy for ArbResultSet {
    type Value = ResultSet;
    fn new_value(&self, rng: &mut TestRng) -> ResultSet {
        let columns: Vec<String> = (0..rng.below(7))
            .map(|_| COLUMNS[rng.below(COLUMNS.len() as u64) as usize].to_string())
            .collect();
        let rows = (0..rng.below(13))
            .map(|_| columns.iter().map(|_| arb_datum(rng)).collect())
            .collect();
        ResultSet { columns, rows }
    }
}

proptest! {
    #[test]
    fn batch_renders_and_counts_like_into_json(rs in ArbResultSet) {
        let batch = RowBatch::from(rs.clone());
        let want = rs.into_json();
        prop_assert_eq!(batch.json_len(), serde_json::to_string(&want).unwrap().len());
        prop_assert_eq!(batch.to_json(), want.clone());
        prop_assert_eq!(
            serde_json::to_string(&batch).unwrap(),
            serde_json::to_string(&want).unwrap()
        );
        for (i, row) in want.as_array().unwrap().iter().enumerate() {
            prop_assert_eq!(&batch.row_json(i), row);
        }
    }
}
