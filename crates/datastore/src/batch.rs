//! Query results as shared, typed row batches.
//!
//! A [`RowBatch`] is what a relational query hands to the rest of the
//! runtime: the column names once and the result rows as
//! [`Datum`](crate::Datum)s. It is shared by `Arc` from the data source to
//! the agent that reads it (§V-A: streams carry data as well as control), so
//! no per-row JSON tree is built, copied or freed on the way. A consumer reads cells by column index
//! ([`RowBatch::column`]); the batch renders JSON only where JSON is asked
//! for, and that JSON equals [`ResultSet::into_json`]'s exactly: one object
//! per row, keys in map order, non-finite floats as `null`, and a later
//! duplicate column wins. Its compact-JSON byte length is computed once, at
//! construction, so a stream publish counts it without rendering.
//!
//! [`DataValue`] is a data plan's value: JSON, or a batch.

use std::borrow::Cow;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use serde_json::{Map, Value};

use blueprint_streams::{json_len, object_len};

use crate::relational::ResultSet;
use crate::value::Row;

/// Result rows under one shared list of column names.
#[derive(Debug, Clone)]
pub struct RowBatch {
    columns: Arc<[String]>,
    rows: Vec<Row>,
    /// The column each rendered key reads, in key order: names sorted, and
    /// of duplicate names the last column.
    keys: Vec<usize>,
    /// Byte length of the compact JSON text of [`RowBatch::to_json`].
    json_len: usize,
}

impl RowBatch {
    /// A batch of `rows` under `columns`, its JSON length counted once.
    ///
    /// # Panics
    /// If a row does not hold exactly one datum per column.
    pub fn new(columns: impl Into<Arc<[String]>>, rows: Vec<Row>) -> Self {
        let columns = columns.into();
        assert!(
            rows.iter().all(|r| r.len() == columns.len()),
            "every row holds one datum per column"
        );
        let mut keys: Vec<usize> = (0..columns.len()).collect();
        keys.sort_by(|&a, &b| columns[a].cmp(&columns[b]).then(b.cmp(&a)));
        keys.dedup_by(|a, b| columns[*a] == columns[*b]);
        // Braces, commas, quoted keys and colons are the same in every row.
        let row_frame = object_len(keys.iter().map(|&k| (columns[k].as_str(), 0)));
        let cells: usize = rows
            .iter()
            .map(|row| keys.iter().map(|&k| row[k].json_len()).sum::<usize>())
            .sum();
        let json_len = 2 + rows.len().saturating_sub(1) + rows.len() * row_frame + cells;
        RowBatch {
            columns,
            rows,
            keys,
            json_len,
        }
    }

    /// The rows, one datum per column.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of the column a row's rendered `name` key reads (the last of
    /// duplicate names); `None` when no column has that name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().rposition(|c| c == name)
    }

    /// Byte length of `serde_json::to_string(&self.to_json())`, counted at
    /// construction.
    pub fn json_len(&self) -> usize {
        self.json_len
    }

    /// Row `i` as the JSON object [`ResultSet::into_json`] renders it to.
    ///
    /// # Panics
    /// If `i` is out of bounds.
    pub fn row_json(&self, i: usize) -> Value {
        let row = &self.rows[i];
        Value::Object(
            self.keys
                .iter()
                .map(|&k| (self.columns[k].clone(), row[k].to_json()))
                .collect::<Map<String, Value>>(),
        )
    }

    /// The batch as the array of row objects [`ResultSet::into_json`]
    /// renders.
    pub fn to_json(&self) -> Value {
        Value::Array((0..self.rows.len()).map(|i| self.row_json(i)).collect())
    }
}

impl From<ResultSet> for RowBatch {
    fn from(rs: ResultSet) -> Self {
        RowBatch::new(rs.columns, rs.rows)
    }
}

impl Serialize for RowBatch {
    fn serialize(&self) -> Value {
        self.to_json()
    }
}

/// A data value: JSON, or a batch of rows shared by `Arc`.
#[derive(Debug, Clone)]
pub enum DataValue {
    /// A JSON value.
    Json(Value),
    /// Rows of a relational result, rendered as JSON only on demand.
    Rows(Arc<RowBatch>),
}

impl DataValue {
    /// The batch, when this value is one.
    pub fn rows(&self) -> Option<&Arc<RowBatch>> {
        match self {
            DataValue::Rows(batch) => Some(batch),
            DataValue::Json(_) => None,
        }
    }

    /// The value as JSON: borrowed, or a batch rendered.
    pub fn as_json(&self) -> Cow<'_, Value> {
        match self {
            DataValue::Json(v) => Cow::Borrowed(v),
            DataValue::Rows(batch) => Cow::Owned(batch.to_json()),
        }
    }

    /// The value as JSON, moved out, or a batch rendered.
    pub fn into_json(self) -> Value {
        match self {
            DataValue::Json(v) => v,
            DataValue::Rows(batch) => batch.to_json(),
        }
    }

    /// Byte length of the value's compact JSON text, counted without
    /// rendering it.
    pub fn json_len(&self) -> usize {
        match self {
            DataValue::Json(v) => json_len(v),
            DataValue::Rows(batch) => batch.json_len(),
        }
    }

    /// Number of items: the rows of a batch or the elements of an array;
    /// 1 for any other value.
    pub fn item_count(&self) -> usize {
        match self {
            DataValue::Json(v) => v.as_array().map_or(1, Vec::len),
            DataValue::Rows(batch) => batch.len(),
        }
    }
}

impl From<Value> for DataValue {
    fn from(v: Value) -> Self {
        DataValue::Json(v)
    }
}

impl From<RowBatch> for DataValue {
    fn from(batch: RowBatch) -> Self {
        DataValue::Rows(Arc::new(batch))
    }
}

impl From<Arc<RowBatch>> for DataValue {
    fn from(batch: Arc<RowBatch>) -> Self {
        DataValue::Rows(batch)
    }
}

/// Equal when they render to the same JSON.
impl PartialEq for DataValue {
    fn eq(&self, other: &Self) -> bool {
        self.as_json() == other.as_json()
    }
}

impl Serialize for DataValue {
    fn serialize(&self) -> Value {
        self.as_json().into_owned()
    }
}

/// Decodes as JSON: a batch travels as JSON text.
impl Deserialize for DataValue {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        Ok(DataValue::Json(value.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Datum;
    use serde_json::json;

    fn rs(columns: &[&str], rows: Vec<Row>) -> ResultSet {
        ResultSet {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows,
        }
    }

    #[test]
    fn renders_like_into_json_with_later_duplicates_winning() {
        let set = rs(
            &["title", "id", "title", "pay"],
            vec![
                vec![
                    Datum::from("a"),
                    Datum::Int(1),
                    Datum::from("b"),
                    Datum::Float(f64::NAN),
                ],
                vec![
                    Datum::Null,
                    Datum::Int(-2),
                    Datum::Bool(true),
                    Datum::Float(2.0),
                ],
            ],
        );
        let batch = RowBatch::from(set.clone());
        let want = set.into_json();
        assert_eq!(
            want,
            json!([
                {"id": 1, "pay": null, "title": "b"},
                {"id": -2, "pay": 2.0, "title": true}
            ])
        );
        assert_eq!(batch.to_json(), want);
        assert_eq!(
            batch.json_len(),
            serde_json::to_string(&want).unwrap().len()
        );
        assert_eq!(batch.column("title"), Some(2));
        assert_eq!(batch.column("city"), None);
    }

    #[test]
    fn empty_batches_and_rows_without_columns() {
        let empty = RowBatch::from(rs(&["a"], vec![]));
        assert_eq!(empty.to_json(), json!([]));
        assert_eq!(empty.json_len(), 2);
        let bare = RowBatch::from(rs(&[], vec![vec![], vec![]]));
        assert_eq!(bare.to_json(), json!([{}, {}]));
        assert_eq!(bare.json_len(), "[{},{}]".len());
    }

    #[test]
    fn data_values_compare_and_serialize_as_their_json() {
        let batch = RowBatch::from(rs(&["n"], vec![vec![Datum::Int(1)]]));
        let rows = DataValue::from(batch);
        let json = DataValue::from(json!([{"n": 1}]));
        assert_eq!(rows, json);
        assert_eq!(rows.json_len(), json.json_len());
        assert_eq!(rows.item_count(), 1);
        assert_eq!(
            serde_json::to_string(&rows).unwrap(),
            serde_json::to_string(&json).unwrap()
        );
        assert_ne!(rows, DataValue::from(json!([{"n": 1.0}])));
        assert_eq!(DataValue::from(json!("x")).item_count(), 1);
    }
}
