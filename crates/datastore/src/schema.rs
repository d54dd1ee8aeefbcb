//! Table schemas for the relational substrate.

use serde::{Deserialize, Serialize};

use crate::error::DataError;
use crate::value::Datum;
use crate::Result;

/// Column types supported by the relational engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Bool,
}

impl ColumnType {
    /// Whether a datum may be stored in a column of this type
    /// (NULL is storable anywhere; ints widen into float columns).
    pub fn accepts(self, d: &Datum) -> bool {
        matches!(
            (self, d),
            (_, Datum::Null)
                | (ColumnType::Int, Datum::Int(_))
                | (ColumnType::Float, Datum::Float(_) | Datum::Int(_))
                | (ColumnType::Text, Datum::Text(_))
                | (ColumnType::Bool, Datum::Bool(_))
        )
    }

    /// Type name as used in SQL (`INT`, `FLOAT`, `TEXT`, `BOOL`).
    pub fn name(self) -> &'static str {
        match self {
            ColumnType::Int => "INT",
            ColumnType::Float => "FLOAT",
            ColumnType::Text => "TEXT",
            ColumnType::Bool => "BOOL",
        }
    }

    /// Parses a SQL type name (case-insensitive; accepts common aliases).
    pub fn parse(name: &str) -> Result<ColumnType> {
        match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" => Ok(ColumnType::Int),
            "FLOAT" | "REAL" | "DOUBLE" => Ok(ColumnType::Float),
            "TEXT" | "VARCHAR" | "STRING" => Ok(ColumnType::Text),
            "BOOL" | "BOOLEAN" => Ok(ColumnType::Bool),
            other => Err(DataError::Parse(format!("unknown column type: {other}"))),
        }
    }
}

/// One column declaration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Column name (stored lowercase; SQL identifiers are case-insensitive).
    pub name: String,
    /// Column type.
    pub ctype: ColumnType,
}

impl Column {
    /// Creates a column, lowercasing the name.
    pub fn new(name: impl AsRef<str>, ctype: ColumnType) -> Self {
        Column {
            name: name.as_ref().to_ascii_lowercase(),
            ctype,
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Schema {
    /// Columns in declaration order.
    pub columns: Vec<Column>,
}

impl Schema {
    /// Creates a schema; fails on duplicate column names.
    pub fn new(columns: Vec<Column>) -> Result<Self> {
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.clone()) {
                return Err(DataError::Schema(format!("duplicate column: {}", c.name)));
            }
        }
        Ok(Schema { columns })
    }

    /// Index of a column by (case-insensitive) name: the stored name must
    /// equal the ASCII-lowercased probe byte for byte. Compared in place,
    /// without allocating.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| {
            c.name.len() == name.len()
                && c.name
                    .bytes()
                    .zip(name.bytes())
                    .all(|(stored, probe)| stored == probe.to_ascii_lowercase())
        })
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Validates a row against this schema.
    pub fn check_row(&self, row: &[Datum]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(DataError::Schema(format!(
                "arity mismatch: expected {} values, got {}",
                self.columns.len(),
                row.len()
            )));
        }
        for (c, d) in self.columns.iter().zip(row) {
            if !c.ctype.accepts(d) {
                return Err(DataError::TypeError(format!(
                    "column {} ({}) cannot store {d}",
                    c.name,
                    c.ctype.name()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", ColumnType::Int),
            Column::new("title", ColumnType::Text),
            Column::new("salary", ColumnType::Float),
            Column::new("remote", ColumnType::Bool),
        ])
        .unwrap()
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = Schema::new(vec![
            Column::new("a", ColumnType::Int),
            Column::new("A", ColumnType::Text),
        ])
        .unwrap_err();
        assert!(matches!(err, DataError::Schema(_)));
    }

    #[test]
    fn index_is_case_insensitive() {
        let s = jobs_schema();
        assert_eq!(s.index_of("TITLE"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.arity(), 4);
        assert_eq!(s.names()[0], "id");
    }

    #[test]
    fn index_of_lowercases_the_probe_only() {
        let s = jobs_schema();
        for probe in ["salary", "SALARY", "Salary", "sAlArY"] {
            assert_eq!(s.index_of(probe), Some(2), "{probe}");
        }
        assert_eq!(s.index_of("salar"), None);
        assert_eq!(s.index_of("salary "), None);
        assert_eq!(s.index_of("sälary"), None);
        // A stored name with uppercase letters (built without
        // `Column::new`) never matches: probes are lowercased, names are not.
        let raw = Schema::new(vec![Column {
            name: "Title".into(),
            ctype: ColumnType::Text,
        }])
        .unwrap();
        for probe in ["Title", "title", "TITLE"] {
            assert_eq!(raw.index_of(probe), None, "{probe}");
        }
    }

    #[test]
    fn accepts_matrix() {
        assert!(ColumnType::Int.accepts(&Datum::Int(1)));
        assert!(!ColumnType::Int.accepts(&Datum::Float(1.0)));
        assert!(ColumnType::Float.accepts(&Datum::Int(1)));
        assert!(ColumnType::Float.accepts(&Datum::Float(1.0)));
        assert!(ColumnType::Text.accepts(&Datum::Text("x".into())));
        assert!(ColumnType::Bool.accepts(&Datum::Bool(false)));
        // NULL everywhere.
        for t in [
            ColumnType::Int,
            ColumnType::Float,
            ColumnType::Text,
            ColumnType::Bool,
        ] {
            assert!(t.accepts(&Datum::Null));
        }
    }

    #[test]
    fn check_row_validates_arity_and_types() {
        let s = jobs_schema();
        s.check_row(&[
            Datum::Int(1),
            Datum::Text("ds".into()),
            Datum::Float(100.0),
            Datum::Bool(true),
        ])
        .unwrap();
        assert!(s.check_row(&[Datum::Int(1)]).is_err());
        assert!(s
            .check_row(&[
                Datum::Text("oops".into()),
                Datum::Text("ds".into()),
                Datum::Float(1.0),
                Datum::Bool(true),
            ])
            .is_err());
    }

    #[test]
    fn type_parse_aliases() {
        assert_eq!(ColumnType::parse("integer").unwrap(), ColumnType::Int);
        assert_eq!(ColumnType::parse("VARCHAR").unwrap(), ColumnType::Text);
        assert_eq!(ColumnType::parse("double").unwrap(), ColumnType::Float);
        assert_eq!(ColumnType::parse("boolean").unwrap(), ColumnType::Bool);
        assert!(ColumnType::parse("blob").is_err());
    }
}
