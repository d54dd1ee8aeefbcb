//! Scalar values and rows flowing through the relational engine.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};
use serde_json::{Number, Value};

use blueprint_streams::{escaped_len, number_len};

/// A scalar datum stored in a table cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Datum {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Boolean.
    Bool(bool),
}

/// One table row.
pub type Row = Vec<Datum>;

/// 2^63 as a float: the first whole float above `i64::MAX`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// `f` as an integer when it is a whole number within `i64`'s range. This
/// decides when an Int and a Float hold the same number, for comparisons
/// ([`num_cmp`]) and hash keys ([`DatumKey`]) alike.
fn whole_float(f: f64) -> Option<i64> {
    (f.fract() == 0.0 && (-TWO_POW_63..TWO_POW_63).contains(&f)).then_some(f as i64)
}

/// Exact comparison of two numeric datums: an Int is never rounded to a
/// float, so `9007199254740993` and `9007199254740992.0` differ. `None`
/// when either side is not numeric, or a NaN is involved. The one numeric
/// comparison behind [`Datum::sql_eq`], [`Datum::sql_cmp`] and `==`.
fn num_cmp(a: &Datum, b: &Datum) -> Option<Ordering> {
    match (a, b) {
        (Datum::Int(x), Datum::Int(y)) => Some(x.cmp(y)),
        (Datum::Float(x), Datum::Float(y)) => x.partial_cmp(y),
        (Datum::Int(i), Datum::Float(f)) => int_float_cmp(*i, *f),
        (Datum::Float(f), Datum::Int(i)) => int_float_cmp(*i, *f).map(Ordering::reverse),
        _ => None,
    }
}

fn int_float_cmp(i: i64, f: f64) -> Option<Ordering> {
    if let Some(w) = whole_float(f) {
        return Some(i.cmp(&w));
    }
    if f.is_nan() {
        None
    } else if f >= TWO_POW_63 {
        Some(Ordering::Less)
    } else if f < -TWO_POW_63 {
        Some(Ordering::Greater)
    } else if i <= f.floor() as i64 {
        // `f` has a fraction, so it lies strictly above its floor.
        Some(Ordering::Less)
    } else {
        Some(Ordering::Greater)
    }
}

impl Datum {
    /// True if NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// Numeric view (ints widen to float); `None` for non-numerics.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Datum::Int(i) => Some(*i as f64),
            Datum::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Text view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Datum::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL three-valued-logic equality: NULL never equals anything.
    /// Numbers compare exactly: an Int is never rounded to a float.
    pub fn sql_eq(&self, other: &Datum) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(match (self, other) {
            (Datum::Text(a), Datum::Text(b)) => a == b,
            (Datum::Bool(a), Datum::Bool(b)) => a == b,
            _ => num_cmp(self, other) == Some(Ordering::Equal),
        })
    }

    /// SQL comparison for ORDER BY and range predicates; NULL compares less
    /// than everything (SQLite convention), mixed types compare by type rank,
    /// numbers compare exactly (a NaN compares equal to every number).
    pub fn sql_cmp(&self, other: &Datum) -> Ordering {
        fn rank(d: &Datum) -> u8 {
            match d {
                Datum::Null => 0,
                Datum::Int(_) | Datum::Float(_) => 1,
                Datum::Text(_) => 2,
                Datum::Bool(_) => 3,
            }
        }
        match (self, other) {
            (Datum::Null, Datum::Null) => Ordering::Equal,
            (Datum::Text(a), Datum::Text(b)) => a.cmp(b),
            (Datum::Bool(a), Datum::Bool(b)) => a.cmp(b),
            _ if rank(self) == 1 && rank(other) == 1 => {
                num_cmp(self, other).unwrap_or(Ordering::Equal)
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// Converts to JSON, moving text into the JSON string.
    pub fn into_json(self) -> Value {
        match self {
            Datum::Text(s) => Value::String(s),
            other => other.to_json(),
        }
    }

    /// Converts to JSON, copying text; a non-finite float is `null`.
    pub fn to_json(&self) -> Value {
        match self {
            Datum::Null => Value::Null,
            Datum::Int(i) => Value::from(*i),
            Datum::Float(f) => Value::from(*f),
            Datum::Text(s) => Value::String(s.clone()),
            Datum::Bool(b) => Value::Bool(*b),
        }
    }

    /// Byte length of the compact JSON text of [`Datum::to_json`], counted
    /// without rendering it.
    pub fn json_len(&self) -> usize {
        match self {
            Datum::Null => 4,
            Datum::Int(i) => number_len(&Number::from(*i)),
            Datum::Float(f) => Number::from_f64(*f).map_or(4, |n| number_len(&n)),
            Datum::Text(s) => escaped_len(s),
            Datum::Bool(true) => 4,
            Datum::Bool(false) => 5,
        }
    }

    /// Converts from JSON (arrays/objects become their JSON text).
    pub fn from_json(v: &Value) -> Datum {
        match v {
            Value::Null => Datum::Null,
            Value::Bool(b) => Datum::Bool(*b),
            Value::Number(n) => {
                if let Some(i) = n.as_i64() {
                    Datum::Int(i)
                } else {
                    Datum::Float(n.as_f64().unwrap_or(0.0))
                }
            }
            Value::String(s) => Datum::Text(s.clone()),
            other => Datum::Text(other.to_string()),
        }
    }
}

impl PartialEq for Datum {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Datum::Null, Datum::Null) => true,
            (Datum::Text(a), Datum::Text(b)) => a == b,
            (Datum::Bool(a), Datum::Bool(b)) => a == b,
            _ => num_cmp(self, other) == Some(Ordering::Equal),
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => f.write_str("NULL"),
            Datum::Int(i) => write!(f, "{i}"),
            Datum::Float(x) => write!(f, "{x}"),
            Datum::Text(s) => f.write_str(s),
            Datum::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Datum {
    fn from(i: i64) -> Self {
        Datum::Int(i)
    }
}

impl From<f64> for Datum {
    fn from(f: f64) -> Self {
        Datum::Float(f)
    }
}

impl From<&str> for Datum {
    fn from(s: &str) -> Self {
        Datum::Text(s.to_string())
    }
}

impl From<String> for Datum {
    fn from(s: String) -> Self {
        Datum::Text(s)
    }
}

impl From<bool> for Datum {
    fn from(b: bool) -> Self {
        Datum::Bool(b)
    }
}

/// Hashable key form of a datum, used for GROUP BY keys and hash indices:
/// two numeric datums share a key exactly when they compare equal (a whole
/// float keys as its integer; other floats by bit pattern).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DatumKey {
    /// NULL key.
    Null,
    /// Integer key (floats that are whole numbers normalize here).
    Int(i64),
    /// Float key by bit pattern.
    Float(u64),
    /// Text key.
    Text(String),
    /// Bool key.
    Bool(bool),
}

impl From<&Datum> for DatumKey {
    fn from(d: &Datum) -> Self {
        match d {
            Datum::Null => DatumKey::Null,
            Datum::Int(i) => DatumKey::Int(*i),
            Datum::Float(f) => whole_float(*f).map_or(DatumKey::Float(f.to_bits()), DatumKey::Int),
            Datum::Text(s) => DatumKey::Text(s.clone()),
            Datum::Bool(b) => DatumKey::Bool(*b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn null_propagates_in_sql_eq() {
        assert_eq!(Datum::Null.sql_eq(&Datum::Int(1)), None);
        assert_eq!(Datum::Int(1).sql_eq(&Datum::Null), None);
        assert_eq!(Datum::Int(1).sql_eq(&Datum::Int(1)), Some(true));
    }

    #[test]
    fn numbers_compare_exactly_around_two_pow_53() {
        let big = 9_007_199_254_740_992i64; // 2^53
        let (int, above) = (Datum::Int(big), Datum::Int(big + 1));
        let float = Datum::Float(big as f64);
        // `big + 1` rounds to `big` as an f64, but the values differ.
        assert_eq!(above.sql_eq(&int), Some(false));
        assert_eq!(above.sql_eq(&float), Some(false));
        assert_ne!(above, float);
        assert_eq!(above.sql_cmp(&float), Ordering::Greater);
        assert_eq!(float.sql_cmp(&above), Ordering::Less);
        assert_eq!(int.sql_eq(&float), Some(true));
        assert_eq!(DatumKey::from(&int), DatumKey::from(&float));
        assert_ne!(DatumKey::from(&above), DatumKey::from(&float));
        // Fractions and out-of-range floats order against every Int.
        assert_eq!(Datum::Int(-3).sql_cmp(&Datum::Float(-2.5)), Ordering::Less);
        assert_eq!(
            Datum::Int(-2).sql_cmp(&Datum::Float(-2.5)),
            Ordering::Greater
        );
        assert_eq!(
            Datum::Int(i64::MAX).sql_cmp(&Datum::Float(2f64.powi(63))),
            Ordering::Less
        );
        assert_eq!(
            Datum::Int(i64::MIN).sql_cmp(&Datum::Float(-2f64.powi(63))),
            Ordering::Equal
        );
        assert_ne!(
            DatumKey::from(&Datum::Float(2f64.powi(63))),
            DatumKey::Int(i64::MAX)
        );
        assert_eq!(Datum::Int(1).sql_eq(&Datum::Float(f64::NAN)), Some(false));
    }

    #[test]
    fn numeric_widening_in_eq() {
        assert_eq!(Datum::Int(2).sql_eq(&Datum::Float(2.0)), Some(true));
        assert_eq!(Datum::Int(2), Datum::Float(2.0));
        assert_ne!(Datum::Int(2), Datum::Float(2.5));
    }

    #[test]
    fn cross_type_eq_is_false() {
        assert_eq!(Datum::Text("1".into()).sql_eq(&Datum::Int(1)), Some(false));
        assert_eq!(Datum::Bool(true).sql_eq(&Datum::Int(1)), Some(false));
    }

    #[test]
    fn ordering_null_first() {
        assert_eq!(Datum::Null.sql_cmp(&Datum::Int(0)), Ordering::Less);
        assert_eq!(Datum::Int(0).sql_cmp(&Datum::Null), Ordering::Greater);
        assert_eq!(Datum::Null.sql_cmp(&Datum::Null), Ordering::Equal);
    }

    #[test]
    fn ordering_within_types() {
        assert_eq!(Datum::Int(1).sql_cmp(&Datum::Float(1.5)), Ordering::Less);
        assert_eq!(
            Datum::Text("a".into()).sql_cmp(&Datum::Text("b".into())),
            Ordering::Less
        );
        assert_eq!(
            Datum::Bool(false).sql_cmp(&Datum::Bool(true)),
            Ordering::Less
        );
    }

    #[test]
    fn json_round_trip() {
        for v in [json!(null), json!(true), json!(5), json!(2.5), json!("hi")] {
            let d = Datum::from_json(&v);
            assert_eq!(d.into_json(), v);
        }
        // Composite JSON values flatten to their text form.
        let d = Datum::from_json(&json!([1, 2]));
        assert_eq!(d, Datum::Text("[1,2]".into()));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Datum::Null.to_string(), "NULL");
        assert_eq!(Datum::Int(3).to_string(), "3");
        assert_eq!(Datum::Text("x".into()).to_string(), "x");
        assert_eq!(Datum::Bool(true).to_string(), "true");
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Datum::from(3i64), Datum::Int(3));
        assert_eq!(Datum::from(2.5f64), Datum::Float(2.5));
        assert_eq!(Datum::from("s"), Datum::Text("s".into()));
        assert_eq!(Datum::from(String::from("t")), Datum::Text("t".into()));
        assert_eq!(Datum::from(true), Datum::Bool(true));
    }

    #[test]
    fn datum_key_normalizes_whole_floats() {
        assert_eq!(DatumKey::from(&Datum::Float(2.0)), DatumKey::Int(2));
        assert_eq!(DatumKey::from(&Datum::Int(2)), DatumKey::Int(2));
        assert!(matches!(
            DatumKey::from(&Datum::Float(2.5)),
            DatumKey::Float(_)
        ));
    }

    #[test]
    fn as_views() {
        assert_eq!(Datum::Int(1).as_f64(), Some(1.0));
        assert_eq!(Datum::Text("x".into()).as_f64(), None);
        assert_eq!(Datum::Text("x".into()).as_str(), Some("x"));
        assert_eq!(Datum::Bool(true).as_bool(), Some(true));
        assert!(Datum::Null.is_null());
    }
}
