//! Typed input/output parameters of agents.
//!
//! Agents declare their interface as named, typed parameters (§V-B): the
//! JOB MATCHER takes `job_seeker_data`, `jobs`, and optionally `criteria`,
//! and produces `matches`. The task planner connects outputs to inputs by
//! these declarations (Fig 6), and the task coordinator validates values
//! against them before invoking the processor.
//!
//! Values are JSON, except a data plan's SQL result: it arrives as the
//! [`RowBatch`] the relational source returned, shared by `Arc` from the
//! data planner to the processor. A processor that reads rows takes the
//! batch ([`Inputs::rows`]) and reads cells by column index; one that asks
//! for JSON gets the array of row objects the batch renders to, rendered
//! once. Type checks treat a batch as that array.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};
use serde_json::Value;

use blueprint_datastore::{DataValue, RowBatch};
use blueprint_streams::object_len;

use crate::error::AgentError;
use crate::Result;

/// The coarse value types flowing between agents.
///
/// These are deliberately few: parameters carry JSON values (or row
/// batches that stand for JSON tables), and `DataType`
/// exists so planners can check output→input compatibility and so the data
/// planner knows when a transformation (e.g. `extract`) must be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Free-form natural-language text.
    Text,
    /// A structured JSON object.
    Json,
    /// A numeric value.
    Number,
    /// A boolean flag.
    Boolean,
    /// A homogeneous list of values.
    List,
    /// A relational result set (rows of objects).
    Table,
    /// Anything; always compatible.
    Any,
}

impl DataType {
    /// Whether a value of `self` can be fed into a parameter of type `other`
    /// without transformation.
    pub fn compatible_with(self, other: DataType) -> bool {
        self == other || self == DataType::Any || other == DataType::Any
    }

    /// Checks a concrete JSON value against this type.
    pub fn check(self, value: &Value) -> bool {
        match self {
            DataType::Text => value.is_string(),
            DataType::Json => value.is_object(),
            DataType::Number => value.is_number(),
            DataType::Boolean => value.is_boolean(),
            DataType::List => value.is_array(),
            DataType::Table => {
                value.is_array()
                    && value
                        .as_array()
                        .is_some_and(|rows| rows.iter().all(Value::is_object))
            }
            DataType::Any => true,
        }
    }

    /// Checks a row batch against this type, as the array of objects it
    /// renders to: a table, a list, or anything.
    pub fn check_rows(self) -> bool {
        matches!(self, DataType::Table | DataType::List | DataType::Any)
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Text => "text",
            DataType::Json => "json",
            DataType::Number => "number",
            DataType::Boolean => "boolean",
            DataType::List => "list",
            DataType::Table => "table",
            DataType::Any => "any",
        }
    }
}

/// Declaration of one input or output parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamSpec {
    /// Parameter name (snake_case by convention, e.g. `job_seeker_data`).
    pub name: String,
    /// Natural-language description (used by planners to match parameters).
    pub description: String,
    /// Expected value type.
    pub data_type: DataType,
    /// Whether the parameter must be present for the agent to fire.
    pub required: bool,
    /// Default value used when an optional parameter is absent.
    pub default: Option<Value>,
}

impl ParamSpec {
    /// A required parameter.
    pub fn required(name: impl Into<String>, description: impl Into<String>, ty: DataType) -> Self {
        ParamSpec {
            name: name.into(),
            description: description.into(),
            data_type: ty,
            required: true,
            default: None,
        }
    }

    /// An optional parameter with no default.
    pub fn optional(name: impl Into<String>, description: impl Into<String>, ty: DataType) -> Self {
        ParamSpec {
            name: name.into(),
            description: description.into(),
            data_type: ty,
            required: false,
            default: None,
        }
    }

    /// Builder-style: sets a default value (implies optional).
    pub fn with_default(mut self, default: Value) -> Self {
        self.default = Some(default);
        self.required = false;
        self
    }
}

/// One value of an input bag, with a row batch's JSON rendered at most
/// once, on the first JSON read.
#[derive(Debug)]
struct Slot {
    value: DataValue,
    json: OnceLock<Value>,
}

impl Slot {
    fn json(&self) -> &Value {
        match &self.value {
            DataValue::Json(v) => v,
            DataValue::Rows(batch) => self.json.get_or_init(|| batch.to_json()),
        }
    }

    /// An owned copy: a batch not rendered yet is rendered straight into
    /// it, without caching a copy.
    fn to_json(&self) -> Value {
        match self.json.get() {
            Some(rendered) => rendered.clone(),
            None => self.value.as_json().into_owned(),
        }
    }

    fn into_json(self) -> Value {
        match self.json.into_inner() {
            Some(rendered) => rendered,
            None => self.value.into_json(),
        }
    }
}

impl From<DataValue> for Slot {
    fn from(value: DataValue) -> Self {
        Slot {
            value,
            json: OnceLock::new(),
        }
    }
}

/// A copy shares the batch and leaves its JSON unrendered.
impl Clone for Slot {
    fn clone(&self) -> Self {
        self.value.clone().into()
    }
}

/// A bag of named values arriving at (or leaving) a processor.
///
/// A value is JSON, or a [`RowBatch`] shared by `Arc` (a data plan's SQL
/// result). [`Inputs::rows`] hands a processor the batch itself; the JSON
/// accessors ([`Inputs::get`], [`Inputs::require`], `Serialize`) render it
/// once, on the first read, to the array of row objects it stands for.
#[derive(Debug, Clone, Default)]
pub struct Inputs(BTreeMap<String, Slot>);

impl Inputs {
    /// Empty input bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insertion.
    pub fn with(mut self, name: impl Into<String>, value: Value) -> Self {
        self.insert(name, value);
        self
    }

    /// Inserts a value.
    pub fn insert(&mut self, name: impl Into<String>, value: Value) {
        self.insert_data(name, value);
    }

    /// Builder-style insertion of a data value (JSON or a row batch).
    pub fn with_data(mut self, name: impl Into<String>, value: impl Into<DataValue>) -> Self {
        self.insert_data(name, value);
        self
    }

    /// Inserts a data value (JSON or a row batch); a batch is shared, not
    /// rendered.
    pub fn insert_data(&mut self, name: impl Into<String>, value: impl Into<DataValue>) {
        self.0.insert(name.into(), Slot::from(value.into()));
    }

    /// Looks up a value as JSON (a row batch is rendered on the first read).
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0.get(name).map(Slot::json)
    }

    /// The row batch under `name`, when that value is one. Never renders.
    pub fn rows(&self, name: &str) -> Option<&Arc<RowBatch>> {
        self.0.get(name)?.value.rows()
    }

    /// Looks up a string value.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(Value::as_str)
    }

    /// Required string value or `MissingInput`.
    pub fn require_str(&self, name: &str) -> Result<&str> {
        self.get_str(name)
            .ok_or_else(|| AgentError::MissingInput(name.to_string()))
    }

    /// Required value or `MissingInput`.
    pub fn require(&self, name: &str) -> Result<&Value> {
        self.get(name)
            .ok_or_else(|| AgentError::MissingInput(name.to_string()))
    }

    /// Number of values present.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if no values are present.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order, as JSON.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.0.iter().map(|(k, slot)| (k, slot.json()))
    }

    /// Validates and completes this bag against the given parameter specs:
    /// checks presence of required params, fills defaults, and type-checks.
    /// A row batch checks as the array of objects it renders to.
    pub fn validate(mut self, specs: &[ParamSpec]) -> Result<Self> {
        for spec in specs {
            match self.0.get(&spec.name) {
                Some(slot) => {
                    let (ok, got) = match &slot.value {
                        DataValue::Json(v) => (spec.data_type.check(v), type_name_of(v)),
                        DataValue::Rows(_) => (spec.data_type.check_rows(), "table"),
                    };
                    if !ok {
                        return Err(AgentError::TypeMismatch {
                            param: spec.name.clone(),
                            expected: spec.data_type.name().to_string(),
                            got: got.to_string(),
                        });
                    }
                }
                None => {
                    if let Some(default) = &spec.default {
                        self.insert(spec.name.clone(), default.clone());
                    } else if spec.required {
                        return Err(AgentError::MissingInput(spec.name.clone()));
                    }
                }
            }
        }
        Ok(self)
    }

    /// Converts to a JSON object.
    pub fn to_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(k, slot)| (k.clone(), slot.to_json()))
                .collect(),
        )
    }

    /// Converts to a JSON object, moving the values.
    pub fn into_json(self) -> Value {
        Value::Object(
            self.0
                .into_iter()
                .map(|(k, slot)| (k, slot.into_json()))
                .collect(),
        )
    }

    /// Byte length of the compact JSON text of [`Inputs::to_json`], counted
    /// without rendering it (a row batch knows its own).
    pub fn json_len(&self) -> usize {
        object_len(
            self.0
                .iter()
                .map(|(k, slot)| (k.as_str(), slot.value.json_len())),
        )
    }

    /// Builds an input bag from a JSON object; non-objects yield an empty bag.
    pub fn from_json(value: &Value) -> Self {
        let mut map = BTreeMap::new();
        if let Some(obj) = value.as_object() {
            for (k, v) in obj {
                map.insert(k.clone(), DataValue::Json(v.clone()).into());
            }
        }
        Inputs(map)
    }
}

/// Equal when they render to the same JSON object.
impl PartialEq for Inputs {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Serialize for Inputs {
    fn serialize(&self) -> Value {
        self.to_json()
    }
}

impl Deserialize for Inputs {
    fn deserialize(value: &Value) -> std::result::Result<Self, serde::Error> {
        match value {
            Value::Object(_) => Ok(Inputs::from_json(value)),
            _ => Err(serde::Error::custom("expected object")),
        }
    }
}

impl FromIterator<(String, Value)> for Inputs {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Inputs(
            iter.into_iter()
                .map(|(k, v)| (k, DataValue::Json(v).into()))
                .collect(),
        )
    }
}

/// Output values produced by a processor, plus the tags to attach when the
/// host publishes them to streams.
pub type Outputs = Inputs;

fn type_name_of(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "boolean",
        Value::Number(_) => "number",
        Value::String(_) => "text",
        Value::Array(_) => "list",
        Value::Object(_) => "json",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn type_check_matrix() {
        assert!(DataType::Text.check(&json!("hi")));
        assert!(!DataType::Text.check(&json!(3)));
        assert!(DataType::Json.check(&json!({"a": 1})));
        assert!(DataType::Number.check(&json!(2.5)));
        assert!(DataType::Boolean.check(&json!(true)));
        assert!(DataType::List.check(&json!([1, 2])));
        assert!(DataType::Table.check(&json!([{"a":1}, {"b":2}])));
        assert!(!DataType::Table.check(&json!([1, 2])));
        assert!(DataType::Any.check(&json!(null)));
    }

    #[test]
    fn compatibility_is_reflexive_and_any_absorbs() {
        for t in [
            DataType::Text,
            DataType::Json,
            DataType::Number,
            DataType::Boolean,
            DataType::List,
            DataType::Table,
        ] {
            assert!(t.compatible_with(t));
            assert!(t.compatible_with(DataType::Any));
            assert!(DataType::Any.compatible_with(t));
        }
        assert!(!DataType::Text.compatible_with(DataType::Table));
    }

    #[test]
    fn validate_fills_defaults() {
        let specs = [
            ParamSpec::required("q", "query", DataType::Text),
            ParamSpec::optional("limit", "max rows", DataType::Number).with_default(json!(10)),
        ];
        let out = Inputs::new()
            .with("q", json!("data scientist"))
            .validate(&specs)
            .unwrap();
        assert_eq!(out.get("limit"), Some(&json!(10)));
    }

    #[test]
    fn validate_rejects_missing_required() {
        let specs = [ParamSpec::required("q", "query", DataType::Text)];
        let err = Inputs::new().validate(&specs).unwrap_err();
        assert_eq!(err, AgentError::MissingInput("q".into()));
    }

    #[test]
    fn validate_rejects_type_mismatch() {
        let specs = [ParamSpec::required("q", "query", DataType::Text)];
        let err = Inputs::new()
            .with("q", json!(5))
            .validate(&specs)
            .unwrap_err();
        assert!(matches!(err, AgentError::TypeMismatch { .. }));
    }

    #[test]
    fn optional_absent_param_is_fine() {
        let specs = [ParamSpec::optional(
            "criteria",
            "extra conditions",
            DataType::Text,
        )];
        let out = Inputs::new().validate(&specs).unwrap();
        assert!(out.get("criteria").is_none());
    }

    #[test]
    fn json_round_trip() {
        let inputs = Inputs::new().with("a", json!(1)).with("b", json!("x"));
        let j = inputs.to_json();
        let back = Inputs::from_json(&j);
        assert_eq!(back, inputs);
        assert_eq!(Inputs::from_json(&json!("not an object")).len(), 0);
    }

    #[test]
    fn require_helpers() {
        let inputs = Inputs::new().with("text", json!("hello"));
        assert_eq!(inputs.require_str("text").unwrap(), "hello");
        assert!(inputs.require_str("missing").is_err());
        assert!(inputs.require("missing").is_err());
    }

    #[test]
    fn with_default_makes_optional() {
        let p = ParamSpec::required("x", "", DataType::Number).with_default(json!(1));
        assert!(!p.required);
    }
}
