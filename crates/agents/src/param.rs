//! Typed input/output parameters of agents.
//!
//! Agents declare their interface as named, typed parameters (§V-B): the
//! JOB MATCHER takes `job_seeker_data`, `jobs`, and optionally `criteria`,
//! and produces `matches`. The task planner connects outputs to inputs by
//! these declarations (Fig 6), and the task coordinator validates values
//! against them before invoking the processor.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::error::AgentError;
use crate::Result;

/// The coarse value types flowing between agents.
///
/// These are deliberately few: parameters carry JSON values, and `DataType`
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

/// A bag of named values arriving at (or leaving) a processor.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Inputs(BTreeMap<String, Value>);

impl Inputs {
    /// Empty input bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insertion.
    pub fn with(mut self, name: impl Into<String>, value: Value) -> Self {
        self.0.insert(name.into(), value);
        self
    }

    /// Inserts a value.
    pub fn insert(&mut self, name: impl Into<String>, value: Value) {
        self.0.insert(name.into(), value);
    }

    /// Looks up a value.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0.get(name)
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

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.0.iter()
    }

    /// Validates and completes this bag against the given parameter specs:
    /// checks presence of required params, fills defaults, and type-checks.
    pub fn validate(mut self, specs: &[ParamSpec]) -> Result<Self> {
        for spec in specs {
            match self.0.get(&spec.name) {
                Some(value) => {
                    if !spec.data_type.check(value) {
                        return Err(AgentError::TypeMismatch {
                            param: spec.name.clone(),
                            expected: spec.data_type.name().to_string(),
                            got: type_name_of(value).to_string(),
                        });
                    }
                }
                None => {
                    if let Some(default) = &spec.default {
                        self.0.insert(spec.name.clone(), default.clone());
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
        Value::Object(self.0.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
    }

    /// Converts to a JSON object, moving the values.
    pub fn into_json(self) -> Value {
        Value::Object(self.0)
    }

    /// Builds an input bag from a JSON object; non-objects yield an empty bag.
    pub fn from_json(value: &Value) -> Self {
        let mut map = BTreeMap::new();
        if let Some(obj) = value.as_object() {
            for (k, v) in obj {
                map.insert(k.clone(), v.clone());
            }
        }
        Inputs(map)
    }
}

impl FromIterator<(String, Value)> for Inputs {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Inputs(iter.into_iter().collect())
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
