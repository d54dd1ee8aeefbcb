//! The control-message protocol spoken over streams.
//!
//! Centralized orchestration (§V-H) works entirely through control messages:
//! the task coordinator publishes [`ExecuteAgent`] instructions, agent hosts
//! pick up the ones addressed to them, and publish an [`AgentReport`] with
//! actual QoS costs when done. Keeping the protocol on streams (rather than
//! direct calls) is what makes execution observable and replayable.
//!
//! An instruction travels as a typed message body
//! ([`Message::control_body`]): the host takes its inputs, row batches
//! included, by downcasting the shared body, without decoding JSON. Its
//! JSON form, the derived `Serialize` of [`ExecuteAgent`], is rendered only
//! where JSON is read (traces, dead letters, exports).

use std::any::Any;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use serde_json::{Map, Value};

use blueprint_streams::{escaped_len, number_len, object_len, Message, MessageBody, MessageId};

use crate::param::Inputs;

/// Well-known control operation names.
pub mod ops {
    /// Instruction to execute an agent with given inputs.
    pub const EXECUTE_AGENT: &str = "execute-agent";
    /// Report of a completed (or failed) agent execution.
    pub const AGENT_REPORT: &str = "agent-report";
    /// A task plan emitted by the task planner.
    pub const TASK_PLAN: &str = "task-plan";
    /// A data plan emitted by the data planner.
    pub const DATA_PLAN: &str = "data-plan";
    /// Agent announces joining a session.
    pub const AGENT_ENTER: &str = "agent-enter";
    /// Agent announces leaving a session.
    pub const AGENT_EXIT: &str = "agent-exit";
}

/// Instruction addressed to a specific agent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecuteAgent {
    /// Target agent name.
    pub agent: String,
    /// Input values for the processor.
    pub inputs: Inputs,
    /// Stream the outputs should be published to.
    pub output_stream: String,
    /// Task this instruction belongs to. Its report is tagged
    /// `task:<task_id>`, which is what the coordinator's one report
    /// subscription per task watches; a replan's instructions therefore keep
    /// the original task's id (their `output_stream` names the replacement
    /// plan).
    pub task_id: String,
    /// Plan node this instruction executes.
    pub node_id: String,
    /// Tracing span id of the coordinator-side node span, so the host can
    /// parent its `invoke:<agent>` span under the plan node that issued the
    /// instruction (None when tracing is disarmed).
    pub span: Option<u64>,
}

impl ExecuteAgent {
    /// Wraps the instruction in a control message tagged `execute-agent`
    /// and with the target agent name as an additional tag, so hosts can
    /// subscribe selectively.
    ///
    /// The instruction is the message's typed body, moved into an `Arc`;
    /// read as JSON, the payload is the derived `Serialize` form.
    pub fn into_message(self) -> Message {
        let tag = format!("agent:{}", self.agent);
        Message::control_body(ops::EXECUTE_AGENT, Arc::new(self)).with_tag(tag)
    }

    /// The instruction of an `execute-agent` message, borrowed from its
    /// typed body; `None` for any other message, and for one that carries
    /// the instruction as JSON (see [`ExecuteAgent::from_message`]).
    pub fn of(msg: &Message) -> Option<&Self> {
        if msg.control_op() != Some(ops::EXECUTE_AGENT) {
            return None;
        }
        msg.body()
    }

    /// Parses an instruction out of a control message; `None` when the
    /// message is not an `execute-agent` op. A typed body is cloned (its
    /// row batches are shared); JSON arguments are decoded from the
    /// borrowed payload.
    pub fn from_message(msg: &Message) -> Option<Self> {
        if msg.control_op() != Some(ops::EXECUTE_AGENT) {
            return None;
        }
        match msg.body::<Self>() {
            Some(exec) => Some(exec.clone()),
            None => Self::deserialize(msg.control_args()?).ok(),
        }
    }
}

impl MessageBody for ExecuteAgent {
    fn to_json(&self) -> Value {
        self.serialize()
    }

    /// The derived form's keys in map order, each value's length counted
    /// without rendering it.
    fn json_len(&self) -> usize {
        let span = self.span.map_or(4, |s| number_len(&s.into()));
        object_len([
            ("agent", escaped_len(&self.agent)),
            ("inputs", self.inputs.json_len()),
            ("node_id", escaped_len(&self.node_id)),
            ("output_stream", escaped_len(&self.output_stream)),
            ("span", span),
            ("task_id", escaped_len(&self.task_id)),
        ])
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Execution report published by an agent host after a processor run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentReport {
    /// The id of the `execute-agent` message this report answers, echoed
    /// by the host (`MessageId(0)` for autonomous fires). The coordinator
    /// routes reports by it alone.
    pub instruction: MessageId,
    /// Reporting agent.
    pub agent: String,
    /// Task this execution belonged to (empty for autonomous fires).
    pub task_id: String,
    /// Plan node (empty for autonomous fires).
    pub node_id: String,
    /// Whether the processor succeeded.
    pub ok: bool,
    /// Error description when `ok` is false.
    pub error: Option<String>,
    /// Actual monetary cost incurred (cost units).
    pub cost: f64,
    /// Actual latency in simulated microseconds.
    pub latency_micros: u64,
    /// Outputs produced (echoed for budget/quality audit), as JSON object.
    pub outputs: Value,
}

impl AgentReport {
    /// Wraps the report in a control message tagged `agent-report`.
    ///
    /// Every field is moved into the arguments; the payload equals the
    /// derived `Serialize` form.
    pub fn into_message(self) -> Message {
        let tag = format!("task:{}", self.task_id);
        let mut args = Map::new();
        args.insert("instruction".into(), Value::from(self.instruction.0));
        args.insert("agent".into(), Value::String(self.agent));
        args.insert("task_id".into(), Value::String(self.task_id));
        args.insert("node_id".into(), Value::String(self.node_id));
        args.insert("ok".into(), Value::Bool(self.ok));
        args.insert(
            "error".into(),
            self.error.map_or(Value::Null, Value::String),
        );
        args.insert("cost".into(), Value::from(self.cost));
        args.insert("latency_micros".into(), Value::from(self.latency_micros));
        args.insert("outputs".into(), self.outputs);
        Message::control(ops::AGENT_REPORT, Value::Object(args)).with_tag(tag)
    }

    /// Parses a report out of a control message, decoding straight from
    /// the borrowed arguments.
    pub fn from_message(msg: &Message) -> Option<Self> {
        if msg.control_op() != Some(ops::AGENT_REPORT) {
            return None;
        }
        Self::deserialize(msg.control_args()?).ok()
    }

    /// The id of the instruction `msg` answers, when `msg` is a report.
    /// Reads it from the borrowed arguments, so a consumer can route a
    /// report, or drop one it no longer awaits, without decoding it.
    pub fn instruction_of(msg: &Message) -> Option<MessageId> {
        if msg.control_op() != Some(ops::AGENT_REPORT) {
            return None;
        }
        msg.control_args()?
            .get("instruction")?
            .as_u64()
            .map(MessageId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_streams::Tag;
    use serde_json::json;

    #[test]
    fn execute_agent_round_trip() {
        let exec = ExecuteAgent {
            agent: "summarizer".into(),
            inputs: Inputs::new().with("text", json!("hello")),
            output_stream: "session:1:summary".into(),
            task_id: "t1".into(),
            node_id: "n1".into(),
            span: None,
        };
        let msg = exec.clone().into_message();
        assert!(msg.has_tag(&Tag::new("execute-agent")));
        assert!(msg.has_tag(&Tag::new("agent:summarizer")));
        let back = ExecuteAgent::from_message(&msg).unwrap();
        assert_eq!(back, exec);
    }

    #[test]
    fn execute_agent_ignores_other_ops() {
        let msg = Message::control("other-op", json!({}));
        assert!(ExecuteAgent::from_message(&msg).is_none());
        assert!(ExecuteAgent::from_message(&Message::data("x")).is_none());
    }

    #[test]
    fn report_round_trip() {
        let report = AgentReport {
            instruction: MessageId(41),
            agent: "nl2q".into(),
            task_id: "t9".into(),
            node_id: "n2".into(),
            ok: false,
            error: Some("no matching table".into()),
            cost: 0.25,
            latency_micros: 1500,
            outputs: json!({}),
        };
        let msg = report.clone().into_message();
        assert!(msg.has_tag(&Tag::new("agent-report")));
        assert!(msg.has_tag(&Tag::new("task:t9")));
        let back = AgentReport::from_message(&msg).unwrap();
        assert_eq!(back, report);
    }

    fn instructions() -> Vec<ExecuteAgent> {
        [None, Some(17)]
            .into_iter()
            .map(|span| ExecuteAgent {
                agent: "job-matcher".into(),
                inputs: Inputs::new()
                    .with("jobs", json!([{"id": 1, "title": "a\"b"}, {"id": -2}]))
                    .with("criteria", json!("remote é")),
                output_stream: "session:1:task:t1:n1".into(),
                task_id: "t1".into(),
                node_id: "n1".into(),
                span,
            })
            .collect()
    }

    fn reports() -> Vec<AgentReport> {
        let mut out = Vec::new();
        for error in [None, Some("boom".to_string())] {
            for cost in [0.0, 0.125, 2.0 / 3.0] {
                out.push(AgentReport {
                    instruction: MessageId(41),
                    agent: "nl2q".into(),
                    task_id: "t9".into(),
                    node_id: "n2".into(),
                    ok: error.is_none(),
                    error: error.clone(),
                    cost,
                    latency_micros: 1500,
                    outputs: json!({"rows": [{"n": 1.5}, null]}),
                });
            }
        }
        out
    }

    #[test]
    fn instruction_payload_is_the_serialized_struct() {
        for exec in instructions() {
            let wire = Message::control(ops::EXECUTE_AGENT, serde_json::to_value(&exec).unwrap())
                .with_tag(format!("agent:{}", exec.agent));
            let msg = exec.clone().into_message();
            assert_eq!(msg.payload(), wire.payload());
            assert_eq!(msg.tags, wire.tags);
            assert_eq!(ExecuteAgent::from_message(&msg), Some(exec));
        }
    }

    #[test]
    fn report_payload_is_the_serialized_struct() {
        for report in reports() {
            let wire = Message::control(ops::AGENT_REPORT, serde_json::to_value(&report).unwrap())
                .with_tag(format!("task:{}", report.task_id));
            let msg = report.clone().into_message();
            assert_eq!(msg.payload(), wire.payload());
            assert_eq!(msg.tags, wire.tags);
            assert_eq!(AgentReport::from_message(&msg), Some(report));
        }
    }

    #[test]
    fn instruction_of_reads_the_echoed_id_of_reports_only() {
        let msg = reports().remove(0).into_message();
        assert_eq!(AgentReport::instruction_of(&msg), Some(MessageId(41)));
        let instruction = instructions().remove(0).into_message();
        assert_eq!(AgentReport::instruction_of(&instruction), None);
        let foreign = Message::control(ops::AGENT_REPORT, json!({"instruction": "m41"}));
        assert_eq!(AgentReport::instruction_of(&foreign), None);
    }

    /// An instruction whose `jobs` input is a row batch (with a duplicate
    /// column, escapes, a non-finite float), and the same instruction with
    /// the batch's JSON in its place.
    fn batch_and_json_instructions() -> (ExecuteAgent, ExecuteAgent) {
        use blueprint_datastore::{Datum, RowBatch};
        let batch = RowBatch::new(
            vec![
                "id".to_string(),
                "title".into(),
                "pay".into(),
                "title".into(),
            ],
            vec![
                vec![
                    Datum::Int(1),
                    Datum::from("a\"b"),
                    Datum::Float(f64::NAN),
                    Datum::from("x\né"),
                ],
                vec![
                    Datum::Int(-2),
                    Datum::Null,
                    Datum::Float(3.0),
                    Datum::Bool(true),
                ],
            ],
        );
        let rendered = batch.to_json();
        let with = |jobs: Inputs| ExecuteAgent {
            agent: "job-matcher".into(),
            inputs: jobs.with("criteria", json!("remote")),
            output_stream: "session:1:task:t1:n1".into(),
            task_id: "t1".into(),
            node_id: "n1".into(),
            span: Some(17),
        };
        (
            with(Inputs::new().with_data("jobs", batch)),
            with(Inputs::new().with("jobs", rendered)),
        )
    }

    #[test]
    fn batch_instruction_serializes_and_exports_like_its_json_form() {
        use blueprint_observability::{Observability, SimClock, Tracer};
        use blueprint_streams::StreamStore;
        let (typed, json) = batch_and_json_instructions();
        // The same instruction as a JSON-valued control message.
        let wire = Message::control(ops::EXECUTE_AGENT, serde_json::to_value(&json).unwrap())
            .with_tag("agent:job-matcher");
        let published = |msg: Message| {
            let clock = SimClock::new();
            let obs = Observability {
                tracer: Tracer::new(clock.clone()),
                ..Observability::disarmed()
            };
            let store = StreamStore::observed(clock, obs);
            let msg = store
                .publish_to("session:1:instructions", ["instructions"], msg)
                .unwrap();
            let trace = store.observability().tracer.snapshot();
            (
                serde_json::to_string(&*msg).unwrap(),
                trace.to_chrome_json().to_string(),
                store.stats().bytes_published,
            )
        };
        let msg = typed.clone().into_message();
        assert!(ExecuteAgent::of(&msg)
            .unwrap()
            .inputs
            .rows("jobs")
            .is_some());
        assert_eq!(msg.payload_size(), wire.payload_size());
        assert_eq!(
            msg.payload_size(),
            serde_json::to_string(wire.payload()).unwrap().len()
        );
        assert_eq!(published(msg), published(wire));
        assert_eq!(typed, json);
    }

    #[test]
    fn batch_inputs_are_shared_not_decoded() {
        let (typed, _) = batch_and_json_instructions();
        let batch = std::sync::Arc::clone(typed.inputs.rows("jobs").unwrap());
        let msg = typed.into_message();
        let taken = ExecuteAgent::from_message(&msg).unwrap();
        assert!(std::sync::Arc::ptr_eq(
            taken.inputs.rows("jobs").unwrap(),
            &batch
        ));
        // A decoded copy of the JSON form carries the rows as JSON.
        let decoded: Message = serde_json::from_str(&serde_json::to_string(&msg).unwrap()).unwrap();
        let from_json = ExecuteAgent::from_message(&decoded).unwrap();
        assert!(from_json.inputs.rows("jobs").is_none());
        assert_eq!(from_json, taken);
    }

    #[test]
    fn malformed_args_yield_none() {
        let msg = Message::control(ops::EXECUTE_AGENT, json!({"agent": 42}));
        assert!(ExecuteAgent::from_message(&msg).is_none());
    }
}
