//! Messages: the unit of data and control exchanged over streams.
//!
//! A stream is a sequence of messages. Each message carries either **data**
//! (text, structured JSON values, tokens of LLM output, UI events) or a
//! **control** instruction (e.g. "execute the SUMMARIZER agent with these
//! inputs"). Control messages are what let the task coordinator drive an
//! agentic workflow entirely *through* the streams database, keeping the
//! orchestration observable (§V-A, §V-H).
//!
//! A payload is a JSON value, or, for a control message built with
//! [`Message::control_body`], a typed [`MessageBody`] shared by `Arc`. A
//! typed body travels as itself: its consumer downcasts it
//! ([`Message::body`]), it reports its compact-JSON byte length without
//! rendering ([`MessageBody::json_len`]), and its `{op, args}` JSON is
//! rendered once, on demand, only where JSON is read: [`Message::payload`],
//! [`Message::control_args`], `Serialize` and dead letters. Both forms
//! render to the same JSON, so counters, traces and exports cannot tell
//! them apart.

use std::any::Any;
use std::collections::BTreeSet;
use std::fmt::{self, Write as _};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};
use serde_json::{Number, Value};

use crate::tag::Tag;

/// Globally unique message identifier (store-assigned, monotonically
/// increasing across all streams).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct MessageId(pub u64);

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Whether a message carries data or a control instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MessageKind {
    /// Payload is data shared between components.
    Data,
    /// Payload is an instruction for one or more components.
    Control,
    /// End-of-stream marker: the producer signals it is done.
    Eos,
}

/// The typed arguments of a control message, shared by `Arc` instead of
/// being encoded as JSON (see the module docs).
pub trait MessageBody: fmt::Debug + Send + Sync + 'static {
    /// The arguments as JSON: what [`Message::control_args`] returns.
    fn to_json(&self) -> Value;

    /// Byte length of `serde_json::to_string(&self.to_json())`, computed
    /// without rendering it.
    fn json_len(&self) -> usize;

    /// The body as `Any`, for [`Message::body`]'s downcast.
    fn as_any(&self) -> &dyn Any;
}

/// A message's payload: JSON, or a control op with a typed body whose
/// `{op, args}` JSON is rendered at most once, when first read.
#[derive(Debug, Clone)]
enum Payload {
    Json(Value),
    Body {
        op: String,
        args: Arc<dyn MessageBody>,
        rendered: OnceLock<Value>,
    },
}

impl Payload {
    fn json(&self) -> &Value {
        match self {
            Payload::Json(v) => v,
            Payload::Body { op, args, rendered } => {
                rendered.get_or_init(|| control_payload(op, args.to_json()))
            }
        }
    }
}

impl Serialize for Payload {
    fn serialize(&self) -> Value {
        self.json().clone()
    }
}

impl Deserialize for Payload {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        Ok(Payload::Json(value.clone()))
    }
}

/// The `{op, args}` payload of a control message.
fn control_payload(op: &str, args: Value) -> Value {
    let mut payload = serde_json::Map::new();
    payload.insert("op".to_string(), Value::String(op.to_string()));
    payload.insert("args".to_string(), args);
    Value::Object(payload)
}

/// A single message on a stream.
///
/// Messages are immutable once published; the store wraps them in `Arc` so
/// fan-out to many subscribers never copies the payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Message {
    /// Store-assigned unique id (0 until published).
    pub id: MessageId,
    /// Position within the owning stream (0-based; assigned on publish).
    pub seq: u64,
    /// Data vs. control.
    pub kind: MessageKind,
    /// Tags enabling selective consumption (e.g. `nlq`, `sql`, `plan`).
    pub tags: BTreeSet<Tag>,
    /// The payload: JSON, or a typed control body (read it as JSON with
    /// [`Message::payload`]).
    payload: Payload,
    /// Component that produced the message (agent name, "user", ...).
    pub producer: String,
    /// Simulated time of publication in microseconds.
    pub published_at_micros: u64,
}

impl Message {
    /// Creates an unpublished data message with a string payload.
    pub fn data(text: impl Into<String>) -> Self {
        Self::from_value(MessageKind::Data, Value::String(text.into()))
    }

    /// Creates an unpublished data message with a JSON payload.
    pub fn data_json(value: Value) -> Self {
        Self::from_value(MessageKind::Data, value)
    }

    /// Creates an unpublished control message.
    ///
    /// `op` names the instruction (e.g. `execute-agent`) and `args` carries
    /// its parameters. The op is also added as a tag so components can
    /// subscribe to specific instructions.
    /// `args` is moved into the payload, never copied.
    pub fn control(op: impl AsRef<str>, args: Value) -> Self {
        let op = op.as_ref();
        let mut msg = Self::from_value(MessageKind::Control, control_payload(op, args));
        msg.tags.insert(Tag::new(op));
        msg
    }

    /// Creates an unpublished control message whose arguments are a typed
    /// body, shared by `Arc` and rendered as JSON only when read as JSON.
    /// Tagged with the op, as [`Message::control`] is.
    pub fn control_body(op: impl Into<String>, args: Arc<dyn MessageBody>) -> Self {
        let op = op.into();
        let tag = Tag::new(&op);
        let rendered = OnceLock::new();
        Self::from_payload(MessageKind::Control, Payload::Body { op, args, rendered }).with_tag(tag)
    }

    /// Creates an end-of-stream marker.
    pub fn eos() -> Self {
        Self::from_value(MessageKind::Eos, Value::Null)
    }

    fn from_value(kind: MessageKind, payload: Value) -> Self {
        Self::from_payload(kind, Payload::Json(payload))
    }

    fn from_payload(kind: MessageKind, payload: Payload) -> Self {
        Message {
            id: MessageId(0),
            seq: 0,
            kind,
            tags: BTreeSet::new(),
            payload,
            producer: String::new(),
            published_at_micros: 0,
        }
    }

    /// Builder-style: adds a tag.
    pub fn with_tag(mut self, tag: impl Into<Tag>) -> Self {
        self.tags.insert(tag.into());
        self
    }

    /// Builder-style: adds several tags.
    pub fn with_tags<I, T>(mut self, tags: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<Tag>,
    {
        self.tags.extend(tags.into_iter().map(Into::into));
        self
    }

    /// Builder-style: sets the producer.
    pub fn from_producer(mut self, producer: impl Into<String>) -> Self {
        self.producer = producer.into();
        self
    }

    /// True if this is a control message.
    pub fn is_control(&self) -> bool {
        self.kind == MessageKind::Control
    }

    /// True if this is the end-of-stream marker.
    pub fn is_eos(&self) -> bool {
        self.kind == MessageKind::Eos
    }

    /// The payload as JSON. A typed body is rendered on the first call.
    pub fn payload(&self) -> &Value {
        self.payload.json()
    }

    /// The typed body of a control message built with
    /// [`Message::control_body`], when it is a `T`. Never renders JSON.
    pub fn body<T: MessageBody>(&self) -> Option<&T> {
        match &self.payload {
            Payload::Body { args, .. } => args.as_any().downcast_ref(),
            Payload::Json(_) => None,
        }
    }

    /// For control messages, returns the operation name.
    pub fn control_op(&self) -> Option<&str> {
        if self.kind != MessageKind::Control {
            return None;
        }
        match &self.payload {
            Payload::Json(v) => v.get("op").and_then(Value::as_str),
            Payload::Body { op, .. } => Some(op),
        }
    }

    /// For control messages, returns the instruction arguments. A typed
    /// body is rendered on the first call.
    pub fn control_args(&self) -> Option<&Value> {
        if self.kind != MessageKind::Control {
            return None;
        }
        self.payload().get("args")
    }

    /// True if the message carries the given tag.
    pub fn has_tag(&self, tag: &Tag) -> bool {
        self.tags.contains(tag)
    }

    /// Text content, if the payload is a JSON string.
    pub fn text(&self) -> Option<&str> {
        match &self.payload {
            Payload::Json(v) => v.as_str(),
            Payload::Body { .. } => None,
        }
    }

    /// Payload size in bytes: the text length of a string payload, 0 for
    /// `null`, and otherwise the length of the compact JSON text, counted
    /// without rendering it (a typed body reports its own length). Used by
    /// budget accounting and the bytes-published counters.
    pub fn payload_size(&self) -> usize {
        match &self.payload {
            Payload::Json(Value::String(s)) => s.len(),
            Payload::Json(Value::Null) => 0,
            Payload::Json(other) => json_len(other),
            Payload::Body { op, args, .. } => {
                object_len([("args", args.json_len()), ("op", escaped_len(op))])
            }
        }
    }
}

/// Length in bytes of `serde_json::to_string(v)`, computed by walking the
/// value with the printer's rules instead of rendering it.
pub fn json_len(v: &Value) -> usize {
    match v {
        Value::Null => 4,
        Value::Bool(b) => {
            if *b {
                4
            } else {
                5
            }
        }
        Value::Number(n) => number_len(n),
        Value::String(s) => escaped_len(s),
        Value::Array(items) => {
            2 + items.len().saturating_sub(1) + items.iter().map(json_len).sum::<usize>()
        }
        Value::Object(map) => object_len(map.iter().map(|(k, v)| (k.as_str(), json_len(v)))),
    }
}

/// Length of a JSON object's compact text, given each entry's key and the
/// length of its rendered value: braces, commas, quoted keys and colons.
pub fn object_len<'k>(entries: impl IntoIterator<Item = (&'k str, usize)>) -> usize {
    let (mut len, mut n) = (2, 0usize);
    for (key, value_len) in entries {
        len += escaped_len(key) + 1 + value_len;
        n += 1;
    }
    len + n.saturating_sub(1)
}

/// Length of `s` as a quoted JSON string. Text without a byte that needs
/// escaping (below 0x20, `"`, `\`) is copied as is, so its length is
/// `len + 2`; one branch-free count finds those bytes. Otherwise characters
/// with a short escape (`\n`, `\"`, ...) take 2 bytes and other control
/// characters 6 (`\u00XX`); every other byte (each byte of a multi-byte
/// character included) is copied as is.
pub fn escaped_len(s: &str) -> usize {
    let bytes = s.as_bytes();
    let special = bytes
        .iter()
        .map(|&b| usize::from(b < 0x20 || b == b'"' || b == b'\\'))
        .sum::<usize>();
    if special == 0 {
        return bytes.len() + 2;
    }
    2 + bytes
        .iter()
        .map(|&b| match b {
            b'"' | b'\\' | b'\n' | b'\r' | b'\t' | 0x08 | 0x0C => 2,
            0x00..=0x1F => 6,
            _ => 1,
        })
        .sum::<usize>()
}

/// Length of a number as the printer renders it. Integers are their digits
/// and sign. A whole float below 1e15 in magnitude prints as its integer
/// part, then `.0` (`-0.0` keeps its sign); any other float goes through
/// the printer's own formatting into a byte counter.
pub fn number_len(n: &Number) -> usize {
    if let Some(u) = n.as_u64() {
        return digits(u);
    }
    if let Some(i) = n.as_i64() {
        return usize::from(i < 0) + digits(i.unsigned_abs());
    }
    let f = n.as_f64().unwrap_or_default();
    if f.fract() == 0.0 && f.abs() < 1e15 {
        return usize::from(f.is_sign_negative()) + digits(f.abs() as u64) + 2;
    }
    let mut counter = ByteCounter(0);
    let _ = write!(counter, "{n}");
    counter.0
}

/// Number of decimal digits of `u` (1 for 0).
fn digits(u: u64) -> usize {
    u.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// A `fmt::Write` sink that only counts the bytes written to it.
struct ByteCounter(usize);

impl fmt::Write for ByteCounter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn data_message_has_text() {
        let m = Message::data("hello");
        assert_eq!(m.kind, MessageKind::Data);
        assert_eq!(m.text(), Some("hello"));
        assert!(!m.is_control());
    }

    #[test]
    fn control_message_exposes_op_and_args() {
        let m = Message::control("execute-agent", serde_json::json!({"agent": "summarizer"}));
        assert!(m.is_control());
        assert_eq!(m.control_op(), Some("execute-agent"));
        assert_eq!(
            m.control_args().unwrap()["agent"],
            Value::String("summarizer".into())
        );
        // op is auto-tagged
        assert!(m.has_tag(&Tag::new("execute-agent")));
    }

    #[test]
    fn data_message_has_no_control_op() {
        let m = Message::data_json(serde_json::json!({"op": "fake"}));
        assert_eq!(m.control_op(), None);
        assert_eq!(m.control_args(), None);
    }

    #[test]
    fn eos_marker() {
        let m = Message::eos();
        assert!(m.is_eos());
        assert_eq!(m.payload(), &Value::Null);
    }

    #[test]
    fn builder_tags_and_producer() {
        let m = Message::data("x")
            .with_tag("NLQ")
            .with_tags(["sql", "SQL"])
            .from_producer("user");
        assert!(m.has_tag(&Tag::new("nlq")));
        assert!(m.has_tag(&Tag::new("sql")));
        assert_eq!(m.tags.len(), 2); // duplicate normalized away
        assert_eq!(m.producer, "user");
    }

    #[test]
    fn payload_size_estimates() {
        assert_eq!(Message::data("abcd").payload_size(), 4);
        assert_eq!(Message::eos().payload_size(), 0);
        let m = Message::data_json(serde_json::json!({"k": 1}));
        assert!(m.payload_size() >= 7); // {"k":1}
    }

    #[test]
    fn control_payload_matches_the_json_literal() {
        let args = serde_json::json!({"agent": "x", "rows": [1, {"a": null}]});
        let m = Message::control("execute-agent", args.clone());
        assert_eq!(
            m.payload(),
            &serde_json::json!({"op": "execute-agent", "args": args})
        );
    }

    /// A typed body that counts how often it is rendered.
    #[derive(Debug)]
    struct Counted {
        args: Value,
        renders: std::sync::atomic::AtomicUsize,
    }

    impl MessageBody for Counted {
        fn to_json(&self) -> Value {
            self.renders
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.args.clone()
        }
        fn json_len(&self) -> usize {
            json_len(&self.args)
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn typed_body_renders_once_and_only_when_read_as_json() {
        let args = serde_json::json!({"agent": "x", "rows": [1, {"a": "q\"é"}]});
        let body = Arc::new(Counted {
            args: args.clone(),
            renders: Default::default(),
        });
        let typed = Message::control_body("execute-agent", body.clone()).with_tag("t");
        let plain = Message::control("execute-agent", args.clone()).with_tag("t");
        // Op, tags, size and the typed view need no rendering.
        assert_eq!(typed.control_op(), Some("execute-agent"));
        assert_eq!(typed.tags, plain.tags);
        assert_eq!(typed.payload_size(), plain.payload_size());
        assert_eq!(typed.text(), None);
        assert!(std::ptr::eq(typed.body::<Counted>().unwrap(), &*body));
        assert!(plain.body::<Counted>().is_none());
        assert_eq!(body.renders.load(std::sync::atomic::Ordering::Relaxed), 0);
        // Read as JSON, it is the plain message, rendered once.
        assert_eq!(typed.control_args(), Some(&args));
        assert_eq!(typed.payload(), plain.payload());
        assert_eq!(
            serde_json::to_string(&typed).unwrap(),
            serde_json::to_string(&plain).unwrap()
        );
        assert_eq!(
            typed.payload_size(),
            serde_json::to_string(typed.payload()).unwrap().len()
        );
        assert_eq!(body.renders.load(std::sync::atomic::Ordering::Relaxed), 1);
        // A decoded copy carries JSON.
        let back: Message = serde_json::from_str(&serde_json::to_string(&typed).unwrap()).unwrap();
        assert_eq!(back.payload(), plain.payload());
        assert!(back.body::<Counted>().is_none());
    }

    /// Characters covering every escape class of the JSON printer, plus
    /// multi-byte characters of each UTF-8 length.
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{08}', '\u{0C}', '\u{0}', '\u{1}',
        '\u{1F}', '\u{7F}', 'é', '€', '😀',
    ];

    fn arb_string(rng: &mut TestRng) -> String {
        (0..rng.below(8))
            .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
            .collect()
    }

    fn arb_float(rng: &mut TestRng) -> f64 {
        let f = match rng.below(5) {
            0 => f64::from_bits(rng.next_u64()),
            1 => rng.below(2_000) as f64 - 1_000.0,
            2 => (rng.unit_f64() - 0.5) * 10f64.powi(rng.below(40) as i32 - 20),
            // Whole floats of every magnitude, either side of 1e15.
            3 => {
                let whole = (rng.next_u64() >> rng.below(64)) as f64;
                if rng.chance(0.5) {
                    -whole
                } else {
                    whole
                }
            }
            _ => [
                0.0,
                -0.0,
                1e15,
                -1e15,
                999_999_999_999_999.0,
                -999_999_999_999_999.0,
                1e16,
                0.1,
                1e-7,
                f64::MAX,
                f64::MIN_POSITIVE,
            ][rng.below(11) as usize],
        };
        if f.is_finite() {
            f
        } else {
            0.5
        }
    }

    fn arb_value(rng: &mut TestRng, depth: u32) -> Value {
        let kinds = if depth == 0 { 7 } else { 9 };
        match rng.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.chance(0.5)),
            2 => Value::from(rng.next_u64() >> rng.below(64)),
            3 => Value::from(-1 - (rng.next_u64() >> (1 + rng.below(63))) as i64),
            4 => Value::from(i64::MIN),
            5 => Value::from(arb_float(rng)),
            6 => Value::String(arb_string(rng)),
            7 => Value::Array(
                (0..rng.below(4))
                    .map(|_| arb_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..rng.below(4))
                    .map(|_| (arb_string(rng), arb_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Random nested JSON values, up to four levels deep.
    struct ArbValue;

    impl Strategy for ArbValue {
        type Value = Value;
        fn new_value(&self, rng: &mut TestRng) -> Value {
            arb_value(rng, 4)
        }
    }

    proptest! {
        #[test]
        fn payload_size_counts_the_rendered_json(v in ArbValue) {
            let text = serde_json::to_string(&v).unwrap();
            prop_assert_eq!(json_len(&v), text.len());
            // Wrapped, so the payload is a container whatever `v` is.
            let wrapped = Value::Array(vec![v]);
            let text = serde_json::to_string(&wrapped).unwrap();
            prop_assert_eq!(Message::data_json(wrapped).payload_size(), text.len());
        }
    }

    #[test]
    fn serde_round_trip() {
        let m = Message::control("plan", serde_json::json!([1, 2, 3])).with_tag("plan");
        let json = serde_json::to_string(&m).unwrap();
        let back: Message = serde_json::from_str(&json).unwrap();
        assert_eq!(back.control_op(), Some("plan"));
        assert!(back.has_tag(&Tag::new("plan")));
    }

    #[test]
    fn message_id_display() {
        assert_eq!(MessageId(17).to_string(), "m17");
    }
}
