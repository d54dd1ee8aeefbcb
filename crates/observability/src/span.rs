//! Sim-clock tracing spans.
//!
//! A [`Tracer`] records [`SpanRecord`]s stamped from the shared
//! [`SimClock`]: because every component charges simulated
//! time instead of reading the wall clock, a deterministic execution yields a
//! byte-stable trace — identical span names, parentage, and timestamps on
//! every run — which tests can assert exactly.
//!
//! The tracer also records *flow edges* ([`FlowRecord`]): a component
//! publishing a message onto a stream or consuming one from it. The stream
//! store and the agent hosts report them, and [`Trace::render_sequence`]
//! draws the paper's sequence diagrams (Figs 9, 10) from them.
//!
//! The tracer is a handle: cloning is cheap, and a *disarmed* tracer (the
//! default) turns every operation into a no-op on an `Option` check, so
//! instrumented hot paths cost nothing when tracing is off.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::clock::SimClock;
use crate::export::Trace;

/// Identifier of one recorded span, unique within its tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// What kind of record a [`SpanRecord`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// An interval with a start and an end.
    Span,
    /// A point-in-time event (`start == end`).
    Instant,
}

/// One completed span or instant event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Tracer-unique id, assigned in span *start* order.
    pub id: SpanId,
    /// Parent span, when this span is part of a tree.
    pub parent: Option<SpanId>,
    /// Span name, e.g. `node:n1`.
    pub name: String,
    /// Emitting subsystem, e.g. `coordinator` (the crate-name convention
    /// mirrors the `blueprint.<crate>.<name>` instrument convention).
    pub category: String,
    /// Interval or instant.
    pub kind: SpanKind,
    /// Sim-clock start, microseconds.
    pub start_micros: u64,
    /// Sim-clock end, microseconds (`== start_micros` for instants).
    pub end_micros: u64,
    /// Sorted key/value annotations (sorted so traces are byte-stable).
    pub attrs: BTreeMap<String, String>,
}

impl SpanRecord {
    /// Sim-clock duration in microseconds.
    pub fn duration_micros(&self) -> u64 {
        self.end_micros.saturating_sub(self.start_micros)
    }
}

/// Whether a component wrote a message to a stream or read one from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlowDirection {
    /// The component published the message onto the stream.
    Publish,
    /// The component consumed the message from the stream.
    Consume,
}

/// One edge of the data/control flow graph: a message crossing a stream
/// boundary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Publish or consume.
    pub direction: FlowDirection,
    /// Component name ("user", an agent, "task-coordinator", ...).
    pub component: String,
    /// The stream (or the agent's view of it, e.g. `binding:<param>`).
    pub stream: String,
    /// Short payload label: `data:<text>`, `control:<op>` or `eos`.
    pub payload: String,
}

struct TracerInner {
    clock: SimClock,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    flows: Mutex<Vec<FlowRecord>>,
}

/// Records spans stamped from the simulated clock.
///
/// Disarmed by default ([`Tracer::disarmed`], [`Default`]): every call is a
/// no-op. Arm with [`Tracer::new`], passing the runtime's shared clock.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// An armed tracer stamping spans from `clock`.
    pub fn new(clock: SimClock) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                clock,
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
                flows: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A disarmed tracer: every operation is a no-op.
    pub fn disarmed() -> Self {
        Tracer::default()
    }

    /// True when spans are being recorded.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a root span. The span records itself when dropped (or via
    /// [`SpanHandle::end`]).
    pub fn span(&self, category: &str, name: impl Into<String>) -> SpanHandle {
        self.open(category, name, None)
    }

    /// Opens a span under `parent`.
    pub fn child_span(
        &self,
        category: &str,
        name: impl Into<String>,
        parent: SpanId,
    ) -> SpanHandle {
        self.open(category, name, Some(parent))
    }

    /// Records a zero-duration instant event annotated with `attrs`. The
    /// stamp and the id are taken under the record lock, so instants
    /// snapshot in the order they were recorded.
    pub fn instant(
        &self,
        category: &str,
        name: impl Into<String>,
        parent: Option<SpanId>,
        attrs: &[(&str, &str)],
    ) {
        let Some(inner) = &self.inner else { return };
        let name = name.into();
        let attrs = attrs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut spans = inner.spans.lock();
        let now = inner.clock.now_micros();
        spans.push(SpanRecord {
            id: SpanId(inner.next_id.fetch_add(1, Ordering::Relaxed)),
            parent,
            name,
            category: category.to_string(),
            kind: SpanKind::Instant,
            start_micros: now,
            end_micros: now,
            attrs,
        });
    }

    /// Records a flow edge: `component` published `payload` onto, or
    /// consumed it from, `stream`. An empty component is recorded as
    /// `unknown`. The payload label is built only when the tracer is armed;
    /// a disarmed tracer takes no lock and allocates nothing.
    pub fn flow(
        &self,
        direction: FlowDirection,
        component: &str,
        stream: &str,
        payload: impl FnOnce() -> String,
    ) {
        let Some(inner) = &self.inner else { return };
        let component = if component.is_empty() {
            "unknown"
        } else {
            component
        };
        let record = FlowRecord {
            direction,
            component: component.to_string(),
            stream: stream.to_string(),
            payload: payload(),
        };
        inner.flows.lock().push(record);
    }

    fn open(&self, category: &str, name: impl Into<String>, parent: Option<SpanId>) -> SpanHandle {
        let Some(inner) = &self.inner else {
            return SpanHandle {
                inner: None,
                record: None,
            };
        };
        let record = SpanRecord {
            id: SpanId(inner.next_id.fetch_add(1, Ordering::Relaxed)),
            parent,
            name: name.into(),
            category: category.to_string(),
            kind: SpanKind::Span,
            start_micros: inner.clock.now_micros(),
            end_micros: 0,
            attrs: BTreeMap::new(),
        };
        SpanHandle {
            inner: Some(Arc::clone(inner)),
            record: Some(record),
        }
    }

    /// Number of span and instant records so far (flow edges not counted).
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.spans.lock().len())
    }

    /// True when no span or instant has been recorded (or the tracer is
    /// disarmed).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every completed record, spans sorted by `(start, id)` so
    /// the order is stable regardless of which thread finished a span
    /// first, flow edges in the order they were recorded.
    pub fn snapshot(&self) -> Trace {
        let Some(inner) = &self.inner else {
            return Trace::default();
        };
        let mut spans = inner.spans.lock().clone();
        spans.sort_by_key(|s| (s.start_micros, s.id));
        Trace {
            spans,
            flows: inner.flows.lock().clone(),
        }
    }

    /// Discards every recorded span and flow edge (the tracer stays armed;
    /// ids keep counting so later snapshots never reuse an id).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            inner.spans.lock().clear();
            inner.flows.lock().clear();
        }
    }
}

/// An open span. Records itself into the tracer when dropped; annotate with
/// [`SpanHandle::attr`] before that. Handles from a disarmed tracer are
/// inert.
pub struct SpanHandle {
    inner: Option<Arc<TracerInner>>,
    record: Option<SpanRecord>,
}

impl SpanHandle {
    /// This span's id, for parenting children (None when disarmed).
    pub fn id(&self) -> Option<SpanId> {
        self.record.as_ref().map(|r| r.id)
    }

    /// Attaches a key/value annotation.
    pub fn attr(&mut self, key: &str, value: impl Into<String>) {
        if let Some(r) = &mut self.record {
            r.attrs.insert(key.to_string(), value.into());
        }
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for SpanHandle {
    fn drop(&mut self) {
        let (Some(inner), Some(mut record)) = (self.inner.take(), self.record.take()) else {
            return;
        };
        record.end_micros = inner.clock.now_micros();
        inner.spans.lock().push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_tracer_records_nothing() {
        let t = Tracer::disarmed();
        assert!(!t.is_armed());
        let mut span = t.span("test", "root");
        span.attr("k", "v");
        assert_eq!(span.id(), None);
        drop(span);
        t.instant("test", "evt", None, &[]);
        t.flow(FlowDirection::Publish, "u", "s", || unreachable!());
        assert!(t.is_empty());
        assert!(t.snapshot().spans.is_empty());
    }

    #[test]
    fn spans_stamp_sim_clock() {
        let clock = SimClock::new();
        let t = Tracer::new(clock.clone());
        clock.advance_micros(10);
        let span = t.span("test", "work");
        clock.advance_micros(5);
        span.end();
        let trace = t.snapshot();
        assert_eq!(trace.spans.len(), 1);
        let s = &trace.spans[0];
        assert_eq!(s.start_micros, 10);
        assert_eq!(s.end_micros, 15);
        assert_eq!(s.duration_micros(), 5);
        assert_eq!(s.kind, SpanKind::Span);
    }

    #[test]
    fn parentage_and_attrs_recorded() {
        let t = Tracer::new(SimClock::new());
        let root = t.span("test", "root");
        let root_id = root.id().unwrap();
        let mut child = t.child_span("test", "child", root_id);
        child.attr("node", "n1");
        drop(child);
        t.instant("test", "tick", Some(root_id), &[("why", "test")]);
        drop(root);
        let trace = t.snapshot();
        assert_eq!(trace.spans.len(), 3);
        let child = trace.spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, Some(root_id));
        assert_eq!(child.attrs["node"], "n1");
        let tick = trace.spans.iter().find(|s| s.name == "tick").unwrap();
        assert_eq!(tick.kind, SpanKind::Instant);
        assert_eq!(tick.parent, Some(root_id));
        assert_eq!(tick.attrs["why"], "test");
    }

    #[test]
    fn snapshot_sorts_by_start_then_id() {
        let clock = SimClock::new();
        let t = Tracer::new(clock.clone());
        let a = t.span("test", "a"); // id 1, start 0
        clock.advance_micros(3);
        let b = t.span("test", "b"); // id 2, start 3
        drop(b); // b finishes (and is pushed) before a
        drop(a);
        let names: Vec<_> = t.snapshot().spans.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn identical_executions_yield_identical_traces() {
        let run = || {
            let clock = SimClock::new();
            let t = Tracer::new(clock.clone());
            let root = t.span("test", "task");
            for i in 0..3 {
                clock.advance_micros(7);
                let mut s = t.child_span("test", format!("node:n{i}"), root.id().unwrap());
                s.attr("agent", format!("agent-{i}"));
                clock.advance_micros(11);
                drop(s);
            }
            drop(root);
            t.snapshot().spans
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn flows_keep_record_order_and_name_unknown_components() {
        let t = Tracer::new(SimClock::new());
        t.flow(FlowDirection::Publish, "user", "s", || "data:hi".into());
        t.flow(FlowDirection::Consume, "", "s", || "data:hi".into());
        let flows = t.snapshot().flows;
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].direction, FlowDirection::Publish);
        assert_eq!(flows[1].component, "unknown");
        // Flow edges are not span records.
        assert!(t.is_empty());
    }

    #[test]
    fn clear_keeps_ids_monotonic() {
        let t = Tracer::new(SimClock::new());
        t.span("test", "one").end();
        t.flow(FlowDirection::Publish, "u", "s", || "eos".into());
        let first_id = t.snapshot().spans[0].id;
        t.clear();
        assert!(t.is_empty());
        assert!(t.snapshot().flows.is_empty());
        t.span("test", "two").end();
        assert!(t.snapshot().spans[0].id > first_id);
    }
}
