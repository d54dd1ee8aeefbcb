//! Trace exporters: Chrome `trace_event` JSON and a plain-text timeline.
//!
//! A [`Trace`] is an immutable snapshot taken from a
//! [`Tracer`](crate::Tracer). The Chrome exporter emits the JSON object
//! format (`{"traceEvents": [...]}`) with complete (`ph: "X"`) and instant
//! (`ph: "i"`) events, loadable in `chrome://tracing` or Perfetto. Because
//! Chrome renders one horizontal lane per `tid`, overlapping spans are
//! greedily packed into lanes so concurrent plan nodes show up side by side.
//! [`Trace::render_sequence`] draws the recorded flow edges as the numbered
//! sequence diagram of the paper's Figs 9 and 10.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

use crate::span::{FlowDirection, FlowRecord, SpanId, SpanKind, SpanRecord};

/// An immutable snapshot of recorded spans and flow edges.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Every completed record, sorted by `(start_micros, id)`.
    pub spans: Vec<SpanRecord>,
    /// Every flow edge, in the order it was recorded.
    pub flows: Vec<FlowRecord>,
}

impl Trace {
    /// Renders the flow edges as a numbered sequence diagram, the format of
    /// the paper's Figs 9 and 10. Example line:
    /// `  3. task-coordinator --[control:execute-agent]--> session:1:instructions`.
    pub fn render_sequence(&self) -> String {
        let mut out = String::new();
        for (i, f) in self.flows.iter().enumerate() {
            let (left, right) = match f.direction {
                FlowDirection::Publish => ("--[", "]-->"),
                FlowDirection::Consume => ("<--[", "]--"),
            };
            out.push_str(&format!(
                "{:>3}. {} {left}{}{right} {}\n",
                i + 1,
                f.component,
                f.payload,
                f.stream
            ));
        }
        out
    }

    /// The distinct components of the flow edges in first-seen order: the
    /// lifelines of the sequence diagram.
    pub fn participants(&self) -> Vec<String> {
        let mut seen: Vec<String> = Vec::new();
        for f in &self.flows {
            if !seen.contains(&f.component) {
                seen.push(f.component.clone());
            }
        }
        seen
    }

    /// Records with no parent, in trace order.
    pub fn roots(&self) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent.is_none()).collect()
    }

    /// Direct children of `parent`, in trace order.
    pub fn children_of(&self, parent: SpanId) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .collect()
    }

    /// The first record with the given name, if any.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The Chrome `trace_event` JSON object for this trace.
    ///
    /// Sim-clock microseconds map directly onto the format's `ts`/`dur`
    /// fields (which are also microseconds). All events share `pid` 1;
    /// `tid` is a display lane assigned greedily so overlapping spans never
    /// share a lane.
    pub fn to_chrome_json(&self) -> Value {
        // Greedy lane packing: walk spans in (start, id) order and reuse the
        // first lane whose previous occupant has already ended.
        let mut lane_free_at: Vec<u64> = Vec::new();
        let mut lanes: BTreeMap<SpanId, usize> = BTreeMap::new();
        for span in &self.spans {
            if span.kind == SpanKind::Instant {
                continue;
            }
            let lane = lane_free_at
                .iter()
                .position(|&free| free <= span.start_micros)
                .unwrap_or_else(|| {
                    lane_free_at.push(0);
                    lane_free_at.len() - 1
                });
            lane_free_at[lane] = span.end_micros.max(span.start_micros + 1);
            lanes.insert(span.id, lane);
        }

        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|span| {
                let mut args = serde_json::Map::new();
                args.insert("id".into(), json!(span.id.0));
                if let Some(parent) = span.parent {
                    args.insert("parent".into(), json!(parent.0));
                }
                for (k, v) in &span.attrs {
                    args.insert(k.clone(), json!(v));
                }
                // Instants render in their parent's lane when they have one.
                let lane = lanes
                    .get(&span.id)
                    .copied()
                    .or_else(|| span.parent.and_then(|p| lanes.get(&p).copied()));
                let mut event = json!({
                    "name": span.name,
                    "cat": span.category,
                    "ts": span.start_micros,
                    "pid": 1,
                    "tid": lane.unwrap_or(0),
                    "args": Value::Object(args),
                });
                let obj = event.as_object_mut().unwrap();
                match span.kind {
                    SpanKind::Span => {
                        obj.insert("ph".into(), json!("X"));
                        obj.insert("dur".into(), json!(span.duration_micros()));
                    }
                    SpanKind::Instant => {
                        obj.insert("ph".into(), json!("i"));
                        obj.insert("s".into(), json!("t"));
                    }
                }
                event
            })
            .collect();

        json!({
            "traceEvents": events,
            "displayTimeUnit": "ms",
        })
    }

    /// Writes [`Trace::to_chrome_json`] to `path`.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        let text = serde_json::to_string_pretty(&self.to_chrome_json())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        file.write_all(text.as_bytes())?;
        file.write_all(b"\n")
    }

    /// An indented plain-text timeline, one line per record:
    ///
    /// ```text
    /// [       0..  45000] task:t-1 (coordinator)
    /// [       0..  15000]   node:extract (coordinator) agent=extractor
    /// ```
    pub fn render_text(&self) -> String {
        let mut depth: BTreeMap<SpanId, usize> = BTreeMap::new();
        let mut out = String::new();
        for span in &self.spans {
            let d = span
                .parent
                .and_then(|p| depth.get(&p).copied())
                .map_or(0, |pd| pd + 1);
            depth.insert(span.id, d);
            let indent = "  ".repeat(d);
            let attrs: Vec<String> = span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let attrs = if attrs.is_empty() {
                String::new()
            } else {
                format!(" {}", attrs.join(" "))
            };
            let marker = match span.kind {
                SpanKind::Span => format!("{:>8}..{:>8}", span.start_micros, span.end_micros),
                SpanKind::Instant => format!("{:>8} @      ", span.start_micros),
            };
            out.push_str(&format!(
                "[{marker}] {indent}{} ({}){attrs}\n",
                span.name, span.category
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::span::{FlowDirection, Tracer};

    fn sample_trace() -> Trace {
        let clock = SimClock::new();
        let t = Tracer::new(clock.clone());
        let root = t.span("coordinator", "task:t-1");
        let root_id = root.id().unwrap();
        let mut a = t.child_span("coordinator", "node:a", root_id);
        a.attr("agent", "extractor");
        let b = t.child_span("coordinator", "node:b", root_id);
        clock.advance_micros(10);
        t.instant("coordinator", "retry", Some(root_id), &[]);
        drop(a);
        clock.advance_micros(5);
        drop(b);
        drop(root);
        t.snapshot()
    }

    #[test]
    fn tree_navigation() {
        let trace = sample_trace();
        let roots = trace.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "task:t-1");
        let children = trace.children_of(roots[0].id);
        assert_eq!(children.len(), 3); // node:a, node:b, retry instant
        assert!(trace.find("node:b").is_some());
    }

    fn named<'a>(events: &'a [Value], name: &str) -> &'a Value {
        events
            .iter()
            .find(|e| e["name"].as_str() == Some(name))
            .unwrap()
    }

    #[test]
    fn chrome_json_shape() {
        let trace = sample_trace();
        let doc = trace.to_chrome_json();
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), trace.spans.len());
        let task = named(events, "task:t-1");
        assert_eq!(task["ph"], json!("X"));
        assert_eq!(task["ts"], json!(0));
        assert_eq!(task["dur"], json!(15));
        assert_eq!(task["pid"], json!(1));
        let retry = named(events, "retry");
        assert_eq!(retry["ph"], json!("i"));
        assert_eq!(retry["ts"], json!(10));
        let a = named(events, "node:a");
        assert_eq!(a["args"]["agent"], json!("extractor"));
        assert_eq!(a["args"]["parent"], task["args"]["id"]);
    }

    #[test]
    fn overlapping_spans_get_distinct_lanes() {
        let trace = sample_trace();
        let doc = trace.to_chrome_json();
        let events = doc["traceEvents"].as_array().unwrap();
        let lane = |name: &str| named(events, name)["tid"].as_u64().unwrap();
        // task, node:a, node:b all overlap → three distinct lanes.
        let lanes = [lane("task:t-1"), lane("node:a"), lane("node:b")];
        assert_eq!(
            lanes
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            3
        );
    }

    #[test]
    fn sequential_spans_share_a_lane() {
        let clock = SimClock::new();
        let t = Tracer::new(clock.clone());
        let a = t.span("test", "a");
        clock.advance_micros(5);
        drop(a);
        let b = t.span("test", "b");
        clock.advance_micros(5);
        drop(b);
        let doc = t.snapshot().to_chrome_json();
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events[0]["tid"], events[1]["tid"]);
    }

    #[test]
    fn text_timeline_indents_children() {
        let text = sample_trace().render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("task:t-1"));
        assert!(lines[1].contains("  node:a"));
        assert!(lines[1].contains("agent=extractor"));
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn sequence_numbers_edges_and_lists_participants_once() {
        let t = Tracer::new(SimClock::new());
        let hi = || "data:hi".to_string();
        t.flow(FlowDirection::Publish, "user", "session:1:user", hi);
        t.flow(FlowDirection::Consume, "ae", "session:1:user", hi);
        t.flow(FlowDirection::Publish, "user", "session:1:user", || {
            "eos".into()
        });
        let trace = t.snapshot();
        assert_eq!(
            trace.render_sequence(),
            "  1. user --[data:hi]--> session:1:user\n  \
             2. ae <--[data:hi]-- session:1:user\n  \
             3. user --[eos]--> session:1:user\n"
        );
        assert_eq!(trace.participants(), ["user", "ae"]);
    }

    #[test]
    fn write_chrome_trace_round_trips() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join("blueprint-observability-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        trace.write_chrome_trace(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed, trace.to_chrome_json());
        std::fs::remove_file(&path).ok();
    }
}
