//! Flow monitoring: the observability surface over the streams database.
//!
//! Because every exchange between components is an explicit message on a
//! stream, recording `(producer, stream, message)` publish events and
//! `(consumer, stream, message)` consume events yields a complete trace of an
//! agentic workflow. The figure-regeneration binaries use this to print the
//! exact sequence diagrams of the paper's Figs 9 and 10.

use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::message::{Message, MessageId, MessageKind};
use crate::stream::StreamId;

/// One observed edge in the data/control flow graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowEdge {
    /// `publish` or `consume`.
    pub direction: FlowDirection,
    /// Component name ("user", agent name, "task-coordinator", ...).
    pub component: String,
    /// Stream involved.
    pub stream: StreamId,
    /// Message involved.
    pub message: MessageId,
    /// Data vs control.
    pub kind: MessageKind,
    /// Short human-readable label of the payload (for sequence diagrams).
    pub label: String,
}

/// Whether the component produced or consumed the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlowDirection {
    /// Component wrote the message to the stream.
    Publish,
    /// Component read the message from the stream.
    Consume,
}

/// A short label for `msg`: its op, `eos`, or its text cut to at most 48
/// bytes on a character boundary. Only the kept prefix is copied.
fn label_of(msg: &Message) -> String {
    let raw = match msg.kind {
        MessageKind::Control => msg.control_op().unwrap_or("control"),
        MessageKind::Eos => "eos",
        MessageKind::Data => msg.text().unwrap_or("<json>"),
    };
    const MAX: usize = 48;
    if raw.len() > MAX {
        let mut cut = MAX;
        while !raw.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &raw[..cut])
    } else {
        raw.to_string()
    }
}

/// Records flow edges; cloneable handle onto shared state.
#[derive(Debug, Clone, Default)]
pub struct FlowMonitor {
    edges: Arc<RwLock<Vec<FlowEdge>>>,
    enabled: Arc<RwLock<bool>>,
}

impl FlowMonitor {
    /// Creates an enabled monitor.
    pub fn new() -> Self {
        FlowMonitor {
            edges: Arc::new(RwLock::new(Vec::new())),
            enabled: Arc::new(RwLock::new(true)),
        }
    }

    /// Enables or disables recording (disable on hot paths in benches).
    pub fn set_enabled(&self, enabled: bool) {
        *self.enabled.write() = enabled;
    }

    /// Records that `component` published `msg` onto `stream`.
    pub fn record_publish(&self, component: &str, stream: &StreamId, msg: &Message) {
        self.record(FlowDirection::Publish, component, stream, msg);
    }

    /// Records that `component` consumed `msg` from `stream`.
    pub fn record_consume(&self, component: &str, stream: &StreamId, msg: &Message) {
        self.record(FlowDirection::Consume, component, stream, msg);
    }

    fn record(&self, direction: FlowDirection, component: &str, stream: &StreamId, msg: &Message) {
        if !*self.enabled.read() {
            return;
        }
        let component = if component.is_empty() {
            "unknown"
        } else {
            component
        };
        // Built before the global write lock: only the push is serialized.
        let edge = FlowEdge {
            direction,
            component: component.to_string(),
            stream: stream.clone(),
            message: msg.id,
            kind: msg.kind,
            label: label_of(msg),
        };
        self.edges.write().push(edge);
    }

    /// Snapshot of all recorded edges in order.
    pub fn edges(&self) -> Vec<FlowEdge> {
        self.edges.read().clone()
    }

    /// Number of recorded edges.
    pub fn len(&self) -> usize {
        self.edges.read().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.edges.read().is_empty()
    }

    /// Clears the trace.
    pub fn clear(&self) {
        self.edges.write().clear();
    }

    /// Renders the trace as a numbered, human-readable sequence diagram —
    /// the format used to regenerate the paper's Figs 9 and 10.
    ///
    /// Example line: `3. TC --[control:execute-agent]--> session:1:instructions`.
    pub fn render_sequence(&self) -> String {
        let mut out = String::new();
        for (i, e) in self.edges.read().iter().enumerate() {
            let arrow = match e.direction {
                FlowDirection::Publish => format!(
                    "{} --[{}]--> {}",
                    e.component,
                    match e.kind {
                        MessageKind::Control => format!("control:{}", e.label),
                        MessageKind::Eos => "eos".to_string(),
                        MessageKind::Data => format!("data:{}", e.label),
                    },
                    e.stream
                ),
                FlowDirection::Consume => format!(
                    "{} <--[{}]-- {}",
                    e.component,
                    match e.kind {
                        MessageKind::Control => format!("control:{}", e.label),
                        MessageKind::Eos => "eos".to_string(),
                        MessageKind::Data => format!("data:{}", e.label),
                    },
                    e.stream
                ),
            };
            out.push_str(&format!("{:>3}. {}\n", i + 1, arrow));
        }
        out
    }

    /// Returns the ordered list of distinct components that published,
    /// i.e. the "lifelines" of the sequence diagram.
    pub fn participants(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for e in self.edges.read().iter() {
            if !seen.contains(&e.component) {
                seen.push(e.component.clone());
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;

    fn sid() -> StreamId {
        StreamId::new("session:1:user")
    }

    #[test]
    fn records_publish_and_consume() {
        let mon = FlowMonitor::new();
        let msg = Message::data("hello").from_producer("user");
        mon.record_publish("user", &sid(), &msg);
        mon.record_consume("agentic-employer", &sid(), &msg);
        assert_eq!(mon.len(), 2);
        let edges = mon.edges();
        assert_eq!(edges[0].direction, FlowDirection::Publish);
        assert_eq!(edges[1].direction, FlowDirection::Consume);
        assert_eq!(edges[1].component, "agentic-employer");
    }

    #[test]
    fn disabled_monitor_records_nothing() {
        let mon = FlowMonitor::new();
        mon.set_enabled(false);
        mon.record_publish("u", &sid(), &Message::data("x"));
        assert!(mon.is_empty());
        mon.set_enabled(true);
        mon.record_publish("u", &sid(), &Message::data("x"));
        assert_eq!(mon.len(), 1);
    }

    #[test]
    fn labels_truncate_long_payloads() {
        let mon = FlowMonitor::new();
        let long = "x".repeat(200);
        mon.record_publish("u", &sid(), &Message::data(long));
        let edge = &mon.edges()[0];
        assert!(edge.label.len() <= 52);
        assert!(edge.label.ends_with('…'));
    }

    #[test]
    fn long_text_label_cuts_on_a_char_boundary() {
        let mon = FlowMonitor::new();
        let tail = "b".repeat(1 << 20);
        // `é` spans bytes 47..49, across the 48-byte cut: it is dropped.
        let across = format!("{}é{tail}", "a".repeat(47));
        mon.record_publish("u", &sid(), &Message::data(across));
        // Here it spans bytes 46..48 and ends exactly at the cut: it stays.
        let within = format!("{}é{tail}", "a".repeat(46));
        mon.record_publish("u", &sid(), &Message::data(within));
        let edges = mon.edges();
        assert_eq!(edges[0].label, format!("{}…", "a".repeat(47)));
        assert_eq!(edges[1].label, format!("{}é…", "a".repeat(46)));
    }

    #[test]
    fn control_label_uses_op() {
        let mon = FlowMonitor::new();
        mon.record_publish(
            "tc",
            &sid(),
            &Message::control("execute-agent", serde_json::json!({})),
        );
        assert_eq!(mon.edges()[0].label, "execute-agent");
    }

    #[test]
    fn render_sequence_is_numbered() {
        let mon = FlowMonitor::new();
        mon.record_publish("user", &sid(), &Message::data("hi"));
        mon.record_consume("ae", &sid(), &Message::data("hi"));
        let s = mon.render_sequence();
        assert!(s.contains("1. user --[data:hi]--> session:1:user"));
        assert!(s.contains("2. ae <--[data:hi]-- session:1:user"));
    }

    #[test]
    fn participants_in_first_seen_order() {
        let mon = FlowMonitor::new();
        let m = Message::data("x");
        mon.record_publish("user", &sid(), &m);
        mon.record_publish("ae", &sid(), &m);
        mon.record_publish("user", &sid(), &m);
        assert_eq!(mon.participants(), ["user", "ae"]);
    }

    #[test]
    fn empty_component_becomes_unknown() {
        let mon = FlowMonitor::new();
        mon.record_publish("", &sid(), &Message::data("x"));
        assert_eq!(mon.edges()[0].component, "unknown");
    }

    #[test]
    fn clear_resets() {
        let mon = FlowMonitor::new();
        mon.record_publish("u", &sid(), &Message::data("x"));
        mon.clear();
        assert!(mon.is_empty());
        assert!(mon.participants().is_empty());
    }
}
