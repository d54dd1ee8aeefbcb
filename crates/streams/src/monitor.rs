//! Flow monitoring: the observability surface over the streams database.
//!
//! Because every exchange between components is an explicit message on a
//! stream, recording `(producer, stream, message)` publish edges and
//! `(consumer, stream, message)` consume edges yields a complete trace of an
//! agentic workflow. The edges are events of the runtime's tracer, recorded
//! only when tracing is armed: the store records each publish, and agent
//! hosts report each consume through
//! [`StreamStore::record_consume`](crate::StreamStore::record_consume). The
//! figure-regeneration binaries render them with
//! `Trace::render_sequence` to print the exact sequence diagrams of the
//! paper's Figs 9 and 10.

use blueprint_observability::{FlowDirection, Tracer};

use crate::message::{Message, MessageKind};

/// Records one flow edge of `msg` into `tracer`; a no-op (no lock, no
/// allocation) when the tracer is disarmed.
pub(crate) fn record(
    tracer: &Tracer,
    direction: FlowDirection,
    component: &str,
    stream: &str,
    msg: &Message,
) {
    tracer.flow(direction, component, stream, || label(msg));
}

/// The payload label of `msg`'s flow edges: `control:<op>`, `eos`, or
/// `data:` plus the text cut to at most 48 bytes on a character boundary
/// (`<json>` for structured data). Only the kept prefix is copied.
fn label(msg: &Message) -> String {
    let (prefix, raw) = match msg.kind {
        MessageKind::Control => ("control:", msg.control_op().unwrap_or("control")),
        MessageKind::Eos => return "eos".to_string(),
        MessageKind::Data => ("data:", msg.text().unwrap_or("<json>")),
    };
    const MAX: usize = 48;
    if raw.len() > MAX {
        let mut cut = MAX;
        while !raw.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{prefix}{}…", &raw[..cut])
    } else {
        format!("{prefix}{raw}")
    }
}

#[cfg(test)]
mod tests {
    use blueprint_observability::{FlowRecord, Observability, SimClock, Trace};

    use crate::{Message, StreamId, StreamStore, Tag};

    /// A store whose tracer is armed, and the stream `session:1:user`.
    fn traced() -> (StreamStore, StreamId) {
        let clock = SimClock::new();
        let obs = Observability {
            tracer: blueprint_observability::Tracer::new(clock.clone()),
            ..Observability::disarmed()
        };
        let store = StreamStore::observed(clock, obs);
        let id = store
            .create_stream("session:1:user", Vec::<Tag>::new())
            .unwrap();
        (store, id)
    }

    fn trace(store: &StreamStore) -> Trace {
        store.observability().tracer.snapshot()
    }

    fn publish(store: &StreamStore, id: &StreamId, msg: Message) -> FlowRecord {
        store.publish(id, msg).unwrap();
        trace(store).flows.pop().unwrap()
    }

    #[test]
    fn records_publish_and_consume() {
        let (store, id) = traced();
        let msg = store
            .publish(&id, Message::data("hello").from_producer("user"))
            .unwrap();
        store.record_consume("agentic-employer", "binding:text", &msg);
        let flows = trace(&store).flows;
        assert_eq!(flows.len(), 2);
        assert_eq!(
            flows[0].direction,
            blueprint_observability::FlowDirection::Publish
        );
        assert_eq!(flows[0].stream, "session:1:user");
        assert_eq!(
            flows[1].direction,
            blueprint_observability::FlowDirection::Consume
        );
        assert_eq!(flows[1].component, "agentic-employer");
        assert_eq!(flows[1].stream, "binding:text");
    }

    #[test]
    fn disabled_monitor_records_nothing() {
        // A store built without an armed tracer keeps no flow edge.
        let store = StreamStore::new();
        let id = store.create_stream("s", Vec::<Tag>::new()).unwrap();
        let msg = store.publish(&id, Message::data("x")).unwrap();
        store.record_consume("c", "s", &msg);
        assert!(trace(&store).flows.is_empty());
        assert_eq!(store.stats().messages_published, 1);
    }

    #[test]
    fn labels_truncate_long_payloads() {
        let (store, id) = traced();
        let edge = publish(&store, &id, Message::data("x".repeat(200)));
        assert_eq!(edge.payload, format!("data:{}…", "x".repeat(48)));
    }

    #[test]
    fn long_text_label_cuts_on_a_char_boundary() {
        let (store, id) = traced();
        let tail = "b".repeat(1 << 20);
        // `é` spans bytes 47..49, across the 48-byte cut: it is dropped.
        let across = format!("{}é{tail}", "a".repeat(47));
        let edge = publish(&store, &id, Message::data(across));
        assert_eq!(edge.payload, format!("data:{}…", "a".repeat(47)));
        // Here it spans bytes 46..48 and ends exactly at the cut: it stays.
        let within = format!("{}é{tail}", "a".repeat(46));
        let edge = publish(&store, &id, Message::data(within));
        assert_eq!(edge.payload, format!("data:{}é…", "a".repeat(46)));
    }

    #[test]
    fn control_label_uses_op() {
        let (store, id) = traced();
        let control = Message::control("execute-agent", serde_json::json!({}));
        assert_eq!(
            publish(&store, &id, control).payload,
            "control:execute-agent"
        );
        let json = Message::data_json(serde_json::json!({"a": 1}));
        assert_eq!(publish(&store, &id, json).payload, "data:<json>");
        assert_eq!(publish(&store, &id, Message::eos()).payload, "eos");
    }

    #[test]
    fn render_sequence_is_numbered() {
        let (store, id) = traced();
        let msg = store
            .publish(&id, Message::data("hi").from_producer("user"))
            .unwrap();
        store.record_consume("ae", id.as_str(), &msg);
        let s = trace(&store).render_sequence();
        assert!(s.contains("1. user --[data:hi]--> session:1:user"), "{s}");
        assert!(s.contains("2. ae <--[data:hi]-- session:1:user"), "{s}");
    }

    #[test]
    fn participants_in_first_seen_order() {
        let (store, id) = traced();
        for producer in ["user", "ae", "user"] {
            store
                .publish(&id, Message::data("x").from_producer(producer))
                .unwrap();
        }
        assert_eq!(trace(&store).participants(), ["user", "ae"]);
    }

    #[test]
    fn empty_component_becomes_unknown() {
        let (store, id) = traced();
        assert_eq!(
            publish(&store, &id, Message::data("x")).component,
            "unknown"
        );
    }

    #[test]
    fn clear_resets() {
        let (store, id) = traced();
        store.publish(&id, Message::data("x")).unwrap();
        store.observability().tracer.clear();
        let trace = trace(&store);
        assert!(trace.flows.is_empty());
        assert!(trace.participants().is_empty());
    }
}
