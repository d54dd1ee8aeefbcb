//! Dead-letter stream: quarantine for messages that exhausted their retries.
//!
//! When the coordinator (or any other consumer) gives up on an instruction —
//! retries exhausted, circuit stuck open, no fallback left — the offending
//! message is *quarantined* onto a per-scope dead-letter stream instead of
//! being silently discarded. Each entry carries failure metadata (reason,
//! attempt count, failing component) alongside the original payload and tags,
//! so operators can inspect the damage and [`DeadLetterQueue::replay`] the
//! originals once the fault clears. Because the dead-letter stream is an
//! ordinary stream in the [`StreamStore`], it inherits the fabric's
//! observability for free.

use std::sync::Arc;

use serde::Value;
use serde_json::json;

use crate::message::Message;
use crate::store::StreamStore;
use crate::stream::StreamId;
use crate::Result;

/// Stream-name segment (and tag) used for dead-letter streams.
pub const DEAD_LETTER_SEGMENT: &str = "dead-letter";

/// Control op carried by quarantine messages.
pub const DEAD_LETTER_OP: &str = "dead-letter";

/// One quarantined message, decoded from the dead-letter stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadLetterEntry {
    /// Why the message was quarantined.
    pub reason: String,
    /// How many attempts were made before giving up.
    pub attempts: u64,
    /// The component that gave up (agent name, coordinator, ...).
    pub source: String,
    /// The original message payload.
    pub payload: Value,
    /// The original message tags.
    pub tags: Vec<String>,
    /// When the quarantine happened (store clock, micros).
    pub quarantined_at_micros: u64,
}

/// Handle to the dead-letter stream of one session scope.
#[derive(Clone)]
pub struct DeadLetterQueue {
    store: StreamStore,
    stream: StreamId,
}

impl DeadLetterQueue {
    /// Creates (or attaches to) the dead-letter stream for `scope`.
    pub fn for_scope(store: &StreamStore, scope: &str) -> Result<Self> {
        let stream = store.ensure_stream(
            format!("{scope}:{DEAD_LETTER_SEGMENT}"),
            [DEAD_LETTER_SEGMENT],
        )?;
        Ok(DeadLetterQueue {
            store: store.clone(),
            stream,
        })
    }

    /// The underlying stream id.
    pub fn stream_id(&self) -> &StreamId {
        &self.stream
    }

    /// Quarantines a message with failure metadata. The original payload and
    /// tags ride along so the message can be replayed later.
    pub fn quarantine(
        &self,
        original: &Message,
        reason: &str,
        attempts: u64,
        source: &str,
    ) -> Result<Arc<Message>> {
        let tags: Vec<Value> = original
            .tags
            .iter()
            .map(|t| Value::String(t.to_string()))
            .collect();
        let entry = Message::control(
            DEAD_LETTER_OP,
            json!({
                "reason": reason,
                "attempts": attempts,
                "source": source,
                "original_payload": original.payload(),
                "original_tags": Value::Array(tags),
            }),
        )
        .with_tag(DEAD_LETTER_SEGMENT)
        .from_producer(source);
        self.store.publish(&self.stream, entry)
    }

    /// All quarantined entries, oldest first.
    pub fn entries(&self) -> Result<Vec<DeadLetterEntry>> {
        let msgs = self.store.read(&self.stream, 0)?;
        Ok(msgs.iter().filter_map(|m| decode(m)).collect())
    }

    /// Number of quarantined entries.
    pub fn len(&self) -> Result<usize> {
        Ok(self.entries()?.len())
    }

    /// Whether the queue holds no entries.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Replays every quarantined original onto `target`, re-applying the
    /// original tags plus a `replayed` marker. Returns how many messages were
    /// replayed. The dead-letter stream itself is append-only, so the
    /// quarantine history survives the replay.
    pub fn replay(&self, target: &StreamId) -> Result<usize> {
        let mut replayed = 0;
        for entry in self.entries()? {
            let mut msg = Message::data_json(entry.payload.clone()).with_tag("replayed");
            for tag in &entry.tags {
                msg = msg.with_tag(tag.as_str());
            }
            self.store
                .publish(target, msg.from_producer("dead-letter-replay"))?;
            replayed += 1;
        }
        Ok(replayed)
    }
}

fn decode(msg: &Message) -> Option<DeadLetterEntry> {
    if msg.control_op() != Some(DEAD_LETTER_OP) {
        return None;
    }
    let args = msg.control_args()?;
    Some(DeadLetterEntry {
        reason: args["reason"].as_str().unwrap_or("unknown").to_string(),
        attempts: args["attempts"].as_u64().unwrap_or(0),
        source: args["source"].as_str().unwrap_or("unknown").to_string(),
        payload: args["original_payload"].clone(),
        tags: args["original_tags"]
            .as_array()
            .map(|a| {
                a.iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default(),
        quarantined_at_micros: msg.published_at_micros,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscription::{Selector, TagFilter};
    use crate::tag::Tag;

    #[test]
    fn quarantine_and_decode() {
        let store = StreamStore::new();
        let dlq = DeadLetterQueue::for_scope(&store, "session:1").unwrap();
        assert!(dlq.is_empty().unwrap());

        let original = Message::data("find me a data scientist")
            .with_tag("instructions")
            .from_producer("coordinator");
        dlq.quarantine(&original, "retries exhausted", 3, "coordinator")
            .unwrap();

        let entries = dlq.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].reason, "retries exhausted");
        assert_eq!(entries[0].attempts, 3);
        assert_eq!(entries[0].source, "coordinator");
        assert_eq!(
            entries[0].payload.as_str(),
            Some("find me a data scientist")
        );
        assert!(entries[0].tags.contains(&"instructions".to_string()));
    }

    #[test]
    fn replay_restores_originals() {
        let store = StreamStore::new();
        let dlq = DeadLetterQueue::for_scope(&store, "session:2").unwrap();
        let target = store.create_stream("session:2:retry", ["retry"]).unwrap();

        let sub = store
            .subscribe(Selector::Stream(target.clone()), TagFilter::all())
            .unwrap();

        for i in 0..3 {
            let original = Message::data(format!("payload-{i}")).with_tag("work");
            dlq.quarantine(&original, "agent crashed", 2, "writer")
                .unwrap();
        }
        assert_eq!(dlq.len().unwrap(), 3);

        let replayed = dlq.replay(&target).unwrap();
        assert_eq!(replayed, 3);
        for i in 0..3 {
            let msg = sub.try_recv().unwrap().unwrap();
            assert_eq!(msg.text(), Some(format!("payload-{i}")).as_deref());
            assert!(msg.has_tag(&Tag::new("work")));
            assert!(msg.has_tag(&Tag::new("replayed")));
        }
        // Quarantine history survives the replay.
        assert_eq!(dlq.len().unwrap(), 3);
    }

    #[test]
    fn dead_letter_stream_is_observable() {
        let store = StreamStore::new();
        let dlq = DeadLetterQueue::for_scope(&store, "session:3").unwrap();
        let sub = store
            .subscribe(
                Selector::StreamTagged(Tag::new(DEAD_LETTER_SEGMENT)),
                TagFilter::all(),
            )
            .unwrap();
        dlq.quarantine(&Message::data("x"), "boom", 1, "agent-a")
            .unwrap();
        let msg = sub.try_recv().unwrap().unwrap();
        assert_eq!(msg.control_op(), Some(DEAD_LETTER_OP));
    }
}
