//! # blueprint-streams
//!
//! Streams are the central *orchestration* concept of the blueprint
//! architecture ("Orchestrating Agents and Data for Enterprise", ICDE 2025,
//! §V-A): append-only sequences of messages carrying **data** or **control**
//! instructions, dynamically produced, distributed, monitored, and consumed.
//!
//! Streams are modelled as first-class data structures held in a
//! [`StreamStore`] (the paper's "streams database"). Components subscribe to
//! streams — selecting by stream identity, stream tags, message tags, or
//! session scope — and receive notifications for every matching message.
//! Because every data and control exchange is an explicit, persisted message,
//! the whole system is observable and replayable: when tracing is armed, the
//! store records every publish as a flow edge of the runtime's tracer, from
//! which the paper's sequence diagrams (Figs 9, 10) are regenerated verbatim.
//!
//! ## Quick tour
//!
//! ```
//! use blueprint_streams::{StreamStore, Message, Tag, Selector, TagFilter};
//!
//! let store = StreamStore::new();
//! let sid = store.create_stream("session:1:user", ["user-text"]).unwrap();
//!
//! // A component subscribes to every stream tagged `user-text`.
//! let sub = store
//!     .subscribe(Selector::StreamTagged(Tag::new("user-text")), TagFilter::all())
//!     .unwrap();
//!
//! store.publish(&sid, Message::data("I am looking for a data scientist position")).unwrap();
//! let msg = sub.recv().unwrap();
//! assert_eq!(msg.payload().as_str(), Some("I am looking for a data scientist position"));
//! ```

pub mod dead_letter;
pub mod error;
pub mod message;
mod monitor;
pub mod store;
pub mod stream;
pub mod subscription;

pub use dead_letter::{DeadLetterEntry, DeadLetterQueue, DEAD_LETTER_OP, DEAD_LETTER_SEGMENT};
pub use error::StreamError;
pub use message::{
    escaped_len, json_len, number_len, object_len, Message, MessageBody, MessageId, MessageKind,
};
pub use store::{StoreStats, StreamStore, SHARD_COUNT};
pub use stream::{Stream, StreamId, StreamState};
pub use subscription::{Selector, Subscription, TagFilter, TASK_SEGMENT};

mod tag;
pub use tag::Tag;

/// Result alias used across the streams crate.
pub type Result<T> = std::result::Result<T, StreamError>;
