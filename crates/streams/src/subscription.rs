//! Subscriptions: how components listen to streams.
//!
//! The paper's agents are "activated centrally through explicit instructions
//! or in a decentralized manner by monitoring designated tags within streams,
//! defined by inclusion and exclusion rules" (§V-B). A [`Selector`] picks
//! *which streams* to watch and a [`TagFilter`] picks *which messages* on
//! those streams to receive.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use serde::{Deserialize, Serialize};

use crate::error::StreamError;
use crate::message::Message;
use crate::store::Registration;
use crate::stream::StreamId;
use crate::tag::Tag;
use crate::Result;

/// Selects which streams a subscription covers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Selector {
    /// Every stream in the store.
    AllStreams,
    /// A single stream by id.
    Stream(StreamId),
    /// Every stream carrying the given stream-level tag.
    StreamTagged(Tag),
    /// Every stream whose id is scoped under the given prefix
    /// (session scoping, e.g. `session:42`).
    Scope(String),
    /// Every stream scoped under the given prefix except the task
    /// coordinator's plan streams `<prefix>:task:…` (node outputs and task
    /// status): what a tag-triggered agent watches in its session, so a
    /// plan's outputs never re-fire autonomous agents.
    ScopeOutsideTasks(String),
}

/// The stream segment, right under a session scope, that holds the task
/// coordinator's per-task streams (`<scope>:task:<task>:<node>`,
/// `<scope>:task:<task>:status`).
pub const TASK_SEGMENT: &str = "task";

impl Selector {
    /// True if a stream with the given id and tags is covered.
    pub fn matches(&self, id: &StreamId, stream_tags: &std::collections::BTreeSet<Tag>) -> bool {
        match self {
            Selector::AllStreams => true,
            Selector::Stream(want) => want == id,
            Selector::StreamTagged(tag) => stream_tags.contains(tag),
            Selector::Scope(prefix) => id.is_scoped_under(prefix),
            Selector::ScopeOutsideTasks(prefix) => {
                id.is_scoped_under(prefix) && !is_task_stream(&id.as_str()[prefix.len()..])
            }
        }
    }

    /// The selector an agent instance in session `scope` actually watches:
    /// an unrestricted selector narrows to the session's streams outside
    /// the coordinator's task streams; any other selector stays as given.
    pub fn narrowed_to(self, scope: &str) -> Selector {
        match self {
            Selector::AllStreams => Selector::ScopeOutsideTasks(scope.to_string()),
            other => other,
        }
    }
}

/// True when `rest`, the part of a stream id after its scope, names a
/// stream under the scope's task segment.
fn is_task_stream(rest: &str) -> bool {
    rest.strip_prefix(':')
        .and_then(|r| r.strip_prefix(TASK_SEGMENT))
        .is_some_and(|r| r.starts_with(':'))
}

/// Inclusion/exclusion rules over message tags.
///
/// A message passes if it carries **at least one** included tag (or the
/// include list is empty, meaning "any") and carries **none** of the excluded
/// tags. Exclusion wins over inclusion.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TagFilter {
    /// Tags of interest; empty means all messages.
    pub include: Vec<Tag>,
    /// Tags to reject even when included.
    pub exclude: Vec<Tag>,
}

impl TagFilter {
    /// Matches every message.
    pub fn all() -> Self {
        TagFilter::default()
    }

    /// Matches messages carrying any of the given tags.
    pub fn any_of<I, T>(tags: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<Tag>,
    {
        TagFilter {
            include: tags.into_iter().map(Into::into).collect(),
            exclude: Vec::new(),
        }
    }

    /// Builder-style: adds exclusions.
    pub fn excluding<I, T>(mut self, tags: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<Tag>,
    {
        self.exclude.extend(tags.into_iter().map(Into::into));
        self
    }

    /// True if the message's tags satisfy the rules.
    pub fn matches(&self, msg: &Message) -> bool {
        if self.exclude.iter().any(|t| msg.tags.contains(t)) {
            return false;
        }
        self.include.is_empty() || self.include.iter().any(|t| msg.tags.contains(t))
    }
}

/// A live subscription handle delivering matching messages in publish order.
///
/// Dropping the subscription unregisters it from the store.
#[derive(Debug)]
pub struct Subscription {
    // Declared first so it drops first: the store entry goes before the
    // receiver, so no publish ever finds the entry disconnected.
    pub(crate) registration: Registration,
    pub(crate) id: u64,
    pub(crate) rx: Receiver<Arc<Message>>,
    pub(crate) selector: Selector,
    pub(crate) filter: TagFilter,
}

impl Subscription {
    /// The store-assigned subscription id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The stream selector this subscription was created with.
    pub fn selector(&self) -> &Selector {
        &self.selector
    }

    /// The message tag filter this subscription was created with.
    pub fn filter(&self) -> &TagFilter {
        &self.filter
    }

    /// Direct access to the underlying channel receiver, for callers that
    /// multiplex several subscriptions with `crossbeam::channel::Select`.
    pub fn receiver(&self) -> &Receiver<Arc<Message>> {
        &self.rx
    }

    /// Blocks until the next matching message arrives.
    pub fn recv(&self) -> Result<Arc<Message>> {
        self.rx.recv().map_err(|_| StreamError::Disconnected)
    }

    /// Blocks up to `timeout` for the next matching message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Arc<Message>> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => StreamError::Timeout,
            RecvTimeoutError::Disconnected => StreamError::Disconnected,
        })
    }

    /// Returns the next message if one is already queued.
    pub fn try_recv(&self) -> Result<Option<Arc<Message>>> {
        match self.rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(StreamError::Disconnected),
        }
    }

    /// Drains every message currently queued.
    pub fn drain(&self) -> Vec<Arc<Message>> {
        let mut out = Vec::new();
        while let Ok(Some(m)) = self.try_recv() {
            out.push(m);
        }
        out
    }

    /// Number of messages currently queued.
    pub fn queued(&self) -> usize {
        self.rx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn tags(names: &[&str]) -> BTreeSet<Tag> {
        names.iter().map(Tag::new).collect()
    }

    #[test]
    fn selector_all_matches_everything() {
        let id = StreamId::new("x");
        assert!(Selector::AllStreams.matches(&id, &tags(&[])));
    }

    #[test]
    fn selector_by_id() {
        let id = StreamId::new("a:b");
        assert!(Selector::Stream(StreamId::new("a:b")).matches(&id, &tags(&[])));
        assert!(!Selector::Stream(StreamId::new("a:c")).matches(&id, &tags(&[])));
    }

    #[test]
    fn selector_by_stream_tag() {
        let id = StreamId::new("s");
        assert!(Selector::StreamTagged(Tag::new("nlq")).matches(&id, &tags(&["NLQ", "x"])));
        assert!(!Selector::StreamTagged(Tag::new("sql")).matches(&id, &tags(&["nlq"])));
    }

    #[test]
    fn selector_by_scope() {
        let id = StreamId::new("session:7:plan");
        assert!(Selector::Scope("session:7".into()).matches(&id, &tags(&[])));
        assert!(!Selector::Scope("session:70".into()).matches(&id, &tags(&[])));
    }

    #[test]
    fn scope_outside_tasks_skips_only_task_streams() {
        let sel = Selector::ScopeOutsideTasks("session:7".into());
        for id in ["session:7:user", "session:7:nl2q:out", "session:7:tasks:x"] {
            assert!(sel.matches(&StreamId::new(id), &tags(&[])), "{id}");
        }
        for id in [
            "session:7:task:t1:n1",
            "session:7:task:t1:status",
            "session:70:user",
            "session:8:user",
        ] {
            assert!(!sel.matches(&StreamId::new(id), &tags(&[])), "{id}");
        }
    }

    #[test]
    fn narrowing_only_rewrites_unrestricted_selectors() {
        assert_eq!(
            Selector::AllStreams.narrowed_to("session:3"),
            Selector::ScopeOutsideTasks("session:3".into())
        );
        let pinned = Selector::Stream(StreamId::new("session:1:result"));
        assert_eq!(pinned.clone().narrowed_to("session:3"), pinned);
    }

    #[test]
    fn tag_filter_empty_include_matches_all() {
        let m = Message::data("x");
        assert!(TagFilter::all().matches(&m));
    }

    #[test]
    fn tag_filter_include_requires_one() {
        let m = Message::data("x").with_tag("sql");
        assert!(TagFilter::any_of(["sql", "nlq"]).matches(&m));
        assert!(!TagFilter::any_of(["plan"]).matches(&m));
    }

    #[test]
    fn tag_filter_exclusion_wins() {
        let m = Message::data("x").with_tag("sql").with_tag("internal");
        let f = TagFilter::any_of(["sql"]).excluding(["internal"]);
        assert!(!f.matches(&m));
        // Exclusion applies even with an empty include list.
        let f2 = TagFilter::all().excluding(["internal"]);
        assert!(!f2.matches(&m));
    }
}
