//! # blueprint-session
//!
//! Sessions define "the context and scope for agents' collaborative work"
//! (§V-E). A [`Session`] owns a scope prefix (`session:<id>`), a *session
//! stream* on which agents signal entry/exit and announce new output
//! streams, and helpers for nested scoping (`SESSION:ID:PROFILE`) analogous
//! to scoping in programming languages. A [`SessionManager`] mints sessions
//! with unique ids over a shared [`StreamStore`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use serde_json::json;

use blueprint_streams::{
    Message, Selector, StreamError, StreamId, StreamStore, Subscription, Tag, TagFilter,
};

pub mod router;

pub use router::{
    Disposition, JobOutcome, RouterError, ServingConfig, SessionJob, SessionReport, SessionRouter,
    TaskCompletion,
};

/// Result alias for session operations.
pub type Result<T> = std::result::Result<T, StreamError>;

/// Control ops published on the session stream.
pub mod ops {
    /// An agent joined the session.
    pub const AGENT_ENTER: &str = "agent-enter";
    /// An agent left the session.
    pub const AGENT_EXIT: &str = "agent-exit";
    /// A component announced a new output stream within the session.
    pub const STREAM_CREATED: &str = "stream-created";
}

/// A scoped collaboration context.
#[derive(Clone)]
pub struct Session {
    store: StreamStore,
    id: u64,
    scope: String,
    /// The root session stream (shared by nested scopes).
    session_stream: StreamId,
    participants: Arc<RwLock<Vec<String>>>,
}

impl Session {
    /// Creates a session with the given id, establishing its session stream.
    pub fn create(store: StreamStore, id: u64) -> Result<Self> {
        let scope = format!("session:{id}");
        let session_stream = store.ensure_stream(format!("{scope}:session"), ["session"])?;
        Ok(Session {
            store,
            id,
            scope,
            session_stream,
            participants: Arc::new(RwLock::new(Vec::new())),
        })
    }

    /// The numeric session id (shared by nested scopes).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The scope prefix (`session:<id>`).
    pub fn scope(&self) -> &str {
        &self.scope
    }

    /// The underlying store.
    pub fn store(&self) -> &StreamStore {
        &self.store
    }

    /// The root session stream's id (shared by nested scopes).
    pub fn session_stream(&self) -> StreamId {
        self.session_stream.clone()
    }

    /// Extends the context with a nested scope segment
    /// (`SESSION:ID:PROFILE` style). Nested scopes share the session stream.
    pub fn nested(&self, segment: &str) -> Session {
        Session {
            store: self.store.clone(),
            id: self.id,
            scope: format!("{}:{}", self.scope, segment.to_ascii_lowercase()),
            session_stream: self.session_stream.clone(),
            participants: Arc::clone(&self.participants),
        }
    }

    /// Registers an agent in the session, signalling `agent-enter` on the
    /// session stream. Duplicate entries are ignored.
    pub fn add_agent(&self, agent: &str) -> Result<()> {
        {
            let mut parts = self.participants.write();
            if parts.iter().any(|p| p == agent) {
                return Ok(());
            }
            parts.push(agent.to_string());
        }
        self.store.publish(
            &self.session_stream(),
            Message::control(
                ops::AGENT_ENTER,
                json!({"agent": agent, "scope": self.scope}),
            )
            .from_producer(agent.to_string()),
        )?;
        Ok(())
    }

    /// Removes an agent, signalling `agent-exit`.
    pub fn remove_agent(&self, agent: &str) -> Result<()> {
        {
            let mut parts = self.participants.write();
            let before = parts.len();
            parts.retain(|p| p != agent);
            if parts.len() == before {
                return Ok(());
            }
        }
        self.store.publish(
            &self.session_stream(),
            Message::control(
                ops::AGENT_EXIT,
                json!({"agent": agent, "scope": self.scope}),
            )
            .from_producer(agent.to_string()),
        )?;
        Ok(())
    }

    /// Current participants in join order.
    pub fn participants(&self) -> Vec<String> {
        self.participants.read().clone()
    }

    /// Creates (or reuses) a stream scoped under this session and announces
    /// it on the session stream. Returns the full stream id.
    pub fn create_stream<I, T>(&self, segment: &str, tags: I, creator: &str) -> Result<StreamId>
    where
        I: IntoIterator<Item = T>,
        T: Into<Tag>,
    {
        let id = self
            .store
            .ensure_stream(format!("{}:{}", self.scope, segment), tags)?;
        self.store.publish(
            &self.session_stream(),
            Message::control(
                ops::STREAM_CREATED,
                json!({"stream": id.as_str(), "creator": creator}),
            )
            .from_producer(creator.to_string()),
        )?;
        Ok(id)
    }

    /// Publishes a message onto a scoped stream (creating it if needed).
    pub fn publish(&self, segment: &str, msg: Message) -> Result<()> {
        let id = self
            .store
            .ensure_stream(format!("{}:{}", self.scope, segment), Vec::<Tag>::new())?;
        self.store.publish(&id, msg)?;
        Ok(())
    }

    /// Subscribes to every stream in this session's scope.
    pub fn subscribe_all(&self, filter: TagFilter) -> Result<Subscription> {
        self.store
            .subscribe(Selector::Scope(self.scope.clone()), filter)
    }

    /// All stream ids under this session's scope.
    pub fn streams(&self) -> Vec<StreamId> {
        self.store.list_streams(Some(&self.scope))
    }

    /// Renders the session's activity (entries/exits/streams) from the
    /// session stream — the observability view of §V-E.
    pub fn activity(&self) -> Vec<String> {
        self.store
            .read(&self.session_stream(), 0)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| {
                let op = m.control_op()?;
                let args = m.control_args()?;
                match op {
                    ops::AGENT_ENTER => Some(format!("enter {}", args["agent"].as_str()?)),
                    ops::AGENT_EXIT => Some(format!("exit {}", args["agent"].as_str()?)),
                    ops::STREAM_CREATED => Some(format!("stream {}", args["stream"].as_str()?)),
                    _ => None,
                }
            })
            .collect()
    }
}

/// Bookkeeping for one live session.
struct LiveSession {
    scope: String,
    last_active_micros: u64,
}

/// Mints sessions with unique ids and reaps retired/expired ones.
///
/// Every started session is tracked until [`SessionManager::retire`] (or a
/// TTL sweep via [`SessionManager::reap_expired`]) removes its streams from
/// the store — without reaping, a long-lived serving process would
/// accumulate stream state for every session it ever served.
pub struct SessionManager {
    store: StreamStore,
    next_id: AtomicU64,
    live: RwLock<HashMap<u64, LiveSession>>,
}

impl SessionManager {
    /// Creates a manager over a store.
    pub fn new(store: StreamStore) -> Self {
        SessionManager {
            store,
            next_id: AtomicU64::new(1),
            live: RwLock::new(HashMap::new()),
        }
    }

    /// Starts a new session and tracks it as live.
    pub fn start(&self) -> Result<Session> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let session = Session::create(self.store.clone(), id)?;
        self.live.write().insert(
            id,
            LiveSession {
                scope: session.scope().to_string(),
                last_active_micros: self.store.clock().now_micros(),
            },
        );
        Ok(session)
    }

    /// Marks a session as recently active (resets its TTL clock).
    pub fn touch(&self, id: u64) {
        if let Some(live) = self.live.write().get_mut(&id) {
            live.last_active_micros = self.store.clock().now_micros();
        }
    }

    /// Retires a session: removes every stream under its scope from the
    /// store and stops tracking it. Returns the number of streams reaped.
    /// Idempotent — retiring an unknown or already-retired id reaps nothing.
    pub fn retire(&self, id: u64) -> usize {
        let scope = match self.live.write().remove(&id) {
            Some(live) => live.scope,
            None => return 0,
        };
        self.store.remove_scope(&scope)
    }

    /// Reaps every live session idle for at least `ttl_micros` on the
    /// store's clock, removing their streams. Returns the reaped ids.
    pub fn reap_expired(&self, ttl_micros: u64) -> Vec<u64> {
        let now = self.store.clock().now_micros();
        let expired: Vec<u64> = self
            .live
            .read()
            .iter()
            .filter(|(_, s)| now.saturating_sub(s.last_active_micros) >= ttl_micros)
            .map(|(id, _)| *id)
            .collect();
        let mut reaped: Vec<u64> = expired
            .into_iter()
            .filter(|id| {
                self.retire(*id);
                true
            })
            .collect();
        reaped.sort_unstable();
        reaped
    }

    /// Ids of sessions currently tracked as live, ascending.
    pub fn live_sessions(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.live.read().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The shared store.
    pub fn store(&self) -> &StreamStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        Session::create(StreamStore::new(), 7).unwrap()
    }

    #[test]
    fn create_establishes_session_stream() {
        let s = session();
        assert_eq!(s.scope(), "session:7");
        assert!(s.store().contains(&s.session_stream()));
    }

    #[test]
    fn agents_enter_and_exit_with_signals() {
        let s = session();
        s.add_agent("profiler").unwrap();
        s.add_agent("job-matcher").unwrap();
        s.add_agent("profiler").unwrap(); // duplicate ignored
        assert_eq!(s.participants(), ["profiler", "job-matcher"]);
        s.remove_agent("profiler").unwrap();
        s.remove_agent("ghost").unwrap(); // unknown ignored
        assert_eq!(s.participants(), ["job-matcher"]);
        assert_eq!(
            s.activity(),
            ["enter profiler", "enter job-matcher", "exit profiler"]
        );
    }

    #[test]
    fn nested_scope_extends_prefix_and_shares_participants() {
        let s = session();
        s.add_agent("profiler").unwrap();
        let nested = s.nested("PROFILE");
        assert_eq!(nested.scope(), "session:7:profile");
        assert_eq!(nested.participants(), ["profiler"]);
        // Nested scope signals still land on the shared session stream.
        nested.add_agent("extractor").unwrap();
        assert!(s.activity().contains(&"enter extractor".to_string()));
    }

    #[test]
    fn create_stream_announces() {
        let s = session();
        let id = s.create_stream("user", ["user-text"], "ui").unwrap();
        assert_eq!(id.as_str(), "session:7:user");
        assert!(s.activity().contains(&"stream session:7:user".to_string()));
        // Re-creating is idempotent.
        s.create_stream("user", ["user-text"], "ui").unwrap();
    }

    #[test]
    fn publish_and_subscribe_within_scope() {
        let s = session();
        let sub = s.subscribe_all(TagFilter::all()).unwrap();
        s.publish("user", Message::data("hi").from_producer("user"))
            .unwrap();
        let m = sub.recv().unwrap();
        assert_eq!(m.text(), Some("hi"));
    }

    #[test]
    fn streams_lists_scope_only() {
        let store = StreamStore::new();
        let s1 = Session::create(store.clone(), 1).unwrap();
        let s2 = Session::create(store, 2).unwrap();
        s1.publish("a", Message::data("x")).unwrap();
        s2.publish("b", Message::data("y")).unwrap();
        let ids: Vec<String> = s1
            .streams()
            .iter()
            .map(|i| i.as_str().to_string())
            .collect();
        assert!(ids.contains(&"session:1:a".to_string()));
        assert!(!ids.iter().any(|i| i.starts_with("session:2")));
    }

    #[test]
    fn subscribe_all_sees_nested_scope_traffic() {
        let s = session();
        let sub = s.subscribe_all(TagFilter::all()).unwrap();
        let nested = s.nested("profile");
        nested
            .publish("criteria", Message::data("remote only"))
            .unwrap();
        let m = sub.recv().unwrap();
        assert_eq!(m.text(), Some("remote only"));
    }

    #[test]
    fn nested_subscription_excludes_parent_traffic() {
        let s = session();
        let nested = s.nested("profile");
        let sub = nested.subscribe_all(TagFilter::all()).unwrap();
        s.publish("user", Message::data("outer")).unwrap();
        nested.publish("criteria", Message::data("inner")).unwrap();
        let got = sub.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].text(), Some("inner"));
    }

    #[test]
    fn activity_filter_ignores_data_messages() {
        let s = session();
        // Raw data published directly to the session stream is not activity.
        s.store()
            .publish(&s.session_stream(), Message::data("noise"))
            .unwrap();
        s.add_agent("profiler").unwrap();
        assert_eq!(s.activity(), ["enter profiler"]);
    }

    #[test]
    fn tagged_session_stream_is_discoverable() {
        let s = session();
        let sub = s
            .store()
            .subscribe(
                Selector::StreamTagged(Tag::new("session")),
                TagFilter::all(),
            )
            .unwrap();
        s.add_agent("x").unwrap();
        assert!(sub.recv().unwrap().control_op().is_some());
    }

    #[test]
    fn manager_mints_unique_ids() {
        let mgr = SessionManager::new(StreamStore::new());
        let a = mgr.start().unwrap();
        let b = mgr.start().unwrap();
        assert_ne!(a.scope(), b.scope());
        assert!(mgr.store().contains(&a.session_stream()));
        assert_eq!(mgr.live_sessions(), [a.id(), b.id()]);
    }

    #[test]
    fn retire_reaps_session_streams_from_store() {
        // Regression: retired sessions used to leak their streams for the
        // life of the process.
        let mgr = SessionManager::new(StreamStore::new());
        let a = mgr.start().unwrap();
        let b = mgr.start().unwrap();
        a.publish("user", Message::data("hi")).unwrap();
        a.publish("task:0:n1", Message::data("out")).unwrap();
        b.publish("user", Message::data("yo")).unwrap();
        assert!(!mgr.store().list_streams(Some(a.scope())).is_empty());
        let reaped = mgr.retire(a.id());
        assert_eq!(reaped, 3, "session stream + two published streams");
        assert!(mgr.store().list_streams(Some(a.scope())).is_empty());
        // Sibling session untouched; retiring again is a no-op.
        assert_eq!(mgr.store().list_streams(Some(b.scope())).len(), 2);
        assert_eq!(mgr.retire(a.id()), 0);
        assert_eq!(mgr.live_sessions(), [b.id()]);
    }

    #[test]
    fn reap_expired_sweeps_idle_sessions_only() {
        let mgr = SessionManager::new(StreamStore::new());
        let old = mgr.start().unwrap();
        old.publish("user", Message::data("stale")).unwrap();
        mgr.store().clock().advance_micros(10_000);
        let fresh = mgr.start().unwrap();
        fresh.publish("user", Message::data("live")).unwrap();
        let reaped = mgr.reap_expired(5_000);
        assert_eq!(reaped, [old.id()]);
        assert!(mgr.store().list_streams(Some(old.scope())).is_empty());
        assert!(!mgr.store().list_streams(Some(fresh.scope())).is_empty());
        // Touch resets the TTL clock.
        mgr.store().clock().advance_micros(10_000);
        mgr.touch(fresh.id());
        assert!(mgr.reap_expired(5_000).is_empty());
        assert_eq!(mgr.live_sessions(), [fresh.id()]);
    }
}
