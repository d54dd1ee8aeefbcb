//! The stream store: the paper's "streams database".
//!
//! A [`StreamStore`] owns every stream in the system, assigns globally unique
//! message ids, fans published messages out to matching subscriptions, and
//! carries the runtime's [`Observability`] bundle. It is the single shared
//! data resource through which *all* data and control flows — which is
//! precisely what makes the architecture observable and controllable (§V-A).
//!
//! # Telemetry
//!
//! The store's counters ([`StoreStats`]) are `blueprint.streams.*`
//! instruments, each event counted once. When tracing is armed, every
//! publish (and every consume an agent host reports through
//! [`StreamStore::record_consume`]) is also a flow edge of the tracer, from
//! which the paper's sequence diagrams are drawn. Disarmed, the publish
//! path takes no telemetry lock and makes no telemetry allocation.
//!
//! # Sharding
//!
//! The store is internally sharded so concurrent sessions never contend on a
//! single lock: every stream id maps to one of [`SHARD_COUNT`] shards via its
//! *shard key* — `session:<id>` for session-scoped streams (first two `:`
//! segments), the first segment otherwise. Each shard owns its streams and
//! the subscriptions that can be proven to only ever match streams of that
//! shard ([`Selector::Stream`] and unambiguous [`Selector::Scope`]s or
//! [`Selector::ScopeOutsideTasks`]); the
//! remaining subscriptions ([`Selector::AllStreams`], [`Selector::StreamTagged`],
//! and the bare `session` scope) live on a global list consulted by every
//! publish. The hot path of a session — publishing to and subscribing on its
//! own streams — therefore takes only that session's shard lock.
//!
//! Per-stream delivery order is preserved: append and fan-out still happen
//! under one critical section (the stream's shard lock), and publishers to
//! the same stream serialize on that lock even when a subscriber is global.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use blueprint_observability::{
    Counter, FlowDirection, Gauge, MetricsRegistry, Observability, SimClock,
};
use blueprint_resilience::{FaultInjector, InjectedFault};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;

use crate::error::StreamError;
use crate::message::{Message, MessageId};
use crate::monitor;
use crate::stream::{Stream, StreamId, StreamState};
use crate::subscription::{Selector, Subscription, TagFilter};
use crate::tag::Tag;
use crate::Result;

/// Number of independently locked shards. A power of two comfortably above
/// typical core counts: enough to keep concurrent sessions on distinct locks
/// without bloating the per-store footprint.
pub const SHARD_COUNT: usize = 16;

/// Snapshot of the counters describing store activity (observability
/// surface).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Streams created since startup.
    pub streams_created: u64,
    /// Messages published across all streams.
    pub messages_published: u64,
    /// Message hand-offs to matching subscriptions (one message fanned out
    /// to three subscribers counts three deliveries). Counted at fan-out,
    /// before the receiver can observe the message.
    pub deliveries: u64,
    /// Total payload bytes published.
    pub bytes_published: u64,
    /// Currently registered subscriptions.
    pub active_subscriptions: u64,
    /// Messages whose fan-out was suppressed by an injected drop fault.
    pub faults_dropped: u64,
    /// Messages delivered twice due to an injected duplication fault.
    pub faults_duplicated: u64,
    /// Messages whose delivery was delayed by an injected delay fault.
    pub faults_delayed: u64,
}

/// The instruments behind [`StoreStats`], resolved once when the store is
/// built: from the armed registry, or from a store-private one when metrics
/// are off, so [`StreamStore::stats`] always counts. Each is one relaxed
/// atomic per event; `active_subscriptions` is a gauge adjusted as
/// subscriptions register and unregister.
struct StoreCounters {
    streams_created: Counter,
    publishes: Counter,
    deliveries: Counter,
    bytes_published: Counter,
    active_subscriptions: Gauge,
    faults_dropped: Counter,
    faults_duplicated: Counter,
    faults_delayed: Counter,
}

impl StoreCounters {
    fn resolve(metrics: &MetricsRegistry) -> Self {
        let private;
        let metrics = if metrics.is_armed() {
            metrics
        } else {
            private = MetricsRegistry::new();
            &private
        };
        let counter = |name: &str| metrics.counter(&format!("blueprint.streams.{name}"));
        StoreCounters {
            streams_created: counter("streams_created"),
            publishes: counter("publishes"),
            deliveries: counter("deliveries"),
            bytes_published: counter("bytes_published"),
            active_subscriptions: metrics.gauge("blueprint.streams.active_subscriptions"),
            faults_dropped: counter("faults_dropped"),
            faults_duplicated: counter("faults_duplicated"),
            faults_delayed: counter("faults_delayed"),
        }
    }

    fn snapshot(&self) -> StoreStats {
        StoreStats {
            streams_created: self.streams_created.get(),
            messages_published: self.publishes.get(),
            deliveries: self.deliveries.get(),
            bytes_published: self.bytes_published.get(),
            active_subscriptions: self.active_subscriptions.get().max(0) as u64,
            faults_dropped: self.faults_dropped.get(),
            faults_duplicated: self.faults_duplicated.get(),
            faults_delayed: self.faults_delayed.get(),
        }
    }
}

#[derive(Debug)]
struct SubEntry {
    id: u64,
    selector: Selector,
    filter: TagFilter,
    tx: Sender<Arc<Message>>,
}

/// One independently locked slice of the store: its streams plus the
/// subscriptions that can only ever match streams of this shard.
#[derive(Default)]
struct Shard {
    streams: HashMap<StreamId, Stream>,
    subs: Vec<SubEntry>,
}

/// Where a subscription lives, decided once at registration from its
/// selector.
#[derive(Debug, Clone, Copy)]
enum SubHome {
    /// The selector can only match streams of one shard.
    Shard(usize),
    /// The selector may match streams across shards (`AllStreams`,
    /// `StreamTagged`, bare `session` scope): consulted on every publish.
    Global,
}

/// FNV-1a over the shard key: cheap and deterministic across processes, so
/// a given session always lands on the same shard.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard key of a stream id: `session:<id>` (first two segments) for
/// session-scoped ids, the first `:` segment otherwise.
fn shard_key(id: &str) -> &str {
    let first_len = id.find(':').unwrap_or(id.len());
    let first = &id[..first_len];
    if first == "session" && first_len < id.len() {
        let rest = &id[first_len + 1..];
        let second_len = rest.find(':').unwrap_or(rest.len());
        &id[..first_len + 1 + second_len]
    } else {
        first
    }
}

fn shard_index(id: &str) -> usize {
    (fnv1a(shard_key(id).as_bytes()) % SHARD_COUNT as u64) as usize
}

/// Routes a selector to the one shard it can match, or to the global list.
fn route(selector: &Selector) -> SubHome {
    match selector {
        Selector::Stream(id) => SubHome::Shard(shard_index(id.as_str())),
        Selector::Scope(prefix) | Selector::ScopeOutsideTasks(prefix) => {
            // A scope prefix pins a shard iff every stream under it shares
            // one shard key. Bare `session` (no session id) spans them all.
            let first_len = prefix.find(':').unwrap_or(prefix.len());
            if &prefix[..first_len] == "session" && first_len == prefix.len() {
                SubHome::Global
            } else {
                SubHome::Shard(shard_index(prefix))
            }
        }
        Selector::AllStreams | Selector::StreamTagged(_) => SubHome::Global,
    }
}

/// A subscription's entry in its home list. Dropping the owning
/// [`Subscription`] removes the entry, taking only the home shard's (or the
/// global list's) lock, so finished subscribers cost later publishes
/// nothing. Weak handles: a subscription never keeps a dropped store alive.
#[derive(Debug)]
pub(crate) struct Registration {
    id: u64,
    home: SubHome,
    shards: Weak<Vec<RwLock<Shard>>>,
    global_subs: Weak<RwLock<Vec<SubEntry>>>,
    active: Gauge,
}

impl Registration {
    /// Removes the entry from its home list; a no-op once it is gone.
    fn unregister(&self) {
        let remove = |subs: &mut Vec<SubEntry>| {
            let before = subs.len();
            subs.retain(|s| s.id != self.id);
            before - subs.len()
        };
        // `unsubscribe` may have removed the entry already; only an actual
        // removal adjusts the gauge.
        let removed = match self.home {
            SubHome::Shard(i) => self
                .shards
                .upgrade()
                .map_or(0, |shards| remove(&mut shards[i].write().subs)),
            SubHome::Global => self
                .global_subs
                .upgrade()
                .map_or(0, |globals| remove(&mut globals.write())),
        };
        self.active.add(-(removed as i64));
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        self.unregister();
    }
}

/// Thread-safe store of all streams plus the pub/sub fabric over them.
///
/// Cloning the store yields another handle onto the same shared state, so a
/// single store can be handed to every agent, planner, and coordinator.
#[derive(Clone)]
pub struct StreamStore {
    shards: Arc<Vec<RwLock<Shard>>>,
    global_subs: Arc<RwLock<Vec<SubEntry>>>,
    next_msg_id: Arc<AtomicU64>,
    next_sub_id: Arc<AtomicU64>,
    counters: Arc<StoreCounters>,
    clock: SimClock,
    obs: Observability,
    faults: Arc<RwLock<Option<Arc<FaultInjector>>>>,
}

impl Default for StreamStore {
    fn default() -> Self {
        Self::observed(SimClock::new(), Observability::disarmed())
    }
}

impl StreamStore {
    /// Creates an empty store with its own simulated clock and telemetry
    /// disarmed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store sharing `clock` and carrying `obs`, the
    /// runtime's one telemetry pipeline (its tracer should stamp from
    /// `clock`). The store's counters are `blueprint.streams.*` instruments
    /// of `obs.metrics` when that registry is armed; publishes and reported
    /// consumes are flow edges of `obs.tracer` when it is armed. Components
    /// that hold the store resolve their own instruments from
    /// [`StreamStore::observability`].
    pub fn observed(clock: SimClock, obs: Observability) -> Self {
        StreamStore {
            shards: Arc::new((0..SHARD_COUNT).map(|_| RwLock::default()).collect()),
            global_subs: Arc::new(RwLock::new(Vec::new())),
            next_msg_id: Arc::new(AtomicU64::new(1)),
            next_sub_id: Arc::new(AtomicU64::new(1)),
            counters: Arc::new(StoreCounters::resolve(&obs.metrics)),
            clock,
            obs,
            faults: Arc::new(RwLock::new(None)),
        }
    }

    /// The tracer and metrics registry this store was built with.
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// Records, when tracing is armed, that `component` consumed `msg` from
    /// `stream` (a stream id, or the consumer's view of it such as
    /// `binding:<param>`). Publishes are recorded by the store itself.
    pub fn record_consume(&self, component: &str, stream: &str, msg: &Message) {
        monitor::record(
            &self.obs.tracer,
            FlowDirection::Consume,
            component,
            stream,
            msg,
        );
    }

    /// Attaches a fault injector: subsequent publishes consult it for
    /// drop/duplicate/delay decisions on the delivery path. Messages are
    /// always appended to their stream (the store stays the source of
    /// truth); faults perturb fan-out only, modelling in-transit loss.
    pub fn set_fault_injector(&self, injector: Arc<FaultInjector>) {
        *self.faults.write() = Some(injector);
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.faults.read().clone()
    }

    /// The simulated clock shared with the rest of the runtime.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn shard_for(&self, id: &StreamId) -> &RwLock<Shard> {
        &self.shards[shard_index(id.as_str())]
    }

    /// Creates a new stream with the given id and stream-level tags.
    pub fn create_stream<I, T>(&self, id: impl Into<StreamId>, tags: I) -> Result<StreamId>
    where
        I: IntoIterator<Item = T>,
        T: Into<Tag>,
    {
        let id = id.into();
        if id.as_str().is_empty() {
            return Err(StreamError::Invalid("empty stream id".into()));
        }
        let mut shard = self.shard_for(&id).write();
        if shard.streams.contains_key(&id) {
            return Err(StreamError::Duplicate(id));
        }
        let stream = Stream::new(id.clone(), tags, self.clock.now_micros());
        shard.streams.insert(id.clone(), stream);
        self.counters.streams_created.inc();
        Ok(id)
    }

    /// Creates the stream if absent; returns the id either way.
    pub fn ensure_stream<I, T>(&self, id: impl Into<StreamId>, tags: I) -> Result<StreamId>
    where
        I: IntoIterator<Item = T>,
        T: Into<Tag>,
    {
        let id = id.into();
        match self.create_stream(id.clone(), tags) {
            Ok(id) => Ok(id),
            Err(StreamError::Duplicate(_)) => Ok(id),
            Err(e) => Err(e),
        }
    }

    /// True if the stream exists.
    pub fn contains(&self, id: &StreamId) -> bool {
        self.shard_for(id).read().streams.contains_key(id)
    }

    /// Adds a stream-level tag (retagging), waking up tag-based subscribers
    /// for *future* messages.
    pub fn tag_stream(&self, id: &StreamId, tag: impl Into<Tag>) -> Result<()> {
        let mut shard = self.shard_for(id).write();
        let stream = shard
            .streams
            .get_mut(id)
            .ok_or_else(|| StreamError::NotFound(id.clone()))?;
        stream.add_tag(tag);
        Ok(())
    }

    /// Publishes a message onto a stream, fanning it out to every matching
    /// subscription. Returns the stored message (with id/seq/time assigned).
    pub fn publish(&self, id: &StreamId, mut msg: Message) -> Result<Arc<Message>> {
        msg.id = MessageId(self.next_msg_id.fetch_add(1, Ordering::Relaxed));
        msg.published_at_micros = self.clock.now_micros();
        // Sized once, before the shard lock: the walk is linear in the
        // payload and needs no lock.
        let size = msg.payload_size() as u64;

        // Fault decision is taken up front (keyed by stream + message id) so
        // the same seeded plan perturbs the same publishes on every run.
        let fault = self
            .faults
            .read()
            .as_ref()
            .filter(|inj| inj.publish_armed())
            .and_then(|inj| inj.publish_fault(&format!("{}#{}", id.as_str(), msg.id.0)));
        let copies: usize = match &fault {
            Some(InjectedFault::DropMessage) => 0,
            Some(InjectedFault::DuplicateMessage) => 2,
            _ => 1,
        };

        // Append and deliver under one critical section — the
        // stream's shard lock: delivering outside it would let two
        // concurrent publishers hand a subscriber seq 1 before seq 0 (the
        // channels are unbounded, so the sends never block). Global
        // subscribers are reached under a read lock taken *inside* the
        // shard section, so per-stream order holds for them too; cross-shard
        // publishes proceed in parallel. Lock order everywhere: shard(s)
        // ascending, then the global list.
        let mut delayed_txs: Vec<Sender<Arc<Message>>> = Vec::new();
        let counters = &*self.counters;
        let arc = {
            let mut guard = self.shard_for(id).write();
            let Shard { streams, subs } = &mut *guard;
            let stream = streams
                .get_mut(id)
                .ok_or_else(|| StreamError::NotFound(id.clone()))?;
            let arc = stream.append(msg)?;
            // Record the publish (flow edge and counters) before any
            // subscriber can observe the message: a fast consumer thread
            // must never act on a message whose publish is not yet counted —
            // a metrics snapshot taken by whoever it unblocks would
            // under-report an already-observable publish.
            monitor::record(
                &self.obs.tracer,
                FlowDirection::Publish,
                &arc.producer,
                id.as_str(),
                &arc,
            );
            counters.publishes.inc();
            counters.bytes_published.add(size);
            let globals = self.global_subs.read();
            for subs in [&*subs, &*globals] {
                Self::fan_out(
                    subs,
                    id,
                    stream.tags(),
                    &arc,
                    &fault,
                    copies,
                    &counters.deliveries,
                    &mut delayed_txs,
                );
            }
            arc
        };

        match &fault {
            Some(InjectedFault::DropMessage) => counters.faults_dropped.inc(),
            Some(InjectedFault::DuplicateMessage) => counters.faults_duplicated.inc(),
            Some(InjectedFault::DelayMessage { .. }) => counters.faults_delayed.inc(),
            _ => {}
        }

        // Delayed delivery happens off-thread: the message is already durably
        // appended, only its fan-out lags (in-transit latency fault). Capped
        // so a fault plan cannot wedge the fabric.
        if let Some(InjectedFault::DelayMessage { micros }) = &fault {
            if !delayed_txs.is_empty() {
                let wait = std::time::Duration::from_micros((*micros).min(100_000));
                let late = Arc::clone(&arc);
                let deliveries = counters.deliveries.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(wait);
                    for tx in delayed_txs {
                        // Count before the send, like the immediate path.
                        deliveries.inc();
                        let _ = tx.send(Arc::clone(&late));
                    }
                });
            }
        }

        Ok(arc)
    }

    /// Delivers one appended message to every matching entry of one
    /// subscription list. Each hand-off is counted *before* its send: a
    /// receiver that observes the message (and whatever it unblocks) must
    /// find the delivery already metered. Entries leave the list when their
    /// subscription drops, so every send reaches a live subscription.
    #[allow(clippy::too_many_arguments)]
    fn fan_out(
        subs: &[SubEntry],
        id: &StreamId,
        stream_tags: &std::collections::BTreeSet<Tag>,
        arc: &Arc<Message>,
        fault: &Option<InjectedFault>,
        copies: usize,
        deliveries: &Counter,
        delayed_txs: &mut Vec<Sender<Arc<Message>>>,
    ) {
        for s in subs {
            if s.selector.matches(id, stream_tags) && s.filter.matches(arc) {
                if matches!(fault, Some(InjectedFault::DelayMessage { .. })) {
                    delayed_txs.push(s.tx.clone());
                    continue;
                }
                for _ in 0..copies {
                    deliveries.inc();
                    let _ = s.tx.send(Arc::clone(arc));
                }
            }
        }
    }

    /// Convenience: ensure the stream exists, then publish.
    pub fn publish_to<I, T>(
        &self,
        id: impl Into<StreamId>,
        tags: I,
        msg: Message,
    ) -> Result<Arc<Message>>
    where
        I: IntoIterator<Item = T>,
        T: Into<Tag>,
    {
        let id = self.ensure_stream(id, tags)?;
        self.publish(&id, msg)
    }

    /// Registers a subscription. Matching messages published *after* this
    /// call are delivered in publish order. Dropping the subscription
    /// unregisters it.
    pub fn subscribe(&self, selector: Selector, filter: TagFilter) -> Result<Subscription> {
        let (tx, rx) = unbounded();
        let id = self.next_sub_id.fetch_add(1, Ordering::Relaxed);
        let entry = SubEntry {
            id,
            selector: selector.clone(),
            filter: filter.clone(),
            tx,
        };
        let home = route(&selector);
        match home {
            SubHome::Shard(i) => self.shards[i].write().subs.push(entry),
            SubHome::Global => self.global_subs.write().push(entry),
        }
        Ok(self.registered(id, home, rx, selector, filter))
    }

    /// Registers a subscription and immediately replays the existing history
    /// of every currently matching stream (catch-up semantics).
    pub fn subscribe_with_replay(
        &self,
        selector: Selector,
        filter: TagFilter,
    ) -> Result<Subscription> {
        let (tx, rx) = unbounded();
        let id = self.next_sub_id.fetch_add(1, Ordering::Relaxed);
        let entry = SubEntry {
            id,
            selector: selector.clone(),
            filter: filter.clone(),
            tx: tx.clone(),
        };
        // Replay under lock so no published message is missed or duplicated:
        // a shard-homed subscription needs only its shard's lock; a global
        // one holds read locks on every shard (ascending, matching the
        // publish lock order) until it is registered, which stalls
        // publishers exactly for the catch-up window.
        let home = route(&selector);
        match home {
            SubHome::Shard(i) => {
                let mut shard = self.shards[i].write();
                let mut history = Self::matching_history(&shard.streams, &selector, &filter);
                history.sort_by_key(|m| m.id);
                for m in history {
                    let _ = tx.send(m);
                }
                shard.subs.push(entry);
            }
            SubHome::Global => {
                let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
                let mut history: Vec<Arc<Message>> = Vec::new();
                for guard in &guards {
                    history.extend(Self::matching_history(&guard.streams, &selector, &filter));
                }
                history.sort_by_key(|m| m.id);
                for m in history {
                    let _ = tx.send(m);
                }
                self.global_subs.write().push(entry);
            }
        }
        Ok(self.registered(id, home, rx, selector, filter))
    }

    /// Counts a freshly registered entry and wraps its receiver in the
    /// [`Subscription`] handle that unregisters it on drop.
    fn registered(
        &self,
        id: u64,
        home: SubHome,
        rx: Receiver<Arc<Message>>,
        selector: Selector,
        filter: TagFilter,
    ) -> Subscription {
        self.counters.active_subscriptions.add(1);
        Subscription {
            registration: Registration {
                id,
                home,
                shards: Arc::downgrade(&self.shards),
                global_subs: Arc::downgrade(&self.global_subs),
                active: self.counters.active_subscriptions.clone(),
            },
            id,
            rx,
            selector,
            filter,
        }
    }

    fn matching_history(
        streams: &HashMap<StreamId, Stream>,
        selector: &Selector,
        filter: &TagFilter,
    ) -> Vec<Arc<Message>> {
        let mut history = Vec::new();
        for stream in streams.values() {
            if selector.matches(stream.id(), stream.tags()) {
                history.extend(
                    stream
                        .read_from(0)
                        .into_iter()
                        .filter(|m| filter.matches(m)),
                );
            }
        }
        history
    }

    /// Unregisters a subscription before it is dropped: no further message
    /// reaches it, and its channel reports disconnection once drained.
    pub fn unsubscribe(&self, sub: &Subscription) {
        sub.registration.unregister();
    }

    /// Reads a stream's history starting at `from` (replay; does not consume).
    pub fn read(&self, id: &StreamId, from: u64) -> Result<Vec<Arc<Message>>> {
        let shard = self.shard_for(id).read();
        let stream = shard
            .streams
            .get(id)
            .ok_or_else(|| StreamError::NotFound(id.clone()))?;
        Ok(stream.read_from(from))
    }

    /// The most recent message on a stream.
    pub fn last(&self, id: &StreamId) -> Result<Option<Arc<Message>>> {
        let shard = self.shard_for(id).read();
        let stream = shard
            .streams
            .get(id)
            .ok_or_else(|| StreamError::NotFound(id.clone()))?;
        Ok(stream.last())
    }

    /// Lifecycle state of a stream.
    pub fn state(&self, id: &StreamId) -> Result<StreamState> {
        let shard = self.shard_for(id).read();
        let stream = shard
            .streams
            .get(id)
            .ok_or_else(|| StreamError::NotFound(id.clone()))?;
        Ok(stream.state())
    }

    /// Closes a stream by publishing an EOS marker.
    pub fn close(&self, id: &StreamId) -> Result<()> {
        self.publish(id, Message::eos()).map(|_| ())
    }

    /// Lists all stream ids, optionally restricted to a session scope.
    pub fn list_streams(&self, scope: Option<&str>) -> Vec<StreamId> {
        let mut ids: Vec<StreamId> = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.read();
            ids.extend(
                shard
                    .streams
                    .keys()
                    .filter(|id| scope.is_none_or(|p| id.is_scoped_under(p)))
                    .cloned(),
            );
        }
        ids.sort();
        ids
    }

    /// Removes every stream scoped under `scope` (session reaping). Returns
    /// the number of streams removed. Subscriptions are left in place: a
    /// retired scope's streams receive no further publishes, so its
    /// subscribers simply drain and disconnect when dropped.
    pub fn remove_scope(&self, scope: &str) -> usize {
        let mut removed = 0;
        for shard in self.shards.iter() {
            let mut shard = shard.write();
            let doomed: Vec<StreamId> = shard
                .streams
                .keys()
                .filter(|id| id.is_scoped_under(scope))
                .cloned()
                .collect();
            for id in doomed {
                shard.streams.remove(&id);
                removed += 1;
            }
        }
        removed
    }

    /// Snapshot of the store's counters (counting whether or not metrics
    /// are armed).
    pub fn stats(&self) -> StoreStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn create_and_duplicate() {
        let store = StreamStore::new();
        let id = store.create_stream("s1", ["a"]).unwrap();
        assert!(store.contains(&id));
        assert!(matches!(
            store.create_stream("s1", ["a"]),
            Err(StreamError::Duplicate(_))
        ));
        assert_eq!(store.ensure_stream("s1", ["a"]).unwrap(), id);
    }

    #[test]
    fn empty_stream_id_rejected() {
        let store = StreamStore::new();
        assert!(matches!(
            store.create_stream("", ["a"]),
            Err(StreamError::Invalid(_))
        ));
    }

    #[test]
    fn publish_assigns_global_ids_and_time() {
        let store = StreamStore::new();
        store.clock().advance_micros(50);
        let a = store.create_stream("a", Vec::<Tag>::new()).unwrap();
        let b = store.create_stream("b", Vec::<Tag>::new()).unwrap();
        let m1 = store.publish(&a, Message::data("1")).unwrap();
        let m2 = store.publish(&b, Message::data("2")).unwrap();
        assert!(m2.id > m1.id);
        assert_eq!(m1.published_at_micros, 50);
    }

    #[test]
    fn publish_to_missing_stream_errors() {
        let store = StreamStore::new();
        let err = store
            .publish(&StreamId::new("nope"), Message::data("x"))
            .unwrap_err();
        assert!(matches!(err, StreamError::NotFound(_)));
    }

    #[test]
    fn subscription_receives_in_order() {
        let store = StreamStore::new();
        let id = store.create_stream("s", Vec::<Tag>::new()).unwrap();
        let sub = store
            .subscribe(Selector::Stream(id.clone()), TagFilter::all())
            .unwrap();
        for i in 0..10 {
            store.publish(&id, Message::data(format!("{i}"))).unwrap();
        }
        for i in 0..10 {
            let m = sub.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(m.text(), Some(format!("{i}").as_str()));
            assert_eq!(m.seq, i);
        }
        assert_eq!(sub.queued(), 0);
    }

    #[test]
    fn tag_based_decentralized_activation() {
        // A message tagged SQL reaches the SQL subscriber only.
        let store = StreamStore::new();
        let id = store.create_stream("s", Vec::<Tag>::new()).unwrap();
        let sql_sub = store
            .subscribe(Selector::AllStreams, TagFilter::any_of(["sql"]))
            .unwrap();
        let nlq_sub = store
            .subscribe(Selector::AllStreams, TagFilter::any_of(["nlq"]))
            .unwrap();
        store
            .publish(&id, Message::data("SELECT 1").with_tag("SQL"))
            .unwrap();
        assert!(sql_sub.try_recv().unwrap().is_some());
        assert!(nlq_sub.try_recv().unwrap().is_none());
    }

    #[test]
    fn stream_tag_selector_sees_new_streams() {
        let store = StreamStore::new();
        let sub = store
            .subscribe(
                Selector::StreamTagged(Tag::new("user-text")),
                TagFilter::all(),
            )
            .unwrap();
        // Stream created after the subscription still matches.
        let id = store.create_stream("later", ["user-text"]).unwrap();
        store.publish(&id, Message::data("hi")).unwrap();
        assert_eq!(sub.recv().unwrap().text(), Some("hi"));
    }

    #[test]
    fn scope_selector_isolates_sessions() {
        let store = StreamStore::new();
        let s1 = store
            .create_stream("session:1:user", Vec::<Tag>::new())
            .unwrap();
        let s2 = store
            .create_stream("session:2:user", Vec::<Tag>::new())
            .unwrap();
        let sub = store
            .subscribe(Selector::Scope("session:1".into()), TagFilter::all())
            .unwrap();
        store.publish(&s1, Message::data("mine")).unwrap();
        store.publish(&s2, Message::data("other")).unwrap();
        let got = sub.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].text(), Some("mine"));
    }

    #[test]
    fn bare_session_scope_spans_all_sessions() {
        // `Scope("session")` cannot be pinned to one shard: it must see
        // every session's streams via the global list.
        let store = StreamStore::new();
        let sub = store
            .subscribe(Selector::Scope("session".into()), TagFilter::all())
            .unwrap();
        for i in 0..8 {
            let id = store
                .create_stream(format!("session:{i}:user"), Vec::<Tag>::new())
                .unwrap();
            store.publish(&id, Message::data(format!("m{i}"))).unwrap();
        }
        assert_eq!(sub.drain().len(), 8);
    }

    #[test]
    fn replay_subscription_catches_up_then_continues() {
        let store = StreamStore::new();
        let id = store.create_stream("s", Vec::<Tag>::new()).unwrap();
        store.publish(&id, Message::data("old1")).unwrap();
        store.publish(&id, Message::data("old2")).unwrap();
        let sub = store
            .subscribe_with_replay(Selector::Stream(id.clone()), TagFilter::all())
            .unwrap();
        store.publish(&id, Message::data("new")).unwrap();
        let got: Vec<_> = (0..3).map(|_| sub.recv().unwrap()).collect();
        let texts: Vec<_> = got.iter().map(|m| m.text().unwrap()).collect();
        assert_eq!(texts, ["old1", "old2", "new"]);
    }

    #[test]
    fn global_replay_merges_shards_in_message_id_order() {
        let store = StreamStore::new();
        // Streams on (very likely) different shards, interleaved publishes.
        let a = store
            .create_stream("session:1:out", Vec::<Tag>::new())
            .unwrap();
        let b = store
            .create_stream("session:2:out", Vec::<Tag>::new())
            .unwrap();
        store.publish(&a, Message::data("a1")).unwrap();
        store.publish(&b, Message::data("b1")).unwrap();
        store.publish(&a, Message::data("a2")).unwrap();
        let sub = store
            .subscribe_with_replay(Selector::AllStreams, TagFilter::all())
            .unwrap();
        let texts: Vec<String> = sub
            .drain()
            .iter()
            .map(|m| m.text().unwrap().to_string())
            .collect();
        assert_eq!(texts, ["a1", "b1", "a2"]);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let store = StreamStore::new();
        let id = store.create_stream("s", Vec::<Tag>::new()).unwrap();
        let sub = store
            .subscribe(Selector::Stream(id.clone()), TagFilter::all())
            .unwrap();
        store.unsubscribe(&sub);
        store.publish(&id, Message::data("x")).unwrap();
        // The store dropped its sender, so the channel reports disconnection
        // with nothing buffered.
        assert_eq!(sub.try_recv().unwrap_err(), StreamError::Disconnected);
        assert_eq!(store.stats().active_subscriptions, 0);
    }

    #[test]
    fn dropped_subscription_is_pruned_on_publish() {
        let store = StreamStore::new();
        let id = store.create_stream("s", Vec::<Tag>::new()).unwrap();
        let sub = store
            .subscribe(Selector::Stream(id.clone()), TagFilter::all())
            .unwrap();
        drop(sub);
        // Dropping unregisters at once, without waiting for a publish.
        assert_eq!(store.stats().active_subscriptions, 0);
        store.publish(&id, Message::data("x")).unwrap();
        assert_eq!(store.stats().active_subscriptions, 0);
        assert_eq!(store.stats().deliveries, 0);
    }

    #[test]
    fn dropped_global_subscription_is_pruned_on_publish() {
        let store = StreamStore::new();
        let id = store.create_stream("s", Vec::<Tag>::new()).unwrap();
        let sub = store
            .subscribe(Selector::AllStreams, TagFilter::all())
            .unwrap();
        drop(sub);
        assert_eq!(store.stats().active_subscriptions, 0);
        store.publish(&id, Message::data("x")).unwrap();
        assert_eq!(store.stats().active_subscriptions, 0);
        assert_eq!(store.stats().deliveries, 0);
    }

    #[test]
    fn pruning_dead_subscriptions_keeps_live_ones() {
        // Interleave dropped and live subscriptions; once the dropped ones
        // unregister, the live ones must still receive messages.
        let store = StreamStore::new();
        let id = store.create_stream("s", Vec::<Tag>::new()).unwrap();
        let live1 = store
            .subscribe(Selector::Stream(id.clone()), TagFilter::all())
            .unwrap();
        let dead1 = store
            .subscribe(Selector::Stream(id.clone()), TagFilter::all())
            .unwrap();
        let live2 = store
            .subscribe(Selector::Stream(id.clone()), TagFilter::all())
            .unwrap();
        let dead2 = store
            .subscribe(Selector::Stream(id.clone()), TagFilter::all())
            .unwrap();
        drop(dead1);
        drop(dead2);
        store.publish(&id, Message::data("first")).unwrap();
        assert_eq!(store.stats().active_subscriptions, 2);
        store.publish(&id, Message::data("second")).unwrap();
        for live in [&live1, &live2] {
            let texts: Vec<String> = live
                .drain()
                .iter()
                .map(|m| m.text().unwrap().to_string())
                .collect();
            assert_eq!(texts, ["first", "second"]);
        }
    }

    #[test]
    fn retagging_stream_enables_future_matches() {
        let store = StreamStore::new();
        let id = store.create_stream("q", Vec::<Tag>::new()).unwrap();
        let sub = store
            .subscribe(Selector::StreamTagged(Tag::new("nlq")), TagFilter::all())
            .unwrap();
        store.publish(&id, Message::data("before")).unwrap();
        store.tag_stream(&id, "NLQ").unwrap();
        store.publish(&id, Message::data("after")).unwrap();
        let got = sub.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].text(), Some("after"));
    }

    #[test]
    fn close_publishes_eos_and_blocks_appends() {
        let store = StreamStore::new();
        let id = store.create_stream("s", Vec::<Tag>::new()).unwrap();
        store.close(&id).unwrap();
        assert_eq!(store.state(&id).unwrap(), StreamState::Closed);
        assert!(store.publish(&id, Message::data("late")).is_err());
    }

    #[test]
    fn stats_track_activity() {
        let store = StreamStore::new();
        let id = store.create_stream("s", Vec::<Tag>::new()).unwrap();
        let _sub1 = store
            .subscribe(Selector::Stream(id.clone()), TagFilter::all())
            .unwrap();
        let _sub2 = store
            .subscribe(Selector::Stream(id.clone()), TagFilter::all())
            .unwrap();
        store.publish(&id, Message::data("abcd")).unwrap();
        let stats = store.stats();
        assert_eq!(stats.streams_created, 1);
        assert_eq!(stats.messages_published, 1);
        assert_eq!(stats.deliveries, 2);
        assert_eq!(stats.bytes_published, 4);
        assert_eq!(stats.active_subscriptions, 2);
    }

    #[test]
    fn metrics_instruments_mirror_stats() {
        let metrics = MetricsRegistry::new();
        let obs = Observability {
            metrics: metrics.clone(),
            ..Observability::disarmed()
        };
        let store = StreamStore::observed(SimClock::new(), obs);
        let id = store.create_stream("s", Vec::<Tag>::new()).unwrap();
        let sub = store
            .subscribe(Selector::Stream(id.clone()), TagFilter::all())
            .unwrap();
        store.publish(&id, Message::data("abcd")).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("blueprint.streams.streams_created"), 1);
        assert_eq!(snap.counter("blueprint.streams.publishes"), 1);
        assert_eq!(snap.counter("blueprint.streams.deliveries"), 1);
        assert_eq!(snap.counter("blueprint.streams.bytes_published"), 4);
        assert_eq!(snap.gauge("blueprint.streams.active_subscriptions"), 1);
        drop(sub);
        assert_eq!(
            metrics
                .snapshot()
                .gauge("blueprint.streams.active_subscriptions"),
            0
        );
        assert_eq!(store.stats().messages_published, 1);
    }

    #[test]
    fn list_streams_respects_scope() {
        let store = StreamStore::new();
        store
            .create_stream("session:1:a", Vec::<Tag>::new())
            .unwrap();
        store
            .create_stream("session:1:b", Vec::<Tag>::new())
            .unwrap();
        store
            .create_stream("session:2:a", Vec::<Tag>::new())
            .unwrap();
        assert_eq!(store.list_streams(None).len(), 3);
        assert_eq!(store.list_streams(Some("session:1")).len(), 2);
    }

    #[test]
    fn remove_scope_reaps_only_that_session() {
        let store = StreamStore::new();
        store
            .create_stream("session:1:user", Vec::<Tag>::new())
            .unwrap();
        store
            .create_stream("session:1:task:0:n1", Vec::<Tag>::new())
            .unwrap();
        let keep = store
            .create_stream("session:2:user", Vec::<Tag>::new())
            .unwrap();
        assert_eq!(store.remove_scope("session:1"), 2);
        assert!(store.list_streams(Some("session:1")).is_empty());
        assert!(store.contains(&keep));
        // Reaping is idempotent.
        assert_eq!(store.remove_scope("session:1"), 0);
    }

    #[test]
    fn shard_key_groups_sessions_and_top_level_scopes() {
        assert_eq!(shard_key("session:42:user"), "session:42");
        assert_eq!(shard_key("session:42:task:7:n1"), "session:42");
        assert_eq!(shard_key("session:42"), "session:42");
        assert_eq!(shard_key("session"), "session");
        assert_eq!(shard_key("pool:instructions"), "pool");
        assert_eq!(shard_key("plain"), "plain");
        // Every stream of one session shares a shard.
        assert_eq!(
            shard_index("session:9:user"),
            shard_index("session:9:task:3:n2")
        );
    }

    #[test]
    fn concurrent_publishers_deliver_to_subscribers_in_seq_order() {
        // Delivery happens under the same critical section as the append,
        // so a subscriber must observe strictly increasing sequence numbers
        // even with racing publishers.
        let store = StreamStore::new();
        let id = store.create_stream("s", Vec::<Tag>::new()).unwrap();
        let sub = store
            .subscribe(Selector::Stream(id.clone()), TagFilter::all())
            .unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let store = store.clone();
                let id = id.clone();
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        store.publish(&id, Message::data("x")).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut last = None;
        let mut count = 0;
        while let Ok(Some(m)) = sub.try_recv() {
            if let Some(prev) = last {
                assert!(
                    m.seq > prev,
                    "delivery out of order: {} after {prev}",
                    m.seq
                );
            }
            last = Some(m.seq);
            count += 1;
        }
        assert_eq!(count, 1_000);
    }

    #[test]
    fn concurrent_publishers_preserve_per_stream_order_for_global_subs() {
        // A global (AllStreams) subscriber still sees each stream's messages
        // in seq order: fan-out to the global list happens inside the
        // publishing stream's shard section.
        let store = StreamStore::new();
        let sub = store
            .subscribe(Selector::AllStreams, TagFilter::all())
            .unwrap();
        let ids: Vec<StreamId> = (0..4)
            .map(|i| {
                store
                    .create_stream(format!("session:{i}:out"), Vec::<Tag>::new())
                    .unwrap()
            })
            .collect();
        let handles: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let store = store.clone();
                let id = id.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        store.publish(&id, Message::data(format!("{i}"))).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut next_seq: HashMap<String, u64> = HashMap::new();
        let mut count = 0;
        while let Ok(Some(m)) = sub.try_recv() {
            let source = m.text().unwrap().to_string();
            let expected = next_seq.entry(source).or_insert(0);
            assert_eq!(m.seq, *expected, "per-stream delivery out of order");
            *expected += 1;
            count += 1;
        }
        assert_eq!(count, 400);
    }

    #[test]
    fn concurrent_publishers_preserve_per_stream_order() {
        let store = StreamStore::new();
        let id = store.create_stream("s", Vec::<Tag>::new()).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let store = store.clone();
                let id = id.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        store
                            .publish(&id, Message::data(format!("{t}-{i}")))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let history = store.read(&id, 0).unwrap();
        assert_eq!(history.len(), 400);
        // Sequence numbers are dense and strictly increasing.
        for (i, m) in history.iter().enumerate() {
            assert_eq!(m.seq, i as u64);
        }
    }
}
