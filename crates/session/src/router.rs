//! The session router: the serving-side admission and dispatch layer.
//!
//! Enterprise serving means many concurrent sessions over one shared
//! blueprint. The [`SessionRouter`] admits tasks from up to `max_sessions`
//! sessions, serializes each session's tasks (a session is a conversation —
//! its turns happen in order), enforces per-session budget/QoS isolation
//! with one optimizer [`Budget`] per session, and dispatches across
//! sessions fairly:
//! a bounded pool of `max_in_flight` workers drains a round-robin ready
//! queue, so no session can starve its siblings no matter how much work it
//! enqueues.
//!
//! The router is deliberately agnostic to *what* a task does: a task is a
//! boxed job returning a [`JobOutcome`] (the serving runtime in
//! `blueprint-core` wraps `TaskCoordinator::execute` into one). This keeps
//! the router reusable — and keeps the crate graph acyclic, since the
//! coordinator itself depends on this crate.
//!
//! # Isolation guarantees
//!
//! - **Budget**: each session's lane owns its [`Budget`], read at pickup
//!   and charged at completion under the router's state lock; a session
//!   whose budget is `Exceeded` has its remaining tasks *rejected* (drained
//!   without running) while sibling sessions proceed untouched.
//! - **Ordering**: at most one task per session is in flight, so a session's
//!   tasks run in submission order — per-session results are deterministic
//!   regardless of how sessions interleave.
//! - **Fairness**: a session re-enters the ready queue at the tail after
//!   each completed task, giving strict round-robin among sessions with
//!   pending work.
//!
//! # Telemetry
//!
//! The router reports into the runtime's [`Observability`] bundle: the
//! `blueprint.session.*` instruments, and, only when tracing is armed, one
//! `dispatch` instant per dispatched task (attributes `session` and
//! `label`), in global dispatch order. Nothing is kept when tracing is off,
//! so a long-lived router holds no per-dispatch memory.

// The router blocks dispatch workers on a Condvar, which the project's
// parking_lot build does not provide — std's Condvar only pairs with std's
// Mutex, so this module opts out of the workspace-wide parking_lot rule.
#![allow(clippy::disallowed_types)]

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use serde_json::Value;

use blueprint_observability::{Counter, Gauge, Histogram, Observability, Tracer};
use blueprint_optimizer::{Budget, BudgetStatus, CostProfile, QosConstraints};

/// Serving-layer knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServingConfig {
    /// Maximum concurrently open sessions (admission control).
    pub max_sessions: usize,
    /// Worker threads draining the ready queue: the global bound on tasks
    /// executing at once, across all sessions.
    pub max_in_flight: usize,
    /// Per-session budget template applied to each newly opened session
    /// (override per session with [`SessionRouter::open_session_with`]).
    pub session_constraints: QosConstraints,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            max_sessions: 64,
            max_in_flight: 4,
            session_constraints: QosConstraints::none(),
        }
    }
}

/// What one executed job reports back: charged to the session's budget and
/// recorded on its completion log.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Whether the task reached a successful terminal state.
    pub ok: bool,
    /// Actual cost incurred.
    pub cost: f64,
    /// Actual latency incurred (µs).
    pub latency_micros: u64,
    /// Accuracy of the result (1.0 when not applicable).
    pub accuracy: f64,
    /// Task output (JSON), kept for isolation/golden assertions.
    pub output: Value,
}

/// A queued unit of session work.
pub type SessionJob = Box<dyn FnOnce() -> JobOutcome + Send + 'static>;

/// Terminal disposition of one submitted task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// The job ran and reported success.
    Completed,
    /// The job ran and reported failure.
    Failed,
    /// The job never ran: the session's budget was already exceeded.
    Rejected,
}

/// Record of one submitted task's fate, in per-session submission order.
#[derive(Debug, Clone)]
pub struct TaskCompletion {
    /// Owning session id.
    pub session: u64,
    /// Caller-chosen label (e.g. the task id or utterance).
    pub label: String,
    /// How the task ended.
    pub disposition: Disposition,
    /// Cost charged to the session budget.
    pub cost: f64,
    /// Latency recorded (µs).
    pub latency_micros: u64,
    /// The job's output (Null for rejected tasks).
    pub output: Value,
}

/// Per-session summary returned by [`SessionRouter::close_session`].
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The session id.
    pub session: u64,
    /// Every submitted task's fate, in submission order.
    pub completions: Vec<TaskCompletion>,
    /// Final budget ledger of the session.
    pub budget: Budget,
    /// Tasks rejected because the budget was exhausted.
    pub rejected: u64,
}

/// Errors surfaced by the router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterError {
    /// `max_sessions` sessions are already open.
    AtCapacity(usize),
    /// No open session with that id.
    UnknownSession(u64),
    /// The router has been shut down.
    ShutDown,
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::AtCapacity(max) => {
                write!(f, "session admission refused: {max} sessions already open")
            }
            RouterError::UnknownSession(id) => write!(f, "unknown session {id}"),
            RouterError::ShutDown => write!(f, "router is shut down"),
        }
    }
}

impl std::error::Error for RouterError {}

struct Lane {
    budget: Budget,
    queue: VecDeque<(String, SessionJob)>,
    /// True while a worker is executing this lane's task (per-session
    /// serialization).
    in_flight: bool,
    /// True while the lane sits in the ready queue.
    enqueued: bool,
    completions: Vec<TaskCompletion>,
    rejected: u64,
}

#[derive(Default)]
struct State {
    lanes: HashMap<u64, Lane>,
    /// Round-robin queue of session ids with pending, not-in-flight work.
    ready: VecDeque<u64>,
    /// Tasks queued across all lanes (not yet picked up).
    pending: usize,
    /// Tasks currently executing.
    running: usize,
}

struct Inner {
    cfg: ServingConfig,
    state: Mutex<State>,
    /// Workers wait here for ready work.
    work_cv: Condvar,
    /// `wait_idle`/`close_session` wait here for drains.
    idle_cv: Condvar,
    shutdown: AtomicBool,
    tracer: Tracer,
    active: Gauge,
    queue_depth: Gauge,
    dispatches: Counter,
    rejections: Counter,
    budget_debits: Counter,
    task_latency: Histogram,
}

/// Admits, queues, and fairly dispatches tasks from many concurrent
/// sessions. See the module docs for the isolation guarantees.
pub struct SessionRouter {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Inner {
    /// Locks the router state, recovering from poisoning (jobs run outside
    /// the lock and are panic-contained, so the state is never left
    /// mid-mutation).
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl SessionRouter {
    /// Builds a router and spawns its `max_in_flight` worker threads.
    /// Instruments land in `obs.metrics` under `blueprint.session.*`;
    /// dispatches are `obs.tracer` instants when tracing is armed.
    pub fn new(cfg: ServingConfig, obs: &Observability) -> Self {
        let metrics = &obs.metrics;
        let inner = Arc::new(Inner {
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tracer: obs.tracer.clone(),
            active: metrics.gauge("blueprint.session.active"),
            queue_depth: metrics.gauge("blueprint.session.queue_depth"),
            dispatches: metrics.counter("blueprint.session.dispatches"),
            rejections: metrics.counter("blueprint.session.rejections"),
            budget_debits: metrics.counter("blueprint.optimizer.budget_debits"),
            task_latency: metrics.histogram("blueprint.session.task_latency_micros"),
            cfg,
        });
        let workers = (0..cfg.max_in_flight.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(inner))
            })
            .collect();
        SessionRouter { inner, workers }
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.inner.cfg
    }

    /// Opens a lane for a session under the configured per-session budget.
    pub fn open_session(&self, session: u64) -> Result<(), RouterError> {
        self.open_session_with(session, self.inner.cfg.session_constraints)
    }

    /// Opens a lane for a session with explicit QoS constraints. Fails when
    /// `max_sessions` lanes are already open (admission control) or the id
    /// is already in use.
    pub fn open_session_with(
        &self,
        session: u64,
        constraints: QosConstraints,
    ) -> Result<(), RouterError> {
        if self.inner.shutdown.load(Ordering::Relaxed) {
            return Err(RouterError::ShutDown);
        }
        let mut state = self.inner.state();
        if state.lanes.len() >= self.inner.cfg.max_sessions {
            return Err(RouterError::AtCapacity(self.inner.cfg.max_sessions));
        }
        if state.lanes.contains_key(&session) {
            return Err(RouterError::AtCapacity(self.inner.cfg.max_sessions));
        }
        state.lanes.insert(
            session,
            Lane {
                budget: Budget::new(constraints),
                queue: VecDeque::new(),
                in_flight: false,
                enqueued: false,
                completions: Vec::new(),
                rejected: 0,
            },
        );
        self.inner.active.set(state.lanes.len() as i64);
        Ok(())
    }

    /// Queues one task on a session's lane. The job runs on a router worker;
    /// its outcome is charged to the session budget and recorded. Tasks of
    /// one session run serially in submission order.
    pub fn submit(
        &self,
        session: u64,
        label: impl Into<String>,
        job: SessionJob,
    ) -> Result<(), RouterError> {
        if self.inner.shutdown.load(Ordering::Relaxed) {
            return Err(RouterError::ShutDown);
        }
        let mut state = self.inner.state();
        let lane = state
            .lanes
            .get_mut(&session)
            .ok_or(RouterError::UnknownSession(session))?;
        lane.queue.push_back((label.into(), job));
        let wake = !lane.in_flight && !lane.enqueued;
        if wake {
            lane.enqueued = true;
        }
        state.pending += 1;
        self.inner.queue_depth.set(state.pending as i64);
        if wake {
            state.ready.push_back(session);
            self.inner.work_cv.notify_one();
        }
        Ok(())
    }

    /// Blocks until every queued task of every session has completed.
    pub fn wait_idle(&self) {
        let mut state = self.inner.state();
        while state.pending > 0 || state.running > 0 {
            state = self
                .inner
                .idle_cv
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Waits for the session's lane to drain, then closes it and returns its
    /// report (completions in submission order + final budget ledger). The
    /// session's streams are *not* touched — reaping them is the
    /// [`SessionManager`](crate::SessionManager)'s job.
    pub fn close_session(&self, session: u64) -> Result<SessionReport, RouterError> {
        let mut state = self.inner.state();
        loop {
            let lane = state
                .lanes
                .get(&session)
                .ok_or(RouterError::UnknownSession(session))?;
            if lane.queue.is_empty() && !lane.in_flight {
                break;
            }
            state = self
                .inner
                .idle_cv
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        let lane = state
            .lanes
            .remove(&session)
            .ok_or(RouterError::UnknownSession(session))?;
        self.inner.active.set(state.lanes.len() as i64);
        Ok(SessionReport {
            session,
            completions: lane.completions,
            budget: lane.budget,
            rejected: lane.rejected,
        })
    }

    /// Open lanes right now.
    pub fn active_sessions(&self) -> usize {
        self.inner.state().lanes.len()
    }

    /// Stops the workers after in-flight tasks finish; queued tasks are
    /// dropped. Called automatically on drop.
    pub fn shutdown(&mut self) {
        // Set under the state lock: a worker reads the flag under that lock
        // just before it waits, so it either sees the flag or is already
        // waiting when the notification comes. Set outside it, the flag and
        // the notification could both land between the read and the wait,
        // and the worker would sleep through its own shutdown.
        {
            let _state = self.inner.state();
            self.inner.shutdown.store(true, Ordering::Relaxed);
        }
        self.inner.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for SessionRouter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: Arc<Inner>) {
    loop {
        // Pick the next ready session (round-robin) and take its head task.
        let (session, label, job, exceeded) = {
            let mut state = inner.state();
            loop {
                if inner.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(session) = state.ready.pop_front() {
                    // A lane is only ever in the ready queue with pending
                    // work and no task in flight.
                    let pending = state.pending - 1;
                    let lane = state.lanes.get_mut(&session).expect("ready lane exists");
                    lane.enqueued = false;
                    let (label, job) = lane.queue.pop_front().expect("ready lane has work");
                    lane.in_flight = true;
                    let exceeded = lane.budget.status(&CostProfile::FREE) == BudgetStatus::Exceeded;
                    state.pending = pending;
                    state.running += 1;
                    inner.queue_depth.set(pending as i64);
                    break (session, label, job, exceeded);
                }
                state = inner.work_cv.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };

        // QoS isolation: a session that exhausted its budget gets its tasks
        // rejected (drained without running) — it cannot consume worker time
        // that sibling sessions are entitled to.
        let (completion, charge) = if exceeded {
            inner.rejections.inc();
            let rejected = TaskCompletion {
                session,
                label,
                disposition: Disposition::Rejected,
                cost: 0.0,
                latency_micros: 0,
                output: Value::Null,
            };
            (rejected, None)
        } else {
            inner.dispatches.inc();
            if inner.tracer.is_armed() {
                inner.tracer.instant(
                    "session",
                    "dispatch",
                    None,
                    &[("session", &session.to_string()), ("label", &label)],
                );
            }
            // Panic containment: a job that panics (e.g. under fault
            // injection) is recorded as failed; the worker, the lane, and
            // sibling sessions keep going.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job))
                .unwrap_or_else(|_| JobOutcome {
                    ok: false,
                    cost: 0.0,
                    latency_micros: 0,
                    accuracy: 0.0,
                    output: Value::String("job panicked".into()),
                });
            inner.task_latency.record(outcome.latency_micros);
            let charge = (outcome.cost, outcome.latency_micros, outcome.accuracy);
            let ran = TaskCompletion {
                session,
                label,
                disposition: if outcome.ok {
                    Disposition::Completed
                } else {
                    Disposition::Failed
                },
                cost: outcome.cost,
                latency_micros: outcome.latency_micros,
                output: outcome.output,
            };
            (ran, Some(charge))
        };

        let mut state = inner.state();
        let lane = state
            .lanes
            .get_mut(&session)
            .expect("lane open while its task runs");
        match charge {
            Some((cost, latency_micros, accuracy)) => {
                inner.budget_debits.inc();
                lane.budget.charge(cost, latency_micros, accuracy);
            }
            None => lane.rejected += 1,
        }
        lane.completions.push(completion);
        lane.in_flight = false;
        let more = !lane.queue.is_empty();
        if more {
            lane.enqueued = true;
        }
        state.running -= 1;
        if more {
            // Tail re-entry: strict round robin among sessions with work.
            state.ready.push_back(session);
            inner.work_cv.notify_one();
        }
        // Wake drain-waiters on every completion: wait_idle and
        // close_session re-check their conditions.
        inner.idle_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn job(ok: bool, cost: f64, latency: u64, out: Value) -> SessionJob {
        Box::new(move || JobOutcome {
            ok,
            cost,
            latency_micros: latency,
            accuracy: 1.0,
            output: out,
        })
    }

    fn router(max_sessions: usize, max_in_flight: usize) -> SessionRouter {
        traced_router(max_sessions, max_in_flight).0
    }

    /// A router with tracing armed, and its tracer.
    fn traced_router(max_sessions: usize, max_in_flight: usize) -> (SessionRouter, Tracer) {
        let obs = Observability::armed(blueprint_observability::SimClock::new());
        let r = SessionRouter::new(
            ServingConfig {
                max_sessions,
                max_in_flight,
                session_constraints: QosConstraints::none(),
            },
            &obs,
        );
        (r, obs.tracer)
    }

    /// The sessions of the recorded `dispatch` instants, in dispatch order.
    fn dispatched_sessions(tracer: &Tracer) -> Vec<u64> {
        tracer
            .snapshot()
            .spans
            .iter()
            .filter(|s| s.name == "dispatch")
            .map(|s| s.attrs["session"].parse().unwrap())
            .collect()
    }

    #[test]
    fn tasks_of_one_session_run_in_submission_order() {
        let r = router(4, 4);
        r.open_session(1).unwrap();
        for i in 0..10 {
            r.submit(1, format!("t{i}"), job(true, 1.0, 10, json!(i)))
                .unwrap();
        }
        r.wait_idle();
        let report = r.close_session(1).unwrap();
        let labels: Vec<&str> = report
            .completions
            .iter()
            .map(|c| c.label.as_str())
            .collect();
        assert_eq!(
            labels,
            (0..10).map(|i| format!("t{i}")).collect::<Vec<_>>(),
            "per-session completions out of submission order"
        );
        assert!((report.budget.actual().cost_per_call - 10.0).abs() < 1e-9);
    }

    #[test]
    fn admission_control_caps_open_sessions() {
        let r = router(2, 1);
        r.open_session(1).unwrap();
        r.open_session(2).unwrap();
        assert_eq!(r.open_session(3), Err(RouterError::AtCapacity(2)));
        r.close_session(1).unwrap();
        r.open_session(3).unwrap();
    }

    #[test]
    fn exceeded_budget_rejects_followup_tasks_but_not_siblings() {
        let r = SessionRouter::new(
            ServingConfig {
                max_sessions: 4,
                max_in_flight: 1,
                session_constraints: QosConstraints::none().with_max_cost(5.0),
            },
            &Observability::disarmed(),
        );
        r.open_session(1).unwrap();
        r.open_session(2).unwrap();
        // Session 1 blows its budget on the first task; later tasks must be
        // rejected. Session 2 keeps completing.
        r.submit(1, "big", job(true, 10.0, 5, json!("x"))).unwrap();
        for i in 0..3 {
            r.submit(1, format!("after{i}"), job(true, 1.0, 5, json!(i)))
                .unwrap();
            r.submit(2, format!("ok{i}"), job(true, 1.0, 5, json!(i)))
                .unwrap();
        }
        r.wait_idle();
        let one = r.close_session(1).unwrap();
        let two = r.close_session(2).unwrap();
        assert_eq!(one.rejected, 3);
        assert!(one.completions[1..]
            .iter()
            .all(|c| c.disposition == Disposition::Rejected));
        assert_eq!(two.rejected, 0);
        assert!(two
            .completions
            .iter()
            .all(|c| c.disposition == Disposition::Completed));
    }

    #[test]
    fn round_robin_dispatch_is_fair() {
        // One worker, three sessions, three tasks each, all queued before
        // the worker can drain: dispatches must cycle 1,2,3,1,2,3,...
        let (r, tracer) = traced_router(8, 1);
        // Stall the worker with a task that waits for the gate, so the
        // queues fill before round-robin starts.
        let gate = Arc::new(AtomicBool::new(false));
        r.open_session(1).unwrap();
        let g = Arc::clone(&gate);
        r.submit(
            1,
            "gate",
            Box::new(move || {
                while !g.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
                JobOutcome {
                    ok: true,
                    cost: 0.0,
                    latency_micros: 0,
                    accuracy: 1.0,
                    output: Value::Null,
                }
            }),
        )
        .unwrap();
        r.open_session(2).unwrap();
        r.open_session(3).unwrap();
        for i in 0..3 {
            for s in [1u64, 2, 3] {
                r.submit(s, format!("s{s}t{i}"), job(true, 1.0, 1, json!(i)))
                    .unwrap();
            }
        }
        gate.store(true, Ordering::Relaxed);
        r.wait_idle();
        let order: Vec<u64> = dispatched_sessions(&tracer).into_iter().skip(1).collect();
        assert_eq!(order.len(), 9);
        // Strict round robin: every window of three dispatches covers every
        // session exactly once (the cycle's phase depends on when session 1
        // re-queued after the gate task).
        for window in order.chunks(3) {
            let mut sorted = window.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, [1, 2, 3], "unfair dispatch order: {order:?}");
        }
    }

    #[test]
    fn metrics_count_dispatches_and_depth_returns_to_zero() {
        let obs = Observability {
            metrics: blueprint_observability::MetricsRegistry::new(),
            ..Observability::disarmed()
        };
        let metrics = obs.metrics.clone();
        let r = SessionRouter::new(
            ServingConfig {
                max_sessions: 4,
                max_in_flight: 2,
                session_constraints: QosConstraints::none(),
            },
            &obs,
        );
        r.open_session(1).unwrap();
        r.open_session(2).unwrap();
        for i in 0..4 {
            r.submit(1, format!("a{i}"), job(true, 1.0, 100, json!(i)))
                .unwrap();
            r.submit(2, format!("b{i}"), job(true, 1.0, 100, json!(i)))
                .unwrap();
        }
        r.wait_idle();
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("blueprint.session.dispatches"), 8);
        assert_eq!(snap.counter("blueprint.optimizer.budget_debits"), 8);
        assert_eq!(snap.gauge("blueprint.session.queue_depth"), 0);
        assert_eq!(snap.gauge("blueprint.session.active"), 2);
        assert_eq!(
            snap.histograms["blueprint.session.task_latency_micros"].count,
            8
        );
        r.close_session(1).unwrap();
        r.close_session(2).unwrap();
        assert_eq!(metrics.snapshot().gauge("blueprint.session.active"), 0);
    }

    #[test]
    fn untraced_router_records_no_dispatch() {
        let obs = Observability::disarmed();
        let r = SessionRouter::new(ServingConfig::default(), &obs);
        r.open_session(1).unwrap();
        for i in 0..100 {
            r.submit(1, format!("t{i}"), job(true, 0.0, 0, Value::Null))
                .unwrap();
        }
        r.wait_idle();
        assert_eq!(r.close_session(1).unwrap().completions.len(), 100);
        assert!(obs.tracer.snapshot().spans.is_empty());
    }

    #[test]
    fn submit_to_unknown_or_closed_session_errors() {
        let r = router(2, 1);
        assert_eq!(
            r.submit(9, "x", job(true, 0.0, 0, Value::Null)),
            Err(RouterError::UnknownSession(9))
        );
        r.open_session(1).unwrap();
        r.close_session(1).unwrap();
        assert_eq!(
            r.submit(1, "x", job(true, 0.0, 0, Value::Null)),
            Err(RouterError::UnknownSession(1))
        );
    }

    #[test]
    fn shutdown_refuses_new_work() {
        let mut r = router(2, 1);
        r.open_session(1).unwrap();
        r.shutdown();
        assert_eq!(r.open_session(2), Err(RouterError::ShutDown));
        assert_eq!(
            r.submit(1, "x", job(true, 0.0, 0, Value::Null)),
            Err(RouterError::ShutDown)
        );
    }

    /// Shutting down while the worker is between reading the flag and
    /// waiting must still stop it. Routers are built and dropped one at a
    /// time, each after a pseudo-random spin, so some drops land in that
    /// window; a lost wake-up leaves `drop` joining a worker that sleeps
    /// forever, which the watchdog reports.
    #[test]
    fn shutdown_wakes_a_worker_about_to_wait() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            for _ in 0..20_000 {
                let r = SessionRouter::new(
                    ServingConfig {
                        max_sessions: 1,
                        max_in_flight: 1,
                        session_constraints: QosConstraints::none(),
                    },
                    &Observability::disarmed(),
                );
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                for _ in 0..x % 3_000 {
                    std::hint::spin_loop();
                }
                drop(r);
            }
            let _ = done.send(());
        });
        assert!(
            finished
                .recv_timeout(std::time::Duration::from_secs(60))
                .is_ok(),
            "a router's drop hung joining its worker"
        );
    }
}
