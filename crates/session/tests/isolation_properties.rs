//! Property-based session-isolation battery for the serving runtime's
//! substrate: for ANY mix of concurrent sessions pushed through one
//! [`SessionRouter`] over one sharded [`StreamStore`], every session's
//! observable behaviour — completion records, budget debits, rejections, and
//! the byte-content of its streams — is identical to running that session
//! ALONE on a fresh store and router. No message ever crosses a session
//! boundary.
//!
//! Comparisons are on payload bytes, sequence numbers, producers, and exact
//! f64 bit patterns (all charges are dyadic multiples of 0.25, so sums are
//! exact under any completion order). Store-assigned message ids and
//! publication timestamps are *excluded*: they are global coordinates, not
//! session-observable state.
//!
//! Run with `PROPTEST_CASES=256` for the acceptance bar (CI's serving job
//! does; the default is 64 for a fast local loop).

use proptest::prelude::*;
use serde_json::json;

use blueprint_observability::{Observability, SimClock, Tracer};
use blueprint_optimizer::QosConstraints;
use blueprint_session::{
    Disposition, JobOutcome, ServingConfig, SessionJob, SessionReport, SessionRouter,
};
use blueprint_streams::{Message, StreamId, StreamStore};

/// One deterministic synthetic task: publishes `messages` payloads onto its
/// session's output stream and charges a dyadic cost.
#[derive(Clone, Copy, Debug)]
struct TaskSpec {
    /// 0..=3 → cost = 0.25 * weight, latency = 100 * weight.
    weight: u8,
    /// 1..=3 messages published to `session:<id>:out`.
    messages: u8,
}

/// A session's whole workload plus its budget cap (in 0.25-units; 255 = no
/// cap, small values force deterministic rejections).
#[derive(Clone, Debug)]
struct SessionScript {
    tasks: Vec<TaskSpec>,
    cap_quarters: u8,
}

fn session_constraints(script: &SessionScript) -> QosConstraints {
    if script.cap_quarters == u8::MAX {
        QosConstraints::none()
    } else {
        QosConstraints::none().with_max_cost(0.25 * script.cap_quarters as f64)
    }
}

/// The job for task `t` of session `sid`: a pure function of its arguments
/// (plus the store handle), so solo and mixed runs replay identical work.
fn make_job(store: &StreamStore, sid: u64, t: usize, spec: TaskSpec) -> SessionJob {
    let store = store.clone();
    Box::new(move || {
        let stream = StreamId::new(format!("session:{sid}:out"));
        store.ensure_stream(stream.clone(), ["out"]).unwrap();
        for k in 0..spec.messages {
            store
                .publish(
                    &stream,
                    Message::data(format!("s{sid}:t{t}:m{k}"))
                        .from_producer(format!("agent-s{sid}")),
                )
                .unwrap();
        }
        JobOutcome {
            ok: true,
            cost: 0.25 * spec.weight as f64,
            latency_micros: 100 * spec.weight as u64,
            accuracy: 1.0,
            output: json!({ "session": sid, "task": t, "messages": spec.messages }),
        }
    })
}

/// What a session can observe of itself: completions (label, disposition,
/// exact cost bits, latency, output), final budget ledger, rejection count,
/// and its streams' byte-content in sequence order.
/// `(seq, producer, payload-json)` triples of one stream, in sequence order.
type StreamDump = Vec<(u64, String, String)>;

#[derive(Debug, PartialEq)]
struct SessionView {
    completions: Vec<(String, String, u64, u64, String)>,
    spent_cost_bits: u64,
    spent_latency: u64,
    rejected: u64,
    streams: Vec<(String, StreamDump)>,
}

fn view(store: &StreamStore, report: &SessionReport) -> SessionView {
    let completions = report
        .completions
        .iter()
        .map(|c| {
            (
                c.label.clone(),
                format!("{:?}", c.disposition),
                c.cost.to_bits(),
                c.latency_micros,
                serde_json::to_string(&c.output).unwrap(),
            )
        })
        .collect();
    let scope = format!("session:{}", report.session);
    let mut streams = Vec::new();
    for id in store.list_streams(Some(&scope)) {
        let msgs = store
            .read(&id, 0)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.seq,
                    m.producer.clone(),
                    serde_json::to_string(&m.payload()).unwrap(),
                )
            })
            .collect();
        streams.push((id.as_str().to_string(), msgs));
    }
    SessionView {
        completions,
        spent_cost_bits: report.budget.spent_cost.to_bits(),
        spent_latency: report.budget.spent_latency_micros,
        rejected: report.rejected,
        streams,
    }
}

fn router(store_sessions: usize, max_in_flight: usize) -> (StreamStore, SessionRouter) {
    let (store, router, _) = router_with(store_sessions, max_in_flight, Observability::disarmed());
    (store, router)
}

/// A fresh store plus a router reporting into `obs`; returns the router's
/// tracer too.
fn router_with(
    store_sessions: usize,
    max_in_flight: usize,
    obs: Observability,
) -> (StreamStore, SessionRouter, Tracer) {
    let store = StreamStore::new();
    let router = SessionRouter::new(
        ServingConfig {
            max_sessions: store_sessions,
            max_in_flight,
            session_constraints: QosConstraints::none(),
        },
        &obs,
    );
    (store, router, obs.tracer)
}

/// Runs one session alone on a fresh store + router.
fn run_solo(sid: u64, script: &SessionScript, max_in_flight: usize) -> SessionView {
    let (store, router) = router(1, max_in_flight);
    router
        .open_session_with(sid, session_constraints(script))
        .unwrap();
    for (t, &spec) in script.tasks.iter().enumerate() {
        router
            .submit(sid, format!("s{sid}t{t}"), make_job(&store, sid, t, spec))
            .unwrap();
    }
    router.wait_idle();
    let report = router.close_session(sid).unwrap();
    view(&store, &report)
}

/// Runs every session concurrently on one shared store + router, submitting
/// in the proptest-chosen interleaving.
fn run_mixed(
    scripts: &[SessionScript],
    interleave: &[usize],
    max_in_flight: usize,
) -> (StreamStore, Vec<SessionView>) {
    let (store, router) = router(scripts.len(), max_in_flight);
    for (sid, script) in scripts.iter().enumerate() {
        router
            .open_session_with(sid as u64, session_constraints(script))
            .unwrap();
    }
    // Interleaved submission: each pick advances one session's cursor; any
    // leftover picks wrap over the sessions still holding unsubmitted tasks.
    let mut cursors = vec![0usize; scripts.len()];
    let submit = |sid: usize, cursors: &mut Vec<usize>| {
        let t = cursors[sid];
        if t < scripts[sid].tasks.len() {
            cursors[sid] += 1;
            router
                .submit(
                    sid as u64,
                    format!("s{sid}t{t}"),
                    make_job(&store, sid as u64, t, scripts[sid].tasks[t]),
                )
                .unwrap();
        }
    };
    for &raw in interleave {
        submit(raw % scripts.len(), &mut cursors);
    }
    for sid in 0..scripts.len() {
        while cursors[sid] < scripts[sid].tasks.len() {
            submit(sid, &mut cursors);
        }
    }
    router.wait_idle();
    let views = (0..scripts.len())
        .map(|sid| {
            let report = router.close_session(sid as u64).unwrap();
            view(&store, &report)
        })
        .collect();
    (store, views)
}

fn task_strategy() -> impl Strategy<Value = TaskSpec> {
    (0u8..=3, 1u8..=3).prop_map(|(weight, messages)| TaskSpec { weight, messages })
}

fn script_strategy() -> impl Strategy<Value = SessionScript> {
    // Caps 0..=4 quarters force deterministic rejections in half the cases;
    // the other half (mapped to u8::MAX) run uncapped.
    (prop::collection::vec(task_strategy(), 1..5), 0u8..=9).prop_map(|(tasks, raw_cap)| {
        SessionScript {
            tasks,
            cap_quarters: if raw_cap > 4 { u8::MAX } else { raw_cap },
        }
    })
}

fn battery_strategy() -> impl Strategy<Value = (Vec<SessionScript>, Vec<usize>, usize)> {
    (
        prop::collection::vec(script_strategy(), 2..5),
        prop::collection::vec(0usize..1000, 0..16),
        1usize..=4,
    )
}

proptest! {
    /// Per-session completions, budget debits, rejection counts, and stream
    /// byte-content in a concurrent mix equal the run-alone reference, for
    /// any session scripts, any submission interleaving, and any worker
    /// count — with rejections exercised via tight per-session caps.
    #[test]
    fn every_session_is_byte_identical_to_running_alone(
        (scripts, interleave, max_in_flight) in battery_strategy()
    ) {
        let (_store, mixed) = run_mixed(&scripts, &interleave, max_in_flight);
        for (sid, script) in scripts.iter().enumerate() {
            let solo = run_solo(sid as u64, script, max_in_flight);
            prop_assert_eq!(
                &solo, &mixed[sid],
                "session {} diverged under mix (cap {:?})",
                sid, script.cap_quarters
            );
        }
    }

    /// No message crosses a session boundary: everything under a session's
    /// scope names that session in both producer and payload, and sibling
    /// scopes never appear.
    #[test]
    fn no_message_crosses_session_boundaries(
        (scripts, interleave, max_in_flight) in battery_strategy()
    ) {
        let (store, _) = run_mixed(&scripts, &interleave, max_in_flight);
        for sid in 0..scripts.len() {
            let scope = format!("session:{sid}");
            for id in store.list_streams(Some(&scope)) {
                for msg in store.read(&id, 0).unwrap() {
                    prop_assert_eq!(&msg.producer, &format!("agent-s{sid}"));
                    let text = msg.payload().as_str().unwrap_or_default();
                    prop_assert!(
                        text.starts_with(&format!("s{sid}:")),
                        "foreign payload {:?} in {}", text, id
                    );
                }
            }
        }
    }

    /// The dispatch order respects per-session FIFO under any interleaving:
    /// the router's `dispatch` trace events, filtered to one session, are
    /// exactly that session's submission order (rejected tasks never
    /// dispatch).
    #[test]
    fn dispatch_log_preserves_each_sessions_submission_order(
        (scripts, interleave, max_in_flight) in battery_strategy()
    ) {
        let (store, router, tracer) = router_with(
            scripts.len(),
            max_in_flight,
            Observability::armed(SimClock::new()),
        );
        for (sid, script) in scripts.iter().enumerate() {
            router.open_session_with(sid as u64, session_constraints(script)).unwrap();
        }
        let mut cursors = vec![0usize; scripts.len()];
        let order: Vec<usize> = interleave
            .iter()
            .map(|r| r % scripts.len())
            .chain((0..scripts.len()).flat_map(|s| std::iter::repeat_n(s, 4)))
            .collect();
        for sid in order {
            let t = cursors[sid];
            if t < scripts[sid].tasks.len() {
                cursors[sid] += 1;
                router
                    .submit(sid as u64, format!("s{sid}t{t}"), make_job(&store, sid as u64, t, scripts[sid].tasks[t]))
                    .unwrap();
            }
        }
        router.wait_idle();
        let trace = tracer.snapshot();
        for sid in 0..scripts.len() {
            let session = sid.to_string();
            let dispatched: Vec<String> = trace
                .spans
                .iter()
                .filter(|s| s.name == "dispatch" && s.attrs["session"] == session)
                .map(|s| s.attrs["label"].clone())
                .collect();
            let report = router.close_session(sid as u64).unwrap();
            let expected: Vec<String> = report
                .completions
                .iter()
                .filter(|c| c.disposition != Disposition::Rejected)
                .map(|c| c.label.clone())
                .collect();
            prop_assert_eq!(dispatched, expected, "session {}", sid);
        }
    }
}

/// Non-property regression: the same battery shape at fixed size, exercising
/// the Arc-job plumbing once without the proptest loop (fast smoke path).
#[test]
fn smoke_two_sessions_identical_solo_and_mixed() {
    let scripts = vec![
        SessionScript {
            tasks: vec![
                TaskSpec {
                    weight: 2,
                    messages: 2,
                },
                TaskSpec {
                    weight: 1,
                    messages: 1,
                },
            ],
            cap_quarters: u8::MAX,
        },
        SessionScript {
            tasks: vec![TaskSpec {
                weight: 3,
                messages: 3,
            }],
            cap_quarters: 2,
        },
    ];
    let (_store, mixed) = run_mixed(&scripts, &[0, 1, 0], 2);
    for (sid, script) in scripts.iter().enumerate() {
        let solo = run_solo(sid as u64, script, 2);
        assert_eq!(solo, mixed[sid], "session {sid}");
    }
}
