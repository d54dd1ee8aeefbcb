//! Golden pinned-seed serving run: 16 concurrent sessions replay a mixed
//! workload (job-search flows, NL2SQL questions, chat turns) through the
//! [`ServingRuntime`]'s shared agent pool, and the test pins down
//!
//! * per-session reports — every task completes, labels in submission order,
//!   and sessions with identical scripts produce byte-identical outputs;
//! * fair dispatch — the router's global dispatch log never lets one session
//!   run far ahead of another;
//! * the metrics snapshot — dispatch/invocation/latency-record totals match
//!   hand-counted expectations derived from the pinned workload.

use blueprint_core::session::Disposition;
use blueprint_core::Blueprint;
use integration_tests::small_hr;

const SEED: u64 = 0x00B1_EED0_5EED;
const SESSIONS: usize = 16;
const TASKS_PER_SESSION: usize = 3;
const MAX_IN_FLIGHT: usize = 4;

/// The mixed workload: utterance + the node count of the plan the task
/// planner produces for it (hand-counted from `TaskPlanner::decompose`).
const MIX: [(&str, u64); 3] = [
    // JobSearch: profile -> match -> present.
    (
        "I am looking for a data scientist position in SF bay area.",
        3,
    ),
    // OpenEndedQuery: translate -> execute -> summarize.
    ("How many applicants per city?", 3),
    // Greeting: one conversational node.
    ("hello there!", 1),
];

/// Tiny deterministic generator (xorshift64*) so the workload is pinned
/// without pulling a rand dependency into the integration tests.
struct Pinned(u64);

impl Pinned {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// `scripts[s][t]` is the MIX index of session `s`'s `t`-th task — a pure
/// function of the pinned seed.
fn scripts() -> Vec<Vec<usize>> {
    (0..SESSIONS)
        .map(|s| {
            let mut rng = Pinned(SEED ^ (s as u64 + 1).wrapping_mul(0x9E37_79B9));
            (0..TASKS_PER_SESSION)
                .map(|_| (rng.next() % MIX.len() as u64) as usize)
                .collect()
        })
        .collect()
}

#[test]
fn pinned_seed_16_session_mixed_workload_is_deterministic_and_fair() {
    let bp = Blueprint::builder()
        .with_hr_domain(small_hr())
        .with_serving(SESSIONS, MAX_IN_FLIGHT)
        .with_metrics()
        .with_tracing()
        .build()
        .unwrap();
    let serving = bp.serving().unwrap();
    let scripts = scripts();

    let ids: Vec<u64> = (0..SESSIONS)
        .map(|_| serving.open_session().unwrap())
        .collect();
    // Interleaved submission: turn 0 of every session, then turn 1, ...
    let mut labels: Vec<Vec<String>> = vec![Vec::new(); SESSIONS];
    for turn in 0..TASKS_PER_SESSION {
        for (s, &id) in ids.iter().enumerate() {
            let utterance = MIX[scripts[s][turn]].0;
            labels[s].push(serving.submit(id, utterance).unwrap());
        }
    }
    serving.await_idle();

    // --- Fair dispatch: at every prefix of the global dispatch order (the
    // router's `dispatch` trace events), no session is more than
    // `1 + MAX_IN_FLIGHT` tasks ahead of another (round-robin lanes; a
    // laggard can only be absent from the ready queue while one of its tasks
    // occupies a worker).
    let log: Vec<u64> = bp
        .trace()
        .spans
        .iter()
        .filter(|s| s.name == "dispatch")
        .map(|s| s.attrs["session"].parse().unwrap())
        .collect();
    assert_eq!(log.len(), SESSIONS * TASKS_PER_SESSION);
    let mut counts = vec![0usize; SESSIONS];
    let index_of: std::collections::HashMap<u64, usize> =
        ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    for session in &log {
        counts[index_of[session]] += 1;
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max - min <= 1 + MAX_IN_FLIGHT,
            "unfair dispatch: counts {counts:?}"
        );
    }

    // --- Per-session reports: everything completed, labels in submission
    // order, and equal scripts produce byte-identical output sequences.
    let mut outputs_by_script: std::collections::HashMap<Vec<usize>, Vec<String>> =
        std::collections::HashMap::new();
    for (s, &id) in ids.iter().enumerate() {
        let report = serving.finish(id).unwrap();
        assert_eq!(report.session, id);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.completions.len(), TASKS_PER_SESSION, "session {s}");
        let mut rendered = Vec::new();
        for (t, c) in report.completions.iter().enumerate() {
            assert_eq!(c.label, labels[s][t], "session {s} task order");
            assert!(
                matches!(c.disposition, Disposition::Completed),
                "session {s} task {t}: {:?}",
                c.output
            );
            rendered.push(serde_json::to_string(&c.output).unwrap());
        }
        // Job-search turns render the matched-jobs presentation.
        for (t, &m) in scripts[s].iter().enumerate() {
            if m == 0 {
                assert!(
                    rendered[t].contains("item(s)"),
                    "session {s} task {t}: {}",
                    rendered[t]
                );
            }
        }
        match outputs_by_script.get(&scripts[s]) {
            None => {
                outputs_by_script.insert(scripts[s].clone(), rendered);
            }
            Some(prior) => assert_eq!(
                prior, &rendered,
                "sessions with script {:?} diverged",
                scripts[s]
            ),
        }
    }

    // --- Metrics snapshot vs hand-counted totals.
    let total_tasks = (SESSIONS * TASKS_PER_SESSION) as u64;
    let expected_invocations: u64 = scripts.iter().flatten().map(|&m| MIX[m].1).sum();
    let snap = bp.metrics();
    assert_eq!(snap.counter("blueprint.session.dispatches"), total_tasks);
    assert_eq!(snap.counter("blueprint.session.rejections"), 0);
    assert_eq!(
        snap.counter("blueprint.agents.invocations"),
        expected_invocations
    );
    assert_eq!(
        snap.counter("blueprint.coordinator.dispatches"),
        expected_invocations
    );
    assert_eq!(
        snap.histograms["blueprint.session.task_latency_micros"].count,
        total_tasks
    );
    assert_eq!(snap.gauge("blueprint.session.active"), 0);
    assert_eq!(snap.gauge("blueprint.session.queue_depth"), 0);
}

#[test]
fn serving_reports_are_stable_across_identical_runs() {
    // The whole run (not just within-run sessions) is a function of the
    // pinned seed: two fresh blueprints over the same HR config and scripts
    // produce identical per-session output sequences.
    let run = || {
        let bp = Blueprint::builder()
            .with_hr_domain(small_hr())
            .with_serving(SESSIONS, MAX_IN_FLIGHT)
            .build()
            .unwrap();
        let serving = bp.serving().unwrap();
        let scripts = scripts();
        let ids: Vec<u64> = (0..SESSIONS)
            .map(|_| serving.open_session().unwrap())
            .collect();
        for turn in 0..TASKS_PER_SESSION {
            for (s, &id) in ids.iter().enumerate() {
                serving.submit(id, MIX[scripts[s][turn]].0).unwrap();
            }
        }
        serving.await_idle();
        ids.iter()
            .map(|&id| {
                serving
                    .finish(id)
                    .unwrap()
                    .completions
                    .iter()
                    .map(|c| serde_json::to_string(&c.output).unwrap())
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
