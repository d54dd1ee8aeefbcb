//! Multi-session serving: one shared agent pool, many concurrent sessions.
//!
//! [`Blueprint::start_session`] spawns a private instance of every registered
//! agent, which is the right shape for a handful of interactive sessions but
//! not for serving hundreds: agent threads multiply with sessions while the
//! agents themselves are stateless processors. The [`ServingRuntime`] instead
//! spawns the agent pool **once** into the shared [`POOL_SCOPE`] and gives
//! every session its own lightweight [`TaskCoordinator`] that routes
//! instructions to the pool (via
//! [`TaskCoordinator::with_instruction_scope`]) while keeping outputs,
//! status streams, and dead-letter quarantine inside the session's own
//! scope. Admission, per-session budget isolation, fair round-robin
//! dispatch, and the bounded global in-flight cap come from the
//! [`SessionRouter`].
//!
//! Correlation works because instructions carry their session-scoped
//! `output_stream` explicitly and reports land on `pool:reports` tagged with
//! the globally-unique `task:<id>`, so concurrent coordinators never steal
//! each other's reports.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use blueprint_coordinator::{ExecutionReport, Outcome, TaskCoordinator};
use blueprint_optimizer::QosConstraints;
use blueprint_planner::TaskPlan;
use blueprint_session::{JobOutcome, ServingConfig, SessionJob, SessionReport, SessionRouter};
use serde_json::{json, Value};

use crate::runtime::{Blueprint, CoreError};

/// Scope the shared agent pool lives in. Instructions from every session's
/// coordinator are published to `pool:instructions`; reports come back on
/// `pool:reports`.
pub const POOL_SCOPE: &str = "pool";

struct Slot {
    coordinator: Arc<TaskCoordinator>,
    scope: String,
}

/// A serving runtime: shared agent pool + session router + per-session
/// coordinators. Obtained from [`Blueprint::serving`] after configuring
/// [`crate::BlueprintBuilder::with_serving`].
pub struct ServingRuntime<'a> {
    blueprint: &'a Blueprint,
    router: SessionRouter,
    slots: Mutex<HashMap<u64, Slot>>,
    pool_instances: Vec<u64>,
}

impl Blueprint {
    /// Starts the multi-session serving runtime: spawns one instance of every
    /// registered agent into the shared [`POOL_SCOPE`] and arms the session
    /// router with the configured `(max_sessions, max_in_flight)` caps.
    /// Errors unless [`crate::BlueprintBuilder::with_serving`] was called.
    pub fn serving(&self) -> Result<ServingRuntime<'_>, CoreError> {
        let (max_sessions, max_in_flight) = self.serving.ok_or_else(|| {
            CoreError::Setup(
                "serving not configured: call with_serving(max_sessions, max_in_flight)".into(),
            )
        })?;
        let mut pool_instances = Vec::new();
        for name in self.factory.registered() {
            let id = self
                .factory
                .spawn(&name, POOL_SCOPE)
                .map_err(|e| CoreError::Setup(e.to_string()))?;
            pool_instances.push(id);
        }
        let cfg = ServingConfig {
            max_sessions,
            max_in_flight,
            session_constraints: self.constraints,
        };
        let router = SessionRouter::new(cfg, self.observability());
        Ok(ServingRuntime {
            blueprint: self,
            router,
            slots: Mutex::new(HashMap::new()),
            pool_instances,
        })
    }
}

impl ServingRuntime<'_> {
    /// Admits a session under the blueprint's default QoS constraints and
    /// returns its id.
    pub fn open_session(&self) -> Result<u64, CoreError> {
        self.open_session_with(self.blueprint.constraints)
    }

    /// Admits a session with an explicit per-session budget. The router
    /// enforces admission control; on rejection the freshly-minted scope is
    /// retired again so nothing leaks.
    pub fn open_session_with(&self, constraints: QosConstraints) -> Result<u64, CoreError> {
        let session = self.blueprint.sessions.start()?;
        let id = session.id();
        if let Err(e) = self.router.open_session_with(id, constraints) {
            self.blueprint.sessions.retire(id);
            return Err(e.into());
        }
        let scope = session.scope().to_string();
        let coordinator = Arc::new(
            self.blueprint
                .build_coordinator(scope.clone())
                .with_instruction_scope(POOL_SCOPE),
        );
        self.slots.lock().insert(id, Slot { coordinator, scope });
        Ok(id)
    }

    /// Plans an utterance and queues it on the session's lane. Returns the
    /// task id; the result lands in the session's report at
    /// [`ServingRuntime::finish`].
    pub fn submit(&self, session: u64, utterance: &str) -> Result<String, CoreError> {
        let plan = self.blueprint.task_planner.plan(utterance)?;
        self.submit_plan(session, plan)
    }

    /// Queues an explicit plan on the session's lane.
    pub fn submit_plan(&self, session: u64, plan: TaskPlan) -> Result<String, CoreError> {
        let coordinator = {
            let slots = self.slots.lock();
            let slot = slots
                .get(&session)
                .ok_or(blueprint_session::RouterError::UnknownSession(session))?;
            Arc::clone(&slot.coordinator)
        };
        self.blueprint.sessions.touch(session);
        let task_id = plan.task_id.clone();
        let constraints = self.blueprint.constraints;
        let job: SessionJob = Box::new(move || match coordinator.execute(&plan, constraints) {
            Ok(report) => JobOutcome {
                ok: report.outcome.succeeded(),
                cost: report.budget.spent_cost,
                latency_micros: report.budget.spent_latency_micros,
                accuracy: report.budget.accuracy_so_far,
                output: outcome_json(&report),
            },
            Err(e) => JobOutcome {
                ok: false,
                cost: 0.0,
                latency_micros: 0,
                accuracy: 0.0,
                output: json!({ "error": e.to_string() }),
            },
        });
        self.router.submit(session, task_id.clone(), job)?;
        Ok(task_id)
    }

    /// Blocks until every queued task of every session has completed.
    pub fn await_idle(&self) {
        self.router.wait_idle();
    }

    /// Drains the session's lane, closes it, reaps its streams from the
    /// store, and returns the per-session report.
    pub fn finish(&self, session: u64) -> Result<SessionReport, CoreError> {
        let report = self.router.close_session(session)?;
        self.slots.lock().remove(&session);
        self.blueprint.sessions.retire(session);
        Ok(report)
    }

    /// The session router (dispatch log, budgets, gauges).
    pub fn router(&self) -> &SessionRouter {
        &self.router
    }

    /// The scope of an open session.
    pub fn session_scope(&self, session: u64) -> Option<String> {
        self.slots.lock().get(&session).map(|s| s.scope.clone())
    }

    /// Sessions currently admitted.
    pub fn active_sessions(&self) -> usize {
        self.router.active_sessions()
    }

    /// Stops the router workers and the shared agent pool. Called
    /// automatically on drop.
    pub fn shutdown(&mut self) {
        self.router.shutdown();
        for id in self.pool_instances.drain(..) {
            self.blueprint.factory.stop(id);
        }
    }
}

impl Drop for ServingRuntime<'_> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Flattens an execution outcome into the JSON value carried on the session's
/// completion record. Failures record whether the node was actually attempted
/// (an attempted failure implies a quarantined dead-letter; an
/// input-resolution failure never issued an instruction), and replans nest
/// their replacement's outcome under `"outcome"` — both so callers that only
/// see completion records can audit the complete-or-quarantined invariant.
fn outcome_json(report: &ExecutionReport) -> Value {
    match &report.outcome {
        Outcome::Completed { output } => output.clone(),
        Outcome::Aborted { reason } => json!({ "aborted": reason }),
        Outcome::Failed { node, error } => {
            let attempted = report.node_results.iter().any(|n| n.node == *node && !n.ok);
            json!({ "failed": node, "error": error, "attempted": attempted })
        }
        Outcome::Replanned { reason, inner } => {
            json!({ "replanned": reason, "outcome": outcome_json(inner) })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_hrdomain::HrConfig;
    use blueprint_session::Disposition;

    const UTTERANCE: &str = "I am looking for a data scientist position in SF bay area.";

    fn small_hr() -> HrConfig {
        HrConfig {
            seed: 5,
            jobs: 60,
            applicants: 50,
            companies: 8,
            applications: 100,
        }
    }

    fn serving_blueprint(max_sessions: usize, max_in_flight: usize) -> Blueprint {
        Blueprint::builder()
            .with_hr_domain(small_hr())
            .with_serving(max_sessions, max_in_flight)
            .with_metrics()
            .build()
            .unwrap()
    }

    #[test]
    fn serving_requires_the_builder_knob() {
        let bp = Blueprint::builder()
            .with_hr_domain(small_hr())
            .build()
            .unwrap();
        assert!(matches!(bp.serving(), Err(CoreError::Setup(_))));
    }

    #[test]
    fn pool_is_spawned_once_regardless_of_session_count() {
        let bp = serving_blueprint(8, 2);
        let serving = bp.serving().unwrap();
        let pooled = bp.factory().stats().running_instances;
        assert_eq!(pooled, 10, "one instance per registered agent");
        for _ in 0..4 {
            serving.open_session().unwrap();
        }
        assert_eq!(
            bp.factory().stats().running_instances,
            pooled,
            "opening sessions must not spawn more agents"
        );
    }

    #[test]
    fn serving_session_completes_the_running_example() {
        let bp = serving_blueprint(4, 2);
        let serving = bp.serving().unwrap();
        let s = serving.open_session().unwrap();
        let task = serving.submit(s, UTTERANCE).unwrap();
        serving.await_idle();
        let report = serving.finish(s).unwrap();
        assert_eq!(report.completions.len(), 1);
        let done = &report.completions[0];
        assert_eq!(done.label, task);
        assert!(matches!(done.disposition, Disposition::Completed));
        let rendered = done.output["rendered"].as_str().unwrap();
        assert!(rendered.contains("item(s)"));
        assert!(report.budget.spent_cost > 0.0);
    }

    #[test]
    fn concurrent_sessions_share_the_pool_and_stay_isolated() {
        let bp = serving_blueprint(8, 4);
        let serving = bp.serving().unwrap();
        let ids: Vec<u64> = (0..4).map(|_| serving.open_session().unwrap()).collect();
        for &s in &ids {
            serving.submit(s, UTTERANCE).unwrap();
        }
        serving.await_idle();
        for &s in &ids {
            let report = serving.finish(s).unwrap();
            assert_eq!(report.completions.len(), 1, "session {s}");
            assert!(
                matches!(report.completions[0].disposition, Disposition::Completed),
                "session {s}: {:?}",
                report.completions[0].output
            );
        }
    }

    #[test]
    fn finish_reaps_the_session_scope_from_the_store() {
        let bp = serving_blueprint(4, 2);
        let serving = bp.serving().unwrap();
        let s = serving.open_session().unwrap();
        let scope = serving.session_scope(s).unwrap();
        serving.submit(s, UTTERANCE).unwrap();
        serving.await_idle();
        assert!(
            !bp.store().list_streams(Some(&scope)).is_empty(),
            "task streams exist before finish"
        );
        serving.finish(s).unwrap();
        assert!(
            bp.store().list_streams(Some(&scope)).is_empty(),
            "finish reaps session streams"
        );
        assert!(serving.session_scope(s).is_none());
    }

    #[test]
    fn admission_control_is_enforced_and_rejection_leaks_nothing() {
        let bp = serving_blueprint(2, 1);
        let serving = bp.serving().unwrap();
        serving.open_session().unwrap();
        serving.open_session().unwrap();
        let before = bp.sessions.live_sessions().len();
        assert!(matches!(serving.open_session(), Err(CoreError::Serving(_))));
        assert_eq!(bp.sessions.live_sessions().len(), before);
        assert_eq!(serving.active_sessions(), 2);
    }

    #[test]
    fn per_session_budget_rejects_only_the_overspender() {
        let bp = serving_blueprint(4, 2);
        let serving = bp.serving().unwrap();
        // Tight budget: the first task's spend exhausts it, the second is
        // rejected without running. The sibling session is untouched.
        let tight = serving
            .open_session_with(QosConstraints::none().with_max_cost(1e-9))
            .unwrap();
        let roomy = serving.open_session().unwrap();
        serving.submit(tight, UTTERANCE).unwrap();
        serving.submit(tight, UTTERANCE).unwrap();
        serving.submit(roomy, UTTERANCE).unwrap();
        serving.await_idle();
        let tight_report = serving.finish(tight).unwrap();
        assert_eq!(tight_report.rejected, 1, "second task rejected");
        assert!(matches!(
            tight_report.completions[1].disposition,
            Disposition::Rejected
        ));
        let roomy_report = serving.finish(roomy).unwrap();
        assert!(matches!(
            roomy_report.completions[0].disposition,
            Disposition::Completed
        ));
    }

    #[test]
    fn serving_metrics_gauges_settle_to_zero() {
        let bp = serving_blueprint(4, 2);
        let serving = bp.serving().unwrap();
        let s = serving.open_session().unwrap();
        serving.submit(s, UTTERANCE).unwrap();
        serving.await_idle();
        serving.finish(s).unwrap();
        let snap = bp.metrics();
        assert_eq!(snap.gauge("blueprint.session.active"), 0);
        assert_eq!(snap.gauge("blueprint.session.queue_depth"), 0);
        assert_eq!(snap.counter("blueprint.session.dispatches"), 1);
    }
}
