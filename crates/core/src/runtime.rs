//! The assembled runtime.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use blueprint_agents::AgentFactory;
use blueprint_coordinator::{
    CoordinatorDaemon, ExecutionError, ExecutionReport, MemoCache, OverrunPolicy, SchedulerMode,
    TaskCoordinator,
};
use blueprint_datastore::{
    DataSource, DocumentSource, FaultInjectedSource, GraphSource, InstrumentedSource, KvSource,
    RelationalSource,
};
use blueprint_hrdomain::{register_guardrails, register_hr_agents, HrConfig, HrDataset};
use blueprint_llmsim::{ModelProfile, ParametricSource, SimLlm};
use blueprint_observability::{
    MetricsRegistry, MetricsSnapshot, Observability, SimClock, Trace, Tracer,
};
use blueprint_optimizer::{Objective, QosConstraints};
use blueprint_planner::{DataPlanner, PlanError, TaskPlan, TaskPlanner};
use blueprint_registry::{AgentRegistry, DataRegistry};
use blueprint_resilience::{
    BreakerConfig, BreakerRegistry, DegradationLadder, FaultInjector, FaultPlan, RetryPolicy,
};
use blueprint_session::{Session, SessionManager};
use blueprint_streams::{Message, StreamStore};

/// Errors raised while assembling or driving the runtime.
#[derive(Debug)]
pub enum CoreError {
    /// Component wiring failed.
    Setup(String),
    /// Planning failed.
    Plan(PlanError),
    /// Coordination machinery failed.
    Execution(ExecutionError),
    /// Stream plumbing failed.
    Stream(blueprint_streams::StreamError),
    /// The serving runtime's session router refused an operation.
    Serving(blueprint_session::RouterError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Setup(msg) => write!(f, "setup failed: {msg}"),
            CoreError::Plan(e) => write!(f, "planning failed: {e}"),
            CoreError::Execution(e) => write!(f, "{e}"),
            CoreError::Stream(e) => write!(f, "stream error: {e}"),
            CoreError::Serving(e) => write!(f, "serving error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<PlanError> for CoreError {
    fn from(e: PlanError) -> Self {
        CoreError::Plan(e)
    }
}

impl From<ExecutionError> for CoreError {
    fn from(e: ExecutionError) -> Self {
        CoreError::Execution(e)
    }
}

impl From<blueprint_streams::StreamError> for CoreError {
    fn from(e: blueprint_streams::StreamError) -> Self {
        CoreError::Stream(e)
    }
}

impl From<blueprint_session::RouterError> for CoreError {
    fn from(e: blueprint_session::RouterError) -> Self {
        CoreError::Serving(e)
    }
}

/// Configures and assembles a [`Blueprint`].
pub struct BlueprintBuilder {
    hr_config: Option<HrConfig>,
    guardrails: bool,
    model: ModelProfile,
    extra_models: Vec<ModelProfile>,
    objective: Objective,
    constraints: QosConstraints,
    policy: OverrunPolicy,
    report_timeout: Duration,
    fault_plan: Option<FaultPlan>,
    retry: RetryPolicy,
    breaker_config: Option<BreakerConfig>,
    ladder: DegradationLadder,
    scheduler: SchedulerMode,
    memo_capacity: Option<usize>,
    adaptive: Option<f64>,
    tracing: bool,
    metrics: bool,
    serving: Option<(usize, usize)>,
}

impl Default for BlueprintBuilder {
    fn default() -> Self {
        BlueprintBuilder {
            hr_config: None,
            guardrails: false,
            model: ModelProfile::large(),
            extra_models: Vec::new(),
            objective: Objective::balanced(),
            constraints: QosConstraints::none(),
            policy: OverrunPolicy::default(),
            report_timeout: Duration::from_secs(10),
            fault_plan: None,
            retry: RetryPolicy::none(),
            breaker_config: None,
            ladder: DegradationLadder::new(),
            scheduler: SchedulerMode::default(),
            memo_capacity: None,
            adaptive: None,
            tracing: false,
            metrics: false,
            serving: None,
        }
    }
}

impl BlueprintBuilder {
    /// Generates and wires the YourJourney HR domain (data + agents).
    pub fn with_hr_domain(mut self, config: HrConfig) -> Self {
        self.hr_config = Some(config);
        self
    }

    /// Registers the guardrail modules (content moderation + fact
    /// verification, §III-A) as discoverable agents.
    pub fn with_guardrails(mut self) -> Self {
        self.guardrails = true;
        self
    }

    /// Sets the primary model tier.
    pub fn with_model(mut self, model: ModelProfile) -> Self {
        self.model = model;
        self
    }

    /// Registers an additional model tier as another parametric data source
    /// (gives the optimizer a real choice).
    pub fn with_extra_model(mut self, model: ModelProfile) -> Self {
        self.extra_models.push(model);
        self
    }

    /// Sets the planning objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the default QoS constraints for task execution.
    pub fn with_constraints(mut self, constraints: QosConstraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets the coordinator's overrun policy.
    pub fn with_policy(mut self, policy: OverrunPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets how long the coordinator waits for each agent report.
    pub fn with_report_timeout(mut self, timeout: Duration) -> Self {
        self.report_timeout = timeout;
        self
    }

    /// Arms deterministic fault injection across the whole runtime: stream
    /// fan-out, agent processors, model calls, and data sources.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the coordinator's retry policy for failed agent invocations.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Arms per-agent circuit breakers, shared by the factory (restart
    /// probing), the registry (routing), and every session's coordinator.
    pub fn with_circuit_breakers(mut self, config: BreakerConfig) -> Self {
        self.breaker_config = Some(config);
        self
    }

    /// Sets the degradation ladder (fallback agents, skippable nodes).
    pub fn with_degradation(mut self, ladder: DegradationLadder) -> Self {
        self.ladder = ladder;
        self
    }

    /// Selects how session coordinators walk plan DAGs (parallel ready-set
    /// scheduling by default; [`SchedulerMode::Sequential`] is the reference
    /// execution).
    pub fn with_scheduler(mut self, scheduler: SchedulerMode) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Enables memoization of deterministic agent invocations, shared across
    /// every session (capacity = max cached invocations, FIFO eviction).
    /// Only enable when registered agents are pure functions of their inputs
    /// — true for the simulated runtime unless fault injection is armed.
    pub fn with_memoization(mut self, capacity: usize) -> Self {
        self.memo_capacity = Some(capacity);
        self
    }

    /// Enables adaptive re-optimization on every session's coordinator: when
    /// observed spend drifts past `drift_threshold` × the estimate
    /// mid-flight, the coordinator re-optimizes the not-yet-dispatched
    /// suffix of the plan IR (e.g. downgrading a knowledge operator's model
    /// tier) against the remaining budget. One pass per execution.
    pub fn with_adaptive_replanning(mut self, drift_threshold: f64) -> Self {
        self.adaptive = Some(drift_threshold);
        self
    }

    /// Arms span tracing: every task execution records a trace tree stamped
    /// from the shared simulated clock (deterministic, byte-stable), and
    /// every stream publish and agent consume is recorded as a flow edge
    /// (see [`Trace::render_sequence`]).
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Configures the multi-session serving runtime: up to `max_sessions`
    /// concurrent sessions multiplexed over one shared agent pool, with at
    /// most `max_in_flight` tasks executing at once across all sessions.
    /// Obtain the runtime with [`Blueprint::serving`].
    pub fn with_serving(mut self, max_sessions: usize, max_in_flight: usize) -> Self {
        self.serving = Some((max_sessions, max_in_flight));
        self
    }

    /// Arms the metrics registry: named instruments meter stream publishes,
    /// agent invocations, retries, breaker trips, memo hits, budget debits,
    /// model calls, and data-source queries across the whole runtime.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Assembles the runtime.
    pub fn build(self) -> Result<Blueprint, CoreError> {
        // Tracing and metrics arm independently; spans are stamped from the
        // same simulated clock the streams database uses, so trace times line
        // up with message sequence times. The store carries the bundle, and
        // every component built on the store reports into it.
        let clock = SimClock::new();
        let observability = Observability {
            tracer: if self.tracing {
                Tracer::new(clock.clone())
            } else {
                Tracer::disarmed()
            },
            metrics: if self.metrics {
                MetricsRegistry::new()
            } else {
                MetricsRegistry::disarmed()
            },
        };
        let store = StreamStore::observed(clock, observability.clone());
        let factory = Arc::new(AgentFactory::new(store.clone()));
        let agent_registry = Arc::new(AgentRegistry::new());
        let data_registry = Arc::new(DataRegistry::new());

        let injector = self.fault_plan.map(|p| Arc::new(FaultInjector::new(p)));
        if let Some(inj) = &injector {
            store.set_fault_injector(Arc::clone(inj));
            factory.set_fault_injector(Arc::clone(inj));
        }
        let breakers = self
            .breaker_config
            .map(|cfg| Arc::new(BreakerRegistry::new(cfg)));
        if let Some(b) = &breakers {
            agent_registry.set_breakers(Arc::clone(b));
            factory.set_breakers(Arc::clone(b));
            if observability.metrics.is_armed() {
                b.set_metrics(&observability.metrics);
            }
        }
        // Storage-backed sources get their faults at the data-query site;
        // the primary model carries its own model-call faults. Metering
        // wraps outermost so injected outages count as query errors.
        let metrics = observability.metrics.clone();
        let wrap_source = |src: Arc<dyn DataSource>| -> Arc<dyn DataSource> {
            let src: Arc<dyn DataSource> = match &injector {
                Some(inj) => Arc::new(FaultInjectedSource::wrap(src, Arc::clone(inj))),
                None => src,
            };
            if metrics.is_armed() {
                Arc::new(InstrumentedSource::wrap(src, &metrics))
            } else {
                src
            }
        };

        let mut sim = SimLlm::new(self.model.clone());
        if let Some(inj) = &injector {
            sim = sim.with_faults(Arc::clone(inj));
        }
        if observability.metrics.is_armed() {
            sim.set_metrics(&observability.metrics);
        }
        let llm = Arc::new(sim);

        let mut data_planner = DataPlanner::new(Arc::clone(&data_registry), Arc::clone(&llm));
        data_planner.set_objective(self.objective);
        data_planner.set_constraints(self.constraints);

        let mut dataset = None;
        if let Some(config) = self.hr_config {
            let ds = Arc::new(HrDataset::generate(config));
            ds.register_assets(&data_registry)
                .map_err(|e| CoreError::Setup(e.to_string()))?;
            register_hr_agents(&factory, &agent_registry, Arc::clone(&ds), Arc::clone(&llm))
                .map_err(|e| CoreError::Setup(e.to_string()))?;
            data_planner.add_source(wrap_source(Arc::new(RelationalSource::new(
                "hr-db",
                Arc::clone(&ds.db),
            ))));
            data_planner.add_source(wrap_source(Arc::new(DocumentSource::new(
                "profiles",
                Arc::clone(&ds.profiles),
            ))));
            data_planner.add_source(wrap_source(Arc::new(GraphSource::new(
                "title-taxonomy",
                Arc::clone(&ds.taxonomy),
            ))));
            data_planner.add_source(wrap_source(Arc::new(KvSource::new(
                "hr-kv",
                Arc::clone(&ds.kv),
            ))));
            dataset = Some(ds);
        }
        if self.guardrails {
            register_guardrails(&factory, &agent_registry)
                .map_err(|e| CoreError::Setup(e.to_string()))?;
        }
        data_planner.add_source(Arc::new(ParametricSource::new(
            format!("gpt-{}", self.model.name.trim_start_matches("sim-")),
            Arc::clone(&llm),
        )));
        for extra in &self.extra_models {
            let extra_llm = SimLlm::new(extra.clone());
            if observability.metrics.is_armed() {
                extra_llm.set_metrics(&observability.metrics);
            }
            data_planner.add_source(Arc::new(ParametricSource::new(
                format!("gpt-{}", extra.name.trim_start_matches("sim-")),
                Arc::new(extra_llm),
            )));
        }

        let task_planner = Arc::new(TaskPlanner::new(
            Arc::clone(&agent_registry),
            Arc::clone(&llm),
        ));
        let sessions = Arc::new(SessionManager::new(store.clone()));

        Ok(Blueprint {
            store,
            factory,
            agent_registry,
            data_registry,
            llm,
            dataset,
            task_planner,
            data_planner: Arc::new(data_planner),
            sessions,
            constraints: self.constraints,
            policy: self.policy,
            report_timeout: self.report_timeout,
            fault_injector: injector,
            breakers,
            retry: self.retry,
            ladder: self.ladder,
            scheduler: self.scheduler,
            memo: self.memo_capacity.map(|cap| Arc::new(MemoCache::new(cap))),
            adaptive: self.adaptive,
            serving: self.serving,
        })
    }
}

/// The assembled compound-AI runtime.
pub struct Blueprint {
    pub(crate) store: StreamStore,
    pub(crate) factory: Arc<AgentFactory>,
    agent_registry: Arc<AgentRegistry>,
    data_registry: Arc<DataRegistry>,
    llm: Arc<SimLlm>,
    dataset: Option<Arc<HrDataset>>,
    pub(crate) task_planner: Arc<TaskPlanner>,
    data_planner: Arc<DataPlanner>,
    pub(crate) sessions: Arc<SessionManager>,
    pub(crate) constraints: QosConstraints,
    policy: OverrunPolicy,
    report_timeout: Duration,
    fault_injector: Option<Arc<FaultInjector>>,
    breakers: Option<Arc<BreakerRegistry>>,
    retry: RetryPolicy,
    ladder: DegradationLadder,
    scheduler: SchedulerMode,
    memo: Option<Arc<MemoCache>>,
    adaptive: Option<f64>,
    pub(crate) serving: Option<(usize, usize)>,
}

impl Blueprint {
    /// Starts building a runtime.
    pub fn builder() -> BlueprintBuilder {
        BlueprintBuilder::default()
    }

    /// The streams database.
    pub fn store(&self) -> &StreamStore {
        &self.store
    }

    /// The agent registry.
    pub fn agent_registry(&self) -> &Arc<AgentRegistry> {
        &self.agent_registry
    }

    /// The data registry.
    pub fn data_registry(&self) -> &Arc<DataRegistry> {
        &self.data_registry
    }

    /// The agent factory.
    pub fn factory(&self) -> &Arc<AgentFactory> {
        &self.factory
    }

    /// The task planner.
    pub fn task_planner(&self) -> &Arc<TaskPlanner> {
        &self.task_planner
    }

    /// The data planner.
    pub fn data_planner(&self) -> &Arc<DataPlanner> {
        &self.data_planner
    }

    /// The simulated LLM.
    pub fn llm(&self) -> &Arc<SimLlm> {
        &self.llm
    }

    /// The generated HR dataset, when the HR domain was wired.
    pub fn dataset(&self) -> Option<&Arc<HrDataset>> {
        self.dataset.as_ref()
    }

    /// The armed fault injector, when fault injection was requested.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.fault_injector.as_ref()
    }

    /// The shared circuit-breaker registry, when breakers were armed.
    pub fn breakers(&self) -> Option<&Arc<BreakerRegistry>> {
        self.breakers.as_ref()
    }

    /// The cross-session memoization cache, when memoization was enabled.
    pub fn memo_cache(&self) -> Option<&Arc<MemoCache>> {
        self.memo.as_ref()
    }

    /// The runtime's observability handles, carried by the store (disarmed
    /// no-ops unless [`BlueprintBuilder::with_tracing`] /
    /// [`BlueprintBuilder::with_metrics`] were requested).
    pub fn observability(&self) -> &Observability {
        self.store.observability()
    }

    /// Snapshot of the recorded trace so far: spans and flow edges (empty
    /// when tracing is off).
    pub fn trace(&self) -> Trace {
        self.observability().tracer.snapshot()
    }

    /// Snapshot of every instrument (empty when metrics are off).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.observability().metrics.snapshot()
    }

    /// Builds a task coordinator for `scope` with every configured knob
    /// (shared by [`Blueprint::start_session`] and the serving runtime).
    pub(crate) fn build_coordinator(&self, scope: String) -> TaskCoordinator {
        let mut coordinator =
            TaskCoordinator::new(self.store.clone(), scope, Arc::clone(&self.agent_registry))
                .with_data_planner(Arc::clone(&self.data_planner))
                .with_task_planner(Arc::clone(&self.task_planner))
                .with_policy(self.policy)
                .with_report_timeout(self.report_timeout)
                .with_retry_policy(self.retry.clone())
                .with_degradation(self.ladder.clone())
                .with_scheduler(self.scheduler);
        if let Some(b) = &self.breakers {
            coordinator = coordinator.with_breakers(Arc::clone(b));
        }
        if let Some(m) = &self.memo {
            coordinator = coordinator.with_memoization(Arc::clone(m));
        }
        if let Some(threshold) = self.adaptive {
            coordinator = coordinator.with_adaptive(threshold);
        }
        coordinator
    }

    /// Starts a session: creates its scope, spawns an instance of every
    /// registered agent into it, and attaches a coordinator + daemon.
    pub fn start_session(&self) -> Result<BlueprintSession, CoreError> {
        let session = self.sessions.start()?;
        let scope = session.scope().to_string();
        let mut instances = Vec::new();
        for name in self.factory.registered() {
            let id = self
                .factory
                .spawn(&name, &scope)
                .map_err(|e| CoreError::Setup(e.to_string()))?;
            session.add_agent(&name)?;
            instances.push(id);
        }
        let coordinator = Arc::new(self.build_coordinator(scope));
        let daemon = CoordinatorDaemon::spawn(
            Arc::clone(&coordinator),
            self.store.clone(),
            self.constraints,
        )?;
        Ok(BlueprintSession {
            session,
            coordinator,
            daemon,
            factory: Arc::clone(&self.factory),
            task_planner: Arc::clone(&self.task_planner),
            constraints: self.constraints,
            instances,
        })
    }
}

/// A live session: spawned agents + coordinator + daemon.
pub struct BlueprintSession {
    session: Session,
    coordinator: Arc<TaskCoordinator>,
    daemon: CoordinatorDaemon,
    factory: Arc<AgentFactory>,
    task_planner: Arc<TaskPlanner>,
    constraints: QosConstraints,
    instances: Vec<u64>,
}

impl BlueprintSession {
    /// The underlying session (scope, participants, activity).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The session's task coordinator.
    pub fn coordinator(&self) -> &Arc<TaskCoordinator> {
        &self.coordinator
    }

    /// Plans an utterance and returns the plan without executing it (the
    /// interactive-planning surface of §V-F).
    pub fn plan(&self, utterance: &str) -> Result<TaskPlan, CoreError> {
        Ok(self.task_planner.plan(utterance)?)
    }

    /// Centralized handling: plan the utterance, execute it under the
    /// session's constraints, and return the full report.
    pub fn handle(&self, utterance: &str) -> Result<ExecutionReport, CoreError> {
        let plan = self.task_planner.plan(utterance)?;
        Ok(self.coordinator.execute(&plan, self.constraints)?)
    }

    /// Executes an explicit plan (e.g. one refined interactively).
    pub fn execute(&self, plan: &TaskPlan) -> Result<ExecutionReport, CoreError> {
        Ok(self.coordinator.execute(plan, self.constraints)?)
    }

    /// Decentralized handling: publish tagged user text onto the session's
    /// user stream and let tag-triggered agents react (Fig 10 step 1).
    pub fn say(&self, text: &str) -> Result<(), CoreError> {
        self.session.publish(
            "user",
            Message::data(text)
                .with_tag("user-text")
                .from_producer("user"),
        )?;
        Ok(())
    }

    /// Injects a UI interaction event (Fig 9 step 1).
    pub fn click(
        &self,
        form: &blueprint_agents::UiForm,
        field: &str,
        value: serde_json::Value,
    ) -> Result<(), CoreError> {
        self.session
            .publish(&form.event_segment(), form.event(field, value))?;
        Ok(())
    }

    /// Number of plans the daemon has executed.
    pub fn plans_executed(&self) -> u64 {
        self.daemon.executed()
    }

    /// Stops the session's agents and daemon.
    pub fn shutdown(&mut self) {
        self.daemon.stop();
        for id in self.instances.drain(..) {
            self.factory.stop(id);
        }
    }
}

impl Drop for BlueprintSession {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_coordinator::Outcome;
    use blueprint_streams::{Selector, TagFilter};
    use serde_json::json;

    fn small_hr() -> HrConfig {
        HrConfig {
            seed: 5,
            jobs: 60,
            applicants: 50,
            companies: 8,
            applications: 100,
        }
    }

    fn blueprint() -> Blueprint {
        Blueprint::builder()
            .with_hr_domain(small_hr())
            .build()
            .unwrap()
    }

    #[test]
    fn builder_wires_everything() {
        let bp = blueprint();
        assert_eq!(bp.factory().registered().len(), 10);
        assert_eq!(bp.agent_registry().len(), 10);
        assert_eq!(bp.data_registry().len(), 8);
        assert!(bp.dataset().is_some());
        assert!(bp
            .data_planner()
            .source_names()
            .contains(&"gpt-large".to_string()));
    }

    #[test]
    fn bare_runtime_without_hr_builds() {
        let bp = Blueprint::builder().build().unwrap();
        assert_eq!(bp.factory().registered().len(), 0);
        assert!(bp.dataset().is_none());
        // No agents → planning fails cleanly.
        let session = bp.start_session().unwrap();
        assert!(session.plan("find me a job").is_err());
    }

    #[test]
    fn running_example_end_to_end_centralized() {
        let bp = blueprint();
        let session = bp.start_session().unwrap();
        let report = session
            .handle("I am looking for a data scientist position in SF bay area.")
            .unwrap();
        assert!(report.outcome.succeeded(), "outcome: {:?}", report.outcome);
        match &report.outcome {
            Outcome::Completed { output } => {
                let rendered = output["rendered"].as_str().unwrap();
                assert!(rendered.contains("item(s)"));
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        // Budget recorded both agent and data-plan costs.
        assert!(report.budget.spent_cost > 0.0);
        assert_eq!(report.node_results.len(), 3);
    }

    #[test]
    fn decentralized_conversation_fig10() {
        let bp = blueprint();
        let session = bp.start_session().unwrap();
        let sub = bp
            .store()
            .subscribe(Selector::AllStreams, TagFilter::any_of(["summary"]))
            .unwrap();
        session.say("How many applicants per city?").unwrap();
        let summary = sub.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(summary.payload.as_str().unwrap().contains("row"));
    }

    #[test]
    fn ui_event_drives_plan_fig9() {
        let bp = blueprint();
        let session = bp.start_session().unwrap();
        let form = blueprint_agents::UiForm::new("applicants", "Applicants");
        let sub = bp
            .store()
            .subscribe(Selector::AllStreams, TagFilter::any_of(["task-status"]))
            .unwrap();
        session.click(&form, "job", json!(1)).unwrap();
        let status = sub.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(status.control_op(), Some("task-completed"));
        for _ in 0..200 {
            if session.plans_executed() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(session.plans_executed(), 1);
    }

    #[test]
    fn sessions_are_isolated() {
        let bp = blueprint();
        let s1 = bp.start_session().unwrap();
        let s2 = bp.start_session().unwrap();
        assert_ne!(s1.session().scope(), s2.session().scope());
        assert_eq!(s1.session().participants().len(), 10);
    }

    #[test]
    fn plan_without_execution_is_inspectable() {
        let bp = blueprint();
        let session = bp.start_session().unwrap();
        let plan = session
            .plan("I am looking for a data scientist position in SF bay area.")
            .unwrap();
        let text = plan.render_text();
        assert!(text.contains("PROFILER"));
        assert!(text.contains("JOB-MATCHER"));
        assert!(text.contains("PRESENTER"));
    }

    #[test]
    fn shutdown_stops_agents() {
        let bp = blueprint();
        let mut session = bp.start_session().unwrap();
        assert_eq!(bp.factory().stats().running_instances, 10);
        session.shutdown();
        assert_eq!(bp.factory().stats().running_instances, 0);
    }

    #[test]
    fn budget_constraints_abort_expensive_tasks() {
        let bp = Blueprint::builder()
            .with_hr_domain(small_hr())
            .with_constraints(QosConstraints::none().with_max_cost(0.001))
            .build()
            .unwrap();
        let session = bp.start_session().unwrap();
        let report = session
            .handle("I am looking for a data scientist position in SF bay area.")
            .unwrap();
        assert!(matches!(report.outcome, Outcome::Aborted { .. }));
    }

    #[test]
    fn finished_tasks_leave_no_subscriptions_behind() {
        let bp = blueprint();
        let session = bp.start_session().unwrap();
        let before = bp.store().stats().active_subscriptions;
        for _ in 0..5 {
            let report = session
                .handle("I am looking for a data scientist position in SF bay area.")
                .unwrap();
            assert!(report.outcome.succeeded(), "outcome: {:?}", report.outcome);
        }
        // Each node driver's report subscription unregisters when the
        // driver finishes.
        assert_eq!(bp.store().stats().active_subscriptions, before);
    }

    #[test]
    fn guardrails_register_when_requested() {
        let bp = Blueprint::builder()
            .with_hr_domain(small_hr())
            .with_guardrails()
            .build()
            .unwrap();
        assert!(bp.agent_registry().contains("content-moderator"));
        assert!(bp.agent_registry().contains("fact-verifier"));
        // A session spawns them like any other agent and they serve work.
        let session = bp.start_session().unwrap();
        assert!(session
            .session()
            .participants()
            .contains(&"content-moderator".to_string()));
    }

    #[test]
    fn resilience_wiring_reaches_every_layer() {
        let bp = Blueprint::builder()
            .with_hr_domain(small_hr())
            .with_fault_plan(FaultPlan::none(42))
            .with_circuit_breakers(BreakerConfig::default())
            .with_retry_policy(RetryPolicy::standard(42))
            .build()
            .unwrap();
        assert!(bp.fault_injector().is_some());
        assert!(bp.breakers().is_some());
        assert!(bp.store().fault_injector().is_some());
        assert!(bp.llm().fault_injector().is_some());
        // A zero-rate plan perturbs nothing: the running example completes
        // and the injector log stays empty.
        let session = bp.start_session().unwrap();
        let report = session
            .handle("I am looking for a data scientist position in SF bay area.")
            .unwrap();
        assert!(report.outcome.succeeded(), "outcome: {:?}", report.outcome);
        assert!(report.degradations.is_empty());
        assert_eq!(bp.fault_injector().unwrap().total(), 0);
    }

    #[test]
    fn observability_wiring_reaches_every_layer() {
        let bp = Blueprint::builder()
            .with_hr_domain(small_hr())
            .with_tracing()
            .with_metrics()
            .build()
            .unwrap();
        assert!(bp.observability().is_armed());
        let session = bp.start_session().unwrap();
        let report = session
            .handle("I am looking for a data scientist position in SF bay area.")
            .unwrap();
        assert!(report.outcome.succeeded(), "outcome: {:?}", report.outcome);

        // Metrics reached every instrumented layer the running example touches.
        let snap = bp.metrics();
        assert!(snap.counter("blueprint.streams.publishes") > 0);
        assert_eq!(snap.counter("blueprint.agents.invocations"), 3);
        assert_eq!(snap.counter("blueprint.coordinator.dispatches"), 3);
        assert!(snap.counter("blueprint.llmsim.calls") > 0);
        assert!(snap.counter("blueprint.datastore.queries") > 0);
        assert!(snap.counter("blueprint.optimizer.budget_debits") > 0);

        // The trace is one tree: a task root whose node spans follow the
        // 3-node plan, each with a child invoke span.
        let trace = bp.trace();
        let roots = trace.roots();
        assert_eq!(roots.len(), 1, "trace: {}", trace.render_text());
        assert!(roots[0].name.starts_with("task:"));
        let nodes = trace.children_of(roots[0].id);
        assert_eq!(nodes.len(), 1, "chain plan: one root node");
        assert!(trace.find("invoke:profiler").is_some());
    }

    #[test]
    fn disarmed_runtime_records_nothing() {
        let bp = blueprint();
        let session = bp.start_session().unwrap();
        let report = session
            .handle("I am looking for a data scientist position in SF bay area.")
            .unwrap();
        assert!(report.outcome.succeeded());
        assert!(bp.trace().spans.is_empty());
        assert!(bp.trace().flows.is_empty());
        assert!(bp.metrics().counters.is_empty());
    }

    #[test]
    fn extra_models_appear_as_sources() {
        let bp = Blueprint::builder()
            .with_hr_domain(small_hr())
            .with_extra_model(ModelProfile::tiny())
            .build()
            .unwrap();
        let names = bp.data_planner().source_names();
        assert!(names.contains(&"gpt-large".to_string()));
        assert!(names.contains(&"gpt-tiny".to_string()));
    }
}
