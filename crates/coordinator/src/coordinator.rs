//! The task coordinator's execution engine.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use blueprint_agents::{AgentReport, DataType, ExecuteAgent, Inputs};
use blueprint_datastore::DataValue;
use blueprint_observability::{Counter, Gauge, Observability, SpanHandle, SpanId};
use blueprint_optimizer::{Budget, BudgetStatus, Objective, QosConstraints};
use blueprint_planner::{DataPlanner, IrBinding, IrNode, PlanIr, Schedule, TaskPlan, TaskPlanner};
use blueprint_registry::AgentRegistry;
use blueprint_resilience::{BreakerRegistry, DegradationLadder, DegradationNote, RetryPolicy};
use blueprint_streams::{
    DeadLetterQueue, Message, MessageId, Selector, StreamError, StreamId, StreamStore,
    Subscription, Tag, TagFilter, TASK_SEGMENT,
};

use crate::memo::{MemoCache, MemoEntry};
use crate::scheduler::{Completion, Halt, Rules, Scheduler};

/// Hard failures of the coordination machinery itself (stream plumbing);
/// task-level problems are reported through [`Outcome`] instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionError(pub String);

impl std::fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "coordination failed: {}", self.0)
    }
}

impl std::error::Error for ExecutionError {}

/// What to do when the projected budget exceeds the constraints (§V-H:
/// "abort the current plan ... trigger the task planner to replan ... or
/// prompt the user to confirm").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverrunPolicy {
    /// Continue executing (the "user confirmed" path).
    Continue,
    /// Abort the plan.
    #[default]
    Abort,
    /// Ask the task planner for a cheaper plan once, then continue.
    Replan,
}

/// How the coordinator walks the plan DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerMode {
    /// One node at a time in topological order — the reference execution
    /// that the parallel scheduler is proven equivalent to.
    Sequential,
    /// Dependency-counted ready-set scheduling: every node whose inputs are
    /// satisfied is dispatched concurrently (§V: independent plan branches
    /// run on the agents' worker pools in parallel), reports are correlated
    /// out of order, and results are merged back into topological order.
    Parallel {
        /// Concurrency cap; `0` means unbounded.
        max_in_flight: usize,
    },
}

impl Default for SchedulerMode {
    fn default() -> Self {
        SchedulerMode::Parallel { max_in_flight: 0 }
    }
}

/// Record of one mid-flight tier switch applied by adaptive
/// re-optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct ReoptimizationNote {
    /// The IR node whose implementation changed.
    pub node: String,
    /// Tier before the switch.
    pub from_tier: String,
    /// Tier after the switch.
    pub to_tier: String,
    /// Why the coordinator re-optimized.
    pub reason: String,
}

/// Per-execution memoization savings (Σ over cache hits of the cost and
/// latency the original invocations charged).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheSavings {
    /// Nodes answered from the cache.
    pub hits: u64,
    /// Cost avoided.
    pub cost_saved: f64,
    /// Latency avoided (µs).
    pub latency_saved_micros: u64,
}

/// Per-node execution record.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeResult {
    /// Plan node id.
    pub node: String,
    /// Executing agent.
    pub agent: String,
    /// Whether the agent reported success.
    pub ok: bool,
    /// Actual cost charged.
    pub cost: f64,
    /// Actual latency charged (µs).
    pub latency_micros: u64,
    /// Error text on failure.
    pub error: Option<String>,
    /// How many invocation attempts the node took (0 when it never ran:
    /// skipped under pressure, served from the memo cache, or rejected by an
    /// open circuit).
    pub attempts: u32,
    /// True when the node was answered from the memoization cache without
    /// invoking the agent.
    pub cached: bool,
}

/// Terminal state of a task execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Every node ran; `output` is the final node's outputs.
    Completed {
        /// The final node's outputs (JSON object keyed by output param).
        output: Value,
    },
    /// The budget was exceeded (actuals or projection under `Abort`).
    Aborted {
        /// Human-readable reason.
        reason: String,
    },
    /// A node failed and no replan was possible.
    Failed {
        /// The failing node id.
        node: String,
        /// The failure.
        error: String,
    },
    /// The plan was replaced mid-flight; `inner` is the replacement's report.
    Replanned {
        /// Why the coordinator replanned.
        reason: String,
        /// The replacement execution.
        inner: Box<ExecutionReport>,
    },
}

impl Outcome {
    /// True for `Completed` (directly or through replans).
    pub fn succeeded(&self) -> bool {
        match self {
            Outcome::Completed { .. } => true,
            Outcome::Replanned { inner, .. } => inner.outcome.succeeded(),
            _ => false,
        }
    }
}

/// Full record of one task execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// The executed plan's task id.
    pub task_id: String,
    /// Terminal state.
    pub outcome: Outcome,
    /// The final budget ledger.
    pub budget: Budget,
    /// Per-node records, merged back into topological order (the parallel
    /// scheduler completes nodes out of order; the report is deterministic).
    pub node_results: Vec<NodeResult>,
    /// Degradation decisions taken during execution (fallbacks, skips).
    pub degradations: Vec<DegradationNote>,
    /// Memoization savings realized during this execution.
    pub cache: CacheSavings,
    /// Mid-flight tier switches applied by adaptive re-optimization.
    pub reoptimizations: Vec<ReoptimizationNote>,
}

/// Executes task plans over the streams fabric.
pub struct TaskCoordinator {
    store: StreamStore,
    scope: String,
    instr_scope: Option<String>,
    registry: Arc<AgentRegistry>,
    data_planner: Option<Arc<DataPlanner>>,
    task_planner: Option<Arc<TaskPlanner>>,
    policy: OverrunPolicy,
    report_timeout: Duration,
    retry: RetryPolicy,
    breakers: Option<Arc<BreakerRegistry>>,
    ladder: DegradationLadder,
    scheduler: SchedulerMode,
    memo: Option<Arc<MemoCache>>,
    /// Adaptive re-optimization's drift threshold, when enabled.
    adaptive: Option<f64>,
    epoch: std::time::Instant,
    obs: Observability,
    instruments: CoordInstruments,
}

/// Named instruments the coordinator reports into, resolved once from the
/// store's registry in [`TaskCoordinator::new`] so the scheduler's hot loop
/// pays one atomic op per event.
struct CoordInstruments {
    dispatches: Counter,
    budget_debits: Counter,
    memo_hits: Counter,
    retries: Counter,
    queue_depth: Gauge,
    in_flight: Gauge,
}

/// The inputs of a node's instruction. The resolved inputs are owned until
/// the first publish moves them into the instruction; after that the
/// published message's typed body is the one copy, and a retry, fallback or
/// quarantine takes its inputs from it (row batches are shared, not copied).
enum Instruction {
    /// Not published yet.
    Pending(Inputs),
    /// The last instruction published for the node.
    Published(Arc<Message>),
}

impl Instruction {
    /// The inputs, moved out if never published, else taken from the
    /// published message's body. Leaves an empty pending bag behind; the
    /// caller publishes a new instruction or is done with the node.
    fn take_inputs(&mut self) -> Inputs {
        match std::mem::replace(self, Instruction::Pending(Inputs::new())) {
            Instruction::Pending(inputs) => inputs,
            Instruction::Published(msg) => ExecuteAgent::of(&msg)
                .expect("published instructions carry their body")
                .inputs
                .clone(),
        }
    }
}

/// How one run of an agent (its attempts under the retry policy) ended.
struct NodeAttempt {
    /// The last report received (None on timeout or open circuit).
    report: Option<AgentReport>,
    /// Attempts consumed.
    attempts: u32,
    /// Set when the run ultimately failed.
    error: Option<String>,
}

/// What a dispatched node waits for.
#[derive(Debug, Clone, Copy)]
enum Wait {
    /// The report answering instruction `id`, until `deadline`.
    Report { id: MessageId, deadline: Instant },
    /// A retry's backoff, until `until`.
    Backoff { until: Instant },
}

impl Wait {
    fn wake_at(&self) -> Instant {
        match *self {
            Wait::Report { deadline, .. } => deadline,
            Wait::Backoff { until } => until,
        }
    }
}

/// What woke the event loop, by index into the waits it was given.
#[derive(Debug)]
enum Wake {
    /// A report answering the instruction that wait awaits.
    Report(usize, AgentReport),
    /// That wait's deadline or backoff passed.
    Timer(usize),
}

/// One dispatched node between its dispatch and its terminal state. It is
/// owned by the event loop; the node's span stays open for as long.
struct Flight<'ir> {
    pos: usize,
    node: &'ir IrNode,
    /// The agent the current run invokes: the planned one, or its fallback.
    agent: String,
    /// The planned agent's failed run, kept while its fallback runs.
    primary: Option<NodeAttempt>,
    /// Attempts of the current run so far, and the backoff it has spent.
    attempts: u32,
    spent_delay: u64,
    instruction: Instruction,
    /// Meaningful while the flight is parked in the loop's in-flight set.
    wait: Wait,
    memo_key: Option<String>,
    span: SpanHandle,
}

impl Flight<'_> {
    /// The agent the plan assigned to the node.
    fn planned(&self) -> &str {
        &self.node.agent
    }
}

/// The task an execution (and every replan nested in it) belongs to.
struct TaskContext {
    /// The task's id: its instructions carry it, so every report of the
    /// task, replans included, is tagged `task:<id>`.
    id: String,
    /// The task's one report subscription.
    reports: Subscription,
    /// The task's root span.
    span: Option<SpanId>,
}

impl TaskCoordinator {
    /// How long a coordinator waits for each agent report unless
    /// [`TaskCoordinator::with_report_timeout`] says otherwise.
    pub const DEFAULT_REPORT_TIMEOUT: Duration = Duration::from_secs(10);

    /// The session scope this coordinator serves.
    pub fn scope(&self) -> &str {
        &self.scope
    }

    /// Creates a coordinator for a session scope. Its telemetry is the
    /// store's: executions record a `task:<task_id>` root span with one
    /// child span per plan node (parented along plan-DAG edges) into the
    /// store's tracer, and report into the `blueprint.coordinator.*` and
    /// `blueprint.resilience.retries` instruments of its registry.
    pub fn new(store: StreamStore, scope: impl Into<String>, registry: Arc<AgentRegistry>) -> Self {
        let obs = store.observability().clone();
        let instruments = CoordInstruments {
            dispatches: obs.metrics.counter("blueprint.coordinator.dispatches"),
            budget_debits: obs.metrics.counter("blueprint.optimizer.budget_debits"),
            memo_hits: obs.metrics.counter("blueprint.coordinator.memo_hits"),
            retries: obs.metrics.counter("blueprint.resilience.retries"),
            queue_depth: obs.metrics.gauge("blueprint.coordinator.queue_depth"),
            in_flight: obs.metrics.gauge("blueprint.coordinator.in_flight"),
        };
        TaskCoordinator {
            store,
            scope: scope.into(),
            instr_scope: None,
            registry,
            data_planner: None,
            task_planner: None,
            policy: OverrunPolicy::default(),
            report_timeout: Self::DEFAULT_REPORT_TIMEOUT,
            retry: RetryPolicy::none(),
            breakers: None,
            ladder: DegradationLadder::new(),
            scheduler: SchedulerMode::default(),
            memo: None,
            adaptive: None,
            epoch: std::time::Instant::now(),
            obs,
            instruments,
        }
    }

    /// Routes agent instructions (and the matching report subscription) to a
    /// different scope than the session's — the serving runtime points every
    /// session's coordinator at one shared agent-pool scope while task
    /// output/status streams stay under the session. Defaults to the session
    /// scope itself.
    pub fn with_instruction_scope(mut self, scope: impl Into<String>) -> Self {
        self.instr_scope = Some(scope.into());
        self
    }

    /// The scope agents listen on for instructions and publish reports to.
    pub fn instruction_scope(&self) -> &str {
        self.instr_scope.as_deref().unwrap_or(&self.scope)
    }

    /// Attaches the data planner (enables `FromData` bindings and input
    /// transformations).
    pub fn with_data_planner(mut self, dp: Arc<DataPlanner>) -> Self {
        self.data_planner = Some(dp);
        self
    }

    /// Attaches the task planner (enables replanning).
    pub fn with_task_planner(mut self, tp: Arc<TaskPlanner>) -> Self {
        self.task_planner = Some(tp);
        self
    }

    /// Sets the overrun policy.
    pub fn with_policy(mut self, policy: OverrunPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets how long to wait for each agent report.
    pub fn with_report_timeout(mut self, timeout: Duration) -> Self {
        self.report_timeout = timeout;
        self
    }

    /// Sets the retry policy for failed or timed-out agent invocations.
    /// Backoff delays are debited from the task's latency budget.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches per-agent circuit breakers: open circuits fail fast and are
    /// excluded from replans.
    pub fn with_breakers(mut self, breakers: Arc<BreakerRegistry>) -> Self {
        self.breakers = Some(breakers);
        self
    }

    /// Attaches a degradation ladder: failed agents fall back to cheaper
    /// substitutes at a recorded accuracy penalty, and skippable nodes are
    /// dropped under budget pressure.
    pub fn with_degradation(mut self, ladder: DegradationLadder) -> Self {
        self.ladder = ladder;
        self
    }

    /// Selects how the plan DAG is walked (parallel ready-set scheduling by
    /// default; [`SchedulerMode::Sequential`] is the reference execution).
    pub fn with_scheduler(mut self, scheduler: SchedulerMode) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Attaches a memoization cache for deterministic agent invocations.
    /// Share one cache across coordinators to get cross-session hits; only
    /// enable when every registered agent is a pure function of its inputs.
    pub fn with_memoization(mut self, cache: Arc<MemoCache>) -> Self {
        self.memo = Some(cache);
        self
    }

    /// Enables adaptive re-optimization: when the observed cost or latency
    /// of completed nodes drifts past `drift_threshold` × their estimate,
    /// the coordinator pauses admission, re-selects the implementation of
    /// data operators owned by not-yet-dispatched nodes against the
    /// *remaining* budget, and resumes — at most once per execution.
    pub fn with_adaptive(mut self, drift_threshold: f64) -> Self {
        self.adaptive = Some(drift_threshold);
        self
    }

    /// Micros since this coordinator was built (drives breaker cooldowns).
    fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Executes a task plan under the given constraints. The plan — like
    /// every internal replan — is lowered and optimized by
    /// [`TaskCoordinator::lower`], and the IR is what runs: one DAG reaches
    /// the optimizer and the coordinator.
    ///
    /// The whole execution runs on the calling thread: one event loop
    /// dispatches nodes, publishes their instructions, and waits on the
    /// task's one report subscription for reports, deadlines and retry
    /// backoffs. The agents themselves run on their hosts' worker pools.
    pub fn execute(
        &self,
        plan: &TaskPlan,
        constraints: QosConstraints,
    ) -> Result<ExecutionReport, ExecutionError> {
        let ir = self.lower(plan, &constraints)?;
        let budget = Budget::new(constraints);
        // One root span per task; node spans hang off it along plan-DAG
        // edges. Replanned inner executions nest under the same root.
        let mut task_span = self
            .obs
            .tracer
            .span("coordinator", format_args!("task:{}", ir.task_id));
        task_span.attr("utterance", &ir.goal);
        // Subscribe before any instruction is issued so no report can be
        // missed. Agents report to `<their scope>:reports`, so watching that
        // one stream keeps the subscription on its own shard.
        let reports = self
            .store
            .subscribe(
                Selector::Stream(format!("{}:reports", self.instruction_scope()).into()),
                TagFilter::any_of([format!("task:{}", ir.task_id)]),
            )
            .map_err(|e| ExecutionError(e.to_string()))?;
        let task = TaskContext {
            id: ir.task_id.clone(),
            reports,
            span: task_span.id(),
        };
        let result = self.execute_inner(ir, budget, 0, &task);
        task_span.end();
        result
    }

    /// The one lowering and optimization of every IR this coordinator runs
    /// (the task's plan and each replan): [`PlanIr::from_task_plan`], then
    /// [`PlanIr::optimize`] for the data planner's objective under
    /// `constraints`, the budget's headroom. An IR with no feasible
    /// assignment runs as lowered, and the budget enforces the constraints.
    ///
    /// With a data planner, a JSON-typed input fed from the raw user text
    /// is spliced with the planner's extract operator (§V-H transformation,
    /// PROFILER.CRITERIA ← USER.TEXT), so the optimizer sees that call like
    /// every other data plan.
    pub fn lower(
        &self,
        plan: &TaskPlan,
        constraints: &QosConstraints,
    ) -> Result<PlanIr, ExecutionError> {
        let mut ir = PlanIr::from_task_plan(plan, self.data_planner.as_deref())
            .map_err(|e| ExecutionError(e.to_string()))?;
        if let Some(dp) = &self.data_planner {
            for node in &mut ir.nodes {
                for (param, binding) in &mut node.inputs {
                    let json_from_user = matches!(binding, IrBinding::FromUser)
                        && self.registry.get_spec(&node.agent).is_ok_and(|s| {
                            s.input(param)
                                .is_some_and(|p| p.data_type == DataType::Json)
                        });
                    if json_from_user {
                        let plan = dp.plan_extract(&ir.goal);
                        *binding = IrBinding::Spliced {
                            plan,
                            sources: Vec::new(),
                        };
                    }
                }
            }
        }
        ir.optimize(self.objective(), constraints);
        Ok(ir)
    }

    /// The objective every IR is optimized for: the data planner's.
    fn objective(&self) -> Objective {
        self.data_planner
            .as_ref()
            .map_or_else(Objective::balanced, |dp| dp.objective())
    }

    fn execute_inner(
        &self,
        mut ir: PlanIr,
        mut budget: Budget,
        depth: u8,
        task: &TaskContext,
    ) -> Result<ExecutionReport, ExecutionError> {
        let Schedule { order, edges } = ir.schedule().map_err(|e| ExecutionError(e.to_string()))?;
        let cap = match self.scheduler {
            SchedulerMode::Sequential => 1,
            SchedulerMode::Parallel { max_in_flight } => max_in_flight,
        };
        let mut sched = Scheduler::new(
            order.len(),
            edges,
            cap,
            Rules {
                policy: self.policy,
                can_replan: depth == 0 && self.task_planner.is_some(),
                adaptive: self.adaptive,
            },
        );
        // Span ids per position, recorded at dispatch so children can parent
        // under the earliest dependency's span. Dispatch happens in
        // sorted-ready order, so span ids are allocated deterministically
        // even under parallel completion.
        let mut span_ids: Vec<Option<SpanId>> = vec![None; order.len()];

        loop {
            self.drive(&ir, &order, &mut sched, &mut budget, &mut span_ids, task)?;

            // A drift-triggered re-optimization is resolved here, with no
            // node in flight: re-select the implementation of data operators
            // owned by still-pending nodes against the *remaining* budget,
            // then resume scheduling. Nodes already executed are never
            // touched, and only one pass runs per execution.
            if matches!(sched.halt(), Some(Halt::Reoptimize)) {
                let threshold = self.adaptive.expect("reoptimize requires a threshold");
                let pending: HashSet<String> = sched.pending().map(|i| order[i].clone()).collect();
                let remaining = budget.remaining_constraints();
                for s in ir.reoptimize_pending(&pending, self.objective(), &remaining) {
                    self.publish_status(
                        &ir.task_id,
                        "node-reoptimized",
                        json!({"node": s.node, "from": s.from, "to": s.to}),
                    );
                    self.obs.tracer.instant(
                        "coordinator",
                        format_args!("reopt:{}:{}->{}", s.node, s.from, s.to),
                        task.span,
                        &[],
                    );
                    sched.note_reoptimization(ReoptimizationNote {
                        node: s.node,
                        from_tier: s.from,
                        to_tier: s.to,
                        reason: format!("observed spend drifted past {threshold}x the estimate"),
                    });
                }
                sched.resume();
                continue;
            }

            // A projected overrun under the Replan policy is resolved here,
            // with no node in flight: ask the task planner for the same
            // decomposition minus the most expensive agent (§V-H). When no
            // cheaper plan exists, resume under protest, exactly like the
            // sequential reference.
            if matches!(sched.halt(), Some(Halt::ReplanOverrun)) {
                let subtasks: Vec<String> = ir.nodes.iter().map(|n| n.task.clone()).collect();
                let replacement = self.task_planner.as_ref().and_then(|tp| {
                    tp.plan_subtasks(&ir.goal, &subtasks, &[most_expensive(&ir)])
                        .ok()
                });
                if let Some(new_plan) = replacement {
                    let inner = self.execute_inner(
                        self.lower(&new_plan, &budget.remaining_constraints())?,
                        budget.clone(),
                        depth + 1,
                        task,
                    )?;
                    let outcome = Outcome::Replanned {
                        reason: "projected overrun".into(),
                        inner: Box::new(inner),
                    };
                    let (progress, _, _) = sched.finish();
                    return Ok(progress.report(&ir.task_id, outcome, budget));
                }
                sched.resume();
                continue;
            }
            break;
        }

        let (progress, outputs, halt) = sched.finish();
        let outcome = match halt {
            None => {
                // Deterministic final output: the last output-producing node
                // in topological order, regardless of completion order.
                let output = outputs
                    .into_iter()
                    .flatten()
                    .next_back()
                    .unwrap_or(Value::Null);
                self.publish_status(&ir.task_id, "task-completed", json!({"task": ir.task_id}));
                Outcome::Completed { output }
            }
            Some(Halt::Failure {
                pos,
                error,
                resolution,
            }) => {
                let node_id = order[pos].as_str();
                // Replan once, excluding the failed agent and every agent
                // whose circuit is currently open (§V-H). Input-resolution
                // failures skip straight to Failed: no instruction was
                // issued, so reassigning agents cannot help.
                if let (false, 0, Some(tp)) = (resolution, depth, &self.task_planner) {
                    let failed_agent = ir
                        .node(node_id)
                        .map(|n| n.agent.clone())
                        .expect("failure references an agent node");
                    let subtasks: Vec<String> = ir.nodes.iter().map(|n| n.task.clone()).collect();
                    let mut excluded = vec![failed_agent.clone()];
                    if let Some(b) = &self.breakers {
                        for open in b.open_circuits() {
                            if !excluded.contains(&open) {
                                excluded.push(open);
                            }
                        }
                    }
                    if let Ok(new_plan) = tp.plan_subtasks(&ir.goal, &subtasks, &excluded) {
                        let inner = self.execute_inner(
                            self.lower(&new_plan, &budget.remaining_constraints())?,
                            budget.clone(),
                            depth + 1,
                            task,
                        )?;
                        let outcome = Outcome::Replanned {
                            reason: format!("agent {failed_agent} failed: {error}"),
                            inner: Box::new(inner),
                        };
                        return Ok(progress.report(&ir.task_id, outcome, budget));
                    }
                }
                self.publish_status(
                    &ir.task_id,
                    "task-failed",
                    json!({"node": node_id, "error": error}),
                );
                Outcome::Failed {
                    node: node_id.to_string(),
                    error,
                }
            }
            Some(abort @ (Halt::Exceeded | Halt::ProjectedAbort)) => {
                let reason = match abort {
                    Halt::Exceeded => "budget exceeded by actual costs",
                    _ => "projected costs exceed the budget",
                }
                .to_string();
                self.publish_status(&ir.task_id, "task-aborted", json!({"reason": reason}));
                Outcome::Aborted { reason }
            }
            Some(Halt::ReplanOverrun | Halt::Reoptimize) => {
                unreachable!("resolved before leaving the scheduler")
            }
        };
        Ok(progress.report(&ir.task_id, outcome, budget))
    }

    /// The event loop: runs the scheduler until no node is in flight and
    /// none is admissible. Each pass admits every ready node the scheduler
    /// allows and starts it inline; then feeds the scheduler one node that
    /// reached its terminal state; and only when there is none, blocks on
    /// the task's report subscription until a report, a report deadline or
    /// a retry backoff moves some in-flight node on.
    ///
    /// The budget checkpoints (after each completion, and before admitting
    /// a skippable node) project the rest of the plan from the nodes not
    /// yet settled, i.e. not yet in a terminal state with their charges on
    /// the ledger.
    fn drive<'ir>(
        &self,
        ir: &'ir PlanIr,
        order: &[String],
        sched: &mut Scheduler,
        budget: &mut Budget,
        span_ids: &mut [Option<SpanId>],
        task: &TaskContext,
    ) -> Result<(), ExecutionError> {
        // Nodes waiting on an agent, in dispatch order.
        let mut flights: Vec<Flight<'ir>> = Vec::new();
        // Nodes that reached their terminal state, in the order they did.
        let mut finished: VecDeque<(Flight<'ir>, Completion)> = VecDeque::new();
        // Nothing is in flight on entry, so the settled nodes are the ones
        // the scheduler holds a result for.
        let mut settled = vec![true; order.len()];
        for pos in sched.pending() {
            settled[pos] = false;
        }
        let status = |budget: &Budget, settled: &[bool]| {
            budget.status(&ir.projected_profile(|id| {
                order.iter().zip(settled).any(|(o, &done)| !done && o == id)
            }))
        };
        loop {
            while let Some(pos) = sched.admit() {
                let node_id = order[pos].as_str();
                let node = ir.node(node_id).expect("topo order references ir nodes");
                let agent = node.agent.as_str();

                // Graceful degradation: a skippable node (e.g. an optional
                // guardrail check) is dropped outright once the budget is
                // under pressure, trading its contribution for headroom.
                if self.ladder.is_skippable(agent)
                    && status(budget, &settled) != BudgetStatus::Healthy
                {
                    settled[pos] = true;
                    self.publish_status(
                        &ir.task_id,
                        "node-skipped",
                        json!({"node": node_id, "agent": agent}),
                    );
                    self.obs.tracer.instant(
                        "coordinator",
                        format_args!("skip:{node_id}"),
                        task.span,
                        &[],
                    );
                    let skipped = Completion::Skipped {
                        result: NodeResult {
                            node: node_id.to_string(),
                            agent: agent.to_string(),
                            ok: true,
                            cost: 0.0,
                            latency_micros: 0,
                            error: None,
                            attempts: 0,
                            cached: false,
                        },
                        note: DegradationNote {
                            from: agent.to_string(),
                            to: None,
                            accuracy_penalty: 0.0,
                            reason: format!("skipped node {node_id} under budget pressure"),
                        },
                    };
                    sched.complete(pos, skipped, status(budget, &settled), &node.profile);
                    continue;
                }

                // The node span parents under the earliest dependency's
                // span, so the trace tree mirrors the plan DAG; it closes
                // when the node reaches its terminal state.
                let parent = sched
                    .parents(pos)
                    .iter()
                    .min()
                    .and_then(|&p| span_ids[p])
                    .or(task.span);
                let mut span = match parent {
                    Some(pid) => self.obs.tracer.child_span(
                        "coordinator",
                        format_args!("node:{node_id}"),
                        pid,
                    ),
                    None => self
                        .obs
                        .tracer
                        .span("coordinator", format_args!("node:{node_id}")),
                };
                span.attr("agent", agent);
                span_ids[pos] = span.id();
                self.instruments.dispatches.inc();

                let mut flight = Flight {
                    pos,
                    node,
                    agent: agent.to_string(),
                    primary: None,
                    attempts: 0,
                    spent_delay: 0,
                    instruction: Instruction::Pending(Inputs::new()),
                    wait: Wait::Backoff {
                        until: Instant::now(),
                    },
                    memo_key: None,
                    span,
                };
                // Every parent has completed, so its output is final.
                let upstream: Vec<(&str, Option<&Value>)> = sched
                    .parents(pos)
                    .iter()
                    .map(|&p| (order[p].as_str(), sched.output(p)))
                    .collect();
                match self.start(ir, task, &mut flight, &upstream, budget)? {
                    Some(completion) => {
                        settled[pos] = true;
                        finished.push_back((flight, completion));
                    }
                    None => flights.push(flight),
                }
            }
            self.instruments.queue_depth.set(sched.queued() as i64);
            self.instruments.in_flight.set(sched.in_flight() as i64);

            if let Some((flight, completion)) = finished.pop_front() {
                let Flight {
                    pos,
                    node,
                    mut span,
                    ..
                } = flight;
                if let Completion::Done { result, .. } = &completion {
                    span.attr("ok", if result.ok { "true" } else { "false" });
                    if result.cached {
                        span.attr("cached", "true");
                    }
                    if result.attempts > 1 {
                        span.attr("attempts", &result.attempts.to_string());
                    }
                }
                span.end();
                sched.complete(pos, completion, status(budget, &settled), &node.profile);
                continue;
            }
            if flights.is_empty() {
                debug_assert_eq!(sched.in_flight(), 0);
                return Ok(());
            }

            let (i, step) = match next_wake(&task.reports, flights.iter().map(|f| &f.wait))? {
                Wake::Report(i, report) => (
                    i,
                    self.on_answer(ir, task, &mut flights[i], Some(report), budget)?,
                ),
                Wake::Timer(i) => (i, self.on_timer(ir, task, &mut flights[i], budget)?),
            };
            if let Some(completion) = step {
                let flight = flights.remove(i);
                settled[flight.pos] = true;
                finished.push_back((flight, completion));
            }
        }
    }

    /// Starts a dispatched node on the loop thread: resolves its inputs,
    /// answers it from the memo cache when it can, and otherwise publishes
    /// its first instruction. Returns the node's terminal state when it
    /// needs no agent report, None when it now waits on one.
    fn start(
        &self,
        ir: &PlanIr,
        task: &TaskContext,
        f: &mut Flight<'_>,
        upstream: &[(&str, Option<&Value>)],
        budget: &mut Budget,
    ) -> Result<Option<Completion>, ExecutionError> {
        let node = f.node;
        let mut inputs = Inputs::new();
        for (param, binding) in &node.inputs {
            match self.resolve_input(ir, binding, upstream, budget) {
                Ok(v) => {
                    inputs.insert_data(param.clone(), v);
                }
                Err(reason) => return Ok(Some(Completion::Unresolved(reason))),
            }
        }

        // Deterministic agents answer repeated inputs from the memo cache:
        // the recorded outputs replay onto the node's output stream (so
        // observers see the same stream contents) at zero cost, and the
        // savings are credited to the execution report.
        let agent = f.planned().to_string();
        if let Some(memo) = &self.memo {
            let key = MemoCache::key(&agent, &inputs);
            if let Some(entry) = memo.lookup(&key) {
                self.instruments.memo_hits.inc();
                self.replay_cached_outputs(&ir.task_id, &node.id, &agent, &entry);
                self.charge(budget, 0.0, 0, node.profile.accuracy);
                self.publish_status(
                    &ir.task_id,
                    "node-cached",
                    json!({"node": node.id, "agent": agent}),
                );
                return Ok(Some(Completion::Done {
                    result: NodeResult {
                        node: node.id.clone(),
                        agent,
                        ok: true,
                        cost: 0.0,
                        latency_micros: 0,
                        error: None,
                        attempts: 0,
                        cached: true,
                    },
                    degradation: None,
                    outputs: entry.outputs,
                    saved: Some((entry.cost, entry.latency_micros)),
                }));
            }
            f.memo_key = Some(key);
        }

        // The inputs move into the first instruction.
        f.instruction = Instruction::Pending(inputs);
        match self.begin_run(ir, task, f, agent)? {
            None => Ok(None),
            Some(run) => self.run_ended(ir, task, f, run, budget),
        }
    }

    /// Starts a run of `agent` for the node: an open circuit fails it fast
    /// (no instruction is issued, so the struggling agent gets no more
    /// traffic until its cooldown elapses); otherwise the first attempt is
    /// published. Returns the run's end when it ended without an attempt.
    fn begin_run(
        &self,
        ir: &PlanIr,
        task: &TaskContext,
        f: &mut Flight<'_>,
        agent: String,
    ) -> Result<Option<NodeAttempt>, ExecutionError> {
        f.agent = agent;
        f.attempts = 0;
        f.spent_delay = 0;
        if let Some(b) = &self.breakers {
            if !b.allow(&f.agent, self.now_micros()) {
                return Ok(Some(NodeAttempt {
                    report: None,
                    attempts: 0,
                    error: Some(format!("circuit open for agent {}", f.agent)),
                }));
            }
        }
        self.publish_attempt(ir, task, f)?;
        Ok(None)
    }

    /// Publishes the next attempt's instruction and arms its report
    /// deadline. `f.instruction` ends up holding the published message.
    fn publish_attempt(
        &self,
        ir: &PlanIr,
        task: &TaskContext,
        f: &mut Flight<'_>,
    ) -> Result<(), ExecutionError> {
        f.attempts += 1;
        let exec = ExecuteAgent {
            agent: f.agent.clone(),
            inputs: f.instruction.take_inputs(),
            output_stream: self.task_stream(&ir.task_id, &f.node.id),
            task_id: task.id.clone(),
            node_id: f.node.id.clone(),
            span: f.span.id().map(|s| s.0),
        };
        let published = self
            .store
            .publish_to(
                format!("{}:instructions", self.instruction_scope()),
                ["instructions"],
                exec.into_message().from_producer("task-coordinator"),
            )
            .map_err(|e| ExecutionError(e.to_string()))?;
        f.wait = Wait::Report {
            id: published.id,
            deadline: Instant::now() + self.report_timeout,
        };
        f.instruction = Instruction::Published(published);
        Ok(())
    }

    /// A flight's timer fired: a report deadline passed (the attempt timed
    /// out), or a retry's backoff elapsed (publish the next attempt).
    fn on_timer(
        &self,
        ir: &PlanIr,
        task: &TaskContext,
        f: &mut Flight<'_>,
        budget: &mut Budget,
    ) -> Result<Option<Completion>, ExecutionError> {
        match f.wait {
            Wait::Report { .. } => self.on_answer(ir, task, f, None, budget),
            Wait::Backoff { .. } => {
                self.publish_attempt(ir, task, f)?;
                Ok(None)
            }
        }
    }

    /// An attempt ended with `report` (None on timeout). Records it with
    /// the breaker, then either ends the run or, per the retry policy,
    /// starts a backoff debited from the latency budget.
    fn on_answer(
        &self,
        ir: &PlanIr,
        task: &TaskContext,
        f: &mut Flight<'_>,
        report: Option<AgentReport>,
        budget: &mut Budget,
    ) -> Result<Option<Completion>, ExecutionError> {
        let ok = report.as_ref().is_some_and(|r| r.ok);
        if let Some(b) = &self.breakers {
            b.record(&f.agent, ok, self.now_micros());
        }
        if ok {
            let run = NodeAttempt {
                report,
                attempts: f.attempts,
                error: None,
            };
            return self.run_ended(ir, task, f, run, budget);
        }

        let error = report
            .as_ref()
            .map(|r| r.error.clone().unwrap_or_else(|| "agent failed".into()))
            .unwrap_or_else(|| format!("timed out waiting for agent {}", f.agent));

        // Retrying against a tripped breaker is pointless; otherwise ask the
        // policy whether another attempt fits the retry budget.
        let circuit_open = self
            .breakers
            .as_ref()
            .is_some_and(|b| !b.allow(&f.agent, self.now_micros()));
        if !circuit_open {
            if let Some(delay) = self.retry.delay_before(f.attempts, f.spent_delay) {
                self.instruments.retries.inc();
                self.obs.tracer.instant(
                    "coordinator",
                    format_args!("retry:{}#{}", f.agent, f.attempts),
                    f.span.id(),
                    &[],
                );
                // The failed attempt's cost and the backoff are real spend
                // the caller experienced (accuracy-neutral: the retry
                // supersedes the failed answer).
                if let Some(r) = &report {
                    self.charge(budget, r.cost, r.latency_micros, 1.0);
                }
                self.charge(budget, 0.0, delay, 1.0);
                f.spent_delay += delay;
                f.wait = Wait::Backoff {
                    until: Instant::now() + Duration::from_micros(delay.min(100_000)),
                };
                return Ok(None);
            }
        }
        let run = NodeAttempt {
            report,
            attempts: f.attempts,
            error: Some(error),
        };
        self.run_ended(ir, task, f, run, budget)
    }

    /// A run ended. A failed run of the planned agent falls back once to
    /// its configured substitute (graceful degradation); anything else
    /// ends the node.
    fn run_ended(
        &self,
        ir: &PlanIr,
        task: &TaskContext,
        f: &mut Flight<'_>,
        run: NodeAttempt,
        budget: &mut Budget,
    ) -> Result<Option<Completion>, ExecutionError> {
        if run.error.is_some() && f.primary.is_none() {
            if let Some((fallback, _)) = self.ladder.fallback_for(f.planned()) {
                if self.registry.contains(fallback) {
                    self.obs.tracer.instant(
                        "coordinator",
                        format_args!("fallback:{}->{fallback}", f.planned()),
                        f.span.id(),
                        &[],
                    );
                    f.primary = Some(run);
                    return match self.begin_run(ir, task, f, fallback.to_string())? {
                        None => Ok(None),
                        Some(second) => self.run_ended(ir, task, f, second, budget),
                    };
                }
            }
        }
        Ok(Some(self.finish_node(ir, f, run, budget)))
    }

    /// The node's terminal state after its last run: charges the ledger,
    /// quarantines an exhausted instruction, and records primary successes
    /// in the memo cache.
    fn finish_node(
        &self,
        ir: &PlanIr,
        f: &mut Flight<'_>,
        run: NodeAttempt,
        budget: &mut Budget,
    ) -> Completion {
        let node = f.node;
        let agent = f.planned().to_string();
        let mut executing_agent = agent.clone();
        let mut degradation = None;
        let attempt = match f.primary.take() {
            None => run,
            // The fallback answered, with degraded quality.
            Some(first) if run.error.is_none() => {
                let (fallback, penalty) = self
                    .ladder
                    .fallback_for(&agent)
                    .expect("a fallback ran, so one is configured");
                degradation = Some(DegradationNote {
                    from: agent.clone(),
                    to: Some(fallback.to_string()),
                    accuracy_penalty: penalty,
                    reason: first.error.unwrap_or_else(|| "primary agent failed".into()),
                });
                self.publish_status(
                    &ir.task_id,
                    "node-degraded",
                    json!({"node": node.id, "from": agent, "to": fallback}),
                );
                self.charge(budget, 0.0, 0, 1.0 - penalty);
                executing_agent = f.agent.clone();
                NodeAttempt {
                    attempts: first.attempts + run.attempts,
                    ..run
                }
            }
            // The fallback failed too: the planned agent's failure stands.
            Some(first) => first,
        };

        let attempts = attempt.attempts;
        if let Some(error) = attempt.error {
            // Charge whatever the final failed attempt reported.
            let (cost, latency) = attempt
                .report
                .as_ref()
                .map(|r| (r.cost, r.latency_micros))
                .unwrap_or((0.0, 0));
            self.charge(budget, cost, latency, node.profile.accuracy);

            // Quarantine the instruction that exhausted its attempts so
            // operators can inspect and replay it once the fault clears.
            self.quarantine_instruction(
                &ir.task_id,
                &node.id,
                &agent,
                f.instruction.take_inputs(),
                &error,
                attempts,
            );

            return Completion::Done {
                result: NodeResult {
                    node: node.id.clone(),
                    agent,
                    ok: false,
                    cost,
                    latency_micros: latency,
                    error: Some(error),
                    attempts,
                    cached: false,
                },
                degradation,
                outputs: Value::Null,
                saved: None,
            };
        }

        let report = attempt.report.expect("successful attempt carries a report");
        self.charge(
            budget,
            report.cost,
            report.latency_micros,
            node.profile.accuracy,
        );

        // Only primary successes populate the cache: fallback answers carry
        // degraded quality, and caching them would hide the degradation on
        // replay.
        if let (Some(memo), Some(key)) = (&self.memo, f.memo_key.take()) {
            if executing_agent == agent && report.outputs.is_object() {
                memo.insert(
                    key,
                    MemoEntry {
                        outputs: report.outputs.clone(),
                        cost: report.cost,
                        latency_micros: report.latency_micros,
                    },
                );
            }
        }

        Completion::Done {
            result: NodeResult {
                node: node.id.clone(),
                agent: executing_agent,
                ok: true,
                cost: report.cost,
                latency_micros: report.latency_micros,
                error: None,
                attempts,
                cached: false,
            },
            degradation,
            outputs: report.outputs,
            saved: None,
        }
    }

    /// Republishes a cached node's outputs onto its output stream so
    /// downstream `FromNode` bindings resolve exactly as if the agent ran.
    fn replay_cached_outputs(&self, task_id: &str, node_id: &str, agent: &str, entry: &MemoEntry) {
        let Some(outputs) = entry.outputs.as_object() else {
            return;
        };
        let stream = self.task_stream(task_id, node_id);
        let tags: Vec<Tag> = self
            .registry
            .get_spec(agent)
            .map(|spec| spec.output_tags.iter().map(Tag::new).collect())
            .unwrap_or_default();
        for (param, value) in outputs {
            let msg = Message::data_json(value.clone())
                .with_tag(param.as_str())
                .with_tags(tags.iter().cloned())
                .from_producer(format!("memo:{agent}"));
            let _ = self
                .store
                .publish_to(stream.clone(), Vec::<Tag>::new(), msg);
        }
    }

    /// Best-effort quarantine of a failed instruction onto the scope's
    /// dead-letter stream; failure to quarantine never masks the original
    /// error.
    fn quarantine_instruction(
        &self,
        task_id: &str,
        node_id: &str,
        agent: &str,
        inputs: Inputs,
        error: &str,
        attempts: u32,
    ) {
        let Ok(dlq) = DeadLetterQueue::for_scope(&self.store, &self.scope) else {
            return;
        };
        let instruction = ExecuteAgent {
            agent: agent.to_string(),
            inputs,
            output_stream: self.task_stream(task_id, node_id),
            task_id: task_id.to_string(),
            node_id: node_id.to_string(),
            span: None,
        };
        let _ = dlq.quarantine(
            &instruction.into_message().from_producer("task-coordinator"),
            error,
            u64::from(attempts),
            "task-coordinator",
        );
    }

    /// Resolves one input binding, charging any data-plan costs to the
    /// budget. Errors are task-level (node failure), not machinery-level.
    /// A spliced SQL result stays the row batch the data planner returned.
    fn resolve_input(
        &self,
        ir: &PlanIr,
        binding: &IrBinding,
        upstream: &[(&str, Option<&Value>)],
        budget: &mut Budget,
    ) -> Result<DataValue, String> {
        match binding {
            IrBinding::Literal(v) => Ok(v.clone().into()),
            IrBinding::FromUser => Ok(Value::String(ir.goal.clone()).into()),
            IrBinding::FromNode { node: from, output } => {
                let outputs = upstream
                    .iter()
                    .find(|(id, _)| id == from)
                    .and_then(|(_, slot)| *slot)
                    .ok_or_else(|| {
                        let stream = StreamId::new(self.task_stream(&ir.task_id, from));
                        format!(
                            "missing upstream output stream: {}",
                            StreamError::NotFound(stream)
                        )
                    })?;
                outputs
                    .get(output.as_str())
                    .map(|v| v.clone().into())
                    .ok_or_else(|| format!("upstream {from}.{output} produced no value"))
            }
            IrBinding::Unplanned { error, .. } => Err(error.clone()),
            IrBinding::Spliced { plan, .. } => {
                // The data plan was spliced in at lowering time (and
                // possibly re-optimized mid-flight); it runs in place
                // through the data planner.
                let dp = self
                    .data_planner
                    .as_ref()
                    .ok_or_else(|| "no data planner for spliced binding".to_string())?;
                let executed = dp.execute(plan).map_err(|e| e.to_string())?;
                self.charge(
                    budget,
                    executed.actual.cost_per_call,
                    executed.actual.latency_micros,
                    executed.actual.accuracy,
                );
                Ok(executed.value)
            }
        }
    }

    /// Charges one debit to the task's ledger and counts it in
    /// `blueprint.optimizer.budget_debits`.
    fn charge(&self, budget: &mut Budget, cost: f64, latency_micros: u64, accuracy: f64) {
        self.instruments.budget_debits.inc();
        budget.charge(cost, latency_micros, accuracy);
    }

    /// The id of a task's stream `leaf` (a node id, or `status`) under the
    /// session's task segment: what tag-triggered bindings never watch.
    fn task_stream(&self, task_id: &str, leaf: &str) -> String {
        format!("{}:{TASK_SEGMENT}:{task_id}:{leaf}", self.scope)
    }

    fn publish_status(&self, task_id: &str, op: &str, args: Value) {
        let _ = self.store.publish_to(
            self.task_stream(task_id, "status"),
            ["task-status"],
            Message::control(op, args)
                .with_tag("task-status")
                .from_producer("task-coordinator"),
        );
    }
}

/// Blocks on the task's report subscription until a report answers the
/// instruction one of `waits` awaits, or the earliest of their timers
/// passes. A timer fires only if it had passed before the queued reports
/// were drained, so a report that arrived in time is never lost to a
/// deadline that has passed since (nor with a zero timeout). Reports no
/// wait awaits — duplicates, late answers to an attempt that timed out, a
/// replaced plan's stale reports — are dropped undecoded.
fn next_wake<'w>(
    reports: &Subscription,
    waits: impl Iterator<Item = &'w Wait> + Clone,
) -> Result<Wake, ExecutionError> {
    loop {
        let drained_at = Instant::now();
        while let Some(msg) = reports
            .try_recv()
            .map_err(|e| ExecutionError(e.to_string()))?
        {
            if let Some(wake) = route(&msg, waits.clone()) {
                return Ok(wake);
            }
        }
        let (i, at) = waits
            .clone()
            .map(Wait::wake_at)
            .enumerate()
            .min_by_key(|&(_, at)| at)
            .expect("the loop waits only with nodes in flight");
        if at <= drained_at {
            return Ok(Wake::Timer(i));
        }
        match reports.recv_timeout(at.saturating_duration_since(Instant::now())) {
            Ok(msg) => {
                if let Some(wake) = route(&msg, waits.clone()) {
                    return Ok(wake);
                }
            }
            Err(StreamError::Timeout) => {}
            Err(e) => return Err(ExecutionError(e.to_string())),
        }
    }
}

/// The wait `msg` answers, with the decoded report; None when no wait
/// awaits the instruction it names.
fn route<'w>(msg: &Message, mut waits: impl Iterator<Item = &'w Wait>) -> Option<Wake> {
    let id = AgentReport::instruction_of(msg)?;
    let i = waits.position(|w| matches!(*w, Wait::Report { id: awaited, .. } if awaited == id))?;
    AgentReport::from_message(msg).map(|report| Wake::Report(i, report))
}

/// Name of the plan's most expensive agent (replan exclusion heuristic).
fn most_expensive(ir: &PlanIr) -> String {
    ir.nodes
        .iter()
        .max_by(|a, b| {
            a.profile
                .cost_per_call
                .partial_cmp(&b.profile.cost_per_call)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|n| n.agent.clone())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_agents::{
        AgentContext, AgentFactory, AgentSpec, CostProfile, FnProcessor, Outputs, ParamSpec,
        Processor,
    };
    use blueprint_planner::{InputBinding, PlanNode};
    use std::collections::BTreeMap;

    fn upper_agent(factory: &AgentFactory, name: &str, cost: f64) {
        let spec = AgentSpec::new(name, format!("{name} uppercases text"))
            .with_input(ParamSpec::required("text", "input text", DataType::Text))
            .with_output(ParamSpec::required("out", "uppercased", DataType::Text))
            .with_profile(CostProfile::new(cost, 1_000, 0.95));
        let proc: Arc<dyn Processor> = Arc::new(FnProcessor::new(
            move |inputs: &Inputs, ctx: &AgentContext| {
                let text = inputs.require_str("text")?;
                ctx.charge_cost(0.5);
                ctx.charge_latency_micros(1_000);
                Ok(Outputs::new().with("out", json!(text.to_uppercase())))
            },
        ));
        factory.register(spec, proc).unwrap();
    }

    fn chain_plan(task_id: &str, agents: &[&str]) -> TaskPlan {
        chain_plan_with_cost(task_id, agents, 1.0)
    }

    fn chain_plan_with_cost(task_id: &str, agents: &[&str], est_cost: f64) -> TaskPlan {
        let mut plan = TaskPlan::new(task_id, "hello world");
        for (i, agent) in agents.iter().enumerate() {
            let mut inputs = BTreeMap::new();
            if i == 0 {
                inputs.insert("text".to_string(), InputBinding::FromUser);
            } else {
                inputs.insert(
                    "text".to_string(),
                    InputBinding::FromNode {
                        node: format!("n{i}"),
                        output: "out".to_string(),
                    },
                );
            }
            plan.push(PlanNode {
                id: format!("n{}", i + 1),
                agent: agent.to_string(),
                task: format!("step {i}"),
                inputs,
                profile: CostProfile::new(est_cost, 1_000, 0.95),
            });
        }
        plan
    }

    fn setup(agents: &[&str]) -> (AgentFactory, TaskCoordinator, Arc<AgentRegistry>) {
        let store = StreamStore::new();
        let factory = AgentFactory::new(store.clone());
        let registry = Arc::new(AgentRegistry::new());
        for a in agents {
            upper_agent(&factory, a, 1.0);
            registry
                .register(
                    AgentSpec::new(*a, format!("{a} uppercases text"))
                        .with_input(ParamSpec::required("text", "input", DataType::Text))
                        .with_output(ParamSpec::required("out", "output", DataType::Text))
                        .with_profile(CostProfile::new(1.0, 1_000, 0.95)),
                )
                .unwrap();
            factory.spawn(a, "session:1").unwrap();
        }
        let coordinator = TaskCoordinator::new(store, "session:1", registry.clone())
            .with_report_timeout(Duration::from_secs(5));
        (factory, coordinator, registry)
    }

    #[test]
    fn executes_chain_and_tracks_budget() {
        let (_factory, coordinator, _) = setup(&["alpha", "beta"]);
        let plan = chain_plan("t1", &["alpha", "beta"]);
        let report = coordinator
            .execute(&plan, QosConstraints::none().with_max_cost(10.0))
            .unwrap();
        assert!(report.outcome.succeeded());
        match &report.outcome {
            Outcome::Completed { output } => {
                assert_eq!(output["out"], json!("HELLO WORLD"));
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        assert_eq!(report.node_results.len(), 2);
        assert!(report.node_results.iter().all(|n| n.ok));
        // Each agent charged 0.5 cost and 1ms latency.
        assert!((report.budget.spent_cost - 1.0).abs() < 1e-9);
        assert_eq!(report.budget.spent_latency_micros, 2_000);
        assert_eq!(
            report.budget.status(&CostProfile::FREE),
            BudgetStatus::Healthy
        );
    }

    #[test]
    fn aborts_when_actual_cost_exceeds_budget() {
        let (_factory, coordinator, _) = setup(&["alpha", "beta", "gamma"]);
        // Estimated cost is zero, so no projected-overrun fires; each step
        // actually charges 0.5, so the second step pushes actuals past 0.8.
        let plan = chain_plan_with_cost("t2", &["alpha", "beta", "gamma"], 0.0);
        let report = coordinator
            .execute(&plan, QosConstraints::none().with_max_cost(0.8))
            .unwrap();
        match &report.outcome {
            Outcome::Aborted { reason } => assert!(reason.contains("exceeded")),
            other => panic!("unexpected outcome: {other:?}"),
        }
        // Aborted before the third node ran.
        assert!(report.node_results.len() < 3);
    }

    #[test]
    fn projected_overrun_aborts_under_default_policy() {
        let (_factory, coordinator, _) = setup(&["alpha", "beta"]);
        let plan = chain_plan("t3", &["alpha", "beta"]);
        // Projection: latencies are estimated at 1ms per node; spent adds
        // actual 1ms each. Cap total latency at 2.5ms: after node 1 (spent
        // 1ms + projected 1ms = 2ms) healthy; actuals stay under, so this
        // completes. Instead cap cost: projected 2.0, spend 0.5/node, cap
        // 1.2 → after node 1: spent 0.5 + projected 1.0 = 1.5 > 1.2.
        let report = coordinator
            .execute(&plan, QosConstraints::none().with_max_cost(1.2))
            .unwrap();
        match &report.outcome {
            Outcome::Aborted { reason } => assert!(reason.contains("projected")),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn continue_policy_pushes_through_overrun() {
        let (factory, _, registry) = setup(&["alpha", "beta"]);
        let coordinator = TaskCoordinator::new(factory.store().clone(), "session:1", registry)
            .with_policy(OverrunPolicy::Continue);
        let plan = chain_plan("t4", &["alpha", "beta"]);
        let report = coordinator
            .execute(&plan, QosConstraints::none().with_max_cost(1.2))
            .unwrap();
        assert!(report.outcome.succeeded());
    }

    #[test]
    fn missing_agent_times_out_to_failure() {
        let (_factory, coordinator, _) = setup(&["alpha"]);
        let coordinator = coordinator.with_report_timeout(Duration::from_millis(200));
        let plan = chain_plan("t5", &["ghost-agent"]);
        let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
        match &report.outcome {
            Outcome::Failed { node, error } => {
                assert_eq!(node, "n1");
                assert!(error.contains("timed out"));
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn invalid_plan_is_machinery_error() {
        let (_factory, coordinator, _) = setup(&["alpha"]);
        let mut plan = chain_plan("t6", &["alpha"]);
        plan.nodes[0].inputs.insert(
            "text".into(),
            InputBinding::FromNode {
                node: "ghost".into(),
                output: "out".into(),
            },
        );
        assert!(coordinator.execute(&plan, QosConstraints::none()).is_err());
    }

    #[test]
    fn from_data_without_data_planner_fails_node() {
        let (_factory, coordinator, _) = setup(&["alpha"]);
        let mut plan = chain_plan("t7", &["alpha"]);
        plan.nodes[0].inputs.insert(
            "text".into(),
            InputBinding::FromData {
                query: "job listings".into(),
            },
        );
        let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
        assert!(matches!(report.outcome, Outcome::Failed { .. }));
    }

    #[test]
    fn status_messages_are_published() {
        let (factory, coordinator, _) = setup(&["alpha"]);
        let sub = factory
            .store()
            .subscribe(Selector::AllStreams, TagFilter::any_of(["task-status"]))
            .unwrap();
        let plan = chain_plan("t8", &["alpha"]);
        coordinator.execute(&plan, QosConstraints::none()).unwrap();
        let msg = sub.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(msg.control_op(), Some("task-completed"));
    }

    #[test]
    fn replans_around_failed_agent() {
        // A failing primary and a healthy backup with the same description:
        // the coordinator replans, excluding the primary.
        let store = StreamStore::new();
        let factory = AgentFactory::new(store.clone());
        let registry = Arc::new(AgentRegistry::new());

        let fail_spec = AgentSpec::new("flaky-upper", "uppercase text transformer service")
            .with_input(ParamSpec::required("text", "input", DataType::Text))
            .with_output(ParamSpec::required("out", "output", DataType::Text))
            .with_profile(CostProfile::new(1.0, 1_000, 0.95));
        let fail_proc: Arc<dyn Processor> = Arc::new(FnProcessor::new(
            |_: &Inputs, _: &AgentContext| -> blueprint_agents::Result<Outputs> {
                Err(blueprint_agents::AgentError::ProcessorFailed(
                    "service unavailable".into(),
                ))
            },
        ));
        factory.register(fail_spec.clone(), fail_proc).unwrap();
        registry.register(fail_spec).unwrap();
        upper_agent(&factory, "backup-upper", 1.0);
        registry
            .register(
                AgentSpec::new("backup-upper", "uppercase text transformer service")
                    .with_input(ParamSpec::required("text", "input", DataType::Text))
                    .with_output(ParamSpec::required("out", "output", DataType::Text))
                    .with_profile(CostProfile::new(1.0, 1_000, 0.95)),
            )
            .unwrap();
        factory.spawn("flaky-upper", "session:1").unwrap();
        factory.spawn("backup-upper", "session:1").unwrap();

        let llm = Arc::new(blueprint_llmsim::SimLlm::new(
            blueprint_llmsim::ModelProfile::large(),
        ));
        let task_planner = Arc::new(TaskPlanner::new(registry.clone(), llm));
        // Boost flaky-upper so the planner picks it first.
        registry
            .record_usage("flaky-upper", "uppercase text transformer service")
            .unwrap();

        let coordinator = TaskCoordinator::new(store, "session:1", registry.clone())
            .with_task_planner(task_planner.clone());

        let plan = task_planner
            .plan_subtasks(
                "please uppercase this",
                &["uppercase text transformer service".to_string()],
                &[],
            )
            .unwrap();
        assert_eq!(plan.nodes[0].agent, "flaky-upper");

        let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
        match &report.outcome {
            Outcome::Replanned { reason, inner } => {
                assert!(reason.contains("flaky-upper"));
                assert!(inner.outcome.succeeded());
                assert_eq!(inner.node_results[0].agent, "backup-upper");
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        assert!(report.outcome.succeeded());
    }

    #[test]
    fn projected_overrun_replans_onto_cheaper_agent() {
        // Two interchangeable services; the planner initially assigns the
        // expensive one. Under a cost cap with the Replan policy, the
        // coordinator swaps to the economical service mid-flight (§V-H:
        // "trigger the task planner to replan").
        let store = StreamStore::new();
        let factory = blueprint_agents::AgentFactory::new(store.clone());
        let registry = Arc::new(AgentRegistry::new());
        for (name, est_cost) in [("premium-echo", 5.0), ("budget-echo", 0.1)] {
            let spec = AgentSpec::new(name, "echo the text back to the caller")
                .with_input(ParamSpec::required("text", "t", DataType::Text))
                .with_output(ParamSpec::required("out", "o", DataType::Text))
                .with_profile(CostProfile::new(est_cost, 1_000, 0.95));
            let proc: Arc<dyn Processor> =
                Arc::new(FnProcessor::new(|inputs: &Inputs, ctx: &AgentContext| {
                    ctx.charge_cost(0.05);
                    Ok(Outputs::new().with("out", json!(inputs.require_str("text")?)))
                }));
            factory.register(spec.clone(), proc).unwrap();
            registry.register(spec).unwrap();
            factory.spawn(name, "session:1").unwrap();
        }
        // Bias planning toward the premium agent.
        registry
            .record_usage("premium-echo", "echo the text back to the caller")
            .unwrap();
        let llm = Arc::new(blueprint_llmsim::SimLlm::new(
            blueprint_llmsim::ModelProfile::large(),
        ));
        let planner = Arc::new(TaskPlanner::new(Arc::clone(&registry), llm));
        let coordinator = TaskCoordinator::new(store, "session:1", registry)
            .with_task_planner(Arc::clone(&planner))
            .with_policy(OverrunPolicy::Replan);

        // A two-step plan over the premium agent: projected cost 10.0.
        let plan = planner
            .plan_subtasks(
                "echo twice",
                &[
                    "echo the text back to the caller".to_string(),
                    "echo the text back to the caller".to_string(),
                ],
                &[],
            )
            .unwrap();
        assert!(plan.nodes.iter().all(|n| n.agent == "premium-echo"));

        // Cap at 4.0: the remaining projection exceeds it after step 1,
        // triggering the replan path.
        let report = coordinator
            .execute(&plan, QosConstraints::none().with_max_cost(4.0))
            .unwrap();
        match &report.outcome {
            Outcome::Replanned { reason, inner } => {
                assert!(reason.contains("overrun"));
                assert!(inner.outcome.succeeded());
                assert!(inner.node_results.iter().all(|n| n.agent == "budget-echo"));
            }
            other => panic!("expected replan, got {other:?}"),
        }
        assert!(report.outcome.succeeded());
    }

    fn failing_agent(factory: &AgentFactory, registry: &AgentRegistry, name: &str) {
        let spec = AgentSpec::new(name, format!("{name} uppercases text"))
            .with_input(ParamSpec::required("text", "input", DataType::Text))
            .with_output(ParamSpec::required("out", "output", DataType::Text))
            .with_profile(CostProfile::new(1.0, 1_000, 0.95));
        let proc: Arc<dyn Processor> = Arc::new(FnProcessor::new(
            |_: &Inputs, ctx: &AgentContext| -> blueprint_agents::Result<Outputs> {
                ctx.charge_latency_micros(1_000);
                Err(blueprint_agents::AgentError::ProcessorFailed(
                    "service down".into(),
                ))
            },
        ));
        factory.register(spec.clone(), proc).unwrap();
        registry.register(spec).unwrap();
        factory.spawn(name, "session:1").unwrap();
    }

    /// Waits for the report answering instruction `id` the way the event
    /// loop does with one node in flight: None once the coordinator's
    /// report timeout passes first.
    fn await_one(
        coordinator: &TaskCoordinator,
        sub: &Subscription,
        id: MessageId,
    ) -> Option<AgentReport> {
        let wait = Wait::Report {
            id,
            deadline: Instant::now() + coordinator.report_timeout,
        };
        match next_wake(sub, std::iter::once(&wait)).unwrap() {
            Wake::Report(_, report) => Some(report),
            Wake::Timer(_) => None,
        }
    }

    #[test]
    fn await_report_sees_report_queued_at_exact_deadline() {
        // Regression: a zero report timeout puts the deadline exactly at
        // "now", so deadline-first arithmetic would time out without ever
        // looking at the subscription — losing reports that had already
        // arrived in time.
        let (factory, coordinator, _) = setup(&["alpha"]);
        let coordinator = coordinator.with_report_timeout(Duration::from_millis(0));
        let sub = factory
            .store()
            .subscribe(Selector::AllStreams, TagFilter::any_of(["task:tz"]))
            .unwrap();
        let queued = AgentReport {
            instruction: MessageId(7),
            agent: "alpha".into(),
            task_id: "tz".into(),
            node_id: "n1".into(),
            ok: true,
            error: None,
            cost: 0.1,
            latency_micros: 10,
            outputs: json!({"out": "X"}),
        };
        factory
            .store()
            .publish_to(
                "session:1:reports",
                ["agent-report"],
                queued.into_message().from_producer("alpha"),
            )
            .unwrap();
        let got = await_one(&coordinator, &sub, MessageId(7));
        assert!(got.is_some_and(|r| r.ok && r.node_id == "n1"));
    }

    #[test]
    fn await_report_zero_timeout_returns_none_when_nothing_queued() {
        // The zero-timeout path must still terminate immediately (no hang)
        // when no report has arrived.
        let (factory, coordinator, _) = setup(&["alpha"]);
        let coordinator = coordinator.with_report_timeout(Duration::from_millis(0));
        let sub = factory
            .store()
            .subscribe(Selector::AllStreams, TagFilter::any_of(["task:tq"]))
            .unwrap();
        assert!(await_one(&coordinator, &sub, MessageId(7)).is_none());
    }

    #[test]
    fn retries_transient_failure_until_success() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let (factory, coordinator, registry) = setup(&["alpha"]);
        // An agent that fails its first two calls, then recovers.
        let spec = AgentSpec::new("flaky-up", "flaky uppercaser")
            .with_input(ParamSpec::required("text", "input", DataType::Text))
            .with_output(ParamSpec::required("out", "output", DataType::Text))
            .with_profile(CostProfile::new(1.0, 1_000, 0.95));
        let calls = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&calls);
        let proc: Arc<dyn Processor> = Arc::new(FnProcessor::new(
            move |inputs: &Inputs, ctx: &AgentContext| {
                ctx.charge_latency_micros(1_000);
                if counter.fetch_add(1, Ordering::SeqCst) < 2 {
                    return Err(blueprint_agents::AgentError::ProcessorFailed(
                        "transient glitch".into(),
                    ));
                }
                Ok(Outputs::new().with("out", json!(inputs.require_str("text")?.to_uppercase())))
            },
        ));
        factory.register(spec.clone(), proc).unwrap();
        registry.register(spec).unwrap();
        factory.spawn("flaky-up", "session:1").unwrap();

        let coordinator = coordinator.with_retry_policy(RetryPolicy::standard(7));
        let plan = chain_plan("tr", &["flaky-up"]);
        let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
        assert!(report.outcome.succeeded());
        assert_eq!(report.node_results[0].attempts, 3);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        // Two backoff delays (~5ms and ~10ms, ±10% jitter) were debited
        // from the latency budget on top of the per-attempt agent latency.
        assert!(
            report.budget.spent_latency_micros >= 13_000,
            "backoff not charged: {}",
            report.budget.spent_latency_micros
        );
    }

    #[test]
    fn open_circuit_fails_fast_and_quarantines_to_dead_letter() {
        use blueprint_resilience::BreakerConfig;

        let (factory, coordinator, registry) = setup(&["alpha"]);
        failing_agent(&factory, &registry, "always-down");
        let breakers = Arc::new(BreakerRegistry::new(BreakerConfig {
            window: 4,
            min_samples: 2,
            failure_threshold: 0.5,
            cooldown_micros: 600_000_000, // stays open for the whole test
            half_open_probes: 1,
        }));
        let coordinator = coordinator.with_breakers(Arc::clone(&breakers));

        // Two failing executions trip the breaker ...
        for task in ["tc1", "tc2"] {
            let plan = chain_plan(task, &["always-down"]);
            let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
            assert!(matches!(report.outcome, Outcome::Failed { .. }));
            assert_eq!(report.node_results[0].attempts, 1);
        }
        assert!(breakers.is_open("always-down"));

        // ... so the third fails fast without ever invoking the agent.
        let plan = chain_plan("tc3", &["always-down"]);
        let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
        match &report.outcome {
            Outcome::Failed { error, .. } => assert!(error.contains("circuit open")),
            other => panic!("unexpected outcome: {other:?}"),
        }
        assert_eq!(report.node_results[0].attempts, 0);

        // Every exhausted instruction was quarantined with metadata.
        let dlq = DeadLetterQueue::for_scope(factory.store(), "session:1").unwrap();
        let entries = dlq.entries().unwrap();
        assert_eq!(entries.len(), 3);
        assert!(entries.iter().all(|e| e.source == "task-coordinator"));
        assert!(entries[2].reason.contains("circuit open"));
    }

    #[test]
    fn failed_agent_falls_back_down_the_degradation_ladder() {
        let (factory, coordinator, registry) = setup(&["econ-up"]);
        failing_agent(&factory, &registry, "premium-up");
        let coordinator = coordinator.with_degradation(DegradationLadder::new().with_fallback(
            "premium-up",
            "econ-up",
            0.1,
        ));
        let plan = chain_plan("tf", &["premium-up"]);
        let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
        match &report.outcome {
            Outcome::Completed { output } => assert_eq!(output["out"], json!("HELLO WORLD")),
            other => panic!("unexpected outcome: {other:?}"),
        }
        assert_eq!(report.node_results[0].agent, "econ-up");
        assert_eq!(report.node_results[0].attempts, 2); // primary + fallback
        assert_eq!(report.degradations.len(), 1);
        assert_eq!(report.degradations[0].from, "premium-up");
        assert_eq!(report.degradations[0].to.as_deref(), Some("econ-up"));
        assert!((report.degradations[0].accuracy_penalty - 0.1).abs() < 1e-9);
    }

    /// Registers and spawns an agent that appends `!` to its text, so a
    /// downstream node's output shows which value it was fed.
    fn bang_agent(factory: &AgentFactory, registry: &AgentRegistry, name: &str) {
        let spec = AgentSpec::new(name, format!("{name} exclaims"))
            .with_input(ParamSpec::required("text", "input", DataType::Text))
            .with_output(ParamSpec::required("out", "output", DataType::Text))
            .with_profile(CostProfile::new(1.0, 1_000, 0.95));
        let proc: Arc<dyn Processor> =
            Arc::new(FnProcessor::new(|inputs: &Inputs, ctx: &AgentContext| {
                ctx.charge_cost(0.5);
                Ok(Outputs::new().with("out", json!(format!("{}!", inputs.require_str("text")?))))
            }));
        factory.register(spec.clone(), proc).unwrap();
        registry.register(spec).unwrap();
        factory.spawn(name, "session:1").unwrap();
    }

    fn completed_output(report: &ExecutionReport) -> Value {
        match &report.outcome {
            Outcome::Completed { output } => output.clone(),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn from_node_reads_a_fallback_upstream_output() {
        let (factory, coordinator, registry) = setup(&["econ-up"]);
        failing_agent(&factory, &registry, "premium-up");
        bang_agent(&factory, &registry, "bang");
        let coordinator = coordinator.with_degradation(DegradationLadder::new().with_fallback(
            "premium-up",
            "econ-up",
            0.1,
        ));
        let plan = chain_plan("t-fb-chain", &["premium-up", "bang"]);
        let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
        assert_eq!(completed_output(&report)["out"], json!("HELLO WORLD!"));
        assert_eq!(report.node_results[0].agent, "econ-up");
        assert_eq!(report.degradations.len(), 1);
    }

    #[test]
    fn from_node_reads_a_memo_hit_upstream_output() {
        let (factory, coordinator, registry) = setup(&["echo-1"]);
        bang_agent(&factory, &registry, "bang");
        let coordinator = coordinator.with_memoization(Arc::new(MemoCache::new(64)));
        let warm = coordinator
            .execute(&chain_plan("t-warm", &["echo-1"]), QosConstraints::none())
            .unwrap();
        assert!(warm.outcome.succeeded(), "outcome: {:?}", warm.outcome);

        // `echo-1` answers from the cache; `bang` is new and really runs
        // on the replayed output.
        let plan = chain_plan("t-hit", &["echo-1", "bang"]);
        let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
        assert_eq!(completed_output(&report)["out"], json!("HELLO WORLD!"));
        assert!(report.node_results[0].cached);
        assert!(!report.node_results[1].cached);
        assert_eq!(report.node_results[1].attempts, 1);
    }

    #[test]
    fn fan_out_drivers_skip_sibling_reports() {
        // The task's one subscription sees every report of a 4-way fan-out,
        // last branch first; the loop must route each to the node whose
        // instruction it answers.
        let (factory, _coordinator, _) = setup(&["alpha"]);
        let store = factory.store();
        let sub = store
            .subscribe(
                Selector::Stream("session:1:reports".into()),
                TagFilter::any_of(["task:t-fan4"]),
            )
            .unwrap();
        for i in (1..=4u32).rev() {
            let report = AgentReport {
                instruction: MessageId(100 + u64::from(i)),
                agent: format!("branch-{i}"),
                task_id: "t-fan4".into(),
                node_id: format!("n{i}"),
                ok: true,
                error: None,
                cost: f64::from(i) / 10.0,
                latency_micros: 10 * u64::from(i),
                outputs: json!({"out": format!("from n{i}")}),
            };
            store
                .publish_to(
                    "session:1:reports",
                    ["reports"],
                    report.into_message().from_producer(format!("branch-{i}")),
                )
                .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut waits: Vec<(u32, Wait)> = (1..=4u32)
            .map(|i| {
                let id = MessageId(100 + u64::from(i));
                (i, Wait::Report { id, deadline })
            })
            .collect();
        while !waits.is_empty() {
            let Wake::Report(at, got) = next_wake(&sub, waits.iter().map(|(_, w)| w)).unwrap()
            else {
                panic!("deadline passed with reports queued");
            };
            let (i, _) = waits.remove(at);
            let node = format!("n{i}");
            assert_eq!(got.node_id, node);
            assert_eq!(got.agent, format!("branch-{i}"));
            assert_eq!(got.outputs["out"], json!(format!("from n{i}")));
        }
    }

    /// Registers and spawns `name`, which uppercases its text after
    /// sleeping `millis(call)` ms, where `call` counts its invocations from
    /// 0, and tags the answer with the call number.
    fn paced_agent(
        factory: &AgentFactory,
        registry: &AgentRegistry,
        name: &str,
        millis: fn(u64) -> u64,
    ) -> Arc<std::sync::atomic::AtomicU64> {
        use std::sync::atomic::{AtomicU64, Ordering};
        let spec = AgentSpec::new(name, "uppercase text transformer service")
            .with_input(ParamSpec::required("text", "input", DataType::Text))
            .with_output(ParamSpec::required("out", "output", DataType::Text))
            .with_profile(CostProfile::new(1.0, 1_000, 0.95));
        let calls = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&calls);
        let proc: Arc<dyn Processor> = Arc::new(FnProcessor::new(
            move |inputs: &Inputs, ctx: &AgentContext| {
                let call = counter.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(millis(call)));
                ctx.charge_cost(0.5);
                let text = inputs.require_str("text")?.to_uppercase();
                Ok(Outputs::new().with("out", json!(format!("{text} #{call}"))))
            },
        ));
        factory.register(spec.clone(), proc).unwrap();
        registry.register(spec).unwrap();
        factory.spawn(name, "session:1").unwrap();
        calls
    }

    #[test]
    fn duplicated_reports_leave_the_outcome_unchanged() {
        use blueprint_resilience::{FaultInjector, FaultPlan};

        let run = |duplicate: bool| {
            let (factory, coordinator, _) = setup(&["alpha", "beta"]);
            if duplicate {
                // Every publish is delivered twice: each host drops the
                // second copy of its instruction, and the coordinator the
                // second copy of each report.
                let plan = FaultPlan::none(3).with_duplicate_rate(1.0);
                factory
                    .store()
                    .set_fault_injector(Arc::new(FaultInjector::new(plan)));
            }
            coordinator
                .execute(
                    &chain_plan("t-dup", &["alpha", "beta"]),
                    QosConstraints::none(),
                )
                .unwrap()
        };
        let clean = run(false);
        let duplicated = run(true);
        assert_eq!(completed_output(&duplicated), json!({"out": "HELLO WORLD"}));
        // Each agent runs once, so latency on the shared simulated clock
        // matches too.
        assert_eq!(duplicated.node_results, clean.node_results);
        assert!(duplicated.node_results.iter().all(|r| r.attempts == 1));
        // Each node is charged once, whatever number of reports arrived.
        assert_eq!(duplicated.budget.spent_cost, clean.budget.spent_cost);
    }

    #[test]
    fn late_report_after_a_timeout_retry_is_dropped() {
        use std::sync::atomic::Ordering;

        // The first call outlives its 300 ms deadline and answers at
        // 400 ms, while the retry (published at about 305 ms) is still
        // running; the retry answers at about 505 ms. The late answer
        // must not be taken for the retry's.
        let (factory, coordinator, registry) = setup(&["alpha"]);
        let calls = paced_agent(&factory, &registry, "slow-first", |call| {
            if call == 0 {
                400
            } else {
                200
            }
        });
        let coordinator = coordinator
            .with_report_timeout(Duration::from_millis(300))
            .with_retry_policy(RetryPolicy::standard(11));
        let report = coordinator
            .execute(
                &chain_plan("t-late", &["slow-first"]),
                QosConstraints::none(),
            )
            .unwrap();
        assert_eq!(completed_output(&report), json!({"out": "HELLO WORLD #1"}));
        assert_eq!(report.node_results[0].attempts, 2);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        // The timed-out attempt reported nothing: only the retry's cost.
        assert_eq!(report.budget.spent_cost, 0.5);
    }

    #[test]
    fn stale_outer_report_during_a_replan_is_dropped() {
        // The planned agent times out on n1 at 400 ms and answers at
        // 600 ms, while the replan's n1 (same node id, same task) runs on
        // the backup agent until about 700 ms.
        let store = StreamStore::new();
        let factory = AgentFactory::new(store.clone());
        let registry = Arc::new(AgentRegistry::new());
        paced_agent(&factory, &registry, "stalling-upper", |_| 600);
        paced_agent(&factory, &registry, "backup-upper", |_| 300);
        registry
            .record_usage("stalling-upper", "uppercase text transformer service")
            .unwrap();
        let llm = Arc::new(blueprint_llmsim::SimLlm::new(
            blueprint_llmsim::ModelProfile::large(),
        ));
        let task_planner = Arc::new(TaskPlanner::new(registry.clone(), llm));
        let coordinator = TaskCoordinator::new(store, "session:1", registry)
            .with_task_planner(Arc::clone(&task_planner))
            .with_report_timeout(Duration::from_millis(400));
        let plan = task_planner
            .plan_subtasks(
                "please uppercase this",
                &["uppercase text transformer service".to_string()],
                &[],
            )
            .unwrap();
        assert_eq!(plan.nodes[0].agent, "stalling-upper");

        let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
        match &report.outcome {
            Outcome::Replanned { reason, inner } => {
                assert!(reason.contains("timed out"), "reason: {reason}");
                assert_eq!(inner.node_results[0].node, "n1");
                assert_eq!(inner.node_results[0].agent, "backup-upper");
                assert_eq!(
                    completed_output(inner),
                    json!({"out": "PLEASE UPPERCASE THIS #0"})
                );
                // The timed-out attempt charged nothing; the backup once.
                assert_eq!(inner.budget.spent_cost, 0.5);
            }
            other => panic!("expected a replan, got {other:?}"),
        }
    }

    #[test]
    fn skippable_node_is_dropped_under_budget_pressure() {
        let (_factory, coordinator, _) = setup(&["alpha", "guardrail"]);
        let coordinator = coordinator
            .with_policy(OverrunPolicy::Continue)
            .with_degradation(DegradationLadder::new().with_skippable("guardrail"));
        let plan = chain_plan("tg", &["alpha", "guardrail"]);
        // Cap 1.2 with 1.0 projected per node: after node 1 the projection
        // overruns, so the optional guardrail node is skipped.
        let report = coordinator
            .execute(&plan, QosConstraints::none().with_max_cost(1.2))
            .unwrap();
        assert!(report.outcome.succeeded());
        assert_eq!(report.node_results.len(), 2);
        assert!(report.node_results[1].ok);
        assert_eq!(report.node_results[1].attempts, 0);
        assert_eq!(report.degradations.len(), 1);
        assert_eq!(report.degradations[0].from, "guardrail");
        assert_eq!(report.degradations[0].to, None);
    }

    /// A coordinator with a data planner over a jobs table and a parametric
    /// source, and a `counter` agent that counts the jobs handed to it.
    fn counter_runtime() -> (AgentFactory, TaskCoordinator) {
        use blueprint_datastore::{RelationalDb, RelationalSource};
        use blueprint_llmsim::{ModelProfile, ParametricSource, SimLlm};
        use blueprint_registry::DataRegistry;

        let store = StreamStore::new();
        let factory = AgentFactory::new(store.clone());
        let registry = Arc::new(AgentRegistry::new());

        let spec = AgentSpec::new("counter", "count the jobs handed to it")
            .with_input(ParamSpec::required("jobs", "job listings", DataType::Table))
            .with_output(ParamSpec::required("count", "job count", DataType::Number))
            .with_profile(CostProfile::new(0.1, 100, 1.0));
        let proc: Arc<dyn Processor> =
            Arc::new(FnProcessor::new(|inputs: &Inputs, _: &AgentContext| {
                let n = inputs
                    .require("jobs")?
                    .as_array()
                    .map(Vec::len)
                    .unwrap_or(0);
                Ok(Outputs::new().with("count", json!(n)))
            }));
        factory.register(spec.clone(), proc).unwrap();
        registry.register(spec).unwrap();
        factory.spawn("counter", "session:1").unwrap();

        let db = Arc::new(RelationalDb::new());
        db.execute("CREATE TABLE jobs (id INT, title TEXT, city TEXT)")
            .unwrap();
        db.execute(
            "INSERT INTO jobs VALUES (1, 'data scientist', 'san francisco'), \
             (2, 'data scientist', 'new york'), (3, 'recruiter', 'oakland')",
        )
        .unwrap();
        let llm = Arc::new(SimLlm::new(ModelProfile::large()));
        let mut dp = DataPlanner::new(Arc::new(DataRegistry::new()), Arc::clone(&llm));
        dp.add_source(Arc::new(RelationalSource::new("hr-db", db)));
        dp.add_source(Arc::new(ParametricSource::new("gpt", llm)));

        let coordinator =
            TaskCoordinator::new(store, "session:1", registry).with_data_planner(Arc::new(dp));
        (factory, coordinator)
    }

    /// One `counter` node with id `id`, fed the running example's jobs.
    fn counter_plan(task_id: &str, id: &str) -> TaskPlan {
        let mut plan = TaskPlan::new(
            task_id,
            "I am looking for a data scientist position in SF bay area.",
        );
        let mut inputs = BTreeMap::new();
        inputs.insert(
            "jobs".to_string(),
            InputBinding::FromData {
                query: "available job listings".into(),
            },
        );
        plan.push(PlanNode {
            id: id.into(),
            agent: "counter".into(),
            task: "count".into(),
            inputs,
            profile: CostProfile::new(0.1, 100, 1.0),
        });
        plan
    }

    #[test]
    fn from_data_binding_is_satisfied_by_data_planner() {
        let (_factory, coordinator) = counter_runtime();
        let plan = counter_plan("t9", "n1");
        let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
        // Only job 1 is a data scientist in a bay-area city.
        assert_eq!(completed_output(&report)["count"], json!(1));
        // The data plan's LLM cost was charged to the budget.
        assert!(report.budget.spent_cost > 0.0);
    }

    /// A node id that is also an id the data planner gives a spliced
    /// operator (`d2`, the knowledge lookup) names two different things in
    /// two namespaces: the plan runs like any other.
    #[test]
    fn agent_node_id_shared_with_a_spliced_operator_completes() {
        let (_factory, coordinator) = counter_runtime();
        let plan = counter_plan("t10", "d2");
        let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
        assert_eq!(completed_output(&report)["count"], json!(1));
        assert_eq!(report.node_results.len(), 1);
        assert_eq!(report.node_results[0].node, "d2");
        assert!(report.budget.spent_cost > 0.0);
    }

    fn sleep_agent(factory: &AgentFactory, registry: &AgentRegistry, name: &str, millis: u64) {
        let spec = AgentSpec::new(name, format!("{name} sleeps then answers"))
            .with_input(ParamSpec::required("text", "input text", DataType::Text))
            .with_output(ParamSpec::required("out", "answer", DataType::Text))
            .with_profile(CostProfile::new(1.0, 1_000, 0.95));
        let proc: Arc<dyn Processor> = Arc::new(FnProcessor::new(
            move |inputs: &Inputs, ctx: &AgentContext| {
                std::thread::sleep(Duration::from_millis(millis));
                let text = inputs.require_str("text")?;
                ctx.charge_cost(0.25);
                ctx.charge_latency_micros(1_000);
                Ok(Outputs::new().with("out", json!(text.to_uppercase())))
            },
        ));
        factory.register(spec.clone(), proc).unwrap();
        registry.register(spec).unwrap();
        factory.spawn(name, "session:1").unwrap();
    }

    fn fanout_plan(task_id: &str, agents: &[String]) -> TaskPlan {
        let mut plan = TaskPlan::new(task_id, "hello world");
        for (i, agent) in agents.iter().enumerate() {
            let mut inputs = BTreeMap::new();
            inputs.insert("text".to_string(), InputBinding::FromUser);
            plan.push(PlanNode {
                id: format!("n{}", i + 1),
                agent: agent.clone(),
                task: format!("branch {i}"),
                inputs,
                profile: CostProfile::new(1.0, 1_000, 0.95),
            });
        }
        plan
    }

    fn sleepy_coordinator(
        branches: usize,
        millis: u64,
    ) -> (AgentFactory, TaskCoordinator, Vec<String>) {
        let agents: Vec<String> = (0..branches).map(|i| format!("sleep-{i}")).collect();
        let store = StreamStore::new();
        let factory = AgentFactory::new(store.clone());
        let registry = Arc::new(AgentRegistry::new());
        for name in &agents {
            sleep_agent(&factory, &registry, name, millis);
        }
        let coordinator = TaskCoordinator::new(store, "session:1", registry);
        (factory, coordinator, agents)
    }

    #[test]
    fn parallel_scheduler_overlaps_independent_branches() {
        let (_factory, coordinator, agents) = sleepy_coordinator(6, 40);
        let plan = fanout_plan("t-fan", &agents);
        let start = std::time::Instant::now();
        let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
        let elapsed = start.elapsed();
        assert!(report.outcome.succeeded(), "outcome: {:?}", report.outcome);
        // Results merge back into topological order even though the branches
        // complete in arbitrary order.
        let ids: Vec<&str> = report
            .node_results
            .iter()
            .map(|r| r.node.as_str())
            .collect();
        assert_eq!(ids, ["n1", "n2", "n3", "n4", "n5", "n6"]);
        assert!((report.budget.spent_cost - 6.0 * 0.25).abs() < 1e-9);
        // Six 40 ms branches overlap; a sequential walk needs at least 240 ms.
        assert!(elapsed < Duration::from_millis(200), "took {elapsed:?}");
    }

    #[test]
    fn sequential_mode_walks_one_node_at_a_time() {
        let (_factory, coordinator, agents) = sleepy_coordinator(4, 30);
        let coordinator = coordinator.with_scheduler(SchedulerMode::Sequential);
        let plan = fanout_plan("t-seq", &agents);
        let start = std::time::Instant::now();
        let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
        assert!(report.outcome.succeeded(), "outcome: {:?}", report.outcome);
        assert!(start.elapsed() >= Duration::from_millis(120));
    }

    #[test]
    fn bounded_parallelism_caps_in_flight_nodes() {
        let (_factory, coordinator, agents) = sleepy_coordinator(6, 30);
        let coordinator = coordinator.with_scheduler(SchedulerMode::Parallel { max_in_flight: 2 });
        let plan = fanout_plan("t-cap", &agents);
        let start = std::time::Instant::now();
        let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
        assert!(report.outcome.succeeded(), "outcome: {:?}", report.outcome);
        // Six 30 ms branches two at a time: at least three full waves.
        assert!(start.elapsed() >= Duration::from_millis(90));
    }

    #[test]
    fn memo_cache_replays_repeated_chain_at_zero_cost() {
        let (_factory, coordinator, _registry) = setup(&["echo-1", "echo-2"]);
        let coordinator = coordinator.with_memoization(Arc::new(MemoCache::new(64)));
        let plan = chain_plan("t-memo", &["echo-1", "echo-2"]);

        let first = coordinator.execute(&plan, QosConstraints::none()).unwrap();
        assert!(first.outcome.succeeded(), "outcome: {:?}", first.outcome);
        assert_eq!(first.cache.hits, 0);
        assert!(first.node_results.iter().all(|r| !r.cached));
        let spent = first.budget.spent_cost;
        assert!(spent > 0.0);

        // The same plan again: every node is a hit, nothing is charged, and
        // the replayed outputs flow through downstream bindings unchanged.
        let second = coordinator.execute(&plan, QosConstraints::none()).unwrap();
        assert!(second.outcome.succeeded(), "outcome: {:?}", second.outcome);
        assert_eq!(second.cache.hits, 2);
        assert!(second
            .node_results
            .iter()
            .all(|r| r.cached && r.attempts == 0 && r.cost == 0.0));
        assert_eq!(second.budget.spent_cost, 0.0);
        assert!((second.cache.cost_saved - spent).abs() < 1e-9);
        assert!(second.cache.latency_saved_micros > 0);
        let output = |report: &ExecutionReport| match &report.outcome {
            Outcome::Completed { output } => output.clone(),
            other => panic!("unexpected outcome: {other:?}"),
        };
        assert_eq!(output(&first), output(&second));
    }

    #[test]
    fn replan_checkpoints_against_its_own_plan() {
        // `flaky-upper` fails, so the plan [flaky-upper, pricey-reverser]
        // replans onto [backup-upper, pricey-reverser]. After backup-upper,
        // 0.5 is spent and pricey-reverser's 3.0 is still to run: 3.5
        // projected against a 3.2 cap, exactly as when the replacement plan
        // runs on its own. A replan whose ledger started from the replaced
        // plan's leftover projection (3.0 after flaky-upper) read 2.5 and
        // completed over its cap.
        let store = StreamStore::new();
        let factory = AgentFactory::new(store.clone());
        let registry = Arc::new(AgentRegistry::new());
        let spec = |name: &str, description: &str, cost: f64| {
            AgentSpec::new(name, description)
                .with_input(ParamSpec::required("text", "input", DataType::Text))
                .with_output(ParamSpec::required("out", "output", DataType::Text))
                .with_profile(CostProfile::new(cost, 1_000, 0.95))
        };
        let upper = "uppercase text transformer service";
        let reverse = "reverse the characters of a text";
        let fail_proc: Arc<dyn Processor> = Arc::new(FnProcessor::new(
            |_: &Inputs, _: &AgentContext| -> blueprint_agents::Result<Outputs> {
                Err(blueprint_agents::AgentError::ProcessorFailed(
                    "service unavailable".into(),
                ))
            },
        ));
        factory
            .register(spec("flaky-upper", upper, 1.0), fail_proc)
            .unwrap();
        upper_agent(&factory, "backup-upper", 1.0);
        upper_agent(&factory, "pricey-reverser", 3.0);
        for s in [
            spec("flaky-upper", upper, 1.0),
            spec("backup-upper", upper, 1.0),
            spec("pricey-reverser", reverse, 3.0),
        ] {
            factory.spawn(&s.name, "session:1").unwrap();
            registry.register(s).unwrap();
        }
        registry.record_usage("flaky-upper", upper).unwrap();
        let llm = Arc::new(blueprint_llmsim::SimLlm::new(
            blueprint_llmsim::ModelProfile::large(),
        ));
        let task_planner = Arc::new(TaskPlanner::new(registry.clone(), llm));
        let coordinator = TaskCoordinator::new(store, "session:1", registry)
            .with_task_planner(Arc::clone(&task_planner))
            .with_report_timeout(Duration::from_secs(5));
        let subtasks = [upper.to_string(), reverse.to_string()];
        let cap = QosConstraints::none().with_max_cost(3.2);

        let plan = task_planner
            .plan_subtasks("please uppercase this", &subtasks, &[])
            .unwrap();
        let agents: Vec<&str> = plan.nodes.iter().map(|n| n.agent.as_str()).collect();
        assert_eq!(agents, ["flaky-upper", "pricey-reverser"]);
        let replanned = coordinator.execute(&plan, cap).unwrap();

        let replacement = task_planner
            .plan_subtasks("please uppercase this", &subtasks, &["flaky-upper".into()])
            .unwrap();
        let direct = coordinator.execute(&replacement, cap).unwrap();
        let aborted = Outcome::Aborted {
            reason: "projected costs exceed the budget".into(),
        };
        assert_eq!(direct.outcome, aborted);
        assert_eq!(direct.budget.spent_cost, 0.5);

        match &replanned.outcome {
            Outcome::Replanned { inner, .. } => {
                assert_eq!(inner.node_results[0].agent, "backup-upper");
                assert_eq!(inner.outcome, aborted);
                assert_eq!(inner.budget.spent_cost, 0.5);
            }
            other => panic!("expected a replan, got {other:?}"),
        }
    }
}
