//! The agent host: runtime harness wiring a spec + processor to the streams.
//!
//! A host subscribes the agent to (a) `execute-agent` control messages
//! addressed to it (centralized activation) and (b) its declared stream
//! bindings (decentralized activation), feeds arriving messages through the
//! agent's [`TriggerNet`], and dispatches fires onto the agent's
//! [`WorkerPool`]. After each processor run the host publishes the outputs
//! and an [`AgentReport`] carrying the actual QoS costs — closing the loop
//! with the task coordinator's budget (§V-H).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Select, Sender};
use serde_json::Value;

use blueprint_observability::{Counter, SpanId, Tracer};
use blueprint_streams::{Message, MessageId, StreamStore, Subscription, Tag};

use crate::context::AgentContext;
use crate::error::AgentError;
use crate::param::{Inputs, Outputs};
use crate::processor::Processor;
use crate::protocol::{AgentReport, ExecuteAgent};
use crate::spec::AgentSpec;
use crate::trigger::TriggerNet;
use crate::worker::WorkerPool;
use crate::Result;

/// Stream segment (under the scope) where agent reports are published.
pub const REPORTS_SEGMENT: &str = "reports";

/// How many of its most recently accepted instruction ids a host remembers,
/// to drop a duplicated delivery of an instruction instead of running the
/// agent twice.
const RECENT_INSTRUCTIONS: usize = 64;

/// Fixed-size set of the most recently accepted instruction ids; the oldest
/// id is forgotten first.
struct RecentInstructions {
    ids: [Option<MessageId>; RECENT_INSTRUCTIONS],
    next: usize,
}

impl RecentInstructions {
    fn new() -> Self {
        RecentInstructions {
            ids: [None; RECENT_INSTRUCTIONS],
            next: 0,
        }
    }

    /// Records `id`; false if it is already among the recent ids.
    fn accept(&mut self, id: MessageId) -> bool {
        if self.ids.contains(&Some(id)) {
            return false;
        }
        self.ids[self.next] = Some(id);
        self.next = (self.next + 1) % RECENT_INSTRUCTIONS;
        true
    }
}

/// Counters describing host activity.
#[derive(Debug, Clone, Default)]
pub struct HostStats {
    /// Fires caused by explicit instructions.
    pub instructed_fires: u64,
    /// Fires caused by autonomous tag monitoring.
    pub autonomous_fires: u64,
    /// Processor runs that returned an error or panicked.
    pub failures: u64,
}

struct Shared {
    spec: AgentSpec,
    processor: Arc<dyn Processor>,
    store: StreamStore,
    scope: String,
    instructed: AtomicU64,
    autonomous: AtomicU64,
    failures: AtomicU64,
    /// The store's tracer and the `blueprint.agents.*` instruments,
    /// resolved once when the host starts.
    tracer: Tracer,
    invocations: Counter,
    obs_failures: Counter,
}

impl Shared {
    /// Runs the processor once, publishing outputs and a report. When
    /// tracing is armed, the run is recorded as an `invoke:<agent>` span
    /// parented under the coordinator-side node span carried by the
    /// instruction (`span_parent`), and the span is closed *before* the
    /// report is published so it is fully recorded by the time the
    /// coordinator observes the completion.
    ///
    /// `instruction` is the id of the `execute-agent` message that caused
    /// the run (`MessageId(0)` for an autonomous fire); the report echoes it.
    fn run(
        &self,
        instruction: MessageId,
        inputs: Inputs,
        output_stream: &str,
        task_id: &str,
        node_id: &str,
        span_parent: Option<u64>,
    ) {
        self.invocations.inc();
        let mut span = match span_parent {
            Some(pid) => self.tracer.child_span(
                "agents",
                format_args!("invoke:{}", self.spec.name),
                SpanId(pid),
            ),
            None => self
                .tracer
                .span("agents", format_args!("invoke:{}", self.spec.name)),
        };
        let ctx = AgentContext::new(
            self.store.clone(),
            self.scope.clone(),
            self.spec.name.clone(),
        );
        let validated = inputs.validate(&self.spec.inputs);
        let result: Result<Outputs> = match validated {
            Ok(inputs) => {
                let processor = Arc::clone(&self.processor);
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    processor.process(&inputs, &ctx)
                })) {
                    Ok(r) => r,
                    Err(payload) => {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "unknown panic".to_string());
                        Err(AgentError::ProcessorPanicked(msg))
                    }
                }
            }
            Err(e) => Err(e),
        };

        match &result {
            Ok(outputs) => {
                self.publish_outputs(outputs, output_stream);
            }
            Err(_) => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                self.obs_failures.inc();
            }
        }

        span.attr("ok", if result.is_ok() { "true" } else { "false" });
        if !task_id.is_empty() {
            span.attr("task", task_id);
        }
        if !node_id.is_empty() {
            span.attr("node", node_id);
        }
        span.end();

        // The outputs already went to the output stream; the report takes
        // them by move.
        let (error, outputs) = match result {
            Ok(outputs) => (None, outputs.into_json()),
            Err(e) => (Some(e.to_string()), Value::Null),
        };
        let report = AgentReport {
            instruction,
            agent: self.spec.name.clone(),
            task_id: task_id.to_string(),
            node_id: node_id.to_string(),
            ok: error.is_none(),
            error,
            cost: ctx.cost_charged(),
            latency_micros: ctx.latency_micros(),
            outputs,
        };
        let reports_stream = format!("{}:{}", self.scope, REPORTS_SEGMENT);
        let _ = self.store.publish_to(
            reports_stream,
            ["reports"],
            report.into_message().from_producer(self.spec.name.clone()),
        );
    }

    /// Publishes one data message per output parameter onto `output_stream`,
    /// tagged with the parameter name and the agent's configured output tags.
    fn publish_outputs(&self, outputs: &Outputs, output_stream: &str) {
        let tags: Vec<Tag> = self.spec.output_tags.iter().map(Tag::new).collect();
        for (param, value) in outputs.iter() {
            let msg = Message::data_json(value.clone())
                .with_tag(param.as_str())
                .with_tags(tags.iter().cloned())
                .from_producer(self.spec.name.clone());
            let _ = self
                .store
                .publish_to(output_stream.to_string(), Vec::<Tag>::new(), msg);
        }
    }
}

/// A running agent instance.
pub struct AgentHost {
    shared: Arc<Shared>,
    pool: Arc<WorkerPool>,
    listener: Option<JoinHandle<()>>,
    stop_tx: Option<Sender<()>>,
    running: Arc<AtomicBool>,
}

impl AgentHost {
    /// Creates and starts a host for `spec` + `processor`, scoped under
    /// `scope` (e.g. `session:1`). The spec is validated first. Processor
    /// runs record an `invoke:<agent>` span into the store's tracer and
    /// report into its `blueprint.agents.*` instruments; consumed messages
    /// are flow edges of the tracer.
    pub fn start(
        spec: AgentSpec,
        processor: Arc<dyn Processor>,
        store: StreamStore,
        scope: impl Into<String>,
    ) -> Result<Self> {
        spec.validate()?;
        let scope = scope.into();
        let pool = Arc::new(WorkerPool::new(&spec.name, spec.deployment.workers));
        let obs = store.observability();
        let shared = Arc::new(Shared {
            tracer: obs.tracer.clone(),
            invocations: obs.metrics.counter("blueprint.agents.invocations"),
            obs_failures: obs.metrics.counter("blueprint.agents.failures"),
            spec,
            processor,
            store,
            scope,
            instructed: AtomicU64::new(0),
            autonomous: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        });

        // Build subscriptions before spawning the listener so no message
        // published after `start` returns can be missed.
        let mut instruction_sub: Option<Subscription> = None;
        if shared.spec.activation.accepts_instructions() {
            // Scope-selective: instructions live on `<scope>:instructions`,
            // so an instance only answers instructions addressed to its own
            // session — a same-named agent in another session must not fire.
            instruction_sub = Some(shared.store.subscribe(
                blueprint_streams::Selector::Scope(shared.scope.clone()),
                blueprint_streams::TagFilter::any_of([format!("agent:{}", shared.spec.name)]),
            )?);
        }
        // Each binding's parameter and the stream name its consumes are
        // recorded under.
        let mut binding_subs: Vec<(String, String, Subscription)> = Vec::new();
        if shared.spec.activation.monitors_tags() {
            for b in &shared.spec.bindings {
                // Autonomous agents monitor streams *within the session*
                // (§V-E); an unrestricted selector is narrowed to this
                // instance's scope, outside the coordinator's task streams,
                // so parallel sessions stay isolated and a plan's outputs
                // never re-fire tag-triggered agents.
                let selector = b.selector.clone().narrowed_to(&shared.scope);
                let sub = shared.store.subscribe(selector, b.filter.clone())?;
                binding_subs.push((b.param.clone(), format!("binding:{}", b.param), sub));
            }
        }

        let (stop_tx, stop_rx) = bounded::<()>(1);
        let running = Arc::new(AtomicBool::new(true));

        let listener = {
            let shared = Arc::clone(&shared);
            let pool = Arc::clone(&pool);
            let running = Arc::clone(&running);
            std::thread::Builder::new()
                .name(format!("agent-{}-listener", shared.spec.name))
                .spawn(move || {
                    let mut net = TriggerNet::new(
                        binding_subs.iter().map(|(p, _, _)| p.clone()),
                        shared.spec.pairing,
                    );
                    let mut accepted = RecentInstructions::new();
                    loop {
                        let mut select = Select::new();
                        let stop_idx = select.recv(&stop_rx);
                        let instr_idx = instruction_sub.as_ref().map(|s| select.recv(s.receiver()));
                        let binding_base: Vec<usize> = binding_subs
                            .iter()
                            .map(|(_, _, s)| select.recv(s.receiver()))
                            .collect();

                        let op = select.select();
                        let idx = op.index();
                        if idx == stop_idx {
                            let _ = op.recv(&stop_rx);
                            break;
                        }
                        if Some(idx) == instr_idx {
                            let sub = instruction_sub.as_ref().expect("instruction sub exists");
                            let Ok(msg) = op.recv(sub.receiver()) else {
                                break;
                            };
                            shared
                                .store
                                .record_consume(&shared.spec.name, "instructions", &msg);
                            if let Some(exec) = ExecuteAgent::from_message(&msg) {
                                if exec.agent == shared.spec.name && accepted.accept(msg.id) {
                                    shared.instructed.fetch_add(1, Ordering::Relaxed);
                                    let shared2 = Arc::clone(&shared);
                                    let instruction = msg.id;
                                    pool.submit(move || {
                                        shared2.run(
                                            instruction,
                                            exec.inputs,
                                            &exec.output_stream,
                                            &exec.task_id,
                                            &exec.node_id,
                                            exec.span,
                                        );
                                    });
                                }
                            }
                            continue;
                        }
                        // A binding message.
                        if let Some(pos) = binding_base.iter().position(|&b| b == idx) {
                            let (param, stream, sub) = &binding_subs[pos];
                            let Ok(msg) = op.recv(sub.receiver()) else {
                                break;
                            };
                            if msg.is_eos() {
                                continue;
                            }
                            shared.store.record_consume(&shared.spec.name, stream, &msg);
                            if let Some(inputs) = net.offer(param, msg.payload().clone()) {
                                shared.autonomous.fetch_add(1, Ordering::Relaxed);
                                let shared2 = Arc::clone(&shared);
                                let out_stream =
                                    format!("{}:{}:out", shared.scope, shared.spec.name);
                                pool.submit(move || {
                                    shared2.run(
                                        MessageId::default(),
                                        inputs,
                                        &out_stream,
                                        "",
                                        "",
                                        None,
                                    );
                                });
                            }
                        }
                    }
                    running.store(false, Ordering::SeqCst);
                })
                .map_err(|e| AgentError::ProcessorFailed(format!("spawn listener: {e}")))?
        };

        Ok(AgentHost {
            shared,
            pool,
            listener: Some(listener),
            stop_tx: Some(stop_tx),
            running,
        })
    }

    /// The agent's spec.
    pub fn spec(&self) -> &AgentSpec {
        &self.shared.spec
    }

    /// The scope this instance runs under.
    pub fn scope(&self) -> &str {
        &self.shared.scope
    }

    /// True while the listener is alive.
    pub fn is_running(&self) -> bool {
        self.running.load(Ordering::SeqCst)
    }

    /// Snapshot of the worker pool's counters.
    pub fn worker_stats(&self) -> crate::worker::WorkerStats {
        self.pool.stats()
    }

    /// Snapshot of fire/failure counters.
    pub fn stats(&self) -> HostStats {
        HostStats {
            instructed_fires: self.shared.instructed.load(Ordering::Relaxed),
            autonomous_fires: self.shared.autonomous.load(Ordering::Relaxed),
            failures: self.shared.failures.load(Ordering::Relaxed),
        }
    }

    /// Executes the processor synchronously on the calling thread, bypassing
    /// streams — used by tests and by operators embedding an agent directly.
    pub fn execute_now(&self, inputs: Inputs) -> Result<Outputs> {
        let ctx = AgentContext::new(
            self.shared.store.clone(),
            self.shared.scope.clone(),
            self.shared.spec.name.clone(),
        );
        let inputs = inputs.validate(&self.shared.spec.inputs)?;
        self.shared.processor.process(&inputs, &ctx)
    }

    /// Stops the listener and joins it. Worker jobs already queued still run.
    pub fn stop(&mut self) {
        if let Some(tx) = self.stop_tx.take() {
            let _ = tx.send(());
        }
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
    }
}

impl Drop for AgentHost {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{DataType, ParamSpec};
    use crate::processor::FnProcessor;
    use crate::spec::StreamBinding;
    use blueprint_streams::{Selector, StreamId, TagFilter};
    use serde_json::json;
    use std::time::Duration;

    fn upper_processor() -> Arc<dyn Processor> {
        Arc::new(FnProcessor::new(|inputs: &Inputs, ctx: &AgentContext| {
            let text = inputs.require_str("text")?;
            ctx.charge_cost(0.1);
            ctx.charge_latency_micros(100);
            Ok(Outputs::new().with("upper", json!(text.to_uppercase())))
        }))
    }

    fn upper_spec() -> AgentSpec {
        AgentSpec::new("upper", "uppercases text")
            .with_input(ParamSpec::required("text", "input text", DataType::Text))
            .with_output(ParamSpec::required("upper", "uppercased", DataType::Text))
    }

    #[test]
    fn instruction_drives_execution_and_report() {
        let store = StreamStore::new();
        let _host =
            AgentHost::start(upper_spec(), upper_processor(), store.clone(), "session:1").unwrap();
        let out_sub = store
            .subscribe(
                Selector::Stream(StreamId::new("session:1:result")),
                TagFilter::all(),
            )
            .unwrap();
        let report_sub = store
            .subscribe(Selector::AllStreams, TagFilter::any_of(["agent-report"]))
            .unwrap();

        let instr = ExecuteAgent {
            agent: "upper".into(),
            inputs: Inputs::new().with("text", json!("hello")),
            output_stream: "session:1:result".into(),
            task_id: "t1".into(),
            node_id: "n1".into(),
            span: None,
        };
        let published = store
            .publish_to(
                "session:1:instructions",
                ["instructions"],
                instr.into_message(),
            )
            .unwrap();

        let out = out_sub.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(out.payload(), &json!("HELLO"));
        assert!(out.has_tag(&Tag::new("upper")));
        assert_eq!(out.producer, "upper");

        let report_msg = report_sub.recv_timeout(Duration::from_secs(2)).unwrap();
        let report = AgentReport::from_message(&report_msg).unwrap();
        assert!(report.ok);
        assert_eq!(report.instruction, published.id);
        assert_eq!(report.task_id, "t1");
        assert!((report.cost - 0.1).abs() < 1e-9);
        assert_eq!(report.latency_micros, 100);
    }

    #[test]
    fn duplicated_instruction_runs_the_agent_once() {
        use blueprint_resilience::{FaultInjector, FaultPlan};
        use std::sync::atomic::AtomicUsize;

        let store = StreamStore::new();
        // Every publish is delivered twice: the instruction, the output and
        // the report.
        store.set_fault_injector(Arc::new(FaultInjector::new(
            FaultPlan::none(5).with_duplicate_rate(1.0),
        )));
        let invocations = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&invocations);
        let proc: Arc<dyn Processor> = Arc::new(FnProcessor::new(
            move |inputs: &Inputs, _: &AgentContext| {
                counted.fetch_add(1, Ordering::SeqCst);
                let text = inputs.require_str("text")?;
                Ok(Outputs::new().with("upper", json!(text.to_uppercase())))
            },
        ));
        let host = AgentHost::start(upper_spec(), proc, store.clone(), "session:1").unwrap();
        let out_sub = store
            .subscribe(
                Selector::Stream(StreamId::new("session:1:result")),
                TagFilter::all(),
            )
            .unwrap();
        let instr = ExecuteAgent {
            agent: "upper".into(),
            inputs: Inputs::new().with("text", json!("once")),
            output_stream: "session:1:result".into(),
            task_id: "t1".into(),
            node_id: "n1".into(),
            span: None,
        };
        store
            .publish_to(
                "session:1:instructions",
                ["instructions"],
                instr.into_message(),
            )
            .unwrap();
        // Collect every delivery until the host has been quiet for 300 ms.
        let mut outputs = std::collections::BTreeSet::new();
        while let Ok(msg) = out_sub.recv_timeout(Duration::from_millis(300)) {
            assert_eq!(msg.payload(), &json!("ONCE"));
            outputs.insert(msg.id);
        }
        assert_eq!(invocations.load(Ordering::SeqCst), 1);
        assert_eq!(host.stats().instructed_fires, 1);
        // One output publish, which the fault delivered twice.
        assert_eq!(outputs.len(), 1);
    }

    #[test]
    fn instruction_for_other_agent_is_ignored() {
        let store = StreamStore::new();
        let host =
            AgentHost::start(upper_spec(), upper_processor(), store.clone(), "session:1").unwrap();
        let instr = ExecuteAgent {
            agent: "someone-else".into(),
            inputs: Inputs::new(),
            output_stream: "session:1:out".into(),
            task_id: "t".into(),
            node_id: "n".into(),
            span: None,
        };
        store
            .publish_to(
                "session:1:instructions",
                ["instructions"],
                instr.into_message(),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(host.stats().instructed_fires, 0);
    }

    #[test]
    fn tag_monitoring_fires_autonomously() {
        let store = StreamStore::new();
        let spec = upper_spec().with_binding(StreamBinding::tagged("text", ["nlq"]));
        let host = AgentHost::start(spec, upper_processor(), store.clone(), "session:9").unwrap();
        let out_sub = store
            .subscribe(
                Selector::Stream(StreamId::new("session:9:upper:out")),
                TagFilter::all(),
            )
            .unwrap();
        store
            .publish_to(
                "session:9:query",
                Vec::<Tag>::new(),
                Message::data("find jobs")
                    .with_tag("NLQ")
                    .from_producer("user"),
            )
            .unwrap();
        let out = out_sub.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(out.payload(), &json!("FIND JOBS"));
        // Wait for the counter (updated on the listener thread before submit).
        for _ in 0..100 {
            if host.stats().autonomous_fires == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(host.stats().autonomous_fires, 1);
    }

    #[test]
    fn failed_processor_reports_error() {
        let store = StreamStore::new();
        let spec = AgentSpec::new("strict", "requires a field").with_input(ParamSpec::required(
            "must",
            "required",
            DataType::Text,
        ));
        let proc: Arc<dyn Processor> =
            Arc::new(FnProcessor::new(|_: &Inputs, _: &AgentContext| {
                Ok(Outputs::new())
            }));
        let host = AgentHost::start(spec, proc, store.clone(), "session:1").unwrap();
        let report_sub = store
            .subscribe(Selector::AllStreams, TagFilter::any_of(["agent-report"]))
            .unwrap();
        let instr = ExecuteAgent {
            agent: "strict".into(),
            inputs: Inputs::new(), // missing `must`
            output_stream: "session:1:out".into(),
            task_id: "t".into(),
            node_id: "n".into(),
            span: None,
        };
        store
            .publish_to(
                "session:1:instructions",
                ["instructions"],
                instr.into_message(),
            )
            .unwrap();
        let report =
            AgentReport::from_message(&report_sub.recv_timeout(Duration::from_secs(2)).unwrap())
                .unwrap();
        assert!(!report.ok);
        assert!(report.error.unwrap().contains("must"));
        for _ in 0..100 {
            if host.stats().failures == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(host.stats().failures, 1);
    }

    #[test]
    fn panicking_processor_reports_and_host_survives() {
        let store = StreamStore::new();
        let spec = AgentSpec::new("bomb", "always panics").with_input(ParamSpec::required(
            "text",
            "t",
            DataType::Text,
        ));
        let proc: Arc<dyn Processor> = Arc::new(FnProcessor::new(
            |_: &Inputs, _: &AgentContext| -> Result<Outputs> { panic!("kaboom") },
        ));
        let _host = AgentHost::start(spec, proc, store.clone(), "session:1").unwrap();
        let report_sub = store
            .subscribe(Selector::AllStreams, TagFilter::any_of(["agent-report"]))
            .unwrap();
        for i in 0..2 {
            let instr = ExecuteAgent {
                agent: "bomb".into(),
                inputs: Inputs::new().with("text", json!("x")),
                output_stream: "session:1:out".into(),
                task_id: format!("t{i}"),
                node_id: "n".into(),
                span: None,
            };
            store
                .publish_to(
                    "session:1:instructions",
                    ["instructions"],
                    instr.into_message(),
                )
                .unwrap();
        }
        // Both executions produce failure reports: the agent restarted.
        for _ in 0..2 {
            let report = AgentReport::from_message(
                &report_sub.recv_timeout(Duration::from_secs(2)).unwrap(),
            )
            .unwrap();
            assert!(!report.ok);
            assert!(report.error.unwrap().contains("kaboom"));
        }
    }

    #[test]
    fn execute_now_runs_inline() {
        let store = StreamStore::new();
        let host = AgentHost::start(upper_spec(), upper_processor(), store, "s").unwrap();
        let out = host
            .execute_now(Inputs::new().with("text", json!("abc")))
            .unwrap();
        assert_eq!(out.get("upper"), Some(&json!("ABC")));
    }

    #[test]
    fn worker_pool_runs_instructions_concurrently() {
        // Two instructions must be in flight at once: each processor blocks
        // on a 2-party barrier, so completion proves concurrency (§V-B:
        // "each agent has a pool of workers").
        let store = StreamStore::new();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let barrier2 = Arc::clone(&barrier);
        let mut spec = AgentSpec::new("parallel", "meets at a barrier")
            .with_input(ParamSpec::required("text", "t", DataType::Text))
            .with_output(ParamSpec::required("out", "o", DataType::Text));
        spec.deployment.workers = 2;
        let proc: Arc<dyn Processor> = Arc::new(FnProcessor::new(
            move |inputs: &Inputs, _: &AgentContext| {
                barrier2.wait();
                Ok(Outputs::new().with("out", json!(inputs.require_str("text")?)))
            },
        ));
        let _host = AgentHost::start(spec, proc, store.clone(), "session:1").unwrap();
        let report_sub = store
            .subscribe(Selector::AllStreams, TagFilter::any_of(["agent-report"]))
            .unwrap();
        for i in 0..2 {
            let instr = ExecuteAgent {
                agent: "parallel".into(),
                inputs: Inputs::new().with("text", json!(format!("m{i}"))),
                output_stream: "session:1:out".into(),
                task_id: format!("t{i}"),
                node_id: "n".into(),
                span: None,
            };
            store
                .publish_to(
                    "session:1:instructions",
                    ["instructions"],
                    instr.into_message(),
                )
                .unwrap();
        }
        // Both reports arrive only if the two processors met at the barrier.
        for _ in 0..2 {
            let report = AgentReport::from_message(
                &report_sub.recv_timeout(Duration::from_secs(5)).unwrap(),
            )
            .unwrap();
            assert!(report.ok);
        }
    }

    #[test]
    fn stop_terminates_listener() {
        let store = StreamStore::new();
        let mut host = AgentHost::start(upper_spec(), upper_processor(), store, "s").unwrap();
        assert!(host.is_running());
        host.stop();
        for _ in 0..100 {
            if !host.is_running() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!host.is_running());
    }

    #[test]
    fn instructions_are_session_isolated() {
        // Two instances of the same agent in different scopes: only the
        // instance whose scope carries the instruction fires.
        let store = StreamStore::new();
        let host1 =
            AgentHost::start(upper_spec(), upper_processor(), store.clone(), "session:1").unwrap();
        let host2 =
            AgentHost::start(upper_spec(), upper_processor(), store.clone(), "session:2").unwrap();
        let instr = ExecuteAgent {
            agent: "upper".into(),
            inputs: Inputs::new().with("text", json!("hello")),
            output_stream: "session:1:result".into(),
            task_id: "t1".into(),
            node_id: "n1".into(),
            span: None,
        };
        store
            .publish_to(
                "session:1:instructions",
                ["instructions"],
                instr.into_message(),
            )
            .unwrap();
        for _ in 0..100 {
            if host1.stats().instructed_fires == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(host1.stats().instructed_fires, 1);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(host2.stats().instructed_fires, 0);
    }

    #[test]
    fn multi_input_join_via_streams() {
        // Two tagged inputs must both arrive before the agent fires (Fig 4).
        let store = StreamStore::new();
        let spec = AgentSpec::new("matcher", "joins profile and jobs")
            .with_input(ParamSpec::required("profile", "p", DataType::Json))
            .with_input(ParamSpec::required("jobs", "j", DataType::List))
            .with_output(ParamSpec::required("matches", "m", DataType::List))
            .with_binding(StreamBinding::tagged("profile", ["profile"]))
            .with_binding(StreamBinding::tagged("jobs", ["jobs"]));
        let proc: Arc<dyn Processor> =
            Arc::new(FnProcessor::new(|inputs: &Inputs, _: &AgentContext| {
                let n = inputs
                    .require("jobs")?
                    .as_array()
                    .map(Vec::len)
                    .unwrap_or(0);
                Ok(Outputs::new().with("matches", json!([format!("{n} jobs considered")])))
            }));
        let host = AgentHost::start(spec, proc, store.clone(), "session:3").unwrap();
        let out_sub = store
            .subscribe(
                Selector::Stream(StreamId::new("session:3:matcher:out")),
                TagFilter::all(),
            )
            .unwrap();
        store
            .publish_to(
                "session:3:p",
                Vec::<Tag>::new(),
                Message::data_json(json!({"name":"a"})).with_tag("profile"),
            )
            .unwrap();
        // Not fired yet: only one place filled.
        assert!(out_sub.recv_timeout(Duration::from_millis(80)).is_err());
        store
            .publish_to(
                "session:3:j",
                Vec::<Tag>::new(),
                Message::data_json(json!([1, 2, 3])).with_tag("jobs"),
            )
            .unwrap();
        let out = out_sub.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(out.payload(), &json!(["3 jobs considered"]));
        assert!(host.stats().autonomous_fires >= 1);
    }
}
