//! The AgentFactory: per-container server spawning agent instances (Fig 2).
//!
//! Each container runs an `AgentFactory` that knows how to construct its
//! agents (spec + processor). Instances can be spawned per session scope,
//! scaled out (several instances of the same agent), stopped, and restarted
//! after failure. In the paper's production setting each factory would be a
//! container in a cluster; here containers are modelled in-process, which
//! preserves the scheduling and fault-tolerance semantics.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use blueprint_resilience::{BreakerRegistry, FaultInjector, InjectedFault};
use blueprint_streams::StreamStore;

use crate::context::AgentContext;
use crate::error::AgentError;
use crate::host::{AgentHost, HostStats};
use crate::param::{Inputs, Outputs};
use crate::processor::Processor;
use crate::spec::AgentSpec;
use crate::Result;

/// Wraps a registered processor with fault injection: each invocation asks
/// the injector (keyed by agent name + call ordinal) whether to panic or run
/// slow before delegating. Panics are caught by the host's crash recovery,
/// so injected panics exercise the same path as real processor bugs.
struct FaultedProcessor {
    inner: Arc<dyn Processor>,
    injector: Arc<FaultInjector>,
    agent: String,
    calls: AtomicU64,
}

impl Processor for FaultedProcessor {
    fn process(&self, inputs: &Inputs, ctx: &AgentContext) -> Result<Outputs> {
        if !self.injector.processor_armed() {
            return self.inner.process(inputs, ctx);
        }
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        match self
            .injector
            .processor_fault(&format!("{}#{}", self.agent, n))
        {
            Some(InjectedFault::PanicProcessor) => {
                panic!("injected fault: processor panic in agent `{}`", self.agent)
            }
            Some(InjectedFault::SlowProcessor { micros }) => {
                // Real sleep (capped) so timeouts actually fire, plus the
                // simulated latency charge so QoS accounting sees the stall.
                std::thread::sleep(std::time::Duration::from_micros(micros.min(250_000)));
                ctx.charge_latency_micros(micros);
            }
            _ => {}
        }
        self.inner.process(inputs, ctx)
    }
}

/// Aggregated statistics for a factory ("container").
#[derive(Debug, Clone, Default)]
pub struct ContainerStats {
    /// Distinct agents registered.
    pub registered_agents: usize,
    /// Instances currently running.
    pub running_instances: usize,
    /// Instances restarted after failure.
    pub restarts: u64,
}

/// Handle onto one running instance.
pub struct InstanceHandle {
    /// Unique instance id within the factory.
    pub id: u64,
    /// Agent name.
    pub agent: String,
    /// Session scope the instance serves.
    pub scope: String,
    host: AgentHost,
}

impl InstanceHandle {
    /// Runtime statistics of this instance.
    pub fn stats(&self) -> HostStats {
        self.host.stats()
    }

    /// The underlying host (for inline execution in tests/operators).
    pub fn host(&self) -> &AgentHost {
        &self.host
    }
}

struct Registration {
    spec: AgentSpec,
    processor: Arc<dyn Processor>,
}

/// Spawns and supervises agent instances.
pub struct AgentFactory {
    store: StreamStore,
    registrations: Mutex<HashMap<String, Registration>>,
    instances: Mutex<HashMap<u64, InstanceHandle>>,
    next_instance: AtomicU64,
    restarts: AtomicU64,
    faults: Mutex<Option<Arc<FaultInjector>>>,
    breakers: Mutex<Option<Arc<BreakerRegistry>>>,
}

impl AgentFactory {
    /// Creates a factory bound to a stream store.
    pub fn new(store: StreamStore) -> Self {
        AgentFactory {
            store,
            registrations: Mutex::new(HashMap::new()),
            instances: Mutex::new(HashMap::new()),
            next_instance: AtomicU64::new(1),
            restarts: AtomicU64::new(0),
            faults: Mutex::new(None),
            breakers: Mutex::new(None),
        }
    }

    /// Attaches a fault injector: processors of instances spawned *after*
    /// this call are wrapped with panic/slowdown injection.
    pub fn set_fault_injector(&self, injector: Arc<FaultInjector>) {
        *self.faults.lock() = Some(injector);
    }

    /// Attaches a circuit-breaker registry; restarted instances re-enter the
    /// breaker's half-open state instead of being trusted blindly.
    pub fn set_breakers(&self, breakers: Arc<BreakerRegistry>) {
        *self.breakers.lock() = Some(breakers);
    }

    /// The attached breaker registry, if any.
    pub fn breakers(&self) -> Option<Arc<BreakerRegistry>> {
        self.breakers.lock().clone()
    }

    /// The stream store this factory deploys against.
    pub fn store(&self) -> &StreamStore {
        &self.store
    }

    /// Registers an agent constructor (spec + processor). Re-registering a
    /// name replaces the previous constructor.
    pub fn register(&self, spec: AgentSpec, processor: Arc<dyn Processor>) -> Result<()> {
        spec.validate()?;
        self.registrations
            .lock()
            .insert(spec.name.clone(), Registration { spec, processor });
        Ok(())
    }

    /// Names of all registered agents, sorted.
    pub fn registered(&self) -> Vec<String> {
        let mut names: Vec<String> = self.registrations.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Spawns an instance of `agent` under `scope`, returning its id.
    pub fn spawn(&self, agent: &str, scope: &str) -> Result<u64> {
        let (spec, processor) = {
            let regs = self.registrations.lock();
            let reg = regs
                .get(agent)
                .ok_or_else(|| AgentError::UnknownAgent(agent.to_string()))?;
            (reg.spec.clone(), Arc::clone(&reg.processor))
        };
        let processor = match self.faults.lock().as_ref() {
            Some(injector) => Arc::new(FaultedProcessor {
                inner: processor,
                injector: Arc::clone(injector),
                agent: agent.to_string(),
                calls: AtomicU64::new(0),
            }) as Arc<dyn Processor>,
            None => processor,
        };
        let host = AgentHost::start(spec, processor, self.store.clone(), scope)?;
        let id = self.next_instance.fetch_add(1, Ordering::Relaxed);
        self.instances.lock().insert(
            id,
            InstanceHandle {
                id,
                agent: agent.to_string(),
                scope: scope.to_string(),
                host,
            },
        );
        Ok(id)
    }

    /// Spawns every registered agent under `scope`; returns instance ids in
    /// agent-name order.
    pub fn spawn_all(&self, scope: &str) -> Result<Vec<u64>> {
        self.registered()
            .iter()
            .map(|name| self.spawn(name, scope))
            .collect()
    }

    /// Stops and removes an instance. Unknown ids are ignored.
    pub fn stop(&self, instance_id: u64) {
        if let Some(mut handle) = self.instances.lock().remove(&instance_id) {
            handle.host.stop();
        }
    }

    /// Restarts an instance in place (stop + fresh spawn with the same agent
    /// and scope), modelling the paper's restart-on-failure. Returns the new
    /// instance id.
    pub fn restart(&self, instance_id: u64) -> Result<u64> {
        let (agent, scope) = {
            let instances = self.instances.lock();
            let handle = instances.get(&instance_id).ok_or(AgentError::Stopped)?;
            (handle.agent.clone(), handle.scope.clone())
        };
        self.stop(instance_id);
        let new_id = self.spawn(&agent, &scope)?;
        self.restarts.fetch_add(1, Ordering::Relaxed);
        // A replacement instance is probed, not trusted: if the agent's
        // circuit is open, the restart moves it to half-open so the next
        // call is a trial rather than a flood.
        if let Some(breakers) = self.breakers.lock().as_ref() {
            breakers.on_restart(&agent);
        }
        Ok(new_id)
    }

    /// Restarts every instance whose failure count exceeds its spec's
    /// `max_restarts`-governed threshold; returns the ids restarted.
    pub fn reap_failed(&self) -> Result<Vec<u64>> {
        let to_restart: Vec<u64> = {
            let instances = self.instances.lock();
            instances
                .values()
                .filter(|h| {
                    let failures = h.host.stats().failures;
                    failures > 0 && failures >= h.host.spec().deployment.max_restarts as u64
                })
                .map(|h| h.id)
                .collect()
        };
        let mut new_ids = Vec::with_capacity(to_restart.len());
        for id in to_restart {
            new_ids.push(self.restart(id)?);
        }
        Ok(new_ids)
    }

    /// Runs `f` against a live instance handle.
    pub fn with_instance<R>(
        &self,
        instance_id: u64,
        f: impl FnOnce(&InstanceHandle) -> R,
    ) -> Option<R> {
        let instances = self.instances.lock();
        instances.get(&instance_id).map(f)
    }

    /// Ids of running instances, sorted.
    pub fn running(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.instances.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Container-level statistics.
    pub fn stats(&self) -> ContainerStats {
        ContainerStats {
            registered_agents: self.registrations.lock().len(),
            running_instances: self.instances.lock().len(),
            restarts: self.restarts.load(Ordering::Relaxed),
        }
    }

    /// Stops every instance.
    pub fn stop_all(&self) {
        let ids = self.running();
        for id in ids {
            self.stop(id);
        }
    }
}

impl Drop for AgentFactory {
    fn drop(&mut self) {
        self.stop_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AgentContext;
    use crate::param::{DataType, Inputs, Outputs, ParamSpec};
    use crate::processor::FnProcessor;
    use crate::protocol::ExecuteAgent;
    use blueprint_streams::{Selector, StreamId, TagFilter};
    use serde_json::json;
    use std::time::Duration;

    fn echo_spec(name: &str) -> AgentSpec {
        AgentSpec::new(name, "echoes its input")
            .with_input(ParamSpec::required("text", "t", DataType::Text))
            .with_output(ParamSpec::required("echo", "e", DataType::Text))
    }

    fn echo_proc() -> Arc<dyn Processor> {
        Arc::new(FnProcessor::new(|inputs: &Inputs, _: &AgentContext| {
            Ok(Outputs::new().with("echo", json!(inputs.require_str("text")?)))
        }))
    }

    fn factory() -> AgentFactory {
        AgentFactory::new(StreamStore::new())
    }

    #[test]
    fn register_spawn_stop_lifecycle() {
        let f = factory();
        f.register(echo_spec("echo"), echo_proc()).unwrap();
        assert_eq!(f.registered(), ["echo"]);
        let id = f.spawn("echo", "session:1").unwrap();
        assert_eq!(f.running(), [id]);
        assert_eq!(f.stats().running_instances, 1);
        f.stop(id);
        assert!(f.running().is_empty());
    }

    #[test]
    fn spawn_unknown_agent_fails() {
        let f = factory();
        assert!(matches!(
            f.spawn("ghost", "s"),
            Err(AgentError::UnknownAgent(_))
        ));
    }

    #[test]
    fn register_invalid_spec_fails() {
        let f = factory();
        assert!(f.register(AgentSpec::new("", "bad"), echo_proc()).is_err());
    }

    #[test]
    fn spawn_all_launches_each_registered_agent() {
        let f = factory();
        f.register(echo_spec("a"), echo_proc()).unwrap();
        f.register(echo_spec("b"), echo_proc()).unwrap();
        let ids = f.spawn_all("session:1").unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(f.stats().running_instances, 2);
    }

    #[test]
    fn spawned_instance_serves_instructions() {
        let f = factory();
        f.register(echo_spec("echo"), echo_proc()).unwrap();
        f.spawn("echo", "session:1").unwrap();
        let store = f.store().clone();
        let sub = store
            .subscribe(
                Selector::Stream(StreamId::new("session:1:result")),
                TagFilter::all(),
            )
            .unwrap();
        let instr = ExecuteAgent {
            agent: "echo".into(),
            inputs: Inputs::new().with("text", json!("ping")),
            output_stream: "session:1:result".into(),
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
        let out = sub.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(out.payload, json!("ping"));
    }

    #[test]
    fn restart_replaces_instance() {
        let f = factory();
        f.register(echo_spec("echo"), echo_proc()).unwrap();
        let id = f.spawn("echo", "session:1").unwrap();
        let new_id = f.restart(id).unwrap();
        assert_ne!(id, new_id);
        assert_eq!(f.running(), [new_id]);
        assert_eq!(f.stats().restarts, 1);
    }

    #[test]
    fn restart_unknown_instance_fails() {
        let f = factory();
        assert!(f.restart(999).is_err());
    }

    #[test]
    fn reap_failed_restarts_broken_instances() {
        let f = factory();
        let mut spec = echo_spec("flaky");
        spec.deployment.max_restarts = 1;
        let proc: Arc<dyn Processor> = Arc::new(FnProcessor::new(
            |_: &Inputs, _: &AgentContext| -> crate::Result<Outputs> {
                Err(AgentError::ProcessorFailed("always".into()))
            },
        ));
        f.register(spec, proc).unwrap();
        let id = f.spawn("flaky", "session:1").unwrap();
        let store = f.store().clone();
        let report_sub = store
            .subscribe(Selector::AllStreams, TagFilter::any_of(["agent-report"]))
            .unwrap();
        let instr = ExecuteAgent {
            agent: "flaky".into(),
            inputs: Inputs::new().with("text", json!("x")),
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
        report_sub.recv_timeout(Duration::from_secs(2)).unwrap();
        // Failure count is now >= max_restarts(1): the reaper replaces it.
        let mut restarted = Vec::new();
        for _ in 0..100 {
            restarted = f.reap_failed().unwrap();
            if !restarted.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(restarted.len(), 1);
        assert_ne!(restarted[0], id);
        // The fresh instance has a clean failure count.
        let fresh_failures = f
            .with_instance(restarted[0], |h| h.stats().failures)
            .unwrap();
        assert_eq!(fresh_failures, 0);
    }

    #[test]
    fn restart_moves_open_breaker_to_half_open() {
        use blueprint_resilience::{BreakerConfig, BreakerState};
        let f = factory();
        f.register(echo_spec("echo"), echo_proc()).unwrap();
        let breakers = Arc::new(BreakerRegistry::new(BreakerConfig {
            min_samples: 2,
            ..BreakerConfig::default()
        }));
        f.set_breakers(Arc::clone(&breakers));
        let id = f.spawn("echo", "session:1").unwrap();

        breakers.record("echo", false, 0);
        breakers.record("echo", false, 0);
        assert_eq!(breakers.state("echo"), BreakerState::Open);

        let new_id = f.restart(id).unwrap();
        assert_ne!(id, new_id);
        // Restarted agent re-enters half-open, not closed: the replacement
        // must earn its way back with a successful probe.
        assert_eq!(breakers.state("echo"), BreakerState::HalfOpen);
        assert!(breakers.allow("echo", 1));
        breakers.record("echo", true, 2);
        assert_eq!(breakers.state("echo"), BreakerState::Closed);
    }

    #[test]
    fn reap_failed_probes_restarted_agent_breaker() {
        use blueprint_resilience::{BreakerConfig, BreakerState};
        let f = factory();
        let mut spec = echo_spec("flaky");
        spec.deployment.max_restarts = 1;
        let proc: Arc<dyn Processor> = Arc::new(FnProcessor::new(
            |_: &Inputs, _: &AgentContext| -> crate::Result<Outputs> {
                Err(AgentError::ProcessorFailed("always".into()))
            },
        ));
        f.register(spec, proc).unwrap();
        let breakers = Arc::new(BreakerRegistry::new(BreakerConfig {
            min_samples: 2,
            ..BreakerConfig::default()
        }));
        f.set_breakers(Arc::clone(&breakers));
        f.spawn("flaky", "session:1").unwrap();

        // The coordinator tripped the breaker while the instance thrashed.
        breakers.record("flaky", false, 0);
        breakers.record("flaky", false, 0);
        assert_eq!(breakers.state("flaky"), BreakerState::Open);

        let store = f.store().clone();
        let report_sub = store
            .subscribe(Selector::AllStreams, TagFilter::any_of(["agent-report"]))
            .unwrap();
        let instr = ExecuteAgent {
            agent: "flaky".into(),
            inputs: Inputs::new().with("text", json!("x")),
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
        report_sub.recv_timeout(Duration::from_secs(2)).unwrap();
        let mut restarted = Vec::new();
        for _ in 0..100 {
            restarted = f.reap_failed().unwrap();
            if !restarted.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(restarted.len(), 1);
        // Reaping goes through restart(), so the breaker is half-open too.
        assert_eq!(breakers.state("flaky"), BreakerState::HalfOpen);
    }

    #[test]
    fn fault_injector_panics_are_contained_and_counted() {
        use blueprint_resilience::{FaultPlan, FaultSite};
        let f = factory();
        f.register(echo_spec("echo"), echo_proc()).unwrap();
        // 100% panic rate: every fire crashes, the host must survive.
        let injector = Arc::new(FaultInjector::new(FaultPlan::none(1).with_panic_rate(1.0)));
        f.set_fault_injector(Arc::clone(&injector));
        let id = f.spawn("echo", "session:1").unwrap();

        let store = f.store().clone();
        let report_sub = store
            .subscribe(Selector::AllStreams, TagFilter::any_of(["agent-report"]))
            .unwrap();
        let instr = ExecuteAgent {
            agent: "echo".into(),
            inputs: Inputs::new().with("text", json!("boom")),
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
        let report = report_sub.recv_timeout(Duration::from_secs(2)).unwrap();
        // The report marks the failure, the host stays up, and the injector
        // log names the fault that fired.
        let parsed = crate::protocol::AgentReport::from_message(&report).unwrap();
        assert!(!parsed.ok);
        assert_eq!(injector.count(FaultSite::Processor), 1);
        assert_eq!(f.with_instance(id, |h| h.stats().failures), Some(1));
    }

    #[test]
    fn stop_all_clears_everything() {
        let f = factory();
        f.register(echo_spec("a"), echo_proc()).unwrap();
        f.spawn("a", "s1").unwrap();
        f.spawn("a", "s2").unwrap();
        f.stop_all();
        assert!(f.running().is_empty());
    }
}
