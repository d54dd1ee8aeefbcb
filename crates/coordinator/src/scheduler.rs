//! The coordinator's scheduling core: a pure state machine over one plan
//! DAG.
//!
//! [`Scheduler`] owns everything about an execution that does not touch the
//! outside world: dependency counts, the ready set, the concurrency cap, the
//! halt decision, per-node results and outputs, and adaptive drift. The
//! coordinator's event loop asks it which node to dispatch next
//! ([`Scheduler::admit`]) and feeds it each node's terminal state
//! ([`Scheduler::complete`]) together with the ledger's status at that
//! moment. It never blocks, publishes, or reads a clock, so tests drive it
//! with any completion order and no threads.

use serde_json::Value;

use blueprint_agents::CostProfile;
use blueprint_optimizer::{Budget, BudgetStatus};
use blueprint_resilience::DegradationNote;

use crate::coordinator::{
    CacheSavings, ExecutionReport, NodeResult, Outcome, OverrunPolicy, ReoptimizationNote,
};

/// The fixed decision rules of one execution's budget checkpoints.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rules {
    /// What a projected overrun does.
    pub policy: OverrunPolicy,
    /// Whether [`OverrunPolicy::Replan`] may replan here (a top-level
    /// execution with a task planner); otherwise it continues under protest.
    pub can_replan: bool,
    /// Adaptive re-optimization's drift threshold, when enabled.
    pub adaptive: Option<f64>,
}

/// A node's terminal state, as the event loop reports it.
#[derive(Debug)]
pub(crate) enum Completion {
    /// An input binding could not be resolved; no instruction was issued,
    /// so there is no node result and nothing to quarantine.
    Unresolved(String),
    /// Dropped under budget pressure before dispatch.
    Skipped {
        result: NodeResult,
        note: DegradationNote,
    },
    /// Success, cache hit, or failure after exhausting retries and
    /// fallbacks.
    Done {
        result: NodeResult,
        degradation: Option<DegradationNote>,
        outputs: Value,
        /// Cost and latency the memo cache avoided (hits only).
        saved: Option<(f64, u64)>,
    },
}

/// Why the scheduler stopped admitting new nodes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Halt {
    /// A node failed. `resolution` marks input-resolution failures, where
    /// the agent was never invoked.
    Failure {
        pos: usize,
        error: String,
        resolution: bool,
    },
    /// Actual spend exceeded the constraints.
    Exceeded,
    /// Projection exceeded the constraints under [`OverrunPolicy::Abort`].
    ProjectedAbort,
    /// Projection exceeded the constraints under [`OverrunPolicy::Replan`].
    ReplanOverrun,
    /// Observed spend drifted past the adaptive threshold; the pending IR
    /// suffix is re-optimized once no node is in flight.
    Reoptimize,
}

/// What an execution has accumulated so far, in per-position slots; every
/// [`ExecutionReport`] is built from it.
#[derive(Debug)]
pub(crate) struct Progress {
    pub results: Vec<Option<NodeResult>>,
    pub notes: Vec<Option<DegradationNote>>,
    pub cache: CacheSavings,
    pub reoptimizations: Vec<ReoptimizationNote>,
}

impl Progress {
    /// The report for `outcome`, with results and notes merged back into
    /// topological order.
    pub fn report(self, task_id: &str, outcome: Outcome, budget: Budget) -> ExecutionReport {
        ExecutionReport {
            task_id: task_id.to_string(),
            outcome,
            budget,
            node_results: self.results.into_iter().flatten().collect(),
            degradations: self.notes.into_iter().flatten().collect(),
            cache: self.cache,
            reoptimizations: self.reoptimizations,
        }
    }
}

/// Dependency-counted ready-set scheduling over topological positions.
pub(crate) struct Scheduler {
    parents: Vec<Vec<usize>>,
    children: Vec<Vec<usize>>,
    indegree: Vec<usize>,
    /// Kept sorted ascending: among simultaneously ready nodes the earliest
    /// topological position dispatches first, which makes a cap of 1
    /// exactly the sequential reference execution.
    ready: Vec<usize>,
    cap: usize,
    in_flight: usize,
    halt: Option<Halt>,
    rules: Rules,
    /// Estimated and observed (cost, latency) totals of invoked successes.
    est_drift: (f64, u64),
    obs_drift: (f64, u64),
    reoptimized: bool,
    progress: Progress,
    outputs: Vec<Option<Value>>,
}

impl Scheduler {
    /// A scheduler over `n` positions in topological order. `edges` holds
    /// one `(from, to)` pair per `FromNode` binding, so duplicate edges
    /// appear symmetrically in the child lists and the indegrees. A `cap`
    /// of 0 means unbounded.
    pub fn new(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
        cap: usize,
        rules: Rules,
    ) -> Self {
        let mut parents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indegree = vec![0; n];
        for (from, to) in edges {
            children[from].push(to);
            parents[to].push(from);
            indegree[to] += 1;
        }
        Scheduler {
            ready: (0..n).filter(|&i| indegree[i] == 0).collect(),
            parents,
            children,
            indegree,
            cap: if cap == 0 { usize::MAX } else { cap },
            in_flight: 0,
            halt: None,
            rules,
            est_drift: (0.0, 0),
            obs_drift: (0.0, 0),
            reoptimized: false,
            progress: Progress {
                results: vec![None; n],
                notes: vec![None; n],
                cache: CacheSavings::default(),
                reoptimizations: Vec::new(),
            },
            outputs: vec![None; n],
        }
    }

    /// The next node to dispatch: the earliest ready position, unless a
    /// halt stopped admission or the cap is reached. The node counts as in
    /// flight until [`Scheduler::complete`] is called for it.
    pub fn admit(&mut self) -> Option<usize> {
        if self.halt.is_some() || self.in_flight >= self.cap || self.ready.is_empty() {
            return None;
        }
        self.in_flight += 1;
        Some(self.ready.remove(0))
    }

    /// The positions `pos` reads from, one per `FromNode` binding.
    pub fn parents(&self, pos: usize) -> &[usize] {
        &self.parents[pos]
    }

    /// The recorded outputs of a completed position (None when it produced
    /// none, e.g. it was skipped).
    pub fn output(&self, pos: usize) -> Option<&Value> {
        self.outputs[pos].as_ref()
    }

    /// Nodes dispatched and not yet completed.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Nodes ready but not yet admitted.
    pub fn queued(&self) -> usize {
        self.ready.len()
    }

    /// Why admission stopped, if it did.
    pub fn halt(&self) -> Option<&Halt> {
        self.halt.as_ref()
    }

    /// Positions that have no result yet (never dispatched, or failed to
    /// resolve their inputs).
    pub fn pending(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.progress.results.len()).filter(|&i| self.progress.results[i].is_none())
    }

    /// Records a tier switch applied while admission was paused.
    pub fn note_reoptimization(&mut self, note: ReoptimizationNote) {
        self.progress.reoptimizations.push(note);
    }

    /// Reopens admission after the loop resolved a [`Halt::Reoptimize`] or
    /// found no cheaper plan for a [`Halt::ReplanOverrun`]. Only one
    /// re-optimization pass runs per execution.
    pub fn resume(&mut self) {
        if matches!(self.halt, Some(Halt::Reoptimize)) {
            self.reoptimized = true;
        }
        self.halt = None;
    }

    /// Feeds node `pos`'s terminal state. `ledger` is the budget status
    /// after the node's charges and `estimate` its planned profile; both
    /// drive the checkpoint that follows a success.
    pub fn complete(
        &mut self,
        pos: usize,
        completion: Completion,
        ledger: BudgetStatus,
        estimate: &CostProfile,
    ) {
        debug_assert!(self.in_flight > 0, "completion of a node never admitted");
        self.in_flight -= 1;
        match completion {
            Completion::Unresolved(reason) => self.raise_failure(pos, reason, true),
            Completion::Skipped { result, note } => {
                self.progress.notes[pos] = Some(note);
                self.progress.results[pos] = Some(result);
                self.release_children(pos);
            }
            Completion::Done {
                result,
                degradation,
                outputs,
                saved,
            } => {
                if let Some((cost, latency)) = saved {
                    self.progress.cache.hits += 1;
                    self.progress.cache.cost_saved += cost;
                    self.progress.cache.latency_saved_micros += latency;
                }
                if degradation.is_some() {
                    self.progress.notes[pos] = degradation;
                }
                // Drift accounting for adaptive re-optimization: only
                // actually-invoked successes count (skips and cache hits
                // carry no observation).
                if result.ok && !result.cached && result.attempts > 0 {
                    self.est_drift.0 += estimate.cost_per_call;
                    self.est_drift.1 += estimate.latency_micros;
                    self.obs_drift.0 += result.cost;
                    self.obs_drift.1 += result.latency_micros;
                }
                let failure = (!result.ok).then(|| result.error.clone());
                self.progress.results[pos] = Some(result);
                if let Some(error) = failure {
                    self.raise_failure(pos, error.unwrap_or_else(|| "agent failed".into()), false);
                    return;
                }
                if outputs.is_object() {
                    self.outputs[pos] = Some(outputs);
                }
                self.release_children(pos);
                self.checkpoint(ledger);
            }
        }
    }

    /// Ends the execution's bookkeeping: its progress, the recorded outputs
    /// by position, and the halt, if any.
    pub fn finish(self) -> (Progress, Vec<Option<Value>>, Option<Halt>) {
        (self.progress, self.outputs, self.halt)
    }

    fn release_children(&mut self, pos: usize) {
        for &c in &self.children[pos] {
            self.indegree[c] -= 1;
            if self.indegree[c] == 0 {
                let at = self.ready.partition_point(|&x| x < c);
                self.ready.insert(at, c);
            }
        }
    }

    /// The budget checkpoint after a success — the same decision ladder as
    /// the sequential reference — then the adaptive one: when observed
    /// spend has drifted past the threshold factor of the estimate, pause
    /// admission to re-optimize the not-yet-dispatched suffix (once).
    fn checkpoint(&mut self, ledger: BudgetStatus) {
        if self.halt.is_none() {
            self.halt = match ledger {
                BudgetStatus::Healthy => None,
                BudgetStatus::Exceeded => Some(Halt::Exceeded),
                BudgetStatus::ProjectedOverrun => match self.rules.policy {
                    OverrunPolicy::Continue => None,
                    OverrunPolicy::Abort => Some(Halt::ProjectedAbort),
                    // Cannot replan: keep going under protest.
                    OverrunPolicy::Replan => self.rules.can_replan.then_some(Halt::ReplanOverrun),
                },
            };
        }
        if let (None, Some(threshold), false) = (&self.halt, self.rules.adaptive, self.reoptimized)
        {
            let (est, obs) = (self.est_drift, self.obs_drift);
            let cost_drifted = est.0 > 0.0 && obs.0 > threshold * est.0;
            let latency_drifted = est.1 > 0 && obs.1 as f64 > threshold * est.1 as f64;
            if cost_drifted || latency_drifted {
                self.halt = Some(Halt::Reoptimize);
            }
        }
    }

    /// Records a node failure. The earliest topological position wins so
    /// the reported failing node is deterministic under any completion
    /// order, and abort decisions already taken stand.
    fn raise_failure(&mut self, pos: usize, error: String, resolution: bool) {
        match &self.halt {
            Some(Halt::Failure { pos: existing, .. }) if *existing <= pos => {}
            Some(Halt::Exceeded | Halt::ProjectedAbort) => {}
            _ => {
                self.halt = Some(Halt::Failure {
                    pos,
                    error,
                    resolution,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The scheduler driven with no threads: random DAGs, random completion
    //! orders, injected failures and budget halts, against a plain
    //! sequential walk of the same plan. Every charge is a multiple of
    //! 0.125, so ledger sums are exact in any order.

    use super::*;
    use blueprint_optimizer::QosConstraints;
    use proptest::prelude::*;
    use serde_json::json;

    /// How a node's invocation ends.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fate {
        Succeeds,
        Fails,
        Unresolved,
    }

    #[derive(Debug, Clone)]
    struct Node {
        /// Earlier positions it reads from (repeats allowed: one edge per
        /// binding).
        deps: Vec<usize>,
        fate: Fate,
        cost: f64,
        estimate: CostProfile,
        skippable: bool,
    }

    #[derive(Debug, Clone)]
    struct Case {
        nodes: Vec<Node>,
        max_cost: Option<f64>,
        policy: OverrunPolicy,
    }

    impl Case {
        fn budget(&self) -> Budget {
            let constraints = match self.max_cost {
                Some(max) => QosConstraints::none().with_max_cost(max),
                None => QosConstraints::none(),
            };
            let mut budget = Budget::new(constraints);
            let projected: f64 = self.nodes.iter().map(|n| n.estimate.cost_per_call).sum();
            budget.set_projection(&CostProfile::new(projected, 0, 1.0));
            budget
        }

        fn edges(&self) -> Vec<(usize, usize)> {
            let mut edges = Vec::new();
            for (to, node) in self.nodes.iter().enumerate() {
                edges.extend(node.deps.iter().map(|&from| (from, to)));
            }
            edges
        }
    }

    /// What an execution ended with, in report order.
    #[derive(Debug, Clone, PartialEq)]
    struct Report {
        results: Vec<NodeResult>,
        notes: Vec<DegradationNote>,
        halt: Option<Halt>,
        /// The final output; only meaningful without a halt.
        output: Option<Value>,
        spent_cost: u64,
    }

    fn result(pos: usize, ok: bool, cost: f64, attempts: u32) -> NodeResult {
        NodeResult {
            node: format!("n{pos}"),
            agent: format!("agent-{pos}"),
            ok,
            cost,
            latency_micros: 0,
            error: (!ok).then(|| format!("n{pos} failed")),
            attempts,
            cached: false,
        }
    }

    fn skip(pos: usize) -> Completion {
        Completion::Skipped {
            result: result(pos, true, 0.0, 0),
            note: DegradationNote {
                from: format!("agent-{pos}"),
                to: None,
                accuracy_penalty: 0.0,
                reason: format!("skipped n{pos}"),
            },
        }
    }

    /// Charges node `pos`'s invocation, as the event loop does when its
    /// report arrives, and returns its terminal state.
    fn invoke(node: &Node, pos: usize, budget: &mut Budget) -> Completion {
        if node.fate == Fate::Unresolved {
            return Completion::Unresolved(format!("n{pos} unresolved"));
        }
        budget.charge(node.cost, 0, 1.0);
        budget.consume_projection(&node.estimate);
        let ok = node.fate == Fate::Succeeds;
        Completion::Done {
            result: result(pos, ok, node.cost, 1),
            degradation: None,
            outputs: if ok { json!({"out": pos}) } else { Value::Null },
            saved: None,
        }
    }

    fn rules(case: &Case) -> Rules {
        Rules {
            policy: case.policy,
            can_replan: true,
            adaptive: None,
        }
    }

    /// The sequential reference: walk the positions in order, stopping at
    /// the first failure or budget halt.
    fn reference(case: &Case) -> Report {
        let mut budget = case.budget();
        let (mut results, mut notes) = (Vec::new(), Vec::new());
        let (mut halt, mut output) = (None, None);
        for (pos, node) in case.nodes.iter().enumerate() {
            if node.skippable && budget.status() != BudgetStatus::Healthy {
                budget.consume_projection(&node.estimate);
                let Completion::Skipped { result, note } = skip(pos) else {
                    unreachable!()
                };
                results.push(result);
                notes.push(note);
                continue;
            }
            match node.fate {
                Fate::Unresolved => {
                    halt = Some(Halt::Failure {
                        pos,
                        error: format!("n{pos} unresolved"),
                        resolution: true,
                    });
                }
                Fate::Fails => {
                    budget.charge(node.cost, 0, 1.0);
                    budget.consume_projection(&node.estimate);
                    results.push(result(pos, false, node.cost, 1));
                    halt = Some(Halt::Failure {
                        pos,
                        error: format!("n{pos} failed"),
                        resolution: false,
                    });
                }
                Fate::Succeeds => {
                    budget.charge(node.cost, 0, 1.0);
                    budget.consume_projection(&node.estimate);
                    results.push(result(pos, true, node.cost, 1));
                    output = Some(json!({"out": pos}));
                    halt = match (budget.status(), case.policy) {
                        (BudgetStatus::Exceeded, _) => Some(Halt::Exceeded),
                        (BudgetStatus::ProjectedOverrun, OverrunPolicy::Abort) => {
                            Some(Halt::ProjectedAbort)
                        }
                        (BudgetStatus::ProjectedOverrun, OverrunPolicy::Replan) => {
                            Some(Halt::ReplanOverrun)
                        }
                        _ => None,
                    };
                }
            }
            if halt.is_some() {
                break;
            }
        }
        Report {
            results,
            notes,
            halt,
            output,
            spent_cost: budget.spent_cost.to_bits(),
        }
    }

    /// Drives the scheduler under `cap`, completing in-flight nodes in the
    /// order `picks` chooses, and checks the admission invariants on the
    /// way: a node is admitted only with admission open, under the cap, and
    /// after every parent succeeded. Returns the report and the positions
    /// that were admitted.
    fn drive(
        case: &Case,
        cap: usize,
        picks: &[usize],
    ) -> Result<(Report, Vec<usize>), TestCaseError> {
        let n = case.nodes.len();
        let mut sched = Scheduler::new(n, case.edges(), cap, rules(case));
        let mut budget = case.budget();
        let mut succeeded = vec![false; n];
        let (mut in_flight, mut admitted) = (Vec::new(), Vec::new());
        let mut picks = picks.iter().cycle();
        loop {
            while let Some(pos) = sched.admit() {
                prop_assert!(sched.halt().is_none(), "admitted n{pos} after a halt");
                prop_assert!(cap == 0 || sched.in_flight() <= cap);
                for &p in sched.parents(pos) {
                    prop_assert!(succeeded[p], "n{pos} admitted before its parent n{p}");
                }
                admitted.push(pos);
                let node = &case.nodes[pos];
                if node.skippable && budget.status() != BudgetStatus::Healthy {
                    budget.consume_projection(&node.estimate);
                    succeeded[pos] = true;
                    sched.complete(pos, skip(pos), budget.status(), &node.estimate);
                    continue;
                }
                in_flight.push(pos);
            }
            if in_flight.is_empty() {
                break;
            }
            let pos = in_flight.remove(picks.next().expect("cycled") % in_flight.len());
            let node = &case.nodes[pos];
            let completion = invoke(node, pos, &mut budget);
            succeeded[pos] = node.fate == Fate::Succeeds;
            sched.complete(pos, completion, budget.status(), &node.estimate);
        }
        prop_assert_eq!(sched.in_flight(), 0);
        let (progress, outputs, halt) = sched.finish();
        let report = Report {
            results: progress.results.into_iter().flatten().collect(),
            notes: progress.notes.into_iter().flatten().collect(),
            halt,
            output: outputs.into_iter().flatten().next_back(),
            spent_cost: budget.spent_cost.to_bits(),
        };
        Ok((report, admitted))
    }

    /// Random cases. Without `faults` every node succeeds, none is
    /// skippable, and there are no constraints.
    fn case_strategy(faults: bool) -> impl Strategy<Value = Case> {
        // Per node: raw dependency picks, fate roll, cost and estimate in
        // eighths, skippable roll.
        let node = (
            prop::collection::vec(0usize..1000, 0..3),
            0u32..8,
            0u32..8,
            0u32..8,
            0u32..10,
        );
        let policy = prop::sample::select(vec![
            OverrunPolicy::Continue,
            OverrunPolicy::Abort,
            OverrunPolicy::Replan,
        ]);
        (
            prop::collection::vec(node, 1..10),
            prop::option::of(1u32..24),
            policy,
        )
            .prop_map(move |(raw, max_cost, policy)| {
                let nodes = raw
                    .into_iter()
                    .enumerate()
                    .map(|(i, (deps, fate, cost, est, skip))| Node {
                        // Earlier positions only: the DAG is acyclic and
                        // the positions are a topological order.
                        deps: if i == 0 {
                            Vec::new()
                        } else {
                            deps.into_iter().map(|d| d % i).collect()
                        },
                        fate: match fate {
                            6 if faults => Fate::Fails,
                            7 if faults => Fate::Unresolved,
                            _ => Fate::Succeeds,
                        },
                        cost: 0.125 * f64::from(cost),
                        estimate: CostProfile::new(0.125 * f64::from(est), 0, 1.0),
                        skippable: faults && skip < 3,
                    })
                    .collect();
                Case {
                    nodes,
                    max_cost: max_cost.filter(|_| faults).map(|m| 0.25 * f64::from(m)),
                    policy,
                }
            })
    }

    fn cap_strategy() -> impl Strategy<Value = usize> {
        prop::sample::select(vec![0usize, 1, 2, 3])
    }

    fn picks_strategy() -> impl Strategy<Value = Vec<usize>> {
        prop::collection::vec(0usize..1 << 20, 1..24)
    }

    proptest! {
        /// With a cap of 1 the scheduler is the sequential reference,
        /// failures, skips and budget halts included.
        #[test]
        fn cap_one_equals_the_sequential_reference(case in case_strategy(true)) {
            let (report, _) = drive(&case, 1, &[0])?;
            let expected = reference(&case);
            prop_assert_eq!(&report.results, &expected.results);
            prop_assert_eq!(&report.notes, &expected.notes);
            prop_assert_eq!(&report.halt, &expected.halt);
            prop_assert_eq!(report.spent_cost, expected.spent_cost);
            if expected.halt.is_none() {
                prop_assert_eq!(&report.output, &expected.output);
            }
        }

        /// Without faults or constraints, any cap and any completion order
        /// give the reference's report exactly.
        #[test]
        fn any_completion_order_equals_the_sequential_reference(
            case in case_strategy(false),
            cap in cap_strategy(),
            picks in picks_strategy(),
        ) {
            let (report, admitted) = drive(&case, cap, &picks)?;
            prop_assert_eq!(admitted.len(), case.nodes.len());
            prop_assert_eq!(report, reference(&case));
        }

        /// With failures and budget halts, any cap and any completion order:
        /// every admitted node is awaited and reported in topological
        /// order, and the halt names the earliest failure observed unless
        /// an abort decision came first.
        #[test]
        fn any_completion_order_halts_like_the_reference(
            case in case_strategy(true),
            cap in cap_strategy(),
            picks in picks_strategy(),
        ) {
            let (report, admitted) = drive(&case, cap, &picks)?;
            let skipped = |p: usize| report.notes.iter().any(|n| n.from == format!("agent-{p}"));
            let resolved: Vec<usize> = admitted
                .iter()
                .copied()
                .filter(|&p| case.nodes[p].fate != Fate::Unresolved || skipped(p))
                .collect();
            let mut reported: Vec<usize> = report
                .results
                .iter()
                .map(|r| r.node[1..].parse().unwrap())
                .collect();
            prop_assert!(reported.windows(2).all(|w| w[0] < w[1]), "not in topological order");
            reported.sort_unstable();
            let mut expected = resolved;
            expected.sort_unstable();
            prop_assert_eq!(reported, expected);

            let earliest_failure = admitted
                .iter()
                .copied()
                .filter(|&p| case.nodes[p].fate != Fate::Succeeds && !skipped(p))
                .min();
            match (&report.halt, earliest_failure) {
                (None, None) => prop_assert_eq!(admitted.len(), case.nodes.len()),
                (Some(Halt::Failure { pos, .. }), Some(first)) => prop_assert_eq!(*pos, first),
                (Some(Halt::Exceeded | Halt::ProjectedAbort | Halt::ReplanOverrun), None) => {}
                (Some(Halt::Exceeded | Halt::ProjectedAbort), Some(_)) => {}
                (halt, first) => prop_assert!(false, "halt {halt:?} with earliest failure {first:?}"),
            }
            // The sequential reference fails at the earliest failing
            // position; a run that admitted it reports the same. (Skips
            // depend on the ledger at admission, so on the order: only
            // without skippable nodes is a node's fate order-independent.)
            if let Some(Halt::Failure { pos, .. }) = reference(&case).halt {
                if admitted.contains(&pos) && !case.nodes.iter().any(|n| n.skippable) {
                    prop_assert!(
                        matches!(report.halt, Some(Halt::Failure { pos: p, .. }) if p == pos)
                            || matches!(report.halt, Some(Halt::Exceeded | Halt::ProjectedAbort))
                    );
                }
            }
        }
    }

    #[test]
    fn resume_reopens_admission_and_reoptimizes_once() {
        // A chain whose nodes cost 4x their estimate.
        let rules = Rules {
            policy: OverrunPolicy::Continue,
            can_replan: false,
            adaptive: Some(2.0),
        };
        let mut sched = Scheduler::new(3, [(0, 1), (1, 2)], 0, rules);
        let estimate = CostProfile::new(0.25, 0, 1.0);
        let done = |pos| Completion::Done {
            result: result(pos, true, 1.0, 1),
            degradation: None,
            outputs: json!({"out": pos}),
            saved: None,
        };
        assert_eq!(sched.admit(), Some(0));
        sched.complete(0, done(0), BudgetStatus::Healthy, &estimate);
        assert_eq!(sched.halt(), Some(&Halt::Reoptimize));
        assert_eq!(sched.admit(), None);
        assert_eq!(sched.pending().collect::<Vec<_>>(), [1, 2]);
        sched.resume();
        assert_eq!(sched.admit(), Some(1));
        sched.complete(1, done(1), BudgetStatus::Healthy, &estimate);
        // Only one pass per execution: the drift persists, no second halt.
        assert_eq!(sched.halt(), None);
        assert_eq!(sched.admit(), Some(2));
    }
}
