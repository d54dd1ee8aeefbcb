//! Property battery for the one plan path: lowering a task plan into the
//! spliced IR and executing it through `TaskCoordinator::execute`.
//!
//! Random task DAGs — some nodes of which pull a `FromData` binding that
//! routes through the data planner's running-example pipeline (Q2NL →
//! knowledge lookup → graph expansion → SQL) — must satisfy:
//!
//! * **data-level reference**: for every `FromData` binding, executing the
//!   data plan the lowered binding holds yields the same value, with
//!   bitwise-equal actual QoS, as `DataPlanner::satisfy(query, utterance)`
//!   on an identically configured planner;
//! * **sequential ≡ parallel**: the sequential and parallel schedulers give
//!   byte-identical final outputs and per-node results. Agent charges are
//!   dyadic rationals with accuracy exactly 1.0, so those sums are exact,
//!   but data-plan charges are not (e.g. 0.032 cost at 0.9 accuracy) and
//!   the parallel fold order is timing-dependent, so budget totals are
//!   compared within an epsilon. Latency is excluded under parallelism: the
//!   shared simulated clock over-counts overlapping nodes.
//!
//! The file also pins the adaptive feedback loop on the production entry
//! point (`Blueprint` + `BlueprintSession::handle`): observed latency
//! drifting past the threshold must trigger exactly one mid-flight
//! re-optimization that downgrades the spliced knowledge operator from
//! `sim-large` to `sim-small`, and drift below the threshold must trigger
//! none. A `FromData` binding nothing can plan must still fail on its own
//! node, after the upstream node ran. On the running example, the joint
//! search space lists the agent nodes, then the spliced operators, with
//! pinned candidate lists. A JSON-typed input fed from the user text lowers
//! to a spliced extract plan that the search space includes.
//!
//! The joint search is checked against two oracles over random objectives
//! and caps, on the running example with three model tiers: brute-force
//! enumeration (the joint pick is feasible whenever some assignment is)
//! and the greedy per-operator pick (`select` on each choice point; the
//! joint pick scores no worse whenever the greedy one composes to a
//! feasible plan). Through `BlueprintSession::handle`, a task's latency
//! cap picks the knowledge tier for the whole plan, not for the operator
//! alone.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;
use serde_json::json;

use blueprint_agents::{
    AgentContext, AgentFactory, AgentSpec, CostProfile, DataType, FnProcessor, Inputs, Outputs,
    ParamSpec, Processor,
};
use blueprint_core::coordinator::{
    ExecutionReport, NodeResult, Outcome, SchedulerMode, TaskCoordinator,
};
use blueprint_core::hrdomain::HrConfig;
use blueprint_core::Blueprint;
use blueprint_datastore::{GraphSource, PropertyGraph, RelationalDb, RelationalSource};
use blueprint_llmsim::{ModelProfile, ParametricSource, SimLlm};
use blueprint_optimizer::{select, ChoicePoint, Objective, QosConstraints};
use blueprint_planner::{DataOp, DataPlanner, InputBinding, IrBinding, PlanIr, PlanNode, TaskPlan};
use blueprint_registry::{AgentRegistry, DataRegistry};
use blueprint_streams::StreamStore;

const RUNNING_EXAMPLE: &str = "I am looking for a data scientist position in SF bay area.";
const JOBS_QUERY: &str = "available job listings";

fn jobs_db() -> Arc<RelationalDb> {
    let db = Arc::new(RelationalDb::new());
    db.execute("CREATE TABLE jobs (id INT, title TEXT, city TEXT)")
        .unwrap();
    db.execute(
        "INSERT INTO jobs VALUES \
         (1, 'data scientist', 'san francisco'), \
         (2, 'machine learning engineer', 'oakland'), \
         (3, 'data scientist', 'new york')",
    )
    .unwrap();
    db
}

fn taxonomy() -> Arc<PropertyGraph> {
    let g = Arc::new(PropertyGraph::new());
    for (id, name) in [
        ("data-scientist", "data scientist"),
        ("machine-learning-engineer", "machine learning engineer"),
    ] {
        g.add_node(id, "title", json!({"name": name})).unwrap();
    }
    g.add_edge("machine-learning-engineer", "data-scientist", "related_to")
        .unwrap();
    g
}

fn data_planner() -> DataPlanner {
    let llm = Arc::new(SimLlm::new(ModelProfile::large()));
    let mut dp = DataPlanner::new(Arc::new(DataRegistry::new()), Arc::clone(&llm));
    dp.add_source(Arc::new(RelationalSource::new("hr-db", jobs_db())));
    dp.add_source(Arc::new(GraphSource::new("title-taxonomy", taxonomy())));
    dp.add_source(Arc::new(ParametricSource::new("gpt-large", llm)));
    dp.add_source(Arc::new(ParametricSource::new(
        "gpt-small",
        Arc::new(SimLlm::new(ModelProfile::small())),
    )));
    dp
}

/// Registers `join-{arity}` (and, with `with_data`, `data-join-{arity}`,
/// which additionally consumes a `jobs` table fetched via a `FromData`
/// binding). Charges are dyadic multiples of 0.125 so agent-side cost sums
/// are exact under any completion order.
fn register_join(factory: &AgentFactory, registry: &AgentRegistry, arity: usize, with_data: bool) {
    let params = arity.max(1);
    let name = if with_data {
        format!("data-join-{arity}")
    } else {
        format!("join-{arity}")
    };
    let extra = usize::from(with_data);
    let cost = 0.125 * (arity + 1 + extra) as f64;
    let latency = 1_000 * (arity + 1 + extra) as u64;
    let mut spec = AgentSpec::new(&name, format!("joins {params} upstream value(s)"))
        .with_output(ParamSpec::required("out", "joined text", DataType::Text))
        .with_profile(CostProfile::new(cost, latency, 1.0));
    for k in 0..params {
        spec = spec.with_input(ParamSpec::required(
            format!("in_{k}"),
            "upstream value",
            DataType::Text,
        ));
    }
    if with_data {
        spec = spec.with_input(ParamSpec::required(
            "jobs",
            "job listings fetched by the data layer",
            DataType::Any,
        ));
    }
    let proc: Arc<dyn Processor> = Arc::new(FnProcessor::new(
        move |inputs: &Inputs, ctx: &AgentContext| {
            let mut parts = Vec::with_capacity(params);
            for k in 0..params {
                parts.push(inputs.require_str(&format!("in_{k}"))?.to_uppercase());
            }
            ctx.charge_cost(cost);
            ctx.charge_latency_micros(latency);
            let mut joined = parts.join("+");
            if with_data {
                let jobs = serde_json::to_string(inputs.require("jobs")?).unwrap();
                joined = format!("{joined}&{jobs}");
            }
            Ok(Outputs::new().with("out", json!(format!("{}#{}", joined, joined.len()))))
        },
    ));
    factory.register(spec.clone(), proc).unwrap();
    registry.register(spec).unwrap();
    factory.spawn(&name, "session:1").unwrap();
}

/// Maps raw generator output to a DAG: node `i` depends on up to two
/// distinct earlier nodes (`raw % i`, acyclic by construction); nodes with
/// the flag set also pull the jobs table through a `FromData` binding.
fn build_plan(raw_deps: &[(Vec<usize>, bool)]) -> TaskPlan {
    let mut plan = TaskPlan::new("t-ir-prop", RUNNING_EXAMPLE);
    for (i, (raw, with_data)) in raw_deps.iter().enumerate() {
        let mut deps: Vec<usize> = if i == 0 {
            Vec::new()
        } else {
            raw.iter().map(|r| r % i).collect()
        };
        deps.sort_unstable();
        deps.dedup();
        let mut inputs = BTreeMap::new();
        if deps.is_empty() {
            inputs.insert("in_0".to_string(), InputBinding::FromUser);
        } else {
            for (k, &j) in deps.iter().enumerate() {
                inputs.insert(
                    format!("in_{k}"),
                    InputBinding::FromNode {
                        node: format!("n{j}"),
                        output: "out".to_string(),
                    },
                );
            }
        }
        let arity = deps.len();
        let agent = if *with_data {
            inputs.insert(
                "jobs".to_string(),
                InputBinding::FromData {
                    query: JOBS_QUERY.to_string(),
                },
            );
            format!("data-join-{arity}")
        } else {
            format!("join-{arity}")
        };
        let extra = usize::from(*with_data);
        plan.push(PlanNode {
            id: format!("n{i}"),
            agent,
            task: format!("step {i}"),
            inputs,
            profile: CostProfile::new(
                0.125 * (arity + 1 + extra) as f64,
                1_000 * (arity + 1 + extra) as u64,
                1.0,
            ),
        });
    }
    plan
}

/// Builds a fresh runtime (store, factory, registry, data planner,
/// coordinator), so no usage counters, memo entries, or clock state leak
/// between the runs under comparison. The factory is returned alongside
/// the coordinator: dropping it stops the spawned agent hosts.
fn fresh_runtime(mode: SchedulerMode) -> (TaskCoordinator, AgentFactory) {
    let store = StreamStore::new();
    let factory = AgentFactory::new(store.clone());
    let registry = Arc::new(AgentRegistry::new());
    for arity in 0..3 {
        register_join(&factory, &registry, arity, false);
        register_join(&factory, &registry, arity, true);
    }
    let coordinator = TaskCoordinator::new(store, "session:1", registry)
        .with_report_timeout(Duration::from_secs(10))
        .with_data_planner(Arc::new(data_planner()))
        .with_scheduler(mode);
    (coordinator, factory)
}

fn run(raw_deps: &[(Vec<usize>, bool)], mode: SchedulerMode) -> ExecutionReport {
    let (coordinator, _factory) = fresh_runtime(mode);
    coordinator
        .execute(&build_plan(raw_deps), QosConstraints::none())
        .unwrap()
}

fn final_output(report: &ExecutionReport) -> String {
    match &report.outcome {
        Outcome::Completed { output } => serde_json::to_string(output).unwrap(),
        other => panic!("unexpected outcome: {other:?}"),
    }
}

/// Node results with the latency field normalized away (shared-clock
/// over-counting under parallelism; see module docs).
fn without_latency(report: &ExecutionReport) -> Vec<NodeResult> {
    report
        .node_results
        .iter()
        .cloned()
        .map(|mut r| {
            r.latency_micros = 0;
            r
        })
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Raw material: 1..8 nodes, each with 0..=2 raw dep picks and a flag
/// marking whether the node pulls the jobs table from the data layer.
fn deps_strategy() -> impl Strategy<Value = Vec<(Vec<usize>, bool)>> {
    (1usize..8).prop_flat_map(|n| {
        prop::collection::vec(
            (prop::collection::vec(0usize..1000, 0..3), any::<bool>()),
            n,
        )
    })
}

proptest! {
    /// Data-level reference: every spliced sub-plan computes what the data
    /// planner's own `satisfy` computes for the binding. Bindings are
    /// visited in lowering order, so the reference planner allocates the
    /// same data-node ids.
    #[test]
    fn spliced_subplans_match_satisfy_reference(raw_deps in deps_strategy()) {
        let plan = build_plan(&raw_deps);
        let dp = data_planner();
        let reference = data_planner();
        let ir = PlanIr::lower_spliced(&plan, &dp).unwrap();
        for node in &plan.nodes {
            for (slot, binding) in &node.inputs {
                let InputBinding::FromData { query } = binding else { continue };
                let Some(IrBinding::Spliced { plan: sub, .. }) = ir.node(&node.id).unwrap().inputs.get(slot) else {
                    panic!("binding {}.{slot} was not spliced", node.id);
                };
                let got = dp.execute(sub).unwrap();
                let want = reference.satisfy(query, &plan.utterance).unwrap();
                prop_assert_eq!(
                    serde_json::to_string(&got.value).unwrap(),
                    serde_json::to_string(&want.value).unwrap()
                );
                prop_assert_eq!(got.actual.cost_per_call.to_bits(), want.actual.cost_per_call.to_bits());
                prop_assert_eq!(got.actual.latency_micros, want.actual.latency_micros);
                prop_assert_eq!(got.actual.accuracy.to_bits(), want.actual.accuracy.to_bits());
            }
        }
    }

    /// Sequential ≡ parallel on the spliced path: outputs and per-node
    /// results stay exact; budget totals fold non-dyadic data-plan charges
    /// in a timing-dependent order, so they are compared within a relative
    /// epsilon.
    #[test]
    fn spliced_parallel_matches_sequential(raw_deps in deps_strategy()) {
        let sequential = run(&raw_deps, SchedulerMode::Sequential);
        let parallel = run(&raw_deps, SchedulerMode::Parallel { max_in_flight: 0 });

        prop_assert!(sequential.outcome.succeeded(), "sequential: {:?}", sequential.outcome);
        prop_assert!(parallel.outcome.succeeded(), "parallel: {:?}", parallel.outcome);
        prop_assert_eq!(final_output(&sequential), final_output(&parallel));
        prop_assert_eq!(without_latency(&sequential), without_latency(&parallel));
        prop_assert!(
            close(sequential.budget.spent_cost, parallel.budget.spent_cost),
            "cost {} vs {}", sequential.budget.spent_cost, parallel.budget.spent_cost
        );
        prop_assert!(
            close(sequential.budget.accuracy_so_far, parallel.budget.accuracy_so_far),
            "accuracy {} vs {}",
            sequential.budget.accuracy_so_far,
            parallel.budget.accuracy_so_far
        );
        prop_assert!(sequential.reoptimizations.is_empty());
        prop_assert!(parallel.reoptimizations.is_empty());
    }
}

// ---------------------------------------------------------------------------
// Adaptive re-optimization through the production entry point.
// ---------------------------------------------------------------------------

/// Handles the running example on an HR runtime with both model tiers as
/// knowledge sources. Maximizing accuracy, the data planner splices the
/// `sim-large` tier (680 000 µs estimated) into the job matcher's jobs
/// binding. The profiler's estimate understates its actual latency
/// (440 000 µs observed against 60 000 µs estimated, a 7.3× drift).
fn handle_with_drift_threshold(threshold: f64) -> ExecutionReport {
    let bp = Blueprint::builder()
        .with_hr_domain(HrConfig {
            seed: 5,
            jobs: 60,
            applicants: 50,
            companies: 8,
            applications: 100,
        })
        .with_model(ModelProfile::large())
        .with_extra_model(ModelProfile::small())
        .with_objective(Objective::MaxAccuracy)
        .with_constraints(QosConstraints::none().with_max_latency_micros(1_000_000))
        .with_adaptive_replanning(threshold)
        .build()
        .unwrap();
    let session = bp.start_session().unwrap();
    session.handle(RUNNING_EXAMPLE).unwrap()
}

/// Drift past the 2× threshold triggers exactly one re-optimization of the
/// pending IR suffix: after the profiler, 560 000 µs of the 1 000 000 µs
/// latency budget remain, so the large tier no longer fits and the
/// knowledge operator downgrades to the small tier.
#[test]
fn adaptive_replanning_downgrades_tier_on_latency_drift() {
    let report = handle_with_drift_threshold(2.0);
    assert!(report.outcome.succeeded(), "outcome: {:?}", report.outcome);
    assert_eq!(
        report.reoptimizations.len(),
        1,
        "{:?}",
        report.reoptimizations
    );
    let note = &report.reoptimizations[0];
    assert_eq!(note.from_tier, "sim-large");
    assert_eq!(note.to_tier, "sim-small");
    // The run fits the latency budget only because of the downgrade.
    assert!(report.budget.spent_latency_micros < 1_000_000);
}

/// The no-drift control: the same run with the threshold above the
/// observed 7.3× drift never re-optimizes, so the large tier runs and the
/// actual spend overruns the latency budget.
#[test]
fn adaptive_replanning_never_fires_below_threshold() {
    let report = handle_with_drift_threshold(8.0);
    assert!(
        report.reoptimizations.is_empty(),
        "unexpected: {:?}",
        report.reoptimizations
    );
    match &report.outcome {
        Outcome::Aborted { reason } => assert!(reason.contains("exceeded"), "{reason}"),
        other => panic!("expected the large tier to overrun, got {other:?}"),
    }
}

/// A `FromData` binding no source can satisfy (no document source on this
/// runtime) still lowers; it fails its own node when dispatched, after the
/// upstream node ran, with the data planner's error text.
#[test]
fn unplannable_binding_fails_on_its_own_node() {
    let (coordinator, _factory) = fresh_runtime(SchedulerMode::Sequential);
    let mut plan = build_plan(&[(vec![], false), (vec![0], false)]);
    plan.nodes[1].inputs.insert(
        "jobs".into(),
        InputBinding::FromData {
            query: "candidate profiles".into(),
        },
    );
    plan.nodes[1].agent = "data-join-1".into();
    let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
    let expected = data_planner()
        .satisfy("candidate profiles", RUNNING_EXAMPLE)
        .unwrap_err()
        .to_string();
    match &report.outcome {
        Outcome::Failed { node, error } => {
            assert_eq!(node, "n1");
            assert_eq!(error, &expected);
        }
        other => panic!("unexpected outcome: {other:?}"),
    }
    assert_eq!(report.node_results.len(), 1);
    assert!(report.node_results[0].ok);
    assert_eq!(report.node_results[0].node, "n0");
}

/// The joint search space of the running example's plan (the bench HR
/// runtime of Fig 6): the agent nodes in plan order, then the spliced
/// operators in splice order, each with its candidate list as
/// `(item, cost, latency, accuracy)`.
#[test]
fn running_example_choice_points_are_agents_then_spliced_operators() {
    let bp = Blueprint::builder()
        .with_hr_domain(HrConfig {
            seed: 7,
            jobs: 300,
            applicants: 200,
            companies: 25,
            applications: 600,
        })
        .build()
        .unwrap();
    let plan = bp.task_planner().plan(RUNNING_EXAMPLE).unwrap();
    let ir = PlanIr::lower_spliced(&plan, bp.data_planner()).unwrap();
    let points: Vec<String> = ir
        .choice_points()
        .iter()
        .map(|p| {
            let options: Vec<String> = p
                .options
                .iter()
                .map(|c| {
                    format!(
                        "({}, {:?}, {}, {:?})",
                        c.item,
                        c.profile.cost_per_call,
                        c.profile.latency_micros,
                        c.profile.accuracy
                    )
                })
                .collect();
            format!("{} [{}]", p.node, options.join(", "))
        })
        .collect();
    assert_eq!(
        points,
        [
            "n1 [(profiler, 0.5, 60000, 0.95)]",
            "n2 [(job-matcher, 2.0, 120000, 0.9)]",
            "n3 [(presenter, 0.05, 5000, 1.0)]",
            "d1 [(d1, 0.0, 0, 1.0)]",
            "d2 [(gpt-large, 0.3, 680000, 0.98)]",
            "d3 [(d3, 0.001, 80, 1.0)]",
            "d4 [(d4, 0.001, 80, 1.0)]",
        ]
    );
}

/// A JSON-typed input fed from the user text (the job matcher's profile,
/// with no profiler upstream) lowers to a spliced extract plan, so the
/// optimizer's choice points cover the extract call. Running it gives the
/// matcher the extracted profile, as a plan that hands it over as a literal
/// does, with the ledger bit for bit what the extraction at dispatch
/// charged before it moved into the IR.
#[test]
fn user_text_extraction_is_spliced_into_the_ir() {
    let bp = Blueprint::builder()
        .with_hr_domain(HrConfig {
            seed: 7,
            jobs: 300,
            applicants: 200,
            companies: 25,
            applications: 600,
        })
        .build()
        .unwrap();
    let subtasks = [
        "match the job seeker profile against available job listings and rank them".to_string(),
        "present results and content to the end user".to_string(),
    ];
    let plan = bp
        .task_planner()
        .plan_subtasks(RUNNING_EXAMPLE, &subtasks, &[])
        .unwrap();
    assert_eq!(plan.nodes[0].agent, "job-matcher");
    assert_eq!(
        plan.nodes[0].inputs["job_seeker_data"],
        InputBinding::FromUser
    );
    let session = bp.start_session().unwrap();
    let coordinator = session.coordinator();

    let ir = coordinator.lower(&plan, &QosConstraints::none()).unwrap();
    let n1 = ir.node("n1").unwrap();
    let Some(IrBinding::Spliced { plan: extract, .. }) = n1.inputs.get("job_seeker_data") else {
        panic!("not spliced: {:?}", n1.inputs["job_seeker_data"]);
    };
    assert!(extract.nodes.iter().any(|n| n.op == DataOp::Extract));
    // The text input stays the utterance.
    assert_eq!(n1.inputs["criteria"], IrBinding::FromUser);
    let points: Vec<String> = ir.choice_points().into_iter().map(|p| p.node).collect();
    for op in &extract.nodes {
        assert!(points.contains(&op.id), "{} not in {points:?}", op.id);
    }

    let report = coordinator.execute(&plan, QosConstraints::none()).unwrap();
    let Outcome::Completed { output } = &report.outcome else {
        panic!("outcome: {:?}", report.outcome);
    };
    // The same matcher fed the extracted profile as a literal.
    let dp = bp.data_planner();
    let profile = dp
        .execute(&dp.plan_extract(RUNNING_EXAMPLE))
        .unwrap()
        .value
        .into_json();
    let mut literal = plan.clone();
    literal.task_id = "literal".into();
    literal.nodes[0]
        .inputs
        .insert("job_seeker_data".into(), InputBinding::Literal(profile));
    let reference = coordinator
        .execute(&literal, QosConstraints::none())
        .unwrap();
    let Outcome::Completed { output: expected } = &reference.outcome else {
        panic!("reference outcome: {:?}", reference.outcome);
    };
    assert_eq!(output.to_string(), expected.to_string());
    // The ledger the extraction charged at dispatch, before it was spliced.
    assert_eq!(report.budget.spent_cost.to_bits(), 0x3fef6c8b43958106);
    assert_eq!(report.budget.spent_latency_micros, 1_124_460);
    assert_eq!(report.budget.accuracy_so_far.to_bits(), 0x3feba8d64d7f0ed3);
}

/// The task's own latency cap picks the knowledge tier for the whole plan.
/// Maximizing accuracy on the large and small tiers under an 800 000 µs
/// cap: the large tier's 680 000 µs estimate fits the cap on its own, but
/// the plan composed around it (865 160 µs estimated) does not, so the
/// coordinator's joint optimization runs the small tier (365 160 µs), and
/// the task completes within the cap. A per-operator pick runs the large
/// tier, and the task aborts on its actual spend.
#[test]
fn task_latency_cap_picks_the_tier_for_the_whole_plan() {
    let bp = Blueprint::builder()
        .with_hr_domain(HrConfig {
            seed: 5,
            jobs: 60,
            applicants: 50,
            companies: 8,
            applications: 100,
        })
        .with_model(ModelProfile::large())
        .with_extra_model(ModelProfile::small())
        .with_objective(Objective::MaxAccuracy)
        .with_constraints(QosConstraints::none().with_max_latency_micros(800_000))
        .build()
        .unwrap();
    let report = bp.start_session().unwrap().handle(RUNNING_EXAMPLE).unwrap();
    assert!(report.outcome.succeeded(), "outcome: {:?}", report.outcome);
    assert!(report.reoptimizations.is_empty());
    assert!(
        report.budget.spent_latency_micros <= 800_000,
        "{}",
        report.budget.spent_latency_micros
    );
}

/// The running example lowered on the bench HR runtime with all three
/// model tiers as knowledge sources, built once for the whole battery.
fn three_tier_ir() -> &'static PlanIr {
    static IR: OnceLock<PlanIr> = OnceLock::new();
    IR.get_or_init(|| {
        let bp = Blueprint::builder()
            .with_hr_domain(HrConfig {
                seed: 7,
                jobs: 300,
                applicants: 200,
                companies: 25,
                applications: 600,
            })
            .with_model(ModelProfile::large())
            .with_extra_model(ModelProfile::small())
            .with_extra_model(ModelProfile::tiny())
            .build()
            .unwrap();
        let plan = bp.task_planner().plan(RUNNING_EXAMPLE).unwrap();
        PlanIr::lower_spliced(&plan, bp.data_planner()).unwrap()
    })
}

/// The composed profile of every assignment of one option per point.
fn every_assignment(points: &[ChoicePoint<String>]) -> Vec<CostProfile> {
    points.iter().fold(vec![CostProfile::FREE], |acc, p| {
        acc.iter()
            .flat_map(|a| p.options.iter().map(move |o| a.then(&o.profile)))
            .collect()
    })
}

fn objective_strategy() -> impl Strategy<Value = Objective> {
    (0usize..4, 0.0f64..2.0, 0.0f64..2.0, 0.0f64..2.0).prop_map(
        |(kind, cost_w, latency_w, accuracy_w)| match kind {
            0 => Objective::MinCost,
            1 => Objective::MinLatency,
            2 => Objective::MaxAccuracy,
            _ => Objective::Weighted {
                cost_w,
                latency_w,
                accuracy_w,
            },
        },
    )
}

/// Caps around the running example's composed plans (cost 2.555–2.852,
/// latency 224 160–865 160 µs, accuracy 0.641–0.838 across the tiers).
fn constraints_strategy() -> impl Strategy<Value = QosConstraints> {
    (
        prop::option::of(2.5f64..2.9),
        prop::option::of(200_000u64..900_000),
        prop::option::of(0.6f64..0.86),
    )
        .prop_map(
            |(max_cost, max_latency_micros, min_accuracy)| QosConstraints {
                max_cost,
                max_latency_micros,
                min_accuracy,
            },
        )
}

proptest! {
    /// The joint pick against brute-force enumeration and against the
    /// greedy per-operator pick.
    #[test]
    fn joint_pick_is_feasible_and_no_worse_than_greedy(
        objective in objective_strategy(),
        constraints in constraints_strategy(),
    ) {
        let ir = three_tier_ir();
        let points = ir.choice_points();
        let joint = ir.clone().optimize(objective, &constraints);
        let feasible = every_assignment(&points)
            .iter()
            .any(|p| constraints.admits(p));
        prop_assert_eq!(joint.is_some(), feasible);
        if let Some(picked) = joint {
            prop_assert!(constraints.admits(&picked), "{picked:?} under {constraints:?}");
        }
        let greedy = points.iter().try_fold(CostProfile::FREE, |acc, p| {
            select(&p.options, objective, &constraints).map(|i| acc.then(&p.options[i].profile))
        });
        if let Some(greedy) = greedy.filter(|g| constraints.admits(g)) {
            let picked = joint.expect("a feasible greedy plan makes the joint search feasible");
            prop_assert!(
                objective.score(&picked) <= objective.score(&greedy),
                "joint {picked:?} vs greedy {greedy:?} for {objective:?}"
            );
        }
    }
}
