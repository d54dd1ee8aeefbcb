//! The YourJourney agent suite.
//!
//! Maps the company's "existing models and APIs" onto blueprint agents
//! (§V-B, §V-C): each agent below is registered both in the
//! [`AgentFactory`] (so instances can be spawned into containers) and in the
//! [`AgentRegistry`] (so the task planner can discover it). The
//! tag-triggered agents (INTENT CLASSIFIER → AGENTIC EMPLOYER → NL2Q →
//! SQL EXECUTOR → QUERY SUMMARIZER) reproduce the decentralized flow of
//! Fig 10; AGENTIC EMPLOYER's plan emission reproduces Fig 9.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde_json::{json, Value};

use blueprint_agents::{
    ActivationMode, AgentContext, AgentError, AgentFactory, AgentSpec, CostProfile, DataType,
    Deployment, FnProcessor, Inputs, Outputs, ParamSpec, Processor, StreamBinding, UiField, UiForm,
};
use blueprint_llmsim::SimLlm;
use blueprint_planner::{InputBinding, PlanNode, TaskPlan};
use blueprint_registry::AgentRegistry;
use blueprint_streams::Message;

use crate::data::{slug, HrDataset};
use crate::matcher::{rank_jobs, rank_rows};

static PLAN_COUNTER: AtomicU64 = AtomicU64::new(1);

/// Handles to the registered suite.
pub struct HrAgents {
    /// Names of the registered agents, in registration order.
    pub names: Vec<String>,
}

/// Converts model usage into context charges.
fn charge(ctx: &AgentContext, usage: blueprint_llmsim::Usage) {
    ctx.charge_cost(usage.cost);
    ctx.charge_latency_micros(usage.latency_micros);
}

/// Registers the full suite into a factory and registry.
pub fn register_hr_agents(
    factory: &AgentFactory,
    registry: &AgentRegistry,
    dataset: Arc<HrDataset>,
    llm: Arc<SimLlm>,
) -> blueprint_agents::Result<HrAgents> {
    let mut names = Vec::new();
    let mut add = |spec: AgentSpec, proc: Arc<dyn Processor>| -> blueprint_agents::Result<()> {
        names.push(spec.name.clone());
        factory.register(spec.clone(), proc)?;
        registry
            .register(spec)
            .map_err(|e| AgentError::InvalidSpec(e.to_string()))?;
        Ok(())
    };

    // ── PROFILER ─────────────────────────────────────────────────────────
    {
        let llm = Arc::clone(&llm);
        let spec = AgentSpec::new(
            "profiler",
            "collect job seeker profile information from the user via a UI form",
        )
        .with_input(ParamSpec::required(
            "text",
            "the user utterance",
            DataType::Text,
        ))
        .with_output(ParamSpec::required(
            "profile",
            "the collected job seeker profile with title, location, skills",
            DataType::Json,
        ))
        .with_profile(CostProfile::new(0.5, 60_000, 0.95));
        let proc = Arc::new(FnProcessor::new(
            move |inputs: &Inputs, ctx: &AgentContext| {
                let text = inputs.require_str("text")?;
                // Present the profile form (declarative UI, rendered elsewhere).
                let form = UiForm::new("profile", "Job Seeker Profile")
                    .with_field(UiField::text("title", "Desired title"))
                    .with_field(UiField::text("location", "Preferred location"))
                    .with_field(UiField::button("submit", "Submit"));
                ctx.emit("ui", form.into_message())?;
                let (criteria, usage) = llm.extract_criteria(text);
                charge(ctx, usage);
                let mut profile = criteria.to_json();
                profile["experience_years"] = json!(5);
                Ok(Outputs::new().with("profile", profile))
            },
        ));
        add(spec, proc)?;
    }

    // ── JOB MATCHER ──────────────────────────────────────────────────────
    {
        let dataset2 = Arc::clone(&dataset);
        let spec = AgentSpec::new(
            "job-matcher",
            "match the job seeker profile against available job listings and rank them",
        )
        .with_input(ParamSpec::required(
            "job_seeker_data",
            "the job seeker profile to match",
            DataType::Json,
        ))
        .with_input(ParamSpec::required(
            "jobs",
            "available job listings",
            DataType::Table,
        ))
        .with_input(ParamSpec::optional(
            "criteria",
            "additional matching conditions",
            DataType::Text,
        ))
        .with_output(ParamSpec::required(
            "matches",
            "ranked matched jobs with scores and explanations",
            DataType::Table,
        ))
        .with_profile(CostProfile::new(2.0, 120_000, 0.9))
        .with_deployment(Deployment::gpu(2));
        let proc = Arc::new(FnProcessor::new(
            move |inputs: &Inputs, ctx: &AgentContext| {
                let profile = inputs.require("job_seeker_data")?;
                let related: Vec<String> = profile
                    .get("title")
                    .and_then(Value::as_str)
                    .map(|t| {
                        dataset2
                            .taxonomy
                            .traverse(&slug(t), None, 1, true)
                            .unwrap_or_default()
                            .into_iter()
                            .filter_map(|n| {
                                n.props
                                    .get("name")
                                    .and_then(Value::as_str)
                                    .map(str::to_string)
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                // A data plan's rows arrive as a batch, read by column;
                // JSON rows (a literal, an upstream agent) are ranked as is.
                let (count, ranked) = match inputs.rows("jobs") {
                    Some(batch) => (batch.len(), rank_rows(profile, batch, &related, 10)),
                    None => {
                        let jobs = inputs
                            .require("jobs")?
                            .as_array()
                            .map_or(&[][..], Vec::as_slice);
                        (jobs.len(), rank_jobs(profile, jobs, &related, 10))
                    }
                };
                ctx.charge_cost(0.002 * count as f64);
                ctx.charge_latency_micros(100 + 20 * count as u64);
                let matches: Vec<Value> = ranked
                    .into_iter()
                    .map(|m| json!({"job": m.job, "score": m.score, "why": m.explanation}))
                    .collect();
                Ok(Outputs::new().with("matches", Value::Array(matches)))
            },
        ));
        add(spec, proc)?;
    }

    // ── PRESENTER ────────────────────────────────────────────────────────
    {
        let spec = AgentSpec::new("presenter", "present results and content to the end user")
            .with_input(ParamSpec::required(
                "content",
                "the content to present",
                DataType::Any,
            ))
            .with_output(ParamSpec::required(
                "rendered",
                "the rendered presentation text",
                DataType::Text,
            ))
            .with_profile(CostProfile::new(0.05, 5_000, 1.0));
        let proc = Arc::new(FnProcessor::new(|inputs: &Inputs, ctx: &AgentContext| {
            let content = inputs.require("content")?;
            ctx.charge_latency_micros(1_000);
            let rendered = render_content(content);
            ctx.emit(
                "display",
                Message::data(rendered.clone()).with_tag("display"),
            )?;
            Ok(Outputs::new().with("rendered", json!(rendered)))
        }));
        add(spec, proc)?;
    }

    // ── INTENT CLASSIFIER (decentralized, Fig 10 step 2) ────────────────
    {
        let llm2 = Arc::clone(&llm);
        let spec = AgentSpec::new(
            "intent-classifier",
            "classify the intent of a user utterance in the conversation",
        )
        .with_input(ParamSpec::required(
            "text",
            "the user utterance",
            DataType::Text,
        ))
        .with_output(ParamSpec::required(
            "intent",
            "the identified intent with the original text",
            DataType::Json,
        ))
        .with_binding(StreamBinding::tagged("text", ["user-text"]))
        .with_activation(ActivationMode::Hybrid)
        .with_output_tag("intent")
        .with_profile(CostProfile::new(0.2, 30_000, 0.93));
        let proc = Arc::new(FnProcessor::new(
            move |inputs: &Inputs, ctx: &AgentContext| {
                let text = inputs.require_str("text")?;
                let (intent, confidence, usage) = llm2.classify_intent(text);
                charge(ctx, usage);
                Ok(Outputs::new().with(
                    "intent",
                    json!({
                        "intent": format!("{intent:?}"),
                        "tag": intent.tag(),
                        "confidence": confidence,
                        "text": text,
                    }),
                ))
            },
        ));
        add(spec, proc)?;
    }

    // ── NL2Q (decentralized, Fig 10 step 3) ──────────────────────────────
    {
        let llm2 = Arc::clone(&llm);
        let spec = AgentSpec::new(
            "nl2q",
            "translate a natural language question into a database query such as SQL",
        )
        .with_input(ParamSpec::required(
            "question",
            "the question text",
            DataType::Text,
        ))
        .with_output(ParamSpec::required(
            "query",
            "the SQL query",
            DataType::Text,
        ))
        .with_binding(StreamBinding::tagged("question", ["nlq"]))
        .with_activation(ActivationMode::Hybrid)
        .with_output_tag("sql")
        .with_profile(CostProfile::new(1.0, 90_000, 0.9))
        .with_deployment(Deployment::gpu(1));
        // The schema and the data-aware value dictionary are indexed once at
        // registration (the offline value index a real NL2Q system builds),
        // not rebuilt on every conversational query.
        let tables: Vec<blueprint_llmsim::nl2sql::TableSchema> = dataset
            .db
            .table_names()
            .iter()
            .map(|t| blueprint_llmsim::nl2sql::TableSchema {
                name: t.clone(),
                columns: dataset
                    .db
                    .schema_of(t)
                    .expect("table exists")
                    .columns
                    .iter()
                    .map(|c| (c.name.clone(), c.ctype.name().to_lowercase()))
                    .collect(),
            })
            .collect();
        let mut values = std::collections::HashMap::new();
        for source_col in ["city", "title", "status"] {
            let mut vals: Vec<String> = Vec::new();
            for table in dataset.db.table_names() {
                if dataset
                    .db
                    .schema_of(&table)
                    .map(|s| s.index_of(source_col).is_some())
                    .unwrap_or(false)
                {
                    if let Ok(rs) = dataset
                        .db
                        .execute(&format!("SELECT DISTINCT {source_col} FROM {table}"))
                    {
                        for row in rs.rows {
                            if let Some(s) = row[0].as_str() {
                                let lower = s.to_lowercase();
                                if !vals.contains(&lower) {
                                    vals.push(lower);
                                }
                            }
                        }
                    }
                }
            }
            values.insert(source_col.to_string(), vals);
        }
        let proc = Arc::new(FnProcessor::new(
            move |inputs: &Inputs, ctx: &AgentContext| {
                let question = inputs.require_str("question")?;
                let (sql, usage) = llm2.nl_to_sql(question, &tables, &values);
                charge(ctx, usage);
                let sql = sql.ok_or_else(|| {
                    AgentError::ProcessorFailed(format!("could not translate: {question}"))
                })?;
                Ok(Outputs::new().with("query", json!(sql)))
            },
        ));
        add(spec, proc)?;
    }

    // ── SQL EXECUTOR (decentralized, Fig 10 step 4) ──────────────────────
    {
        let dataset2 = Arc::clone(&dataset);
        let spec = AgentSpec::new(
            "sql-executor",
            "execute a SQL query against the HR database",
        )
        .with_input(ParamSpec::required(
            "query",
            "the SQL query text",
            DataType::Text,
        ))
        .with_output(ParamSpec::required(
            "rows",
            "the query result rows",
            DataType::Table,
        ))
        .with_binding(StreamBinding::tagged("query", ["sql"]))
        .with_activation(ActivationMode::Hybrid)
        .with_output_tag("rows")
        .with_profile(CostProfile::new(0.01, 5_000, 1.0))
        .with_deployment(Deployment {
            kind: blueprint_agents::DeploymentKind::DataProximate,
            ..Default::default()
        });
        let proc = Arc::new(FnProcessor::new(
            move |inputs: &Inputs, ctx: &AgentContext| {
                let sql = inputs.require_str("query")?;
                ctx.charge_cost(0.001);
                ctx.charge_latency_micros(2_000);
                let rs = dataset2
                    .db
                    .execute(sql)
                    .map_err(|e| AgentError::ProcessorFailed(e.to_string()))?;
                Ok(Outputs::new().with("rows", rs.into_json()))
            },
        ));
        add(spec, proc)?;
    }

    // ── QUERY SUMMARIZER (decentralized, Fig 10 step 5) ──────────────────
    {
        let llm2 = Arc::clone(&llm);
        let spec = AgentSpec::new(
            "query-summarizer",
            "summarize and explain database query results in natural language",
        )
        .with_input(ParamSpec::required(
            "rows",
            "the query result rows to explain",
            DataType::Table,
        ))
        .with_output(ParamSpec::required(
            "summary",
            "the explanation text",
            DataType::Text,
        ))
        .with_binding(StreamBinding::tagged("rows", ["rows"]))
        .with_activation(ActivationMode::Hybrid)
        .with_output_tag("summary")
        .with_profile(CostProfile::new(1.0, 90_000, 0.92));
        let proc = Arc::new(FnProcessor::new(
            move |inputs: &Inputs, ctx: &AgentContext| {
                let rows = inputs.require("rows")?;
                let (summary, usage) = llm2.summarize_rows(rows);
                charge(ctx, usage);
                // LLM output is itself a stream (§V-A): emit the summary token
                // by token so renderers can display it incrementally.
                for token in blueprint_llmsim::SimLlm::stream_tokens(&summary) {
                    ctx.emit("summary-tokens", Message::data(token).with_tag("token"))?;
                }
                Ok(Outputs::new().with("summary", json!(summary)))
            },
        ));
        add(spec, proc)?;
    }

    // ── SUMMARIZER (Fig 9's applicant summarizer) ────────────────────────
    {
        let llm2 = Arc::clone(&llm);
        let dataset2 = Arc::clone(&dataset);
        let spec = AgentSpec::new(
            "summarizer",
            "summarize the applicants who applied to a given job posting",
        )
        .with_input(ParamSpec::required(
            "job_id",
            "the job posting id to summarize applicants for",
            DataType::Number,
        ))
        .with_output(ParamSpec::required(
            "summary",
            "the applicant pool summary",
            DataType::Text,
        ))
        .with_profile(CostProfile::new(1.5, 100_000, 0.92));
        let proc = Arc::new(FnProcessor::new(
            move |inputs: &Inputs, ctx: &AgentContext| {
                let job_id = inputs
                    .require("job_id")?
                    .as_i64()
                    .ok_or_else(|| AgentError::ProcessorFailed("job_id must be a number".into()))?;
                let rs = dataset2
                    .db
                    .execute(&format!(
                        "SELECT a.name, a.title, a.city, ap.status FROM applications ap \
                     JOIN applicants a ON ap.applicant_id = a.id WHERE ap.job_id = {job_id}"
                    ))
                    .map_err(|e| AgentError::ProcessorFailed(e.to_string()))?;
                let (summary, usage) = llm2.summarize_rows(&rs.into_json());
                charge(ctx, usage);
                Ok(Outputs::new().with("summary", json!(format!("Job {job_id}: {summary}"))))
            },
        ));
        add(spec, proc)?;
    }

    // ── RESPONDER (conversational fallback) ──────────────────────────────
    {
        let llm2 = Arc::clone(&llm);
        let spec = AgentSpec::new(
            "responder",
            "respond conversationally to the user with a grounded completion",
        )
        .with_input(ParamSpec::required(
            "text",
            "the user utterance",
            DataType::Text,
        ))
        .with_output(ParamSpec::required(
            "reply",
            "the conversational reply",
            DataType::Text,
        ))
        .with_profile(CostProfile::new(0.3, 50_000, 0.9));
        let proc = Arc::new(FnProcessor::new(
            move |inputs: &Inputs, ctx: &AgentContext| {
                let text = inputs.require_str("text")?;
                let t = text.to_lowercase();
                let (reply, usage) =
                    if t.contains("hello") || t.contains("hi ") || t.starts_with("hi") {
                        (
                    "Hello! Ask me about jobs, applicants, or say what role you're looking for."
                        .to_string(),
                    blueprint_llmsim::Usage::default(),
                )
                    } else {
                        llm2.complete(text)
                    };
                charge(ctx, usage);
                Ok(Outputs::new().with("reply", json!(reply)))
            },
        ));
        add(spec, proc)?;
    }

    // ── AGENTIC EMPLOYER (the application driver, §VI) ───────────────────
    {
        let spec = AgentSpec::new(
            "agentic-employer",
            "drive the agentic employer application: route UI events and classified intents",
        )
        .with_input(ParamSpec::required(
            "input",
            "a UI event or a classified intent",
            DataType::Any,
        ))
        .with_binding(StreamBinding::tagged("input", ["ui-event", "intent"]))
        .with_activation(ActivationMode::Decentralized)
        .with_profile(CostProfile::new(0.05, 5_000, 1.0));
        let proc = Arc::new(FnProcessor::new(
            move |inputs: &Inputs, ctx: &AgentContext| {
                let input = inputs.require("input")?;
                ctx.charge_latency_micros(1_000);
                // UI event: a job selection → emit the job id and a plan to
                // summarize its applicants (Fig 9 steps 2-3).
                if let Some(obj) = input.as_object() {
                    if obj.get("field").and_then(Value::as_str) == Some("job") {
                        let job_id = obj.get("value").cloned().unwrap_or(Value::Null);
                        ctx.emit(
                            "jobs-selected",
                            Message::data_json(job_id.clone()).with_tag("job-selected"),
                        )?;
                        let mut plan = TaskPlan::new(
                            format!("ae-{}", PLAN_COUNTER.fetch_add(1, Ordering::Relaxed)),
                            format!("summarize applicants for job {job_id}"),
                        );
                        let mut node_inputs = std::collections::BTreeMap::new();
                        node_inputs.insert("job_id".to_string(), InputBinding::Literal(job_id));
                        plan.push(PlanNode {
                            id: "n1".into(),
                            agent: "summarizer".into(),
                            task: "summarize the applicants for the selected job".into(),
                            inputs: node_inputs,
                            profile: CostProfile::new(1.5, 100_000, 0.92),
                        });
                        ctx.emit("plans", plan.into_message())?;
                        return Ok(Outputs::new());
                    }
                    // Classified intent: open-ended query → tag it NLQ so the
                    // NL2Q agent picks it up (Fig 10 step 3).
                    match obj.get("tag").and_then(Value::as_str) {
                        Some("intent-open-query") => {
                            let text = obj
                                .get("text")
                                .and_then(Value::as_str)
                                .unwrap_or_default()
                                .to_string();
                            ctx.emit("nlq", Message::data(text).with_tag("nlq"))?;
                            return Ok(Outputs::new());
                        }
                        // Greetings and unclassifiable turns route to the
                        // conversational responder via a plan (same mechanism
                        // as Fig 9's summarizer plan).
                        Some("intent-greeting") | Some("intent-unknown") => {
                            let text = obj
                                .get("text")
                                .and_then(Value::as_str)
                                .unwrap_or_default()
                                .to_string();
                            let mut plan = TaskPlan::new(
                                format!("ae-{}", PLAN_COUNTER.fetch_add(1, Ordering::Relaxed)),
                                text.clone(),
                            );
                            let mut node_inputs = std::collections::BTreeMap::new();
                            node_inputs
                                .insert("text".to_string(), InputBinding::Literal(json!(text)));
                            plan.push(PlanNode {
                                id: "n1".into(),
                                agent: "responder".into(),
                                task: "respond conversationally to the user".into(),
                                inputs: node_inputs,
                                profile: CostProfile::new(0.3, 50_000, 0.9),
                            });
                            ctx.emit("plans", plan.into_message())?;
                            return Ok(Outputs::new());
                        }
                        _ => {}
                    }
                }
                Ok(Outputs::new())
            },
        ));
        add(spec, proc)?;
    }

    Ok(HrAgents { names })
}

/// Renders arbitrary JSON content as display text (the simple renderer of
/// §V-B; complex values get a compact browsable form).
fn render_content(content: &Value) -> String {
    match content {
        Value::String(s) => s.clone(),
        Value::Array(items) => {
            let mut out = format!("{} item(s):\n", items.len());
            for (i, item) in items.iter().take(10).enumerate() {
                out.push_str(&format!("  {}. {}\n", i + 1, compact(item)));
            }
            if items.len() > 10 {
                out.push_str("  …\n");
            }
            out
        }
        other => compact(other),
    }
}

fn compact(v: &Value) -> String {
    match v {
        Value::Object(map) => {
            let parts: Vec<String> = map
                .iter()
                .map(|(k, v)| match v {
                    Value::String(s) => format!("{k}: {s}"),
                    other => format!("{k}: {other}"),
                })
                .collect();
            parts.join(", ")
        }
        Value::String(s) => s.clone(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::HrConfig;
    use blueprint_agents::ExecuteAgent;
    use blueprint_llmsim::ModelProfile;
    use blueprint_streams::{Selector, StreamId, StreamStore, TagFilter};
    use std::time::Duration;

    fn setup() -> (
        StreamStore,
        AgentFactory,
        Arc<AgentRegistry>,
        Arc<HrDataset>,
    ) {
        let store = StreamStore::new();
        let factory = AgentFactory::new(store.clone());
        let registry = Arc::new(AgentRegistry::new());
        let dataset = Arc::new(HrDataset::generate(HrConfig {
            seed: 11,
            jobs: 60,
            applicants: 50,
            companies: 8,
            applications: 120,
        }));
        let llm = Arc::new(SimLlm::new(ModelProfile::large()));
        register_hr_agents(&factory, &registry, Arc::clone(&dataset), llm).unwrap();
        (store, factory, registry, dataset)
    }

    #[test]
    fn registers_the_full_suite() {
        let (_, factory, registry, _) = setup();
        assert_eq!(factory.registered().len(), 10);
        assert_eq!(registry.len(), 10);
        assert!(registry.contains("agentic-employer"));
        assert!(registry.contains("responder"));
    }

    #[test]
    fn profiler_extracts_profile() {
        let (_, factory, _, _) = setup();
        let id = factory.spawn("profiler", "session:1").unwrap();
        let out = factory
            .with_instance(id, |h| {
                h.host().execute_now(Inputs::new().with(
                    "text",
                    json!("I am looking for a data scientist position in SF bay area."),
                ))
            })
            .unwrap()
            .unwrap();
        let profile = out.get("profile").unwrap();
        assert_eq!(profile["title"], json!("data scientist"));
        assert_eq!(profile["location"], json!("sf bay area"));
    }

    #[test]
    fn job_matcher_ranks_with_taxonomy_credit() {
        let (_, factory, _, _) = setup();
        let id = factory.spawn("job-matcher", "session:1").unwrap();
        let jobs = json!([
            {"id": 1, "title": "data scientist", "city": "san francisco"},
            {"id": 2, "title": "machine learning engineer", "city": "san francisco"},
            {"id": 3, "title": "recruiter", "city": "boston"},
        ]);
        let out = factory
            .with_instance(id, |h| {
                h.host().execute_now(
                    Inputs::new()
                        .with(
                            "job_seeker_data",
                            json!({"title": "data scientist", "city": "san francisco",
                                   "skills": ["python"], "experience_years": 4}),
                        )
                        .with("jobs", jobs),
                )
            })
            .unwrap()
            .unwrap();
        let matches = out.get("matches").unwrap().as_array().unwrap().clone();
        assert_eq!(matches[0]["job"]["id"], json!(1));
        // The related title (via taxonomy) outranks the unrelated one.
        assert_eq!(matches[1]["job"]["id"], json!(2));
        assert!(matches[0]["why"].as_str().unwrap().contains("exact title"));
    }

    #[test]
    fn sql_executor_runs_queries() {
        let (_, factory, _, _) = setup();
        let id = factory.spawn("sql-executor", "session:1").unwrap();
        let out = factory
            .with_instance(id, |h| {
                h.host().execute_now(
                    Inputs::new().with("query", json!("SELECT COUNT(*) AS n FROM jobs")),
                )
            })
            .unwrap()
            .unwrap();
        assert_eq!(out.get("rows").unwrap()[0]["n"], json!(60));
    }

    #[test]
    fn summarizer_describes_applicant_pool() {
        let (_, factory, _, _) = setup();
        let id = factory.spawn("summarizer", "session:1").unwrap();
        let out = factory
            .with_instance(id, |h| {
                h.host().execute_now(Inputs::new().with("job_id", json!(1)))
            })
            .unwrap()
            .unwrap();
        let summary = out.get("summary").unwrap().as_str().unwrap();
        assert!(summary.starts_with("Job 1:"));
    }

    #[test]
    fn fig10_decentralized_chain_end_to_end() {
        // user text → IC → AE → NL2Q → SQL-executor → query-summarizer,
        // purely through stream tags.
        let (store, factory, _, _) = setup();
        for agent in [
            "intent-classifier",
            "agentic-employer",
            "nl2q",
            "sql-executor",
            "query-summarizer",
        ] {
            factory.spawn(agent, "session:1").unwrap();
        }
        let summary_sub = store
            .subscribe(Selector::AllStreams, TagFilter::any_of(["summary"]))
            .unwrap();
        store
            .publish_to(
                "session:1:user",
                ["user-text"],
                Message::data("How many applicants per city?")
                    .with_tag("user-text")
                    .from_producer("user"),
            )
            .unwrap();
        let summary = summary_sub.recv_timeout(Duration::from_secs(10)).unwrap();
        let text = summary.payload().as_str().unwrap();
        assert!(text.contains("row"));
        assert!(text.contains("city"));
    }

    #[test]
    fn fig9_ui_event_emits_plan() {
        let (store, factory, _, _) = setup();
        factory.spawn("agentic-employer", "session:1").unwrap();
        let plan_sub = store
            .subscribe(Selector::AllStreams, TagFilter::any_of(["task-plan"]))
            .unwrap();
        let form = UiForm::new("applicants", "Applicants").with_field(UiField::select(
            "job",
            "Job",
            ["1", "2"],
        ));
        store
            .publish_to(
                "session:1:ui:applicants:events",
                ["ui-event"],
                form.event("job", json!(1)),
            )
            .unwrap();
        let plan_msg = plan_sub.recv_timeout(Duration::from_secs(5)).unwrap();
        let plan = TaskPlan::from_message(&plan_msg).unwrap();
        assert_eq!(plan.nodes[0].agent, "summarizer");
        assert_eq!(
            plan.nodes[0].inputs["job_id"],
            InputBinding::Literal(json!(1))
        );
        // The job id was also emitted as data (Fig 9 step 2).
        let selected = store
            .read(&StreamId::new("session:1:jobs-selected"), 0)
            .unwrap();
        assert_eq!(selected.len(), 1);
        assert_eq!(selected[0].payload(), &json!(1));
    }

    #[test]
    fn query_summarizer_streams_tokens() {
        // The summary also arrives token-by-token on a dedicated stream
        // (§V-A: LLM output is a stream of token messages).
        let (store, factory, _, _) = setup();
        factory.spawn("query-summarizer", "session:4").unwrap();
        let token_sub = store
            .subscribe(Selector::AllStreams, TagFilter::any_of(["token"]))
            .unwrap();
        let summary_sub = store
            .subscribe(Selector::AllStreams, TagFilter::any_of(["summary"]))
            .unwrap();
        store
            .publish_to(
                "session:4:rows",
                Vec::<blueprint_streams::Tag>::new(),
                Message::data_json(json!([{"city": "sf", "n": 2}])).with_tag("rows"),
            )
            .unwrap();
        let summary = summary_sub.recv_timeout(Duration::from_secs(5)).unwrap();
        let full = summary.payload().as_str().unwrap().to_string();
        // Collect the token stream and rejoin it.
        std::thread::sleep(Duration::from_millis(100));
        let tokens: Vec<String> = token_sub
            .drain()
            .into_iter()
            .filter_map(|m| m.text().map(str::to_string))
            .collect();
        assert!(!tokens.is_empty());
        assert_eq!(
            tokens.join(" "),
            full.split_whitespace().collect::<Vec<_>>().join(" ")
        );
    }

    #[test]
    fn responder_greets_and_grounds() {
        let (_, factory, _, _) = setup();
        let id = factory.spawn("responder", "session:1").unwrap();
        let out = factory
            .with_instance(id, |h| {
                h.host()
                    .execute_now(Inputs::new().with("text", json!("hello there")))
            })
            .unwrap()
            .unwrap();
        assert!(out
            .get("reply")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("Hello!"));
        // Grounded completion for knowledge questions.
        let out2 = factory
            .with_instance(id, |h| {
                h.host()
                    .execute_now(Inputs::new().with("text", json!("cities in the sf bay area")))
            })
            .unwrap()
            .unwrap();
        assert!(out2
            .get("reply")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("san francisco"));
    }

    #[test]
    fn presenter_renders_tables_and_strings() {
        let (_, factory, _, _) = setup();
        let id = factory.spawn("presenter", "session:1").unwrap();
        let out = factory
            .with_instance(id, |h| {
                h.host()
                    .execute_now(Inputs::new().with("content", json!([{"id": 1, "title": "ds"}])))
            })
            .unwrap()
            .unwrap();
        let rendered = out.get("rendered").unwrap().as_str().unwrap();
        assert!(rendered.contains("1 item(s)"));
        assert!(rendered.contains("title: ds"));
    }

    #[test]
    fn intent_classifier_instruction_path() {
        // Hybrid agents also answer explicit instructions.
        let (store, factory, _, _) = setup();
        factory.spawn("intent-classifier", "session:1").unwrap();
        let out_sub = store
            .subscribe(
                Selector::Stream(StreamId::new("session:1:intent-out")),
                TagFilter::all(),
            )
            .unwrap();
        let instr = ExecuteAgent {
            agent: "intent-classifier".into(),
            inputs: Inputs::new().with("text", json!("hello there")),
            output_stream: "session:1:intent-out".into(),
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
        let out = out_sub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(out.payload()["tag"], json!("intent-greeting"));
    }

    #[test]
    fn render_content_truncates_long_lists() {
        let items: Vec<Value> = (0..15).map(|i| json!({"i": i})).collect();
        let rendered = render_content(&Value::Array(items));
        assert!(rendered.contains("15 item(s)"));
        assert!(rendered.contains("…"));
    }
}
