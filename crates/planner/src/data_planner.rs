//! The data planner (§V-G): plans and executes data retrieval across
//! multi-modal sources. A plan records each `Knowledge` operator's
//! candidate model tiers; the plan IR's joint optimization picks among them
//! under the task's QoS constraints.

use std::collections::HashMap;
use std::sync::Arc;

use serde_json::{json, Value};

use blueprint_agents::CostProfile;
use blueprint_datastore::{CostEstimate, DataSource, DataValue, RelationalDb, SourceQuery};
use blueprint_llmsim::SimLlm;
use blueprint_optimizer::{Objective, QosConstraints};
use blueprint_registry::DataRegistry;

use crate::data_plan::{DataNode, DataOp, DataPlan};
use crate::error::PlanError;
use crate::ir::IrAlternative;
use crate::Result;

/// The result of executing a data plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutedPlan {
    /// The output node's value: JSON, or a SQL operator's row batch.
    pub value: DataValue,
    /// Actual QoS incurred (virtual time).
    pub actual: CostProfile,
    /// Per-node trace: `(node id, operator name, rows produced)`.
    pub trace: Vec<(String, String, usize)>,
}

/// Plans and executes data operations over registered sources.
pub struct DataPlanner {
    registry: Arc<DataRegistry>,
    sources: HashMap<String, Arc<dyn DataSource>>,
    llm: Arc<SimLlm>,
    objective: Objective,
    constraints: QosConstraints,
    counter: std::sync::atomic::AtomicU64,
}

impl DataPlanner {
    /// Creates a planner over a data registry with no sources attached.
    pub fn new(registry: Arc<DataRegistry>, llm: Arc<SimLlm>) -> Self {
        DataPlanner {
            registry,
            sources: HashMap::new(),
            llm,
            objective: Objective::balanced(),
            constraints: QosConstraints::none(),
            counter: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// Attaches a data source (its `name()` keys the plan's `source` refs).
    pub fn add_source(&mut self, source: Arc<dyn DataSource>) {
        self.sources.insert(source.name().to_string(), source);
    }

    /// Sets the objective the coordinator optimizes every plan IR for.
    pub fn set_objective(&mut self, objective: Objective) {
        self.objective = objective;
    }

    /// Sets the runtime's default task constraints, as reported by
    /// [`DataPlanner::constraints`]. Planning does not read them: the
    /// coordinator optimizes under each task's own budget.
    pub fn set_constraints(&mut self, constraints: QosConstraints) {
        self.constraints = constraints;
    }

    /// The data registry.
    pub fn registry(&self) -> &Arc<DataRegistry> {
        &self.registry
    }

    /// The objective the coordinator optimizes every plan IR for.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The runtime's default task constraints.
    pub fn constraints(&self) -> QosConstraints {
        self.constraints
    }

    /// Names of attached sources, sorted.
    pub fn source_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.sources.keys().cloned().collect();
        names.sort();
        names
    }

    fn next_id(&self) -> String {
        format!(
            "d{}",
            self.counter
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        )
    }

    fn source(&self, name: &str) -> Result<&Arc<dyn DataSource>> {
        self.sources
            .get(name)
            .ok_or_else(|| PlanError::NoSourceFor(name.to_string()))
    }

    fn sources_by_modality(&self, modality: &str) -> Vec<&Arc<dyn DataSource>> {
        let mut out: Vec<&Arc<dyn DataSource>> = self
            .sources
            .values()
            .filter(|s| s.modality() == modality)
            .collect();
        out.sort_by(|a, b| a.name().cmp(b.name()));
        out
    }

    /// All parametric sources able to answer `question`, with their QoS
    /// estimates, sorted by source name. These are the interchangeable model
    /// tiers the unified plan IR exposes as alternatives on `Knowledge`
    /// operators.
    pub fn parametric_candidates(&self, question: &str) -> Vec<IrAlternative> {
        let query = SourceQuery::Knowledge(question.to_string());
        self.sources_by_modality("parametric")
            .into_iter()
            .map(|s| {
                let est = s.estimate(&query);
                IrAlternative {
                    target: s.name().to_string(),
                    profile: CostProfile::new(est.cost_units, est.latency_micros, est.accuracy),
                }
            })
            .collect()
    }

    /// Per-`Knowledge`-node alternatives in `plan`: for every knowledge
    /// operator, the parametric sources that could answer its question
    /// (recovered from the upstream `Q2NL` or `Literal` node) with their
    /// estimates. Returns `(node id, candidates)` in plan order.
    pub fn knowledge_alternatives(&self, plan: &DataPlan) -> Vec<(String, Vec<IrAlternative>)> {
        plan.nodes
            .iter()
            .filter(|n| matches!(n.op, DataOp::Knowledge { .. }))
            .filter_map(|n| {
                let (_, dep) = n.inputs.iter().find(|(slot, _)| slot == "question")?;
                let question = match &plan.node(dep)?.op {
                    DataOp::Q2NL { fragment } => q2nl(fragment),
                    DataOp::Literal { value } => value.as_str()?.to_string(),
                    _ => return None,
                };
                Some((n.id.clone(), self.parametric_candidates(&question)))
            })
            .collect()
    }

    /// Plans the Fig 7 decomposition for a job query like
    /// "data scientist position in sf bay area":
    ///
    /// 1. extract criteria (title, location) from the utterance;
    /// 2. if the location is a *region* (answerable from parametric
    ///    knowledge), inject `Q2NL` → `Knowledge` to obtain its cities. The
    ///    `Knowledge` operator starts on the first parametric source by
    ///    name; [`DataPlanner::knowledge_alternatives`] lists the others,
    ///    and the plan IR's optimization picks among them. Errors when no
    ///    parametric source is attached;
    /// 3. expand the title through the graph taxonomy when available;
    /// 4. splice both lists into a relational `SELECT`.
    pub fn plan_job_query(&self, utterance: &str) -> Result<DataPlan> {
        let (criteria, _usage) = self.llm.extract_criteria(utterance);
        let mut plan = DataPlan::new(utterance);

        // Location: region → Q2NL + Knowledge; literal city → Literal list.
        let cities_node = match &criteria.location {
            Some(location) => {
                let question = format!("cities in the {location}");
                let is_region = self.llm.knowledge_base().lookup(&question).is_some();
                if is_region {
                    let q2nl_id = self.next_id();
                    plan.push(DataNode {
                        id: q2nl_id.clone(),
                        op: DataOp::Q2NL {
                            fragment: format!("city ∈ \"{location}\""),
                        },
                        inputs: vec![],
                        estimate: CostEstimate::FREE,
                    });
                    let source = self
                        .sources_by_modality("parametric")
                        .into_iter()
                        .next()
                        .ok_or_else(|| PlanError::NoSourceFor(format!("knowledge: {question}")))?;
                    let know_id = self.next_id();
                    plan.push(DataNode {
                        id: know_id.clone(),
                        op: DataOp::Knowledge {
                            source: source.name().to_string(),
                        },
                        inputs: vec![("question".into(), q2nl_id)],
                        estimate: source.estimate(&SourceQuery::Knowledge(question)),
                    });
                    Some(know_id)
                } else {
                    let id = self.next_id();
                    plan.push(DataNode {
                        id: id.clone(),
                        op: DataOp::Literal {
                            value: json!([location]),
                        },
                        inputs: vec![],
                        estimate: CostEstimate::FREE,
                    });
                    Some(id)
                }
            }
            None => None,
        };

        // Title: expand through the graph taxonomy when available.
        let titles_node = match &criteria.title {
            Some(title) => {
                let node_id = slugify(title);
                let graph = self.sources_by_modality("graph").into_iter().next();
                let id = self.next_id();
                match graph {
                    Some(g)
                        if g.query(&SourceQuery::GraphRelated {
                            node: node_id.clone(),
                            edge_type: None,
                            depth: 1,
                        })
                        .is_ok() =>
                    {
                        let estimate = g.estimate(&SourceQuery::GraphRelated {
                            node: node_id.clone(),
                            edge_type: None,
                            depth: 1,
                        });
                        self.registry.record_usage(g.name(), title).ok();
                        plan.push(DataNode {
                            id: id.clone(),
                            op: DataOp::GraphExpand {
                                source: g.name().to_string(),
                                node: node_id,
                                depth: 1,
                            },
                            inputs: vec![],
                            estimate,
                        });
                    }
                    _ => {
                        plan.push(DataNode {
                            id: id.clone(),
                            op: DataOp::Literal {
                                value: json!([title]),
                            },
                            inputs: vec![],
                            estimate: CostEstimate::FREE,
                        });
                    }
                }
                Some(id)
            }
            None => None,
        };

        // Final relational select.
        let relational = self
            .sources_by_modality("relational")
            .into_iter()
            .next()
            .ok_or_else(|| PlanError::NoSourceFor("relational jobs data".into()))?;
        let mut template = "SELECT * FROM jobs".to_string();
        let mut conjuncts = Vec::new();
        let mut inputs = Vec::new();
        if let Some(c) = cities_node {
            conjuncts.push("city IN ({cities})".to_string());
            inputs.push(("cities".to_string(), c));
        }
        if let Some(t) = titles_node {
            conjuncts.push("title IN ({titles})".to_string());
            inputs.push(("titles".to_string(), t));
        }
        if !conjuncts.is_empty() {
            template.push_str(" WHERE ");
            template.push_str(&conjuncts.join(" AND "));
        }
        let estimate = relational.estimate(&SourceQuery::Sql(template.clone()));
        self.registry
            .record_usage(relational.name(), utterance)
            .ok();
        plan.push(DataNode {
            id: self.next_id(),
            op: DataOp::SqlTemplate {
                source: relational.name().to_string(),
                template,
            },
            inputs,
            estimate,
        });
        Ok(plan)
    }

    /// The *direct NL2Q* baseline the paper argues "may not always work"
    /// (§V-G): translate the whole question into one SQL query with no
    /// decomposition. Table schemas and a sampled value dictionary come from
    /// the relational database itself (data-aware translation).
    pub fn plan_nl2q_direct(
        &self,
        question: &str,
        db: &RelationalDb,
        source_name: &str,
    ) -> Result<DataPlan> {
        let tables: Vec<blueprint_llmsim::nl2sql::TableSchema> = db
            .table_names()
            .iter()
            .map(|t| {
                let schema = db.schema_of(t).expect("table exists");
                blueprint_llmsim::nl2sql::TableSchema {
                    name: t.clone(),
                    columns: schema
                        .columns
                        .iter()
                        .map(|c| (c.name.clone(), c.ctype.name().to_lowercase()))
                        .collect(),
                }
            })
            .collect();
        let values = sample_values(db);
        let (sql, _usage) = self.llm.nl_to_sql(question, &tables, &values);
        let sql = sql.ok_or_else(|| PlanError::NoSourceFor(question.to_string()))?;
        let source = self.source(source_name)?;
        let estimate = source.estimate(&SourceQuery::Sql(sql.clone()));
        let mut plan = DataPlan::new(question);
        plan.push(DataNode {
            id: self.next_id(),
            op: DataOp::SqlTemplate {
                source: source_name.to_string(),
                template: sql,
            },
            inputs: vec![],
            estimate,
        });
        Ok(plan)
    }

    /// Plans the `PROFILER.CRITERIA ← USER.TEXT` transformation (§V-G):
    /// an `extract` operator over the raw text.
    pub fn plan_extract(&self, text: &str) -> DataPlan {
        let mut plan = DataPlan::new(format!("extract criteria from: {text}"));
        let lit = self.next_id();
        plan.push(DataNode {
            id: lit.clone(),
            op: DataOp::Literal { value: json!(text) },
            inputs: vec![],
            estimate: CostEstimate::FREE,
        });
        let profile = self.llm.profile();
        plan.push(DataNode {
            id: self.next_id(),
            op: DataOp::Extract,
            inputs: vec![("text".into(), lit)],
            estimate: CostEstimate {
                cost_units: profile.call_cost(24, 12),
                latency_micros: profile.call_latency_micros(12),
                accuracy: profile.accuracy,
            },
        });
        plan
    }

    /// Plans a summarize operator over a table value.
    pub fn plan_summarize(&self, rows: Value) -> DataPlan {
        let mut plan = DataPlan::new("summarize rows");
        let lit = self.next_id();
        plan.push(DataNode {
            id: lit.clone(),
            op: DataOp::Literal { value: rows },
            inputs: vec![],
            estimate: CostEstimate::FREE,
        });
        let profile = self.llm.profile();
        plan.push(DataNode {
            id: self.next_id(),
            op: DataOp::Summarize,
            inputs: vec![("rows".into(), lit)],
            estimate: CostEstimate {
                cost_units: profile.call_cost(64, 32),
                latency_micros: profile.call_latency_micros(32),
                accuracy: profile.accuracy,
            },
        });
        plan
    }

    /// Satisfies a task-plan `FromData` binding (§V-H): the coordinator asks
    /// for "the right data" described by `query`, in the context of the
    /// original `utterance`. Routing:
    ///
    /// * job/listing-shaped requests → the Fig 7 decomposed job query over
    ///   the utterance's criteria;
    /// * otherwise, a ranked document search when a document source exists;
    /// * otherwise the request is unsatisfiable.
    pub fn satisfy(&self, query: &str, utterance: &str) -> Result<ExecutedPlan> {
        let plan = self.plan_for_binding(query, utterance)?;
        self.execute(&plan)
    }

    /// Plans — without executing — the data plan for a `FromData` binding:
    /// the routing half of [`DataPlanner::satisfy`]. The unified plan IR
    /// lowering uses this to splice the operator DAG into its owning task
    /// node at plan time, so the optimizer sees the whole composite DAG.
    pub fn plan_for_binding(&self, query: &str, utterance: &str) -> Result<DataPlan> {
        let q = query.to_lowercase();
        if q.contains("job") || q.contains("listing") || q.contains("posting") {
            return self.plan_job_query(utterance);
        }
        if let Some(doc) = self.sources_by_modality("document").into_iter().next() {
            let mut plan = DataPlan::new(query);
            plan.push(DataNode {
                id: self.next_id(),
                op: DataOp::DocSearch {
                    source: doc.name().to_string(),
                    query: format!("{query} {utterance}"),
                    limit: 10,
                },
                inputs: vec![],
                estimate: doc.estimate(&SourceQuery::DocSearch {
                    query: query.to_string(),
                    limit: 10,
                }),
            });
            return Ok(plan);
        }
        Err(PlanError::NoSourceFor(query.to_string()))
    }

    /// Executes a plan, returning the output value, actual QoS, and a trace.
    /// A SQL operator's value is the relational source's row batch, passed
    /// on as is: nothing here renders it as JSON unless a later operator
    /// (`Summarize`) reads it as JSON.
    pub fn execute(&self, plan: &DataPlan) -> Result<ExecutedPlan> {
        plan.validate()?;
        let mut values: HashMap<&str, DataValue> = HashMap::new();
        let mut actual = CostProfile::FREE;
        let mut trace = Vec::with_capacity(plan.nodes.len());

        for node in &plan.nodes {
            let get = |slot: &str| -> Result<&DataValue> {
                node.inputs
                    .iter()
                    .find(|(s, _)| s == slot)
                    .and_then(|(_, dep)| values.get(dep.as_str()))
                    .ok_or_else(|| {
                        PlanError::Execution(format!("node {} missing input slot {slot}", node.id))
                    })
            };
            let value: DataValue = match &node.op {
                DataOp::Literal { value } => value.clone().into(),
                DataOp::Q2NL { fragment } => Value::String(q2nl(fragment)).into(),
                DataOp::Knowledge { source } => {
                    let question = get("question")?
                        .as_json()
                        .as_str()
                        .ok_or_else(|| {
                            PlanError::Execution("knowledge question must be text".into())
                        })?
                        .to_string();
                    let src = self.source(source)?;
                    let result = src
                        .query(&SourceQuery::Knowledge(question))
                        .map_err(|e| PlanError::Execution(e.to_string()))?;
                    result.data
                }
                DataOp::GraphExpand {
                    source,
                    node: start,
                    depth,
                } => {
                    let src = self.source(source)?;
                    let result = src
                        .query(&SourceQuery::GraphRelated {
                            node: start.clone(),
                            edge_type: None,
                            depth: *depth,
                        })
                        .map_err(|e| PlanError::Execution(e.to_string()))?;
                    // Include the start node's own name with its relatives.
                    let mut names = vec![unslugify(start)];
                    names.extend(name_list(&result.data.as_json()));
                    Value::Array(names.into_iter().map(Value::String).collect()).into()
                }
                DataOp::SqlTemplate { source, template } => {
                    let mut sql = template.clone();
                    for (slot, dep) in &node.inputs {
                        let list = values.get(dep.as_str()).ok_or_else(|| {
                            PlanError::Execution(format!("missing dependency {dep}"))
                        })?;
                        let literals = sql_string_list(&list.as_json());
                        sql = sql.replace(&format!("{{{slot}}}"), &literals);
                    }
                    let src = self.source(source)?;
                    let result = src
                        .query(&SourceQuery::Sql(sql))
                        .map_err(|e| PlanError::Execution(e.to_string()))?;
                    result.data
                }
                DataOp::DocSearch {
                    source,
                    query,
                    limit,
                } => {
                    let src = self.source(source)?;
                    let result = src
                        .query(&SourceQuery::DocSearch {
                            query: query.clone(),
                            limit: *limit,
                        })
                        .map_err(|e| PlanError::Execution(e.to_string()))?;
                    result.data
                }
                DataOp::Extract => {
                    let text = get("text")?
                        .as_json()
                        .as_str()
                        .ok_or_else(|| PlanError::Execution("extract input must be text".into()))?
                        .to_string();
                    let (criteria, _) = self.llm.extract_criteria(&text);
                    criteria.to_json().into()
                }
                DataOp::Summarize => {
                    let rows = get("rows")?.as_json();
                    let (summary, _) = self.llm.summarize_rows(&rows);
                    Value::String(summary).into()
                }
            };
            trace.push((
                node.id.clone(),
                node.op.name().to_string(),
                value.item_count(),
            ));
            actual = actual.then(&CostProfile::new(
                node.estimate.cost_units,
                node.estimate.latency_micros,
                node.estimate.accuracy,
            ));
            values.insert(node.id.as_str(), value);
        }

        let value = values
            .remove(plan.output.as_str())
            .ok_or_else(|| PlanError::Execution("plan has no output".into()))?;
        Ok(ExecutedPlan {
            value,
            actual,
            trace,
        })
    }
}

/// Q2NL: renders a structured fragment as a natural-language question.
fn q2nl(fragment: &str) -> String {
    // `city ∈ "SF bay area"` → `cities in the SF bay area`.
    if let Some((attr, region)) = fragment.split_once('∈') {
        let attr = pluralize(attr.trim());
        let region = region.trim().trim_matches('"');
        return format!("{attr} in the {region}").to_lowercase();
    }
    fragment.to_lowercase()
}

/// English pluralization good enough for attribute names (`city` →
/// `cities`, `title` → `titles`, `class` → `classes`).
fn pluralize(noun: &str) -> String {
    let lower = noun.to_lowercase();
    if let Some(stem) = lower.strip_suffix('y') {
        if !stem.ends_with(['a', 'e', 'i', 'o', 'u']) {
            return format!("{stem}ies");
        }
    }
    if lower.ends_with('s')
        || lower.ends_with('x')
        || lower.ends_with("ch")
        || lower.ends_with("sh")
    {
        return format!("{lower}es");
    }
    format!("{lower}s")
}

fn slugify(name: &str) -> String {
    name.to_lowercase()
        .split_whitespace()
        .collect::<Vec<_>>()
        .join("-")
}

fn unslugify(slug: &str) -> String {
    slug.replace('-', " ")
}

/// Extracts display names from a list of strings or node objects.
fn name_list(value: &Value) -> Vec<String> {
    value
        .as_array()
        .into_iter()
        .flatten()
        .filter_map(|item| match item {
            Value::String(s) => Some(s.clone()),
            Value::Object(o) => o
                .get("props")
                .and_then(|p| p.get("name"))
                .or_else(|| o.get("name"))
                .and_then(Value::as_str)
                .map(str::to_string)
                .or_else(|| o.get("id").and_then(Value::as_str).map(str::to_string)),
            _ => None,
        })
        .collect()
}

/// Renders a JSON list as quoted SQL literals.
fn sql_string_list(value: &Value) -> String {
    let names = name_list(value);
    if names.is_empty() {
        // An empty IN list is invalid SQL; use an impossible literal.
        return "''".to_string();
    }
    names
        .iter()
        .map(|n| format!("'{}'", n.replace('\'', "''")))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Samples distinct text values per column for data-aware NL2Q.
fn sample_values(db: &RelationalDb) -> HashMap<String, Vec<String>> {
    const CAP: usize = 200;
    let mut out: HashMap<String, Vec<String>> = HashMap::new();
    for table in db.table_names() {
        let schema = db.schema_of(&table).expect("table exists");
        for col in &schema.columns {
            if col.ctype != blueprint_datastore::ColumnType::Text {
                continue;
            }
            if let Ok(rs) = db.execute(&format!("SELECT DISTINCT {} FROM {}", col.name, table)) {
                let entry = out.entry(col.name.clone()).or_default();
                for row in rs.rows.iter().take(CAP) {
                    if let Some(s) = row[0].as_str() {
                        let lower = s.to_lowercase();
                        if !entry.contains(&lower) {
                            entry.push(lower);
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_datastore::{
        DocumentStore, GraphSource, KvSource, KvStore, PropertyGraph, RelationalSource,
    };
    use blueprint_llmsim::{ModelProfile, ParametricSource};
    use blueprint_registry::DataRegistry;

    const RUNNING_EXAMPLE: &str = "I am looking for a data scientist position in SF bay area.";

    fn jobs_db() -> Arc<RelationalDb> {
        let db = Arc::new(RelationalDb::new());
        db.execute("CREATE TABLE jobs (id INT, title TEXT, city TEXT, salary FLOAT)")
            .unwrap();
        db.execute(
            "INSERT INTO jobs VALUES \
             (1, 'data scientist', 'san francisco', 180000.0), \
             (2, 'machine learning engineer', 'oakland', 175000.0), \
             (3, 'data scientist', 'new york', 160000.0), \
             (4, 'data analyst', 'berkeley', 120000.0), \
             (5, 'recruiter', 'san francisco', 90000.0)",
        )
        .unwrap();
        db
    }

    fn taxonomy() -> Arc<PropertyGraph> {
        let g = Arc::new(PropertyGraph::new());
        for (id, name) in [
            ("data-scientist", "data scientist"),
            ("machine-learning-engineer", "machine learning engineer"),
            ("data-analyst", "data analyst"),
        ] {
            g.add_node(id, "title", json!({"name": name})).unwrap();
        }
        g.add_edge("machine-learning-engineer", "data-scientist", "related_to")
            .unwrap();
        g.add_edge("data-analyst", "data-scientist", "related_to")
            .unwrap();
        g
    }

    fn planner() -> (DataPlanner, Arc<RelationalDb>) {
        let db = jobs_db();
        let llm = Arc::new(SimLlm::new(ModelProfile::large()));
        let mut p = DataPlanner::new(Arc::new(DataRegistry::new()), Arc::clone(&llm));
        p.add_source(Arc::new(RelationalSource::new("hr-db", Arc::clone(&db))));
        p.add_source(Arc::new(GraphSource::new("title-taxonomy", taxonomy())));
        p.add_source(Arc::new(ParametricSource::new("gpt-large", llm)));
        (p, db)
    }

    #[test]
    fn fig7_decomposition_for_running_example() {
        let (p, _) = planner();
        let plan = p.plan_job_query(RUNNING_EXAMPLE).unwrap();
        let ops: Vec<&str> = plan.nodes.iter().map(|n| n.op.name()).collect();
        assert_eq!(ops, ["q2nl", "knowledge", "graph-expand", "sql"]);
        let text = plan.render_text();
        assert!(text.contains("knowledge[gpt-large]"));
        assert!(text.contains("city IN ({cities})"));
        assert!(text.contains("title IN ({titles})"));
    }

    #[test]
    fn decomposed_plan_finds_bay_area_jobs() {
        let (p, _) = planner();
        let plan = p.plan_job_query(RUNNING_EXAMPLE).unwrap();
        let result = p.execute(&plan).unwrap();
        let rows = result.value.into_json();
        let rows = rows.as_array().unwrap();
        // Jobs 1 (ds, sf), 2 (mle, oakland), 4 (analyst, berkeley) match:
        // bay-area cities × taxonomy-expanded titles. NY data scientist and
        // SF recruiter do not.
        let ids: Vec<i64> = rows.iter().map(|r| r["id"].as_i64().unwrap()).collect();
        assert_eq!(ids, [1, 2, 4]);
        assert!(result.actual.cost_per_call > 0.0);
        assert_eq!(result.trace.len(), 4);
    }

    #[test]
    fn direct_nl2q_misses_region_rows() {
        // The §V-G claim: "SF bay area" won't match any city in the
        // database, so direct NL2Q returns nothing while the decomposed
        // plan succeeds.
        let (p, db) = planner();
        let plan = p.plan_nl2q_direct(RUNNING_EXAMPLE, &db, "hr-db").unwrap();
        let result = p.execute(&plan).unwrap();
        let direct_rows = result.value.as_json().as_array().unwrap().len();
        let decomposed = p
            .execute(&p.plan_job_query(RUNNING_EXAMPLE).unwrap())
            .unwrap();
        let decomposed_rows = decomposed.value.as_json().as_array().unwrap().len();
        assert!(
            direct_rows < decomposed_rows,
            "direct={direct_rows} decomposed={decomposed_rows}"
        );
    }

    #[test]
    fn literal_city_skips_knowledge_injection() {
        let (p, _) = planner();
        let plan = p
            .plan_job_query("looking for a data scientist position in oakland")
            .unwrap();
        let ops: Vec<&str> = plan.nodes.iter().map(|n| n.op.name()).collect();
        assert!(!ops.contains(&"knowledge"));
        assert!(ops.contains(&"literal"));
        let result = p.execute(&plan).unwrap();
        // Oakland × expanded titles → job 2 only.
        assert_eq!(result.value.as_json().as_array().unwrap().len(), 1);
    }

    #[test]
    fn missing_graph_source_falls_back_to_literal_title() {
        let db = jobs_db();
        let llm = Arc::new(SimLlm::new(ModelProfile::large()));
        let mut p = DataPlanner::new(Arc::new(DataRegistry::new()), Arc::clone(&llm));
        p.add_source(Arc::new(RelationalSource::new("hr-db", Arc::clone(&db))));
        p.add_source(Arc::new(ParametricSource::new("gpt-large", llm)));
        let plan = p.plan_job_query(RUNNING_EXAMPLE).unwrap();
        let ops: Vec<&str> = plan.nodes.iter().map(|n| n.op.name()).collect();
        assert!(ops.contains(&"literal"));
        let result = p.execute(&plan).unwrap();
        // Without taxonomy expansion only the exact title matches: job 1.
        let ids: Vec<i64> = result
            .value
            .into_json()
            .as_array()
            .unwrap()
            .iter()
            .map(|r| r["id"].as_i64().unwrap())
            .collect();
        assert_eq!(ids, [1]);
    }

    #[test]
    fn missing_relational_source_fails() {
        let llm = Arc::new(SimLlm::new(ModelProfile::large()));
        let mut p = DataPlanner::new(Arc::new(DataRegistry::new()), Arc::clone(&llm));
        p.add_source(Arc::new(ParametricSource::new("gpt-large", llm)));
        assert!(matches!(
            p.plan_job_query(RUNNING_EXAMPLE),
            Err(PlanError::NoSourceFor(_))
        ));
    }

    /// The plan records the candidate tiers and picks none: the knowledge
    /// operator starts on the first source by name, whatever objective and
    /// constraints the planner carries (the plan IR's optimization picks).
    #[test]
    fn knowledge_starts_on_the_first_candidate_by_name() {
        let (mut p, _) = planner();
        p.add_source(Arc::new(ParametricSource::new(
            "gpt-tiny",
            Arc::new(SimLlm::new(ModelProfile::tiny())),
        )));
        let question = "cities in the sf bay area";
        let candidates = p.parametric_candidates(question);
        let names: Vec<&str> = candidates.iter().map(|c| c.target.as_str()).collect();
        assert_eq!(names, ["gpt-large", "gpt-tiny"]);
        for (objective, constraints) in [
            (Objective::balanced(), QosConstraints::none()),
            (Objective::MinCost, QosConstraints::none()),
            (
                Objective::MinCost,
                QosConstraints::none().with_min_accuracy(0.999),
            ),
        ] {
            p.set_objective(objective);
            p.set_constraints(constraints);
            let plan = p.plan_job_query(RUNNING_EXAMPLE).unwrap();
            let knowledge = plan
                .nodes
                .iter()
                .find(|n| n.op.name() == "knowledge")
                .unwrap();
            assert!(matches!(&knowledge.op, DataOp::Knowledge { source } if source == "gpt-large"));
            let first = candidates[0].profile;
            assert_eq!(knowledge.estimate.cost_units, first.cost_per_call);
            assert_eq!(knowledge.estimate.latency_micros, first.latency_micros);
            assert_eq!(knowledge.estimate.accuracy, first.accuracy);
            let alternatives = p.knowledge_alternatives(&plan);
            assert_eq!(alternatives, [(knowledge.id.clone(), candidates.clone())]);
        }
    }

    #[test]
    fn missing_parametric_source_fails() {
        let mut p = DataPlanner::new(
            Arc::new(DataRegistry::new()),
            Arc::new(SimLlm::new(ModelProfile::large())),
        );
        p.add_source(Arc::new(RelationalSource::new("hr-db", jobs_db())));
        match p.plan_job_query(RUNNING_EXAMPLE) {
            Err(PlanError::NoSourceFor(what)) => {
                assert_eq!(what, "knowledge: cities in the sf bay area")
            }
            other => panic!("expected a missing knowledge source, got {other:?}"),
        }
    }

    #[test]
    fn extract_plan_round_trip() {
        let (p, _) = planner();
        let plan = p.plan_extract(RUNNING_EXAMPLE);
        let result = p.execute(&plan).unwrap();
        assert_eq!(result.value.as_json()["title"], json!("data scientist"));
        assert_eq!(result.value.as_json()["location"], json!("sf bay area"));
    }

    #[test]
    fn summarize_plan_round_trip() {
        let (p, _) = planner();
        let plan = p.plan_summarize(json!([{"city": "sf", "n": 2}]));
        let result = p.execute(&plan).unwrap();
        assert!(result.value.as_json().as_str().unwrap().contains("1 row"));
    }

    #[test]
    fn q2nl_renders_fragments() {
        assert_eq!(q2nl("city ∈ \"SF bay area\""), "cities in the sf bay area");
        assert_eq!(q2nl("title ∈ \"data roles\""), "titles in the data roles");
        assert_eq!(q2nl("anything else"), "anything else");
    }

    #[test]
    fn pluralize_rules() {
        assert_eq!(pluralize("city"), "cities");
        assert_eq!(pluralize("title"), "titles");
        assert_eq!(pluralize("class"), "classes");
        assert_eq!(pluralize("box"), "boxes");
        assert_eq!(pluralize("day"), "days");
    }

    #[test]
    fn sql_string_list_escapes_and_handles_empty() {
        assert_eq!(sql_string_list(&json!(["a", "o'b"])), "'a', 'o''b'");
        assert_eq!(sql_string_list(&json!([])), "''");
    }

    #[test]
    fn doc_search_op_executes() {
        let store = Arc::new(DocumentStore::new());
        store
            .put("p1", json!({"summary": "senior data scientist"}))
            .unwrap();
        let llm = Arc::new(SimLlm::new(ModelProfile::large()));
        let mut p = DataPlanner::new(Arc::new(DataRegistry::new()), llm);
        p.add_source(Arc::new(blueprint_datastore::source::DocumentSource::new(
            "profiles", store,
        )));
        let mut plan = DataPlan::new("find data scientists");
        plan.push(DataNode {
            id: "d1".into(),
            op: DataOp::DocSearch {
                source: "profiles".into(),
                query: "data scientist".into(),
                limit: 5,
            },
            inputs: vec![],
            estimate: CostEstimate::FREE,
        });
        let result = p.execute(&plan).unwrap();
        assert_eq!(result.value.as_json().as_array().unwrap().len(), 1);
    }

    #[test]
    fn satisfy_routes_job_requests_to_decomposition() {
        let (p, _) = planner();
        let result = p
            .satisfy("available job listings", RUNNING_EXAMPLE)
            .unwrap();
        assert_eq!(result.value.as_json().as_array().unwrap().len(), 3);
    }

    #[test]
    fn satisfy_routes_other_requests_to_documents() {
        let store = Arc::new(DocumentStore::new());
        store
            .put("p1", json!({"summary": "python data scientist"}))
            .unwrap();
        let llm = Arc::new(SimLlm::new(ModelProfile::large()));
        let mut p = DataPlanner::new(Arc::new(DataRegistry::new()), llm);
        p.add_source(Arc::new(blueprint_datastore::DocumentSource::new(
            "profiles", store,
        )));
        let result = p
            .satisfy("candidate profiles", "python data scientist")
            .unwrap();
        assert_eq!(result.value.as_json().as_array().unwrap().len(), 1);
    }

    #[test]
    fn satisfy_without_any_source_fails() {
        let llm = Arc::new(SimLlm::new(ModelProfile::large()));
        let p = DataPlanner::new(Arc::new(DataRegistry::new()), llm);
        assert!(p.satisfy("candidate profiles", "x").is_err());
    }

    #[test]
    fn kv_sources_are_listed() {
        let (mut p, _) = planner();
        p.add_source(Arc::new(KvSource::new("cache", Arc::new(KvStore::new()))));
        assert_eq!(
            p.source_names(),
            ["cache", "gpt-large", "hr-db", "title-taxonomy"]
        );
    }

    #[test]
    fn execute_rejects_unknown_source() {
        let (p, _) = planner();
        let mut plan = DataPlan::new("r");
        plan.push(DataNode {
            id: "d1".into(),
            op: DataOp::DocSearch {
                source: "ghost".into(),
                query: "q".into(),
                limit: 1,
            },
            inputs: vec![],
            estimate: CostEstimate::FREE,
        });
        assert!(matches!(p.execute(&plan), Err(PlanError::NoSourceFor(_))));
    }
}
