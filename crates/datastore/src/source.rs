//! The uniform `DataSource` interface the data planner queries (§V-G).
//!
//! Each modality — relational, document, graph, KV, and parametric (an LLM
//! used as a data source; implemented in `blueprint-llmsim`) — is wrapped as
//! a [`DataSource`]: it answers [`SourceQuery`]s with JSON results (a
//! relational source with a shared [`RowBatch`]) and
//! provides per-request [`CostEstimate`]s from its statistics, which the
//! optimizer uses to pick sources under QoS constraints.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

use crate::batch::{DataValue, RowBatch};
use crate::document::DocumentStore;
use crate::error::DataError;
use crate::graph::PropertyGraph;
use crate::kv::KvStore;
use crate::relational::RelationalDb;
use crate::Result;

/// A request to a data source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SourceQuery {
    /// SQL text for relational sources.
    Sql(String),
    /// Ranked text search over documents.
    DocSearch {
        /// Keyword query.
        query: String,
        /// Max hits.
        limit: usize,
    },
    /// Exact field filter over documents.
    DocFilter {
        /// Top-level field name.
        field: String,
        /// Value to match.
        value: Value,
    },
    /// Related-node expansion in a graph (taxonomy lookup).
    GraphRelated {
        /// Start node id.
        node: String,
        /// Optional edge-type restriction.
        edge_type: Option<String>,
        /// Hop bound.
        depth: usize,
    },
    /// Key lookup.
    KvGet(String),
    /// Natural-language question to a parametric source (LLM).
    Knowledge(String),
}

impl SourceQuery {
    /// Short operator name for plans and traces.
    pub fn op_name(&self) -> &'static str {
        match self {
            SourceQuery::Sql(_) => "sql",
            SourceQuery::DocSearch { .. } => "doc-search",
            SourceQuery::DocFilter { .. } => "doc-filter",
            SourceQuery::GraphRelated { .. } => "graph-related",
            SourceQuery::KvGet(_) => "kv-get",
            SourceQuery::Knowledge(_) => "knowledge",
        }
    }
}

/// A data source's answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceResult {
    /// The payload: a relational source's row batch, or JSON (usually an
    /// array of objects).
    pub data: DataValue,
    /// Number of rows/items returned.
    pub rows: usize,
}

impl SourceResult {
    /// Wraps a JSON array, deriving the row count.
    pub fn from_array(data: Value) -> Self {
        let rows = data.as_array().map(Vec::len).unwrap_or(1);
        SourceResult {
            data: data.into(),
            rows,
        }
    }
}

/// Estimated QoS of answering a query (consumed by the optimizer).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Monetary cost in cost units.
    pub cost_units: f64,
    /// Expected latency in simulated microseconds.
    pub latency_micros: u64,
    /// Expected answer accuracy in `[0, 1]`.
    pub accuracy: f64,
}

impl CostEstimate {
    /// A free, instant, perfect estimate.
    pub const FREE: CostEstimate = CostEstimate {
        cost_units: 0.0,
        latency_micros: 0,
        accuracy: 1.0,
    };
}

/// A queryable enterprise data source.
pub trait DataSource: Send + Sync {
    /// Registry name of this source.
    fn name(&self) -> &str;

    /// Modality tag (`relational`, `document`, `graph`, `kv`, `parametric`).
    fn modality(&self) -> &'static str;

    /// True if this source can answer the query shape.
    fn supports(&self, query: &SourceQuery) -> bool;

    /// Estimated cost of answering (planners call this before `query`).
    fn estimate(&self, query: &SourceQuery) -> CostEstimate;

    /// Answers the query.
    fn query(&self, query: &SourceQuery) -> Result<SourceResult>;
}

/// Relational database exposed as a data source.
pub struct RelationalSource {
    name: String,
    db: Arc<RelationalDb>,
}

impl RelationalSource {
    /// Wraps a database under a registry name.
    pub fn new(name: impl Into<String>, db: Arc<RelationalDb>) -> Self {
        RelationalSource {
            name: name.into(),
            db,
        }
    }

    /// The wrapped database.
    pub fn db(&self) -> &Arc<RelationalDb> {
        &self.db
    }
}

impl DataSource for RelationalSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn modality(&self) -> &'static str {
        "relational"
    }

    fn supports(&self, query: &SourceQuery) -> bool {
        matches!(query, SourceQuery::Sql(_))
    }

    fn estimate(&self, query: &SourceQuery) -> CostEstimate {
        match query {
            SourceQuery::Sql(sql) => {
                // Rough: latency scales with the referenced tables' sizes.
                let mut rows = 0usize;
                for t in self.db.table_names() {
                    if sql.to_ascii_lowercase().contains(&t) {
                        rows += self.db.row_count(&t);
                    }
                }
                CostEstimate {
                    cost_units: 0.001,
                    latency_micros: 50 + rows as u64 / 10,
                    accuracy: 1.0,
                }
            }
            _ => CostEstimate::FREE,
        }
    }

    fn query(&self, query: &SourceQuery) -> Result<SourceResult> {
        match query {
            SourceQuery::Sql(sql) => {
                let batch = RowBatch::from(self.db.execute(sql)?);
                Ok(SourceResult {
                    rows: batch.len(),
                    data: batch.into(),
                })
            }
            other => Err(DataError::Eval(format!(
                "relational source cannot answer {}",
                other.op_name()
            ))),
        }
    }
}

/// Document store exposed as a data source.
pub struct DocumentSource {
    name: String,
    store: Arc<DocumentStore>,
}

impl DocumentSource {
    /// Wraps a document store under a registry name.
    pub fn new(name: impl Into<String>, store: Arc<DocumentStore>) -> Self {
        DocumentSource {
            name: name.into(),
            store,
        }
    }
}

impl DataSource for DocumentSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn modality(&self) -> &'static str {
        "document"
    }

    fn supports(&self, query: &SourceQuery) -> bool {
        matches!(
            query,
            SourceQuery::DocSearch { .. } | SourceQuery::DocFilter { .. }
        )
    }

    fn estimate(&self, query: &SourceQuery) -> CostEstimate {
        let n = self.store.len() as u64;
        match query {
            SourceQuery::DocSearch { .. } => CostEstimate {
                cost_units: 0.001,
                latency_micros: 30 + n / 20,
                accuracy: 0.9, // ranked retrieval is approximate
            },
            SourceQuery::DocFilter { .. } => CostEstimate {
                cost_units: 0.001,
                latency_micros: 20 + n / 10,
                accuracy: 1.0,
            },
            _ => CostEstimate::FREE,
        }
    }

    fn query(&self, query: &SourceQuery) -> Result<SourceResult> {
        match query {
            SourceQuery::DocSearch { query, limit } => {
                let hits = self.store.search(query, *limit);
                let mut out = Vec::with_capacity(hits.len());
                for h in hits {
                    let doc = self.store.get(&h.id)?;
                    out.push(json!({"id": doc.id, "score": h.score, "body": doc.body}));
                }
                Ok(SourceResult::from_array(Value::Array(out)))
            }
            SourceQuery::DocFilter { field, value } => {
                let docs = self.store.filter_eq(field, value);
                let out: Vec<Value> = docs
                    .into_iter()
                    .map(|d| json!({"id": d.id, "body": d.body}))
                    .collect();
                Ok(SourceResult::from_array(Value::Array(out)))
            }
            other => Err(DataError::Eval(format!(
                "document source cannot answer {}",
                other.op_name()
            ))),
        }
    }
}

/// Property graph exposed as a data source.
pub struct GraphSource {
    name: String,
    graph: Arc<PropertyGraph>,
}

impl GraphSource {
    /// Wraps a graph under a registry name.
    pub fn new(name: impl Into<String>, graph: Arc<PropertyGraph>) -> Self {
        GraphSource {
            name: name.into(),
            graph,
        }
    }
}

impl DataSource for GraphSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn modality(&self) -> &'static str {
        "graph"
    }

    fn supports(&self, query: &SourceQuery) -> bool {
        matches!(query, SourceQuery::GraphRelated { .. })
    }

    fn estimate(&self, query: &SourceQuery) -> CostEstimate {
        match query {
            SourceQuery::GraphRelated { depth, .. } => CostEstimate {
                cost_units: 0.001,
                latency_micros: 40 * (*depth as u64 + 1),
                accuracy: 1.0,
            },
            _ => CostEstimate::FREE,
        }
    }

    fn query(&self, query: &SourceQuery) -> Result<SourceResult> {
        match query {
            SourceQuery::GraphRelated {
                node,
                edge_type,
                depth,
            } => {
                let nodes = self
                    .graph
                    .traverse(node, edge_type.as_deref(), *depth, true)?;
                let out: Vec<Value> = nodes
                    .into_iter()
                    .map(|n| json!({"id": n.id, "label": n.label, "props": n.props}))
                    .collect();
                Ok(SourceResult::from_array(Value::Array(out)))
            }
            other => Err(DataError::Eval(format!(
                "graph source cannot answer {}",
                other.op_name()
            ))),
        }
    }
}

/// KV store exposed as a data source.
pub struct KvSource {
    name: String,
    kv: Arc<KvStore>,
}

impl KvSource {
    /// Wraps a KV store under a registry name.
    pub fn new(name: impl Into<String>, kv: Arc<KvStore>) -> Self {
        KvSource {
            name: name.into(),
            kv,
        }
    }
}

impl DataSource for KvSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn modality(&self) -> &'static str {
        "kv"
    }

    fn supports(&self, query: &SourceQuery) -> bool {
        matches!(query, SourceQuery::KvGet(_))
    }

    fn estimate(&self, query: &SourceQuery) -> CostEstimate {
        match query {
            SourceQuery::KvGet(_) => CostEstimate {
                cost_units: 0.0001,
                latency_micros: 5,
                accuracy: 1.0,
            },
            _ => CostEstimate::FREE,
        }
    }

    fn query(&self, query: &SourceQuery) -> Result<SourceResult> {
        match query {
            SourceQuery::KvGet(key) => {
                let v = self.kv.get(key)?;
                Ok(SourceResult {
                    data: v.into(),
                    rows: 1,
                })
            }
            other => Err(DataError::Eval(format!(
                "kv source cannot answer {}",
                other.op_name()
            ))),
        }
    }
}

/// Decorator injecting transient outages into any [`DataSource`].
///
/// Queries consult the attached fault injector (keyed by source name, query
/// op, and a call ordinal); a fired fault surfaces as
/// [`DataError::Unavailable`], which the data planner treats as a signal to
/// retry or fall back to a sibling source — estimates and capability checks
/// pass through untouched so planning still sees the real source.
pub struct FaultInjectedSource {
    inner: Arc<dyn DataSource>,
    injector: Arc<blueprint_resilience::FaultInjector>,
    calls: std::sync::atomic::AtomicU64,
}

impl FaultInjectedSource {
    /// Wraps `inner` with fault injection.
    pub fn wrap(
        inner: Arc<dyn DataSource>,
        injector: Arc<blueprint_resilience::FaultInjector>,
    ) -> Self {
        FaultInjectedSource {
            inner,
            injector,
            calls: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl DataSource for FaultInjectedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn modality(&self) -> &'static str {
        self.inner.modality()
    }

    fn supports(&self, query: &SourceQuery) -> bool {
        self.inner.supports(query)
    }

    fn estimate(&self, query: &SourceQuery) -> CostEstimate {
        self.inner.estimate(query)
    }

    fn query(&self, query: &SourceQuery) -> Result<SourceResult> {
        if !self.injector.query_armed() {
            return self.inner.query(query);
        }
        let n = self
            .calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let key = format!("{}:{}#{}", self.inner.name(), query.op_name(), n);
        if self.injector.query_fault(&key).is_some() {
            return Err(DataError::Unavailable(format!(
                "injected outage at source `{}`",
                self.inner.name()
            )));
        }
        self.inner.query(query)
    }
}

/// Decorator metering queries against any [`DataSource`].
///
/// Every `query` call increments `blueprint.datastore.queries`; failures
/// additionally increment `blueprint.datastore.errors`. Estimates and
/// capability checks pass through unmetered — they are planning-time
/// lookups, not data access.
pub struct InstrumentedSource {
    inner: Arc<dyn DataSource>,
    queries: blueprint_observability::Counter,
    errors: blueprint_observability::Counter,
}

impl InstrumentedSource {
    /// Wraps `inner`, resolving the datastore instruments from `metrics`.
    pub fn wrap(
        inner: Arc<dyn DataSource>,
        metrics: &blueprint_observability::MetricsRegistry,
    ) -> Self {
        InstrumentedSource {
            inner,
            queries: metrics.counter("blueprint.datastore.queries"),
            errors: metrics.counter("blueprint.datastore.errors"),
        }
    }
}

impl DataSource for InstrumentedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn modality(&self) -> &'static str {
        self.inner.modality()
    }

    fn supports(&self, query: &SourceQuery) -> bool {
        self.inner.supports(query)
    }

    fn estimate(&self, query: &SourceQuery) -> CostEstimate {
        self.inner.estimate(query)
    }

    fn query(&self, query: &SourceQuery) -> Result<SourceResult> {
        self.queries.inc();
        let result = self.inner.query(query);
        if result.is_err() {
            self.errors.inc();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relational() -> RelationalSource {
        let db = Arc::new(RelationalDb::new());
        db.execute("CREATE TABLE jobs (id INT, title TEXT)")
            .unwrap();
        db.execute("INSERT INTO jobs VALUES (1, 'ds'), (2, 'mle')")
            .unwrap();
        RelationalSource::new("hr-db", db)
    }

    #[test]
    fn instrumented_source_meters_queries_and_errors() {
        let metrics = blueprint_observability::MetricsRegistry::new();
        let s = InstrumentedSource::wrap(Arc::new(relational()), &metrics);
        assert_eq!(s.modality(), "relational");
        s.query(&SourceQuery::Sql("SELECT 1".into())).unwrap();
        assert!(s.query(&SourceQuery::KvGet("x".into())).is_err());
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("blueprint.datastore.queries"), 2);
        assert_eq!(snap.counter("blueprint.datastore.errors"), 1);
        // Planning-time lookups are unmetered.
        s.estimate(&SourceQuery::Sql("SELECT 1".into()));
        assert_eq!(metrics.snapshot().counter("blueprint.datastore.queries"), 2);
    }

    #[test]
    fn relational_source_answers_sql() {
        let s = relational();
        assert_eq!(s.modality(), "relational");
        assert!(s.supports(&SourceQuery::Sql("SELECT 1".into())));
        assert!(!s.supports(&SourceQuery::KvGet("x".into())));
        let r = s
            .query(&SourceQuery::Sql(
                "SELECT title FROM jobs ORDER BY id".into(),
            ))
            .unwrap();
        assert_eq!(r.rows, 2);
        assert_eq!(r.data.as_json()[0]["title"], json!("ds"));
        assert!(s.query(&SourceQuery::KvGet("x".into())).is_err());
    }

    #[test]
    fn relational_estimate_scales_with_rows() {
        let s = relational();
        let small = s.estimate(&SourceQuery::Sql("SELECT 1".into()));
        let scan = s.estimate(&SourceQuery::Sql("SELECT * FROM jobs".into()));
        assert!(scan.latency_micros >= small.latency_micros);
        assert_eq!(scan.accuracy, 1.0);
    }

    #[test]
    fn document_source_search_and_filter() {
        let store = Arc::new(DocumentStore::new());
        store
            .put("p1", json!({"name": "Ada", "summary": "data scientist"}))
            .unwrap();
        store
            .put("p2", json!({"name": "Grace", "summary": "compiler expert"}))
            .unwrap();
        let s = DocumentSource::new("profiles", store);
        assert_eq!(s.modality(), "document");
        let r = s
            .query(&SourceQuery::DocSearch {
                query: "data scientist".into(),
                limit: 5,
            })
            .unwrap();
        assert_eq!(r.rows, 1);
        assert_eq!(r.data.as_json()[0]["id"], json!("p1"));
        let f = s
            .query(&SourceQuery::DocFilter {
                field: "name".into(),
                value: json!("Grace"),
            })
            .unwrap();
        assert_eq!(f.rows, 1);
        // Search estimates are marked approximate.
        assert!(
            s.estimate(&SourceQuery::DocSearch {
                query: "x".into(),
                limit: 1
            })
            .accuracy
                < 1.0
        );
        assert!(s.query(&SourceQuery::Sql("SELECT 1".into())).is_err());
    }

    #[test]
    fn graph_source_expands_related() {
        let g = Arc::new(PropertyGraph::new());
        g.add_node("a", "title", json!({"name": "a"})).unwrap();
        g.add_node("b", "title", json!({"name": "b"})).unwrap();
        g.add_edge("a", "b", "related_to").unwrap();
        let s = GraphSource::new("taxonomy", g);
        let r = s
            .query(&SourceQuery::GraphRelated {
                node: "a".into(),
                edge_type: None,
                depth: 1,
            })
            .unwrap();
        assert_eq!(r.rows, 1);
        assert_eq!(r.data.as_json()[0]["id"], json!("b"));
        let est = s.estimate(&SourceQuery::GraphRelated {
            node: "a".into(),
            edge_type: None,
            depth: 3,
        });
        assert_eq!(est.latency_micros, 160);
        assert!(s.query(&SourceQuery::KvGet("x".into())).is_err());
    }

    #[test]
    fn kv_source_gets() {
        let kv = Arc::new(KvStore::new());
        kv.put("k", json!({"v": 1}));
        let s = KvSource::new("cache", kv);
        let r = s.query(&SourceQuery::KvGet("k".into())).unwrap();
        assert_eq!(r.data.as_json()["v"], json!(1));
        assert!(s.query(&SourceQuery::KvGet("missing".into())).is_err());
        assert!(s.estimate(&SourceQuery::KvGet("k".into())).latency_micros <= 10);
    }

    #[test]
    fn op_names_cover_variants() {
        assert_eq!(SourceQuery::Sql("s".into()).op_name(), "sql");
        assert_eq!(
            SourceQuery::DocSearch {
                query: "q".into(),
                limit: 1
            }
            .op_name(),
            "doc-search"
        );
        assert_eq!(
            SourceQuery::DocFilter {
                field: "f".into(),
                value: json!(1)
            }
            .op_name(),
            "doc-filter"
        );
        assert_eq!(
            SourceQuery::GraphRelated {
                node: "n".into(),
                edge_type: None,
                depth: 1
            }
            .op_name(),
            "graph-related"
        );
        assert_eq!(SourceQuery::KvGet("k".into()).op_name(), "kv-get");
        assert_eq!(SourceQuery::Knowledge("q".into()).op_name(), "knowledge");
    }

    #[test]
    fn source_result_from_array() {
        let r = SourceResult::from_array(json!([1, 2, 3]));
        assert_eq!(r.rows, 3);
        let scalar = SourceResult::from_array(json!("x"));
        assert_eq!(scalar.rows, 1);
    }

    #[test]
    fn fault_injected_source_surfaces_unavailable() {
        use blueprint_resilience::{FaultInjector, FaultPlan, FaultSite};
        let always = Arc::new(FaultInjector::new(
            FaultPlan::none(1).with_query_fail_rate(1.0),
        ));
        let faulty = FaultInjectedSource::wrap(Arc::new(relational()), Arc::clone(&always));
        // Planning surface is untouched...
        assert_eq!(faulty.name(), "hr-db");
        assert_eq!(faulty.modality(), "relational");
        let q = SourceQuery::Sql("SELECT title FROM jobs".into());
        assert!(faulty.supports(&q));
        assert_eq!(faulty.estimate(&q), relational().estimate(&q));
        // ...but the query path reports a transient outage, tagged in the log.
        assert!(matches!(faulty.query(&q), Err(DataError::Unavailable(_))));
        assert_eq!(always.count(FaultSite::DataQuery), 1);

        // A clean injector passes queries straight through.
        let clean = Arc::new(FaultInjector::new(FaultPlan::none(1)));
        let healthy = FaultInjectedSource::wrap(Arc::new(relational()), clean);
        assert_eq!(healthy.query(&q).unwrap().rows, 2);
    }
}
