//! The data registry: mapping enterprise data (§V-D, Fig 5).
//!
//! Assets are registered at several granularity levels (lakehouse → lake →
//! source system → database → table/collection → column) across modalities
//! (relational, document, graph, key-value, and *parametric* — an LLM used
//! as a data source, as in the paper's "cities in the SF bay area" example).
//! Each asset carries schema, connection details, statistics, available
//! indices, and a learned representation; query logs feed enhanced
//! embeddings exactly as in the agent registry.

use std::collections::{HashMap, VecDeque};

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::embedding::{embed_text, Embedding};
use crate::error::RegistryError;
use crate::search::{rank_entries, EntryTokens, SearchHit};
use crate::Result;

/// Granularity level of a data asset (Fig 5's hierarchy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DataLevel {
    /// Top-level lakehouse.
    Lakehouse,
    /// A data lake within the lakehouse.
    Lake,
    /// A source system feeding the lake.
    SourceSystem,
    /// A database within a source system.
    Database,
    /// A table, document collection, graph, or KV namespace.
    Collection,
    /// A column/field within a collection.
    Column,
}

/// Modality of the underlying data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataModality {
    /// Relational tables.
    Relational,
    /// Document collections.
    Document,
    /// Property graphs (e.g. the title taxonomy).
    Graph,
    /// Key-value stores.
    KeyValue,
    /// Parametric knowledge in a model (an LLM as a data source).
    Parametric,
}

/// Schema information for one field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldMeta {
    /// Field/column name.
    pub name: String,
    /// Type name (`text`, `int`, `float`, ...).
    pub type_name: String,
    /// Description used for discovery.
    pub description: String,
}

impl FieldMeta {
    /// Creates a field description.
    pub fn new(
        name: impl Into<String>,
        type_name: impl Into<String>,
        description: impl Into<String>,
    ) -> Self {
        FieldMeta {
            name: name.into(),
            type_name: type_name.into(),
            description: description.into(),
        }
    }
}

/// Size/statistics metadata consumed by the data planner's optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct DataStats {
    /// Row/document/node count.
    pub rows: u64,
    /// Approximate size in bytes.
    pub bytes: u64,
}

/// A registered data asset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataAsset {
    /// Unique asset name (e.g. `jobs`, `hr-db`, `profiles`).
    pub name: String,
    /// Natural-language description.
    pub description: String,
    /// Granularity level.
    pub level: DataLevel,
    /// Modality.
    pub modality: DataModality,
    /// Parent asset name in the hierarchy (None for roots).
    pub parent: Option<String>,
    /// Schema fields (tables/collections) or empty.
    pub schema: Vec<FieldMeta>,
    /// Connection string / locator understood by the datastore layer.
    pub connection: String,
    /// Indices available on this asset (names of indexed fields).
    pub indices: Vec<String>,
    /// Statistics for optimization.
    pub stats: DataStats,
    /// Governance (§VII): agents allowed to discover/use this asset.
    /// Empty means public. Serialized with a default for compatibility.
    #[serde(default)]
    pub restricted_to: Vec<String>,
}

impl DataAsset {
    /// Creates a minimal asset.
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        level: DataLevel,
        modality: DataModality,
    ) -> Self {
        DataAsset {
            name: name.into(),
            description: description.into(),
            level,
            modality,
            parent: None,
            schema: Vec::new(),
            connection: String::new(),
            indices: Vec::new(),
            stats: DataStats::default(),
            restricted_to: Vec::new(),
        }
    }

    /// Builder-style: sets the parent.
    pub fn with_parent(mut self, parent: impl Into<String>) -> Self {
        self.parent = Some(parent.into());
        self
    }

    /// Builder-style: adds a schema field.
    pub fn with_field(mut self, field: FieldMeta) -> Self {
        self.schema.push(field);
        self
    }

    /// Builder-style: sets the connection locator.
    pub fn with_connection(mut self, connection: impl Into<String>) -> Self {
        self.connection = connection.into();
        self
    }

    /// Builder-style: declares an index.
    pub fn with_index(mut self, field: impl Into<String>) -> Self {
        self.indices.push(field.into());
        self
    }

    /// Builder-style: sets statistics.
    pub fn with_stats(mut self, rows: u64, bytes: u64) -> Self {
        self.stats = DataStats { rows, bytes };
        self
    }

    /// Builder-style: restricts the asset to the named agents (governance).
    pub fn restricted_to<I, S>(mut self, agents: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.restricted_to = agents.into_iter().map(Into::into).collect();
        self
    }

    /// True if the principal may see this asset. `None` is the omniscient
    /// administrator view.
    pub fn accessible_by(&self, principal: Option<&str>) -> bool {
        match principal {
            None => true,
            Some(p) => self.restricted_to.is_empty() || self.restricted_to.iter().any(|a| a == p),
        }
    }

    /// Text used to derive the asset's representation: name, description,
    /// and schema (the paper embeds schema details and values too).
    fn embedding_text(&self) -> String {
        let mut text = format!("{} {}", self.name, self.description);
        for f in &self.schema {
            text.push(' ');
            text.push_str(&f.name);
            text.push(' ');
            text.push_str(&f.description);
        }
        text
    }
}

#[derive(Debug, Clone)]
struct AssetEntry {
    asset: DataAsset,
    /// Tokens of the asset's name and description, for keyword search.
    tokens: EntryTokens,
    /// Embedding of the asset's own text, computed once at registration.
    base: Embedding,
    /// `base` blended with `usage`: what discovery ranks by.
    embedding: Embedding,
    usage_count: u64,
    /// Embeddings of the most recent usage queries, oldest first (at most
    /// `MAX_USAGE_QUERIES`), each computed once when recorded.
    usage: VecDeque<Embedding>,
}

const MAX_USAGE_QUERIES: usize = 32;

/// Thread-safe registry of data assets.
#[derive(Default)]
pub struct DataRegistry {
    entries: RwLock<HashMap<String, AssetEntry>>,
}

impl DataRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an asset. The parent, if named, must already exist.
    pub fn register(&self, asset: DataAsset) -> Result<()> {
        if asset.name.trim().is_empty() {
            return Err(RegistryError::Invalid("empty asset name".into()));
        }
        let mut entries = self.entries.write();
        if entries.contains_key(&asset.name) {
            return Err(RegistryError::Duplicate(asset.name));
        }
        if let Some(parent) = &asset.parent {
            if !entries.contains_key(parent) {
                return Err(RegistryError::Invalid(format!(
                    "parent asset not registered: {parent}"
                )));
            }
        }
        let base = embed_text(&asset.embedding_text());
        entries.insert(
            asset.name.clone(),
            AssetEntry {
                tokens: EntryTokens::new(&asset.name, &asset.description),
                asset,
                embedding: base.clone(),
                base,
                usage_count: 0,
                usage: VecDeque::new(),
            },
        );
        Ok(())
    }

    /// Fetches an asset by name.
    pub fn get(&self, name: &str) -> Result<DataAsset> {
        self.entries
            .read()
            .get(name)
            .map(|e| e.asset.clone())
            .ok_or_else(|| RegistryError::NotFound(name.to_string()))
    }

    /// True if the asset exists.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.read().contains_key(name)
    }

    /// Removes an asset (children keep their dangling parent reference —
    /// the enterprise catalog problem the paper flags as open research).
    pub fn unregister(&self, name: &str) -> Result<()> {
        self.entries
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| RegistryError::NotFound(name.to_string()))
    }

    /// All asset names, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Assets at a given level, sorted by name.
    pub fn list_level(&self, level: DataLevel) -> Vec<DataAsset> {
        let mut assets: Vec<DataAsset> = self
            .entries
            .read()
            .values()
            .filter(|e| e.asset.level == level)
            .map(|e| e.asset.clone())
            .collect();
        assets.sort_by(|a, b| a.name.cmp(&b.name));
        assets
    }

    /// Direct children of an asset, sorted by name.
    pub fn children(&self, parent: &str) -> Vec<DataAsset> {
        let mut assets: Vec<DataAsset> = self
            .entries
            .read()
            .values()
            .filter(|e| e.asset.parent.as_deref() == Some(parent))
            .map(|e| e.asset.clone())
            .collect();
        assets.sort_by(|a, b| a.name.cmp(&b.name));
        assets
    }

    /// Walks up the hierarchy from an asset to its root.
    pub fn ancestry(&self, name: &str) -> Result<Vec<DataAsset>> {
        let entries = self.entries.read();
        let mut chain = Vec::new();
        let mut current = Some(name.to_string());
        while let Some(n) = current {
            let entry = entries
                .get(&n)
                .ok_or_else(|| RegistryError::NotFound(n.clone()))?;
            chain.push(entry.asset.clone());
            current = entry.asset.parent.clone();
            if chain.len() > entries.len() {
                return Err(RegistryError::Invalid("parent cycle detected".into()));
            }
        }
        Ok(chain)
    }

    /// Number of registered assets.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True if no assets are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Hybrid search, optionally restricted to a modality (a data planner
    /// looking for graph data passes `Some(DataModality::Graph)`).
    /// Administrator view: sees every asset regardless of governance.
    pub fn discover(
        &self,
        query: &str,
        modality: Option<DataModality>,
        limit: usize,
    ) -> Vec<SearchHit> {
        self.discover_for(None, query, modality, limit)
    }

    /// Governed discovery (§VII): the principal (an agent name) only sees
    /// public assets and assets it is explicitly granted.
    pub fn discover_for(
        &self,
        principal: Option<&str>,
        query: &str,
        modality: Option<DataModality>,
        limit: usize,
    ) -> Vec<SearchHit> {
        let entries = self.entries.read();
        let max_usage = entries
            .values()
            .map(|e| e.usage_count)
            .max()
            .unwrap_or(0)
            .max(1) as f32;
        rank_entries(
            query,
            entries
                .values()
                .filter(|e| modality.is_none_or(|m| e.asset.modality == m))
                .filter(|e| e.asset.accessible_by(principal))
                .map(|e| {
                    (
                        e.asset.name.as_str(),
                        &e.tokens,
                        &e.embedding,
                        e.usage_count as f32 / max_usage,
                    )
                }),
            limit,
        )
    }

    /// Records that `query` was answered from `asset` (query-history
    /// embeddings, §V-D).
    pub fn record_usage(&self, asset: &str, query: &str) -> Result<()> {
        let mut entries = self.entries.write();
        let entry = entries
            .get_mut(asset)
            .ok_or_else(|| RegistryError::NotFound(asset.to_string()))?;
        entry.usage_count += 1;
        entry.usage.push_back(embed_text(query));
        if entry.usage.len() > MAX_USAGE_QUERIES {
            entry.usage.pop_front();
        }
        entry.embedding = Embedding::blend(
            std::iter::once((&entry.base, 2.0)).chain(entry.usage.iter().map(|e| (e, 1.0))),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> DataRegistry {
        let r = DataRegistry::new();
        r.register(DataAsset::new(
            "hr-lakehouse",
            "YourJourney HR lakehouse",
            DataLevel::Lakehouse,
            DataModality::Relational,
        ))
        .unwrap();
        r.register(
            DataAsset::new(
                "hr-db",
                "HR relational database with job and application data",
                DataLevel::Database,
                DataModality::Relational,
            )
            .with_parent("hr-lakehouse"),
        )
        .unwrap();
        r.register(
            DataAsset::new(
                "jobs",
                "job postings with title, company, location, salary",
                DataLevel::Collection,
                DataModality::Relational,
            )
            .with_parent("hr-db")
            .with_field(FieldMeta::new("title", "text", "job title"))
            .with_field(FieldMeta::new("city", "text", "job location city"))
            .with_index("title")
            .with_stats(10_000, 4_000_000)
            .with_connection("sql://hr/jobs"),
        )
        .unwrap();
        r.register(
            DataAsset::new(
                "profiles",
                "job seeker profiles stored as documents with skills and experience",
                DataLevel::Collection,
                DataModality::Document,
            )
            .with_parent("hr-db")
            .with_connection("doc://hr/profiles"),
        )
        .unwrap();
        r.register(
            DataAsset::new(
                "title-taxonomy",
                "graph of job title relationships and synonyms",
                DataLevel::Collection,
                DataModality::Graph,
            )
            .with_parent("hr-db")
            .with_connection("graph://hr/titles"),
        )
        .unwrap();
        r.register(DataAsset::new(
            "gpt-knowledge",
            "general world knowledge from a large language model, e.g. cities in a region",
            DataLevel::Collection,
            DataModality::Parametric,
        ))
        .unwrap();
        r
    }

    #[test]
    fn register_and_hierarchy() {
        let r = seeded();
        assert_eq!(r.len(), 6);
        let kids = r.children("hr-db");
        let names: Vec<&str> = kids.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["jobs", "profiles", "title-taxonomy"]);
        let chain = r.ancestry("jobs").unwrap();
        let chain_names: Vec<&str> = chain.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(chain_names, ["jobs", "hr-db", "hr-lakehouse"]);
    }

    #[test]
    fn orphan_parent_rejected() {
        let r = DataRegistry::new();
        let asset = DataAsset::new("t", "d", DataLevel::Collection, DataModality::Relational)
            .with_parent("missing");
        assert!(matches!(r.register(asset), Err(RegistryError::Invalid(_))));
    }

    #[test]
    fn duplicate_and_empty_names_rejected() {
        let r = seeded();
        assert!(matches!(
            r.register(DataAsset::new(
                "jobs",
                "again",
                DataLevel::Collection,
                DataModality::Relational
            )),
            Err(RegistryError::Duplicate(_))
        ));
        assert!(r
            .register(DataAsset::new(
                " ",
                "d",
                DataLevel::Collection,
                DataModality::Relational
            ))
            .is_err());
    }

    #[test]
    fn discover_finds_jobs_table() {
        let r = seeded();
        let hits = r.discover("job postings with title and location", None, 3);
        assert_eq!(hits[0].name, "jobs");
    }

    #[test]
    fn discover_modality_filter() {
        let r = seeded();
        let hits = r.discover("job titles", Some(DataModality::Graph), 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "title-taxonomy");
    }

    #[test]
    fn parametric_source_is_discoverable() {
        let r = seeded();
        let hits = r.discover(
            "cities in the sf bay area region",
            Some(DataModality::Parametric),
            3,
        );
        assert_eq!(hits[0].name, "gpt-knowledge");
    }

    #[test]
    fn list_level_filters() {
        let r = seeded();
        let collections = r.list_level(DataLevel::Collection);
        assert_eq!(collections.len(), 4);
        assert!(r.list_level(DataLevel::Lake).is_empty());
    }

    #[test]
    fn usage_recording_boosts() {
        let r = DataRegistry::new();
        r.register(DataAsset::new(
            "a",
            "rows of numbers",
            DataLevel::Collection,
            DataModality::Relational,
        ))
        .unwrap();
        r.register(DataAsset::new(
            "b",
            "rows of numbers",
            DataLevel::Collection,
            DataModality::Relational,
        ))
        .unwrap();
        for _ in 0..4 {
            r.record_usage("b", "numbers please").unwrap();
        }
        // Repeating the historical query: the usage-boosted entry wins both
        // on the blended embedding and on the frequency prior.
        let hits = r.discover("numbers please", None, 2);
        assert_eq!(hits[0].name, "b");
    }

    #[test]
    fn usage_embedding_equals_blend_recomputed_from_texts() {
        let r = seeded();
        let queries: Vec<String> = (0..40)
            .map(|i| format!("open data scientist roles batch {i}"))
            .collect();
        for q in &queries {
            r.record_usage("jobs", q).unwrap();
        }
        // The reference recomputes every embedding from the texts: the
        // asset's own, weight 2, then the last 32 queries, oldest first.
        let entries = r.entries.read();
        let entry = &entries["jobs"];
        let mut parts = vec![(embed_text(&entry.asset.embedding_text()), 2.0f32)];
        for q in &queries[queries.len() - MAX_USAGE_QUERIES..] {
            parts.push((embed_text(q), 1.0));
        }
        let reference = Embedding::blend(parts.iter().map(|(e, w)| (e, *w)));
        assert_eq!(entry.usage.len(), MAX_USAGE_QUERIES);
        assert_eq!(entry.usage_count, 40);
        // Bitwise: the same vectors blend in the same order.
        assert_eq!(entry.embedding, reference);
    }

    #[test]
    fn unregister_and_missing_lookups() {
        let r = seeded();
        r.unregister("profiles").unwrap();
        assert!(!r.contains("profiles"));
        assert!(r.get("profiles").is_err());
        assert!(r.unregister("profiles").is_err());
        assert!(r.ancestry("ghost").is_err());
        assert!(r.record_usage("ghost", "q").is_err());
    }

    #[test]
    fn governance_restricts_discovery() {
        let r = DataRegistry::new();
        r.register(
            DataAsset::new(
                "salaries",
                "confidential employee salary records",
                DataLevel::Collection,
                DataModality::Relational,
            )
            .restricted_to(["payroll-agent"]),
        )
        .unwrap();
        r.register(DataAsset::new(
            "jobs",
            "public job postings",
            DataLevel::Collection,
            DataModality::Relational,
        ))
        .unwrap();

        // The administrator view sees everything.
        let admin = r.discover("salary records", None, 5);
        assert!(admin.iter().any(|h| h.name == "salaries"));
        // The authorized principal sees the restricted asset.
        let payroll = r.discover_for(Some("payroll-agent"), "salary records", None, 5);
        assert!(payroll.iter().any(|h| h.name == "salaries"));
        // Other agents do not.
        let other = r.discover_for(Some("job-matcher"), "salary records", None, 5);
        assert!(other.iter().all(|h| h.name != "salaries"));
        // Public assets stay visible to everyone.
        let other_jobs = r.discover_for(Some("job-matcher"), "public job postings", None, 5);
        assert!(other_jobs.iter().any(|h| h.name == "jobs"));
    }

    #[test]
    fn accessible_by_semantics() {
        let public = DataAsset::new("a", "d", DataLevel::Collection, DataModality::Relational);
        assert!(public.accessible_by(None));
        assert!(public.accessible_by(Some("anyone")));
        let restricted = public.clone().restricted_to(["alice", "bob"]);
        assert!(restricted.accessible_by(None));
        assert!(restricted.accessible_by(Some("alice")));
        assert!(!restricted.accessible_by(Some("mallory")));
    }

    #[test]
    fn asset_builders_populate_fields() {
        let a = DataAsset::new("t", "d", DataLevel::Collection, DataModality::Relational)
            .with_field(FieldMeta::new("c", "int", "count"))
            .with_connection("sql://x/t")
            .with_index("c")
            .with_stats(5, 100);
        assert_eq!(a.schema.len(), 1);
        assert_eq!(a.connection, "sql://x/t");
        assert_eq!(a.indices, ["c"]);
        assert_eq!(a.stats.rows, 5);
    }

    #[test]
    fn serde_round_trip() {
        let a = seeded().get("jobs").unwrap();
        let j = serde_json::to_string(&a).unwrap();
        let back: DataAsset = serde_json::from_str(&j).unwrap();
        assert_eq!(back, a);
    }
}
