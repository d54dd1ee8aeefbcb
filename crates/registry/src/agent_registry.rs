//! The agent registry: mapping enterprise APIs and models to agents (§V-C).
//!
//! Stores [`AgentSpec`]s together with learned representations and usage
//! logs. Supports registration, update, derivation of new agents from
//! existing ones, keyword/vector search, and usage recording that feeds the
//! "enhanced embeddings" used for ranking.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::RwLock;

use blueprint_agents::AgentSpec;
use blueprint_resilience::{BreakerRegistry, BreakerState};

use crate::embedding::{embed_text, Embedding};
use crate::error::RegistryError;
use crate::search::{rank_entries, EntryTokens, SearchHit};
use crate::Result;

/// A registered agent: its spec plus registry-side metadata.
#[derive(Debug, Clone)]
pub struct AgentEntry {
    /// The declarative agent description.
    pub spec: AgentSpec,
    /// Representation derived from name + description (+ usage queries).
    pub embedding: Embedding,
    /// Times this agent was selected for a task.
    pub usage_count: u64,
    /// Recent queries that led to this agent (bounded log, oldest first).
    pub usage_queries: VecDeque<String>,
}

/// An entry plus what search reads of it, each computed once: the spec's
/// tokens and embedding when registered or updated, and each usage query's
/// embedding when recorded.
struct Slot {
    entry: AgentEntry,
    /// Tokens of the spec's name and description.
    tokens: EntryTokens,
    /// Embedding of `name description`.
    base: Embedding,
    /// Embeddings of `entry.usage_queries`, in the same order.
    usage: VecDeque<Embedding>,
}

impl Slot {
    fn new(spec: AgentSpec) -> Self {
        let base = base_embedding(&spec);
        Slot {
            tokens: EntryTokens::new(&spec.name, &spec.description),
            entry: AgentEntry {
                spec,
                embedding: base.clone(),
                usage_count: 0,
                usage_queries: VecDeque::new(),
            },
            base,
            usage: VecDeque::new(),
        }
    }

    /// Recomputes the blended embedding: the base at weight 2, each usage
    /// query at weight 1 (the paper's log-derived representations).
    fn refresh_embedding(&mut self) {
        self.entry.embedding = if self.usage.is_empty() {
            self.base.clone()
        } else {
            Embedding::blend(
                std::iter::once((&self.base, 2.0)).chain(self.usage.iter().map(|e| (e, 1.0))),
            )
        };
    }
}

fn base_embedding(spec: &AgentSpec) -> Embedding {
    embed_text(&format!("{} {}", spec.name, spec.description))
}

const MAX_USAGE_QUERIES: usize = 32;

/// Thread-safe registry of agents.
#[derive(Default)]
pub struct AgentRegistry {
    entries: RwLock<HashMap<String, Slot>>,
    breakers: RwLock<Option<Arc<BreakerRegistry>>>,
}

impl AgentRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a circuit-breaker registry: searches then filter out agents
    /// whose breakers are open, so planners route around unhealthy agents.
    pub fn set_breakers(&self, breakers: Arc<BreakerRegistry>) {
        *self.breakers.write() = Some(breakers);
    }

    /// Breaker state for an agent (closed when no breakers are attached),
    /// surfaced in agent profiles for planners and operators.
    pub fn breaker_state(&self, name: &str) -> BreakerState {
        self.breakers
            .read()
            .as_ref()
            .map_or(BreakerState::Closed, |b| b.state(name))
    }

    /// Registers a new agent. Fails on duplicate names or invalid specs.
    pub fn register(&self, spec: AgentSpec) -> Result<()> {
        spec.validate()
            .map_err(|e| RegistryError::Invalid(e.to_string()))?;
        let mut entries = self.entries.write();
        if entries.contains_key(&spec.name) {
            return Err(RegistryError::Duplicate(spec.name));
        }
        entries.insert(spec.name.clone(), Slot::new(spec));
        Ok(())
    }

    /// Replaces an existing agent's spec (metadata update), preserving its
    /// usage history.
    pub fn update(&self, spec: AgentSpec) -> Result<()> {
        spec.validate()
            .map_err(|e| RegistryError::Invalid(e.to_string()))?;
        let mut entries = self.entries.write();
        let slot = entries
            .get_mut(&spec.name)
            .ok_or_else(|| RegistryError::NotFound(spec.name.clone()))?;
        slot.tokens = EntryTokens::new(&spec.name, &spec.description);
        slot.base = base_embedding(&spec);
        slot.entry.spec = spec;
        slot.refresh_embedding();
        Ok(())
    }

    /// Derives a new agent from an existing one: clones the spec, renames
    /// it, and applies `customize`. Mirrors the registry web interface's
    /// "derive new agents from existing ones".
    pub fn derive(
        &self,
        base: &str,
        new_name: &str,
        customize: impl FnOnce(&mut AgentSpec),
    ) -> Result<()> {
        let mut spec = self.get(base)?.spec;
        spec.name = new_name.to_string();
        customize(&mut spec);
        if spec.name != new_name {
            return Err(RegistryError::Invalid(
                "customize must not rename the derived agent".into(),
            ));
        }
        self.register(spec)
    }

    /// Fetches an entry by name (cloned snapshot).
    pub fn get(&self, name: &str) -> Result<AgentEntry> {
        self.entries
            .read()
            .get(name)
            .map(|slot| slot.entry.clone())
            .ok_or_else(|| RegistryError::NotFound(name.to_string()))
    }

    /// Fetches just the spec by name.
    pub fn get_spec(&self, name: &str) -> Result<AgentSpec> {
        self.entries
            .read()
            .get(name)
            .map(|slot| slot.entry.spec.clone())
            .ok_or_else(|| RegistryError::NotFound(name.to_string()))
    }

    /// True if the agent exists.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.read().contains_key(name)
    }

    /// Removes an agent.
    pub fn unregister(&self, name: &str) -> Result<()> {
        self.entries
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| RegistryError::NotFound(name.to_string()))
    }

    /// All agent names, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered agents.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True if no agents are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Hybrid keyword+vector+usage search over agents. Agents whose circuit
    /// breakers are currently open are excluded: the planner must not route
    /// new work to an agent known to be failing.
    pub fn search(&self, query: &str, limit: usize) -> Vec<SearchHit> {
        let breakers = self.breakers.read().clone();
        let entries = self.entries.read();
        let max_usage = entries
            .values()
            .map(|slot| slot.entry.usage_count)
            .max()
            .unwrap_or(0)
            .max(1) as f32;
        rank_entries(
            query,
            entries
                .values()
                .filter(|slot| {
                    breakers
                        .as_ref()
                        .is_none_or(|b| !b.is_open(&slot.entry.spec.name))
                })
                .map(|slot| {
                    (
                        slot.entry.spec.name.as_str(),
                        &slot.tokens,
                        &slot.entry.embedding,
                        slot.entry.usage_count as f32 / max_usage,
                    )
                }),
            limit,
        )
    }

    /// Records that `query` was routed to `agent`, boosting its future
    /// ranking and refreshing its log-derived embedding.
    pub fn record_usage(&self, agent: &str, query: &str) -> Result<()> {
        let mut entries = self.entries.write();
        let slot = entries
            .get_mut(agent)
            .ok_or_else(|| RegistryError::NotFound(agent.to_string()))?;
        slot.entry.usage_count += 1;
        slot.entry.usage_queries.push_back(query.to_string());
        slot.usage.push_back(embed_text(query));
        if slot.usage.len() > MAX_USAGE_QUERIES {
            slot.entry.usage_queries.pop_front();
            slot.usage.pop_front();
        }
        slot.refresh_embedding();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_agents::{DataType, ParamSpec};

    fn spec(name: &str, description: &str) -> AgentSpec {
        AgentSpec::new(name, description)
            .with_input(ParamSpec::required("input", "input", DataType::Any))
            .with_output(ParamSpec::required("output", "output", DataType::Any))
    }

    fn seeded() -> AgentRegistry {
        let r = AgentRegistry::new();
        r.register(spec(
            "job-matcher",
            "assess the match quality between a job seeker profile and jobs",
        ))
        .unwrap();
        r.register(spec(
            "profiler",
            "collect job seeker profile information via a form",
        ))
        .unwrap();
        r.register(spec("summarizer", "summarize documents into concise text"))
            .unwrap();
        r
    }

    #[test]
    fn register_get_list() {
        let r = seeded();
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.list(), ["job-matcher", "profiler", "summarizer"]);
        assert_eq!(r.get_spec("profiler").unwrap().name, "profiler");
        assert!(r.contains("summarizer"));
        assert!(!r.contains("ghost"));
    }

    #[test]
    fn duplicate_registration_fails() {
        let r = seeded();
        assert!(matches!(
            r.register(spec("profiler", "again")),
            Err(RegistryError::Duplicate(_))
        ));
    }

    #[test]
    fn invalid_spec_rejected() {
        let r = AgentRegistry::new();
        assert!(matches!(
            r.register(AgentSpec::new("", "no name")),
            Err(RegistryError::Invalid(_))
        ));
    }

    #[test]
    fn update_preserves_usage() {
        let r = seeded();
        r.record_usage("profiler", "collect my profile").unwrap();
        r.update(spec("profiler", "collect profiles with a UI form"))
            .unwrap();
        let e = r.get("profiler").unwrap();
        assert_eq!(e.usage_count, 1);
        assert!(e.spec.description.contains("UI form"));
    }

    #[test]
    fn update_unknown_fails() {
        let r = AgentRegistry::new();
        assert!(r.update(spec("ghost", "d")).is_err());
    }

    #[test]
    fn unregister_removes() {
        let r = seeded();
        r.unregister("summarizer").unwrap();
        assert!(!r.contains("summarizer"));
        assert!(r.unregister("summarizer").is_err());
    }

    #[test]
    fn search_finds_relevant_agent() {
        let r = seeded();
        let hits = r.search("match my profile against available jobs", 2);
        assert_eq!(hits[0].name, "job-matcher");
    }

    #[test]
    fn usage_boosts_ranking() {
        let r = AgentRegistry::new();
        // Two agents with identical descriptions: usage breaks the tie.
        r.register(spec("ranker-a", "rank applicants for a job post"))
            .unwrap();
        r.register(spec("ranker-b", "rank applicants for a job post"))
            .unwrap();
        for _ in 0..5 {
            r.record_usage("ranker-b", "rank the applicants").unwrap();
        }
        let hits = r.search("rank applicants", 2);
        assert_eq!(hits[0].name, "ranker-b");
    }

    #[test]
    fn usage_log_is_bounded() {
        let r = seeded();
        for i in 0..100 {
            r.record_usage("profiler", &format!("q{i}")).unwrap();
        }
        let e = r.get("profiler").unwrap();
        assert_eq!(e.usage_queries.len(), MAX_USAGE_QUERIES);
        assert_eq!(e.usage_count, 100);
        // Oldest queries were evicted.
        assert_eq!(e.usage_queries[0], "q68");
    }

    #[test]
    fn usage_embedding_equals_blend_recomputed_from_texts() {
        let r = seeded();
        let queries: Vec<String> = (0..40)
            .map(|i| format!("collect my seeker profile, take {i}"))
            .collect();
        for q in &queries {
            r.record_usage("profiler", q).unwrap();
        }
        // The reference re-embeds every text, as each usage once did: the
        // agent's own text at weight 2, then the last 32 queries, oldest
        // first.
        let e = r.get("profiler").unwrap();
        let mut parts = vec![(
            embed_text(&format!("{} {}", e.spec.name, e.spec.description)),
            2.0f32,
        )];
        for q in &e.usage_queries {
            parts.push((embed_text(q), 1.0));
        }
        let reference = Embedding::blend(parts.iter().map(|(e, w)| (e, *w)));
        assert_eq!(e.usage_queries.len(), MAX_USAGE_QUERIES);
        assert_eq!(e.usage_queries[0], queries[40 - MAX_USAGE_QUERIES]);
        assert_eq!(e.usage_count, 40);
        // Bitwise: the same vectors blend in the same order.
        assert_eq!(e.embedding, reference);

        // An update re-embeds the base and keeps the usage blend.
        r.update(spec("profiler", "collect profiles with a UI form"))
            .unwrap();
        let e = r.get("profiler").unwrap();
        parts[0].0 = embed_text("profiler collect profiles with a UI form");
        assert_eq!(
            e.embedding,
            Embedding::blend(parts.iter().map(|(e, w)| (e, *w)))
        );
    }

    #[test]
    fn derive_clones_and_customizes() {
        let r = seeded();
        r.derive("summarizer", "query-summarizer", |s| {
            s.description = "explain SQL query results in natural language".into();
        })
        .unwrap();
        let d = r.get_spec("query-summarizer").unwrap();
        assert!(d.description.contains("SQL"));
        // Base is untouched.
        assert!(r
            .get_spec("summarizer")
            .unwrap()
            .description
            .contains("documents"));
    }

    #[test]
    fn derive_rejects_rename_in_customize() {
        let r = seeded();
        let err = r
            .derive("summarizer", "x", |s| {
                s.name = "sneaky".into();
            })
            .unwrap_err();
        assert!(matches!(err, RegistryError::Invalid(_)));
    }

    #[test]
    fn derive_from_unknown_fails() {
        let r = AgentRegistry::new();
        assert!(r.derive("ghost", "new", |_| {}).is_err());
    }

    #[test]
    fn record_usage_unknown_fails() {
        let r = AgentRegistry::new();
        assert!(r.record_usage("ghost", "q").is_err());
    }

    #[test]
    fn search_routes_around_open_circuits() {
        use blueprint_resilience::BreakerConfig;
        let r = AgentRegistry::new();
        r.register(spec("ranker-a", "rank applicants for a job post"))
            .unwrap();
        r.register(spec("ranker-b", "rank applicants for a job post"))
            .unwrap();
        let breakers = Arc::new(BreakerRegistry::new(BreakerConfig {
            min_samples: 2,
            ..BreakerConfig::default()
        }));
        r.set_breakers(Arc::clone(&breakers));

        // Healthy: both rankers are reachable.
        let names: Vec<_> = r
            .search("rank applicants", 5)
            .into_iter()
            .map(|h| h.name)
            .collect();
        assert!(names.contains(&"ranker-a".to_string()));
        assert!(names.contains(&"ranker-b".to_string()));

        // Trip ranker-a's breaker: the planner no longer sees it.
        breakers.record("ranker-a", false, 0);
        breakers.record("ranker-a", false, 0);
        assert_eq!(r.breaker_state("ranker-a"), BreakerState::Open);
        let names: Vec<_> = r
            .search("rank applicants", 5)
            .into_iter()
            .map(|h| h.name)
            .collect();
        assert!(!names.contains(&"ranker-a".to_string()));
        assert!(names.contains(&"ranker-b".to_string()));

        // Cooldown elapses → half-open probes are routable again.
        assert!(breakers.allow("ranker-a", 60_000));
        let names: Vec<_> = r
            .search("rank applicants", 5)
            .into_iter()
            .map(|h| h.name)
            .collect();
        assert!(names.contains(&"ranker-a".to_string()));
    }
}
