//! Shared search machinery for both registries.
//!
//! Entries expose a name, a description, and an embedding; searches combine
//! keyword overlap, cosine similarity, and a usage-frequency prior.

use serde::{Deserialize, Serialize};

use crate::embedding::{embed_text, tokenize, Embedding};

/// A scored search result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchHit {
    /// Entry name.
    pub name: String,
    /// Combined relevance score (higher is better).
    pub score: f32,
}

/// An entry's name and description split into search tokens, kept with
/// the entry so a search tokenizes only its query.
#[derive(Debug, Clone)]
pub(crate) struct EntryTokens {
    name: Vec<String>,
    description: Vec<String>,
}

impl EntryTokens {
    /// Tokenizes an entry's name and description.
    pub(crate) fn new(name: &str, description: &str) -> Self {
        EntryTokens {
            name: tokenize(name),
            description: tokenize(description),
        }
    }

    /// Keyword relevance of an already tokenized query: see
    /// [`keyword_score`].
    fn keyword_score(&self, query: &[String]) -> f32 {
        if query.is_empty() {
            return 0.0;
        }
        let mut hits = 0.0f32;
        for t in query {
            if self.name.contains(t) {
                hits += 2.0; // name matches are stronger signals
            } else if self.description.contains(t) {
                hits += 1.0;
            }
        }
        hits / (query.len() as f32 * 2.0)
    }
}

/// Keyword relevance: fraction of query tokens found in the entry text,
/// weighted toward name matches.
pub fn keyword_score(query: &str, name: &str, description: &str) -> f32 {
    EntryTokens::new(name, description).keyword_score(&tokenize(query))
}

/// Ranks `(name, tokens, embedding, usage_weight)` entries against a query:
/// `score = α·vector + β·keyword + γ·usage_prior`. The query is embedded
/// and tokenized once; only the `limit` winners' names are copied.
///
/// `usage_weight` should be a normalized frequency in `[0, 1]`.
pub(crate) fn rank_entries<'a, I>(query: &str, entries: I, limit: usize) -> Vec<SearchHit>
where
    I: IntoIterator<Item = (&'a str, &'a EntryTokens, &'a Embedding, f32)>,
{
    const ALPHA: f32 = 0.6;
    const BETA: f32 = 0.3;
    const GAMMA: f32 = 0.1;
    let qe = embed_text(query);
    let qt = tokenize(query);
    let mut hits: Vec<(&str, f32)> = entries
        .into_iter()
        .map(|(name, tokens, embedding, usage)| {
            let score = ALPHA * qe.cosine(embedding)
                + BETA * tokens.keyword_score(&qt)
                + GAMMA * usage.clamp(0.0, 1.0);
            (name, score)
        })
        .collect();
    hits.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(b.0))
    });
    hits.truncate(limit);
    hits.into_iter()
        .map(|(name, score)| SearchHit {
            name: name.to_string(),
            score,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_score_prefers_name_matches() {
        let in_name = keyword_score("matcher", "job-matcher", "assess quality");
        let in_desc = keyword_score("matcher", "ranker", "a matcher of things");
        assert!(in_name > in_desc);
        assert!(in_desc > 0.0);
    }

    #[test]
    fn keyword_score_empty_query_is_zero() {
        assert_eq!(keyword_score("", "a", "b"), 0.0);
    }

    /// Tokenizes `(name, description, embedding, usage)` entries and ranks
    /// them.
    fn rank(
        query: &str,
        entries: &[(&str, &str, &Embedding, f32)],
        limit: usize,
    ) -> Vec<SearchHit> {
        let tokens: Vec<EntryTokens> = entries
            .iter()
            .map(|(name, description, _, _)| EntryTokens::new(name, description))
            .collect();
        rank_entries(
            query,
            entries
                .iter()
                .zip(&tokens)
                .map(|(&(name, _, embedding, usage), tokens)| (name, tokens, embedding, usage)),
            limit,
        )
    }

    #[test]
    fn rank_entries_orders_by_relevance() {
        let matcher = embed_text("assess the match quality between a job seeker profile and jobs");
        let weather = embed_text("report today's weather");
        let entries = [
            ("weather", "report today's weather", &weather, 0.0),
            (
                "job-matcher",
                "assess the match quality between a job seeker profile and jobs",
                &matcher,
                0.0,
            ),
        ];
        let hits = rank("match job seeker to jobs", &entries, 10);
        assert_eq!(hits[0].name, "job-matcher");
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn rank_entries_limit_truncates() {
        let e = embed_text("x");
        let entries = [
            ("a", "x", &e, 0.0),
            ("b", "x", &e, 0.0),
            ("c", "x", &e, 0.0),
        ];
        assert_eq!(rank("x", &entries, 2).len(), 2);
    }

    #[test]
    fn usage_prior_breaks_ties() {
        let e1 = embed_text("summarize text");
        let e2 = embed_text("summarize text");
        let entries = [
            ("cold", "summarize text", &e1, 0.0),
            ("hot", "summarize text", &e2, 1.0),
        ];
        let hits = rank("summarize", &entries, 10);
        assert_eq!(hits[0].name, "hot");
    }

    #[test]
    fn ties_resolve_by_name() {
        let e = embed_text("same");
        let entries = [("b", "same", &e, 0.0), ("a", "same", &e, 0.0)];
        let hits = rank("same", &entries, 10);
        assert_eq!(hits[0].name, "a");
    }
}
