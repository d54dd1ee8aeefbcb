//! The registry's search, bit for bit against the code it replaced.
//!
//! The oracles below are the search functions as they were before a search
//! tokenized its query once and kept each entry's tokens: they tokenize the
//! query and the entry's text again for every entry, and hash each bigram
//! from a formatted `String`. Random specs, usage logs, updates and open
//! breakers must rank to the same hits with the same score bits, and random
//! text must embed to the same bits.

use std::sync::Arc;

use blueprint_agents::{AgentSpec, DataType, ParamSpec};
use blueprint_registry::{embed_text, AgentRegistry, Embedding, SearchHit, EMBED_DIM};
use blueprint_resilience::{BreakerConfig, BreakerRegistry};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

// ── Oracles: the pre-change code ─────────────────────────────────────────

fn fnv1a_oracle(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn tokenize_oracle(text: &str) -> Vec<String> {
    text.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_string)
        .collect()
}

fn embed_text_oracle(text: &str) -> Embedding {
    let tokens = tokenize_oracle(text);
    if tokens.is_empty() {
        return Embedding::zero();
    }
    let mut v = vec![0.0f32; EMBED_DIM];
    let mut add = |feature: &str, weight: f32| {
        let h = fnv1a_oracle(feature.as_bytes());
        let dim = (h % EMBED_DIM as u64) as usize;
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        v[dim] += sign * weight;
    };
    for t in &tokens {
        add(t, 1.0);
    }
    for pair in tokens.windows(2) {
        add(&format!("{}_{}", pair[0], pair[1]), 0.5);
    }
    let norm: f32 = v.iter().map(|a| a * a).sum::<f32>().sqrt();
    if norm > 0.0 {
        for a in &mut v {
            *a /= norm;
        }
    }
    Embedding(v)
}

fn keyword_score_oracle(query: &str, name: &str, description: &str) -> f32 {
    let q = tokenize_oracle(query);
    if q.is_empty() {
        return 0.0;
    }
    let name_tokens = tokenize_oracle(name);
    let desc_tokens = tokenize_oracle(description);
    let mut hits = 0.0f32;
    for t in &q {
        if name_tokens.contains(t) {
            hits += 2.0;
        } else if desc_tokens.contains(t) {
            hits += 1.0;
        }
    }
    hits / (q.len() as f32 * 2.0)
}

fn rank_entries_oracle<'a, I>(query: &str, entries: I, limit: usize) -> Vec<SearchHit>
where
    I: IntoIterator<Item = (&'a str, &'a str, &'a Embedding, f32)>,
{
    const ALPHA: f32 = 0.6;
    const BETA: f32 = 0.3;
    const GAMMA: f32 = 0.1;
    let qe = embed_text_oracle(query);
    let mut hits: Vec<SearchHit> = entries
        .into_iter()
        .map(|(name, description, embedding, usage)| SearchHit {
            name: name.to_string(),
            score: ALPHA * qe.cosine(embedding)
                + BETA * keyword_score_oracle(query, name, description)
                + GAMMA * usage.clamp(0.0, 1.0),
        })
        .collect();
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });
    hits.truncate(limit);
    hits
}

/// `AgentRegistry::search` as it was: every entry's snapshot, breakers
/// consulted per entry, the usage prior normalized over all entries.
fn search_oracle(
    registry: &AgentRegistry,
    breakers: &BreakerRegistry,
    query: &str,
    limit: usize,
) -> Vec<SearchHit> {
    let entries: Vec<_> = registry
        .list()
        .iter()
        .map(|name| registry.get(name).unwrap())
        .collect();
    let max_usage = entries
        .iter()
        .map(|e| e.usage_count)
        .max()
        .unwrap_or(0)
        .max(1) as f32;
    rank_entries_oracle(
        query,
        entries
            .iter()
            .filter(|e| !breakers.is_open(&e.spec.name))
            .map(|e| {
                (
                    e.spec.name.as_str(),
                    e.spec.description.as_str(),
                    &e.embedding,
                    e.usage_count as f32 / max_usage,
                )
            }),
        limit,
    )
}

// ── Generators ───────────────────────────────────────────────────────────

/// Words in mixed case, with digits and non-ASCII letters (some of whose
/// lowercase differs in length or splits into a non-alphanumeric mark).
const WORDS: &[&str] = &[
    "match",
    "Match",
    "JOB",
    "jobs",
    "seeker",
    "profile",
    "data",
    "Scientist",
    "rank",
    "applicants",
    "sql",
    "query",
    "summarize",
    "résumé",
    "RÉSUMÉ",
    "İstanbul",
    "ΣΟΦΙΑ",
    "σοφια",
    "naïve",
    "Straße",
    "東京",
    "x1",
    "42",
    "😀",
];

/// Separators: whitespace, punctuation, and characters that are neither.
const SEPARATORS: &[&str] = &[
    " ", " ", ", ", "-", "_", "'", "!", "...", "\t", "/", " — ", "",
];

fn arb_text(rng: &mut TestRng) -> String {
    let mut text = String::new();
    for _ in 0..rng.below(10) {
        text.push_str(WORDS[rng.below(WORDS.len() as u64) as usize]);
        text.push_str(SEPARATORS[rng.below(SEPARATORS.len() as u64) as usize]);
    }
    text
}

fn spec(name: &str, description: &str) -> AgentSpec {
    AgentSpec::new(name, description)
        .with_input(ParamSpec::required("input", "input", DataType::Any))
        .with_output(ParamSpec::required("output", "output", DataType::Any))
}

/// One change to a registry.
#[derive(Debug, Clone)]
enum Op {
    Update(usize, String),
    RecordUsage(usize, String),
    TripBreaker(usize),
    HalfOpen(usize),
}

/// Agents (name words plus an index, so names are unique), a sequence of
/// changes, and the queries to run after each change.
#[derive(Debug, Clone)]
struct Scenario {
    agents: Vec<(String, String)>,
    ops: Vec<Op>,
    queries: Vec<(String, usize)>,
}

struct ArbScenario;

impl Strategy for ArbScenario {
    type Value = Scenario;
    fn new_value(&self, rng: &mut TestRng) -> Scenario {
        let n = 1 + rng.below(10) as usize;
        let agents = (0..n)
            .map(|i| {
                let word = WORDS[rng.below(WORDS.len() as u64) as usize];
                (format!("{word}-{i}"), arb_text(rng))
            })
            .collect();
        let ops = (0..rng.below(16))
            .map(|_| {
                let agent = rng.below(n as u64) as usize;
                match rng.below(4) {
                    0 => Op::Update(agent, arb_text(rng)),
                    1 => Op::RecordUsage(agent, arb_text(rng)),
                    2 => Op::TripBreaker(agent),
                    _ => Op::HalfOpen(agent),
                }
            })
            .collect();
        let queries = (0..3)
            .map(|_| {
                let limit = match rng.below(4) {
                    0 => 0,
                    1 => 1,
                    2 => 8,
                    _ => n + 2,
                };
                (arb_text(rng), limit)
            })
            .collect();
        Scenario {
            agents,
            ops,
            queries,
        }
    }
}

/// Hits as `(name, score bits)`, so equal means bit for bit.
fn bitwise(hits: Vec<SearchHit>) -> Vec<(String, u32)> {
    hits.into_iter()
        .map(|h| (h.name, h.score.to_bits()))
        .collect()
}

proptest! {
    #[test]
    fn agent_search_equals_the_retokenizing_oracle(scenario in ArbScenario) {
        let registry = AgentRegistry::new();
        let breakers = Arc::new(BreakerRegistry::new(BreakerConfig {
            min_samples: 2,
            ..BreakerConfig::default()
        }));
        registry.set_breakers(Arc::clone(&breakers));
        for (name, description) in &scenario.agents {
            registry.register(spec(name, description)).unwrap();
        }
        let check = |registry: &AgentRegistry| -> Result<(), TestCaseError> {
            for (query, limit) in &scenario.queries {
                prop_assert_eq!(
                    bitwise(registry.search(query, *limit)),
                    bitwise(search_oracle(registry, &breakers, query, *limit)),
                    "query {:?}, limit {}", query, limit
                );
            }
            Ok(())
        };
        check(&registry)?;
        for op in &scenario.ops {
            match op {
                Op::Update(i, description) => {
                    registry.update(spec(&scenario.agents[*i].0, description)).unwrap();
                }
                Op::RecordUsage(i, query) => {
                    registry.record_usage(&scenario.agents[*i].0, query).unwrap();
                }
                Op::TripBreaker(i) => {
                    breakers.record(&scenario.agents[*i].0, false, 0);
                    breakers.record(&scenario.agents[*i].0, false, 0);
                }
                Op::HalfOpen(i) => {
                    breakers.allow(&scenario.agents[*i].0, u64::MAX / 2);
                }
            }
            check(&registry)?;
        }
    }

    #[test]
    fn embed_text_equals_the_formatting_oracle(text in ArbText) {
        let bits = |e: Embedding| e.0.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(embed_text(&text)), bits(embed_text_oracle(&text)), "text {:?}", text);
    }
}

/// Random text of `WORDS` and `SEPARATORS`, or of arbitrary characters.
struct ArbText;

impl Strategy for ArbText {
    type Value = String;
    fn new_value(&self, rng: &mut TestRng) -> String {
        if rng.chance(0.5) {
            return arb_text(rng);
        }
        (0..rng.below(24))
            .filter_map(|_| {
                let limit = if rng.chance(0.7) { 0x80 } else { 0x11_0000 };
                char::from_u32(rng.below(limit) as u32)
            })
            .collect()
    }
}

#[test]
fn keyword_score_equals_the_oracle_on_fixed_text() {
    let cases = [
        ("matcher", "job-matcher", "assess quality"),
        (
            "Match my JOB profile",
            "job-matcher",
            "a matcher of jobs, profiles",
        ),
        ("", "a", "b"),
        ("résumé İstanbul", "RÉSUMÉ-parser", "i̇stanbul offices"),
    ];
    for (query, name, description) in cases {
        assert_eq!(
            blueprint_registry::keyword_score(query, name, description).to_bits(),
            keyword_score_oracle(query, name, description).to_bits(),
            "{query:?}"
        );
    }
}
