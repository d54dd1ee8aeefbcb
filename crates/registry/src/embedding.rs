//! Deterministic learned-representation stand-in: hashed bag-of-words
//! embeddings.
//!
//! The paper's registries search over "learned representations derived from
//! metadata and logs" (§V-C). A production deployment would use a trained
//! text encoder; this reproduction substitutes a deterministic feature
//! hashing encoder (random-sign token hashing into a fixed-dimension space,
//! L2-normalized). It preserves the property the architecture relies on —
//! texts sharing vocabulary land near each other under cosine similarity —
//! while keeping every test reproducible without model weights.

use serde::{Deserialize, Serialize};

/// Dimensionality of the embedding space.
pub const EMBED_DIM: usize = 128;

/// A dense vector representation of a text (L2-normalized unless zero).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Embedding(pub Vec<f32>);

impl Embedding {
    /// The all-zeros embedding (empty text).
    pub fn zero() -> Self {
        Embedding(vec![0.0; EMBED_DIM])
    }

    /// Cosine similarity in `[-1, 1]`; zero vectors yield 0.
    pub fn cosine(&self, other: &Embedding) -> f32 {
        let dot: f32 = self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum();
        let na: f32 = self.0.iter().map(|a| a * a).sum::<f32>().sqrt();
        let nb: f32 = other.0.iter().map(|b| b * b).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    /// Weighted average of embeddings, renormalized. Used to fold usage
    /// logs into an entry's representation (the paper's "enhanced
    /// embeddings"). Returns zero when all weights are zero.
    pub fn blend<'a>(parts: impl IntoIterator<Item = (&'a Embedding, f32)>) -> Embedding {
        let mut acc = vec![0.0f32; EMBED_DIM];
        let mut total = 0.0f32;
        for (e, w) in parts {
            if w <= 0.0 {
                continue;
            }
            for (a, b) in acc.iter_mut().zip(&e.0) {
                *a += b * w;
            }
            total += w;
        }
        if total == 0.0 {
            return Embedding::zero();
        }
        let norm: f32 = acc.iter().map(|a| a * a).sum::<f32>().sqrt();
        if norm > 0.0 {
            for a in &mut acc {
                *a /= norm;
            }
        }
        Embedding(acc)
    }

    fn normalize(mut self) -> Self {
        let norm: f32 = self.0.iter().map(|a| a * a).sum::<f32>().sqrt();
        if norm > 0.0 {
            for a in &mut self.0 {
                *a /= norm;
            }
        }
        self
    }
}

/// FNV-1a 64-bit offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends an FNV-1a 64-bit hash with `bytes`: stable across platforms and
/// runs. Hashing `a` then `b` equals hashing their concatenation.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Splits text into lowercase alphanumeric tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    tokens(&text.to_lowercase()).map(str::to_string).collect()
}

/// The tokens of already lowercased text.
fn tokens(lower: &str) -> impl Iterator<Item = &str> {
    lower
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
}

/// Embeds a text via signed feature hashing of its unigrams and bigrams
/// (a bigram is hashed as `first_second`). All unigrams are added before
/// the bigrams, so every dimension sums its terms in one fixed order.
pub fn embed_text(text: &str) -> Embedding {
    let lower = text.to_lowercase();
    if tokens(&lower).next().is_none() {
        return Embedding::zero();
    }
    let mut v = vec![0.0f32; EMBED_DIM];
    let mut add = |h: u64, weight: f32| {
        let dim = (h % EMBED_DIM as u64) as usize;
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        v[dim] += sign * weight;
    };
    for t in tokens(&lower) {
        add(fnv1a(FNV_OFFSET, t.as_bytes()), 1.0);
    }
    for (first, second) in tokens(&lower).zip(tokens(&lower).skip(1)) {
        let h = fnv1a(fnv1a(FNV_OFFSET, first.as_bytes()), b"_");
        add(fnv1a(h, second.as_bytes()), 0.5);
    }
    Embedding(v).normalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedding_is_deterministic() {
        let a = embed_text("match job seekers to jobs");
        let b = embed_text("match job seekers to jobs");
        assert_eq!(a, b);
    }

    #[test]
    fn embeddings_are_normalized() {
        let e = embed_text("data scientist positions in the bay area");
        let norm: f32 = e.0.iter().map(|a| a * a).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_text_is_zero() {
        let e = embed_text("  ... !!");
        assert_eq!(e, Embedding::zero());
        assert_eq!(e.cosine(&embed_text("anything")), 0.0);
    }

    #[test]
    fn shared_vocabulary_scores_higher() {
        let query = embed_text("match candidates to job postings");
        let matcher = embed_text("assess match quality between a profile and job postings");
        let weather = embed_text("forecast tomorrow's weather and temperature");
        assert!(query.cosine(&matcher) > query.cosine(&weather));
    }

    #[test]
    fn identical_texts_have_cosine_one() {
        let e = embed_text("profile extraction");
        assert!((e.cosine(&e) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn tokenize_strips_punctuation_and_cases() {
        assert_eq!(
            tokenize("I'm looking for Data-Scientist roles!"),
            ["i", "m", "looking", "for", "data", "scientist", "roles"]
        );
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn blend_weights_pull_toward_heavier_part() {
        let a = embed_text("relational query execution engine");
        let b = embed_text("summarize candidate resumes");
        let blended = Embedding::blend([(&a, 3.0), (&b, 1.0)]);
        assert!(blended.cosine(&a) > blended.cosine(&b));
    }

    #[test]
    fn blend_ignores_nonpositive_weights() {
        let a = embed_text("alpha beta");
        let blended = Embedding::blend([(&a, 1.0), (&embed_text("noise"), -5.0)]);
        assert!((blended.cosine(&a) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn blend_all_zero_weights_is_zero() {
        let a = embed_text("alpha");
        assert_eq!(Embedding::blend([(&a, 0.0)]), Embedding::zero());
        assert_eq!(Embedding::blend([]), Embedding::zero());
    }

    #[test]
    fn bigram_order_matters() {
        let ab = embed_text("new york");
        let ba = embed_text("york new");
        // Same unigrams, different bigrams — similar but not identical.
        let cos = ab.cosine(&ba);
        assert!(cos > 0.5 && cos < 0.9999);
    }
}
