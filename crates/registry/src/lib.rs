//! # blueprint-registry
//!
//! The two *touch points* between the compound-AI system and the enterprise
//! (§V-C, §V-D): the **agent registry**, mapping existing models and APIs to
//! agents, and the **data registry**, mapping enterprise data of various
//! modalities at several granularity levels.
//!
//! Both registries store metadata, support keyword and vector search over
//! learned representations (here: deterministic hashed bag-of-words
//! embeddings), and boost rankings from historical usage logs — the
//! "enhanced embeddings" of §V-C.

pub mod agent_registry;
pub mod data_registry;
pub mod embedding;
pub mod error;
pub mod search;

pub use agent_registry::{AgentEntry, AgentRegistry};
pub use data_registry::{DataAsset, DataLevel, DataModality, DataRegistry, DataStats, FieldMeta};
pub use embedding::{embed_text, Embedding, EMBED_DIM};
pub use error::RegistryError;
pub use search::{keyword_score, SearchHit};

/// Result alias for registry operations.
pub type Result<T> = std::result::Result<T, RegistryError>;
