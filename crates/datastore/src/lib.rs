//! # blueprint-datastore
//!
//! The multi-modal enterprise data substrate the blueprint's data registry
//! and data planner operate over (§V-D, §V-G). The paper's YourJourney
//! scenario hosts resume, job-posting, and application data "on several
//! databases (document, relational)" plus a graph title taxonomy; this crate
//! implements those substrates from scratch:
//!
//! * [`relational`] — an in-memory relational engine with a SQL subset
//!   (lexer, parser, executor: scans, filters, projections, inner joins,
//!   aggregates with GROUP BY/HAVING, ORDER BY, LIMIT, DISTINCT) that reads
//!   rows in place, and hash indices for equality and IN-list predicates;
//! * [`document`] — a document store with an inverted index and ranked text
//!   search;
//! * [`graph`] — a property graph with traversal (the title taxonomy of
//!   Fig 7 lives here);
//! * [`kv`] — a key-value store;
//! * [`source`] — the uniform [`DataSource`] interface the data planner
//!   queries, with per-request cost estimation for the optimizer;
//! * [`batch`] — query results as a shared, typed [`RowBatch`] that renders
//!   JSON only on demand, and [`DataValue`], a data plan's value (JSON or a
//!   batch).

pub mod batch;
pub mod document;
pub mod error;
pub mod graph;
pub mod kv;
pub mod relational;
pub mod schema;
pub mod source;
pub mod sql;
pub mod value;

pub use batch::{DataValue, RowBatch};
pub use document::{DocHit, Document, DocumentStore};
pub use error::DataError;
pub use graph::{Edge, Node, PropertyGraph};
pub use kv::KvStore;
pub use relational::{RelationalDb, ResultSet, Table};
pub use schema::{Column, ColumnType, Schema};
pub use source::{
    CostEstimate, DataSource, DocumentSource, FaultInjectedSource, GraphSource, InstrumentedSource,
    KvSource, RelationalSource, SourceQuery, SourceResult,
};
pub use value::{Datum, Row};

/// Result alias for datastore operations.
pub type Result<T> = std::result::Result<T, DataError>;
