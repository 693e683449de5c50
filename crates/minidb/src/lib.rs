//! `minidb` — an in-memory columnar SQL engine.
//!
//! This crate is the stand-in for the in-memory ClickHouse deployment in
//! the reproduction of *"A Comparative Study of in-Database Inference
//! Approaches"* (ICDE 2022). It implements the slice of a database system
//! that every experiment in the paper exercises:
//!
//! * typed columnar storage with a catalog of tables and views
//!   ([`table`], [`catalog`]), and sessions with private temp tables, UDF
//!   bindings and planning settings ([`session`]),
//! * a SQL dialect covering the paper's collaborative queries and every
//!   statement the DL2SQL compiler emits ([`sql`]): SELECT with joins
//!   (explicit and implicit), GROUP BY/HAVING, ORDER BY/LIMIT, scalar
//!   subqueries, derived tables, CREATE TEMP TABLE AS, CREATE VIEW,
//!   INSERT, UPDATE, DROP,
//! * a logical planner and a rule/cost-based optimizer with a **pluggable
//!   cost model** ([`plan`], [`optimizer`]) — the hook through which the
//!   DL2SQL crate installs the paper's customized cost model (Eq. 3–8),
//! * prepared statements that keep their optimized plan while what it
//!   was planned against holds, and the plan cache that stores one per
//!   SELECT text ([`prepared`]),
//! * a vectorized executor with hash joins, a symmetric hash join with
//!   bucket-level LRU (paper Sec. IV-B), hash aggregation, and
//!   per-operator timing used to reproduce the paper's Fig. 10
//!   ([`exec`]),
//! * scalar user-defined functions with optional selectivity and
//!   per-row-cost metadata ([`udf`]) — the loose-integration strategy's
//!   `nUDF`s and the hint rules both live on this interface.
//!
//! Deliberate non-goals (nothing in the paper's evaluation needs them):
//! NULL semantics, transactions, persistence, and distributed execution.
//!
//! # Quick example
//!
//! ```
//! use minidb::Database;
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE t (id Int64, v Float64)").unwrap();
//! db.execute("INSERT INTO t VALUES (1, 2.5), (2, 4.5)").unwrap();
//! let out = db.execute("SELECT SUM(v) AS total FROM t WHERE id >= 1").unwrap();
//! assert_eq!(out.table().column(0).f64_at(0), 7.0);
//! ```

pub mod catalog;
pub mod column;
pub mod cost;
pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub mod hash;
pub mod optimizer;
pub mod plan;
pub mod prepared;
pub mod session;
pub mod sql;
pub mod stats;
pub mod table;
pub mod udf;
pub mod value;

pub use catalog::Catalog;
pub use column::Column;
pub use cost::{parallel_discount, CostContext, CostModel, DefaultCostModel, PlanCost};
pub use db::{Database, DatabaseBuilder, PreparedQuery, QueryResult};
pub use error::{Error, Result};
pub use exec::{OpCounters, OperatorKind};
pub use govern::{CancelToken, QueryError};
pub use prepared::PreparedStatement;
pub use session::{PlanSettings, Session};
pub use table::{Field, Schema, Table};
pub use udf::{ScalarUdf, UdfRegistry};
pub use value::{Blob, DataType, Value, WeakBlob};
