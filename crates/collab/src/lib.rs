//! `collab` — collaborative query processing.
//!
//! A *collaborative query* combines relational predicates (`Q_db`) with
//! neural inference calls (`Q_learning`, written as `nUDF_*` functions).
//! This crate implements the paper's three processing strategies behind
//! one [`Strategy`] interface, over the same database and model
//! repository, so they are directly comparable:
//!
//! * [`independent`] — **DB-PyTorch**: an application layer splits the
//!   query, ships intermediate results to a DL-serving component over a
//!   real byte channel (serialization and cross-system I/O included), and
//!   recombines,
//! * [`loose`] — **DB-UDF**: models are compiled to binaries and linked
//!   into the database as scalar UDFs; the query runs entirely in the
//!   database but the UDF is a black box to the optimizer,
//! * [`tight`] — **DL2SQL / DL2SQL-OP**: inference itself is SQL over
//!   relational tables; under DL2SQL-OP's settings, the customized cost
//!   model and the hint rules of paper Sec. IV-B are active.
//!
//! [`query`] classifies collaborative queries into the paper's Types 1–4
//! (Table I); [`metrics`] carries the loading/inference/relational cost
//! breakdown every experiment reports.

pub mod cache;
pub mod engine;
pub mod error;
pub mod independent;
pub mod loose;
pub mod metrics;
pub mod nudf;
pub mod query;
pub mod tight;

pub use cache::{InferenceCache, InferenceKey};
pub use engine::{CollabEngine, PreparedCollabQuery, StrategyKind};
pub use error::{Error, Result};
pub use metrics::{CacheActivity, CostBreakdown, StrategyOutcome};
pub use nudf::{
    blob_to_tensor, tensor_to_blob, ConditionalVariant, ModelRepo, NudfOutput, NudfSpec,
};
pub use query::{classify_query, classify_sql, QueryType};

/// The strategy interface all three implementations share.
pub trait Strategy {
    /// Display name ("DB-PyTorch", "DB-UDF", "DL2SQL", "DL2SQL-OP").
    fn name(&self) -> &'static str;

    /// Executes an already-parsed collaborative query, returning the
    /// result table and the cost breakdown. This is the primitive the
    /// repeated-execution paths ([`CollabEngine::prepare`], the bench
    /// harnesses) call so the SQL text is parsed exactly once.
    fn execute_query(&self, q: &minidb::sql::ast::Query) -> Result<StrategyOutcome>;

    /// Parses `sql` and delegates to [`Strategy::execute_query`].
    fn execute(&self, sql: &str) -> Result<StrategyOutcome> {
        let minidb::sql::ast::Statement::Query(q) = minidb::sql::parser::parse_statement(sql)?
        else {
            return Err(Error::Coordinator("collaborative queries are SELECT statements".into()));
        };
        self.execute_query(&q)
    }
}
