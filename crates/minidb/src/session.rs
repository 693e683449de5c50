//! Sessions: short-lived handles over one [`Database`] with state of their
//! own.
//!
//! A session holds private `TEMP` tables, private UDF bindings and the
//! planning settings its statements run under. Names resolve in the
//! session first, then in the database's shared catalog and UDF registry,
//! so concurrent sessions can use the same temp-table and UDF names
//! without seeing each other. Its private tables (and their cached
//! statistics) are dropped with it.
//!
//! ```
//! use minidb::Database;
//! let db = Database::new();
//! db.execute("CREATE TABLE t (k Int64)").unwrap();
//! db.execute("INSERT INTO t VALUES (1), (2), (2)").unwrap();
//! let session = db.session();
//! session.execute("CREATE TEMP TABLE d AS SELECT k FROM t GROUP BY k").unwrap();
//! let n = session.execute("SELECT count(*) FROM d").unwrap();
//! assert_eq!(n.table().column(0).i64_at(0), 2);
//! assert!(db.catalog().table("d").is_none(), "TEMP tables stay private");
//! ```

use std::sync::Arc;

use crate::catalog::Catalog;
use crate::cost::{CostModel, DefaultCostModel};
use crate::db::{Database, Env, QueryResult, Trace};
use crate::error::Result;
use crate::optimizer::OptimizerConfig;
use crate::plan::logical::LogicalPlan;
use crate::sql::ast::{Query, Statement};
use crate::table::Table;
use crate::udf::{ScalarUdf, UdfRegistry};

/// How statements are planned: the optimizer's rules and the cost model
/// that chooses between plans. A database is built with one (see
/// [`DatabaseBuilder`](crate::DatabaseBuilder)); a session may carry
/// another.
#[derive(Clone)]
pub struct PlanSettings {
    pub optimizer: OptimizerConfig,
    pub cost_model: Arc<dyn CostModel>,
}

impl Default for PlanSettings {
    fn default() -> Self {
        PlanSettings {
            optimizer: OptimizerConfig::default(),
            cost_model: Arc::new(DefaultCostModel::default()),
        }
    }
}

/// A short-lived handle over one [`Database`]; see the module docs.
/// Obtained from [`Database::session`] or [`Database::session_with`].
pub struct Session<'db> {
    db: &'db Database,
    catalog: Catalog,
    udfs: UdfRegistry,
    settings: PlanSettings,
}

impl<'db> Session<'db> {
    pub(crate) fn new(
        db: &'db Database,
        catalog: Arc<Catalog>,
        udfs: Arc<UdfRegistry>,
        settings: PlanSettings,
    ) -> Self {
        Session {
            db,
            catalog: Catalog::layer_over(catalog),
            udfs: UdfRegistry::layer_over(udfs),
            settings,
        }
    }

    /// The session's catalog. Lookups fall through to the shared catalog;
    /// tables created here are private to the session.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Binds a UDF for this session only, shadowing any shared binding of
    /// the same name.
    pub fn bind_udf(&self, udf: ScalarUdf) {
        self.udfs.register(udf);
    }

    /// The settings the session's statements plan under.
    pub fn settings(&self) -> &PlanSettings {
        &self.settings
    }

    fn env(&self) -> Env<'_> {
        Env { catalog: &self.catalog, udfs: &self.udfs, settings: &self.settings }
    }

    /// Parses and executes one statement (sessions bypass the database's
    /// plan cache: their names and settings are their own).
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.db.execute_in(&self.env(), sql, false)
    }

    /// Executes a parsed statement, like [`Database::execute_statement`].
    pub fn execute_statement(&self, stmt: &Statement) -> Result<QueryResult> {
        self.db.execute_statement_in(&self.env(), stmt)
    }

    /// Plans, optimizes and executes a SELECT, like
    /// [`Database::run_query`].
    pub fn run_query(&self, q: &Query) -> Result<Table> {
        self.db.query_in(&self.env(), q, Trace::Auto)
    }

    /// Plans and optimizes a SELECT without executing it.
    pub fn plan_query(&self, q: &Query) -> Result<LogicalPlan> {
        self.db.plan_query_spanned(&self.env(), q, obs::SpanId::NONE)
    }

    /// The optimized plan for a SELECT statement, as EXPLAIN text.
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.db.explain_in(&self.env(), sql)
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        // The metrics count distinct counts over the database's lifetime,
        // the session's included.
        self.db.catalog().stats.absorb(&self.catalog.stats);
    }
}
