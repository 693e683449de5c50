//! The database facade: parse → plan → optimize → execute.

use std::sync::Arc;

use parking_lot::RwLock;

use crate::catalog::Catalog;
use crate::column::Column;
use crate::cost::{CostContext, CostModel, PlanCost};
use crate::error::{Error, Result};
use crate::exec::{self, ExecConfig, ExecContext, KeyPath, OpCounters, OperatorKind};
use crate::expr::EvalContext;
use crate::optimizer::{Optimizer, OptimizerConfig};
use crate::plan::logical::LogicalPlan;
use crate::plan::planner::Planner;
use crate::prepared::{Dependencies, KeptPlan, PreparedStatement};
use crate::session::{PlanSettings, Session};
use crate::sql::ast::{ObjectKind, Query, Statement};
use crate::sql::{lexer, parser};
use crate::table::{Field, Schema, Table};
use crate::udf::{ScalarUdf, UdfRegistry};

/// Result of executing one statement.
#[derive(Debug, Clone)]
pub struct QueryResult {
    table: Table,
    rows_affected: usize,
    elapsed: std::time::Duration,
    rows_scanned: u64,
    plan_cache: cachekit::StatsSnapshot,
    trace: Option<Arc<obs::SpanTree>>,
}

impl QueryResult {
    fn of(table: Table, rows_affected: usize) -> Self {
        QueryResult {
            table,
            rows_affected,
            elapsed: std::time::Duration::ZERO,
            rows_scanned: 0,
            plan_cache: cachekit::StatsSnapshot::default(),
            trace: None,
        }
    }

    /// A result whose rows are the table's rows (SELECT, EXPLAIN).
    fn of_table(table: Table) -> Self {
        let rows = table.num_rows();
        QueryResult::of(table, rows)
    }

    /// The result table (empty for DML/DDL statements).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Consumes the result, returning the table.
    pub fn into_table(self) -> Table {
        self.table
    }

    /// Rows returned (SELECT) or modified (DML).
    pub fn rows_affected(&self) -> usize {
        self.rows_affected
    }

    /// Output column names, in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.table.schema().fields().iter().map(|f| f.name.as_str()).collect()
    }

    /// Output column types, in order.
    pub fn column_types(&self) -> Vec<crate::value::DataType> {
        self.table.schema().fields().iter().map(|f| f.data_type).collect()
    }

    /// Wall-clock time of the statement, from the call that ran it to its
    /// result: whatever that call did of parse, plan lookup, plan and
    /// execute (a prepared statement is not parsed again; a reused plan
    /// skips planning). The latency histogram and the slow-query threshold
    /// measure the same span.
    pub fn elapsed(&self) -> std::time::Duration {
        self.elapsed
    }

    /// Base-table rows read by this statement's Scan operators. Scalar
    /// subqueries evaluated while planning and statements a UDF issues run
    /// as statements of their own and are not included.
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned
    }

    /// Whether this statement reused a kept plan: a SELECT text the plan
    /// cache holds, or a prepared statement, whose plan still holds (see
    /// [`PreparedStatement`]).
    pub fn plan_cache_hit(&self) -> bool {
        self.plan_cache.hits > 0
    }

    /// This statement's own plan lookup: one hit, one miss, or nothing (a
    /// statement with no plan to keep, or one neither prepared nor stored
    /// in the plan cache).
    pub fn plan_cache_stats(&self) -> cachekit::StatsSnapshot {
        self.plan_cache
    }

    /// The statement's span tree, present when it was traced: the
    /// collector was enabled, a slow-query threshold was armed, or the
    /// statement was `EXPLAIN ANALYZE`.
    pub fn trace(&self) -> Option<&obs::SpanTree> {
        self.trace.as_deref()
    }

    /// A one-line human summary ("3 rows in 1.24 ms, 12 rows scanned").
    pub fn summary(&self) -> String {
        format!(
            "{} row{} in {:.2} ms, {} row{} scanned",
            self.rows_affected,
            if self.rows_affected == 1 { "" } else { "s" },
            self.elapsed.as_secs_f64() * 1e3,
            self.rows_scanned,
            if self.rows_scanned == 1 { "" } else { "s" },
        )
    }
}

/// Callback invoked with the span tree of a statement that exceeded
/// [`ExecConfig::slow_query_threshold`].
pub type SlowQueryHook = Arc<dyn Fn(&obs::SpanTree) + Send + Sync>;

/// One statement's own state, built by [`Database::run_statement`] and
/// borrowed down to the executor: the executor configuration it runs
/// under, its governance checkpoint, its operator counters (which give the
/// result's scan count and are added into the database totals when the
/// statement ends), its plan lookup and its root span (`NONE` when
/// untraced).
struct StmtScope {
    config: ExecConfig,
    governor: govern::Governor,
    ops: OpCounters,
    plan_lookup: cachekit::CacheStats,
    root: obs::SpanId,
}

/// Whether a statement records a span tree of its own.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Trace {
    /// When the collector is on or a slow-query threshold is armed.
    Auto,
    /// Always: `EXPLAIN ANALYZE` returns the tree it records.
    Analyze,
    /// Never: scalar subqueries evaluated while planning, whose
    /// operators the enclosing statement does not nest.
    Off,
}

impl Trace {
    fn of(stmt: &Statement) -> Trace {
        if matches!(stmt, Statement::ExplainAnalyze(_)) {
            Trace::Analyze
        } else {
            Trace::Auto
        }
    }

    /// [`Trace::of`] the statement `sql` parses to, read off its first
    /// two keywords (the plan-cache path runs before any parse).
    fn of_sql(sql: &str) -> Trace {
        if lexer::starts_with_keywords(sql, &["explain", "analyze"]) {
            Trace::Analyze
        } else {
            Trace::Auto
        }
    }
}

/// What one statement resolves names in and plans under: the database's
/// own catalog, UDFs and settings, or a session's layers over them.
pub(crate) struct Env<'a> {
    pub(crate) catalog: &'a Catalog,
    pub(crate) udfs: &'a UdfRegistry,
    pub(crate) settings: &'a PlanSettings,
}

/// An in-memory SQL database instance.
pub struct Database {
    catalog: Arc<Catalog>,
    udfs: Arc<UdfRegistry>,
    /// Operator counters over the database's lifetime: each statement's
    /// own table is added in when it ends. Exported by
    /// [`Database::metrics_snapshot`].
    ops: OpCounters,
    /// Hits and misses of the plan lookups of prepared statements, the
    /// plan cache's included (a plan that no longer holds, or none kept
    /// yet, counts as a miss).
    plan_lookups: cachekit::CacheStats,
    exec_config: RwLock<ExecConfig>,
    /// The planning settings of statements run on the database itself
    /// and of sessions opened without their own.
    settings: PlanSettings,
    /// SELECT text → the prepared statement that [`Database::execute`] and
    /// [`Session::execute`] run it as, whose kept plans each check their
    /// own dependencies.
    plan_cache: cachekit::LruCache<String, Arc<PreparedStatement>>,
    /// Bumped when the executor configuration is swapped: parallelism
    /// feeds the cost model, so it can change which plan is best. Every
    /// kept plan checks it.
    config_epoch: cachekit::Epoch,
    /// Span collector for parse/plan/execute tracing. Disabled by default;
    /// when off the only cost per statement is a few atomic loads.
    tracer: obs::Collector,
    /// Fired with the span tree of any statement slower than
    /// [`ExecConfig::slow_query_threshold`].
    slow_query_hook: RwLock<SlowQueryHook>,
    /// Per-statement wall-time distribution, exported by
    /// [`Database::metrics_snapshot`].
    query_latency: obs::Histogram,
    /// Session-wide cancel handle, created lazily on the first
    /// [`Database::cancel_handle`] call so the common case (nobody
    /// listening) keeps the unarmed governor fast path.
    session_token: std::sync::OnceLock<govern::CancelToken>,
    /// Shared memory-budget tracker, present when
    /// [`ExecConfig::memory_budget`] is non-zero. Rebuilt on
    /// [`Database::swap_exec_config`].
    memory_budget: RwLock<Option<Arc<govern::MemoryBudget>>>,
    /// Statements that returned an error (any cause).
    query_failures: std::sync::atomic::AtomicU64,
    /// Failure counts by governance cause, exported by
    /// [`Database::metrics_snapshot`].
    gov_cancellations: std::sync::atomic::AtomicU64,
    gov_timeouts: std::sync::atomic::AtomicU64,
    gov_budget_rejections: std::sync::atomic::AtomicU64,
    gov_worker_panics: std::sync::atomic::AtomicU64,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

/// Construction-time configuration for a [`Database`].
///
/// ```
/// use minidb::Database;
/// let db = Database::builder().parallelism(4).build();
/// # let _ = db;
/// ```
#[derive(Default)]
pub struct DatabaseBuilder {
    exec_config: ExecConfig,
    settings: PlanSettings,
}

impl DatabaseBuilder {
    /// Replaces the executor configuration wholesale (`parallelism`
    /// clamped to at least 1).
    pub fn exec_config(mut self, config: ExecConfig) -> Self {
        self.exec_config = ExecConfig { parallelism: config.parallelism.max(1), ..config };
        self
    }

    /// Replaces the optimizer configuration.
    pub fn optimizer_config(mut self, config: OptimizerConfig) -> Self {
        self.settings.optimizer = config;
        self
    }

    /// Installs a cost model.
    pub fn cost_model(mut self, model: Arc<dyn CostModel>) -> Self {
        self.settings.cost_model = model;
        self
    }

    /// Worker threads for the range-driven operators (`1` = one range per
    /// operator, in row order). Clamped to at least 1.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.exec_config.parallelism = workers.max(1);
        self
    }

    /// SELECT texts the plan cache stores; `0` disables it.
    pub fn plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.exec_config.plan_cache_capacity = capacity;
        self
    }

    /// Wall-clock deadline per statement; exceeding it aborts the query
    /// with [`govern::QueryError::TimedOut`]. `None` disables the check.
    pub fn query_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.exec_config.query_timeout = Some(timeout);
        self
    }

    /// Byte budget shared by all memory-intensive operators (hash-join
    /// builds, group-by tables, fused accumulators). `0` disables
    /// enforcement.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.exec_config.memory_budget = bytes;
        self
    }

    /// Builds the database.
    pub fn build(self) -> Database {
        let plan_cache = cachekit::LruCache::new(self.exec_config.plan_cache_capacity);
        let default_hook: Arc<dyn Fn(&obs::SpanTree) + Send + Sync> =
            Arc::new(|tree: &obs::SpanTree| {
                eprintln!("[minidb] slow query:\n{}", tree.render());
            });
        let memory_budget = Database::build_budget(&self.exec_config);
        Database {
            catalog: Arc::new(Catalog::new()),
            udfs: Arc::new(UdfRegistry::new()),
            ops: OpCounters::default(),
            plan_lookups: cachekit::CacheStats::default(),
            exec_config: RwLock::new(self.exec_config),
            settings: self.settings,
            plan_cache,
            config_epoch: cachekit::Epoch::new(),
            tracer: obs::Collector::new(),
            slow_query_hook: RwLock::new(default_hook),
            query_latency: obs::Histogram::new(&[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0]),
            session_token: std::sync::OnceLock::new(),
            memory_budget: RwLock::new(memory_budget),
            query_failures: std::sync::atomic::AtomicU64::new(0),
            gov_cancellations: std::sync::atomic::AtomicU64::new(0),
            gov_timeouts: std::sync::atomic::AtomicU64::new(0),
            gov_budget_rejections: std::sync::atomic::AtomicU64::new(0),
            gov_worker_panics: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

/// A one-column `plan` table, one row per line: the result of `EXPLAIN`
/// and `EXPLAIN ANALYZE`.
fn plan_table(lines: Vec<String>) -> Result<Table> {
    let schema = Schema::new(vec![Field::new("plan", crate::value::DataType::Utf8)]);
    Table::new(schema, vec![Column::Utf8(lines)])
}

impl Database {
    /// A fresh database with the default cost model and optimizer config.
    pub fn new() -> Self {
        Database::builder().build()
    }

    /// Starts configuring a database (executor, optimizer, cost model,
    /// parallelism).
    pub fn builder() -> DatabaseBuilder {
        DatabaseBuilder::default()
    }

    /// The catalog (to create tables programmatically).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The UDF registry.
    pub fn udfs(&self) -> &UdfRegistry {
        &self.udfs
    }

    /// Registers a scalar UDF (convenience for `udfs().register`).
    pub fn register_udf(&self, udf: ScalarUdf) {
        self.udfs.register(udf);
    }

    /// Plan-cache counters since the database was built: the plan lookups
    /// of prepared statements, the SELECTs [`execute`](Self::execute)
    /// runs from the plan cache included (a plan that no longer holds
    /// counts as a miss), and the cache's capacity evictions.
    pub fn plan_cache_stats(&self) -> cachekit::StatsSnapshot {
        let evictions = self.plan_cache.stats().evictions;
        cachekit::StatsSnapshot { evictions, ..self.plan_lookups.snapshot() }
    }

    /// The planning settings the builder gave the database: statements run
    /// on it, and sessions opened with [`session`](Self::session), plan
    /// under these.
    pub fn settings(&self) -> &PlanSettings {
        &self.settings
    }

    /// Opens a session under the database's own planning settings.
    pub fn session(&self) -> Session<'_> {
        self.session_with(self.settings.clone())
    }

    /// Opens a session whose statements plan under `settings`.
    pub fn session_with(&self, settings: PlanSettings) -> Session<'_> {
        Session::new(self, Arc::clone(&self.catalog), Arc::clone(&self.udfs), settings)
    }

    /// The database's own names and settings.
    fn env(&self) -> Env<'_> {
        Env { catalog: &self.catalog, udfs: &self.udfs, settings: &self.settings }
    }

    /// Replaces the executor configuration mid-session, returning the
    /// previous one (`parallelism` clamped to at least 1). Invalidates
    /// every kept plan (parallelism feeds the cost model) and applies the
    /// new plan-cache capacity.
    pub fn swap_exec_config(&self, config: ExecConfig) -> ExecConfig {
        let config = ExecConfig { parallelism: config.parallelism.max(1), ..config };
        self.config_epoch.bump();
        self.plan_cache.set_capacity(config.plan_cache_capacity);
        *self.memory_budget.write() = Database::build_budget(&config);
        std::mem::replace(&mut *self.exec_config.write(), config)
    }

    fn build_budget(config: &ExecConfig) -> Option<Arc<govern::MemoryBudget>> {
        (config.memory_budget > 0)
            .then(|| Arc::new(govern::MemoryBudget::new(config.memory_budget)))
    }

    /// The session-wide cancel handle. Cancelling it makes every running
    /// and subsequent statement on this database fail with
    /// [`govern::QueryError::Canceled`] until
    /// [`reset`](govern::CancelToken::reset) is called.
    pub fn cancel_handle(&self) -> govern::CancelToken {
        self.session_token.get_or_init(govern::CancelToken::new).clone()
    }

    /// Errors with [`govern::QueryError::Canceled`] when the session
    /// cancel handle is set. Layers above statement granularity (the
    /// multi-step DL2SQL runner) call this between steps.
    pub fn check_canceled(&self) -> Result<()> {
        match self.session_token.get() {
            Some(token) if token.is_canceled() => {
                // A rejection here aborts work that never reaches the
                // statement machinery; count it so metrics agree with
                // what callers observe.
                self.gov_cancellations.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Err(Error::Governance(govern::QueryError::Canceled))
            }
            _ => Ok(()),
        }
    }

    /// The shared memory-budget tracker, when one is configured.
    pub fn memory_budget(&self) -> Option<Arc<govern::MemoryBudget>> {
        self.memory_budget.read().clone()
    }

    /// The current executor configuration.
    pub fn exec_config(&self) -> ExecConfig {
        self.exec_config.read().clone()
    }

    // ------------------------------------------------------------------
    // statement execution
    // ------------------------------------------------------------------

    /// Parses and executes a single SQL statement. A SELECT text is
    /// stored in the plan cache as a [`PreparedStatement`]: running it
    /// again skips parse, and skips planning while its kept plan holds.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_in(&self.env(), sql)
    }

    pub(crate) fn execute_in(&self, env: &Env<'_>, sql: &str) -> Result<QueryResult> {
        self.run_statement(None, Trace::of_sql(sql), |scope| {
            let prepared = match self.plan_cache.get(sql) {
                Some(prepared) => prepared,
                None => {
                    let stmt = self.parse_spanned(sql, scope.root)?;
                    if !matches!(stmt, Statement::Query(_)) || self.plan_cache.capacity() == 0 {
                        return self.execute_statement_inner(env, &stmt, None, scope);
                    }
                    let prepared = Arc::new(PreparedStatement::new(stmt));
                    self.plan_cache.insert(sql.to_string(), Arc::clone(&prepared));
                    prepared
                }
            };
            self.execute_statement_inner(env, prepared.statement(), Some(&prepared), scope)
        })
    }

    /// Runs one statement. Every entry point (`execute`,
    /// `execute_statement`, `run_query`, `execute_plan`,
    /// `PreparedQuery::run` and their `Session` forms, and
    /// `Session::execute_prepared`) is one call to this,
    /// so each statement is scoped, traced and accounted for alike.
    ///
    /// `body` runs under the statement's scope: the current executor
    /// configuration, fresh operator counters, a governor over `token`
    /// (else the database's cancel handle, if anyone holds it) with the
    /// [`ExecConfig::query_timeout`] deadline, and a root span as `trace`
    /// asks. The governor is unarmed — a single-branch no-op per check —
    /// when neither a token nor a deadline is configured. Then the
    /// statement's counters join the database totals; its plan lookup
    /// becomes [`QueryResult::plan_cache_stats`]; its wall time from
    /// entry to result becomes [`QueryResult::elapsed`] and a latency
    /// observation; a failure is counted by governance cause; and a traced
    /// statement's tree goes to the slow-query hook (when over the
    /// threshold) and to the result, rendered as the result for
    /// `EXPLAIN ANALYZE`.
    fn run_statement(
        &self,
        token: Option<govern::CancelToken>,
        trace: Trace,
        body: impl FnOnce(&StmtScope) -> Result<QueryResult>,
    ) -> Result<QueryResult> {
        let started = std::time::Instant::now();
        let config = self.exec_config();
        let token = token.or_else(|| self.session_token.get().cloned());
        let governor = govern::Governor::new(token, config.query_timeout);
        let traced = match trace {
            Trace::Auto => self.tracer.is_enabled() || config.slow_query_threshold.is_some(),
            Trace::Analyze => true,
            Trace::Off => false,
        };
        let root = if traced { self.tracer.start_root("query") } else { obs::SpanId::NONE };
        let scope = StmtScope {
            config,
            governor,
            ops: OpCounters::default(),
            plan_lookup: cachekit::CacheStats::default(),
            root,
        };
        let out = body(&scope);
        let elapsed = started.elapsed();
        self.ops.absorb(&scope.ops);
        self.query_latency.observe(elapsed.as_secs_f64());
        if let Err(err) = &out {
            self.note_failure(root, err);
        }
        let tree = root.is_some().then(|| {
            self.tracer.finish(root);
            Arc::new(self.tracer.take_tree(root))
        });
        let mut result = out?;
        if let Some(tree) = tree {
            if scope.config.slow_query_threshold.is_some_and(|t| elapsed >= t) {
                let hook = self.slow_query_hook.read().clone();
                hook(&tree);
            }
            if trace == Trace::Analyze {
                let mut lines: Vec<String> = tree.render().lines().map(str::to_string).collect();
                lines.push(format!(
                    "Execution: {} rows, time={}",
                    result.rows_affected,
                    obs::fmt_ns(elapsed.as_nanos() as u64)
                ));
                result = QueryResult::of_table(plan_table(lines)?);
            }
            result.trace = Some(tree);
        }
        result.elapsed = elapsed;
        result.rows_scanned = scope.ops.get(OperatorKind::Scan).rows_out;
        result.plan_cache = scope.plan_lookup.snapshot();
        Ok(result)
    }

    /// Counts one plan lookup into the database totals and the
    /// statement's own, with a `plan_cache` event when traced.
    fn note_plan_lookup(&self, scope: &StmtScope, hit: bool) {
        for stats in [&self.plan_lookups, &scope.plan_lookup] {
            if hit {
                stats.record_hit();
            } else {
                stats.record_miss();
            }
        }
        self.tracer.event(scope.root, "plan_cache", if hit { "hit" } else { "miss" });
    }

    /// Failure-side bookkeeping for [`run_statement`](Self::run_statement):
    /// failure counters by governance cause, and a `governance` trace event
    /// when the statement was traced.
    fn note_failure(&self, root: obs::SpanId, err: &Error) {
        use std::sync::atomic::Ordering::Relaxed;
        self.query_failures.fetch_add(1, Relaxed);
        let cause = match err.governance() {
            Some(govern::QueryError::Canceled) => {
                self.gov_cancellations.fetch_add(1, Relaxed);
                "canceled"
            }
            Some(govern::QueryError::TimedOut { .. }) => {
                self.gov_timeouts.fetch_add(1, Relaxed);
                "timed_out"
            }
            Some(govern::QueryError::BudgetExceeded { .. }) => {
                self.gov_budget_rejections.fetch_add(1, Relaxed);
                "budget_exceeded"
            }
            Some(govern::QueryError::WorkerPanic(_)) => {
                self.gov_worker_panics.fetch_add(1, Relaxed);
                "worker_panic"
            }
            _ => "error",
        };
        if root.is_some() {
            self.tracer.event(root, "governance", cause);
        }
    }

    /// Parses under a `parse` phase span.
    fn parse_spanned(&self, sql: &str, parent: obs::SpanId) -> Result<Statement> {
        let span = self.tracer.child(parent, obs::SpanKind::Phase, "parse", "");
        let stmt = parser::parse_statement(sql);
        self.tracer.finish(span);
        stmt
    }

    /// Executes an optimized plan under an `execute` phase span.
    fn run_plan(
        &self,
        env: &Env<'_>,
        plan: &LogicalPlan,
        scope: &StmtScope,
    ) -> Result<QueryResult> {
        let span = self.tracer.child(scope.root, obs::SpanKind::Phase, "execute", "");
        let table = exec::execute(plan, &self.exec_ctx(env, span, scope));
        self.tracer.finish(span);
        table.map(QueryResult::of_table)
    }

    /// Executes a semicolon-separated script, returning the last result.
    pub fn execute_script(&self, sql: &str) -> Result<QueryResult> {
        let stmts = parser::parse_statements(sql)?;
        let mut last = QueryResult::of(Table::empty(Schema::default()), 0);
        for s in &stmts {
            last = self.execute_statement(s)?;
        }
        Ok(last)
    }

    /// Executes a parsed statement, stamping the result with its wall time
    /// and the number of base-table rows its Scan operators read.
    pub fn execute_statement(&self, stmt: &Statement) -> Result<QueryResult> {
        self.execute_statement_in(&self.env(), stmt)
    }

    pub(crate) fn execute_statement_in(
        &self,
        env: &Env<'_>,
        stmt: &Statement,
    ) -> Result<QueryResult> {
        self.run_statement(None, Trace::of(stmt), |s| {
            self.execute_statement_inner(env, stmt, None, s)
        })
    }

    /// Executes a prepared statement as a statement of its own, reusing
    /// the plan it keeps for `env`'s settings while that plan holds.
    pub(crate) fn execute_prepared_in(
        &self,
        env: &Env<'_>,
        prepared: &PreparedStatement,
        token: Option<govern::CancelToken>,
    ) -> Result<QueryResult> {
        let stmt = prepared.statement();
        self.run_statement(token, Trace::of(stmt), |s| {
            self.execute_statement_inner(env, stmt, Some(prepared), s)
        })
    }

    /// The body of every parsed statement. `prepared` is the handle
    /// `stmt` came from, whose kept plan its query may reuse.
    fn execute_statement_inner(
        &self,
        env: &Env<'_>,
        stmt: &Statement,
        prepared: Option<&PreparedStatement>,
        scope: &StmtScope,
    ) -> Result<QueryResult> {
        let root = scope.root;
        match stmt {
            Statement::Query(q) => self.select(env, q, prepared, scope),
            Statement::CreateTable { name, temp, if_not_exists, columns, as_query } => {
                if *if_not_exists && env.catalog.table(name).is_some() {
                    return Ok(QueryResult::of(Table::empty(Schema::default()), 0));
                }
                // The inner query's operators record themselves; the
                // CreateTable entry covers only the materialization.
                let table = match as_query {
                    Some(q) => self.select(env, q, prepared, scope)?.into_table(),
                    None => {
                        let schema = Schema::new(
                            columns.iter().map(|(n, t)| Field::new(n.clone(), *t)).collect(),
                        );
                        Table::empty(schema)
                    }
                };
                let start = std::time::Instant::now();
                let rows = table.num_rows();
                // A session keeps its TEMP tables to itself; every other
                // table lands in the shared catalog. `CREATE TEMP TABLE`
                // re-creation is idiomatic in the DL2SQL-generated
                // scripts: allow replacement.
                let target = if *temp { env.catalog } else { env.catalog.shared() };
                target.create_table(name, table, true)?;
                self.exec_ctx(env, root, scope).record_step(OperatorKind::CreateTable, start, rows);
                Ok(QueryResult::of(Table::empty(Schema::default()), rows))
            }
            Statement::CreateView { name, query } => {
                // Validate the definition by planning it once.
                let _plan = self.plan_query_spanned(env, query, obs::SpanId::NONE)?;
                env.catalog.shared().create_view(name, query.clone(), true)?;
                Ok(QueryResult::of(Table::empty(Schema::default()), 0))
            }
            Statement::Insert { table, rows } => self.run_insert(env, table, rows, scope),
            Statement::InsertSelect { table, query } => {
                let start = std::time::Instant::now();
                let current = env
                    .catalog
                    .table(table)
                    .ok_or_else(|| Error::NotFound(format!("table '{table}'")))?;
                let incoming = self.select(env, query, prepared, scope)?.into_table();
                if incoming.num_columns() != current.num_columns() {
                    return Err(Error::Plan(format!(
                        "INSERT SELECT produces {} columns, table '{table}' has {}",
                        incoming.num_columns(),
                        current.num_columns()
                    )));
                }
                let mut new_table = (*current).clone();
                for row in 0..incoming.num_rows() {
                    new_table.push_row(incoming.row(row))?;
                }
                let affected = incoming.num_rows();
                env.catalog.replace_table(table, new_table)?;
                self.exec_ctx(env, root, scope).record_step(OperatorKind::Insert, start, affected);
                Ok(QueryResult::of(Table::empty(Schema::default()), affected))
            }
            Statement::Update { table, assignments, predicate } => {
                self.run_update(env, table, assignments, predicate.as_ref(), scope)
            }
            Statement::Explain(q) => {
                let plan = self.plan_query_spanned(env, q, obs::SpanId::NONE)?;
                let text = self.explain_plan_with_costs(env, &plan);
                Ok(QueryResult::of_table(plan_table(text.lines().map(str::to_string).collect())?))
            }
            // Runs the statement under the root `run_statement` opened for
            // it, which renders the tree as the result.
            Statement::ExplainAnalyze(inner) => {
                self.execute_statement_inner(env, inner, prepared, scope)
            }
            Statement::Drop { kind, name, if_exists } => {
                let dropped = match kind {
                    ObjectKind::Table => env.catalog.drop_table(name, *if_exists)?,
                    ObjectKind::View => env.catalog.shared().drop_view(name, *if_exists)?,
                };
                Ok(QueryResult::of(Table::empty(Schema::default()), dropped as usize))
            }
        }
    }

    /// Parses and plans a SELECT once, for repeated execution through
    /// [`PreparedQuery::run`]. Each run re-reads table contents from the
    /// catalog, so prepared queries observe later INSERTs/UPDATEs; the plan
    /// is reused while what it was planned against holds (see
    /// [`PreparedStatement`]) and rebuilt otherwise.
    pub fn prepare(&self, sql: &str) -> Result<PreparedQuery<'_>> {
        let prepared = PreparedStatement::new(parser::parse_statement(sql)?);
        let Statement::Query(q) = prepared.statement() else {
            return Err(Error::Plan("prepare supports SELECT statements".into()));
        };
        // Planned now so that a bad query fails here; the first run reuses it.
        let config_epoch = self.config_epoch.current();
        self.plan_and_keep(&self.env(), &prepared, q, config_epoch, obs::SpanId::NONE)?;
        Ok(PreparedQuery { db: self, prepared, token: std::sync::OnceLock::new() })
    }

    /// Plans, optimizes and executes a SELECT: a statement like any
    /// other, traced and accounted for as [`execute`](Self::execute) is.
    pub fn run_query(&self, q: &Query) -> Result<Table> {
        self.query_in(&self.env(), q, Trace::Auto)
    }

    pub(crate) fn query_in(&self, env: &Env<'_>, q: &Query, trace: Trace) -> Result<Table> {
        self.run_statement(None, trace, |s| self.select(env, q, None, s))
            .map(QueryResult::into_table)
    }

    /// Plans and executes a SELECT under the statement's root, with plan
    /// and execute phase spans; with `prepared`, runs the plan it keeps
    /// instead of planning, while that plan holds.
    fn select(
        &self,
        env: &Env<'_>,
        q: &Query,
        prepared: Option<&PreparedStatement>,
        scope: &StmtScope,
    ) -> Result<QueryResult> {
        let Some(prepared) = prepared.filter(|p| p.keeps_plans()) else {
            let plan = self.plan_query_spanned(env, q, scope.root)?;
            return self.run_plan(env, &plan, scope);
        };
        // Read before planning: a swap that races the plan leaves it
        // stamped old, so the next lookup replans.
        let config_epoch = self.config_epoch.current();
        let kept = prepared.lookup(env.settings, env.catalog, env.udfs, config_epoch);
        self.note_plan_lookup(scope, kept.is_some());
        let plan = match kept {
            Some(plan) => plan,
            None => self.plan_and_keep(env, prepared, q, config_epoch, scope.root)?,
        };
        self.run_plan(env, &plan, scope)
    }

    /// Plans `q` under `parent` and keeps the plan in `prepared` with its
    /// dependencies, settings and `config_epoch`; a plan that cannot be
    /// kept stops `prepared` keeping plans.
    fn plan_and_keep(
        &self,
        env: &Env<'_>,
        prepared: &PreparedStatement,
        q: &Query,
        config_epoch: u64,
        parent: obs::SpanId,
    ) -> Result<Arc<LogicalPlan>> {
        let (plan, deps) = self.plan_query_tracked(env, q, parent)?;
        let plan = Arc::new(plan);
        prepared.keep(deps.map(|deps| KeptPlan {
            plan: Arc::clone(&plan),
            deps,
            settings: env.settings.clone(),
            config_epoch,
        }));
        Ok(plan)
    }

    fn cost_ctx<'a>(&self, env: &Env<'a>) -> CostContext<'a> {
        CostContext {
            catalog: env.catalog,
            udfs: env.udfs,
            parallelism: self.exec_config.read().parallelism,
        }
    }

    /// Plans and optimizes a SELECT without executing it.
    pub fn plan_query(&self, q: &Query) -> Result<LogicalPlan> {
        self.plan_query_spanned(&self.env(), q, obs::SpanId::NONE)
    }

    /// [`plan_query`](Self::plan_query) under a `plan` phase span with one
    /// child per optimizer pass.
    pub(crate) fn plan_query_spanned(
        &self,
        env: &Env<'_>,
        q: &Query,
        parent: obs::SpanId,
    ) -> Result<LogicalPlan> {
        self.plan_query_tracked(env, q, parent).map(|(plan, _)| plan)
    }

    /// [`plan_query_spanned`](Self::plan_query_spanned), with what the
    /// plan depends on (`None` when it cannot be kept; see
    /// [`Planner::dependencies`]).
    fn plan_query_tracked(
        &self,
        env: &Env<'_>,
        q: &Query,
        parent: obs::SpanId,
    ) -> Result<(LogicalPlan, Option<Dependencies>)> {
        let span = self.tracer.child(parent, obs::SpanKind::Phase, "plan", "");
        let out = self.plan_query_passes(env, q, span);
        self.tracer.finish(span);
        out
    }

    fn plan_query_passes(
        &self,
        env: &Env<'_>,
        q: &Query,
        span: obs::SpanId,
    ) -> Result<(LogicalPlan, Option<Dependencies>)> {
        // Scalar subqueries run as statements of their own: their own
        // counters, and no tree (the planner's caller has the root).
        let runner = |sub: &Query| self.query_in(env, sub, Trace::Off);
        let planner = Planner::new(env.catalog, env.udfs, Some(&runner));
        let s = self.tracer.child(span, obs::SpanKind::Phase, "build_logical", "");
        let plan = planner.plan_query(q);
        self.tracer.finish(s);
        let plan = plan?;
        let deps = planner.dependencies();
        let settings = env.settings;
        let optimizer =
            Optimizer::new(settings.optimizer.clone(), Arc::clone(&settings.cost_model));
        let ctx = self.cost_ctx(env);
        let s = self.tracer.child(span, obs::SpanKind::Phase, "optimize", "");
        let plan = optimizer.optimize(plan, &ctx);
        self.tracer.finish(s);
        let plan = plan?;
        let s = self.tracer.child(span, obs::SpanKind::Phase, "fold_constants", "");
        let plan = crate::optimizer::fold_plan_constants(plan, env.udfs);
        self.tracer.finish(s);
        let s = self.tracer.child(span, obs::SpanKind::Phase, "prune_columns", "");
        let plan = crate::optimizer::prune_columns(plan);
        self.tracer.finish(s);
        // Fusion runs last, over the pruned plan: the rewrite sees the
        // joins' final output masks and unmasks group/aggregate expressions
        // through them.
        if settings.optimizer.fuse_join_aggregates {
            let s = self.tracer.child(span, obs::SpanKind::Phase, "fuse_join_aggregates", "");
            let plan = crate::optimizer::fuse_join_aggregates(plan);
            self.tracer.finish(s);
            return Ok((plan, deps));
        }
        Ok((plan, deps))
    }

    /// Executes an already-optimized plan as a statement of its own.
    pub fn execute_plan(&self, plan: &LogicalPlan) -> Result<Table> {
        self.run_statement(None, Trace::Auto, |s| self.run_plan(&self.env(), plan, s))
            .map(QueryResult::into_table)
    }

    /// An executor context for one statement, nesting operator spans under
    /// `span` (pass [`obs::SpanId::NONE`] to disable tracing) and recording
    /// into the statement's counters.
    fn exec_ctx<'a>(
        &'a self,
        env: &Env<'a>,
        span: obs::SpanId,
        scope: &'a StmtScope,
    ) -> ExecContext<'a> {
        ExecContext {
            catalog: env.catalog,
            udfs: env.udfs,
            ops: &scope.ops,
            config: &scope.config,
            tracer: &self.tracer,
            span,
            governor: scope.governor.clone(),
            budget: self.memory_budget.read().clone(),
        }
    }

    /// The optimized plan for a SELECT statement, as EXPLAIN text.
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.explain_in(&self.env(), sql)
    }

    pub(crate) fn explain_in(&self, env: &Env<'_>, sql: &str) -> Result<String> {
        let stmt = parser::parse_statement(sql)?;
        let Statement::Query(q) = stmt else {
            return Err(Error::Plan("EXPLAIN supports SELECT statements".into()));
        };
        let plan = self.plan_query_spanned(env, &q, obs::SpanId::NONE)?;
        Ok(self.explain_plan_with_costs(env, &plan))
    }

    /// Renders a plan with per-node row/cost estimates from the
    /// statement's cost model.
    fn explain_plan_with_costs(&self, env: &Env<'_>, plan: &LogicalPlan) -> String {
        let model = &env.settings.cost_model;
        let ctx = self.cost_ctx(env);
        fn walk(
            plan: &LogicalPlan,
            depth: usize,
            model: &dyn CostModel,
            ctx: &CostContext<'_>,
            out: &mut String,
        ) {
            let est = model.estimate(plan, ctx);
            // Reuse the single-line rendering of display_indent.
            let line = plan.display_indent().lines().next().unwrap_or_default().to_string();
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!(
                "{line}  [rows≈{:.0}, cost≈{:.0}]
",
                est.rows, est.cost
            ));
            for c in plan.children() {
                walk(c, depth + 1, model, ctx, out);
            }
        }
        let mut out = String::new();
        walk(plan, 0, model.as_ref(), &ctx, &mut out);
        out
    }

    /// The span collector. Enable it (`db.tracer().enable()`) to trace
    /// every statement and read trees back via [`QueryResult::trace`].
    pub fn tracer(&self) -> &obs::Collector {
        &self.tracer
    }

    /// Replaces the slow-query hook (default: render the span tree to
    /// stderr). Fires for statements slower than
    /// [`ExecConfig::slow_query_threshold`].
    pub fn set_slow_query_hook(&self, hook: SlowQueryHook) {
        *self.slow_query_hook.write() = hook;
    }

    /// A point-in-time metrics registry: per-operator counters,
    /// plan-cache stats, the query-latency histogram and task-pool
    /// scheduler counters and the stats-cache NDV counter — exportable as
    /// Prometheus text or JSON.
    pub fn metrics_snapshot(&self) -> obs::Registry {
        let mut reg = obs::Registry::new();
        let mut ops = self.ops.snapshot();
        ops.sort_by_key(|(kind, _)| kind.label());
        for (kind, s) in ops {
            let labels: &[(&str, &str)] = &[("op", kind.label())];
            reg.counter(
                "minidb_operator_invocations_total",
                "Operator invocations",
                labels,
                s.loops,
            );
            reg.counter(
                "minidb_operator_time_nanoseconds_total",
                "Operator wall time, children excluded",
                labels,
                s.self_ns,
            );
            reg.counter(
                "minidb_operator_busy_nanoseconds_total",
                "Summed per-worker busy time",
                labels,
                s.busy_ns,
            );
            reg.counter("minidb_operator_rows_out_total", "Rows produced", labels, s.rows_out);
            if s.bytes_not_materialized > 0 {
                reg.counter(
                    "minidb_operator_bytes_not_materialized_total",
                    "Intermediate bytes fusion avoided materializing",
                    labels,
                    s.bytes_not_materialized,
                );
            }
        }
        for (path, n) in KeyPath::ALL.into_iter().zip(self.ops.key_paths()) {
            reg.counter(
                "minidb_key_path_total",
                "Join builds, group-id tables and accumulator grids, by key structure",
                &[("path", path.label())],
                n,
            );
        }
        let pc = self.plan_cache_stats();
        reg.counter("minidb_plan_cache_hits_total", "Plan cache hits", &[], pc.hits);
        reg.counter("minidb_plan_cache_misses_total", "Plan cache misses", &[], pc.misses);
        reg.counter("minidb_plan_cache_evictions_total", "Plan cache evictions", &[], pc.evictions);
        reg.gauge(
            "minidb_plan_cache_entries",
            "Live plan cache entries",
            &[],
            self.plan_cache.len() as f64,
        );
        reg.counter(
            "minidb_stats_ndv_computed_total",
            "Column distinct counts the cost model computed (stats cache misses)",
            &[],
            self.catalog.stats.ndv_computed(),
        );
        reg.histogram(
            "minidb_query_latency_seconds",
            "Per-statement wall time",
            &[],
            self.query_latency.snapshot(),
        );
        {
            use std::sync::atomic::Ordering::Relaxed;
            reg.counter(
                "minidb_query_failures_total",
                "Statements that returned an error (any cause)",
                &[],
                self.query_failures.load(Relaxed),
            );
            reg.counter(
                "minidb_query_cancellations_total",
                "Statements aborted by a cancel handle",
                &[],
                self.gov_cancellations.load(Relaxed),
            );
            reg.counter(
                "minidb_query_timeouts_total",
                "Statements aborted by the query timeout",
                &[],
                self.gov_timeouts.load(Relaxed),
            );
            reg.counter(
                "minidb_budget_rejections_total",
                "Statements aborted by the memory budget",
                &[],
                self.gov_budget_rejections.load(Relaxed),
            );
            reg.counter(
                "minidb_worker_panics_total",
                "Statements aborted by a caught worker panic",
                &[],
                self.gov_worker_panics.load(Relaxed),
            );
        }
        if let Some(budget) = self.memory_budget.read().as_ref() {
            reg.gauge(
                "minidb_memory_budget_limit_bytes",
                "Configured operator memory budget",
                &[],
                budget.limit() as f64,
            );
            reg.gauge(
                "minidb_memory_budget_in_use_bytes",
                "Bytes currently reserved against the budget",
                &[],
                budget.in_use() as f64,
            );
            reg.gauge(
                "minidb_memory_budget_peak_bytes",
                "High-water mark of reserved bytes",
                &[],
                budget.peak() as f64,
            );
        }
        let pool = taskpool::stats();
        reg.counter("taskpool_regions_total", "Parallel regions entered", &[], pool.regions);
        reg.counter("taskpool_tasks_total", "Tasks executed", &[], pool.tasks);
        reg.counter(
            "taskpool_busy_nanoseconds_total",
            "Wall time inside task closures",
            &[],
            pool.busy_nanos,
        );
        reg.gauge(
            "taskpool_peak_workers",
            "Largest worker count any region ran with",
            &[],
            pool.peak_workers as f64,
        );
        reg.counter(
            "taskpool_caught_panics_total",
            "Worker panics caught and converted to errors",
            &[],
            pool.caught_panics,
        );
        reg
    }

    /// Cost estimate of a SELECT under the database's cost model.
    pub fn estimate(&self, sql: &str) -> Result<PlanCost> {
        self.estimate_with(sql, self.settings.cost_model.as_ref())
    }

    /// Cost estimate of a SELECT under an arbitrary model (paper Fig. 12
    /// compares the default and customized models on the same plans).
    pub fn estimate_with(&self, sql: &str, model: &dyn CostModel) -> Result<PlanCost> {
        let stmt = parser::parse_statement(sql)?;
        let Statement::Query(q) = stmt else {
            return Err(Error::Plan("cost estimation supports SELECT statements".into()));
        };
        let plan = self.plan_query(&q)?;
        Ok(model.estimate(&plan, &self.cost_ctx(&self.env())))
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    fn run_insert(
        &self,
        env: &Env<'_>,
        table_name: &str,
        rows: &[Vec<crate::sql::ast::Expr>],
        scope: &StmtScope,
    ) -> Result<QueryResult> {
        let start = std::time::Instant::now();
        let current = env
            .catalog
            .table(table_name)
            .ok_or_else(|| Error::NotFound(format!("table '{table_name}'")))?;
        let mut new_table = (*current).clone();
        let planner = Planner::new(env.catalog, env.udfs, None);
        let eval_ctx = EvalContext { udfs: env.udfs };
        let empty = Schema::default();
        for row in rows {
            if row.len() != new_table.num_columns() {
                return Err(Error::Plan(format!(
                    "INSERT row has {} values, table '{table_name}' has {} columns",
                    row.len(),
                    new_table.num_columns()
                )));
            }
            let values: Vec<crate::value::Value> = row
                .iter()
                .map(|e| planner.bind_against_table(e, &empty)?.eval_const(&eval_ctx))
                .collect::<Result<_>>()?;
            // Date columns accept string literals; push coerces.
            new_table.push_row(values)?;
        }
        let affected = rows.len();
        env.catalog.replace_table(table_name, new_table)?;
        self.exec_ctx(env, scope.root, scope).record_step(OperatorKind::Insert, start, affected);
        Ok(QueryResult::of(Table::empty(Schema::default()), affected))
    }

    fn run_update(
        &self,
        env: &Env<'_>,
        table_name: &str,
        assignments: &[(String, crate::sql::ast::Expr)],
        predicate: Option<&crate::sql::ast::Expr>,
        scope: &StmtScope,
    ) -> Result<QueryResult> {
        let start = std::time::Instant::now();
        let current = env
            .catalog
            .table(table_name)
            .ok_or_else(|| Error::NotFound(format!("table '{table_name}'")))?;
        let planner = Planner::new(env.catalog, env.udfs, None);
        let eval_ctx = EvalContext { udfs: env.udfs };
        let schema = current.schema().clone();

        let mask: Vec<bool> = match predicate {
            Some(p) => {
                let bound = planner.bind_against_table(p, &schema)?;
                bound.eval(&current, &eval_ctx)?.as_bool_slice()?.to_vec()
            }
            None => vec![true; current.num_rows()],
        };
        let affected = mask.iter().filter(|&&b| b).count();

        let mut new_table = (*current).clone();
        for (col_name, expr) in assignments {
            let idx = schema.index_of(col_name)?;
            let bound = planner.bind_against_table(expr, &schema)?;
            let new_vals = bound.eval(&current, &eval_ctx)?;
            let old = current.column(idx);
            let target = schema.field(idx).data_type;
            let mut rebuilt = Column::empty(target);
            #[allow(clippy::needless_range_loop)] // row indexes three parallel columns
            for row in 0..current.num_rows() {
                let v = if mask[row] { new_vals.value(row) } else { old.value(row) };
                rebuilt.push(v)?;
            }
            new_table.set_column(idx, rebuilt)?;
        }
        env.catalog.replace_table(table_name, new_table)?;
        self.exec_ctx(env, scope.root, scope).record_step(OperatorKind::Update, start, affected);
        Ok(QueryResult::of(Table::empty(Schema::default()), affected))
    }
}

/// A SELECT parsed and planned once, executable many times on the
/// database itself.
///
/// Obtained from [`Database::prepare`]: a [`PreparedStatement`] bound to
/// the database. Each [`run`](PreparedQuery::run) re-reads table contents
/// from the catalog, so data changes between runs are observed; the plan
/// is reused while what it was planned against holds, and rebuilt
/// otherwise.
pub struct PreparedQuery<'a> {
    db: &'a Database,
    prepared: PreparedStatement,
    /// Created lazily on the first [`cancel_handle`](Self::cancel_handle)
    /// call; when absent, runs fall back to the database session token.
    token: std::sync::OnceLock<govern::CancelToken>,
}

impl PreparedQuery<'_> {
    /// A cancel handle scoped to this prepared query: cancelling it aborts
    /// in-flight and subsequent [`run`](Self::run) calls (until
    /// [`reset`](govern::CancelToken::reset)) without touching other
    /// statements on the database.
    pub fn cancel_handle(&self) -> govern::CancelToken {
        self.token.get_or_init(govern::CancelToken::new).clone()
    }

    /// Executes the query as a statement, like
    /// [`Database::execute_statement`], through its kept plan while that
    /// plan holds (no parse, and no plan to time).
    pub fn run(&self) -> Result<QueryResult> {
        self.db.execute_prepared_in(&self.db.env(), &self.prepared, self.token.get().cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Value};

    fn db_with_data() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE fabric (transID Int64, patternID Int64, meter Float64, printdate Date, humidity Float64)")
            .unwrap();
        db.execute(
            "INSERT INTO fabric VALUES \
             (1, 10, 5.0, '2021-01-05', 85.0), \
             (2, 10, 7.5, '2021-01-10', 70.0), \
             (3, 20, 2.5, '2021-02-01', 90.0), \
             (4, 30, 4.0, '2021-01-20', 82.0)",
        )
        .unwrap();
        db.execute("CREATE TABLE video (transID Int64, frame Int64)").unwrap();
        db.execute("INSERT INTO video VALUES (1, 100), (2, 200), (3, 300), (9, 900)").unwrap();
        db
    }

    #[test]
    fn select_filter_on_dates() {
        let db = db_with_data();
        let out = db
            .execute("SELECT transID FROM fabric WHERE printdate > '2021-01-01' and printdate < '2021-1-31'")
            .unwrap();
        assert_eq!(out.table().num_rows(), 3);
    }

    #[test]
    fn implicit_join_with_where() {
        let db = db_with_data();
        let out = db
            .execute("SELECT f.transID, v.frame FROM fabric f, video v WHERE f.transID = v.transID")
            .unwrap();
        assert_eq!(out.table().num_rows(), 3);
    }

    #[test]
    fn explicit_inner_join() {
        let db = db_with_data();
        let out = db
            .execute(
                "SELECT f.transID FROM fabric f INNER JOIN video v ON f.transID = v.transID \
                 WHERE f.humidity > 80",
            )
            .unwrap();
        assert_eq!(out.table().num_rows(), 2); // trans 1 (85) and 3 (90)
    }

    #[test]
    fn group_by_with_expression_over_aggregates() {
        let db = db_with_data();
        let out = db
            .execute(
                "SELECT patternID, sum(meter) / count(*) AS avg_m FROM fabric \
                 GROUP BY patternID ORDER BY patternID",
            )
            .unwrap();
        let t = out.table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.column(0).i64_at(0), 10);
        assert!((t.column(1).f64_at(0) - 6.25).abs() < 1e-9);
    }

    #[test]
    fn create_table_as_and_scalar_subquery() {
        let db = db_with_data();
        db.execute("CREATE TEMP TABLE m AS SELECT meter FROM fabric").unwrap();
        let out = db
            .execute(
                "SELECT meter - (SELECT AVG(meter) FROM m) AS centered FROM m ORDER BY centered",
            )
            .unwrap();
        let t = out.table();
        assert_eq!(t.num_rows(), 4);
        let sum: f64 = (0..4).map(|i| t.column(0).f64_at(i)).sum();
        assert!(sum.abs() < 1e-9, "centered values sum to ~0");
    }

    #[test]
    fn paper_style_create_temp_table_with_paren_query() {
        let db = db_with_data();
        db.execute(
            "CREATE TEMP TABLE agg( SELECT patternID, sum(meter) as total FROM fabric GROUP BY patternID)",
        )
        .unwrap();
        let out = db.execute("SELECT * FROM agg ORDER BY patternID").unwrap();
        assert_eq!(out.table().num_rows(), 3);
    }

    #[test]
    fn update_with_predicate_is_the_relu_idiom() {
        let db = Database::new();
        db.execute("CREATE TABLE fm (id Int64, Value Float64)").unwrap();
        db.execute("INSERT INTO fm VALUES (1, -2.0), (2, 3.0), (3, -0.5)").unwrap();
        let r = db.execute("UPDATE fm SET Value = 0 WHERE Value < 0").unwrap();
        assert_eq!(r.rows_affected(), 2);
        let out = db.execute("SELECT Value FROM fm ORDER BY id").unwrap();
        assert_eq!(out.table().column(0).f64_at(0), 0.0);
        assert_eq!(out.table().column(0).f64_at(1), 3.0);
        assert_eq!(out.table().column(0).f64_at(2), 0.0);
    }

    #[test]
    fn views_are_inlined() {
        let db = db_with_data();
        db.execute("CREATE VIEW heavy AS SELECT transID, meter FROM fabric WHERE meter > 4.0")
            .unwrap();
        let out = db.execute("SELECT count(*) FROM heavy").unwrap();
        assert_eq!(out.table().column(0).i64_at(0), 2);
        // Dropping and re-creating with different predicate changes results.
        db.execute("DROP VIEW heavy").unwrap();
        db.execute("CREATE VIEW heavy AS SELECT transID, meter FROM fabric WHERE meter > 2.0")
            .unwrap();
        let out = db.execute("SELECT count(*) FROM heavy").unwrap();
        assert_eq!(out.table().column(0).i64_at(0), 4);
    }

    #[test]
    fn udf_in_predicate_end_to_end() {
        let db = db_with_data();
        db.register_udf(ScalarUdf::new("is_even", vec![DataType::Int64], DataType::Bool, |args| {
            Ok(Value::Bool(args[0].as_i64()? % 2 == 0))
        }));
        let out = db.execute("SELECT transID FROM fabric WHERE is_even(transID) = TRUE").unwrap();
        assert_eq!(out.table().num_rows(), 2);
    }

    #[test]
    fn derived_table_in_from() {
        let db = db_with_data();
        let out = db
            .execute(
                "SELECT t.patternID FROM (SELECT patternID, sum(meter) s FROM fabric GROUP BY patternID) t \
                 WHERE t.s >= 4.0 ORDER BY t.patternID",
            )
            .unwrap();
        assert_eq!(out.table().num_rows(), 2); // patterns 10 (12.5m) and 30 (4.0m)
    }

    #[test]
    fn having_filters_groups() {
        let db = db_with_data();
        let out = db
            .execute("SELECT patternID FROM fabric GROUP BY patternID HAVING count(*) > 1")
            .unwrap();
        assert_eq!(out.table().num_rows(), 1);
        assert_eq!(out.table().column(0).i64_at(0), 10);
    }

    #[test]
    fn limit_and_order() {
        let db = db_with_data();
        let out = db.execute("SELECT transID FROM fabric ORDER BY meter DESC LIMIT 2").unwrap();
        assert_eq!(out.table().num_rows(), 2);
        assert_eq!(out.table().column(0).i64_at(0), 2); // meter 7.5
    }

    #[test]
    fn errors_are_reported_cleanly() {
        let db = db_with_data();
        assert!(matches!(db.execute("SELECT missing FROM fabric"), Err(Error::NotFound(_))));
        assert!(matches!(db.execute("SELECT * FROM ghost"), Err(Error::NotFound(_))));
        assert!(db.execute("SELECT sum(meter), transID FROM fabric").is_err());
        assert!(matches!(db.execute("SELEC 1"), Err(Error::Parse { .. })));
    }

    #[test]
    fn planner_rejects_malformed_queries() {
        let db = db_with_data();
        // Duplicate table binding.
        assert!(db.execute("SELECT * FROM fabric f, video f").is_err());
        // Aggregate in WHERE.
        assert!(db.execute("SELECT transID FROM fabric WHERE sum(meter) > 1").is_err());
        // Wildcard with GROUP BY.
        assert!(db.execute("SELECT * FROM fabric GROUP BY patternID").is_err());
        // Non-grouped column in an aggregate query.
        assert!(db.execute("SELECT transID, sum(meter) FROM fabric GROUP BY patternID").is_err());
        // Correlated subqueries are unsupported (outer column unresolvable).
        assert!(db
            .execute("SELECT transID FROM fabric f WHERE meter > (SELECT AVG(frame) FROM video v WHERE v.transID = f.transID)")
            .is_err());
    }

    #[test]
    fn scalar_subquery_shape_is_validated() {
        let db = db_with_data();
        // More than one row.
        assert!(matches!(
            db.execute("SELECT meter - (SELECT meter FROM fabric) AS d FROM fabric"),
            Err(Error::Subquery(_))
        ));
        // More than one column.
        assert!(matches!(
            db.execute(
                "SELECT meter - (SELECT meter, transID FROM fabric LIMIT 1) AS d FROM fabric"
            ),
            Err(Error::Subquery(_))
        ));
    }

    #[test]
    fn count_distinct() {
        let db = db_with_data();
        let out = db.execute("SELECT count(DISTINCT patternID) FROM fabric").unwrap();
        assert_eq!(out.table().column(0).i64_at(0), 3);
    }

    #[test]
    fn explain_and_estimate() {
        let db = db_with_data();
        let plan = db
            .explain("SELECT f.transID FROM fabric f, video v WHERE f.transID = v.transID and f.meter > 3.0")
            .unwrap();
        assert!(plan.contains("Join"), "{plan}");
        let est = db
            .estimate("SELECT f.transID FROM fabric f, video v WHERE f.transID = v.transID")
            .unwrap();
        assert!(est.rows >= 1.0);
        assert!(est.cost > 0.0);
    }

    #[test]
    fn select_distinct_deduplicates() {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE t (a Int64, b Int64); \
             INSERT INTO t VALUES (1, 10), (1, 10), (2, 20), (1, 30);",
        )
        .unwrap();
        let out = db.execute("SELECT DISTINCT a, b FROM t ORDER BY a, b").unwrap();
        assert_eq!(out.table().num_rows(), 3);
        let out = db.execute("SELECT DISTINCT a FROM t ORDER BY a").unwrap();
        assert_eq!(out.table().num_rows(), 2);
    }

    #[test]
    fn in_and_between_predicates() {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE t (v Int64); INSERT INTO t VALUES (1), (2), (3), (4), (5);",
        )
        .unwrap();
        let c = |sql: &str| db.execute(sql).unwrap().table().column(0).i64_at(0);
        assert_eq!(c("SELECT count(*) FROM t WHERE v IN (2, 4, 9)"), 2);
        assert_eq!(c("SELECT count(*) FROM t WHERE v NOT IN (2, 4)"), 3);
        assert_eq!(c("SELECT count(*) FROM t WHERE v BETWEEN 2 AND 4"), 3);
        assert_eq!(c("SELECT count(*) FROM t WHERE v NOT BETWEEN 2 AND 4"), 2);
        // BETWEEN binds tighter than AND.
        assert_eq!(c("SELECT count(*) FROM t WHERE v BETWEEN 1 AND 3 AND v != 2"), 2);
    }

    #[test]
    fn cross_join_without_equi_keys() {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE a (x Int64); CREATE TABLE b (y Int64); \
             INSERT INTO a VALUES (1), (2); INSERT INTO b VALUES (10), (20), (30);",
        )
        .unwrap();
        let out = db.execute("SELECT a.x, b.y FROM a, b WHERE a.x * 10 < b.y").unwrap();
        // pairs: (1,20),(1,30),(2,30)
        assert_eq!(out.table().num_rows(), 3);
    }

    #[test]
    fn multi_key_sort_orders_lexicographically() {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE t (a Int64, b Int64); \
             INSERT INTO t VALUES (2, 1), (1, 2), (1, 1), (2, 0);",
        )
        .unwrap();
        let out = db.execute("SELECT a, b FROM t ORDER BY a ASC, b DESC").unwrap();
        let rows: Vec<(i64, i64)> = (0..4)
            .map(|r| (out.table().column(0).i64_at(r), out.table().column(1).i64_at(r)))
            .collect();
        assert_eq!(rows, vec![(1, 2), (1, 1), (2, 1), (2, 0)]);
    }

    #[test]
    fn mixed_type_join_keys_still_match() {
        // Int64 join key meeting a Float64 key with integral values.
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE a (k Int64); CREATE TABLE b (k Float64); \
             INSERT INTO a VALUES (1), (2), (3); INSERT INTO b VALUES (2.0), (3.0), (4.5);",
        )
        .unwrap();
        let out = db.execute("SELECT a.k FROM a, b WHERE a.k = b.k ORDER BY a.k").unwrap();
        assert_eq!(out.table().num_rows(), 2);
        assert_eq!(out.table().column(0).i64_at(0), 2);
        assert_eq!(out.table().column(0).i64_at(1), 3);
    }

    #[test]
    fn explain_statement_returns_plan_rows() {
        let db = db_with_data();
        let out = db
            .execute("EXPLAIN SELECT f.transID FROM fabric f, video v WHERE f.transID = v.transID")
            .unwrap();
        let rendered: Vec<String> = (0..out.table().num_rows())
            .map(|r| out.table().column(0).value(r).to_string())
            .collect();
        assert!(rendered.iter().any(|l| l.contains("Join")), "{rendered:?}");
    }

    #[test]
    fn plan_cache_hits_on_repeat_and_formatting_variants() {
        let db = db_with_data();
        let sql = "SELECT transID FROM fabric WHERE meter > 3.0";
        let cold = db.execute(sql).unwrap();
        assert!(!cold.plan_cache_hit());
        let warm = db.execute(sql).unwrap();
        assert!(warm.plan_cache_hit());
        assert_eq!(warm.table().num_rows(), cold.table().num_rows());
        // The cache is keyed by the exact text: a whitespace variant is a
        // statement of its own.
        let variant = db.execute("SELECT transID\n  FROM fabric   WHERE meter > 3.0").unwrap();
        assert!(!variant.plan_cache_hit());
        let s = db.plan_cache_stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn plan_cache_invalidates_on_insert_update_and_ddl() {
        let db = db_with_data();
        let sql = "SELECT count(*) FROM fabric WHERE meter > 3.0";
        assert_eq!(db.execute(sql).unwrap().table().column(0).i64_at(0), 3);
        assert!(db.execute(sql).unwrap().plan_cache_hit());
        // INSERT: next run must not be a (stale) hit and must see new data.
        db.execute("INSERT INTO fabric VALUES (5, 40, 9.0, '2021-03-01', 50.0)").unwrap();
        let r = db.execute(sql).unwrap();
        assert!(!r.plan_cache_hit());
        assert_eq!(r.table().column(0).i64_at(0), 4);
        assert!(db.execute(sql).unwrap().plan_cache_hit());
        // UPDATE invalidates too.
        db.execute("UPDATE fabric SET meter = 1.0 WHERE transID = 5").unwrap();
        let r = db.execute(sql).unwrap();
        assert!(!r.plan_cache_hit());
        assert_eq!(r.table().column(0).i64_at(0), 3);
        // DDL on a table the plan does not read keeps it.
        db.execute("CREATE TABLE other (x Int64)").unwrap();
        assert!(db.execute(sql).unwrap().plan_cache_hit());
    }

    #[test]
    fn plan_cache_respects_view_redefinition() {
        // views_are_inlined semantics must survive caching: the view body
        // is frozen into the plan, so redefining it must invalidate.
        let db = db_with_data();
        db.execute("CREATE VIEW heavy AS SELECT meter FROM fabric WHERE meter > 4.0").unwrap();
        let sql = "SELECT count(*) FROM heavy";
        assert_eq!(db.execute(sql).unwrap().table().column(0).i64_at(0), 2);
        db.execute("DROP VIEW heavy").unwrap();
        db.execute("CREATE VIEW heavy AS SELECT meter FROM fabric WHERE meter > 2.0").unwrap();
        let r = db.execute(sql).unwrap();
        assert!(!r.plan_cache_hit());
        assert_eq!(r.table().column(0).i64_at(0), 4);
    }

    #[test]
    fn plan_cache_invalidates_on_udf_and_config_swaps() {
        let db = db_with_data();
        db.register_udf(ScalarUdf::new("thr", vec![DataType::Float64], DataType::Bool, |a| {
            Ok(Value::Bool(a[0].as_f64()? > 3.0))
        }));
        let sql = "SELECT count(*) FROM fabric WHERE thr(meter) = TRUE";
        assert_eq!(db.execute(sql).unwrap().table().column(0).i64_at(0), 3);
        assert!(db.execute(sql).unwrap().plan_cache_hit());
        // Re-registering the UDF with different behavior must invalidate.
        db.register_udf(ScalarUdf::new("thr", vec![DataType::Float64], DataType::Bool, |a| {
            Ok(Value::Bool(a[0].as_f64()? > 100.0))
        }));
        let r = db.execute(sql).unwrap();
        assert!(!r.plan_cache_hit());
        assert_eq!(r.table().column(0).i64_at(0), 0);
        // Config swaps invalidate as well.
        assert!(db.execute(sql).unwrap().plan_cache_hit());
        db.swap_exec_config(db.exec_config());
        assert!(!db.execute(sql).unwrap().plan_cache_hit());
    }

    #[test]
    fn every_exec_config_entry_point_clamps_parallelism_to_one() {
        let zero = || ExecConfig { parallelism: 0, ..Default::default() };
        let db = Database::builder().exec_config(zero()).build();
        assert_eq!(db.exec_config().parallelism, 1, "builder");
        let db = Database::builder().parallelism(4).build();
        db.swap_exec_config(zero());
        assert_eq!(db.exec_config().parallelism, 1, "swap");
        // The clamped database still runs every range-driven operator.
        db.execute_script("CREATE TABLE t (k Int64, v Float64); INSERT INTO t VALUES (1, 2.5);")
            .unwrap();
        let out = db.execute("SELECT k, SUM(v) FROM t WHERE v > 0.0 GROUP BY k").unwrap();
        assert_eq!(out.table().column(1).f64_at(0), 2.5);
    }

    #[test]
    fn plan_cache_evicts_lru_under_tiny_capacity() {
        let db = Database::builder().plan_cache_capacity(2).build();
        db.execute_script("CREATE TABLE t (a Int64); INSERT INTO t VALUES (1), (2);").unwrap();
        let q1 = "SELECT a FROM t";
        let q2 = "SELECT a FROM t WHERE a > 1";
        let q3 = "SELECT count(*) FROM t";
        db.execute(q1).unwrap();
        db.execute(q2).unwrap();
        assert_eq!(db.plan_cache_stats().evictions, 0);
        // q3 evicts the coldest (q1).
        db.execute(q3).unwrap();
        assert_eq!(db.plan_cache_stats().evictions, 1);
        assert!(!db.execute(q1).unwrap().plan_cache_hit(), "q1 was evicted");
        assert!(db.execute(q3).unwrap().plan_cache_hit());
    }

    #[test]
    fn plan_cache_capacity_zero_disables() {
        let db = Database::builder().plan_cache_capacity(0).build();
        db.execute("CREATE TABLE t (a Int64)").unwrap();
        db.execute("SELECT a FROM t").unwrap();
        let r = db.execute("SELECT a FROM t").unwrap();
        assert!(!r.plan_cache_hit());
        let metrics = db.metrics_snapshot();
        let entries = metrics.get("minidb_plan_cache_entries", &[]).map(|m| &m.value);
        assert_eq!(entries, Some(&obs::MetricValue::Gauge(0.0)));
        let s = db.plan_cache_stats();
        assert_eq!((s.hits, s.misses), (0, 0), "disabled cache records nothing");
    }

    #[test]
    fn prepared_queries_observe_data_changes() {
        let db = db_with_data();
        let prepared = db.prepare("SELECT count(*) FROM video").unwrap();
        assert_eq!(prepared.run().unwrap().table().column(0).i64_at(0), 4);
        db.execute("INSERT INTO video VALUES (10, 1000)").unwrap();
        let replanned = prepared.run().unwrap();
        assert_eq!(replanned.table().column(0).i64_at(0), 5);
        assert!(!replanned.plan_cache_hit(), "a new row count replans");
        assert!(prepared.run().unwrap().plan_cache_hit());
    }

    #[test]
    fn prepared_statements_replan_over_a_changed_view_or_udf_and_keep_none_over_a_subquery() {
        // Each change leaves every scanned table's schema and row count as
        // it was. A plan over a view or a UDF is kept and replans when the
        // view's table is written or the UDF rebound; a plan that
        // evaluated a subquery is never kept, so it plans without a lookup.
        let db = db_with_data();
        db.execute("CREATE VIEW wet AS SELECT transID FROM fabric WHERE humidity > 80").unwrap();
        let limit =
            |n: i64| ScalarUdf::new("lim", vec![], DataType::Int64, move |_| Ok(Value::Int64(n)));
        db.register_udf(limit(2));
        let cases = [
            (
                "SELECT count(*) FROM video WHERE frame > (SELECT max(frame) FROM video) - 300",
                "UPDATE video SET frame = frame + 1000 WHERE transID = 1",
                (0, 0),
            ),
            (
                "SELECT count(*) FROM wet",
                "UPDATE fabric SET humidity = 10.0 WHERE transID = 1",
                (0, 1),
            ),
            ("SELECT count(*) FROM video WHERE transID <= lim()", "", (0, 1)),
        ];
        for (sql, change, lookup) in cases {
            let session = db.session();
            let prepared = session.prepare(parser::parse_statement(sql).unwrap());
            let first = session.execute_prepared(&prepared).unwrap();
            assert_eq!(first.plan_cache_stats().misses, 1, "{sql}");
            if change.is_empty() {
                db.register_udf(limit(3));
            } else {
                db.execute(change).unwrap();
            }
            let again = session.execute_prepared(&prepared).unwrap();
            let s = again.plan_cache_stats();
            assert_eq!((s.hits, s.misses), lookup, "{sql}");
            let fresh = session.execute(sql).unwrap();
            assert_eq!(again.table().column(0).i64_at(0), fresh.table().column(0).i64_at(0));
            assert_ne!(first.table().column(0).i64_at(0), fresh.table().column(0).i64_at(0));
        }
    }

    #[test]
    fn multi_statement_script_runs_in_order() {
        let db = Database::new();
        let out = db
            .execute_script(
                "CREATE TABLE t (a Int64); INSERT INTO t VALUES (1), (2), (3); \
                 SELECT sum(a) FROM t;",
            )
            .unwrap();
        assert_eq!(out.table().column(0).i64_at(0), 6);
    }
}
