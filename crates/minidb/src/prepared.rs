//! Prepared statements: a statement parsed once whose optimized plan is
//! kept across executions for as long as what it was planned against
//! still holds.
//!
//! A kept plan records its dependencies: each table it scans (name,
//! schema and row count when it was planned), the planning settings it
//! was built under (the optimizer configuration by value, the cost model
//! by identity) and the executor-config epoch (parallelism feeds the cost
//! model). An execution reuses the plan kept for its session's settings
//! while every dependency still matches, and replans otherwise. Tables
//! resolve by name in the executing session, so the plans of a program
//! of `TEMP` tables hold in every session that runs the same program.
//!
//! A plan whose build evaluated a scalar subquery, expanded a view or
//! bound a UDF is never kept: the subquery's result, the view's body and
//! the UDF binding are baked into the plan, and no table dependency
//! vouches for them. From then on the statement plans on every execution
//! like an unprepared one, and looks up nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::catalog::Catalog;
use crate::plan::logical::LogicalPlan;
use crate::session::PlanSettings;
use crate::sql::ast::Statement;
use crate::table::{Schema, Table};

/// One table a plan scans, as it was when the plan was built.
#[derive(Debug, Clone)]
pub(crate) struct TableDep {
    name: String,
    schema: Schema,
    rows: usize,
}

impl TableDep {
    pub(crate) fn of(name: &str, table: &Table) -> Self {
        TableDep { name: name.to_string(), schema: table.schema().clone(), rows: table.num_rows() }
    }

    /// `name` still resolves to a table of the same schema and row count.
    fn holds(&self, catalog: &Catalog) -> bool {
        catalog
            .table(&self.name)
            .is_some_and(|t| t.num_rows() == self.rows && *t.schema() == self.schema)
    }
}

/// An optimized plan with the dependencies that keep it valid.
pub(crate) struct KeptPlan {
    pub(crate) plan: Arc<LogicalPlan>,
    pub(crate) tables: Vec<TableDep>,
    /// Holding the cost model's `Arc` keeps its address from being reused
    /// by another model, so comparing addresses compares identities.
    pub(crate) settings: PlanSettings,
    pub(crate) config_epoch: u64,
}

impl KeptPlan {
    fn planned_under(&self, settings: &PlanSettings) -> bool {
        self.settings.optimizer == settings.optimizer
            && Arc::ptr_eq(&self.settings.cost_model, &settings.cost_model)
    }
}

/// A statement keeps plans for at most this many planning settings; one
/// more drops the oldest.
const KEPT_SETTINGS: usize = 4;

/// A parsed statement that keeps its optimized plan between executions;
/// see the module docs. Obtained from
/// [`Session::prepare`](crate::Session::prepare) and run by
/// [`Session::execute_prepared`](crate::Session::execute_prepared), or
/// wrapped by [`PreparedQuery`](crate::PreparedQuery). Safe to share
/// across threads and sessions.
pub struct PreparedStatement {
    stmt: Statement,
    /// One plan per planning settings, oldest first. Only a SELECT, or the
    /// query of a CTAS or INSERT-SELECT, has a plan to keep.
    kept: Mutex<Vec<Arc<KeptPlan>>>,
    /// Set once a plan of the statement could not be kept.
    never_keeps: AtomicBool,
}

impl PreparedStatement {
    pub(crate) fn new(stmt: Statement) -> Self {
        PreparedStatement {
            stmt,
            kept: Mutex::new(Vec::new()),
            never_keeps: AtomicBool::new(false),
        }
    }

    pub(crate) fn statement(&self) -> &Statement {
        &self.stmt
    }

    /// The plan kept for `settings`, if every dependency still holds in
    /// `catalog` under executor-config epoch `config_epoch`.
    pub(crate) fn lookup(
        &self,
        settings: &PlanSettings,
        catalog: &Catalog,
        config_epoch: u64,
    ) -> Option<Arc<LogicalPlan>> {
        let kept = self.kept.lock().iter().find(|k| k.planned_under(settings)).cloned()?;
        let holds =
            kept.config_epoch == config_epoch && kept.tables.iter().all(|t| t.holds(catalog));
        holds.then(|| Arc::clone(&kept.plan))
    }

    /// Whether the statement may still keep a plan, i.e. no plan of it
    /// has yet failed to be kept.
    pub(crate) fn keeps_plans(&self) -> bool {
        !self.never_keeps.load(Ordering::Relaxed)
    }

    /// Keeps `plan`, replacing the one kept for the same settings; `None`
    /// (a plan that cannot be kept) stops the statement keeping any.
    pub(crate) fn keep(&self, plan: Option<KeptPlan>) {
        let Some(plan) = plan else {
            self.never_keeps.store(true, Ordering::Relaxed);
            self.kept.lock().clear();
            return;
        };
        let mut kept = self.kept.lock();
        if !self.keeps_plans() {
            return;
        }
        kept.retain(|k| !k.planned_under(&plan.settings));
        if kept.len() == KEPT_SETTINGS {
            kept.remove(0);
        }
        kept.push(Arc::new(plan));
    }
}
