//! Prepared statements: a statement parsed once whose optimized plan is
//! kept across executions for as long as what it was planned against
//! still holds.
//!
//! A kept plan records its dependencies. An execution reuses the newest
//! plan kept for its session's settings whose dependencies all still hold
//! in the executing session, and otherwise replans and keeps the new plan
//! (a statement keeps a few, so sessions whose private tables differ in
//! shape each find theirs). The dependencies:
//!
//! * each table it scans: a table of the shared catalog by its per-table
//!   epoch, so any write to it replans; a session-private `TEMP` table by
//!   its schema and row count, so the plans of a program of `TEMP` tables
//!   hold in every session that runs the same program;
//! * each view it expanded and each UDF it bound, by identity;
//! * the planning settings it was built under (the optimizer configuration
//!   by value, the cost model by identity) and the executor-config epoch
//!   (parallelism feeds the cost model).
//!
//! Names resolve as the planner resolves them: in the executing session
//! first, then in the shared catalog. A plan whose build evaluated a
//! scalar subquery is never kept: the subquery's result is baked into the
//! plan and no dependency vouches for it. From then on the statement plans
//! on every execution like an unprepared one, and looks up nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::catalog::Catalog;
use crate::plan::logical::LogicalPlan;
use crate::session::PlanSettings;
use crate::sql::ast::{Query, Statement};
use crate::table::{Schema, TableRef};
use crate::udf::{ScalarUdf, UdfRegistry};

/// One table a plan scans, as it was when the plan was built.
struct TableDep {
    name: String,
    /// The table's epoch in the shared catalog; `None` for a table private
    /// to the session that planned.
    epoch: Option<u64>,
    /// Within one database the epoch of a shared table already fixes
    /// these; they also keep a statement run on another database's catalog
    /// from reusing a plan over a table of another shape.
    schema: Schema,
    rows: usize,
}

impl TableDep {
    fn holds(&self, catalog: &Catalog) -> bool {
        catalog.resolve_table(&self.name).is_some_and(|(t, epoch)| {
            epoch == self.epoch && t.num_rows() == self.rows && *t.schema() == self.schema
        })
    }
}

/// A view a plan expanded or a UDF it bound, by identity. The `Weak` keeps
/// the address from being reused by another object without keeping the
/// object (a session's UDF closure, say) alive.
struct Bound<T> {
    name: String,
    target: Weak<T>,
}

impl<T> Bound<T> {
    fn is(&self, current: Option<&Arc<T>>) -> bool {
        current.is_some_and(|c| std::ptr::eq(Arc::as_ptr(c), self.target.as_ptr()))
    }
}

/// What a plan was built against in the catalog and UDF registry;
/// recorded by the planner.
#[derive(Default)]
pub(crate) struct Dependencies {
    tables: Vec<TableDep>,
    views: Vec<Bound<Query>>,
    udfs: Vec<Bound<ScalarUdf>>,
}

impl Dependencies {
    pub(crate) fn table(&mut self, name: &str, table: &TableRef, epoch: Option<u64>) {
        let (schema, rows) = (table.schema().clone(), table.num_rows());
        self.tables.push(TableDep { name: name.to_string(), epoch, schema, rows });
    }

    pub(crate) fn view(&mut self, name: &str, query: &Arc<Query>) {
        self.views.push(Bound { name: name.to_string(), target: Arc::downgrade(query) });
    }

    pub(crate) fn udf(&mut self, name: &str, udf: &Arc<ScalarUdf>) {
        if !self.udfs.iter().any(|u| u.is(Some(udf))) {
            self.udfs.push(Bound { name: name.to_string(), target: Arc::downgrade(udf) });
        }
    }

    /// Every name still resolves to what the plan was built against. A
    /// view holds only while no table of its name shadows it, as the
    /// planner tries tables first.
    fn hold(&self, catalog: &Catalog, udfs: &UdfRegistry) -> bool {
        self.tables.iter().all(|t| t.holds(catalog))
            && self
                .views
                .iter()
                .all(|v| catalog.table(&v.name).is_none() && v.is(catalog.view(&v.name).as_ref()))
            && self.udfs.iter().all(|u| u.is(udfs.get(&u.name).as_ref()))
    }
}

/// An optimized plan with the dependencies that keep it valid.
pub(crate) struct KeptPlan {
    pub(crate) plan: Arc<LogicalPlan>,
    pub(crate) deps: Dependencies,
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

/// A statement keeps at most this many plans, over every planning
/// settings and every shape of the session-private tables it read; one
/// more drops the oldest.
const KEPT_PLANS: usize = 4;

/// A parsed statement that keeps its optimized plan between executions;
/// see the module docs. Obtained from
/// [`Session::prepare`](crate::Session::prepare) and run by
/// [`Session::execute_prepared`](crate::Session::execute_prepared), or
/// wrapped by [`PreparedQuery`](crate::PreparedQuery); the database's plan
/// cache stores one per SELECT text. Safe to share across threads and
/// sessions.
pub struct PreparedStatement {
    stmt: Statement,
    /// The kept plans, oldest first, replaced as a whole so that a lookup
    /// checks them without holding the lock. Only a SELECT, or the query
    /// of a CTAS or INSERT-SELECT, has a plan to keep.
    kept: Mutex<Arc<[Arc<KeptPlan>]>>,
    /// Set once a plan of the statement could not be kept.
    never_keeps: AtomicBool,
}

impl PreparedStatement {
    pub(crate) fn new(stmt: Statement) -> Self {
        PreparedStatement {
            stmt,
            kept: Mutex::new(Arc::new([])),
            never_keeps: AtomicBool::new(false),
        }
    }

    pub(crate) fn statement(&self) -> &Statement {
        &self.stmt
    }

    /// The newest plan kept for `settings` whose dependencies all still
    /// hold in `catalog` and `udfs` under executor-config epoch
    /// `config_epoch`.
    pub(crate) fn lookup(
        &self,
        settings: &PlanSettings,
        catalog: &Catalog,
        udfs: &UdfRegistry,
        config_epoch: u64,
    ) -> Option<Arc<LogicalPlan>> {
        let kept = Arc::clone(&self.kept.lock());
        let holds = |k: &&Arc<KeptPlan>| {
            k.planned_under(settings)
                && k.config_epoch == config_epoch
                && k.deps.hold(catalog, udfs)
        };
        kept.iter().rev().find(holds).map(|k| Arc::clone(&k.plan))
    }

    /// Whether the statement may still keep a plan, i.e. no plan of it
    /// has yet failed to be kept.
    pub(crate) fn keeps_plans(&self) -> bool {
        !self.never_keeps.load(Ordering::Relaxed)
    }

    /// Keeps `plan` as the newest; `None` (a plan that cannot be kept)
    /// stops the statement keeping any.
    pub(crate) fn keep(&self, plan: Option<KeptPlan>) {
        let Some(plan) = plan else {
            self.never_keeps.store(true, Ordering::Relaxed);
            *self.kept.lock() = Arc::new([]);
            return;
        };
        let mut kept = self.kept.lock();
        if !self.keeps_plans() {
            return;
        }
        let older = kept.len().saturating_sub(KEPT_PLANS - 1);
        *kept = kept[older..].iter().cloned().chain([Arc::new(plan)]).collect();
    }
}
