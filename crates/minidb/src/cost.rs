//! Cost estimation with a pluggable model.
//!
//! The optimizer consults a [`CostModel`] for cardinality and cost
//! estimates. [`DefaultCostModel`] is a textbook Selinger-style estimator:
//! per-conjunct selectivity heuristics, `1/max(ndv)` equi-join selectivity
//! when base-table statistics are visible, and a fixed fallback otherwise.
//! It has no knowledge of the regular structure of DL2SQL's feature-map /
//! kernel tables, which is exactly why it over-estimates the conv joins
//! (the phenomenon paper Sec. IV opens with); the `dl2sql` crate installs
//! a customized model implementing the paper's Eq. 3–8 through this same
//! trait.

use crate::catalog::Catalog;
use crate::expr::BoundExpr;
use crate::plan::logical::LogicalPlan;
use crate::sql::ast::BinOp;
use crate::udf::UdfRegistry;
use crate::value::Value;

/// Estimated output cardinality and cumulative cost (in abstract
/// "row-touch" units) for a plan subtree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    /// Estimated output rows.
    pub rows: f64,
    /// Cumulative cost of producing them.
    pub cost: f64,
}

/// Everything a cost model may consult.
pub struct CostContext<'a> {
    pub catalog: &'a Catalog,
    pub udfs: &'a UdfRegistry,
    /// Executor parallelism the plan will run under (the
    /// `ExecConfig::parallelism` knob). `1` means serial execution and
    /// leaves every estimate untouched.
    pub parallelism: usize,
}

/// Cost multiplier for the morsel-parallel portion of an operator's work.
///
/// Amdahl-style with an 85% per-worker efficiency factor (morsel slicing
/// and result concatenation grow with the worker count), so the optimizer
/// never assumes perfect scaling. Exactly `1.0` at `parallelism == 1`,
/// keeping serial plan choices — including DL2SQL-OP's — bit-identical.
pub fn parallel_discount(ctx: &CostContext<'_>) -> f64 {
    let p = ctx.parallelism.max(1) as f64;
    1.0 / (1.0 + 0.85 * (p - 1.0))
}

/// A pluggable cost/cardinality model.
pub trait CostModel: Send + Sync {
    /// Estimates a plan subtree.
    fn estimate(&self, plan: &LogicalPlan, ctx: &CostContext<'_>) -> PlanCost;

    /// Human-readable model name (harness output).
    fn name(&self) -> &'static str {
        "cost-model"
    }
}

/// The built-in estimator.
#[derive(Debug, Clone)]
pub struct DefaultCostModel {
    /// Selectivity assumed for an equality whose sides' distinct counts
    /// are unknown.
    pub default_eq_selectivity: f64,
    /// Selectivity assumed for a range comparison.
    pub default_range_selectivity: f64,
    /// Join-key selectivity when neither side's distinct count is known.
    pub default_join_selectivity: f64,
    /// Whether predicates over UDFs may use the UDF's class histogram
    /// (off by default: a stock optimizer knows nothing about a UDF).
    pub use_udf_selectivity: bool,
    /// Whether per-column distinct counts may be consulted. ClickHouse —
    /// the paper's deployment target — keeps table row counts but no
    /// per-column NDV statistics, so its faithful stand-in runs with this
    /// off ([`DefaultCostModel::clickhouse_like`]); the engine default
    /// keeps it on.
    pub column_stats: bool,
}

impl Default for DefaultCostModel {
    fn default() -> Self {
        DefaultCostModel {
            default_eq_selectivity: 0.1,
            default_range_selectivity: 1.0 / 3.0,
            default_join_selectivity: 0.1,
            use_udf_selectivity: false,
            column_stats: true,
        }
    }
}

impl DefaultCostModel {
    /// A default model that *is* allowed to read UDF histograms — the
    /// configuration the hint rules (paper Sec. IV-B) run under.
    pub fn with_udf_hints() -> Self {
        DefaultCostModel { use_udf_selectivity: true, ..Default::default() }
    }

    /// The paper's "default database cost model": row counts but no
    /// per-column statistics, fixed heuristic selectivities. This is the
    /// baseline paper Figs. 12–13 compare the customized model against.
    pub fn clickhouse_like() -> Self {
        DefaultCostModel { column_stats: false, ..Default::default() }
    }
}

impl CostModel for DefaultCostModel {
    fn estimate(&self, plan: &LogicalPlan, ctx: &CostContext<'_>) -> PlanCost {
        match plan {
            LogicalPlan::Scan { table, .. } => {
                let rows = ctx.catalog.table(table).map_or(1000.0, |t| t.num_rows() as f64);
                PlanCost { rows, cost: rows }
            }
            LogicalPlan::Values { table } => {
                let rows = table.num_rows() as f64;
                PlanCost { rows, cost: rows }
            }
            LogicalPlan::MultiJoin { inputs, predicates, .. } => {
                // Un-lowered n-way join: product cardinality damped by the
                // predicate pool. Only used before lowering.
                let children: Vec<PlanCost> =
                    inputs.iter().map(|i| self.estimate(i, ctx)).collect();
                let mut rows: f64 = children.iter().map(|c| c.rows).product();
                for p in predicates {
                    rows *= self.predicate_selectivity(p, plan, ctx);
                }
                let cost = children.iter().map(|c| c.cost).sum::<f64>() + rows;
                PlanCost { rows: rows.max(1.0), cost }
            }
            LogicalPlan::Filter { input, predicate } => {
                let child = self.estimate(input, ctx);
                let sel = self.predicate_selectivity(predicate, input, ctx);
                let per_row = 1.0 + udf_cost_of_expr(predicate, ctx);
                PlanCost {
                    rows: (child.rows * sel).max(0.0),
                    cost: child.cost + child.rows * per_row * parallel_discount(ctx),
                }
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let child = self.estimate(input, ctx);
                let per_row: f64 =
                    1.0 + exprs.iter().map(|e| udf_cost_of_expr(e, ctx)).sum::<f64>();
                PlanCost {
                    rows: child.rows,
                    cost: child.cost + child.rows * per_row * parallel_discount(ctx),
                }
            }
            LogicalPlan::Join { left, right, keys, residual, .. } => {
                let l = self.estimate(left, ctx);
                let r = self.estimate(right, ctx);
                let mut sel = 1.0;
                for (lk, rk) in keys {
                    sel *= self.join_key_selectivity(lk, left, rk, right, ctx);
                }
                let mut rows = l.rows * r.rows * sel;
                if let Some(res) = residual {
                    rows *= self.predicate_selectivity(res, plan, ctx);
                }
                let rows = rows.max(1.0);
                let udf_keys: f64 = keys
                    .iter()
                    .map(|(lk, rk)| {
                        l.rows * udf_cost_of_expr(lk, ctx) + r.rows * udf_cost_of_expr(rk, ctx)
                    })
                    .sum();
                // The hash-table build stays serial; the probe (and its key
                // evaluation) runs morsel-parallel.
                let build = l.rows.min(r.rows);
                let own = l.rows + r.rows + rows + udf_keys;
                PlanCost {
                    rows,
                    cost: l.cost + r.cost + build + (own - build) * parallel_discount(ctx),
                }
            }
            LogicalPlan::Cross { left, right, .. } => {
                let l = self.estimate(left, ctx);
                let r = self.estimate(right, ctx);
                let rows = (l.rows * r.rows).max(1.0);
                PlanCost { rows, cost: l.cost + r.cost + rows }
            }
            LogicalPlan::Aggregate { input, group, aggs, .. } => {
                let child = self.estimate(input, ctx);
                let rows = if group.is_empty() {
                    1.0
                } else {
                    // Product of group-key distinct counts when derivable,
                    // capped by input rows.
                    let mut ndv_product = 1.0;
                    let mut all_known = true;
                    for g in group {
                        match self.expr_ndv(g, input, ctx) {
                            Some(n) => ndv_product *= n,
                            None => {
                                all_known = false;
                                break;
                            }
                        }
                    }
                    if all_known {
                        ndv_product.min(child.rows).max(1.0)
                    } else {
                        (child.rows * 0.1).max(1.0)
                    }
                };
                let udf: f64 = aggs
                    .iter()
                    .filter_map(|a| a.arg.as_ref())
                    .map(|e| udf_cost_of_expr(e, ctx))
                    .sum();
                PlanCost {
                    rows,
                    cost: child.cost + child.rows * (1.0 + udf) * parallel_discount(ctx),
                }
            }
            LogicalPlan::JoinAggregate { left, right, keys, group, aggs, .. } => {
                let l = self.estimate(left, ctx);
                let r = self.estimate(right, ctx);
                let mut sel = 1.0;
                for (lk, rk) in keys {
                    sel *= self.join_key_selectivity(lk, left, rk, right, ctx);
                }
                let join_rows = (l.rows * r.rows * sel).max(1.0);
                let rows = if group.is_empty() {
                    1.0
                } else {
                    let n_left = left.schema().len();
                    let mut ndv_product = 1.0;
                    let mut all_known = true;
                    for g in group {
                        let ndv = match g {
                            BoundExpr::Column(i) if *i < n_left => self.column_ndv(left, *i, ctx),
                            BoundExpr::Column(i) => self.column_ndv(right, *i - n_left, ctx),
                            _ => None,
                        };
                        match ndv {
                            Some(n) => ndv_product *= n,
                            None => {
                                all_known = false;
                                break;
                            }
                        }
                    }
                    if all_known {
                        ndv_product.min(join_rows).max(1.0)
                    } else {
                        (join_rows * 0.1).max(1.0)
                    }
                };
                let udf_keys: f64 = keys
                    .iter()
                    .map(|(lk, rk)| {
                        l.rows * udf_cost_of_expr(lk, ctx) + r.rows * udf_cost_of_expr(rk, ctx)
                    })
                    .sum();
                let udf_aggs: f64 = aggs
                    .iter()
                    .filter_map(|a| a.arg.as_ref())
                    .map(|e| udf_cost_of_expr(e, ctx))
                    .sum();
                // Serial build on the smaller side; the probe folds each
                // matched pair once and never materializes the join output,
                // so the unfused plan's extra aggregation pass over
                // `join_rows` disappears.
                let build = l.rows.min(r.rows);
                let own = l.rows + r.rows + join_rows * (1.0 + udf_aggs) + udf_keys;
                PlanCost {
                    rows,
                    cost: l.cost + r.cost + build + (own - build) * parallel_discount(ctx),
                }
            }
            LogicalPlan::Sort { input, .. } => {
                let child = self.estimate(input, ctx);
                let n = child.rows.max(2.0);
                PlanCost { rows: child.rows, cost: child.cost + n * n.log2() }
            }
            LogicalPlan::Limit { input, n } => {
                let child = self.estimate(input, ctx);
                PlanCost { rows: child.rows.min(*n as f64), cost: child.cost }
            }
        }
    }

    fn name(&self) -> &'static str {
        "default"
    }
}

impl DefaultCostModel {
    /// Selectivity of a predicate over the given input plan.
    pub fn predicate_selectivity(
        &self,
        pred: &BoundExpr,
        input: &LogicalPlan,
        ctx: &CostContext<'_>,
    ) -> f64 {
        match pred {
            BoundExpr::Literal(Value::Bool(b)) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            BoundExpr::Binary { left, op, right } => match op {
                BinOp::And => {
                    self.predicate_selectivity(left, input, ctx)
                        * self.predicate_selectivity(right, input, ctx)
                }
                BinOp::Or => {
                    let a = self.predicate_selectivity(left, input, ctx);
                    let b = self.predicate_selectivity(right, input, ctx);
                    (a + b - a * b).clamp(0.0, 1.0)
                }
                BinOp::Eq => {
                    // UDF(x) = literal: use the class histogram if allowed.
                    if self.use_udf_selectivity {
                        if let Some(sel) = self.udf_eq_selectivity(left, right, ctx) {
                            return sel;
                        }
                    }
                    if let BoundExpr::Column(i) = left.as_ref() {
                        if let Some(ndv) = self.column_ndv(input, *i, ctx) {
                            return (1.0 / ndv).min(1.0);
                        }
                    }
                    self.default_eq_selectivity
                }
                BinOp::NotEq => {
                    if self.use_udf_selectivity {
                        if let Some(sel) = self.udf_eq_selectivity(left, right, ctx) {
                            return 1.0 - sel;
                        }
                    }
                    1.0 - self.default_eq_selectivity
                }
                BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => self.default_range_selectivity,
                _ => 0.5,
            },
            BoundExpr::Unary { op: crate::sql::ast::UnaryOp::Not, expr } => {
                1.0 - self.predicate_selectivity(expr, input, ctx)
            }
            // A bare boolean column or boolean UDF.
            _ => 0.5,
        }
    }

    /// Selectivity of `udf(args) = literal` via the UDF's class histogram.
    fn udf_eq_selectivity(
        &self,
        left: &BoundExpr,
        right: &BoundExpr,
        ctx: &CostContext<'_>,
    ) -> Option<f64> {
        let (udf_name, lit) = match (left, right) {
            (BoundExpr::Udf { name, .. }, BoundExpr::Literal(v)) => (name, v),
            (BoundExpr::Literal(v), BoundExpr::Udf { name, .. }) => (name, v),
            _ => return None,
        };
        ctx.udfs.get(udf_name)?.selectivity_eq(lit)
    }

    /// Equi-join key selectivity: `1/max(ndv)` where ndv is visible,
    /// else the configured default.
    pub fn join_key_selectivity(
        &self,
        lk: &BoundExpr,
        left: &LogicalPlan,
        rk: &BoundExpr,
        right: &LogicalPlan,
        ctx: &CostContext<'_>,
    ) -> f64 {
        let l_ndv = self.expr_ndv(lk, left, ctx);
        let r_ndv = self.expr_ndv(rk, right, ctx);
        match (l_ndv, r_ndv) {
            (Some(a), Some(b)) => 1.0 / a.max(b).max(1.0),
            (Some(a), None) | (None, Some(a)) => 1.0 / a.max(1.0),
            (None, None) => self.default_join_selectivity,
        }
    }

    fn expr_ndv(
        &self,
        expr: &BoundExpr,
        input: &LogicalPlan,
        ctx: &CostContext<'_>,
    ) -> Option<f64> {
        if let BoundExpr::Column(i) = expr {
            self.column_ndv(input, *i, ctx)
        } else {
            None
        }
    }

    /// Distinct-value count of output column `idx`, traced back through
    /// transparent operators to a base-table column. Disabled entirely
    /// when the model runs without column statistics.
    pub fn column_ndv(&self, plan: &LogicalPlan, idx: usize, ctx: &CostContext<'_>) -> Option<f64> {
        if !self.column_stats {
            return None;
        }
        match plan {
            LogicalPlan::Scan { table, schema } => {
                ctx.catalog.ndv(table, &schema.field(idx).name).map(|n| n as f64)
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => self.column_ndv(input, idx, ctx),
            LogicalPlan::Project { input, exprs, .. } => match exprs.get(idx)? {
                BoundExpr::Column(j) => self.column_ndv(input, *j, ctx),
                _ => None,
            },
            LogicalPlan::Join { left, right, output, .. } => {
                let full = match output {
                    Some(mask) => *mask.get(idx)?,
                    None => idx,
                };
                let n_left = left.schema().len();
                if full < n_left {
                    self.column_ndv(left, full, ctx)
                } else {
                    self.column_ndv(right, full - n_left, ctx)
                }
            }
            LogicalPlan::Cross { left, right, .. } => {
                let n_left = left.schema().len();
                if idx < n_left {
                    self.column_ndv(left, idx, ctx)
                } else {
                    self.column_ndv(right, idx - n_left, ctx)
                }
            }
            LogicalPlan::MultiJoin { inputs, .. } => {
                let mut offset = 0;
                for i in inputs {
                    let n = i.schema().len();
                    if idx < offset + n {
                        return self.column_ndv(i, idx - offset, ctx);
                    }
                    offset += n;
                }
                None
            }
            LogicalPlan::Aggregate { input, group, .. } => match group.get(idx)? {
                BoundExpr::Column(j) => self.column_ndv(input, *j, ctx),
                _ => None,
            },
            LogicalPlan::JoinAggregate { left, right, group, .. } => match group.get(idx)? {
                BoundExpr::Column(j) => {
                    let n_left = left.schema().len();
                    if *j < n_left {
                        self.column_ndv(left, *j, ctx)
                    } else {
                        self.column_ndv(right, *j - n_left, ctx)
                    }
                }
                _ => None,
            },
            LogicalPlan::Values { .. } => None,
        }
    }
}

/// Summed per-row cost of all UDF invocations inside an expression.
pub fn udf_cost_of_expr(expr: &BoundExpr, ctx: &CostContext<'_>) -> f64 {
    match expr {
        BoundExpr::Udf { name, args } => {
            let own = ctx.udfs.get(name).map_or(1.0, |u| u.cost_per_row);
            own + args.iter().map(|a| udf_cost_of_expr(a, ctx)).sum::<f64>()
        }
        BoundExpr::Unary { expr, .. } => udf_cost_of_expr(expr, ctx),
        BoundExpr::Binary { left, right, .. } => {
            udf_cost_of_expr(left, ctx) + udf_cost_of_expr(right, ctx)
        }
        BoundExpr::ScalarFn { args, .. } => args.iter().map(|a| udf_cost_of_expr(a, ctx)).sum(),
        BoundExpr::Column(_) | BoundExpr::Literal(_) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::table::{Field, Schema, Table};
    use crate::value::DataType;

    fn setup() -> (Catalog, UdfRegistry) {
        let catalog = Catalog::new();
        let t = Table::new(
            Schema::new(vec![Field::new("k", DataType::Int64), Field::new("v", DataType::Float64)]),
            vec![
                Column::Int64((0..100).map(|i| i % 10).collect()),
                Column::Float64((0..100).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        catalog.create_table("t", t, false).unwrap();
        (catalog, UdfRegistry::new())
    }

    fn scan(catalog: &Catalog, name: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: name.into(),
            schema: catalog.table(name).unwrap().schema().clone(),
        }
    }

    #[test]
    fn scan_rows_come_from_stats() {
        let (catalog, udfs) = setup();
        let ctx = CostContext { catalog: &catalog, udfs: &udfs, parallelism: 1 };
        let m = DefaultCostModel::default();
        let est = m.estimate(&scan(&catalog, "t"), &ctx);
        assert_eq!(est.rows, 100.0);
    }

    #[test]
    fn equality_filter_uses_ndv() {
        let (catalog, udfs) = setup();
        let ctx = CostContext { catalog: &catalog, udfs: &udfs, parallelism: 1 };
        let m = DefaultCostModel::default();
        let plan = LogicalPlan::Filter {
            input: Box::new(scan(&catalog, "t")),
            predicate: BoundExpr::Binary {
                left: Box::new(BoundExpr::Column(0)),
                op: BinOp::Eq,
                right: Box::new(BoundExpr::Literal(Value::Int64(3))),
            },
        };
        let est = m.estimate(&plan, &ctx);
        // ndv(k)=10 -> 100 * 1/10.
        assert!((est.rows - 10.0).abs() < 1e-9);
    }

    #[test]
    fn join_selectivity_uses_max_ndv() {
        let (catalog, udfs) = setup();
        let ctx = CostContext { catalog: &catalog, udfs: &udfs, parallelism: 1 };
        let m = DefaultCostModel::default();
        let left = scan(&catalog, "t");
        let right = scan(&catalog, "t");
        let schema = Schema::new(
            left.schema().fields().iter().chain(right.schema().fields()).cloned().collect(),
        );
        let plan = LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            keys: vec![(BoundExpr::Column(0), BoundExpr::Column(0))],
            residual: None,
            algorithm: Default::default(),
            output: None,
            schema,
        };
        let est = m.estimate(&plan, &ctx);
        // 100*100/10 = 1000.
        assert!((est.rows - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn udf_histogram_changes_selectivity_only_when_enabled() {
        let (catalog, udfs) = setup();
        udfs.register(
            crate::udf::ScalarUdf::new("classify", vec![DataType::Float64], DataType::Utf8, |_| {
                Ok(Value::Utf8("a".into()))
            })
            .with_cost(500.0)
            .with_class_probabilities(vec![(Value::Utf8("a".into()), 0.02)]),
        );
        let ctx = CostContext { catalog: &catalog, udfs: &udfs, parallelism: 1 };
        let pred = BoundExpr::Binary {
            left: Box::new(BoundExpr::Udf {
                name: "classify".into(),
                args: vec![BoundExpr::Column(1)],
            }),
            op: BinOp::Eq,
            right: Box::new(BoundExpr::Literal(Value::Utf8("a".into()))),
        };
        let input = scan(&catalog, "t");
        let plain = DefaultCostModel::default();
        let hinted = DefaultCostModel::with_udf_hints();
        assert_eq!(plain.predicate_selectivity(&pred, &input, &ctx), plain.default_eq_selectivity);
        assert!((hinted.predicate_selectivity(&pred, &input, &ctx) - 0.02).abs() < 1e-12);
        // And the UDF's cost is visible to filters.
        assert!(udf_cost_of_expr(&pred, &ctx) >= 500.0);
    }

    #[test]
    fn aggregate_groups_capped_by_input() {
        let (catalog, udfs) = setup();
        let ctx = CostContext { catalog: &catalog, udfs: &udfs, parallelism: 1 };
        let m = DefaultCostModel::default();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan(&catalog, "t")),
            group: vec![BoundExpr::Column(0)],
            aggs: vec![],
            schema: Schema::new(vec![Field::new("k", DataType::Int64)]),
        };
        let est = m.estimate(&plan, &ctx);
        assert_eq!(est.rows, 10.0);
    }
}
