//! Rule/cost-based optimizer.
//!
//! The planner leaves the FROM clause as an n-ary [`LogicalPlan::MultiJoin`]
//! with a pool of bound predicate conjuncts. This module lowers it:
//!
//! 1. single-relation predicates are pushed onto their relation,
//! 2. cross-relation equalities become hash-join keys,
//! 3. joins are ordered greedily by estimated output cardinality using the
//!    installed [`CostModel`] (the DL2SQL crate swaps in the paper's
//!    customized model through the same interface),
//! 4. the paper's hint rules (Sec. IV-B) are applied when enabled:
//!    *nUDF placement* — each UDF predicate is either evaluated at scan
//!    time or delayed past the joins, decided by comparing full-plan cost
//!    estimates; *symmetric hash join* — a join whose key contains a UDF
//!    call switches to [`JoinAlgorithm::SymmetricHash`].

pub mod fold;
pub mod fuse;
pub mod prune;

use std::sync::Arc;

pub use fold::fold_plan_constants;
pub use fuse::fuse_join_aggregates;
pub use prune::prune_columns;

use crate::cost::{CostContext, CostModel};
use crate::error::{Error, Result};
use crate::expr::BoundExpr;
use crate::plan::logical::{JoinAlgorithm, LogicalPlan};
use crate::sql::ast::BinOp;
use crate::table::{Field, Schema};

/// Optimizer behavior switches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// Order joins by estimated cardinality (vs. the textual FROM order).
    pub reorder_joins: bool,
    /// Apply the nUDF placement hint (paper Sec. IV-B rule 1): compare
    /// evaluating UDF predicates at scan time against delaying them past
    /// the joins, and keep the cheaper plan.
    pub udf_placement_hints: bool,
    /// Use the symmetric hash join when a join key contains a UDF call
    /// (paper Sec. IV-B rule 3).
    pub symmetric_for_udf_joins: bool,
    /// Rewrite `Aggregate` over an equi hash `Join` into the fused
    /// [`LogicalPlan::JoinAggregate`] operator, which folds aggregate
    /// partials during the probe instead of materializing the join output
    /// (the DL2SQL conv hot path). Disable to force the unfused pair.
    pub fuse_join_aggregates: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            reorder_joins: true,
            udf_placement_hints: false,
            symmetric_for_udf_joins: false,
            fuse_join_aggregates: true,
        }
    }
}

/// The optimizer.
pub struct Optimizer {
    pub config: OptimizerConfig,
    pub cost_model: Arc<dyn CostModel>,
}

impl Optimizer {
    /// Creates an optimizer with the given configuration and cost model.
    pub fn new(config: OptimizerConfig, cost_model: Arc<dyn CostModel>) -> Self {
        Optimizer { config, cost_model }
    }

    /// Optimizes a plan: children first, then any MultiJoin at this level.
    pub fn optimize(&self, plan: LogicalPlan, ctx: &CostContext<'_>) -> Result<LogicalPlan> {
        let plan = self.optimize_children(plan, ctx)?;
        match plan {
            LogicalPlan::MultiJoin { inputs, predicates, schema } => {
                self.lower_multijoin(inputs, predicates, schema, ctx)
            }
            other => Ok(other),
        }
    }

    fn optimize_children(&self, plan: LogicalPlan, ctx: &CostContext<'_>) -> Result<LogicalPlan> {
        Ok(match plan {
            LogicalPlan::Filter { input, predicate } => {
                LogicalPlan::Filter { input: Box::new(self.optimize(*input, ctx)?), predicate }
            }
            LogicalPlan::Project { input, exprs, schema } => {
                LogicalPlan::Project { input: Box::new(self.optimize(*input, ctx)?), exprs, schema }
            }
            LogicalPlan::Join { left, right, keys, residual, algorithm, output, schema } => {
                LogicalPlan::Join {
                    left: Box::new(self.optimize(*left, ctx)?),
                    right: Box::new(self.optimize(*right, ctx)?),
                    keys,
                    residual,
                    algorithm,
                    output,
                    schema,
                }
            }
            LogicalPlan::Cross { left, right, schema } => LogicalPlan::Cross {
                left: Box::new(self.optimize(*left, ctx)?),
                right: Box::new(self.optimize(*right, ctx)?),
                schema,
            },
            LogicalPlan::Aggregate { input, group, aggs, schema } => LogicalPlan::Aggregate {
                input: Box::new(self.optimize(*input, ctx)?),
                group,
                aggs,
                schema,
            },
            LogicalPlan::JoinAggregate { left, right, keys, group, aggs, schema } => {
                LogicalPlan::JoinAggregate {
                    left: Box::new(self.optimize(*left, ctx)?),
                    right: Box::new(self.optimize(*right, ctx)?),
                    keys,
                    group,
                    aggs,
                    schema,
                }
            }
            LogicalPlan::Sort { input, keys } => {
                LogicalPlan::Sort { input: Box::new(self.optimize(*input, ctx)?), keys }
            }
            LogicalPlan::Limit { input, n } => {
                LogicalPlan::Limit { input: Box::new(self.optimize(*input, ctx)?), n }
            }
            LogicalPlan::MultiJoin { inputs, predicates, schema } => {
                let inputs = inputs
                    .into_iter()
                    .map(|i| self.optimize(i, ctx))
                    .collect::<Result<Vec<_>>>()?;
                LogicalPlan::MultiJoin { inputs, predicates, schema }
            }
            leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::Values { .. }) => leaf,
        })
    }

    // ------------------------------------------------------------------
    // MultiJoin lowering
    // ------------------------------------------------------------------

    fn lower_multijoin(
        &self,
        inputs: Vec<LogicalPlan>,
        predicates: Vec<BoundExpr>,
        schema: Schema,
        ctx: &CostContext<'_>,
    ) -> Result<LogicalPlan> {
        // Relation id of every global column index.
        let mut col_owner: Vec<usize> = Vec::with_capacity(schema.len());
        for (rel, input) in inputs.iter().enumerate() {
            col_owner.extend(std::iter::repeat_n(rel, input.schema().len()));
        }

        // Partition the pool: UDF-bearing single-relation predicates are
        // subject to the placement hint; everything else is fixed.
        let mut udf_single: Vec<BoundExpr> = Vec::new();
        let mut fixed: Vec<BoundExpr> = Vec::new();
        for p in predicates {
            let rels = referenced_relations(&p, &col_owner);
            if rels.len() <= 1 && p.contains_udf() {
                udf_single.push(p);
            } else {
                fixed.push(p);
            }
        }

        if !self.config.udf_placement_hints || udf_single.is_empty() {
            // Without hints every UDF predicate is evaluated at scan time
            // (the paper's un-optimized DL2SQL behavior).
            let mut all = fixed;
            all.extend(udf_single);
            return self.lower_with_placement(&inputs, &all, &[], &schema, &col_owner, ctx);
        }

        // Hint rule 1: choose, per UDF predicate, scan-time vs delayed
        // evaluation by comparing full-plan cost estimates. Small predicate
        // counts are enumerated exhaustively; larger ones fall back to the
        // two extreme assignments.
        let n = udf_single.len();
        let assignments: Vec<u32> =
            if n <= 4 { (0..(1u32 << n)).collect() } else { vec![0, (1u32 << n.min(31)) - 1] };
        let mut best: Option<(f64, LogicalPlan)> = None;
        for mask in assignments {
            let mut pushed = fixed.clone();
            let mut delayed = Vec::new();
            for (i, p) in udf_single.iter().enumerate() {
                if mask & (1 << i) == 0 {
                    pushed.push(p.clone());
                } else {
                    delayed.push(p.clone());
                }
            }
            let candidate =
                self.lower_with_placement(&inputs, &pushed, &delayed, &schema, &col_owner, ctx)?;
            let cost = self.cost_model.estimate(&candidate, ctx).cost;
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, candidate));
            }
        }
        Ok(best.expect("at least one candidate").1)
    }

    /// Lowers with a concrete placement: `pushed` predicates participate in
    /// pushdown/join extraction; `delayed` ones are applied above the final
    /// join (remapped to the output column order).
    fn lower_with_placement(
        &self,
        inputs: &[LogicalPlan],
        pushed: &[BoundExpr],
        delayed: &[BoundExpr],
        schema: &Schema,
        col_owner: &[usize],
        ctx: &CostContext<'_>,
    ) -> Result<LogicalPlan> {
        let total_cols = col_owner.len();

        // Start: one component per relation, remembering each global
        // column's local position.
        struct Component {
            plan: LogicalPlan,
            rels: Vec<usize>,
            /// global column index -> local position (usize::MAX elsewhere)
            map: Vec<usize>,
        }
        let mut components: Vec<Component> = Vec::new();
        {
            let mut offset = 0usize;
            for (rel, input) in inputs.iter().enumerate() {
                let n = input.schema().len();
                let mut map = vec![usize::MAX; total_cols];
                for local in 0..n {
                    map[offset + local] = local;
                }
                components.push(Component { plan: input.clone(), rels: vec![rel], map });
                offset += n;
            }
        }

        // Partition pushed predicates: single-relation -> filter onto the
        // component now; multi-relation -> pool for joins.
        let mut pool: Vec<BoundExpr> = Vec::new();
        for p in pushed {
            let rels = referenced_relations(p, col_owner);
            if rels.len() <= 1 {
                let rel = rels.first().copied().unwrap_or(0);
                let comp =
                    components.iter_mut().find(|c| c.rels.contains(&rel)).expect("relation exists");
                let mut local = p.clone();
                local.remap_columns(&comp.map);
                comp.plan = LogicalPlan::Filter {
                    input: Box::new(std::mem::replace(
                        &mut comp.plan,
                        LogicalPlan::Values {
                            table: crate::table::Table::empty(Schema::default()),
                        },
                    )),
                    predicate: local,
                };
            } else {
                pool.push(p.clone());
            }
        }

        // Merge components until one remains.
        while components.len() > 1 {
            // Candidate pairs that share an equi predicate.
            let mut choice: Option<(usize, usize, f64)> = None;
            let pairs: Vec<(usize, usize)> = if self.config.reorder_joins {
                let mut v = Vec::new();
                for i in 0..components.len() {
                    for j in (i + 1)..components.len() {
                        v.push((i, j));
                    }
                }
                v
            } else {
                vec![(0, 1)]
            };
            for (i, j) in pairs {
                // Build the candidate join and price it with the installed
                // cost model (the DL2SQL model recognizes neural-table
                // patterns here, which is what orders the fused conv
                // statements correctly).
                let mut keys: Vec<(BoundExpr, BoundExpr)> = Vec::new();
                for p in &pool {
                    if let Some((mut lk, mut rk)) =
                        equi_pair(p, col_owner, &components[i].rels, &components[j].rels)
                    {
                        lk.remap_columns(&components[i].map);
                        rk.remap_columns(&components[j].map);
                        keys.push((lk, rk));
                    }
                }
                let est = if keys.is_empty() {
                    // Cross joins only when no equi exists anywhere.
                    let l = self.cost_model.estimate(&components[i].plan, ctx);
                    let r = self.cost_model.estimate(&components[j].plan, ctx);
                    l.rows * r.rows * 1e6
                } else {
                    let schema = Schema::new(
                        components[i]
                            .plan
                            .schema()
                            .fields()
                            .iter()
                            .chain(components[j].plan.schema().fields())
                            .cloned()
                            .collect::<Vec<Field>>(),
                    );
                    let candidate = LogicalPlan::Join {
                        left: Box::new(components[i].plan.clone()),
                        right: Box::new(components[j].plan.clone()),
                        keys,
                        residual: None,
                        algorithm: JoinAlgorithm::Hash,
                        output: None,
                        schema,
                    };
                    self.cost_model.estimate(&candidate, ctx).rows
                };
                if choice.as_ref().is_none_or(|(_, _, c)| est < *c) {
                    choice = Some((i, j, est));
                }
            }
            let (i, j, _) = choice.expect("at least one pair");
            let (a, b) = if i < j {
                let b = components.remove(j);
                let a = components.remove(i);
                (a, b)
            } else {
                unreachable!("pairs are ordered");
            };

            // Extract applicable predicates.
            let combined_rels: Vec<usize> = a.rels.iter().chain(b.rels.iter()).copied().collect();
            let mut keys: Vec<(BoundExpr, BoundExpr)> = Vec::new();
            let mut residuals: Vec<BoundExpr> = Vec::new();
            let mut remaining: Vec<BoundExpr> = Vec::new();
            // Combined map: a keeps positions, b shifts by a's width.
            let a_width = a.plan.schema().len();
            let mut combined_map = vec![usize::MAX; total_cols];
            #[allow(clippy::needless_range_loop)] // g indexes two source maps and the target
            for g in 0..total_cols {
                if a.map[g] != usize::MAX {
                    combined_map[g] = a.map[g];
                } else if b.map[g] != usize::MAX {
                    combined_map[g] = b.map[g] + a_width;
                }
            }
            for p in pool.drain(..) {
                let rels = referenced_relations(&p, col_owner);
                if !rels.iter().all(|r| combined_rels.contains(r)) {
                    remaining.push(p);
                    continue;
                }
                if let Some((mut lk, mut rk)) = equi_pair(&p, col_owner, &a.rels, &b.rels) {
                    lk.remap_columns(&a.map);
                    rk.remap_columns(&b.map);
                    keys.push((lk, rk));
                } else {
                    let mut res = p;
                    res.remap_columns(&combined_map);
                    residuals.push(res);
                }
            }
            pool = remaining;

            let joined_schema = Schema::new(
                a.plan
                    .schema()
                    .fields()
                    .iter()
                    .chain(b.plan.schema().fields())
                    .cloned()
                    .collect::<Vec<Field>>(),
            );
            let plan = if keys.is_empty() {
                let mut plan = LogicalPlan::Cross {
                    left: Box::new(a.plan),
                    right: Box::new(b.plan),
                    schema: joined_schema,
                };
                if !residuals.is_empty() {
                    plan = LogicalPlan::Filter {
                        input: Box::new(plan),
                        predicate: conjoin(residuals),
                    };
                }
                plan
            } else {
                let algorithm = if self.config.symmetric_for_udf_joins
                    && keys.iter().any(|(l, r)| l.contains_udf() || r.contains_udf())
                {
                    JoinAlgorithm::SymmetricHash
                } else {
                    JoinAlgorithm::Hash
                };
                LogicalPlan::Join {
                    left: Box::new(a.plan),
                    right: Box::new(b.plan),
                    keys,
                    residual: (!residuals.is_empty()).then(|| conjoin(residuals)),
                    algorithm,
                    output: None,
                    schema: joined_schema,
                }
            };
            components.push(Component { plan, rels: combined_rels, map: combined_map });
        }

        let last = components.pop().expect("one component remains");
        let mut plan = last.plan;
        let final_map = last.map;

        if !pool.is_empty() {
            return Err(Error::Plan("internal: unapplied join predicates".into()));
        }

        // The join tree's column order may differ from the MultiJoin's
        // declared schema (FROM order); restore it with a projection.
        let identity: Vec<usize> = (0..total_cols).collect();
        let needs_reorder = final_map != identity;
        if needs_reorder {
            let exprs: Vec<BoundExpr> =
                (0..total_cols).map(|g| BoundExpr::Column(final_map[g])).collect();
            plan = LogicalPlan::Project { input: Box::new(plan), exprs, schema: schema.clone() };
        }

        // Delayed UDF predicates run above the joins, in output order.
        for p in delayed {
            let pd = p.clone(); // already bound to the global (output) order
            plan = LogicalPlan::Filter { input: Box::new(plan), predicate: pd };
        }
        Ok(plan)
    }
}

fn conjoin(mut exprs: Vec<BoundExpr>) -> BoundExpr {
    let first = exprs.remove(0);
    exprs.into_iter().fold(first, |acc, e| BoundExpr::Binary {
        left: Box::new(acc),
        op: BinOp::And,
        right: Box::new(e),
    })
}

/// The distinct relations an expression references.
fn referenced_relations(expr: &BoundExpr, col_owner: &[usize]) -> Vec<usize> {
    let mut rels: Vec<usize> =
        expr.referenced_columns().into_iter().map(|c| col_owner[c]).collect();
    rels.sort_unstable();
    rels.dedup();
    rels
}

/// If `p` is `lhs = rhs` with `lhs` entirely over relations `a` and `rhs`
/// entirely over relations `b` (or vice versa), returns the pair oriented
/// as (a-side, b-side).
fn equi_pair(
    p: &BoundExpr,
    col_owner: &[usize],
    a: &[usize],
    b: &[usize],
) -> Option<(BoundExpr, BoundExpr)> {
    let BoundExpr::Binary { left, op: BinOp::Eq, right } = p else {
        return None;
    };
    let l_rels = referenced_relations(left, col_owner);
    let r_rels = referenced_relations(right, col_owner);
    if l_rels.is_empty() || r_rels.is_empty() {
        return None;
    }
    let l_in_a = l_rels.iter().all(|r| a.contains(r));
    let l_in_b = l_rels.iter().all(|r| b.contains(r));
    let r_in_a = r_rels.iter().all(|r| a.contains(r));
    let r_in_b = r_rels.iter().all(|r| b.contains(r));
    if l_in_a && r_in_b {
        Some((left.as_ref().clone(), right.as_ref().clone()))
    } else if l_in_b && r_in_a {
        Some((right.as_ref().clone(), left.as_ref().clone()))
    } else {
        None
    }
}
