//! Join–aggregate fusion.
//!
//! The DL2SQL compiler's convolution and FC statements are a `GROUP BY`
//! over an equi join — `SUM(A.Value * B.Value) ... A INNER JOIN B ON ...
//! GROUP BY ...` — whose join output (one row per (pixel, kernel-weight)
//! pair) is the largest intermediate in the whole system. This pass
//! rewrites such an [`LogicalPlan::Aggregate`]-over-[`LogicalPlan::Join`]
//! pair into the fused [`LogicalPlan::JoinAggregate`] operator, which adds
//! the products into an accumulator grid during the probe
//! (`exec::fused`) so that intermediate is never materialized.
//!
//! The rewrite fires only on the shape the grid folds:
//!
//! * the join is a hash equi join with no residual predicate (a residual
//!   would have to filter materialized pairs),
//! * every aggregate is a non-DISTINCT `SUM(a * b)` whose factors each
//!   read one join side, one factor per side, both typed `Float64`, and
//! * there are at most two group keys, each typed `Int64` and read from
//!   one side,
//!
//! with no UDF call in any factor or key. The types are the ones the join
//! inputs' schemas give at plan time. Everything else stays the unfused
//! pair: a `COUNT`, `MAX` or single-side `SUM` has no grid to fold into,
//! and an aggregate over a UDF must run after the join filtered the UDF's
//! input, not over every row of one side. When the
//! data refuses the grid at run time, the operator runs the unfused
//! pair's own code (`exec::fused`).
//!
//! The pass runs after column pruning, so it also sees (and strips) the
//! join's column-pruning `output` mask by remapping the aggregate's
//! expressions onto the full `left ++ right` column space.

use crate::expr::BoundExpr;
use crate::plan::logical::{AggExpr, AggFunc, JoinAlgorithm, LogicalPlan};
use crate::sql::ast::BinOp;
use crate::table::Schema;
use crate::udf::UdfRegistry;
use crate::value::DataType;

/// Rewrites every fusable Aggregate-over-Join pair in the plan.
pub fn fuse_join_aggregates(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Aggregate { input, group, aggs, schema } => {
            let input = fuse_join_aggregates(*input);
            match try_fuse(input, group, aggs) {
                Ok((left, right, keys, group, aggs)) => {
                    LogicalPlan::JoinAggregate { left, right, keys, group, aggs, schema }
                }
                Err(unfused) => {
                    let (input, group, aggs) = *unfused;
                    LogicalPlan::Aggregate { input: Box::new(input), group, aggs, schema }
                }
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            LogicalPlan::Filter { input: Box::new(fuse_join_aggregates(*input)), predicate }
        }
        LogicalPlan::Project { input, exprs, schema } => {
            LogicalPlan::Project { input: Box::new(fuse_join_aggregates(*input)), exprs, schema }
        }
        LogicalPlan::Join { left, right, keys, residual, algorithm, output, schema } => {
            LogicalPlan::Join {
                left: Box::new(fuse_join_aggregates(*left)),
                right: Box::new(fuse_join_aggregates(*right)),
                keys,
                residual,
                algorithm,
                output,
                schema,
            }
        }
        LogicalPlan::Cross { left, right, schema } => LogicalPlan::Cross {
            left: Box::new(fuse_join_aggregates(*left)),
            right: Box::new(fuse_join_aggregates(*right)),
            schema,
        },
        LogicalPlan::JoinAggregate { left, right, keys, group, aggs, schema } => {
            LogicalPlan::JoinAggregate {
                left: Box::new(fuse_join_aggregates(*left)),
                right: Box::new(fuse_join_aggregates(*right)),
                keys,
                group,
                aggs,
                schema,
            }
        }
        LogicalPlan::Sort { input, keys } => {
            LogicalPlan::Sort { input: Box::new(fuse_join_aggregates(*input)), keys }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(fuse_join_aggregates(*input)), n }
        }
        LogicalPlan::MultiJoin { inputs, predicates, schema } => LogicalPlan::MultiJoin {
            inputs: inputs.into_iter().map(fuse_join_aggregates).collect(),
            predicates,
            schema,
        },
        leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::Values { .. }) => leaf,
    }
}

type Fused =
    (Box<LogicalPlan>, Box<LogicalPlan>, Vec<(BoundExpr, BoundExpr)>, Vec<BoundExpr>, Vec<AggExpr>);
type Unfused = Box<(LogicalPlan, Vec<BoundExpr>, Vec<AggExpr>)>;

/// Attempts the fusion; returns the original parts untouched on any other
/// shape.
fn try_fuse(
    input: LogicalPlan,
    group: Vec<BoundExpr>,
    aggs: Vec<AggExpr>,
) -> Result<Fused, Unfused> {
    // Only a plain hash equi join with no residual qualifies.
    let rebound = match &input {
        LogicalPlan::Join {
            left,
            right,
            keys,
            residual: None,
            algorithm: JoinAlgorithm::Hash,
            output,
            ..
        } if !keys.is_empty() => {
            grid_shape(left.schema(), right.schema(), output.as_deref(), &group, &aggs)
        }
        _ => None,
    };
    let Some((full_group, full_aggs)) = rebound else {
        return Err(Box::new((input, group, aggs)));
    };
    let LogicalPlan::Join { left, right, keys, .. } = input else { unreachable!() };
    Ok((left, right, keys, full_group, full_aggs))
}

/// The group keys and aggregates rebound over the join's full
/// `left ++ right` columns (undoing its column-pruning `output` mask),
/// when they have the grid's shape (see the module docs).
fn grid_shape(
    left: &Schema,
    right: &Schema,
    output: Option<&[usize]>,
    group: &[BoundExpr],
    aggs: &[AggExpr],
) -> Option<(Vec<BoundExpr>, Vec<AggExpr>)> {
    let schema = Schema::new(left.fields().iter().chain(right.fields()).cloned().collect());
    let (l_width, full_width) = (left.len(), schema.len());
    let unmask: Vec<usize> = output.map_or_else(|| (0..full_width).collect(), <[usize]>::to_vec);
    // No UDF is called, so an empty registry types every expression.
    let udfs = UdfRegistry::new();
    let typed = |e: &BoundExpr, want: DataType| {
        !e.contains_udf() && e.data_type(&schema, &udfs).is_ok_and(|t| t == want)
    };
    let (group, aggs) = rebind(group, aggs, &unmask);
    let keys_fit = group.len() <= 2
        && group
            .iter()
            .all(|g| side_of(g, l_width, full_width).is_some() && typed(g, DataType::Int64));
    let sums_fit = !aggs.is_empty()
        && aggs.iter().all(|a| {
            let factors = a.arg.as_ref().and_then(|arg| product_factors(arg, l_width, full_width));
            a.func == AggFunc::Sum
                && !a.distinct
                && factors.is_some_and(|f| f.iter().all(|(_, e)| typed(e, DataType::Float64)))
        });
    (keys_fit && sums_fit).then_some((group, aggs))
}

/// Copies of `group` and `aggs` with every column index sent through
/// `map` (`new = map[old]`).
pub(crate) fn rebind(
    group: &[BoundExpr],
    aggs: &[AggExpr],
    map: &[usize],
) -> (Vec<BoundExpr>, Vec<AggExpr>) {
    let remap = |e: &BoundExpr| {
        let mut e = e.clone();
        e.remap_columns(map);
        e
    };
    let aggs = aggs.iter().map(|a| AggExpr { arg: a.arg.as_ref().map(remap), ..a.clone() });
    (group.iter().map(remap).collect(), aggs.collect())
}

/// Which join side an expression over `left ++ right` columns reads.
/// Column-free expressions count as the left side (they evaluate anywhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    Left,
    Right,
}

pub(crate) fn side_of(expr: &BoundExpr, l_width: usize, full_width: usize) -> Option<Side> {
    let cols = expr.referenced_columns();
    if cols.iter().any(|&c| c >= full_width) {
        return None; // out-of-range reference: never fuse
    }
    if cols.iter().all(|&c| c < l_width) {
        Some(Side::Left)
    } else if cols.iter().all(|&c| c >= l_width) {
        Some(Side::Right)
    } else {
        None
    }
}

/// The factors of an aggregate argument bound over `left ++ right` that is
/// a product of one expression per join side, in source operand order.
pub(crate) fn product_factors(
    arg: &BoundExpr,
    l_width: usize,
    full_width: usize,
) -> Option<[(Side, &BoundExpr); 2]> {
    let BoundExpr::Binary { left, op: BinOp::Mul, right } = arg else { return None };
    let (ls, rs) = (side_of(left, l_width, full_width)?, side_of(right, l_width, full_width)?);
    (ls != rs).then_some([(ls, &**left), (rs, &**right)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Field, Schema};
    use crate::value::DataType;

    /// A scan whose `v` columns are `Float64` values and whose other
    /// columns are `Int64` keys.
    fn scan(name: &str, cols: &[&str]) -> LogicalPlan {
        let typed =
            |c: &str| Field::new(c, if c == "v" { DataType::Float64 } else { DataType::Int64 });
        LogicalPlan::Scan {
            table: name.into(),
            schema: Schema::new(cols.iter().map(|c| typed(c)).collect()),
        }
    }

    fn join(left: LogicalPlan, right: LogicalPlan) -> LogicalPlan {
        let schema = Schema::new(
            left.schema().fields().iter().chain(right.schema().fields()).cloned().collect(),
        );
        LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            keys: vec![(BoundExpr::Column(0), BoundExpr::Column(0))],
            residual: None,
            algorithm: JoinAlgorithm::Hash,
            output: None,
            schema,
        }
    }

    fn sum_of(arg: BoundExpr) -> AggExpr {
        AggExpr { func: AggFunc::Sum, arg: Some(arg), distinct: false, output_name: "s".into() }
    }

    fn agg_over(input: LogicalPlan, group: Vec<BoundExpr>, aggs: Vec<AggExpr>) -> LogicalPlan {
        let mut fields: Vec<Field> =
            (0..group.len()).map(|i| Field::new(format!("g{i}"), DataType::Int64)).collect();
        fields.extend((0..aggs.len()).map(|i| Field::new(format!("a{i}"), DataType::Float64)));
        LogicalPlan::Aggregate { input: Box::new(input), group, aggs, schema: Schema::new(fields) }
    }

    fn mul(l: usize, r: usize) -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(l)),
            op: BinOp::Mul,
            right: Box::new(BoundExpr::Column(r)),
        }
    }

    #[test]
    fn conv_shape_fuses() {
        // SUM(A.v * B.v) GROUP BY B.k, A.m over an equi join.
        let plan = agg_over(
            join(scan("a", &["o", "m", "v"]), scan("b", &["o", "k", "v"])),
            vec![BoundExpr::Column(4), BoundExpr::Column(1)],
            vec![sum_of(mul(2, 5))],
        );
        let fused = fuse_join_aggregates(plan);
        assert!(matches!(fused, LogicalPlan::JoinAggregate { .. }), "{fused}");
        assert!(fused.display_indent().contains("JoinAggregate"));
    }

    #[test]
    fn residual_blocks_fusion() {
        let LogicalPlan::Join { left, right, keys, schema, .. } =
            join(scan("a", &["o", "v"]), scan("b", &["o", "v"]))
        else {
            panic!()
        };
        let with_residual = LogicalPlan::Join {
            left,
            right,
            keys,
            residual: Some(BoundExpr::Binary {
                left: Box::new(BoundExpr::Column(1)),
                op: BinOp::Lt,
                right: Box::new(BoundExpr::Column(3)),
            }),
            algorithm: JoinAlgorithm::Hash,
            output: None,
            schema,
        };
        let plan = agg_over(with_residual, vec![BoundExpr::Column(0)], vec![sum_of(mul(1, 3))]);
        let fused = fuse_join_aggregates(plan);
        assert!(matches!(fused, LogicalPlan::Aggregate { .. }), "{fused}");
    }

    #[test]
    fn stddev_blocks_fusion() {
        let plan = agg_over(
            join(scan("a", &["o", "v"]), scan("b", &["o", "v"])),
            vec![BoundExpr::Column(0)],
            vec![AggExpr {
                func: AggFunc::StddevSamp,
                arg: Some(BoundExpr::Column(1)),
                distinct: false,
                output_name: "s".into(),
            }],
        );
        assert!(matches!(fuse_join_aggregates(plan), LogicalPlan::Aggregate { .. }));
    }

    #[test]
    fn distinct_blocks_fusion() {
        let plan = agg_over(
            join(scan("a", &["o", "v"]), scan("b", &["o", "v"])),
            vec![BoundExpr::Column(0)],
            vec![AggExpr {
                func: AggFunc::Count,
                arg: Some(BoundExpr::Column(1)),
                distinct: true,
                output_name: "c".into(),
            }],
        );
        assert!(matches!(fuse_join_aggregates(plan), LogicalPlan::Aggregate { .. }));
    }

    #[test]
    fn cross_side_sum_blocks_fusion() {
        // SUM(A.v + B.v) cannot fold per side (only products decompose).
        let cross_sum = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(1)),
            op: BinOp::Add,
            right: Box::new(BoundExpr::Column(3)),
        };
        let plan = agg_over(
            join(scan("a", &["o", "v"]), scan("b", &["o", "v"])),
            vec![BoundExpr::Column(0)],
            vec![sum_of(cross_sum)],
        );
        let fused = fuse_join_aggregates(plan);
        assert!(matches!(fused, LogicalPlan::Aggregate { .. }), "{fused}");
    }

    #[test]
    fn failed_fusion_restores_masked_join_exactly() {
        // With a column-pruning mask on the join and an unsupported agg,
        // the rewrite must hand back a plan identical to its input.
        let LogicalPlan::Join { left, right, keys, .. } =
            join(scan("a", &["o", "m", "v"]), scan("b", &["o", "v"]))
        else {
            panic!()
        };
        let masked = LogicalPlan::Join {
            left,
            right,
            keys,
            residual: None,
            algorithm: JoinAlgorithm::Hash,
            output: Some(vec![1, 2, 4]),
            schema: Schema::new(vec![
                Field::new("m", DataType::Int64),
                Field::new("v", DataType::Float64),
                Field::new("v", DataType::Float64),
            ]),
        };
        let plan = agg_over(
            masked,
            vec![BoundExpr::Column(0)],
            // A.v + B.v over the masked layout: not decomposable.
            vec![sum_of(BoundExpr::Binary {
                left: Box::new(BoundExpr::Column(1)),
                op: BinOp::Add,
                right: Box::new(BoundExpr::Column(2)),
            })],
        );
        assert_eq!(fuse_join_aggregates(plan.clone()), plan);
    }

    #[test]
    fn masked_join_fuses_over_the_full_columns() {
        // SUM(A.v * B.v) GROUP BY A.m over a join that passes on only
        // (m, A.v, B.v): the fused node reads the unmasked positions.
        let LogicalPlan::Join { left, right, keys, .. } =
            join(scan("a", &["o", "m", "v"]), scan("b", &["o", "v"]))
        else {
            panic!()
        };
        let masked = LogicalPlan::Join {
            left,
            right,
            keys,
            residual: None,
            algorithm: JoinAlgorithm::Hash,
            output: Some(vec![1, 2, 4]),
            schema: Schema::new(vec![
                Field::new("m", DataType::Int64),
                Field::new("v", DataType::Float64),
                Field::new("v", DataType::Float64),
            ]),
        };
        let plan = agg_over(masked, vec![BoundExpr::Column(0)], vec![sum_of(mul(1, 2))]);
        let LogicalPlan::JoinAggregate { group, aggs, .. } = fuse_join_aggregates(plan) else {
            panic!("the conv shape over a masked join fuses")
        };
        assert_eq!(group, vec![BoundExpr::Column(1)]);
        assert_eq!(aggs[0].arg, Some(mul(2, 4)));
    }

    #[test]
    fn only_the_grid_shape_fuses() {
        // Over a (o, m, v) ⋈ (o, k, v) join: everything but SUM(f64 × f64)
        // with one factor per side and at most two Int64 keys stays the
        // unfused pair.
        let count_star =
            AggExpr { func: AggFunc::Count, arg: None, distinct: false, output_name: "n".into() };
        let max_of = |arg| AggExpr { func: AggFunc::Max, ..sum_of(arg) };
        let udf_factor = BoundExpr::Binary {
            left: Box::new(BoundExpr::Udf { name: "f".into(), args: vec![BoundExpr::Column(2)] }),
            op: BinOp::Mul,
            right: Box::new(BoundExpr::Column(5)),
        };
        let keys = vec![BoundExpr::Column(4), BoundExpr::Column(1)];
        let cases: Vec<(&str, Vec<BoundExpr>, Vec<AggExpr>)> = vec![
            ("COUNT(*)", keys.clone(), vec![count_star.clone()]),
            ("single-side SUM", keys.clone(), vec![sum_of(BoundExpr::Column(2))]),
            ("MAX of a product", keys.clone(), vec![max_of(mul(2, 5))]),
            ("Int64 product", keys.clone(), vec![sum_of(mul(1, 4))]),
            ("product and COUNT(*)", keys.clone(), vec![sum_of(mul(2, 5)), count_star]),
            ("UDF factor", keys.clone(), vec![sum_of(udf_factor)]),
            (
                "three keys",
                vec![BoundExpr::Column(4), BoundExpr::Column(1), BoundExpr::Column(0)],
                vec![sum_of(mul(2, 5))],
            ),
            ("Float64 key", vec![BoundExpr::Column(2)], vec![sum_of(mul(2, 5))]),
            ("no aggregate", keys.clone(), vec![]),
        ];
        for (what, group, aggs) in cases {
            let plan = agg_over(
                join(scan("a", &["o", "m", "v"]), scan("b", &["o", "k", "v"])),
                group,
                aggs,
            );
            assert_eq!(fuse_join_aggregates(plan.clone()), plan, "{what} must stay unfused");
        }
    }

    #[test]
    fn global_aggregate_over_join_fuses() {
        let plan = agg_over(
            join(scan("a", &["o", "v"]), scan("b", &["o", "v"])),
            vec![],
            vec![sum_of(mul(1, 3))],
        );
        assert!(matches!(fuse_join_aggregates(plan), LogicalPlan::JoinAggregate { .. }));
    }
}
