//! Column (projection) pruning.
//!
//! After join lowering, intermediate nodes can carry columns nobody
//! upstream reads — a joined row drags both sides' full width through
//! every subsequent operator. This pass walks the plan top-down with the
//! set of required column indices, narrows children, and remaps every
//! expression.

use std::collections::BTreeSet;

use crate::expr::BoundExpr;
use crate::plan::logical::LogicalPlan;
use crate::table::{Field, Schema};

/// Prunes unused columns below the root. The root's full output (column
/// set, order and names) is always preserved: when the root is itself a
/// projection, pruning starts below it so pure-permutation projections
/// deeper in the tree can be elided without disturbing the result schema.
pub fn prune_columns(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Project { input, exprs, schema } => {
            let mut used: BTreeSet<usize> = BTreeSet::new();
            for e in &exprs {
                used.extend(e.referenced_columns());
            }
            let (child, cmap) = prune(*input, &used);
            let exprs = exprs
                .into_iter()
                .map(|mut e| {
                    e.remap_columns(&cmap);
                    e
                })
                .collect();
            LogicalPlan::Project { input: Box::new(child), exprs, schema }
        }
        // Sort/Limit above the root projection: recurse through them.
        LogicalPlan::Sort { input, keys } => {
            let inner = prune_columns(*input);
            LogicalPlan::Sort { input: Box::new(inner), keys }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(prune_columns(*input)), n }
        }
        other => {
            let all: BTreeSet<usize> = (0..other.schema().len()).collect();
            prune(other, &all).0
        }
    }
}

/// Returns the pruned plan and the mapping `old column index → new
/// position` for every retained column.
fn prune(plan: LogicalPlan, required: &BTreeSet<usize>) -> (LogicalPlan, Vec<usize>) {
    let width = plan.schema().len();
    // Zero-column tables lose their row count (COUNT(*) requires no
    // columns at all): always keep at least one.
    let keep_first;
    let required = if required.is_empty() && width > 0 {
        keep_first = BTreeSet::from([0]);
        &keep_first
    } else {
        required
    };
    match plan {
        LogicalPlan::Project { input, exprs, schema } => {
            // Keep only the required projection expressions.
            let kept: Vec<usize> = required.iter().copied().filter(|&i| i < exprs.len()).collect();
            let mut used: BTreeSet<usize> = BTreeSet::new();
            for &i in &kept {
                used.extend(exprs[i].referenced_columns());
            }
            // A pure column permutation/subset below the root does no
            // computation: elide it and let parents reference the child
            // directly (column names below the root are immaterial —
            // everything is positional).
            if kept.iter().all(|&i| matches!(exprs[i], BoundExpr::Column(_))) {
                let (child, cmap) = prune(*input, &used);
                let mut map = vec![usize::MAX; width];
                for &old in &kept {
                    let BoundExpr::Column(c) = exprs[old] else { unreachable!() };
                    map[old] = cmap[c];
                }
                return (child, map);
            }
            let (child, cmap) = prune(*input, &used);
            let mut new_exprs = Vec::with_capacity(kept.len());
            let mut new_fields = Vec::with_capacity(kept.len());
            let mut map = vec![usize::MAX; width];
            for (new_pos, &old) in kept.iter().enumerate() {
                let mut e = exprs[old].clone();
                e.remap_columns(&cmap);
                new_exprs.push(e);
                new_fields.push(schema.field(old).clone());
                map[old] = new_pos;
            }
            (
                LogicalPlan::Project {
                    input: Box::new(child),
                    exprs: new_exprs,
                    schema: Schema::new(new_fields),
                },
                map,
            )
        }
        LogicalPlan::Filter { input, mut predicate } => {
            let mut used = required.clone();
            used.extend(predicate.referenced_columns());
            let (child, cmap) = prune(*input, &used);
            predicate.remap_columns(&cmap);
            (LogicalPlan::Filter { input: Box::new(child), predicate }, cmap)
        }
        LogicalPlan::Join { left, right, keys, residual, algorithm, output, schema } => {
            // Pruning runs once, before any mask exists.
            debug_assert!(output.is_none(), "prune runs on unmasked joins");
            let full_schema = schema;
            let l_width = left.schema().len();
            let mut l_req: BTreeSet<usize> = BTreeSet::new();
            let mut r_req: BTreeSet<usize> = BTreeSet::new();
            for &i in required {
                if i < l_width {
                    l_req.insert(i);
                } else {
                    r_req.insert(i - l_width);
                }
            }
            for (lk, rk) in &keys {
                l_req.extend(lk.referenced_columns());
                r_req.extend(rk.referenced_columns());
            }
            if let Some(res) = &residual {
                for c in res.referenced_columns() {
                    if c < l_width {
                        l_req.insert(c);
                    } else {
                        r_req.insert(c - l_width);
                    }
                }
            }
            let (l_plan, l_map) = prune(*left, &l_req);
            let (r_plan, r_map) = prune(*right, &r_req);
            let new_l_width = l_plan.schema().len();
            let keys = keys
                .into_iter()
                .map(|(mut lk, mut rk)| {
                    lk.remap_columns(&l_map);
                    rk.remap_columns(&r_map);
                    (lk, rk)
                })
                .collect();
            // Combined map for residual and parents.
            let mut map = vec![usize::MAX; width];
            for (old, &new) in l_map.iter().enumerate() {
                if new != usize::MAX {
                    map[old] = new;
                }
            }
            for (old, &new) in r_map.iter().enumerate() {
                if new != usize::MAX {
                    map[l_width + old] = new_l_width + new;
                }
            }
            let residual = residual.map(|mut res| {
                res.remap_columns(&map);
                res
            });
            // Mask the join output down to what parents actually read:
            // key-only columns are gathered for probing but never
            // materialized.
            let pruned_width = new_l_width + r_plan.schema().len();
            let pruned_fields: Vec<Field> =
                l_plan.schema().fields().iter().chain(r_plan.schema().fields()).cloned().collect();
            let wanted: Vec<usize> = required
                .iter()
                .filter(|&&old| map[old] != usize::MAX)
                .map(|&old| map[old])
                .collect();
            let (out_mask, out_schema, final_map) = if wanted.len() < pruned_width {
                let mut sorted = wanted.clone();
                sorted.sort_unstable();
                sorted.dedup();
                let fields: Vec<Field> = sorted.iter().map(|&i| pruned_fields[i].clone()).collect();
                // Residual is evaluated pre-mask (over the pruned l++r).
                let mut fmap = vec![usize::MAX; width];
                for &old in required.iter() {
                    let mid = map[old];
                    if mid != usize::MAX {
                        fmap[old] = sorted.binary_search(&mid).expect("masked column present");
                    }
                }
                (Some(sorted), Schema::new(fields), fmap)
            } else {
                (None, Schema::new(pruned_fields), map)
            };
            let _ = full_schema;
            (
                LogicalPlan::Join {
                    left: Box::new(l_plan),
                    right: Box::new(r_plan),
                    keys,
                    residual,
                    algorithm,
                    output: out_mask,
                    schema: out_schema,
                },
                final_map,
            )
        }
        LogicalPlan::Cross { left, right, .. } => {
            let l_width = left.schema().len();
            let mut l_req: BTreeSet<usize> = BTreeSet::new();
            let mut r_req: BTreeSet<usize> = BTreeSet::new();
            for &i in required {
                if i < l_width {
                    l_req.insert(i);
                } else {
                    r_req.insert(i - l_width);
                }
            }
            let (l_plan, l_map) = prune(*left, &l_req);
            let (r_plan, r_map) = prune(*right, &r_req);
            let new_l_width = l_plan.schema().len();
            let mut map = vec![usize::MAX; width];
            for (old, &new) in l_map.iter().enumerate() {
                if new != usize::MAX {
                    map[old] = new;
                }
            }
            for (old, &new) in r_map.iter().enumerate() {
                if new != usize::MAX {
                    map[l_width + old] = new_l_width + new;
                }
            }
            let schema = Schema::new(
                l_plan
                    .schema()
                    .fields()
                    .iter()
                    .chain(r_plan.schema().fields())
                    .cloned()
                    .collect::<Vec<Field>>(),
            );
            (LogicalPlan::Cross { left: Box::new(l_plan), right: Box::new(r_plan), schema }, map)
        }
        LogicalPlan::Aggregate { input, group, aggs, schema } => {
            let mut used: BTreeSet<usize> = BTreeSet::new();
            for g in &group {
                used.extend(g.referenced_columns());
            }
            for a in &aggs {
                if let Some(arg) = &a.arg {
                    used.extend(arg.referenced_columns());
                }
            }
            let (child, cmap) = prune(*input, &used);
            let group = group
                .into_iter()
                .map(|mut g| {
                    g.remap_columns(&cmap);
                    g
                })
                .collect();
            let aggs = aggs
                .into_iter()
                .map(|mut a| {
                    if let Some(arg) = &mut a.arg {
                        arg.remap_columns(&cmap);
                    }
                    a
                })
                .collect();
            // The aggregate's own output (groups + aggs) is kept whole.
            let map = (0..width).collect();
            (LogicalPlan::Aggregate { input: Box::new(child), group, aggs, schema }, map)
        }
        LogicalPlan::JoinAggregate { left, right, keys, group, aggs, schema } => {
            // Fusion normally runs after pruning, but be correct if a fused
            // node is pruned again: narrow both sides to the key, group and
            // aggregate-argument columns; the output (groups + aggs) stays
            // whole, exactly like `Aggregate`.
            let l_width = left.schema().len();
            let mut l_req: BTreeSet<usize> = BTreeSet::new();
            let mut r_req: BTreeSet<usize> = BTreeSet::new();
            let mut split = |c: usize| {
                if c < l_width {
                    l_req.insert(c);
                } else {
                    r_req.insert(c - l_width);
                }
            };
            for g in &group {
                g.referenced_columns().into_iter().for_each(&mut split);
            }
            for a in &aggs {
                if let Some(arg) = &a.arg {
                    arg.referenced_columns().into_iter().for_each(&mut split);
                }
            }
            for (lk, rk) in &keys {
                l_req.extend(lk.referenced_columns());
                r_req.extend(rk.referenced_columns());
            }
            let (l_plan, l_map) = prune(*left, &l_req);
            let (r_plan, r_map) = prune(*right, &r_req);
            let new_l_width = l_plan.schema().len();
            let keys = keys
                .into_iter()
                .map(|(mut lk, mut rk)| {
                    lk.remap_columns(&l_map);
                    rk.remap_columns(&r_map);
                    (lk, rk)
                })
                .collect();
            let mut map = vec![usize::MAX; l_width + r_map.len()];
            for (old, &new) in l_map.iter().enumerate() {
                if new != usize::MAX {
                    map[old] = new;
                }
            }
            for (old, &new) in r_map.iter().enumerate() {
                if new != usize::MAX {
                    map[l_width + old] = new_l_width + new;
                }
            }
            let group = group
                .into_iter()
                .map(|mut g| {
                    g.remap_columns(&map);
                    g
                })
                .collect();
            let aggs = aggs
                .into_iter()
                .map(|mut a| {
                    if let Some(arg) = &mut a.arg {
                        arg.remap_columns(&map);
                    }
                    a
                })
                .collect();
            (
                LogicalPlan::JoinAggregate {
                    left: Box::new(l_plan),
                    right: Box::new(r_plan),
                    keys,
                    group,
                    aggs,
                    schema,
                },
                (0..width).collect(),
            )
        }
        LogicalPlan::Sort { input, keys } => {
            let mut used = required.clone();
            for (k, _) in &keys {
                used.extend(k.referenced_columns());
            }
            let (child, cmap) = prune(*input, &used);
            let keys = keys
                .into_iter()
                .map(|(mut k, asc)| {
                    k.remap_columns(&cmap);
                    (k, asc)
                })
                .collect();
            (LogicalPlan::Sort { input: Box::new(child), keys }, cmap)
        }
        LogicalPlan::Limit { input, n } => {
            let (child, cmap) = prune(*input, required);
            (LogicalPlan::Limit { input: Box::new(child), n }, cmap)
        }
        // Leaves: narrow with a projection when columns are unused.
        leaf @ (LogicalPlan::Scan { .. }
        | LogicalPlan::Values { .. }
        | LogicalPlan::MultiJoin { .. }) => {
            let schema = leaf.schema().clone();
            if required.len() == schema.len() {
                return (leaf, (0..width).collect());
            }
            let kept: Vec<usize> = required.iter().copied().filter(|&i| i < width).collect();
            if kept.len() == schema.len() {
                return (leaf, (0..width).collect());
            }
            let mut map = vec![usize::MAX; width];
            let mut exprs = Vec::with_capacity(kept.len());
            let mut fields = Vec::with_capacity(kept.len());
            for (new_pos, &old) in kept.iter().enumerate() {
                map[old] = new_pos;
                exprs.push(BoundExpr::Column(old));
                fields.push(schema.field(old).clone());
            }
            (
                LogicalPlan::Project { input: Box::new(leaf), exprs, schema: Schema::new(fields) },
                map,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::table::Table;
    use crate::value::DataType;

    fn scan3() -> LogicalPlan {
        LogicalPlan::Values {
            table: Table::new(
                Schema::new(vec![
                    Field::new("a", DataType::Int64),
                    Field::new("b", DataType::Int64),
                    Field::new("c", DataType::Int64),
                ]),
                vec![
                    Column::Int64(vec![1, 2]),
                    Column::Int64(vec![10, 20]),
                    Column::Int64(vec![100, 200]),
                ],
            )
            .unwrap(),
        }
    }

    #[test]
    fn join_children_are_narrowed() {
        // Join on a=a, project only left.b: right.b/right.c unused, left.c unused.
        let left = scan3();
        let right = scan3();
        let schema = Schema::new(
            left.schema().fields().iter().chain(right.schema().fields()).cloned().collect(),
        );
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                keys: vec![(BoundExpr::Column(0), BoundExpr::Column(0))],
                residual: None,
                algorithm: Default::default(),
                output: None,
                schema,
            }),
            exprs: vec![BoundExpr::Column(1)],
            schema: Schema::new(vec![Field::new("b", DataType::Int64)]),
        };
        let pruned = prune_columns(plan);
        // The join materializes only left.b — key columns are probed but
        // masked out of the output.
        let LogicalPlan::Project { input, .. } = &pruned else { panic!() };
        assert_eq!(input.schema().len(), 1, "{pruned}");
        let LogicalPlan::Join { output, .. } = input.as_ref() else { panic!("{pruned}") };
        assert!(output.is_some());
    }

    #[test]
    fn pruned_plan_produces_same_rows() {
        use crate::exec::{execute, ExecConfig, ExecContext};
        let left = scan3();
        let right = scan3();
        let schema = Schema::new(
            left.schema().fields().iter().chain(right.schema().fields()).cloned().collect(),
        );
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                keys: vec![(BoundExpr::Column(0), BoundExpr::Column(0))],
                residual: None,
                algorithm: Default::default(),
                output: None,
                schema,
            }),
            exprs: vec![BoundExpr::Column(1), BoundExpr::Column(5)],
            schema: Schema::new(vec![
                Field::new("b", DataType::Int64),
                Field::new("c2", DataType::Int64),
            ]),
        };
        let catalog = crate::catalog::Catalog::new();
        let udfs = crate::udf::UdfRegistry::new();
        let ops = crate::exec::OpCounters::default();
        let config = ExecConfig::default();
        let ctx = ExecContext {
            catalog: &catalog,
            udfs: &udfs,
            ops: &ops,
            config: &config,
            tracer: obs::disabled(),
            span: obs::SpanId::NONE,
            governor: govern::Governor::unrestricted(),
            budget: None,
        };
        let before = execute(&plan, &ctx).unwrap();
        let after = execute(&prune_columns(plan), &ctx).unwrap();
        assert_eq!(before, after);
    }
}
