//! Symmetric hash join with bucket-level LRU buffering.
//!
//! Paper Sec. IV-B, rule 3: when an nUDF appears in the join condition
//! (`T0.nUDF(x) = T1.y`), hash tables are maintained for *both* sides and
//! each incoming batch probes the opposite side. Because the nUDF is
//! evaluated "in a batch manner", the buffer is managed per hash *bucket*
//! with an LRU policy: touching a key loads its whole bucket, and when the
//! bucket budget is exceeded the least-recently-used bucket is evicted
//! (and counted — re-probes of an evicted bucket are bucket reloads).
//!
//! The implementation is result-equivalent to a classic hash join (both
//! inputs are fully consumed), while faithfully modelling the batched,
//! incremental build/probe structure and exposing eviction/reload counters
//! for analysis.

use crate::column::Key;
use crate::error::Result;
use crate::expr::BoundExpr;
use crate::hash::FxHashMap;
use crate::table::{Schema, Table};

use super::{composite_keys, glue_join, ExecContext};

/// Eviction/reload counters from one symmetric join run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SymmetricJoinMetrics {
    /// Batches consumed (both sides).
    pub batches: u64,
    /// Buckets loaded into memory.
    pub bucket_loads: u64,
    /// Buckets evicted by the LRU policy.
    pub bucket_evictions: u64,
}

struct SymmetricSide {
    /// key -> rows inserted so far
    table: FxHashMap<Vec<Key>, Vec<usize>>,
    /// LRU order of buckets (front = oldest). A bucket here counts toward
    /// the budget; an evicted bucket's rows remain joinable (they are
    /// "on disk") but re-touching them is a reload.
    lru: Vec<Vec<Key>>,
    resident: std::collections::HashSet<Vec<Key>>,
}

impl SymmetricSide {
    fn new() -> Self {
        SymmetricSide { table: FxHashMap::default(), lru: Vec::new(), resident: Default::default() }
    }

    fn touch(&mut self, key: &[Key], budget: usize, metrics: &mut SymmetricJoinMetrics) {
        if self.resident.contains(key) {
            // Move to the back of the LRU queue.
            if let Some(pos) = self.lru.iter().position(|k| k.as_slice() == key) {
                let k = self.lru.remove(pos);
                self.lru.push(k);
            }
            return;
        }
        metrics.bucket_loads += 1;
        self.resident.insert(key.to_vec());
        self.lru.push(key.to_vec());
        while self.resident.len() > budget {
            let victim = self.lru.remove(0);
            self.resident.remove(&victim);
            metrics.bucket_evictions += 1;
        }
    }

    fn insert(
        &mut self,
        key: Vec<Key>,
        row: usize,
        budget: usize,
        metrics: &mut SymmetricJoinMetrics,
    ) {
        self.touch(&key, budget, metrics);
        self.table.entry(key).or_default().push(row);
    }

    fn probe(
        &mut self,
        key: &[Key],
        budget: usize,
        metrics: &mut SymmetricJoinMetrics,
    ) -> &[usize] {
        if self.table.contains_key(key) {
            self.touch(key, budget, metrics);
        }
        self.table.get(key).map_or(&[], Vec::as_slice)
    }
}

/// Joins `lt` and `rt` symmetrically. Returns the joined table; metrics are
/// discarded (use [`symmetric_hash_join_with_metrics`] to observe them).
pub fn symmetric_hash_join(
    lt: &Table,
    rt: &Table,
    keys: &[(BoundExpr, BoundExpr)],
    residual: Option<&BoundExpr>,
    output: Option<&[usize]>,
    schema: &Schema,
    ctx: &ExecContext<'_>,
) -> Result<Table> {
    Ok(symmetric_hash_join_with_metrics(lt, rt, keys, residual, output, schema, ctx)?.0)
}

/// As [`symmetric_hash_join`], also returning the LRU metrics.
#[allow(clippy::too_many_arguments)]
pub fn symmetric_hash_join_with_metrics(
    lt: &Table,
    rt: &Table,
    keys: &[(BoundExpr, BoundExpr)],
    residual: Option<&BoundExpr>,
    output: Option<&[usize]>,
    schema: &Schema,
    ctx: &ExecContext<'_>,
) -> Result<(Table, SymmetricJoinMetrics)> {
    let l_exprs: Vec<BoundExpr> = keys.iter().map(|(l, _)| l.clone()).collect();
    let r_exprs: Vec<BoundExpr> = keys.iter().map(|(_, r)| r.clone()).collect();
    // The nUDF side is evaluated batch-by-batch conceptually; computing all
    // keys up front is equivalent because the UDF is pure.
    let lk = composite_keys(lt, &l_exprs, ctx)?;
    let rk = composite_keys(rt, &r_exprs, ctx)?;

    let batch = ctx.config.symmetric_batch_rows.max(1);
    let budget = ctx.config.symmetric_bucket_budget.max(1);
    let mut metrics = SymmetricJoinMetrics::default();

    let mut left_side = SymmetricSide::new();
    let mut right_side = SymmetricSide::new();
    let mut l_idx: Vec<usize> = Vec::new();
    let mut r_idx: Vec<usize> = Vec::new();

    // Both in-memory hash sides together hold every input row by the end.
    let _build_mem = ctx.reserve("symmetric.build", super::build_bytes(lk.len() + rk.len(), 32))?;

    let mut l_pos = 0usize;
    let mut r_pos = 0usize;
    while l_pos < lk.len() || r_pos < rk.len() {
        // Batch boundaries double as governance checkpoints.
        ctx.check()?;
        // Left batch: probe right, then insert into left.
        if l_pos < lk.len() {
            metrics.batches += 1;
            let end = (l_pos + batch).min(lk.len());
            #[allow(clippy::needless_range_loop)] // row is both key index and output row id
            for row in l_pos..end {
                let key = &lk[row];
                for &m in right_side.probe(key, budget, &mut metrics) {
                    l_idx.push(row);
                    r_idx.push(m);
                }
                left_side.insert(key.clone(), row, budget, &mut metrics);
            }
            l_pos = end;
        }
        // Right batch: probe left, then insert into right.
        if r_pos < rk.len() {
            metrics.batches += 1;
            let end = (r_pos + batch).min(rk.len());
            #[allow(clippy::needless_range_loop)] // row is both key index and output row id
            for row in r_pos..end {
                let key = &rk[row];
                for &m in left_side.probe(key, budget, &mut metrics) {
                    l_idx.push(m);
                    r_idx.push(row);
                }
                right_side.insert(key.clone(), row, budget, &mut metrics);
            }
            r_pos = end;
        }
    }

    let out = glue_join(lt, &l_idx, rt, &r_idx, residual, output, schema, ctx)?;
    Ok((out, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::column::Column;
    use crate::exec::{ExecConfig, OpCounters};
    use crate::table::Field;
    use crate::udf::UdfRegistry;
    use crate::value::DataType;

    fn make(keys: Vec<i64>) -> Table {
        Table::new(Schema::new(vec![Field::new("k", DataType::Int64)]), vec![Column::Int64(keys)])
            .unwrap()
    }

    fn joined_schema(l: &Table, r: &Table) -> Schema {
        Schema::new(l.schema().fields().iter().chain(r.schema().fields()).cloned().collect())
    }

    #[test]
    fn produces_same_multiset_as_hash_join() {
        let catalog = Catalog::new();
        let udfs = UdfRegistry::new();
        let ops = OpCounters::default();
        let config = ExecConfig {
            symmetric_batch_rows: 2,
            symmetric_bucket_budget: 4,
            ..Default::default()
        };
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

        let lt = make(vec![1, 2, 2, 3, 5]);
        let rt = make(vec![2, 2, 3, 4]);
        let schema = joined_schema(&lt, &rt);
        let keys = vec![(BoundExpr::Column(0), BoundExpr::Column(0))];
        let (out, metrics) =
            symmetric_hash_join_with_metrics(&lt, &rt, &keys, None, None, &schema, &ctx).unwrap();
        // 2x2 matches (2 left rows x 2 right rows) + 1 match for key 3.
        assert_eq!(out.num_rows(), 5);
        assert!(metrics.batches >= 4);
        assert!(metrics.bucket_loads > 0);
    }

    #[test]
    fn tiny_budget_forces_evictions_without_losing_rows() {
        let catalog = Catalog::new();
        let udfs = UdfRegistry::new();
        let ops = OpCounters::default();
        let config = ExecConfig {
            symmetric_batch_rows: 1,
            symmetric_bucket_budget: 1,
            ..Default::default()
        };
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

        let lt = make((0..20).collect());
        let rt = make((0..20).rev().collect());
        let schema = joined_schema(&lt, &rt);
        let keys = vec![(BoundExpr::Column(0), BoundExpr::Column(0))];
        let (out, metrics) =
            symmetric_hash_join_with_metrics(&lt, &rt, &keys, None, None, &schema, &ctx).unwrap();
        assert_eq!(out.num_rows(), 20, "every key matches exactly once");
        assert!(metrics.bucket_evictions > 0, "budget 1 must evict");
    }
}
