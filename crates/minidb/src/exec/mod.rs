//! The vectorized executor.
//!
//! Fully materialized, operator-at-a-time execution over columnar tables.
//! Every operator reports its own wall time (children excluded), busy time
//! and row counts once, through `ExecContext::record`: the same numbers
//! reach the statement's span (when traced) and its [`OpCounters`] — the
//! data behind the paper's Fig. 10 clause breakdown.

pub mod counters;
mod dense;
pub mod fused;
pub mod parallel;
pub mod symmetric;

use std::time::{Duration, Instant};

pub use counters::{OpCounters, OperatorKind};

pub(crate) use dense::KeyPath;
use dense::{DenseGroupIds, DenseIndex, DenseLayout, GroupIds, RunPayload};

use crate::catalog::Catalog;
use crate::column::{Column, Key};
use crate::error::{Error, Result};
use crate::expr::{BoundExpr, EvalContext};
use crate::hash::{fx_map_with_capacity, FxHashMap};
use crate::plan::logical::{AggExpr, AggFunc, JoinAlgorithm, LogicalPlan};
use crate::table::{Schema, Table};
use crate::udf::UdfRegistry;
use crate::value::{DataType, Value};

/// Executor tuning knobs.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Rows per batch consumed alternately by the symmetric hash join.
    pub symmetric_batch_rows: usize,
    /// In-memory bucket budget of the symmetric hash join before the
    /// bucket-level LRU starts evicting (paper Sec. IV-B rule 3).
    pub symmetric_bucket_budget: usize,
    /// Worker threads for the range-driven operators (Filter, Project,
    /// GroupBy, the hash-join probe, the fused fold). At `1` (the default)
    /// each operator folds its whole input as one range, in row order;
    /// above `1` it splits inputs longer than one morsel into morsels.
    /// Either way it is the same code.
    pub parallelism: usize,
    /// Rows per morsel when an operator is split over workers.
    pub morsel_rows: usize,
    /// SELECT texts in the plan cache of `Database::execute` and
    /// `Session::execute` (exact SQL text → prepared statement, whose kept
    /// plans check their own dependencies). `0` disables the cache.
    pub plan_cache_capacity: usize,
    /// Queries slower than this are traced (even with the collector off)
    /// and their full span tree is handed to the database's slow-query
    /// hook. `None` (the default) disables the slow-query log.
    pub slow_query_threshold: Option<Duration>,
    /// Per-statement wall-clock deadline. Checked cooperatively at
    /// operator and range boundaries (and on a stride inside row loops),
    /// so a timed-out query aborts within a few morsels of the
    /// deadline with [`govern::QueryError::TimedOut`]. `None` (the
    /// default) disables the deadline.
    pub query_timeout: Option<Duration>,
    /// Memory budget in bytes shared by every memory-hungry operator of
    /// the session (hash-join builds, group-by tables, fused
    /// accumulators). Reservations past the budget fail with
    /// [`govern::QueryError::BudgetExceeded`]. `0` (the default)
    /// disables the budget.
    pub memory_budget: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            symmetric_batch_rows: 1024,
            symmetric_bucket_budget: 1 << 16,
            parallelism: 1,
            morsel_rows: 4096,
            plan_cache_capacity: 64,
            slow_query_threshold: None,
            query_timeout: None,
            memory_budget: 0,
        }
    }
}

/// Everything execution needs.
pub struct ExecContext<'a> {
    pub catalog: &'a Catalog,
    pub udfs: &'a UdfRegistry,
    /// The statement's operator counters; every `record` adds to them.
    pub ops: &'a OpCounters,
    pub config: &'a ExecConfig,
    /// Span collector; [`obs::disabled`] when the session is untraced.
    pub tracer: &'a obs::Collector,
    /// Span operator spans nest under; `NONE` disables tracing for the
    /// whole subtree (the zero-cost-when-off path — no atomics, no lock).
    pub span: obs::SpanId,
    /// Cancellation + deadline checkpoint. [`govern::Governor::unrestricted`]
    /// (a single never-taken branch per check) when governance is off.
    pub governor: govern::Governor,
    /// Session memory budget; `None` when disabled.
    pub budget: Option<std::sync::Arc<govern::MemoryBudget>>,
}

impl<'a> ExecContext<'a> {
    fn eval_ctx(&self) -> EvalContext<'a> {
        EvalContext { udfs: self.udfs }
    }

    /// The same context with operator spans nesting under `span`.
    pub fn with_span(&self, span: obs::SpanId) -> ExecContext<'a> {
        ExecContext {
            catalog: self.catalog,
            udfs: self.udfs,
            ops: self.ops,
            config: self.config,
            tracer: self.tracer,
            span,
            governor: self.governor.clone(),
            budget: self.budget.clone(),
        }
    }

    /// Cooperative governance checkpoint: errors when the statement was
    /// canceled or overran its deadline.
    #[inline]
    pub fn check(&self) -> Result<()> {
        self.governor.check().map_err(Error::Governance)
    }

    /// Reserves `bytes` against the session memory budget (no-op when no
    /// budget is configured). Hold the returned guard for the lifetime of
    /// the allocation it covers; dropping it releases the bytes.
    pub fn reserve(&self, site: &str, bytes: u64) -> Result<Option<govern::Reservation>> {
        match &self.budget {
            None => Ok(None),
            Some(budget) => budget.reserve(site, bytes).map(Some).map_err(Error::Governance),
        }
    }

    /// Records one operator invocation: notes the live span (a no-op when
    /// untraced) and adds to the statement's counters. One value feeds
    /// both, so the views cannot disagree.
    fn record(&self, kind: OperatorKind, m: obs::OpMetrics) {
        self.ops.add(kind, &m);
        self.tracer.note_op(self.span, kind.label(), m);
    }

    /// Counts the key structures an operator built and, when traced, names
    /// them in its span's detail after the plan node's header, followed by
    /// `tail`.
    fn note_keys(&self, plan: &LogicalPlan, paths: &[(&str, KeyPath)], tail: &str) {
        for (_, path) in paths {
            self.ops.add_key_path(*path);
        }
        if self.span.is_some() {
            let mut detail = plan.node_header();
            for (what, path) in paths {
                detail.push_str(&format!("; {what}={}", path.label()));
            }
            detail.push_str(tail);
            self.tracer.set_detail(self.span, &detail);
        }
    }

    /// Records a step that runs outside a plan (CreateTable, Insert,
    /// Update) through [`record`](Self::record), as an operator span of
    /// its own under the current span.
    pub(crate) fn record_step(&self, kind: OperatorKind, start: Instant, rows_out: usize) {
        let m = serial(start, rows_out);
        let end = self.tracer.now_ns();
        let span = self.tracer.add_complete(
            self.span,
            obs::SpanKind::Operator,
            kind.label(),
            "",
            end.saturating_sub(m.self_ns),
            end,
            u32::MAX,
            0,
        );
        self.with_span(span).record(kind, m);
    }
}

/// Metrics of a serial operator invocation that began at `start`.
fn serial(start: Instant, rows_out: usize) -> obs::OpMetrics {
    ranged(start, Duration::ZERO, rows_out)
}

/// Metrics of an operator invocation that began at `start` and whose
/// ranges kept workers busy `extra_busy` beyond its wall time.
fn ranged(start: Instant, extra_busy: Duration, rows_out: usize) -> obs::OpMetrics {
    let elapsed = start.elapsed();
    parallel(elapsed, elapsed + extra_busy, rows_out)
}

/// Metrics of an operator invocation that may have fanned out over a
/// worker pool: `elapsed` is the wall time, `busy` the per-worker sum.
fn parallel(elapsed: Duration, busy: Duration, rows_out: usize) -> obs::OpMetrics {
    obs::OpMetrics {
        self_ns: elapsed.as_nanos() as u64,
        busy_ns: busy.as_nanos() as u64,
        rows_out: rows_out as u64,
        ..Default::default()
    }
}

// Morsel workers borrow the context across threads; keep it shareable.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<ExecContext<'static>>();
};

/// Executes a plan to a materialized table. When the context carries a
/// live span, every plan node gets an operator span mirroring the plan
/// tree (children nest under their parent operator).
pub fn execute(plan: &LogicalPlan, ctx: &ExecContext<'_>) -> Result<Table> {
    if ctx.span.is_none() {
        return execute_node(plan, ctx);
    }
    let span = ctx.tracer.child(
        ctx.span,
        obs::SpanKind::Operator,
        variant_name(plan),
        &plan.node_header(),
    );
    let inner = ctx.with_span(span);
    let out = execute_node(plan, &inner);
    ctx.tracer.finish(span);
    out
}

/// The plan variant's name, used as the operator span's initial label
/// (the recorded [`OperatorKind`] overwrites it — e.g. a `Filter` whose
/// predicate calls a UDF reports as `UdfEval`).
fn variant_name(plan: &LogicalPlan) -> &'static str {
    match plan {
        LogicalPlan::Scan { .. } => "Scan",
        LogicalPlan::Values { .. } => "Values",
        LogicalPlan::MultiJoin { .. } => "MultiJoin",
        LogicalPlan::Filter { .. } => "Filter",
        LogicalPlan::Project { .. } => "Project",
        LogicalPlan::Join { .. } => "Join",
        LogicalPlan::Cross { .. } => "Join",
        LogicalPlan::JoinAggregate { .. } => "JoinAggregate",
        LogicalPlan::Aggregate { .. } => "GroupBy",
        LogicalPlan::Sort { .. } => "Sort",
        LogicalPlan::Limit { .. } => "Limit",
    }
}

/// Row loops check the governor once per this many rows, keeping
/// cancellation latency at morsel scale without measurable per-row cost.
pub(crate) const CHECK_STRIDE: usize = 4096;

fn execute_node(plan: &LogicalPlan, ctx: &ExecContext<'_>) -> Result<Table> {
    ctx.check()?;
    match plan {
        LogicalPlan::Scan { table, .. } => {
            let start = Instant::now();
            let t = ctx
                .catalog
                .table(table)
                .ok_or_else(|| Error::NotFound(format!("table '{table}'")))?;
            let out = (*t).clone();
            ctx.record(OperatorKind::Scan, serial(start, out.num_rows()));
            Ok(out)
        }
        LogicalPlan::Values { table } => Ok(table.clone()),
        LogicalPlan::MultiJoin { .. } => {
            Err(Error::Plan("MultiJoin reached the executor; run the optimizer first".into()))
        }
        LogicalPlan::Filter { input, predicate } => {
            let t = execute(input, ctx)?;
            let start = Instant::now();
            let kind =
                if predicate.contains_udf() { OperatorKind::UdfEval } else { OperatorKind::Filter };
            let (out, extra_busy) = parallel::filter(&t, predicate, ctx)?;
            ctx.record(kind, ranged(start, extra_busy, out.num_rows()));
            Ok(out)
        }
        LogicalPlan::Project { input, exprs, schema } => {
            let t = execute(input, ctx)?;
            let start = Instant::now();
            let (out, extra_busy) = parallel::project(&t, exprs, schema, ctx)?;
            ctx.record(OperatorKind::Project, ranged(start, extra_busy, out.num_rows()));
            Ok(out)
        }
        LogicalPlan::Join { left, right, keys, residual, algorithm, output, schema } => {
            let lt = execute(left, ctx)?;
            let rt = execute(right, ctx)?;
            let start = Instant::now();
            let (out, extra_busy, path) = match algorithm {
                JoinAlgorithm::Hash => {
                    hash_join(&lt, &rt, keys, residual.as_ref(), output.as_deref(), schema, ctx)?
                }
                JoinAlgorithm::SymmetricHash => (
                    symmetric::symmetric_hash_join(
                        &lt,
                        &rt,
                        keys,
                        residual.as_ref(),
                        output.as_deref(),
                        schema,
                        ctx,
                    )?,
                    Duration::ZERO,
                    KeyPath::Hash,
                ),
            };
            ctx.note_keys(plan, &[("keys", path)], "");
            ctx.record(OperatorKind::Join, ranged(start, extra_busy, out.num_rows()));
            Ok(out)
        }
        LogicalPlan::Cross { left, right, schema } => {
            let lt = execute(left, ctx)?;
            let rt = execute(right, ctx)?;
            let start = Instant::now();
            let (ln, rn) = (lt.num_rows(), rt.num_rows());
            let mut l_idx = Vec::with_capacity(ln * rn);
            let mut r_idx = Vec::with_capacity(ln * rn);
            for i in 0..ln {
                if i % CHECK_STRIDE == 0 {
                    ctx.check()?;
                }
                for j in 0..rn {
                    l_idx.push(i);
                    r_idx.push(j);
                }
            }
            let out = glue_join(&lt, &l_idx, &rt, &r_idx, None, None, schema, ctx)?;
            ctx.record(OperatorKind::Join, serial(start, out.num_rows()));
            Ok(out)
        }
        LogicalPlan::JoinAggregate { left, right, keys, group, aggs, schema } => {
            let lt = execute(left, ctx)?;
            let rt = execute(right, ctx)?;
            let span_t0 = if ctx.span.is_some() { ctx.tracer.now_ns() } else { 0 };
            let start = Instant::now();
            let (out, m) = fused::join_aggregate(&lt, &rt, keys, group, aggs, schema, ctx)?;
            let elapsed = start.elapsed();
            // Build (serial key/factor evaluation + join build) and
            // probe (range-driven fold + emit) are distinct recorded
            // invocations: lumping them made busy/wall meaningless as an
            // effective-parallelism ratio, since the serial build diluted
            // the parallel probe's busy time.
            let probe = elapsed.saturating_sub(m.build);
            let grid = m.group_path == KeyPath::Grid;
            let paths = [("build", m.build_path), ("groups", m.group_path)];
            ctx.note_keys(plan, &paths, if grid { "" } else { "; fold=unfused" });
            ctx.record(OperatorKind::JoinAggregate, parallel(m.build, m.build, 0));
            ctx.record(
                OperatorKind::JoinAggregate,
                obs::OpMetrics {
                    rows_in: m.rows_in as u64,
                    bytes_not_materialized: m.bytes_not_materialized,
                    ..parallel(probe, probe + m.extra_busy, out.num_rows())
                },
            );
            if ctx.span.is_some() {
                let build_end = span_t0 + m.build.as_nanos() as u64;
                ctx.tracer.add_complete(
                    ctx.span,
                    obs::SpanKind::Phase,
                    "build",
                    "serial: eval keys/factors, join build",
                    span_t0,
                    build_end,
                    u32::MAX,
                    0,
                );
                ctx.tracer.add_complete(
                    ctx.span,
                    obs::SpanKind::Phase,
                    "probe",
                    if grid { "fold probe + emit" } else { "unfused: join probe, group-by" },
                    build_end,
                    ctx.tracer.now_ns(),
                    u32::MAX,
                    out.num_rows() as u64,
                );
            }
            Ok(out)
        }
        LogicalPlan::Aggregate { input, group, aggs, schema } => {
            let t = execute(input, ctx)?;
            let start = Instant::now();
            let (out, extra_busy, path) = aggregate(&t, group, aggs, schema, ctx)?;
            ctx.record(OperatorKind::GroupBy, ranged(start, extra_busy, out.num_rows()));
            ctx.note_keys(plan, &[("keys", path)], "");
            Ok(out)
        }
        LogicalPlan::Sort { input, keys } => {
            let t = execute(input, ctx)?;
            let start = Instant::now();
            let key_cols: Vec<(Column, bool)> = keys
                .iter()
                .map(|(e, asc)| Ok((e.eval(&t, &ctx.eval_ctx())?, *asc)))
                .collect::<Result<_>>()?;
            let mut idx: Vec<usize> = (0..t.num_rows()).collect();
            idx.sort_by(|&a, &b| {
                for (col, asc) in &key_cols {
                    let ord = col.value(a).total_cmp(&col.value(b));
                    let ord = if *asc { ord } else { ord.reverse() };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let out = t.take(&idx);
            ctx.record(OperatorKind::Sort, serial(start, out.num_rows()));
            Ok(out)
        }
        LogicalPlan::Limit { input, n } => {
            let t = execute(input, ctx)?;
            let start = Instant::now();
            let keep = (*n as usize).min(t.num_rows());
            let idx: Vec<usize> = (0..keep).collect();
            let out = t.take(&idx);
            ctx.record(OperatorKind::Limit, serial(start, out.num_rows()));
            Ok(out)
        }
    }
}

/// Coerces a column to the declared type where lossless (Int64 -> Float64
/// and integral Float64 -> Int64); errors otherwise.
fn coerce_column(col: Column, target: DataType) -> Result<Column> {
    if col.data_type() == target {
        return Ok(col);
    }
    match (&col, target) {
        (Column::Int64(v), DataType::Float64) => {
            Ok(Column::Float64(v.iter().map(|&x| x as f64).collect()))
        }
        (Column::Float64(v), DataType::Int64) if v.iter().all(|x| x.fract() == 0.0) => {
            Ok(Column::Int64(v.iter().map(|&x| x as i64).collect()))
        }
        _ => Err(Error::Type(format!("cannot coerce {} column to {}", col.data_type(), target))),
    }
}

#[allow(clippy::too_many_arguments)] // mirrors the Join node's fields
/// Combines matched row indices from both sides into the output table,
/// gathering only the columns in `output` (all when `None`), and applies
/// the residual predicate afterwards. A residual referencing a masked-out
/// column forces a full gather first.
pub(crate) fn glue_join(
    lt: &Table,
    l_idx: &[usize],
    rt: &Table,
    r_idx: &[usize],
    residual: Option<&BoundExpr>,
    output: Option<&[usize]>,
    schema: &Schema,
    ctx: &ExecContext<'_>,
) -> Result<Table> {
    let l_width = lt.num_columns();
    let gather = |col: usize| -> Column {
        if col < l_width {
            lt.column(col).take(l_idx)
        } else {
            rt.column(col - l_width).take(r_idx)
        }
    };
    match (output, residual) {
        (None, residual) => {
            let cols: Vec<Column> = (0..l_width + rt.num_columns()).map(gather).collect();
            let out = Table::new(schema.clone(), cols)?;
            apply_residual(out, residual, ctx)
        }
        (Some(mask), None) => {
            let cols: Vec<Column> = mask.iter().map(|&c| gather(c)).collect();
            Table::new(schema.clone(), cols)
        }
        (Some(mask), Some(res)) => {
            // Gather the masked columns plus whatever the residual needs,
            // filter, then drop the extras.
            let mut cols_needed: Vec<usize> = mask.to_vec();
            for c in res.referenced_columns() {
                if !cols_needed.contains(&c) {
                    cols_needed.push(c);
                }
            }
            let mut fields: Vec<crate::table::Field> = schema.fields().to_vec();
            let all_fields: Vec<crate::table::Field> =
                lt.schema().fields().iter().chain(rt.schema().fields()).cloned().collect();
            for &c in &cols_needed[mask.len()..] {
                fields.push(all_fields[c].clone());
            }
            let cols: Vec<Column> = cols_needed.iter().map(|&c| gather(c)).collect();
            let wide = Table::new(Schema::new(fields), cols)?;
            // Remap the residual onto the gathered layout.
            let mut remapped = res.clone();
            let mut map = vec![usize::MAX; l_width + rt.num_columns()];
            for (pos, &c) in cols_needed.iter().enumerate() {
                map[c] = pos;
            }
            remapped.remap_columns(&map);
            let filtered = apply_residual(wide, Some(&remapped), ctx)?;
            let cols: Vec<Column> = (0..mask.len()).map(|i| filtered.column(i).clone()).collect();
            Table::new(schema.clone(), cols)
        }
    }
}

/// Multi-key hash keys for a row set.
pub(crate) fn composite_keys(
    table: &Table,
    exprs: &[BoundExpr],
    ctx: &ExecContext<'_>,
) -> Result<Vec<Vec<Key>>> {
    Ok(keys_of(&eval_all(table, exprs, ctx)?, table.num_rows()))
}

/// Evaluates each expression over `table`.
fn eval_all(table: &Table, exprs: &[BoundExpr], ctx: &ExecContext<'_>) -> Result<Vec<Column>> {
    exprs.iter().map(|e| e.eval(table, &ctx.eval_ctx())).collect()
}

/// Per-row composite keys of evaluated key columns.
fn keys_of(cols: &[Column], n: usize) -> Vec<Vec<Key>> {
    (0..n).map(|row| cols.iter().map(|c| c.key_at(row)).collect()).collect()
}

pub(crate) fn apply_residual(
    out: Table,
    residual: Option<&BoundExpr>,
    ctx: &ExecContext<'_>,
) -> Result<Table> {
    match residual {
        None => Ok(out),
        Some(pred) => {
            let mask_col = pred.eval(&out, &ctx.eval_ctx())?;
            let mask = mask_col.as_bool_slice()?;
            Ok(out.filter(mask))
        }
    }
}

/// One or two `Int64` key columns, moved out of their [`Column`]s; any
/// other key comes back unchanged.
fn into_ints(cols: Vec<Column>) -> std::result::Result<Vec<Vec<i64>>, Vec<Column>> {
    if !(1..=2).contains(&cols.len()) || cols.iter().any(|c| c.as_i64_slice().is_none()) {
        return Err(cols);
    }
    Ok(cols
        .into_iter()
        .map(|c| match c {
            Column::Int64(v) => v,
            _ => unreachable!("checked above"),
        })
        .collect())
}

/// One or two integer key values packed into an `i128` hash key.
#[inline]
fn pack<C: AsRef<[i64]>>(cols: &[C], row: usize) -> i128 {
    match cols {
        [a] => a.as_ref()[row] as i128,
        _ => ((cols[0].as_ref()[row] as i128) << 64) | (cols[1].as_ref()[row] as u64 as i128),
    }
}

/// An equi-join's build side, probed by row of the other input. Shared
/// by [`hash_join`] and the fused operator's build. Rows matching one key
/// come back in build insertion order on every path.
pub(crate) struct JoinIndex {
    kind: IndexKind,
    /// Whether the left input is the build side.
    build_left: bool,
    probe_len: usize,
    _mem: Option<govern::Reservation>,
}

enum IndexKind {
    /// Both sides' keys are one or two `Int64` columns with a small
    /// build-side span: offset addressing.
    Dense { index: DenseIndex, probe: Vec<Vec<i64>> },
    /// Integer keys too sparse for offsets: packed into `i128`s and hashed.
    Packed { map: FxHashMap<i128, Vec<usize>>, probe: Vec<i128> },
    /// At least one non-integer key column: general composite keys for
    /// both sides (so Int64↔Float64 equality unifies through
    /// `Value::to_key`).
    General { map: FxHashMap<Vec<Key>, Vec<usize>>, probe: Vec<Vec<Key>> },
}

impl JoinIndex {
    /// Builds on the left input when `build_left`, else on the right,
    /// charging the structure to the memory budget. A dense build also lays
    /// `payload` out in its row order ([`DenseIndex::runs`]) and is then
    /// charged at `fused.build`; every other build is a hash join's, at
    /// `join.build`.
    pub(crate) fn build(
        lt: &Table,
        rt: &Table,
        keys: &[(BoundExpr, BoundExpr)],
        build_left: bool,
        payload: Option<&RunPayload<'_>>,
        ctx: &ExecContext<'_>,
    ) -> Result<JoinIndex> {
        let l_exprs: Vec<BoundExpr> = keys.iter().map(|(l, _)| l.clone()).collect();
        let r_exprs: Vec<BoundExpr> = keys.iter().map(|(_, r)| r.clone()).collect();
        let (bt, b_exprs, pt, p_exprs) =
            if build_left { (lt, &l_exprs, rt, &r_exprs) } else { (rt, &r_exprs, lt, &l_exprs) };
        let (n, probe_len) = (bt.num_rows(), pt.num_rows());
        let build = into_ints(eval_all(bt, b_exprs, ctx)?);
        let probe = into_ints(eval_all(pt, p_exprs, ctx)?);
        let (kind, mem) = match (build, probe) {
            (Ok(build), Ok(probe)) => {
                let cols: Vec<&[i64]> = build.iter().map(Vec::as_slice).collect();
                match DenseLayout::choose(&cols, n) {
                    Some(layout) => {
                        // Charged at least what the hash build would be,
                        // so budgets hold whichever path runs.
                        let bytes = build_bytes(n, 16).max(DenseIndex::bytes(&layout, n))
                            + payload.map_or(0, |p| p.bytes(&layout, n));
                        let site = if payload.is_some() { "fused.build" } else { "join.build" };
                        let mem = ctx.reserve(site, bytes)?;
                        let index = DenseIndex::build(layout, &cols, n, payload, ctx)?;
                        (IndexKind::Dense { index, probe }, mem)
                    }
                    None => {
                        let mem = ctx.reserve("join.build", build_bytes(n, 16))?;
                        let mut map: FxHashMap<i128, Vec<usize>> = fx_map_with_capacity(n);
                        for row in 0..n {
                            if row % CHECK_STRIDE == 0 {
                                ctx.check()?;
                            }
                            map.entry(pack(&build, row)).or_default().push(row);
                        }
                        let probe = (0..probe_len).map(|row| pack(&probe, row)).collect();
                        (IndexKind::Packed { map, probe }, mem)
                    }
                }
            }
            (build, probe) => {
                let cols = |r: std::result::Result<Vec<Vec<i64>>, Vec<Column>>| match r {
                    Ok(ints) => ints.into_iter().map(Column::Int64).collect(),
                    Err(cols) => cols,
                };
                let mem = ctx.reserve("join.build", build_bytes(n, 32))?;
                let mut map: FxHashMap<Vec<Key>, Vec<usize>> = fx_map_with_capacity(n);
                for (row, k) in keys_of(&cols(build), n).into_iter().enumerate() {
                    if row % CHECK_STRIDE == 0 {
                        ctx.check()?;
                    }
                    map.entry(k).or_default().push(row);
                }
                (IndexKind::General { map, probe: keys_of(&cols(probe), probe_len) }, mem)
            }
        };
        Ok(JoinIndex { kind, build_left, probe_len, _mem: mem })
    }

    /// Rows on the probe side.
    pub(crate) fn probe_len(&self) -> usize {
        self.probe_len
    }

    /// Which structure the build used.
    pub(crate) fn path(&self) -> KeyPath {
        match self.kind {
            IndexKind::Dense { .. } => KeyPath::Dense,
            _ => KeyPath::Hash,
        }
    }

    /// The dense build and the probe side's key columns, when the build
    /// went dense.
    pub(crate) fn dense(&self) -> Option<(&DenseIndex, &[Vec<i64>])> {
        match &self.kind {
            IndexKind::Dense { index, probe } => Some((index, probe)),
            _ => None,
        }
    }

    /// The build rows matching probe row `row`, in build insertion order.
    #[inline]
    pub(crate) fn matches(&self, row: usize) -> &[usize] {
        match &self.kind {
            IndexKind::Dense { index, probe } => {
                let (a, b) = dense::key_at(probe, row);
                index.get(a, b)
            }
            IndexKind::Packed { map, probe } => map.get(&probe[row]).map_or(&[], Vec::as_slice),
            IndexKind::General { map, probe } => map.get(&probe[row]).map_or(&[], Vec::as_slice),
        }
    }
}

/// Rough per-entry footprint of a hash build table charged against the
/// memory budget: key bytes plus bucket-vector overhead and one row index.
pub(crate) fn build_bytes(rows: usize, key_bytes: usize) -> u64 {
    (rows as u64) * (key_bytes as u64 + 40)
}

/// Rough footprint of a group-by state table: per group, the key slot
/// plus one accumulator per aggregate.
pub(crate) fn group_state_bytes(groups: usize, aggs: usize) -> u64 {
    (groups as u64) * (48 + 48 * aggs as u64)
}

/// Equi-join: serial build on the smaller side ([`JoinIndex`]), then
/// [`probe_join`]. Returns the joined table, the worker busy time the probe
/// accrued beyond its own wall time (zero for one range), so the caller
/// can record wall + extra as the join's busy time, and the key path the
/// build took.
fn hash_join(
    lt: &Table,
    rt: &Table,
    keys: &[(BoundExpr, BoundExpr)],
    residual: Option<&BoundExpr>,
    output: Option<&[usize]>,
    schema: &Schema,
    ctx: &ExecContext<'_>,
) -> Result<(Table, Duration, KeyPath)> {
    let build_left = lt.num_rows() <= rt.num_rows();
    let index = JoinIndex::build(lt, rt, keys, build_left, None, ctx)?;
    let path = index.path();
    let (out, extra_busy) = probe_join(lt, rt, index, residual, output, schema, ctx)?;
    Ok((out, extra_busy, path))
}

/// A hash join's range-driven probe of its built `index`
/// ([`parallel::probe`]), then [`glue_join`] of the matched rows. Releases
/// the build before the glue. Returns the joined table and the probe's
/// worker busy time beyond its wall time.
fn probe_join(
    lt: &Table,
    rt: &Table,
    index: JoinIndex,
    residual: Option<&BoundExpr>,
    output: Option<&[usize]>,
    schema: &Schema,
    ctx: &ExecContext<'_>,
) -> Result<(Table, Duration)> {
    let (build_rows, probe_rows, extra_busy) =
        parallel::probe(index.probe_len(), |row| index.matches(row), ctx)?;
    let build_left = index.build_left;
    drop(index);
    let (l_idx, r_idx) =
        if build_left { (build_rows, probe_rows) } else { (probe_rows, build_rows) };
    let out = glue_join(lt, &l_idx, rt, &r_idx, residual, output, schema, ctx)?;
    Ok((out, extra_busy))
}

// ---------------------------------------------------------------------------
// aggregation
// ---------------------------------------------------------------------------

enum Acc {
    Count(i64),
    CountDistinct(std::collections::HashSet<Key>),
    SumI(i64),
    SumF(f64),
    Avg {
        sum: f64,
        n: u64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
    /// Welford accumulator for the sample standard deviation.
    Std {
        n: u64,
        mean: f64,
        m2: f64,
    },
}

impl Acc {
    fn new(agg: &AggExpr, arg_type: Option<DataType>) -> Acc {
        match agg.func {
            AggFunc::Count if agg.distinct => Acc::CountDistinct(Default::default()),
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => {
                if arg_type == Some(DataType::Int64) {
                    Acc::SumI(0)
                } else {
                    Acc::SumF(0.0)
                }
            }
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::StddevSamp => Acc::Std { n: 0, mean: 0.0, m2: 0.0 },
        }
    }

    fn update(&mut self, value: Option<&Value>) -> Result<()> {
        match self {
            Acc::Count(c) => {
                // COUNT(*) counts rows; COUNT(bool_expr) counts trues.
                let add = match value {
                    None => 1,
                    Some(Value::Bool(b)) => *b as i64,
                    Some(_) => 1,
                };
                *c += add;
            }
            Acc::CountDistinct(set) => {
                if let Some(v) = value {
                    set.insert(v.to_key());
                }
            }
            Acc::SumI(s) => *s += value.expect("SUM has an argument").as_i64()?,
            Acc::SumF(s) => *s += value.expect("SUM has an argument").as_f64()?,
            Acc::Avg { sum, n } => {
                *sum += value.expect("AVG has an argument").as_f64()?;
                *n += 1;
            }
            Acc::Min(cur) => {
                let v = value.expect("MIN has an argument");
                if cur.as_ref().is_none_or(|c| v.total_cmp(c).is_lt()) {
                    *cur = Some(v.clone());
                }
            }
            Acc::Max(cur) => {
                let v = value.expect("MAX has an argument");
                if cur.as_ref().is_none_or(|c| v.total_cmp(c).is_gt()) {
                    *cur = Some(v.clone());
                }
            }
            Acc::Std { n, mean, m2 } => {
                let x = value.expect("stddevSamp has an argument").as_f64()?;
                *n += 1;
                let delta = x - *mean;
                *mean += delta / *n as f64;
                *m2 += delta * (x - *mean);
            }
        }
        Ok(())
    }

    /// Folds another accumulator of the same shape into this one. A split
    /// group-by merges per-range partials in range order, so the combined
    /// state depends only on the range list, not on worker scheduling.
    fn merge(&mut self, other: Acc) -> Result<()> {
        match (self, other) {
            (Acc::Count(a), Acc::Count(b)) => *a += b,
            (Acc::CountDistinct(a), Acc::CountDistinct(b)) => a.extend(b),
            (Acc::SumI(a), Acc::SumI(b)) => *a += b,
            (Acc::SumF(a), Acc::SumF(b)) => *a += b,
            (Acc::Avg { sum, n }, Acc::Avg { sum: sum2, n: n2 }) => {
                *sum += sum2;
                *n += n2;
            }
            (Acc::Min(cur), Acc::Min(other)) => {
                if let Some(v) = other {
                    if cur.as_ref().is_none_or(|c| v.total_cmp(c).is_lt()) {
                        *cur = Some(v);
                    }
                }
            }
            (Acc::Max(cur), Acc::Max(other)) => {
                if let Some(v) = other {
                    if cur.as_ref().is_none_or(|c| v.total_cmp(c).is_gt()) {
                        *cur = Some(v);
                    }
                }
            }
            (Acc::Std { n, mean, m2 }, Acc::Std { n: n2, mean: mean2, m2: m2_2 }) => {
                // Chan et al. pairwise variance combination.
                if n2 > 0 {
                    if *n == 0 {
                        (*n, *mean, *m2) = (n2, mean2, m2_2);
                    } else {
                        let (na, nb) = (*n as f64, n2 as f64);
                        let delta = mean2 - *mean;
                        *mean += delta * nb / (na + nb);
                        *m2 += m2_2 + delta * delta * na * nb / (na + nb);
                        *n += n2;
                    }
                }
            }
            _ => {
                return Err(Error::Plan("mismatched accumulator shapes in aggregate merge".into()))
            }
        }
        Ok(())
    }

    fn finish(&self, output_type: DataType) -> Value {
        match self {
            Acc::Count(c) => Value::Int64(*c),
            Acc::CountDistinct(set) => Value::Int64(set.len() as i64),
            Acc::SumI(s) => Value::Int64(*s),
            Acc::SumF(s) => Value::Float64(*s),
            Acc::Avg { sum, n } => Value::Float64(if *n == 0 { 0.0 } else { sum / *n as f64 }),
            Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(zero_of(output_type)),
            Acc::Std { n, m2, .. } => {
                Value::Float64(if *n < 2 { 0.0 } else { (m2 / (*n as f64 - 1.0)).sqrt() })
            }
        }
    }
}

/// The zero value MIN/MAX return over empty input (ClickHouse-style; the
/// engine has no NULLs).
fn zero_of(dt: DataType) -> Value {
    match dt {
        DataType::Int64 => Value::Int64(0),
        DataType::Float64 => Value::Float64(0.0),
        DataType::Bool => Value::Bool(false),
        DataType::Utf8 => Value::Utf8(String::new()),
        DataType::Date => Value::Date(0),
        DataType::Blob => Value::Blob(std::sync::Arc::new(Vec::new())),
    }
}

/// GroupBy: a grouped fold ([`parallel::fold_groups`]) of every input row
/// into its group's [`Acc`]s, groups in first-occurrence order. Up to two
/// `Int64` key columns with a small span are addressed by offset
/// ([`DenseGroupIds`], one table charged to the budget as `agg.groups` per
/// concurrently folding worker); sparse ones pack into an `i128` hash key;
/// anything else hashes composite keys built with [`Column::key_at`].
/// Returns the output, the worker busy time beyond wall time and the key
/// path taken.
fn aggregate(
    t: &Table,
    group: &[BoundExpr],
    aggs: &[AggExpr],
    schema: &Schema,
    ctx: &ExecContext<'_>,
) -> Result<(Table, Duration, KeyPath)> {
    let n = t.num_rows();
    let key_cols = eval_all(t, group, ctx)?;
    let ranges = parallel::ranges(ctx.config, n);
    let cap = (ranges[0].len() / 4 + 16).min(1 << 16);
    let ints: Option<Vec<&[i64]>> =
        if key_cols.len() > 2 { None } else { key_cols.iter().map(Column::as_i64_slice).collect() };
    let (mut groups, extra_busy, path) = match ints {
        Some(ints) => match DenseLayout::choose(&ints, n) {
            Some(layout) => {
                let span = layout.span();
                let tables = ctx.config.parallelism.min(ranges.len()) as u64;
                let _ids_mem = ctx.reserve("agg.groups", tables * DenseGroupIds::bytes(span))?;
                let slot = |row| {
                    let (a, b) = dense::key_at(&ints, row);
                    layout.slot(a, b)
                };
                let new_ids = || DenseGroupIds::new(span);
                let (groups, busy) = fold_rows(t, &ranges, slot, new_ids, aggs, ctx)?;
                (groups, busy, KeyPath::Dense)
            }
            // No key columns always fit the dense layout, so `ints` has one or two.
            None => {
                let new_ids = || -> FxHashMap<i128, usize> { fx_map_with_capacity(cap) };
                let key = |row| pack(&ints, row);
                let (groups, busy) = fold_rows(t, &ranges, key, new_ids, aggs, ctx)?;
                (groups, busy, KeyPath::Hash)
            }
        },
        None => {
            let new_ids = || -> FxHashMap<Vec<Key>, usize> { fx_map_with_capacity(cap) };
            let key = |row| key_cols.iter().map(|c| c.key_at(row)).collect::<Vec<Key>>();
            let (groups, busy) = fold_rows(t, &ranges, key, new_ids, aggs, ctx)?;
            (groups, busy, KeyPath::Hash)
        }
    };
    // Global aggregate: exactly one group even over zero rows (argument
    // types default from the aggregate's output field).
    if group.is_empty() && groups.firsts.is_empty() {
        groups.firsts.push(usize::MAX);
        groups
            .accs
            .extend(aggs.iter().zip(schema.fields()).map(|(a, f)| Acc::new(a, Some(f.data_type))));
    }
    let _group_mem =
        ctx.reserve("agg.groups", group_state_bytes(groups.firsts.len(), aggs.len()))?;
    let key_value = |ki: usize, row| key_cols[ki].value(row);
    let out = parallel::emit_groups(schema, &groups, group.len(), key_value, Acc::finish)?;
    Ok((out, extra_busy, path))
}

/// Folds every row of `t` into the group `key(row)`: each range evaluates
/// the aggregate arguments over its rows, then updates each row's
/// accumulators in row order.
fn fold_rows<K, M: GroupIds<K> + Send>(
    t: &Table,
    ranges: &[std::ops::Range<usize>],
    key: impl Fn(usize) -> K + Sync,
    new_ids: impl Fn() -> M + Sync,
    aggs: &[AggExpr],
    ctx: &ExecContext<'_>,
) -> Result<(parallel::Groups<usize, Acc>, Duration)> {
    let width = aggs.len();
    let fold = |range: std::ops::Range<usize>, ids: &mut M| {
        let rows = parallel::rows(t, &range);
        let args: Vec<Option<Column>> = aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|e| e.eval(&rows, &ctx.eval_ctx())).transpose())
            .collect::<Result<_>>()?;
        let open = |accs: &mut Vec<Acc>| {
            accs.extend(
                aggs.iter().zip(&args).map(|(a, c)| Acc::new(a, c.as_ref().map(Column::data_type))),
            )
        };
        let mut local = parallel::Groups::default();
        for row in range.clone() {
            if row % CHECK_STRIDE == 0 {
                ctx.check()?;
            }
            let accs = local.group(ids, key(row), row, width, open);
            for (acc, col) in accs.iter_mut().zip(&args) {
                acc.update(col.as_ref().map(|c| c.value(row - range.start)).as_ref())?;
            }
        }
        Ok(local)
    };
    parallel::fold_groups(ctx, ranges, width, &key, new_ids, fold, Acc::merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Field;

    fn ctx_parts() -> (Catalog, UdfRegistry, OpCounters, ExecConfig) {
        (Catalog::new(), UdfRegistry::new(), OpCounters::default(), ExecConfig::default())
    }

    fn sample_table() -> Table {
        Table::new(
            Schema::new(vec![Field::new("k", DataType::Int64), Field::new("v", DataType::Float64)]),
            vec![
                Column::Int64(vec![1, 2, 1, 2, 3]),
                Column::Float64(vec![10.0, 20.0, 30.0, 40.0, 50.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn filter_executes_mask() {
        let (catalog, udfs, ops, config) = ctx_parts();
        catalog.create_table("t", sample_table(), false).unwrap();
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
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Scan {
                table: "t".into(),
                schema: sample_table().schema().clone(),
            }),
            predicate: BoundExpr::Binary {
                left: Box::new(BoundExpr::Column(0)),
                op: crate::sql::ast::BinOp::Eq,
                right: Box::new(BoundExpr::Literal(Value::Int64(1))),
            },
        };
        let out = execute(&plan, &ctx).unwrap();
        assert_eq!(out.num_rows(), 2);
        // The counters saw a scan and a filter.
        let kinds: Vec<_> = ops.snapshot().iter().map(|(k, _)| *k).collect();
        assert!(kinds.contains(&OperatorKind::Scan));
        assert!(kinds.contains(&OperatorKind::Filter));
    }

    #[test]
    fn hash_join_matches_pairs() {
        let (catalog, udfs, ops, config) = ctx_parts();
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
        let lt = sample_table();
        let rt = Table::new(
            Schema::new(vec![
                Field::new("k2", DataType::Int64),
                Field::new("name", DataType::Utf8),
            ]),
            vec![Column::Int64(vec![1, 3]), Column::Utf8(vec!["one".into(), "three".into()])],
        )
        .unwrap();
        let schema =
            Schema::new(lt.schema().fields().iter().chain(rt.schema().fields()).cloned().collect());
        let (out, _, _) = hash_join(
            &lt,
            &rt,
            &[(BoundExpr::Column(0), BoundExpr::Column(0))],
            None,
            None,
            &schema,
            &ctx,
        )
        .unwrap();
        // k=1 matches twice, k=3 once.
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn aggregate_group_by() {
        let (catalog, udfs, ops, config) = ctx_parts();
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
        let t = sample_table();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("s", DataType::Float64),
            Field::new("c", DataType::Int64),
        ]);
        let out = aggregate(
            &t,
            &[BoundExpr::Column(0)],
            &[
                AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(BoundExpr::Column(1)),
                    distinct: false,
                    output_name: "s".into(),
                },
                AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    distinct: false,
                    output_name: "c".into(),
                },
            ],
            &schema,
            &ctx,
        )
        .unwrap()
        .0;
        assert_eq!(out.num_rows(), 3);
        // Group 1 -> 40.0 over 2 rows.
        let k = out.column(0);
        let s = out.column(1);
        let c = out.column(2);
        let pos = (0..3).find(|&i| k.i64_at(i) == 1).unwrap();
        assert_eq!(s.f64_at(pos), 40.0);
        assert_eq!(c.i64_at(pos), 2);
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let (catalog, udfs, ops, config) = ctx_parts();
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
        let t = Table::empty(sample_table().schema().clone());
        let schema = Schema::new(vec![Field::new("c", DataType::Int64)]);
        let out = aggregate(
            &t,
            &[],
            &[AggExpr {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
                output_name: "c".into(),
            }],
            &schema,
            &ctx,
        )
        .unwrap()
        .0;
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column(0).i64_at(0), 0);
    }

    #[test]
    fn count_of_boolean_counts_trues() {
        let (catalog, udfs, ops, config) = ctx_parts();
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
        let t = Table::new(
            Schema::new(vec![Field::new("b", DataType::Bool)]),
            vec![Column::Bool(vec![true, false, true, true])],
        )
        .unwrap();
        let schema = Schema::new(vec![Field::new("c", DataType::Int64)]);
        let out = aggregate(
            &t,
            &[],
            &[AggExpr {
                func: AggFunc::Count,
                arg: Some(BoundExpr::Column(0)),
                distinct: false,
                output_name: "c".into(),
            }],
            &schema,
            &ctx,
        )
        .unwrap()
        .0;
        assert_eq!(out.column(0).i64_at(0), 3);
    }

    #[test]
    fn parallel_operators_match_serial() {
        // A table big enough to split into several morsels.
        let n = 1000i64;
        let big = Table::new(
            Schema::new(vec![Field::new("k", DataType::Int64), Field::new("v", DataType::Float64)]),
            vec![
                Column::Int64((0..n).map(|i| i % 37).collect()),
                Column::Float64((0..n).map(|i| i as f64 * 0.5).collect()),
            ],
        )
        .unwrap();

        let run = |parallelism: usize| -> (Table, Table, Table) {
            let (catalog, udfs, ops, mut config) = ctx_parts();
            config.parallelism = parallelism;
            config.morsel_rows = 64;
            catalog.create_table("t", big.clone(), false).unwrap();
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
            let scan = LogicalPlan::Scan { table: "t".into(), schema: big.schema().clone() };
            let filtered = execute(
                &LogicalPlan::Filter {
                    input: Box::new(scan.clone()),
                    predicate: BoundExpr::Binary {
                        left: Box::new(BoundExpr::Column(0)),
                        op: crate::sql::ast::BinOp::Lt,
                        right: Box::new(BoundExpr::Literal(Value::Int64(20))),
                    },
                },
                &ctx,
            )
            .unwrap();
            let (joined, _, _) = hash_join(
                &big,
                &big,
                &[(BoundExpr::Column(0), BoundExpr::Column(0))],
                None,
                None,
                &Schema::new(
                    big.schema().fields().iter().chain(big.schema().fields()).cloned().collect(),
                ),
                &ctx,
            )
            .unwrap();
            let agg_schema = Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("c", DataType::Int64),
                Field::new("mn", DataType::Float64),
            ]);
            let grouped = aggregate(
                &big,
                &[BoundExpr::Column(0)],
                &[
                    AggExpr {
                        func: AggFunc::Count,
                        arg: None,
                        distinct: false,
                        output_name: "c".into(),
                    },
                    AggExpr {
                        func: AggFunc::Min,
                        arg: Some(BoundExpr::Column(1)),
                        distinct: false,
                        output_name: "mn".into(),
                    },
                ],
                &agg_schema,
                &ctx,
            )
            .unwrap()
            .0;
            (filtered, joined, grouped)
        };

        let (f1, j1, g1) = run(1);
        for p in [2, 8] {
            let (fp, jp, gp) = run(p);
            assert_eq!(f1, fp, "filter differs at parallelism={p}");
            assert_eq!(j1, jp, "join differs at parallelism={p}");
            assert_eq!(g1, gp, "group-by differs at parallelism={p}");
        }
    }

    #[test]
    fn acc_merge_combines_partials() {
        // Merging per-morsel partials must agree with a single pass for the
        // exactly-mergeable accumulators, and with the definition for Std.
        let agg = |func, distinct| AggExpr {
            func,
            arg: Some(BoundExpr::Column(0)),
            distinct,
            output_name: "x".into(),
        };
        let data: Vec<f64> = vec![1.0, 4.0, 2.0, 8.0, 5.0, 7.0];
        let (lo, hi) = data.split_at(3);

        let mut whole = Acc::new(&agg(AggFunc::StddevSamp, false), Some(DataType::Float64));
        for &x in &data {
            whole.update(Some(&Value::Float64(x))).unwrap();
        }
        let mut a = Acc::new(&agg(AggFunc::StddevSamp, false), Some(DataType::Float64));
        let mut b = Acc::new(&agg(AggFunc::StddevSamp, false), Some(DataType::Float64));
        for &x in lo {
            a.update(Some(&Value::Float64(x))).unwrap();
        }
        for &x in hi {
            b.update(Some(&Value::Float64(x))).unwrap();
        }
        a.merge(b).unwrap();
        let serial = whole.finish(DataType::Float64).as_f64().unwrap();
        let merged = a.finish(DataType::Float64).as_f64().unwrap();
        assert!((serial - merged).abs() < 1e-12, "std merge: {serial} vs {merged}");

        let mut ca = Acc::new(&agg(AggFunc::Count, true), Some(DataType::Float64));
        let mut cb = Acc::new(&agg(AggFunc::Count, true), Some(DataType::Float64));
        ca.update(Some(&Value::Float64(1.0))).unwrap();
        ca.update(Some(&Value::Float64(2.0))).unwrap();
        cb.update(Some(&Value::Float64(2.0))).unwrap();
        cb.update(Some(&Value::Float64(3.0))).unwrap();
        ca.merge(cb).unwrap();
        assert_eq!(ca.finish(DataType::Int64), Value::Int64(3));

        let mut ma = Acc::new(&agg(AggFunc::Max, false), Some(DataType::Float64));
        let mb = Acc::new(&agg(AggFunc::Max, false), Some(DataType::Float64));
        ma.update(Some(&Value::Float64(4.0))).unwrap();
        ma.merge(mb).unwrap(); // empty partial leaves the max unchanged
        assert_eq!(ma.finish(DataType::Float64), Value::Float64(4.0));
    }

    #[test]
    fn stddev_samp_matches_definition() {
        let (catalog, udfs, ops, config) = ctx_parts();
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
        let t = Table::new(
            Schema::new(vec![Field::new("v", DataType::Float64)]),
            vec![Column::Float64(vec![1.0, 2.0, 3.0])],
        )
        .unwrap();
        let schema = Schema::new(vec![Field::new("s", DataType::Float64)]);
        let out = aggregate(
            &t,
            &[],
            &[AggExpr {
                func: AggFunc::StddevSamp,
                arg: Some(BoundExpr::Column(0)),
                distinct: false,
                output_name: "s".into(),
            }],
            &schema,
            &ctx,
        )
        .unwrap()
        .0;
        assert!((out.column(0).f64_at(0) - 1.0).abs() < 1e-9);
    }
}
