//! Morsel-driven parallel operator implementations.
//!
//! Each operator partitions its input into fixed-size row ranges
//! ("morsels", [`ExecConfig::morsel_rows`]) and fans them out over the
//! shared [`taskpool`] scoped worker pool. Per-morsel results are
//! concatenated in morsel order, so the output row order — and for the
//! hash join, the exact match emission order — is identical to the serial
//! path and independent of worker scheduling. GroupBy computes partial
//! aggregates per morsel and merges them in morsel order, so its result
//! depends only on the morsel decomposition, never on the worker count.
//!
//! These paths engage only when `parallelism > 1` and the input clears
//! [`ExecConfig::min_parallel_rows`]; `parallelism == 1` always takes the
//! untouched serial code, which is the bit-for-bit reference behavior.
//!
//! Every function returns the summed per-worker busy time next to its
//! result so the executor can record it as the operator's busy time.

use std::time::{Duration, Instant};

use crate::column::{Column, Key};
use crate::error::Result;
use crate::expr::BoundExpr;
use crate::plan::logical::AggExpr;
use crate::table::{Schema, Table};
use crate::value::Value;

use super::{coerce_column, Acc, ExecConfig, ExecContext};

/// Records one morsel batch as a worker span under the operator's span
/// (no-op when untraced). `t0` is the tracer timestamp taken when the
/// morsel started; the executing pool worker tags the span.
pub(crate) fn note_morsel(
    ctx: &ExecContext<'_>,
    range: &std::ops::Range<usize>,
    t0: u64,
    rows_out: u64,
) {
    if ctx.span.is_none() {
        return;
    }
    ctx.tracer.add_complete(
        ctx.span,
        obs::SpanKind::Worker,
        "morsel",
        &format!("rows {}..{}", range.start, range.end),
        t0,
        ctx.tracer.now_ns(),
        taskpool::current_worker(),
        rows_out,
    );
}

/// Tracer timestamp for a morsel about to run, or 0 when untraced.
#[inline]
pub(crate) fn morsel_t0(ctx: &ExecContext<'_>) -> u64 {
    if ctx.span.is_some() {
        ctx.tracer.now_ns()
    } else {
        0
    }
}

/// Whether the morsel-parallel path should run for an input of `rows`.
pub(crate) fn active(config: &ExecConfig, rows: usize) -> bool {
    config.parallelism > 1 && rows > 0 && rows >= config.min_parallel_rows
}

fn morsels(config: &ExecConfig, rows: usize) -> Vec<std::ops::Range<usize>> {
    taskpool::split_ranges(rows, config.morsel_rows)
}

/// Governance prologue shared by every morsel closure: the cooperative
/// cancel/deadline check plus the `exec.morsel` failpoint (a no-op in
/// release builds). Injected panics unwind here on purpose — the pool's
/// `try_run_*` entry points catch them and return a typed error.
#[inline]
pub(crate) fn morsel_checkpoint(ctx: &ExecContext<'_>) -> Result<()> {
    ctx.check()?;
    govern::failpoints::fire("exec.morsel")
        .map_err(|f| crate::error::Error::Exec(format!("injected fault: {f:?}")))
}

/// Concatenates per-morsel tables in morsel order, summing busy time.
fn concat(parts: Vec<Result<(Table, Duration)>>, schema: &Schema) -> Result<(Table, Duration)> {
    let mut busy = Duration::ZERO;
    let mut out: Option<Table> = None;
    for part in parts {
        let (t, elapsed) = part?;
        busy += elapsed;
        match &mut out {
            None => out = Some(t),
            Some(acc) => acc.append(&t)?,
        }
    }
    Ok((out.unwrap_or_else(|| Table::empty(schema.clone())), busy))
}

/// Parallel `Filter`: evaluates the predicate per morsel and keeps rows in
/// morsel order.
pub(crate) fn filter(
    t: &Table,
    predicate: &BoundExpr,
    ctx: &ExecContext<'_>,
) -> Result<(Table, Duration)> {
    let ranges = morsels(ctx.config, t.num_rows());
    let parts = taskpool::try_run_ranges(ctx.config.parallelism, &ranges, |range| {
        morsel_checkpoint(ctx)?;
        let t0 = morsel_t0(ctx);
        let start = Instant::now();
        let morsel = t.slice(range.clone());
        let mask_col = predicate.eval(&morsel, &ctx.eval_ctx())?;
        let mask = mask_col.as_bool_slice()?;
        let out = morsel.filter(mask);
        let elapsed = start.elapsed();
        note_morsel(ctx, &range, t0, out.num_rows() as u64);
        Ok((out, elapsed))
    })?;
    concat(parts, t.schema())
}

/// Parallel `Project`: evaluates the expression list per morsel.
pub(crate) fn project(
    t: &Table,
    exprs: &[BoundExpr],
    schema: &Schema,
    ctx: &ExecContext<'_>,
) -> Result<(Table, Duration)> {
    let ranges = morsels(ctx.config, t.num_rows());
    let parts = taskpool::try_run_ranges(ctx.config.parallelism, &ranges, |range| {
        morsel_checkpoint(ctx)?;
        let t0 = morsel_t0(ctx);
        let start = Instant::now();
        let morsel = t.slice(range.clone());
        let cols: Vec<Column> = exprs
            .iter()
            .zip(schema.fields())
            .map(|(e, f)| coerce_column(e.eval(&morsel, &ctx.eval_ctx())?, f.data_type))
            .collect::<Result<_>>()?;
        let out = Table::new(schema.clone(), cols)?;
        let elapsed = start.elapsed();
        note_morsel(ctx, &range, t0, out.num_rows() as u64);
        Ok((out, elapsed))
    })?;
    concat(parts, schema)
}

/// Parallel hash-join probe over a pre-built (serial) hash table. Each
/// morsel of probe rows emits its matches locally; concatenating the
/// per-morsel vectors in morsel order reproduces the serial emission order
/// exactly (probe rows ascending, build rows in build insertion order).
pub(crate) fn probe<'a, F>(
    n_probe: usize,
    lookup: F,
    ctx: &ExecContext<'_>,
) -> Result<(Vec<usize>, Vec<usize>, Duration)>
where
    F: Fn(usize) -> Option<&'a Vec<usize>> + Sync,
{
    let ranges = morsels(ctx.config, n_probe);
    let parts = taskpool::try_run_ranges(ctx.config.parallelism, &ranges, |range| {
        morsel_checkpoint(ctx)?;
        let t0 = morsel_t0(ctx);
        let start = Instant::now();
        let mut build_rows = Vec::new();
        let mut probe_rows = Vec::new();
        for probe_row in range.clone() {
            if let Some(matches) = lookup(probe_row) {
                for &build_row in matches {
                    build_rows.push(build_row);
                    probe_rows.push(probe_row);
                }
            }
        }
        let elapsed = start.elapsed();
        note_morsel(ctx, &range, t0, probe_rows.len() as u64);
        Ok::<_, crate::error::Error>((build_rows, probe_rows, elapsed))
    })?;
    let mut build_rows = Vec::new();
    let mut probe_rows = Vec::new();
    let mut busy = Duration::ZERO;
    for part in parts {
        let (b, p, elapsed) = part?;
        build_rows.extend_from_slice(&b);
        probe_rows.extend_from_slice(&p);
        busy += elapsed;
    }
    Ok((build_rows, probe_rows, busy))
}

/// Per-morsel partial aggregation state: local groups in first-occurrence
/// order, each with its key, the key columns' values at its first row, and
/// one accumulator per aggregate.
struct MorselAgg {
    keys: Vec<Vec<Key>>,
    firsts: Vec<Vec<Value>>,
    accs: Vec<Vec<Acc>>,
}

/// Parallel `GroupBy`: partial aggregates per morsel, merged in morsel
/// order (so global group ids follow first occurrence across morsels,
/// matching the serial path's group order).
pub(crate) fn aggregate(
    t: &Table,
    group: &[BoundExpr],
    aggs: &[AggExpr],
    schema: &Schema,
    ctx: &ExecContext<'_>,
) -> Result<(Table, Duration)> {
    use crate::hash::{fx_map_with_capacity, FxHashMap};

    let ranges = morsels(ctx.config, t.num_rows());
    let parts = taskpool::try_run_ranges(ctx.config.parallelism, &ranges, |range| {
        morsel_checkpoint(ctx)?;
        let t0 = morsel_t0(ctx);
        let start = Instant::now();
        let morsel = t.slice(range.clone());
        let n = morsel.num_rows();
        let key_cols: Vec<Column> =
            group.iter().map(|e| e.eval(&morsel, &ctx.eval_ctx())).collect::<Result<_>>()?;
        let arg_cols: Vec<Option<Column>> = aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|e| e.eval(&morsel, &ctx.eval_ctx())).transpose())
            .collect::<Result<_>>()?;

        let mut ids: FxHashMap<Vec<Key>, usize> = fx_map_with_capacity(n / 4 + 16);
        let mut local = MorselAgg { keys: Vec::new(), firsts: Vec::new(), accs: Vec::new() };
        for row in 0..n {
            let key: Vec<Key> = key_cols.iter().map(|c| c.key_at(row)).collect();
            let next = local.keys.len();
            let id = *ids.entry(key.clone()).or_insert_with(|| {
                local.keys.push(key);
                local.firsts.push(key_cols.iter().map(|c| c.value(row)).collect());
                local.accs.push(
                    aggs.iter()
                        .zip(&arg_cols)
                        .map(|(a, c)| Acc::new(a, c.as_ref().map(Column::data_type)))
                        .collect(),
                );
                next
            });
            for (ai, col) in arg_cols.iter().enumerate() {
                let v = col.as_ref().map(|c| c.value(row));
                local.accs[id][ai].update(v.as_ref())?;
            }
        }
        let elapsed = start.elapsed();
        note_morsel(ctx, &range, t0, local.keys.len() as u64);
        Ok::<_, crate::error::Error>((local, elapsed))
    })?;

    // Merge partials in morsel order.
    let _group_mem = ctx.reserve(
        "agg.groups",
        super::group_state_bytes(
            parts.iter().map(|p| p.as_ref().map_or(0, |(local, _)| local.keys.len())).sum(),
            aggs.len(),
        ),
    )?;
    let mut busy = Duration::ZERO;
    let mut ids: FxHashMap<Vec<Key>, usize> = FxHashMap::default();
    let mut firsts: Vec<Vec<Value>> = Vec::new();
    let mut accs: Vec<Vec<Acc>> = Vec::new();
    for part in parts {
        let (local, elapsed) = part?;
        busy += elapsed;
        for ((key, first), local_accs) in local.keys.into_iter().zip(local.firsts).zip(local.accs) {
            match ids.get(&key) {
                Some(&gid) => {
                    for (acc, partial) in accs[gid].iter_mut().zip(local_accs) {
                        acc.merge(partial)?;
                    }
                }
                None => {
                    ids.insert(key, firsts.len());
                    firsts.push(first);
                    accs.push(local_accs);
                }
            }
        }
    }
    // Global aggregate over empty input: one group of empty accumulators
    // (argument types default from the aggregate's output field).
    if group.is_empty() && accs.is_empty() {
        firsts.push(Vec::new());
        accs.push(
            aggs.iter()
                .zip(schema.fields().iter().skip(group.len()))
                .map(|(a, f)| Acc::new(a, Some(f.data_type)))
                .collect(),
        );
    }

    // Emit, mirroring the serial path.
    let mut cols: Vec<Column> =
        schema.fields().iter().map(|f| Column::empty(f.data_type)).collect();
    for (g, first) in firsts.iter().enumerate() {
        for (ki, v) in first.iter().enumerate() {
            cols[ki].push(v.clone())?;
        }
        for (ai, acc) in accs[g].iter().enumerate() {
            let field = schema.field(group.len() + ai);
            cols[group.len() + ai].push(acc.finish(field.data_type))?;
        }
    }
    Ok((Table::new(schema.clone(), cols)?, busy))
}
