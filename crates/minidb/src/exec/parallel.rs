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

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::column::{Column, Key};
use crate::error::Result;
use crate::expr::BoundExpr;
use crate::plan::logical::AggExpr;
use crate::table::{Schema, Table};

use super::dense::{self, DenseGroupIds, DenseLayout, GroupIds, KeyPath};
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
    F: Fn(usize) -> &'a [usize] + Sync,
{
    let ranges = morsels(ctx.config, n_probe);
    let parts = taskpool::try_run_ranges(ctx.config.parallelism, &ranges, |range| {
        morsel_checkpoint(ctx)?;
        let t0 = morsel_t0(ctx);
        let start = Instant::now();
        let mut build_rows = Vec::new();
        let mut probe_rows = Vec::new();
        for probe_row in range.clone() {
            for &build_row in lookup(probe_row) {
                build_rows.push(build_row);
                probe_rows.push(probe_row);
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

/// Parallel `GroupBy`: partial aggregates per morsel, merged in morsel
/// order (so global group ids follow first occurrence across morsels,
/// matching the serial path's group order). Group keys are evaluated once
/// over the whole input; at most two `Int64` key columns with a small
/// span are addressed by offset, anything else is hashed. Returns the key
/// path taken.
pub(crate) fn aggregate(
    t: &Table,
    group: &[BoundExpr],
    aggs: &[AggExpr],
    schema: &Schema,
    ctx: &ExecContext<'_>,
) -> Result<(Table, Duration, KeyPath)> {
    use crate::hash::{fx_map_with_capacity, FxHashMap};

    let n = t.num_rows();
    let key_cols: Vec<Column> =
        group.iter().map(|e| e.eval(t, &ctx.eval_ctx())).collect::<Result<_>>()?;
    let ints: Option<Vec<&[i64]>> =
        if group.len() > 2 { None } else { key_cols.iter().map(Column::as_i64_slice).collect() };
    let dense = ints.and_then(|ints| Some((DenseLayout::choose(&ints, n)?, ints)));
    if let Some((layout, ints)) = dense {
        let span = layout.span();
        let workers = ctx.config.parallelism as u64;
        let _ids_mem = ctx.reserve("agg.groups", workers * DenseGroupIds::bytes(span))?;
        let slot = |row| {
            let (a, b) = dense::key_at(&ints, row);
            layout.slot(a, b)
        };
        let new_ids = || DenseGroupIds::new(span);
        let (out, busy) = fold_groups(t, &key_cols, slot, new_ids, aggs, schema, ctx)?;
        return Ok((out, busy, KeyPath::Dense));
    }
    let key = |row| key_cols.iter().map(|c| c.key_at(row)).collect::<Vec<Key>>();
    let new_ids =
        || -> FxHashMap<Vec<Key>, usize> { fx_map_with_capacity(ctx.config.morsel_rows / 4 + 16) };
    let (out, busy) = fold_groups(t, &key_cols, key, new_ids, aggs, schema, ctx)?;
    Ok((out, busy, KeyPath::Hash))
}

/// The morsel fold behind [`aggregate`]: each morsel assigns local group
/// ids through a group-id table (reused across morsels, forgetting the
/// groups it opened) and records each local group's first row; the merge
/// re-keys those rows in morsel order.
fn fold_groups<K, M: GroupIds<K> + Send>(
    t: &Table,
    key_cols: &[Column],
    key: impl Fn(usize) -> K + Sync,
    new_ids: impl Fn() -> M + Sync,
    aggs: &[AggExpr],
    schema: &Schema,
    ctx: &ExecContext<'_>,
) -> Result<(Table, Duration)> {
    let tables: Mutex<Vec<M>> = Mutex::new(Vec::new());
    let take = || {
        let pooled = tables.lock().unwrap_or_else(PoisonError::into_inner).pop();
        pooled.unwrap_or_else(&new_ids)
    };

    let ranges = morsels(ctx.config, t.num_rows());
    let parts = taskpool::try_run_ranges(ctx.config.parallelism, &ranges, |range| {
        morsel_checkpoint(ctx)?;
        let t0 = morsel_t0(ctx);
        let start = Instant::now();
        let morsel = t.slice(range.clone());
        let arg_cols: Vec<Option<Column>> = aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|e| e.eval(&morsel, &ctx.eval_ctx())).transpose())
            .collect::<Result<_>>()?;
        let mut ids = take();
        let (mut firsts, mut accs): (Vec<usize>, Vec<Vec<Acc>>) = (Vec::new(), Vec::new());
        for (i, row) in range.clone().enumerate() {
            let id = ids.id(key(row), firsts.len());
            if id == firsts.len() {
                firsts.push(row);
                accs.push(
                    aggs.iter()
                        .zip(&arg_cols)
                        .map(|(a, c)| Acc::new(a, c.as_ref().map(Column::data_type)))
                        .collect(),
                );
            }
            for (acc, col) in accs[id].iter_mut().zip(&arg_cols) {
                acc.update(col.as_ref().map(|c| c.value(i)).as_ref())?;
            }
        }
        for &row in &firsts {
            ids.forget(key(row));
        }
        tables.lock().unwrap_or_else(PoisonError::into_inner).push(ids);
        let elapsed = start.elapsed();
        note_morsel(ctx, &range, t0, firsts.len() as u64);
        Ok::<_, crate::error::Error>((firsts, accs, elapsed))
    })?;

    // Merge partials in morsel order.
    let _group_mem = ctx.reserve(
        "agg.groups",
        super::group_state_bytes(
            parts.iter().map(|p| p.as_ref().map_or(0, |(firsts, _, _)| firsts.len())).sum(),
            aggs.len(),
        ),
    )?;
    let mut busy = Duration::ZERO;
    let mut ids = take();
    let (mut firsts, mut accs): (Vec<usize>, Vec<Vec<Acc>>) = (Vec::new(), Vec::new());
    for part in parts {
        let (local_firsts, local_accs, elapsed) = part?;
        busy += elapsed;
        for (row, partials) in local_firsts.into_iter().zip(local_accs) {
            let gid = ids.id(key(row), firsts.len());
            if gid == firsts.len() {
                firsts.push(row);
                accs.push(partials);
            } else {
                for (acc, partial) in accs[gid].iter_mut().zip(partials) {
                    acc.merge(partial)?;
                }
            }
        }
    }
    // Global aggregate over empty input: one group of empty accumulators
    // (argument types default from the aggregate's output field).
    if key_cols.is_empty() && accs.is_empty() {
        firsts.push(usize::MAX);
        accs.push(
            aggs.iter().zip(schema.fields()).map(|(a, f)| Acc::new(a, Some(f.data_type))).collect(),
        );
    }

    // Emit, mirroring the serial path.
    let mut cols: Vec<Column> =
        schema.fields().iter().map(|f| Column::empty(f.data_type)).collect();
    for (&row, group_accs) in firsts.iter().zip(&accs) {
        for (ki, key_col) in key_cols.iter().enumerate() {
            cols[ki].push(key_col.value(row))?;
        }
        for (ai, acc) in group_accs.iter().enumerate() {
            let field = schema.field(key_cols.len() + ai);
            cols[key_cols.len() + ai].push(acc.finish(field.data_type))?;
        }
    }
    Ok((Table::new(schema.clone(), cols)?, busy))
}
