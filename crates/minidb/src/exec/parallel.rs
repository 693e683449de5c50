//! Range-driven operator execution.
//!
//! Filter, Project, GroupBy, the hash-join probe and the fused fold each
//! have one implementation: a fold over a list of row ranges, run through
//! the shared [`taskpool`] scoped worker pool. `ranges` picks the list —
//! the single range `0..n` at `parallelism = 1` or when the input fits one
//! morsel, fixed-size morsels ([`ExecConfig::morsel_rows`]) otherwise —
//! and the pool runs a single range inline on the calling thread. So the
//! worker count picks the row ranges, never the code path.
//!
//! Per-range outputs are concatenated in range order, so the output row
//! order — and for the hash join, the exact match emission order — does
//! not depend on worker scheduling. Grouped folds (`fold_groups`)
//! compute partial aggregates per range and merge them in range order, so
//! a result depends only on the range list, never on the worker count;
//! one range's partials are the result.
//!
//! Every range starts at a governance checkpoint (cancel, deadline and the
//! `exec.morsel` failpoint), and the pool turns a panic inside a range
//! into [`govern::QueryError::WorkerPanic`] at any parallelism.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::column::Column;
use crate::error::Result;
use crate::expr::BoundExpr;
use crate::table::{Schema, Table};
use crate::value::{DataType, Value};

use super::dense::GroupIds;
use super::{coerce_column, ExecConfig, ExecContext, CHECK_STRIDE};

/// The row ranges an operator over `rows` input rows folds: `0..rows`
/// when it runs on one worker or fits one morsel, else morsels of
/// [`ExecConfig::morsel_rows`].
pub(crate) fn ranges(config: &ExecConfig, rows: usize) -> Vec<Range<usize>> {
    if config.parallelism <= 1 || rows <= config.morsel_rows {
        std::iter::once(0..rows).collect()
    } else {
        taskpool::split_ranges(rows, config.morsel_rows)
    }
}

/// Runs `f` once per range on the pool and returns the results in range
/// order, with the worker busy time beyond the region's wall time (zero
/// for a single range, which runs inline). Each range starts at a
/// governance checkpoint; an operator split over several ranges records
/// one worker span per range, carrying `rows_out` of its result.
fn run<T: Send>(
    ctx: &ExecContext<'_>,
    ranges: &[Range<usize>],
    rows_out: impl Fn(&T) -> usize + Sync,
    f: impl Fn(Range<usize>) -> Result<T> + Sync,
) -> Result<(Vec<T>, Duration)> {
    // One range runs inline: its busy time is the operator's own.
    let split = ranges.len() > 1;
    let traced = split && ctx.span.is_some();
    let start = split.then(Instant::now);
    let parts = taskpool::try_run_ranges(ctx.config.parallelism, ranges, |range| {
        ctx.check()?;
        govern::failpoints::fire("exec.morsel")
            .map_err(|f| crate::error::Error::Exec(format!("injected fault: {f:?}")))?;
        let t0 = if traced { ctx.tracer.now_ns() } else { 0 };
        let begin = split.then(Instant::now);
        let out = f(range.clone())?;
        let busy = begin.map_or(Duration::ZERO, |b| b.elapsed());
        if traced {
            ctx.tracer.add_complete(
                ctx.span,
                obs::SpanKind::Worker,
                "morsel",
                &format!("rows {}..{}", range.start, range.end),
                t0,
                ctx.tracer.now_ns(),
                taskpool::current_worker(),
                rows_out(&out) as u64,
            );
        }
        Ok::<_, crate::error::Error>((out, busy))
    })?;
    let wall = start.map_or(Duration::ZERO, |s| s.elapsed());
    let mut busy = Duration::ZERO;
    let mut outs = Vec::with_capacity(parts.len());
    for part in parts {
        let (out, b) = part?;
        busy += b;
        outs.push(out);
    }
    Ok((outs, busy.saturating_sub(wall)))
}

/// The rows of `range`: the input itself when the range covers it, else
/// a copy of the range.
pub(crate) fn rows<'t>(t: &'t Table, range: &Range<usize>) -> Cow<'t, Table> {
    if range.len() == t.num_rows() {
        Cow::Borrowed(t)
    } else {
        Cow::Owned(t.slice(range.clone()))
    }
}

/// Concatenates per-range tables in range order; one part is moved, not
/// copied.
fn concat(parts: Vec<Table>, schema: &Schema) -> Result<Table> {
    let mut parts = parts.into_iter();
    let Some(mut out) = parts.next() else { return Ok(Table::empty(schema.clone())) };
    for part in parts {
        out.append(&part)?;
    }
    Ok(out)
}

/// `Filter`: evaluates the predicate per range and keeps rows in range
/// order. Returns the output and the extra worker busy time.
pub(crate) fn filter(
    t: &Table,
    predicate: &BoundExpr,
    ctx: &ExecContext<'_>,
) -> Result<(Table, Duration)> {
    let ranges = ranges(ctx.config, t.num_rows());
    let (parts, extra_busy) = run(ctx, &ranges, Table::num_rows, |range| {
        let rows = rows(t, &range);
        let mask = predicate.eval(&rows, &ctx.eval_ctx())?;
        Ok(rows.filter(mask.as_bool_slice()?))
    })?;
    Ok((concat(parts, t.schema())?, extra_busy))
}

/// `Project`: evaluates the expression list per range.
pub(crate) fn project(
    t: &Table,
    exprs: &[BoundExpr],
    schema: &Schema,
    ctx: &ExecContext<'_>,
) -> Result<(Table, Duration)> {
    let ranges = ranges(ctx.config, t.num_rows());
    let (parts, extra_busy) = run(ctx, &ranges, Table::num_rows, |range| {
        let rows = rows(t, &range);
        let cols: Vec<Column> = exprs
            .iter()
            .zip(schema.fields())
            .map(|(e, f)| coerce_column(e.eval(&rows, &ctx.eval_ctx())?, f.data_type))
            .collect::<Result<_>>()?;
        Table::new(schema.clone(), cols)
    })?;
    Ok((concat(parts, schema)?, extra_busy))
}

/// Hash-join probe over a built index: each range of probe rows emits its
/// `(build_row, probe_row)` matches, probe rows ascending and build rows
/// in build insertion order, and the ranges concatenate in order.
pub(crate) fn probe<'a, F>(
    n_probe: usize,
    lookup: F,
    ctx: &ExecContext<'_>,
) -> Result<(Vec<usize>, Vec<usize>, Duration)>
where
    F: Fn(usize) -> &'a [usize] + Sync,
{
    let ranges = ranges(ctx.config, n_probe);
    let pairs = |(_, probe_rows): &(Vec<usize>, Vec<usize>)| probe_rows.len();
    let (parts, extra_busy) = run(ctx, &ranges, pairs, |range| {
        let (mut build_rows, mut probe_rows) = (Vec::new(), Vec::new());
        for probe_row in range {
            if probe_row % CHECK_STRIDE == 0 {
                ctx.check()?;
            }
            for &build_row in lookup(probe_row) {
                build_rows.push(build_row);
                probe_rows.push(probe_row);
            }
        }
        Ok((build_rows, probe_rows))
    })?;
    let mut parts = parts.into_iter();
    let (mut build_rows, mut probe_rows) = parts.next().unwrap_or_default();
    for (b, p) in parts {
        build_rows.extend(b);
        probe_rows.extend(p);
    }
    Ok((build_rows, probe_rows, extra_busy))
}

/// Group state of a grouped fold: each group's first item in
/// first-occurrence order — the row (or join pair) its key values are read
/// from — `width` accumulators per group at
/// `accs[g * width..(g + 1) * width]`, and the number of items folded.
pub(crate) struct Groups<I, A> {
    pub firsts: Vec<I>,
    pub accs: Vec<A>,
    pub items: u64,
}

impl<I, A> Default for Groups<I, A> {
    fn default() -> Self {
        Groups { firsts: Vec::new(), accs: Vec::new(), items: 0 }
    }
}

impl<I, A> Groups<I, A> {
    /// Counts `item` and returns the accumulators of its group, keyed
    /// `key` in `ids`; a new group records `item` as its first and gets
    /// fresh accumulators from `open`.
    #[inline]
    pub(crate) fn group<K>(
        &mut self,
        ids: &mut impl GroupIds<K>,
        key: K,
        item: I,
        width: usize,
        open: impl FnOnce(&mut Vec<A>),
    ) -> &mut [A] {
        let next = self.firsts.len();
        let id = ids.id(key, next);
        if id == next {
            self.firsts.push(item);
            open(&mut self.accs);
        }
        self.items += 1;
        &mut self.accs[id * width..(id + 1) * width]
    }
}

/// A grouped fold over `ranges`: `fold` folds one range into local groups
/// through a group-id table, and the partials merge in range order with
/// `merge`, so group ids follow first occurrence across ranges. One
/// range's partials are the result. A split fold reuses group-id tables
/// across ranges — each range forgets the groups it opened — so a dense
/// table is filled once per worker, not once per range. Returns the
/// groups and the extra worker busy time.
pub(crate) fn fold_groups<I, K, A, M>(
    ctx: &ExecContext<'_>,
    ranges: &[Range<usize>],
    width: usize,
    key: impl Fn(I) -> K + Sync,
    new_ids: impl Fn() -> M + Sync,
    fold: impl Fn(Range<usize>, &mut M) -> Result<Groups<I, A>> + Sync,
    merge: impl Fn(&mut A, A) -> Result<()>,
) -> Result<(Groups<I, A>, Duration)>
where
    I: Copy + Send,
    A: Send,
    M: GroupIds<K> + Send,
{
    let split = ranges.len() > 1;
    let tables: Mutex<Vec<M>> = Mutex::new(Vec::new());
    let take = || {
        let pooled = tables.lock().unwrap_or_else(PoisonError::into_inner).pop();
        pooled.unwrap_or_else(&new_ids)
    };
    let local_groups = |local: &Groups<I, A>| local.firsts.len();
    let (parts, extra_busy) = run(ctx, ranges, local_groups, |range| {
        let mut ids = take();
        let local = fold(range, &mut ids)?;
        if split {
            for &first in &local.firsts {
                ids.forget(key(first));
            }
            tables.lock().unwrap_or_else(PoisonError::into_inner).push(ids);
        }
        Ok(local)
    })?;
    let mut parts = parts.into_iter();
    if !split {
        return Ok((parts.next().unwrap_or_default(), extra_busy));
    }
    // A local group's key is recomputed from its first item.
    let mut ids = take();
    let mut merged = Groups::default();
    for local in parts {
        merged.items += local.items;
        let mut partials = local.accs.into_iter();
        for first in local.firsts {
            let next = merged.firsts.len();
            let gid = ids.id(key(first), next);
            let group = partials.by_ref().take(width);
            if gid == next {
                merged.firsts.push(first);
                merged.accs.extend(group);
            } else {
                for (acc, partial) in merged.accs[gid * width..].iter_mut().zip(group) {
                    merge(acc, partial)?;
                }
            }
        }
    }
    Ok((merged, extra_busy))
}

/// A grouped operator's output: per group, its `keys` key values read
/// from the group's first item, then its finished accumulators.
pub(crate) fn emit_groups<I: Copy, A>(
    schema: &Schema,
    groups: &Groups<I, A>,
    keys: usize,
    key_value: impl Fn(usize, I) -> Value,
    finish: impl Fn(&A, DataType) -> Value,
) -> Result<Table> {
    let width = schema.len() - keys;
    let mut cols: Vec<Column> =
        schema.fields().iter().map(|f| Column::empty(f.data_type)).collect();
    for (g, &first) in groups.firsts.iter().enumerate() {
        for (ki, col) in cols[..keys].iter_mut().enumerate() {
            col.push(key_value(ki, first))?;
        }
        for (ai, acc) in groups.accs[g * width..(g + 1) * width].iter().enumerate() {
            cols[keys + ai].push(finish(acc, schema.field(keys + ai).data_type))?;
        }
    }
    Table::new(schema.clone(), cols)
}
