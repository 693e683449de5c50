//! The fused join–aggregate operator.
//!
//! Executes [`LogicalPlan::JoinAggregate`](crate::plan::LogicalPlan::JoinAggregate),
//! the conv shape the optimizer fuses (`optimizer::fuse`): every aggregate
//! is `SUM(a * b)` of an `f64` factor per join side, grouped by at most
//! two `Int64` keys. Its probe adds the products into an accumulator grid,
//! so the join output — one row per matched pair, the largest
//! intermediate of the DL2SQL conv pipeline — is never materialized.
//!
//! The build side is the smaller input, and the probe walks the other
//! side in ascending row order, meeting matches in build insertion order:
//! exactly the unfused `hash_join`'s pair order. The accumulators are a
//! flat `f64` grid indexed by group slot (one plane per aggregate). The
//! dense layout (`exec::dense`) puts the probe-side group key first, so
//! the build-side key is the minor dimension, and the dense join build
//! stores each build row's share of the slot and its factor in CSR order
//! (`dense::Runs`). One probe row's matches — one `OrderID`, `KernelID`
//! ascending — then land on consecutive slots,
//! `grid[base..base + n] += a[p] * w[s..e]`, with no group lookup per
//! pair; a run whose shares do not ascend by one scatters,
//! `grid[po + share[i]] += a[p] * w[i]`. The grid keeps the unfused sums
//! bit for bit:
//!
//! * *operand order* — each product is computed as written in the source
//!   (`a * b` or `b * a`), as the unfused evaluator computes it;
//! * *order within a group* — every group starts at `0.0` and adds its
//!   terms in probe-row order, then build insertion order: the loop walks
//!   probe rows ascending and each run in CSR order, and a scattered run
//!   adds one term at a time, so a group hit twice by one probe row adds
//!   twice, in build order;
//! * *no lane splitting* — the lanes of a run are distinct slots, so a
//!   vectorized run never splits one group's sum across accumulators;
//! * *ranges* — the fold runs over ranges of probe rows
//!   (`parallel::fold_groups`): one range at `parallelism = 1`, whose sums
//!   are the result, and morsels above it, whose sums merge in range
//!   order — the same discipline as the GroupBy's, so the result depends
//!   only on the range list, never on worker scheduling;
//! * *first occurrence* — a slot check per run (a branch-free scan of the
//!   run's ids, then one check per pair only when a slot is new, or
//!   always for a scattered run) opens groups in pair order and records
//!   each group's first `(left, right)` pair, so groups come out in the
//!   unfused group-by's order with key values read from that pair.
//!
//! The grid is emitted as typed `Int64`/`Float64` columns.
//!
//! When the data refuses the grid — the group keys are too sparse for a
//! dense layout over the probe side's rows, or the join build came out
//! hashed — the operator runs the unfused pair's own code on the join it
//! already built: the hash join's probe and glue, then the GroupBy, with
//! the budget charged at `join.build` and `agg.groups` as for the unfused
//! plan. Its span detail ends in `fold=unfused`. That path *is* the
//! reference plan's code, so its results are the reference's by
//! construction.

use std::collections::BTreeSet;
use std::ops::Range;
use std::time::{Duration, Instant};

use crate::column::Column;
use crate::error::{Error, Result};
use crate::expr::BoundExpr;
use crate::optimizer::fuse::{product_factors, rebind, side_of, Side};
use crate::plan::logical::AggExpr;
use crate::table::{Field, Schema, Table};
use crate::value::DataType;

use super::dense::{
    self, DenseGroupIds, DenseIndex, DenseLayout, GroupIds, KeyPath, RunPayload, Runs, SlotShare,
};
use super::parallel::{self, Groups};
use super::{coerce_column, ExecContext, JoinIndex, CHECK_STRIDE};

/// Counters the executor records for the fused operator.
pub(crate) struct FusedMetrics {
    /// Worker busy time beyond the operator's own wall time (zero when
    /// the probe ran as one range).
    pub extra_busy: Duration,
    /// Serial setup time — key and factor evaluation plus the join build —
    /// before the range-driven probe starts. The executor records this as
    /// its own invocation so effective parallelism reflects only the probe.
    pub build: Duration,
    /// Rows consumed across both join inputs.
    pub rows_in: usize,
    /// Estimated bytes of join output the grid avoided building (matched
    /// pairs × bytes per unfused join row); zero on the unfused path.
    pub bytes_not_materialized: u64,
    /// Key structure of the join build.
    pub build_path: KeyPath,
    /// [`KeyPath::Grid`], or the unfused GroupBy's key structure when the
    /// grid refused.
    pub group_path: KeyPath,
}

/// One `SUM(a * b)`: its two factors, each evaluated on its join side, in
/// source operand order.
type Factors = [(Side, Column); 2];

/// Group state after a grid fold: per group, its first matched (left row,
/// right row) pair — the rows group-key output values are read from — and
/// its sums; `items` counts the matched pairs.
type Folded = Groups<(usize, usize), f64>;

/// Executes the fused operator. Returns the aggregated table and the
/// fused counters; the caller records wall time around this call.
pub(crate) fn join_aggregate(
    lt: &Table,
    rt: &Table,
    keys: &[(BoundExpr, BoundExpr)],
    group: &[BoundExpr],
    aggs: &[AggExpr],
    schema: &Schema,
    ctx: &ExecContext<'_>,
) -> Result<(Table, FusedMetrics)> {
    let setup_start = Instant::now();
    let l_width = lt.num_columns();
    let full_width = l_width + rt.num_columns();

    // Side-resolved group-key and factor columns, evaluated once per side.
    let group_cols: Vec<(Side, Column)> = group
        .iter()
        .map(|g| eval_on_side(g, lt, rt, l_width, full_width, ctx))
        .collect::<Result<_>>()?;
    let products: Vec<Factors> = aggs
        .iter()
        .map(|a| {
            let factors = a.arg.as_ref().and_then(|arg| product_factors(arg, l_width, full_width));
            let Some(factors) = factors else {
                return Err(Error::Plan("fused aggregate is not a product over the join".into()));
            };
            let eval = |(side, e): (Side, &BoundExpr)| -> Result<(Side, Column)> {
                Ok((side, eval_side(e, side, lt, rt, l_width, full_width, ctx)?))
            };
            let [a, b] = factors;
            Ok([eval(a)?, eval(b)?])
        })
        .collect::<Result<_>>()?;

    // Build on the smaller input (the unfused rule).
    let build_left = lt.num_rows() <= rt.num_rows();
    let probe_len = if build_left { rt.num_rows() } else { lt.num_rows() };
    let grid = Grid::new(&products, &group_cols, build_left, probe_len);
    let payload = grid.as_ref().map(Grid::payload);
    let index = JoinIndex::build(lt, rt, keys, build_left, payload.as_ref(), ctx)?;
    let build_path = index.path();
    let build = setup_start.elapsed();

    let fields: Vec<&Field> = lt.schema().fields().iter().chain(rt.schema().fields()).collect();
    let emitted = match grid {
        Some(grid) if index.dense().is_some() => {
            grid.fold_and_emit(index, &group_cols, group, schema, ctx)?
        }
        _ => unfused(lt, rt, index, &fields, group, aggs, schema, ctx)?,
    };

    let metrics = FusedMetrics {
        extra_busy: emitted.extra_busy,
        build,
        rows_in: lt.num_rows() + rt.num_rows(),
        bytes_not_materialized: emitted.folded_pairs * per_pair_bytes(group, aggs, &fields),
        build_path,
        group_path: emitted.group_path,
    };
    Ok((emitted.table, metrics))
}

/// The fused operator's output plus what the fold observed.
struct Emitted {
    table: Table,
    extra_busy: Duration,
    /// Matched pairs folded without being materialized.
    folded_pairs: u64,
    group_path: KeyPath,
}

/// The unfused pair over the join already built: the hash join's probe
/// and glue, gathering only the columns the aggregate reads, then the
/// GroupBy over the joined rows — the reference plan's own code.
#[allow(clippy::too_many_arguments)] // the operator's inputs plus the built join
fn unfused(
    lt: &Table,
    rt: &Table,
    index: JoinIndex,
    fields: &[&Field],
    group: &[BoundExpr],
    aggs: &[AggExpr],
    schema: &Schema,
    ctx: &ExecContext<'_>,
) -> Result<Emitted> {
    let read: Vec<usize> = read_columns(group, aggs).into_iter().collect();
    let mut to_read = vec![usize::MAX; fields.len()];
    for (pos, &c) in read.iter().enumerate() {
        to_read[c] = pos;
    }
    let joined_schema = Schema::new(read.iter().map(|&c| fields[c].clone()).collect());
    let (joined, join_busy) =
        super::probe_join(lt, rt, index, None, Some(&read), &joined_schema, ctx)?;
    let (group, aggs) = rebind(group, aggs, &to_read);
    let (table, agg_busy, group_path) = super::aggregate(&joined, &group, &aggs, schema, ctx)?;
    Ok(Emitted { table, extra_busy: join_busy + agg_busy, folded_pairs: 0, group_path })
}

/// One `SUM` of the grid fold: the product's probe-side and build-side
/// factors, and whether the probe factor comes first in the source.
struct GridSum<'a> {
    probe: &'a [f64],
    build: &'a [f64],
    probe_first: bool,
}

/// The conv shape over dense group keys: accumulators in a flat `f64`
/// grid indexed by group slot (see the module docs). The layout orders
/// the probe-side keys first, so a build-side key is the minor dimension
/// and a pair's slot is its probe row's share plus its build row's.
struct Grid<'a> {
    layout: DenseLayout,
    probe_share: SlotShare<'a>,
    build_share: SlotShare<'a>,
    sums: Vec<GridSum<'a>>,
    build_left: bool,
}

impl<'a> Grid<'a> {
    /// The grid for `products` when their factors are `f64` columns and
    /// the group keys are at most two `Int64` columns that fit a dense
    /// layout over the probe side's rows.
    fn new(
        products: &'a [Factors],
        group_cols: &'a [(Side, Column)],
        build_left: bool,
        probe_len: usize,
    ) -> Option<Grid<'a>> {
        let build_side = if build_left { Side::Left } else { Side::Right };
        let mut keys: Vec<(Side, &[i64])> = group_cols
            .iter()
            .map(|(s, c)| c.as_i64_slice().map(|v| (*s, v)))
            .collect::<Option<_>>()?;
        keys.sort_by_key(|&(side, _)| side == build_side);
        let cols: Vec<&[i64]> = keys.iter().map(|&(_, c)| c).collect();
        let layout = DenseLayout::choose(&cols, probe_len)?;
        let share = |build: bool| {
            let on_side = keys.iter().enumerate().filter(|(_, (s, _))| (*s == build_side) == build);
            SlotShare::new(layout, on_side.map(|(i, &(_, c))| (i, c)).collect())
        };
        let sums = products
            .iter()
            .map(|[(a_side, a), (_, b)]| {
                let (a, b) = (a.as_f64_slice()?, b.as_f64_slice()?);
                Some(if *a_side == build_side {
                    GridSum { probe: b, build: a, probe_first: false }
                } else {
                    GridSum { probe: a, build: b, probe_first: true }
                })
            })
            .collect::<Option<_>>()?;
        Some(Grid { layout, probe_share: share(false), build_share: share(true), sums, build_left })
    }

    /// What the dense build lays out beside its rows.
    fn payload(&self) -> RunPayload<'_> {
        RunPayload {
            share: &self.build_share,
            factors: self.sums.iter().map(|s| s.build).collect(),
        }
    }

    /// Folds every matched pair into the grid through
    /// [`parallel::fold_groups`] — one range at `parallelism = 1`, morsels
    /// merged in range order above it — then releases the build and emits
    /// typed columns. The caller checked that the build is dense.
    fn fold_and_emit(
        &self,
        index: JoinIndex,
        group_cols: &[(Side, Column)],
        group: &[BoundExpr],
        schema: &Schema,
        ctx: &ExecContext<'_>,
    ) -> Result<Emitted> {
        let (dense, probe_keys) = index.dense().expect("the grid folds a dense build");
        let runs = dense.runs().expect("a grid build lays out its runs");
        let ranges = parallel::ranges(ctx.config, index.probe_len());
        let (span, width) = (self.layout.span(), self.sums.len());
        // One grid per concurrently folding worker.
        let tables = ctx.config.parallelism.min(ranges.len()) as u64;
        let mem = ctx.reserve("fused.build", tables * GridAccs::bytes(span, width))?;
        let fold = |range, accs: &mut GridAccs| {
            fold_grid_range(range, self, dense, probe_keys, runs, accs, ctx)
        };
        let key = |(li, ri)| {
            let (probe, build) = if self.build_left { (ri, li) } else { (li, ri) };
            self.probe_share.at(probe) + self.build_share.at(build)
        };
        let merge = |acc: &mut f64, partial| {
            *acc += partial;
            Ok(())
        };
        let new_accs = || GridAccs::new(span, width);
        let (mut folded, extra_busy) =
            parallel::fold_groups(ctx, &ranges, width, key, new_accs, fold, merge)?;
        drop((mem, index));
        // The merged sums are the operator's second big allocation. A
        // global sum over zero pairs still has its one group.
        let _acc_mem =
            ctx.reserve("fused.accs", super::group_state_bytes(folded.firsts.len(), width))?;
        if group.is_empty() && folded.firsts.is_empty() {
            folded.firsts.push((usize::MAX, usize::MAX));
            folded.accs.extend(std::iter::repeat_n(0.0, width));
        }
        Ok(Emitted {
            table: emit_grid(schema, &folded, group_cols)?,
            extra_busy,
            folded_pairs: folded.items,
            group_path: KeyPath::Grid,
        })
    }
}

/// A grid fold's per-worker state: slot → group id in first-occurrence
/// order, and one plane of `span` sums per aggregate. A range leaves every
/// sum it touched back at zero, so the state serves the worker's next
/// range.
struct GridAccs {
    ids: DenseGroupIds,
    sums: Vec<f64>,
}

impl GridAccs {
    fn new(span: usize, width: usize) -> GridAccs {
        GridAccs { ids: DenseGroupIds::new(span), sums: vec![0.0; span * width] }
    }

    /// Bytes one state allocates.
    fn bytes(span: usize, width: usize) -> u64 {
        DenseGroupIds::bytes(span) + 8 * (span * width) as u64
    }
}

impl GroupIds<usize> for GridAccs {
    #[inline]
    fn id(&mut self, slot: usize, next: usize) -> usize {
        self.ids.id(slot, next)
    }

    fn forget(&mut self, slot: usize) {
        self.ids.forget(slot);
    }
}

/// The grid fold over one probe-row range: per probe row, opens the groups
/// its run sees first, then adds each aggregate's products into the run's
/// slots. Returns the range's groups with their sums, in first-occurrence
/// order. A plain function taking its inputs as arguments: a fold loop
/// written inside the range closure reads them through the closure's
/// captures, which measured ~10% slower at `parallelism = 1`.
fn fold_grid_range(
    range: Range<usize>,
    grid: &Grid<'_>,
    index: &DenseIndex,
    probe_keys: &[Vec<i64>],
    runs: &Runs,
    accs: &mut GridAccs,
    ctx: &ExecContext<'_>,
) -> Result<Folded> {
    let span = grid.layout.span();
    let mut local = Folded::default();
    let mut slots = Vec::new();
    for probe_row in range {
        if probe_row % CHECK_STRIDE == 0 {
            ctx.check()?;
        }
        let (a, b) = dense::key_at(probe_keys, probe_row);
        let Some((join_slot, run)) = index.run(a, b) else { continue };
        let shares = &runs.shares[run.clone()];
        let Some(&first_share) = shares.first() else { continue };
        let po = grid.probe_share.at(probe_row);
        let contiguous = runs.contiguous[join_slot];
        let base = po + first_share as usize;
        let n = shares.len();
        if !contiguous || accs.ids.any_unseen(base..base + n) {
            for (pos, &share) in run.clone().zip(shares) {
                let slot = po + share as usize;
                if accs.ids.open(slot, slots.len()) {
                    slots.push(slot);
                    let build_row = index.row(pos);
                    local.firsts.push(if grid.build_left {
                        (build_row, probe_row)
                    } else {
                        (probe_row, build_row)
                    });
                }
            }
        }
        local.items += n as u64;
        for (plane, (sum, factors)) in
            accs.sums.chunks_exact_mut(span).zip(grid.sums.iter().zip(&runs.factors))
        {
            let (x, ws) = (sum.probe[probe_row], &factors[run.clone()]);
            if contiguous {
                add_run(&mut plane[base..base + n], x, ws, sum.probe_first);
            } else {
                for (&share, &w) in shares.iter().zip(ws) {
                    let acc = &mut plane[po + share as usize];
                    *acc += product(x, w, sum.probe_first);
                }
            }
        }
    }
    let width = grid.sums.len();
    local.accs.reserve(slots.len() * width);
    for &slot in &slots {
        for plane in accs.sums.chunks_exact_mut(span) {
            local.accs.push(std::mem::take(&mut plane[slot]));
        }
    }
    Ok(local)
}

/// `x * w` or `w * x`, as the source wrote the product. IEEE
/// multiplication commutes except in which NaN operand's payload a
/// product of two NaNs carries, so the order is kept, not normalized.
#[inline]
#[allow(clippy::if_same_then_else)] // the operand order is the point
fn product(x: f64, w: f64, probe_first: bool) -> f64 {
    if probe_first {
        x * w
    } else {
        w * x
    }
}

/// Adds one probe factor's products with a run of build factors into
/// consecutive accumulators, each product in source operand order (see
/// [`product`]; the branch sits outside the loop). Every lane is a
/// different group.
#[inline]
#[allow(clippy::if_same_then_else)] // the operand order is the point
fn add_run(accs: &mut [f64], x: f64, factors: &[f64], probe_first: bool) {
    if probe_first {
        for (acc, &w) in accs.iter_mut().zip(factors) {
            *acc += x * w;
        }
    } else {
        for (acc, &w) in accs.iter_mut().zip(factors) {
            *acc += w * x;
        }
    }
}

/// The grid's output as typed columns: per group, its key values read from
/// its first pair, then its sums — coerced to the schema like any row.
fn emit_grid(schema: &Schema, folded: &Folded, group_cols: &[(Side, Column)]) -> Result<Table> {
    let width = schema.len() - group_cols.len();
    let keys = group_cols.iter().map(|(side, col)| {
        let values = col.as_i64_slice().expect("grid keys are Int64");
        let row = |(li, ri)| if *side == Side::Left { li } else { ri };
        Column::Int64(folded.firsts.iter().map(|&pair| values[row(pair)]).collect())
    });
    let sums = (0..width)
        .map(|j| Column::Float64(folded.accs.iter().skip(j).step_by(width).copied().collect()));
    let cols = keys
        .chain(sums)
        .zip(schema.fields())
        .map(|(col, field)| coerce_column(col, field.data_type))
        .collect::<Result<_>>()?;
    Table::new(schema.clone(), cols)
}

/// Evaluates a single-sided expression on its side's table.
fn eval_on_side(
    expr: &BoundExpr,
    lt: &Table,
    rt: &Table,
    l_width: usize,
    full_width: usize,
    ctx: &ExecContext<'_>,
) -> Result<(Side, Column)> {
    let side = side_of(expr, l_width, full_width)
        .ok_or_else(|| Error::Plan("fused expression straddles both join sides".into()))?;
    Ok((side, eval_side(expr, side, lt, rt, l_width, full_width, ctx)?))
}

/// Evaluates an expression known to live on `side` against that side's
/// table (right-side column indices shift down by the left width).
fn eval_side(
    expr: &BoundExpr,
    side: Side,
    lt: &Table,
    rt: &Table,
    l_width: usize,
    full_width: usize,
    ctx: &ExecContext<'_>,
) -> Result<Column> {
    match side {
        Side::Left => expr.eval(lt, &ctx.eval_ctx()),
        Side::Right => {
            let mut e = expr.clone();
            e.remap_columns(&right_map(l_width, full_width));
            e.eval(rt, &ctx.eval_ctx())
        }
    }
}

/// Column map sending `left ++ right` indices onto right-side positions.
fn right_map(l_width: usize, full_width: usize) -> Vec<usize> {
    (0..full_width).map(|c| c.wrapping_sub(l_width)).collect()
}

/// The `left ++ right` columns the group keys and aggregate arguments
/// read, ascending.
fn read_columns(group: &[BoundExpr], aggs: &[AggExpr]) -> BTreeSet<usize> {
    let args = aggs.iter().filter_map(|a| a.arg.as_ref());
    group.iter().chain(args).flat_map(BoundExpr::referenced_columns).collect()
}

/// Estimated bytes per join-output row the unfused plan would have
/// materialized: the distinct columns the aggregate reads, sized by type.
fn per_pair_bytes(group: &[BoundExpr], aggs: &[AggExpr], fields: &[&Field]) -> u64 {
    let bytes: u64 = read_columns(group, aggs)
        .into_iter()
        .map(|c| match fields[c].data_type {
            DataType::Int64 | DataType::Float64 => 8,
            DataType::Bool => 1,
            DataType::Date => 4,
            DataType::Utf8 | DataType::Blob => 24,
        })
        .sum();
    bytes.max(8)
}
