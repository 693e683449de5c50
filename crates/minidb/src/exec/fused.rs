//! The fused join–aggregate operator.
//!
//! Executes [`LogicalPlan::JoinAggregate`]: a hash equi join whose probe
//! folds aggregate partials directly into per-group accumulators, so the
//! join output — one row per matched pair, the largest intermediate of
//! the DL2SQL conv pipeline — is never materialized.
//!
//! Bit-identity with the unfused pair is by construction:
//!
//! * the build side is the smaller input and the probe walks the other
//!   side in ascending row order, emitting matches in build insertion
//!   order — exactly the unfused `hash_join`'s pair order;
//! * each pair updates the same [`Acc`] accumulators the unfused
//!   group-by would, in the same order, with the same argument values
//!   (the per-side column evaluation reproduces what expression
//!   evaluation over the materialized join row would compute);
//! * the morsel-parallel path partitions *probe* rows, computes partial
//!   accumulators per morsel and merges them in morsel order, so the
//!   result depends only on the morsel decomposition, never on worker
//!   scheduling — the same discipline as [`parallel::aggregate`].
//!
//! Typed fast paths avoid per-pair heap traffic: join keys pack into
//! `i128`s, group keys of up to two `Int64` columns pack the same way,
//! and aggregate arguments read `&[i64]`/`&[f64]` slices. All key maps
//! use the crate's fast non-SipHash hasher ([`crate::hash`]).

use std::hash::Hash;
use std::time::{Duration, Instant};

use crate::column::{Column, Key};
use crate::error::Result;
use crate::expr::BoundExpr;
use crate::hash::{fx_map_with_capacity, FxHashMap};
use crate::optimizer::fuse::{decompose_arg, side_of, ArgShape, Side};
use crate::plan::logical::AggExpr;
use crate::table::{Schema, Table};
use crate::value::{DataType, Value};

use super::{composite_keys, join_keys, parallel, Acc, ExecContext, JoinKeys};

/// Counters the executor records for the fused operator.
pub(crate) struct FusedMetrics {
    /// Worker busy time beyond the operator's own wall time (zero when
    /// the probe ran serially).
    pub extra_busy: Duration,
    /// Serial setup time — argument/key evaluation plus hash-table build —
    /// before the (possibly parallel) probe starts. The executor records
    /// this as its own invocation so effective parallelism reflects only
    /// the probe.
    pub build: Duration,
    /// Rows consumed across both join inputs.
    pub rows_in: usize,
    /// Estimated bytes of join output the fusion avoided building
    /// (matched pairs × bytes per unfused join row).
    pub bytes_not_materialized: u64,
}

/// A numeric column unwrapped for slice access.
enum NumCol {
    I64(Vec<i64>),
    F64(Vec<f64>),
}

impl NumCol {
    fn from_column(c: Column) -> Result<NumCol> {
        match c {
            Column::Int64(v) => Ok(NumCol::I64(v)),
            other => Ok(NumCol::F64(other.as_f64_vec()?)),
        }
    }

    #[inline]
    fn f64_at(&self, row: usize) -> f64 {
        match self {
            NumCol::I64(v) => v[row] as f64,
            NumCol::F64(v) => v[row],
        }
    }
}

/// How one aggregate's argument is computed per matched (left, right) pair.
enum FusedArg {
    /// `COUNT(*)`.
    CountStar,
    /// Evaluated entirely on one join side.
    Single { side: Side, col: Column },
    /// A product of one factor per side, operands in source order (the
    /// conv `SUM(A.Value * B.Value)` shape). `int` mirrors the binary
    /// evaluator's type rule: Int64 only when both factors are Int64.
    Product { a_side: Side, a: NumCol, b_side: Side, b: NumCol, int: bool },
}

#[inline]
fn pick(side: Side, li: usize, ri: usize) -> usize {
    match side {
        Side::Left => li,
        Side::Right => ri,
    }
}

impl FusedArg {
    /// The argument's column type — what evaluating it over the
    /// materialized join output would produce (drives SumI vs SumF).
    fn data_type(&self) -> Option<DataType> {
        match self {
            FusedArg::CountStar => None,
            FusedArg::Single { col, .. } => Some(col.data_type()),
            FusedArg::Product { int, .. } => {
                Some(if *int { DataType::Int64 } else { DataType::Float64 })
            }
        }
    }

    #[inline]
    fn value(&self, li: usize, ri: usize) -> Option<Value> {
        match self {
            FusedArg::CountStar => None,
            FusedArg::Single { side, col } => Some(col.value(pick(*side, li, ri))),
            FusedArg::Product { a_side, a, b_side, b, int } => {
                let ar = pick(*a_side, li, ri);
                let br = pick(*b_side, li, ri);
                if *int {
                    let (NumCol::I64(av), NumCol::I64(bv)) = (a, b) else { unreachable!() };
                    // Same wrapping semantics as the vectorized evaluator.
                    Some(Value::Int64(av[ar].wrapping_mul(bv[br])))
                } else {
                    Some(Value::Float64(a.f64_at(ar) * b.f64_at(br)))
                }
            }
        }
    }
}

/// Merged group state after the fold, with group keys erased.
#[derive(Default)]
struct FoldedGroups {
    /// First matched (left row, right row) per group, in first-occurrence
    /// order — the rows group-key output values are read from.
    firsts: Vec<(usize, usize)>,
    accs: Vec<Vec<Acc>>,
    pairs: u64,
}

/// Per-morsel (or whole-input) partial state.
struct LocalGroups<K> {
    keys: Vec<K>,
    folded: FoldedGroups,
}

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

    // Side-resolved group-key columns, evaluated once per side.
    let group_cols: Vec<(Side, Column)> = group
        .iter()
        .map(|g| eval_on_side(g, lt, rt, l_width, full_width, ctx))
        .collect::<Result<_>>()?;

    // Per-aggregate argument evaluators.
    let args: Vec<FusedArg> = aggs
        .iter()
        .map(|a| match &a.arg {
            None => Ok(FusedArg::CountStar),
            Some(arg) => build_arg(arg, lt, rt, l_width, full_width, ctx),
        })
        .collect::<Result<_>>()?;

    // Join keys per side; build on the smaller input (the unfused rule).
    let l_exprs: Vec<BoundExpr> = keys.iter().map(|(l, _)| l.clone()).collect();
    let r_exprs: Vec<BoundExpr> = keys.iter().map(|(_, r)| r.clone()).collect();
    let lk = join_keys(lt, &l_exprs, ctx)?;
    let rk = join_keys(rt, &r_exprs, ctx)?;
    let build_left = lt.num_rows() <= rt.num_rows();

    let (mut folded, extra_busy, build_time) = match (&lk, &rk) {
        (JoinKeys::Packed(l), JoinKeys::Packed(r)) => {
            let (build, probe) = if build_left { (l, r) } else { (r, l) };
            let _build_mem = ctx.reserve("fused.build", super::build_bytes(build.len(), 16))?;
            let mut table: FxHashMap<i128, Vec<usize>> = fx_map_with_capacity(build.len());
            for (row, &k) in build.iter().enumerate() {
                if row % super::CHECK_STRIDE == 0 {
                    ctx.check()?;
                }
                table.entry(k).or_default().push(row);
            }
            let build_time = setup_start.elapsed();
            let (folded, extra_busy) = fold_grouped(
                probe.len(),
                |row| table.get(&probe[row]),
                build_left,
                &group_cols,
                &args,
                aggs,
                ctx,
            )?;
            (folded, extra_busy, build_time)
        }
        _ => {
            let lg = composite_keys(lt, &l_exprs, ctx)?;
            let rg = composite_keys(rt, &r_exprs, ctx)?;
            let (build, probe) = if build_left { (&lg, &rg) } else { (&rg, &lg) };
            let _build_mem = ctx.reserve("fused.build", super::build_bytes(build.len(), 32))?;
            let mut table: FxHashMap<&[Key], Vec<usize>> = fx_map_with_capacity(build.len());
            for (row, k) in build.iter().enumerate() {
                if row % super::CHECK_STRIDE == 0 {
                    ctx.check()?;
                }
                table.entry(k.as_slice()).or_default().push(row);
            }
            let build_time = setup_start.elapsed();
            let (folded, extra_busy) = fold_grouped(
                probe.len(),
                |row| table.get(probe[row].as_slice()),
                build_left,
                &group_cols,
                &args,
                aggs,
                ctx,
            )?;
            (folded, extra_busy, build_time)
        }
    };

    // The merged accumulator table is the fused operator's second big
    // allocation; charge it once its size is known.
    let _acc_mem =
        ctx.reserve("fused.accs", super::group_state_bytes(folded.accs.len(), aggs.len()))?;

    // Global aggregate over zero pairs still emits one group.
    if group.is_empty() && folded.accs.is_empty() {
        folded.firsts.push((usize::MAX, usize::MAX));
        folded
            .accs
            .push(args.iter().zip(aggs).map(|(arg, a)| Acc::new(a, arg.data_type())).collect());
    }

    // Emit: group-key values from each group's first pair, then finished
    // accumulators — the same order and coercions as the unfused path.
    let mut cols: Vec<Column> =
        schema.fields().iter().map(|f| Column::empty(f.data_type)).collect();
    for (g, &(li, ri)) in folded.firsts.iter().enumerate() {
        for (ki, (side, col)) in group_cols.iter().enumerate() {
            cols[ki].push(col.value(pick(*side, li, ri)))?;
        }
        for (ai, acc) in folded.accs[g].iter().enumerate() {
            let field = schema.field(group.len() + ai);
            cols[group.len() + ai].push(acc.finish(field.data_type))?;
        }
    }
    let out = Table::new(schema.clone(), cols)?;

    let metrics = FusedMetrics {
        extra_busy,
        build: build_time,
        rows_in: lt.num_rows() + rt.num_rows(),
        bytes_not_materialized: folded.pairs * per_pair_bytes(group, aggs, lt, rt, l_width),
    };
    Ok((out, metrics))
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
    let side = side_of(expr, l_width, full_width).ok_or_else(|| {
        crate::error::Error::Plan("fused expression straddles both join sides".into())
    })?;
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

/// Builds the per-pair evaluator for one aggregate argument.
fn build_arg(
    arg: &BoundExpr,
    lt: &Table,
    rt: &Table,
    l_width: usize,
    full_width: usize,
    ctx: &ExecContext<'_>,
) -> Result<FusedArg> {
    match decompose_arg(arg, l_width, full_width) {
        Some(ArgShape::Single(side, e)) => {
            let col = eval_side(e, side, lt, rt, l_width, full_width, ctx)?;
            Ok(FusedArg::Single { side, col })
        }
        Some(ArgShape::Product { first: (a_side, a_e), second: (b_side, b_e) }) => {
            let a_col = eval_side(a_e, a_side, lt, rt, l_width, full_width, ctx)?;
            let b_col = eval_side(b_e, b_side, lt, rt, l_width, full_width, ctx)?;
            let int = a_col.data_type() == DataType::Int64 && b_col.data_type() == DataType::Int64;
            Ok(FusedArg::Product {
                a_side,
                a: NumCol::from_column(a_col)?,
                b_side,
                b: NumCol::from_column(b_col)?,
                int,
            })
        }
        None => Err(crate::error::Error::Plan(
            "fused aggregate argument is not decomposable over the join sides".into(),
        )),
    }
}

/// Dispatches on the group-key representation: up to two `Int64` key
/// columns pack into an `i128` (the conv shape — no per-pair allocation);
/// anything else uses general composite keys.
fn fold_grouped<'a, LF>(
    probe_len: usize,
    lookup: LF,
    build_left: bool,
    group_cols: &[(Side, Column)],
    args: &[FusedArg],
    aggs: &[AggExpr],
    ctx: &ExecContext<'_>,
) -> Result<(FoldedGroups, Duration)>
where
    LF: Fn(usize) -> Option<&'a Vec<usize>> + Sync,
{
    let packed: Option<Vec<(Side, &[i64])>> = if group_cols.len() <= 2 {
        group_cols.iter().map(|(s, c)| c.as_i64_slice().map(|v| (*s, v))).collect()
    } else {
        None
    };
    match packed.as_deref() {
        Some([]) => fold_all(probe_len, lookup, build_left, |_, _| 0i128, args, aggs, ctx),
        Some([(s0, c0)]) => {
            let (s0, c0) = (*s0, *c0);
            fold_all(
                probe_len,
                lookup,
                build_left,
                move |li, ri| c0[pick(s0, li, ri)] as i128,
                args,
                aggs,
                ctx,
            )
        }
        Some([(s0, c0), (s1, c1)]) => {
            let (s0, c0, s1, c1) = (*s0, *c0, *s1, *c1);
            fold_all(
                probe_len,
                lookup,
                build_left,
                move |li, ri| {
                    let a = c0[pick(s0, li, ri)];
                    let b = c1[pick(s1, li, ri)];
                    ((a as i128) << 64) | (b as u64 as i128)
                },
                args,
                aggs,
                ctx,
            )
        }
        _ => fold_all(
            probe_len,
            lookup,
            build_left,
            |li, ri| -> Vec<Key> {
                group_cols.iter().map(|(s, c)| c.key_at(pick(*s, li, ri))).collect()
            },
            args,
            aggs,
            ctx,
        ),
    }
}

/// Probes serially or morsel-parallel and returns merged group state plus
/// worker busy time beyond wall time.
fn fold_all<'a, K, KF, LF>(
    probe_len: usize,
    lookup: LF,
    build_left: bool,
    keyer: KF,
    args: &[FusedArg],
    aggs: &[AggExpr],
    ctx: &ExecContext<'_>,
) -> Result<(FoldedGroups, Duration)>
where
    K: Eq + Hash + Clone + Send,
    KF: Fn(usize, usize) -> K + Sync,
    LF: Fn(usize) -> Option<&'a Vec<usize>> + Sync,
{
    if !parallel::active(ctx.config, probe_len) {
        let local = fold_range(0..probe_len, &lookup, build_left, &keyer, args, aggs, ctx)?;
        return Ok((local.folded, Duration::ZERO));
    }

    let probe_start = Instant::now();
    let ranges = taskpool::split_ranges(probe_len, ctx.config.morsel_rows);
    let parts = taskpool::try_run_ranges(ctx.config.parallelism, &ranges, |range| {
        parallel::morsel_checkpoint(ctx)?;
        let t0 = parallel::morsel_t0(ctx);
        let start = Instant::now();
        let local = fold_range(range.clone(), &lookup, build_left, &keyer, args, aggs, ctx)?;
        let elapsed = start.elapsed();
        parallel::note_morsel(ctx, &range, t0, local.keys.len() as u64);
        Ok::<_, crate::error::Error>((local, elapsed))
    })?;

    // Merge partials in morsel order: group ids follow first occurrence
    // across morsels, matching the serial probe's group order.
    let mut busy = Duration::ZERO;
    let mut ids: FxHashMap<K, usize> = FxHashMap::default();
    let mut folded = FoldedGroups::default();
    for part in parts {
        let (local, elapsed) = part?;
        busy += elapsed;
        folded.pairs += local.folded.pairs;
        for ((key, first), partials) in
            local.keys.into_iter().zip(local.folded.firsts).zip(local.folded.accs)
        {
            match ids.get(&key) {
                Some(&gid) => {
                    for (acc, partial) in folded.accs[gid].iter_mut().zip(partials) {
                        acc.merge(partial)?;
                    }
                }
                None => {
                    ids.insert(key, folded.firsts.len());
                    folded.firsts.push(first);
                    folded.accs.push(partials);
                }
            }
        }
    }
    Ok((folded, busy.saturating_sub(probe_start.elapsed())))
}

/// The probe-and-fold inner loop over one probe-row range.
#[allow(clippy::too_many_arguments)] // the fold's full evaluation state
fn fold_range<'a, K, KF, LF>(
    range: std::ops::Range<usize>,
    lookup: &LF,
    build_left: bool,
    keyer: &KF,
    args: &[FusedArg],
    aggs: &[AggExpr],
    ctx: &ExecContext<'_>,
) -> Result<LocalGroups<K>>
where
    K: Eq + Hash + Clone,
    KF: Fn(usize, usize) -> K,
    LF: Fn(usize) -> Option<&'a Vec<usize>>,
{
    let mut ids: FxHashMap<K, usize> = fx_map_with_capacity(64);
    let mut local = LocalGroups { keys: Vec::new(), folded: FoldedGroups::default() };
    for probe_row in range {
        if probe_row % super::CHECK_STRIDE == 0 {
            ctx.check()?;
        }
        let Some(matches) = lookup(probe_row) else { continue };
        for &build_row in matches {
            let (li, ri) = if build_left { (build_row, probe_row) } else { (probe_row, build_row) };
            let key = keyer(li, ri);
            let id = match ids.get(&key) {
                Some(&id) => id,
                None => {
                    let id = local.keys.len();
                    ids.insert(key.clone(), id);
                    local.keys.push(key);
                    local.folded.firsts.push((li, ri));
                    local.folded.accs.push(
                        args.iter()
                            .zip(aggs)
                            .map(|(arg, a)| Acc::new(a, arg.data_type()))
                            .collect(),
                    );
                    id
                }
            };
            for (ai, arg) in args.iter().enumerate() {
                let v = arg.value(li, ri);
                local.folded.accs[id][ai].update(v.as_ref())?;
            }
            local.folded.pairs += 1;
        }
    }
    Ok(local)
}

/// Estimated bytes per join-output row the unfused plan would have
/// materialized: the distinct columns the aggregate reads, sized by type.
fn per_pair_bytes(
    group: &[BoundExpr],
    aggs: &[AggExpr],
    lt: &Table,
    rt: &Table,
    l_width: usize,
) -> u64 {
    let mut cols = std::collections::BTreeSet::new();
    for g in group {
        cols.extend(g.referenced_columns());
    }
    for a in aggs {
        if let Some(arg) = &a.arg {
            cols.extend(arg.referenced_columns());
        }
    }
    let bytes: u64 = cols
        .into_iter()
        .map(|c| {
            let dt = if c < l_width {
                lt.schema().field(c).data_type
            } else {
                rt.schema().field(c - l_width).data_type
            };
            match dt {
                DataType::Int64 | DataType::Float64 => 8,
                DataType::Bool => 1,
                DataType::Date => 4,
                DataType::Utf8 | DataType::Blob => 24,
            }
        })
        .sum();
    // Even a COUNT(*)-only aggregate forces the unfused join to carry at
    // least one column per row.
    bytes.max(8)
}
