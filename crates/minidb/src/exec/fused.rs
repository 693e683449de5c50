//! The fused join–aggregate operator.
//!
//! Executes [`LogicalPlan::JoinAggregate`](crate::plan::LogicalPlan::JoinAggregate):
//! a hash equi join whose probe folds aggregate partials directly into
//! per-group accumulators, so the join output — one row per matched pair,
//! the largest intermediate of the DL2SQL conv pipeline — is never
//! materialized.
//!
//! Bit-identity with the unfused pair is by construction:
//!
//! * the build side is the smaller input and the probe walks the other
//!   side in ascending row order, emitting matches in build insertion
//!   order — exactly the unfused `hash_join`'s pair order;
//! * each pair updates the same `Acc` accumulators the unfused
//!   group-by would, in the same order, with the same argument values
//!   (the per-side column evaluation reproduces what expression
//!   evaluation over the materialized join row would compute);
//! * the fold runs over ranges of *probe* rows (`parallel::fold_groups`):
//!   one range at `parallelism = 1`, whose partials are the result, and
//!   morsels above it, whose partials merge in range order — so the
//!   result depends only on the range list, never on worker scheduling,
//!   the same discipline as the executor's GroupBy.
//!
//! Typed fast paths avoid per-pair heap traffic: small dense integer keys
//! are addressed by offset (`exec::dense`), sparse ones of up to two
//! `Int64` columns pack into `i128`s for the crate's fast non-SipHash
//! hasher ([`crate::hash`]), aggregate arguments read `&[i64]`/`&[f64]`
//! slices, and `SUM(f64 × f64)` folds into plain `f64`s.

use std::ops::Range;
use std::time::{Duration, Instant};

use crate::column::{Column, Key};
use crate::error::Result;
use crate::expr::BoundExpr;
use crate::hash::{fx_map_with_capacity, FxHashMap};
use crate::optimizer::fuse::{decompose_arg, side_of, ArgShape, Side};
use crate::plan::logical::{AggExpr, AggFunc};
use crate::table::{Schema, Table};
use crate::value::{DataType, Value};

use super::dense::{DenseGroupIds, DenseLayout, GroupIds, KeyPath};
use super::parallel::{self, Groups};
use super::{Acc, ExecContext, JoinIndex, CHECK_STRIDE};

/// Counters the executor records for the fused operator.
pub(crate) struct FusedMetrics {
    /// Worker busy time beyond the operator's own wall time (zero when
    /// the probe ran as one range).
    pub extra_busy: Duration,
    /// Serial setup time — argument/key evaluation plus hash-table build —
    /// before the range-driven probe starts. The executor records
    /// this as its own invocation so effective parallelism reflects only
    /// the probe.
    pub build: Duration,
    /// Rows consumed across both join inputs.
    pub rows_in: usize,
    /// Estimated bytes of join output the fusion avoided building
    /// (matched pairs × bytes per unfused join row).
    pub bytes_not_materialized: u64,
    /// Key structure of the join build.
    pub build_path: KeyPath,
    /// Key structure of the group-id table.
    pub group_path: KeyPath,
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

/// Group state after a fold: per group, its first matched (left row,
/// right row) pair — the rows group-key output values are read from — and
/// its flat accumulators; `items` counts the matched pairs.
type Folded<A> = Groups<(usize, usize), A>;

/// How matched pairs fold into a group's flat accumulators.
trait Fold: Sync {
    type Acc: Send;
    /// Accumulators per group (one per aggregate).
    fn width(&self) -> usize;
    /// Appends one group's fresh accumulators.
    fn open(&self, accs: &mut Vec<Self::Acc>);
    /// Folds the pair (`li`, `ri`) into one group's accumulators.
    fn update(&self, group: &mut [Self::Acc], li: usize, ri: usize) -> Result<()>;
    /// Folds a later range's partial into an accumulator.
    fn merge(&self, acc: &mut Self::Acc, partial: Self::Acc) -> Result<()>;
    /// The output value of a finished accumulator.
    fn finish(&self, acc: &Self::Acc, output_type: DataType) -> Value;
}

/// The conv shape: every aggregate is a `SUM` over an `F64 × F64`
/// product. One `f64` per aggregate and no `Value` per pair; the multiply
/// and add are exactly `Acc::SumF`'s over the evaluated product, so the
/// sums are bit-identical.
struct SumProducts<'a>(Vec<(Side, &'a [f64], Side, &'a [f64])>);

impl<'a> SumProducts<'a> {
    fn new(args: &'a [FusedArg], aggs: &[AggExpr]) -> Option<SumProducts<'a>> {
        args.iter()
            .zip(aggs)
            .map(|(arg, agg)| match (agg.func, arg) {
                (
                    AggFunc::Sum,
                    FusedArg::Product {
                        a_side,
                        a: NumCol::F64(a),
                        b_side,
                        b: NumCol::F64(b),
                        int: false,
                    },
                ) => Some((*a_side, a.as_slice(), *b_side, b.as_slice())),
                _ => None,
            })
            .collect::<Option<_>>()
            .map(SumProducts)
    }
}

impl Fold for SumProducts<'_> {
    type Acc = f64;

    fn width(&self) -> usize {
        self.0.len()
    }

    fn open(&self, accs: &mut Vec<f64>) {
        accs.extend(std::iter::repeat_n(0.0, self.0.len()));
    }

    #[inline]
    fn update(&self, group: &mut [f64], li: usize, ri: usize) -> Result<()> {
        for (sum, &(a_side, a, b_side, b)) in group.iter_mut().zip(&self.0) {
            *sum += a[pick(a_side, li, ri)] * b[pick(b_side, li, ri)];
        }
        Ok(())
    }

    fn merge(&self, acc: &mut f64, partial: f64) -> Result<()> {
        *acc += partial;
        Ok(())
    }

    fn finish(&self, acc: &f64, _: DataType) -> Value {
        Value::Float64(*acc)
    }
}

/// Any aggregate mix, through the executor's [`Acc`] accumulators.
struct General<'a> {
    args: &'a [FusedArg],
    aggs: &'a [AggExpr],
}

impl Fold for General<'_> {
    type Acc = Acc;

    fn width(&self) -> usize {
        self.aggs.len()
    }

    fn open(&self, accs: &mut Vec<Acc>) {
        accs.extend(self.args.iter().zip(self.aggs).map(|(arg, a)| Acc::new(a, arg.data_type())));
    }

    #[inline]
    fn update(&self, group: &mut [Acc], li: usize, ri: usize) -> Result<()> {
        for (acc, arg) in group.iter_mut().zip(self.args) {
            acc.update(arg.value(li, ri).as_ref())?;
        }
        Ok(())
    }

    fn merge(&self, acc: &mut Acc, partial: Acc) -> Result<()> {
        acc.merge(partial)
    }

    fn finish(&self, acc: &Acc, output_type: DataType) -> Value {
        acc.finish(output_type)
    }
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

    // Build on the smaller input (the unfused rule).
    let build_left = lt.num_rows() <= rt.num_rows();
    let index = JoinIndex::build(lt, rt, keys, build_left, "fused.build", ctx)?;
    let build_path = index.path();
    let build = setup_start.elapsed();

    let emitted = match SumProducts::new(&args, aggs) {
        Some(sums) => fold_and_emit(index, build_left, &group_cols, &sums, group, schema, ctx)?,
        None => {
            let fold = General { args: &args, aggs };
            fold_and_emit(index, build_left, &group_cols, &fold, group, schema, ctx)?
        }
    };

    let metrics = FusedMetrics {
        extra_busy: emitted.extra_busy,
        build,
        rows_in: lt.num_rows() + rt.num_rows(),
        bytes_not_materialized: emitted.pairs * per_pair_bytes(group, aggs, lt, rt, l_width),
        build_path,
        group_path: emitted.group_path,
    };
    Ok((emitted.table, metrics))
}

/// The fused operator's output plus what the fold observed.
struct Emitted {
    table: Table,
    extra_busy: Duration,
    pairs: u64,
    group_path: KeyPath,
}

/// Folds every matched pair, releases the build, then emits group-key
/// values from each group's first pair followed by the finished
/// accumulators — the same order and coercions as the unfused path.
fn fold_and_emit<F: Fold>(
    index: JoinIndex,
    build_left: bool,
    group_cols: &[(Side, Column)],
    fold: &F,
    group: &[BoundExpr],
    schema: &Schema,
    ctx: &ExecContext<'_>,
) -> Result<Emitted> {
    let (mut folded, extra_busy, group_path) =
        fold_grouped(&index, build_left, group_cols, fold, ctx)?;
    drop(index);

    // The merged accumulator table is the fused operator's second big
    // allocation; charge it once its size is known.
    let _acc_mem =
        ctx.reserve("fused.accs", super::group_state_bytes(folded.firsts.len(), fold.width()))?;

    // Global aggregate over zero pairs still emits one group.
    if group.is_empty() && folded.firsts.is_empty() {
        folded.firsts.push((usize::MAX, usize::MAX));
        fold.open(&mut folded.accs);
    }

    let key_value = |ki: usize, (li, ri)| {
        let (side, col) = &group_cols[ki];
        col.value(pick(*side, li, ri))
    };
    let finish = |acc: &F::Acc, output_type| fold.finish(acc, output_type);
    Ok(Emitted {
        table: parallel::emit_groups(schema, &folded, group.len(), key_value, finish)?,
        extra_busy,
        pairs: folded.items,
        group_path,
    })
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

/// Dispatches on the group-key representation and folds every matched
/// pair. Up to two `Int64` key columns with a small span — next to the
/// probe side's rows — are addressed by offset ([`DenseGroupIds`]);
/// sparse ones pack into an `i128` hash key (the conv shape needs no
/// per-pair allocation either way); anything else uses general composite
/// keys. Every range and the range merge use the same choice.
fn fold_grouped<F: Fold>(
    index: &JoinIndex,
    build_left: bool,
    group_cols: &[(Side, Column)],
    fold: &F,
    ctx: &ExecContext<'_>,
) -> Result<(Folded<F::Acc>, Duration, KeyPath)> {
    let probe_len = index.probe_len();
    let ranges = parallel::ranges(ctx.config, probe_len);
    let ints: Option<Vec<(Side, &[i64])>> = if group_cols.len() <= 2 {
        group_cols.iter().map(|(s, c)| c.as_i64_slice().map(|v| (*s, v))).collect()
    } else {
        None
    };
    let Some(ints) = ints else {
        let keyer = |li, ri| -> Vec<Key> {
            group_cols.iter().map(|(s, c)| c.key_at(pick(*s, li, ri))).collect()
        };
        let (folded, busy) = fold_all(index, &ranges, build_left, keyer, hash_ids, fold, ctx)?;
        return Ok((folded, busy, KeyPath::Hash));
    };
    let cols: Vec<&[i64]> = ints.iter().map(|(_, c)| *c).collect();
    if let Some(layout) = DenseLayout::choose(&cols, probe_len) {
        // One table per concurrently folding worker.
        let tables = ctx.config.parallelism.min(ranges.len()) as u64;
        let _mem = ctx.reserve("fused.build", tables * DenseGroupIds::bytes(layout.span()))?;
        let ids = || DenseGroupIds::new(layout.span());
        let (folded, busy) = match *ints.as_slice() {
            [] => fold_all(index, &ranges, build_left, |_, _| 0, ids, fold, ctx)?,
            [(s0, c0)] => fold_all(
                index,
                &ranges,
                build_left,
                move |li, ri| layout.slot(c0[pick(s0, li, ri)], 0),
                ids,
                fold,
                ctx,
            )?,
            [(s0, c0), (s1, c1)] => fold_all(
                index,
                &ranges,
                build_left,
                move |li, ri| layout.slot(c0[pick(s0, li, ri)], c1[pick(s1, li, ri)]),
                ids,
                fold,
                ctx,
            )?,
            _ => unreachable!("at most two key columns"),
        };
        return Ok((folded, busy, KeyPath::Dense));
    }
    let (folded, busy) = match *ints.as_slice() {
        [(s0, c0)] => fold_all(
            index,
            &ranges,
            build_left,
            move |li, ri| c0[pick(s0, li, ri)] as i128,
            hash_ids,
            fold,
            ctx,
        )?,
        [(s0, c0), (s1, c1)] => fold_all(
            index,
            &ranges,
            build_left,
            move |li, ri| {
                let a = c0[pick(s0, li, ri)];
                let b = c1[pick(s1, li, ri)];
                ((a as i128) << 64) | (b as u64 as i128)
            },
            hash_ids,
            fold,
            ctx,
        )?,
        _ => unreachable!("no key columns always fit the dense layout"),
    };
    Ok((folded, busy, KeyPath::Hash))
}

/// A fresh hash group-id table.
fn hash_ids<K>() -> FxHashMap<K, usize> {
    fx_map_with_capacity(64)
}

/// Probes every range of probe rows and folds each matched pair into its
/// group ([`parallel::fold_groups`]); returns the group state plus worker
/// busy time beyond wall time.
fn fold_all<K, KF, M, F>(
    index: &JoinIndex,
    ranges: &[Range<usize>],
    build_left: bool,
    keyer: KF,
    new_ids: impl Fn() -> M + Sync,
    fold: &F,
    ctx: &ExecContext<'_>,
) -> Result<(Folded<F::Acc>, Duration)>
where
    KF: Fn(usize, usize) -> K + Sync,
    M: GroupIds<K> + Send,
    F: Fold,
{
    let fold_one =
        |range, ids: &mut M| fold_range(range, index, build_left, &keyer, ids, fold, ctx);
    let key = |(li, ri)| keyer(li, ri);
    let merge = |acc: &mut F::Acc, partial| fold.merge(acc, partial);
    parallel::fold_groups(ctx, ranges, fold.width(), key, new_ids, fold_one, merge)
}

/// The probe-and-fold inner loop over one probe-row range. A plain
/// function taking its inputs as arguments: written inside the range
/// closure, the loop read them through the closure's captures and the
/// conv fold ran ~10% slower at `parallelism = 1`.
fn fold_range<K, F: Fold>(
    range: Range<usize>,
    index: &JoinIndex,
    build_left: bool,
    keyer: &impl Fn(usize, usize) -> K,
    ids: &mut impl GroupIds<K>,
    fold: &F,
    ctx: &ExecContext<'_>,
) -> Result<Folded<F::Acc>> {
    let width = fold.width();
    let mut local = Folded::default();
    for probe_row in range {
        if probe_row % CHECK_STRIDE == 0 {
            ctx.check()?;
        }
        for &build_row in index.matches(probe_row) {
            let (li, ri) = if build_left { (build_row, probe_row) } else { (probe_row, build_row) };
            let accs = local.group(ids, keyer(li, ri), (li, ri), width, |a| fold.open(a));
            fold.update(accs, li, ri)?;
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
