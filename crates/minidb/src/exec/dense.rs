//! Offset addressing for dense integer keys.
//!
//! Every key a compiled DL2SQL program joins or groups on (`OrderID`,
//! `KernelID`, `MatrixID`, `TupleID`) is a small, dense integer range.
//! When the key is at most two `Int64` columns and the product of their
//! observed value ranges (the *span*) is small next to the rows the
//! structure serves, a key is addressed by its offset from the per-column
//! minimum instead of by hash:
//!
//! * [`DenseIndex`] — the build side of an equi-join as a CSR row list
//!   (per-slot offsets, then rows in build insertion order), optionally
//!   with [`Runs`]: each row's share of a group slot and its product
//!   factors in the same order, for the fused operator's grid fold;
//! * [`DenseGroupIds`] — slot → group id, in first-occurrence order.
//!
//! Both reproduce the iteration orders of the hash structures they stand
//! in for, so an operator's output is bit-identical on either path. Keys
//! that are sparse, non-integer or wider than two columns keep the hash
//! path; [`DenseLayout::choose`] makes that call from the input's observed
//! min/max.

use std::hash::Hash;
use std::ops::Range;

use crate::error::Result;
use crate::hash::FxHashMap;

use super::{ExecContext, CHECK_STRIDE};

/// Slots a dense structure may spend per row it serves.
const SLOTS_PER_ROW: u128 = 4;
/// Slots always allowed, so a small input with a few gaps still goes dense.
const SLOT_SLACK: u128 = 1024;

/// The key structure an operator used; named in its span's detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyPath {
    /// Offset addressing ([`DenseIndex`], [`DenseGroupIds`]).
    Dense,
    /// A hash table.
    Hash,
    /// The fused operator's accumulator grid: groups addressed by offset,
    /// one `f64` per slot and product.
    Grid,
}

impl KeyPath {
    /// Every path, in discriminant order.
    pub const ALL: [KeyPath; 3] = [KeyPath::Dense, KeyPath::Hash, KeyPath::Grid];

    /// `"dense"`, `"hash"` or `"grid"`.
    pub fn label(self) -> &'static str {
        match self {
            KeyPath::Dense => "dense",
            KeyPath::Hash => "hash",
            KeyPath::Grid => "grid",
        }
    }
}

/// How up to two integer key columns map onto slots `0..span`: row-major
/// offsets from each column's minimum. An absent column has minimum 0 and
/// width 1, so callers pass 0 for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DenseLayout {
    min: [i64; 2],
    width: [u64; 2],
}

impl DenseLayout {
    /// The layout over `cols`' observed value ranges when their span is at
    /// most `4 · rows + 1024` (and below `u32::MAX`, so group ids fit a
    /// `u32`). `None` for more than two columns, an empty column, or a
    /// larger span — including one that would overflow `i64` arithmetic.
    pub(crate) fn choose(cols: &[&[i64]], rows: usize) -> Option<DenseLayout> {
        if cols.len() > 2 {
            return None;
        }
        let limit = (SLOTS_PER_ROW * rows as u128 + SLOT_SLACK).min(u32::MAX as u128 - 1);
        let mut layout = DenseLayout { min: [0; 2], width: [1; 2] };
        let mut span: u128 = 1;
        for (i, col) in cols.iter().enumerate() {
            let (&first, rest) = col.split_first()?;
            let (lo, hi) = rest.iter().fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let width = (hi as i128 - lo as i128 + 1) as u128;
            // Checked per column: both factors stay below 2^64 · limit.
            span *= width;
            if span > limit {
                return None;
            }
            layout.min[i] = lo;
            layout.width[i] = width as u64;
        }
        Some(layout)
    }

    /// Number of slots.
    pub(crate) fn span(&self) -> usize {
        (self.width[0] * self.width[1]) as usize
    }

    /// The slot of a key known to lie inside the layout's ranges (every
    /// value of the columns it was chosen from does).
    #[inline]
    pub(crate) fn slot(&self, a: i64, b: i64) -> usize {
        let (da, db) = (a.wrapping_sub(self.min[0]) as u64, b.wrapping_sub(self.min[1]) as u64);
        debug_assert!(da < self.width[0] && db < self.width[1], "key outside the dense layout");
        (da * self.width[1] + db) as usize
    }

    /// Column `col`'s term of a slot: [`slot`](Self::slot) is the sum of
    /// its columns' terms, so keys split across tables add their shares.
    #[inline]
    pub(crate) fn term(&self, col: usize, v: i64) -> usize {
        let d = v.wrapping_sub(self.min[col]) as u64;
        debug_assert!(d < self.width[col], "key outside the dense layout");
        (if col == 0 { d * self.width[1] } else { d }) as usize
    }

    /// The slot of any key, `None` outside the ranges. Wrapping
    /// subtraction is a bijection on `i64`, so exactly the in-range values
    /// land below the width.
    #[inline]
    pub(crate) fn slot_checked(&self, a: i64, b: i64) -> Option<usize> {
        let (da, db) = (a.wrapping_sub(self.min[0]) as u64, b.wrapping_sub(self.min[1]) as u64);
        (da < self.width[0] && db < self.width[1]).then(|| (da * self.width[1] + db) as usize)
    }
}

/// Row `row`'s key over up to two columns, 0 for an absent column.
#[inline]
pub(crate) fn key_at<C: AsRef<[i64]>>(cols: &[C], row: usize) -> (i64, i64) {
    match cols {
        [] => (0, 0),
        [a] => (a.as_ref()[row], 0),
        [a, b, ..] => (a.as_ref()[row], b.as_ref()[row]),
    }
}

/// One table's share of a dense slot over another table's layout: the
/// terms of the layout columns that live in this table. A (probe, build)
/// pair's slot is the sum of its two rows' shares.
pub(crate) struct SlotShare<'a> {
    layout: DenseLayout,
    cols: Vec<(usize, &'a [i64])>,
}

impl<'a> SlotShare<'a> {
    /// The share of the layout columns `cols` — (layout column, values).
    pub(crate) fn new(layout: DenseLayout, cols: Vec<(usize, &'a [i64])>) -> SlotShare<'a> {
        SlotShare { layout, cols }
    }

    /// Row `row`'s share.
    #[inline]
    pub(crate) fn at(&self, row: usize) -> usize {
        self.cols.iter().map(|&(col, values)| self.layout.term(col, values[row])).sum()
    }
}

/// What a grid fold reads from each build row: its share of the group
/// slot and, per product, its factor.
pub(crate) struct RunPayload<'a> {
    pub share: &'a SlotShare<'a>,
    pub factors: Vec<&'a [f64]>,
}

impl RunPayload<'_> {
    /// Bytes [`Runs`] allocates for `rows` build rows over `layout`.
    pub(crate) fn bytes(&self, layout: &DenseLayout, rows: usize) -> u64 {
        rows as u64 * (4 + 8 * self.factors.len() as u64) + layout.span() as u64
    }
}

/// A [`RunPayload`] in the index's CSR order, so the build rows matching
/// one probe key read as one run of each array.
pub(crate) struct Runs {
    /// Per CSR position, the build row's share of the group slot (group
    /// slots fit a `u32`, see [`DenseLayout::choose`]).
    pub shares: Vec<u32>,
    /// Per product, per CSR position, the build row's factor.
    pub factors: Vec<Vec<f64>>,
    /// Per join slot, whether its run's shares ascend by one — the
    /// matches land on consecutive group slots.
    pub contiguous: Vec<bool>,
}

/// An equi-join's build side addressed by slot: the rows of slot `s` are
/// `rows[offsets[s]..offsets[s + 1]]`, in build insertion order — the
/// order a hash build's per-key row vectors hold.
pub(crate) struct DenseIndex {
    layout: DenseLayout,
    offsets: Vec<usize>,
    rows: Vec<usize>,
    runs: Option<Runs>,
}

impl DenseIndex {
    /// Bytes the index allocates for `rows` build rows over `layout`.
    pub(crate) fn bytes(layout: &DenseLayout, rows: usize) -> u64 {
        8 * (layout.span() as u64 + 1 + rows as u64)
    }

    /// Counting-sorts the build rows by slot (stable, so rows keep their
    /// insertion order within a slot), then lays `payload` out in the
    /// same order.
    pub(crate) fn build(
        layout: DenseLayout,
        cols: &[&[i64]],
        n: usize,
        payload: Option<&RunPayload<'_>>,
        ctx: &ExecContext<'_>,
    ) -> Result<DenseIndex> {
        let span = layout.span();
        let mut offsets = vec![0usize; span + 1];
        for row in 0..n {
            if row % CHECK_STRIDE == 0 {
                ctx.check()?;
            }
            let (a, b) = key_at(cols, row);
            offsets[layout.slot(a, b) + 1] += 1;
        }
        for s in 1..=span {
            offsets[s] += offsets[s - 1];
        }
        // Fill with `offsets[s]` as slot s's cursor; afterwards it points
        // at the start of slot s + 1, so shift the table back by one.
        let mut rows = vec![0usize; n];
        for row in 0..n {
            let (a, b) = key_at(cols, row);
            let cursor = &mut offsets[layout.slot(a, b)];
            rows[*cursor] = row;
            *cursor += 1;
        }
        offsets.copy_within(0..span, 1);
        offsets[0] = 0;
        let runs = payload.map(|p| {
            let shares: Vec<u32> = rows.iter().map(|&row| p.share.at(row) as u32).collect();
            let contiguous = offsets
                .windows(2)
                .map(|run| shares[run[0]..run[1]].windows(2).all(|w| w[1] == w[0] + 1))
                .collect();
            let factors = p.factors.iter().map(|f| rows.iter().map(|&row| f[row]).collect());
            Runs { shares, factors: factors.collect(), contiguous }
        });
        Ok(DenseIndex { layout, offsets, rows, runs })
    }

    /// The build rows matching a probe key (empty outside the layout).
    #[inline]
    pub(crate) fn get(&self, a: i64, b: i64) -> &[usize] {
        &self.rows[self.run(a, b).map_or(0..0, |(_, run)| run)]
    }

    /// The slot of a probe key and the CSR positions of its build rows;
    /// `None` outside the layout.
    #[inline]
    pub(crate) fn run(&self, a: i64, b: i64) -> Option<(usize, Range<usize>)> {
        let s = self.layout.slot_checked(a, b)?;
        Some((s, self.offsets[s]..self.offsets[s + 1]))
    }

    /// The build row at CSR position `pos`.
    #[inline]
    pub(crate) fn row(&self, pos: usize) -> usize {
        self.rows[pos]
    }

    /// The payload laid out in CSR order, when the build was given one.
    pub(crate) fn runs(&self) -> Option<&Runs> {
        self.runs.as_ref()
    }
}

/// Group-id assignment in first-occurrence order: the shared contract of
/// the dense slot table and a hash map from key to id.
pub(crate) trait GroupIds<K> {
    /// The id of `key`'s group; a key seen for the first time gets `next`.
    fn id(&mut self, key: K, next: usize) -> usize;
    /// Drops `key`'s group, so a table can be reused for the next range
    /// at the cost of the groups it saw rather than of its size.
    fn forget(&mut self, key: K);
}

impl<K: Hash + Eq> GroupIds<K> for FxHashMap<K, usize> {
    #[inline]
    fn id(&mut self, key: K, next: usize) -> usize {
        *self.entry(key).or_insert(next)
    }

    fn forget(&mut self, key: K) {
        self.remove(&key);
    }
}

/// Slot → group id (`u32::MAX` while the slot has no group).
pub(crate) struct DenseGroupIds(Vec<u32>);

impl DenseGroupIds {
    const EMPTY: u32 = u32::MAX;

    /// An empty table over `span` slots.
    pub(crate) fn new(span: usize) -> DenseGroupIds {
        DenseGroupIds(vec![Self::EMPTY; span])
    }

    /// Bytes the table allocates over `span` slots.
    pub(crate) fn bytes(span: usize) -> u64 {
        4 * span as u64
    }

    /// Whether any slot of `slots` has no group yet. Branch-free over the
    /// run, so the common all-seen case costs a few vector compares.
    #[inline]
    pub(crate) fn any_unseen(&self, slots: Range<usize>) -> bool {
        self.0[slots].iter().fold(false, |any, &id| any | (id == Self::EMPTY))
    }

    /// Gives `slot` the group id `next` when it has none; returns whether
    /// it did.
    #[inline]
    pub(crate) fn open(&mut self, slot: usize, next: usize) -> bool {
        let id = &mut self.0[slot];
        let new = *id == Self::EMPTY;
        if new {
            *id = next as u32;
        }
        new
    }
}

impl GroupIds<usize> for DenseGroupIds {
    #[inline]
    fn id(&mut self, slot: usize, next: usize) -> usize {
        let id = &mut self.0[slot];
        if *id == Self::EMPTY {
            *id = next as u32;
        }
        *id as usize
    }

    fn forget(&mut self, slot: usize) {
        self.0[slot] = Self::EMPTY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_follows_the_span_rule() {
        let keys: Vec<i64> = (0..100).collect();
        // 100 values over 100 rows: dense.
        let l = DenseLayout::choose(&[&keys], keys.len()).unwrap();
        assert_eq!(l.span(), 100);
        // Span exactly at the limit (4 · 10 + 1024) goes dense; one more does not.
        let at = [0i64, 4 * 10 + 1024 - 1];
        assert!(DenseLayout::choose(&[&at], 10).is_some());
        let over = [0i64, 4 * 10 + 1024];
        assert!(DenseLayout::choose(&[&over], 10).is_none());
        // Two columns multiply.
        let a = [0i64, 99];
        let b = [0i64, 99];
        assert_eq!(DenseLayout::choose(&[&a, &b], 2500).unwrap().span(), 10_000);
        assert!(DenseLayout::choose(&[&a, &b], 2000).is_none());
        // More than two columns, or an empty column, never go dense.
        assert!(DenseLayout::choose(&[&a, &a, &a], 1 << 20).is_none());
        assert!(DenseLayout::choose(&[&[]], 0).is_none());
        // No columns: one slot.
        assert_eq!(DenseLayout::choose(&[], 0).unwrap().span(), 1);
    }

    #[test]
    fn extreme_values_fall_back_instead_of_wrapping() {
        let full = [i64::MIN, i64::MAX];
        assert!(DenseLayout::choose(&[&full], usize::MAX / 8).is_none());
        let both = [i64::MIN, i64::MAX];
        assert!(DenseLayout::choose(&[&both, &both], usize::MAX / 8).is_none());
        // Narrow ranges at the extremes are fine.
        let top = [i64::MAX - 2, i64::MAX];
        let l = DenseLayout::choose(&[&top], 2).unwrap();
        assert_eq!(l.slot(i64::MAX, 0), 2);
        assert_eq!(l.slot_checked(i64::MIN, 0), None);
        let bottom = [i64::MIN, i64::MIN + 1];
        let l = DenseLayout::choose(&[&bottom], 2).unwrap();
        assert_eq!(l.slot(i64::MIN, 0), 0);
        assert_eq!(l.slot_checked(i64::MAX, 0), None);
    }

    #[test]
    fn checked_slots_reject_exactly_the_out_of_range_keys() {
        let a = [-3i64, 2];
        let b = [10i64, 12];
        let l = DenseLayout::choose(&[&a, &b], 100).unwrap();
        assert_eq!(l.span(), 6 * 3);
        for x in -6..6 {
            for y in 8..15 {
                let inside = (-3..=2).contains(&x) && (10..=12).contains(&y);
                assert_eq!(l.slot_checked(x, y).is_some(), inside, "({x}, {y})");
                if inside {
                    assert_eq!(l.slot_checked(x, y), Some(l.slot(x, y)));
                }
            }
        }
    }

    #[test]
    fn group_ids_keep_first_occurrence_order() {
        let mut ids = DenseGroupIds::new(4);
        let mut next = 0;
        let mut got = Vec::new();
        for slot in [2usize, 0, 2, 3, 0] {
            let id = ids.id(slot, next);
            if id == next {
                next += 1;
            }
            got.push(id);
        }
        assert_eq!(got, [0, 1, 0, 2, 1]);
        for slot in [2usize, 0, 3] {
            ids.forget(slot);
        }
        assert_eq!(ids.id(3, 0), 0, "forgotten slots start over");
    }
}
