//! Table statistics for the cost models, computed on demand: exact
//! distinct counts only for the columns asked about. Each catalog layer
//! keeps its own cache (row counts come straight from the tables).

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::catalog::Catalog;
use crate::column::{Column, Key};
use crate::hash::{spread, FxBuildHasher};

/// Per-column distinct counts, keyed by lower-cased (table, column) and
/// stamped with the table epoch they were computed under: any data
/// replacement bumps the epoch, so a same-cardinality UPDATE (which a
/// row-count check would miss) forces a recompute.
#[derive(Debug, Default)]
pub struct StatsCache {
    ndv: Mutex<HashMap<(String, String), (u64, u64)>>,
    /// Cache misses that hashed a column.
    computed: AtomicU64,
}

impl StatsCache {
    /// Exact distinct-value count of `table.column`, computing and caching
    /// on demand. `None` if the table or column is absent. Column names
    /// compare case-insensitively; when several fields share a name, the
    /// last one counts.
    pub fn ndv(&self, catalog: &Catalog, table: &str, column: &str) -> Option<u64> {
        // Read the epoch before the snapshot: if a writer lands in between,
        // we cache fresh data under an old epoch and merely recompute next
        // time — never the reverse.
        let epoch = catalog.table_epoch(table);
        let snapshot = catalog.table(table)?;
        let idx =
            snapshot.schema().fields().iter().rposition(|f| f.name.eq_ignore_ascii_case(column))?;
        let key = (table.to_ascii_lowercase(), column.to_ascii_lowercase());
        if let Some(&(cached_epoch, n)) = self.ndv.lock().get(&key) {
            if cached_epoch == epoch {
                return Some(n);
            }
        }
        let n = distinct_count(snapshot.column(idx));
        self.computed.fetch_add(1, Ordering::Relaxed);
        self.ndv.lock().insert(key, (epoch, n));
        Some(n)
    }

    /// How many distinct counts have been computed (cache misses).
    pub fn ndv_computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }

    /// Adds another cache's computations to this one's count (a session's
    /// layer folds its count into the database's when it ends).
    pub(crate) fn absorb(&self, other: &StatsCache) {
        self.computed.fetch_add(other.ndv_computed(), Ordering::Relaxed);
    }
}

/// Distinct values of a column under the executor's key equality
/// ([`Column::key_at`]). One-word keys go through [`spread`] first: FxHash
/// takes bucket bits from a key's low bits alone, so keys such as `k + 0.5`
/// (low mantissa bits all zero) would share one probe chain.
fn distinct_count(col: &Column) -> u64 {
    fn count<T: Hash + Eq>(keys: impl Iterator<Item = T>) -> u64 {
        let mut set = HashSet::with_hasher(FxBuildHasher);
        set.extend(keys);
        set.len() as u64
    }
    match col {
        Column::Int64(v) => count(v.iter().map(|&x| spread(x as u64))),
        Column::Date(v) => count(v.iter().map(|&d| spread(d as u64))),
        _ => count((0..col.len()).map(|row| match col.key_at(row) {
            Key::Int(x) => Key::Int(spread(x as u64) as i64),
            Key::FloatBits(bits) => Key::FloatBits(spread(bits)),
            key => key,
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Field, Schema, Table};
    use crate::value::DataType;

    fn t(vals: Vec<i64>) -> Table {
        Table::new(Schema::new(vec![Field::new("k", DataType::Int64)]), vec![Column::Int64(vals)])
            .unwrap()
    }

    fn one_column(name: &str, col: Column) -> Table {
        Table::new(Schema::new(vec![Field::new(name, col.data_type())]), vec![col]).unwrap()
    }

    fn rows(c: &Catalog, table: &str) -> Option<u64> {
        c.table(table).map(|t| t.num_rows() as u64)
    }

    /// The distinct count a `HashSet` of `Value::to_key` gives.
    fn reference_ndv(col: &Column) -> u64 {
        (0..col.len()).map(|row| col.value(row).to_key()).collect::<HashSet<_>>().len() as u64
    }

    fn assert_parity(col: Column) {
        let expected = reference_ndv(&col);
        let label = format!("{} {col:?}", col.data_type());
        let c = Catalog::new();
        c.create_table("t", one_column("c", col), false).unwrap();
        assert_eq!(StatsCache::default().ndv(&c, "t", "c"), Some(expected), "{label}");
    }

    #[test]
    fn ndv_matches_value_keys_for_every_type() {
        let blob = |b: &[u8]| crate::Blob::new(b.to_vec());
        assert_parity(Column::Int64(vec![
            1,
            1,
            2,
            3,
            3,
            3,
            -1,
            i64::MIN,
            i64::MAX,
            1 << 40,
            3 << 40,
        ]));
        assert_parity(Column::Float64(vec![
            0.5,
            0.5,
            1.5,
            f64::NAN,
            -f64::NAN,
            f64::NAN,
            0.0,
            -0.0,
            7.0,
            7.0,
            -7.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            8.999_999_999_999_99e15,
            9.0e15,
            -9.0e15,
            9.0e15 + 2.0,
            1.0e300,
            2.5,
            1024.5,
        ]));
        assert_parity(Column::Bool(vec![true, false, true]));
        assert_parity(Column::Bool(vec![false, false]));
        assert_parity(Column::Utf8(vec!["a".into(), "A".into(), "a".into(), String::new()]));
        assert_parity(Column::Date(vec![0, 11, 11, -3, i32::MAX]));
        assert_parity(Column::Blob(vec![blob(&[1, 2]), blob(&[1, 2]), blob(&[]), blob(&[2])]));
    }

    #[test]
    fn float_keys_follow_the_executor() {
        // `-0.0` and `0.0` are one key; integral floats key as integers;
        // each NaN bit pattern is its own key; beyond 9e15 floats key by
        // their bits.
        let ndv = |v: Vec<f64>| distinct_count(&Column::Float64(v));
        assert_eq!(ndv(vec![0.0, -0.0]), 1);
        assert_eq!(ndv(vec![3.0, 3.0, 3.5]), 2);
        assert_eq!(ndv(vec![f64::NAN, f64::NAN]), 1);
        assert_eq!(ndv(vec![f64::NAN, -f64::NAN]), 2);
        assert_eq!(ndv(vec![9.0e15, 9.0e15, 9.0e15 + 2.0]), 2);
    }

    #[test]
    fn low_bit_poor_keys_stay_linear() {
        // Quadratic probing made 100k `k + 0.5` floats take seconds, and
        // longer in debug builds; spread keys take milliseconds.
        let start = std::time::Instant::now();
        let n = 100_000;
        assert_eq!(distinct_count(&Column::Float64((0..n).map(|k| k as f64 + 0.5).collect())), n);
        assert_eq!(distinct_count(&Column::Int64((0..n as i64).map(|k| k << 32).collect())), n);
        assert!(start.elapsed() < std::time::Duration::from_secs(1), "{:?}", start.elapsed());
    }

    #[test]
    fn empty_table_has_zero_ndv_and_rows() {
        for ty in [
            DataType::Int64,
            DataType::Float64,
            DataType::Bool,
            DataType::Utf8,
            DataType::Date,
            DataType::Blob,
        ] {
            let c = Catalog::new();
            c.create_table("t", one_column("c", Column::empty(ty)), false).unwrap();
            let stats = StatsCache::default();
            assert_eq!(stats.ndv(&c, "t", "c"), Some(0), "{ty}");
            assert_eq!(rows(&c, "t"), Some(0), "{ty}");
        }
    }

    #[test]
    fn missing_table_or_column_is_none() {
        let c = Catalog::new();
        c.create_table("t", t(vec![1, 2]), false).unwrap();
        let stats = StatsCache::default();
        assert_eq!(stats.ndv(&c, "nope", "k"), None);
        assert_eq!(stats.ndv(&c, "t", "missing"), None);
        assert_eq!(rows(&c, "nope"), None);
        assert_eq!(stats.ndv_computed(), 0, "nothing was hashed");
    }

    #[test]
    fn names_are_case_insensitive_and_the_last_field_wins() {
        let c = Catalog::new();
        let table = Table::new(
            Schema::new(vec![Field::new("K", DataType::Int64), Field::new("k", DataType::Int64)]),
            vec![Column::Int64(vec![1, 1, 1]), Column::Int64(vec![1, 2, 3])],
        )
        .unwrap();
        c.create_table("T", table, false).unwrap();
        let stats = StatsCache::default();
        assert_eq!(stats.ndv(&c, "t", "K"), Some(3));
        assert_eq!(stats.ndv(&c, "T", "k"), Some(3));
        assert_eq!(rows(&c, "t"), Some(3));
        assert_eq!(stats.ndv_computed(), 1, "both spellings share one entry");
    }

    #[test]
    fn only_the_requested_column_is_hashed_and_hits_are_free() {
        let c = Catalog::new();
        let table = Table::new(
            Schema::new(vec![Field::new("a", DataType::Int64), Field::new("b", DataType::Utf8)]),
            vec![Column::Int64(vec![1, 2, 2]), Column::Utf8(vec!["x".into(); 3])],
        )
        .unwrap();
        c.create_table("t", table, false).unwrap();
        let stats = StatsCache::default();
        assert_eq!(rows(&c, "t"), Some(3));
        assert_eq!(stats.ndv_computed(), 0, "row counts hash nothing");
        assert_eq!(stats.ndv(&c, "t", "a"), Some(2));
        assert_eq!(stats.ndv(&c, "t", "a"), Some(2));
        assert_eq!(stats.ndv_computed(), 1, "b never hashed, second call a hit");
    }

    #[test]
    fn cache_invalidates_on_replace_table() {
        let c = Catalog::new();
        c.create_table("t", t(vec![1, 2]), false).unwrap();
        let stats = StatsCache::default();
        assert_eq!(rows(&c, "t"), Some(2));
        assert_eq!(stats.ndv(&c, "t", "k"), Some(2));
        c.replace_table("t", t(vec![1, 2, 3])).unwrap();
        assert_eq!(rows(&c, "t"), Some(3));
        assert_eq!(stats.ndv(&c, "t", "k"), Some(3));
    }

    #[test]
    fn cache_invalidates_on_same_cardinality_update() {
        // An UPDATE that keeps the row count but changes the values must
        // refresh NDV — a row-count proxy would silently keep stale stats.
        let c = Catalog::new();
        c.create_table("t", t(vec![1, 1, 1]), false).unwrap();
        let stats = StatsCache::default();
        assert_eq!(stats.ndv(&c, "t", "k"), Some(1));
        c.replace_table("t", t(vec![1, 2, 3])).unwrap();
        assert_eq!(stats.ndv(&c, "t", "k"), Some(3));
    }

    #[test]
    fn cache_invalidates_on_drop_and_recreate() {
        // The table epoch survives DROP, so a re-created table of the same
        // name and size never aliases the old entry.
        let c = Catalog::new();
        c.create_table("t", t(vec![1, 1]), false).unwrap();
        let stats = StatsCache::default();
        assert_eq!(stats.ndv(&c, "t", "k"), Some(1));
        c.drop_table("t", false).unwrap();
        assert_eq!(stats.ndv(&c, "t", "k"), None);
        c.create_table("t", t(vec![1, 2]), false).unwrap();
        assert_eq!(stats.ndv(&c, "t", "k"), Some(2));
    }
}
