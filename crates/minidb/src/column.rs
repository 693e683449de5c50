//! Typed columnar storage.

use crate::error::{Error, Result};
use crate::value::{Blob, DataType, Value};

/// A column of values, stored as a typed vector.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Bool(Vec<bool>),
    Utf8(Vec<String>),
    Date(Vec<i32>),
    Blob(Vec<Blob>),
}

/// A hashable, equatable key derived from a [`Value`], used by hash joins
/// and hash aggregation. Floats key by their bit pattern; integer-valued
/// floats key identically to the equal integer so that cross-type equi
/// joins behave like [`Value::sql_eq`]. A blob keys as itself: it hashes
/// by its stored content hash and compares its bytes only on a hash match.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Key {
    Int(i64),
    FloatBits(u64),
    Bool(bool),
    Str(String),
    Blob(Blob),
}

impl Value {
    /// The hash key for this value.
    pub fn to_key(&self) -> Key {
        match self {
            Value::Int64(v) => Key::Int(*v),
            Value::Float64(v) => {
                if v.fract() == 0.0 && v.abs() < 9.0e15 {
                    Key::Int(*v as i64)
                } else {
                    Key::FloatBits(v.to_bits())
                }
            }
            Value::Bool(b) => Key::Bool(*b),
            Value::Utf8(s) => Key::Str(s.clone()),
            Value::Date(d) => Key::Int(*d as i64),
            Value::Blob(b) => Key::Blob(b.clone()),
        }
    }
}

impl Column {
    /// An empty column of the given type.
    pub fn empty(dt: DataType) -> Self {
        match dt {
            DataType::Int64 => Column::Int64(Vec::new()),
            DataType::Float64 => Column::Float64(Vec::new()),
            DataType::Bool => Column::Bool(Vec::new()),
            DataType::Utf8 => Column::Utf8(Vec::new()),
            DataType::Date => Column::Date(Vec::new()),
            DataType::Blob => Column::Blob(Vec::new()),
        }
    }

    /// Builds a column of `dt` from scalar values, coercing numerics.
    pub fn from_values(dt: DataType, values: impl IntoIterator<Item = Value>) -> Result<Self> {
        let mut col = Column::empty(dt);
        for v in values {
            col.push(v)?;
        }
        Ok(col)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v) => v.len(),
            Column::Float64(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Utf8(v) => v.len(),
            Column::Date(v) => v.len(),
            Column::Blob(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64(_) => DataType::Int64,
            Column::Float64(_) => DataType::Float64,
            Column::Bool(_) => DataType::Bool,
            Column::Utf8(_) => DataType::Utf8,
            Column::Date(_) => DataType::Date,
            Column::Blob(_) => DataType::Blob,
        }
    }

    /// The value at `row`. Panics when out of bounds (operators validate
    /// lengths up front).
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int64(v) => Value::Int64(v[row]),
            Column::Float64(v) => Value::Float64(v[row]),
            Column::Bool(v) => Value::Bool(v[row]),
            Column::Utf8(v) => Value::Utf8(v[row].clone()),
            Column::Date(v) => Value::Date(v[row]),
            Column::Blob(v) => Value::Blob(v[row].clone()),
        }
    }

    /// Appends a value, coercing Int64↔Float64 where lossless.
    pub fn push(&mut self, value: Value) -> Result<()> {
        match (self, value) {
            (Column::Int64(v), Value::Int64(x)) => v.push(x),
            (Column::Int64(v), Value::Float64(x)) if x.fract() == 0.0 => v.push(x as i64),
            (Column::Int64(v), Value::Bool(x)) => v.push(x as i64),
            (Column::Float64(v), Value::Float64(x)) => v.push(x),
            (Column::Float64(v), Value::Int64(x)) => v.push(x as f64),
            (Column::Bool(v), Value::Bool(x)) => v.push(x),
            (Column::Utf8(v), Value::Utf8(x)) => v.push(x),
            (Column::Date(v), Value::Date(x)) => v.push(x),
            (Column::Date(v), Value::Utf8(x)) => v.push(crate::value::parse_date(&x)?),
            (Column::Blob(v), Value::Blob(x)) => v.push(x),
            (col, value) => {
                return Err(Error::Type(format!(
                    "cannot store {} in a {} column",
                    value.data_type(),
                    col.data_type()
                )))
            }
        }
        Ok(())
    }

    /// Rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Column {
        debug_assert_eq!(mask.len(), self.len());
        fn pick<T: Clone>(v: &[T], mask: &[bool]) -> Vec<T> {
            v.iter().zip(mask.iter()).filter(|(_, keep)| **keep).map(|(x, _)| x.clone()).collect()
        }
        match self {
            Column::Int64(v) => Column::Int64(pick(v, mask)),
            Column::Float64(v) => Column::Float64(pick(v, mask)),
            Column::Bool(v) => Column::Bool(pick(v, mask)),
            Column::Utf8(v) => Column::Utf8(pick(v, mask)),
            Column::Date(v) => Column::Date(pick(v, mask)),
            Column::Blob(v) => Column::Blob(pick(v, mask)),
        }
    }

    /// Gathers rows by index (indices may repeat or reorder).
    pub fn take(&self, indices: &[usize]) -> Column {
        fn gather<T: Clone>(v: &[T], idx: &[usize]) -> Vec<T> {
            idx.iter().map(|&i| v[i].clone()).collect()
        }
        match self {
            Column::Int64(v) => Column::Int64(gather(v, indices)),
            Column::Float64(v) => Column::Float64(gather(v, indices)),
            Column::Bool(v) => Column::Bool(gather(v, indices)),
            Column::Utf8(v) => Column::Utf8(gather(v, indices)),
            Column::Date(v) => Column::Date(gather(v, indices)),
            Column::Blob(v) => Column::Blob(gather(v, indices)),
        }
    }

    /// A contiguous row range (a morsel of the column).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Column {
        match self {
            Column::Int64(v) => Column::Int64(v[range].to_vec()),
            Column::Float64(v) => Column::Float64(v[range].to_vec()),
            Column::Bool(v) => Column::Bool(v[range].to_vec()),
            Column::Utf8(v) => Column::Utf8(v[range].to_vec()),
            Column::Date(v) => Column::Date(v[range].to_vec()),
            Column::Blob(v) => Column::Blob(v[range].to_vec()),
        }
    }

    /// Concatenates another column of the same type onto this one.
    pub fn append(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (Column::Int64(a), Column::Int64(b)) => a.extend_from_slice(b),
            (Column::Float64(a), Column::Float64(b)) => a.extend_from_slice(b),
            (Column::Bool(a), Column::Bool(b)) => a.extend_from_slice(b),
            (Column::Utf8(a), Column::Utf8(b)) => a.extend_from_slice(b),
            (Column::Date(a), Column::Date(b)) => a.extend_from_slice(b),
            (Column::Blob(a), Column::Blob(b)) => a.extend_from_slice(b),
            (a, b) => {
                return Err(Error::Type(format!(
                    "cannot append {} column to {} column",
                    b.data_type(),
                    a.data_type()
                )))
            }
        }
        Ok(())
    }

    /// All values as `f64` (numeric columns only).
    pub fn as_f64_vec(&self) -> Result<Vec<f64>> {
        match self {
            Column::Int64(v) => Ok(v.iter().map(|&x| x as f64).collect()),
            Column::Float64(v) => Ok(v.clone()),
            Column::Bool(v) => Ok(v.iter().map(|&b| b as u8 as f64).collect()),
            Column::Date(v) => Ok(v.iter().map(|&x| x as f64).collect()),
            other => Err(Error::Type(format!("{} column is not numeric", other.data_type()))),
        }
    }

    /// Boolean rows (Bool columns only).
    pub fn as_bool_slice(&self) -> Result<&[bool]> {
        match self {
            Column::Bool(v) => Ok(v),
            other => Err(Error::Type(format!("{} column is not boolean", other.data_type()))),
        }
    }

    /// Convenience: `f64` at row (tests/benches).
    pub fn f64_at(&self, row: usize) -> f64 {
        self.value(row).as_f64().expect("numeric column")
    }

    /// Convenience: `i64` at row (tests/benches).
    pub fn i64_at(&self, row: usize) -> i64 {
        self.value(row).as_i64().expect("integer column")
    }

    /// Hash keys for the whole column.
    pub fn keys(&self) -> Vec<Key> {
        (0..self.len()).map(|i| self.key_at(i)).collect()
    }

    /// The hash key at `row`, built without materializing an intermediate
    /// [`Value`] (avoids a throw-away `String` clone per row on Utf8
    /// columns; identical to `value(row).to_key()`).
    pub fn key_at(&self, row: usize) -> Key {
        match self {
            Column::Int64(v) => Key::Int(v[row]),
            Column::Float64(v) => {
                let x = v[row];
                if x.fract() == 0.0 && x.abs() < 9.0e15 {
                    Key::Int(x as i64)
                } else {
                    Key::FloatBits(x.to_bits())
                }
            }
            Column::Bool(v) => Key::Bool(v[row]),
            Column::Utf8(v) => Key::Str(v[row].clone()),
            Column::Date(v) => Key::Int(v[row] as i64),
            Column::Blob(v) => Key::Blob(v[row].clone()),
        }
    }

    /// The raw `i64` rows (Int64 columns only) — typed fast paths read
    /// these instead of per-row [`Value`]s.
    pub fn as_i64_slice(&self) -> Option<&[i64]> {
        match self {
            Column::Int64(v) => Some(v),
            _ => None,
        }
    }

    /// The raw `f64` rows (Float64 columns only).
    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        match self {
            Column::Float64(v) => Some(v),
            _ => None,
        }
    }

    /// Approximate in-memory size in bytes (used by the storage-overhead
    /// experiment, paper Table IV).
    pub fn memory_bytes(&self) -> usize {
        match self {
            Column::Int64(v) => v.len() * 8,
            Column::Float64(v) => v.len() * 8,
            Column::Bool(v) => v.len(),
            Column::Utf8(v) => v.iter().map(|s| s.len() + 24).sum(),
            Column::Date(v) => v.len() * 4,
            Column::Blob(v) => v.iter().map(|b| b.len() + 8).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_coerces_lossless_numerics() {
        let mut c = Column::empty(DataType::Int64);
        c.push(Value::Int64(1)).unwrap();
        c.push(Value::Float64(2.0)).unwrap();
        assert!(c.push(Value::Float64(2.5)).is_err());
        assert_eq!(c.len(), 2);

        let mut f = Column::empty(DataType::Float64);
        f.push(Value::Int64(3)).unwrap();
        assert_eq!(f.f64_at(0), 3.0);
    }

    #[test]
    fn date_column_accepts_string_literals() {
        let mut c = Column::empty(DataType::Date);
        c.push(Value::Utf8("2021-01-31".into())).unwrap();
        assert_eq!(c.value(0), Value::Date(crate::value::parse_date("2021-01-31").unwrap()));
    }

    #[test]
    fn filter_keeps_masked_rows() {
        let c = Column::Int64(vec![10, 20, 30, 40]);
        let f = c.filter(&[true, false, true, false]);
        assert_eq!(f, Column::Int64(vec![10, 30]));
    }

    #[test]
    fn take_reorders_and_repeats() {
        let c = Column::Utf8(vec!["a".into(), "b".into()]);
        let t = c.take(&[1, 0, 1]);
        assert_eq!(t, Column::Utf8(vec!["b".into(), "a".into(), "b".into()]));
    }

    #[test]
    fn append_requires_same_type() {
        let mut a = Column::Int64(vec![1]);
        a.append(&Column::Int64(vec![2])).unwrap();
        assert_eq!(a.len(), 2);
        assert!(a.append(&Column::Bool(vec![true])).is_err());
    }

    #[test]
    fn keys_unify_int_and_integral_float() {
        // An Int64 join key must meet an equal Float64 key, mirroring sql_eq.
        assert_eq!(Value::Int64(7).to_key(), Value::Float64(7.0).to_key());
        assert_ne!(Value::Int64(7).to_key(), Value::Float64(7.5).to_key());
    }

    #[test]
    fn key_at_agrees_with_value_to_key() {
        let cols = [
            Column::Int64(vec![3]),
            Column::Float64(vec![2.5]),
            Column::Float64(vec![7.0]),
            Column::Bool(vec![true]),
            Column::Utf8(vec!["x".into()]),
            Column::Date(vec![11]),
            Column::Blob(vec![Blob::new(vec![1u8, 2])]),
        ];
        for c in &cols {
            assert_eq!(c.key_at(0), c.value(0).to_key(), "{}", c.data_type());
        }
    }

    #[test]
    fn typed_slice_accessors() {
        assert_eq!(Column::Int64(vec![1, 2]).as_i64_slice(), Some(&[1i64, 2][..]));
        assert_eq!(Column::Float64(vec![0.5]).as_f64_slice(), Some(&[0.5][..]));
        assert_eq!(Column::Int64(vec![1]).as_f64_slice(), None);
        assert_eq!(Column::Float64(vec![0.5]).as_i64_slice(), None);
    }

    #[test]
    fn memory_accounting_is_monotone() {
        let small = Column::Int64(vec![1; 10]).memory_bytes();
        let big = Column::Int64(vec![1; 100]).memory_bytes();
        assert!(big > small);
    }
}
