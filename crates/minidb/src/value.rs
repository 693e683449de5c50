//! Scalar values and their types.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, Weak};

use crate::error::{Error, Result};

/// The engine's column types. No NULLs: the reproduction's workload never
/// produces them (documented limitation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit float.
    Float64,
    /// Boolean.
    Bool,
    /// UTF-8 string.
    Utf8,
    /// Calendar date, stored as days since 1970-01-01.
    Date,
    /// Opaque binary payload (video keyframes travel as blobs).
    Blob,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DataType::Int64 => "Int64",
            DataType::Float64 => "Float64",
            DataType::Bool => "Bool",
            DataType::Utf8 => "String",
            DataType::Date => "Date",
            DataType::Blob => "Blob",
        };
        f.write_str(name)
    }
}

impl DataType {
    /// Parses a type name as written in `CREATE TABLE` (ClickHouse-flavored
    /// spellings accepted).
    pub fn parse(name: &str) -> Result<Self> {
        match name.to_ascii_lowercase().as_str() {
            "int64" | "int" | "bigint" | "integer" => Ok(DataType::Int64),
            "float64" | "float" | "double" | "real" => Ok(DataType::Float64),
            "bool" | "boolean" => Ok(DataType::Bool),
            "string" | "utf8" | "text" | "varchar" => Ok(DataType::Utf8),
            "date" => Ok(DataType::Date),
            "blob" | "bytes" | "binary" => Ok(DataType::Blob),
            other => Err(Error::Type(format!("unknown type name '{other}'"))),
        }
    }

    /// Whether values of this type support arithmetic.
    pub fn is_numeric(&self) -> bool {
        matches!(self, DataType::Int64 | DataType::Float64)
    }
}

/// A single scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int64(i64),
    Float64(f64),
    Bool(bool),
    Utf8(String),
    /// Days since the Unix epoch.
    Date(i32),
    Blob(Blob),
}

/// An immutable binary payload (a video keyframe) that carries its content
/// hash ([`crate::hash::content_hash`]), computed once by [`Blob::new`]:
/// every copy a query makes is a refcount bump sharing it, so keying a
/// blob — a join, a group, a distinct count, the nUDF memo — never reads
/// its bytes again. Equality compares the allocation, then the hash, then
/// the bytes, so a hash collision costs a comparison, never a wrong match.
#[derive(Debug, Clone)]
pub struct Blob(Arc<BlobData>);

#[derive(Debug)]
struct BlobData {
    hash: u64,
    bytes: Vec<u8>,
}

impl Blob {
    /// A blob over `bytes`, hashing them.
    pub fn new(bytes: Vec<u8>) -> Self {
        Blob(Arc::new(BlobData { hash: crate::hash::content_hash(&bytes), bytes }))
    }

    /// The content hash computed when the blob was built.
    pub fn content_hash(&self) -> u64 {
        self.0.hash
    }

    /// A reference that does not keep the blob alive.
    pub fn downgrade(&self) -> WeakBlob {
        WeakBlob(Arc::downgrade(&self.0))
    }
}

impl Deref for Blob {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0.bytes
    }
}

impl PartialEq for Blob {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || (self.0.hash == other.0.hash && **self == **other)
    }
}
impl Eq for Blob {}

impl Hash for Blob {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

/// A [`Blob`] held without keeping it alive ([`Blob::downgrade`]). While
/// it exists the blob's allocation stays reserved, so no other blob can
/// be built at its address.
#[derive(Debug, Clone)]
pub struct WeakBlob(Weak<BlobData>);

impl WeakBlob {
    /// The blob, unless every [`Blob`] handle to it has been dropped.
    pub fn upgrade(&self) -> Option<Blob> {
        self.0.upgrade().map(Blob)
    }

    /// Whether every [`Blob`] handle to it has been dropped.
    pub fn is_dead(&self) -> bool {
        self.0.strong_count() == 0
    }

    /// Whether both refer to the same allocation.
    pub fn ptr_eq(&self, other: &WeakBlob) -> bool {
        Weak::ptr_eq(&self.0, &other.0)
    }
}

impl Value {
    /// The value's type.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int64(_) => DataType::Int64,
            Value::Float64(_) => DataType::Float64,
            Value::Bool(_) => DataType::Bool,
            Value::Utf8(_) => DataType::Utf8,
            Value::Date(_) => DataType::Date,
            Value::Blob(_) => DataType::Blob,
        }
    }

    /// Numeric view as `f64`; integers and booleans widen.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int64(v) => Ok(*v as f64),
            Value::Float64(v) => Ok(*v),
            Value::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            Value::Date(d) => Ok(*d as f64),
            other => Err(Error::Type(format!("{} is not numeric", other.data_type()))),
        }
    }

    /// Integer view; floats must be integral.
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int64(v) => Ok(*v),
            Value::Float64(v) if v.fract() == 0.0 => Ok(*v as i64),
            Value::Bool(b) => Ok(*b as i64),
            Value::Date(d) => Ok(*d as i64),
            other => Err(Error::Type(format!("{other:?} is not an integer"))),
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Int64(v) => Ok(*v != 0),
            other => Err(Error::Type(format!("{} is not a boolean", other.data_type()))),
        }
    }

    /// String view.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Utf8(s) => Ok(s),
            other => Err(Error::Type(format!("{} is not a string", other.data_type()))),
        }
    }

    /// Total ordering used by ORDER BY and MIN/MAX. Values of different
    /// numeric types compare numerically; other cross-type comparisons
    /// order by type tag (stable, if arbitrary).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int64(a), Int64(b)) => a.cmp(b),
            (Float64(a), Float64(b)) => a.total_cmp(b),
            (Int64(a), Float64(b)) => (*a as f64).total_cmp(b),
            (Float64(a), Int64(b)) => a.total_cmp(&(*b as f64)),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Utf8(a), Utf8(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Blob(a), Blob(b)) => a[..].cmp(&b[..]),
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }

    /// Equality used by joins, grouping and `=`. Numerics compare
    /// numerically across Int64/Float64.
    pub fn sql_eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Int64(a), Int64(b)) => a == b,
            (Float64(a), Float64(b)) => a == b,
            (Int64(a), Float64(b)) | (Float64(b), Int64(a)) => *a as f64 == *b,
            (Bool(a), Bool(b)) => a == b,
            (Utf8(a), Utf8(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            (Blob(a), Blob(b)) => a == b,
            _ => false,
        }
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Int64(_) => 0,
        Value::Float64(_) => 1,
        Value::Bool(_) => 2,
        Value::Utf8(_) => 3,
        Value::Date(_) => 4,
        Value::Blob(_) => 5,
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Utf8(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{}", format_date(*d)),
            Value::Blob(b) => write!(f, "<blob {} bytes>", b.len()),
        }
    }
}

/// Parses `YYYY-MM-DD` (single-digit month/day accepted, as in the paper's
/// `'2021-1-31'`) into days since the Unix epoch.
pub fn parse_date(s: &str) -> Result<i32> {
    let mut parts = s.split('-');
    let bad = || Error::Type(format!("'{s}' is not a date (expected YYYY-MM-DD)"));
    let year: i32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let month: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let day: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    if parts.next().is_some() || !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return Err(bad());
    }
    Ok(days_from_civil(year, month, day))
}

/// Days since 1970-01-01 for a proleptic Gregorian date
/// (Howard Hinnant's `days_from_civil` algorithm).
fn days_from_civil(y: i32, m: u32, d: u32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u32;
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146097 + doe as i32 - 719468
}

/// Inverse of [`parse_date`]: days since epoch to `YYYY-MM-DD`.
pub fn format_date(days: i32) -> String {
    let z = days + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = (z - era * 146097) as u32;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let y = yoe as i32 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_parsing_accepts_clickhouse_spellings() {
        assert_eq!(DataType::parse("Int64").unwrap(), DataType::Int64);
        assert_eq!(DataType::parse("FLOAT64").unwrap(), DataType::Float64);
        assert_eq!(DataType::parse("String").unwrap(), DataType::Utf8);
        assert!(DataType::parse("decimal").is_err());
    }

    #[test]
    fn date_roundtrip() {
        for s in ["1970-01-01", "2021-01-31", "2000-02-29", "1969-12-31", "2021-12-31"] {
            let d = parse_date(s).unwrap();
            assert_eq!(format_date(d), s, "roundtrip of {s}");
        }
        assert_eq!(parse_date("1970-01-01").unwrap(), 0);
        assert_eq!(parse_date("1970-01-02").unwrap(), 1);
    }

    #[test]
    fn single_digit_date_components_parse() {
        // The paper writes '2021-1-31'.
        assert_eq!(parse_date("2021-1-31").unwrap(), parse_date("2021-01-31").unwrap());
    }

    #[test]
    fn bad_dates_are_rejected() {
        for s in ["", "2021", "2021-13-01", "2021-00-10", "2021-01-40", "a-b-c", "2021-01-01-01"] {
            assert!(parse_date(s).is_err(), "{s} should not parse");
        }
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert!(Value::Int64(3).sql_eq(&Value::Float64(3.0)));
        assert!(!Value::Int64(3).sql_eq(&Value::Float64(3.5)));
        assert!(!Value::Int64(1).sql_eq(&Value::Utf8("1".into())));
    }

    #[test]
    fn ordering_is_total_and_numeric_across_types() {
        assert_eq!(Value::Int64(2).total_cmp(&Value::Float64(2.5)), Ordering::Less);
        assert_eq!(Value::Utf8("a".into()).total_cmp(&Value::Utf8("b".into())), Ordering::Less);
        assert_eq!(Value::Float64(f64::NAN).total_cmp(&Value::Float64(f64::NAN)), Ordering::Equal);
    }

    #[test]
    fn blobs_hash_once_and_compare_contents() {
        let a = Blob::new(vec![1, 2, 3]);
        let b = Blob::new(vec![1, 2, 3]);
        assert_eq!(a.content_hash(), crate::hash::content_hash(&[1, 2, 3]));
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a, b, "separate allocations, equal bytes");
        assert_ne!(a, Blob::new(vec![1, 2, 4]));
        assert_ne!(Blob::new(vec![]).content_hash(), Blob::new(vec![0]).content_hash());
        assert_eq!(*a, [1, 2, 3]);
        assert_eq!(
            Value::Blob(a.clone()).total_cmp(&Value::Blob(Blob::new(vec![1, 3]))),
            Ordering::Less
        );
        let weak = a.clone().downgrade();
        assert!(!weak.is_dead() && weak.upgrade() == Some(b));
        drop(a);
        assert!(weak.is_dead() && weak.upgrade().is_none());
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Bool(true).as_f64().unwrap(), 1.0);
        assert_eq!(Value::Float64(4.0).as_i64().unwrap(), 4);
        assert!(Value::Float64(4.5).as_i64().is_err());
        assert!(Value::Utf8("x".into()).as_f64().is_err());
        assert!(!Value::Int64(0).as_bool().unwrap());
    }
}
