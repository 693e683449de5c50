//! Result comparison.

use minidb::{Table, Value};

/// The rows of `table` as sorted strings, floats rounded to 6 places, so
/// results compare across strategies and plans.
pub fn canonical(table: &Table) -> Vec<String> {
    let mut rows: Vec<String> = (0..table.num_rows())
        .map(|r| {
            (0..table.num_columns())
                .map(|c| match table.column(c).value(r) {
                    Value::Float64(f) => format!("{f:.6}"),
                    v => v.to_string(),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}
