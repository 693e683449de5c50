//! Tracing-overhead guard on the fig-13 conv workload.
//!
//! Observability must be zero-cost-when-off: with the collector disabled,
//! every span helper collapses to a `SpanId::NONE` integer check, so the
//! disabled path must be indistinguishable from an uninstrumented build.
//! The instrumentation cannot be compiled out at runtime, so the disabled
//! guard is an interleaved A/A comparison: two independently timed
//! disabled-collector passes over the same workload must agree within 3%
//! (any hidden per-query cost or state accumulation in the disabled path
//! would skew one side). The enabled-collector pass (full span trees
//! extracted per statement) is the true A/B and its overhead is recorded —
//! not gated — in `BENCH_obs.json` (override with `BENCH_JSON_OUT`).
//!
//! Exits non-zero if the A/A disabled drift exceeds 3% or any traced run
//! fails to produce a span tree.

use std::time::Instant;

use minidb::exec::ExecConfig;
use minidb::Database;

use bench::Report;

/// Timed repetitions per layer inside one measurement pass (long enough
/// that timer and scheduler jitter is small relative to a pass).
const REPS: u32 = 10;
/// Interleaved measurement rounds; comparing each configuration's best
/// round discards rounds disturbed by unrelated machine activity.
const ROUNDS: usize = 7;
/// Maximum tolerated A/A drift of the disabled-collector path.
const DISABLED_BUDGET_PCT: f64 = 3.0;

/// Fig. 13-style conv layer geometries: (name, output positions t_in,
/// kernel window k_in, output channels n_out).
const LAYERS: &[(&str, i64, i64, i64)] = &[
    ("conv 24x24 k9 c16", 24 * 24, 9, 16),
    ("conv 24x24 k9 c32", 24 * 24, 9, 32),
    ("conv 12x12 k25 c32", 12 * 12, 25, 32),
];

fn build_db(parallelism: usize) -> Database {
    let db = Database::builder()
        .exec_config(ExecConfig { parallelism, plan_cache_capacity: 0, ..Default::default() })
        .build();
    for (i, &(_, t_in, k_in, n_out)) in LAYERS.iter().enumerate() {
        db.execute_script(&format!(
            "CREATE TABLE fm_{i} (MatrixID Int64, OrderID Int64, Value Float64); \
             CREATE TABLE kernel_{i} (KernelID Int64, OrderID Int64, Value Float64);"
        ))
        .unwrap();
        let mut rows = Vec::new();
        for m in 0..t_in {
            for o in 0..k_in {
                rows.push(format!("({m}, {o}, {}.5)", (m * 31 + o * 7) % 19 - 9));
            }
        }
        db.execute(&format!("INSERT INTO fm_{i} VALUES {}", rows.join(","))).unwrap();
        rows.clear();
        for k in 0..n_out {
            for o in 0..k_in {
                rows.push(format!("({k}, {o}, {}.25)", (k * 13 + o * 3) % 11 - 5));
            }
        }
        db.execute(&format!("INSERT INTO kernel_{i} VALUES {}", rows.join(","))).unwrap();
    }
    db
}

fn layer_sql(i: usize) -> String {
    format!(
        "SELECT B.KernelID AS KernelID, A.MatrixID AS TupleID, SUM(A.Value * B.Value) AS Value \
         FROM fm_{i} A INNER JOIN kernel_{i} B ON A.OrderID = B.OrderID \
         GROUP BY B.KernelID, A.MatrixID"
    )
}

/// Times one full pass (all layers × REPS) and asserts the expected
/// tracing state on every result.
fn timed_pass(db: &Database, expect_trace: bool) -> f64 {
    let start = Instant::now();
    for i in 0..LAYERS.len() {
        let sql = layer_sql(i);
        for _ in 0..REPS {
            let result = db.execute(&sql).expect("layer executes");
            assert_eq!(
                result.trace().is_some(),
                expect_trace,
                "trace presence must follow the collector state"
            );
        }
    }
    start.elapsed().as_secs_f64()
}

fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn main() {
    let out_path = std::env::var("BENCH_JSON_OUT").unwrap_or_else(|_| "BENCH_obs.json".into());
    let parallelism = bench::host_parallelism();
    let db = build_db(parallelism);

    // Warm up allocators, indexes and the parallel pool.
    timed_pass(&db, false);

    let (mut off_a, mut off_b, mut on) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        db.tracer().disable();
        off_a.push(timed_pass(&db, false));
        off_b.push(timed_pass(&db, false));
        db.tracer().enable();
        on.push(timed_pass(&db, true));
    }
    db.tracer().disable();

    let (a, b, e) = (best(&off_a), best(&off_b), best(&on));
    let disabled_drift_pct = 100.0 * (b - a).abs() / a;
    let enabled_overhead_pct = 100.0 * (e - a) / a;

    let mut report = Report::new(
        "Tracing overhead on the fig-13 conv workload (best pass time)",
        &["Configuration", "ms/pass", "vs disabled"],
    );
    report.row(&["collector disabled (A)".into(), format!("{:.2}", a * 1e3), "—".into()]);
    report.row(&[
        "collector disabled (B)".into(),
        format!("{:.2}", b * 1e3),
        format!("{disabled_drift_pct:+.2}%"),
    ]);
    report.row(&[
        "collector enabled".into(),
        format!("{:.2}", e * 1e3),
        format!("{enabled_overhead_pct:+.2}%"),
    ]);
    let record = serde_json::json!({
        "benchmark": "obs_overhead_conv",
        "workload": "fig13_conv_layers",
        "parallelism": parallelism,
        "reps_per_pass": REPS,
        "rounds": ROUNDS,
        "disabled_ms_a": a * 1e3,
        "disabled_ms_b": b * 1e3,
        "enabled_ms": e * 1e3,
        "disabled_overhead_pct": disabled_drift_pct,
        "enabled_overhead_pct": enabled_overhead_pct,
        "disabled_budget_pct": DISABLED_BUDGET_PCT,
    });
    report.json(record.clone());
    report.print();
    println!(
        "disabled A/A drift: {disabled_drift_pct:.2}% (budget {DISABLED_BUDGET_PCT}%); \
         enabled overhead: {enabled_overhead_pct:+.2}%"
    );
    std::fs::write(&out_path, format!("{record}\n"))
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");

    assert!(
        disabled_drift_pct <= DISABLED_BUDGET_PCT,
        "disabled-collector passes drifted {disabled_drift_pct:.2}% \
         (> {DISABLED_BUDGET_PCT}%): the off path is not zero-cost"
    );
}
