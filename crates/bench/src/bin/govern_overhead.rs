//! Governance-overhead guard on the fig-13 conv workload.
//!
//! Resource governance must be zero-cost-when-off: with no cancel handle,
//! no query timeout and no memory budget configured, every governor
//! checkpoint collapses to a single unarmed-flag branch and every budget
//! reservation to a `None` check. The check sites cannot be compiled out
//! at runtime, so the disabled guard is an interleaved A/A comparison:
//! two independently timed governance-off passes over the same workload
//! must agree within 3% (any hidden per-morsel cost or state accumulation
//! in the off path would skew one side). The governance-on pass (a huge
//! deadline plus a huge memory budget, so checks and reservations all run
//! without ever rejecting) is the true A/B and its overhead is recorded —
//! not gated — in `BENCH_govern.json` (override with `BENCH_JSON_OUT`).
//!
//! Exits non-zero if the A/A disabled drift exceeds 3%.

use std::time::{Duration, Instant};

use minidb::exec::ExecConfig;
use minidb::Database;

use bench::Report;

/// Timed repetitions per layer inside one measurement pass.
const REPS: u32 = 10;
/// Interleaved measurement rounds; best-of discards disturbed rounds.
const ROUNDS: usize = 7;
/// Maximum tolerated A/A drift of the governance-off path.
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

/// Swaps governance knobs in place, preserving the rest of the config.
fn set_governance(db: &Database, on: bool) {
    let mut config = db.exec_config();
    config.query_timeout = on.then(|| Duration::from_secs(3600));
    config.memory_budget = if on { 1 << 40 } else { 0 };
    db.swap_exec_config(config);
}

/// Times one full pass (all layers × REPS).
fn timed_pass(db: &Database) -> f64 {
    let start = Instant::now();
    for i in 0..LAYERS.len() {
        let sql = layer_sql(i);
        for _ in 0..REPS {
            db.execute(&sql).expect("layer executes");
        }
    }
    start.elapsed().as_secs_f64()
}

fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn main() {
    let out_path = std::env::var("BENCH_JSON_OUT").unwrap_or_else(|_| "BENCH_govern.json".into());
    let parallelism = bench::host_parallelism();
    let db = build_db(parallelism);

    // Warm up allocators, indexes and the parallel pool.
    timed_pass(&db);

    let (mut off_a, mut off_b, mut on) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        set_governance(&db, false);
        off_a.push(timed_pass(&db));
        off_b.push(timed_pass(&db));
        set_governance(&db, true);
        on.push(timed_pass(&db));
    }
    set_governance(&db, false);
    let budget_peak = {
        set_governance(&db, true);
        timed_pass(&db);
        let peak = db.memory_budget().map(|b| b.peak()).unwrap_or(0);
        set_governance(&db, false);
        peak
    };
    assert!(budget_peak > 0, "governance-on passes never charged the budget");

    let (a, b, e) = (best(&off_a), best(&off_b), best(&on));
    let disabled_drift_pct = 100.0 * (b - a).abs() / a;
    let enabled_overhead_pct = 100.0 * (e - a) / a;

    let mut report = Report::new(
        "Governance overhead on the fig-13 conv workload (best pass time)",
        &["Configuration", "ms/pass", "vs disabled"],
    );
    report.row(&["governance off (A)".into(), format!("{:.2}", a * 1e3), "—".into()]);
    report.row(&[
        "governance off (B)".into(),
        format!("{:.2}", b * 1e3),
        format!("{disabled_drift_pct:+.2}%"),
    ]);
    report.row(&[
        "deadline + budget armed".into(),
        format!("{:.2}", e * 1e3),
        format!("{enabled_overhead_pct:+.2}%"),
    ]);
    let record = serde_json::json!({
        "benchmark": "govern_overhead_conv",
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
        "budget_peak_bytes": budget_peak,
    });
    report.json(record.clone());
    report.print();
    println!(
        "disabled A/A drift: {disabled_drift_pct:.2}% (budget {DISABLED_BUDGET_PCT}%); \
         armed overhead: {enabled_overhead_pct:+.2}%"
    );
    std::fs::write(&out_path, format!("{record}\n"))
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");

    assert!(
        disabled_drift_pct <= DISABLED_BUDGET_PCT,
        "governance-off passes drifted {disabled_drift_pct:.2}% \
         (> {DISABLED_BUDGET_PCT}%): the off path is not zero-cost"
    );
}
