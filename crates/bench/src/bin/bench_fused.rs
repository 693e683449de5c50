//! Fused join–aggregate benchmark: the DL2SQL conv hot path (paper
//! Fig. 13 layer shapes) executed fused vs. forced-unfused.
//!
//! Each layer is the compiled conv shape — staged feature map ⋈ kernel on
//! `OrderID`, `GROUP BY (KernelID, MatrixID)`, `SUM(A.Value * B.Value)` —
//! where the unfused plan materializes `t_in·k_in·n_out` join rows and the
//! fused plan folds them during the probe. Runs every layer at parallelism
//! 8 (the paper's multi-core deployment) and 1 (the setting of e2ebench)
//! with the plan cache off, reports the fused time per join pair, checks
//! bit-identity per layer, and writes `BENCH_fused.json` (override with
//! `BENCH_JSON_OUT`). Exits non-zero if fusion is not at least 2x faster
//! overall at parallelism 8 or any fused plan materializes intermediate
//! join rows.

use std::collections::HashMap;
use std::time::Instant;

use minidb::optimizer::OptimizerConfig;
use minidb::Database;

use bench::Report;

/// Timed repetitions per layer and configuration.
const REPS: u32 = 5;
/// Executor widths: the paper's multi-core deployment, whose overall
/// speedup is gated, then serial execution.
const PARALLELISM: [usize; 2] = [8, 1];

/// Fig. 13-style conv layer geometries: (name, output positions t_in,
/// kernel window k_in, output channels n_out).
const LAYERS: &[(&str, i64, i64, i64)] = &[
    ("conv 24x24 k9 c16", 24 * 24, 9, 16),
    ("conv 24x24 k9 c32", 24 * 24, 9, 32),
    ("conv 12x12 k25 c32", 12 * 12, 25, 32),
];

/// A database holding one staged feature map + kernel pair per layer.
/// All values are dyadic rationals, so f64 aggregation is exact under any
/// morsel decomposition and fused/unfused outputs compare bit-for-bit.
fn build_db(parallelism: usize, fuse: bool) -> Database {
    let db = Database::builder()
        .exec_config(minidb::exec::ExecConfig {
            parallelism,
            plan_cache_capacity: 0,
            ..Default::default()
        })
        .optimizer_config(OptimizerConfig { fuse_join_aggregates: fuse, ..Default::default() })
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

fn tables_identical(a: &minidb::Table, b: &minidb::Table) -> bool {
    if a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns() {
        return false;
    }
    for c in 0..a.num_columns() {
        for r in 0..a.num_rows() {
            if a.column(c).value(r) != b.column(c).value(r) {
                return false;
            }
        }
    }
    true
}

/// Times one layer on one database; returns (seconds per rep, per-operator
/// counters of one run, result table). Only the untimed warm-up run is
/// traced; its span tree gives the counters.
fn run_layer(db: &Database, sql: &str) -> (f64, HashMap<String, obs::OpAgg>, minidb::Table) {
    db.tracer().enable();
    let warmup = db.execute(sql).expect("layer executes");
    db.tracer().disable();
    let mut ops = HashMap::new();
    warmup.trace().expect("warm-up run is traced").fold_operators(&mut ops);
    let start = Instant::now();
    for _ in 0..REPS {
        db.execute(sql).expect("layer executes");
    }
    let secs = start.elapsed().as_secs_f64() / REPS as f64;
    (secs, ops, warmup.into_table())
}

/// Rows the operators named `name` produced (0 when none ran).
fn rows_out(ops: &HashMap<String, obs::OpAgg>, name: &str) -> u64 {
    ops.get(name).map_or(0, |agg| agg.rows_out)
}

/// One parallelism setting's layers: the JSON record, the fused and
/// unfused totals in seconds, whether every layer was bit-identical and
/// the fused plans' peak intermediate rows.
struct Run {
    record: serde_json::Value,
    total_fused: f64,
    total_unfused: f64,
    bit_identical: bool,
    fused_peak_rows: u64,
}

fn run_layers(parallelism: usize, report: &mut Report) -> Run {
    let fused_db = build_db(parallelism, true);
    let unfused_db = build_db(parallelism, false);
    let mut layer_records = Vec::new();
    let (mut total_fused, mut total_unfused) = (0.0f64, 0.0f64);
    let mut bit_identical = true;
    let mut fused_peak_rows = 0u64;

    for (i, &(name, t_in, k_in, n_out)) in LAYERS.iter().enumerate() {
        let sql = layer_sql(i);
        let (unfused_s, unfused_ops, reference) = run_layer(&unfused_db, &sql);
        let (fused_s, fused_ops, got) = run_layer(&fused_db, &sql);
        let (unfused_peak, fused_peak) =
            (rows_out(&unfused_ops, "Join"), rows_out(&fused_ops, "Join"));
        let fused_stats = *fused_ops.get("JoinAggregate").expect("fused operator ran");
        bit_identical &= tables_identical(&reference, &got);
        fused_peak_rows = fused_peak_rows.max(fused_peak);
        total_fused += fused_s;
        total_unfused += unfused_s;
        let pairs = (t_in * k_in * n_out) as u64;
        let speedup = unfused_s / fused_s.max(1e-12);
        let ns_per_pair = fused_s * 1e9 / pairs as f64;
        report.row(&[
            name.to_string(),
            parallelism.to_string(),
            pairs.to_string(),
            format!("{:.2}", unfused_s * 1e3),
            format!("{:.2}", fused_s * 1e3),
            format!("{ns_per_pair:.2}"),
            format!("{speedup:.1}x"),
            unfused_peak.to_string(),
            fused_peak.to_string(),
        ]);
        layer_records.push(serde_json::json!({
            "layer": name,
            "t_in": t_in,
            "k_in": k_in,
            "n_out": n_out,
            "join_pairs": pairs,
            "unfused_ms": unfused_s * 1e3,
            "fused_ms": fused_s * 1e3,
            "fused_ns_per_pair": ns_per_pair,
            "speedup": speedup,
            "peak_intermediate_rows_unfused": unfused_peak,
            "peak_intermediate_rows_fused": fused_peak,
            "bytes_not_materialized": fused_stats.bytes_not_materialized,
        }));
    }
    let record = serde_json::json!({
        "parallelism": parallelism,
        "layers": serde_json::Value::Array(layer_records),
        "total_unfused_ms": total_unfused * 1e3,
        "total_fused_ms": total_fused * 1e3,
        "overall_speedup": total_unfused / total_fused.max(1e-12),
    });
    Run { record, total_fused, total_unfused, bit_identical, fused_peak_rows }
}

fn main() {
    let out_path = std::env::var("BENCH_JSON_OUT").unwrap_or_else(|_| "BENCH_fused.json".into());
    let mut report = Report::new(
        "Fused join-aggregate: conv layers fused vs unfused (ms)",
        &[
            "Layer",
            "Par",
            "Pairs",
            "Unfused",
            "Fused",
            "Fused ns/pair",
            "Speedup",
            "Peak rows unfused",
            "fused",
        ],
    );
    let runs: Vec<Run> = PARALLELISM.iter().map(|&p| run_layers(p, &mut report)).collect();
    let gated = &runs[0];
    let overall = gated.total_unfused / gated.total_fused.max(1e-12);
    let bit_identical = runs.iter().all(|r| r.bit_identical);
    let fused_peak_rows = runs.iter().map(|r| r.fused_peak_rows).max().unwrap_or(0);
    let record = serde_json::json!({
        "benchmark": "fused_join_aggregate_conv",
        "reps": REPS,
        "gated_parallelism": PARALLELISM[0],
        "runs": serde_json::Value::Array(runs.iter().map(|r| r.record.clone()).collect()),
        "overall_speedup": overall,
        "peak_intermediate_rows_fused": fused_peak_rows,
        "bit_identical": bit_identical,
    });
    report.json(record.clone());
    report.print();
    println!(
        "overall speedup at parallelism {}: {overall:.2}x; fused peak intermediate rows: \
         {fused_peak_rows}",
        PARALLELISM[0]
    );
    std::fs::write(&out_path, format!("{record}\n"))
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");

    assert!(bit_identical, "fused results diverged from unfused");
    assert_eq!(fused_peak_rows, 0, "fused plans must not materialize join output");
    assert!(
        overall >= 2.0,
        "fusion must be at least 2x faster on the conv hot path (got {overall:.2}x)"
    );
}
