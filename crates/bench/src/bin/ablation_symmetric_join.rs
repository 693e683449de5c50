//! Ablation: the symmetric hash join's bucket-level LRU (paper
//! Sec. IV-B, rule 3) under shrinking memory budgets.
//!
//! The paper's rule keeps per-bucket hash state in memory and evicts LRU
//! buckets when the buffer fills, reloading a bucket completely when its
//! key reappears ("avoiding the consecutive cache misses"). This harness
//! joins a UDF-keyed table pair under decreasing bucket budgets and
//! reports loads/evictions and wall time — correctness is budget-
//! independent, cost is not.

use minidb::exec::symmetric::symmetric_hash_join_with_metrics;
use minidb::exec::{ExecConfig, ExecContext, OpCounters};
use minidb::expr::BoundExpr;
use minidb::{Catalog, Column, DataType, Field, Schema, Table, UdfRegistry};

use bench::Report;

fn table(keys: Vec<i64>) -> Table {
    let n = keys.len();
    Table::new(
        Schema::new(vec![Field::new("k", DataType::Int64), Field::new("v", DataType::Int64)]),
        vec![Column::Int64(keys), Column::Int64((0..n as i64).collect())],
    )
    .expect("table is well-formed")
}

fn main() {
    // Two 20k-row tables over 512 distinct keys, with adversarial key
    // orderings (ascending vs descending) so small LRU budgets thrash.
    let n = 20_000i64;
    let distinct = 512i64;
    let lt = table((0..n).map(|i| i % distinct).collect());
    let rt = table((0..n).map(|i| (n - 1 - i) % distinct).collect());
    let schema = Schema::new(
        lt.schema().fields().iter().chain(rt.schema().fields()).cloned().collect::<Vec<_>>(),
    );
    let keys = vec![(BoundExpr::Column(0), BoundExpr::Column(0))];

    let catalog = Catalog::new();
    let udfs = UdfRegistry::new();
    let ops = OpCounters::default();

    let mut report = Report::new(
        "Ablation: symmetric hash join vs bucket budget (20k x 20k rows, 512 keys)",
        &["Budget(buckets)", "Loads", "Evictions", "Rows", "Time(ms)"],
    );
    let mut expected_rows = None;
    for budget in [usize::MAX, 1024, 512, 256, 64, 8] {
        let config = ExecConfig {
            symmetric_batch_rows: 1024,
            symmetric_bucket_budget: budget,
            ..Default::default()
        };
        let ctx = ExecContext {
            catalog: &catalog,
            udfs: &udfs,
            ops: &ops,
            config: &config,
            tracer: obs::disabled(),
            span: obs::SpanId::NONE,
            governor: govern::Governor::unrestricted(),
            budget: None,
        };
        let t0 = std::time::Instant::now();
        let (out, metrics) =
            symmetric_hash_join_with_metrics(&lt, &rt, &keys, None, None, &schema, &ctx)
                .expect("join runs");
        let elapsed = t0.elapsed();
        match expected_rows {
            None => expected_rows = Some(out.num_rows()),
            Some(e) => assert_eq!(out.num_rows(), e, "budget must not change results"),
        }
        let label = if budget == usize::MAX { "unbounded".to_string() } else { budget.to_string() };
        report.row(&[
            label.clone(),
            metrics.bucket_loads.to_string(),
            metrics.bucket_evictions.to_string(),
            out.num_rows().to_string(),
            format!("{:.2}", elapsed.as_secs_f64() * 1e3),
        ]);
        report.json(serde_json::json!({
            "experiment": "ablation_symmetric_join",
            "budget": label,
            "loads": metrics.bucket_loads,
            "evictions": metrics.bucket_evictions,
            "ms": elapsed.as_secs_f64() * 1e3,
        }));
    }
    report.print();
    println!(
        "results are identical at every budget; bucket loads grow as the LRU thrashes \
         below the working set (512 keys x 2 sides)"
    );
}
