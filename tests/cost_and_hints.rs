//! Optimizer behavior: the customized cost model, the nUDF placement
//! hint, and the symmetric hash join (paper Sec. IV).

use std::sync::Arc;

use collab::{CollabEngine, ModelRepo, NudfOutput, NudfSpec, StrategyKind};
use minidb::optimizer::OptimizerConfig;
use minidb::plan::logical::{JoinAlgorithm, LogicalPlan};
use minidb::sql::ast::Statement;
use minidb::sql::parser::parse_statement;
use minidb::{Column, DataType, Database, Field, PlanSettings, ScalarUdf, Schema, Table, Value};

fn small_db() -> Arc<Database> {
    let db = Database::new();
    let n = 60i64;
    let t0 = Table::new(
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("grp", DataType::Int64),
            Field::new("payload", DataType::Int64),
        ]),
        vec![
            Column::Int64((0..n).collect()),
            Column::Int64((0..n).map(|i| i % 6).collect()),
            Column::Int64((0..n).map(|i| i * 7).collect()),
        ],
    )
    .unwrap();
    db.catalog().create_table("t0", t0, false).unwrap();
    let t1 = Table::new(
        Schema::new(vec![Field::new("id", DataType::Int64), Field::new("flag", DataType::Int64)]),
        vec![
            Column::Int64((0..n).collect()),
            Column::Int64((0..n).map(|i| (i % 10 == 0) as i64).collect()),
        ],
    )
    .unwrap();
    db.catalog().create_table("t1", t1, false).unwrap();
    Arc::new(db)
}

/// An "expensive" UDF whose invocations are counted.
fn counting_udf(db: &Database, counter: Arc<std::sync::atomic::AtomicU64>) {
    db.register_udf(
        ScalarUdf::new("expensive_classify", vec![DataType::Int64], DataType::Bool, move |args| {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(Value::Bool(args[0].as_i64()? % 3 == 0))
        })
        .with_cost(10_000.0)
        .with_class_probabilities(vec![(Value::Bool(true), 0.33), (Value::Bool(false), 0.67)]),
    );
}

#[test]
fn placement_hint_prunes_udf_invocations() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let db = small_db();
    let sql = "SELECT t0.id FROM t0, t1 WHERE t0.id = t1.id and t1.flag = 1 \
               and expensive_classify(t0.payload) = TRUE ORDER BY t0.id";

    // Hints off (the database's own settings): the UDF filter is
    // evaluated at scan time (all 60 rows).
    let counter = Arc::new(AtomicU64::new(0));
    counting_udf(&db, Arc::clone(&counter));
    let plain_rows = db.session().execute(sql).unwrap();
    let plain_calls = counter.load(Ordering::Relaxed);

    // Hints on, in a session: the flag filter (selectivity 0.1) runs
    // first, so the UDF sees only the surviving rows.
    counter.store(0, Ordering::Relaxed);
    let hinted = db.session_with(PlanSettings {
        optimizer: OptimizerConfig { udf_placement_hints: true, ..Default::default() },
        cost_model: Arc::new(minidb::DefaultCostModel::with_udf_hints()),
    });
    let hinted_rows = hinted.execute(sql).unwrap();
    let hinted_calls = counter.load(Ordering::Relaxed);

    assert_eq!(plain_rows.table(), hinted_rows.table(), "same answers");
    assert!(plain_calls >= 60, "unhinted evaluates at scan: {plain_calls}");
    assert!(
        hinted_calls * 5 <= plain_calls,
        "hint must prune invocations: {hinted_calls} vs {plain_calls}"
    );
}

#[test]
fn symmetric_hash_join_is_chosen_for_udf_join_keys() {
    let db = small_db();
    db.register_udf(
        ScalarUdf::new("recognize", vec![DataType::Int64], DataType::Int64, |args| {
            Ok(Value::Int64(args[0].as_i64()? % 6))
        })
        .with_cost(1_000.0),
    );
    let session = db.session_with(PlanSettings {
        optimizer: OptimizerConfig { symmetric_for_udf_joins: true, ..Default::default() },
        ..Default::default()
    });
    // Join keyed on a UDF result: T0.recognize(payload) = T1.id.
    let sql = "SELECT t0.id FROM t0, t1 WHERE recognize(t0.payload) = t1.id";
    let Statement::Query(q) = parse_statement(sql).unwrap() else { panic!() };
    let plan = session.plan_query(&q).unwrap();
    let mut found_symmetric = false;
    fn walk(p: &LogicalPlan, found: &mut bool) {
        if let LogicalPlan::Join { algorithm: JoinAlgorithm::SymmetricHash, .. } = p {
            *found = true;
        }
        for c in p.children() {
            walk(c, found);
        }
    }
    walk(&plan, &mut found_symmetric);
    assert!(found_symmetric, "expected a symmetric hash join:\n{plan}");

    // And it returns the right rows.
    let out = session.execute(sql).unwrap();
    assert_eq!(out.table().num_rows(), 60, "every row matches exactly one group id");
}

#[test]
fn udf_histogram_drives_selectivity_estimates() {
    let db = small_db();
    db.register_udf(
        ScalarUdf::new("rare_class", vec![DataType::Int64], DataType::Bool, |args| {
            Ok(Value::Bool(args[0].as_i64()? == 0))
        })
        .with_cost(100.0)
        .with_class_probabilities(vec![(Value::Bool(true), 0.01), (Value::Bool(false), 0.99)]),
    );
    let sql = "SELECT id FROM t0 WHERE rare_class(payload) = TRUE";
    let plain = db.estimate_with(sql, &minidb::DefaultCostModel::default()).unwrap();
    let hinted = db.estimate_with(sql, &minidb::DefaultCostModel::with_udf_hints()).unwrap();
    assert!(
        hinted.rows < plain.rows,
        "histogram selectivity (1%) must shrink the estimate: {} vs {}",
        hinted.rows,
        plain.rows
    );
}

#[test]
fn tight_op_never_runs_more_inference_than_plain() {
    // Over several selectivities, DL2SQL-OP's flop count is bounded by
    // plain DL2SQL's.
    let db = Arc::new(Database::new());
    workload::build_dataset(
        &db,
        &workload::DatasetConfig {
            video_rows: 80,
            keyframe_shape: vec![1, 8, 8],
            ..Default::default()
        },
    )
    .unwrap();
    let repo = ModelRepo::new();
    repo.register(NudfSpec::new(
        "nUDF_detect",
        Arc::new(neuro::zoo::student(vec![1, 8, 8], 2, 5)),
        NudfOutput::Bool { true_class: 1 },
        vec![0.8, 0.2],
    ));
    let engine = CollabEngine::new(db, Arc::new(repo));
    for humidity in [95.0, 80.0, 60.0] {
        let sql = format!(
            "SELECT F.transID FROM fabric F, video V \
             WHERE F.humidity > {humidity} and F.transID = V.transID \
             and nUDF_detect(V.keyframe) = FALSE ORDER BY F.transID"
        );
        let plain = engine.execute(&sql, StrategyKind::Tight).unwrap();
        let op = engine.execute(&sql, StrategyKind::TightOptimized).unwrap();
        assert!(
            op.sim.inference_flops <= plain.sim.inference_flops,
            "humidity>{humidity}: OP ran more inference"
        );
    }
}

#[test]
fn explain_reflects_optimizer_configuration() {
    let db = small_db();
    let sql = "SELECT t0.id FROM t0, t1 WHERE t0.id = t1.id and t0.grp = 3";
    let plan = db.explain(sql).unwrap();
    assert!(plan.contains("Join"), "{plan}");
    assert!(plan.contains("Filter"), "pushdown keeps a filter below the join: {plan}");
}
