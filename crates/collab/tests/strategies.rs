//! Cross-strategy integration tests: all four strategy configurations
//! must return identical result tables for every query type of paper
//! Table I, over the same database and models.

use std::sync::Arc;

use collab::{
    classify_query, tensor_to_blob, CollabEngine, ModelRepo, NudfOutput, NudfSpec, QueryType,
    StrategyKind,
};
use minidb::sql::ast::Statement;
use minidb::sql::parser::parse_statement;
use minidb::{Column, DataType, Database, Field, Schema, Table, Value};
use neuro::Tensor;

const KEYFRAME_SHAPE: [usize; 3] = [1, 8, 8];

fn keyframe(seed: u64) -> Tensor {
    // Deterministic pseudo-random frame.
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let data: Vec<f32> = (0..64)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f32 / 500.0 - 1.0
        })
        .collect();
    Tensor::new(KEYFRAME_SHAPE.to_vec(), data).unwrap()
}

/// A miniature textile-printing database: fabric + video.
fn build_db() -> Arc<Database> {
    let db = Database::new();
    let n = 40usize;
    let trans: Vec<i64> = (0..n as i64).collect();
    let pattern: Vec<i64> = (0..n).map(|i| (i % 4) as i64).collect();
    let meter: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let printdate: Vec<i32> = (0..n)
        .map(|i| minidb::value::parse_date("2021-01-01").unwrap() + (i % 40) as i32)
        .collect();
    let humidity: Vec<f64> = (0..n).map(|i| 60.0 + (i % 40) as f64).collect();
    let fabric = Table::new(
        Schema::new(vec![
            Field::new("transID", DataType::Int64),
            Field::new("patternID", DataType::Int64),
            Field::new("meter", DataType::Float64),
            Field::new("printdate", DataType::Date),
            Field::new("humidity", DataType::Float64),
        ]),
        vec![
            Column::Int64(trans.clone()),
            Column::Int64(pattern),
            Column::Float64(meter),
            Column::Date(printdate.clone()),
            Column::Float64(humidity),
        ],
    )
    .unwrap();
    db.catalog().create_table("fabric", fabric, false).unwrap();

    let frames: Vec<Value> = (0..n as u64).map(|i| tensor_to_blob(&keyframe(i))).collect();
    let mut blob_col = Column::empty(DataType::Blob);
    for f in frames {
        blob_col.push(f).unwrap();
    }
    let video = Table::new(
        Schema::new(vec![
            Field::new("transID", DataType::Int64),
            Field::new("date", DataType::Date),
            Field::new("keyframe", DataType::Blob),
        ]),
        vec![Column::Int64(trans), Column::Date(printdate), blob_col],
    )
    .unwrap();
    db.catalog().create_table("video", video, false).unwrap();
    Arc::new(db)
}

fn build_repo() -> Arc<ModelRepo> {
    let repo = ModelRepo::new();
    let detect = Arc::new(neuro::zoo::student(KEYFRAME_SHAPE.to_vec(), 2, 41));
    let classify = Arc::new(neuro::zoo::student(KEYFRAME_SHAPE.to_vec(), 3, 42));
    let recog = Arc::new(neuro::zoo::student(KEYFRAME_SHAPE.to_vec(), 4, 43));
    repo.register(NudfSpec::new(
        "nUDF_detect",
        detect,
        NudfOutput::Bool { true_class: 1 },
        vec![0.8, 0.2],
    ));
    repo.register(NudfSpec::new(
        "nUDF_classify",
        classify,
        NudfOutput::Label { labels: vec!["Floral Pattern".into(), "Stripe".into(), "Dots".into()] },
        vec![0.3, 0.4, 0.3],
    ));
    repo.register(NudfSpec::new("nUDF_recog", recog, NudfOutput::ClassId, vec![0.25; 4]));
    Arc::new(repo)
}

/// Sorts a table's rows textually for order-insensitive comparison.
fn canonical(table: &Table) -> Vec<String> {
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

fn assert_all_strategies_agree(engine: &CollabEngine, sql: &str) {
    let mut reference: Option<(StrategyKind, Vec<String>)> = None;
    for kind in StrategyKind::all() {
        let outcome = engine
            .execute(sql, kind)
            .unwrap_or_else(|e| panic!("{} failed on {sql}: {e}", kind.label()));
        let rows = canonical(&outcome.table);
        match &reference {
            None => reference = Some((kind, rows)),
            Some((ref_kind, ref_rows)) => assert_eq!(
                &rows,
                ref_rows,
                "{} disagrees with {} on {sql}",
                kind.label(),
                ref_kind.label()
            ),
        }
        // Sanity on the breakdown: nothing negative, inference happened
        // whenever an nUDF was involved.
        assert!(outcome.breakdown.total() > std::time::Duration::ZERO);
    }
}

fn query_type(sql: &str, repo: &ModelRepo) -> QueryType {
    let Statement::Query(q) = parse_statement(sql).unwrap() else { panic!() };
    classify_query(&q, repo)
}

#[test]
fn type1_query_agrees_across_strategies() {
    let engine = CollabEngine::new(build_db(), build_repo());
    let sql = "SELECT sum(meter) AS total FROM fabric F, video V \
               WHERE F.printdate > '2021-01-05' and F.printdate < '2021-01-15' \
               and V.date > '2021-01-05' and V.date < '2021-01-15' \
               and nUDF_classify(V.keyframe) = 'Floral Pattern'";
    assert_eq!(query_type(sql, engine.repo()), QueryType::Type1);
    assert_all_strategies_agree(&engine, sql);
}

#[test]
fn type2_query_agrees_across_strategies() {
    let engine = CollabEngine::new(build_db(), build_repo());
    let sql = "SELECT patternID, count(nUDF_detect(V.keyframe) = TRUE) / sum(meter) AS rate \
               FROM fabric F, video V \
               WHERE F.transID = V.transID GROUP BY patternID ORDER BY patternID";
    assert_eq!(query_type(sql, engine.repo()), QueryType::Type2);
    assert_all_strategies_agree(&engine, sql);
}

#[test]
fn type3_query_agrees_across_strategies() {
    let engine = CollabEngine::new(build_db(), build_repo());
    let sql = "SELECT F.transID FROM fabric F, video V \
               WHERE F.humidity > 80 and F.transID = V.transID \
               and nUDF_detect(V.keyframe) = FALSE ORDER BY F.transID";
    assert_eq!(query_type(sql, engine.repo()), QueryType::Type3);
    assert_all_strategies_agree(&engine, sql);
}

#[test]
fn type4_query_agrees_across_strategies() {
    let engine = CollabEngine::new(build_db(), build_repo());
    let sql = "SELECT F.patternID, F.transID FROM fabric F, video V \
               WHERE F.transID = V.transID and F.patternID != nUDF_recog(V.keyframe) \
               ORDER BY F.transID";
    assert_eq!(query_type(sql, engine.repo()), QueryType::Type4);
    assert_all_strategies_agree(&engine, sql);
}

#[test]
fn results_match_a_hand_computed_oracle() {
    // Independently compute the Type-3 answer with the tensor engine and
    // plain filtering.
    let db = build_db();
    let repo = build_repo();
    let engine = CollabEngine::new(Arc::clone(&db), Arc::clone(&repo));
    let sql = "SELECT F.transID FROM fabric F, video V \
               WHERE F.humidity > 80 and F.transID = V.transID \
               and nUDF_detect(V.keyframe) = FALSE ORDER BY F.transID";
    let outcome = engine.execute(sql, StrategyKind::TightOptimized).unwrap();

    let spec = repo.require("nUDF_detect").unwrap();
    let mut expected = Vec::new();
    for t in 0..40u64 {
        let humidity = 60.0 + (t % 40) as f64;
        if humidity <= 80.0 {
            continue;
        }
        let pred = spec.model.predict(&keyframe(t)).unwrap();
        if pred != 1 {
            expected.push(t as i64);
        }
    }
    let got: Vec<i64> =
        (0..outcome.table.num_rows()).map(|r| outcome.table.column(0).i64_at(r)).collect();
    assert_eq!(got, expected);
    assert!(!expected.is_empty(), "oracle should select some rows");
}

#[test]
fn conditional_nudf_agrees_across_strategies_and_oracle() {
    // Paper Type 3's defining semantics: the humidity value (Q_db output)
    // selects which model variant runs.
    let db = build_db();
    let repo = build_repo();
    let base = Arc::new(neuro::zoo::student(KEYFRAME_SHAPE.to_vec(), 2, 61));
    let high = Arc::new({
        let mut m = neuro::zoo::student(KEYFRAME_SHAPE.to_vec(), 2, 62);
        m.name = "student_high_humidity".into();
        m
    });
    let mut spec = NudfSpec::new(
        "nUDF_detect_cond",
        Arc::clone(&base),
        NudfOutput::Bool { true_class: 1 },
        vec![0.5, 0.5],
    );
    spec.variants = vec![
        collab::ConditionalVariant { min_condition: f64::NEG_INFINITY, model: Arc::clone(&base) },
        collab::ConditionalVariant { min_condition: 80.0, model: Arc::clone(&high) },
    ];
    repo.register(spec);
    let engine = CollabEngine::new(Arc::clone(&db), Arc::clone(&repo));

    let sql = "SELECT F.transID FROM fabric F, video V \
               WHERE F.humidity > 70 and F.transID = V.transID \
               and nUDF_detect_cond(V.keyframe, F.humidity) = TRUE ORDER BY F.transID";
    let mut reference: Option<Vec<String>> = None;
    for kind in StrategyKind::all() {
        let out =
            engine.execute(sql, kind).unwrap_or_else(|e| panic!("{} failed: {e}", kind.label()));
        let rows = canonical(&out.table);
        match &reference {
            None => reference = Some(rows),
            Some(expected) => assert_eq!(&rows, expected, "{} diverges", kind.label()),
        }
    }

    // Oracle: recompute with direct model selection.
    let mut expected = Vec::new();
    for t in 0..40u64 {
        let humidity = 60.0 + (t % 40) as f64;
        if humidity <= 70.0 {
            continue;
        }
        let model = if humidity >= 80.0 { &high } else { &base };
        if model.predict(&keyframe(t)).unwrap() == 1 {
            expected.push(t.to_string());
        }
    }
    assert_eq!(reference.unwrap(), expected);
    // The two variants must actually disagree somewhere for this test to
    // mean anything.
    let disagree = (0..40u64)
        .any(|t| base.predict(&keyframe(t)).unwrap() != high.predict(&keyframe(t)).unwrap());
    assert!(disagree, "variants never disagree — weak test setup");
}

#[test]
fn batched_loose_udf_matches_row_at_a_time() {
    use collab::loose::LooseUdf;
    use collab::Strategy;
    let db = build_db();
    let repo = build_repo();
    let sql = "SELECT F.transID FROM fabric F, video V \
               WHERE F.transID = V.transID and nUDF_detect(V.keyframe) = TRUE ORDER BY F.transID";
    let row_wise = LooseUdf::new(Arc::clone(&db), Arc::clone(&repo)).execute(sql).unwrap();
    let batched = LooseUdf::new_batched(Arc::clone(&db), Arc::clone(&repo)).execute(sql).unwrap();
    assert_eq!(canonical(&row_wise.table), canonical(&batched.table));
    // Batching collapses the per-row round trips.
    assert_eq!(batched.sim.round_trips, 1);
    assert!(row_wise.sim.round_trips > 1);
}

#[test]
fn optimized_tight_prunes_inference_on_selective_queries() {
    // With a highly selective relational predicate, DL2SQL-OP should run
    // fewer inferences than plain DL2SQL (the placement hint delays the
    // nUDF past the join).
    let engine = CollabEngine::new(build_db(), build_repo());
    let sql = "SELECT F.transID FROM fabric F, video V \
               WHERE F.humidity > 97 and F.transID = V.transID \
               and nUDF_detect(V.keyframe) = FALSE ORDER BY F.transID";
    let plain = engine.execute(sql, StrategyKind::Tight).unwrap();
    let optimized = engine.execute(sql, StrategyKind::TightOptimized).unwrap();
    assert_eq!(canonical(&plain.table), canonical(&optimized.table));
    // The hint can only reduce (or keep equal) inference work.
    assert!(
        optimized.sim.inference_flops <= plain.sim.inference_flops,
        "OP ran more inference work than plain DL2SQL"
    );
}
