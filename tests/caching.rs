//! Integration tests for the multi-level caching subsystem: the SQL plan
//! cache, nUDF inference memoization, and compiled-artifact reuse.
//!
//! The contract under test is always the same: caching changes *when work
//! happens*, never *what comes out*. Cached results must be bit-identical
//! to uncached ones at every parallelism level, and every write that could
//! change an answer (INSERT/UPDATE/DDL, model swap) must invalidate.

use std::sync::Arc;

use collab::{CollabEngine, NudfOutput, NudfSpec, QueryType, StrategyKind};
use minidb::{Database, Value};
use workload::{build_dataset, build_repo, DatasetConfig, RepoConfig};

/// Exact cell-by-cell comparison — floats included. Cached execution
/// replays the same arithmetic (or returns the stored value), so there is
/// no rounding to tolerate.
fn assert_tables_identical(reference: &minidb::Table, got: &minidb::Table, ctx: &str) {
    assert_eq!(reference.num_rows(), got.num_rows(), "{ctx}: row count");
    assert_eq!(reference.num_columns(), got.num_columns(), "{ctx}: column count");
    for c in 0..reference.num_columns() {
        for r in 0..reference.num_rows() {
            assert_eq!(
                reference.column(c).value(r),
                got.column(c).value(r),
                "{ctx}: col {c} row {r}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Level 1: the SQL plan cache
// ---------------------------------------------------------------------------

fn plan_db(plan_cache_capacity: usize) -> Database {
    let db = Database::builder()
        .exec_config(minidb::exec::ExecConfig { plan_cache_capacity, ..Default::default() })
        .build();
    db.execute_script(
        "CREATE TABLE fm (MatrixID Int64, OrderID Int64, Value Float64); \
         CREATE TABLE kernel (KernelID Int64, OrderID Int64, Value Float64);",
    )
    .unwrap();
    let mut fm = Vec::new();
    for m in 0..32i64 {
        for o in 0..8i64 {
            fm.push(format!("({m}, {o}, {}.5)", (m * 31 + o * 7) % 19));
        }
    }
    db.execute(&format!("INSERT INTO fm VALUES {}", fm.join(","))).unwrap();
    let mut kr = Vec::new();
    for k in 0..4i64 {
        for o in 0..8i64 {
            kr.push(format!("({k}, {o}, {}.25)", (k * 13 + o * 3) % 7));
        }
    }
    db.execute(&format!("INSERT INTO kernel VALUES {}", kr.join(","))).unwrap();
    db
}

const PLAN_CORPUS: &[&str] = &[
    "SELECT MatrixID, OrderID, Value FROM fm WHERE Value > 4.0 and OrderID < 6",
    "SELECT MatrixID + OrderID AS mo, Value * 0.5 AS half FROM fm WHERE MatrixID >= 3",
    "SELECT B.KernelID AS KernelID, A.MatrixID AS TupleID, SUM(A.Value * B.Value) AS Value \
     FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID \
     GROUP BY B.KernelID, A.MatrixID ORDER BY KernelID, TupleID",
    "SELECT MatrixID, count(*) AS n, SUM(Value) AS s, AVG(Value) AS a FROM fm \
     GROUP BY MatrixID ORDER BY MatrixID",
    "SELECT MatrixID, SUM(Value) AS s FROM fm GROUP BY MatrixID \
     HAVING SUM(Value) > 20.0 ORDER BY MatrixID LIMIT 10",
];

#[test]
fn plan_cache_matches_uncached_over_sql_corpus() {
    let cached = plan_db(64);
    let uncached = plan_db(0);
    for sql in PLAN_CORPUS {
        let reference = uncached.execute(sql).unwrap();
        let cold = cached.execute(sql).unwrap();
        assert!(!cold.plan_cache_hit(), "first execution must plan: {sql}");
        let warm = cached.execute(sql).unwrap();
        assert!(warm.plan_cache_hit(), "second execution must hit: {sql}");
        assert_tables_identical(reference.table(), cold.table(), &format!("cold: {sql}"));
        assert_tables_identical(reference.table(), warm.table(), &format!("warm: {sql}"));
    }
    let stats = cached.plan_cache_stats();
    assert_eq!(stats.hits, PLAN_CORPUS.len() as u64);
    assert_eq!(stats.misses, PLAN_CORPUS.len() as u64);
}

#[test]
fn plan_cache_invalidates_on_insert_update_and_ddl() {
    // A write to a table the query reads replans it; DDL and writes on
    // tables it does not read keep its plan.
    let cached = plan_db(64);
    let uncached = plan_db(0);
    let sql = "SELECT count(*) AS n, SUM(Value) AS s FROM fm WHERE Value > 4.0";
    let mutations = [
        ("INSERT INTO fm VALUES (99, 0, 100.5)", false),
        ("UPDATE fm SET Value = 0.0 WHERE MatrixID = 99", false),
        ("CREATE TABLE unrelated (x Int64)", true),
        ("INSERT INTO kernel VALUES (9, 0, 1.25)", true),
    ];
    cached.execute(sql).unwrap();
    for (mutation, keeps) in mutations {
        cached.execute(mutation).unwrap();
        uncached.execute(mutation).unwrap();
        let after = cached.execute(sql).unwrap();
        assert_eq!(after.plan_cache_hit(), keeps, "plan kept after: {mutation}");
        let reference = uncached.execute(sql).unwrap();
        assert_tables_identical(reference.table(), after.table(), &format!("after {mutation}"));
        // With the data quiescent again the very next execution hits.
        assert!(cached.execute(sql).unwrap().plan_cache_hit());
    }
}

#[test]
fn sessions_share_stored_plans_but_resolve_names_in_their_own_session() {
    // One SELECT text runs in three sessions, each over a TEMP table `t`
    // of its own. The stored statement's plan holds only where `t` has
    // the schema and row count it was planned against: (b) reorders the
    // columns and adds a row, so it replans; (c) matches (a) and reuses
    // (a)'s plan over its own rows.
    let cached = plan_db(64);
    let uncached = plan_db(0);
    let sql = "SELECT a, b * 2 AS b2 FROM t WHERE a > 1 ORDER BY a";
    let ab = "CREATE TEMP TABLE t (a Int64, b Float64)";
    let ba = "CREATE TEMP TABLE t (b Float64, a Int64)";
    let cases = [
        ("(a) t(a, b)", ab, "(1, 0.5), (2, 1.5)", false),
        ("(b) t(b, a)", ba, "(2.5, 3), (3.5, 4), (0.5, 1)", false),
        ("(c) shaped as (a)", ab, "(5, 7.25), (0, 9.5)", true),
    ];
    for (case, create, rows, hit) in cases {
        let (session, reference_session) = (cached.session(), uncached.session());
        for s in [&session, &reference_session] {
            s.execute(create).unwrap();
            s.execute(&format!("INSERT INTO t VALUES {rows}")).unwrap();
        }
        let got = session.execute(sql).unwrap_or_else(|e| panic!("{case}: {e}"));
        assert_eq!(got.plan_cache_hit(), hit, "{case}: plan reused");
        let reference = reference_session.execute(sql).unwrap();
        assert!(reference.table().num_rows() > 0, "{case}: the query selects rows");
        assert_tables_identical(reference.table(), got.table(), case);
    }
    assert!(cached.catalog().table("t").is_none(), "TEMP tables end with their session");
}

#[test]
fn prepared_query_replans_when_its_table_is_recreated_with_reordered_columns() {
    // Each case creates `t` with columns (a, b), prepares a query over it,
    // re-creates `t` with the same rows and its columns swapped, and
    // compares the prepared run with a fresh execution. A plan kept past
    // the swap reads `a` from the old position of `b`.
    let cases = [
        ("Int64", "(1, 10), (2, 20)", "(10, 1), (20, 2)"),
        ("Float64", "(1.5, 10), (2.5, 20)", "(10, 1.5), (20, 2.5)"),
    ];
    for (a_type, ab_rows, ba_rows) in cases {
        let db = plan_db(64);
        db.execute(&format!("CREATE TABLE t (a {a_type}, b Int64)")).unwrap();
        db.execute(&format!("INSERT INTO t VALUES {ab_rows}")).unwrap();
        let prepared = db.prepare("SELECT a FROM t WHERE b > 15").unwrap();
        let before = prepared.run().unwrap();
        assert!(before.plan_cache_hit(), "{a_type}: the prepare-time plan is reused");
        db.execute("DROP TABLE t").unwrap();
        db.execute(&format!("CREATE TABLE t (b Int64, a {a_type})")).unwrap();
        db.execute(&format!("INSERT INTO t VALUES {ba_rows}")).unwrap();
        let after = prepared
            .run()
            .unwrap_or_else(|e| panic!("{a_type}: prepared run after re-creation failed: {e}"));
        assert!(!after.plan_cache_hit(), "{a_type}: a new schema replans");
        let fresh = db.execute("SELECT a FROM t WHERE b > 15").unwrap();
        assert_eq!(fresh.table().num_rows(), 1, "{a_type}");
        assert_tables_identical(fresh.table(), after.table(), a_type);
        assert_tables_identical(before.table(), after.table(), a_type);
    }
}

// ---------------------------------------------------------------------------
// Levels 2 + 3: nUDF memoization and compiled-artifact reuse
// ---------------------------------------------------------------------------

const KEYFRAME_SHAPE: [usize; 3] = [1, 8, 8];

fn collab_db(parallelism: usize) -> Arc<Database> {
    let db = Arc::new(
        Database::builder()
            .exec_config(minidb::exec::ExecConfig {
                parallelism,
                morsel_rows: 16,
                ..Default::default()
            })
            .build(),
    );
    build_dataset(
        &db,
        &DatasetConfig {
            video_rows: 60,
            keyframe_shape: KEYFRAME_SHAPE.to_vec(),
            ..Default::default()
        },
    )
    .unwrap();
    db
}

fn repo_config() -> RepoConfig {
    RepoConfig {
        keyframe_shape: KEYFRAME_SHAPE.to_vec(),
        histogram_samples: 16,
        ..Default::default()
    }
}

fn corpus() -> Vec<String> {
    let mut queries: Vec<String> =
        [QueryType::Type1, QueryType::Type2, QueryType::Type3, QueryType::Type4]
            .into_iter()
            .map(|t| workload::queries::template(t, 0.1, "").sql)
            .collect();
    // The conditional Type 3: the condition argument must participate in
    // the memoization key.
    queries.push(workload::conditional_type3_template(0.1).sql);
    queries
}

#[test]
fn memoized_strategies_match_uncached_at_every_parallelism() {
    let repo = build_repo(&repo_config());
    let queries = corpus();
    for parallelism in [1usize, 2, 8] {
        let uncached = CollabEngine::new(collab_db(parallelism), Arc::clone(&repo));
        let cached = CollabEngine::new(collab_db(parallelism), Arc::clone(&repo));
        cached.set_inference_cache_capacity(4096);
        cached.set_artifact_cache_capacity(16);
        for kind in StrategyKind::all() {
            for sql in &queries {
                let ctx = |run: &str| format!("{} p={parallelism} {run}: {sql}", kind.label());
                let reference = uncached
                    .execute(sql, kind)
                    .unwrap_or_else(|e| panic!("{} failed: {e}", ctx("reference")));
                let cold = cached.execute(sql, kind).unwrap();
                let warm = cached.execute(sql, kind).unwrap();
                assert_tables_identical(&reference.table, &cold.table, &ctx("cold"));
                assert_tables_identical(&reference.table, &warm.table, &ctx("warm"));
            }
        }
        let stats = cached.inference_cache().stats();
        assert!(stats.hits > 0, "warm runs must hit the memo (p={parallelism}): {stats:?}");
        let artifacts = cached.artifact_cache().stats();
        assert!(artifacts.hits > 0, "tight reruns must reuse compilations: {artifacts:?}");
        assert_eq!(uncached.inference_cache().stats().hits, 0);
    }
}

#[test]
fn per_query_cache_counts_equal_engine_deltas_in_serial_runs() {
    let repo = build_repo(&repo_config());
    // A roomy memo, and one small enough to evict.
    for memo_capacity in [4096, 8] {
        let engine = CollabEngine::new(collab_db(1), Arc::clone(&repo));
        engine.set_inference_cache_capacity(memo_capacity);
        engine.set_artifact_cache_capacity(16);
        let levels = || [engine.inference_cache().stats(), engine.artifact_cache().stats()];
        for kind in StrategyKind::all() {
            for sql in &corpus() {
                for run in ["cold", "warm"] {
                    let before = levels();
                    let out = engine.execute(sql, kind).unwrap();
                    let after = levels();
                    let got = [out.cache.inference, out.cache.artifact];
                    for (level, ((b, a), got)) in
                        ["inference", "artifact"].iter().zip(before.iter().zip(&after).zip(got))
                    {
                        assert_eq!(
                            (got.hits, got.misses, got.evictions),
                            (a.hits - b.hits, a.misses - b.misses, a.evictions - b.evictions),
                            "{} {run} {level}: {sql}",
                            kind.label()
                        );
                    }
                }
            }
        }
        let memo = engine.inference_cache().stats();
        assert!(memo.hits > 0 && (memo_capacity > 8 || memo.evictions > 0), "{memo:?}");
    }
}

#[test]
fn tight_runners_from_the_artifact_cache_keep_their_plans_across_queries() {
    // Memo off, artifact cache on: every run of the query infers the same
    // keyframes with the same cached runner. The first run plans each
    // statement once; later runs plan only the statements that never keep
    // a plan, which look up nothing.
    let repo = build_repo(&repo_config());
    let engine = CollabEngine::new(collab_db(1), Arc::clone(&repo));
    engine.set_artifact_cache_capacity(16);
    let sql = workload::queries::template(QueryType::Type1, 0.2, "").sql;
    for kind in [StrategyKind::TightOptimized, StrategyKind::Tight] {
        let runs: Vec<(u64, u64)> = (0..3)
            .map(|_| {
                let before = engine.db().plan_cache_stats();
                engine.execute(&sql, kind).unwrap();
                let after = engine.db().plan_cache_stats();
                (after.hits - before.hits, after.misses - before.misses)
            })
            .collect();
        let label = kind.label();
        assert!(runs[0].1 > 0, "{label}: the first run plans: {runs:?}");
        assert!(runs[1].0 > 0, "{label}: the second run reuses plans: {runs:?}");
        assert_eq!(runs[1].1, 0, "{label}: the second run replans nothing: {runs:?}");
        assert_eq!(runs[1], runs[2], "{label}: warm runs look up alike");
    }
}

#[test]
fn model_swap_invalidates_memoized_results_and_artifacts() {
    let repo = build_repo(&repo_config());
    let sql = workload::queries::template(QueryType::Type1, 0.2, "").sql;

    let engine = CollabEngine::new(collab_db(1), Arc::clone(&repo));
    engine.set_inference_cache_capacity(4096);
    engine.set_artifact_cache_capacity(16);
    engine.execute(&sql, StrategyKind::Tight).unwrap();
    engine.execute(&sql, StrategyKind::Tight).unwrap();
    assert!(engine.inference_cache().stats().hits > 0, "warm run primed the memo");
    assert!(!engine.artifact_cache().is_empty(), "tight run compiled into the cache");

    // Swap the model behind nUDF_classify (same name, new weights). The
    // replacement must keep the label set — the query compares against
    // 'Floral Pattern'.
    let labels: Vec<String> = ["Floral Pattern", "Stripe", "Dots", "Plaid", "Paisley", "Solid"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let replacement = Arc::new(neuro::zoo::student(KEYFRAME_SHAPE.to_vec(), labels.len(), 4242));
    engine.swap_nudf(NudfSpec::new(
        "nUDF_classify",
        Arc::clone(&replacement),
        NudfOutput::Label { labels },
        vec![],
    ));
    assert!(engine.artifact_cache().is_empty(), "swap must drop the old model's compilations");

    // An uncached engine sharing the (already swapped) repository is the
    // ground truth for the new model.
    let reference_engine = CollabEngine::new(collab_db(1), Arc::clone(&repo));
    let reference = reference_engine.execute(&sql, StrategyKind::Tight).unwrap();
    for kind in [StrategyKind::Tight, StrategyKind::LooseUdf, StrategyKind::Independent] {
        let swapped = engine.execute(&sql, kind).unwrap();
        assert_tables_identical(
            &reference.table,
            &swapped.table,
            &format!("post-swap {}", kind.label()),
        );
    }
}

#[test]
fn inference_cache_stays_correct_under_tiny_capacity() {
    let repo = build_repo(&repo_config());
    let sql = workload::queries::template(QueryType::Type2, 0.3, "").sql;

    let uncached = CollabEngine::new(collab_db(1), Arc::clone(&repo));
    let reference = uncached.execute(&sql, StrategyKind::LooseUdf).unwrap();

    let engine = CollabEngine::new(collab_db(1), Arc::clone(&repo));
    // Far fewer slots than distinct keyframes: every execution churns.
    engine.set_inference_cache_capacity(4);
    for run in 0..3 {
        let out = engine.execute(&sql, StrategyKind::LooseUdf).unwrap();
        assert_tables_identical(&reference.table, &out.table, &format!("churn run {run}"));
    }
    let stats = engine.inference_cache().stats();
    assert!(stats.evictions > 0, "tiny capacity must evict: {stats:?}");
    assert!(engine.inference_cache().len() <= 8, "sharded capacity bound");
    // The plan cache churns the same way: 10 distinct SELECTs through a
    // 2-entry cache evict 8 entries, and the exported counter says so.
    let db = engine.db();
    db.swap_exec_config(minidb::exec::ExecConfig { plan_cache_capacity: 2, ..db.exec_config() });
    for i in 0..10 {
        db.execute(&format!("SELECT count(*) AS n FROM fabric WHERE patternID > {i}")).unwrap();
    }
    let metrics = engine.metrics_snapshot();
    let exported = metrics.get("minidb_plan_cache_evictions_total", &[]).map(|m| &m.value);
    assert_eq!(exported, Some(&obs::MetricValue::Counter(8)));
    assert_eq!(db.plan_cache_stats().evictions, 8);
    // Eviction only ever costs extra work, never correctness.
    let value_type = reference.table.column(0).value(0);
    assert!(!matches!(value_type, Value::Blob(_)), "sanity: output is scalar");
}

#[test]
fn memo_keeps_warm_hits_while_rows_exist_and_never_pins_deleted_keyframes() {
    let repo = build_repo(&repo_config());
    let sql = workload::queries::template(QueryType::Type1, 0.2, "").sql;
    let db = collab_db(1);
    let engine = CollabEngine::new(Arc::clone(&db), Arc::clone(&repo));
    engine.set_inference_cache_capacity(4096);
    let blob_at = |row: usize| match db.catalog().table("video").unwrap().column_by_name("keyframe")
    {
        Ok(col) => match col.value(row) {
            Value::Blob(b) => b,
            other => panic!("keyframe is {other:?}"),
        },
        Err(e) => panic!("{e}"),
    };
    for kind in StrategyKind::all() {
        let cold = engine.execute(&sql, kind).unwrap();
        let hits = engine.inference_cache().stats().hits;
        let warm = engine.execute(&sql, kind).unwrap();
        assert_tables_identical(&cold.table, &warm.table, kind.label());
        assert!(engine.inference_cache().stats().hits > hits, "{}: warm run missed", kind.label());
    }
    assert!(!engine.inference_cache().is_empty());

    // Delete the keyframes: replace the video table with copies of the same
    // bytes in fresh allocations. The memo must not keep the old ones alive.
    let old: Vec<std::sync::Weak<Vec<u8>>> = {
        let n = db.catalog().table("video").unwrap().num_rows();
        (0..n).map(|row| Arc::downgrade(&blob_at(row))).collect()
    };
    let video = db.catalog().table("video").unwrap();
    let cols: Vec<minidb::Column> = (0..video.num_columns())
        .map(|c| match video.column(c) {
            minidb::Column::Blob(v) => {
                minidb::Column::Blob(v.iter().map(|b| Arc::new(b.as_ref().clone())).collect())
            }
            other => other.clone(),
        })
        .collect();
    let fresh = minidb::Table::new(video.schema().clone(), cols).unwrap();
    drop(video);
    db.catalog().create_table("video", fresh, true).unwrap();
    assert!(old.iter().all(|w| w.strong_count() == 0), "memoized keys pinned deleted keyframes");

    // The same bytes in new rows are scored afresh, with the same answers.
    let reference = CollabEngine::new(collab_db(1), Arc::clone(&repo));
    for kind in StrategyKind::all() {
        let got = engine.execute(&sql, kind).unwrap();
        let want = reference.execute(&sql, kind).unwrap();
        assert_tables_identical(&want.table, &got.table, kind.label());
    }
}

/// `collab_db(1)` with every keyframe's contents on two video rows, each
/// copy from its own `tensor_to_blob` call (rows 2k and 2k + 1 hold
/// keyframe k).
fn duplicated_keyframes_db() -> Arc<Database> {
    let db = collab_db(1);
    let video = db.catalog().table("video").unwrap();
    let seed = DatasetConfig::default().seed;
    let keyframes = minidb::Column::from_values(
        minidb::DataType::Blob,
        (0..video.num_rows() as u64).map(|row| {
            collab::tensor_to_blob(&workload::dataset::keyframe(&KEYFRAME_SHAPE, seed, row / 2))
        }),
    )
    .unwrap();
    let columns = (0..video.num_columns())
        .map(|c| match video.schema().field(c).name.as_str() {
            "keyframe" => keyframes.clone(),
            _ => video.column(c).clone(),
        })
        .collect();
    let fresh = minidb::Table::new(video.schema().clone(), columns).unwrap();
    drop(video);
    db.catalog().create_table("video", fresh, true).unwrap();
    db
}

#[test]
fn db_pytorch_deduplicates_keyframes_by_content() {
    use workload::dataset::{date_upper_bound_for_selectivity, DATE_EPOCH};
    let repo = build_repo(&repo_config());
    let hi = date_upper_bound_for_selectivity(0.5);
    // (query, its nUDF, the video rows whose keyframes it admits).
    let cases = [
        // Type 1, ungated: every keyframe the video-local window admits.
        (
            workload::queries::template(QueryType::Type1, 0.5, "").sql,
            "nUDF_classify",
            format!("SELECT videoID FROM video WHERE date >= '{DATE_EPOCH}' and date < '{hi}'"),
        ),
        // Type 2, gated: the keyframes of the joined, filtered rows.
        (
            workload::queries::template(QueryType::Type2, 0.5, "").sql,
            "nUDF_detect",
            format!(
                "SELECT V.videoID FROM fabric F, video V WHERE F.printdate >= '{DATE_EPOCH}' \
                 and F.printdate < '{hi}' and F.transID = V.transID"
            ),
        ),
    ];
    let uncached = CollabEngine::new(duplicated_keyframes_db(), Arc::clone(&repo));
    let memo = CollabEngine::new(duplicated_keyframes_db(), Arc::clone(&repo));
    memo.set_inference_cache_capacity(4096);
    for (sql, nudf, admitted_sql) in &cases {
        let admitted = uncached.db().execute(admitted_sql).unwrap();
        let ids = admitted.table().column(0);
        let distinct: std::collections::HashSet<i64> =
            (0..ids.len()).map(|row| ids.i64_at(row) / 2).collect();
        assert!(distinct.len() > 1 && distinct.len() < ids.len(), "{nudf}: {}", ids.len());
        let want_flops = repo.flops_per_inference(nudf).unwrap() * distinct.len() as u64;
        let reference = uncached.execute(sql, StrategyKind::LooseUdf).unwrap();
        for (mode, engine) in [("memo off", &uncached), ("memo on", &memo)] {
            let out = engine.execute(sql, StrategyKind::Independent).unwrap();
            let ctx = format!("{nudf} {mode}");
            assert_eq!(out.sim.inference_flops, want_flops, "{ctx}: one inference per keyframe");
            assert_tables_identical(&reference.table, &out.table, &ctx);
        }
    }
}

#[test]
fn same_named_models_keep_their_own_artifacts() {
    // Two different models, both named "student", compiled through one
    // artifact cache into one database: each cached runner must run its
    // own model's weights, not whichever model compiled last.
    let db = Arc::new(Database::new());
    let registry = dl2sql::NeuralRegistry::shared();
    let cache = dl2sql::ArtifactCache::new(4);
    let models: Vec<Arc<neuro::Model>> = [3u64, 4]
        .into_iter()
        .map(|seed| Arc::new(neuro::zoo::student(vec![1, 8, 8], 3, seed)))
        .collect();
    assert_eq!(models[0].name, models[1].name);
    let runner = |m| cache.runner_for(&db, &registry, m, dl2sql::PreJoinStrategy::None).unwrap();
    for m in &models {
        runner(m);
    }
    let inputs: Vec<neuro::Tensor> = (0..6)
        .map(|i| {
            let data = (0..64).map(|j| ((i * 64 + j) as f32 * 0.37).sin()).collect();
            neuro::Tensor::new(vec![1, 8, 8], data).unwrap()
        })
        .collect();
    for (k, m) in models.iter().enumerate() {
        let r = runner(m);
        for x in &inputs {
            let got = r.infer(x).unwrap().probabilities;
            let want = m.forward(x).unwrap();
            for (p, n) in got.iter().zip(want.data()) {
                assert!((p - *n as f64).abs() <= 1e-3, "model {k}: {p} vs native {n}");
            }
        }
    }
    assert_eq!(cache.stats().misses, 2, "each model compiled once");
}
