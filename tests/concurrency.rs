//! Concurrency smoke tests: the catalog, UDF registry and executor are
//! shared behind `Arc` by the strategies; concurrent readers and writers
//! must not deadlock, panic, or observe torn tables.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use minidb::{DataType, Database, ScalarUdf, Value};

#[test]
fn concurrent_readers_and_writers() {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE t (k Int64, v Int64)").unwrap();
    let rows: Vec<String> = (0..500).map(|i| format!("({}, {})", i % 50, i)).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(","))).unwrap();

    let mut handles = Vec::new();
    // Readers: aggregate repeatedly; every snapshot must be internally
    // consistent (sum and count move together).
    for _ in 0..4 {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for _ in 0..200 {
                let out = db.execute("SELECT count(*), SUM(v) FROM t").unwrap();
                let n = out.table().column(0).i64_at(0);
                assert!(n >= 500, "rows never shrink: {n}");
            }
        }));
    }
    // A writer: appends batches.
    {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for batch in 0..20 {
                let rows: Vec<String> =
                    (0..25).map(|i| format!("({}, {})", i % 50, batch * 1000 + i)).collect();
                db.execute(&format!("INSERT INTO t VALUES {}", rows.join(","))).unwrap();
            }
        }));
    }
    // A DDL thread: creates and drops unrelated temp tables.
    {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for i in 0..50 {
                db.execute(&format!("CREATE TEMP TABLE scratch_{i} AS SELECT k FROM t LIMIT 10"))
                    .unwrap();
                db.execute(&format!("DROP TABLE scratch_{i}")).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().expect("no thread panicked");
    }
    let final_count = db.execute("SELECT count(*) FROM t").unwrap();
    assert_eq!(final_count.table().column(0).i64_at(0), 500 + 20 * 25);
}

#[test]
fn concurrent_udf_queries() {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE t (v Int64)").unwrap();
    let rows: Vec<String> = (0..200).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(","))).unwrap();
    db.register_udf(ScalarUdf::new("slow_mod", vec![DataType::Int64], DataType::Int64, |args| {
        // A little work to widen the race window.
        let mut x = args[0].as_i64()?;
        for _ in 0..100 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        Ok(Value::Int64(x % 7))
    }));
    let mut handles = Vec::new();
    for _ in 0..6 {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for _ in 0..50 {
                let out = db.execute("SELECT count(*) FROM t WHERE slow_mod(v) = 3").unwrap();
                let n = out.table().column(0).i64_at(0);
                assert!(n <= 200);
            }
        }));
    }
    for h in handles {
        h.join().expect("no thread panicked");
    }
}

#[test]
fn planner_stats_never_cache_a_stale_ndv_under_a_newer_epoch() {
    // A writer replaces `t` with a new distinct count over and over while
    // a planner estimates a GROUP BY over it. Distinct counts are cached
    // per table epoch, read before the snapshot, so a count taken from an
    // older snapshot can only land under an older epoch: once both threads
    // join, the estimate (= NDV, which never exceeds the row count) must
    // be the final table's exact count.
    const ROWS: i64 = 2000;
    let table = |distinct: i64| {
        minidb::Table::new(
            minidb::Schema::new(vec![minidb::Field::new("k", DataType::Int64)]),
            vec![minidb::Column::Int64((0..ROWS).map(|i| i % distinct).collect())],
        )
        .unwrap()
    };
    let group = "SELECT k, count(*) AS n FROM t GROUP BY k";
    let db = Database::new();
    db.catalog().create_table("t", table(1), false).unwrap();
    for round in 0..40i64 {
        let done = AtomicBool::new(false);
        let start = Barrier::new(2);
        let mut last = 0;
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                while !done.load(Ordering::Relaxed) {
                    db.estimate(group).unwrap();
                }
            });
            start.wait();
            for i in 0..20 {
                last = 1 + (round * 31 + i * 7) % 997;
                db.catalog().replace_table("t", table(last)).unwrap();
            }
            done.store(true, Ordering::Relaxed);
        });
        assert_eq!(db.estimate(group).unwrap().rows, last as f64, "round {round}");
    }
}

#[test]
fn concurrent_dl2sql_inference_on_separate_databases() {
    // Compiled models are per-database; independent instances must be able
    // to infer in parallel (the engine holds no global state).
    let mut handles = Vec::new();
    for seed in 0..4u64 {
        handles.push(std::thread::spawn(move || {
            let db = Arc::new(Database::new());
            let registry = dl2sql::NeuralRegistry::shared();
            let model = neuro::zoo::student(vec![1, 8, 8], 3, seed);
            let compiled =
                Arc::new(dl2sql::compile_model(&db, &registry, &model).expect("compiles"));
            let runner = dl2sql::Runner::new(Arc::clone(&db), registry, compiled).expect("runner");
            let input = neuro::Tensor::full(vec![1, 8, 8], 0.25);
            let expected = model.predict(&input).expect("reference");
            for _ in 0..5 {
                let got = runner.infer(&input).expect("sql inference").predicted_class;
                assert_eq!(got, expected);
            }
        }));
    }
    for h in handles {
        h.join().expect("no thread panicked");
    }
}

// ---------------------------------------------------------------------------
// Determinism suite: `parallelism` ∈ {1, 2, 8} must agree.
//
// Every operator folds a list of row ranges with one implementation: the
// single range `0..n` at p = 1 (a fold in row order), morsels at p > 1.
// Per-range outputs concatenate in range order and partial aggregates merge
// in range order with first-occurrence group ids, so results depend only on
// the range list, never on scheduling. Non-float columns must match exactly
// at every level; float aggregates at p > 1 may differ from p = 1 only by
// partial-merge rounding (compared at 1e-9 relative tolerance) and must be
// bit-identical between the parallel levels themselves, whose range lists
// are the same.
// ---------------------------------------------------------------------------

/// A database whose fixtures are big enough for several morsels: tiny
/// morsels split every operator at p > 1.
fn parallel_db(parallelism: usize) -> Database {
    let db = Database::builder()
        .exec_config(minidb::exec::ExecConfig {
            parallelism,
            morsel_rows: 64,
            ..Default::default()
        })
        .build();
    db.execute_script(
        "CREATE TABLE fm (MatrixID Int64, OrderID Int64, Value Float64); \
         CREATE TABLE kernel (KernelID Int64, OrderID Int64, Value Float64);",
    )
    .unwrap();
    let mut fm = Vec::new();
    for m in 0..64i64 {
        for o in 0..16i64 {
            fm.push(format!("({m}, {o}, {}.5)", (m * 31 + o * 7) % 19));
        }
    }
    db.execute(&format!("INSERT INTO fm VALUES {}", fm.join(","))).unwrap();
    let mut kr = Vec::new();
    for k in 0..8i64 {
        for o in 0..16i64 {
            kr.push(format!("({k}, {o}, {}.25)", (k * 13 + o * 3) % 7));
        }
    }
    db.execute(&format!("INSERT INTO kernel VALUES {}", kr.join(","))).unwrap();
    db
}

/// Every operator the morsel executor parallelizes: filter, projection,
/// hash-join probe, partial-aggregate group-by — with and without ORDER BY
/// (the unordered cases check emission-order determinism itself).
const DETERMINISM_CORPUS: &[&str] = &[
    "SELECT MatrixID, OrderID, Value FROM fm WHERE Value > 4.0 and OrderID < 12",
    "SELECT MatrixID + OrderID AS mo, Value * 0.5 AS half FROM fm WHERE MatrixID >= 3",
    "SELECT B.KernelID AS KernelID, A.MatrixID AS TupleID, SUM(A.Value * B.Value) AS Value \
     FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID \
     GROUP BY B.KernelID, A.MatrixID ORDER BY KernelID, TupleID",
    "SELECT MatrixID, count(*) AS n, SUM(Value) AS s, AVG(Value) AS a, \
     MIN(Value) AS lo, MAX(Value) AS hi FROM fm GROUP BY MatrixID ORDER BY MatrixID",
    "SELECT MatrixID, SUM(Value) AS s FROM fm GROUP BY MatrixID \
     HAVING SUM(Value) > 50.0 ORDER BY MatrixID LIMIT 10",
    "SELECT count(*) AS n FROM fm A, kernel B WHERE A.OrderID = B.OrderID and A.Value > 2.0",
    "SELECT OrderID, count(*) AS n, SUM(Value) AS s FROM fm GROUP BY OrderID",
    "SELECT Value FROM fm WHERE Value >= 1.0",
];

/// Cell-by-cell comparison: exact for non-floats, `eps`-relative for
/// floats (`eps = 0.0` demands bit equality there too).
fn assert_tables_agree(reference: &minidb::Table, got: &minidb::Table, eps: f64, ctx: &str) {
    assert_eq!(reference.num_rows(), got.num_rows(), "{ctx}: row count");
    assert_eq!(reference.num_columns(), got.num_columns(), "{ctx}: column count");
    for c in 0..reference.num_columns() {
        for r in 0..reference.num_rows() {
            match (reference.column(c).value(r), got.column(c).value(r)) {
                (Value::Float64(x), Value::Float64(y)) => {
                    let tol = eps * x.abs().max(1.0);
                    assert!((x - y).abs() <= tol, "{ctx}: col {c} row {r}: {x} vs {y} (tol {tol})");
                }
                (a, b) => assert_eq!(a, b, "{ctx}: col {c} row {r}"),
            }
        }
    }
}

#[test]
fn parallelism_levels_agree_on_sql_corpus() {
    let serial = parallel_db(1);
    let two = parallel_db(2);
    let eight = parallel_db(8);
    for sql in DETERMINISM_CORPUS {
        let reference = serial.execute(sql).unwrap();
        let t2 = two.execute(sql).unwrap();
        let t8 = eight.execute(sql).unwrap();
        assert_tables_agree(reference.table(), t2.table(), 1e-9, &format!("p=2 vs p=1: {sql}"));
        assert_tables_agree(reference.table(), t8.table(), 1e-9, &format!("p=8 vs p=1: {sql}"));
        // Between parallel levels the merge is identical: bit-for-bit.
        assert_tables_agree(t2.table(), t8.table(), 0.0, &format!("p=8 vs p=2: {sql}"));
    }
}

/// `n` rows of `(g, v)` with `g = i % 7` and `v = sin(i)`: values whose
/// float sums depend on addition order, unlike the dyadic fixtures above.
fn sine_rows(n: usize) -> Vec<(i64, f64)> {
    (0..n).map(|i| (i as i64 % 7, (i as f64).sin())).collect()
}

/// A database at `parallelism` with 16-row morsels holding `sine_rows`
/// as `t (g, v)` and a conv-layout `fm` / `kernel` pair of sines.
fn sine_db(parallelism: usize, fuse: bool) -> Database {
    let db = Database::builder()
        .exec_config(minidb::exec::ExecConfig {
            parallelism,
            morsel_rows: 16,
            ..Default::default()
        })
        .optimizer_config(minidb::optimizer::OptimizerConfig {
            fuse_join_aggregates: fuse,
            ..Default::default()
        })
        .build();
    db.execute_script(
        "CREATE TABLE t (g Int64, v Float64); \
         CREATE TABLE fm (MatrixID Int64, OrderID Int64, Value Float64); \
         CREATE TABLE kernel (KernelID Int64, OrderID Int64, Value Float64);",
    )
    .unwrap();
    let rows: Vec<String> = sine_rows(300).iter().map(|(g, v)| format!("({g}, {v:?})")).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(","))).unwrap();
    let fm: Vec<String> = (0..24 * 9)
        .map(|i| format!("({}, {}, {:?})", i / 9, i % 9, (i as f64 * 0.7).sin()))
        .collect();
    db.execute(&format!("INSERT INTO fm VALUES {}", fm.join(","))).unwrap();
    let kr: Vec<String> = (0..4 * 9)
        .map(|i| format!("({}, {}, {:?})", i / 9, i % 9, (i as f64 * 1.3).cos()))
        .collect();
    db.execute(&format!("INSERT INTO kernel VALUES {}", kr.join(","))).unwrap();
    db
}

#[test]
fn parallelism_one_folds_in_row_order_on_order_sensitive_data() {
    let sql = "SELECT g, SUM(v) AS s, AVG(v) AS a, stddevSamp(v) AS sd FROM t \
               GROUP BY g ORDER BY g";
    let conv = "SELECT B.KernelID AS KernelID, A.MatrixID AS TupleID, \
                SUM(A.Value * B.Value) AS Value \
                FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID \
                GROUP BY B.KernelID, A.MatrixID ORDER BY KernelID, TupleID";
    let p1 = sine_db(1, true);
    let stored = p1.execute("SELECT v FROM t").unwrap();
    for (r, (_, v)) in sine_rows(300).iter().enumerate() {
        assert_eq!(stored.table().column(0).f64_at(r).to_bits(), v.to_bits(), "row {r} stored");
    }

    // p = 1 is one range: each group is a fold over its rows in row order.
    let got = p1.execute(sql).unwrap();
    for g in 0..7i64 {
        let xs: Vec<f64> = sine_rows(300).iter().filter(|r| r.0 == g).map(|r| r.1).collect();
        let sum = xs.iter().fold(0.0, |s, x| s + x);
        let (mut n, mut mean, mut m2) = (0u64, 0.0f64, 0.0f64);
        for &x in &xs {
            n += 1;
            let delta = x - mean;
            mean += delta / n as f64;
            m2 += delta * (x - mean);
        }
        let row = g as usize;
        let t = got.table();
        assert_eq!(t.column(0).i64_at(row), g);
        assert_eq!(t.column(1).f64_at(row).to_bits(), sum.to_bits(), "g={g}: SUM");
        let avg = sum / xs.len() as f64;
        assert_eq!(t.column(2).f64_at(row).to_bits(), avg.to_bits(), "g={g}: AVG");
        let sd = (m2 / (n as f64 - 1.0)).sqrt();
        assert_eq!(t.column(3).f64_at(row).to_bits(), sd.to_bits(), "g={g}: stddevSamp");
    }

    // p > 1 merges 19 morsels: the same bits at 2 and 8 workers, within
    // rounding of p = 1 — and on this data the merge order shows.
    let (p2, p8) = (sine_db(2, true), sine_db(8, true));
    let mut moved = false;
    for q in [sql, conv] {
        let (r1, r2, r8) = (p1.execute(q).unwrap(), p2.execute(q).unwrap(), p8.execute(q).unwrap());
        assert_tables_agree(r2.table(), r8.table(), 0.0, &format!("p=8 vs p=2: {q}"));
        assert_tables_agree(r1.table(), r2.table(), 1e-9, &format!("p=2 vs p=1: {q}"));
        moved |= r1.table() != r2.table();
    }
    assert!(moved, "no float moved between p=1 and p=2: the fixture does not show addition order");

    // The conv shape, fused and unfused, at p = 1: bit for bit.
    assert!(p1.explain(conv).unwrap().contains("JoinAggregate"), "the conv query fuses");
    let unfused = sine_db(1, false);
    assert!(!unfused.explain(conv).unwrap().contains("JoinAggregate"));
    let (fused, plain) = (p1.execute(conv).unwrap(), unfused.execute(conv).unwrap());
    assert_tables_agree(fused.table(), plain.table(), 0.0, "fused vs unfused at p=1");
}

#[test]
fn collab_strategies_agree_across_parallelism() {
    use collab::{CollabEngine, QueryType, StrategyKind};
    use workload::{build_dataset, build_repo, DatasetConfig, RepoConfig};

    // Low selectivity and 8x8 keyframes keep the un-optimized tight
    // strategy (SQL inference per admitted keyframe) debug-mode fast.
    let queries: Vec<String> =
        [QueryType::Type1, QueryType::Type2, QueryType::Type3, QueryType::Type4]
            .into_iter()
            .map(|t| workload::queries::template(t, 0.1, "").sql)
            .collect();
    let keyframe_shape = vec![1usize, 8, 8];
    let repo = build_repo(&RepoConfig {
        keyframe_shape: keyframe_shape.clone(),
        histogram_samples: 16,
        ..Default::default()
    });

    // results[level][strategy][query] -> table
    let mut results: Vec<Vec<Vec<minidb::Table>>> = Vec::new();
    for parallelism in [1usize, 2, 8] {
        let db = Arc::new(
            Database::builder()
                .exec_config(minidb::exec::ExecConfig {
                    parallelism,
                    morsel_rows: 16,
                    ..Default::default()
                })
                .build(),
        );
        let dataset = DatasetConfig {
            video_rows: 100,
            keyframe_shape: keyframe_shape.clone(),
            ..Default::default()
        };
        build_dataset(&db, &dataset).unwrap();
        let engine = CollabEngine::new(db, Arc::clone(&repo));
        let mut per_strategy = Vec::new();
        for kind in StrategyKind::all() {
            let mut tables = Vec::new();
            for sql in &queries {
                let out = engine
                    .execute(sql, kind)
                    .unwrap_or_else(|e| panic!("{} failed on {sql}: {e}", kind.label()));
                tables.push(out.table);
            }
            per_strategy.push(tables);
        }
        results.push(per_strategy);
    }

    for (s, kind) in StrategyKind::all().into_iter().enumerate() {
        for (q, sql) in queries.iter().enumerate() {
            let ctx = |lvl: &str| format!("{} {lvl}: {sql}", kind.label());
            assert_tables_agree(&results[0][s][q], &results[1][s][q], 1e-9, &ctx("p=2 vs p=1"));
            assert_tables_agree(&results[0][s][q], &results[2][s][q], 1e-9, &ctx("p=8 vs p=1"));
            assert_tables_agree(&results[1][s][q], &results[2][s][q], 0.0, &ctx("p=8 vs p=2"));
        }
    }
}

#[test]
fn query_result_reports_timing_and_scan_volume() {
    let db = parallel_db(2);
    let out = db.execute("SELECT MatrixID, SUM(Value) AS s FROM fm GROUP BY MatrixID").unwrap();
    assert_eq!(out.column_names(), vec!["MatrixID", "s"]);
    assert_eq!(out.column_types(), vec![minidb::DataType::Int64, minidb::DataType::Float64]);
    assert!(out.elapsed() > std::time::Duration::ZERO);
    assert_eq!(out.rows_scanned(), 64 * 16);
    assert!(out.summary().contains("rows scanned"), "summary: {}", out.summary());
}

#[test]
fn per_statement_numbers_ignore_concurrent_statements() {
    // Four threads share one database and its warm plan cache; each
    // result must report only its own statement's scans and lookup.
    let db = Arc::new(parallel_db(1));
    let sql = "SELECT B.KernelID AS k, SUM(A.Value * B.Value) AS v \
               FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID GROUP BY B.KernelID";
    let cold = db.execute(sql).unwrap();
    assert!(!cold.plan_cache_hit());
    let scanned = cold.rows_scanned();
    assert_eq!(scanned, 64 * 16 + 8 * 16, "single-threaded: both tables scanned once");
    let start = Arc::new(std::sync::Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let (db, start) = (Arc::clone(&db), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..200 {
                    let out = db.execute(sql).unwrap();
                    assert_eq!(out.rows_scanned(), scanned, "rows_scanned of this statement only");
                    let pc = out.plan_cache_stats();
                    assert_eq!((pc.hits, pc.misses), (1, 0), "this statement's own lookup");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

// ---------------------------------------------------------------------------
// Schedule independence: one database shared by concurrent inferences and
// strategies. Every result must equal its serial run, bit for bit.
// ---------------------------------------------------------------------------

fn prob_bits(probs: &[f64]) -> Vec<u64> {
    probs.iter().map(|p| p.to_bits()).collect()
}

#[test]
fn threads_share_one_runner_on_one_database() {
    const THREADS: usize = 4;
    const INFERENCES: usize = 20;
    let model = neuro::zoo::student(vec![1, 12, 12], 4, 11);
    let inputs: Vec<neuro::Tensor> = (0..INFERENCES)
        .map(|i| {
            let data = (0..144).map(|j| ((i * 144 + j) as f32 * 0.61).sin() * 1.5).collect();
            neuro::Tensor::new(vec![1, 12, 12], data).unwrap()
        })
        .collect();
    for parallelism in [1usize, 2, 8] {
        let db = Arc::new(Database::builder().parallelism(parallelism).build());
        let registry = dl2sql::NeuralRegistry::shared();
        let compiled = Arc::new(dl2sql::compile_model(&db, &registry, &model).unwrap());
        let runner = dl2sql::Runner::new(Arc::clone(&db), registry, compiled).unwrap();
        let serial: Vec<Vec<u64>> = inputs
            .iter()
            .map(|x| {
                let probs = runner.infer(x).unwrap().probabilities;
                for (p, n) in probs.iter().zip(model.forward(x).unwrap().data()) {
                    assert!((p - *n as f64).abs() <= 1e-3, "p={parallelism}: {p} vs native {n}");
                }
                prob_bits(&probs)
            })
            .collect();
        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (runner, inputs, serial, start) = (&runner, &inputs, &serial, &start);
                s.spawn(move || {
                    start.wait();
                    // Each thread walks the inputs from its own offset, so
                    // different programs overlap statement by statement.
                    for i in 0..INFERENCES {
                        let k = (i + t * 5) % INFERENCES;
                        let got = runner.infer(&inputs[k]).unwrap().probabilities;
                        assert_eq!(
                            prob_bits(&got),
                            serial[k],
                            "p={parallelism} thread {t} input {k}"
                        );
                    }
                });
            }
        });
        assert!(
            db.catalog().table(&runner.compiled().input_table).is_none(),
            "inference state stays private to its session"
        );
    }
}

/// The statements of `compiled` with a query to plan: how many keep
/// their plan, and how many never do (a scalar subquery is evaluated
/// while planning, e.g. softmax's maximum and sum). A statement that
/// never keeps looks up a plan once, misses, and then plans every time.
fn planned_statements(compiled: &dl2sql::CompiledModel) -> (u64, u64) {
    use minidb::sql::ast::Statement;
    let (mut kept, mut unkept) = (0, 0);
    for sql in compiled.steps.iter().flat_map(|s| &s.statements).chain([&compiled.predict_sql]) {
        let planned = matches!(
            minidb::sql::parse_statement(sql).unwrap(),
            Statement::Query(_)
                | Statement::CreateTable { as_query: Some(_), .. }
                | Statement::InsertSelect { .. }
        );
        let subquery = sql.contains("(SELECT");
        kept += (planned && !subquery) as u64;
        unkept += (planned && subquery) as u64;
    }
    (kept, unkept)
}

fn student_inputs(n: usize) -> Vec<neuro::Tensor> {
    (0..n)
        .map(|i| {
            let data = (0..144).map(|j| ((i * 144 + j) as f32 * 0.37).cos() * 1.5).collect();
            neuro::Tensor::new(vec![1, 12, 12], data).unwrap()
        })
        .collect()
}

#[test]
fn threads_share_one_runners_kept_plans_under_alternating_settings() {
    const THREADS: usize = 4;
    const INFERENCES: usize = 8;
    let model = neuro::zoo::student(vec![1, 12, 12], 4, 11);
    let inputs = student_inputs(INFERENCES);
    for parallelism in [1usize, 2, 8] {
        let db = Arc::new(Database::builder().parallelism(parallelism).build());
        let registry = dl2sql::NeuralRegistry::shared();
        let compiled = Arc::new(dl2sql::compile_model(&db, &registry, &model).unwrap());
        let new_runner = || {
            dl2sql::Runner::new(Arc::clone(&db), Arc::clone(&registry), Arc::clone(&compiled))
                .unwrap()
        };
        // The database's own settings and DL2SQL-OP's.
        let base = &db.settings().optimizer;
        let settings =
            [db.settings().clone(), dl2sql::hints::op_settings(Arc::clone(&registry), base)];
        // Reference: a fresh runner per inference plans every statement.
        let fresh: Vec<Vec<Vec<u64>>> = settings
            .iter()
            .map(|s| {
                inputs
                    .iter()
                    .map(|x| {
                        let probs = new_runner().infer_with(s, x).unwrap().probabilities;
                        for (p, n) in probs.iter().zip(model.forward(x).unwrap().data()) {
                            assert!((p - *n as f64).abs() <= 1e-3, "p={parallelism}: {p} vs {n}");
                        }
                        prob_bits(&probs)
                    })
                    .collect()
            })
            .collect();

        let (kept, unkept) = planned_statements(&compiled);
        assert!(kept > 0 && unkept > 0, "{kept} kept, {unkept} unkept");
        let runner = new_runner();
        let start = db.plan_cache_stats();
        // One inference per settings plans every statement once.
        for s in &settings {
            runner.infer_with(s, &inputs[0]).unwrap();
        }
        let warm = db.plan_cache_stats();
        let misses = 2 * kept + unkept;
        assert_eq!((warm.hits - start.hits, warm.misses - start.misses), (0, misses));

        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (runner, inputs, fresh, settings, barrier) =
                    (&runner, &inputs, &fresh, &settings, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..INFERENCES {
                        let (k, which) = ((i + t * 3) % INFERENCES, (i + t) % 2);
                        let got = runner.infer_with(&settings[which], &inputs[k]).unwrap();
                        assert_eq!(
                            prob_bits(&got.probabilities),
                            fresh[which][k],
                            "p={parallelism} thread {t} input {k} settings {which}"
                        );
                    }
                });
            }
        });
        let end = db.plan_cache_stats();
        let runs = (THREADS * INFERENCES) as u64;
        assert_eq!(end.hits - warm.hits, runs * kept, "p={parallelism}: reuses");
        assert_eq!(end.misses - warm.misses, 0, "p={parallelism}: replans");
    }
}

#[test]
fn kept_runner_plans_replan_when_what_they_were_planned_against_changes() {
    let model = neuro::zoo::student(vec![1, 12, 12], 4, 11);
    let x = student_inputs(1).remove(0);
    let native = model.forward(&x).unwrap();
    let db = Arc::new(Database::builder().parallelism(1).build());
    let registry = dl2sql::NeuralRegistry::shared();
    let compiled = Arc::new(dl2sql::compile_model(&db, &registry, &model).unwrap());
    let new_runner = || {
        dl2sql::Runner::new(Arc::clone(&db), Arc::clone(&registry), Arc::clone(&compiled)).unwrap()
    };
    let runner = new_runner();
    let (kept, _) = planned_statements(&compiled);
    // The next inference replans `replanned` kept plans, reuses the rest,
    // and answers as a runner that plans everything afresh.
    let check = |case: &str, replanned: u64| {
        let before = db.plan_cache_stats();
        let got = runner.infer(&x).unwrap_or_else(|e| panic!("{case}: {e}")).probabilities;
        let after = db.plan_cache_stats();
        assert_eq!(after.misses - before.misses, replanned, "{case}: replans");
        assert_eq!(after.hits - before.hits, kept - replanned, "{case}: reuses");
        let fresh = new_runner().infer(&x).unwrap().probabilities;
        assert_eq!(prob_bits(&got), prob_bits(&fresh), "{case}");
        for (p, n) in got.iter().zip(native.data()) {
            assert!((p - *n as f64).abs() <= 1e-3, "{case}: {p} vs native {n}");
        }
    };
    runner.infer(&x).unwrap();
    check("nothing changed", 0);

    // Only the first conv statement scans the first kernel table.
    let kernel = format!("{}_l1_kernel", compiled.prefix);
    let table = db.catalog().table(&kernel).unwrap();
    let schema = table.schema().clone();
    let order = schema.index_of("OrderID").unwrap();
    let past_last = (0..table.num_rows()).map(|r| table.column(order).i64_at(r)).max().unwrap() + 1;
    // A row whose OrderID no feature-map row has joins nothing.
    let mut grown = (*table).clone();
    let row = schema
        .fields()
        .iter()
        .map(|f| match (f.name.as_str(), f.data_type) {
            ("OrderID", _) => Value::Int64(past_last),
            (_, DataType::Float64) => Value::Float64(1.0),
            _ => Value::Int64(0),
        })
        .collect();
    grown.push_row(row).unwrap();
    db.catalog().create_table(&kernel, grown.clone(), true).unwrap();
    check("kernel re-created with another row count", 1);

    // The same rows again, so only the column order differs.
    let reversed = minidb::Table::new(
        minidb::Schema::new(schema.fields().iter().rev().cloned().collect()),
        grown.columns().iter().rev().cloned().collect(),
    )
    .unwrap();
    db.catalog().create_table(&kernel, reversed, true).unwrap();
    check("kernel re-created with its columns reversed", 1);

    db.swap_exec_config(minidb::exec::ExecConfig { parallelism: 2, ..db.exec_config() });
    check("parallelism swapped", kept);
}

#[test]
fn type1_query_over_4096_keyframes_matches_serial_at_every_parallelism() {
    use collab::{CollabEngine, QueryType, StrategyKind};
    use workload::{build_dataset, DatasetConfig};

    // 4096 video rows split into 16 morsels at p > 1, so the filter calls
    // the SQL-inference nUDF from several workers at once. A small
    // classifier (one conv, pooling, FC and softmax: ten statements per
    // inference) keeps the 3 × 4096 SQL inferences affordable.
    const KEYFRAMES: usize = 4096;
    let shape = vec![1usize, 8, 8];
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(17);
    let layers = vec![
        neuro::zoo::conv_layer(&mut rng, 1, 2, 3, 1, 0),
        neuro::graph::Layer::GlobalAvgPool,
        neuro::zoo::linear_layer(&mut rng, 2, 6),
        neuro::graph::Layer::Softmax,
    ];
    let model = Arc::new(neuro::Model::new("classify", shape.clone(), 6, layers));
    let labels = ["Floral Pattern", "Stripe", "Dots", "Plaid", "Paisley", "Solid"];
    let repo = collab::ModelRepo::new();
    repo.register(collab::NudfSpec::new(
        "nUDF_classify",
        Arc::clone(&model),
        collab::NudfOutput::Label { labels: labels.map(String::from).to_vec() },
        vec![],
    ));
    let repo = Arc::new(repo);
    let sql = workload::queries::template(QueryType::Type1, 1.0, "").sql;
    let per_inference = repo.flops_per_inference("nUDF_classify").unwrap();
    let mut outcomes = Vec::new();
    for parallelism in [1usize, 2, 8] {
        let db = Arc::new(
            Database::builder()
                .exec_config(minidb::exec::ExecConfig {
                    parallelism,
                    morsel_rows: KEYFRAMES / 16,
                    ..Default::default()
                })
                .build(),
        );
        let dataset = DatasetConfig {
            video_rows: KEYFRAMES,
            keyframe_shape: shape.clone(),
            ..Default::default()
        };
        build_dataset(&db, &dataset).unwrap();
        let engine = CollabEngine::new(Arc::clone(&db), Arc::clone(&repo));
        let out = engine.execute(&sql, StrategyKind::Tight).unwrap();
        assert_eq!(
            out.sim.inference_flops,
            KEYFRAMES as u64 * per_inference,
            "p={parallelism}: one SQL inference per keyframe"
        );
        outcomes.push((db, out));
    }

    // The native forward pass decides the reference answer: the window
    // holds every row, so the query sums all meters once per keyframe the
    // model labels 'Floral Pattern' (class 0).
    let (db, serial) = &outcomes[0];
    let frames = db.execute("SELECT keyframe FROM video").unwrap();
    let floral = (0..KEYFRAMES)
        .filter(|&r| {
            let x = collab::blob_to_tensor(&frames.table().column(0).value(r)).unwrap();
            model.predict(&x).unwrap() == 0
        })
        .count();
    assert!(floral > 0 && floral < KEYFRAMES, "both outcomes occur: {floral} floral");
    let meters = db.execute("SELECT sum(meter) FROM fabric").unwrap().table().column(0).f64_at(0);
    let expected = meters * floral as f64;
    let got = serial.table.column(0).f64_at(0);
    assert!((got - expected).abs() <= 1e-9 * expected.abs(), "{got} vs native {expected}");

    let [(_, p1), (_, p2), (_, p8)] = &outcomes[..] else { unreachable!() };
    assert_tables_agree(&p1.table, &p2.table, 1e-9, "p=2 vs p=1");
    assert_tables_agree(&p1.table, &p8.table, 1e-9, "p=8 vs p=1");
    assert_tables_agree(&p2.table, &p8.table, 0.0, "p=8 vs p=2");
}

#[test]
fn four_strategies_run_concurrently_on_one_engine() {
    use collab::{CollabEngine, QueryType, StrategyKind};
    use workload::{build_dataset, build_repo, DatasetConfig, RepoConfig};

    let queries: Vec<String> =
        [QueryType::Type1, QueryType::Type2, QueryType::Type3, QueryType::Type4]
            .into_iter()
            .map(|t| workload::queries::template(t, 0.1, "").sql)
            .collect();
    let shape = vec![1usize, 8, 8];
    let repo = build_repo(&RepoConfig {
        keyframe_shape: shape.clone(),
        histogram_samples: 16,
        ..Default::default()
    });
    for parallelism in [1usize, 2, 8] {
        let db = Arc::new(
            Database::builder()
                .exec_config(minidb::exec::ExecConfig {
                    parallelism,
                    morsel_rows: 16,
                    ..Default::default()
                })
                .build(),
        );
        let dataset =
            DatasetConfig { video_rows: 100, keyframe_shape: shape.clone(), ..Default::default() };
        build_dataset(&db, &dataset).unwrap();
        let engine = CollabEngine::new(db, Arc::clone(&repo));
        let run = |kind: StrategyKind, sql: &str| {
            let out = engine
                .execute(sql, kind)
                .unwrap_or_else(|e| panic!("{} failed on {sql}: {e}", kind.label()));
            (out.table, out.sim.inference_flops)
        };
        let serial: Vec<Vec<(minidb::Table, u64)>> = StrategyKind::all()
            .into_iter()
            .map(|kind| queries.iter().map(|sql| run(kind, sql)).collect())
            .collect();
        let start = Barrier::new(StrategyKind::all().len());
        std::thread::scope(|s| {
            for (k, kind) in StrategyKind::all().into_iter().enumerate() {
                let (run, queries, serial, start) = (&run, &queries, &serial, &start);
                s.spawn(move || {
                    start.wait();
                    for (q, sql) in queries.iter().enumerate() {
                        let (table, flops) = run(kind, sql);
                        let ctx = format!("p={parallelism} {} concurrent: {sql}", kind.label());
                        assert_tables_agree(&serial[k][q].0, &table, 0.0, &ctx);
                        assert_eq!(flops, serial[k][q].1, "{ctx}: inference flops");
                    }
                });
            }
        });
    }
}

#[test]
fn sessions_keep_same_named_temp_tables_and_their_statistics_apart() {
    // Two barrier-started sessions each create a TEMP table `t` with a
    // different number of distinct keys, then EXPLAIN a GROUP BY over it:
    // each estimate must be its own table's exact distinct count.
    const ROWS: i64 = 2000;
    let db = Database::new();
    for (name, distinct) in [("few", 7i64), ("many", 300)] {
        let table = minidb::Table::new(
            minidb::Schema::new(vec![minidb::Field::new("k", DataType::Int64)]),
            vec![minidb::Column::Int64((0..ROWS).map(|i| i % distinct).collect())],
        )
        .unwrap();
        db.catalog().create_table(name, table, false).unwrap();
    }
    let estimate = |plan: &str| -> f64 {
        let top = plan.lines().next().unwrap();
        let rows = top.split("rows≈").nth(1).and_then(|r| r.split(',').next());
        rows.and_then(|r| r.parse().ok()).unwrap_or_else(|| panic!("no estimate in {top}"))
    };
    for round in 0..20 {
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for (source, distinct) in [("few", 7.0), ("many", 300.0)] {
                let (db, start) = (&db, &start);
                s.spawn(move || {
                    let session = db.session();
                    start.wait();
                    session
                        .execute(&format!("CREATE TEMP TABLE t AS SELECT k FROM {source}"))
                        .unwrap();
                    for _ in 0..5 {
                        let plan =
                            session.explain("SELECT k, count(*) AS n FROM t GROUP BY k").unwrap();
                        assert_eq!(estimate(&plan), distinct, "round {round} ({source}):\n{plan}");
                    }
                });
            }
        });
        assert!(db.catalog().table("t").is_none(), "TEMP tables end with their session");
    }
}
