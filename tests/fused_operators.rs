//! Integration tests for the fused join–aggregate operator.
//!
//! The contract: fusion changes *how* a group-by over an equi join runs —
//! the (pixel × weight) intermediate is never materialized — never *what
//! comes out*. Fused plans must be bit-identical to the forced-unfused
//! pair at every parallelism level, across the SQL corpus and all four
//! collaboration strategies; every shape but the conv grid's stays the
//! unfused pair, and so calls its UDFs exactly as often.
//!
//! All fixture values are dyadic rationals (x.5 / x.25), so float
//! aggregation is exact under any morsel decomposition and "identical"
//! really means bit-identical, not approximately equal. The one
//! non-dyadic fixture is compared at parallelism 1, where both plans fold
//! a single range in the same order.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use collab::{CollabEngine, QueryType, StrategyKind};
use minidb::optimizer::OptimizerConfig;
use minidb::{Column, Database, Field, Schema, Table, Value};
use workload::{build_dataset, build_repo, DatasetConfig, RepoConfig};

/// Exact cell-by-cell comparison, floats by their bits: `-0.0` differs
/// from `0.0`, and a NaN equals a NaN with the same payload.
fn assert_tables_identical(reference: &minidb::Table, got: &minidb::Table, ctx: &str) {
    assert_eq!(reference.num_rows(), got.num_rows(), "{ctx}: row count");
    assert_eq!(reference.num_columns(), got.num_columns(), "{ctx}: column count");
    for c in 0..reference.num_columns() {
        for r in 0..reference.num_rows() {
            let (want, have) = (reference.column(c).value(r), got.column(c).value(r));
            let same = match (&want, &have) {
                (Value::Float64(a), Value::Float64(b)) => a.to_bits() == b.to_bits(),
                _ => want == have,
            };
            assert!(same, "{ctx}: col {c} row {r}: {want:?} vs {have:?}");
        }
    }
}

/// A feature-map / kernel pair in the DL2SQL conv layout.
fn fixture_db(parallelism: usize, fuse: bool) -> Database {
    let db = Database::builder()
        .exec_config(minidb::exec::ExecConfig {
            parallelism,
            morsel_rows: 16,
            plan_cache_capacity: 0,
            ..Default::default()
        })
        .optimizer_config(OptimizerConfig { fuse_join_aggregates: fuse, ..Default::default() })
        .build();
    db.execute_script(
        "CREATE TABLE fm (MatrixID Int64, OrderID Int64, Value Float64); \
         CREATE TABLE kernel (KernelID Int64, OrderID Int64, Value Float64);",
    )
    .unwrap();
    let mut fm = Vec::new();
    for m in 0..48i64 {
        for o in 0..9i64 {
            fm.push(format!("({m}, {o}, {}.5)", (m * 31 + o * 7) % 19 - 9));
        }
    }
    db.execute(&format!("INSERT INTO fm VALUES {}", fm.join(","))).unwrap();
    let mut kr = Vec::new();
    for k in 0..6i64 {
        for o in 0..9i64 {
            kr.push(format!("({k}, {o}, {}.25)", (k * 13 + o * 3) % 11 - 5));
        }
    }
    db.execute(&format!("INSERT INTO kernel VALUES {}", kr.join(","))).unwrap();
    db
}

/// Queries of the grid's shape, which fuse: every aggregate is
/// `SUM(f64 × f64)` with a factor per join side, at most two `Int64` keys.
const FUSABLE_CORPUS: &[&str] = &[
    // The compiled conv layer shape (paper Q1).
    "SELECT B.KernelID AS KernelID, A.MatrixID AS TupleID, SUM(A.Value * B.Value) AS Value \
     FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID \
     GROUP BY B.KernelID, A.MatrixID ORDER BY KernelID, TupleID",
    // Comma join + WHERE equality, the product's operands swapped.
    "SELECT A.MatrixID AS m, SUM(B.Value * A.Value) AS s FROM fm A, kernel B \
     WHERE A.OrderID = B.OrderID GROUP BY A.MatrixID ORDER BY m",
    // Global aggregate over a join: no group keys at all.
    "SELECT SUM(A.Value * B.Value) AS dot FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID",
    // Two equi-key columns.
    "SELECT B.KernelID AS k, SUM(A.Value * B.Value) AS s FROM fm A, kernel B \
     WHERE A.OrderID = B.OrderID AND A.MatrixID = B.KernelID GROUP BY B.KernelID ORDER BY k",
];

/// Shapes the rewrite must refuse: results still match, plans stay unfused.
const FALLBACK_CORPUS: &[&str] = &[
    // Comma join + WHERE equality (the pooling-with-mapping shape): a
    // single-side SUM and a COUNT(*).
    "SELECT A.MatrixID AS m, SUM(B.Value) AS s, COUNT(*) AS n FROM fm A, kernel B \
     WHERE A.OrderID = B.OrderID GROUP BY A.MatrixID ORDER BY m",
    // Every other decomposable aggregate at once, single group key.
    "SELECT B.KernelID AS k, COUNT(*) AS n, SUM(A.Value) AS s, AVG(A.Value * B.Value) AS a, \
     MIN(B.Value) AS lo, MAX(A.Value) AS hi \
     FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID GROUP BY B.KernelID ORDER BY k",
    // A product next to a COUNT(*), no group keys.
    "SELECT SUM(A.Value * B.Value) AS dot, COUNT(*) AS pairs \
     FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID",
    // Two equi-key columns, a single-side SUM.
    "SELECT B.KernelID AS k, SUM(A.Value) AS s FROM fm A, kernel B \
     WHERE A.OrderID = B.OrderID AND A.MatrixID = B.KernelID GROUP BY B.KernelID ORDER BY k",
    // An Int64 product.
    "SELECT B.KernelID AS k, SUM(A.MatrixID * B.KernelID) AS s \
     FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID GROUP BY B.KernelID ORDER BY k",
    // Non-equi residual on the join.
    "SELECT B.KernelID AS k, SUM(A.Value) AS s FROM fm A, kernel B \
     WHERE A.OrderID = B.OrderID AND A.Value > B.Value GROUP BY B.KernelID ORDER BY k",
    // Non-decomposable aggregate (Welford needs the materialized rows).
    "SELECT B.KernelID AS k, stddevSamp(A.Value * B.Value) AS s \
     FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID GROUP BY B.KernelID ORDER BY k",
    // DISTINCT aggregates do not decompose into mergeable partials.
    "SELECT B.KernelID AS k, COUNT(DISTINCT A.MatrixID) AS n \
     FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID GROUP BY B.KernelID ORDER BY k",
    // Argument straddles both sides without being a product.
    "SELECT B.KernelID AS k, SUM(A.Value + B.Value) AS s \
     FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID GROUP BY B.KernelID ORDER BY k",
];

#[test]
fn fused_matches_unfused_bit_for_bit_over_sql_corpus() {
    for parallelism in [1usize, 2, 8] {
        let fused = fixture_db(parallelism, true);
        let unfused = fixture_db(parallelism, false);
        for sql in FUSABLE_CORPUS.iter().chain(FALLBACK_CORPUS) {
            let reference = unfused
                .execute(sql)
                .unwrap_or_else(|e| panic!("unfused p={parallelism} failed: {e}\n{sql}"));
            let got = fused
                .execute(sql)
                .unwrap_or_else(|e| panic!("fused p={parallelism} failed: {e}\n{sql}"));
            assert_tables_identical(
                reference.table(),
                got.table(),
                &format!("p={parallelism}: {sql}"),
            );
        }
    }
}

/// Statements whose product factor calls `tally`, a UDF counting its
/// calls: they stay unfused, so the UDF runs once per joined row, as in
/// the unfused plan, and never over rows the join drops.
const UDF_CORPUS: &[&str] = &[
    "SELECT B.KernelID AS k, SUM(tally(A.Value) * B.Value) AS s \
     FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID \
     WHERE B.OrderID < 4 GROUP BY B.KernelID ORDER BY k",
    "SELECT SUM(A.Value * B.Value) AS dot, COUNT(tally(A.Value) > 0.0) AS n \
     FROM fm A, kernel B WHERE A.OrderID = B.OrderID AND A.OrderID < 3",
];

#[test]
fn udf_factors_stay_unfused_and_call_the_udf_as_often() {
    let calls = |fuse: bool| {
        let db = fixture_db(1, fuse);
        let tally = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&tally);
        db.register_udf(minidb::ScalarUdf::new(
            "tally",
            vec![minidb::DataType::Float64],
            minidb::DataType::Float64,
            move |args| {
                counter.fetch_add(1, Ordering::Relaxed);
                Ok(Value::Float64(args[0].as_f64()? * 2.0))
            },
        ));
        UDF_CORPUS
            .iter()
            .map(|sql| {
                let plan = db.explain(sql).unwrap();
                assert!(!plan.contains("JoinAggregate"), "a UDF factor must not fuse:\n{plan}");
                let before = tally.load(Ordering::Relaxed);
                let table = db.execute(sql).unwrap().table().clone();
                (table, tally.load(Ordering::Relaxed) - before)
            })
            .collect::<Vec<_>>()
    };
    let (fused, unfused) = (calls(true), calls(false));
    for ((sql, (got, n_fused)), (want, n_unfused)) in UDF_CORPUS.iter().zip(fused).zip(unfused) {
        assert_tables_identical(&want, &got, sql);
        assert_eq!(n_fused, n_unfused, "UDF calls, fusion on vs off: {sql}");
        assert!(n_fused > 0, "the UDF ran: {sql}");
    }
}

#[test]
fn explain_names_the_fused_operator_exactly_when_it_fires() {
    let fused = fixture_db(1, true);
    let unfused = fixture_db(1, false);
    for sql in FUSABLE_CORPUS {
        let plan = fused.explain(sql).unwrap();
        assert!(plan.contains("JoinAggregate"), "should fuse:\n{sql}\n{plan}");
        let plan = unfused.explain(sql).unwrap();
        assert!(!plan.contains("JoinAggregate"), "knob off must not fuse:\n{sql}\n{plan}");
    }
    for sql in FALLBACK_CORPUS {
        let plan = fused.explain(sql).unwrap();
        assert!(!plan.contains("JoinAggregate"), "must fall back:\n{sql}\n{plan}");
    }
    // Aggregates with no join under them never fuse.
    let plan = fused.explain("SELECT MatrixID, SUM(Value) AS s FROM fm GROUP BY MatrixID").unwrap();
    assert!(!plan.contains("JoinAggregate"), "no join, nothing to fuse:\n{plan}");
}

// ---------------------------------------------------------------------------
// The accumulator grid: shapes its fold must get right
// ---------------------------------------------------------------------------

/// Feature-map matrices, orders and kernels of the grid fixtures.
const MATRICES: i64 = 48;
const ORDERS: i64 = 9;
const KERNELS: i64 = 6;

/// One `(key, OrderID, Value)` row of a feature map or kernel.
type Row = (i64, i64, f64);

/// Registers `rows` as table `name` with columns `(key, OrderID, Value)`.
fn put_rows(db: &Database, name: &str, key: &str, rows: &[Row]) {
    let schema = Schema::new(vec![
        Field::new(key, minidb::DataType::Int64),
        Field::new("OrderID", minidb::DataType::Int64),
        Field::new("Value", minidb::DataType::Float64),
    ]);
    let cols = vec![
        Column::Int64(rows.iter().map(|r| r.0).collect()),
        Column::Int64(rows.iter().map(|r| r.1).collect()),
        Column::Float64(rows.iter().map(|r| r.2).collect()),
    ];
    db.catalog().create_table(name, Table::new(schema, cols).unwrap(), true).unwrap();
}

/// A database holding feature map `fm` and kernel `kernel`.
fn grid_db(parallelism: usize, fuse: bool, fm: &[Row], kernel: &[Row]) -> Database {
    let db = Database::builder()
        .exec_config(minidb::exec::ExecConfig {
            parallelism,
            morsel_rows: 16,
            plan_cache_capacity: 0,
            ..Default::default()
        })
        .optimizer_config(OptimizerConfig { fuse_join_aggregates: fuse, ..Default::default() })
        .build();
    put_rows(&db, "fm", "MatrixID", fm);
    put_rows(&db, "kernel", "KernelID", kernel);
    db
}

/// `keys` × [`ORDERS`] rows in (key, order) order, valued by `value`.
fn conv_rows(keys: i64, value: impl Fn(i64, i64) -> f64) -> Vec<Row> {
    let mut rows = Vec::new();
    for k in 0..keys {
        for o in 0..ORDERS {
            rows.push((k, o, value(k, o)));
        }
    }
    rows
}

/// A dyadic value: sums of these are exact in any order.
fn dyadic(k: i64, o: i64, salt: i64) -> f64 {
    ((k * 31 + o * 7 + salt * 13) % 19 - 9) as f64 + 0.25 * salt as f64
}

/// A value whose sums round differently in another order.
fn non_dyadic(k: i64, o: i64, salt: i64) -> f64 {
    ((k * 37 + o * 11 + salt * 5) % 101) as f64 / 7.3 - 6.1
}

/// Fixture variants over `value`: (name, feature map, kernel).
fn grid_fixtures(value: fn(i64, i64, i64) -> f64) -> Vec<(&'static str, Vec<Row>, Vec<Row>)> {
    let fm = conv_rows(MATRICES, |m, o| value(m, o, 1));
    let kernel = conv_rows(KERNELS, |k, o| value(k, o, 2));
    // Kernel rows out of (OrderID, KernelID) order: one probe row's
    // matches no longer land on consecutive group slots.
    let mut shuffled = kernel.clone();
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    for i in (1..shuffled.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        shuffled.swap(i, (state >> 33) as usize % (i + 1));
    }
    // Repeated (KernelID, OrderID) rows: one probe row adds two terms to
    // one group, in build insertion order.
    let mut duplicated = kernel.clone();
    duplicated.insert(10, (1, 1, value(7, 7, 3)));
    duplicated.push((4, 0, value(8, 8, 3)));
    duplicated.push((4, 0, value(9, 9, 3)));
    vec![
        ("in order", fm.clone(), kernel),
        ("shuffled kernel", fm.clone(), shuffled),
        ("duplicated kernel rows", fm, duplicated),
    ]
}

/// IEEE special values: `-0.0` feature-map values, a kernel of `-0.0`
/// weights and one `inf`, `-inf` or NaN weight in three others. Matrix 5
/// is all positive, so its group with the `-0.0` kernel adds only `-0.0`
/// products and must come out `+0.0`, the sum from `0.0`. Every NaN is
/// the platform's default one (what `inf - inf` and `0 · inf` give), so
/// no sum depends on which NaN came first.
fn special_fixture() -> (Vec<Row>, Vec<Row>) {
    let (inf, neg_inf) = std::hint::black_box((f64::INFINITY, f64::NEG_INFINITY));
    let nan = inf + neg_inf;
    assert!(nan.is_nan());
    let fm = conv_rows(MATRICES, |m, o| match m {
        5 => 1.5,
        _ if (m + o) % 5 == 0 => -0.0,
        _ => dyadic(m, o, 1),
    });
    let kernel = conv_rows(KERNELS, |k, o| match (k, o) {
        (0, 2) => inf,
        (1, 4) => neg_inf,
        (2, 6) => nan,
        (3, _) => -0.0,
        _ => dyadic(k, o, 2),
    });
    (fm, kernel)
}

/// Statements of the grid's shape: every aggregate is `SUM(f64 × f64)`
/// with a factor on each side, over dense group keys. No ORDER BY, so the
/// first-occurrence group order is compared too.
const GRID_CORPUS: &[&str] = &[
    // The conv shape.
    "SELECT B.KernelID AS k, A.MatrixID AS m, SUM(A.Value * B.Value) AS v \
     FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID",
    // The product's operands the other way round.
    "SELECT B.KernelID AS k, A.MatrixID AS m, SUM(B.Value * A.Value) AS v \
     FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID",
    // Two products: two planes of the grid.
    "SELECT A.MatrixID AS m, B.KernelID AS k, SUM(A.Value * B.Value) AS v, \
     SUM(B.Value * A.Value) AS w \
     FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID GROUP BY A.MatrixID, B.KernelID",
    // The smaller input on the left: the build is the left side.
    "SELECT B.KernelID AS k, A.MatrixID AS m, SUM(A.Value * B.Value) AS v \
     FROM kernel B INNER JOIN fm A ON B.OrderID = A.OrderID GROUP BY B.KernelID, A.MatrixID",
    // Both group keys on the probe side: each run adds into one slot.
    "SELECT A.MatrixID AS m, A.OrderID AS o, SUM(A.Value * B.Value) AS v \
     FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID GROUP BY A.MatrixID, A.OrderID",
    // A build-side key only.
    "SELECT B.KernelID AS k, SUM(A.Value * B.Value) AS v \
     FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID GROUP BY B.KernelID",
    // A keyless global sum.
    "SELECT SUM(A.Value * B.Value) AS dot FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID",
];

/// Accumulator grids `db` has folded into.
fn grid_folds(db: &Database) -> u64 {
    let reg = db.metrics_snapshot();
    match reg.get("minidb_key_path_total", &[("path", "grid")]).map(|m| &m.value) {
        Some(obs::MetricValue::Counter(v)) => *v,
        other => panic!("minidb_key_path_total{{path=grid}}: {other:?}"),
    }
}

/// Runs every grid statement fused and unfused over `fm` ⋈ `kernel` at
/// each parallelism: the fused run takes the grid and matches bit for bit.
fn assert_grid_matches_unfused(name: &str, fm: &[Row], kernel: &[Row], parallelism: &[usize]) {
    for &p in parallelism {
        let fused = grid_db(p, true, fm, kernel);
        let unfused = grid_db(p, false, fm, kernel);
        for sql in GRID_CORPUS {
            let ctx = format!("{name} p={p}: {sql}");
            let reference = unfused.execute(sql).unwrap_or_else(|e| panic!("unfused {ctx}: {e}"));
            let before = grid_folds(&fused);
            let got = fused.execute(sql).unwrap_or_else(|e| panic!("fused {ctx}: {e}"));
            assert_eq!(grid_folds(&fused) - before, 1, "{ctx}: folds into the grid");
            assert_eq!(grid_folds(&unfused), 0, "{ctx}: the unfused plan has no grid");
            assert_tables_identical(reference.table(), got.table(), &ctx);
        }
    }
}

#[test]
fn grid_fold_matches_unfused_on_every_shape() {
    for (name, fm, kernel) in grid_fixtures(dyadic) {
        assert_grid_matches_unfused(name, &fm, &kernel, &[1, 2, 8]);
    }
    let (fm, kernel) = special_fixture();
    assert_grid_matches_unfused("special values", &fm, &kernel, &[1, 2, 8]);
}

#[test]
fn grid_fold_adds_in_the_unfused_order() {
    // Non-dyadic values round differently under any reassociation. At
    // parallelism 1 both plans fold one range, so their sums agree to the
    // bit only if every group adds the same terms in the same order from
    // one accumulator.
    for (name, fm, kernel) in grid_fixtures(non_dyadic) {
        assert_grid_matches_unfused(&format!("non-dyadic, {name}"), &fm, &kernel, &[1]);
    }
}

#[test]
fn fused_profiler_counters_report_late_materialization() {
    let db = fixture_db(1, true);
    db.tracer().enable();
    let sql = FUSABLE_CORPUS[0];
    let out = db.execute(sql).unwrap();
    let mut ops = HashMap::new();
    out.trace().expect("statement was traced").fold_operators(&mut ops);
    let stats = *ops.get("JoinAggregate").expect("fused operator ran");
    assert!(stats.loops >= 1);
    // Both join inputs: 48*9 feature-map rows + 6*9 kernel rows.
    assert_eq!(stats.rows_in, 48 * 9 + 6 * 9);
    // One group per (KernelID, MatrixID) pair.
    assert_eq!(stats.rows_out, out.table().num_rows() as u64);
    // 48*6 matching pairs per OrderID x 9 OrderIDs, x >= 8 bytes each.
    assert!(
        stats.bytes_not_materialized >= 48 * 6 * 9 * 8,
        "pairs folded without materialization: {stats:?}"
    );
    // The plan has no standalone Join or GroupBy left in the hot path.
    let rows_out = |name: &str| ops.get(name).map_or(0, |agg| agg.rows_out);
    assert_eq!(rows_out("Join"), 0, "join output never materialized");
    assert_eq!(rows_out("GroupBy"), 0, "group-by folded into the probe");
}

#[test]
fn profiler_attribution_stays_exclusive_with_fusion() {
    // Operator timers are exclusive (each starts after its children), so
    // their sum can never exceed the query's wall time — fused plans
    // must not double-book probe time under both Join and GroupBy.
    let db = fixture_db(1, true);
    db.tracer().enable();
    for sql in FUSABLE_CORPUS {
        let out = db.execute(sql).unwrap();
        let tree = out.trace().expect("statement was traced");
        let total = tree.operator_exclusive_total_ns();
        let wall = tree.inclusive_ns(tree.root().expect("tree has a root"));
        assert!(total > 0, "operators were recorded: {sql}");
        assert!(total <= wall, "exclusive operator totals exceed wall time: {total} > {wall}");
    }
}

#[test]
fn compiled_conv_sql_triggers_the_rewrite() {
    // The compiler's conv layer SQL (staged fm ⋈ kernel, GROUP BY
    // (KernelID, MatrixID), SUM(A.Value * B.Value)) and its FC SQL must be
    // shaped so the fusion fires on the real DL2SQL hot path, not just the
    // test corpus — and every one of those statements folds into the
    // accumulator grid.
    let shape = [1usize, 8, 8];
    for model in
        [neuro::zoo::student(shape.to_vec(), 3, 5), neuro::zoo::resnet(4, shape.to_vec(), 3, 7)]
    {
        let name = &model.name;
        let db = Arc::new(
            Database::builder()
                .optimizer_config(OptimizerConfig::default()) // fusion on by default
                .build(),
        );
        let registry = dl2sql::NeuralRegistry::shared();
        let compiled = Arc::new(dl2sql::compile_model(&db, &registry, &model).expect("compiles"));
        let conv_and_fc = compiled
            .steps
            .iter()
            .filter(|s| matches!(s.kind, dl2sql::StepKind::Conv | dl2sql::StepKind::Fc))
            .count();
        let runner = dl2sql::Runner::new(Arc::clone(&db), Arc::clone(&registry), compiled)
            .expect("runner builds");
        // Every statement of the inference is its own traced root; collect
        // the details of their fused operators.
        let details: Arc<Mutex<Vec<String>>> = Arc::default();
        let sink = Arc::clone(&details);
        db.tracer().set_sink(Some(Arc::new(move |tree: &obs::SpanTree| {
            let fused = tree.records().iter().filter(|r| r.name == "JoinAggregate");
            sink.lock().unwrap().extend(fused.map(|r| r.detail.clone()));
        })));
        db.tracer().enable();
        runner.infer(&workload::dataset::keyframe(&shape, 5, 0)).expect("inference runs");
        let details = details.lock().unwrap();
        assert!(conv_and_fc >= 2, "{name}: the model has conv and FC layers");
        assert_eq!(
            details.len(),
            conv_and_fc,
            "{name}: one fused operator per conv/FC layer: {details:?}"
        );
        for detail in details.iter() {
            assert!(detail.ends_with("build=dense; groups=grid"), "{name}: {detail}");
        }
    }
}

#[test]
fn compiled_student_and_resnet_are_bit_identical_fused_and_unfused_at_every_parallelism() {
    // The real DL2SQL programs — conv joins on OrderID, group-bys on
    // (KernelID, MatrixID), BN and pooling group-bys — with and without
    // fusion, serially and over 64-row morsels. Float sums depend on the
    // morsel decomposition, never on the worker count or on fusion: the
    // serial runs agree to the bit, so do p = 2 and p = 8 under either
    // plan, and every run matches neuro's forward pass.
    let shape = [1usize, 8, 8];
    let input = workload::dataset::keyframe(&shape, 5, 0);
    let models =
        [neuro::zoo::student(shape.to_vec(), 3, 5), neuro::zoo::resnet(4, shape.to_vec(), 3, 7)];
    for model in &models {
        let native = model.forward(&input).expect("native forward");
        let mut bits: HashMap<(usize, bool), Vec<u64>> = HashMap::new();
        for parallelism in [1usize, 2, 8] {
            for fuse in [true, false] {
                let ctx = format!("{} p={parallelism} fuse={fuse}", model.name);
                let db = Arc::new(
                    Database::builder()
                        .exec_config(minidb::exec::ExecConfig {
                            parallelism,
                            morsel_rows: 64,
                            ..Default::default()
                        })
                        .optimizer_config(OptimizerConfig {
                            fuse_join_aggregates: fuse,
                            ..Default::default()
                        })
                        .build(),
                );
                let registry = dl2sql::NeuralRegistry::shared();
                let compiled = Arc::new(dl2sql::compile_model(&db, &registry, model).unwrap());
                let runner = dl2sql::Runner::new(Arc::clone(&db), registry, compiled).unwrap();
                let probs =
                    runner.infer(&input).unwrap_or_else(|e| panic!("{ctx}: {e}")).probabilities;
                for (p, n) in probs.iter().zip(native.data()) {
                    assert!((p - *n as f64).abs() <= 1e-3, "{ctx}: {p} vs native {n}");
                }
                bits.insert((parallelism, fuse), probs.iter().map(|p| p.to_bits()).collect());
            }
        }
        let name = &model.name;
        assert_eq!(bits[&(1, true)], bits[&(1, false)], "{name}: serial fused vs unfused");
        for fuse in [true, false] {
            assert_eq!(bits[&(2, fuse)], bits[&(8, fuse)], "{name} fuse={fuse}: p=2 vs p=8");
        }
    }
}

// ---------------------------------------------------------------------------
// All four collaboration strategies, fused vs. forced-unfused
// ---------------------------------------------------------------------------

const KEYFRAME_SHAPE: [usize; 3] = [1, 8, 8];

fn collab_db(parallelism: usize, fuse: bool) -> Arc<Database> {
    let db = Arc::new(
        Database::builder()
            .exec_config(minidb::exec::ExecConfig {
                parallelism,
                morsel_rows: 16,
                ..Default::default()
            })
            .optimizer_config(OptimizerConfig { fuse_join_aggregates: fuse, ..Default::default() })
            .build(),
    );
    build_dataset(
        &db,
        &DatasetConfig {
            video_rows: 40,
            keyframe_shape: KEYFRAME_SHAPE.to_vec(),
            ..Default::default()
        },
    )
    .unwrap();
    db
}

#[test]
fn all_strategies_match_forced_unfused_at_every_parallelism() {
    let repo = build_repo(&RepoConfig {
        keyframe_shape: KEYFRAME_SHAPE.to_vec(),
        histogram_samples: 16,
        ..Default::default()
    });
    let queries: Vec<String> =
        [QueryType::Type1, QueryType::Type2, QueryType::Type3, QueryType::Type4]
            .into_iter()
            .map(|t| workload::queries::template(t, 0.1, "").sql)
            .collect();
    for parallelism in [1usize, 2, 8] {
        let (fused_db, unfused_db) = (collab_db(parallelism, true), collab_db(parallelism, false));
        let fused_ops = count_join_aggregates(&fused_db);
        let unfused_ops = count_join_aggregates(&unfused_db);
        let fused = CollabEngine::new(fused_db, Arc::clone(&repo));
        let unfused = CollabEngine::new(unfused_db, Arc::clone(&repo));
        for kind in StrategyKind::all() {
            for sql in &queries {
                let ctx = format!("{} p={parallelism}: {sql}", kind.label());
                let reference = unfused
                    .execute(sql, kind)
                    .unwrap_or_else(|e| panic!("unfused {ctx} failed: {e}"));
                let got =
                    fused.execute(sql, kind).unwrap_or_else(|e| panic!("fused {ctx} failed: {e}"));
                assert_tables_identical(&reference.table, &got.table, &ctx);
                // Inference and device work do not depend on the plan: a
                // fused aggregate never runs an nUDF over rows the join
                // drops.
                assert_eq!(reference.sim, got.sim, "{ctx}: SimSummary");
            }
            // The forced-unfused engine really ran unfused plans — DL2SQL-OP's
            // own settings included — and the fused one fused the conv SQL.
            let label = kind.label();
            let unfused_loops =
                unfused_ops.lock().unwrap().get("JoinAggregate").map_or(0, |a| a.loops);
            assert_eq!(
                unfused_loops, 0,
                "{label} p={parallelism}: unfused engine ran JoinAggregate"
            );
            if matches!(kind, StrategyKind::Tight | StrategyKind::TightOptimized) {
                let fused_loops =
                    fused_ops.lock().unwrap().get("JoinAggregate").map_or(0, |a| a.loops);
                assert!(fused_loops >= 1, "{label} p={parallelism}: fused engine never fused");
            }
            fused_ops.lock().unwrap().clear();
        }
    }
}

/// Traces every statement `db` runs and folds the operators they used.
fn count_join_aggregates(db: &Database) -> Arc<Mutex<HashMap<String, obs::OpAgg>>> {
    let ops: Arc<Mutex<HashMap<String, obs::OpAgg>>> = Arc::default();
    let sink = Arc::clone(&ops);
    db.tracer().set_sink(Some(Arc::new(move |tree: &obs::SpanTree| {
        tree.fold_operators(&mut sink.lock().unwrap());
    })));
    db.tracer().enable();
    ops
}
