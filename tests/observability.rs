//! End-to-end observability: span trees, the exclusive-attribution
//! invariant, EXPLAIN ANALYZE, metrics export round-trips and the
//! slow-query log — across parallelism levels and all four strategies.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use collab::{CollabEngine, StrategyKind};
use dl2sql::{compile_model, NeuralRegistry};
use minidb::exec::ExecConfig;
use minidb::{Database, DefaultCostModel, Value};
use obs::{Registry, SpanKind};
use workload::{build_dataset, build_repo, DatasetConfig, RepoConfig};

/// A database with enough rows to cross the parallel threshold, a join
/// pair for the fused path, and indexes — the corpus the trace tests run.
fn corpus_db(parallelism: usize) -> Database {
    let db = Database::builder()
        .exec_config(ExecConfig {
            parallelism,
            morsel_rows: 256,
            min_parallel_rows: 128,
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
    for k in 0..4i64 {
        for o in 0..16i64 {
            kr.push(format!("({k}, {o}, {}.25)", (k * 13 + o * 3) % 7));
        }
    }
    db.execute(&format!("INSERT INTO kernel VALUES {}", kr.join(","))).unwrap();
    db
}

const CORPUS: &[&str] = &[
    // Fused join-aggregate (the paper's convolution shape).
    "SELECT MatrixID, SUM(a.Value * b.Value) AS Value \
     FROM fm a, kernel b WHERE a.OrderID = b.OrderID GROUP BY MatrixID",
    // Filter + projection over the parallel threshold.
    "SELECT MatrixID, Value * 2.0 AS v FROM fm WHERE Value > 3.0",
    // Plain aggregate.
    "SELECT COUNT(*), SUM(Value) FROM fm",
    // Join without aggregation (fallback, not fused).
    "SELECT a.MatrixID, b.KernelID FROM fm a, kernel b \
     WHERE a.OrderID = b.OrderID AND a.MatrixID < 3",
];

// ---------------------------------------------------------------------------
// Exclusive attribution: Σ operator exclusive time ≤ root wall time
// ---------------------------------------------------------------------------

#[test]
fn exclusive_attribution_invariant_across_parallelism() {
    for parallelism in [1usize, 2, 8] {
        let db = corpus_db(parallelism);
        db.tracer().enable();
        for sql in CORPUS {
            let result = db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let tree = result.trace().unwrap_or_else(|| panic!("{sql}: no trace"));
            let root = tree.root().expect("non-empty tree");
            let wall = tree.inclusive_ns(root);
            let attributed = tree.operator_exclusive_total_ns();
            assert!(
                attributed <= wall,
                "parallelism {parallelism}: Σ exclusive {attributed}ns > wall {wall}ns on {sql}\n{}",
                tree.render()
            );
            assert!(
                tree.records().iter().any(|r| r.kind == SpanKind::Operator),
                "parallelism {parallelism}: no operator spans on {sql}"
            );
        }
    }
}

#[test]
fn parallel_scans_record_morsel_workers() {
    let db = corpus_db(4);
    db.tracer().enable();
    let result = db.execute("SELECT MatrixID, Value * 2.0 AS v FROM fm WHERE Value > 3.0").unwrap();
    let tree = result.trace().unwrap();
    let mut saw_morsels = false;
    // Per row-preserving operator: its morsel batches partition its output.
    for idx in 0..tree.len() {
        let r = tree.record(idx);
        if r.kind != SpanKind::Operator || !matches!(r.name.as_str(), "Filter" | "Project") {
            continue;
        }
        let workers: Vec<_> = tree
            .children(idx)
            .iter()
            .map(|&c| tree.record(c))
            .filter(|c| c.kind == SpanKind::Worker)
            .collect();
        if workers.is_empty() {
            continue;
        }
        saw_morsels = true;
        let rows: u64 = workers.iter().map(|w| w.rows_out).sum();
        assert_eq!(rows, r.rows_out, "{} morsels partition its output:\n{}", r.name, tree.render());
    }
    assert!(saw_morsels, "no morsel worker spans:\n{}", tree.render());
}

#[test]
fn trace_absent_when_collector_disabled() {
    let db = corpus_db(1);
    let result = db.execute(CORPUS[0]).unwrap();
    assert!(result.trace().is_none());
}

// ---------------------------------------------------------------------------
// All four strategies
// ---------------------------------------------------------------------------

fn traced_engine() -> CollabEngine {
    let engine = small_engine();
    engine.db().tracer().enable();
    engine
}

fn small_engine() -> CollabEngine {
    let db = Arc::new(Database::new());
    let config =
        DatasetConfig { video_rows: 60, keyframe_shape: vec![1, 8, 8], ..Default::default() };
    build_dataset(&db, &config).expect("dataset builds");
    let repo = build_repo(&RepoConfig {
        keyframe_shape: config.keyframe_shape.clone(),
        patterns: config.patterns,
        histogram_samples: 16,
        ..Default::default()
    });
    CollabEngine::new(db, repo)
}

#[test]
fn strategies_emit_traced_outcomes_with_cache_deltas() {
    let engine = traced_engine();
    let sql = "SELECT sum(meter) FROM FABRIC F, Video V \
               WHERE F.transID = V.transID AND nUDF_classify(V.keyframe) = 'Floral Pattern'";
    for kind in StrategyKind::all() {
        let out =
            engine.execute(sql, kind).unwrap_or_else(|e| panic!("{} failed: {e}", kind.label()));
        let tree = out.trace.as_ref().unwrap_or_else(|| panic!("{}: no trace", kind.label()));
        let root = tree.root().expect("non-empty tree");
        assert_eq!(tree.record(root).name, format!("strategy:{}", kind.label()));
        // Wall covers every operator's exclusive time under this root too.
        assert!(tree.operator_exclusive_total_ns() <= tree.inclusive_ns(root), "{}", kind.label());
        // Breakdown/cache/transfer summaries ride along as events.
        for event in ["breakdown", "cache", "transfer"] {
            assert!(tree.find(event).is_some(), "{}: missing {event} event", kind.label());
        }
    }
    // The engine accumulated per-strategy series.
    let reg = engine.metrics_snapshot();
    for kind in StrategyKind::all() {
        let m = reg
            .get("collab_strategy_runs_total", &[("strategy", kind.label())])
            .unwrap_or_else(|| panic!("{}: no runs counter", kind.label()));
        assert_eq!(m.value, obs::MetricValue::Counter(1));
    }
}

#[test]
fn tight_optimized_reports_inference_cache_hits() {
    let engine = traced_engine();
    engine.set_inference_cache_capacity(1024);
    let sql = "SELECT patternID, count(*) FROM FABRIC F, Video V \
               WHERE F.transID = V.transID AND nUDF_detect(V.keyframe) = TRUE \
               GROUP BY patternID";
    let first = engine.execute(sql, StrategyKind::TightOptimized).unwrap();
    let second = engine.execute(sql, StrategyKind::TightOptimized).unwrap();
    assert!(first.cache.inference.misses > 0, "first run misses: {:?}", first.cache);
    assert!(second.cache.inference.hits > 0, "second run hits: {:?}", second.cache);
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE
// ---------------------------------------------------------------------------

fn plan_lines(db: &Database, sql: &str) -> Vec<String> {
    let result = db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let table = result.table();
    assert_eq!(table.schema().field(0).name, "plan");
    (0..table.num_rows())
        .map(|r| match table.column(0).value(r) {
            Value::Utf8(s) => s,
            other => panic!("plan cell is {other:?}"),
        })
        .collect()
}

/// Strips the run-variable fields (timings, parallelism ratios) so two
/// runs of the same statement can be compared structurally.
fn mask_timing(line: &str) -> String {
    line.split_whitespace()
        .map(|tok| {
            for prefix in ["time=", "self=", "par=", "worker="] {
                if let Some(rest) = tok.strip_prefix(prefix) {
                    let _ = rest;
                    return format!("{prefix}*");
                }
            }
            tok.to_string()
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn explain_analyze_is_deterministic_modulo_timing() {
    let db = corpus_db(1);
    for sql in CORPUS {
        let ea = format!("EXPLAIN ANALYZE {sql}");
        let first: Vec<String> = plan_lines(&db, &ea).iter().map(|l| mask_timing(l)).collect();
        let second: Vec<String> = plan_lines(&db, &ea).iter().map(|l| mask_timing(l)).collect();
        assert_eq!(first, second, "masked EXPLAIN ANALYZE differs across runs for {sql}");
        assert!(first.iter().any(|l| l.contains("rows=")), "no operator line: {first:?}");
        assert!(
            first.last().unwrap().starts_with("Execution:"),
            "missing execution summary: {first:?}"
        );
    }
}

#[test]
fn explain_analyze_reports_actual_rows_and_phases() {
    let db = corpus_db(2);
    let lines = plan_lines(
        &db,
        "EXPLAIN ANALYZE SELECT MatrixID, SUM(a.Value * b.Value) AS Value \
         FROM fm a, kernel b WHERE a.OrderID = b.OrderID GROUP BY MatrixID",
    );
    let text = lines.join("\n");
    for phase in ["plan", "execute", "build_logical", "optimize"] {
        assert!(text.contains(phase), "missing {phase} phase:\n{text}");
    }
    // The fused operator reports its build/probe split and row counts.
    assert!(text.contains("JoinAggregate"), "no fused operator:\n{text}");
    assert!(text.contains("rows=64"), "64 output groups expected:\n{text}");
    assert!(lines.last().unwrap().contains("64 rows"), "execution summary rows");
}

#[test]
fn explain_analyze_works_on_compiled_conv_sql() {
    let db = Arc::new(Database::new());
    let registry = Arc::new(NeuralRegistry::new());
    let model = neuro::zoo::student(vec![1, 8, 8], 3, 5);
    let compiled = compile_model(&db, &registry, &model).unwrap();
    // Stage the program's state up to its first conv step in the shared
    // catalog (a runner keeps each inference's tables to itself).
    let input = neuro::Tensor::zeros(vec![1, 8, 8]);
    dl2sql::storage::load_state_table(&db, db.catalog(), &registry, &compiled.input_table, &input)
        .unwrap();
    let conv_at = compiled
        .steps
        .iter()
        .position(|s| matches!(s.kind, dl2sql::StepKind::Conv))
        .expect("student model has a conv step");
    for sql in compiled.steps[..conv_at].iter().flat_map(|s| &s.statements) {
        db.execute(sql).unwrap();
    }
    let conv = &compiled.steps[conv_at];
    let mut analyzed = 0;
    for sql in &conv.statements {
        // DROP/CREATE statements mutate state; re-analyzing them must
        // still parse, execute and yield a rendered tree.
        let lines = plan_lines(&db, &format!("EXPLAIN ANALYZE {sql}"));
        assert!(lines.last().unwrap().starts_with("Execution:"), "{sql}");
        analyzed += 1;
    }
    assert!(analyzed > 0);
}

#[test]
fn explain_analyze_roundtrips_through_the_printer() {
    let stmt =
        minidb::sql::parse_statement("EXPLAIN ANALYZE SELECT COUNT(*) FROM fm WHERE Value > 1.0")
            .unwrap();
    let printed = minidb::sql::statement_to_sql(&stmt);
    assert_eq!(minidb::sql::parse_statement(&printed).unwrap(), stmt);
}

// ---------------------------------------------------------------------------
// Metrics registry export
// ---------------------------------------------------------------------------

#[test]
fn metrics_snapshot_roundtrips_prometheus_and_json() {
    let db = corpus_db(2);
    for sql in CORPUS {
        db.execute(sql).unwrap();
    }
    let reg = db.metrics_snapshot();
    assert!(reg.get("minidb_query_latency_seconds", &[]).is_some());
    assert!(reg.metrics().iter().any(|m| m.name == "minidb_operator_invocations_total"));

    // The exposition format groups series by name, so compare canonical
    // re-serializations rather than registry order.
    let text = reg.to_prometheus();
    let back = Registry::from_prometheus(&text).expect("parses its own exposition");
    assert_eq!(back.to_prometheus(), text, "Prometheus text round-trip");
    assert_eq!(back.len(), reg.len());

    let json = reg.to_json();
    let back = Registry::from_json(&json).expect("parses its own JSON");
    assert_eq!(back.to_json(), json, "JSON round-trip");
    assert_eq!(back, reg, "JSON preserves registry order");
}

#[test]
fn engine_metrics_include_cache_levels() {
    let engine = traced_engine();
    let sql = "SELECT count(*) FROM Video V WHERE nUDF_detect(V.keyframe) = TRUE";
    engine.execute(sql, StrategyKind::Tight).unwrap();
    let reg = engine.metrics_snapshot();
    for name in [
        "collab_inference_cache_hits_total",
        "collab_inference_cache_misses_total",
        "dl2sql_artifact_cache_hits_total",
        "dl2sql_artifact_cache_misses_total",
        "minidb_plan_cache_hits_total",
    ] {
        assert!(reg.get(name, &[]).is_some(), "missing {name}");
    }
    let text = reg.to_prometheus();
    assert_eq!(Registry::from_prometheus(&text).unwrap().to_prometheus(), text);
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

#[test]
fn slow_query_hook_fires_without_enabling_the_collector() {
    let db = corpus_db(1);
    {
        let mut cfg = db.exec_config();
        cfg.slow_query_threshold = Some(Duration::ZERO);
        db.swap_exec_config(cfg);
    }
    let captured: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&captured);
    db.set_slow_query_hook(Arc::new(move |tree| {
        sink.lock().unwrap().push(tree.render());
    }));

    let result = db.execute(CORPUS[0]).unwrap();
    // Forced capture also surfaces the tree on the result.
    assert!(result.trace().is_some());
    let logs = captured.lock().unwrap();
    assert!(!logs.is_empty(), "hook never fired");
    assert!(logs[0].contains("query"), "rendered tree:\n{}", logs[0]);

    // Raising the threshold silences the log again.
    drop(logs);
    let mut cfg = db.exec_config();
    cfg.slow_query_threshold = Some(Duration::from_secs(3600));
    db.swap_exec_config(cfg);
    db.execute(CORPUS[1]).unwrap();
    assert_eq!(captured.lock().unwrap().len(), 1);
}

// ---------------------------------------------------------------------------
// Planner statistics are computed on demand, one column at a time
// ---------------------------------------------------------------------------

fn ndv_computed(db: &Database) -> u64 {
    counter(db, "minidb_stats_ndv_computed_total")
}

fn stats_db(model: DefaultCostModel) -> Database {
    let db = Database::builder().cost_model(Arc::new(model)).build();
    db.execute_script(
        "CREATE TABLE a (k Int64, v Float64, s Utf8); CREATE TABLE b (k Int64, w Int64); \
         INSERT INTO a VALUES (1, 0.5, 'x'), (2, 1.5, 'y'), (2, 2.5, 'z'); \
         INSERT INTO b VALUES (1, 10), (1, 11), (3, 12);",
    )
    .unwrap();
    db
}

#[test]
fn planner_statistics_hash_only_the_columns_estimates_read() {
    let join = "SELECT count(*) FROM a, b WHERE a.k = b.k";
    let group = "SELECT k, count(*) FROM a GROUP BY k";

    // Row counts come from the catalog: scans hash no column.
    let db = stats_db(DefaultCostModel::default());
    assert_eq!(ndv_computed(&db), 0);
    db.estimate("SELECT k, v, s FROM a WHERE v > 1.0").unwrap();
    db.execute("SELECT k, v, s FROM a WHERE v > 1.0").unwrap();
    assert_eq!(ndv_computed(&db), 0, "scan-only plans");

    // A 2-way equi-join reads exactly its two key columns.
    db.estimate(join).unwrap();
    assert_eq!(ndv_computed(&db), 2, "a.k and b.k");
    // Re-planning with no intervening write is served from the cache,
    // and GROUP BY a.k reuses a.k's entry.
    db.estimate(join).unwrap();
    db.execute(join).unwrap();
    db.estimate(group).unwrap();
    assert_eq!(ndv_computed(&db), 2, "no write, no recompute");
    // A write to `b` recomputes only b.k.
    db.execute("INSERT INTO b VALUES (2, 13)").unwrap();
    db.estimate(join).unwrap();
    assert_eq!(ndv_computed(&db), 3, "only the written table's key");

    // Without column statistics nothing is ever hashed.
    let db = stats_db(DefaultCostModel::clickhouse_like());
    for sql in [join, group] {
        db.estimate(sql).unwrap();
        db.execute(sql).unwrap();
    }
    assert_eq!(ndv_computed(&db), 0, "clickhouse_like computes no NDV");
}

// ---------------------------------------------------------------------------
// One statement driver: strategy queries, execute_plan and EXPLAIN ANALYZE
// are scoped, traced and accounted for like any statement
// ---------------------------------------------------------------------------

const STRATEGY_SQL: &str = "SELECT sum(meter) FROM FABRIC F, Video V \
     WHERE F.transID = V.transID AND nUDF_classify(V.keyframe) = 'Floral Pattern'";

/// The strategies whose own collaborative query is a `run_query` call
/// with no DL2SQL runner underneath it.
const DRIVER_STRATEGIES: [StrategyKind; 2] = [StrategyKind::LooseUdf, StrategyKind::Independent];

/// Whether a tree is a statement's own (root `query`) and scans `video`.
fn scans_video(tree: &obs::SpanTree) -> bool {
    let root = tree.root().map(|r| tree.record(r).name.as_str());
    root == Some("query")
        && tree.records().iter().any(|r| {
            r.kind == SpanKind::Operator
                && r.name == "Scan"
                && r.detail.to_ascii_lowercase().contains("scan: video")
        })
}

fn latency_count(db: &Database) -> u64 {
    match db.metrics_snapshot().get("minidb_query_latency_seconds", &[]).map(|m| &m.value) {
        Some(obs::MetricValue::Histogram(h)) => h.count,
        other => panic!("minidb_query_latency_seconds: {other:?}"),
    }
}

fn counter(db: &Database, name: &str) -> u64 {
    match db.metrics_snapshot().get(name, &[]).map(|m| &m.value) {
        Some(obs::MetricValue::Counter(n)) => *n,
        other => panic!("{name}: {other:?}"),
    }
}

#[test]
fn strategy_queries_reach_the_slow_query_hook_with_the_collector_off() {
    let engine = small_engine();
    let db = engine.db();
    let mut cfg = db.exec_config();
    cfg.slow_query_threshold = Some(Duration::ZERO);
    db.swap_exec_config(cfg);
    let hooked: Arc<Mutex<Vec<obs::SpanTree>>> = Arc::default();
    let sink = Arc::clone(&hooked);
    db.set_slow_query_hook(Arc::new(move |tree| sink.lock().unwrap().push(tree.clone())));
    assert!(!db.tracer().is_enabled());
    for kind in DRIVER_STRATEGIES {
        hooked.lock().unwrap().clear();
        engine.execute(STRATEGY_SQL, kind).unwrap();
        let trees = hooked.lock().unwrap();
        assert!(
            trees.iter().any(scans_video),
            "{}: no statement tree scanning video among {} hooked",
            kind.label(),
            trees.len()
        );
    }
}

#[test]
fn strategy_queries_emit_their_statement_trees_to_the_sink() {
    let engine = traced_engine();
    let db = engine.db();
    let emitted: Arc<Mutex<Vec<obs::SpanTree>>> = Arc::default();
    let sink = Arc::clone(&emitted);
    db.tracer().set_sink(Some(Arc::new(move |tree: &obs::SpanTree| {
        sink.lock().unwrap().push(tree.clone())
    })));
    for kind in DRIVER_STRATEGIES {
        emitted.lock().unwrap().clear();
        engine.execute(STRATEGY_SQL, kind).unwrap();
        let trees = emitted.lock().unwrap();
        let statement = trees.iter().find(|t| scans_video(t)).unwrap_or_else(|| {
            panic!("{}: no statement tree scanning video among {}", kind.label(), trees.len())
        });
        let root = statement.root().unwrap();
        assert!(statement.operator_exclusive_total_ns() <= statement.inclusive_ns(root));
    }
    db.tracer().set_sink(None);
}

#[test]
fn strategy_queries_feed_the_latency_histogram() {
    let engine = small_engine();
    let db = engine.db();
    for kind in DRIVER_STRATEGIES {
        let before = latency_count(db);
        engine.execute(STRATEGY_SQL, kind).unwrap();
        assert!(latency_count(db) > before, "{}: no latency observation", kind.label());
    }
}

#[test]
fn execute_plan_counts_a_canceled_statement() {
    let db = corpus_db(1);
    let stmt = minidb::sql::parse_statement(CORPUS[2]).unwrap();
    let minidb::sql::Statement::Query(q) = stmt else { unreachable!() };
    let plan = db.plan_query(&q).unwrap();
    let (failures, cancellations) = (
        counter(&db, "minidb_query_failures_total"),
        counter(&db, "minidb_query_cancellations_total"),
    );
    db.cancel_handle().cancel();
    let err = db.execute_plan(&plan).unwrap_err();
    assert!(matches!(err.governance(), Some(govern::QueryError::Canceled)), "{err}");
    assert_eq!(counter(&db, "minidb_query_failures_total"), failures + 1);
    assert_eq!(counter(&db, "minidb_query_cancellations_total"), cancellations + 1);
}

#[test]
fn explain_analyze_emits_one_tree_with_the_collector_on() {
    let db = corpus_db(1);
    let emitted: Arc<Mutex<Vec<obs::SpanTree>>> = Arc::default();
    let sink = Arc::clone(&emitted);
    db.tracer().set_sink(Some(Arc::new(move |tree: &obs::SpanTree| {
        sink.lock().unwrap().push(tree.clone())
    })));
    db.tracer().enable();
    let sql = format!("EXPLAIN ANALYZE {}", CORPUS[2]);
    let lines = plan_lines(&db, &sql);
    let trees = emitted.lock().unwrap();
    assert_eq!(trees.len(), 1, "one statement, one tree");
    assert!(trees[0].records().iter().any(|r| r.name == "Scan"), "{}", trees[0].render());
    assert!(lines.iter().any(|l| l.trim_start().starts_with("Scan")), "{lines:?}");
}

#[test]
fn traced_inference_emits_one_tree_per_statement_and_one_for_the_run() {
    let db = Arc::new(Database::new());
    let registry = Arc::new(NeuralRegistry::new());
    let model = neuro::zoo::student(vec![1, 8, 8], 3, 5);
    let compiled = Arc::new(compile_model(&db, &registry, &model).unwrap());
    let statements: usize = compiled.steps.iter().map(|s| s.statements.len()).sum();
    let runner = dl2sql::Runner::new(Arc::clone(&db), registry, compiled).unwrap();
    let roots: Arc<Mutex<Vec<String>>> = Arc::default();
    let sink = Arc::clone(&roots);
    db.tracer().set_sink(Some(Arc::new(move |tree: &obs::SpanTree| {
        sink.lock().unwrap().push(tree.record(tree.root().unwrap()).name.clone())
    })));
    db.tracer().enable();
    runner.infer(&neuro::Tensor::full(vec![1, 8, 8], 0.3)).unwrap();
    let roots = roots.lock().unwrap();
    // Each program statement and the prediction query, then the run.
    assert_eq!(roots.len(), statements + 2, "{roots:?}");
    assert_eq!(roots.last().map(String::as_str), Some("infer"));
    assert!(roots[..roots.len() - 1].iter().all(|r| r == "query"), "{roots:?}");
}
