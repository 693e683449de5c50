//! Resource governance & fault tolerance: cancellation and timeouts
//! across parallelism levels and strategies, memory-budget rejection
//! consistency, retry/fallback behavior of the independent strategy, and
//! panic-safety of the morsel pool — driven by the deterministic
//! fault-injection harness in `govern::failpoints`.
//!
//! Failpoint schedules are process-global, so every test in this file
//! serializes on one mutex (a test that arms `exec.morsel` must not
//! overlap with another test's parallel query).

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use collab::{CollabEngine, StrategyKind};
use govern::failpoints::{self, Fault, Schedule};
use govern::QueryError;
use minidb::exec::ExecConfig;
use minidb::{DataType, Database, ScalarUdf, Value};
use workload::{build_dataset, build_repo, DatasetConfig, RepoConfig};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // A failed assertion in another test must not wedge the suite.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Holds the suite lock and disarms the failpoint schedule on drop, even
/// when the test body panics.
struct ArmedSchedule {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ArmedSchedule {
    fn drop(&mut self) {
        failpoints::disarm();
    }
}

fn arm(schedule: Schedule) -> ArmedSchedule {
    let guard = ArmedSchedule { _lock: lock() };
    failpoints::arm(schedule);
    guard
}

/// Exact, bit-for-bit table comparison (floats included): governance
/// failures must not perturb subsequent results in any way.
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

fn counter(reg: &obs::Registry, name: &str) -> u64 {
    match reg.get(name, &[]) {
        Some(m) => match m.value {
            obs::MetricValue::Counter(v) => v,
            ref other => panic!("{name} is not a counter: {other:?}"),
        },
        None => 0,
    }
}

/// A database big enough for dozens of morsels (64×16 rows, 16-row
/// morsels), so parallel queries cross many `exec.morsel` checkpoints.
fn morsel_db(parallelism: usize) -> Database {
    let db = Database::builder()
        .exec_config(ExecConfig { parallelism, morsel_rows: 16, ..Default::default() })
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

const MORSEL_QUERY: &str = "SELECT MatrixID, OrderID, Value FROM fm WHERE Value > 1.0";

/// A collaborative engine over the workload generator's schema.
fn engine(parallelism: usize) -> CollabEngine {
    let db = Arc::new(
        Database::builder()
            .exec_config(ExecConfig { parallelism, morsel_rows: 16, ..Default::default() })
            .build(),
    );
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

const COLLAB_QUERY: &str = "SELECT sum(meter) FROM FABRIC F, Video V \
     WHERE F.transID = V.transID AND nUDF_classify(V.keyframe) = 'Floral Pattern'";

#[test]
fn fault_injection_is_compiled_into_test_builds() {
    // The root package's dev-dependency on `govern/failpoints` must turn
    // the sites on for every integration-test build (release binaries
    // compile them to no-ops).
    assert!(failpoints::compiled_in(), "failpoints feature missing from test builds");
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

#[test]
fn precanceled_session_rejects_and_resets_cleanly() {
    let _g = lock();
    let db = morsel_db(1);
    let reference = db.execute(MORSEL_QUERY).unwrap();
    let token = db.cancel_handle();
    token.cancel();
    let err = db.execute(MORSEL_QUERY).unwrap_err();
    assert_eq!(err.governance(), Some(&QueryError::Canceled), "{err}");
    token.reset();
    let again = db.execute(MORSEL_QUERY).unwrap();
    assert_tables_identical(reference.table(), again.table(), "after cancel+reset");
}

#[test]
fn prepared_query_cancel_is_scoped_to_the_statement() {
    let _g = lock();
    let db = morsel_db(2);
    let prepared = db.prepare(MORSEL_QUERY).unwrap();
    let reference = prepared.run().unwrap();
    prepared.cancel_handle().cancel();
    let err = prepared.run().unwrap_err();
    assert_eq!(err.governance(), Some(&QueryError::Canceled), "{err}");
    // Other statements on the same database are untouched.
    db.execute("SELECT count(*) FROM fm").unwrap();
    prepared.cancel_handle().reset();
    let again = prepared.run().unwrap();
    assert_tables_identical(reference.table(), again.table(), "after prepared cancel+reset");
}

#[test]
fn cross_thread_cancel_aborts_parallel_query_promptly() {
    // 64 morsels × 20 ms injected latency on 8 workers ≈ 160 ms
    // uninterrupted; a cancel at 40 ms must abort well before that.
    let _armed = arm(Schedule::new(3).fail(
        "exec.morsel",
        u32::MAX,
        Fault::Latency(Duration::from_millis(20)),
    ));
    let db = Arc::new(morsel_db(8));
    let token = db.cancel_handle();
    let canceler = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            token.cancel();
        })
    };
    let start = Instant::now();
    let err = db.execute(MORSEL_QUERY).unwrap_err();
    let elapsed = start.elapsed();
    canceler.join().unwrap();
    assert_eq!(err.governance(), Some(&QueryError::Canceled), "{err}");
    assert!(elapsed < Duration::from_millis(140), "cancel took {elapsed:?}");
    token.reset();
}

// ---------------------------------------------------------------------------
// Timeouts
// ---------------------------------------------------------------------------

#[test]
fn timeout_aborts_within_twice_deadline_at_parallel_levels() {
    // Each morsel checkpoint sleeps 20 ms, so the query runs ≥160 ms at
    // p=8 (and ≥640 ms at p=2) if never interrupted. With a 100 ms
    // deadline the abort must land within 2× the deadline: the deadline
    // itself plus at most one in-flight morsel per worker.
    for parallelism in [2usize, 8] {
        let _armed = arm(Schedule::new(5).fail(
            "exec.morsel",
            u32::MAX,
            Fault::Latency(Duration::from_millis(20)),
        ));
        let db = morsel_db(parallelism);
        let deadline = Duration::from_millis(100);
        let mut config = db.exec_config();
        config.query_timeout = Some(deadline);
        let unlimited = db.swap_exec_config(config);
        let start = Instant::now();
        let err = db.execute(MORSEL_QUERY).unwrap_err();
        let elapsed = start.elapsed();
        assert_eq!(
            err.governance(),
            Some(&QueryError::TimedOut { limit: deadline }),
            "p={parallelism}: {err}"
        );
        assert!(
            elapsed <= deadline * 2,
            "p={parallelism}: abort took {elapsed:?} (> 2x {deadline:?})"
        );
        let reg = db.metrics_snapshot();
        assert_eq!(counter(&reg, "minidb_query_timeouts_total"), 1, "p={parallelism}");
        assert_eq!(counter(&reg, "minidb_query_failures_total"), 1, "p={parallelism}");
        // Recovery: drop the schedule and the timeout, and the same query
        // runs to completion.
        failpoints::disarm();
        db.swap_exec_config(unlimited);
        db.execute(MORSEL_QUERY).unwrap_or_else(|e| panic!("p={parallelism} recovery: {e}"));
    }
}

#[test]
fn timeout_fires_on_serial_execution() {
    // Serial loops check on a stride rather than per morsel; the deadline
    // is still honored, just at operator/stride granularity.
    let _g = lock();
    let db = Database::new();
    db.execute("CREATE TABLE t (g Int64, v Int64)").unwrap();
    let rows: Vec<String> = (0..2048).map(|i| format!("({}, {i})", i % 4)).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(","))).unwrap();
    db.register_udf(ScalarUdf::new("slow_id", vec![DataType::Int64], DataType::Int64, |args| {
        std::thread::sleep(Duration::from_micros(200));
        Ok(Value::Int64(args[0].as_i64()?))
    }));
    let mut config = db.exec_config();
    config.query_timeout = Some(Duration::from_millis(50));
    db.swap_exec_config(config);
    let err = db.execute("SELECT g, count(*) FROM t WHERE slow_id(v) >= 0 GROUP BY g").unwrap_err();
    assert!(
        matches!(err.governance(), Some(QueryError::TimedOut { .. })),
        "expected TimedOut, got {err}"
    );
}

// ---------------------------------------------------------------------------
// Cancellation + timeout across all four strategies and parallelism levels
// ---------------------------------------------------------------------------

#[test]
fn strategies_honor_cancel_and_timeout_at_all_parallelism_levels() {
    let _g = lock();
    for parallelism in [1usize, 2, 8] {
        let engine = engine(parallelism);
        for kind in StrategyKind::all() {
            let label = format!("p={parallelism} {}", kind.label());
            // A canceled session token rejects the strategy's first
            // database statement with the typed cause.
            let token = engine.db().cancel_handle();
            token.cancel();
            let err = engine.execute(COLLAB_QUERY, kind).unwrap_err();
            assert_eq!(err.governance(), Some(&QueryError::Canceled), "{label}: {err}");
            token.reset();
            // A zero deadline times out deterministically at the first
            // governance checkpoint.
            let mut config = engine.db().exec_config();
            config.query_timeout = Some(Duration::ZERO);
            let unlimited = engine.db().swap_exec_config(config);
            let err = engine.execute(COLLAB_QUERY, kind).unwrap_err();
            assert!(
                matches!(err.governance(), Some(QueryError::TimedOut { .. })),
                "{label}: expected TimedOut, got {err}"
            );
            engine.db().swap_exec_config(unlimited);
            // Teardown was clean: the same strategy succeeds afterwards.
            engine.execute(COLLAB_QUERY, kind).unwrap_or_else(|e| panic!("{label} recovery: {e}"));
        }
        let reg = engine.metrics_snapshot();
        assert!(
            counter(&reg, "minidb_query_cancellations_total") >= 4,
            "p={parallelism}: cancellations missing from metrics"
        );
        assert!(
            counter(&reg, "minidb_query_timeouts_total") >= 4,
            "p={parallelism}: timeouts missing from metrics"
        );
    }
}

// ---------------------------------------------------------------------------
// Memory budget
// ---------------------------------------------------------------------------

/// fm/kernel corpus plus a `big` table whose self-join build side
/// (5000 rows ≈ 280 KB at the planner's 56 B/row estimate) blows a
/// 128 KB budget that the small corpus queries fit under comfortably.
fn budget_db(budget: u64) -> Database {
    let db = Database::builder()
        .exec_config(ExecConfig {
            parallelism: 2,
            morsel_rows: 64,
            memory_budget: budget,
            ..Default::default()
        })
        .build();
    db.execute_script(
        "CREATE TABLE fm (MatrixID Int64, OrderID Int64, Value Float64); \
         CREATE TABLE kernel (KernelID Int64, OrderID Int64, Value Float64); \
         CREATE TABLE big (k Int64, v Float64);",
    )
    .unwrap();
    let mut fm = Vec::new();
    for m in 0..32i64 {
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
    for chunk in 0..5 {
        let rows: Vec<String> =
            (0..1000).map(|i| format!("({}, {}.5)", (chunk * 1000 + i) % 50, i % 7)).collect();
        db.execute(&format!("INSERT INTO big VALUES {}", rows.join(","))).unwrap();
    }
    db
}

const BUDGET_CORPUS: &[&str] = &[
    "SELECT MatrixID, OrderID, Value FROM fm WHERE Value > 4.0",
    "SELECT B.KernelID AS KernelID, A.MatrixID AS TupleID, SUM(A.Value * B.Value) AS Value \
     FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID \
     GROUP BY B.KernelID, A.MatrixID ORDER BY KernelID, TupleID",
    "SELECT MatrixID, count(*) AS n, SUM(Value) AS s FROM fm GROUP BY MatrixID ORDER BY MatrixID",
    "SELECT count(*) AS n FROM fm A, kernel B WHERE A.OrderID = B.OrderID and A.Value > 2.0",
];

const BIG_JOIN: &str = "SELECT count(*) FROM big A, big B WHERE A.k = B.k";

#[test]
fn budget_exceeded_leaves_catalog_and_caches_consistent() {
    let _g = lock();
    let limit = 128 * 1024;
    let governed = budget_db(limit);
    let untouched = budget_db(limit);

    let err = governed.execute(BIG_JOIN).unwrap_err();
    let Some(QueryError::BudgetExceeded { requested, limit: l, largest, .. }) = err.governance()
    else {
        panic!("expected BudgetExceeded, got {err}");
    };
    assert_eq!(*l, limit);
    assert!(*requested > limit, "build reservation {requested} should exceed {limit}");
    assert!(!largest.is_empty() || *requested > limit, "rejection lists live reservations");
    // Every reservation the failed query made was released on unwind.
    let budget = governed.memory_budget().expect("budget configured");
    assert_eq!(budget.in_use(), 0, "reservations leaked after rejection");
    assert_eq!(budget.rejections(), 1);

    // The rejection is deterministic on replay...
    let again = governed.execute(BIG_JOIN).unwrap_err();
    assert!(
        matches!(again.governance(), Some(QueryError::BudgetExceeded { .. })),
        "replay: {again}"
    );
    // ...and the rest of the corpus is bit-identical to a database that
    // never saw the failing query (catalog, plan cache and operator state
    // were not perturbed).
    for sql in BUDGET_CORPUS {
        let reference = untouched.execute(sql).unwrap();
        let got = governed.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_tables_identical(reference.table(), got.table(), sql);
    }
    assert_eq!(budget.in_use(), 0, "corpus queries leaked reservations");
    assert!(budget.peak() > 0, "corpus queries never charged the budget");

    let reg = governed.metrics_snapshot();
    assert_eq!(counter(&reg, "minidb_budget_rejections_total"), 2);
    assert!(reg.get("minidb_memory_budget_limit_bytes", &[]).is_some());
    assert!(reg.get("minidb_memory_budget_peak_bytes", &[]).is_some());
}

#[test]
fn injected_allocation_failure_rejects_then_recovers() {
    let _armed = arm(Schedule::new(9).fail("budget.reserve", 1, Fault::OutOfMemory));
    // A huge budget: only the injected fault can reject.
    let db = budget_db(1 << 30);
    let err = db.execute(BUDGET_CORPUS[1]).unwrap_err();
    assert!(
        matches!(err.governance(), Some(QueryError::BudgetExceeded { .. })),
        "expected injected BudgetExceeded, got {err}"
    );
    assert_eq!(db.memory_budget().unwrap().in_use(), 0);
    // The schedule's single shot is spent; the same query now succeeds.
    let got = db.execute(BUDGET_CORPUS[1]).unwrap();
    failpoints::disarm();
    let reference = budget_db(1 << 30).execute(BUDGET_CORPUS[1]).unwrap();
    assert_tables_identical(reference.table(), got.table(), "after injected OOM");
}

// ---------------------------------------------------------------------------
// Worker panics
// ---------------------------------------------------------------------------

#[test]
fn worker_panic_is_caught_and_pool_stays_usable() {
    let db = morsel_db(8);
    let reference = db.execute(MORSEL_QUERY).unwrap();
    let _armed =
        arm(Schedule::new(13).fail("exec.morsel", 1, Fault::Panic("injected morsel panic".into())));
    let err = db.execute(MORSEL_QUERY).unwrap_err();
    let Some(QueryError::WorkerPanic(msg)) = err.governance() else {
        panic!("expected WorkerPanic, got {err}");
    };
    assert!(msg.contains("injected morsel panic"), "panic message lost: {msg}");
    // The one-shot rule is spent; the pool survived the panic and the
    // same query is bit-identical afterwards.
    let again = db.execute(MORSEL_QUERY).unwrap();
    assert_tables_identical(reference.table(), again.table(), "after worker panic");
    let reg = db.metrics_snapshot();
    assert_eq!(counter(&reg, "minidb_worker_panics_total"), 1);
    assert!(counter(&reg, "taskpool_caught_panics_total") >= 1);
}

#[test]
fn udf_panic_is_a_typed_error_at_every_parallelism() {
    let _g = lock();
    for parallelism in [1usize, 2] {
        let db = Database::builder()
            .exec_config(ExecConfig { parallelism, morsel_rows: 16, ..Default::default() })
            .build();
        db.execute("CREATE TABLE t (k Int64, v Float64)").unwrap();
        let rows: Vec<String> = (0..100).map(|i| format!("({i}, {i}.5)")).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", rows.join(","))).unwrap();
        let poison = Arc::new(std::sync::atomic::AtomicI64::new(-1));
        let armed = Arc::clone(&poison);
        db.register_udf(ScalarUdf::new(
            "checked",
            vec![DataType::Int64],
            DataType::Bool,
            move |a| {
                let k = a[0].as_i64()?;
                assert_ne!(k, armed.load(std::sync::atomic::Ordering::Relaxed), "poisoned row");
                Ok(Value::Bool(k % 3 == 0))
            },
        ));
        let sql = "SELECT k, v FROM t WHERE checked(k) = TRUE";
        let reference = db.execute(sql).unwrap();
        let panics = counter(&db.metrics_snapshot(), "minidb_worker_panics_total");
        poison.store(57, std::sync::atomic::Ordering::Relaxed);
        let err = db.execute(sql).unwrap_err();
        let Some(QueryError::WorkerPanic(msg)) = err.governance() else {
            panic!("p={parallelism}: expected WorkerPanic, got {err}");
        };
        assert!(msg.contains("poisoned row"), "p={parallelism}: panic message lost: {msg}");
        let reg = db.metrics_snapshot();
        assert_eq!(counter(&reg, "minidb_worker_panics_total"), panics + 1, "p={parallelism}");
        poison.store(-1, std::sync::atomic::Ordering::Relaxed);
        let again = db.execute(sql).unwrap();
        assert_tables_identical(reference.table(), again.table(), "after a UDF panic");
    }
}

// ---------------------------------------------------------------------------
// Transfer retries and the fallback chain (independent strategy)
// ---------------------------------------------------------------------------

#[test]
fn transient_transfer_faults_recover_via_retry() {
    let _g = lock();
    let engine = engine(1);
    let reference = engine.execute(COLLAB_QUERY, StrategyKind::Independent).unwrap();
    drop(_g);

    // First two transfer attempts fail; the default policy's third
    // attempt succeeds.
    let _armed =
        arm(Schedule::new(11).fail("independent.transfer", 2, Fault::Error("flaky link".into())));
    let out = engine.execute(COLLAB_QUERY, StrategyKind::Independent).unwrap();
    assert_eq!(out.governance.retries, 2, "two attempts were retried");
    assert_eq!(out.governance.fell_back_from, None);
    assert!(failpoints::hits("independent.transfer") >= 3);
    assert_tables_identical(&reference.table, &out.table, "retried result");
    let reg = engine.metrics_snapshot();
    assert_eq!(counter(&reg, "collab_transfer_retries_total"), 2);
    assert_eq!(counter(&reg, "collab_fallbacks_total"), 0);
}

#[test]
fn retry_exhaustion_surfaces_typed_error() {
    let _armed = arm(Schedule::new(17).fail(
        "independent.transfer",
        u32::MAX,
        Fault::Error("link down".into()),
    ));
    let engine = engine(1);
    let err = engine.execute(COLLAB_QUERY, StrategyKind::Independent).unwrap_err();
    let Some(QueryError::RetryExhausted { attempts, last }) = err.governance() else {
        panic!("expected RetryExhausted, got {err}");
    };
    assert_eq!(*attempts, govern::RetryPolicy::default().max_attempts);
    assert!(last.contains("link down"), "last error lost: {last}");
    assert!(failpoints::hits("independent.transfer") >= *attempts as u64);
}

#[test]
fn fallback_chain_rescues_failed_strategy() {
    let _g = lock();
    let engine = engine(1);
    let reference = engine.execute(COLLAB_QUERY, StrategyKind::LooseUdf).unwrap();
    drop(_g);

    let _armed = arm(Schedule::new(19).fail(
        "independent.transfer",
        u32::MAX,
        Fault::Error("link down".into()),
    ));
    engine.set_fallback_chain(vec![StrategyKind::Independent, StrategyKind::LooseUdf]);
    let out = engine.execute(COLLAB_QUERY, StrategyKind::Independent).unwrap();
    assert_eq!(out.governance.fell_back_from, Some(StrategyKind::Independent));
    assert_tables_identical(&reference.table, &out.table, "rescued result");
    let reg = engine.metrics_snapshot();
    assert_eq!(counter(&reg, "collab_fallbacks_total"), 1);

    // Cancellation never falls back: the caller asked for the abort.
    let token = engine.db().cancel_handle();
    token.cancel();
    let err = engine.execute(COLLAB_QUERY, StrategyKind::Independent).unwrap_err();
    assert_eq!(err.governance(), Some(&QueryError::Canceled), "{err}");
    token.reset();
    let reg = engine.metrics_snapshot();
    assert_eq!(counter(&reg, "collab_fallbacks_total"), 1, "canceled query fell back");
}

#[test]
fn exhausted_fallback_chain_returns_last_error() {
    let _armed = arm(Schedule::new(23).fail(
        "independent.transfer",
        u32::MAX,
        Fault::Error("link down".into()),
    ));
    let engine = engine(1);
    // The failing strategy is the chain's last element: nothing to try.
    engine.set_fallback_chain(vec![StrategyKind::LooseUdf, StrategyKind::Independent]);
    let err = engine.execute(COLLAB_QUERY, StrategyKind::Independent).unwrap_err();
    assert!(
        matches!(err.governance(), Some(QueryError::RetryExhausted { .. })),
        "expected RetryExhausted, got {err}"
    );
    let reg = engine.metrics_snapshot();
    assert_eq!(counter(&reg, "collab_fallbacks_total"), 0);
}

#[test]
fn per_query_cache_activity_is_the_querys_own_under_concurrency() {
    // Holds the suite lock; the schedule is armed after the serial
    // reference runs below and disarmed on drop.
    let _armed = ArmedSchedule { _lock: lock() };
    let memo_engine = || {
        let engine = engine(1);
        engine.set_inference_cache_capacity(4096);
        engine
    };
    let serial = {
        let a = memo_engine().execute(COLLAB_QUERY, StrategyKind::Independent).unwrap();
        let b = memo_engine();
        let b1 = b.execute(COLLAB_QUERY, StrategyKind::LooseUdf).unwrap();
        let b2 = b.execute(COLLAB_QUERY, StrategyKind::LooseUdf).unwrap();
        [a.cache, b1.cache, b2.cache]
    };
    assert!(serial[0].inference.misses > 0 && serial[2].inference.hits > 0, "{serial:?}");

    // A's memo lookups finish before its transfer, which then stalls for
    // 2 s; B runs both of its queries inside that window.
    let engine = memo_engine();
    failpoints::arm(Schedule::new(29).fail(
        "independent.transfer",
        1,
        Fault::Latency(Duration::from_secs(2)),
    ));
    let (a, [b1, b2]) = std::thread::scope(|s| {
        let a = s.spawn(|| engine.execute(COLLAB_QUERY, StrategyKind::Independent).unwrap());
        let b = s.spawn(|| {
            let deadline = Instant::now() + Duration::from_secs(30);
            while failpoints::hits("independent.transfer") < 1 {
                assert!(Instant::now() < deadline, "A never reached its transfer");
                std::thread::sleep(Duration::from_millis(1));
            }
            let stalled = Instant::now();
            let runs =
                [(); 2].map(|_| engine.execute(COLLAB_QUERY, StrategyKind::LooseUdf).unwrap());
            assert!(stalled.elapsed() < Duration::from_secs(2), "B outlasted A's stalled transfer");
            runs
        });
        (a.join().unwrap(), b.join().unwrap())
    });
    let got = [a.cache, b1.cache, b2.cache];
    for (label, (want, got)) in ["A", "B1", "B2"].iter().zip(serial.iter().zip(&got)) {
        assert_eq!(
            (got.inference.hits, got.inference.misses),
            (want.inference.hits, want.inference.misses),
            "{label}: concurrent {got:?} vs serial {want:?}"
        );
    }
    let total = engine.inference_cache().stats();
    let sum = |f: fn(&collab::CacheActivity) -> u64| got.iter().map(f).sum::<u64>();
    assert_eq!(total.hits, sum(|c| c.inference.hits), "hits: {total:?} vs {got:?}");
    assert_eq!(total.misses, sum(|c| c.inference.misses), "misses: {total:?} vs {got:?}");
    assert_eq!(total.evictions, sum(|c| c.inference.evictions), "evictions: {total:?}");
}

// ---------------------------------------------------------------------------
// Seeded latency injection
// ---------------------------------------------------------------------------

#[test]
fn seeded_latency_jitter_never_changes_results() {
    let db = morsel_db(8);
    let reference = db.execute(MORSEL_QUERY).unwrap();
    let _armed = arm(Schedule::new(42).jitter("exec.morsel", u32::MAX, Duration::from_millis(2)));
    let jittered = db.execute(MORSEL_QUERY).unwrap();
    assert!(failpoints::hits("exec.morsel") > 0, "latency schedule never fired");
    assert_tables_identical(reference.table(), jittered.table(), "under injected latency");
}
