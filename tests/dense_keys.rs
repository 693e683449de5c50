//! Dense-key addressing: joins and group-bys over small integer key ranges
//! take the offset-addressed path, everything else the hash path, and the
//! results are bit-identical either way.
//!
//! Each parity case runs one query over tables whose keys are dense and
//! over copies whose keys went through `k ↦ k · STRETCH + SHIFT`. That map
//! preserves key equality and first-occurrence order, so the two results
//! must agree cell for cell once the key columns are mapped back, but it
//! makes every span enormous and so forces the hash path. The
//! `minidb_key_path_total` counter shows which path each run took; the
//! fused operator's grid over dense group keys counts as `grid`.
//!
//! The dense rule is `span ≤ 4 · rows + 1024`, where `rows` is the build
//! side for a join, the input for a group-by, and the probe side for the
//! fused operator's grid. All values are dyadic rationals, so sums are
//! exact in any order.

use minidb::exec::ExecConfig;
use minidb::optimizer::OptimizerConfig;
use minidb::{Column, Database, Field, QueryError, Schema, Table, Value};

const STRETCH: i64 = 1_000_003;
const SHIFT: i64 = -7_777;

fn stretch(k: i64) -> i64 {
    k * STRETCH + SHIFT
}

fn limit(rows: i64) -> i64 {
    4 * rows + 1024
}

fn db(parallelism: usize, fuse: bool, budget: u64) -> Database {
    Database::builder()
        .exec_config(ExecConfig {
            parallelism,
            morsel_rows: 64,
            plan_cache_capacity: 0,
            memory_budget: budget,
            ..Default::default()
        })
        .optimizer_config(OptimizerConfig { fuse_join_aggregates: fuse, ..Default::default() })
        .build()
}

/// Registers a table of named columns.
fn put(db: &Database, name: &str, cols: Vec<(&str, Column)>) {
    let fields = cols.iter().map(|(n, c)| Field::new(*n, c.data_type())).collect();
    let table =
        Table::new(Schema::new(fields), cols.into_iter().map(|(_, c)| c).collect()).unwrap();
    db.catalog().create_table(name, table, true).unwrap();
}

/// Key structures built so far, `(dense, hash, grid)`.
fn paths(db: &Database) -> (u64, u64, u64) {
    let reg = db.metrics_snapshot();
    let get = |path| match reg.get("minidb_key_path_total", &[("path", path)]).map(|m| &m.value) {
        Some(obs::MetricValue::Counter(v)) => *v,
        other => panic!("minidb_key_path_total{{path={path}}}: {other:?}"),
    };
    (get("dense"), get("hash"), get("grid"))
}

/// Runs `sql`, returning the result and the key structures it built.
fn run(db: &Database, sql: &str) -> (Table, (u64, u64, u64)) {
    let before = paths(db);
    let out = db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).table().clone();
    let after = paths(db);
    (out, (after.0 - before.0, after.1 - before.1, after.2 - before.2))
}

/// A small deterministic generator (no shared RNG state between cases).
fn lcg(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    move |bound| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 33) % bound
    }
}

/// `n` keys in `[lo, lo + span)` that include both ends.
fn keys_spanning(lo: i64, span: i64, n: usize, seed: u64) -> Vec<i64> {
    let mut next = lcg(seed);
    let mut keys: Vec<i64> = (0..n).map(|_| lo + next(span as u64) as i64).collect();
    keys[0] = lo;
    keys[n / 2] = lo + (span - 1);
    keys
}

fn dyadic(n: usize, seed: u64) -> Column {
    let mut next = lcg(seed);
    Column::Float64((0..n).map(|_| next(16) as f64 * 0.5 - 4.0).collect())
}

fn stretched(keys: &[i64]) -> Column {
    Column::Int64(keys.iter().map(|&k| stretch(k)).collect())
}

/// Asserts `dense` equals `hash` cell for cell, with the columns in
/// `key_cols` compared through [`stretch`] and floats by their bits.
fn assert_parity(dense: &Table, hash: &Table, key_cols: &[usize], ctx: &str) {
    assert_eq!(dense.num_rows(), hash.num_rows(), "{ctx}: row count");
    assert_eq!(dense.num_columns(), hash.num_columns(), "{ctx}: column count");
    for c in 0..dense.num_columns() {
        for r in 0..dense.num_rows() {
            let d = dense.column(c).value(r);
            let want = match d {
                Value::Int64(k) if key_cols.contains(&c) => Value::Int64(stretch(k)),
                other => other,
            };
            let got = hash.column(c).value(r);
            let same = match (&want, &got) {
                (Value::Float64(a), Value::Float64(b)) => a.to_bits() == b.to_bits(),
                _ => want == got,
            };
            assert!(same, "{ctx}: col {c} row {r}: {want:?} vs {got:?}");
        }
    }
}

#[test]
fn join_build_paths_agree_around_the_threshold() {
    let build_rows = 500usize;
    for (span, want_dense) in [(limit(500) - 1, true), (limit(500), true), (limit(500) + 1, false)]
    {
        for lo in [0i64, -1_500, i64::MIN, i64::MAX - (span - 1)] {
            let ctx = format!("span {span}, lo {lo}");
            let r_keys = keys_spanning(lo, span, build_rows, 1);
            // Probe keys reach past the build range on both sides.
            let probe: Vec<i64> = keys_spanning(lo, span, 3_000, 2)
                .into_iter()
                .enumerate()
                .map(|(i, k)| match i % 97 {
                    0 => k.wrapping_sub(span),
                    1 => k.wrapping_add(span),
                    _ => k,
                })
                .collect();
            let dense = db(1, true, 0);
            put(&dense, "l", vec![("k", Column::Int64(probe.clone())), ("v", dyadic(3_000, 3))]);
            put(&dense, "r", vec![("k", Column::Int64(r_keys.clone())), ("w", dyadic(500, 4))]);
            let sql = "SELECT L.k, L.v, R.w FROM l L, r R WHERE L.k = R.k";
            let (got, used) = run(&dense, sql);
            assert_eq!(used, if want_dense { (1, 0, 0) } else { (0, 1, 0) }, "{ctx}: key path");
            assert!(got.num_rows() > 300, "{ctx}: the join matched too little");

            // The stretched copy is sparse; extreme bases would overflow it,
            // so there the reference is a nested loop.
            if lo == 0 || lo == -1_500 {
                let hash = db(1, true, 0);
                put(&hash, "l", vec![("k", stretched(&probe)), ("v", dyadic(3_000, 3))]);
                put(&hash, "r", vec![("k", stretched(&r_keys)), ("w", dyadic(500, 4))]);
                let (want, used) = run(&hash, sql);
                assert_eq!(used, (0, 1, 0), "{ctx}: stretched keys hash");
                assert_parity(&got, &want, &[0], &ctx);
            } else {
                let pairs = probe
                    .iter()
                    .map(|&p| r_keys.iter().filter(|&&r| r == p).count())
                    .sum::<usize>();
                assert_eq!(got.num_rows(), pairs, "{ctx}: matches a nested loop");
            }
        }
    }
}

#[test]
fn extreme_spans_fall_back_instead_of_wrapping() {
    // Keys at both ends of i64: the span overflows i64 and must hash.
    let keys = vec![i64::MIN, i64::MAX, 0, i64::MIN, -1, i64::MAX];
    let d = db(1, true, 0);
    put(&d, "l", vec![("k", Column::Int64(keys.clone())), ("v", dyadic(6, 5))]);
    put(&d, "r", vec![("k", Column::Int64(keys.clone())), ("w", dyadic(6, 6))]);
    let (join, used) = run(&d, "SELECT count(*) AS n FROM l L, r R WHERE L.k = R.k");
    assert_eq!(join.column(0).value(0), Value::Int64(2 * 2 + 2 * 2 + 1 + 1));
    // The build hashes; the global aggregate's single group is one dense slot.
    assert_eq!(used, (1, 1, 0), "the full-range key must hash");
    let (groups, used) = run(&d, "SELECT k, count(*) AS n FROM l GROUP BY k");
    assert_eq!(used, (0, 1, 0));
    let got: Vec<(Value, Value)> = (0..groups.num_rows())
        .map(|r| (groups.column(0).value(r), groups.column(1).value(r)))
        .collect();
    assert_eq!(
        got,
        [
            (Value::Int64(i64::MIN), Value::Int64(2)),
            (Value::Int64(i64::MAX), Value::Int64(2)),
            (Value::Int64(0), Value::Int64(1)),
            (Value::Int64(-1), Value::Int64(1)),
        ]
    );
    // Two columns whose spans are small alone but overflow together.
    let a = vec![0i64, 1 << 40, 0];
    let b = vec![0i64, 1 << 40, 0];
    put(&d, "t2", vec![("a", Column::Int64(a)), ("b", Column::Int64(b))]);
    let (two, used) = run(&d, "SELECT a, b, count(*) AS n FROM t2 GROUP BY a, b");
    assert_eq!(used, (0, 1, 0));
    assert_eq!(two.num_rows(), 2);
    assert_eq!(two.column(2).value(0), Value::Int64(2));
}

#[test]
fn group_ids_agree_around_the_threshold_with_two_column_keys() {
    let rows = 1_000usize;
    let kw = 16i64;
    for (jw, want_dense) in [(limit(1_000) / kw, true), (limit(1_000) / kw + 1, false)] {
        for base in [0i64, -40_000] {
            let ctx = format!("span {}, base {base}", kw * jw);
            let k = keys_spanning(base, kw, rows, 7);
            let j = keys_spanning(base - 3, jw, rows, 8);
            let sql = "SELECT k, j, count(*) AS n, SUM(v) AS s, min(v) AS lo FROM t GROUP BY k, j";
            for p in [1usize, 2, 8] {
                let dense = db(p, true, 0);
                put(
                    &dense,
                    "t",
                    vec![
                        ("k", Column::Int64(k.clone())),
                        ("j", Column::Int64(j.clone())),
                        ("v", dyadic(rows, 9)),
                    ],
                );
                let (got, used) = run(&dense, sql);
                let want_path = if want_dense { (1, 0, 0) } else { (0, 1, 0) };
                assert_eq!(used, want_path, "{ctx} p={p}: key path");
                let hash = db(p, true, 0);
                put(
                    &hash,
                    "t",
                    vec![("k", stretched(&k)), ("j", stretched(&j)), ("v", dyadic(rows, 9))],
                );
                let (want, _) = run(&hash, sql);
                assert_parity(&got, &want, &[0, 1], &format!("{ctx} p={p}"));
            }
        }
    }
}

#[test]
fn fused_fold_paths_agree_around_the_threshold() {
    // 32 feature-map matrices × 4 orders = 128 probe rows: the grid's
    // limit is 4 · 128 + 1024 = 1536 slots = 8 kernels × 192 matrix ids.
    // Past it the fused operator runs the unfused pair on its join, whose
    // GroupBy applies the rule to the 1,024 joined rows (5,120 slots).
    let (matrices, orders, kernels) = (32i64, 4i64, 8i64);
    for (width, grid_fits) in [(192i64, true), (193, false)] {
        let ids: Vec<i64> = (0..matrices).map(|m| m * (width - 1) / (matrices - 1)).collect();
        let (mut fm_m, mut fm_o) = (Vec::new(), Vec::new());
        for &m in &ids {
            for o in 0..orders {
                fm_m.push(m);
                fm_o.push(o);
            }
        }
        let (mut k_k, mut k_o) = (Vec::new(), Vec::new());
        for k in 0..kernels {
            for o in 0..orders {
                k_k.push(k - 3);
                k_o.push(o);
            }
        }
        let sql = "SELECT B.KernelID AS KernelID, A.MatrixID AS TupleID, \
                   SUM(A.Value * B.Value) AS Value, count(*) AS n \
                   FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID \
                   GROUP BY B.KernelID, A.MatrixID";
        let conv = "SELECT B.KernelID AS KernelID, A.MatrixID AS TupleID, \
                    SUM(A.Value * B.Value) AS Value \
                    FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID \
                    GROUP BY B.KernelID, A.MatrixID";
        let fill = |d: &Database, key: &dyn Fn(&[i64]) -> Column| {
            let n = fm_m.len();
            put(
                d,
                "fm",
                vec![("MatrixID", key(&fm_m)), ("OrderID", key(&fm_o)), ("Value", dyadic(n, 11))],
            );
            let n = k_k.len();
            put(
                d,
                "kernel",
                vec![("KernelID", key(&k_k)), ("OrderID", key(&k_o)), ("Value", dyadic(n, 12))],
            );
        };
        let reference = db(1, false, 0);
        fill(&reference, &|k| Column::Int64(k.to_vec()));
        for p in [1usize, 2, 8] {
            let dense = db(p, true, 0);
            fill(&dense, &|k| Column::Int64(k.to_vec()));
            let hash = db(p, true, 0);
            fill(&hash, &|k| stretched(k));
            // The conv shape, fused, and a COUNT(*) the rewrite leaves
            // unfused.
            for q in [sql, conv] {
                let ctx = format!("width {width} p={p}: {q}");
                let (got, used) = run(&dense, q);
                // Build (OrderID) is dense either way. The conv shape
                // folds into the grid while its groups fit over the probe
                // side; otherwise, and for COUNT(*) always, a GroupBy
                // groups the joined rows on dense ids.
                let want = if grid_fits && q == conv { (1, 0, 1) } else { (2, 0, 0) };
                assert_eq!(used, want, "{ctx}");
                let (want, used) = run(&hash, q);
                assert_eq!(used, (0, 2, 0), "{ctx}: stretched keys hash");
                assert_parity(&got, &want, &[0, 1], &ctx);
                let unfused = reference.execute(q).unwrap();
                assert_parity(unfused.table(), &got, &[], &format!("{ctx} vs unfused"));
            }
        }
    }
}

#[test]
fn empty_inputs_and_global_aggregates() {
    let d = db(1, true, 0);
    put(&d, "e", vec![("k", Column::Int64(vec![])), ("v", Column::Float64(vec![]))]);
    put(&d, "t", vec![("k", Column::Int64(vec![1, 2, 2])), ("v", dyadic(3, 13))]);
    let (out, _) = run(&d, "SELECT T.k, E.v FROM t T, e E WHERE T.k = E.k");
    assert_eq!(out.num_rows(), 0);
    let (out, _) = run(&d, "SELECT k, count(*) AS n FROM e GROUP BY k");
    assert_eq!(out.num_rows(), 0);
    let (out, _) =
        run(&d, "SELECT count(*) AS n, SUM(T.v * E.v) AS s FROM t T, e E WHERE T.k = E.k");
    assert_eq!(out.num_rows(), 1);
    assert_eq!(out.column(0).value(0), Value::Int64(0));
    // A global aggregate has one group: a one-slot dense table.
    let (out, used) = run(&d, "SELECT count(*) AS n, SUM(v) AS s FROM t");
    assert_eq!((out.column(0).value(0), used), (Value::Int64(3), (1, 0, 0)));
}

#[test]
fn float_and_string_keys_take_the_hash_path() {
    let d = db(1, true, 0);
    put(
        &d,
        "f",
        vec![
            ("x", Column::Float64(vec![1.0, 2.5, 2.5, 3.0])),
            ("s", Column::Utf8(vec!["a".into(), "b".into(), "a".into(), "c".into()])),
            ("k", Column::Int64(vec![1, 2, 2, 3])),
        ],
    );
    let (out, used) = run(&d, "SELECT s, count(*) AS n FROM f GROUP BY s");
    assert_eq!((out.num_rows(), used), (3, (0, 1, 0)));
    let (out, used) = run(&d, "SELECT A.s, B.s FROM f A, f B WHERE A.x = B.x");
    assert_eq!((out.num_rows(), used), (6, (0, 1, 0)));
    // Int64 against Float64 still unifies through general keys.
    let (out, used) = run(&d, "SELECT A.k FROM f A, f B WHERE A.k = B.x");
    assert_eq!((out.num_rows(), used), (2, (0, 1, 0)));
    // More than two integer key columns hash too.
    let (out, used) = run(
        &d,
        "SELECT k, k + 1 AS k1, k + 2 AS k2, count(*) AS n FROM f GROUP BY k, k + 1, k + 2",
    );
    assert_eq!((out.num_rows(), used), (3, (0, 1, 0)));
}

#[test]
fn budget_rejection_on_a_dense_build_leaves_no_trace() {
    let keys: Vec<i64> = (0..500).collect();
    let sql = "CREATE TEMP TABLE joined AS SELECT L.k, L.v, R.w FROM l L, r R WHERE L.k = R.k";
    let fill = |d: &Database| {
        put(d, "l", vec![("k", Column::Int64(keys.repeat(4))), ("v", dyadic(2_000, 14))]);
        put(d, "r", vec![("k", Column::Int64(keys.clone())), ("w", dyadic(500, 15))]);
    };
    // Under a roomy budget the statement runs, on the dense path.
    let roomy = db(1, false, 1 << 30);
    fill(&roomy);
    let (_, used) = run(&roomy, sql);
    assert_eq!(used, (1, 0, 0));
    assert_eq!(roomy.catalog().table("joined").unwrap().num_rows(), 2_000);

    // 500 build rows are charged at least the hash build's 56 B a row.
    let tight = db(1, false, 16 * 1024);
    fill(&tight);
    let mut tables = tight.catalog().table_names();
    tables.sort();
    let err = tight.execute(sql).unwrap_err();
    assert!(
        matches!(err.governance(), Some(QueryError::BudgetExceeded { .. })),
        "expected BudgetExceeded, got {err}"
    );
    let mut after = tight.catalog().table_names();
    after.sort();
    assert_eq!(after, tables, "catalog unchanged");
    assert!(tight.catalog().table("joined").is_none());
    let budget = tight.memory_budget().unwrap();
    assert_eq!(budget.in_use(), 0, "reservations leaked after rejection");
    assert_eq!(budget.rejections(), 1);
}

#[test]
fn budget_rejection_on_the_grid_leaves_no_trace() {
    // 100 matrices × 40 kernels = 4,000 group slots over 1,000 probe rows:
    // dense, so the conv statement folds into the accumulator grid, which
    // charges a 4 B group id and an 8 B sum per slot.
    let (matrices, orders, kernels) = (100i64, 10i64, 40i64);
    let grid_bytes = (matrices * kernels * (4 + 8)) as u64;
    let sql = "CREATE TEMP TABLE conv AS SELECT B.KernelID AS k, A.MatrixID AS m, \
               SUM(A.Value * B.Value) AS v \
               FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID \
               GROUP BY B.KernelID, A.MatrixID";
    let fill = |d: &Database| {
        let grid = |keys: i64| -> (Vec<i64>, Vec<i64>) {
            (0..keys).flat_map(|k| (0..orders).map(move |o| (k, o))).unzip()
        };
        let (m, o) = grid(matrices);
        let n = m.len();
        put(
            d,
            "fm",
            vec![
                ("MatrixID", Column::Int64(m)),
                ("OrderID", Column::Int64(o)),
                ("Value", dyadic(n, 20)),
            ],
        );
        let (k, o) = grid(kernels);
        let n = k.len();
        put(
            d,
            "kernel",
            vec![
                ("KernelID", Column::Int64(k)),
                ("OrderID", Column::Int64(o)),
                ("Value", dyadic(n, 21)),
            ],
        );
    };
    let roomy = db(1, true, 1 << 30);
    fill(&roomy);
    let (_, used) = run(&roomy, sql);
    assert_eq!(used, (1, 0, 1), "dense build, grid groups");
    assert_eq!(roomy.catalog().table("conv").unwrap().num_rows(), 4_000);

    // Just below the grid's bytes: the join build fits, the grid does not.
    let tight = db(1, true, grid_bytes - 1);
    fill(&tight);
    let mut tables = tight.catalog().table_names();
    tables.sort();
    let err = tight.execute(sql).unwrap_err();
    match err.governance() {
        Some(QueryError::BudgetExceeded { requested, .. }) => {
            assert_eq!(*requested, grid_bytes, "the grid is the rejected reservation")
        }
        _ => panic!("expected BudgetExceeded, got {err}"),
    }
    let mut after = tight.catalog().table_names();
    after.sort();
    assert_eq!(after, tables, "catalog unchanged");
    let budget = tight.memory_budget().unwrap();
    assert_eq!(budget.in_use(), 0, "reservations leaked after rejection");
    assert_eq!(budget.rejections(), 1);
}

#[test]
fn operator_spans_name_the_key_path() {
    let d = db(1, true, 0);
    put(
        &d,
        "fm",
        vec![
            ("MatrixID", Column::Int64(vec![0, 0, 1, 1])),
            ("OrderID", Column::Int64(vec![0, 1, 0, 1])),
            ("Value", dyadic(4, 16)),
        ],
    );
    put(
        &d,
        "kernel",
        vec![
            ("KernelID", Column::Int64(vec![0, 0])),
            ("OrderID", Column::Int64(vec![0, 1])),
            ("Value", dyadic(2, 17)),
        ],
    );
    put(
        &d,
        "sparse",
        vec![
            ("k", Column::Int64(vec![0, 1 << 40])),
            ("s", Column::Utf8(vec!["a".into(), "b".into()])),
        ],
    );
    put(
        &d,
        "wide",
        vec![
            ("k", Column::Int64(vec![0, 1 << 40])),
            ("o", Column::Int64(vec![0, 1])),
            ("v", dyadic(2, 18)),
        ],
    );
    let plan = |sql: &str| -> String {
        let out = d.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let t = out.table();
        (0..t.num_rows()).map(|r| format!("{:?}\n", t.column(0).value(r))).collect()
    };
    let fused = plan(
        "SELECT B.KernelID, A.MatrixID, SUM(A.Value * B.Value) AS v \
         FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID",
    );
    assert!(fused.contains("build=dense; groups=grid"), "{fused}");
    // A COUNT(*) over the join does not fuse: a Join and a GroupBy.
    let counted = plan(
        "SELECT B.KernelID, A.MatrixID, count(*) AS n \
         FROM fm A INNER JOIN kernel B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID",
    );
    assert!(!counted.contains("JoinAggregate"), "{counted}");
    assert_eq!(counted.matches("keys=dense").count(), 2, "{counted}");
    // The conv shape whose data refuses the grid runs the unfused pair
    // inside the fused operator: groups too sparse for the grid...
    let sparse_groups = plan(
        "SELECT A.k, SUM(A.v * B.Value) AS v \
         FROM wide A INNER JOIN kernel B ON A.o = B.OrderID GROUP BY A.k",
    );
    assert!(sparse_groups.contains("build=dense; groups=hash; fold=unfused"), "{sparse_groups}");
    // ... or a join build that came out hashed.
    let hashed_build = plan(
        "SELECT B.KernelID, SUM(A.v * B.Value) AS v \
         FROM wide A INNER JOIN kernel B ON A.k = B.OrderID GROUP BY B.KernelID",
    );
    assert!(hashed_build.contains("build=hash; groups=dense; fold=unfused"), "{hashed_build}");
    let join = plan("SELECT A.s FROM sparse A, sparse B WHERE A.k = B.k");
    assert!(join.contains("keys=hash"), "{join}");
    let grouped = plan("SELECT MatrixID, count(*) AS n FROM fm GROUP BY MatrixID");
    assert!(grouped.contains("keys=dense"), "{grouped}");
    let by_string = plan("SELECT s, count(*) AS n FROM sparse GROUP BY s");
    assert!(by_string.contains("keys=hash"), "{by_string}");
}

#[test]
fn two_column_join_keys_check_each_column_range() {
    // Build keys k in [0, 4), j in [10, 20). A probe (k, 20) would alias
    // onto slot (k + 1, 10) if only the combined slot were bounds-checked.
    let (mut bk, mut bj) = (Vec::new(), Vec::new());
    for k in 0..4i64 {
        for j in 10..20i64 {
            bk.push(k);
            bj.push(j);
        }
    }
    let (mut pk, mut pj) = (Vec::new(), Vec::new());
    for k in -1..5i64 {
        for j in 8..23i64 {
            pk.push(k);
            pj.push(j);
            pk.push(k);
            pj.push(j);
        }
    }
    let sql = "SELECT P.k, P.j, P.v, B.w FROM p P, b B WHERE P.k = B.k AND P.j = B.j";
    let dense = db(1, true, 0);
    put(
        &dense,
        "b",
        vec![
            ("k", Column::Int64(bk.clone())),
            ("j", Column::Int64(bj.clone())),
            ("w", dyadic(40, 18)),
        ],
    );
    put(
        &dense,
        "p",
        vec![
            ("k", Column::Int64(pk.clone())),
            ("j", Column::Int64(pj.clone())),
            ("v", dyadic(pk.len(), 19)),
        ],
    );
    let (got, used) = run(&dense, sql);
    assert_eq!(used, (1, 0, 0));
    assert_eq!(got.num_rows(), 2 * 40, "each build key matches its two probes, nothing else");
    let hash = db(1, true, 0);
    put(&hash, "b", vec![("k", stretched(&bk)), ("j", stretched(&bj)), ("w", dyadic(40, 18))]);
    put(
        &hash,
        "p",
        vec![("k", stretched(&pk)), ("j", stretched(&pj)), ("v", dyadic(pk.len(), 19))],
    );
    let (want, used) = run(&hash, sql);
    assert_eq!(used, (0, 1, 0));
    assert_parity(&got, &want, &[0, 1], "two-column join");
}
