//! Cache benchmark: cold-vs-warm cost of a repeated collaborative query
//! mix under every strategy, with all three cache levels enabled (plan
//! cache, nUDF inference memoization, compiled-artifact reuse).
//!
//! The dashboard scenario: the same Table-I queries replayed over an
//! unchanged video table. Cold runs populate the caches; warm runs replay
//! the mix. The harness also verifies the caching contract — cached
//! results bit-identical to uncached at parallelism {1, 2, 8} — and
//! writes everything to `BENCH_cache.json` (override the path with
//! `BENCH_JSON_OUT`).

use std::sync::Arc;
use std::time::Instant;

use collab::{CollabEngine, QueryType, StrategyKind};
use minidb::Database;
use workload::{build_dataset, build_repo, DatasetConfig, RepoConfig};

use bench::{cached_env, Report};

/// Warm executions averaged per strategy.
const WARM_RUNS: u32 = 3;
/// Videos in the timing dataset (release-mode smoke scale).
const TIMING_ROWS: usize = 240;
/// Videos in the (slower, per-parallelism) bit-identity dataset.
const IDENTITY_ROWS: usize = 80;
/// Relational selectivity: high enough that inference dominates, as in
/// the paper's dashboard workload.
const SELECTIVITY: f64 = 0.5;

fn query_mix() -> Vec<String> {
    [QueryType::Type1, QueryType::Type2, QueryType::Type3, QueryType::Type4]
        .into_iter()
        .map(|t| workload::queries::template(t, SELECTIVITY, "").sql)
        .collect()
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

/// Runs every (strategy, query) pair cached and uncached at one
/// parallelism level; true iff every result table matched exactly.
fn bit_identity_at(parallelism: usize, repo: &Arc<collab::ModelRepo>) -> bool {
    let db_at = || {
        let db = Arc::new(
            Database::builder()
                .exec_config(minidb::exec::ExecConfig {
                    parallelism,
                    morsel_rows: 32,
                    ..Default::default()
                })
                .build(),
        );
        build_dataset(
            &db,
            &DatasetConfig {
                video_rows: IDENTITY_ROWS,
                keyframe_shape: vec![1, 12, 12],
                ..Default::default()
            },
        )
        .expect("dataset builds");
        db
    };
    let uncached = CollabEngine::new(db_at(), Arc::clone(repo));
    let cached = CollabEngine::new(db_at(), Arc::clone(repo));
    cached.set_inference_cache_capacity(1 << 16);
    cached.set_artifact_cache_capacity(32);
    for kind in StrategyKind::all() {
        for sql in query_mix() {
            let reference = uncached.execute(&sql, kind).expect("uncached run");
            let cold = cached.execute(&sql, kind).expect("cached cold run");
            let warm = cached.execute(&sql, kind).expect("cached warm run");
            if !tables_identical(&reference.table, &cold.table)
                || !tables_identical(&reference.table, &warm.table)
            {
                return false;
            }
        }
    }
    true
}

fn main() {
    let out_path = std::env::var("BENCH_JSON_OUT").unwrap_or_else(|_| "BENCH_cache.json".into());
    let env = cached_env(TIMING_ROWS, vec![1, 12, 12]);
    let queries = query_mix();
    println!(
        "dataset: {} total tuples; mix: {} queries; warm runs averaged: {WARM_RUNS}",
        env.dataset.total_rows(),
        queries.len()
    );

    let mut report = Report::new(
        "Cache benchmark: cold vs warm query mix (ms)",
        &["Approach", "Cold", "Warm", "Speedup", "Memo hit rate", "Artifact hit rate"],
    );
    let mut strategy_records = Vec::new();
    let mut min_speedup = f64::INFINITY;
    for kind in StrategyKind::all() {
        // Each strategy starts cold: the memo and artifact caches are
        // shared engine-wide, so the previous strategy's runs would
        // otherwise pre-warm this one.
        env.engine.inference_cache().clear();
        env.engine.inference_cache().reset_stats();
        env.engine.artifact_cache().clear();
        env.engine.artifact_cache().reset_stats();

        let t_cold = Instant::now();
        for sql in &queries {
            env.engine
                .execute(sql, kind)
                .unwrap_or_else(|e| panic!("{} failed on {sql}: {e}", kind.label()));
        }
        let cold = t_cold.elapsed();

        let t_warm = Instant::now();
        for _ in 0..WARM_RUNS {
            for sql in &queries {
                env.engine.execute(sql, kind).expect("warm run");
            }
        }
        let warm = t_warm.elapsed() / WARM_RUNS;

        let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
        min_speedup = min_speedup.min(speedup);
        let memo = env.engine.inference_cache().stats();
        let artifacts = env.engine.artifact_cache().stats();
        report.row(&[
            kind.label().to_string(),
            format!("{:.1}", cold.as_secs_f64() * 1e3),
            format!("{:.1}", warm.as_secs_f64() * 1e3),
            format!("{speedup:.1}x"),
            format!("{:.3}", memo.hit_rate()),
            if matches!(kind, StrategyKind::Tight | StrategyKind::TightOptimized) {
                format!("{:.3}", artifacts.hit_rate())
            } else {
                "-".into()
            },
        ]);
        strategy_records.push(serde_json::json!({
            "strategy": kind.label(),
            "cold_ms": cold.as_secs_f64() * 1e3,
            "warm_ms": warm.as_secs_f64() * 1e3,
            "speedup": speedup,
            "inference_cache": serde_json::json!({
                "hits": memo.hits,
                "misses": memo.misses,
                "evictions": memo.evictions,
                "hit_rate": memo.hit_rate(),
            }),
            "artifact_cache": serde_json::json!({
                "hits": artifacts.hits,
                "misses": artifacts.misses,
                "hit_rate": artifacts.hit_rate(),
            }),
        }));
    }

    // The correctness half of the contract, at the three executor widths
    // the determinism suite pins down.
    let parallelism_levels = [1usize, 2, 8];
    let mut bit_identical = true;
    for p in parallelism_levels {
        let ok = bit_identity_at(
            p,
            &build_repo(&RepoConfig { keyframe_shape: vec![1, 12, 12], ..Default::default() }),
        );
        println!("bit-identity cached vs uncached at parallelism {p}: {ok}");
        bit_identical &= ok;
    }

    // The plan-cache level: the strategies replay pre-parsed queries, so
    // only ad-hoc SQL through `Database::execute` exercises it — the
    // dashboard's relational side.
    let relational = [
        "SELECT count(*) AS n FROM fabric",
        "SELECT patternID, sum(meter) AS m FROM fabric GROUP BY patternID ORDER BY patternID",
        "SELECT count(*) AS n FROM fabric F, video V WHERE F.transID = V.transID",
    ];
    for sql in relational {
        for _ in 0..2 {
            env.engine.db().execute(sql).expect("relational query");
        }
    }
    let plan = env.engine.db().plan_cache_stats();
    let record = serde_json::json!({
        "benchmark": "cache_cold_vs_warm",
        "dataset_rows": env.dataset.total_rows(),
        "queries_per_run": queries.len(),
        "warm_runs_averaged": WARM_RUNS,
        "strategies": serde_json::Value::Array(strategy_records),
        "plan_cache": serde_json::json!({
            "hits": plan.hits,
            "misses": plan.misses,
            "hit_rate": plan.hit_rate(),
        }),
        "min_warm_speedup": min_speedup,
        "bit_identical_parallelism": serde_json::json!([1usize, 2, 8]),
        "bit_identical": bit_identical,
    });
    report.json(record.clone());
    report.print();
    std::fs::write(&out_path, format!("{record}\n"))
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");

    assert!(bit_identical, "cached results diverged from uncached");
    assert!(
        min_speedup >= 2.0,
        "warm mix must be at least 2x faster than cold (got {min_speedup:.2}x)"
    );
}
