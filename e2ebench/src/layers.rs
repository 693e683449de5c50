//! Per-layer probes of the traced run. Each calls one layer's public
//! functions on the workload's own inputs, away from the engines the
//! rounds time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use collab::ModelRepo;
use dl2sql::{compile_model, ArtifactCache, NeuralRegistry, PreJoinStrategy, Runner, StepKind};
use minidb::sql::ast::{Query, Statement};
use minidb::Database;
use neuro::Tensor;

use crate::relational::without_nudf;
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::DATASET_TABLES;

/// The DL2SQL step kinds reported one by one; the rest are summed as
/// `other`.
pub const STEP_KINDS: [(StepKind, &str); 8] = [
    (StepKind::Reshape, "reshape"),
    (StepKind::Conv, "conv"),
    (StepKind::BatchNorm, "batch_norm"),
    (StepKind::Relu, "relu"),
    (StepKind::Pool, "pool"),
    (StepKind::GlobalAvgPool, "global_avg_pool"),
    (StepKind::Fc, "fc"),
    (StepKind::Softmax, "softmax"),
];

/// The minidb operator spans reported one by one, by span name; the rest
/// (`Values`, `MultiJoin`, ...) are summed as `other`.
pub const OPERATOR_KINDS: [(&str, &str); 9] = [
    ("Scan", "scan"),
    ("Filter", "filter"),
    ("Project", "project"),
    ("Join", "join"),
    ("GroupBy", "group_by"),
    ("JoinAggregate", "join_aggregate"),
    ("Sort", "sort"),
    ("Limit", "limit"),
    ("UdfEval", "udf_eval"),
];

/// DL2SQL compilation and inference against the native forward pass.
#[derive(Debug, Default)]
pub struct CoreProbe {
    pub models: usize,
    pub keyframes: usize,
    pub compile_ms: f64,
    pub infer_ms: f64,
    pub input_load_ms: f64,
    /// Median per inference, by [`STEP_KINDS`] name plus `other`.
    pub step_ms: BTreeMap<&'static str, f64>,
    pub statements_per_infer: f64,
    pub outside_operators_ms: f64,
    pub forward_ms: f64,
    /// Inferences whose class differs from the native forward pass.
    pub mismatches: u64,
    /// The same, for runners taken from an artifact cache after every
    /// model was compiled through it (see [`artifact_reuse_mismatches`]).
    pub artifact_reuse_mismatches: u64,
}

fn step_name(kind: StepKind) -> &'static str {
    STEP_KINDS.iter().find(|(k, _)| *k == kind).map_or("other", |(_, n)| n)
}

/// Compiles every model the workload's queries call into a scratch
/// database and runs each on `keyframes`: untraced for the timings, then
/// with the collector on to split operator time from the rest.
pub fn probe_core(
    repo: &ModelRepo,
    nudfs: &[String],
    keyframes: &[Tensor],
    spans: &Spans,
) -> Result<CoreProbe, String> {
    let db = Arc::new(Database::builder().parallelism(1).build());
    let registry = NeuralRegistry::shared();
    let operator_ns = Arc::new(AtomicU64::new(0));
    let sink = Arc::clone(&operator_ns);
    db.tracer().set_sink(Some(Arc::new(move |tree: &obs::SpanTree| {
        sink.fetch_add(tree.operator_exclusive_total_ns(), Ordering::Relaxed);
    })));

    let mut p = CoreProbe { models: nudfs.len(), keyframes: keyframes.len(), ..Default::default() };
    let (mut compile, mut infer, mut load, mut outside, mut forward) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut steps: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut statements = vec![];
    for name in nudfs {
        let model = Arc::clone(&repo.require(name).map_err(|e| e.to_string())?.model);
        let (compiled, c) =
            spans.time("core.compile_model", || compile_model(&db, &registry, &model));
        let compiled = Arc::new(compiled.map_err(|e| e.to_string())?);
        let (runner, r) = spans.time("core.runner_new", || {
            Runner::new(Arc::clone(&db), Arc::clone(&registry), Arc::clone(&compiled))
        });
        let runner = runner.map_err(|e| e.to_string())?;
        compile.push((c + r).as_secs_f64() * 1e3);
        statements
            .push(compiled.steps.iter().map(|s| s.statements.len()).sum::<usize>() as f64 + 1.0);
        for x in keyframes {
            let (out, d) = spans.time("core.infer", || runner.infer(x));
            let out = out.map_err(|e| e.to_string())?;
            let (native, f) = spans.time("neuro.forward", || model.forward(x));
            let native = native.map_err(|e| e.to_string())?;
            if out.predicted_class != native.argmax() {
                p.mismatches += 1;
            }
            infer.push(d.as_secs_f64() * 1e3);
            forward.push(f.as_secs_f64() * 1e3);
            load.push(out.input_load_time.as_secs_f64() * 1e3);
            let mut per_kind: BTreeMap<&'static str, f64> =
                STEP_KINDS.iter().map(|(_, n)| (*n, 0.0)).chain([("other", 0.0)]).collect();
            for st in &out.step_timings {
                *per_kind.entry(step_name(st.kind)).or_default() += st.duration.as_secs_f64() * 1e3;
            }
            for (k, v) in per_kind {
                steps.entry(k).or_default().push(v);
            }
        }
        db.tracer().enable();
        for x in keyframes {
            let before = operator_ns.load(Ordering::Relaxed);
            let (out, d) = spans.time("core.infer_traced", || runner.infer(x));
            out.map_err(|e| e.to_string())?;
            let ops = operator_ns.load(Ordering::Relaxed) - before;
            outside.push((d.as_nanos() as u64).saturating_sub(ops) as f64 / 1e6);
        }
        db.tracer().disable();
    }
    db.tracer().set_sink(None);
    p.compile_ms = median(&compile);
    p.infer_ms = median(&infer);
    p.input_load_ms = median(&load);
    p.forward_ms = median(&forward);
    p.outside_operators_ms = median(&outside);
    p.statements_per_infer = median(&statements);
    p.step_ms = steps.into_iter().map(|(k, v)| (k, median(&v))).collect();
    p.artifact_reuse_mismatches = artifact_reuse_mismatches(repo, nudfs, keyframes)?;
    Ok(p)
}

/// Compiles every model through one artifact cache into one database, as
/// a `CollabEngine` with the cache on does, then takes each model's runner
/// from the cache again and counts its predictions on `keyframes` that
/// differ from `Model::forward`. Zero when cached artifacts stay correct.
pub fn artifact_reuse_mismatches(
    repo: &ModelRepo,
    nudfs: &[String],
    keyframes: &[Tensor],
) -> Result<u64, String> {
    let db = Arc::new(Database::builder().parallelism(1).build());
    let registry = NeuralRegistry::shared();
    let cache = ArtifactCache::new(nudfs.len());
    let models = nudfs
        .iter()
        .map(|n| repo.require(n).map(|spec| Arc::clone(&spec.model)))
        .collect::<collab::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;
    let runner = |m| cache.runner_for(&db, &registry, m, PreJoinStrategy::None);
    for m in &models {
        runner(m).map_err(|e| e.to_string())?;
    }
    let mut wrong = 0;
    for m in &models {
        let r = runner(m).map_err(|e| e.to_string())?;
        for x in keyframes {
            let cached = r.infer(x).map_err(|e| e.to_string())?.predicted_class;
            if cached != m.forward(x).map_err(|e| e.to_string())?.argmax() {
                wrong += 1;
            }
        }
    }
    Ok(wrong)
}

/// The query list with every nUDF removed, planned and executed on a copy
/// of the engine's tables.
#[derive(Debug, Default)]
pub struct MinidbProbe {
    pub plan_ms: f64,
    pub execute_plan_ms: f64,
    pub rows_scanned: u64,
    pub result_rows: u64,
    /// Operator self time of one traced execution of each query, summed
    /// over the list, by operator span name.
    pub operator_self_ns: BTreeMap<String, u64>,
}

/// Runs each relational-only query `reps` times; per query the medians of
/// `plan_query` and `execute_plan` count, summed over the list. A last,
/// traced execution of each gives the rows scanned and the operator split.
pub fn probe_minidb(
    source: &Database,
    queries: &[Query],
    repo: &ModelRepo,
    reps: usize,
    spans: &Spans,
) -> Result<MinidbProbe, String> {
    let db = Database::builder().parallelism(1).build();
    for name in DATASET_TABLES {
        let table = source.catalog().table(name).ok_or(format!("no table {name}"))?;
        db.catalog().create_table(name, (*table).clone(), true).map_err(|e| e.to_string())?;
    }
    let folded: Arc<std::sync::Mutex<BTreeMap<String, u64>>> = Arc::default();
    let sink = Arc::clone(&folded);
    db.tracer().set_sink(Some(Arc::new(move |tree: &obs::SpanTree| {
        fold_operators(tree, &mut sink.lock().expect("operator fold lock"));
    })));
    let mut p = MinidbProbe::default();
    for q in queries {
        let rel = without_nudf(q, repo);
        let (mut plan_ms, mut exec_ms) = (vec![], vec![]);
        for _ in 0..reps {
            let (plan, d) = spans.time("minidb.plan_query", || db.plan_query(&rel));
            let plan = plan.map_err(|e| e.to_string())?;
            plan_ms.push(d.as_secs_f64() * 1e3);
            let (out, d) = spans.time("minidb.execute_plan", || db.execute_plan(&plan));
            out.map_err(|e| e.to_string())?;
            exec_ms.push(d.as_secs_f64() * 1e3);
        }
        p.plan_ms += median(&plan_ms);
        p.execute_plan_ms += median(&exec_ms);
        db.tracer().enable();
        let res = spans.time("minidb.execute_statement_traced", || {
            db.execute_statement(&Statement::Query(rel))
        });
        db.tracer().disable();
        let res = res.0.map_err(|e| e.to_string())?;
        p.rows_scanned += res.rows_scanned();
        p.result_rows += res.table().num_rows() as u64;
    }
    db.tracer().set_sink(None);
    p.operator_self_ns = std::mem::take(&mut *folded.lock().expect("operator fold lock"));
    Ok(p)
}

/// Adds the operator self time of `tree` to `into`, by operator span name.
pub fn fold_operators(tree: &obs::SpanTree, into: &mut BTreeMap<String, u64>) {
    let mut ops = std::collections::HashMap::new();
    tree.fold_operators(&mut ops);
    for (name, agg) in ops {
        *into.entry(name).or_default() += agg.self_ns;
    }
}
