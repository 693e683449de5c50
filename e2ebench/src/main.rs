//! End-to-end and per-layer benchmark of collaborative queries.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <cold_infer|warm_scan|ingest_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client in one process, pinned to one CPU, runs the workload's query
//! list under all four strategies in a closed loop, every database at
//! parallelism 1, and checks every result against DB-PyTorch's, run in
//! set-up with every cache off. With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` it records its own spans around each call into a
//! layer, switches on the program's span collector for every other round,
//! probes each layer on the workload's inputs, and prints the per-layer
//! metrics. Human-readable lines come first; the last line of standard
//! output is one JSON object. A wrong result makes the exit code 1.
//! `WORKLOADS.md` describes the workloads and what each metric should move.

mod check;
mod host;
mod layers;
mod relational;
mod rounds;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;

use collab::StrategyKind;
use minidb::sql::ast::{Query, Statement};
use minidb::sql::parser::parse_statement;

use crate::check::canonical;
use crate::layers::{OPERATOR_KINDS, STEP_KINDS};
use crate::relational::candidate_count;
use crate::rounds::{Loop, QueryInfo, Tally};
use crate::spans::Spans;
use crate::stats::{median, quantile, ratio};
use crate::workloads::{key, Env, Plan, SetupTimes, Workload, Writer, STRATEGIES};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Keyframes the traced run pushes through each model's DL2SQL program.
const PROBE_KEYFRAMES: u64 = 6;
/// Repetitions of each relational-only query in the traced run.
const PROBE_REPS: usize = 5;

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// A tiny scale for smoke tests.
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, DEFAULT_SEED, 10.0f64, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    let workload = Workload::parse(&workload_name).ok_or(format!(
        "unknown workload {workload_name}; use cold_infer, warm_scan or ingest_mix"
    ))?;
    Ok(Args { workload, workload_name, seed, seconds, trace, tiny })
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    match host::pin_to_one_cpu() {
        Ok(cpu) => println!("pinned to CPU {cpu}"),
        Err(e) => eprintln!("e2ebench: running unpinned: {e}"),
    }
    match run(&args) {
        Ok((attempted, failed, metrics)) => {
            let correct = failed == 0;
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
                metrics.json()
            );
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

/// Sums one counter over every engine's metrics registry.
fn counter(env: &Env, name: &str) -> u64 {
    env.engines
        .iter()
        .map(|e| match e.metrics_snapshot().get(name, &[]).map(|m| &m.value) {
            Some(obs::MetricValue::Counter(v)) => *v,
            _ => 0,
        })
        .sum()
}

const CACHE_COUNTERS: [&str; 6] = [
    "collab_inference_cache_hits_total",
    "collab_inference_cache_misses_total",
    "dl2sql_artifact_cache_hits_total",
    "dl2sql_artifact_cache_misses_total",
    "minidb_plan_cache_hits_total",
    "minidb_plan_cache_misses_total",
];

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(args: &Args) -> Result<(u64, u64, Metrics), String> {
    let plan = Plan::new(args.workload, args.tiny);
    let queries = workloads::queries(&plan, args.seed);
    let spans = Spans::new(args.trace);

    let mut reference = Vec::with_capacity(queries.len());
    let mut run_reference = |env: &Env| -> Result<(), String> {
        for q in &queries {
            let out = env.engines[0]
                .prepare(&q.sql)
                .and_then(|p| p.run(StrategyKind::Independent))
                .map_err(|e| format!("reference run: {e}: {}", q.sql))?;
            reference.push(canonical(&out.table));
        }
        Ok(())
    };
    let (env, first_setup) =
        workloads::build(&plan, args.seed, &queries, &spans, &mut run_reference)?;

    let parsed: Vec<Query> = queries
        .iter()
        .map(|q| match parse_statement(&q.sql) {
            Ok(Statement::Query(q)) => Ok(q),
            other => Err(format!("not a query: {} ({other:?})", q.sql)),
        })
        .collect::<Result<_, _>>()?;
    let mut info = Vec::with_capacity(queries.len());
    for (q, p) in queries.iter().zip(&parsed) {
        let model = &env.repo.require(&q.nudfs[0]).map_err(|e| e.to_string())?.model;
        let clock = neuro::SimClock::new();
        model
            .forward_with_clock(&neuro::Tensor::zeros(model.input_shape.clone()), Some(&clock))
            .map_err(|e| e.to_string())?;
        let qi = QueryInfo {
            flops_per_inference: clock.flops(),
            candidate_query: candidate_count(p, &env.repo),
            candidates: Default::default(),
        };
        qi.count_candidates(env.engines[0].db())?;
        info.push(qi);
    }
    let prepared = env
        .engines
        .iter()
        .map(|e| queries.iter().map(|q| e.prepare(&q.sql)).collect::<collab::Result<Vec<_>>>())
        .collect::<collab::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;
    let lp = Loop {
        plan: &plan,
        env: &env,
        queries: &queries,
        prepared,
        info,
        spans: &spans,
        reference,
    };
    let reference_failed = lp.reference_round();

    let mut writer = Writer::new(&plan, &env, args.seed);
    let before: Vec<u64> = CACHE_COUNTERS.iter().map(|c| counter(&env, c)).collect();
    let mut tally = lp.run(args.seconds, args.trace, &mut writer);
    let cache: Vec<u64> =
        CACHE_COUNTERS.iter().zip(&before).map(|(c, b)| counter(&env, c) - b).collect();
    tally.attempted += queries.len() as u64 * STRATEGIES.len() as u64;
    tally.failed += reference_failed;

    // The workload's other set-up builds run last, each timed and dropped,
    // after the peak resident memory of the environment the rounds used is
    // read. The rounds run in a heap no earlier build has fragmented.
    let peak_rss_mb = peak_rss_mib();
    let mut setups = vec![first_setup];
    for _ in 1..plan.setup_builds {
        setups.push(workloads::build(&plan, args.seed, &queries, &spans, &mut |_| Ok(()))?.1);
    }

    let (batch_fabric, batch_clips) = writer.batch_rows();
    println!(
        "workload {} seed {} scale {}: {} queries, {} video rows, write batch {} fabric rows + \
         {} clips, {} rounds in {:.1} s, {} query runs",
        args.workload_name,
        args.seed,
        if args.tiny { "tiny" } else { "full" },
        queries.len(),
        plan.video_rows,
        batch_fabric,
        batch_clips,
        tally.rounds,
        tally.wall_s,
        tally.queries
    );
    let mut m = Metrics::default();
    if args.trace {
        match per_layer(&mut m, &env, &parsed, &queries, &tally, &setups, &cache, &spans, args) {
            Ok((attempted, failed)) => {
                tally.attempted += attempted;
                tally.failed += failed;
            }
            Err(e) => {
                eprintln!("e2ebench: layer probe: {e}");
                tally.failed += 1;
            }
        }
    } else {
        end_to_end(&mut m, &tally, &setups, peak_rss_mb);
    }
    for (n, v, u) in &m.0 {
        println!("  {n:<48} {v:>14.4} {u}");
    }
    Ok((tally.attempted, tally.failed, m))
}

fn end_to_end(m: &mut Metrics, t: &Tally, setups: &[SetupTimes], peak_rss_mb: f64) {
    let setup: Vec<f64> = setups.iter().map(SetupTimes::total_s).collect();
    m.put("setup_s", median(&setup), "s");
    for (s, kind) in STRATEGIES.iter().enumerate() {
        m.put(format!("{}_mix_ms", key(*kind)), median(&t.mix_ms[s]), "ms");
    }
    m.put("query_p90_ms", quantile(&t.query_ms, 0.9), "ms");
    m.put("queries_per_s", t.queries as f64 / t.wall_s, "1/s");
    m.put("peak_rss_mb", peak_rss_mb, "MiB");
    m.put("write_ms", median(&t.write_ms), "ms");
    println!(
        "unscaled: setup_s {:.4}, mixes (ms) {}; host speed factor {:.4}",
        median(&setups.iter().map(|s| s.total_s() / s.speed_factor).collect::<Vec<_>>()),
        STRATEGIES
            .iter()
            .enumerate()
            .map(|(s, k)| format!("{} {:.4}", key(*k), median(&t.raw_mix_ms[s])))
            .collect::<Vec<_>>()
            .join(", "),
        median(&t.speed_factors)
    );
    println!(
        "samples: setup builds {}, queries {}, writes {}, mixes {}",
        setups.len(),
        t.query_ms.len(),
        t.write_ms.len(),
        STRATEGIES
            .iter()
            .enumerate()
            .map(|(s, k)| format!("{} {}", key(*k), t.mix_ms[s].len()))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

#[allow(clippy::too_many_arguments)]
/// Puts every per-layer metric; returns the probes' attempted and failed
/// inferences.
fn per_layer(
    m: &mut Metrics,
    env: &Env,
    parsed: &[Query],
    queries: &[workload::QuerySpec],
    t: &Tally,
    setups: &[SetupTimes],
    cache: &[u64],
    spans: &Spans,
    args: &Args,
) -> Result<(u64, u64), String> {
    let stage = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    m.put("workload.build_dataset_ms", stage(|s| s.dataset_ms), "ms");
    m.put("workload.build_repo_ms", stage(|s| s.repo_ms), "ms");
    m.put("collab.warmup_ms", stage(|s| s.warmup_ms), "ms");

    let per_mix = queries.len() as f64;
    m.put("collab.queries_per_mix", per_mix, "count");
    let candidates_per_mix: f64 = STRATEGIES
        .iter()
        .enumerate()
        .map(|(s, _)| ratio(t.candidates[s], t.runs[s] as f64) * per_mix)
        .fold(0.0, f64::max);
    m.put("collab.candidates_per_mix", candidates_per_mix, "count");
    for (s, kind) in STRATEGIES.iter().enumerate() {
        let k = key(*kind);
        m.put(format!("collab.{k}.loading_ms"), median(&t.loading_ms[s]), "ms");
        m.put(format!("collab.{k}.inference_ms"), median(&t.inference_ms[s]), "ms");
        m.put(format!("collab.{k}.relational_ms"), median(&t.relational_ms[s]), "ms");
        m.put(
            format!("collab.{k}.inferences_per_query"),
            ratio(t.inferences[s], t.runs[s] as f64),
            "count",
        );
        m.put(
            format!("collab.{k}.inferences_per_candidate"),
            ratio(t.inferences[s], t.candidates[s]),
            "ratio",
        );
    }
    let pytorch = STRATEGIES.len() - 1;
    m.put(
        "collab.db_pytorch.cross_system_bytes_per_query",
        ratio(t.cross_system_bytes[pytorch] as f64, t.runs[pytorch] as f64),
        "B",
    );
    let lookups = |h: usize| (cache[h] + cache[h + 1]) as f64;
    m.put("collab.memo_hit_ratio", ratio(cache[0] as f64, lookups(0)), "ratio");
    m.put("collab.memo_lookups", lookups(0), "count");
    m.put("core.artifact_hit_ratio", ratio(cache[2] as f64, lookups(2)), "ratio");
    m.put("core.artifact_lookups", lookups(2), "count");
    m.put("minidb.plan_cache_hit_ratio", ratio(cache[4] as f64, lookups(4)), "ratio");
    m.put("minidb.plan_cache_lookups", lookups(4), "count");

    let mut nudfs: Vec<String> = queries.iter().map(|q| q.nudfs[0].clone()).collect();
    nudfs.sort();
    nudfs.dedup();
    let keyframes: Vec<neuro::Tensor> = (0..PROBE_KEYFRAMES)
        .map(|v| workload::dataset::keyframe(&[1, 12, 12], args.seed, v))
        .collect();
    let core = layers::probe_core(&env.repo, &nudfs, &keyframes, spans)?;
    m.put("core.compile_ms", core.compile_ms, "ms");
    m.put("core.infer_ms", core.infer_ms, "ms");
    m.put("core.input_load_ms", core.input_load_ms, "ms");
    for name in STEP_KINDS.iter().map(|(_, n)| *n).chain(["other"]) {
        m.put(
            format!("core.infer.{name}_ms"),
            core.step_ms.get(name).copied().unwrap_or(0.0),
            "ms",
        );
    }
    m.put("core.infer.outside_operators_ms", core.outside_operators_ms, "ms");
    m.put("core.statements_per_infer", core.statements_per_infer, "count");
    m.put("core.gap_vs_native", ratio(core.infer_ms, core.forward_ms), "ratio");
    m.put("core.probe_inferences", (core.models * core.keyframes) as f64, "count");
    m.put("neuro.forward_ms", core.forward_ms, "ms");
    m.put("core.artifact_reuse_mismatches", core.artifact_reuse_mismatches as f64, "count");
    let probed = (core.models * core.keyframes) as u64;
    if core.mismatches > 0 {
        eprintln!(
            "{} of {probed} DL2SQL inferences disagree with the native forward pass",
            core.mismatches
        );
    }
    if core.artifact_reuse_mismatches > 0 {
        println!(
            "known defect: {} of {probed} inferences by cached DL2SQL artifacts disagree with \
             the native forward pass (see WORKLOADS.md, \"Known defect\")",
            core.artifact_reuse_mismatches
        );
    }

    let rel = layers::probe_minidb(env.engines[0].db(), parsed, &env.repo, PROBE_REPS, spans)?;
    m.put("minidb.relational_only_ms", rel.plan_ms + rel.execute_plan_ms, "ms");
    m.put("minidb.plan_ms", rel.plan_ms, "ms");
    m.put("minidb.execute_plan_ms", rel.execute_plan_ms, "ms");
    m.put(
        "minidb.rows_scanned_per_result_row",
        ratio(rel.rows_scanned as f64, rel.result_rows as f64),
        "ratio",
    );
    m.put("minidb.result_rows", rel.result_rows as f64, "count");
    m.put("minidb.insert_ms", median(&t.insert_ms), "ms");
    m.put("minidb.update_ms", median(&t.update_ms), "ms");
    let catalog: usize = env.engines.iter().map(|e| e.db().catalog().total_memory_bytes()).sum();
    m.put("minidb.catalog_mb", catalog as f64 / (1024.0 * 1024.0), "MiB");

    // Per query run: the span trees the engines emit in traced rounds
    // (DL2SQL's statements, writes), plus the query's own plan, which the
    // strategies run through `Database::run_query` without operator spans
    // and which is therefore timed on its relational-only form.
    let mut ops: BTreeMap<&str, f64> = BTreeMap::new();
    let per_run = [(&t.operator_self_ns, t.traced_runs as f64), (&rel.operator_self_ns, per_mix)];
    for (folded, runs) in per_run {
        for (name, ns) in folded {
            let short = OPERATOR_KINDS.iter().find(|(n, _)| n == name).map_or("other", |(_, s)| s);
            *ops.entry(short).or_default() += ratio(*ns as f64 / 1e6, runs);
        }
    }
    for short in OPERATOR_KINDS.iter().map(|(_, s)| *s).chain(["other"]) {
        m.put(
            format!("minidb.operator.{short}_self_ms"),
            ops.get(short).copied().unwrap_or(0.0),
            "ms",
        );
    }

    let sum = |v: &[Vec<f64>; 4]| v.iter().map(|x| median(x)).sum::<f64>();
    let (traced, untraced) = (sum(&t.traced_mix_ms), sum(&t.mix_ms));
    m.put("trace.overhead_pct", ratio(traced - untraced, untraced) * 100.0, "%");
    m.put("host.speed_factor", median(&t.speed_factors), "ratio");
    m.put("trace.traced_queries", t.traced_runs as f64, "count");
    m.put("trace.spans", spans.len() as f64, "count");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload_name, args.seed));
    spans.write(&path).map_err(|e| format!("span file {}: {e}", path.display()))?;
    println!("span file: {}", path.display());
    println!("self time by span (count, total ms, self ms):");
    for (name, st) in spans.self_times() {
        println!(
            "  {name:<32} {:>8} {:>12.3} {:>12.3}",
            st.count,
            st.total_ns as f64 / 1e6,
            st.self_ns as f64 / 1e6
        );
    }
    Ok((probed, core.mismatches))
}
