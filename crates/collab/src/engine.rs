//! The engine: one database + one model repository, three strategies.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use dl2sql::{hints, ArtifactCache, NeuralRegistry};
use minidb::sql::ast::{Query, Statement};
use minidb::sql::parser::parse_statement;
use minidb::{Database, PlanSettings};
use parking_lot::RwLock;

use crate::cache::InferenceCache;
use crate::error::Result;
use crate::independent::{DlServer, Independent};
use crate::loose::LooseUdf;
use crate::metrics::StrategyOutcome;
use crate::nudf::{ModelRepo, NudfSpec};
use crate::tight::Tight;
use crate::Strategy;

/// Which strategy to run a collaborative query under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Independent processing (DB-PyTorch).
    Independent,
    /// Loose integration (DB-UDF).
    LooseUdf,
    /// Tight integration without the optimizer hints (DL2SQL).
    Tight,
    /// Tight integration with the customized cost model + hints
    /// (DL2SQL-OP).
    TightOptimized,
}

impl StrategyKind {
    /// All four configurations of paper Fig. 8, in its bar order.
    pub fn all() -> [StrategyKind; 4] {
        [
            StrategyKind::Tight,
            StrategyKind::TightOptimized,
            StrategyKind::LooseUdf,
            StrategyKind::Independent,
        ]
    }

    /// Display name matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            StrategyKind::Independent => "DB-PyTorch",
            StrategyKind::LooseUdf => "DB-UDF",
            StrategyKind::Tight => "DL2SQL",
            StrategyKind::TightOptimized => "DL2SQL-OP",
        }
    }
}

/// Shared execution environment for collaborative queries.
///
/// Any number of queries, under any mix of strategies, may run at once:
/// each query binds its nUDFs, plans under its strategy's settings and
/// meters its inference in a session and meter of its own, and never
/// writes database-wide state.
pub struct CollabEngine {
    db: Arc<Database>,
    repo: Arc<ModelRepo>,
    registry: Arc<NeuralRegistry>,
    server: Arc<DlServer>,
    /// DL2SQL-OP's planning settings, built once: a cached runner keeps
    /// its plans only for settings it has seen, by identity.
    op_settings: PlanSettings,
    /// nUDF result memoization, shared by all four strategies. Disabled
    /// (capacity 0) by default so the Fig. 8 harnesses keep measuring
    /// cold inference costs; see [`CollabEngine::set_inference_cache_capacity`].
    inference_cache: Arc<InferenceCache>,
    /// Compiled-artifact reuse for the tight strategies. Disabled by
    /// default ("integrated on the fly" is part of what Fig. 8 measures);
    /// see [`CollabEngine::set_artifact_cache_capacity`].
    artifact_cache: Arc<ArtifactCache>,
    /// Cumulative per-strategy run counters, exported by
    /// [`CollabEngine::metrics_snapshot`].
    totals: RwLock<HashMap<StrategyKind, StrategyTotals>>,
    /// Graceful-degradation order: when a strategy fails for a
    /// recoverable reason, the engine retries the query under the next
    /// kind in this chain. Empty (the default) disables fallback.
    fallback_chain: RwLock<Vec<StrategyKind>>,
    /// Queries rescued by the fallback chain.
    fallbacks: std::sync::atomic::AtomicU64,
    /// DB↔DL transfer retries across all runs.
    transfer_retries: std::sync::atomic::AtomicU64,
}

/// Cumulative counters for one strategy across engine runs.
#[derive(Debug, Clone, Copy, Default)]
struct StrategyTotals {
    runs: u64,
    wall_nanos: u64,
    loading_nanos: u64,
    inference_nanos: u64,
    relational_nanos: u64,
    transfer_bytes: u64,
    cross_system_bytes: u64,
    inference_flops: u64,
}

impl CollabEngine {
    /// Builds an engine over an already-populated database and repository
    /// (spawns the DL-serving thread used by the independent strategy).
    ///
    /// The database's `parallelism` knob is propagated to the process-wide
    /// kernel pool, so a `Database::builder().parallelism(n)` engine runs
    /// `neuro`'s conv/linear loops — the DB-UDF and DB-PyTorch inference
    /// paths — on the same number of workers as the SQL executor.
    pub fn new(db: Arc<Database>, repo: Arc<ModelRepo>) -> Self {
        taskpool::set_default_parallelism(db.exec_config().parallelism);
        let server = Arc::new(DlServer::start(Arc::clone(&repo)));
        let registry = NeuralRegistry::shared();
        // The database's settings are fixed when it is built.
        let op_settings = hints::op_settings(Arc::clone(&registry), &db.settings().optimizer);
        CollabEngine {
            db,
            repo,
            registry,
            server,
            op_settings,
            inference_cache: Arc::new(InferenceCache::new(0)),
            artifact_cache: Arc::new(ArtifactCache::new(0)),
            totals: RwLock::new(HashMap::new()),
            fallback_chain: RwLock::new(Vec::new()),
            fallbacks: std::sync::atomic::AtomicU64::new(0),
            transfer_retries: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Installs the graceful-degradation chain: when a prepared query
    /// fails under a strategy for a recoverable cause, the engine re-runs
    /// it under the next kind in the chain (e.g. `[Tight, LooseUdf]`
    /// makes tight failures degrade to the loose UDF path). Cancellation
    /// and query timeouts never fall back — the caller asked for the
    /// abort. Empty disables fallback (the default).
    pub fn set_fallback_chain(&self, chain: Vec<StrategyKind>) {
        *self.fallback_chain.write() = chain;
    }

    /// The current fallback chain.
    pub fn fallback_chain(&self) -> Vec<StrategyKind> {
        self.fallback_chain.read().clone()
    }

    /// The shared database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The model repository.
    pub fn repo(&self) -> &Arc<ModelRepo> {
        &self.repo
    }

    /// The DL2SQL table registry.
    pub fn registry(&self) -> &Arc<NeuralRegistry> {
        &self.registry
    }

    /// The shared nUDF result-memoization cache.
    pub fn inference_cache(&self) -> &Arc<InferenceCache> {
        &self.inference_cache
    }

    /// The compiled-artifact cache used by the tight strategies.
    pub fn artifact_cache(&self) -> &Arc<ArtifactCache> {
        &self.artifact_cache
    }

    /// Bounds nUDF inference memoization to `capacity` results across all
    /// strategies (0 disables it, the default). Cached results are
    /// bit-identical to uncached ones; only the cost of producing them
    /// changes.
    pub fn set_inference_cache_capacity(&self, capacity: usize) {
        self.inference_cache.set_capacity(capacity);
    }

    /// Bounds compiled-artifact reuse to `capacity` (model, strategy)
    /// compilations (0 disables it, the default — every tight query then
    /// re-integrates its model "on the fly" as the paper describes).
    pub fn set_artifact_cache_capacity(&self, capacity: usize) {
        self.artifact_cache.set_capacity(capacity);
    }

    /// Replaces the model behind an nUDF. The old registration's compiled
    /// artifacts (relational tables + registry roles) are dropped, its
    /// memoized results invalidated, and the new spec registered under a
    /// fresh generation; returns that generation. Registering a brand-new
    /// name degenerates to a plain [`ModelRepo::register`].
    pub fn swap_nudf(&self, spec: NudfSpec) -> u64 {
        if let Some(old) = self.repo.get(&spec.name) {
            let old_generation = self.repo.generation(&spec.name);
            self.artifact_cache.invalidate_model(&self.db, &self.registry, &old.model);
            for v in &old.variants {
                self.artifact_cache.invalidate_model(&self.db, &self.registry, &v.model);
            }
            // Fresh generations stop matching on their own; dropping the
            // old entries now frees their capacity immediately.
            self.inference_cache.invalidate_generation(old_generation);
        }
        self.repo.register(spec)
    }

    /// Instantiates a strategy (sharing the engine's caches).
    pub fn strategy(&self, kind: StrategyKind) -> Box<dyn Strategy + '_> {
        match kind {
            StrategyKind::Independent => Box::new(
                Independent::new(
                    Arc::clone(&self.db),
                    Arc::clone(&self.repo),
                    Arc::clone(&self.server),
                )
                .with_inference_cache(Arc::clone(&self.inference_cache)),
            ),
            StrategyKind::LooseUdf => Box::new(
                LooseUdf::new(Arc::clone(&self.db), Arc::clone(&self.repo))
                    .with_inference_cache(Arc::clone(&self.inference_cache)),
            ),
            StrategyKind::Tight => Box::new(
                Tight::new(
                    Arc::clone(&self.db),
                    Arc::clone(&self.repo),
                    Arc::clone(&self.registry),
                    None,
                )
                .with_caches(Arc::clone(&self.inference_cache), Arc::clone(&self.artifact_cache)),
            ),
            StrategyKind::TightOptimized => Box::new(
                Tight::new(
                    Arc::clone(&self.db),
                    Arc::clone(&self.repo),
                    Arc::clone(&self.registry),
                    Some(self.op_settings.clone()),
                )
                .with_caches(Arc::clone(&self.inference_cache), Arc::clone(&self.artifact_cache)),
            ),
        }
    }

    /// Parses one collaborative query for repeated execution. The SQL text
    /// is parsed exactly once; [`PreparedCollabQuery::run`] can then replay
    /// it under any strategy (the bench harnesses run the same query under
    /// all four configurations).
    pub fn prepare(&self, sql: &str) -> Result<PreparedCollabQuery<'_>> {
        let Statement::Query(query) = parse_statement(sql)? else {
            return Err(crate::Error::Coordinator(
                "collaborative queries are SELECT statements".into(),
            ));
        };
        Ok(PreparedCollabQuery { engine: self, query })
    }

    /// Executes one collaborative query under one strategy.
    pub fn execute(&self, sql: &str, kind: StrategyKind) -> Result<StrategyOutcome> {
        self.prepare(sql)?.run(kind)
    }

    fn note_run(&self, kind: StrategyKind, wall_nanos: u64, outcome: &StrategyOutcome) {
        let mut totals = self.totals.write();
        let t = totals.entry(kind).or_default();
        t.runs += 1;
        t.wall_nanos += wall_nanos;
        t.loading_nanos += outcome.breakdown.loading.as_nanos() as u64;
        t.inference_nanos += outcome.breakdown.inference.as_nanos() as u64;
        t.relational_nanos += outcome.breakdown.relational.as_nanos() as u64;
        t.transfer_bytes += outcome.sim.transfer_bytes;
        t.cross_system_bytes += outcome.sim.cross_system_bytes;
        t.inference_flops += outcome.sim.inference_flops;
        drop(totals);
        self.transfer_retries
            .fetch_add(outcome.governance.retries as u64, std::sync::atomic::Ordering::Relaxed);
    }

    /// A point-in-time metrics registry: the database's series
    /// (operators, plan cache, latency histogram, task pool) plus
    /// per-strategy run/transfer counters and the inference/artifact
    /// cache levels.
    pub fn metrics_snapshot(&self) -> obs::Registry {
        let mut reg = self.db.metrics_snapshot();
        let totals = self.totals.read();
        for kind in StrategyKind::all() {
            let Some(t) = totals.get(&kind) else { continue };
            let labels: &[(&str, &str)] = &[("strategy", kind.label())];
            reg.counter(
                "collab_strategy_runs_total",
                "Queries run under the strategy",
                labels,
                t.runs,
            );
            reg.counter(
                "collab_strategy_wall_nanoseconds_total",
                "Wall time of strategy executions",
                labels,
                t.wall_nanos,
            );
            reg.counter(
                "collab_strategy_loading_nanoseconds_total",
                "Loading-category time (paper Fig. 8)",
                labels,
                t.loading_nanos,
            );
            reg.counter(
                "collab_strategy_inference_nanoseconds_total",
                "Inference-category time (paper Fig. 8)",
                labels,
                t.inference_nanos,
            );
            reg.counter(
                "collab_strategy_relational_nanoseconds_total",
                "Relational-category time (paper Fig. 8)",
                labels,
                t.relational_nanos,
            );
            reg.counter(
                "collab_strategy_transfer_bytes_total",
                "Simulated host-device transfer bytes",
                labels,
                t.transfer_bytes,
            );
            reg.counter(
                "collab_strategy_cross_system_bytes_total",
                "Bytes crossing the database-DL-system boundary",
                labels,
                t.cross_system_bytes,
            );
            reg.counter(
                "collab_strategy_inference_flops_total",
                "Simulated inference floating-point work",
                labels,
                t.inference_flops,
            );
        }
        let inf = self.inference_cache.stats();
        reg.counter("collab_inference_cache_hits_total", "nUDF memoization hits", &[], inf.hits);
        reg.counter(
            "collab_inference_cache_misses_total",
            "nUDF memoization misses",
            &[],
            inf.misses,
        );
        reg.counter(
            "collab_inference_cache_evictions_total",
            "nUDF memoization evictions",
            &[],
            inf.evictions,
        );
        let art = self.artifact_cache.stats();
        reg.counter(
            "dl2sql_artifact_cache_hits_total",
            "Compiled-artifact reuse hits",
            &[],
            art.hits,
        );
        reg.counter(
            "dl2sql_artifact_cache_misses_total",
            "Compiled-artifact reuse misses",
            &[],
            art.misses,
        );
        reg.counter(
            "dl2sql_artifact_cache_evictions_total",
            "Compiled-artifact reuse evictions",
            &[],
            art.evictions,
        );
        reg.counter(
            "collab_fallbacks_total",
            "Queries rescued by the graceful-degradation chain",
            &[],
            self.fallbacks.load(std::sync::atomic::Ordering::Relaxed),
        );
        reg.counter(
            "collab_transfer_retries_total",
            "DB-DL transfer attempts that had to be retried",
            &[],
            self.transfer_retries.load(std::sync::atomic::Ordering::Relaxed),
        );
        reg
    }
}

/// A collaborative query parsed once, runnable under every strategy.
pub struct PreparedCollabQuery<'a> {
    engine: &'a CollabEngine,
    query: Query,
}

impl PreparedCollabQuery<'_> {
    /// The parsed query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Runs the query under `kind` without re-parsing: the strategy
    /// executes under a `strategy:<name>` root span (when the database's
    /// tracer is enabled), and the outcome is annotated with the span
    /// tree.
    ///
    /// When the engine has a [fallback chain](CollabEngine::set_fallback_chain)
    /// and the strategy fails for a recoverable cause, the query is re-run
    /// under the successor kinds in the chain; a rescued outcome records
    /// the originally-requested strategy in
    /// [`GovernanceActivity::fell_back_from`](crate::metrics::GovernanceActivity).
    /// Cancellation and query timeouts propagate immediately.
    pub fn run(&self, kind: StrategyKind) -> Result<StrategyOutcome> {
        let mut current = kind;
        let mut out = self.run_once(current);
        loop {
            let Err(err) = &out else { return out };
            if matches!(
                err.governance(),
                Some(govern::QueryError::Canceled) | Some(govern::QueryError::TimedOut { .. })
            ) {
                return out;
            }
            let chain = self.engine.fallback_chain();
            let Some(pos) = chain.iter().position(|k| *k == current) else { return out };
            let Some(next) = chain.get(pos + 1).copied() else { return out };
            current = next;
            match self.run_once(current) {
                Ok(mut o) => {
                    o.governance.fell_back_from = Some(kind);
                    self.engine.fallbacks.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    return Ok(o);
                }
                Err(e) => out = Err(e),
            }
        }
    }

    /// One strategy execution with tracing and run accounting — no
    /// fallback.
    fn run_once(&self, kind: StrategyKind) -> Result<StrategyOutcome> {
        let engine = self.engine;
        let tracer = engine.db.tracer();
        let root = if tracer.is_enabled() {
            tracer.start_root(&format!("strategy:{}", kind.label()))
        } else {
            obs::SpanId::NONE
        };
        let start = Instant::now();
        let mut out = engine.strategy(kind).execute_query(&self.query);
        let wall = start.elapsed();
        if let Ok(o) = out.as_ref() {
            engine.note_run(kind, wall.as_nanos() as u64, o);
        }
        if root.is_some() {
            if let Ok(o) = out.as_ref() {
                let b = &o.breakdown;
                tracer.event(
                    root,
                    "breakdown",
                    &format!(
                        "loading={:?} inference={:?} relational={:?}",
                        b.loading, b.inference, b.relational
                    ),
                );
                tracer.event(
                    root,
                    "cache",
                    &format!(
                        "inference={}h/{}m artifact={}h/{}m",
                        o.cache.inference.hits,
                        o.cache.inference.misses,
                        o.cache.artifact.hits,
                        o.cache.artifact.misses
                    ),
                );
                tracer.event(
                    root,
                    "transfer",
                    &format!(
                        "transfer_bytes={} cross_system_bytes={}",
                        o.sim.transfer_bytes, o.sim.cross_system_bytes
                    ),
                );
            }
            tracer.finish(root);
            let tree = Arc::new(tracer.take_tree(root));
            if let Ok(o) = out.as_mut() {
                o.trace = Some(tree);
            }
        }
        out
    }
}
