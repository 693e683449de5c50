//! The **tight integration** strategy (paper "DL2SQL" / "DL2SQL-OP").
//!
//! The model is turned into relational tables and its inference pathway
//! into SQL ([`dl2sql`]); an nUDF call in a collaborative query executes
//! that SQL program inside the same database. The optimized variant
//! additionally plans under the customized cost model (paper Eq. 3–8) and
//! attaches the nUDF's class histogram and cost so the hint rules of
//! Sec. IV-B (placement, symmetric hash join) can fire.
//!
//! Each query runs in a session of its own: the nUDF binding and the
//! planning settings belong to that session, and every inference the
//! nUDF triggers runs in a further session under the same settings.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dl2sql::{hints, ArtifactCache, NeuralRegistry, PreJoinStrategy, Runner};
use minidb::sql::ast::Query;
use minidb::{Database, ScalarUdf};

use crate::cache::{InferenceCache, Keyframe};
use crate::error::Result;
use crate::metrics::{CostBreakdown, InferenceMeter, StrategyOutcome};
use crate::nudf::{blob_to_tensor, ModelRepo};
use crate::query::nudf_calls_in_query;
use crate::Strategy;

/// The DL2SQL strategy; `optimized` selects DL2SQL-OP.
pub struct Tight {
    db: Arc<Database>,
    repo: Arc<ModelRepo>,
    registry: Arc<NeuralRegistry>,
    optimized: bool,
    inference: Arc<InferenceCache>,
    artifacts: Arc<ArtifactCache>,
}

impl Tight {
    /// Builds the strategy over the shared database and repository. Both
    /// caches start disabled, preserving the paper's per-query
    /// "integrated on the fly" loading cost; [`Tight::with_caches`]
    /// attaches the engine's shared caches.
    pub fn new(
        db: Arc<Database>,
        repo: Arc<ModelRepo>,
        registry: Arc<NeuralRegistry>,
        optimized: bool,
    ) -> Self {
        Tight {
            db,
            repo,
            registry,
            optimized,
            inference: Arc::new(InferenceCache::new(0)),
            artifacts: Arc::new(ArtifactCache::new(0)),
        }
    }

    /// Attaches shared result-memoization and compiled-artifact caches
    /// (capacity 0 in either leaves that level cold).
    pub fn with_caches(
        mut self,
        inference: Arc<InferenceCache>,
        artifacts: Arc<ArtifactCache>,
    ) -> Self {
        self.inference = inference;
        self.artifacts = artifacts;
        self
    }
}

impl Strategy for Tight {
    fn name(&self) -> &'static str {
        if self.optimized {
            "DL2SQL-OP"
        } else {
            "DL2SQL"
        }
    }

    fn execute_query(&self, q: &Query) -> Result<StrategyOutcome> {
        let meter = InferenceMeter::shared();
        let calls = nudf_calls_in_query(q, &self.repo);
        // DL2SQL-OP plans under the customized cost model with the hint
        // rules on (fusion as the database has it); plain DL2SQL under the
        // database's own settings.
        let session = if self.optimized {
            let base = &self.db.settings().optimizer;
            self.db.session_with(hints::op_settings(Arc::clone(&self.registry), base))
        } else {
            self.db.session()
        };

        // ---- loading: model → relational tables -------------------------
        let mut loading = Duration::ZERO;
        for call in &calls {
            let minidb::sql::ast::Expr::Function { name, .. } = call else { continue };
            let spec = self.repo.require(name)?;
            let t0 = Instant::now();
            // "Integrated into the system on the fly": the model — and,
            // for a conditional nUDF, every condition-selected variant —
            // is loaded from its source representation into relational
            // tables per query. With the artifact cache enabled, a warm
            // query reuses the previous compilation instead.
            let make_runner = |m: &Arc<neuro::Model>| -> Result<Arc<Runner>> {
                let (db, registry) = (&self.db, &self.registry);
                let lookups = &meter.artifacts;
                Ok(self.artifacts.lookup_runner(db, registry, m, PreJoinStrategy::None, lookups)?)
            };
            let default_runner = make_runner(&spec.model)?;
            let variant_runners: Vec<Arc<Runner>> =
                spec.variants.iter().map(|v| make_runner(&v.model)).collect::<Result<_>>()?;
            loading += t0.elapsed();

            // Deterministic per-inference flop count for device projection.
            let flops_per_inference = self.repo.flops_per_inference(&spec.name)?;

            let meter = Arc::clone(&meter);
            let settings = session.settings().clone();
            let output = spec.output.clone();
            let memo = Arc::clone(&self.inference);
            let generation = self.repo.generation(&spec.name);
            let selector = Arc::clone(&spec);
            let mut udf = ScalarUdf::new(
                &spec.name,
                spec.arg_types(),
                spec.output.data_type(),
                move |args| {
                    let condition = args.get(1).map(|v| v.as_f64()).transpose()?;
                    // A memoized keyframe runs no SQL program and no flops.
                    let score = |misses: &[Keyframe]| {
                        let tensor = blob_to_tensor(misses[0].0)?;
                        // Condition-selected SQL program (paper Type 3).
                        let runner = selector
                            .select_variant(condition)
                            .map_or(&default_runner, |i| &variant_runners[i]);
                        let t = Instant::now();
                        let out = runner.infer_with(&settings, &tensor)?;
                        meter.add(t.elapsed());
                        meter.clock.charge_flops(flops_per_inference);
                        Ok(vec![output.to_value(out.predicted_class)])
                    };
                    let mut value = None;
                    memo.score(&meter, generation, &[(&args[0], condition)], score, |v| {
                        value = Some(v)
                    })
                    .map_err(|e| minidb::Error::Exec(e.to_string()))?;
                    Ok(value.expect("one value per item"))
                },
            )
            // Cost per row scales with model size (the customized model's
            // placement rule only needs relative magnitudes).
            .with_cost(spec.model.param_count() as f64);
            if self.optimized && !spec.class_probs.is_empty() {
                udf = udf.with_class_probabilities(spec.output.value_histogram(&spec.class_probs));
            }
            session.bind_udf(udf);
        }

        // ---- run entirely inside the database -----------------------------
        let t_run = Instant::now();
        let table = session.run_query(q)?;
        let total_run = t_run.elapsed();
        let inference = meter.total();

        Ok(StrategyOutcome {
            cache: meter.cache(),
            trace: None,
            table,
            breakdown: CostBreakdown {
                loading,
                inference,
                relational: total_run.saturating_sub(inference),
            },
            sim: meter.summary(),
            governance: crate::metrics::GovernanceActivity::default(),
        })
    }
}
