//! The **loose integration** strategy (paper "DB-UDF").
//!
//! The trained model is compiled into a binary artifact
//! ([`neuro::serialize::compile_udf_binary`], the TorchScript→kernel
//! pipeline stand-in), loaded back, and registered as a built-in scalar
//! UDF. The whole collaborative query then runs inside the database — no
//! cross-system I/O — but the UDF is a *black box*: it carries no
//! selectivity or cost metadata, so the optimizer can neither reorder it
//! intelligently nor estimate it (paper Table III). Each query binds its
//! UDFs in a session of its own and plans under the database's settings
//! (by default the stock optimizer: no UDF hints, no customized model).

use std::sync::Arc;
use std::time::{Duration, Instant};

use minidb::sql::ast::Query;
use minidb::{Database, ScalarUdf};

use crate::cache::{InferenceCache, Keyframe};
use crate::error::Result;
use crate::metrics::{CostBreakdown, InferenceMeter, StrategyOutcome};
use crate::nudf::ModelRepo;
use crate::query::nudf_calls_in_query;
use crate::Strategy;

/// The DB-UDF strategy.
pub struct LooseUdf {
    db: Arc<Database>,
    repo: Arc<ModelRepo>,
    batched: bool,
    inference: Arc<InferenceCache>,
}

impl LooseUdf {
    /// Builds the strategy over the shared database and repository
    /// (row-at-a-time UDFs, like a stock ClickHouse scalar UDF).
    pub fn new(db: Arc<Database>, repo: Arc<ModelRepo>) -> Self {
        LooseUdf { db, repo, batched: false, inference: Arc::new(InferenceCache::new(0)) }
    }

    /// A variant registering *vectorized* UDFs: the whole keyframe column
    /// is fed to the model in one call ("nUDF is performed in a batch
    /// manner"), amortizing per-call overhead and the host↔device round
    /// trip. Used by the batched-UDF ablation harness.
    pub fn new_batched(db: Arc<Database>, repo: Arc<ModelRepo>) -> Self {
        LooseUdf { db, repo, batched: true, inference: Arc::new(InferenceCache::new(0)) }
    }

    /// Attaches a shared result-memoization cache. A memoized row skips
    /// the device round trip entirely; only misses are (re)scored.
    pub fn with_inference_cache(mut self, inference: Arc<InferenceCache>) -> Self {
        self.inference = inference;
        self
    }
}

impl Strategy for LooseUdf {
    fn name(&self) -> &'static str {
        "DB-UDF"
    }

    fn execute_query(&self, q: &Query) -> Result<StrategyOutcome> {
        let meter = InferenceMeter::shared();
        let session = self.db.session();
        let calls = nudf_calls_in_query(q, &self.repo);

        // ---- loading: compile → binary → load → register ---------------
        let mut loading = Duration::ZERO;
        for call in &calls {
            let minidb::sql::ast::Expr::Function { name, .. } = call else { continue };
            let spec = self.repo.require(name)?;
            let t0 = Instant::now();
            // "The model compilation component is responsible for compiling
            // a DL model to binary files that can be directly used by a
            // database kernel." Conditional nUDFs compile every variant.
            let compile = |m: &neuro::Model| -> Result<Arc<neuro::Model>> {
                let binary = neuro::serialize::compile_udf_binary(m);
                // Linking the binary moves the weights onto the inference
                // device once per query.
                meter.clock.charge_transfer(binary.len() as u64);
                Ok(Arc::new(neuro::serialize::load_udf_binary(&binary)?))
            };
            // Rebuild the spec around the compiled binaries, so model
            // selection behaves identically to the repository's.
            let mut compiled = crate::nudf::NudfSpec::new(
                spec.name.clone(),
                compile(&spec.model)?,
                spec.output.clone(),
                spec.class_probs.clone(),
            );
            for v in &spec.variants {
                compiled.variants.push(crate::nudf::ConditionalVariant {
                    min_condition: v.min_condition,
                    model: compile(&v.model)?,
                });
            }
            let compiled = Arc::new(compiled);

            let row_meter = Arc::clone(&meter);
            let row_spec = Arc::clone(&compiled);
            let memo = Arc::clone(&self.inference);
            let generation = self.repo.generation(&spec.name);
            let mut udf = ScalarUdf::new(
                &spec.name,
                spec.arg_types(),
                spec.output.data_type(),
                move |args| {
                    let condition = args.get(1).map(|v| v.as_f64()).transpose()?;
                    // Row-at-a-time UDF inference: every miss is a
                    // synchronous round trip to the inference device; a
                    // memoized keyframe skips it.
                    let score = |misses: &[Keyframe]| {
                        row_meter.clock.charge_round_trip();
                        let t = Instant::now();
                        let clock = Some(&row_meter.clock);
                        let out = row_spec.invoke_with_condition(misses[0].0, condition, clock)?;
                        row_meter.add(t.elapsed());
                        Ok(vec![out])
                    };
                    let mut value = None;
                    memo.score(&row_meter, generation, &[(&args[0], condition)], score, |v| {
                        value = Some(v)
                    })
                    .map_err(|e| minidb::Error::Exec(e.to_string()))?;
                    Ok(value.expect("one value per item"))
                },
            );
            if self.batched {
                let meter = Arc::clone(&meter);
                let batch_spec = Arc::clone(&compiled);
                let memo = Arc::clone(&self.inference);
                let output = spec.output.clone();
                udf = udf.with_batch(move |cols| {
                    let keyframes: Vec<_> = (0..cols[0].len()).map(|r| cols[0].value(r)).collect();
                    let items = keyframes
                        .iter()
                        .enumerate()
                        .map(|(row, value)| {
                            let condition =
                                cols.get(1).map(|c| c.value(row).as_f64()).transpose()?;
                            Ok((value, condition))
                        })
                        .collect::<minidb::Result<Vec<_>>>()?;
                    let mut values = Vec::with_capacity(items.len());
                    let score = |misses: &[Keyframe]| {
                        // One round trip covers the whole batch of misses,
                        // which the task pool scores in parallel.
                        // `run_indexed` keeps results in row order, so the
                        // output column is identical at any worker count.
                        meter.clock.charge_round_trip();
                        let t0 = Instant::now();
                        let workers = taskpool::default_parallelism();
                        let scored = taskpool::run_indexed(workers, misses.len(), |i| {
                            let (value, condition) = misses[i];
                            batch_spec.invoke_with_condition(value, condition, Some(&meter.clock))
                        });
                        meter.add(t0.elapsed());
                        scored.into_iter().collect()
                    };
                    memo.score(&meter, generation, &items, score, |v| values.push(v))
                        .map_err(|e| minidb::Error::Exec(e.to_string()))?;
                    minidb::Column::from_values(output.data_type(), values)
                });
            }
            session.bind_udf(udf);
            loading += t0.elapsed();
        }

        // ---- run entirely inside the database ---------------------------
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
