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
use minidb::{Database, ScalarUdf, Value};

use crate::cache::{InferenceCache, InferenceKey};
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
                    let key = if memo.enabled() {
                        let key = InferenceKey::new(generation, condition, &args[0])
                            .map_err(|e| minidb::Error::Exec(e.to_string()))?;
                        if let Some(v) = memo.get(&key) {
                            // Memoized: no round trip to the device.
                            return Ok(v);
                        }
                        Some(key)
                    } else {
                        None
                    };
                    // Row-at-a-time UDF inference: every call is a
                    // synchronous round trip to the inference device.
                    row_meter.clock.charge_round_trip();
                    let t = Instant::now();
                    let out = row_spec
                        .invoke_with_condition(&args[0], condition, Some(&row_meter.clock))
                        .map_err(|e| minidb::Error::Exec(e.to_string()))?;
                    row_meter.add(t.elapsed());
                    if let Some(key) = key {
                        memo.insert(key, out.clone());
                    }
                    Ok(out)
                },
            );
            if self.batched {
                let meter = Arc::clone(&meter);
                let batch_spec = Arc::clone(&compiled);
                let memo = Arc::clone(&self.inference);
                let output = spec.output.clone();
                udf = udf.with_batch(move |cols| {
                    let col = &cols[0];
                    // Partition the batch into memoized rows and misses.
                    let mut values: Vec<Option<Value>> = vec![None; col.len()];
                    let mut misses: Vec<(usize, Value, Option<f64>, Option<InferenceKey>)> =
                        Vec::new();
                    for (row, slot) in values.iter_mut().enumerate() {
                        let condition = cols.get(1).map(|c| c.value(row).as_f64()).transpose()?;
                        let value = col.value(row);
                        let key = if memo.enabled() {
                            let key = InferenceKey::new(generation, condition, &value)
                                .map_err(|e| minidb::Error::Exec(e.to_string()))?;
                            if let Some(v) = memo.get(&key) {
                                *slot = Some(v);
                                continue;
                            }
                            Some(key)
                        } else {
                            None
                        };
                        misses.push((row, value, condition, key));
                    }
                    if !misses.is_empty() {
                        // One round trip covers the whole batch of misses,
                        // which the task pool scores in parallel.
                        // `run_indexed` keeps results in row order, so the
                        // output column is identical at any worker count.
                        meter.clock.charge_round_trip();
                        let t0 = Instant::now();
                        let workers = taskpool::default_parallelism();
                        let scored = taskpool::run_indexed(workers, misses.len(), |i| {
                            let (_, value, condition, _) = &misses[i];
                            batch_spec.invoke_with_condition(value, *condition, Some(&meter.clock))
                        });
                        meter.add(t0.elapsed());
                        for ((row, _, _, key), scored) in misses.into_iter().zip(scored) {
                            let v = scored.map_err(|e| minidb::Error::Exec(e.to_string()))?;
                            if let Some(key) = key {
                                memo.insert(key, v.clone());
                            }
                            values[row] = Some(v);
                        }
                    }
                    let mut out = minidb::Column::empty(output.data_type());
                    for v in values {
                        out.push(v.expect("every row memoized or scored"))?;
                    }
                    Ok(out)
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
            cache: crate::metrics::CacheActivity::default(),
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
