//! Compiled-artifact reuse.
//!
//! `compile_model_with_strategy` does substantial work per call: it
//! generates the SQL program, materializes `Kernel`, `Kernel_Mapping` and
//! (for [`PreJoinStrategy::PreJoinKernel`]) prejoin tables into the
//! database, and registers their roles. The tight strategies re-integrate
//! the model "on the fly" per query, so a dashboard replaying the same
//! collaborative query pays that cost every time. [`ArtifactCache`]
//! memoizes the compilation — and the [`Runner`] over it, parsed once and
//! keeping the plans its inferences built — per
//! (model identity, pre-join strategy).
//!
//! Model identity is the `Arc<Model>` pointer. That is sound here because
//! each entry holds a strong clone of the `Arc`: the allocation cannot be
//! freed (and its address reused) while the entry is alive, so a pointer
//! key can never accidentally match a different model. Swapping a model in
//! the repository yields a *new* `Arc` (miss by construction); callers
//! should still [`ArtifactCache::invalidate_model`] the old one to drop
//! its tables from the database and the [`NeuralRegistry`].

use std::collections::HashSet;
use std::sync::Arc;

use cachekit::{CacheStats, LruCache, StatsSnapshot};
use minidb::Database;
use neuro::Model;

use crate::compiler::{compile_model_with_strategy, CompiledModel, PreJoinStrategy};
use crate::error::Result;
use crate::registry::NeuralRegistry;
use crate::runner::Runner;

/// One cached compilation.
#[derive(Clone)]
struct Entry {
    /// Keeps the keyed allocation alive (see module docs).
    _model: Arc<Model>,
    compiled: Arc<CompiledModel>,
    runner: Arc<Runner>,
}

/// Memoizes `compile_model_with_strategy` outputs and their runners.
///
/// The cache is bound to one database: the compiled tables live in the
/// `Database` the entry was created against, and the cached [`Runner`]
/// holds that handle. Keep one `ArtifactCache` per engine/database pair.
pub struct ArtifactCache {
    map: LruCache<(usize, PreJoinStrategy), Entry>,
}

impl ArtifactCache {
    /// A cache holding at most `capacity` compiled models (`0` disables —
    /// every call recompiles, preserving cold-path semantics).
    pub fn new(capacity: usize) -> Self {
        ArtifactCache { map: LruCache::new(capacity) }
    }

    /// Whether artifact reuse is active.
    pub fn enabled(&self) -> bool {
        self.map.capacity() > 0
    }

    /// Changes the capacity in place (0 disables; shrinking evicts).
    /// Evicted entries keep their tables in the database, exactly like
    /// LRU eviction does.
    pub fn set_capacity(&self, capacity: usize) {
        self.map.set_capacity(capacity);
    }

    fn key(model: &Arc<Model>, strategy: PreJoinStrategy) -> (usize, PreJoinStrategy) {
        (Arc::as_ptr(model) as usize, strategy)
    }

    /// The compiled form + prepared runner of `model` under `strategy`,
    /// compiling on first use. When eviction drops an entry its tables
    /// stay in the database (the next compile of that model replaces
    /// them); only [`ArtifactCache::invalidate_model`] removes tables.
    pub fn runner_for(
        &self,
        db: &Arc<Database>,
        registry: &Arc<NeuralRegistry>,
        model: &Arc<Model>,
        strategy: PreJoinStrategy,
    ) -> Result<Arc<Runner>> {
        self.lookup_runner(db, registry, model, strategy, &CacheStats::default())
    }

    /// As [`ArtifactCache::runner_for`], also recording this lookup into
    /// `lookups`: a hit when it reused a compilation, a miss and any
    /// evictions when it compiled, nothing when the cache is disabled.
    pub fn lookup_runner(
        &self,
        db: &Arc<Database>,
        registry: &Arc<NeuralRegistry>,
        model: &Arc<Model>,
        strategy: PreJoinStrategy,
        lookups: &CacheStats,
    ) -> Result<Arc<Runner>> {
        let key = Self::key(model, strategy);
        if self.enabled() {
            if let Some(entry) = self.map.get(&key) {
                lookups.record_hit();
                return Ok(entry.runner);
            }
            lookups.record_miss();
        }
        let compiled = Arc::new(compile_model_with_strategy(db, registry, model, strategy)?);
        let runner =
            Arc::new(Runner::new(Arc::clone(db), Arc::clone(registry), Arc::clone(&compiled))?);
        if self.enabled() {
            let entry = Entry { _model: Arc::clone(model), compiled, runner: Arc::clone(&runner) };
            (0..self.map.insert(key, entry)).for_each(|_| lookups.record_eviction());
        }
        Ok(runner)
    }

    /// Explicitly invalidates every cached compilation of `model` (all
    /// strategies): entries are removed, their parameter tables dropped
    /// from the database, and their roles unregistered from the registry.
    /// Tables are named by weight hash, so an identical model behind
    /// another `Arc` compiles to the same tables: a table another entry
    /// still lists stays. The geometry-only mapping tables stay too: other
    /// models may read them. Call this when the repository swaps the model
    /// behind an nUDF.
    pub fn invalidate_model(
        &self,
        db: &Database,
        registry: &NeuralRegistry,
        model: &Arc<Model>,
    ) -> usize {
        let ptr = Arc::as_ptr(model) as usize;
        let mut doomed: Vec<Entry> = Vec::new();
        let mut kept: HashSet<String> = HashSet::new();
        self.map.retain(|(key, _), entry| {
            if *key == ptr {
                doomed.push(entry.clone());
                return false;
            }
            kept.extend(entry.compiled.parameter_tables().cloned());
            true
        });
        for table in doomed.iter().flat_map(|e| e.compiled.parameter_tables()) {
            if !kept.contains(table) {
                let _ = db.catalog().drop_table(table, true);
                registry.unregister(table);
            }
        }
        doomed.len()
    }

    /// Live cached compilations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every entry without touching database tables.
    pub fn clear(&self) {
        self.map.clear();
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.map.stats()
    }

    /// Zeroes the counters.
    pub fn reset_stats(&self) {
        self.map.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> (Arc<Database>, Arc<NeuralRegistry>, Arc<Model>) {
        (
            Arc::new(Database::new()),
            NeuralRegistry::shared(),
            Arc::new(neuro::zoo::student(vec![1, 8, 8], 2, 7)),
        )
    }

    #[test]
    fn second_lookup_reuses_the_runner() {
        let (db, reg, model) = env();
        let cache = ArtifactCache::new(4);
        let r1 = cache.runner_for(&db, &reg, &model, PreJoinStrategy::None).unwrap();
        let r2 = cache.runner_for(&db, &reg, &model, PreJoinStrategy::None).unwrap();
        assert!(Arc::ptr_eq(&r1, &r2), "compiled once, reused");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        let lookup = CacheStats::default();
        let r = cache.lookup_runner(&db, &reg, &model, PreJoinStrategy::None, &lookup).unwrap();
        assert!(Arc::ptr_eq(&r1, &r));
        assert_eq!(lookup.snapshot(), StatsSnapshot { hits: 1, misses: 0, evictions: 0 });
        // Different strategy: a separate compilation.
        let r3 = cache.runner_for(&db, &reg, &model, PreJoinStrategy::FuseMapping).unwrap();
        assert!(!Arc::ptr_eq(&r1, &r3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_and_fresh_runners_agree() {
        let (db, reg, model) = env();
        let cache = ArtifactCache::new(4);
        let cached = cache.runner_for(&db, &reg, &model, PreJoinStrategy::None).unwrap();
        let input = neuro::Tensor::full(vec![1, 8, 8], 0.3);
        let a = cached.infer(&input).unwrap();
        let b = cached.infer(&input).unwrap(); // reuse path
        let fresh = {
            let compiled = Arc::new(crate::compiler::compile_model(&db, &reg, &model).unwrap());
            Runner::new(Arc::clone(&db), Arc::clone(&reg), compiled).unwrap()
        };
        let c = fresh.infer(&input).unwrap();
        assert_eq!(a.predicted_class, b.predicted_class);
        assert_eq!(a.predicted_class, c.predicted_class);
        assert_eq!(a.probabilities, c.probabilities, "bit-identical probabilities");
    }

    #[test]
    fn invalidate_drops_tables_and_registry_roles() {
        let (db, reg, model) = env();
        let cache = ArtifactCache::new(4);
        let r = cache.runner_for(&db, &reg, &model, PreJoinStrategy::None).unwrap();
        let tables: Vec<String> = r.compiled().parameter_tables().cloned().collect();
        let mappings = r.compiled().mapping_tables.clone();
        assert!(!tables.is_empty() && !mappings.is_empty());
        assert!(tables.iter().all(|t| db.catalog().table(t).is_some()));
        assert_eq!(cache.invalidate_model(&db, &reg, &model), 1);
        assert!(cache.is_empty());
        assert!(tables.iter().all(|t| db.catalog().table(t).is_none()));
        assert!(tables.iter().all(|t| reg.role(t).is_none()));
        // Geometry-only mapping tables are shared with other models.
        assert!(mappings.iter().all(|t| db.catalog().table(t).is_some()));
        // A later lookup recompiles cleanly.
        let r2 = cache.runner_for(&db, &reg, &model, PreJoinStrategy::None).unwrap();
        let input = neuro::Tensor::full(vec![1, 8, 8], 0.4);
        assert_eq!(r2.infer(&input).unwrap().predicted_class, model.predict(&input).unwrap());
    }

    #[test]
    fn invalidating_a_model_keeps_an_identical_models_tables() {
        let db = Arc::new(Database::new());
        let reg = NeuralRegistry::shared();
        let first = Arc::new(neuro::zoo::student(vec![1, 8, 8], 3, 5));
        let second = Arc::new(neuro::zoo::student(vec![1, 8, 8], 3, 5));
        let cache = ArtifactCache::new(4);
        cache.runner_for(&db, &reg, &first, PreJoinStrategy::None).unwrap();
        let runner = cache.runner_for(&db, &reg, &second, PreJoinStrategy::None).unwrap();
        assert_eq!(cache.invalidate_model(&db, &reg, &first), 1);
        let input = neuro::Tensor::full(vec![1, 8, 8], 0.3);
        let out = runner.infer(&input).unwrap();
        let native = second.forward(&input).unwrap();
        assert_eq!(out.probabilities.len(), native.data().len());
        for (sql, nn) in out.probabilities.iter().zip(native.data()) {
            assert!((sql - f64::from(*nn)).abs() < 1e-3, "{sql} vs {nn}");
        }
    }

    #[test]
    fn disabled_cache_always_recompiles() {
        let (db, reg, model) = env();
        let cache = ArtifactCache::new(0);
        assert!(!cache.enabled());
        let r1 = cache.runner_for(&db, &reg, &model, PreJoinStrategy::None).unwrap();
        let lookup = CacheStats::default();
        let r2 = cache.lookup_runner(&db, &reg, &model, PreJoinStrategy::None, &lookup).unwrap();
        assert!(!Arc::ptr_eq(&r1, &r2));
        assert_eq!(lookup.snapshot(), StatsSnapshot::default(), "a disabled cache counts nothing");
        assert!(cache.is_empty());
    }
}
