//! nUDF inference memoization.
//!
//! The paper's dashboard workload re-runs the same collaborative queries
//! over a slowly-growing video table: the overwhelming majority of
//! keyframes scored by one query were already scored by the previous one.
//! This module memoizes inference *results* — not tensors, not plans — in
//! a sharded LRU shared by all four strategies, keyed by
//!
//! * the nUDF's **generation id** (assigned by
//!   [`ModelRepo::register`](crate::nudf::ModelRepo::register);
//!   swapping a model re-registers and gets a fresh generation, so stale
//!   entries stop matching without an explicit flush),
//! * the model-selection **condition** (paper Type 3 nUDFs pick a variant
//!   per row), and
//! * the **full keyframe blob bytes** (a key compares contents when the
//!   hashes match, so a hash collision costs a byte comparison but can
//!   never return the wrong row's prediction — cached results stay
//!   bit-identical to uncached ones).
//!
//! A key never hashes the keyframe: it copies the content hash the
//! [`Blob`] computed once, when it was built, and every copy of the blob a
//! query makes shares that hash. A key holds the blob weakly: a memoized
//! result never keeps a deleted keyframe alive, and before a shard's map
//! would grow, entries whose keyframe is gone are dropped.
//!
//! Every strategy scores keyframes through one method,
//! [`InferenceCache::score`]: the strategies differ in where inference
//! runs, never in how results are memoized or counted.
//!
//! The cache is disabled (capacity 0) by default: the Fig. 8 harnesses
//! compare strategies on cold inference costs, and memoization would
//! flatten exactly the differences they measure. Engines opt in via
//! [`crate::CollabEngine::set_inference_cache_capacity`].

use std::hash::{Hash, Hasher};

use cachekit::{ShardedLru, StatsSnapshot};
use minidb::{Blob, Value, WeakBlob};

use crate::metrics::InferenceMeter;

/// A keyframe blob as a cache key: hashes and compares the *contents*,
/// by the content hash the blob computed when it was built. The
/// blob is held weakly, so the key does not keep a deleted keyframe in
/// memory; a key whose blob is gone equals only itself. Comparing
/// allocations is sound because a weak reference keeps its allocation
/// reserved (no new blob can reuse the address), and a blob's bytes never
/// change.
#[derive(Debug, Clone)]
struct BlobKey {
    blob: WeakBlob,
    hash: u64,
}

impl BlobKey {
    /// A key over `blob`'s contents.
    fn new(blob: &Blob) -> Self {
        BlobKey { blob: blob.downgrade(), hash: blob.content_hash() }
    }

    /// Whether the keyframe has been dropped everywhere else.
    fn is_dead(&self) -> bool {
        self.blob.is_dead()
    }
}

impl PartialEq for BlobKey {
    fn eq(&self, other: &Self) -> bool {
        if self.blob.ptr_eq(&other.blob) {
            return true;
        }
        if self.hash != other.hash {
            return false;
        }
        match (self.blob.upgrade(), other.blob.upgrade()) {
            (Some(a), Some(b)) => *a == *b,
            _ => false,
        }
    }
}
impl Eq for BlobKey {}
impl Hash for BlobKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One memoized inference: which nUDF generation scored which keyframe
/// under which model-selection condition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InferenceKey {
    /// The nUDF's generation id in the [`ModelRepo`](crate::nudf::ModelRepo).
    pub generation: u64,
    /// `f64::to_bits` of the condition argument, `None` when the nUDF is
    /// unconditional. Bits (not the float) so `NaN`/`-0.0` stay distinct
    /// keys rather than poisoning equality.
    pub condition_bits: Option<u64>,
    /// The keyframe contents.
    blob: BlobKey,
}

impl InferenceKey {
    /// Builds a key; fails if `value` is not a blob.
    pub fn new(
        generation: u64,
        condition: Option<f64>,
        value: &Value,
    ) -> std::result::Result<Self, crate::Error> {
        let Value::Blob(bytes) = value else {
            return Err(crate::Error::Coordinator("keyframe column is not a blob".into()));
        };
        Ok(InferenceKey {
            generation,
            condition_bits: condition.map(f64::to_bits),
            blob: BlobKey::new(bytes),
        })
    }
}

/// One nUDF input: a keyframe blob and its model-selection condition
/// (`None` when the nUDF is unconditional).
pub type Keyframe<'a> = (&'a Value, Option<f64>);

/// The shared, capacity-bounded nUDF result cache.
pub struct InferenceCache {
    lru: ShardedLru<InferenceKey, Value>,
}

const SHARDS: usize = 8;

impl InferenceCache {
    /// A cache bounded to `capacity` memoized results across all models.
    /// `0` disables it ([`InferenceCache::enabled`] is false and every
    /// strategy skips the lookup entirely).
    pub fn new(capacity: usize) -> Self {
        InferenceCache {
            lru: ShardedLru::with_reclaim(capacity, SHARDS, |k: &InferenceKey| k.blob.is_dead()),
        }
    }

    /// Whether memoization is active.
    pub fn enabled(&self) -> bool {
        self.lru.capacity() > 0
    }

    /// Changes the capacity in place (0 disables; shrinking evicts).
    pub fn set_capacity(&self, capacity: usize) {
        self.lru.set_capacity(capacity);
    }

    /// Scores `items` for the nUDF of `generation`, handing one value per
    /// item to `emit`, in item order. Memoized items are answered from the
    /// cache; the misses go to `score` in item order, at most once and
    /// never empty, and what it returns is memoized. The query's own hits,
    /// misses and evictions are counted into `meter`. With the cache
    /// disabled no key is built and every item goes to `score`.
    pub fn score<'a>(
        &self,
        meter: &InferenceMeter,
        generation: u64,
        items: &[Keyframe<'a>],
        score: impl FnOnce(&[Keyframe<'a>]) -> crate::Result<Vec<Value>>,
        mut emit: impl FnMut(Value),
    ) -> crate::Result<()> {
        let enabled = self.enabled();
        let (mut misses, mut keys) = (Vec::new(), Vec::new());
        // Hits are emitted at once until the first miss; from there on
        // each item waits here (`None` for a miss) so the order holds.
        let mut pending = Vec::new();
        for &(value, condition) in items {
            let key =
                enabled.then(|| InferenceKey::new(generation, condition, value)).transpose()?;
            let hit = key.as_ref().and_then(|key| self.lru.get(key));
            if hit.is_some() {
                meter.memo.record_hit();
            } else {
                if key.is_some() {
                    meter.memo.record_miss();
                }
                misses.push((value, condition));
                keys.push(key);
            }
            match hit {
                Some(v) if misses.is_empty() => emit(v),
                hit => pending.push(hit),
            }
        }
        if misses.is_empty() {
            return Ok(());
        }
        let scored = score(&misses)?;
        if scored.len() != misses.len() {
            return Err(crate::Error::Coordinator(format!(
                "scored {} values for {} keyframes",
                scored.len(),
                misses.len()
            )));
        }
        for (key, v) in keys.into_iter().zip(&scored) {
            if let Some(key) = key {
                (0..self.lru.insert(key, v.clone())).for_each(|_| meter.memo.record_eviction());
            }
        }
        let mut scored = scored.into_iter();
        for v in pending {
            emit(v.or_else(|| scored.next()).expect("one scored value per miss"));
        }
        Ok(())
    }

    /// Drops every entry belonging to generations ≤ `generation` of no
    /// particular name — in practice unnecessary (stale generations age
    /// out via LRU), but exposed for deterministic teardown in tests.
    pub fn invalidate_generation(&self, generation: u64) -> usize {
        self.lru.retain(|k, _| k.generation != generation)
    }

    /// Live memoized results.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Drops all entries (capacity and counters unchanged).
    pub fn clear(&self) {
        self.lru.clear();
    }

    /// Aggregated hit/miss/eviction counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.lru.stats()
    }

    /// Zeroes the counters.
    pub fn reset_stats(&self) {
        self.lru.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(bytes: &[u8]) -> Value {
        Value::Blob(Blob::new(bytes.to_vec()))
    }

    /// Scores unconditional `blobs` under `generation`, answering every miss
    /// with `miss`. Returns the emitted values and how many items missed.
    fn score_all(
        cache: &InferenceCache,
        generation: u64,
        blobs: &[&Value],
        miss: &Value,
    ) -> (Vec<Value>, usize) {
        let items: Vec<Keyframe> = blobs.iter().map(|&v| (v, None)).collect();
        let (mut values, mut missed) = (Vec::new(), 0);
        let score = |m: &[Keyframe]| {
            missed = m.len();
            Ok(vec![miss.clone(); m.len()])
        };
        cache
            .score(&InferenceMeter::default(), generation, &items, score, |v| values.push(v))
            .unwrap();
        (values, missed)
    }

    #[test]
    fn keys_compare_contents_not_pointers() {
        // Keys hold their blobs weakly: bind the blobs so they outlive
        // the keys. Two allocations with equal bytes still make equal keys.
        let (kf, kf2, other) = (blob(b"kf"), blob(b"kf"), blob(b"other"));
        let a = InferenceKey::new(1, None, &kf).unwrap();
        let b = InferenceKey::new(1, None, &kf2).unwrap();
        assert_eq!(a, b);
        let c = InferenceKey::new(1, None, &other).unwrap();
        assert_ne!(a, c);
        // Generation and condition discriminate.
        assert_ne!(a, InferenceKey::new(2, None, &kf).unwrap());
        assert_ne!(a, InferenceKey::new(1, Some(0.5), &kf).unwrap());
        assert!(InferenceKey::new(1, None, &Value::Int64(3)).is_err());
    }

    #[test]
    fn a_dead_key_matches_only_itself() {
        let kf = blob(b"kf");
        let live = InferenceKey::new(1, None, &kf).unwrap();
        let dead = InferenceKey::new(1, None, &blob(b"kf")).unwrap();
        assert!(dead.blob.is_dead() && !live.blob.is_dead());
        assert_eq!(dead, dead.clone(), "a dead key still equals itself");
        assert_ne!(dead, live, "same bytes, but the dead blob cannot be compared");
        assert_ne!(live, dead);
        let other_dead = InferenceKey::new(1, None, &blob(b"kf")).unwrap();
        assert_ne!(dead, other_dead);
    }

    #[test]
    fn reclaim_frees_dead_entries_and_keeps_live_ones() {
        let cache = InferenceCache::new(1 << 16);
        let kept: Vec<Value> = (0..64u32).map(|i| blob(&i.to_le_bytes())).collect();
        for v in &kept {
            score_all(&cache, 1, &[v], &Value::Bool(true));
        }
        // Keyframes scored once and then deleted.
        for i in 0..20_000u32 {
            let gone = blob(&(1_000_000 + i).to_le_bytes());
            score_all(&cache, 1, &[&gone], &Value::Bool(false));
        }
        assert!(cache.len() < 10_000, "dead entries were not reclaimed: {}", cache.len());
        let kept: Vec<&Value> = kept.iter().collect();
        let (values, missed) = score_all(&cache, 1, &kept, &Value::Bool(false));
        assert_eq!((values, missed), (vec![Value::Bool(true); 64], 0));
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn memoizes_and_respects_capacity_zero() {
        let cache = InferenceCache::new(16);
        assert!(cache.enabled());
        let kf = blob(b"kf");
        assert_eq!(score_all(&cache, 1, &[&kf], &Value::Bool(true)), (vec![Value::Bool(true)], 1));
        let memoized = score_all(&cache, 1, &[&kf], &Value::Bool(false));
        assert_eq!(memoized, (vec![Value::Bool(true)], 0));

        let off = InferenceCache::new(0);
        assert!(!off.enabled());
        score_all(&off, 1, &[&kf], &Value::Bool(true));
        assert_eq!(score_all(&off, 1, &[&kf], &Value::Bool(false)), (vec![Value::Bool(false)], 1));
        assert!(off.is_empty());
    }

    #[test]
    fn score_answers_hits_scores_misses_in_order_and_counts_them() {
        let (a, b, c) = (blob(b"a"), blob(b"b"), blob(b"c"));
        let items: Vec<Keyframe> = vec![(&a, None), (&b, None), (&c, None)];
        let class =
            |v: &Value| Value::Int64(i64::from(matches!(v, Value::Blob(x) if x[0] == b'b')));
        let cache = InferenceCache::new(64);
        let meter = InferenceMeter::default();
        score_all(&cache, 1, &[&a], &Value::Int64(7));
        let mut scored = Vec::new();
        let mut values = Vec::new();
        cache
            .score(
                &meter,
                1,
                &items,
                |misses| {
                    scored = misses.to_vec();
                    Ok(misses.iter().map(|(v, _)| class(v)).collect())
                },
                |v| values.push(v),
            )
            .unwrap();
        assert_eq!(values, [Value::Int64(7), Value::Int64(1), Value::Int64(0)]);
        assert_eq!(scored, items[1..], "only the misses, in item order");
        let counted = meter.cache().inference;
        assert_eq!((counted.hits, counted.misses), (1, 2));
        // A hit after a miss keeps its place; all hits never call `score`.
        let mut again = Vec::new();
        let mixed = [items[2], (&blob(b"d"), None), items[2]];
        let fresh = |m: &[Keyframe]| Ok(m.iter().map(|_| Value::Int64(9)).collect());
        cache.score(&meter, 1, &mixed, fresh, |v| again.push(v)).unwrap();
        cache.score(&meter, 1, &items[2..], |_| unreachable!(), |v| again.push(v)).unwrap();
        assert_eq!(again, [Value::Int64(0), Value::Int64(9), Value::Int64(0), Value::Int64(0)]);

        // Disabled: every item goes through, nothing is counted, and a
        // non-blob item is the closure's business.
        let off = InferenceCache::new(0);
        let meter = InferenceMeter::default();
        let odd: Vec<Keyframe> = vec![(&Value::Int64(3), None)];
        let mut values = Vec::new();
        let echo = |m: &[Keyframe]| Ok(vec![m[0].0.clone()]);
        off.score(&meter, 1, &odd, echo, |v| values.push(v)).unwrap();
        assert_eq!(values, [Value::Int64(3)]);
        assert_eq!(meter.cache(), crate::CacheActivity::default());
        assert!(off.score(&meter, 1, &odd, |_| Ok(vec![]), |_| {}).is_err(), "one value per item");
    }

    #[test]
    fn generation_invalidation_removes_only_that_generation() {
        let cache = InferenceCache::new(16);
        let a = blob(b"a");
        score_all(&cache, 1, &[&a], &Value::Bool(true));
        score_all(&cache, 2, &[&a], &Value::Bool(false));
        assert_eq!(cache.invalidate_generation(1), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(score_all(&cache, 2, &[&a], &Value::Bool(true)), (vec![Value::Bool(false)], 0));
    }
}
