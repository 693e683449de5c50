//! `cachekit` — the shared caching machinery of the repository's
//! multi-level cache subsystem.
//!
//! Three cache layers sit on top of this crate:
//!
//! * `minidb`'s **plan cache** (SQL text → prepared statement, whose
//!   kept plans each check what they were planned against, the config
//!   [`Epoch`] among it),
//! * `collab`'s **nUDF inference memoization** (model generation +
//!   keyframe bytes → prediction, a [`ShardedLru`]),
//! * `dl2sql`'s **compiled-artifact cache** (model + pre-join strategy →
//!   `CompiledModel`/`Runner`).
//!
//! The crate provides the pieces they share: a monotonically increasing
//! epoch counter for cheap bulk invalidation, an O(log n)
//! capacity-bounded LRU map with hit/miss/eviction accounting, and a
//! sharded wrapper that spreads lock contention across independent LRUs.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

// ---------------------------------------------------------------------------
// epochs
// ---------------------------------------------------------------------------

/// A monotonically increasing version counter.
///
/// Writers [`bump`](Epoch::bump) it whenever they change state that cached
/// values depend on; caches stamp each entry with [`current`](Epoch::current)
/// at fill time and treat any entry with a stale stamp as a miss. This
/// turns "invalidate everything derived from X" into a single atomic
/// increment.
#[derive(Debug, Default)]
pub struct Epoch(AtomicU64);

impl Epoch {
    /// A fresh counter at 0.
    pub fn new() -> Self {
        Epoch::default()
    }

    /// The current value.
    pub fn current(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Increments and returns the new value.
    pub fn bump(&self) -> u64 {
        self.0.fetch_add(1, Ordering::AcqRel) + 1
    }
}

// ---------------------------------------------------------------------------
// statistics
// ---------------------------------------------------------------------------

/// Lock-free hit/miss/eviction counters, shared by every cache level.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheStats {
    /// Records a lookup that was served from the cache.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a lookup that had to be recomputed.
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a capacity eviction.
    pub fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Zeroes all counters.
    pub fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl StatsSnapshot {
    /// Lookups served from the cache over all lookups (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Sums two snapshots (aggregating shards).
    pub fn merge(self, other: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
        }
    }
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

struct LruInner<K, V> {
    /// key → (value, recency tick of the last touch).
    map: HashMap<K, (V, u64)>,
    /// recency tick → key, ordered oldest-first for O(log n) eviction.
    recency: BTreeMap<u64, K>,
    tick: u64,
}

/// A thread-safe, capacity-bounded least-recently-used map.
///
/// `get` refreshes recency; `insert` evicts the coldest entry once the
/// capacity is exceeded. A capacity of 0 disables the cache: every lookup
/// misses and inserts are dropped, so call sites need no separate
/// "enabled" flag.
pub struct LruCache<K, V> {
    inner: Mutex<LruInner<K, V>>,
    capacity: AtomicU64,
    stats: CacheStats,
    /// Reports keys whose referent is gone (see [`LruCache::with_reclaim`]).
    dead: Option<fn(&K) -> bool>,
}

impl<K: Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            inner: Mutex::new(LruInner { map: HashMap::new(), recency: BTreeMap::new(), tick: 0 }),
            capacity: AtomicU64::new(capacity as u64),
            stats: CacheStats::default(),
            dead: None,
        }
    }

    /// As [`LruCache::new`], for keys that refer to their data weakly:
    /// before the map would reallocate to fit a new key, every entry whose
    /// key `dead` reports as gone is dropped (not counted as an eviction).
    /// When a scan frees less than half the map, the map grows anyway, so
    /// the next scan waits at least as many inserts as this one visited
    /// entries — amortized O(1) per insert.
    pub fn with_reclaim(capacity: usize, dead: fn(&K) -> bool) -> Self {
        LruCache { dead: Some(dead), ..LruCache::new(capacity) }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed) as usize
    }

    /// Changes the capacity, evicting cold entries if the cache shrank.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity as u64, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        while inner.map.len() > capacity {
            evict_coldest(&mut inner, &self.stats);
        }
    }

    /// Looks up a key, refreshing its recency. Records a hit or miss.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some((value, last)) => {
                let old = std::mem::replace(last, tick);
                let value = value.clone();
                let key = inner.recency.remove(&old).expect("recency entry tracks map entry");
                inner.recency.insert(tick, key);
                self.stats.record_hit();
                Some(value)
            }
            None => {
                self.stats.record_miss();
                None
            }
        }
    }

    /// Inserts (or replaces) an entry, evicting the coldest entries while
    /// over capacity, and returns how many it evicted. A no-op when the
    /// capacity is 0.
    pub fn insert(&self, key: K, value: V) -> usize {
        let capacity = self.capacity();
        if capacity == 0 {
            return 0;
        }
        let mut inner = self.inner.lock();
        if let Some(dead) = self.dead {
            if inner.map.len() == inner.map.capacity() && !inner.map.contains_key(&key) {
                reclaim(&mut inner, dead);
            }
        }
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((_, old)) = inner.map.insert(key.clone(), (value, tick)) {
            inner.recency.remove(&old);
        }
        inner.recency.insert(tick, key);
        let mut evicted = 0;
        while inner.map.len() > capacity {
            evict_coldest(&mut inner, &self.stats);
            evicted += 1;
        }
        evicted
    }

    /// Removes every entry for which `pred` returns true (targeted
    /// invalidation), returning how many were removed.
    pub fn retain(&self, mut pred: impl FnMut(&K, &V) -> bool) -> usize {
        let mut inner = self.inner.lock();
        let doomed: Vec<(K, u64)> = inner
            .map
            .iter()
            .filter(|(k, (v, _))| !pred(k, v))
            .map(|(k, (_, t))| (k.clone(), *t))
            .collect();
        for (k, t) in &doomed {
            inner.map.remove(k);
            inner.recency.remove(t);
        }
        doomed.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.recency.clear();
    }

    /// The cache's hit/miss/eviction counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Zeroes the counters (entries are kept).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }
}

fn evict_coldest<K: Hash + Eq, V>(inner: &mut LruInner<K, V>, stats: &CacheStats) {
    if let Some((&tick, _)) = inner.recency.iter().next() {
        let key = inner.recency.remove(&tick).expect("just observed");
        inner.map.remove(&key);
        stats.record_eviction();
    }
}

/// Drops every entry whose key is dead; grows the map when fewer than
/// half its entries went, so scans stay amortized O(1) per insert.
fn reclaim<K: Hash + Eq, V>(inner: &mut LruInner<K, V>, dead: fn(&K) -> bool) {
    let LruInner { map, recency, .. } = inner;
    let before = map.len();
    map.retain(|key, (_, tick)| {
        let keep = !dead(key);
        if !keep {
            recency.remove(tick);
        }
        keep
    });
    if map.len() * 2 > before {
        map.reserve(map.len());
    }
}

// ---------------------------------------------------------------------------
// sharding
// ---------------------------------------------------------------------------

/// An [`LruCache`] split into independently locked shards selected by key
/// hash, so concurrent workers (the morsel executor's UDF evaluation, the
/// taskpool's batch inference) rarely contend on one mutex. The total
/// capacity is divided evenly across shards.
pub struct ShardedLru<K, V> {
    shards: Vec<LruCache<K, V>>,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// A cache of `total_capacity` entries across `shards` shards (shard
    /// count is clamped to at least 1 and rounded so every shard gets the
    /// same capacity).
    pub fn new(total_capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = total_capacity.div_ceil(shards);
        ShardedLru { shards: (0..shards).map(|_| LruCache::new(per_shard)).collect() }
    }

    /// As [`ShardedLru::new`], with every shard built by
    /// [`LruCache::with_reclaim`].
    pub fn with_reclaim(total_capacity: usize, shards: usize, dead: fn(&K) -> bool) -> Self {
        let shards = shards.max(1);
        let per_shard = total_capacity.div_ceil(shards);
        ShardedLru {
            shards: (0..shards).map(|_| LruCache::with_reclaim(per_shard, dead)).collect(),
        }
    }

    fn shard<Q>(&self, key: &Q) -> &LruCache<K, V>
    where
        Q: Hash + ?Sized,
    {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Total configured capacity across shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.capacity()).sum()
    }

    /// Redistributes a new total capacity across the existing shards
    /// (shrinking shards evict their coldest entries; counters are kept).
    pub fn set_capacity(&self, total_capacity: usize) {
        let per_shard = total_capacity.div_ceil(self.shards.len());
        for s in &self.shards {
            s.set_capacity(if total_capacity == 0 { 0 } else { per_shard });
        }
    }

    /// Looks up a key in its shard.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shard(key).get(key)
    }

    /// Inserts into the key's shard; returns how many entries it evicted.
    pub fn insert(&self, key: K, value: V) -> usize {
        self.shard(&key).insert(key, value)
    }

    /// Removes entries failing `pred` across all shards.
    pub fn retain(&self, mut pred: impl FnMut(&K, &V) -> bool) -> usize {
        self.shards.iter().map(|s| s.retain(&mut pred)).sum()
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears every shard.
    pub fn clear(&self) {
        for s in &self.shards {
            s.clear();
        }
    }

    /// Aggregated counters across shards.
    pub fn stats(&self) -> StatsSnapshot {
        self.shards.iter().fold(StatsSnapshot::default(), |acc, s| acc.merge(s.stats()))
    }

    /// Zeroes every shard's counters.
    pub fn reset_stats(&self) {
        for s in &self.shards {
            s.reset_stats();
        }
    }
}

// ---------------------------------------------------------------------------
// content hashing
// ---------------------------------------------------------------------------

/// FNV-1a over a byte slice — a cheap, dependency-free content hash for
/// keyframe blobs and normalized SQL. Collisions only affect shard
/// selection / HashMap bucketing, never correctness: cache keys compare
/// full contents.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_bumps_monotonically() {
        let e = Epoch::new();
        assert_eq!(e.current(), 0);
        assert_eq!(e.bump(), 1);
        assert_eq!(e.bump(), 2);
        assert_eq!(e.current(), 2);
    }

    #[test]
    fn lru_hit_miss_accounting() {
        let c: LruCache<String, i64> = LruCache::new(4);
        assert_eq!(c.get("a"), None);
        c.insert("a".into(), 1);
        assert_eq!(c.get("a"), Some(1));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_coldest_under_tiny_capacity() {
        let c: LruCache<i64, i64> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        // Touch 1 so 2 is the coldest.
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.insert(3, 30), 1, "insert reports its eviction");
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&2), None, "coldest entry evicted");
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.insert(3, 31), 0, "replacing evicts nothing");
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let c: LruCache<i64, i64> = LruCache::new(0);
        c.insert(1, 10);
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn set_capacity_shrinks_and_grows() {
        let c: LruCache<i64, i64> = LruCache::new(8);
        for i in 0..8 {
            c.insert(i, i);
        }
        c.set_capacity(3);
        assert_eq!(c.len(), 3);
        c.set_capacity(8);
        for i in 10..15 {
            c.insert(i, i);
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn replace_does_not_leak_recency() {
        let c: LruCache<i64, i64> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(1, 11);
        c.insert(2, 20);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), Some(11));
    }

    #[test]
    fn retain_removes_matching_entries() {
        let c: LruCache<i64, i64> = LruCache::new(8);
        for i in 0..6 {
            c.insert(i, i * 10);
        }
        let removed = c.retain(|k, _| k % 2 == 0);
        assert_eq!(removed, 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(20));
    }

    #[test]
    fn sharded_lru_spreads_and_aggregates() {
        // Generous capacity: per-shard budgets mean a perfectly full cache
        // would need perfectly uniform key hashing.
        let c: ShardedLru<i64, i64> = ShardedLru::new(512, 8);
        for i in 0..64 {
            c.insert(i, i);
        }
        for i in 0..64 {
            assert_eq!(c.get(&i), Some(i), "key {i}");
        }
        assert_eq!(c.len(), 64);
        let s = c.stats();
        assert_eq!(s.hits, 64);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn sharded_lru_is_thread_safe() {
        let c: std::sync::Arc<ShardedLru<i64, i64>> = std::sync::Arc::new(ShardedLru::new(256, 8));
        let mut handles = Vec::new();
        for t in 0..4i64 {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let k = (t * 50 + i) % 100;
                    c.insert(k, k * 2);
                    if let Some(v) = c.get(&k) {
                        assert_eq!(v, k * 2);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn reclaim_drops_dead_keys_before_the_map_grows() {
        // Keys at or above 1000 are "dead".
        let c: LruCache<i64, i64> = LruCache::with_reclaim(1 << 20, |k| *k >= 1000);
        for i in 0..10_000 {
            c.insert(1000 + i, i);
        }
        c.insert(1, 1);
        c.insert(2, 2);
        let inner = c.inner.lock();
        // Every growth step scanned first, so the dead keys never pile up
        // past one map's worth, and the live keys all survived.
        assert!(inner.map.len() < 10_000, "dead keys were never reclaimed: {}", inner.map.len());
        assert!(inner.map.contains_key(&1) && inner.map.contains_key(&2));
        assert_eq!(inner.map.len(), inner.recency.len(), "recency tracks the map");
        drop(inner);
        assert_eq!(c.stats().evictions, 0, "reclaiming is not evicting");
        assert_eq!(c.get(&2), Some(2));
    }

    #[test]
    fn reclaim_keeps_live_keys_and_stays_amortized() {
        // Nothing is ever dead: each scan frees nothing, so the map must
        // grow anyway and scans happen only at doublings.
        static SCANNED: AtomicU64 = AtomicU64::new(0);
        let c: LruCache<i64, i64> = LruCache::with_reclaim(1 << 20, |_| {
            SCANNED.fetch_add(1, Ordering::Relaxed);
            false
        });
        let n = 50_000;
        for i in 0..n {
            c.insert(i, i);
        }
        assert_eq!(c.len(), n as usize);
        // Visits stay linear in the inserts (doublings sum to < 4n).
        assert!(SCANNED.load(Ordering::Relaxed) < 4 * n as u64, "{:?}", SCANNED);
    }

    #[test]
    fn fnv1a_distinguishes_contents() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
    }
}
