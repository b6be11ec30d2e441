//! Cost-budgeted LRU caching, and the opt-in intermediate-result cache
//! built on it (§5.4).
//!
//! [`Lru`] is the one cache for owned values in the system: the service's
//! result and plan caches and the router's plan and route caches are all
//! instances of it, each with its own notion of cost (bytes of rows, or
//! one per entry under a fixed cap).
//!
//! Two derivation sequences that perform the same expensive derivation
//! should compute it only once. The plan executor fingerprints every plan
//! node; when caching is enabled, a node's materialized rows are stored
//! in a [`ResultCache`] under that fingerprint and reused by later
//! executions. Capacity is bounded in bytes with least-recently-used
//! eviction, and entries may optionally spill to non-volatile storage.

use crate::error::{Result, SjError};
use crate::row::Row;
use crate::schema::Schema;
use parking_lot::Mutex;
use sjdf::ByteSize;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Successful lookups.
    pub hits: u64,
    /// Failed lookups.
    pub misses: u64,
    /// Entries evicted to fit the budget.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
    /// Total cost of the entries currently held.
    pub cost: usize,
}

struct Slot<V> {
    value: Arc<V>,
    cost: usize,
    /// Recency tick of the last insert or hit; the key of `order`.
    tick: u64,
}

struct LruInner<K, V> {
    slots: HashMap<K, Slot<V>>,
    /// Recency index: tick → key. The first entry is the eviction victim.
    order: BTreeMap<u64, K>,
    clock: u64,
    stats: CacheStats,
}

/// A thread-safe least-recently-used cache bounded by the total cost of
/// its entries. Values are shared: a hit hands out the cached `Arc`, never
/// a copy.
pub struct Lru<K, V> {
    inner: Mutex<LruInner<K, V>>,
    budget: usize,
}

impl<K, V> Lru<K, V> {
    /// An empty cache holding entries of total cost at most `budget`.
    pub fn new(budget: usize) -> Self {
        Lru {
            inner: Mutex::new(LruInner {
                slots: HashMap::new(),
                order: BTreeMap::new(),
                clock: 0,
                stats: CacheStats::default(),
            }),
            budget,
        }
    }

    /// Drop every entry. Hit, miss and eviction counters are kept.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.slots.clear();
        inner.order.clear();
        inner.stats.cost = 0;
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            entries: inner.slots.len(),
            ..inner.stats
        }
    }
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// Look up `key`, counting a hit or a miss. A hit becomes the most
    /// recently used entry.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let Some(slot) = inner.slots.get_mut(key) else {
            inner.stats.misses += 1;
            return None;
        };
        inner.clock += 1;
        let k = inner
            .order
            .remove(&slot.tick)
            .expect("every slot is indexed under its tick");
        inner.order.insert(inner.clock, k);
        slot.tick = inner.clock;
        inner.stats.hits += 1;
        Some(Arc::clone(&slot.value))
    }

    /// Insert `value` under `key` at `cost`, evicting least-recently-used
    /// entries until the total fits the budget. If `key` is already
    /// present its value wins and is returned: racing inserts of the same
    /// key all get one shared value. A value costlier than the whole
    /// budget is returned but not kept.
    pub fn insert(&self, key: K, value: V, cost: usize) -> Arc<V> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if let Some(slot) = inner.slots.get(&key) {
            return Arc::clone(&slot.value);
        }
        let value = Arc::new(value);
        if cost > self.budget {
            return value;
        }
        inner.clock += 1;
        inner.order.insert(inner.clock, key.clone());
        let slot = Slot {
            value: Arc::clone(&value),
            cost,
            tick: inner.clock,
        };
        inner.slots.insert(key, slot);
        inner.stats.cost += cost;
        while inner.stats.cost > self.budget {
            let Some((_, victim)) = inner.order.pop_first() else {
                break;
            };
            if let Some(evicted) = inner.slots.remove(&victim) {
                inner.stats.cost -= evicted.cost;
                inner.stats.evictions += 1;
            }
        }
        value
    }
}

impl<K, V> std::fmt::Debug for Lru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lru")
            .field("budget", &self.budget)
            .field("stats", &self.stats())
            .finish()
    }
}

/// A plan node's materialization: its schema and rows.
pub type Materialized = (Schema, Vec<Row>);

/// LRU intermediate-result cache keyed by plan-node fingerprints, with the
/// paper's optional non-volatile spill.
#[derive(Debug)]
pub struct ResultCache {
    lru: Lru<u64, Materialized>,
    spill_dir: Option<PathBuf>,
}

impl ResultCache {
    /// In-memory cache bounded to `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Self {
        ResultCache {
            lru: Lru::new(capacity_bytes),
            spill_dir: None,
        }
    }

    /// Cache that additionally persists entries as JSON files under `dir`
    /// (the paper's non-volatile cache), so results survive the process.
    pub fn with_spill(capacity_bytes: usize, dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| SjError::Io(e.to_string()))?;
        Ok(ResultCache {
            lru: Lru::new(capacity_bytes),
            spill_dir: Some(dir),
        })
    }

    /// Look up a materialization by fingerprint. An entry missing from
    /// memory is read back from the spill directory, if configured, and
    /// kept in memory again.
    pub fn get(&self, key: u64) -> Option<Arc<Materialized>> {
        if let Some(hit) = self.lru.get(&key) {
            return Some(hit);
        }
        let text = std::fs::read_to_string(spill_path(self.spill_dir.as_ref()?, key)).ok()?;
        let (schema, rows) = serde_json::from_str(&text).ok()?;
        Some(self.keep(key, schema, rows))
    }

    /// Insert a materialization and return the shared cached value (an
    /// earlier entry for `key` wins). Entries larger than the whole
    /// capacity are not kept in memory, but still spill if configured.
    pub fn insert(&self, key: u64, schema: Schema, rows: Vec<Row>) -> Arc<Materialized> {
        if let Some(dir) = &self.spill_dir {
            if let Ok(text) = serde_json::to_string(&(&schema, &rows)) {
                let _ = std::fs::write(spill_path(dir, key), text);
            }
        }
        self.keep(key, schema, rows)
    }

    fn keep(&self, key: u64, schema: Schema, rows: Vec<Row>) -> Arc<Materialized> {
        let bytes = rows.iter().map(ByteSize::byte_size).sum();
        self.lru.insert(key, (schema, rows), bytes)
    }

    /// Statistics of the in-memory cache; `cost` is its size in bytes.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }
}

fn spill_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FieldDef;
    use crate::semantics::FieldSemantics;
    use crate::value::Value;

    fn schema() -> Schema {
        Schema::new(vec![FieldDef::new(
            "x",
            FieldSemantics::value("temperature", "celsius"),
        )])
        .unwrap()
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![Value::Int(i as i64)]))
            .collect()
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = Lru::new(2);
        c.insert(1, "a", 1);
        c.insert(2, "b", 1);
        // Touch 1 so 2 becomes the LRU victim.
        c.get(&1).unwrap();
        c.insert(3, "c", 1);
        assert!(c.get(&1).is_some());
        assert!(c.get(&2).is_none());
        assert!(c.get(&3).is_some());
        let s = c.stats();
        assert_eq!((s.evictions, s.entries, s.cost), (1, 2, 2));
    }

    #[test]
    fn lru_evicts_as_many_entries_as_the_budget_needs() {
        let c = Lru::new(10);
        for k in 0..5 {
            c.insert(k, k, 2);
        }
        c.insert(9, 9, 7);
        let s = c.stats();
        assert_eq!((s.entries, s.cost, s.evictions), (2, 9, 4));
        assert!(c.get(&4).is_some(), "the newest small entry survives");
    }

    #[test]
    fn oversized_values_are_returned_but_not_kept() {
        let c = Lru::new(10);
        let v = c.insert(1, "big", 11);
        assert_eq!(*v, "big");
        assert!(c.get(&1).is_none());
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().cost, 0);
    }

    #[test]
    fn reinserting_a_present_key_keeps_the_first_value_and_cost() {
        let c = Lru::new(100);
        let first = c.insert(1, "a", 5);
        let second = c.insert(1, "b", 7);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*second, "a");
        let s = c.stats();
        assert_eq!((s.entries, s.cost, s.evictions), (1, 5, 0));
    }

    #[test]
    fn racing_inserts_of_one_key_share_the_first_value() {
        let c = Lru::new(100);
        let winners: Vec<Arc<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let c = &c;
                    s.spawn(move || c.insert("k", t, 1))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let cached = c.get(&"k").unwrap();
        assert!(winners.iter().all(|w| Arc::ptr_eq(w, &cached)));
        assert_eq!(c.stats().cost, 1);
    }

    #[test]
    fn hits_share_one_value() {
        let c = Lru::new(100);
        c.insert(1, vec![1, 2, 3], 3);
        let a = c.get(&1).unwrap();
        let b = c.get(&1).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let c = Lru::new(100);
        c.insert(1, (), 4);
        c.insert(2, (), 4);
        c.get(&1).unwrap();
        c.clear();
        assert!(c.get(&1).is_none());
        let s = c.stats();
        assert_eq!((s.entries, s.cost, s.hits, s.misses), (0, 0, 1, 1));
        c.insert(1, (), 4);
        assert!(c.get(&1).is_some());
    }

    #[test]
    fn stats_count_hits_misses_and_evictions() {
        let c = Lru::new(1);
        assert!(c.get(&1).is_none());
        c.insert(1, (), 1);
        c.get(&1).unwrap();
        c.get(&1).unwrap();
        c.insert(2, (), 1);
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 2,
                misses: 1,
                evictions: 1,
                entries: 1,
                cost: 1,
            }
        );
    }

    #[test]
    fn result_cache_round_trip_costs_row_bytes() {
        let c = ResultCache::new(1 << 20);
        c.insert(42, schema(), rows(3));
        let hit = c.get(42).unwrap();
        assert_eq!(hit.0, schema());
        assert_eq!(hit.1.len(), 3);
        assert!(c.get(43).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(
            s.cost,
            rows(3).iter().map(ByteSize::byte_size).sum::<usize>()
        );
    }

    #[test]
    fn spill_persists_across_instances() {
        let dir = std::env::temp_dir().join(format!("sj-cache-test-{}", std::process::id()));
        {
            let c = ResultCache::with_spill(1 << 20, &dir).unwrap();
            c.insert(7, schema(), rows(4));
        }
        {
            let c = ResultCache::with_spill(1 << 20, &dir).unwrap();
            let hit = c.get(7).expect("spilled entry should be readable");
            assert_eq!(hit.1.len(), 4);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
