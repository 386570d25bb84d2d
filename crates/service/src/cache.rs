//! Bounded LRU cache for encoded query responses.
//!
//! Each publication the service serves owns one, keyed by the **query's
//! wire bytes** (its deterministic VAQ1 encoding), so structurally identical
//! queries hit the same entry no matter which client or connection sent
//! them, and a cache never outlives the epoch its frames answer for. Values
//! are fully encoded response frames, ready to write to a socket — a hit
//! costs one map lookup, one `Arc` clone and a re-stamp of the recency
//! index (one `BTreeMap` remove and one insert): the connection writes the
//! cached buffer itself.

use crate::metrics::CacheGauges;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A cached, fully encoded response frame plus its recency stamp.
type CachedEntry = (Arc<Vec<u8>>, u64);

/// A bounded least-recently-used map from query bytes to encoded response
/// frames.
///
/// Bounded twice: by entry count and by the total bytes of cached frames,
/// since one wide range query can produce a response orders of magnitude
/// larger than another. Recency is tracked with a monotone tick: every
/// access re-stamps the entry and eviction removes the smallest stamp. Both
/// structures are O(log n) / O(1) per operation, std-only.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    max_bytes: usize,
    total_bytes: usize,
    evictions: u64,
    tick: u64,
    // Keys are shared between the map and the recency index, so re-stamping
    // an entry on a hit clones an `Arc`, not the key bytes.
    entries: HashMap<Arc<[u8]>, CachedEntry>,
    order: BTreeMap<u64, Arc<[u8]>>,
}

impl LruCache {
    /// Default byte budget when none is given: 64 MiB of cached frames.
    ///
    /// The service bounds its caches with [`LruCache::with_byte_budget`];
    /// this default serves callers that size a cache by entries alone. It
    /// must stay at least ≈20 MB: the benchmark's request-path probe
    /// (`probe_request_path`) builds `LruCache::new(1024)`, inserts ≈2,000
    /// wide-range frames of ≈18.6 KB and asserts that the last 1,024 are
    /// all resident.
    pub const DEFAULT_MAX_BYTES: usize = 64 << 20;

    /// Creates a cache holding at most `capacity` entries (0 disables it)
    /// under the default byte budget.
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_budget(capacity, Self::DEFAULT_MAX_BYTES)
    }

    /// Creates a cache bounded by `capacity` entries **and** `max_bytes`
    /// total cached frame bytes (keys are not counted). Either limit at 0
    /// disables caching.
    pub fn with_byte_budget(capacity: usize, max_bytes: usize) -> Self {
        LruCache {
            capacity,
            max_bytes,
            total_bytes: 0,
            evictions: 0,
            tick: 0,
            entries: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    /// Total bytes of cached response frames.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Entries evicted under LRU or byte-budget pressure since the cache
    /// was created: what distinguishes a thrashing cache from a cold one.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Point-in-time occupancy gauges for stats snapshots.
    pub(crate) fn gauges(&self) -> CacheGauges {
        CacheGauges {
            entries: self.entries.len() as u64,
            bytes: self.total_bytes as u64,
        }
    }

    /// True if the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a response frame, refreshing the entry's recency on a hit.
    pub fn get(&mut self, key: &[u8]) -> Option<Arc<Vec<u8>>> {
        let tick = self.next_tick();
        let (shared_key, (frame, stamp)) = self.entries.get_key_value(key)?;
        let shared_key = Arc::clone(shared_key);
        let frame = Arc::clone(frame);
        let old = *stamp;
        self.entries.get_mut(key)?.1 = tick;
        self.order.remove(&old);
        self.order.insert(tick, shared_key);
        Some(frame)
    }

    /// Inserts a response frame, evicting least recently used entries while
    /// either bound (entry count or byte budget) is exceeded. A no-op when
    /// caching is disabled or the frame alone exceeds the byte budget.
    pub fn insert(&mut self, key: Vec<u8>, frame: Arc<Vec<u8>>) {
        if self.capacity == 0 || frame.len() > self.max_bytes {
            return;
        }
        let key: Arc<[u8]> = key.into();
        let tick = self.next_tick();
        self.total_bytes += frame.len();
        if let Some((old_frame, old)) = self.entries.insert(Arc::clone(&key), (frame, tick)) {
            self.order.remove(&old);
            self.total_bytes -= old_frame.len();
        }
        self.order.insert(tick, key);
        while self.entries.len() > self.capacity || self.total_bytes > self.max_bytes {
            match self.order.pop_first() {
                Some((_, victim)) => {
                    if let Some((frame, _)) = self.entries.remove(&victim) {
                        self.total_bytes -= frame.len();
                        self.evictions += 1;
                    }
                }
                None => break,
            }
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(byte: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![byte; 4])
    }

    #[test]
    fn hit_returns_inserted_frame() {
        let mut cache = LruCache::new(4);
        cache.insert(b"q1".to_vec(), frame(1));
        assert_eq!(cache.get(b"q1").unwrap().as_slice(), &[1, 1, 1, 1]);
        assert!(cache.get(b"q2").is_none());
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        let mut cache = LruCache::new(2);
        cache.insert(b"a".to_vec(), frame(1));
        cache.insert(b"b".to_vec(), frame(2));
        // Touch `a` so `b` becomes the LRU victim.
        cache.get(b"a").unwrap();
        cache.insert(b"c".to_vec(), frame(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(b"a").is_some());
        assert!(cache.get(b"b").is_none(), "b was the LRU entry");
        assert!(cache.get(b"c").is_some());
    }

    #[test]
    fn reinsert_replaces_value_without_growing() {
        let mut cache = LruCache::new(2);
        cache.insert(b"a".to_vec(), frame(1));
        cache.insert(b"a".to_vec(), frame(9));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(b"a").unwrap().as_slice(), &[9, 9, 9, 9]);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = LruCache::new(0);
        cache.insert(b"a".to_vec(), frame(1));
        assert!(cache.is_empty());
        assert!(cache.get(b"a").is_none());
    }

    #[test]
    fn evictions_are_counted() {
        let mut cache = LruCache::new(2);
        cache.insert(b"a".to_vec(), frame(1));
        cache.insert(b"b".to_vec(), frame(2));
        assert_eq!(cache.evictions(), 0);
        cache.insert(b"c".to_vec(), frame(3)); // evicts "a"
        cache.insert(b"d".to_vec(), frame(4)); // evicts "b"
        assert_eq!(cache.evictions(), 2);
        // Reinsert replaces in place: no eviction.
        cache.insert(b"d".to_vec(), frame(5));
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn gauges_track_occupancy() {
        let mut cache = LruCache::new(4);
        cache.insert(b"a".to_vec(), frame(1));
        cache.insert(b"b".to_vec(), frame(2));
        let gauges = cache.gauges();
        assert_eq!(gauges.entries, 2);
        assert_eq!(gauges.bytes, 8);
    }

    #[test]
    fn byte_budget_bounds_total_cached_bytes() {
        // Budget of 10 bytes; each frame is 4 bytes, so at most 2 fit.
        let mut cache = LruCache::with_byte_budget(100, 10);
        cache.insert(b"a".to_vec(), frame(1));
        cache.insert(b"b".to_vec(), frame(2));
        cache.insert(b"c".to_vec(), frame(3));
        assert!(cache.total_bytes() <= 10, "{} bytes", cache.total_bytes());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(b"a").is_none(), "oldest entry evicted by budget");
        assert!(cache.get(b"c").is_some());

        // A frame larger than the whole budget is refused outright.
        cache.insert(b"huge".to_vec(), Arc::new(vec![0u8; 11]));
        assert!(cache.get(b"huge").is_none());
        assert!(cache.total_bytes() <= 10);
    }

    #[test]
    fn byte_accounting_survives_reinserts_and_evictions() {
        let mut cache = LruCache::with_byte_budget(4, 1000);
        for round in 0..50u8 {
            for key in [b"x".to_vec(), b"y".to_vec(), b"z".to_vec()] {
                cache.insert(key, Arc::new(vec![round; (round as usize % 7) + 1]));
            }
        }
        let actual: usize = [&b"x"[..], b"y", b"z"]
            .iter()
            .filter_map(|k| cache.get(k))
            .map(|f| f.len())
            .sum();
        assert_eq!(cache.total_bytes(), actual);
    }

    #[test]
    fn the_default_budget_holds_a_thousand_wide_frames() {
        // The benchmark's request-path probe relies on this: 1,024 entries
        // of wide-range frames are bounded by the entry count alone.
        let mut cache = LruCache::new(1024);
        for i in 0..2000u32 {
            cache.insert(i.to_be_bytes().to_vec(), Arc::new(vec![0u8; 18_600]));
        }
        assert_eq!(cache.len(), 1024);
        assert_eq!(cache.total_bytes(), 1024 * 18_600);
        for i in 2000 - 1024..2000u32 {
            assert!(cache.get(&i.to_be_bytes()).is_some(), "key {i}");
        }
    }

    #[test]
    fn long_access_pattern_respects_capacity() {
        let mut cache = LruCache::new(8);
        for i in 0..1000u32 {
            cache.insert(i.to_be_bytes().to_vec(), frame(i as u8));
            assert!(cache.len() <= 8);
        }
        // The most recent 8 keys survive.
        for i in 992..1000u32 {
            assert!(cache.get(&i.to_be_bytes()).is_some(), "key {i}");
        }
    }
}
